//! The paper's quantitative and qualitative claims, checked end-to-end
//! through the figure harnesses of `flexray-bench`.

use flexray::gen::{generate, GeneratorConfig};
use flexray::{bbc, obc, DynSearch, PhyParams};
use flexray_bench::sweep::search_mode;
use flexray_bench::{fig3, fig4, fig7, fig9};
use flexray_model::Time;
use std::process::Command;

#[test]
fn fig3_st_segment_example_matches_paper() {
    // R3 = 16 / 12 / 10 for the three static-segment layouts.
    for sc in fig3::scenarios() {
        let r3 = fig3::response_of_m3(&sc).expect("scenario runs");
        assert_eq!(r3, Time::from_us(sc.paper_r3), "scenario {}", sc.label);
    }
}

#[test]
fn fig4_dyn_segment_example_matches_paper() {
    // R2 = 37 / 35 / 21 for Tables A/B and the enlarged segment.
    for sc in fig4::scenarios() {
        let (sim, wcrt) = fig4::response_of_m2(&sc).expect("scenario runs");
        assert_eq!(sim, Time::from_us(sc.paper_r2), "scenario {}", sc.label);
        assert!(wcrt >= sim, "analysis bound below simulation");
    }
}

#[test]
fn fig7_response_times_are_u_shaped_in_dyn_length() {
    let points = fig7::sweep(2285.4, 13_000.0, 8).expect("sweep");
    assert!(points.len() >= 6);
    assert!(fig7::has_u_shape(&points));
}

#[test]
fn unique_frame_ids_beat_shared_ones_on_fig4() {
    // Scenario a (m1 and m3 share FrameID 1) vs scenario b (unique):
    // the paper's argument for the BBC assignment rule.
    let scs = fig4::scenarios();
    let (ra, _) = fig4::response_of_m2(&scs[0]).expect("a");
    let (rb, _) = fig4::response_of_m2(&scs[1]).expect("b");
    assert!(rb < ra);
}

#[test]
fn fig9_obcee_equals_bbc_wherever_bbc_schedules() {
    // OBC starts from BBC's layout and DYN sweep and stops at the first
    // schedulable configuration (Fig. 6 line 7), so on every application
    // BBC schedules, OBCEE returns BBC's configuration and cost: the left
    // panel's OBCEE = BBC rows hold by construction.
    let cfg = fig9::grid(vec![2, 3, 4, 5]);
    let (params, _) = search_mode("smoke").expect("known mode");
    let mut schedulable = 0;
    for (p, nodes) in (2..=5).enumerate() {
        for i in 0..2 {
            let g = generate(&GeneratorConfig::paper(nodes), cfg.seed(p, i)).expect("generator");
            let phy = PhyParams::bmw_like();
            let b = bbc(&g.platform, &g.app, phy, &params);
            if !b.is_schedulable() {
                continue;
            }
            schedulable += 1;
            let ee = obc(&g.platform, &g.app, phy, &params, DynSearch::Exhaustive);
            assert_eq!(ee.cost, b.cost, "nodes {nodes}, application {i}");
            assert_eq!(ee.bus, b.bus, "nodes {nodes}, application {i}");
        }
    }
    assert!(schedulable >= 4, "too few BBC-schedulable applications");
}

/// One row of the `fig9` binary's output: node count, algorithm, and
/// the row's two numbers (left panel: schedulable count and mean %
/// deviation from SA; right panel: time and mean analyses).
type Fig9Row = (usize, String, String, f64);

fn parse_fig9_panel(panel: &str) -> Vec<Fig9Row> {
    panel
        .lines()
        .filter_map(|line| {
            let t: Vec<&str> = line.split_whitespace().collect();
            let nodes = t.first()?.parse().ok()?;
            let [_, algo, a, b] = t[..] else { return None };
            Some((nodes, algo.to_string(), a.to_string(), b.parse().ok()?))
        })
        .collect()
}

fn find<'a>(panel: &'a [Fig9Row], nodes: usize, algo: &str) -> &'a Fig9Row {
    panel
        .iter()
        .find(|r| r.0 == nodes && r.1 == algo)
        .unwrap_or_else(|| panic!("no {algo} row at {nodes} nodes"))
}

#[test]
fn fig9_reduced_scale_claims() {
    // The release `fig9` binary, 6 applications per node count at
    // smoke-scale search: the debug test build is far too slow to run
    // the four optimisers in process at any scale that shows a trend.
    let output = Command::new(env!("CARGO"))
        .args([
            "run",
            "--release",
            "-q",
            "-p",
            "flexray-bench",
            "--bin",
            "fig9",
            "--",
        ])
        .args(["apps=6", "nodes=2,3,4,5", "mode=smoke", "threads=1"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn cargo");
    assert!(output.status.success(), "fig9 failed: {output:?}");
    let text = String::from_utf8(output.stdout).expect("utf-8 table");
    let (left, right) = text.split_once("Fig. 9 (right)").expect("two panels");
    let left = parse_fig9_panel(left);
    let right = parse_fig9_panel(right);
    assert_eq!(left.len(), 16, "{text}");
    assert_eq!(right.len(), 16, "{text}");

    let schedulable = |nodes: usize, algo: &str| -> usize {
        let count = &find(&left, nodes, algo).2;
        count
            .split('/')
            .next()
            .and_then(|c| c.parse().ok())
            .expect("a/b")
    };
    for nodes in 2..=5 {
        // SA, the reference, schedules at least as many applications as
        // any other algorithm.
        for algo in ["BBC", "OBCCF", "OBCEE"] {
            assert!(
                schedulable(nodes, "SA") >= schedulable(nodes, algo),
                "{algo} at {nodes}"
            );
        }
        // OBCEE stays within a few percent (here: 5%) of SA.
        let ee_dev = find(&left, nodes, "OBCEE").3;
        assert!(ee_dev <= 5.0, "OBCEE {ee_dev:+.2}% at {nodes} nodes");
        // BBC does the least work: the fewest analyses of all four.
        let bbc_work = find(&right, nodes, "BBC").3;
        for algo in ["OBCCF", "OBCEE", "SA"] {
            let work = find(&right, nodes, algo).3;
            assert!(
                bbc_work < work,
                "BBC {bbc_work} vs {algo} {work} at {nodes}"
            );
        }
    }
    // BBC stops finding schedulable configurations as systems grow.
    assert!(schedulable(5, "BBC") < schedulable(2, "BBC"), "{text}");
}
