//! Differential and property suite locking down the factorial grid
//! engine:
//!
//! * cartesian-product completeness and deterministic enumeration;
//! * single-axis sweep grids and the fig9 preset against serial
//!   reference loops (bit-identical deterministic output);
//! * what the report header pins;
//! * a golden-file test pinning the JSONL/CSV schema — bumping
//!   [`GRID_SCHEMA_VERSION`] breaks it on purpose.
//!
//! Surviving a kill is the `flexray-serve` journal's job; its
//! `cli_parity` and `kill_replay` tests cover it.

use flexray_bench::grid::{run_grid, GridConfig, GridPoint, SeedPolicy};
use flexray_bench::report::{to_csv, to_jsonl, GridReportHeader, GRID_SCHEMA_VERSION};
use flexray_bench::sweep::{aggregate_algos, Algo, AlgoStats, SweepAxis};
use flexray_gen::{generate, AggregatedGenStats, GeneratorConfig};
use flexray_model::{PhyParams, UtilSummary};
use flexray_opt::{OptParams, OptResult, SaParams};

/// Smoke-scale search parameters shared by every differential run —
/// the same preset table the binaries use.
fn smoke_params() -> OptParams {
    flexray_bench::sweep::search_mode("smoke")
        .expect("known mode")
        .0
}

fn smoke_sa() -> SaParams {
    flexray_bench::sweep::search_mode("smoke")
        .expect("known mode")
        .1
}

fn smoke_grid(axes: Vec<SweepAxis>) -> GridConfig {
    GridConfig {
        base: GeneratorConfig::small(3),
        axes,
        apps_per_point: 2,
        algos: vec![Algo::Bbc, Algo::Sa],
        params: smoke_params(),
        sa: smoke_sa(),
        seed0: 7,
        seed_policy: SeedPolicy::PointIndex,
        threads: 1,
        workload: None,
    }
}

// ---------------------------------------------------------------------
// Enumeration properties
// ---------------------------------------------------------------------

#[test]
fn cartesian_product_is_complete_and_deterministically_ordered() {
    let cfg = smoke_grid(vec![
        SweepAxis::NodeCount(vec![2, 3, 4]),
        SweepAxis::GatewayFraction(vec![0.0, 0.5]),
        SweepAxis::BusUtil(vec![0.2, 0.4]),
    ]);
    assert_eq!(cfg.total_points(), 12);

    // the enumeration is exactly the nested loop, first axis slowest
    let mut expected = Vec::new();
    for n in [2usize, 3, 4] {
        for g in [0.0f64, 0.5] {
            for u in [0.2f64, 0.4] {
                expected.push(format!("nodes={n},gateway={g:.2},busutil={u:.2}"));
            }
        }
    }
    let labels: Vec<String> = (0..12).map(|p| cfg.point(p).label).collect();
    assert_eq!(labels, expected);

    // completeness: every combination appears exactly once
    let mut sorted = labels.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), 12, "a combination is missing or duplicated");

    // the derived configs carry the coordinates
    for p in 0..12 {
        let spec = cfg.point(p);
        assert_eq!(spec.index, p);
        assert_eq!(spec.coords.len(), 3);
        let n: usize = spec.coords[0].1.parse().expect("nodes value");
        assert_eq!(spec.config.n_nodes, n);
        spec.config.validate().expect("derived config validates");
    }
}

// ---------------------------------------------------------------------
// Sweep and fig9 grids vs serial reference loops
// ---------------------------------------------------------------------

/// One reference point: its label and per-algorithm stats.
type RefPoint = (String, Vec<(String, AlgoStats)>);

/// Equality of an engine point with a reference point over the
/// deterministic fields (wall-clock times skipped).
fn matches_reference(engine: &GridPoint, reference: &RefPoint) -> bool {
    engine.label == reference.0
        && engine.algos.len() == reference.1.len()
        && engine.algos.iter().zip(&reference.1).all(|(a, b)| {
            a.0 == b.0
                && a.1.schedulable == b.1.schedulable
                && a.1.total == b.1.total
                && a.1.avg_deviation_pct == b.1.avg_deviation_pct
                && a.1.avg_evaluations == b.1.avg_evaluations
        })
}

/// A single-axis sweep as a serial per-point loop over per-seed
/// applications.
fn reference_sweep(cfg: &GridConfig) -> Vec<RefPoint> {
    let [axis] = cfg.axes.as_slice() else {
        panic!("a sweep has exactly one axis")
    };
    let names: Vec<&str> = cfg.algos.iter().map(|a| a.name()).collect();
    let mut out = Vec::new();
    for p in 0..axis.len() {
        let (label, gen_cfg) = axis.configure(&cfg.base, p);
        gen_cfg.validate().expect("derived config");
        let per_app: Vec<Vec<OptResult>> = (0..cfg.apps_per_point)
            .map(|i| {
                let seed = cfg.seed0 + 1000 * p as u64 + i as u64;
                let generated = generate(&gen_cfg, seed).expect("generator");
                cfg.algos
                    .iter()
                    .map(|a| {
                        a.solve(
                            &generated.platform,
                            &generated.app,
                            gen_cfg.phy,
                            &cfg.params,
                            &cfg.sa,
                        )
                    })
                    .collect()
            })
            .collect();
        out.push((label, aggregate_algos(&names, &per_app, cfg.reference())));
    }
    out
}

/// Fig9 as a serial loop: paper configuration per node count, seeds
/// `seed0 + 1000·n + i`.
fn reference_fig9(cfg: &GridConfig) -> Vec<RefPoint> {
    let [SweepAxis::NodeCount(node_counts)] = cfg.axes.as_slice() else {
        panic!("fig9 is a node-count grid")
    };
    let phy = PhyParams::bmw_like();
    let names: Vec<&str> = Algo::ALL.iter().map(|a| a.name()).collect();
    let sa_idx = Algo::ALL.iter().position(|&a| a == Algo::Sa);
    let mut out = Vec::new();
    for &n in node_counts {
        let gen_cfg = GeneratorConfig::paper(n);
        let per_app: Vec<Vec<OptResult>> = (0..cfg.apps_per_point)
            .map(|i| {
                let seed = cfg.seed0 + 1000 * n as u64 + i as u64;
                let generated = generate(&gen_cfg, seed).expect("generator");
                Algo::ALL
                    .iter()
                    .map(|a| {
                        a.solve(
                            &generated.platform,
                            &generated.app,
                            phy,
                            &cfg.params,
                            &cfg.sa,
                        )
                    })
                    .collect()
            })
            .collect();
        out.push((
            format!("nodes={n}"),
            aggregate_algos(&names, &per_app, sa_idx),
        ));
    }
    out
}

#[test]
fn refactored_sweep_matches_the_pre_grid_reference_implementation() {
    for axis in [
        SweepAxis::NodeCount(vec![2, 3]),
        SweepAxis::GatewayFraction(vec![0.0, 0.6]),
    ] {
        // the reference runs serially; the engine must match at any
        // worker count
        for threads in [1usize, 4] {
            let cfg = GridConfig {
                threads,
                ..smoke_grid(vec![axis.clone()])
            };
            let engine = run_grid(&cfg).expect("engine sweep");
            let reference = reference_sweep(&cfg);
            assert_eq!(engine.len(), reference.len());
            for (e, r) in engine.iter().zip(&reference) {
                assert!(
                    matches_reference(e, r),
                    "threads {threads}: {e:?} vs {r:?} diverged"
                );
            }
        }
    }
}

#[test]
fn refactored_fig9_matches_the_pre_grid_reference_implementation() {
    for threads in [1usize, 4] {
        let cfg = GridConfig {
            apps_per_point: 2,
            params: smoke_params(),
            sa: SaParams {
                iterations: 30,
                ..SaParams::default()
            },
            seed0: 7,
            threads,
            ..flexray_bench::fig9::grid(vec![2, 3])
        };
        let engine = run_grid(&cfg).expect("engine fig9");
        let reference = reference_fig9(&cfg);
        assert_eq!(engine.len(), reference.len());
        for (e, r) in engine.iter().zip(&reference) {
            assert!(
                matches_reference(e, r),
                "threads {threads}: {e:?} vs {r:?} diverged"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Report header
// ---------------------------------------------------------------------

/// Grids that can write different points write different headers, so
/// a report's header tells which grid wrote it.
#[test]
fn header_mismatch_guards_resume() {
    let cfg = smoke_grid(vec![SweepAxis::NodeCount(vec![2, 3])]);
    let header = GridReportHeader::of(&cfg);
    let other = GridConfig {
        seed0: 8,
        ..cfg.clone()
    };
    assert_ne!(
        GridReportHeader::of(&other),
        header,
        "seed is fingerprinted"
    );
    let other = GridConfig {
        apps_per_point: 3,
        ..cfg.clone()
    };
    assert_ne!(GridReportHeader::of(&other), header);
    let other = GridConfig {
        params: OptParams::default(),
        ..cfg.clone()
    };
    assert_ne!(GridReportHeader::of(&other), header, "params fingerprinted");
    // a different base workload is told apart even when every axis
    // point list is identical
    let other = GridConfig {
        base: GeneratorConfig::paper(3),
        ..cfg.clone()
    };
    assert_ne!(
        GridReportHeader::of(&other),
        header,
        "base generator config is fingerprinted"
    );
    // a seed past f64 precision is written exactly
    let other = GridConfig {
        seed0: (1u64 << 53) + 1,
        ..cfg.clone()
    };
    let line = GridReportHeader::of(&other)
        .to_line()
        .expect("finite header");
    assert!(line.contains(r#""seed0":"9007199254740993""#), "{line}");
    // the worker-thread count does not affect the output and is not
    // part of the fingerprint
    let other = GridConfig { threads: 9, ..cfg };
    assert_eq!(GridReportHeader::of(&other), header);
}

// ---------------------------------------------------------------------
// Golden-file schema test
// ---------------------------------------------------------------------

/// A fixed, hand-written report: two points, exact binary fractions
/// everywhere so the rendering is stable across platforms.
fn golden_fixture() -> (GridReportHeader, Vec<GridPoint>) {
    let header = GridReportHeader {
        version: GRID_SCHEMA_VERSION,
        axes: vec![
            ("nodes".into(), vec!["2".into(), "3".into()]),
            ("busutil".into(), vec!["0.25".into()]),
        ],
        apps_per_point: 2,
        algos: vec!["BBC".into(), "SA".into()],
        seed0: 42,
        params: "fixture".into(),
        total_points: 2,
    };
    let algo = |sched: usize, dev: f64, time: f64, evals: f64| AlgoStats {
        schedulable: sched,
        total: 2,
        avg_deviation_pct: dev,
        avg_time_s: time,
        avg_evaluations: evals,
    };
    let point = |index: usize, nodes: &str, tasks: f64| GridPoint {
        index,
        label: format!("nodes={nodes},busutil=0.25"),
        coords: vec![
            ("nodes".into(), nodes.into()),
            ("busutil".into(), "0.25".into()),
        ],
        algos: vec![
            ("BBC".into(), algo(1, 1.5, 0.125, 26.0)),
            ("SA".into(), algo(2, 0.0, 0.5, 31.0)),
        ],
        gen: AggregatedGenStats {
            apps: 2,
            avg_tasks: tasks,
            avg_relay_tasks: 0.5,
            avg_st_messages: 4.0,
            avg_dyn_messages: 6.5,
            avg_graphs: 4.0,
            node_util: UtilSummary {
                min: 0.25,
                mean: 0.375,
                max: 0.5,
            },
            avg_bus_util: 0.1875,
            depth_histogram: vec![0, 0, 1, 3],
        },
    };
    (header, vec![point(0, "2", 20.0), point(1, "3", 30.0)])
}

#[test]
fn report_schema_matches_the_golden_files() {
    assert_eq!(
        GRID_SCHEMA_VERSION, 1,
        "schema version changed: regenerate tests/golden/grid_report.{{jsonl,csv}} \
         and update this assertion together with the version bump"
    );
    let (header, points) = golden_fixture();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
        std::fs::create_dir_all(dir).expect("golden dir");
        std::fs::write(
            format!("{dir}/grid_report.jsonl"),
            to_jsonl(&header, &points).expect("finite report"),
        )
        .expect("write jsonl golden");
        std::fs::write(format!("{dir}/grid_report.csv"), to_csv(&header, &points))
            .expect("write csv golden");
        return;
    }
    assert_eq!(
        to_jsonl(&header, &points).expect("finite report"),
        include_str!("golden/grid_report.jsonl"),
        "JSONL schema drifted: bump GRID_SCHEMA_VERSION and regenerate the golden file"
    );
    assert_eq!(
        to_csv(&header, &points),
        include_str!("golden/grid_report.csv"),
        "CSV schema drifted: bump GRID_SCHEMA_VERSION and regenerate the golden file"
    );
}

// ---------------------------------------------------------------------
// Multi-cluster axis and imported-workload grids
// ---------------------------------------------------------------------

#[test]
fn clusters_axis_derives_multi_cluster_points_with_a_gateway_fallback() {
    let cfg = smoke_grid(vec![SweepAxis::Clusters(vec![1, 2])]);
    cfg.validate().expect("grid validates");
    assert_eq!(cfg.total_points(), 2);

    let single = cfg.point(0);
    assert_eq!(single.label, "clusters=1");
    assert_eq!(single.config.clusters, 1);
    assert_eq!(
        single.config.gateways, cfg.base.gateways,
        "a single-cluster point must not grow a gateway"
    );

    let dual = cfg.point(1);
    assert_eq!(dual.label, "clusters=2");
    assert_eq!(dual.config.clusters, 2);
    assert_eq!(
        dual.config.gateways,
        vec![cfg.base.n_nodes - 1],
        "without configured gateways the last node bridges the clusters"
    );

    let points = run_grid(&cfg).expect("grid runs");
    assert_eq!(points.len(), 2);
    for p in &points {
        assert_eq!(p.gen.apps, cfg.apps_per_point);
        assert_eq!(p.algos.len(), cfg.algos.len());
    }
}

#[test]
fn clusters_one_point_is_bit_identical_to_the_plain_base_run() {
    // The clusters axis must be RNG-neutral at clusters=1: the same
    // seeds on the same base configuration must reproduce a grid that
    // never heard of the axis.
    let with_axis = smoke_grid(vec![SweepAxis::Clusters(vec![1])]);
    let plain = smoke_grid(vec![SweepAxis::NodeCount(vec![with_axis.base.n_nodes])]);
    let a = run_grid(&with_axis).expect("clusters=1 run");
    let b = run_grid(&plain).expect("plain run");
    assert_eq!(a.len(), 1);
    assert_eq!(a[0].gen, b[0].gen, "generator output drifted");
    for ((name_a, stats_a), (name_b, stats_b)) in a[0].algos.iter().zip(&b[0].algos) {
        assert_eq!(name_a, name_b);
        assert_eq!(stats_a.schedulable, stats_b.schedulable);
        assert_eq!(stats_a.total, stats_b.total);
        assert_eq!(stats_a.avg_deviation_pct, stats_b.avg_deviation_pct);
        assert_eq!(stats_a.avg_evaluations, stats_b.avg_evaluations);
    }
}

#[test]
fn workload_grid_runs_the_imported_scenario_and_pins_its_fingerprint() {
    use flexray_bench::grid::WorkloadSource;
    use flexray_bench::workload::Workload;

    let gen_cfg = GeneratorConfig::clustered(5, 2);
    let generated = generate(&gen_cfg, 3).expect("clustered scenario");
    let original = Workload::of_generated(&generated);
    let workload = Workload::import(&original.export().expect("export")).expect("import");
    assert_eq!(
        workload.stats(&gen_cfg.phy).expect("stats"),
        original.stats(&gen_cfg.phy).expect("stats"),
        "round-tripped workload statistics must be bit-identical"
    );

    let cfg = GridConfig {
        axes: Vec::new(),
        workload: Some(WorkloadSource {
            name: "hand".into(),
            workload: workload.clone(),
        }),
        apps_per_point: 1,
        algos: vec![Algo::Bbc],
        ..smoke_grid(Vec::new())
    };
    cfg.validate().expect("workload grid validates");
    assert_eq!(cfg.total_points(), 1);

    let header = GridReportHeader::of(&cfg);
    assert!(
        header
            .params
            .contains(&format!("workload=hand:{}", workload.fingerprint())),
        "header must pin the workload fingerprint: {}",
        header.params
    );

    let points = run_grid(&cfg).expect("workload grid runs");
    assert_eq!(points.len(), 1);
    assert_eq!(points[0].label, "base");
    assert_eq!(points[0].gen.apps, 1);
    let stats = workload.stats(&gen_cfg.phy).expect("stats");
    assert!(
        (points[0].gen.avg_bus_util - stats.bus_util).abs() < 1e-12,
        "the point must report the imported workload's own statistics"
    );

    // two runs of the same imported workload are bit-identical
    let again = run_grid(&cfg).expect("second run");
    assert!(points[0].deterministic_eq(&again[0]));
}

#[test]
fn workload_grids_reject_configured_axes() {
    use flexray_bench::grid::WorkloadSource;
    use flexray_bench::workload::Workload;

    let generated = generate(&GeneratorConfig::small(3), 1).expect("scenario");
    let cfg = GridConfig {
        workload: Some(WorkloadSource {
            name: "w".into(),
            workload: Workload::of_generated(&generated),
        }),
        ..smoke_grid(vec![SweepAxis::NodeCount(vec![2, 3])])
    };
    let err = cfg
        .validate()
        .expect_err("axes with a workload must be rejected");
    assert!(
        err.to_string().contains("axes"),
        "error must explain the conflict: {err}"
    );
}
