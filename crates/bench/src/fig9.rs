//! Fig. 9 — evaluation of the bus optimisation algorithms.
//!
//! Synthetic systems of 2–7 nodes (sets of applications per node count)
//! are optimised with BBC, OBCCF, OBCEE and SA. The left chart of Fig. 9
//! reports the average percentage deviation of the cost function from
//! the SA reference; the right chart reports run times.
//!
//! Expected shape (the paper's claims): BBC runs in near-zero time but
//! stops finding schedulable configurations as systems grow; OBCCF and
//! OBCEE stay within a few percent of SA; OBCCF is much faster than
//! OBCEE.
//!
//! # The preset
//!
//! The experiment is the node-count [`GridConfig`] of [`grid`], run by
//! the factorial [`grid`](crate::grid) engine: every `(point, seed)`
//! pair is one unit of the units→points [`engine`](crate::engine) on
//! the shared work-stealing pool, and results merge by index, so
//! every deterministic output — costs, chosen configurations,
//! schedulability counts, deviations, evaluation counts — is
//! bit-identical to a serial run (`threads = 1`). Only the measured
//! wall-clock times differ, as they do between any two runs.

use crate::grid::{GridConfig, GridPoint, SeedPolicy};
use crate::sweep::{Algo, SweepAxis};
use flexray_gen::GeneratorConfig;

/// The Fig. 9 experiment over `node_counts`: all four algorithms on the
/// paper configuration, 5 applications per node count, full search
/// parameters, every core. Application `i` of node count `n` is seeded
/// `seed0 + 1000·n + i` — by node count, not by point index.
#[must_use]
pub fn grid(node_counts: Vec<usize>) -> GridConfig {
    let offsets = node_counts.iter().map(|&n| 1000 * n as u64).collect();
    GridConfig {
        // paper(n) differs from any other paper(k) only in the node
        // count, so the node-count axis over a paper base reproduces it
        base: GeneratorConfig::paper(2),
        axes: vec![SweepAxis::NodeCount(node_counts)],
        apps_per_point: 5,
        algos: Algo::ALL.to_vec(),
        seed_policy: SeedPolicy::PointOffsets(offsets),
        ..GridConfig::default()
    }
}

/// Renders the two Fig. 9 panels as text tables.
#[must_use]
pub fn render(points: &[GridPoint]) -> String {
    let mut rows_left = Vec::new();
    let mut rows_right = Vec::new();
    for p in points {
        let nodes = &p.coords[0].1;
        for (name, s) in &p.algos {
            rows_left.push(vec![
                nodes.clone(),
                name.clone(),
                format!("{}/{}", s.schedulable, s.total),
                format!("{:+.2}", s.avg_deviation_pct),
            ]);
            rows_right.push(vec![
                nodes.clone(),
                name.clone(),
                format!("{:.3}", s.avg_time_s),
                format!("{:.0}", s.avg_evaluations),
            ]);
        }
    }
    format!(
        "Fig. 9 (left): schedulability degree (% deviation vs SA)\n{}\n\
         Fig. 9 (right): run times\n{}",
        crate::render_table(
            &["nodes", "algorithm", "schedulable", "avg %dev vs SA"],
            &rows_left
        ),
        crate::render_table(
            &["nodes", "algorithm", "avg time (s)", "avg analyses"],
            &rows_right
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::run_grid;
    use crate::sweep::search_mode;

    fn fast_cfg(node_counts: Vec<usize>) -> GridConfig {
        let (params, sa) = search_mode("smoke").expect("known mode");
        GridConfig {
            apps_per_point: 1,
            params,
            sa,
            seed0: 7,
            threads: 1,
            ..grid(node_counts)
        }
    }

    #[test]
    fn tiny_experiment_runs_end_to_end() {
        let cfg = fast_cfg(vec![2]);
        let points = run_grid(&cfg).expect("experiment runs");
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].algos.len(), 4);
        let text = render(&points);
        assert!(text.contains("OBCCF"));
        assert!(text.contains("BBC"));
    }

    #[test]
    fn parallel_equals_serial() {
        let serial_cfg = GridConfig {
            apps_per_point: 4,
            ..fast_cfg(vec![2, 3])
        };
        let parallel_cfg = GridConfig {
            threads: 4,
            ..serial_cfg.clone()
        };
        let serial = run_grid(&serial_cfg).expect("serial run");
        let parallel = run_grid(&parallel_cfg).expect("parallel run");
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert!(
                s.deterministic_eq(p),
                "serial {s:?} vs parallel {p:?} diverged"
            );
        }
    }

    #[test]
    fn worker_threads_resolution() {
        let cfg = grid(vec![2]);
        assert_eq!(cfg.threads, 0, "the preset uses every core");
        assert!(flexray_util::resolve_threads(cfg.threads) >= 1);
    }
}
