//! Single-axis scenario sweeps over the v2 generator, and the parts
//! every grid is built from.
//!
//! A sweep walks **any single [`SweepAxis`]** — node count (beyond the
//! paper's 7), graph depth (chain-shaped DAGs), gateway-relayed traffic
//! fraction, bus utilisation or cluster count — over a base
//! [`GeneratorConfig`], with a configurable subset of the four
//! optimisation [`Algo`]rithms. It is a one-axis
//! [`GridConfig`](crate::grid::GridConfig) run by the factorial
//! [`grid`](crate::grid) engine, and [`render`] prints its points.
//! [`aggregate_algos`] folds per-application results into the
//! [`AlgoStats`] of a point.
//!
//! # Determinism
//!
//! Application `i` of axis point `p` is generated from seed
//! `seed0 + 1000·p + i` and optimised independently; results are merged
//! by index, so every deterministic output (schedulability counts,
//! deviations, evaluation counts, chosen configurations) is identical
//! for any worker-thread count. Only measured wall-clock times vary.

use crate::grid::GridPoint;
use flexray_gen::{GeneratorConfig, GraphShape};
use flexray_model::{Application, ModelError, PhyParams, Platform};
use flexray_opt::{
    bbc, obc, optimise_network, simulated_annealing, DynSearch, NetworkTopology, OptParams,
    OptResult, SaParams,
};

/// Aggregated outcome of one algorithm on one sweep point.
#[derive(Debug, Clone, Default)]
pub struct AlgoStats {
    /// Number of applications solved schedulably.
    pub schedulable: usize,
    /// Applications evaluated.
    pub total: usize,
    /// Mean percentage deviation of the cost from the reference
    /// algorithm, over applications where both found schedulable
    /// configurations. Zero when no reference is in the algorithm set.
    pub avg_deviation_pct: f64,
    /// Mean wall-clock seconds per application.
    pub avg_time_s: f64,
    /// Mean number of full analyses per application.
    pub avg_evaluations: f64,
}

/// Percentage deviation of a cost from the reference result.
#[must_use]
pub fn deviation_pct(alg: &OptResult, reference: &OptResult) -> Option<f64> {
    if !(alg.is_schedulable() && reference.is_schedulable()) {
        return None;
    }
    let a = alg.cost.value();
    let s = reference.cost.value();
    if s.abs() < f64::EPSILON {
        return None;
    }
    // costs are negative laxities: less negative = worse
    Some((a - s) / s.abs() * 100.0)
}

/// Folds per-application optimiser results (`per_app[i][alg]`) into one
/// [`AlgoStats`] per algorithm — the aggregation of every grid point.
/// `reference` selects the algorithm deviations are measured against
/// (fig9: SA); `None` leaves all deviations at zero.
#[must_use]
pub fn aggregate_algos(
    names: &[&str],
    per_app: &[Vec<OptResult>],
    reference: Option<usize>,
) -> Vec<(String, AlgoStats)> {
    names
        .iter()
        .enumerate()
        .map(|(alg, name)| {
            let mut stats = AlgoStats {
                total: per_app.len(),
                ..AlgoStats::default()
            };
            let mut devs = Vec::new();
            for results in per_app {
                let r = &results[alg];
                if r.is_schedulable() {
                    stats.schedulable += 1;
                }
                if let Some(d) = reference.and_then(|s| deviation_pct(r, &results[s])) {
                    devs.push(d);
                }
                stats.avg_time_s += r.elapsed.as_secs_f64() / per_app.len() as f64;
                stats.avg_evaluations += r.evaluations as f64 / per_app.len() as f64;
            }
            if !devs.is_empty() {
                stats.avg_deviation_pct = devs.iter().sum::<f64>() / devs.len() as f64;
            }
            ((*name).to_owned(), stats)
        })
        .collect()
}

/// One of the four bus-configuration algorithms of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Basic Bus Configuration (Fig. 5).
    Bbc,
    /// Optimised Bus Configuration with curve-fit DYN search (OBCCF).
    ObcCf,
    /// Optimised Bus Configuration with exhaustive DYN search (OBCEE).
    ObcEe,
    /// The simulated-annealing reference.
    Sa,
}

impl Algo {
    /// All four algorithms, in the fig9 reporting order.
    pub const ALL: [Algo; 4] = [Algo::Bbc, Algo::ObcCf, Algo::ObcEe, Algo::Sa];

    /// Reporting name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Algo::Bbc => "BBC",
            Algo::ObcCf => "OBCCF",
            Algo::ObcEe => "OBCEE",
            Algo::Sa => "SA",
        }
    }

    /// Parses a name as accepted by the `sweep` binary.
    #[must_use]
    pub fn parse(s: &str) -> Option<Algo> {
        match s.to_ascii_lowercase().as_str() {
            "bbc" => Some(Algo::Bbc),
            "obccf" => Some(Algo::ObcCf),
            "obcee" => Some(Algo::ObcEe),
            "sa" => Some(Algo::Sa),
            _ => None,
        }
    }

    /// Runs the algorithm on one generated application.
    #[must_use]
    pub fn solve(
        self,
        platform: &Platform,
        app: &Application,
        phy: PhyParams,
        params: &OptParams,
        sa: &SaParams,
    ) -> OptResult {
        match self {
            Algo::Bbc => bbc(platform, app, phy, params),
            Algo::ObcCf => obc(platform, app, phy, params, DynSearch::CurveFit),
            Algo::ObcEe => obc(platform, app, phy, params, DynSearch::Exhaustive),
            Algo::Sa => simulated_annealing(platform, app, phy, params, sa),
        }
    }

    /// Runs the algorithm on an application with an explicit cluster
    /// topology. Single-cluster topologies dispatch to [`Algo::solve`]
    /// unchanged; multi-cluster ones run
    /// [`optimise_network`] — one
    /// skeleton-building round for [`Algo::Bbc`] (the BBC treatment
    /// lifted to N clusters), a coordinate descent over the per-cluster
    /// dynamic-segment lengths for the optimising algorithms — and
    /// report the network result through its cluster-0 representative.
    ///
    /// # Errors
    ///
    /// Propagates topology validation errors of `optimise_network`.
    pub fn solve_on(
        self,
        platform: &Platform,
        app: &Application,
        topo: &NetworkTopology,
        phy: PhyParams,
        params: &OptParams,
        sa: &SaParams,
    ) -> Result<OptResult, ModelError> {
        if topo.clusters <= 1 {
            return Ok(self.solve(platform, app, phy, params, sa));
        }
        let max_rounds = match self {
            Algo::Bbc => 1,
            Algo::ObcCf | Algo::ObcEe | Algo::Sa => 8,
        };
        optimise_network(platform, app, topo, phy, params, max_rounds)
            .map(|network| network.representative())
    }
}

/// Parses a comma-separated algorithm subset (`bbc,obccf,obcee,sa`,
/// case-insensitive) as accepted by the `sweep` and `grid` binaries.
///
/// Unlike a lenient filter, every token must name a known algorithm:
/// unknown names, empty tokens and duplicates are rejected with an
/// error naming the offending token, so a typo (`obc` for `obccf`)
/// cannot silently shrink the algorithm set.
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] naming the first offending
/// token.
pub fn parse_algo_set(s: &str) -> Result<Vec<Algo>, ModelError> {
    let mut algos = Vec::new();
    for token in s.split(',') {
        let token = token.trim();
        if token.is_empty() {
            return Err(ModelError::InvalidConfig(format!(
                "empty algorithm name in subset '{s}' (expected bbc, obccf, obcee or sa)"
            )));
        }
        let Some(algo) = Algo::parse(token) else {
            return Err(ModelError::InvalidConfig(format!(
                "unknown algorithm '{token}' in subset '{s}' (expected bbc, obccf, obcee or sa)"
            )));
        };
        if algos.contains(&algo) {
            return Err(ModelError::InvalidConfig(format!(
                "duplicate algorithm '{token}' in subset '{s}'"
            )));
        }
        algos.push(algo);
    }
    Ok(algos)
}

/// Parses a thread-count option (`threads=`/`eval_threads=` in the
/// `sweep`, `grid` and `fuzz` binaries): a non-negative integer where
/// `0` means "all available cores".
///
/// Strict like [`parse_algo_set`]: anything that is not a plain decimal
/// count is rejected with an error naming the offending value, so a
/// typo (`threads=fuor`) cannot silently fall back to a default.
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] naming the offending value.
pub fn parse_thread_count(value: &str) -> Result<usize, ModelError> {
    let token = value.trim();
    token.parse::<usize>().map_err(|_| {
        ModelError::InvalidConfig(format!(
            "invalid thread count '{value}' (expected a non-negative integer; 0 = all cores)"
        ))
    })
}

/// The `fast`/`full`/`smoke` search-parameter presets shared by the
/// `fig9`, `sweep` and `grid` binaries (and the differential test
/// suite): `full` keeps the defaults, `fast` shrinks the search caps
/// for a quick qualitative run, `smoke` shrinks them further for CI.
/// Returns `None` for an unknown mode name.
#[must_use]
pub fn search_mode(mode: &str) -> Option<(OptParams, SaParams)> {
    match mode {
        "full" => Some((OptParams::default(), SaParams::default())),
        "fast" => Some((
            OptParams {
                max_extra_slots: 4,
                max_slot_len_steps: 6,
                max_dyn_candidates: 96,
                dyn_step: 8,
                ..OptParams::default()
            },
            SaParams {
                iterations: 400,
                ..SaParams::default()
            },
        )),
        "smoke" => Some((
            OptParams {
                max_extra_slots: 2,
                max_slot_len_steps: 3,
                max_dyn_candidates: 24,
                dyn_step: 32,
                ..OptParams::default()
            },
            SaParams {
                iterations: 30,
                ..SaParams::default()
            },
        )),
        _ => None,
    }
}

/// The configuration axis a sweep walks, with its points.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepAxis {
    /// Node count (the paper stops at 7; the v2 generator does not).
    NodeCount(Vec<usize>),
    /// Task-graph depth: chain-shaped graphs of the given sizes.
    GraphDepth(Vec<usize>),
    /// Fraction of cross-node dependencies relayed through a gateway.
    GatewayFraction(Vec<f64>),
    /// Bus utilisation target (the range collapses onto the value).
    BusUtil(Vec<f64>),
    /// Number of FlexRay clusters (1 = single bus; more partition the
    /// non-gateway nodes and join the parts through the gateways).
    Clusters(Vec<usize>),
}

impl SweepAxis {
    /// Name of the axis, for reporting.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SweepAxis::NodeCount(_) => "nodes",
            SweepAxis::GraphDepth(_) => "depth",
            SweepAxis::GatewayFraction(_) => "gateway",
            SweepAxis::BusUtil(_) => "busutil",
            SweepAxis::Clusters(_) => "clusters",
        }
    }

    /// Number of points on the axis.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            SweepAxis::NodeCount(v) | SweepAxis::GraphDepth(v) | SweepAxis::Clusters(v) => v.len(),
            SweepAxis::GatewayFraction(v) | SweepAxis::BusUtil(v) => v.len(),
        }
    }

    /// `true` if the axis has no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Canonical rendering of point `idx`'s value — the single source
    /// of the axis-value strings used in point labels, report
    /// coordinates and header axis listings.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn value(&self, idx: usize) -> String {
        match self {
            SweepAxis::NodeCount(v) | SweepAxis::GraphDepth(v) | SweepAxis::Clusters(v) => {
                v[idx].to_string()
            }
            SweepAxis::GatewayFraction(v) | SweepAxis::BusUtil(v) => format!("{:.2}", v[idx]),
        }
    }

    /// The generator configuration and label of point `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn configure(&self, base: &GeneratorConfig, idx: usize) -> (String, GeneratorConfig) {
        match self {
            SweepAxis::NodeCount(v) => {
                let n = v[idx];
                let mut cfg = GeneratorConfig {
                    n_nodes: n,
                    ..base.clone()
                };
                // keep configured gateways; only out-of-range ones are
                // dropped, falling back to the last node when none is
                // left on a shrunk cluster
                cfg.gateways.retain(|&gw| gw < n);
                if cfg.gateway_fraction > 0.0 && cfg.gateways.is_empty() {
                    cfg.gateways = vec![n.saturating_sub(1)];
                }
                (format!("nodes={}", self.value(idx)), cfg)
            }
            SweepAxis::GraphDepth(v) => {
                let d = v[idx];
                let cfg = GeneratorConfig {
                    graph_size: d.max(1),
                    graph_sizes: None,
                    shape: GraphShape::Chain,
                    ..base.clone()
                };
                (format!("depth={}", self.value(idx)), cfg)
            }
            SweepAxis::GatewayFraction(v) => {
                let f = v[idx];
                let mut cfg = GeneratorConfig {
                    gateway_fraction: f,
                    ..base.clone()
                };
                if f > 0.0 && cfg.gateways.is_empty() {
                    cfg.gateways = vec![cfg.n_nodes.saturating_sub(1)];
                }
                (format!("gateway={}", self.value(idx)), cfg)
            }
            SweepAxis::BusUtil(v) => {
                let u = v[idx];
                let cfg = GeneratorConfig {
                    bus_util: (u, u),
                    ..base.clone()
                };
                (format!("busutil={}", self.value(idx)), cfg)
            }
            SweepAxis::Clusters(v) => {
                let k = v[idx];
                let mut cfg = GeneratorConfig {
                    clusters: k,
                    ..base.clone()
                };
                if k > 1 && cfg.gateways.is_empty() {
                    cfg.gateways = vec![cfg.n_nodes.saturating_sub(1)];
                }
                (format!("clusters={}", self.value(idx)), cfg)
            }
        }
    }
}

/// Renders a sweep as one text table. `reference` is the name of the
/// deviation reference algorithm
/// ([`GridConfig::reference`](crate::grid::GridConfig::reference));
/// without one, the deviation column is marked absent instead of
/// printing misleading zeros.
#[must_use]
pub fn render(axis_name: &str, reference: Option<&str>, points: &[GridPoint]) -> String {
    let mut rows = Vec::new();
    for point in points {
        for (name, s) in &point.algos {
            rows.push(vec![
                point.label.clone(),
                name.clone(),
                format!("{}/{}", s.schedulable, s.total),
                if reference.is_some() {
                    format!("{:+.2}", s.avg_deviation_pct)
                } else {
                    "-".to_owned()
                },
                format!("{:.3}", s.avg_time_s),
                format!("{:.0}", s.avg_evaluations),
            ]);
        }
    }
    let dev_header = reference.map_or("avg %dev (no ref)".to_owned(), |r| {
        format!("avg %dev vs {r}")
    });
    format!(
        "Sweep over {axis_name}\n{}",
        crate::render_table(
            &[
                "point",
                "algorithm",
                "schedulable",
                &dev_header,
                "avg time (s)",
                "avg analyses",
            ],
            &rows
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{run_grid, GridConfig, SeedPolicy};
    use std::time::Duration;

    fn fake(schedulable: bool, value: f64) -> OptResult {
        OptResult {
            bus: flexray_model::BusConfig::new(PhyParams::bmw_like()),
            cost: if schedulable {
                flexray_analysis::Cost { f1: 0.0, f2: value }
            } else {
                flexray_analysis::Cost {
                    f1: value,
                    f2: value,
                }
            },
            evaluations: 1,
            elapsed: Duration::from_millis(1),
        }
    }

    fn fast_cfg(axis: SweepAxis) -> GridConfig {
        GridConfig {
            base: GeneratorConfig::small(3),
            axes: vec![axis],
            apps_per_point: 2,
            algos: vec![Algo::Bbc, Algo::Sa],
            params: OptParams {
                max_extra_slots: 2,
                max_slot_len_steps: 3,
                max_dyn_candidates: 24,
                dyn_step: 32,
                ..OptParams::default()
            },
            sa: SaParams {
                iterations: 25,
                ..SaParams::default()
            },
            seed0: 7,
            seed_policy: SeedPolicy::PointIndex,
            threads: 1,
            workload: None,
        }
    }

    #[test]
    fn deviation_requires_both_schedulable() {
        let sa = fake(true, -100.0);
        assert_eq!(deviation_pct(&fake(false, 5.0), &sa), None);
        // -96 laxity vs -100: 4% worse
        let d = deviation_pct(&fake(true, -96.0), &sa).expect("defined");
        assert!((d - 4.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_without_reference_leaves_deviation_zero() {
        let per_app = vec![vec![fake(true, -90.0)], vec![fake(false, 5.0)]];
        let stats = aggregate_algos(&["BBC"], &per_app, None);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].1.schedulable, 1);
        assert_eq!(stats[0].1.total, 2);
        assert_eq!(stats[0].1.avg_deviation_pct, 0.0);
    }

    #[test]
    fn axis_points_derive_labelled_configs() {
        let base = GeneratorConfig::paper(5);

        let (label, cfg) = SweepAxis::NodeCount(vec![2, 20]).configure(&base, 1);
        assert_eq!(label, "nodes=20");
        assert_eq!(cfg.n_nodes, 20);

        let (label, cfg) = SweepAxis::GraphDepth(vec![4, 12]).configure(&base, 1);
        assert_eq!(label, "depth=12");
        assert_eq!(cfg.shape, GraphShape::Chain);
        assert_eq!(cfg.graph_size, 12);

        let (label, cfg) = SweepAxis::GatewayFraction(vec![0.0, 0.5]).configure(&base, 1);
        assert_eq!(label, "gateway=0.50");
        assert_eq!(cfg.gateway_fraction, 0.5);
        assert_eq!(cfg.gateways, vec![4]);

        let (label, cfg) = SweepAxis::BusUtil(vec![0.2, 0.4]).configure(&base, 0);
        assert_eq!(label, "busutil=0.20");
        assert_eq!(cfg.bus_util, (0.2, 0.2));

        for axis in [
            SweepAxis::NodeCount(vec![2, 20]),
            SweepAxis::GraphDepth(vec![4]),
            SweepAxis::GatewayFraction(vec![0.5]),
            SweepAxis::BusUtil(vec![0.2]),
        ] {
            for idx in 0..axis.len() {
                let (_, cfg) = axis.configure(&base, idx);
                cfg.validate().expect("derived config validates");
            }
        }
    }

    #[test]
    fn gateway_axis_keeps_gateways_in_range_when_nodes_shrink() {
        let base = GeneratorConfig::gateway(8, 0.5); // gateway node 7
        let (_, cfg) = SweepAxis::NodeCount(vec![3]).configure(&base, 0);
        assert_eq!(cfg.gateways, vec![2]);
        cfg.validate().expect("rescaled gateway validates");
    }

    #[test]
    fn tiny_sweeps_run_on_all_axes() {
        for axis in [
            SweepAxis::NodeCount(vec![2, 3]),
            SweepAxis::GraphDepth(vec![3, 6]),
            SweepAxis::GatewayFraction(vec![0.0, 0.6]),
            SweepAxis::BusUtil(vec![0.15, 0.35]),
        ] {
            let name = axis.name();
            let cfg = fast_cfg(axis);
            let points = run_grid(&cfg).expect("sweep runs");
            assert_eq!(points.len(), 2, "axis {name}");
            for point in &points {
                assert_eq!(point.algos.len(), 2);
                for (_, s) in &point.algos {
                    assert_eq!(s.total, 2);
                }
            }
            let text = render(name, Some("SA"), &points);
            assert!(text.contains(name));
            assert!(text.contains("BBC"));
            assert!(text.contains("avg %dev vs SA"));
            let no_ref = render(name, None, &points);
            assert!(no_ref.contains("avg %dev (no ref)"));
        }
    }

    #[test]
    fn parallel_sweep_equals_serial() {
        let serial = fast_cfg(SweepAxis::GatewayFraction(vec![0.0, 0.5]));
        let parallel = GridConfig {
            threads: 4,
            ..serial.clone()
        };
        let s = run_grid(&serial).expect("serial");
        let p = run_grid(&parallel).expect("parallel");
        assert_eq!(s.len(), p.len());
        for (a, b) in s.iter().zip(&p) {
            assert!(a.deterministic_eq(b), "{a:?} vs {b:?} diverged");
        }
    }

    #[test]
    fn empty_axis_and_empty_algo_set_are_rejected() {
        let cfg = fast_cfg(SweepAxis::NodeCount(vec![]));
        assert!(run_grid(&cfg).is_err());
        let mut cfg = fast_cfg(SweepAxis::NodeCount(vec![2]));
        cfg.algos.clear();
        assert!(run_grid(&cfg).is_err());
    }

    #[test]
    fn algo_names_round_trip() {
        for algo in Algo::ALL {
            assert_eq!(Algo::parse(algo.name()), Some(algo));
        }
        assert_eq!(Algo::parse("nope"), None);
    }

    #[test]
    fn algo_set_parser_accepts_known_subsets() {
        assert_eq!(
            parse_algo_set("bbc,obccf,obcee,sa").expect("all four"),
            Algo::ALL.to_vec()
        );
        assert_eq!(
            parse_algo_set("SA , bbc").expect("case and spaces"),
            vec![Algo::Sa, Algo::Bbc]
        );
        assert_eq!(parse_algo_set("obcee").expect("single"), vec![Algo::ObcEe]);
    }

    #[test]
    fn algo_set_parser_rejects_unknown_empty_and_duplicate_names() {
        for (input, needle) in [
            ("obc", "unknown algorithm 'obc'"),
            ("bbc,nope,sa", "unknown algorithm 'nope'"),
            ("", "empty algorithm name"),
            ("bbc,,sa", "empty algorithm name"),
            ("bbc,sa,bbc", "duplicate algorithm 'bbc'"),
        ] {
            let err = parse_algo_set(input).expect_err(input);
            assert!(
                matches!(&err, ModelError::InvalidConfig(msg) if msg.contains(needle)),
                "{input}: {err}"
            );
        }
    }

    #[test]
    fn thread_count_parser_accepts_counts_and_trims() {
        assert_eq!(parse_thread_count("0").expect("all cores"), 0);
        assert_eq!(parse_thread_count("1").expect("serial"), 1);
        assert_eq!(parse_thread_count(" 8 ").expect("spaces"), 8);
    }

    #[test]
    fn thread_count_parser_rejects_non_counts_naming_the_value() {
        for input in ["", "fuor", "-1", "2.5", "4x"] {
            let err = parse_thread_count(input).expect_err(input);
            assert!(
                matches!(&err, ModelError::InvalidConfig(msg)
                    if msg.contains("invalid thread count") && msg.contains(input)),
                "{input}: {err}"
            );
        }
    }
}
