//! Factorial (grid) experiment engine over the v2 generator.
//!
//! [`run_grid`] runs the cartesian product of **any subset of the
//! axes** (node count × graph depth × gateway fraction × bus
//! utilisation × cluster count): a [`GridConfig`] enumerates the
//! product deterministically, every `(point, seed)` pair becomes one
//! work unit of the units→points [`engine`](crate::engine) — so workers
//! steal across *points*, not just across the seeds of one point — and
//! each completed point carries the per-algorithm [`AlgoStats`] **and** the
//! achieved generator statistics ([`AggregatedGenStats`]: bus/CPU
//! utilisation, relay and message counts, graph-depth histogram) of its
//! instances.
//!
//! The single-axis [`sweep`](crate::sweep) and [`fig9`](crate::fig9)
//! are grids too: a one-axis grid, and the node-count preset
//! [`fig9::grid`](crate::fig9::grid). The `fuzz` campaign enumerates
//! and seeds its points by a grid as well, and runs on the same engine
//! as [`run_grid_resumed`].
//!
//! # Determinism and ordering
//!
//! Points are numbered row-major over [`GridConfig::axes`] — the first
//! axis varies slowest, the last fastest — and application `i` of point
//! `p` is seeded by [`SeedPolicy`] (by default `seed0 + 1000·p + i`,
//! the sweep convention). Each unit is generated and optimised
//! independently and merged by index, so every deterministic output is
//! identical for any worker-thread count and any resume split; only
//! measured wall-clock times vary.
//!
//! # Streaming and resume
//!
//! [`run_grid_resumed`] emits every finished [`GridPoint`] to a sink
//! callback *in point order* while later points are still being solved
//! (a reorder buffer holds out-of-order completions), which is what the
//! `grid` binary streams to its JSON-lines report. Passing the points
//! recovered from a partial report skips exactly those points; the
//! engine re-emits them to the sink in place, so the final report of a
//! killed-and-resumed run equals a full run's.

use crate::engine::run_job;
use crate::sweep::{aggregate_algos, Algo, AlgoStats, SweepAxis};
use crate::workload::Workload;
use flexray_gen::{generate, AggregatedGenStats, GenStats, GeneratorConfig};
use flexray_model::ModelError;
use flexray_opt::{NetworkTopology, OptParams, OptResult, SaParams};

/// How the base seed of a grid point is derived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeedPolicy {
    /// `seed0 + 1000·point_index + app` — the sweep convention.
    PointIndex,
    /// `seed0 + offsets[point_index] + app` — for harnesses seeded by
    /// something other than the point index (fig9 seeds by *node
    /// count*). Must hold one offset per grid point.
    PointOffsets(Vec<u64>),
}

/// A fixed, imported workload a grid runs instead of generated
/// scenarios — the ingestion path of the workgraph interchange format
/// ([`crate::workload`]).
#[derive(Debug, Clone)]
pub struct WorkloadSource {
    /// Display name (usually the file stem), carried in the report
    /// header alongside the workload fingerprint.
    pub name: String,
    /// The imported workload.
    pub workload: Workload,
}

/// Scale and scope of one factorial experiment.
#[derive(Debug, Clone)]
pub struct GridConfig {
    /// Base generator configuration the axes perturb.
    pub base: GeneratorConfig,
    /// The factorial axes; the grid is their cartesian product, first
    /// axis slowest. An empty list yields the single base point.
    pub axes: Vec<SweepAxis>,
    /// When set, the grid runs this imported workload instead of
    /// generating scenarios: the grid collapses to a single point
    /// (axes must be empty) and [`GridConfig::base`] contributes only
    /// its physical-layer parameters.
    pub workload: Option<WorkloadSource>,
    /// Applications (seeds) per grid point.
    pub apps_per_point: usize,
    /// Algorithms to run on every application.
    pub algos: Vec<Algo>,
    /// Optimiser parameters.
    pub params: OptParams,
    /// SA parameters (used when [`Algo::Sa`] is in the set).
    pub sa: SaParams,
    /// Base RNG seed, combined per [`GridConfig::seed_policy`].
    pub seed0: u64,
    /// Per-point seed derivation.
    pub seed_policy: SeedPolicy,
    /// Worker threads for the unit pool: `1` runs serially, `0` uses
    /// the available hardware parallelism.
    pub threads: usize,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            base: GeneratorConfig::paper(5),
            axes: vec![
                SweepAxis::NodeCount(vec![2, 5]),
                SweepAxis::BusUtil(vec![0.2, 0.5]),
            ],
            workload: None,
            apps_per_point: 3,
            algos: Algo::ALL.to_vec(),
            params: OptParams::default(),
            sa: SaParams::default(),
            seed0: 42,
            seed_policy: SeedPolicy::PointIndex,
            threads: 0,
        }
    }
}

/// Fully derived description of one grid point: its label, its
/// axis coordinates and the generator configuration it runs.
#[derive(Debug, Clone)]
pub struct PointSpec {
    /// Flat point index in enumeration order.
    pub index: usize,
    /// Human-readable label, e.g. `nodes=5,busutil=0.20` (or `base`
    /// for an axis-less grid).
    pub label: String,
    /// `(axis name, value)` pairs in axis order.
    pub coords: Vec<(String, String)>,
    /// The generator configuration of the point.
    pub config: GeneratorConfig,
}

impl GridConfig {
    /// Number of grid points: the product of the axis lengths (1 for an
    /// axis-less grid).
    #[must_use]
    pub fn total_points(&self) -> usize {
        self.axes.iter().map(SweepAxis::len).product()
    }

    /// Index of the deviation reference within [`GridConfig::algos`]:
    /// SA when present, else none.
    #[must_use]
    pub fn reference(&self) -> Option<usize> {
        self.algos.iter().position(|&a| a == Algo::Sa)
    }

    /// Per-axis indices of flat point `p`, row-major (first axis
    /// slowest, last axis fastest).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn axis_indices(&self, p: usize) -> Vec<usize> {
        assert!(p < self.total_points(), "point {p} out of range");
        let mut indices = vec![0usize; self.axes.len()];
        let mut rem = p;
        for k in (0..self.axes.len()).rev() {
            let len = self.axes[k].len();
            indices[k] = rem % len;
            rem /= len;
        }
        indices
    }

    /// Derives grid point `p`: applies every axis to the base
    /// configuration and assembles the label and coordinates (in axis
    /// order).
    ///
    /// The axes are *applied* in a canonical order — node count, depth,
    /// bus utilisation, gateway fraction last — independent of the
    /// order they were configured in, so `nodes=… gateway=…` and
    /// `gateway=… nodes=…` derive the same topology (the gateway
    /// fallback picks the last node of the *final* cluster size, never
    /// of the base configuration's).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn point(&self, p: usize) -> PointSpec {
        let indices = self.axis_indices(p);
        let coords: Vec<(String, String)> = self
            .axes
            .iter()
            .zip(&indices)
            .map(|(axis, &idx)| (axis.name().to_owned(), axis.value(idx)))
            .collect();
        let apply_rank = |axis: &SweepAxis| match axis {
            SweepAxis::NodeCount(_) => 0usize,
            SweepAxis::GraphDepth(_) => 1,
            SweepAxis::BusUtil(_) => 2,
            SweepAxis::GatewayFraction(_) => 3,
            // last: the gateway fallback must see the final node count
            SweepAxis::Clusters(_) => 4,
        };
        let mut order: Vec<usize> = (0..self.axes.len()).collect();
        order.sort_by_key(|&k| apply_rank(&self.axes[k]));
        let mut config = self.base.clone();
        for &k in &order {
            let (_, next) = self.axes[k].configure(&config, indices[k]);
            config = next;
        }
        let label = if coords.is_empty() {
            "base".to_owned()
        } else {
            coords
                .iter()
                .map(|(name, value)| format!("{name}={value}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        PointSpec {
            index: p,
            label,
            coords,
            config,
        }
    }

    /// Seed of application `app` of point `p` under the configured
    /// [`SeedPolicy`].
    #[must_use]
    pub fn seed(&self, p: usize, app: usize) -> u64 {
        let offset = match &self.seed_policy {
            SeedPolicy::PointIndex => 1000 * p as u64,
            SeedPolicy::PointOffsets(offsets) => offsets[p],
        };
        self.seed0 + offset + app as u64
    }

    /// Checks the grid for internal consistency (axes, algorithm set,
    /// seed policy); the per-point generator configurations are
    /// validated separately by [`run_grid`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] on an empty axis, a
    /// duplicate axis, an empty algorithm set, zero applications per
    /// point, or a seed-offset table of the wrong length.
    pub fn validate(&self) -> Result<(), ModelError> {
        let fail = |msg: String| Err(ModelError::InvalidConfig(msg));
        if self.workload.is_some() && !self.axes.is_empty() {
            return fail(format!(
                "a workload grid runs one fixed scenario; remove the {} configured axes",
                self.axes.len()
            ));
        }
        for (k, axis) in self.axes.iter().enumerate() {
            if axis.is_empty() {
                return fail(format!("grid axis {k} ({}) has no points", axis.name()));
            }
            if self.axes[..k].iter().any(|a| a.name() == axis.name()) {
                return fail(format!("duplicate grid axis '{}'", axis.name()));
            }
        }
        if self.algos.is_empty() {
            return fail("grid algorithm set is empty".into());
        }
        if self.apps_per_point == 0 {
            return fail("grid needs at least one application per point".into());
        }
        if let SeedPolicy::PointOffsets(offsets) = &self.seed_policy {
            if offsets.len() != self.total_points() {
                return fail(format!(
                    "seed policy holds {} offsets for {} grid points",
                    offsets.len(),
                    self.total_points()
                ));
            }
        }
        Ok(())
    }

    /// Validates the grid and derives every point, each point's
    /// generator configuration validated too.
    ///
    /// # Errors
    ///
    /// See [`GridConfig::validate`]; also propagates per-point
    /// generator-configuration errors.
    pub(crate) fn point_specs(&self) -> Result<Vec<PointSpec>, ModelError> {
        self.validate()?;
        let specs: Vec<PointSpec> = (0..self.total_points()).map(|p| self.point(p)).collect();
        for spec in &specs {
            spec.config.validate()?;
        }
        Ok(specs)
    }
}

/// All configured algorithms plus the achieved generator statistics on
/// one grid point.
#[derive(Debug, Clone, Default)]
pub struct GridPoint {
    /// Flat point index in enumeration order.
    pub index: usize,
    /// Point label, e.g. `nodes=5,busutil=0.20`.
    pub label: String,
    /// `(axis name, value)` coordinates in axis order.
    pub coords: Vec<(String, String)>,
    /// Per-algorithm stats, in [`GridConfig::algos`] order.
    pub algos: Vec<(String, AlgoStats)>,
    /// Achieved generator statistics, aggregated over the point's
    /// applications.
    pub gen: AggregatedGenStats,
}

impl GridPoint {
    /// Equality over the deterministic fields — everything except the
    /// measured wall-clock times — the invariant any parallel or
    /// resumed run must preserve against a serial full run.
    #[must_use]
    pub fn deterministic_eq(&self, other: &GridPoint) -> bool {
        self.index == other.index
            && self.label == other.label
            && self.coords == other.coords
            && self.gen == other.gen
            && self.algos.len() == other.algos.len()
            && self.algos.iter().zip(&other.algos).all(|(a, b)| {
                a.0 == b.0
                    && a.1.schedulable == b.1.schedulable
                    && a.1.total == b.1.total
                    && a.1.avg_deviation_pct == b.1.avg_deviation_pct
                    && a.1.avg_evaluations == b.1.avg_evaluations
            })
    }
}

/// One solved application: the per-algorithm optimiser results and the
/// achieved generator statistics of its instance.
pub type AppRun = (Vec<OptResult>, GenStats);

/// Generates and solves application `app` of grid point `spec` — the
/// single work unit of a grid, in [`run_grid_resumed`] and in
/// [`Plan::solve_unit`](crate::args::Plan::solve_unit). The seed
/// follows [`GridConfig::seed`].
///
/// With a [`GridConfig::workload`] the fixed imported scenario is
/// solved instead of a generated one; either way a multi-cluster
/// topology routes through [`Algo::solve_on`].
///
/// # Errors
///
/// Propagates generation errors and multi-cluster topology errors
/// ([`ModelError`]).
pub fn solve_app(cfg: &GridConfig, spec: &PointSpec, app: usize) -> Result<AppRun, ModelError> {
    let (platform, application, topo, stats);
    if let Some(source) = &cfg.workload {
        let w = &source.workload;
        platform = w.platform.clone();
        application = w.app.clone();
        topo = w.topology();
        stats = GenStats {
            seed: cfg.seed(spec.index, app),
            relay_tasks: 0,
            workload: w.stats(&spec.config.phy)?,
        };
    } else {
        let generated = generate(&spec.config, cfg.seed(spec.index, app))?;
        stats = generated.stats(&spec.config.phy)?;
        topo = NetworkTopology {
            clusters: generated.clusters,
            node_cluster: generated.node_cluster,
            gateways: generated.gateways,
        };
        platform = generated.platform;
        application = generated.app;
    }
    let results = cfg
        .algos
        .iter()
        .map(|a| {
            a.solve_on(
                &platform,
                &application,
                &topo,
                spec.config.phy,
                &cfg.params,
                &cfg.sa,
            )
        })
        .collect::<Result<Vec<OptResult>, ModelError>>()?;
    Ok((results, stats))
}

impl GridPoint {
    /// Aggregates the solved applications of one grid point (in
    /// application order) into its [`GridPoint`] — the completion half
    /// of [`solve_app`].
    #[must_use]
    pub fn from_apps(cfg: &GridConfig, spec: &PointSpec, apps: Vec<AppRun>) -> GridPoint {
        let names: Vec<&str> = cfg.algos.iter().map(|a| a.name()).collect();
        let mut per_app = Vec::with_capacity(apps.len());
        let mut gens = Vec::with_capacity(apps.len());
        for (results, stats) in apps {
            per_app.push(results);
            gens.push(stats);
        }
        GridPoint {
            index: spec.index,
            label: spec.label.clone(),
            coords: spec.coords.clone(),
            algos: aggregate_algos(&names, &per_app, cfg.reference()),
            gen: GenStats::aggregate(&gens),
        }
    }
}

/// Runs the whole grid and returns every point in enumeration order.
///
/// # Errors
///
/// See [`run_grid_resumed`].
pub fn run_grid(cfg: &GridConfig) -> Result<Vec<GridPoint>, ModelError> {
    run_grid_resumed(cfg, Vec::new(), |_| {})
}

/// Runs the grid, skipping the `done` points recovered from a partial
/// report, and emits every point (recovered or computed) to `sink` in
/// point order as soon as its prefix is complete.
///
/// Work units are `(point, application)` pairs fanned out over the
/// shared work-stealing pool, so long-running points overlap with their
/// neighbours instead of serialising the grid. A failing unit ends the
/// run with the error of the first failing unit in unit order: the
/// units after it are skipped, and the sink sees exactly the points
/// before its point, whatever the thread count.
///
/// # Errors
///
/// Propagates grid validation ([`GridConfig::validate`]), per-point
/// generator-configuration validation, generation errors, and rejects
/// `done` points that do not belong to this grid (index out of range,
/// label mismatch, duplicate, or wrong algorithm set).
pub fn run_grid_resumed<S>(
    cfg: &GridConfig,
    done: Vec<GridPoint>,
    mut sink: S,
) -> Result<Vec<GridPoint>, ModelError>
where
    S: FnMut(&GridPoint),
{
    let specs = cfg.point_specs()?;
    let total = specs.len();
    let names: Vec<&str> = cfg.algos.iter().map(|a| a.name()).collect();

    let mut slots: Vec<Option<GridPoint>> = vec![None; total];
    for point in done {
        if point.index >= total {
            return Err(ModelError::InvalidConfig(format!(
                "resume point {} out of range for a {total}-point grid",
                point.index
            )));
        }
        if point.label != specs[point.index].label {
            return Err(ModelError::InvalidConfig(format!(
                "resume point {} is labelled '{}' but this grid expects '{}'",
                point.index, point.label, specs[point.index].label
            )));
        }
        if point.algos.len() != names.len()
            || point
                .algos
                .iter()
                .zip(&names)
                .any(|((n, _), want)| n != want)
        {
            return Err(ModelError::InvalidConfig(format!(
                "resume point {} carries a different algorithm set",
                point.index
            )));
        }
        if slots[point.index].is_some() {
            return Err(ModelError::InvalidConfig(format!(
                "duplicate resume point {}",
                point.index
            )));
        }
        let index = point.index;
        slots[index] = Some(point);
    }

    run_job(
        slots.iter().map(Option::is_some).collect(),
        cfg.apps_per_point,
        cfg.threads,
        |p, app| solve_app(cfg, &specs[p], app),
        |p, runs| {
            if let Some(runs) = runs {
                slots[p] = Some(GridPoint::from_apps(cfg, &specs[p], runs));
            }
            sink(slots[p].as_ref().expect("a point is done or computed"));
        },
    )?;
    Ok(slots
        .into_iter()
        .map(|slot| slot.expect("every point is done or computed"))
        .collect())
}

/// Renders a grid as one text table: per point and algorithm the
/// schedulability, deviation, timing and evaluation figures, plus the
/// point's achieved generator stats (mean bus/CPU utilisation, relay
/// and message counts). `reference` names the deviation reference
/// ([`GridConfig::reference`]); without one the deviation column is
/// marked absent.
#[must_use]
pub fn render(reference: Option<&str>, points: &[GridPoint]) -> String {
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
                format!("{:.3}", point.gen.avg_bus_util),
                format!("{:.3}", point.gen.node_util.mean),
                format!("{:.1}", point.gen.avg_relay_tasks),
                format!(
                    "{:.1}",
                    point.gen.avg_st_messages + point.gen.avg_dyn_messages
                ),
            ]);
        }
    }
    let dev_header = reference.map_or("avg %dev (no ref)".to_owned(), |r| {
        format!("avg %dev vs {r}")
    });
    format!(
        "Factorial grid\n{}",
        crate::render_table(
            &[
                "point",
                "algorithm",
                "schedulable",
                &dev_header,
                "avg time (s)",
                "avg analyses",
                "bus util",
                "cpu util",
                "relays",
                "messages",
            ],
            &rows
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexray_opt::{OptParams, SaParams};

    fn fast_grid(axes: Vec<SweepAxis>) -> GridConfig {
        GridConfig {
            base: GeneratorConfig::small(3),
            axes,
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
    fn enumeration_is_row_major() {
        let cfg = fast_grid(vec![
            SweepAxis::NodeCount(vec![2, 3]),
            SweepAxis::BusUtil(vec![0.2, 0.4, 0.6]),
        ]);
        assert_eq!(cfg.total_points(), 6);
        let labels: Vec<String> = (0..6).map(|p| cfg.point(p).label).collect();
        assert_eq!(
            labels,
            vec![
                "nodes=2,busutil=0.20",
                "nodes=2,busutil=0.40",
                "nodes=2,busutil=0.60",
                "nodes=3,busutil=0.20",
                "nodes=3,busutil=0.40",
                "nodes=3,busutil=0.60",
            ]
        );
        assert_eq!(cfg.axis_indices(4), vec![1, 1]);
    }

    #[test]
    fn axis_less_grid_is_the_single_base_point() {
        let cfg = fast_grid(vec![]);
        assert_eq!(cfg.total_points(), 1);
        assert_eq!(cfg.point(0).label, "base");
        let points = run_grid(&cfg).expect("runs");
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].gen.apps, 2);
    }

    #[test]
    fn derived_configs_are_independent_of_axis_order() {
        let ab = fast_grid(vec![
            SweepAxis::GatewayFraction(vec![0.0, 0.5]),
            SweepAxis::NodeCount(vec![2, 10]),
        ]);
        let ba = fast_grid(vec![
            SweepAxis::NodeCount(vec![2, 10]),
            SweepAxis::GatewayFraction(vec![0.0, 0.5]),
        ]);
        // match points across the two grids by their coordinate sets
        for p in 0..ab.total_points() {
            let spec = ab.point(p);
            let mut want = spec.coords.clone();
            want.sort();
            let partner = (0..ba.total_points())
                .map(|q| ba.point(q))
                .find(|s| {
                    let mut have = s.coords.clone();
                    have.sort();
                    have == want
                })
                .expect("same coordinate set exists in both grids");
            assert_eq!(
                spec.config, partner.config,
                "axis order changed the derived config at {want:?}"
            );
        }
        // in particular, the gateway fallback must target the final
        // cluster's last node, not the base configuration's
        let corner = ab.point(3); // gateway=0.50, nodes=10
        assert_eq!(corner.config.n_nodes, 10);
        assert_eq!(corner.config.gateways, vec![9]);
    }

    #[test]
    fn seeds_follow_the_policy() {
        let mut cfg = fast_grid(vec![SweepAxis::NodeCount(vec![2, 3])]);
        assert_eq!(cfg.seed(1, 2), 7 + 1000 + 2);
        cfg.seed_policy = SeedPolicy::PointOffsets(vec![5000, 9000]);
        assert_eq!(cfg.seed(1, 2), 7 + 9000 + 2);
    }

    #[test]
    fn validate_rejects_inconsistent_grids() {
        let mut cfg = fast_grid(vec![SweepAxis::NodeCount(vec![])]);
        assert!(cfg.validate().is_err(), "empty axis");
        cfg = fast_grid(vec![
            SweepAxis::NodeCount(vec![2]),
            SweepAxis::NodeCount(vec![3]),
        ]);
        assert!(cfg.validate().is_err(), "duplicate axis");
        cfg = fast_grid(vec![SweepAxis::NodeCount(vec![2])]);
        cfg.algos.clear();
        assert!(cfg.validate().is_err(), "no algorithms");
        cfg = fast_grid(vec![SweepAxis::NodeCount(vec![2])]);
        cfg.apps_per_point = 0;
        assert!(cfg.validate().is_err(), "no applications");
        cfg = fast_grid(vec![SweepAxis::NodeCount(vec![2, 3])]);
        cfg.seed_policy = SeedPolicy::PointOffsets(vec![0]);
        assert!(cfg.validate().is_err(), "offset table too short");
    }

    #[test]
    fn tiny_grid_runs_and_streams_in_order() {
        let cfg = GridConfig {
            threads: 4,
            ..fast_grid(vec![
                SweepAxis::NodeCount(vec![2, 3]),
                SweepAxis::GatewayFraction(vec![0.0, 1.0]),
            ])
        };
        let mut streamed = Vec::new();
        let points =
            run_grid_resumed(&cfg, Vec::new(), |p| streamed.push(p.index)).expect("grid runs");
        assert_eq!(points.len(), 4);
        assert_eq!(streamed, vec![0, 1, 2, 3], "sink sees points in order");
        for (p, point) in points.iter().enumerate() {
            assert_eq!(point.index, p);
            assert_eq!(point.algos.len(), 2);
            assert_eq!(point.gen.apps, 2);
            assert!(point.gen.avg_bus_util > 0.0);
            assert!(point.gen.node_util.max > 0.0);
            assert!(!point.gen.depth_histogram.is_empty());
        }
        // gateway=0.00 points carry no relays; with 2 nodes the only
        // gateway is always an endpoint (direct fallback), so relays
        // can only appear on the 3-node full-gateway point
        assert_eq!(points[0].gen.avg_relay_tasks, 0.0);
        assert_eq!(points[2].gen.avg_relay_tasks, 0.0);
        assert!(points[3].gen.avg_relay_tasks > 0.0);
        let text = render(Some("SA"), &points);
        assert!(text.contains("nodes=3,gateway=1.00"));
        assert!(text.contains("bus util"));
    }

    #[test]
    fn parallel_grid_equals_serial() {
        let serial = fast_grid(vec![
            SweepAxis::GraphDepth(vec![3, 5]),
            SweepAxis::BusUtil(vec![0.2, 0.4]),
        ]);
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
    fn a_failing_grid_reports_its_first_failing_unit_for_any_thread_count() {
        // a node homed on a cluster the network lacks fails every unit
        let generated = generate(&GeneratorConfig::small(3), 1).expect("scenario");
        let mut workload = crate::workload::Workload::of_generated(&generated);
        (workload.clusters, workload.node_cluster) = (2, vec![0, 5, 1]);
        let name = "w".into();
        let mut cfg = GridConfig {
            workload: Some(WorkloadSource { name, workload }),
            apps_per_point: 3,
            ..fast_grid(Vec::new())
        };
        for threads in [1usize, 2, 4] {
            cfg.threads = threads;
            let mut streamed = 0usize;
            let err = run_grid_resumed(&cfg, Vec::new(), |_| streamed += 1).expect_err("fails");
            let want = "invalid configuration: node homed on cluster 5, network has 2 clusters";
            assert_eq!(
                (err.to_string().as_str(), streamed),
                (want, 0),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn resume_rejects_foreign_points() {
        let cfg = fast_grid(vec![SweepAxis::NodeCount(vec![2, 3])]);
        let full = run_grid(&cfg).expect("full");
        // out of range
        let mut bad = full[0].clone();
        bad.index = 7;
        assert!(run_grid_resumed(&cfg, vec![bad], |_| {}).is_err());
        // label mismatch
        let mut bad = full[0].clone();
        bad.label = "nodes=9".into();
        assert!(run_grid_resumed(&cfg, vec![bad], |_| {}).is_err());
        // duplicate
        assert!(run_grid_resumed(&cfg, vec![full[0].clone(), full[0].clone()], |_| {}).is_err());
        // different algorithm set
        let mut bad = full[0].clone();
        bad.algos.pop();
        assert!(run_grid_resumed(&cfg, vec![bad], |_| {}).is_err());
    }
}
