//! Divergence-hunting fuzz campaign over execution orders.
//!
//! The component engine of `flexray-sim` can permute the service order
//! of simultaneous same-phase events ([`ExecutionOrder::Fuzzed`]). This
//! campaign sweeps the grid engine's point enumeration (generator
//! corners) crossed with a set of order seeds and checks, for every
//! schedulable optimised instance, that **no execution order can push
//! the simulation outside the analysis**:
//!
//! * no precedence violation may appear under any order;
//! * every observed response must stay within its analytic WCRT;
//! * every observed response must meet its deadline.
//!
//! Any such finding is a *divergence* — evidence against either the
//! engine's ordering policy or the analysis — and fails the campaign.
//! Fuzzed runs whose response vector differs from the canonical order's
//! (without leaving the bounds) are *order-sensitive*: a legitimate
//! protocol race (e.g. CHI insertion order between equal-priority
//! frames) that the analysis must and does cover; they are counted and
//! reported, not failed.
//!
//! Points are enumerated and seeded exactly like the grid engine
//! ([`GridConfig::point`] / [`GridConfig::seed`]), and the campaign
//! runs on the units→points [`engine`](crate::engine): `(point, app)`
//! units fan out over the shared work-stealing pool and the report
//! streams as JSON lines (`flexray-fuzz` schema v1) in point order.

use crate::engine::run_job;
use crate::grid::{GridConfig, PointSpec, SeedPolicy};
use crate::report::Json;
use crate::sweep::Algo;
use flexray_analysis::{analyse, Analysis, AnalysisConfig};
use flexray_gen::{generate, GeneratorConfig};
use flexray_model::{ModelError, System};
use flexray_opt::{obc, DynSearch, OptParams, SaParams};
use flexray_sim::{simulate_configured, ExecutionOrder, SimConfig, SimReport};

/// The JSON-lines schema name of fuzz reports.
pub const FUZZ_SCHEMA: &str = "flexray-fuzz";
/// The fuzz record-layout version.
pub const FUZZ_SCHEMA_VERSION: u32 = 1;

/// Scale and scope of one fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// The grid the campaign enumerates and seeds its points by: base
    /// configuration, axes, applications per point, optimiser
    /// parameters, `seed0` and worker threads. Its algorithm set is the
    /// OBCCF run the campaign drives itself.
    pub grid: GridConfig,
    /// Execution-order seeds fuzzed per schedulable application (the
    /// canonical order always runs as the baseline).
    pub order_seeds: Vec<u64>,
    /// Hyperperiods per simulation run.
    pub reps: i64,
    /// Hyperperiod compression on the simulation runs.
    pub compress: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            grid: GridConfig {
                base: GeneratorConfig::small(3),
                axes: Vec::new(),
                apps_per_point: 2,
                algos: vec![Algo::ObcCf],
                params: OptParams::default(),
                sa: SaParams::default(),
                seed0: 42,
                seed_policy: SeedPolicy::PointIndex,
                threads: 0,
                workload: None,
            },
            order_seeds: vec![1, 2, 3, 4],
            reps: 4,
            compress: true,
        }
    }
}

impl FuzzConfig {
    /// Checks the campaign for internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] on grid inconsistencies
    /// (see [`GridConfig::validate`]), an empty order-seed set, a
    /// duplicate order seed, or a non-positive hyperperiod count.
    pub fn validate(&self) -> Result<(), ModelError> {
        self.grid.validate()?;
        if self.order_seeds.is_empty() {
            return Err(ModelError::InvalidConfig(
                "fuzz campaign needs at least one order seed".into(),
            ));
        }
        for (k, &s) in self.order_seeds.iter().enumerate() {
            if self.order_seeds[..k].contains(&s) {
                return Err(ModelError::InvalidConfig(format!(
                    "duplicate order seed {s}"
                )));
            }
        }
        if self.reps < 1 {
            return Err(ModelError::InvalidConfig(
                "fuzz campaign needs at least one hyperperiod per run".into(),
            ));
        }
        Ok(())
    }

    /// Serialises the campaign header as the first report line (no
    /// newline).
    ///
    /// # Errors
    ///
    /// Propagates the non-finite-number error of [`Json::write`].
    pub fn header_line(&self) -> Result<String, ModelError> {
        Json::Obj(vec![
            ("schema".into(), Json::Str(FUZZ_SCHEMA.into())),
            ("version".into(), Json::Num(f64::from(FUZZ_SCHEMA_VERSION))),
            (
                "axes".into(),
                Json::Arr(
                    self.grid
                        .axes
                        .iter()
                        .map(|axis| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(axis.name().into())),
                                (
                                    "values".into(),
                                    Json::Arr(
                                        (0..axis.len()).map(|i| Json::Str(axis.value(i))).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "apps_per_point".into(),
                Json::Num(self.grid.apps_per_point as f64),
            ),
            (
                "order_seeds".into(),
                Json::Arr(
                    self.order_seeds
                        .iter()
                        .map(|s| Json::Str(s.to_string()))
                        .collect(),
                ),
            ),
            ("reps".into(), Json::Num(self.reps as f64)),
            ("compress".into(), Json::Bool(self.compress)),
            ("seed0".into(), Json::Str(self.grid.seed0.to_string())),
            (
                "total_points".into(),
                Json::Num(self.grid.total_points() as f64),
            ),
        ])
        .write()
    }
}

/// Outcome of one fuzzed grid point.
#[derive(Debug, Clone)]
pub struct FuzzPoint {
    /// Flat point index in enumeration order.
    pub index: usize,
    /// Point label, e.g. `nodes=5,busutil=0.20`.
    pub label: String,
    /// `(axis name, value)` coordinates in axis order.
    pub coords: Vec<(String, String)>,
    /// Generated applications.
    pub apps: usize,
    /// Applications the optimiser made schedulable (only these are
    /// simulated and fuzzed).
    pub schedulable: usize,
    /// Simulation runs performed (canonical + fuzzed, schedulable apps
    /// only).
    pub runs: usize,
    /// Fuzzed runs whose response vector differed from the canonical
    /// order's without leaving the analysis bounds (legitimate protocol
    /// races).
    pub order_sensitive: usize,
    /// Divergence descriptions — sorted, deduplicated; an empty list is
    /// a pass.
    pub divergences: Vec<String>,
    /// Tightest observed analysis margin (µs) across all runs: the
    /// minimum of `WCRT − observed`. `None` if nothing completed.
    pub min_margin_us: Option<f64>,
}

impl FuzzPoint {
    /// Serialises the point as one report line (no newline).
    ///
    /// # Errors
    ///
    /// Propagates the non-finite-number error of [`Json::write`] (a
    /// NaN margin would be a campaign bug, surfaced here).
    pub fn to_line(&self) -> Result<String, ModelError> {
        self.to_json().write()
    }

    /// The JSON value behind [`FuzzPoint::to_line`] — the form the
    /// `flexray-serve` journal embeds as the `data` member of its
    /// point records.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("point".into(), Json::Num(self.index as f64)),
            ("label".into(), Json::Str(self.label.clone())),
            (
                "coords".into(),
                Json::Obj(
                    self.coords
                        .iter()
                        .map(|(name, value)| (name.clone(), Json::Str(value.clone())))
                        .collect(),
                ),
            ),
            ("apps".into(), Json::Num(self.apps as f64)),
            ("schedulable".into(), Json::Num(self.schedulable as f64)),
            ("runs".into(), Json::Num(self.runs as f64)),
            (
                "order_sensitive".into(),
                Json::Num(self.order_sensitive as f64),
            ),
            (
                "divergences".into(),
                Json::Arr(
                    self.divergences
                        .iter()
                        .map(|d| Json::Str(d.clone()))
                        .collect(),
                ),
            ),
            (
                "min_margin_us".into(),
                self.min_margin_us.map_or(Json::Null, Json::Num),
            ),
        ])
    }

    /// Aggregates the fuzz outcomes of one point (in application
    /// order) into its [`FuzzPoint`] — the completion half of
    /// [`fuzz_app`].
    #[must_use]
    pub fn from_apps(spec: &PointSpec, apps: Vec<FuzzAppOutcome>) -> FuzzPoint {
        let mut point = FuzzPoint {
            index: spec.index,
            label: spec.label.clone(),
            coords: spec.coords.clone(),
            apps: apps.len(),
            schedulable: 0,
            runs: 0,
            order_sensitive: 0,
            divergences: Vec::new(),
            min_margin_us: None,
        };
        for o in apps {
            point.schedulable += usize::from(o.schedulable);
            point.runs += o.runs;
            point.order_sensitive += o.order_sensitive;
            point.divergences.extend(o.divergences);
            if let Some(m) = o.min_margin_us {
                if point.min_margin_us.is_none_or(|cur| m < cur) {
                    point.min_margin_us = Some(m);
                }
            }
        }
        point.divergences.sort();
        point.divergences.dedup();
        point
    }
}

/// Result of one `(point, app)` unit — the fuzz analogue of
/// [`crate::grid::AppRun`].
#[derive(Debug, Clone)]
pub struct FuzzAppOutcome {
    /// Whether the optimiser made the application schedulable.
    pub schedulable: bool,
    /// Simulation runs performed (0 when unschedulable).
    pub runs: usize,
    /// Fuzzed runs whose response vector differed from the canonical
    /// order's without leaving the analysis bounds.
    pub order_sensitive: usize,
    /// Divergence descriptions found on this application.
    pub divergences: Vec<String>,
    /// Tightest observed analysis margin (µs) across this
    /// application's runs.
    pub min_margin_us: Option<f64>,
    /// Scheduling + schedulability evaluations the optimiser spent on
    /// this application — the counter crash-safe dispatchers check to
    /// prove completed work is never recomputed.
    pub evaluations: usize,
}

/// Audits one simulation run against the analysis: collects divergences
/// and tightens the running margin.
fn audit_run(
    sys: &System,
    analysis: &Analysis,
    ctx: &str,
    report: &SimReport,
    divergences: &mut Vec<String>,
    margin: &mut Option<f64>,
) {
    for v in &report.violations {
        divergences.push(format!("{ctx}: precedence violation: {v}"));
    }
    for id in sys.app.ids() {
        let Some(observed) = report.response(id) else {
            continue;
        };
        let name = &sys.app.activity(id).name;
        let bound = analysis.response(id);
        if observed > bound {
            divergences.push(format!(
                "{ctx}: '{name}' observed {observed} > WCRT {bound}"
            ));
        } else {
            let m = (bound - observed).as_us();
            if margin.is_none_or(|cur| m < cur) {
                *margin = Some(m);
            }
        }
        let deadline = sys.app.deadline_of(id);
        if observed > deadline {
            divergences.push(format!(
                "{ctx}: '{name}' observed {observed} misses its deadline {deadline}"
            ));
        }
    }
}

/// Generates, optimises and fuzz-simulates one application — the
/// single work unit of the campaign, in [`run_fuzz`] and in
/// [`Plan::solve_unit`](crate::args::Plan::solve_unit). Seeds follow
/// [`GridConfig::seed`] of [`FuzzConfig::grid`].
///
/// # Errors
///
/// Propagates generation, analysis and simulation errors.
pub fn fuzz_app(
    cfg: &FuzzConfig,
    spec: &PointSpec,
    app_index: usize,
    seed: u64,
) -> Result<FuzzAppOutcome, ModelError> {
    let generated = generate(&spec.config, seed)?;
    let result = obc(
        &generated.platform,
        &generated.app,
        spec.config.phy,
        &cfg.grid.params,
        DynSearch::CurveFit,
    );
    let evaluations = result.evaluations;
    if !result.is_schedulable() {
        return Ok(FuzzAppOutcome {
            schedulable: false,
            runs: 0,
            order_sensitive: 0,
            divergences: Vec::new(),
            min_margin_us: None,
            evaluations,
        });
    }
    let sys = System::validated(generated.platform, generated.app, result.bus)?;
    let analysis = analyse(&sys, &AnalysisConfig::default())?;
    let sim = |order: ExecutionOrder| {
        simulate_configured(
            &sys,
            &SimConfig {
                reps: cfg.reps,
                order,
                compress: cfg.compress,
                ..SimConfig::default()
            },
        )
    };
    let mut divergences = Vec::new();
    let mut margin = None;
    let canonical = sim(ExecutionOrder::Canonical)?;
    let label = &spec.label;
    audit_run(
        &sys,
        &analysis,
        &format!("{label} app {app_index} canonical"),
        &canonical,
        &mut divergences,
        &mut margin,
    );
    let mut runs = 1;
    let mut order_sensitive = 0;
    for &order_seed in &cfg.order_seeds {
        let fuzzed = sim(ExecutionOrder::Fuzzed { seed: order_seed })?;
        runs += 1;
        audit_run(
            &sys,
            &analysis,
            &format!("{label} app {app_index} order-seed {order_seed}"),
            &fuzzed,
            &mut divergences,
            &mut margin,
        );
        if fuzzed.responses != canonical.responses {
            order_sensitive += 1;
        }
    }
    Ok(FuzzAppOutcome {
        schedulable: true,
        runs,
        order_sensitive,
        divergences,
        min_margin_us: margin,
        evaluations,
    })
}

/// Runs the whole campaign, emitting every finished point to `sink` in
/// point order, and returns all points.
///
/// # Errors
///
/// Propagates campaign validation, per-point generator-configuration
/// validation, and generation/analysis/simulation errors.
pub fn run_fuzz<S>(cfg: &FuzzConfig, mut sink: S) -> Result<Vec<FuzzPoint>, ModelError>
where
    S: FnMut(&FuzzPoint),
{
    cfg.validate()?;
    let grid = &cfg.grid;
    let specs = grid.point_specs()?;
    let mut points = Vec::with_capacity(specs.len());
    run_job(
        vec![false; specs.len()],
        grid.apps_per_point,
        grid.threads,
        |p, app| fuzz_app(cfg, &specs[p], app, grid.seed(p, app)),
        |p, outcomes| {
            let point = FuzzPoint::from_apps(&specs[p], outcomes.expect("no point is done"));
            sink(&point);
            points.push(point);
        },
    )?;
    Ok(points)
}

/// Renders the campaign as one text table.
#[must_use]
pub fn render(points: &[FuzzPoint]) -> String {
    let mut rows = Vec::new();
    for p in points {
        rows.push(vec![
            p.label.clone(),
            format!("{}/{}", p.schedulable, p.apps),
            p.runs.to_string(),
            p.order_sensitive.to_string(),
            p.divergences.len().to_string(),
            p.min_margin_us
                .map_or("-".to_owned(), |m| format!("{m:.1}")),
        ]);
    }
    format!(
        "Order-fuzz campaign\n{}",
        crate::render_table(
            &[
                "point",
                "schedulable",
                "sim runs",
                "order-sensitive",
                "divergences",
                "min margin (µs)",
            ],
            &rows
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepAxis;

    fn tiny() -> FuzzConfig {
        let fuzz = FuzzConfig::default();
        FuzzConfig {
            grid: GridConfig {
                base: GeneratorConfig::small(2),
                axes: vec![SweepAxis::NodeCount(vec![2, 3])],
                apps_per_point: 1,
                params: OptParams {
                    max_extra_slots: 2,
                    max_slot_len_steps: 3,
                    max_dyn_candidates: 24,
                    dyn_step: 32,
                    ..OptParams::default()
                },
                seed0: 1,
                threads: 1,
                ..fuzz.grid
            },
            order_seeds: vec![1, 2],
            reps: 2,
            ..fuzz
        }
    }

    #[test]
    fn validate_rejects_bad_campaigns() {
        let mut cfg = tiny();
        cfg.order_seeds.clear();
        assert!(cfg.validate().is_err(), "no order seeds");
        let mut cfg = tiny();
        cfg.order_seeds = vec![1, 1];
        assert!(cfg.validate().is_err(), "duplicate order seed");
        let mut cfg = tiny();
        cfg.reps = 0;
        assert!(cfg.validate().is_err(), "no hyperperiods");
        let mut cfg = tiny();
        cfg.grid.apps_per_point = 0;
        assert!(cfg.validate().is_err(), "grid validation still applies");
    }

    #[test]
    fn tiny_campaign_finds_no_divergences_and_streams_in_order() {
        let cfg = tiny();
        let mut streamed = Vec::new();
        let points = run_fuzz(&cfg, |p| streamed.push(p.index)).expect("campaign runs");
        assert_eq!(points.len(), 2);
        assert_eq!(streamed, vec![0, 1]);
        let mut any_schedulable = false;
        for p in &points {
            assert!(p.divergences.is_empty(), "{}: {:?}", p.label, p.divergences);
            assert_eq!(p.apps, 1);
            if p.schedulable > 0 {
                any_schedulable = true;
                // canonical + 2 fuzzed per schedulable app
                assert_eq!(p.runs, 3 * p.schedulable);
                assert!(p.min_margin_us.is_some());
            }
        }
        assert!(any_schedulable, "campaign never simulated anything");
        let text = render(&points);
        assert!(text.contains("order-sensitive"));
        let header = cfg.header_line().expect("finite header");
        assert!(header.contains("\"schema\":\"flexray-fuzz\""));
        let line = points[0].to_line().expect("finite point");
        assert!(line.contains("\"divergences\":[]"));
    }

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        let serial = tiny();
        let mut parallel = serial.clone();
        parallel.grid.threads = 4;
        let s = run_fuzz(&serial, |_| {}).expect("serial");
        let p = run_fuzz(&parallel, |_| {}).expect("parallel");
        assert_eq!(s.len(), p.len());
        for (a, b) in s.iter().zip(&p) {
            assert_eq!(
                a.to_line().expect("finite point"),
                b.to_line().expect("finite point")
            );
        }
    }
}
