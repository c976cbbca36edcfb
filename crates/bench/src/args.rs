//! The one `key=value` argument grammar of the `grid`, `sweep`, `fig9`
//! and `fuzz` harnesses, shared by their binaries and by the
//! `flexray-serve` job specs.
//!
//! [`parse`] takes a [`Kind`] and the argument tokens and returns that
//! kind's execution [`Plan`] — a [`GridConfig`] for `grid`, `sweep` and
//! `fig9`, a [`FuzzConfig`] for `fuzz` — plus the report paths the
//! binaries write. Every malformed token is an error that names it:
//! a token without `=`, a key the kind does not take, or a value that
//! does not parse. Nothing falls back to a default.
//!
//! Keys by kind:
//!
//! | key | grid | sweep | fig9 | fuzz |
//! |---|---|---|---|---|
//! | `nodes=` | axis | axis | the node counts | axis |
//! | `depth=` `gateway=` `busutil=` | axis | axis | | axis |
//! | `clusters=` | axis | axis | | |
//! | `workload=FILE` | yes | | | |
//! | `apps=` `mode=` `threads=` `eval_threads=` `seed0=` | yes | yes | yes | yes |
//! | `algos=` | yes | yes | | |
//! | `orders=` `reps=` `compress=on\|off` | | | | yes |
//! | `out=FILE` | yes | | | yes |
//! | `csv=FILE` | yes | | | |
//!
//! `sweep` is the grid grammar restricted to exactly one axis. `fig9`
//! is the preset [`fig9::grid`]: a node-count grid over the paper
//! configuration, seeded by node count. `eval_threads=` applies after
//! `mode=` whatever their order, since `mode=` replaces the optimiser
//! parameters wholesale.
//!
//! The `ablation`, `fig7` and `cruise` binaries take one optional
//! positional argument instead, read by [`positional`] just as
//! strictly: a malformed or out-of-range token is an error naming it.
//!
//! [`Plan`] holds the one per-kind dispatch of the daemon's units→points
//! [`engine`](crate::engine) jobs: solve a unit, fold a point, write
//! the report header.

use crate::fig9;
use crate::fuzz::{fuzz_app, FuzzAppOutcome, FuzzConfig, FuzzPoint};
use crate::grid::{solve_app, AppRun, GridConfig, GridPoint, WorkloadSource};
use crate::report::{point_to_json, GridReportHeader, Json};
use crate::sweep::{parse_algo_set, parse_thread_count, search_mode, SweepAxis};
use crate::workload::Workload;
use flexray_model::{ModelError, MAX_STATIC_SLOTS};

/// A harness front-end, selecting which keys [`parse`] accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A factorial grid over any subset of the axes, or an imported
    /// workload.
    Grid,
    /// A grid over exactly one axis.
    Sweep,
    /// The Fig. 9 node-count preset.
    Fig9,
    /// An execution-order fuzz campaign.
    Fuzz,
}

impl Kind {
    /// Parses a kind name (`grid`, `sweep`, `fig9`, `fuzz`).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Kind> {
        match name {
            "grid" => Some(Kind::Grid),
            "sweep" => Some(Kind::Sweep),
            "fig9" => Some(Kind::Fig9),
            "fuzz" => Some(Kind::Fuzz),
            _ => None,
        }
    }

    /// The kind's name, as [`Kind::from_name`] reads it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Grid => "grid",
            Kind::Sweep => "sweep",
            Kind::Fig9 => "fig9",
            Kind::Fuzz => "fuzz",
        }
    }

    /// The keys the kind takes (see the table in the module docs).
    #[must_use]
    pub fn keys(self) -> Vec<&'static str> {
        let own = match self {
            Kind::Grid => "nodes depth gateway busutil clusters workload algos out csv",
            Kind::Sweep => "nodes depth gateway busutil clusters algos",
            Kind::Fig9 => "nodes",
            Kind::Fuzz => "nodes depth gateway busutil orders reps compress out",
        };
        own.split(' ')
            .chain(["apps", "mode", "threads", "eval_threads", "seed0"])
            .collect()
    }
}

/// The execution plan a kind's arguments describe: `grid`, `sweep`
/// and `fig9` all run a grid.
#[derive(Debug, Clone)]
pub enum Plan {
    /// A factorial grid. Boxed (like `Fuzz`) to keep the enum small:
    /// an imported workload makes a grid configuration arbitrarily
    /// large.
    Grid(Box<GridConfig>),
    /// An execution-order fuzz campaign.
    Fuzz(Box<FuzzConfig>),
}

impl Plan {
    /// The grid the plan enumerates and seeds its points by.
    #[must_use]
    pub fn grid(&self) -> &GridConfig {
        match self {
            Plan::Grid(cfg) => cfg,
            Plan::Fuzz(cfg) => &cfg.grid,
        }
    }

    /// Checks the plan for internal consistency.
    ///
    /// # Errors
    ///
    /// See [`GridConfig::validate`] and [`FuzzConfig::validate`].
    pub fn validate(&self) -> Result<(), ModelError> {
        match self {
            Plan::Grid(cfg) => cfg.validate(),
            Plan::Fuzz(cfg) => cfg.validate(),
        }
    }

    /// The plan's report header line (no newline).
    ///
    /// # Errors
    ///
    /// Propagates the non-finite-number error of [`Json::write`].
    pub fn header_line(&self) -> Result<String, ModelError> {
        match self {
            Plan::Grid(cfg) => GridReportHeader::of(cfg).to_line(),
            Plan::Fuzz(cfg) => cfg.header_line(),
        }
    }

    /// Solves application `app` of point `point`: one unit of the
    /// units→points [`engine`](crate::engine).
    ///
    /// # Errors
    ///
    /// See [`solve_app`] and [`fuzz_app`].
    pub fn solve_unit(&self, point: usize, app: usize) -> Result<Unit, ModelError> {
        let spec = self.grid().point(point);
        match self {
            Plan::Grid(cfg) => solve_app(cfg, &spec, app).map(Unit::Grid),
            Plan::Fuzz(cfg) => fuzz_app(cfg, &spec, app, cfg.grid.seed(point, app)).map(Unit::Fuzz),
        }
    }

    /// Folds the units [`Plan::solve_unit`] solved for `point`, in
    /// application order, into the point's report record — with
    /// wall-clock times zeroed, the one field of a point that is not a
    /// function of the plan.
    #[must_use]
    pub fn fold_point(&self, point: usize, units: Vec<Unit>) -> Json {
        let spec = self.grid().point(point);
        let (mut runs, mut outcomes) = (Vec::new(), Vec::new());
        for unit in units {
            match unit {
                Unit::Grid(run) => runs.push(run),
                Unit::Fuzz(outcome) => outcomes.push(outcome),
            }
        }
        match self {
            Plan::Grid(cfg) => {
                let mut point = GridPoint::from_apps(cfg, &spec, runs);
                for (_, stats) in &mut point.algos {
                    stats.avg_time_s = 0.0;
                }
                point_to_json(&point)
            }
            Plan::Fuzz(_) => FuzzPoint::from_apps(&spec, outcomes).to_json(),
        }
    }
}

/// One solved unit of a [`Plan`].
#[derive(Debug, Clone)]
pub enum Unit {
    /// A grid application run.
    Grid(AppRun),
    /// A fuzzed application.
    Fuzz(FuzzAppOutcome),
}

impl Unit {
    /// Optimiser candidate evaluations the unit spent.
    #[must_use]
    pub fn evaluations(&self) -> u64 {
        match self {
            Unit::Grid((results, _)) => results.iter().map(|r| r.evaluations as u64).sum(),
            Unit::Fuzz(outcome) => outcome.evaluations as u64,
        }
    }
}

/// Parsed arguments: the plan plus the report paths of the `out=` and
/// `csv=` keys.
#[derive(Debug, Clone)]
pub struct Args {
    /// The execution plan.
    pub plan: Plan,
    /// `out=FILE`: where the JSON-lines report streams.
    pub out: Option<String>,
    /// `csv=FILE`: where the CSV projection goes.
    pub csv: Option<String>,
}

fn invalid(msg: String) -> ModelError {
    ModelError::InvalidConfig(msg)
}

fn bad_value(key: &str, value: &str) -> ModelError {
    invalid(format!("invalid value '{value}' for key '{key}'"))
}

fn scalar<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, ModelError> {
    value.parse().map_err(|_| bad_value(key, value))
}

fn list<T: std::str::FromStr>(key: &str, value: &str) -> Result<Vec<T>, ModelError> {
    value
        .split(',')
        .map(str::parse)
        .collect::<Result<Vec<T>, _>>()
        .map_err(|_| invalid(format!("invalid value list '{value}' for key '{key}'")))
}

/// The `nodes=` list, every count between 1 and [`MAX_STATIC_SLOTS`]:
/// a system has at least one node, more nodes than a cycle has static
/// slots cannot be configured, and an unbounded count overflows the
/// Fig. 9 seed offsets (`1000·n`).
fn node_counts(value: &str) -> Result<Vec<usize>, ModelError> {
    let counts: Vec<usize> = list("nodes", value)?;
    if counts
        .iter()
        .any(|&n| !(1..=usize::from(MAX_STATIC_SLOTS)).contains(&n))
    {
        return Err(invalid(format!(
            "invalid value list '{value}' for key 'nodes': between 1 and {MAX_STATIC_SLOTS} nodes"
        )));
    }
    Ok(counts)
}

fn read_workload(path: &str) -> Result<WorkloadSource, ModelError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| invalid(format!("cannot read workload file '{path}': {e}")))?;
    let workload =
        Workload::import(&text).map_err(|e| invalid(format!("workload file '{path}': {e}")))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .map_or_else(|| path.to_owned(), |s| s.to_string_lossy().into_owned());
    Ok(WorkloadSource { name, workload })
}

/// Parses `kind`'s `key=value` argument tokens.
///
/// The plan is not validated beyond its axis count; call
/// [`Plan::validate`] for the semantic checks (duplicate axes, zero
/// applications, …).
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] naming the offending token on
/// a token without `=`, a key `kind` does not take, a malformed value,
/// an unreadable workload file, or a wrong number of axes (`grid` and
/// `fuzz` need at least one, `sweep` exactly one).
pub fn parse<S: AsRef<str>>(kind: Kind, tokens: &[S]) -> Result<Args, ModelError> {
    let mut fuzz = FuzzConfig::default();
    let mut cfg = match kind {
        Kind::Grid | Kind::Sweep => GridConfig {
            axes: Vec::new(),
            ..GridConfig::default()
        },
        Kind::Fig9 => fig9::grid(vec![2, 3, 4, 5]),
        Kind::Fuzz => fuzz.grid.clone(),
    };
    let (mut out, mut csv) = (None, None);
    let mut eval_threads = None;
    for token in tokens {
        let token = token.as_ref();
        let Some((key, value)) = token.split_once('=') else {
            return Err(invalid(format!("expected key=value, got '{token}'")));
        };
        if !kind.keys().contains(&key) {
            return Err(invalid(format!(
                "unknown {} key '{key}' (takes {})",
                kind.name(),
                kind.keys().join(", ")
            )));
        }
        match key {
            "nodes" if kind == Kind::Fig9 => {
                let preset = fig9::grid(node_counts(value)?);
                cfg.axes = preset.axes;
                cfg.seed_policy = preset.seed_policy;
            }
            "nodes" => cfg.axes.push(SweepAxis::NodeCount(node_counts(value)?)),
            "depth" => {
                let depths: Vec<usize> = list(key, value)?;
                if depths.contains(&0) {
                    return Err(invalid(format!(
                        "invalid value list '{value}' for key 'depth': a graph has depth at least 1"
                    )));
                }
                cfg.axes.push(SweepAxis::GraphDepth(depths));
            }
            "gateway" => cfg.axes.push(SweepAxis::GatewayFraction(list(key, value)?)),
            "busutil" => cfg.axes.push(SweepAxis::BusUtil(list(key, value)?)),
            "clusters" => cfg.axes.push(SweepAxis::Clusters(list(key, value)?)),
            "workload" => cfg.workload = Some(read_workload(value)?),
            "apps" => cfg.apps_per_point = scalar(key, value)?,
            "mode" => {
                (cfg.params, cfg.sa) = search_mode(value).ok_or_else(|| bad_value(key, value))?;
            }
            "threads" => cfg.threads = parse_thread_count(value)?,
            "eval_threads" => eval_threads = Some(parse_thread_count(value)?),
            "seed0" => cfg.seed0 = scalar(key, value)?,
            "algos" => cfg.algos = parse_algo_set(value)?,
            "orders" => fuzz.order_seeds = list(key, value)?,
            "reps" => fuzz.reps = scalar(key, value)?,
            "compress" => {
                fuzz.compress = match value {
                    "on" => true,
                    "off" => false,
                    _ => return Err(bad_value(key, value)),
                }
            }
            "out" => out = Some(value.to_owned()),
            "csv" => csv = Some(value.to_owned()),
            _ => unreachable!("Kind::keys lists only the keys matched here"),
        }
    }
    if let Some(threads) = eval_threads {
        cfg.params.eval_threads = threads;
    }
    match kind {
        Kind::Grid if cfg.axes.is_empty() && cfg.workload.is_none() => {
            return Err(invalid(
                "grid needs at least one axis (or a workload)".into(),
            ))
        }
        Kind::Sweep if cfg.axes.len() != 1 => {
            return Err(invalid(format!(
                "sweep takes exactly one axis, got {}",
                cfg.axes.len()
            )))
        }
        Kind::Fuzz if cfg.axes.is_empty() => {
            return Err(invalid("fuzz needs at least one axis".into()))
        }
        _ => {}
    }
    let plan = if kind == Kind::Fuzz {
        fuzz.grid = cfg;
        Plan::Fuzz(Box::new(fuzz))
    } else {
        Plan::Grid(Box::new(cfg))
    };
    Ok(Args { plan, out, csv })
}

/// [`parse`] over the process arguments, for the harness binaries: a
/// malformed token prints `<kind>: <error>` and exits with status 2.
#[must_use]
pub fn parse_env_or_exit(kind: Kind) -> Args {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    parse(kind, &tokens).unwrap_or_else(|e| {
        eprintln!("{}: {e}", kind.name());
        std::process::exit(2)
    })
}

/// The one optional positional argument of the `ablation`, `fig7` and
/// `cruise` binaries, named `what` in errors: `default` without a
/// token, else the token parsed.
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] naming the token when it does
/// not parse or `valid` rejects it, or naming the second token when
/// there is more than one.
pub fn positional<T: std::str::FromStr, S: AsRef<str>>(
    what: &str,
    tokens: &[S],
    default: T,
    valid: fn(&T) -> bool,
) -> Result<T, ModelError> {
    match tokens {
        [] => Ok(default),
        [token] => {
            let token = token.as_ref();
            token
                .parse()
                .ok()
                .filter(valid)
                .ok_or_else(|| invalid(format!("invalid value '{token}' for {what}")))
        }
        [_, extra, ..] => Err(invalid(format!(
            "unexpected argument '{}' (takes at most one, {what})",
            extra.as_ref()
        ))),
    }
}

/// [`positional`] over the process arguments of binary `bin`: a
/// malformed token prints `<bin>: <error>` and exits with status 2.
#[must_use]
pub fn positional_env_or_exit<T: std::str::FromStr>(
    bin: &str,
    what: &str,
    default: T,
    valid: fn(&T) -> bool,
) -> T {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    positional(what, &tokens, default, valid).unwrap_or_else(|e| {
        eprintln!("{bin}: {e}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::SeedPolicy;
    use crate::sweep::Algo;

    fn grid_of(kind: Kind, tokens: &[&str]) -> GridConfig {
        parse(kind, tokens).expect("parses").plan.grid().clone()
    }

    #[test]
    fn malformed_tokens_are_rejected_naming_the_token() {
        let cases: &[(Kind, &[&str], &str)] = &[
            (Kind::Grid, &["nodes=2", "apps=x"], "'x'"),
            (Kind::Grid, &["nodes=2", "bogus=1"], "'bogus'"),
            (Kind::Grid, &["nodes=2", "orders=1"], "'orders'"),
            (Kind::Grid, &["nodes=2", "resume=r.jsonl"], "'resume'"),
            (Kind::Grid, &["nodes=2,zero"], "'2,zero'"),
            (Kind::Grid, &["depth=0,1"], "'0,1'"),
            (Kind::Sweep, &["depth=3,0"], "'3,0'"),
            (Kind::Grid, &["nodes=2", "mode=warp"], "'warp'"),
            (Kind::Grid, &["nodes=2", "threads=fuor"], "'fuor'"),
            (Kind::Grid, &["nodes=2", "algos=bbc,warp"], "'warp'"),
            (Kind::Grid, &["nodes"], "'nodes'"),
            (Kind::Grid, &["apps=1"], "axis"),
            (Kind::Sweep, &["nodes=2", "bogus=1"], "'bogus'"),
            (Kind::Sweep, &["nodes=2", "workload=w.jsonl"], "'workload'"),
            (Kind::Sweep, &["nodes=2", "out=r.jsonl"], "'out'"),
            (Kind::Sweep, &["nodes=2", "depth=3"], "got 2"),
            (Kind::Sweep, &["apps=2"], "got 0"),
            (Kind::Fig9, &["apps=one"], "'one'"),
            (Kind::Fig9, &["algos=bbc"], "'algos'"),
            (Kind::Fig9, &["depth=3"], "'depth'"),
            (Kind::Fig9, &["nodes=2", "eval_threads=-1"], "'-1'"),
            (Kind::Fig9, &["1"], "'1'"),
            (Kind::Fuzz, &["nodes=2", "reps=x"], "'x'"),
            (Kind::Fuzz, &["nodes=2", "compress=maybe"], "'maybe'"),
            (Kind::Fuzz, &["nodes=2", "orders=1,z"], "'1,z'"),
            (Kind::Fuzz, &["nodes=2", "clusters=2"], "'clusters'"),
            (Kind::Fuzz, &["nodes=2", "algos=bbc"], "'algos'"),
            (Kind::Fuzz, &["nodes=2", "csv=r.csv"], "'csv'"),
            (Kind::Fuzz, &["apps=1"], "axis"),
            (Kind::Grid, &["nodes=18446744073709551615"], "'nodes'"),
            (Kind::Fig9, &["nodes=2,18446744073709551615"], "'nodes'"),
            (Kind::Sweep, &["nodes=1024"], "'nodes'"),
            (Kind::Fuzz, &["nodes=2,1024"], "'nodes'"),
            (Kind::Grid, &["nodes=0"], "'nodes'"),
            (Kind::Fig9, &["nodes=0,2"], "'nodes'"),
        ];
        for &(kind, tokens, needle) in cases {
            let err = parse(kind, tokens)
                .map(|_| ())
                .expect_err(&format!("{} accepted {tokens:?}", kind.name()));
            assert!(
                err.to_string().contains(needle),
                "{} {tokens:?}: error does not name {needle}: {err}",
                kind.name()
            );
        }
    }

    #[test]
    fn positional_arguments_are_strict() {
        let count = |tokens: &[&str]| positional("n_apps", tokens, 5usize, |&n| n > 0);
        assert_eq!(count(&[]).expect("default"), 5);
        assert_eq!(count(&["3"]).expect("parses"), 3);
        for (tokens, needle) in [
            (&["abc"][..], "'abc'"),
            (&["0"], "'0'"),
            (&["-1"], "'-1'"),
            (&["3", "4"], "'4'"),
        ] {
            let err = count(tokens).expect_err(&format!("accepted {tokens:?}"));
            assert!(err.to_string().contains(needle), "{tokens:?}: {err}");
        }
        let wcet =
            |token: &str| positional("wcet_us", &[token], 150.0f64, |w| w.is_finite() && *w > 0.0);
        assert_eq!(wcet("180").expect("parses"), 180.0);
        for token in ["abc", "0", "-5", "inf", "NaN"] {
            assert!(wcet(token).is_err(), "accepted {token}");
        }
    }

    #[test]
    fn eval_threads_applies_after_mode_in_any_order() {
        for tokens in [
            ["nodes=2", "eval_threads=3", "mode=smoke"],
            ["nodes=2", "mode=smoke", "eval_threads=3"],
        ] {
            for kind in [Kind::Grid, Kind::Sweep, Kind::Fig9, Kind::Fuzz] {
                let cfg = grid_of(kind, &tokens);
                let (smoke, sa) = search_mode("smoke").expect("known mode");
                assert_eq!(cfg.params.eval_threads, 3, "{}", kind.name());
                assert_eq!(cfg.params.max_dyn_candidates, smoke.max_dyn_candidates);
                assert_eq!(cfg.sa, sa);
            }
        }
    }

    #[test]
    fn node_counts_up_to_the_static_slot_limit_parse() {
        let cfg = grid_of(Kind::Fig9, &["nodes=1023"]);
        assert_eq!(cfg.seed_policy, SeedPolicy::PointOffsets(vec![1_023_000]));
        let cfg = grid_of(Kind::Grid, &["nodes=2,1023"]);
        assert_eq!(cfg.axes, vec![SweepAxis::NodeCount(vec![2, 1023])]);
    }

    #[test]
    fn fig9_is_the_node_count_preset() {
        let cfg = grid_of(Kind::Fig9, &[]);
        assert_eq!(cfg.axes, vec![SweepAxis::NodeCount(vec![2, 3, 4, 5])]);
        assert_eq!(cfg.apps_per_point, 5);
        assert_eq!(cfg.algos, Algo::ALL.to_vec());
        let cfg = grid_of(Kind::Fig9, &["apps=1", "nodes=2,3", "seed0=7"]);
        assert_eq!(cfg.axes, vec![SweepAxis::NodeCount(vec![2, 3])]);
        assert_eq!(cfg.seed_policy, SeedPolicy::PointOffsets(vec![2000, 3000]));
        assert_eq!((cfg.apps_per_point, cfg.seed0), (1, 7));
        // a repeated `nodes=` replaces the node counts
        let cfg = grid_of(Kind::Fig9, &["nodes=2,3", "nodes=4"]);
        assert_eq!(cfg.axes, vec![SweepAxis::NodeCount(vec![4])]);
        assert_eq!(cfg.seed_policy, SeedPolicy::PointOffsets(vec![4000]));
    }

    #[test]
    fn grid_keys_fill_the_config_and_the_report_paths() {
        let args = parse(
            Kind::Grid,
            &[
                "nodes=2,3",
                "busutil=0.2",
                "apps=2",
                "threads=4",
                "algos=sa,bbc",
                "out=g.jsonl",
                "csv=g.csv",
            ],
        )
        .expect("parses");
        let cfg = args.plan.grid();
        assert_eq!(cfg.total_points(), 2);
        assert_eq!((cfg.apps_per_point, cfg.threads), (2, 4));
        assert_eq!(cfg.algos, vec![Algo::Sa, Algo::Bbc]);
        assert_eq!(args.out.as_deref(), Some("g.jsonl"));
        assert_eq!(args.csv.as_deref(), Some("g.csv"));
    }

    #[test]
    fn fuzz_keys_fill_the_campaign() {
        let args = parse(
            Kind::Fuzz,
            &[
                "nodes=2",
                "orders=5,6",
                "reps=3",
                "compress=off",
                "out=z.jsonl",
            ],
        )
        .expect("parses");
        let Plan::Fuzz(cfg) = &args.plan else {
            panic!("fuzz plan expected")
        };
        assert_eq!(cfg.order_seeds, vec![5, 6]);
        assert_eq!((cfg.reps, cfg.compress), (3, false));
        assert_eq!(cfg.grid.algos, vec![Algo::ObcCf]);
        assert_eq!(args.out.as_deref(), Some("z.jsonl"));
    }
}
