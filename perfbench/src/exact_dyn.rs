//! `exact_dyn`: the exhaustive DYN-length sweep of
//! `determine_dyn_length` under Exact cycle packing, on `dyn_only`
//! generated sets (no time-triggered graphs, BBC skeleton template) with
//! one serial `Evaluator` per sweep.
//!
//! The Exact packing DP does most of the work and the list scheduler
//! almost none, because the static schedule is cached across the sweep.
//! The traced run drives an `AnalysisSession` itself, one
//! `analyse_into`/`reanalyse_dyn_length` call per candidate in the order
//! `Evaluator::evaluate_dyn_lengths` uses, and times every call.

use std::time::Instant;

use flexray_analysis::{analyse, AnalysisConfig, AnalysisSession, Cost, DynAnalysisMode};
use flexray_gen::{generate, GeneratorConfig};
use flexray_model::{Application, BusConfig, Platform, System};
use flexray_opt::{
    bbc_skeleton, determine_dyn_length, dyn_sweep_grid, DynChoice, DynSearch, Evaluator, OptParams,
};

use crate::common::{quantile, rounds, secs, Args, Orders, Outcome, RepeatCheck};

/// `(nodes, generator seed)` of the swept sets; one sweep of each takes
/// 0.3–0.8 s.
pub const SETS: [(usize, u64); 4] = [(3, 0), (3, 1), (4, 2), (4, 9)];

/// Wall-clock of one round: one sweep of every set of [`SETS`].
const ROUND_S: f64 = 2.5;

struct Set {
    platform: Platform,
    app: Application,
    template: BusConfig,
    grid: Vec<u32>,
}

fn exact() -> AnalysisConfig {
    AnalysisConfig {
        dyn_mode: DynAnalysisMode::Exact,
        ..AnalysisConfig::default()
    }
}

fn build_set(
    nodes: usize,
    seed: u64,
    params: &OptParams,
    gen_s: &mut Vec<f64>,
) -> Result<Set, String> {
    let cfg = GeneratorConfig {
        tt_fraction: 0.0,
        ..GeneratorConfig::paper(nodes)
    };
    let start = Instant::now();
    let generated = generate(&cfg, seed).map_err(|e| format!("generate {nodes}/{seed}: {e}"))?;
    gen_s.push(secs(start));
    let template = bbc_skeleton(&generated.platform, &generated.app, cfg.phy);
    let ev = Evaluator::new(generated.platform.clone(), generated.app.clone(), exact());
    let (min, max) = ev
        .dyn_bounds(&template)
        .ok_or_else(|| format!("set {nodes}/{seed} has no DYN sweep"))?;
    Ok(Set {
        platform: generated.platform,
        app: generated.app,
        template,
        grid: dyn_sweep_grid(min, max, params),
    })
}

/// What runs a sweep: the serial evaluator, or (traced) a bare session
/// driven call by call.
enum Sweeper {
    Evaluator(Evaluator),
    Session(AnalysisSession),
}

/// One finished sweep: what it chose, the last candidate the session
/// analysed, and its deterministic counters.
struct Sweep {
    choice: Option<DynChoice>,
    last: Option<(u32, Cost)>,
    evaluations: u64,
    exact_calls: u64,
    short_circuits: u64,
}

impl Sweep {
    fn of(session: &AnalysisSession, choice: Option<DynChoice>, evaluations: usize) -> Sweep {
        let (exact_calls, short_circuits) = session.dyn_exact_stats();
        Sweep {
            choice,
            last: session.last_bus().map(|b| (b.n_minislots, session.cost())),
            evaluations: evaluations as u64,
            exact_calls,
            short_circuits,
        }
    }
}

/// The serial sweep of `Evaluator::evaluate_dyn_lengths` driven call by
/// call, timing each analysis into `call_us`; returns the first best
/// candidate as `determine_dyn_length` picks it.
fn traced_sweep(
    session: &mut AnalysisSession,
    set: &Set,
    call_us: &mut Vec<f64>,
) -> Option<DynChoice> {
    let mut best: Option<DynChoice> = None;
    let mut analysed_n: Option<u32> = None;
    for &n in &set.grid {
        let cost = if let Some(prev_n) = analysed_n {
            let bus = session
                .last_bus_mut()
                .expect("a prior candidate was analysed");
            bus.n_minislots = n;
            if bus.validate_for(&set.app, set.platform.len()).is_ok() {
                let start = Instant::now();
                let cost = session
                    .reanalyse_dyn_length(n)
                    .unwrap_or_else(|_| Cost::infeasible());
                call_us.push(secs(start) * 1e6);
                analysed_n = Some(n);
                cost
            } else {
                bus.n_minislots = prev_n;
                Cost::infeasible()
            }
        } else {
            let mut bus = set.template.clone();
            bus.n_minislots = n;
            if bus.validate_for(&set.app, set.platform.len()).is_ok() {
                let start = Instant::now();
                let cost = session
                    .analyse_into(&bus)
                    .unwrap_or_else(|_| Cost::infeasible());
                call_us.push(secs(start) * 1e6);
                analysed_n = Some(n);
                cost
            } else {
                Cost::infeasible()
            }
        };
        if best.is_none_or(|b| cost.better_than(&b.cost)) {
            best = Some(DynChoice {
                n_minislots: n,
                cost,
            });
        }
    }
    best
}

fn sweep(sweeper: &mut Sweeper, set: &Set, params: &OptParams, call_us: &mut Vec<f64>) -> Sweep {
    match sweeper {
        Sweeper::Evaluator(ev) => {
            let choice = determine_dyn_length(ev, &set.template, params, DynSearch::Exhaustive);
            Sweep::of(ev.session(), choice, ev.evaluations())
        }
        Sweeper::Session(session) => {
            let before = call_us.len();
            let choice = traced_sweep(session, set, call_us);
            Sweep::of(session, choice, call_us.len() - before)
        }
    }
}

/// A fresh `analyse` of `set`'s template at length `n`.
fn rescore(set: &Set, n: u32) -> Result<Cost, String> {
    let mut bus = set.template.clone();
    bus.n_minislots = n;
    let sys = System {
        platform: set.platform.clone(),
        app: set.app.clone(),
        bus,
    };
    analyse(&sys, &exact())
        .map(|a| a.cost)
        .map_err(|e| e.to_string())
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures (generation, a set without a DYN sweep).
pub fn run(args: &Args) -> Result<Outcome, String> {
    let params = OptParams {
        eval_threads: 1,
        ..OptParams::default()
    };
    let mut out = Outcome::default();
    let mut orders = Orders::new(args.seed);
    let mut repeats = RepeatCheck::default();
    let mut gen_s = Vec::new();
    let mut call_us = Vec::new();
    for _ in 0..rounds(args.seconds, ROUND_S) {
        // Set-up: every set generated, one fresh session per sweep.
        let start = Instant::now();
        let sets = SETS
            .iter()
            .map(|&(nodes, seed)| build_set(nodes, seed, &params, &mut gen_s))
            .collect::<Result<Vec<_>, String>>()?;
        let mut sweepers: Vec<Sweeper> = sets
            .iter()
            .map(|set| {
                let (platform, app) = (set.platform.clone(), set.app.clone());
                if args.trace {
                    Sweeper::Session(AnalysisSession::new(platform, app, exact()))
                } else {
                    Sweeper::Evaluator(Evaluator::new(platform, app, exact()))
                }
            })
            .collect();
        out.setup_s.push(secs(start));

        let mut sweeps = Vec::with_capacity(SETS.len());
        for k in orders.next(SETS.len()) {
            let start = Instant::now();
            let result = sweep(&mut sweepers[k], &sets[k], &params, &mut call_us);
            let s = secs(start);
            out.item(k, sets[k].grid.len() as f64, s);
            out.job(k, s * 1e3);
            sweeps.push((k, result));
        }

        // Checks, outside the timed loop: the chosen and the last
        // analysed candidate of every sweep re-scored by a fresh
        // analysis, and every set's counters equal to its first round's.
        for (k, sweep) in sweeps {
            let mut sample = Vec::new();
            match sweep.choice {
                Some(c) => sample.push((c.n_minislots, c.cost)),
                None => out.check(false, || format!("set {k} chose no length")),
            }
            sample.extend(sweep.last);
            for (n, cost) in sample {
                let fresh = rescore(&sets[k], n);
                out.check(fresh.as_ref() == Ok(&cost), || {
                    format!("set {k} length {n}: sweep cost {cost:?}, fresh analyse {fresh:?}")
                });
            }
            let key = vec![
                sweep.evaluations,
                sweep.exact_calls,
                sweep.short_circuits,
                sweep.choice.map_or(0, |c| u64::from(c.n_minislots)),
            ];
            let same = repeats.same(k, key);
            out.check(same, || format!("set {k} counters differ between rounds"));
            out.count("candidates", sets[k].grid.len() as u64);
            out.count("evaluations", sweep.evaluations);
            out.count("exact_calls", sweep.exact_calls);
            out.count("short_circuits", sweep.short_circuits);
        }
    }

    if args.trace {
        let exact_calls = out.counter("exact_calls");
        let short_circuits = out.counter("short_circuits");
        out.layer("analysis.session.calls", call_us.len() as f64);
        out.layer("analysis.session.busy_s", call_us.iter().sum::<f64>() / 1e6);
        out.layer("analysis.session.p50_us", quantile(&call_us, 0.5));
        out.layer("analysis.session.p99_us", quantile(&call_us, 0.99));
        out.layer("analysis.dyn_msg.exact_calls", exact_calls as f64);
        out.layer("analysis.dyn_msg.short_circuits", short_circuits as f64);
        out.layer(
            "analysis.dyn_msg.dp_calls",
            (exact_calls - short_circuits) as f64,
        );
        out.layer(
            "analysis.dyn_msg.short_circuit_ratio",
            short_circuits as f64 / exact_calls.max(1) as f64,
        );
        out.layer(
            "opt.evaluator.evaluations",
            out.counter("evaluations") as f64,
        );
        out.layer("gen.generate.calls", gen_s.len() as f64);
        out.layer("gen.generate.busy_s", gen_s.iter().sum());
    }
    Ok(out)
}
