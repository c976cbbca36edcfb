//! `verify`: simulate configured systems with the component engine at a
//! fixed number of hyperperiods, compression off, in the canonical
//! order and in fuzzed orders drawn from the run's seed.
//!
//! Each system is configured by BBC, analysed and scheduled once in
//! set-up, so the timed loop is the simulator alone and no optimiser
//! runs in it.

use std::time::Instant;

use flexray_analysis::{analyse, build_schedule, Analysis, AnalysisConfig, ScheduleTable};
use flexray_gen::{generate, GeneratorConfig};
use flexray_model::{mix_words, SplitMix64, System, Time};
use flexray_opt::{bbc, OptParams};
use flexray_sim::{simulate, ExecutionOrder, SimConfig, SimReport};

use crate::common::{rounds, secs, Args, Orders, Outcome, RepeatCheck};

/// `(nodes, generator seed)` of the simulated `paper_mix` systems; BBC
/// makes each of them schedulable.
pub const SYSTEMS: [(usize, u64); 4] = [(3, 0), (3, 1), (4, 2), (4, 3)];

/// Fuzzed execution orders simulated per system beside the canonical
/// one.
pub const FUZZED_ORDERS: usize = 2;

/// Hyperperiods per simulation.
pub const REPS: i64 = 1_500;

/// Wall-clock of one round: every system simulated in every order.
const ROUND_S: f64 = 1.8;

struct Configured {
    sys: System,
    analysis: Analysis,
    table: ScheduleTable,
}

fn configure(nodes: usize, seed: u64, gen_s: &mut Vec<f64>) -> Result<Configured, String> {
    let cfg = GeneratorConfig::paper(nodes);
    let start = Instant::now();
    let g = generate(&cfg, seed).map_err(|e| format!("generate {nodes}/{seed}: {e}"))?;
    gen_s.push(secs(start));
    let params = OptParams {
        eval_threads: 1,
        ..OptParams::default()
    };
    let result = bbc(&g.platform, &g.app, cfg.phy, &params);
    if !result.is_schedulable() {
        return Err(format!(
            "system {nodes}/{seed}: BBC found no schedulable bus"
        ));
    }
    let sys = System::validated(g.platform, g.app, result.bus).map_err(|e| e.to_string())?;
    let analysis = analyse(&sys, &AnalysisConfig::default()).map_err(|e| e.to_string())?;
    // The table the simulator follows, built as `simulate_configured`
    // builds it.
    let bounds: Vec<Time> = sys.app.ids().map(|id| sys.duration_of(id)).collect();
    let table = build_schedule(&sys, &bounds).map_err(|e| e.to_string())?;
    Ok(Configured {
        sys,
        analysis,
        table,
    })
}

fn sim_config(order: ExecutionOrder, compress: bool) -> SimConfig {
    SimConfig {
        reps: REPS,
        order,
        compress,
        ..SimConfig::default()
    }
}

/// Problems of one simulated run against the analysis: violations,
/// unfinished jobs and responses above their analysed WCRT.
fn audit(c: &Configured, report: &SimReport) -> Vec<String> {
    let mut problems: Vec<String> = report.violations.clone();
    if report.completed_jobs != report.total_jobs {
        problems.push(format!(
            "{} of {} jobs completed",
            report.completed_jobs, report.total_jobs
        ));
    }
    for id in c.sys.app.ids() {
        if let Some(observed) = report.response(id) {
            let bound = c.analysis.response(id);
            if observed > bound {
                let name = &c.sys.app.activity(id).name;
                problems.push(format!("'{name}' observed {observed} > WCRT {bound}"));
            }
        }
    }
    problems
}

fn fingerprint(report: &SimReport) -> u64 {
    let words: Vec<u64> = report
        .responses
        .iter()
        .map(|r| r.map_or(u64::MAX, |t| t.as_ns() as u64))
        .collect();
    mix_words(&words)
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures (generation, BBC without a schedulable bus, analysis)
/// and simulation errors.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut rng = SplitMix64::new(args.seed);
    let orders: Vec<ExecutionOrder> = std::iter::once(ExecutionOrder::Canonical)
        .chain((0..FUZZED_ORDERS).map(|_| ExecutionOrder::Fuzzed {
            seed: rng.next_u64(),
        }))
        .collect();
    // List item `k` is system `k / orders.len()` in order `k % orders.len()`.
    let list_len = SYSTEMS.len() * orders.len();
    let mut out = Outcome::default();
    let mut item_orders = Orders::new(args.seed);
    let mut repeats = RepeatCheck::default();
    let mut gen_s = Vec::new();
    for _ in 0..rounds(args.seconds, ROUND_S) {
        let start = Instant::now();
        let systems = SYSTEMS
            .iter()
            .map(|&(nodes, seed)| configure(nodes, seed, &mut gen_s))
            .collect::<Result<Vec<_>, String>>()?;
        out.setup_s.push(secs(start));

        let mut reports = Vec::with_capacity(list_len);
        for k in item_orders.next(list_len) {
            let c = &systems[k / orders.len()];
            let start = Instant::now();
            let report = simulate(
                &c.sys,
                &c.table,
                &sim_config(orders[k % orders.len()], false),
            )
            .map_err(|e| format!("simulate item {k}: {e}"))?;
            let s = secs(start);
            out.item(k, report.total_jobs as f64, s);
            out.job(k, s * 1e3);
            reports.push((k, report));
        }

        // Checks, outside the timed loop: every run audited against the
        // analysis, every item equal to its first round, and the first
        // canonical run of each system equal to a compressed run.
        for (k, report) in &reports {
            let c = &systems[k / orders.len()];
            let problems = audit(c, report);
            out.check(problems.is_empty(), || {
                format!("item {k}: {}", problems.join("; "))
            });
            if k % orders.len() == 0 && repeats.is_new(*k) {
                let compressed = simulate(
                    &c.sys,
                    &c.table,
                    &sim_config(ExecutionOrder::Canonical, true),
                )
                .map_err(|e| format!("compressed simulate item {k}: {e}"))?;
                let equal = compressed.responses == report.responses
                    && compressed.completed_jobs == report.completed_jobs
                    && compressed.total_jobs == report.total_jobs
                    && compressed.violations == report.violations;
                out.check(equal, || {
                    format!("item {k}: compressed run differs from uncompressed")
                });
            }
            let key = vec![
                report.total_jobs as u64,
                report.completed_jobs as u64,
                fingerprint(report),
            ];
            let same = repeats.same(*k, key);
            out.check(same, || format!("item {k} differs between rounds"));
            out.count("total_jobs", report.total_jobs as u64);
            out.count("completed_jobs", report.completed_jobs as u64);
        }
    }

    if args.trace {
        let busy = out.busy_s();
        let jobs = out.counter("total_jobs") as f64;
        out.layer("sim.simulate.calls", out.all_job_ms().len() as f64);
        out.layer("sim.simulate.busy_s", busy);
        out.layer("sim.jobs", jobs);
        out.layer("sim.ns_per_job", busy * 1e9 / jobs.max(1.0));
        out.layer("gen.generate.calls", gen_s.len() as f64);
        out.layer("gen.generate.busy_s", gen_s.iter().sum());
    }
    Ok(out)
}
