//! `design`: the designer's end-to-end task from the paper's
//! evaluation. Each generated `paper_mix` application goes through BBC,
//! OBC with curve fitting (OBCCF), OBC with the exhaustive DYN search
//! (OBCEE) and simulated annealing, under the default Greedy analysis on
//! one evaluation thread.
//!
//! The static-layout loops rebuild the list schedule per candidate and
//! never reach the Exact packing DP.

use std::time::Instant;

use flexray_analysis::{analyse, AnalysisConfig, Cost};
use flexray_gen::{generate, Generated, GeneratorConfig};
use flexray_model::System;
use flexray_opt::{bbc, obc, simulated_annealing, DynSearch, OptParams, OptResult, SaParams};

use crate::common::{rounds, secs, Args, Orders, Outcome, RepeatCheck};

/// `(nodes, generator seed)` of the applications: three quick sets that
/// every optimiser makes schedulable, and a hard one where OBCCF and
/// OBCEE exhaust ~2.7k and ~28k evaluations without a schedulable result.
pub const APPS: [(usize, u64); 4] = [(2, 0), (3, 1), (4, 3), (2, 7)];

/// Wall-clock of one round: every application of [`APPS`] through all
/// four optimisers.
const ROUND_S: f64 = 3.0;

/// The optimisers in the order each application meets them.
pub const OPTIMISERS: [&str; 4] = ["bbc", "obccf", "obcee", "sa"];

fn optimise(name: &str, g: &Generated, params: &OptParams, sa: &SaParams) -> OptResult {
    let phy = flexray_model::PhyParams::bmw_like();
    match name {
        "bbc" => bbc(&g.platform, &g.app, phy, params),
        "obccf" => obc(&g.platform, &g.app, phy, params, DynSearch::CurveFit),
        "obcee" => obc(&g.platform, &g.app, phy, params, DynSearch::Exhaustive),
        _ => simulated_annealing(&g.platform, &g.app, phy, params, sa),
    }
}

/// A fresh `analyse` of the returned bus; an invalid bus must come with
/// the infeasible cost.
fn rescore(g: &Generated, result: &OptResult) -> Result<Cost, String> {
    match System::validated(g.platform.clone(), g.app.clone(), result.bus.clone()) {
        Ok(sys) => analyse(&sys, &AnalysisConfig::default())
            .map(|a| a.cost)
            .map_err(|e| e.to_string()),
        Err(_) => Ok(Cost::infeasible()),
    }
}

/// SA with a 4-move neighbourhood at 1 and at 2 evaluation threads over
/// every application: `(busy_s at 1, busy_s at 2, identical results)`.
fn sa_thread_scaling(apps: &[Generated], params: &OptParams) -> (f64, f64, bool) {
    let sa = SaParams {
        neighbourhood: 4,
        ..SaParams::default()
    };
    let (mut t1, mut t2, mut same) = (0.0, 0.0, true);
    for g in apps {
        let run = |threads: usize| {
            let p = OptParams {
                eval_threads: threads,
                ..params.clone()
            };
            let start = Instant::now();
            let r = optimise("sa", g, &p, &sa);
            (secs(start), r)
        };
        let (s1, r1) = run(1);
        let (s2, r2) = run(2);
        t1 += s1;
        t2 += s2;
        same &= r1.cost == r2.cost && r1.bus == r2.bus && r1.evaluations == r2.evaluations;
    }
    (t1, t2, same)
}

/// Runs the workload.
///
/// # Errors
///
/// Generation failures in set-up.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let params = OptParams {
        eval_threads: 1,
        ..OptParams::default()
    };
    let sa = SaParams::default();
    let mut out = Outcome::default();
    let mut orders = Orders::new(args.seed);
    let mut repeats = RepeatCheck::default();
    let mut gen_s = Vec::new();
    let mut busy = [0.0f64; 4];
    let mut schedulable = [0u64; 4];
    let mut apps = Vec::new();
    let n_rounds = rounds(args.seconds, ROUND_S);
    for _ in 0..n_rounds {
        let start = Instant::now();
        apps = APPS
            .iter()
            .map(|&(nodes, seed)| {
                let start = Instant::now();
                let g = generate(&GeneratorConfig::paper(nodes), seed)
                    .map_err(|e| format!("generate {nodes}/{seed}: {e}"));
                gen_s.push(secs(start));
                g
            })
            .collect::<Result<Vec<_>, String>>()?;
        out.setup_s.push(secs(start));

        let mut results = Vec::with_capacity(APPS.len());
        for app in orders.next(APPS.len()) {
            let mut per_opt = Vec::with_capacity(OPTIMISERS.len());
            let mut app_s = 0.0;
            for (k, name) in OPTIMISERS.iter().enumerate() {
                let start = Instant::now();
                per_opt.push(optimise(name, &apps[app], &params, &sa));
                let s = secs(start);
                busy[k] += s;
                app_s += s;
                out.job(app * OPTIMISERS.len() + k, s * 1e3);
            }
            out.item(app, 1.0, app_s);
            results.push((app, per_opt));
        }

        // Checks, outside the timed loop: every returned bus re-scored by
        // a fresh analysis, and every application's counters and costs
        // equal to its first round's.
        for (app, per_opt) in &results {
            let mut key = Vec::new();
            for (k, (name, r)) in OPTIMISERS.iter().zip(per_opt).enumerate() {
                let fresh = rescore(&apps[*app], r);
                out.check(fresh.as_ref() == Ok(&r.cost), || {
                    format!(
                        "app {app} {name}: reported cost {:?}, fresh analyse {fresh:?}",
                        r.cost
                    )
                });
                out.count(&format!("{name}.evaluations"), r.evaluations as u64);
                let ok = u64::from(r.is_schedulable());
                out.count(&format!("{name}.schedulable"), ok);
                schedulable[k] += ok;
                key.extend([
                    r.evaluations as u64,
                    ok,
                    r.cost.f1.to_bits(),
                    r.cost.f2.to_bits(),
                ]);
            }
            let same = repeats.same(*app, key);
            out.check(same, || format!("app {app} results differ between rounds"));
        }
    }

    if args.trace {
        let attempted = (n_rounds * APPS.len()) as f64;
        let layer_names = [
            (
                "opt.bbc.busy_s",
                "opt.bbc.evaluations",
                "opt.bbc.schedulable",
            ),
            (
                "opt.obccf.busy_s",
                "opt.obccf.evaluations",
                "opt.obccf.schedulable",
            ),
            (
                "opt.obcee.busy_s",
                "opt.obcee.evaluations",
                "opt.obcee.schedulable",
            ),
            ("opt.sa.busy_s", "opt.sa.evaluations", "opt.sa.schedulable"),
        ];
        let mut total_evals = 0;
        for (k, (busy_name, evals_name, sched_name)) in layer_names.into_iter().enumerate() {
            let evals = out.counter(&format!("{}.evaluations", OPTIMISERS[k]));
            total_evals += evals;
            out.layer(busy_name, busy[k]);
            out.layer(evals_name, evals as f64);
            out.layer(sched_name, schedulable[k] as f64 / attempted);
        }
        out.layer("opt.evaluator.evaluations", total_evals as f64);
        out.layer("gen.generate.calls", gen_s.len() as f64);
        out.layer("gen.generate.busy_s", gen_s.iter().sum());
        let (t1, t2, same) = sa_thread_scaling(&apps, &params);
        out.check(same, || {
            "SA at 2 evaluation threads differs from 1 thread".to_owned()
        });
        out.layer("util.pool.sa_t2_over_t1", t2 / t1);
    }
    Ok(out)
}
