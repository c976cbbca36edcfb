//! Fixed-work benchmark of the FlexRay bus-access optimisation stack.
//!
//! ```text
//! perfbench --workload exact_dyn|design|verify|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run does a fixed amount of work, set by `--seconds` alone: a
//! fixed number of rounds, each of which sets up afresh and runs every
//! item of the workload's fixed item list once. `--seed` orders the
//! items of every round (and draws `verify`'s fuzzed execution orders).
//! Each item is timed by its fastest round (see `common::Estimate`).
//! The run checks every output against an independent path, counts
//! failed checks, and prints as its last stdout line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. An untraced run
//! reports the end-to-end metrics; a traced run (`--trace 1`) reports the
//! per-layer metrics, measured around the benchmark's own calls into each
//! layer. The line before it holds the run's deterministic counters,
//! identical for every run of the same code and arguments.
//!
//! Exit codes: `0` — result printed (even with failed checks); `1` —
//! the workload could not run; `2` — usage error.

mod common;
mod design;
mod exact_dyn;
mod serve;
mod verify;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use common::{fastest, median, peak_rss_mb, Args, Outcome};

const USAGE: &str = "usage: perfbench --workload exact_dyn|design|verify|serve \
                     --seed N --seconds S --trace 0|1";

/// End-to-end metrics of an untraced run: name and unit.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("job_p50_ms", "ms"),
];

/// Per-layer metrics of a traced run: name and unit. Every workload
/// reports all of them; a layer the workload does not call reads 0.
const PER_LAYER: [(&str, &str); 40] = [
    ("analysis.session.calls", "count"),
    ("analysis.session.busy_s", "s"),
    ("analysis.session.p50_us", "us"),
    ("analysis.session.p99_us", "us"),
    ("analysis.dyn_msg.exact_calls", "count"),
    ("analysis.dyn_msg.short_circuits", "count"),
    ("analysis.dyn_msg.dp_calls", "count"),
    ("analysis.dyn_msg.short_circuit_ratio", "ratio"),
    ("opt.bbc.busy_s", "s"),
    ("opt.bbc.evaluations", "count"),
    ("opt.bbc.schedulable", "ratio"),
    ("opt.obccf.busy_s", "s"),
    ("opt.obccf.evaluations", "count"),
    ("opt.obccf.schedulable", "ratio"),
    ("opt.obcee.busy_s", "s"),
    ("opt.obcee.evaluations", "count"),
    ("opt.obcee.schedulable", "ratio"),
    ("opt.sa.busy_s", "s"),
    ("opt.sa.evaluations", "count"),
    ("opt.sa.schedulable", "ratio"),
    ("opt.evaluator.evaluations", "count"),
    ("util.pool.sa_t2_over_t1", "ratio"),
    ("gen.generate.calls", "count"),
    ("gen.generate.busy_s", "s"),
    ("sim.simulate.calls", "count"),
    ("sim.simulate.busy_s", "s"),
    ("sim.jobs", "count"),
    ("sim.ns_per_job", "ns"),
    ("serve.submit.p50_ms", "ms"),
    ("serve.submit.p99_ms", "ms"),
    ("serve.drain.p50_ms", "ms"),
    ("serve.job.p90_ms", "ms"),
    ("serve.journal.bytes", "B"),
    ("serve.journal.records", "count"),
    ("serve.read_journal.busy_s", "s"),
    ("serve.points.computed", "count"),
    ("serve.evaluations", "count"),
    ("serve.replay.computed", "count"),
    ("serve.replay_s", "s"),
    ("trace.work_per_s", "1/s"),
];

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value after '{flag}'"))?;
        let bad = || format!("invalid value '{value}' for '{flag}'");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown option '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = match args.workload.as_str() {
        "exact_dyn" => exact_dyn::run(args)?,
        "design" => design::run(args)?,
        "verify" => verify::run(args)?,
        "serve" => serve::run(args)?,
        other => return Err(format!("unknown workload '{other}'")),
    };
    if out.peak_rss_mb == 0.0 {
        out.peak_rss_mb = peak_rss_mb(std::process::id())?;
    }
    for (key, runs) in &out.items {
        let slowest = runs.secs.iter().copied().fold(0.0, f64::max);
        eprintln!(
            "perfbench: item {key}: {} rounds, fastest {:.4} s, median {:.4} s, slowest {slowest:.4} s",
            runs.secs.len(),
            fastest(&runs.secs),
            median(&runs.secs)
        );
    }
    let rate = out.work_per_s();
    if !(rate.is_finite() && rate > 0.0) {
        return Err(format!("the run measured no work (rate {rate})"));
    }
    Ok(out)
}

/// `{"name": {"value": v, "unit": u}, …}` over `metrics`.
fn metrics_json(metrics: &[(&str, &str, f64)]) -> Result<String, String> {
    let mut json = String::from("{");
    for (k, (name, unit, value)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        let sep = if k == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push('}');
    Ok(json)
}

fn counters_json(counters: &BTreeMap<String, u64>) -> String {
    let fields: Vec<String> = counters
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{\"counters\": {{{}}}}}", fields.join(", "))
}

fn result_line(args: &Args, out: &Outcome) -> Result<String, String> {
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "trace.work_per_s" => out.work_per_s(),
                    _ => out.layers.get(name).copied().unwrap_or(0.0),
                };
                (name, unit, value)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "setup_s" => fastest(&out.setup_s),
                    "work_per_s" => out.work_per_s(),
                    "peak_rss_mb" => out.peak_rss_mb,
                    _ => out.job_p50_ms(),
                };
                (name, unit, value)
            })
            .collect()
    };
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics_json(&metrics)?
    ))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let line = run(&args).and_then(|out| {
        let line = result_line(&args, &out)?;
        Ok((counters_json(&out.counters), line))
    });
    match line {
        Ok((counters, result)) => {
            println!("{counters}");
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {}: {msg}", args.workload);
            ExitCode::from(1)
        }
    }
}
