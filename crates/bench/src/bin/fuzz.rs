//! Grid-driven execution-order fuzz campaign for the simulator.
//!
//! Usage: `fuzz <axis>=<v1,v2,...> [<axis>=...] [key=value options]`
//!
//! Axes (any non-empty subset, each at most once; the grid is their
//! cartesian product, first axis slowest):
//!
//! * `nodes=2,5,10` — node count;
//! * `depth=4,8` — graph depth (chain-shaped DAGs);
//! * `gateway=0.0,0.5` — gateway-relayed traffic fraction;
//! * `busutil=0.2,0.6` — bus utilisation target.
//!
//! Options:
//!
//! * `apps=N` — applications (seeds) per grid point (default 2);
//! * `orders=s1,s2,...` — execution-order seeds fuzzed per schedulable
//!   application, on top of the canonical baseline (default `1,2,3,4`);
//! * `reps=N` — hyperperiods per simulation run (default 4);
//! * `compress=on|off` — hyperperiod compression (default `on`);
//! * `mode=fast|full|smoke` — optimiser search scale (default `full`);
//! * `threads=N` — worker threads (`0` = all cores, `1` = serial; the
//!   deterministic output is identical either way);
//! * `eval_threads=N` — warm analysis sessions of the in-run parallel
//!   `Evaluator` per worker (`0` = all cores, default `1` = serial;
//!   bit-identical results for any value);
//! * `seed0=N` — base seed (application `i` of point `p` uses
//!   `seed0 + 1000·p + i`);
//! * `out=FILE` — stream the JSON-lines report to FILE (default:
//!   stdout).
//!
//! A malformed argument exits 2 naming it. Exits 1 if any divergence
//! is found: a precedence violation, an observed response above its
//! analytic WCRT, or a deadline miss, under any execution order.

use flexray_bench::args::{parse_env_or_exit, Kind, Plan};
use flexray_bench::fuzz::{render, run_fuzz};
use flexray_bench::report::{fail, ReportWriter};

fn main() {
    let args = parse_env_or_exit(Kind::Fuzz);
    let Plan::Fuzz(cfg) = &args.plan else {
        unreachable!("fuzz arguments describe a fuzz campaign")
    };
    let out_path = args.out;
    if let Err(e) = cfg.validate() {
        fail(Kind::Fuzz, &e.to_string());
    }

    eprintln!(
        "Fuzz — {} axes, {} points, {} application(s) per point, \
         {} order seed(s) + canonical, {} hyperperiod(s), compression {}, seed0 {}",
        cfg.grid.axes.len(),
        cfg.grid.total_points(),
        cfg.grid.apps_per_point,
        cfg.order_seeds.len(),
        cfg.reps,
        if cfg.compress { "on" } else { "off" },
        cfg.grid.seed0,
    );

    let mut report = ReportWriter::create(Kind::Fuzz, out_path.as_deref());
    report.line(args.plan.header_line());
    let result = run_fuzz(cfg, |point| report.line(point.to_line()));
    let points = match result {
        Ok(points) => points,
        Err(e) => fail(Kind::Fuzz, &format!("run failed: {e}")),
    };
    drop(report);

    if out_path.is_some() {
        eprintln!("{}", render(&points));
    }

    let divergences: usize = points.iter().map(|p| p.divergences.len()).sum();
    if divergences > 0 {
        for p in &points {
            for d in &p.divergences {
                eprintln!("fuzz: DIVERGENCE: {d}");
            }
        }
        fail(Kind::Fuzz, &format!("{divergences} divergence(s) found"));
    }
    let runs: usize = points.iter().map(|p| p.runs).sum();
    eprintln!("fuzz: {runs} simulation run(s), no divergences");
}
