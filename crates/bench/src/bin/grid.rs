//! Factorial grid sweeps over the scenario generator, with a streaming
//! JSON-lines/CSV report.
//!
//! Usage: `grid <axis>=<v1,v2,...> [<axis>=...] [key=value options]`
//!
//! Axes (any non-empty subset, each at most once; the grid is their
//! cartesian product, first axis slowest):
//!
//! * `nodes=2,5,10` — node count;
//! * `depth=4,8` — graph depth (chain-shaped DAGs);
//! * `gateway=0.0,0.5` — gateway-relayed traffic fraction;
//! * `busutil=0.2,0.6` — bus utilisation target;
//! * `clusters=1,2,3` — FlexRay cluster count (multi-cluster points
//!   home the last node as the gateway unless the base config names
//!   gateways).
//!
//! Instead of axes, `workload=FILE` imports a hand-written workgraph
//! (the JSONL interchange format of `flexray-bench::workload`) and
//! runs it as a single fixed point — the generator axes do not apply.
//!
//! Options:
//!
//! * `apps=N` — applications (seeds) per grid point (default 3);
//! * `mode=fast|full|smoke` — search-parameter scale (default `full`);
//! * `threads=N` — worker threads (`0` = all cores, `1` = serial; the
//!   deterministic output is identical either way);
//! * `eval_threads=N` — warm analysis sessions of the in-run parallel
//!   `Evaluator` per worker (`0` = all cores, default `1` = serial;
//!   bit-identical results for any value);
//! * `seed0=N` — base seed (application `i` of point `p` uses
//!   `seed0 + 1000·p + i`);
//! * `algos=bbc,obccf,obcee,sa` — algorithm subset (default all four;
//!   unknown or duplicate names are rejected);
//! * `out=FILE` — stream the JSON-lines report to FILE (default:
//!   stdout);
//! * `csv=FILE` — additionally write the CSV projection to FILE.
//!
//! A malformed argument exits 2 naming it. A grid that must survive a
//! kill runs as a `flexray-serve` job: its journal replays the
//! finished points and the report comes out byte for byte the same.

use flexray_bench::args::{parse_env_or_exit, Kind, Plan};
use flexray_bench::grid::{render, run_grid_streamed};
use flexray_bench::report::{self, point_to_line, to_csv, GridReportHeader, ReportWriter};

fn fail(msg: &str) -> ! {
    report::fail(Kind::Grid, msg)
}

fn main() {
    let args = parse_env_or_exit(Kind::Grid);
    let Plan::Grid(cfg) = &args.plan else {
        unreachable!("grid arguments describe a grid")
    };
    if let Err(e) = cfg.validate() {
        fail(&e.to_string());
    }

    eprintln!(
        "Grid — {} axes, {} points, {} application(s) per point, algos {:?}, \
         {} worker thread(s), seed0 {}",
        cfg.axes.len(),
        cfg.total_points(),
        cfg.apps_per_point,
        cfg.algos.iter().map(|a| a.name()).collect::<Vec<_>>(),
        flexray_util::resolve_threads(cfg.threads),
        cfg.seed0,
    );

    let mut report = ReportWriter::create(Kind::Grid, args.out.as_deref());
    report.line(args.plan.header_line());
    let points = match run_grid_streamed(cfg, |point| report.line(point_to_line(point))) {
        Ok(points) => points,
        Err(e) => fail(&format!("run failed: {e}")),
    };
    drop(report);

    if let Some(path) = &args.csv {
        if let Err(e) = std::fs::write(path, to_csv(&GridReportHeader::of(cfg), &points)) {
            fail(&format!("cannot write CSV '{path}': {e}"));
        }
    }

    // Human-readable summary on stderr when the JSONL went to a file,
    // on stdout otherwise left to the JSONL alone.
    if args.out.is_some() {
        let reference = cfg.reference().map(|i| cfg.algos[i].name());
        eprintln!("{}", render(reference, &points));
    }
}
