//! Factorial grid sweeps over the v2 generator, with a streaming,
//! resumable JSON-lines/CSV report.
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
//! * `csv=FILE` — additionally write the CSV projection to FILE;
//! * `resume=FILE` — recover the completed points of a partial report
//!   (a killed run leaves a well-formed prefix), re-run only the rest
//!   and rewrite FILE in full; implies `out=FILE` unless `out` is
//!   given. The file's header must match the configured grid.
//!
//! A malformed argument exits 2 naming it.

use flexray_bench::args::{parse_env_or_exit, Kind, Plan};
use flexray_bench::grid::{render, run_grid_resumed, GridPoint};
use flexray_bench::report::{
    self, from_jsonl, point_to_line, to_csv, GridReportHeader, ReportWriter,
};

fn fail(msg: &str) -> ! {
    report::fail(Kind::Grid, msg)
}

fn main() {
    let args = parse_env_or_exit(Kind::Grid);
    let Plan::Grid(cfg) = &args.plan else {
        unreachable!("grid arguments describe a grid")
    };
    let (mut out_path, csv_path, resume_path) = (args.out, args.csv, args.resume);
    if let Err(e) = cfg.validate() {
        fail(&e.to_string());
    }
    let header = GridReportHeader::of(cfg);

    // Recover the completed points of a partial report.
    let mut done: Vec<GridPoint> = Vec::new();
    if let Some(path) = &resume_path {
        let content = match std::fs::read_to_string(path) {
            Ok(content) => content,
            Err(e) => fail(&format!("cannot read resume report '{path}': {e}")),
        };
        match from_jsonl(&content) {
            Ok((prev_header, points)) => {
                if prev_header != header {
                    fail(&format!(
                        "resume report '{path}' was written by a different grid \
                         configuration; refusing to mix reports"
                    ));
                }
                done = points;
            }
            Err(e) => fail(&format!("resume report '{path}': {e}")),
        }
        if out_path.is_none() {
            out_path = Some(path.clone());
        }
    }

    eprintln!(
        "Grid — {} axes, {} points, {} application(s) per point, algos {:?}, \
         {} worker thread(s), seed0 {}{}",
        cfg.axes.len(),
        cfg.total_points(),
        cfg.apps_per_point,
        cfg.algos.iter().map(|a| a.name()).collect::<Vec<_>>(),
        flexray_util::resolve_threads(cfg.threads),
        cfg.seed0,
        if done.is_empty() {
            String::new()
        } else {
            format!(" ({} point(s) recovered)", done.len())
        },
    );

    // Open the streaming JSONL sink: a file, or stdout. When the
    // output rewrites the resume report in place, stream to a `.tmp`
    // sibling and swap it in only on success — `File::create` would
    // truncate the recovered report before the first point lands, so a
    // kill in that window would destroy all completed work.
    // compare canonicalized paths, not spellings: `out=./g.jsonl
    // resume=g.jsonl` must still get the protection (canonicalize
    // fails only when the out file does not exist yet — then it cannot
    // be the report we just read)
    let rewrites_resume_source = match (&out_path, &resume_path) {
        (Some(out), Some(resume)) => {
            out == resume
                || matches!(
                    (std::fs::canonicalize(out), std::fs::canonicalize(resume)),
                    (Ok(a), Ok(b)) if a == b
                )
        }
        _ => false,
    };
    let stream_path = out_path.as_ref().map(|path| {
        if rewrites_resume_source {
            format!("{path}.tmp")
        } else {
            path.clone()
        }
    });
    let mut report = ReportWriter::create(Kind::Grid, stream_path.as_deref());
    report.line(args.plan.header_line());
    let result = run_grid_resumed(cfg, done, |point| report.line(point_to_line(point)));
    let points = match result {
        Ok(points) => points,
        Err(e) => fail(&format!("run failed: {e}")),
    };
    drop(report);
    if rewrites_resume_source {
        let (tmp, path) = (
            stream_path.as_ref().expect("streamed to a file"),
            out_path.as_ref().expect("rewrites a file"),
        );
        if let Err(e) = std::fs::rename(tmp, path) {
            fail(&format!("cannot replace report '{path}' with '{tmp}': {e}"));
        }
    }

    if let Some(path) = &csv_path {
        if let Err(e) = std::fs::write(path, to_csv(&header, &points)) {
            fail(&format!("cannot write CSV '{path}': {e}"));
        }
    }

    // Human-readable summary on stderr when the JSONL went to a file,
    // on stdout otherwise left to the JSONL alone.
    if out_path.is_some() {
        let reference = cfg.reference().map(|i| cfg.algos[i].name());
        eprintln!("{}", render(reference, &points));
    }
}
