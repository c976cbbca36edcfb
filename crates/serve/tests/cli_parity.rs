//! The daemon and the harness binaries give the same output: a grid job
//! and a fuzz job drained by `flexray-serve` at every `jobs`/`threads`
//! setting write reports byte-identical to the JSON-lines reports the
//! `grid` and `fuzz` binaries stream for the same arguments, once the
//! binaries' wall-clock column is zeroed (the daemon journals the
//! deterministic projection).

use std::fs;
use std::path::PathBuf;

use flexray_bench::args::{parse, Kind, Plan};
use flexray_bench::fuzz::run_fuzz;
use flexray_bench::grid::run_grid;
use flexray_bench::report::{point_to_line, GridReportHeader};
use flexray_serve::{run_serve, ServeConfig};

const GRID_ARGS: [&str; 4] = ["nodes=2,3", "apps=2", "mode=smoke", "algos=bbc,obccf"];
const FUZZ_ARGS: [&str; 5] = ["nodes=2,3", "apps=1", "orders=1", "reps=2", "mode=smoke"];

fn job_line(id: &str, kind: &str, args: &[&str]) -> String {
    let args: Vec<String> = args.iter().map(|a| format!("\"{a}\"")).collect();
    format!(
        r#"{{"schema":"flexray-serve-job","version":1,"id":"{id}","kind":"{kind}","args":[{}]}}"#,
        args.join(",")
    )
}

/// The `grid` binary's report for `GRID_ARGS`, `avg_time_s` zeroed.
fn cli_grid_report() -> String {
    let Plan::Grid(cfg) = parse(Kind::Grid, &GRID_ARGS).expect("grid args").plan else {
        panic!("grid arguments describe a grid")
    };
    let mut out = GridReportHeader::of(&cfg).to_line().expect("header") + "\n";
    for mut point in run_grid(&cfg).expect("grid runs") {
        for (_, stats) in &mut point.algos {
            stats.avg_time_s = 0.0;
        }
        out += &(point_to_line(&point).expect("point") + "\n");
    }
    out
}

/// The `fuzz` binary's report for `FUZZ_ARGS` (it has no time field).
fn cli_fuzz_report() -> String {
    let Plan::Fuzz(cfg) = parse(Kind::Fuzz, &FUZZ_ARGS).expect("fuzz args").plan else {
        panic!("fuzz arguments describe a fuzz campaign")
    };
    let mut out = cfg.header_line().expect("header") + "\n";
    for point in run_fuzz(&cfg, |_| {}).expect("campaign runs") {
        out += &(point.to_line().expect("point") + "\n");
    }
    out
}

#[test]
fn daemon_reports_equal_the_harness_reports_for_any_jobs_and_threads() {
    let grid = cli_grid_report();
    let fuzz = cli_fuzz_report();
    let queue = format!(
        "{}\n{}\n",
        job_line("g1", "grid", &GRID_ARGS),
        job_line("z1", "fuzz", &FUZZ_ARGS)
    );
    for jobs in [1usize, 2] {
        for threads in [1usize, 2] {
            let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
                .join(format!("cli-parity-j{jobs}-t{threads}"));
            if dir.exists() {
                fs::remove_dir_all(&dir).expect("clear stale workdir");
            }
            fs::create_dir_all(&dir).expect("create workdir");
            fs::write(dir.join("jobs.jsonl"), &queue).expect("write queue");
            let outcome = run_serve(&ServeConfig {
                queue: dir.join("jobs.jsonl"),
                journal: dir.join("serve.journal"),
                reports: dir.join("out"),
                threads,
                jobs,
            })
            .expect("drain");
            assert!(outcome.rejected.is_empty(), "{:?}", outcome.rejected);
            let report = |id: &str| {
                fs::read_to_string(dir.join("out").join(format!("{id}.jsonl"))).expect("report")
            };
            assert_eq!(
                report("g1"),
                grid,
                "grid report, jobs={jobs} threads={threads}"
            );
            assert_eq!(
                report("z1"),
                fuzz,
                "fuzz report, jobs={jobs} threads={threads}"
            );
        }
    }
}
