//! Golden-file schema tests for the `flexray-serve-job` queue format
//! and the `flexray-serve` journal format, mirroring the
//! `flexray-grid` golden suite: run with `GOLDEN_REGEN=1` to
//! regenerate after an intentional schema change (and bump the
//! matching `*_SCHEMA_VERSION`).

use std::fs;
use std::path::PathBuf;

use flexray_serve::{parse_job, run_serve, JobStatus, Record, ServeConfig};

/// Canonical spec lines covering every job kind and the arg grammar.
const SPECS: [&str; 4] = [
    r#"{"schema":"flexray-serve-job","version":1,"id":"g1","kind":"grid","args":["nodes=2,3","busutil=0.2","apps=2","mode=smoke","algos=bbc,obccf","seed0=7"]}"#,
    r#"{"schema":"flexray-serve-job","version":1,"id":"s1","kind":"sweep","args":["depth=3,5","mode=smoke","eval_threads=2"]}"#,
    r#"{"schema":"flexray-serve-job","version":1,"id":"f1","kind":"fig9","args":["nodes=2,3","apps=1","mode=smoke"]}"#,
    r#"{"schema":"flexray-serve-job","version":1,"id":"z1","kind":"fuzz","args":["nodes=2","apps=1","orders=1,2","reps=2","compress=off","mode=smoke"]}"#,
];

/// The tiny deterministic workload whose journal is the golden file.
const QUEUE: &str = concat!(
    r#"{"schema":"flexray-serve-job","version":1,"id":"g1","kind":"grid","args":["nodes=2","apps=1","mode=smoke","algos=bbc"]}"#,
    "\n",
    "garbage line\n",
    r#"{"schema":"flexray-serve-job","version":1,"id":"z1","kind":"fuzz","args":["nodes=2","apps=1","orders=1","reps=2","mode=smoke"]}"#,
    "\n",
);

fn workdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear stale workdir");
    }
    fs::create_dir_all(&dir).expect("create workdir");
    dir
}

#[test]
fn job_spec_lines_match_the_golden_file() {
    let canonical: String = SPECS
        .iter()
        .map(|line| {
            let spec = parse_job(line).expect("golden spec parses");
            assert_eq!(
                &spec.to_line(),
                line,
                "golden specs are written in canonical form"
            );
            spec.to_line() + "\n"
        })
        .collect();
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
        fs::create_dir_all(dir).expect("golden dir");
        fs::write(format!("{dir}/serve_jobs.jsonl"), canonical).expect("write jobs golden");
        return;
    }
    assert_eq!(
        canonical,
        include_str!("golden/serve_jobs.jsonl"),
        "job-spec schema drifted: bump JOB_SCHEMA_VERSION and regenerate the golden file"
    );
}

#[test]
fn journal_of_the_reference_workload_matches_the_golden_file() {
    let dir = workdir("schema_journal");
    fs::write(dir.join("jobs.jsonl"), QUEUE).expect("write queue");
    let cfg = ServeConfig {
        queue: dir.join("jobs.jsonl"),
        journal: dir.join("serve.journal"),
        reports: dir.join("out"),
        threads: 1,
        jobs: 1,
    };
    run_serve(&cfg).expect("drain succeeds");
    let journal = fs::read_to_string(dir.join("serve.journal")).expect("read journal");
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
        fs::create_dir_all(dir).expect("golden dir");
        fs::write(format!("{dir}/serve_journal.jsonl"), journal).expect("write journal golden");
        return;
    }
    assert_eq!(
        journal,
        include_str!("golden/serve_journal.jsonl"),
        "journal schema drifted: bump SERVE_SCHEMA_VERSION and regenerate the golden file"
    );
}

#[test]
fn malformed_queue_lines_are_journaled_and_skipped_not_fatal() {
    let dir = workdir("schema_reject");
    // A bad line *between* two good jobs: the daemon must reject it
    // with an error naming the token, journal the rejection, and still
    // run both neighbours.
    let queue = concat!(
        r#"{"schema":"flexray-serve-job","version":1,"id":"a","kind":"grid","args":["nodes=2","apps=1","mode=smoke","algos=bbc"]}"#,
        "\n",
        r#"{"schema":"flexray-serve-job","version":1,"id":"b","kind":"grid","args":["nodes=2","apps=1","mode=smoke","threads=4"]}"#,
        "\n",
        r#"{"schema":"flexray-serve-job","version":1,"id":"c","kind":"grid","args":["nodes=2","apps=1","mode=smoke","algos=bbc"]}"#,
        "\n",
    );
    fs::write(dir.join("jobs.jsonl"), queue).expect("write queue");
    let cfg = ServeConfig {
        queue: dir.join("jobs.jsonl"),
        journal: dir.join("serve.journal"),
        reports: dir.join("out"),
        threads: 1,
        jobs: 1,
    };
    let outcome = run_serve(&cfg).expect("bad lines must not kill the drain");
    assert_eq!(outcome.rejected.len(), 1);
    let (line, error) = &outcome.rejected[0];
    assert_eq!(*line, 2);
    assert!(
        error.contains("'threads'"),
        "rejection must name the token: {error}"
    );
    assert_eq!(outcome.jobs.len(), 2, "both good neighbours ran");
    assert!(outcome
        .jobs
        .iter()
        .all(|j| matches!(j.status, Some(JobStatus::Done { .. }))));

    let journal = fs::read_to_string(dir.join("serve.journal")).expect("read journal");
    let rejected = journal
        .lines()
        .filter_map(|l| Record::parse(l).ok())
        .filter(|r| matches!(r, Record::Rejected { line: 2, .. }))
        .count();
    assert_eq!(rejected, 1, "the rejection must be journaled");
}

#[test]
fn a_poison_node_count_is_rejected_and_the_next_job_runs() {
    let dir = workdir("schema_poison_nodes");
    // `bad` used to panic the daemon under the scheduler, and again on
    // every restart, so `good` never ran.
    let queue = concat!(
        r#"{"schema":"flexray-serve-job","version":1,"id":"bad","kind":"grid","args":["nodes=18446744073709551615","apps=1","mode=smoke","algos=bbc"]}"#,
        "\n",
        r#"{"schema":"flexray-serve-job","version":1,"id":"good","kind":"grid","args":["nodes=2","apps=1","mode=smoke","algos=bbc"]}"#,
        "\n",
    );
    fs::write(dir.join("jobs.jsonl"), queue).expect("write queue");
    let cfg = ServeConfig {
        queue: dir.join("jobs.jsonl"),
        journal: dir.join("serve.journal"),
        reports: dir.join("out"),
        threads: 1,
        jobs: 1,
    };
    let outcome = run_serve(&cfg).expect("the queue drains");
    assert_eq!(outcome.rejected.len(), 1);
    let (line, error) = &outcome.rejected[0];
    assert_eq!(*line, 1);
    assert!(
        error.contains("'nodes'"),
        "rejection must name the key: {error}"
    );
    assert_eq!(outcome.jobs.len(), 1);
    assert!(matches!(
        outcome.jobs[0].status,
        Some(JobStatus::Done { .. })
    ));

    let journal = fs::read_to_string(dir.join("serve.journal")).expect("read journal");
    let rejected: Vec<String> = journal
        .lines()
        .filter_map(|l| match Record::parse(l) {
            Ok(Record::Rejected { line: 1, error, .. }) => Some(error),
            _ => None,
        })
        .collect();
    assert_eq!(rejected.len(), 1, "the rejection must be journaled");
    assert!(rejected[0].contains("'nodes'"), "{}", rejected[0]);
}
