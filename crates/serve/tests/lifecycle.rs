//! Daemon lifecycle suite: usage errors exit 2 naming the value,
//! journal-sink infrastructure errors exit 1 naming the journal path,
//! the stop file halts a drain at a job-unit boundary with a clean
//! resumable journal, and cancellation fails the job deterministically.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

mod common;

use common::Reaped;
use flexray_serve::{run_serve_with, JobStatus, ServeConfig, ServeControl};

const QUEUE: &str = concat!(
    "# lifecycle workload\n",
    r#"{"schema":"flexray-serve-job","version":1,"id":"g1","kind":"grid","args":["nodes=2,3","apps=1","mode=smoke","algos=bbc,obccf"]}"#,
    "\n",
    r#"{"schema":"flexray-serve-job","version":1,"id":"z1","kind":"fuzz","args":["nodes=2,3","apps=1","orders=1","reps=2","mode=smoke"]}"#,
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

fn serve_cmd(dir: &Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_flexray-serve"));
    cmd.arg(format!("queue={}", dir.join("jobs.jsonl").display()))
        .arg(format!("journal={}", dir.join("serve.journal").display()))
        .arg(format!("reports={}", dir.join("out").display()))
        .arg("threads=1");
    for arg in extra {
        cmd.arg(arg);
    }
    cmd
}

fn run(dir: &Path, extra: &[&str]) -> Output {
    serve_cmd(dir, extra).output().expect("spawn flexray-serve")
}

/// Journal content with `{"rec":"stopped"}` lines removed — the
/// resumable projection a stopped run must share with the reference.
fn without_stopped(journal: &[u8]) -> String {
    String::from_utf8_lossy(journal)
        .lines()
        .filter(|l| !l.starts_with(r#"{"rec":"stopped""#))
        .fold(String::new(), |mut acc, l| {
            acc.push_str(l);
            acc.push('\n');
            acc
        })
}

#[test]
fn usage_errors_exit_2_naming_the_offending_value() {
    let dir = workdir("lifecycle_usage");
    fs::write(dir.join("jobs.jsonl"), QUEUE).expect("write queue");
    for (arg, needle) in [("poll=0", "poll interval"), ("jobs=0", "job concurrency")] {
        let output = run(&dir, &[arg]);
        assert_eq!(output.status.code(), Some(2), "{arg} must be a usage error");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(needle) && stderr.contains("'0'"),
            "{arg}: error must name the option and the value: {stderr}"
        );
        assert!(
            !dir.join("serve.journal").exists(),
            "{arg}: a usage error must not touch the journal"
        );
    }
}

#[test]
fn an_unwritable_journal_path_exits_1_naming_the_path() {
    let dir = workdir("lifecycle_journal_err");
    fs::write(dir.join("jobs.jsonl"), QUEUE).expect("write queue");
    // Point the journal at a directory: every open/read of it fails,
    // standing in for a full or broken disk.
    fs::create_dir(dir.join("serve.journal")).expect("journal as dir");
    let output = run(&dir, &[]);
    assert_eq!(
        output.status.code(),
        Some(1),
        "journal IO failure must be an infrastructure error (exit 1), got {:?}",
        output.status
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    let journal = dir.join("serve.journal");
    assert!(
        stderr.contains(&journal.display().to_string()),
        "error must name the journal path: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "journal IO failure must not panic: {stderr}"
    );
}

#[test]
fn the_stop_file_halts_the_drain_resumably_and_the_restart_converges() {
    // Reference: the same workload, uninterrupted.
    let ref_dir = workdir("lifecycle_stop_ref");
    fs::write(ref_dir.join("jobs.jsonl"), QUEUE).expect("write queue");
    let output = run(&ref_dir, &["jobs=2"]);
    assert!(output.status.success(), "reference drain failed");
    let ref_journal = fs::read(ref_dir.join("serve.journal")).expect("reference journal");

    let dir = workdir("lifecycle_stop");
    fs::write(dir.join("jobs.jsonl"), QUEUE).expect("write queue");
    let stop = dir.join("serve.journal.stop");
    let journal = dir.join("serve.journal");

    // Drop the stop file as soon as the journal exists — the drain is
    // already past its pre-pass check, so the stop lands at a unit
    // boundary inside the drain.
    let mut child = Reaped(serve_cmd(&dir, &["jobs=2"]).spawn().expect("spawn daemon"));
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        if journal.exists() {
            fs::write(&stop, "").expect("write stop file");
            break;
        }
        if child.try_wait().expect("poll daemon").is_some() {
            panic!("daemon exited before creating the journal");
        }
        assert!(
            Instant::now() < deadline,
            "daemon never created the journal"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let status = child.wait().expect("wait daemon");
    assert!(
        status.success(),
        "a stop-file exit is a clean exit, got {status}"
    );

    let stopped_journal = fs::read(&journal).expect("stopped journal");
    let stopped_text = String::from_utf8_lossy(&stopped_journal).into_owned();
    assert!(
        stopped_text.ends_with('\n'),
        "stopped journal must not have a torn tail"
    );
    if stopped_text.contains(r#"{"rec":"stopped"}"#) {
        // Stopped mid-drain (the common case): minus the stopped
        // marker, the journal is a byte-prefix of the reference.
        let resumable = without_stopped(&stopped_journal);
        let reference = String::from_utf8_lossy(&ref_journal);
        assert!(
            reference.starts_with(&resumable),
            "resumable journal must be a prefix of the reference:\n{resumable}"
        );
        assert_ne!(
            resumable.len(),
            reference.len(),
            "a stopped record on a completed drain makes no sense"
        );
    }

    // Restart with the stop file removed: the drain converges to the
    // reference (stopped markers are replay no-ops and excluded from
    // the byte comparison).
    fs::remove_file(&stop).expect("remove stop file");
    let output = run(&dir, &["jobs=2"]);
    assert!(output.status.success(), "resumed drain failed");
    let final_journal = fs::read(&journal).expect("final journal");
    assert_eq!(
        without_stopped(&final_journal),
        String::from_utf8_lossy(&ref_journal),
        "resumed journal must converge to the reference"
    );
    for id in ["g1", "z1"] {
        let ours = fs::read(dir.join("out").join(format!("{id}.jsonl")))
            .unwrap_or_else(|e| panic!("read report {id}: {e}"));
        let theirs = fs::read(ref_dir.join("out").join(format!("{id}.jsonl")))
            .unwrap_or_else(|e| panic!("read reference report {id}: {e}"));
        assert_eq!(ours, theirs, "report {id} differs after a stop/resume");
    }

    // A stop file present at startup exits before the drain starts.
    fs::write(&stop, "").expect("re-create stop file");
    let output = run(&dir, &["jobs=2"]);
    assert!(output.status.success(), "pre-pass stop exit must be clean");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("stop file") && stderr.contains(&stop.display().to_string()),
        "pre-pass stop must name the stop file: {stderr}"
    );
    assert_eq!(
        fs::read(&journal).expect("journal after pre-pass stop"),
        final_journal,
        "a pre-pass stop must not touch the journal"
    );
}

#[test]
fn a_cancelled_job_fails_deterministically_and_the_rest_complete() {
    let dir = workdir("lifecycle_cancel");
    fs::write(dir.join("jobs.jsonl"), QUEUE).expect("write queue");
    let cfg = ServeConfig {
        queue: dir.join("jobs.jsonl"),
        journal: dir.join("serve.journal"),
        reports: dir.join("out"),
        threads: 1,
        jobs: 2,
    };
    let control = ServeControl::default();
    assert!(control.cancel("g1"), "first cancel is new");
    let outcome = run_serve_with(&cfg, &control).expect("drain");
    let by_id = |id: &str| {
        outcome
            .jobs
            .iter()
            .find(|j| j.id == id)
            .unwrap_or_else(|| panic!("job {id} missing"))
    };
    match &by_id("g1").status {
        Some(JobStatus::Failed { error }) => {
            assert_eq!(error, "cancelled by request", "cancel reason: {error}");
        }
        other => panic!("cancelled job must fail, got {other:?}"),
    }
    assert!(
        matches!(by_id("z1").status, Some(JobStatus::Done { .. })),
        "uncancelled jobs must still complete"
    );
    assert!(
        !dir.join("out").join("g1.jsonl").exists(),
        "a cancelled job must not write a report"
    );
    assert!(
        dir.join("out").join("z1.jsonl").exists(),
        "completed job must write its report"
    );

    // The failure is journaled: a re-drain recovers it without
    // recomputing (the cancel set is empty on the fresh control).
    let redrained = run_serve_with(&cfg, &ServeControl::default()).expect("re-drain");
    let replayed = redrained
        .jobs
        .iter()
        .find(|j| j.id == "g1")
        .expect("g1 replay");
    match &replayed.status {
        Some(JobStatus::Failed { error }) => assert_eq!(error, "cancelled by request"),
        other => panic!("journaled cancel must replay as failed, got {other:?}"),
    }
    assert_eq!(replayed.computed, 0, "cancelled job must not be recomputed");
}
