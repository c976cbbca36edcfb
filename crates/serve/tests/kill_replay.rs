//! Kill-and-replay differential suite: the daemon is spawned as a
//! child process, SIGKILLed at randomized journal offsets, and
//! restarted — the final journal and reports must be byte-identical
//! to an uninterrupted run's, and completed jobs must never be
//! recomputed (evaluation counters are checked).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

mod common;

use common::Reaped;

/// A multi-kind workload: grid, fig9 and fuzz jobs, a malformed line
/// and a comment. Tiny smoke-mode configs keep the 1-CPU debug-build
/// runtime in check.
const QUEUE: &str = concat!(
    "# kill-and-replay workload\n",
    r#"{"schema":"flexray-serve-job","version":1,"id":"g1","kind":"grid","args":["nodes=2,3","apps=1","mode=smoke","algos=bbc,obccf"]}"#,
    "\n",
    "not a job spec\n",
    r#"{"schema":"flexray-serve-job","version":1,"id":"f1","kind":"fig9","args":["nodes=2","apps=1","mode=smoke"]}"#,
    "\n",
    r#"{"schema":"flexray-serve-job","version":1,"id":"z1","kind":"fuzz","args":["nodes=2,3","apps=1","orders=1","reps=2","mode=smoke"]}"#,
    "\n",
);

const JOB_IDS: [&str; 3] = ["g1", "f1", "z1"];

fn workdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear stale workdir");
    }
    fs::create_dir_all(&dir).expect("create workdir");
    fs::write(dir.join("jobs.jsonl"), QUEUE).expect("write queue");
    dir
}

fn serve(dir: &Path, threads: usize, jobs: usize) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_flexray-serve"));
    cmd.arg(format!("queue={}", dir.join("jobs.jsonl").display()))
        .arg(format!("journal={}", dir.join("serve.journal").display()))
        .arg(format!("reports={}", dir.join("out").display()))
        .arg(format!("threads={threads}"))
        .arg(format!("jobs={jobs}"));
    cmd
}

fn drain(dir: &Path, threads: usize, jobs: usize) -> Output {
    let output = serve(dir, threads, jobs)
        .output()
        .expect("spawn flexray-serve");
    assert!(
        output.status.success(),
        "drain failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

fn journal_bytes(dir: &Path) -> Vec<u8> {
    fs::read(dir.join("serve.journal")).expect("read journal")
}

fn report_bytes(dir: &Path, id: &str) -> Vec<u8> {
    fs::read(dir.join("out").join(format!("{id}.jsonl")))
        .unwrap_or_else(|e| panic!("read report {id}: {e}"))
}

/// Per-job `computed=` / `evaluations=` counters parsed from the
/// daemon's stderr summaries.
fn counters(output: &Output, id: &str) -> (u64, u64) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    let line = stderr
        .lines()
        .find(|l| l.starts_with(&format!("serve: job {id}:")))
        .unwrap_or_else(|| panic!("no summary for job {id} in: {stderr}"));
    let field = |key: &str| -> u64 {
        line.split_whitespace()
            .find_map(|tok| tok.strip_prefix(key))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {key} counter in: {line}"))
    };
    (field("computed="), field("evaluations="))
}

/// Runs the workload start-to-finish with no kills and returns the
/// journal plus all report files.
fn reference(dir: &Path, threads: usize, jobs: usize) -> (Vec<u8>, Vec<(String, Vec<u8>)>) {
    let output = drain(dir, threads, jobs);
    for id in JOB_IDS {
        let (computed, evaluations) = counters(&output, id);
        assert!(computed > 0, "{id}: reference run must compute");
        assert!(evaluations > 0, "{id}: reference run must evaluate");
    }
    let reports = JOB_IDS
        .iter()
        .map(|id| ((*id).to_owned(), report_bytes(dir, id)))
        .collect();
    (journal_bytes(dir), reports)
}

/// Spawns the daemon and SIGKILLs it once the journal reaches
/// `offset` bytes. Returns false if the daemon finished first.
fn kill_at(dir: &Path, threads: usize, jobs: usize, offset: usize) -> bool {
    let journal = dir.join("serve.journal");
    let mut child = Reaped(
        serve(dir, threads, jobs)
            .spawn()
            .expect("spawn flexray-serve"),
    );
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let grown = fs::metadata(&journal).map_or(0, |m| m.len() as usize);
        if grown >= offset {
            // `Child::kill` is SIGKILL on unix: no cleanup handler
            // runs, exactly the crash the journal must survive.
            child.kill().expect("kill daemon");
            child.wait().expect("reap daemon");
            return true;
        }
        if child.try_wait().expect("poll daemon").is_some() {
            return false;
        }
        assert!(Instant::now() < deadline, "daemon hung before {offset}B");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn killed_and_replayed_runs_are_byte_identical_to_uninterrupted_runs() {
    let dir = workdir("kill_replay");
    let (ref_journal, ref_reports) = reference(&dir, 1, 1);
    assert!(ref_journal.len() > 2, "workload journaled nothing");

    // Randomized kill offsets from a seeded LCG (deterministic suite),
    // plus the first record boundary — a torn tail of zero bytes.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut offsets: Vec<usize> = (0..3)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            1 + (state >> 33) as usize % (ref_journal.len() - 1)
        })
        .collect();
    let first_boundary = ref_journal
        .iter()
        .position(|&b| b == b'\n')
        .expect("journal has lines")
        + 1;
    offsets.push(first_boundary);

    for offset in offsets {
        fs::remove_file(dir.join("serve.journal")).ok();
        fs::remove_dir_all(dir.join("out")).ok();

        let killed = kill_at(&dir, 2, 1, offset);
        let torn = journal_bytes(&dir);
        assert!(
            torn.len() >= ref_journal.len().min(offset) || !killed,
            "offset {offset}: journal shorter than the kill trigger"
        );
        assert_eq!(
            torn,
            ref_journal[..torn.len()],
            "offset {offset}: a killed journal must be a byte-prefix of the reference"
        );

        // Restart: replay + finish. Different thread count on purpose —
        // the journal must not depend on it.
        drain(&dir, 1, 1);
        assert_eq!(
            journal_bytes(&dir),
            ref_journal,
            "offset {offset}: replayed journal differs"
        );
        for (id, data) in &ref_reports {
            assert_eq!(
                &report_bytes(&dir, id),
                data,
                "offset {offset}: replayed report {id} differs"
            );
        }
    }
}

/// The concurrent half of the differential suite: for K∈{2,4} the
/// journal is a *different* deterministic interleaving (a pure
/// function of `(queue, K)`), kills + restarts still converge to the
/// byte-identical per-K journal, and every per-job report is
/// byte-identical to the serial (K=1) run's.
#[test]
fn concurrent_schedules_are_crash_safe_and_report_identical_to_serial() {
    let dir = workdir("kill_replay_concurrent");
    let (serial_journal, serial_reports) = reference(&dir, 1, 1);

    let mut state = 0xA076_1D64_78BD_642Fu64;
    for jobs in [2usize, 4] {
        fs::remove_file(dir.join("serve.journal")).ok();
        fs::remove_dir_all(dir.join("out")).ok();
        let (k_journal, k_reports) = reference(&dir, 2, jobs);
        assert_ne!(
            k_journal, serial_journal,
            "jobs={jobs}: concurrent plan did not interleave the journal"
        );
        for (id, data) in &k_reports {
            let serial = serial_reports
                .iter()
                .find(|(s, _)| s == id)
                .map(|(_, d)| d)
                .expect("serial report");
            assert_eq!(
                data, serial,
                "jobs={jobs}: report {id} depends on the job concurrency"
            );
        }

        for _ in 0..2 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let offset = 1 + (state >> 33) as usize % (k_journal.len() - 1);
            fs::remove_file(dir.join("serve.journal")).ok();
            fs::remove_dir_all(dir.join("out")).ok();

            kill_at(&dir, 2, jobs, offset);
            let torn = journal_bytes(&dir);
            assert_eq!(
                torn,
                k_journal[..torn.len()],
                "jobs={jobs} offset {offset}: killed journal is not a byte-prefix"
            );

            // Restart at the same K but a different thread count: the
            // journal is a function of (queue, K), not of threads.
            drain(&dir, 1, jobs);
            assert_eq!(
                journal_bytes(&dir),
                k_journal,
                "jobs={jobs} offset {offset}: replayed journal differs"
            );
            for (id, data) in &serial_reports {
                assert_eq!(
                    &report_bytes(&dir, id),
                    data,
                    "jobs={jobs} offset {offset}: replayed report {id} differs from serial"
                );
            }
        }
    }
}

#[test]
fn completed_jobs_are_never_recomputed() {
    let dir = workdir("kill_replay_norecompute");
    let (ref_journal, _) = reference(&dir, 2, 2);

    // A drain over a fully-journaled queue must recover everything:
    // zero points computed, zero optimiser evaluations, and not a
    // byte appended to the journal.
    let output = drain(&dir, 2, 2);
    for id in JOB_IDS {
        assert_eq!(
            counters(&output, id),
            (0, 0),
            "{id}: completed job was re-evaluated"
        );
    }
    assert_eq!(
        journal_bytes(&dir),
        ref_journal,
        "replay mutated the journal"
    );

    // Killing mid-run and restarting must recover *exactly* the
    // journaled points: the restart's recovered total equals the
    // torn journal's complete point records, nothing less.
    fs::remove_file(dir.join("serve.journal")).ok();
    fs::remove_dir_all(dir.join("out")).ok();
    let mid = ref_journal.len() / 2;
    kill_at(&dir, 2, 2, mid);
    let torn = String::from_utf8_lossy(&journal_bytes(&dir)).into_owned();
    // Only newline-terminated lines count — the torn tail is dropped
    // by replay, exactly as read_journal specifies.
    let complete = &torn[..torn.rfind('\n').map_or(0, |k| k + 1)];
    let torn_points = complete
        .lines()
        .filter(|l| l.starts_with("{\"rec\":\"point\""))
        .count() as u64;
    let output = drain(&dir, 2, 2);
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    let recovered: u64 = JOB_IDS
        .iter()
        .map(|id| {
            stderr
                .lines()
                .find(|l| l.starts_with(&format!("serve: job {id}:")))
                .expect("summary")
                .split_whitespace()
                .find_map(|tok| tok.strip_prefix("recovered="))
                .and_then(|v| v.parse::<u64>().ok())
                .expect("recovered counter")
        })
        .sum();
    assert_eq!(
        recovered, torn_points,
        "restart must recover exactly the journaled points"
    );
}
