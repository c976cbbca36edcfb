//! Socket front-end suite: strict protocol error replies (in-process,
//! via [`handle_request`]) and the live TCP daemon (spawned binary) —
//! submit/status/cancel/drain/shutdown round trips, replies that do not
//! stall, reports written only when their job finishes, plus a
//! kill-mid-`submit` crash test proving the queue file is never torn.
//! An in-process socket daemon checks that the live journal state
//! equals a replay of the journal file after every pass.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod common;

use common::Reaped;
use flexray_serve::{
    handle_request, parse_job, read_journal, spawn_listener, JobStatus, JournalState, ServeConfig,
    ServeControl, SocketShared,
};

/// A tiny fuzz job spec (the fastest kind in smoke mode).
fn spec(id: &str) -> String {
    format!(
        r#"{{"schema":"flexray-serve-job","version":1,"id":"{id}","kind":"fuzz","args":["nodes=2","apps=1","orders=1","reps=1","mode=smoke"]}}"#
    )
}

fn workdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        fs::remove_dir_all(&dir).expect("clear stale workdir");
    }
    fs::create_dir_all(&dir).expect("create workdir");
    dir
}

fn shared(dir: &Path) -> SocketShared {
    SocketShared::new(dir.join("jobs.jsonl"), Arc::new(ServeControl::default()))
}

// ---------------------------------------------------------------- //
// In-process protocol strictness                                    //
// ---------------------------------------------------------------- //

#[test]
fn malformed_requests_get_error_replies_naming_the_offending_token() {
    let dir = workdir("socket_strict");
    fs::write(dir.join("jobs.jsonl"), "# empty\n").expect("write queue");
    let shared = shared(&dir);
    let cases: [(&str, &str); 7] = [
        ("not json at all", "malformed request"),
        ("[1,2,3]", "not a JSON object"),
        (r#"{"spec":{}}"#, "'req'"),
        (r#"{"req":"frobnicate"}"#, "unknown request 'frobnicate'"),
        (r#"{"req":"submit"}"#, "'spec'"),
        (r#"{"req":"status"}"#, "'id'"),
        (
            r#"{"req":"drain","force":true}"#,
            "unknown key 'force' for request 'drain'",
        ),
    ];
    for (line, needle) in cases {
        let reply = handle_request(&shared, line);
        assert!(
            reply.starts_with(r#"{"ok":false,"error":""#),
            "{line}: not an error reply: {reply}"
        );
        assert!(
            reply.contains(needle),
            "{line}: error must name the offending token ({needle}): {reply}"
        );
    }
    assert_eq!(
        fs::read_to_string(dir.join("jobs.jsonl")).expect("read queue"),
        "# empty\n",
        "rejected requests must not touch the queue"
    );
}

#[test]
fn submit_refuses_a_node_count_above_the_static_slot_limit() {
    let dir = workdir("socket_poison_nodes");
    fs::write(dir.join("jobs.jsonl"), "# empty\n").expect("write queue");
    let shared = shared(&dir);
    let bad = r#"{"schema":"flexray-serve-job","version":1,"id":"bad","kind":"grid","args":["nodes=18446744073709551615","apps=1","mode=smoke"]}"#;
    let reply = handle_request(&shared, &format!(r#"{{"req":"submit","spec":{bad}}}"#));
    assert!(reply.starts_with(r#"{"ok":false"#), "accepted: {reply}");
    assert!(
        reply.contains("'nodes'"),
        "error must name the key: {reply}"
    );
    assert_eq!(
        fs::read_to_string(dir.join("jobs.jsonl")).expect("read queue"),
        "# empty\n",
        "a refused submit must not touch the queue"
    );
}

#[test]
fn submit_appends_the_canonical_line_and_refuses_duplicates() {
    let dir = workdir("socket_submit");
    fs::write(dir.join("jobs.jsonl"), "# header comment\n").expect("write queue");
    let shared = shared(&dir);
    let request = format!(r#"{{"req":"submit","spec":{}}}"#, spec("a1"));
    let reply = handle_request(&shared, &request);
    assert!(reply.contains(r#""ok":true"#), "submit failed: {reply}");
    assert!(
        reply.contains(r#""id":"a1""#),
        "reply names the id: {reply}"
    );
    let queue = fs::read_to_string(dir.join("jobs.jsonl")).expect("read queue");
    assert_eq!(
        queue,
        format!("# header comment\n{}\n", spec("a1")),
        "submit must append exactly the canonical spec line"
    );

    let reply = handle_request(&shared, &request);
    assert!(
        reply.contains(r#""ok":false"#) && reply.contains("duplicate job id 'a1'"),
        "duplicate submit must be refused naming the id: {reply}"
    );
    assert_eq!(
        fs::read_to_string(dir.join("jobs.jsonl")).expect("read queue"),
        queue,
        "refused submit must not touch the queue"
    );

    let reply = handle_request(&shared, r#"{"req":"submit","spec":{"schema":"nope"}}"#);
    assert!(
        reply.contains(r#""ok":false"#),
        "invalid spec must be refused: {reply}"
    );
}

#[test]
fn submit_heals_a_missing_final_newline_without_touching_existing_lines() {
    let dir = workdir("socket_newline");
    // A hand-edited queue may lack the final newline; the appended
    // line must start on a fresh line so the existing line's bytes —
    // and its journaled fingerprint — survive unchanged.
    fs::write(dir.join("jobs.jsonl"), spec("a1")).expect("write queue");
    let shared = shared(&dir);
    let reply = handle_request(
        &shared,
        &format!(r#"{{"req":"submit","spec":{}}}"#, spec("b1")),
    );
    assert!(reply.contains(r#""ok":true"#), "submit failed: {reply}");
    let queue = fs::read_to_string(dir.join("jobs.jsonl")).expect("read queue");
    assert_eq!(queue, format!("{}\n{}\n", spec("a1"), spec("b1")));
}

#[test]
fn status_and_cancel_know_queued_jobs_and_refuse_unknown_ids() {
    let dir = workdir("socket_status");
    fs::write(dir.join("jobs.jsonl"), format!("{}\n", spec("q1"))).expect("write queue");
    let shared = shared(&dir);

    let reply = handle_request(&shared, r#"{"req":"status","id":"ghost"}"#);
    assert!(
        reply.contains(r#""ok":false"#) && reply.contains("unknown job id 'ghost'"),
        "unknown id must be refused by name: {reply}"
    );
    let reply = handle_request(&shared, r#"{"req":"status","id":"q1"}"#);
    assert!(
        reply.contains(r#""state":"queued""#),
        "not-yet-drained job must report queued: {reply}"
    );

    let reply = handle_request(&shared, r#"{"req":"cancel","id":"ghost"}"#);
    assert!(
        reply.contains(r#""ok":false"#) && reply.contains("unknown job id 'ghost'"),
        "cancel of unknown id must be refused by name: {reply}"
    );
    let first = handle_request(&shared, r#"{"req":"cancel","id":"q1"}"#);
    assert!(
        first.contains(r#""cancelled":true"#) && first.contains(r#""already_cancelled":false"#),
        "first cancel: {first}"
    );
    let second = handle_request(&shared, r#"{"req":"cancel","id":"q1"}"#);
    assert!(
        second.contains(r#""cancelled":true"#) && second.contains(r#""already_cancelled":true"#),
        "cancel must be idempotent: {second}"
    );
}

#[test]
fn drain_returns_once_a_pass_covers_the_prior_submits() {
    let dir = workdir("socket_drain");
    fs::write(dir.join("jobs.jsonl"), "#\n").expect("write queue");
    let shared = Arc::new(shared(&dir));
    // A completed pass with no submits satisfies an immediate drain.
    shared.begin_pass();
    shared.end_pass();
    let reply = handle_request(&shared, r#"{"req":"drain"}"#);
    assert!(
        reply.contains(r#""drained":true"#),
        "immediate drain: {reply}"
    );

    // After a submit, drain blocks until a pass started *after* the
    // submit completes.
    let request = format!(r#"{{"req":"submit","spec":{}}}"#, spec("d1"));
    assert!(handle_request(&shared, &request).contains(r#""ok":true"#));
    let waiter = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || handle_request(&shared, r#"{"req":"drain"}"#))
    };
    std::thread::sleep(Duration::from_millis(100));
    assert!(!waiter.is_finished(), "drain must wait for a covering pass");
    shared.begin_pass();
    shared.end_pass();
    let reply = waiter.join().expect("drain waiter");
    assert!(
        reply.contains(r#""drained":true"#),
        "covered drain: {reply}"
    );
}

// ---------------------------------------------------------------- //
// Live daemon over TCP                                              //
// ---------------------------------------------------------------- //

struct Daemon {
    child: Reaped,
    /// Held open for the daemon's lifetime: it keeps logging there.
    _stderr: BufReader<std::process::ChildStderr>,
    addr: String,
}

fn spawn_daemon(dir: &Path) -> Daemon {
    let mut child = Reaped(
        Command::new(env!("CARGO_BIN_EXE_flexray-serve"))
            .arg(format!("queue={}", dir.join("jobs.jsonl").display()))
            .arg(format!("journal={}", dir.join("serve.journal").display()))
            .arg(format!("reports={}", dir.join("out").display()))
            .arg("threads=1")
            .arg("jobs=2")
            .arg("socket=127.0.0.1:0")
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn flexray-serve"),
    );
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let addr = loop {
        let mut line = String::new();
        assert!(
            stderr.read_line(&mut line).expect("read stderr") > 0,
            "daemon exited before announcing its socket"
        );
        if let Some(rest) = line.trim().strip_prefix("serve: listening on ") {
            break rest.to_owned();
        }
    };
    Daemon {
        child,
        _stderr: stderr,
        addr,
    }
}

struct ClientConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn connect(addr: &str) -> ClientConn {
    let stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    ClientConn {
        reader,
        writer: stream,
    }
}

impl ClientConn {
    fn request(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send request");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        reply.trim_end().to_owned()
    }
}

fn wait_exit(child: &mut Child, deadline: Duration) -> std::process::ExitStatus {
    let end = Instant::now() + deadline;
    loop {
        if let Some(status) = child.try_wait().expect("poll daemon") {
            return status;
        }
        assert!(Instant::now() < end, "daemon did not exit in time");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn daemon_serves_submit_drain_status_shutdown_over_tcp() {
    let dir = workdir("socket_live");
    fs::write(dir.join("jobs.jsonl"), "# socket workload\n").expect("write queue");
    let mut daemon = spawn_daemon(&dir);
    let mut conn = connect(&daemon.addr);

    for id in ["s1", "s2"] {
        let reply = conn.request(&format!(r#"{{"req":"submit","spec":{}}}"#, spec(id)));
        assert!(
            reply.contains(r#""ok":true"#) && reply.contains(&format!(r#""id":"{id}""#)),
            "submit {id}: {reply}"
        );
    }
    let reply = conn.request(&format!(r#"{{"req":"submit","spec":{}}}"#, spec("s1")));
    assert!(
        reply.contains("duplicate job id 's1'"),
        "duplicate over TCP: {reply}"
    );

    let reply = conn.request(r#"{"req":"drain"}"#);
    assert!(reply.contains(r#""drained":true"#), "drain: {reply}");
    for id in ["s1", "s2"] {
        let reply = conn.request(&format!(r#"{{"req":"status","id":"{id}"}}"#));
        assert!(
            reply.contains(r#""state":"done""#),
            "status {id} after drain: {reply}"
        );
        let report = dir.join("out").join(format!("{id}.jsonl"));
        assert!(report.exists(), "report {id} missing after drain");
    }

    let reply = conn.request(r#"{"req":"shutdown"}"#);
    assert!(reply.contains(r#""shutdown":true"#), "shutdown: {reply}");
    let status = wait_exit(&mut daemon.child, Duration::from_secs(60));
    assert!(status.success(), "graceful shutdown must exit 0: {status}");
}

#[test]
fn a_kill_mid_submit_never_tears_the_queue_file() {
    let dir = workdir("socket_kill_submit");
    fs::write(dir.join("jobs.jsonl"), "# crash workload\n").expect("write queue");
    let mut daemon = spawn_daemon(&dir);
    let mut conn = connect(&daemon.addr);

    // Fire a burst of submits and SIGKILL the daemon after the second
    // acknowledgement — later submits race the kill arbitrarily.
    let ids = ["c1", "c2", "c3", "c4", "c5"];
    for id in ids {
        conn.writer
            .write_all(format!(r#"{{"req":"submit","spec":{}}}{}"#, spec(id), "\n").as_bytes())
            .expect("send submit");
    }
    let mut acked: Vec<String> = Vec::new();
    for id in ids.iter().take(2) {
        let mut reply = String::new();
        conn.reader.read_line(&mut reply).expect("read ack");
        assert!(reply.contains(r#""ok":true"#), "ack {id}: {reply}");
        acked.push((*id).to_owned());
    }
    daemon.child.kill().expect("SIGKILL daemon");
    daemon.child.wait().expect("reap daemon");
    drop(daemon);

    // The queue must be whole: newline-terminated, every non-comment
    // line a complete, parseable spec — and every acknowledged submit
    // present. A torn (partial) line would fail the parse.
    let queue = fs::read_to_string(dir.join("jobs.jsonl")).expect("read queue");
    assert!(queue.ends_with('\n'), "queue is torn: no final newline");
    let mut present: Vec<String> = Vec::new();
    for line in queue.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let parsed =
            parse_job(line).unwrap_or_else(|e| panic!("torn or corrupt queue line '{line}': {e}"));
        present.push(parsed.id);
    }
    for id in &acked {
        assert!(
            present.contains(id),
            "acknowledged submit {id} missing from the queue"
        );
    }

    // A restart drains whatever landed, cleanly.
    let status = Command::new(env!("CARGO_BIN_EXE_flexray-serve"))
        .arg(format!("queue={}", dir.join("jobs.jsonl").display()))
        .arg(format!("journal={}", dir.join("serve.journal").display()))
        .arg(format!("reports={}", dir.join("out").display()))
        .arg("threads=1")
        .arg("jobs=2")
        .status()
        .expect("restart daemon");
    assert!(status.success(), "post-crash drain must succeed: {status}");
}

#[test]
fn sequential_requests_on_one_connection_do_not_stall() {
    let dir = workdir("socket_no_stall");
    fs::write(dir.join("jobs.jsonl"), "# empty\n").expect("write queue");
    let mut daemon = spawn_daemon(&dir);
    let mut conn = connect(&daemon.addr);
    conn.writer.set_nodelay(true).expect("TCP_NODELAY");
    // Each reply must leave as one segment: a reply whose newline trails
    // in a second write waits for the client's delayed ACK (~40 ms).
    let start = Instant::now();
    for _ in 0..20 {
        let reply = conn.request(r#"{"req":"status","id":"nope"}"#);
        assert!(
            reply.contains("unknown job id 'nope'"),
            "status of an unknown id: {reply}"
        );
    }
    let elapsed = start.elapsed();
    let reply = conn.request(r#"{"req":"shutdown"}"#);
    assert!(reply.contains(r#""shutdown":true"#), "shutdown: {reply}");
    let status = wait_exit(&mut daemon.child, Duration::from_secs(60));
    assert!(status.success(), "graceful shutdown must exit 0: {status}");
    assert!(
        elapsed < Duration::from_millis(400),
        "20 sequential round trips took {elapsed:?}"
    );
}

#[test]
fn a_live_pass_writes_only_the_reports_of_jobs_it_finishes() {
    let dir = workdir("socket_report_rule");
    fs::write(dir.join("jobs.jsonl"), "# report workload\n").expect("write queue");
    let mut daemon = spawn_daemon(&dir);
    let mut conn = connect(&daemon.addr);
    let report = |id: &str| dir.join("out").join(format!("{id}.jsonl"));

    let reply = conn.request(&format!(r#"{{"req":"submit","spec":{}}}"#, spec("r1")));
    assert!(reply.contains(r#""ok":true"#), "submit r1: {reply}");
    let reply = conn.request(r#"{"req":"drain"}"#);
    assert!(reply.contains(r#""drained":true"#), "drain r1: {reply}");
    let reference = fs::read(report("r1")).expect("report r1 after its drain");
    fs::write(report("r1"), "sentinel\n").expect("overwrite report r1");

    // A later pass finishes r2 only: it must leave r1's report alone.
    let reply = conn.request(&format!(r#"{{"req":"submit","spec":{}}}"#, spec("r2")));
    assert!(reply.contains(r#""ok":true"#), "submit r2: {reply}");
    let reply = conn.request(r#"{"req":"drain"}"#);
    assert!(reply.contains(r#""drained":true"#), "drain r2: {reply}");
    let live_r1 = fs::read_to_string(report("r1")).expect("report r1");
    let live_r2 = fs::read(report("r2")).expect("report r2 after its drain");
    let reply = conn.request(r#"{"req":"shutdown"}"#);
    assert!(reply.contains(r#""shutdown":true"#), "shutdown: {reply}");
    let status = wait_exit(&mut daemon.child, Duration::from_secs(60));
    assert!(status.success(), "graceful shutdown must exit 0: {status}");
    assert_eq!(
        live_r1, "sentinel\n",
        "a pass rewrote the report of a job it did not finish"
    );

    // A restart rewrites every completed job's report from the journal.
    let status = Command::new(env!("CARGO_BIN_EXE_flexray-serve"))
        .arg(format!("queue={}", dir.join("jobs.jsonl").display()))
        .arg(format!("journal={}", dir.join("serve.journal").display()))
        .arg(format!("reports={}", dir.join("out").display()))
        .arg("threads=1")
        .arg("jobs=2")
        .stderr(Stdio::null())
        .status()
        .expect("restart daemon");
    assert!(status.success(), "one-shot restart must succeed: {status}");
    assert_eq!(
        fs::read(report("r1")).expect("report r1"),
        reference,
        "the restart must restore r1's report byte for byte"
    );
    assert_eq!(
        fs::read(report("r2")).expect("report r2"),
        live_r2,
        "the restart must reproduce r2's live report byte for byte"
    );
}

#[test]
fn the_live_journal_state_equals_a_replay_of_the_file_after_every_pass() {
    let dir = workdir("socket_live_state");
    fs::write(
        dir.join("jobs.jsonl"),
        format!("{}\nnot a job spec\n", spec("l1")),
    )
    .expect("write queue");
    let cfg = ServeConfig {
        queue: dir.join("jobs.jsonl"),
        journal: dir.join("serve.journal"),
        reports: dir.join("out"),
        threads: 1,
        jobs: 2,
    };
    let control = Arc::new(ServeControl::default());
    let shared = Arc::new(SocketShared::new(cfg.queue.clone(), Arc::clone(&control)));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind socket");
    let addr = listener.local_addr().expect("socket address").to_string();
    spawn_listener(listener, Arc::clone(&shared));
    let mut conn = connect(&addr);

    let mut daemon = flexray_serve::Daemon::open(&cfg).expect("open daemon");
    let replayed = || {
        let text = fs::read_to_string(&cfg.journal).expect("read journal");
        let (records, valid_len) = read_journal(&text).expect("journal reads");
        assert_eq!(valid_len, text.len(), "a live journal has no torn tail");
        JournalState::replay(&records).expect("journal replays")
    };
    assert_eq!(daemon.state(), &replayed(), "after open");
    let mut pass = |what: &str| {
        shared.begin_pass();
        let outcome = daemon.pass(&control).expect("pass");
        shared.end_pass();
        assert_eq!(daemon.state(), &replayed(), "after {what}");
        outcome
    };

    // Pass 1: l1 and the malformed line from the initial queue.
    let outcome = pass("pass 1");
    assert_eq!(outcome.rejected.len(), 1, "the malformed line is rejected");

    // Pass 2: two submits, one of them cancelled before the pass, and a
    // malformed line a client appended to the queue file directly.
    for id in ["l2", "l3"] {
        let reply = conn.request(&format!(r#"{{"req":"submit","spec":{}}}"#, spec(id)));
        assert!(reply.contains(r#""ok":true"#), "submit {id}: {reply}");
    }
    let reply = conn.request(r#"{"req":"cancel","id":"l2"}"#);
    assert!(reply.contains(r#""cancelled":true"#), "cancel l2: {reply}");
    let mut queue = fs::read_to_string(&cfg.queue).expect("read queue");
    queue.push_str("{\"schema\":\"broken\"}\n");
    fs::write(&cfg.queue, queue).expect("append malformed line");
    let outcome = pass("pass 2");
    assert_eq!(outcome.rejected.len(), 2, "both malformed lines are known");
    let status = |id: &str| {
        outcome
            .jobs
            .iter()
            .find(|j| j.id == id)
            .and_then(|j| j.status.clone())
    };
    assert_eq!(
        status("l2"),
        Some(JobStatus::Failed {
            error: "cancelled by request".to_owned()
        })
    );
    assert!(matches!(status("l3"), Some(JobStatus::Done { .. })));

    // Pass 3: one more submit; pass 4: nothing new.
    let reply = conn.request(&format!(r#"{{"req":"submit","spec":{}}}"#, spec("l4")));
    assert!(reply.contains(r#""ok":true"#), "submit l4: {reply}");
    let outcome = pass("pass 3");
    assert_eq!(outcome.jobs.len(), 4);
    assert!(outcome
        .jobs
        .iter()
        .all(|j| j.id == "l2" || matches!(j.status, Some(JobStatus::Done { .. }))));
    let before = fs::read(&cfg.journal).expect("read journal");
    let outcome = pass("pass 4");
    assert!(outcome.jobs.iter().all(|j| j.computed == 0));
    assert_eq!(
        fs::read(&cfg.journal).expect("read journal"),
        before,
        "a pass with nothing new appends nothing"
    );
}
