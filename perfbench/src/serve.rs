//! `serve`: the `flexray-serve` daemon behind its TCP socket, with one
//! client in a closed loop. Each round starts a daemon on a fresh queue
//! and journal. The client submits a small `grid` or `fuzz` job and
//! sends `drain`, which returns once a completed pass covered the job;
//! only then does it submit the next one. The daemon's pass summaries
//! and its journal must show every job done. Then the daemon is
//! restarted on the finished journal, which it must replay without
//! computing anything or changing the journal.
//!
//! With jobs this small the daemon's own layers (spec parsing, event
//! plan, journal append, report rewrite, socket) are a visible share of
//! every job.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use flexray_bench::report::Json;
use flexray_serve::{read_journal, JobStatus, JournalState};

use crate::common::{
    median, peak_rss_mb, quantile, rounds, secs, Args, Estimate, Orders, Outcome, RepeatCheck,
};

/// Worker threads of the daemon (`threads=`).
pub const DAEMON_THREADS: usize = 2;

/// Jobs the daemon schedules concurrently (`jobs=`).
pub const DAEMON_JOBS: usize = 2;

/// Job specs submitted per round, one job each.
pub const SPECS: usize = 16;

/// Wall-clock of one round: a daemon started, one closed-loop job per
/// spec, the daemon shut down and restarted for the replay.
const ROUND_S: f64 = 1.5;

/// How long to wait for the daemon to announce its socket.
const LISTEN_TIMEOUT: Duration = Duration::from_secs(60);

/// The `submit` request of job spec `spec` under id `id`: even specs
/// are `grid` jobs, odd ones `fuzz` jobs, each on one smoke-scale 2-node
/// application.
fn submit_line(id: &str, spec: usize) -> String {
    let (kind, args) = if spec.is_multiple_of(2) {
        ("grid", "\"algos=bbc,obccf\"")
    } else {
        ("fuzz", "\"orders=1\",\"reps=2\"")
    };
    format!(
        "{{\"req\":\"submit\",\"spec\":{{\"schema\":\"flexray-serve-job\",\"version\":1,\
         \"id\":\"{id}\",\"kind\":\"{kind}\",\"args\":[\"nodes=2\",\"apps=1\",\
         \"mode=smoke\",\"eval_threads=1\",{args},\"seed0={}\"]}}}}",
        spec / 2
    )
}

/// A spawned daemon. Dropping it without [`Daemon::wait`] kills and
/// reaps the process.
struct Daemon {
    child: Child,
    stderr: Option<JoinHandle<Vec<String>>>,
}

impl Daemon {
    /// Spawns the daemon on the queue, journal and reports of `dir`.
    /// With `socket`, waits until it listens and returns the address.
    fn spawn(exe: &Path, dir: &Path, socket: bool) -> Result<(Daemon, Option<String>), String> {
        let mut cmd = Command::new(exe);
        cmd.arg(format!("queue={}", dir.join("queue.jsonl").display()))
            .arg(format!("journal={}", dir.join("serve.journal").display()))
            .arg(format!("reports={}", dir.join("reports").display()))
            .arg(format!("threads={DAEMON_THREADS}"))
            .arg(format!("jobs={DAEMON_JOBS}"));
        if socket {
            cmd.arg("socket=127.0.0.1:0");
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut lines = Vec::new();
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = line.strip_prefix("serve: listening on ") {
                    let _ = tx.send(addr.to_owned());
                }
                lines.push(line);
            }
            lines
        });
        let daemon = Daemon {
            child,
            stderr: Some(reader),
        };
        let addr = if socket {
            let addr = rx
                .recv_timeout(LISTEN_TIMEOUT)
                .map_err(|_| "daemon never announced its socket".to_owned())?;
            Some(addr)
        } else {
            None
        };
        Ok((daemon, addr))
    }

    /// Waits for the daemon to exit and returns its stderr lines.
    fn wait(mut self) -> Result<Vec<String>, String> {
        let status = self
            .child
            .wait()
            .map_err(|e| format!("wait for daemon: {e}"))?;
        let lines = self
            .stderr
            .take()
            .expect("waited once")
            .join()
            .map_err(|_| "daemon stderr reader panicked".to_owned())?;
        if !status.success() {
            return Err(format!(
                "daemon exited with {status}: {}",
                lines.join(" | ")
            ));
        }
        Ok(lines)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(reader) = self.stderr.take() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            let _ = reader.join();
        }
    }
}

/// One connection of the line-oriented control protocol.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Sends one request line and returns its `ok` reply.
    fn request(&mut self, line: &str) -> Result<Json, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send request: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("read reply: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".to_owned());
        }
        let json = Json::parse(reply.trim_end()).map_err(|e| format!("reply {reply:?}: {e}"))?;
        match json.get("ok") {
            Some(Json::Bool(true)) => Ok(json),
            _ => Err(format!("request {line} refused: {}", reply.trim_end())),
        }
    }
}

/// Removes the run's work directory when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}

/// What one drain pass reported for one job.
struct JobLine {
    id: String,
    computed: u64,
    evaluations: u64,
    status: String,
}

/// Parses the daemon's per-job stderr summary:
/// `serve: job ID: kind=K recovered=R computed=C evaluations=E status=S`.
fn job_line(line: &str) -> Option<JobLine> {
    let rest = line.strip_prefix("serve: job ")?;
    let (id, fields) = rest.split_once(": ")?;
    let (counts, status) = fields.split_once(" status=")?;
    let field = |key: &str| {
        counts
            .split(' ')
            .find_map(|tok| tok.strip_prefix(key))
            .and_then(|v| v.parse().ok())
    };
    Some(JobLine {
        id: id.to_owned(),
        computed: field("computed=")?,
        evaluations: field("evaluations=")?,
        status: status.to_owned(),
    })
}

/// One round on a fresh directory under `root`.
fn round(
    exe: &Path,
    dir: &Path,
    order: &[usize],
    out: &mut Outcome,
    repeats: &mut RepeatCheck,
    log: &mut ServeLog,
) -> Result<(), String> {
    // Set-up: a fresh directory and queue, the daemon listening and the
    // client connected.
    let start = Instant::now();
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    fs::write(dir.join("queue.jsonl"), "").map_err(|e| format!("create queue: {e}"))?;
    let (daemon, addr) = Daemon::spawn(exe, dir, true)?;
    let mut client = Client::connect(&addr.expect("a socket daemon has an address"))?;
    out.setup_s.push(secs(start));

    let mut submitted = Vec::with_capacity(order.len());
    for &spec in order {
        let id = format!("j{spec:02}");
        let t0 = Instant::now();
        if let Err(e) = client.request(&submit_line(&id, spec)) {
            out.check(false, || format!("submit {id}: {e}"));
            continue;
        }
        let t1 = Instant::now();
        client.request("{\"req\":\"drain\"}")?;
        let t2 = Instant::now();
        log.submit_ms.push((t1 - t0).as_secs_f64() * 1e3);
        log.drain_ms.push((t2 - t1).as_secs_f64() * 1e3);
        out.item(spec, 1.0, (t2 - t0).as_secs_f64());
        out.job(spec, (t2 - t0).as_secs_f64() * 1e3);
        submitted.push((id, spec));
    }
    log.peak_rss_mb.push(peak_rss_mb(daemon.child.id())?);
    client.request("{\"req\":\"shutdown\"}")?;
    drop(client);
    let lines = daemon.wait()?;

    // Per-job work from the daemon's pass summaries: every job computed
    // once and ended done, with the work of its spec's first round.
    let summaries: Vec<JobLine> = lines.iter().filter_map(|l| job_line(l)).collect();
    for (id, spec) in &submitted {
        let mine: Vec<&JobLine> = summaries.iter().filter(|s| s.id == *id).collect();
        let computed: u64 = mine.iter().map(|s| s.computed).sum();
        let evaluations: u64 = mine.iter().map(|s| s.evaluations).sum();
        let done = mine.last().is_some_and(|s| s.status == "done");
        out.check(done && computed > 0, || {
            format!("job {id}: computed {computed} over {} passes", mine.len())
        });
        let same = repeats.same(*spec, vec![computed, evaluations]);
        out.check(same, || format!("job {id} differs from its first round"));
        out.count("points_computed", computed);
        out.count("evaluations", evaluations);
    }

    let journal_path = dir.join("serve.journal");
    let journal = fs::read_to_string(&journal_path).map_err(|e| format!("read journal: {e}"))?;
    let start = Instant::now();
    let (records, _) = read_journal(&journal).map_err(|e| format!("read_journal: {e}"))?;
    let state = JournalState::replay(&records).map_err(|e| format!("replay journal: {e}"))?;
    log.read_journal_s += secs(start);
    let journaled_done = submitted.iter().all(|(id, _)| {
        state
            .job(id)
            .is_some_and(|p| matches!(p.status, Some(JobStatus::Done { .. })))
    });
    out.check(journaled_done, || {
        "a job is not journaled as done".to_owned()
    });
    out.count("journal_bytes", journal.len() as u64);
    out.count("journal_records", records.len() as u64);

    // Restart on the finished journal: a pure replay.
    let start = Instant::now();
    let (replay, _) = Daemon::spawn(exe, dir, false)?;
    let replay_lines = replay.wait()?;
    log.replay_s.push(secs(start));
    let replayed: Vec<JobLine> = replay_lines.iter().filter_map(|l| job_line(l)).collect();
    let replay_computed: u64 = replayed.iter().map(|s| s.computed + s.evaluations).sum();
    out.check(
        replay_computed == 0 && replayed.len() == submitted.len(),
        || {
            format!(
                "replay computed {replay_computed} over {} jobs",
                replayed.len()
            )
        },
    );
    log.replay_computed += replay_computed;
    let after = fs::read_to_string(&journal_path).map_err(|e| format!("reread journal: {e}"))?;
    out.check(after == journal, || {
        "the replay changed the journal".to_owned()
    });
    Ok(())
}

/// Per-round measurements beyond the outcome's own records.
#[derive(Debug, Default)]
struct ServeLog {
    submit_ms: Vec<f64>,
    drain_ms: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    read_journal_s: f64,
    replay_s: Vec<f64>,
    replay_computed: u64,
}

/// Runs the workload.
///
/// # Errors
///
/// Infrastructure failures: the daemon does not start or exits with an
/// error, the socket or the work directory fails.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe()
        .map_err(|e| format!("locate the benchmark binary: {e}"))?
        .with_file_name("serve-daemon");
    let root = PathBuf::from(".bench_work").join(format!("serve-{}", std::process::id()));
    let _cleanup = WorkDir(root.clone());
    // A request's round trip is either ~4 ms or ~44 ms, depending on
    // when the client's TCP stack acknowledges the daemon's reply, so
    // the fastest round would report the rare quick case.
    let mut out = Outcome {
        estimate: Estimate::Median,
        ..Outcome::default()
    };
    let mut orders = Orders::new(args.seed);
    let mut repeats = RepeatCheck::default();
    let mut log = ServeLog::default();
    for r in 0..rounds(args.seconds, ROUND_S) {
        let order = orders.next(SPECS);
        round(
            &exe,
            &root.join(format!("round{r}")),
            &order,
            &mut out,
            &mut repeats,
            &mut log,
        )?;
    }
    out.peak_rss_mb = median(&log.peak_rss_mb);

    if args.trace {
        let journal_bytes = out.counter("journal_bytes") as f64;
        let journal_records = out.counter("journal_records") as f64;
        let computed = out.counter("points_computed") as f64;
        let evaluations = out.counter("evaluations") as f64;
        out.layer("serve.submit.p50_ms", quantile(&log.submit_ms, 0.5));
        out.layer("serve.submit.p99_ms", quantile(&log.submit_ms, 0.99));
        out.layer("serve.drain.p50_ms", quantile(&log.drain_ms, 0.5));
        out.layer("serve.job.p90_ms", quantile(&out.all_job_ms(), 0.9));
        out.layer("serve.journal.bytes", journal_bytes);
        out.layer("serve.journal.records", journal_records);
        out.layer("serve.read_journal.busy_s", log.read_journal_s);
        out.layer("serve.points.computed", computed);
        out.layer("serve.evaluations", evaluations);
        out.layer("serve.replay.computed", log.replay_computed as f64);
        out.layer("serve.replay_s", median(&log.replay_s));
    }
    Ok(out)
}
