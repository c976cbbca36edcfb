//! `flexray-serve` — the crash-safe analysis-as-a-service daemon.
//!
//! ```text
//! flexray-serve queue=jobs.jsonl journal=serve.journal reports=out/ \
//!     [threads=N] [jobs=K] [poll=SECS] [socket=ADDR]
//! ```
//!
//! Drains the job queue once (or, with `poll=SECS` and/or
//! `socket=ADDR`, keeps draining as work arrives). The journal is
//! replayed once, at start-up, so the daemon may be SIGKILLed at any
//! instant and restarted: completed jobs are never recomputed,
//! in-flight jobs resume from their last journaled point, and the final
//! journal and reports are byte-identical to an uninterrupted run's.
//! Each report is written when its job finishes; a restart rewrites
//! every completed job's report.
//!
//! `jobs=K` schedules up to `K` jobs concurrently over the shared
//! worker pool; the journal's record order is a pure function of the
//! queue and `K`, and per-job reports do not depend on `K` at all.
//!
//! `socket=ADDR` serves the line-oriented JSONL control protocol
//! (`submit`/`status`/`cancel`/`drain`/`shutdown`) on a local TCP
//! socket; the bound address is announced on stderr as
//! `serve: listening on ADDR`.
//!
//! The stop file `<journal>.stop` is honoured *inside* a drain at unit
//! boundaries: in-flight units finish and are journaled, a clean
//! `stopped` record marks the early exit, and a restart resumes.
//!
//! Exit codes: `0` — queue drained, stopped via the stop file, or shut
//! down via the socket (rejected lines and failed jobs are journaled
//! outcomes, not daemon errors); `1` — infrastructure error (IO, a
//! journal append failing mid-drain, corrupt journal, queue changed
//! under the journal); `2` — usage error.

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flexray_serve::{
    spawn_listener, stop_path, Daemon, JobStatus, ServeConfig, ServeControl, ServeOutcome,
    SocketShared,
};

const USAGE: &str = "usage: flexray-serve queue=FILE journal=FILE reports=DIR \
                     [threads=N] [jobs=K] [poll=SECS] [socket=ADDR]\n\
                     \n\
                     queue=FILE    JSONL job queue (append-only; '#' comments, blank lines ok)\n\
                     journal=FILE  append-only progress journal (created if absent)\n\
                     reports=DIR   per-job report directory (created if absent)\n\
                     threads=N     worker threads for unit dispatch (0 = all cores; default 0)\n\
                     jobs=K        jobs scheduled concurrently (default 1; must be >= 1)\n\
                     poll=SECS     keep polling the queue every SECS seconds (must be >= 1)\n\
                     \x20             until the stop file <journal>.stop exists\n\
                     socket=ADDR   serve the JSONL control protocol (submit/status/cancel/\n\
                     \x20             drain/shutdown) on a TCP socket bound to ADDR";

#[derive(Debug)]
struct Cli {
    serve: ServeConfig,
    poll: Option<u64>,
    socket: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut queue: Option<PathBuf> = None;
    let mut journal: Option<PathBuf> = None;
    let mut reports: Option<PathBuf> = None;
    let mut threads = 0usize;
    let mut jobs = 1usize;
    let mut poll: Option<u64> = None;
    let mut socket: Option<String> = None;
    for arg in args {
        let Some((key, value)) = arg.split_once('=') else {
            return Err(format!("expected key=value, got '{arg}'"));
        };
        match key {
            "queue" => queue = Some(PathBuf::from(value)),
            "journal" => journal = Some(PathBuf::from(value)),
            "reports" => reports = Some(PathBuf::from(value)),
            "threads" => {
                threads = value
                    .parse()
                    .map_err(|_| format!("invalid thread count '{value}'"))?;
            }
            "jobs" => {
                jobs = value
                    .parse()
                    .map_err(|_| format!("invalid job concurrency '{value}'"))?;
                if jobs == 0 {
                    return Err(format!("job concurrency must be at least 1, got '{value}'"));
                }
            }
            "poll" => {
                let secs: u64 = value
                    .parse()
                    .map_err(|_| format!("invalid poll interval '{value}'"))?;
                if secs == 0 {
                    return Err(format!(
                        "poll interval must be at least 1 second, got '{value}' (a zero \
                         interval would busy-wait)"
                    ));
                }
                poll = Some(secs);
            }
            "socket" => socket = Some(value.to_owned()),
            _ => return Err(format!("unknown option '{key}'")),
        }
    }
    let serve = ServeConfig {
        queue: queue.ok_or("missing required option queue=FILE")?,
        journal: journal.ok_or("missing required option journal=FILE")?,
        reports: reports.ok_or("missing required option reports=DIR")?,
        threads,
        jobs,
    };
    Ok(Cli {
        serve,
        poll,
        socket,
    })
}

fn report(outcome: &ServeOutcome) {
    for (line, error) in &outcome.rejected {
        eprintln!("serve: line {line} rejected: {error}");
    }
    for job in &outcome.jobs {
        let status = match &job.status {
            Some(JobStatus::Done { .. }) => "done".to_owned(),
            Some(JobStatus::Failed { error }) => format!("failed ({error})"),
            None => "stopped (resumable)".to_owned(),
        };
        eprintln!(
            "serve: job {}: kind={} recovered={} computed={} evaluations={} status={status}",
            job.id, job.kind, job.recovered, job.computed, job.evaluations
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("flexray-serve: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let control = Arc::new(ServeControl::default());
    let stop_file = stop_path(&cli.serve.journal);
    let shared = match &cli.socket {
        Some(addr) => {
            let listener = match TcpListener::bind(addr) {
                Ok(listener) => listener,
                Err(e) => {
                    eprintln!("flexray-serve: bind socket {addr}: {e}");
                    return ExitCode::from(1);
                }
            };
            match listener.local_addr() {
                Ok(local) => eprintln!("serve: listening on {local}"),
                Err(e) => {
                    eprintln!("flexray-serve: socket address: {e}");
                    return ExitCode::from(1);
                }
            }
            let shared = Arc::new(SocketShared::new(
                cli.serve.queue.clone(),
                Arc::clone(&control),
            ));
            spawn_listener(listener, Arc::clone(&shared));
            Some(shared)
        }
        None => None,
    };
    // Pre-pass check: a stop file present before a drain starts means
    // exit now, not journal yet another stopped record. The first check
    // runs before the open, so a stopped daemon never touches the
    // journal.
    let stop_file_found = || {
        let found = stop_file.exists();
        if found {
            eprintln!("serve: stop file {} found, exiting", stop_file.display());
        }
        found
    };
    if stop_file_found() {
        return ExitCode::SUCCESS;
    }
    let mut daemon = match Daemon::open(&cli.serve) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("flexray-serve: {e}");
            return ExitCode::from(1);
        }
    };
    loop {
        if let Some(shared) = &shared {
            shared.begin_pass();
        }
        let outcome = match daemon.pass(&control) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("flexray-serve: {e}");
                return ExitCode::from(1);
            }
        };
        if let Some(shared) = &shared {
            shared.end_pass();
        }
        report(&outcome);
        if outcome.stopped {
            eprintln!("serve: stopped early (resumable), exiting");
            return ExitCode::SUCCESS;
        }
        if control.is_shutdown() {
            eprintln!("serve: shutdown requested, exiting");
            return ExitCode::SUCCESS;
        }
        match (&shared, cli.poll) {
            (None, None) => return ExitCode::SUCCESS,
            (None, Some(secs)) => std::thread::sleep(Duration::from_secs(secs)),
            (Some(shared), poll) => {
                // Wake on submit/shutdown, the poll interval, or the
                // stop file appearing while idle.
                let deadline = poll.map(|secs| Instant::now() + Duration::from_secs(secs));
                loop {
                    if shared.wait_for_work(Duration::from_millis(200))
                        || stop_file.exists()
                        || deadline.is_some_and(|d| Instant::now() >= d)
                    {
                        break;
                    }
                }
            }
        }
        if stop_file_found() {
            return ExitCode::SUCCESS;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    const REQUIRED: [&str; 3] = ["queue=q.jsonl", "journal=j.jsonl", "reports=out"];

    #[test]
    fn parse_cli_accepts_the_full_option_set() {
        let mut all = args(&REQUIRED);
        all.extend(args(&[
            "threads=4",
            "jobs=2",
            "poll=3",
            "socket=127.0.0.1:0",
        ]));
        let cli = parse_cli(&all).expect("full option set parses");
        assert_eq!(cli.serve.threads, 4);
        assert_eq!(cli.serve.jobs, 2);
        assert_eq!(cli.poll, Some(3));
        assert_eq!(cli.socket.as_deref(), Some("127.0.0.1:0"));
        let minimal = parse_cli(&args(&REQUIRED)).expect("defaults parse");
        assert_eq!(minimal.serve.jobs, 1, "default is serial job order");
        assert_eq!(minimal.poll, None);
        assert!(minimal.socket.is_none());
    }

    #[test]
    fn parse_cli_rejects_a_zero_poll_interval_naming_the_value() {
        let mut all = args(&REQUIRED);
        all.push("poll=0".to_owned());
        let err = parse_cli(&all).expect_err("poll=0 would busy-wait");
        assert!(err.contains("'0'"), "error must name the value: {err}");
        assert!(
            err.contains("poll interval"),
            "error names the option: {err}"
        );
    }

    #[test]
    fn parse_cli_rejects_zero_job_concurrency_naming_the_value() {
        let mut all = args(&REQUIRED);
        all.push("jobs=0".to_owned());
        let err = parse_cli(&all).expect_err("jobs=0 schedules nothing");
        assert!(err.contains("'0'"), "error must name the value: {err}");
        assert!(
            err.contains("job concurrency"),
            "error names the option: {err}"
        );
    }
}
