//! The queue-draining engine behind the `flexray-serve` binary.
//!
//! [`run_serve_with`] performs one *drain*: it reads the job queue,
//! replays the journal (recovering completed and in-flight work),
//! truncates the journal's torn tail, journals a rejection for every
//! malformed queue line, then hands every job — terminal ones
//! included — to the static-plan scheduler ([`crate::scheduler`]),
//! which runs up to [`ServeConfig::jobs`] jobs concurrently over the
//! shared work-stealing pool. Jobs whose `end` record is journaled are
//! **never recomputed**: their reports are rewritten straight from
//! journal data.
//!
//! Points stream to the journal the moment their plan slot is reached,
//! via unbuffered `write_all` calls — a SIGKILL can lose at most the
//! final, newline-less line, which replay drops as the torn tail. The
//! journal's record order is the scheduler's static plan, a pure
//! function of `(queue content, jobs)`: a killed-and-replayed run
//! journals byte-identical records, and per-job reports are identical
//! for *any* `jobs`/`threads` setting.
//!
//! A stop request (the stop file `<journal>.stop`, or a socket
//! `shutdown`) is honoured *inside* the drain at unit boundaries: the
//! pool stops claiming units, in-flight units are journaled, and a
//! clean `stopped` record marks the early exit — resumable on restart.

use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use flexray_bench::report::Json;
use flexray_model::ModelError;

use crate::control::{stop_path, ServeControl};
use crate::journal::{
    line_fp, read_journal, JobStatus, JournalSink, JournalState, Record, SERVE_SCHEMA_VERSION,
};
use crate::scheduler::{run_schedule, ScheduledJob};
use crate::spec::{parse_job, JobSpec};

/// One drain's inputs: where the queue, journal and reports live, and
/// how wide to dispatch.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The JSONL job queue (one job spec per line; `#` comments and
    /// blank lines are skipped). Append-only: existing lines must not
    /// change once journaled.
    pub queue: PathBuf,
    /// The append-only journal; created if absent, replayed if not.
    pub journal: PathBuf,
    /// Directory for per-job reports (`<id>.jsonl`); created if
    /// absent.
    pub reports: PathBuf,
    /// Worker threads for unit dispatch (0 = all cores). Results are
    /// bit-identical for any value.
    pub threads: usize,
    /// Jobs scheduled concurrently (clamped to ≥ 1). The journal's
    /// record order depends on this (it is a pure function of the
    /// queue *and* this), but per-job reports do not.
    pub jobs: usize,
}

/// What one drain did for one job.
#[derive(Debug, Clone)]
pub struct JobSummary {
    /// Job id.
    pub id: String,
    /// Job kind (`grid`/`sweep`/`fig9`/`fuzz`).
    pub kind: String,
    /// Points recovered from the journal (not recomputed).
    pub recovered: usize,
    /// Points computed by this drain.
    pub computed: usize,
    /// Optimiser candidate evaluations performed by this drain — a
    /// runtime metric, deliberately *not* journaled (a resumed job
    /// would journal only its post-restart share, breaking the
    /// byte-identity contract).
    pub evaluations: u64,
    /// The job's terminal status — `None` when the drain stopped with
    /// the job still in flight (resumable on restart).
    pub status: Option<JobStatus>,
}

/// Everything one drain did.
#[derive(Debug, Clone, Default)]
pub struct ServeOutcome {
    /// Per-job summaries, in queue order.
    pub jobs: Vec<JobSummary>,
    /// `(queue line number, error)` of rejected lines, in queue order
    /// (journaled rejections included).
    pub rejected: Vec<(usize, String)>,
    /// Whether a stop request ended the drain before the plan
    /// completed (a `stopped` record was journaled; restart resumes).
    pub stopped: bool,
}

fn infra(what: &str, err: &dyn std::fmt::Display) -> ModelError {
    ModelError::InvalidConfig(format!("serve: {what}: {err}"))
}

/// The journal's append handle: unbuffered, one `write_all` per line,
/// so a kill never loses a record that was reported as written.
struct JournalWriter {
    file: File,
    path: PathBuf,
}

impl JournalSink for JournalWriter {
    fn append(&mut self, record: &Record) -> Result<(), ModelError> {
        let mut line = record.to_line()?;
        line.push('\n');
        self.file
            .write_all(line.as_bytes())
            .map_err(|e| infra(&format!("append to journal {}", self.path.display()), &e))
    }
}

/// Writes `reports/<id>.jsonl` — the job's schema header followed by
/// its point lines, straight from journal data. The codec's
/// parse→write round trip is byte-stable, so a report rewritten from
/// the journal is byte-identical to one written live.
fn write_report<'a>(
    reports: &Path,
    spec: &JobSpec,
    points: impl Iterator<Item = &'a Json>,
) -> Result<(), ModelError> {
    let mut out = spec.kind.header_line()?;
    out.push('\n');
    for data in points {
        out.push_str(&data.write()?);
        out.push('\n');
    }
    let path = reports.join(format!("{}.jsonl", spec.id));
    fs::write(&path, out).map_err(|e| infra(&format!("write report {}", path.display()), &e))
}

/// Parses the queue against the replayed journal state: journals a
/// rejection for every *new* malformed line (all of them up front,
/// before any job starts), verifies fingerprints of already-journaled
/// lines, and assembles the scheduler's job list.
fn parse_queue(
    queue: &str,
    state: &JournalState,
    journal: &mut dyn JournalSink,
    outcome: &mut ServeOutcome,
) -> Result<Vec<ScheduledJob>, ModelError> {
    let mut jobs: Vec<ScheduledJob> = Vec::new();
    for (n, raw) in queue.lines().enumerate() {
        let lineno = n + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let fp = line_fp(raw);
        if let Some((_, journaled_fp, error)) = state.rejected.iter().find(|(l, _, _)| *l == lineno)
        {
            if *journaled_fp != fp {
                return Err(infra(
                    &format!("queue line {lineno}"),
                    &"line changed under the journal (rejected-record fingerprint mismatch)",
                ));
            }
            outcome.rejected.push((lineno, error.clone()));
            continue;
        }
        let spec = match parse_job(raw).and_then(|spec| {
            if jobs.iter().any(|job| job.spec.id == spec.id) {
                Err(ModelError::InvalidConfig(format!(
                    "duplicate job id '{}'",
                    spec.id
                )))
            } else {
                Ok(spec)
            }
        }) {
            Ok(spec) => spec,
            Err(e) => {
                let error = e.to_string();
                journal.append(&Record::Rejected {
                    line: lineno,
                    fp,
                    error: error.clone(),
                })?;
                outcome.rejected.push((lineno, error));
                continue;
            }
        };
        let (recovered, start_journaled, terminal) = match state.job(&spec.id) {
            Some(progress) => {
                if progress.fp != fp {
                    return Err(infra(
                        &format!("job '{}'", spec.id),
                        &"queue line changed under the journal (fingerprint mismatch)",
                    ));
                }
                if progress.kind != spec.kind_name || progress.total_points != spec.total_points() {
                    return Err(infra(
                        &format!("job '{}'", spec.id),
                        &"journal start record disagrees with the parsed spec",
                    ));
                }
                (progress.points.clone(), true, progress.status.clone())
            }
            None => (Vec::new(), false, None),
        };
        jobs.push(ScheduledJob {
            spec,
            fp,
            recovered,
            start_journaled,
            terminal,
        });
    }
    Ok(jobs)
}

/// Performs one drain of the queue with a default (inert) control
/// block. See [`run_serve_with`].
///
/// # Errors
///
/// See [`run_serve_with`].
pub fn run_serve(cfg: &ServeConfig) -> Result<ServeOutcome, ModelError> {
    run_serve_with(cfg, &ServeControl::default())
}

/// Performs one drain of the queue. See the module docs for the
/// crash-safety and determinism contract. `control` carries shutdown,
/// cancellation and status-board state shared with a socket front-end.
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] on IO failures (including a
/// journal append failing mid-drain — e.g. a full disk — with the
/// journal path named), a corrupt journal (a malformed record *before*
/// the torn tail), or a queue line that changed under the journal
/// (fingerprint mismatch). Job failures and rejected queue lines are
/// *not* errors — they are journaled and reported in the
/// [`ServeOutcome`].
pub fn run_serve_with(
    cfg: &ServeConfig,
    control: &ServeControl,
) -> Result<ServeOutcome, ModelError> {
    let queue = fs::read_to_string(&cfg.queue)
        .map_err(|e| infra(&format!("read queue {}", cfg.queue.display()), &e))?;
    let content = match fs::read_to_string(&cfg.journal) {
        Ok(content) => content,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => {
            return Err(infra(
                &format!("read journal {}", cfg.journal.display()),
                &e,
            ))
        }
    };
    let (records, valid_len) = read_journal(&content)?;
    let state = JournalState::replay(&records)?;
    fs::create_dir_all(&cfg.reports)
        .map_err(|e| infra(&format!("create reports dir {}", cfg.reports.display()), &e))?;

    // Not `truncate(true)`: the valid prefix must survive — only the
    // torn tail past `valid_len` is cut, by the `set_len` below.
    let file = OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(&cfg.journal)
        .map_err(|e| infra(&format!("open journal {}", cfg.journal.display()), &e))?;
    file.set_len(valid_len as u64)
        .map_err(|e| infra("truncate journal torn tail", &e))?;
    let mut journal = JournalWriter {
        file,
        path: cfg.journal.clone(),
    };
    journal
        .file
        .seek(SeekFrom::End(0))
        .map_err(|e| infra("seek journal", &e))?;
    if records.is_empty() {
        journal.append(&Record::Header {
            version: SERVE_SCHEMA_VERSION,
        })?;
    }

    let mut outcome = ServeOutcome::default();
    let jobs = parse_queue(&queue, &state, &mut journal, &mut outcome)?;

    let stop_file = stop_path(&cfg.journal);
    let (results, stopped) = run_schedule(
        &jobs,
        cfg.jobs.max(1),
        cfg.threads,
        control,
        Some(&stop_file),
        &mut journal,
    )?;
    outcome.stopped = stopped;

    for (job, result) in jobs.iter().zip(&results) {
        if let Some(JobStatus::Done { .. }) = &result.status {
            write_report(
                &cfg.reports,
                &job.spec,
                job.recovered.iter().chain(result.new_points.iter()),
            )?;
        }
        outcome.jobs.push(JobSummary {
            id: job.spec.id.clone(),
            kind: job.spec.kind_name.clone(),
            recovered: job.recovered.len(),
            computed: result.new_points.len(),
            evaluations: result.evaluations,
            status: result.status.clone(),
        });
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_threads_resolves_zero_to_all_cores() {
        // `threads=0` reaches the engine as is; the engine reads it as
        // all cores through the one shared resolution.
        assert!(flexray_util::resolve_threads(0) >= 1);
        assert_eq!(flexray_util::resolve_threads(3), 3);
    }

    #[test]
    fn journal_writer_errors_name_the_journal_path() {
        // A directory cannot be written as a file: the append must
        // surface an error naming the journal path, never panic.
        let dir = std::env::temp_dir();
        let file = OpenOptions::new()
            .read(true)
            .open(&dir)
            .expect("open dir read-only");
        let mut writer = JournalWriter {
            file,
            path: dir.clone(),
        };
        let err = writer
            .append(&Record::Header {
                version: SERVE_SCHEMA_VERSION,
            })
            .expect_err("writing a read-only handle fails");
        assert!(
            err.to_string().contains(&dir.display().to_string()),
            "error must name the journal path: {err}"
        );
    }
}
