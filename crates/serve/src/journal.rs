//! The `flexray-serve` JSONL journal schema (v2).
//!
//! The journal is an append-only file of one JSON record per line:
//!
//! * a header — `{"schema":"flexray-serve","version":2}`;
//! * `{"rec":"rejected","line":N,"fp":"…","error":"…"}` — queue line
//!   `N` (1-based) failed to parse and was skipped;
//! * `{"rec":"start","job":ID,"kind":K,"fp":"…","total_points":N}` —
//!   a job began executing;
//! * `{"rec":"point","job":ID,"data":{…}}` — one completed point, in
//!   point order; `data` is the exact report line of the point's
//!   schema (`flexray-grid` point or `flexray-fuzz` point), in the
//!   *deterministic projection* (wall-clock fields zeroed);
//! * `{"rec":"end","job":ID,"status":"done","points":N}` or
//!   `{"rec":"end","job":ID,"status":"failed","error":"…"}`;
//! * `{"rec":"stopped"}` — the daemon exited a drain early and cleanly
//!   (stop file or `shutdown` request); every record before it is
//!   intact and the run is resumable. Replay ignores it: it marks *the
//!   journal stopped short*, not any change of job state.
//!
//! `fp` fingerprints the raw queue line ([`line_fp`]); replay refuses
//! a journal whose fingerprints disagree with the queue, so a journal
//! can only be replayed against the queue that wrote it (the queue is
//! append-only: existing lines must not change).
//!
//! [`read_journal`] recovers the longest valid newline-terminated
//! record prefix, tolerating exactly one torn final line (the
//! signature of a kill mid-append); [`JournalState::replay`] folds the
//! records into per-job progress with full structural validation
//! (start before point/end, contiguous point indices, nothing after
//! end), one [`JournalState::apply`] per record — the same transition
//! a live daemon applies as it appends.

use flexray_bench::report::{count_field, malformed, str_field, Json};
use flexray_model::{mix_bytes, ModelError};

/// Schema identifier carried by the journal header.
pub const SERVE_SCHEMA: &str = "flexray-serve";
/// Version of the journal record layout; bump on any schema change
/// (the golden test enforces the pairing). v2 added the `stopped`
/// record for clean early exits.
pub const SERVE_SCHEMA_VERSION: u32 = 2;

/// Fingerprint of one raw queue line, as the 16-hex-digit string
/// journal records carry: [`mix_bytes`] of the line.
#[must_use]
pub fn line_fp(line: &str) -> String {
    format!("{:016x}", mix_bytes(line.as_bytes()))
}

/// Terminal status of a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Every point completed and was journaled.
    Done {
        /// Number of journaled points.
        points: usize,
    },
    /// A unit failed; the journal holds the points completed before
    /// the failing one.
    Failed {
        /// The first failing unit's error, in unit order.
        error: String,
    },
}

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// The schema header (always the first record).
    Header {
        /// Record-layout version ([`SERVE_SCHEMA_VERSION`]).
        version: u32,
    },
    /// A queue line was rejected and skipped.
    Rejected {
        /// 1-based queue line number.
        line: usize,
        /// Fingerprint of the raw queue line.
        fp: String,
        /// The parse error.
        error: String,
    },
    /// A job began executing.
    Start {
        /// Job id.
        job: String,
        /// Job kind (`grid`/`sweep`/`fig9`/`fuzz`).
        kind: String,
        /// Fingerprint of the raw queue line.
        fp: String,
        /// Number of points the job will journal.
        total_points: usize,
    },
    /// One completed point (in point order).
    Point {
        /// Job id.
        job: String,
        /// The point's report-line JSON, deterministic projection.
        data: Json,
    },
    /// A job reached a terminal status.
    End {
        /// Job id.
        job: String,
        /// Terminal status.
        status: JobStatus,
    },
    /// The daemon exited this drain early and cleanly (stop file or
    /// socket `shutdown`); the run is resumable. Carries no state:
    /// replay skips it.
    Stopped,
}

impl Record {
    /// Serialises the record as one journal line (no newline).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] when the record carries a
    /// non-finite number (e.g. a point payload with a NaN statistic),
    /// which has no JSON representation.
    pub fn to_line(&self) -> Result<String, ModelError> {
        match self {
            Record::Header { version } => Json::Obj(vec![
                ("schema".into(), Json::Str(SERVE_SCHEMA.into())),
                ("version".into(), Json::Num(f64::from(*version))),
            ]),
            Record::Rejected { line, fp, error } => Json::Obj(vec![
                ("rec".into(), Json::Str("rejected".into())),
                ("line".into(), Json::Num(*line as f64)),
                ("fp".into(), Json::Str(fp.clone())),
                ("error".into(), Json::Str(error.clone())),
            ]),
            Record::Start {
                job,
                kind,
                fp,
                total_points,
            } => Json::Obj(vec![
                ("rec".into(), Json::Str("start".into())),
                ("job".into(), Json::Str(job.clone())),
                ("kind".into(), Json::Str(kind.clone())),
                ("fp".into(), Json::Str(fp.clone())),
                ("total_points".into(), Json::Num(*total_points as f64)),
            ]),
            Record::Point { job, data } => Json::Obj(vec![
                ("rec".into(), Json::Str("point".into())),
                ("job".into(), Json::Str(job.clone())),
                ("data".into(), data.clone()),
            ]),
            Record::End { job, status } => {
                let mut members = vec![
                    ("rec".into(), Json::Str("end".into())),
                    ("job".into(), Json::Str(job.clone())),
                ];
                match status {
                    JobStatus::Done { points } => {
                        members.push(("status".into(), Json::Str("done".into())));
                        members.push(("points".into(), Json::Num(*points as f64)));
                    }
                    JobStatus::Failed { error } => {
                        members.push(("status".into(), Json::Str("failed".into())));
                        members.push(("error".into(), Json::Str(error.clone())));
                    }
                }
                Json::Obj(members)
            }
            Record::Stopped => Json::Obj(vec![("rec".into(), Json::Str("stopped".into()))]),
        }
        .write()
    }

    /// Parses one journal line.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] on malformed JSON, an
    /// unknown `rec` tag, or a missing / mistyped field.
    pub fn parse(line: &str) -> Result<Record, ModelError> {
        let json = Json::parse(line)?;
        if let Some(schema) = json.get("schema") {
            let schema = schema
                .as_str()
                .ok_or_else(|| malformed("journal 'schema' is not a string"))?;
            if schema != SERVE_SCHEMA {
                return Err(malformed(&format!(
                    "journal schema is '{schema}', expected '{SERVE_SCHEMA}'"
                )));
            }
            let version: u32 = count_field(&json, "version")?;
            if version != SERVE_SCHEMA_VERSION {
                return Err(malformed(&format!(
                    "journal schema version {version} unsupported (this build writes \
                     {SERVE_SCHEMA_VERSION})"
                )));
            }
            return Ok(Record::Header { version });
        }
        match str_field(&json, "rec")? {
            "rejected" => Ok(Record::Rejected {
                line: count_field(&json, "line")?,
                fp: str_field(&json, "fp")?.to_owned(),
                error: str_field(&json, "error")?.to_owned(),
            }),
            "start" => Ok(Record::Start {
                job: str_field(&json, "job")?.to_owned(),
                kind: str_field(&json, "kind")?.to_owned(),
                fp: str_field(&json, "fp")?.to_owned(),
                total_points: count_field(&json, "total_points")?,
            }),
            "point" => Ok(Record::Point {
                job: str_field(&json, "job")?.to_owned(),
                data: json
                    .get("data")
                    .ok_or_else(|| malformed("missing field 'data'"))?
                    .clone(),
            }),
            "end" => {
                let job = str_field(&json, "job")?.to_owned();
                let status = match str_field(&json, "status")? {
                    "done" => JobStatus::Done {
                        points: count_field(&json, "points")?,
                    },
                    "failed" => JobStatus::Failed {
                        error: str_field(&json, "error")?.to_owned(),
                    },
                    other => {
                        return Err(malformed(&format!("unknown end status '{other}'")));
                    }
                };
                Ok(Record::End { job, status })
            }
            "stopped" => Ok(Record::Stopped),
            other => Err(malformed(&format!("unknown journal record '{other}'"))),
        }
    }
}

/// Recovers `(records, valid prefix byte length)` from raw journal
/// content.
///
/// Only complete, newline-terminated lines count; a torn final line
/// (no trailing newline — the signature of a kill mid-append) is
/// dropped, and the returned byte length is where appending must
/// resume (the daemon truncates the file to it). A malformed
/// newline-terminated line is an error: the journal is machine-written
/// and mid-file corruption must not be silently skipped.
///
/// Empty content yields no records — a fresh journal.
///
/// # Errors
///
/// Returns [`ModelError::InvalidConfig`] on a malformed complete line.
pub fn read_journal(content: &str) -> Result<(Vec<Record>, usize), ModelError> {
    let mut records = Vec::new();
    let mut valid_len = 0usize;
    let mut offset = 0usize;
    for line in content.split_inclusive('\n') {
        if !line.ends_with('\n') {
            break; // torn tail
        }
        let record = Record::parse(line.trim_end_matches('\n')).map_err(|e| {
            ModelError::InvalidConfig(format!(
                "journal byte {offset}: corrupt record (not a torn tail): {e}"
            ))
        })?;
        records.push(record);
        offset += line.len();
        valid_len = offset;
    }
    Ok((records, valid_len))
}

/// Where journal records go as they are produced.
///
/// The daemon's sink appends each record to the journal file with one
/// unbuffered write and nothing is fsync'd: a record whose append
/// returned survives a kill of the process, not a power loss or an
/// operating-system crash. Tests substitute in-memory or failing
/// sinks. An `Err` from [`append`](JournalSink::append) must abort the
/// drain — the scheduler propagates it and the daemon exits with code 1
/// naming the journal path, never panicking.
pub trait JournalSink {
    /// Appends one record.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] when the record cannot be
    /// serialised or the underlying medium refuses the write (e.g. a
    /// full disk); the message names the journal path.
    fn append(&mut self, record: &Record) -> Result<(), ModelError>;
}

/// Per-job progress recovered from the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct JobProgress {
    /// Job kind from the start record.
    pub kind: String,
    /// Fingerprint of the raw queue line that defined the job.
    pub fp: String,
    /// Total points the start record announced.
    pub total_points: usize,
    /// Journaled point data, contiguous from point 0.
    pub points: Vec<Json>,
    /// Terminal status, if the job's end record was journaled.
    pub status: Option<JobStatus>,
}

/// The fold of a journal: per-job progress plus the rejected lines.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalState {
    /// `(job id, progress)` in start-record order.
    pub jobs: Vec<(String, JobProgress)>,
    /// `(queue line number, fp, error)` of journaled rejections.
    pub rejected: Vec<(usize, String, String)>,
    /// Records applied so far (the header is record 0).
    records: usize,
}

impl JournalState {
    /// Progress of job `id`, if journaled.
    #[must_use]
    pub fn job(&self, id: &str) -> Option<&JobProgress> {
        self.jobs.iter().find(|(j, _)| j == id).map(|(_, p)| p)
    }

    /// Folds a record sequence into per-job progress: [`apply`] over
    /// every record, in order.
    ///
    /// [`apply`]: JournalState::apply
    ///
    /// # Errors
    ///
    /// The first error [`apply`](JournalState::apply) returns.
    pub fn replay(records: &[Record]) -> Result<JournalState, ModelError> {
        let mut state = JournalState::default();
        for record in records {
            state.apply(record)?;
        }
        Ok(state)
    }

    /// Advances the state by the journal's next record, validating the
    /// journal's structural invariants. The one transition both
    /// [`replay`](JournalState::replay) and the live daemon's journal
    /// sink use.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] when the first record is
    /// not the header (or a header reappears), a point or end record
    /// precedes its start, a start or rejected record repeats, points
    /// arrive out of order, records follow a job's end, or a done
    /// record's point count disagrees with the journaled points. The
    /// state is unchanged on error.
    pub fn apply(&mut self, record: &Record) -> Result<(), ModelError> {
        let fail = |msg: String| Err(ModelError::InvalidConfig(format!("journal replay: {msg}")));
        let k = self.records;
        match record {
            Record::Header { .. } => {
                if k != 0 {
                    return fail(format!("header reappears at record {k}"));
                }
            }
            _ if k == 0 => {
                return fail("first record is not the schema header".into());
            }
            Record::Rejected { line, fp, error } => {
                if self.rejected.iter().any(|(l, _, _)| l == line) {
                    return fail(format!("queue line {line} rejected twice"));
                }
                self.rejected.push((*line, fp.clone(), error.clone()));
            }
            Record::Start {
                job,
                kind,
                fp,
                total_points,
            } => {
                if self.job(job).is_some() {
                    return fail(format!("job '{job}' started twice"));
                }
                self.jobs.push((
                    job.clone(),
                    JobProgress {
                        kind: kind.clone(),
                        fp: fp.clone(),
                        total_points: *total_points,
                        points: Vec::new(),
                        status: None,
                    },
                ));
            }
            Record::Point { job, data } => {
                let Some((_, progress)) = self.jobs.iter_mut().find(|(j, _)| j == job) else {
                    return fail(format!("point for job '{job}' before its start"));
                };
                if progress.status.is_some() {
                    return fail(format!("point for job '{job}' after its end"));
                }
                let index: usize = count_field(data, "point")?;
                if index != progress.points.len() {
                    return fail(format!(
                        "job '{job}' point {index} journaled after {} point(s)",
                        progress.points.len()
                    ));
                }
                if index >= progress.total_points {
                    return fail(format!(
                        "job '{job}' point {index} beyond its {} total",
                        progress.total_points
                    ));
                }
                progress.points.push(data.clone());
            }
            Record::End { job, status } => {
                let Some((_, progress)) = self.jobs.iter_mut().find(|(j, _)| j == job) else {
                    return fail(format!("end for job '{job}' before its start"));
                };
                if progress.status.is_some() {
                    return fail(format!("job '{job}' ended twice"));
                }
                if let JobStatus::Done { points } = status {
                    if *points != progress.points.len() || *points != progress.total_points {
                        return fail(format!(
                            "job '{job}' done with {points} point(s) but journaled {} of {}",
                            progress.points.len(),
                            progress.total_points
                        ));
                    }
                }
                progress.status = Some(status.clone());
            }
            // A stopped marker only says the drain exited early; it
            // changes no job state and may appear any number of times
            // (one per interrupted drain).
            Record::Stopped => {}
        }
        self.records += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(job: &str, index: usize) -> Record {
        Record::Point {
            job: job.into(),
            data: Json::Obj(vec![("point".into(), Json::Num(index as f64))]),
        }
    }

    fn journal_text(records: &[Record]) -> String {
        records
            .iter()
            .map(|r| r.to_line().expect("finite record") + "\n")
            .collect::<String>()
    }

    fn well_formed() -> Vec<Record> {
        vec![
            Record::Header {
                version: SERVE_SCHEMA_VERSION,
            },
            Record::Rejected {
                line: 2,
                fp: line_fp("garbage"),
                error: "malformed".into(),
            },
            Record::Start {
                job: "g1".into(),
                kind: "grid".into(),
                fp: line_fp("spec"),
                total_points: 2,
            },
            point("g1", 0),
            point("g1", 1),
            Record::End {
                job: "g1".into(),
                status: JobStatus::Done { points: 2 },
            },
        ]
    }

    #[test]
    fn records_round_trip_through_their_lines() {
        for record in well_formed() {
            let line = record.to_line().expect("finite record");
            assert_eq!(Record::parse(&line).expect("parses"), record, "{line}");
        }
        let failed = Record::End {
            job: "g1".into(),
            status: JobStatus::Failed {
                error: "boom \"quoted\"".into(),
            },
        };
        assert_eq!(
            Record::parse(&failed.to_line().expect("finite record")).expect("parses"),
            failed
        );
        let stopped = Record::Stopped;
        let line = stopped.to_line().expect("finite record");
        assert_eq!(line, "{\"rec\":\"stopped\"}");
        assert_eq!(Record::parse(&line).expect("parses"), stopped);
    }

    #[test]
    fn counts_are_integers_not_truncated_numbers() {
        for (line, field) in [
            (r#"{"schema":"flexray-serve","version":2.9}"#, "version"),
            (
                r#"{"rec":"rejected","line":-4,"fp":"0","error":"e"}"#,
                "line",
            ),
            (
                r#"{"rec":"start","job":"g1","kind":"grid","fp":"0","total_points":1e16}"#,
                "total_points",
            ),
            (
                r#"{"rec":"end","job":"g1","status":"done","points":1.5}"#,
                "points",
            ),
        ] {
            let err = Record::parse(line).expect_err(line).to_string();
            assert!(
                err.contains(&format!("field '{field}' is not a non-negative integer")),
                "{line}: {err}"
            );
        }
        let point = Record::Point {
            job: "g1".into(),
            data: Json::parse(r#"{"point":0.5}"#).expect("json"),
        };
        let records = [
            Record::Header {
                version: SERVE_SCHEMA_VERSION,
            },
            Record::Start {
                job: "g1".into(),
                kind: "grid".into(),
                fp: "0".into(),
                total_points: 1,
            },
            point,
        ];
        let err = JournalState::replay(&records).expect_err("fractional point index");
        assert!(err.to_string().contains("field 'point'"), "{err}");
    }

    #[test]
    fn replay_ignores_stopped_markers_anywhere_after_the_header() {
        let mut records = well_formed();
        // One per interrupted drain: between jobs, mid-job, trailing.
        records.insert(2, Record::Stopped);
        records.insert(5, Record::Stopped);
        records.push(Record::Stopped);
        let state = JournalState::replay(&records).expect("stopped markers are transparent");
        let progress = state.job("g1").expect("job recovered");
        assert_eq!(progress.points.len(), 2);
        assert_eq!(progress.status, Some(JobStatus::Done { points: 2 }));
        // But not *before* the header: the header-first invariant wins.
        assert!(JournalState::replay(&[Record::Stopped]).is_err());
    }

    #[test]
    fn line_fp_is_deterministic_and_content_sensitive() {
        assert_eq!(line_fp("abc"), line_fp("abc"));
        assert_ne!(line_fp("abc"), line_fp("abd"));
        assert_ne!(line_fp("abc"), line_fp("abc "));
        assert_eq!(line_fp("abc").len(), 16);
    }

    #[test]
    fn torn_tail_recovers_to_the_valid_prefix_at_every_offset() {
        let text = journal_text(&well_formed());
        let (all, full_len) = read_journal(&text).expect("full journal reads");
        assert_eq!(all.len(), 6);
        assert_eq!(full_len, text.len());
        for cut in 0..text.len() {
            let (records, valid_len) = read_journal(&text[..cut])
                .unwrap_or_else(|e| panic!("cut {cut}: torn tail must recover, got {e}"));
            assert!(valid_len <= cut, "cut {cut}");
            assert_eq!(
                records,
                all[..records.len()],
                "cut {cut}: not a record prefix"
            );
            assert_eq!(
                text[..valid_len],
                journal_text(&records),
                "cut {cut}: valid_len does not cover exactly the recovered records"
            );
        }
    }

    #[test]
    fn complete_corrupt_lines_are_errors_not_torn_tails() {
        let mut text = journal_text(&well_formed());
        text.push_str("{\"rec\":\"mystery\"}\n");
        assert!(read_journal(&text).is_err(), "corrupt complete line");
        let mid = journal_text(&well_formed()).replace("\"rec\":\"start\"", "\"rec\":\"sturt\"");
        assert!(read_journal(&mid).is_err(), "corrupt mid-file line");
    }

    #[test]
    fn replay_validates_journal_structure() {
        let state = JournalState::replay(&well_formed()).expect("well-formed replays");
        assert_eq!(
            state.rejected,
            vec![(2, line_fp("garbage"), "malformed".to_owned())]
        );
        let progress = state.job("g1").expect("job recovered");
        assert_eq!(progress.points.len(), 2);
        assert_eq!(progress.status, Some(JobStatus::Done { points: 2 }));

        let header = Record::Header {
            version: SERVE_SCHEMA_VERSION,
        };
        let bad: Vec<(Vec<Record>, &str)> = vec![
            (vec![point("g1", 0)], "missing header"),
            (vec![header.clone(), header.clone()], "double header"),
            (vec![header.clone(), point("g1", 0)], "point before start"),
            (
                vec![
                    header.clone(),
                    Record::End {
                        job: "g1".into(),
                        status: JobStatus::Done { points: 0 },
                    },
                ],
                "end before start",
            ),
            (
                vec![
                    header.clone(),
                    Record::Start {
                        job: "g1".into(),
                        kind: "grid".into(),
                        fp: String::new(),
                        total_points: 2,
                    },
                    point("g1", 1),
                ],
                "point out of order",
            ),
            (
                vec![
                    header.clone(),
                    Record::Start {
                        job: "g1".into(),
                        kind: "grid".into(),
                        fp: String::new(),
                        total_points: 2,
                    },
                    point("g1", 0),
                    Record::End {
                        job: "g1".into(),
                        status: JobStatus::Done { points: 1 },
                    },
                ],
                "done with missing points",
            ),
        ];
        for (records, what) in bad {
            assert!(
                JournalState::replay(&records).is_err(),
                "accepted journal with {what}"
            );
        }
    }
}
