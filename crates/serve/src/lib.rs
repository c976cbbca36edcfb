//! # flexray-serve
//!
//! A crash-safe analysis-as-a-service daemon over the DATE'07
//! optimisation stack: jobs (grid sweeps, single-axis sweeps, fig9
//! runs, fuzz campaigns) are read from a file-based JSONL job queue,
//! run on the units→points engine the `grid` and `fuzz` harnesses run
//! on ([`flexray_bench::engine`], over the shared work-stealing pool;
//! each unit's candidate evaluations additionally fan out across the
//! warm multi-session `Evaluator` pool via `eval_threads`), and every
//! completed point is streamed to an append-only, schema-versioned
//! JSONL *journal* ([`journal`]) the moment it lands.
//!
//! The journal is the service contract:
//!
//! * **Crash safety** — the daemon may be SIGKILLed at any instant; a
//!   restart replays the journal, truncates the torn tail (at most the
//!   final, newline-less line), and continues exactly where the journal
//!   ends.
//! * **No recomputation** — jobs with an `end` record are never
//!   re-evaluated (their reports are rewritten from journal data);
//!   in-flight jobs resume from their last journaled point.
//! * **Determinism** — every journal record is a pure function of the
//!   queue content (wall-clock fields are zeroed: the *deterministic
//!   projection*), and points are journaled strictly in queue/point
//!   order, so a killed-and-replayed run's journal and reports are
//!   **byte-identical** to an uninterrupted run's. The kill-and-replay
//!   differential suite in `tests/` locks this down.
//!
//! [`spec`] defines the job-spec line format (`flexray-serve-job`
//! schema v1), [`journal`] the journal record format (`flexray-serve`
//! schema v2), [`scheduler`] what the engine's steps journal (up to
//! `jobs=K` jobs share the pool while the journal stays a deterministic
//! function of `(queue, K)`), [`control`] the shared
//! shutdown/cancel/status surface, [`socket`] the line-oriented JSONL
//! TCP front-end (`submit`/`status`/`cancel`/`drain`/`shutdown`), and
//! [`daemon`] the queue-draining engine behind the `flexray-serve`
//! binary.

#![warn(missing_docs)]
#![warn(clippy::all)]
#![deny(deprecated)]

pub mod control;
pub mod daemon;
pub mod journal;
pub mod scheduler;
pub mod socket;
pub mod spec;

pub use control::{stop_path, JobView, ServeControl};
pub use daemon::{run_serve, run_serve_with, JobSummary, ServeConfig, ServeOutcome};
pub use journal::{
    read_journal, JobStatus, JournalSink, JournalState, Record, SERVE_SCHEMA, SERVE_SCHEMA_VERSION,
};
pub use scheduler::{run_schedule, JobResult, ScheduledJob};
pub use socket::{handle_request, spawn_listener, SocketShared};
pub use spec::{parse_job, JobKind, JobSpec, JOB_SCHEMA, JOB_SCHEMA_VERSION};
