//! The concurrent job scheduler: up to `slots` jobs share the
//! work-stealing pool at once, yet the journal stays a deterministic
//! pure function of `(queue content, slots)`.
//!
//! # The static plan
//!
//! Determinism under concurrency comes from separating *what order
//! records take* from *what order units compute*. [`plan_events`]
//! builds a **static event plan** — a round-robin interleaving of
//! every job's `start`/unit/`point`/`end` events, admitting up to
//! `slots` jobs at a time — from nothing but the jobs' shapes (point
//! and unit counts). The pool then computes units in *any* order
//! (work-stealing, out-of-order completion), while the walk buffers
//! results and journals records strictly in plan order.
//!
//! Crucially the plan covers **all** queued jobs, including ones the
//! journal already shows as terminal, with the already-journaled
//! events *skipped during the walk* rather than dropped from the plan.
//! Dropping them would shift the admission interleave of the remaining
//! jobs, and a restarted drain would journal a different record order
//! than the uninterrupted run — breaking the byte-identity contract.
//! With the plan static, any prefix of the journal plus the restart's
//! continuation reproduces the reference byte-for-byte.
//!
//! # Stopping
//!
//! A stop request (stop file or socket `shutdown`) flips the pool's
//! quit flag: workers stop claiming units, in-flight units finish and
//! are consumed, the walk journals everything up to the first missing
//! unit and then appends a `stopped` record. The journal written is a
//! prefix of the reference (plus the `stopped` marker, which replay
//! ignores), so the run is resumable.
//!
//! Failures run to completion: a failed unit does not abort its job's
//! remaining units (their timing would be racy); the first error *in
//! unit order* becomes the job's `failed` status and later points are
//! suppressed — exactly the serial engine's semantics. A cancellation
//! request short-circuits the job's not-yet-claimed units to a fixed
//! `cancelled by request` failure.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

use flexray_bench::fuzz::{fuzz_app, FuzzAppOutcome, FuzzPoint};
use flexray_bench::grid::{solve_app, AppRun, GridPoint};
use flexray_bench::report::{point_to_json, Json};
use flexray_model::ModelError;
use flexray_util::scoped_consume_until;

use crate::control::{JobView, ServeControl};
use crate::journal::{JobStatus, JournalSink, Record};
use crate::spec::{JobKind, JobSpec};

/// The shape of one job, as far as the plan cares: how many points it
/// journals and how many units make up each point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanShape {
    /// Points the job journals.
    pub points: usize,
    /// Units (app runs) per point.
    pub units_per_point: usize,
}

/// One event of the static plan. `job` indexes the input job slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Job admission: its `start` record's position in the journal.
    Start(usize),
    /// One unit's result is consumed (in per-job unit order).
    Unit {
        /// Job index.
        job: usize,
        /// Unit index within the job.
        unit: usize,
    },
    /// A point boundary: the point's record position in the journal.
    Point {
        /// Job index.
        job: usize,
        /// Point index within the job.
        point: usize,
    },
    /// Job completion: its `end` record's position in the journal.
    End(usize),
}

/// Builds the static event plan: round-robin over up to `slots`
/// concurrently admitted jobs, in job order, one unit per turn. A
/// finished job immediately frees its slot to the next pending job. A
/// pure function of `(shapes, slots)` — the whole determinism story
/// rests on that.
#[must_use]
pub fn plan_events(shapes: &[PlanShape], slots: usize) -> Vec<Event> {
    let slots = slots.max(1);
    let mut events = Vec::new();
    let mut pending = 0usize;
    // (job, next unit) per occupied slot, in admission order.
    let mut active: Vec<(usize, usize)> = Vec::new();
    let admit = |events: &mut Vec<Event>, active: &mut Vec<(usize, usize)>, pending: &mut usize| {
        while active.len() < slots && *pending < shapes.len() {
            let job = *pending;
            *pending += 1;
            events.push(Event::Start(job));
            if shapes[job].points * shapes[job].units_per_point == 0 {
                events.push(Event::End(job));
            } else {
                active.push((job, 0));
            }
        }
    };
    admit(&mut events, &mut active, &mut pending);
    let mut turn = 0usize;
    while !active.is_empty() {
        if turn >= active.len() {
            turn = 0;
        }
        let (job, unit) = active[turn];
        let shape = shapes[job];
        events.push(Event::Unit { job, unit });
        if (unit + 1) % shape.units_per_point == 0 {
            events.push(Event::Point {
                job,
                point: unit / shape.units_per_point,
            });
        }
        if unit + 1 == shape.points * shape.units_per_point {
            events.push(Event::End(job));
            active.remove(turn);
            // The freed slot admits the next pending job at the *end*
            // of the rotation; `turn` stays put — the job that shifted
            // into this slot takes the next turn.
            admit(&mut events, &mut active, &mut pending);
        } else {
            active[turn].1 = unit + 1;
            turn += 1;
        }
    }
    events
}

/// One job handed to [`run_schedule`]: the parsed spec plus what the
/// journal already knows about it.
#[derive(Debug, Clone)]
pub struct ScheduledJob {
    /// The parsed job spec.
    pub spec: JobSpec,
    /// Fingerprint of the raw queue line (for the `start` record).
    pub fp: String,
    /// Point data recovered from the journal, contiguous from point 0.
    pub recovered: Vec<Json>,
    /// Whether the journal already holds the job's `start` record.
    pub start_journaled: bool,
    /// The journaled terminal status, if any. Terminal jobs stay in
    /// the plan (their events are skipped) but compute nothing.
    pub terminal: Option<JobStatus>,
}

/// What [`run_schedule`] did for one job, index-aligned with its
/// input slice.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Points journaled by this drain, in point order.
    pub new_points: Vec<Json>,
    /// Optimiser candidate evaluations performed by this drain.
    pub evaluations: u64,
    /// Terminal status — `None` when the drain stopped with the job
    /// still in flight (resumable on restart).
    pub status: Option<JobStatus>,
}

fn units_per_point(spec: &JobSpec) -> usize {
    spec.kind.grid().apps_per_point
}

/// Whether a unit must actually compute: terminal jobs and units of
/// already-journaled points are skipped. Must match between plan-time
/// compute-list construction and the walk, record for record.
fn needs_compute(job: &ScheduledJob, unit: usize) -> bool {
    job.terminal.is_none() && unit >= job.recovered.len() * units_per_point(&job.spec)
}

enum Computed {
    Grid(AppRun),
    Fuzz(FuzzAppOutcome),
}

enum UnitOutcome {
    Computed(Computed, u64),
    Failed(String),
    Cancelled,
}

fn compute_unit(job: &ScheduledJob, unit: usize, control: &ServeControl) -> UnitOutcome {
    if control.is_cancelled(&job.spec.id) {
        return UnitOutcome::Cancelled;
    }
    let upp = units_per_point(&job.spec);
    let (point, app) = (unit / upp, unit % upp);
    match &job.spec.kind {
        JobKind::Grid(cfg) => match solve_app(cfg, &cfg.point(point), app) {
            Ok(run) => {
                let evals: u64 = run.0.iter().map(|r| r.evaluations as u64).sum();
                UnitOutcome::Computed(Computed::Grid(run), evals)
            }
            Err(e) => UnitOutcome::Failed(e.to_string()),
        },
        JobKind::Fuzz(cfg) => {
            let spec = cfg.grid.point(point);
            match fuzz_app(cfg, &spec, app, cfg.grid.seed(spec.index, app)) {
                Ok(outcome) => {
                    let evals = outcome.evaluations as u64;
                    UnitOutcome::Computed(Computed::Fuzz(outcome), evals)
                }
                Err(e) => UnitOutcome::Failed(e.to_string()),
            }
        }
    }
}

/// Aggregates one point's unit outcomes into its journal `data`, in
/// the deterministic projection (wall-clock zeroed).
fn aggregate_point(spec: &JobSpec, point: usize, outcomes: Vec<Computed>) -> Json {
    match &spec.kind {
        JobKind::Grid(cfg) => {
            let runs: Vec<AppRun> = outcomes
                .into_iter()
                .map(|c| match c {
                    Computed::Grid(run) => run,
                    Computed::Fuzz(_) => unreachable!("grid job computes grid units"),
                })
                .collect();
            let mut point = GridPoint::from_apps(cfg, &cfg.point(point), runs);
            for (_, stats) in &mut point.algos {
                // Deterministic projection: wall-clock is the one
                // field of a point that is not a function of the
                // queue, so the journal zeroes it.
                stats.avg_time_s = 0.0;
            }
            point_to_json(&point)
        }
        JobKind::Fuzz(cfg) => {
            let apps: Vec<FuzzAppOutcome> = outcomes
                .into_iter()
                .map(|c| match c {
                    Computed::Fuzz(outcome) => outcome,
                    Computed::Grid(_) => unreachable!("fuzz job computes fuzz units"),
                })
                .collect();
            FuzzPoint::from_apps(&cfg.grid.point(point), apps).to_json()
        }
    }
}

struct WalkJob {
    current: Vec<Computed>,
    failed: Option<String>,
    new_points: Vec<Json>,
    evaluations: u64,
    status: Option<JobStatus>,
}

struct Walk {
    next_event: usize,
    next_compute: usize,
    buffer: Vec<Option<UnitOutcome>>,
    jobs: Vec<WalkJob>,
}

fn publish_view(control: &ServeControl, job: &ScheduledJob, walk_job: &WalkJob) {
    let points = job.recovered.len() + walk_job.new_points.len();
    let (state, error, points) = match &walk_job.status {
        None => ("running", None, points),
        Some(JobStatus::Done { points }) => ("done", None, *points),
        Some(JobStatus::Failed { error }) => ("failed", Some(error.clone()), points),
    };
    control.publish(
        &job.spec.id,
        JobView {
            kind: job.spec.kind_name.clone(),
            points,
            total_points: job.spec.total_points(),
            state: state.into(),
            error,
        },
    );
}

/// Processes plan events in order until one needs a unit result that
/// has not landed yet (the walk *stalls* there — a later consume call
/// resumes it). Journal-append errors abort the drain.
fn advance(
    walk: &mut Walk,
    events: &[Event],
    jobs: &[ScheduledJob],
    control: &ServeControl,
    journal: &mut dyn JournalSink,
) -> Result<(), ModelError> {
    while walk.next_event < events.len() {
        match events[walk.next_event] {
            Event::Start(j) => {
                let job = &jobs[j];
                if !job.start_journaled {
                    journal.append(&Record::Start {
                        job: job.spec.id.clone(),
                        kind: job.spec.kind_name.clone(),
                        fp: job.fp.clone(),
                        total_points: job.spec.total_points(),
                    })?;
                }
            }
            Event::Unit { job, unit } => {
                if needs_compute(&jobs[job], unit) {
                    let Some(outcome) = walk.buffer[walk.next_compute].take() else {
                        return Ok(()); // stall: result not landed yet
                    };
                    walk.next_compute += 1;
                    let walk_job = &mut walk.jobs[job];
                    match outcome {
                        UnitOutcome::Computed(computed, evals) => {
                            walk_job.evaluations += evals;
                            if walk_job.failed.is_none() {
                                walk_job.current.push(computed);
                            }
                        }
                        UnitOutcome::Failed(error) => {
                            if walk_job.failed.is_none() {
                                walk_job.failed = Some(error);
                            }
                        }
                        UnitOutcome::Cancelled => {
                            if walk_job.failed.is_none() {
                                walk_job.failed = Some("cancelled by request".into());
                            }
                        }
                    }
                }
            }
            Event::Point { job, point } => {
                let scheduled = &jobs[job];
                let fresh = scheduled.terminal.is_none()
                    && point >= scheduled.recovered.len()
                    && walk.jobs[job].failed.is_none();
                if fresh {
                    let outcomes = std::mem::take(&mut walk.jobs[job].current);
                    let data = aggregate_point(&scheduled.spec, point, outcomes);
                    journal.append(&Record::Point {
                        job: scheduled.spec.id.clone(),
                        data: data.clone(),
                    })?;
                    walk.jobs[job].new_points.push(data);
                    publish_view(control, scheduled, &walk.jobs[job]);
                } else {
                    // Recovered, terminal or failure-suppressed: any
                    // buffered outcomes are dropped, not journaled.
                    walk.jobs[job].current.clear();
                }
            }
            Event::End(j) => {
                let scheduled = &jobs[j];
                if scheduled.terminal.is_none() {
                    let walk_job = &mut walk.jobs[j];
                    let status = match walk_job.failed.take() {
                        Some(error) => JobStatus::Failed { error },
                        None => JobStatus::Done {
                            points: scheduled.spec.total_points(),
                        },
                    };
                    journal.append(&Record::End {
                        job: scheduled.spec.id.clone(),
                        status: status.clone(),
                    })?;
                    walk_job.status = Some(status);
                    publish_view(control, scheduled, &walk.jobs[j]);
                }
            }
        }
        walk.next_event += 1;
    }
    Ok(())
}

/// Runs the drain's execution phase: plans, computes, journals.
///
/// Returns `(per-job results, stopped)`, index-aligned with `jobs`;
/// `stopped` is `true` when a stop request halted the drain before
/// the plan completed (a `stopped` record was journaled and the run
/// is resumable).
///
/// # Errors
///
/// Returns the journal sink's error when an append fails (e.g. a full
/// disk) — the drain aborts; everything journaled before the failure
/// is durable and a restart resumes from it.
pub fn run_schedule(
    jobs: &[ScheduledJob],
    slots: usize,
    threads: usize,
    control: &ServeControl,
    stop_file: Option<&Path>,
    journal: &mut dyn JournalSink,
) -> Result<(Vec<JobResult>, bool), ModelError> {
    let shapes: Vec<PlanShape> = jobs
        .iter()
        .map(|job| PlanShape {
            points: job.spec.total_points(),
            units_per_point: units_per_point(&job.spec),
        })
        .collect();
    let events = plan_events(&shapes, slots);
    let compute: Vec<(usize, usize)> = events
        .iter()
        .filter_map(|event| match *event {
            Event::Unit { job, unit } if needs_compute(&jobs[job], unit) => Some((job, unit)),
            _ => None,
        })
        .collect();
    let mut walk = Walk {
        next_event: 0,
        next_compute: 0,
        buffer: (0..compute.len()).map(|_| None).collect(),
        jobs: jobs
            .iter()
            .map(|job| WalkJob {
                current: Vec::new(),
                failed: None,
                new_points: Vec::new(),
                evaluations: 0,
                status: job.terminal.clone(),
            })
            .collect(),
    };
    for (j, job) in jobs.iter().enumerate() {
        publish_view(control, job, &walk.jobs[j]);
    }

    let mut sink_err: Option<ModelError> = None;
    if let Err(e) = advance(&mut walk, &events, jobs, control, journal) {
        sink_err = Some(e);
    }
    if sink_err.is_none() && !compute.is_empty() {
        let quit = AtomicBool::new(false);
        if control.stop_requested(stop_file) {
            quit.store(true, Ordering::Relaxed);
        }
        let mut states = vec![(); threads.max(1).min(compute.len())];
        let compute = &compute;
        scoped_consume_until(
            &mut states,
            compute.len(),
            &quit,
            |(), i| {
                let (job, unit) = compute[i];
                compute_unit(&jobs[job], unit, control)
            },
            |i, outcome| {
                walk.buffer[i] = Some(outcome);
                if sink_err.is_none() {
                    if let Err(e) = advance(&mut walk, &events, jobs, control, journal) {
                        sink_err = Some(e);
                        quit.store(true, Ordering::Relaxed);
                    }
                }
                if !quit.load(Ordering::Relaxed) && control.stop_requested(stop_file) {
                    quit.store(true, Ordering::Relaxed);
                }
            },
        );
    }
    if let Some(e) = sink_err {
        return Err(e);
    }
    let stopped = walk.next_event < events.len();
    if stopped {
        journal.append(&Record::Stopped)?;
    }
    let results = walk
        .jobs
        .into_iter()
        .map(|walk_job| JobResult {
            new_points: walk_job.new_points,
            evaluations: walk_job.evaluations,
            status: walk_job.status,
        })
        .collect();
    Ok((results, stopped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::line_fp;
    use crate::spec::parse_job;

    fn shape(points: usize, units_per_point: usize) -> PlanShape {
        PlanShape {
            points,
            units_per_point,
        }
    }

    #[test]
    fn serial_plan_runs_jobs_back_to_back() {
        let events = plan_events(&[shape(2, 2), shape(1, 1)], 1);
        assert_eq!(
            events,
            vec![
                Event::Start(0),
                Event::Unit { job: 0, unit: 0 },
                Event::Unit { job: 0, unit: 1 },
                Event::Point { job: 0, point: 0 },
                Event::Unit { job: 0, unit: 2 },
                Event::Unit { job: 0, unit: 3 },
                Event::Point { job: 0, point: 1 },
                Event::End(0),
                Event::Start(1),
                Event::Unit { job: 1, unit: 0 },
                Event::Point { job: 1, point: 0 },
                Event::End(1),
            ]
        );
    }

    #[test]
    fn concurrent_plan_interleaves_fairly_and_keeps_per_job_unit_order() {
        let shapes = [shape(3, 2), shape(2, 1), shape(1, 4)];
        for slots in [2usize, 3, 17] {
            let events = plan_events(&shapes, slots);
            // Every unit appears exactly once, in per-job order.
            for (j, s) in shapes.iter().enumerate() {
                let units: Vec<usize> = events
                    .iter()
                    .filter_map(|e| match e {
                        Event::Unit { job, unit } if *job == j => Some(*unit),
                        _ => None,
                    })
                    .collect();
                let expected: Vec<usize> = (0..s.points * s.units_per_point).collect();
                assert_eq!(units, expected, "slots={slots} job={j}");
            }
            // Each point record sits right after its last unit, each
            // end right after the job's last event.
            for (k, event) in events.iter().enumerate() {
                if let Event::Point { job, point } = event {
                    let s = shapes[*job];
                    assert_eq!(
                        events[k - 1],
                        Event::Unit {
                            job: *job,
                            unit: (point + 1) * s.units_per_point - 1
                        },
                        "slots={slots}: point not adjacent to its closing unit"
                    );
                }
            }
            // No more than `slots` jobs are between start and end at
            // any moment.
            let mut open = 0usize;
            for event in &events {
                match event {
                    Event::Start(_) => {
                        open += 1;
                        assert!(
                            open <= slots.min(shapes.len()),
                            "slots={slots}: over-admitted"
                        );
                    }
                    Event::End(_) => open -= 1,
                    _ => {}
                }
            }
        }
        // With two slots the first two jobs genuinely interleave.
        let events = plan_events(&shapes, 2);
        let first_of_1 = events
            .iter()
            .position(|e| matches!(e, Event::Unit { job: 1, .. }))
            .expect("job 1 runs");
        let last_of_0 = events
            .iter()
            .rposition(|e| matches!(e, Event::Unit { job: 0, .. }))
            .expect("job 0 runs");
        assert!(
            first_of_1 < last_of_0,
            "two-slot plan did not interleave jobs 0 and 1"
        );
    }

    #[test]
    fn plan_admits_zero_unit_jobs_without_occupying_a_slot() {
        let events = plan_events(&[shape(0, 3), shape(1, 1)], 1);
        assert_eq!(
            events,
            vec![
                Event::Start(0),
                Event::End(0),
                Event::Start(1),
                Event::Unit { job: 1, unit: 0 },
                Event::Point { job: 1, point: 0 },
                Event::End(1),
            ]
        );
        assert!(plan_events(&[], 4).is_empty());
    }

    #[test]
    fn plan_is_a_pure_function_of_shapes_and_slots() {
        let shapes = [shape(4, 3), shape(2, 2), shape(5, 1), shape(1, 1)];
        for slots in [1usize, 2, 4] {
            assert_eq!(plan_events(&shapes, slots), plan_events(&shapes, slots));
        }
        // Unit sets are slot-invariant — only the interleaving moves.
        let count = |slots| plan_events(&shapes, slots).len();
        assert_eq!(count(1), count(2));
        assert_eq!(count(1), count(4));
    }

    struct FailingSink;

    impl JournalSink for FailingSink {
        fn append(&mut self, _: &Record) -> Result<(), ModelError> {
            Err(ModelError::InvalidConfig(
                "serve: append to journal /tank/serve.journal: No space left on device".into(),
            ))
        }
    }

    #[test]
    fn a_failing_journal_sink_aborts_the_drain_with_its_error_not_a_panic() {
        let line = r#"{"schema":"flexray-serve-job","version":1,"id":"g1","kind":"grid","args":["nodes=2","apps=1","mode=smoke","algos=bbc"]}"#;
        let jobs = vec![ScheduledJob {
            spec: parse_job(line).expect("valid spec"),
            fp: line_fp(line),
            recovered: Vec::new(),
            start_journaled: false,
            terminal: None,
        }];
        let control = ServeControl::default();
        let err = run_schedule(&jobs, 2, 1, &control, None, &mut FailingSink)
            .expect_err("sink failure must propagate");
        assert!(
            err.to_string().contains("/tank/serve.journal"),
            "error must name the journal path: {err}"
        );
    }
}
