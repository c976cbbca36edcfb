//! The concurrent job scheduler: every queued job runs on the
//! units→points engine of `flexray-bench` ([`flexray_bench::engine`])
//! in one static plan, up to `slots` jobs at a time, so the journal is
//! a pure function of `(queue content, slots)`. This module says what
//! each engine step journals and which points are already done.
//!
//! The plan covers **all** queued jobs, including ones the journal
//! already shows as terminal (all their points are done). Dropping them
//! would shift the admission interleave of the remaining jobs, and a
//! restarted drain would journal a different record order than the
//! uninterrupted run; with the plan static, any journal prefix plus the
//! restart's continuation reproduces the reference byte for byte.
//!
//! A stop request (stop file or socket `shutdown`) stops the engine;
//! the walk journals everything up to the first missing unit and a
//! `stopped` record follows, so the run is resumable. A job fails with
//! its first failing unit's error in unit order; a cancellation request
//! fails its not-yet-claimed units with `cancelled by request`.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use flexray_bench::engine::{run_plan, Job, Step};
use flexray_bench::report::Json;
use flexray_model::ModelError;

use crate::control::{JobView, ServeControl};
use crate::journal::{JobStatus, JournalSink, Record};
use crate::spec::JobSpec;

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

fn publish_view(control: &ServeControl, job: &ScheduledJob, result: &JobResult) {
    let points = job.recovered.len() + result.new_points.len();
    let (state, error, points) = match &result.status {
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
    // Recovered points and every point of a terminal job are done.
    let plan: Vec<Job> = jobs
        .iter()
        .map(|job| Job {
            units_per_point: job.spec.kind.grid().apps_per_point,
            done: (0..job.spec.total_points())
                .map(|p| job.terminal.is_some() || p < job.recovered.len())
                .collect(),
        })
        .collect();
    let mut results: Vec<JobResult> = jobs
        .iter()
        .map(|job| JobResult {
            new_points: Vec::new(),
            evaluations: 0,
            status: job.terminal.clone(),
        })
        .collect();
    for (job, result) in jobs.iter().zip(&results) {
        publish_view(control, job, result);
    }
    let evaluations: Vec<AtomicU64> = jobs.iter().map(|_| AtomicU64::new(0)).collect();

    let stopped = run_plan(
        &plan,
        slots,
        threads,
        || control.stop_requested(stop_file),
        |j, point, app| {
            let spec = &jobs[j].spec;
            if control.is_cancelled(&spec.id) {
                return Err("cancelled by request".to_owned());
            }
            let unit = spec
                .kind
                .solve_unit(point, app)
                .map_err(|e| e.to_string())?;
            evaluations[j].fetch_add(unit.evaluations(), Ordering::Relaxed);
            Ok(unit)
        },
        |step| {
            match step {
                Step::Start(j) => {
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
                Step::Point {
                    job: j,
                    point,
                    units: Some(units),
                } => {
                    let job = &jobs[j];
                    let data = job.spec.kind.fold_point(point, units);
                    journal.append(&Record::Point {
                        job: job.spec.id.clone(),
                        data: data.clone(),
                    })?;
                    results[j].new_points.push(data);
                    publish_view(control, job, &results[j]);
                }
                // recovered or terminal: already journaled
                Step::Point { units: None, .. } => {}
                Step::End { job: j, result } => {
                    let job = &jobs[j];
                    if job.terminal.is_none() {
                        let status = match result {
                            Ok(()) => JobStatus::Done {
                                points: job.spec.total_points(),
                            },
                            Err(error) => JobStatus::Failed { error },
                        };
                        journal.append(&Record::End {
                            job: job.spec.id.clone(),
                            status: status.clone(),
                        })?;
                        results[j].status = Some(status);
                        publish_view(control, job, &results[j]);
                    }
                }
            }
            Ok::<(), ModelError>(())
        },
    )?;
    if stopped {
        journal.append(&Record::Stopped)?;
    }
    for (result, evaluations) in results.iter_mut().zip(evaluations) {
        result.evaluations = evaluations.into_inner();
    }
    Ok((results, stopped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::line_fp;
    use crate::spec::parse_job;
    use flexray_bench::engine::{plan_events, Event};

    fn shape(points: usize, units_per_point: usize) -> Job {
        Job {
            units_per_point,
            done: vec![false; points],
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
                let expected: Vec<usize> = (0..s.done.len() * s.units_per_point).collect();
                assert_eq!(units, expected, "slots={slots} job={j}");
            }
            // Each point record sits right after its last unit, each
            // end right after the job's last event.
            for (k, event) in events.iter().enumerate() {
                if let Event::Point { job, point } = event {
                    let s = &shapes[*job];
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
