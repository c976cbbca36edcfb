//! The units→points engine behind the `grid`, `sweep`, `fig9` and
//! `fuzz` harnesses and the `flexray-serve` daemon.
//!
//! A *job* is a run of points of `units_per_point` `(point, app)`
//! units each. [`plan_events`] builds a **static event plan** — a
//! round-robin interleaving of every job's start/unit/point/end events,
//! up to `slots` jobs at a time — from the jobs' shapes alone.
//! [`run_plan`] computes the units in any order on the shared
//! work-stealing pool and walks the plan strictly in order, buffering
//! results and stalling at the first unit that has not landed; every
//! event reaches the caller as a [`Step`]. Points the caller marks done
//! stay in the plan but are not computed, so the steps are the same as
//! in a run that computed them.
//!
//! **Failures.** The first failing unit *in unit order* decides a job's
//! error: the job's later units are skipped, its earlier ones still
//! run, and it steps no point from the failing unit's point on. The
//! steps are therefore the same for any `threads` and `slots`.
//!
//! **Stopping.** Once the caller's `stop` predicate (polled before the
//! pool starts and after every landed unit) or a step error fires, the
//! pool claims no further unit; in-flight units finish and the walk
//! steps up to the first missing one.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use flexray_util::{resolve_threads, scoped_consume_until};

/// One job: its units per point, and which of its points are already
/// done (their units are not computed).
#[derive(Debug, Clone)]
pub struct Job {
    /// Units (application runs) per point.
    pub units_per_point: usize,
    /// One flag per point: `true` when the point is already done.
    pub done: Vec<bool>,
}

impl Job {
    fn units(&self) -> usize {
        self.done.len() * self.units_per_point
    }

    fn needs_compute(&self, unit: usize) -> bool {
        !self.done[unit / self.units_per_point]
    }
}

/// One event of the static plan. `job` indexes the input job slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Job admission.
    Start(usize),
    /// One unit's result is consumed (in per-job unit order).
    Unit {
        /// Job index.
        job: usize,
        /// Unit index within the job.
        unit: usize,
    },
    /// A point boundary, right after the point's last unit.
    Point {
        /// Job index.
        job: usize,
        /// Point index within the job.
        point: usize,
    },
    /// Job completion.
    End(usize),
}

/// Builds the static event plan: round-robin over up to `slots`
/// concurrently admitted jobs, in job order, one unit per turn. A
/// finished job immediately frees its slot to the next pending job. A
/// pure function of the jobs' shapes and `slots` — the whole
/// determinism story rests on that.
#[must_use]
pub fn plan_events(jobs: &[Job], slots: usize) -> Vec<Event> {
    let slots = slots.max(1);
    let mut events = Vec::new();
    let mut pending = 0usize;
    // (job, next unit) per occupied slot, in admission order.
    let mut active: Vec<(usize, usize)> = Vec::new();
    let admit = |events: &mut Vec<Event>, active: &mut Vec<(usize, usize)>, pending: &mut usize| {
        while active.len() < slots && *pending < jobs.len() {
            let job = *pending;
            *pending += 1;
            events.push(Event::Start(job));
            if jobs[job].units() == 0 {
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
        let per_point = jobs[job].units_per_point;
        events.push(Event::Unit { job, unit });
        if (unit + 1) % per_point == 0 {
            events.push(Event::Point {
                job,
                point: unit / per_point,
            });
        }
        if unit + 1 == jobs[job].units() {
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

/// What the walk hands the caller, in plan order.
#[derive(Debug)]
pub enum Step<U, E> {
    /// Job admission.
    Start(usize),
    /// A point of a job that has not failed before it.
    Point {
        /// Job index.
        job: usize,
        /// Point index within the job.
        point: usize,
        /// The point's units in application order, or `None` for a
        /// point that was already done.
        units: Option<Vec<U>>,
    },
    /// Job completion: `Ok` or the first failing unit's error.
    End {
        /// Job index.
        job: usize,
        /// The job's outcome.
        result: Result<(), E>,
    },
}

enum Landed<U, E> {
    Solved(U),
    Failed(E),
    Skipped,
}

struct Walk<U, E> {
    next_event: usize,
    next_compute: usize,
    buffer: Vec<Option<Landed<U, E>>>,
    /// Per job: the solved units of its current point.
    current: Vec<Vec<U>>,
    /// Per job: the error of its first failing unit.
    failed: Vec<Option<E>>,
}

impl<U, E> Walk<U, E> {
    /// Steps plan events in order until one needs a unit result that
    /// has not landed yet (the walk *stalls* there — a later call
    /// resumes it). A step error stops the walk.
    fn advance<X>(
        &mut self,
        events: &[Event],
        jobs: &[Job],
        step: &mut impl FnMut(Step<U, E>) -> Result<(), X>,
    ) -> Result<(), X> {
        while let Some(&event) = events.get(self.next_event) {
            match event {
                Event::Start(job) => step(Step::Start(job))?,
                Event::Unit { job, unit } => {
                    if jobs[job].needs_compute(unit) {
                        let Some(landed) = self.buffer[self.next_compute].take() else {
                            return Ok(()); // stall: result not landed yet
                        };
                        self.next_compute += 1;
                        if self.failed[job].is_none() {
                            match landed {
                                Landed::Solved(unit) => self.current[job].push(unit),
                                Landed::Failed(error) => self.failed[job] = Some(error),
                                // only units after a failed one are skipped
                                Landed::Skipped => {}
                            }
                        }
                    }
                }
                Event::Point { job, point } => {
                    let units = std::mem::take(&mut self.current[job]);
                    if self.failed[job].is_none() {
                        let units = (!jobs[job].done[point]).then_some(units);
                        step(Step::Point { job, point, units })?;
                    }
                }
                Event::End(job) => {
                    let result = self.failed[job].take().map_or(Ok(()), Err);
                    step(Step::End { job, result })?;
                }
            }
            self.next_event += 1;
        }
        Ok(())
    }
}

/// Runs `jobs` — up to `slots` of them at once — over `threads` workers
/// (`0` = all cores) and steps every event to `step` in plan order.
///
/// `solve(job, point, app)` computes one unit on a worker thread. A
/// `step` error stops the run: no further unit is claimed and the
/// error is returned once in-flight units finish.
///
/// Returns whether `stop` ended the run before the plan completed.
///
/// # Errors
///
/// Returns the first error `step` returned.
pub fn run_plan<U: Send, E: Send, X>(
    jobs: &[Job],
    slots: usize,
    threads: usize,
    stop: impl Fn() -> bool,
    solve: impl Fn(usize, usize, usize) -> Result<U, E> + Sync,
    mut step: impl FnMut(Step<U, E>) -> Result<(), X>,
) -> Result<bool, X> {
    let events = plan_events(jobs, slots);
    let compute: Vec<(usize, usize)> = events
        .iter()
        .filter_map(|event| match *event {
            Event::Unit { job, unit } if jobs[job].needs_compute(unit) => Some((job, unit)),
            _ => None,
        })
        .collect();
    let mut walk = Walk {
        next_event: 0,
        next_compute: 0,
        buffer: (0..compute.len()).map(|_| None).collect(),
        current: jobs.iter().map(|_| Vec::new()).collect(),
        failed: jobs.iter().map(|_| None).collect(),
    };

    let mut step_err = walk.advance(&events, jobs, &mut step).err();
    if step_err.is_none() && !compute.is_empty() {
        let quit = AtomicBool::new(stop());
        // Per job: the lowest unit seen failing; later units skip.
        let first_failed: Vec<AtomicUsize> =
            jobs.iter().map(|_| AtomicUsize::new(usize::MAX)).collect();
        let mut states = vec![(); resolve_threads(threads).min(compute.len())];
        let compute = &compute;
        scoped_consume_until(
            &mut states,
            compute.len(),
            &quit,
            |(), i| {
                let (job, unit) = compute[i];
                if unit > first_failed[job].load(Ordering::Relaxed) {
                    return Landed::Skipped;
                }
                let per_point = jobs[job].units_per_point;
                match solve(job, unit / per_point, unit % per_point) {
                    Ok(solved) => Landed::Solved(solved),
                    Err(error) => {
                        first_failed[job].fetch_min(unit, Ordering::Relaxed);
                        Landed::Failed(error)
                    }
                }
            },
            |i, landed| {
                walk.buffer[i] = Some(landed);
                if step_err.is_none() {
                    if let Err(e) = walk.advance(&events, jobs, &mut step) {
                        step_err = Some(e);
                        quit.store(true, Ordering::Relaxed);
                    }
                }
                if !quit.load(Ordering::Relaxed) && stop() {
                    quit.store(true, Ordering::Relaxed);
                }
            },
        );
    }
    match step_err {
        Some(e) => Err(e),
        None => Ok(walk.next_event < events.len()),
    }
}

/// Runs one job of `points` points over `threads` workers:
/// `solve(point, app)` computes a unit, and `point(p, units)` sees
/// every point before the first failing unit, in point order.
///
/// # Errors
///
/// Returns the first failing unit's error, in unit order.
pub fn run_job<U: Send, E: Send>(
    points: usize,
    units_per_point: usize,
    threads: usize,
    solve: impl Fn(usize, usize) -> Result<U, E> + Sync,
    mut point: impl FnMut(usize, Vec<U>),
) -> Result<(), E> {
    let mut result = Ok(());
    let jobs = [Job {
        units_per_point,
        done: vec![false; points],
    }];
    let Ok(_) = run_plan(
        &jobs,
        1,
        threads,
        || false,
        |_, p, app| solve(p, app),
        |step| {
            match step {
                Step::Start(_) => {}
                Step::Point {
                    point: p, units, ..
                } => point(p, units.expect("no point is done")),
                Step::End { result: r, .. } => result = r,
            }
            Ok::<(), std::convert::Infallible>(())
        },
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Condvar, Mutex};

    /// Runs two jobs of 4 points × 2 units, the first failing at unit
    /// `fail` and, with another error, at unit `fail + 3`. In parallel
    /// runs unit `fail` fails only after unit `fail + 3` did, so the
    /// walk must not take the first error it sees. Returns each job's
    /// steps.
    fn run_failing(fail: usize, threads: usize, slots: usize) -> [Vec<String>; 2] {
        let job = || Job {
            units_per_point: 2,
            done: vec![false; 4],
        };
        let computed = Mutex::new(Vec::new());
        let later_failed = (Mutex::new(false), Condvar::new());
        let mut steps = [Vec::new(), Vec::new()];
        let solve = |job: usize, point: usize, app: usize| {
            let unit = point * 2 + app;
            computed.lock().expect("lock").push((job, unit));
            let (done, cvar) = &later_failed;
            match (job, unit) {
                (0, u) if u == fail => {
                    if threads > 1 && fail + 3 < 8 {
                        let done = done.lock().expect("lock");
                        drop(cvar.wait_while(done, |d| !*d).expect("lock"));
                    }
                    Err(format!("unit {u}"))
                }
                (0, u) if u == fail + 3 => {
                    *done.lock().expect("lock") = true;
                    cvar.notify_all();
                    Err(format!("later {u}"))
                }
                _ => Ok(unit),
            }
        };
        let stopped = run_plan(
            &[job(), job()],
            slots,
            threads,
            || false,
            solve,
            |step| {
                let (job, text) = match step {
                    Step::Start(job) => (job, "start".to_owned()),
                    Step::Point { job, point, units } => (job, format!("{point}: {units:?}")),
                    Step::End { job, result } => (job, format!("end {result:?}")),
                };
                steps[job].push(text);
                Ok::<(), ()>(())
            },
        );
        assert_eq!(stopped, Ok(false));
        let computed = computed.into_inner().expect("lock");
        // every unit before the failing one ran ...
        assert!((0..fail).all(|unit| computed.contains(&(0, unit))));
        // ... and a serial run computes none after it
        if threads == 1 {
            assert!(computed.iter().all(|&(job, unit)| job == 1 || unit <= fail));
        }
        steps
    }

    #[test]
    fn the_first_failing_unit_decides_the_error_for_any_threads_and_slots() {
        for fail in [0usize, 3, 7] {
            let reference = run_failing(fail, 1, 1);
            // start, the points strictly below the failing one, end
            assert_eq!(reference[0].len(), 2 + fail / 2, "{:?}", reference[0]);
            assert_eq!(
                reference[0].last(),
                Some(&format!("end Err(\"unit {fail}\")"))
            );
            assert_eq!(reference[1].len(), 6, "the other job steps every point");
            assert_eq!(reference[1].last().map(String::as_str), Some("end Ok(())"));
            for threads in [1usize, 2, 4] {
                for slots in [1usize, 2] {
                    for _ in 0..5 {
                        let steps = run_failing(fail, threads, slots);
                        assert_eq!(steps, reference, "threads={threads} slots={slots}");
                    }
                }
            }
        }
    }
}
