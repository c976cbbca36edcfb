//! Response-time analysis for FPS tasks running in the slack of the
//! static schedule.
//!
//! FPS tasks are preemptive and priority-ordered among themselves, and
//! receive CPU time only where the SCS table leaves the node idle
//! (Section 2). The analysis is a busy-window fixed point per candidate
//! critical instant: the demand `C_i + Σ_{j ∈ hp(i)} ⌈(t + J_j)/T_j⌉ C_j`
//! is pushed through the node's periodic availability function, and the
//! worst case over the busy-window starts of the table is reported.
//!
//! The window starts are exact, not a heuristic subset. An arrival in
//! free time has at least the supply, over every horizon `t` at once,
//! of the next window start; an arrival inside a busy window has at
//! least the supply of that window's start (see
//! [`Availability::critical_instants`]). More supply means a smaller
//! least fixed point, so the largest response — or the divergence — of
//! any arrival is found at a window start.

use crate::availability::Availability;
use crate::session::JitterSpan;
use flexray_model::{ActivityId, SchedPolicy, SystemView, Time};

/// Higher-priority FPS tasks on the same node as `task` (the set `hp`).
#[must_use]
pub fn hp_tasks<'a>(sys: impl Into<SystemView<'a>>, task: ActivityId) -> Vec<ActivityId> {
    let sys = sys.into();
    let spec = sys
        .app
        .activity(task)
        .as_task()
        .expect("hp_tasks of a non-task");
    sys.app
        .tasks_with_policy(SchedPolicy::Fps)
        .filter(|&j| {
            if j == task {
                return false;
            }
            let other = sys.app.activity(j).as_task().expect("fps filter");
            other.node == spec.node
                && (other.priority > spec.priority
                    || (other.priority == spec.priority && j.index() < task.index()))
        })
        .collect()
}

/// Worst-case local response time (from its own arrival) of one FPS
/// task, given the node availability and the current jitter estimates of
/// all activities.
///
/// Returns `None` when the busy window exceeds `limit` — the task is
/// then considered to diverge (unschedulable on this configuration) and
/// the caller substitutes the divergence cap.
#[must_use]
pub fn fps_local_response<'a>(
    sys: impl Into<SystemView<'a>>,
    avail: &Availability,
    task: ActivityId,
    jitter: &[Time],
    limit: Time,
) -> Option<Time> {
    let sys = sys.into();
    let hp = hp_tasks(sys, task);
    let mut spans = vec![JitterSpan::ANY; hp.len()];
    fps_local_response_with(sys, avail, task, &hp, jitter, limit, &mut spans)
}

/// [`fps_local_response`] with the higher-priority set precomputed — the
/// set depends only on the application, so session-style callers derive
/// it once and reuse it across every candidate evaluation. Narrows
/// `spans[k]` on every arrival count of `hp[k]` it reads.
pub(crate) fn fps_local_response_with(
    sys: SystemView<'_>,
    avail: &Availability,
    task: ActivityId,
    hp: &[ActivityId],
    jitter: &[Time],
    limit: Time,
    spans: &mut [JitterSpan],
) -> Option<Time> {
    let spec = sys.app.activity(task).as_task().expect("fps task");
    debug_assert_eq!(spec.policy, SchedPolicy::Fps);
    let worst = worst_busy_window(
        sys,
        avail,
        spec.wcet,
        hp,
        jitter,
        avail.critical_instants(),
        limit,
        spans,
    );
    #[cfg(debug_assertions)]
    {
        // Every slack-density breakpoint — the start of the table and
        // each window start and end — must give the same worst case.
        let boundaries = std::iter::once(Time::ZERO)
            .chain(avail.windows().flat_map(|(s, f)| [s, f]))
            .filter(|&b| b < avail.horizon());
        let mut any = vec![JitterSpan::ANY; hp.len()];
        let full = worst_busy_window(
            sys, avail, spec.wcet, hp, jitter, boundaries, limit, &mut any,
        );
        assert_eq!(worst, full, "window starts disagree with every breakpoint");
    }
    worst
}

/// Largest busy window over the arrivals `instants` (`None` if any
/// diverges).
#[allow(clippy::too_many_arguments)]
fn worst_busy_window(
    sys: SystemView<'_>,
    avail: &Availability,
    own_wcet: Time,
    hp: &[ActivityId],
    jitter: &[Time],
    instants: impl Iterator<Item = Time>,
    limit: Time,
    spans: &mut [JitterSpan],
) -> Option<Time> {
    let mut worst = Time::ZERO;
    for s in instants {
        worst = worst.max(busy_window(
            sys, avail, own_wcet, hp, jitter, s, limit, spans,
        )?);
    }
    Some(worst)
}

/// Fixed point of the busy window started at candidate instant `s`.
/// A step whose demand equals the previous step's would complete at the
/// same `t`, so it returns without walking the availability again.
#[allow(clippy::too_many_arguments)]
fn busy_window(
    sys: SystemView<'_>,
    avail: &Availability,
    own_wcet: Time,
    hp: &[ActivityId],
    jitter: &[Time],
    s: Time,
    limit: Time,
    spans: &mut [JitterSpan],
) -> Option<Time> {
    let mut t = own_wcet;
    let mut prev_demand = None;
    loop {
        let mut demand = own_wcet;
        for (&j, span) in hp.iter().zip(spans.iter_mut()) {
            let spec = sys.app.activity(j).as_task().expect("hp task");
            let tj = sys.app.period_of(j);
            demand += spec.wcet * span.arrivals(t, jitter[j.index()], tj);
        }
        if prev_demand == Some(demand) {
            debug_assert_eq!(
                avail.advance(s, demand, s + limit).map(|c| c - s),
                Some(t),
                "converged exit disagrees with the full step"
            );
            return Some(t);
        }
        let completion = avail.advance(s, demand, s + limit)?;
        let t_next = completion - s;
        if t_next > limit {
            return None;
        }
        if t_next <= t {
            return Some(t_next);
        }
        prev_demand = Some(demand);
        t = t_next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexray_model::*;

    /// `n` FPS tasks on node 0 with given (wcet µs, priority), period 100.
    fn fps_system(specs: &[(f64, u32)]) -> (System, Vec<ActivityId>) {
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(100.0), Time::from_us(100.0));
        let ids: Vec<ActivityId> = specs
            .iter()
            .enumerate()
            .map(|(i, &(c, p))| {
                app.add_task(
                    g,
                    &format!("t{i}"),
                    NodeId::new(0),
                    Time::from_us(c),
                    SchedPolicy::Fps,
                    p,
                )
            })
            .collect();
        let bus = BusConfig::new(PhyParams::unit());
        let sys = System::validated(Platform::with_nodes(1), app, bus).expect("valid");
        (sys, ids)
    }

    #[test]
    fn hp_set_orders_by_priority_then_id() {
        let (sys, ids) = fps_system(&[(1.0, 5), (1.0, 7), (1.0, 5)]);
        assert_eq!(hp_tasks(&sys, ids[0]), vec![ids[1]]);
        // equal priority: lower id wins
        assert_eq!(hp_tasks(&sys, ids[2]), vec![ids[0], ids[1]]);
        assert!(hp_tasks(&sys, ids[1]).is_empty());
    }

    #[test]
    fn idle_node_response_is_sum_of_hp_and_own() {
        let (sys, ids) = fps_system(&[(10.0, 9), (20.0, 5)]);
        let avail = Availability::idle(Time::from_us(100.0));
        let jitter = vec![Time::ZERO; 2];
        let limit = Time::from_us(1000.0);
        assert_eq!(
            fps_local_response(&sys, &avail, ids[0], &jitter, limit),
            Some(Time::from_us(10.0))
        );
        assert_eq!(
            fps_local_response(&sys, &avail, ids[1], &jitter, limit),
            Some(Time::from_us(30.0))
        );
    }

    #[test]
    fn scs_windows_push_fps_work_out() {
        let (sys, ids) = fps_system(&[(10.0, 1)]);
        // busy [0, 50) every 100µs: the worst start is 0
        let avail = Availability::new(
            Time::from_us(100.0),
            vec![(Time::ZERO, Time::from_us(50.0))],
        );
        let jitter = vec![Time::ZERO; 1];
        let r = fps_local_response(&sys, &avail, ids[0], &jitter, Time::from_us(1000.0))
            .expect("converges");
        assert_eq!(r, Time::from_us(60.0)); // waits out the window, then 10
    }

    #[test]
    fn jitter_of_hp_task_adds_interference() {
        let (sys, ids) = fps_system(&[(10.0, 9), (50.0, 5)]);
        let avail = Availability::idle(Time::from_us(100.0));
        let limit = Time::from_us(10_000.0);
        let no_jitter = vec![Time::ZERO; 2];
        let r0 = fps_local_response(&sys, &avail, ids[1], &no_jitter, limit).expect("ok");
        // jitter 95 on the hp task squeezes a second arrival into the window
        let jitter = vec![Time::from_us(95.0), Time::ZERO];
        let r1 = fps_local_response(&sys, &avail, ids[1], &jitter, limit).expect("ok");
        assert_eq!(r0, Time::from_us(60.0));
        assert_eq!(r1, Time::from_us(70.0));
    }

    #[test]
    fn saturated_node_diverges() {
        let (sys, ids) = fps_system(&[(10.0, 1)]);
        let avail = Availability::new(
            Time::from_us(100.0),
            vec![(Time::ZERO, Time::from_us(100.0))],
        );
        let jitter = vec![Time::ZERO; 1];
        assert_eq!(
            fps_local_response(&sys, &avail, ids[0], &jitter, Time::from_us(1000.0)),
            None
        );
    }

    #[test]
    fn overloaded_hp_interference_diverges() {
        // hp task demands 100% of the CPU: lower task never completes.
        let (sys, ids) = fps_system(&[(100.0, 9), (1.0, 1)]);
        let avail = Availability::idle(Time::from_us(100.0));
        let jitter = vec![Time::ZERO; 2];
        assert_eq!(
            fps_local_response(&sys, &avail, ids[1], &jitter, Time::from_us(5000.0)),
            None
        );
    }
}
