//! List scheduler building the static schedule table (Fig. 2 of the
//! paper).
//!
//! SCS tasks and ST messages are extracted from a ready list ordered by
//! the modified critical-path priority and placed at the earliest
//! feasible time: tasks in the first sufficient gap of their node,
//! messages in the first static-slot instance of their sender node with
//! enough remaining frame capacity. Frames deliver at slot end, several
//! messages may share one frame (Fig. 3.c), and instances that cannot be
//! placed inside the hyperperiod are recorded with synthetic overflow
//! times so the cost function still grades the configuration.
//!
//! # Reusable builder
//!
//! The greedy ready-list *selection order* never consults placement
//! times: a job is eligible once all its time-triggered predecessors are
//! placed, and ties are broken purely by the critical-path priority (a
//! function of the durations, hence of the application and the physical
//! layer only) and the instance number. The order is therefore identical
//! for every candidate bus configuration sharing one `PhyParams`, which
//! is exactly the shape of the optimiser loops — thousands of candidates
//! differing only in slot layout or dynamic-segment length.
//! [`ScheduleBuilder`] exploits this: it computes the order once, keyed
//! on the physical layer, and each `build_into` call is a linear
//! placement pass over it reusing all scratch allocations. The one-shot
//! [`build_schedule`] entry point simply runs a fresh builder once.

use crate::availability::Availability;
use crate::priority::longest_path_to_sink;
use crate::table::{merge_windows, MessageEntry, ScheduleTable, TaskEntry};
use flexray_model::{ActivityId, ModelError, PhyParams, SchedPolicy, SlotId, SystemView, Time};

/// How SCS task instances are placed in the static schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScsPlacement {
    /// First sufficient gap after the ASAP time — fast, and the
    /// behaviour most reproductions assume.
    #[default]
    Asap,
    /// Fig. 2, line 11: among the first few feasible gaps, pick the one
    /// that minimises the worst-case response times of the FPS tasks on
    /// the node (evaluated with a jitter-free response-time analysis).
    /// Slower, but recovers slack fragmentation that starves FPS tasks.
    MinimiseFpsImpact,
}

/// A single job: the `instance`-th activation of a time-triggered
/// activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Job {
    activity: ActivityId,
    instance: i64,
}

/// Reusable list-scheduler state: the precomputed placement order plus
/// every per-build scratch allocation.
///
/// A builder is tied to one application (the job set and order are
/// derived from it); feed it systems over the same application only.
/// The order is re-derived automatically when the physical layer of the
/// presented bus differs from the one it was computed for.
#[derive(Debug, Default)]
pub(crate) struct ScheduleBuilder {
    /// Physical layer the placement order was computed for.
    order_key: Option<PhyParams>,
    /// Greedy ready-list selection order over all TT jobs.
    order: Vec<Job>,
    /// Flat job index base per activity (`usize::MAX` for ET activities).
    offsets: Vec<usize>,
    /// Instances per activity within the hyperperiod (0 for ET).
    counts: Vec<i64>,
    n_jobs: usize,
    // ---- per-build scratch ----
    ready: Vec<Time>,
    node_busy: Vec<Vec<(Time, Time)>>,
    /// Frame capacity used per static-slot instance, one flat
    /// `cycle × slots + slot offset` vector per cluster, grown on demand.
    slot_usage: Vec<Vec<Time>>,
}

impl ScheduleBuilder {
    /// Flat index of a job, `None` when the activity is event-triggered
    /// or the instance is out of range (mixed-period edges).
    fn flat(&self, activity: ActivityId, instance: i64) -> Option<usize> {
        let base = self.offsets[activity.index()];
        (base != usize::MAX && instance < self.counts[activity.index()])
            .then(|| base + usize::try_from(instance).expect("non-negative instance"))
    }

    /// (Re)computes the job set and the greedy selection order for the
    /// given physical layer. Replays exactly the ready-list loop of
    /// Fig. 2: among eligible jobs (all TT predecessors placed), the
    /// first minimum under the critical-path priority wins.
    fn ensure_order(&mut self, sys: SystemView<'_>, horizon: Time) -> Result<(), ModelError> {
        if self.order_key == Some(sys.bus.phy) {
            return Ok(());
        }
        let n = sys.app.activities().len();
        let lp = longest_path_to_sink(sys);

        let mut jobs: Vec<Job> = Vec::new();
        self.offsets = vec![usize::MAX; n];
        self.counts = vec![0; n];
        for id in sys.app.ids() {
            if !sys.app.activity(id).is_time_triggered() {
                continue;
            }
            let period = sys.app.period_of(id);
            let instances = horizon / period;
            self.offsets[id.index()] = jobs.len();
            self.counts[id.index()] = instances;
            for k in 0..instances {
                jobs.push(Job {
                    activity: id,
                    instance: k,
                });
            }
        }
        self.n_jobs = jobs.len();

        let mut pending: Vec<usize> = jobs
            .iter()
            .map(|j| {
                sys.app
                    .preds(j.activity)
                    .iter()
                    .filter(|&&p| sys.app.activity(p).is_time_triggered())
                    .count()
            })
            .collect();
        let mut placed = vec![false; self.n_jobs];
        self.order.clear();
        self.order.reserve(self.n_jobs);
        while self.order.len() < self.n_jobs {
            let best = jobs
                .iter()
                .enumerate()
                .filter(|&(fi, _)| !placed[fi] && pending[fi] == 0)
                .min_by(|a, b| {
                    crate::priority::ready_list_order(&lp, a.1.activity, b.1.activity)
                        .then(a.1.instance.cmp(&b.1.instance))
                });
            let Some((fi, &job)) = best else {
                // All remaining jobs are blocked — cannot happen on an
                // acyclic application, but guard against it.
                self.order_key = None;
                return Err(ModelError::MalformedGraph(
                    "list scheduler deadlocked on blocked jobs".into(),
                ));
            };
            placed[fi] = true;
            self.order.push(job);
            for &s in sys.app.succs(job.activity) {
                if !sys.app.activity(s).is_time_triggered() {
                    continue;
                }
                if let Some(sf) = self.flat(s, job.instance) {
                    pending[sf] -= 1;
                }
            }
        }
        self.order_key = Some(sys.bus.phy);
        Ok(())
    }

    /// Builds the static schedule for `sys` into `table`, reusing the
    /// precomputed order and all scratch buffers.
    ///
    /// `et_finish_bound` gives, per activity id, the current bound on the
    /// completion (relative to graph activation) of event-triggered
    /// activities; it is consulted when a time-triggered activity depends
    /// on an event-triggered predecessor.
    pub(crate) fn build_into(
        &mut self,
        sys: SystemView<'_>,
        et_finish_bound: &[Time],
        placement: ScsPlacement,
        table: &mut ScheduleTable,
    ) -> Result<(), ModelError> {
        let horizon = sys.hyperperiod()?;
        table.reset(horizon);
        self.ensure_order(sys, horizon)?;

        // Initial ready times: activation + release, pushed out by the
        // current completion bounds of event-triggered predecessors.
        self.ready.clear();
        self.ready.resize(self.n_jobs, Time::ZERO);
        for id in sys.app.ids() {
            let base = self.offsets[id.index()];
            if base == usize::MAX {
                continue;
            }
            let a = sys.app.activity(id);
            let period = sys.app.period_of(id);
            for k in 0..self.counts[id.index()] {
                let activation = period * k;
                let mut r = activation + a.release;
                for &p in sys.app.preds(id) {
                    if !sys.app.activity(p).is_time_triggered() {
                        r = r.max(activation + et_finish_bound[p.index()]);
                    }
                }
                self.ready[base + usize::try_from(k).expect("non-negative")] = r;
            }
        }

        // Per-node busy intervals and per-slot-instance frame usage.
        let n_nodes = sys.platform.len().max(
            sys.app
                .ids()
                .filter_map(|id| sys.app.activity(id).as_task().map(|t| t.node.index() + 1))
                .max()
                .unwrap_or(0),
        );
        if self.node_busy.len() < n_nodes {
            self.node_busy.resize_with(n_nodes, Vec::new);
        }
        for busy in &mut self.node_busy {
            busy.clear();
        }
        self.slot_usage.resize_with(sys.n_clusters(), Vec::new);
        for usage in &mut self.slot_usage {
            usage.clear();
        }

        for oi in 0..self.order.len() {
            let job = self.order[oi];
            let asap = self.ready[self.flat(job.activity, job.instance).expect("ordered job")];
            let finish = match sys.app.activity(job.activity).as_task() {
                Some(task) => place_task(
                    sys,
                    table,
                    &mut self.node_busy,
                    job,
                    task.node,
                    asap,
                    horizon,
                    placement,
                ),
                None => place_message(sys, table, &mut self.slot_usage, job, asap, horizon)?,
            };
            for &s in sys.app.succs(job.activity) {
                if !sys.app.activity(s).is_time_triggered() {
                    continue;
                }
                if let Some(sf) = self.flat(s, job.instance) {
                    self.ready[sf] = self.ready[sf].max(finish);
                }
            }
        }
        Ok(())
    }
}

/// Builds the static schedule table for all SCS tasks and ST messages of
/// the system over one hyperperiod.
///
/// `et_finish_bound` gives, per activity id, the current bound on the
/// completion (relative to graph activation) of event-triggered
/// activities; it is consulted when a time-triggered activity depends on
/// an event-triggered predecessor. Pass the activity durations on the
/// first holistic iteration.
///
/// # Errors
///
/// Returns an error if the hyperperiod overflows or the bus cycle is
/// empty while static messages exist.
pub fn build_schedule<'a>(
    sys: impl Into<SystemView<'a>>,
    et_finish_bound: &[Time],
) -> Result<ScheduleTable, ModelError> {
    build_schedule_with(sys, et_finish_bound, ScsPlacement::Asap)
}

/// [`build_schedule`] with an explicit SCS placement policy.
///
/// # Errors
///
/// See [`build_schedule`].
pub(crate) fn build_schedule_with<'a>(
    sys: impl Into<SystemView<'a>>,
    et_finish_bound: &[Time],
    placement: ScsPlacement,
) -> Result<ScheduleTable, ModelError> {
    let sys = sys.into();
    let mut builder = ScheduleBuilder::default();
    let mut table = ScheduleTable::default();
    builder.build_into(sys, et_finish_bound, placement, &mut table)?;
    Ok(table)
}

/// Places one SCS task instance on its node and returns its finish
/// time. Under [`ScsPlacement::Asap`] the earliest gap wins; under
/// [`ScsPlacement::MinimiseFpsImpact`] a handful of candidate gaps are
/// scored by the jitter-free response times of the node's FPS tasks.
#[allow(clippy::too_many_arguments)]
fn place_task(
    sys: SystemView<'_>,
    table: &mut ScheduleTable,
    node_busy: &mut [Vec<(Time, Time)>],
    job: Job,
    node: flexray_model::NodeId,
    asap: Time,
    horizon: Time,
    placement: ScsPlacement,
) -> Time {
    let wcet = sys
        .app
        .activity(job.activity)
        .as_task()
        .expect("task job")
        .wcet;
    let start = match placement {
        ScsPlacement::Asap => first_gap(&node_busy[node.index()], asap, wcet, horizon),
        ScsPlacement::MinimiseFpsImpact => {
            choose_fps_friendly_start(sys, &node_busy[node.index()], node, asap, wcet, horizon)
        }
    };
    let busy = &mut node_busy[node.index()];
    let (start, finish, overflow) = match start {
        Some(s) => (s, s + wcet, false),
        None => {
            // Synthetic placement past the horizon for graded costs.
            let tail = busy.last().map_or(Time::ZERO, |&(_, f)| f);
            let s = asap.max(tail).max(horizon);
            (s, s + wcet, true)
        }
    };
    if overflow {
        table.mark_overflow(job.activity);
    } else {
        let pos = busy.partition_point(|&(s, _)| s < start);
        busy.insert(pos, (start, finish));
    }
    table.push_task(TaskEntry {
        activity: job.activity,
        instance: job.instance,
        node,
        start,
        finish,
    });
    finish
}

/// Candidate placements for the FPS-aware policy: the ASAP gap plus the
/// gaps after each of the next few busy windows; the one minimising the
/// summed jitter-free FPS response times on the node wins (ties go to
/// the earlier start).
fn choose_fps_friendly_start(
    sys: SystemView<'_>,
    busy: &[(Time, Time)],
    node: flexray_model::NodeId,
    asap: Time,
    wcet: Time,
    horizon: Time,
) -> Option<Time> {
    const MAX_GAPS: usize = 3;
    // Enumerate start-aligned and end-aligned placements in the first
    // few feasible gaps.
    let mut candidates: Vec<Time> = Vec::new();
    let mut gap_start = Time::ZERO;
    let mut gaps_seen = 0usize;
    let mut boundaries: Vec<(Time, Time)> = busy.to_vec();
    boundaries.push((horizon, horizon)); // sentinel: final gap ends at the wall
    for &(ws, wf) in &boundaries {
        let lo = gap_start.max(asap);
        let hi = ws; // gap is [gap_start, ws)
        if hi - lo >= wcet {
            // start-aligned, mid-gap and end-aligned placements: the
            // mid-gap option splits the slack symmetrically, which often
            // wins once the periodic wrap-around is accounted for.
            candidates.push(lo);
            let end_aligned = hi - wcet;
            let mid = lo + (end_aligned - lo) / 2;
            if mid > lo {
                candidates.push(mid);
            }
            if end_aligned > mid {
                candidates.push(end_aligned);
            }
            gaps_seen += 1;
            if gaps_seen >= MAX_GAPS {
                break;
            }
        }
        gap_start = wf;
    }
    let fps_tasks: Vec<ActivityId> = sys
        .app
        .tasks_with_policy(SchedPolicy::Fps)
        .filter(|&t| sys.app.activity(t).as_task().map(|s| s.node) == Some(node))
        .collect();
    if candidates.len() <= 1 || fps_tasks.is_empty() {
        return candidates.first().copied();
    }
    let zero_jitter = vec![Time::ZERO; sys.app.activities().len()];
    let limit = horizon.saturating_mul(4);
    candidates.into_iter().min_by_key(|&start| {
        // tentative busy list with the candidate placement
        let mut tentative = busy.to_vec();
        let pos = tentative.partition_point(|&(s, _)| s < start);
        tentative.insert(pos, (start, start + wcet));
        merge_windows(&mut tentative);
        let avail = Availability::new(horizon, tentative);
        let impact: Time = fps_tasks
            .iter()
            .map(|&t| {
                crate::fps::fps_local_response(sys, &avail, t, &zero_jitter, limit).unwrap_or(limit)
            })
            .sum();
        (impact, start)
    })
}

/// Earliest start of a contiguous gap of `len` in the sorted busy list,
/// finishing no later than `wall`.
fn first_gap(busy: &[(Time, Time)], from: Time, len: Time, wall: Time) -> Option<Time> {
    let mut candidate = from.max(Time::ZERO);
    for &(s, f) in busy {
        if f <= candidate {
            continue;
        }
        if candidate + len <= s {
            break;
        }
        candidate = candidate.max(f);
    }
    (candidate + len <= wall).then_some(candidate)
}

/// Places one ST message instance in the earliest slot instance of its
/// sender node with room left in the frame; returns the delivery time
/// (slot end). The cycle geometry is that of the message's home
/// cluster (slot instances of different clusters never collide: each
/// cluster keeps its own usage vector).
fn place_message(
    sys: SystemView<'_>,
    table: &mut ScheduleTable,
    slot_usage: &mut [Vec<Time>],
    job: Job,
    ready: Time,
    horizon: Time,
) -> Result<Time, ModelError> {
    let usage = &mut slot_usage[usize::from(sys.cluster_of(job.activity))];
    let sys = sys.focused(job.activity);
    let cm = sys.comm_time(job.activity);
    let sender = sys.app.sender_of(job.activity).ok_or_else(|| {
        ModelError::MalformedGraph(format!(
            "static message '{}' has no sender",
            sys.app.activity(job.activity).name
        ))
    })?;
    let owners = &sys.bus.static_slot_owners;
    let slot_id =
        |offset: usize| SlotId::new(u16::try_from(offset + 1).expect("validated slot count"));
    let gd_cycle = sys.bus.gd_cycle();
    let slot_len = sys.bus.static_slot_len;
    let n_cycles = if gd_cycle > Time::ZERO {
        horizon.div_ceil(gd_cycle)
    } else {
        0
    };

    if owners.contains(&sender) && gd_cycle > Time::ZERO {
        let first_cycle = (ready.max(Time::ZERO)).div_floor(gd_cycle);
        for cycle in first_cycle..n_cycles {
            let row = usize::try_from(cycle).expect("non-negative cycle") * owners.len();
            for (offset, _) in owners.iter().enumerate().filter(|&(_, &o)| o == sender) {
                let slot_start = gd_cycle * cycle + slot_len * offset as i64;
                let slot_end = slot_start + slot_len;
                if slot_start < ready || slot_end > horizon {
                    continue;
                }
                if usage.len() <= row + offset {
                    usage.resize(row + offset + 1, Time::ZERO);
                }
                let used = &mut usage[row + offset];
                if *used + cm <= slot_len {
                    let tx_start = slot_start + *used;
                    *used += cm;
                    table.push_message(MessageEntry {
                        activity: job.activity,
                        instance: job.instance,
                        cycle,
                        slot: slot_id(offset),
                        tx_start,
                        tx_end: tx_start + cm,
                        slot_end,
                    });
                    return Ok(slot_end);
                }
            }
        }
    }
    // No feasible slot instance: synthetic delivery past the horizon.
    table.mark_overflow(job.activity);
    let finish = ready.max(horizon) + gd_cycle.max(cm) + cm;
    table.push_message(MessageEntry {
        activity: job.activity,
        instance: job.instance,
        cycle: n_cycles,
        slot: owners
            .iter()
            .position(|&o| o == sender)
            .map_or_else(|| SlotId::new(1), slot_id),
        tx_start: finish - cm,
        tx_end: finish,
        slot_end: finish,
    });
    Ok(finish)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexray_model::*;

    /// Two SCS tasks on one node plus a static message to another node.
    fn chain_system(slot_len_us: f64, owners: Vec<NodeId>) -> System {
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(100.0), Time::from_us(100.0));
        let a = app.add_task(
            g,
            "a",
            NodeId::new(0),
            Time::from_us(10.0),
            SchedPolicy::Scs,
            0,
        );
        let b = app.add_task(
            g,
            "b",
            NodeId::new(1),
            Time::from_us(5.0),
            SchedPolicy::Scs,
            0,
        );
        let m = app.add_message(g, "m", 8, MessageClass::Static, 0); // 4µs on unit phy
        app.connect(a, m, b).expect("edges");
        let mut bus = BusConfig::new(PhyParams::unit());
        bus.static_slot_len = Time::from_us(slot_len_us);
        bus.static_slot_owners = owners;
        System::validated(Platform::with_nodes(2), app, bus).expect("valid")
    }

    fn bounds(sys: &System) -> Vec<Time> {
        sys.app.ids().map(|id| sys.duration_of(id)).collect()
    }

    #[test]
    fn chain_is_scheduled_in_order() {
        let sys = chain_system(8.0, vec![NodeId::new(0), NodeId::new(1)]);
        let table = build_schedule(&sys, &bounds(&sys)).expect("schedule");
        assert!(table.is_feasible());
        let a = sys.app.find("a").expect("a");
        let m = sys.app.find("m").expect("m");
        let b = sys.app.find("b").expect("b");
        let fa = table.finish_of(a, 0).expect("a scheduled");
        let fm = table.finish_of(m, 0).expect("m scheduled");
        let fb = table.finish_of(b, 0).expect("b scheduled");
        assert_eq!(fa, Time::from_us(10.0));
        // message waits for a slot-1 instance starting at/after 10:
        // gdCycle = 16, slot1 of cycle 1 = [16, 24) -> delivery 24
        assert_eq!(fm, Time::from_us(24.0));
        assert_eq!(fb, Time::from_us(29.0));
    }

    #[test]
    fn message_waits_for_own_nodes_slot() {
        // node 0 owns only slot 2
        let sys = chain_system(8.0, vec![NodeId::new(1), NodeId::new(0)]);
        let table = build_schedule(&sys, &bounds(&sys)).expect("schedule");
        let m = sys.app.find("m").expect("m");
        // slot2 of cycle 0 = [8, 16): starts < ready(10) -> cycle 1 slot2
        // = [24, 32): delivery 32
        assert_eq!(table.finish_of(m, 0), Some(Time::from_us(32.0)));
    }

    #[test]
    fn all_instances_of_periodic_graph_are_placed() {
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(50.0), Time::from_us(50.0));
        app.add_task(
            g,
            "t",
            NodeId::new(0),
            Time::from_us(5.0),
            SchedPolicy::Scs,
            0,
        );
        let mut app2 = app.clone();
        let g2 = app2.add_graph("h", Time::from_us(100.0), Time::from_us(100.0));
        app2.add_task(
            g2,
            "u",
            NodeId::new(0),
            Time::from_us(7.0),
            SchedPolicy::Scs,
            0,
        );
        let bus = BusConfig::new(PhyParams::unit());
        let sys = System::validated(Platform::with_nodes(1), app2, bus).expect("valid");
        let table = build_schedule(&sys, &bounds(&sys)).expect("schedule");
        let t = sys.app.find("t").expect("t");
        // period 50 in hyperperiod 100 => 2 instances
        assert!(table.finish_of(t, 0).is_some());
        assert!(table.finish_of(t, 1).is_some());
        assert!(table.finish_of(t, 1).expect("inst 1") >= Time::from_us(50.0));
    }

    #[test]
    fn frame_packing_shares_a_slot() {
        // Two messages of 4µs from node 0 into a 8µs slot: same frame.
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(100.0), Time::from_us(100.0));
        let a = app.add_task(
            g,
            "a",
            NodeId::new(0),
            Time::from_us(1.0),
            SchedPolicy::Scs,
            0,
        );
        let b = app.add_task(
            g,
            "b",
            NodeId::new(1),
            Time::from_us(1.0),
            SchedPolicy::Scs,
            0,
        );
        let c = app.add_task(
            g,
            "c",
            NodeId::new(1),
            Time::from_us(1.0),
            SchedPolicy::Scs,
            0,
        );
        let m1 = app.add_message(g, "m1", 4, MessageClass::Static, 0); // 4µs
        let m2 = app.add_message(g, "m2", 4, MessageClass::Static, 0); // 4µs
        app.connect(a, m1, b).expect("edges");
        app.connect(a, m2, c).expect("edges");
        let mut bus = BusConfig::new(PhyParams::unit());
        bus.static_slot_len = Time::from_us(8.0);
        bus.static_slot_owners = vec![NodeId::new(0)];
        let sys = System::validated(Platform::with_nodes(2), app, bus).expect("valid");
        let table = build_schedule(&sys, &bounds(&sys)).expect("schedule");
        let e1 = table
            .messages()
            .iter()
            .find(|e| e.activity == sys.app.find("m1").expect("m1"))
            .expect("entry");
        let e2 = table
            .messages()
            .iter()
            .find(|e| e.activity == sys.app.find("m2").expect("m2"))
            .expect("entry");
        assert_eq!(e1.cycle, e2.cycle);
        assert_eq!(e1.slot, e2.slot);
        assert_ne!(e1.tx_start, e2.tx_start);
        assert_eq!(e1.slot_end, e2.slot_end); // both delivered at slot end
    }

    #[test]
    fn infeasible_message_is_marked_overflowed() {
        // Slot too scarce: node 0 owns one 4µs slot, needs 3 x 4µs in one
        // cycle of 100µs horizon but period forces them into few cycles.
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(16.0), Time::from_us(16.0));
        let a = app.add_task(
            g,
            "a",
            NodeId::new(0),
            Time::from_us(1.0),
            SchedPolicy::Scs,
            0,
        );
        let b = app.add_task(
            g,
            "b",
            NodeId::new(1),
            Time::from_us(1.0),
            SchedPolicy::Scs,
            0,
        );
        let m1 = app.add_message(g, "m1", 4, MessageClass::Static, 0); // 4µs
        let m2 = app.add_message(g, "m2", 4, MessageClass::Static, 0); // 4µs
        app.connect(a, m1, b).expect("edges");
        app.add_edge(a, m2).expect("edge");
        app.add_edge(m2, b).expect("edge");
        let mut bus = BusConfig::new(PhyParams::unit());
        bus.static_slot_len = Time::from_us(4.0);
        bus.static_slot_owners = vec![NodeId::new(0)];
        bus.n_minislots = 8; // cycle 12µs; horizon 16 -> only one full cycle
        let sys = System::validated(Platform::with_nodes(2), app, bus).expect("valid");
        let table = build_schedule(&sys, &bounds(&sys)).expect("schedule");
        assert!(!table.is_feasible());
        assert!(!table.overflowed().is_empty());
    }

    /// One SCS hog [0,40) plus a second SCS task and an FPS task on the
    /// same node: ASAP placement glues the SCS tasks into one block and
    /// starves the FPS task; the FPS-aware policy moves the second task
    /// away from the block.
    fn contended_node() -> System {
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(100.0), Time::from_us(100.0));
        app.add_task(
            g,
            "hog",
            NodeId::new(0),
            Time::from_us(40.0),
            SchedPolicy::Scs,
            0,
        );
        app.add_task(
            g,
            "second",
            NodeId::new(0),
            Time::from_us(10.0),
            SchedPolicy::Scs,
            0,
        );
        app.add_task(
            g,
            "fps",
            NodeId::new(0),
            Time::from_us(5.0),
            SchedPolicy::Fps,
            1,
        );
        let bus = BusConfig::new(PhyParams::unit());
        System::validated(Platform::with_nodes(1), app, bus).expect("valid")
    }

    #[test]
    fn fps_aware_placement_avoids_growing_busy_blocks() {
        let sys = contended_node();
        let asap_table =
            build_schedule_with(&sys, &bounds(&sys), ScsPlacement::Asap).expect("asap");
        let friendly_table =
            build_schedule_with(&sys, &bounds(&sys), ScsPlacement::MinimiseFpsImpact)
                .expect("friendly");
        let second = sys.app.find("second").expect("second");
        // ASAP glues 'second' to the hog: starts at 40
        let asap_start = asap_table
            .tasks()
            .iter()
            .find(|e| e.activity == second)
            .expect("entry")
            .start;
        assert_eq!(asap_start, Time::from_us(40.0));
        // the FPS-aware policy picks a later, slack-preserving start
        let friendly_start = friendly_table
            .tasks()
            .iter()
            .find(|e| e.activity == second)
            .expect("entry")
            .start;
        assert!(friendly_start > asap_start, "got {friendly_start}");
        // and the FPS task's worst-case response improves
        let fps = sys.app.find("fps").expect("fps");
        let limit = Time::from_us(1000.0);
        let zero = vec![Time::ZERO; sys.app.activities().len()];
        let r_asap = crate::fps::fps_local_response(
            &sys,
            &Availability::new(
                asap_table.horizon(),
                asap_table.busy_windows(NodeId::new(0)),
            ),
            fps,
            &zero,
            limit,
        )
        .expect("converges");
        let r_friendly = crate::fps::fps_local_response(
            &sys,
            &Availability::new(
                friendly_table.horizon(),
                friendly_table.busy_windows(NodeId::new(0)),
            ),
            fps,
            &zero,
            limit,
        )
        .expect("converges");
        assert!(r_friendly < r_asap, "{r_friendly} !< {r_asap}");
    }

    #[test]
    fn placement_policies_agree_without_fps_tasks() {
        let sys = chain_system(8.0, vec![NodeId::new(0), NodeId::new(1)]);
        let a = build_schedule_with(&sys, &bounds(&sys), ScsPlacement::Asap).expect("asap");
        let b = build_schedule_with(&sys, &bounds(&sys), ScsPlacement::MinimiseFpsImpact)
            .expect("friendly");
        for e in a.tasks() {
            let other = b
                .tasks()
                .iter()
                .find(|x| x.activity == e.activity && x.instance == e.instance)
                .expect("same job set");
            assert_eq!(e.start, other.start);
        }
    }

    #[test]
    fn tt_task_waits_for_et_bound() {
        // An FPS task feeds an SCS task via a dynamic message; the SCS
        // start must respect the provided ET finish bounds.
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(100.0), Time::from_us(100.0));
        let e = app.add_task(
            g,
            "e",
            NodeId::new(0),
            Time::from_us(3.0),
            SchedPolicy::Fps,
            5,
        );
        let s = app.add_task(
            g,
            "s",
            NodeId::new(1),
            Time::from_us(2.0),
            SchedPolicy::Scs,
            0,
        );
        let m = app.add_message(g, "m", 4, MessageClass::Dynamic, 1);
        app.connect(e, m, s).expect("edges");
        let mut bus = BusConfig::new(PhyParams::unit());
        bus.n_minislots = 10;
        bus.frame_ids.insert(m, FrameId::new(1));
        let sys = System::validated(Platform::with_nodes(2), app, bus).expect("valid");
        let mut et_bound = bounds(&sys);
        et_bound[m.index()] = Time::from_us(42.0);
        let table = build_schedule(&sys, &et_bound).expect("schedule");
        let entry = table
            .tasks()
            .iter()
            .find(|t| t.activity == s)
            .expect("s entry");
        assert_eq!(entry.start, Time::from_us(42.0));
    }

    #[test]
    fn builder_reuse_matches_one_shot_builds() {
        // The same builder driven across several DYN lengths and slot
        // layouts must reproduce fresh one-shot tables exactly.
        let base = chain_system(8.0, vec![NodeId::new(0), NodeId::new(1)]);
        let mut builder = ScheduleBuilder::default();
        let mut table = ScheduleTable::default();
        for n_minislots in [0u32, 5, 17, 40] {
            for owners in [
                vec![NodeId::new(0), NodeId::new(1)],
                vec![NodeId::new(1), NodeId::new(0)],
            ] {
                let mut sys = base.clone();
                sys.bus.n_minislots = n_minislots;
                sys.bus.static_slot_owners = owners;
                let fresh = build_schedule(&sys, &bounds(&sys)).expect("fresh");
                builder
                    .build_into(sys.view(), &bounds(&sys), ScsPlacement::Asap, &mut table)
                    .expect("reused");
                assert_eq!(table.tasks(), fresh.tasks());
                assert_eq!(table.messages(), fresh.messages());
                assert_eq!(table.overflowed(), fresh.overflowed());
                assert_eq!(table.horizon(), fresh.horizon());
            }
        }
    }

    #[test]
    fn clusters_with_one_slot_layout_keep_separate_frames() {
        // Node 0 sends two 4 µs messages in static slot 1 (6 µs): one
        // frame holds only one of them. On one cluster the second waits
        // a cycle; homed on two clusters with the same layout, each
        // fills its own cluster's frame of the same (cycle, slot).
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(100.0), Time::from_us(100.0));
        let n0 = NodeId::new(0);
        let n1 = NodeId::new(1);
        let a = app.add_task(g, "a", n0, Time::from_us(10.0), SchedPolicy::Scs, 0);
        let b = app.add_task(g, "b", n1, Time::from_us(1.0), SchedPolicy::Scs, 0);
        let m0 = app.add_message(g, "m0", 4, MessageClass::Static, 0);
        let m1 = app.add_message(g, "m1", 4, MessageClass::Static, 0);
        app.connect(a, m0, b).expect("edges");
        app.connect(a, m1, b).expect("edges");
        let mut bus = BusConfig::new(PhyParams::unit());
        bus.static_slot_len = Time::from_us(6.0);
        bus.static_slot_owners = vec![n0, n1];
        let platform = Platform::with_nodes(2);
        let delivery = |table: &ScheduleTable, m: ActivityId| {
            let e = table
                .messages()
                .iter()
                .find(|e| e.activity == m)
                .expect("placed");
            (e.cycle, e.slot, e.slot_end)
        };
        let bounds: Vec<Time> = {
            let sys = SystemView::new(&platform, &app, &bus);
            app.ids().map(|id| sys.duration_of(id)).collect()
        };

        // gdCycle = 12 µs: slot 1 of cycle 1 is [12, 18).
        let one = build_schedule(SystemView::new(&platform, &app, &bus), &bounds).expect("one");
        let slot1 = SlotId::new(1);
        assert_eq!(delivery(&one, m0), (1, slot1, Time::from_us(18.0)));
        assert_eq!(delivery(&one, m1), (2, slot1, Time::from_us(30.0)));

        let extra = [bus.clone()];
        let mut homes = vec![0u16; app.activities().len()];
        homes[m1.index()] = 1;
        let two = build_schedule(
            SystemView::with_network(&platform, &app, &bus, &extra, &homes),
            &bounds,
        )
        .expect("two");
        assert_eq!(delivery(&two, m0), (1, slot1, Time::from_us(18.0)));
        assert_eq!(delivery(&two, m1), (1, slot1, Time::from_us(18.0)));
        assert_eq!(two.finish_of(b, 0), Some(Time::from_us(19.0)));
    }
}
