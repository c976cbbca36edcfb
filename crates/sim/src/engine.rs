//! The simulation engine: a discrete-event kernel over a closed set of
//! wake-up handlers.
//!
//! The engine executes a [`System`](flexray_model::System) against a
//! static [`ScheduleTable`] for a number of hyperperiods and reports the
//! observed response time of every activity. It owns one [`Cpu`] per
//! node and one [`DynSegment`] arbiter per cluster; activations, SCS
//! starts and finishes and ST deliveries need no state of their own and
//! go to the [`Kernel`]. [`Engine::dispatch`] is the one place a wake-up
//! meets its handler, in the same-instant order the crate docs lay
//! down.
//!
//! Two features sit on top of the dispatch:
//!
//! * **Fuzzed execution orders** ([`ExecutionOrder::Fuzzed`]): the
//!   mutual order of same-instant wake-ups *within one phase* is not
//!   specified by the protocol, so a fuzzed run permutes each
//!   within-phase span with a deterministic permutation derived
//!   statelessly from `(order seed, position in the hyperperiod, phase,
//!   span length)`. Phase boundaries — the causal backbone — are never
//!   crossed. [`ExecutionOrder::Canonical`] (the default) services
//!   wake-ups in queue order: time, then [`Signal::order_key`], then
//!   cluster, pinned by `tests/sim_pin.rs`.
//! * **Hyperperiod compression** ([`SimConfig::compress`], default on):
//!   at every hyperperiod boundary the engine fingerprints its complete
//!   boundary-normalised state; when a boundary state recurs, the run
//!   between the two boundaries is a proven cycle and the engine
//!   fast-forwards over all whole repetitions of it, relocating the
//!   queue, CPU and arbiter state instead of re-simulating. The
//!   comparison is exact (word-stream equality, no hashing), so a
//!   compressed run reports identical responses, counts and violations
//!   to an uncompressed one.

use crate::cpu::Cpu;
use crate::dyn_segment::DynSegment;
use crate::event::{Entry, EventQueue, Immediate, JobRef, Signal};
use crate::kernel::{JobStore, Kernel};
use flexray_analysis::{Availability, ScheduleTable};
use flexray_model::{mix_words, ActivityId, Fingerprint, ModelError, SplitMix64, SystemView, Time};
use std::collections::HashMap;

/// How same-instant, same-phase wake-ups are ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionOrder {
    /// The canonical order: time, then `order_key`, then cluster.
    Canonical,
    /// Deterministically permuted per-batch order derived from `seed`.
    /// Two runs with the same `(system, config, seed)` are identical.
    Fuzzed {
        /// The order seed.
        seed: u64,
    },
}

/// Starvation guard: CPU projections beyond `reps · H · LIMIT_FACTOR`
/// are treated as never completing, and the DYN drain after the last
/// hyperperiod stops there.
pub(crate) const LIMIT_FACTOR: i64 = 4;

/// Simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of hyperperiods to simulate.
    pub reps: i64,
    /// Service order of same-instant, same-phase wake-ups.
    pub order: ExecutionOrder,
    /// Detect repeating hyperperiod boundary states and fast-forward
    /// over proven cycles (exact; output is unaffected).
    pub compress: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            reps: 2,
            order: ExecutionOrder::Canonical,
            compress: true,
        }
    }
}

/// Observed outcome of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Worst observed response per activity (None if no instance
    /// completed).
    pub responses: Vec<Option<Time>>,
    /// Completed / total job instances.
    pub completed_jobs: usize,
    /// Total job instances.
    pub total_jobs: usize,
    /// Precedence or buffering violations detected while following the
    /// static table (a correct schedule produces none). Sorted and
    /// deduplicated; times are hyperperiod-relative so canonical,
    /// fuzzed and compressed runs report comparably.
    pub violations: Vec<String>,
    /// Hyperperiods actually event-stepped, not counting the drain of
    /// the carryover after the last one.
    pub hyperperiods_simulated: i64,
    /// Hyperperiods skipped by the compression fast-forward.
    pub hyperperiods_skipped: i64,
    /// Queue wake-ups serviced (immediate signals excluded): the
    /// engine's deterministic work counter. Like
    /// `hyperperiods_simulated`, it differs between compressed and
    /// uncompressed runs of one system.
    pub wakeups: u64,
}

impl SimReport {
    /// Worst observed response of one activity.
    #[must_use]
    pub fn response(&self, id: ActivityId) -> Option<Time> {
        self.responses[id.index()]
    }

    /// `true` if every job instance completed and no violation occurred.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.completed_jobs == self.total_jobs && self.violations.is_empty()
    }
}

/// Runs the simulation. Accepts a `&System`, a [`SystemView`] or a
/// multi-cluster network view (one dynamic-segment arbiter is spawned
/// per cluster).
///
/// # Errors
///
/// [`ModelError::InvalidConfig`] if `cfg.reps` is below 1; propagates
/// model errors (hyperperiod overflow, malformed graphs, job-index
/// overflow).
pub fn simulate<'a>(
    sys: impl Into<SystemView<'a>>,
    table: &'a ScheduleTable,
    cfg: &SimConfig,
) -> Result<SimReport, ModelError> {
    Ok(Engine::new(sys.into(), table, *cfg)?.run())
}

/// Convenience: builds the static schedule first (with duration bounds
/// for event-triggered predecessors) and then simulates with the given
/// configuration.
///
/// # Errors
///
/// Propagates model errors.
pub fn simulate_configured<'a>(
    sys: impl Into<SystemView<'a>>,
    cfg: &SimConfig,
) -> Result<SimReport, ModelError> {
    let sys = sys.into();
    let bounds: Vec<Time> = sys.app.ids().map(|id| sys.duration_of(id)).collect();
    let table = flexray_analysis::build_schedule(sys, &bounds)?;
    simulate(sys, &table, cfg)
}

/// Convenience: [`simulate_configured`] with the default configuration.
///
/// # Errors
///
/// Propagates model errors.
pub fn simulate_default<'a>(sys: impl Into<SystemView<'a>>) -> Result<SimReport, ModelError> {
    simulate_configured(sys, &SimConfig::default())
}

/// Compression gives up after this many distinct boundary states.
const MAX_HISTORY: usize = 4096;

struct Engine<'a> {
    cfg: SimConfig,
    horizon: Time,
    kernel: Kernel<'a>,
    /// One CPU per node, in node order.
    cpus: Vec<Cpu>,
    /// One dynamic-segment arbiter per cluster, in cluster order.
    dyns: Vec<DynSegment<'a>>,
    /// Queue wake-ups serviced so far.
    wakeups: u64,
}

impl<'a> Engine<'a> {
    fn new(
        sys: SystemView<'a>,
        table: &'a ScheduleTable,
        cfg: SimConfig,
    ) -> Result<Self, ModelError> {
        if cfg.reps < 1 {
            return Err(ModelError::InvalidConfig(format!(
                "reps must be at least 1, got {}",
                cfg.reps
            )));
        }
        let horizon = sys.hyperperiod()?;
        let limit = horizon.saturating_mul(cfg.reps.saturating_mul(LIMIT_FACTOR));
        let jobs = JobStore::new(sys, horizon)?;
        let mut kernel = Kernel::new(sys, horizon, limit, jobs);

        // Per-cluster cycle layout over one hyperperiod: start of the
        // dynamic segment and its effective minislot budget (the final
        // cycle may be truncated by the hyperperiod boundary).
        let mut cycle_infos = Vec::with_capacity(sys.n_clusters());
        for c in 0..sys.n_clusters() {
            #[allow(clippy::cast_possible_truncation)] // n_clusters bounded by u16
            let bus = sys.bus_of_cluster(c as u16);
            let gd_cycle = bus.gd_cycle();
            let st_bus = bus.st_bus();
            let ms = bus.phy.gd_minislot;
            let mut cycle_info = Vec::new();
            if gd_cycle > Time::ZERO && bus.n_minislots > 0 {
                let n_cycles = horizon.div_ceil(gd_cycle);
                for c in 0..n_cycles {
                    let cycle_start = gd_cycle * c;
                    let dyn_start = cycle_start + st_bus;
                    let boundary = (cycle_start + gd_cycle).min(horizon);
                    if dyn_start >= boundary {
                        continue;
                    }
                    let budget = (boundary - dyn_start) / ms;
                    let eff = u32::try_from(budget.max(0))
                        .unwrap_or(u32::MAX)
                        .min(bus.n_minislots);
                    cycle_info.push((dyn_start, eff));
                }
            }
            u32::try_from(cycle_info.len()).map_err(|_| {
                ModelError::InvalidConfig(format!(
                    "{} communication cycles per hyperperiod — too many to simulate",
                    cycle_info.len()
                ))
            })?;
            cycle_infos.push(cycle_info);
        }

        let cpus = sys
            .platform
            .nodes()
            .map(|node| Cpu::new(Availability::new(horizon, table.busy_windows(node))))
            .collect();
        let wakeups = table_wakeups(&kernel, table, &cycle_infos)?;
        kernel.queue = EventQueue::with_template(horizon, wakeups);
        let dyns = cycle_infos
            .into_iter()
            .enumerate()
            .map(|(c, info)| {
                #[allow(clippy::cast_possible_truncation)] // n_clusters bounded by u16
                let c = c as u16;
                DynSegment::new(sys.focused_cluster(c), c, info)
            })
            .collect();

        Ok(Engine {
            cfg,
            horizon,
            kernel,
            cpus,
            dyns,
            wakeups: 0,
        })
    }

    fn run(mut self) -> SimReport {
        let reps = self.cfg.reps;
        let per_rep = self.kernel.jobs.per_rep() as usize;
        let total_jobs = per_rep * usize::try_from(reps).unwrap_or(usize::MAX);
        let mut history: Option<HashMap<Vec<u64>, (i64, usize)>> =
            self.cfg.compress.then(HashMap::new);
        let mut next_rep = 0i64;
        let mut simulated = 0i64;
        let mut skipped = 0i64;
        while next_rep < reps {
            // A hyperperiod's table-driven wake-ups become pending only
            // when it starts: an empty dynamic slot's jump is bounded
            // by the next pending wake-up, so seeding ahead would
            // change the chain's steps.
            self.kernel.jobs.seed_slab(next_rep);
            self.kernel.queue.seed(next_rep);
            let boundary = self.horizon.saturating_mul(next_rep + 1);
            self.process_until(boundary);
            simulated += 1;
            next_rep += 1;
            self.kernel.jobs.gc(next_rep);
            if next_rep >= reps || history.is_none() {
                continue;
            }
            let key = self.boundary_fingerprint(next_rep, boundary).into_words();
            let h = history.as_mut().expect("checked above");
            if let Some(&(prev_rep, prev_completed)) = h.get(&key) {
                // The stretch [prev_rep, next_rep) is a proven cycle:
                // the engine state at both boundaries is identical up
                // to relocation. Fast-forward over all whole
                // repetitions that fit before the end of the run.
                let cycle_len = next_rep - prev_rep;
                let n_skip = (reps - next_rep) / cycle_len;
                if n_skip > 0 {
                    let dreps = n_skip * cycle_len;
                    let per_cycle = self.kernel.completed - prev_completed;
                    self.fast_forward(dreps);
                    self.kernel.completed += per_cycle * usize::try_from(n_skip).unwrap_or(0);
                    next_rep += dreps;
                    skipped += dreps;
                }
                history = None;
            } else if h.len() >= MAX_HISTORY {
                history = None;
            } else {
                h.insert(key, (next_rep, self.kernel.completed));
            }
        }
        // Drain the carryover past the last boundary: completions may
        // trail into later hyperperiods, and CPU projections are bounded
        // by the starvation limit. A DYN frame buffered in a CHI, or
        // made ready later by a trailing completion, goes out only in a
        // later cycle. So while one may be sent, the next hyperperiod's
        // dynamic-slot chain heads are seeded, and nothing else: no
        // activation, SCS start or ST delivery.
        let mut boundary = self.horizon.saturating_mul(next_rep);
        while boundary < self.kernel.limit
            && (self.dyns.iter().any(DynSegment::holds_frames)
                || self.kernel.dyn_frame_may_follow())
        {
            self.kernel.queue.seed_dyn_heads(next_rep);
            next_rep += 1;
            boundary = self.horizon.saturating_mul(next_rep);
            self.process_until(boundary);
        }
        self.process_until(Time::MAX);
        SimReport {
            responses: std::mem::take(&mut self.kernel.responses),
            completed_jobs: self.kernel.completed,
            total_jobs,
            violations: std::mem::take(&mut self.kernel.violations)
                .into_iter()
                .collect(),
            hyperperiods_simulated: simulated,
            hyperperiods_skipped: skipped,
            wakeups: self.wakeups,
        }
    }

    /// Services queue wake-ups strictly before `bound`.
    fn process_until(&mut self, bound: Time) {
        match self.cfg.order {
            ExecutionOrder::Canonical => {
                // The queue pops in canonical order: time, then
                // `order_key`, then cluster.
                while let Some(e) = self.kernel.queue.pop_before(bound) {
                    self.dispatch(e);
                }
            }
            ExecutionOrder::Fuzzed { seed } => self.process_fuzzed(bound, seed),
        }
    }

    /// Fuzzed service loop: drains each same-instant batch, permutes
    /// every within-phase span with a stateless deterministic shuffle,
    /// and absorbs wake-ups created *for the same instant* during
    /// servicing into the not-yet-serviced remainder at a
    /// phase-respecting position.
    fn process_fuzzed(&mut self, bound: Time, seed: u64) {
        let mut batch: Vec<Entry> = Vec::new();
        loop {
            let Some(t) = self.kernel.queue.peek_time() else {
                return;
            };
            if t >= bound {
                return;
            }
            batch.clear();
            while self.kernel.queue.peek_time() == Some(t) {
                let Some(e) = self.kernel.queue.pop() else {
                    break;
                };
                batch.push(e);
            }
            self.shuffle_spans(&mut batch, t, seed);
            let mut i = 0;
            while i < batch.len() {
                let e = batch[i];
                i += 1;
                self.dispatch(e);
                // Wake-ups scheduled for this same instant join the
                // remainder of the batch.
                while self.kernel.queue.peek_time() == Some(t) {
                    let Some(n) = self.kernel.queue.pop() else {
                        break;
                    };
                    let pos = self.fuzzed_insert_pos(&batch[i..], &n, t, seed);
                    batch.insert(i + pos, n);
                }
            }
        }
    }

    /// Services one wake-up at its handler, then drains the immediates
    /// it raised, in the order they were raised.
    fn dispatch(&mut self, e: Entry) {
        self.wakeups += 1;
        let now = e.time;
        let kernel = &mut self.kernel;
        match e.signal {
            Signal::Activate { job } => kernel.resolve_dependency(job, now),
            Signal::ScsStart { job } => kernel.audit_start(job, now),
            Signal::ScsFinish { job } | Signal::DynDelivery { job } => kernel.complete(job, now),
            Signal::StDelivery { job } => {
                kernel.audit_delivery(job, now);
                kernel.complete(job, now);
            }
            Signal::FpsCompletion { node, version } => {
                let (finished, next) = self.cpus[node].complete(now, version, kernel.limit);
                if let Some(job) = finished {
                    kernel.complete(job, now);
                }
                kernel.schedule_completion(node, next);
            }
            Signal::DynSlot {
                cluster,
                rep,
                cycle,
                fid,
                counter,
            } => self.dyns[usize::from(cluster)].dyn_slot(now, kernel, rep, cycle, fid, counter),
        }
        while let Some(imm) = self.kernel.immediates.pop_front() {
            match imm {
                Immediate::FpsArrive {
                    node,
                    job,
                    priority,
                    wcet,
                } => {
                    let p = self.cpus[node].arrive(now, job, priority, wcet, self.kernel.limit);
                    self.kernel.schedule_completion(node, p);
                }
                Immediate::ChiEnqueue {
                    cluster,
                    fid,
                    job,
                    priority,
                } => self.dyns[usize::from(cluster)].enqueue(now, fid, job, priority),
            }
        }
    }

    /// Fisher–Yates over each within-phase span of a same-instant
    /// batch. The permutation is derived statelessly from `(seed,
    /// position in the hyperperiod, phase, span length)` so that equal
    /// boundary states replay equal permutations (compression
    /// soundness).
    fn shuffle_spans(&self, batch: &mut [Entry], t: Time, seed: u64) {
        #[allow(clippy::cast_sign_loss)] // hyperperiod-relative, non-negative
        let rel = (t % self.horizon).as_ns() as u64;
        let mut start = 0;
        while start < batch.len() {
            let phase = batch[start].signal.phase();
            let mut end = start + 1;
            while end < batch.len() && batch[end].signal.phase() == phase {
                end += 1;
            }
            let span = &mut batch[start..end];
            if span.len() > 1 {
                let mut rng =
                    SplitMix64::new(mix_words(&[seed, rel, phase as u64, span.len() as u64]));
                for j in (1..span.len()).rev() {
                    span.swap(j, rng.next_below(j + 1));
                }
            }
            start = end;
        }
    }

    /// Position (within the unserviced remainder of a batch) for a
    /// wake-up created mid-batch: uniformly random inside its phase
    /// span; if its phase has already been fully serviced it goes
    /// immediately next — the closest fuzzed analogue of the canonical
    /// heap discipline, where such a wake-up would pop before anything
    /// later-phased.
    fn fuzzed_insert_pos(&self, rest: &[Entry], n: &Entry, t: Time, seed: u64) -> usize {
        let p = n.signal.phase();
        let lo = rest.partition_point(|e| e.signal.phase() < p);
        let hi = rest.partition_point(|e| e.signal.phase() <= p);
        if hi == lo && lo == 0 {
            return 0;
        }
        #[allow(clippy::cast_sign_loss)]
        let rel = (t % self.horizon).as_ns() as u64;
        let key = n.signal.order_key();
        let mut rng = SplitMix64::new(mix_words(&[
            seed,
            rel,
            key[0],
            key[1],
            key[2],
            key[3],
            key[4],
            (hi - lo + 1) as u64,
        ]));
        lo + rng.next_below(hi - lo + 1)
    }

    /// The complete, boundary-normalised engine state at hyperperiod
    /// boundary `b_rep` (time `boundary`): job store, the CPUs in node
    /// order, the arbiters in cluster order, then the pending queue.
    fn boundary_fingerprint(&mut self, b_rep: i64, boundary: Time) -> Fingerprint {
        let mut fp = Fingerprint::new();
        self.kernel.jobs.fingerprint_into(b_rep, boundary, &mut fp);
        for cpu in &mut self.cpus {
            fp.push(0xF1A6_0002);
            cpu.fingerprint_into(boundary, b_rep, &mut fp);
        }
        for d in &self.dyns {
            d.fingerprint_into(boundary, b_rep, &mut fp);
        }
        fp.push(0xF1A6_0004);
        for e in self.kernel.queue.snapshot_sorted() {
            fp.push_time(e.time - boundary);
            let key = e.signal.order_key();
            fp.push(key[0]);
            match e.signal {
                Signal::ScsFinish { job }
                | Signal::StDelivery { job }
                | Signal::DynDelivery { job }
                | Signal::Activate { job }
                | Signal::ScsStart { job } => {
                    fp.push(u64::from(job.act));
                    fp.push_i64(job.rep - b_rep);
                    fp.push(u64::from(job.k));
                }
                Signal::FpsCompletion { node, version } => {
                    fp.push_usize(node);
                    // Versions are monotone counters; two equivalent
                    // boundary states differ in their absolute values,
                    // so fingerprint the staleness instead.
                    fp.push_i64(self.cpus[node].version_delta(version));
                }
                Signal::DynSlot {
                    cluster,
                    rep,
                    cycle,
                    fid,
                    counter,
                } => {
                    fp.push(u64::from(cluster));
                    fp.push_i64(rep - b_rep);
                    fp.push(u64::from(cycle));
                    fp.push(u64::from(fid));
                    fp.push(u64::from(counter));
                }
            }
        }
        fp
    }

    /// Relocates the whole engine `dreps` hyperperiods forward: queue
    /// entries, CPU and arbiter state and job coordinates. Exact because
    /// every periodic structure (availability, cycle layout, seeding)
    /// repeats with the hyperperiod.
    fn fast_forward(&mut self, dreps: i64) {
        let dt = self.horizon.saturating_mul(dreps);
        self.kernel.queue.shift(dt, dreps);
        for cpu in &mut self.cpus {
            cpu.shift(dt, dreps);
        }
        for d in &mut self.dyns {
            d.shift(dt, dreps);
        }
        self.kernel.jobs.shift(dreps);
    }
}

/// The table-driven wake-ups of hyperperiod 0, the template every
/// hyperperiod's are relocated from: activation tokens, SCS starts and
/// finishes, ST deliveries and the head of each cycle's dynamic-slot
/// chain.
fn table_wakeups(
    kernel: &Kernel<'_>,
    table: &ScheduleTable,
    cycle_infos: &[Vec<(Time, u32)>],
) -> Result<Vec<Entry>, ModelError> {
    let sys = kernel.sys;
    let mut wakeups = Vec::new();
    let mut push = |time, signal| wakeups.push(Entry { time, signal });
    for id in sys.app.ids() {
        let act = u32::try_from(id.index())
            .map_err(|_| ModelError::InvalidConfig("activity index out of range".into()))?;
        let release = sys.app.activity(id).release;
        let period = sys.app.period_of(id);
        for k in 0..kernel.jobs.iph(act as usize) {
            let job = JobRef { act, rep: 0, k };
            push(period * i64::from(k) + release, Signal::Activate { job });
        }
    }
    for e in table.tasks() {
        let job = table_job(sys, e.activity, e.instance)?;
        push(e.start, Signal::ScsStart { job });
        push(e.finish, Signal::ScsFinish { job });
    }
    for e in table.messages() {
        let job = table_job(sys, e.activity, e.instance)?;
        push(e.slot_end, Signal::StDelivery { job });
    }
    for (cluster, info) in cycle_infos.iter().enumerate() {
        #[allow(clippy::cast_possible_truncation)] // n_clusters bounded by u16
        let cluster = cluster as u16;
        if sys.bus_of_cluster(cluster).dyn_slot_count() == 0 {
            continue;
        }
        for (c, &(dyn_start, eff)) in info.iter().enumerate() {
            if eff > 0 {
                #[allow(clippy::cast_possible_truncation)] // length checked in new()
                let cycle = c as u32;
                let head = Signal::DynSlot {
                    cluster,
                    rep: 0,
                    cycle,
                    fid: 1,
                    counter: 1,
                };
                push(dyn_start, head);
            }
        }
    }
    Ok(wakeups)
}

/// The hyperperiod-0 job of a schedule-table entry.
fn table_job(
    sys: SystemView<'_>,
    activity: ActivityId,
    instance: i64,
) -> Result<JobRef, ModelError> {
    let act = u32::try_from(activity.index())
        .map_err(|_| ModelError::InvalidConfig("activity index out of range".into()))?;
    let k = u32::try_from(instance).map_err(|_| {
        ModelError::InvalidConfig(format!(
            "schedule-table instance {instance} of activity '{}' is out of range",
            sys.app.activity(activity).name
        ))
    })?;
    Ok(JobRef { act, rep: 0, k })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexray_analysis::TaskEntry;
    use flexray_model::{
        Application, BusConfig, FrameId, MessageClass, NodeId, PhyParams, Platform, SchedPolicy,
        System,
    };

    /// 50 ns gdBit so that `2·n` bytes last exactly `n` µs; 1 µs
    /// minislots.
    fn fine_phy() -> PhyParams {
        PhyParams {
            gd_bit: Time::from_ns(50),
            gd_macrotick: Time::MICROSECOND,
            gd_minislot: Time::MICROSECOND,
            frame_overhead_bytes: 0,
        }
    }

    fn tt_chain_system() -> System {
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
        let m = app.add_message(g, "m", 8, MessageClass::Static, 0); // 4µs
        app.connect(a, m, b).expect("edges");
        let mut bus = BusConfig::new(fine_phy());
        bus.static_slot_len = Time::from_us(8.0);
        bus.static_slot_owners = vec![NodeId::new(0), NodeId::new(1)];
        System::validated(Platform::with_nodes(2), app, bus).expect("valid")
    }

    #[test]
    fn tt_chain_follows_table() {
        let sys = tt_chain_system();
        let report = simulate_default(&sys).expect("simulation");
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        let a = sys.app.find("a").expect("a");
        let m = sys.app.find("m").expect("m");
        let b = sys.app.find("b").expect("b");
        // identical to the scheduler test: a ends 10, m delivered 24, b 29
        assert_eq!(report.response(a), Some(Time::from_us(10.0)));
        assert_eq!(report.response(m), Some(Time::from_us(24.0)));
        assert_eq!(report.response(b), Some(Time::from_us(29.0)));
    }

    /// Fig. 4 of the paper: N1 sends m1 (7 minislots) and m3 (3), N2
    /// sends m2 (6); ST segment one 8µs slot.
    fn fig4_system(frame_ids: &[(usize, u16)], n_minislots: u32) -> (System, Vec<ActivityId>) {
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(1000.0), Time::from_us(1000.0));
        let sizes = [14u32, 12, 6]; // 7, 6, 3 µs
        let senders = [0usize, 1, 0];
        let mut msgs = Vec::new();
        for i in 0..3 {
            let s = app.add_task(
                g,
                &format!("s{i}"),
                NodeId::new(senders[i]),
                Time::from_ns(1),
                SchedPolicy::Fps,
                10,
            );
            let r = app.add_task(
                g,
                &format!("r{i}"),
                NodeId::new(1 - senders[i]),
                Time::from_ns(1),
                SchedPolicy::Fps,
                10,
            );
            // priority_m1 > priority_m3
            let prio = [9, 5, 1][i];
            let m = app.add_message(
                g,
                &format!("m{}", i + 1),
                sizes[i],
                MessageClass::Dynamic,
                prio,
            );
            app.connect(s, m, r).expect("edges");
            msgs.push(m);
        }
        let mut bus = BusConfig::new(fine_phy());
        bus.static_slot_len = Time::from_us(8.0);
        bus.static_slot_owners = vec![NodeId::new(0)];
        bus.n_minislots = n_minislots;
        for &(mi, fid) in frame_ids {
            bus.frame_ids.insert(msgs[mi], FrameId::new(fid));
        }
        let sys = System::validated(Platform::with_nodes(2), app, bus).expect("valid");
        (sys, msgs)
    }

    #[test]
    fn fig4_scenario_a_r2_is_37() {
        // Table A: m1 -> 1, m2 -> 2, m3 -> 1; DYN = 12 minislots.
        let (sys, msgs) = fig4_system(&[(0, 1), (1, 2), (2, 1)], 12);
        let report = simulate_default(&sys).expect("simulation");
        // sender tasks take 1ns; responses measured from activation 0.
        let r2 = report.response(msgs[1]).expect("m2 delivered");
        assert_eq!(r2, Time::from_us(37.0));
    }

    #[test]
    fn fig4_scenario_b_r2_is_35() {
        // Table B: m1 -> 1, m2 -> 2, m3 -> 3; DYN = 12 minislots.
        let (sys, msgs) = fig4_system(&[(0, 1), (1, 2), (2, 3)], 12);
        let report = simulate_default(&sys).expect("simulation");
        let r2 = report.response(msgs[1]).expect("m2 delivered");
        assert_eq!(r2, Time::from_us(35.0));
        // m3 is sent during the first bus cycle (ends 8 + 7 + 1 + 3 = 19)
        let r3 = report.response(msgs[2]).expect("m3 delivered");
        assert_eq!(r3, Time::from_us(19.0));
    }

    #[test]
    fn fig4_scenario_c_r2_is_21() {
        // Table B with an enlarged DYN segment of 13 minislots.
        let (sys, msgs) = fig4_system(&[(0, 1), (1, 2), (2, 3)], 13);
        let report = simulate_default(&sys).expect("simulation");
        let r2 = report.response(msgs[1]).expect("m2 delivered");
        assert_eq!(r2, Time::from_us(21.0));
    }

    #[test]
    fn fps_tasks_run_in_slack() {
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(100.0), Time::from_us(100.0));
        app.add_task(
            g,
            "scs",
            NodeId::new(0),
            Time::from_us(50.0),
            SchedPolicy::Scs,
            0,
        );
        app.add_task(
            g,
            "fps",
            NodeId::new(0),
            Time::from_us(10.0),
            SchedPolicy::Fps,
            1,
        );
        let bus = BusConfig::new(fine_phy());
        let sys = System::validated(Platform::with_nodes(1), app, bus).expect("valid");
        let report = simulate_default(&sys).expect("simulation");
        let fps = sys.app.find("fps").expect("fps");
        // SCS occupies [0,50): the FPS task finishes at 60
        assert_eq!(report.response(fps), Some(Time::from_us(60.0)));
    }

    #[test]
    fn every_instance_of_faster_graph_completes() {
        let mut app = Application::new();
        let g1 = app.add_graph("fast", Time::from_us(50.0), Time::from_us(50.0));
        app.add_task(
            g1,
            "f",
            NodeId::new(0),
            Time::from_us(5.0),
            SchedPolicy::Fps,
            3,
        );
        let g2 = app.add_graph("slow", Time::from_us(100.0), Time::from_us(100.0));
        app.add_task(
            g2,
            "s",
            NodeId::new(0),
            Time::from_us(7.0),
            SchedPolicy::Fps,
            1,
        );
        let bus = BusConfig::new(fine_phy());
        let sys = System::validated(Platform::with_nodes(1), app, bus).expect("valid");
        let report = simulate_default(&sys).expect("simulation");
        // 2 reps: fast has 4 jobs, slow has 2 -> 6 total
        assert_eq!(report.total_jobs, 6);
        assert!(report.is_clean());
        // fewer than one hyperperiod is refused, naming the value
        for reps in [0, -3] {
            let cfg = SimConfig {
                reps,
                ..SimConfig::default()
            };
            match simulate_configured(&sys, &cfg) {
                Err(ModelError::InvalidConfig(msg)) => {
                    assert!(msg.contains(&format!("got {reps}")), "{msg}");
                }
                other => panic!("reps={reps} was not refused: {other:?}"),
            }
        }
    }

    #[test]
    fn frames_left_at_the_last_boundary_are_still_sent() {
        // 20 µs cycles (8 µs static, 12 minislots), five per 100 µs
        // hyperperiod. `s` ends after the last dynamic segment has
        // started: at 95 µs, with `m` (4 minislots) buffered at the
        // boundary, or at 105 µs, past it. Either way `m` goes out in
        // the next hyperperiod's first cycle, 108–112 µs, and `r` ends
        // at 113 µs.
        for (wcet, release) in [(95.0, 0.0), (55.0, 50.0)] {
            let mut app = Application::new();
            let g = app.add_graph("g", Time::from_us(100.0), Time::from_us(100.0));
            let s = app.add_task(
                g,
                "s",
                NodeId::new(0),
                Time::from_us(wcet),
                SchedPolicy::Fps,
                1,
            );
            app.set_release(s, Time::from_us(release));
            let r = app.add_task(
                g,
                "r",
                NodeId::new(1),
                Time::MICROSECOND,
                SchedPolicy::Fps,
                1,
            );
            let m = app.add_message(g, "m", 8, MessageClass::Dynamic, 1);
            app.connect(s, m, r).expect("edges");
            let mut bus = BusConfig::new(fine_phy());
            bus.static_slot_len = Time::from_us(8.0);
            bus.static_slot_owners = vec![NodeId::new(0)];
            bus.n_minislots = 12;
            bus.frame_ids.insert(m, FrameId::new(1));
            let sys = System::validated(Platform::with_nodes(2), app, bus).expect("valid");
            for reps in [1, 2] {
                for compress in [false, true] {
                    let cfg = configured(ExecutionOrder::Canonical, reps, compress);
                    let report = simulate_configured(&sys, &cfg).expect("simulation");
                    let run = format!("s ends at {} µs, reps {reps}", wcet + release);
                    assert_eq!(report.completed_jobs, report.total_jobs, "{run}");
                    assert_eq!(report.response(m), Some(Time::from_us(112.0)), "{run}");
                    assert_eq!(report.response(r), Some(Time::from_us(113.0)), "{run}");
                    // the drain's hyperperiods are not simulated ones
                    let reported = report.hyperperiods_simulated + report.hyperperiods_skipped;
                    assert_eq!(reported, reps, "{run}");
                }
            }
        }
    }

    fn configured(order: ExecutionOrder, reps: i64, compress: bool) -> SimConfig {
        SimConfig {
            reps,
            order,
            compress,
        }
    }

    #[test]
    fn fuzzed_orders_match_canonical_on_race_free_systems() {
        let canonical = |sys: &System| {
            simulate_configured(sys, &configured(ExecutionOrder::Canonical, 2, false))
                .expect("simulation")
        };
        for sys in [
            tt_chain_system(),
            fig4_system(&[(0, 1), (1, 2), (2, 3)], 12).0,
        ] {
            let base = canonical(&sys);
            assert!(base.is_clean());
            for seed in [1u64, 2, 3, 0xDEAD_BEEF] {
                let fuzzed = simulate_configured(
                    &sys,
                    &configured(ExecutionOrder::Fuzzed { seed }, 2, false),
                )
                .expect("simulation");
                assert_eq!(fuzzed.responses, base.responses, "seed {seed}");
                assert_eq!(fuzzed.violations, base.violations, "seed {seed}");
                assert_eq!(fuzzed.completed_jobs, base.completed_jobs, "seed {seed}");
            }
        }
    }

    #[test]
    fn compressed_runs_report_identically_and_skip_hyperperiods() {
        for order in [
            ExecutionOrder::Canonical,
            ExecutionOrder::Fuzzed { seed: 7 },
        ] {
            let sys = tt_chain_system();
            let slow =
                simulate_configured(&sys, &configured(order, 16, false)).expect("simulation");
            let fast = simulate_configured(&sys, &configured(order, 16, true)).expect("simulation");
            assert_eq!(fast.responses, slow.responses);
            assert_eq!(fast.completed_jobs, slow.completed_jobs);
            assert_eq!(fast.total_jobs, slow.total_jobs);
            assert_eq!(fast.violations, slow.violations);
            assert_eq!(slow.hyperperiods_simulated, 16);
            assert_eq!(slow.hyperperiods_skipped, 0);
            assert!(
                fast.hyperperiods_simulated < 16,
                "compression never fired: {:?}",
                fast.hyperperiods_simulated
            );
            assert_eq!(fast.hyperperiods_simulated + fast.hyperperiods_skipped, 16);
        }
    }

    #[test]
    fn violations_are_sorted_deduped_and_hyperperiod_relative() {
        // A deliberately broken table: task b starts before its input
        // message is delivered, every hyperperiod.
        let sys = tt_chain_system();
        let b = sys.app.find("b").expect("b");
        let mut table = ScheduleTable::new(sys.hyperperiod().expect("hyperperiod"));
        table.push_task(TaskEntry {
            activity: b,
            instance: 0,
            node: NodeId::new(1),
            start: Time::from_us(1.0),
            finish: Time::from_us(6.0),
        });
        let report = simulate(
            &sys,
            &table,
            &configured(ExecutionOrder::Canonical, 4, false),
        )
        .expect("simulation");
        // One violation text, reported once despite four hyperperiods
        // (the message is hyperperiod-relative, so repeats dedup).
        assert_eq!(report.violations.len(), 1);
        assert!(
            report.violations[0].contains("into the hyperperiod"),
            "got: {}",
            report.violations[0]
        );
        let mut sorted = report.violations.clone();
        sorted.sort();
        assert_eq!(sorted, report.violations);
        // Fuzzed orders report the identical violation set.
        for seed in [1u64, 9] {
            let fuzzed = simulate(
                &sys,
                &table,
                &configured(ExecutionOrder::Fuzzed { seed }, 4, false),
            )
            .expect("simulation");
            assert_eq!(fuzzed.violations, report.violations);
        }
    }
}
