//! Shared simulation state: the windowed job store and the kernel every
//! wake-up handler mutates.
//!
//! The kernel is deliberately thin: it owns what *every* handler
//! touches — job readiness/completion, the wake-up queue, the immediate
//! FIFO, responses and violations — while protocol state (CPU ready
//! lists, CHI buffers) lives in the engine's CPUs and arbiters.

use crate::cpu::Projected;
use crate::event::{EventQueue, Immediate, JobRef, Signal};
use flexray_model::{
    ActivityId, ActivityKind, Fingerprint, MessageClass, ModelError, SchedPolicy, SystemView, Time,
};
use std::collections::{BTreeSet, VecDeque};

/// Readiness state of one job instance.
#[derive(Debug, Clone)]
struct JobState {
    /// Unresolved dependencies (predecessors + the activation token).
    pending: u32,
    /// Latest dependency-resolution time seen so far.
    ready_at: Time,
    completed: bool,
}

/// All job instances of one hyperperiod.
#[derive(Debug)]
struct RepSlab {
    incomplete: u32,
    jobs: Vec<JobState>,
}

/// Job instances, stored as a sliding window of hyperperiods.
///
/// Materialising `reps × jobs-per-hyperperiod` instances up front would
/// take gigabytes for million-cycle soaks. The store instead seeds one
/// hyperperiod at a time and garbage-collects fully
/// completed hyperperiods at each boundary, so memory is bounded by the
/// number of hyperperiods with jobs still in flight (one or two for any
/// schedulable system).
#[derive(Debug)]
pub(crate) struct JobStore {
    horizon: Time,
    /// Per-activity base offset of its jobs within a hyperperiod slab.
    base: Vec<u32>,
    /// Per-activity instances per hyperperiod.
    iph: Vec<u32>,
    /// Per-activity initial `pending` (predecessors + activation).
    init_pending: Vec<u32>,
    /// Per-activity period.
    periods: Vec<Time>,
    per_rep: u32,
    window: VecDeque<RepSlab>,
    front_rep: i64,
}

impl JobStore {
    pub(crate) fn new(sys: SystemView<'_>, horizon: Time) -> Result<Self, ModelError> {
        let n = sys.app.activities().len();
        let mut base = vec![0u32; n];
        let mut iph = vec![0u32; n];
        let mut init_pending = vec![0u32; n];
        let mut periods = vec![Time::ZERO; n];
        let mut total: u64 = 0;
        for id in sys.app.ids() {
            let i = id.index();
            let period = sys.app.period_of(id);
            let count = horizon / period;
            let count = u32::try_from(count).map_err(|_| {
                ModelError::InvalidConfig(format!(
                    "activity '{}' has {count} instances per hyperperiod — too many to simulate",
                    sys.app.activity(id).name
                ))
            })?;
            base[i] = u32::try_from(total).map_err(|_| {
                ModelError::InvalidConfig(format!(
                    "{total} job instances per hyperperiod — too many to simulate"
                ))
            })?;
            iph[i] = count;
            init_pending[i] = u32::try_from(sys.app.preds(id).len())
                .map_err(|_| ModelError::InvalidConfig("predecessor overflow".into()))?
                .saturating_add(1);
            periods[i] = period;
            total += u64::from(count);
        }
        let per_rep = u32::try_from(total).map_err(|_| {
            ModelError::InvalidConfig(format!(
                "{total} job instances per hyperperiod — too many to simulate"
            ))
        })?;
        Ok(JobStore {
            horizon,
            base,
            iph,
            init_pending,
            periods,
            per_rep,
            window: VecDeque::new(),
            front_rep: 0,
        })
    }

    pub(crate) fn per_rep(&self) -> u32 {
        self.per_rep
    }

    pub(crate) fn iph(&self, act: usize) -> u32 {
        self.iph[act]
    }

    /// Activation time of a job (exact: `rep·H + period·k`).
    pub(crate) fn activation(&self, job: JobRef) -> Time {
        self.horizon.saturating_mul(job.rep) + self.periods[job.act as usize] * i64::from(job.k)
    }

    /// Appends the slab for hyperperiod `rep` (must be the next one).
    pub(crate) fn seed_slab(&mut self, rep: i64) {
        debug_assert_eq!(rep, self.front_rep + self.window.len() as i64);
        let mut jobs = Vec::with_capacity(self.per_rep as usize);
        for (act, &count) in self.iph.iter().enumerate() {
            for _ in 0..count {
                jobs.push(JobState {
                    pending: self.init_pending[act],
                    ready_at: Time::ZERO,
                    completed: false,
                });
            }
        }
        self.window.push_back(RepSlab {
            incomplete: self.per_rep,
            jobs,
        });
        if self.window.len() == 1 {
            self.front_rep = rep;
        }
    }

    fn slab_index(&self, rep: i64) -> Option<usize> {
        let d = rep.checked_sub(self.front_rep)?;
        let d = usize::try_from(d).ok()?;
        (d < self.window.len()).then_some(d)
    }

    fn job_index(&self, job: JobRef) -> usize {
        self.base[job.act as usize] as usize + job.k as usize
    }

    fn state_mut(&mut self, job: JobRef) -> Option<&mut JobState> {
        let slab = self.slab_index(job.rep)?;
        let idx = self.job_index(job);
        self.window[slab].jobs.get_mut(idx)
    }

    /// Decrements one pending dependency at `t`; returns `true` when
    /// the job just became ready.
    pub(crate) fn resolve_one(&mut self, job: JobRef, t: Time) -> bool {
        match self.state_mut(job) {
            Some(s) => {
                s.pending = s.pending.saturating_sub(1);
                s.ready_at = s.ready_at.max(t);
                s.pending == 0
            }
            None => {
                debug_assert!(false, "dependency of a job outside the window");
                false
            }
        }
    }

    /// Unresolved dependencies of a job (0 when unknown).
    pub(crate) fn pending_of(&self, job: JobRef) -> u32 {
        self.slab_index(job.rep)
            .and_then(|slab| self.window[slab].jobs.get(self.job_index(job)))
            .map_or(0, |s| s.pending)
    }

    /// Marks a job complete; `false` if it already was (or is unknown).
    pub(crate) fn mark_complete(&mut self, job: JobRef) -> bool {
        let Some(slab) = self.slab_index(job.rep) else {
            debug_assert!(false, "completion of a job outside the window");
            return false;
        };
        let idx = self.job_index(job);
        let Some(s) = self.window[slab].jobs.get_mut(idx) else {
            return false;
        };
        if s.completed {
            return false;
        }
        s.completed = true;
        self.window[slab].incomplete -= 1;
        true
    }

    /// `true` if some job in the window is unfinished and `pred` holds
    /// for its activity index.
    pub(crate) fn any_unfinished(&self, pred: impl Fn(usize) -> bool) -> bool {
        let unfinished = |slab: &RepSlab| {
            let mut jobs = slab.jobs.iter().enumerate();
            jobs.any(|(i, s)| !s.completed && pred(self.act_of(i)))
        };
        self.window
            .iter()
            .any(|slab| slab.incomplete > 0 && unfinished(slab))
    }

    /// Drops fully completed hyperperiods older than `keep_from`.
    pub(crate) fn gc(&mut self, keep_from: i64) {
        while self.front_rep < keep_from {
            match self.window.front() {
                Some(slab) if slab.incomplete == 0 => {
                    self.window.pop_front();
                    self.front_rep += 1;
                }
                _ => break,
            }
        }
    }

    /// Relocates all job coordinates `dreps` hyperperiods forward
    /// (compression fast-forward).
    pub(crate) fn shift(&mut self, dreps: i64) {
        self.front_rep += dreps;
    }

    /// Appends every in-flight job to a boundary fingerprint,
    /// hyperperiods relative to `b_rep` and times relative to
    /// `boundary`.
    pub(crate) fn fingerprint_into(&self, b_rep: i64, boundary: Time, fp: &mut Fingerprint) {
        fp.push(0xF1A6_0001);
        for (d, slab) in self.window.iter().enumerate() {
            let rep = self.front_rep + d as i64;
            for (i, s) in slab.jobs.iter().enumerate() {
                if s.completed {
                    continue;
                }
                fp.push_i64(rep - b_rep);
                fp.push_usize(i);
                fp.push(u64::from(s.pending));
                // `ready_at` is only meaningful once a dependency has
                // resolved; untouched jobs get a sentinel so that their
                // zero-initialised absolute time does not leak into the
                // boundary-relative stream.
                if s.pending < self.init_pending[self.act_of(i)] {
                    fp.push_time(s.ready_at - boundary);
                } else {
                    fp.push(u64::MAX);
                }
            }
        }
    }

    /// Activity owning job index `i` within a slab.
    fn act_of(&self, i: usize) -> usize {
        debug_assert!(!self.base.is_empty());
        self.base.partition_point(|&b| b as usize <= i) - 1
    }
}

/// The state shared across handlers, threaded through every wake-up.
pub(crate) struct Kernel<'a> {
    pub(crate) sys: SystemView<'a>,
    pub(crate) horizon: Time,
    /// CPU-starvation guard (see [`crate::engine::LIMIT_FACTOR`]).
    pub(crate) limit: Time,
    pub(crate) queue: EventQueue,
    /// Zero-latency notifications, drained FIFO after each wake-up, in
    /// the order they were raised: they act as synchronous calls
    /// between handlers and are never fuzzed.
    pub(crate) immediates: VecDeque<Immediate>,
    pub(crate) jobs: JobStore,
    pub(crate) responses: Vec<Option<Time>>,
    pub(crate) completed: usize,
    /// Sorted and deduplicated by construction; times are reported
    /// relative to the hyperperiod so that compressed and fuzzed runs
    /// produce canonical, comparable reports.
    pub(crate) violations: BTreeSet<String>,
}

impl<'a> Kernel<'a> {
    pub(crate) fn new(sys: SystemView<'a>, horizon: Time, limit: Time, jobs: JobStore) -> Self {
        let n = sys.app.activities().len();
        Kernel {
            sys,
            horizon,
            limit,
            queue: EventQueue::new(),
            immediates: VecDeque::new(),
            jobs,
            responses: vec![None; n],
            completed: 0,
            violations: BTreeSet::new(),
        }
    }

    /// Schedules the completion `p` projected by the CPU of `node`.
    pub(crate) fn schedule_completion(&mut self, node: usize, p: Projected) {
        if let Some(at) = p.at {
            let version = p.version;
            self.queue.push(at, Signal::FpsCompletion { node, version });
        }
    }

    /// One dependency (activation token or predecessor) of `job`
    /// resolved at `t`. When the job becomes ready, the CPU or arbiter
    /// responsible for executing it is notified through an immediate;
    /// SCS tasks and ST messages follow the table and need no
    /// notification (their readiness is only audited).
    pub(crate) fn resolve_dependency(&mut self, job: JobRef, t: Time) {
        if !self.jobs.resolve_one(job, t) {
            return;
        }
        let sys = self.sys;
        let id = ActivityId::new(job.act as usize);
        match &sys.app.activity(id).kind {
            ActivityKind::Task(spec) if spec.policy == SchedPolicy::Fps => {
                self.immediates.push_back(Immediate::FpsArrive {
                    node: spec.node.index(),
                    job,
                    priority: spec.priority,
                    wcet: spec.wcet,
                });
            }
            ActivityKind::Message(spec) if spec.class == MessageClass::Dynamic => {
                if let Some(fid) = sys.bus_of(id).frame_id_of(id) {
                    self.immediates.push_back(Immediate::ChiEnqueue {
                        cluster: sys.cluster_of(id),
                        fid: fid.number(),
                        job,
                        priority: spec.priority,
                    });
                }
            }
            _ => {}
        }
    }

    /// Records a completion and propagates to same-instance successors.
    pub(crate) fn complete(&mut self, job: JobRef, t: Time) {
        if !self.jobs.mark_complete(job) {
            return;
        }
        self.completed += 1;
        let response = t - self.jobs.activation(job);
        let slot = &mut self.responses[job.act as usize];
        *slot = Some(slot.map_or(response, |r: Time| r.max(response)));
        let sys = self.sys;
        for &s in sys.app.succs(ActivityId::new(job.act as usize)) {
            let succ = JobRef {
                act: u32::try_from(s.index()).unwrap_or(u32::MAX),
                rep: job.rep,
                k: job.k,
            };
            self.resolve_dependency(succ, t);
        }
    }

    /// `true` while a DYN frame may still become ready: a wake-up is
    /// pending and some job of a message that enters a CHI buffer once
    /// ready is unfinished.
    pub(crate) fn dyn_frame_may_follow(&self) -> bool {
        let sys = self.sys;
        let enters_chi = |act: usize| {
            let id = ActivityId::new(act);
            matches!(&sys.app.activity(id).kind,
                ActivityKind::Message(spec) if spec.class == MessageClass::Dynamic)
                && sys.bus_of(id).frame_id_of(id).is_some()
        };
        self.queue.peek_time().is_some() && self.jobs.any_unfinished(enters_chi)
    }

    /// Audits an SCS start against readiness.
    pub(crate) fn audit_start(&mut self, job: JobRef, t: Time) {
        if self.jobs.pending_of(job) > 0 {
            let name = &self
                .sys
                .app
                .activity(ActivityId::new(job.act as usize))
                .name;
            let rel = t % self.horizon;
            self.violations.insert(format!(
                "SCS task '{name}' starts at {rel} into the hyperperiod before its inputs are ready"
            ));
        }
    }

    /// Audits an ST delivery against production.
    pub(crate) fn audit_delivery(&mut self, job: JobRef, t: Time) {
        if self.jobs.pending_of(job) > 0 {
            let name = &self
                .sys
                .app
                .activity(ActivityId::new(job.act as usize))
                .name;
            let rel = t % self.horizon;
            self.violations.insert(format!(
                "ST message '{name}' transmitted at {rel} into the hyperperiod before being produced"
            ));
        }
    }
}
