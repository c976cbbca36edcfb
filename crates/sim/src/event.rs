//! Discrete-event machinery: component wake-ups with an explicit,
//! documented same-instant ordering policy.
//!
//! # Same-instant ordering policy
//!
//! All wake-ups scheduled for the same instant are serviced in four
//! *phases*, in this normative order:
//!
//! 1. [`Phase::Deliver`] — everything that *finishes* at `t` becomes
//!    visible: SCS task finishes, ST frame deliveries, DYN frame
//!    deliveries, FPS completion projections. A frame finishing exactly
//!    when a dynamic slot starts is in the CHI buffer for that slot.
//! 2. [`Phase::Release`] — activation tokens for jobs released at `t`.
//! 3. [`Phase::Audit`] — SCS task *starts* are audited against the
//!    readiness the first two phases established.
//! 4. [`Phase::Arbitrate`] — dynamic slot boundaries arbitrate over the
//!    CHI contents that the `Deliver` phase completed.
//!
//! The phase order encodes protocol causality and is **never** fuzzed.
//! *Within* a phase the canonical order is by [`Signal::order_key`]
//! (kind, then activity/instance coordinates), then by component (two
//! clusters' dynamic slots can share every coordinate, so the order is
//! total); `tests/sim_pin.rs` pins the reports this order produces. A
//! fuzzed run permutes each within-phase span with a
//! deterministic, stateless permutation instead (see `engine`), because
//! the protocol does not specify the mutual order of same-instant
//! wake-ups inside one phase.

use flexray_model::Time;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A job instance: the `k`-th activation of activity `act` within
/// simulated hyperperiod `rep`.
///
/// The derived order — activity-major, then hyperperiod, then instance
/// — is the canonical tie-break wherever jobs must be ranked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobRef {
    /// Activity index ([`flexray_model::ActivityId::index`]).
    pub act: u32,
    /// Hyperperiod index (0-based).
    pub rep: i64,
    /// Activation index within the hyperperiod (0-based).
    pub k: u32,
}

/// Identity of a component: its index in the engine's component table
/// (one CPU per node, then releaser, static segment, dynamic segment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub usize);

/// Same-instant service phase (see the module docs for the policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Completions and deliveries become visible.
    Deliver,
    /// Activation tokens are released.
    Release,
    /// SCS starts are audited for readiness.
    Audit,
    /// Dynamic slot boundaries arbitrate.
    Arbitrate,
}

/// A component wake-up payload.
///
/// The first seven kinds travel through the time-ordered queue; the
/// last two are *immediate signals* — zero-latency cross-component
/// notifications a wake-up emits through the kernel, serviced before
/// the next queued wake-up and never reordered (they model synchronous
/// intra-instant causality, not simultaneity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// An SCS task instance finishes (table-driven).
    ScsFinish {
        /// The finishing job.
        job: JobRef,
    },
    /// An ST frame is delivered (slot end).
    StDelivery {
        /// The delivered message job.
        job: JobRef,
    },
    /// A DYN frame transmission completes.
    DynDelivery {
        /// The delivered message job.
        job: JobRef,
    },
    /// An FPS job may have completed (version-guarded).
    FpsCompletion {
        /// Node whose CPU raised the event.
        node: usize,
        /// CPU state version when scheduled; stale versions are
        /// ignored.
        version: u64,
    },
    /// A graph activation releases a job's activation token.
    Activate {
        /// The activated job.
        job: JobRef,
    },
    /// An SCS task instance starts (used for precedence auditing).
    ScsStart {
        /// The starting job.
        job: JobRef,
    },
    /// The dynamic slot with the given frame identifier begins.
    DynSlot {
        /// Hyperperiod the cycle belongs to.
        rep: i64,
        /// Communication-cycle index within the hyperperiod.
        cycle: u32,
        /// 1-based frame identifier of the slot.
        fid: u16,
        /// Minislot counter value at the slot boundary (1-based).
        counter: u32,
    },
    /// Immediate: a ready FPS job arrives at its node CPU.
    FpsArrive {
        /// The ready job.
        job: JobRef,
        /// FPS priority.
        priority: u32,
        /// Worst-case execution time.
        wcet: Time,
    },
    /// Immediate: a ready DYN frame enters its CHI send buffer.
    ChiEnqueue {
        /// Frame identifier the message is assigned to.
        fid: u16,
        /// The ready message job.
        job: JobRef,
        /// DYN priority.
        priority: u32,
    },
}

impl Signal {
    /// Canonical same-instant rank and coordinates: SCS finishes, ST
    /// deliveries, DYN deliveries and CPU completions (the `Deliver`
    /// phase) before activations, before SCS start audits, before
    /// dynamic-slot arbitration; within a kind, by the job's activity,
    /// hyperperiod and instance (or the slot's hyperperiod, cycle,
    /// frame id and minislot counter).
    #[must_use]
    pub fn order_key(&self) -> [u64; 5] {
        #[allow(clippy::cast_sign_loss)] // reps are non-negative
        fn job_key(rank: u64, job: &JobRef) -> [u64; 5] {
            [
                rank,
                u64::from(job.act),
                job.rep as u64,
                u64::from(job.k),
                0,
            ]
        }
        match self {
            Signal::ScsFinish { job } => job_key(0, job),
            Signal::StDelivery { job } => job_key(1, job),
            Signal::DynDelivery { job } => job_key(2, job),
            Signal::FpsCompletion { node, version } => [3, *node as u64, *version, 0, 0],
            Signal::Activate { job } => job_key(4, job),
            Signal::ScsStart { job } => job_key(5, job),
            #[allow(clippy::cast_sign_loss)]
            Signal::DynSlot {
                rep,
                cycle,
                fid,
                counter,
            } => [
                6,
                *rep as u64,
                u64::from(*cycle),
                u64::from(*fid),
                u64::from(*counter),
            ],
            // Immediate signals never enter the queue.
            Signal::FpsArrive { .. } | Signal::ChiEnqueue { .. } => [7, 0, 0, 0, 0],
        }
    }

    /// The service phase of this signal.
    #[must_use]
    pub fn phase(&self) -> Phase {
        match self.order_key()[0] {
            0..=3 => Phase::Deliver,
            4 => Phase::Release,
            5 => Phase::Audit,
            _ => Phase::Arbitrate,
        }
    }

    /// The signal relocated `dreps` hyperperiods forward (its
    /// hyperperiod coordinates; CPU versions and immediates carry none).
    #[must_use]
    pub(crate) fn shifted(self, dreps: i64) -> Signal {
        let bump = |j: JobRef| JobRef {
            rep: j.rep + dreps,
            ..j
        };
        match self {
            Signal::ScsFinish { job } => Signal::ScsFinish { job: bump(job) },
            Signal::StDelivery { job } => Signal::StDelivery { job: bump(job) },
            Signal::DynDelivery { job } => Signal::DynDelivery { job: bump(job) },
            Signal::Activate { job } => Signal::Activate { job: bump(job) },
            Signal::ScsStart { job } => Signal::ScsStart { job: bump(job) },
            Signal::DynSlot {
                rep,
                cycle,
                fid,
                counter,
            } => Signal::DynSlot {
                rep: rep + dreps,
                cycle,
                fid,
                counter,
            },
            Signal::FpsCompletion { .. } | Signal::FpsArrive { .. } | Signal::ChiEnqueue { .. } => {
                self
            }
        }
    }
}

/// A scheduled wake-up: when, whom, and with what payload.
///
/// Wake-ups are totally ordered by `(time, order key, component)`: the
/// component breaks the one tie the key leaves, two clusters' dynamic
/// slots with equal coordinates at one instant. Entries equal in that
/// order are identical, so the service order never depends on how the
/// queue stores them.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// Absolute wake-up time.
    pub time: Time,
    /// The component to wake.
    pub cid: ComponentId,
    /// The payload.
    pub signal: Signal,
}

impl Entry {
    /// The entry relocated `dt` forward in time and `dreps` hyperperiods
    /// forward in coordinates.
    fn shifted(&self, dt: Time, dreps: i64) -> Entry {
        Entry {
            time: self.time + dt,
            cid: self.cid,
            signal: self.signal.shifted(dreps),
        }
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Times almost always differ: build the order keys only on a tie.
        self.time.cmp(&other.time).then_with(|| {
            (self.signal.order_key(), self.cid).cmp(&(other.signal.order_key(), other.cid))
        })
    }
}

/// The pending template entries of one seeded hyperperiod.
#[derive(Debug)]
struct Cursor {
    rep: i64,
    /// Start of hyperperiod `rep`.
    off: Time,
    /// Index of `head` in the template.
    next: usize,
    /// `template[next]` relocated to hyperperiod `rep`.
    head: Entry,
}

/// The time-ordered wake-up queue.
///
/// The table-driven wake-ups of a hyperperiod (activations, SCS starts
/// and finishes, ST deliveries, dynamic-slot chain heads) are known
/// before the run. They form a *template*: hyperperiod 0's entries,
/// sorted once. Within one hyperperiod every template entry carries the
/// same `rep`, so relocating the template to any hyperperiod keeps its
/// order. Seeding hyperperiod `rep` adds a cursor that walks the
/// template relocated by `rep`. Only the wake-ups known at run time —
/// FPS completions, DYN deliveries and dynamic-slot continuations —
/// enter a heap, which therefore stays small. A pop takes the least of
/// the heap top and the cursor heads, so the queue pops in the order a
/// single heap holding every pending entry would. Table entries may land
/// at or past the hyperperiod boundary, so more than one cursor can be
/// live.
#[derive(Debug, Default)]
pub struct EventQueue {
    horizon: Time,
    template: Vec<Entry>,
    /// One per seeded hyperperiod with template entries left, oldest
    /// first.
    cursors: Vec<Cursor>,
    heap: BinaryHeap<Reverse<Entry>>,
}

impl EventQueue {
    /// An empty queue without table-driven wake-ups.
    #[must_use]
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// An empty queue whose [`seed`](Self::seed) makes `wakeups`, the
    /// table-driven wake-ups of hyperperiod 0, pending for any
    /// hyperperiod of length `horizon`.
    #[must_use]
    pub(crate) fn with_template(horizon: Time, mut wakeups: Vec<Entry>) -> Self {
        wakeups.sort_unstable();
        EventQueue {
            horizon,
            template: wakeups,
            ..EventQueue::default()
        }
    }

    /// Makes the template's wake-ups pending for hyperperiod `rep`.
    pub(crate) fn seed(&mut self, rep: i64) {
        if let Some(first) = self.template.first() {
            let off = self.horizon.saturating_mul(rep);
            let head = first.shifted(off, rep);
            self.cursors.push(Cursor {
                rep,
                off,
                next: 0,
                head,
            });
        }
    }

    /// Schedules a wake-up of `cid` with `signal` at absolute time
    /// `at`.
    pub fn push(&mut self, at: Time, cid: ComponentId, signal: Signal) {
        debug_assert!(
            !matches!(signal, Signal::FpsArrive { .. } | Signal::ChiEnqueue { .. }),
            "immediate signals do not enter the queue"
        );
        self.heap.push(Reverse(Entry {
            time: at,
            cid,
            signal,
        }));
    }

    /// Where the least pending wake-up sits, the heap top (`None`) or
    /// the head of cursor `i` (`Some(i)`), and its time.
    fn least(&self) -> Option<(Option<usize>, Time)> {
        let mut best = self.heap.peek().map(|Reverse(e)| (None, e));
        for (i, c) in self.cursors.iter().enumerate() {
            if best.is_none_or(|(_, e)| c.head < *e) {
                best = Some((Some(i), &c.head));
            }
        }
        best.map(|(from, e)| (from, e.time))
    }

    /// Removes the least pending wake-up, found by [`Self::least`].
    fn take(&mut self, from: Option<usize>) -> Option<Entry> {
        let Some(i) = from else {
            return self.heap.pop().map(|Reverse(e)| e);
        };
        let c = &mut self.cursors[i];
        let e = c.head;
        c.next += 1;
        match self.template.get(c.next) {
            Some(t) => c.head = t.shifted(c.off, c.rep),
            None => {
                self.cursors.remove(i);
            }
        }
        Some(e)
    }

    /// Removes and returns the earliest wake-up.
    pub fn pop(&mut self) -> Option<Entry> {
        let (from, _) = self.least()?;
        self.take(from)
    }

    /// Removes and returns the earliest wake-up if it is due strictly
    /// before `bound`.
    pub(crate) fn pop_before(&mut self, bound: Time) -> Option<Entry> {
        match self.least()? {
            (from, t) if t < bound => self.take(from),
            _ => None,
        }
    }

    /// Time of the earliest pending wake-up.
    #[must_use]
    pub fn peek_time(&self) -> Option<Time> {
        let heads = self.cursors.iter().map(|c| c.head.time);
        heads.chain(self.heap.peek().map(|Reverse(e)| e.time)).min()
    }

    /// Number of pending wake-ups.
    #[must_use]
    pub fn len(&self) -> usize {
        let table: usize = self
            .cursors
            .iter()
            .map(|c| self.template.len() - c.next)
            .sum();
        table + self.heap.len()
    }

    /// `true` when no wake-ups remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cursors.is_empty() && self.heap.is_empty()
    }

    /// Relocates every pending wake-up `dt` forward in time and `dreps`
    /// hyperperiods forward in coordinates (the compression
    /// fast-forward; `dt` is `dreps` hyperperiods).
    pub(crate) fn shift(&mut self, dt: Time, dreps: i64) {
        for c in &mut self.cursors {
            c.rep += dreps;
            c.off += dt;
            c.head = c.head.shifted(dt, dreps);
        }
        let heap = std::mem::take(&mut self.heap);
        self.heap = heap
            .into_iter()
            .map(|Reverse(e)| Reverse(e.shifted(dt, dreps)))
            .collect();
    }

    /// A sorted snapshot of every pending wake-up (used for state
    /// fingerprints).
    #[must_use]
    pub fn snapshot_sorted(&self) -> Vec<Entry> {
        let mut v: Vec<Entry> = self.heap.iter().map(|Reverse(e)| *e).collect();
        for c in &self.cursors {
            let pending = self.template[c.next..].iter();
            v.extend(pending.map(|t| t.shifted(c.off, c.rep)));
        }
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexray_model::SplitMix64;

    fn job(n: u32) -> JobRef {
        JobRef {
            act: n,
            rep: 0,
            k: 0,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        let c = ComponentId(0);
        q.push(Time::from_us(5.0), c, Signal::Activate { job: job(1) });
        q.push(Time::from_us(1.0), c, Signal::Activate { job: job(2) });
        q.push(Time::from_us(3.0), c, Signal::Activate { job: job(3) });
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_us())
            .collect();
        assert_eq!(order, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn same_time_orders_deliveries_before_dyn_slots() {
        let mut q = EventQueue::new();
        let c = ComponentId(0);
        let t = Time::from_us(10.0);
        q.push(
            t,
            c,
            Signal::DynSlot {
                rep: 0,
                cycle: 0,
                fid: 1,
                counter: 1,
            },
        );
        q.push(t, c, Signal::DynDelivery { job: job(0) });
        let first = q.pop().expect("first");
        assert!(matches!(first.signal, Signal::DynDelivery { .. }));
    }

    #[test]
    fn phases_follow_the_documented_policy() {
        let deliver = [
            Signal::ScsFinish { job: job(0) },
            Signal::StDelivery { job: job(0) },
            Signal::DynDelivery { job: job(0) },
            Signal::FpsCompletion {
                node: 0,
                version: 1,
            },
        ];
        for s in deliver {
            assert_eq!(s.phase(), Phase::Deliver);
        }
        assert_eq!(Signal::Activate { job: job(0) }.phase(), Phase::Release);
        assert_eq!(Signal::ScsStart { job: job(0) }.phase(), Phase::Audit);
        assert_eq!(
            Signal::DynSlot {
                rep: 0,
                cycle: 0,
                fid: 1,
                counter: 1
            }
            .phase(),
            Phase::Arbitrate
        );
        assert!(Phase::Deliver < Phase::Release);
        assert!(Phase::Release < Phase::Audit);
        assert!(Phase::Audit < Phase::Arbitrate);
    }

    #[test]
    fn job_order_is_activity_major() {
        // the canonical tie-break: jobs are ranked by activity, then
        // hyperperiod, then instance
        let early_act_late_rep = JobRef {
            act: 0,
            rep: 1,
            k: 0,
        };
        let late_act_early_rep = JobRef {
            act: 5,
            rep: 0,
            k: 0,
        };
        assert!(early_act_late_rep < late_act_early_rep);
    }

    #[test]
    fn len_and_empty_and_snapshot() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Time::ZERO, ComponentId(0), Signal::Activate { job: job(0) });
        q.push(
            Time::ZERO,
            ComponentId(1),
            Signal::ScsFinish { job: job(1) },
        );
        assert_eq!(q.len(), 2);
        let snap = q.snapshot_sorted();
        // deliveries sort before activations at the same instant
        assert!(matches!(snap[0].signal, Signal::ScsFinish { .. }));
        assert_eq!(q.len(), 2, "snapshot does not consume");
        while q.pop().is_some() {}
        assert!(q.is_empty());
    }

    fn dyn_head() -> Signal {
        Signal::DynSlot {
            rep: 0,
            cycle: 0,
            fid: 1,
            counter: 1,
        }
    }

    #[test]
    fn simultaneous_dyn_slots_of_two_clusters_pop_in_component_order() {
        // Equal time and order key: only the component tells the two
        // clusters' slots apart, whatever order they were pushed in.
        let t = Time::from_us(10.0);
        for cids in [[3, 2, 4], [4, 3, 2], [2, 4, 3]] {
            let mut q = EventQueue::new();
            for c in cids {
                q.push(t, ComponentId(c), dyn_head());
            }
            let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|e| e.cid.0).collect();
            assert_eq!(order, vec![2, 3, 4], "pushed as {cids:?}");
        }
        let a = Entry {
            time: t,
            cid: ComponentId(2),
            signal: dyn_head(),
        };
        assert!(
            a < Entry {
                cid: ComponentId(3),
                ..a
            }
        );
    }

    /// A random wake-up of kind `kind` (0–6, in order-key rank) at
    /// hyperperiod `rep`.
    fn random_signal(rng: &mut SplitMix64, kind: usize, rep: i64) -> Signal {
        #[allow(clippy::cast_possible_truncation)] // draws below 4
        let job = JobRef {
            act: rng.next_below(4) as u32,
            rep,
            k: rng.next_below(2) as u32,
        };
        match kind {
            0 => Signal::ScsFinish { job },
            1 => Signal::StDelivery { job },
            2 => Signal::DynDelivery { job },
            3 => Signal::FpsCompletion {
                node: rng.next_below(2),
                version: rng.next_u64() % 3,
            },
            4 => Signal::Activate { job },
            5 => Signal::ScsStart { job },
            _ => Signal::DynSlot {
                rep,
                #[allow(clippy::cast_possible_truncation)]
                cycle: rng.next_below(2) as u32,
                fid: 1,
                counter: 1,
            },
        }
    }

    #[test]
    fn template_and_heap_merge_into_the_order_of_one_heap() {
        // Template entries (some at or past the hyperperiod boundary, so
        // two hyperperiods overlap) merged with run-time pushes and a
        // fast-forward must pop exactly as a plain heap holding every
        // entry, relocated, would.
        let h = Time::from_us(100.0);
        for seed in 0..40u64 {
            let mut rng = SplitMix64::new(seed);
            let at = |rng: &mut SplitMix64, span: usize| {
                Time::from_us(5.0) * i64::try_from(rng.next_below(span)).expect("small")
            };
            let template: Vec<Entry> = (0..12)
                .map(|_| {
                    let kind = [0, 1, 4, 5, 6][rng.next_below(5)];
                    Entry {
                        time: at(&mut rng, 24),
                        cid: ComponentId(rng.next_below(3)),
                        signal: random_signal(&mut rng, kind, 0),
                    }
                })
                .collect();
            let mut q = EventQueue::with_template(h, template.clone());
            let mut reference: Vec<Entry> = Vec::new();
            let mut popped = Vec::new();
            let mut expected = Vec::new();
            let mut base = 0i64;
            for step in 0..4i64 {
                let rep = base + step;
                q.seed(rep);
                let off = h.saturating_mul(rep);
                reference.extend(template.iter().map(|e| e.shifted(off, rep)));
                for _ in 0..6 {
                    let kind = [2, 3, 6][rng.next_below(3)];
                    let e = Entry {
                        time: off + at(&mut rng, 30),
                        cid: ComponentId(rng.next_below(3)),
                        signal: random_signal(&mut rng, kind, rep),
                    };
                    q.push(e.time, e.cid, e.signal);
                    reference.push(e);
                }
                assert_eq!(q.len(), reference.len());
                let mut snap = reference.clone();
                snap.sort();
                assert_eq!(q.snapshot_sorted(), snap, "seed {seed}");
                // service the hyperperiod
                reference.sort_by(|a, b| b.cmp(a));
                let bound = off + h;
                while q.peek_time().is_some_and(|t| t < bound) {
                    popped.push(q.pop().expect("pending"));
                    expected.push(reference.pop().expect("reference pending"));
                    assert_eq!(q.peek_time(), reference.last().map(|e| e.time));
                }
                if step == 1 {
                    // compression: skip two hyperperiods
                    q.shift(h.saturating_mul(2), 2);
                    for e in &mut reference {
                        *e = e.shifted(h.saturating_mul(2), 2);
                    }
                    base += 2;
                }
            }
            popped.extend(std::iter::from_fn(|| q.pop()));
            reference.sort_by(|a, b| b.cmp(a));
            expected.extend(reference.into_iter().rev());
            assert_eq!(popped.len(), expected.len(), "seed {seed}");
            for (got, want) in popped.iter().zip(&expected) {
                assert_eq!(
                    (got.time, got.cid, got.signal),
                    (want.time, want.cid, want.signal),
                    "seed {seed}"
                );
            }
            assert!(q.is_empty());
        }
    }
}
