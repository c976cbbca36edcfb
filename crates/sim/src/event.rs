//! Discrete-event machinery: the wake-up payloads, their canonical
//! same-instant order (see the crate docs for the policy) and the
//! time-ordered queue.

use flexray_model::Time;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A job instance: the `k`-th activation of activity `act` within
/// simulated hyperperiod `rep`.
///
/// The derived order — activity-major, then hyperperiod, then instance
/// — is the canonical tie-break wherever jobs must be ranked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct JobRef {
    /// Activity index ([`flexray_model::ActivityId::index`]).
    pub(crate) act: u32,
    /// Hyperperiod index (0-based).
    pub(crate) rep: i64,
    /// Activation index within the hyperperiod (0-based).
    pub(crate) k: u32,
}

/// Same-instant service phase (see the crate docs for the policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum Phase {
    /// Completions and deliveries become visible.
    Deliver,
    /// Activation tokens are released.
    Release,
    /// SCS starts are audited for readiness.
    Audit,
    /// Dynamic slot boundaries arbitrate.
    Arbitrate,
}

/// A queued wake-up payload. Its kind names its handler: the kernel
/// for job bookkeeping, `FpsCompletion` the CPU of its node, `DynSlot`
/// the arbiter of its cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Signal {
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
        /// Cluster whose dynamic segment the slot belongs to.
        cluster: u16,
        /// Hyperperiod the cycle belongs to.
        rep: i64,
        /// Communication-cycle index within the hyperperiod.
        cycle: u32,
        /// 1-based frame identifier of the slot.
        fid: u16,
        /// Minislot counter value at the slot boundary (1-based).
        counter: u32,
    },
}

/// A zero-latency notification a wake-up raises through the kernel.
/// Immediates drain FIFO after each wake-up, before the next queued
/// one, and are never reordered: they model synchronous intra-instant
/// causality, not simultaneity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Immediate {
    /// A ready FPS job arrives at its node CPU.
    FpsArrive {
        /// The node whose CPU runs the job.
        node: usize,
        /// The ready job.
        job: JobRef,
        /// FPS priority.
        priority: u32,
        /// Worst-case execution time.
        wcet: Time,
    },
    /// A ready DYN frame enters its CHI send buffer.
    ChiEnqueue {
        /// The cluster whose arbiter holds the buffer.
        cluster: u16,
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
    pub(crate) fn order_key(&self) -> [u64; 5] {
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
                ..
            } => [
                6,
                *rep as u64,
                u64::from(*cycle),
                u64::from(*fid),
                u64::from(*counter),
            ],
        }
    }

    /// The last tie-break of the canonical order: the cluster of a
    /// dynamic slot (two clusters' slots can share every `order_key`
    /// coordinate); 0 for every other kind, whose key names its handler.
    fn cluster(&self) -> u16 {
        match self {
            Signal::DynSlot { cluster, .. } => *cluster,
            _ => 0,
        }
    }

    /// The service phase of this signal.
    #[must_use]
    pub(crate) fn phase(&self) -> Phase {
        match self.order_key()[0] {
            0..=3 => Phase::Deliver,
            4 => Phase::Release,
            5 => Phase::Audit,
            _ => Phase::Arbitrate,
        }
    }

    /// The signal relocated `dreps` hyperperiods forward (its
    /// hyperperiod coordinates; CPU versions carry none).
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
                cluster,
                rep,
                cycle,
                fid,
                counter,
            } => Signal::DynSlot {
                cluster,
                rep: rep + dreps,
                cycle,
                fid,
                counter,
            },
            Signal::FpsCompletion { .. } => self,
        }
    }
}

/// A scheduled wake-up: when, and with what payload.
///
/// Wake-ups are totally ordered by `(time, order key, cluster)`: the
/// cluster breaks the one tie the key leaves, two clusters' dynamic
/// slots with equal coordinates at one instant. Entries equal in that
/// order are identical, so the service order never depends on how the
/// queue stores them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    /// Absolute wake-up time.
    pub(crate) time: Time,
    /// The payload.
    pub(crate) signal: Signal,
}

impl Entry {
    /// The entry relocated `dt` forward in time and `dreps` hyperperiods
    /// forward in coordinates.
    fn shifted(&self, dt: Time, dreps: i64) -> Entry {
        Entry {
            time: self.time + dt,
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
            let key = |e: &Entry| (e.signal.order_key(), e.signal.cluster());
            key(self).cmp(&key(other))
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
pub(crate) struct EventQueue {
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
    pub(crate) fn new() -> Self {
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

    /// Makes only the template's dynamic-slot chain heads pending for
    /// hyperperiod `rep`: the cycles that send the DYN frames left over
    /// after a run's last hyperperiod.
    pub(crate) fn seed_dyn_heads(&mut self, rep: i64) {
        let off = self.horizon.saturating_mul(rep);
        for e in &self.template {
            if matches!(e.signal, Signal::DynSlot { .. }) {
                self.heap.push(Reverse(e.shifted(off, rep)));
            }
        }
    }

    /// Schedules a wake-up with `signal` at absolute time `at`.
    pub(crate) fn push(&mut self, at: Time, signal: Signal) {
        self.heap.push(Reverse(Entry { time: at, signal }));
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
    pub(crate) fn pop(&mut self) -> Option<Entry> {
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
    pub(crate) fn peek_time(&self) -> Option<Time> {
        let heads = self.cursors.iter().map(|c| c.head.time);
        heads.chain(self.heap.peek().map(|Reverse(e)| e.time)).min()
    }

    /// Number of pending wake-ups.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        let table: usize = self
            .cursors
            .iter()
            .map(|c| self.template.len() - c.next)
            .sum();
        table + self.heap.len()
    }

    /// `true` when no wake-ups remain.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn is_empty(&self) -> bool {
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
    pub(crate) fn snapshot_sorted(&self) -> Vec<Entry> {
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
        q.push(Time::from_us(5.0), Signal::Activate { job: job(1) });
        q.push(Time::from_us(1.0), Signal::Activate { job: job(2) });
        q.push(Time::from_us(3.0), Signal::Activate { job: job(3) });
        let order: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_us())
            .collect();
        assert_eq!(order, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn same_time_orders_deliveries_before_dyn_slots() {
        let mut q = EventQueue::new();
        let t = Time::from_us(10.0);
        q.push(t, dyn_head(0));
        q.push(t, Signal::DynDelivery { job: job(0) });
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
        assert_eq!(dyn_head(0).phase(), Phase::Arbitrate);
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
        q.push(Time::ZERO, Signal::Activate { job: job(0) });
        q.push(Time::ZERO, Signal::ScsFinish { job: job(1) });
        assert_eq!(q.len(), 2);
        let snap = q.snapshot_sorted();
        // deliveries sort before activations at the same instant
        assert!(matches!(snap[0].signal, Signal::ScsFinish { .. }));
        assert_eq!(q.len(), 2, "snapshot does not consume");
        while q.pop().is_some() {}
        assert!(q.is_empty());
    }

    fn dyn_head(cluster: u16) -> Signal {
        Signal::DynSlot {
            cluster,
            rep: 0,
            cycle: 0,
            fid: 1,
            counter: 1,
        }
    }

    #[test]
    fn simultaneous_dyn_slots_of_two_clusters_pop_in_cluster_order() {
        // Equal time and order key: only the cluster tells the
        // clusters' slots apart, whatever order they were pushed in.
        let t = Time::from_us(10.0);
        let cluster_of = |e: Entry| match e.signal {
            Signal::DynSlot { cluster, .. } => cluster,
            _ => unreachable!("only dynamic slots were pushed"),
        };
        for clusters in [[1, 0, 2], [2, 1, 0], [0, 2, 1]] {
            let mut q = EventQueue::new();
            for c in clusters {
                q.push(t, dyn_head(c));
            }
            let order: Vec<u16> = std::iter::from_fn(|| q.pop()).map(cluster_of).collect();
            assert_eq!(order, vec![0, 1, 2], "pushed as {clusters:?}");
        }
        let a = Entry {
            time: t,
            signal: dyn_head(0),
        };
        assert!(
            a < Entry {
                signal: dyn_head(1),
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
                #[allow(clippy::cast_possible_truncation)] // draws below 3
                cluster: rng.next_below(3) as u16,
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
                        signal: random_signal(&mut rng, kind, rep),
                    };
                    q.push(e.time, e.signal);
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
                    (got.time, got.signal),
                    (want.time, want.signal),
                    "seed {seed}"
                );
            }
            assert!(q.is_empty());
        }
    }
}
