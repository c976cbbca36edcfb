//! The simulation components: node CPUs, the activation releaser, the
//! static segment and the dynamic-segment arbiter.
//!
//! Each component owns the protocol state of one concern and reacts to
//! [`Signal`] wake-ups delivered by the engine; cross-component effects
//! go through the [`Kernel`]. Components also implement the two hooks
//! the hyperperiod compression needs: boundary-normalised state
//! fingerprints and the exact fast-forward relocation.

use crate::cpu::Cpu;
use crate::event::{ComponentId, JobRef, Signal};
use crate::kernel::Kernel;
use flexray_analysis::LatestTxPolicy;
use flexray_model::{ActivityId, Fingerprint, NodeId, SystemView, Time};
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap};

/// One discrete-event component.
///
/// The engine wakes a component with `(now, signal)` pairs drawn from
/// the time-ordered queue (or the immediate FIFO); the component reacts
/// by mutating its own state and scheduling further wake-ups through
/// the kernel.
pub(crate) trait Component {
    /// This component's slot in the engine's component table.
    fn id(&self) -> ComponentId;

    /// Services one wake-up at time `now`.
    fn wake(&mut self, now: Time, signal: Signal, kernel: &mut Kernel);

    /// Appends the boundary-normalised state to a fingerprint.
    fn fingerprint_into(&mut self, _now: Time, _b_rep: i64, _fp: &mut Fingerprint) {}

    /// Staleness of an `FpsCompletion` version at this component
    /// (fingerprint normalisation; only CPUs carry versions).
    fn version_delta(&self, _version: u64) -> i64 {
        0
    }

    /// Relocates the component `dt` forward in time and `dreps`
    /// hyperperiods forward in job coordinates (compression
    /// fast-forward).
    fn shift(&mut self, _dt: Time, _dreps: i64) {}
}

/// A node CPU running FPS tasks preemptively in the table slack.
pub(crate) struct CpuComponent {
    node: usize,
    cpu: Cpu,
}

impl CpuComponent {
    pub(crate) fn new(node: usize, cpu: Cpu) -> Self {
        CpuComponent { node, cpu }
    }
}

impl Component for CpuComponent {
    fn id(&self) -> ComponentId {
        ComponentId(self.node)
    }

    fn wake(&mut self, now: Time, signal: Signal, kernel: &mut Kernel) {
        match signal {
            Signal::FpsArrive {
                job,
                priority,
                wcet,
            } => {
                let p = self.cpu.arrive(now, job, priority, wcet, kernel.limit);
                if let Some(at) = p.at {
                    kernel.queue.push(
                        at,
                        self.id(),
                        Signal::FpsCompletion {
                            node: self.node,
                            version: p.version,
                        },
                    );
                }
            }
            Signal::FpsCompletion { version, .. } => {
                let (finished, next) = self.cpu.complete(now, version, kernel.limit);
                if let Some(job) = finished {
                    kernel.complete(job, now);
                }
                if let Some(at) = next.at {
                    kernel.queue.push(
                        at,
                        self.id(),
                        Signal::FpsCompletion {
                            node: self.node,
                            version: next.version,
                        },
                    );
                }
            }
            _ => debug_assert!(false, "unexpected signal at a CPU"),
        }
    }

    fn fingerprint_into(&mut self, now: Time, b_rep: i64, fp: &mut Fingerprint) {
        fp.push(0xF1A6_0002);
        self.cpu.fingerprint_into(now, b_rep, fp);
    }

    fn version_delta(&self, version: u64) -> i64 {
        self.cpu.version_delta(version)
    }

    fn shift(&mut self, dt: Time, dreps: i64) {
        self.cpu.shift(dt, dreps);
    }
}

/// Releases activation tokens (stateless — the tokens live in the
/// queue, the readiness bookkeeping in the kernel's job store).
pub(crate) struct Releaser {
    id: ComponentId,
}

impl Releaser {
    pub(crate) fn new(id: ComponentId) -> Self {
        Releaser { id }
    }
}

impl Component for Releaser {
    fn id(&self) -> ComponentId {
        self.id
    }

    fn wake(&mut self, now: Time, signal: Signal, kernel: &mut Kernel) {
        match signal {
            Signal::Activate { job } => kernel.resolve_dependency(job, now),
            _ => debug_assert!(false, "unexpected signal at the releaser"),
        }
    }
}

/// Follows the static schedule verbatim: SCS task starts/finishes and
/// ST slot deliveries, with precedence auditing (stateless — the table
/// events come from the queue's hyperperiod template).
pub(crate) struct StaticSegment {
    id: ComponentId,
}

impl StaticSegment {
    pub(crate) fn new(id: ComponentId) -> Self {
        StaticSegment { id }
    }
}

impl Component for StaticSegment {
    fn id(&self) -> ComponentId {
        self.id
    }

    fn wake(&mut self, now: Time, signal: Signal, kernel: &mut Kernel) {
        match signal {
            Signal::ScsStart { job } => kernel.audit_start(job, now),
            Signal::ScsFinish { job } => kernel.complete(job, now),
            Signal::StDelivery { job } => {
                kernel.audit_delivery(job, now);
                kernel.complete(job, now);
            }
            _ => debug_assert!(false, "unexpected signal at the static segment"),
        }
    }
}

/// A frame waiting in a CHI send buffer.
#[derive(Debug, Clone, Copy)]
struct ChiFrame {
    enqueued: Time,
    priority: u32,
    job: JobRef,
}

/// The dynamic-segment arbiter: CHI send buffers plus the dynamic
/// slot / minislot counters of FlexRay dynamic arbitration (Section 3
/// of the paper). One arbiter per cluster: `sys` is a view focused on
/// the arbiter's own bus, so `sys.bus.frame_ids` names exactly the
/// messages this cluster carries.
pub(crate) struct DynSegment<'a> {
    sys: SystemView<'a>,
    id: ComponentId,
    latest_tx: LatestTxPolicy,
    /// Owner node of each assigned frame identifier.
    frame_node: HashMap<u16, NodeId>,
    /// Per communication cycle *within one hyperperiod*: start of the
    /// dynamic segment (hyperperiod-relative) and effective minislot
    /// budget (the final cycle may be truncated by the hyperperiod).
    cycle_info: Vec<(Time, u32)>,
    /// CHI send buffers by frame identifier, insertion-ordered (ties in
    /// arbitration resolve against the insertion index).
    chi: BTreeMap<u16, Vec<ChiFrame>>,
}

impl<'a> DynSegment<'a> {
    pub(crate) fn new(
        sys: SystemView<'a>,
        id: ComponentId,
        latest_tx: LatestTxPolicy,
        cycle_info: Vec<(Time, u32)>,
    ) -> Self {
        let mut frame_node = HashMap::new();
        for (&m, &fid) in &sys.bus.frame_ids {
            if let Some(node) = sys.app.sender_of(m) {
                frame_node.insert(fid.number(), node);
            }
        }
        DynSegment {
            sys,
            id,
            latest_tx,
            frame_node,
            cycle_info,
            chi: BTreeMap::new(),
        }
    }

    /// Arbitrates one dynamic slot boundary; the wake-up for the next
    /// boundary of the chain is scheduled through the kernel. Runs of
    /// empty slots are coalesced into a single jump (exact: the skipped
    /// boundaries could neither transmit nor change any state).
    fn dyn_slot(
        &mut self,
        now: Time,
        kernel: &mut Kernel,
        rep: i64,
        cycle: u32,
        fid: u16,
        counter: u32,
    ) {
        let Some(&(_, eff)) = self.cycle_info.get(cycle as usize) else {
            debug_assert!(false, "dyn slot in an unknown cycle");
            return;
        };
        let n_dyn = self.sys.bus.dyn_slot_count();
        if fid > n_dyn || counter > eff {
            return;
        }
        let ms = self.sys.bus.phy.gd_minislot;
        // Highest-priority frame with this identifier already in the CHI.
        let pick = self.chi.get(&fid).and_then(|q| {
            q.iter()
                .enumerate()
                .filter(|(_, f)| f.enqueued <= now)
                .max_by_key(|(i, f)| (f.priority, Reverse(f.enqueued), Reverse(*i)))
                .map(|(i, f)| (i, *f))
        });
        if let Some((qi, frame)) = pick {
            let msg = ActivityId::new(frame.job.act as usize);
            let lm = self.sys.bus.minislots_of(self.sys.app, msg);
            let bound = match self.latest_tx {
                LatestTxPolicy::PerMessage => eff.saturating_sub(lm) + 1,
                LatestTxPolicy::PerNode => {
                    let node = self.frame_node[&fid];
                    // per-node bound relative to the effective budget
                    let largest = self
                        .sys
                        .bus
                        .frame_ids
                        .keys()
                        .filter(|&&m| self.sys.app.sender_of(m) == Some(node))
                        .map(|&m| self.sys.bus.minislots_of(self.sys.app, m))
                        .max()
                        .unwrap_or(1);
                    eff.saturating_sub(largest) + 1
                }
            };
            if counter <= bound {
                if let Some(q) = self.chi.get_mut(&fid) {
                    q.swap_remove(qi);
                }
                let end = now + ms * i64::from(lm);
                kernel
                    .queue
                    .push(end, self.id, Signal::DynDelivery { job: frame.job });
                kernel.queue.push(
                    end,
                    self.id,
                    Signal::DynSlot {
                        rep,
                        cycle,
                        fid: fid + 1,
                        counter: counter + lm,
                    },
                );
                return;
            }
            // Blocked slot (frame present but past its latest start):
            // it takes a single minislot, like an empty slot.
            kernel.queue.push(
                now + ms,
                self.id,
                Signal::DynSlot {
                    rep,
                    cycle,
                    fid: fid + 1,
                    counter: counter + 1,
                },
            );
            return;
        }
        // Empty slot: jump over the run of slots that provably stay
        // empty. The chain dies after `death` more slots (frame ids or
        // minislot budget exhausted); a queued frame for a later id
        // bounds the jump, as does the next engine event (an enqueue
        // can only happen when some event is serviced).
        let death = i64::from(n_dyn - fid).min(i64::from(eff - counter)) + 1;
        let mut jump = death;
        if fid < n_dyn {
            if let Some(d) = self
                .chi
                .range(fid + 1..=n_dyn)
                .find(|(_, q)| !q.is_empty())
                .map(|(&f, _)| i64::from(f - fid))
            {
                jump = jump.min(d);
            }
        }
        if let Some(te) = kernel.queue.peek_time() {
            // Land on the first slot boundary at or after the next
            // event (max(1): a same-instant event elsewhere in the
            // queue cannot feed this chain's CHI retroactively).
            jump = jump.min((te - now).div_ceil(ms).max(1));
        }
        if jump >= death {
            return; // the chain ends silently — nothing left to send
        }
        let step = u32::try_from(jump).unwrap_or(1);
        kernel.queue.push(
            now + ms * jump,
            self.id,
            Signal::DynSlot {
                rep,
                cycle,
                fid: fid + u16::try_from(jump).unwrap_or(1),
                counter: counter + step,
            },
        );
    }
}

impl Component for DynSegment<'_> {
    fn id(&self) -> ComponentId {
        self.id
    }

    fn wake(&mut self, now: Time, signal: Signal, kernel: &mut Kernel) {
        match signal {
            Signal::ChiEnqueue { fid, job, priority } => {
                self.chi.entry(fid).or_default().push(ChiFrame {
                    enqueued: now,
                    priority,
                    job,
                });
            }
            Signal::DynDelivery { job } => kernel.complete(job, now),
            Signal::DynSlot {
                rep,
                cycle,
                fid,
                counter,
            } => self.dyn_slot(now, kernel, rep, cycle, fid, counter),
            _ => debug_assert!(false, "unexpected signal at the dynamic segment"),
        }
    }

    fn fingerprint_into(&mut self, now: Time, b_rep: i64, fp: &mut Fingerprint) {
        fp.push(0xF1A6_0003);
        for (fid, q) in &self.chi {
            if q.is_empty() {
                continue; // drained buffers equal never-used ones
            }
            fp.push(u64::from(*fid));
            fp.push_usize(q.len());
            for f in q {
                fp.push_time(f.enqueued - now);
                fp.push(u64::from(f.priority));
                fp.push(u64::from(f.job.act));
                fp.push_i64(f.job.rep - b_rep);
                fp.push(u64::from(f.job.k));
            }
        }
    }

    fn shift(&mut self, dt: Time, dreps: i64) {
        for q in self.chi.values_mut() {
            for f in q {
                f.enqueued += dt;
                f.job.rep += dreps;
            }
        }
    }
}
