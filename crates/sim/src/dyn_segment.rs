//! The dynamic-segment arbiter of one cluster: CHI send buffers plus
//! the dynamic slot / minislot counters of FlexRay dynamic arbitration
//! (Section 3 of the paper), with the two hooks the hyperperiod
//! compression needs: a boundary-normalised state fingerprint and the
//! exact fast-forward relocation.
//!
//! A frame starts only while it still fits the rest of the cycle's
//! dynamic segment (`counter ≤ budget − len_m + 1`): the same
//! per-message latest-transmission rule the analysis applies
//! (`flexray_analysis::dyn_delay`).

use crate::event::{JobRef, Signal};
use crate::kernel::Kernel;
use flexray_model::{ActivityId, Fingerprint, SystemView, Time};
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// A frame waiting in a CHI send buffer.
#[derive(Debug, Clone, Copy)]
struct ChiFrame {
    enqueued: Time,
    priority: u32,
    job: JobRef,
}

/// The dynamic-segment arbiter of one cluster: `sys` is a view focused
/// on the arbiter's own bus, so `sys.bus.frame_ids` names exactly the
/// messages this cluster carries.
pub(crate) struct DynSegment<'a> {
    sys: SystemView<'a>,
    cluster: u16,
    /// Per communication cycle *within one hyperperiod*: start of the
    /// dynamic segment (hyperperiod-relative) and effective minislot
    /// budget (the final cycle may be truncated by the hyperperiod).
    cycle_info: Vec<(Time, u32)>,
    /// Number of dynamic slots: the highest frame identifier on the bus
    /// (fixed for the arbiter's lifetime).
    n_dyn: u16,
    /// CHI send buffers by frame identifier, insertion-ordered (ties in
    /// arbitration resolve against the insertion index).
    chi: BTreeMap<u16, Vec<ChiFrame>>,
}

impl<'a> DynSegment<'a> {
    pub(crate) fn new(sys: SystemView<'a>, cluster: u16, cycle_info: Vec<(Time, u32)>) -> Self {
        DynSegment {
            n_dyn: sys.bus.dyn_slot_count(),
            sys,
            cluster,
            cycle_info,
            chi: BTreeMap::new(),
        }
    }

    /// A ready frame enters the CHI send buffer of its identifier.
    pub(crate) fn enqueue(&mut self, now: Time, fid: u16, job: JobRef, priority: u32) {
        self.chi.entry(fid).or_default().push(ChiFrame {
            enqueued: now,
            priority,
            job,
        });
    }

    /// `true` while some CHI send buffer holds a frame.
    pub(crate) fn holds_frames(&self) -> bool {
        self.chi.values().any(|q| !q.is_empty())
    }

    /// Arbitrates one dynamic slot boundary; the wake-up for the next
    /// boundary of the chain is scheduled through the kernel. Runs of
    /// empty slots are coalesced into a single jump (exact: the skipped
    /// boundaries could neither transmit nor change any state).
    pub(crate) fn dyn_slot(
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
        let n_dyn = self.n_dyn;
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
            let bound = eff.saturating_sub(lm) + 1;
            if counter <= bound {
                if let Some(q) = self.chi.get_mut(&fid) {
                    q.swap_remove(qi);
                }
                let end = now + ms * i64::from(lm);
                kernel
                    .queue
                    .push(end, Signal::DynDelivery { job: frame.job });
                kernel.queue.push(
                    end,
                    Signal::DynSlot {
                        cluster: self.cluster,
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
                Signal::DynSlot {
                    cluster: self.cluster,
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
            Signal::DynSlot {
                cluster: self.cluster,
                rep,
                cycle,
                fid: fid + u16::try_from(jump).unwrap_or(1),
                counter: counter + step,
            },
        );
    }

    /// Appends the CHI contents to a boundary fingerprint, times
    /// relative to `now` (the boundary) and job hyperperiods relative
    /// to `b_rep`.
    pub(crate) fn fingerprint_into(&self, now: Time, b_rep: i64, fp: &mut Fingerprint) {
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

    /// Relocates the CHI contents `dt` forward in time and `dreps`
    /// hyperperiods forward in job coordinates (compression
    /// fast-forward).
    pub(crate) fn shift(&mut self, dt: Time, dreps: i64) {
        for q in self.chi.values_mut() {
            for f in q {
                f.enqueued += dt;
                f.job.rep += dreps;
            }
        }
    }
}
