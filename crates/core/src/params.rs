//! Optimisation parameters and results.

use flexray_analysis::{AnalysisConfig, Cost};
use flexray_model::{BusConfig, PhyParams, Time, MAX_STATIC_SLOTS, MAX_STATIC_SLOT_MACROTICKS};
use std::time::Duration;

/// Tuning knobs shared by all optimisers.
///
/// The paper's loops notionally run to the protocol maxima (1023 static
/// slots, 661-macrotick slots, 7994 minislots); the caps below bound the
/// exploration so the experiment harnesses finish on a workstation while
/// preserving the early-exit behaviour of the published algorithms
/// (Fig. 6 stops at the first schedulable configuration).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptParams {
    /// Analysis configuration used for every evaluation.
    pub analysis: AnalysisConfig,
    /// Granularity of the dynamic-segment sweep, in minislots (the paper
    /// steps by one minislot; larger steps trade optimality for speed).
    pub dyn_step: u32,
    /// Cap on the number of static slots explored beyond the minimum
    /// (`gdNumberOfStaticSlots_max` in Fig. 6 is 1023).
    pub max_extra_slots: u16,
    /// Cap on the number of static-slot-length steps explored
    /// (each step is `20 · gdBit`, Fig. 6 line 4).
    pub max_slot_len_steps: usize,
    /// Upper bound on the number of dynamic-segment candidates per sweep;
    /// if `(max − min)/dyn_step` exceeds it, the step is widened. Keeps
    /// OBCEE tractable on workstation budgets (the paper's AMD Athlon
    /// runs took up to 29 minutes per system).
    pub max_dyn_candidates: usize,
    /// Worker sessions of the in-run parallel `Evaluator` (`0` = all
    /// cores, `1` = serial). Candidate batches and DYN-length sweeps
    /// fan out across this many warm analysis sessions; results are
    /// bit-identical to serial for any value.
    pub eval_threads: usize,
}

impl Default for OptParams {
    fn default() -> Self {
        OptParams {
            analysis: AnalysisConfig::default(),
            dyn_step: 4,
            max_extra_slots: 8,
            max_slot_len_steps: 12,
            max_dyn_candidates: 256,
            eval_threads: 1,
        }
    }
}

impl OptParams {
    /// Parameters hewing closest to the paper (1-minislot steps, full
    /// protocol ranges). Expensive: use for small systems.
    #[must_use]
    pub fn exhaustive() -> Self {
        OptParams {
            dyn_step: 1,
            max_extra_slots: MAX_STATIC_SLOTS,
            max_slot_len_steps: usize::MAX,
            ..OptParams::default()
        }
    }

    /// Largest static slot length to explore for the given physical
    /// layer (661 macroticks).
    #[must_use]
    pub fn max_slot_len(&self, phy: &PhyParams) -> Time {
        phy.gd_macrotick * i64::from(MAX_STATIC_SLOT_MACROTICKS)
    }
}

/// Outcome of one optimisation run.
#[derive(Debug, Clone)]
pub struct OptResult {
    /// Best bus configuration found.
    pub bus: BusConfig,
    /// Its cost (Eq. (5)).
    pub cost: Cost,
    /// Number of full scheduling + schedulability evaluations performed.
    pub evaluations: usize,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

impl OptResult {
    /// `true` if the best configuration meets all deadlines.
    #[must_use]
    pub fn is_schedulable(&self) -> bool {
        self.cost.is_schedulable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_bounded() {
        let p = OptParams::default();
        assert!(p.dyn_step >= 1);
        assert!(p.max_extra_slots < MAX_STATIC_SLOTS);
    }

    #[test]
    fn exhaustive_uses_protocol_ranges() {
        let p = OptParams::exhaustive();
        assert_eq!(p.dyn_step, 1);
        assert_eq!(p.max_extra_slots, MAX_STATIC_SLOTS);
    }

    #[test]
    fn max_slot_len_in_macroticks() {
        let p = OptParams::default();
        let phy = PhyParams::bmw_like();
        assert_eq!(p.max_slot_len(&phy), Time::from_us(661.0));
    }
}
