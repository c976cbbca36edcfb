//! Holistic scheduling and schedulability analysis (Fig. 2 / ref \[14\]).
//!
//! One call to [`analyse`] performs the complete evaluation of a bus
//! configuration:
//!
//! 1. the list scheduler builds the static schedule table for SCS tasks
//!    and ST messages;
//! 2. the static responses and the per-node availability (slack) are
//!    extracted from the table;
//! 3. the event-triggered side — FPS tasks and DYN messages — is solved
//!    by a fixed-point iteration that propagates release jitter along
//!    the task-graph edges (`J_a = max R_pred`);
//! 4. if time-triggered activities depend on event-triggered ones, the
//!    table is rebuilt with the updated completion bounds (outer loop);
//! 5. the cost function of Eq. (5) grades the result.
//!
//! The algorithm itself lives in the session module: [`analyse`] runs it
//! once over fresh state, while an
//! [`AnalysisSession`](crate::AnalysisSession) keeps the state alive so
//! optimiser loops can amortise the allocations, the cached static
//! schedule and the DYN fixed-point scratch
//! ([`DynScratch`](crate::DynScratch) — interference pools, packing
//! buffers, per-message pool skeletons) across thousands of candidate
//! configurations.

use crate::cost::Cost;
use crate::dyn_msg::{DynAnalysisMode, LatestTxPolicy};
use crate::scheduler::ScsPlacement;
use crate::session::{analyse_core, SessionState};
use crate::table::ScheduleTable;
use flexray_model::{ActivityId, ModelError, SystemView, Time};

/// Tuning knobs of the holistic analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Latest-transmission-start policy for DYN messages.
    pub latest_tx: LatestTxPolicy,
    /// Filled-cycle maximisation mode for DYN messages.
    pub dyn_mode: DynAnalysisMode,
    /// SCS placement policy of the list scheduler (Fig. 2 line 11).
    pub scs_placement: ScsPlacement,
    /// Maximum outer (table ↔ ET) iterations.
    pub max_outer_iters: usize,
    /// Maximum inner (jitter) fixed-point iterations.
    pub max_inner_iters: usize,
    /// Divergence cap factor: responses are capped at
    /// `factor · max(hyperperiod, largest deadline)`.
    pub divergence_factor: i64,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            latest_tx: LatestTxPolicy::default(),
            dyn_mode: DynAnalysisMode::default(),
            scs_placement: ScsPlacement::default(),
            max_outer_iters: 4,
            max_inner_iters: 32,
            divergence_factor: 4,
        }
    }
}

/// The result of one holistic analysis run.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Worst-case response time of every activity, relative to its graph
    /// activation. Diverged activities carry the divergence cap.
    pub responses: Vec<Time>,
    /// Activities whose response-time iteration diverged (response capped).
    pub diverged: Vec<ActivityId>,
    /// The static schedule table that was built.
    pub table: ScheduleTable,
    /// Eq. (5) over the responses.
    pub cost: Cost,
}

impl Analysis {
    /// `true` if all deadlines are met and nothing diverged or
    /// overflowed the table.
    #[must_use]
    pub fn is_schedulable(&self) -> bool {
        self.cost.is_schedulable() && self.diverged.is_empty() && self.table.is_feasible()
    }

    /// Response time of one activity.
    #[must_use]
    pub fn response(&self, id: ActivityId) -> Time {
        self.responses[id.index()]
    }
}

/// Runs the complete holistic analysis of a system under its current bus
/// configuration.
///
/// # Errors
///
/// Returns an error if the system model itself is inconsistent (unknown
/// ids, hyperperiod overflow, deadlocked precedence).
pub fn analyse<'a>(
    sys: impl Into<SystemView<'a>>,
    cfg: &AnalysisConfig,
) -> Result<Analysis, ModelError> {
    let sys = sys.into();
    let mut state = SessionState::default();
    analyse_core(sys, cfg, &mut state)?;
    Ok(state.into_analysis())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexray_model::*;

    /// A TT chain and an ET chain over two nodes.
    fn mixed_system() -> System {
        let mut app = Application::new();
        let gt = app.add_graph("tt", Time::from_us(200.0), Time::from_us(150.0));
        let a = app.add_task(
            gt,
            "a",
            NodeId::new(0),
            Time::from_us(10.0),
            SchedPolicy::Scs,
            0,
        );
        let b = app.add_task(
            gt,
            "b",
            NodeId::new(1),
            Time::from_us(10.0),
            SchedPolicy::Scs,
            0,
        );
        let m_ab = app.add_message(gt, "m_ab", 8, MessageClass::Static, 0);
        app.connect(a, m_ab, b).expect("edges");

        let ge = app.add_graph("et", Time::from_us(200.0), Time::from_us(190.0));
        let c = app.add_task(
            ge,
            "c",
            NodeId::new(0),
            Time::from_us(5.0),
            SchedPolicy::Fps,
            5,
        );
        let d = app.add_task(
            ge,
            "d",
            NodeId::new(1),
            Time::from_us(5.0),
            SchedPolicy::Fps,
            5,
        );
        let m_cd = app.add_message(ge, "m_cd", 4, MessageClass::Dynamic, 1);
        app.connect(c, m_cd, d).expect("edges");

        let mut bus = BusConfig::new(PhyParams::unit());
        bus.static_slot_len = Time::from_us(8.0);
        bus.static_slot_owners = vec![NodeId::new(0), NodeId::new(1)];
        bus.n_minislots = 10;
        bus.frame_ids.insert(m_cd, FrameId::new(1));
        System::validated(Platform::with_nodes(2), app, bus).expect("valid")
    }

    #[test]
    fn mixed_system_is_schedulable() {
        let sys = mixed_system();
        let res = analyse(&sys, &AnalysisConfig::default()).expect("analysis");
        assert!(res.is_schedulable(), "cost = {:?}", res.cost);
        // every activity got a response
        for id in sys.app.ids() {
            assert!(res.response(id) > Time::ZERO);
        }
        // the ET sink completes after its message, which completes after
        // its sender
        let c = sys.app.find("c").expect("c");
        let m = sys.app.find("m_cd").expect("m");
        let d = sys.app.find("d").expect("d");
        assert!(res.response(m) > res.response(c));
        assert!(res.response(d) > res.response(m));
    }

    #[test]
    fn tt_chain_matches_schedule_table() {
        let sys = mixed_system();
        let res = analyse(&sys, &AnalysisConfig::default()).expect("analysis");
        let b = sys.app.find("b").expect("b");
        let table_r = res
            .table
            .response_of(b, Time::from_us(200.0))
            .expect("entry");
        assert_eq!(res.response(b), table_r);
    }

    #[test]
    fn tight_deadline_reports_unschedulable() {
        let mut sys = mixed_system();
        // Give the ET graph an impossible deadline.
        let d = sys.app.find("d").expect("d");
        sys.app.set_deadline(d, Time::from_us(1.0));
        let res = analyse(&sys, &AnalysisConfig::default()).expect("analysis");
        assert!(!res.is_schedulable());
        assert!(res.cost.f1 > 0.0);
    }

    #[test]
    fn no_dynamic_segment_diverges_dyn_messages() {
        let mut sys = mixed_system();
        // m_cd needs 4 minislots; pLatestTx = 1. Still valid (frame
        // fits), but any interference... here none, so shrink further
        // so it cannot fit at all -> model validation would reject;
        // instead use per-node policy with a big sibling.
        sys.bus.n_minislots = 4;
        let res = analyse(&sys, &AnalysisConfig::default()).expect("analysis");
        // with exactly-fitting segment the message still goes out
        assert!(res.diverged.is_empty());
    }

    #[test]
    fn divergence_caps_response() {
        // Saturate node 0 with an SCS task so the FPS task starves.
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(100.0), Time::from_us(100.0));
        app.add_task(
            g,
            "hog",
            NodeId::new(0),
            Time::from_us(100.0),
            SchedPolicy::Scs,
            0,
        );
        app.add_task(
            g,
            "starved",
            NodeId::new(0),
            Time::from_us(1.0),
            SchedPolicy::Fps,
            1,
        );
        let bus = BusConfig::new(PhyParams::unit());
        let sys = System::validated(Platform::with_nodes(1), app, bus).expect("valid");
        let res = analyse(&sys, &AnalysisConfig::default()).expect("analysis");
        assert_eq!(res.diverged.len(), 1);
        assert!(!res.is_schedulable());
        let starved = sys.app.find("starved").expect("starved");
        assert_eq!(res.response(starved), Time::from_us(400.0)); // 4 * 100
    }

    #[test]
    fn et_feeding_tt_triggers_outer_iteration() {
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(200.0), Time::from_us(200.0));
        let e = app.add_task(
            g,
            "e",
            NodeId::new(0),
            Time::from_us(5.0),
            SchedPolicy::Fps,
            5,
        );
        let s = app.add_task(
            g,
            "s",
            NodeId::new(1),
            Time::from_us(5.0),
            SchedPolicy::Scs,
            0,
        );
        let m = app.add_message(g, "m", 4, MessageClass::Dynamic, 1);
        app.connect(e, m, s).expect("edges");
        let mut bus = BusConfig::new(PhyParams::unit());
        bus.n_minislots = 10;
        bus.frame_ids.insert(m, FrameId::new(1));
        let sys = System::validated(Platform::with_nodes(2), app, bus).expect("valid");
        let res = analyse(&sys, &AnalysisConfig::default()).expect("analysis");
        assert!(res.is_schedulable());
        let s_id = sys.app.find("s").expect("s");
        let m_id = sys.app.find("m").expect("m");
        // the SCS task is placed no earlier than the message bound
        assert!(res.response(s_id) >= res.response(m_id));
    }
}
