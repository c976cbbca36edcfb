//! The judge of a simulation run: [`SimReport::audit`] lists every way
//! a run disagrees with the holistic analysis of its system.

use crate::SimReport;
use flexray_analysis::Analysis;
use flexray_model::{ActivityId, Application, SystemView, Time};

/// One way a simulation run disagrees with the analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Finding {
    /// A precedence or buffering violation ([`SimReport::violations`]).
    Violation(String),
    /// Job instances left unfinished at the end of the run.
    Unfinished {
        /// Job instances that completed.
        completed: usize,
        /// Job instances released.
        total: usize,
    },
    /// No instance of the activity completed.
    NoResponse(ActivityId),
    /// An observed response above the analysed WCRT.
    AboveWcrt {
        /// The activity.
        id: ActivityId,
        /// Its worst observed response.
        observed: Time,
        /// Its worst-case response time.
        wcrt: Time,
    },
    /// An observed response above the deadline.
    MissesDeadline {
        /// The activity.
        id: ActivityId,
        /// Its worst observed response.
        observed: Time,
        /// Its deadline.
        deadline: Time,
    },
}

impl Finding {
    /// One line naming the finding, with activities named from `app`.
    #[must_use]
    pub fn describe(&self, app: &Application) -> String {
        let name = |id: &ActivityId| &app.activity(*id).name;
        match self {
            Finding::Violation(v) => format!("precedence violation: {v}"),
            Finding::Unfinished { completed, total } => {
                format!("{completed} of {total} jobs finished")
            }
            Finding::NoResponse(id) => format!("'{}' has no observed response", name(id)),
            Finding::AboveWcrt { id, observed, wcrt } => {
                format!("'{}' observed {observed} > WCRT {wcrt}", name(id))
            }
            Finding::MissesDeadline {
                id,
                observed,
                deadline,
            } => {
                format!(
                    "'{}' observed {observed} misses its deadline {deadline}",
                    name(id)
                )
            }
        }
    }
}

/// The verdict of [`SimReport::audit`]: a run passes when it has no
/// findings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Audit {
    /// Violations, then unfinished jobs, then per activity in id order.
    pub findings: Vec<Finding>,
    /// The smallest `WCRT − observed` over the observed activities,
    /// negative when a response exceeds its WCRT.
    pub min_margin: Option<Time>,
}

impl Audit {
    /// [`Finding::describe`] of every finding, in order.
    #[must_use]
    pub fn describe(&self, app: &Application) -> Vec<String> {
        self.findings.iter().map(|f| f.describe(app)).collect()
    }
}

impl SimReport {
    /// Judges this run against `analysis`, the holistic analysis of the
    /// system `sys` it simulated.
    #[must_use]
    pub fn audit<'a>(&self, sys: impl Into<SystemView<'a>>, analysis: &Analysis) -> Audit {
        let app = sys.into().app;
        let violations = self.violations.iter().cloned().map(Finding::Violation);
        let mut findings: Vec<_> = violations.collect();
        if self.completed_jobs != self.total_jobs {
            let (completed, total) = (self.completed_jobs, self.total_jobs);
            findings.push(Finding::Unfinished { completed, total });
        }
        for id in app.ids() {
            let Some(observed) = self.response(id) else {
                findings.push(Finding::NoResponse(id));
                continue;
            };
            let (wcrt, deadline) = (analysis.response(id), app.deadline_of(id));
            if observed > wcrt {
                findings.push(Finding::AboveWcrt { id, observed, wcrt });
            }
            if observed > deadline {
                findings.push(Finding::MissesDeadline {
                    id,
                    observed,
                    deadline,
                });
            }
        }
        let margins = app
            .ids()
            .filter_map(|id| Some(analysis.response(id) - self.response(id)?));
        Audit {
            findings,
            min_margin: margins.min(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, simulate_default, ExecutionOrder, SimConfig};
    use flexray_analysis::{analyse, AnalysisConfig, ScheduleTable, TaskEntry};
    use flexray_model::{
        BusConfig, MessageClass, NodeId, PhyParams, Platform, SchedPolicy, System,
    };

    /// 50 ns gdBit so that `2·n` bytes last exactly `n` µs.
    fn fine_phy() -> PhyParams {
        PhyParams {
            gd_bit: Time::from_ns(50),
            gd_macrotick: Time::MICROSECOND,
            gd_minislot: Time::MICROSECOND,
            frame_overhead_bytes: 0,
        }
    }

    /// `a` (10 µs on node 0) sends `m` (4 µs, ST) to `b` (5 µs on node
    /// 1): `a` ends at 10, `m` is delivered at 24 and `b` ends at 29.
    fn tt_chain(deadline_us: f64) -> System {
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(100.0), Time::from_us(deadline_us));
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
        let m = app.add_message(g, "m", 8, MessageClass::Static, 0);
        app.connect(a, m, b).expect("edges");
        let mut bus = BusConfig::new(fine_phy());
        bus.static_slot_len = Time::from_us(8.0);
        bus.static_slot_owners = vec![NodeId::new(0), NodeId::new(1)];
        System::validated(Platform::with_nodes(2), app, bus).expect("valid")
    }

    fn judged(sys: &System, report: &SimReport) -> Audit {
        let analysis = analyse(sys, &AnalysisConfig::default()).expect("analysis");
        report.audit(sys, &analysis)
    }

    #[test]
    fn a_run_within_the_analysis_has_no_findings() {
        let sys = tt_chain(100.0);
        let report = simulate_default(&sys).expect("simulation");
        let audit = judged(&sys, &report);
        assert!(audit.findings.is_empty(), "{:?}", audit.describe(&sys.app));
        // the table is followed exactly: every WCRT is observed
        assert_eq!(audit.min_margin, Some(Time::ZERO));
    }

    #[test]
    fn a_violation_is_a_finding() {
        // task b starts before its input message is delivered
        let sys = tt_chain(100.0);
        let b = sys.app.find("b").expect("b");
        let mut table = ScheduleTable::new(sys.hyperperiod().expect("hyperperiod"));
        table.push_task(TaskEntry {
            activity: b,
            instance: 0,
            node: NodeId::new(1),
            start: Time::from_us(1.0),
            finish: Time::from_us(6.0),
        });
        let report = simulate(&sys, &table, &SimConfig::default()).expect("simulation");
        let audit = judged(&sys, &report);
        assert!(matches!(audit.findings[0], Finding::Violation(_)));
        assert!(
            audit.findings[0]
                .describe(&sys.app)
                .starts_with("precedence violation: SCS task 'b' starts at 1µs"),
            "{:?}",
            audit.describe(&sys.app)
        );
    }

    #[test]
    fn a_job_that_cannot_finish_and_an_unobserved_activity_are_findings() {
        // An SCS task fills node 0 for its whole period: the FPS task
        // there never runs, so none of its jobs finishes.
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(100.0), Time::from_us(100.0));
        app.add_task(
            g,
            "scs",
            NodeId::new(0),
            Time::from_us(100.0),
            SchedPolicy::Scs,
            0,
        );
        let fps = app.add_task(
            g,
            "fps",
            NodeId::new(0),
            Time::from_us(10.0),
            SchedPolicy::Fps,
            1,
        );
        let sys = System::validated(Platform::with_nodes(1), app, BusConfig::new(fine_phy()))
            .expect("valid");
        let report = simulate_default(&sys).expect("simulation");
        let audit = judged(&sys, &report);
        assert_eq!(
            audit.findings,
            vec![
                Finding::Unfinished {
                    completed: 2,
                    total: 4
                },
                Finding::NoResponse(fps),
            ]
        );
        assert_eq!(
            audit.describe(&sys.app),
            ["2 of 4 jobs finished", "'fps' has no observed response"]
        );
    }

    #[test]
    fn a_response_above_its_wcrt_is_a_finding_with_a_negative_margin() {
        let sys = tt_chain(100.0);
        let m = sys.app.find("m").expect("m");
        let report = simulate_default(&sys).expect("simulation");
        let mut analysis = analyse(&sys, &AnalysisConfig::default()).expect("analysis");
        analysis.responses[m.index()] = Time::from_us(23.0);
        let audit = report.audit(&sys, &analysis);
        assert_eq!(
            audit.findings,
            vec![Finding::AboveWcrt {
                id: m,
                observed: Time::from_us(24.0),
                wcrt: Time::from_us(23.0),
            }]
        );
        assert_eq!(audit.describe(&sys.app), ["'m' observed 24µs > WCRT 23µs"]);
        assert_eq!(audit.min_margin, Some(Time::from_us(-1.0)));
    }

    #[test]
    fn a_response_above_its_deadline_is_a_finding() {
        let sys = tt_chain(25.0);
        let b = sys.app.find("b").expect("b");
        for order in [
            ExecutionOrder::Canonical,
            ExecutionOrder::Fuzzed { seed: 3 },
        ] {
            let cfg = SimConfig {
                order,
                ..SimConfig::default()
            };
            let report = crate::simulate_configured(&sys, &cfg).expect("simulation");
            let audit = judged(&sys, &report);
            assert_eq!(
                audit.findings,
                vec![Finding::MissesDeadline {
                    id: b,
                    observed: Time::from_us(29.0),
                    deadline: Time::from_us(25.0),
                }]
            );
            assert_eq!(
                audit.describe(&sys.app),
                ["'b' observed 29µs misses its deadline 25µs"]
            );
        }
    }
}
