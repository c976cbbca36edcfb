//! The complete system: platform + application + bus configuration.

use crate::{
    ActivityId, Application, BusConfig, MessageClass, ModelError, NodeId, SchedPolicy, Time,
};
use serde::{Deserialize, Serialize};

/// The hardware platform: a set of named processing nodes on one FlexRay
/// channel.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Platform {
    node_names: Vec<String>,
}

impl Platform {
    /// A platform of `n` nodes named `N0`, `N1`, ….
    #[must_use]
    pub fn with_nodes(n: usize) -> Self {
        Platform {
            node_names: (0..n).map(|i| format!("N{i}")).collect(),
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.node_names.len()
    }

    /// `true` if the platform has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.node_names.is_empty()
    }

    /// Name of a node.
    #[must_use]
    pub fn name(&self, node: NodeId) -> &str {
        &self.node_names[node.index()]
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_names.len()).map(NodeId::new)
    }
}

/// A fully specified distributed system, ready for analysis.
///
/// Construction through [`System::validated`] guarantees that the
/// application is well-formed and the bus configuration is consistent
/// with it, so the analysis crates can index freely.
///
/// The fields stay public for the optimisation loops, which repeatedly
/// swap [`System::bus`] and re-analyse; call [`System::validate`] after
/// manual edits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct System {
    /// The processing nodes.
    pub platform: Platform,
    /// The task graphs.
    pub app: Application,
    /// The FlexRay bus configuration under evaluation.
    pub bus: BusConfig,
}

impl System {
    /// A borrowed [`SystemView`](crate::SystemView) over this system —
    /// the form the analysis crates consume.
    #[must_use]
    pub fn view(&self) -> crate::SystemView<'_> {
        crate::SystemView::from(self)
    }

    /// Builds a system and validates every layer.
    ///
    /// # Errors
    ///
    /// Propagates [`Application::validate`] and
    /// [`BusConfig::validate_for`] failures, and rejects tasks mapped to
    /// nodes outside the platform.
    pub fn validated(
        platform: Platform,
        app: Application,
        bus: BusConfig,
    ) -> Result<Self, ModelError> {
        let sys = System { platform, app, bus };
        sys.validate()?;
        Ok(sys)
    }

    /// Re-runs all validation (application structure, node mapping, bus
    /// configuration, protocol limits).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), ModelError> {
        self.app.validate()?;
        for id in self.app.ids() {
            if let Some(t) = self.app.activity(id).as_task() {
                if t.node.index() >= self.platform.len() {
                    return Err(ModelError::UnknownNode(t.node));
                }
            }
        }
        self.bus.validate_for(&self.app, self.platform.len())
    }

    /// The application hyperperiod (LCM of all graph periods).
    ///
    /// # Errors
    ///
    /// See [`Application::hyperperiod`].
    pub fn hyperperiod(&self) -> Result<Time, ModelError> {
        self.app.hyperperiod()
    }

    /// Transmission time `C_m` of a message (Eq. (1)).
    #[must_use]
    pub fn comm_time(&self, message: ActivityId) -> Time {
        self.view().comm_time(message)
    }

    /// Worst-case execution/transmission time of any activity: task WCET
    /// or message communication time.
    #[must_use]
    pub fn duration_of(&self, id: ActivityId) -> Time {
        self.view().duration_of(id)
    }

    /// Nodes that send at least one static message.
    #[must_use]
    pub fn st_sender_nodes(&self) -> Vec<NodeId> {
        self.view().st_sender_nodes()
    }

    /// Dynamic messages sorted by frame identifier (then priority,
    /// descending) — the order the dynamic slot counter serves them.
    #[must_use]
    pub fn dyn_messages_by_frame(&self) -> Vec<ActivityId> {
        self.view().dyn_messages_by_frame()
    }

    /// Bus utilisation: total bus time demanded per hyperperiod divided
    /// by the hyperperiod (message transmissions only; slot overhead is
    /// not counted).
    ///
    /// # Errors
    ///
    /// Propagates hyperperiod errors.
    pub fn bus_utilisation(&self) -> Result<f64, ModelError> {
        let h = self.hyperperiod()?;
        let mut demand = 0.0;
        for m in self.app.messages_of_class(MessageClass::Static) {
            let inst = h / self.app.period_of(m);
            demand += self.comm_time(m).as_ns() as f64 * inst as f64;
        }
        for m in self.app.messages_of_class(MessageClass::Dynamic) {
            let inst = h / self.app.period_of(m);
            demand += self.comm_time(m).as_ns() as f64 * inst as f64;
        }
        Ok(demand / h.as_ns() as f64)
    }

    /// Count of activities by convenience class, for reporting.
    #[must_use]
    pub fn census(&self) -> Census {
        Census::of(&self.app)
    }

    /// Achieved workload statistics (census, node/bus utilisation,
    /// depth histogram) of this system, measured with the bus's
    /// physical layer.
    ///
    /// # Errors
    ///
    /// See [`crate::WorkloadStats::collect`].
    pub fn workload_stats(&self) -> Result<crate::WorkloadStats, ModelError> {
        crate::WorkloadStats::collect(&self.platform, &self.app, &self.bus.phy)
    }
}

/// Activity counts of a system, for experiment reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Census {
    /// Statically (time-triggered) scheduled tasks.
    pub scs_tasks: usize,
    /// Fixed-priority (event-triggered) tasks.
    pub fps_tasks: usize,
    /// Static-segment messages.
    pub st_messages: usize,
    /// Dynamic-segment messages.
    pub dyn_messages: usize,
}

impl Census {
    /// Counts the activities of an application by class.
    #[must_use]
    pub fn of(app: &Application) -> Census {
        let mut census = Census::default();
        for id in app.ids() {
            match &app.activity(id).kind {
                crate::ActivityKind::Task(t) => match t.policy {
                    SchedPolicy::Scs => census.scs_tasks += 1,
                    SchedPolicy::Fps => census.fps_tasks += 1,
                },
                crate::ActivityKind::Message(m) => match m.class {
                    MessageClass::Static => census.st_messages += 1,
                    MessageClass::Dynamic => census.dyn_messages += 1,
                },
            }
        }
        census
    }

    /// Total number of activities.
    #[must_use]
    pub fn total(&self) -> usize {
        self.scs_tasks + self.fps_tasks + self.st_messages + self.dyn_messages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrameId, PhyParams};

    fn small_system() -> System {
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(100.0), Time::from_us(100.0));
        let t1 = app.add_task(
            g,
            "t1",
            NodeId::new(0),
            Time::from_us(5.0),
            SchedPolicy::Scs,
            0,
        );
        let t2 = app.add_task(
            g,
            "t2",
            NodeId::new(1),
            Time::from_us(5.0),
            SchedPolicy::Scs,
            0,
        );
        let t3 = app.add_task(
            g,
            "t3",
            NodeId::new(0),
            Time::from_us(3.0),
            SchedPolicy::Fps,
            2,
        );
        let t4 = app.add_task(
            g,
            "t4",
            NodeId::new(1),
            Time::from_us(3.0),
            SchedPolicy::Fps,
            2,
        );
        let st = app.add_message(g, "st", 4, MessageClass::Static, 0);
        let dy = app.add_message(g, "dy", 2, MessageClass::Dynamic, 1);
        app.connect(t1, st, t2).expect("edges");
        app.connect(t3, dy, t4).expect("edges");
        let mut bus = BusConfig::new(PhyParams::unit());
        bus.static_slot_len = Time::from_us(4.0);
        bus.static_slot_owners = vec![NodeId::new(0), NodeId::new(1)];
        bus.n_minislots = 10;
        bus.frame_ids.insert(dy, FrameId::new(1));
        System::validated(Platform::with_nodes(2), app, bus).expect("valid system")
    }

    #[test]
    fn validated_construction() {
        let sys = small_system();
        assert_eq!(sys.platform.len(), 2);
        assert_eq!(sys.census().total(), 6);
        assert_eq!(sys.census().scs_tasks, 2);
        assert_eq!(sys.census().dyn_messages, 1);
    }

    #[test]
    fn rejects_task_on_missing_node() {
        let mut sys = small_system();
        let g = sys.app.activity(crate::ActivityId::new(0)).graph;
        sys.app.add_task(
            g,
            "bad",
            NodeId::new(9),
            Time::from_us(1.0),
            SchedPolicy::Fps,
            0,
        );
        assert!(matches!(sys.validate(), Err(ModelError::UnknownNode(_))));
    }

    #[test]
    fn horizon_and_cycles() {
        let sys = small_system();
        assert_eq!(sys.hyperperiod().expect("h"), Time::from_us(100.0));
    }

    #[test]
    fn st_senders_and_dyn_order() {
        let sys = small_system();
        assert_eq!(sys.st_sender_nodes(), vec![NodeId::new(0)]);
        let dyns = sys.dyn_messages_by_frame();
        assert_eq!(dyns.len(), 1);
    }

    #[test]
    fn durations() {
        let sys = small_system();
        let st = sys.app.find("st").expect("st");
        let t1 = sys.app.find("t1").expect("t1");
        assert_eq!(sys.duration_of(t1), Time::from_us(5.0));
        assert_eq!(sys.duration_of(st), sys.comm_time(st));
        assert!(sys.comm_time(st) > Time::ZERO);
    }

    #[test]
    fn bus_utilisation_positive_and_below_one() {
        let sys = small_system();
        let u = sys.bus_utilisation().expect("utilisation");
        assert!(u > 0.0 && u < 1.0, "got {u}");
    }

    #[test]
    fn platform_names() {
        let p = Platform::with_nodes(2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.name(NodeId::new(1)), "N1");
        assert!(!p.is_empty());
        assert_eq!(p.nodes().count(), 2);
    }
}

// These round-trip tests need a real serialisation backend
// (serde + serde_json). The build environment has no crates.io access
// and links the no-op `serde` shim from vendor/, so the module is
// gated behind the (off-by-default) `serde-json` feature rather than
// deleted: enable it once real serde/serde_json are available and the
// tests apply unchanged.
#[cfg(all(test, feature = "serde-json"))]
mod serde_tests {
    use super::*;
    use crate::{BusConfig, FrameId, MessageClass, PhyParams, SchedPolicy};

    fn sample_system() -> System {
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(100.0), Time::from_us(90.0));
        let a = app.add_task(
            g,
            "a",
            NodeId::new(0),
            Time::from_us(5.0),
            SchedPolicy::Scs,
            0,
        );
        let b = app.add_task(
            g,
            "b",
            NodeId::new(1),
            Time::from_us(5.0),
            SchedPolicy::Fps,
            2,
        );
        let m = app.add_message(g, "m", 4, MessageClass::Dynamic, 1);
        app.connect(a, m, b).expect("edges");
        let mut bus = BusConfig::new(PhyParams::unit());
        bus.n_minislots = 10;
        bus.frame_ids.insert(m, FrameId::new(1));
        System::validated(Platform::with_nodes(2), app, bus).expect("valid")
    }

    #[test]
    fn system_round_trips_through_json() {
        let sys = sample_system();
        let json = serde_json::to_string(&sys).expect("serialises");
        let back: System = serde_json::from_str(&json).expect("deserialises");
        assert_eq!(back, sys);
        back.validate().expect("still valid after round trip");
    }

    #[test]
    fn bus_config_round_trips_through_json() {
        let sys = sample_system();
        let json = serde_json::to_string(&sys.bus).expect("serialises");
        let back: BusConfig = serde_json::from_str(&json).expect("deserialises");
        assert_eq!(back, sys.bus);
        assert_eq!(back.gd_cycle(), sys.bus.gd_cycle());
    }

    #[test]
    fn time_serialises_as_plain_integer() {
        let json = serde_json::to_string(&Time::from_us(8.0)).expect("serialises");
        assert_eq!(json, "8000");
    }
}
