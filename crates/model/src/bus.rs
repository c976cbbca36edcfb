//! FlexRay bus configuration: the design variables of the optimisation.
//!
//! A bus configuration fixes, per Section 6 of the paper:
//! (1) the length of a static slot, (2) the number of static slots,
//! (3) their assignment to nodes, (4) the length of the dynamic segment,
//! and (5)–(6) the assignment of dynamic slots (frame identifiers) to
//! nodes and messages.

use crate::{
    ActivityId, Application, FrameId, MessageClass, ModelError, NodeId, PhyParams, SlotId, Time,
    MAX_CYCLE, MAX_MINISLOTS, MAX_STATIC_SLOTS, MAX_STATIC_SLOT_MACROTICKS,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::RangeInclusive;

/// A complete FlexRay bus configuration.
///
/// Fields are public: the optimisers in `flexray-opt` mutate
/// configurations in tight loops. [`BusConfig::validate_for`] checks the
/// protocol limits and the consistency with a given application; the
/// analysis crates call it once per evaluated configuration.
///
/// # Examples
///
/// ```
/// use flexray_model::*;
///
/// let phy = PhyParams::unit();
/// let mut bus = BusConfig::new(phy);
/// bus.static_slot_len = Time::from_us(8.0);
/// bus.static_slot_owners = vec![NodeId::new(0), NodeId::new(1)];
/// bus.n_minislots = 10;
/// assert_eq!(bus.st_bus(), Time::from_us(16.0));
/// assert_eq!(bus.gd_cycle(), Time::from_us(26.0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BusConfig {
    /// Physical-layer parameters (bit time, macrotick, minislot).
    pub phy: PhyParams,
    /// Length of one static slot (`gdStaticSlot`); must be a positive
    /// whole number of macroticks when static slots exist.
    pub static_slot_len: Time,
    /// Owner of each static slot; index 0 is slot 1. The same node may
    /// own several slots.
    pub static_slot_owners: Vec<NodeId>,
    /// Length of the dynamic segment in minislots
    /// (`gNumberOfMinislots`).
    pub n_minislots: u32,
    /// Frame identifier of every dynamic message. Messages of the same
    /// node may share a frame identifier (arbitrated by priority);
    /// messages of different nodes must not.
    pub frame_ids: BTreeMap<ActivityId, FrameId>,
}

impl BusConfig {
    /// An empty configuration (no slots, no dynamic segment) over the
    /// given physical layer.
    #[must_use]
    pub fn new(phy: PhyParams) -> Self {
        BusConfig {
            phy,
            static_slot_len: Time::ZERO,
            static_slot_owners: Vec::new(),
            n_minislots: 0,
            frame_ids: BTreeMap::new(),
        }
    }

    /// Number of static slots per cycle (`gdNumberOfStaticSlots`).
    #[must_use]
    pub fn static_slot_count(&self) -> usize {
        self.static_slot_owners.len()
    }

    /// Length of the static segment (`STbus`).
    #[must_use]
    pub fn st_bus(&self) -> Time {
        self.static_slot_len * self.static_slot_count() as i64
    }

    /// Length of the dynamic segment (`DYNbus`).
    #[must_use]
    pub fn dyn_bus(&self) -> Time {
        self.phy.gd_minislot * i64::from(self.n_minislots)
    }

    /// Communication cycle length (`gdCycle = STbus + DYNbus`).
    #[must_use]
    pub fn gd_cycle(&self) -> Time {
        self.st_bus() + self.dyn_bus()
    }

    /// Start offset of a static slot within the cycle.
    #[must_use]
    pub fn slot_start(&self, slot: SlotId) -> Time {
        self.static_slot_len * slot.offset() as i64
    }

    /// Frame identifier assigned to a dynamic message.
    #[must_use]
    pub fn frame_id_of(&self, message: ActivityId) -> Option<FrameId> {
        self.frame_ids.get(&message).copied()
    }

    /// Number of dynamic slots per cycle: the largest assigned frame
    /// identifier (the dynamic slot counter runs at least this far).
    #[must_use]
    pub fn dyn_slot_count(&self) -> u16 {
        self.frame_ids
            .values()
            .map(|f| f.number())
            .max()
            .unwrap_or(0)
    }

    /// Transmission time `C_m` of a message on this bus (Eq. (1)).
    ///
    /// # Panics
    ///
    /// Panics if `message` is not a message of `app`.
    #[must_use]
    pub fn comm_time(&self, app: &Application, message: ActivityId) -> Time {
        let spec = app
            .activity(message)
            .as_message()
            .expect("comm_time of a task");
        self.phy.frame_duration(spec.size_bytes)
    }

    /// Number of minislots the dynamic frame of `message` occupies.
    #[must_use]
    pub fn minislots_of(&self, app: &Application, message: ActivityId) -> u32 {
        self.phy.minislots_for(self.comm_time(app, message))
    }

    /// Smallest dynamic-segment length (in minislots) on which every
    /// dynamic message of `app` can be transmitted at all under the
    /// current frame-identifier assignment: slot `FrameID_m` must still
    /// begin early enough for the whole frame to fit
    /// (`(FrameID_m − 1) + len_m ≤ n_minislots` in the empty-bus case),
    /// and the segment must have at least one minislot per dynamic slot.
    #[must_use]
    pub fn min_minislots(&self, app: &Application) -> u32 {
        let mut need = u32::from(self.dyn_slot_count());
        for (&m, &fid) in &self.frame_ids {
            need = need.max(self.frame_need(app, m, fid));
        }
        need
    }

    /// The dynamic-segment length `(FrameID_m − 1) + len_m` that the
    /// frame of `message` needs to fit at all.
    fn frame_need(&self, app: &Application, message: ActivityId, fid: FrameId) -> u32 {
        u32::try_from(fid.preceding_slots()).expect("u16 fits") + self.minislots_of(app, message)
    }

    /// The dynamic-segment lengths, in minislots, this layout can take:
    /// from [`Self::min_minislots`] up to the longest segment within
    /// [`MAX_MINISLOTS`] whose cycle stays within [`MAX_CYCLE`]; `None`
    /// when no length is valid. A layout that passes
    /// [`Self::validate_layout_for_cluster`] passes
    /// [`Self::validate_for_cluster`] at exactly these lengths.
    ///
    /// # Panics
    ///
    /// Panics if `gd_minislot` is not positive or a `frame_ids` key is
    /// not a message of `app` (both rejected by the layout validation).
    #[must_use]
    pub fn dyn_lengths(&self, app: &Application) -> Option<RangeInclusive<u32>> {
        let budget = MAX_CYCLE - self.st_bus();
        if budget < Time::ZERO {
            // The static segment alone overruns the cycle.
            return None;
        }
        let fit = u32::try_from(budget.div_floor(self.phy.gd_minislot)).unwrap_or(u32::MAX);
        let (min, max) = (self.min_minislots(app), fit.min(MAX_MINISLOTS));
        (min <= max).then_some(min..=max)
    }

    /// Validates the configuration against the protocol limits and an
    /// application.
    ///
    /// # Errors
    ///
    /// * [`ModelError::ProtocolLimit`] — slot count/length, minislot
    ///   count or cycle length out of specification;
    /// * [`ModelError::MissingStaticSlot`] — a node sends static messages
    ///   but owns no slot;
    /// * [`ModelError::FrameTooLarge`] — a static frame exceeds the slot
    ///   or a dynamic frame cannot fit the dynamic segment;
    /// * [`ModelError::FrameAssignment`] / [`ModelError::Conflict`] —
    ///   missing or cross-node frame identifiers;
    /// * [`ModelError::UnknownNode`] — a slot owner outside the platform.
    pub fn validate_for(&self, app: &Application, n_nodes: usize) -> Result<(), ModelError> {
        self.validate_for_cluster(app, n_nodes, &[], 0)
    }

    /// Validates the configuration as the bus of one cluster of a
    /// multi-cluster network (see [`crate::Network`]): identical to
    /// [`Self::validate_for`], but only the messages whose
    /// `msg_cluster` entry equals `cluster` are checked against this
    /// bus, and every `frame_ids` key must belong to the cluster. An
    /// empty `msg_cluster` puts every message on cluster 0, which makes
    /// `validate_for` the single-bus special case.
    ///
    /// # Errors
    ///
    /// See [`Self::validate_for`]; additionally
    /// [`ModelError::FrameAssignment`] when a `frame_ids` key names a
    /// message homed on another cluster.
    pub fn validate_for_cluster(
        &self,
        app: &Application,
        n_nodes: usize,
        msg_cluster: &[u16],
        cluster: u16,
    ) -> Result<(), ModelError> {
        self.validate_layout_for_cluster(app, n_nodes, msg_cluster, cluster)?;
        if self
            .dyn_lengths(app)
            .is_some_and(|lengths| lengths.contains(&self.n_minislots))
        {
            return Ok(());
        }
        if self.n_minislots > MAX_MINISLOTS {
            return Err(ModelError::ProtocolLimit(format!(
                "{} minislots exceed the maximum of {MAX_MINISLOTS}",
                self.n_minislots
            )));
        }
        if self.gd_cycle() > MAX_CYCLE {
            return Err(ModelError::ProtocolLimit(format!(
                "gdCycle {} exceeds the 16 ms maximum",
                self.gd_cycle()
            )));
        }
        // Within both limits but outside the range: below the length
        // some frame needs, and every frame needs at least its slot.
        let (message, need) = self
            .frame_ids
            .iter()
            .map(|(&m, &fid)| (m, self.frame_need(app, m, fid)))
            .find(|&(_, need)| need > self.n_minislots)
            .expect("a length below min_minislots leaves some frame unfit");
        Err(ModelError::FrameTooLarge {
            message,
            context: format!(
                "dynamic segment of {} minislots (needs {need})",
                self.n_minislots
            ),
        })
    }

    /// Everything [`Self::validate_for_cluster`] checks except the
    /// dynamic-segment length, which may then be any length of
    /// [`Self::dyn_lengths`]: a sweep over lengths validates the layout
    /// once.
    ///
    /// # Errors
    ///
    /// As [`Self::validate_for_cluster`], except the errors that only
    /// the length causes.
    pub fn validate_layout_for_cluster(
        &self,
        app: &Application,
        n_nodes: usize,
        msg_cluster: &[u16],
        cluster: u16,
    ) -> Result<(), ModelError> {
        let cluster_of = |m: ActivityId| msg_cluster.get(m.index()).copied().unwrap_or(0);
        self.phy.validate()?;
        if self.static_slot_count() > usize::from(MAX_STATIC_SLOTS) {
            return Err(ModelError::ProtocolLimit(format!(
                "{} static slots exceed the maximum of {MAX_STATIC_SLOTS}",
                self.static_slot_count()
            )));
        }
        for &owner in &self.static_slot_owners {
            if owner.index() >= n_nodes {
                return Err(ModelError::UnknownNode(owner));
            }
        }
        if self.static_slot_count() > 0 {
            if self.static_slot_len <= Time::ZERO {
                return Err(ModelError::ProtocolLimit(
                    "static slots exist but gdStaticSlot is zero".into(),
                ));
            }
            if !(self.static_slot_len % self.phy.gd_macrotick).is_zero() {
                return Err(ModelError::ProtocolLimit(format!(
                    "gdStaticSlot {} is not a whole number of macroticks",
                    self.static_slot_len
                )));
            }
            let macroticks = self.static_slot_len / self.phy.gd_macrotick;
            if macroticks > i64::from(MAX_STATIC_SLOT_MACROTICKS) {
                return Err(ModelError::ProtocolLimit(format!(
                    "gdStaticSlot of {macroticks} macroticks exceeds the maximum of \
                     {MAX_STATIC_SLOT_MACROTICKS}"
                )));
            }
        }

        // Static messages: sender owns a slot, frame fits the slot.
        for m in app.messages_of_class(MessageClass::Static) {
            if cluster_of(m) != cluster {
                continue;
            }
            let sender = app.sender_of(m).ok_or_else(|| {
                ModelError::MalformedGraph(format!(
                    "static message '{}' has no sender",
                    app.activity(m).name
                ))
            })?;
            if !self.static_slot_owners.contains(&sender) {
                return Err(ModelError::MissingStaticSlot(sender));
            }
            if self.comm_time(app, m) > self.static_slot_len {
                return Err(ModelError::FrameTooLarge {
                    message: m,
                    context: format!("static slot of length {}", self.static_slot_len),
                });
            }
        }

        // Dynamic messages: assigned, single node per frame id.
        let mut frame_nodes: BTreeMap<FrameId, NodeId> = BTreeMap::new();
        for m in app.messages_of_class(MessageClass::Dynamic) {
            if cluster_of(m) != cluster {
                continue;
            }
            let fid = self.frame_id_of(m).ok_or_else(|| {
                ModelError::FrameAssignment(format!(
                    "dynamic message '{}' has no frame identifier",
                    app.activity(m).name
                ))
            })?;
            let sender = app.sender_of(m).ok_or_else(|| {
                ModelError::MalformedGraph(format!(
                    "dynamic message '{}' has no sender",
                    app.activity(m).name
                ))
            })?;
            if let Some(&other) = frame_nodes.get(&fid) {
                if other != sender {
                    return Err(ModelError::Conflict {
                        frame: fid,
                        detail: format!("assigned to both {other} and {sender}"),
                    });
                }
            } else {
                frame_nodes.insert(fid, sender);
            }
        }
        for &m in self.frame_ids.keys() {
            if app
                .activities()
                .get(m.index())
                .and_then(|a| a.as_message())
                .map(|s| s.class)
                != Some(MessageClass::Dynamic)
            {
                return Err(ModelError::FrameAssignment(format!(
                    "frame identifier assigned to non-dynamic activity {m}"
                )));
            }
            if cluster_of(m) != cluster {
                return Err(ModelError::FrameAssignment(format!(
                    "frame identifier on cluster {cluster} assigned to activity {m} of \
                     cluster {}",
                    cluster_of(m)
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchedPolicy;

    fn app_with_messages() -> (Application, ActivityId, ActivityId) {
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(1000.0), Time::from_us(1000.0));
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
            NodeId::new(1),
            Time::from_us(5.0),
            SchedPolicy::Fps,
            1,
        );
        let t4 = app.add_task(
            g,
            "t4",
            NodeId::new(0),
            Time::from_us(5.0),
            SchedPolicy::Fps,
            1,
        );
        let st = app.add_message(g, "st", 4, MessageClass::Static, 0);
        let dy = app.add_message(g, "dy", 4, MessageClass::Dynamic, 1);
        app.connect(t1, st, t2).expect("edges");
        app.connect(t3, dy, t4).expect("edges");
        app.validate().expect("valid app");
        (app, st, dy)
    }

    fn unit_bus() -> BusConfig {
        let mut bus = BusConfig::new(PhyParams::unit());
        bus.static_slot_len = Time::from_us(8.0);
        bus.static_slot_owners = vec![NodeId::new(0), NodeId::new(1)];
        bus.n_minislots = 10;
        bus
    }

    #[test]
    fn segment_lengths() {
        let bus = unit_bus();
        assert_eq!(bus.st_bus(), Time::from_us(16.0));
        assert_eq!(bus.dyn_bus(), Time::from_us(10.0));
        assert_eq!(bus.gd_cycle(), Time::from_us(26.0));
        assert_eq!(bus.static_slot_count(), 2);
    }

    #[test]
    fn slot_queries() {
        let bus = unit_bus();
        assert_eq!(bus.slot_start(SlotId::new(2)), Time::from_us(8.0));
    }

    #[test]
    fn validate_accepts_consistent_config() {
        let (app, _, dy) = app_with_messages();
        let mut bus = unit_bus();
        bus.frame_ids.insert(dy, FrameId::new(1));
        bus.validate_for(&app, 2).expect("valid config");
    }

    #[test]
    fn missing_frame_id_is_rejected() {
        let (app, _, _) = app_with_messages();
        let bus = unit_bus();
        assert!(matches!(
            bus.validate_for(&app, 2),
            Err(ModelError::FrameAssignment(_))
        ));
    }

    #[test]
    fn cross_node_frame_sharing_is_rejected() {
        let (mut app, _, dy) = app_with_messages();
        // add a second dynamic message from node 0
        let g = app.graphs()[0].members[0];
        let graph = app.activity(g).graph;
        let t1 = app.find("t1").expect("t1");
        let t3 = app.find("t3").expect("t3");
        let dy2 = app.add_message(graph, "dy2", 4, MessageClass::Dynamic, 2);
        app.connect(t1, dy2, t3).expect("edges");
        let mut bus = unit_bus();
        bus.frame_ids.insert(dy, FrameId::new(1)); // sender node 1
        bus.frame_ids.insert(dy2, FrameId::new(1)); // sender node 0
        assert!(matches!(
            bus.validate_for(&app, 2),
            Err(ModelError::Conflict { .. })
        ));
    }

    #[test]
    fn st_frame_must_fit_slot() {
        let (app, _, dy) = app_with_messages();
        let mut bus = unit_bus();
        bus.frame_ids.insert(dy, FrameId::new(1));
        bus.static_slot_len = Time::from_us(1.0); // 4-byte frame needs 2µs
        assert!(matches!(
            bus.validate_for(&app, 2),
            Err(ModelError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn dyn_frame_must_fit_segment() {
        let (app, _, dy) = app_with_messages();
        let mut bus = unit_bus();
        bus.frame_ids.insert(dy, FrameId::new(10));
        bus.n_minislots = 5; // frame id 10 can never start
        assert!(matches!(
            bus.validate_for(&app, 2),
            Err(ModelError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn protocol_limits_enforced() {
        let (app, _, dy) = app_with_messages();
        let mut bus = unit_bus();
        bus.frame_ids.insert(dy, FrameId::new(1));
        bus.n_minislots = MAX_MINISLOTS + 1;
        assert!(matches!(
            bus.validate_for(&app, 2),
            Err(ModelError::ProtocolLimit(_))
        ));

        let mut bus = unit_bus();
        bus.frame_ids.insert(dy, FrameId::new(1));
        bus.static_slot_len = Time::from_us(8000.0); // cycle over 16ms
        assert!(bus.validate_for(&app, 2).is_err());
    }

    #[test]
    fn missing_static_slot_detected() {
        let (app, _, dy) = app_with_messages();
        let mut bus = unit_bus();
        bus.frame_ids.insert(dy, FrameId::new(1));
        bus.static_slot_owners = vec![NodeId::new(1)]; // node 0 sends 'st'
        assert!(matches!(
            bus.validate_for(&app, 2),
            Err(ModelError::MissingStaticSlot(n)) if n == NodeId::new(0)
        ));
    }

    #[test]
    fn min_minislots_covers_position_and_length() {
        let (app, _, dy) = app_with_messages();
        let mut bus = unit_bus();
        bus.frame_ids.insert(dy, FrameId::new(3));
        let lm = bus.minislots_of(&app, dy);
        assert_eq!(bus.min_minislots(&app), 2 + lm);
    }

    #[test]
    fn dyn_lengths_are_the_valid_lengths() {
        let (app, _, dy) = app_with_messages();
        let lm = unit_bus().minislots_of(&app, dy);
        // 2, 20 and 25 static slots of 661 µs leave room for every
        // length, for 2,780 minislots, and for none.
        for (slots, end) in [(2, Some(MAX_MINISLOTS)), (20, Some(2780)), (25, None)] {
            let mut bus = unit_bus();
            bus.frame_ids.insert(dy, FrameId::new(3));
            bus.static_slot_len = Time::from_us(661.0);
            bus.static_slot_owners = (0..slots).map(|i| NodeId::new(i % 2)).collect();
            let lengths = bus.dyn_lengths(&app);
            assert_eq!(lengths, end.map(|end| 2 + lm..=end));
            assert!(bus.validate_layout_for_cluster(&app, 2, &[], 0).is_ok());
            for n in 0..=MAX_MINISLOTS + 1 {
                bus.n_minislots = n;
                let valid = lengths.as_ref().is_some_and(|l| l.contains(&n));
                assert_eq!(bus.validate_for(&app, 2).is_ok(), valid, "{n}");
            }
        }
        // A static segment of exactly 16 ms leaves room for no minislot,
        // which suits a bus without DYN frames and no other.
        let mut bus = unit_bus();
        bus.static_slot_len = Time::from_us(640.0);
        bus.static_slot_owners = (0..25).map(|i| NodeId::new(i % 2)).collect();
        assert_eq!(bus.dyn_lengths(&app), Some(0..=0));
        bus.frame_ids.insert(dy, FrameId::new(1));
        assert_eq!(bus.dyn_lengths(&app), None);
    }

    #[test]
    fn dyn_slot_count_is_max_frame_id() {
        let (app, _, dy) = app_with_messages();
        let mut bus = unit_bus();
        assert_eq!(bus.dyn_slot_count(), 0);
        bus.frame_ids.insert(dy, FrameId::new(5));
        assert_eq!(bus.dyn_slot_count(), 5);
        let _ = app;
    }
}
