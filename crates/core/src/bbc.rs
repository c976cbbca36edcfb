//! The Basic Bus Configuration (BBC) algorithm — Fig. 5 of the paper.
//!
//! BBC derives a configuration from the minimal bandwidth requirements:
//! unique frame identifiers ordered by criticality, one static slot per
//! static-sender node sized for the largest ST frame, and a sweep of the
//! dynamic-segment length keeping the best cost.
//!
//! That skeleton is the starting point of every optimiser: OBC (Fig. 6)
//! and the SA reference grow it, and the multi-cluster optimiser builds
//! one per cluster. [`skeleton`] is the one place it is built.

use crate::evaluator::Evaluator;
use crate::frame_assign::criticality_frame_ids;
use crate::params::{OptParams, OptResult};
use flexray_model::{
    ActivityId, Application, BusConfig, MessageClass, NodeId, PhyParams, Platform, Time,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Builds the BBC bus skeleton (frame ids, minimal static segment) for a
/// platform/application pair; the dynamic-segment length is left at
/// zero. This is cluster 0 of an unpartitioned network, whose empty
/// cluster map homes every message on cluster 0.
#[must_use]
pub fn bbc_skeleton(platform: &Platform, app: &Application, phy: PhyParams) -> BusConfig {
    skeleton(platform, app, phy, &[], 0)
}

/// The BBC skeleton of one cluster of a network, whose `msg_cluster`
/// map homes each message on a cluster (an empty map homes all of them
/// on cluster 0). The dynamic-segment length is left at zero.
pub(crate) fn skeleton(
    platform: &Platform,
    app: &Application,
    phy: PhyParams,
    msg_cluster: &[u16],
    cluster: u16,
) -> BusConfig {
    let homed = |m: ActivityId| msg_cluster.get(m.index()).copied().unwrap_or(0) == cluster;
    let mut bus = BusConfig::new(phy);
    // Unique identifiers, most critical first (Fig. 5 line 1).
    bus.frame_ids = criticality_frame_ids(platform, app, &bus, homed);
    // One slot per static-sender node, round robin (Fig. 5 lines 2-4).
    bus.static_slot_owners = st_quotas(app, homed)
        .into_iter()
        .map(|(node, _)| node)
        .collect();
    // Slot sized for the largest static frame (Fig. 5 line 3).
    bus.static_slot_len = app
        .messages_of_class(MessageClass::Static)
        .filter(|&m| homed(m))
        .map(|m| bus.comm_time(app, m))
        .max()
        .map_or(Time::ZERO, |c| {
            c.round_up_to(phy.gd_macrotick).max(phy.gd_macrotick)
        });
    bus
}

/// The static senders in node order, each with its number of ST
/// messages that `homed` keeps: the slot quotas of Fig. 6 line 5.
pub(crate) fn st_quotas(
    app: &Application,
    homed: impl Fn(ActivityId) -> bool,
) -> Vec<(NodeId, usize)> {
    let mut counts: BTreeMap<NodeId, usize> = BTreeMap::new();
    for m in app.messages_of_class(MessageClass::Static) {
        if let Some(node) = app.sender_of(m).filter(|_| homed(m)) {
            *counts.entry(node).or_default() += 1;
        }
    }
    counts.into_iter().collect()
}

/// Runs the BBC algorithm.
///
/// The dynamic-segment sweep covers `[DYNbus_min, DYNbus_max]` with the
/// configured step (Fig. 5 lines 5–12); the best-cost configuration is
/// returned whether or not it is schedulable.
#[must_use]
pub fn bbc(
    platform: &Platform,
    app: &Application,
    phy: PhyParams,
    params: &OptParams,
) -> OptResult {
    let start = Instant::now();
    let mut ev = Evaluator::with_threads(
        platform.clone(),
        app.clone(),
        params.analysis,
        params.eval_threads,
    );
    let template = bbc_skeleton(platform, app, phy);

    let mut best_bus = template.clone();
    let best_cost;
    // Fig. 5 lines 5-12: sweep the dynamic-segment length exhaustively
    // over the same grid the OBC searches use (gdCycle < 16 ms is
    // enforced by validation inside the evaluator, line 7).
    match crate::dyn_search::determine_dyn_length(
        &mut ev,
        &template,
        params,
        crate::dyn_search::DynSearch::Exhaustive,
    ) {
        Some(choice) => {
            best_cost = choice.cost;
            best_bus.n_minislots = choice.n_minislots;
        }
        None => {
            // No dynamic messages: evaluate the static-only configuration.
            best_cost = ev.evaluate_cost(&template);
        }
    }

    OptResult {
        bus: best_bus,
        cost: best_cost,
        evaluations: ev.evaluations(),
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexray_model::*;

    fn two_node_mixed() -> (Platform, Application) {
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(4000.0), Time::from_us(3000.0));
        let a = app.add_task(
            g,
            "a",
            NodeId::new(0),
            Time::from_us(20.0),
            SchedPolicy::Scs,
            0,
        );
        let b = app.add_task(
            g,
            "b",
            NodeId::new(1),
            Time::from_us(20.0),
            SchedPolicy::Scs,
            0,
        );
        let st = app.add_message(g, "st", 8, MessageClass::Static, 0);
        app.connect(a, st, b).expect("edges");
        let c = app.add_task(
            g,
            "c",
            NodeId::new(1),
            Time::from_us(10.0),
            SchedPolicy::Fps,
            5,
        );
        let d = app.add_task(
            g,
            "d",
            NodeId::new(0),
            Time::from_us(10.0),
            SchedPolicy::Fps,
            5,
        );
        let dy = app.add_message(g, "dy", 8, MessageClass::Dynamic, 1);
        app.connect(c, dy, d).expect("edges");
        (Platform::with_nodes(2), app)
    }

    #[test]
    fn skeleton_has_one_slot_per_st_sender() {
        let (p, a) = two_node_mixed();
        let bus = bbc_skeleton(&p, &a, PhyParams::bmw_like());
        // only node 0 sends static messages
        assert_eq!(bus.static_slot_owners, vec![NodeId::new(0)]);
        assert_eq!(bus.frame_ids.len(), 1);
        assert!(bus.static_slot_len >= bus.phy.frame_duration(8));
        assert!((bus.static_slot_len % bus.phy.gd_macrotick).is_zero());
    }

    #[test]
    fn skeleton_of_a_cluster_keeps_only_its_own_traffic() {
        let (p, a) = two_node_mixed();
        let phy = PhyParams::bmw_like();
        // every message on cluster 0: cluster 1 carries none
        let map = vec![0; a.ids().count()];
        assert_eq!(skeleton(&p, &a, phy, &map, 0), bbc_skeleton(&p, &a, phy));
        let empty = skeleton(&p, &a, phy, &map, 1);
        assert!(empty.frame_ids.is_empty());
        assert!(empty.static_slot_owners.is_empty());
        assert_eq!(empty.static_slot_len, Time::ZERO);
    }

    #[test]
    fn bbc_finds_schedulable_config_on_easy_system() {
        let (p, a) = two_node_mixed();
        let result = bbc(&p, &a, PhyParams::bmw_like(), &OptParams::default());
        assert!(result.is_schedulable(), "cost {:?}", result.cost);
        assert!(result.evaluations > 0);
        assert!(result.bus.n_minislots > 0);
    }

    #[test]
    fn bbc_config_validates() {
        let (p, a) = two_node_mixed();
        let result = bbc(&p, &a, PhyParams::bmw_like(), &OptParams::default());
        result
            .bus
            .validate_for(&a, p.len())
            .expect("valid best bus");
    }

    #[test]
    fn bbc_without_dynamic_messages() {
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(1000.0), Time::from_us(900.0));
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
            Time::from_us(10.0),
            SchedPolicy::Scs,
            0,
        );
        let st = app.add_message(g, "st", 8, MessageClass::Static, 0);
        app.connect(a, st, b).expect("edges");
        let p = Platform::with_nodes(2);
        let result = bbc(&p, &app, PhyParams::bmw_like(), &OptParams::default());
        assert!(result.is_schedulable(), "cost {:?}", result.cost);
        assert_eq!(result.bus.n_minislots, 0);
    }
}
