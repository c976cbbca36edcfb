//! The Optimised Bus Configuration heuristic (OBC) — Fig. 6 of the
//! paper.
//!
//! OBC explores static-segment alternatives between the BBC minimum and
//! the protocol maxima: the number of static slots (nodes get a quota
//! proportional to their static-message count) and the slot length (in
//! `20 · gdBit` payload increments). For each static layout the
//! dynamic-segment length is chosen by [`determine_dyn_length`] — either
//! exhaustively (OBCEE) or with the curve-fitting heuristic (OBCCF).
//! The search stops at the first schedulable configuration.

use crate::bbc::{bbc_skeleton, st_quotas};
use crate::dyn_search::{determine_dyn_length, DynSearch};
use crate::evaluator::Evaluator;
use crate::params::{OptParams, OptResult};
use flexray_analysis::Cost;
use flexray_model::{Application, NodeId, PhyParams, Platform, Time, MAX_STATIC_SLOTS};
use std::time::Instant;

/// Runs OBC with the given dynamic-segment search strategy.
///
/// `DynSearch::CurveFit` reproduces OBCCF, `DynSearch::Exhaustive`
/// reproduces OBCEE.
#[must_use]
pub fn obc(
    platform: &Platform,
    app: &Application,
    phy: PhyParams,
    params: &OptParams,
    strategy: DynSearch,
) -> OptResult {
    let start = Instant::now();
    let mut ev = Evaluator::with_threads(
        platform.clone(),
        app.clone(),
        params.analysis,
        params.eval_threads,
    );
    let skeleton = bbc_skeleton(platform, app, phy);

    // Static-message counts per node drive the slot quotas.
    let st_counts = st_quotas(app, |_| true);

    let min_slots = st_counts.len();
    let max_slots = (min_slots + usize::from(params.max_extra_slots))
        .min(usize::from(MAX_STATIC_SLOTS))
        .max(min_slots);
    let slot_len_min = skeleton.static_slot_len.max(phy.gd_macrotick);
    let slot_len_step = slot_len_step(phy);
    let slot_len_max = params.max_slot_len(&phy);

    let mut best_bus = skeleton.clone();
    let mut best_cost = Cost::infeasible();

    // Degenerate case: no static messages at all — single skeleton layout.
    let slot_counts: Vec<usize> = if st_counts.is_empty() {
        vec![0]
    } else {
        (min_slots..=max_slots).collect()
    };

    'outer: for n_slots in slot_counts {
        let mut slot_len = slot_len_min;
        let mut len_steps = 0usize;
        loop {
            let mut bus = skeleton.clone();
            bus.static_slot_len = if n_slots == 0 { Time::ZERO } else { slot_len };
            bus.static_slot_owners = assign_slots_round_robin(n_slots, &st_counts);

            match determine_dyn_length(&mut ev, &bus, params, strategy) {
                Some(choice) => {
                    bus.n_minislots = choice.n_minislots;
                    if choice.cost.better_than(&best_cost) {
                        best_cost = choice.cost;
                        best_bus = bus.clone();
                    }
                    // Fig. 6 line 7: stop at the first feasible DYNbus
                    // with Cost <= 0.
                    if choice.cost.is_schedulable() {
                        break 'outer;
                    }
                }
                None => {
                    // No dynamic messages: evaluate the static layout.
                    let cost = ev.evaluate_cost(&bus);
                    if cost.better_than(&best_cost) {
                        best_cost = cost;
                        best_bus = bus.clone();
                    }
                    if cost.is_schedulable() {
                        break 'outer;
                    }
                }
            }

            len_steps += 1;
            slot_len += slot_len_step;
            if slot_len > slot_len_max || len_steps >= params.max_slot_len_steps || n_slots == 0 {
                break;
            }
        }
    }

    OptResult {
        bus: best_bus,
        cost: best_cost,
        evaluations: ev.evaluations(),
        elapsed: start.elapsed(),
    }
}

/// The static-slot length step of the search: `20 · gdBit` of payload
/// (Fig. 6 line 4), rounded up to whole macroticks.
pub(crate) fn slot_len_step(phy: PhyParams) -> Time {
    phy.static_slot_step()
        .round_up_to(phy.gd_macrotick)
        .max(phy.gd_macrotick)
}

/// Distributes `n_slots` static slots over the sender nodes with quotas
/// proportional to their static-message counts (each sender gets at
/// least one), interleaved round robin (Fig. 6 line 5).
#[must_use]
pub fn assign_slots_round_robin(n_slots: usize, st_counts: &[(NodeId, usize)]) -> Vec<NodeId> {
    if st_counts.is_empty() || n_slots == 0 {
        return Vec::new();
    }
    let total: usize = st_counts.iter().map(|&(_, c)| c).sum();
    // Largest-remainder quotas with a floor of one slot per sender.
    let mut quotas: Vec<usize> = st_counts
        .iter()
        .map(|&(_, c)| ((n_slots * c) / total).max(1))
        .collect();
    let mut assigned: usize = quotas.iter().sum();
    // Trim or top up to exactly n_slots, preferring high-count nodes.
    let mut order: Vec<usize> = (0..st_counts.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(st_counts[i].1));
    let mut cursor = 0;
    while assigned < n_slots {
        quotas[order[cursor % order.len()]] += 1;
        assigned += 1;
        cursor += 1;
    }
    while assigned > n_slots {
        if let Some(&i) = order.iter().rev().find(|&&i| quotas[i] > 1) {
            quotas[i] -= 1;
            assigned -= 1;
        } else {
            break; // cannot go below one slot per sender
        }
    }
    // Interleave: round robin over nodes with remaining quota.
    let mut owners = Vec::with_capacity(n_slots);
    let mut remaining = quotas;
    while owners.len() < assigned {
        for (i, &(node, _)) in st_counts.iter().enumerate() {
            if remaining[i] > 0 {
                owners.push(node);
                remaining[i] -= 1;
            }
        }
    }
    owners
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexray_model::{MessageClass, SchedPolicy};

    #[test]
    fn round_robin_single_slot_each() {
        let counts = vec![
            (NodeId::new(0), 1),
            (NodeId::new(1), 1),
            (NodeId::new(2), 1),
        ];
        assert_eq!(
            assign_slots_round_robin(3, &counts),
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]
        );
    }

    #[test]
    fn quota_follows_message_counts() {
        // node 0 sends 3 messages, node 1 sends 1: of 4 slots, node 0
        // gets 3.
        let counts = vec![(NodeId::new(0), 3), (NodeId::new(1), 1)];
        let owners = assign_slots_round_robin(4, &counts);
        assert_eq!(owners.len(), 4);
        let n0 = owners.iter().filter(|&&n| n == NodeId::new(0)).count();
        assert_eq!(n0, 3);
        // interleaved: the first two slots belong to different nodes
        assert_ne!(owners[0], owners[1]);
    }

    #[test]
    fn every_sender_keeps_a_slot() {
        let counts = vec![(NodeId::new(0), 100), (NodeId::new(1), 1)];
        let owners = assign_slots_round_robin(2, &counts);
        assert!(owners.contains(&NodeId::new(0)));
        assert!(owners.contains(&NodeId::new(1)));
    }

    #[test]
    fn empty_inputs() {
        assert!(assign_slots_round_robin(0, &[(NodeId::new(0), 1)]).is_empty());
        assert!(assign_slots_round_robin(3, &[]).is_empty());
    }

    fn contended_system() -> (Platform, Application) {
        // Node 0 sends three static messages through one slot in BBC:
        // extra slots help.
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(2000.0), Time::from_us(400.0));
        let a = app.add_task(
            g,
            "a",
            NodeId::new(0),
            Time::from_us(10.0),
            SchedPolicy::Scs,
            0,
        );
        for i in 0..3 {
            let r = app.add_task(
                g,
                &format!("r{i}"),
                NodeId::new(1),
                Time::from_us(10.0),
                SchedPolicy::Scs,
                0,
            );
            let m = app.add_message(g, &format!("m{i}"), 16, MessageClass::Static, 0);
            app.connect(a, m, r).expect("edges");
        }
        let c = app.add_task(
            g,
            "c",
            NodeId::new(1),
            Time::from_us(5.0),
            SchedPolicy::Fps,
            5,
        );
        let d = app.add_task(
            g,
            "d",
            NodeId::new(0),
            Time::from_us(5.0),
            SchedPolicy::Fps,
            5,
        );
        let dy = app.add_message(g, "dy", 8, MessageClass::Dynamic, 1);
        app.connect(c, dy, d).expect("edges");
        (Platform::with_nodes(2), app)
    }

    #[test]
    fn obc_curve_fit_finds_schedulable_config() {
        let (p, a) = contended_system();
        let result = obc(
            &p,
            &a,
            PhyParams::bmw_like(),
            &OptParams::default(),
            DynSearch::CurveFit,
        );
        assert!(result.is_schedulable(), "cost {:?}", result.cost);
        result.bus.validate_for(&a, p.len()).expect("valid bus");
    }

    #[test]
    fn obc_exhaustive_finds_schedulable_config() {
        let (p, a) = contended_system();
        let result = obc(
            &p,
            &a,
            PhyParams::bmw_like(),
            &OptParams::default(),
            DynSearch::Exhaustive,
        );
        assert!(result.is_schedulable(), "cost {:?}", result.cost);
    }

    #[test]
    fn obc_never_worse_than_bbc() {
        let (p, a) = contended_system();
        let params = OptParams::default();
        let phy = PhyParams::bmw_like();
        let bbc_result = crate::bbc(&p, &a, phy, &params);
        let obc_result = obc(&p, &a, phy, &params, DynSearch::Exhaustive);
        assert!(
            !bbc_result.cost.better_than(&obc_result.cost),
            "bbc {:?} obc {:?}",
            bbc_result.cost,
            obc_result.cost
        );
    }
}
