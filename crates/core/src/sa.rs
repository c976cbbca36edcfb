//! Simulated Annealing baseline for design-space exploration.
//!
//! The paper uses long SA runs as a close-to-optimal reference when
//! evaluating BBC/OBC (Section 7). That holds on schedulable
//! applications only: on an application nobody schedules, SA can end at
//! its BBC starting cost while OBC finds less overshoot. The move set
//! matches the paper's:
//! number and size of static slots, size of the dynamic segment,
//! assignment of slots to nodes, and assignment of frame identifiers to
//! messages.

use crate::bbc::st_quotas;
use crate::evaluator::Evaluator;
use crate::obc::{assign_slots_round_robin, slot_len_step};
use crate::params::{OptParams, OptResult};
use flexray_analysis::Cost;
use flexray_model::{
    ActivityId, Application, BusConfig, FrameId, MessageClass, NodeId, PhyParams, Platform, Time,
    MAX_STATIC_SLOTS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Simulated-annealing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaParams {
    /// Total number of evaluated moves (the evaluation budget).
    pub iterations: usize,
    /// RNG seed (runs are deterministic per seed).
    pub seed: u64,
    /// Neighbourhood size `k`: moves proposed (from the same current
    /// state) per temperature step and evaluated as one batch — the
    /// batch the parallel `Evaluator` fans out. All `k` proposals are
    /// drawn from the RNG first and acceptance is applied in proposal
    /// order afterwards, so the RNG stream — and with it the whole
    /// trajectory — is a pure function of the seed, independent of the
    /// evaluator thread count. `1` (the default) reproduces the classic
    /// one-move-per-step SA exactly.
    pub neighbourhood: usize,
}

impl Default for SaParams {
    fn default() -> Self {
        SaParams {
            iterations: 1500,
            seed: 0xF1E0_5EED,
            neighbourhood: 1,
        }
    }
}

/// Initial temperature, in cost units (µs of laxity/overshoot).
const INITIAL_TEMP: f64 = 5_000.0;

/// Geometric cooling factor per evaluated move.
const COOLING: f64 = 0.995;

/// Runs the SA baseline from the BBC skeleton.
#[must_use]
pub fn simulated_annealing(
    platform: &Platform,
    app: &Application,
    phy: PhyParams,
    params: &OptParams,
    sa: &SaParams,
) -> OptResult {
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(sa.seed);
    let mut ev = Evaluator::with_threads(
        platform.clone(),
        app.clone(),
        params.analysis,
        params.eval_threads,
    );

    // Start state: the best BBC configuration — SA then explores the
    // full move set (slot count/size/assignment, frame identifiers, DYN
    // length) from a sensible point, as a long-running reference should.
    let mut state = crate::bbc::bbc(platform, app, phy, params).bus;
    if state.n_minislots == 0 {
        if let Some((min, max)) = ev.dyn_bounds(&state) {
            state.n_minislots = (min + (max - min) / 16).max(min);
        }
    }
    let mut state_cost = ev.evaluate_cost(&state);
    let mut best = state.clone();
    let mut best_cost = state_cost;

    let moves = Moves {
        st_counts: st_quotas(app, |_| true),
        dyn_msgs: app.messages_of_class(MessageClass::Dynamic).collect(),
        dyn_step: params.dyn_step,
        slot_step: slot_len_step(phy),
        // The BBC start keeps the skeleton's minimal slot length.
        slot_min: state.static_slot_len.max(phy.gd_macrotick),
        slot_max: params.max_slot_len(&phy),
    };

    // Neighbourhood stepping: per temperature step, k moves are
    // proposed from the *same* current state (all RNG draws happen
    // up front, in proposal order), the batch is evaluated — in
    // parallel when the evaluator has workers; evaluation consumes no
    // randomness — and Metropolis acceptance is applied in proposal
    // order, cooling once per evaluated move. With k = 1 this is
    // exactly the classic serial SA loop, draw for draw.
    let k = sa.neighbourhood.max(1);
    let mut temp = INITIAL_TEMP;
    let mut remaining = sa.iterations;
    let mut candidates: Vec<BusConfig> = Vec::with_capacity(k);
    while remaining > 0 {
        let batch = k.min(remaining);
        remaining -= batch;
        candidates.clear();
        for _ in 0..batch {
            candidates.push(propose(&state, &moves, &ev, &mut rng));
        }
        let costs = ev.evaluate_batch(&candidates);
        for (candidate, cand_cost) in candidates.drain(..).zip(costs) {
            let delta = scalar(&cand_cost) - scalar(&state_cost);
            let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temp).exp();
            if accept {
                state = candidate;
                state_cost = cand_cost;
                if state_cost.better_than(&best_cost) {
                    best = state.clone();
                    best_cost = state_cost;
                }
            }
            temp *= COOLING;
        }
    }

    OptResult {
        bus: best,
        cost: best_cost,
        evaluations: ev.evaluations(),
        elapsed: start.elapsed(),
    }
}

/// Scalar cost for the Metropolis criterion: schedulable configurations
/// (negative laxity) always beat unschedulable ones (positive
/// overshoot); infeasible proposals get a large finite penalty so the
/// arithmetic stays sane.
fn scalar(cost: &Cost) -> f64 {
    if cost.value().is_finite() {
        cost.value()
    } else {
        1e15
    }
}

/// The fixed inputs of the move set, computed once per run.
struct Moves {
    /// Static senders with their ST-message counts (the slot quotas).
    st_counts: Vec<(NodeId, usize)>,
    /// The dynamic messages, whose frame identifiers get swapped.
    dyn_msgs: Vec<ActivityId>,
    /// Local step of a dynamic-segment resize, in minislots.
    dyn_step: u32,
    /// Step and bounds of a static-slot resize.
    slot_step: Time,
    slot_min: Time,
    slot_max: Time,
}

/// One random neighbourhood move.
fn propose(state: &BusConfig, moves: &Moves, ev: &Evaluator, rng: &mut StdRng) -> BusConfig {
    let st_counts = &moves.st_counts;
    let dyn_msgs = &moves.dyn_msgs;
    let mut bus = state.clone();
    let n_moves = 6;
    match rng.gen_range(0..n_moves) {
        // Resize the dynamic segment: usually a local step, sometimes a
        // global jump so huge segments remain reachable in bounded runs.
        0 => {
            if let Some((min, max)) = ev.dyn_bounds(&bus) {
                if rng.gen_bool(0.25) {
                    bus.n_minislots = rng.gen_range(min..=max);
                } else {
                    let span = i64::from(moves.dyn_step.max(1)) * rng.gen_range(1..=8i64);
                    let delta = if rng.gen_bool(0.5) { span } else { -span };
                    let n = i64::from(bus.n_minislots) + delta;
                    bus.n_minislots =
                        u32::try_from(n.clamp(i64::from(min), i64::from(max))).expect("clamped");
                }
            }
        }
        // Resize static slots.
        1 => {
            if !bus.static_slot_owners.is_empty() {
                let next = if rng.gen_bool(0.5) {
                    bus.static_slot_len + moves.slot_step
                } else {
                    bus.static_slot_len - moves.slot_step
                };
                bus.static_slot_len = next.clamp(moves.slot_min, moves.slot_max);
            }
        }
        // Add a static slot.
        2 => {
            if !st_counts.is_empty() && bus.static_slot_owners.len() < usize::from(MAX_STATIC_SLOTS)
            {
                bus.static_slot_owners =
                    assign_slots_round_robin(bus.static_slot_owners.len() + 1, st_counts);
            }
        }
        // Remove a static slot (keeping one per sender).
        3 => {
            if bus.static_slot_owners.len() > st_counts.len() {
                bus.static_slot_owners =
                    assign_slots_round_robin(bus.static_slot_owners.len() - 1, st_counts);
            }
        }
        // Reassign a random slot to a random sender node.
        4 => {
            if !bus.static_slot_owners.is_empty() && !st_counts.is_empty() {
                let i = rng.gen_range(0..bus.static_slot_owners.len());
                let (node, _) = st_counts[rng.gen_range(0..st_counts.len())];
                let old = bus.static_slot_owners[i];
                bus.static_slot_owners[i] = node;
                // keep every sender represented
                let ok = st_counts
                    .iter()
                    .all(|&(n, _)| bus.static_slot_owners.contains(&n));
                if !ok {
                    bus.static_slot_owners[i] = old;
                }
            }
        }
        // Swap the frame identifiers of two dynamic messages.
        _ => {
            if dyn_msgs.len() >= 2 {
                let a = dyn_msgs[rng.gen_range(0..dyn_msgs.len())];
                let b = dyn_msgs[rng.gen_range(0..dyn_msgs.len())];
                if a != b {
                    let fa = bus.frame_ids.get(&a).copied();
                    let fb = bus.frame_ids.get(&b).copied();
                    if let (Some(fa), Some(fb)) = (fa, fb) {
                        bus.frame_ids.insert(a, fb);
                        bus.frame_ids.insert(b, fa);
                    }
                }
            }
        }
    }
    // Keep the dynamic segment feasible for the (possibly new) frame
    // assignment.
    let needed = bus.min_minislots(ev.app());
    if bus.n_minislots < needed {
        bus.n_minislots = needed;
    }
    bus
}

/// Frame-identifier helper used by tests and examples: the identity
/// permutation over the dynamic messages in id order.
#[must_use]
pub fn identity_frame_ids(app: &Application) -> Vec<(ActivityId, FrameId)> {
    app.messages_of_class(MessageClass::Dynamic)
        .enumerate()
        .map(|(i, m)| (m, FrameId::new(u16::try_from(i + 1).expect("small"))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexray_model::{SchedPolicy, Time};

    fn mixed_system() -> (Platform, Application) {
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(4000.0), Time::from_us(1500.0));
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
        for i in 0..3 {
            let c = app.add_task(
                g,
                &format!("c{i}"),
                NodeId::new(1),
                Time::from_us(10.0),
                SchedPolicy::Fps,
                5 + i,
            );
            let d = app.add_task(
                g,
                &format!("d{i}"),
                NodeId::new(0),
                Time::from_us(10.0),
                SchedPolicy::Fps,
                5 + i,
            );
            let dy = app.add_message(g, &format!("dy{i}"), 8, MessageClass::Dynamic, 1 + i);
            app.connect(c, dy, d).expect("edges");
        }
        (Platform::with_nodes(2), app)
    }

    fn fast_sa() -> SaParams {
        SaParams {
            iterations: 60,
            ..SaParams::default()
        }
    }

    #[test]
    fn sa_finds_schedulable_config() {
        let (p, a) = mixed_system();
        let result = simulated_annealing(
            &p,
            &a,
            PhyParams::bmw_like(),
            &OptParams::default(),
            &fast_sa(),
        );
        assert!(result.is_schedulable(), "cost {:?}", result.cost);
        result.bus.validate_for(&a, p.len()).expect("valid bus");
    }

    #[test]
    fn sa_is_deterministic_per_seed() {
        let (p, a) = mixed_system();
        let params = OptParams::default();
        let phy = PhyParams::bmw_like();
        let r1 = simulated_annealing(&p, &a, phy, &params, &fast_sa());
        let r2 = simulated_annealing(&p, &a, phy, &params, &fast_sa());
        assert_eq!(r1.bus, r2.bus);
        let different_seed = SaParams {
            seed: 1,
            ..fast_sa()
        };
        let _r3 = simulated_annealing(&p, &a, phy, &params, &different_seed);
    }

    #[test]
    fn sa_result_at_least_as_good_as_start() {
        let (p, a) = mixed_system();
        let params = OptParams::default();
        let phy = PhyParams::bmw_like();
        let sa_result = simulated_annealing(&p, &a, phy, &params, &fast_sa());
        // evaluate the raw BBC skeleton with the same starting segment
        let mut ev = Evaluator::new(p.clone(), a.clone(), params.analysis);
        let mut start_bus = crate::bbc::bbc_skeleton(&p, &a, phy);
        if let Some((min, max)) = ev.dyn_bounds(&start_bus) {
            start_bus.n_minislots = (min + (max - min) / 16).max(min);
        }
        let (start_cost, _) = ev.evaluate(&start_bus);
        assert!(
            !start_cost.better_than(&sa_result.cost),
            "start {start_cost:?} vs sa {:?}",
            sa_result.cost
        );
    }

    #[test]
    fn sa_neighbourhoods_are_deterministic_across_thread_counts() {
        // With k > 1 the trajectory is a pure function of the seed:
        // evaluation consumes no randomness, so the evaluator thread
        // count must not change the result bit for bit.
        let (p, a) = mixed_system();
        let phy = PhyParams::bmw_like();
        let sa = SaParams {
            iterations: 40,
            neighbourhood: 4,
            ..SaParams::default()
        };
        let baseline = simulated_annealing(&p, &a, phy, &OptParams::default(), &sa);
        for threads in [2usize, 4] {
            let params = OptParams {
                eval_threads: threads,
                ..OptParams::default()
            };
            let r = simulated_annealing(&p, &a, phy, &params, &sa);
            assert_eq!(r.bus, baseline.bus, "threads {threads}");
            assert_eq!(r.cost, baseline.cost, "threads {threads}");
            assert_eq!(r.evaluations, baseline.evaluations, "threads {threads}");
        }
    }

    #[test]
    fn sa_neighbourhood_one_parallel_matches_serial() {
        // k = 1 is the classic SA loop; a parallel evaluator must not
        // perturb it (single-candidate batches stay on the primary
        // session).
        let (p, a) = mixed_system();
        let phy = PhyParams::bmw_like();
        let serial = simulated_annealing(&p, &a, phy, &OptParams::default(), &fast_sa());
        let params = OptParams {
            eval_threads: 4,
            ..OptParams::default()
        };
        let par = simulated_annealing(&p, &a, phy, &params, &fast_sa());
        assert_eq!(par.bus, serial.bus);
        assert_eq!(par.cost, serial.cost);
        assert_eq!(par.evaluations, serial.evaluations);
    }

    #[test]
    fn identity_frame_ids_are_dense() {
        let (_, a) = mixed_system();
        let ids = identity_frame_ids(&a);
        assert_eq!(ids.len(), 3);
        let numbers: Vec<u16> = ids.iter().map(|(_, f)| f.number()).collect();
        assert_eq!(numbers, vec![1, 2, 3]);
    }
}
