//! Dynamic-segment length selection (Fig. 8 / Section 6.2.1).
//!
//! Given a fixed static-segment layout and frame-identifier assignment,
//! find the dynamic-segment length (in minislots) that minimises the
//! cost function. Two strategies, matching OBCEE and OBCCF of the
//! evaluation:
//!
//! * [`DynSearch::Exhaustive`] — analyse every candidate length;
//! * [`DynSearch::CurveFit`] — analyse a handful of lengths, interpolate
//!   all response times with Newton polynomials, and refine around the
//!   interpolated optimum (the paper's curve-fitting heuristic,
//!   5 initial points, `N_max = 10`).

use crate::evaluator::Evaluator;
use crate::newton::NewtonPoly;
use crate::params::OptParams;
use flexray_analysis::Cost;
use flexray_model::{Application, BusConfig, Time, MAX_CYCLE, MAX_MINISLOTS};
use std::collections::BTreeMap;

/// Strategy for choosing the dynamic-segment length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynSearch {
    /// Evaluate every candidate length (OBCEE).
    Exhaustive,
    /// Curve-fitting over a few evaluated points (OBCCF).
    CurveFit,
}

/// Best dynamic-segment length found and its exactly-analysed cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynChoice {
    /// Dynamic-segment length in minislots.
    pub n_minislots: u32,
    /// Cost from a full (non-interpolated) analysis at that length.
    pub cost: Cost,
}

/// Runs the selected search. Returns `None` when the system has no
/// dynamic messages or no length fits the 16 ms cycle budget; in the
/// former case the caller evaluates the static-only configuration
/// directly.
#[must_use]
pub fn determine_dyn_length(
    ev: &mut Evaluator,
    bus_template: &BusConfig,
    params: &OptParams,
    strategy: DynSearch,
) -> Option<DynChoice> {
    let (min, max) = ev.dyn_bounds(bus_template)?;
    let candidates = dyn_sweep_grid(min, max, params);
    match strategy {
        DynSearch::Exhaustive => exhaustive(ev, bus_template, &candidates),
        DynSearch::CurveFit => {
            if candidates.len() <= params.cf_initial_points + 1 {
                exhaustive(ev, bus_template, &candidates)
            } else {
                curve_fit(ev, bus_template, params, &candidates)
            }
        }
    }
}

/// Bounds of the dynamic-segment sweep in minislots for a given
/// frame-identifier assignment and static-segment layout:
/// `[DYNbus_min, DYNbus_max]` of Fig. 5 line 5. Returns `None` when
/// no dynamic segment is needed (no dynamic messages) or no length
/// fits the 16 ms cycle budget left by the static segment.
pub(crate) fn dyn_bounds(app: &Application, bus: &BusConfig) -> Option<(u32, u32)> {
    if bus.frame_ids.is_empty() {
        return None;
    }
    let min = bus.min_minislots(app).max(1);
    let budget = MAX_CYCLE - bus.st_bus();
    if budget <= Time::ZERO {
        return None;
    }
    let fit = u32::try_from(budget / bus.phy.gd_minislot).unwrap_or(u32::MAX);
    let max = fit.min(MAX_MINISLOTS);
    (min <= max).then_some((min, max))
}

/// The candidate grid [`determine_dyn_length`] sweeps for the given
/// bounds: `min..=max` with the configured step, widened so the grid
/// stays within `params.max_dyn_candidates`, always including `max`.
/// Public so harnesses measuring the sweep reproduce exactly the grid
/// the optimisers run.
#[must_use]
pub fn dyn_sweep_grid(min: u32, max: u32, params: &OptParams) -> Vec<u32> {
    let span = max.saturating_sub(min);
    let step = params
        .dyn_step
        .max(span / u32::try_from(params.max_dyn_candidates.max(2)).unwrap_or(u32::MAX))
        .max(1);
    candidate_lengths(min, max, step)
}

/// The sweep grid: `min..=max` stepping by `step` minislots, always
/// including `max`.
///
/// Degenerate inputs are handled explicitly: an empty range
/// (`min > max`) yields no candidates, `min == max` yields exactly one,
/// a step of zero is treated as one, and a step larger than the range
/// yields the two endpoints.
fn candidate_lengths(min: u32, max: u32, step: u32) -> Vec<u32> {
    if min > max {
        return Vec::new();
    }
    let step = step.max(1);
    let mut v: Vec<u32> = (min..=max).step_by(step as usize).collect();
    if v.last() != Some(&max) {
        v.push(max);
    }
    v
}

fn with_length(template: &BusConfig, n: u32) -> BusConfig {
    let mut bus = template.clone();
    bus.n_minislots = n;
    bus
}

/// Analyse every candidate length through the evaluator's batched
/// DYN-length sweep (one borrowed template, no per-candidate clones)
/// and keep the first best (Fig. 5 lines 5–12).
fn exhaustive(ev: &mut Evaluator, template: &BusConfig, candidates: &[u32]) -> Option<DynChoice> {
    let costs = ev.evaluate_dyn_lengths(template, candidates);
    let mut best: Option<DynChoice> = None;
    for (&n, cost) in candidates.iter().zip(costs) {
        let better = best.is_none_or(|b| cost.better_than(&b.cost));
        if better {
            best = Some(DynChoice {
                n_minislots: n,
                cost,
            });
        }
    }
    best
}

fn curve_fit(
    ev: &mut Evaluator,
    template: &BusConfig,
    params: &OptParams,
    candidates: &[u32],
) -> Option<DynChoice> {
    // Exactly-analysed points: length -> (cost, response vector).
    let mut points: BTreeMap<u32, (Cost, Vec<Time>)> = BTreeMap::new();
    let mut best: Option<DynChoice> = None;
    let evaluate_at = |ev: &mut Evaluator,
                       n: u32,
                       points: &mut BTreeMap<u32, (Cost, Vec<Time>)>,
                       best: &mut Option<DynChoice>|
     -> Cost {
        let (cost, analysis) = ev.evaluate(&with_length(template, n));
        let responses = analysis.map(|a| a.responses).unwrap_or_default();
        points.insert(n, (cost, responses));
        if best.is_none_or(|b| cost.better_than(&b.cost)) {
            *best = Some(DynChoice {
                n_minislots: n,
                cost,
            });
        }
        cost
    };

    // Initial points: evenly spaced across the interval (paper: five).
    let k = params.cf_initial_points.max(2);
    for i in 0..k {
        let idx = i * (candidates.len() - 1) / (k - 1);
        let n = candidates[idx];
        if !points.contains_key(&n) {
            evaluate_at(ev, n, &mut points, &mut best);
        }
    }
    if let Some(b) = best {
        if b.cost.is_schedulable() {
            return best;
        }
    }

    let mut stale_rounds = 0usize;
    let mut last_best_value = best.map_or(f64::INFINITY, |b| b.cost.value());
    // Hard cap well above N_max so a pathological oscillation terminates.
    for _round in 0..params.cf_max_iterations * 4 {
        // Newton polynomial per activity over the analysed points.
        let n_activities = points.values().map(|(_, r)| r.len()).max().unwrap_or(0);
        let mut polys = vec![NewtonPoly::new(); n_activities];
        for (&x, (_, responses)) in &points {
            if responses.len() != n_activities {
                continue; // invalid configuration: no responses stored
            }
            for (poly, &r) in polys.iter_mut().zip(responses) {
                poly.add_point(f64::from(x), r.as_us());
            }
        }

        // Interpolate the cost at every candidate not yet analysed.
        let mut interp_best: Option<(u32, Cost)> = None;
        for &c in candidates {
            if points.contains_key(&c) {
                continue;
            }
            let responses: Vec<Time> = polys
                .iter()
                .map(|p| {
                    // High-degree Newton extrapolation can overflow; an
                    // absurd finite cap keeps the cost comparison sane.
                    let v = p.eval(f64::from(c));
                    let v = if v.is_finite() {
                        v.clamp(0.0, 1e12)
                    } else {
                        1e12
                    };
                    Time::from_us(v)
                })
                .collect();
            let cost = ev.cost_from_responses(&responses);
            if interp_best.is_none_or(|(_, b)| cost.better_than(&b)) {
                interp_best = Some((c, cost));
            }
        }

        // The minimum over exact and interpolated points (Fig. 8 line 11).
        let exact_best = points
            .iter()
            .map(|(&x, &(c, _))| (x, c))
            .min_by(|a, b| {
                if a.1.better_than(&b.1) {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Greater
                }
            })
            .expect("points non-empty");

        let interp_wins = interp_best.is_some_and(|(_, c)| c.better_than(&exact_best.1));
        if interp_wins {
            let (n, interp_cost) = interp_best.expect("interp_wins");
            let exact_cost = evaluate_at(ev, n, &mut points, &mut best);
            if exact_cost.is_schedulable() {
                return best; // Fig. 8 line 14
            }
            let _ = interp_cost;
        } else {
            if exact_best.1.is_schedulable() {
                return best; // Fig. 8 line 12
            }
            // Best is an already-analysed, unschedulable point: refine at
            // the most promising interpolated point instead (lines 18-19).
            match interp_best {
                Some((n, _)) => {
                    let c = evaluate_at(ev, n, &mut points, &mut best);
                    if c.is_schedulable() {
                        return best;
                    }
                }
                None => break, // every candidate analysed
            }
        }

        // Termination: N_max rounds without improvement (Fig. 8 line 15).
        let now_best = best.map_or(f64::INFINITY, |b| b.cost.value());
        if now_best < last_best_value {
            last_best_value = now_best;
            stale_rounds = 0;
        } else {
            stale_rounds += 1;
            if stale_rounds >= params.cf_max_iterations {
                break;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexray_analysis::AnalysisConfig;
    use flexray_model::*;

    /// Two nodes exchanging several dynamic messages; ST segment fixed.
    fn dyn_app(n_msgs: usize) -> (Platform, Application, BusConfig) {
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(4000.0), Time::from_us(2000.0));
        let mut bus = BusConfig::new(PhyParams::bmw_like());
        bus.static_slot_len = Time::from_us(20.0);
        bus.static_slot_owners = vec![NodeId::new(0), NodeId::new(1)];
        for i in 0..n_msgs {
            let s = app.add_task(
                g,
                &format!("s{i}"),
                NodeId::new(i % 2),
                Time::from_us(5.0),
                SchedPolicy::Fps,
                u32::try_from(10 + i).expect("small"),
            );
            let r = app.add_task(
                g,
                &format!("r{i}"),
                NodeId::new((i + 1) % 2),
                Time::from_us(5.0),
                SchedPolicy::Fps,
                u32::try_from(10 + i).expect("small"),
            );
            let m = app.add_message(
                g,
                &format!("m{i}"),
                16,
                MessageClass::Dynamic,
                u32::try_from(1 + i).expect("small"),
            );
            app.connect(s, m, r).expect("edges");
            bus.frame_ids
                .insert(m, FrameId::new(u16::try_from(i + 1).expect("small")));
        }
        // one static message so the ST segment is load-bearing
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
            SchedPolicy::Scs,
            0,
        );
        let st = app.add_message(g, "st", 8, MessageClass::Static, 0);
        app.connect(a, st, b).expect("edges");
        (Platform::with_nodes(2), app, bus)
    }

    #[test]
    fn exhaustive_finds_schedulable_length() {
        let (p, a, bus) = dyn_app(3);
        let mut ev = Evaluator::new(p, a, AnalysisConfig::default());
        let params = OptParams::default();
        let choice = determine_dyn_length(&mut ev, &bus, &params, DynSearch::Exhaustive)
            .expect("has dynamic messages");
        assert!(choice.cost.is_schedulable(), "cost {:?}", choice.cost);
        assert!(choice.n_minislots >= bus.min_minislots(ev.app()));
    }

    #[test]
    fn curve_fit_agrees_with_exhaustive_when_schedulable() {
        let (p, a, bus) = dyn_app(3);
        let params = OptParams::default();
        let mut ev1 = Evaluator::new(p.clone(), a.clone(), AnalysisConfig::default());
        let ee = determine_dyn_length(&mut ev1, &bus, &params, DynSearch::Exhaustive)
            .expect("exhaustive");
        let mut ev2 = Evaluator::new(p, a, AnalysisConfig::default());
        let cf =
            determine_dyn_length(&mut ev2, &bus, &params, DynSearch::CurveFit).expect("curve fit");
        assert_eq!(
            ee.cost.is_schedulable(),
            cf.cost.is_schedulable(),
            "ee {ee:?} vs cf {cf:?}"
        );
    }

    #[test]
    fn curve_fit_uses_fewer_evaluations() {
        let (p, a, bus) = dyn_app(4);
        let params = OptParams {
            dyn_step: 1, // large candidate set
            ..OptParams::default()
        };
        let mut ev1 = Evaluator::new(p.clone(), a.clone(), AnalysisConfig::default());
        let _ = determine_dyn_length(&mut ev1, &bus, &params, DynSearch::Exhaustive);
        let mut ev2 = Evaluator::new(p, a, AnalysisConfig::default());
        let _ = determine_dyn_length(&mut ev2, &bus, &params, DynSearch::CurveFit);
        assert!(
            ev2.evaluations() < ev1.evaluations() / 2,
            "curve fit {} vs exhaustive {}",
            ev2.evaluations(),
            ev1.evaluations()
        );
    }

    #[test]
    fn no_dynamic_messages_yields_none() {
        let mut app = Application::new();
        let g = app.add_graph("g", Time::from_us(100.0), Time::from_us(100.0));
        app.add_task(
            g,
            "t",
            NodeId::new(0),
            Time::from_us(5.0),
            SchedPolicy::Scs,
            0,
        );
        let bus = BusConfig::new(PhyParams::bmw_like());
        let mut ev = Evaluator::new(Platform::with_nodes(1), app, AnalysisConfig::default());
        assert!(
            determine_dyn_length(&mut ev, &bus, &OptParams::default(), DynSearch::CurveFit)
                .is_none()
        );
    }

    #[test]
    fn candidate_grid_includes_max() {
        assert_eq!(candidate_lengths(10, 20, 4), vec![10, 14, 18, 20]);
        assert_eq!(candidate_lengths(10, 18, 4), vec![10, 14, 18]);
        assert_eq!(candidate_lengths(5, 5, 3), vec![5]);
    }

    #[test]
    fn candidate_grid_step_larger_than_range() {
        // A step exceeding the whole range keeps both endpoints and
        // nothing in between.
        assert_eq!(candidate_lengths(10, 20, 100), vec![10, 20]);
        assert_eq!(candidate_lengths(10, 11, u32::MAX), vec![10, 11]);
    }

    #[test]
    fn candidate_grid_single_point() {
        // min == max is one candidate, never a duplicated endpoint.
        assert_eq!(candidate_lengths(7, 7, 1), vec![7]);
        assert_eq!(candidate_lengths(7, 7, u32::MAX), vec![7]);
        assert_eq!(candidate_lengths(0, 0, 4), vec![0]);
    }

    #[test]
    fn candidate_grid_empty_range() {
        // min > max cannot happen via dyn_bounds but must not fabricate
        // an out-of-range candidate.
        assert!(candidate_lengths(10, 5, 1).is_empty());
        assert!(candidate_lengths(1, 0, 7).is_empty());
    }

    #[test]
    fn candidate_grid_zero_step_is_unit_step() {
        assert_eq!(candidate_lengths(3, 6, 0), vec![3, 4, 5, 6]);
    }

    #[test]
    fn exhaustive_with_empty_candidates_is_none() {
        let (p, a, bus) = dyn_app(2);
        let mut ev = Evaluator::new(p, a, AnalysisConfig::default());
        assert!(exhaustive(&mut ev, &bus, &[]).is_none());
        assert_eq!(ev.evaluations(), 0);
    }
}
