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
//!
//! The curve fit's inner loop costs every pending candidate from its
//! interpolated responses. It runs column-wise: one activity's
//! polynomial is evaluated across all candidates at once
//! ([`NewtonPoly::eval_many`]), and each candidate's `f1`/`f2` are summed
//! in activity order, as Eq. (5) sums them. The polynomials and scratch
//! buffers live across refinement rounds and are refilled in place. A
//! seed candidate next to the best analysed length is costed first, and
//! any candidate whose partial overshoot already exceeds the seed's is
//! dropped: overshoot sums only grow, so it could never win. Every
//! candidate still costed sees the same floating-point operations in the
//! same order as a plain scan, so the chosen length is bit for bit the
//! plain scan's; debug builds check this on every round.

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

/// Activities interpolated between two pruning passes of
/// [`Interpolator::argmin`].
const PRUNE_BLOCK: usize = 8;

/// An interpolated response (µs) as the cost function sees it: capped
/// to `[0, 1e12]`, then rounded to whole nanoseconds like
/// `Time::from_us(v).as_us()`, without its libm call and range asserts.
fn interp_us(v: f64) -> f64 {
    // High-degree Newton extrapolation can overflow; an absurd finite
    // cap keeps the cost comparison sane.
    let v = if v.is_finite() {
        v.clamp(0.0, 1e12)
    } else {
        1e12
    };
    // Round half away from zero, as `f64::round`: `ns` lies in
    // `[0, 1e15] ⊂ [0, 2^52)`, so the truncation and the fraction
    // `ns - t` are exact.
    let ns = v * 1_000.0;
    let t = ns as i64 as f64;
    let ns = if ns - t >= 0.5 { t + 1.0 } else { t };
    let us = ns / 1_000.0;
    debug_assert_eq!(us.to_bits(), Time::from_us(v).as_us().to_bits());
    us
}

/// The interpolation side of [`curve_fit`]: one Newton polynomial per
/// activity and the scratch of the candidate scan, kept across
/// refinement rounds so a round allocates nothing.
#[derive(Debug, Default)]
struct Interpolator {
    /// Per-activity polynomials over the analysed points, in x order.
    polys: Vec<NewtonPoly>,
    /// Per-activity deadlines in µs (the `D_ij` of Eq. (5)).
    deadlines: Vec<f64>,
    /// The candidates not analysed yet, in candidate order.
    pending: Vec<u32>,
    /// The candidates still in the running during a scan: length, x,
    /// partial `f1` and `f2`, and the polynomial values of the activity
    /// at hand.
    live: Vec<u32>,
    live_xs: Vec<f64>,
    f1: Vec<f64>,
    f2: Vec<f64>,
    vals: Vec<f64>,
}

impl Interpolator {
    fn new(app: &Application) -> Self {
        Interpolator {
            deadlines: app.ids().map(|id| app.deadline_of(id).as_us()).collect(),
            ..Interpolator::default()
        }
    }

    /// Refits every activity's polynomial through the analysed `points`
    /// that carry responses, and lists the candidates still pending.
    /// Returns the number of interpolated activities: 0 when no analysed
    /// point yielded responses.
    fn rebuild(&mut self, points: &BTreeMap<u32, (Cost, Vec<f64>)>, candidates: &[u32]) -> usize {
        let n_activities = points.values().map(|(_, r)| r.len()).max().unwrap_or(0);
        debug_assert!(n_activities == 0 || n_activities == self.deadlines.len());
        self.polys.resize_with(n_activities, NewtonPoly::new);
        self.polys.iter_mut().for_each(NewtonPoly::clear);
        for (&x, (_, responses)) in points {
            if responses.len() != n_activities {
                continue; // invalid configuration: no responses stored
            }
            for (poly, &r) in self.polys.iter_mut().zip(responses) {
                poly.add_point(f64::from(x), r);
            }
        }
        self.pending.clear();
        self.pending
            .extend(candidates.iter().filter(|c| !points.contains_key(c)));
        n_activities
    }

    /// Interpolated cost (Eq. (5)) at `x`, summed in activity order.
    fn cost_at(&self, x: f64) -> Cost {
        let (mut f1, mut f2) = (0.0, 0.0);
        for (poly, &d) in self.polys.iter().zip(&self.deadlines) {
            let delta = interp_us(poly.eval(x)) - d;
            if delta > 0.0 {
                f1 += delta;
            }
            f2 += delta;
        }
        Cost { f1, f2 }
    }

    /// The plain scan: the first pending candidate of least interpolated
    /// cost, each candidate costed in full.
    #[cfg(any(test, debug_assertions))]
    fn argmin_plain(&self) -> Option<(u32, Cost)> {
        let mut best: Option<(u32, Cost)> = None;
        for &c in &self.pending {
            let cost = self.cost_at(f64::from(c));
            if best.is_none_or(|(_, b)| cost.better_than(&b)) {
                best = Some((c, cost));
            }
        }
        best
    }

    /// [`Interpolator::argmin_plain`] with exact pruning. The seed —
    /// the first pending candidate at or after length `near` (the last
    /// one if none is), or the first pending candidate — is costed in
    /// full first. Then all candidates are interpolated column-wise,
    /// [`PRUNE_BLOCK`] activities at a time, and dropped once their
    /// partial overshoot `f1` exceeds the seed's. Overshoot sums only
    /// grow, so a dropped candidate ends unschedulable with a larger
    /// `f1` and can never be `better_than` the seed: the minimum and the
    /// seed itself survive. Every survivor's cost is summed with the
    /// operations of [`Interpolator::cost_at`], in the same order, so
    /// the plain scan over the survivors picks the plain scan's result.
    fn argmin(&mut self, near: Option<u32>) -> Option<(u32, Cost)> {
        if self.pending.is_empty() {
            return None;
        }
        let s = near.map_or(0, |n| {
            self.pending
                .partition_point(|&c| c < n)
                .min(self.pending.len() - 1)
        });
        let bound = self.cost_at(f64::from(self.pending[s])).f1;

        let Interpolator {
            polys,
            deadlines,
            pending,
            live,
            live_xs,
            f1,
            f2,
            vals,
        } = self;
        live.clone_from(pending);
        live_xs.clear();
        live_xs.extend(live.iter().map(|&c| f64::from(c)));
        for buf in [&mut *f1, &mut *f2, &mut *vals] {
            buf.clear();
            buf.resize(live.len(), 0.0);
        }
        for (block, block_deadlines) in polys.chunks(PRUNE_BLOCK).zip(deadlines.chunks(PRUNE_BLOCK))
        {
            for (poly, &d) in block.iter().zip(block_deadlines) {
                poly.eval_many(live_xs, vals);
                for ((&v, f1), f2) in vals.iter().zip(f1.iter_mut()).zip(f2.iter_mut()) {
                    let delta = interp_us(v) - d;
                    if delta > 0.0 {
                        *f1 += delta;
                    }
                    *f2 += delta;
                }
            }
            let mut kept = 0;
            for j in 0..live.len() {
                if f1[j] <= bound {
                    live[kept] = live[j];
                    live_xs[kept] = live_xs[j];
                    f1[kept] = f1[j];
                    f2[kept] = f2[j];
                    kept += 1;
                }
            }
            for buf in [&mut *live_xs, &mut *f1, &mut *f2, &mut *vals] {
                buf.truncate(kept);
            }
            live.truncate(kept);
        }

        let mut best: Option<(u32, Cost)> = None;
        for ((&c, &f1), &f2) in live.iter().zip(&*f1).zip(&*f2) {
            let cost = Cost { f1, f2 };
            if best.is_none_or(|(_, b)| cost.better_than(&b)) {
                best = Some((c, cost));
            }
        }
        #[cfg(debug_assertions)]
        debug_assert_eq!(best, self.argmin_plain(), "pruned scan left the plain one");
        best
    }
}

fn curve_fit(
    ev: &mut Evaluator,
    template: &BusConfig,
    params: &OptParams,
    candidates: &[u32],
) -> Option<DynChoice> {
    // Exactly-analysed points: length -> (cost, responses in µs).
    let mut points: BTreeMap<u32, (Cost, Vec<f64>)> = BTreeMap::new();
    let mut best: Option<DynChoice> = None;
    let evaluate_at = |ev: &mut Evaluator,
                       n: u32,
                       points: &mut BTreeMap<u32, (Cost, Vec<f64>)>,
                       best: &mut Option<DynChoice>|
     -> Cost {
        let (cost, responses) = ev.evaluate(&with_length(template, n));
        let responses = responses.map_or_else(Vec::new, |r| r.iter().map(|t| t.as_us()).collect());
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

    let mut interp = Interpolator::new(ev.app());
    let mut stale_rounds = 0usize;
    let mut last_best_value = best.map_or(f64::INFINITY, |b| b.cost.value());
    // Hard cap well above N_max so a pathological oscillation terminates.
    for _round in 0..params.cf_max_iterations * 4 {
        // Newton polynomial per activity over the analysed points.
        if interp.rebuild(&points, candidates) == 0 {
            return best; // no analysis yielded responses to interpolate
        }
        // Interpolate the cost at every candidate not yet analysed; the
        // neighbour of the best analysed length seeds the pruning bound.
        let interp_best = interp.argmin(best.map(|b| b.n_minislots));

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
        if !interp_wins && exact_best.1.is_schedulable() {
            return best; // Fig. 8 line 12
        }
        // Analyse the interpolated optimum: either it beats every
        // analysed point (lines 13-14), or the best analysed point is
        // unschedulable and the search refines at the most promising
        // interpolated point instead (lines 18-19).
        let Some((n, _)) = interp_best else {
            break; // every candidate analysed
        };
        if evaluate_at(ev, n, &mut points, &mut best).is_schedulable() {
            return best;
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
    fn curve_fit_without_any_responses_matches_exhaustive() {
        // Three extra graphs with near-coprime nanosecond periods: the
        // hyperperiod overflows i64 nanoseconds, so every analysis fails
        // and no analysed point yields responses to interpolate.
        let (p, mut a, bus) = dyn_app(3);
        for (i, ns) in [2_100_001, 2_100_011, 2_100_013].into_iter().enumerate() {
            let g = a.add_graph(&format!("h{i}"), Time::from_ns(ns), Time::from_ns(ns));
            a.add_task(
                g,
                &format!("h{i}"),
                NodeId::new(0),
                Time::from_us(1.0),
                SchedPolicy::Fps,
                1,
            );
        }
        let params = OptParams {
            dyn_step: 1,
            ..OptParams::default()
        };
        let mut ev1 = Evaluator::new(p.clone(), a.clone(), AnalysisConfig::default());
        let ee = determine_dyn_length(&mut ev1, &bus, &params, DynSearch::Exhaustive);
        let first = ee.expect("has dynamic messages");
        assert_eq!(first.cost, Cost::infeasible());
        let mut ev2 = Evaluator::new(p, a, AnalysisConfig::default());
        let cf = determine_dyn_length(&mut ev2, &bus, &params, DynSearch::CurveFit);
        assert_eq!(cf, ee);
    }

    #[test]
    fn interp_us_rounds_like_time() {
        let via_time = |v: f64| Time::from_us(v).as_us().to_bits();
        let mut fixed = vec![0.0, 1e12, 0.0005, 0.0015, 123.4565, 999.9995, 7.0];
        // pseudo-random magnitudes across the whole capped range
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..10_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
            fixed.push(10f64.powf(unit * 15.0 - 3.0).min(1e12));
        }
        for v in fixed {
            assert_eq!(interp_us(v).to_bits(), via_time(v), "at {v}");
        }
        // out of range: clamped to the cap, non-finite mapped to it
        assert_eq!(interp_us(-3.5).to_bits(), 0.0f64.to_bits());
        assert_eq!(interp_us(5e13).to_bits(), via_time(1e12));
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(interp_us(v).to_bits(), via_time(1e12), "at {v}");
        }
    }

    /// An interpolator over `n_act` activities, each with deadline
    /// 100 µs and response `shape(x)` at the analysed points x = 0, 10
    /// and 20, so every activity interpolates the same quadratic.
    fn interpolator(n_act: usize, pending: &[u32], shape: impl Fn(f64) -> f64) -> Interpolator {
        let mut it = Interpolator {
            deadlines: vec![100.0; n_act],
            ..Interpolator::default()
        };
        let mut points = BTreeMap::new();
        for x in [0u32, 10, 20] {
            let r = shape(f64::from(x));
            points.insert(x, (Cost::infeasible(), vec![r; n_act]));
        }
        let candidates: Vec<u32> = points
            .keys()
            .copied()
            .chain(pending.iter().copied())
            .collect();
        assert_eq!(it.rebuild(&points, &candidates), n_act);
        assert_eq!(it.pending, pending);
        it
    }

    #[test]
    fn pruned_argmin_keeps_the_first_of_tied_candidates() {
        // A parabola with its vertex at x = 15, interpolated exactly:
        // candidates 14 and 16 tie for the minimum and 14 must win,
        // whichever candidate seeds the bound. 20 activities span three
        // pruning blocks.
        let pending = [1, 2, 5, 13, 14, 16, 17, 18, 25];
        let mut it = interpolator(20, &pending, |x| 150.0 + (x - 15.0) * (x - 15.0));
        let plain = it.argmin_plain();
        assert_eq!(plain.map(|(n, _)| n), Some(14));
        for near in [None, Some(15), Some(18), Some(25), Some(99)] {
            assert_eq!(it.argmin(near), plain, "seed near {near:?}");
        }

        // Flat responses: every candidate ties, so the first must win
        // whichever candidate seeds the bound.
        let mut flat = interpolator(12, &pending, |_| 120.0);
        for near in [None, Some(1), Some(13), Some(25)] {
            assert_eq!(
                flat.argmin(near).map(|(n, _)| n),
                Some(1),
                "seed near {near:?}"
            );
        }
        assert_eq!(flat.argmin(None), flat.argmin_plain());

        // Schedulable everywhere: f1 is 0 for all, so nothing is pruned
        // and the least laxity sum wins (the quadratic's vertex, x = 5).
        let mut slack = interpolator(9, &pending, |x| 50.0 + (x - 5.0).abs());
        assert_eq!(slack.argmin(Some(25)).map(|(n, _)| n), Some(5));
        assert_eq!(slack.argmin(Some(25)), slack.argmin_plain());
    }

    #[test]
    fn exhaustive_with_empty_candidates_is_none() {
        let (p, a, bus) = dyn_app(2);
        let mut ev = Evaluator::new(p, a, AnalysisConfig::default());
        assert!(exhaustive(&mut ev, &bus, &[]).is_none());
        assert_eq!(ev.evaluations(), 0);
    }
}
