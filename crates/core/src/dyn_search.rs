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
//! The curve fit keeps one Newton fit of every activity's response
//! through the analysed lengths: the lengths once, ascending, and the
//! Newton coefficients of all activities in one point-major table. A
//! newly analysed length goes in at its x-rank, and the table is refitted
//! in place, in lockstep across activities with one shared divisor per
//! divided difference, so each activity's coefficients stay bit for bit
//! those of a [`NewtonPoly`](crate::NewtonPoly) fed the points in x
//! order. Each round then costs every pending candidate from
//! its interpolated responses. Tiles of candidates share their
//! differences `x − x_k` across activities and keep their Horner
//! accumulators in registers, and each value is rounded to whole
//! nanoseconds by a branch-free form that is bit for bit the scalar
//! rounding, so the loops vectorise (four lanes wide on x86-64 CPUs with
//! AVX2). Each candidate's `f1`/`f2` are summed in activity order, as
//! Eq. (5) sums them. A seed candidate next to the best analysed length
//! is costed first, and any candidate whose partial overshoot already
//! exceeds the seed's is dropped: overshoot sums only grow, so it could
//! never win. Every candidate still costed sees the same floating-point
//! operations in the same order as a plain scan, so the chosen length is
//! bit for bit the plain scan's. Debug builds check this on every round,
//! and the table against a fresh refit on every insertion.

use crate::evaluator::Evaluator;
#[cfg(any(test, debug_assertions))]
use crate::newton::NewtonPoly;
use crate::params::OptParams;
use flexray_analysis::Cost;
use flexray_model::{Application, BusConfig, Time};

/// Number of initial interpolation points of the curve fit (Fig. 8:
/// five, evenly spaced across the candidate lengths).
pub const CF_INITIAL_POINTS: usize = 5;

/// Termination bound `N_max` of the curve-fit refinement loop (Fig. 8:
/// ten rounds without improvement).
const CF_MAX_ITERATIONS: usize = 10;

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
            if candidates.len() <= CF_INITIAL_POINTS + 1 {
                exhaustive(ev, bus_template, &candidates)
            } else {
                curve_fit(ev, bus_template, &candidates)
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
    bus.dyn_lengths(app)
        .map(|lengths| (*lengths.start(), *lengths.end()))
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

/// Candidates costed together at the end of the live list by
/// [`cost_candidates`], which pads the list to a multiple of it.
const TAIL: usize = 8;

/// An interpolated response (µs) as the cost function sees it: capped
/// to `[0, 1e12]`, then rounded to whole nanoseconds like
/// `Time::from_us(v).as_us()`, without its libm call and range asserts.
/// The scalar reference of [`interp_us_fast`].
#[cfg(any(test, debug_assertions))]
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

/// [`interp_us`] bit for bit, branch-free and without an integer
/// conversion, so the candidate loops of [`cost_candidates`] vectorise:
/// every `if` is a select.
#[inline(always)]
fn interp_us_fast(v: f64) -> f64 {
    /// Adding and subtracting 2^52 rounds a value in `[0, 2^52)` to the
    /// nearest integer, ties to even, exactly.
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    // NaN and -∞ fail the first test, +∞ and NaN the second; -0.0
    // becomes 0.0 (`interp_us` keeps it and rounds it to 0.0).
    let v = if v >= f64::MIN { v } else { 1e12 };
    let v = if v < 1e12 { v } else { 1e12 };
    let v = if v > 0.0 { v } else { 0.0 };
    // `ns` lies in `[0, 1e15]`. Half away from zero differs from ties to
    // even only where `ns` lies exactly half-way above an even integer;
    // `nearest - ns` is exact (Sterbenz), so the test finds those.
    let ns = v * 1_000.0;
    let nearest = (ns + TWO_52) - TWO_52;
    let ns = if nearest - ns == -0.5 {
        nearest + 1.0
    } else {
        nearest
    };
    ns / 1_000.0
}

/// What a pass of the candidate scan interpolates: the fitted lengths,
/// and the Newton coefficients over them of a block of activities,
/// activity after activity, with the activities' deadlines.
#[derive(Clone, Copy)]
struct Block<'a> {
    xs: &'a [f64],
    coeffs: &'a [f64],
    deadlines: &'a [f64],
}

/// Adds the interpolated cost over `block`'s activities of each
/// candidate at `live_xs[j]` to its partial sums `f1[j]` and `f2[j]`.
/// Every value sees the operations of [`NewtonPoly::eval`] and
/// [`interp_us`], in the same order, and each sum adds the activities in
/// order, as Eq. (5) does.
///
/// The list's length must be a multiple of [`TAIL`]. On x86-64 CPUs
/// with AVX2 the same loops run four lanes wide instead of two.
fn cost_candidates(
    block: Block,
    live_xs: &[f64],
    f1: &mut [f64],
    f2: &mut [f64],
    diffs: &mut Vec<f64>,
) {
    debug_assert!(live_xs.len().is_multiple_of(TAIL) && live_xs.len() == f1.len());
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, checked just above.
        unsafe { cost_candidates_avx2(block, live_xs, f1, f2, diffs) };
        return;
    }
    cost_tiles::<16>(block, live_xs, f1, f2, diffs);
}

/// [`cost_candidates`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn cost_candidates_avx2(
    block: Block,
    live_xs: &[f64],
    f1: &mut [f64],
    f2: &mut [f64],
    diffs: &mut Vec<f64>,
) {
    cost_tiles::<32>(block, live_xs, f1, f2, diffs);
}

/// The loops of [`cost_candidates`]: tiles of `T` candidates, then tiles
/// of [`TAIL`] for the rest.
#[inline(always)]
fn cost_tiles<const T: usize>(
    block: Block,
    live_xs: &[f64],
    f1: &mut [f64],
    f2: &mut [f64],
    diffs: &mut Vec<f64>,
) {
    let bulk = live_xs.len() / T * T;
    let (bulk_f1, tail_f1) = f1.split_at_mut(bulk);
    let (bulk_f2, tail_f2) = f2.split_at_mut(bulk);
    cost_tile_run::<T>(block, &live_xs[..bulk], bulk_f1, bulk_f2, diffs);
    cost_tile_run::<TAIL>(block, &live_xs[bulk..], tail_f1, tail_f2, diffs);
}

/// Tiles of exactly `T` candidates. A tile's differences `x − x_k` are
/// shared by every activity of the block, and its Horner accumulators
/// and partial sums stay in registers.
#[inline(always)]
fn cost_tile_run<const T: usize>(
    block: Block,
    live_xs: &[f64],
    f1: &mut [f64],
    f2: &mut [f64],
    diffs: &mut Vec<f64>,
) {
    let tiles = live_xs
        .as_chunks::<T>()
        .0
        .iter()
        .zip(f1.as_chunks_mut::<T>().0)
        .zip(f2.as_chunks_mut::<T>().0);
    for ((tile_xs, tile_f1), tile_f2) in tiles {
        diffs.clear();
        for &xk in block.xs {
            diffs.extend(tile_xs.iter().map(|&x| x - xk));
        }
        let rows = diffs.as_chunks::<T>().0;
        let (mut sum1, mut sum2) = (*tile_f1, *tile_f2);
        let activities = block.coeffs.chunks_exact(block.xs.len());
        for (cs, &d) in activities.zip(block.deadlines) {
            let mut acc = [0.0; T];
            for (&c, dx) in cs.iter().zip(rows).rev() {
                for (v, &dx) in acc.iter_mut().zip(dx) {
                    *v = *v * dx + c;
                }
            }
            for ((&v, s1), s2) in acc.iter().zip(&mut sum1).zip(&mut sum2) {
                let delta = interp_us_fast(v) - d;
                // A partial `f1` is never -0.0, so adding 0.0 leaves it
                // as skipping the addition does.
                *s1 += if delta > 0.0 { delta } else { 0.0 };
                *s2 += delta;
            }
        }
        (*tile_f1, *tile_f2) = (sum1, sum2);
    }
}

/// The interpolation side of [`curve_fit`]: a Newton fit of every
/// activity's response through the analysed lengths, and the scan of
/// the pending candidates over it, kept across refinement rounds so a
/// round allocates nothing.
///
/// Every activity is fitted through the same lengths, so the abscissae
/// are stored once, and the Newton coefficients of all activities share
/// one point-major table: row `k` holds every activity's coefficient of
/// `x_k`. A newly analysed length goes in at its x-rank, and the table is
/// refitted in place, in lockstep across activities with one shared
/// divisor per entry. Each entry is the difference of the same two
/// neighbours over the same divisor as in [`NewtonPoly::add_point`], so
/// every activity's coefficients are bit for bit those of a `NewtonPoly`
/// fed the fitted points in x order; debug builds check this on every
/// insertion. (Refitting only from the new rank on would need every
/// intermediate difference kept, a triangle of `n²/2` rows, for no
/// measured gain.)
#[derive(Debug, Default)]
struct Interpolator {
    /// Per-activity deadlines in µs (the `D_ij` of Eq. (5)); their count
    /// is the width of every row below.
    deadlines: Vec<f64>,
    /// The fitted lengths, ascending: every analysed length that yielded
    /// responses.
    xs: Vec<f64>,
    /// Responses in µs, point-major: row `k` holds them at `xs[k]`.
    ys: Vec<f64>,
    /// The Newton coefficients, point-major.
    table: Vec<f64>,
    /// The candidates not analysed yet, in candidate order.
    pending: Vec<u32>,
    /// Scan scratch: the Newton coefficients activity after activity,
    /// the candidates still in the running (length, x, partial `f1` and
    /// `f2`; the last three padded to whole [`TAIL`]s), and a tile's
    /// `x − x_k`.
    coeffs: Vec<f64>,
    live: Vec<u32>,
    live_xs: Vec<f64>,
    f1: Vec<f64>,
    f2: Vec<f64>,
    diffs: Vec<f64>,
}

impl Interpolator {
    /// An empty fit over `app`'s activities, every candidate pending.
    fn new(app: &Application, candidates: &[u32]) -> Self {
        Interpolator {
            deadlines: app.ids().map(|id| app.deadline_of(id).as_us()).collect(),
            pending: candidates.to_vec(),
            ..Interpolator::default()
        }
    }

    /// Number of fitted lengths.
    fn len(&self) -> usize {
        self.xs.len()
    }

    fn is_pending(&self, x: u32) -> bool {
        self.pending.binary_search(&x).is_ok()
    }

    /// Records that length `x` was analysed: it leaves the pending
    /// candidates, and its responses, if the analysis yielded any, join
    /// the fit.
    fn analysed(&mut self, x: u32, responses: Option<&[Time]>) {
        if let Ok(i) = self.pending.binary_search(&x) {
            self.pending.remove(i);
        }
        if let Some(responses) = responses {
            self.fit(x, responses.iter().map(|t| t.as_us()));
        }
    }

    /// Inserts length `x` with one response (µs) per activity into the
    /// fit, and refits.
    fn fit(&mut self, x: u32, responses: impl Iterator<Item = f64>) {
        let w = self.deadlines.len();
        let x = f64::from(x);
        let r = self.xs.partition_point(|&xk| xk < x);
        debug_assert!(self.xs.get(r) != Some(&x), "length {x} fitted twice");
        self.xs.insert(r, x);
        self.ys.splice(r * w..r * w, responses);
        debug_assert_eq!(
            self.ys.len(),
            self.xs.len() * w,
            "one response per activity"
        );

        // Pass j turns row i ≥ j into f[x_{i−j}..x_i] = (f[x_{i−j+1}..x_i]
        // − f[x_{i−j}..x_{i−1}]) / (x_i − x_{i−j}); rows go downwards so
        // row i − 1 still holds pass j − 1's value.
        let n = self.xs.len();
        self.table.clone_from(&self.ys);
        for j in 1..n {
            for i in (j..n).rev() {
                let div = self.xs[i] - self.xs[i - j];
                let (lower, row) = self.table.split_at_mut(i * w);
                for (d, &below) in row[..w].iter_mut().zip(&lower[(i - 1) * w..]) {
                    *d = (*d - below) / div;
                }
            }
        }
        #[cfg(debug_assertions)]
        self.check_against_newton();
    }

    /// Newton coefficient of `xs[k]` in activity `a`'s fit.
    #[cfg(any(test, debug_assertions))]
    fn coeff(&self, k: usize, a: usize) -> f64 {
        self.table[k * self.deadlines.len() + a]
    }

    /// Debug builds: every activity's coefficients are bit for bit those
    /// of a fresh [`NewtonPoly`] through the fitted points in x order.
    #[cfg(debug_assertions)]
    fn check_against_newton(&self) {
        let w = self.deadlines.len();
        for a in 0..w {
            let mut poly = NewtonPoly::new();
            for (k, &x) in self.xs.iter().enumerate() {
                poly.add_point(x, self.ys[k * w + a]);
            }
            for (k, c) in poly.coeffs().iter().enumerate() {
                assert_eq!(
                    c.to_bits(),
                    self.coeff(k, a).to_bits(),
                    "lockstep refit left NewtonPoly: activity {a}, coefficient {k}"
                );
            }
        }
    }

    /// Activity `a`'s interpolated response at `x`: Horner over the
    /// Newton basis, as [`NewtonPoly::eval`].
    #[cfg(any(test, debug_assertions))]
    fn eval(&self, a: usize, x: f64) -> f64 {
        let mut acc = 0.0;
        for (k, &xk) in self.xs.iter().enumerate().rev() {
            acc = acc * (x - xk) + self.coeff(k, a);
        }
        acc
    }

    /// The plain scan: the first pending candidate of least interpolated
    /// cost (Eq. (5), summed in activity order), each candidate costed
    /// in full, one at a time, with the scalar [`interp_us`].
    #[cfg(any(test, debug_assertions))]
    fn argmin_plain(&self) -> Option<(u32, Cost)> {
        let mut best: Option<(u32, Cost)> = None;
        for &c in &self.pending {
            let (mut f1, mut f2) = (0.0, 0.0);
            for (a, &d) in self.deadlines.iter().enumerate() {
                let delta = interp_us(self.eval(a, f64::from(c))) - d;
                if delta > 0.0 {
                    f1 += delta;
                }
                f2 += delta;
            }
            let cost = Cost { f1, f2 };
            if best.is_none_or(|(_, b)| cost.better_than(&b)) {
                best = Some((c, cost));
            }
        }
        best
    }

    /// [`Interpolator::argmin_plain`] with exact pruning. The seed —
    /// the first pending candidate at or after length `near` (the last
    /// one if none is), or the first pending candidate — is costed in
    /// full first. Then the candidates are costed [`PRUNE_BLOCK`]
    /// activities at a time and dropped once their partial overshoot
    /// `f1` exceeds the seed's. Overshoot sums only grow, so a dropped
    /// candidate ends unschedulable with a larger `f1` and can never be
    /// `better_than` the seed: the minimum and the seed itself survive.
    /// [`cost_candidates`] sums every survivor's cost as the plain scan
    /// does, so the plain scan over the survivors picks the plain scan's
    /// result.
    fn argmin(&mut self, near: Option<u32>) -> Option<(u32, Cost)> {
        if self.pending.is_empty() {
            return None;
        }
        let (w, n) = (self.deadlines.len(), self.len());
        debug_assert!(n > 0, "a scan needs a fit");
        let Interpolator {
            deadlines,
            xs,
            table,
            pending,
            coeffs,
            live,
            live_xs,
            f1,
            f2,
            diffs,
            ..
        } = self;
        // The scan reads each activity's coefficients in a run.
        coeffs.resize(w * n, 0.0);
        for k in 0..n {
            for (a, &c) in table[k * w..][..w].iter().enumerate() {
                coeffs[a * n + k] = c;
            }
        }

        let s = near.map_or(0, |x| {
            pending.partition_point(|&c| c < x).min(pending.len() - 1)
        });
        // The seed fills one tail; its lanes agree.
        let (mut seed1, mut seed2) = ([0.0; TAIL], [0.0; TAIL]);
        let seed_xs = [f64::from(pending[s]); TAIL];
        let all = Block {
            xs,
            coeffs,
            deadlines,
        };
        cost_candidates(all, &seed_xs, &mut seed1, &mut seed2, diffs);
        let bound = seed1[0];

        live.clone_from(pending);
        live_xs.clear();
        live_xs.extend(live.iter().map(|&c| f64::from(c)));
        for buf in [&mut *f1, &mut *f2] {
            buf.clear();
            buf.resize(live.len(), 0.0);
        }
        for (block, block_deadlines) in coeffs
            .chunks(PRUNE_BLOCK * n)
            .zip(deadlines.chunks(PRUNE_BLOCK))
        {
            // Whole tails: the padding lanes are costed and ignored.
            let padded = live.len().next_multiple_of(TAIL);
            for buf in [&mut *live_xs, &mut *f1, &mut *f2] {
                buf.resize(padded, 0.0);
            }
            let block = Block {
                xs,
                coeffs: block,
                deadlines: block_deadlines,
            };
            cost_candidates(block, live_xs, f1, f2, diffs);
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
            for buf in [&mut *live_xs, &mut *f1, &mut *f2] {
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

fn curve_fit(ev: &mut Evaluator, template: &BusConfig, candidates: &[u32]) -> Option<DynChoice> {
    let mut interp = Interpolator::new(ev.app(), candidates);
    // One candidate bus, its length set per analysis.
    let mut bus = template.clone();
    // The first analysed point `better_than` every later one, folded in
    // as points are analysed: Fig. 8 line 11's minimum over the exact
    // points.
    let mut best: Option<DynChoice> = None;
    let mut evaluate_at = |ev: &mut Evaluator,
                           interp: &mut Interpolator,
                           n: u32,
                           best: &mut Option<DynChoice>|
     -> Cost {
        bus.n_minislots = n;
        let (cost, responses) = ev.evaluate(&bus);
        interp.analysed(n, responses);
        if best.is_none_or(|b| cost.better_than(&b.cost)) {
            *best = Some(DynChoice {
                n_minislots: n,
                cost,
            });
        }
        cost
    };

    // Initial points: evenly spaced across the interval.
    for i in 0..CF_INITIAL_POINTS {
        let n = candidates[i * (candidates.len() - 1) / (CF_INITIAL_POINTS - 1)];
        if interp.is_pending(n) {
            evaluate_at(ev, &mut interp, n, &mut best);
        }
    }
    let first = best.expect("the first candidate is analysed");
    if first.cost.is_schedulable() || interp.len() == 0 {
        // Done, or no analysis yielded responses to interpolate.
        return best;
    }

    let mut stale_rounds = 0usize;
    let mut last_best_value = first.cost.value();
    // Hard cap well above N_max so a pathological oscillation terminates.
    for _round in 0..CF_MAX_ITERATIONS * 4 {
        // Interpolate the cost at every candidate not yet analysed; the
        // neighbour of the best analysed length seeds the pruning bound.
        let exact_best = best.expect("analysed above");
        let interp_best = interp.argmin(Some(exact_best.n_minislots));

        // The minimum over exact and interpolated points (Fig. 8 line 11).
        let interp_wins = interp_best.is_some_and(|(_, c)| c.better_than(&exact_best.cost));
        if !interp_wins && exact_best.cost.is_schedulable() {
            return best; // Fig. 8 line 12
        }
        // Analyse the interpolated optimum: either it beats every
        // analysed point (lines 13-14), or the best analysed point is
        // unschedulable and the search refines at the most promising
        // interpolated point instead (lines 18-19).
        let Some((n, _)) = interp_best else {
            break; // every candidate analysed
        };
        if evaluate_at(ev, &mut interp, n, &mut best).is_schedulable() {
            return best;
        }

        // Termination: N_max rounds without improvement (Fig. 8 line 15).
        let now_best = best.map_or(f64::INFINITY, |b| b.cost.value());
        if now_best < last_best_value {
            last_best_value = now_best;
            stale_rounds = 0;
        } else {
            stale_rounds += 1;
            if stale_rounds >= CF_MAX_ITERATIONS {
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

    /// A xorshift64 stream: deterministic test inputs without a crate.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    #[test]
    fn interp_us_rounds_like_time() {
        let via_time = |v: f64| Time::from_us(v).as_us().to_bits();
        let mut fixed = vec![0.0, 1e12, 0.0005, 0.0015, 123.4565, 999.9995, 7.0];
        // pseudo-random magnitudes across the whole capped range
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        for _ in 0..10_000 {
            let unit = (next() >> 11) as f64 / (1u64 << 53) as f64;
            fixed.push(10f64.powf(unit * 15.0 - 3.0).min(1e12));
        }
        // exact half-nanosecond ties, above even and odd integers
        for _ in 0..10_000 {
            let k = (next() % 1_000_000_000_000_000) as f64;
            let v = (k + 0.5) / 1_000.0;
            if v * 1_000.0 == k + 0.5 && v <= 1e12 {
                fixed.push(v);
            }
        }
        assert!(fixed.len() > 15_000, "too few exact ties");
        for v in fixed {
            assert_eq!(interp_us(v).to_bits(), via_time(v), "at {v}");
            assert_eq!(interp_us_fast(v).to_bits(), via_time(v), "at {v}");
        }
        // out of range: clamped to the cap, non-finite mapped to it
        for v in [-3.5, -0.0, -1e300, f64::MIN, -f64::MIN_POSITIVE] {
            assert_eq!(interp_us(v).to_bits(), 0.0f64.to_bits(), "at {v}");
            assert_eq!(interp_us_fast(v).to_bits(), 0.0f64.to_bits(), "at {v}");
        }
        for v in [
            5e13,
            f64::MAX,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            assert_eq!(interp_us(v).to_bits(), via_time(1e12), "at {v}");
            assert_eq!(interp_us_fast(v).to_bits(), via_time(1e12), "at {v}");
        }
        // any bit pattern: NaN payloads, subnormals, both signs
        for _ in 0..100_000 {
            let v = f64::from_bits(next());
            assert_eq!(
                interp_us_fast(v).to_bits(),
                interp_us(v).to_bits(),
                "at {v:e}"
            );
        }
    }

    /// Per-activity `NewtonPoly`s through `it`'s fitted points in x
    /// order: the reference of the lockstep table.
    fn reference_polys(it: &Interpolator) -> Vec<NewtonPoly> {
        let w = it.deadlines.len();
        (0..w)
            .map(|a| {
                let mut poly = NewtonPoly::new();
                for (k, &x) in it.xs.iter().enumerate() {
                    poly.add_point(x, it.ys[k * w + a]);
                }
                poly
            })
            .collect()
    }

    /// Eq. (5) at `x` over `polys`, each value rounded by `interp_us`.
    fn reference_cost(polys: &[NewtonPoly], deadlines: &[f64], x: f64) -> Cost {
        let (mut f1, mut f2) = (0.0, 0.0);
        for (poly, &d) in polys.iter().zip(deadlines) {
            let delta = interp_us(poly.eval(x)) - d;
            if delta > 0.0 {
                f1 += delta;
            }
            f2 += delta;
        }
        Cost { f1, f2 }
    }

    /// The plain scan over `polys`.
    fn reference_argmin(it: &Interpolator, polys: &[NewtonPoly]) -> Option<(u32, Cost)> {
        let mut best: Option<(u32, Cost)> = None;
        for &c in &it.pending {
            let cost = reference_cost(polys, &it.deadlines, f64::from(c));
            if best.is_none_or(|(_, b)| cost.better_than(&b)) {
                best = Some((c, cost));
            }
        }
        best
    }

    type CostLoops = fn(Block, &[f64], &mut [f64], &mut [f64], &mut Vec<f64>);

    /// Every pending candidate's cost as `cost` sums it over all
    /// activities, against the reference.
    fn check_cost_loops(it: &Interpolator, polys: &[NewtonPoly], cost: CostLoops) {
        let (w, n) = (it.deadlines.len(), it.len());
        let coeffs: Vec<f64> = (0..w)
            .flat_map(|a| (0..n).map(move |k| it.coeff(k, a)))
            .collect();
        let mut xs: Vec<f64> = it.pending.iter().map(|&c| f64::from(c)).collect();
        xs.resize(xs.len().next_multiple_of(TAIL), 0.0);
        let (mut f1, mut f2) = (vec![0.0; xs.len()], vec![0.0; xs.len()]);
        let block = Block {
            xs: &it.xs,
            coeffs: &coeffs,
            deadlines: &it.deadlines,
        };
        cost(block, &xs, &mut f1, &mut f2, &mut Vec::new());
        for (j, &c) in it.pending.iter().enumerate() {
            let want = reference_cost(polys, &it.deadlines, f64::from(c));
            assert_eq!(f1[j].to_bits(), want.f1.to_bits(), "f1 at {c}");
            assert_eq!(f2[j].to_bits(), want.f2.to_bits(), "f2 at {c}");
        }
    }

    #[test]
    fn lockstep_interpolator_is_bitwise_newton() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut next = xorshift(0x2545_f491_4f6c_dd1d);
        // 1–70 activities: one to nine pruning blocks, partial last ones
        for (case, n_act) in [1usize, 3, 8, 9, 17, 30, 64, 70].into_iter().enumerate() {
            let candidates: Vec<u32> = (0..120).map(|i| 100 + 25 * i).collect();
            let mut it = Interpolator {
                deadlines: (0..n_act).map(|a| 900.0 + 50.0 * a as f64).collect(),
                pending: candidates.clone(),
                ..Interpolator::default()
            };
            // per activity: a constant, a smooth U over the lengths, or
            // noisy responses
            let kind: Vec<u64> = (0..n_act).map(|_| next() % 3).collect();
            let n_points = 1 + case * 39 / 7;
            let mut fitted = 0;
            while fitted < n_points {
                let x = candidates[(next() % candidates.len() as u64) as usize];
                if !it.is_pending(x) {
                    continue;
                }
                if next().is_multiple_of(5) {
                    // analysed without responses: leaves the pending
                    // candidates, joins no fit
                    it.analysed(x, None);
                    assert!(!it.is_pending(x));
                    assert_eq!(it.len(), fitted);
                    continue;
                }
                let xf = f64::from(x);
                let responses: Vec<f64> = kind
                    .iter()
                    .enumerate()
                    .map(|(a, k)| match k {
                        0 => 1_000.0 + a as f64,
                        1 => 400.0 + (xf - 1_500.0).powi(2) / 2_000.0,
                        _ => (next() % 3_000_000) as f64 / 1_000.0,
                    })
                    .collect();
                it.pending.retain(|&c| c != x);
                it.fit(x, responses.into_iter());
                fitted += 1;
                assert!(it.xs.is_sorted());

                let polys = reference_polys(&it);
                for (a, poly) in polys.iter().enumerate() {
                    let table: Vec<f64> = (0..it.len()).map(|k| it.coeff(k, a)).collect();
                    assert_eq!(
                        bits(&table),
                        bits(poly.coeffs()),
                        "case {case}, activity {a}"
                    );
                    for x in [0.0, 99.0, 1_234.5, 4_000.0, -1e6, 1e9] {
                        assert_eq!(it.eval(a, x).to_bits(), poly.eval(x).to_bits(), "at {x}");
                    }
                }
                let plain = reference_argmin(&it, &polys);
                assert_eq!(it.argmin_plain(), plain, "case {case}");
                let nears = [None, Some(x), Some(u32::MAX)];
                for near in nears {
                    assert_eq!(it.argmin(near), plain, "case {case}, seed near {near:?}");
                }
                // the loops as this CPU runs them, and the portable ones
                check_cost_loops(&it, &polys, cost_candidates);
                check_cost_loops(&it, &polys, cost_tiles::<16>);
            }
        }
    }

    /// An interpolator over `n_act` activities, each with deadline
    /// 100 µs and response `shape(x)` at the analysed points x = 0, 10
    /// and 20, so every activity interpolates the same quadratic.
    fn interpolator(n_act: usize, pending: &[u32], shape: impl Fn(f64) -> f64) -> Interpolator {
        let mut candidates = vec![0u32, 10, 20];
        candidates.extend(pending);
        candidates.sort_unstable();
        let mut it = Interpolator {
            deadlines: vec![100.0; n_act],
            pending: candidates,
            ..Interpolator::default()
        };
        for x in [0u32, 10, 20] {
            let r = Time::from_us(shape(f64::from(x)));
            it.analysed(x, Some(&vec![r; n_act]));
        }
        assert_eq!(it.len(), 3);
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
