//! CPU availability: the slack the static schedule leaves to FPS tasks.
//!
//! FPS tasks "can only be executed in the slack of the SCS schedule
//! table" (Section 2). This module turns the busy windows of a node into
//! a queryable availability function that repeats with the hyperperiod.

use crate::divisor::Divisor;
use flexray_model::Time;

/// The periodic availability of one node: busy windows over one
/// hyperperiod, repeating forever.
///
/// Alongside each window it keeps the free time before the window's
/// start, so the cumulative free time up to any instant — and its
/// inverse — is a binary search plus the number of whole periods before
/// it (see [`Availability::advance`] and [`Availability::free_between`]).
/// That number multiplies by the reciprocal of the hyperperiod (or of the
/// free time per hyperperiod) kept beside it instead of dividing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Availability {
    horizon: Divisor,
    /// Sorted, disjoint busy windows within `[0, horizon)`.
    windows: Vec<Window>,
    /// Free time per hyperperiod; `None` on a node without slack.
    free: Option<Divisor>,
}

/// One busy window and the free time that precedes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Window {
    start: Time,
    end: Time,
    /// Free time in `[0, start)`.
    free_before: Time,
}

impl Availability {
    /// Builds the availability from merged busy windows (as produced by
    /// [`ScheduleTable::busy_windows`](crate::ScheduleTable::busy_windows)).
    ///
    /// # Panics
    ///
    /// Panics if the horizon is not positive or a window exceeds it.
    #[must_use]
    pub fn new(horizon: Time, windows: Vec<(Time, Time)>) -> Self {
        let mut avail = Availability::idle(horizon);
        avail.refill(horizon, &windows);
        avail
    }

    /// A node with no static load.
    #[must_use]
    pub fn idle(horizon: Time) -> Self {
        assert!(horizon > Time::ZERO, "horizon must be positive");
        let horizon = Divisor::new(horizon);
        Availability {
            horizon,
            windows: Vec::new(),
            free: Some(horizon),
        }
    }

    /// Rebuilds `self` as [`Availability::new`]`(horizon, windows)`,
    /// reusing its buffer.
    ///
    /// # Panics
    ///
    /// As [`Availability::new`].
    pub(crate) fn refill(&mut self, horizon: Time, windows: &[(Time, Time)]) {
        assert!(horizon > Time::ZERO, "horizon must be positive");
        debug_assert!(
            windows.windows(2).all(|w| w[0].1 <= w[1].0),
            "windows sorted"
        );
        self.horizon = Divisor::new(horizon);
        self.windows.clear();
        let mut busy = Time::ZERO;
        for &(start, end) in windows {
            assert!(
                Time::ZERO <= start && start <= end && end <= horizon,
                "window out of range"
            );
            self.windows.push(Window {
                start,
                end,
                free_before: start - busy,
            });
            busy += end - start;
        }
        let free = horizon - busy;
        self.free = (free > Time::ZERO).then(|| Divisor::new(free));
    }

    /// The repeating period of the availability pattern.
    #[must_use]
    pub fn horizon(&self) -> Time {
        self.horizon.get()
    }

    /// Total free time per hyperperiod.
    #[must_use]
    pub fn free_per_period(&self) -> Time {
        self.free.map_or(Time::ZERO, Divisor::get)
    }

    /// Earliest start `s ≥ from` of a contiguous free interval of length
    /// `len` that ends no later than `deadline_abs` (both absolute times
    /// within the first hyperperiod; used for non-preemptive SCS
    /// placement).
    ///
    /// Returns `None` if no such gap exists within `[from, deadline_abs]`.
    #[must_use]
    pub fn first_gap(&self, from: Time, len: Time, deadline_abs: Time) -> Option<Time> {
        let mut candidate = from.max(Time::ZERO);
        for w in &self.windows {
            if w.end <= candidate {
                continue;
            }
            if candidate + len <= w.start {
                break; // fits before this window
            }
            candidate = candidate.max(w.end);
        }
        (candidate + len <= deadline_abs).then_some(candidate)
    }

    /// Completion time of `demand` units of execution started (and
    /// preemptable) at absolute time `start`: the earliest `c` with
    /// `free_between(start, c) = demand`.
    ///
    /// Returns `None` once the walk passes `limit` (divergence guard —
    /// e.g. a node whose table leaves no slack). Exactly: the
    /// free time of each hyperperiod splits into stretches between busy
    /// windows and period boundaries, and the result is `None` iff the
    /// stretch in which the demand completes, clipped to `start`, begins
    /// after `limit`. A positive demand on a node without slack is always
    /// `None`.
    #[must_use]
    pub fn advance(&self, start: Time, demand: Time, limit: Time) -> Option<Time> {
        self.advance_from(start, self.free_until(start), demand, limit)
    }

    /// [`Availability::advance`] with the free time up to `start`
    /// already known: `free_at_start` must be `free_until(start)`, as
    /// [`Availability::window_starts`] hands it out with each start.
    pub(crate) fn advance_from(
        &self,
        start: Time,
        free_at_start: Time,
        demand: Time,
        limit: Time,
    ) -> Option<Time> {
        debug_assert_eq!(free_at_start, self.free_until(start), "stale free time");
        if demand <= Time::ZERO {
            return Some(start);
        }
        let free = self.free?;
        let target = free_at_start + demand;
        // The completion lies `r` free units into the period `k` with
        // `k·F < target ≤ (k+1)·F`, in the free stretch that ends at the
        // first window with at least `r` free time before it (or at the
        // horizon).
        let k = free.div_floor(target - Time::NANOSECOND);
        let r = target - free.get() * k;
        let j = self.windows.partition_point(|w| w.free_before < r);
        let (stretch, free_at_stretch) = match j.checked_sub(1) {
            Some(i) => (self.windows[i].end, self.windows[i].free_before),
            None => (Time::ZERO, Time::ZERO),
        };
        let stretch = self.horizon.get() * k + stretch;
        if stretch.max(start) > limit {
            return None;
        }
        Some(stretch + (r - free_at_stretch))
    }

    /// Amount of free (non-SCS) time in the absolute interval `[a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if `b < a`.
    #[must_use]
    pub fn free_between(&self, a: Time, b: Time) -> Time {
        assert!(b >= a, "interval end before start");
        self.free_until(b) - self.free_until(a)
    }

    /// Free time in `[0, t)` (negative for `t < 0`): whole periods plus
    /// the free time of the last partial one.
    pub(crate) fn free_until(&self, t: Time) -> Time {
        let k = self.horizon.div_floor(t);
        let local = t - self.horizon.get() * k;
        let j = self.windows.partition_point(|w| w.start <= local);
        let partial = match j.checked_sub(1) {
            Some(i) => {
                let w = &self.windows[i];
                w.free_before + (local - w.end).clamp_non_negative()
            }
            None => local,
        };
        self.free_per_period() * k + partial
    }

    /// The busy windows `(start, end)` of one hyperperiod.
    #[cfg(debug_assertions)]
    pub(crate) fn windows(&self) -> impl Iterator<Item = (Time, Time)> + '_ {
        self.windows.iter().map(|w| (w.start, w.end))
    }

    /// Critical instants of the FPS busy-window analysis: every
    /// busy-window start, or just `0` on a node without windows.
    ///
    /// These are the only arrivals the worst case needs. The supply
    /// `free_between(x, x + t)` does not increase while `x` moves through
    /// free time (each step gives up a free unit at the front and gains
    /// at most one at the back), and does not decrease while `x` moves
    /// through a busy window (it gives up nothing at the front). So every
    /// arrival `x` has, for every `t` at once, at least the supply of one
    /// window start: the next one at or after `x` if `x` is free, the
    /// start of its own window if `x` is busy. Less supply means a larger
    /// least fixed point of the busy window, infinite included, so the
    /// worst response, and any divergence, is found at a window start.
    /// On a node without windows every arrival sees the same supply.
    ///
    /// Most starts need no busy window of their own, though: a start
    /// whose supply over the worst response found so far already covers
    /// the demand at that response cannot exceed it, and the analysis
    /// settles it with that one supply check (see the `fps` module).
    pub fn critical_instants(&self) -> impl Iterator<Item = Time> + '_ {
        self.window_starts().map(|(start, _)| start)
    }

    /// [`Availability::critical_instants`] paired with the free time
    /// before each, `free_until(start)`, which every window keeps.
    pub(crate) fn window_starts(&self) -> impl Iterator<Item = (Time, Time)> + '_ {
        let idle = self.windows.is_empty().then_some((Time::ZERO, Time::ZERO));
        idle.into_iter()
            .chain(self.windows.iter().map(|w| (w.start, w.free_before)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: f64) -> Time {
        Time::from_us(v)
    }

    fn avail() -> Availability {
        // horizon 100, busy [10,30) and [50,60)
        Availability::new(us(100.0), vec![(us(10.0), us(30.0)), (us(50.0), us(60.0))])
    }

    #[test]
    fn budget_accounting() {
        let a = avail();
        assert_eq!(a.free_per_period(), us(70.0));
    }

    #[test]
    fn first_gap_respects_windows() {
        let a = avail();
        // a 10-unit gap from 0 fits at 0
        assert_eq!(a.first_gap(us(0.0), us(10.0), us(100.0)), Some(us(0.0)));
        // an 11-unit gap from 0 must wait until 30
        assert_eq!(a.first_gap(us(0.0), us(11.0), us(100.0)), Some(us(30.0)));
        // a gap starting inside a window starts at its end
        assert_eq!(a.first_gap(us(12.0), us(5.0), us(100.0)), Some(us(30.0)));
        // too long to fit before the deadline
        assert_eq!(a.first_gap(us(60.0), us(41.0), us(100.0)), None);
    }

    #[test]
    fn advance_consumes_free_time() {
        let a = avail();
        // from 0: 10 free until 10, then busy to 30
        assert_eq!(a.advance(us(0.0), us(5.0), us(1000.0)), Some(us(5.0)));
        assert_eq!(a.advance(us(0.0), us(10.0), us(1000.0)), Some(us(10.0)));
        assert_eq!(a.advance(us(0.0), us(11.0), us(1000.0)), Some(us(31.0)));
        // starting inside a busy window
        assert_eq!(a.advance(us(15.0), us(2.0), us(1000.0)), Some(us(32.0)));
        // crossing the second window
        assert_eq!(a.advance(us(30.0), us(25.0), us(1000.0)), Some(us(65.0)));
    }

    #[test]
    fn advance_wraps_to_next_period() {
        let a = avail();
        // 70 free per period; ask for 100 starting at 0:
        // 70 in period one is done at 100; 30 more in period two:
        // free [100,110) gives 10, busy to 130, free [130,150) gives 20 -> 150
        assert_eq!(a.advance(us(0.0), us(100.0), us(10_000.0)), Some(us(150.0)));
    }

    #[test]
    fn advance_diverges_on_saturated_node() {
        let full = Availability::new(us(10.0), vec![(us(0.0), us(10.0))]);
        assert_eq!(full.advance(us(0.0), us(1.0), us(1000.0)), None);
    }

    #[test]
    fn advance_zero_demand_is_identity() {
        let a = avail();
        assert_eq!(a.advance(us(42.0), Time::ZERO, us(100.0)), Some(us(42.0)));
    }

    #[test]
    fn critical_instants_cover_boundaries() {
        let a = avail();
        assert_eq!(
            a.critical_instants().collect::<Vec<_>>(),
            vec![us(10.0), us(50.0)]
        );
        // a window at 0 is itself the first start
        let at_zero = Availability::new(us(100.0), vec![(us(0.0), us(5.0)), (us(40.0), us(100.0))]);
        assert_eq!(
            at_zero.critical_instants().collect::<Vec<_>>(),
            vec![us(0.0), us(40.0)]
        );
    }

    #[test]
    fn free_between_counts_slack() {
        let a = avail();
        assert_eq!(a.free_between(us(0.0), us(10.0)), us(10.0));
        assert_eq!(a.free_between(us(0.0), us(30.0)), us(10.0));
        // [5,55): busy [10,30) and [50,55) -> 25 busy, 25 free
        assert_eq!(a.free_between(us(5.0), us(55.0)), us(25.0));
        // across the period boundary: [60,100) free (40) + [100,110) free
        assert_eq!(a.free_between(us(60.0), us(110.0)), us(50.0));
        assert_eq!(a.free_between(us(15.0), us(15.0)), Time::ZERO);
    }

    #[test]
    fn refill_equals_new() {
        let mut a = avail();
        for (h, w) in [
            (us(80.0), vec![(us(5.0), us(6.0)), (us(6.0), us(30.0))]),
            (us(10.0), vec![]),
            (us(30.0), vec![(us(0.0), us(30.0))]),
        ] {
            a.refill(h, &w);
            assert_eq!(a, Availability::new(h, w));
        }
    }

    #[test]
    fn idle_node_is_trivially_free() {
        let a = Availability::idle(us(10.0));
        assert_eq!(a.advance(us(3.0), us(100.0), us(10_000.0)), Some(us(103.0)));
        assert_eq!(a.critical_instants().collect::<Vec<_>>(), vec![Time::ZERO]);
    }
}
