//! Division by an invariant integer without a divide instruction.
//!
//! The busy-window kernels divide by the same few numbers over and over:
//! every arrival count `⌈max(t + J, 0)/T⌉` divides by a member's period,
//! and every slack lookup of an [`Availability`](crate::Availability)
//! divides by the node's hyperperiod or its free time per hyperperiod.
//! Those divisors are fixed per application or per availability, so each
//! is kept as a [`Divisor`]: the divisor plus a multiply-shift reciprocal
//! (Granlund & Montgomery, *Division by Invariant Integers using
//! Multiplication*, PLDI 1994), whose quotient is one 64×64→128-bit
//! multiply and a shift instead of a 64-bit divide.

use flexray_model::Time;

/// A positive divisor `d` with its reciprocal `m = ⌈2^(63+ℓ)/d⌉`,
/// `ℓ = ⌈log₂ d⌉`.
///
/// Then `2^(63+ℓ) ≤ m·d < 2^(63+ℓ) + d ≤ 2^(63+ℓ) + 2^ℓ`, which makes
/// `⌊n·m / 2^(63+ℓ)⌋ = ⌊n/d⌋` for every `0 ≤ n < 2^63` (Theorem 4.2 of
/// the paper, with `N = 63`), and `d > 2^(ℓ−1)` keeps `m` below `2^64`.
/// Debug builds check every quotient against `/`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Divisor {
    d: Time,
    m: u64,
    /// `63 + ℓ`.
    shift: u32,
}

impl Divisor {
    /// The reciprocal of `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is not positive.
    pub(crate) fn new(d: Time) -> Self {
        assert!(d > Time::ZERO, "divisor {d} is not positive");
        let du = d.as_ns().unsigned_abs();
        let log = u64::BITS - (du - 1).leading_zeros();
        let shift = 63 + log;
        let m = (1u128 << shift).div_ceil(u128::from(du));
        Divisor {
            d,
            m: u64::try_from(m).expect("reciprocal below 2^64"),
            shift,
        }
    }

    /// The divisor `d`.
    pub(crate) fn get(self) -> Time {
        self.d
    }

    /// `⌊n/d⌋` of a non-negative `n`.
    fn floor_non_negative(self, n: i64) -> i64 {
        debug_assert!(n >= 0, "negative dividend {n}");
        let q = (u128::from(n.unsigned_abs()) * u128::from(self.m)) >> self.shift;
        let q = q as i64;
        debug_assert_eq!(
            q,
            n / self.d.as_ns(),
            "reciprocal quotient of {n}/{}",
            self.d
        );
        q
    }

    /// `⌊n/d⌋`, rounding towards −∞ for negative `n` too.
    pub(crate) fn div_floor(self, n: Time) -> i64 {
        let n = n.as_ns();
        if n >= 0 {
            self.floor_non_negative(n)
        } else {
            // ⌊n/d⌋ = −⌊(−n−1)/d⌋ − 1, and −n−1 = !n never overflows.
            -self.floor_non_negative(!n) - 1
        }
    }

    /// `⌈n/d⌉` of a positive `n`.
    pub(crate) fn div_ceil_positive(self, n: Time) -> i64 {
        debug_assert!(n > Time::ZERO, "non-positive dividend {n}");
        self.floor_non_negative(n.as_ns() - 1) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::JitterSpan;
    use flexray_gen::{cruise_controller, fig7_system, generate, GeneratorConfig};
    use flexray_model::Application;

    /// A small deterministic generator (SplitMix64).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn periods_of(app: &Application, out: &mut Vec<i64>) {
        out.extend(app.graphs().iter().map(|g| g.period.as_ns()));
        out.push(app.hyperperiod().expect("hyperperiod").as_ns());
    }

    /// Every period (and hyperperiod) the generator, `fig7` and `cruise`
    /// use, plus seeded random periods in `[1 ns, 2^40 ns]` and the
    /// extremes of the divisor range.
    fn divisors() -> Vec<i64> {
        let mut out = vec![1, 2, 3, 7, 1 << 40, (1 << 62) + 1, i64::MAX - 1, i64::MAX];
        for n in [2, 3, 4, 5] {
            for seed in 0..4 {
                let g = generate(&GeneratorConfig::paper(n), seed).expect("generated");
                periods_of(&g.app, &mut out);
            }
        }
        periods_of(&fig7_system().expect("fig7").1, &mut out);
        periods_of(&cruise_controller(500.0).expect("cruise").1, &mut out);
        let mut state = 40;
        out.extend((0..64).map(|_| 1 + (splitmix(&mut state) % (1 << 40)) as i64));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// `0, 1, d−1, d, d+1, k·d ± 1`, `2^62`, `i64::MAX` and seeded
    /// randoms, all clipped to `[0, i64::MAX]`.
    fn dividends(d: i64, state: &mut u64) -> Vec<i64> {
        let mut out = vec![0, 1, d - 1, d, d.saturating_add(1), 1 << 62, i64::MAX];
        for k in [2, 3, 1000, 1 << 20] {
            let kd = d.saturating_mul(k);
            out.extend([kd - 1, kd, kd.saturating_add(1)]);
        }
        out.extend((0..32).map(|_| (splitmix(state) >> 1) as i64));
        out.extend((0..32).map(|_| (splitmix(state) % (1 << 45)) as i64));
        out
    }

    #[test]
    fn reciprocal_quotient_equals_division() {
        let mut state = 7;
        for d in divisors() {
            let div = Divisor::new(Time::from_ns(d));
            assert_eq!(div.get(), Time::from_ns(d));
            for n in dividends(d, &mut state) {
                assert_eq!(div.floor_non_negative(n), n / d, "{n} / {d}");
                assert_eq!(
                    div.div_floor(Time::from_ns(n)),
                    Time::from_ns(n).div_floor(Time::from_ns(d))
                );
                let neg = Time::from_ns(-n - 1);
                assert_eq!(div.div_floor(neg), neg.div_floor(Time::from_ns(d)), "{neg}");
                if n > 0 {
                    let t = Time::from_ns(n);
                    assert_eq!(div.div_ceil_positive(t), t.div_ceil(Time::from_ns(d)));
                }
            }
            let min = Time::from_ns(i64::MIN);
            assert_eq!(div.div_floor(min), min.div_floor(Time::from_ns(d)));
        }
    }

    #[test]
    #[should_panic(expected = "not positive")]
    fn zero_divisor_is_rejected() {
        let _ = Divisor::new(Time::ZERO);
    }

    #[test]
    fn arrivals_match_the_plain_count_and_span() {
        // The count and `(lo, hi]` of the plain `⌈max(x, 0)/T⌉`, x = t + J.
        fn plain(t: Time, jitter: Time, period: Time) -> (i64, (Time, Time)) {
            let a = (t + jitter).clamp_non_negative().div_ceil(period);
            let mut span = JitterSpan::ANY.bounds();
            if a == 0 {
                span.1 = span.1.min(-t);
            } else {
                span.0 = span.0.max(period * (a - 1) - t);
                span.1 = span.1.min(period * a - t);
            }
            (a, span)
        }
        let mut state = 11;
        for d in divisors().into_iter().filter(|&d| d <= 1 << 40) {
            let period = Time::from_ns(d);
            let div = Divisor::new(period);
            let t = Time::from_ns((splitmix(&mut state) % (1 << 20)) as i64);
            let mut xs = vec![-d, -1, 0, 1, d - 1, d, d + 1, 2 * d, 2 * d + 1];
            xs.extend([7 * d, 7 * d + 1, 1000 * d, 1000 * d + 1]);
            for x in xs {
                let jitter = Time::from_ns(x) - t;
                let mut span = JitterSpan::ANY;
                let a = span.arrivals(t, jitter, div);
                assert_eq!(
                    (a, span.bounds()),
                    plain(t, jitter, period),
                    "x = {x}, T = {d}"
                );
                assert!(span.contains(jitter));
            }
        }
    }
}
