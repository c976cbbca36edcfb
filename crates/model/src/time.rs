//! Integer time arithmetic.
//!
//! All protocol and application quantities are represented as an exact
//! number of nanoseconds inside a [`Time`] newtype. The schedulers and the
//! schedulability analysis never touch floating point; fractional
//! microsecond inputs (the paper quotes e.g. a DYN segment of 2285.4 µs)
//! are converted once, on construction.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Neg, Rem, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// A signed time value or duration with nanosecond resolution.
///
/// `Time` is used both for instants (offsets from the start of the
/// schedule table) and durations; the analysis code never needs to
/// distinguish them and a single type keeps the arithmetic simple.
/// Negative values are permitted — they appear transiently as laxities
/// (`R - D`) in the cost function of Eq. (5).
///
/// # Examples
///
/// ```
/// use flexray_model::Time;
///
/// let slot = Time::from_us(8.0);
/// let cycle = slot * 2 + Time::from_us(4.0);
/// assert_eq!(cycle.as_us(), 20.0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Time(i64);

impl Time {
    /// Zero-length duration / origin instant.
    pub const ZERO: Time = Time(0);
    /// Largest representable time; used as "unschedulable / never".
    pub const MAX: Time = Time(i64::MAX);
    /// One nanosecond.
    pub const NANOSECOND: Time = Time(1);
    /// One microsecond.
    pub const MICROSECOND: Time = Time(1_000);
    /// One millisecond.
    pub const MILLISECOND: Time = Time(1_000_000);

    /// Creates a time from integer nanoseconds.
    #[must_use]
    pub const fn from_ns(ns: i64) -> Self {
        Time(ns)
    }

    /// Creates a time from a (possibly fractional) number of microseconds.
    ///
    /// The value is rounded to the nearest nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `us` is not finite or overflows the `i64` nanosecond range.
    #[must_use]
    pub fn from_us(us: f64) -> Self {
        assert!(us.is_finite(), "time must be finite, got {us}");
        let ns = (us * 1_000.0).round();
        assert!(
            ns >= i64::MIN as f64 && ns <= i64::MAX as f64,
            "time out of range: {us} µs"
        );
        Time(ns as i64)
    }

    /// Creates a time from integer milliseconds.
    #[must_use]
    pub const fn from_ms(ms: i64) -> Self {
        Time(ms * 1_000_000)
    }

    /// The raw nanosecond count.
    #[must_use]
    pub const fn as_ns(self) -> i64 {
        self.0
    }

    /// The value in microseconds (lossy, for reporting only).
    #[must_use]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// `true` if the value is exactly zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// `true` if the value is negative.
    #[must_use]
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Saturating addition (sticks at [`Time::MAX`]).
    #[must_use]
    pub const fn saturating_add(self, rhs: Time) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }

    /// Saturating multiplication by an integer factor.
    #[must_use]
    pub const fn saturating_mul(self, k: i64) -> Time {
        Time(self.0.saturating_mul(k))
    }

    /// `max(self, ZERO)` — clamps negative laxities to zero.
    #[must_use]
    pub const fn clamp_non_negative(self) -> Time {
        if self.0 < 0 {
            Time::ZERO
        } else {
            self
        }
    }

    /// Number of whole `unit`s contained in `self`, rounding up.
    ///
    /// This is the ubiquitous `⌈t / T⌉` of response-time analysis.
    ///
    /// # Panics
    ///
    /// Panics if `unit` is not strictly positive or `self` is negative.
    #[must_use]
    pub fn div_ceil(self, unit: Time) -> i64 {
        assert!(unit.0 > 0, "div_ceil by non-positive time {unit}");
        assert!(self.0 >= 0, "div_ceil of negative time {self}");
        self.0.div_euclid(unit.0) + i64::from(self.0.rem_euclid(unit.0) != 0)
    }

    /// Number of whole `unit`s contained in `self`, rounding down.
    ///
    /// # Panics
    ///
    /// Panics if `unit` is not strictly positive.
    #[must_use]
    pub fn div_floor(self, unit: Time) -> i64 {
        assert!(unit.0 > 0, "div_floor by non-positive time {unit}");
        self.0.div_euclid(unit.0)
    }

    /// Rounds `self` up to the next multiple of `unit`.
    ///
    /// # Panics
    ///
    /// Panics if `unit` is not strictly positive or `self` is negative.
    #[must_use]
    pub fn round_up_to(self, unit: Time) -> Time {
        Time(self.div_ceil(unit) * unit.0)
    }

    /// Least common multiple of two strictly positive times.
    ///
    /// Returns `None` on overflow.
    #[must_use]
    pub fn lcm(self, other: Time) -> Option<Time> {
        if self.0 <= 0 || other.0 <= 0 {
            return None;
        }
        let g = gcd(self.0, other.0);
        (self.0 / g).checked_mul(other.0).map(Time)
    }
}

/// Greatest common divisor of two positive integers.
fn gcd(mut a: i64, mut b: i64) -> i64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 % 1_000 == 0 {
            write!(f, "{}µs", self.0 / 1_000)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}

impl Neg for Time {
    type Output = Time;
    fn neg(self) -> Time {
        Time(-self.0)
    }
}

impl Mul<i64> for Time {
    type Output = Time;
    fn mul(self, rhs: i64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Mul<Time> for i64 {
    type Output = Time;
    fn mul(self, rhs: Time) -> Time {
        Time(self * rhs.0)
    }
}

impl Div<Time> for Time {
    type Output = i64;
    /// Truncating division: how many whole `rhs` fit in `self`.
    fn div(self, rhs: Time) -> i64 {
        self.0 / rhs.0
    }
}

impl Div<i64> for Time {
    type Output = Time;
    fn div(self, rhs: i64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Rem<Time> for Time {
    type Output = Time;
    fn rem(self, rhs: Time) -> Time {
        Time(self.0 % rhs.0)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(Time::from_us(8.0).as_ns(), 8_000);
        assert_eq!(Time::from_ms(16).as_us(), 16_000.0);
        assert_eq!(Time::from_ns(1).as_ns(), 1);
        assert_eq!(Time::from_us(2285.4).as_ns(), 2_285_400);
    }

    #[test]
    fn fractional_us_rounds_to_nearest_ns() {
        assert_eq!(Time::from_us(0.000_4).as_ns(), 0);
        assert_eq!(Time::from_us(0.000_6).as_ns(), 1);
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_us(10.0);
        let b = Time::from_us(4.0);
        assert_eq!((a + b).as_us(), 14.0);
        assert_eq!((a - b).as_us(), 6.0);
        assert_eq!((a * 3).as_us(), 30.0);
        assert_eq!(a / b, 2);
        assert_eq!((a % b).as_us(), 2.0);
        assert_eq!(-(a - b), b - a);
    }

    #[test]
    fn div_ceil_and_floor() {
        let t = Time::from_ns(10);
        let u = Time::from_ns(4);
        assert_eq!(t.div_ceil(u), 3);
        assert_eq!(t.div_floor(u), 2);
        assert_eq!(Time::ZERO.div_ceil(u), 0);
        assert_eq!(Time::from_ns(8).div_ceil(u), 2);
    }

    #[test]
    #[should_panic(expected = "div_ceil by non-positive")]
    fn div_ceil_rejects_zero_unit() {
        let _ = Time::from_ns(1).div_ceil(Time::ZERO);
    }

    #[test]
    fn round_up() {
        let u = Time::from_us(5.0);
        assert_eq!(Time::from_us(12.0).round_up_to(u), Time::from_us(15.0));
        assert_eq!(Time::from_us(15.0).round_up_to(u), Time::from_us(15.0));
        assert_eq!(Time::ZERO.round_up_to(u), Time::ZERO);
    }

    #[test]
    fn lcm_basic() {
        let a = Time::from_us(6.0);
        let b = Time::from_us(4.0);
        assert_eq!(a.lcm(b), Some(Time::from_us(12.0)));
        assert_eq!(a.lcm(Time::ZERO), None);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(Time::MAX.saturating_add(Time::from_ns(1)), Time::MAX);
        assert_eq!(Time::MAX.saturating_mul(2), Time::MAX);
        assert_eq!(Time::from_ns(2).saturating_mul(3), Time::from_ns(6));
    }

    #[test]
    fn clamp_non_negative() {
        assert_eq!((-Time::from_ns(5)).clamp_non_negative(), Time::ZERO);
        assert_eq!(Time::from_ns(5).clamp_non_negative(), Time::from_ns(5));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Time::from_us(8.0).to_string(), "8µs");
        assert_eq!(Time::from_ns(1_500).to_string(), "1500ns");
    }

    #[test]
    fn sum_iterator() {
        let total: Time = [1.0, 2.0, 3.0].iter().map(|&u| Time::from_us(u)).sum();
        assert_eq!(total, Time::from_us(6.0));
    }
}
