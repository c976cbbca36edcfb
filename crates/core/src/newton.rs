//! Newton divided-difference interpolation for the curve-fitting
//! heuristic (Section 6.2.1).
//!
//! The paper interpolates message response times over a handful of
//! analysed dynamic-segment lengths with a Newton polynomial, "which is
//! extremely fast, in particular when recalculating the values after a
//! new point has been added".

/// A Newton-form interpolation polynomial over sample points
/// `(x_i, y_i)`.
///
/// # Examples
///
/// ```
/// use flexray_opt::NewtonPoly;
///
/// // Three samples of 2x^2 + 1 determine it: the interpolant
/// // reproduces the quadratic away from the samples too.
/// let mut p = NewtonPoly::new();
/// p.add_point(0.0, 1.0);
/// p.add_point(1.0, 3.0);
/// p.add_point(2.0, 9.0);
/// assert_eq!(p.eval(3.0), 19.0);
///
/// // `eval_many` evaluates many abscissae at once, bit for bit as `eval`.
/// let mut out = [0.0; 2];
/// p.eval_many(&[-1.0, 0.5], &mut out);
/// assert_eq!(out, [p.eval(-1.0), p.eval(0.5)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NewtonPoly {
    xs: Vec<f64>,
    /// Divided-difference coefficients `f[x0], f[x0,x1], ...`.
    coeffs: Vec<f64>,
    /// Last diagonal of the divided-difference table, needed to extend
    /// incrementally.
    diagonal: Vec<f64>,
}

impl NewtonPoly {
    /// An empty polynomial (no points yet; [`NewtonPoly::eval`] returns
    /// 0 until a point is added).
    #[must_use]
    pub fn new() -> Self {
        NewtonPoly::default()
    }

    /// Number of sample points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// `true` if no points have been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Removes every point, keeping the buffers for a refill.
    pub fn clear(&mut self) {
        self.xs.clear();
        self.coeffs.clear();
        self.diagonal.clear();
    }

    /// Adds a sample point, updating the divided differences in `O(n)`
    /// in place.
    ///
    /// # Panics
    ///
    /// Panics if `x` duplicates an existing sample abscissa.
    pub fn add_point(&mut self, x: f64, y: f64) {
        assert!(
            self.xs.iter().all(|&xi| (xi - x).abs() > f64::EPSILON),
            "duplicate interpolation point x = {x}"
        );
        // Extend the divided-difference diagonal:
        // new_diag[0] = y; new_diag[k] = (new_diag[k-1] - old_diag[k-1]) /
        // (x - xs[n-k]).
        let n = self.xs.len();
        let mut prev = y;
        for k in 1..=n {
            let old = std::mem::replace(&mut self.diagonal[k - 1], prev);
            prev = (prev - old) / (x - self.xs[n - k]);
        }
        self.diagonal.push(prev);
        self.coeffs.push(prev);
        self.xs.push(x);
    }

    /// Evaluates the polynomial at `x` (Horner over the Newton basis).
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        let mut acc = 0.0;
        for i in (0..self.coeffs.len()).rev() {
            acc = acc * (x - self.xs[i]) + self.coeffs[i];
        }
        acc
    }

    /// Evaluates the polynomial at every `xs[j]` into `out[j]`: the
    /// Horner steps of [`NewtonPoly::eval`] transposed, so the chains of
    /// different abscissae are independent and vectorise. Each `out[j]`
    /// is bit for bit `self.eval(xs[j])`: the same operations in the
    /// same order, and Rust never contracts `a * b + c` into a fused
    /// multiply-add.
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `out` differ in length.
    pub fn eval_many(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "one output per abscissa");
        out.fill(0.0);
        for (&xi, &c) in self.xs.iter().zip(&self.coeffs).rev() {
            for (acc, &x) in out.iter_mut().zip(xs) {
                *acc = *acc * (x - xi) + c;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_sample_points() {
        let mut p = NewtonPoly::new();
        let pts = [(1.0, 4.0), (2.0, -1.0), (5.0, 2.5), (7.0, 0.0)];
        for &(x, y) in &pts {
            p.add_point(x, y);
        }
        for &(x, y) in &pts {
            assert!((p.eval(x) - y).abs() < 1e-9, "at {x}");
        }
    }

    #[test]
    fn interpolates_quadratic_exactly() {
        let f = |x: f64| 3.0 * x * x - 2.0 * x + 7.0;
        let mut p = NewtonPoly::new();
        for x in [0.0, 4.0, 9.0] {
            p.add_point(x, f(x));
        }
        for x in [-2.0, 1.5, 20.0] {
            assert!((p.eval(x) - f(x)).abs() < 1e-6, "at {x}");
        }
    }

    #[test]
    fn incremental_matches_batch() {
        let f = |x: f64| x.powi(3) - 4.0 * x + 1.0;
        let mut incremental = NewtonPoly::new();
        for x in [0.0, 1.0, 3.0, 6.0] {
            incremental.add_point(x, f(x));
        }
        // a cubic through 4 points is exact
        assert!((incremental.eval(2.0) - f(2.0)).abs() < 1e-9);
        // adding a redundant 5th point keeps it exact
        incremental.add_point(10.0, f(10.0));
        assert!((incremental.eval(2.0) - f(2.0)).abs() < 1e-6);
    }

    #[test]
    fn empty_and_constant() {
        let mut p = NewtonPoly::new();
        assert!(p.is_empty());
        assert_eq!(p.eval(5.0), 0.0);
        p.add_point(2.0, 42.0);
        assert_eq!(p.len(), 1);
        assert_eq!(p.eval(100.0), 42.0);
    }

    fn sample_poly(pts: &[(f64, f64)]) -> NewtonPoly {
        let mut p = NewtonPoly::new();
        for &(x, y) in pts {
            p.add_point(x, y);
        }
        p
    }

    /// Response-time-like samples over DYN lengths: high degree, uneven
    /// spacing.
    const SAMPLES: [(f64, f64); 9] = [
        (12.0, 5321.125),
        (40.0, 4410.5),
        (77.0, 3912.0),
        (103.0, 4020.75),
        (150.0, 4801.0),
        (171.0, 5123.5),
        (208.0, 6200.25),
        (240.0, 7001.0),
        (263.0, 7744.125),
    ];

    #[test]
    fn eval_many_is_bitwise_eval() {
        let p = sample_poly(&SAMPLES);
        // inside the samples, on them, and extrapolated far outside,
        // where the high-degree terms blow up
        let xs: Vec<f64> = (0..300)
            .map(f64::from)
            .chain([-1e6, -5000.0, 1e4, 1e7, 3.5e300])
            .collect();
        let mut out = vec![f64::NAN; xs.len()];
        p.eval_many(&xs, &mut out);
        for (&x, &v) in xs.iter().zip(&out) {
            assert_eq!(v.to_bits(), p.eval(x).to_bits(), "at {x}");
        }
        // an empty polynomial evaluates to 0 everywhere, as `eval` does
        NewtonPoly::new().eval_many(&xs, &mut out);
        assert!(out.iter().all(|&v| v.to_bits() == 0.0f64.to_bits()));
    }

    #[test]
    fn cleared_and_refilled_is_bitwise_fresh() {
        let fresh = sample_poly(&SAMPLES[..7]);
        // a larger fill first, so the refill runs over stale buffers
        let mut reused = sample_poly(&SAMPLES);
        reused.clear();
        assert!(reused.is_empty());
        assert_eq!(reused.eval(50.0), 0.0);
        for &(x, y) in &SAMPLES[..7] {
            reused.add_point(x, y);
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&reused.xs), bits(&fresh.xs));
        assert_eq!(bits(&reused.coeffs), bits(&fresh.coeffs));
        assert_eq!(bits(&reused.diagonal), bits(&fresh.diagonal));
        for x in [0.0, 99.5, 1e5] {
            assert_eq!(reused.eval(x).to_bits(), fresh.eval(x).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "duplicate interpolation point")]
    fn duplicate_x_rejected() {
        let mut p = NewtonPoly::new();
        p.add_point(1.0, 1.0);
        p.add_point(1.0, 2.0);
    }
}
