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
/// // f[x0] = 1, f[x0,x1] = 2, f[x0,x1,x2] = 2
/// assert_eq!(p.coeffs(), [1.0, 2.0, 2.0]);
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

    /// The divided-difference coefficients `f[x0], f[x0,x1], ...`, one
    /// per point in insertion order.
    #[must_use]
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
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

    #[test]
    #[should_panic(expected = "duplicate interpolation point")]
    fn duplicate_x_rejected() {
        let mut p = NewtonPoly::new();
        p.add_point(1.0, 1.0);
        p.add_point(1.0, 2.0);
    }
}
