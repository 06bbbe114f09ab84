//! Piecewise-linear empirical curves and isotonic regression.
//!
//! The poisoning game consumes two curves estimated from experiments:
//! the poison-point effect `E(p)` and the genuine-removal cost `Γ(p)`.
//! Both arrive as noisy samples at a handful of filter strengths; this
//! module turns them into smooth, monotone, integrable functions.

use crate::error::LinalgError;

/// A piecewise-linear function defined by sorted knots.
///
/// Evaluation clamps outside the knot range (constant extrapolation),
/// which is the conservative choice for empirically-estimated payoff
/// curves.
///
/// # Example
///
/// ```
/// use poisongame_linalg::PiecewiseLinear;
///
/// let f = PiecewiseLinear::new(vec![(0.0, 0.0), (1.0, 2.0)]).unwrap();
/// assert_eq!(f.eval(0.5), 1.0);
/// assert_eq!(f.eval(-1.0), 0.0); // clamped
/// assert_eq!(f.eval(2.0), 2.0);  // clamped
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseLinear {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl PiecewiseLinear {
    /// Build from `(x, y)` knots. Knots are sorted by `x`; exact
    /// duplicates in `x` are averaged in `y`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::EmptyInput`] if no knots are given and
    /// [`LinalgError::NotFinite`] if any coordinate is NaN/∞.
    pub fn new(knots: Vec<(f64, f64)>) -> Result<Self, LinalgError> {
        if knots.is_empty() {
            return Err(LinalgError::EmptyInput);
        }
        for &(x, y) in &knots {
            if !x.is_finite() {
                return Err(LinalgError::NotFinite { what: "x" });
            }
            if !y.is_finite() {
                return Err(LinalgError::NotFinite { what: "y" });
            }
        }
        let mut sorted = knots;
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite by check above"));
        // Collapse duplicate x by averaging y.
        let mut xs: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut ys: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut i = 0;
        while i < sorted.len() {
            let x = sorted[i].0;
            let mut sum = 0.0;
            let mut count = 0usize;
            while i < sorted.len() && sorted[i].0 == x {
                sum += sorted[i].1;
                count += 1;
                i += 1;
            }
            xs.push(x);
            ys.push(sum / count as f64);
        }
        Ok(Self { xs, ys })
    }

    /// Number of knots after dedup.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True if the curve has a single knot (it is then constant).
    pub fn is_empty(&self) -> bool {
        false // construction guarantees at least one knot
    }

    /// The knot x-coordinates (sorted ascending).
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The knot y-coordinates.
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Evaluate at `x` with constant extrapolation outside the knots.
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.xs.len();
        if x <= self.xs[0] {
            return self.ys[0];
        }
        if x >= self.xs[n - 1] {
            return self.ys[n - 1];
        }
        // Binary search for the bracketing interval.
        let idx = match self
            .xs
            .binary_search_by(|probe| probe.partial_cmp(&x).expect("finite"))
        {
            Ok(i) => return self.ys[i],
            Err(i) => i, // xs[i-1] < x < xs[i]
        };
        let (x0, x1) = (self.xs[idx - 1], self.xs[idx]);
        let (y0, y1) = (self.ys[idx - 1], self.ys[idx]);
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }

    /// Exact integral over `[a, b]` (the function is piecewise linear,
    /// so trapezoids over the knots are exact). `a > b` negates.
    pub fn integral(&self, a: f64, b: f64) -> f64 {
        if a == b {
            return 0.0;
        }
        if a > b {
            return -self.integral(b, a);
        }
        // Collect breakpoints inside (a, b).
        let mut points = vec![a];
        for &x in &self.xs {
            if x > a && x < b {
                points.push(x);
            }
        }
        points.push(b);
        let mut total = 0.0;
        for w in points.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            total += 0.5 * (self.eval(lo) + self.eval(hi)) * (hi - lo);
        }
        total
    }

    /// Derivative just after `x` (right derivative); zero outside the
    /// knot range.
    pub fn right_derivative(&self, x: f64) -> f64 {
        let n = self.xs.len();
        if n == 1 || x >= self.xs[n - 1] || x < self.xs[0] {
            return 0.0;
        }
        let idx = match self
            .xs
            .binary_search_by(|probe| probe.partial_cmp(&x).expect("finite"))
        {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let next = (idx + 1).min(n - 1);
        if next == idx {
            return 0.0;
        }
        (self.ys[next] - self.ys[idx]) / (self.xs[next] - self.xs[idx])
    }

    /// Map `y` values through `f`, keeping knot positions.
    pub fn map_values<F: Fn(f64) -> f64>(&self, f: F) -> PiecewiseLinear {
        PiecewiseLinear {
            xs: self.xs.clone(),
            ys: self.ys.iter().map(|&y| f(y)).collect(),
        }
    }

    /// True if knot values are non-decreasing in x.
    pub fn is_non_decreasing(&self) -> bool {
        self.ys.windows(2).all(|w| w[0] <= w[1] + 1e-12)
    }

    /// True if knot values are non-increasing in x.
    pub fn is_non_increasing(&self) -> bool {
        self.ys.windows(2).all(|w| w[0] + 1e-12 >= w[1])
    }

    /// Return a monotone (non-decreasing) fit of this curve obtained by
    /// isotonic regression on the knot values (pool-adjacent-violators).
    pub fn isotonic_increasing(&self) -> PiecewiseLinear {
        PiecewiseLinear {
            xs: self.xs.clone(),
            ys: isotonic_non_decreasing(&self.ys),
        }
    }

    /// Return a monotone (non-increasing) fit of this curve.
    pub fn isotonic_decreasing(&self) -> PiecewiseLinear {
        let negated: Vec<f64> = self.ys.iter().map(|y| -y).collect();
        let fit = isotonic_non_decreasing(&negated);
        PiecewiseLinear {
            xs: self.xs.clone(),
            ys: fit.into_iter().map(|y| -y).collect(),
        }
    }

    /// Smallest `x` in `[lo, hi]` with `eval(x) <= target`, found by
    /// scanning knots and interpolating; `None` if the curve never drops
    /// to `target` on the interval. Intended for monotone curves.
    pub fn first_crossing_below(&self, target: f64, lo: f64, hi: f64) -> Option<f64> {
        let mut grid: Vec<f64> = vec![lo];
        for &x in &self.xs {
            if x > lo && x < hi {
                grid.push(x);
            }
        }
        grid.push(hi);
        let mut prev_x = grid[0];
        let mut prev_y = self.eval(prev_x);
        if prev_y <= target {
            return Some(prev_x);
        }
        for &x in &grid[1..] {
            let y = self.eval(x);
            if y <= target {
                // Linear interpolation between (prev_x, prev_y) and (x, y).
                if (prev_y - y).abs() < 1e-300 {
                    return Some(x);
                }
                let t = (prev_y - target) / (prev_y - y);
                return Some(prev_x + t * (x - prev_x));
            }
            prev_x = x;
            prev_y = y;
        }
        None
    }
}

/// Pool-adjacent-violators algorithm: the non-decreasing sequence
/// minimizing squared distance to `ys` (unit weights).
pub fn isotonic_non_decreasing(ys: &[f64]) -> Vec<f64> {
    // Each block: (sum, count). Merge backwards while the mean ordering
    // is violated.
    let mut sums: Vec<f64> = Vec::with_capacity(ys.len());
    let mut counts: Vec<usize> = Vec::with_capacity(ys.len());
    for &y in ys {
        sums.push(y);
        counts.push(1);
        while sums.len() > 1 {
            let n = sums.len();
            let mean_last = sums[n - 1] / counts[n - 1] as f64;
            let mean_prev = sums[n - 2] / counts[n - 2] as f64;
            if mean_prev <= mean_last {
                break;
            }
            let s = sums.pop().expect("non-empty");
            let c = counts.pop().expect("non-empty");
            let n = sums.len();
            sums[n - 1] += s;
            counts[n - 1] += c;
        }
    }
    let mut out = Vec::with_capacity(ys.len());
    for (s, c) in sums.iter().zip(&counts) {
        let mean = s / *c as f64;
        out.extend(std::iter::repeat(mean).take(*c));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_sorts_and_dedups() {
        let f = PiecewiseLinear::new(vec![(1.0, 10.0), (0.0, 0.0), (1.0, 20.0)]).unwrap();
        assert_eq!(f.xs(), &[0.0, 1.0]);
        assert_eq!(f.ys(), &[0.0, 15.0]);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn construction_rejects_bad_input() {
        assert!(matches!(
            PiecewiseLinear::new(vec![]).unwrap_err(),
            LinalgError::EmptyInput
        ));
        assert!(PiecewiseLinear::new(vec![(f64::NAN, 0.0)]).is_err());
        assert!(PiecewiseLinear::new(vec![(0.0, f64::INFINITY)]).is_err());
    }

    #[test]
    fn eval_interpolates_and_clamps() {
        let f = PiecewiseLinear::new(vec![(0.0, 0.0), (2.0, 4.0), (4.0, 0.0)]).unwrap();
        assert_eq!(f.eval(1.0), 2.0);
        assert_eq!(f.eval(3.0), 2.0);
        assert_eq!(f.eval(2.0), 4.0);
        assert_eq!(f.eval(-5.0), 0.0);
        assert_eq!(f.eval(10.0), 0.0);
    }

    #[test]
    fn single_knot_is_constant() {
        let f = PiecewiseLinear::new(vec![(1.0, 7.0)]).unwrap();
        assert_eq!(f.eval(-100.0), 7.0);
        assert_eq!(f.eval(100.0), 7.0);
        assert_eq!(f.integral(0.0, 2.0), 14.0);
    }

    #[test]
    fn integral_is_exact_for_triangle() {
        let f = PiecewiseLinear::new(vec![(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]).unwrap();
        assert!((f.integral(0.0, 2.0) - 1.0).abs() < 1e-12);
        assert!((f.integral(2.0, 0.0) + 1.0).abs() < 1e-12);
        assert_eq!(f.integral(1.0, 1.0), 0.0);
        // Partial interval.
        assert!((f.integral(0.0, 0.5) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn integral_with_clamped_tails() {
        let f = PiecewiseLinear::new(vec![(0.0, 2.0), (1.0, 2.0)]).unwrap();
        assert!((f.integral(-1.0, 2.0) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn right_derivative_per_segment() {
        let f = PiecewiseLinear::new(vec![(0.0, 0.0), (1.0, 2.0), (3.0, 0.0)]).unwrap();
        assert_eq!(f.right_derivative(0.5), 2.0);
        assert_eq!(f.right_derivative(0.0), 2.0);
        assert_eq!(f.right_derivative(2.0), -1.0);
        assert_eq!(f.right_derivative(5.0), 0.0);
    }

    #[test]
    fn map_values_applies_function() {
        let f = PiecewiseLinear::new(vec![(0.0, 1.0), (1.0, 2.0)]).unwrap();
        let g = f.map_values(|y| 10.0 * y);
        assert_eq!(g.eval(0.5), 15.0);
    }

    #[test]
    fn monotonicity_predicates() {
        let up = PiecewiseLinear::new(vec![(0.0, 0.0), (1.0, 1.0)]).unwrap();
        let down = PiecewiseLinear::new(vec![(0.0, 1.0), (1.0, 0.0)]).unwrap();
        assert!(up.is_non_decreasing());
        assert!(!up.is_non_increasing());
        assert!(down.is_non_increasing());
    }

    #[test]
    fn pava_fixes_violations_minimally() {
        let ys = [1.0, 3.0, 2.0, 4.0];
        let fit = isotonic_non_decreasing(&ys);
        assert_eq!(fit, vec![1.0, 2.5, 2.5, 4.0]);
        // Already monotone input is unchanged.
        let ys2 = [1.0, 2.0, 3.0];
        assert_eq!(isotonic_non_decreasing(&ys2), ys2.to_vec());
    }

    #[test]
    fn pava_all_decreasing_collapses_to_mean() {
        let ys = [3.0, 2.0, 1.0];
        let fit = isotonic_non_decreasing(&ys);
        assert_eq!(fit, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn isotonic_decreasing_mirrors_increasing() {
        let f = PiecewiseLinear::new(vec![(0.0, 1.0), (1.0, 3.0), (2.0, 2.0), (3.0, 0.0)]).unwrap();
        let g = f.isotonic_decreasing();
        assert!(g.is_non_increasing());
        // Sum preserved within pooled blocks.
        let orig: f64 = f.ys().iter().sum();
        let fit: f64 = g.ys().iter().sum();
        assert!((orig - fit).abs() < 1e-12);
    }

    #[test]
    fn first_crossing_below_finds_interpolated_point() {
        let f = PiecewiseLinear::new(vec![(0.0, 10.0), (10.0, 0.0)]).unwrap();
        let x = f.first_crossing_below(5.0, 0.0, 10.0).unwrap();
        assert!((x - 5.0).abs() < 1e-9);
        assert_eq!(f.first_crossing_below(-1.0, 0.0, 10.0), None);
        assert_eq!(f.first_crossing_below(20.0, 0.0, 10.0), Some(0.0));
    }
}
