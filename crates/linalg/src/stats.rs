//! Summary statistics, robust location estimators and quantiles.
//!
//! The sphere filter of the poisoning game is driven entirely by the
//! empirical distribution of distances-from-centroid, so quantile and
//! robust-location code here is load-bearing for the whole reproduction.

use crate::error::LinalgError;

/// Arithmetic mean; `0.0` for an empty slice is *not* returned — use
/// [`try_mean`] when emptiness is possible.
///
/// # Panics
///
/// Panics if `x` is empty.
pub fn mean(x: &[f64]) -> f64 {
    assert!(!x.is_empty(), "mean of empty slice");
    x.iter().sum::<f64>() / x.len() as f64
}

/// Checked mean.
///
/// # Errors
///
/// Returns [`LinalgError::EmptyInput`] on an empty slice.
pub fn try_mean(x: &[f64]) -> Result<f64, LinalgError> {
    if x.is_empty() {
        return Err(LinalgError::EmptyInput);
    }
    Ok(mean(x))
}

/// Unbiased sample variance (denominator `n-1`); `0.0` for slices of
/// length one.
///
/// # Panics
///
/// Panics if `x` is empty.
pub fn variance(x: &[f64]) -> f64 {
    assert!(!x.is_empty(), "variance of empty slice");
    if x.len() == 1 {
        return 0.0;
    }
    let m = mean(x);
    x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (x.len() - 1) as f64
}

/// Sample standard deviation.
///
/// # Panics
///
/// Panics if `x` is empty.
pub fn std_dev(x: &[f64]) -> f64 {
    variance(x).sqrt()
}

/// Median (average of the two central order statistics for even length).
///
/// # Panics
///
/// Panics if `x` is empty.
pub fn median(x: &[f64]) -> f64 {
    assert!(!x.is_empty(), "median of empty slice");
    let mut v: Vec<f64> = x.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("median: NaN in input"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Empirical quantile with linear interpolation between order statistics
/// (type-7 / the NumPy default). `q` must lie in `[0, 1]`.
///
/// # Errors
///
/// Returns [`LinalgError::EmptyInput`] for empty input and
/// [`LinalgError::DomainError`] for `q` outside `[0,1]`.
///
/// # Example
///
/// ```
/// use poisongame_linalg::stats::quantile;
/// let x = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(quantile(&x, 0.0).unwrap(), 1.0);
/// assert_eq!(quantile(&x, 1.0).unwrap(), 4.0);
/// assert_eq!(quantile(&x, 0.5).unwrap(), 2.5);
/// ```
pub fn quantile(x: &[f64], q: f64) -> Result<f64, LinalgError> {
    if x.is_empty() {
        return Err(LinalgError::EmptyInput);
    }
    if !(0.0..=1.0).contains(&q) || q.is_nan() {
        return Err(LinalgError::DomainError {
            what: "q",
            value: q,
        });
    }
    let mut v: Vec<f64> = x.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("quantile: NaN in input"));
    let h = q * (v.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    let frac = h - lo as f64;
    Ok(v[lo] + frac * (v[hi] - v[lo]))
}

/// Several quantiles at once (sorts once).
///
/// # Errors
///
/// Same error conditions as [`quantile`].
pub fn quantiles(x: &[f64], qs: &[f64]) -> Result<Vec<f64>, LinalgError> {
    if x.is_empty() {
        return Err(LinalgError::EmptyInput);
    }
    let mut v: Vec<f64> = x.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("quantiles: NaN in input"));
    let mut out = Vec::with_capacity(qs.len());
    for &q in qs {
        if !(0.0..=1.0).contains(&q) || q.is_nan() {
            return Err(LinalgError::DomainError {
                what: "q",
                value: q,
            });
        }
        let h = q * (v.len() - 1) as f64;
        let lo = h.floor() as usize;
        let hi = h.ceil() as usize;
        let frac = h - lo as f64;
        out.push(v[lo] + frac * (v[hi] - v[lo]));
    }
    Ok(out)
}

/// Fraction of elements strictly greater than `threshold`.
///
/// This is the survival function the game model uses to convert a filter
/// radius into "fraction of points removed".
pub fn fraction_above(x: &[f64], threshold: f64) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().filter(|&&v| v > threshold).count() as f64 / x.len() as f64
}

/// Symmetrically trimmed mean: drop `trim` fraction from each tail
/// (`trim ∈ [0, 0.5)`), average the rest.
///
/// # Errors
///
/// Returns [`LinalgError::EmptyInput`] for empty input and
/// [`LinalgError::DomainError`] for `trim` outside `[0, 0.5)`.
pub fn trimmed_mean(x: &[f64], trim: f64) -> Result<f64, LinalgError> {
    if x.is_empty() {
        return Err(LinalgError::EmptyInput);
    }
    if !(0.0..0.5).contains(&trim) || trim.is_nan() {
        return Err(LinalgError::DomainError {
            what: "trim",
            value: trim,
        });
    }
    let mut v: Vec<f64> = x.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("trimmed_mean: NaN in input"));
    let k = (v.len() as f64 * trim).floor() as usize;
    let kept = &v[k..v.len() - k];
    // k < len/2 by the domain check, so kept is non-empty.
    Ok(mean(kept))
}

/// Median absolute deviation (raw, not scaled to the normal).
///
/// # Panics
///
/// Panics if `x` is empty.
pub fn median_abs_deviation(x: &[f64]) -> f64 {
    let m = median(x);
    let dev: Vec<f64> = x.iter().map(|v| (v - m).abs()).collect();
    median(&dev)
}

/// Numerically stable streaming mean/variance (Welford's algorithm).
///
/// # Example
///
/// ```
/// use poisongame_linalg::stats::RunningStats;
///
/// let mut s = RunningStats::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     s.push(v);
/// }
/// assert_eq!(s.count(), 4);
/// assert_eq!(s.mean(), 2.5);
/// assert!((s.sample_variance() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Current mean (`0.0` before any observation).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`0.0` with fewer than two observations).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Smallest observation (`+∞` before any observation).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-∞` before any observation).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merge another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basics() {
        let x = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&x), 5.0);
        assert!((variance(&x) - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&x) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn variance_of_singleton_is_zero() {
        assert_eq!(variance(&[3.0]), 0.0);
    }

    #[test]
    fn try_mean_empty() {
        assert_eq!(try_mean(&[]).unwrap_err(), LinalgError::EmptyInput);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quantile_endpoints_and_interp() {
        let x = [10.0, 20.0, 30.0];
        assert_eq!(quantile(&x, 0.0).unwrap(), 10.0);
        assert_eq!(quantile(&x, 1.0).unwrap(), 30.0);
        assert_eq!(quantile(&x, 0.25).unwrap(), 15.0);
    }

    #[test]
    fn quantile_rejects_bad_q() {
        assert!(quantile(&[1.0], -0.1).is_err());
        assert!(quantile(&[1.0], 1.1).is_err());
        assert!(quantile(&[1.0], f64::NAN).is_err());
        assert!(quantile(&[], 0.5).is_err());
    }

    #[test]
    fn quantiles_matches_singular_calls() {
        let x = [5.0, 1.0, 9.0, 3.0];
        let qs = [0.0, 0.5, 0.9, 1.0];
        let batch = quantiles(&x, &qs).unwrap();
        for (i, &q) in qs.iter().enumerate() {
            assert_eq!(batch[i], quantile(&x, q).unwrap());
        }
    }

    #[test]
    fn fraction_above_counts_strictly() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(fraction_above(&x, 2.0), 0.5);
        assert_eq!(fraction_above(&x, 0.0), 1.0);
        assert_eq!(fraction_above(&x, 4.0), 0.0);
        assert_eq!(fraction_above(&[], 1.0), 0.0);
    }

    #[test]
    fn trimmed_mean_drops_outliers() {
        let x = [1.0, 2.0, 3.0, 4.0, 100.0];
        let t = trimmed_mean(&x, 0.2).unwrap();
        assert_eq!(t, 3.0);
        assert_eq!(trimmed_mean(&x, 0.0).unwrap(), mean(&x));
        assert!(trimmed_mean(&x, 0.5).is_err());
        assert!(trimmed_mean(&[], 0.1).is_err());
    }

    #[test]
    fn mad_is_robust() {
        let x = [1.0, 1.0, 2.0, 2.0, 4.0, 6.0, 9.0];
        assert_eq!(median_abs_deviation(&x), 1.0);
    }

    #[test]
    fn running_stats_matches_batch() {
        let x = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = RunningStats::new();
        for &v in &x {
            s.push(v);
        }
        assert!((s.mean() - mean(&x)).abs() < 1e-12);
        assert!((s.sample_variance() - variance(&x)).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn running_stats_merge_equals_sequential() {
        let x = [1.0, 2.0, 3.0];
        let y = [10.0, 20.0, 30.0, 40.0];
        let mut a = RunningStats::new();
        x.iter().for_each(|&v| a.push(v));
        let mut b = RunningStats::new();
        y.iter().for_each(|&v| b.push(v));
        a.merge(&b);

        let mut all = RunningStats::new();
        x.iter().chain(y.iter()).for_each(|&v| all.push(v));
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.sample_variance() - all.sample_variance()).abs() < 1e-9);
        assert_eq!(a.count(), 7);
    }

    #[test]
    fn running_stats_merge_with_empty() {
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        b.push(5.0);
        a.merge(&b);
        assert_eq!(a.count(), 1);
        assert_eq!(a.mean(), 5.0);
        let empty = RunningStats::new();
        a.merge(&empty);
        assert_eq!(a.count(), 1);
    }
}
