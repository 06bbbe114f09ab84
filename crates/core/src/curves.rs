//! The two empirical curves that parameterize the poisoning game.
//!
//! The paper: "The input of the algorithm, `E(p)` and `Γ(p)`, are
//! approximated using the results in Fig. 1." Raw sweep measurements
//! are noisy and not exactly monotone, so both constructors apply
//! isotonic regression to recover the shape the theory requires.

use crate::error::CoreError;
use poisongame_linalg::PiecewiseLinear;

/// `E(p)` — accuracy damage per surviving poison point placed at
/// removal-percentile `p`. Non-increasing in `p`: points nearer the
/// boundary (`p → 0`) do the most damage. May go negative for deep
/// placements (poison that helps the defender), which defines the
/// paper's threshold `T_a`.
#[derive(Debug, Clone, PartialEq)]
pub struct EffectCurve {
    curve: PiecewiseLinear,
}

impl EffectCurve {
    /// Fit from `(percentile, per-point damage)` samples. Samples are
    /// sorted and made non-increasing by isotonic regression.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadCurve`] for empty/non-finite samples or
    /// percentiles outside `[0, 1]`.
    pub fn from_samples(samples: &[(f64, f64)]) -> Result<Self, CoreError> {
        validate_percentiles(samples)?;
        let raw = PiecewiseLinear::new(samples.to_vec()).map_err(|e| CoreError::BadCurve {
            message: e.to_string(),
        })?;
        Ok(Self {
            curve: raw.isotonic_decreasing(),
        })
    }

    /// Per-point damage at percentile `p` (clamped extrapolation).
    pub fn eval(&self, p: f64) -> f64 {
        self.curve.eval(p)
    }

    /// The threshold percentile beyond which poisoning is unprofitable
    /// (`E(p) ≤ 0`) — the percentile form of the paper's `T_a`.
    /// `None` if the curve stays positive on `[0, 1]` (then `T_a` is
    /// at the centroid and every placement pays).
    pub fn profit_threshold(&self) -> Option<f64> {
        self.curve.first_crossing_below(0.0, 0.0, 1.0)
    }

    /// Largest percentile with a strictly positive effect margin
    /// `E(p) ≥ floor`; `None` if even `p = 0` is below the floor.
    pub fn last_profitable(&self, floor: f64) -> Option<f64> {
        self.curve
            .first_crossing_below(floor, 0.0, 1.0)
            .or(Some(1.0))
            .filter(|_| self.eval(0.0) >= floor)
    }

    /// The underlying piecewise-linear curve.
    pub fn as_piecewise(&self) -> &PiecewiseLinear {
        &self.curve
    }
}

/// `Γ(p)` — accuracy lost to removing fraction `p` of the genuine
/// data. Non-decreasing, anchored at `Γ(0) = 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct CostCurve {
    curve: PiecewiseLinear,
}

impl CostCurve {
    /// Fit from `(percentile, accuracy loss)` samples. Sorted, made
    /// non-decreasing by isotonic regression, and re-anchored so that
    /// `Γ(0) = 0`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadCurve`] for empty/non-finite samples or
    /// percentiles outside `[0, 1]`.
    pub fn from_samples(samples: &[(f64, f64)]) -> Result<Self, CoreError> {
        validate_percentiles(samples)?;
        let mut anchored: Vec<(f64, f64)> = samples.to_vec();
        if !anchored.iter().any(|&(p, _)| p == 0.0) {
            anchored.push((0.0, 0.0));
        }
        let raw = PiecewiseLinear::new(anchored).map_err(|e| CoreError::BadCurve {
            message: e.to_string(),
        })?;
        let fit = raw.isotonic_increasing();
        // Re-anchor: subtract Γ(0) so the no-filter cost is exactly 0.
        let at_zero = fit.eval(0.0);
        Ok(Self {
            curve: fit.map_values(|y| y - at_zero),
        })
    }

    /// Accuracy loss at filter strength `p`.
    pub fn eval(&self, p: f64) -> f64 {
        self.curve.eval(p)
    }

    /// The underlying piecewise-linear curve.
    pub fn as_piecewise(&self) -> &PiecewiseLinear {
        &self.curve
    }
}

fn validate_percentiles(samples: &[(f64, f64)]) -> Result<(), CoreError> {
    if samples.is_empty() {
        return Err(CoreError::BadCurve {
            message: "no samples".into(),
        });
    }
    for &(p, y) in samples {
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            return Err(CoreError::BadCurve {
                message: format!("percentile {p} outside [0,1]"),
            });
        }
        if !y.is_finite() {
            return Err(CoreError::BadCurve {
                message: format!("non-finite value at percentile {p}"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effect_is_monotone_after_fit() {
        // Noisy, slightly non-monotone samples.
        let e = EffectCurve::from_samples(&[
            (0.0, 1.0),
            (0.1, 0.8),
            (0.2, 0.85), // violation
            (0.4, 0.2),
            (0.6, -0.1),
        ])
        .unwrap();
        assert!(e.as_piecewise().is_non_increasing());
        assert!(e.eval(0.0) >= e.eval(0.3));
    }

    #[test]
    fn effect_profit_threshold_found() {
        let e = EffectCurve::from_samples(&[(0.0, 1.0), (0.5, 0.0), (1.0, -1.0)]).unwrap();
        let t = e.profit_threshold().unwrap();
        assert!((t - 0.5).abs() < 1e-9, "threshold {t}");
        // Always-positive curve has no threshold.
        let e = EffectCurve::from_samples(&[(0.0, 1.0), (1.0, 0.5)]).unwrap();
        assert!(e.profit_threshold().is_none());
    }

    #[test]
    fn effect_last_profitable_with_floor() {
        let e = EffectCurve::from_samples(&[(0.0, 1.0), (1.0, 0.0)]).unwrap();
        let lp = e.last_profitable(0.5).unwrap();
        assert!((lp - 0.5).abs() < 1e-9);
        assert!(e.last_profitable(2.0).is_none());
    }

    #[test]
    fn cost_is_anchored_and_monotone() {
        let g = CostCurve::from_samples(&[(0.1, 0.02), (0.3, 0.01), (0.5, 0.10)]).unwrap();
        assert_eq!(g.eval(0.0), 0.0);
        assert!(g.as_piecewise().is_non_decreasing());
        assert!(g.eval(0.5) >= g.eval(0.1));
    }

    #[test]
    fn cost_anchor_shifts_constant_offset() {
        let g = CostCurve::from_samples(&[(0.0, 0.05), (0.5, 0.15)]).unwrap();
        assert_eq!(g.eval(0.0), 0.0);
        assert!((g.eval(0.5) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_samples() {
        assert!(EffectCurve::from_samples(&[]).is_err());
        assert!(EffectCurve::from_samples(&[(1.5, 0.0)]).is_err());
        assert!(EffectCurve::from_samples(&[(0.5, f64::NAN)]).is_err());
        assert!(CostCurve::from_samples(&[(-0.1, 0.0)]).is_err());
    }

    #[test]
    fn eval_clamps_outside_range() {
        let e = EffectCurve::from_samples(&[(0.1, 1.0), (0.5, 0.0)]).unwrap();
        assert_eq!(e.eval(0.0), 1.0);
        assert_eq!(e.eval(0.9), 0.0);
    }
}
