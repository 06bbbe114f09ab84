//! Equilibrium structure of the mixed game (paper §4.2).
//!
//! A defender NE strategy must (1) mix over at least two strengths and
//! (2) equalize `E(θ)·cdf_m(θ)` across its support, where `cdf_m`
//! counts probability from the boundary toward the centroid (our
//! [`DefenderMixedStrategy::survival_probability`]). `find_percentage`
//! inverts condition (2) in closed form — the `findPercentage` step of
//! Algorithm 1.

use crate::curves::EffectCurve;
use crate::error::CoreError;
use crate::strategy::DefenderMixedStrategy;

/// Closed-form probabilities that equalize the attacker's gain across
/// a given support — the paper's `findPercentage(Sr)`.
///
/// With support `p_1 < … < p_n` and survival `D_i = Σ_{j ≤ i} q_j`,
/// equal products `E(p_i)·D_i = E(p_n)·1` give
/// `D_i = E(p_n) / E(p_i)` and `q_i = D_i − D_{i−1}`.
/// `E` non-increasing makes every `q_i ≥ 0`.
///
/// # Errors
///
/// Returns [`CoreError::BadParameter`] for an empty or unsorted
/// support and [`CoreError::UnprofitableSupport`] if any support point
/// has `E(p) ≤ 0` (the indifference system is then infeasible: a
/// rational attacker never places there).
///
/// # Example
///
/// ```
/// use poisongame_core::{ne::find_percentage, EffectCurve};
///
/// let effect = EffectCurve::from_samples(&[(0.0, 1.0), (0.4, 0.2)]).unwrap();
/// let q = find_percentage(&[0.1, 0.3], &effect).unwrap();
/// assert!((q.iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// // Shallower filter must carry enough mass to deter the deep spot.
/// assert!(q[0] > 0.0 && q[1] > 0.0);
/// ```
pub fn find_percentage(support: &[f64], effect: &EffectCurve) -> Result<Vec<f64>, CoreError> {
    if support.is_empty() {
        return Err(CoreError::BadParameter {
            what: "support",
            value: 0.0,
        });
    }
    if support.windows(2).any(|w| w[0] >= w[1]) {
        return Err(CoreError::BadParameter {
            what: "support_order",
            value: f64::NAN,
        });
    }
    let effects: Vec<f64> = support.iter().map(|&p| effect.eval(p)).collect();
    for (&p, &e) in support.iter().zip(&effects) {
        if e <= 0.0 {
            return Err(CoreError::UnprofitableSupport { percentile: p });
        }
    }
    let deepest = *effects.last().expect("non-empty");
    let mut q = Vec::with_capacity(support.len());
    let mut prev_d = 0.0;
    for &e in &effects {
        let d = (deepest / e).min(1.0);
        q.push((d - prev_d).max(0.0));
        prev_d = d;
    }
    // Numerical residue: force an exact distribution.
    let sum: f64 = q.iter().sum();
    for v in &mut q {
        *v /= sum;
    }
    Ok(q)
}

/// Build the equal-product strategy over a support in one call.
///
/// # Errors
///
/// Propagates [`find_percentage`] and strategy-validation errors.
pub fn equalizing_strategy(
    support: &[f64],
    effect: &EffectCurve,
) -> Result<DefenderMixedStrategy, CoreError> {
    let q = find_percentage(support, effect)?;
    DefenderMixedStrategy::new(support.to_vec(), q)
}

/// Diagnostics for the two NE conditions of §4.2.
#[derive(Debug, Clone, PartialEq)]
pub struct NeDiagnostics {
    /// `E(p_i)·survival(p_i)` per support point.
    pub products: Vec<f64>,
    /// Relative spread `(max − min) / max` of the products.
    pub product_spread: f64,
    /// Condition 1: at least two support points.
    pub mixes_two_or_more: bool,
    /// Condition 2: products equal within `tolerance`.
    pub products_equalized: bool,
}

impl NeDiagnostics {
    /// Both conditions hold.
    pub fn satisfies_ne_conditions(&self) -> bool {
        self.mixes_two_or_more && self.products_equalized
    }
}

/// Check a strategy against the NE conditions.
pub fn diagnose(
    strategy: &DefenderMixedStrategy,
    effect: &EffectCurve,
    tolerance: f64,
) -> NeDiagnostics {
    let products: Vec<f64> = strategy
        .support()
        .iter()
        .map(|&p| effect.eval(p) * strategy.survival_probability(p))
        .collect();
    let max = products.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = products.iter().copied().fold(f64::INFINITY, f64::min);
    let product_spread = if max.abs() < 1e-300 {
        0.0
    } else {
        (max - min) / max.abs()
    };
    NeDiagnostics {
        mixes_two_or_more: strategy.support().len() >= 2,
        products_equalized: product_spread.abs() <= tolerance,
        products,
        product_spread,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn effect() -> EffectCurve {
        EffectCurve::from_samples(&[(0.0, 1.0), (0.1, 0.8), (0.2, 0.5), (0.4, 0.1)]).unwrap()
    }

    #[test]
    fn probabilities_sum_to_one_and_are_nonnegative() {
        let q = find_percentage(&[0.05, 0.15, 0.3], &effect()).unwrap();
        assert_eq!(q.len(), 3);
        assert!((q.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(q.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn resulting_strategy_equalizes_products() {
        let e = effect();
        let support = [0.05, 0.15, 0.3];
        let s = equalizing_strategy(&support, &e).unwrap();
        let d = diagnose(&s, &e, 1e-9);
        assert!(d.satisfies_ne_conditions(), "diagnostics {d:?}");
        // All products equal the deepest point's effect.
        let deepest = e.eval(0.3);
        for prod in &d.products {
            assert!((prod - deepest).abs() < 1e-9, "product {prod} vs {deepest}");
        }
    }

    #[test]
    fn two_point_case_matches_hand_computation() {
        // E(p1)=0.8, E(p2)=0.5 → D1 = 0.5/0.8 = 0.625 → q = [0.625, 0.375].
        let e = effect();
        let q = find_percentage(&[0.1, 0.2], &e).unwrap();
        assert!((q[0] - 0.625).abs() < 1e-9, "q0 {}", q[0]);
        assert!((q[1] - 0.375).abs() < 1e-9, "q1 {}", q[1]);
    }

    #[test]
    fn unprofitable_support_rejected() {
        let e = EffectCurve::from_samples(&[(0.0, 1.0), (0.3, -0.5)]).unwrap();
        match find_percentage(&[0.1, 0.3], &e) {
            Err(CoreError::UnprofitableSupport { percentile }) => {
                assert!((percentile - 0.3).abs() < 1e-12)
            }
            other => panic!("expected UnprofitableSupport, got {other:?}"),
        }
    }

    #[test]
    fn input_validation() {
        let e = effect();
        assert!(find_percentage(&[], &e).is_err());
        assert!(find_percentage(&[0.2, 0.1], &e).is_err());
        assert!(find_percentage(&[0.1, 0.1], &e).is_err());
    }

    #[test]
    fn singleton_support_gets_all_mass() {
        let q = find_percentage(&[0.1], &effect()).unwrap();
        assert_eq!(q, vec![1.0]);
    }

    #[test]
    fn pure_strategy_fails_condition_one() {
        let e = effect();
        let s = DefenderMixedStrategy::pure(0.1).unwrap();
        let d = diagnose(&s, &e, 1e-9);
        assert!(!d.mixes_two_or_more);
        assert!(!d.satisfies_ne_conditions());
    }

    #[test]
    fn unequal_products_detected() {
        let e = effect();
        // Uniform probabilities do NOT equalize products here.
        let s = DefenderMixedStrategy::new(vec![0.05, 0.3], vec![0.5, 0.5]).unwrap();
        let d = diagnose(&s, &e, 1e-6);
        assert!(d.mixes_two_or_more);
        assert!(!d.products_equalized, "spread {}", d.product_spread);
    }

    #[test]
    fn flat_effect_gives_deepest_heavy_mix() {
        // Constant E: D_i = 1 for every i → all mass on the first
        // (weakest) point; deeper points add no deterrence value.
        let e = EffectCurve::from_samples(&[(0.0, 0.5), (0.5, 0.5)]).unwrap();
        let q = find_percentage(&[0.1, 0.2, 0.3], &e).unwrap();
        assert!((q[0] - 1.0).abs() < 1e-12);
        assert!(q[1].abs() < 1e-12);
    }
}
