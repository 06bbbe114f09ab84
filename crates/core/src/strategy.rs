//! The defender's mixed strategy over filter strengths.

use crate::curves::{CostCurve, EffectCurve};
use crate::error::CoreError;
use poisongame_linalg::Xoshiro256StarStar;
use std::fmt;

/// A finite-support mixed strategy over filter strengths (removal
/// percentiles).
///
/// Invariants: support percentiles are strictly increasing inside
/// `[0, 1)`; probabilities are non-negative and sum to 1.
///
/// # Example
///
/// ```
/// use poisongame_core::DefenderMixedStrategy;
///
/// let s = DefenderMixedStrategy::new(vec![0.058, 0.157], vec![0.512, 0.488]).unwrap();
/// assert_eq!(s.support().len(), 2);
/// assert!((s.survival_probability(0.1) - 0.512).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DefenderMixedStrategy {
    support: Vec<f64>,
    probabilities: Vec<f64>,
}

impl DefenderMixedStrategy {
    /// Validate and build a strategy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadParameter`] for empty/mismatched inputs,
    /// non-increasing support, percentiles outside `[0, 1)`, negative
    /// probabilities or a probability sum off by more than `1e-6`.
    pub fn new(support: Vec<f64>, probabilities: Vec<f64>) -> Result<Self, CoreError> {
        if support.is_empty() || support.len() != probabilities.len() {
            return Err(CoreError::BadParameter {
                what: "support",
                value: support.len() as f64,
            });
        }
        for &p in &support {
            if !(0.0..1.0).contains(&p) || p.is_nan() {
                return Err(CoreError::BadParameter {
                    what: "percentile",
                    value: p,
                });
            }
        }
        if support.windows(2).any(|w| w[0] >= w[1]) {
            return Err(CoreError::BadParameter {
                what: "support_order",
                value: f64::NAN,
            });
        }
        for &q in &probabilities {
            if q < 0.0 || !q.is_finite() {
                return Err(CoreError::BadParameter {
                    what: "probability",
                    value: q,
                });
            }
        }
        let sum: f64 = probabilities.iter().sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(CoreError::BadParameter {
                what: "probability_sum",
                value: sum,
            });
        }
        let probabilities: Vec<f64> = probabilities.iter().map(|q| q / sum).collect();
        Ok(Self {
            support,
            probabilities,
        })
    }

    /// A pure strategy at one filter strength.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadParameter`] for a percentile outside
    /// `[0, 1)`.
    pub fn pure(theta: f64) -> Result<Self, CoreError> {
        Self::new(vec![theta], vec![1.0])
    }

    /// Support percentiles, ascending.
    pub fn support(&self) -> &[f64] {
        &self.support
    }

    /// Probabilities aligned with [`DefenderMixedStrategy::support`].
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// `(percentile, probability)` pairs.
    pub fn support_pairs(&self) -> Vec<(f64, f64)> {
        self.support
            .iter()
            .copied()
            .zip(self.probabilities.iter().copied())
            .collect()
    }

    /// Probability that a poison point placed at percentile `p`
    /// survives the sampled filter — the paper's `cdf_m` "counting from
    /// `B` towards the centroid": the mass of support strengths weaker
    /// than (≤) the placement.
    pub fn survival_probability(&self, p: f64) -> f64 {
        self.support
            .iter()
            .zip(&self.probabilities)
            .filter(|(s, _)| **s <= p + 1e-12)
            .map(|(_, q)| q)
            .sum()
    }

    /// Expected genuine-data cost `E_θ[Γ(θ)]` under this mixture.
    pub fn expected_cost(&self, cost: &CostCurve) -> f64 {
        self.support
            .iter()
            .zip(&self.probabilities)
            .map(|(&s, &q)| q * cost.eval(s))
            .sum()
    }

    /// The attacker's per-point equilibrium gain against this strategy:
    /// `max_i E(p_i)·survival(p_i)` over the support (the best response
    /// always sits on a support point — see
    /// [`poisongame_attack::best_response_position`] for the argument;
    /// re-derived here to avoid a dependency cycle).
    ///
    /// [`poisongame_attack::best_response_position`]:
    /// https://docs.rs/poisongame-attack
    pub fn attacker_gain(&self, effect: &EffectCurve) -> f64 {
        self.support
            .iter()
            .map(|&p| effect.eval(p) * self.survival_probability(p))
            .fold(f64::NEG_INFINITY, f64::max)
            .max(0.0) // the attacker can always abstain
    }

    /// Defender's expected loss against a best-responding attacker with
    /// `n_points` poison points: `N·gain + E[Γ]` — the objective `f`
    /// of Algorithm 1.
    pub fn defender_loss(&self, effect: &EffectCurve, cost: &CostCurve, n_points: usize) -> f64 {
        n_points as f64 * self.attacker_gain(effect) + self.expected_cost(cost)
    }

    /// Sample a filter strength.
    pub fn sample(&self, rng: &mut Xoshiro256StarStar) -> f64 {
        let u = rng.next_f64();
        let mut acc = 0.0;
        for (&s, &q) in self.support.iter().zip(&self.probabilities) {
            acc += q;
            if u < acc {
                return s;
            }
        }
        *self.support.last().expect("non-empty support")
    }
}

impl fmt::Display for DefenderMixedStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cells: Vec<String> = self
            .support_pairs()
            .iter()
            .map(|(p, q)| format!("{:.1}%@{:.1}%", q * 100.0, p * 100.0))
            .collect();
        write!(f, "{{{}}}", cells.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn effect() -> EffectCurve {
        EffectCurve::from_samples(&[(0.0, 1.0), (0.5, 0.0)]).unwrap()
    }

    fn cost() -> CostCurve {
        CostCurve::from_samples(&[(0.0, 0.0), (0.5, 0.1)]).unwrap()
    }

    #[test]
    fn validation_catches_all_violations() {
        assert!(DefenderMixedStrategy::new(vec![], vec![]).is_err());
        assert!(DefenderMixedStrategy::new(vec![0.1], vec![0.5, 0.5]).is_err());
        assert!(DefenderMixedStrategy::new(vec![0.2, 0.1], vec![0.5, 0.5]).is_err());
        assert!(DefenderMixedStrategy::new(vec![0.1, 0.1], vec![0.5, 0.5]).is_err());
        assert!(DefenderMixedStrategy::new(vec![1.0], vec![1.0]).is_err());
        assert!(DefenderMixedStrategy::new(vec![0.1, 0.2], vec![0.9, 0.2]).is_err());
        assert!(DefenderMixedStrategy::new(vec![0.1, 0.2], vec![-0.1, 1.1]).is_err());
        assert!(DefenderMixedStrategy::new(vec![0.058, 0.157], vec![0.512, 0.488]).is_ok());
    }

    #[test]
    fn survival_is_cdf_from_boundary() {
        let s = DefenderMixedStrategy::new(vec![0.05, 0.15, 0.30], vec![0.2, 0.3, 0.5]).unwrap();
        assert_eq!(s.survival_probability(0.01), 0.0);
        assert!((s.survival_probability(0.05) - 0.2).abs() < 1e-12);
        assert!((s.survival_probability(0.20) - 0.5).abs() < 1e-12);
        assert!((s.survival_probability(0.99) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expected_cost_is_probability_weighted() {
        let s = DefenderMixedStrategy::new(vec![0.1, 0.3], vec![0.5, 0.5]).unwrap();
        let g = cost();
        let expected = 0.5 * g.eval(0.1) + 0.5 * g.eval(0.3);
        assert!((s.expected_cost(&g) - expected).abs() < 1e-12);
    }

    #[test]
    fn attacker_gain_maximizes_product() {
        let s = DefenderMixedStrategy::new(vec![0.1, 0.3], vec![0.5, 0.5]).unwrap();
        let e = effect();
        // products: E(0.1)*0.5 = 0.8*0.5 = 0.4 ; E(0.3)*1.0 = 0.4.
        let gain = s.attacker_gain(&e);
        assert!((gain - 0.4).abs() < 1e-12, "gain {gain}");
    }

    #[test]
    fn attacker_gain_floors_at_zero() {
        // Defense so deep the effect is negative everywhere on support.
        let e = EffectCurve::from_samples(&[(0.0, -0.5), (0.5, -1.0)]).unwrap();
        let s = DefenderMixedStrategy::new(vec![0.1, 0.3], vec![0.5, 0.5]).unwrap();
        assert_eq!(s.attacker_gain(&e), 0.0);
    }

    #[test]
    fn defender_loss_combines_terms() {
        let s = DefenderMixedStrategy::new(vec![0.1, 0.3], vec![0.5, 0.5]).unwrap();
        let e = effect();
        let g = cost();
        let loss = s.defender_loss(&e, &g, 100);
        assert!((loss - (100.0 * 0.4 + s.expected_cost(&g))).abs() < 1e-12);
    }

    #[test]
    fn pure_strategy_survival_is_step() {
        let s = DefenderMixedStrategy::pure(0.2).unwrap();
        assert_eq!(s.survival_probability(0.1), 0.0);
        assert_eq!(s.survival_probability(0.2), 1.0);
    }

    #[test]
    fn sampling_matches_distribution() {
        let s = DefenderMixedStrategy::new(vec![0.1, 0.3], vec![0.25, 0.75]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let n = 20_000;
        let deep = (0..n).filter(|_| s.sample(&mut rng) == 0.3).count();
        let frac = deep as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.02, "sampled {frac}");
    }

    #[test]
    fn display_formats_percentages() {
        let s = DefenderMixedStrategy::new(vec![0.058, 0.157], vec![0.512, 0.488]).unwrap();
        let out = s.to_string();
        assert!(out.contains("51.2%@5.8%"), "display: {out}");
    }
}
