//! The continuous poisoning game `U(S_a, θ) = Σ_{p_i ≥ θ} n_i·E(p_i) + Γ(θ)`.

use crate::curves::{CostCurve, EffectCurve};
use crate::error::CoreError;

/// The attacker's pure strategy: placements `{(p_i, n_i)}` on the
/// removal-percentile axis (the paper's `S_a = {[r_i, n_i]}`).
pub type AttackPlacement = Vec<(f64, usize)>;

/// Largest payoff magnitude `N·max|E| + max|Γ|` a game may reach. The
/// discretized solvers sum payoffs over every action and the LP
/// multiplies them in its pivots; payoffs up to this bound keep all of
/// that finite, where a budget of `1e10` points of `1e300` damage would
/// overflow the payoff matrix itself.
pub const MAX_PAYOFF: f64 = 1e150;

/// The poisoning game instance: curves plus the poison budget `N`.
#[derive(Debug, Clone, PartialEq)]
pub struct PoisonGame {
    effect: EffectCurve,
    cost: CostCurve,
    n_points: usize,
}

impl PoisonGame {
    /// Build a game.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadParameter`] if `n_points == 0` (with no
    /// budget there is no game), or with `what: "max_payoff"` if a
    /// payoff could exceed [`MAX_PAYOFF`] in magnitude.
    pub fn new(effect: EffectCurve, cost: CostCurve, n_points: usize) -> Result<Self, CoreError> {
        if n_points == 0 {
            return Err(CoreError::BadParameter {
                what: "n_points",
                value: 0.0,
            });
        }
        // Both curves interpolate between their knots and clamp beyond
        // them, so the knot magnitudes bound every evaluation.
        let max_abs = |ys: &[f64]| ys.iter().fold(0.0_f64, |acc, y| acc.max(y.abs()));
        let bound = n_points as f64 * max_abs(effect.as_piecewise().ys())
            + max_abs(cost.as_piecewise().ys());
        if bound > MAX_PAYOFF {
            return Err(CoreError::BadParameter {
                what: "max_payoff",
                value: bound,
            });
        }
        Ok(Self {
            effect,
            cost,
            n_points,
        })
    }

    /// The effect curve `E(p)`.
    pub fn effect(&self) -> &EffectCurve {
        &self.effect
    }

    /// The cost curve `Γ(p)`.
    pub fn cost(&self) -> &CostCurve {
        &self.cost
    }

    /// The poison budget `N`.
    pub fn n_points(&self) -> usize {
        self.n_points
    }

    /// The zero-sum payoff to the **attacker** for pure strategies:
    /// surviving points (placed at `p_i ≥ θ`, i.e. inside the filter)
    /// contribute `n_i·E(p_i)`; the defender additionally pays `Γ(θ)`.
    pub fn payoff(&self, attack: &AttackPlacement, theta: f64) -> f64 {
        let damage: f64 = attack
            .iter()
            .filter(|(p, _)| *p >= theta - 1e-12)
            .map(|(p, n)| *n as f64 * self.effect.eval(*p))
            .sum();
        damage + self.cost.eval(theta)
    }

    /// The attacker's best-response placement against a *pure* filter
    /// strength `θ` — the paper's BRF (1a)/(1b): if placing just inside
    /// the filter is profitable (`E(θ) > 0`), put all `N` points there;
    /// otherwise nothing the attacker does helps and any removed
    /// placement (payoff 0) is a best response — we return an empty
    /// placement for that case.
    pub fn attacker_best_response(&self, theta: f64) -> AttackPlacement {
        if self.effect.eval(theta) > 0.0 {
            vec![(theta, self.n_points)]
        } else {
            Vec::new()
        }
    }

    /// The defender's best-response filter strength against a known
    /// attack, by direct minimization over a grid of `resolution`
    /// candidate strengths (the BRF (2a)/(2b) of the paper, computed
    /// numerically rather than symbolically).
    pub fn defender_best_response(&self, attack: &AttackPlacement, resolution: usize) -> f64 {
        let grid = percentile_grid(resolution);
        let mut best = (0.0, f64::INFINITY);
        for &theta in &grid {
            let loss = self.payoff(attack, theta);
            if loss < best.1 {
                best = (theta, loss);
            }
        }
        best.0
    }

    /// The percentile form of the paper's `T_a`: placements deeper than
    /// this gain the attacker nothing. `None` when every placement is
    /// profitable.
    pub fn profit_threshold(&self) -> Option<f64> {
        self.effect.profit_threshold()
    }
}

/// An evenly spaced grid of `resolution + 1` percentiles covering
/// `[0, 0.5]` — the operating range of the filter (removing more than
/// half of each class is never rational: `Γ` dwarfs any poison damage
/// there, and the paper's Figure 1 sweeps 0–40 %).
pub fn percentile_grid(resolution: usize) -> Vec<f64> {
    let resolution = resolution.max(1);
    (0..=resolution)
        .map(|i| 0.5 * i as f64 / resolution as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn game() -> PoisonGame {
        let effect =
            EffectCurve::from_samples(&[(0.0, 1.0), (0.2, 0.5), (0.4, 0.0), (0.5, -0.2)]).unwrap();
        let cost = CostCurve::from_samples(&[(0.0, 0.0), (0.25, 5.0), (0.5, 20.0)]).unwrap();
        PoisonGame::new(effect, cost, 10).unwrap()
    }

    #[test]
    fn zero_budget_rejected() {
        let g = game();
        assert!(PoisonGame::new(g.effect().clone(), g.cost().clone(), 0).is_err());
    }

    #[test]
    fn overflowing_payoffs_rejected() {
        let huge =
            EffectCurve::from_samples(&[(0.05, 1e300), (0.5, 1e300), (0.95, 1e300)]).unwrap();
        let g = game();
        let err = PoisonGame::new(huge.clone(), g.cost().clone(), 10_000_000_000).unwrap_err();
        assert!(
            matches!(err, CoreError::BadParameter { what: "max_payoff", value } if value.is_infinite()),
            "{err}"
        );
        // Finite but past the bound, from either curve.
        assert!(PoisonGame::new(huge, g.cost().clone(), 1).is_err());
        let steep = CostCurve::from_samples(&[(0.0, 0.0), (0.5, 1e200)]).unwrap();
        assert!(PoisonGame::new(g.effect().clone(), steep, 1).is_err());
        // A large budget of realistic damage is fine.
        let small = EffectCurve::from_samples(&[(0.0, 2.0e-4), (0.3, 1.5e-5)]).unwrap();
        assert!(PoisonGame::new(small, g.cost().clone(), 10_000_000_000).is_ok());
    }

    #[test]
    fn payoff_counts_only_survivors() {
        let g = game();
        // One placement outside the filter (removed), one inside.
        let attack = vec![(0.05, 4), (0.3, 6)];
        // θ = 0.1: the 0.05 placement is removed (0.05 < 0.1), the 0.3
        // placement survives.
        let u = g.payoff(&attack, 0.1);
        let expected = 6.0 * g.effect().eval(0.3) + g.cost().eval(0.1);
        assert!((u - expected).abs() < 1e-12);
    }

    #[test]
    fn payoff_with_no_filter_counts_everything() {
        let g = game();
        let attack = vec![(0.05, 4), (0.3, 6)];
        let u = g.payoff(&attack, 0.0);
        let expected = 4.0 * g.effect().eval(0.05) + 6.0 * g.effect().eval(0.3);
        assert!((u - expected).abs() < 1e-12);
    }

    #[test]
    fn attacker_best_response_hugs_filter() {
        let g = game();
        let br = g.attacker_best_response(0.1);
        assert_eq!(br, vec![(0.1, 10)]);
        // Beyond the profit threshold the attacker abstains.
        let br = g.attacker_best_response(0.45);
        assert!(br.is_empty());
    }

    #[test]
    fn defender_best_response_balances_terms() {
        let g = game();
        // All poison at the boundary: tightening to just past 0.0
        // removes everything at tiny Γ cost.
        let attack = vec![(0.0, 10)];
        let br = g.defender_best_response(&attack, 200);
        assert!(br > 0.0 && br < 0.1, "br {br}");
        // Attack so deep it is unprofitable to chase: θ = 0 is best.
        let attack = vec![(0.45, 10)];
        let br = g.defender_best_response(&attack, 200);
        let loss_at_br = g.payoff(&attack, br);
        let loss_at_zero = g.payoff(&attack, 0.0);
        assert!(loss_at_br <= loss_at_zero + 1e-12);
    }

    #[test]
    fn profit_threshold_matches_curve() {
        let g = game();
        let t = g.profit_threshold().unwrap();
        assert!((t - 0.4).abs() < 1e-9, "threshold {t}");
    }

    #[test]
    fn grid_covers_operating_range() {
        let grid = percentile_grid(10);
        assert_eq!(grid.len(), 11);
        assert_eq!(grid[0], 0.0);
        assert_eq!(*grid.last().unwrap(), 0.5);
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(percentile_grid(0).len(), 2);
    }
}
