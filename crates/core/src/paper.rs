//! Game curves calibrated to the **paper's own published numbers** —
//! the most faithful Table 1 reproduction available.
//!
//! The paper estimates `E(p)` and `Γ(p)` from its Figure 1 and feeds
//! them to Algorithm 1; the raw curves were never released. They can,
//! however, be partially *inverted from Table 1*: the equal-product
//! equilibrium condition (§4.2) ties the published probabilities to
//! effect-curve ratios. For `n = 2` with support `{5.8 %, 15.7 %}` and
//! probabilities `{51.2 %, 48.8 %}`:
//!
//! ```text
//!   cdf(5.8%)·E(5.8%) = cdf(15.7%)·E(15.7%)
//!   0.512·E(5.8%)     = 1.0·E(15.7%)        ⇒  E(15.7%)/E(5.8%) = 0.512
//! ```
//!
//! An exponential effect curve through that ratio
//! (`E(p) = E₀·e^{−6.8·p}`), a gently convex cost curve consistent
//! with Figure 1's clean series, and the paper's scale (`N = 644`,
//! baseline accuracy ≈ 0.93, mixed accuracy 85.6 %) pin down the
//! remaining degrees of freedom. Running our Algorithm 1 on these
//! curves reproduces the paper's Table 1 regime quantitatively (pinned
//! by this module's tests).

use crate::curves::{CostCurve, EffectCurve};
use crate::error::CoreError;
use crate::game_model::PoisonGame;

/// The paper's clean, unfiltered baseline accuracy (Spambase linear
/// SVM; Figure 1 at 0 % removal).
pub const PAPER_BASELINE_ACCURACY: f64 = 0.93;

/// The paper's poison budget: 20 % of 3220 training rows.
pub const PAPER_N_POISON: usize = 644;

/// Effect-curve decay rate implied by Table 1's `n = 2` row
/// (`ln(1/0.512) / (0.157 − 0.058) ≈ 6.76`).
pub const PAPER_EFFECT_DECAY: f64 = 6.76;

/// Effect curve `E(p) = E₀·e^{−6.76·p}` sampled on a fine grid up to
/// the profit threshold `T_a ≈ 17.5 %`.
///
/// The threshold placement is itself implied by Table 1: the deepest
/// equilibrium radii (15.7 % / 16.3 %) must sit just inside `T_a`,
/// otherwise Algorithm 1's objective `N·E(r_min) + E[Γ]` would keep
/// pushing the support deeper (our optimizer confirms this: with a
/// slower-vanishing `E` it drives `r_min` toward 40 %+).
///
/// `E₀` is chosen so the defender's equilibrium loss at the paper's
/// `n = 2` support reproduces the published 85.6 % accuracy:
/// `N·E(0.157) + E[Γ] = 0.93 − 0.856`.
///
/// # Errors
///
/// Never fails for the built-in constants; the `Result` mirrors the
/// fallible curve constructors.
pub fn paper_effect_curve() -> Result<EffectCurve, CoreError> {
    // N·E(0.157) = 0.074 − E[Γ] ≈ 0.074 − 0.0452 = 0.0288
    // ⇒ E(0.157) = 4.47e-5 ⇒ E₀ = E(0.157)·e^{6.76·0.157} = 1.29e-4.
    let e0 = 1.29e-4;
    let mut samples: Vec<(f64, f64)> = (0..=16)
        .map(|k| {
            let p = k as f64 * 0.01;
            (p, e0 * (-PAPER_EFFECT_DECAY * p).exp())
        })
        .collect();
    // Beyond the profit threshold the attacker gains nothing.
    samples.push((0.175, 0.0));
    samples.push((0.25, -2.0e-5));
    samples.push((0.50, -5.0e-5));
    EffectCurve::from_samples(&samples)
}

/// Cost curve `Γ(p) = 0.65·p^{1.2}` — steep enough that filtering at
/// the profit threshold (`Γ(0.175) = 0.080`) costs more than the
/// mixed equilibrium's loss (0.074). This steepness is itself implied
/// by Table 1: if `Γ(T_a)` were below the published equilibrium loss,
/// the pure strategy "filter exactly at `T_a`" would dominate every
/// mixture and Table 1's mixed accuracy could not beat the pure sweep
/// — consistent with Figure 1's visibly declining clean series and the
/// remark that the defender "loses incentive to increase filter
/// strength at some point between 10% and 30%".
///
/// # Errors
///
/// Never fails for the built-in constants.
pub fn paper_cost_curve() -> Result<CostCurve, CoreError> {
    let samples: Vec<(f64, f64)> = (0..=20)
        .map(|k| {
            let p = k as f64 * 0.025;
            (p, 0.65 * p.powf(1.2))
        })
        .collect();
    CostCurve::from_samples(&samples)
}

/// The poisoning game with the paper-calibrated curves and budget.
///
/// # Errors
///
/// Never fails for the built-in constants.
pub fn paper_game() -> Result<PoisonGame, CoreError> {
    PoisonGame::new(paper_effect_curve()?, paper_cost_curve()?, PAPER_N_POISON)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::Algorithm1;
    use crate::ne::diagnose;
    use crate::strategy::DefenderMixedStrategy;

    #[test]
    fn curves_have_paper_shape() {
        let e = paper_effect_curve().unwrap();
        // The Table 1 ratio is baked in.
        let ratio = e.eval(0.157) / e.eval(0.058);
        assert!((ratio - 0.512).abs() < 0.01, "ratio {ratio}");
        // Profit threshold just past the deepest Table 1 radius.
        let t = e.profit_threshold().unwrap();
        assert!((0.16..0.19).contains(&t), "threshold {t}");
        let g = paper_cost_curve().unwrap();
        assert_eq!(g.eval(0.0), 0.0);
        assert!(g.as_piecewise().is_non_decreasing());
    }

    #[test]
    fn algorithm1_on_paper_curves_lands_in_paper_regime() {
        let game = paper_game().unwrap();
        let result = Algorithm1::with_support_size(2).solve(&game).unwrap();
        let support = result.strategy.support();
        // The equilibrium support sits in the shallow-filter zone the
        // paper reports ({5.8 %, 15.7 %}).
        assert!(support[0] < 0.12, "r1 = {}", support[0]);
        assert!(support[1] < 0.30, "r2 = {}", support[1]);
        // Predicted accuracy within two points of the published 85.6 %.
        let acc = PAPER_BASELINE_ACCURACY - result.defender_loss;
        assert!((acc - 0.856).abs() < 0.02, "accuracy {acc}");
        // And the NE conditions hold.
        let d = diagnose(&result.strategy, game.effect(), 1e-6);
        assert!(d.satisfies_ne_conditions());
    }

    #[test]
    fn mixed_beats_all_pure_on_paper_curves() {
        let game = paper_game().unwrap();
        let result = Algorithm1::with_support_size(3).solve(&game).unwrap();
        for k in 0..=49 {
            let theta = 0.01 * k as f64;
            let pure = DefenderMixedStrategy::pure(theta).unwrap();
            let pure_loss = pure.defender_loss(game.effect(), game.cost(), game.n_points());
            assert!(
                result.defender_loss < pure_loss + 1e-12,
                "pure θ={theta} matches mixed"
            );
        }
    }

    #[test]
    fn accuracy_plateaus_after_n3_on_paper_curves() {
        let game = paper_game().unwrap();
        let l3 = Algorithm1::with_support_size(3)
            .solve(&game)
            .unwrap()
            .defender_loss;
        let l5 = Algorithm1::with_support_size(5)
            .solve(&game)
            .unwrap()
            .defender_loss;
        assert!((l3 - l5).abs() < 0.005, "n=3 {l3} vs n=5 {l5}");
    }

    #[test]
    fn algorithm1_loss_falls_with_support_size_toward_the_exact_value() {
        let game = paper_game().unwrap();
        let loss = |n: usize| {
            Algorithm1::with_support_size(n)
                .solve(&game)
                .unwrap()
                .defender_loss
        };
        // More radii give the defender more room: the loss must not
        // rise from n = 2 to 3 to 5 (measured 0.0618 / 0.0581 / 0.0556).
        let (l2, l3, l5) = (loss(2), loss(3), loss(5));
        assert!(l3 <= l2, "n=3 loss {l3} above n=2 loss {l2}");
        assert!(l5 <= l3, "n=5 loss {l5} above n=3 loss {l3}");

        // No n-point strategy can beat the game's value, which the
        // exact LP on the resolution-300 grid approximates (0.0520).
        // The grid moves either player by at most one step, so the
        // discretized value can sit above the continuous one by about
        // one step's worth of payoff: the largest change the attacker's
        // `N·E` or the defender's `Γ` makes between neighbouring grid
        // points (≈ 9e-4 and ≈ 1.1e-3 here).
        let resolution = 300;
        let exact = crate::bridge::solve_discretized_with(
            &game,
            resolution,
            poisongame_theory::SolverKind::Simplex,
        )
        .unwrap()
        .value;
        let grid = crate::game_model::percentile_grid(resolution);
        let max_step = |f: &dyn Fn(f64) -> f64| {
            grid.windows(2)
                .map(|w| (f(w[1]) - f(w[0])).abs())
                .fold(0.0, f64::max)
        };
        let n = game.n_points() as f64;
        let margin = max_step(&|p| n * game.effect().eval(p)) + max_step(&|p| game.cost().eval(p));
        assert!(margin < 0.005, "grid too coarse for the check: {margin}");
        for (k, l) in [(2, l2), (3, l3), (5, l5)] {
            assert!(
                l >= exact - margin,
                "n={k} loss {l} below the exact value {exact} less {margin}"
            );
        }
    }
}
