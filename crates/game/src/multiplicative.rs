//! Multiplicative weights (Hedge) self-play.
//!
//! Both players run the exponential-weights no-regret algorithm against
//! each other; the *average* strategy profile converges to a Nash
//! equilibrium of the zero-sum game at rate `O(√(ln k / T))`. Faster in
//! practice than fictitious play and, unlike the LP, trivially
//! parallelizable — included both as an ablation point (bench
//! `solver_comparison`) and as a fallback for large discretizations.

use crate::error::GameError;
use crate::matrix_game::MatrixGame;
use crate::strategy::{MixedStrategy, Solution};
use poisongame_linalg::vector;

/// Configuration for [`solve_multiplicative_weights`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiplicativeWeightsConfig {
    /// Number of self-play rounds.
    pub iterations: usize,
    /// Step size; when `None` the theory-optimal
    /// `√(8 ln k / T) / range` is used.
    pub eta: Option<f64>,
}

impl Default for MultiplicativeWeightsConfig {
    fn default() -> Self {
        Self {
            iterations: 20_000,
            eta: None,
        }
    }
}

/// Run Hedge vs Hedge and return the averaged strategies.
///
/// # Errors
///
/// Returns [`GameError::InvalidPayoffs`] for a constant game with zero
/// payoff range only if weight normalization fails (cannot happen for
/// finite inputs); propagates strategy-construction errors otherwise.
///
/// # Example
///
/// ```
/// use poisongame_theory::{solve_multiplicative_weights, MultiplicativeWeightsConfig, MatrixGame};
///
/// let pennies = MatrixGame::from_rows(&[vec![1.0, -1.0], vec![-1.0, 1.0]]).unwrap();
/// let sol = solve_multiplicative_weights(&pennies, &MultiplicativeWeightsConfig::default()).unwrap();
/// assert!(sol.value.abs() < 0.02);
/// ```
pub fn solve_multiplicative_weights(
    game: &MatrixGame,
    config: &MultiplicativeWeightsConfig,
) -> Result<Solution, GameError> {
    let (m, n) = game.shape();
    let t_max = config.iterations.max(1);
    let range = (game.max_payoff() - game.min_payoff()).max(1e-12);
    let eta = config.eta.unwrap_or_else(|| {
        let k = m.max(n) as f64;
        (8.0 * k.ln().max(1.0) / t_max as f64).sqrt() / range
    });

    // Log-space weights for numerical stability.
    let mut row_log = vec![0.0f64; m];
    let mut col_log = vec![0.0f64; n];
    let mut row_avg = vec![0.0f64; m];
    let mut col_avg = vec![0.0f64; n];

    for _ in 0..t_max {
        let x = softmax(&row_log);
        let y = softmax(&col_log);
        vector::axpy(1.0, &x, &mut row_avg);
        vector::axpy(1.0, &y, &mut col_avg);

        // Row player earns A y, column player pays xᵀA.
        let row_payoffs = game.payoffs().mul_vec(&y);
        let mut col_payoffs = vec![0.0; n];
        for (i, &xi) in x.iter().enumerate() {
            if xi != 0.0 {
                vector::axpy(xi, game.payoffs().row(i), &mut col_payoffs);
            }
        }
        for (log, payoff) in row_log.iter_mut().zip(&row_payoffs) {
            *log += eta * payoff;
        }
        for (log, payoff) in col_log.iter_mut().zip(&col_payoffs) {
            *log -= eta * payoff;
        }
        // Keep log-weights bounded.
        let row_max = vector::norm_inf(&row_log);
        if row_max > 500.0 {
            let shift = row_log.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            for v in &mut row_log {
                *v -= shift;
            }
        }
        let col_max = vector::norm_inf(&col_log);
        if col_max > 500.0 {
            let shift = col_log.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            for v in &mut col_log {
                *v -= shift;
            }
        }
    }

    let row_strategy = MixedStrategy::from_weights(row_avg)?;
    let column_strategy = MixedStrategy::from_weights(col_avg)?;
    let value = game.expected_payoff(&row_strategy, &column_strategy)?;
    Ok(Solution {
        row_strategy,
        column_strategy,
        value,
        iterations: t_max,
    })
}

/// Numerically stable softmax: the probability distribution
/// proportional to `exp(log_weights)`. Shared by the batch Hedge
/// solver above and the online Hedge learner in `poisongame-online`.
pub fn softmax(log_weights: &[f64]) -> Vec<f64> {
    let max = log_weights
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = log_weights.iter().map(|&w| (w - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::solve_lp;

    #[test]
    fn softmax_is_a_distribution() {
        let p = softmax(&[0.0, 1.0, -1.0]);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(p[1] > p[0] && p[0] > p[2]);
        // Stable under huge inputs.
        let p = softmax(&[1e8, 1e8 + 1.0]);
        assert!(p.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn pennies_value_near_zero() {
        let g = MatrixGame::from_rows(&[vec![1.0, -1.0], vec![-1.0, 1.0]]).unwrap();
        let sol =
            solve_multiplicative_weights(&g, &MultiplicativeWeightsConfig::default()).unwrap();
        assert!(sol.value.abs() < 0.02, "value {}", sol.value);
        let expl = g
            .exploitability(&sol.row_strategy, &sol.column_strategy)
            .unwrap();
        assert!(expl < 0.1, "exploitability {expl}");
    }

    #[test]
    fn rps_close_to_uniform() {
        let g = MatrixGame::from_rows(&[
            vec![0.0, -1.0, 1.0],
            vec![1.0, 0.0, -1.0],
            vec![-1.0, 1.0, 0.0],
        ])
        .unwrap();
        let sol =
            solve_multiplicative_weights(&g, &MultiplicativeWeightsConfig::default()).unwrap();
        for p in sol.row_strategy.probabilities() {
            assert!((p - 1.0 / 3.0).abs() < 0.05, "prob {p}");
        }
    }

    #[test]
    fn value_matches_lp_on_random_game() {
        use poisongame_linalg::Xoshiro256StarStar;
        use rand::SeedableRng;
        let mut rng = Xoshiro256StarStar::seed_from_u64(101);
        let g = MatrixGame::from_fn(5, 6, |_, _| rng.next_f64() * 4.0 - 2.0);
        let lp = solve_lp(&g).unwrap();
        let mw = solve_multiplicative_weights(&g, &MultiplicativeWeightsConfig::default()).unwrap();
        assert!(
            (lp.value - mw.value).abs() < 0.05,
            "lp {} mw {}",
            lp.value,
            mw.value
        );
    }

    #[test]
    fn saddle_game_concentrates_on_the_saddle() {
        // Row 1 dominates row 0 and column 0 dominates column 1, so
        // the unique equilibrium is the pure saddle (1, 0), value 2.
        let g = MatrixGame::from_rows(&[vec![1.0, 3.0], vec![2.0, 4.0]]).unwrap();
        let sol =
            solve_multiplicative_weights(&g, &MultiplicativeWeightsConfig::default()).unwrap();
        assert!((sol.value - 2.0).abs() < 0.02, "value {}", sol.value);
        assert!(sol.row_strategy.prob(1) > 0.98);
        assert!(sol.column_strategy.prob(0) > 0.98);
    }

    #[test]
    fn custom_eta_still_converges() {
        let g = MatrixGame::from_rows(&[vec![1.0, -1.0], vec![-1.0, 1.0]]).unwrap();
        let cfg = MultiplicativeWeightsConfig {
            iterations: 30_000,
            eta: Some(0.05),
        };
        let sol = solve_multiplicative_weights(&g, &cfg).unwrap();
        assert!(sol.value.abs() < 0.05);
    }

    #[test]
    fn single_action_game() {
        let g = MatrixGame::from_rows(&[vec![3.0]]).unwrap();
        let sol = solve_multiplicative_weights(
            &g,
            &MultiplicativeWeightsConfig {
                iterations: 10,
                eta: None,
            },
        )
        .unwrap();
        assert!((sol.value - 3.0).abs() < 1e-12);
        assert!(sol.row_strategy.is_pure());
    }
}
