//! Exact zero-sum solving via a hand-written primal simplex.
//!
//! The minimax theorem reduces a zero-sum game to a pair of dual linear
//! programs. After shifting payoffs so the value is strictly positive,
//! the column player's program becomes
//!
//! ```text
//!   maximize  1ᵀu   subject to  A u ≤ 1,  u ≥ 0        (u = y / v)
//! ```
//!
//! whose slack basis is immediately feasible — no two-phase method is
//! needed. The row player's equilibrium strategy is recovered from the
//! duals of the constraint rows. Bland's rule guards against cycling.

use crate::error::GameError;
use crate::matrix_game::MatrixGame;
use crate::strategy::{MixedStrategy, Solution};

/// Numerical tolerance for simplex pivoting decisions.
const TOL: f64 = 1e-9;

/// Result of the raw simplex routine.
#[derive(Debug, Clone, PartialEq)]
struct SimplexResult {
    /// Primal solution.
    primal: Vec<f64>,
    /// Objective value.
    objective: f64,
    /// Dual values of the `≤` constraints.
    duals: Vec<f64>,
    /// Pivots performed.
    pivots: usize,
}

/// Maximize `cᵀz` subject to `M z ≤ b`, `z ≥ 0` with `b ≥ 0`
/// (slack basis is feasible).
///
/// `m_rows` is given row-by-row. Returns primal, objective and duals.
fn simplex_maximize(c: &[f64], m_rows: &[Vec<f64>], b: &[f64]) -> Result<SimplexResult, GameError> {
    let m = m_rows.len();
    let n = c.len();
    debug_assert!(b.iter().all(|&v| v >= 0.0), "simplex needs b >= 0");

    // Tableau: m constraint rows + 1 objective row.
    // Columns: n structural + m slacks + 1 rhs.
    let width = n + m + 1;
    let mut t = vec![vec![0.0; width]; m + 1];
    for (i, row) in m_rows.iter().enumerate() {
        assert_eq!(row.len(), n, "constraint row width mismatch");
        t[i][..n].copy_from_slice(row);
        t[i][n + i] = 1.0;
        t[i][width - 1] = b[i];
    }
    // Objective row holds reduced costs (c_j - z_j); starts at c.
    t[m][..n].copy_from_slice(c);

    let mut basis: Vec<usize> = (n..n + m).collect();
    let max_pivots = 50 * (n + m).max(16);
    let mut pivots = 0;

    loop {
        // Bland: entering variable = smallest index with positive
        // reduced cost.
        let entering = (0..n + m).find(|&j| t[m][j] > TOL);
        let Some(e) = entering else { break };

        // Ratio test; Bland tie-break on smallest basis variable.
        let mut leave: Option<(usize, f64)> = None;
        for i in 0..m {
            if t[i][e] > TOL {
                let ratio = t[i][width - 1] / t[i][e];
                match leave {
                    None => leave = Some((i, ratio)),
                    Some((li, lr)) => {
                        if ratio < lr - TOL || ((ratio - lr).abs() <= TOL && basis[i] < basis[li]) {
                            leave = Some((i, ratio));
                        }
                    }
                }
            }
        }
        let Some((r, _)) = leave else {
            return Err(GameError::InvalidPayoffs {
                message: "LP unbounded — payoff shift failed".into(),
            });
        };

        // Pivot on (r, e).
        let pivot = t[r][e];
        for v in t[r].iter_mut() {
            *v /= pivot;
        }
        for i in 0..=m {
            if i == r {
                continue;
            }
            let factor = t[i][e];
            if factor == 0.0 {
                continue;
            }
            // Row operation: row_i -= factor * row_r.
            let (head, tail) = t.split_at_mut(r.max(i));
            let (row_i, row_r) = if i < r {
                (&mut head[i], &tail[0])
            } else {
                (&mut tail[0], &head[r])
            };
            for (vi, vr) in row_i.iter_mut().zip(row_r.iter()) {
                *vi -= factor * vr;
            }
        }
        basis[r] = e;
        pivots += 1;
        if pivots > max_pivots {
            return Err(GameError::SolverStalled { pivots });
        }
    }

    // Extract primal.
    let mut primal = vec![0.0; n];
    for (i, &bv) in basis.iter().enumerate() {
        if bv < n {
            primal[bv] = t[i][width - 1];
        }
    }
    let objective: f64 = c.iter().zip(&primal).map(|(ci, zi)| ci * zi).sum();
    // Duals: y_i = -reduced cost of slack i (c_slack = 0).
    let duals: Vec<f64> = (0..m).map(|i| -t[m][n + i]).collect();
    Ok(SimplexResult {
        primal,
        objective,
        duals,
        pivots,
    })
}

/// Solve a zero-sum game exactly by linear programming.
///
/// Returns the equilibrium strategies of both players and the game
/// value. This is the reference solver the iterative methods are
/// validated against.
///
/// # Errors
///
/// Returns [`GameError::SolverStalled`] on numerically degenerate
/// inputs (should not occur for finite payoff matrices).
///
/// # Example
///
/// ```
/// use poisongame_theory::{solve_lp, MatrixGame};
///
/// let pennies = MatrixGame::from_rows(&[vec![1.0, -1.0], vec![-1.0, 1.0]]).unwrap();
/// let sol = solve_lp(&pennies).unwrap();
/// assert!(sol.value.abs() < 1e-9);
/// assert!((sol.row_strategy.prob(0) - 0.5).abs() < 1e-9);
/// ```
pub fn solve_lp(game: &MatrixGame) -> Result<Solution, GameError> {
    // Shift so every payoff ≥ 1: the shifted value is then ≥ 1 > 0.
    let shift = 1.0 - game.min_payoff();
    let shifted = game.shifted(shift);
    let (m, n) = shifted.shape();

    // Column player's LP in u-space: max Σu s.t. A u ≤ 1, u ≥ 0.
    let c = vec![1.0; n];
    let rows: Vec<Vec<f64>> = (0..m).map(|i| shifted.payoffs().row(i).to_vec()).collect();
    let b = vec![1.0; m];
    let result = simplex_maximize(&c, &rows, &b)?;

    let sum_u = result.objective;
    if sum_u <= 0.0 {
        return Err(GameError::InvalidPayoffs {
            message: format!("degenerate LP objective {sum_u}"),
        });
    }
    let shifted_value = 1.0 / sum_u;

    // Column strategy y = u * v'.
    let y: Vec<f64> = result
        .primal
        .iter()
        .map(|&u| (u * shifted_value).max(0.0))
        .collect();
    // Row strategy from duals: x = w * v' where w are the constraint
    // duals (strong duality gives Σw = Σu).
    let x: Vec<f64> = result
        .duals
        .iter()
        .map(|&w| (w * shifted_value).max(0.0))
        .collect();

    let row_strategy = MixedStrategy::from_weights(x)?;
    let column_strategy = MixedStrategy::from_weights(y)?;
    let value = shifted_value - shift;

    Ok(Solution {
        row_strategy,
        column_strategy,
        value,
        iterations: result.pivots.max(1),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_equilibrium(game: &MatrixGame, sol: &Solution, tol: f64) {
        let expl = game
            .exploitability(&sol.row_strategy, &sol.column_strategy)
            .unwrap();
        assert!(expl.abs() < tol, "exploitability {expl}");
        let ev = game
            .expected_payoff(&sol.row_strategy, &sol.column_strategy)
            .unwrap();
        assert!(
            (ev - sol.value).abs() < tol,
            "ev {ev} vs value {}",
            sol.value
        );
    }

    #[test]
    fn matching_pennies_is_uniform() {
        let g = MatrixGame::from_rows(&[vec![1.0, -1.0], vec![-1.0, 1.0]]).unwrap();
        let sol = solve_lp(&g).unwrap();
        assert!(sol.value.abs() < 1e-9);
        assert!((sol.row_strategy.prob(0) - 0.5).abs() < 1e-9);
        assert!((sol.column_strategy.prob(0) - 0.5).abs() < 1e-9);
        assert_equilibrium(&g, &sol, 1e-9);
    }

    #[test]
    fn rock_paper_scissors_is_uniform() {
        let g = MatrixGame::from_rows(&[
            vec![0.0, -1.0, 1.0],
            vec![1.0, 0.0, -1.0],
            vec![-1.0, 1.0, 0.0],
        ])
        .unwrap();
        let sol = solve_lp(&g).unwrap();
        assert!(sol.value.abs() < 1e-9);
        for p in sol.row_strategy.probabilities() {
            assert!((p - 1.0 / 3.0).abs() < 1e-9);
        }
        assert_equilibrium(&g, &sol, 1e-9);
    }

    #[test]
    fn saddle_point_game_solves_pure() {
        let g = MatrixGame::from_rows(&[vec![1.0, 3.0], vec![2.0, 4.0]]).unwrap();
        let sol = solve_lp(&g).unwrap();
        assert!((sol.value - 2.0).abs() < 1e-9);
        assert!(sol.row_strategy.is_pure());
        assert!(sol.column_strategy.is_pure());
        assert_equilibrium(&g, &sol, 1e-9);
    }

    #[test]
    fn known_2x2_mixed_value() {
        // Value = (ad - bc) / (a + d - b - c) for no-saddle 2x2 games.
        let (a, b, c, d) = (3.0, -1.0, -2.0, 1.0);
        let g = MatrixGame::from_rows(&[vec![a, b], vec![c, d]]).unwrap();
        let sol = solve_lp(&g).unwrap();
        let expected = (a * d - b * c) / (a + d - b - c);
        assert!((sol.value - expected).abs() < 1e-9, "value {}", sol.value);
        assert_equilibrium(&g, &sol, 1e-9);
    }

    #[test]
    fn rectangular_game() {
        let g = MatrixGame::from_rows(&[vec![2.0, -1.0, 4.0, 0.5], vec![-3.0, 5.0, -2.0, 1.0]])
            .unwrap();
        let sol = solve_lp(&g).unwrap();
        assert_equilibrium(&g, &sol, 1e-9);
    }

    #[test]
    fn negative_payoff_game() {
        let g = MatrixGame::from_rows(&[vec![-5.0, -3.0], vec![-2.0, -7.0]]).unwrap();
        let sol = solve_lp(&g).unwrap();
        assert!(sol.value < 0.0);
        assert_equilibrium(&g, &sol, 1e-9);
    }

    #[test]
    fn value_between_pure_bounds() {
        let g = MatrixGame::from_rows(&[
            vec![0.0, 2.0, -1.0],
            vec![-2.0, 0.0, 3.0],
            vec![1.0, -3.0, 0.0],
        ])
        .unwrap();
        let sol = solve_lp(&g).unwrap();
        assert!(sol.value >= g.pure_maximin() - 1e-9);
        assert!(sol.value <= g.pure_minimax() + 1e-9);
        assert_equilibrium(&g, &sol, 1e-9);
    }

    #[test]
    fn larger_random_game_has_zero_exploitability() {
        use poisongame_linalg::Xoshiro256StarStar;
        use rand::SeedableRng;
        let mut rng = Xoshiro256StarStar::seed_from_u64(77);
        let g = MatrixGame::from_fn(9, 7, |_, _| rng.next_f64() * 10.0 - 5.0);
        let sol = solve_lp(&g).unwrap();
        assert_equilibrium(&g, &sol, 1e-8);
    }

    #[test]
    fn integer_payoff_games_with_ties_solve_exactly() {
        // Small integer payoffs repeat values within rows and columns,
        // which makes degenerate pivots (ties in the ratio test) common.
        use poisongame_linalg::Xoshiro256StarStar;
        use rand::SeedableRng;
        let mut rng = Xoshiro256StarStar::seed_from_u64(31);
        for _ in 0..8 {
            let g = MatrixGame::from_fn(4, 4, |_, _| (rng.next_f64() * 10.0).round() - 5.0);
            let sol = solve_lp(&g).unwrap();
            assert!(sol.value >= g.pure_maximin() - 1e-9);
            assert!(sol.value <= g.pure_minimax() + 1e-9);
            assert_equilibrium(&g, &sol, 1e-9);
        }
    }

    #[test]
    fn dominated_strategies_get_zero_probability() {
        // Row 0 strictly dominates row 1.
        let g = MatrixGame::from_rows(&[vec![3.0, 2.0], vec![1.0, 0.0], vec![0.0, 4.0]]).unwrap();
        let sol = solve_lp(&g).unwrap();
        assert!(sol.row_strategy.prob(1) < 1e-9);
        assert_equilibrium(&g, &sol, 1e-9);
    }
}
