//! Discretize the continuous poisoning game into a finite matrix game
//! and solve it exactly — the independent cross-check on Algorithm 1.
//!
//! Attacker actions: place the whole budget at one grid percentile
//! (mixing over these spans every expected allocation, because the
//! payoff is linear in the allocation), plus an "abstain" action.
//! Defender actions: one filter strength per grid percentile. The LP
//! solution is an exact NE of the discretized game; as the grid
//! refines, its value converges to the continuous game's value, so
//! Algorithm 1's loss should match it closely.

use crate::error::CoreError;
use crate::game_model::{percentile_grid, PoisonGame};
use crate::strategy::DefenderMixedStrategy;
use poisongame_theory::{MatrixGame, Solution, SolverKind};

/// A solved discretization.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscretizedSolution {
    /// Grid percentiles indexing both players' actions.
    pub grid: Vec<f64>,
    /// The matrix-game solution (row = attacker; the final row index is
    /// the abstain action).
    pub solution: Solution,
    /// The defender's equilibrium strategy collapsed onto its support.
    pub defender_strategy: DefenderMixedStrategy,
    /// The attacker's equilibrium placement mass per grid percentile
    /// (excludes abstain).
    pub attacker_support: Vec<(f64, f64)>,
    /// The game value = the defender's equilibrium loss.
    pub value: f64,
    /// Name of the solver that produced [`Self::solution`].
    pub solver: String,
}

/// Build the discretized payoff matrix.
///
/// Rows: placements at each grid percentile, then abstain.
/// Columns: filter strengths at each grid percentile.
pub fn to_matrix_game(game: &PoisonGame, grid: &[f64]) -> MatrixGame {
    let n = game.n_points() as f64;
    let g = grid.to_vec();
    MatrixGame::from_fn(grid.len() + 1, grid.len(), move |i, j| {
        let theta = g[j];
        let cost = game.cost().eval(theta);
        if i == g.len() {
            // Abstain.
            cost
        } else {
            let p = g[i];
            let survives = theta <= p + 1e-12;
            if survives {
                n * game.effect().eval(p) + cost
            } else {
                cost
            }
        }
    })
}

/// Discretize the continuous game onto the standard percentile grid:
/// `(grid, matrix game)`. The convenience entry repeated-game
/// simulation (`poisongame-online`) and the solve service share with
/// the cross-check path below — both players' action `k` is the grid
/// percentile `grid[k]`, with the attacker's extra final row the
/// abstain action.
pub fn discretized_game(game: &PoisonGame, resolution: usize) -> (Vec<f64>, MatrixGame) {
    let grid = percentile_grid(resolution);
    let matrix = to_matrix_game(game, &grid);
    (grid, matrix)
}

/// Solve the discretized game exactly by LP.
///
/// Shorthand for [`solve_discretized_with`] using
/// [`SolverKind::Simplex`] — the historical behavior and the
/// cross-check baseline.
///
/// # Errors
///
/// Propagates LP-solver and strategy-construction failures.
pub fn solve_discretized(
    game: &PoisonGame,
    resolution: usize,
) -> Result<DiscretizedSolution, CoreError> {
    solve_discretized_with(game, resolution, SolverKind::Simplex)
}

/// Fraction of the probability mass the collapsed support of an
/// iterative (inexact) solver must cover. Averaged strategies from
/// Hedge/fictitious play never reach exact zeros, so a fixed mass
/// floor cannot separate their smear from real support — instead the
/// densest grid points covering this much mass are kept.
const ITERATIVE_COVERAGE: f64 = 0.95;

/// Indices of the densest entries covering `coverage` of the total
/// mass, returned in ascending index order. Exact solvers instead use
/// a tiny floor (`1e-9`) so their crisp supports are kept whole.
fn dominant_indices(probs: &[f64], coverage: f64) -> Vec<usize> {
    let mut by_mass: Vec<usize> = (0..probs.len()).collect();
    by_mass.sort_by(|&a, &b| {
        probs[b]
            .partial_cmp(&probs[a])
            .expect("finite mass")
            .then(a.cmp(&b))
    });
    let total: f64 = probs.iter().sum();
    let mut kept = Vec::new();
    let mut acc = 0.0;
    for i in by_mass {
        if acc >= coverage * total {
            break;
        }
        acc += probs[i];
        kept.push(i);
    }
    kept.sort_unstable();
    kept
}

/// Support selection shared by both players: exact solvers keep their
/// crisp support whole (above a tiny floor), iterative solvers keep
/// the densest points covering [`ITERATIVE_COVERAGE`] of the mass.
fn kept_indices(probs: &[f64], exact: bool) -> Vec<usize> {
    if exact {
        (0..probs.len()).filter(|&i| probs[i] > 1e-9).collect()
    } else {
        dominant_indices(probs, ITERATIVE_COVERAGE)
    }
}

/// Solve the discretized game with a runtime-selected solver.
///
/// Exact solvers produce crisp supports (kept whole, above a `1e-9`
/// floor); for iterative solvers the grid distributions are collapsed
/// to the densest points covering 95 % of the mass (their averaged
/// strategies never reach exact zeros) and the defender's side is
/// renormalized.
///
/// # Errors
///
/// Propagates solver and strategy-construction failures.
pub fn solve_discretized_with(
    game: &PoisonGame,
    resolution: usize,
    kind: SolverKind,
) -> Result<DiscretizedSolution, CoreError> {
    solve_discretized_inner(game, resolution, kind, false)
}

/// [`solve_discretized_with`] on the coarse seeding budget
/// ([`SolverKind::instantiate_coarse`]): bounded iterative work, loose
/// tolerance. Meant for initialization (Algorithm 1's warm start), not
/// for reported results.
///
/// # Errors
///
/// Propagates solver and strategy-construction failures.
pub fn solve_discretized_coarse(
    game: &PoisonGame,
    resolution: usize,
    kind: SolverKind,
) -> Result<DiscretizedSolution, CoreError> {
    solve_discretized_inner(game, resolution, kind, true)
}

fn solve_discretized_inner(
    game: &PoisonGame,
    resolution: usize,
    kind: SolverKind,
    coarse: bool,
) -> Result<DiscretizedSolution, CoreError> {
    let (grid, matrix) = discretized_game(game, resolution);
    let solver = if coarse {
        kind.instantiate_coarse(&matrix)
    } else {
        kind.instantiate(&matrix)
    };
    let solution = solver.solve(&matrix)?;

    // Collapse the defender's grid distribution onto its support.
    let column_probs = solution.column_strategy.probabilities();
    let kept_cols = kept_indices(column_probs, solver.is_exact());
    let support: Vec<f64> = kept_cols.iter().map(|&j| grid[j]).collect();
    let mut probs: Vec<f64> = kept_cols.iter().map(|&j| column_probs[j]).collect();
    let kept: f64 = probs.iter().sum();
    for q in &mut probs {
        *q /= kept;
    }
    let defender_strategy = DefenderMixedStrategy::new(support, probs)?;

    // Attacker side: same rule, over the placement rows (abstain, the
    // final row, is excluded from the reported support by definition).
    let row_probs = &solution.row_strategy.probabilities()[..grid.len()];
    let kept_rows = kept_indices(row_probs, solver.is_exact());
    let attacker_support: Vec<(f64, f64)> =
        kept_rows.iter().map(|&i| (grid[i], row_probs[i])).collect();

    let value = solution.value;
    Ok(DiscretizedSolution {
        grid,
        solution,
        defender_strategy,
        attacker_support,
        value,
        solver: solver.name().to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm1::Algorithm1;
    use crate::curves::{CostCurve, EffectCurve};

    fn paper_like_game() -> PoisonGame {
        let effect = EffectCurve::from_samples(&[
            (0.0, 2.0e-4),
            (0.05, 1.4e-4),
            (0.10, 9.0e-5),
            (0.20, 4.0e-5),
            (0.30, 1.5e-5),
            (0.40, 2.0e-6),
            (0.45, -1.0e-6),
        ])
        .unwrap();
        let cost = CostCurve::from_samples(&[
            (0.0, 0.0),
            (0.05, 0.004),
            (0.10, 0.009),
            (0.20, 0.022),
            (0.30, 0.040),
            (0.40, 0.065),
        ])
        .unwrap();
        PoisonGame::new(effect, cost, 644).unwrap()
    }

    #[test]
    fn matrix_entries_match_payoff_semantics() {
        let game = paper_like_game();
        let grid = [0.0, 0.1, 0.2];
        let m = to_matrix_game(&game, &grid);
        assert_eq!(m.shape(), (4, 3));
        // Placement at 0.1 vs filter 0.2: removed → only Γ.
        assert!((m.payoff(1, 2) - game.cost().eval(0.2)).abs() < 1e-12);
        // Placement at 0.2 vs filter 0.1: survives.
        let expected = 644.0 * game.effect().eval(0.2) + game.cost().eval(0.1);
        assert!((m.payoff(2, 1) - expected).abs() < 1e-12);
        // Abstain row: pure Γ.
        assert!((m.payoff(3, 1) - game.cost().eval(0.1)).abs() < 1e-12);
    }

    #[test]
    fn discretized_equilibrium_is_mixed() {
        // Proposition 1 in discrete form: the equilibrium of the
        // discretized poisoning game is not pure.
        let game = paper_like_game();
        let grid = percentile_grid(50);
        let m = to_matrix_game(&game, &grid);
        assert!(m.saddle_point().is_none(), "unexpected pure NE");
        let sol = solve_discretized(&game, 50).unwrap();
        assert!(
            sol.defender_strategy.support().len() >= 2,
            "defender NE should mix: {:?}",
            sol.defender_strategy.support()
        );
    }

    #[test]
    fn lp_value_close_to_algorithm1_loss() {
        let game = paper_like_game();
        let lp = solve_discretized(&game, 100).unwrap();
        let a1 = Algorithm1::with_support_size(4).solve(&game).unwrap();
        // Algorithm 1 restricts the support size; the LP mixes freely
        // over the grid. They must agree within discretization slack.
        let rel = (lp.value - a1.defender_loss).abs() / lp.value.abs().max(1e-12);
        assert!(
            rel < 0.15,
            "LP value {} vs Algorithm1 loss {} (rel {rel})",
            lp.value,
            a1.defender_loss
        );
    }

    #[test]
    fn defender_equilibrium_loss_below_pure_strategies() {
        let game = paper_like_game();
        let sol = solve_discretized(&game, 60).unwrap();
        // The LP value is the defender's guaranteed cap; every pure
        // strategy does weakly worse against a best-responding attacker.
        for &theta in &sol.grid {
            let pure = DefenderMixedStrategy::pure(theta).unwrap();
            let pure_loss = pure.defender_loss(game.effect(), game.cost(), game.n_points());
            assert!(sol.value <= pure_loss + 1e-9, "θ={theta}");
        }
    }

    #[test]
    fn iterative_solvers_approximate_the_lp_value() {
        let game = paper_like_game();
        let lp = solve_discretized(&game, 40).unwrap();
        assert_eq!(lp.solver, "simplex_lp");
        for kind in [
            SolverKind::MultiplicativeWeights,
            SolverKind::FictitiousPlay,
        ] {
            let approx = solve_discretized_with(&game, 40, kind).unwrap();
            assert_ne!(approx.solver, "simplex_lp");
            let scale = lp.value.abs().max(1e-3);
            assert!(
                (approx.value - lp.value).abs() / scale < 0.25,
                "{}: value {} vs LP {}",
                approx.solver,
                approx.value,
                lp.value
            );
        }
    }

    #[test]
    fn attacker_mass_stays_in_profitable_zone() {
        let game = paper_like_game();
        let sol = solve_discretized(&game, 60).unwrap();
        for &(p, _) in &sol.attacker_support {
            assert!(
                game.effect().eval(p) >= -1e-9,
                "attacker places at unprofitable {p}"
            );
        }
    }
}
