//! The unified solver interface: every zero-sum solver in this crate
//! behind one trait, plus a runtime-selectable [`SolverKind`] with an
//! auto-select heuristic.
//!
//! The three concrete solvers trade exactness for scalability:
//!
//! | solver | exact? | scales to |
//! |---|---|---|
//! | [`SimplexLp`] | yes | small/medium games (LP tableau is `O((m+n)²)`) |
//! | [`FictitiousPlay`] | no (`O(1/√t)`) | large games, anytime |
//! | [`MultiplicativeWeights`] | no (`O(√(ln k / T))`) | large games, two threads past 128² payoffs |
//!
//! [`SolverKind::Auto`] picks the exact LP for small games and
//! multiplicative weights beyond [`AUTO_EXACT_LIMIT`] actions, so
//! experiment configs can stay solver-agnostic while sweeps scale.
//!
//! # Example
//!
//! ```
//! use poisongame_theory::{MatrixGame, SolverKind, ZeroSumSolver};
//!
//! let rps = MatrixGame::from_rows(&[
//!     vec![0.0, -1.0, 1.0],
//!     vec![1.0, 0.0, -1.0],
//!     vec![-1.0, 1.0, 0.0],
//! ]).unwrap();
//! for kind in SolverKind::ALL {
//!     let solver = kind.instantiate(&rps);
//!     let sol = solver.solve(&rps).unwrap();
//!     let expl = rps.exploitability(&sol.row_strategy, &sol.column_strategy).unwrap();
//!     assert!(expl <= solver.exploitability_bound(&rps), "{}", solver.name());
//! }
//! ```

use crate::error::GameError;
use crate::fictitious::{solve_fictitious_play, FictitiousPlayConfig};
use crate::matrix_game::MatrixGame;
use crate::multiplicative::{solve_multiplicative_weights, MultiplicativeWeightsConfig};
use crate::simplex::solve_lp;
use crate::strategy::Solution;

/// Largest action count for which [`SolverKind::Auto`] still picks the
/// exact LP; beyond it `Auto` takes multiplicative weights.
///
/// The cut suits dense random games, where the LP's pivot count grows
/// fast: on a 2-core host a 300 × 300 one took 2.4 s against 0.87 s
/// for MW. It is not where the LP starts to lose on the paper's own
/// games. Their discretized resolution-150 games (152 × 151) took the
/// LP 151 pivots and 2.3–5.3 ms to solve exactly, against 238–329 ms
/// for MW's approximate solve.
pub const AUTO_EXACT_LIMIT: usize = 128;

/// A zero-sum matrix-game solver: solve a [`MatrixGame`] into a
/// [`Solution`] and describe its own quality guarantees.
pub trait ZeroSumSolver {
    /// Stable identifier (used in reports and benches).
    fn name(&self) -> &'static str;

    /// Whether returned solutions are exact equilibria (up to floating
    /// point), as opposed to iterative approximations.
    fn is_exact(&self) -> bool;

    /// Advertised upper bound on the exploitability of the profile this
    /// solver returns for `game`. Successful [`solve`](Self::solve)
    /// calls must stay below it.
    fn exploitability_bound(&self, game: &MatrixGame) -> f64;

    /// Solve the game.
    ///
    /// # Errors
    ///
    /// Propagates the underlying solver's failure modes (degenerate
    /// payoffs, iteration caps).
    fn solve(&self, game: &MatrixGame) -> Result<Solution, GameError>;
}

/// The exact primal-simplex LP solver (see [`crate::simplex`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimplexLp;

impl ZeroSumSolver for SimplexLp {
    fn name(&self) -> &'static str {
        "simplex_lp"
    }

    fn is_exact(&self) -> bool {
        true
    }

    fn exploitability_bound(&self, game: &MatrixGame) -> f64 {
        // Exact up to accumulated pivot round-off, which scales with
        // the payoff magnitude.
        1e-8 * game
            .max_payoff()
            .abs()
            .max(game.min_payoff().abs())
            .max(1.0)
    }

    fn solve(&self, game: &MatrixGame) -> Result<Solution, GameError> {
        solve_lp(game)
    }
}

/// Fictitious play behind the unified interface (see
/// [`crate::fictitious`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FictitiousPlay(pub FictitiousPlayConfig);

impl ZeroSumSolver for FictitiousPlay {
    fn name(&self) -> &'static str {
        "fictitious_play"
    }

    fn is_exact(&self) -> bool {
        false
    }

    fn exploitability_bound(&self, _game: &MatrixGame) -> f64 {
        // `solve_fictitious_play` only returns Ok once the measured
        // exploitability is below the configured tolerance.
        self.0.tolerance
    }

    fn solve(&self, game: &MatrixGame) -> Result<Solution, GameError> {
        solve_fictitious_play(game, &self.0)
    }
}

/// Multiplicative weights (Hedge) behind the unified interface (see
/// [`crate::multiplicative`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MultiplicativeWeights(pub MultiplicativeWeightsConfig);

impl ZeroSumSolver for MultiplicativeWeights {
    fn name(&self) -> &'static str {
        "multiplicative_weights"
    }

    fn is_exact(&self) -> bool {
        false
    }

    fn exploitability_bound(&self, game: &MatrixGame) -> f64 {
        // Hedge regret: the averaged profile's exploitability is at
        // most the sum of both players' average regrets,
        // range·√(ln k / (2T)) each. A 2× cushion absorbs the
        // non-asymptotic constants at practical iteration counts.
        let (m, n) = game.shape();
        let t = self.0.iterations.max(1) as f64;
        let range = (game.max_payoff() - game.min_payoff()).max(1e-12);
        let reg = |k: usize| range * ((k as f64).ln().max(1.0) / (2.0 * t)).sqrt();
        2.0 * (reg(m) + reg(n))
    }

    fn solve(&self, game: &MatrixGame) -> Result<Solution, GameError> {
        solve_multiplicative_weights(game, &self.0)
    }
}

/// Runtime-selectable solver choice, carried by experiment configs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SolverKind {
    /// Exact LP for games up to [`AUTO_EXACT_LIMIT`] actions per side,
    /// multiplicative weights beyond.
    #[default]
    Auto,
    /// Always the exact simplex LP.
    Simplex,
    /// Always fictitious play (default configuration).
    FictitiousPlay,
    /// Always multiplicative weights (default configuration).
    MultiplicativeWeights,
}

impl SolverKind {
    /// The three concrete choices (excludes [`SolverKind::Auto`]) —
    /// handy for benches and cross-solver tests.
    pub const ALL: [SolverKind; 3] = [
        SolverKind::Simplex,
        SolverKind::FictitiousPlay,
        SolverKind::MultiplicativeWeights,
    ];

    /// Resolve `Auto` against a concrete game's size.
    pub fn resolve(self, game: &MatrixGame) -> SolverKind {
        match self {
            SolverKind::Auto => {
                let (m, n) = game.shape();
                if m.max(n) <= AUTO_EXACT_LIMIT {
                    SolverKind::Simplex
                } else {
                    SolverKind::MultiplicativeWeights
                }
            }
            concrete => concrete,
        }
    }

    /// Build the solver this kind denotes for `game`.
    pub fn instantiate(self, game: &MatrixGame) -> Box<dyn ZeroSumSolver> {
        match self.resolve(game) {
            SolverKind::Simplex => Box::new(SimplexLp),
            SolverKind::FictitiousPlay => Box::new(FictitiousPlay::default()),
            SolverKind::MultiplicativeWeights => Box::new(MultiplicativeWeights::default()),
            SolverKind::Auto => unreachable!("resolve never returns Auto"),
        }
    }

    /// Build a cheap, coarse-tolerance variant for seeding work where
    /// a rough equilibrium is enough (e.g. Algorithm 1's warm start).
    /// Iterative budgets are bounded so a hard game cannot stall the
    /// caller for millions of iterations.
    pub fn instantiate_coarse(self, game: &MatrixGame) -> Box<dyn ZeroSumSolver> {
        match self.resolve(game) {
            SolverKind::Simplex => Box::new(SimplexLp),
            SolverKind::FictitiousPlay => Box::new(FictitiousPlay(FictitiousPlayConfig {
                max_iterations: 200_000,
                tolerance: 2e-2,
                check_every: 1_000,
            })),
            SolverKind::MultiplicativeWeights => {
                Box::new(MultiplicativeWeights(MultiplicativeWeightsConfig {
                    iterations: 5_000,
                    eta: None,
                }))
            }
            SolverKind::Auto => unreachable!("resolve never returns Auto"),
        }
    }

    /// Solve `game` with the denoted solver.
    ///
    /// # Errors
    ///
    /// Propagates the underlying solver's failure modes.
    pub fn solve(self, game: &MatrixGame) -> Result<Solution, GameError> {
        self.instantiate(game).solve(game)
    }

    /// The resolved solver's stable name for `game`.
    pub fn name_for(self, game: &MatrixGame) -> &'static str {
        self.instantiate(game).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rps() -> MatrixGame {
        MatrixGame::from_rows(&[
            vec![0.0, -1.0, 1.0],
            vec![1.0, 0.0, -1.0],
            vec![-1.0, 1.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn all_solvers_meet_their_advertised_bounds_on_rps() {
        let g = rps();
        for kind in SolverKind::ALL {
            let solver = kind.instantiate(&g);
            let sol = solver.solve(&g).unwrap();
            let expl = g
                .exploitability(&sol.row_strategy, &sol.column_strategy)
                .unwrap();
            assert!(
                expl <= solver.exploitability_bound(&g),
                "{}: exploitability {expl} above bound {}",
                solver.name(),
                solver.exploitability_bound(&g)
            );
        }
    }

    #[test]
    fn auto_picks_lp_for_small_games() {
        let g = rps();
        assert_eq!(SolverKind::Auto.resolve(&g), SolverKind::Simplex);
        assert_eq!(SolverKind::Auto.name_for(&g), "simplex_lp");
    }

    #[test]
    fn auto_picks_iterative_for_large_games() {
        let g = MatrixGame::from_fn(AUTO_EXACT_LIMIT + 1, 4, |i, j| (i + j) as f64 % 3.0);
        assert_eq!(
            SolverKind::Auto.resolve(&g),
            SolverKind::MultiplicativeWeights
        );
    }

    #[test]
    fn concrete_kinds_resolve_to_themselves() {
        let g = rps();
        for kind in SolverKind::ALL {
            assert_eq!(kind.resolve(&g), kind);
        }
    }

    #[test]
    fn exactness_flags() {
        let g = rps();
        assert!(SolverKind::Simplex.instantiate(&g).is_exact());
        assert!(!SolverKind::FictitiousPlay.instantiate(&g).is_exact());
        assert!(!SolverKind::MultiplicativeWeights.instantiate(&g).is_exact());
    }

    #[test]
    fn kind_solve_matches_direct_call() {
        let g = rps();
        let a = SolverKind::Simplex.solve(&g).unwrap();
        let b = solve_lp(&g).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn default_kind_is_auto() {
        assert_eq!(SolverKind::default(), SolverKind::Auto);
    }
}
