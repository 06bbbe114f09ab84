//! Finite two-player zero-sum game substrate.
//!
//! The paper's poisoning game is continuous, but its defender-NE
//! approximation (Algorithm 1) is validated here against *discretized*
//! matrix games solved exactly. This crate provides that machinery:
//! payoff matrices, validated mixed strategies, pure-equilibrium
//! (saddle-point) detection, and three independent solvers — a
//! hand-written primal simplex LP solver (exact), fictitious play and
//! multiplicative weights (iterative) — plus exploitability as the
//! universal quality measure.
//!
//! Convention: the **row player maximizes** the payoff, the **column
//! player minimizes** it. In the poisoning game the attacker is the
//! row player and the defender the column player.
//!
//! # Example
//!
//! ```
//! use poisongame_theory::{MatrixGame, solve_lp};
//!
//! // Rock-paper-scissors: the unique NE is uniform for both players.
//! let rps = MatrixGame::from_rows(&[
//!     vec![0.0, -1.0, 1.0],
//!     vec![1.0, 0.0, -1.0],
//!     vec![-1.0, 1.0, 0.0],
//! ]).unwrap();
//! let solution = solve_lp(&rps).unwrap();
//! assert!(solution.value.abs() < 1e-9);
//! for p in solution.row_strategy.probabilities() {
//!     assert!((p - 1.0 / 3.0).abs() < 1e-9);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fictitious;
pub mod matrix_game;
pub mod multiplicative;
pub mod simplex;
pub mod solver;
pub mod strategy;

pub use error::GameError;
pub use fictitious::{solve_fictitious_play, FictitiousPlayConfig};
pub use matrix_game::MatrixGame;
pub use multiplicative::{softmax, solve_multiplicative_weights, MultiplicativeWeightsConfig};
pub use simplex::solve_lp;
pub use solver::{
    FictitiousPlay, MultiplicativeWeights, SimplexLp, SolverKind, ZeroSumSolver, AUTO_EXACT_LIMIT,
};
pub use strategy::{sample_index, MixedStrategy, Solution};
