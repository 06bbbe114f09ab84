//! The paper's contribution: the poisoning attack/defense game model,
//! its equilibrium analysis, and Algorithm 1.
//!
//! # The model, in this crate's coordinates
//!
//! Everything lives on the **removal-percentile axis** `p ∈ [0, 1)` —
//! the x-axis of the paper's Figure 1. A filter of strength `θ` removes
//! the fraction `θ` of each class farthest from its centroid; a poison
//! point "at position `p`" sits at the radius that a strength-`p`
//! filter would just keep. Larger `p` = closer to the centroid.
//! The paper's radius boundary `B` is `p = 0`.
//!
//! Two empirical curves parameterize the game (the paper estimates
//! both from its Figure 1 sweep, as do we):
//!
//! * [`EffectCurve`] `E(p)` — accuracy damage per *surviving* poison
//!   point placed at `p`; decreasing in `p`.
//! * [`CostCurve`] `Γ(p)` — accuracy lost to removing `p` of the
//!   genuine data; increasing in `p`, `Γ(0) = 0`.
//!
//! The zero-sum payoff (attacker maximizes) is
//! `U(S_a, θ) = Σ_{p_i ≥ θ} n_i·E(p_i) + Γ(θ)`.
//!
//! [`brf`] reproduces Proposition 1 (no pure equilibrium),
//! [`ne`] the equilibrium structure of §4.2 (equal `E·cdf` products),
//! [`algorithm1`] the paper's Algorithm 1, and [`bridge`] the
//! discretized matrix-game cross-check solved exactly by LP.
//!
//! # Example
//!
//! ```
//! use poisongame_core::{Algorithm1, Algorithm1Config, CostCurve, EffectCurve, PoisonGame};
//!
//! // Synthetic curves with the paper's qualitative shape.
//! let effect = EffectCurve::from_samples(&[
//!     (0.0, 1.0e-4), (0.1, 6.0e-5), (0.3, 1.0e-5), (0.5, -1.0e-5),
//! ]).unwrap();
//! let cost = CostCurve::from_samples(&[
//!     (0.0, 0.0), (0.1, 0.01), (0.3, 0.05), (0.5, 0.12),
//! ]).unwrap();
//! let game = PoisonGame::new(effect, cost, 644).unwrap();
//! let result = Algorithm1::new(Algorithm1Config { n_radii: 2, ..Default::default() })
//!     .solve(&game)
//!     .unwrap();
//! assert_eq!(result.strategy.support().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm1;
pub mod brf;
pub mod bridge;
pub mod curves;
pub mod error;
pub mod game_model;
pub mod ne;
pub mod paper;
pub mod strategy;

pub use algorithm1::{Algorithm1, Algorithm1Config, Algorithm1Result};
pub use curves::{CostCurve, EffectCurve};
pub use error::CoreError;
pub use game_model::PoisonGame;
pub use poisongame_theory::{SolverKind, AUTO_EXACT_LIMIT};
pub use strategy::DefenderMixedStrategy;
