//! `poisongame-online` — the repeated-game simulator: adaptive
//! attackers and defenders playing T rounds over streaming data
//! batches.
//!
//! The paper models poisoning as a **one-shot** zero-sum game solved
//! for a static mixed-strategy NE (Algorithm 1). This crate opens the
//! *interactive* workload class: each round the attacker commits a
//! poison placement and the defender a filter strength over the
//! round's data batch, both observe what happened, and both adapt.
//! Because no-regret dynamics' time-averaged strategies converge to
//! the one-shot equilibrium in zero-sum games, repeated play doubles
//! as an independent validation of the static NE the rest of the
//! workspace computes.
//!
//! * [`learner`] — the [`Learner`] trait and the shipped update
//!   rules: regret matching, Hedge (anytime multiplicative weights),
//!   fictitious play, and fixed-NE / fixed-pure baselines.
//! * [`payoff`] — how rounds are scored: a precomputed
//!   [`MatrixPayoff`] (the paper's discretized game, or an empirical
//!   grid whose every pair **actually runs** the configured
//!   attack × defense × learner cell). Horizons of `T ≥ 10k` run at
//!   solver speed.
//! * [`play`](mod@play) — the deterministic simulator and its convergence
//!   diagnostics (per-player external regret, exploitability, NE
//!   gap), serialized as an [`OnlineTrace`].
//! * [`spec`] — the serializable [`OnlineSpec`] the serving protocol
//!   ships.
//! * [`pipeline`] — empirical runs end to end: [`run_online`] prepares
//!   through the [`poisongame_sim::EvalEngine`]'s cache, then runs
//!   [`run_online_prepared`] (the core the serving executors call):
//!   the payoff grid materialized on the worker pool, then play.
//! * [`report`] — ASCII/CSV rendering of traces.
//!
//! # Example
//!
//! Self-play on the paper's discretized game converges to the static
//! equilibrium:
//!
//! ```no_run
//! use poisongame_core::bridge::{discretized_game, solve_discretized};
//! use poisongame_core::{CostCurve, EffectCurve, PoisonGame};
//! use poisongame_online::payoff::MatrixPayoff;
//! use poisongame_online::play::{play, PlayConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let effect = EffectCurve::from_samples(&[(0.0, 2.0e-4), (0.3, 1.5e-5), (0.45, -1.0e-6)])?;
//! let cost = CostCurve::from_samples(&[(0.0, 0.0), (0.3, 0.04)])?;
//! let game = PoisonGame::new(effect, cost, 644)?;
//! let (_grid, matrix) = discretized_game(&game, 40);
//!
//! let trace = play(
//!     &MatrixPayoff::new(matrix),
//!     &PlayConfig { rounds: 10_000, ..PlayConfig::default() },
//! )?;
//! let lp = solve_discretized(&game, 40)?;
//! assert!((trace.last().average_value - lp.value).abs() < 1e-2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod learner;
pub mod payoff;
pub mod pipeline;
pub mod play;
pub mod report;
pub mod spec;

pub use error::OnlineError;
pub use learner::{FixedStrategy, FollowTheLeader, Hedge, Learner, LearnerKind, RegretMatching};
pub use payoff::MatrixPayoff;
pub use pipeline::{run_online, run_online_prepared, OnlineOutcome};
pub use play::{play, Feedback, OnlinePoint, OnlineTrace, PlayConfig};
pub use spec::OnlineSpec;
