//! How a pure `(attack level, defense)` action pair is scored.
//!
//! Full-information no-regret play needs the payoff of every action
//! pair, so play always runs on a materialized matrix:
//!
//! * [`MatrixPayoff`] — a precomputed [`MatrixGame`] (the paper's
//!   discretized game, or anything else): every round is pure
//!   matrix-vector work, so horizons of `T ≥ 10k` rounds run at solver
//!   speed.
//! * The empirical grid — entry `(i, j)` **actually runs** the
//!   configured attack × defense × learner cell: poison the training
//!   batch at placement `placements[i]`, sanitize at strength
//!   `strengths[j]`, train, evaluate ([`empirical_entry`] against
//!   [`empirical_baseline`]). [`crate::pipeline::materialize_grid`]
//!   fills the whole grid on the worker pool.
//!
//! The attacker's payoff for a cell is the **accuracy drop** against
//! the clean unfiltered baseline — exactly the paper's
//! `U = damage + Γ`: poison that survives the filter keeps the drop
//! large, and an aggressive filter pays its own genuine-removal cost
//! even when the poison dies.
//!
//! Determinism: entry `(i, j)` derives its RNG from the experiment's
//! master seed and the cell index alone (the same SplitMix64 scheme as
//! the scenario matrix), so entries are identical at any worker count,
//! or recomputed one at a time on another machine.

use crate::error::OnlineError;
use poisongame_linalg::rng::SplitMix64;
use poisongame_linalg::Xoshiro256StarStar;
use poisongame_sim::pipeline::{filter_train_eval, run_cell, ExperimentConfig, Prepared};
use poisongame_sim::SimError;
use poisongame_theory::MatrixGame;
use rand::SeedableRng;

use poisongame_defense::FilterStrength;

/// A precomputed payoff matrix — what [`crate::play::play`] runs on:
/// the paper's discretized game
/// ([`poisongame_core::bridge::discretized_game`]), an empirical grid
/// ([`crate::pipeline::materialize_grid`]), or any other game.
#[derive(Debug, Clone)]
pub struct MatrixPayoff {
    game: MatrixGame,
}

impl MatrixPayoff {
    /// Wrap a precomputed game.
    pub fn new(game: MatrixGame) -> Self {
        Self { game }
    }

    /// Borrow the wrapped game.
    pub fn game(&self) -> &MatrixGame {
        &self.game
    }
}

/// The per-cell seeds of an empirical payoff grid, derived from the
/// experiment's master seed in row-major cell order — the same
/// index-only scheme the scenario matrix uses, so any single cell can
/// be reproduced in isolation.
pub fn cell_seeds(config: &ExperimentConfig, n_cells: usize) -> Vec<u64> {
    let mut mix = SplitMix64::new(config.seed ^ 0x6f6e_6c69); // "onli"
    (0..n_cells).map(|_| mix.next()).collect()
}

/// The clean, unfiltered baseline accuracy an empirical grid scores
/// against.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn empirical_baseline(prepared: &Prepared, config: &ExperimentConfig) -> Result<f64, SimError> {
    Ok(filter_train_eval(
        prepared.train(),
        &[],
        prepared.test(),
        FilterStrength::RemoveFraction(0.0),
        config,
    )?
    .accuracy)
}

/// Score one empirical cell: poison at `placement`, filter at
/// `strength`, train, evaluate — through the scenario configured on
/// `config` — and return the attacker payoff
/// `baseline − accuracy`.
///
/// # Errors
///
/// Propagates attack/filter/training failures.
pub fn empirical_entry(
    prepared: &Prepared,
    config: &ExperimentConfig,
    baseline: f64,
    placement: f64,
    strength: f64,
    cell_seed: u64,
) -> Result<f64, SimError> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(cell_seed);
    let outcome = run_cell(
        prepared,
        &config.scenario,
        placement,
        FilterStrength::RemoveFraction(strength),
        config,
        &mut rng,
    )?;
    Ok(baseline - outcome.accuracy)
}

/// Validate an empirical action grid: non-empty, every value finite
/// and in `[0, 1)`.
pub(crate) fn validate_grid(what: &'static str, grid: &[f64]) -> Result<(), OnlineError> {
    if grid.is_empty() {
        return Err(OnlineError::BadParameter { what, value: 0.0 });
    }
    for &v in grid {
        if !(0.0..1.0).contains(&v) || v.is_nan() {
            return Err(OnlineError::BadParameter { what, value: v });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use poisongame_sim::pipeline::DataSource;

    fn quick_config() -> ExperimentConfig {
        ExperimentConfig {
            seed: 9,
            source: DataSource::SyntheticSpambase { rows: 300 },
            epochs: 15,
            ..ExperimentConfig::paper()
        }
    }

    #[test]
    fn matrix_payoff_round_trips_the_game() {
        let game = MatrixGame::from_rows(&[vec![1.0, -1.0], vec![-1.0, 1.0]]).unwrap();
        let payoff = MatrixPayoff::new(game.clone());
        assert_eq!(payoff.game(), &game);
        assert_eq!(payoff.game().shape(), (2, 2));
        assert_eq!(payoff.game().payoff(0, 1), -1.0);
    }

    #[test]
    fn cell_seeds_depend_only_on_master_seed_and_index() {
        let a = cell_seeds(&quick_config(), 6);
        let b = cell_seeds(&quick_config(), 4);
        assert_eq!(&a[..4], &b[..]);
        let other = cell_seeds(
            &ExperimentConfig {
                seed: 10,
                ..quick_config()
            },
            4,
        );
        assert_ne!(&a[..4], &other[..]);
    }

    #[test]
    fn grid_validation_rejects_bad_axes() {
        assert!(validate_grid("placements", &[]).is_err());
        assert!(validate_grid("placements", &[0.5, 1.0]).is_err());
        assert!(validate_grid("placements", &[-0.1]).is_err());
        assert!(validate_grid("placements", &[f64::NAN]).is_err());
        assert!(validate_grid("placements", &[0.0, 0.3]).is_ok());
    }
}
