//! Table 1: the mixed-strategy defense under the optimal attack.
//!
//! For each support size `n` the experiment (1) runs Algorithm 1 on
//! the estimated curves, (2) evaluates the resulting mixed defense
//! *empirically*: the attacker best-responds by testing every support
//! position (§4.2 shows the best response lies on the support) and the
//! defense's accuracy is the probability-weighted accuracy over its
//! filter strengths at the attacker's chosen placement.

use crate::error::SimError;
use crate::estimate::CurveEstimate;
use crate::exec::{try_parallel_map, ExecPolicy};
use crate::pipeline::{run_cell, ExperimentConfig, Prepared};
use poisongame_core::{Algorithm1, DefenderMixedStrategy};
use poisongame_defense::FilterStrength;
use poisongame_linalg::Xoshiro256StarStar;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// One Table 1 row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// Support size `n` (the algorithm input).
    pub n_radii: usize,
    /// Support percentiles (the paper's "Radius" row).
    pub support: Vec<f64>,
    /// Mixing probabilities (the paper's "Probability" row).
    pub probabilities: Vec<f64>,
    /// Accuracy predicted by the game model
    /// (`baseline − defender loss`).
    pub predicted_accuracy: f64,
    /// Accuracy measured by running the actual attack/filter/train
    /// pipeline against the best-responding attacker.
    pub empirical_accuracy: f64,
    /// The attacker's chosen placement in the empirical evaluation.
    pub attacker_placement: f64,
}

/// The full Table 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Results {
    /// One row per requested support size.
    pub rows: Vec<Table1Row>,
    /// The best pure-strategy accuracy under attack (from the Figure 1
    /// sweep) — the bar the mixed defense must clear.
    pub best_pure_accuracy: f64,
    /// Clean unfiltered baseline.
    pub baseline_accuracy: f64,
}

/// Empirically evaluate a mixed defense against its best-responding
/// attacker on an already-prepared dataset: the attacker tries every
/// support position (plus slack) and keeps the one minimizing the
/// defender's expected accuracy.
///
/// The (candidate placement, filter strength) cells fan out across
/// the worker pool. Per-cell RNGs derive from the master seed alone,
/// each candidate sums its cells in strength order, and the worst
/// candidate is chosen by an ordered scan, so the result is
/// bit-identical at any thread count.
///
/// Returns `(expected accuracy, attacker placement)`.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn evaluate_mixed_defense_prepared(
    prepared: &Prepared,
    config: &ExperimentConfig,
    strategy: &DefenderMixedStrategy,
    placement_slack: f64,
    policy: &ExecPolicy,
) -> Result<(f64, f64), SimError> {
    let accuracies = cell_accuracies(
        prepared,
        config,
        &strategy_cells(strategy),
        placement_slack,
        policy,
    )?;
    Ok(fold_expected(strategy, &accuracies))
}

/// The (candidate placement, filter strength) cells of one strategy's
/// empirical evaluation: candidate-major, strengths in support
/// order, zero-probability strengths skipped (they contribute
/// nothing). [`fold_expected`] reads accuracies back in this order.
fn strategy_cells(strategy: &DefenderMixedStrategy) -> Vec<(f64, f64)> {
    let mut cells = Vec::new();
    for &candidate in strategy.support() {
        cells.extend(
            strategy
                .support()
                .iter()
                .zip(strategy.probabilities())
                .filter(|(_, &q)| q != 0.0)
                .map(|(&theta, _)| (candidate, theta)),
        );
    }
    cells
}

/// The accuracy of every (candidate placement, filter strength) cell,
/// fanned out across the worker pool. Each cell's attack RNG derives
/// from the master seed alone, so the results do not depend on the
/// pool.
///
/// # Errors
///
/// The first (by cell index) pipeline failure.
fn cell_accuracies(
    prepared: &Prepared,
    config: &ExperimentConfig,
    cells: &[(f64, f64)],
    placement_slack: f64,
    policy: &ExecPolicy,
) -> Result<Vec<f64>, SimError> {
    try_parallel_map(policy, cells, |_, &(candidate, theta)| {
        let placement = crate::pipeline::hugging_placement(prepared, candidate, placement_slack);
        let mut rng = cell_rng(config, candidate, theta);
        run_cell(
            prepared,
            &config.scenario,
            placement,
            FilterStrength::RemoveFraction(theta),
            config,
            &mut rng,
        )
        .map(|out| out.accuracy)
    })
}

/// Fold one strategy's cell accuracies (in [`strategy_cells`] order)
/// into each candidate's expected accuracy, summed in strength order,
/// and return the attacker's best response among the candidates.
fn fold_expected(strategy: &DefenderMixedStrategy, accuracies: &[f64]) -> (f64, f64) {
    let weights: Vec<f64> = strategy
        .probabilities()
        .iter()
        .copied()
        .filter(|&q| q != 0.0)
        .collect();
    let expected: Vec<f64> = (0..strategy.support().len())
        .map(|c| {
            let mut expected = 0.0;
            for (k, &q) in weights.iter().enumerate() {
                expected += q * accuracies[c * weights.len() + k];
            }
            expected
        })
        .collect();
    worst_candidate(strategy, &expected)
}

/// The attacker's best response: the support position with the lowest
/// expected defender accuracy (first one on ties), as
/// `(expected accuracy, placement)`.
fn worst_candidate(strategy: &DefenderMixedStrategy, expected_per_candidate: &[f64]) -> (f64, f64) {
    let mut worst = (f64::INFINITY, 0.0);
    for (&candidate, &expected) in strategy.support().iter().zip(expected_per_candidate) {
        if expected < worst.0 {
            worst = (expected, candidate);
        }
    }
    worst
}

/// The attack RNG of one (candidate placement, filter strength) cell
/// of the empirical evaluation.
fn cell_rng(config: &ExperimentConfig, candidate: f64, theta: f64) -> Xoshiro256StarStar {
    Xoshiro256StarStar::seed_from_u64(
        config.seed ^ candidate.to_bits() ^ theta.to_bits().rotate_left(13),
    )
}

/// Reject an empty support-size list.
pub(crate) fn validate_support_sizes(support_sizes: &[usize]) -> Result<(), SimError> {
    if support_sizes.is_empty() {
        return Err(SimError::BadParameter {
            what: "support_sizes",
            value: 0.0,
        });
    }
    Ok(())
}

/// Run the full Table 1 experiment against an already-prepared
/// dataset — the evaluate phase of
/// [`crate::engine::EvalEngine::run_table1`].
///
/// The support sizes' Algorithm 1 solves fan out across the worker
/// pool, then every row's (candidate placement, filter strength) cell
/// runs in one flat batch, so the pool stays busy across rows. Each
/// candidate's expected accuracy is summed in strength order
/// afterwards, so the results are bit-identical at any thread count.
/// Errors surface in the order a sequential run meets them: row by
/// row, its solve before its cells.
///
/// `best_pure_accuracy` comes from the Figure 1 sweep (pass
/// `Fig1Results::best_pure().accuracy_under_attack`).
///
/// # Errors
///
/// Returns [`SimError::BadParameter`] for an empty size list and
/// propagates solver/pipeline failures.
pub fn run_table1_prepared(
    prepared: &Prepared,
    config: &ExperimentConfig,
    curves: &CurveEstimate,
    support_sizes: &[usize],
    best_pure_accuracy: f64,
    policy: &ExecPolicy,
) -> Result<Table1Results, SimError> {
    validate_support_sizes(support_sizes)?;
    let game = curves.game()?;
    // The experiment's solver / warm-start knobs take effect here (see
    // `ExperimentConfig::algorithm1_config`).
    let mut solved = try_parallel_map(policy, support_sizes, |_, &n| {
        Ok::<_, SimError>(Algorithm1::new(config.algorithm1_config(n)).solve(&game))
    })?;
    // Rows after the first failed solve never reach their cells.
    let live = solved.iter().take_while(|s| s.is_ok()).count();
    // Row-major (row, candidate, strength) order; `ends[r]` closes row
    // r's slice of the batch.
    let mut cells = Vec::new();
    let mut ends = Vec::with_capacity(live);
    for solved in &solved[..live] {
        cells.extend(strategy_cells(
            &solved.as_ref().expect("live rows solved").strategy,
        ));
        ends.push(cells.len());
    }
    let accuracies = cell_accuracies(prepared, config, &cells, 0.01, policy)?;
    if live < solved.len() {
        return Err(solved
            .swap_remove(live)
            .expect_err("first failed solve")
            .into());
    }
    let mut start = 0;
    let rows = support_sizes
        .iter()
        .zip(solved)
        .zip(ends)
        .map(|((&n, solved), end)| {
            let result = solved.expect("every row solved");
            let (empirical_accuracy, attacker_placement) =
                fold_expected(&result.strategy, &accuracies[start..end]);
            start = end;
            Table1Row {
                n_radii: n,
                support: result.strategy.support().to_vec(),
                probabilities: result.strategy.probabilities().to_vec(),
                predicted_accuracy: (curves.baseline_accuracy - result.defender_loss)
                    .clamp(0.0, 1.0),
                empirical_accuracy,
                attacker_placement,
            }
        })
        .collect();
    Ok(Table1Results {
        rows,
        best_pure_accuracy,
        baseline_accuracy: curves.baseline_accuracy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EvalEngine;
    use crate::pipeline::DataSource;
    use crate::scenario::Scenario;
    use poisongame_core::SolverKind;
    use poisongame_defense::CentroidEstimator;
    use poisongame_ml::FitKernel;

    fn quick_config() -> ExperimentConfig {
        ExperimentConfig {
            seed: 4242,
            source: DataSource::SyntheticSpambase { rows: 600 },
            test_fraction: 0.3,
            budget_fraction: 0.2,
            epochs: 40,
            centroid: CentroidEstimator::CoordinateMedian,
            solver: SolverKind::Auto,
            warm_start: false,
            fit_kernel: FitKernel::RowSgd,
            scenario: Scenario::default(),
        }
    }

    #[test]
    fn table1_rows_have_valid_strategies() {
        let config = quick_config();
        let engine = EvalEngine::new();
        let curves = engine
            .estimate_curves(&config, &[0.02, 0.1, 0.25, 0.4], &[0.0, 0.05, 0.15, 0.3])
            .unwrap();
        let t = engine.run_table1(&config, &curves, &[2], 0.8).unwrap();
        assert_eq!(t.rows.len(), 1);
        let row = &t.rows[0];
        assert_eq!(row.support.len(), 2);
        assert!((row.probabilities.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(row.support.windows(2).all(|w| w[0] < w[1]));
        assert!((0.0..=1.0).contains(&row.empirical_accuracy));
        assert!((0.0..=1.0).contains(&row.predicted_accuracy));
    }

    #[test]
    fn empty_sizes_rejected() {
        let config = quick_config();
        let engine = EvalEngine::new();
        let curves = engine
            .estimate_curves(&config, &[0.05, 0.2], &[0.0, 0.2])
            .unwrap();
        assert!(engine.run_table1(&config, &curves, &[], 0.8).is_err());
    }
}
