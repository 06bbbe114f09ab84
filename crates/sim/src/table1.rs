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
use crate::pipeline::{prepare, run_cell, run_cell_warm, ExperimentConfig, Prepared};
use poisongame_core::{Algorithm1, DefenderMixedStrategy};
use poisongame_defense::FilterStrength;
use poisongame_linalg::Xoshiro256StarStar;
use poisongame_ml::LinearState;
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
/// attacker: the attacker tries every support position (plus slack)
/// and keeps the one minimizing the defender's expected accuracy.
///
/// Returns `(expected accuracy, attacker placement)`.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn evaluate_mixed_defense(
    config: &ExperimentConfig,
    strategy: &DefenderMixedStrategy,
    placement_slack: f64,
) -> Result<(f64, f64), SimError> {
    evaluate_mixed_defense_with(config, strategy, placement_slack, &ExecPolicy::default())
}

/// [`evaluate_mixed_defense`] with an explicit execution policy: the
/// (candidate placement, filter strength) cells fan out across the
/// worker pool. Per-cell RNGs derive from the master seed alone, each
/// candidate sums its cells in strength order, and the worst candidate
/// is chosen by an ordered scan, so the result is bit-identical to the
/// sequential path.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn evaluate_mixed_defense_with(
    config: &ExperimentConfig,
    strategy: &DefenderMixedStrategy,
    placement_slack: f64,
    policy: &ExecPolicy,
) -> Result<(f64, f64), SimError> {
    let prepared = prepare(config)?;
    evaluate_mixed_defense_prepared(&prepared, config, strategy, placement_slack, policy)
}

/// [`evaluate_mixed_defense_with`] against an already-prepared
/// dataset — lets callers evaluating many strategies under one config
/// (Table 1) pay for [`prepare`] once.
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
    evaluate_mixed_defense_opts(prepared, config, strategy, placement_slack, policy, false)
}

/// [`evaluate_mixed_defense_prepared`] with the engine's warm-start
/// knob: when `warm_sweep` is true, the candidates fan out instead of
/// the cells, and the filter-strength axis inside each candidate runs
/// in order, chaining training from the neighbouring strength's fitted
/// weights via
/// [`poisongame_ml::Classifier::fit_from`]. Opt-in only — it changes
/// results slightly, so golden paths pass `false`.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn evaluate_mixed_defense_opts(
    prepared: &Prepared,
    config: &ExperimentConfig,
    strategy: &DefenderMixedStrategy,
    placement_slack: f64,
    policy: &ExecPolicy,
    warm_sweep: bool,
) -> Result<(f64, f64), SimError> {
    if !warm_sweep {
        let accuracies = cold_cell_accuracies(
            prepared,
            config,
            &strategy_cells(strategy),
            placement_slack,
            policy,
        )?;
        return Ok(fold_expected(strategy, &accuracies));
    }
    let expected_per_candidate = try_parallel_map(
        policy,
        strategy.support(),
        |_, &candidate| -> Result<f64, SimError> {
            let placement =
                crate::pipeline::hugging_placement(prepared, candidate, placement_slack);
            let mut expected = 0.0;
            // The warm chain runs along the (ascending) strength axis
            // of this candidate only; candidates stay independent.
            let mut warm: Option<LinearState> = None;
            for (&theta, &q) in strategy.support().iter().zip(strategy.probabilities()) {
                if q == 0.0 {
                    continue;
                }
                let mut rng = cell_rng(config, candidate, theta);
                let (out, state) = run_cell_warm(
                    prepared,
                    &config.scenario,
                    placement,
                    FilterStrength::RemoveFraction(theta),
                    config,
                    &mut rng,
                    warm.as_ref(),
                )?;
                warm = state;
                expected += q * out.accuracy;
            }
            Ok(expected)
        },
    )?;

    Ok(worst_candidate(strategy, &expected_per_candidate))
}

/// The (candidate placement, filter strength) cells of one strategy's
/// cold empirical evaluation: candidate-major, strengths in support
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

/// The accuracy of every cold (candidate placement, filter strength)
/// cell, fanned out across the worker pool. Each cell's attack RNG
/// derives from the master seed alone, so the results do not depend
/// on the pool.
///
/// # Errors
///
/// The first (by cell index) pipeline failure.
fn cold_cell_accuracies(
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

/// Run the full Table 1 experiment.
///
/// `best_pure_accuracy` comes from the Figure 1 sweep (pass
/// `Fig1Results::best_pure().accuracy_under_attack`).
///
/// # Errors
///
/// Returns [`SimError::BadParameter`] for an empty size list and
/// propagates solver/pipeline failures.
pub fn run_table1(
    config: &ExperimentConfig,
    curves: &CurveEstimate,
    support_sizes: &[usize],
    best_pure_accuracy: f64,
) -> Result<Table1Results, SimError> {
    run_table1_with(
        config,
        curves,
        support_sizes,
        best_pure_accuracy,
        &ExecPolicy::default(),
    )
}

/// [`run_table1`] with an explicit execution policy. The support sizes'
/// Algorithm 1 solves fan out across the worker pool, then every row's
/// empirical best-response cells run as one batch. Results are
/// bit-identical at any thread count.
///
/// # Errors
///
/// Returns [`SimError::BadParameter`] for an empty size list and
/// propagates solver/pipeline failures.
pub fn run_table1_with(
    config: &ExperimentConfig,
    curves: &CurveEstimate,
    support_sizes: &[usize],
    best_pure_accuracy: f64,
    policy: &ExecPolicy,
) -> Result<Table1Results, SimError> {
    // Reject an empty size list before paying for dataset preparation.
    if support_sizes.is_empty() {
        return Err(SimError::BadParameter {
            what: "support_sizes",
            value: 0.0,
        });
    }
    // One dataset preparation shared by every cell: `prepare` is a pure
    // function of the config, so hoisting it cannot change results.
    let prepared = prepare(config)?;
    run_table1_prepared(
        &prepared,
        config,
        curves,
        support_sizes,
        best_pure_accuracy,
        policy,
        false,
    )
}

/// [`run_table1_with`] against an already-prepared dataset — the
/// evaluate phase of the engine's prepare → evaluate task graph.
/// `warm_sweep` chains each row's empirical evaluation along its
/// filter-strength axis (see [`evaluate_mixed_defense_opts`]); golden
/// paths pass `false`.
///
/// # Errors
///
/// Returns [`SimError::BadParameter`] for an empty size list and
/// propagates solver/pipeline failures.
#[allow(clippy::too_many_arguments)]
pub fn run_table1_prepared(
    prepared: &Prepared,
    config: &ExperimentConfig,
    curves: &CurveEstimate,
    support_sizes: &[usize],
    best_pure_accuracy: f64,
    policy: &ExecPolicy,
    warm_sweep: bool,
) -> Result<Table1Results, SimError> {
    if support_sizes.is_empty() {
        return Err(SimError::BadParameter {
            what: "support_sizes",
            value: 0.0,
        });
    }
    let game = curves.game()?;
    let solve = |n: usize| -> Result<(DefenderMixedStrategy, f64), SimError> {
        // The experiment's solver / warm-start knobs take effect here
        // (see `ExperimentConfig::algorithm1_config`).
        let result = Algorithm1::new(config.algorithm1_config(n)).solve(&game)?;
        let predicted = (curves.baseline_accuracy - result.defender_loss).clamp(0.0, 1.0);
        Ok((result.strategy, predicted))
    };
    let row =
        |n: usize, strategy: DefenderMixedStrategy, predicted: f64, worst: (f64, f64)| Table1Row {
            n_radii: n,
            support: strategy.support().to_vec(),
            probabilities: strategy.probabilities().to_vec(),
            predicted_accuracy: predicted,
            empirical_accuracy: worst.0,
            attacker_placement: worst.1,
        };
    let rows = if warm_sweep {
        // Each row's warm chain runs its strengths in order, so rows
        // are the unit of parallelism.
        try_parallel_map(
            policy,
            support_sizes,
            |_, &n| -> Result<Table1Row, SimError> {
                let (strategy, predicted) = solve(n)?;
                let worst = evaluate_mixed_defense_opts(
                    prepared,
                    config,
                    &strategy,
                    0.01,
                    &ExecPolicy::sequential(),
                    true,
                )?;
                Ok(row(n, strategy, predicted, worst))
            },
        )?
    } else {
        run_table1_cells(prepared, config, support_sizes, policy, solve, row)?
    };
    Ok(Table1Results {
        rows,
        best_pure_accuracy,
        baseline_accuracy: curves.baseline_accuracy,
    })
}

/// The cold Table 1: Algorithm 1 for every row, then every row's
/// (candidate placement, filter strength) cell in one flat batch, so
/// the pool stays busy across rows instead of running each row's
/// cells in sequence. Each candidate's expected accuracy is summed in
/// strength order afterwards, exactly as the sequential evaluation
/// adds it, so the results are bit-identical to it.
///
/// Errors surface in the order a sequential run meets them: row by
/// row, its solve before its cells.
fn run_table1_cells(
    prepared: &Prepared,
    config: &ExperimentConfig,
    support_sizes: &[usize],
    policy: &ExecPolicy,
    solve: impl Fn(usize) -> Result<(DefenderMixedStrategy, f64), SimError> + Sync,
    row: impl Fn(usize, DefenderMixedStrategy, f64, (f64, f64)) -> Table1Row,
) -> Result<Vec<Table1Row>, SimError> {
    let mut solved = try_parallel_map(policy, support_sizes, |_, &n| Ok::<_, SimError>(solve(n)))?;
    // Rows after the first failed solve never reach their cells.
    let live = solved.iter().take_while(|s| s.is_ok()).count();
    // Row-major (row, candidate, strength) order; `ends[r]` closes row
    // r's slice of the batch.
    let mut cells = Vec::new();
    let mut ends = Vec::with_capacity(live);
    for solved in &solved[..live] {
        cells.extend(strategy_cells(
            &solved.as_ref().expect("live rows solved").0,
        ));
        ends.push(cells.len());
    }
    let accuracies = cold_cell_accuracies(prepared, config, &cells, 0.01, policy)?;
    if live < solved.len() {
        return Err(solved.swap_remove(live).expect_err("first failed solve"));
    }
    let mut start = 0;
    Ok(support_sizes
        .iter()
        .zip(solved)
        .zip(ends)
        .map(|((&n, solved), end)| {
            let (strategy, predicted) = solved.expect("every row solved");
            let worst = fold_expected(&strategy, &accuracies[start..end]);
            start = end;
            row(n, strategy, predicted, worst)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::estimate_curves;
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
        let curves =
            estimate_curves(&config, &[0.02, 0.1, 0.25, 0.4], &[0.0, 0.05, 0.15, 0.3]).unwrap();
        let t = run_table1(&config, &curves, &[2], 0.8).unwrap();
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
        let curves = estimate_curves(&config, &[0.05, 0.2], &[0.0, 0.2]).unwrap();
        assert!(run_table1(&config, &curves, &[], 0.8).is_err());
    }
}
