//! Shared fixtures for the Criterion benches.
//!
//! Each bench target regenerates one table/figure of the paper or one
//! ablation called out in `DESIGN.md`. The fixtures here keep the
//! bench bodies small and make sure every bench measures the same
//! calibrated workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use poisongame_core::SolverKind;
use poisongame_core::{CostCurve, EffectCurve, PoisonGame};
use poisongame_data::synth::{spambase_like, SpambaseConfig};
use poisongame_data::Dataset;
use poisongame_defense::CentroidEstimator;
use poisongame_linalg::Xoshiro256StarStar;
use poisongame_ml::FitKernel;
use poisongame_sim::pipeline::{DataSource, ExperimentConfig};
use poisongame_sim::scenario::Scenario;
use rand::SeedableRng;

/// Bench-scale experiment configuration: real schema, reduced rows and
/// epochs so a Criterion run finishes in minutes.
pub fn bench_experiment_config() -> ExperimentConfig {
    ExperimentConfig {
        seed: 0xBE7C,
        source: DataSource::SyntheticSpambase { rows: 1200 },
        test_fraction: 0.3,
        budget_fraction: 0.2,
        epochs: 100,
        centroid: CentroidEstimator::CoordinateMedian,
        solver: SolverKind::Auto,
        warm_start: false,
        fit_kernel: FitKernel::RowSgd,
        scenario: Scenario::default(),
    }
}

/// A bench-scale synthetic Spambase dataset.
pub fn bench_dataset(rows: usize) -> Dataset {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xDA7A);
    spambase_like(&SpambaseConfig::small(rows), &mut rng)
}

/// Game curves with the shape the full-scale synthetic pipeline
/// estimates — lets solver benches run without re-estimating.
pub fn calibrated_game() -> PoisonGame {
    let effect = EffectCurve::from_samples(&[
        (0.0, 4.5e-4),
        (0.05, 3.5e-4),
        (0.10, 3.3e-4),
        (0.20, 3.1e-4),
        (0.30, 2.9e-4),
        (0.40, 2.6e-4),
        (0.48, 5.0e-5),
        (0.50, -1.0e-5),
    ])
    .expect("static samples are valid");
    let cost = CostCurve::from_samples(&[
        (0.0, 0.0),
        (0.05, 0.001),
        (0.10, 0.002),
        (0.20, 0.004),
        (0.30, 0.008),
        (0.40, 0.013),
    ])
    .expect("static samples are valid");
    PoisonGame::new(effect, cost, 644).expect("non-zero budget")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_construct() {
        assert_eq!(bench_dataset(100).len(), 100);
        assert_eq!(calibrated_game().n_points(), 644);
        bench_experiment_config();
    }
}
