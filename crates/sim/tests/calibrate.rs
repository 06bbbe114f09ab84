//! Scratch calibration probe (ignored by default).
use poisongame_core::SolverKind;
use poisongame_defense::{CentroidEstimator, FilterStrength};
use poisongame_linalg::Xoshiro256StarStar;
use poisongame_sim::pipeline::*;
use rand::SeedableRng;

#[test]
#[ignore]
fn probe() {
    let config = ExperimentConfig {
        seed: 7,
        source: DataSource::SyntheticSpambase { rows: 4601 },
        test_fraction: 0.3,
        budget_fraction: 0.2,
        epochs: 400,
        centroid: CentroidEstimator::CoordinateMedian,
        solver: SolverKind::Auto,
        warm_start: false,
        fit_kernel: Default::default(),
        scenario: Default::default(),
    };
    let p = prepare(&config).unwrap();
    let clean = filter_train_eval(
        p.train(),
        &[],
        p.test(),
        FilterStrength::RemoveFraction(0.0),
        &config,
    )
    .unwrap();
    println!("clean acc = {:.4}", clean.accuracy);
    for theta in [0.05, 0.10, 0.20, 0.30, 0.40] {
        let g = filter_train_eval(
            p.train(),
            &[],
            p.test(),
            FilterStrength::RemoveFraction(theta),
            &config,
        )
        .unwrap();
        print!("G({theta})={:.4} ", clean.accuracy - g.accuracy);
    }
    println!();
    for placement in [0.01, 0.03, 0.06, 0.10, 0.20, 0.30, 0.40, 0.48] {
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        let a = run_cell(
            &p,
            &config.scenario,
            placement,
            FilterStrength::RemoveFraction(0.0),
            &config,
            &mut rng,
        )
        .unwrap();
        print!("E({placement})={:.4} ", clean.accuracy - a.accuracy);
    }
    println!();
    // Fig1-style: hugging attack vs active filter (interaction check).
    for theta in [0.02, 0.05, 0.10, 0.20, 0.30, 0.40] {
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        let hug = hugging_placement(&p, theta, 0.01);
        let a = run_cell(
            &p,
            &config.scenario,
            hug,
            FilterStrength::RemoveFraction(theta),
            &config,
            &mut rng,
        )
        .unwrap();
        print!("Fig1({theta})={:.4} ", a.accuracy);
    }
    println!();
}
