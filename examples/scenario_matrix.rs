//! Scenario matrix: every attack × defense × learner the workspace
//! ships, crossed in one run from a JSON spec string.
//!
//! This is the front door for multi-scenario workloads: the 4×3×2 grid
//! below (24 cells) fans out through the parallel experiment engine
//! with per-cell derived seeds — bit-identical at any thread count —
//! and prints the ranked long-format table plus the CSV in grid order.
//!
//! ```sh
//! cargo run --release --example scenario_matrix               # quick grid
//! cargo run --release --example scenario_matrix -- full       # paper scale
//! cargo run --release --example scenario_matrix -- minibatch  # batched kernels
//! ```
//!
//! `minibatch` switches every fit to the blocked minibatch kernel.
//! Accuracies differ in low-order bits from the row-SGD grid (the fit
//! path is different math). Either way every cell's model is evaluated
//! in one batched pass, bit-identical to evaluating each on its own.

use poisongame::sim::engine::EvalEngine;
use poisongame::sim::pipeline::{DataSource, ExperimentConfig};
use poisongame::sim::report::{matrix_csv, matrix_table};
use poisongame::sim::scenario::ScenarioMatrix;
use poisongame::sim::FitKernel;

/// The grid as it would live in a config file: all four attacks, all
/// three defenses, two learners, one shared filter strength.
const SPEC: &str = r#"{
    "attacks": [
        {"type": "boundary"},
        {"type": "mixed_radius", "offsets": [0.0, 0.1], "weights": [0.6, 0.4]},
        {"type": "label_flip"},
        {"type": "random_noise"}
    ],
    "defenses": [
        {"type": "radius"},
        {"type": "knn", "k": 5},
        {"type": "slab"}
    ],
    "learners": [
        {"type": "svm"},
        {"type": "logreg"}
    ],
    "strength": 0.15,
    "placement_slack": 0.01
}"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let full = std::env::args().any(|a| a == "full");
    let minibatch = std::env::args().any(|a| a == "minibatch");
    let mut config = if full {
        ExperimentConfig::paper()
    } else {
        ExperimentConfig {
            source: DataSource::SyntheticSpambase { rows: 500 },
            epochs: 40,
            ..ExperimentConfig::paper()
        }
    };
    if minibatch {
        config.fit_kernel = FitKernel::Minibatch { batch: 64 };
    }

    let matrix = ScenarioMatrix::from_json_str(SPEC)?;
    println!("== scenario matrix ==");
    println!(
        "{} attacks × {} defenses × {} learners = {} cells, master seed {}\n",
        matrix.attacks.len(),
        matrix.defenses.len(),
        matrix.learners.len(),
        matrix.len(),
        config.seed
    );

    // One engine drives every run: the dataset is prepared once per
    // distinct (source, seed, test_fraction) key — not once per run,
    // let alone once per cell — and later runs share the cached Arc.
    let engine = EvalEngine::new();
    let results = engine.run_matrix(&config, &matrix)?;
    println!("{}", matrix_table(&results));

    let best = results.ranked()[0];
    let worst = results.ranked()[results.cells.len() - 1];
    println!(
        "most robust cell:  {} ({:.4})",
        best.scenario.label(),
        best.outcome.accuracy
    );
    println!(
        "most damaged cell: {} ({:.4})",
        worst.scenario.label(),
        worst.outcome.accuracy
    );

    println!("\n-- long-format CSV (grid order) --");
    print!("{}", matrix_csv(&results));

    // The same grid at a weaker filter: a pure cache hit — zero
    // re-preparation, visible in the engine line of the table header.
    let weaker = ScenarioMatrix {
        strength: 0.05,
        ..matrix
    };
    let again = engine.run_matrix(&config, &weaker)?;
    let stats = engine.cache_stats();
    println!(
        "\n-- re-run at 5% filter strength (prep store: {} miss, {} hit) --",
        stats.misses, stats.hits
    );
    println!("{}", matrix_table(&again));
    assert_eq!(stats.misses, 1, "one preparation served both runs");
    Ok(())
}
