//! Bench: the PR-6 batched training kernel. Two comparisons:
//!
//! * **fit** — one `LinearSvm::fit` on synthetic Spambase at several
//!   dataset sizes, row-at-a-time SGD (`FitKernel::RowSgd`, the
//!   bit-exact golden reference) vs the blocked minibatch path
//!   (`FitKernel::Minibatch`), which gathers each batch into a packed
//!   panel and computes its margins with one `gemv` per row block.
//! * **matrix24** — the 24-cell scenario grid end to end through
//!   [`EvalEngine`], row SGD vs minibatch fit (both evaluate every
//!   cell in one batched pass).
//!
//! The minibatch path is *not* bit-identical to row SGD (margins are
//! computed against a per-batch snapshot of the weights), so there is
//! no cross-arm total assertion here — accuracy equivalence is pinned
//! by the property tests in `poisongame-ml` instead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use poisongame_bench::{bench_dataset, bench_experiment_config};
use poisongame_ml::svm::LinearSvm;
use poisongame_ml::{Classifier, FitKernel, TrainConfig};
use poisongame_sim::engine::EvalEngine;
use poisongame_sim::pipeline::ExperimentConfig;
use poisongame_sim::scenario::ScenarioMatrix;
use std::hint::black_box;

/// 4 attacks × 2 defenses × 3 learners = 24 cells — the same grid the
/// `prep_cache` bench uses, so engine-level numbers are comparable.
const SPEC: &str = r#"{
    "attacks": [
        {"type": "boundary"},
        {"type": "mixed_radius", "offsets": [0.0, 0.1], "weights": [0.6, 0.4]},
        {"type": "label_flip"},
        {"type": "random_noise"}
    ],
    "defenses": [
        {"type": "radius"},
        {"type": "slab"}
    ],
    "learners": [
        {"type": "svm"},
        {"type": "logreg"},
        {"type": "perceptron"}
    ],
    "strength": 0.15,
    "placement_slack": 0.01
}"#;

fn fit_config(kernel: FitKernel) -> TrainConfig {
    TrainConfig {
        epochs: 100,
        kernel,
        ..TrainConfig::default()
    }
}

fn bench_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("train_kernel/fit");
    group.sample_size(10);

    for rows in [300usize, 1200, 4800] {
        let data = bench_dataset(rows);
        group.bench_with_input(BenchmarkId::new("row_sgd", rows), &data, |b, data| {
            b.iter(|| {
                let mut svm = LinearSvm::new(fit_config(FitKernel::RowSgd));
                svm.fit(black_box(data)).expect("training succeeds");
                black_box(svm.bias())
            })
        });
        group.bench_with_input(BenchmarkId::new("minibatch64", rows), &data, |b, data| {
            b.iter(|| {
                let mut svm = LinearSvm::new(fit_config(FitKernel::Minibatch { batch: 64 }));
                svm.fit(black_box(data)).expect("training succeeds");
                black_box(svm.bias())
            })
        });
    }
    group.finish();
}

fn grid_total(config: &ExperimentConfig, matrix: &ScenarioMatrix) -> f64 {
    let results = EvalEngine::new()
        .run_matrix(config, matrix)
        .expect("grid runs");
    results.cells.iter().map(|c| c.outcome.accuracy).sum()
}

fn bench_matrix24(c: &mut Criterion) {
    let row_config = bench_experiment_config();
    let batched_config = ExperimentConfig {
        fit_kernel: FitKernel::Minibatch { batch: 64 },
        ..row_config.clone()
    };
    let matrix = ScenarioMatrix::from_json_str(SPEC).expect("spec parses");
    assert_eq!(matrix.len(), 24);

    let mut group = c.benchmark_group("train_kernel/matrix24");
    group.sample_size(10);
    group.bench_function("row_sgd", |b| {
        b.iter(|| black_box(grid_total(&row_config, &matrix)))
    });
    group.bench_function("minibatch64", |b| {
        b.iter(|| black_box(grid_total(&batched_config, &matrix)))
    });
    group.finish();
}

criterion_group!(benches, bench_fit, bench_matrix24);
criterion_main!(benches);
