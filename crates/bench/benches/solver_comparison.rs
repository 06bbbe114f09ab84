//! Ablation bench: the three zero-sum solvers on the discretized
//! poisoning game — exact simplex LP vs fictitious play vs
//! multiplicative weights — all driven through the unified
//! `ZeroSumSolver` trait so the bench measures exactly the code path
//! experiments use — plus the default 20,000-round multiplicative
//! weights at resolution 150, the solve the paper sweep runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use poisongame_bench::calibrated_game;
use poisongame_core::bridge::to_matrix_game;
use poisongame_core::game_model::percentile_grid;
use poisongame_theory::{
    FictitiousPlay, FictitiousPlayConfig, MultiplicativeWeights, MultiplicativeWeightsConfig,
    SimplexLp, ZeroSumSolver,
};
use std::hint::black_box;

/// Solver roster with bench-scale iteration budgets.
fn roster() -> Vec<Box<dyn ZeroSumSolver>> {
    vec![
        Box::new(SimplexLp),
        Box::new(FictitiousPlay(FictitiousPlayConfig {
            max_iterations: 30_000,
            tolerance: 1e-4,
            check_every: 1000,
        })),
        Box::new(MultiplicativeWeights(MultiplicativeWeightsConfig {
            iterations: 5_000,
            eta: None,
        })),
    ]
}

fn bench_solvers(c: &mut Criterion) {
    let game = calibrated_game();
    let mut group = c.benchmark_group("solver_comparison");
    group.sample_size(10);

    for resolution in [20usize, 60] {
        let grid = percentile_grid(resolution);
        let matrix = to_matrix_game(&game, &grid);

        for solver in roster() {
            group.bench_with_input(
                BenchmarkId::new(solver.name(), resolution),
                &matrix,
                |b, m| {
                    b.iter(|| {
                        let out = solver.solve(black_box(m));
                        if solver.is_exact() {
                            // The LP must solve; a failure here is a bug,
                            // not a measurement.
                            black_box(out.expect("exact solver solves").value)
                        } else {
                            // Iterative solvers may hit their caps at this
                            // tolerance; both outcomes measure the same work.
                            black_box(out.map(|sol| sol.value).unwrap_or(f64::NAN))
                        }
                    })
                },
            );
        }
    }

    // The size `SolverKind::Auto` hands to multiplicative weights in
    // the paper sweep: 151 × 150 is past 128² payoffs, so the default
    // 20,000-round solve plays its two players on two threads.
    let matrix = to_matrix_game(&game, &percentile_grid(150));
    let hedge = MultiplicativeWeights::default();
    group.bench_with_input(BenchmarkId::new(hedge.name(), 150), &matrix, |b, m| {
        b.iter(|| black_box(hedge.solve(black_box(m)).expect("hedge solves").value))
    });
    group.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
