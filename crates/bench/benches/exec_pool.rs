//! Bench: the PR-8 persistent execution runtime. Two comparisons:
//!
//! * **grid** — a `parallel_map`-shaped fan-out (float-heavy cells
//!   with per-cell derived seeds) at 1-, 8- and 64-cell grids, the
//!   per-call `std::thread::scope` backend this repo used through
//!   PR 7 vs the shared [`WorkerPool`]. Small grids are the shape of
//!   a served request's fan-out, where per-call spawn/join dominated.
//! * **gemm** — serial vs pool-parallel [`gemm_nt`] at the paper-scale
//!   shape (Spambase-rows × cells × features) and a wide-feature
//!   shape, both split into `ROW_BLOCK` output bands. Results are
//!   bit-identical by construction; only wall-clock may differ.
//!
//! Both arms of each comparison compute identical bits; each iteration
//! asserts the checksum to keep the comparison honest.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use poisongame_exec::{OnceSlots, WorkerPool};
use poisongame_linalg::gemm::gemm_nt_parallel;
use poisongame_linalg::{Matrix, Xoshiro256StarStar};
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One simulation-cell-sized unit of float work, seeded by index.
fn cell_work(seed: u64) -> f64 {
    let mut acc = 0.0f64;
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    for _ in 0..4_000 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        acc += (state >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    }
    acc
}

/// The pre-PR-8 backend: spawn a scoped pool per call, join it before
/// returning.
fn scoped_map(threads: usize, n: usize) -> Vec<f64> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<f64>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *slots[i].lock().unwrap() = Some(cell_work(i as u64));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("every cell computed"))
        .collect()
}

/// The shared-pool backend: submit tickets, participate, no spawns.
fn pooled_map(participants: usize, n: usize) -> Vec<f64> {
    let slots = OnceSlots::new(n);
    WorkerPool::global().run(n, participants, &|i| slots.set(i, cell_work(i as u64)));
    slots
        .into_options()
        .into_iter()
        .map(|s| s.expect("every cell computed"))
        .collect()
}

fn bench_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("exec_pool/grid");
    group.sample_size(20);

    // The fan-out width both backends get: the interesting regime for
    // the serving tier is small grids, where spawn/join overhead is
    // the same order as the work itself.
    const THREADS: usize = 4;
    for cells in [1usize, 8, 64] {
        let expected: f64 = (0..cells).map(|i| cell_work(i as u64)).sum();
        group.bench_with_input(BenchmarkId::new("scoped", cells), &cells, |b, &cells| {
            b.iter(|| {
                let out = scoped_map(THREADS, black_box(cells));
                assert_eq!(out.iter().sum::<f64>().to_bits(), expected.to_bits());
                black_box(out)
            })
        });
        group.bench_with_input(BenchmarkId::new("pool", cells), &cells, |b, &cells| {
            b.iter(|| {
                let out = pooled_map(THREADS, black_box(cells));
                assert_eq!(out.iter().sum::<f64>().to_bits(), expected.to_bits());
                black_box(out)
            })
        });
    }
    group.finish();
}

fn random_matrix(rows: usize, cols: usize, rng: &mut Xoshiro256StarStar) -> Matrix {
    let data: Vec<f64> = (0..rows * cols)
        .map(|_| rng.next_f64() * 2.0 - 1.0)
        .collect();
    Matrix::from_vec(rows, cols, data).unwrap()
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("exec_pool/gemm");
    group.sample_size(10);

    // (label, m, n, k): paper-scale = Spambase-sized rows × 24 cells ×
    // 57 features; wide = few RHS over a wide feature space.
    for &(label, m, n, k) in &[
        ("paper_4601x24x57", 4601usize, 24usize, 57usize),
        ("wide_2048x8x512", 2048, 8, 512),
    ] {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xE8E8);
        let a = random_matrix(m, k, &mut rng);
        let b_mat = random_matrix(n, k, &mut rng);
        let reference = gemm_nt_parallel(&a, &b_mat, 1).unwrap();
        let checksum: f64 = (0..m.min(4)).map(|i| reference.row(i)[0]).sum();

        group.bench_with_input(BenchmarkId::new("serial", label), &(), |bench, ()| {
            bench.iter(|| {
                let out = gemm_nt_parallel(black_box(&a), black_box(&b_mat), 1).unwrap();
                let probe: f64 = (0..m.min(4)).map(|i| out.row(i)[0]).sum();
                assert_eq!(probe.to_bits(), checksum.to_bits());
                black_box(out)
            })
        });
        group.bench_with_input(BenchmarkId::new("pool", label), &(), |bench, ()| {
            bench.iter(|| {
                let out = gemm_nt_parallel(
                    black_box(&a),
                    black_box(&b_mat),
                    poisongame_exec::hardware_threads().max(2),
                )
                .unwrap();
                let probe: f64 = (0..m.min(4)).map(|i| out.row(i)[0]).sum();
                assert_eq!(probe.to_bits(), checksum.to_bits());
                black_box(out)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_grid, bench_gemm);
criterion_main!(benches);
