//! Cache-blocked dense kernels: multi-RHS matrix products, fused
//! margin evaluation and fused subgradient updates.
//!
//! The scalar loops in [`crate::vector`] stay the semantic reference;
//! everything here is a *blocked re-tiling of the same arithmetic*.
//! Each output entry is accumulated over the shared dimension in the
//! same ascending order as [`vector::dot`]'s sequential fold, and IEEE
//! 754 multiplication is commutative bit-for-bit, so the kernels are
//! bit-identical to the naive per-row dot products — blocking only
//! changes memory traffic, never results. That invariant is what lets
//! the simulation engine batch many cells' margin computations into
//! one multi-RHS product without perturbing golden-path bytes.
//!
//! # Example
//!
//! ```
//! use poisongame_linalg::gemm::{gemm_nt, RowSource};
//! use poisongame_linalg::Matrix;
//!
//! let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
//! let w = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.5, 0.5]]).unwrap();
//! // C[i][j] = dot(x.row(i), w.row(j)) — weights as rows, no transpose.
//! let c = gemm_nt(&x, &w).unwrap();
//! assert_eq!(c.row(0), &[1.0, 1.5]);
//! assert_eq!(c.row(1), &[3.0, 3.5]);
//! ```

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::vector;
use crate::view::MatrixView;

use poisongame_exec::{hardware_threads, WorkerPool};

/// Rows of the left operand processed per cache block: a block of this
/// many feature rows re-reads the packed right-hand panel while it is
/// still resident.
const ROW_BLOCK: usize = 128;

/// Right-hand-side rows (weight vectors) per tile; with the 4-wide
/// register unroll below, one tile keeps at most four accumulator
/// groups live at a time.
const RHS_BLOCK: usize = 16;

/// Anything that exposes equal-length rows of `f64` — the common face
/// of [`Matrix`], [`MatrixView`] and [`RowPanel`] that the blocked
/// kernels tile over.
pub trait RowSource {
    /// Number of rows.
    fn rows(&self) -> usize;
    /// Number of columns (every row has this length).
    fn cols(&self) -> usize;
    /// Borrow row `r`.
    fn row(&self, r: usize) -> &[f64];
}

impl RowSource for Matrix {
    fn rows(&self) -> usize {
        Matrix::rows(self)
    }
    fn cols(&self) -> usize {
        Matrix::cols(self)
    }
    fn row(&self, r: usize) -> &[f64] {
        Matrix::row(self, r)
    }
}

impl RowSource for MatrixView<'_> {
    fn rows(&self) -> usize {
        MatrixView::rows(self)
    }
    fn cols(&self) -> usize {
        MatrixView::cols(self)
    }
    fn row(&self, r: usize) -> &[f64] {
        MatrixView::row(self, r)
    }
}

impl<T: RowSource + ?Sized> RowSource for &T {
    fn rows(&self) -> usize {
        (**self).rows()
    }
    fn cols(&self) -> usize {
        (**self).cols()
    }
    fn row(&self, r: usize) -> &[f64] {
        (**self).row(r)
    }
}

/// An owned, contiguous, reusable row panel — the gather target for
/// minibatch training (rows copied out of a [`RowSource`] in shuffle
/// order) and the packing buffer the blocked product reads its
/// right-hand side from.
///
/// Unlike [`Matrix`] it is built to be recycled: [`RowPanel::clear`]
/// keeps the allocation, so a training loop gathers thousands of
/// batches into the same buffer.
#[derive(Debug, Clone, Default)]
pub struct RowPanel {
    cols: usize,
    data: Vec<f64>,
}

impl RowPanel {
    /// An empty panel whose rows will have `cols` entries.
    pub fn new(cols: usize) -> Self {
        Self {
            cols,
            data: Vec::new(),
        }
    }

    /// An empty panel with room for `rows` rows pre-allocated.
    pub fn with_capacity(rows: usize, cols: usize) -> Self {
        Self {
            cols,
            data: Vec::with_capacity(rows * cols),
        }
    }

    /// Drop all rows but keep the allocation (and the width).
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Number of gathered rows.
    pub fn rows(&self) -> usize {
        self.data.len().checked_div(self.cols).unwrap_or(0)
    }

    /// Row width.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Append one row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the panel width.
    pub fn push(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "RowPanel::push: width mismatch");
        self.data.extend_from_slice(row);
    }

    /// Borrow row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

impl RowSource for RowPanel {
    fn rows(&self) -> usize {
        RowPanel::rows(self)
    }
    fn cols(&self) -> usize {
        RowPanel::cols(self)
    }
    fn row(&self, r: usize) -> &[f64] {
        RowPanel::row(self, r)
    }
}

/// Pack every row of `src` into one contiguous panel. This is the
/// transposed-panel step of the blocked product: a [`MatrixView`]'s
/// base/tail split (or any other scattered row source) becomes a
/// single linear buffer the inner loops stream through.
pub fn pack_rows(src: &impl RowSource) -> RowPanel {
    let mut panel = RowPanel::with_capacity(src.rows(), src.cols());
    for r in 0..src.rows() {
        panel.push(src.row(r));
    }
    panel
}

/// The macro-kernel: one `ROW_BLOCK`-sized band of the output.
///
/// Computes rows `i0 .. i0 + out.len() / n` of `C = A Bᵀ` into `out`
/// (a flat row-major band, `n` columns per row). Each output entry is
/// accumulated over the shared dimension in ascending order — the
/// bit-identity contract — and the band is written by exactly one
/// caller, so bands can be dispatched to parallel workers without any
/// reduction reordering.
fn gemm_nt_block(
    a: &impl RowSource,
    panel: &RowPanel,
    k: usize,
    n: usize,
    i0: usize,
    out: &mut [f64],
) {
    let band_rows = out.len() / n;
    for j0 in (0..n).step_by(RHS_BLOCK) {
        let j_end = (j0 + RHS_BLOCK).min(n);
        for local_i in 0..band_rows {
            let a_row = &a.row(i0 + local_i)[..k];
            let c_row = &mut out[local_i * n..(local_i + 1) * n];
            let mut j = j0;
            // 4 RHS accumulators share each streamed a_row load.
            while j + 4 <= j_end {
                let b0 = &panel.row(j)[..k];
                let b1 = &panel.row(j + 1)[..k];
                let b2 = &panel.row(j + 2)[..k];
                let b3 = &panel.row(j + 3)[..k];
                let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
                for (t, &av) in a_row.iter().enumerate() {
                    s0 += av * b0[t];
                    s1 += av * b1[t];
                    s2 += av * b2[t];
                    s3 += av * b3[t];
                }
                c_row[j] = s0;
                c_row[j + 1] = s1;
                c_row[j + 2] = s2;
                c_row[j + 3] = s3;
                j += 4;
            }
            while j < j_end {
                c_row[j] = vector::dot(a_row, panel.row(j));
                j += 1;
            }
        }
    }
}

/// Multiply-accumulate count below which fanning row bands out to the
/// pool costs more than it saves (ticket push + wakeups ≈ a few µs).
const PARALLEL_FLOP_THRESHOLD: usize = 4_000_000;

/// How many threads `gemm_nt` lets work on an `m`-row product with
/// `flops` multiply-accumulates: one (serial) when the product has a
/// single row band or is too small to amortize dispatch, otherwise one
/// per hardware thread, capped by the band count.
fn gemm_participants(m: usize, flops: usize) -> usize {
    if m <= ROW_BLOCK || flops < PARALLEL_FLOP_THRESHOLD {
        return 1;
    }
    hardware_threads().min(m.div_ceil(ROW_BLOCK))
}

/// Blocked multi-RHS product `C = A Bᵀ` over row-major operands:
/// `C[i][j] = dot(a.row(i), b.row(j))`.
///
/// `b`'s rows are the right-hand sides (e.g. one weight vector per
/// simulation cell), so no operand is ever physically transposed. The
/// accumulation over the shared dimension is sequential-ascending per
/// output entry — bit-identical to calling [`vector::dot`] per pair,
/// for any blocking.
///
/// Large products (several `ROW_BLOCK` bands and enough arithmetic to
/// amortize dispatch) fan their output row bands out across the shared
/// worker pool ([`poisongame_exec::WorkerPool::global`]). Each band is
/// written by exactly one task and the per-entry accumulation order
/// never changes, so the parallel result is **bit-identical by
/// construction** at any worker count — see [`gemm_nt_parallel`] to
/// pick the participant count explicitly.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if `a.cols() != b.cols()`.
pub fn gemm_nt(a: &(impl RowSource + Sync), b: &impl RowSource) -> Result<Matrix, LinalgError> {
    let flops = a.rows() * b.rows() * a.cols();
    gemm_nt_parallel(a, b, gemm_participants(a.rows(), flops))
}

/// [`gemm_nt`] with an explicit concurrency cap: at most
/// `participants` threads (the caller plus shared-pool workers) build
/// the product, each writing whole output row bands. `participants <= 1`
/// is the serial path; any value yields bit-identical results.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if `a.cols() != b.cols()`.
pub fn gemm_nt_parallel(
    a: &(impl RowSource + Sync),
    b: &impl RowSource,
    participants: usize,
) -> Result<Matrix, LinalgError> {
    if a.cols() != b.cols() {
        return Err(LinalgError::DimensionMismatch {
            left: a.cols(),
            right: b.cols(),
        });
    }
    let (m, n, k) = (a.rows(), b.rows(), a.cols());
    if m == 0 || n == 0 {
        return Ok(Matrix::zeros(m, n));
    }
    let panel = pack_rows(b);
    let mut data = vec![0.0; m * n];
    if participants <= 1 {
        for (band, out) in data.chunks_mut(ROW_BLOCK * n).enumerate() {
            gemm_nt_block(a, &panel, k, n, band * ROW_BLOCK, out);
        }
    } else {
        WorkerPool::global().for_each_chunk_mut(
            participants,
            &mut data,
            ROW_BLOCK * n,
            |band, out| {
                gemm_nt_block(a, &panel, k, n, band * ROW_BLOCK, out);
            },
        );
    }
    Ok(Matrix::from_vec(m, n, data).expect("band tiling covers exactly m*n entries"))
}

/// Blocked matrix-vector product `a * x` with a 4-row unroll: the
/// right-hand side stays register/cache resident across row groups.
/// Each entry is accumulated in [`vector::dot`] order — bit-identical
/// to the naive per-row loop.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if `x.len() != a.cols()`.
pub fn gemv(a: &impl RowSource, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
    if x.len() != a.cols() {
        return Err(LinalgError::DimensionMismatch {
            left: a.cols(),
            right: x.len(),
        });
    }
    let (m, k) = (a.rows(), a.cols());
    let mut out = vec![0.0; m];
    let mut i = 0;
    while i + 4 <= m {
        let r0 = &a.row(i)[..k];
        let r1 = &a.row(i + 1)[..k];
        let r2 = &a.row(i + 2)[..k];
        let r3 = &a.row(i + 3)[..k];
        let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
        for (t, &xv) in x.iter().enumerate() {
            s0 += r0[t] * xv;
            s1 += r1[t] * xv;
            s2 += r2[t] * xv;
            s3 += r3[t] * xv;
        }
        out[i] = s0;
        out[i + 1] = s1;
        out[i + 2] = s2;
        out[i + 3] = s3;
        i += 4;
    }
    while i < m {
        out[i] = vector::dot(a.row(i), x);
        i += 1;
    }
    Ok(out)
}

/// Row-weighted accumulation `out += xᵀ a`, i.e.
/// `out[j] += Σᵢ x[i] · a.row(i)[j]`, four rows per pass over `out`.
///
/// Bit-identical to one [`vector::axpy`]`(x[i], a.row(i), out)` per row
/// with `x[i] != 0.0`, in ascending row order: every column adds the
/// same products to the same start value in the same order, and Rust
/// never contracts `a*b + c` into a fused multiply-add. Only the memory
/// traffic changes — each pass loads and stores `out` once for four
/// rows instead of once per row. A 4-row block holding a zero weight
/// takes the per-row path, so zero rows are skipped exactly as the
/// axpy loop skips them.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if `x.len() != a.rows()`
/// or `out.len() != a.cols()`.
pub fn accumulate_rows(x: &[f64], a: &impl RowSource, out: &mut [f64]) -> Result<(), LinalgError> {
    if x.len() != a.rows() {
        return Err(LinalgError::DimensionMismatch {
            left: a.rows(),
            right: x.len(),
        });
    }
    if out.len() != a.cols() {
        return Err(LinalgError::DimensionMismatch {
            left: a.cols(),
            right: out.len(),
        });
    }
    let n = out.len();
    let mut blocks = x.chunks_exact(4);
    for (b, w) in blocks.by_ref().enumerate() {
        let i = 4 * b;
        if w.contains(&0.0) {
            axpy_nonzero_rows(i, w, a, out);
            continue;
        }
        let (x0, x1, x2, x3) = (w[0], w[1], w[2], w[3]);
        let a0 = &a.row(i)[..n];
        let a1 = &a.row(i + 1)[..n];
        let a2 = &a.row(i + 2)[..n];
        let a3 = &a.row(i + 3)[..n];
        for ((((o, &v0), &v1), &v2), &v3) in out.iter_mut().zip(a0).zip(a1).zip(a2).zip(a3) {
            *o = (((*o + x0 * v0) + x1 * v1) + x2 * v2) + x3 * v3;
        }
    }
    let tail = x.len() - blocks.remainder().len();
    axpy_nonzero_rows(tail, blocks.remainder(), a, out);
    Ok(())
}

/// `out += weights[r] · a.row(first + r)` for each nonzero weight, in
/// row order: the per-row path of [`accumulate_rows`].
fn axpy_nonzero_rows(first: usize, weights: &[f64], a: &impl RowSource, out: &mut [f64]) {
    for (r, &w) in weights.iter().enumerate() {
        if w != 0.0 {
            vector::axpy(w, a.row(first + r), out);
        }
    }
}

/// Fused margin kernel: `out[i] = labels[i] * (dot(x.row(i), w) + bias)`
/// in one pass over the rows — the hinge/logistic margin `y ⊙ (Xw + b)`
/// without materializing the intermediate product. `out` is cleared and
/// refilled, keeping its allocation across calls.
///
/// Bit-identical to computing `y * (dot(w, x) + b)` per row (IEEE 754
/// products commute bitwise; accumulation order is `vector::dot`'s).
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if `labels.len() !=
/// x.rows()` or `w.len() != x.cols()`.
pub fn fused_margins(
    x: &impl RowSource,
    labels: &[f64],
    w: &[f64],
    bias: f64,
    out: &mut Vec<f64>,
) -> Result<(), LinalgError> {
    if labels.len() != x.rows() {
        return Err(LinalgError::DimensionMismatch {
            left: x.rows(),
            right: labels.len(),
        });
    }
    if w.len() != x.cols() {
        return Err(LinalgError::DimensionMismatch {
            left: x.cols(),
            right: w.len(),
        });
    }
    let (m, k) = (x.rows(), x.cols());
    out.clear();
    out.reserve(m);
    let mut i = 0;
    while i + 4 <= m {
        let r0 = &x.row(i)[..k];
        let r1 = &x.row(i + 1)[..k];
        let r2 = &x.row(i + 2)[..k];
        let r3 = &x.row(i + 3)[..k];
        let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
        for (t, &wv) in w.iter().enumerate() {
            s0 += r0[t] * wv;
            s1 += r1[t] * wv;
            s2 += r2[t] * wv;
            s3 += r3[t] * wv;
        }
        out.push(labels[i] * (s0 + bias));
        out.push(labels[i + 1] * (s1 + bias));
        out.push(labels[i + 2] * (s2 + bias));
        out.push(labels[i + 3] * (s3 + bias));
        i += 4;
    }
    while i < m {
        out.push(labels[i] * (vector::dot(x.row(i), w) + bias));
        i += 1;
    }
    Ok(())
}

/// Fused scale-then-accumulate update
/// `w ← shrink·w + Σ coeffs[p] · x.row(picked[p])`
/// — the aggregated minibatch subgradient step. The scale is folded
/// into the first accumulated row's pass, so a batch with violators
/// touches `w` one fewer time than a separate scale + axpy sequence
/// (same two arithmetic ops per entry, so bit-identical to it: Rust
/// never contracts `a*b + c` into a fused multiply-add).
///
/// With `picked` empty this degrades to a plain scale (a no-op when
/// `shrink == 1.0`). Callers encode "skip the scale" (e.g. the SGD
/// guard against non-positive shrink factors) by passing `1.0`.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if `picked` and `coeffs`
/// differ in length or `w.len() != x.cols()`.
pub fn scale_accumulate(
    shrink: f64,
    x: &impl RowSource,
    picked: &[usize],
    coeffs: &[f64],
    w: &mut [f64],
) -> Result<(), LinalgError> {
    if picked.len() != coeffs.len() {
        return Err(LinalgError::DimensionMismatch {
            left: picked.len(),
            right: coeffs.len(),
        });
    }
    if w.len() != x.cols() {
        return Err(LinalgError::DimensionMismatch {
            left: x.cols(),
            right: w.len(),
        });
    }
    match picked.split_first() {
        None => {
            if shrink != 1.0 {
                vector::scale(shrink, w);
            }
        }
        Some((&first, rest)) => {
            let c0 = coeffs[0];
            let row0 = &x.row(first)[..w.len()];
            if shrink != 1.0 {
                for (t, wv) in w.iter_mut().enumerate() {
                    *wv = shrink * *wv + c0 * row0[t];
                }
            } else {
                vector::axpy(c0, row0, w);
            }
            for (&r, &c) in rest.iter().zip(&coeffs[1..]) {
                vector::axpy(c, x.row(r), w);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;

    use rand::SeedableRng;

    fn random_matrix(rows: usize, cols: usize, rng: &mut Xoshiro256StarStar) -> Matrix {
        let data: Vec<f64> = (0..rows * cols)
            .map(|_| rng.next_f64() * 2.0 - 1.0)
            .collect();
        Matrix::from_vec(rows, cols, data).unwrap()
    }

    /// The reference semantics: one `vector::dot` per output entry.
    fn naive_gemm_nt(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.rows());
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                out.set(i, j, vector::dot(a.row(i), b.row(j)));
            }
        }
        out
    }

    #[test]
    fn gemm_nt_is_bit_identical_to_naive_dots_across_block_boundaries() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x6E77);
        // Shapes straddling ROW_BLOCK (128) and RHS_BLOCK (16) edges,
        // plus tile remainders of every size mod 4.
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 4, 8),
            (17, 3, 57),
            (127, 15, 10),
            (128, 16, 33),
            (129, 17, 57),
            (150, 19, 37),
            (300, 24, 57),
        ] {
            let a = random_matrix(m, k, &mut rng);
            let b = random_matrix(n, k, &mut rng);
            let blocked = gemm_nt(&a, &b).unwrap();
            let naive = naive_gemm_nt(&a, &b);
            assert_eq!(blocked, naive, "bit divergence at {m}x{n}x{k}");
        }
    }

    #[test]
    fn gemm_nt_parallel_is_bit_identical_to_serial() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x9A11);
        // Shapes with 1, 2 and 4 row bands, including ragged last
        // bands, at paper-like widths.
        for &(m, n, k) in &[(100, 8, 57), (256, 24, 57), (300, 5, 123), (513, 16, 33)] {
            let a = random_matrix(m, k, &mut rng);
            let b = random_matrix(n, k, &mut rng);
            let serial = gemm_nt_parallel(&a, &b, 1).unwrap();
            for participants in [2, 4, 8] {
                let parallel = gemm_nt_parallel(&a, &b, participants).unwrap();
                for i in 0..m {
                    let serial_bits: Vec<u64> = serial.row(i).iter().map(|v| v.to_bits()).collect();
                    let par_bits: Vec<u64> = parallel.row(i).iter().map(|v| v.to_bits()).collect();
                    assert_eq!(
                        serial_bits, par_bits,
                        "row {i} diverged at {m}x{n}x{k}, {participants} participants"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_participants_thresholds() {
        // One row band or tiny arithmetic → serial, no pool dispatch.
        assert_eq!(gemm_participants(ROW_BLOCK, usize::MAX), 1);
        assert_eq!(gemm_participants(1000, PARALLEL_FLOP_THRESHOLD - 1), 1);
        // Past both thresholds the cap is bands-vs-hardware.
        let p = gemm_participants(ROW_BLOCK * 4, PARALLEL_FLOP_THRESHOLD);
        assert!((1..=4).contains(&p));
    }

    #[test]
    fn gemm_nt_reads_views_like_materialized_matrices() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xB457);
        let base = random_matrix(40, 9, &mut rng);
        let tail = random_matrix(7, 9, &mut rng);
        let view = MatrixView::with_tail(&base, tail).unwrap();
        let rhs = random_matrix(5, 9, &mut rng);
        let via_view = gemm_nt(&view, &rhs).unwrap();
        let via_matrix = gemm_nt(&view.to_matrix(), &rhs).unwrap();
        assert_eq!(via_view, via_matrix);
    }

    #[test]
    fn gemm_nt_handles_empty_operands_and_mismatch() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(4, 3);
        assert_eq!(gemm_nt(&a, &b).unwrap().shape(), (0, 4));
        assert_eq!(gemm_nt(&b, &a).unwrap().shape(), (4, 0));
        let bad = Matrix::zeros(2, 5);
        assert!(matches!(
            gemm_nt(&b, &bad).unwrap_err(),
            LinalgError::DimensionMismatch { left: 3, right: 5 }
        ));
    }

    #[test]
    fn gemv_is_bit_identical_to_per_row_dots() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x6E58);
        for &(m, k) in &[(1, 3), (4, 57), (7, 12), (130, 57)] {
            let a = random_matrix(m, k, &mut rng);
            let x: Vec<f64> = (0..k).map(|_| rng.next_f64() - 0.5).collect();
            let fast = gemv(&a, &x).unwrap();
            let naive: Vec<f64> = a.iter_rows().map(|row| vector::dot(row, &x)).collect();
            assert_eq!(fast, naive, "gemv diverged at {m}x{k}");
        }
        assert!(gemv(&Matrix::zeros(2, 3), &[1.0]).is_err());
    }

    /// The reference semantics of `accumulate_rows`: one axpy per
    /// row with a nonzero weight.
    fn axpy_rows(x: &[f64], a: &Matrix, out: &mut [f64]) {
        for (i, &xi) in x.iter().enumerate() {
            if xi != 0.0 {
                vector::axpy(xi, a.row(i), out);
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn accumulate_rows_is_bit_identical_to_row_axpys() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xA99);
        for &(m, n) in &[(1, 5), (4, 3), (7, 12), (13, 1), (151, 150)] {
            let mut a = random_matrix(m, n, &mut rng);
            let mut x: Vec<f64> = (0..m).map(|_| rng.next_f64()).collect();
            // Zero weights inside full blocks and in the tail, both
            // signs, plus a subnormal.
            for i in (0..m).step_by(5) {
                x[i] = if i % 2 == 0 { 0.0 } else { -0.0 };
            }
            x[m / 2] = f64::MIN_POSITIVE / 8.0;
            // The last column holds only signed zeros and ones: -0
            // under every weighted row, 1 under every zero-weight row.
            // From a -0 start the axpy loop keeps -0 there; adding a
            // zero row's `0·1 = +0` instead of skipping it gives +0.
            for (i, &xi) in x.iter().enumerate() {
                a.set(i, n - 1, if xi == 0.0 { 1.0 } else { -0.0 });
            }
            for start in [0.0, -0.0, 0.25] {
                let mut fast = vec![start; n];
                let mut reference = fast.clone();
                accumulate_rows(&x, &a, &mut fast).unwrap();
                axpy_rows(&x, &a, &mut reference);
                assert_eq!(bits(&fast), bits(&reference), "{m}x{n}, start {start}");
            }
            // Dense weights take the blocked path everywhere.
            let dense: Vec<f64> = (0..m).map(|_| rng.next_f64() - 0.5).collect();
            let mut fast = vec![0.0; n];
            let mut reference = vec![0.0; n];
            accumulate_rows(&dense, &a, &mut fast).unwrap();
            axpy_rows(&dense, &a, &mut reference);
            assert_eq!(bits(&fast), bits(&reference), "{m}x{n} dense");
        }
    }

    #[test]
    fn accumulate_rows_over_the_transpose_matches_gemv() {
        // A·y summed over Aᵀ's rows adds the same products in gemv's
        // column order.
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x7A5);
        for &(m, n) in &[(5, 4), (151, 150), (9, 130)] {
            let a = random_matrix(m, n, &mut rng);
            let mut y: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
            y[n / 3] = 0.0;
            let mut fast = vec![0.0; m];
            accumulate_rows(&y, &a.transpose(), &mut fast).unwrap();
            assert_eq!(bits(&fast), bits(&gemv(&a, &y).unwrap()), "{m}x{n}");
        }
    }

    #[test]
    fn accumulate_rows_validates_shapes() {
        let a = Matrix::zeros(3, 2);
        assert!(accumulate_rows(&[1.0; 2], &a, &mut [0.0; 2]).is_err());
        assert!(accumulate_rows(&[1.0; 3], &a, &mut [0.0; 3]).is_err());
        let mut out = [0.0; 2];
        accumulate_rows(&[], &Matrix::zeros(0, 2), &mut out).unwrap();
        assert_eq!(out, [0.0; 2]);
    }

    #[test]
    fn fused_margins_matches_scalar_margins_bitwise() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xF05D);
        for &(m, k) in &[(1, 4), (6, 57), (9, 3), (133, 21)] {
            let x = random_matrix(m, k, &mut rng);
            let w: Vec<f64> = (0..k).map(|_| rng.next_f64() - 0.5).collect();
            let labels: Vec<f64> = (0..m)
                .map(|_| if rng.next_f64() < 0.5 { -1.0 } else { 1.0 })
                .collect();
            let bias = rng.next_f64();
            let mut out = Vec::new();
            fused_margins(&x, &labels, &w, bias, &mut out).unwrap();
            // The SGD loop computes dot(w, x): operand order swapped,
            // still bitwise equal (IEEE multiplication commutes).
            let naive: Vec<f64> = (0..m)
                .map(|i| labels[i] * (vector::dot(&w, x.row(i)) + bias))
                .collect();
            assert_eq!(out, naive, "margins diverged at {m}x{k}");
        }
    }

    #[test]
    fn fused_margins_validates_shapes_and_reuses_buffer() {
        let x = Matrix::zeros(3, 2);
        let mut out = vec![9.0; 10];
        assert!(fused_margins(&x, &[1.0; 2], &[0.0; 2], 0.0, &mut out).is_err());
        assert!(fused_margins(&x, &[1.0; 3], &[0.0; 5], 0.0, &mut out).is_err());
        fused_margins(&x, &[1.0; 3], &[0.0; 2], 0.5, &mut out).unwrap();
        assert_eq!(out, vec![0.5; 3]);
    }

    #[test]
    fn scale_accumulate_is_bit_identical_to_scale_then_axpys() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x5CA1E);
        let x = random_matrix(20, 11, &mut rng);
        for (shrink, picked) in [
            (0.97_f64, vec![0usize, 5, 5, 19]),
            (1.0, vec![3, 2]),
            (0.5, vec![]),
            (1.0, vec![]),
        ] {
            let picked: &[usize] = &picked;
            let coeffs: Vec<f64> = picked.iter().map(|_| rng.next_f64() - 0.5).collect();
            let w0: Vec<f64> = (0..11).map(|_| rng.next_f64()).collect();

            let mut fused = w0.clone();
            scale_accumulate(shrink, &x, picked, &coeffs, &mut fused).unwrap();

            let mut reference = w0.clone();
            if shrink != 1.0 {
                vector::scale(shrink, &mut reference);
            }
            for (&r, &c) in picked.iter().zip(&coeffs) {
                vector::axpy(c, x.row(r), &mut reference);
            }
            assert_eq!(fused, reference, "update diverged (shrink {shrink})");
        }
    }

    #[test]
    fn scale_accumulate_validates_shapes() {
        let x = Matrix::zeros(4, 3);
        let mut w = vec![0.0; 3];
        assert!(scale_accumulate(1.0, &x, &[0, 1], &[1.0], &mut w).is_err());
        let mut short = vec![0.0; 2];
        assert!(scale_accumulate(1.0, &x, &[0], &[1.0], &mut short).is_err());
    }

    #[test]
    fn row_panel_gathers_and_recycles() {
        let mut panel = RowPanel::with_capacity(2, 3);
        assert_eq!(panel.rows(), 0);
        panel.push(&[1.0, 2.0, 3.0]);
        panel.push(&[4.0, 5.0, 6.0]);
        assert_eq!(panel.rows(), 2);
        assert_eq!(panel.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(panel.as_slice().len(), 6);
        panel.clear();
        assert_eq!(panel.rows(), 0);
        panel.push(&[7.0, 8.0, 9.0]);
        assert_eq!(panel.row(0), &[7.0, 8.0, 9.0]);
    }

    #[test]
    fn pack_rows_linearizes_a_view() {
        let base = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let tail = Matrix::from_rows(&[vec![3.0, 4.0]]).unwrap();
        let view = MatrixView::with_tail(&base, tail).unwrap();
        let panel = pack_rows(&view);
        assert_eq!(panel.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(panel.rows(), 2);
    }
}
