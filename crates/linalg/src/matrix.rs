//! A minimal row-major dense matrix used as feature storage.

use crate::error::LinalgError;
use crate::vector;
use std::fmt;

/// Row-major dense `f64` matrix.
///
/// Rows are the natural unit in this workspace (one row per data point),
/// so row access is free (`&self.data[r*cols..]`) while column access
/// copies.
///
/// # Example
///
/// ```
/// use poisongame_linalg::Matrix;
///
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// assert_eq!(m.shape(), (2, 2));
/// assert_eq!(m.row(1), &[3.0, 4.0]);
/// assert_eq!(m.column(0), vec![1.0, 3.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Create a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidShape`] if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if rows * cols != data.len() {
            return Err(LinalgError::InvalidShape {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Create a matrix from row vectors.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::EmptyInput`] for an empty row list and
    /// [`LinalgError::DimensionMismatch`] if row lengths are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, LinalgError> {
        let first = rows.first().ok_or(LinalgError::EmptyInput)?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    left: cols,
                    right: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// An `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True if the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy column `c` into a new vector.
    ///
    /// Allocates per call; prefer [`Matrix::column_iter`] or
    /// [`Matrix::column_into`] in loops over many columns.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn column(&self, c: usize) -> Vec<f64> {
        self.column_iter(c).collect()
    }

    /// Iterate column `c` top to bottom without allocating — a strided
    /// walk of the row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn column_iter(&self, c: usize) -> impl Iterator<Item = f64> + '_ {
        assert!(
            c < self.cols,
            "column index {c} out of bounds ({})",
            self.cols
        );
        // `get` handles the zero-row matrix, whose buffer is empty.
        self.data
            .get(c..)
            .unwrap_or(&[])
            .iter()
            .step_by(self.cols.max(1))
            .copied()
    }

    /// Copy column `c` into `out`, clearing it first but keeping its
    /// allocation — the reusable-buffer form of [`Matrix::column`].
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn column_into(&self, c: usize, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.rows);
        out.extend(self.column_iter(c));
    }

    /// Entry at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Set entry at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, value: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = value;
    }

    /// Iterate over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> + '_ {
        (0..self.rows).map(move |r| self.row(r))
    }

    /// Matrix-vector product `self * x`, via the blocked
    /// [`crate::gemm::gemv`] kernel (bit-identical to a per-row
    /// [`vector::dot`] loop).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "mul_vec: dimension mismatch");
        crate::gemm::gemv(self, x).expect("dimensions checked above")
    }

    /// Transpose into a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Append a row to the bottom of the matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if the row length does
    /// not match `cols` (unless the matrix is empty with zero columns, in
    /// which case the row defines the width).
    pub fn push_row(&mut self, row: &[f64]) -> Result<(), LinalgError> {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        if row.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                left: self.cols,
                right: row.len(),
            });
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }

    /// Build a new matrix keeping only the rows whose indices appear in
    /// `keep` (in the given order).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, keep: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(keep.len() * self.cols);
        for &r in keep {
            data.extend_from_slice(self.row(r));
        }
        Matrix {
            rows: keep.len(),
            cols: self.cols,
            data,
        }
    }

    /// Column-wise mean; `None` if the matrix has no rows.
    pub fn column_means(&self) -> Option<Vec<f64>> {
        if self.rows == 0 {
            return None;
        }
        let mut means = vec![0.0; self.cols];
        for row in self.iter_rows() {
            vector::axpy(1.0, row, &mut means);
        }
        vector::scale(1.0 / self.rows as f64, &mut means);
        Some(means)
    }

    /// Flat row-major view of the backing buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consume into the flat row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for r in 0..show {
            let row = self.row(r);
            let cells: Vec<String> = row.iter().take(8).map(|v| format!("{v:>10.4}")).collect();
            let ellipsis = if self.cols > 8 { " …" } else { "" };
            writeln!(f, "  [{}{}]", cells.join(", "), ellipsis)?;
        }
        if self.rows > show {
            writeln!(f, "  … ({} more rows)", self.rows - show)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn from_vec_validates_shape() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        let e = Matrix::from_vec(2, 2, vec![1.0; 3]).unwrap_err();
        assert!(matches!(e, LinalgError::InvalidShape { .. }));
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let e = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).unwrap_err();
        assert!(matches!(e, LinalgError::DimensionMismatch { .. }));
        assert!(matches!(
            Matrix::from_rows(&[]).unwrap_err(),
            LinalgError::EmptyInput
        ));
    }

    #[test]
    fn row_and_column_access() {
        let m = sample();
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.column(2), vec![3.0, 6.0]);
        assert_eq!(m.get(1, 1), 5.0);
    }

    #[test]
    fn column_iter_and_column_into_match_column() {
        let m = sample();
        for c in 0..m.cols() {
            assert_eq!(m.column_iter(c).collect::<Vec<_>>(), m.column(c));
        }
        let mut buf = vec![99.0; 8];
        m.column_into(1, &mut buf);
        assert_eq!(buf, vec![2.0, 5.0]);
        // Zero-row matrices yield empty columns, not panics.
        let empty = Matrix::zeros(0, 3);
        assert_eq!(empty.column_iter(2).count(), 0);
        empty.column_into(1, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn set_and_row_mut() {
        let mut m = sample();
        m.set(0, 0, 9.0);
        m.row_mut(1)[2] = -1.0;
        assert_eq!(m.get(0, 0), 9.0);
        assert_eq!(m.get(1, 2), -1.0);
    }

    #[test]
    fn mul_vec_matches_manual() {
        let m = sample();
        assert_eq!(m.mul_vec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.row(0), &[1.0, 4.0]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn push_row_grows_and_validates() {
        let mut m = Matrix::default();
        m.push_row(&[1.0, 2.0]).unwrap();
        m.push_row(&[3.0, 4.0]).unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert!(m.push_row(&[1.0]).is_err());
    }

    #[test]
    fn select_rows_reorders() {
        let m = sample();
        let s = m.select_rows(&[1, 0, 1]);
        assert_eq!(s.shape(), (3, 3));
        assert_eq!(s.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(s.row(1), &[1.0, 2.0, 3.0]);
        assert_eq!(s.row(2), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn column_means_basic() {
        let m = sample();
        assert_eq!(m.column_means().unwrap(), vec![2.5, 3.5, 4.5]);
        assert_eq!(Matrix::zeros(0, 3).column_means(), None);
    }

    #[test]
    fn display_does_not_panic_and_truncates() {
        let m = Matrix::zeros(10, 12);
        let s = format!("{m}");
        assert!(s.contains("more rows"));
        assert!(s.contains("Matrix 10x12"));
    }

    #[test]
    fn flat_buffer_round_trip() {
        let m = sample();
        let back = Matrix::from_vec(2, 3, m.clone().into_vec()).unwrap();
        assert_eq!(back, m);
    }
}
