//! The [`Dataset`] container: dense features plus binary labels.

use crate::error::DataError;
use crate::label::Label;
use poisongame_linalg::{vector, Matrix};
use std::fmt;

/// A labelled dataset with one row per point.
///
/// Invariant: `features.rows() == labels.len()` — enforced at
/// construction and on every mutation.
///
/// # Example
///
/// ```
/// use poisongame_data::{Dataset, Label};
///
/// let mut d = Dataset::from_rows(
///     vec![vec![0.0, 0.0], vec![1.0, 1.0]],
///     vec![Label::Negative, Label::Positive],
/// ).unwrap();
/// d.push(&[2.0, 2.0], Label::Positive).unwrap();
/// assert_eq!(d.len(), 3);
/// assert_eq!(d.class_count(Label::Positive), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    features: Matrix,
    labels: Vec<Label>,
}

impl Dataset {
    /// Build from a feature matrix and label vector.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::LabelCountMismatch`] when row and label
    /// counts disagree.
    pub fn new(features: Matrix, labels: Vec<Label>) -> Result<Self, DataError> {
        if features.rows() != labels.len() {
            return Err(DataError::LabelCountMismatch {
                rows: features.rows(),
                labels: labels.len(),
            });
        }
        Ok(Self { features, labels })
    }

    /// Build from row vectors.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Empty`] for no rows,
    /// [`DataError::LabelCountMismatch`] for count mismatch, or a
    /// wrapped [`poisongame_linalg::LinalgError`] for ragged rows.
    pub fn from_rows(rows: Vec<Vec<f64>>, labels: Vec<Label>) -> Result<Self, DataError> {
        if rows.is_empty() {
            return Err(DataError::Empty);
        }
        if rows.len() != labels.len() {
            return Err(DataError::LabelCountMismatch {
                rows: rows.len(),
                labels: labels.len(),
            });
        }
        let features = Matrix::from_rows(&rows)?;
        Ok(Self { features, labels })
    }

    /// An empty dataset with the given feature dimension.
    pub fn empty(dim: usize) -> Self {
        Self {
            features: Matrix::zeros(0, dim),
            labels: Vec::new(),
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if there are no points.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.features.cols()
    }

    /// Borrow the feature matrix.
    pub fn features(&self) -> &Matrix {
        &self.features
    }

    /// Mutable feature matrix — crate-internal so in-place transforms
    /// (scaling) can't change the row/label pairing from outside.
    pub(crate) fn features_mut(&mut self) -> &mut Matrix {
        &mut self.features
    }

    /// Borrow the labels.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Feature row of point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn point(&self, i: usize) -> &[f64] {
        self.features.row(i)
    }

    /// Label of point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn label(&self, i: usize) -> Label {
        self.labels[i]
    }

    /// Iterate `(features, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], Label)> + '_ {
        self.features.iter_rows().zip(self.labels.iter().copied())
    }

    /// Append one labelled point.
    ///
    /// # Errors
    ///
    /// Returns a wrapped dimension error if the point width differs
    /// from `dim()`.
    pub fn push(&mut self, point: &[f64], label: Label) -> Result<(), DataError> {
        self.features.push_row(point)?;
        self.labels.push(label);
        Ok(())
    }

    /// Append every point of `other`.
    ///
    /// # Errors
    ///
    /// Returns a wrapped dimension error on feature-width mismatch.
    pub fn extend_from(&mut self, other: &Dataset) -> Result<(), DataError> {
        for (x, y) in other.iter() {
            self.push(x, y)?;
        }
        Ok(())
    }

    /// Number of points carrying `label`.
    pub fn class_count(&self, label: Label) -> usize {
        self.labels.iter().filter(|&&l| l == label).count()
    }

    /// Fraction of points carrying `label` (`0.0` for an empty dataset).
    pub fn class_fraction(&self, label: Label) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.class_count(label) as f64 / self.len() as f64
        }
    }

    /// Indices of the points carrying `label`.
    pub fn class_indices(&self, label: Label) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter_map(|(i, &l)| (l == label).then_some(i))
            .collect()
    }

    /// New dataset with only the selected indices (order preserved,
    /// duplicates allowed).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select(&self, indices: &[usize]) -> Dataset {
        let features = self.features.select_rows(indices);
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        Dataset { features, labels }
    }

    /// New dataset with only points of the given class.
    pub fn filter_class(&self, label: Label) -> Dataset {
        self.select(&self.class_indices(label))
    }

    /// Mean feature vector of the points carrying `label`.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::MissingClass`] if no point has that label.
    pub fn class_mean(&self, label: Label) -> Result<Vec<f64>, DataError> {
        let idx = self.class_indices(label);
        if idx.is_empty() {
            return Err(DataError::MissingClass);
        }
        let mut mean = vec![0.0; self.dim()];
        for &i in &idx {
            vector::axpy(1.0, self.point(i), &mut mean);
        }
        vector::scale(1.0 / idx.len() as f64, &mut mean);
        Ok(mean)
    }

    /// Euclidean distances from every point of class `label` to `center`.
    ///
    /// # Panics
    ///
    /// Panics if `center.len() != dim()`.
    pub fn class_distances(&self, label: Label, center: &[f64]) -> Vec<f64> {
        self.class_indices(label)
            .iter()
            .map(|&i| vector::euclidean_distance(self.point(i), center))
            .collect()
    }

    /// Euclidean distances from every point to `center`.
    ///
    /// # Panics
    ///
    /// Panics if `center.len() != dim()`.
    pub fn distances(&self, center: &[f64]) -> Vec<f64> {
        self.features
            .iter_rows()
            .map(|row| vector::euclidean_distance(row, center))
            .collect()
    }

    /// Per-column summary `(min, max, mean, std)` — handy for scaling
    /// and for sanity-checking synthetic data.
    ///
    /// Two row-major passes over the features: the first folds every
    /// column's min, max and sum, the second its squared deviations
    /// from the mean. Each column still sees its values in row order,
    /// and sums start from `-0.0` like [`Iterator::sum`], so every
    /// field is bit-identical to `linalg::stats::mean`,
    /// `linalg::stats::std_dev` and the `f64::min`/`f64::max` folds
    /// over the column.
    ///
    /// # Panics
    ///
    /// Panics on a dataset with features but no rows, like
    /// `linalg::stats::mean`.
    pub fn column_summary(&self) -> Vec<ColumnSummary> {
        let dim = self.dim();
        let n = self.len();
        assert!(n > 0 || dim == 0, "mean of empty slice");
        let mut min = vec![f64::INFINITY; dim];
        let mut max = vec![f64::NEG_INFINITY; dim];
        let mut sum = vec![-0.0; dim];
        for row in self.features.iter_rows() {
            for (c, &v) in row.iter().enumerate() {
                min[c] = min[c].min(v);
                max[c] = max[c].max(v);
                sum[c] += v;
            }
        }
        let mean: Vec<f64> = sum.iter().map(|s| s / n as f64).collect();
        let mut squares = vec![-0.0; dim];
        if n > 1 {
            for row in self.features.iter_rows() {
                for ((acc, &v), m) in squares.iter_mut().zip(row).zip(&mean) {
                    *acc += (v - m) * (v - m);
                }
            }
        }
        (0..dim)
            .map(|c| ColumnSummary {
                min: min[c],
                max: max[c],
                mean: mean[c],
                std_dev: if n > 1 {
                    (squares[c] / (n - 1) as f64).sqrt()
                } else {
                    0.0
                },
            })
            .collect()
    }

    /// Deconstruct into `(features, labels)`.
    pub fn into_parts(self) -> (Matrix, Vec<Label>) {
        (self.features, self.labels)
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Dataset: {} points x {} features ({} positive / {} negative)",
            self.len(),
            self.dim(),
            self.class_count(Label::Positive),
            self.class_count(Label::Negative),
        )
    }
}

/// Per-column statistics returned by [`Dataset::column_summary`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColumnSummary {
    /// Smallest value in the column.
    pub min: f64,
    /// Largest value in the column.
    pub max: f64,
    /// Arithmetic mean of the column.
    pub mean: f64,
    /// Sample standard deviation of the column.
    pub std_dev: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use poisongame_linalg::stats;

    fn toy() -> Dataset {
        Dataset::from_rows(
            vec![
                vec![0.0, 0.0],
                vec![1.0, 0.0],
                vec![10.0, 10.0],
                vec![11.0, 10.0],
            ],
            vec![
                Label::Negative,
                Label::Negative,
                Label::Positive,
                Label::Positive,
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_counts() {
        let m = Matrix::zeros(3, 2);
        assert!(Dataset::new(m.clone(), vec![Label::Negative; 3]).is_ok());
        assert!(matches!(
            Dataset::new(m, vec![Label::Negative; 2]).unwrap_err(),
            DataError::LabelCountMismatch { .. }
        ));
        assert!(matches!(
            Dataset::from_rows(vec![], vec![]).unwrap_err(),
            DataError::Empty
        ));
    }

    #[test]
    fn push_and_extend_keep_invariant() {
        let mut d = toy();
        d.push(&[5.0, 5.0], Label::Positive).unwrap();
        assert_eq!(d.len(), 5);
        assert!(d.push(&[1.0], Label::Negative).is_err());
        assert_eq!(d.len(), 5, "failed push must not grow labels");

        let mut e = Dataset::empty(2);
        e.extend_from(&d).unwrap();
        assert_eq!(e.len(), 5);
        assert_eq!(e.labels(), d.labels());
    }

    #[test]
    fn class_accounting() {
        let d = toy();
        assert_eq!(d.class_count(Label::Positive), 2);
        assert_eq!(d.class_fraction(Label::Positive), 0.5);
        assert_eq!(d.class_indices(Label::Negative), vec![0, 1]);
        let pos = d.filter_class(Label::Positive);
        assert_eq!(pos.len(), 2);
        assert!(pos.labels().iter().all(|&l| l == Label::Positive));
    }

    #[test]
    fn class_mean_and_distances() {
        let d = toy();
        let m = d.class_mean(Label::Positive).unwrap();
        assert_eq!(m, vec![10.5, 10.0]);
        let dists = d.class_distances(Label::Positive, &m);
        assert_eq!(dists.len(), 2);
        assert!((dists[0] - 0.5).abs() < 1e-12);

        let empty = Dataset::empty(2);
        assert!(matches!(
            empty.class_mean(Label::Positive).unwrap_err(),
            DataError::MissingClass
        ));
    }

    #[test]
    fn distances_to_origin() {
        let d = toy();
        let dd = d.distances(&[0.0, 0.0]);
        assert_eq!(dd[0], 0.0);
        assert_eq!(dd[1], 1.0);
    }

    #[test]
    fn select_preserves_pairing() {
        let d = toy();
        let s = d.select(&[3, 0]);
        assert_eq!(s.point(0), &[11.0, 10.0]);
        assert_eq!(s.label(0), Label::Positive);
        assert_eq!(s.point(1), &[0.0, 0.0]);
        assert_eq!(s.label(1), Label::Negative);
    }

    #[test]
    fn column_summary_sane() {
        let d = toy();
        let s = d.column_summary();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].min, 0.0);
        assert_eq!(s[0].max, 11.0);
        assert!((s[0].mean - 5.5).abs() < 1e-12);
    }

    /// The per-column reference `column_summary` must match bit for
    /// bit: the linalg statistics over each extracted column.
    fn reference_summary(d: &Dataset) -> Vec<ColumnSummary> {
        (0..d.dim())
            .map(|c| {
                let col: Vec<f64> = d.features().iter_rows().map(|row| row[c]).collect();
                ColumnSummary {
                    min: col.iter().copied().fold(f64::INFINITY, f64::min),
                    max: col.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    mean: stats::mean(&col),
                    std_dev: stats::std_dev(&col),
                }
            })
            .collect()
    }

    fn assert_same_bits(d: &Dataset) {
        let got = d.column_summary();
        let want = reference_summary(d);
        assert_eq!(got.len(), want.len());
        for (c, (g, w)) in got.iter().zip(&want).enumerate() {
            for (name, a, b) in [
                ("min", g.min, w.min),
                ("max", g.max, w.max),
                ("mean", g.mean, w.mean),
                ("std_dev", g.std_dev, w.std_dev),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "column {c} {name}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn column_summary_is_bit_identical_to_per_column_stats() {
        let labels = |n: usize| (0..n).map(|i| Label::from_bit((i % 2) as u8)).collect();
        // Signed zeros: an all-`-0.0` column sums to `-0.0`, and its
        // min/max folds keep whichever zero they meet.
        let zeros = Dataset::new(
            Matrix::from_rows(&[
                vec![-0.0, 0.0, -0.0],
                vec![-0.0, -0.0, 0.0],
                vec![-0.0, 0.0, -0.0],
            ])
            .unwrap(),
            labels(3),
        )
        .unwrap();
        assert_eq!(
            zeros.column_summary()[0].mean.to_bits(),
            (-0.0f64).to_bits()
        );
        assert_same_bits(&zeros);
        // A single row: std is 0 by definition.
        let single =
            Dataset::new(Matrix::from_rows(&[vec![3.5, -2.0]]).unwrap(), labels(1)).unwrap();
        assert_eq!(single.column_summary()[0].std_dev, 0.0);
        assert_same_bits(&single);
        // Constant columns next to varying ones.
        let constant = Dataset::new(
            Matrix::from_rows(&[vec![7.0, 1.0], vec![7.0, 2.0], vec![7.0, 4.0]]).unwrap(),
            labels(3),
        )
        .unwrap();
        assert_eq!(constant.column_summary()[0].std_dev, 0.0);
        assert_same_bits(&constant);
        // Values whose sum depends on the order of addition.
        let rows: Vec<Vec<f64>> = (0..97)
            .map(|i| {
                let x = i as f64;
                vec![(x * 0.37).sin() * 1e8, 1.0 / (x + 0.3), x * x * 1e-9, -x]
            })
            .collect();
        assert_same_bits(&Dataset::new(Matrix::from_rows(&rows).unwrap(), labels(97)).unwrap());
        assert_same_bits(&toy());
    }

    #[test]
    fn display_mentions_counts() {
        let d = toy();
        let s = d.to_string();
        assert!(s.contains("4 points"));
        assert!(s.contains("2 positive"));
    }

    #[test]
    fn iter_yields_all_pairs() {
        let d = toy();
        let collected: Vec<(Vec<f64>, Label)> = d.iter().map(|(x, y)| (x.to_vec(), y)).collect();
        assert_eq!(collected.len(), 4);
        assert_eq!(collected[2].1, Label::Positive);
    }

    #[test]
    fn class_fraction_empty_dataset() {
        let d = Dataset::empty(3);
        assert_eq!(d.class_fraction(Label::Positive), 0.0);
        assert!(d.is_empty());
        assert_eq!(d.dim(), 3);
    }
}
