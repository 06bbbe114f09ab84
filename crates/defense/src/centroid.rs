//! Robust location estimators for the per-class centroid.
//!
//! The paper's defense anchors its sphere filter on the class centroid.
//! Because the attacker contaminates the training data, a robust
//! estimator matters: §3.1 notes the strategy "is justified … as long
//! as the defender uses a good method to find the centroid (i.e. a
//! method less affected by the outliers)". The `centroid_ablation`
//! bench quantifies the choice.

use crate::error::DefenseError;
use poisongame_linalg::{stats, vector};

/// Which location estimator anchors the filter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CentroidEstimator {
    /// Arithmetic mean — cheapest, 0 % breakdown point.
    Mean,
    /// Coordinate-wise median — 50 % breakdown per coordinate.
    CoordinateMedian,
    /// Coordinate-wise symmetrically trimmed mean.
    TrimmedMean {
        /// Fraction trimmed from each tail, in `[0, 0.5)`.
        trim: f64,
    },
    /// Geometric median via Weiszfeld iteration — the classic
    /// high-breakdown multivariate location estimator.
    GeometricMedian,
}

impl Default for CentroidEstimator {
    /// Coordinate-wise median: robust and deterministic, the estimator
    /// used by the reproduction's experiments.
    fn default() -> Self {
        CentroidEstimator::CoordinateMedian
    }
}

impl CentroidEstimator {
    /// Estimate the centroid of a set of points (rows).
    ///
    /// # Errors
    ///
    /// Returns [`DefenseError::EmptyDataset`] for no rows,
    /// [`DefenseError::BadParameter`] for an invalid trim fraction, and
    /// [`DefenseError::NoConvergence`] if Weiszfeld stalls.
    pub fn estimate(&self, points: &[&[f64]]) -> Result<Vec<f64>, DefenseError> {
        let first = points.first().ok_or(DefenseError::EmptyDataset)?;
        let dim = first.len();
        match *self {
            CentroidEstimator::Mean => {
                let mut mean = vec![0.0; dim];
                for p in points {
                    vector::axpy(1.0, p, &mut mean);
                }
                vector::scale(1.0 / points.len() as f64, &mut mean);
                Ok(mean)
            }
            CentroidEstimator::CoordinateMedian => {
                let mut out = Vec::with_capacity(dim);
                let mut column = Vec::with_capacity(points.len());
                for c in 0..dim {
                    column.clear();
                    column.extend(points.iter().map(|p| p[c]));
                    out.push(stats::median(&column));
                }
                Ok(out)
            }
            CentroidEstimator::TrimmedMean { trim } => {
                let mut out = Vec::with_capacity(dim);
                let mut column = Vec::with_capacity(points.len());
                for c in 0..dim {
                    column.clear();
                    column.extend(points.iter().map(|p| p[c]));
                    let m = stats::trimmed_mean(&column, trim).map_err(|_| {
                        DefenseError::BadParameter {
                            what: "trim",
                            value: trim,
                        }
                    })?;
                    out.push(m);
                }
                Ok(out)
            }
            CentroidEstimator::GeometricMedian => geometric_median(points, 200, 1e-9),
        }
    }
}

/// Weiszfeld's algorithm for the geometric median.
///
/// Converges for any starting point not equal to a data point; we start
/// from the coordinate mean and nudge off data points if hit.
///
/// # Errors
///
/// Returns [`DefenseError::EmptyDataset`] for no rows and
/// [`DefenseError::NoConvergence`] if the iteration cap is reached
/// without the step shrinking below `tolerance`.
pub fn geometric_median(
    points: &[&[f64]],
    max_iterations: usize,
    tolerance: f64,
) -> Result<Vec<f64>, DefenseError> {
    let first = points.first().ok_or(DefenseError::EmptyDataset)?;
    let dim = first.len();
    if points.len() == 1 {
        return Ok(first.to_vec());
    }

    // Start at the mean.
    let mut current = vec![0.0; dim];
    for p in points {
        vector::axpy(1.0, p, &mut current);
    }
    vector::scale(1.0 / points.len() as f64, &mut current);

    for _ in 0..max_iterations {
        let mut numerator = vec![0.0; dim];
        let mut denominator = 0.0;
        let mut at_data_point = false;
        for p in points {
            let d = vector::euclidean_distance(p, &current);
            if d < 1e-12 {
                at_data_point = true;
                continue;
            }
            let w = 1.0 / d;
            vector::axpy(w, p, &mut numerator);
            denominator += w;
        }
        if denominator == 0.0 {
            // All points coincide with the iterate — it is the median.
            return Ok(current);
        }
        let mut next: Vec<f64> = numerator.iter().map(|v| v / denominator).collect();
        if at_data_point {
            // Standard Weiszfeld fix: take a damped step when the
            // iterate sits on a data point.
            next = vector::lerp(&current, &next, 0.5);
        }
        let step = vector::euclidean_distance(&next, &current);
        current = next;
        if step < tolerance {
            return Ok(current);
        }
    }
    Err(DefenseError::NoConvergence {
        iterations: max_iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(data: &[Vec<f64>]) -> Vec<&[f64]> {
        data.iter().map(|r| r.as_slice()).collect()
    }

    #[test]
    fn mean_is_arithmetic() {
        let data = vec![vec![0.0, 0.0], vec![2.0, 4.0]];
        let c = CentroidEstimator::Mean.estimate(&rows(&data)).unwrap();
        assert_eq!(c, vec![1.0, 2.0]);
    }

    #[test]
    fn median_ignores_one_outlier() {
        let data = vec![
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![2.0, 2.0],
            vec![1000.0, -1000.0],
        ];
        let c = CentroidEstimator::CoordinateMedian
            .estimate(&rows(&data))
            .unwrap();
        assert_eq!(c, vec![1.5, 0.5]);
    }

    #[test]
    fn trimmed_mean_between_mean_and_median() {
        let data = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0], vec![100.0]];
        let trimmed = CentroidEstimator::TrimmedMean { trim: 0.2 }
            .estimate(&rows(&data))
            .unwrap();
        assert_eq!(trimmed, vec![2.0]);
        assert!(matches!(
            CentroidEstimator::TrimmedMean { trim: 0.7 }
                .estimate(&rows(&data))
                .unwrap_err(),
            DefenseError::BadParameter { .. }
        ));
    }

    #[test]
    fn geometric_median_of_symmetric_points_is_center() {
        let data = vec![
            vec![1.0, 0.0],
            vec![-1.0, 0.0],
            vec![0.0, 1.0],
            vec![0.0, -1.0],
        ];
        let c = CentroidEstimator::GeometricMedian
            .estimate(&rows(&data))
            .unwrap();
        assert!(vector::norm2(&c) < 1e-6, "centroid {c:?}");
    }

    #[test]
    fn geometric_median_resists_outlier_better_than_mean() {
        let mut data = vec![vec![0.0, 0.0]; 9];
        data.push(vec![100.0, 0.0]);
        let refs = rows(&data);
        let mean = CentroidEstimator::Mean.estimate(&refs).unwrap();
        let gm = CentroidEstimator::GeometricMedian.estimate(&refs).unwrap();
        assert!((mean[0] - 10.0).abs() < 1e-9);
        assert!(gm[0].abs() < 0.01, "geometric median pulled to {}", gm[0]);
    }

    #[test]
    fn geometric_median_single_point() {
        let data = vec![vec![3.0, 4.0]];
        let c = geometric_median(&rows(&data), 10, 1e-9).unwrap();
        assert_eq!(c, vec![3.0, 4.0]);
    }

    #[test]
    fn geometric_median_identical_points() {
        let data = vec![vec![2.0, 2.0]; 5];
        let c = geometric_median(&rows(&data), 50, 1e-9).unwrap();
        assert!((c[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_input_rejected() {
        let empty: Vec<&[f64]> = vec![];
        for est in [
            CentroidEstimator::Mean,
            CentroidEstimator::CoordinateMedian,
            CentroidEstimator::GeometricMedian,
        ] {
            assert!(matches!(
                est.estimate(&empty).unwrap_err(),
                DefenseError::EmptyDataset
            ));
        }
    }

    #[test]
    fn default_is_coordinate_median() {
        assert_eq!(
            CentroidEstimator::default(),
            CentroidEstimator::CoordinateMedian
        );
    }
}
