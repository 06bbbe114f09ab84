//! Slab filter — the second sanitizer of Steinhardt et al. (2017),
//! included as an ablation baseline.
//!
//! Where the sphere filter scores a point by its distance to its class
//! centroid, the slab filter scores it by the magnitude of its
//! projection onto the inter-centroid axis: poison that hides near the
//! sphere boundary but far along the class-separating direction is
//! caught here.

use crate::centroid::CentroidEstimator;
use crate::error::DefenseError;
use crate::filter::{Filter, FilterOutcome};
use poisongame_data::{DataView, Label};
use poisongame_linalg::{stats, vector};

/// Slab filter: removes the fraction of each class whose projection
/// onto the centroid axis deviates most from the class centroid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlabFilter {
    remove_fraction: f64,
    centroid: CentroidEstimator,
}

impl SlabFilter {
    /// New slab filter removing `remove_fraction` of each class.
    pub fn new(remove_fraction: f64, centroid: CentroidEstimator) -> Self {
        Self {
            remove_fraction,
            centroid,
        }
    }

    /// The configured removal fraction.
    pub fn remove_fraction(&self) -> f64 {
        self.remove_fraction
    }
}

impl Filter for SlabFilter {
    fn split(&self, data: &dyn DataView) -> Result<FilterOutcome, DefenseError> {
        if !(0.0..1.0).contains(&self.remove_fraction) || self.remove_fraction.is_nan() {
            return Err(DefenseError::BadParameter {
                what: "remove_fraction",
                value: self.remove_fraction,
            });
        }
        if data.is_empty() {
            return Err(DefenseError::EmptyDataset);
        }

        // Class centroids and the separating axis.
        let mut centers = Vec::with_capacity(2);
        for label in Label::both() {
            let idx = data.class_indices(label);
            if idx.is_empty() {
                return Err(DefenseError::MissingClass);
            }
            let points: Vec<&[f64]> = idx.iter().map(|&i| data.point(i)).collect();
            centers.push(self.centroid.estimate(&points)?);
        }
        let mut axis = vector::sub(&centers[1], &centers[0]);
        if vector::normalize(&mut axis).is_err() {
            // Coincident centroids: slab direction undefined, keep all.
            return Ok(FilterOutcome {
                kept_indices: (0..data.len()).collect(),
                removed_indices: Vec::new(),
                class_radii: [None, None],
            });
        }

        let mut kept = Vec::with_capacity(data.len());
        let mut removed = Vec::new();
        let mut class_radii = [None, None];
        for (slot, label) in Label::both().iter().enumerate() {
            let idx = data.class_indices(*label);
            let center = &centers[slot];
            let scores: Vec<f64> = idx
                .iter()
                .map(|&i| {
                    let diff = vector::sub(data.point(i), center);
                    vector::dot(&diff, &axis).abs()
                })
                .collect();
            let threshold = stats::quantile(&scores, 1.0 - self.remove_fraction)
                .map_err(|_| DefenseError::EmptyDataset)?;
            class_radii[slot] = Some(threshold);
            for (&i, &s) in idx.iter().zip(&scores) {
                if s <= threshold {
                    kept.push(i);
                } else {
                    removed.push(i);
                }
            }
        }
        kept.sort_unstable();
        removed.sort_unstable();
        Ok(FilterOutcome {
            kept_indices: kept,
            removed_indices: removed,
            class_radii,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poisongame_data::synth::gaussian_blobs;
    use poisongame_data::Dataset;
    use poisongame_linalg::Xoshiro256StarStar;
    use rand::SeedableRng;

    #[test]
    fn keeps_all_at_zero_fraction() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        let data = gaussian_blobs(40, 2, 3.0, 0.5, &mut rng);
        let f = SlabFilter::new(0.0, CentroidEstimator::Mean);
        let outcome = f.split(&data).unwrap();
        assert_eq!(outcome.kept_indices.len(), data.len());
    }

    #[test]
    fn removes_requested_fraction() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(12);
        let data = gaussian_blobs(150, 3, 3.0, 0.6, &mut rng);
        let f = SlabFilter::new(0.2, CentroidEstimator::Mean);
        let outcome = f.split(&data).unwrap();
        let frac = outcome.removed_fraction(&data);
        assert!((frac - 0.2).abs() < 0.04, "fraction {frac}");
    }

    #[test]
    fn catches_point_far_along_axis() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(13);
        let mut data = gaussian_blobs(50, 2, 4.0, 0.4, &mut rng);
        // A point labelled negative but sitting deep in positive
        // territory along the axis.
        let pos_mean = data.class_mean(Label::Positive).unwrap();
        let far = vector::scale_copy(2.0, &pos_mean);
        data.push(&far, Label::Negative).unwrap();
        let injected = data.len() - 1;
        let f = SlabFilter::new(0.05, CentroidEstimator::CoordinateMedian);
        let outcome = f.split(&data).unwrap();
        assert!(
            outcome.removed_indices.contains(&injected),
            "slab missed the planted point"
        );
    }

    #[test]
    fn validates_parameters_and_classes() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(14);
        let data = gaussian_blobs(10, 2, 3.0, 0.5, &mut rng);
        assert!(SlabFilter::new(1.5, CentroidEstimator::Mean)
            .split(&data)
            .is_err());
        assert!(SlabFilter::new(0.1, CentroidEstimator::Mean)
            .split(&Dataset::empty(2))
            .is_err());
    }

    #[test]
    fn coincident_centroids_keep_everything() {
        // Same distribution for both classes ⇒ centroids nearly equal;
        // force exact coincidence with identical points.
        let data = Dataset::from_rows(
            vec![
                vec![1.0, 1.0],
                vec![1.0, 1.0],
                vec![1.0, 1.0],
                vec![1.0, 1.0],
            ],
            vec![
                Label::Positive,
                Label::Negative,
                Label::Positive,
                Label::Negative,
            ],
        )
        .unwrap();
        let f = SlabFilter::new(0.2, CentroidEstimator::Mean);
        let outcome = f.split(&data).unwrap();
        assert_eq!(outcome.kept_indices.len(), 4);
    }
}
