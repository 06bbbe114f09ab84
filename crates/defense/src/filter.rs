//! The sphere (radius) filter — the paper's defense mechanism — and the
//! shared [`Filter`] trait / outcome types.

use crate::centroid::CentroidEstimator;
use crate::error::DefenseError;
use poisongame_data::{DataView, Dataset, Label};
use poisongame_linalg::vector;

/// How strong the filter is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FilterStrength {
    /// Remove this fraction of each class's points — the farthest ones
    /// from the class centroid. This is the x-axis of the paper's
    /// Figure 1 ("percentage of data points removed by the filter").
    RemoveFraction(f64),
    /// Remove every point farther than this absolute radius from its
    /// class centroid (`θ_d` in the paper's game model).
    AbsoluteRadius(f64),
}

/// A training-data sanitizer: decides which points to keep.
///
/// Filters read their input through [`DataView`], so an owned
/// [`Dataset`] and a copy-on-write
/// [`poisongame_data::PoisonedView`] (shared clean base + owned
/// poison tail) are interchangeable.
pub trait Filter {
    /// Partition `data` into kept and removed indices.
    ///
    /// # Errors
    ///
    /// Implementations reject empty datasets, missing classes and
    /// out-of-range parameters.
    fn split(&self, data: &dyn DataView) -> Result<FilterOutcome, DefenseError>;

    /// Convenience: apply [`Filter::split`] and materialize the kept
    /// dataset.
    ///
    /// # Errors
    ///
    /// Propagates [`Filter::split`] errors.
    fn apply(&self, data: &dyn DataView) -> Result<Dataset, DefenseError> {
        Ok(self.split(data)?.kept_dataset(data))
    }
}

/// Result of filtering: which indices survived.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterOutcome {
    /// Indices kept, ascending.
    pub kept_indices: Vec<usize>,
    /// Indices removed, ascending.
    pub removed_indices: Vec<usize>,
    /// The effective radius used per class `[negative, positive]`
    /// (`None` when the class had no points — impossible for
    /// [`RadiusFilter`], which requires both classes).
    pub class_radii: [Option<f64>; 2],
}

impl FilterOutcome {
    /// Materialize the surviving dataset.
    pub fn kept_dataset(&self, data: &dyn DataView) -> Dataset {
        data.select(&self.kept_indices)
    }

    /// Fraction of the original points removed.
    pub fn removed_fraction(&self, data: &dyn DataView) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        self.removed_indices.len() as f64 / data.len() as f64
    }

    /// Split removal counts into poison vs genuine given the ground
    /// truth (indices of injected points) known to the experiment
    /// harness.
    pub fn account(&self, poison_indices: &[usize]) -> FilterAccounting {
        let poison: std::collections::HashSet<usize> = poison_indices.iter().copied().collect();
        let poison_removed = self
            .removed_indices
            .iter()
            .filter(|i| poison.contains(i))
            .count();
        let poison_kept = self
            .kept_indices
            .iter()
            .filter(|i| poison.contains(i))
            .count();
        FilterAccounting {
            poison_removed,
            poison_kept,
            genuine_removed: self.removed_indices.len() - poison_removed,
            genuine_kept: self.kept_indices.len() - poison_kept,
        }
    }
}

/// Ground-truth accounting of a filter run (experiment-side only; the
/// real defender cannot observe this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterAccounting {
    /// Injected points that the filter removed.
    pub poison_removed: usize,
    /// Injected points that survived.
    pub poison_kept: usize,
    /// Genuine points that the filter removed (the defender's cost
    /// `Γ`).
    pub genuine_removed: usize,
    /// Genuine points that survived.
    pub genuine_kept: usize,
}

impl FilterAccounting {
    /// Recall of the detector on poisons (`0.0` when none injected).
    pub fn poison_recall(&self) -> f64 {
        let total = self.poison_removed + self.poison_kept;
        if total == 0 {
            0.0
        } else {
            self.poison_removed as f64 / total as f64
        }
    }

    /// Fraction of genuine data destroyed by the filter.
    pub fn genuine_loss(&self) -> f64 {
        let total = self.genuine_removed + self.genuine_kept;
        if total == 0 {
            0.0
        } else {
            self.genuine_removed as f64 / total as f64
        }
    }
}

/// Which points a filter radius is measured against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterScope {
    /// One centroid for the whole training set — the paper's game
    /// model ("the hypersphere centered at the centroid of the
    /// original dataset"). The default.
    Global,
    /// A centroid per class, removing the strength fraction from each
    /// class independently (the Paudice et al. variant) — kept for
    /// ablations.
    PerClass,
}

/// The paper's defense: sphere filter around a robust centroid.
///
/// # Example
///
/// ```
/// use poisongame_data::synth::gaussian_blobs;
/// use poisongame_defense::{CentroidEstimator, Filter, FilterStrength, RadiusFilter};
/// use poisongame_linalg::Xoshiro256StarStar;
/// use rand::SeedableRng;
///
/// let mut rng = Xoshiro256StarStar::seed_from_u64(2);
/// let data = gaussian_blobs(50, 2, 3.0, 0.5, &mut rng);
/// let filter = RadiusFilter::new(
///     FilterStrength::RemoveFraction(0.2),
///     CentroidEstimator::CoordinateMedian,
/// );
/// let kept = filter.apply(&data).unwrap();
/// assert!(kept.len() < data.len());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadiusFilter {
    strength: FilterStrength,
    centroid: CentroidEstimator,
    scope: FilterScope,
}

impl RadiusFilter {
    /// New filter with the given strength and centroid estimator,
    /// using the paper's global scope.
    pub fn new(strength: FilterStrength, centroid: CentroidEstimator) -> Self {
        Self {
            strength,
            centroid,
            scope: FilterScope::Global,
        }
    }

    /// Override the scope.
    pub fn with_scope(mut self, scope: FilterScope) -> Self {
        self.scope = scope;
        self
    }

    /// The configured strength.
    pub fn strength(&self) -> FilterStrength {
        self.strength
    }

    /// The configured scope.
    pub fn scope(&self) -> FilterScope {
        self.scope
    }

    /// Partition one index group by distance under the configured
    /// strength; returns the effective radius.
    fn partition(
        &self,
        idx: &[usize],
        distances: &[f64],
        kept: &mut Vec<usize>,
        removed: &mut Vec<usize>,
    ) -> f64 {
        match self.strength {
            FilterStrength::AbsoluteRadius(r) => {
                for (&i, &d) in idx.iter().zip(distances) {
                    if d <= r {
                        kept.push(i);
                    } else {
                        removed.push(i);
                    }
                }
                r
            }
            FilterStrength::RemoveFraction(f) => {
                // The paper's Figure 1 axis is "percentage of data
                // points removed by the filter", so the strength is
                // honored exactly: the ⌊f·n⌉ points farthest from the
                // centroid are removed, with distance ties broken
                // deterministically by index. (A pure radius-threshold
                // rule lets an attacker park an arbitrarily large
                // tied-at-the-cutoff cluster the filter could never
                // remove.)
                let k = ((idx.len() as f64) * f).round() as usize;
                let mut order: Vec<usize> = (0..idx.len()).collect();
                order.sort_by(|&a, &b| {
                    distances[b]
                        .partial_cmp(&distances[a])
                        .expect("finite distances")
                        .then(idx[a].cmp(&idx[b]))
                });
                for (rank, &local) in order.iter().enumerate() {
                    if rank < k {
                        removed.push(idx[local]);
                    } else {
                        kept.push(idx[local]);
                    }
                }
                // Effective radius: the largest kept distance.
                order.get(k).map(|&local| distances[local]).unwrap_or(0.0)
            }
        }
    }

    fn validate(&self) -> Result<(), DefenseError> {
        match self.strength {
            FilterStrength::RemoveFraction(f) => {
                if !(0.0..1.0).contains(&f) || f.is_nan() {
                    return Err(DefenseError::BadParameter {
                        what: "remove_fraction",
                        value: f,
                    });
                }
            }
            FilterStrength::AbsoluteRadius(r) => {
                if r < 0.0 || !r.is_finite() {
                    return Err(DefenseError::BadParameter {
                        what: "radius",
                        value: r,
                    });
                }
            }
        }
        Ok(())
    }
}

impl Filter for RadiusFilter {
    fn split(&self, data: &dyn DataView) -> Result<FilterOutcome, DefenseError> {
        self.validate()?;
        if data.is_empty() {
            return Err(DefenseError::EmptyDataset);
        }

        let mut kept = Vec::with_capacity(data.len());
        let mut removed = Vec::new();
        let mut class_radii = [None, None];

        match self.scope {
            FilterScope::Global => {
                let idx: Vec<usize> = (0..data.len()).collect();
                let points: Vec<&[f64]> = idx.iter().map(|&i| data.point(i)).collect();
                let center = self.centroid.estimate(&points)?;
                let distances: Vec<f64> = points
                    .iter()
                    .map(|p| vector::euclidean_distance(p, &center))
                    .collect();
                let radius = self.partition(&idx, &distances, &mut kept, &mut removed);
                class_radii = [Some(radius), Some(radius)];
            }
            FilterScope::PerClass => {
                for (slot, label) in Label::both().iter().enumerate() {
                    let idx = data.class_indices(*label);
                    if idx.is_empty() {
                        return Err(DefenseError::MissingClass);
                    }
                    let points: Vec<&[f64]> = idx.iter().map(|&i| data.point(i)).collect();
                    let center = self.centroid.estimate(&points)?;
                    let distances: Vec<f64> = points
                        .iter()
                        .map(|p| vector::euclidean_distance(p, &center))
                        .collect();
                    class_radii[slot] =
                        Some(self.partition(&idx, &distances, &mut kept, &mut removed));
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
    use poisongame_linalg::Xoshiro256StarStar;
    use rand::SeedableRng;

    fn blobs(seed: u64, n: usize) -> Dataset {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        gaussian_blobs(n, 3, 4.0, 0.7, &mut rng)
    }

    #[test]
    fn zero_fraction_keeps_everything() {
        let data = blobs(1, 50);
        let f = RadiusFilter::new(FilterStrength::RemoveFraction(0.0), CentroidEstimator::Mean);
        let outcome = f.split(&data).unwrap();
        assert_eq!(outcome.kept_indices.len(), data.len());
        assert!(outcome.removed_indices.is_empty());
        assert_eq!(outcome.removed_fraction(&data), 0.0);
    }

    #[test]
    fn fraction_removes_roughly_that_share_per_class() {
        let data = blobs(2, 200);
        let f = RadiusFilter::new(
            FilterStrength::RemoveFraction(0.25),
            CentroidEstimator::Mean,
        )
        .with_scope(FilterScope::PerClass);
        let outcome = f.split(&data).unwrap();
        let frac = outcome.removed_fraction(&data);
        assert!((frac - 0.25).abs() < 0.03, "removed fraction {frac}");
    }

    #[test]
    fn removed_points_are_the_farthest() {
        let data = blobs(3, 80);
        let f = RadiusFilter::new(FilterStrength::RemoveFraction(0.2), CentroidEstimator::Mean)
            .with_scope(FilterScope::PerClass);
        let outcome = f.split(&data).unwrap();
        // Every removed point must be farther from its class centroid
        // than every kept point of the same class.
        for label in Label::both() {
            let idx = data.class_indices(label);
            let points: Vec<&[f64]> = idx.iter().map(|&i| data.point(i)).collect();
            let center = CentroidEstimator::Mean.estimate(&points).unwrap();
            let dist = |i: usize| vector::euclidean_distance(data.point(i), &center);
            let max_kept = outcome
                .kept_indices
                .iter()
                .filter(|i| data.label(**i) == label)
                .map(|&i| dist(i))
                .fold(0.0f64, f64::max);
            for &i in outcome
                .removed_indices
                .iter()
                .filter(|i| data.label(**i) == label)
            {
                assert!(dist(i) >= max_kept - 1e-9);
            }
        }
    }

    #[test]
    fn huge_absolute_radius_keeps_all() {
        let data = blobs(4, 40);
        let f = RadiusFilter::new(
            FilterStrength::AbsoluteRadius(1e9),
            CentroidEstimator::CoordinateMedian,
        );
        let outcome = f.split(&data).unwrap();
        assert_eq!(outcome.kept_indices.len(), data.len());
        assert!(outcome.class_radii[0].unwrap() > 1e8);
    }

    #[test]
    fn zero_absolute_radius_removes_almost_all() {
        let data = blobs(5, 40);
        let f = RadiusFilter::new(FilterStrength::AbsoluteRadius(0.0), CentroidEstimator::Mean);
        let outcome = f.split(&data).unwrap();
        assert!(outcome.kept_indices.len() <= 2);
    }

    #[test]
    fn parameter_validation() {
        let data = blobs(6, 20);
        for bad in [
            FilterStrength::RemoveFraction(-0.1),
            FilterStrength::RemoveFraction(1.0),
            FilterStrength::RemoveFraction(f64::NAN),
            FilterStrength::AbsoluteRadius(-1.0),
            FilterStrength::AbsoluteRadius(f64::INFINITY),
        ] {
            let f = RadiusFilter::new(bad, CentroidEstimator::Mean);
            assert!(f.split(&data).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn empty_and_single_class_rejected() {
        let f = RadiusFilter::new(FilterStrength::RemoveFraction(0.1), CentroidEstimator::Mean);
        assert!(matches!(
            f.split(&Dataset::empty(2)).unwrap_err(),
            DefenseError::EmptyDataset
        ));
        let single = Dataset::from_rows(
            vec![vec![1.0, 1.0], vec![2.0, 2.0]],
            vec![Label::Positive, Label::Positive],
        )
        .unwrap();
        // Global scope is label-blind: a single-class set is fine.
        assert!(f.split(&single).is_ok());
        // Per-class scope needs both classes.
        assert!(matches!(
            f.with_scope(FilterScope::PerClass)
                .split(&single)
                .unwrap_err(),
            DefenseError::MissingClass
        ));
    }

    #[test]
    fn global_scope_removes_exact_global_fraction() {
        let data = blobs(12, 100);
        let f = RadiusFilter::new(
            FilterStrength::RemoveFraction(0.15),
            CentroidEstimator::CoordinateMedian,
        );
        let outcome = f.split(&data).unwrap();
        assert_eq!(outcome.removed_indices.len(), 30); // 15% of 200
        assert_eq!(outcome.class_radii[0], outcome.class_radii[1]);
    }

    #[test]
    fn outcome_partition_is_complete_and_disjoint() {
        let data = blobs(7, 60);
        let f = RadiusFilter::new(FilterStrength::RemoveFraction(0.3), CentroidEstimator::Mean);
        let outcome = f.split(&data).unwrap();
        let mut all: Vec<usize> = outcome
            .kept_indices
            .iter()
            .chain(&outcome.removed_indices)
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..data.len()).collect::<Vec<_>>());
    }

    #[test]
    fn accounting_tracks_poison() {
        let data = blobs(8, 30);
        let f = RadiusFilter::new(FilterStrength::RemoveFraction(0.2), CentroidEstimator::Mean);
        let outcome = f.split(&data).unwrap();
        // Pretend the first five indices are poison.
        let acc = outcome.account(&[0, 1, 2, 3, 4]);
        assert_eq!(acc.poison_removed + acc.poison_kept, 5);
        assert_eq!(acc.genuine_removed + acc.genuine_kept, data.len() - 5);
        assert!(acc.poison_recall() <= 1.0);
        assert!(acc.genuine_loss() <= 1.0);
    }

    #[test]
    fn kept_dataset_matches_indices() {
        let data = blobs(9, 30);
        let f = RadiusFilter::new(FilterStrength::RemoveFraction(0.1), CentroidEstimator::Mean);
        let outcome = f.split(&data).unwrap();
        let kept = outcome.kept_dataset(&data);
        assert_eq!(kept.len(), outcome.kept_indices.len());
        assert_eq!(kept.point(0), data.point(outcome.kept_indices[0]));
    }

    #[test]
    fn accounting_empty_poison_set() {
        let acc = FilterAccounting {
            poison_removed: 0,
            poison_kept: 0,
            genuine_removed: 2,
            genuine_kept: 8,
        };
        assert_eq!(acc.poison_recall(), 0.0);
        assert!((acc.genuine_loss() - 0.2).abs() < 1e-12);
    }
}
