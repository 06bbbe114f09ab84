//! k-NN distance filter — a density-based sanitizer baseline.
//!
//! Scores each point by the distance to its `k`-th nearest neighbour
//! *within its own class* and removes the sparsest fraction. Poison
//! clusters can defeat it (they are mutually close), which is exactly
//! the ablation contrast to the centroid-anchored sphere filter.

use crate::error::DefenseError;
use crate::filter::{Filter, FilterOutcome};
use poisongame_data::{DataView, Label};
use poisongame_linalg::{stats, vector};

/// k-NN distance filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnnDistanceFilter {
    k: usize,
    remove_per_mille: u16,
}

impl KnnDistanceFilter {
    /// New filter removing `remove_fraction` of each class by `k`-NN
    /// distance score.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize, remove_fraction: f64) -> Self {
        assert!(k > 0, "k must be positive");
        let clamped = remove_fraction.clamp(0.0, 0.999);
        Self {
            k,
            remove_per_mille: (clamped * 1000.0).round() as u16,
        }
    }

    /// The configured neighbour count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The configured removal fraction.
    pub fn remove_fraction(&self) -> f64 {
        self.remove_per_mille as f64 / 1000.0
    }
}

impl Filter for KnnDistanceFilter {
    fn split(&self, data: &dyn DataView) -> Result<FilterOutcome, DefenseError> {
        if data.is_empty() {
            return Err(DefenseError::EmptyDataset);
        }
        let fraction = self.remove_fraction();

        let mut kept = Vec::with_capacity(data.len());
        let mut removed = Vec::new();
        for label in Label::both() {
            let idx = data.class_indices(label);
            if idx.is_empty() {
                return Err(DefenseError::MissingClass);
            }
            if idx.len() <= self.k {
                // Too few points for the score; keep them all.
                kept.extend_from_slice(&idx);
                continue;
            }
            // Pairwise distances within the class (classes here are a
            // few thousand points, O(n²·d) is acceptable and exact).
            // Each score needs only the k-th smallest distance, so one
            // scratch buffer is reused and partitioned, not sorted.
            let mut dists = Vec::with_capacity(idx.len() - 1);
            let scores: Vec<f64> = idx
                .iter()
                .map(|&i| {
                    dists.clear();
                    dists.extend(
                        idx.iter()
                            .filter(|&&j| j != i)
                            .map(|&j| vector::squared_distance(data.point(i), data.point(j))),
                    );
                    dists
                        .select_nth_unstable_by(self.k - 1, f64::total_cmp)
                        .1
                        .sqrt()
                })
                .collect();
            let threshold =
                stats::quantile(&scores, 1.0 - fraction).map_err(|_| DefenseError::EmptyDataset)?;
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
            class_radii: [None, None],
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
    fn isolated_point_is_removed_first() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(21);
        let mut data = gaussian_blobs(40, 2, 3.0, 0.4, &mut rng);
        let lonely = vec![50.0, 50.0];
        data.push(&lonely, Label::Positive).unwrap();
        let injected = data.len() - 1;
        let f = KnnDistanceFilter::new(3, 0.05);
        let outcome = f.split(&data).unwrap();
        assert!(outcome.removed_indices.contains(&injected));
    }

    #[test]
    fn tight_poison_cluster_evades() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(22);
        let mut data = gaussian_blobs(60, 2, 3.0, 0.4, &mut rng);
        // Ten mutually-close poison points far from the data.
        let base = [30.0, 30.0];
        let mut injected = Vec::new();
        for i in 0..10 {
            let p = vec![base[0] + 0.01 * i as f64, base[1]];
            data.push(&p, Label::Positive).unwrap();
            injected.push(data.len() - 1);
        }
        let f = KnnDistanceFilter::new(3, 0.08);
        let outcome = f.split(&data).unwrap();
        let caught = injected
            .iter()
            .filter(|i| outcome.removed_indices.contains(i))
            .count();
        // The cluster shields itself: density scores stay low.
        assert!(caught < 5, "caught {caught} of 10 clustered poisons");
    }

    /// The filter's partition with every score computed the plain way:
    /// all in-class distances fully sorted, the k-th read off.
    fn full_sort_oracle(data: &Dataset, k: usize, fraction: f64) -> (Vec<usize>, Vec<usize>) {
        let (mut kept, mut removed) = (Vec::new(), Vec::new());
        for label in Label::both() {
            let idx = data.class_indices(label);
            let scores: Vec<f64> = idx
                .iter()
                .map(|&i| {
                    let mut dists: Vec<f64> = idx
                        .iter()
                        .filter(|&&j| j != i)
                        .map(|&j| vector::squared_distance(data.point(i), data.point(j)))
                        .collect();
                    dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    dists[k - 1].sqrt()
                })
                .collect();
            let threshold = stats::quantile(&scores, 1.0 - fraction).unwrap();
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
        (kept, removed)
    }

    #[test]
    fn partial_selection_matches_full_sort_oracle() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(24);
        let mut data = gaussian_blobs(25, 3, 2.0, 0.8, &mut rng);
        // Exact duplicates make tied (and zero) distances.
        for i in [0, 1, 2, 30, 30, 31] {
            let row = data.point(i).to_vec();
            let label = data.label(i);
            data.push(&row, label).unwrap();
        }
        let smallest_class = Label::both()
            .iter()
            .map(|&l| data.class_indices(l).len())
            .min()
            .unwrap();
        for k in [1, 2, 5, smallest_class - 1] {
            for fraction in [0.0, 0.1, 0.3] {
                let outcome = KnnDistanceFilter::new(k, fraction).split(&data).unwrap();
                let (kept, removed) = full_sort_oracle(&data, k, fraction);
                assert_eq!(outcome.kept_indices, kept, "k={k} fraction={fraction}");
                assert_eq!(
                    outcome.removed_indices, removed,
                    "k={k} fraction={fraction}"
                );
            }
        }
    }

    #[test]
    fn zero_fraction_keeps_all() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(23);
        let data = gaussian_blobs(30, 2, 3.0, 0.5, &mut rng);
        let f = KnnDistanceFilter::new(2, 0.0);
        let outcome = f.split(&data).unwrap();
        assert_eq!(outcome.kept_indices.len(), data.len());
    }

    #[test]
    fn tiny_class_is_kept_wholesale() {
        let data = Dataset::from_rows(
            vec![vec![0.0], vec![0.1], vec![10.0], vec![10.1], vec![10.2]],
            vec![
                Label::Positive,
                Label::Positive,
                Label::Negative,
                Label::Negative,
                Label::Negative,
            ],
        )
        .unwrap();
        // k=3 exceeds the positive class size (2) — that class is kept.
        let f = KnnDistanceFilter::new(3, 0.5);
        let outcome = f.split(&data).unwrap();
        assert!(outcome.kept_indices.contains(&0));
        assert!(outcome.kept_indices.contains(&1));
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        KnnDistanceFilter::new(0, 0.1);
    }

    #[test]
    fn fraction_is_clamped() {
        let f = KnnDistanceFilter::new(1, 2.0);
        assert!(f.remove_fraction() <= 0.999);
        let f = KnnDistanceFilter::new(1, -1.0);
        assert_eq!(f.remove_fraction(), 0.0);
    }
}
