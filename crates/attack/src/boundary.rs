//! Boundary attack: optimal single-radius poison placement.
//!
//! The attacker crafts points that carry a *claimed* label `c` but sit
//! as far from class `c`'s centroid as the chosen radius allows, pushed
//! along the direction of the opposite class. Training on such points
//! drags the decision boundary toward the opposite class — the standard
//! optimal poisoning geometry against linear models under distance
//! filtering (cf. Steinhardt et al. 2017). The paper's observation that
//! "we can expect their locations to be near the boundary of the
//! hypersphere with radius `r_i`" is realized exactly: every generated
//! point lies at the target radius (just inside, by a small margin).
//!
//! The radius depends only on the clean data, the anchor and the
//! claimed label, so [`BoundaryAttack::generate`] resolves it once per
//! claimed label (once in all under the default global anchor), on the
//! first point that needs it, rather than once per poison point.

use crate::error::AttackError;
use crate::AttackStrategy;
use poisongame_data::{Dataset, Label};
use poisongame_linalg::rng::standard_normal;
use poisongame_linalg::{stats, vector, Xoshiro256StarStar};

/// How the placement radius is specified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RadiusSpec {
    /// As a *removal percentile* `p ∈ [0, 1)`: the radius below which a
    /// filter removing fraction `p` of the class would just keep the
    /// point. `p = 0` places at the farthest genuine point's radius
    /// (boundary `B` of the paper); larger `p` places deeper inside.
    /// This is the same axis as the paper's Figure 1.
    Percentile(f64),
    /// As an absolute Euclidean distance from the class centroid.
    Absolute(f64),
}

impl RadiusSpec {
    /// Resolve into an absolute radius for the given class of `clean`.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::BadParameter`] for out-of-range
    /// percentiles or negative radii, and
    /// [`AttackError::DegenerateCleanData`] when the class is empty.
    pub fn resolve(
        &self,
        clean: &Dataset,
        label: Label,
        center: &[f64],
    ) -> Result<f64, AttackError> {
        match *self {
            RadiusSpec::Absolute(r) => {
                if r < 0.0 || !r.is_finite() {
                    return Err(AttackError::BadParameter {
                        what: "radius",
                        value: r,
                    });
                }
                Ok(r)
            }
            RadiusSpec::Percentile(p) => {
                if !(0.0..1.0).contains(&p) || p.is_nan() {
                    return Err(AttackError::BadParameter {
                        what: "percentile",
                        value: p,
                    });
                }
                let distances = clean.class_distances(label, center);
                if distances.is_empty() {
                    return Err(AttackError::DegenerateCleanData);
                }
                stats::quantile(&distances, 1.0 - p).map_err(|_| AttackError::DegenerateCleanData)
            }
        }
    }

    /// Resolve against the distance distribution of the *whole*
    /// dataset from a global centroid (the paper's geometry).
    ///
    /// # Errors
    ///
    /// Same conditions as [`RadiusSpec::resolve`].
    pub fn resolve_global(&self, clean: &Dataset, center: &[f64]) -> Result<f64, AttackError> {
        match *self {
            RadiusSpec::Absolute(_) => self.resolve(clean, Label::Positive, center),
            RadiusSpec::Percentile(p) => {
                if !(0.0..1.0).contains(&p) || p.is_nan() {
                    return Err(AttackError::BadParameter {
                        what: "percentile",
                        value: p,
                    });
                }
                let distances = clean.distances(center);
                if distances.is_empty() {
                    return Err(AttackError::DegenerateCleanData);
                }
                stats::quantile(&distances, 1.0 - p).map_err(|_| AttackError::DegenerateCleanData)
            }
        }
    }
}

/// Which centroid the attacker anchors radii on.
///
/// The paper's attacker has full knowledge of the defense, so the
/// default matches the defense's robust (coordinate-median) centroid:
/// a percentile placement then lands at the intended rank of the
/// defender's own distance ordering. The mean variant exists for
/// ablating a less-informed attacker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CentroidKind {
    /// Coordinate-wise median (matches the default defense).
    CoordinateMedian,
    /// Arithmetic mean.
    Mean,
}

/// Compute the centroid of the whole dataset under the given policy.
///
/// # Errors
///
/// Returns [`AttackError::DegenerateCleanData`] if the dataset is
/// empty.
pub fn global_centroid(data: &Dataset, kind: CentroidKind) -> Result<Vec<f64>, AttackError> {
    if data.is_empty() {
        return Err(AttackError::DegenerateCleanData);
    }
    match kind {
        CentroidKind::Mean => Ok(data.features().column_means().expect("non-empty dataset")),
        CentroidKind::CoordinateMedian => {
            let mut center = Vec::with_capacity(data.dim());
            let mut column = Vec::with_capacity(data.len());
            for c in 0..data.dim() {
                column.clear();
                column.extend((0..data.len()).map(|i| data.point(i)[c]));
                center.push(stats::median(&column));
            }
            Ok(center)
        }
    }
}

/// Compute a class centroid under the given policy.
///
/// # Errors
///
/// Returns [`AttackError::DegenerateCleanData`] if the class is empty.
pub fn class_centroid(
    data: &Dataset,
    label: Label,
    kind: CentroidKind,
) -> Result<Vec<f64>, AttackError> {
    let idx = data.class_indices(label);
    if idx.is_empty() {
        return Err(AttackError::DegenerateCleanData);
    }
    match kind {
        CentroidKind::Mean => Ok(data.class_mean(label)?),
        CentroidKind::CoordinateMedian => {
            let mut center = Vec::with_capacity(data.dim());
            let mut column = Vec::with_capacity(idx.len());
            for c in 0..data.dim() {
                column.clear();
                column.extend(idx.iter().map(|&i| data.point(i)[c]));
                center.push(stats::median(&column));
            }
            Ok(center)
        }
    }
}

/// Which point set anchors the placement radius.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnchorScope {
    /// One centroid over the whole training set — matches the paper's
    /// game model and the defense's default global sphere. The default.
    Global,
    /// The claimed class's own centroid (the Paudice et al. per-class
    /// geometry) — kept for ablations.
    PerClass,
}

/// Which label the poison points claim.
///
/// Opposite-label drags on a symmetric dataset cancel each other, so
/// the optimal attack concentrates on one class; `Alternate` is kept
/// for ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetClass {
    /// All poison claims the positive class (pushes the boundary into
    /// negative territory) — the default.
    Positive,
    /// All poison claims the negative class.
    Negative,
    /// Alternate claimed labels point by point.
    Alternate,
}

/// Relative inset from the exact radius, keeping points strictly
/// inside the matching filter.
const INSET: f64 = 1e-3;

/// Relative magnitude of the orthogonal jitter that spreads the poison
/// cloud on the sphere.
const JITTER: f64 = 0.05;

/// Optimal placement of poison points at one radius.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundaryAttack {
    spec: RadiusSpec,
    /// Claimed-label policy (default [`TargetClass::Positive`]).
    target: TargetClass,
    /// Centroid policy (default [`CentroidKind::CoordinateMedian`],
    /// matching the defense).
    centroid: CentroidKind,
    /// Radius anchor (default [`AnchorScope::Global`], matching the
    /// defense).
    anchor: AnchorScope,
}

impl BoundaryAttack {
    /// New attack at the given radius.
    pub fn new(spec: RadiusSpec) -> Self {
        Self {
            spec,
            target: TargetClass::Positive,
            centroid: CentroidKind::CoordinateMedian,
            anchor: AnchorScope::Global,
        }
    }

    /// Override the radius anchor scope.
    pub fn with_anchor(mut self, anchor: AnchorScope) -> Self {
        self.anchor = anchor;
        self
    }

    /// Override the claimed-label policy.
    pub fn with_target(mut self, target: TargetClass) -> Self {
        self.target = target;
        self
    }

    /// Override the centroid policy.
    pub fn with_centroid(mut self, centroid: CentroidKind) -> Self {
        self.centroid = centroid;
        self
    }

    /// The radius specification.
    pub fn spec(&self) -> RadiusSpec {
        self.spec
    }

    /// The placement radius for points claiming `claimed` around
    /// `anchor`, pulled in by the inset.
    fn inset_radius(
        &self,
        clean: &Dataset,
        claimed: Label,
        anchor: &[f64],
    ) -> Result<f64, AttackError> {
        let radius = match self.anchor {
            AnchorScope::Global => self.spec.resolve_global(clean, anchor)?,
            AnchorScope::PerClass => self.spec.resolve(clean, claimed, anchor)?,
        };
        Ok(radius * (1.0 - INSET))
    }
}

impl AttackStrategy for BoundaryAttack {
    fn generate(
        &self,
        clean: &Dataset,
        n_points: usize,
        rng: &mut Xoshiro256StarStar,
    ) -> Result<Dataset, AttackError> {
        if clean.class_count(Label::Positive) == 0 || clean.class_count(Label::Negative) == 0 {
            return Err(AttackError::DegenerateCleanData);
        }
        let dim = clean.dim();
        // Radius anchors use the configured (defense-matching) centroid
        // and scope so a percentile placement lands at the intended
        // rank of the defender's distance ordering. Slots are indexed
        // by claimed label: `[negative, positive]`.
        let global_anchor;
        let class_anchors;
        let anchors: [&[f64]; 2] = match self.anchor {
            AnchorScope::Global => {
                global_anchor = global_centroid(clean, self.centroid)?;
                [&global_anchor, &global_anchor]
            }
            AnchorScope::PerClass => {
                class_anchors = [
                    class_centroid(clean, Label::Negative, self.centroid)?,
                    class_centroid(clean, Label::Positive, self.centroid)?,
                ];
                [&class_anchors[0], &class_anchors[1]]
            }
        };
        // ...while the *push direction* uses the class means, which
        // carry the discriminative geometry even when the robust
        // centroids of the two classes nearly coincide (sparse data).
        let mean_centers = [
            class_centroid(clean, Label::Negative, CentroidKind::Mean)?,
            class_centroid(clean, Label::Positive, CentroidKind::Mean)?,
        ];
        // Inset radius per anchor, resolved on the first point that
        // needs it: one for every point under `Global`, one per claimed
        // label under `PerClass`.
        let mut radii: [Option<f64>; 2] = [None, None];

        let mut poison = Dataset::empty(dim);
        for k in 0..n_points {
            let claimed = match self.target {
                TargetClass::Positive => Label::Positive,
                TargetClass::Negative => Label::Negative,
                TargetClass::Alternate => {
                    if k % 2 == 0 {
                        Label::Positive
                    } else {
                        Label::Negative
                    }
                }
            };
            let c = usize::from(claimed == Label::Positive);
            let (own, own_mean, other_mean) = (anchors[c], &mean_centers[c], &mean_centers[1 - c]);
            let slot = match self.anchor {
                AnchorScope::Global => 0,
                AnchorScope::PerClass => c,
            };
            let r = match radii[slot] {
                Some(r) => r,
                None => *radii[slot].insert(self.inset_radius(clean, claimed, own)?),
            };

            // Base direction: toward the other class (mean geometry).
            let mut dir = vector::sub(other_mean, own_mean);
            if vector::normalize(&mut dir).is_err() {
                // Coincident centroids: any direction works.
                dir = vec![0.0; dim];
                dir[k % dim] = 1.0;
            }
            // Orthogonalized jitter spreads points on the sphere cap.
            let mut noise: Vec<f64> = (0..dim).map(|_| standard_normal(rng)).collect();
            let along = vector::dot(&noise, &dir);
            vector::axpy(-along, &dir, &mut noise);
            let noise_norm = vector::norm2(&noise);
            if noise_norm > 0.0 {
                vector::axpy(JITTER / noise_norm, &noise, &mut dir);
                let _ = vector::normalize(&mut dir);
            }
            let mut point = own.to_vec();
            vector::axpy(r, &dir, &mut point);
            poison.push(&point, claimed)?;
        }
        Ok(poison)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poisongame_data::synth::gaussian_blobs;
    use rand::SeedableRng;

    fn clean(seed: u64) -> Dataset {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        gaussian_blobs(100, 3, 4.0, 0.7, &mut rng)
    }

    #[test]
    fn points_land_at_requested_absolute_radius() {
        let data = clean(1);
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let attack = BoundaryAttack::new(RadiusSpec::Absolute(5.0));
        let poison = attack.generate(&data, 20, &mut rng).unwrap();
        for (x, _) in poison.iter() {
            let center = global_centroid(&data, CentroidKind::CoordinateMedian).unwrap();
            let d = vector::euclidean_distance(x, &center);
            assert!((d - 5.0 * (1.0 - 1e-3)).abs() < 1e-9, "distance {d}");
        }
    }

    #[test]
    fn percentile_radius_respects_distance_distribution() {
        let data = clean(3);
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        // p = 0 → at the farthest genuine point's radius.
        let attack = BoundaryAttack::new(RadiusSpec::Percentile(0.0));
        let poison = attack.generate(&data, 10, &mut rng).unwrap();
        for (x, _) in poison.iter() {
            let center = global_centroid(&data, CentroidKind::CoordinateMedian).unwrap();
            let dists = data.distances(&center);
            let max_genuine = dists.iter().copied().fold(0.0f64, f64::max);
            let d = vector::euclidean_distance(x, &center);
            assert!(d <= max_genuine + 1e-9);
            assert!(
                d > 0.5 * max_genuine,
                "poison too shallow: {d} vs {max_genuine}"
            );
        }
    }

    #[test]
    fn deeper_percentile_means_smaller_radius() {
        let data = clean(5);
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        let shallow = BoundaryAttack::new(RadiusSpec::Percentile(0.05))
            .generate(&data, 4, &mut rng)
            .unwrap();
        let deep = BoundaryAttack::new(RadiusSpec::Percentile(0.4))
            .generate(&data, 4, &mut rng)
            .unwrap();
        let center = global_centroid(&data, CentroidKind::CoordinateMedian).unwrap();
        let d_shallow = vector::euclidean_distance(shallow.point(0), &center);
        let d_deep = vector::euclidean_distance(deep.point(0), &center);
        assert!(d_deep < d_shallow);
    }

    #[test]
    fn default_target_is_all_positive() {
        let data = clean(7);
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        let poison = BoundaryAttack::new(RadiusSpec::Percentile(0.1))
            .generate(&data, 10, &mut rng)
            .unwrap();
        assert_eq!(poison.class_count(Label::Positive), 10);
    }

    #[test]
    fn alternate_target_splits_labels() {
        let data = clean(7);
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        let poison = BoundaryAttack::new(RadiusSpec::Percentile(0.1))
            .with_target(TargetClass::Alternate)
            .generate(&data, 10, &mut rng)
            .unwrap();
        assert_eq!(poison.class_count(Label::Positive), 5);
        assert_eq!(poison.class_count(Label::Negative), 5);
        let neg_only = BoundaryAttack::new(RadiusSpec::Percentile(0.1))
            .with_target(TargetClass::Negative)
            .generate(&data, 4, &mut rng)
            .unwrap();
        assert_eq!(neg_only.class_count(Label::Negative), 4);
    }

    #[test]
    fn poison_points_toward_other_class() {
        let data = clean(9);
        let mut rng = Xoshiro256StarStar::seed_from_u64(10);
        let poison = BoundaryAttack::new(RadiusSpec::Percentile(0.05))
            .generate(&data, 6, &mut rng)
            .unwrap();
        for (x, y) in poison.iter() {
            let own = class_centroid(&data, y, CentroidKind::CoordinateMedian).unwrap();
            let other = class_centroid(&data, y.flipped(), CentroidKind::CoordinateMedian).unwrap();
            // The poison must be closer to the opposite centroid than
            // its own class centroid is.
            let own_to_other = vector::euclidean_distance(&own, &other);
            let poison_to_other = vector::euclidean_distance(x, &other);
            assert!(poison_to_other < own_to_other);
        }
    }

    #[test]
    fn parameter_validation() {
        let data = clean(11);
        let mut rng = Xoshiro256StarStar::seed_from_u64(12);
        for bad in [
            RadiusSpec::Percentile(-0.1),
            RadiusSpec::Percentile(1.0),
            RadiusSpec::Absolute(-2.0),
            RadiusSpec::Absolute(f64::NAN),
        ] {
            let attack = BoundaryAttack::new(bad);
            assert!(
                attack.generate(&data, 2, &mut rng).is_err(),
                "{bad:?} accepted"
            );
        }
    }

    #[test]
    fn degenerate_clean_data_rejected() {
        let single = Dataset::from_rows(
            vec![vec![1.0, 1.0], vec![2.0, 2.0]],
            vec![Label::Positive, Label::Positive],
        )
        .unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(13);
        let attack = BoundaryAttack::new(RadiusSpec::Percentile(0.1));
        assert!(matches!(
            attack.generate(&single, 2, &mut rng).unwrap_err(),
            AttackError::DegenerateCleanData
        ));
    }

    #[test]
    fn poison_helper_appends_and_tracks_indices() {
        let data = clean(14);
        let mut rng = Xoshiro256StarStar::seed_from_u64(15);
        let attack = BoundaryAttack::new(RadiusSpec::Percentile(0.1));
        let (combined, injected) = attack.poison(&data, 12, &mut rng).unwrap();
        assert_eq!(combined.len(), data.len() + 12);
        assert_eq!(injected.len(), 12);
        assert_eq!(injected[0], data.len());
        // Injected rows match a fresh generation? (Different rng state,
        // so just check the prefix is the clean data.)
        assert_eq!(combined.point(0), data.point(0));
    }

    #[test]
    fn zero_points_is_empty_dataset() {
        let data = clean(16);
        let mut rng = Xoshiro256StarStar::seed_from_u64(17);
        let attack = BoundaryAttack::new(RadiusSpec::Percentile(0.1));
        let poison = attack.generate(&data, 0, &mut rng).unwrap();
        assert!(poison.is_empty());
    }
}
