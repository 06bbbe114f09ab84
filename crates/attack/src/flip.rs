//! Label-flip attack — a classic weak baseline.
//!
//! Copies randomly-chosen genuine points with inverted labels. The
//! copies sit *inside* the data distribution, so distance filters
//! cannot remove them without removing genuine data; but their damage
//! per point is far below the boundary attack's, which is the contrast
//! the ablation bench shows.

use crate::error::AttackError;
use crate::AttackStrategy;
use poisongame_data::Dataset;
use poisongame_linalg::rng::Xoshiro256StarStar;

/// Label-flipping poison generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LabelFlipAttack;

impl LabelFlipAttack {
    /// New label-flip attack.
    pub fn new() -> Self {
        Self
    }
}

impl AttackStrategy for LabelFlipAttack {
    fn generate(
        &self,
        clean: &Dataset,
        n_points: usize,
        rng: &mut Xoshiro256StarStar,
    ) -> Result<Dataset, AttackError> {
        if clean.is_empty() {
            return Err(AttackError::DegenerateCleanData);
        }
        let mut poison = Dataset::empty(clean.dim());
        for _ in 0..n_points {
            let i = (rng.next_raw() % clean.len() as u64) as usize;
            poison.push(clean.point(i), clean.label(i).flipped())?;
        }
        Ok(poison)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poisongame_data::synth::gaussian_blobs;
    use poisongame_data::Label;
    use rand::SeedableRng;

    #[test]
    fn copies_points_with_flipped_labels() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let clean = gaussian_blobs(30, 2, 3.0, 0.5, &mut rng);
        let poison = LabelFlipAttack::new()
            .generate(&clean, 15, &mut rng)
            .unwrap();
        assert_eq!(poison.len(), 15);
        for (x, y) in poison.iter() {
            // Each poison point must be an exact copy of a clean point
            // with the opposite label.
            let found = clean.iter().any(|(cx, cy)| cx == x && cy == y.flipped());
            assert!(found, "poison point is not a flipped copy");
        }
    }

    #[test]
    fn empty_clean_rejected() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        assert!(matches!(
            LabelFlipAttack::new()
                .generate(&Dataset::empty(2), 3, &mut rng)
                .unwrap_err(),
            AttackError::DegenerateCleanData
        ));
    }

    #[test]
    fn deterministic_per_seed() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let clean = gaussian_blobs(20, 2, 3.0, 0.5, &mut rng);
        let mut r1 = Xoshiro256StarStar::seed_from_u64(4);
        let mut r2 = Xoshiro256StarStar::seed_from_u64(4);
        let a = LabelFlipAttack::new().generate(&clean, 8, &mut r1).unwrap();
        let b = LabelFlipAttack::new().generate(&clean, 8, &mut r2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn flips_both_directions_on_balanced_data() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let clean = gaussian_blobs(100, 2, 3.0, 0.5, &mut rng);
        let poison = LabelFlipAttack::new()
            .generate(&clean, 60, &mut rng)
            .unwrap();
        assert!(poison.class_count(Label::Positive) > 10);
        assert!(poison.class_count(Label::Negative) > 10);
    }
}
