//! Random-noise attack — the weakest baseline: uniformly random
//! feature vectors inside the data's bounding box with random labels.

use crate::error::AttackError;
use crate::AttackStrategy;
use poisongame_data::{Dataset, Label};
use poisongame_linalg::rng::Xoshiro256StarStar;

/// Uniform random poison generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RandomNoiseAttack;

impl RandomNoiseAttack {
    /// New random-noise attack.
    pub fn new() -> Self {
        Self
    }
}

impl AttackStrategy for RandomNoiseAttack {
    fn generate(
        &self,
        clean: &Dataset,
        n_points: usize,
        rng: &mut Xoshiro256StarStar,
    ) -> Result<Dataset, AttackError> {
        if clean.is_empty() {
            return Err(AttackError::DegenerateCleanData);
        }
        let summary = clean.column_summary();
        let mut poison = Dataset::empty(clean.dim());
        for _ in 0..n_points {
            let point: Vec<f64> = summary
                .iter()
                .map(|s| s.min + rng.next_f64() * (s.max - s.min))
                .collect();
            let label = if rng.next_f64() < 0.5 {
                Label::Positive
            } else {
                Label::Negative
            };
            poison.push(&point, label)?;
        }
        Ok(poison)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poisongame_data::synth::gaussian_blobs;
    use rand::SeedableRng;

    #[test]
    fn points_stay_in_bounding_box() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let clean = gaussian_blobs(50, 3, 3.0, 0.5, &mut rng);
        let poison = RandomNoiseAttack::new()
            .generate(&clean, 40, &mut rng)
            .unwrap();
        let summary = clean.column_summary();
        for (x, _) in poison.iter() {
            for (c, &v) in x.iter().enumerate() {
                assert!(v >= summary[c].min - 1e-12 && v <= summary[c].max + 1e-12);
            }
        }
    }

    #[test]
    fn labels_are_roughly_balanced() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let clean = gaussian_blobs(30, 2, 3.0, 0.5, &mut rng);
        let poison = RandomNoiseAttack::new()
            .generate(&clean, 200, &mut rng)
            .unwrap();
        let pos = poison.class_count(Label::Positive);
        assert!(pos > 60 && pos < 140, "positive count {pos}");
    }

    #[test]
    fn empty_clean_rejected() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        assert!(RandomNoiseAttack::new()
            .generate(&Dataset::empty(2), 5, &mut rng)
            .is_err());
    }
}
