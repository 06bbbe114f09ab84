//! Cross-validation over any [`Classifier`].

use crate::error::MlError;
use crate::metrics::ConfusionMatrix;
use crate::model::Classifier;
use poisongame_data::split::{fold_split, k_fold_indices};
use poisongame_data::Dataset;
use poisongame_linalg::stats;
use poisongame_linalg::Xoshiro256StarStar;
use rand::SeedableRng;

/// Result of a k-fold cross-validation run.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossValidation {
    /// Held-out accuracy per fold.
    pub fold_accuracies: Vec<f64>,
    /// Confusion matrix per fold.
    pub fold_confusions: Vec<ConfusionMatrix>,
}

impl CrossValidation {
    /// Mean held-out accuracy.
    pub fn mean_accuracy(&self) -> f64 {
        stats::mean(&self.fold_accuracies)
    }

    /// Standard deviation of held-out accuracy across folds.
    pub fn std_accuracy(&self) -> f64 {
        stats::std_dev(&self.fold_accuracies)
    }
}

/// Run `k`-fold cross-validation, building a fresh model per fold via
/// `make_model`.
///
/// # Errors
///
/// Propagates dataset/fold errors and any training failure.
pub fn cross_validate<C, F>(
    data: &Dataset,
    k: usize,
    seed: u64,
    make_model: F,
) -> Result<CrossValidation, MlError>
where
    C: Classifier,
    F: Fn() -> C,
{
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let folds = k_fold_indices(data, k, &mut rng)?;
    let mut fold_accuracies = Vec::with_capacity(k);
    let mut fold_confusions = Vec::with_capacity(k);
    for fold in 0..k {
        let (train, test) = fold_split(data, &folds, fold);
        let mut model = make_model();
        model.fit(&train)?;
        let preds = model.predict_batch(&test);
        let cm = ConfusionMatrix::from_labels(test.labels(), &preds);
        fold_accuracies.push(cm.accuracy());
        fold_confusions.push(cm);
    }
    Ok(CrossValidation {
        fold_accuracies,
        fold_confusions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TrainConfig;
    use crate::svm::LinearSvm;
    use poisongame_data::synth::gaussian_blobs;

    #[test]
    fn cross_validation_on_separable_data() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(41);
        let data = gaussian_blobs(60, 3, 3.5, 0.5, &mut rng);
        let cv = cross_validate(&data, 4, 7, || {
            LinearSvm::new(TrainConfig {
                epochs: 30,
                ..TrainConfig::default()
            })
        })
        .unwrap();
        assert_eq!(cv.fold_accuracies.len(), 4);
        assert!(cv.mean_accuracy() > 0.9, "mean {}", cv.mean_accuracy());
        assert!(cv.std_accuracy() < 0.2);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(42);
        let data = gaussian_blobs(40, 2, 3.0, 0.5, &mut rng);
        let make = || {
            LinearSvm::new(TrainConfig {
                epochs: 10,
                ..TrainConfig::default()
            })
        };
        let a = cross_validate(&data, 3, 5, make).unwrap();
        let b = cross_validate(&data, 3, 5, make).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn propagates_bad_k() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(43);
        let data = gaussian_blobs(10, 2, 3.0, 0.5, &mut rng);
        assert!(cross_validate(&data, 1, 5, LinearSvm::with_defaults).is_err());
    }
}
