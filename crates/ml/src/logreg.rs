//! L2-regularized logistic regression trained by SGD.
//!
//! Used as an ablation baseline for the victim model: the game-theoretic
//! defense does not depend on the SVM specifically, only on the induced
//! accuracy curves.

use crate::error::MlError;
use crate::kernel::BatchScratch;
use crate::loss;
use crate::model::{check_trainable, Classifier, FitKernel, LinearState, TrainConfig};
use poisongame_data::DataView;
use poisongame_linalg::rng::{shuffled_indices, Xoshiro256StarStar};
use poisongame_linalg::vector;
use rand::SeedableRng;

/// Binary logistic regression with L2 regularization.
///
/// # Example
///
/// ```
/// use poisongame_data::synth::gaussian_blobs;
/// use poisongame_linalg::Xoshiro256StarStar;
/// use poisongame_ml::{logreg::LogisticRegression, Classifier, TrainConfig};
/// use rand::SeedableRng;
///
/// let mut rng = Xoshiro256StarStar::seed_from_u64(3);
/// let data = gaussian_blobs(80, 2, 3.0, 0.5, &mut rng);
/// let mut model = LogisticRegression::new(TrainConfig { epochs: 60, ..TrainConfig::default() });
/// model.fit(&data).unwrap();
/// assert!(model.accuracy_on(&data) > 0.95);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticRegression {
    config: TrainConfig,
    weights: Option<Vec<f64>>,
    bias: f64,
}

impl LogisticRegression {
    /// Unfitted model with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Self {
            config,
            weights: None,
            bias: 0.0,
        }
    }

    /// Unfitted model with defaults.
    pub fn with_defaults() -> Self {
        Self::new(TrainConfig::default())
    }

    /// Fitted weights, if trained.
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// Fitted intercept.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Predicted probability of the positive class.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Classifier::decision_function`].
    pub fn predict_proba(&self, x: &[f64]) -> Result<f64, MlError> {
        Ok(loss::sigmoid(self.decision_function(x)?))
    }

    /// The SGD loop, starting from weights at the origin.
    fn fit_impl(&mut self, data: &dyn DataView) -> Result<(), MlError> {
        self.config.validate()?;
        check_trainable(data)?;

        let dim = data.dim();
        let n = data.len();
        let mut w = vec![0.0; dim];
        let mut b = 0.0;
        let mut rng = Xoshiro256StarStar::seed_from_u64(self.config.seed);
        let mut t: u64 = 0;
        let mut scratch = match self.config.kernel {
            FitKernel::Minibatch { batch } => Some((batch, BatchScratch::new(dim, batch.min(n)))),
            FitKernel::RowSgd => None,
        };

        for epoch in 0..self.config.epochs {
            let order = shuffled_indices(n, &mut rng);
            match scratch.as_mut() {
                None => {
                    for &i in &order {
                        t += 1;
                        let eta = self.config.schedule.rate(t);
                        let x = data.point(i);
                        let y = data.label(i).to_signed();
                        let margin = y * (vector::dot(&w, x) + b);
                        // dL/dw = logistic_grad(margin) * y * x + lambda * w
                        let g = loss::logistic_grad(margin) * y;
                        let shrink = 1.0 - eta * self.config.lambda;
                        if shrink > 0.0 {
                            vector::scale(shrink, &mut w);
                        }
                        vector::axpy(-eta * g, x, &mut w);
                        if self.config.fit_bias {
                            b -= eta * g;
                        }
                    }
                }
                Some((batch, scratch)) => {
                    // One schedule step per batch; every row contributes
                    // its logistic gradient, averaged over the batch.
                    for chunk in order.chunks(*batch) {
                        t += 1;
                        let eta = self.config.schedule.rate(t);
                        scratch.gather(data, chunk);
                        scratch.compute_margins(&w, b);
                        let blen = chunk.len() as f64;
                        scratch.picked.clear();
                        scratch.coeffs.clear();
                        let mut grad_sum = 0.0;
                        for j in 0..chunk.len() {
                            let g = loss::logistic_grad(scratch.margins[j]) * scratch.labels[j];
                            scratch.picked.push(j);
                            scratch.coeffs.push(-eta * g / blen);
                            grad_sum += g;
                        }
                        let shrink = 1.0 - eta * self.config.lambda;
                        scratch.apply(if shrink > 0.0 { shrink } else { 1.0 }, &mut w);
                        if self.config.fit_bias {
                            b -= eta * grad_sum / blen;
                        }
                    }
                }
            }
            if !vector::all_finite(&w) || !b.is_finite() {
                return Err(MlError::Diverged { epoch });
            }
        }

        self.weights = Some(w);
        self.bias = if self.config.fit_bias { b } else { 0.0 };
        Ok(())
    }
}

impl Default for LogisticRegression {
    fn default() -> Self {
        Self::with_defaults()
    }
}

impl Classifier for LogisticRegression {
    fn fit(&mut self, data: &dyn DataView) -> Result<(), MlError> {
        self.fit_impl(data)
    }

    fn linear_state(&self) -> Option<LinearState> {
        self.weights.as_ref().map(|w| LinearState {
            weights: w.clone(),
            bias: self.bias,
        })
    }

    fn decision_function(&self, x: &[f64]) -> Result<f64, MlError> {
        let w = self.weights.as_ref().ok_or(MlError::NotFitted)?;
        if x.len() != w.len() {
            return Err(MlError::DimensionMismatch {
                expected: w.len(),
                found: x.len(),
            });
        }
        Ok(vector::dot(w, x) + self.bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poisongame_data::synth::gaussian_blobs;
    use poisongame_data::Dataset;

    fn blobs(seed: u64) -> Dataset {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        gaussian_blobs(100, 3, 3.0, 0.6, &mut rng)
    }

    #[test]
    fn learns_separable_data() {
        let data = blobs(21);
        let mut m = LogisticRegression::new(TrainConfig {
            epochs: 60,
            ..TrainConfig::default()
        });
        m.fit(&data).unwrap();
        assert!(m.accuracy_on(&data) > 0.97);
    }

    #[test]
    fn probabilities_are_calibrated_to_side() {
        let data = blobs(22);
        let mut m = LogisticRegression::new(TrainConfig {
            epochs: 60,
            ..TrainConfig::default()
        });
        m.fit(&data).unwrap();
        for (x, y) in data.iter().take(30) {
            let p = m.predict_proba(x).unwrap();
            assert!((0.0..=1.0).contains(&p));
            if y == poisongame_data::Label::Positive && m.predict(x).unwrap() == y {
                assert!(p > 0.5);
            }
        }
    }

    #[test]
    fn unfitted_errors() {
        let m = LogisticRegression::with_defaults();
        assert!(matches!(
            m.predict_proba(&[1.0]).unwrap_err(),
            MlError::NotFitted
        ));
    }

    #[test]
    fn deterministic_per_seed() {
        let data = blobs(23);
        let cfg = TrainConfig {
            epochs: 30,
            ..TrainConfig::default()
        };
        let mut a = LogisticRegression::new(cfg.clone());
        let mut b = LogisticRegression::new(cfg);
        a.fit(&data).unwrap();
        b.fit(&data).unwrap();
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn rejects_untrainable_sets() {
        let mut m = LogisticRegression::with_defaults();
        assert!(m.fit(&Dataset::empty(2)).is_err());
    }

    #[test]
    fn minibatch_kernel_learns_like_row_sgd() {
        let data = blobs(24);
        let cfg = TrainConfig {
            epochs: 60,
            ..TrainConfig::default()
        };
        let mut row = LogisticRegression::new(cfg.clone());
        row.fit(&data).unwrap();
        let mut mb = LogisticRegression::new(TrainConfig {
            kernel: FitKernel::Minibatch { batch: 16 },
            ..cfg
        });
        mb.fit(&data).unwrap();
        let (ra, ma) = (row.accuracy_on(&data), mb.accuracy_on(&data));
        assert!((ra - ma).abs() <= 0.03, "row {ra} vs minibatch {ma}");
    }
}
