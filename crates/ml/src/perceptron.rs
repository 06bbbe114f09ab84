//! Averaged perceptron — the simplest linear baseline.

use crate::error::MlError;
use crate::kernel::BatchScratch;
use crate::model::{check_trainable, Classifier, FitKernel, LinearState, TrainConfig};
use poisongame_data::DataView;
use poisongame_linalg::rng::{shuffled_indices, Xoshiro256StarStar};
use poisongame_linalg::vector;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Averaged perceptron (Freund & Schapire voting approximation).
///
/// Only the `epochs`, `seed` and `fit_bias` fields of [`TrainConfig`]
/// are used; the perceptron has no learning rate or regularizer.
///
/// # Example
///
/// ```
/// use poisongame_data::synth::gaussian_blobs;
/// use poisongame_linalg::Xoshiro256StarStar;
/// use poisongame_ml::{perceptron::AveragedPerceptron, Classifier, TrainConfig};
/// use rand::SeedableRng;
///
/// let mut rng = Xoshiro256StarStar::seed_from_u64(4);
/// let data = gaussian_blobs(60, 2, 3.0, 0.5, &mut rng);
/// let mut p = AveragedPerceptron::new(TrainConfig { epochs: 20, ..TrainConfig::default() });
/// p.fit(&data).unwrap();
/// assert!(p.accuracy_on(&data) > 0.9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AveragedPerceptron {
    config: TrainConfig,
    weights: Option<Vec<f64>>,
    bias: f64,
}

impl AveragedPerceptron {
    /// Unfitted perceptron.
    pub fn new(config: TrainConfig) -> Self {
        Self {
            config,
            weights: None,
            bias: 0.0,
        }
    }

    /// Fitted (averaged) weights, if trained.
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// Fitted (averaged) intercept.
    pub fn bias(&self) -> f64 {
        self.bias
    }
}

impl Default for AveragedPerceptron {
    fn default() -> Self {
        Self::new(TrainConfig::default())
    }
}

impl AveragedPerceptron {
    /// The training loop, starting from weights at the origin.
    fn fit_impl(&mut self, data: &dyn DataView) -> Result<(), MlError> {
        if self.config.epochs == 0 {
            return Err(MlError::BadHyperparameter {
                what: "epochs",
                value: 0.0,
            });
        }
        if let FitKernel::Minibatch { batch: 0 } = self.config.kernel {
            return Err(MlError::BadHyperparameter {
                what: "batch",
                value: 0.0,
            });
        }
        check_trainable(data)?;

        let dim = data.dim();
        let n = data.len();
        let mut w = vec![0.0; dim];
        let mut b = 0.0;
        // Accumulators for the average.
        let mut w_sum = vec![0.0; dim];
        let mut b_sum = 0.0;
        let mut rng = Xoshiro256StarStar::seed_from_u64(self.config.seed);
        let mut scratch = match self.config.kernel {
            FitKernel::Minibatch { batch } => Some((batch, BatchScratch::new(dim, batch.min(n)))),
            FitKernel::RowSgd => None,
        };

        for _ in 0..self.config.epochs {
            let order = shuffled_indices(n, &mut rng);
            match scratch.as_mut() {
                None => {
                    for &i in &order {
                        let x = data.point(i);
                        let y = data.label(i).to_signed();
                        if y * (vector::dot(&w, x) + b) <= 0.0 {
                            vector::axpy(y, x, &mut w);
                            if self.config.fit_bias {
                                b += y;
                            }
                        }
                        vector::axpy(1.0, &w, &mut w_sum);
                        b_sum += b;
                    }
                }
                Some((batch, scratch)) => {
                    // Batch variant: every mistake in the batch is
                    // judged against the *same* incoming weights, and
                    // the running average advances once per batch
                    // (weighted by the batch length) instead of once
                    // per row — a documented approximation of the
                    // row-at-a-time Freund–Schapire average.
                    for chunk in order.chunks(*batch) {
                        scratch.gather(data, chunk);
                        scratch.compute_margins(&w, b);
                        scratch.picked.clear();
                        scratch.coeffs.clear();
                        let mut bias_step = 0.0;
                        for j in 0..chunk.len() {
                            if scratch.margins[j] <= 0.0 {
                                let y = scratch.labels[j];
                                scratch.picked.push(j);
                                scratch.coeffs.push(y);
                                bias_step += y;
                            }
                        }
                        scratch.apply(1.0, &mut w);
                        if self.config.fit_bias {
                            b += bias_step;
                        }
                        vector::axpy(chunk.len() as f64, &w, &mut w_sum);
                        b_sum += chunk.len() as f64 * b;
                    }
                }
            }
        }

        let total = (self.config.epochs * n) as f64;
        vector::scale(1.0 / total, &mut w_sum);
        self.weights = Some(w_sum);
        self.bias = if self.config.fit_bias {
            b_sum / total
        } else {
            0.0
        };
        Ok(())
    }
}

impl Classifier for AveragedPerceptron {
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

    #[test]
    fn learns_separable_data() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(31);
        let data = gaussian_blobs(80, 3, 3.5, 0.5, &mut rng);
        let mut p = AveragedPerceptron::new(TrainConfig {
            epochs: 25,
            ..TrainConfig::default()
        });
        p.fit(&data).unwrap();
        assert!(p.accuracy_on(&data) > 0.95);
    }

    #[test]
    fn averaging_produces_nonzero_weights() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(32);
        let data = gaussian_blobs(40, 2, 3.0, 0.5, &mut rng);
        let mut p = AveragedPerceptron::default();
        p.fit(&data).unwrap();
        assert!(p.weights().unwrap().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn unfitted_errors() {
        let p = AveragedPerceptron::default();
        assert!(matches!(
            p.decision_function(&[0.0, 0.0]).unwrap_err(),
            MlError::NotFitted
        ));
    }

    #[test]
    fn zero_epochs_rejected() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(33);
        let data = gaussian_blobs(10, 2, 3.0, 0.5, &mut rng);
        let mut p = AveragedPerceptron::new(TrainConfig {
            epochs: 0,
            ..TrainConfig::default()
        });
        assert!(p.fit(&data).is_err());
    }

    #[test]
    fn deterministic_per_seed() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(34);
        let data = gaussian_blobs(40, 2, 3.0, 0.5, &mut rng);
        let cfg = TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        };
        let mut a = AveragedPerceptron::new(cfg.clone());
        let mut b = AveragedPerceptron::new(cfg);
        a.fit(&data).unwrap();
        b.fit(&data).unwrap();
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn minibatch_kernel_learns_like_row_sgd() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(35);
        let data = gaussian_blobs(80, 3, 3.5, 0.5, &mut rng);
        let cfg = TrainConfig {
            epochs: 25,
            ..TrainConfig::default()
        };
        let mut row = AveragedPerceptron::new(cfg.clone());
        row.fit(&data).unwrap();
        let mut mb = AveragedPerceptron::new(TrainConfig {
            kernel: FitKernel::Minibatch { batch: 16 },
            ..cfg
        });
        mb.fit(&data).unwrap();
        let (ra, ma) = (row.accuracy_on(&data), mb.accuracy_on(&data));
        assert!((ra - ma).abs() <= 0.05, "row {ra} vs minibatch {ma}");
        assert!(matches!(
            AveragedPerceptron::new(TrainConfig {
                kernel: FitKernel::Minibatch { batch: 0 },
                ..TrainConfig::default()
            })
            .fit(&data)
            .unwrap_err(),
            MlError::BadHyperparameter { what: "batch", .. }
        ));
    }
}
