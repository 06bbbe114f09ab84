//! Validated mixed strategies and solver solutions.

use crate::error::GameError;
use poisongame_linalg::Xoshiro256StarStar;
use std::fmt;

/// Tolerance for probability-sum validation.
const SUM_TOLERANCE: f64 = 1e-6;

/// A probability distribution over a finite action set.
///
/// Invariants (enforced at construction): every entry is finite and
/// non-negative, and the entries sum to 1 (inputs within `1e-6` of 1
/// are renormalized exactly).
///
/// # Example
///
/// ```
/// use poisongame_theory::MixedStrategy;
///
/// let s = MixedStrategy::new(vec![0.25, 0.75]).unwrap();
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.support(), vec![0, 1]);
/// assert!(MixedStrategy::new(vec![0.5, -0.5]).is_err());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MixedStrategy {
    probabilities: Vec<f64>,
}

impl MixedStrategy {
    /// Validate and (lightly) renormalize a probability vector.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidDistribution`] for empty input,
    /// negative/non-finite entries, or a sum farther than `1e-6` from 1.
    pub fn new(probabilities: Vec<f64>) -> Result<Self, GameError> {
        if probabilities.is_empty() {
            return Err(GameError::InvalidDistribution {
                message: "empty probability vector".into(),
            });
        }
        for (i, &p) in probabilities.iter().enumerate() {
            if !p.is_finite() || p < 0.0 {
                return Err(GameError::InvalidDistribution {
                    message: format!("entry {i} is {p}"),
                });
            }
        }
        let sum: f64 = probabilities.iter().sum();
        if (sum - 1.0).abs() > SUM_TOLERANCE {
            return Err(GameError::InvalidDistribution {
                message: format!("probabilities sum to {sum}"),
            });
        }
        let mut normalized = probabilities;
        for p in &mut normalized {
            *p /= sum;
        }
        Ok(Self {
            probabilities: normalized,
        })
    }

    /// Normalize an arbitrary non-negative weight vector into a
    /// strategy.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidDistribution`] if weights are empty,
    /// negative, non-finite, or all zero.
    pub fn from_weights(weights: Vec<f64>) -> Result<Self, GameError> {
        let sum: f64 = weights.iter().sum();
        if sum <= 0.0 || !sum.is_finite() {
            return Err(GameError::InvalidDistribution {
                message: format!("weights sum to {sum}"),
            });
        }
        Self::new(weights.iter().map(|w| w / sum).collect())
    }

    /// The uniform distribution over `n` actions.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "uniform strategy needs at least one action");
        Self {
            probabilities: vec![1.0 / n as f64; n],
        }
    }

    /// The pure strategy playing action `index` among `n`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= n`.
    pub fn pure(index: usize, n: usize) -> Self {
        assert!(index < n, "pure strategy index out of range");
        let mut probabilities = vec![0.0; n];
        probabilities[index] = 1.0;
        Self { probabilities }
    }

    /// Number of actions.
    pub fn len(&self) -> usize {
        self.probabilities.len()
    }

    /// A strategy is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Probability of action `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn prob(&self, i: usize) -> f64 {
        self.probabilities[i]
    }

    /// The full probability vector.
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// Indices with probability above `1e-9`.
    pub fn support(&self) -> Vec<usize> {
        self.probabilities
            .iter()
            .enumerate()
            .filter_map(|(i, &p)| (p > 1e-9).then_some(i))
            .collect()
    }

    /// True if exactly one action has all the probability mass.
    pub fn is_pure(&self) -> bool {
        self.support().len() == 1
    }

    /// Shannon entropy in nats (`0` for pure strategies).
    pub fn entropy(&self) -> f64 {
        -self
            .probabilities
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| p * p.ln())
            .sum::<f64>()
    }

    /// Sample an action index.
    pub fn sample(&self, rng: &mut Xoshiro256StarStar) -> usize {
        sample_index(&self.probabilities, rng)
    }

    /// Total-variation distance to another strategy of the same size.
    ///
    /// # Panics
    ///
    /// Panics on size mismatch.
    pub fn total_variation(&self, other: &MixedStrategy) -> f64 {
        assert_eq!(self.len(), other.len(), "strategy size mismatch");
        0.5 * self
            .probabilities
            .iter()
            .zip(other.probabilities())
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
    }
}

impl fmt::Display for MixedStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cells: Vec<String> = self
            .probabilities
            .iter()
            .map(|p| format!("{:.3}", p))
            .collect();
        write!(f, "[{}]", cells.join(", "))
    }
}

/// Sample an index from a probability slice by walking the CDF
/// (falling back to the last index if accumulated rounding leaves the
/// draw above the cumulative sum). The one categorical sampler shared
/// by [`MixedStrategy::sample`] and the online play loop.
///
/// # Panics
///
/// Panics if `probs` is empty.
pub fn sample_index(probs: &[f64], rng: &mut Xoshiro256StarStar) -> usize {
    assert!(!probs.is_empty(), "cannot sample from an empty slice");
    let u = rng.next_f64();
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if u < acc {
            return i;
        }
    }
    probs.len() - 1
}

/// A solved zero-sum game: both equilibrium strategies and the value.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Row (maximizer) equilibrium strategy.
    pub row_strategy: MixedStrategy,
    /// Column (minimizer) equilibrium strategy.
    pub column_strategy: MixedStrategy,
    /// Game value (expected payoff at equilibrium).
    pub value: f64,
    /// Iterations used (1 for exact solvers).
    pub iterations: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn new_validates_and_renormalizes() {
        let s = MixedStrategy::new(vec![0.5, 0.5000001]).unwrap();
        let sum: f64 = s.probabilities().iter().sum();
        assert!((sum - 1.0).abs() < 1e-15);
        assert!(MixedStrategy::new(vec![]).is_err());
        assert!(MixedStrategy::new(vec![0.5, 0.6]).is_err());
        assert!(MixedStrategy::new(vec![1.5, -0.5]).is_err());
        assert!(MixedStrategy::new(vec![f64::NAN, 1.0]).is_err());
    }

    #[test]
    fn from_weights_normalizes() {
        let s = MixedStrategy::from_weights(vec![2.0, 6.0]).unwrap();
        assert!((s.prob(0) - 0.25).abs() < 1e-15);
        assert!(MixedStrategy::from_weights(vec![0.0, 0.0]).is_err());
        assert!(MixedStrategy::from_weights(vec![-1.0, 2.0]).is_err());
    }

    #[test]
    fn uniform_and_pure() {
        let u = MixedStrategy::uniform(4);
        assert!(u.probabilities().iter().all(|&p| (p - 0.25).abs() < 1e-15));
        let p = MixedStrategy::pure(2, 4);
        assert!(p.is_pure());
        assert_eq!(p.support(), vec![2]);
        assert!(!u.is_pure());
    }

    #[test]
    #[should_panic(expected = "at least one action")]
    fn uniform_zero_panics() {
        MixedStrategy::uniform(0);
    }

    #[test]
    fn entropy_bounds() {
        assert_eq!(MixedStrategy::pure(0, 3).entropy(), 0.0);
        let u = MixedStrategy::uniform(3);
        assert!((u.entropy() - 3.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn sampling_respects_distribution() {
        let s = MixedStrategy::new(vec![0.2, 0.8]).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(55);
        let n = 20_000;
        let ones = (0..n).filter(|_| s.sample(&mut rng) == 1).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.8).abs() < 0.02, "sampled fraction {frac}");
    }

    #[test]
    fn sampling_pure_always_same() {
        let s = MixedStrategy::pure(1, 3);
        let mut rng = Xoshiro256StarStar::seed_from_u64(56);
        for _ in 0..100 {
            assert_eq!(s.sample(&mut rng), 1);
        }
    }

    #[test]
    fn total_variation_properties() {
        let a = MixedStrategy::new(vec![1.0, 0.0]).unwrap();
        let b = MixedStrategy::new(vec![0.0, 1.0]).unwrap();
        assert_eq!(a.total_variation(&b), 1.0);
        assert_eq!(a.total_variation(&a), 0.0);
    }

    #[test]
    fn display_is_compact() {
        let s = MixedStrategy::new(vec![0.5, 0.5]).unwrap();
        assert_eq!(s.to_string(), "[0.500, 0.500]");
    }
}
