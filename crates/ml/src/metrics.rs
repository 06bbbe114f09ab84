//! Classification metrics.

use poisongame_data::Label;
use std::fmt;

/// 2×2 confusion matrix for binary classification.
///
/// # Example
///
/// ```
/// use poisongame_data::Label::{Negative as N, Positive as P};
/// use poisongame_ml::metrics::ConfusionMatrix;
///
/// let truth = [P, P, N, N];
/// let pred = [P, N, N, P];
/// let cm = ConfusionMatrix::from_labels(&truth, &pred);
/// assert_eq!(cm.true_positives, 1);
/// assert_eq!(cm.accuracy(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConfusionMatrix {
    /// Positive points predicted positive.
    pub true_positives: usize,
    /// Negative points predicted negative.
    pub true_negatives: usize,
    /// Negative points predicted positive.
    pub false_positives: usize,
    /// Positive points predicted negative.
    pub false_negatives: usize,
}

impl ConfusionMatrix {
    /// Tally from parallel truth/prediction slices.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn from_labels(truth: &[Label], predictions: &[Label]) -> Self {
        assert_eq!(
            truth.len(),
            predictions.len(),
            "confusion matrix: length mismatch"
        );
        let mut cm = ConfusionMatrix::default();
        for (&t, &p) in truth.iter().zip(predictions) {
            match (t, p) {
                (Label::Positive, Label::Positive) => cm.true_positives += 1,
                (Label::Negative, Label::Negative) => cm.true_negatives += 1,
                (Label::Negative, Label::Positive) => cm.false_positives += 1,
                (Label::Positive, Label::Negative) => cm.false_negatives += 1,
            }
        }
        cm
    }

    /// Total number of points.
    pub fn total(&self) -> usize {
        self.true_positives + self.true_negatives + self.false_positives + self.false_negatives
    }

    /// Fraction classified correctly (`0.0` when empty).
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        (self.true_positives + self.true_negatives) as f64 / total as f64
    }

    /// Precision of the positive class (`0.0` when no positive
    /// prediction exists).
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            return 0.0;
        }
        self.true_positives as f64 / denom as f64
    }

    /// Recall of the positive class (`0.0` when no positive truth
    /// exists).
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            return 0.0;
        }
        self.true_positives as f64 / denom as f64
    }

    /// Harmonic mean of precision and recall (`0.0` when both are 0).
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            return 0.0;
        }
        2.0 * p * r / (p + r)
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "            pred + | pred -")?;
        writeln!(
            f,
            "  truth + {:>8} | {:>6}",
            self.true_positives, self.false_negatives
        )?;
        write!(
            f,
            "  truth - {:>8} | {:>6}",
            self.false_positives, self.true_negatives
        )
    }
}

/// Convenience accuracy over label slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn accuracy(truth: &[Label], predictions: &[Label]) -> f64 {
    ConfusionMatrix::from_labels(truth, predictions).accuracy()
}

#[cfg(test)]
mod tests {
    use super::*;
    use Label::{Negative as N, Positive as P};

    #[test]
    fn perfect_predictions() {
        let t = [P, N, P];
        let cm = ConfusionMatrix::from_labels(&t, &t);
        assert_eq!(cm.accuracy(), 1.0);
        assert_eq!(cm.precision(), 1.0);
        assert_eq!(cm.recall(), 1.0);
        assert_eq!(cm.f1(), 1.0);
        assert_eq!(cm.total(), 3);
    }

    #[test]
    fn all_wrong() {
        let t = [P, N];
        let p = [N, P];
        let cm = ConfusionMatrix::from_labels(&t, &p);
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.f1(), 0.0);
    }

    #[test]
    fn mixed_case_counts() {
        let truth = [P, P, P, N, N, N];
        let pred = [P, P, N, N, P, N];
        let cm = ConfusionMatrix::from_labels(&truth, &pred);
        assert_eq!(cm.true_positives, 2);
        assert_eq!(cm.false_negatives, 1);
        assert_eq!(cm.false_positives, 1);
        assert_eq!(cm.true_negatives, 2);
        assert!((cm.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((cm.recall() - 2.0 / 3.0).abs() < 1e-12);
        assert!((cm.f1() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_is_all_zero() {
        let cm = ConfusionMatrix::from_labels(&[], &[]);
        assert_eq!(cm.accuracy(), 0.0);
        assert_eq!(cm.precision(), 0.0);
        assert_eq!(cm.recall(), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        ConfusionMatrix::from_labels(&[P], &[P, N]);
    }

    #[test]
    fn display_renders_grid() {
        let cm = ConfusionMatrix::from_labels(&[P, N], &[P, N]);
        let s = cm.to_string();
        assert!(s.contains("pred +"));
        assert!(s.contains("truth -"));
    }

    #[test]
    fn accuracy_helper_matches_matrix() {
        let truth = [P, N, N, P];
        let pred = [P, N, P, P];
        assert_eq!(
            accuracy(&truth, &pred),
            ConfusionMatrix::from_labels(&truth, &pred).accuracy()
        );
    }
}
