//! Threat model: budget and knowledge assumptions.

use crate::error::AttackError;

/// What the attacker knows when choosing a strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knowledge {
    /// Full knowledge of data, model and the defender's (pure)
    /// strategy — the paper's pure-strategy scenario, where the optimal
    /// attack hugs the filter boundary.
    Full,
    /// Knows the defender's *mixed* strategy distribution but not the
    /// sampled realization — the equilibrium scenario.
    DistributionOnly,
    /// No knowledge of the defense (baseline attacks).
    Oblivious,
}

/// The attacker's capability envelope.
///
/// The paper's experiment: "We assumed that the attacker can manipulate
/// 20% of the training data" → `budget_fraction = 0.2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreatModel {
    /// Fraction of the clean training-set size the attacker may inject.
    pub budget_fraction: f64,
    /// Knowledge level.
    pub knowledge: Knowledge,
}

impl ThreatModel {
    /// The paper's experimental threat model (20 % budget, full
    /// knowledge).
    pub fn paper() -> Self {
        Self {
            budget_fraction: 0.2,
            knowledge: Knowledge::Full,
        }
    }

    /// A validated threat model: the budget fraction is checked once
    /// here instead of on every budget query (the removed historical
    /// `poison_count` re-validated per call).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::BadParameter`] for a fraction outside
    /// `[0, 1]` (or NaN).
    pub fn new(budget_fraction: f64, knowledge: Knowledge) -> Result<Self, AttackError> {
        if !(0.0..=1.0).contains(&budget_fraction) || budget_fraction.is_nan() {
            return Err(AttackError::BadParameter {
                what: "budget_fraction",
                value: budget_fraction,
            });
        }
        Ok(Self {
            budget_fraction,
            knowledge,
        })
    }

    /// Number of poison points for a clean training set of `clean_len`
    /// points (nearest rounding).
    ///
    /// Assumes a valid budget fraction — construct via
    /// [`ThreatModel::new`] to guarantee it. A fraction tampered with
    /// after construction (the fields are public) is clamped to
    /// `[0, 1]` rather than trusted.
    pub fn budget_points(&self, clean_len: usize) -> usize {
        let fraction = if self.budget_fraction.is_nan() {
            0.0
        } else {
            self.budget_fraction.clamp(0.0, 1.0)
        };
        (clean_len as f64 * fraction).round() as usize
    }
}

impl Default for ThreatModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_threat_model() {
        let t = ThreatModel::paper();
        assert_eq!(t.budget_fraction, 0.2);
        assert_eq!(t.budget_points(3220), 644);
    }

    #[test]
    fn zero_budget_allows_nothing() {
        let t = ThreatModel::new(0.0, Knowledge::Oblivious).unwrap();
        assert_eq!(t.budget_points(1000), 0);
    }

    #[test]
    fn construction_rejects_invalid_fractions() {
        for bad in [-0.1, 1.5, f64::NAN] {
            assert!(
                ThreatModel::new(bad, Knowledge::Full).is_err(),
                "{bad} accepted"
            );
        }
        assert!(ThreatModel::new(0.0, Knowledge::Full).is_ok());
        assert!(ThreatModel::new(1.0, Knowledge::Full).is_ok());
    }

    #[test]
    fn rounding_is_nearest() {
        let t = ThreatModel::new(0.1, Knowledge::Full).unwrap();
        assert_eq!(t.budget_points(15), 2); // 1.5 rounds to 2
    }

    #[test]
    fn tampered_fractions_are_clamped_not_trusted() {
        // The fields are public: a fraction mutated past validation is
        // clamped by `budget_points` instead of producing a bogus
        // budget (the contract the removed per-call `poison_count`
        // used to enforce with an error).
        let mut t = ThreatModel::paper();
        t.budget_fraction = 1.5;
        assert_eq!(t.budget_points(10), 10);
        t.budget_fraction = f64::NAN;
        assert_eq!(t.budget_points(10), 0);
    }
}
