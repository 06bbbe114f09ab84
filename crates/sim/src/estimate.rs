//! Estimate the game curves `E(p)` and `Γ(p)` from experiments.
//!
//! The paper: "The input of the algorithm, `E(p)` and `Γ(p)`, are
//! approximated using the results in Fig. 1." Concretely:
//!
//! * `Γ(p)` — the clean-data series of Figure 1 gives the accuracy
//!   cost of filtering at strength `p`.
//! * `E(p)` — an unfiltered placement sweep: inject the budget at
//!   position `p` with no filter and divide the accuracy drop by the
//!   budget to get per-point damage.
//!
//! The baseline and every sweep cell are independent and seeded from
//! the master seed alone, so [`estimate_curves_prepared`] runs them as
//! one grid on the worker pool and the estimate is bit-identical at any
//! thread count.

use crate::error::SimError;
use crate::exec::{try_parallel_map, ExecPolicy};
use crate::fig1::Fig1Results;
use crate::jsonio::{self, Json};
use crate::pipeline::{filter_train_eval, run_cell, ExperimentConfig, Prepared};
use poisongame_core::{CostCurve, EffectCurve, PoisonGame};
use poisongame_defense::FilterStrength;
use poisongame_linalg::Xoshiro256StarStar;
use rand::SeedableRng;

/// Curves estimated from experiments, plus the raw samples.
#[derive(Debug, Clone, PartialEq)]
pub struct CurveEstimate {
    /// Fitted per-point damage curve.
    pub effect: EffectCurve,
    /// Fitted genuine-removal cost curve.
    pub cost: CostCurve,
    /// Raw `(placement, per-point damage)` samples.
    pub effect_samples: Vec<(f64, f64)>,
    /// Raw `(strength, accuracy loss)` samples.
    pub cost_samples: Vec<(f64, f64)>,
    /// Clean, unfiltered baseline accuracy.
    pub baseline_accuracy: f64,
    /// Poison budget the effect sweep used.
    pub n_poison: usize,
}

impl CurveEstimate {
    /// Assemble the poisoning game from the estimated curves.
    ///
    /// # Errors
    ///
    /// Propagates game-construction failures (zero budget).
    pub fn game(&self) -> Result<PoisonGame, SimError> {
        Ok(PoisonGame::new(
            self.effect.clone(),
            self.cost.clone(),
            self.n_poison,
        )?)
    }

    /// JSON form: the raw samples plus the shared context. The fitted
    /// curves are *not* shipped — fitting is a deterministic function
    /// of the samples, so [`CurveEstimate::from_json`] refits them and
    /// the round trip is exact.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "effect_samples",
                jsonio::num_pairs_to_json(&self.effect_samples),
            ),
            (
                "cost_samples",
                jsonio::num_pairs_to_json(&self.cost_samples),
            ),
            ("baseline_accuracy", Json::Num(self.baseline_accuracy)),
            ("n_poison", Json::Num(self.n_poison as f64)),
        ])
    }

    /// Render as a compact JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    /// Parse the JSON form produced by [`CurveEstimate::to_json`],
    /// refitting both curves from the shipped samples.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] on missing or wrongly-typed fields
    /// and propagates curve-fitting failures.
    pub fn from_json(value: &Json) -> Result<Self, SimError> {
        jsonio::check_keys(
            value,
            "curve estimate",
            &[
                "effect_samples",
                "cost_samples",
                "baseline_accuracy",
                "n_poison",
            ],
        )?;
        let field = |key: &str| -> Result<&Json, SimError> {
            value
                .get(key)
                .ok_or_else(|| SimError::Spec(format!("curve estimate needs `{key}`")))
        };
        let pairs = |key: &str| jsonio::num_pairs(field(key)?, key);
        let effect_samples = pairs("effect_samples")?;
        let cost_samples = pairs("cost_samples")?;
        Ok(Self {
            effect: EffectCurve::from_samples(&effect_samples)?,
            cost: CostCurve::from_samples(&cost_samples)?,
            effect_samples,
            cost_samples,
            baseline_accuracy: jsonio::require_num(
                field("baseline_accuracy")?,
                "baseline_accuracy",
            )?,
            n_poison: jsonio::require_u64(field("n_poison")?, "n_poison")? as usize,
        })
    }
}

/// Fit `Γ(p)` from an existing Figure 1 sweep (its clean series).
///
/// # Errors
///
/// Propagates curve-fitting failures.
pub fn cost_curve_from_fig1(fig1: &Fig1Results) -> Result<CostCurve, SimError> {
    let base = fig1
        .rows
        .iter()
        .find(|r| r.removed_fraction == 0.0)
        .map(|r| r.accuracy_clean)
        .unwrap_or(fig1.baseline_accuracy);
    let samples: Vec<(f64, f64)> = fig1
        .rows
        .iter()
        .map(|r| (r.removed_fraction, (base - r.accuracy_clean).max(0.0)))
        .collect();
    Ok(CostCurve::from_samples(&samples)?)
}

/// Reject an empty grid, then the first placement and then the first
/// strength outside `[0, 1)`.
pub(crate) fn validate_grids(placements: &[f64], strengths: &[f64]) -> Result<(), SimError> {
    if placements.is_empty() || strengths.is_empty() {
        return Err(SimError::BadParameter {
            what: "grids",
            value: 0.0,
        });
    }
    let out_of_range = |v: f64| !(0.0..1.0).contains(&v) || v.is_nan();
    if let Some(&value) = placements.iter().find(|&&p| out_of_range(p)) {
        return Err(SimError::BadParameter {
            what: "placement",
            value,
        });
    }
    if let Some(&value) = strengths.iter().find(|&&s| out_of_range(s)) {
        return Err(SimError::BadParameter {
            what: "strength",
            value,
        });
    }
    Ok(())
}

/// One independent experiment of the estimate; each yields a held-out
/// accuracy.
#[derive(Clone, Copy)]
enum Cell {
    /// Clean data, no filter.
    Baseline,
    /// The whole budget injected at this placement, no filter.
    Attacked(f64),
    /// Clean data filtered at this strength.
    Clean(f64),
}

/// Run the placement sweep and fit both curves against an
/// already-prepared dataset — the evaluate phase of
/// [`crate::engine::EvalEngine::estimate_curves`].
///
/// `placements` are attack positions for the `E(p)` sweep;
/// `strengths` are filter strengths for the `Γ(p)` sweep. The
/// baseline, one attacked cell per placement and one clean cell per
/// strength run as one grid on `policy`; a strength of `+0.0` reuses
/// the baseline, which is the same cell. Every cell seeds its attack
/// RNG from the master seed alone, so the estimate is bit-identical at
/// any thread count.
///
/// # Errors
///
/// Returns [`SimError::BadParameter`] for an empty grid, a zero poison
/// budget (`budget_fraction`), or a placement or strength outside
/// `[0, 1)`, and propagates pipeline failures.
pub fn estimate_curves_prepared(
    prepared: &Prepared,
    config: &ExperimentConfig,
    placements: &[f64],
    strengths: &[f64],
    policy: &ExecPolicy,
) -> Result<CurveEstimate, SimError> {
    validate_grids(placements, strengths)?;
    // The effect sweep divides by the budget; with no poison points
    // there is no per-point damage to estimate.
    if prepared.n_poison == 0 {
        return Err(SimError::BadParameter {
            what: "budget_fraction",
            value: config.budget_fraction,
        });
    }
    // A clean cell at strength +0.0 is the baseline's filter → fit →
    // eval over again, so it reuses the baseline's accuracy.
    let reuses_baseline = |s: f64| s.to_bits() == 0.0f64.to_bits();
    let cells: Vec<Cell> = std::iter::once(Cell::Baseline)
        .chain(placements.iter().map(|&p| Cell::Attacked(p)))
        .chain(
            strengths
                .iter()
                .filter(|&&s| !reuses_baseline(s))
                .map(|&s| Cell::Clean(s)),
        )
        .collect();
    let clean_accuracy = |s: f64| -> Result<f64, SimError> {
        let outcome = filter_train_eval(
            prepared.train(),
            &[],
            prepared.test(),
            FilterStrength::RemoveFraction(s),
            config,
        )?;
        Ok(outcome.accuracy)
    };
    let accuracies = try_parallel_map(policy, &cells, |_, &cell| match cell {
        Cell::Baseline => clean_accuracy(0.0),
        Cell::Attacked(p) => {
            let mut rng =
                Xoshiro256StarStar::seed_from_u64(config.seed ^ p.to_bits().rotate_left(29));
            let attacked = run_cell(
                prepared,
                &config.scenario,
                p,
                FilterStrength::RemoveFraction(0.0),
                config,
                &mut rng,
            )?;
            Ok(attacked.accuracy)
        }
        Cell::Clean(s) => clean_accuracy(s),
    })?;
    let (baseline, rest) = accuracies.split_first().expect("baseline cell");
    let (attacked, run_clean) = rest.split_at(placements.len());
    let mut run_clean = run_clean.iter();
    let clean: Vec<f64> = strengths
        .iter()
        .map(|&s| {
            if reuses_baseline(s) {
                *baseline
            } else {
                *run_clean.next().expect("one clean cell per other strength")
            }
        })
        .collect();

    // E(p): unfiltered damage per poison point at each placement.
    let effect_samples: Vec<(f64, f64)> = placements
        .iter()
        .zip(attacked)
        .map(|(&p, a)| (p, (baseline - a) / prepared.n_poison as f64))
        .collect();
    // Γ(p): clean accuracy loss at each strength.
    let cost_samples: Vec<(f64, f64)> = strengths
        .iter()
        .zip(&clean)
        .map(|(&s, c)| (s, (baseline - c).max(0.0)))
        .collect();

    let effect = EffectCurve::from_samples(&effect_samples)?;
    let cost = CostCurve::from_samples(&cost_samples)?;
    Ok(CurveEstimate {
        effect,
        cost,
        effect_samples,
        cost_samples,
        baseline_accuracy: *baseline,
        n_poison: prepared.n_poison,
    })
}

/// Default placement grid for the effect sweep.
pub fn default_placements() -> Vec<f64> {
    vec![0.01, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40]
}

/// Default strength grid for the cost sweep (matches Figure 1).
pub fn default_strengths() -> Vec<f64> {
    vec![0.0, 0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EvalEngine;
    use crate::pipeline::DataSource;
    use crate::scenario::Scenario;
    use poisongame_core::SolverKind;
    use poisongame_defense::CentroidEstimator;
    use poisongame_ml::FitKernel;

    fn quick_config() -> ExperimentConfig {
        ExperimentConfig {
            seed: 42,
            source: DataSource::SyntheticSpambase { rows: 600 },
            test_fraction: 0.3,
            budget_fraction: 0.2,
            epochs: 40,
            centroid: CentroidEstimator::CoordinateMedian,
            solver: SolverKind::Auto,
            warm_start: false,
            fit_kernel: FitKernel::RowSgd,
            scenario: Scenario::default(),
        }
    }

    #[test]
    fn curves_have_expected_shape() {
        let est = EvalEngine::new()
            .estimate_curves(&quick_config(), &[0.02, 0.15, 0.35], &[0.0, 0.1, 0.3])
            .unwrap();
        // Effect: boundary placement damages at least as much as deep.
        assert!(est.effect.eval(0.02) >= est.effect.eval(0.35));
        // Boundary placement on separable blobs must do real damage.
        assert!(
            est.effect.eval(0.02) > 0.0,
            "no measurable damage: {:?}",
            est.effect_samples
        );
        // Cost: anchored at zero, non-decreasing.
        assert_eq!(est.cost.eval(0.0), 0.0);
        assert!(est.cost.eval(0.3) >= est.cost.eval(0.1) - 1e-12);
        assert!(est.baseline_accuracy > 0.75);
    }

    #[test]
    fn game_assembles() {
        let est = EvalEngine::new()
            .estimate_curves(&quick_config(), &[0.05, 0.2], &[0.0, 0.2])
            .unwrap();
        let game = est.game().unwrap();
        assert_eq!(game.n_points(), est.n_poison);
    }

    #[test]
    fn estimate_json_round_trips_exactly() {
        let est = EvalEngine::new()
            .estimate_curves(&quick_config(), &[0.05, 0.2], &[0.0, 0.2])
            .unwrap();
        let wire = est.to_json_string();
        let back = CurveEstimate::from_json(&Json::parse(&wire).unwrap()).unwrap();
        // Refitting from the shipped samples reproduces the curves
        // exactly (fitting is deterministic), so equality is full.
        assert_eq!(back, est);
        assert_eq!(
            back.effect.eval(0.1).to_bits(),
            est.effect.eval(0.1).to_bits()
        );
        assert!(CurveEstimate::from_json(&Json::parse("{}").unwrap()).is_err());
        assert!(CurveEstimate::from_json(
            &Json::parse(r#"{"effect_samples":[[0,1,2]],"cost_samples":[],"baseline_accuracy":1,"n_poison":1}"#)
                .unwrap()
        )
        .is_err());
    }

    #[test]
    fn empty_grids_rejected() {
        assert!(EvalEngine::new()
            .estimate_curves(&quick_config(), &[], &[0.1])
            .is_err());
        assert!(EvalEngine::new()
            .estimate_curves(&quick_config(), &[0.1], &[])
            .is_err());
        assert!(EvalEngine::new()
            .estimate_curves(&quick_config(), &[1.5], &[0.1])
            .is_err());
    }

    #[test]
    fn zero_budget_is_a_bad_parameter() {
        let config = ExperimentConfig {
            budget_fraction: 0.0,
            ..quick_config()
        };
        let err = EvalEngine::new()
            .estimate_curves(&config, &[0.05], &[0.0])
            .unwrap_err();
        assert!(
            matches!(
                err,
                SimError::BadParameter {
                    what: "budget_fraction",
                    value
                } if value == 0.0
            ),
            "{err:?}"
        );
    }

    #[test]
    fn cost_curve_from_fig1_uses_clean_series() {
        use crate::fig1::{Fig1Results, Fig1Row};
        let fig1 = Fig1Results {
            rows: vec![
                Fig1Row {
                    removed_fraction: 0.0,
                    accuracy_under_attack: 0.80,
                    accuracy_clean: 0.92,
                    poison_recall: 0.0,
                },
                Fig1Row {
                    removed_fraction: 0.2,
                    accuracy_under_attack: 0.85,
                    accuracy_clean: 0.89,
                    poison_recall: 1.0,
                },
            ],
            baseline_accuracy: 0.92,
            n_poison: 100,
        };
        let cost = cost_curve_from_fig1(&fig1).unwrap();
        assert_eq!(cost.eval(0.0), 0.0);
        assert!((cost.eval(0.2) - 0.03).abs() < 1e-12);
    }

    #[test]
    fn default_grids_are_valid() {
        assert!(!default_placements().is_empty());
        assert!(!default_strengths().is_empty());
        assert!(default_strengths().contains(&0.0));
    }
}
