//! The serializable description of one empirical online run — the
//! unit the serving protocol ships and the pipeline executes.

use crate::error::OnlineError;
use crate::learner::LearnerKind;
use crate::payoff::validate_grid;
use crate::play::{checkpoint_count, Feedback};
use poisongame_sim::jsonio::{self, Json};

/// The most checkpoints a spec may ask for. A trace holds one
/// [`crate::OnlinePoint`] per checkpoint, so this bounds a trace's
/// memory whatever `rounds` and `checkpoint_every` arrive on the wire;
/// the auto cadence records at most 31.
pub const MAX_CHECKPOINTS: usize = 10_000;

/// An empirical repeated-game run: which learners play, for how long,
/// over which attack-placement × filter-strength action grids. Paired
/// with an [`poisongame_sim::ExperimentConfig`] (dataset, budget,
/// scenario, master seed) it fully determines the run.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineSpec {
    /// Rounds to play.
    pub rounds: usize,
    /// The attacker's update rule.
    pub attacker: LearnerKind,
    /// The defender's update rule.
    pub defender: LearnerKind,
    /// Per-round feedback mode.
    pub feedback: Feedback,
    /// Checkpoint cadence (`0` = auto).
    pub checkpoint_every: usize,
    /// The attacker's action grid: poison placements on the
    /// removal-percentile axis.
    pub placements: Vec<f64>,
    /// The defender's action grid: filter strengths (fraction
    /// removed).
    pub strengths: Vec<f64>,
}

impl Default for OnlineSpec {
    /// Regret-matching self-play for 2000 rounds over a 5 × 5 grid
    /// spanning the paper's operating range.
    fn default() -> Self {
        Self {
            rounds: 2_000,
            attacker: LearnerKind::RegretMatching,
            defender: LearnerKind::RegretMatching,
            feedback: Feedback::Expected,
            checkpoint_every: 0,
            placements: vec![0.01, 0.05, 0.10, 0.20, 0.30],
            strengths: vec![0.0, 0.05, 0.10, 0.20, 0.30],
        }
    }
}

impl OnlineSpec {
    /// Cells of the empirical payoff grid.
    pub fn n_cells(&self) -> usize {
        self.placements.len() * self.strengths.len()
    }

    /// Check the spec before paying for evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError::BadParameter`] for zero rounds, more
    /// than [`MAX_CHECKPOINTS`] checkpoints, or empty / out-of-range
    /// action grids.
    pub fn validate(&self) -> Result<(), OnlineError> {
        if self.rounds == 0 {
            return Err(OnlineError::BadParameter {
                what: "rounds",
                value: 0.0,
            });
        }
        let checkpoints = checkpoint_count(self.rounds, self.checkpoint_every);
        if checkpoints > MAX_CHECKPOINTS {
            return Err(OnlineError::BadParameter {
                what: "checkpoints",
                value: checkpoints as f64,
            });
        }
        validate_grid("placements", &self.placements)?;
        validate_grid("strengths", &self.strengths)?;
        Ok(())
    }

    /// JSON form (every field explicit).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("rounds", Json::Num(self.rounds as f64)),
            ("attacker", self.attacker.to_json()),
            ("defender", self.defender.to_json()),
            ("feedback", Json::str(self.feedback.name())),
            ("checkpoint_every", Json::Num(self.checkpoint_every as f64)),
            ("placements", Json::nums(&self.placements)),
            ("strengths", Json::nums(&self.strengths)),
        ])
    }

    /// Render as a compact JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    /// Parse from a JSON value. Every field is optional and defaults
    /// to [`OnlineSpec::default`] (`{}` is the default run); unknown
    /// keys are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError::Spec`] on unknown keys or wrongly-typed
    /// fields.
    pub fn from_json(value: &Json) -> Result<Self, OnlineError> {
        if !matches!(value, Json::Obj(_)) {
            return Err(OnlineError::Spec(
                "online spec must be a JSON object".into(),
            ));
        }
        let spec = |e: poisongame_sim::SimError| OnlineError::Spec(e.to_string());
        jsonio::check_keys(
            value,
            "online spec",
            &[
                "rounds",
                "attacker",
                "defender",
                "feedback",
                "checkpoint_every",
                "placements",
                "strengths",
            ],
        )
        .map_err(spec)?;
        let mut out = Self::default();
        if let Some(v) = value.get("rounds") {
            out.rounds = jsonio::require_u64(v, "rounds").map_err(spec)? as usize;
        }
        if let Some(v) = value.get("attacker") {
            out.attacker = LearnerKind::from_json(v)?;
        }
        if let Some(v) = value.get("defender") {
            out.defender = LearnerKind::from_json(v)?;
        }
        if let Some(v) = value.get("feedback") {
            let name = v
                .as_str()
                .ok_or_else(|| OnlineError::Spec("`feedback` must be a string".into()))?;
            out.feedback = Feedback::from_name(name)?;
        }
        if let Some(v) = value.get("checkpoint_every") {
            out.checkpoint_every =
                jsonio::require_u64(v, "checkpoint_every").map_err(spec)? as usize;
        }
        if value.get("placements").is_some() {
            out.placements = jsonio::num_array(value, "placements").map_err(spec)?;
        }
        if value.get("strengths").is_some() {
            out.strengths = jsonio::num_array(value, "strengths").map_err(spec)?;
        }
        Ok(out)
    }

    /// Parse from a JSON string (see [`OnlineSpec::from_json`]).
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError::Spec`] on syntax errors or malformed
    /// fields.
    pub fn from_json_str(text: &str) -> Result<Self, OnlineError> {
        let value = Json::parse(text).map_err(|e| OnlineError::Spec(e.to_string()))?;
        Self::from_json(&value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_valid() {
        let spec = OnlineSpec::default();
        assert!(spec.validate().is_ok());
        assert_eq!(spec.n_cells(), 25);
    }

    #[test]
    fn json_round_trips_and_defaults() {
        let spec = OnlineSpec {
            rounds: 512,
            attacker: LearnerKind::Hedge,
            defender: LearnerKind::FixedPure { action: 1 },
            feedback: Feedback::Sampled,
            checkpoint_every: 64,
            placements: vec![0.02, 0.2],
            strengths: vec![0.0, 0.15],
        };
        let wire = spec.to_json_string();
        assert_eq!(OnlineSpec::from_json_str(&wire).unwrap(), spec);
        // Empty document: the default run.
        assert_eq!(
            OnlineSpec::from_json_str("{}").unwrap(),
            OnlineSpec::default()
        );
        // Unknown keys and malformed fields are structured errors.
        assert!(OnlineSpec::from_json_str(r#"{"round": 10}"#).is_err());
        assert!(OnlineSpec::from_json_str(r#"{"rounds": -1}"#).is_err());
        assert!(OnlineSpec::from_json_str(r#"{"feedback": 3}"#).is_err());
        assert!(OnlineSpec::from_json_str(r#"{"attacker": {"type": "warp"}}"#).is_err());
        assert!(OnlineSpec::from_json_str("[]").is_err());
    }

    #[test]
    fn validation_rejects_degenerate_runs() {
        let no_rounds = OnlineSpec {
            rounds: 0,
            ..OnlineSpec::default()
        };
        assert!(no_rounds.validate().is_err());
        let no_placements = OnlineSpec {
            placements: vec![],
            ..OnlineSpec::default()
        };
        assert!(no_placements.validate().is_err());
        let bad_strength = OnlineSpec {
            strengths: vec![1.5],
            ..OnlineSpec::default()
        };
        assert!(bad_strength.validate().is_err());
    }
    #[test]
    fn validation_bounds_the_checkpoint_count() {
        let spec = |rounds: usize, checkpoint_every: usize| OnlineSpec {
            rounds,
            checkpoint_every,
            ..OnlineSpec::default()
        };
        // At the bound, and the auto cadence at any horizon.
        assert!(spec(MAX_CHECKPOINTS, 1).validate().is_ok());
        assert!(spec(20 * MAX_CHECKPOINTS, 20).validate().is_ok());
        assert!(spec(usize::MAX, 0).validate().is_ok());
        // One past it: a partial last cadence counts as a checkpoint.
        assert!(spec(MAX_CHECKPOINTS + 1, 1).validate().is_err());
        assert!(spec(20 * MAX_CHECKPOINTS + 1, 20).validate().is_err());
        // A trillion one-round checkpoints, as parsed from the wire, is
        // a structured rejection naming the count.
        let wire = OnlineSpec::from_json_str(r#"{"rounds":1e12,"checkpoint_every":1}"#).unwrap();
        assert_eq!(
            wire.validate(),
            Err(OnlineError::BadParameter {
                what: "checkpoints",
                value: 1e12,
            })
        );
    }
}
