//! The deterministic repeated-game simulator and its diagnostics.
//!
//! Two [`Learner`](crate::Learner)s — the attacker maximizing, the defender minimizing
//! — play `T` rounds of the zero-sum game a [`RoundPayoff`] provider
//! scores. Each round both sides read their current mixed strategy,
//! receive full-information feedback, and update. The simulator
//! records convergence diagnostics at checkpoints:
//!
//! * **external regret** per player — how much the best fixed action
//!   in hindsight beats the realized play, averaged per round (the
//!   quantity no-regret learners drive to zero);
//! * **exploitability** of the time-averaged strategy profile — the
//!   total gain available to best-responding deviators (zero exactly
//!   at a Nash equilibrium);
//! * **NE gap** — distance of the averaged profile's value from the
//!   one-shot equilibrium value the reference solver computes; the
//!   repeated game thereby independently validates the static
//!   Algorithm 1 / LP equilibrium.
//!
//! Everything is sequential and seeded: traces are bit-identical for a
//! fixed seed, across machines and across however many worker threads
//! the payoff matrix was prefilled with.

use crate::error::OnlineError;
use crate::learner::LearnerKind;
use crate::payoff::RoundPayoff;
use poisongame_linalg::Xoshiro256StarStar;
use poisongame_sim::jsonio::{self, Json};
use poisongame_theory::{sample_index, MatrixGame, MixedStrategy, SolverKind};
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// What each learner observes per round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Feedback {
    /// The expected payoff of each action against the opponent's
    /// current **mixed** strategy — deterministic, the fastest road to
    /// the equilibrium (the default).
    #[default]
    Expected,
    /// The payoff of each action against the opponent's **realized**
    /// pure action, sampled from their mixed strategy with the
    /// config's seed — the streaming flavor, where each round is one
    /// concrete poisoned batch against one concrete filter.
    Sampled,
}

impl Feedback {
    /// Stable wire name.
    pub fn name(&self) -> &'static str {
        match self {
            Feedback::Expected => "expected",
            Feedback::Sampled => "sampled",
        }
    }

    /// Parse the stable wire name.
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError::Spec`] for an unknown name.
    pub fn from_name(name: &str) -> Result<Self, OnlineError> {
        match name {
            "expected" => Ok(Feedback::Expected),
            "sampled" => Ok(Feedback::Sampled),
            other => Err(OnlineError::Spec(format!("unknown feedback `{other}`"))),
        }
    }
}

/// Configuration of one repeated-game run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlayConfig {
    /// Rounds to play.
    pub rounds: usize,
    /// The attacker's update rule.
    pub attacker: LearnerKind,
    /// The defender's update rule.
    pub defender: LearnerKind,
    /// Per-round feedback mode.
    pub feedback: Feedback,
    /// Seed for [`Feedback::Sampled`] action draws (unused by
    /// [`Feedback::Expected`], but always recorded verbatim in the
    /// trace — feeding a trace's `seed` back here reproduces its run).
    /// The sampling RNG derives from it under a fixed salt, so play
    /// draws never alias data/training streams keyed by the same
    /// master seed.
    pub seed: u64,
    /// Record diagnostics every this many rounds (`0` = auto:
    /// `max(rounds / 16, 1)`); the final round is always a checkpoint.
    pub checkpoint_every: usize,
    /// Solver for the reference one-shot equilibrium the trace's NE
    /// gap is measured against (also feeds
    /// [`LearnerKind::FixedNe`] baselines).
    pub solver: SolverKind,
}

impl Default for PlayConfig {
    fn default() -> Self {
        Self {
            rounds: 2_000,
            attacker: LearnerKind::RegretMatching,
            defender: LearnerKind::RegretMatching,
            feedback: Feedback::Expected,
            seed: 0,
            checkpoint_every: 0,
            solver: SolverKind::Auto,
        }
    }
}

impl PlayConfig {
    fn resolved_checkpoint(&self) -> usize {
        if self.checkpoint_every > 0 {
            self.checkpoint_every
        } else {
            (self.rounds / 16).max(1)
        }
    }
}

/// One diagnostics checkpoint of a repeated-game run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlinePoint {
    /// Rounds played so far.
    pub round: usize,
    /// The attacker's average external regret (clamped at zero).
    pub attacker_regret: f64,
    /// The defender's average external regret (clamped at zero).
    pub defender_regret: f64,
    /// Exploitability of the time-averaged strategy profile.
    pub exploitability: f64,
    /// Value of the time-averaged profile (attacker payoff).
    pub average_value: f64,
    /// `|average_value − ne_value|` — distance to the one-shot
    /// equilibrium.
    pub ne_gap: f64,
}

impl OnlinePoint {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("round", Json::Num(self.round as f64)),
            ("attacker_regret", Json::Num(self.attacker_regret)),
            ("defender_regret", Json::Num(self.defender_regret)),
            ("exploitability", Json::Num(self.exploitability)),
            ("average_value", Json::Num(self.average_value)),
            ("ne_gap", Json::Num(self.ne_gap)),
        ])
    }

    fn from_json(value: &Json) -> Result<Self, OnlineError> {
        let spec = |e: poisongame_sim::SimError| OnlineError::Spec(e.to_string());
        jsonio::check_keys(
            value,
            "online point",
            &[
                "round",
                "attacker_regret",
                "defender_regret",
                "exploitability",
                "average_value",
                "ne_gap",
            ],
        )
        .map_err(spec)?;
        let num = |key: &str| -> Result<f64, OnlineError> {
            let v = value
                .get(key)
                .ok_or_else(|| OnlineError::Spec(format!("online point needs `{key}`")))?;
            jsonio::require_num(v, key).map_err(spec)
        };
        let round = value
            .get("round")
            .ok_or_else(|| OnlineError::Spec("online point needs `round`".into()))
            .and_then(|v| jsonio::require_u64(v, "round").map_err(spec))?;
        Ok(Self {
            round: round as usize,
            attacker_regret: num("attacker_regret")?,
            defender_regret: num("defender_regret")?,
            exploitability: num("exploitability")?,
            average_value: num("average_value")?,
            ne_gap: num("ne_gap")?,
        })
    }
}

/// The serialized record of one repeated-game run: checkpointed
/// convergence diagnostics plus the final time-averaged strategies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineTrace {
    /// Rounds played.
    pub rounds: usize,
    /// The attacker's learner name.
    pub attacker: String,
    /// The defender's learner name.
    pub defender: String,
    /// Feedback mode the run used.
    pub feedback: Feedback,
    /// Seed the run used (drives [`Feedback::Sampled`] draws).
    pub seed: u64,
    /// The one-shot equilibrium value of the same game (reference).
    pub ne_value: f64,
    /// Diagnostics checkpoints in round order (the last one is the
    /// final round).
    pub points: Vec<OnlinePoint>,
    /// The attacker's time-averaged strategy after the final round.
    pub attacker_average: Vec<f64>,
    /// The defender's time-averaged strategy after the final round.
    pub defender_average: Vec<f64>,
}

impl OnlineTrace {
    /// The final checkpoint (always present: `play` records the last
    /// round unconditionally).
    pub fn last(&self) -> &OnlinePoint {
        self.points.last().expect("play always checkpoints the end")
    }

    /// JSON form (floats round-trip bit-exactly via shortest-format
    /// rendering; the seed survives beyond 2^53 as a decimal string).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("rounds", Json::Num(self.rounds as f64)),
            ("attacker", Json::str(&self.attacker)),
            ("defender", Json::str(&self.defender)),
            ("feedback", Json::str(self.feedback.name())),
            ("seed", jsonio::big_u64_to_json(self.seed)),
            ("ne_value", Json::Num(self.ne_value)),
            (
                "points",
                Json::Arr(self.points.iter().map(OnlinePoint::to_json).collect()),
            ),
            ("attacker_average", Json::nums(&self.attacker_average)),
            ("defender_average", Json::nums(&self.defender_average)),
        ])
    }

    /// Render as a compact JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    /// Parse the JSON form produced by [`OnlineTrace::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError::Spec`] on missing or wrongly-typed
    /// fields.
    pub fn from_json(value: &Json) -> Result<Self, OnlineError> {
        let spec = |e: poisongame_sim::SimError| OnlineError::Spec(e.to_string());
        jsonio::check_keys(
            value,
            "online trace",
            &[
                "rounds",
                "attacker",
                "defender",
                "feedback",
                "seed",
                "ne_value",
                "points",
                "attacker_average",
                "defender_average",
            ],
        )
        .map_err(spec)?;
        let field = |key: &str| -> Result<&Json, OnlineError> {
            value
                .get(key)
                .ok_or_else(|| OnlineError::Spec(format!("online trace needs `{key}`")))
        };
        let string = |key: &str| -> Result<String, OnlineError> {
            field(key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| OnlineError::Spec(format!("`{key}` must be a string")))
        };
        let points = field("points")?
            .as_array()
            .ok_or_else(|| OnlineError::Spec("`points` must be an array".into()))?
            .iter()
            .map(OnlinePoint::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if points.is_empty() {
            return Err(OnlineError::Spec("`points` must not be empty".into()));
        }
        Ok(Self {
            rounds: jsonio::require_u64(field("rounds")?, "rounds").map_err(spec)? as usize,
            attacker: string("attacker")?,
            defender: string("defender")?,
            feedback: Feedback::from_name(&string("feedback")?)?,
            seed: jsonio::big_u64(field("seed")?, "seed").map_err(spec)?,
            ne_value: jsonio::require_num(field("ne_value")?, "ne_value").map_err(spec)?,
            points,
            attacker_average: jsonio::num_array(value, "attacker_average").map_err(spec)?,
            defender_average: jsonio::num_array(value, "defender_average").map_err(spec)?,
        })
    }
}

fn normalized(sums: &[f64], t: usize) -> Vec<f64> {
    sums.iter().map(|s| s / t as f64).collect()
}

/// Play `config.rounds` rounds of the game `payoff` scores and return
/// the diagnostics trace.
///
/// The provider's matrix is materialized up front (memoized mode):
/// the one-shot reference equilibrium is solved on it, and every
/// subsequent round is pure matrix-vector work, so long horizons run
/// at solver speed regardless of how expensive a single empirical
/// payoff evaluation is.
///
/// # Errors
///
/// Returns [`OnlineError::BadParameter`] for `rounds == 0`, and
/// propagates payoff materialization, reference-solve and
/// learner-construction failures.
pub fn play(payoff: &mut dyn RoundPayoff, config: &PlayConfig) -> Result<OnlineTrace, OnlineError> {
    if config.rounds == 0 {
        return Err(OnlineError::BadParameter {
            what: "rounds",
            value: 0.0,
        });
    }
    let game = payoff.matrix()?;
    play_on_matrix(&game, config)
}

/// [`play`] against an already-materialized payoff matrix.
///
/// # Errors
///
/// Same conditions as [`play`] minus materialization.
pub fn play_on_matrix(game: &MatrixGame, config: &PlayConfig) -> Result<OnlineTrace, OnlineError> {
    if config.rounds == 0 {
        return Err(OnlineError::BadParameter {
            what: "rounds",
            value: 0.0,
        });
    }
    let (m, n) = game.shape();

    // The one-shot reference: NE value for the gap diagnostic, NE
    // strategies for the fixed-NE baselines.
    let reference = config.solver.instantiate(game).solve(game)?;
    let ne_value = reference.value;

    let mut attacker = config.attacker.build(m, &reference.row_strategy)?;
    let mut defender = config.defender.build(n, &reference.column_strategy)?;
    // Domain separation ("play"): the recorded seed is the caller's
    // verbatim, the sampling stream is salted away from the
    // data/training streams the same master seed drives elsewhere.
    let mut rng = Xoshiro256StarStar::seed_from_u64(config.seed ^ 0x706c_6179);

    let mut x_sum = vec![0.0f64; m];
    let mut y_sum = vec![0.0f64; n];
    let mut attacker_cumulative = vec![0.0f64; m];
    let mut defender_cumulative = vec![0.0f64; n];
    let mut attacker_realized = 0.0f64;
    let mut defender_realized = 0.0f64;

    let checkpoint = config.resolved_checkpoint();
    let mut points = Vec::new();

    for t in 1..=config.rounds {
        let x = attacker.strategy().to_vec();
        let y = defender.strategy().to_vec();

        // Feedback: the payoff vector each side observes this round.
        // The defender's is negated so both learners maximize.
        let (attacker_payoffs, defender_payoffs) = match config.feedback {
            Feedback::Expected => {
                let att = game.row_values_slice(&y)?;
                let def: Vec<f64> = game
                    .column_values_slice(&x)?
                    .into_iter()
                    .map(|v| -v)
                    .collect();
                (att, def)
            }
            Feedback::Sampled => {
                let i = sample_index(&x, &mut rng);
                let j = sample_index(&y, &mut rng);
                let att: Vec<f64> = (0..m).map(|a| game.payoff(a, j)).collect();
                let def: Vec<f64> = (0..n).map(|d| -game.payoff(i, d)).collect();
                (att, def)
            }
        };

        for (s, &p) in x_sum.iter_mut().zip(&x) {
            *s += p;
        }
        for (s, &p) in y_sum.iter_mut().zip(&y) {
            *s += p;
        }
        for (c, &u) in attacker_cumulative.iter_mut().zip(&attacker_payoffs) {
            *c += u;
        }
        for (c, &u) in defender_cumulative.iter_mut().zip(&defender_payoffs) {
            *c += u;
        }
        attacker_realized += x
            .iter()
            .zip(&attacker_payoffs)
            .map(|(p, u)| p * u)
            .sum::<f64>();
        defender_realized += y
            .iter()
            .zip(&defender_payoffs)
            .map(|(p, u)| p * u)
            .sum::<f64>();

        attacker.observe(&attacker_payoffs);
        defender.observe(&defender_payoffs);

        if t % checkpoint == 0 || t == config.rounds {
            let avg_x = MixedStrategy::from_weights(normalized(&x_sum, t))?;
            let avg_y = MixedStrategy::from_weights(normalized(&y_sum, t))?;
            let average_value = game.expected_payoff(&avg_x, &avg_y)?;
            let exploitability = game.exploitability(&avg_x, &avg_y)?;
            let best = |cum: &[f64]| cum.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            points.push(OnlinePoint {
                round: t,
                attacker_regret: ((best(&attacker_cumulative) - attacker_realized) / t as f64)
                    .max(0.0),
                defender_regret: ((best(&defender_cumulative) - defender_realized) / t as f64)
                    .max(0.0),
                exploitability,
                average_value,
                ne_gap: (average_value - ne_value).abs(),
            });
        }
    }

    Ok(OnlineTrace {
        rounds: config.rounds,
        attacker: attacker.name().to_string(),
        defender: defender.name().to_string(),
        feedback: config.feedback,
        seed: config.seed,
        ne_value,
        points,
        attacker_average: normalized(&x_sum, config.rounds),
        defender_average: normalized(&y_sum, config.rounds),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payoff::MatrixPayoff;

    fn pennies() -> MatrixGame {
        MatrixGame::from_rows(&[vec![1.0, -1.0], vec![-1.0, 1.0]]).unwrap()
    }

    fn rps() -> MatrixGame {
        MatrixGame::from_rows(&[
            vec![0.0, -1.0, 1.0],
            vec![1.0, 0.0, -1.0],
            vec![-1.0, 1.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn self_play_converges_on_matching_pennies() {
        let config = PlayConfig {
            rounds: 20_000,
            ..PlayConfig::default()
        };
        let trace = play(&mut MatrixPayoff::new(pennies()), &config).unwrap();
        let last = trace.last();
        assert_eq!(last.round, 20_000);
        assert!(last.ne_gap < 1e-2, "gap {}", last.ne_gap);
        assert!(last.exploitability < 0.05, "expl {}", last.exploitability);
        assert!(last.attacker_regret < 0.05);
        // Averaged strategies near uniform.
        for p in trace.attacker_average.iter().chain(&trace.defender_average) {
            assert!((p - 0.5).abs() < 0.05, "{p}");
        }
        // Regret is non-increasing over the tail of the run.
        let first = &trace.points[0];
        assert!(last.attacker_regret <= first.attacker_regret + 1e-12);
    }

    #[test]
    fn hedge_vs_fictitious_play_converges_on_rps() {
        let config = PlayConfig {
            rounds: 30_000,
            attacker: LearnerKind::Hedge,
            defender: LearnerKind::FictitiousPlay,
            ..PlayConfig::default()
        };
        let trace = play(&mut MatrixPayoff::new(rps()), &config).unwrap();
        assert_eq!(trace.attacker, "hedge");
        assert_eq!(trace.defender, "fictitious_play");
        assert!(trace.last().ne_gap < 2e-2, "gap {}", trace.last().ne_gap);
    }

    #[test]
    fn fixed_ne_baseline_is_already_converged() {
        let config = PlayConfig {
            rounds: 500,
            attacker: LearnerKind::FixedNe,
            defender: LearnerKind::FixedNe,
            ..PlayConfig::default()
        };
        let trace = play(&mut MatrixPayoff::new(pennies()), &config).unwrap();
        assert!(trace.last().ne_gap < 1e-9);
        assert!(trace.last().exploitability < 1e-9);
    }

    #[test]
    fn fixed_pure_attacker_is_exploited() {
        // A pure attacker against an adaptive defender: the defender
        // learns the counter and drives the attacker's value below the
        // equilibrium (for pennies: to the minimum).
        let config = PlayConfig {
            rounds: 5_000,
            attacker: LearnerKind::FixedPure { action: 0 },
            defender: LearnerKind::RegretMatching,
            ..PlayConfig::default()
        };
        let trace = play(&mut MatrixPayoff::new(pennies()), &config).unwrap();
        assert!(
            trace.last().average_value < trace.ne_value - 0.5,
            "adaptive defender should beat a pure attacker: {} vs NE {}",
            trace.last().average_value,
            trace.ne_value
        );
    }

    #[test]
    fn sampled_feedback_is_seeded_and_still_converges() {
        let config = PlayConfig {
            rounds: 60_000,
            feedback: Feedback::Sampled,
            seed: 77,
            ..PlayConfig::default()
        };
        let a = play(&mut MatrixPayoff::new(pennies()), &config).unwrap();
        let b = play(&mut MatrixPayoff::new(pennies()), &config).unwrap();
        assert_eq!(a, b, "same seed, same trace");
        assert!(a.last().ne_gap < 0.05, "gap {}", a.last().ne_gap);
        let other = play(
            &mut MatrixPayoff::new(pennies()),
            &PlayConfig { seed: 78, ..config },
        )
        .unwrap();
        assert_ne!(a, other, "different seed, different sampled trace");
    }

    #[test]
    fn checkpoints_cover_the_run_and_end_on_the_final_round() {
        let config = PlayConfig {
            rounds: 1_000,
            checkpoint_every: 300,
            ..PlayConfig::default()
        };
        let trace = play(&mut MatrixPayoff::new(pennies()), &config).unwrap();
        let rounds: Vec<usize> = trace.points.iter().map(|p| p.round).collect();
        assert_eq!(rounds, vec![300, 600, 900, 1_000]);
    }

    #[test]
    fn zero_rounds_rejected() {
        let config = PlayConfig {
            rounds: 0,
            ..PlayConfig::default()
        };
        assert!(play(&mut MatrixPayoff::new(pennies()), &config).is_err());
    }

    #[test]
    fn trace_json_round_trips_bit_exactly() {
        let config = PlayConfig {
            rounds: 512,
            attacker: LearnerKind::Hedge,
            defender: LearnerKind::RegretMatching,
            feedback: Feedback::Sampled,
            seed: u64::MAX - 3,
            ..PlayConfig::default()
        };
        let trace = play(&mut MatrixPayoff::new(rps()), &config).unwrap();
        let wire = trace.to_json_string();
        let back = OnlineTrace::from_json(&Json::parse(&wire).unwrap()).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.seed, u64::MAX - 3, "big seed survives the wire");
        for (a, b) in back.points.iter().zip(&trace.points) {
            assert_eq!(
                a.average_value.to_bits(),
                b.average_value.to_bits(),
                "floats must survive the wire bit-exactly"
            );
        }
        // Malformed documents are structured errors.
        assert!(OnlineTrace::from_json(&Json::parse("{}").unwrap()).is_err());
        let mut missing_points = trace.to_json();
        if let Json::Obj(fields) = &mut missing_points {
            fields.retain(|(k, _)| k != "points");
        }
        assert!(OnlineTrace::from_json(&missing_points).is_err());
        // A non-integer checkpoint round is rejected, not truncated.
        let mut bad_round = trace.to_json();
        if let Json::Obj(fields) = &mut bad_round {
            for (key, value) in fields.iter_mut() {
                if key == "points" {
                    if let Json::Arr(points) = value {
                        if let Json::Obj(point) = &mut points[0] {
                            for (pk, pv) in point.iter_mut() {
                                if pk == "round" {
                                    *pv = Json::Num(2.5);
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(OnlineTrace::from_json(&bad_round).is_err());
    }

    #[test]
    fn feedback_names_round_trip() {
        for f in [Feedback::Expected, Feedback::Sampled] {
            assert_eq!(Feedback::from_name(f.name()).unwrap(), f);
        }
        assert!(Feedback::from_name("oracle").is_err());
    }
}
