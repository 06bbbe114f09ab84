//! Per-round strategy-update rules: the [`Learner`] trait and every
//! shipped implementation.
//!
//! A learner maintains a mixed strategy over a fixed finite action set
//! and updates it from **full-information feedback**: after each round
//! it observes the payoff every one of its actions would have earned
//! (against the opponent's strategy or realized action — the
//! simulator decides, see [`crate::play::Feedback`]). Learners always
//! *maximize* their own payoff; the simulator negates the defender's
//! feedback so one orientation serves both sides.
//!
//! | learner | update rule | guarantee |
//! |---|---|---|
//! | [`RegretMatching`] | play ∝ positive cumulative regret | external regret `O(√(k/T))` |
//! | [`Hedge`] | exponential weights, anytime step size | external regret `O(√(ln k / T))` |
//! | [`FollowTheLeader`] | best response to cumulative payoffs | fictitious play (no-regret in self-play on zero-sum games) |
//! | [`FixedStrategy`] | never updates | baseline (fixed NE / fixed pure) |
//!
//! In zero-sum self-play, the **time-averaged** strategies of two
//! no-regret learners converge to a Nash equilibrium: the value gap of
//! the averaged profile is at most the sum of the two players' average
//! regrets. That is the bridge back to the paper's Algorithm 1 — the
//! static mixed-strategy NE is exactly what adaptive play converges
//! to (checked in `tests/convergence.rs`).

use crate::error::OnlineError;
use poisongame_sim::jsonio::{self, Json};
use poisongame_theory::{softmax, MixedStrategy};

/// A per-round strategy-update rule over a fixed action set.
///
/// The simulator alternates [`Learner::strategy`] (read the mixed
/// strategy to play this round) and [`Learner::observe`] (feed back
/// the payoff vector of every action, higher = better for this
/// learner).
pub trait Learner {
    /// Stable identifier (used in traces and reports).
    fn name(&self) -> &'static str;

    /// The mixed strategy to play this round (a probability vector
    /// over the action set; maintained as an invariant by every
    /// implementation).
    fn strategy(&self) -> &[f64];

    /// Full-information feedback: `payoffs[a]` is what action `a`
    /// would have earned this round. Updates the strategy for the next
    /// round.
    fn observe(&mut self, payoffs: &[f64]);
}

/// Regret matching (Hart & Mas-Colell 2000): play each action with
/// probability proportional to its positive cumulative regret —
/// uniform while no action has positive regret.
#[derive(Debug, Clone)]
pub struct RegretMatching {
    cumulative_regret: Vec<f64>,
    current: Vec<f64>,
}

impl RegretMatching {
    /// A fresh learner over `n` actions (starts uniform).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "learner needs at least one action");
        Self {
            cumulative_regret: vec![0.0; n],
            current: vec![1.0 / n as f64; n],
        }
    }
}

impl Learner for RegretMatching {
    fn name(&self) -> &'static str {
        "regret_matching"
    }

    fn strategy(&self) -> &[f64] {
        &self.current
    }

    fn observe(&mut self, payoffs: &[f64]) {
        debug_assert_eq!(payoffs.len(), self.current.len());
        let realized: f64 = self.current.iter().zip(payoffs).map(|(p, u)| p * u).sum();
        for (r, &u) in self.cumulative_regret.iter_mut().zip(payoffs) {
            *r += u - realized;
        }
        let positive_sum: f64 = self.cumulative_regret.iter().map(|r| r.max(0.0)).sum();
        if positive_sum > 0.0 {
            for (p, r) in self.current.iter_mut().zip(&self.cumulative_regret) {
                *p = r.max(0.0) / positive_sum;
            }
        } else {
            let uniform = 1.0 / self.current.len() as f64;
            self.current.fill(uniform);
        }
    }
}

/// Hedge (exponential weights) with the anytime step size
/// `η_t = √(8 ln k / t) / range`, where `range` is the payoff spread
/// observed so far — the online counterpart of
/// [`poisongame_theory::solve_multiplicative_weights`], which fixes
/// the horizon up front.
#[derive(Debug, Clone)]
pub struct Hedge {
    log_weights: Vec<f64>,
    current: Vec<f64>,
    t: usize,
    eta: Option<f64>,
    lo: f64,
    hi: f64,
}

impl Hedge {
    /// A fresh learner over `n` actions with the anytime step size.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "learner needs at least one action");
        Self {
            log_weights: vec![0.0; n],
            current: vec![1.0 / n as f64; n],
            t: 0,
            eta: None,
            lo: f64::INFINITY,
            hi: f64::NEG_INFINITY,
        }
    }

    /// Override the anytime step size with a fixed `eta`.
    pub fn with_eta(mut self, eta: f64) -> Self {
        self.eta = Some(eta);
        self
    }
}

impl Learner for Hedge {
    fn name(&self) -> &'static str {
        "hedge"
    }

    fn strategy(&self) -> &[f64] {
        &self.current
    }

    fn observe(&mut self, payoffs: &[f64]) {
        debug_assert_eq!(payoffs.len(), self.current.len());
        self.t += 1;
        for &u in payoffs {
            self.lo = self.lo.min(u);
            self.hi = self.hi.max(u);
        }
        let eta = self.eta.unwrap_or_else(|| {
            let k = self.log_weights.len() as f64;
            let range = (self.hi - self.lo).max(1e-12);
            (8.0 * k.ln().max(1.0) / self.t as f64).sqrt() / range
        });
        for (w, &u) in self.log_weights.iter_mut().zip(payoffs) {
            *w += eta * u;
        }
        // Keep log-weights bounded, exactly like the batch solver.
        let max = self
            .log_weights
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        if max.abs() > 500.0 {
            for w in &mut self.log_weights {
                *w -= max;
            }
        }
        self.current = softmax(&self.log_weights);
    }
}

/// Follow the leader — fictitious play in learner form: best respond
/// to the opponent's empirical play so far, which under
/// full-information feedback is exactly the argmax of the cumulative
/// payoff vector (ties break to the lowest action index). Not
/// no-regret in adversarial environments, but its self-play averages
/// converge on zero-sum games (Robinson 1951) — the online analogue of
/// [`poisongame_theory::solve_fictitious_play`].
#[derive(Debug, Clone)]
pub struct FollowTheLeader {
    cumulative: Vec<f64>,
    current: Vec<f64>,
}

impl FollowTheLeader {
    /// A fresh learner over `n` actions (starts uniform; the first
    /// observation makes it pure).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "learner needs at least one action");
        Self {
            cumulative: vec![0.0; n],
            current: vec![1.0 / n as f64; n],
        }
    }
}

impl Learner for FollowTheLeader {
    fn name(&self) -> &'static str {
        "fictitious_play"
    }

    fn strategy(&self) -> &[f64] {
        &self.current
    }

    fn observe(&mut self, payoffs: &[f64]) {
        debug_assert_eq!(payoffs.len(), self.current.len());
        for (c, &u) in self.cumulative.iter_mut().zip(payoffs) {
            *c += u;
        }
        let mut best = 0;
        for (i, &c) in self.cumulative.iter().enumerate().skip(1) {
            if c > self.cumulative[best] {
                best = i;
            }
        }
        self.current.fill(0.0);
        self.current[best] = 1.0;
    }
}

/// A non-adaptive baseline: plays a fixed mixed strategy forever.
/// Covers both the fixed-NE baseline (the static Algorithm 1 / LP
/// equilibrium replayed each round) and fixed pure strategies.
#[derive(Debug, Clone)]
pub struct FixedStrategy {
    name: &'static str,
    current: Vec<f64>,
}

impl FixedStrategy {
    /// A baseline playing `strategy` (a probability vector) forever.
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError::Game`] for an invalid distribution.
    pub fn new(name: &'static str, strategy: Vec<f64>) -> Result<Self, OnlineError> {
        // Validate through the theory crate's invariants.
        let validated = MixedStrategy::new(strategy)?;
        Ok(Self {
            name,
            current: validated.probabilities().to_vec(),
        })
    }
}

impl Learner for FixedStrategy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn strategy(&self) -> &[f64] {
        &self.current
    }

    fn observe(&mut self, _payoffs: &[f64]) {}
}

/// Runtime-selectable learner choice, carried by online specs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LearnerKind {
    /// [`RegretMatching`] — the default.
    #[default]
    RegretMatching,
    /// [`Hedge`] with the anytime step size.
    Hedge,
    /// [`FollowTheLeader`] (fictitious play).
    FictitiousPlay,
    /// [`FixedStrategy`] replaying the static equilibrium of the
    /// one-shot game each round.
    FixedNe,
    /// [`FixedStrategy`] on one pure action.
    FixedPure {
        /// The action index played every round.
        action: usize,
    },
}

impl LearnerKind {
    /// Short stable name used in traces and JSON (`"type"`).
    pub fn name(&self) -> &'static str {
        match self {
            LearnerKind::RegretMatching => "regret_matching",
            LearnerKind::Hedge => "hedge",
            LearnerKind::FictitiousPlay => "fictitious_play",
            LearnerKind::FixedNe => "fixed_ne",
            LearnerKind::FixedPure { .. } => "fixed_pure",
        }
    }

    /// Whether this kind carries a sublinear-external-regret guarantee
    /// (the kinds whose self-play averages provably converge to the
    /// NE).
    pub fn is_no_regret(&self) -> bool {
        matches!(self, LearnerKind::RegretMatching | LearnerKind::Hedge)
    }

    /// Build the learner for `n_actions` actions. `ne` is this side's
    /// equilibrium strategy of the one-shot game (consumed only by
    /// [`LearnerKind::FixedNe`]).
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError::BadParameter`] for a
    /// [`LearnerKind::FixedPure`] action outside the action set, and
    /// propagates strategy-validation failures.
    pub fn build(
        &self,
        n_actions: usize,
        ne: &MixedStrategy,
    ) -> Result<Box<dyn Learner>, OnlineError> {
        Ok(match *self {
            LearnerKind::RegretMatching => Box::new(RegretMatching::new(n_actions)),
            LearnerKind::Hedge => Box::new(Hedge::new(n_actions)),
            LearnerKind::FictitiousPlay => Box::new(FollowTheLeader::new(n_actions)),
            LearnerKind::FixedNe => {
                Box::new(FixedStrategy::new("fixed_ne", ne.probabilities().to_vec())?)
            }
            LearnerKind::FixedPure { action } => {
                if action >= n_actions {
                    return Err(OnlineError::BadParameter {
                        what: "fixed_pure action",
                        value: action as f64,
                    });
                }
                let mut probs = vec![0.0; n_actions];
                probs[action] = 1.0;
                Box::new(FixedStrategy::new("fixed_pure", probs)?)
            }
        })
    }

    /// JSON form: `{"type": "hedge"}` /
    /// `{"type": "fixed_pure", "action": 2}`.
    pub fn to_json(&self) -> Json {
        match self {
            LearnerKind::FixedPure { action } => Json::obj(vec![
                ("type", Json::str(self.name())),
                ("action", Json::Num(*action as f64)),
            ]),
            _ => Json::obj(vec![("type", Json::str(self.name()))]),
        }
    }

    /// Parse the JSON form produced by [`LearnerKind::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`OnlineError::Spec`] on unknown types or malformed
    /// fields.
    pub fn from_json(value: &Json) -> Result<Self, OnlineError> {
        let spec = |e: poisongame_sim::SimError| OnlineError::Spec(e.to_string());
        let kind = jsonio::spec_type(value, "learner").map_err(spec)?;
        let allowed: &[&str] = if kind == "fixed_pure" {
            &["type", "action"]
        } else {
            &["type"]
        };
        jsonio::check_keys(value, "learner", allowed).map_err(spec)?;
        match kind {
            "regret_matching" => Ok(LearnerKind::RegretMatching),
            "hedge" => Ok(LearnerKind::Hedge),
            "fictitious_play" => Ok(LearnerKind::FictitiousPlay),
            "fixed_ne" => Ok(LearnerKind::FixedNe),
            "fixed_pure" => {
                let action = value.get("action").and_then(Json::as_u64).ok_or_else(|| {
                    OnlineError::Spec("fixed_pure learner needs integer `action`".into())
                })?;
                Ok(LearnerKind::FixedPure {
                    action: action as usize,
                })
            }
            other => Err(OnlineError::Spec(format!("unknown learner type `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_distribution(probs: &[f64]) -> bool {
        probs.iter().all(|&p| (0.0..=1.0).contains(&p))
            && (probs.iter().sum::<f64>() - 1.0).abs() < 1e-9
    }

    #[test]
    fn regret_matching_shifts_mass_to_better_actions() {
        let mut l = RegretMatching::new(3);
        assert!(is_distribution(l.strategy()));
        for _ in 0..50 {
            l.observe(&[1.0, 0.0, -1.0]);
        }
        let s = l.strategy();
        assert!(is_distribution(s));
        assert!(s[0] > 0.9, "best action should dominate: {s:?}");
        assert_eq!(s[2], 0.0, "negative-regret action is dropped");
    }

    #[test]
    fn regret_matching_stays_uniform_without_positive_regret() {
        let mut l = RegretMatching::new(2);
        // Equal payoffs: no action regrets anything.
        l.observe(&[0.5, 0.5]);
        assert_eq!(l.strategy(), &[0.5, 0.5]);
    }

    #[test]
    fn hedge_shifts_mass_and_stays_stable() {
        let mut l = Hedge::new(3);
        for _ in 0..200 {
            l.observe(&[1.0, 0.0, -1.0]);
        }
        let s = l.strategy();
        assert!(is_distribution(s));
        assert!(s[0] > s[1] && s[1] > s[2], "{s:?}");
        // Huge payoffs must not overflow the log weights.
        let mut l = Hedge::new(2).with_eta(10.0);
        for _ in 0..10_000 {
            l.observe(&[100.0, -100.0]);
        }
        assert!(l.strategy().iter().all(|p| p.is_finite()));
        assert!(l.strategy()[0] > 0.999);
    }

    #[test]
    fn follow_the_leader_plays_argmax_with_stable_ties() {
        let mut l = FollowTheLeader::new(3);
        assert!(is_distribution(l.strategy()));
        l.observe(&[0.0, 1.0, 1.0]);
        // Tie between 1 and 2 breaks to the lowest index.
        assert_eq!(l.strategy(), &[0.0, 1.0, 0.0]);
        l.observe(&[0.0, 0.0, 2.0]);
        assert_eq!(l.strategy(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn fixed_strategy_never_moves() {
        let mut l = FixedStrategy::new("fixed_ne", vec![0.25, 0.75]).unwrap();
        l.observe(&[100.0, -100.0]);
        assert_eq!(l.strategy(), &[0.25, 0.75]);
        assert!(FixedStrategy::new("x", vec![0.5, 0.6]).is_err());
    }

    #[test]
    fn kinds_build_and_name() {
        let ne = MixedStrategy::new(vec![0.5, 0.5]).unwrap();
        for kind in [
            LearnerKind::RegretMatching,
            LearnerKind::Hedge,
            LearnerKind::FictitiousPlay,
            LearnerKind::FixedNe,
            LearnerKind::FixedPure { action: 1 },
        ] {
            let learner = kind.build(2, &ne).unwrap();
            assert_eq!(learner.name(), kind.name());
            assert!(is_distribution(learner.strategy()));
        }
        assert!(LearnerKind::FixedPure { action: 5 }.build(2, &ne).is_err());
        assert!(LearnerKind::RegretMatching.is_no_regret());
        assert!(LearnerKind::Hedge.is_no_regret());
        assert!(!LearnerKind::FixedNe.is_no_regret());
    }

    #[test]
    fn fixed_ne_replays_the_equilibrium() {
        let ne = MixedStrategy::new(vec![0.3, 0.7]).unwrap();
        let mut learner = LearnerKind::FixedNe.build(2, &ne).unwrap();
        learner.observe(&[1.0, -1.0]);
        assert_eq!(learner.strategy(), ne.probabilities());
    }

    #[test]
    fn kind_json_round_trips() {
        for kind in [
            LearnerKind::RegretMatching,
            LearnerKind::Hedge,
            LearnerKind::FictitiousPlay,
            LearnerKind::FixedNe,
            LearnerKind::FixedPure { action: 3 },
        ] {
            let json = kind.to_json().render();
            let back = LearnerKind::from_json(&Json::parse(&json).unwrap()).unwrap();
            assert_eq!(back, kind, "{json}");
        }
        assert!(LearnerKind::from_json(&Json::parse(r#"{"type":"warp"}"#).unwrap()).is_err());
        assert!(LearnerKind::from_json(&Json::parse(r#"{"type":"fixed_pure"}"#).unwrap()).is_err());
        assert!(
            LearnerKind::from_json(&Json::parse(r#"{"type":"hedge","x":1}"#).unwrap()).is_err()
        );
    }
}
