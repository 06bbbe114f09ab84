//! Algorithm 1 of the paper: approximate the defender's mixed-strategy
//! NE with a fixed support size.
//!
//! The algorithm alternates a closed-form step with a numerical one,
//! exactly as in the paper's pseudocode:
//!
//! 1. `findPercentage(Sr)` — given the current support radii, compute
//!    the unique probabilities equalizing the attacker's gain
//!    ([`crate::ne::find_percentage`]).
//! 2. Evaluate the defender's loss
//!    `f(Sr) = N·E(p_min_radius) + Σ_i pdf_i·Γ(p_i)` (the paper uses an
//!    integral; with finite support it is this sum).
//! 3. Move the support by (finite-difference) gradient descent on `f`
//!    and repeat until the improvement falls below the threshold `ε`.
//!
//! The support is kept inside the *profitable zone* (`E(p) > 0`): the
//! paper's proof shows no rational defender mixes mass where the
//! attacker would never place.

use crate::error::CoreError;
use crate::game_model::PoisonGame;
use crate::ne::find_percentage;
use crate::strategy::DefenderMixedStrategy;
use poisongame_linalg::numeric::{projected_gradient_descent, DescentConfig};
use poisongame_theory::SolverKind;

/// Configuration for [`Algorithm1`].
#[derive(Debug, Clone, PartialEq)]
pub struct Algorithm1Config {
    /// Number of filter strengths in the mixed strategy (the paper's
    /// input `n`; Table 1 reports `n = 2` and `n = 3`).
    pub n_radii: usize,
    /// Convergence threshold `ε` on the loss improvement.
    pub tolerance: f64,
    /// Iteration cap for the gradient descent.
    pub max_iterations: usize,
    /// Initial gradient step size (percentile units).
    pub step: f64,
    /// Feasible percentile range for support points.
    pub bounds: (f64, f64),
    /// Minimum separation between adjacent support points.
    pub min_separation: f64,
    /// Matrix-game solver used wherever the algorithm consults the
    /// discretized game (currently the warm start; see
    /// [`Self::warm_start`]).
    pub solver: SolverKind,
    /// Seed the descent from the discretized game's defender NE
    /// (solved with [`Self::solver`]) instead of an evenly spaced
    /// support — kept only when the objective scores it no worse than
    /// the even spread. Off by default: the even start is the paper's
    /// `chooseInitialRadius(n)`.
    pub warm_start: bool,
}

impl Default for Algorithm1Config {
    fn default() -> Self {
        Self {
            n_radii: 3,
            tolerance: 1e-8,
            max_iterations: 400,
            step: 0.02,
            bounds: (0.005, 0.5),
            min_separation: 2e-3,
            solver: SolverKind::Auto,
            warm_start: false,
        }
    }
}

/// Output of [`Algorithm1::solve`].
#[derive(Debug, Clone, PartialEq)]
pub struct Algorithm1Result {
    /// The approximate-NE defender strategy `M_d`.
    pub strategy: DefenderMixedStrategy,
    /// The defender's loss `U_d(M_d, ·)` against a best-responding
    /// attacker — the algorithm's second output.
    pub defender_loss: f64,
    /// The attacker's per-point equilibrium gain.
    pub attacker_gain: f64,
    /// Gradient-descent iterations executed.
    pub iterations: usize,
    /// Whether the `ε` threshold was met before the cap.
    pub converged: bool,
    /// Loss after each accepted step (for convergence plots).
    pub trace: Vec<f64>,
}

/// The solver.
#[derive(Debug, Clone, PartialEq)]
pub struct Algorithm1 {
    config: Algorithm1Config,
}

impl Algorithm1 {
    /// New solver with the given configuration.
    pub fn new(config: Algorithm1Config) -> Self {
        Self { config }
    }

    /// New solver with the default configuration and the given support
    /// size.
    pub fn with_support_size(n_radii: usize) -> Self {
        Self::new(Algorithm1Config {
            n_radii,
            ..Algorithm1Config::default()
        })
    }

    /// The configuration.
    pub fn config(&self) -> &Algorithm1Config {
        &self.config
    }

    /// Evenly spaced initial support inside the feasible zone — the
    /// paper's `chooseInitialRadius(n)`.
    fn initial_support(&self, lo: f64, hi: f64) -> Vec<f64> {
        let n = self.config.n_radii;
        (0..n)
            .map(|k| lo + (hi - lo) * (k as f64 + 0.5) / n as f64)
            .collect()
    }

    /// Initial support seeded from the discretized game's defender NE,
    /// solved with the configured [`SolverKind`]. Falls back to `None`
    /// (caller uses the even start) if the discretized solve fails or
    /// cannot fill the requested support size.
    fn warm_start_support(&self, game: &PoisonGame, lo: f64, hi: f64) -> Option<Vec<f64>> {
        let n = self.config.n_radii;
        let sep = self.config.min_separation;
        let resolution = (n * 8).clamp(24, 96);
        // Coarse budget: seeding only needs a rough equilibrium, and a
        // bounded solve keeps a hard game from stalling every cell.
        let sol =
            crate::bridge::solve_discretized_coarse(game, resolution, self.config.solver).ok()?;
        // Keep the n heaviest support points of the grid NE.
        let mut pairs = sol.defender_strategy.support_pairs();
        pairs.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite mass"));
        pairs.truncate(n);
        let mut pts: Vec<f64> = pairs.iter().map(|&(p, _)| p.clamp(lo, hi)).collect();
        pts.sort_by(|a, b| a.partial_cmp(b).expect("finite percentiles"));
        pts.dedup_by(|a, b| (*a - *b).abs() < sep);
        // Pad from the even grid if the grid NE mixes fewer points.
        for candidate in self.initial_support(lo, hi) {
            if pts.len() >= n {
                break;
            }
            if pts.iter().all(|&p| (p - candidate).abs() >= sep) {
                pts.push(candidate);
            }
        }
        pts.sort_by(|a, b| a.partial_cmp(b).expect("finite percentiles"));
        (pts.len() == n).then_some(pts)
    }

    /// Run the algorithm.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadParameter`] for a zero support size or
    /// an empty feasible zone, and propagates descent failures.
    pub fn solve(&self, game: &PoisonGame) -> Result<Algorithm1Result, CoreError> {
        if self.config.n_radii == 0 {
            return Err(CoreError::BadParameter {
                what: "n_radii",
                value: 0.0,
            });
        }
        let (lo, mut hi) = self.config.bounds;
        if !(0.0 <= lo && lo < hi && hi < 1.0) {
            return Err(CoreError::BadParameter {
                what: "bounds",
                value: hi,
            });
        }
        // Clip the feasible zone to where poisoning is profitable.
        if let Some(threshold) = game.effect().profit_threshold() {
            hi = hi.min(threshold - self.config.min_separation);
        }
        let needed = self.config.min_separation * (self.config.n_radii as f64 + 1.0);
        if hi <= lo + needed {
            // The attacker never profits (or the zone is too thin for
            // the requested support): the defender's NE is "no filter".
            let strategy = DefenderMixedStrategy::pure(0.0)?;
            let attacker_gain = strategy.attacker_gain(game.effect());
            let defender_loss = strategy.defender_loss(game.effect(), game.cost(), game.n_points());
            return Ok(Algorithm1Result {
                strategy,
                defender_loss,
                attacker_gain,
                iterations: 0,
                converged: true,
                trace: vec![defender_loss],
            });
        }

        let sep = self.config.min_separation;
        let effect = game.effect().clone();
        let cost = game.cost().clone();
        let n_points = game.n_points() as f64;

        // Objective: f(Sr) = N·E(p_deepest) + Σ q_i·Γ(p_i) with q from
        // findPercentage. Infeasible supports (outside the profitable
        // zone after projection) are penalized.
        let objective = move |sr: &[f64]| -> f64 {
            match find_percentage(sr, &effect) {
                Ok(q) => {
                    let deepest = *sr.last().expect("non-empty support");
                    let damage = n_points * effect.eval(deepest).max(0.0);
                    let removal_cost: f64 =
                        sr.iter().zip(&q).map(|(&p, &qi)| qi * cost.eval(p)).sum();
                    damage + removal_cost
                }
                Err(_) => f64::INFINITY,
            }
        };

        // Projection: clamp into [lo, hi], sort ascending, and enforce
        // the minimum separation with a forward/backward sweep.
        let project = move |sr: &[f64]| -> Vec<f64> {
            let mut p: Vec<f64> = sr.iter().map(|v| v.clamp(lo, hi)).collect();
            p.sort_by(|a, b| a.partial_cmp(b).expect("finite percentiles"));
            for i in 1..p.len() {
                if p[i] < p[i - 1] + sep {
                    p[i] = p[i - 1] + sep;
                }
            }
            // Backward sweep keeps the deepest point inside `hi`.
            let last = p.len() - 1;
            if p[last] > hi {
                p[last] = hi;
            }
            for i in (0..last).rev() {
                if p[i] > p[i + 1] - sep {
                    p[i] = p[i + 1] - sep;
                }
            }
            p
        };

        let x0 = if self.config.warm_start {
            match self.warm_start_support(game, lo, hi) {
                // Keep whichever seed the objective already prefers:
                // on noisy estimated curves the grid NE can collapse
                // toward a poor basin, and the even spread is the
                // better start.
                Some(warm) => {
                    let even = self.initial_support(lo, hi);
                    if objective(&warm) <= objective(&even) {
                        warm
                    } else {
                        even
                    }
                }
                None => self.initial_support(lo, hi),
            }
        } else {
            self.initial_support(lo, hi)
        };
        let descent = projected_gradient_descent(
            objective,
            project,
            &x0,
            &DescentConfig {
                step: self.config.step,
                tolerance: self.config.tolerance,
                max_iterations: self.config.max_iterations,
                fd_step: 1e-6,
                ..DescentConfig::default()
            },
        )?;

        let support = descent.x;
        let q = find_percentage(&support, game.effect())?;
        let strategy = DefenderMixedStrategy::new(support, q)?;
        let attacker_gain = strategy.attacker_gain(game.effect());
        let defender_loss = strategy.defender_loss(game.effect(), game.cost(), game.n_points());
        Ok(Algorithm1Result {
            strategy,
            defender_loss,
            attacker_gain,
            iterations: descent.iterations,
            converged: descent.converged,
            trace: descent.trace,
        })
    }
}

impl Default for Algorithm1 {
    fn default() -> Self {
        Self::new(Algorithm1Config::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::{CostCurve, EffectCurve};
    use crate::ne::diagnose;

    /// Curves with the paper's qualitative shape: steep damage near the
    /// boundary, cost growing with filter strength.
    fn paper_like_game(n_points: usize) -> PoisonGame {
        let effect = EffectCurve::from_samples(&[
            (0.0, 2.0e-4),
            (0.05, 1.4e-4),
            (0.10, 9.0e-5),
            (0.15, 6.0e-5),
            (0.20, 4.0e-5),
            (0.30, 1.5e-5),
            (0.40, 2.0e-6),
            (0.45, -1.0e-6),
        ])
        .unwrap();
        let cost = CostCurve::from_samples(&[
            (0.0, 0.0),
            (0.05, 0.004),
            (0.10, 0.009),
            (0.20, 0.022),
            (0.30, 0.040),
            (0.40, 0.065),
        ])
        .unwrap();
        PoisonGame::new(effect, cost, n_points).unwrap()
    }

    #[test]
    fn output_satisfies_ne_conditions() {
        let game = paper_like_game(644);
        let result = Algorithm1::with_support_size(3).solve(&game).unwrap();
        let d = diagnose(&result.strategy, game.effect(), 1e-6);
        assert!(d.satisfies_ne_conditions(), "{d:?}");
        assert_eq!(result.strategy.support().len(), 3);
    }

    #[test]
    fn loss_never_increases_along_trace() {
        let game = paper_like_game(644);
        let result = Algorithm1::with_support_size(2).solve(&game).unwrap();
        assert!(
            result.trace.windows(2).all(|w| w[1] <= w[0] + 1e-15),
            "trace not monotone: {:?}",
            result.trace
        );
    }

    #[test]
    fn mixed_beats_every_pure_strategy() {
        // The headline claim of Table 1: the mixed defense's loss is
        // lower than the loss of every pure filter strength against its
        // own best-responding attacker.
        let game = paper_like_game(644);
        let result = Algorithm1::with_support_size(3).solve(&game).unwrap();
        for k in 0..=50 {
            let theta = 0.01 * k as f64;
            if theta >= 0.5 {
                break;
            }
            let pure = DefenderMixedStrategy::pure(theta).unwrap();
            let pure_loss = pure.defender_loss(game.effect(), game.cost(), game.n_points());
            assert!(
                result.defender_loss <= pure_loss + 1e-9,
                "pure θ={theta} loss {pure_loss} beats mixed {}",
                result.defender_loss
            );
        }
    }

    #[test]
    fn more_support_points_never_hurt() {
        let game = paper_like_game(644);
        let l1 = Algorithm1::with_support_size(1)
            .solve(&game)
            .unwrap()
            .defender_loss;
        let l2 = Algorithm1::with_support_size(2)
            .solve(&game)
            .unwrap()
            .defender_loss;
        let l3 = Algorithm1::with_support_size(3)
            .solve(&game)
            .unwrap()
            .defender_loss;
        // Small numerical slack: a larger support can always imitate a
        // smaller one.
        assert!(l2 <= l1 + 1e-6, "l1 {l1} l2 {l2}");
        assert!(l3 <= l2 + 1e-4, "l2 {l2} l3 {l3}");
    }

    #[test]
    fn attacker_gain_matches_deepest_effect() {
        let game = paper_like_game(300);
        let result = Algorithm1::with_support_size(2).solve(&game).unwrap();
        let deepest = *result.strategy.support().last().unwrap();
        assert!(
            (result.attacker_gain - game.effect().eval(deepest)).abs() < 1e-9,
            "gain {} vs E(deepest) {}",
            result.attacker_gain,
            game.effect().eval(deepest)
        );
    }

    #[test]
    fn unprofitable_game_returns_no_filter() {
        let effect = EffectCurve::from_samples(&[(0.0, -0.1), (0.5, -0.5)]).unwrap();
        let cost = CostCurve::from_samples(&[(0.0, 0.0), (0.5, 0.1)]).unwrap();
        let game = PoisonGame::new(effect, cost, 100).unwrap();
        let result = Algorithm1::with_support_size(3).solve(&game).unwrap();
        assert_eq!(result.strategy.support(), &[0.0]);
        assert_eq!(result.defender_loss, 0.0);
        assert!(result.converged);
    }

    #[test]
    fn zero_support_size_rejected() {
        let game = paper_like_game(10);
        assert!(matches!(
            Algorithm1::with_support_size(0).solve(&game).unwrap_err(),
            CoreError::BadParameter {
                what: "n_radii",
                ..
            }
        ));
    }

    #[test]
    fn bad_bounds_rejected() {
        let game = paper_like_game(10);
        let solver = Algorithm1::new(Algorithm1Config {
            bounds: (0.4, 0.2),
            ..Algorithm1Config::default()
        });
        assert!(solver.solve(&game).is_err());
    }

    #[test]
    fn support_stays_in_profitable_zone() {
        let game = paper_like_game(644);
        let result = Algorithm1::with_support_size(4).solve(&game).unwrap();
        for &p in result.strategy.support() {
            assert!(
                game.effect().eval(p) > 0.0,
                "support point {p} has E={}",
                game.effect().eval(p)
            );
        }
    }

    #[test]
    fn warm_start_matches_even_start_quality() {
        let game = paper_like_game(644);
        let even = Algorithm1::with_support_size(3).solve(&game).unwrap();
        for solver in [SolverKind::Auto, SolverKind::MultiplicativeWeights] {
            let warm = Algorithm1::new(Algorithm1Config {
                n_radii: 3,
                warm_start: true,
                solver,
                ..Algorithm1Config::default()
            })
            .solve(&game)
            .unwrap();
            assert_eq!(warm.strategy.support().len(), 3);
            let d = diagnose(&warm.strategy, game.effect(), 1e-6);
            assert!(d.satisfies_ne_conditions(), "{solver:?}: {d:?}");
            // Seeding from the grid NE must not land in a worse basin.
            assert!(
                warm.defender_loss <= even.defender_loss + 1e-3,
                "{solver:?}: warm {} vs even {}",
                warm.defender_loss,
                even.defender_loss
            );
        }
    }

    #[test]
    fn deterministic_given_config() {
        let game = paper_like_game(644);
        let a = Algorithm1::with_support_size(2).solve(&game).unwrap();
        let b = Algorithm1::with_support_size(2).solve(&game).unwrap();
        assert_eq!(a.strategy, b.strategy);
        assert_eq!(a.defender_loss, b.defender_loss);
    }
}
