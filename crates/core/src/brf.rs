//! Best-response-function analysis — the programmatic form of the
//! paper's Proposition 1 (non-existence of a pure-strategy NE).
//!
//! The paper's argument: the attacker's best response to a pure filter
//! `θ` is to hug it from inside, while the defender's best response to
//! any profitable placement is to tighten just past it — the two
//! best-response functions never intersect (except in the degenerate
//! `T_a = T_d` case). Here we trace both functions on a grid and verify
//! that no pure profile is simultaneously a best response for both.

use crate::game_model::{percentile_grid, PoisonGame};

/// Result of tracing both best-response functions.
#[derive(Debug, Clone, PartialEq)]
pub struct BrfAnalysis {
    /// The percentile form of `T_a` (deepest profitable placement).
    pub profit_threshold: Option<f64>,
    /// `(θ, attacker's best placement)` per grid strength; `None`
    /// placement = abstain (no profitable spot).
    pub attacker_best: Vec<(f64, Option<f64>)>,
    /// `(placement, defender's best θ)` per grid placement.
    pub defender_best: Vec<(f64, f64)>,
    /// A grid profile `(placement, θ)` that is a mutual best response,
    /// if any. A placement of `1.0` encodes the attacker abstaining
    /// (possible only in the degenerate never-profitable family the
    /// paper sets aside).
    pub pure_fixed_point: Option<(f64, f64)>,
}

impl BrfAnalysis {
    /// Proposition 1 holds on this instance (no pure equilibrium on
    /// the grid).
    pub fn pure_ne_absent(&self) -> bool {
        self.pure_fixed_point.is_none()
    }
}

/// Trace both best-response functions on a grid of `resolution + 1`
/// strengths and check for a mutual fixed point.
pub fn analyze(game: &PoisonGame, resolution: usize) -> BrfAnalysis {
    let grid = percentile_grid(resolution);

    let attacker_best: Vec<(f64, Option<f64>)> = grid
        .iter()
        .map(|&theta| {
            let br = game.attacker_best_response(theta);
            (theta, br.first().map(|&(p, _)| p))
        })
        .collect();

    let defender_best: Vec<(f64, f64)> = grid
        .iter()
        .map(|&p| {
            let attack = vec![(p, game.n_points())];
            (p, game.defender_best_response(&attack, resolution))
        })
        .collect();

    // A pure profile (attacker action, strength θ*) is a fixed point
    // iff neither side can improve unilaterally. The attacker's pure
    // actions are the grid placements plus abstain (`None`); abstain is
    // what makes the degenerate always-unprofitable family have its
    // pure equilibrium. Check all pairs through payoff comparisons
    // (robust to best-response ties).
    let attack_of = |candidate: Option<f64>| -> Vec<(f64, usize)> {
        candidate
            .map(|p| (p, game.n_points()))
            .into_iter()
            .collect()
    };
    let candidates: Vec<Option<f64>> = grid
        .iter()
        .copied()
        .map(Some)
        .chain(std::iter::once(None))
        .collect();
    let mut pure_fixed_point = None;
    'outer: for &theta in &grid {
        for &candidate in &candidates {
            let attack = attack_of(candidate);
            let u = game.payoff(&attack, theta);
            // Attacker deviation: any other placement or abstain.
            let attacker_can_improve = candidates
                .iter()
                .map(|&c2| game.payoff(&attack_of(c2), theta))
                .any(|u2| u2 > u + 1e-12);
            if attacker_can_improve {
                continue;
            }
            // Defender deviation: any other strength.
            let defender_can_improve = grid.iter().any(|&t2| game.payoff(&attack, t2) < u - 1e-12);
            if defender_can_improve {
                continue;
            }
            pure_fixed_point = Some((candidate.unwrap_or(1.0), theta));
            break 'outer;
        }
    }

    BrfAnalysis {
        profit_threshold: game.profit_threshold(),
        attacker_best,
        defender_best,
        pure_fixed_point,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::{CostCurve, EffectCurve};

    fn paper_like_game() -> PoisonGame {
        let effect = EffectCurve::from_samples(&[
            (0.0, 2.0e-4),
            (0.10, 9.0e-5),
            (0.20, 4.0e-5),
            (0.40, 2.0e-6),
            (0.45, -1.0e-6),
        ])
        .unwrap();
        let cost =
            CostCurve::from_samples(&[(0.0, 0.0), (0.10, 0.009), (0.20, 0.022), (0.40, 0.065)])
                .unwrap();
        PoisonGame::new(effect, cost, 644).unwrap()
    }

    #[test]
    fn proposition_1_no_pure_equilibrium() {
        let analysis = analyze(&paper_like_game(), 60);
        assert!(
            analysis.pure_ne_absent(),
            "unexpected pure NE at {:?}",
            analysis.pure_fixed_point
        );
    }

    #[test]
    fn attacker_hugs_profitable_filters() {
        let analysis = analyze(&paper_like_game(), 40);
        for &(theta, placement) in &analysis.attacker_best {
            match placement {
                Some(p) => assert!((p - theta).abs() < 1e-12, "BR at {p} for θ={theta}"),
                None => {
                    // Abstains only past the profit threshold.
                    let t = analysis.profit_threshold.unwrap();
                    assert!(theta >= t - 1e-9, "abstained at θ={theta} < T_a={t}");
                }
            }
        }
    }

    #[test]
    fn defender_chases_profitable_placements() {
        let game = paper_like_game();
        let analysis = analyze(&game, 40);
        for &(p, theta) in &analysis.defender_best {
            if game.effect().eval(p) > 0.0 && game.cost().eval(p) < 0.02 {
                // Cheap-to-chase profitable placements get removed:
                // best response is strictly deeper than the placement.
                assert!(
                    theta > p,
                    "defender does not chase placement {p} (θ={theta})"
                );
            }
        }
    }

    #[test]
    fn degenerate_game_with_pure_ne_is_detected() {
        // If poisoning never pays, (abstain-equivalent deep placement,
        // no filter) is a pure equilibrium — the `T_a = T_d` degenerate
        // family the paper sets aside.
        let effect = EffectCurve::from_samples(&[(0.0, -0.1), (0.5, -0.2)]).unwrap();
        let cost = CostCurve::from_samples(&[(0.0, 0.0), (0.5, 0.1)]).unwrap();
        let game = PoisonGame::new(effect, cost, 100).unwrap();
        let analysis = analyze(&game, 20);
        assert!(analysis.pure_fixed_point.is_some());
        // And it involves no filtering.
        let (_, theta) = analysis.pure_fixed_point.unwrap();
        assert_eq!(theta, 0.0);
    }
}
