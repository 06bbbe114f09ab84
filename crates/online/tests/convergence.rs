//! Convergence regression: no-regret self-play's time-averaged
//! strategies converge to the one-shot Nash equilibrium.
//!
//! Two layers of evidence:
//!
//! * **Property-style, seeded** — on random small matrix games, both
//!   regret matching and Hedge self-play land within `1e-2` of the
//!   exact simplex LP value (the no-regret folk theorem, measured).
//! * **The paper's game** — on the discretized poisoning game,
//!   averaged adaptive play reproduces the equilibrium Algorithm 1
//!   computes, closing the loop between the static defense the paper
//!   ships and the interactive process it is meant to secure.

use poisongame_core::algorithm1::Algorithm1;
use poisongame_core::bridge::{discretized_game, solve_discretized};
use poisongame_core::paper::paper_game;
use poisongame_linalg::Xoshiro256StarStar;
use poisongame_online::payoff::MatrixPayoff;
use poisongame_online::play::{play, PlayConfig};
use poisongame_online::LearnerKind;
use poisongame_theory::{solve_lp, MatrixGame, SolverKind};

/// A random `m × n` game with payoffs in `[-1, 1]`, derived entirely
/// from `seed`.
fn random_game(seed: u64, m: usize, n: usize) -> MatrixGame {
    let mut rng = Xoshiro256StarStar::new(seed);
    MatrixGame::from_fn(m, n, |_, _| rng.next_f64() * 2.0 - 1.0)
}

fn self_play_value(game: &MatrixGame, kind: LearnerKind, rounds: usize) -> f64 {
    let trace = play(
        &MatrixPayoff::new(game.clone()),
        &PlayConfig {
            rounds,
            attacker: kind,
            defender: kind,
            solver: SolverKind::Simplex,
            ..PlayConfig::default()
        },
    )
    .expect("play runs");
    trace.last().average_value
}

#[test]
fn no_regret_self_play_matches_the_simplex_value_on_random_games() {
    // Seeded property sweep: shapes and seeds vary, the tolerance does
    // not. 1e-2 on a payoff range of 2 is the acceptance bar.
    let shapes = [(2, 2), (3, 4), (5, 3), (6, 6)];
    for (case, &(m, n)) in shapes.iter().enumerate() {
        let game = random_game(0xC0FFEE + case as u64, m, n);
        let lp = solve_lp(&game).expect("LP solves").value;
        for kind in [LearnerKind::RegretMatching, LearnerKind::Hedge] {
            let avg = self_play_value(&game, kind, 400_000);
            assert!(
                (avg - lp).abs() <= 1e-2,
                "{:?} on {m}x{n} (seed case {case}): averaged value {avg} vs LP {lp}",
                kind
            );
        }
    }
}

#[test]
fn adaptive_play_converges_to_the_algorithm1_equilibrium() {
    let game = paper_game().expect("paper-calibrated game");
    let resolution = 40;
    let (_grid, matrix) = discretized_game(&game, resolution);

    // The two static references: the exact LP on the discretization
    // and the paper's Algorithm 1 on the continuous game.
    let lp = solve_discretized(&game, resolution).expect("LP cross-check");
    let algo1 = Algorithm1::with_support_size(4)
        .solve(&game)
        .expect("Algorithm 1 solves");

    for kind in [LearnerKind::RegretMatching, LearnerKind::Hedge] {
        let trace = play(
            &MatrixPayoff::new(matrix.clone()),
            &PlayConfig {
                rounds: 50_000,
                attacker: kind,
                defender: kind,
                solver: SolverKind::Simplex,
                ..PlayConfig::default()
            },
        )
        .expect("play runs");
        let last = trace.last();
        // The trace's own reference is the LP value.
        assert_eq!(trace.ne_value, lp.value);
        assert!(
            last.ne_gap <= 1e-2,
            "{kind:?}: averaged value {} vs discretized NE {} (gap {})",
            last.average_value,
            lp.value,
            last.ne_gap
        );
        // And the loop closes against Algorithm 1 itself.
        assert!(
            (last.average_value - algo1.defender_loss).abs() <= 1e-2,
            "{kind:?}: averaged value {} vs Algorithm 1 loss {}",
            last.average_value,
            algo1.defender_loss
        );
        // Regret shrinks over the run.
        assert!(last.attacker_regret <= trace.points[0].attacker_regret);
        assert!(last.defender_regret <= trace.points[0].defender_regret);
    }
}

#[test]
fn fixed_ne_baseline_is_unexploitable_by_adaptive_attackers() {
    // The static equilibrium holds up under adaptive pressure: an
    // adaptive attacker cannot push its average payoff meaningfully
    // above the game value against the fixed-NE defender.
    let game = paper_game().expect("paper-calibrated game");
    let (_grid, matrix) = discretized_game(&game, 40);
    let trace = play(
        &MatrixPayoff::new(matrix),
        &PlayConfig {
            rounds: 20_000,
            attacker: LearnerKind::RegretMatching,
            defender: LearnerKind::FixedNe,
            solver: SolverKind::Simplex,
            ..PlayConfig::default()
        },
    )
    .expect("play runs");
    let last = trace.last();
    assert!(
        last.average_value <= trace.ne_value + 1e-3,
        "adaptive attacker beat the static NE: {} vs {}",
        last.average_value,
        trace.ne_value
    );
}
