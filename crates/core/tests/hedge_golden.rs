//! Golden digests of the multiplicative-weights (Hedge) solve.
//!
//! Each constant is an FNV-1a digest over the exact bit pattern of the
//! row strategy, the column strategy and the value of one solve. The
//! inputs cover the paper's resolution-150 discretized game (which
//! `SolverKind::Auto` sends to multiplicative weights), a seeded random
//! game of the same 151 × 150 shape, and a game small enough to be
//! played on one thread. A performance rewrite of the solver must leave
//! every digest unchanged, whichever thread plays which player.

use poisongame_core::bridge::solve_discretized_with;
use poisongame_core::{CostCurve, EffectCurve, PoisonGame, SolverKind};
use poisongame_linalg::Xoshiro256StarStar;
use poisongame_theory::{
    solve_multiplicative_weights, MatrixGame, MultiplicativeWeightsConfig, Solution,
};
use rand::SeedableRng;

fn digest(solution: &Solution) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    let rows = solution.row_strategy.probabilities();
    let cols = solution.column_strategy.probabilities();
    eat(rows.len() as u64);
    eat(cols.len() as u64);
    for p in rows.iter().chain(cols) {
        eat(p.to_bits());
    }
    eat(solution.value.to_bits());
    eat(solution.iterations as u64);
    h
}

/// Curve samples shaped like an estimate on the bench data: the effect
/// turns unprofitable past the 45th percentile, the cost rises
/// convexly.
fn paper_game() -> PoisonGame {
    let effect = EffectCurve::from_samples(&[
        (0.0, 2.0e-4),
        (0.05, 1.4e-4),
        (0.10, 9.0e-5),
        (0.20, 4.0e-5),
        (0.30, 1.5e-5),
        (0.40, 2.0e-6),
        (0.45, -1.0e-6),
    ])
    .expect("effect curve");
    let cost = CostCurve::from_samples(&[
        (0.0, 0.0),
        (0.05, 0.004),
        (0.10, 0.009),
        (0.20, 0.022),
        (0.30, 0.040),
        (0.40, 0.065),
    ])
    .expect("cost curve");
    PoisonGame::new(effect, cost, 644).expect("game")
}

fn random_game(seed: u64, m: usize, n: usize) -> MatrixGame {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    MatrixGame::from_fn(m, n, |_, _| rng.next_f64() * 4.0 - 2.0)
}

fn check(name: &str, solution: &Solution, expected: u64) {
    let got = digest(solution);
    assert_eq!(got, expected, "{name}: digest {got:#018x}");
}

#[test]
fn discretized_paper_game_digest_is_pinned() {
    let discrete =
        solve_discretized_with(&paper_game(), 150, SolverKind::Auto).expect("discretized solve");
    assert_eq!(discrete.solver, "multiplicative_weights");
    check(
        "paper game, resolution 150",
        &discrete.solution,
        0xb2bc_e2e8_072c_4d26,
    );
}

#[test]
fn large_random_game_digest_is_pinned() {
    let game = random_game(0x4ED6E, 151, 150);
    let solution = solve_multiplicative_weights(&game, &MultiplicativeWeightsConfig::default())
        .expect("hedge solve");
    check("random 151 x 150", &solution, 0x5797_bfe6_f83d_fe7b);
}

#[test]
fn small_random_game_digest_is_pinned() {
    let game = random_game(0x5A11, 24, 17);
    let solution = solve_multiplicative_weights(&game, &MultiplicativeWeightsConfig::default())
        .expect("hedge solve");
    check("random 24 x 17", &solution, 0xd058_f191_4eaa_dc5c);
}
