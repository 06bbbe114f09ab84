//! Repeated-game demo: adaptive attackers and defenders rediscover
//! the paper's static equilibrium by playing it.
//!
//! Part 1 plays 10,000 rounds of no-regret self-play on the
//! discretized paper game (memoized payoff-matrix mode) and compares
//! both the wall-clock and the converged value against the one-shot
//! simplex solve — the repeated game runs in the same order of
//! magnitude as solving the static game once.
//!
//! Part 2 runs the empirical mode on real (synthetic-Spambase) data:
//! every payoff-grid cell is an actual attack → filter → train →
//! evaluate run, prepared through the `EvalEngine`. Running the same
//! game twice on one engine prepares the dataset once: the second run
//! hits the preparation cache and reproduces the trace byte for byte.
//!
//! Used as a CI smoke: the assertions at the bottom (regret shrinks,
//! the averaged value lands on the NE, the rerun hits the cache with
//! an identical trace) fail the run loudly if online play regresses.
//!
//! ```sh
//! cargo run --release --example online_play
//! ```

use poisongame::core::bridge::{discretized_game, solve_discretized};
use poisongame::core::paper::paper_game;
use poisongame::online::payoff::MatrixPayoff;
use poisongame::online::pipeline::materialize_grid;
use poisongame::online::play::{play, PlayConfig};
use poisongame::online::report::online_table;
use poisongame::online::{run_online, LearnerKind, OnlineSpec};
use poisongame::sim::exec::ExecPolicy;
use poisongame::sim::pipeline::{DataSource, ExperimentConfig};
use poisongame::sim::EvalEngine;
use poisongame::theory::SolverKind;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Part 1: the discretized paper game at T = 10,000 ----------
    let game = paper_game()?;
    let resolution = 40;
    let (_grid, matrix) = discretized_game(&game, resolution);

    let t0 = Instant::now();
    let lp = solve_discretized(&game, resolution)?;
    let simplex_micros = t0.elapsed().as_micros();

    // The iterative reference: Hedge self-play as a *batch solver*
    // (20k fixed-horizon iterations) — the same computational shape
    // as the online loop.
    let t0 = Instant::now();
    let hedge = SolverKind::MultiplicativeWeights.solve(&discretized_game(&game, resolution).1)?;
    let hedge_micros = t0.elapsed().as_micros();

    let t0 = Instant::now();
    let trace = play(
        &MatrixPayoff::new(matrix),
        &PlayConfig {
            rounds: 10_000,
            attacker: LearnerKind::RegretMatching,
            defender: LearnerKind::RegretMatching,
            checkpoint_every: 2_000,
            ..PlayConfig::default()
        },
    )?;
    let play_micros = t0.elapsed().as_micros();

    println!("{}", online_table(&trace));
    let last = trace.last();
    println!(
        "T=10,000 rounds in {:.1} ms | one-shot solves: simplex {:.1} ms, Hedge(20k iters) {:.1} ms",
        play_micros as f64 / 1000.0,
        simplex_micros as f64 / 1000.0,
        hedge_micros as f64 / 1000.0,
    );
    println!(
        "averaged value {:.6} vs static NE {:.6} (gap {:.2e}; batch Hedge lands at {:.6})\n",
        last.average_value, lp.value, last.ne_gap, hedge.value
    );
    // Memoized-mode contract: 10k adaptive rounds cost what one
    // iterative solve of the same game costs (same order of
    // magnitude), not 10k × a cell evaluation.
    assert!(
        play_micros <= hedge_micros.max(1) * 10,
        "10k rounds ({play_micros}us) should be within one order of the \
         20k-iteration Hedge solve ({hedge_micros}us)"
    );

    // CI smoke assertions: regret shrinks and averaged play lands on
    // the static equilibrium.
    assert!(
        last.attacker_regret <= trace.points[0].attacker_regret,
        "attacker regret grew: {} -> {}",
        trace.points[0].attacker_regret,
        last.attacker_regret
    );
    assert!(
        last.defender_regret <= trace.points[0].defender_regret,
        "defender regret grew"
    );
    assert!(last.ne_gap <= 1e-2, "NE gap too large: {}", last.ne_gap);
    assert_eq!(trace.ne_value.to_bits(), lp.value.to_bits());

    // ---- Part 2: the empirical engine-backed mode ------------------
    let config = ExperimentConfig {
        seed: 11,
        source: DataSource::SyntheticSpambase { rows: 300 },
        epochs: 20,
        ..ExperimentConfig::paper()
    };
    let spec = OnlineSpec {
        rounds: 10_000,
        attacker: LearnerKind::Hedge,
        defender: LearnerKind::RegretMatching,
        placements: vec![0.02, 0.10, 0.20, 0.30],
        strengths: vec![0.0, 0.10, 0.20, 0.30],
        ..OnlineSpec::default()
    };

    // The static reference on the *same* empirical game: materialize
    // the payoff grid, solve it once. Both the reference and the runs
    // below are sequential — the comparison is about what the 10k
    // rounds add, not about worker counts, and a parallel reference
    // would make the CI timing assertion core-count-dependent.
    let sequential = ExecPolicy::sequential();
    let static_engine = EvalEngine::new();
    let t0 = Instant::now();
    let static_prepared = static_engine.prepare(&config)?;
    let static_game = materialize_grid(&static_prepared, &config, &spec, &sequential)?;
    let static_value = SolverKind::Simplex.solve(&static_game)?.value;
    let static_micros = t0.elapsed().as_micros();

    let engine = EvalEngine::new();
    let t0 = Instant::now();
    let first = run_online(&engine, &config, &spec, &sequential)?;
    let first_micros = t0.elapsed().as_micros();
    let stats = first.engine;
    println!(
        "empirical mode: {} cells + {} rounds on real data in {:.1} ms \
         (static solve of the same game: {:.1} ms, value {:.4})",
        stats.cells,
        spec.rounds,
        first_micros as f64 / 1000.0,
        static_micros as f64 / 1000.0,
        static_value
    );
    // Same order of magnitude end to end: cell evaluation dominates,
    // the 10k memoized rounds are marginal.
    assert!(
        first_micros <= static_micros.max(1) * 10,
        "T=10k empirical run ({first_micros}us) should be within one order \
         of the static solve ({static_micros}us)"
    );
    let last = first.trace.last();
    println!(
        "  {} vs {} after {} rounds: averaged value {:.4}, NE gap {:.2e}, exploitability {:.2e}",
        first.trace.attacker,
        first.trace.defender,
        first.trace.rounds,
        last.average_value,
        last.ne_gap,
        last.exploitability
    );
    assert!(
        last.ne_gap <= 1e-2,
        "empirical NE gap too large: {}",
        last.ne_gap
    );

    // The same game again on the same engine: the preparation comes
    // from the cache and the trace is the same bytes.
    let second = run_online(&engine, &config, &spec, &sequential)?;
    let stats = second.engine;
    println!(
        "  rerun prep cache: {} hits / {} misses — one preparation serves both runs",
        stats.prep_hits, stats.prep_misses
    );
    assert_eq!(stats.prep_misses, 0, "rerun re-prepared: {stats:?}");
    assert!(
        stats.prep_hits >= 1,
        "rerun missed the prep cache: {stats:?}"
    );
    assert_eq!(
        second.trace.to_json_string(),
        first.trace.to_json_string(),
        "rerun diverged from the first run"
    );
    println!("  rerun: bit-identical trace — OK");

    println!("\nonline play OK");
    Ok(())
}
