//! Run empirical online games end to end: dataset preparation through
//! the [`EvalEngine`], payoff-grid materialization on the worker pool,
//! then the sequential play loop.
//!
//! * [`run_online`] — the front door: cached preparation, then
//!   [`run_online_prepared`], with the engine's cache counters.
//! * [`run_online_prepared`] — the core, against an already-shared
//!   preparation (what the serving executors call): the payoff grid
//!   fanned out across the process-wide worker pool
//!   (`poisongame_sim::exec::pool`) via [`materialize_grid`] (the
//!   baseline is phase 1, the cells phase 2), then [`play`]. The
//!   pool's submitter-participates design means this is safe to call
//!   from inside another parallel map — e.g. a grid of online games —
//!   with no deadlock and unchanged traces.
//!
//! Traces are bit-identical at any worker count.

use crate::error::OnlineError;
use crate::payoff::{cell_seeds, empirical_baseline, empirical_entry, MatrixPayoff};
use crate::play::{play, OnlineTrace, PlayConfig};
use crate::spec::OnlineSpec;
use poisongame_sim::engine::EvalEngine;
use poisongame_sim::exec::{prepare_then_map, ExecPolicy};
use poisongame_sim::pipeline::{ExperimentConfig, Prepared};
use poisongame_sim::scenario::EngineStats;
use poisongame_theory::MatrixGame;
use std::time::Instant;

/// The result of one empirical online run: the trace plus the
/// engine's cache/throughput measurements (wall-clock fields are
/// nondeterministic — compare traces, not stats).
#[derive(Debug, Clone)]
pub struct OnlineOutcome {
    /// The diagnostics trace.
    pub trace: OnlineTrace,
    /// Engine-side measurements.
    pub engine: EngineStats,
}

/// The play configuration a `(config, spec)` pair implies: the
/// experiment's master seed is recorded verbatim (the sampling stream
/// is salted inside [`play`]), so the trace's
/// `seed` field is exactly the seed that reproduces the whole run.
fn play_config(config: &ExperimentConfig, spec: &OnlineSpec) -> PlayConfig {
    PlayConfig {
        rounds: spec.rounds,
        attacker: spec.attacker,
        defender: spec.defender,
        feedback: spec.feedback,
        seed: config.seed,
        checkpoint_every: spec.checkpoint_every,
        solver: config.solver,
    }
}

/// Materialize the empirical payoff grid against a shared preparation:
/// the clean baseline is the prepare phase (computed exactly once),
/// the `placements × strengths` cells the evaluate phase, fanned out
/// across the worker pool with per-cell derived seeds. Deterministic
/// at any thread count.
///
/// # Errors
///
/// Propagates pipeline failures (first failing cell in grid order).
pub fn materialize_grid(
    prepared: &Prepared,
    config: &ExperimentConfig,
    spec: &OnlineSpec,
    policy: &ExecPolicy,
) -> Result<MatrixGame, OnlineError> {
    spec.validate()?;
    let n_strengths = spec.strengths.len();
    let seeds = cell_seeds(config, spec.n_cells());
    let cells: Vec<usize> = (0..spec.n_cells()).collect();
    let entries: Vec<f64> = prepare_then_map(
        policy,
        &cells,
        |_| (),
        |()| empirical_baseline(prepared, config),
        |_, &idx, baseline: &f64| {
            empirical_entry(
                prepared,
                config,
                *baseline,
                spec.placements[idx / n_strengths],
                spec.strengths[idx % n_strengths],
                seeds[idx],
            )
        },
    )?;
    let rows: Vec<Vec<f64>> = entries.chunks(n_strengths).map(<[f64]>::to_vec).collect();
    Ok(MatrixGame::from_rows(&rows)?)
}

/// Run one empirical online game through the engine: cached
/// preparation, parallel grid materialization, sequential play.
///
/// # Errors
///
/// Propagates spec validation, preparation, evaluation and play
/// failures.
pub fn run_online(
    engine: &EvalEngine,
    config: &ExperimentConfig,
    spec: &OnlineSpec,
    policy: &ExecPolicy,
) -> Result<OnlineOutcome, OnlineError> {
    spec.validate()?;
    let before = engine.cache_stats();
    let start = Instant::now();
    let prepared = engine.prepare(config)?;
    let trace = run_online_prepared(&prepared, config, spec, policy)?;
    let after = engine.cache_stats();
    Ok(OnlineOutcome {
        trace,
        engine: EngineStats {
            prep_hits: after.hits - before.hits,
            prep_misses: after.misses - before.misses,
            cells: spec.n_cells(),
            elapsed_micros: start.elapsed().as_micros(),
        },
    })
}

/// The evaluate phase of [`run_online`] against an already-prepared
/// dataset — what the serving executors run `online` requests
/// through once the shard's cache has the preparation.
///
/// # Errors
///
/// Propagates spec validation, evaluation and play failures.
pub fn run_online_prepared(
    prepared: &Prepared,
    config: &ExperimentConfig,
    spec: &OnlineSpec,
    policy: &ExecPolicy,
) -> Result<OnlineTrace, OnlineError> {
    let game = materialize_grid(prepared, config, spec, policy)?;
    play(&MatrixPayoff::new(game), &play_config(config, spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use poisongame_sim::pipeline::{prepare, DataSource};

    fn quick_config() -> ExperimentConfig {
        ExperimentConfig {
            seed: 5,
            source: DataSource::SyntheticSpambase { rows: 300 },
            epochs: 15,
            ..ExperimentConfig::paper()
        }
    }

    fn quick_spec() -> OnlineSpec {
        OnlineSpec {
            rounds: 400,
            placements: vec![0.02, 0.15, 0.30],
            strengths: vec![0.0, 0.10, 0.25],
            ..OnlineSpec::default()
        }
    }

    #[test]
    fn repeated_runs_hit_the_cache_and_match_the_prepared_core() {
        let config = quick_config();
        let spec = quick_spec();

        let engine = EvalEngine::new();
        let policy = ExecPolicy::with_threads(4);
        let first = run_online(&engine, &config, &spec, &policy).unwrap();
        assert_eq!(
            first.trace.seed, config.seed,
            "the trace records the master seed verbatim, reproducing the run"
        );
        assert_eq!(first.engine.cells, 9);
        assert_eq!(first.engine.prep_misses, 1, "{:?}", first.engine);

        // The second run on the same engine prepares from the cache.
        let second = run_online(&engine, &config, &spec, &policy).unwrap();
        assert_eq!(second.engine.prep_misses, 0, "{:?}", second.engine);
        assert!(second.engine.prep_hits >= 1, "{:?}", second.engine);
        assert_eq!(
            second.trace.to_json_string(),
            first.trace.to_json_string(),
            "a cached preparation must not change the trace"
        );

        // The prepared-only core matches too (what serving calls).
        let prepared = prepare(&config).unwrap();
        let served =
            run_online_prepared(&prepared, &config, &spec, &ExecPolicy::sequential()).unwrap();
        assert_eq!(served.to_json_string(), first.trace.to_json_string());
    }

    /// The 2 × 2 grid the empirical-grid checks score, on seed 9.
    fn grid_spec() -> OnlineSpec {
        OnlineSpec {
            placements: vec![0.02, 0.2],
            strengths: vec![0.0, 0.2],
            ..OnlineSpec::default()
        }
    }

    fn grid_config() -> ExperimentConfig {
        ExperimentConfig {
            seed: 9,
            ..quick_config()
        }
    }

    #[test]
    fn materialized_grid_is_deterministic_and_poison_hurts() {
        let config = grid_config();
        let spec = grid_spec();
        let prepared = prepare(&config).unwrap();
        let game = materialize_grid(&prepared, &config, &spec, &ExecPolicy::sequential()).unwrap();
        assert_eq!(game.shape(), (2, 2));
        // A shallow attack against no filter must hurt: positive payoff.
        assert!(game.payoff(0, 0) > 0.0, "boundary poison did no damage");

        // Entries are a pure function of (config, grids): a fresh
        // preparation on another worker count reproduces them
        // bit-for-bit.
        let again = materialize_grid(
            &prepare(&config).unwrap(),
            &config,
            &spec,
            &ExecPolicy::with_threads(4),
        )
        .unwrap();
        assert_eq!(again, game);
    }

    #[test]
    fn materialized_grid_matches_cells_scored_one_at_a_time() {
        // Entry (i, j) depends on the master seed and the cell index
        // alone: scoring each cell on its own, in any order, gives the
        // pooled grid bit-for-bit.
        let config = grid_config();
        let spec = grid_spec();
        let prepared = prepare(&config).unwrap();
        let game =
            materialize_grid(&prepared, &config, &spec, &ExecPolicy::with_threads(4)).unwrap();
        let baseline = empirical_baseline(&prepared, &config).unwrap();
        let seeds = cell_seeds(&config, spec.n_cells());
        let n = spec.strengths.len();
        for idx in (0..spec.n_cells()).rev() {
            let (i, j) = (idx / n, idx % n);
            let entry = empirical_entry(
                &prepared,
                &config,
                baseline,
                spec.placements[i],
                spec.strengths[j],
                seeds[idx],
            )
            .unwrap();
            assert_eq!(
                entry.to_bits(),
                game.payoff(i, j).to_bits(),
                "cell ({i}, {j})"
            );
        }
    }

    #[test]
    fn materialized_grid_picks_up_minibatch_kernel_from_config() {
        // `fit_kernel` flows config → train_config → every cell fit
        // with no grid-side wiring. The empirical entries stay a
        // deterministic pure function of (config, grids), and the
        // minibatch grid must still show the attack hurting at (0, 0).
        let config = ExperimentConfig {
            fit_kernel: poisongame_sim::FitKernel::Minibatch { batch: 32 },
            ..grid_config()
        };
        let spec = grid_spec();
        let policy = ExecPolicy::sequential();
        let game = materialize_grid(&prepare(&config).unwrap(), &config, &spec, &policy).unwrap();
        assert!(game.payoff(0, 0) > 0.0, "boundary poison did no damage");
        let again = materialize_grid(&prepare(&config).unwrap(), &config, &spec, &policy).unwrap();
        assert_eq!(again, game, "minibatch is deterministic");
    }

    #[test]
    fn adaptive_play_on_real_data_reduces_regret() {
        let config = quick_config();
        let spec = OnlineSpec {
            rounds: 2_000,
            ..quick_spec()
        };
        let engine = EvalEngine::new();
        let outcome = run_online(&engine, &config, &spec, &ExecPolicy::default()).unwrap();
        let trace = &outcome.trace;
        let first = &trace.points[0];
        let last = trace.last();
        assert!(
            last.attacker_regret <= first.attacker_regret,
            "regret must not grow: {} -> {}",
            first.attacker_regret,
            last.attacker_regret
        );
        assert!(
            last.ne_gap <= 1e-2,
            "averaged play should be near the one-shot NE: gap {}",
            last.ne_gap
        );
    }

    #[test]
    fn bad_specs_fail_before_evaluation() {
        let engine = EvalEngine::new();
        let config = quick_config();
        let policy = ExecPolicy::default();
        let mut spec = quick_spec();
        spec.rounds = 0;
        assert!(run_online(&engine, &config, &spec, &policy).is_err());
        spec = quick_spec();
        spec.placements = vec![2.0];
        assert!(run_online(&engine, &config, &spec, &policy).is_err());
        assert_eq!(
            engine.cache_stats().misses,
            0,
            "validation must run before preparation"
        );
    }

    #[test]
    fn run_online_rejects_bad_grids() {
        let engine = EvalEngine::new();
        let config = grid_config();
        let policy = ExecPolicy::default();
        for (placements, strengths) in [(vec![], vec![0.1]), (vec![0.1], vec![1.2])] {
            let spec = OnlineSpec {
                placements,
                strengths,
                ..OnlineSpec::default()
            };
            assert!(matches!(
                run_online(&engine, &config, &spec, &policy),
                Err(OnlineError::BadParameter { .. })
            ));
        }
        assert_eq!(engine.cache_stats().misses, 0);
    }
}
