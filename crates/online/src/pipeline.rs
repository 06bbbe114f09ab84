//! Run empirical online games end to end: dataset preparation through
//! the [`EvalEngine`], payoff-grid materialization through the
//! two-phase task graph, then the sequential play loop.
//!
//! Three entry points, all producing **bit-identical traces** for the
//! same `(config, spec)`:
//!
//! * [`run_online`] — the batch front door: cached preparation, then
//!   the payoff grid fanned out across the process-wide worker pool
//!   (`poisongame_sim::exec::pool`) via [`prepare_then_map`] (the
//!   baseline is phase 1, the cells phase 2), then play. The pool's
//!   submitter-participates design means this is safe to call from
//!   inside another parallel map — e.g. a grid of online games — with
//!   no deadlock and unchanged traces.
//! * [`run_online_prepared`] — the evaluate phase alone, against an
//!   already-shared preparation (what the serving executors call).
//! * [`run_online_engine`] — the lazy [`EnginePayoff`] route: every
//!   cell query prepares through the engine (a `PrepCache` hit after
//!   the first) and memoizes locally. Same numbers, different
//!   schedule; its [`EngineStats`] shows cache hits outnumbering
//!   misses.

use crate::error::OnlineError;
use crate::payoff::{cell_seeds, empirical_baseline, empirical_entry, EnginePayoff};
use crate::play::{play, play_on_matrix, OnlineTrace, PlayConfig};
use crate::spec::OnlineSpec;
use poisongame_sim::engine::EvalEngine;
use poisongame_sim::exec::{prepare_then_map, ExecPolicy};
use poisongame_sim::pipeline::{ExperimentConfig, Prepared};
use poisongame_sim::scenario::EngineStats;
use poisongame_theory::MatrixGame;
use std::time::Instant;

/// The result of one empirical online run: the trace plus, when the
/// run went through an engine entry point, cache/throughput
/// measurements (wall-clock fields are nondeterministic — compare
/// traces, not stats).
#[derive(Debug, Clone)]
pub struct OnlineOutcome {
    /// The diagnostics trace.
    pub trace: OnlineTrace,
    /// Engine-side measurements (`None` on the prepared-only path).
    pub engine: Option<EngineStats>,
}

/// The play configuration a `(config, spec)` pair implies: the
/// experiment's master seed is recorded verbatim (the sampling stream
/// is salted inside [`crate::play::play_on_matrix`]), so the trace's
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
        engine: Some(EngineStats {
            prep_hits: after.hits - before.hits,
            prep_misses: after.misses - before.misses,
            cells: spec.n_cells(),
            elapsed_micros: start.elapsed().as_micros(),
        }),
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
    play_on_matrix(&game, &play_config(config, spec))
}

/// The lazy engine-backed route: cells materialize one query at a
/// time through [`EnginePayoff`], each preparing via the engine's
/// `PrepCache` (hits outnumber misses from the second query on).
/// Bit-identical to [`run_online`] — only the schedule differs.
///
/// # Errors
///
/// Propagates spec validation, evaluation and play failures.
pub fn run_online_engine(
    engine: &EvalEngine,
    config: &ExperimentConfig,
    spec: &OnlineSpec,
) -> Result<OnlineOutcome, OnlineError> {
    spec.validate()?;
    let before = engine.cache_stats();
    let start = Instant::now();
    let mut payoff = EnginePayoff::new(engine, config, &spec.placements, &spec.strengths)?;
    let trace = play(&mut payoff, &play_config(config, spec))?;
    let after = engine.cache_stats();
    Ok(OnlineOutcome {
        trace,
        engine: Some(EngineStats {
            prep_hits: after.hits - before.hits,
            prep_misses: after.misses - before.misses,
            cells: spec.n_cells(),
            elapsed_micros: start.elapsed().as_micros(),
        }),
    })
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
    fn engine_and_parallel_routes_are_bit_identical() {
        let config = quick_config();
        let spec = quick_spec();

        let engine = EvalEngine::new();
        let lazy = run_online_engine(&engine, &config, &spec).unwrap();
        assert_eq!(
            lazy.trace.seed, config.seed,
            "the trace records the master seed verbatim, reproducing the run"
        );
        let stats = lazy.engine.expect("engine route carries stats");
        assert_eq!(stats.cells, 9);
        assert!(
            stats.prep_hits > stats.prep_misses,
            "lazy route must hit the prep cache: {stats:?}"
        );

        let engine2 = EvalEngine::new();
        let batch = run_online(&engine2, &config, &spec, &ExecPolicy::with_threads(4)).unwrap();
        assert_eq!(
            batch.trace.to_json_string(),
            lazy.trace.to_json_string(),
            "schedules must not change the trace"
        );

        // The prepared-only route matches too (what serving calls).
        let prepared = prepare(&config).unwrap();
        let served =
            run_online_prepared(&prepared, &config, &spec, &ExecPolicy::sequential()).unwrap();
        assert_eq!(served.to_json_string(), lazy.trace.to_json_string());
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
        let mut spec = quick_spec();
        spec.rounds = 0;
        assert!(run_online(&engine, &config, &spec, &ExecPolicy::default()).is_err());
        spec = quick_spec();
        spec.placements = vec![2.0];
        assert!(run_online_engine(&engine, &config, &spec).is_err());
        assert_eq!(
            engine.cache_stats().misses,
            0,
            "validation must run before preparation"
        );
    }
}
