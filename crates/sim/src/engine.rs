//! The shared-preparation evaluation engine.
//!
//! Every experiment in this crate starts with the same expensive
//! stage — generate → split → scale the dataset — and the scenario
//! matrix, Figure 1, Table 1 and the curve estimator all re-derive it
//! from scratch per run even when they share a configuration.
//! [`EvalEngine`] threads one immutable, `Arc`-shared preparation
//! through all of them:
//!
//! * **Phase 1 (prepare):** [`EvalEngine::prepare`] keys the
//!   generate/split/scale product by a content hash of
//!   `(DataSource, seed, test_fraction)` ([`prep_key`]) and memoizes
//!   it in a [`PrepCache`], so all experiments sharing a source
//!   prepare exactly once. [`EvalEngine::prepare_batch`] deduplicates
//!   a whole config list and prepares the distinct keys in parallel
//!   (via [`crate::exec::prepare_then_map`]'s phase-1 scheduling).
//! * **Phase 2 (evaluate):** the `*_prepared` entry points of
//!   [`crate::scenario`], [`crate::fig1`], [`crate::table1`] and
//!   [`crate::estimate`] fan cells out across the worker pool against
//!   the shared context.
//!
//! Determinism: per-cell SplitMix64 seed derivation is untouched, and
//! a cached preparation is the *same pure function output* a cold run
//! computes — caching removes redundant identical computation only, so
//! engine results are bit-identical to the cold golden path (pinned by
//! `tests/determinism.rs` and `tests/scenario_compat.rs`).
//!
//! Every artifact has one entry point here, and each validates its
//! parameters before it pays for a preparation.
//!
//! # Example
//!
//! ```no_run
//! use poisongame_sim::engine::EvalEngine;
//! use poisongame_sim::pipeline::ExperimentConfig;
//! use poisongame_sim::scenario::ScenarioMatrix;
//!
//! let engine = EvalEngine::new();
//! let config = ExperimentConfig::paper().quick();
//! // First run prepares the dataset; the second answers from the store.
//! let a = engine.run_matrix(&config, &ScenarioMatrix::default()).unwrap();
//! let b = engine.run_matrix(&config, &ScenarioMatrix::default()).unwrap();
//! assert_eq!(a, b);
//! assert_eq!(engine.cache_stats().hits, 1);
//! ```

use crate::error::SimError;
use crate::estimate::{estimate_curves_prepared, validate_grids, CurveEstimate};
use crate::exec::ExecPolicy;
use crate::fig1::{run_fig1_prepared, validate_strengths, Fig1Config, Fig1Results};
use crate::monte_carlo::{simulate_repeated_game_parallel, MonteCarloResults};
use crate::pipeline::{prepare_data, DataSource, ExperimentConfig, Prepared, PreparedData};
use crate::scaling::{run_scaling_with, ScalingResults};
use crate::scenario::{
    run_matrix_prepared, validate_matrix, EngineStats, MatrixResults, ScenarioMatrix,
};
use crate::table1::{run_table1_prepared, validate_support_sizes, Table1Results};
use poisongame_core::{Algorithm1Config, DefenderMixedStrategy, PoisonGame};
use poisongame_data::{CacheStats, ContentHash, PrepCache};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// Key of one dataset preparation: everything [`prepare_data`] reads,
/// nothing it ignores. Configs that differ only in budget, epochs or
/// scenario share a key — and therefore a cached preparation.
///
/// The key carries the full inputs *and* a precomputed content hash:
/// `Hash` feeds the map the cheap 64-bit digest (computed once, at
/// construction), while `Eq` compares the actual fields (floats by
/// bit pattern), so a digest collision costs at most a rebuild —
/// never a wrong cache hit.
///
/// A file source without a pinned checksum is cached under what the
/// file looks like at the cache lookup as well: its length and
/// modification time, or a marker that it was absent. The engine
/// stamps the key on every lookup ([`EvalEngine::prepare`],
/// [`EvalEngine::prepare_shared`], [`EvalEngine::prepare_batch`]), on
/// the thread that then prepares the file, so building a key reads no
/// file. A file rewritten in place (new mtime) or created after its
/// synthetic fallback was cached therefore gets a fresh preparation.
/// The stamp is read before the file: a rewrite racing that read can
/// leave its rows under the earlier stamp, but every lookup after the
/// rewrite sees the new stamp and misses.
#[derive(Debug, Clone)]
pub struct PrepKey {
    hash: u64,
    source: DataSource,
    seed: u64,
    test_fraction: f64,
    /// `Some` only on a stamped unpinned file source (see
    /// [`PrepKey::stamped`]).
    file_stamp: Option<FileStamp>,
}

/// What `fs::metadata` reported for an unpinned file source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FileStamp {
    /// The file does not exist (the preparation is the synthetic
    /// fallback).
    Absent,
    /// The metadata could not be read (the preparation will fail, and
    /// failures are never cached).
    Unreadable,
    /// Length in bytes and modification time in nanoseconds since the
    /// Unix epoch (`0` where the platform reports none).
    Present { len: u64, modified_nanos: u64 },
}

impl FileStamp {
    fn of(path: &str) -> Self {
        match std::fs::metadata(path) {
            Ok(meta) => FileStamp::Present {
                len: meta.len(),
                modified_nanos: meta
                    .modified()
                    .ok()
                    .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                    .map_or(0, |d| d.as_nanos().min(u128::from(u64::MAX)) as u64),
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => FileStamp::Absent,
            Err(_) => FileStamp::Unreadable,
        }
    }

    fn fold(self, h: ContentHash) -> ContentHash {
        match self {
            FileStamp::Absent => h.u64(0),
            FileStamp::Unreadable => h.u64(1),
            FileStamp::Present {
                len,
                modified_nanos,
            } => h.u64(2).u64(len).u64(modified_nanos),
        }
    }
}

impl PrepKey {
    /// Build the key (and its content hash) for one preparation.
    pub fn new(source: &DataSource, seed: u64, test_fraction: f64) -> Self {
        let h = ContentHash::new().u64(seed).f64(test_fraction);
        let hash = match source {
            DataSource::SyntheticSpambase { rows } => h.str("synthetic_spambase").u64(*rows as u64),
            DataSource::Blobs {
                per_class,
                dim,
                offset,
                sigma,
            } => h
                .str("blobs")
                .u64(*per_class as u64)
                .u64(*dim as u64)
                .f64(*offset)
                .f64(*sigma),
            DataSource::CsvText { text } => h.str("csv_text").str(text),
            // `chunk_rows` / `max_inflight_chunks` are execution
            // knobs, not content: they only size the chunks and waves
            // of the one streaming preparation, and every value gives
            // bit-identical results (pinned by `tests/ingest.rs`), so
            // they share a key.
            DataSource::File {
                path,
                checksum,
                format,
                ..
            } => {
                let h = h.str("file").str(path).str(format);
                match checksum {
                    Some(c) => h.u64(1).u64(*c),
                    None => h.u64(0),
                }
            }
        }
        .finish();
        Self {
            hash,
            source: source.clone(),
            seed,
            test_fraction,
            file_stamp: None,
        }
    }

    /// The precomputed 64-bit content digest (diagnostic — equality is
    /// decided by the full fields). It reads no file, so it is the same
    /// for every state of an unpinned file source.
    pub fn content_hash(&self) -> u64 {
        self.hash
    }

    /// The key the store caches this preparation under: an unpinned
    /// file source gets the file's current [`FileStamp`]; every other
    /// source is returned as is.
    fn stamped(&self) -> Cow<'_, PrepKey> {
        let DataSource::File {
            path,
            checksum: None,
            ..
        } = &self.source
        else {
            return Cow::Borrowed(self);
        };
        let stamp = FileStamp::of(path);
        Cow::Owned(PrepKey {
            hash: stamp.fold(ContentHash::new().u64(self.hash)).finish(),
            file_stamp: Some(stamp),
            ..self.clone()
        })
    }

    /// Run the preparation this key describes.
    fn prepare(&self) -> Result<PreparedData, SimError> {
        prepare_data(&self.source, self.seed, self.test_fraction)
    }
}

/// Float fields compare by exact bit pattern: cache identity must be
/// total and reflexive even for values `prepare_data` would reject.
fn source_bits_eq(a: &DataSource, b: &DataSource) -> bool {
    match (a, b) {
        (
            DataSource::SyntheticSpambase { rows: ra },
            DataSource::SyntheticSpambase { rows: rb },
        ) => ra == rb,
        (
            DataSource::Blobs {
                per_class: pa,
                dim: da,
                offset: oa,
                sigma: sa,
            },
            DataSource::Blobs {
                per_class: pb,
                dim: db,
                offset: ob,
                sigma: sb,
            },
        ) => pa == pb && da == db && oa.to_bits() == ob.to_bits() && sa.to_bits() == sb.to_bits(),
        (DataSource::CsvText { text: ta }, DataSource::CsvText { text: tb }) => ta == tb,
        (
            DataSource::File {
                path: pa,
                checksum: ca,
                format: fa,
                ..
            },
            DataSource::File {
                path: pb,
                checksum: cb,
                format: fb,
                ..
            },
        ) => {
            // Chunking knobs are excluded here exactly as they are
            // from the hash above: they don't change the prepared
            // bytes, so differently-chunked configs share the cache
            // entry.
            pa == pb && ca == cb && fa == fb
        }
        _ => false,
    }
}

impl PartialEq for PrepKey {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash
            && self.seed == other.seed
            && self.test_fraction.to_bits() == other.test_fraction.to_bits()
            && self.file_stamp == other.file_stamp
            && source_bits_eq(&self.source, &other.source)
    }
}

impl Eq for PrepKey {}

impl std::hash::Hash for PrepKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// [`PrepKey`] for a standalone `(source, seed, test_fraction)` triple.
pub fn prep_key(source: &DataSource, seed: u64, test_fraction: f64) -> PrepKey {
    PrepKey::new(source, seed, test_fraction)
}

/// [`PrepKey`] of a whole experiment config.
pub fn config_prep_key(config: &ExperimentConfig) -> PrepKey {
    PrepKey::new(&config.source, config.seed, config.test_fraction)
}

/// The shared-preparation evaluation engine: an execution policy plus
/// a keyed preparation store, threading one immutable context through
/// every experiment routed through it.
#[derive(Debug, Default)]
pub struct EvalEngine {
    policy: ExecPolicy,
    store: PrepCache<PrepKey, PreparedData>,
}

impl EvalEngine {
    /// Engine on the default (fully parallel) execution policy and a
    /// cold store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Engine with an explicit execution policy.
    pub fn with_policy(policy: ExecPolicy) -> Self {
        Self {
            policy,
            ..Self::default()
        }
    }

    /// Bound the preparation store at `capacity` resident entries with
    /// least-recently-used eviction (see
    /// [`poisongame_data::cache::PrepCache::bounded`]). The default is
    /// unbounded — right for batch sweeps over a handful of sources,
    /// a leak for a long-lived server seeing an open-ended stream of
    /// configurations. Replaces the store, so call it at construction
    /// time.
    pub fn bound_cache(mut self, capacity: usize) -> Self {
        self.store = PrepCache::bounded(capacity);
        self
    }

    /// The preparation store's bound (`None` = unbounded).
    pub fn cache_capacity(&self) -> Option<usize> {
        self.store.capacity()
    }

    /// The engine's execution policy.
    pub fn policy(&self) -> &ExecPolicy {
        &self.policy
    }

    /// Preparation-store hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.store.stats()
    }

    /// Number of distinct preparations currently cached.
    pub fn cached_preparations(&self) -> usize {
        self.store.len()
    }

    /// Drop every cached preparation (counters are kept).
    pub fn clear_cache(&self) {
        self.store.clear();
    }

    /// Phase 1 for one config: the cached generate → split → scale
    /// product, shared by `Arc`, plus the config's own poison budget.
    ///
    /// # Errors
    ///
    /// Propagates preparation and budget-validation failures.
    pub fn prepare(&self, config: &ExperimentConfig) -> Result<Prepared, SimError> {
        let data = self.prepare_shared(&config_prep_key(config))?;
        Prepared::from_shared(data, config)
    }

    /// Phase 1 by explicit key: the cached generate → split → scale
    /// product for `key`, shared by `Arc`. This is the hook external
    /// schedulers (the serving executors) use to share preparations
    /// across concurrent requests without going through a full config;
    /// the store is single-flight, so concurrent misses on `key`
    /// prepare it once.
    ///
    /// # Errors
    ///
    /// Propagates preparation failures.
    pub fn prepare_shared(&self, key: &PrepKey) -> Result<Arc<PreparedData>, SimError> {
        let key = key.stamped();
        self.store
            .get_or_try_insert_with(key.clone().into_owned(), || key.prepare())
    }

    /// Phase 1 for a batch, scheduled by
    /// [`crate::exec::prepare_then_map`]: configs' prep keys are
    /// deduplicated (each key hashed once), each distinct key prepared
    /// once across the pool, and every config handed an `Arc` of its
    /// shared data. The dedup happens before the fan-out, so the store
    /// sees each key from exactly one worker.
    ///
    /// # Errors
    ///
    /// The first preparation error in first-occurrence key order, then
    /// any budget-validation failure in config order.
    pub fn prepare_batch(&self, configs: &[ExperimentConfig]) -> Result<Vec<Prepared>, SimError> {
        crate::exec::prepare_then_map(
            &self.policy,
            configs,
            config_prep_key,
            |key| self.prepare_shared(key),
            |_, config, data: &Arc<PreparedData>| Prepared::from_shared(Arc::clone(data), config),
        )
    }

    /// Run a scenario matrix through the two-phase graph: cached
    /// prepare, then [`crate::scenario::run_matrix_prepared`]. The
    /// returned [`EngineStats`] additionally reports cache traffic and
    /// throughput (ignored by equality).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadParameter`] for an empty axis or an
    /// out-of-range strength (before preparing) and propagates
    /// preparation and per-cell pipeline failures.
    pub fn run_matrix(
        &self,
        config: &ExperimentConfig,
        matrix: &ScenarioMatrix,
    ) -> Result<MatrixResults, SimError> {
        validate_matrix(matrix)?;
        let before = self.store.stats();
        let start = Instant::now();
        let prepared = self.prepare(config)?;
        let mut results = run_matrix_prepared(&prepared, config, matrix, &self.policy)?;
        let after = self.store.stats();
        results.engine = Some(EngineStats {
            prep_hits: after.hits - before.hits,
            prep_misses: after.misses - before.misses,
            cells: results.cells.len(),
            elapsed_micros: start.elapsed().as_micros(),
        });
        Ok(results)
    }

    /// Run the Figure 1 sweep with cached preparation (see
    /// [`crate::fig1::run_fig1_prepared`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadParameter`] for an empty or out-of-range
    /// strength grid (before preparing) and propagates preparation and
    /// pipeline failures.
    pub fn run_fig1(
        &self,
        config: &ExperimentConfig,
        sweep: &Fig1Config,
    ) -> Result<Fig1Results, SimError> {
        validate_strengths(&sweep.strengths)?;
        let prepared = self.prepare(config)?;
        run_fig1_prepared(&prepared, config, sweep, &self.policy)
    }

    /// Run Table 1 with cached preparation (see
    /// [`crate::table1::run_table1_prepared`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadParameter`] for an empty size list
    /// (before preparing) and propagates preparation, solver and
    /// pipeline failures.
    pub fn run_table1(
        &self,
        config: &ExperimentConfig,
        curves: &CurveEstimate,
        support_sizes: &[usize],
        best_pure_accuracy: f64,
    ) -> Result<Table1Results, SimError> {
        validate_support_sizes(support_sizes)?;
        let prepared = self.prepare(config)?;
        run_table1_prepared(
            &prepared,
            config,
            curves,
            support_sizes,
            best_pure_accuracy,
            &self.policy,
        )
    }

    /// Estimate the game curves with cached preparation, fanning the
    /// estimate's cells out on the engine's policy (see
    /// [`crate::estimate::estimate_curves_prepared`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadParameter`] for an empty grid or a grid
    /// value outside `[0, 1)` (before preparing) and otherwise the
    /// conditions of [`crate::estimate::estimate_curves_prepared`],
    /// plus preparation failures.
    pub fn estimate_curves(
        &self,
        config: &ExperimentConfig,
        placements: &[f64],
        strengths: &[f64],
    ) -> Result<CurveEstimate, SimError> {
        validate_grids(placements, strengths)?;
        let prepared = self.prepare(config)?;
        estimate_curves_prepared(&prepared, config, placements, strengths, &self.policy)
    }

    /// Run the §5 scaling experiment on the engine's policy (no
    /// dataset preparation involved — routed here so one engine drives
    /// every experiment).
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::scaling::run_scaling_with`].
    pub fn run_scaling(
        &self,
        curves: &CurveEstimate,
        support_sizes: &[usize],
        base: &Algorithm1Config,
    ) -> Result<ScalingResults, SimError> {
        run_scaling_with(curves, support_sizes, base, &self.policy)
    }

    /// Run the Monte-Carlo repeated-game simulation on the engine's
    /// policy.
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`crate::monte_carlo::simulate_repeated_game_parallel`].
    pub fn simulate_repeated_game(
        &self,
        game: &PoisonGame,
        strategy: &DefenderMixedStrategy,
        rounds_per_replicate: usize,
        replicates: usize,
        master_seed: u64,
    ) -> Result<MonteCarloResults, SimError> {
        simulate_repeated_game_parallel(
            game,
            strategy,
            rounds_per_replicate,
            replicates,
            master_seed,
            &self.policy,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{hugging_placement, prepare, run_cell};
    use poisongame_defense::FilterStrength;
    use rand::SeedableRng;

    fn quick_config(seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            seed,
            source: DataSource::SyntheticSpambase { rows: 400 },
            epochs: 25,
            ..ExperimentConfig::paper()
        }
    }

    #[test]
    fn prep_key_covers_exactly_the_prepared_inputs() {
        let base = quick_config(1);
        let same_key = ExperimentConfig {
            budget_fraction: 0.05,
            epochs: 9,
            ..base.clone()
        };
        // Budget/epochs/scenario do not feed `prepare_data`.
        assert_eq!(config_prep_key(&base), config_prep_key(&same_key));
        // Everything `prepare_data` reads does.
        assert_ne!(
            config_prep_key(&base),
            config_prep_key(&ExperimentConfig {
                seed: 2,
                ..base.clone()
            })
        );
        assert_ne!(
            config_prep_key(&base),
            config_prep_key(&ExperimentConfig {
                test_fraction: 0.31,
                ..base.clone()
            })
        );
        assert_ne!(
            config_prep_key(&base),
            config_prep_key(&ExperimentConfig {
                source: DataSource::SyntheticSpambase { rows: 401 },
                ..base
            })
        );
    }

    #[test]
    fn digest_collision_cannot_alias_keys() {
        let a = prep_key(&DataSource::SyntheticSpambase { rows: 1 }, 1, 0.3);
        let mut b = prep_key(&DataSource::SyntheticSpambase { rows: 2 }, 1, 0.3);
        // Forge a digest collision: equality must still see through it
        // (the map hashes the digest but compares the full fields).
        b.hash = a.hash;
        assert_eq!(a.content_hash(), b.content_hash());
        assert_ne!(a, b, "full-field equality must beat the digest");
    }

    #[test]
    fn prepare_hits_cache_and_shares_data() {
        let engine = EvalEngine::new();
        let config = quick_config(3);
        let a = engine.prepare(&config).unwrap();
        let b = engine.prepare(&config).unwrap();
        assert!(Arc::ptr_eq(&a.data, &b.data), "second prepare must share");
        assert_eq!(
            engine.cache_stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
        assert_eq!(engine.cached_preparations(), 1);
        // Same data key, different budget: shared data, new budget.
        let half = ExperimentConfig {
            budget_fraction: 0.1,
            ..config
        };
        let c = engine.prepare(&half).unwrap();
        assert!(Arc::ptr_eq(&a.data, &c.data));
        assert_eq!(c.n_poison, (a.train().len() as f64 * 0.1).round() as usize);
        assert_eq!(engine.cache_stats().hits, 2);
    }

    #[test]
    fn prepare_batch_prepares_once_per_distinct_key() {
        let engine = EvalEngine::new();
        // Four configs over two distinct (source, seed, fraction) keys.
        let configs = vec![
            quick_config(1),
            quick_config(2),
            ExperimentConfig {
                budget_fraction: 0.1,
                ..quick_config(1)
            },
            quick_config(2),
        ];
        let prepared = engine.prepare_batch(&configs).unwrap();
        assert_eq!(prepared.len(), 4);
        assert_eq!(engine.cached_preparations(), 2);
        assert_eq!(engine.cache_stats().misses, 2);
        assert!(Arc::ptr_eq(&prepared[0].data, &prepared[2].data));
        assert!(Arc::ptr_eq(&prepared[1].data, &prepared[3].data));
        assert!(!Arc::ptr_eq(&prepared[0].data, &prepared[1].data));
        // Budgets follow the configs, not the shared data.
        assert_ne!(prepared[0].n_poison, prepared[2].n_poison);
    }

    #[test]
    fn engine_matrix_matches_cold_path_and_reports_stats() {
        let config = quick_config(7);
        let matrix = ScenarioMatrix::default();
        let cold = run_matrix_prepared(
            &prepare(&config).unwrap(),
            &config,
            &matrix,
            &ExecPolicy::default(),
        )
        .unwrap();
        let engine = EvalEngine::new();
        let first = engine.run_matrix(&config, &matrix).unwrap();
        let second = engine.run_matrix(&config, &matrix).unwrap();
        // Equality ignores the stats block; cells must be identical.
        assert_eq!(cold, first);
        assert_eq!(first, second);
        let s1 = first.engine.expect("engine run carries stats");
        let s2 = second.engine.expect("engine run carries stats");
        assert_eq!((s1.prep_hits, s1.prep_misses), (0, 1), "first run is cold");
        assert_eq!((s2.prep_hits, s2.prep_misses), (1, 0), "second run hits");
        assert_eq!(s1.cells, 1);
        assert!(cold.engine.is_none());
    }

    #[test]
    fn engine_fig1_is_bit_identical_to_cold_prepared() {
        let config = quick_config(9);
        let sweep = Fig1Config {
            strengths: vec![0.0, 0.1, 0.2],
            placement_slack: 0.01,
        };
        let cold = run_fig1_prepared(
            &prepare(&config).unwrap(),
            &config,
            &sweep,
            &ExecPolicy::sequential(),
        )
        .unwrap();
        let engine = EvalEngine::new();
        let cached = engine.run_fig1(&config, &sweep).unwrap();
        assert_eq!(cold, cached, "cache must not change results");
        for (c, e) in cold.rows.iter().zip(&cached.rows) {
            assert_eq!(
                c.accuracy_under_attack.to_bits(),
                e.accuracy_under_attack.to_bits()
            );
            assert_eq!(c.accuracy_clean.to_bits(), e.accuracy_clean.to_bits());
        }
    }

    #[test]
    fn engine_matrix_cells_equal_run_cell_of_their_seed() {
        let config = quick_config(13);
        let matrix = ScenarioMatrix {
            attacks: vec![
                crate::scenario::AttackSpec::Boundary,
                crate::scenario::AttackSpec::LabelFlip,
            ],
            ..ScenarioMatrix::default()
        };
        let engine = EvalEngine::new();
        let results = engine.run_matrix(&config, &matrix).unwrap();
        let prepared = engine.prepare(&config).unwrap();
        let placement = hugging_placement(&prepared, matrix.strength, matrix.placement_slack);
        assert_eq!(results.cells.len(), 2);
        for cell in &results.cells {
            let mut rng = poisongame_linalg::Xoshiro256StarStar::seed_from_u64(cell.cell_seed);
            let alone = run_cell(
                &prepared,
                &cell.scenario,
                placement,
                FilterStrength::RemoveFraction(matrix.strength),
                &config,
                &mut rng,
            )
            .unwrap();
            assert_eq!(alone, cell.outcome);
            assert_eq!(
                alone.accuracy.to_bits(),
                cell.outcome.accuracy.to_bits(),
                "batched eval must be bit-identical to per-cell eval"
            );
        }
    }

    /// Run `call` on a fresh engine against a file source whose
    /// preparation fails with an I/O error (the path runs through a
    /// regular file, so opening it is `ENOTDIR`, not the absent-file
    /// fallback). The call must fail with `BadParameter { what }`
    /// without having tried to prepare: a preparation would have been
    /// a cache miss and an I/O error.
    fn assert_rejected_before_prepare<T: std::fmt::Debug>(
        what: &str,
        call: impl Fn(&EvalEngine, &ExperimentConfig) -> Result<T, SimError>,
    ) {
        let config = ExperimentConfig {
            source: DataSource::File {
                path: concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/absent.csv").into(),
                checksum: None,
                format: "spambase".into(),
                chunk_rows: None,
                max_inflight_chunks: None,
            },
            ..quick_config(17)
        };
        let engine = EvalEngine::new();
        let err = call(&engine, &config).expect_err("bad parameters must be rejected");
        assert!(
            matches!(err, SimError::BadParameter { what: w, .. } if w == what),
            "expected BadParameter({what}), got {err:?}"
        );
        assert_eq!(engine.cache_stats().misses, 0, "{what}: prepared first");
        assert!(
            matches!(engine.prepare(&config), Err(SimError::Ingest(_))),
            "the fixture must fail to prepare"
        );
    }

    #[test]
    fn run_fig1_validates_the_grid_before_preparing() {
        for (strengths, what) in [(vec![], "strengths"), (vec![0.1, 1.2], "strength")] {
            let sweep = Fig1Config {
                strengths,
                placement_slack: 0.01,
            };
            assert_rejected_before_prepare(what, |engine, config| engine.run_fig1(config, &sweep));
        }
    }

    #[test]
    fn estimate_curves_validates_the_grids_before_preparing() {
        for (placements, strengths, what) in [
            (vec![], vec![0.1], "grids"),
            (vec![0.1], vec![], "grids"),
            (vec![0.1, f64::NAN], vec![0.1], "placement"),
            (vec![0.1], vec![-0.1], "strength"),
        ] {
            assert_rejected_before_prepare(what, |engine, config| {
                engine.estimate_curves(config, &placements, &strengths)
            });
        }
    }

    #[test]
    fn run_table1_validates_support_sizes_before_preparing() {
        let curves = CurveEstimate {
            effect: poisongame_core::EffectCurve::from_samples(&[(0.0, 1e-4), (0.4, 0.0)]).unwrap(),
            cost: poisongame_core::CostCurve::from_samples(&[(0.0, 0.0), (0.4, 0.05)]).unwrap(),
            effect_samples: vec![],
            cost_samples: vec![],
            baseline_accuracy: 0.9,
            n_poison: 10,
        };
        assert_rejected_before_prepare("support_sizes", |engine, config| {
            engine.run_table1(config, &curves, &[], 0.8)
        });
    }

    #[test]
    fn run_matrix_validates_the_matrix_before_preparing() {
        let empty = ScenarioMatrix {
            learners: vec![],
            ..ScenarioMatrix::default()
        };
        assert_rejected_before_prepare("matrix axes", |engine, config| {
            engine.run_matrix(config, &empty)
        });
        let too_strong = ScenarioMatrix {
            strength: 1.0,
            ..ScenarioMatrix::default()
        };
        assert_rejected_before_prepare("strength", |engine, config| {
            engine.run_matrix(config, &too_strong)
        });
    }

    #[test]
    fn bounded_engine_evicts_and_reprepares() {
        // Three distinct keys through a 2-entry store: the oldest is
        // evicted, and preparing it again is a miss — never an error,
        // never a changed result.
        let engine = EvalEngine::new().bound_cache(2);
        assert_eq!(engine.cache_capacity(), Some(2));
        let a = engine.prepare(&quick_config(1)).unwrap();
        engine.prepare(&quick_config(2)).unwrap();
        engine.prepare(&quick_config(3)).unwrap();
        assert_eq!(engine.cached_preparations(), 2);
        assert_eq!(engine.cache_stats().evictions, 1);
        let again = engine.prepare(&quick_config(1)).unwrap();
        assert_eq!(engine.cache_stats().misses, 4, "evicted key re-prepares");
        assert_eq!(*a.data, *again.data, "rebuild is bit-identical");
        // The unbounded default reports no bound.
        assert_eq!(EvalEngine::new().cache_capacity(), None);
    }

    #[test]
    fn prepare_shared_matches_config_prepare() {
        let engine = EvalEngine::new();
        let config = quick_config(21);
        let by_key = engine.prepare_shared(&config_prep_key(&config)).unwrap();
        let by_config = engine.prepare(&config).unwrap();
        assert!(Arc::ptr_eq(&by_key, &by_config.data));
        assert_eq!(engine.cache_stats().misses, 1);
        assert_eq!(engine.cache_stats().hits, 1);
    }

    #[test]
    fn clear_cache_forces_reprepare() {
        let engine = EvalEngine::new();
        let config = quick_config(11);
        engine.prepare(&config).unwrap();
        engine.clear_cache();
        assert_eq!(engine.cached_preparations(), 0);
        engine.prepare(&config).unwrap();
        assert_eq!(engine.cache_stats().misses, 2);
    }
}
