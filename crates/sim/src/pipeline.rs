//! Dataset preparation and the shared attack → filter → train →
//! evaluate loop.
//!
//! Every experiment cell dispatches through the configured
//! [`Scenario`] ([`run_cell`] is the single dispatch point), so the
//! attack, sanitizer and victim model are all pluggable; the default
//! scenario reproduces the paper's hardcoded triple bit-for-bit.

use crate::error::SimError;
use crate::jsonio::{self, Json};
use crate::scenario::Scenario;
use poisongame_attack::ThreatModel;
use poisongame_core::{Algorithm1Config, SolverKind};
use poisongame_data::scale::StandardScaler;
use poisongame_data::split::train_test_split;
use poisongame_data::synth::{gaussian_blobs, spambase_like, SpambaseConfig};
use poisongame_data::{DataView, Dataset, PoisonedView};
use poisongame_defense::{CentroidEstimator, FilterAccounting, FilterStrength};
use poisongame_linalg::Xoshiro256StarStar;
use poisongame_ml::batch::batched_accuracy;
use poisongame_ml::{FitKernel, LinearState, TrainConfig};
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Which dataset the experiment runs on.
#[derive(Debug, Clone, PartialEq)]
pub enum DataSource {
    /// The synthetic Spambase stand-in (see `poisongame-data`).
    SyntheticSpambase {
        /// Number of rows (UCI: 4601).
        rows: usize,
    },
    /// Gaussian blobs — small and fast, for tests and the quickstart.
    Blobs {
        /// Points per class.
        per_class: usize,
        /// Feature dimension.
        dim: usize,
        /// Class-mean separation.
        offset: f64,
        /// Isotropic standard deviation.
        sigma: f64,
    },
    /// A verbatim Spambase-format CSV (drop-in for the real UCI file),
    /// width inferred from the first row. Read by the same strict
    /// streaming parser as `File`; the last row may omit its newline.
    CsvText {
        /// The file contents.
        text: String,
    },
    /// A checksummed CSV file on disk, streamed through
    /// `poisongame-io`. An *absent* file falls back deterministically
    /// to the synthetic generator (CI stays green offline); a present
    /// file is validated against `checksum` and always prepped out of
    /// core, in chunks scattered straight into their train/test rows.
    File {
        /// Path to the CSV (under the server's `--data-dir` when the
        /// spec arrives over the wire).
        path: String,
        /// Pinned FNV-1a hash of the file's raw bytes
        /// (`poisongame_io::checksum_bytes`); `None` skips validation.
        checksum: Option<u64>,
        /// Registered format name (`"spambase"`, `"csv"`).
        format: String,
        /// Rows per checkpointed segment (default
        /// `poisongame_io::DEFAULT_CHUNK_ROWS`). Only sizes the
        /// segments: every value gives bit-identical results.
        chunk_rows: Option<usize>,
        /// Cap on segments read and parsed at once — the out-of-core
        /// memory budget in units of `chunk_rows` rows (default
        /// [`crate::ingest::DEFAULT_MAX_INFLIGHT_CHUNKS`], never more
        /// than the worker pool has threads). Like `chunk_rows`, it
        /// never changes the result.
        max_inflight_chunks: Option<usize>,
    },
}

impl Default for DataSource {
    fn default() -> Self {
        DataSource::SyntheticSpambase { rows: 4601 }
    }
}

/// Experiment configuration shared by Figure 1 / Table 1 / scaling.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Master seed: every random choice derives from it.
    pub seed: u64,
    /// Dataset source.
    pub source: DataSource,
    /// Held-out fraction (paper: 0.3).
    pub test_fraction: f64,
    /// Attacker budget as a fraction of the clean training set
    /// (paper: 0.2).
    pub budget_fraction: f64,
    /// SVM training epochs (paper: 5000).
    pub epochs: usize,
    /// Centroid estimator anchoring the defense filter.
    pub centroid: CentroidEstimator,
    /// Matrix-game solver for the discretized-game solves an
    /// experiment opts into (`Auto`: exact LP for small games, Hedge
    /// beyond the size limit). With the default
    /// [`Self::warm_start`]` = false` the paper's pipeline solves no
    /// matrix games, so this field has no effect until `warm_start`
    /// (or a direct [`poisongame_core::bridge`] cross-check) uses it.
    pub solver: SolverKind,
    /// Warm-start Algorithm 1 from the discretized game's NE (solved
    /// with [`Self::solver`] on a bounded seeding budget) instead of
    /// the paper's even `chooseInitialRadius(n)` spread. Off by
    /// default: the paper's behavior is preserved exactly unless
    /// opted in.
    pub warm_start: bool,
    /// Which training kernel every fit in this experiment uses.
    /// Defaults to [`FitKernel::RowSgd`] — the historical
    /// row-at-a-time loop, bit for bit — so configs that never mention
    /// a kernel (including serialized ones with the field absent)
    /// reproduce the paper's pipeline exactly. Opting into
    /// [`FitKernel::Minibatch`] trades bit-identity for blocked-GEMM
    /// throughput (tolerance-equivalent accuracy; see
    /// `poisongame-ml`).
    pub fit_kernel: FitKernel,
    /// Which attack × defense × learner triple every cell of this
    /// experiment dispatches through. Defaults to the paper's triple
    /// (boundary attack, radius filter, linear SVM), so configs that
    /// never mention a scenario — including serialized ones with the
    /// field absent — reproduce the paper's pipeline bit-for-bit.
    pub scenario: Scenario,
}

impl ExperimentConfig {
    /// The paper's experimental setup: Spambase-scale data, 70/30
    /// split, 20 % budget, 5000-epoch hinge-loss SVM.
    pub fn paper() -> Self {
        Self {
            seed: 20190607, // arXiv submission date of the paper
            source: DataSource::default(),
            test_fraction: 0.3,
            budget_fraction: 0.2,
            epochs: 5000,
            centroid: CentroidEstimator::CoordinateMedian,
            solver: SolverKind::Auto,
            warm_start: false,
            fit_kernel: FitKernel::RowSgd,
            scenario: Scenario::paper(),
        }
    }

    /// Same protocol at reduced scale/epochs — minutes-to-seconds for
    /// CI and examples. The curve *shapes* are preserved.
    pub fn quick(mut self) -> Self {
        self.epochs = 150;
        if let DataSource::SyntheticSpambase { rows } = self.source {
            self.source = DataSource::SyntheticSpambase {
                rows: rows.min(1500),
            };
        }
        self
    }

    /// Training configuration derived from this experiment.
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            seed: self.seed ^ 0x7261_696e, // "rain" — decorrelate from data seed
            kernel: self.fit_kernel,
            ..TrainConfig::default()
        }
    }

    /// Algorithm 1 configuration implied by this experiment — the one
    /// place the solver / warm-start knobs translate into an
    /// [`Algorithm1Config`].
    pub fn algorithm1_config(&self, n_radii: usize) -> Algorithm1Config {
        Algorithm1Config {
            n_radii,
            solver: self.solver,
            warm_start: self.warm_start,
            ..Algorithm1Config::default()
        }
    }

    /// The threat model implied by the budget fraction.
    pub fn threat_model(&self) -> ThreatModel {
        ThreatModel {
            budget_fraction: self.budget_fraction,
            ..ThreatModel::paper()
        }
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl ExperimentConfig {
    /// JSON form of the full config (all fields explicit). Seeds
    /// beyond 2^53 are emitted as decimal strings — a JSON `f64`
    /// number cannot carry them exactly — and
    /// [`ExperimentConfig::from_json`] accepts both forms.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seed", jsonio::big_u64_to_json(self.seed)),
            ("source", source_to_json(&self.source)),
            ("test_fraction", Json::Num(self.test_fraction)),
            ("budget_fraction", Json::Num(self.budget_fraction)),
            ("epochs", Json::Num(self.epochs as f64)),
            ("centroid", centroid_to_json(self.centroid)),
            ("solver", Json::str(solver_name(self.solver))),
            ("warm_start", Json::Bool(self.warm_start)),
            ("fit_kernel", fit_kernel_to_json(self.fit_kernel)),
            ("scenario", self.scenario.to_json()),
        ])
    }

    /// Render as a compact JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().render()
    }

    /// Parse from a JSON string. Every field is optional and defaults
    /// to [`ExperimentConfig::paper`] — in particular a config with no
    /// `scenario` field deserializes to the paper triple, so configs
    /// written before the scenario API existed keep working. Unknown
    /// keys are rejected (they are almost always typos).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] on syntax errors, unknown keys or
    /// wrongly-typed fields.
    pub fn from_json_str(text: &str) -> Result<Self, SimError> {
        let value = Json::parse(text).map_err(|e| SimError::Spec(e.to_string()))?;
        Self::from_json(&value)
    }

    /// Parse from a JSON value (see [`ExperimentConfig::from_json_str`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] on unknown keys or wrongly-typed
    /// fields.
    pub fn from_json(value: &Json) -> Result<Self, SimError> {
        if !matches!(value, Json::Obj(_)) {
            return Err(SimError::Spec("config must be a JSON object".into()));
        }
        jsonio::check_keys(
            value,
            "config",
            &[
                "seed",
                "source",
                "test_fraction",
                "budget_fraction",
                "epochs",
                "centroid",
                "solver",
                "warm_start",
                "fit_kernel",
                "scenario",
            ],
        )?;
        let mut config = Self::paper();
        if let Some(v) = value.get("seed") {
            // Numbers up to 2^53 are exact; larger seeds arrive as
            // decimal strings (see `to_json`).
            config.seed = jsonio::big_u64(v, "seed")?;
        }
        if let Some(v) = value.get("source") {
            config.source = source_from_json(v)?;
        }
        if let Some(v) = value.get("test_fraction") {
            config.test_fraction = jsonio::require_num(v, "test_fraction")?;
        }
        if let Some(v) = value.get("budget_fraction") {
            config.budget_fraction = jsonio::require_num(v, "budget_fraction")?;
        }
        if let Some(v) = value.get("epochs") {
            config.epochs = jsonio::require_u64(v, "epochs")? as usize;
        }
        if let Some(v) = value.get("centroid") {
            config.centroid = centroid_from_json(v)?;
        }
        if let Some(v) = value.get("solver") {
            config.solver = solver_from_json(v)?;
        }
        if let Some(v) = value.get("warm_start") {
            config.warm_start = jsonio::require_bool(v, "warm_start")?;
        }
        if let Some(v) = value.get("fit_kernel") {
            config.fit_kernel = fit_kernel_from_json(v)?;
        }
        if let Some(v) = value.get("scenario") {
            config.scenario = Scenario::from_json(v)?;
        }
        Ok(config)
    }
}

fn source_to_json(source: &DataSource) -> Json {
    match source {
        DataSource::SyntheticSpambase { rows } => Json::obj(vec![
            ("type", Json::str("synthetic_spambase")),
            ("rows", Json::Num(*rows as f64)),
        ]),
        DataSource::Blobs {
            per_class,
            dim,
            offset,
            sigma,
        } => Json::obj(vec![
            ("type", Json::str("blobs")),
            ("per_class", Json::Num(*per_class as f64)),
            ("dim", Json::Num(*dim as f64)),
            ("offset", Json::Num(*offset)),
            ("sigma", Json::Num(*sigma)),
        ]),
        DataSource::CsvText { text } => Json::obj(vec![
            ("type", Json::str("csv_text")),
            ("text", Json::str(text)),
        ]),
        DataSource::File {
            path,
            checksum,
            format,
            chunk_rows,
            max_inflight_chunks,
        } => {
            let mut fields = vec![
                ("type", Json::str("file")),
                ("path", Json::str(path)),
                ("format", Json::str(format)),
            ];
            if let Some(c) = checksum {
                // Checksums are full u64 hashes, so they take the
                // same beyond-2^53 string escape hatch as seeds.
                fields.push(("checksum", jsonio::big_u64_to_json(*c)));
            }
            if let Some(rows) = chunk_rows {
                fields.push(("chunk_rows", Json::Num(*rows as f64)));
            }
            if let Some(bound) = max_inflight_chunks {
                fields.push(("max_inflight_chunks", Json::Num(*bound as f64)));
            }
            Json::obj(fields)
        }
    }
}

fn source_from_json(value: &Json) -> Result<DataSource, SimError> {
    let kind = jsonio::spec_type(value, "source")?;
    let allowed: &[&str] = match kind {
        "synthetic_spambase" => &["type", "rows"],
        "blobs" => &["type", "per_class", "dim", "offset", "sigma"],
        "file" => &[
            "type",
            "path",
            "checksum",
            "format",
            "chunk_rows",
            "max_inflight_chunks",
        ],
        _ => &["type", "text"],
    };
    jsonio::check_keys(value, "source", allowed)?;
    let uint = |key: &str| -> Result<usize, SimError> {
        value
            .get(key)
            .and_then(Json::as_u64)
            .map(|v| v as usize)
            .ok_or_else(|| SimError::Spec(format!("source needs integer `{key}`")))
    };
    match kind {
        "synthetic_spambase" => Ok(DataSource::SyntheticSpambase {
            rows: uint("rows")?,
        }),
        "blobs" => Ok(DataSource::Blobs {
            per_class: uint("per_class")?,
            dim: uint("dim")?,
            offset: jsonio::require_num(
                value
                    .get("offset")
                    .ok_or_else(|| SimError::Spec("blobs source needs `offset`".into()))?,
                "offset",
            )?,
            sigma: jsonio::require_num(
                value
                    .get("sigma")
                    .ok_or_else(|| SimError::Spec("blobs source needs `sigma`".into()))?,
                "sigma",
            )?,
        }),
        "csv_text" => Ok(DataSource::CsvText {
            text: value
                .get("text")
                .and_then(Json::as_str)
                .ok_or_else(|| SimError::Spec("csv_text source needs string `text`".into()))?
                .to_string(),
        }),
        "file" => {
            let path = value
                .get("path")
                .and_then(Json::as_str)
                .ok_or_else(|| SimError::Spec("file source needs string `path`".into()))?
                .to_string();
            let checksum = value
                .get("checksum")
                .map(|v| jsonio::big_u64(v, "checksum"))
                .transpose()?;
            let format = value
                .get("format")
                .map(|v| {
                    v.as_str().map(str::to_string).ok_or_else(|| {
                        SimError::Spec("file source `format` must be a string".into())
                    })
                })
                .transpose()?
                .unwrap_or_else(|| "spambase".to_string());
            // Fail unknown formats and degenerate knobs at parse time,
            // before a request is admitted anywhere.
            poisongame_io::lookup_format(&format).map_err(|e| SimError::Spec(e.to_string()))?;
            let opt_uint = |key: &str| -> Result<Option<usize>, SimError> {
                value
                    .get(key)
                    .map(|v| {
                        v.as_u64()
                            .map(|n| n as usize)
                            .ok_or_else(|| SimError::Spec(format!("source needs integer `{key}`")))
                    })
                    .transpose()
            };
            let chunk_rows = opt_uint("chunk_rows")?;
            if chunk_rows == Some(0) {
                return Err(SimError::Spec(
                    "file source `chunk_rows` must be >= 1".into(),
                ));
            }
            let max_inflight_chunks = opt_uint("max_inflight_chunks")?;
            if max_inflight_chunks == Some(0) {
                return Err(SimError::Spec(
                    "file source `max_inflight_chunks` must be >= 1".into(),
                ));
            }
            Ok(DataSource::File {
                path,
                checksum,
                format,
                chunk_rows,
                max_inflight_chunks,
            })
        }
        other => Err(SimError::Spec(format!("unknown source type `{other}`"))),
    }
}

fn centroid_to_json(centroid: CentroidEstimator) -> Json {
    match centroid {
        CentroidEstimator::Mean => Json::str("mean"),
        CentroidEstimator::CoordinateMedian => Json::str("coordinate_median"),
        CentroidEstimator::GeometricMedian => Json::str("geometric_median"),
        CentroidEstimator::TrimmedMean { trim } => Json::obj(vec![
            ("type", Json::str("trimmed_mean")),
            ("trim", Json::Num(trim)),
        ]),
    }
}

fn centroid_from_json(value: &Json) -> Result<CentroidEstimator, SimError> {
    let kind = value
        .as_str()
        .or_else(|| value.get("type").and_then(Json::as_str))
        .ok_or_else(|| SimError::Spec("centroid must be a string or tagged object".into()))?;
    let allowed: &[&str] = if kind == "trimmed_mean" {
        &["type", "trim"]
    } else {
        &["type"]
    };
    jsonio::check_keys(value, "centroid", allowed)?;
    match kind {
        "mean" => Ok(CentroidEstimator::Mean),
        "coordinate_median" => Ok(CentroidEstimator::CoordinateMedian),
        "geometric_median" => Ok(CentroidEstimator::GeometricMedian),
        "trimmed_mean" => Ok(CentroidEstimator::TrimmedMean {
            trim: jsonio::require_num(
                value
                    .get("trim")
                    .ok_or_else(|| SimError::Spec("trimmed_mean centroid needs `trim`".into()))?,
                "trim",
            )?,
        }),
        other => Err(SimError::Spec(format!("unknown centroid `{other}`"))),
    }
}

/// The stable wire name of a [`SolverKind`] (`"auto"`, `"simplex"`,
/// `"fictitious_play"`, `"multiplicative_weights"`) — the inverse of
/// [`solver_from_name`]. Shared by config serialization and the
/// serving protocol.
pub fn solver_name(solver: SolverKind) -> &'static str {
    match solver {
        SolverKind::Auto => "auto",
        SolverKind::Simplex => "simplex",
        SolverKind::FictitiousPlay => "fictitious_play",
        SolverKind::MultiplicativeWeights => "multiplicative_weights",
    }
}

/// Parse a solver's stable wire name (see [`solver_name`]).
///
/// # Errors
///
/// Returns [`SimError::Spec`] for an unknown name.
pub fn solver_from_name(name: &str) -> Result<SolverKind, SimError> {
    match name {
        "auto" => Ok(SolverKind::Auto),
        "simplex" => Ok(SolverKind::Simplex),
        "fictitious_play" => Ok(SolverKind::FictitiousPlay),
        "multiplicative_weights" => Ok(SolverKind::MultiplicativeWeights),
        other => Err(SimError::Spec(format!("unknown solver `{other}`"))),
    }
}

fn solver_from_json(value: &Json) -> Result<SolverKind, SimError> {
    match value.as_str() {
        Some(name) => solver_from_name(name),
        None => Err(SimError::Spec("solver must be a string".into())),
    }
}

fn fit_kernel_to_json(kernel: FitKernel) -> Json {
    match kernel {
        FitKernel::RowSgd => Json::str("row_sgd"),
        FitKernel::Minibatch { batch } => Json::obj(vec![
            ("type", Json::str("minibatch")),
            ("batch", Json::Num(batch as f64)),
        ]),
    }
}

fn fit_kernel_from_json(value: &Json) -> Result<FitKernel, SimError> {
    let kind = value
        .as_str()
        .or_else(|| value.get("type").and_then(Json::as_str))
        .ok_or_else(|| SimError::Spec("fit_kernel must be a string or tagged object".into()))?;
    let allowed: &[&str] = if kind == "minibatch" {
        &["type", "batch"]
    } else {
        &["type"]
    };
    jsonio::check_keys(value, "fit_kernel", allowed)?;
    match kind {
        "row_sgd" => Ok(FitKernel::RowSgd),
        "minibatch" => {
            let batch = value.get("batch").and_then(Json::as_u64).ok_or_else(|| {
                SimError::Spec("minibatch fit_kernel needs integer `batch`".into())
            })? as usize;
            if batch == 0 {
                return Err(SimError::Spec("minibatch `batch` must be >= 1".into()));
            }
            Ok(FitKernel::Minibatch { batch })
        }
        other => Err(SimError::Spec(format!("unknown fit_kernel `{other}`"))),
    }
}

/// The cacheable product of dataset preparation: everything derived
/// from `(source, seed, test_fraction)` alone — no budget, no
/// scenario. This is the unit the engine's preparation store keys by
/// content hash and shares (`Arc`) across every cell of a grid.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedData {
    /// Scaled training data (clean).
    pub train: Dataset,
    /// Scaled held-out data.
    pub test: Dataset,
    /// The scaler fitted on the raw training split.
    pub scaler: StandardScaler,
}

impl PreparedData {
    /// FNV-1a digest of both splits — every feature bit and label, in
    /// row order. Two preparations are byte-identical iff their
    /// digests match (up to hash collision), which is how the ingest
    /// smoke pins two chunk sizes equal without holding both in memory.
    pub fn content_digest(&self) -> u64 {
        let mut h = poisongame_data::ContentHash::new();
        for split in [&self.train, &self.test] {
            h = h.u64(split.len() as u64).u64(split.dim() as u64);
            for v in split.features().as_slice() {
                h = h.f64(*v);
            }
            for label in split.labels() {
                h = h.u64(u64::from(*label == poisongame_data::Label::Positive));
            }
        }
        h.finish()
    }
}

/// A prepared experiment: the shared immutable data plus the
/// config-dependent poison budget.
///
/// Cloning a `Prepared` (or deriving several from one cached
/// [`PreparedData`]) shares the underlying datasets — cells of a
/// sweep never copy the clean splits.
#[derive(Debug, Clone, PartialEq)]
pub struct Prepared {
    /// The shared generate → split → scale product.
    pub data: Arc<PreparedData>,
    /// Number of poison points the budget allows.
    pub n_poison: usize,
}

impl Prepared {
    /// Assemble from shared data and an experiment's budget settings.
    ///
    /// # Errors
    ///
    /// Returns the budget-validation error of
    /// [`ThreatModel::new`].
    pub fn from_shared(
        data: Arc<PreparedData>,
        config: &ExperimentConfig,
    ) -> Result<Self, SimError> {
        // Validate the budget once at construction; `budget_points`
        // itself is infallible.
        let threat = config.threat_model();
        let n_poison = ThreatModel::new(threat.budget_fraction, threat.knowledge)?
            .budget_points(data.train.len());
        Ok(Self { data, n_poison })
    }

    /// Scaled training data (clean).
    pub fn train(&self) -> &Dataset {
        &self.data.train
    }

    /// Scaled held-out data.
    pub fn test(&self) -> &Dataset {
        &self.data.test
    }

    /// The scaler fitted on the raw training split.
    pub fn scaler(&self) -> &StandardScaler {
        &self.data.scaler
    }
}

/// Generate, split and scale the dataset for an experiment — the pure
/// function of `(source, seed, test_fraction)` the preparation cache
/// memoizes.
///
/// # Errors
///
/// Propagates dataset generation/splitting/scaling failures.
pub fn prepare_data(
    source: &DataSource,
    seed: u64,
    test_fraction: f64,
) -> Result<PreparedData, SimError> {
    let started = Instant::now();
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let synthetic = |rows: usize, rng: &mut Xoshiro256StarStar| {
        spambase_like(
            &SpambaseConfig {
                rows,
                ..SpambaseConfig::default()
            },
            rng,
        )
    };
    let prepared = match source {
        DataSource::SyntheticSpambase { rows } => {
            split_and_scale(&synthetic(*rows, &mut rng), test_fraction, &mut rng)?
        }
        DataSource::Blobs {
            per_class,
            dim,
            offset,
            sigma,
        } => {
            let full = gaussian_blobs(*per_class, *dim, *offset, *sigma, &mut rng);
            split_and_scale(&full, test_fraction, &mut rng)?
        }
        DataSource::CsvText { text } => {
            crate::ingest::load_csv_text(text, test_fraction, &mut rng)?
        }
        DataSource::File {
            path,
            checksum,
            format,
            chunk_rows,
            max_inflight_chunks,
        } => match crate::ingest::load_file(
            path,
            *checksum,
            format,
            *chunk_rows,
            *max_inflight_chunks,
            test_fraction,
            &mut rng,
        )? {
            crate::ingest::Loaded::Prepared(prepared) => prepared,
            // Absent file: generate exactly what the
            // `SyntheticSpambase` arm would, from the same rng state.
            crate::ingest::Loaded::Fallback(rows) => {
                split_and_scale(&synthetic(rows, &mut rng), test_fraction, &mut rng)?
            }
        },
    };
    crate::timing::record_prep(started.elapsed());
    Ok(prepared)
}

/// Split a generated dataset with `rng` and scale both sides with the
/// scaler fitted on the training split.
fn split_and_scale(
    full: &Dataset,
    test_fraction: f64,
    rng: &mut Xoshiro256StarStar,
) -> Result<PreparedData, SimError> {
    let (train_raw, test_raw) = train_test_split(full, test_fraction, rng)?;
    // Z-scoring (not min-max): it stabilizes SGD while *preserving* the
    // heavy right tails of the capital-run columns, which carry the
    // distance geometry the radius filter and the game model live on.
    let (train, scaler) = StandardScaler::fit_transform(&train_raw)?;
    let test = scaler.transform(&test_raw)?;
    Ok(PreparedData {
        train,
        test,
        scaler,
    })
}

/// Generate, split and scale the dataset for an experiment (cold — no
/// cache; the golden path). Use [`crate::engine::EvalEngine::prepare`]
/// to share preparations across experiments.
///
/// # Errors
///
/// Propagates dataset generation/splitting/scaling failures.
pub fn prepare(config: &ExperimentConfig) -> Result<Prepared, SimError> {
    let data = prepare_data(&config.source, config.seed, config.test_fraction)?;
    Prepared::from_shared(Arc::new(data), config)
}

/// Result of one attack → filter → train → evaluate run.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalOutcome {
    /// Held-out accuracy of the model trained on the filtered data.
    pub accuracy: f64,
    /// Ground-truth poison/genuine accounting of the filter.
    pub accounting: FilterAccounting,
    /// Fraction of the (poisoned) training set the filter removed.
    pub removed_fraction: f64,
}

impl EvalOutcome {
    /// JSON form (all fields explicit; floats round-trip exactly via
    /// shortest-round-trip formatting). The wire shape the serving
    /// protocol ships per cell.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("accuracy", Json::Num(self.accuracy)),
            (
                "accounting",
                Json::obj(vec![
                    (
                        "poison_removed",
                        Json::Num(self.accounting.poison_removed as f64),
                    ),
                    ("poison_kept", Json::Num(self.accounting.poison_kept as f64)),
                    (
                        "genuine_removed",
                        Json::Num(self.accounting.genuine_removed as f64),
                    ),
                    (
                        "genuine_kept",
                        Json::Num(self.accounting.genuine_kept as f64),
                    ),
                ]),
            ),
            ("removed_fraction", Json::Num(self.removed_fraction)),
        ])
    }

    /// Parse the JSON form produced by [`EvalOutcome::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Spec`] on missing or wrongly-typed fields.
    pub fn from_json(value: &Json) -> Result<Self, SimError> {
        jsonio::check_keys(
            value,
            "outcome",
            &["accuracy", "accounting", "removed_fraction"],
        )?;
        let field = |key: &str| -> Result<&Json, SimError> {
            value
                .get(key)
                .ok_or_else(|| SimError::Spec(format!("outcome needs `{key}`")))
        };
        let accounting = field("accounting")?;
        jsonio::check_keys(
            accounting,
            "accounting",
            &[
                "poison_removed",
                "poison_kept",
                "genuine_removed",
                "genuine_kept",
            ],
        )?;
        let count = |key: &str| -> Result<usize, SimError> {
            let v = accounting
                .get(key)
                .ok_or_else(|| SimError::Spec(format!("accounting needs `{key}`")))?;
            Ok(jsonio::require_u64(v, key)? as usize)
        };
        Ok(Self {
            accuracy: jsonio::require_num(field("accuracy")?, "accuracy")?,
            accounting: FilterAccounting {
                poison_removed: count("poison_removed")?,
                poison_kept: count("poison_kept")?,
                genuine_removed: count("genuine_removed")?,
                genuine_kept: count("genuine_kept")?,
            },
            removed_fraction: jsonio::require_num(field("removed_fraction")?, "removed_fraction")?,
        })
    }
}

/// Filter a (possibly poisoned) training set, train the configured
/// learner on the survivors and evaluate on the held-out split — all
/// dispatched through the scenario on `config` (the paper's radius
/// filter + linear SVM by default).
///
/// `poison_indices` is the experiment's ground truth for accounting;
/// pass `&[]` for clean runs.
///
/// # Errors
///
/// Propagates spec-building, filtering and training failures.
pub fn filter_train_eval(
    train: &dyn DataView,
    poison_indices: &[usize],
    test: &Dataset,
    strength: FilterStrength,
    config: &ExperimentConfig,
) -> Result<EvalOutcome, SimError> {
    filter_train(
        train,
        poison_indices,
        test,
        strength,
        &config.scenario,
        config,
    )?
    .into_outcome(test)
}

/// The filter → train product of one experiment cell, *before*
/// held-out evaluation — what the scenario matrix collects from each
/// cell so it can stack every cell's [`LinearState`] into one blocked
/// multi-RHS margin computation.
///
/// All fields are plain data (`Send`), unlike the boxed model they
/// came from, so trained cells cross the worker-pool boundary.
#[derive(Debug, Clone)]
pub(crate) struct TrainedCell {
    /// Ground-truth poison/genuine accounting of the filter.
    pub accounting: FilterAccounting,
    /// Fraction of the (poisoned) training set the filter removed.
    pub removed_fraction: f64,
    /// The fitted model's linear state, when it exposes one (every
    /// bundled learner does).
    pub state: Option<LinearState>,
    /// Accuracy computed inline for learners with no linear state —
    /// those cells cannot join the batched evaluation.
    pub fallback_accuracy: Option<f64>,
}

impl TrainedCell {
    /// Evaluate this cell on `test` and assemble its [`EvalOutcome`].
    /// The single-state batched kernel accumulates each margin in the
    /// same order as the per-point `accuracy_on`, so the result is
    /// bit-identical to it.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches between the state and `test`.
    pub(crate) fn into_outcome(self, test: &Dataset) -> Result<EvalOutcome, SimError> {
        let accuracy = match (self.fallback_accuracy, self.state.as_ref()) {
            (Some(acc), _) => acc,
            (None, Some(state)) => {
                let started = Instant::now();
                let acc =
                    batched_accuracy(test.features(), test.labels(), std::slice::from_ref(state))?
                        [0];
                crate::timing::record_eval(started.elapsed());
                acc
            }
            (None, None) => unreachable!("filter_train sets fallback when state is absent"),
        };
        Ok(EvalOutcome {
            accuracy,
            accounting: self.accounting,
            removed_fraction: self.removed_fraction,
        })
    }
}

/// The single filter → train core every path funnels into, stopping
/// short of held-out evaluation: callers either evaluate immediately
/// ([`TrainedCell::into_outcome`]) or batch many cells' states into
/// one blocked evaluation (the scenario matrix).
///
/// # Errors
///
/// Propagates spec-building, filtering and training failures.
fn filter_train(
    train: &dyn DataView,
    poison_indices: &[usize],
    test: &Dataset,
    strength: FilterStrength,
    scenario: &Scenario,
    config: &ExperimentConfig,
) -> Result<TrainedCell, SimError> {
    let filter = scenario.defense.build(strength, config.centroid)?;
    let outcome = filter.split(train)?;
    let kept = outcome.kept_dataset(train);
    let mut model = scenario.learner.build(config.train_config());
    let fit_started = Instant::now();
    model.fit(&kept)?;
    crate::timing::record_fit(fit_started.elapsed());
    let state = model.linear_state();
    let fallback_accuracy = if state.is_none() {
        let started = Instant::now();
        let acc = model.accuracy_on(test);
        crate::timing::record_eval(started.elapsed());
        Some(acc)
    } else {
        None
    };
    Ok(TrainedCell {
        accounting: outcome.account(poison_indices),
        removed_fraction: outcome.removed_fraction(train),
        state,
        fallback_accuracy,
    })
}

/// The placement that "hugs" a strength-`theta` filter from inside,
/// accounting for the attacker's own contamination: the rank-based
/// global filter removes `θ·(n+m)` points of the poisoned training
/// set, so the poison must sit deeper than the `θ·(n+m)/n` quantile of
/// the *genuine* distance distribution (plus `slack` for the centroid
/// shift the poison itself induces). `n` is the clean training size,
/// `m` the poison budget.
pub fn hugging_placement(prepared: &Prepared, theta: f64, slack: f64) -> f64 {
    let n = prepared.train().len() as f64;
    let m = prepared.n_poison as f64;
    (theta * (n + m) / n + slack).min(0.95)
}

/// The single dispatch point every experiment cell goes through:
/// build the scenario's attack at `placement`, poison the training
/// set, then sanitize / train / evaluate with the scenario's defense
/// and learner.
///
/// The poisoned training set is a [`PoisonedView`]: the shared clean
/// base is borrowed and only the generated poison rows are owned, so
/// cells never clone the prepared data.
///
/// # Errors
///
/// Propagates spec-building, attack, filtering and training failures.
pub fn run_cell(
    prepared: &Prepared,
    scenario: &Scenario,
    placement: f64,
    strength: FilterStrength,
    config: &ExperimentConfig,
    rng: &mut Xoshiro256StarStar,
) -> Result<EvalOutcome, SimError> {
    run_cell_trained(prepared, scenario, placement, strength, config, rng)?
        .into_outcome(prepared.test())
}

/// [`run_cell`] stopping short of held-out evaluation — the scenario
/// matrix collects these and evaluates every cell's state in one
/// blocked multi-RHS operation.
///
/// # Errors
///
/// Propagates spec-building, attack, filtering and training failures.
pub(crate) fn run_cell_trained(
    prepared: &Prepared,
    scenario: &Scenario,
    placement: f64,
    strength: FilterStrength,
    config: &ExperimentConfig,
    rng: &mut Xoshiro256StarStar,
) -> Result<TrainedCell, SimError> {
    let attack = scenario.attack.build(placement, prepared.n_poison)?;
    let poison = attack.generate(prepared.train(), prepared.n_poison, rng)?;
    let poisoned = PoisonedView::new(prepared.train(), poison)?;
    let injected: Vec<usize> = poisoned.appended_indices().collect();
    filter_train(
        &poisoned,
        &injected,
        prepared.test(),
        strength,
        scenario,
        config,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_blob_config() -> ExperimentConfig {
        ExperimentConfig {
            seed: 7,
            source: DataSource::Blobs {
                per_class: 120,
                dim: 4,
                offset: 3.0,
                sigma: 0.6,
            },
            test_fraction: 0.3,
            budget_fraction: 0.2,
            epochs: 40,
            centroid: CentroidEstimator::CoordinateMedian,
            solver: SolverKind::Auto,
            warm_start: false,
            fit_kernel: FitKernel::RowSgd,
            scenario: Scenario::default(),
        }
    }

    /// Small synthetic-Spambase config: the geometry the attack is
    /// calibrated for (blobs are too separable for poison to matter).
    fn quick_spam_config() -> ExperimentConfig {
        ExperimentConfig {
            seed: 7,
            source: DataSource::SyntheticSpambase { rows: 600 },
            test_fraction: 0.3,
            budget_fraction: 0.2,
            epochs: 40,
            centroid: CentroidEstimator::CoordinateMedian,
            solver: SolverKind::Auto,
            warm_start: false,
            fit_kernel: FitKernel::RowSgd,
            scenario: Scenario::default(),
        }
    }

    #[test]
    fn prepare_splits_and_scales() {
        let p = prepare(&quick_blob_config()).unwrap();
        assert_eq!(p.train().len() + p.test().len(), 240);
        assert_eq!(p.n_poison, (p.train().len() as f64 * 0.2).round() as usize);
        // Z-scored: every column of the training split has ~zero mean.
        let sums = p.train().features().column_means().unwrap();
        assert!(sums.iter().all(|m| m.abs() < 1e-9));
    }

    #[test]
    fn shared_prepared_data_derives_budget_per_config() {
        // One cached PreparedData serves configs that differ only in
        // budget — the cache key deliberately excludes the budget.
        let config = quick_blob_config();
        let p = prepare(&config).unwrap();
        let half_budget = ExperimentConfig {
            budget_fraction: 0.1,
            ..config
        };
        let q = Prepared::from_shared(Arc::clone(&p.data), &half_budget).unwrap();
        assert!(Arc::ptr_eq(&p.data, &q.data), "data must be shared");
        assert_eq!(q.n_poison, (p.train().len() as f64 * 0.1).round() as usize);
        let bad = ExperimentConfig {
            budget_fraction: 1.5,
            ..half_budget
        };
        assert!(Prepared::from_shared(Arc::clone(&p.data), &bad).is_err());
    }

    #[test]
    fn clean_baseline_accuracy_is_high() {
        let config = quick_blob_config();
        let p = prepare(&config).unwrap();
        let out = filter_train_eval(
            p.train(),
            &[],
            p.test(),
            FilterStrength::RemoveFraction(0.0),
            &config,
        )
        .unwrap();
        assert!(out.accuracy > 0.95, "clean accuracy {}", out.accuracy);
        assert_eq!(out.accounting.poison_removed, 0);
    }

    #[test]
    fn boundary_attack_hurts_unfiltered_model() {
        let config = quick_spam_config();
        let p = prepare(&config).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        let clean = filter_train_eval(
            p.train(),
            &[],
            p.test(),
            FilterStrength::RemoveFraction(0.0),
            &config,
        )
        .unwrap();
        let attacked = run_cell(
            &p,
            &config.scenario,
            0.02,
            FilterStrength::RemoveFraction(0.0),
            &config,
            &mut rng,
        )
        .unwrap();
        assert!(
            attacked.accuracy < clean.accuracy - 0.02,
            "attack did nothing: clean {} vs attacked {}",
            clean.accuracy,
            attacked.accuracy
        );
    }

    #[test]
    fn strong_filter_blunts_shallow_attack() {
        let config = quick_spam_config();
        let p = prepare(&config).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(13);
        // Attack right at the boundary; a 30 % filter removes far more
        // points than the poison budget plus genuine tail — the poison
        // dies and accuracy recovers most of the damage.
        let unfiltered = run_cell(
            &p,
            &config.scenario,
            0.01,
            FilterStrength::RemoveFraction(0.0),
            &config,
            &mut rng,
        )
        .unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(13);
        let filtered = run_cell(
            &p,
            &config.scenario,
            0.01,
            FilterStrength::RemoveFraction(0.30),
            &config,
            &mut rng,
        )
        .unwrap();
        assert!(
            filtered.accounting.poison_recall() > 0.8,
            "filter caught only {:.0}%",
            filtered.accounting.poison_recall() * 100.0
        );
        assert!(
            filtered.accuracy > unfiltered.accuracy + 0.05,
            "filtering did not recover accuracy: {} vs {}",
            filtered.accuracy,
            unfiltered.accuracy
        );
    }

    #[test]
    fn deep_attack_survives_weak_filter() {
        let config = quick_spam_config();
        let p = prepare(&config).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(17);
        // Attack deep (30th percentile), filter only removes 5 %.
        let out = run_cell(
            &p,
            &config.scenario,
            0.30,
            FilterStrength::RemoveFraction(0.05),
            &config,
            &mut rng,
        )
        .unwrap();
        assert!(
            out.accounting.poison_recall() < 0.2,
            "deep poison should survive, recall {:.2}",
            out.accounting.poison_recall()
        );
    }

    #[test]
    fn eval_outcome_json_round_trips() {
        let outcome = EvalOutcome {
            accuracy: 0.8734567891234,
            accounting: FilterAccounting {
                poison_removed: 3,
                poison_kept: 1,
                genuine_removed: 2,
                genuine_kept: 100,
            },
            removed_fraction: 0.15,
        };
        let json = outcome.to_json().render();
        let back = EvalOutcome::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, outcome);
        assert_eq!(
            back.accuracy.to_bits(),
            outcome.accuracy.to_bits(),
            "floats survive the wire bit-exactly"
        );
        // Missing and unknown fields are structured errors.
        assert!(EvalOutcome::from_json(&Json::parse("{}").unwrap()).is_err());
        let extra = Json::parse(r#"{"accuracy":1,"accounting":{},"removed_fraction":0,"x":1}"#);
        assert!(EvalOutcome::from_json(&extra.unwrap()).is_err());
    }

    #[test]
    fn solver_names_round_trip() {
        for kind in [
            SolverKind::Auto,
            SolverKind::Simplex,
            SolverKind::FictitiousPlay,
            SolverKind::MultiplicativeWeights,
        ] {
            assert_eq!(solver_from_name(solver_name(kind)).unwrap(), kind);
        }
        assert!(solver_from_name("gradient_descent").is_err());
    }

    #[test]
    fn paper_config_values() {
        let c = ExperimentConfig::paper();
        assert_eq!(c.test_fraction, 0.3);
        assert_eq!(c.budget_fraction, 0.2);
        assert_eq!(c.epochs, 5000);
        let q = c.quick();
        assert!(q.epochs < 5000);
    }

    #[test]
    fn csv_source_round_trips() {
        let config = ExperimentConfig {
            seed: 5,
            source: DataSource::CsvText {
                text: (0..60)
                    .map(|i| {
                        let y = i % 2;
                        let base = if y == 1 { 5.0 } else { 0.0 };
                        format!("{},{},{}\n", base + (i % 7) as f64 * 0.1, base, y)
                    })
                    .collect::<String>(),
            },
            test_fraction: 0.3,
            budget_fraction: 0.1,
            epochs: 20,
            centroid: CentroidEstimator::Mean,
            solver: SolverKind::Auto,
            warm_start: false,
            fit_kernel: FitKernel::RowSgd,
            scenario: Scenario::default(),
        };
        let p = prepare(&config).unwrap();
        assert_eq!(p.train().len() + p.test().len(), 60);
        assert_eq!(p.train().dim(), 2);
    }
}
