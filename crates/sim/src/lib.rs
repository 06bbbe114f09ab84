//! End-to-end experiment pipeline reproducing the paper's evaluation —
//! and generalizing it: every experiment cell dispatches through a
//! serializable [`scenario::Scenario`] (attack × defense × learner),
//! which is the primary entry point for new workloads. The default
//! scenario is the paper's triple (boundary attack, radius filter,
//! linear SVM), so the reproduction is the zero-config path; swapping
//! any axis — or fanning out a whole [`scenario::ScenarioMatrix`]
//! cross-product — is a data change, not a code change.
//!
//! * [`scenario`] — the spec API: `AttackSpec` / `DefenseSpec` /
//!   `LearnerSpec`, the `Scenario` triple, `ScenarioBuilder`, and the
//!   `ScenarioMatrix` cross-product runner.
//! * [`pipeline`] — dataset preparation (generate → split → scale) and
//!   the attack → filter → train → evaluate loop shared by every
//!   experiment ([`pipeline::run_cell`] is the dispatch point).
//! * [`fig1`] — Figure 1: accuracy vs filter strength under the
//!   optimal pure-strategy attack, and on clean data.
//! * [`estimate`] — fits the `E(p)` / `Γ(p)` curves from sweep
//!   measurements (the paper's "approximated using the results in
//!   Fig. 1").
//! * [`table1`] — Table 1: Algorithm 1's mixed defense for `n = 2, 3`
//!   and its empirical accuracy under the best-responding attack.
//! * [`scaling`] — the §5 text claims: accuracy plateaus for `n ≥ 3`
//!   while solve time grows.
//! * [`monte_carlo`] — repeated-game simulation validating the
//!   equilibrium indifference property empirically.
//! * [`exec`] — the parallel sweep engine: scoped worker pool with
//!   per-cell seeds, bit-identical to sequential at any thread count,
//!   plus the two-phase `prepare_then_map` task graph.
//! * [`engine`] — the shared-preparation evaluation engine and the one
//!   entry point of every artifact: dataset preparations keyed by
//!   content hash and shared (`Arc`) across every experiment, and
//!   copy-on-write poisoned views instead of per-cell clones.
//! * [`jsonio`] — the minimal JSON reader/writer every wire form
//!   serializes through.
//! * [`report`] — ASCII tables and CSV output.
//!
//! # Example
//!
//! A scenario matrix from a JSON spec — the front door for
//! multi-scenario workloads:
//!
//! ```no_run
//! use poisongame_sim::pipeline::ExperimentConfig;
//! use poisongame_sim::scenario::ScenarioMatrix;
//! use poisongame_sim::EvalEngine;
//!
//! let engine = EvalEngine::new();
//! let config = ExperimentConfig::paper().quick();
//! let matrix = ScenarioMatrix::from_json_str(
//!     r#"{"attacks":  [{"type": "boundary"}, {"type": "label_flip"}],
//!         "defenses": [{"type": "radius"}, {"type": "knn", "k": 5}],
//!         "learners": [{"type": "svm"}]}"#,
//! ).unwrap();
//! let results = engine.run_matrix(&config, &matrix).unwrap();
//! for cell in results.ranked() {
//!     println!("{}: {:.4}", cell.scenario.label(), cell.outcome.accuracy);
//! }
//! ```
//!
//! The paper's Figure 1 sweep is the same machinery at the default
//! scenario:
//!
//! ```no_run
//! use poisongame_sim::fig1::Fig1Config;
//! use poisongame_sim::pipeline::ExperimentConfig;
//! use poisongame_sim::EvalEngine;
//!
//! let config = ExperimentConfig::paper().quick();
//! let results = EvalEngine::new().run_fig1(&config, &Fig1Config::default()).unwrap();
//! for row in &results.rows {
//!     println!("{:.0}% removed: attacked {:.3}, clean {:.3}",
//!         row.removed_fraction * 100.0, row.accuracy_under_attack, row.accuracy_clean);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod estimate;
pub mod exec;
pub mod fig1;
pub mod ingest;
pub mod jsonio;
pub mod monte_carlo;
pub mod pipeline;
pub mod report;
pub mod scaling;
pub mod scenario;
pub mod table1;
pub mod timing;

pub use engine::EvalEngine;
pub use error::SimError;
pub use exec::ExecPolicy;
pub use pipeline::{DataSource, ExperimentConfig, Prepared, PreparedData};
// Re-exported because `ExperimentConfig::fit_kernel` is part of the
// config surface: downstream crates select kernels without a direct
// `poisongame-ml` dependency.
pub use poisongame_ml::FitKernel;
pub use scenario::{
    AttackSpec, DefenseSpec, EngineStats, LearnerSpec, MatrixResults, Scenario, ScenarioBuilder,
    ScenarioMatrix,
};
