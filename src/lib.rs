//! # poisongame
//!
//! A reproduction of **"Mixed Strategy Game Model Against Data
//! Poisoning Attacks"** (Ou & Samavi, DSN Workshops 2019) as a Rust
//! workspace: the poisoning attack/defense game, its equilibrium
//! analysis (no pure NE; mixed NE with equalized `E·cdf` products),
//! the paper's Algorithm 1, and the full experimental pipeline that
//! regenerates Figure 1, Table 1 and the §5 scaling claims.
//!
//! This crate re-exports every subsystem under one roof:
//!
//! | module | contents |
//! |---|---|
//! | [`obs`] | the telemetry layer: lock-free histograms, span timers, event log, Prometheus exposition |
//! | [`exec`] | the execution runtime: persistent work-stealing worker pool, write-once result slots |
//! | [`linalg`] | vectors, statistics, curves, deterministic RNG |
//! | [`data`] | datasets, CSV IO, splits, scalers, the synthetic Spambase generator |
//! | [`io`] | streaming ingestion: the one chunked CSV reader, checksummed file sources, out-of-core preparation support |
//! | [`ml`] | linear SVM (the paper's victim model), logistic regression, perceptron, metrics |
//! | [`theory`] | finite zero-sum games: simplex LP, fictitious play, multiplicative weights |
//! | [`attack`] | boundary / mixed-radius / label-flip / noise poisoning attacks |
//! | [`defense`] | sphere filter (global & per-class), robust centroids, slab & kNN baselines |
//! | [`core`] | the game model: `E(p)`, `Γ(p)`, BRF analysis, NE conditions, Algorithm 1 |
//! | [`sim`] | the experiment harness: Figure 1, Table 1, scaling, Monte-Carlo validation |
//! | [`online`] | the repeated game: no-regret adaptive attackers/defenders, convergence to the static NE |
//! | [`serve`] | the evaluation service: sharded NDJSON-over-TCP server, admission/load-shedding, client |
//! | [`gateway`] | the HTTP/1.1 front end: `/v1/*` JSON API over pooled backend connections |
//!
//! # Quickstart
//!
//! ```no_run
//! use poisongame::core::{Algorithm1, Algorithm1Config};
//! use poisongame::sim::estimate::{default_placements, default_strengths};
//! use poisongame::sim::{EvalEngine, ExperimentConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let engine = EvalEngine::new();
//! let config = ExperimentConfig::paper().quick();
//! let curves = engine.estimate_curves(&config, &default_placements(), &default_strengths())?;
//! let game = curves.game()?;
//! let defense = Algorithm1::new(Algorithm1Config { n_radii: 3, ..Default::default() })
//!     .solve(&game)?;
//! println!("defender NE strategy: {}", defense.strategy);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for runnable end-to-end reproductions. The paper's
//! own numbers live in [`core::paper`]; ours are pinned by digest
//! tests (`fig1_and_table1_bits_are_pinned` in
//! `crates/sim/tests/determinism.rs`, `crates/attack/tests/golden.rs`,
//! `crates/core/tests/hedge_golden.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use poisongame_attack as attack;
pub use poisongame_core as core;
pub use poisongame_data as data;
pub use poisongame_defense as defense;
pub use poisongame_exec as exec;
pub use poisongame_gateway as gateway;
pub use poisongame_io as io;
pub use poisongame_linalg as linalg;
pub use poisongame_ml as ml;
pub use poisongame_obs as obs;
pub use poisongame_online as online;
pub use poisongame_serve as serve;
pub use poisongame_sim as sim;
pub use poisongame_theory as theory;
