//! `poisongame-serve` — the long-running defense-evaluation service.
//!
//! Everything the workspace can compute — equilibrium defense
//! strategies, scenario cells, full attack × defense × learner
//! matrices, curve estimates — is reachable from the batch binaries;
//! this crate turns the same machinery into shared, amortized
//! infrastructure for many concurrent clients:
//!
//! * [`protocol`] — the wire format: newline-delimited JSON over TCP,
//!   request kinds `solve` / `cell` / `matrix` / `estimate` /
//!   `online` / `stats` / `metrics` / `events` / `resize` /
//!   `shutdown`, every response tagged with its request id so clients
//!   can pipeline.
//! * [`server`] — the sharded server: a pool of N independent
//!   [`poisongame_sim::EvalEngine`] shards (each with its own
//!   *bounded* preparation cache and bounded count of waiting
//!   requests with explicit load shedding — a structured `busy`
//!   error, never a hang), requests routed by prep-key affinity so cache locality
//!   survives sharding, a fixed set of executor threads shared by all
//!   shards that run each generation of admitted requests cheapest
//!   first, single-flight preparation so concurrent requests sharing a
//!   dataset prepare it once, per-request deadlines, a live `resize`
//!   control path that re-splits the pool without dropping in-flight
//!   requests, and graceful drain on shutdown. Connections are served
//!   by a single poll-based multiplexer thread (std-only nonblocking
//!   sockets), so idle pipelined connections cost no threads.
//! * [`telemetry`] — the serving tier's observability surface: latency
//!   and queue-wait histograms per request kind, per-shard cache and
//!   queue metrics, structured events (sheds, evictions, deadline
//!   misses, resizes) — all backed by [`poisongame_obs`], all off the
//!   response path, exposed through the `metrics` / `events` control
//!   requests and summarized inside `stats`.
//! * [`client`] — the blocking client library: typed calls plus raw
//!   pipelining (`send` ids now, `wait` for them later).
//!
//! Determinism is preserved end to end: a request's response is a
//! pure function of the request document — independent of executor
//! count, run order and co-tenant requests — so a `cell` served
//! concurrently is byte-identical to the batch pipeline (pinned by
//! `tests/loopback.rs`).
//!
//! # Example
//!
//! ```no_run
//! use poisongame_serve::client::Client;
//! use poisongame_serve::protocol::CellRequest;
//! use poisongame_serve::server::{Server, ServerConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = Server::bind(ServerConfig::default())?;
//! let addr = server.local_addr()?;
//! let handle = server.spawn();
//! let mut client = Client::connect(addr)?;
//! let results = client.cell(&CellRequest::default())?;
//! println!("accuracy {:.4}", results.cells[0].outcome.accuracy);
//! client.shutdown()?;
//! handle.join()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
mod mux;
pub mod protocol;
pub mod server;
mod shard;
pub mod telemetry;

pub use client::Client;
pub use error::ServeError;
pub use protocol::{
    CellRequest, ErrorCode, EstimateRequest, MatrixRequest, OnlineRequest, Request, RequestKind,
    Response, ServerStats, ShardStats, SolveRequest, SolveResult, MAX_SHARDS,
};
pub use server::{Server, ServerConfig, ServerHandle, MAX_WORKERS};
pub use telemetry::{KindTelemetry, TelemetryStats};
