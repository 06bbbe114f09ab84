//! The sharded, multiplexed evaluation server.
//!
//! Architecture (all `std`, no external runtime):
//!
//! * **Multiplexer** — one readiness loop over nonblocking sockets
//!   ([`crate::mux`]) replaces thread-per-connection: it accepts,
//!   parses frames, answers `stats`/`resize`/`shutdown` inline (they
//!   stay responsive even when evaluation is saturated) and flushes
//!   executor-queued responses. Thousands of idle pipelined
//!   connections cost one thread.
//! * **Shard pool** — evaluation requests are admitted to one of N
//!   independent engine shards ([`crate::shard`]), routed by
//!   prep-key affinity (`content hash % N` — same preparation, same
//!   shard, so cache locality survives sharding) with a least-loaded
//!   fallback for requests carrying no preparation key (`solve`).
//! * **Admission** — each shard bounds its waiting jobs. A full shard sheds
//!   the request with a structured `busy` error immediately; the
//!   server never buffers unboundedly and never blocks the
//!   multiplexer on evaluation. Every admitted job carries a
//!   deterministic work estimate computed from its request document
//!   ([`work_estimate`]).
//! * **Executors** — `workers` threads shared by every shard run the
//!   jobs, one job at a time each, to completion. Every shard admits
//!   to one pending list, which the executors seal a generation at a
//!   time and order cheapest first (ties in admission order),
//!   so a cheap `solve` is never stuck behind expensive cells that
//!   were admitted with it. Parallelism *inside* one request
//!   (`eval_threads`, pooled `gemm_nt` bands, the helper of a big
//!   multiplicative-weights solve) runs on the process-wide worker
//!   pool (`poisongame_sim::exec::pool`).
//! * **Deadlines** — checked when evaluation is about to start; an
//!   expired request is answered with a `deadline` error instead of
//!   being evaluated. Running evaluations are never preempted, and an
//!   expensive job runs after the cheaper jobs of its generation, so
//!   under load its deadline can pass while it waits.
//! * **Resize** — a `resize` request re-splits the pool: new shards
//!   (cold caches) take over admission, and the executors still run
//!   every job the old shards admitted. No in-flight request is
//!   dropped.
//! * **Shutdown** — a `shutdown` request is acked, then the server
//!   stops admitting, finishes every queued request, flushes every
//!   response, and `run` returns.
//!
//! Responses are pure functions of their request document: executor
//! count, shard count, run order and co-tenant requests never change a
//! result (see `tests/loopback.rs` and `tests/sharding.rs`).

use crate::mux::{mux_loop, Conn, MuxWaker};
use crate::protocol::{
    parse_request_line, ErrorCode, Request, RequestKind, Response, ServerStats, ShardStats,
    SolveRequest, SolveResult, DEFAULT_MAX_LINE_BYTES,
};
use crate::shard::{Shard, ShardPool};
use crate::telemetry::{self, Telemetry};
use poisongame_core::bridge::solve_discretized_with;
use poisongame_core::{CostCurve, EffectCurve, PoisonGame, SolverKind, AUTO_EXACT_LIMIT};
use poisongame_data::synth::{SPAMBASE_DIM, SPAMBASE_ROWS};
use poisongame_obs::{EventLog, Registry};
use poisongame_online::run_online_prepared;
use poisongame_sim::engine::{config_prep_key, PrepKey};
use poisongame_sim::estimate::estimate_curves_prepared;
use poisongame_sim::jsonio::Json;
use poisongame_sim::pipeline::{DataSource, ExperimentConfig, Prepared, PreparedData};
use poisongame_sim::scenario::{run_matrix_prepared, DefenseSpec};
use poisongame_sim::{ExecPolicy, SimError};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Cap on the executor count ([`ServerConfig::workers`]); larger
/// values are clamped to it.
pub const MAX_WORKERS: usize = 256;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (read it back
    /// via [`Server::local_addr`]).
    pub addr: String,
    /// Engine shard count: independent evaluation engines, each with
    /// its own bounded prep cache and admission queue. Requests route
    /// by prep-key affinity. `0` is treated as 1.
    pub shards: usize,
    /// Executor threads, in total across all shards; `0` means one per
    /// hardware thread. Each executor runs one request at a time to
    /// completion, taking the cheapest waiting request of the current
    /// generation (see [`crate::shard`]), so this is the number of
    /// requests evaluated at once. Parallelism inside one request is
    /// set by `eval_threads`, not here. Each executor is an OS thread,
    /// so the count is capped at [`MAX_WORKERS`].
    pub workers: usize,
    /// Per-shard admission queue bound: admitted requests that have
    /// not started count against it, and requests beyond it are shed
    /// with a structured `busy` error.
    pub queue_capacity: usize,
    /// Per-shard preparation-cache bound (`None` = unbounded, like
    /// the batch engine; the default keeps a long-lived process from
    /// leaking).
    pub cache_capacity: Option<usize>,
    /// Worker threads *inside* one request's evaluation (a matrix's
    /// cells, an estimate's cells, never across requests). The default of `1` puts all
    /// parallelism across requests, which is the right shape for many
    /// small requests; raise it for few huge matrices. Kernels that
    /// use the shared pool on their own (pooled `gemm_nt` bands, the
    /// helper of a big multiplicative-weights solve) are not capped.
    pub eval_threads: usize,
    /// Per-frame byte cap, requests and responses alike.
    pub max_line_bytes: usize,
    /// Deadline applied to requests that carry none (`None` = no
    /// implicit deadline).
    pub default_deadline_ms: Option<u64>,
    /// Multiplexer park interval in microseconds: the upper bound on
    /// how long newly arrived bytes wait while every socket is idle.
    pub poll_interval_micros: u64,
    /// Service times at or above this many milliseconds publish a
    /// `slow_request` event to the process event log (`0` disables).
    /// Telemetry never rides the response path, so this cannot change
    /// a response.
    pub slow_request_millis: u64,
    /// Root of the file-source allow-list: `{"type":"file"}` data
    /// sources may name only plain relative paths, resolved under
    /// this directory. `None` (the default) rejects file sources
    /// outright — remote callers get no filesystem reach unless the
    /// operator opts in with `--data-dir`.
    pub data_dir: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            shards: 1,
            workers: 0,
            queue_capacity: 64,
            cache_capacity: Some(32),
            eval_threads: 1,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            default_deadline_ms: None,
            poll_interval_micros: 500,
            slow_request_millis: 1000,
            data_dir: None,
        }
    }
}

/// Monotonic process-wide admission/evaluation counters (never reset,
/// unlike the per-shard-instance counters a resize replaces).
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub received: AtomicU64,
    pub completed: AtomicU64,
    pub shed: AtomicU64,
    pub expired: AtomicU64,
    pub failed: AtomicU64,
}

impl Counters {
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// One admitted evaluation request.
pub(crate) struct Job {
    pub request: Request,
    pub deadline: Option<Instant>,
    /// The dataset preparation this request needs (`None` for `solve`,
    /// which prepares nothing) — precomputed so affinity routing is a
    /// hash away.
    pub prep_key: Option<PrepKey>,
    /// [`work_estimate`] of the request: the run list's order.
    pub cost: u64,
    /// Admission order: the run list's tie-break.
    pub seq: u64,
    pub conn: Arc<Conn>,
    /// When the multiplexer admitted the job; the queue-wait
    /// histograms record the span from here to service start.
    pub admitted_at: Instant,
}

/// State shared by the multiplexer and the executors.
pub(crate) struct Inner {
    pub pool: ShardPool,
    pub eval_policy: ExecPolicy,
    pub workers: usize,
    pub queue_capacity: usize,
    pub max_line_bytes: usize,
    pub default_deadline_ms: Option<u64>,
    pub data_dir: Option<std::path::PathBuf>,
    pub shutdown: AtomicBool,
    pub started: Instant,
    pub counters: Counters,
    pub waker: Arc<MuxWaker>,
    pub poll_interval: Duration,
    /// Cached metric handles (registered once at bind time); recording
    /// is off the response path by construction.
    pub telemetry: Telemetry,
}

impl Inner {
    /// Wake the multiplexer (an executor queued a response, or exited
    /// during a drain).
    pub fn wake_mux(&self) {
        self.waker.wake();
    }

    /// Route a job to its shard and admit it, or answer it with a
    /// structured rejection. Admission runs only on the multiplexer
    /// thread — the same thread that flips the shutdown flag — so an
    /// admitted job is always run by an executor, never stranded.
    fn admit(&self, job: Job) {
        if self.shutdown.load(Ordering::SeqCst) {
            let response = Response::err(
                Some(job.request.id),
                ErrorCode::ShuttingDown,
                "server is draining and admits no new work",
            );
            job.conn.send(&response);
            return;
        }
        let shards = self.pool.current();
        let shard = match &job.prep_key {
            // Prep-key affinity: same preparation key, same shard, so
            // PrepCache locality survives sharding.
            Some(key) => {
                let index = (key.content_hash() % shards.len() as u64) as usize;
                Arc::clone(&shards[index])
            }
            // No preparation to keep local (`solve`): fall back to the
            // least-loaded shard, ties to the lowest index.
            None => shards
                .iter()
                .min_by_key(|shard| (shard.queue_depth(), shard.index))
                .map(Arc::clone)
                .expect("shard pool is never empty"),
        };
        if let Some(job) = self.pool.admit(Arc::clone(&shard), job) {
            Counters::bump(&self.counters.shed);
            self.telemetry.note_shed(
                job.request.kind.type_name(),
                shard.index,
                shard.queue_capacity,
            );
            let response = Response::err(
                Some(job.request.id),
                ErrorCode::Busy,
                format!(
                    "shard {} admission queue full (bound {}); retry later",
                    shard.index, shard.queue_capacity
                ),
            );
            job.conn.send(&response);
        }
    }

    /// Flip to draining: reject new admissions and wake every executor
    /// so the backlog drains and the multiplexer can finish. Called on
    /// the multiplexer thread, so no admission can race the flag.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.pool.wake_all();
        self.wake_mux();
    }

    pub(crate) fn stats(&self) -> ServerStats {
        let shards = self.pool.current();
        let per: Vec<ShardStats> = shards
            .iter()
            .map(|shard| {
                let cache = shard.engine.cache_stats();
                ShardStats {
                    index: shard.index,
                    queue_depth: shard.queue_depth(),
                    admitted: shard.counters.admitted.load(Ordering::Relaxed),
                    completed: shard.counters.completed.load(Ordering::Relaxed),
                    shed: shard.counters.shed.load(Ordering::Relaxed),
                    expired: shard.counters.expired.load(Ordering::Relaxed),
                    failed: shard.counters.failed.load(Ordering::Relaxed),
                    busy_micros: shard.counters.busy_micros.load(Ordering::Relaxed),
                    cache_hits: cache.hits,
                    cache_misses: cache.misses,
                    cache_evictions: cache.evictions,
                    cache_entries: shard.engine.cached_preparations(),
                    cache_capacity: shard.engine.cache_capacity(),
                }
            })
            .collect();
        // Process-global phase counters (never per-response: responses
        // to identical requests must stay byte-identical).
        let timing = poisongame_sim::timing::snapshot();
        // Shared-pool counters: nested parallelism inside requests runs
        // on the process-wide worker pool, so one snapshot covers every
        // shard.
        let pool_stats = poisongame_sim::exec::pool::WorkerPool::global().stats();
        ServerStats {
            uptime_micros: self.started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
            workers: self.workers,
            queue_capacity: self.queue_capacity,
            queue_depth: per.iter().map(|s| s.queue_depth).sum(),
            received: self.counters.received.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            expired: self.counters.expired.load(Ordering::Relaxed),
            failed: self.counters.failed.load(Ordering::Relaxed),
            cache_hits: per.iter().map(|s| s.cache_hits).sum(),
            cache_misses: per.iter().map(|s| s.cache_misses).sum(),
            cache_evictions: per.iter().map(|s| s.cache_evictions).sum(),
            cache_entries: per.iter().map(|s| s.cache_entries).sum(),
            cache_capacity: per
                .iter()
                .try_fold(0usize, |sum, s| s.cache_capacity.map(|c| sum + c)),
            prep_micros: timing.prep_micros,
            fit_micros: timing.fit_micros,
            eval_micros: timing.eval_micros,
            pool_tasks: pool_stats.tasks,
            pool_inline: pool_stats.inline,
            pool_steals: pool_stats.steals,
            pool_parks: pool_stats.parks,
            pool_batches: pool_stats.batches,
            shards: per,
            telemetry: Some(self.telemetry.summarize()),
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    inner: Arc<Inner>,
}

impl Server {
    /// Bind the listening socket and build the shard pool. The server
    /// does not accept connections until [`Server::run`] (or
    /// [`Server::spawn`]) is called.
    ///
    /// # Errors
    ///
    /// Propagates socket binding failures.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let eval_policy = ExecPolicy::with_threads(config.eval_threads);
        let workers = ExecPolicy::with_threads(config.workers).effective_threads(MAX_WORKERS);
        let pool = ShardPool::new(
            config.shards.max(1),
            config.queue_capacity,
            config.cache_capacity,
            eval_policy,
        );
        Ok(Server {
            listener,
            inner: Arc::new(Inner {
                pool,
                eval_policy,
                workers,
                queue_capacity: config.queue_capacity,
                max_line_bytes: config.max_line_bytes,
                default_deadline_ms: config.default_deadline_ms,
                data_dir: config.data_dir,
                shutdown: AtomicBool::new(false),
                started: Instant::now(),
                counters: Counters::default(),
                waker: Arc::new(MuxWaker::default()),
                poll_interval: Duration::from_micros(config.poll_interval_micros.max(1)),
                telemetry: Telemetry::register(config.slow_request_millis),
            }),
        })
    }

    /// The bound address (resolves port `0`).
    ///
    /// # Errors
    ///
    /// Propagates socket introspection failures.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until a `shutdown` request drains the backlog. Returns
    /// the final statistics snapshot.
    ///
    /// # Errors
    ///
    /// Propagates fatal socket errors; per-connection errors only
    /// close that connection.
    pub fn run(self) -> io::Result<ServerStats> {
        let inner = self.inner;
        inner.pool.spawn_executors(&inner, inner.workers);
        mux_loop(&inner, &self.listener);
        inner.pool.join_all();
        Ok(inner.stats())
    }

    /// [`Server::run`] on a background thread; returns once the
    /// listener is live.
    pub fn spawn(self) -> ServerHandle {
        ServerHandle {
            thread: thread::spawn(move || self.run()),
        }
    }
}

/// Handle of a [`Server::spawn`]ed server.
pub struct ServerHandle {
    thread: JoinHandle<io::Result<ServerStats>>,
}

impl ServerHandle {
    /// Wait for the server to drain and exit; returns its final
    /// statistics.
    ///
    /// # Errors
    ///
    /// Propagates the server's exit error (or a panic as an error).
    pub fn join(self) -> io::Result<ServerStats> {
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

// ---------------------------------------------------------------------------
// Request handling (called from the multiplexer thread)
// ---------------------------------------------------------------------------

/// Parse one frame and either answer it inline (control plane) or
/// admit it to its shard.
pub(crate) fn handle_line(inner: &Arc<Inner>, conn: &Arc<Conn>, line: &str) {
    let mut request = match parse_request_line(line) {
        Err(e) => {
            conn.send(&Response::err(e.id, e.code, e.message));
            return;
        }
        Ok(request) => request,
    };
    Counters::bump(&inner.counters.received);
    // File data sources are allow-listed under `--data-dir` before the
    // request is admitted anywhere (including prep-key routing, which
    // must key on the *resolved* path).
    if let Err(message) = resolve_file_sources(&mut request, inner.data_dir.as_deref()) {
        conn.send(&Response::err(
            Some(request.id),
            ErrorCode::BadRequest,
            message,
        ));
        return;
    }
    match &request.kind {
        // Control-plane requests bypass the queues: they stay
        // responsive even when evaluation is saturated.
        RequestKind::Stats => conn.send(&Response::ok(request.id, inner.stats().to_json())),
        RequestKind::Metrics => conn.send(&Response::ok(
            request.id,
            telemetry::registry_to_json(&Registry::global().snapshot()),
        )),
        RequestKind::Events { since } => conn.send(&Response::ok(
            request.id,
            telemetry::replay_to_json(&EventLog::global().since(*since)),
        )),
        RequestKind::Resize { shards } => {
            inner.pool.resize(*shards);
            conn.send(&Response::ok(
                request.id,
                Json::obj(vec![("shards", Json::Num(*shards as f64))]),
            ));
        }
        RequestKind::Shutdown => {
            conn.send(&Response::ok(
                request.id,
                Json::obj(vec![("draining", Json::Bool(true))]),
            ));
            inner.begin_shutdown();
        }
        _ => {
            let deadline = request
                .deadline_ms
                .or(inner.default_deadline_ms)
                .map(|ms| Instant::now() + Duration::from_millis(ms));
            let prep_key = prep_key_of(&request);
            let cost = work_estimate(&request.kind);
            inner.admit(Job {
                request,
                deadline,
                prep_key,
                cost,
                seq: inner.pool.next_seq(),
                conn: Arc::clone(conn),
                admitted_at: Instant::now(),
            });
        }
    }
}

/// Resolve a request's `{"type":"file"}` data source against the
/// server's `--data-dir` allow-list, rewriting the path in place so
/// everything downstream (prep-key routing, the cache, preparation)
/// sees only the resolved form. Rejected outright when the server has
/// no data dir; the path itself must be plain relative — no absolute
/// paths, no `..`, no prefix components — so a remote caller can never
/// name a file outside the root.
fn resolve_file_sources(
    request: &mut Request,
    data_dir: Option<&std::path::Path>,
) -> Result<(), String> {
    use poisongame_sim::pipeline::DataSource;
    use std::path::{Component, Path};
    let config = match &mut request.kind {
        RequestKind::Cell(req) => &mut req.config,
        RequestKind::Matrix(req) => &mut req.config,
        RequestKind::Estimate(req) => &mut req.config,
        RequestKind::Online(req) => &mut req.config,
        _ => return Ok(()),
    };
    let DataSource::File { path, .. } = &mut config.source else {
        return Ok(());
    };
    let Some(root) = data_dir else {
        return Err("file data sources require a server started with --data-dir".to_string());
    };
    let relative = Path::new(path.as_str());
    if relative.as_os_str().is_empty()
        || !relative
            .components()
            .all(|c| matches!(c, Component::Normal(_)))
    {
        return Err(format!(
            "file path {path:?} must be a plain relative path under the data dir"
        ));
    }
    *path = root.join(relative).display().to_string();
    Ok(())
}

/// The dataset preparation a request depends on (`None` for `solve`
/// and the control plane).
fn prep_key_of(request: &Request) -> Option<PrepKey> {
    match &request.kind {
        RequestKind::Cell(req) => Some(config_prep_key(&req.config)),
        RequestKind::Matrix(req) => Some(config_prep_key(&req.config)),
        RequestKind::Estimate(req) => Some(config_prep_key(&req.config)),
        RequestKind::Online(req) => Some(config_prep_key(&req.config)),
        RequestKind::Solve(_)
        | RequestKind::Stats
        | RequestKind::Metrics
        | RequestKind::Events { .. }
        | RequestKind::Resize { .. }
        | RequestKind::Shutdown => None,
    }
}

/// Work estimate of an evaluation request, in multiply-adds: the
/// order the executors run a generation in (cheapest first). It is a
/// deterministic function of the request document, computed once at
/// admission, and only needs to rank requests, not to predict their
/// time.
///
/// * One model fit of a config costs `training rows × epochs ×
///   features`: the rows are the source's (`synthetic_spambase` rows,
///   both `blobs` classes, `csv_text` lines, and the Spambase size for
///   a `file`, whose length the document does not carry) less the
///   test fraction; the features are the Spambase width, or `dim` for
///   `blobs`. The learner does not enter: at a fixed epoch count the
///   three learners cost about the same.
/// * A `cell` counts 2 fits (the fit, plus the attack, filter and
///   held-out evaluation around it); a `matrix` 1 + one per cell; an
///   `estimate` 1 + one per placement + one per strength other than
///   `+0.0` (which reuses the baseline); an `online` game 1 + one per
///   payoff cell, plus `rounds × cells` learner updates.
/// * Every cell filtered by the k-NN defense adds `training rows² ×
///   features / 4`: it compares each pair of training points within a
///   class (about rows²/2 pairs), and a distance multiply-add costs
///   about half of a fit's. The radius and slab filters are linear and
///   ride in the fits. `estimate` and `online` cells use the config's
///   scenario; `cell` and `matrix` their own.
/// * A `solve` at resolution `r` plays an `m × n = (r+2) × (r+1)`
///   game and costs what its solver touches: `(m + n) × m·n` for the
///   LP (about `m + n` pivots over the tableau) and `20,000 rounds ×
///   2 × m·n` for multiplicative weights, and the same for fictitious
///   play. `auto` takes the LP up to [`AUTO_EXACT_LIMIT`] actions a
///   side.
///
/// On a 300-row, 20-epoch config this gives a resolution-40 solve
/// ~1.5e5, a paper cell ~4.8e5, an estimate over two placements and
/// strengths `[0, 0.2]` ~9.6e5 and a k-NN cell ~1.1e6. Served alone on
/// one executor (2-core host, medians of 40) those took 0.8, 2.7, 4.8
/// and 5.4 ms; at 600 rows the cell, estimate and k-NN cell took 3.8,
/// 7.9 and 13.2 ms against estimates of 9.6e5, 1.9e6 and 3.5e6.
pub(crate) fn work_estimate(kind: &RequestKind) -> u64 {
    // (training rows, features) of a config's preparation.
    let shape = |config: &ExperimentConfig| -> (f64, f64) {
        let (rows, features) = match &config.source {
            DataSource::SyntheticSpambase { rows } => (*rows, SPAMBASE_DIM),
            DataSource::Blobs { per_class, dim, .. } => (per_class.saturating_mul(2), *dim),
            DataSource::CsvText { text } => (text.lines().count(), SPAMBASE_DIM),
            DataSource::File { .. } => (SPAMBASE_ROWS, SPAMBASE_DIM),
        };
        let train = (rows as f64 * (1.0 - config.test_fraction)).max(1.0);
        (train, features.max(1) as f64)
    };
    let fits = |config: &ExperimentConfig, count: usize| -> f64 {
        let (train, features) = shape(config);
        count as f64 * train * config.epochs.max(1) as f64 * features
    };
    // What one cell's filter adds to its fits.
    let filter = |config: &ExperimentConfig, defense: &DefenseSpec| -> f64 {
        match defense {
            DefenseSpec::Knn { .. } => {
                let (train, features) = shape(config);
                train * train * features / 4.0
            }
            DefenseSpec::Radius | DefenseSpec::Slab => 0.0,
        }
    };
    let cost = match kind {
        RequestKind::Solve(req) => {
            let (m, n) = (req.resolution as f64 + 2.0, req.resolution as f64 + 1.0);
            let exact = match req.solver {
                SolverKind::Auto => req.resolution.saturating_add(2) <= AUTO_EXACT_LIMIT,
                SolverKind::Simplex => true,
                SolverKind::FictitiousPlay | SolverKind::MultiplicativeWeights => false,
            };
            if exact {
                (m + n) * m * n
            } else {
                20_000.0 * 2.0 * m * n
            }
        }
        RequestKind::Cell(req) => fits(&req.config, 2) + filter(&req.config, &req.scenario.defense),
        RequestKind::Matrix(req) => {
            let per_defense = (req.matrix.attacks.len() * req.matrix.learners.len()) as f64;
            let filters: f64 = req
                .matrix
                .defenses
                .iter()
                .map(|defense| filter(&req.config, defense))
                .sum();
            fits(&req.config, 1 + req.matrix.len()) + per_defense * filters
        }
        RequestKind::Estimate(req) => {
            let clean = req
                .strengths
                .iter()
                .filter(|s| s.to_bits() != 0.0f64.to_bits())
                .count();
            let cells = 1 + req.placements.len() + clean;
            fits(&req.config, cells)
                + cells as f64 * filter(&req.config, &req.config.scenario.defense)
        }
        RequestKind::Online(req) => {
            let cells = req.spec.n_cells();
            fits(&req.config, 1 + cells)
                + cells as f64 * filter(&req.config, &req.config.scenario.defense)
                + req.spec.rounds as f64 * cells as f64
        }
        RequestKind::Stats
        | RequestKind::Metrics
        | RequestKind::Events { .. }
        | RequestKind::Resize { .. }
        | RequestKind::Shutdown => 0.0,
    };
    // Saturating: `as` clamps huge and non-finite values.
    cost as u64
}

// ---------------------------------------------------------------------------
// Execution (on an executor thread)
// ---------------------------------------------------------------------------

/// Run one job to completion against its shard's engine and queue its
/// response.
pub(crate) fn run_job(inner: &Inner, shard: &Shard, job: Job) {
    let start = Instant::now();
    job.conn.send(&execute(inner, shard, &job));
    shard.counters.busy_micros.fetch_add(
        start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
        Ordering::Relaxed,
    );
    shard.obs.sync_cache(shard.engine.cache_stats());
}

/// Evaluate one job into its response. The deadline gate comes first,
/// so an expired request never pays for (or pollutes the bounded cache
/// with) a dataset preparation.
fn execute(inner: &Inner, shard: &Shard, job: &Job) -> Response {
    let id = job.request.id;
    let kind = job.request.kind.type_name();
    let service_start = Instant::now();
    let queue_wait = service_start.duration_since(job.admitted_at);
    if let Some(deadline) = job.deadline {
        if service_start > deadline {
            Counters::bump(&inner.counters.expired);
            Counters::bump(&shard.counters.expired);
            inner.telemetry.note_deadline_missed(kind, id, shard.index);
            return Response::err(
                Some(id),
                ErrorCode::Deadline,
                "deadline expired before evaluation started",
            );
        }
    }
    // The shard's cache is single-flight: executors preparing the same
    // key at once build it once and share it.
    let shared = || -> Result<Arc<PreparedData>, SimError> {
        let key = job.prep_key.as_ref().ok_or_else(|| {
            SimError::Spec("internal: evaluation request without a preparation".into())
        })?;
        shard.engine.prepare_shared(key)
    };
    let result: Result<Json, SimError> = match &job.request.kind {
        RequestKind::Solve(req) => run_solve(req),
        RequestKind::Cell(req) => shared().and_then(|data| {
            let prepared = Prepared::from_shared(data, &req.config)?;
            run_matrix_prepared(&prepared, &req.config, &req.as_matrix(), &inner.eval_policy)
                .map(|results| results.to_json())
        }),
        RequestKind::Matrix(req) => shared().and_then(|data| {
            let prepared = Prepared::from_shared(data, &req.config)?;
            run_matrix_prepared(&prepared, &req.config, &req.matrix, &inner.eval_policy)
                .map(|results| results.to_json())
        }),
        RequestKind::Estimate(req) => shared().and_then(|data| {
            let prepared = Prepared::from_shared(data, &req.config)?;
            estimate_curves_prepared(
                &prepared,
                &req.config,
                &req.placements,
                &req.strengths,
                &inner.eval_policy,
            )
            .map(|estimate| estimate.to_json())
        }),
        RequestKind::Online(req) => shared().and_then(|data| {
            let prepared = Prepared::from_shared(data, &req.config)?;
            run_online_prepared(&prepared, &req.config, &req.spec, &inner.eval_policy)
                .map(|trace| trace.to_json())
                // Online play has its own error domain; unwrap the
                // pipeline errors it carries and flatten the rest into
                // the evaluation error the wire already speaks.
                .map_err(|e| match e {
                    poisongame_online::OnlineError::Sim(e) => e,
                    other => SimError::Spec(other.to_string()),
                })
        }),
        RequestKind::Stats
        | RequestKind::Metrics
        | RequestKind::Events { .. }
        | RequestKind::Resize { .. }
        | RequestKind::Shutdown => {
            // Handled inline by the multiplexer; nothing enqueues these.
            Err(SimError::Spec("internal: control request in queue".into()))
        }
    };
    // The response is a pure function of the request; the recorded
    // timings never feed into it (byte-identity invariant).
    inner
        .telemetry
        .record_request(kind, id, queue_wait, service_start.elapsed());
    shard.obs.record_queue_wait(queue_wait);
    match result {
        Ok(json) => {
            Counters::bump(&inner.counters.completed);
            Counters::bump(&shard.counters.completed);
            Response::ok(id, json)
        }
        Err(e) => {
            Counters::bump(&inner.counters.failed);
            Counters::bump(&shard.counters.failed);
            Response::err(Some(id), ErrorCode::EvalFailed, e.to_string())
        }
    }
}

/// Execute a `solve`: fit the shipped curve samples, assemble the
/// game, solve the discretization with the requested solver.
fn run_solve(req: &SolveRequest) -> Result<Json, SimError> {
    let effect = EffectCurve::from_samples(&req.effect_samples)?;
    let cost = CostCurve::from_samples(&req.cost_samples)?;
    let game = PoisonGame::new(effect, cost, req.n_points)?;
    let solution = solve_discretized_with(&game, req.resolution, req.solver)?;
    Ok(SolveResult {
        value: solution.value,
        solver: solution.solver.clone(),
        defender_support: solution.defender_strategy.support().to_vec(),
        defender_probabilities: solution.defender_strategy.probabilities().to_vec(),
        attacker_support: solution.attacker_support.clone(),
    }
    .to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::{CellRequest, EstimateRequest, MatrixRequest};
    use poisongame_sim::scenario::{LearnerSpec, Scenario, ScenarioMatrix};

    fn config(rows: usize) -> ExperimentConfig {
        ExperimentConfig {
            source: DataSource::SyntheticSpambase { rows },
            epochs: 20,
            ..ExperimentConfig::paper()
        }
    }

    fn solve(resolution: usize, solver: SolverKind) -> RequestKind {
        RequestKind::Solve(SolveRequest {
            effect_samples: vec![(0.0, 2.0e-4), (0.2, 4.0e-5), (0.45, -1.0e-6)],
            cost_samples: vec![(0.0, 0.0), (0.2, 0.022), (0.4, 0.065)],
            n_points: 644,
            resolution,
            solver,
        })
    }

    #[test]
    fn work_estimate_ranks_solve_below_cell_below_estimate() {
        let cell = RequestKind::Cell(CellRequest {
            config: config(300),
            ..CellRequest::default()
        });
        let estimate = |strengths: Vec<f64>| {
            RequestKind::Estimate(EstimateRequest {
                config: config(300),
                placements: vec![0.05, 0.2],
                strengths,
            })
        };
        let lp = work_estimate(&solve(40, SolverKind::Auto));
        let cell = work_estimate(&cell);
        // Five cells, four after the +0.0 strength reuses the baseline.
        let five = work_estimate(&estimate(vec![0.0, 0.2]));
        assert!(lp < cell, "solve {lp} vs cell {cell}");
        assert!(cell < five, "cell {cell} vs estimate {five}");
        assert!(five < work_estimate(&estimate(vec![0.1, 0.2])));
        // A solve past the LP limit runs multiplicative weights and
        // outweighs the cell; the estimate is a pure function of the
        // document.
        let mw = work_estimate(&solve(150, SolverKind::Auto));
        assert!(mw > cell);
        assert_eq!(
            mw,
            work_estimate(&solve(150, SolverKind::MultiplicativeWeights))
        );
        assert!(work_estimate(&solve(150, SolverKind::Simplex)) < mw);
        assert_eq!(lp, work_estimate(&solve(40, SolverKind::Auto)));
    }

    #[test]
    fn work_estimate_charges_knn_filtering() {
        let cell = |rows: usize, defense: DefenseSpec, learner: LearnerSpec| {
            work_estimate(&RequestKind::Cell(CellRequest {
                config: config(rows),
                scenario: Scenario::builder()
                    .defense(defense)
                    .learner(learner)
                    .build(),
                ..CellRequest::default()
            }))
        };
        let estimate = |rows: usize| {
            work_estimate(&RequestKind::Estimate(EstimateRequest {
                config: config(rows),
                placements: vec![0.05, 0.2],
                strengths: vec![0.0, 0.2],
            }))
        };
        let knn = DefenseSpec::Knn { k: 5 };
        // The order measured alone: paper cell < estimate < k-NN cell.
        let paper = cell(300, DefenseSpec::Radius, LearnerSpec::Svm);
        assert!(paper < estimate(300));
        assert!(estimate(300) < cell(300, knn, LearnerSpec::LogReg));
        assert_eq!(paper, cell(300, DefenseSpec::Slab, LearnerSpec::LogReg));
        // The k-NN term is quadratic in the rows, the fits linear.
        assert!(
            cell(1200, knn, LearnerSpec::Svm)
                > 4 * cell(1200, DefenseSpec::Radius, LearnerSpec::Svm)
        );
        // A matrix charges each k-NN cell once.
        let matrix = work_estimate(&RequestKind::Matrix(MatrixRequest {
            config: config(300),
            matrix: ScenarioMatrix {
                defenses: vec![DefenseSpec::Radius, knn],
                ..ScenarioMatrix::default()
            },
        }));
        // (1 + 2 cells) fits + one k-NN filter: one fit more than the
        // k-NN cell alone.
        let knn_cell = cell(300, knn, LearnerSpec::Svm);
        assert!(knn_cell < matrix && matrix < knn_cell + paper);
    }

    #[test]
    fn executor_count_is_capped() {
        // `bind` starts no thread, so the oversized request is safe.
        let server = Server::bind(ServerConfig {
            workers: 100_000,
            ..ServerConfig::default()
        })
        .expect("bind");
        assert_eq!(server.inner.workers, MAX_WORKERS);
    }

    #[test]
    fn idle_executors_stay_parked() {
        let server = Server::bind(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        })
        .expect("bind");
        let addr = server.local_addr().expect("local addr");
        let inner = Arc::clone(&server.inner);
        let handle = server.spawn();
        let idle = || {
            let before = inner.pool.wakeups();
            thread::sleep(Duration::from_millis(300));
            inner.pool.wakeups() - before
        };
        // A polling executor would wake thousands of times here.
        assert_eq!(idle(), 0, "a fresh server's executors wake up");
        let mut client = Client::connect(addr).expect("connect");
        client
            .call(solve(20, SolverKind::Auto), None)
            .expect("solve");
        assert!(inner.pool.wakeups() >= 1, "admission woke an executor");
        assert_eq!(idle(), 0, "executors park again after the work");
        client.shutdown().expect("shutdown");
        handle.join().expect("server exit");
    }
}
