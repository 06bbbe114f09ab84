//! The sharded, multiplexed evaluation server.
//!
//! Architecture (all `std`, no external runtime):
//!
//! * **Multiplexer** — one readiness loop over nonblocking sockets
//!   ([`crate::mux`]) replaces thread-per-connection: it accepts,
//!   parses frames, answers `stats`/`resize`/`shutdown` inline (they
//!   stay responsive even when evaluation is saturated) and flushes
//!   worker-queued responses. Thousands of idle pipelined connections
//!   cost one thread.
//! * **Shard pool** — evaluation requests are admitted to one of N
//!   independent engine shards ([`crate::shard`]), routed by
//!   prep-key affinity (`content hash % N` — same preparation, same
//!   shard, so cache locality survives sharding) with a least-loaded
//!   fallback for requests carrying no preparation key (`solve`).
//! * **Admission** — each shard's queue is bounded. A full queue sheds
//!   the request with a structured `busy` error immediately; the
//!   server never buffers unboundedly and never blocks the
//!   multiplexer on evaluation.
//! * **Dispatchers** — one per shard: each drains its queue in batches
//!   and routes each batch through [`prepare_then_map`], so distinct
//!   dataset preparations are computed once per batch and answered
//!   from the shard's bounded prep cache across batches, then cells
//!   fan out across the process-wide worker pool
//!   (`poisongame_sim::exec::pool`) — the per-shard `workers` setting
//!   is a concurrency cap on that fan-out, not a set of dedicated
//!   threads, so an idle shard reserves no cores from a busy one and
//!   no batch pays thread spawn/join churn. A request's response is
//!   queued from its evaluation task, so cheap requests in a batch
//!   complete while expensive ones still run.
//! * **Deadlines** — checked when evaluation is about to start; an
//!   expired request is answered with a `deadline` error instead of
//!   being evaluated. Running evaluations are never preempted.
//! * **Resize** — a `resize` request re-splits the pool: new shards
//!   (cold caches) take over admission, old shards drain every queued
//!   job before their dispatchers exit. No in-flight request is
//!   dropped.
//! * **Shutdown** — a `shutdown` request is acked, then the server
//!   stops admitting, finishes every queued request, flushes every
//!   response, and `run` returns.
//!
//! Responses are pure functions of their request document: worker
//! count, shard count, queue order and co-tenant requests never
//! change a result (see `tests/loopback.rs` and `tests/sharding.rs`).

use crate::mux::{mux_loop, Conn, MuxWaker};
use crate::protocol::{
    parse_request_line, ErrorCode, Request, RequestKind, Response, ServerStats, ShardStats,
    SolveRequest, SolveResult, DEFAULT_MAX_LINE_BYTES,
};
use crate::shard::{Admission, Shard, ShardPool};
use crate::telemetry::{self, Telemetry};
use poisongame_core::bridge::solve_discretized_with;
use poisongame_core::{CostCurve, EffectCurve, PoisonGame};
use poisongame_obs::{EventLog, Registry};
use poisongame_online::run_online_prepared;
use poisongame_sim::engine::{config_prep_key, PrepKey};
use poisongame_sim::estimate::estimate_curves_prepared;
use poisongame_sim::exec::prepare_then_map;
use poisongame_sim::jsonio::Json;
use poisongame_sim::pipeline::{Prepared, PreparedData};
use poisongame_sim::scenario::run_matrix_prepared;
use poisongame_sim::{ExecPolicy, SimError};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks an ephemeral port (read it back
    /// via [`Server::local_addr`]).
    pub addr: String,
    /// Engine shard count: independent evaluation engines, each with
    /// its own bounded prep cache, admission queue and dispatcher.
    /// Requests route by prep-key affinity. `0` is treated as 1.
    pub shards: usize,
    /// Evaluation concurrency cap — how many shared-pool threads may
    /// work one admitted batch on one shard; `0` means one per
    /// hardware thread. Since the shared pool replaced per-batch
    /// scoped threads, this caps participation in the process-wide
    /// [`poisongame_sim::exec::pool::WorkerPool`] rather than sizing a
    /// dedicated per-shard pool.
    pub workers: usize,
    /// Per-shard admission queue bound: requests beyond it are shed
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
    /// which prepares nothing) — precomputed so affinity routing and
    /// batch deduplication are a hash away.
    pub prep_key: Option<PrepKey>,
    pub conn: Arc<Conn>,
    /// When the multiplexer admitted the job; the queue-wait
    /// histograms record the span from here to service start.
    pub admitted_at: Instant,
}

/// State shared by the multiplexer and the shard dispatchers.
pub(crate) struct Inner {
    pub pool: ShardPool,
    pub worker_policy: ExecPolicy,
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
    /// Wake the multiplexer (a worker queued a response, or a
    /// dispatcher exited during a drain).
    pub fn wake_mux(&self) {
        self.waker.wake();
    }

    /// Route a job to its shard and admit it, or answer it with a
    /// structured rejection. Admission runs only on the multiplexer
    /// thread — the same thread that flips the shutdown flag and
    /// swaps the shard set — so an admitted job is always drained by
    /// its shard's dispatcher, never stranded.
    fn admit(&self, mut job: Job) {
        if self.shutdown.load(Ordering::SeqCst) {
            let response = Response::err(
                Some(job.request.id),
                ErrorCode::ShuttingDown,
                "server is draining and admits no new work",
            );
            job.conn.send(&response);
            return;
        }
        loop {
            let shards = self.pool.current();
            let shard = match &job.prep_key {
                // Prep-key affinity: same preparation key, same shard,
                // so PrepCache locality survives sharding.
                Some(key) => {
                    let index = (key.content_hash() % shards.len() as u64) as usize;
                    Arc::clone(&shards[index])
                }
                // No preparation to keep local (`solve`): fall back to
                // the least-loaded shard, ties to the lowest index.
                None => shards
                    .iter()
                    .min_by_key(|shard| (shard.queue_depth(), shard.index))
                    .map(Arc::clone)
                    .expect("shard pool is never empty"),
            };
            match shard.admit(job) {
                Admission::Queued => return,
                Admission::Full(job) => {
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
                    return;
                }
                // A concurrent resize retired the shard between the
                // snapshot and the admit; re-route against the fresh
                // pool.
                Admission::Retired(returned) => job = returned,
            }
        }
    }

    /// Flip to draining: reject new admissions and wake every shard
    /// dispatcher so the backlog drains and the multiplexer can
    /// finish. Called on the multiplexer thread, so no admission can
    /// race the flag.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.pool.notify_all();
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
        // Shared-pool counters: shard dispatchers fan batches out
        // through the process-wide worker pool, so one snapshot covers
        // every shard.
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
        let worker_policy = ExecPolicy::with_threads(config.workers);
        let workers = worker_policy.effective_threads(usize::MAX);
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
                worker_policy,
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
        inner.pool.spawn_dispatchers(&inner);
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
            inner.pool.resize(inner, *shards);
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
            inner.admit(Job {
                request,
                deadline,
                prep_key,
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

// ---------------------------------------------------------------------------
// Dispatch (one loop per shard)
// ---------------------------------------------------------------------------

/// A batch's phase-1 product per job: nothing for `solve`, the shared
/// (or failed) preparation otherwise.
type BatchPrep = Option<Result<Arc<PreparedData>, SimError>>;

pub(crate) fn dispatch_loop(inner: &Arc<Inner>, shard: &Arc<Shard>) {
    loop {
        let batch: Vec<Job> = {
            let mut queue = shard.queue.lock().expect("shard queue poisoned");
            loop {
                if !queue.is_empty() {
                    break queue.drain(..).collect();
                }
                // Exit only on an empty queue: every admitted job is
                // drained, through shutdown and retirement alike.
                if inner.shutdown.load(Ordering::SeqCst) || shard.retired.load(Ordering::SeqCst) {
                    return;
                }
                queue = shard.queue_cv.wait(queue).expect("shard queue poisoned");
            }
        };
        let start = Instant::now();
        process_batch(inner, shard, batch);
        shard.counters.busy_micros.fetch_add(
            start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
        shard.obs.sync_cache(shard.engine.cache_stats());
    }
}

/// Route one admitted batch through the two-phase task graph: distinct
/// preparations once (answered from the shard's store when warm), then
/// every job evaluated across the shard's worker pool, each queueing
/// its own response as it finishes.
///
/// Jobs whose deadline already expired while queued are rejected up
/// front — before phase 1 — so a dead request never pays for (or
/// pollutes the bounded cache with) a dataset preparation.
fn process_batch(inner: &Inner, shard: &Shard, batch: Vec<Job>) {
    let now = Instant::now();
    let (live, expired): (Vec<Job>, Vec<Job>) = batch
        .into_iter()
        .partition(|job| job.deadline.map_or(true, |deadline| now <= deadline));
    for job in &expired {
        Counters::bump(&inner.counters.expired);
        Counters::bump(&shard.counters.expired);
        inner.telemetry.note_deadline_missed(
            job.request.kind.type_name(),
            job.request.id,
            shard.index,
        );
        job.conn.send(&Response::err(
            Some(job.request.id),
            ErrorCode::Deadline,
            "deadline expired before evaluation started",
        ));
    }
    let outcome: Result<Vec<()>, ()> = prepare_then_map(
        &inner.worker_policy,
        &live,
        |job| job.prep_key.clone(),
        |key: &Option<PrepKey>| Ok(key.as_ref().map(|k| shard.engine.prepare_shared(k))),
        |_, job, prep: &BatchPrep| {
            job.conn.send(&execute(inner, shard, job, prep));
            Ok(())
        },
    );
    debug_assert!(outcome.is_ok(), "batch closures are infallible");
}

/// Evaluate one job into its response (deadline gate first).
fn execute(inner: &Inner, shard: &Shard, job: &Job, prep: &BatchPrep) -> Response {
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
    let shared = || -> Result<Arc<PreparedData>, SimError> {
        match prep {
            Some(Ok(data)) => Ok(Arc::clone(data)),
            Some(Err(e)) => Err(e.clone()),
            None => Err(SimError::Spec(
                "internal: evaluation request without a preparation".into(),
            )),
        }
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
