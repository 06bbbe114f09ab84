//! `serve_mixed`: the serving tier driven from one process over NDJSON.
//!
//! The traffic is `load_test`'s 4-kind cycle — paper-triple `cell`,
//! `solve`, `estimate`, knn/logreg `cell` (300 rows, 20 epochs) — over
//! 5 config seeds drawn from the workload seed, so the prep cache is
//! warm after first touch. The server runs in-process with
//! `shards = nproc` and otherwise the default `ServerConfig`; load
//! comes from at most two threads over one connection.
//!
//! The untraced run sends the whole cycle back to back, burst after
//! burst, timing each request from its burst's start (how fast the tier
//! drains a full pipeline). The open-loop part — a generator writing
//! each request at its due time while the other thread reads, latency
//! timed from the due time — runs in the traced run, with the
//! server-side counters, the gateway probe and the overload probe (see
//! `NOTES.md` for why it is not an end-to-end figure on the reference
//! host).
//!
//! Every response must equal the canonical response of its cycle slot,
//! taken on first touch, and every served `cell` must equal a local
//! `pipeline::run_cell` of the same document.

use crate::measure::{median, percentile, sorted, Report};
use crate::replay::{err, same_bits, CellReplay, Counts};
use crate::Ctx;
use poisongame::core::bridge::solve_discretized_with;
use poisongame::core::{CostCurve, EffectCurve, PoisonGame, SolverKind};
use poisongame::defense::FilterStrength;
use poisongame::gateway::client::HttpClient;
use poisongame::gateway::server::{Gateway, GatewayConfig, GatewayHandle};
use poisongame::linalg::rng::SplitMix64;
use poisongame::linalg::Xoshiro256StarStar;
use poisongame::obs::{HistogramSnapshot, MetricValue, RegistrySnapshot, BUCKET_COUNT};
use poisongame::serve::client::Client;
use poisongame::serve::protocol::{
    parse_response_line, read_frame, CellRequest, ErrorCode, EstimateRequest, Frame, Request,
    RequestKind, ResponseBody, ServerStats, SolveRequest, DEFAULT_MAX_LINE_BYTES,
};
use poisongame::serve::server::{Server, ServerConfig, ServerHandle};
use poisongame::serve::telemetry::registry_from_json;
use poisongame::sim::engine::config_prep_key;
use poisongame::sim::jsonio::Json;
use poisongame::sim::pipeline::{
    filter_train_eval, hugging_placement, prepare, run_cell, DataSource, EvalOutcome,
    ExperimentConfig,
};
use poisongame::sim::scenario::{DefenseSpec, LearnerSpec, MatrixResults, Scenario};
use rand::SeedableRng;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Open-loop arrival rate of the traced run (about a quarter of the
/// tier's capacity on the reference host).
const NOMINAL_RPS: f64 = 100.0;
/// The latency limit an open-loop rate must meet.
const P99_LIMIT_MS: f64 = 50.0;
/// The generator fell behind when its median send lag exceeds this (a
/// fifth of the latency limit): one late wake-up is jitter, and it is
/// already charged to latency, which is timed from the due time.
const LAG_LIMIT_MS: f64 = 10.0;

/// One request of the cycle.
struct Slot {
    request: RequestKind,
    /// The NDJSON frame minus its id (`{"id":N,` is prefixed at send
    /// time).
    wire: String,
    /// Rows of data the request's work is defined over: dataset rows
    /// for cells and estimates, payoff-matrix rows for solves.
    rows: f64,
}

fn cell_config(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        seed,
        source: DataSource::SyntheticSpambase { rows: 300 },
        epochs: 20,
        ..ExperimentConfig::paper()
    }
}

/// The 20-request cycle: 4 kinds × 5 config seeds.
///
/// The server routes a config's requests to shard
/// `prep-key content hash % shards`, so the seeds decide how the cycle
/// splits across shards. They are drawn from the workload seed such
/// that seed `k` lands on shard `k % shards`; otherwise one workload
/// seed could put four of the five configs on one shard and another
/// split them 3/2, and that shape — not the code — would set the
/// figures.
fn cycle(seed: u64, shards: usize) -> Vec<Slot> {
    const SEEDS: usize = 5;
    let mut mix = SplitMix64::new(seed ^ 0x5e7e_d0c5);
    let seeds: Vec<u64> = (0..SEEDS)
        .map(|k| loop {
            let candidate = mix.next() >> 32;
            let key = config_prep_key(&cell_config(candidate));
            if key.content_hash() % shards as u64 == (k % shards) as u64 {
                break candidate;
            }
        })
        .collect();
    (0..20)
        .map(|i| {
            let config = cell_config(seeds[i % SEEDS]);
            let (request, rows) = match i % 4 {
                0 => (
                    RequestKind::Cell(CellRequest {
                        config,
                        ..CellRequest::default()
                    }),
                    300.0,
                ),
                1 => (
                    RequestKind::Solve(SolveRequest {
                        effect_samples: vec![
                            (0.0, 2.0e-4),
                            (0.1, 9.0e-5),
                            (0.3, 1.5e-5),
                            (0.45, -1.0e-6),
                        ],
                        cost_samples: vec![(0.0, 0.0), (0.1, 0.009), (0.3, 0.04)],
                        n_points: 644,
                        resolution: 40,
                        ..SolveRequest::default()
                    }),
                    42.0,
                ),
                2 => (
                    RequestKind::Estimate(EstimateRequest {
                        config,
                        placements: vec![0.05, 0.2],
                        strengths: vec![0.0, 0.2],
                    }),
                    300.0,
                ),
                _ => (
                    RequestKind::Cell(CellRequest {
                        config,
                        scenario: Scenario::builder()
                            .defense(DefenseSpec::Knn { k: 5 })
                            .learner(LearnerSpec::LogReg)
                            .build(),
                        ..CellRequest::default()
                    }),
                    300.0,
                ),
            };
            let line = Request {
                id: 0,
                deadline_ms: None,
                kind: request.clone(),
            }
            .to_line();
            let wire = line
                .strip_prefix("{\"id\":0,")
                .expect("request documents lead with the id")
                .to_string();
            Slot {
                request,
                wire,
                rows,
            }
        })
        .collect()
}

/// The in-process server, and (traced runs) the gateway in front of it.
struct Stack {
    server: ServerHandle,
    server_addr: String,
    gateway: Option<(GatewayHandle, String)>,
}

impl Stack {
    fn start(config: &ServerConfig, with_gateway: bool) -> Result<Stack, String> {
        let server = Server::bind(config.clone()).map_err(err)?;
        let server_addr = server.local_addr().map_err(err)?.to_string();
        let server = server.spawn();
        let gateway = if with_gateway {
            let gateway = Gateway::bind(GatewayConfig {
                backend: server_addr.clone(),
                ..GatewayConfig::default()
            })
            .map_err(err)?;
            let addr = gateway.local_addr().to_string();
            Some((gateway.spawn(), addr))
        } else {
            None
        };
        Ok(Stack {
            server,
            server_addr,
            gateway,
        })
    }

    /// Drain and join every tier.
    fn stop(self) -> Result<(), String> {
        match self.gateway {
            // The gateway forwards the shutdown to the server.
            Some((handle, addr)) => {
                let response = HttpClient::connect(&addr)
                    .and_then(|mut c| c.post("/v1/shutdown", ""))
                    .map_err(err)?;
                if response.status != 200 {
                    return Err(format!("gateway shutdown: HTTP {}", response.status));
                }
                handle.join().map_err(err)?;
            }
            None => Client::connect(&self.server_addr)
                .map_err(err)?
                .shutdown()
                .map_err(err)?,
        }
        self.server.join().map_err(err)?;
        Ok(())
    }
}

/// The load connection: NDJSON, pipelined.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(err)?;
        stream.set_nodelay(true).map_err(err)?;
        // A server that stops answering must not hang the benchmark.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(err)?;
        let reader = BufReader::new(stream.try_clone().map_err(err)?);
        Ok(Conn {
            stream,
            reader,
            next_id: 0,
        })
    }

    fn read_line(reader: &mut BufReader<TcpStream>) -> Result<String, String> {
        match read_frame(reader, DEFAULT_MAX_LINE_BYTES).map_err(err)? {
            Frame::Line(line) => Ok(line),
            _ => Err("server closed or garbled the NDJSON stream".into()),
        }
    }
}

/// What happened to one request.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Match,
    Mismatch,
    Shed,
    Error,
}

/// One open-loop phase, after the fact.
struct Phase {
    rate: f64,
    /// Wire id of the phase's first request; request `k` has id
    /// `first_id + k`.
    first_id: u64,
    due: Vec<Instant>,
    sent: Vec<Instant>,
    done: Vec<Instant>,
    outcomes: Vec<Outcome>,
    /// `due[0]` and the end of the send schedule.
    start: Instant,
    end: Instant,
}

impl Phase {
    /// Latency of every request, timed from its due time.
    fn latencies_ms(&self) -> Vec<f64> {
        sorted(
            self.due
                .iter()
                .zip(&self.done)
                .map(|(d, f)| f.duration_since(*d).as_secs_f64() * 1e3)
                .collect(),
        )
    }

    fn lags_ms(&self) -> Vec<f64> {
        sorted(
            self.due
                .iter()
                .zip(&self.sent)
                .map(|(d, s)| s.saturating_duration_since(*d).as_secs_f64() * 1e3)
                .collect(),
        )
    }

    fn count(&self, which: Outcome) -> u64 {
        self.outcomes.iter().filter(|o| **o == which).count() as u64
    }

    /// Requests sent but not yet answered at `t`.
    fn backlog_at(&self, t: Instant) -> i64 {
        let sent = self.sent.iter().filter(|s| **s <= t).count() as i64;
        let done = self.done.iter().filter(|d| **d <= t).count() as i64;
        sent - done
    }

    /// The backlog grew over the second half of the schedule by more
    /// than noise, or the server shed load (its own queue bound
    /// tripped).
    fn backlog_growing(&self) -> bool {
        let mid = self.start + self.end.duration_since(self.start) / 2;
        let (at_mid, at_end) = (self.backlog_at(mid), self.backlog_at(self.end));
        let half = (self.due.len() / 2) as i64;
        at_end - at_mid > (half / 20).max(3) || self.count(Outcome::Shed) > 0
    }

    fn failures(&self) -> u64 {
        self.outcomes.len() as u64 - self.count(Outcome::Match)
    }
}

/// An open-loop rate's verdict.
struct Step {
    rate: f64,
    requests: usize,
    p99_ms: f64,
    lag_p50_ms: f64,
    lag_p99_ms: f64,
    failures: u64,
    mismatches: u64,
    backlog_growing: bool,
    generator_ok: bool,
    passed: bool,
}

impl Step {
    fn judge(phase: &Phase) -> Step {
        let p99_ms = percentile(&phase.latencies_ms(), 99.0);
        let lags = phase.lags_ms();
        let lag_p50_ms = median(&lags);
        let failures = phase.failures();
        let backlog_growing = phase.backlog_growing();
        let generator_ok = lag_p50_ms <= LAG_LIMIT_MS;
        Step {
            rate: phase.rate,
            requests: phase.due.len(),
            p99_ms,
            lag_p50_ms,
            lag_p99_ms: percentile(&lags, 99.0),
            failures,
            mismatches: phase.count(Outcome::Mismatch),
            backlog_growing,
            generator_ok,
            passed: p99_ms <= P99_LIMIT_MS && failures == 0 && !backlog_growing && generator_ok,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("rate", Json::Num(self.rate)),
            ("requests", Json::Num(self.requests as f64)),
            ("p99_ms", Json::Num(self.p99_ms)),
            ("generator_lag_p50_ms", Json::Num(self.lag_p50_ms)),
            ("generator_lag_p99_ms", Json::Num(self.lag_p99_ms)),
            ("failures", Json::Num(self.failures as f64)),
            ("backlog_growing", Json::Bool(self.backlog_growing)),
            ("generator_ok", Json::Bool(self.generator_ok)),
            ("passed", Json::Bool(self.passed)),
        ])
    }
}

/// Drives the cycle against one stack.
struct LoadGen<'a> {
    slots: &'a [Slot],
    /// Canonical rendered result per slot.
    canonical: Vec<Option<String>>,
    conn: Conn,
    /// Cycle position of the next request.
    position: usize,
}

impl LoadGen<'_> {
    fn frame(&self, id: u64, position: usize) -> String {
        format!(
            "{{\"id\":{id},{}",
            self.slots[position % self.slots.len()].wire
        )
    }

    /// Judge one response line; returns its id and outcome.
    fn outcome(
        &mut self,
        line: &str,
        first_id: u64,
        first_position: usize,
    ) -> Result<(usize, Outcome), String> {
        let response = parse_response_line(line).map_err(err)?;
        let id = response.id.ok_or("response without an id")?;
        let k = id
            .checked_sub(first_id)
            .ok_or_else(|| format!("response id {id} out of phase"))? as usize;
        let outcome = match response.body {
            ResponseBody::Ok(result) => {
                let index = (first_position + k) % self.slots.len();
                let body = result.render();
                match &self.canonical[index] {
                    Some(expected) if *expected == body => Outcome::Match,
                    Some(_) => Outcome::Mismatch,
                    None => {
                        self.canonical[index] = Some(body);
                        Outcome::Match
                    }
                }
            }
            ResponseBody::Err {
                code: ErrorCode::Busy,
                ..
            } => Outcome::Shed,
            ResponseBody::Err { .. } => Outcome::Error,
        };
        Ok((k, outcome))
    }

    /// Send `n` requests at `rate` (all at once for an infinite rate)
    /// and collect every response. The generator writes on its own
    /// thread; this thread reads.
    fn run(&mut self, rate: f64, n: usize) -> Result<Phase, String> {
        let (first_id, first_position) = (self.conn.next_id, self.position);
        self.conn.next_id += n as u64;
        self.position += n;
        let start = Instant::now() + Duration::from_millis(2);
        let due: Vec<Instant> = (0..n)
            .map(|k| {
                if rate.is_finite() {
                    start + Duration::from_secs_f64(k as f64 / rate)
                } else {
                    start
                }
            })
            .collect();
        let frames: Vec<String> = (0..n)
            .map(|k| self.frame(first_id + k as u64, first_position + k))
            .collect();
        let stream = &self.conn.stream;
        let reader = &mut self.conn.reader;
        let (sent, lines) = std::thread::scope(|scope| {
            let (due, frames) = (&due, &frames);
            let writer = scope.spawn(move || -> Result<Vec<Instant>, String> {
                let mut sent = Vec::with_capacity(n);
                let mut out = stream;
                for (k, at) in due.iter().enumerate() {
                    let now = Instant::now();
                    if *at > now {
                        std::thread::sleep(*at - now);
                    }
                    sent.push(Instant::now());
                    out.write_all(frames[k].as_bytes())
                        .map_err(|e| format!("writing request {k}: {e}"))?;
                }
                Ok(sent)
            });
            let mut lines = Vec::with_capacity(n);
            let mut read_err = None;
            for _ in 0..n {
                match Conn::read_line(reader) {
                    Ok(line) => lines.push((Instant::now(), line)),
                    Err(e) => {
                        read_err = Some(e);
                        break;
                    }
                }
            }
            let sent = writer.join().map_err(|_| "generator thread panicked")??;
            match read_err {
                Some(e) => Err(e),
                None => Ok((sent, lines)),
            }
        })?;

        let mut done = vec![start; n];
        let mut outcomes = vec![Outcome::Error; n];
        for (at, line) in lines {
            let (k, outcome) = self.outcome(&line, first_id, first_position)?;
            if k >= n {
                return Err(format!("response {k} beyond a phase of {n}"));
            }
            done[k] = at;
            outcomes[k] = outcome;
        }
        let end = *due.last().expect("phases send at least one request");
        Ok(Phase {
            rate,
            first_id,
            start: due[0],
            end,
            due,
            sent,
            done,
            outcomes,
        })
    }

    /// One whole cycle, sent back to back.
    fn burst(&mut self) -> Result<Phase, String> {
        self.run(f64::INFINITY, self.slots.len())
    }

    /// Send `seconds` worth of requests at `rate`.
    fn at_rate(&mut self, rate: f64, seconds: f64) -> Result<Phase, String> {
        self.run(rate, ((rate * seconds).round() as usize).max(1))
    }
}

/// Count a phase's requests and failures into the result.
fn record_phase(report: &mut Report, phase: &Phase) {
    report.attempted += phase.due.len() as u64;
    report.failed += phase.failures();
}

/// Seconds from a burst's start to its last response.
fn burst_seconds(burst: &Phase) -> f64 {
    let last = burst.done.iter().max().expect("non-empty burst");
    last.duration_since(burst.start).as_secs_f64()
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let slots = cycle(ctx.seed, ctx.nproc);
    let config = ServerConfig {
        shards: ctx.nproc,
        ..ServerConfig::default()
    };
    let traced_run = ctx.tracer.is_on();
    let mut report = Report::default();
    report.detail(
        "server_config",
        Json::obj(vec![
            ("shards", Json::Num(config.shards as f64)),
            (
                "cache_capacity_per_shard",
                config
                    .cache_capacity
                    .map_or(Json::Null, |c| Json::Num(c as f64)),
            ),
            (
                "queue_capacity_per_shard",
                Json::Num(config.queue_capacity as f64),
            ),
            ("open_loop_rate_rps", Json::Num(NOMINAL_RPS)),
            ("p99_limit_ms", Json::Num(P99_LIMIT_MS)),
            ("generator_lag_limit_ms", Json::Num(LAG_LIMIT_MS)),
        ]),
    );

    // Set-up: bind the stack and touch every slot once (which fills the
    // prep caches and fixes each slot's canonical response). Earlier
    // set-ups are torn down; their warm-ups must match too.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut canonical: Vec<Option<String>> = vec![None; slots.len()];
    let mut live = None;
    for i in 0..SETUPS {
        let t0 = if i == 0 { ctx.started } else { Instant::now() };
        let stack = Stack::start(&config, traced_run)?;
        let mut load = LoadGen {
            slots: &slots,
            canonical: canonical.clone(),
            conn: Conn::open(&stack.server_addr)?,
            position: 0,
        };
        let warm = load.burst()?;
        setups.push(t0.elapsed().as_secs_f64());
        report.check(
            format!("warm_up_{i}_matches_canonical"),
            warm.failures() == 0,
            format!("{} of {} slots failed", warm.failures(), slots.len()),
        );
        canonical = load.canonical.clone();
        if i + 1 < SETUPS {
            drop(load);
            stack.stop()?;
        } else {
            live = Some((stack, load));
        }
    }
    report.metrics.set("setup_s", median(&setups));
    report.detail("setup_seconds", Json::nums(&setups));
    let (stack, mut load) = live.expect("at least one set-up");
    local_cell_checks(ctx, &slots, &canonical, &mut report)?;

    if traced_run {
        traced(ctx, &stack, &mut load, &slots, &mut report)?;
    } else {
        // Back-to-back bursts of the whole cycle: every request of a
        // burst is due at its start and timed from there, and the next
        // burst is due when the last response arrives. Open-loop
        // fixed-rate figures run in the traced run instead: on the
        // shared reference host their run-to-run spread (0.4–0.7 of the
        // median) is several times any usable bound.
        let phase = Instant::now();
        let (mut latencies, mut bursts) = (Vec::new(), Vec::new());
        while bursts.len() < 50 || phase.elapsed() < ctx.seconds {
            let burst = load.burst()?;
            record_phase(&mut report, &burst);
            bursts.push(burst_seconds(&burst));
            latencies.extend(burst.latencies_ms());
        }
        let latencies = sorted(latencies);
        let sweep = median(&bursts);
        let rows: f64 = slots.iter().map(|s| s.rows).sum();
        let m = &mut report.metrics;
        m.set("latency_p50_ms", median(&latencies));
        m.set("latency_p99_ms", percentile(&latencies, 99.0));
        m.set("sweep_s", sweep);
        m.set("max_rate_rps", slots.len() as f64 / sweep);
        m.set("rows_per_s", rows / sweep);
        report.detail("requests_timed", Json::Num(latencies.len() as f64));
        report.detail("bursts", Json::Num(bursts.len() as f64));
    }
    drop(load);
    stack.stop()?;
    Ok(report)
}

/// Every served `cell` must equal `pipeline::run_cell` of the same
/// document, run locally, and its baseline the local clean baseline.
fn local_cell_checks(
    ctx: &Ctx,
    slots: &[Slot],
    canonical: &[Option<String>],
    report: &mut Report,
) -> Result<(), String> {
    for (i, slot) in slots.iter().enumerate() {
        let RequestKind::Cell(cell) = &slot.request else {
            continue;
        };
        let served = canonical[i]
            .as_deref()
            .ok_or_else(|| format!("slot {i} has no canonical response"))?;
        let served = MatrixResults::from_json(&Json::parse(served).map_err(err)?).map_err(err)?;
        let served_cell = served.cells.first().ok_or("served cell result is empty")?;
        let local = local_cell(ctx, cell, served_cell.cell_seed, None)?;
        let same = same_bits(&local.0, &served_cell.outcome)
            && local.1.to_bits() == served.baseline_accuracy.to_bits();
        report.check(
            format!("served_cell_{i}_equals_run_cell"),
            same,
            format!(
                "served accuracy {} baseline {}, local {} baseline {}",
                served_cell.outcome.accuracy, served.baseline_accuracy, local.0.accuracy, local.1
            ),
        );
    }
    Ok(())
}

/// A cell document evaluated locally: `(outcome, clean baseline)`.
/// Traced, the cell is rebuilt from the per-layer calls (and checked
/// against `run_cell`); untraced, it is `run_cell` itself.
fn local_cell(
    ctx: &Ctx,
    cell: &CellRequest,
    cell_seed: u64,
    traced: Option<&Counts>,
) -> Result<(EvalOutcome, f64), String> {
    let config = &cell.config;
    let prepared = prepare(config).map_err(err)?;
    let placement = hugging_placement(&prepared, cell.strength, cell.placement_slack);
    if let Some(counts) = traced {
        let replay = CellReplay::new(&ctx.tracer, counts, config, &prepared);
        let outcome = replay.attacked(None, &cell.scenario, placement, cell.strength, cell_seed)?;
        let baseline = replay.clean(None, &config.scenario, 0.0)?;
        replay.verify()?;
        return Ok((outcome, baseline.accuracy));
    }
    let mut rng = Xoshiro256StarStar::seed_from_u64(cell_seed);
    let outcome = run_cell(
        &prepared,
        &cell.scenario,
        placement,
        FilterStrength::RemoveFraction(cell.strength),
        config,
        &mut rng,
    )
    .map_err(err)?;
    let baseline = filter_train_eval(
        prepared.train(),
        &[],
        prepared.test(),
        FilterStrength::RemoveFraction(0.0),
        config,
    )
    .map_err(err)?;
    Ok((outcome, baseline.accuracy))
}

/// Server-side counters read through `stats` and `metrics`.
struct ServerView {
    stats: ServerStats,
    metrics: RegistrySnapshot,
    at: Instant,
}

fn server_view(control: &mut Client) -> Result<ServerView, String> {
    let stats = control.stats().map_err(err)?;
    let metrics = registry_from_json(&control.metrics().map_err(err)?).map_err(err)?;
    Ok(ServerView {
        stats,
        metrics,
        at: Instant::now(),
    })
}

/// The per-kind histogram of `family` accumulated between two views.
fn histogram_delta(
    before: &ServerView,
    after: &ServerView,
    family: &str,
    kind: &str,
) -> HistogramSnapshot {
    let find = |view: &ServerView| -> HistogramSnapshot {
        view.metrics
            .find(family)
            .and_then(|f| {
                f.metrics
                    .iter()
                    .find(|m| m.labels.iter().any(|(k, v)| k == "kind" && v == kind))
            })
            .and_then(|m| match &m.value {
                MetricValue::Histogram(h) => Some(h.clone()),
                _ => None,
            })
            .unwrap_or_default()
    };
    let (a, b) = (find(before), find(after));
    let mut buckets = [0u64; BUCKET_COUNT];
    for (i, slot) in buckets.iter_mut().enumerate() {
        *slot = b.buckets[i] - a.buckets[i];
    }
    HistogramSnapshot {
        buckets,
        count: b.count - a.count,
        sum: b.sum - a.sum,
        max: b.max,
    }
}

/// The traced run: an untraced and a traced nominal phase (their ratio
/// is the tracing overhead), server-side deltas over the traced phase,
/// an alternating closed-loop probe for the wire and gateway costs, an
/// overload probe that must trip the backlog detector, and a local
/// replay of the cycle's cells and solves from the per-layer calls.
fn traced(
    ctx: &Ctx,
    stack: &Stack,
    load: &mut LoadGen,
    slots: &[Slot],
    report: &mut Report,
) -> Result<(), String> {
    let tr = &ctx.tracer;
    let secs = ctx.seconds.as_secs_f64();
    let untraced = load.at_rate(NOMINAL_RPS, 0.3 * secs)?;
    record_phase(report, &untraced);

    let mut control = Client::connect(&stack.server_addr).map_err(err)?;
    let before = server_view(&mut control)?;
    let phase = load.at_rate(NOMINAL_RPS, 0.3 * secs)?;
    let after = server_view(&mut control)?;
    record_phase(report, &phase);
    report.detail("open_loop_untraced", Step::judge(&untraced).to_json());
    report.detail("open_loop_traced", Step::judge(&phase).to_json());
    for k in 0..phase.due.len() {
        let (span, request) = (tr.next_id(), Some(phase.first_id + k as u64));
        tr.record(
            "bench.request",
            span,
            None,
            request,
            phase.due[k],
            phase.done[k],
        );
        let lag = tr.next_id();
        tr.record(
            "bench.generator_lag",
            lag,
            Some(span),
            request,
            phase.due[k],
            phase.sent[k],
        );
    }
    let m = &mut report.metrics;
    m.set(
        "bench.trace_overhead_ratio",
        median(&phase.latencies_ms()) / median(&untraced.latencies_ms()),
    );
    m.set(
        "bench.generator_lag_p99_ms",
        percentile(&phase.lags_ms(), 99.0),
    );

    for kind in ["solve", "cell", "estimate"] {
        let wait = histogram_delta(&before, &after, "poisongame_request_queue_wait_nanos", kind);
        let duration = histogram_delta(&before, &after, "poisongame_request_duration_nanos", kind);
        let (qname, dname) = match kind {
            "solve" => (
                "serve.queue_wait_p99_ms.solve",
                "serve.duration_p50_ms.solve",
            ),
            "cell" => ("serve.queue_wait_p99_ms.cell", "serve.duration_p50_ms.cell"),
            _ => (
                "serve.queue_wait_p99_ms.estimate",
                "serve.duration_p50_ms.estimate",
            ),
        };
        m.set(qname, wait.percentile(0.99) as f64 / 1e6);
        m.set(dname, duration.percentile(0.5) as f64 / 1e6);
    }
    let (s0, s1) = (&before.stats, &after.stats);
    let wall_us = after.at.duration_since(before.at).as_secs_f64() * 1e6;
    let busy: Vec<f64> = s1
        .shards
        .iter()
        .zip(&s0.shards)
        .map(|(b, a)| (b.busy_micros - a.busy_micros) as f64)
        .collect();
    let busy_total: f64 = busy.iter().sum();
    let busy_mean = busy_total / busy.len().max(1) as f64;
    m.set(
        "serve.busy_share",
        busy_total / (wall_us * busy.len().max(1) as f64),
    );
    m.set(
        "serve.shard_skew",
        busy.iter().copied().fold(0.0, f64::max) / busy_mean.max(1.0),
    );
    m.set("serve.shed", (s1.shed - s0.shed) as f64);
    m.set("serve.deadline_missed", (s1.expired - s0.expired) as f64);
    let phase_us = (s1.prep_micros - s0.prep_micros)
        + (s1.fit_micros - s0.fit_micros)
        + (s1.eval_micros - s0.eval_micros);
    m.set(
        "sim.prep_ms",
        (s1.prep_micros - s0.prep_micros) as f64 / 1e3,
    );
    m.set("sim.fit_ms", (s1.fit_micros - s0.fit_micros) as f64 / 1e3);
    m.set(
        "sim.eval_ms",
        (s1.eval_micros - s0.eval_micros) as f64 / 1e3,
    );
    m.set(
        "sim.attributed_share",
        phase_us as f64 / busy_total.max(1.0),
    );
    let hits = s1.cache_hits - s0.cache_hits;
    let misses = s1.cache_misses - s0.cache_misses;
    m.set("dataset.cache_hits", hits as f64);
    m.set("dataset.cache_misses", misses as f64);
    m.set(
        "dataset.cache_evictions",
        (s1.cache_evictions - s0.cache_evictions) as f64,
    );
    m.set(
        "dataset.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.set("exec.batches", (s1.pool_batches - s0.pool_batches) as f64);
    m.set("exec.steals", (s1.pool_steals - s0.pool_steals) as f64);
    m.set("exec.parks", (s1.pool_parks - s0.pool_parks) as f64);
    let (inline, tasks) = (
        s1.pool_inline - s0.pool_inline,
        s1.pool_tasks - s0.pool_tasks,
    );
    m.set(
        "exec.inline_share",
        inline as f64 / (inline + tasks).max(1) as f64,
    );

    probe(ctx, stack, slots, &mut control, report)?;

    // Overload: eight times the open-loop rate (about twice capacity on
    // the reference host) for a short while must trip the backlog
    // detector.
    let overload = load.at_rate(NOMINAL_RPS * 8.0, 0.3)?;
    let step = Step::judge(&overload);
    report.check(
        "backlog_detector_trips_past_capacity",
        step.backlog_growing,
        format!("{} req/s: {}", overload.rate, step.to_json().render()),
    );
    report.attempted += overload.due.len() as u64;
    report.failed += step.mismatches;
    report.detail("overload_probe", step.to_json());

    // Local replay of the cycle's cells (attack, defense, ml layers).
    let counts = Counts::default();
    let mut cells = 0;
    for (i, slot) in slots.iter().enumerate() {
        if let RequestKind::Cell(cell) = &slot.request {
            let served = load.canonical[i]
                .as_deref()
                .ok_or("missing canonical cell")?;
            let served =
                MatrixResults::from_json(&Json::parse(served).map_err(err)?).map_err(err)?;
            let served_cell = served.cells.first().ok_or("served cell result is empty")?;
            let (outcome, _) = local_cell(ctx, cell, served_cell.cell_seed, Some(&counts))?;
            if !same_bits(&outcome, &served_cell.outcome) {
                return Err(format!(
                    "traced replay of cell slot {i} diverged from the served cell"
                ));
            }
            cells += 1;
        }
    }
    if cells > 0 {
        counts.set_metrics(tr, &mut report.metrics);
    }
    Ok(())
}

/// Closed-loop probe over the cycle's solve documents: each is sent
/// alternately through the NDJSON client and the gateway's HTTP
/// client. Measures the gateway's added latency, the
/// wire cost (client latency minus the server's own service and queue
/// time), client-side JSON cost, and a local solve of each document.
fn probe(
    ctx: &Ctx,
    stack: &Stack,
    slots: &[Slot],
    control: &mut Client,
    report: &mut Report,
) -> Result<(), String> {
    // 5 solve slots × 60: 300 pairs, so the p99 difference has 3 beyond it.
    const ROUNDS: usize = 60;
    let tr = &ctx.tracer;
    let solves: Vec<&SolveRequest> = slots
        .iter()
        .filter_map(|s| match &s.request {
            RequestKind::Solve(solve) => Some(solve),
            _ => None,
        })
        .collect();
    let mut ndjson = Client::connect(&stack.server_addr).map_err(err)?;
    let mut gateway = match &stack.gateway {
        Some((_, addr)) => Some(HttpClient::connect(addr).map_err(err)?),
        None => None,
    };
    let before = server_view(control)?;
    let (mut nd_us, mut http_us, mut json_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut http_mismatches = 0;
    for _ in 0..ROUNDS {
        for solve in &solves {
            let kind = RequestKind::Solve((*solve).clone());
            // Client-side JSON: render the request, parse a response.
            let t0 = Instant::now();
            let line = Request {
                id: 0,
                deadline_ms: None,
                kind: kind.clone(),
            }
            .to_line();
            let render_us = t0.elapsed().as_secs_f64() * 1e6;

            let t0 = Instant::now();
            let result = ndjson.call(kind, None).map_err(err)?;
            nd_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let rendered = result.render();
            let t0 = Instant::now();
            Json::parse(&rendered).map_err(err)?;
            json_us.push(render_us + t0.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(line);

            if let Some(client) = gateway.as_mut() {
                let body = {
                    let Json::Obj(fields) = Request {
                        id: 0,
                        deadline_ms: None,
                        kind: RequestKind::Solve((*solve).clone()),
                    }
                    .to_json() else {
                        unreachable!("request documents are objects")
                    };
                    Json::Obj(
                        fields
                            .into_iter()
                            .filter(|(k, _)| k != "id" && k != "type")
                            .collect(),
                    )
                    .render()
                };
                let t0 = Instant::now();
                let response = client.post("/v1/solve", &body).map_err(err)?;
                http_us.push(t0.elapsed().as_secs_f64() * 1e6);
                if response.status != 200 || response.body != rendered {
                    http_mismatches += 1;
                }
            }
        }
    }
    let after = server_view(control)?;
    report.check(
        "probe_http_equals_ndjson",
        http_mismatches == 0,
        format!(
            "{http_mismatches} of {} gateway responses differ",
            http_us.len()
        ),
    );
    let duration = histogram_delta(
        &before,
        &after,
        "poisongame_request_duration_nanos",
        "solve",
    );
    let wait = histogram_delta(
        &before,
        &after,
        "poisongame_request_queue_wait_nanos",
        "solve",
    );
    let server_us = (duration.sum as f64 / duration.count.max(1) as f64
        + wait.sum as f64 / wait.count.max(1) as f64)
        / 1e3;
    let (nd, http) = (sorted(nd_us), sorted(http_us));
    let m = &mut report.metrics;
    m.set("serve.wire_p50_us", median(&nd) - server_us);
    m.set("sim.jsonio_us", median(&json_us));
    if !http.is_empty() {
        m.set("gateway.added_p50_us", median(&http) - median(&nd));
        m.set(
            "gateway.added_p99_us",
            percentile(&http, 99.0) - percentile(&nd, 99.0),
        );
    }

    // The same documents solved locally (the game layer alone).
    for solve in &solves {
        let game = PoisonGame::new(
            EffectCurve::from_samples(&solve.effect_samples).map_err(err)?,
            CostCurve::from_samples(&solve.cost_samples).map_err(err)?,
            solve.n_points,
        )
        .map_err(err)?;
        tr.span("game.solve", None, None, |_| {
            solve_discretized_with(&game, solve.resolution, SolverKind::Auto)
        })
        .map_err(err)?;
    }
    let solve_ms = tr.self_ms().get("game.solve").copied().unwrap_or(0.0);
    report.metrics.set("game.solve_ms", solve_ms);
    Ok(())
}
