//! The wire protocol: newline-delimited JSON over TCP.
//!
//! Every frame is one complete JSON document terminated by `\n`.
//! Requests carry a client-chosen `id`; every response echoes the id
//! of the request it answers, so clients may pipeline many requests on
//! one connection and match responses out of order.
//!
//! # Request envelope
//!
//! ```json
//! {"id": 7, "type": "cell", "deadline_ms": 2000, "seed": 99, ...}
//! ```
//!
//! * `id` — required non-negative integer (decimal string beyond
//!   2^53). Echoed verbatim in the response.
//! * `type` — one of `solve`, `cell`, `matrix`, `estimate`, `online`,
//!   `stats`, `metrics`, `events`, `resize`, `shutdown`.
//! * `deadline_ms` — optional per-request deadline, measured from the
//!   moment the server reads the request; must be a **positive**
//!   integer (`0` would expire before it could ever be met, so it is
//!   rejected as `bad_request` rather than silently shedding the
//!   request). An admitted request whose deadline expires while
//!   queued is answered with a `deadline` error instead of being
//!   evaluated (evaluation itself is never preempted).
//! * `seed` — optional, on `cell` / `matrix` / `estimate` / `online`
//!   only: overrides the experiment config's master seed. Must be a
//!   non-negative integer (decimal string beyond 2^53) — negative,
//!   fractional or non-finite values are `bad_request` errors, never
//!   silently coerced. Absent, the config's own seed applies (itself
//!   defaulting to the paper seed, exactly like [`ExperimentConfig`]).
//!
//! # Response envelope
//!
//! ```json
//! {"id": 7, "ok": true, "result": {...}}
//! {"id": 7, "ok": false, "error": {"code": "busy", "message": "..."}}
//! ```
//!
//! A response with `"id": null` answers a frame the server could not
//! attribute to a request (malformed JSON, missing id). See
//! [`ErrorCode`] for the closed set of error classes.

use crate::error::ServeError;
use crate::telemetry::TelemetryStats;
use poisongame_core::SolverKind;
use poisongame_online::OnlineSpec;
use poisongame_sim::estimate::{default_placements, default_strengths};
use poisongame_sim::jsonio::{self, Json};
use poisongame_sim::pipeline::{solver_from_name, solver_name};
use poisongame_sim::scenario::ScenarioMatrix;
use poisongame_sim::{ExperimentConfig, Scenario, SimError};
use std::io::BufRead;

/// Default cap on one frame, request or response (4 MiB — roomy
/// enough for a CSV-text dataset inlined in a config, small enough
/// that a stream of garbage cannot balloon server memory).
pub const DEFAULT_MAX_LINE_BYTES: usize = 4 << 20;

/// Largest accepted `solve` grid resolution: the discretized game is
/// `O(resolution²)` entries and the exact LP `O(resolution³)` work, so
/// an unbounded value would let one request monopolize the server.
pub const MAX_SOLVE_RESOLUTION: usize = 512;

/// Largest accepted shard count for a `resize` request: each shard
/// carries its own engine and prep cache, so an unbounded value would
/// let one control request exhaust the process.
pub const MAX_SHARDS: usize = 256;

/// Machine-readable error classes of the `error.code` response field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorCode {
    /// The request was malformed: JSON syntax, missing/unknown fields,
    /// out-of-range parameters, a truncated frame.
    BadRequest,
    /// The admission queue is full — the request was shed without
    /// evaluation. Back off and retry.
    Busy,
    /// The request's deadline expired before evaluation started.
    Deadline,
    /// Evaluation itself failed (attack/filter/training/solver error).
    EvalFailed,
    /// The frame exceeded the server's line cap; the connection is
    /// closed after this response (framing is lost).
    LineTooLong,
    /// The server is draining after a `shutdown` request and admits no
    /// new work.
    ShuttingDown,
}

impl ErrorCode {
    /// The stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Busy => "busy",
            ErrorCode::Deadline => "deadline",
            ErrorCode::EvalFailed => "eval_failed",
            ErrorCode::LineTooLong => "line_too_long",
            ErrorCode::ShuttingDown => "shutting_down",
        }
    }

    /// Parse the stable wire name.
    pub fn from_name(name: &str) -> Option<ErrorCode> {
        Some(match name {
            "bad_request" => ErrorCode::BadRequest,
            "busy" => ErrorCode::Busy,
            "deadline" => ErrorCode::Deadline,
            "eval_failed" => ErrorCode::EvalFailed,
            "line_too_long" => ErrorCode::LineTooLong,
            "shutting_down" => ErrorCode::ShuttingDown,
            _ => return None,
        })
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// One read attempt on an NDJSON stream.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame {
    /// A complete line (newline stripped, trailing `\r` tolerated).
    Line(String),
    /// Clean end of stream at a frame boundary.
    Eof,
    /// The stream ended mid-frame (bytes buffered, no terminating
    /// newline) — the peer truncated a frame.
    Truncated,
    /// The frame exceeded the byte cap before its newline arrived.
    /// Framing is lost; the connection should be closed.
    TooLong,
}

/// Read one frame, capping it at `max_bytes` (the cap excludes the
/// newline itself).
///
/// # Errors
///
/// Propagates transport errors; non-UTF-8 frames surface as
/// [`Frame::Line`]-shaped `bad_request` problems upstream via lossy
/// conversion — framing is byte-oriented, content validation is the
/// parser's job.
pub fn read_frame(reader: &mut impl BufRead, max_bytes: usize) -> std::io::Result<Frame> {
    let mut buf = Vec::new();
    // Explicit reborrow: `Take<&mut R>` is itself `BufRead`, so the
    // cap applies without consuming the caller's reader.
    // Saturating: a caller "uncapping" with `usize::MAX` must not
    // overflow into a zero-byte limit.
    let mut limited = std::io::Read::take(&mut *reader, (max_bytes as u64).saturating_add(1));
    let n = limited.read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(Frame::Eof);
    }
    if buf.last() != Some(&b'\n') {
        return Ok(if buf.len() > max_bytes {
            Frame::TooLong
        } else {
            Frame::Truncated
        });
    }
    buf.pop();
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    Ok(Frame::Line(String::from_utf8_lossy(&buf).into_owned()))
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Solve the discretized poisoning game for an equilibrium defense —
/// Algorithm 1's cross-check, as a service call.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// `(percentile, per-point damage)` samples for `E(p)`.
    pub effect_samples: Vec<(f64, f64)>,
    /// `(strength, accuracy loss)` samples for `Γ(p)`.
    pub cost_samples: Vec<(f64, f64)>,
    /// Poison budget `N` the game is played over.
    pub n_points: usize,
    /// Discretization grid resolution (2..=[`MAX_SOLVE_RESOLUTION`]).
    pub resolution: usize,
    /// Which zero-sum solver to run.
    pub solver: SolverKind,
}

impl Default for SolveRequest {
    fn default() -> Self {
        Self {
            effect_samples: Vec::new(),
            cost_samples: Vec::new(),
            n_points: 1,
            resolution: 50,
            solver: SolverKind::Auto,
        }
    }
}

/// Evaluate one attack × defense × learner cell — exactly the batch
/// pipeline's cell protocol (poison hugging the filter, sanitize,
/// train, evaluate), so the response is byte-identical to a 1×1×1
/// [`poisongame_sim::scenario::run_matrix_prepared`].
#[derive(Debug, Clone, PartialEq)]
pub struct CellRequest {
    /// The experiment configuration (defaults to the paper's — send a
    /// reduced config for interactive latencies).
    pub config: ExperimentConfig,
    /// The cell's triple.
    pub scenario: Scenario,
    /// Filter strength (fraction removed).
    pub strength: f64,
    /// Extra attacker placement depth.
    pub placement_slack: f64,
}

impl Default for CellRequest {
    fn default() -> Self {
        let defaults = ScenarioMatrix::default();
        Self {
            config: ExperimentConfig::paper(),
            scenario: Scenario::paper(),
            strength: defaults.strength,
            placement_slack: defaults.placement_slack,
        }
    }
}

impl CellRequest {
    /// The 1×1×1 matrix this cell is evaluated as (the server and the
    /// batch pipeline share this construction, which is what makes
    /// served cells byte-identical to batch cells).
    pub fn as_matrix(&self) -> ScenarioMatrix {
        ScenarioMatrix {
            attacks: vec![self.scenario.attack.clone()],
            defenses: vec![self.scenario.defense],
            learners: vec![self.scenario.learner],
            strength: self.strength,
            placement_slack: self.placement_slack,
        }
    }
}

/// Run a whole scenario-matrix sweep.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MatrixRequest {
    /// The experiment configuration.
    pub config: ExperimentConfig,
    /// The attack × defense × learner cross-product.
    pub matrix: ScenarioMatrix,
}

/// Estimate the game curves `E(p)` / `Γ(p)` from sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateRequest {
    /// The experiment configuration.
    pub config: ExperimentConfig,
    /// Attack placements for the effect sweep (default grid when
    /// absent on the wire).
    pub placements: Vec<f64>,
    /// Filter strengths for the cost sweep (default grid when absent
    /// on the wire).
    pub strengths: Vec<f64>,
}

impl Default for EstimateRequest {
    fn default() -> Self {
        Self {
            config: ExperimentConfig::paper(),
            placements: default_placements(),
            strengths: default_strengths(),
        }
    }
}

/// Play a repeated online game: no-regret adaptive attacker and
/// defender over the config's dataset, payoffs scored by actually
/// running attack × defense × learner cells (shared through the
/// server's preparation cache). The response is the serialized
/// [`poisongame_online::OnlineTrace`] — deterministic for a fixed
/// seed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OnlineRequest {
    /// The experiment configuration (dataset, budget, scenario,
    /// master seed).
    pub config: ExperimentConfig,
    /// The run description (learners, rounds, action grids).
    pub spec: OnlineSpec,
}

/// The parsed payload of one request.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestKind {
    /// Equilibrium solve of a discretized game.
    Solve(SolveRequest),
    /// One scenario cell.
    Cell(CellRequest),
    /// A scenario-matrix sweep.
    Matrix(MatrixRequest),
    /// Curve estimation.
    Estimate(EstimateRequest),
    /// A repeated online game.
    Online(OnlineRequest),
    /// Server/engine statistics.
    Stats,
    /// Telemetry registry snapshot: every counter, gauge and histogram
    /// in the process, in the wire form of
    /// [`crate::telemetry::registry_to_json`] (the gateway renders it
    /// as Prometheus text).
    Metrics,
    /// Structured event-log replay: buffered events with a sequence
    /// number greater than `since`, oldest first.
    Events {
        /// The replay cursor (`0` replays the whole buffer).
        since: u64,
    },
    /// Re-split the engine shard pool to the given shard count
    /// (1..=[`MAX_SHARDS`]). Old shards drain without dropping
    /// in-flight requests; the same count re-splits in place
    /// (a rebalance with fresh caches).
    Resize {
        /// The target shard count.
        shards: usize,
    },
    /// Graceful drain: stop admitting, finish in-flight work, exit.
    Shutdown,
}

impl RequestKind {
    /// The stable wire name of this kind (the `type` tag).
    pub fn type_name(&self) -> &'static str {
        match self {
            RequestKind::Solve(_) => "solve",
            RequestKind::Cell(_) => "cell",
            RequestKind::Matrix(_) => "matrix",
            RequestKind::Estimate(_) => "estimate",
            RequestKind::Online(_) => "online",
            RequestKind::Stats => "stats",
            RequestKind::Metrics => "metrics",
            RequestKind::Events { .. } => "events",
            RequestKind::Resize { .. } => "resize",
            RequestKind::Shutdown => "shutdown",
        }
    }
}

/// One request: envelope plus payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen id, echoed in the response.
    pub id: u64,
    /// Optional deadline in milliseconds from server receipt.
    pub deadline_ms: Option<u64>,
    /// The payload.
    pub kind: RequestKind,
}

impl Request {
    /// JSON form (the exact wire document, minus the newline). The
    /// optional `seed` override accepted by [`parse_request_line`] is
    /// never emitted — a parsed override is already folded into the
    /// payload's config, so the round trip is lossless.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("id", jsonio::big_u64_to_json(self.id)),
            ("type", Json::str(self.kind.type_name())),
        ];
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms", jsonio::big_u64_to_json(ms)));
        }
        match &self.kind {
            RequestKind::Solve(req) => {
                fields.push(("effect", jsonio::num_pairs_to_json(&req.effect_samples)));
                fields.push(("cost", jsonio::num_pairs_to_json(&req.cost_samples)));
                fields.push(("n_points", Json::Num(req.n_points as f64)));
                fields.push(("resolution", Json::Num(req.resolution as f64)));
                fields.push(("solver", Json::str(solver_name(req.solver))));
            }
            RequestKind::Cell(req) => {
                fields.push(("config", req.config.to_json()));
                fields.push(("scenario", req.scenario.to_json()));
                fields.push(("strength", Json::Num(req.strength)));
                fields.push(("placement_slack", Json::Num(req.placement_slack)));
            }
            RequestKind::Matrix(req) => {
                fields.push(("config", req.config.to_json()));
                fields.push(("matrix", req.matrix.to_json()));
            }
            RequestKind::Estimate(req) => {
                fields.push(("config", req.config.to_json()));
                fields.push(("placements", Json::nums(&req.placements)));
                fields.push(("strengths", Json::nums(&req.strengths)));
            }
            RequestKind::Online(req) => {
                fields.push(("config", req.config.to_json()));
                fields.push(("spec", req.spec.to_json()));
            }
            RequestKind::Resize { shards } => {
                fields.push(("shards", Json::Num(*shards as f64)));
            }
            RequestKind::Events { since } => {
                fields.push(("since", jsonio::big_u64_to_json(*since)));
            }
            RequestKind::Stats | RequestKind::Metrics | RequestKind::Shutdown => {}
        }
        Json::obj(fields)
    }

    /// The complete wire frame: rendered document plus newline.
    pub fn to_line(&self) -> String {
        let mut line = self.to_json().render();
        line.push('\n');
        line
    }
}

/// Why a request line could not be turned into a [`Request`]. Carries
/// the id when the envelope got far enough to reveal one, so the
/// error response can still be matched by a pipelining client.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestError {
    /// The request id, if it could be parsed.
    pub id: Option<u64>,
    /// Always a protocol-level class ([`ErrorCode::BadRequest`]).
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl RequestError {
    fn new(id: Option<u64>, message: impl Into<String>) -> Self {
        Self {
            id,
            code: ErrorCode::BadRequest,
            message: message.into(),
        }
    }
}

/// Parse one request frame.
///
/// # Errors
///
/// Returns a [`RequestError`] (always `bad_request`) naming the
/// offending field; the id is included whenever the envelope revealed
/// one, so the caller can still address its error response.
pub fn parse_request_line(line: &str) -> Result<Request, RequestError> {
    let value = Json::parse(line).map_err(|e| RequestError::new(None, e.to_string()))?;
    if !matches!(value, Json::Obj(_)) {
        return Err(RequestError::new(None, "request must be a JSON object"));
    }
    let id = match value.get("id") {
        None => return Err(RequestError::new(None, "request needs an `id`")),
        Some(v) => jsonio::big_u64(v, "id").map_err(|e| RequestError::new(None, e.to_string()))?,
    };
    // Everything below knows the id; errors stay addressable.
    let fail = |message: String| RequestError::new(Some(id), message);
    let spec = |e: SimError| fail(e.to_string());

    let kind_name = value
        .get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| fail("request needs a string `type`".into()))?;
    let deadline_ms = value
        .get("deadline_ms")
        .map(|v| jsonio::big_u64(v, "deadline_ms"))
        .transpose()
        .map_err(spec)?;
    // A zero deadline can never be met: every admitted request would
    // be shed at evaluation time. Reject it up front as the protocol
    // error it is instead of silently accepting a poison pill.
    if deadline_ms == Some(0) {
        return Err(fail("`deadline_ms` must be a positive integer".into()));
    }
    // `big_u64` already rejects negative, fractional and non-finite
    // seeds (JSON itself cannot carry NaN/Inf — they parse as errors
    // or `null`, both refused here) — nothing out-of-domain reaches
    // the config.
    let seed = value
        .get("seed")
        .map(|v| jsonio::big_u64(v, "seed"))
        .transpose()
        .map_err(spec)?;

    let common: &[&str] = &["id", "type", "deadline_ms"];
    let with_seed = |extra: &[&'static str]| -> Vec<&'static str> {
        let mut keys = vec!["id", "type", "deadline_ms", "seed"];
        keys.extend_from_slice(extra);
        keys
    };
    // A config defaulting like `ExperimentConfig` plus the explicit
    // over-the-wire seed override.
    let config_with_seed = |value: &Json| -> Result<ExperimentConfig, SimError> {
        let mut config = match value.get("config") {
            None => ExperimentConfig::paper(),
            Some(v) => ExperimentConfig::from_json(v)?,
        };
        if let Some(seed) = seed {
            config.seed = seed;
        }
        Ok(config)
    };

    let kind = match kind_name {
        "solve" => {
            let allowed: Vec<&str> = common
                .iter()
                .copied()
                .chain(["effect", "cost", "n_points", "resolution", "solver"])
                .collect();
            jsonio::check_keys(&value, "solve request", &allowed).map_err(spec)?;
            let field = |key: &str| -> Result<&Json, RequestError> {
                value
                    .get(key)
                    .ok_or_else(|| fail(format!("solve request needs `{key}`")))
            };
            let resolution = match value.get("resolution") {
                None => SolveRequest::default().resolution,
                Some(v) => jsonio::require_u64(v, "resolution").map_err(spec)? as usize,
            };
            if !(2..=MAX_SOLVE_RESOLUTION).contains(&resolution) {
                return Err(fail(format!(
                    "`resolution` must be in 2..={MAX_SOLVE_RESOLUTION}"
                )));
            }
            let solver = match value.get("solver") {
                None => SolverKind::Auto,
                Some(v) => {
                    let name = v
                        .as_str()
                        .ok_or_else(|| fail("`solver` must be a string".into()))?;
                    solver_from_name(name).map_err(spec)?
                }
            };
            RequestKind::Solve(SolveRequest {
                effect_samples: jsonio::num_pairs(field("effect")?, "effect").map_err(spec)?,
                cost_samples: jsonio::num_pairs(field("cost")?, "cost").map_err(spec)?,
                n_points: jsonio::require_u64(field("n_points")?, "n_points").map_err(spec)?
                    as usize,
                resolution,
                solver,
            })
        }
        "cell" => {
            jsonio::check_keys(
                &value,
                "cell request",
                &with_seed(&["config", "scenario", "strength", "placement_slack"]),
            )
            .map_err(spec)?;
            let defaults = CellRequest::default();
            let num_or = |key: &str, default: f64| -> Result<f64, RequestError> {
                match value.get(key) {
                    None => Ok(default),
                    Some(v) => jsonio::require_num(v, key).map_err(spec),
                }
            };
            RequestKind::Cell(CellRequest {
                config: config_with_seed(&value).map_err(spec)?,
                scenario: match value.get("scenario") {
                    None => Scenario::paper(),
                    Some(v) => Scenario::from_json(v).map_err(spec)?,
                },
                strength: num_or("strength", defaults.strength)?,
                placement_slack: num_or("placement_slack", defaults.placement_slack)?,
            })
        }
        "matrix" => {
            jsonio::check_keys(&value, "matrix request", &with_seed(&["config", "matrix"]))
                .map_err(spec)?;
            let matrix = value
                .get("matrix")
                .ok_or_else(|| fail("matrix request needs `matrix`".into()))?;
            RequestKind::Matrix(MatrixRequest {
                config: config_with_seed(&value).map_err(spec)?,
                matrix: ScenarioMatrix::from_json(matrix).map_err(spec)?,
            })
        }
        "estimate" => {
            jsonio::check_keys(
                &value,
                "estimate request",
                &with_seed(&["config", "placements", "strengths"]),
            )
            .map_err(spec)?;
            let grid = |key: &str, default: Vec<f64>| -> Result<Vec<f64>, RequestError> {
                match value.get(key) {
                    None => Ok(default),
                    Some(_) => jsonio::num_array(&value, key).map_err(spec),
                }
            };
            RequestKind::Estimate(EstimateRequest {
                config: config_with_seed(&value).map_err(spec)?,
                placements: grid("placements", default_placements())?,
                strengths: grid("strengths", default_strengths())?,
            })
        }
        "online" => {
            jsonio::check_keys(&value, "online request", &with_seed(&["config", "spec"]))
                .map_err(spec)?;
            let online_spec = match value.get("spec") {
                None => OnlineSpec::default(),
                Some(v) => OnlineSpec::from_json(v).map_err(|e| fail(e.to_string()))?,
            };
            RequestKind::Online(OnlineRequest {
                config: config_with_seed(&value).map_err(spec)?,
                spec: online_spec,
            })
        }
        "resize" => {
            let allowed: Vec<&str> = common.iter().copied().chain(["shards"]).collect();
            jsonio::check_keys(&value, "resize request", &allowed).map_err(spec)?;
            let shards = value
                .get("shards")
                .ok_or_else(|| fail("resize request needs `shards`".into()))
                .and_then(|v| jsonio::require_u64(v, "shards").map_err(spec))?
                as usize;
            if !(1..=MAX_SHARDS).contains(&shards) {
                return Err(fail(format!("`shards` must be in 1..={MAX_SHARDS}")));
            }
            RequestKind::Resize { shards }
        }
        "events" => {
            let allowed: Vec<&str> = common.iter().copied().chain(["since"]).collect();
            jsonio::check_keys(&value, "events request", &allowed).map_err(spec)?;
            let since = value
                .get("since")
                .map(|v| jsonio::big_u64(v, "since"))
                .transpose()
                .map_err(spec)?
                .unwrap_or(0);
            RequestKind::Events { since }
        }
        "stats" | "metrics" | "shutdown" => {
            jsonio::check_keys(&value, kind_name, common).map_err(spec)?;
            match kind_name {
                "stats" => RequestKind::Stats,
                "metrics" => RequestKind::Metrics,
                _ => RequestKind::Shutdown,
            }
        }
        other => return Err(fail(format!("unknown request type `{other}`"))),
    };

    Ok(Request {
        id,
        deadline_ms,
        kind,
    })
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// The payload of one response.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// Success; the result shape depends on the request kind.
    Ok(Json),
    /// A structured error.
    Err {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// One response: the echoed request id (when attributable) plus the
/// payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The id of the request this answers; `None` when the offending
    /// frame revealed none.
    pub id: Option<u64>,
    /// The payload.
    pub body: ResponseBody,
}

impl Response {
    /// A success response.
    pub fn ok(id: u64, result: Json) -> Self {
        Self {
            id: Some(id),
            body: ResponseBody::Ok(result),
        }
    }

    /// An error response.
    pub fn err(id: Option<u64>, code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            id,
            body: ResponseBody::Err {
                code,
                message: message.into(),
            },
        }
    }

    /// JSON form (the exact wire document, minus the newline). Note
    /// this clones the result payload into the returned tree; the
    /// serving hot path uses [`Response::to_line`], which renders from
    /// borrows instead.
    pub fn to_json(&self) -> Json {
        let id = match self.id {
            Some(id) => jsonio::big_u64_to_json(id),
            None => Json::Null,
        };
        match &self.body {
            ResponseBody::Ok(result) => Json::obj(vec![
                ("id", id),
                ("ok", Json::Bool(true)),
                ("result", result.clone()),
            ]),
            ResponseBody::Err { code, message } => Json::obj(vec![
                ("id", id),
                ("ok", Json::Bool(false)),
                (
                    "error",
                    Json::obj(vec![
                        ("code", Json::str(code.as_str())),
                        ("message", Json::str(message)),
                    ]),
                ),
            ]),
        }
    }

    /// The complete wire frame: rendered document plus newline.
    /// Byte-identical to `to_json().render()` but rendered from
    /// borrows — a large result payload is written once, never cloned.
    pub fn to_line(&self) -> String {
        let id = match self.id {
            Some(id) => jsonio::big_u64_to_json(id),
            None => Json::Null,
        };
        let mut line = match &self.body {
            ResponseBody::Ok(result) => {
                jsonio::render_object(&[("id", &id), ("ok", &Json::Bool(true)), ("result", result)])
            }
            ResponseBody::Err { code, message } => {
                let error = Json::obj(vec![
                    ("code", Json::str(code.as_str())),
                    ("message", Json::str(message)),
                ]);
                jsonio::render_object(&[("id", &id), ("ok", &Json::Bool(false)), ("error", &error)])
            }
        };
        line.push('\n');
        line
    }
}

/// Parse one response frame.
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] when the frame is not a valid
/// response envelope.
pub fn parse_response_line(line: &str) -> Result<Response, ServeError> {
    let bad = |message: String| ServeError::Protocol(message);
    let value = Json::parse(line).map_err(|e| bad(e.to_string()))?;
    let id = match value.get("id") {
        Some(Json::Null) => None,
        Some(v) => Some(jsonio::big_u64(v, "id").map_err(|e| bad(e.to_string()))?),
        None => return Err(bad("response needs an `id`".into())),
    };
    let ok = value
        .get("ok")
        .and_then(Json::as_bool)
        .ok_or_else(|| bad("response needs a boolean `ok`".into()))?;
    if ok {
        let result = value
            .get("result")
            .ok_or_else(|| bad("ok response needs `result`".into()))?;
        return Ok(Response {
            id,
            body: ResponseBody::Ok(result.clone()),
        });
    }
    let error = value
        .get("error")
        .ok_or_else(|| bad("error response needs `error`".into()))?;
    let code = error
        .get("code")
        .and_then(Json::as_str)
        .and_then(ErrorCode::from_name)
        .ok_or_else(|| bad("error response needs a known `error.code`".into()))?;
    let message = error
        .get("message")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    Ok(Response {
        id,
        body: ResponseBody::Err { code, message },
    })
}

// ---------------------------------------------------------------------------
// Typed results
// ---------------------------------------------------------------------------

/// The result of a `solve` request: the discretized game's equilibrium
/// as plain data.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveResult {
    /// The game value (the defender's equilibrium loss).
    pub value: f64,
    /// Name of the solver that produced the solution.
    pub solver: String,
    /// Defender support (filter strengths).
    pub defender_support: Vec<f64>,
    /// Defender probabilities (aligned with the support).
    pub defender_probabilities: Vec<f64>,
    /// Attacker `(placement, mass)` support pairs.
    pub attacker_support: Vec<(f64, f64)>,
}

impl SolveResult {
    /// JSON form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("value", Json::Num(self.value)),
            ("solver", Json::str(&self.solver)),
            (
                "defender",
                Json::obj(vec![
                    ("support", Json::nums(&self.defender_support)),
                    ("probabilities", Json::nums(&self.defender_probabilities)),
                ]),
            ),
            (
                "attacker_support",
                jsonio::num_pairs_to_json(&self.attacker_support),
            ),
        ])
    }

    /// Parse the JSON form produced by [`SolveResult::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Protocol`] on missing or wrongly-typed
    /// fields.
    pub fn from_json(value: &Json) -> Result<Self, ServeError> {
        let bad = |message: String| ServeError::Protocol(message);
        let defender = value
            .get("defender")
            .ok_or_else(|| bad("solve result needs `defender`".into()))?;
        Ok(Self {
            value: value
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| bad("solve result needs numeric `value`".into()))?,
            solver: value
                .get("solver")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("solve result needs string `solver`".into()))?
                .to_string(),
            defender_support: jsonio::num_array(defender, "support")
                .map_err(|e| bad(e.to_string()))?,
            defender_probabilities: jsonio::num_array(defender, "probabilities")
                .map_err(|e| bad(e.to_string()))?,
            attacker_support: jsonio::num_pairs(
                value
                    .get("attacker_support")
                    .ok_or_else(|| bad("solve result needs `attacker_support`".into()))?,
                "attacker_support",
            )
            .map_err(|e| bad(e.to_string()))?,
        })
    }
}

/// One engine shard's statistics: admission and evaluation counters
/// of this shard *instance* (reset when a `resize` replaces the pool)
/// plus its preparation-cache counters. Cache and timing numbers are
/// labeled per shard here — the aggregate fields of [`ServerStats`]
/// are sums over the current shard set.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Position of this shard in the pool (also the routing target:
    /// `prep-key content hash % shard count`).
    pub index: usize,
    /// Requests currently queued on this shard.
    pub queue_depth: usize,
    /// Evaluation requests admitted to this shard.
    pub admitted: u64,
    /// Evaluation requests answered successfully by this shard.
    pub completed: u64,
    /// Requests shed with `busy` (this shard's queue was full).
    pub shed: u64,
    /// Requests whose deadline expired before evaluation.
    pub expired: u64,
    /// Requests whose evaluation failed.
    pub failed: u64,
    /// Cumulative microseconds executors spent evaluating this shard's
    /// requests (its share of the timing picture).
    pub busy_micros: u64,
    /// This shard's preparation-cache hits.
    pub cache_hits: u64,
    /// This shard's preparation-cache misses.
    pub cache_misses: u64,
    /// This shard's preparation-cache evictions.
    pub cache_evictions: u64,
    /// Preparations resident in this shard's cache.
    pub cache_entries: usize,
    /// This shard's cache bound (`None` = unbounded).
    pub cache_capacity: Option<usize>,
}

impl ShardStats {
    /// Cache hits as a fraction of this shard's lookups (`0.0` before
    /// any).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// JSON form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("index", Json::Num(self.index as f64)),
            ("queue_depth", Json::Num(self.queue_depth as f64)),
            ("admitted", jsonio::big_u64_to_json(self.admitted)),
            ("completed", jsonio::big_u64_to_json(self.completed)),
            ("shed", jsonio::big_u64_to_json(self.shed)),
            ("expired", jsonio::big_u64_to_json(self.expired)),
            ("failed", jsonio::big_u64_to_json(self.failed)),
            ("busy_micros", jsonio::big_u64_to_json(self.busy_micros)),
            (
                "cache",
                Json::obj(vec![
                    ("hits", jsonio::big_u64_to_json(self.cache_hits)),
                    ("misses", jsonio::big_u64_to_json(self.cache_misses)),
                    ("evictions", jsonio::big_u64_to_json(self.cache_evictions)),
                    ("entries", Json::Num(self.cache_entries as f64)),
                    (
                        "capacity",
                        match self.cache_capacity {
                            Some(n) => Json::Num(n as f64),
                            None => Json::Null,
                        },
                    ),
                ]),
            ),
        ])
    }

    /// Parse the JSON form produced by [`ShardStats::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Protocol`] on missing or wrongly-typed
    /// fields.
    pub fn from_json(value: &Json) -> Result<Self, ServeError> {
        let bad = |message: String| ServeError::Protocol(message);
        let u64_field = |obj: &Json, key: &str| -> Result<u64, ServeError> {
            let v = obj
                .get(key)
                .ok_or_else(|| bad(format!("shard stats need `{key}`")))?;
            jsonio::big_u64(v, key).map_err(|e| bad(e.to_string()))
        };
        let cache = value
            .get("cache")
            .ok_or_else(|| bad("shard stats need `cache`".into()))?;
        Ok(Self {
            index: u64_field(value, "index")? as usize,
            queue_depth: u64_field(value, "queue_depth")? as usize,
            admitted: u64_field(value, "admitted")?,
            completed: u64_field(value, "completed")?,
            shed: u64_field(value, "shed")?,
            expired: u64_field(value, "expired")?,
            failed: u64_field(value, "failed")?,
            busy_micros: u64_field(value, "busy_micros")?,
            cache_hits: u64_field(cache, "hits")?,
            cache_misses: u64_field(cache, "misses")?,
            cache_evictions: u64_field(cache, "evictions")?,
            cache_entries: u64_field(cache, "entries")? as usize,
            cache_capacity: match cache.get("capacity") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    jsonio::require_u64(v, "capacity").map_err(|e| bad(e.to_string()))? as usize,
                ),
            },
        })
    }
}

/// The result of a `stats` request: admission, evaluation and cache
/// counters of the running server.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Microseconds since the server started.
    pub uptime_micros: u64,
    /// Executor count: requests evaluated at once, across all shards.
    pub workers: usize,
    /// Admission queue bound.
    pub queue_capacity: usize,
    /// Requests currently queued.
    pub queue_depth: usize,
    /// Well-formed requests received (all kinds).
    pub received: u64,
    /// Evaluation requests answered successfully.
    pub completed: u64,
    /// Requests shed with `busy` (queue full).
    pub shed: u64,
    /// Requests whose deadline expired before evaluation.
    pub expired: u64,
    /// Requests whose evaluation failed.
    pub failed: u64,
    /// Preparation-cache hits, summed over the current shards.
    pub cache_hits: u64,
    /// Preparation-cache misses, summed over the current shards.
    pub cache_misses: u64,
    /// Preparation-cache evictions, summed over the current shards.
    pub cache_evictions: u64,
    /// Preparations currently resident, summed over the current shards.
    pub cache_entries: usize,
    /// Preparation-cache bound, summed over the current shards
    /// (`None` = unbounded).
    pub cache_capacity: Option<usize>,
    /// Per-shard view: cache and timing numbers labeled by shard
    /// rather than silently summed. A pre-sharding server omits the
    /// key on the wire; [`ServerStats::from_json`] then synthesizes a
    /// single shard from the aggregate fields, so old and new servers
    /// parse alike.
    pub shards: Vec<ShardStats>,
    /// Cumulative microseconds spent preparing datasets
    /// (process-global; see `poisongame_sim::timing`).
    pub prep_micros: u64,
    /// Cumulative microseconds spent fitting models.
    pub fit_micros: u64,
    /// Cumulative microseconds spent evaluating fitted models.
    pub eval_micros: u64,
    /// Worker-pool tasks executed by pool workers (process-global; see
    /// `poisongame_exec::WorkerPool::stats`). Parallelism inside
    /// requests of every shard runs on the shared pool, so these
    /// counters describe every shard together.
    pub pool_tasks: u64,
    /// Worker-pool tasks executed inline by submitting threads
    /// participating in their own batches.
    pub pool_inline: u64,
    /// Worker-pool tickets stolen from another worker's deque.
    pub pool_steals: u64,
    /// Times a pool worker parked on the idle condvar.
    pub pool_parks: u64,
    /// Batches submitted to the pool's parallel path.
    pub pool_batches: u64,
    /// Telemetry summary: deadline/shed counters, event-log cursors
    /// and per-kind latency percentiles. A server predating the
    /// telemetry layer omits the key on the wire;
    /// [`ServerStats::from_json`] then leaves this `None`, so old and
    /// new servers parse alike (like the optional `pool` block).
    pub telemetry: Option<TelemetryStats>,
}

impl ServerStats {
    /// Cache hits as a fraction of all lookups (`0.0` before any).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// JSON form.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("uptime_micros", jsonio::big_u64_to_json(self.uptime_micros)),
            ("workers", Json::Num(self.workers as f64)),
            ("queue_capacity", Json::Num(self.queue_capacity as f64)),
            ("queue_depth", Json::Num(self.queue_depth as f64)),
            ("received", jsonio::big_u64_to_json(self.received)),
            ("completed", jsonio::big_u64_to_json(self.completed)),
            ("shed", jsonio::big_u64_to_json(self.shed)),
            ("expired", jsonio::big_u64_to_json(self.expired)),
            ("failed", jsonio::big_u64_to_json(self.failed)),
            (
                "cache",
                Json::obj(vec![
                    ("hits", jsonio::big_u64_to_json(self.cache_hits)),
                    ("misses", jsonio::big_u64_to_json(self.cache_misses)),
                    ("evictions", jsonio::big_u64_to_json(self.cache_evictions)),
                    ("entries", Json::Num(self.cache_entries as f64)),
                    (
                        "capacity",
                        match self.cache_capacity {
                            Some(n) => Json::Num(n as f64),
                            None => Json::Null,
                        },
                    ),
                ]),
            ),
            (
                "timing",
                Json::obj(vec![
                    ("prep_micros", jsonio::big_u64_to_json(self.prep_micros)),
                    ("fit_micros", jsonio::big_u64_to_json(self.fit_micros)),
                    ("eval_micros", jsonio::big_u64_to_json(self.eval_micros)),
                ]),
            ),
            (
                "pool",
                Json::obj(vec![
                    ("tasks", jsonio::big_u64_to_json(self.pool_tasks)),
                    ("inline", jsonio::big_u64_to_json(self.pool_inline)),
                    ("steals", jsonio::big_u64_to_json(self.pool_steals)),
                    ("parks", jsonio::big_u64_to_json(self.pool_parks)),
                    ("batches", jsonio::big_u64_to_json(self.pool_batches)),
                ]),
            ),
            (
                "shards",
                Json::Arr(self.shards.iter().map(ShardStats::to_json).collect()),
            ),
        ];
        if let Some(telemetry) = &self.telemetry {
            fields.push(("telemetry", telemetry.to_json()));
        }
        Json::obj(fields)
    }

    /// Parse the JSON form produced by [`ServerStats::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Protocol`] on missing or wrongly-typed
    /// fields.
    pub fn from_json(value: &Json) -> Result<Self, ServeError> {
        let bad = |message: String| ServeError::Protocol(message);
        let u64_field = |obj: &Json, key: &str| -> Result<u64, ServeError> {
            let v = obj
                .get(key)
                .ok_or_else(|| bad(format!("stats need `{key}`")))?;
            jsonio::big_u64(v, key).map_err(|e| bad(e.to_string()))
        };
        let cache = value
            .get("cache")
            .ok_or_else(|| bad("stats need `cache`".into()))?;
        let timing = value
            .get("timing")
            .ok_or_else(|| bad("stats need `timing`".into()))?;
        let mut stats = Self {
            uptime_micros: u64_field(value, "uptime_micros")?,
            workers: u64_field(value, "workers")? as usize,
            queue_capacity: u64_field(value, "queue_capacity")? as usize,
            queue_depth: u64_field(value, "queue_depth")? as usize,
            received: u64_field(value, "received")?,
            completed: u64_field(value, "completed")?,
            shed: u64_field(value, "shed")?,
            expired: u64_field(value, "expired")?,
            failed: u64_field(value, "failed")?,
            cache_hits: u64_field(cache, "hits")?,
            cache_misses: u64_field(cache, "misses")?,
            cache_evictions: u64_field(cache, "evictions")?,
            cache_entries: u64_field(cache, "entries")? as usize,
            cache_capacity: match cache.get("capacity") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    jsonio::require_u64(v, "capacity").map_err(|e| bad(e.to_string()))? as usize,
                ),
            },
            prep_micros: u64_field(timing, "prep_micros")?,
            fit_micros: u64_field(timing, "fit_micros")?,
            eval_micros: u64_field(timing, "eval_micros")?,
            pool_tasks: 0,
            pool_inline: 0,
            pool_steals: 0,
            pool_parks: 0,
            pool_batches: 0,
            shards: Vec::new(),
            // A pre-telemetry server omits the key; `None` means
            // "server reported nothing", distinct from all-zero.
            telemetry: value
                .get("telemetry")
                .map(TelemetryStats::from_json)
                .transpose()?,
        };
        // A pre-pool server omits `pool`; its counters stay zero so
        // old and new servers parse alike.
        if let Some(pool) = value.get("pool") {
            stats.pool_tasks = u64_field(pool, "tasks")?;
            stats.pool_inline = u64_field(pool, "inline")?;
            stats.pool_steals = u64_field(pool, "steals")?;
            stats.pool_parks = u64_field(pool, "parks")?;
            stats.pool_batches = u64_field(pool, "batches")?;
        }
        stats.shards = match value.get("shards") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(ShardStats::from_json)
                .collect::<Result<_, _>>()?,
            Some(_) => return Err(bad("`shards` must be an array".into())),
            // A pre-sharding server: its single engine *is* the one
            // shard; synthesize it from the aggregate fields so
            // callers can treat `shards` as always-present.
            None => vec![ShardStats {
                index: 0,
                queue_depth: stats.queue_depth,
                admitted: 0,
                completed: stats.completed,
                shed: stats.shed,
                expired: stats.expired,
                failed: stats.failed,
                busy_micros: 0,
                cache_hits: stats.cache_hits,
                cache_misses: stats.cache_misses,
                cache_evictions: stats.cache_evictions,
                cache_entries: stats.cache_entries,
                cache_capacity: stats.cache_capacity,
            }],
        };
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn frames_split_cap_and_truncate() {
        let mut r = BufReader::new("{\"a\":1}\nshort\r\n".as_bytes());
        assert_eq!(
            read_frame(&mut r, 64).unwrap(),
            Frame::Line("{\"a\":1}".into())
        );
        assert_eq!(read_frame(&mut r, 64).unwrap(), Frame::Line("short".into()));
        assert_eq!(read_frame(&mut r, 64).unwrap(), Frame::Eof);

        let mut r = BufReader::new("0123456789\n".as_bytes());
        assert_eq!(read_frame(&mut r, 5).unwrap(), Frame::TooLong);

        let mut r = BufReader::new("no newline at eof".as_bytes());
        assert_eq!(read_frame(&mut r, 64).unwrap(), Frame::Truncated);

        // A frame of exactly the cap still fits.
        let mut r = BufReader::new("12345\n".as_bytes());
        assert_eq!(read_frame(&mut r, 5).unwrap(), Frame::Line("12345".into()));
    }

    #[test]
    fn error_codes_round_trip() {
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::Busy,
            ErrorCode::Deadline,
            ErrorCode::EvalFailed,
            ErrorCode::LineTooLong,
            ErrorCode::ShuttingDown,
        ] {
            assert_eq!(ErrorCode::from_name(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::from_name("nope"), None);
    }

    #[test]
    fn seed_override_folds_into_config() {
        let req = parse_request_line(
            r#"{"id": 1, "type": "cell", "seed": 777, "config": {"epochs": 10}}"#,
        )
        .unwrap();
        match req.kind {
            RequestKind::Cell(cell) => {
                assert_eq!(cell.config.seed, 777);
                assert_eq!(cell.config.epochs, 10);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        // Absent seed: the config's own default (the paper seed).
        let req = parse_request_line(r#"{"id": 2, "type": "cell"}"#).unwrap();
        match req.kind {
            RequestKind::Cell(cell) => {
                assert_eq!(cell.config.seed, ExperimentConfig::paper().seed)
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn request_errors_carry_the_id_once_known() {
        // Before the id parses, errors are unaddressed.
        assert_eq!(parse_request_line("nonsense").unwrap_err().id, None);
        assert_eq!(
            parse_request_line(r#"{"type": "stats"}"#).unwrap_err().id,
            None
        );
        // After, they carry it.
        let e = parse_request_line(r#"{"id": 9, "type": "warp"}"#).unwrap_err();
        assert_eq!(e.id, Some(9));
        assert_eq!(e.code, ErrorCode::BadRequest);
        assert!(e.message.contains("unknown request type"));
        let e = parse_request_line(r#"{"id": 9, "type": "stats", "x": 1}"#).unwrap_err();
        assert_eq!(e.id, Some(9));
    }

    #[test]
    fn zero_deadline_is_rejected_up_front() {
        let e = parse_request_line(r#"{"id": 3, "type": "stats", "deadline_ms": 0}"#).unwrap_err();
        assert_eq!(e.id, Some(3));
        assert_eq!(e.code, ErrorCode::BadRequest);
        assert!(e.message.contains("positive"), "{}", e.message);
        // A positive deadline still parses.
        let req = parse_request_line(r#"{"id": 3, "type": "stats", "deadline_ms": 1}"#).unwrap();
        assert_eq!(req.deadline_ms, Some(1));
        // Fractional and negative deadlines are structured errors too.
        for bad in [
            r#"{"id": 3, "type": "stats", "deadline_ms": 1.5}"#,
            r#"{"id": 3, "type": "stats", "deadline_ms": -2}"#,
        ] {
            let e = parse_request_line(bad).unwrap_err();
            assert_eq!(e.code, ErrorCode::BadRequest, "{bad}");
        }
    }

    #[test]
    fn out_of_domain_seed_overrides_are_structured_errors() {
        // Negative, fractional, boolean and oversized-float seeds must
        // all be refused — never coerced into the config.
        for bad in [
            r#"{"id": 5, "type": "cell", "seed": -1}"#,
            r#"{"id": 5, "type": "cell", "seed": 1.25}"#,
            r#"{"id": 5, "type": "cell", "seed": true}"#,
            r#"{"id": 5, "type": "cell", "seed": null}"#,
            r#"{"id": 5, "type": "cell", "seed": "not a number"}"#,
            r#"{"id": 5, "type": "cell", "seed": 1e400}"#, // parses as out-of-range JSON
        ] {
            let e = parse_request_line(bad).unwrap_err();
            assert_eq!(e.code, ErrorCode::BadRequest, "{bad}");
        }
        // String-form big seeds remain the sanctioned path.
        let req =
            parse_request_line(r#"{"id": 5, "type": "cell", "seed": "18446744073709551615"}"#)
                .unwrap();
        match req.kind {
            RequestKind::Cell(cell) => assert_eq!(cell.config.seed, u64::MAX),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn online_requests_parse_with_defaults_and_seed_override() {
        let req = parse_request_line(r#"{"id": 8, "type": "online", "seed": 42}"#).unwrap();
        match req.kind {
            RequestKind::Online(online) => {
                assert_eq!(online.config.seed, 42);
                assert_eq!(online.spec, OnlineSpec::default());
            }
            other => panic!("wrong kind: {other:?}"),
        }
        let req = parse_request_line(
            r#"{"id": 8, "type": "online", "spec": {"rounds": 64, "attacker": {"type": "hedge"}}}"#,
        )
        .unwrap();
        match req.kind {
            RequestKind::Online(online) => {
                assert_eq!(online.spec.rounds, 64);
                assert_eq!(online.spec.attacker, poisongame_online::LearnerKind::Hedge);
            }
            other => panic!("wrong kind: {other:?}"),
        }
        // Malformed specs and unknown keys are addressable errors.
        let e = parse_request_line(r#"{"id": 8, "type": "online", "spec": {"rounds": "x"}}"#)
            .unwrap_err();
        assert_eq!(e.id, Some(8));
        let e = parse_request_line(r#"{"id": 8, "type": "online", "matrix": {}}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
    }

    #[test]
    fn solve_resolution_is_bounded() {
        let line = |resolution: usize| {
            format!(
                r#"{{"id":1,"type":"solve","effect":[[0,0.1]],"cost":[[0,0]],"n_points":10,"resolution":{resolution}}}"#
            )
        };
        assert!(parse_request_line(&line(2)).is_ok());
        assert!(parse_request_line(&line(1)).is_err());
        assert!(parse_request_line(&line(MAX_SOLVE_RESOLUTION + 1)).is_err());
    }

    #[test]
    fn responses_render_and_parse() {
        let ok = Response::ok(7, Json::obj(vec![("x", Json::Num(1.0))]));
        let back = parse_response_line(&ok.to_json().render()).unwrap();
        assert_eq!(back, ok);

        let err = Response::err(None, ErrorCode::Busy, "queue full");
        let back = parse_response_line(&err.to_json().render()).unwrap();
        assert_eq!(back, err);
        assert!(err.to_line().ends_with('\n'));

        // The borrow-rendering hot path is byte-identical to the
        // owned-tree form, for both variants.
        assert_eq!(ok.to_line(), format!("{}\n", ok.to_json().render()));
        assert_eq!(err.to_line(), format!("{}\n", err.to_json().render()));

        assert!(parse_response_line("{}").is_err());
        assert!(parse_response_line(r#"{"id":1,"ok":true}"#).is_err());
        assert!(parse_response_line(r#"{"id":1,"ok":false,"error":{"code":"??"}}"#).is_err());
    }

    #[test]
    fn server_stats_round_trip() {
        let stats = ServerStats {
            uptime_micros: 1_000_000,
            workers: 4,
            queue_capacity: 64,
            queue_depth: 3,
            received: 100,
            completed: 90,
            shed: 5,
            expired: 2,
            failed: 3,
            cache_hits: 80,
            cache_misses: 20,
            cache_evictions: 4,
            cache_entries: 16,
            cache_capacity: Some(32),
            prep_micros: 12_000,
            fit_micros: 340_000,
            eval_micros: 5_600,
            pool_tasks: 700,
            pool_inline: 300,
            pool_steals: 12,
            pool_parks: 40,
            pool_batches: 25,
            shards: vec![
                ShardStats {
                    index: 0,
                    queue_depth: 1,
                    admitted: 48,
                    completed: 44,
                    shed: 3,
                    expired: 1,
                    failed: 2,
                    busy_micros: 250_000,
                    cache_hits: 60,
                    cache_misses: 8,
                    cache_evictions: 1,
                    cache_entries: 7,
                    cache_capacity: Some(16),
                },
                ShardStats {
                    index: 1,
                    cache_capacity: None,
                    ..ShardStats::default()
                },
            ],
            telemetry: Some(TelemetryStats {
                deadline_missed: 2,
                shed: 5,
                events_logged: 40,
                events_dropped: 1,
                kinds: vec![crate::telemetry::KindTelemetry {
                    kind: "cell".to_string(),
                    count: 44,
                    duration_p50_nanos: 1 << 20,
                    duration_p90_nanos: 1 << 21,
                    duration_p99_nanos: 1 << 22,
                    duration_max_nanos: (1 << 22) + 17,
                    queue_wait_p50_nanos: 512,
                    queue_wait_p99_nanos: 2048,
                }],
            }),
        };
        let back = ServerStats::from_json(&stats.to_json()).unwrap();
        assert_eq!(back, stats);
        assert!((stats.cache_hit_rate() - 0.8).abs() < 1e-12);
        // Unbounded cache renders as null and parses back to None.
        let unbounded = ServerStats {
            cache_capacity: None,
            ..stats
        };
        assert_eq!(
            ServerStats::from_json(&unbounded.to_json()).unwrap(),
            unbounded
        );
        assert_eq!(ServerStats::default().cache_hit_rate(), 0.0);
    }

    #[test]
    fn server_stats_without_pool_key_parses_to_zero_counters() {
        // A pre-pool server never sends `pool`; dropping the key from
        // a rendered document must parse with zeroed pool counters.
        let stats = ServerStats {
            pool_tasks: 7,
            pool_batches: 2,
            ..ServerStats::default()
        };
        let rendered = stats.to_json();
        let Json::Obj(fields) = rendered else {
            panic!("stats render as an object");
        };
        let stripped = Json::Obj(fields.into_iter().filter(|(k, _)| k != "pool").collect());
        let back = ServerStats::from_json(&stripped).unwrap();
        assert_eq!(back.pool_tasks, 0);
        assert_eq!(back.pool_inline, 0);
        assert_eq!(back.pool_steals, 0);
        assert_eq!(back.pool_parks, 0);
        assert_eq!(back.pool_batches, 0);
    }

    #[test]
    fn server_stats_without_telemetry_key_parses_to_none() {
        // A pre-telemetry server never sends `telemetry`; dropping the
        // key from a rendered document must parse with `None` (same
        // back-compat contract as the `pool` block above).
        let stats = ServerStats {
            telemetry: Some(TelemetryStats {
                shed: 9,
                ..TelemetryStats::default()
            }),
            ..ServerStats::default()
        };
        let rendered = stats.to_json();
        let Json::Obj(fields) = rendered else {
            panic!("stats render as an object");
        };
        let stripped = Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "telemetry")
                .collect(),
        );
        let back = ServerStats::from_json(&stripped).unwrap();
        assert_eq!(back.telemetry, None);
        // With the key present, the summary round-trips.
        let back = ServerStats::from_json(&stats.to_json()).unwrap();
        assert_eq!(back.telemetry, stats.telemetry);
    }

    #[test]
    fn metrics_and_events_requests_parse_and_round_trip() {
        let metrics = parse_request_line(r#"{"id": 1, "type": "metrics"}"#).unwrap();
        assert_eq!(metrics.kind, RequestKind::Metrics);
        assert_eq!(metrics.kind.type_name(), "metrics");

        // `since` defaults to 0 and round-trips when explicit.
        let events = parse_request_line(r#"{"id": 2, "type": "events"}"#).unwrap();
        assert_eq!(events.kind, RequestKind::Events { since: 0 });
        let events = parse_request_line(r#"{"id": 2, "type": "events", "since": 41}"#).unwrap();
        assert_eq!(events.kind, RequestKind::Events { since: 41 });
        assert_eq!(
            parse_request_line(&events.to_line()).unwrap().kind,
            events.kind
        );

        // Unknown keys stay rejected.
        assert!(parse_request_line(r#"{"id": 1, "type": "metrics", "x": 1}"#).is_err());
        assert!(parse_request_line(r#"{"id": 1, "type": "events", "cursor": 3}"#).is_err());
        assert!(parse_request_line(r#"{"id": 1, "type": "events", "since": -1}"#).is_err());
    }
}
