//! The serving tier's telemetry: metric registration, wire codecs
//! and the `stats` summary block.
//!
//! Everything here records into the process-wide
//! [`poisongame_obs::Registry::global`] and
//! [`poisongame_obs::EventLog::global`], so one exposition endpoint
//! (the gateway's `/v1/metrics`) sees the serving tier, the worker
//! pool and the evaluation phases together. Recording never touches a
//! response document — responses stay pure functions of their request
//! (the invariant `tests/loopback.rs` pins), and telemetry is read out
//! of band via the `stats`, `metrics` and `events` request kinds.
//!
//! Three pieces live here:
//!
//! * `Telemetry` / `ShardObs` / `MuxObs` — the server's cached
//!   metric handles (registration happens once at bind time, the hot
//!   path only touches atomics).
//! * Wire codecs: [`registry_to_json`] / [`registry_from_json`] carry
//!   a whole registry snapshot over the NDJSON protocol so a gateway
//!   fronting a separate server process can render Prometheus text
//!   from the *backend's* registry; [`replay_to_json`] does the same
//!   for event-log replays.
//! * [`TelemetryStats`] — the compact summary embedded in the `stats`
//!   response under the `"telemetry"` key (absent on older servers;
//!   [`crate::protocol::ServerStats::from_json`] treats it like the
//!   optional `"pool"` block).

use crate::error::ServeError;
use poisongame_data::CacheStats;
use poisongame_obs::{
    Counter, Event, EventLog, EventReplay, FamilySnapshot, FieldValue, Histogram,
    HistogramSnapshot, MetricKind, MetricSnapshot, MetricValue, Registry, RegistrySnapshot,
    Severity, BUCKET_COUNT,
};
use poisongame_sim::jsonio::{self, Json};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Request kinds that flow through the admission queues and get
/// per-kind latency histograms. The control plane (`stats`, `resize`,
/// `metrics`, `events`, `shutdown`) is answered inline on the
/// multiplexer thread and is covered by the mux dispatch histogram
/// instead.
pub const WORK_KINDS: [&str; 5] = ["solve", "cell", "matrix", "estimate", "online"];

/// Per-kind service-time histogram family (nanoseconds).
pub const REQUEST_DURATION_FAMILY: &str = "poisongame_request_duration_nanos";
/// Per-kind admission-to-service wait histogram family (nanoseconds).
pub const QUEUE_WAIT_FAMILY: &str = "poisongame_request_queue_wait_nanos";
/// Per-shard admission-to-service wait histogram family (nanoseconds).
pub const SHARD_QUEUE_WAIT_FAMILY: &str = "poisongame_shard_queue_wait_nanos";
/// Requests dropped because their deadline expired before evaluation.
pub const DEADLINE_MISSED_FAMILY: &str = "poisongame_deadline_missed_total";
/// Requests shed with `busy` (admission queue full).
pub const SHED_FAMILY: &str = "poisongame_requests_shed_total";
/// Per-shard preparation-cache hits.
pub const CACHE_HITS_FAMILY: &str = "poisongame_cache_hits_total";
/// Per-shard preparation-cache misses.
pub const CACHE_MISSES_FAMILY: &str = "poisongame_cache_misses_total";
/// Per-shard preparation-cache evictions.
pub const CACHE_EVICTIONS_FAMILY: &str = "poisongame_cache_evictions_total";
/// Multiplexer per-tick socket-read latency (nanoseconds, ticks that
/// read at least one byte).
pub const MUX_READ_FAMILY: &str = "poisongame_mux_read_nanos";
/// Multiplexer per-tick socket-write latency (nanoseconds, ticks that
/// flushed at least one byte).
pub const MUX_WRITE_FAMILY: &str = "poisongame_mux_write_nanos";
/// Per-frame dispatch latency: parse plus inline answer or admission
/// (nanoseconds).
pub const MUX_DISPATCH_FAMILY: &str = "poisongame_mux_dispatch_nanos";

/// The server's cached metric handles. Registered once per server at
/// bind time; every observation afterwards is a couple of relaxed
/// atomic ops. Multiple servers in one process share the underlying
/// metrics (same family name and labels → same metric).
pub(crate) struct Telemetry {
    duration: Vec<Arc<Histogram>>,
    queue_wait: Vec<Arc<Histogram>>,
    pub deadline_missed: Arc<Counter>,
    pub shed: Arc<Counter>,
    /// Service times at or above this publish a `slow_request` event
    /// (`None` disables).
    slow_request: Option<Duration>,
}

impl Telemetry {
    /// Register (or re-acquire) every serving-tier family in the
    /// global registry. `slow_request_millis == 0` disables the
    /// slow-request event.
    pub fn register(slow_request_millis: u64) -> Telemetry {
        let registry = Registry::global();
        let per_kind = |family: &str, help: &str| -> Vec<Arc<Histogram>> {
            WORK_KINDS
                .iter()
                .map(|kind| registry.histogram(family, help, &[("kind", kind)]))
                .collect()
        };
        Telemetry {
            duration: per_kind(
                REQUEST_DURATION_FAMILY,
                "Service time per evaluated request, by request kind",
            ),
            queue_wait: per_kind(
                QUEUE_WAIT_FAMILY,
                "Admission-to-service wait per evaluated request, by request kind",
            ),
            deadline_missed: registry.counter(
                DEADLINE_MISSED_FAMILY,
                "Requests whose deadline expired before evaluation started",
                &[],
            ),
            shed: registry.counter(
                SHED_FAMILY,
                "Requests shed with a busy error because an admission queue was full",
                &[],
            ),
            slow_request: (slow_request_millis > 0)
                .then(|| Duration::from_millis(slow_request_millis)),
        }
    }

    fn slot(kind: &str) -> Option<usize> {
        WORK_KINDS.iter().position(|k| *k == kind)
    }

    /// Record one evaluated request's queue wait and service time, and
    /// publish a `slow_request` event when the service time crosses
    /// the configured threshold.
    pub fn record_request(&self, kind: &str, id: u64, queue_wait: Duration, service: Duration) {
        let Some(slot) = Telemetry::slot(kind) else {
            return;
        };
        self.queue_wait[slot].record_duration(queue_wait);
        self.duration[slot].record_duration(service);
        if let Some(threshold) = self.slow_request {
            if service >= threshold {
                EventLog::global().publish(
                    Severity::Warn,
                    "slow_request",
                    vec![
                        ("kind".to_string(), FieldValue::Str(kind.to_string())),
                        ("id".to_string(), FieldValue::U64(id)),
                        (
                            "service_millis".to_string(),
                            FieldValue::U64(service.as_millis().min(u128::from(u64::MAX)) as u64),
                        ),
                        (
                            "threshold_millis".to_string(),
                            FieldValue::U64(threshold.as_millis().min(u128::from(u64::MAX)) as u64),
                        ),
                    ],
                );
            }
        }
    }

    /// Count one shed request and publish the `shed` event.
    pub fn note_shed(&self, kind: &str, shard: usize, queue_capacity: usize) {
        self.shed.inc();
        EventLog::global().publish(
            Severity::Warn,
            "shed",
            vec![
                ("kind".to_string(), FieldValue::Str(kind.to_string())),
                ("shard".to_string(), FieldValue::U64(shard as u64)),
                (
                    "queue_capacity".to_string(),
                    FieldValue::U64(queue_capacity as u64),
                ),
            ],
        );
    }

    /// Count one deadline-expired request and publish the
    /// `deadline_missed` event.
    pub fn note_deadline_missed(&self, kind: &str, id: u64, shard: usize) {
        self.deadline_missed.inc();
        EventLog::global().publish(
            Severity::Warn,
            "deadline_missed",
            vec![
                ("kind".to_string(), FieldValue::Str(kind.to_string())),
                ("id".to_string(), FieldValue::U64(id)),
                ("shard".to_string(), FieldValue::U64(shard as u64)),
            ],
        );
    }

    /// The compact summary embedded in the `stats` response.
    pub fn summarize(&self) -> TelemetryStats {
        let log = EventLog::global().since(u64::MAX);
        TelemetryStats {
            deadline_missed: self.deadline_missed.get(),
            shed: self.shed.get(),
            events_logged: log.last_seq,
            events_dropped: log.dropped,
            kinds: WORK_KINDS
                .iter()
                .enumerate()
                .map(|(slot, kind)| {
                    let duration = self.duration[slot].snapshot();
                    let wait = self.queue_wait[slot].snapshot();
                    KindTelemetry {
                        kind: (*kind).to_string(),
                        count: duration.count,
                        duration_p50_nanos: duration.percentile(0.50),
                        duration_p90_nanos: duration.percentile(0.90),
                        duration_p99_nanos: duration.percentile(0.99),
                        duration_max_nanos: duration.max,
                        queue_wait_p50_nanos: wait.percentile(0.50),
                        queue_wait_p99_nanos: wait.percentile(0.99),
                    }
                })
                .collect(),
        }
    }
}

/// Per-shard observability: the shard-labeled queue-wait histogram and
/// cache counters, plus the last engine cache reading so counter
/// updates are deltas (the obs counters stay monotone across resizes —
/// a fresh shard generation reuses the same labeled counters and
/// starts its delta base at zero, matching its fresh engine).
pub(crate) struct ShardObs {
    index: usize,
    queue_wait: Arc<Histogram>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    last: Mutex<CacheStats>,
}

impl ShardObs {
    /// Register (or re-acquire) shard `index`'s families.
    pub fn register(index: usize) -> ShardObs {
        let registry = Registry::global();
        let label = index.to_string();
        let labels: &[(&str, &str)] = &[("shard", label.as_str())];
        ShardObs {
            index,
            queue_wait: registry.histogram(
                SHARD_QUEUE_WAIT_FAMILY,
                "Admission-to-service wait per evaluated request, by shard",
                labels,
            ),
            hits: registry.counter(
                CACHE_HITS_FAMILY,
                "Preparation-cache hits, by shard",
                labels,
            ),
            misses: registry.counter(
                CACHE_MISSES_FAMILY,
                "Preparation-cache misses, by shard",
                labels,
            ),
            evictions: registry.counter(
                CACHE_EVICTIONS_FAMILY,
                "Preparation-cache evictions, by shard",
                labels,
            ),
            last: Mutex::new(CacheStats::default()),
        }
    }

    /// Record one request's admission-to-service wait on this shard.
    pub fn record_queue_wait(&self, wait: Duration) {
        self.queue_wait.record_duration(wait);
    }

    /// Fold the engine's cumulative cache counters into the registry
    /// (as deltas against the previous sync) and publish a
    /// `cache_eviction` event when evictions advanced.
    pub fn sync_cache(&self, stats: CacheStats) {
        let evicted = {
            let mut last = self.last.lock().unwrap_or_else(|e| e.into_inner());
            self.hits.add(stats.hits.saturating_sub(last.hits));
            self.misses.add(stats.misses.saturating_sub(last.misses));
            let evicted = stats.evictions.saturating_sub(last.evictions);
            self.evictions.add(evicted);
            *last = stats;
            evicted
        };
        if evicted > 0 {
            EventLog::global().publish(
                Severity::Info,
                "cache_eviction",
                vec![
                    ("shard".to_string(), FieldValue::U64(self.index as u64)),
                    ("evicted".to_string(), FieldValue::U64(evicted)),
                    (
                        "total_evictions".to_string(),
                        FieldValue::U64(stats.evictions),
                    ),
                ],
            );
        }
    }
}

/// The multiplexer's latency histograms.
pub(crate) struct MuxObs {
    pub read: Arc<Histogram>,
    pub write: Arc<Histogram>,
    pub dispatch: Arc<Histogram>,
}

impl MuxObs {
    /// Register (or re-acquire) the multiplexer families.
    pub fn register() -> MuxObs {
        let registry = Registry::global();
        MuxObs {
            read: registry.histogram(
                MUX_READ_FAMILY,
                "Multiplexer socket-read latency per tick that read bytes",
                &[],
            ),
            write: registry.histogram(
                MUX_WRITE_FAMILY,
                "Multiplexer socket-write latency per tick that flushed bytes",
                &[],
            ),
            dispatch: registry.histogram(
                MUX_DISPATCH_FAMILY,
                "Per-frame dispatch latency: parse plus inline answer or admission",
                &[],
            ),
        }
    }
}

/// Publish the `shard_resize` event (old shard generation retired in
/// favor of a new one).
pub(crate) fn note_resize(from: usize, to: usize) {
    EventLog::global().publish(
        Severity::Info,
        "shard_resize",
        vec![
            ("from".to_string(), FieldValue::U64(from as u64)),
            ("to".to_string(), FieldValue::U64(to as u64)),
        ],
    );
}

// ---------------------------------------------------------------------------
// Wire codecs: registry snapshots and event replays as protocol JSON
// ---------------------------------------------------------------------------

/// Render a registry snapshot as a protocol JSON document — the body
/// of a `metrics` response. Bucket arrays are carried sparsely as
/// `[index, count]` pairs; counters and histogram fields survive the
/// `f64` wire intact via the decimal-string escape for values beyond
/// 2^53 (gauges, which have no such escape, are exact to ±2^53).
pub fn registry_to_json(snapshot: &RegistrySnapshot) -> Json {
    Json::obj(vec![(
        "families",
        Json::Arr(snapshot.families.iter().map(family_to_json).collect()),
    )])
}

fn family_to_json(family: &FamilySnapshot) -> Json {
    Json::obj(vec![
        ("name", Json::str(&family.name)),
        ("help", Json::str(&family.help)),
        ("kind", Json::str(family.kind.as_str())),
        (
            "metrics",
            Json::Arr(family.metrics.iter().map(metric_to_json).collect()),
        ),
    ])
}

fn metric_to_json(metric: &MetricSnapshot) -> Json {
    let labels = Json::Arr(
        metric
            .labels
            .iter()
            .map(|(k, v)| Json::Arr(vec![Json::str(k), Json::str(v)]))
            .collect(),
    );
    let value = match &metric.value {
        MetricValue::Counter(v) => jsonio::big_u64_to_json(*v),
        MetricValue::Gauge(v) => Json::Num(*v as f64),
        MetricValue::Histogram(h) => histogram_to_json(h),
    };
    Json::obj(vec![("labels", labels), ("value", value)])
}

fn histogram_to_json(h: &HistogramSnapshot) -> Json {
    let buckets = h
        .buckets
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(i, &n)| Json::Arr(vec![Json::Num(i as f64), jsonio::big_u64_to_json(n)]))
        .collect();
    Json::obj(vec![
        ("count", jsonio::big_u64_to_json(h.count)),
        ("sum", jsonio::big_u64_to_json(h.sum)),
        ("max", jsonio::big_u64_to_json(h.max)),
        ("buckets", Json::Arr(buckets)),
    ])
}

/// Parse the JSON form produced by [`registry_to_json`].
///
/// # Errors
///
/// Returns [`ServeError::Protocol`] on missing or wrongly-typed
/// fields, unknown metric kinds, or out-of-range bucket indexes.
pub fn registry_from_json(value: &Json) -> Result<RegistrySnapshot, ServeError> {
    let bad = |message: String| ServeError::Protocol(message);
    let families = value
        .get("families")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("metrics document needs a `families` array".into()))?;
    Ok(RegistrySnapshot {
        families: families
            .iter()
            .map(family_from_json)
            .collect::<Result<_, _>>()?,
    })
}

fn family_from_json(value: &Json) -> Result<FamilySnapshot, ServeError> {
    let bad = |message: String| ServeError::Protocol(message);
    let text = |key: &str| -> Result<String, ServeError> {
        value
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| bad(format!("metric family needs a string `{key}`")))
    };
    let kind_name = text("kind")?;
    let kind = MetricKind::parse(&kind_name)
        .ok_or_else(|| bad(format!("unknown metric kind `{kind_name}`")))?;
    let metrics = value
        .get("metrics")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("metric family needs a `metrics` array".into()))?;
    Ok(FamilySnapshot {
        name: text("name")?,
        help: text("help")?,
        kind,
        metrics: metrics
            .iter()
            .map(|m| metric_from_json(m, kind))
            .collect::<Result<_, _>>()?,
    })
}

fn metric_from_json(value: &Json, kind: MetricKind) -> Result<MetricSnapshot, ServeError> {
    let bad = |message: String| ServeError::Protocol(message);
    let labels = value
        .get("labels")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("metric needs a `labels` array".into()))?
        .iter()
        .map(|pair| match pair.as_array() {
            Some([k, v]) => match (k.as_str(), v.as_str()) {
                (Some(k), Some(v)) => Ok((k.to_string(), v.to_string())),
                _ => Err(bad("label pair entries must be strings".into())),
            },
            _ => Err(bad("labels must be `[key, value]` pairs".into())),
        })
        .collect::<Result<_, _>>()?;
    let raw = value
        .get("value")
        .ok_or_else(|| bad("metric needs a `value`".into()))?;
    let value = match kind {
        MetricKind::Counter => {
            MetricValue::Counter(jsonio::big_u64(raw, "counter").map_err(|e| bad(e.to_string()))?)
        }
        MetricKind::Gauge => MetricValue::Gauge(
            raw.as_f64()
                .ok_or_else(|| bad("gauge value must be a number".into()))? as i64,
        ),
        MetricKind::Histogram => MetricValue::Histogram(histogram_from_json(raw)?),
    };
    Ok(MetricSnapshot { labels, value })
}

fn histogram_from_json(value: &Json) -> Result<HistogramSnapshot, ServeError> {
    let bad = |message: String| ServeError::Protocol(message);
    let field = |key: &str| -> Result<u64, ServeError> {
        let v = value
            .get(key)
            .ok_or_else(|| bad(format!("histogram needs `{key}`")))?;
        jsonio::big_u64(v, key).map_err(|e| bad(e.to_string()))
    };
    let mut buckets = [0u64; BUCKET_COUNT];
    let pairs = value
        .get("buckets")
        .and_then(Json::as_array)
        .ok_or_else(|| bad("histogram needs a `buckets` array".into()))?;
    for pair in pairs {
        let Some([index, count]) = pair.as_array() else {
            return Err(bad(
                "histogram buckets must be `[index, count]` pairs".into()
            ));
        };
        let index = jsonio::require_u64(index, "bucket index").map_err(|e| bad(e.to_string()))?;
        let index = usize::try_from(index)
            .ok()
            .filter(|i| *i < BUCKET_COUNT)
            .ok_or_else(|| bad(format!("bucket index {index} out of range")))?;
        buckets[index] = jsonio::big_u64(count, "bucket count").map_err(|e| bad(e.to_string()))?;
    }
    Ok(HistogramSnapshot {
        buckets,
        count: field("count")?,
        sum: field("sum")?,
        max: field("max")?,
    })
}

/// Render one event as protocol JSON (the same shape as
/// [`poisongame_obs::Event::to_json`], but as a [`Json`] value that
/// can be embedded in a response document).
pub fn event_to_json(event: &Event) -> Json {
    let fields = event
        .fields
        .iter()
        .map(|(key, value)| {
            let json = match value {
                FieldValue::U64(v) => jsonio::big_u64_to_json(*v),
                FieldValue::I64(v) => Json::Num(*v as f64),
                FieldValue::F64(v) if v.is_finite() => Json::Num(*v),
                FieldValue::F64(_) => Json::Null,
                FieldValue::Str(s) => Json::str(s),
            };
            (key.clone(), json)
        })
        .collect();
    Json::obj(vec![
        ("seq", jsonio::big_u64_to_json(event.seq)),
        ("unix_micros", jsonio::big_u64_to_json(event.unix_micros)),
        ("severity", Json::str(event.severity.as_str())),
        ("kind", Json::str(&event.kind)),
        ("fields", Json::Obj(fields)),
    ])
}

/// Render an event-log replay as a protocol JSON document — the body
/// of an `events` response: the replayed events oldest-first, the
/// total evicted-event count (a reader whose cursor fell behind it
/// missed events), and the highest sequence number ever published
/// (the next request's natural `since` cursor).
pub fn replay_to_json(replay: &EventReplay) -> Json {
    Json::obj(vec![
        (
            "events",
            Json::Arr(replay.events.iter().map(event_to_json).collect()),
        ),
        ("dropped", jsonio::big_u64_to_json(replay.dropped)),
        ("last_seq", jsonio::big_u64_to_json(replay.last_seq)),
    ])
}

// ---------------------------------------------------------------------------
// The `stats` summary block
// ---------------------------------------------------------------------------

/// Per-request-kind latency summary inside [`TelemetryStats`]. All
/// percentiles carry the histogram's one-power-of-two bucket error.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct KindTelemetry {
    /// The request kind (`"cell"`, `"solve"`, …).
    pub kind: String,
    /// Requests of this kind evaluated (not shed or expired).
    pub count: u64,
    /// Median service time in nanoseconds.
    pub duration_p50_nanos: u64,
    /// 90th-percentile service time in nanoseconds.
    pub duration_p90_nanos: u64,
    /// 99th-percentile service time in nanoseconds.
    pub duration_p99_nanos: u64,
    /// Largest observed service time in nanoseconds.
    pub duration_max_nanos: u64,
    /// Median admission-to-service wait in nanoseconds.
    pub queue_wait_p50_nanos: u64,
    /// 99th-percentile admission-to-service wait in nanoseconds.
    pub queue_wait_p99_nanos: u64,
}

impl KindTelemetry {
    /// JSON form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::str(&self.kind)),
            ("count", jsonio::big_u64_to_json(self.count)),
            (
                "duration_p50_nanos",
                jsonio::big_u64_to_json(self.duration_p50_nanos),
            ),
            (
                "duration_p90_nanos",
                jsonio::big_u64_to_json(self.duration_p90_nanos),
            ),
            (
                "duration_p99_nanos",
                jsonio::big_u64_to_json(self.duration_p99_nanos),
            ),
            (
                "duration_max_nanos",
                jsonio::big_u64_to_json(self.duration_max_nanos),
            ),
            (
                "queue_wait_p50_nanos",
                jsonio::big_u64_to_json(self.queue_wait_p50_nanos),
            ),
            (
                "queue_wait_p99_nanos",
                jsonio::big_u64_to_json(self.queue_wait_p99_nanos),
            ),
        ])
    }

    /// Parse the JSON form produced by [`KindTelemetry::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Protocol`] on missing or wrongly-typed
    /// fields.
    pub fn from_json(value: &Json) -> Result<Self, ServeError> {
        let bad = |message: String| ServeError::Protocol(message);
        let field = |key: &str| -> Result<u64, ServeError> {
            let v = value
                .get(key)
                .ok_or_else(|| bad(format!("kind telemetry needs `{key}`")))?;
            jsonio::big_u64(v, key).map_err(|e| bad(e.to_string()))
        };
        Ok(Self {
            kind: value
                .get("kind")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad("kind telemetry needs a string `kind`".into()))?,
            count: field("count")?,
            duration_p50_nanos: field("duration_p50_nanos")?,
            duration_p90_nanos: field("duration_p90_nanos")?,
            duration_p99_nanos: field("duration_p99_nanos")?,
            duration_max_nanos: field("duration_max_nanos")?,
            queue_wait_p50_nanos: field("queue_wait_p50_nanos")?,
            queue_wait_p99_nanos: field("queue_wait_p99_nanos")?,
        })
    }
}

/// The telemetry summary embedded in a `stats` response under the
/// `"telemetry"` key. Servers predating the telemetry layer omit the
/// key; [`crate::protocol::ServerStats::from_json`] then leaves the
/// field `None`, so old and new servers parse alike (the same
/// back-compat contract as the optional `"pool"` block).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetryStats {
    /// Requests whose deadline expired before evaluation started.
    pub deadline_missed: u64,
    /// Requests shed with `busy` (admission queue full).
    pub shed: u64,
    /// Events ever published to the process event log (its highest
    /// sequence number).
    pub events_logged: u64,
    /// Events evicted from the bounded event buffer.
    pub events_dropped: u64,
    /// Per-request-kind latency summaries, one per work kind.
    pub kinds: Vec<KindTelemetry>,
}

impl TelemetryStats {
    /// JSON form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "deadline_missed",
                jsonio::big_u64_to_json(self.deadline_missed),
            ),
            ("shed", jsonio::big_u64_to_json(self.shed)),
            ("events_logged", jsonio::big_u64_to_json(self.events_logged)),
            (
                "events_dropped",
                jsonio::big_u64_to_json(self.events_dropped),
            ),
            (
                "kinds",
                Json::Arr(self.kinds.iter().map(KindTelemetry::to_json).collect()),
            ),
        ])
    }

    /// Parse the JSON form produced by [`TelemetryStats::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Protocol`] on missing or wrongly-typed
    /// fields.
    pub fn from_json(value: &Json) -> Result<Self, ServeError> {
        let bad = |message: String| ServeError::Protocol(message);
        let field = |key: &str| -> Result<u64, ServeError> {
            let v = value
                .get(key)
                .ok_or_else(|| bad(format!("telemetry needs `{key}`")))?;
            jsonio::big_u64(v, key).map_err(|e| bad(e.to_string()))
        };
        Ok(Self {
            deadline_missed: field("deadline_missed")?,
            shed: field("shed")?,
            events_logged: field("events_logged")?,
            events_dropped: field("events_dropped")?,
            kinds: value
                .get("kinds")
                .and_then(Json::as_array)
                .ok_or_else(|| bad("telemetry needs a `kinds` array".into()))?
                .iter()
                .map(KindTelemetry::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poisongame_obs::Registry;

    #[test]
    fn registry_snapshot_round_trips() {
        let registry = Registry::new();
        registry
            .counter("rt_requests_total", "requests", &[("kind", "cell")])
            .add(7);
        registry.gauge("rt_depth", "queue depth", &[]).set(-3);
        let hist = registry.histogram("rt_latency_nanos", "latency", &[("kind", "cell")]);
        for v in [0u64, 1, 900, 1 << 40] {
            hist.record(v);
        }
        let snapshot = registry.snapshot();
        let round = registry_from_json(&registry_to_json(&snapshot)).expect("round trip");
        // Under the noop feature nothing records; the shape (families,
        // labels, kinds) still round-trips exactly.
        assert_eq!(round, snapshot);
    }

    #[test]
    fn registry_rejects_malformed_documents() {
        for text in [
            r#"{"x": 1}"#,
            r#"{"families": [{"name": "a", "help": "", "kind": "sketch", "metrics": []}]}"#,
            r#"{"families": [{"name": "a", "help": "", "kind": "histogram",
                "metrics": [{"labels": [], "value": {"count": 1, "sum": 1, "max": 1,
                "buckets": [[99, 1]]}}]}]}"#,
        ] {
            let value = Json::parse(text).expect("fixture parses");
            assert!(registry_from_json(&value).is_err(), "accepted: {text}");
        }
    }

    #[test]
    fn replay_document_shape() {
        let replay = EventReplay {
            events: vec![Event {
                seq: 3,
                unix_micros: 99,
                severity: Severity::Warn,
                kind: "shed".to_string(),
                fields: vec![("shard".to_string(), FieldValue::U64(1))],
            }],
            dropped: 2,
            last_seq: 3,
        };
        let json = replay_to_json(&replay);
        assert_eq!(
            json.render(),
            "{\"events\":[{\"seq\":3,\"unix_micros\":99,\"severity\":\"warn\",\
             \"kind\":\"shed\",\"fields\":{\"shard\":1}}],\"dropped\":2,\"last_seq\":3}"
        );
    }

    #[test]
    fn telemetry_stats_round_trip() {
        let stats = TelemetryStats {
            deadline_missed: 4,
            shed: 9,
            events_logged: 31,
            events_dropped: 2,
            kinds: vec![KindTelemetry {
                kind: "cell".to_string(),
                count: 12,
                duration_p50_nanos: 1000,
                duration_p90_nanos: 2000,
                duration_p99_nanos: 4000,
                duration_max_nanos: 4096,
                queue_wait_p50_nanos: 10,
                queue_wait_p99_nanos: 500,
            }],
        };
        let round = TelemetryStats::from_json(&stats.to_json()).expect("round trip");
        assert_eq!(round, stats);
    }
}
