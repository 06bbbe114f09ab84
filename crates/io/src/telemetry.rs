//! Ingestion telemetry: `io_*` counters, histograms and events.
//!
//! All handles register once (lazily) into the process-wide
//! [`poisongame_obs::Registry::global`], so any host that already
//! exposes the registry — the gateway's `GET /v1/metrics`, the serve
//! `metrics` request — sees ingestion traffic with no extra wiring.
//! The hot path (per-chunk recording) only touches cached atomics.

use poisongame_obs::{Counter, EventLog, FieldValue, Gauge, Histogram, Registry, Severity};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Data rows successfully parsed by the ingestion tier.
pub const IO_ROWS_FAMILY: &str = "poisongame_io_rows_total";
/// Raw bytes consumed from record sources (newlines included).
pub const IO_BYTES_FAMILY: &str = "poisongame_io_bytes_total";
/// Chunks parsed (file and `csv_text` preparation both count).
pub const IO_CHUNKS_FAMILY: &str = "poisongame_io_chunks_total";
/// Per-chunk parse latency in nanoseconds.
pub const IO_PARSE_FAMILY: &str = "poisongame_io_parse_nanos";
/// Chunks currently being read and parsed, summed over every
/// preparation in the process. One preparation holds at most
/// `max_inflight_chunks` of them (fewer on a smaller worker pool), so
/// concurrent preparations together can exceed that bound.
pub const IO_INFLIGHT_FAMILY: &str = "poisongame_io_inflight_chunks";
/// File sources whose content failed checksum validation.
pub const IO_CHECKSUM_MISMATCH_FAMILY: &str = "poisongame_io_checksum_mismatch_total";
/// File sources that were absent and fell back to the synthetic
/// generator.
pub const IO_FALLBACK_FAMILY: &str = "poisongame_io_fallback_total";

/// Event kind published when a file source fails checksum validation.
pub const CHECKSUM_MISMATCH_EVENT: &str = "checksum_mismatch";

/// The ingestion tier's cached metric handles.
pub struct IoMetrics {
    /// Rows parsed.
    pub rows: Arc<Counter>,
    /// Raw bytes consumed.
    pub bytes: Arc<Counter>,
    /// Chunks parsed.
    pub chunks: Arc<Counter>,
    /// Per-chunk parse latency.
    pub parse_nanos: Arc<Histogram>,
    /// Chunks being read and parsed right now (see
    /// [`IO_INFLIGHT_FAMILY`]).
    pub inflight: Arc<Gauge>,
    /// Checksum validation failures.
    pub checksum_mismatch: Arc<Counter>,
    /// Absent-file fallbacks to the synthetic generator.
    pub fallback: Arc<Counter>,
}

/// The process-wide ingestion metric handles (registered on first
/// use).
pub fn metrics() -> &'static IoMetrics {
    static METRICS: OnceLock<IoMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let registry = Registry::global();
        IoMetrics {
            rows: registry.counter(
                IO_ROWS_FAMILY,
                "Data rows parsed by the ingestion tier",
                &[],
            ),
            bytes: registry.counter(
                IO_BYTES_FAMILY,
                "Raw bytes consumed from record sources",
                &[],
            ),
            chunks: registry.counter(IO_CHUNKS_FAMILY, "Chunks parsed", &[]),
            parse_nanos: registry.histogram(
                IO_PARSE_FAMILY,
                "Per-chunk parse latency in nanoseconds",
                &[],
            ),
            inflight: registry.gauge(
                IO_INFLIGHT_FAMILY,
                "Chunks currently being read and parsed",
                &[],
            ),
            checksum_mismatch: registry.counter(
                IO_CHECKSUM_MISMATCH_FAMILY,
                "File sources whose content failed checksum validation",
                &[],
            ),
            fallback: registry.counter(
                IO_FALLBACK_FAMILY,
                "Absent file sources served by the synthetic fallback",
                &[],
            ),
        }
    })
}

/// Record one parsed chunk: rows, chunk count, parse latency.
pub fn record_chunk(rows: u64, elapsed: Duration) {
    let m = metrics();
    m.rows.add(rows);
    m.chunks.inc();
    m.parse_nanos.record_duration(elapsed);
}

/// Count one chunk in the in-flight gauge until the returned guard
/// drops — on error and panic paths too.
pub fn admit_chunk() -> AdmittedChunk {
    metrics().inflight.add(1);
    AdmittedChunk(())
}

/// One chunk counted in the in-flight gauge (see [`admit_chunk`]).
#[must_use = "the chunk leaves the in-flight gauge when this drops"]
pub struct AdmittedChunk(());

impl Drop for AdmittedChunk {
    fn drop(&mut self) {
        metrics().inflight.add(-1);
    }
}

/// Record an absent-file fallback to the synthetic generator.
pub fn note_fallback(path: &str) {
    metrics().fallback.inc();
    EventLog::global().publish(
        Severity::Info,
        "source_fallback",
        vec![("path".to_string(), FieldValue::Str(path.to_string()))],
    );
}

/// Record a checksum validation failure: counter plus a
/// [`CHECKSUM_MISMATCH_EVENT`] error event carrying the path and both
/// hashes.
pub fn note_checksum_mismatch(source: &str, expected: u64, actual: u64) {
    metrics().checksum_mismatch.inc();
    EventLog::global().publish(
        Severity::Error,
        CHECKSUM_MISMATCH_EVENT,
        vec![
            ("source".to_string(), FieldValue::Str(source.to_string())),
            ("expected".to_string(), FieldValue::U64(expected)),
            ("actual".to_string(), FieldValue::U64(actual)),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let before = metrics().rows.get();
        record_chunk(5, Duration::from_micros(10));
        assert!(metrics().rows.get() >= before + 5);
        assert!(metrics().chunks.get() >= 1);
    }

    #[test]
    fn checksum_mismatch_publishes_event() {
        let log = EventLog::global();
        let cursor = log.last_seq();
        note_checksum_mismatch("data/spam.csv", 1, 2);
        let replay = log.since(cursor);
        assert!(replay
            .events
            .iter()
            .any(|e| e.kind == CHECKSUM_MISMATCH_EVENT));
    }
}
