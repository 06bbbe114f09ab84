//! Metric names, the result document, and small statistics helpers.

use poisongame::sim::jsonio::Json;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
/// Names and units match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("max_rate_rps", "req/s"),
    ("sweep_s", "s"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A
/// layer the workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gateway.added_p50_us", "us"),
    ("gateway.added_p99_us", "us"),
    ("serve.queue_wait_p99_ms.solve", "ms"),
    ("serve.queue_wait_p99_ms.cell", "ms"),
    ("serve.queue_wait_p99_ms.estimate", "ms"),
    ("serve.duration_p50_ms.solve", "ms"),
    ("serve.duration_p50_ms.cell", "ms"),
    ("serve.duration_p50_ms.estimate", "ms"),
    ("serve.wire_p50_us", "us"),
    ("sim.jsonio_us", "us"),
    ("serve.busy_share", "ratio"),
    ("serve.shard_skew", "ratio"),
    ("serve.shed", "count"),
    ("serve.deadline_missed", "count"),
    ("sim.prep_ms", "ms"),
    ("sim.fit_ms", "ms"),
    ("sim.eval_ms", "ms"),
    ("sim.attributed_share", "ratio"),
    ("dataset.cache_hits", "count"),
    ("dataset.cache_misses", "count"),
    ("dataset.cache_evictions", "count"),
    ("dataset.cache_hit_ratio", "ratio"),
    ("dataset.split_scale_ms", "ms"),
    ("io.scan_ms", "ms"),
    ("io.parse_ms", "ms"),
    ("io.bytes_per_s", "B/s"),
    ("io.chunks", "count"),
    ("io.whole_rows_per_s", "rows/s"),
    ("io.chunked_rows_per_s", "rows/s"),
    ("attack.generate_ms", "ms"),
    ("attack.poison_points", "count"),
    ("defense.split_ms", "ms"),
    ("defense.poison_caught_ratio", "ratio"),
    ("defense.clean_removed_ratio", "ratio"),
    ("ml.fit_ms", "ms"),
    ("ml.fit_row_updates", "count"),
    ("ml.eval_ms", "ms"),
    ("core.estimate_ms", "ms"),
    ("core.algorithm1_ms", "ms"),
    ("game.solve_ms", "ms"),
    ("game.solve_mw_ms", "ms"),
    ("online.play_ms", "ms"),
    ("online.rounds_per_s", "rounds/s"),
    ("exec.batches", "count"),
    ("exec.steals", "count"),
    ("exec.parks", "count"),
    ("exec.inline_share", "ratio"),
    ("bench.generator_lag_p99_ms", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.cells", "count"),
    ("error_rate", "ratio"),
];

/// Named metric values of one run.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .any(|(known, _)| *known == name),
            "unregistered metric `{name}`"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object of the result line: every metric of the
    /// mode's set, each with its unit. End-to-end metrics must all
    /// have been measured; layers the workload never reached read 0.
    pub fn render(&self, traced: bool) -> Result<Json, String> {
        let set = if traced { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(set.len());
        for (name, unit) in set {
            let value = match self.get(name) {
                Some(v) => v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric `{name}` was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite ({value})"));
            }
            fields.push((
                *name,
                Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]),
            ));
        }
        Ok(Json::obj(fields))
    }
}

/// Nearest-rank percentile (`q` in 0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail of a small closed-loop sample: the highest percentile with
/// at least ten samples beyond it, capped at p99 and floored at the
/// median. A run of a batch workload completes tens of operations, so
/// its nearest-rank p99 would be its single slowest operation.
pub fn supported_tail(sorted: &[f64]) -> f64 {
    let n = sorted.len() as f64;
    let q = (100.0 * (1.0 - 10.0 / n)).clamp(50.0, 99.0);
    percentile(sorted, q).max(median(sorted))
}

/// Median by the usual midpoint rule.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The process's resident-set high-water mark (VmHWM) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparseable VmHWM line `{line}`"))?;
    Ok(kib / 1024.0)
}

/// One output check: its name, whether it held, and what was seen.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted and failed (failed responses, shed,
    /// deadline misses, mismatched outputs and failed checks).
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: Metrics,
    /// Workload-specific diagnostics for the report file (rate
    /// ladder steps, per-mode timings, sample counts).
    pub details: Vec<(&'static str, Json)>,
}

impl Report {
    /// Record a check; a failed check is one failed operation.
    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
        }
        self.checks.push(Check {
            name: name.into(),
            passed,
            detail: detail.into(),
        });
    }

    pub fn detail(&mut self, key: &'static str, value: Json) {
        self.details.push((key, value));
    }
}
