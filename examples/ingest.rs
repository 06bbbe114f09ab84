//! Ingestion throughput demo: generate an on-disk Spambase-scale CSV
//! from the synthetic source, then prepare it twice through the
//! streaming pipeline — once with the default chunk size, once with
//! `--chunk-rows` — and verify the two runs produce bit-identical
//! `PreparedData` (pinned via `content_digest`). Reports rows/s and
//! bytes/s per run per scale, plus the process-wide `io_*` counters
//! the telemetry layer exposes.
//!
//! ```sh
//! cargo run --release --example ingest                     # scales 1,8,64
//! cargo run --release --example ingest -- --scales 1,4 --rows 600
//! cargo run --release --example ingest -- --json /tmp/ingest.json
//! ```
//!
//! Options: `--scales LIST` (comma-separated Spambase multipliers,
//! default `1,8,64`), `--rows N` (base row count at 1× scale, default
//! 4601 — shrink for smoke runs), `--chunk-rows N` (chunk size of the
//! second run, default 256; the first uses the default 4096),
//! `--inflight N` (its max in-flight chunks, default 4), `--json PATH`
//! (write the machine-readable
//! summary), `--emit PATH` (also write a base-rows fixture CSV to
//! `PATH` and keep it — handy as a `load_test --dataset` input).

use poisongame::data::csv::to_csv;
use poisongame::data::synth::{spambase_like, SpambaseConfig};
use poisongame::io::telemetry::metrics;
use poisongame::io::{checksum_bytes, DEFAULT_CHUNK_ROWS};
use poisongame::linalg::rng::Xoshiro256StarStar;
use poisongame::sim::ingest::DEFAULT_MAX_INFLIGHT_CHUNKS;
use poisongame::sim::jsonio::{self, Json};
use poisongame::sim::pipeline::{prepare_data, DataSource, PreparedData};
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

struct Args {
    scales: Vec<usize>,
    rows: usize,
    chunk_rows: usize,
    inflight: usize,
    json: Option<String>,
    emit: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        scales: vec![1, 8, 64],
        rows: 4601,
        chunk_rows: 256,
        inflight: DEFAULT_MAX_INFLIGHT_CHUNKS,
        json: None,
        emit: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("`{what}` needs a value"));
        match flag.as_str() {
            "--scales" => {
                out.scales = value("--scales")?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("--scales: {e}")))
                    .collect::<Result<_, _>>()?
            }
            "--rows" => {
                out.rows = value("--rows")?
                    .parse()
                    .map_err(|e| format!("--rows: {e}"))?
            }
            "--chunk-rows" => {
                out.chunk_rows = value("--chunk-rows")?
                    .parse()
                    .map_err(|e| format!("--chunk-rows: {e}"))?
            }
            "--inflight" => {
                out.inflight = value("--inflight")?
                    .parse()
                    .map_err(|e| format!("--inflight: {e}"))?
            }
            "--json" => out.json = Some(value("--json")?),
            "--emit" => out.emit = Some(value("--emit")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if out.scales.is_empty() || out.scales.contains(&0) {
        return Err("--scales needs at least one positive multiplier".into());
    }
    if out.rows == 0 || out.chunk_rows == 0 || out.inflight == 0 {
        return Err("--rows, --chunk-rows and --inflight must all be at least 1".into());
    }
    Ok(out)
}

/// A file source; `chunking` of `None` takes the default chunk and
/// wave sizes.
fn file_source(path: &Path, checksum: u64, chunking: Option<(usize, usize)>) -> DataSource {
    DataSource::File {
        path: path.display().to_string(),
        checksum: Some(checksum),
        format: "spambase".to_string(),
        chunk_rows: chunking.map(|(rows, _)| rows),
        max_inflight_chunks: chunking.map(|(_, inflight)| inflight),
    }
}

/// One timed preparation run; returns the result plus throughput.
fn timed_prepare(
    source: &DataSource,
    bytes: usize,
) -> Result<(PreparedData, f64, f64, f64), Box<dyn std::error::Error>> {
    let started = Instant::now();
    let prepared = prepare_data(source, 20190607, 0.3)?;
    let secs = started.elapsed().as_secs_f64().max(1e-9);
    let rows = prepared.train.len() + prepared.test.len();
    Ok((prepared, secs, rows as f64 / secs, bytes as f64 / secs))
}

fn mode_json(secs: f64, rows_per_sec: f64, bytes_per_sec: f64) -> Json {
    Json::obj(vec![
        ("secs", Json::Num(secs)),
        ("rows_per_sec", Json::Num(rows_per_sec)),
        ("bytes_per_sec", Json::Num(bytes_per_sec)),
    ])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args().map_err(|e| {
        eprintln!("usage error: {e} (see the doc comment at the top of examples/ingest.rs)");
        e
    })?;
    let dir = std::env::temp_dir().join(format!("pg-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    println!(
        "ingest: scales {:?} × {} base rows | default = {} rows/chunk, ≤{} in flight | chunked = {} rows/chunk, ≤{} in flight\n",
        args.scales,
        args.rows,
        DEFAULT_CHUNK_ROWS,
        DEFAULT_MAX_INFLIGHT_CHUNKS,
        args.chunk_rows,
        args.inflight
    );

    if let Some(emit) = &args.emit {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xD5);
        let data = spambase_like(
            &SpambaseConfig {
                rows: args.rows,
                ..SpambaseConfig::default()
            },
            &mut rng,
        );
        let text = to_csv(&data);
        std::fs::write(emit, &text)?;
        println!(
            "fixture: {} rows → {emit} (checksum {})\n",
            args.rows,
            checksum_bytes(text.as_bytes())
        );
    }

    let mut scale_reports = Vec::new();
    for &scale in &args.scales {
        let rows = args.rows * scale;
        // The fixture: a real on-disk CSV at this scale, checksummed.
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xD5 + scale as u64);
        let data = spambase_like(
            &SpambaseConfig {
                rows,
                ..SpambaseConfig::default()
            },
            &mut rng,
        );
        let text = to_csv(&data);
        drop(data);
        let bytes = text.len();
        let checksum = checksum_bytes(text.as_bytes());
        let path = dir.join(format!("spambase-{scale}x.csv"));
        std::fs::write(&path, &text)?;
        drop(text);

        let (default, default_secs, default_rps, default_bps) =
            timed_prepare(&file_source(&path, checksum, None), bytes)?;
        let (chunked, chunk_secs, chunk_rps, chunk_bps) = timed_prepare(
            &file_source(&path, checksum, Some((args.chunk_rows, args.inflight))),
            bytes,
        )?;
        // The whole point: chunk sizes never change the preparation.
        assert_eq!(
            default.content_digest(),
            chunked.content_digest(),
            "chunk size {} diverged from the default at scale {scale}",
            args.chunk_rows
        );
        println!(
            "  {scale:>3}× ({rows} rows, {:.1} MiB): default {:.3}s ({:.0} rows/s) | chunked {:.3}s ({:.0} rows/s) | digests match",
            bytes as f64 / (1024.0 * 1024.0),
            default_secs,
            default_rps,
            chunk_secs,
            chunk_rps,
        );
        scale_reports.push(Json::obj(vec![
            ("scale", Json::Num(scale as f64)),
            ("rows", Json::Num(rows as f64)),
            ("bytes", Json::Num(bytes as f64)),
            ("checksum", jsonio::big_u64_to_json(checksum)),
            ("default", mode_json(default_secs, default_rps, default_bps)),
            ("chunked", mode_json(chunk_secs, chunk_rps, chunk_bps)),
            ("digest_match", Json::Bool(true)),
        ]));
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_dir_all(&dir).ok();

    let io = metrics();
    println!(
        "\nio_* counters: {} rows | {} bytes | {} chunks | {} fallbacks | {} checksum mismatches",
        io.rows.get(),
        io.bytes.get(),
        io.chunks.get(),
        io.fallback.get(),
        io.checksum_mismatch.get(),
    );

    if let Some(path) = &args.json {
        let summary = Json::obj(vec![
            ("base_rows", Json::Num(args.rows as f64)),
            ("chunk_rows", Json::Num(args.chunk_rows as f64)),
            ("max_inflight_chunks", Json::Num(args.inflight as f64)),
            ("scales", Json::Arr(scale_reports)),
            (
                "io_counters",
                Json::obj(vec![
                    ("rows_total", jsonio::big_u64_to_json(io.rows.get())),
                    ("bytes_total", jsonio::big_u64_to_json(io.bytes.get())),
                    ("chunks_total", jsonio::big_u64_to_json(io.chunks.get())),
                    ("fallback_total", jsonio::big_u64_to_json(io.fallback.get())),
                    (
                        "checksum_mismatch_total",
                        jsonio::big_u64_to_json(io.checksum_mismatch.get()),
                    ),
                ]),
            ),
        ]);
        std::fs::write(path, format!("{}\n", summary.render()))?;
        println!("summary written to {path}");
    }
    Ok(())
}
