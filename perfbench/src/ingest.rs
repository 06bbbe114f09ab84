//! `ingest_cold`: cold preparations of an on-disk CSV fixture.
//!
//! Set-up writes one synthetic Spambase CSV at 8× the UCI size
//! (36,808 rows, ~15 MiB) with its checksum. Each iteration clears the
//! engine's prep cache and prepares the fixture through a
//! `{"type":"file"}` source with the checksum pinned, once whole-file
//! and once with `chunk_rows: 4096`; the two `content_digest`s must be
//! equal. This is the only workload that misses the prep cache: io,
//! dataset split/scale and the exec chunk fan-out do the work, and
//! attack and fit are bypassed.
//!
//! The traced run replays a preparation from the public io calls
//! (`FileSource::scan_verified`, `ChunkReader::next_chunk`,
//! `parse_chunk`) and the dataset split/scale — the chunked path's two
//! passes with the whole-file path's split — and aborts unless its
//! digest equals the engine's.

use crate::measure::{self, median, Report};
use crate::replay::err;
use crate::trace::Tracer;
use crate::Ctx;
use poisongame::data::csv::to_csv;
use poisongame::data::scale::StandardScaler;
use poisongame::data::split::train_test_split;
use poisongame::data::synth::{spambase_like, SpambaseConfig};
use poisongame::data::Dataset;
use poisongame::exec::WorkerPool;
use poisongame::io::{
    checksum_bytes, lookup_format, parse_chunk, ChunkReader, FileSource, IngestLimits,
};
use poisongame::linalg::rng::SplitMix64;
use poisongame::linalg::{Matrix, Xoshiro256StarStar};
use poisongame::sim::jsonio::Json;
use poisongame::sim::pipeline::{DataSource, ExperimentConfig, PreparedData};
use poisongame::sim::EvalEngine;
use poisongame_bench::bench_experiment_config;
use rand::SeedableRng;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// 8× the UCI Spambase row count.
const ROWS: usize = 8 * 4601;
const CHUNK_ROWS: usize = 4096;
const SETUPS: usize = 5;

struct Fixture {
    path: PathBuf,
    checksum: u64,
    bytes: usize,
}

/// Generate the fixture from the workload seed and write it.
fn write_fixture(ctx: &Ctx) -> Result<Fixture, String> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(ctx.seed ^ 0x1a6e_57c0);
    let data = spambase_like(
        &SpambaseConfig {
            rows: ROWS,
            ..SpambaseConfig::default()
        },
        &mut rng,
    );
    let text = to_csv(&data);
    std::fs::create_dir_all(&ctx.out_dir)
        .map_err(|e| format!("creating {}: {e}", ctx.out_dir.display()))?;
    let path = ctx.out_dir.join(format!("ingest-seed{}.csv", ctx.seed));
    std::fs::write(&path, &text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(Fixture {
        checksum: checksum_bytes(text.as_bytes()),
        bytes: text.len(),
        path,
    })
}

fn config(ctx: &Ctx, fixture: &Fixture, chunk_rows: Option<usize>) -> ExperimentConfig {
    ExperimentConfig {
        seed: SplitMix64::new(ctx.seed ^ 0x1a6e_57c0).next(),
        source: DataSource::File {
            path: fixture.path.display().to_string(),
            checksum: Some(fixture.checksum),
            format: "spambase".to_string(),
            chunk_rows,
            max_inflight_chunks: None,
        },
        ..bench_experiment_config()
    }
}

/// One cold preparation: clear the cache, prepare, return the data and
/// the seconds it took.
fn cold_prepare(
    engine: &EvalEngine,
    config: &ExperimentConfig,
) -> Result<(PreparedData, f64), String> {
    engine.clear_cache();
    let t0 = Instant::now();
    let prepared = engine.prepare(config).map_err(err)?;
    let secs = t0.elapsed().as_secs_f64();
    Ok(((*prepared.data).clone(), secs))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();

    // Set-up: generate, write and checksum the fixture. The first one
    // counts from process start; the page cache holds the file after.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut fixture = None;
    for i in 0..SETUPS {
        let t0 = if i == 0 { ctx.started } else { Instant::now() };
        fixture = Some(write_fixture(ctx)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let fixture = fixture.expect("at least one set-up");
    report.metrics.set("setup_s", median(&setups));
    report.detail("setup_seconds", Json::nums(&setups));

    let whole = config(ctx, &fixture, None);
    let chunked = config(ctx, &fixture, Some(CHUNK_ROWS));
    let engine = EvalEngine::new();
    let pool_before = WorkerPool::global().stats();
    let timing_before = poisongame::sim::timing::snapshot();
    let cache_before = engine.cache_stats();
    let window = if ctx.tracer.is_on() {
        ctx.seconds / 2
    } else {
        ctx.seconds
    };

    let phase = Instant::now();
    let (mut whole_secs, mut chunked_secs, mut pair_secs) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference: Option<u64> = None;
    let mut rows = 0usize;
    // At least two pairs, however short the run.
    for attempt in 0.. {
        if attempt >= 2 && phase.elapsed() >= window {
            break;
        }
        report.attempted += 1;
        let pair = cold_prepare(&engine, &whole)
            .and_then(|(w, ws)| cold_prepare(&engine, &chunked).map(|(c, cs)| (w, ws, c, cs)));
        match pair {
            Ok((w, ws, c, cs)) => {
                let (dw, dc) = (w.content_digest(), c.content_digest());
                let first = *reference.get_or_insert(dw);
                if dw != dc || dw != first {
                    report.failed += 1;
                    eprintln!(
                        "perfbench: digests whole {dw:016x}, chunked {dc:016x}, first {first:016x}"
                    );
                }
                rows = w.train.len() + w.test.len();
                whole_secs.push(ws);
                chunked_secs.push(cs);
                pair_secs.push(ws + cs);
            }
            Err(e) => {
                report.failed += 1;
                eprintln!("perfbench: preparation failed: {e}");
            }
        }
    }
    let wall = phase.elapsed().as_secs_f64();
    let pairs = pair_secs.len() as f64;
    if pairs == 0.0 {
        return Err("no preparation completed".into());
    }
    report.check(
        "prepared_every_row",
        rows == ROWS,
        format!("{rows} rows prepared, fixture has {ROWS}"),
    );

    let pair_ms = measure::sorted(pair_secs.iter().map(|s| s * 1e3).collect());
    let m = &mut report.metrics;
    m.set("latency_p50_ms", median(&pair_ms));
    m.set("latency_p99_ms", measure::supported_tail(&pair_ms));
    m.set("sweep_s", median(&pair_secs));
    m.set("max_rate_rps", pairs / wall);
    m.set("rows_per_s", 2.0 * rows as f64 / median(&pair_secs));
    let whole_rps = rows as f64 / median(&whole_secs);
    let chunked_rps = rows as f64 / median(&chunked_secs);
    m.set("io.whole_rows_per_s", whole_rps);
    m.set("io.chunked_rows_per_s", chunked_rps);

    let pool = WorkerPool::global().stats().since(&pool_before);
    let timing = poisongame::sim::timing::snapshot();
    let cache = engine.cache_stats();
    m.set("exec.batches", pool.batches as f64 / pairs);
    m.set("exec.steals", pool.steals as f64 / pairs);
    m.set("exec.parks", pool.parks as f64 / pairs);
    m.set(
        "exec.inline_share",
        pool.inline as f64 / (pool.inline + pool.tasks).max(1) as f64,
    );
    m.set(
        "sim.prep_ms",
        (timing.prep_micros - timing_before.prep_micros) as f64 / 1e3 / pairs,
    );
    let hits = cache.hits - cache_before.hits;
    let misses = cache.misses - cache_before.misses;
    m.set("dataset.cache_hits", hits as f64 / pairs);
    m.set("dataset.cache_misses", misses as f64 / pairs);
    m.set(
        "dataset.cache_evictions",
        (cache.evictions - cache_before.evictions) as f64 / pairs,
    );
    m.set(
        "dataset.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.detail(
        "modes",
        Json::obj(vec![
            ("rows", Json::Num(rows as f64)),
            ("bytes", Json::Num(fixture.bytes as f64)),
            ("chunk_rows", Json::Num(CHUNK_ROWS as f64)),
            ("whole_median_s", Json::Num(median(&whole_secs))),
            ("chunked_median_s", Json::Num(median(&chunked_secs))),
            (
                "whole_over_chunked",
                Json::Num(median(&whole_secs) / median(&chunked_secs)),
            ),
            ("whole_s", Json::nums(&whole_secs)),
            ("chunked_s", Json::nums(&chunked_secs)),
        ]),
    );

    if ctx.tracer.is_on() {
        let engine_digest = reference.expect("a pair completed");
        traced(ctx, &whole, &fixture, engine_digest, &mut report)?;
    }
    std::fs::remove_file(&fixture.path)
        .map_err(|e| format!("removing {}: {e}", fixture.path.display()))?;
    Ok(report)
}

/// Replay one preparation from the public io and dataset calls, with a
/// span around each. The same replay runs once untraced first; the
/// ratio of the two is the tracing overhead.
fn traced(
    ctx: &Ctx,
    config: &ExperimentConfig,
    fixture: &Fixture,
    engine_digest: u64,
    report: &mut Report,
) -> Result<(), String> {
    let tr = &ctx.tracer;
    let limits = IngestLimits::default();
    let source = FileSource::new(
        &fixture.path,
        Some(fixture.checksum),
        lookup_format("spambase").map_err(err)?,
    );
    let timed = |tracer: &Tracer| -> Result<(PreparedData, usize, f64), String> {
        let t0 = Instant::now();
        let (prepared, chunks) = tracer.span("bench.prepare", None, None, |root| {
            replay_prepare(tracer, root, &source, &fixture.path, &limits, config)
        })?;
        Ok((prepared, chunks, t0.elapsed().as_secs_f64()))
    };
    let (_, _, untraced_s) = timed(&Tracer::new(false))?;
    let (prepared, chunks, took) = timed(tr)?;
    let digest = prepared.content_digest();
    if digest != engine_digest {
        return Err(format!(
            "traced ingest replay diverged from the engine: digest {digest:016x} != {engine_digest:016x}"
        ));
    }
    report.check(
        "traced_replay_bit_identical",
        true,
        format!("digest {digest:016x}"),
    );
    let self_ms = tr.self_ms();
    let get = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
    let m = &mut report.metrics;
    m.set("bench.trace_overhead_ratio", took / untraced_s);
    m.set("io.scan_ms", get("io.scan"));
    m.set("io.parse_ms", get("io.parse"));
    m.set(
        "io.bytes_per_s",
        fixture.bytes as f64 / (get("io.scan") / 1e3),
    );
    m.set("io.chunks", chunks as f64);
    m.set("dataset.split_scale_ms", get("dataset.split_scale"));
    Ok(())
}

fn replay_prepare(
    tr: &Tracer,
    root: Option<u64>,
    source: &FileSource,
    path: &Path,
    limits: &IngestLimits,
    config: &ExperimentConfig,
) -> Result<(PreparedData, usize), String> {
    // Pass 1: rows, bytes and the pinned checksum.
    let scan = tr
        .span("io.scan", root, None, |_| source.scan_verified(limits))
        .map_err(err)?
        .ok_or("fixture vanished")?;
    // Pass 2: strict chunked read and parse.
    let file = std::fs::File::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
    let mut reader =
        ChunkReader::new(BufReader::new(file), CHUNK_ROWS, limits.clone()).map_err(err)?;
    let format = lookup_format("spambase").map_err(err)?;
    let (mut features, mut labels) = (Vec::new(), Vec::new());
    let mut cols = format.feature_columns;
    let mut chunks = 0;
    while let Some(chunk) = tr
        .span("io.read_chunk", root, None, |_| reader.next_chunk())
        .map_err(err)?
    {
        let parsed = tr
            .span("io.parse", root, None, |_| parse_chunk(&chunk, cols))
            .map_err(err)?;
        cols = Some(parsed.cols);
        features.extend_from_slice(&parsed.features);
        labels.extend_from_slice(&parsed.labels);
        chunks += 1;
    }
    source.verify(reader.summary().checksum).map_err(err)?;
    if labels.len() != scan.rows {
        return Err(format!(
            "scan saw {} rows, read saw {}",
            scan.rows,
            labels.len()
        ));
    }
    let cols = cols.ok_or("empty fixture")?;
    // `prepare_data`: split with the experiment seed's rng, then
    // z-score with the scaler fitted on the training split.
    let prepared = tr.span("dataset.split_scale", root, None, |_| {
        let full = Dataset::new(
            Matrix::from_vec(labels.len(), cols, features).map_err(err)?,
            labels,
        )
        .map_err(err)?;
        let mut rng = Xoshiro256StarStar::seed_from_u64(config.seed);
        let (train_raw, test_raw) =
            train_test_split(&full, config.test_fraction, &mut rng).map_err(err)?;
        let (train, scaler) = StandardScaler::fit_transform(&train_raw).map_err(err)?;
        let test = scaler.transform(&test_raw).map_err(err)?;
        Ok::<_, String>(PreparedData {
            train,
            test,
            scaler,
        })
    })?;
    Ok((prepared, chunks))
}
