//! Bench: the streaming ingestion tier. Three measurements:
//!
//! * **scan** — raw chunked scan throughput (`poisongame_io::scan`):
//!   line framing + checksum only, no float parsing; the ceiling for
//!   every downstream number.
//! * **parse** — `ChunkReader::next_chunk` + `parse_chunk`: the full
//!   strict CSV parse into flat feature/label buffers, per chunk
//!   size.
//! * **prepare** — `pipeline::prepare_data` against an on-disk file
//!   source at the default chunk size, at several Spambase scales:
//!   scan, parallel parse and scatter into the split, then scaling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use poisongame_bench::bench_dataset;
use poisongame_data::csv::to_csv;
use poisongame_io::{checksum_bytes, parse_chunk, scan, ChunkReader, IngestLimits};
use poisongame_sim::pipeline::{prepare_data, DataSource};
use std::hint::black_box;
use std::io::Cursor;
use std::path::PathBuf;

/// One on-disk synthetic Spambase CSV per scale, created once.
fn fixture(rows: usize) -> (PathBuf, String, u64) {
    let text = to_csv(&bench_dataset(rows));
    let checksum = checksum_bytes(text.as_bytes());
    let dir = std::env::temp_dir().join(format!("pg-bench-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("spambase-{rows}.csv"));
    std::fs::write(&path, &text).expect("fixture write");
    (path, text, checksum)
}

fn bench_scan(c: &mut Criterion) {
    let (_path, text, checksum) = fixture(4601);
    let mut group = c.benchmark_group("ingest/scan");
    group.sample_size(20);
    group.bench_function("4601_rows", |b| {
        b.iter(|| {
            let summary = scan(
                Cursor::new(black_box(text.as_bytes())),
                &IngestLimits::default(),
            )
            .expect("scan succeeds");
            assert_eq!(summary.checksum, checksum);
            black_box(summary.rows)
        })
    });
    group.finish();
}

fn bench_parse(c: &mut Criterion) {
    let (_path, text, _) = fixture(4601);
    let mut group = c.benchmark_group("ingest/parse");
    group.sample_size(20);
    for chunk_rows in [256usize, 4096] {
        group.bench_with_input(
            BenchmarkId::new("chunked", chunk_rows),
            &chunk_rows,
            |b, &chunk_rows| {
                b.iter(|| {
                    let mut reader = ChunkReader::new(
                        Cursor::new(black_box(text.as_bytes())),
                        chunk_rows,
                        IngestLimits::default(),
                    )
                    .expect("reader");
                    let mut rows = 0usize;
                    while let Some(chunk) = reader.next_chunk().expect("chunk") {
                        let parsed = parse_chunk(&chunk, Some(57)).expect("parse");
                        rows += parsed.labels.len();
                    }
                    black_box(rows)
                })
            },
        );
    }
    group.finish();
}

fn bench_prepare(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest/prepare");
    group.sample_size(10);
    for rows in [4601usize, 4601 * 8] {
        let (path, _text, checksum) = fixture(rows);
        let source = DataSource::File {
            path: path.display().to_string(),
            checksum: Some(checksum),
            format: "spambase".to_string(),
            chunk_rows: None,
            max_inflight_chunks: None,
        };
        group.bench_with_input(BenchmarkId::new("file", rows), &rows, |b, _| {
            b.iter(|| {
                let prepared = prepare_data(&source, 20190607, 0.3).expect("prepare succeeds");
                black_box(prepared.train.len())
            })
        });
        std::fs::remove_file(&path).ok();
    }
    group.finish();
}

criterion_group!(benches, bench_scan, bench_parse, bench_prepare);
criterion_main!(benches);
