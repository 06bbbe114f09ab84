//! Streaming preparation: every chunk size reproduces an in-memory
//! split-and-scale replay bit for bit, the absent-file fallback
//! reproduces the synthetic arm exactly, `csv_text` shares the file
//! path, and corruption is a structured error — never a silent
//! fallback.

use poisongame_data::csv::to_csv;
use poisongame_data::scale::StandardScaler;
use poisongame_data::split::train_test_split;
use poisongame_data::synth::{spambase_like, SpambaseConfig};
use poisongame_data::Dataset;
use poisongame_io::{checksum_bytes, parse_chunk, ChunkReader, IngestError, IngestLimits};
use poisongame_linalg::{Matrix, Xoshiro256StarStar};
use poisongame_sim::error::SimError;
use poisongame_sim::pipeline::{prepare_data, DataSource, ExperimentConfig, PreparedData};
use rand::SeedableRng;
use std::io::BufReader;
use std::path::{Path, PathBuf};

/// A fresh temp directory for one test (process id + test name keeps
/// parallel test binaries apart).
fn temp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pg-ingest-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Synthetic Spambase-layout CSV on disk, plus its checksum.
fn write_dataset(test: &str, rows: usize) -> (PathBuf, u64) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xD5);
    let data = spambase_like(
        &SpambaseConfig {
            rows,
            ..SpambaseConfig::default()
        },
        &mut rng,
    );
    let text = to_csv(&data);
    let path = temp_dir(test).join("spam.csv");
    std::fs::write(&path, &text).unwrap();
    (path, checksum_bytes(text.as_bytes()))
}

fn file_source(path: &Path, checksum: Option<u64>, chunk_rows: Option<usize>) -> DataSource {
    DataSource::File {
        path: path.display().to_string(),
        checksum,
        format: "spambase".to_string(),
        chunk_rows,
        max_inflight_chunks: Some(2),
    }
}

/// The in-memory reference: drain the strict reader, build the whole
/// dataset, then split and scale it the way the synthetic arms of
/// `prepare_data` do.
fn replay_prepare(path: &Path, seed: u64, test_fraction: f64) -> PreparedData {
    let file = std::fs::File::open(path).unwrap();
    let mut reader = ChunkReader::new(BufReader::new(file), 4096, IngestLimits::default()).unwrap();
    let (mut features, mut labels) = (Vec::new(), Vec::new());
    let mut cols = Some(57);
    while let Some(chunk) = reader.next_chunk().unwrap() {
        let parsed = parse_chunk(&chunk, cols).unwrap();
        cols = Some(parsed.cols);
        features.extend_from_slice(&parsed.features);
        labels.extend_from_slice(&parsed.labels);
    }
    let full = Dataset::new(
        Matrix::from_vec(labels.len(), cols.unwrap(), features).unwrap(),
        labels,
    )
    .unwrap();
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let (train_raw, test_raw) = train_test_split(&full, test_fraction, &mut rng).unwrap();
    let (train, scaler) = StandardScaler::fit_transform(&train_raw).unwrap();
    let test = scaler.transform(&test_raw).unwrap();
    PreparedData {
        train,
        test,
        scaler,
    }
}

#[test]
fn streamed_preparation_is_bit_identical_to_in_memory_replay() {
    let (path, sum) = write_dataset("bitident", 400);
    let reference = replay_prepare(&path, 20190607, 0.3);
    // The default, row-at-a-time, sizes that don't divide the row
    // count, and one chunk holding the whole file — all must reproduce
    // the reference bytes.
    for chunk_rows in [None, Some(1), Some(7), Some(64), Some(4096)] {
        let streamed =
            prepare_data(&file_source(&path, Some(sum), chunk_rows), 20190607, 0.3).unwrap();
        assert_eq!(
            streamed.scaler, reference.scaler,
            "chunk_rows {chunk_rows:?}"
        );
        assert_eq!(streamed.train.labels(), reference.train.labels());
        assert_eq!(streamed.test.labels(), reference.test.labels());
        for (split_s, split_r) in [
            (&streamed.train, &reference.train),
            (&streamed.test, &reference.test),
        ] {
            assert_eq!(split_s.len(), split_r.len());
            for (a, b) in split_s
                .features()
                .as_slice()
                .iter()
                .zip(split_r.features().as_slice())
            {
                assert_eq!(a.to_bits(), b.to_bits(), "chunk_rows {chunk_rows:?}");
            }
        }
        assert_eq!(streamed.content_digest(), reference.content_digest());
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn file_source_matches_csv_text_source() {
    // A present file preps exactly like the same bytes inlined as a
    // csv_text source: the file layer adds no arithmetic.
    let (path, sum) = write_dataset("csvtext", 300);
    let text = std::fs::read_to_string(&path).unwrap();
    let from_file = prepare_data(&file_source(&path, Some(sum), None), 7, 0.3).unwrap();
    let from_text = prepare_data(&DataSource::CsvText { text }, 7, 0.3).unwrap();
    assert_eq!(from_file, from_text);
    assert_eq!(from_file.content_digest(), from_text.content_digest());
    std::fs::remove_file(&path).ok();
}

#[test]
fn csv_text_final_row_may_lack_a_newline() {
    // A csv_text document is complete, so an unterminated last row is
    // a row, not a truncation — unlike the same bytes in a file.
    let rows: String = (0..20)
        .map(|i| format!("{i},{},{}\n", i * 2, i % 2))
        .collect();
    let terminated = prepare_data(&DataSource::CsvText { text: rows.clone() }, 5, 0.3).unwrap();
    let bare = rows.trim_end().to_string();
    let unterminated = prepare_data(&DataSource::CsvText { text: bare }, 5, 0.3).unwrap();
    assert_eq!(terminated, unterminated);
    assert_eq!(terminated.train.len() + terminated.test.len(), 20);
}

#[test]
fn csv_text_errors_are_structured_ingest_errors() {
    let text = "1,2,1\n3,\"4\",0\n".to_string();
    assert!(matches!(
        prepare_data(&DataSource::CsvText { text }, 5, 0.3),
        Err(SimError::Ingest(IngestError::Quoted { line: 2 }))
    ));
    for text in ["", "# only comments\n\n"] {
        assert!(matches!(
            prepare_data(
                &DataSource::CsvText {
                    text: text.to_string()
                },
                5,
                0.3
            ),
            Err(SimError::Ingest(IngestError::Empty))
        ));
    }
}

#[test]
fn huge_inflight_bound_from_the_wire_is_harmless() {
    // A wire-supplied bound sizes nothing: it is clamped to the pool,
    // so it costs no more than the default.
    let (path, _) = write_dataset("inflight", 40);
    let json = format!(
        r#"{{"source":{{"type":"file","path":"{}","chunk_rows":8,"max_inflight_chunks":1000000000000000}}}}"#,
        path.display()
    );
    let config = ExperimentConfig::from_json_str(&json).unwrap();
    let huge = prepare_data(&config.source, 3, 0.3).unwrap();
    let default = prepare_data(&file_source(&path, None, None), 3, 0.3).unwrap();
    assert_eq!(huge, default);
    std::fs::remove_file(&path).ok();
}

#[test]
fn absent_file_falls_back_to_synthetic_exactly() {
    let missing = temp_dir("fallback").join("never-downloaded.csv");
    // Pinned checksum on an absent file is still a clean fallback —
    // there is nothing to validate, and CI must stay green offline.
    let fallback = prepare_data(&file_source(&missing, Some(42), None), 11, 0.3).unwrap();
    let synthetic = prepare_data(&DataSource::SyntheticSpambase { rows: 4601 }, 11, 0.3).unwrap();
    assert_eq!(fallback, synthetic);
    // The chunked knobs don't change the fallback either.
    let chunked = prepare_data(&file_source(&missing, None, Some(256)), 11, 0.3).unwrap();
    assert_eq!(chunked, synthetic);
}

#[test]
fn checksum_mismatch_is_an_error_not_a_fallback() {
    let (path, sum) = write_dataset("mismatch", 120);
    for chunk_rows in [None, Some(32)] {
        match prepare_data(&file_source(&path, Some(sum ^ 1), chunk_rows), 3, 0.3) {
            Err(SimError::Ingest(poisongame_io::IngestError::ChecksumMismatch {
                expected,
                actual,
                ..
            })) => {
                assert_eq!(expected, sum ^ 1);
                assert_eq!(actual, sum);
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_rows_are_structured_errors() {
    let dir = temp_dir("corrupt");
    let path = dir.join("bad.csv");
    std::fs::write(&path, "1,2,1\n3,nope,0\n").unwrap();
    let source = DataSource::File {
        path: path.display().to_string(),
        checksum: None,
        format: "csv".to_string(),
        chunk_rows: Some(16),
        max_inflight_chunks: None,
    };
    match prepare_data(&source, 3, 0.3) {
        Err(SimError::Ingest(poisongame_io::IngestError::BadFloat { line: 2, .. })) => {}
        other => panic!("expected BadFloat at line 2, got {other:?}"),
    }
    // Truncated final row.
    std::fs::write(&path, "1,2,1\n3,4,0").unwrap();
    assert!(matches!(
        prepare_data(&source, 3, 0.3),
        Err(SimError::Ingest(
            poisongame_io::IngestError::UnterminatedRow { line: 2 }
        ))
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn ragged_arity_change_at_chunk_boundary_is_bad_arity() {
    // Width flips exactly at a chunk boundary, so with the
    // width-inferring `csv` format every chunk in the parse wave is
    // internally consistent — only the cross-chunk width check can
    // catch the raggedness. Both directions must be a structured
    // error: a wider second chunk must not panic the scatter loop, a
    // narrower one must not scatter misaligned rows silently.
    let dir = temp_dir("ragged");
    let path = dir.join("ragged.csv");
    for (text, expected, found) in [
        ("1,2,1\n3,4,0\n1,2,3,1\n4,5,6,0\n", 3, 4),
        ("1,2,3,1\n4,5,6,0\n1,2,1\n3,4,0\n", 4, 3),
    ] {
        std::fs::write(&path, text).unwrap();
        let source = DataSource::File {
            path: path.display().to_string(),
            checksum: None,
            format: "csv".to_string(),
            chunk_rows: Some(2),
            max_inflight_chunks: Some(4),
        };
        match prepare_data(&source, 3, 0.3) {
            Err(SimError::Ingest(poisongame_io::IngestError::BadArity {
                line: 3,
                expected: e,
                found: f,
            })) => {
                assert_eq!((e, f), (expected, found), "{text:?}");
            }
            other => panic!("{text:?}: expected BadArity at line 3, got {other:?}"),
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn chunk_settings_never_change_the_reported_error() {
    // Lines 1-4 hold 2 features, lines 5-8 hold 3, line 9 a bad float.
    // Each 4-row chunk is consistent on its own, so only the first
    // row's width, pinned for every chunk, makes line 5 the error. The
    // first error in file order must win whatever the settings.
    let dir = temp_dir("first-error");
    let path = dir.join("ragged.csv");
    let mut text = String::new();
    for i in 0..4 {
        text.push_str(&format!("{i},{i},{}\n", i % 2));
    }
    for i in 0..4 {
        text.push_str(&format!("{i},{i},{i},{}\n", i % 2));
    }
    text.push_str("oops,1.0,1\n");
    std::fs::write(&path, &text).unwrap();
    for chunk_rows in [1, 2, 3, 4, 5, 100] {
        for max_inflight_chunks in [1, 2, 4, 1_000_000] {
            let source = DataSource::File {
                path: path.display().to_string(),
                checksum: None,
                format: "csv".to_string(),
                chunk_rows: Some(chunk_rows),
                max_inflight_chunks: Some(max_inflight_chunks),
            };
            assert_eq!(
                prepare_data(&source, 3, 0.3).unwrap_err(),
                SimError::Ingest(IngestError::BadArity {
                    line: 5,
                    expected: 3,
                    found: 4
                }),
                "chunk_rows {chunk_rows}, max_inflight_chunks {max_inflight_chunks}"
            );
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn wide_first_row_cannot_size_the_output_past_the_source() {
    // A first row 100k features wide and 400k narrow rows after it
    // would ask for ~320 GB of output at the first row's width. The
    // narrow rows cannot fill that, so nothing is allocated and the
    // first narrow row is the error.
    let mut text = vec!["1"; 100_001].join(",");
    text.push('\n');
    text.push_str(&"1,0\n".repeat(400_000));
    assert_eq!(
        prepare_data(&DataSource::CsvText { text }, 5, 0.3).unwrap_err(),
        SimError::Ingest(IngestError::BadArity {
            line: 2,
            expected: 100_001,
            found: 2
        })
    );
}

#[test]
fn degenerate_knobs_are_rejected() {
    let (path, _) = write_dataset("knobs", 40);
    assert!(matches!(
        prepare_data(&file_source(&path, None, Some(0)), 3, 0.3),
        Err(SimError::Ingest(poisongame_io::IngestError::ZeroChunkRows))
    ));
    let source = DataSource::File {
        path: path.display().to_string(),
        checksum: None,
        format: "spambase".to_string(),
        chunk_rows: Some(8),
        max_inflight_chunks: Some(0),
    };
    assert!(matches!(
        prepare_data(&source, 3, 0.3),
        Err(SimError::Ingest(
            poisongame_io::IngestError::ZeroInflightChunks
        ))
    ));
    std::fs::remove_file(&path).ok();
}

#[test]
fn file_source_json_round_trips() {
    let (path, sum) = write_dataset("json", 40);
    let config = ExperimentConfig {
        source: file_source(&path, Some(sum), Some(128)),
        ..ExperimentConfig::paper()
    };
    let back = ExperimentConfig::from_json_str(&config.to_json_string()).unwrap();
    assert_eq!(back, config);
    // Optional fields default: no checksum, no chunking, spambase
    // format.
    let minimal = format!(
        r#"{{"source":{{"type":"file","path":"{0}"}}}}"#,
        "data/x.csv"
    );
    let parsed = ExperimentConfig::from_json_str(&minimal).unwrap();
    assert_eq!(
        parsed.source,
        DataSource::File {
            path: "data/x.csv".to_string(),
            checksum: None,
            format: "spambase".to_string(),
            chunk_rows: None,
            max_inflight_chunks: None,
        }
    );
    // Degenerate knobs and unknown formats die at parse time.
    for bad in [
        r#"{"source":{"type":"file","path":"x.csv","chunk_rows":0}}"#,
        r#"{"source":{"type":"file","path":"x.csv","max_inflight_chunks":0}}"#,
        r#"{"source":{"type":"file","path":"x.csv","format":"parquet"}}"#,
        r#"{"source":{"type":"file"}}"#,
    ] {
        assert!(
            matches!(ExperimentConfig::from_json_str(bad), Err(SimError::Spec(_))),
            "{bad}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn prep_key_ignores_chunking_knobs() {
    use poisongame_sim::engine::prep_key;
    let a = prep_key(
        &file_source(&PathBuf::from("data/spam.csv"), Some(9), None),
        1,
        0.3,
    );
    let b = prep_key(
        &file_source(&PathBuf::from("data/spam.csv"), Some(9), Some(512)),
        1,
        0.3,
    );
    // Every chunk size produces a bit-identical preparation, so they
    // must share a cache entry.
    assert_eq!(a, b);
    assert_eq!(a.content_hash(), b.content_hash());
    let other = prep_key(
        &file_source(&PathBuf::from("data/other.csv"), Some(9), None),
        1,
        0.3,
    );
    assert_ne!(a, other);
    let no_sum = prep_key(
        &file_source(&PathBuf::from("data/spam.csv"), None, None),
        1,
        0.3,
    );
    assert_ne!(a, no_sum);
}
