//! File-source requests over the wire: the `--data-dir` allow-list is
//! enforced before admission, resolved paths prep byte-identically to
//! the local pipeline, and absent files fall back to the synthetic
//! generator so a file-source request is always answerable offline.
//! Inline `csv_text` sources share the file parser and its structured
//! errors.

use poisongame_data::csv::to_csv;
use poisongame_data::synth::{spambase_like, SpambaseConfig};
use poisongame_io::checksum_bytes;
use poisongame_linalg::Xoshiro256StarStar;
use poisongame_serve::client::Client;
use poisongame_serve::protocol::CellRequest;
use poisongame_serve::server::{Server, ServerConfig};
use poisongame_serve::{ErrorCode, ServeError};
use poisongame_sim::pipeline::{DataSource, ExperimentConfig};
use poisongame_sim::scenario::Scenario;
use poisongame_sim::EvalEngine;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::path::PathBuf;

/// The batch pipeline's JSON for one cell request. A served cell
/// carries no engine stats block, so the local run drops it too.
fn batch_cell_json(cell: &CellRequest) -> String {
    let mut results = EvalEngine::new()
        .run_matrix(&cell.config, &cell.as_matrix())
        .expect("batch matrix");
    results.engine = None;
    results.to_json_string()
}

fn spawn_server(config: ServerConfig) -> (SocketAddr, poisongame_serve::ServerHandle) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    (addr, server.spawn())
}

/// A data dir holding one small synthetic Spambase CSV.
fn data_dir_with_csv(test: &str) -> (PathBuf, u64) {
    let dir = std::env::temp_dir().join(format!("pg-serve-file-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xF1);
    let data = spambase_like(
        &SpambaseConfig {
            rows: 240,
            ..SpambaseConfig::default()
        },
        &mut rng,
    );
    let text = to_csv(&data);
    std::fs::write(dir.join("spam.csv"), &text).unwrap();
    (dir, checksum_bytes(text.as_bytes()))
}

fn file_cell(path: &str, checksum: Option<u64>, chunk_rows: Option<usize>) -> CellRequest {
    CellRequest {
        config: ExperimentConfig {
            seed: 21,
            source: DataSource::File {
                path: path.to_string(),
                checksum,
                format: "spambase".to_string(),
                chunk_rows,
                max_inflight_chunks: None,
            },
            epochs: 15,
            ..ExperimentConfig::paper()
        },
        scenario: Scenario::paper(),
        ..CellRequest::default()
    }
}

#[test]
fn served_file_source_matches_local_pipeline() {
    let (dir, sum) = data_dir_with_csv("match");
    let (addr, handle) = spawn_server(ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    // Ground truth: the batch pipeline against the resolved path.
    let resolved = file_cell(
        &dir.join("spam.csv").display().to_string(),
        Some(sum),
        Some(64),
    );
    let expected = batch_cell_json(&resolved);

    let mut client = Client::connect(addr).expect("connect");
    // The wire request names the *relative* path; the server resolves
    // it under its data dir. The default and an explicit chunk size
    // must both match.
    for chunk_rows in [None, Some(64)] {
        let request = file_cell("spam.csv", Some(sum), chunk_rows);
        let got = client.cell(&request).expect("cell");
        assert_eq!(got.to_json_string(), expected, "chunk_rows {chunk_rows:?}");
    }
    client.shutdown().expect("shutdown");
    handle.join().expect("join");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn absent_file_is_served_via_fallback() {
    let (dir, _) = data_dir_with_csv("fallback");
    let (addr, handle) = spawn_server(ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    let request = file_cell("never-downloaded.csv", Some(7), None);
    let via_file = client.cell(&request).expect("cell");
    // Identical to the pure synthetic source at the same seed.
    let synthetic = CellRequest {
        config: ExperimentConfig {
            source: DataSource::SyntheticSpambase { rows: 4601 },
            ..request.config.clone()
        },
        ..request.clone()
    };
    let via_synth = client.cell(&synthetic).expect("cell");
    assert_eq!(via_file.to_json_string(), via_synth.to_json_string());
    client.shutdown().expect("shutdown");
    handle.join().expect("join");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ragged_served_file_is_an_error_not_a_crash() {
    let (dir, _) = data_dir_with_csv("ragged");
    // Feature arity flips exactly at a chunk boundary, so with the
    // width-inferring `csv` format every chunk in the parse wave is
    // internally consistent and only the cross-chunk width check can
    // catch it. Before that check, the wider chunk panicked the
    // scatter loop — and worker-pool panics propagate, so one request
    // over a ragged data-dir file could take down the shard.
    std::fs::write(dir.join("ragged.csv"), "1,2,1\n3,4,0\n1,2,3,1\n4,5,6,0\n").unwrap();
    let (addr, handle) = spawn_server(ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    let mut request = file_cell("ragged.csv", None, Some(2));
    request.config.source = DataSource::File {
        path: "ragged.csv".to_string(),
        checksum: None,
        format: "csv".to_string(),
        chunk_rows: Some(2),
        max_inflight_chunks: Some(4),
    };
    match client.cell(&request).unwrap_err() {
        ServeError::Server { code, message } => {
            assert_eq!(code, ErrorCode::EvalFailed);
            assert!(message.contains("line 3"), "{message}");
        }
        other => panic!("expected structured arity error, got {other:?}"),
    }
    // The shard survived: a good request on the same connection works.
    client
        .cell(&file_cell("spam.csv", None, Some(64)))
        .expect("good request after ragged file");
    client.shutdown().expect("shutdown");
    handle.join().expect("join");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn served_csv_text_matches_local_pipeline_and_corruption_is_structured() {
    let (dir, _) = data_dir_with_csv("csvtext");
    let text = std::fs::read_to_string(dir.join("spam.csv")).unwrap();
    let mut request = file_cell("spam.csv", None, None);
    request.config.source = DataSource::CsvText { text };
    let expected = batch_cell_json(&request);
    // No data dir: inline text never touches the file allow-list.
    let (addr, handle) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(
        client.cell(&request).expect("cell").to_json_string(),
        expected
    );
    let mut corrupt = request.clone();
    corrupt.config.source = DataSource::CsvText {
        text: "1,2,1\n3,\"4\",0\n5,6,1\n7,8,0\n".to_string(),
    };
    match client.cell(&corrupt).unwrap_err() {
        ServeError::Server { code, message } => {
            assert_eq!(code, ErrorCode::EvalFailed);
            assert!(message.contains("line 2: quoted"), "{message}");
        }
        other => panic!("expected structured quoting error, got {other:?}"),
    }
    client.shutdown().expect("shutdown");
    handle.join().expect("join");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn allow_list_rejects_escapes_and_undeclared_data_dir() {
    // No data dir: file sources are rejected outright.
    let (addr, handle) = spawn_server(ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let err = client.cell(&file_cell("spam.csv", None, None)).unwrap_err();
    match err {
        ServeError::Server { code, message } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("data-dir"), "{message}");
        }
        other => panic!("expected server rejection, got {other:?}"),
    }
    client.shutdown().expect("shutdown");
    handle.join().expect("join");

    // With a data dir: traversal and absolute paths are rejected, and
    // the file never has to exist for the rejection to fire.
    let (dir, _) = data_dir_with_csv("escape");
    let (addr, handle) = spawn_server(ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr).expect("connect");
    for bad in ["../etc/passwd", "/etc/passwd", "a/../../b.csv", ""] {
        let err = client.cell(&file_cell(bad, None, None)).unwrap_err();
        match err {
            ServeError::Server { code, message } => {
                assert_eq!(code, ErrorCode::BadRequest, "{bad}");
                assert!(message.contains("relative"), "{bad}: {message}");
            }
            other => panic!("{bad}: expected server rejection, got {other:?}"),
        }
    }
    // A good request still works on the same connection afterwards.
    client
        .cell(&file_cell("spam.csv", None, None))
        .expect("good request");
    client.shutdown().expect("shutdown");
    handle.join().expect("join");
    std::fs::remove_dir_all(&dir).ok();
}
