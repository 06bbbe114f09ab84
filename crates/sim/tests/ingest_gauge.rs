//! The `poisongame_io_inflight_chunks` gauge counts the chunks every
//! preparation in the process is reading and parsing right now, so
//! concurrent preparations add up instead of overwriting each other,
//! and a failing one gives its chunks back too. This is the only test
//! in its binary: no other preparation moves the process-wide gauge.

use poisongame_io::telemetry::metrics;
use poisongame_sim::exec::pool::hardware_threads;
use poisongame_sim::pipeline::{prepare_data, DataSource};
use std::sync::atomic::{AtomicBool, Ordering};

fn source(path: &std::path::Path) -> DataSource {
    DataSource::File {
        path: path.display().to_string(),
        checksum: None,
        format: "csv".to_string(),
        chunk_rows: Some(16),
        max_inflight_chunks: Some(2),
    }
}

#[test]
fn inflight_gauge_returns_to_zero_after_concurrent_and_failing_preparations() {
    let dir = std::env::temp_dir().join(format!("pg-ingest-gauge-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let good = dir.join("good.csv");
    let rows: String = (0..3000)
        .map(|i| format!("{i},{},{}\n", i * 7 % 13, i % 2))
        .collect();
    std::fs::write(&good, &rows).unwrap();
    // Fails in its last chunk, after the earlier chunks were admitted.
    let bad = dir.join("bad.csv");
    std::fs::write(&bad, format!("{rows}1,nope,0\n")).unwrap();

    let gauge = &metrics().inflight;
    assert_eq!(gauge.get(), 0);
    // Each of the three preparations holds at most min(2, threads)
    // chunks at once.
    let most = 3 * 2.min(hardware_threads()) as i64;
    let running = AtomicBool::new(true);
    std::thread::scope(|s| {
        let watcher = s.spawn(|| {
            while running.load(Ordering::Relaxed) {
                let now = gauge.get();
                assert!((0..=most).contains(&now), "gauge read {now}");
                std::thread::yield_now();
            }
        });
        let preparations: Vec<_> = [&good, &good, &bad]
            .into_iter()
            .map(|path| s.spawn(|| prepare_data(&source(path), 3, 0.3)))
            .collect();
        // Joined before any unwrap, so the watcher always stops.
        let results: Vec<_> = preparations.into_iter().map(|p| p.join()).collect();
        running.store(false, Ordering::Relaxed);
        watcher.join().unwrap();
        let results: Vec<_> = results.into_iter().map(|r| r.unwrap()).collect();
        assert!(results[0].is_ok() && results[1].is_ok());
        assert!(results[2].is_err());
    });
    assert_eq!(gauge.get(), 0);
    std::fs::remove_dir_all(&dir).ok();
}
