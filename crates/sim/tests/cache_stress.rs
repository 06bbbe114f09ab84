//! PrepCache under eviction-heavy load: a many-distinct-file-source
//! workload against tiny LRU bounds. Batch sweeps reuse one key and
//! never stress eviction; file sources make distinct keys cheap (every
//! path is its own key, and absent paths all fall back to the *same*
//! synthetic preparation), so this drives the cache through constant
//! churn while byte-identity of every result stays checkable.

use poisongame_data::synth::{spambase_like, SpambaseConfig};
use poisongame_linalg::Xoshiro256StarStar;
use poisongame_sim::engine::{prep_key, EvalEngine};
use poisongame_sim::pipeline::{DataSource, ExperimentConfig};
use rand::SeedableRng;
use std::path::PathBuf;

/// Small rows so the stress loop stays fast.
const ROWS: usize = 120;

fn small_file_config(path: &str, chunk_rows: Option<usize>) -> ExperimentConfig {
    ExperimentConfig {
        // Absent paths fall back to `rows = fallback_rows` of the
        // format — too big for a stress loop — so the synthetic-size
        // escape hatch is a real temp file for present sources and the
        // `csv` format's fallback otherwise. Here every path under
        // `/nonexistent` is absent and we shrink via synthetic compare
        // below, so use the synthetic source size for presents only.
        source: DataSource::File {
            path: path.to_string(),
            checksum: None,
            format: "csv".to_string(),
            chunk_rows,
            max_inflight_chunks: Some(1),
        },
        epochs: 10,
        ..ExperimentConfig::paper()
    }
}

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pg-cache-stress-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A real on-disk CSV with `ROWS` synthetic rows under a per-call
/// name, so present-file sources join the churn.
fn write_file(name: &str) -> String {
    let mut rng = Xoshiro256StarStar::seed_from_u64(99);
    let data = spambase_like(
        &SpambaseConfig {
            rows: ROWS,
            ..SpambaseConfig::default()
        },
        &mut rng,
    );
    let path = temp_dir().join(name);
    std::fs::write(&path, poisongame_data::csv::to_csv(&data)).unwrap();
    path.display().to_string()
}

#[test]
fn eviction_heavy_file_workload_stays_correct() {
    // Two real files plus a rotation of absent paths — every key
    // distinct, so a bound-1/bound-2 cache evicts almost every round.
    let file_a = write_file("stress-a.csv");
    let file_b = write_file("stress-b.csv");
    for capacity in [1usize, 2] {
        let engine = EvalEngine::new().bound_cache(capacity);
        let mut last = (0u64, 0u64, 0u64);
        // Reference results computed cold, once per distinct source.
        let ref_a = engine.prepare(&small_file_config(&file_a, None)).unwrap();
        let ref_b = engine
            .prepare(&small_file_config(&file_b, Some(17)))
            .unwrap();
        for round in 0..6 {
            // Rotate: present file A (whole), present file B
            // (chunked), then two absent paths distinct per round.
            let configs = [
                small_file_config(&file_a, None),
                small_file_config(&file_b, Some(17)),
                small_file_config(&format!("/nonexistent/pg-stress/{round}-x.csv"), None),
                small_file_config(&format!("/nonexistent/pg-stress/{round}-y.csv"), Some(64)),
            ];
            for config in &configs {
                let prepared = engine.prepare(config).unwrap();
                // Byte-identical results regardless of what was
                // evicted in between.
                match &config.source {
                    DataSource::File { path, .. } if *path == file_a => {
                        assert_eq!(prepared.data.content_digest(), ref_a.data.content_digest());
                    }
                    DataSource::File { path, .. } if *path == file_b => {
                        assert_eq!(prepared.data.content_digest(), ref_b.data.content_digest());
                    }
                    _ => {
                        // Absent paths: every fallback preps the same
                        // synthetic bytes under a different key.
                        assert_eq!(prepared.train().len() + prepared.test().len(), 4601);
                    }
                }
                // Counters are monotone and the bound holds at every
                // step.
                let stats = engine.cache_stats();
                let now = (stats.hits, stats.misses, stats.evictions);
                assert!(now.0 >= last.0 && now.1 >= last.1 && now.2 >= last.2);
                last = now;
                assert!(engine.cached_preparations() <= capacity);
            }
        }
        let stats = engine.cache_stats();
        // 2 cold refs + 6 rounds × 4 distinct-ish keys against a cache
        // of ≤ 2 slots: misses and evictions must both have fired many
        // times.
        assert!(stats.misses >= 12, "misses {}", stats.misses);
        assert!(stats.evictions >= 10, "evictions {}", stats.evictions);
    }
    std::fs::remove_file(&file_a).ok();
    std::fs::remove_file(&file_b).ok();
}

#[test]
fn distinct_paths_make_distinct_keys() {
    // The property the stress test leans on: path is part of the key.
    let keys: Vec<_> = (0..8)
        .map(|i| {
            prep_key(
                &DataSource::File {
                    path: format!("/nonexistent/pg-keys/{i}.csv"),
                    checksum: None,
                    format: "csv".to_string(),
                    chunk_rows: None,
                    max_inflight_chunks: None,
                },
                1,
                0.3,
            )
        })
        .collect();
    for (i, a) in keys.iter().enumerate() {
        for b in keys.iter().skip(i + 1) {
            assert_ne!(a, b);
        }
    }
}

/// Unpinned file sources are keyed by the file's (len, mtime): a
/// rewrite in place — same path, same byte length, new mtime — misses
/// the cache and prepares the new rows, and a file that appears after
/// its absent-path fallback was cached is prepared from disk.
#[test]
fn rewritten_or_created_unpinned_file_is_prepared_afresh() {
    use poisongame_sim::pipeline::prepare_data;
    use std::time::{Duration, SystemTime};

    let path = temp_dir().join("rewrite.csv");
    let _ = std::fs::remove_file(&path);
    let config = small_file_config(&path.display().to_string(), None);
    let digest_now = || {
        prepare_data(&config.source, config.seed, config.test_fraction)
            .unwrap()
            .content_digest()
    };
    let engine = EvalEngine::new();

    // Absent: the synthetic fallback is cached under the absent marker.
    let fallback = engine.prepare(&config).unwrap();
    assert_eq!(fallback.data.content_digest(), digest_now());

    // The file appears: a new key, prepared from its rows.
    let original = std::fs::read_to_string(write_file("rewrite.csv")).unwrap();
    let stamped = |text: &str, at: SystemTime| {
        std::fs::write(&path, text).unwrap();
        std::fs::File::options()
            .write(true)
            .open(&path)
            .unwrap()
            .set_modified(at)
            .unwrap();
    };
    let t0 = SystemTime::UNIX_EPOCH + Duration::from_secs(1_700_000_000);
    stamped(&original, t0);
    let first = engine.prepare(&config).unwrap();
    assert_eq!(engine.cache_stats().misses, 2);
    assert_ne!(first.data.content_digest(), fallback.data.content_digest());
    assert_eq!(first.data.content_digest(), digest_now());
    // Unchanged file: a hit on the same preparation.
    let again = engine.prepare(&config).unwrap();
    assert!(std::sync::Arc::ptr_eq(&first.data, &again.data));
    assert_eq!(engine.cache_stats().hits, 1);

    // Rewrite in place with the same byte length and a new mtime: only
    // the mtime tells the key the rows changed.
    let rewritten = original.replacen('0', "1", 1);
    assert_eq!(rewritten.len(), original.len());
    assert_ne!(rewritten, original);
    stamped(&rewritten, t0 + Duration::from_secs(10));
    let second = engine.prepare(&config).unwrap();
    assert_eq!(engine.cache_stats().misses, 3);
    assert_eq!(second.data.content_digest(), digest_now());
    assert_ne!(second.data.content_digest(), first.data.content_digest());
    let _ = std::fs::remove_file(&path);
}
