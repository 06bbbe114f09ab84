//! Seeded differential fuzz of the one CSV path: every generated file
//! must prepare to the same bits, or fail with the same error, under
//! every chunk setting — and like the same bytes sent as `csv_text`
//! when they end in a newline. Cases mix valid rows with CRLF, blank
//! and `#` lines, padded and quoted fields, bad floats, non-finite
//! values, ragged arity and a missing final newline.
//!
//! This is the only test in its binary, so it can also check that a
//! huge `max_inflight_chunks` never starts a thread: the process keeps
//! the threads it had once the worker pool was up.

use poisongame_linalg::Xoshiro256StarStar;
use poisongame_sim::exec::pool::WorkerPool;
use poisongame_sim::pipeline::{prepare_data, DataSource, PreparedData};
use poisongame_sim::SimError;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

const CASES: u64 = 120;
const CHUNK_ROWS: [usize; 4] = [1, 3, 7, 4096];
const INFLIGHT: [usize; 3] = [1, 2, 1_000_000_000_000_000];

struct Gen(Xoshiro256StarStar);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0.next_raw() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn float(&mut self) -> String {
        let x = (self.0.next_f64() - 0.5) * 10f64.powi(self.below(7) as i32 - 3);
        match self.below(4) {
            0 => format!("{x}"),
            1 => format!("{x:.3}"),
            2 => format!("{x:e}"),
            _ => format!("{}", x.round() as i64),
        }
    }

    /// One case: the file's text.
    fn case(&mut self) -> String {
        let width = 1 + self.below(4) as usize;
        let rows = 2 + self.below(299) as usize;
        // Half the cases are clean; the rest carry one or two faults.
        let faults = if self.chance(50) {
            0
        } else {
            1 + self.below(2)
        };
        let fault_rows: Vec<usize> = (0..faults)
            .map(|_| self.below(rows as u64) as usize)
            .collect();
        let mut text = String::new();
        for row in 0..rows {
            while self.chance(8) {
                text.push_str(if self.chance(50) {
                    "# note, 1,2\n"
                } else {
                    "  \n"
                });
            }
            let mut fields: Vec<String> = (0..width).map(|_| self.float()).collect();
            fields.push(match self.below(5) {
                0 => "2.5".to_string(),
                1 | 2 => "1".to_string(),
                _ => "0".to_string(),
            });
            if self.chance(5) {
                fields[0] = format!(" {} ", fields[0]);
            }
            if fault_rows.contains(&row) {
                let at = self.below(fields.len() as u64) as usize;
                match self.below(6) {
                    0 => fields[at] = format!("\"{}\"", fields[at]),
                    1 => fields[at] = "abc".to_string(),
                    2 => fields[width] = ["nan", "inf", "-inf"][self.below(3) as usize].to_string(),
                    3 => fields[at] = "inf".to_string(),
                    4 => {
                        fields.pop();
                    }
                    _ => fields.push("1".to_string()),
                }
            }
            text.push_str(&fields.join(","));
            text.push_str(if self.chance(20) { "\r\n" } else { "\n" });
        }
        if self.chance(10) {
            let end = text.trim_end_matches(['\r', '\n']).len();
            text.truncate(end);
        }
        text
    }
}

/// A preparation's exact outcome: every feature's bits, the labels and
/// the scaler (whose `Debug` prints each float's shortest round-trip
/// form), or the error with its variant, line and fields.
fn outcome(result: Result<PreparedData, SimError>) -> Result<(Vec<u64>, String), String> {
    match result {
        Ok(p) => {
            let mut bits = Vec::new();
            for split in [&p.train, &p.test] {
                bits.push(split.len() as u64);
                bits.extend(split.features().as_slice().iter().map(|v| v.to_bits()));
                bits.extend(split.labels().iter().map(|l| *l as u64));
            }
            Ok((bits, format!("{:?}", p.scaler)))
        }
        Err(e) => Err(format!("{e:?}")),
    }
}

fn file(path: &Path, chunk_rows: usize, max_inflight_chunks: usize) -> DataSource {
    DataSource::File {
        path: path.display().to_string(),
        checksum: None,
        format: "csv".to_string(),
        chunk_rows: Some(chunk_rows),
        max_inflight_chunks: Some(max_inflight_chunks),
    }
}

/// Clears its flag when dropped, on unwinding too.
struct Stop<'a>(&'a AtomicBool);

impl Drop for Stop<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Relaxed);
    }
}

fn thread_count() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

#[test]
fn every_chunk_setting_gives_the_same_bits_or_the_same_error() {
    let dir = std::env::temp_dir().join(format!("pg-ingest-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("case.csv");
    let mut gen = Gen(Xoshiro256StarStar::new(0x05ee_dc5f));

    // The watcher samples the process's thread count; `most` is what it
    // saw while the huge-bound preparations ran, `baseline` what the
    // process had with the pool up and the watcher running.
    let running = AtomicBool::new(true);
    let most = AtomicUsize::new(0);
    let watching = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| {
            while running.load(Ordering::Relaxed) {
                if watching.load(Ordering::Relaxed) {
                    most.fetch_max(thread_count().unwrap_or(0), Ordering::Relaxed);
                }
                std::thread::yield_now();
            }
        });
        // Stops the watcher even when an assertion below fails, so the
        // scope can join it.
        let _stop = Stop(&running);
        WorkerPool::global();
        let baseline = thread_count();
        let (mut ok, mut failed) = (0, 0);
        for case in 0..CASES {
            let text = gen.case();
            std::fs::write(&path, &text).unwrap();
            let reference = outcome(prepare_data(&file(&path, 4096, 4), case, 0.3));
            for chunk_rows in CHUNK_ROWS {
                for inflight in INFLIGHT {
                    let huge = inflight > 1_000;
                    watching.store(huge, Ordering::Relaxed);
                    let got = outcome(prepare_data(&file(&path, chunk_rows, inflight), case, 0.3));
                    watching.store(false, Ordering::Relaxed);
                    assert!(
                        got == reference,
                        "case {case}, chunk_rows {chunk_rows}, max_inflight_chunks {inflight}: \
                         {:?} != {:?}\n{text}",
                        got.as_ref().map(|_| "Ok").map_err(|e| e.as_str()),
                        reference.as_ref().map(|_| "Ok").map_err(|e| e.as_str()),
                    );
                }
            }
            if text.ends_with('\n') {
                let inline = outcome(prepare_data(&DataSource::CsvText { text }, case, 0.3));
                assert!(
                    inline == reference,
                    "case {case}: csv_text differs from the file"
                );
            }
            match reference {
                Ok(_) => ok += 1,
                Err(_) => failed += 1,
            }
        }
        // Both outcomes must be well represented for the fuzz to mean
        // anything.
        assert!(
            ok >= CASES / 4 && failed >= CASES / 4,
            "{ok} ok, {failed} failed"
        );
        if let Some(baseline) = baseline {
            let most = most.load(Ordering::Relaxed);
            assert!(most <= baseline, "{most} threads, {baseline} before");
        }
    });
    std::fs::remove_dir_all(&dir).ok();
}
