//! Streaming dataset preparation.
//!
//! Every parsed source is prepared by one routine: a present
//! [`crate::pipeline::DataSource::File`] and every
//! [`crate::pipeline::DataSource::CsvText`] stream through the same
//! two-pass scatter. A file source has two outcomes:
//!
//! * **Absent file** → deterministic fallback to the synthetic
//!   Spambase generator (CI stays green offline; the caller consumes
//!   the *same* rng stream the `SyntheticSpambase` arm would).
//! * **Present file** → two streaming passes. Pass 1 counts rows and
//!   pins the checksum; the split permutation is then computed *up
//!   front* from the row count alone, so pass 2 can parse chunks in
//!   waves on the worker pool and scatter each row directly into its
//!   final train/test position. Peak extra memory is bounded by
//!   `max_inflight_chunks × chunk_rows` raw rows — the backpressure
//!   budget — while the destination matrices are exactly the
//!   preparation's output, so a dataset ~100× the resident Spambase
//!   size preps in bounded space.
//!
//! A `csv_text` source takes the same two passes over its in-memory
//! text, with the default chunk sizes.
//!
//! **Bit-identity.** The scatter reproduces in-memory preparation
//! exactly: the same `shuffled_indices` draw from the same rng state
//! decides the split, scattering row `idx[j]` to position `j`
//! reproduces `Dataset::select`'s row order, and the in-place scaler
//! applies the same per-element arithmetic as the copying transform.
//! `tests/ingest.rs` pins this with `to_bits` comparisons against a
//! `train_test_split` + `StandardScaler::fit_transform` replay, for
//! every chunk size.

use crate::error::SimError;
use crate::exec::{try_parallel_map, ExecPolicy};
use crate::pipeline::PreparedData;
use poisongame_data::scale::StandardScaler;
use poisongame_data::{DataError, Dataset, Label};
use poisongame_io::{
    parse_chunk, scan, ChunkReader, FileSource, IngestError, IngestLimits, ScanSummary,
    DEFAULT_CHUNK_ROWS, GENERIC_CSV,
};
use poisongame_linalg::rng::{shuffled_indices, Xoshiro256StarStar};
use poisongame_linalg::Matrix;
use std::io::{BufRead, BufReader, Read};

/// Default bound on chunks admitted to the parse fan-out at once —
/// the out-of-core memory budget in units of `chunk_rows` raw rows.
pub const DEFAULT_MAX_INFLIGHT_CHUNKS: usize = 4;

/// What a file source resolved to.
pub(crate) enum Loaded {
    /// The file was present — the preparation is already split and
    /// scaled.
    Prepared(PreparedData),
    /// The file is absent — generate this many synthetic rows.
    Fallback(usize),
}

/// Resolve a file source (see the module docs for the two outcomes).
/// `chunk_rows` and `max_inflight_chunks` only size the chunks and
/// waves (`None` takes the defaults); they never change the result.
#[allow(clippy::too_many_arguments)]
pub(crate) fn load_file(
    path: &str,
    checksum: Option<u64>,
    format_name: &str,
    chunk_rows: Option<usize>,
    max_inflight_chunks: Option<usize>,
    test_fraction: f64,
    rng: &mut Xoshiro256StarStar,
) -> Result<Loaded, SimError> {
    if chunk_rows == Some(0) {
        return Err(IngestError::ZeroChunkRows.into());
    }
    if max_inflight_chunks == Some(0) {
        return Err(IngestError::ZeroInflightChunks.into());
    }
    let format = poisongame_io::lookup_format(format_name)?;
    let source = FileSource::new(path, checksum, format);
    let limits = IngestLimits::default();
    // Pass 1: rows + checksum without materializing anything.
    let Some(scan) = source.scan_verified(&limits)? else {
        poisongame_io::telemetry::note_fallback(path);
        return Ok(Loaded::Fallback(format.fallback_rows));
    };
    prepare_stream(
        path,
        scan,
        // The file vanishing before pass 2 is corruption, not a
        // fallback: `prepare_stream` reports `None` as a changed
        // source.
        || Ok(source.open()?.map(BufReader::new)),
        format.feature_columns,
        chunk_rows.unwrap_or(DEFAULT_CHUNK_ROWS),
        max_inflight_chunks.unwrap_or(DEFAULT_MAX_INFLIGHT_CHUNKS),
        test_fraction,
        rng,
    )
    .map(Loaded::Prepared)
}

/// Prepare an inline `csv_text` document through the same two passes
/// as a file, reading it with the width-inferring `csv` format.
pub(crate) fn load_csv_text(
    text: &str,
    test_fraction: f64,
    rng: &mut Xoshiro256StarStar,
) -> Result<PreparedData, SimError> {
    // A `csv_text` document is complete — it cannot have been cut off
    // mid-write the way a file can — so its last row may lack a
    // newline. One chained `\n` terminates that row; a text that
    // already ends in a newline only gains a blank line, which the
    // reader skips.
    let bytes = || text.as_bytes().chain(&b"\n"[..]);
    let scan = scan(bytes(), &IngestLimits::default())?;
    prepare_stream(
        "csv_text",
        scan,
        || Ok(Some(bytes())),
        GENERIC_CSV.feature_columns,
        DEFAULT_CHUNK_ROWS,
        DEFAULT_MAX_INFLIGHT_CHUNKS,
        test_fraction,
        rng,
    )
}

/// The one scatter routine. `scan` is pass 1's summary of the source;
/// `reopen` yields the same bytes again for pass 2 (`None` means the
/// source disappeared in between). `rng` is consumed only by the split
/// draw, mirroring `train_test_split` exactly.
#[allow(clippy::too_many_arguments)]
fn prepare_stream<R: BufRead>(
    name: &str,
    scan: ScanSummary,
    reopen: impl FnOnce() -> Result<Option<R>, IngestError>,
    feature_columns: Option<usize>,
    chunk_rows: usize,
    max_inflight_chunks: usize,
    test_fraction: f64,
    rng: &mut Xoshiro256StarStar,
) -> Result<PreparedData, SimError> {
    let n = scan.rows;
    if n == 0 {
        return Err(IngestError::Empty.into());
    }
    // Replicate `train_test_split`'s validation and permutation draw
    // verbatim — same rejects, same rng consumption, same ordering.
    if !(0.0..1.0).contains(&test_fraction) || test_fraction == 0.0 || test_fraction.is_nan() {
        return Err(DataError::BadFraction {
            what: "test_fraction",
            value: test_fraction,
        }
        .into());
    }
    let n_test = (n as f64 * test_fraction).round() as usize;
    if n_test == 0 || n_test == n {
        return Err(DataError::DegenerateSplit.into());
    }
    let idx = shuffled_indices(n, rng);
    // Invert the permutation into a scatter map: source row r lands at
    // `dest[r]`. Test rows are `idx[..n_test]` in draw order, train
    // rows `idx[n_test..]` — exactly the row order `select` produces.
    #[derive(Clone, Copy)]
    enum Dest {
        Train(usize),
        Test(usize),
    }
    let mut dest = vec![Dest::Train(usize::MAX); n];
    for (j, &r) in idx[..n_test].iter().enumerate() {
        dest[r] = Dest::Test(j);
    }
    for (j, &r) in idx[n_test..].iter().enumerate() {
        dest[r] = Dest::Train(j);
    }
    let n_train = n - n_test;
    let changed = || -> SimError {
        IngestError::SourceChanged {
            source: name.to_string(),
        }
        .into()
    };
    // Pass 2: re-open and scatter bounded waves of parsed chunks into
    // their final positions.
    let Some(reader) = reopen()? else {
        return Err(changed());
    };
    let mut chunks = ChunkReader::new(reader, chunk_rows, IngestLimits::default())?;
    let policy = ExecPolicy::default();
    let gauge = &poisongame_io::telemetry::metrics().inflight;
    let mut cols = feature_columns;
    let mut train_x: Option<Matrix> = None;
    let mut test_x: Option<Matrix> = None;
    let mut train_y = vec![Label::Negative; n_train];
    let mut test_y = vec![Label::Negative; n_test];
    // The wave grows from chunks actually read, never from the
    // wire-supplied bound, so a huge `max_inflight_chunks` costs no
    // more than the source holds.
    let mut wave = Vec::new();
    loop {
        wave.clear();
        while wave.len() < max_inflight_chunks {
            match chunks.next_chunk()? {
                Some(chunk) => wave.push(chunk),
                None => break,
            }
        }
        if wave.is_empty() {
            break;
        }
        gauge.set(wave.len() as i64);
        // Parse fan-out through the shared worker pool; the lowest-
        // indexed error wins, as everywhere else in the harness.
        let parsed = try_parallel_map(&policy, &wave, |_, chunk| parse_chunk(chunk, cols));
        gauge.set(0);
        let parsed = parsed?;
        for (raw, chunk) in wave.iter().zip(&parsed) {
            let width = match cols {
                Some(c) => c,
                None => {
                    cols = Some(chunk.cols);
                    chunk.cols
                }
            };
            // Width-inferring formats parse a wave's chunks
            // concurrently, each pinning its own width from its first
            // row — so a ragged file whose arity changes exactly at a
            // chunk boundary yields internally-consistent chunks that
            // disagree with each other. Corrupt input is an error,
            // never a silent misalignment.
            if chunk.cols != width {
                return Err(IngestError::BadArity {
                    line: raw.line_numbers[0],
                    expected: width + 1,
                    found: chunk.cols + 1,
                }
                .into());
            }
            let (train_x, test_x) = (
                train_x.get_or_insert_with(|| Matrix::zeros(n_train, width)),
                test_x.get_or_insert_with(|| Matrix::zeros(n_test, width)),
            );
            for (i, row) in chunk.features.chunks_exact(width).enumerate() {
                let g = chunk.first_row + i;
                if g >= n {
                    // The file grew between passes.
                    return Err(changed());
                }
                match dest[g] {
                    Dest::Train(p) => {
                        train_x.row_mut(p).copy_from_slice(row);
                        train_y[p] = chunk.labels[i];
                    }
                    Dest::Test(p) => {
                        test_x.row_mut(p).copy_from_slice(row);
                        test_y[p] = chunk.labels[i];
                    }
                }
            }
        }
    }
    // The source must be byte-identical across the two passes — a
    // shrunk, grown or rewritten file would scatter rows of one
    // version through a split planned for another.
    let replay = chunks.summary();
    if replay.rows != n || replay.checksum != scan.checksum {
        return Err(changed());
    }
    let (Some(train_x), Some(test_x)) = (train_x, test_x) else {
        return Err(changed());
    };
    let mut train = Dataset::new(train_x, train_y)?;
    let mut test = Dataset::new(test_x, test_y)?;
    // Same fit as `StandardScaler::fit_transform` on the split
    // (identical rows in identical order), applied in place with
    // identical per-element arithmetic.
    let scaler = StandardScaler::fit(&train)?;
    scaler.transform_in_place(&mut train)?;
    scaler.transform_in_place(&mut test)?;
    Ok(PreparedData {
        train,
        test,
        scaler,
    })
}
