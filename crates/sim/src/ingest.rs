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
//! * **Present file** → two streaming passes over checkpointed
//!   segments. Pass 1 counts rows, pins the checksum and records a
//!   checkpoint (byte offset, line, row, running hash) at every
//!   `chunk_rows` boundary, plus the first row's width. The split
//!   permutation is then computed *up front* from the row count alone.
//!   Pass 2 reads the segments in parallel on the worker pool, each
//!   from its own reader opened at its checkpoint: it checks that its
//!   bytes end exactly at the next checkpoint (the last one at pass
//!   1's end), parses them at the pinned width, and scatters each row
//!   straight into its final train/test position. At most
//!   `max_inflight_chunks` segments (and no more than the pool has
//!   threads) are in flight at once, each holding one raw and one
//!   parsed chunk of `chunk_rows` rows; the destination matrices are
//!   exactly the preparation's output, so a dataset ~100× the resident
//!   Spambase size preps in bounded extra space.
//!
//! A `csv_text` source takes the same two passes over its in-memory
//! text, with the default chunk sizes; its segments read slices of the
//! text.
//!
//! **Errors.** Every segment parses at the width pass 1 pinned (the
//! format's, or the first data row's for `csv`), and the lowest
//! failing segment's error wins, so the first error in file order is
//! reported whatever the chunk settings. Bytes that differ between the
//! passes — rewritten, truncated, grown — are
//! [`IngestError::SourceChanged`].
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
use crate::exec::{pool, try_parallel_map, ExecPolicy};
use crate::pipeline::PreparedData;
use poisongame_data::scale::StandardScaler;
use poisongame_data::{DataError, Dataset, Label};
use poisongame_io::{
    parse_chunk, scan_checkpoints, Checkpoint, Checkpoints, ChunkReader, FileSource, IngestError,
    IngestLimits, ScanSummary, DEFAULT_CHUNK_ROWS, GENERIC_CSV,
};
use poisongame_linalg::rng::{shuffled_indices, Xoshiro256StarStar};
use poisongame_linalg::Matrix;
use std::io::{BufRead, Read};
use std::sync::Mutex;

/// Default bound on segments read and parsed at once — the out-of-core
/// memory budget in units of `chunk_rows` rows.
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
/// `chunk_rows` sizes the checkpointed segments and
/// `max_inflight_chunks` caps how many are in flight at once (`None`
/// takes the defaults); they never change the result, errors
/// included.
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
    // Pass 1: rows, checksum and checkpoints without materializing
    // anything.
    let Some((scan, checkpoints)) =
        source.scan_checkpoints(chunk_rows.unwrap_or(DEFAULT_CHUNK_ROWS), &limits)?
    else {
        poisongame_io::telemetry::note_fallback(path);
        return Ok(Loaded::Fallback(format.fallback_rows));
    };
    prepare_stream(
        path,
        scan,
        &checkpoints,
        // The file vanishing before pass 2 is corruption, not a
        // fallback: `prepare_stream` reports `None` as a changed
        // source.
        |offset, capacity| source.open_at(offset, capacity),
        format.feature_columns,
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
    // reader skips. `from(offset)` is that stream from `offset` on.
    let text = text.as_bytes();
    let from = |offset: u64| {
        let offset = usize::try_from(offset).unwrap_or(usize::MAX);
        let newline = &b"\n"[offset.saturating_sub(text.len()).min(1)..];
        text[offset.min(text.len())..].chain(newline)
    };
    let (scan, checkpoints) =
        scan_checkpoints(from(0), DEFAULT_CHUNK_ROWS, &IngestLimits::default())?;
    prepare_stream(
        "csv_text",
        scan,
        &checkpoints,
        |offset, _| Ok(Some(from(offset))),
        GENERIC_CSV.feature_columns,
        DEFAULT_MAX_INFLIGHT_CHUNKS,
        test_fraction,
        rng,
    )
}

/// The one scatter routine. `scan` and `checkpoints` are pass 1's
/// record of the source; `open_at(offset, capacity)` yields the
/// source's bytes again from `offset` on for pass 2, buffering at most
/// `capacity` bytes (`None` means the source disappeared in between).
/// `rng` is consumed only by the split draw, mirroring
/// `train_test_split` exactly.
#[allow(clippy::too_many_arguments)]
fn prepare_stream<R: BufRead>(
    name: &str,
    scan: ScanSummary,
    checkpoints: &Checkpoints,
    open_at: impl Fn(u64, usize) -> Result<Option<R>, IngestError> + Sync,
    feature_columns: Option<usize>,
    max_inflight_chunks: usize,
    test_fraction: f64,
    rng: &mut Xoshiro256StarStar,
) -> Result<PreparedData, SimError> {
    let n = scan.rows;
    // A source with rows has a first row, so pass 1 recorded its width.
    let Some(width) = feature_columns
        .or(checkpoints.first_width)
        .filter(|_| n > 0)
    else {
        return Err(IngestError::Empty.into());
    };
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
    // Every valid row of `width` features holds at least 2·width + 2
    // bytes, so the output is only allocated when the source could
    // fill it. Otherwise some row fails to parse: the segments still
    // run, to find the first such row, but scatter nothing — a first
    // row far wider than the rest cannot allocate more than the source
    // holds.
    /// The output rows, filled by segments in any order.
    struct Splits {
        train_x: Matrix,
        test_x: Matrix,
        train_y: Vec<Label>,
        test_y: Vec<Label>,
    }
    let fits = width > 0
        && n.checked_mul(2 * width + 2)
            .is_some_and(|least| least as u64 <= scan.bytes);
    let splits = fits.then(|| {
        Mutex::new(Splits {
            train_x: Matrix::zeros(n_train, width),
            test_x: Matrix::zeros(n_test, width),
            train_y: vec![Label::Negative; n_train],
            test_y: vec![Label::Negative; n_test],
        })
    });
    let starts = &checkpoints.starts;
    // Pass 2: one task per segment. The lowest failing segment's error
    // wins, as everywhere else in the harness.
    let segment = |i: usize, start: &Checkpoint| -> Result<(), SimError> {
        let _admitted = poisongame_io::telemetry::admit_chunk();
        let next = starts.get(i + 1);
        let end = next.map_or(scan.bytes, |next| next.offset);
        let span = usize::try_from(end.saturating_sub(start.offset)).unwrap_or(usize::MAX);
        let Some(reader) = open_at(start.offset, span)? else {
            return Err(changed());
        };
        let mut chunks = ChunkReader::resume(
            reader,
            checkpoints.chunk_rows,
            IngestLimits::default(),
            *start,
        )?;
        // Rounded up to a power of two: segments differ in length by a
        // few bytes, and equal reservations let each one reuse the
        // space its predecessor on the same thread freed.
        chunks.reserve_text(span.checked_next_power_of_two().unwrap_or(span));
        // Pass 1 read these bytes cleanly, so failing to read them
        // again, a chunk that does not end at the next checkpoint, or a
        // last chunk that does not end where pass 1 ended is reported
        // as a changed source. This is checked before parsing, so a
        // changed source is never reported as a parse error.
        let chunk = chunks.next_chunk().ok().flatten().ok_or_else(changed)?;
        let intact = match next {
            Some(next) => chunks.checkpoint() == *next,
            None => matches!(chunks.next_chunk(), Ok(None)) && chunks.summary() == scan,
        };
        if !intact {
            return Err(changed());
        }
        let parsed = parse_chunk(&chunk, Some(width))?;
        drop(chunk);
        if let Some(splits) = &splits {
            let mut splits = splits.lock().unwrap_or_else(|e| e.into_inner());
            let Splits {
                train_x,
                test_x,
                train_y,
                test_y,
            } = &mut *splits;
            let rows = parsed.features.chunks_exact(width).zip(&parsed.labels);
            for (g, (row, &label)) in (parsed.first_row..).zip(rows) {
                match dest[g] {
                    Dest::Train(p) => {
                        train_x.row_mut(p).copy_from_slice(row);
                        train_y[p] = label;
                    }
                    Dest::Test(p) => {
                        test_x.row_mut(p).copy_from_slice(row);
                        test_y[p] = label;
                    }
                }
            }
        }
        Ok(())
    };
    // The participant cap comes from the wire, so it is clamped to the
    // pool: a huge `max_inflight_chunks` costs no more than the default.
    let policy = ExecPolicy::with_threads(max_inflight_chunks.min(pool::hardware_threads()));
    try_parallel_map(&policy, starts, segment)?;
    // Every segment parsed, so every row had `width` features and the
    // source filled its output — unless its bytes changed in a way
    // that kept each segment's hash, which the checks above rule out.
    let Some(splits) = splits else {
        return Err(changed());
    };
    let Splits {
        train_x,
        test_x,
        train_y,
        test_y,
    } = splits.into_inner().unwrap_or_else(|e| e.into_inner());
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Twelve two-feature rows: three 4-row segments.
    fn rows() -> String {
        (0..12)
            .map(|i| format!("{i},{},{}\n", i * 3, i % 2))
            .collect()
    }

    /// Pass 1 over `before`, pass 2 over `after`, at `max_inflight`.
    fn prepare_changed(
        before: &str,
        after: &str,
        max_inflight: usize,
    ) -> Result<PreparedData, SimError> {
        let (scan, checkpoints) =
            scan_checkpoints(before.as_bytes(), 4, &IngestLimits::default()).unwrap();
        let after = after.as_bytes();
        let open_at = |offset: u64, _| Ok(Some(after.get(offset as usize..).unwrap_or(&[])));
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        prepare_stream(
            "changed.csv",
            scan,
            &checkpoints,
            open_at,
            None,
            max_inflight,
            0.25,
            &mut rng,
        )
    }

    fn assert_changed(before: &str, after: &str) {
        for max_inflight in [1, 2, 8] {
            assert_eq!(
                prepare_changed(before, after, max_inflight).unwrap_err(),
                SimError::Ingest(IngestError::SourceChanged {
                    source: "changed.csv".to_string()
                }),
                "{after:?} at max_inflight {max_inflight}"
            );
        }
    }

    #[test]
    fn unchanged_source_prepares() {
        let text = rows();
        let prepared = prepare_changed(&text, &text, 2).unwrap();
        assert_eq!(prepared.train.len() + prepared.test.len(), 12);
    }

    #[test]
    fn same_length_byte_flip_in_a_middle_segment_is_source_changed() {
        // Row 6 ("5,15,1") sits in the second of three segments; the
        // flip keeps it a valid row of the same length.
        let text = rows();
        let after = text.replacen("5,15,1", "5,16,1", 1);
        assert_eq!(after.len(), text.len());
        assert_changed(&text, &after);
    }

    #[test]
    fn truncated_last_row_is_source_changed() {
        let text = rows();
        // Cut mid-row, and cut just its newline.
        assert_changed(&text, &text[..text.len() - 3]);
        assert_changed(&text, &text[..text.len() - 1]);
    }

    #[test]
    fn appended_row_is_source_changed() {
        let text = rows();
        assert_changed(&text, &format!("{text}12,36,0\n"));
    }

    #[test]
    fn inserted_comment_line_is_source_changed() {
        let text = rows();
        for at in ["0,0,0\n", "5,15,1\n", "11,33,1\n"] {
            let after = text.replacen(at, &format!("{at}# inserted\n"), 1);
            assert_changed(&text, &after);
        }
        assert_changed(&text, &format!("# inserted\n{text}"));
    }
}
