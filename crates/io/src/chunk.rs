//! Strict streaming CSV reading in fixed-size row chunks.
//!
//! [`ChunkReader`] pulls UCI-Spambase-layout CSV (`f_1,…,f_d,label`,
//! no header) off any [`BufRead`] source one bounded chunk at a time —
//! the whole file is never resident, so out-of-core preparation can
//! run over datasets far larger than memory. The reader folds every
//! raw byte it consumes into an FNV-1a [`ContentHash`] as a side
//! effect, so one streaming pass yields both the parsed rows *and* the
//! checksum a [`crate::FileSource`] validates against. A
//! [`scan_checkpoints`] pass also records a [`Checkpoint`] at every
//! chunk boundary, from which [`ChunkReader::resume`] reads any chunk
//! on its own — the parallel second pass of an out-of-core
//! preparation.
//!
//! This is the workspace's one CSV parser. Blank lines and `#`
//! comments are skipped, fields are trimmed, and the last field is the
//! label (any finite non-zero value is positive). It is strict: CSV
//! quoting is rejected (the Spambase layout has none), physical lines
//! beyond [`IngestLimits::max_line_bytes`] are rejected up front (the
//! ingestion analogue of the serve tier's frame cap), and a final data
//! row without a terminating newline is rejected as a truncated
//! source.

use crate::error::IngestError;
use poisongame_data::cache::ContentHash;
use poisongame_data::Label;
use std::io::BufRead;

/// Default cap on one physical line, in bytes. A real Spambase row is
/// ~2 KB even at full 17-significant-digit float precision; one
/// megabyte leaves three orders of magnitude of headroom while still
/// bounding what a corrupt (newline-less) source can make the reader
/// buffer.
pub const DEFAULT_MAX_LINE_BYTES: usize = 1 << 20;

/// Default rows per chunk for callers that stream without an explicit
/// chunk size (a file source with no `chunk_rows`, every `csv_text`
/// source, and the [`scan`] pass).
pub const DEFAULT_CHUNK_ROWS: usize = 4096;

/// Structural limits enforced while reading, before any field parsing.
#[derive(Debug, Clone)]
pub struct IngestLimits {
    /// Longest accepted physical line in bytes (newline excluded).
    pub max_line_bytes: usize,
}

impl Default for IngestLimits {
    fn default() -> Self {
        Self {
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
        }
    }
}

/// One chunk of raw (unparsed) data rows, ready to cross a worker-pool
/// boundary for parallel parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawChunk {
    /// The data rows, trimmed, newline-joined (comments and blank
    /// lines already stripped).
    pub text: String,
    /// The 1-based physical line number of each row, for error
    /// reporting that points at the real file.
    pub line_numbers: Vec<usize>,
    /// Global index of this chunk's first data row (0-based).
    pub first_row: usize,
}

impl RawChunk {
    /// Number of data rows in the chunk.
    pub fn rows(&self) -> usize {
        self.line_numbers.len()
    }
}

/// What one full streaming pass observed: the row count the split
/// planner needs, plus the byte count and checksum that pin the
/// source's identity between passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanSummary {
    /// Data rows (blank lines and comments excluded).
    pub rows: usize,
    /// Raw bytes consumed, newlines included.
    pub bytes: u64,
    /// FNV-1a hash of every raw byte, in order — equal to
    /// [`checksum_bytes`] of the whole source.
    pub checksum: u64,
}

/// A reader's position between two chunks: everything a
/// [`ChunkReader::resume`] needs to carry on from there as if it had
/// read the source from the start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Raw bytes consumed before this point.
    pub offset: u64,
    /// Physical lines consumed before this point.
    pub line: usize,
    /// Data rows consumed before this point (the global index of the
    /// next row).
    pub row: usize,
    /// The running FNV-1a state over the first `offset` bytes.
    pub hash: ContentHash,
}

/// What a checkpointed scan records besides its [`ScanSummary`]: one
/// [`Checkpoint`] at the start of every chunk, so a second pass can
/// read and parse the chunks independently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoints {
    /// Data rows per chunk (the last chunk may hold fewer).
    pub chunk_rows: usize,
    /// The start of each chunk, in source order; empty for a source
    /// without data rows.
    pub starts: Vec<Checkpoint>,
    /// Feature columns of the first data row (its field count less
    /// the label) — the width a width-inferring format pins for every
    /// chunk. `None` for a source without data rows.
    pub first_width: Option<usize>,
}

/// FNV-1a checksum of a byte slice — the value to pin in a file
/// source's `checksum` field (and what [`ScanSummary::checksum`]
/// reports after a full pass).
pub fn checksum_bytes(bytes: &[u8]) -> u64 {
    ContentHash::new().bytes(bytes).finish()
}

/// A streaming chunked reader over Spambase-layout CSV.
///
/// Each physical line is hashed and its end found in one loop over the
/// source's buffered bytes; a line is only copied when it straddles two
/// buffer fills.
///
/// # Example
///
/// ```
/// use poisongame_io::{ChunkReader, IngestLimits, parse_chunk};
///
/// let text = "0.5,1.5,1\n# comment\n2.5,3.5,0\n4.5,5.5,1\n";
/// let mut reader = ChunkReader::new(text.as_bytes(), 2, IngestLimits::default()).unwrap();
/// let chunk = reader.next_chunk().unwrap().unwrap();
/// assert_eq!(chunk.rows(), 2);
/// assert_eq!(chunk.line_numbers, vec![1, 3]);
/// let parsed = parse_chunk(&chunk, None).unwrap();
/// assert_eq!(parsed.cols, 2);
/// let last = reader.next_chunk().unwrap().unwrap();
/// assert_eq!(last.first_row, 2);
/// assert!(reader.next_chunk().unwrap().is_none());
/// assert_eq!(reader.summary().rows, 3);
/// ```
#[derive(Debug)]
pub struct ChunkReader<R> {
    reader: R,
    chunk_rows: usize,
    /// A partial line that straddles two buffer fills.
    spill: Vec<u8>,
    /// Bytes to reserve for the next chunk's text.
    text_reserve: usize,
    at: Cursor,
}

/// Everything a [`ChunkReader`] knows about the lines behind it, kept
/// apart from the source so a line borrowed from the source's buffer
/// can be accounted without a copy.
#[derive(Debug)]
struct Cursor {
    limits: IngestLimits,
    /// Physical lines consumed so far (1-based numbering flows from
    /// this).
    line: usize,
    /// Data rows emitted so far.
    row: usize,
    bytes: u64,
    hash: ContentHash,
    first_width: Option<usize>,
    /// Bytes consumed since the last telemetry flush.
    unreported_bytes: u64,
    done: bool,
}

impl Cursor {
    /// Account for one physical line — through its `\n` when
    /// terminated — whose bytes the hash already covers, appending it
    /// to `chunk` when it is a data row.
    fn take_line(
        &mut self,
        raw: &[u8],
        chunk: &mut RawChunk,
        collect: bool,
    ) -> Result<(), IngestError> {
        self.line += 1;
        self.bytes += raw.len() as u64;
        self.unreported_bytes += raw.len() as u64;
        let (content, terminated) = match raw.split_last() {
            // CRLF sources are accepted: the carriage return is line
            // framing, not row content (it still counts toward the
            // checksum, which covers raw bytes).
            Some((&b'\n', stripped)) => (stripped.strip_suffix(b"\r").unwrap_or(stripped), true),
            _ => (raw, false),
        };
        if content.len() > self.limits.max_line_bytes {
            self.done = true;
            return Err(IngestError::LineTooLong {
                line: self.line,
                bytes: content.len(),
                cap: self.limits.max_line_bytes,
            });
        }
        // The cap check runs on raw bytes first: a bounded read may
        // stop mid-UTF-8-sequence on an over-cap line, and that must
        // report LineTooLong, not a spurious encoding error.
        let content = std::str::from_utf8(content)
            .map_err(|_| IngestError::Read("stream did not contain valid UTF-8".to_string()))?;
        let trimmed = content.trim();
        let is_data = !(trimmed.is_empty() || trimmed.starts_with('#'));
        if !terminated {
            // Last line of the source. A trailing comment or stray
            // whitespace is fine; a data row without its newline means
            // the source was cut mid-record.
            self.done = true;
            return if is_data {
                Err(IngestError::UnterminatedRow { line: self.line })
            } else {
                Ok(())
            };
        }
        if is_data {
            self.first_width
                .get_or_insert_with(|| trimmed.bytes().filter(|&b| b == b',').count());
            self.row += 1;
            chunk.line_numbers.push(self.line);
            if collect {
                chunk.text.push_str(trimmed);
                chunk.text.push('\n');
            }
        }
        Ok(())
    }
}

impl<R: BufRead> ChunkReader<R> {
    /// A reader emitting at most `chunk_rows` data rows per chunk.
    ///
    /// # Errors
    ///
    /// Returns [`IngestError::ZeroChunkRows`] for `chunk_rows == 0`.
    pub fn new(reader: R, chunk_rows: usize, limits: IngestLimits) -> Result<Self, IngestError> {
        let start = Checkpoint {
            offset: 0,
            line: 0,
            row: 0,
            hash: ContentHash::new(),
        };
        Self::resume(reader, chunk_rows, limits, start)
    }

    /// A reader that carries on from `from`: `reader` must yield the
    /// source's bytes from `from.offset` on. Line numbers, row indices
    /// and the running checksum continue from the checkpoint, so the
    /// chunks and [`ChunkReader::summary`] equal those of a reader that
    /// started at the beginning.
    ///
    /// # Errors
    ///
    /// Returns [`IngestError::ZeroChunkRows`] for `chunk_rows == 0`.
    pub fn resume(
        reader: R,
        chunk_rows: usize,
        limits: IngestLimits,
        from: Checkpoint,
    ) -> Result<Self, IngestError> {
        if chunk_rows == 0 {
            return Err(IngestError::ZeroChunkRows);
        }
        Ok(Self {
            reader,
            chunk_rows,
            spill: Vec::new(),
            text_reserve: 0,
            at: Cursor {
                limits,
                line: from.line,
                row: from.row,
                bytes: from.offset,
                hash: from.hash,
                first_width: None,
                unreported_bytes: 0,
                done: false,
            },
        })
    }

    /// The next chunk of raw data rows, or `None` at end of input.
    ///
    /// # Errors
    ///
    /// Returns [`IngestError::LineTooLong`] past the byte cap,
    /// [`IngestError::UnterminatedRow`] when the final data row lacks
    /// a newline, and [`IngestError::Read`] on I/O failure.
    pub fn next_chunk(&mut self) -> Result<Option<RawChunk>, IngestError> {
        self.advance(true)
    }

    /// Consume the next chunk's worth of rows without materializing
    /// them — the counting pass of an out-of-core preparation. Returns
    /// the number of rows skimmed, `None` at end of input.
    ///
    /// # Errors
    ///
    /// Same as [`ChunkReader::next_chunk`].
    pub fn skim_chunk(&mut self) -> Result<Option<usize>, IngestError> {
        Ok(self.advance(false)?.map(|chunk| chunk.rows()))
    }

    /// Reserve room for `bytes` bytes of row text in the next chunk.
    /// A chunk's text never exceeds the raw bytes its lines span, so a
    /// caller that knows that span — pass 2 of a checkpointed scan does
    /// — saves the text's regrowth and holds one buffer of exactly that
    /// size.
    pub fn reserve_text(&mut self, bytes: usize) {
        self.text_reserve = bytes;
    }

    fn advance(&mut self, collect: bool) -> Result<Option<RawChunk>, IngestError> {
        let mut chunk = RawChunk {
            text: String::with_capacity(std::mem::take(&mut self.text_reserve)),
            line_numbers: Vec::new(),
            first_row: self.at.row,
        };
        // A line holds at most the cap plus CRLF framing; one byte
        // more proves the cap is exceeded. An over-cap line stops being
        // read there, so a corrupt newline-less source can never make
        // the reader buffer it.
        let stop = self.at.limits.max_line_bytes.saturating_add(2);
        while chunk.rows() < self.chunk_rows && !self.at.done {
            let buffered = self
                .reader
                .fill_buf()
                .map_err(|e| IngestError::Read(e.to_string()))?;
            if buffered.is_empty() {
                // End of input; a spilled line is the unterminated
                // last line.
                self.at.done = true;
                if !self.spill.is_empty() {
                    let taken = self.at.take_line(&self.spill, &mut chunk, collect);
                    self.spill.clear();
                    taken?;
                }
                break;
            }
            let room = stop.saturating_add(1).saturating_sub(self.spill.len());
            let window = &buffered[..buffered.len().min(room)];
            let (hash, n) = self.at.hash.bytes_through(window, b'\n');
            self.at.hash = hash;
            let terminated = window[n - 1] == b'\n';
            let taken = if terminated && self.spill.is_empty() {
                // The whole line sits in the buffer: no copy.
                self.at.take_line(&buffered[..n], &mut chunk, collect)
            } else {
                self.spill.extend_from_slice(&window[..n]);
                if terminated || self.spill.len() > stop {
                    let taken = self.at.take_line(&self.spill, &mut chunk, collect);
                    self.spill.clear();
                    taken
                } else {
                    Ok(())
                }
            };
            self.reader.consume(n);
            taken?;
        }
        self.flush_bytes();
        Ok((chunk.rows() > 0).then_some(chunk))
    }

    fn flush_bytes(&mut self) {
        if self.at.unreported_bytes > 0 {
            crate::telemetry::metrics()
                .bytes
                .add(self.at.unreported_bytes);
            self.at.unreported_bytes = 0;
        }
    }

    /// What the reader has observed so far; after the stream is
    /// drained this is the full-pass summary.
    pub fn summary(&self) -> ScanSummary {
        ScanSummary {
            rows: self.at.row,
            bytes: self.at.bytes,
            checksum: self.at.hash.finish(),
        }
    }

    /// The reader's position: between chunks, a point a
    /// [`ChunkReader::resume`] can carry on from.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            offset: self.at.bytes,
            line: self.at.line,
            row: self.at.row,
            hash: self.at.hash,
        }
    }
}

/// One full structural pass over a source: count data rows, enforce
/// the line cap and termination rules, fold the checksum — without
/// parsing a single float. This is pass 1 of an out-of-core
/// preparation (pass 2 re-reads and parses in chunks).
///
/// # Errors
///
/// Same as [`ChunkReader::next_chunk`].
pub fn scan<R: BufRead>(reader: R, limits: &IngestLimits) -> Result<ScanSummary, IngestError> {
    scan_checkpoints(reader, DEFAULT_CHUNK_ROWS, limits).map(|(summary, _)| summary)
}

/// [`scan`], recording a [`Checkpoint`] at the start of every
/// `chunk_rows`-row chunk and the first data row's width, so pass 2
/// can read its chunks independently of each other.
///
/// # Errors
///
/// [`IngestError::ZeroChunkRows`] for `chunk_rows == 0`, plus the
/// errors of [`ChunkReader::next_chunk`].
///
/// # Example
///
/// ```
/// use poisongame_io::{scan_checkpoints, ChunkReader, IngestLimits};
///
/// let text = "1,2,1\n# note\n3,4,0\n5,6,1\n";
/// let limits = IngestLimits::default();
/// let (summary, points) = scan_checkpoints(text.as_bytes(), 2, &limits).unwrap();
/// assert_eq!(summary.rows, 3);
/// assert_eq!(points.first_width, Some(2));
/// // Resume at the second chunk from its own slice of the source.
/// let second = points.starts[1];
/// let rest = &text.as_bytes()[second.offset as usize..];
/// let mut reader = ChunkReader::resume(rest, 2, limits, second).unwrap();
/// let chunk = reader.next_chunk().unwrap().unwrap();
/// assert_eq!((chunk.first_row, chunk.line_numbers.clone()), (2, vec![4]));
/// assert!(reader.next_chunk().unwrap().is_none());
/// assert_eq!(reader.summary(), summary);
/// ```
pub fn scan_checkpoints<R: BufRead>(
    reader: R,
    chunk_rows: usize,
    limits: &IngestLimits,
) -> Result<(ScanSummary, Checkpoints), IngestError> {
    let mut chunks = ChunkReader::new(reader, chunk_rows, limits.clone())?;
    let mut starts = Vec::new();
    loop {
        let start = chunks.checkpoint();
        if chunks.skim_chunk()?.is_none() {
            break;
        }
        starts.push(start);
    }
    let points = Checkpoints {
        chunk_rows,
        starts,
        first_width: chunks.at.first_width,
    };
    Ok((chunks.summary(), points))
}

/// The parsed form of one [`RawChunk`]: a row-major feature block plus
/// labels, positioned by its global first row.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedChunk {
    /// Global index of the first row (copied from the raw chunk).
    pub first_row: usize,
    /// Feature columns per row.
    pub cols: usize,
    /// Row-major `rows × cols` feature values.
    pub features: Vec<f64>,
    /// One label per row.
    pub labels: Vec<Label>,
}

impl ParsedChunk {
    /// Number of rows in the chunk.
    pub fn rows(&self) -> usize {
        self.labels.len()
    }
}

/// Parse one raw chunk's fields. `expected_cols` pins the feature
/// width (registered formats know theirs); `None` infers it from the
/// chunk's first row.
///
/// # Errors
///
/// Returns the structured per-line variants of [`IngestError`]
/// (arity, float, label, finiteness, quoting), each carrying the
/// original 1-based line number.
///
/// # Example
///
/// ```
/// use poisongame_data::Label;
/// use poisongame_io::{parse_chunk, IngestError, RawChunk};
///
/// let chunk = RawChunk {
///     text: "0.1,0.2,1\n0.3,0.4,0".to_string(),
///     line_numbers: vec![1, 3],
///     first_row: 0,
/// };
/// let parsed = parse_chunk(&chunk, None).unwrap();
/// assert_eq!(parsed.cols, 2);
/// assert_eq!(parsed.features, vec![0.1, 0.2, 0.3, 0.4]);
/// assert_eq!(parsed.labels, vec![Label::Positive, Label::Negative]);
/// // A pinned width that disagrees names the row's physical line.
/// assert!(matches!(
///     parse_chunk(&chunk, Some(3)),
///     Err(IngestError::BadArity { line: 1, expected: 4, found: 3 })
/// ));
/// ```
pub fn parse_chunk(
    chunk: &RawChunk,
    expected_cols: Option<usize>,
) -> Result<ParsedChunk, IngestError> {
    let started = std::time::Instant::now();
    let mut cols = expected_cols;
    // A pinned width sizes the block exactly (each row briefly holds
    // its label slot too). Every value takes at least two bytes of
    // text, which bounds the reservation by the chunk itself.
    let exact = expected_cols.map_or(0, |c| chunk.rows().saturating_mul(c).saturating_add(1));
    let mut features: Vec<f64> = Vec::with_capacity(exact.min(chunk.text.len() / 2 + 1));
    let mut labels: Vec<Label> = Vec::with_capacity(chunk.rows());
    for (i, row) in chunk.text.lines().enumerate() {
        let line = chunk.line_numbers[i];
        let mut fields = 0usize;
        let mut label_field: &str = "";
        for field in row.split(',') {
            let field = field.trim();
            if field.starts_with('"') {
                return Err(IngestError::Quoted { line });
            }
            fields += 1;
            // Every field is parsed as a feature first; once the row's
            // arity is known the trailing entry is reinterpreted as
            // the label below.
            label_field = field;
            // A parse failure becomes NaN here; the error is deferred
            // until we know whether this is the label position
            // (labels get their own variant).
            features.push(field.parse::<f64>().unwrap_or(f64::NAN));
        }
        if fields < 2 {
            return Err(IngestError::BadArity {
                line,
                expected: cols.map_or(2, |c| c + 1).max(2),
                found: fields,
            });
        }
        let width = match cols {
            Some(c) => {
                if fields - 1 != c {
                    return Err(IngestError::BadArity {
                        line,
                        expected: c + 1,
                        found: fields,
                    });
                }
                c
            }
            None => {
                cols = Some(fields - 1);
                fields - 1
            }
        };
        // Pop the label slot off the feature block and validate both
        // sides with their own error variants. Non-finite covers both
        // garbage text (parsed to NaN above) and literal `nan`/`inf`
        // labels — neither names a 0/1 class, so the label column is
        // exactly as strict as the feature columns.
        let label_value = features.pop().expect("label slot pushed above");
        if !label_value.is_finite() {
            return Err(IngestError::BadLabel {
                line,
                field: label_field.to_string(),
            });
        }
        let row_start = features.len() - width;
        for (offset, value) in features[row_start..].iter().enumerate() {
            if value.is_nan() || value.is_infinite() {
                // Re-parse the offending field to distinguish "not a
                // float" from "a non-finite float" — the slow path
                // only runs on already-doomed rows.
                let field = row.split(',').nth(offset).unwrap_or("").trim();
                return match field.parse::<f64>() {
                    Ok(v) => Err(IngestError::NonFinite { line, value: v }),
                    Err(_) => Err(IngestError::BadFloat {
                        line,
                        field: field.to_string(),
                    }),
                };
            }
        }
        labels.push(if label_value != 0.0 {
            Label::Positive
        } else {
            Label::Negative
        });
    }
    let parsed = ParsedChunk {
        first_row: chunk.first_row,
        cols: cols.unwrap_or(0),
        features,
        labels,
    };
    crate::telemetry::record_chunk(parsed.rows() as u64, started.elapsed());
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_preserves_rows_and_lines() {
        let text = "# header\n1,2,1\n\n3,4,0\n5,6,1\n7,8,0\n";
        let mut reader = ChunkReader::new(text.as_bytes(), 3, IngestLimits::default()).unwrap();
        let a = reader.next_chunk().unwrap().unwrap();
        assert_eq!(a.rows(), 3);
        assert_eq!(a.line_numbers, vec![2, 4, 5]);
        assert_eq!(a.first_row, 0);
        let b = reader.next_chunk().unwrap().unwrap();
        assert_eq!(b.rows(), 1);
        assert_eq!(b.first_row, 3);
        assert!(reader.next_chunk().unwrap().is_none());
        let summary = reader.summary();
        assert_eq!(summary.rows, 4);
        assert_eq!(summary.bytes, text.len() as u64);
        assert_eq!(summary.checksum, checksum_bytes(text.as_bytes()));
    }

    #[test]
    fn scan_matches_chunked_summary() {
        let text = "1,2,1\r\n3,4,0\r\n";
        let summary = scan(text.as_bytes(), &IngestLimits::default()).unwrap();
        assert_eq!(summary.rows, 2);
        assert_eq!(summary.checksum, checksum_bytes(text.as_bytes()));
        let mut reader = ChunkReader::new(text.as_bytes(), 1, IngestLimits::default()).unwrap();
        while reader.next_chunk().unwrap().is_some() {}
        assert_eq!(reader.summary(), summary);
    }

    #[test]
    fn parse_chunk_infers_and_pins_width() {
        let chunk = RawChunk {
            text: "1,2,1\n3,4,0\n".to_string(),
            line_numbers: vec![1, 2],
            first_row: 0,
        };
        let parsed = parse_chunk(&chunk, None).unwrap();
        assert_eq!(parsed.cols, 2);
        assert_eq!(parsed.features, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(parsed.labels, vec![Label::Positive, Label::Negative]);
        assert!(matches!(
            parse_chunk(&chunk, Some(5)).unwrap_err(),
            IngestError::BadArity {
                line: 1,
                expected: 6,
                found: 3
            }
        ));
    }

    #[test]
    fn chunk_size_does_not_change_what_is_parsed() {
        let text = "# head\n0.5,1.5,1\n2.5,3.5,0\n\n4.5,5.5,1\n6.5,7.5,0\n8.5,9.5,1\n";
        let drain = |chunk_rows| {
            let mut reader =
                ChunkReader::new(text.as_bytes(), chunk_rows, IngestLimits::default()).unwrap();
            let (mut cols, mut features, mut labels) = (None, Vec::new(), Vec::new());
            while let Some(chunk) = reader.next_chunk().unwrap() {
                let parsed = parse_chunk(&chunk, cols).unwrap();
                cols = Some(parsed.cols);
                features.extend(parsed.features);
                labels.extend(parsed.labels);
            }
            (cols, features, labels, reader.summary())
        };
        let whole = drain(DEFAULT_CHUNK_ROWS);
        assert_eq!(whole.0, Some(2));
        assert_eq!(whole.2.len(), 5);
        assert_eq!(whole.3.checksum, checksum_bytes(text.as_bytes()));
        for chunk_rows in 1..=6 {
            assert_eq!(drain(chunk_rows), whole, "chunk_rows {chunk_rows}");
        }
    }

    #[test]
    fn zero_chunk_rows_is_rejected() {
        assert!(matches!(
            ChunkReader::new("1,2,1\n".as_bytes(), 0, IngestLimits::default()).unwrap_err(),
            IngestError::ZeroChunkRows
        ));
    }

    /// Every chunk and the summary of a plain read, for comparison.
    fn drain<R: BufRead>(reader: R, chunk_rows: usize) -> (Vec<RawChunk>, ScanSummary) {
        let mut reader = ChunkReader::new(reader, chunk_rows, IngestLimits::default()).unwrap();
        let mut chunks = Vec::new();
        while let Some(chunk) = reader.next_chunk().unwrap() {
            chunks.push(chunk);
        }
        (chunks, reader.summary())
    }

    #[test]
    fn resumed_chunks_equal_a_straight_read() {
        let text = "# head\r\n1,2,1\r\n\n3,4,0\n  5 , 6 ,1  \n# mid\n7,8,0\n9,10,1\n# tail\n";
        let limits = IngestLimits::default();
        for chunk_rows in 1..=6 {
            let (straight, summary) = drain(text.as_bytes(), chunk_rows);
            let (scanned, points) = scan_checkpoints(text.as_bytes(), chunk_rows, &limits).unwrap();
            assert_eq!(scanned, summary);
            assert_eq!(points.chunk_rows, chunk_rows);
            assert_eq!(points.first_width, Some(2));
            assert_eq!(
                points.starts.len(),
                straight.len(),
                "chunk_rows {chunk_rows}"
            );
            for (i, start) in points.starts.iter().enumerate() {
                let rest = &text.as_bytes()[start.offset as usize..];
                let mut reader =
                    ChunkReader::resume(rest, chunk_rows, limits.clone(), *start).unwrap();
                // A text reservation changes nothing read.
                reader.reserve_text(rest.len());
                assert_eq!(reader.next_chunk().unwrap().as_ref(), Some(&straight[i]));
                match points.starts.get(i + 1) {
                    Some(next) => assert_eq!(reader.checkpoint(), *next),
                    None => {
                        assert!(reader.next_chunk().unwrap().is_none());
                        assert_eq!(reader.summary(), summary);
                    }
                }
            }
        }
    }

    #[test]
    fn lines_straddling_buffer_fills_read_the_same() {
        // Tiny buffers split every line across fills, so each one goes
        // through the spill copy instead of being borrowed in place.
        let text = "0.5,1.5,1\r\n# comment\n\n2.5,3.5,0\n4.5,5.5,1\n# no newline";
        let whole = drain(text.as_bytes(), 2);
        assert_eq!(whole.1.checksum, checksum_bytes(text.as_bytes()));
        for capacity in 1..=12 {
            let buffered = std::io::BufReader::with_capacity(capacity, text.as_bytes());
            assert_eq!(drain(buffered, 2), whole, "capacity {capacity}");
        }
        // The cap holds across fills too.
        let limits = IngestLimits { max_line_bytes: 4 };
        for capacity in 1..=12 {
            let buffered = std::io::BufReader::with_capacity(capacity, "1,2,1\n".as_bytes());
            assert!(matches!(
                scan(buffered, &limits).unwrap_err(),
                IngestError::LineTooLong {
                    line: 1,
                    cap: 4,
                    ..
                }
            ));
        }
    }

    #[test]
    fn first_width_comes_from_the_first_data_row() {
        let limits = IngestLimits::default();
        let text = "# 9,9,9,9\n\n1,2,3,1\n4,5,0\n";
        let (_, points) = scan_checkpoints(text.as_bytes(), 1, &limits).unwrap();
        assert_eq!(points.first_width, Some(3));
        let (summary, points) = scan_checkpoints("# only\n".as_bytes(), 1, &limits).unwrap();
        assert_eq!((summary.rows, points.first_width), (0, None));
        assert!(points.starts.is_empty());
        // A one-field first row pins width 0, which still reports the
        // two-field minimum.
        let chunk = RawChunk {
            text: "7\n".to_string(),
            line_numbers: vec![3],
            first_row: 0,
        };
        assert!(matches!(
            parse_chunk(&chunk, Some(0)).unwrap_err(),
            IngestError::BadArity {
                line: 3,
                expected: 2,
                found: 1
            }
        ));
    }
}
