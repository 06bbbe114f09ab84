//! Strict streaming CSV reading in fixed-size row chunks.
//!
//! [`ChunkReader`] pulls UCI-Spambase-layout CSV (`f_1,…,f_d,label`,
//! no header) off any [`BufRead`] source one bounded chunk at a time —
//! the whole file is never resident, so out-of-core preparation can
//! run over datasets far larger than memory. The reader folds every
//! raw byte it consumes into an FNV-1a [`ContentHash`] as a side
//! effect, so one streaming pass yields both the parsed rows *and* the
//! checksum a [`crate::FileSource`] validates against.
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

/// FNV-1a checksum of a byte slice — the value to pin in a file
/// source's `checksum` field (and what [`ScanSummary::checksum`]
/// reports after a full pass).
pub fn checksum_bytes(bytes: &[u8]) -> u64 {
    ContentHash::new().bytes(bytes).finish()
}

/// A streaming chunked reader over Spambase-layout CSV.
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
    limits: IngestLimits,
    /// Physical lines consumed so far (1-based numbering flows from
    /// this).
    line: usize,
    /// Data rows emitted so far.
    row: usize,
    bytes: u64,
    hash: ContentHash,
    /// Bytes consumed since the last telemetry flush.
    unreported_bytes: u64,
    done: bool,
}

impl<R: BufRead> ChunkReader<R> {
    /// A reader emitting at most `chunk_rows` data rows per chunk.
    ///
    /// # Errors
    ///
    /// Returns [`IngestError::ZeroChunkRows`] for `chunk_rows == 0`.
    pub fn new(reader: R, chunk_rows: usize, limits: IngestLimits) -> Result<Self, IngestError> {
        if chunk_rows == 0 {
            return Err(IngestError::ZeroChunkRows);
        }
        Ok(Self {
            reader,
            chunk_rows,
            limits,
            line: 0,
            row: 0,
            bytes: 0,
            hash: ContentHash::new(),
            unreported_bytes: 0,
            done: false,
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

    /// Read one physical line (through its `\n`) into `buf`, buffering
    /// at most `max_line_bytes + 3` bytes — content, CRLF framing, and
    /// one byte proving the cap is exceeded. An over-cap line stops
    /// being read mid-stream, so a corrupt newline-less source can
    /// never make the reader materialize it; the caller's cap check
    /// fires on the truncated buffer (which lacks a `\n` and is
    /// already longer than the cap). Returns bytes consumed, 0 at EOF.
    fn read_line_bounded(&mut self, buf: &mut Vec<u8>) -> Result<usize, IngestError> {
        // Cap plus CRLF: a line whose *content* is exactly at the cap
        // still fits with its framing and must not trip the bound.
        let stop = self.limits.max_line_bytes.saturating_add(2);
        let mut total = 0usize;
        loop {
            let available = self
                .reader
                .fill_buf()
                .map_err(|e| IngestError::Read(e.to_string()))?;
            if available.is_empty() {
                return Ok(total);
            }
            if let Some(pos) = available.iter().position(|&b| b == b'\n') {
                buf.extend_from_slice(&available[..=pos]);
                self.reader.consume(pos + 1);
                return Ok(total + pos + 1);
            }
            let room = stop.saturating_add(1).saturating_sub(buf.len());
            let take = available.len().min(room);
            buf.extend_from_slice(&available[..take]);
            self.reader.consume(take);
            total += take;
            if buf.len() > stop {
                return Ok(total);
            }
        }
    }

    fn advance(&mut self, collect: bool) -> Result<Option<RawChunk>, IngestError> {
        if self.done {
            self.flush_bytes();
            return Ok(None);
        }
        let mut chunk = RawChunk {
            text: String::new(),
            line_numbers: Vec::new(),
            first_row: self.row,
        };
        let mut buf: Vec<u8> = Vec::new();
        while chunk.rows() < self.chunk_rows {
            buf.clear();
            let n = self.read_line_bounded(&mut buf)?;
            if n == 0 {
                self.done = true;
                break;
            }
            self.line += 1;
            self.bytes += n as u64;
            self.unreported_bytes += n as u64;
            self.hash = self.hash.bytes(&buf);
            let (content, terminated) = match buf.split_last() {
                // CRLF sources are accepted: the carriage return is
                // line framing, not row content (it still counts
                // toward the checksum, which covers raw bytes).
                Some((&b'\n', stripped)) => {
                    (stripped.strip_suffix(b"\r").unwrap_or(stripped), true)
                }
                _ => (buf.as_slice(), false),
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
            // stop mid-UTF-8-sequence on an over-cap line, and that
            // must report LineTooLong, not a spurious encoding error.
            let content = std::str::from_utf8(content)
                .map_err(|_| IngestError::Read("stream did not contain valid UTF-8".to_string()))?;
            let trimmed = content.trim();
            let is_data = !(trimmed.is_empty() || trimmed.starts_with('#'));
            if !terminated {
                // Last line of the source. A trailing comment or
                // stray whitespace is fine; a data row without its
                // newline means the source was cut mid-record.
                self.done = true;
                if is_data {
                    return Err(IngestError::UnterminatedRow { line: self.line });
                }
                break;
            }
            if is_data {
                self.row += 1;
                chunk.line_numbers.push(self.line);
                if collect {
                    chunk.text.push_str(trimmed);
                    chunk.text.push('\n');
                }
            }
        }
        if chunk.rows() == 0 {
            self.flush_bytes();
            return Ok(None);
        }
        self.flush_bytes();
        Ok(Some(chunk))
    }

    fn flush_bytes(&mut self) {
        if self.unreported_bytes > 0 {
            crate::telemetry::metrics().bytes.add(self.unreported_bytes);
            self.unreported_bytes = 0;
        }
    }

    /// What the reader has observed so far; after the stream is
    /// drained this is the full-pass summary.
    pub fn summary(&self) -> ScanSummary {
        ScanSummary {
            rows: self.row,
            bytes: self.bytes,
            checksum: self.hash.finish(),
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
    let mut chunks = ChunkReader::new(reader, DEFAULT_CHUNK_ROWS, limits.clone())?;
    while chunks.skim_chunk()?.is_some() {}
    Ok(chunks.summary())
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
    let mut features: Vec<f64> = Vec::new();
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
                expected: cols.map_or(2, |c| c + 1),
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
}
