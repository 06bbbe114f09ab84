//! Streaming dataset ingestion for the poisoning game.
//!
//! The bottom-layer I/O tier: strict chunked CSV reading from any
//! [`std::io::Read`] source, checksummed file sources with a
//! deterministic synthetic fallback, and the structured errors and
//! `io_*` telemetry the rest of the stack builds out-of-core
//! preparation on. std-only, like every crate below the facade.
//!
//! | Module | What it holds |
//! |---|---|
//! | [`chunk`] | [`ChunkReader`], [`parse_chunk`], [`scan`], [`scan_checkpoints`], limits |
//! | [`source`] | [`FileSource`], the [`Format`] registry |
//! | [`error`] | [`IngestError`] — one variant per conformance failure |
//! | [`telemetry`] | `io_*` counters/histograms and the `checksum_mismatch` event |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod error;
pub mod source;
pub mod telemetry;

pub use chunk::{
    checksum_bytes, parse_chunk, scan, scan_checkpoints, Checkpoint, Checkpoints, ChunkReader,
    IngestLimits, ParsedChunk, RawChunk, ScanSummary, DEFAULT_CHUNK_ROWS, DEFAULT_MAX_LINE_BYTES,
};
pub use error::IngestError;
pub use source::{lookup_format, FileSource, Format, FORMATS, GENERIC_CSV, SPAMBASE};
