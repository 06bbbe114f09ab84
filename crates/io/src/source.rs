//! Record sources: where dataset bytes come from.
//!
//! A [`FileSource`] opens a path, validates its FNV content checksum
//! against a pinned value, and degrades *absent* (not corrupt) files
//! to `Ok(None)` so callers can fall back deterministically to the
//! synthetic generator and CI stays green offline. The registered
//! [`Format`] describes its schema.

use crate::chunk::{scan, IngestLimits, ScanSummary};
use crate::error::IngestError;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};

/// A registered source schema: the feature width the strict reader
/// pins, and the synthetic-fallback size for absent files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    /// Registry name (`"spambase"`, `"csv"`, …).
    pub name: &'static str,
    /// Feature columns per row; `None` means infer from the first row.
    pub feature_columns: Option<usize>,
    /// Rows the synthetic fallback generates when the file is absent.
    pub fallback_rows: usize,
}

/// UCI Spambase: 57 feature columns plus a 0/1 spam label, 4601 rows.
/// The paper's dataset (conf_dsn_OuS19) and the first registered
/// format.
pub const SPAMBASE: Format = Format {
    name: "spambase",
    feature_columns: Some(poisongame_data::synth::SPAMBASE_DIM),
    fallback_rows: poisongame_data::synth::SPAMBASE_ROWS,
};

/// Generic CSV with a trailing label column: width inferred from the
/// first row, Spambase-sized synthetic fallback.
pub const GENERIC_CSV: Format = Format {
    name: "csv",
    feature_columns: None,
    fallback_rows: poisongame_data::synth::SPAMBASE_ROWS,
};

/// All registered formats, in lookup order.
pub const FORMATS: [Format; 2] = [SPAMBASE, GENERIC_CSV];

/// Resolve a format by registry name.
///
/// # Errors
///
/// Returns [`IngestError::UnknownFormat`] for unregistered names.
pub fn lookup_format(name: &str) -> Result<Format, IngestError> {
    FORMATS
        .iter()
        .find(|f| f.name == name)
        .copied()
        .ok_or_else(|| IngestError::UnknownFormat {
            name: name.to_string(),
        })
}

/// A checksummed file on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileSource {
    path: PathBuf,
    expected_checksum: Option<u64>,
    format: Format,
}

impl FileSource {
    /// A file source for `path`. `expected_checksum` (when pinned) is
    /// the FNV-1a hash of the file's raw bytes — see
    /// [`crate::checksum_bytes`] — and is enforced on every read; an
    /// absent file is still a clean fallback even with a pinned
    /// checksum, because there is nothing to validate.
    pub fn new(path: impl Into<PathBuf>, expected_checksum: Option<u64>, format: Format) -> Self {
        Self {
            path: path.into(),
            expected_checksum,
            format,
        }
    }

    /// The file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The pinned checksum, if any.
    pub fn expected_checksum(&self) -> Option<u64> {
        self.expected_checksum
    }

    /// Human-readable identity for errors and telemetry (the path).
    pub fn describe(&self) -> String {
        self.path.display().to_string()
    }

    /// The schema this source carries.
    pub fn format(&self) -> Format {
        self.format
    }

    /// Open the byte stream, or `Ok(None)` if the file is absent (e.g.
    /// never downloaded) — callers fall back to the synthetic
    /// generator. Corruption (checksum mismatch, I/O failure
    /// mid-read) is an `Err`, never a silent fallback.
    ///
    /// # Errors
    ///
    /// Returns [`IngestError::Read`] when the file exists but cannot
    /// be opened.
    pub fn open(&self) -> Result<Option<File>, IngestError> {
        match File::open(&self.path) {
            Ok(file) => Ok(Some(file)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(IngestError::Read(format!("{}: {e}", self.path.display()))),
        }
    }

    /// One structural pass over the file: row count, byte count and
    /// checksum — validated against the pinned value. `Ok(None)`
    /// means the file is absent (fallback). This is pass 1 of an
    /// out-of-core preparation.
    ///
    /// # Errors
    ///
    /// [`IngestError::ChecksumMismatch`] (also published to
    /// telemetry), plus the structural errors of [`scan`].
    pub fn scan_verified(&self, limits: &IngestLimits) -> Result<Option<ScanSummary>, IngestError> {
        let Some(reader) = self.open()? else {
            return Ok(None);
        };
        let summary = scan(BufReader::new(reader), limits)?;
        self.verify(summary.checksum)?;
        Ok(Some(summary))
    }

    /// Check an observed content hash against the pinned checksum,
    /// recording a mismatch to telemetry.
    ///
    /// # Errors
    ///
    /// Returns [`IngestError::ChecksumMismatch`] when a pinned
    /// checksum disagrees with `actual`.
    pub fn verify(&self, actual: u64) -> Result<(), IngestError> {
        match self.expected_checksum {
            Some(expected) if expected != actual => {
                let source = self.describe();
                crate::telemetry::note_checksum_mismatch(&source, expected, actual);
                Err(IngestError::ChecksumMismatch {
                    source,
                    expected,
                    actual,
                })
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::checksum_bytes;

    #[test]
    fn format_lookup_round_trips() {
        assert_eq!(lookup_format("spambase").unwrap(), SPAMBASE);
        assert_eq!(lookup_format("csv").unwrap(), GENERIC_CSV);
        assert!(matches!(
            lookup_format("parquet").unwrap_err(),
            IngestError::UnknownFormat { .. }
        ));
    }

    #[test]
    fn absent_file_is_none_not_error() {
        let source = FileSource::new("/nonexistent/never/spam.csv", Some(42), SPAMBASE);
        assert!(source.open().unwrap().is_none());
        assert!(source
            .scan_verified(&IngestLimits::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn present_file_scans_and_verifies() {
        let dir = std::env::temp_dir().join(format!("pg-io-src-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.csv");
        let text = "1,2,1\n3,4,0\n";
        std::fs::write(&path, text).unwrap();
        let good = checksum_bytes(text.as_bytes());

        let source = FileSource::new(&path, Some(good), GENERIC_CSV);
        let summary = source
            .scan_verified(&IngestLimits::default())
            .unwrap()
            .unwrap();
        assert_eq!(summary.rows, 2);
        assert_eq!(summary.checksum, good);

        let bad = FileSource::new(&path, Some(good ^ 1), GENERIC_CSV);
        assert!(matches!(
            bad.scan_verified(&IngestLimits::default()).unwrap_err(),
            IngestError::ChecksumMismatch { .. }
        ));

        let unpinned = FileSource::new(&path, None, GENERIC_CSV);
        assert!(unpinned
            .scan_verified(&IngestLimits::default())
            .unwrap()
            .is_some());
        std::fs::remove_file(&path).ok();
    }
}
