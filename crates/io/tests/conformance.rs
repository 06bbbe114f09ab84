//! CSV conformance suite: every malformed-input class the strict
//! reader must reject maps to its *own* structured [`IngestError`]
//! variant, and every accepted edge case (CRLF, trailing newline,
//! comments) parses identically to the canonical form.

use poisongame_data::csv::to_csv;
use poisongame_data::{Dataset, Label};
use poisongame_io::{
    checksum_bytes, parse_chunk, scan, ChunkReader, IngestError, IngestLimits, SPAMBASE,
};

/// Every row of a source, drained through the reader and parsed with
/// the width carried across chunks: `(cols, features, labels)`.
type Rows = (usize, Vec<f64>, Vec<Label>);

fn read_with(
    text: &str,
    expected_cols: Option<usize>,
    limits: &IngestLimits,
) -> Result<Rows, IngestError> {
    let mut reader = ChunkReader::new(text.as_bytes(), 3, limits.clone())?;
    let (mut cols, mut features, mut labels) = (expected_cols, Vec::new(), Vec::new());
    while let Some(chunk) = reader.next_chunk()? {
        let parsed = parse_chunk(&chunk, cols)?;
        cols = Some(parsed.cols);
        features.extend(parsed.features);
        labels.extend(parsed.labels);
    }
    Ok((cols.unwrap_or(0), features, labels))
}

fn read_all(text: &str) -> Result<Rows, IngestError> {
    read_with(text, None, &IngestLimits::default())
}

#[test]
fn crlf_and_lf_parse_identically() {
    let lf = "1,2,1\n3,4,0\n";
    let crlf = "1,2,1\r\n3,4,0\r\n";
    assert_eq!(read_all(lf).unwrap(), read_all(crlf).unwrap());
    // The checksum covers raw bytes, so the two framings are distinct
    // *sources* even though they parse to the same dataset.
    assert_ne!(
        checksum_bytes(lf.as_bytes()),
        checksum_bytes(crlf.as_bytes())
    );
}

#[test]
fn trailing_newline_is_required_on_data_rows() {
    // Properly terminated: fine.
    assert!(read_all("1,2,1\n3,4,0\n").is_ok());
    // Truncated final data row: structured error with the line number.
    assert!(matches!(
        read_all("1,2,1\n3,4,0").unwrap_err(),
        IngestError::UnterminatedRow { line: 2 }
    ));
    // A trailing comment or blank line without a newline is not a
    // truncated record.
    assert!(read_all("1,2,1\n# done").is_ok());
    assert!(read_all("1,2,1\n   ").is_ok());
}

#[test]
fn quoted_fields_are_rejected() {
    assert!(matches!(
        read_all("1,\"2\",1\n").unwrap_err(),
        IngestError::Quoted { line: 1 }
    ));
}

#[test]
fn empty_source_scans_to_zero_rows() {
    // An empty scan succeeds — absence of rows is the caller's
    // decision at the preparation layer, which raises
    // `IngestError::Empty` (pinned in the sim ingest tests).
    for text in ["", "# only comments\n\n"] {
        let summary = scan(text.as_bytes(), &IngestLimits::default()).unwrap();
        assert_eq!(summary.rows, 0);
        assert_eq!(read_all(text).unwrap().2, vec![]);
    }
}

#[test]
fn real_spambase_first_record_parses_at_pinned_width() {
    // Verbatim first record of the UCI spambase.data file.
    let line = "0,0.64,0.64,0,0.32,0,0,0,0,0,0,0.64,0,0,0,0.32,0,1.29,1.93,0,0.96,\
                0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0.778,\
                0,0,3.756,61,278,1\n";
    let (cols, features, labels) =
        read_with(line, SPAMBASE.feature_columns, &IngestLimits::default()).unwrap();
    assert_eq!(cols, 57);
    assert_eq!(labels, vec![Label::Positive]);
    assert_eq!(features[56], 278.0);
}

#[test]
fn nonzero_label_is_positive() {
    let (_, _, labels) = read_all("1,2,0.5\n3,4,0\n5,6,-2\n").unwrap();
    assert_eq!(
        labels,
        vec![Label::Positive, Label::Negative, Label::Positive]
    );
}

#[test]
fn to_csv_round_trips_bit_exactly() {
    let rows = vec![
        vec![0.125, 3.0],
        vec![7.0, 0.333_333_333_333_333_3],
        vec![-1e-300, 6.02214076e23],
        vec![f64::MIN_POSITIVE, 123_456_789.0],
    ];
    let labels = vec![
        Label::Positive,
        Label::Negative,
        Label::Positive,
        Label::Negative,
    ];
    let data = Dataset::from_rows(rows, labels.clone()).unwrap();
    let (cols, features, back) = read_all(&to_csv(&data)).unwrap();
    assert_eq!(cols, 2);
    assert_eq!(back, labels);
    for (a, b) in features.iter().zip(data.features().as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
    }
}

#[test]
fn nan_and_inf_features_are_rejected() {
    for bad in ["NaN", "nan", "inf", "-inf", "infinity"] {
        let text = format!("1,{bad},1\n");
        match read_all(&text).unwrap_err() {
            IngestError::NonFinite { line: 1, .. } => {}
            other => panic!("{bad}: expected NonFinite, got {other:?}"),
        }
    }
    // Garbage that is not even a float is a different variant.
    assert!(matches!(
        read_all("1,spam,1\n").unwrap_err(),
        IngestError::BadFloat { line: 1, .. }
    ));
    // A garbage label gets the label variant.
    assert!(matches!(
        read_all("1,2,spam\n").unwrap_err(),
        IngestError::BadLabel { line: 1, .. }
    ));
    // A literal non-finite label parses as a float but names no 0/1
    // class — rejected with the same strictness as the features.
    for bad in ["nan", "NaN", "inf", "-inf"] {
        let text = format!("1,2,{bad}\n");
        match read_all(&text).unwrap_err() {
            IngestError::BadLabel { line: 1, .. } => {}
            other => panic!("{bad}: expected BadLabel, got {other:?}"),
        }
    }
}

#[test]
fn wrong_column_count_is_bad_arity() {
    // Width pinned by the first row; line numbers point at the file.
    assert!(matches!(
        read_all("1,2,1\n# pad\n3,4,5,0\n").unwrap_err(),
        IngestError::BadArity {
            line: 3,
            expected: 3,
            found: 4
        }
    ));
    // A single-field row can't carry features + label.
    assert!(matches!(
        read_all("42\n").unwrap_err(),
        IngestError::BadArity {
            line: 1,
            found: 1,
            ..
        }
    ));
    // Pinned formats reject the first row directly.
    let chunk_err = {
        let mut reader =
            ChunkReader::new("1,2,1\n".as_bytes(), 16, IngestLimits::default()).unwrap();
        let chunk = reader.next_chunk().unwrap().unwrap();
        parse_chunk(&chunk, Some(57)).unwrap_err()
    };
    assert!(matches!(
        chunk_err,
        IngestError::BadArity {
            line: 1,
            expected: 58,
            found: 3
        }
    ));
}

#[test]
fn oversized_lines_are_rejected_up_front() {
    let limits = IngestLimits { max_line_bytes: 16 };
    let long = format!("{},1\n", "1,".repeat(32));
    assert!(matches!(
        read_with(&long, None, &limits).unwrap_err(),
        IngestError::LineTooLong {
            line: 1,
            cap: 16,
            ..
        }
    ));
    // The scan pass enforces the same cap — no parsing needed to
    // reject a corrupt newline-less blob.
    assert!(matches!(
        scan(long.as_bytes(), &limits).unwrap_err(),
        IngestError::LineTooLong { .. }
    ));
}

/// An unbounded newline-less byte stream — the pathological source the
/// line cap exists for.
struct Endless;

impl std::io::Read for Endless {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        buf.fill(b'1');
        Ok(buf.len())
    }
}

#[test]
fn oversized_line_is_rejected_without_buffering_it() {
    // The reader must give up within a few bytes of the cap, not
    // materialize the line first — against this endless source an
    // unbounded read would never return at all.
    let limits = IngestLimits { max_line_bytes: 64 };
    match scan(std::io::BufReader::new(Endless), &limits).unwrap_err() {
        IngestError::LineTooLong {
            line: 1,
            bytes,
            cap: 64,
        } => assert!(bytes > 64 && bytes <= 64 + 3, "buffered {bytes} bytes"),
        other => panic!("expected LineTooLong, got {other:?}"),
    }
}

#[test]
fn zero_chunk_rows_is_rejected() {
    assert!(matches!(
        ChunkReader::new("1,2,1\n".as_bytes(), 0, IngestLimits::default()).unwrap_err(),
        IngestError::ZeroChunkRows
    ));
}

#[test]
fn every_error_class_is_distinct() {
    // The suite's point in one assertion: six malformed inputs, six
    // different discriminants (`Empty` is raised at the preparation
    // layer).
    let errors = [
        read_all("1,2,1\n3,4\n").unwrap_err(),
        read_all("1,x,1\n").unwrap_err(),
        read_all("1,2,x\n").unwrap_err(),
        read_all("1,inf,1\n").unwrap_err(),
        read_all("\"1\",2,1\n").unwrap_err(),
        read_all("1,2,1").unwrap_err(),
    ];
    for (i, a) in errors.iter().enumerate() {
        for b in errors.iter().skip(i + 1) {
            assert_ne!(
                std::mem::discriminant(a),
                std::mem::discriminant(b),
                "{a:?} vs {b:?}"
            );
        }
    }
}
