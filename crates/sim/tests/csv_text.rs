//! The `csv_text` source contract. An inline CSV document is read by
//! the same strict streaming parser and prepared by the same scatter
//! routine as a file. Accepted inputs must prep exactly like a naive
//! split-and-parse oracle; rejected inputs must name their error class
//! and 1-based line.

use poisongame_data::csv::to_csv;
use poisongame_data::scale::StandardScaler;
use poisongame_data::split::train_test_split;
use poisongame_data::synth::{spambase_like, SpambaseConfig};
use poisongame_data::{Dataset, Label};
use poisongame_io::{IngestError, DEFAULT_MAX_LINE_BYTES};
use poisongame_linalg::Xoshiro256StarStar;
use poisongame_sim::error::SimError;
use poisongame_sim::pipeline::{prepare_data, DataSource, PreparedData};
use rand::SeedableRng;

const SEED: u64 = 11;
const TEST_FRACTION: f64 = 0.3;

fn prep_text(text: &str) -> Result<PreparedData, SimError> {
    prepare_data(
        &DataSource::CsvText {
            text: text.to_string(),
        },
        SEED,
        TEST_FRACTION,
    )
}

/// Prep `text` followed by twenty good rows and return its ingest
/// error. Rows are counted and split before they are parsed, so a
/// source too small to split fails as a degenerate split first.
fn ingest_error(text: &str) -> IngestError {
    let text = format!("{text}{}", rows());
    match prep_text(&text) {
        Err(SimError::Ingest(e)) => e,
        other => panic!("{text:?}: expected an ingest error, got {other:?}"),
    }
}

/// Split and scale an in-memory dataset the way `prepare_data` does.
fn prepare_in_memory(full: &Dataset) -> PreparedData {
    let mut rng = Xoshiro256StarStar::seed_from_u64(SEED);
    let (train_raw, test_raw) = train_test_split(full, TEST_FRACTION, &mut rng).unwrap();
    let (train, scaler) = StandardScaler::fit_transform(&train_raw).unwrap();
    let test = scaler.transform(&test_raw).unwrap();
    PreparedData {
        train,
        test,
        scaler,
    }
}

/// The oracle: skip blank and `#` lines, split on commas, parse every
/// trimmed field with `str::parse`, last field is the label.
fn oracle_prepare(text: &str) -> PreparedData {
    let (mut rows, mut labels) = (Vec::new(), Vec::new());
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields: Vec<f64> = line.split(',').map(|f| f.trim().parse().unwrap()).collect();
        let label = fields.pop().unwrap();
        labels.push(if label != 0.0 {
            Label::Positive
        } else {
            Label::Negative
        });
        rows.push(fields);
    }
    prepare_in_memory(&Dataset::from_rows(rows, labels).unwrap())
}

fn positives(data: &PreparedData) -> usize {
    [&data.train, &data.test]
        .iter()
        .flat_map(|split| split.labels())
        .filter(|label| **label == Label::Positive)
        .count()
}

/// Twenty two-feature rows, alternating labels.
fn rows() -> String {
    (0..20)
        .map(|i| format!("{}.5,{}.25,{}\n", i, 3 * i, i % 2))
        .collect()
}

#[test]
fn csv_text_parses_values_and_labels() {
    let text = rows();
    let prepared = prep_text(&text).unwrap();
    assert_eq!(prepared, oracle_prepare(&text));
    assert_eq!(prepared.train.dim(), 2);
    assert_eq!(prepared.train.len() + prepared.test.len(), 20);
    assert_eq!(positives(&prepared), 10);
}

#[test]
fn csv_text_skips_blank_and_comment_lines() {
    let plain = rows();
    let mut commented = String::from("# header comment\n\n");
    for (i, row) in plain.lines().enumerate() {
        commented.push_str(row);
        commented.push_str(if i % 3 == 0 { "\n\n# note\n" } else { "\n" });
    }
    commented.push_str("# trailing\n");
    assert_eq!(prep_text(&commented).unwrap(), prep_text(&plain).unwrap());
}

#[test]
fn csv_text_fields_and_rows_are_trimmed() {
    let spaced: String = rows()
        .lines()
        .map(|row| format!("  {} \n", row.replace(',', " , ")))
        .collect();
    assert_eq!(prep_text(&spaced).unwrap(), prep_text(&rows()).unwrap());
}

#[test]
fn csv_text_crlf_preps_like_lf() {
    let crlf = rows().replace('\n', "\r\n");
    assert_eq!(prep_text(&crlf).unwrap(), prep_text(&rows()).unwrap());
}

#[test]
fn csv_text_ragged_row_is_bad_arity_at_its_line() {
    assert_eq!(
        ingest_error("1,2,1\n1,2,3,0\n"),
        IngestError::BadArity {
            line: 2,
            expected: 3,
            found: 4
        }
    );
}

#[test]
fn csv_text_single_field_row_is_bad_arity() {
    assert_eq!(
        ingest_error("42\n"),
        IngestError::BadArity {
            line: 1,
            expected: 2,
            found: 1
        }
    );
}

#[test]
fn csv_text_bad_fields_name_their_class_and_line() {
    assert_eq!(
        ingest_error("a,2,1\n"),
        IngestError::BadFloat {
            line: 1,
            field: "a".to_string()
        }
    );
    assert_eq!(
        ingest_error("1,2,x\n"),
        IngestError::BadLabel {
            line: 1,
            field: "x".to_string()
        }
    );
    assert_eq!(
        ingest_error("inf,2,1\n"),
        IngestError::NonFinite {
            line: 1,
            value: f64::INFINITY
        }
    );
    // Comments and blank lines still count toward the line number.
    assert_eq!(
        ingest_error("# c\n1,2,1\n\n3,oops,0\n"),
        IngestError::BadFloat {
            line: 4,
            field: "oops".to_string()
        }
    );
}

#[test]
fn csv_text_non_finite_label_is_bad_label() {
    for bad in ["nan", "NaN", "inf", "-inf"] {
        assert_eq!(
            ingest_error(&format!("1,2,{bad}\n")),
            IngestError::BadLabel {
                line: 1,
                field: bad.to_string()
            },
            "{bad}"
        );
    }
}

#[test]
fn csv_text_header_row_is_rejected_not_skipped() {
    // The Spambase layout has no header; a pasted one is an error at
    // line 1 (its label column fails first), never a silently dropped
    // row.
    assert_eq!(
        ingest_error("word_freq_make,word_freq_all,spam\n"),
        IngestError::BadLabel {
            line: 1,
            field: "spam".to_string()
        }
    );
}

#[test]
fn csv_text_nonzero_label_is_positive() {
    let labels = ["0.5", "-1", "2", "0", "-0.0", "0.0"];
    let text: String = (0..18)
        .map(|i| format!("{i},{},{}\n", 2 * i, labels[i % labels.len()]))
        .collect();
    let prepared = prep_text(&text).unwrap();
    assert_eq!(positives(&prepared), 9);
    assert_eq!(prepared, oracle_prepare(&text));
}

#[test]
fn csv_text_to_csv_round_trip_is_bit_exact() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xC5);
    let synth = spambase_like(
        &SpambaseConfig {
            rows: 120,
            ..SpambaseConfig::default()
        },
        &mut rng,
    );
    // A value whose shortest decimal form needs all 17 digits.
    let mut features = synth.features().clone();
    features.set(0, 1, 0.333_333_333_333_333_3);
    let data = Dataset::new(features, synth.labels().to_vec()).unwrap();
    let prepared = prep_text(&to_csv(&data)).unwrap();
    let reference = prepare_in_memory(&data);
    assert_eq!(prepared, reference);
    assert_eq!(prepared.content_digest(), reference.content_digest());
}

#[test]
fn csv_text_real_spambase_record_has_width_57() {
    // Verbatim first record of the UCI spambase.data file, then ham
    // rows of the same width.
    let record = "0,0.64,0.64,0,0.32,0,0,0,0,0,0,0.64,0,0,0,0.32,0,1.29,1.93,0,0.96,\
                  0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0.778,\
                  0,0,3.756,61,278,1";
    let mut text = format!("{record}\n");
    for i in 0..9 {
        let mut fields = vec!["0".to_string(); 57];
        fields[56] = (i * 10).to_string();
        text.push_str(&format!("{},0\n", fields.join(",")));
    }
    let prepared = prep_text(&text).unwrap();
    assert_eq!(prepared.train.dim(), 57);
    assert_eq!(positives(&prepared), 1);
    assert_eq!(prepared, oracle_prepare(&text));
}

#[test]
fn csv_text_line_over_the_cap_is_line_too_long() {
    let long = format!("1,2,1\n{}1\n", "0,".repeat(DEFAULT_MAX_LINE_BYTES / 2));
    match ingest_error(&long) {
        IngestError::LineTooLong { line, bytes, cap } => {
            assert_eq!((line, cap), (2, DEFAULT_MAX_LINE_BYTES));
            assert!(bytes > cap, "{bytes}");
        }
        other => panic!("expected LineTooLong, got {other:?}"),
    }
}

#[test]
fn csv_text_ingestion_counts_in_io_telemetry() {
    // The counters are process-wide and other tests in this binary add
    // to them concurrently, so only a lower bound is exact.
    let metrics = poisongame_io::telemetry::metrics();
    let (rows_before, bytes_before, chunks_before) = (
        metrics.rows.get(),
        metrics.bytes.get(),
        metrics.chunks.get(),
    );
    let text = rows();
    prep_text(&text).unwrap();
    assert!(metrics.rows.get() - rows_before >= 20);
    assert!(metrics.bytes.get() - bytes_before >= text.len() as u64);
    assert!(metrics.chunks.get() > chunks_before);
}
