//! Error type for dataset construction, splitting and scaling.

use std::error::Error;
use std::fmt;

/// Errors produced while building, splitting or scaling datasets.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DataError {
    /// Feature matrix and label vector disagree on the number of rows.
    LabelCountMismatch {
        /// Rows in the feature matrix.
        rows: usize,
        /// Number of labels supplied.
        labels: usize,
    },
    /// The dataset is empty where a non-empty one is required.
    Empty,
    /// A split fraction or similar ratio was outside its legal range.
    BadFraction {
        /// Name of the parameter.
        what: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A split would leave one side without any points.
    DegenerateSplit,
    /// One of the two classes has no examples but the operation needs
    /// both.
    MissingClass,
    /// Underlying numerical error.
    Linalg(poisongame_linalg::LinalgError),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::LabelCountMismatch { rows, labels } => {
                write!(f, "feature rows ({rows}) and labels ({labels}) differ")
            }
            DataError::Empty => write!(f, "dataset is empty"),
            DataError::BadFraction { what, value } => {
                write!(f, "fraction `{what}` out of range: {value}")
            }
            DataError::DegenerateSplit => write!(f, "split leaves an empty side"),
            DataError::MissingClass => write!(f, "dataset lacks one of the two classes"),
            DataError::Linalg(e) => write!(f, "numerical error: {e}"),
        }
    }
}

impl Error for DataError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DataError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<poisongame_linalg::LinalgError> for DataError {
    fn from(e: poisongame_linalg::LinalgError) -> Self {
        DataError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(DataError::Empty.to_string().contains("empty"));
        assert!(DataError::LabelCountMismatch { rows: 2, labels: 3 }
            .to_string()
            .contains("2"));
        assert!(DataError::BadFraction {
            what: "test_fraction",
            value: 1.5
        }
        .to_string()
        .contains("test_fraction"));
        assert!(DataError::DegenerateSplit
            .to_string()
            .contains("empty side"));
        assert!(DataError::MissingClass.to_string().contains("class"));
    }

    #[test]
    fn from_linalg_preserves_source() {
        let e: DataError = poisongame_linalg::LinalgError::EmptyInput.into();
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DataError>();
    }
}
