//! Error type shared by all numerical routines in this crate.

use std::error::Error;
use std::fmt;

/// Errors produced by linear-algebra routines.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// A matrix was expected to be square but is not.
    NotSquare {
        /// Number of rows of the offending matrix.
        rows: usize,
        /// Number of columns of the offending matrix.
        cols: usize,
    },
    /// Two operands have incompatible dimensions.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        operation: &'static str,
        /// Dimension expected by the operation.
        expected: usize,
        /// Dimension actually provided.
        actual: usize,
    },
    /// The matrix is singular (or numerically singular) and cannot be factorised.
    SingularMatrix,
    /// A matrix was constructed from rows of differing lengths.
    RaggedRows,
    /// An index was out of bounds.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The container length.
        len: usize,
    },
    /// An invalid value (NaN / infinite coefficient) was supplied.
    InvalidValue {
        /// Description of where the invalid value appeared.
        context: &'static str,
    },
    /// An index or entry count does not fit the compact (`u32`) sparse
    /// storage. Surfaced instead of silently wrapping when a caller hands a
    /// topology with more than `u32::MAX` rows, columns or entries to the
    /// checked `usize` build paths.
    IndexOverflow {
        /// The offending index or count.
        value: usize,
        /// The largest value the compact storage can represent.
        limit: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix is not square ({rows}x{cols})")
            }
            LinalgError::DimensionMismatch {
                operation,
                expected,
                actual,
            } => write!(
                f,
                "dimension mismatch in {operation}: expected {expected}, got {actual}"
            ),
            LinalgError::SingularMatrix => write!(f, "matrix is singular"),
            LinalgError::RaggedRows => write!(f, "rows have differing lengths"),
            LinalgError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
            LinalgError::InvalidValue { context } => {
                write!(f, "invalid value (NaN or infinity) in {context}")
            }
            LinalgError::IndexOverflow { value, limit } => {
                write!(
                    f,
                    "index or count {value} exceeds the compact sparse-storage limit {limit}"
                )
            }
        }
    }
}

impl Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_meaningful() {
        let cases: Vec<(LinalgError, &str)> = vec![
            (LinalgError::NotSquare { rows: 2, cols: 3 }, "not square"),
            (
                LinalgError::DimensionMismatch {
                    operation: "matvec",
                    expected: 3,
                    actual: 2,
                },
                "matvec",
            ),
            (LinalgError::SingularMatrix, "singular"),
            (LinalgError::RaggedRows, "differing lengths"),
            (
                LinalgError::IndexOutOfBounds { index: 5, len: 3 },
                "out of bounds",
            ),
            (
                LinalgError::InvalidValue {
                    context: "objective",
                },
                "objective",
            ),
            (
                LinalgError::IndexOverflow {
                    value: 5_000_000_000,
                    limit: u32::MAX as usize,
                },
                "5000000000",
            ),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "{err} should mention {needle}"
            );
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
