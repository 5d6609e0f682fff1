//! Error type for the tensor substrate.

use std::fmt;

/// Errors produced by tensor operations.
///
/// All fallible public functions in this crate return [`TensorError`] so that
/// callers can use `?` and error-handling libraries uniformly.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TensorError {
    /// The two operands have incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Human-readable operation name (e.g. `"matmul"`).
        op: &'static str,
        /// Shape of the left operand, `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right operand, `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// An index was out of bounds for the given dimension.
    IndexOutOfBounds {
        /// The offending index.
        index: usize,
        /// The dimension size it was checked against.
        len: usize,
    },
    /// A matrix was constructed from rows of unequal length.
    RaggedRows {
        /// Length of the first row.
        expected: usize,
        /// Length of the offending row.
        found: usize,
    },
    /// A dimension argument was zero where a positive size is required.
    EmptyDimension {
        /// Name of the offending dimension.
        what: &'static str,
    },
    /// A shape's element count `rows * cols` does not fit in `usize`.
    ShapeOverflow {
        /// Requested number of rows.
        rows: usize,
        /// Requested number of columns.
        cols: usize,
    },
    /// A quantization parameter was invalid (e.g. unsupported bit width).
    InvalidQuantization {
        /// Explanation of the failure.
        reason: String,
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            TensorError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for length {len}")
            }
            TensorError::RaggedRows { expected, found } => write!(
                f,
                "ragged rows: expected row length {expected}, found {found}"
            ),
            TensorError::EmptyDimension { what } => {
                write!(f, "dimension `{what}` must be non-zero")
            }
            TensorError::ShapeOverflow { rows, cols } => {
                write!(f, "a {rows}x{cols} shape overflows the element count")
            }
            TensorError::InvalidQuantization { reason } => {
                write!(f, "invalid quantization: {reason}")
            }
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let err = TensorError::ShapeMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        let msg = err.to_string();
        assert!(msg.contains("matmul"));
        assert!(msg.contains("2x3"));
        assert!(msg.contains("4x5"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }

    #[test]
    fn all_variants_display_nonempty() {
        let errs: Vec<TensorError> = vec![
            TensorError::IndexOutOfBounds { index: 7, len: 3 },
            TensorError::RaggedRows {
                expected: 4,
                found: 2,
            },
            TensorError::EmptyDimension { what: "rows" },
            TensorError::InvalidQuantization {
                reason: "bit width 3 unsupported".to_string(),
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
