use std::error::Error;
use std::fmt;

/// Error type returned by fallible tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The number of elements does not match the requested shape.
    ShapeDataMismatch {
        /// Number of elements provided.
        elements: usize,
        /// Number of elements the shape requires.
        expected: usize,
    },
    /// Two tensors had incompatible shapes for the attempted operation.
    ShapeMismatch {
        /// Shape of the left-hand operand.
        lhs: Vec<usize>,
        /// Shape of the right-hand operand.
        rhs: Vec<usize>,
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// An index was out of bounds for the tensor shape.
    IndexOutOfBounds {
        /// The offending index.
        index: Vec<usize>,
        /// The tensor shape.
        shape: Vec<usize>,
    },
    /// The tensor did not have the expected rank (number of dimensions).
    RankMismatch {
        /// Expected rank.
        expected: usize,
        /// Actual rank.
        actual: usize,
        /// Name of the operation that failed.
        op: &'static str,
    },
    /// A geometry parameter (kernel size, stride, padding) was invalid.
    InvalidGeometry(String),
    /// The `NRSNN_SIMD` backend override held an unrecognised value, or one
    /// that is not valid Unicode, reported lossily (see
    /// [`crate::simd::parse_override`]).
    InvalidSimdOverride(String),
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeDataMismatch { elements, expected } => write!(
                f,
                "data has {elements} elements but shape requires {expected}"
            ),
            TensorError::ShapeMismatch { lhs, rhs, op } => {
                write!(f, "shape mismatch in {op}: {lhs:?} vs {rhs:?}")
            }
            TensorError::IndexOutOfBounds { index, shape } => {
                write!(f, "index {index:?} out of bounds for shape {shape:?}")
            }
            TensorError::RankMismatch {
                expected,
                actual,
                op,
            } => write!(f, "{op} expects rank {expected}, got rank {actual}"),
            TensorError::InvalidGeometry(msg) => write!(f, "invalid geometry: {msg}"),
            TensorError::InvalidSimdOverride(value) => write!(
                f,
                "invalid NRSNN_SIMD value {value:?}: expected scalar, avx2 or auto"
            ),
        }
    }
}

impl Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_data_mismatch() {
        let err = TensorError::ShapeDataMismatch {
            elements: 3,
            expected: 4,
        };
        assert_eq!(err.to_string(), "data has 3 elements but shape requires 4");
    }

    #[test]
    fn display_shape_mismatch() {
        let err = TensorError::ShapeMismatch {
            lhs: vec![2, 3],
            rhs: vec![4, 5],
            op: "matmul",
        };
        assert!(err.to_string().contains("matmul"));
        assert!(err.to_string().contains("[2, 3]"));
    }

    #[test]
    fn display_invalid_simd_override() {
        let err = TensorError::InvalidSimdOverride("avx512".to_string());
        let msg = err.to_string();
        assert!(msg.contains("NRSNN_SIMD"));
        assert!(msg.contains("avx512"));
        assert!(msg.contains("scalar"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
