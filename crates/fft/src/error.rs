use std::error::Error;
use std::fmt;

/// Errors produced by the spectral transforms in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FftError {
    /// The transform length must be a power of two; the offending length is
    /// carried in the error.
    NotPowerOfTwo(usize),
    /// The transform length must be nonzero.
    EmptyLength,
    /// The supplied buffer length does not match the plan length.
    LengthMismatch {
        /// Length the plan was created for.
        expected: usize,
        /// Length of the buffer that was actually supplied.
        actual: usize,
    },
    /// A 2-D grid did not match the solver's dimensions.
    GridMismatch {
        /// Expected `(nx, ny)` dimensions.
        expected: (usize, usize),
        /// Actual `(nx, ny)` dimensions.
        actual: (usize, usize),
    },
    /// A solver grid side exceeds [`crate::MAX_GRID_SIDE`] (or its sample
    /// count overflows `usize`).
    GridTooLarge {
        /// Requested `(nx, ny)` dimensions.
        dims: (usize, usize),
        /// The largest accepted side.
        max: usize,
    },
}

impl fmt::Display for FftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FftError::NotPowerOfTwo(n) => {
                write!(f, "transform length {n} is not a power of two")
            }
            FftError::EmptyLength => write!(f, "transform length must be nonzero"),
            FftError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "buffer length {actual} does not match plan length {expected}"
                )
            }
            FftError::GridMismatch { expected, actual } => write!(
                f,
                "grid dimensions {}x{} do not match solver dimensions {}x{}",
                actual.0, actual.1, expected.0, expected.1
            ),
            FftError::GridTooLarge { dims, max } => write!(
                f,
                "grid dimensions {}x{} exceed the maximum side of {max} bins",
                dims.0, dims.1
            ),
        }
    }
}

impl Error for FftError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let msg = FftError::NotPowerOfTwo(48).to_string();
        assert!(msg.contains("48"));
        assert!(msg.starts_with(char::is_lowercase));
        let msg = FftError::LengthMismatch {
            expected: 8,
            actual: 9,
        }
        .to_string();
        assert!(msg.contains('8') && msg.contains('9'));
        let msg = FftError::GridMismatch {
            expected: (4, 4),
            actual: (2, 8),
        }
        .to_string();
        assert!(msg.contains("2x8") && msg.contains("4x4"));
        let msg = FftError::GridTooLarge {
            dims: (65536, 65536),
            max: 1024,
        }
        .to_string();
        assert!(msg.contains("65536x65536") && msg.contains("1024"));
        assert!(!FftError::EmptyLength.to_string().is_empty());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Send + Sync + std::error::Error>() {}
        assert_bounds::<FftError>();
    }
}
