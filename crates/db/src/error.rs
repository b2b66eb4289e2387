use std::error::Error;
use std::fmt;

/// Errors produced by the design database.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DbError {
    /// A text-format parse failed; carries file kind, line number (1-based)
    /// and a description of what went wrong.
    Parse {
        /// Which format/file was being parsed (e.g. `"nodes"`, `"scl"`).
        format: String,
        /// 1-based line number of the offending line (0 when unknown).
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// An I/O error while reading or writing a design file.
    Io(String),
    /// A reference to an undefined cell name.
    UnknownCell(String),
    /// A design failed validation; describes the violated invariant.
    InvalidDesign(String),
    /// A synthesis specification was inconsistent.
    InvalidSpec(String),
}

impl DbError {
    /// Convenience constructor for parse errors.
    pub fn parse(format: &str, line: usize, message: impl Into<String>) -> Self {
        DbError::Parse {
            format: format.to_string(),
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Parse {
                format,
                line,
                message,
            } => {
                write!(f, "{format} parse error at line {line}: {message}")
            }
            DbError::Io(msg) => write!(f, "i/o error: {msg}"),
            DbError::UnknownCell(name) => write!(f, "reference to undefined cell `{name}`"),
            DbError::InvalidDesign(msg) => write!(f, "invalid design: {msg}"),
            DbError::InvalidSpec(msg) => write!(f, "invalid synthesis spec: {msg}"),
        }
    }
}

impl Error for DbError {}

impl From<std::io::Error> for DbError {
    fn from(err: std::io::Error) -> Self {
        DbError::Io(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = DbError::parse("nodes", 17, "expected a width");
        let msg = e.to_string();
        assert!(msg.contains("nodes") && msg.contains("17") && msg.contains("width"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: DbError = io.into();
        assert!(e.to_string().contains("gone"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Send + Sync + std::error::Error>() {}
        assert_bounds::<DbError>();
    }
}
