//! Errors reported by the query-processing layer.

/// A syntax error produced by the textual query parser, carrying the byte
/// span of the offending token in the original query string.
///
/// The [`std::fmt::Display`] impl renders the error caret-style under the
/// query line, so `eprintln!("{err}")` shows exactly where parsing stopped:
///
/// ```text
/// parse error at byte 27: expected `)`
///   FIND Sites WHERE KNN(5, 10 20)
///                              ^^
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What the parser expected or rejected.
    pub message: String,
    /// The query text being parsed (kept for caret rendering).
    pub query: String,
    /// Byte offset where the offending token starts.
    pub start: usize,
    /// Byte offset one past the offending token (`start == end` at EOF).
    pub end: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "parse error at byte {}: {}", self.start, self.message)?;
        writeln!(f, "  {}", self.query)?;
        let pad = self.query[..self.start.min(self.query.len())]
            .chars()
            .count();
        let width = self.query[self.start.min(self.query.len())..self.end.min(self.query.len())]
            .chars()
            .count()
            .max(1);
        write!(f, "  {}{}", " ".repeat(pad), "^".repeat(width))
    }
}

impl std::error::Error for ParseError {}

/// Errors produced while building, validating or executing query plans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// A kNN predicate was given `k = 0`.
    ZeroK {
        /// Which predicate had the zero k (for diagnostics).
        predicate: &'static str,
    },
    /// A plan transformation was rejected because it would change the query's
    /// result (e.g. pushing a kNN-select below the inner relation of a
    /// kNN-join, Section 3 of the paper).
    InvalidTransformation {
        /// Human-readable explanation of why the transformation is invalid.
        reason: String,
    },
    /// The plan references a relation that was not supplied to the executor.
    UnknownRelation {
        /// Name of the missing relation.
        name: String,
    },
    /// The plan's shape does not match any supported two-predicate query.
    UnsupportedPlanShape {
        /// Human-readable description of the offending shape.
        description: String,
    },
    /// A continuous-query call referenced a subscription id that was never
    /// issued or has been unsubscribed.
    UnknownSubscription {
        /// The raw subscription id.
        id: u64,
    },
    /// A read-your-writes fence
    /// ([`Database::sync`](crate::plan::Database::sync)) timed out: the
    /// subscription did not reflect the requested version in time.
    SyncTimeout {
        /// The raw subscription id.
        id: u64,
        /// The version the fence waited for.
        min_version: u64,
    },
    /// A textual query failed to parse.
    Parse(ParseError),
}

impl From<ParseError> for QueryError {
    fn from(err: ParseError) -> Self {
        QueryError::Parse(err)
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::ZeroK { predicate } => {
                write!(f, "kNN predicate `{predicate}` must have k >= 1")
            }
            QueryError::InvalidTransformation { reason } => {
                write!(f, "invalid plan transformation: {reason}")
            }
            QueryError::UnknownRelation { name } => write!(f, "unknown relation `{name}`"),
            QueryError::UnsupportedPlanShape { description } => {
                write!(f, "unsupported plan shape: {description}")
            }
            QueryError::UnknownSubscription { id } => {
                write!(f, "unknown subscription `sub#{id}`")
            }
            QueryError::SyncTimeout { id, min_version } => write!(
                f,
                "subscription `sub#{id}` did not reflect version {min_version} in time"
            ),
            QueryError::Parse(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Parse(err) => Some(err),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(QueryError::ZeroK { predicate: "join" }
            .to_string()
            .contains("join"));
        assert!(QueryError::InvalidTransformation { reason: "x".into() }
            .to_string()
            .contains("invalid"));
        assert!(QueryError::UnknownRelation {
            name: "Hotels".into()
        }
        .to_string()
        .contains("Hotels"));
        assert!(QueryError::UnsupportedPlanShape {
            description: "three joins".into()
        }
        .to_string()
        .contains("three joins"));
        assert!(QueryError::UnknownSubscription { id: 9 }
            .to_string()
            .contains("sub#9"));
        assert!(QueryError::SyncTimeout {
            id: 4,
            min_version: 12
        }
        .to_string()
        .contains("version 12"));
    }

    #[test]
    fn parse_error_renders_a_caret_under_the_span() {
        let err = ParseError {
            message: "expected `)`".into(),
            query: "FIND Sites WHERE KNN(5, 10 20)".into(),
            start: 27,
            end: 29,
        };
        let rendered = err.to_string();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("byte 27"));
        assert!(lines[0].contains("expected `)`"));
        assert_eq!(lines[1], "  FIND Sites WHERE KNN(5, 10 20)");
        assert_eq!(lines[2], &format!("  {}^^", " ".repeat(27)));

        // At EOF the span is empty but the caret still renders.
        let eof = ParseError {
            message: "unexpected end of query".into(),
            query: "FIND".into(),
            start: 4,
            end: 4,
        };
        assert!(eof.to_string().ends_with('^'));

        // Folds into QueryError with the same rendering and a source chain.
        let wrapped: QueryError = err.clone().into();
        assert_eq!(wrapped.to_string(), err.to_string());
        assert!(std::error::Error::source(&wrapped).is_some());
    }
}
