//! The typed error surface of the public API.
//!
//! The harness historically treated every contract violation as a
//! panic ("the harness is the referee"). That remains true for the
//! audited batch runners — a buggy algorithm should abort an
//! experiment — but the streaming [`crate::Session`] API converts the
//! same violations into [`AcmrError`] values so that services embedding
//! the engine can reject one misbehaving stream without crashing the
//! process.

use std::fmt;

/// Everything that can go wrong at the public API boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AcmrError {
    /// An algorithm spec string (e.g. `aag-weighted?seed=7`) failed to
    /// parse.
    SpecParse {
        /// The offending input.
        input: String,
        /// What was wrong with it.
        reason: String,
    },
    /// A spec named an algorithm no registry entry matches.
    UnknownAlgorithm {
        /// The requested name.
        name: String,
        /// Names that are registered, for the error message.
        known: Vec<String>,
    },
    /// A spec parameter existed but its value could not be used.
    BadParam {
        /// Parameter key.
        key: String,
        /// Offending value.
        value: String,
        /// Why it was rejected.
        reason: String,
    },
    /// An online algorithm broke its contract mid-stream (capacity
    /// violation, phantom preemption, self-preemption). The message
    /// is phrased exactly like the historical harness panics so logs
    /// stay greppable.
    ContractViolation {
        /// Name of the offending algorithm.
        algorithm: String,
        /// Violation description.
        detail: String,
    },
    /// The session was already poisoned by an earlier contract
    /// violation; no further arrivals are accepted.
    SessionPoisoned,
    /// An instance or request was structurally invalid for this
    /// session (e.g. an edge id beyond the capacity vector).
    InvalidRequest {
        /// What was wrong.
        reason: String,
    },
    /// A trace stream failed to parse (see `docs/TRACE_FORMAT.md` for
    /// the grammar). Produced by streaming trace readers; carries the
    /// 1-based line number so a multi-gigabyte input is still
    /// debuggable.
    TraceParse {
        /// 1-based line of the offending input.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// An underlying I/O operation failed while streaming a trace
    /// (read error, unreadable file, failed spill). The `io::Error` is
    /// carried as text so this type stays `Clone + PartialEq`.
    Io {
        /// Human-readable description including the OS error.
        message: String,
    },
    /// A serving endpoint refused new work because it is over its
    /// configured capacity (connection cap, accept-queue cap). Clients
    /// should treat this as transient back-pressure — retry later or
    /// against another worker — unlike the other variants, which are
    /// either permanent or caller bugs.
    Busy {
        /// What capacity was exhausted.
        message: String,
    },
    /// An `acmr serve` peer replied with a protocol-level `ERR` frame
    /// (see `docs/SERVING.md`). The server maps its own [`AcmrError`]
    /// onto a stable wire code; the client surfaces the reply as this
    /// variant, so a remote failure is still a typed error.
    Remote {
        /// Stable wire error code (e.g. `parse`, `violation`, `proto`).
        code: String,
        /// The server's human-readable description.
        message: String,
    },
}

impl fmt::Display for AcmrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcmrError::SpecParse { input, reason } => {
                write!(f, "cannot parse algorithm spec {input:?}: {reason}")
            }
            AcmrError::UnknownAlgorithm { name, known } => {
                write!(
                    f,
                    "unknown algorithm {name:?} (registered: {})",
                    known.join(", ")
                )
            }
            AcmrError::BadParam { key, value, reason } => {
                write!(f, "bad parameter {key}={value:?}: {reason}")
            }
            AcmrError::ContractViolation { algorithm, detail } => {
                write!(f, "{algorithm}: {detail}")
            }
            AcmrError::SessionPoisoned => {
                write!(f, "session poisoned by an earlier contract violation")
            }
            AcmrError::InvalidRequest { reason } => {
                write!(f, "invalid request: {reason}")
            }
            AcmrError::TraceParse { line, message } => {
                write!(
                    f,
                    "trace parse error at line {line}: {message} (format spec: docs/TRACE_FORMAT.md)"
                )
            }
            AcmrError::Io { message } => {
                write!(f, "trace i/o error: {message}")
            }
            AcmrError::Busy { message } => {
                write!(f, "server over capacity: {message}")
            }
            AcmrError::Remote { code, message } => {
                write!(f, "server error [{code}]: {message}")
            }
        }
    }
}

impl From<std::io::Error> for AcmrError {
    fn from(e: std::io::Error) -> Self {
        AcmrError::Io {
            message: e.to_string(),
        }
    }
}

impl std::error::Error for AcmrError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_greppable() {
        let e = AcmrError::ContractViolation {
            algorithm: "aag".into(),
            detail: "accepting request 3 violates a capacity".into(),
        };
        assert!(e.to_string().contains("violates a capacity"));
        let e = AcmrError::UnknownAlgorithm {
            name: "nope".into(),
            known: vec!["a".into(), "b".into()],
        };
        assert!(e.to_string().contains("nope"));
        assert!(e.to_string().contains("a, b"));
    }

    #[test]
    fn trace_errors_carry_line_and_format_pointer() {
        let e = AcmrError::TraceParse {
            line: 41,
            message: "bad cost NaN".into(),
        };
        assert!(e.to_string().contains("line 41"));
        assert!(e.to_string().contains("docs/TRACE_FORMAT.md"));
        let e: AcmrError =
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "pipe closed").into();
        assert!(matches!(&e, AcmrError::Io { message } if message.contains("pipe closed")));
    }

    #[test]
    fn remote_errors_carry_wire_code() {
        let e = AcmrError::Remote {
            code: "violation".into(),
            message: "accepting request 3 violates a capacity".into(),
        };
        assert!(e.to_string().contains("server error [violation]"));
        assert!(e.to_string().contains("violates a capacity"));
    }
}
