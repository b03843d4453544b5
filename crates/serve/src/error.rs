//! Typed failures of the serving layer.

use numa_faults::FaultError;
use numio_core::{AtlasError, PlatformError, RecheckError, StorageError};
use std::fmt;

/// Everything the serving layer can fail with. Per the workspace's
/// fallible-API contract nothing in `numa-serve` panics on user input:
/// malformed requests, missing models, and backend failures all surface
/// here (and as `Error` JSON replies on the wire).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// A characterization probe failed ([`numio_core::Platform`]).
    Platform(PlatformError),
    /// Building the cached atlas failed.
    Atlas(AtlasError),
    /// Applying a fault view to the backend failed.
    Fault(FaultError),
    /// A drift re-check against the live backend failed.
    Recheck(RecheckError),
    /// Producing a storage-tier model failed (no fabric, no SSDs, or the
    /// underlying probe characterization).
    Storage(StorageError),
    /// The operation needs a simulator fabric the backend does not expose
    /// (e.g. `place` on a replay or host backend).
    NoFabric {
        /// Label of the fabric-less backend.
        label: String,
    },
    /// The request was structurally valid JSON but semantically wrong
    /// (empty mix, zero counts, unknown node, ...).
    BadRequest {
        /// What was wrong.
        reason: String,
    },
    /// A wire line did not parse as a request/response.
    Protocol {
        /// The parser error text.
        reason: String,
    },
    /// A socket operation failed.
    Io {
        /// The I/O error text.
        reason: String,
    },
    /// The server refused the connection: too many are already open.
    Overloaded {
        /// The configured connection limit.
        limit: usize,
    },
    /// The server answered a typed helper call (e.g.
    /// [`Client::predict_batch`](crate::Client::predict_batch)) with an
    /// `error` reply instead of the expected response.
    Remote {
        /// The server's error message, verbatim.
        message: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Platform(e) => write!(f, "platform: {e}"),
            ServeError::Atlas(e) => write!(f, "atlas: {e}"),
            ServeError::Fault(e) => write!(f, "fault view: {e}"),
            ServeError::Recheck(e) => write!(f, "drift recheck: {e}"),
            ServeError::Storage(e) => write!(f, "storage: {e}"),
            ServeError::NoFabric { label } => write!(
                f,
                "backend '{label}' exposes no simulator fabric; `place` needs a sim backend"
            ),
            ServeError::BadRequest { reason } => write!(f, "bad request: {reason}"),
            ServeError::Protocol { reason } => write!(f, "protocol: {reason}"),
            ServeError::Io { reason } => write!(f, "io: {reason}"),
            ServeError::Overloaded { limit } => {
                write!(
                    f,
                    "overloaded: connection limit {limit} reached, try again later"
                )
            }
            ServeError::Remote { message } => write!(f, "server error: {message}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Platform(e) => Some(e),
            ServeError::Atlas(e) => Some(e),
            ServeError::Fault(e) => Some(e),
            ServeError::Recheck(e) => Some(e),
            ServeError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PlatformError> for ServeError {
    fn from(e: PlatformError) -> Self {
        ServeError::Platform(e)
    }
}

impl From<AtlasError> for ServeError {
    fn from(e: AtlasError) -> Self {
        ServeError::Atlas(e)
    }
}

impl From<FaultError> for ServeError {
    fn from(e: FaultError) -> Self {
        ServeError::Fault(e)
    }
}

impl From<RecheckError> for ServeError {
    fn from(e: RecheckError) -> Self {
        ServeError::Recheck(e)
    }
}

impl From<StorageError> for ServeError {
    fn from(e: StorageError) -> Self {
        ServeError::Storage(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io {
            reason: e.to_string(),
        }
    }
}

impl From<numa_par::json::Error> for ServeError {
    fn from(e: numa_par::json::Error) -> Self {
        ServeError::Protocol {
            reason: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_failing_stage() {
        let e = ServeError::NoFabric {
            label: "replay:f.jsonl".into(),
        };
        assert!(e.to_string().contains("replay:f.jsonl"));
        let e: ServeError = PlatformError::ZeroReps.into();
        assert!(matches!(e, ServeError::Platform(PlatformError::ZeroReps)));
        let e = ServeError::Overloaded { limit: 4 };
        assert!(e.to_string().contains("connection limit 4"));
        let e = ServeError::Remote {
            message: "bad request: empty mix".into(),
        };
        assert!(e.to_string().contains("server error: bad request"));
    }

    #[test]
    fn source_chains_to_the_layer_error() {
        use std::error::Error as _;
        let e: ServeError = AtlasError::Empty.into();
        assert!(e.source().is_some());
        assert!(ServeError::BadRequest { reason: "x".into() }
            .source()
            .is_none());
    }
}
