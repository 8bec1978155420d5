//! Network error type.

use std::error::Error;
use std::fmt;

use crate::wire::WireError;

/// Errors surfaced by the simulated network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// No service is registered under this name.
    ServiceNotFound(String),
    /// The message was dropped by fault injection.
    Dropped(String),
    /// The service is partitioned away.
    Partitioned(String),
    /// The service rejected the request (application-level error payload).
    Rejected(String),
    /// The response could not be decoded.
    Malformed(WireError),
    /// The per-service circuit breaker is open: the call was refused
    /// locally without touching the network.
    CircuitOpen(String),
}

impl NetError {
    /// Whether no owner answered: a transport fault or a breaker's refusal,
    /// not a rejection or an undecodable reply.
    pub fn is_fault(&self) -> bool {
        matches!(
            self,
            NetError::Dropped(_)
                | NetError::Partitioned(_)
                | NetError::ServiceNotFound(_)
                | NetError::CircuitOpen(_)
        )
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::ServiceNotFound(s) => write!(f, "service not found: {s}"),
            NetError::Dropped(s) => write!(f, "message to {s} dropped"),
            NetError::Partitioned(s) => write!(f, "service partitioned: {s}"),
            NetError::Rejected(msg) => write!(f, "request rejected: {msg}"),
            NetError::Malformed(e) => write!(f, "malformed response: {e}"),
            NetError::CircuitOpen(s) => write!(f, "circuit breaker open for {s}"),
        }
    }
}

impl Error for NetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NetError::Malformed(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Malformed(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_err<T: Error + Send + Sync + 'static>() {}
        assert_err::<NetError>();
    }

    #[test]
    fn malformed_has_source() {
        let e = NetError::from(WireError::UnexpectedEnd);
        assert!(e.source().is_some());
    }
}
