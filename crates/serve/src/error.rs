//! Error type of the serving tier.

use std::fmt;
use sv_core::wire::{BusyReason, ServeFault, WireError};
use sv_core::CoreError;

/// Everything that can go wrong on the client or registry side of the
/// serving tier.
///
/// Two variants deserve emphasis because they are part of the serving
/// *contract*, not exceptional conditions:
///
/// * [`ServeError::Busy`] — admission control bounced the frame
///   (backpressure). Tenant state was not touched; the client retries
///   later or shrinks its batch.
/// * [`ServeError::Fault`] with [`ServeFault::StaleEpoch`] — an
///   epoch-conditioned probe raced an ingest. The whole batch was
///   rejected atomically; the client re-reads epochs and retries.
#[derive(Debug)]
pub enum ServeError {
    /// A transport I/O failure (socket read/write, connect).
    Io(std::io::Error),
    /// A framing/encoding failure (corrupt or truncated payload).
    Wire(WireError),
    /// A privacy-core failure during tenant registration
    /// (materialization budget, structural workflow errors).
    Core(CoreError),
    /// [`TenantRegistry::create`](crate::TenantRegistry::create)
    /// was asked for an id that is already registered.
    DuplicateTenant {
        /// The already-registered tenant id.
        tenant: u64,
    },
    /// [`TenantRegistry::create`](crate::TenantRegistry::create) was
    /// asked to serve a workflow with no attributes, whose every row
    /// would be empty.
    EmptyWorkflow {
        /// The tenant id the registration named.
        tenant: u64,
    },
    /// The server applied backpressure: admission control rejected the
    /// frame without touching tenant state.
    Busy(BusyReason),
    /// The server answered with a typed fault (unknown tenant/module,
    /// stale epoch, rejected ingest row, malformed frame).
    Fault(ServeFault),
    /// The server's reply did not match the request kind — a protocol
    /// bug, not a recoverable condition.
    UnexpectedReply,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "transport I/O error: {e}"),
            Self::Wire(e) => write!(f, "wire error: {e}"),
            Self::Core(e) => write!(f, "core error: {e}"),
            Self::DuplicateTenant { tenant } => {
                write!(f, "tenant {tenant} is already registered")
            }
            Self::EmptyWorkflow { tenant } => {
                write!(
                    f,
                    "tenant {tenant}: a workflow with no attributes cannot be served"
                )
            }
            Self::Busy(reason) => write!(f, "server busy: {reason}"),
            Self::Fault(fault) => write!(f, "server fault: {fault}"),
            Self::UnexpectedReply => write!(f, "reply kind does not match the request"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Wire(e) => Some(e),
            Self::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        Self::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ServeError::DuplicateTenant { tenant: 3 };
        assert!(e.to_string().contains('3'));
        let e = ServeError::Busy(BusyReason::BatchRequests { got: 9, limit: 4 });
        assert!(e.to_string().contains("busy"));
        let e: ServeError = WireError::Truncated.into();
        assert!(std::error::Error::source(&e).is_some());
        let e: ServeError = std::io::Error::other("x").into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
