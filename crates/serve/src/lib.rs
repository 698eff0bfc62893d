//! # sv-serve — the provenance-privacy serving tier
//!
//! Layer 5 of the stack: a multi-tenant server that answers Γ-privacy
//! safety probes for *many* workflows at once, over a framed
//! request/response protocol.
//!
//! Davidson et al. (PODS 2011) define when a view of workflow
//! provenance keeps each module Γ-private; the layers below this one
//! decide single probes ([`sv_core`]), batches, and whole view-lattice
//! frontiers. This crate is where those engines meet callers that
//! live outside the process:
//!
//! * [`TenantRegistry`] — many workflows, each a [`Tenant`] with its
//!   own warm [`WorkflowOracles`](sv_core::safety::WorkflowOracles),
//!   per-module epochs, admission limits, and serving stats.
//! * [`Server`] — the transport-agnostic dispatcher: decode → admit →
//!   serve → encode, never panicking on client input.
//! * [`Transport`] — how frames travel: [`LoopbackTransport`]
//!   (in-process, deterministic) and [`SocketTransport`] /
//!   [`SocketServer`] (local stream sockets, thread-per-core accept
//!   loop).
//! * [`Client`] — the typed view: `probe` / `ingest` / `epochs` with
//!   [`ServeError::Busy`] and [`ServeError::Fault`] surfacing the
//!   backpressure and epoch contracts.
//!
//! Probe traffic runs on shared oracles (per-module read locks, a
//! seqlock-published epoch vector); ingest frames are all-or-nothing:
//! validated up front, applied with per-module write locks (probes to
//! other modules proceed concurrently), then published atomically.
//! Durable servers route ingest through an [`IngestSink`] commit lane
//! that coalesces concurrent frames into group-commit fsyncs; the
//! [`Client`] receives an [`sv_core::wire::IngestReceipt`] whose
//! `durable_seq` covers the frame. The full protocol and operational
//! guide is `docs/SERVING.md`.
//!
//! ## Example
//! ```
//! use std::sync::Arc;
//! use sv_core::safety::ProbeRequest;
//! use sv_relation::AttrSet;
//! use sv_serve::{Client, LoopbackTransport, Server, TenantConfig, TenantId, TenantRegistry};
//! use sv_workflow::{library::one_one_chain, ModuleId};
//!
//! // Two tenants, two different workflows, one server.
//! let registry = Arc::new(TenantRegistry::new());
//! registry.create(TenantId(1), TenantConfig::new(&one_one_chain(2, 2)).budget(1 << 16))?;
//! registry.create(TenantId(2), TenantConfig::new(&one_one_chain(3, 2)).budget(1 << 16))?;
//! let transport = LoopbackTransport::new(Arc::new(Server::new(registry)));
//!
//! let mut client = Client::connect(&transport)?;
//! for tenant in [TenantId(1), TenantId(2)] {
//!     let outcomes = client.probe(
//!         tenant,
//!         &[ProbeRequest::new(ModuleId(0), AttrSet::from_indices(&[0, 1]), 2)],
//!     )?;
//!     assert_eq!(outcomes.len(), 1);
//! }
//! # Ok::<(), sv_serve::ServeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod error;
mod server;
mod tenant;
mod transport;

pub use client::Client;
pub use error::ServeError;
pub use server::{IngestSink, MemorySink, Server};
pub use sv_core::safety::IngestBatch;
pub use tenant::{
    AdmissionLimits, AdmissionPermit, BatchIngestError, BatchOutcome, Tenant, TenantConfig,
    TenantId, TenantRegistry, TenantStats, DEFAULT_MATERIALIZE_BUDGET,
};
pub use transport::{Connection, LoopbackTransport, Transport};
#[cfg(unix)]
pub use transport::{SocketServer, SocketTransport};
