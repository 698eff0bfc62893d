//! A typed client over any [`Transport`].
//!
//! [`Client`] turns the framed request/response protocol back into the
//! vocabulary of the privacy core: probe batches in, probe outcomes
//! out. Server-side pushback surfaces as typed errors —
//! [`ServeError::Busy`] for admission rejections and
//! [`ServeError::Fault`] for tenancy/epoch faults — so callers can
//! write retry loops against the backpressure contract instead of
//! parsing payloads.

use crate::error::ServeError;
use crate::tenant::TenantId;
use crate::transport::{Connection, Transport};
use sv_core::safety::{ProbeOutcome, ProbeRequest};
use sv_core::wire::{IngestReceipt, ModuleEpoch, Request, Response};
use sv_relation::Value;

/// One connection's worth of typed protocol operations. Open one per
/// client thread ([`Connection`]s are not shared).
pub struct Client {
    conn: Box<dyn Connection>,
}

impl Client {
    /// Opens a connection through `transport`.
    ///
    /// # Errors
    /// Propagates the transport's connect failure.
    pub fn connect(transport: &dyn Transport) -> Result<Self, ServeError> {
        Ok(Self {
            conn: transport.connect()?,
        })
    }

    fn exchange(&mut self, payload: &[u8]) -> Result<Response, ServeError> {
        let reply = self.conn.request(payload)?;
        match Response::decode(&reply)? {
            Response::Busy(reason) => Err(ServeError::Busy(reason)),
            Response::Error(fault) => Err(ServeError::Fault(fault)),
            resp => Ok(resp),
        }
    }

    /// Sends one probe batch and returns its outcomes (one per request,
    /// in order).
    ///
    /// # Errors
    /// [`ServeError::Busy`] under backpressure, [`ServeError::Fault`]
    /// for unknown tenant/module or a stale epoch (the whole batch is
    /// rejected atomically), I/O and wire failures otherwise.
    pub fn probe(
        &mut self,
        tenant: TenantId,
        probes: &[ProbeRequest],
    ) -> Result<Vec<ProbeOutcome>, ServeError> {
        // Hot path: encode straight from the slice, no Request built.
        let payload = Request::encode_probe(tenant.0, probes);
        match self.exchange(&payload)? {
            Response::Probe(outcomes) => Ok(outcomes),
            _ => Err(ServeError::UnexpectedReply),
        }
    }

    /// Ingests one frame of execution rows atomically into the
    /// tenant's store; returns a [`IngestReceipt`] carrying the rows
    /// added, the post-frame epochs, and the durable sequence covering
    /// the frame (`0` when the server has no durability configured).
    ///
    /// # Errors
    /// [`ServeError::Busy`] under backpressure; [`ServeError::Fault`]
    /// with `Rejected { applied: 0, .. }` when any row fails — the
    /// frame is all-or-nothing, nothing was applied.
    pub fn ingest(
        &mut self,
        tenant: TenantId,
        rows: &[Vec<Value>],
    ) -> Result<IngestReceipt, ServeError> {
        let payload = Request::Ingest {
            tenant: tenant.0,
            rows: rows.to_vec(),
        }
        .encode();
        match self.exchange(&payload)? {
            Response::Receipt(receipt) => Ok(receipt),
            _ => Err(ServeError::UnexpectedReply),
        }
    }

    /// Reads the tenant's current per-module epochs (to condition
    /// subsequent probes with [`ProbeRequest::at_epoch`]).
    ///
    /// # Errors
    /// [`ServeError::Fault`] for an unknown tenant, I/O and wire
    /// failures otherwise.
    pub fn epochs(&mut self, tenant: TenantId) -> Result<Vec<ModuleEpoch>, ServeError> {
        let payload = Request::Epochs { tenant: tenant.0 }.encode();
        match self.exchange(&payload)? {
            Response::Epochs(epochs) => Ok(epochs),
            _ => Err(ServeError::UnexpectedReply),
        }
    }
}
