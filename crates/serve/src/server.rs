//! The frame dispatcher: decode → admit → serve → encode.
//!
//! [`Server`] is transport-agnostic: every transport ultimately calls
//! [`Server::handle_frame`] with a decoded payload and writes back the
//! returned response payload. All tenancy, admission, and epoch
//! semantics live here, so the in-process loopback and the socket
//! accept loop are *guaranteed* to serve identically — the property
//! suite relies on this (`crates/serve/tests/tier_prop.rs`).

use crate::tenant::{BatchOutcome, Tenant, TenantId, TenantRegistry};
use std::sync::Arc;
use sv_core::safety::IngestBatch;
use sv_core::wire::{IngestReceipt, Request, Response, ServeFault};
use sv_core::CoreError;
use sv_relation::Tuple;

/// The commit-lane contract every serving flavour shares — loopback,
/// socket, and durable servers all route ingest through this pair:
///
/// * [`submit`](Self::submit) runs validate → (log) → apply → publish
///   for one frame and returns immediately — the frame is *applied*
///   but not necessarily durable;
/// * [`wait_durable`](Self::wait_durable) blocks until the frame is
///   covered by a sync, returning the covering durable sequence.
///
/// Both report a failure as the [`ServeFault`] the server sends the
/// client, unchanged. The in-memory sink ([`MemorySink`]) applies and
/// reports `durable_seq = 0` without waiting; the durable registry's
/// sink coalesces concurrent submissions into one group-commit fsync.
/// Probe and epoch traffic never touches the sink.
pub trait IngestSink: Send + Sync {
    /// Applies one ingest frame to `tenant`, returning its outcome,
    /// whose [`BatchOutcome::log_seq`] is the frame's position in the
    /// sink's durability order (0 = the sink is not durable).
    ///
    /// # Errors
    /// [`ServeFault::Rejected`] with `applied: 0` when the frame is
    /// rejected (validation) or the sink cannot log it; nothing was
    /// applied.
    fn submit(&self, tenant: &Arc<Tenant>, batch: IngestBatch) -> Result<BatchOutcome, ServeFault>;

    /// Blocks until `outcome`'s frame is durable, returning the
    /// covering durable sequence (`>= outcome.log_seq`; 0 for
    /// non-durable sinks).
    ///
    /// # Errors
    /// [`ServeFault::Rejected`] whose `applied` is the frame's `added`
    /// when the sync fails — the frame is applied in memory but **not**
    /// durable.
    fn wait_durable(&self, outcome: &BatchOutcome) -> Result<u64, ServeFault>;
}

/// The default sink: plain in-memory apply through
/// [`Tenant::ingest_batch`]; `wait_durable` returns 0 immediately
/// (nothing to sync).
#[derive(Clone, Copy, Debug, Default)]
pub struct MemorySink;

impl IngestSink for MemorySink {
    fn submit(&self, tenant: &Arc<Tenant>, batch: IngestBatch) -> Result<BatchOutcome, ServeFault> {
        tenant
            .ingest_batch(&batch)
            .map_err(|error| ServeFault::Rejected {
                applied: 0,
                detail: error.to_string(),
            })
    }

    fn wait_durable(&self, _outcome: &BatchOutcome) -> Result<u64, ServeFault> {
        Ok(0)
    }
}

/// The serving tier's request dispatcher. Cheap to share
/// (`Arc<Server>`); all state lives in the registry's tenants.
pub struct Server {
    registry: Arc<TenantRegistry>,
    ingest: Arc<dyn IngestSink>,
}

impl Server {
    /// Wraps a tenant registry with the in-memory [`MemorySink`].
    #[must_use]
    pub fn new(registry: Arc<TenantRegistry>) -> Self {
        Self {
            registry,
            ingest: Arc::new(MemorySink),
        }
    }

    /// Wraps a tenant registry with a custom [`IngestSink`] — the
    /// durable-serving constructor. Every transport (loopback and
    /// socket) dispatches through [`handle_frame`](Self::handle_frame),
    /// so installing the sink here covers them all.
    #[must_use]
    pub fn with_ingest_sink(registry: Arc<TenantRegistry>, sink: Arc<dyn IngestSink>) -> Self {
        Self {
            registry,
            ingest: sink,
        }
    }

    /// The registry behind this server (register/deregister tenants at
    /// runtime; the data plane picks changes up on its next frame).
    #[must_use]
    pub fn registry(&self) -> &Arc<TenantRegistry> {
        &self.registry
    }

    /// Serves one request payload (no length prefix), returning the
    /// response payload. **Never panics on client input**: malformed
    /// payloads, unknown tenants/modules, stale epochs, and admission
    /// rejections all come back as typed [`Response`] payloads.
    #[must_use]
    pub fn handle_frame(&self, payload: &[u8]) -> Vec<u8> {
        self.dispatch(payload).encode()
    }

    fn dispatch(&self, payload: &[u8]) -> Response {
        let request = match Request::decode(payload) {
            Ok(r) => r,
            Err(e) => {
                return Response::Error(ServeFault::Malformed {
                    detail: e.to_string(),
                })
            }
        };
        match request {
            Request::Probe { tenant, probes } => {
                let Some(t) = self.registry.get(TenantId(tenant)) else {
                    return Response::Error(ServeFault::UnknownTenant { tenant });
                };
                let permit = match t.try_admit(probes.len() as u64, payload.len() as u64) {
                    Ok(p) => p,
                    Err(reason) => return Response::Busy(reason),
                };
                // The read guard spans the whole batch: `probe_batch`
                // validates and answers atomically against one epoch
                // snapshot per module.
                let outcome = t.oracles().probe_batch(&probes);
                drop(permit);
                match outcome {
                    Ok(outcomes) => {
                        t.note_probe_frame(outcomes.len() as u64);
                        Response::Probe(outcomes)
                    }
                    Err(CoreError::MissingOracle { module }) => {
                        Response::Error(ServeFault::UnknownModule {
                            module: module as u32,
                        })
                    }
                    Err(CoreError::StaleEpoch {
                        module,
                        expected,
                        actual,
                    }) => Response::Error(ServeFault::StaleEpoch {
                        module: module as u32,
                        expected,
                        actual,
                    }),
                    // `probe_batch` raises no other variant; a future
                    // one still gets a typed answer, not a panic.
                    Err(e) => Response::Error(ServeFault::Rejected {
                        applied: 0,
                        detail: e.to_string(),
                    }),
                }
            }
            Request::Ingest { tenant, rows } => {
                let Some(t) = self.registry.get(TenantId(tenant)) else {
                    return Response::Error(ServeFault::UnknownTenant { tenant });
                };
                let permit = match t.try_admit(rows.len() as u64, payload.len() as u64) {
                    Ok(p) => p,
                    Err(reason) => return Response::Busy(reason),
                };
                let tuples: Vec<Tuple> = rows.into_iter().map(Tuple::new).collect();
                let result = self
                    .ingest
                    .submit(&t, IngestBatch::new(tuples))
                    .and_then(|outcome| {
                        let durable_seq = self.ingest.wait_durable(&outcome)?;
                        Ok(IngestReceipt {
                            added: outcome.added,
                            epochs: outcome.epochs,
                            durable_seq,
                        })
                    });
                drop(permit);
                result.map_or_else(Response::Error, Response::Receipt)
            }
            Request::Epochs { tenant } => match self.registry.get(TenantId(tenant)) {
                Some(t) => Response::Epochs(t.epochs()),
                None => Response::Error(ServeFault::UnknownTenant { tenant }),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tenant::{AdmissionLimits, TenantConfig};
    use sv_core::safety::ProbeRequest;
    use sv_core::wire::BusyReason;
    use sv_relation::AttrSet;
    use sv_workflow::{library::fig1_workflow, ModuleId};

    fn server_with_fig1() -> Server {
        let registry = Arc::new(TenantRegistry::new());
        registry
            .create(
                TenantId(1),
                TenantConfig::new(&fig1_workflow()).budget(1 << 20),
            )
            .unwrap();
        Server::new(registry)
    }

    fn roundtrip(server: &Server, req: &Request) -> Response {
        Response::decode(&server.handle_frame(&req.encode())).unwrap()
    }

    #[test]
    fn serves_example3_probe() {
        let server = server_with_fig1();
        let resp = roundtrip(
            &server,
            &Request::Probe {
                tenant: 1,
                probes: vec![
                    ProbeRequest::new(ModuleId(0), AttrSet::from_indices(&[0, 2, 4]), 4),
                    ProbeRequest::new(ModuleId(0), AttrSet::from_indices(&[0, 2, 4]), 8),
                ],
            },
        );
        let Response::Probe(outcomes) = resp else {
            panic!("expected probe outcomes, got {resp:?}");
        };
        assert!(outcomes[0].safe && !outcomes[1].safe);
    }

    #[test]
    fn unknown_tenant_module_and_malformed() {
        let server = server_with_fig1();
        assert_eq!(
            roundtrip(&server, &Request::Epochs { tenant: 99 }),
            Response::Error(ServeFault::UnknownTenant { tenant: 99 })
        );
        let resp = roundtrip(
            &server,
            &Request::Probe {
                tenant: 1,
                probes: vec![ProbeRequest::new(ModuleId(7), AttrSet::new(), 2)],
            },
        );
        assert_eq!(
            resp,
            Response::Error(ServeFault::UnknownModule { module: 7 })
        );
        let resp = Response::decode(&server.handle_frame(&[0xee])).unwrap();
        assert!(matches!(
            resp,
            Response::Error(ServeFault::Malformed { .. })
        ));
    }

    #[test]
    fn stale_epoch_is_a_typed_fault() {
        let server = server_with_fig1();
        let resp = roundtrip(
            &server,
            &Request::Probe {
                tenant: 1,
                probes: vec![
                    ProbeRequest::new(ModuleId(0), AttrSet::from_indices(&[0]), 2).at_epoch(5),
                ],
            },
        );
        assert_eq!(
            resp,
            Response::Error(ServeFault::StaleEpoch {
                module: 0,
                expected: 5,
                actual: 0,
            })
        );
    }

    #[test]
    fn oversized_batch_is_busy() {
        let registry = Arc::new(TenantRegistry::new());
        registry
            .create(
                TenantId(1),
                TenantConfig::new(&fig1_workflow())
                    .budget(1 << 20)
                    .limits(AdmissionLimits {
                        max_batch_requests: 1,
                        ..AdmissionLimits::default()
                    }),
            )
            .unwrap();
        let server = Server::new(registry);
        let resp = roundtrip(
            &server,
            &Request::Probe {
                tenant: 1,
                probes: vec![
                    ProbeRequest::new(ModuleId(0), AttrSet::from_indices(&[0]), 2),
                    ProbeRequest::new(ModuleId(0), AttrSet::from_indices(&[1]), 2),
                ],
            },
        );
        assert_eq!(
            resp,
            Response::Busy(BusyReason::BatchRequests { got: 2, limit: 1 })
        );
    }
}
