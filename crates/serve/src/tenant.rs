//! The tenant registry: many independent workflows behind one server.
//!
//! A **tenant** is one workflow's serving state — its warm
//! [`WorkflowOracles`] (one memoized safety oracle per private module),
//! its per-module relation epochs, and its admission-control counters.
//! The [`TenantRegistry`] multiplexes any number of tenants behind one
//! [`Server`](crate::Server): probe traffic for different tenants
//! shares nothing but the registry's read-mostly map, so tenants are
//! isolated both for correctness (separate oracles, separate epochs)
//! and for capacity (admission is bounded per tenant — one tenant's
//! overload turns into `Busy` responses for *that* tenant, never
//! latency for its neighbours).
//!
//! ## Locking discipline (per tenant)
//!
//! * **Probes** take the tenant's oracle `RwLock` in **read** mode —
//!   any number of serving threads hold it concurrently; the oracle's
//!   own probe surface is `&self` (sharded once-publication caches and
//!   per-module locks below), so the read guard adds one uncontended
//!   atomic per frame, amortized over the whole batch.
//! * **Ingest** ([`Tenant::ingest_batch`]) also holds the outer lock
//!   in *read* mode. The store serializes its own writers: validating
//!   an [`IngestBatch`] takes the store's writer lock, which is held
//!   until the frame is applied and published. The apply phase takes
//!   only **per-module** write locks, so warm probes proceed during an
//!   append (a probe waits only for the one module currently being
//!   mutated). New epochs are published through the oracle set's
//!   seqlock pair, so [`Tenant::epochs`] never blocks on a writer.
//! * **Control plane** ([`Tenant::with_oracles_mut`], recovery and
//!   compaction) is the only taker of the outer write lock, which
//!   waits for every in-flight ingest and probe.
//! * **Admission** is lock-free: in-flight request/byte counts are
//!   atomics, checked and rolled back without blocking
//!   ([`Tenant::try_admit`]).

use crate::error::ServeError;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};
use sv_core::safety::{IngestBatch, WorkflowOracles};
use sv_core::wire::{BusyReason, ModuleEpoch};
use sv_core::CoreError;
use sv_workflow::Workflow;

/// A tenant's identity on the wire: an opaque 64-bit id chosen by the
/// operator at registration time.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u64);

/// Per-tenant admission-control bounds. Frames beyond these bounds get
/// an explicit [`BusyReason`] response — backpressure is a typed
/// answer, never a hang.
///
/// Two layers:
/// * **per-frame** bounds (`max_batch_*`) reject a single oversized
///   frame outright (it could never be admitted);
/// * **in-flight** bounds (`max_inflight_*`) bound the total work
///   admitted but not yet answered across all serving threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionLimits {
    /// Most requests (probes or ingest rows) one frame may carry.
    pub max_batch_requests: u64,
    /// Most payload bytes one frame may carry.
    pub max_batch_bytes: u64,
    /// Most requests admitted but unanswered at once.
    pub max_inflight_requests: u64,
    /// Most payload bytes admitted but unanswered at once.
    pub max_inflight_bytes: u64,
}

impl Default for AdmissionLimits {
    /// Permissive defaults sized for batched serving: 8192
    /// requests / 1 MiB per frame, 64k requests / 16 MiB in flight.
    fn default() -> Self {
        Self {
            max_batch_requests: 8_192,
            max_batch_bytes: 1 << 20,
            max_inflight_requests: 1 << 16,
            max_inflight_bytes: 16 << 20,
        }
    }
}

/// A snapshot of one tenant's serving counters (all monotone).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Probe frames answered.
    pub probe_frames: u64,
    /// Individual probes answered.
    pub probes_served: u64,
    /// Ingest frames fully applied.
    pub ingest_frames: u64,
    /// New module rows landed by ingest.
    pub rows_ingested: u64,
    /// Frames bounced by admission control.
    pub busy_rejections: u64,
}

/// One registered workflow: warm oracles plus serving state. Create
/// through the [`TenantRegistry`]; share as `Arc<Tenant>`.
pub struct Tenant {
    id: TenantId,
    limits: AdmissionLimits,
    oracles: RwLock<WorkflowOracles>,
    inflight_requests: AtomicU64,
    inflight_bytes: AtomicU64,
    probe_frames: AtomicU64,
    probes_served: AtomicU64,
    ingest_frames: AtomicU64,
    rows_ingested: AtomicU64,
    busy_rejections: AtomicU64,
}

/// An admitted frame's RAII token: holds the frame's requests/bytes in
/// the tenant's in-flight counters and releases them on drop.
pub struct AdmissionPermit<'a> {
    tenant: &'a Tenant,
    requests: u64,
    bytes: u64,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.tenant
            .inflight_requests
            .fetch_sub(self.requests, Ordering::Relaxed);
        self.tenant
            .inflight_bytes
            .fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

/// Why an ingest frame was not applied
/// ([`Tenant::ingest_batch_with`]): either validation rejected a row,
/// or the caller's write-ahead hook refused the frame (e.g. the
/// durability layer could not log it). In both cases **nothing** was
/// applied.
#[derive(Debug)]
pub enum BatchIngestError<E> {
    /// A row failed arity, domain or FD validation; no module was
    /// touched and the frame was not logged. The error is
    /// frame-positioned: its [`CoreError::row_index`] names the
    /// offending row's index **within the frame**, so a client can
    /// repair and resubmit the exact row.
    Rejected(CoreError),
    /// The write-ahead hook failed after validation — the frame was
    /// neither logged nor applied.
    Wal(E),
}

impl<E: fmt::Display> fmt::Display for BatchIngestError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Rejected(error) => write!(f, "ingest frame rejected: {error}"),
            Self::Wal(error) => write!(f, "durable ingest failed: {error}"),
        }
    }
}

impl<E: std::error::Error + 'static> std::error::Error for BatchIngestError<E> {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Rejected(error) => Some(error),
            Self::Wal(error) => Some(error),
        }
    }
}

/// A successfully applied ingest frame, as reported by
/// [`Tenant::ingest_batch`] / [`Tenant::ingest_batch_with`] and by
/// every [`IngestSink`](crate::IngestSink).
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// Total **new** module rows across all private modules (a module
    /// already holding a row's projection contributes 0).
    pub added: u64,
    /// The per-module epochs after the frame was applied (published
    /// through the seqlock pair — consistent cut, no lock taken; a
    /// frame of the same tenant applied since may already show).
    pub epochs: Vec<ModuleEpoch>,
    /// The write-ahead hook's sequence number for the frame: its
    /// position in the sink's durability order (0 when no durability
    /// hook ran).
    pub log_seq: u64,
}

impl Tenant {
    fn new(id: TenantId, oracles: WorkflowOracles, limits: AdmissionLimits) -> Self {
        Self {
            id,
            limits,
            oracles: RwLock::new(oracles),
            inflight_requests: AtomicU64::new(0),
            inflight_bytes: AtomicU64::new(0),
            probe_frames: AtomicU64::new(0),
            probes_served: AtomicU64::new(0),
            ingest_frames: AtomicU64::new(0),
            rows_ingested: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
        }
    }

    /// The tenant's wire id.
    #[must_use]
    pub fn id(&self) -> TenantId {
        self.id
    }

    /// The tenant's admission bounds (fixed at registration).
    #[must_use]
    pub fn limits(&self) -> &AdmissionLimits {
        &self.limits
    }

    /// Read access to the tenant's oracles — the probe path. Any
    /// number of threads hold this concurrently; every probe entry
    /// point on [`WorkflowOracles`] takes `&self`.
    ///
    /// # Panics
    /// If the lock is poisoned (a panic inside an earlier critical
    /// section — unrecoverable serving state).
    pub fn oracles(&self) -> RwLockReadGuard<'_, WorkflowOracles> {
        self.oracles.read().expect("tenant oracle lock poisoned")
    }

    /// Attempts to admit a frame of `requests` requests and `bytes`
    /// payload bytes. On success the returned permit holds the
    /// capacity until dropped; on rejection the tenant's
    /// `busy_rejections` counter ticks and **no state changes**.
    ///
    /// # Errors
    /// The [`BusyReason`] to answer the client with.
    pub fn try_admit(&self, requests: u64, bytes: u64) -> Result<AdmissionPermit<'_>, BusyReason> {
        let reason = self.try_admit_inner(requests, bytes);
        match reason {
            Ok(permit) => Ok(permit),
            Err(r) => {
                self.busy_rejections.fetch_add(1, Ordering::Relaxed);
                Err(r)
            }
        }
    }

    fn try_admit_inner(
        &self,
        requests: u64,
        bytes: u64,
    ) -> Result<AdmissionPermit<'_>, BusyReason> {
        if requests > self.limits.max_batch_requests {
            return Err(BusyReason::BatchRequests {
                got: requests,
                limit: self.limits.max_batch_requests,
            });
        }
        if bytes > self.limits.max_batch_bytes {
            return Err(BusyReason::BatchBytes {
                got: bytes,
                limit: self.limits.max_batch_bytes,
            });
        }
        let now_req = self
            .inflight_requests
            .fetch_add(requests, Ordering::Relaxed)
            + requests;
        if now_req > self.limits.max_inflight_requests {
            self.inflight_requests
                .fetch_sub(requests, Ordering::Relaxed);
            return Err(BusyReason::InflightRequests {
                got: now_req,
                limit: self.limits.max_inflight_requests,
            });
        }
        let now_bytes = self.inflight_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if now_bytes > self.limits.max_inflight_bytes {
            self.inflight_bytes.fetch_sub(bytes, Ordering::Relaxed);
            self.inflight_requests
                .fetch_sub(requests, Ordering::Relaxed);
            return Err(BusyReason::InflightBytes {
                got: now_bytes,
                limit: self.limits.max_inflight_bytes,
            });
        }
        Ok(AdmissionPermit {
            tenant: self,
            requests,
            bytes,
        })
    }

    /// Applies one typed [`IngestBatch`]: validate the whole frame up
    /// front, apply per-module mutations (concurrently for large
    /// frames), publish epochs. Probes proceed throughout — the outer
    /// oracle lock is held in **read** mode; only the module currently
    /// under append blocks, and only probes addressed to it.
    ///
    /// # Errors
    /// The frame-positioned [`CoreError`] when validation rejects the
    /// frame — nothing was applied.
    pub fn ingest_batch(&self, batch: &IngestBatch) -> Result<BatchOutcome, CoreError> {
        self.ingest_batch_with(batch, |_| Ok::<u64, std::convert::Infallible>(0))
            .map_err(|e| match e {
                BatchIngestError::Rejected(error) => error,
                BatchIngestError::Wal(never) => match never {},
            })
    }

    /// [`ingest_batch`](Self::ingest_batch) with a write-ahead hook —
    /// the write-through point for a commit lane. The pipeline:
    ///
    /// 1. **validate** the whole batch
    ///    ([`WorkflowOracles::validate_batch`], which takes the store's
    ///    writer lock; a rejection leaves nothing logged and nothing
    ///    applied);
    /// 2. **`wal(batch)`** — the write-ahead hook logs the frame and
    ///    returns its log sequence (its error aborts the frame
    ///    unapplied). It runs under the writer lock, so frames reach
    ///    the hook in the order they apply, and a durability layer can
    ///    extend its replay ledger right after the log append;
    /// 3. **apply** per-module mutations and **publish** the new epochs
    ///    ([`WorkflowOracles::apply_batch`], which cannot fail for a
    ///    validated batch), then release the writer lock.
    ///
    /// Because validation precedes logging, a frame in the log is by
    /// construction a frame that applied — replay never re-rejects.
    ///
    /// # Errors
    /// [`BatchIngestError::Rejected`] on validation failure,
    /// [`BatchIngestError::Wal`] when the write-ahead hook refuses the
    /// frame. Nothing is applied in either case.
    pub fn ingest_batch_with<E>(
        &self,
        batch: &IngestBatch,
        wal: impl FnOnce(&IngestBatch) -> Result<u64, E>,
    ) -> Result<BatchOutcome, BatchIngestError<E>> {
        let guard = self.oracles();
        let validated = guard
            .validate_batch(batch)
            .map_err(BatchIngestError::Rejected)?;
        let log_seq = wal(batch).map_err(BatchIngestError::Wal)?;
        let added = guard
            .apply_batch(validated)
            .map_err(BatchIngestError::Rejected)? as u64;
        let epochs = Self::epochs_from(&guard);
        self.ingest_frames.fetch_add(1, Ordering::Relaxed);
        self.rows_ingested.fetch_add(added, Ordering::Relaxed);
        Ok(BatchOutcome {
            added,
            epochs,
            log_seq,
        })
    }

    fn epochs_from(oracles: &WorkflowOracles) -> Vec<ModuleEpoch> {
        oracles
            .epoch_snapshot()
            .into_iter()
            .map(|(module, epoch)| ModuleEpoch { module, epoch })
            .collect()
    }

    /// Exclusive access to the tenant's oracles — the
    /// recovery/compaction control path. Taking the outer write lock
    /// waits for every in-flight ingest and probe (each holds the read
    /// side), and while `f` runs no ingest frame can interleave and no
    /// probe can observe a half-restored oracle set.
    ///
    /// # Panics
    /// If the lock is poisoned.
    pub fn with_oracles_mut<R>(&self, f: impl FnOnce(&mut WorkflowOracles) -> R) -> R {
        let mut guard = self.oracles.write().expect("tenant oracle lock poisoned");
        f(&mut guard)
    }

    /// The tenant's current per-module relation epochs, in
    /// `private_modules()` order — read from the seqlock publication,
    /// so this never blocks on an in-flight append's module locks.
    #[must_use]
    pub fn epochs(&self) -> Vec<ModuleEpoch> {
        Self::epochs_from(&self.oracles())
    }

    /// Snapshot of the serving counters. Exact when no frame is in
    /// flight; monotone lower bounds otherwise.
    #[must_use]
    pub fn stats(&self) -> TenantStats {
        TenantStats {
            probe_frames: self.probe_frames.load(Ordering::Relaxed),
            probes_served: self.probes_served.load(Ordering::Relaxed),
            ingest_frames: self.ingest_frames.load(Ordering::Relaxed),
            rows_ingested: self.rows_ingested.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
        }
    }

    /// Records an answered probe frame (called by the server after a
    /// successful `probe_batch`).
    pub(crate) fn note_probe_frame(&self, probes: u64) {
        self.probe_frames.fetch_add(1, Ordering::Relaxed);
        self.probes_served.fetch_add(probes, Ordering::Relaxed);
    }
}

/// Default materialization budget for [`TenantConfig`]-built tenants
/// (rows per module relation) — matches the budget the repository's
/// examples and tests registered with before the builder existed.
pub const DEFAULT_MATERIALIZE_BUDGET: u128 = 1 << 20;

/// Where a [`TenantConfig`]'s oracles come from.
enum TenantSource<'a> {
    /// Build from a workflow (materialized or streaming).
    Workflow(&'a Workflow),
    /// Pre-built oracles (e.g. warmed offline, or restored).
    Prebuilt(WorkflowOracles),
}

/// The one way to describe a tenant: workflow (or pre-built oracles),
/// streaming flag, materialization budget, admission limits. Replaced
/// the old `register` / `register_streaming` / `insert` triple.
///
/// # Examples
/// ```
/// use sv_serve::{AdmissionLimits, TenantConfig, TenantId, TenantRegistry};
/// use sv_workflow::library::fig1_workflow;
///
/// let registry = TenantRegistry::new();
/// let wf = fig1_workflow();
/// // A materialized tenant with explicit budget and limits…
/// registry
///     .create(
///         TenantId(1),
///         TenantConfig::new(&wf)
///             .budget(1 << 20)
///             .limits(AdmissionLimits::default()),
///     )
///     .unwrap();
/// // …and a streaming tenant (modules start empty, grow by ingest).
/// registry
///     .create(TenantId(2), TenantConfig::new(&wf).streaming(true))
///     .unwrap();
/// assert_eq!(registry.len(), 2);
/// ```
pub struct TenantConfig<'a> {
    source: TenantSource<'a>,
    streaming: bool,
    budget: u128,
    limits: AdmissionLimits,
}

impl<'a> TenantConfig<'a> {
    /// A tenant over `workflow`: **materialized** by default (full
    /// input domain, capped at [`DEFAULT_MATERIALIZE_BUDGET`] unless
    /// [`budget`](Self::budget) overrides), or **streaming** when
    /// [`streaming(true)`](Self::streaming) is set.
    #[must_use]
    pub fn new(workflow: &'a Workflow) -> Self {
        Self {
            source: TenantSource::Workflow(workflow),
            streaming: false,
            budget: DEFAULT_MATERIALIZE_BUDGET,
            limits: AdmissionLimits::default(),
        }
    }

    /// A tenant over pre-built oracles (e.g. warmed offline, or
    /// restored from durable storage). The streaming flag and budget
    /// are irrelevant for this source.
    #[must_use]
    pub fn prebuilt(oracles: WorkflowOracles) -> TenantConfig<'static> {
        TenantConfig {
            source: TenantSource::Prebuilt(oracles),
            streaming: false,
            budget: DEFAULT_MATERIALIZE_BUDGET,
            limits: AdmissionLimits::default(),
        }
    }

    /// Streaming mode: modules start empty and grow through ingest
    /// ([`WorkflowOracles::for_workflow_streaming`]).
    #[must_use]
    pub fn streaming(mut self, streaming: bool) -> Self {
        self.streaming = streaming;
        self
    }

    /// Materialization budget (rows per module relation) for
    /// non-streaming workflow tenants.
    #[must_use]
    pub fn budget(mut self, budget: u128) -> Self {
        self.budget = budget;
        self
    }

    /// The tenant's admission-control bounds.
    #[must_use]
    pub fn limits(mut self, limits: AdmissionLimits) -> Self {
        self.limits = limits;
        self
    }
}

/// The registry: tenant id → serving state, behind a read-mostly lock.
/// Registration and deregistration are rare control-plane operations;
/// the serving data plane only ever takes the read side.
///
/// # Examples
/// ```
/// use sv_serve::{TenantConfig, TenantId, TenantRegistry};
/// use sv_workflow::library::fig1_workflow;
///
/// let registry = TenantRegistry::new();
/// let wf = fig1_workflow();
/// let tenant = registry.create(TenantId(1), TenantConfig::new(&wf)).unwrap();
/// assert_eq!(tenant.id(), TenantId(1));
/// assert_eq!(registry.len(), 1);
/// // A second registration under the same id is refused.
/// assert!(registry.create(TenantId(1), TenantConfig::new(&wf)).is_err());
/// assert!(registry.deregister(TenantId(1)).is_some());
/// assert!(registry.is_empty());
/// ```
#[derive(Default)]
pub struct TenantRegistry {
    tenants: RwLock<BTreeMap<u64, Arc<Tenant>>>,
}

impl TenantRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a tenant described by a [`TenantConfig`] — the single
    /// registration entry point.
    ///
    /// # Errors
    /// [`ServeError::DuplicateTenant`] if `id` is taken;
    /// [`ServeError::EmptyWorkflow`] for a workflow with no attributes;
    /// [`ServeError::Core`] if oracle construction fails
    /// (materialization budget, structural workflow errors).
    pub fn create(
        &self,
        id: TenantId,
        config: TenantConfig<'_>,
    ) -> Result<Arc<Tenant>, ServeError> {
        let oracles = match config.source {
            TenantSource::Prebuilt(oracles) => oracles,
            TenantSource::Workflow(wf) if config.streaming => {
                WorkflowOracles::for_workflow_streaming(wf)?
            }
            TenantSource::Workflow(wf) => WorkflowOracles::for_workflow(wf, config.budget)?,
        };
        // Its ingest rows would be empty, and the durable log cannot
        // bound a count of empty rows by its bytes.
        if oracles.schema().is_empty() {
            return Err(ServeError::EmptyWorkflow { tenant: id.0 });
        }
        self.insert_oracles(id, oracles, config.limits)
    }

    fn insert_oracles(
        &self,
        id: TenantId,
        oracles: WorkflowOracles,
        limits: AdmissionLimits,
    ) -> Result<Arc<Tenant>, ServeError> {
        let mut map = self.tenants.write().expect("registry lock poisoned");
        if map.contains_key(&id.0) {
            return Err(ServeError::DuplicateTenant { tenant: id.0 });
        }
        let tenant = Arc::new(Tenant::new(id, oracles, limits));
        map.insert(id.0, Arc::clone(&tenant));
        Ok(tenant)
    }

    /// Looks a tenant up (the per-frame data-plane operation: one read
    /// lock, one map lookup, one `Arc` clone).
    #[must_use]
    pub fn get(&self, id: TenantId) -> Option<Arc<Tenant>> {
        self.tenants
            .read()
            .expect("registry lock poisoned")
            .get(&id.0)
            .cloned()
    }

    /// Removes a tenant; in-flight frames holding the `Arc` finish
    /// against the removed state, new frames get
    /// [`ServeFault::UnknownTenant`](sv_core::wire::ServeFault::UnknownTenant).
    #[must_use]
    pub fn deregister(&self, id: TenantId) -> Option<Arc<Tenant>> {
        self.tenants
            .write()
            .expect("registry lock poisoned")
            .remove(&id.0)
    }

    /// Number of registered tenants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tenants.read().expect("registry lock poisoned").len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The registered tenant ids, ascending.
    #[must_use]
    pub fn ids(&self) -> Vec<TenantId> {
        self.tenants
            .read()
            .expect("registry lock poisoned")
            .keys()
            .map(|&k| TenantId(k))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_relation::Tuple;
    use sv_workflow::library::one_one_chain;

    fn small_tenant(limits: AdmissionLimits) -> Arc<Tenant> {
        let registry = TenantRegistry::new();
        registry
            .create(
                TenantId(9),
                TenantConfig::new(&one_one_chain(1, 3))
                    .budget(1 << 16)
                    .limits(limits),
            )
            .unwrap()
    }

    #[test]
    fn admission_batch_bounds() {
        let t = small_tenant(AdmissionLimits {
            max_batch_requests: 4,
            max_batch_bytes: 100,
            ..AdmissionLimits::default()
        });
        assert!(matches!(
            t.try_admit(5, 10),
            Err(BusyReason::BatchRequests { got: 5, limit: 4 })
        ));
        assert!(matches!(
            t.try_admit(4, 101),
            Err(BusyReason::BatchBytes {
                got: 101,
                limit: 100
            })
        ));
        assert!(t.try_admit(4, 100).is_ok());
        assert_eq!(t.stats().busy_rejections, 2);
    }

    #[test]
    fn admission_inflight_bounds_and_release() {
        let t = small_tenant(AdmissionLimits {
            max_batch_requests: 10,
            max_batch_bytes: 1000,
            max_inflight_requests: 10,
            max_inflight_bytes: 1000,
        });
        let p1 = t.try_admit(6, 10).unwrap();
        // 6 + 6 > 10 in flight.
        assert!(matches!(
            t.try_admit(6, 10),
            Err(BusyReason::InflightRequests { got: 12, limit: 10 })
        ));
        // Requests fit (4), bytes do not (10 + 991 > 1000) — and the
        // request reservation must be rolled back with the rejection.
        assert!(matches!(
            t.try_admit(4, 991),
            Err(BusyReason::InflightBytes { .. })
        ));
        drop(p1);
        // Everything released: the full budget admits again.
        let p = t.try_admit(10, 1000).unwrap();
        drop(p);
    }

    #[test]
    fn ingest_frames_are_all_or_nothing() {
        let wf = one_one_chain(1, 2);
        let registry = TenantRegistry::new();
        let t = registry
            .create(TenantId(0), TenantConfig::new(&wf).streaming(true))
            .unwrap();
        let ingest = |rows: &[Tuple]| t.ingest_batch(&IngestBatch::from_rows(rows));
        let good = wf.run(&[0, 1]).unwrap();
        let added = ingest(std::slice::from_ref(&good)).unwrap().added;
        assert_eq!(added, 1);
        // Same row again: dedup, 0 added, no failure.
        assert_eq!(ingest(std::slice::from_ref(&good)).unwrap().added, 0);
        // A frame holding a valid fresh row *and* a row violating the
        // module FD `I -> O` applies nothing: validation covers the
        // whole frame before any module is touched.
        let epochs_before = t.epochs();
        let other = wf.run(&[1, 0]).unwrap();
        let mut bad = good.values().to_vec();
        bad[2] ^= 1; // flip one output bit -> FD violation
        let error = ingest(&[other.clone(), Tuple::new(bad)])
            .expect_err("FD violation must fail the frame");
        assert_eq!(error.row_index(), Some(1), "offending row named");
        assert_eq!(t.epochs(), epochs_before, "no epoch moved");
        // The valid row alone still lands.
        assert_eq!(ingest(std::slice::from_ref(&other)).unwrap().added, 1);
    }

    #[test]
    fn wal_hook_failure_applies_nothing() {
        let wf = one_one_chain(1, 2);
        let registry = TenantRegistry::new();
        let t = registry
            .create(TenantId(0), TenantConfig::new(&wf).streaming(true))
            .unwrap();
        let batch = IngestBatch::new(vec![wf.run(&[0, 1]).unwrap()]);
        let err = t
            .ingest_batch_with(&batch, |_| Err::<u64, &str>("disk full"))
            .expect_err("wal refusal aborts the frame");
        assert!(matches!(err, BatchIngestError::Wal("disk full")));
        assert!(t.epochs().iter().all(|me| me.epoch == 0));
        assert_eq!(t.stats().ingest_frames, 0);
        // A validation rejection never reaches the wal hook.
        let mut bad = wf.run(&[1, 0]).unwrap().values().to_vec();
        bad[2] ^= 1;
        let bad_batch = IngestBatch::new(vec![wf.run(&[1, 0]).unwrap(), Tuple::new(bad)]);
        let err = t
            .ingest_batch_with(&bad_batch, |_| -> Result<u64, &str> {
                panic!("wal hook must not run for invalid frames")
            })
            .expect_err("invalid frame");
        assert!(matches!(err, BatchIngestError::Rejected(_)));
    }

    #[test]
    fn epochs_track_ingest() {
        let wf = one_one_chain(1, 2);
        let registry = TenantRegistry::new();
        let t = registry
            .create(TenantId(0), TenantConfig::new(&wf).streaming(true))
            .unwrap();
        assert!(t.epochs().iter().all(|me| me.epoch == 0));
        t.ingest_batch(&IngestBatch::new(vec![wf.run(&[0, 0]).unwrap()]))
            .unwrap();
        assert!(t.epochs().iter().all(|me| me.epoch == 1));
    }

    #[test]
    fn create_covers_every_tenant_source() {
        // Materialized, streaming, and prebuilt registrations all go
        // through the single `create` entry point (the deprecated
        // register/register_streaming/insert shims are gone).
        let wf = one_one_chain(1, 2);
        let registry = TenantRegistry::new();
        registry
            .create(TenantId(1), TenantConfig::new(&wf).budget(1 << 16))
            .unwrap();
        registry
            .create(TenantId(2), TenantConfig::new(&wf).streaming(true))
            .unwrap();
        let oracles = sv_core::safety::WorkflowOracles::for_workflow_streaming(&wf).unwrap();
        registry
            .create(TenantId(3), TenantConfig::prebuilt(oracles))
            .unwrap();
        assert_eq!(registry.len(), 3);
    }

    #[test]
    fn workflows_without_attributes_are_refused() {
        // An empty workflow builds, and its store would accept an empty
        // row, so registration is where it must stop.
        let wf = sv_workflow::WorkflowBuilder::new().build().unwrap();
        let oracles = sv_core::safety::WorkflowOracles::for_workflow_streaming(&wf).unwrap();
        let registry = TenantRegistry::new();
        for (id, config) in [
            (4, TenantConfig::new(&wf)),
            (5, TenantConfig::new(&wf).streaming(true)),
            (6, TenantConfig::prebuilt(oracles)),
        ] {
            let Err(err) = registry.create(TenantId(id), config) else {
                panic!("tenant {id} registered");
            };
            assert!(
                matches!(err, ServeError::EmptyWorkflow { tenant } if tenant == id),
                "{err}"
            );
        }
        assert!(registry.is_empty());
    }
}
