//! The durable registry: a [`TenantRegistry`] whose ingest path
//! **writes ahead** to a checksummed log through a group-commit lane,
//! with snapshotting, log retention (tombstones + rebuild-on-compact),
//! and crash recovery.
//!
//! ## Write path
//!
//! Every ingest frame goes through
//! [`Tenant::ingest_batch_with`](sv_serve::Tenant::ingest_batch_with):
//! the whole frame is **validated first** (workflow schema, then every
//! module), then logged as one frame record and appended to the
//! tenant's ledger, then applied and published — all-or-nothing, and
//! all under the tenant store's writer lock, so ledger order is log
//! order. A frame in the log is by construction a frame that applies
//! cleanly, so replay reconstructs the same state without re-running
//! rejections.
//!
//! Durability is decoupled from application: [`DurableRegistry::submit`]
//! appends and applies without waiting for the disk, and
//! [`DurableRegistry::wait_durable`] blocks until the frame's sequence
//! is covered by an fsync. The [`CommitLane`] coalesces concurrent
//! waiters into one flush (leader/follower group commit), so `N`
//! tenants ingesting in parallel cost far fewer than `N` fsyncs.
//! [`DurableRegistry::ingest`] is the submit-then-wait convenience.
//!
//! ## Recovery contract
//!
//! [`DurableRegistry::recover`] = snapshot load (if present) + log-tail
//! replay (records with `seq >` the snapshot's `last_seq`). The
//! recovered registry is **bit-for-bit equivalent** to the
//! uninterrupted run: same module rows in the same arrival order, same
//! group structure, same relation epochs — the crash-fault suite
//! (`tests/crash_prop.rs`) proves this at every log truncation point,
//! including cuts through the middle of coalesced batches.
//!
//! ## Retention
//!
//! [`DurableRegistry::compact`] rebuilds a tenant's modules from its
//! ledger with every relation epoch bumped by one (strictly greater
//! than any epoch a client has seen, so epoch-conditioned probes get
//! `StaleEpoch` instead of stale answers) and a **fresh memo** per
//! module, writes a snapshot, marks the superseded log prefix with a
//! tombstone, and rewrites the log without it. Control-plane
//! operations (snapshot, compact) take the registry's control lock in
//! write mode, quiescing in-flight ingest so snapshot anchors are
//! consistent with the ledgers.

use crate::error::{DurableError, LogTail};
use crate::lane::{CommitLane, LaneStats};
use crate::log::{LogWriter, Record};
use crate::snapshot::{Snapshot, TenantSnapshot};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;
use sv_core::safety::{IngestBatch, SafetyOracle as _};
use sv_core::wire::ServeFault;
use sv_relation::Tuple;
use sv_serve::{
    AdmissionLimits, BatchIngestError, BatchOutcome, IngestSink, Tenant, TenantConfig, TenantId,
    TenantRegistry,
};
use sv_workflow::{ModuleId, Workflow};

/// File name of the write-ahead log inside the durable directory.
pub const LOG_FILE: &str = "wal.log";
/// File name of the snapshot inside the durable directory.
pub const SNAPSHOT_FILE: &str = "snapshot.svs";

/// One tenant's definition for [`DurableRegistry::recover`]: durable
/// state stores rows and epochs, not workflow structure, so the caller
/// re-supplies the workflows (they are code, not data).
pub struct TenantDef<'a> {
    /// The tenant's wire id.
    pub id: TenantId,
    /// The tenant's workflow.
    pub workflow: &'a Workflow,
    /// Admission bounds for the recovered tenant.
    pub limits: AdmissionLimits,
}

/// What [`DurableRegistry::recover`] found and did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a snapshot was loaded.
    pub snapshot_loaded: bool,
    /// The log's tail disposition before truncation.
    pub tail: LogTail,
    /// Log records replayed (those past the snapshot).
    pub records_replayed: u64,
    /// Replayed rows that applied. Frame records are validated
    /// *before* logging, so every replayed row applies; a frame that no
    /// longer does fails recovery with [`DurableError::DefMismatch`].
    pub rows_applied: u64,
    /// Highest sequence number in the recovered log.
    pub last_seq: u64,
}

struct TenantDurable {
    /// Applied workflow rows, arrival order — the durable ground truth
    /// from which module relations are pure derivations.
    ledger: Vec<Tuple>,
    /// Retention generation (compactions undergone).
    compaction_epoch: u64,
}

/// A [`TenantRegistry`] with durability: write-ahead logging on
/// ingest through a group-commit [`CommitLane`], snapshots, retention,
/// recovery.
///
/// All mutation must go through this wrapper (or a [`Server`]
/// configured with this registry as its ingest sink — it implements
/// [`IngestSink`], so pass the `Arc<DurableRegistry>` to
/// [`Server::with_ingest_sink`]); mutating the inner registry's
/// tenants directly would bypass the log.
///
/// [`Server`]: sv_serve::Server
/// [`Server::with_ingest_sink`]: sv_serve::Server::with_ingest_sink
pub struct DurableRegistry {
    inner: Arc<TenantRegistry>,
    dir: PathBuf,
    lane: CommitLane,
    tenants: Mutex<BTreeMap<u64, TenantDurable>>,
    /// Data plane takes this in read mode for the span of a submit;
    /// the control plane (snapshot, compact) takes write mode so its
    /// log anchors observe no frame halfway between log and ledger.
    control: RwLock<()>,
}

impl DurableRegistry {
    /// Creates a fresh durable directory: an empty log, no snapshot
    /// (a stale snapshot from an earlier life is removed).
    ///
    /// # Errors
    /// IO failures.
    pub fn create(dir: &Path) -> Result<Self, DurableError> {
        std::fs::create_dir_all(dir).map_err(|e| DurableError::io("create dir", dir, &e))?;
        let log = LogWriter::create(&dir.join(LOG_FILE))?;
        let snap = dir.join(SNAPSHOT_FILE);
        if snap.exists() {
            std::fs::remove_file(&snap).map_err(|e| DurableError::io("remove", &snap, &e))?;
        }
        Ok(Self {
            inner: Arc::new(TenantRegistry::new()),
            dir: dir.to_path_buf(),
            lane: CommitLane::new(log),
            tenants: Mutex::new(BTreeMap::new()),
            control: RwLock::new(()),
        })
    }

    /// Rebuilds a registry from a durable directory: loads the snapshot
    /// (if any), restores every snapshotted tenant's modules and epochs
    /// from its ledger, then replays the log tail (`seq > last_seq`) —
    /// frame records apply whole (they were validated before logging).
    /// The log's torn or corrupt tail, if any, is truncated away so the
    /// recovered log is clean.
    ///
    /// # Errors
    /// IO failures; [`DurableError::SnapshotCorrupt`] for a damaged
    /// snapshot; [`DurableError::DefMismatch`] when durable state names
    /// tenants or modules the definitions don't provide.
    pub fn recover(
        dir: &Path,
        defs: &[TenantDef<'_>],
    ) -> Result<(Self, RecoveryReport), DurableError> {
        std::fs::create_dir_all(dir).map_err(|e| DurableError::io("create dir", dir, &e))?;
        let snapshot = Snapshot::load(&dir.join(SNAPSHOT_FILE))?;
        let (log, records, tail) = LogWriter::open(&dir.join(LOG_FILE))?;
        let inner = Arc::new(TenantRegistry::new());
        let mut tenants = BTreeMap::new();
        for def in defs {
            inner.create(
                def.id,
                TenantConfig::new(def.workflow)
                    .streaming(true)
                    .limits(def.limits),
            )?;
            tenants.insert(
                def.id.0,
                TenantDurable {
                    ledger: Vec::new(),
                    compaction_epoch: 0,
                },
            );
        }
        let this = Self {
            inner,
            dir: dir.to_path_buf(),
            lane: CommitLane::new(log),
            tenants: Mutex::new(tenants),
            control: RwLock::new(()),
        };
        let mut report = RecoveryReport {
            snapshot_loaded: snapshot.is_some(),
            tail,
            records_replayed: 0,
            rows_applied: 0,
            last_seq: 0,
        };
        let snap_last_seq = snapshot.as_ref().map_or(0, |s| s.last_seq);
        {
            let mut tmap = this.tenants.lock().expect("durable tenants poisoned");
            if let Some(snap) = snapshot {
                for ts in snap.tenants {
                    let Some(td) = tmap.get_mut(&ts.tenant) else {
                        return Err(DurableError::DefMismatch {
                            detail: format!(
                                "snapshot names tenant {} with no definition",
                                ts.tenant
                            ),
                        });
                    };
                    let tenant = this
                        .inner
                        .get(TenantId(ts.tenant))
                        .expect("registered above");
                    let live: Vec<ModuleId> = {
                        let guard = tenant.oracles();
                        guard.iter().map(|(m, _)| m).collect()
                    };
                    if live.len() != ts.module_epochs.len() {
                        return Err(DurableError::DefMismatch {
                            detail: format!(
                                "tenant {}: snapshot has {} modules, workflow has {}",
                                ts.tenant,
                                ts.module_epochs.len(),
                                live.len()
                            ),
                        });
                    }
                    let mut id_epochs = Vec::with_capacity(live.len());
                    for (mid, &(idx, epoch)) in live.iter().zip(&ts.module_epochs) {
                        if mid.index() as u32 != idx {
                            return Err(DurableError::DefMismatch {
                                detail: format!(
                                    "tenant {}: snapshot module index {idx} where workflow has {}",
                                    ts.tenant,
                                    mid.index()
                                ),
                            });
                        }
                        id_epochs.push((*mid, epoch));
                    }
                    let ledger: Vec<Tuple> = ts.ledger.into_iter().map(Tuple::new).collect();
                    tenant.with_oracles_mut(|o| o.restore_ledger(&ledger, &id_epochs))?;
                    td.ledger = ledger;
                    td.compaction_epoch = ts.compaction_epoch;
                }
            }
            for r in &records {
                if r.seq() <= snap_last_seq {
                    continue;
                }
                report.records_replayed += 1;
                match r {
                    Record::IngestFrame { tenant, rows, .. } => {
                        let Some(td) = tmap.get_mut(tenant) else {
                            return Err(DurableError::DefMismatch {
                                detail: format!("log names tenant {tenant} with no definition"),
                            });
                        };
                        let t = this.inner.get(TenantId(*tenant)).expect("registered above");
                        let batch =
                            IngestBatch::new(rows.iter().cloned().map(Tuple::new).collect());
                        // Frames were validated before logging, so this
                        // applies unless the definitions mismatch the
                        // log — surface that instead of dropping rows.
                        match t.ingest_batch(&batch) {
                            Ok(_) => {
                                td.ledger.extend_from_slice(batch.rows());
                                report.rows_applied += rows.len() as u64;
                            }
                            Err(e) => {
                                return Err(DurableError::DefMismatch {
                                    detail: format!(
                                        "logged frame for tenant {tenant} no longer applies: {e}"
                                    ),
                                })
                            }
                        }
                    }
                    Record::Tombstone { tenant, upto, .. } => {
                        // A tombstone promises its prefix is captured by a
                        // snapshot; without one, state would silently lose
                        // rows — refuse instead.
                        if *upto > snap_last_seq {
                            return Err(DurableError::DefMismatch {
                                detail: format!(
                                    "tombstone for tenant {tenant} supersedes seq <= {upto} \
                                 but the snapshot covers only seq <= {snap_last_seq}"
                                ),
                            });
                        }
                    }
                    Record::Compact {
                        tenant,
                        compaction_epoch,
                        ..
                    } => {
                        let Some(td) = tmap.get_mut(tenant) else {
                            return Err(DurableError::DefMismatch {
                                detail: format!("log names tenant {tenant} with no definition"),
                            });
                        };
                        td.compaction_epoch = (*compaction_epoch).max(td.compaction_epoch);
                    }
                }
            }
            report.last_seq = this.lane.with_log(|log| log.last_seq());
        }
        Ok((this, report))
    }

    /// The durable directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The inner serving registry (share with a
    /// [`Server`](sv_serve::Server); pass this `Arc<DurableRegistry>`
    /// as the server's [`IngestSink`] so served ingest writes through
    /// the log).
    #[must_use]
    pub fn registry(&self) -> &Arc<TenantRegistry> {
        &self.inner
    }

    /// Looks up a tenant.
    #[must_use]
    pub fn tenant(&self, id: TenantId) -> Option<Arc<Tenant>> {
        self.inner.get(id)
    }

    /// Registers a tenant from its configuration. Durable tenants are
    /// forced to streaming mode: their state is the log, so they start
    /// empty and grow through [`ingest`](Self::ingest).
    ///
    /// # Errors
    /// Duplicate ids and structural workflow errors
    /// ([`DurableError::Serve`]).
    pub fn register(
        &self,
        id: TenantId,
        config: TenantConfig<'_>,
    ) -> Result<Arc<Tenant>, DurableError> {
        let tenant = self.inner.create(id, config.streaming(true))?;
        self.tenants
            .lock()
            .expect("durable tenants poisoned")
            .insert(
                id.0,
                TenantDurable {
                    ledger: Vec::new(),
                    compaction_epoch: 0,
                },
            );
        Ok(tenant)
    }

    /// Sets the commit lane's group-commit window: how long a sync
    /// leader holds the door open for more frames before flushing.
    /// Zero (the default) flushes eagerly; coalescing then comes only
    /// from syncs already in flight.
    pub fn set_commit_window(&self, window: Duration) {
        self.lane.set_window(window);
    }

    /// The commit lane's counters (frames, fsyncs, coalesced).
    #[must_use]
    pub fn lane_stats(&self) -> LaneStats {
        self.lane.stats()
    }

    /// Submits one ingest frame: validate → log (no fsync) → ledger →
    /// apply → publish, all-or-nothing, returning the applied outcome
    /// whose `log_seq` names the frame's position in the durability
    /// order. The frame is **applied but not yet durable** — pass the
    /// sequence to [`wait_durable`](Self::wait_durable) to block until
    /// a sync covers it, or use [`ingest`](Self::ingest) for both.
    ///
    /// Concurrent submits from different tenants proceed in parallel
    /// (one writer lock per tenant store, one shared log behind a short
    /// mutex).
    ///
    /// # Errors
    /// [`BatchIngestError::Rejected`] when validation fails (nothing
    /// logged, nothing applied); [`BatchIngestError::Wal`] for an
    /// unknown tenant or when the log append fails (nothing applied).
    pub fn submit(
        &self,
        id: TenantId,
        batch: &IngestBatch,
    ) -> Result<BatchOutcome, BatchIngestError<DurableError>> {
        let _data = self.control.read().expect("durable control poisoned");
        let unknown = || BatchIngestError::Wal(DurableError::UnknownTenant { tenant: id.0 });
        let tenant = self.inner.get(id).ok_or_else(unknown)?;
        if !self
            .tenants
            .lock()
            .expect("durable tenants poisoned")
            .contains_key(&id.0)
        {
            return Err(unknown());
        }
        tenant.ingest_batch_with(batch, |b| {
            let rows: Vec<Vec<_>> = b.rows().iter().map(|t| t.values().to_vec()).collect();
            let seq = self.lane.append_frame(id.0, &rows)?;
            // Under the store's writer lock, so ledger order == this
            // tenant's log order.
            self.tenants
                .lock()
                .expect("durable tenants poisoned")
                .get_mut(&id.0)
                .expect("checked above")
                .ledger
                .extend_from_slice(b.rows());
            Ok(seq)
        })
    }

    /// Blocks until log sequence `seq` is covered by a successful
    /// fsync (group commit: one flush may cover many frames),
    /// returning the covering durable sequence.
    ///
    /// # Errors
    /// IO failures from a sync this caller led; the frame stays
    /// applied in memory but its durability is unconfirmed.
    pub fn wait_durable(&self, seq: u64) -> Result<u64, DurableError> {
        self.lane.wait_durable(seq)
    }

    /// Ingests one frame with full durability:
    /// [`submit`](Self::submit) + [`wait_durable`](Self::wait_durable).
    /// Returns the number of new module rows.
    ///
    /// # Errors
    /// As [`submit`](Self::submit), plus [`BatchIngestError::Wal`] when
    /// the covering sync fails (the frame is applied in memory but its
    /// durability is unconfirmed).
    pub fn ingest(
        &self,
        id: TenantId,
        rows: &[Tuple],
    ) -> Result<u64, BatchIngestError<DurableError>> {
        let batch = IngestBatch::new(rows.to_vec());
        let outcome = self.submit(id, &batch)?;
        self.wait_durable(outcome.log_seq)
            .map_err(BatchIngestError::Wal)?;
        Ok(outcome.added)
    }

    fn build_snapshot(
        &self,
        tenants: &BTreeMap<u64, TenantDurable>,
        last_seq: u64,
    ) -> Result<Snapshot, DurableError> {
        let mut out = Vec::with_capacity(tenants.len());
        for (&tid, td) in tenants {
            let tenant = self
                .inner
                .get(TenantId(tid))
                .ok_or(DurableError::UnknownTenant { tenant: tid })?;
            let module_epochs: Vec<(u32, u64)> = {
                let guard = tenant.oracles();
                guard
                    .iter()
                    .map(|(mid, o)| (mid.index() as u32, o.relation_epoch()))
                    .collect()
            };
            out.push(TenantSnapshot {
                tenant: tid,
                compaction_epoch: td.compaction_epoch,
                module_epochs,
                ledger: td.ledger.iter().map(|t| t.values().to_vec()).collect(),
            });
        }
        Ok(Snapshot {
            last_seq,
            tenants: out,
        })
    }

    /// Writes a snapshot of every tenant (atomic temp-file + rename),
    /// anchored at the log's current last sequence number. In-flight
    /// ingest is quiesced (control lock, write mode) so the anchor is
    /// consistent; the log is left as-is and recovery replays only
    /// records past the anchor.
    ///
    /// Returns the snapshot's encoded size in bytes.
    ///
    /// # Errors
    /// IO failures.
    pub fn snapshot(&self) -> Result<u64, DurableError> {
        let _ctl = self.control.write().expect("durable control poisoned");
        let tenants = self.tenants.lock().expect("durable tenants poisoned");
        let last_seq = self.lane.with_log(|log| log.last_seq());
        let snap = self.build_snapshot(&tenants, last_seq)?;
        snap.save(&self.dir.join(SNAPSHOT_FILE))?;
        Ok(snap.encode().len() as u64)
    }

    /// Compacts one tenant: rebuilds every module from the ledger with
    /// its relation epoch bumped by one and a **fresh memo** (any probe
    /// conditioned on a pre-compaction epoch now gets `StaleEpoch`, and
    /// no stale cached level can survive), advances the tenant's
    /// compaction epoch, snapshots, tombstones the superseded log
    /// prefix, and rewrites the log without it. Runs under the control
    /// lock in write mode — no ingest is in flight while the log is
    /// rewritten.
    ///
    /// Returns the tenant's new compaction epoch.
    ///
    /// # Errors
    /// [`DurableError::UnknownTenant`]; IO failures; reconstruction
    /// failures ([`DurableError::Core`]).
    pub fn compact(&self, id: TenantId) -> Result<u64, DurableError> {
        let _ctl = self.control.write().expect("durable control poisoned");
        let tenant = self
            .inner
            .get(id)
            .ok_or(DurableError::UnknownTenant { tenant: id.0 })?;
        let mut tenants = self.tenants.lock().expect("durable tenants poisoned");
        let td = tenants
            .get_mut(&id.0)
            .ok_or(DurableError::UnknownTenant { tenant: id.0 })?;
        // 1. Rebuild in memory: same rows, epoch + 1, cold memo.
        let id_epochs: Vec<(ModuleId, u64)> = {
            let guard = tenant.oracles();
            guard
                .iter()
                .map(|(mid, o)| (mid, o.relation_epoch() + 1))
                .collect()
        };
        tenant.with_oracles_mut(|o| o.restore_ledger(&td.ledger, &id_epochs))?;
        td.compaction_epoch += 1;
        let new_epoch = td.compaction_epoch;
        // 2. Snapshot the rebuilt state (anchor = everything logged).
        let upto = self.lane.with_log(|log| log.last_seq());
        let snap = self.build_snapshot(&tenants, upto)?;
        snap.save(&self.dir.join(SNAPSHOT_FILE))?;
        // 3. Mark retention in the log (audit trail; replay-idempotent
        //    against the snapshot written above).
        self.lane.with_log(|log| {
            log.append_tombstone(id.0, upto)?;
            log.append_compact(id.0, new_epoch)?;
            log.sync()
        })?;
        // 4. Rebuild the log without the superseded prefix.
        let (records, _tail, _len) = crate::log::read_log(&self.dir.join(LOG_FILE))?;
        let kept: Vec<Record> = records
            .into_iter()
            .filter(|r| !(r.tenant() == id.0 && r.seq() <= upto))
            .collect();
        self.lane.with_log(|log| log.rewrite(&kept))?;
        Ok(new_epoch)
    }

    /// The tenant's retention generation (compactions undergone).
    #[must_use]
    pub fn compaction_epoch(&self, id: TenantId) -> Option<u64> {
        self.tenants
            .lock()
            .expect("durable tenants poisoned")
            .get(&id.0)
            .map(|td| td.compaction_epoch)
    }

    /// Number of applied rows in the tenant's durable ledger.
    #[must_use]
    pub fn ledger_len(&self, id: TenantId) -> Option<usize> {
        self.tenants
            .lock()
            .expect("durable tenants poisoned")
            .get(&id.0)
            .map(|td| td.ledger.len())
    }

    /// Byte length of the log's valid prefix.
    #[must_use]
    pub fn log_bytes(&self) -> u64 {
        self.lane.with_log(|log| log.len_bytes())
    }

    /// Highest log sequence number assigned so far.
    #[must_use]
    pub fn last_seq(&self) -> u64 {
        self.lane.with_log(|log| log.last_seq())
    }
}

impl IngestSink for DurableRegistry {
    fn submit(&self, tenant: &Arc<Tenant>, batch: IngestBatch) -> Result<BatchOutcome, ServeFault> {
        DurableRegistry::submit(self, tenant.id(), &batch).map_err(|e| ServeFault::Rejected {
            applied: 0,
            detail: e.to_string(),
        })
    }

    fn wait_durable(&self, outcome: &BatchOutcome) -> Result<u64, ServeFault> {
        DurableRegistry::wait_durable(self, outcome.log_seq).map_err(|e| ServeFault::Rejected {
            applied: outcome.added,
            detail: format!("group commit: {e}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_workflow::library::one_one_chain;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sv-durable-reg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn epochs_of(t: &Arc<Tenant>) -> Vec<u64> {
        t.epochs().iter().map(|me| me.epoch).collect()
    }

    #[test]
    fn ingest_recover_roundtrip_without_snapshot() {
        let dir = tmp_dir("roundtrip");
        let wf = one_one_chain(2, 3);
        let id = TenantId(5);
        {
            let reg = DurableRegistry::create(&dir).unwrap();
            reg.register(id, TenantConfig::new(&wf)).unwrap();
            let rows: Vec<Tuple> = (0..4)
                .map(|i| wf.run(&[i & 1, (i >> 1) & 1, 1]).unwrap())
                .collect();
            reg.ingest(id, &rows).unwrap();
        }
        let (rec, report) = DurableRegistry::recover(
            &dir,
            &[TenantDef {
                id,
                workflow: &wf,
                limits: AdmissionLimits::default(),
            }],
        )
        .unwrap();
        assert!(!report.snapshot_loaded);
        assert!(report.tail.is_clean());
        assert_eq!(report.records_replayed, 1, "one frame record per ingest");
        assert_eq!(report.rows_applied, 4);
        // Same state as an uninterrupted run.
        let fresh = TenantRegistry::new();
        let t_fresh = fresh
            .create(id, TenantConfig::new(&wf).streaming(true))
            .unwrap();
        let rows: Vec<Tuple> = (0..4)
            .map(|i| wf.run(&[i & 1, (i >> 1) & 1, 1]).unwrap())
            .collect();
        t_fresh.ingest_batch(&IngestBatch::new(rows)).unwrap();
        let t_rec = rec.tenant(id).unwrap();
        assert_eq!(epochs_of(&t_rec), epochs_of(&t_fresh));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_workflows_are_not_registered() {
        let dir = tmp_dir("emptywf");
        let wf = sv_workflow::WorkflowBuilder::new().build().unwrap();
        let reg = DurableRegistry::create(&dir).unwrap();
        let Err(err) = reg.register(TenantId(8), TenantConfig::new(&wf)) else {
            panic!("an empty workflow registered");
        };
        assert!(
            matches!(
                err,
                DurableError::Serve(sv_serve::ServeError::EmptyWorkflow { tenant: 8 })
            ),
            "{err}"
        );
        assert!(reg.tenant(TenantId(8)).is_none());
        assert_eq!(reg.ledger_len(TenantId(8)), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_then_tail_replay() {
        let dir = tmp_dir("snaptail");
        let wf = one_one_chain(1, 4);
        let id = TenantId(1);
        let mk = |bits: u32| {
            wf.run(&[bits & 1, (bits >> 1) & 1, (bits >> 2) & 1, (bits >> 3) & 1])
                .unwrap()
        };
        {
            let reg = DurableRegistry::create(&dir).unwrap();
            reg.register(id, TenantConfig::new(&wf)).unwrap();
            reg.ingest(id, &[mk(0), mk(1)]).unwrap();
            reg.snapshot().unwrap();
            reg.ingest(id, &[mk(2)]).unwrap();
        }
        let (rec, report) = DurableRegistry::recover(
            &dir,
            &[TenantDef {
                id,
                workflow: &wf,
                limits: AdmissionLimits::default(),
            }],
        )
        .unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.records_replayed, 1, "only the post-snapshot tail");
        assert_eq!(rec.ledger_len(id), Some(3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_bumps_epochs_and_shrinks_log() {
        let dir = tmp_dir("compact");
        let wf = one_one_chain(1, 4);
        let id = TenantId(3);
        let mk = |bits: u32| {
            wf.run(&[bits & 1, (bits >> 1) & 1, (bits >> 2) & 1, (bits >> 3) & 1])
                .unwrap()
        };
        let reg = DurableRegistry::create(&dir).unwrap();
        let tenant = reg.register(id, TenantConfig::new(&wf)).unwrap();
        reg.ingest(id, &[mk(0), mk(1), mk(2)]).unwrap();
        let before = epochs_of(&tenant);
        let log_before = reg.log_bytes();
        let gen = reg.compact(id).unwrap();
        assert_eq!(gen, 1);
        assert_eq!(reg.compaction_epoch(id), Some(1));
        let after = epochs_of(&tenant);
        assert_eq!(after.len(), before.len());
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(*a, *b + 1, "compaction bumps every module epoch");
        }
        assert!(
            reg.log_bytes() < log_before,
            "rebuild-on-compact drops the superseded prefix"
        );
        // Recovery after compaction reproduces the bumped epochs.
        drop(tenant);
        drop(reg);
        let (rec, report) = DurableRegistry::recover(
            &dir,
            &[TenantDef {
                id,
                workflow: &wf,
                limits: AdmissionLimits::default(),
            }],
        )
        .unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(rec.compaction_epoch(id), Some(1));
        assert_eq!(epochs_of(&rec.tenant(id).unwrap()), after);
        // And ingest keeps working on the recovered registry.
        rec.ingest(id, &[mk(3)]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rejected_frames_never_reach_the_log() {
        let dir = tmp_dir("reject");
        let wf = one_one_chain(1, 2);
        let id = TenantId(2);
        let good = wf.run(&[0, 1]).unwrap();
        let mut bad_values = good.values().to_vec();
        bad_values[2] ^= 1; // FD violation against `good`
        let bad = Tuple::new(bad_values);
        {
            let reg = DurableRegistry::create(&dir).unwrap();
            reg.register(id, TenantConfig::new(&wf)).unwrap();
            let err = reg.ingest(id, &[good.clone(), bad]).unwrap_err();
            match err {
                BatchIngestError::Rejected(error) => {
                    assert_eq!(error.row_index(), Some(1), "frame-positioned");
                }
                other => panic!("expected Rejected, got {other}"),
            }
            assert_eq!(reg.ledger_len(id), Some(0), "all-or-nothing");
            assert_eq!(reg.last_seq(), 0, "rejected frame was never logged");
            // The valid row alone still lands — and is logged.
            reg.ingest(id, &[good]).unwrap();
            assert_eq!(reg.ledger_len(id), Some(1));
            assert_eq!(reg.last_seq(), 1);
        }
        let (rec, report) = DurableRegistry::recover(
            &dir,
            &[TenantDef {
                id,
                workflow: &wf,
                limits: AdmissionLimits::default(),
            }],
        )
        .unwrap();
        assert_eq!(report.records_replayed, 1);
        assert_eq!(report.rows_applied, 1);
        assert_eq!(rec.ledger_len(id), Some(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn submit_then_wait_groups_fsyncs() {
        let dir = tmp_dir("group");
        let wf = one_one_chain(1, 3);
        let id = TenantId(9);
        let reg = DurableRegistry::create(&dir).unwrap();
        reg.register(id, TenantConfig::new(&wf)).unwrap();
        let mut last = 0;
        for i in 0..10u32 {
            let row = wf.run(&[i & 1, (i >> 1) & 1, (i >> 2) & 1]).unwrap();
            let outcome = reg.submit(id, &IngestBatch::new(vec![row])).unwrap();
            last = outcome.log_seq;
        }
        reg.wait_durable(last).unwrap();
        let stats = reg.lane_stats();
        assert_eq!(stats.frames, 10);
        assert_eq!(stats.fsyncs, 1, "pipelined submits share one flush");
        assert_eq!(stats.coalesced, 9);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
