//! **sv-durable** — durability for the provenance-privacy serving
//! tier: a write-ahead log, snapshots, retention, and crash recovery.
//!
//! The serving tier (`sv-serve`) keeps every tenant's provenance in
//! memory; this crate makes ingest survive a crash. Four pieces:
//!
//! * [`log`] — a length-prefixed, FNV-1a-checksummed record log with a
//!   **total** scanner: a torn or bit-flipped tail is a typed
//!   [`LogTail`], never a panic, and the valid prefix always survives.
//!   One ingest frame is one record, so frames are atomic on disk;
//! * [`lane`] — [`CommitLane`], leader/follower **group commit**:
//!   appends never fsync, waiters coalesce onto one flush (the leader
//!   syncs a cloned handle outside the lane mutex, so appenders are
//!   never blocked by the disk), and acks release only after the
//!   covering sync;
//! * [`snapshot`] — an atomic point-in-time serialization of every
//!   tenant's applied-row ledger, module epochs, and retention
//!   generation;
//! * [`registry`] — [`DurableRegistry`], wrapping the serving tier's
//!   `TenantRegistry` so each ingest frame is validated, logged, then
//!   applied — all-or-nothing — with recovery = snapshot load +
//!   log-tail replay reaching the exact same interned-kernel state and
//!   epochs as the uninterrupted run (proved by `tests/crash_prop.rs`,
//!   which cuts and corrupts the log at every byte — including through
//!   the middle of coalesced batches — and replays).
//!
//! Retention: [`DurableRegistry::compact`] rebuilds a tenant from its
//! ledger with every relation epoch strictly advanced (so
//! epoch-conditioned clients observe `StaleEpoch`, and memos are
//! rebuilt cold), snapshots, and rewrites the log without the
//! superseded prefix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod lane;
pub mod log;
pub mod registry;
pub mod snapshot;

pub use error::{DurableError, LogTail};
pub use lane::{CommitLane, LaneStats};
pub use log::{fnv1a64, read_log, LogWriter, Record, MAX_RECORD_LEN, RECORD_HEADER_LEN};
pub use registry::{DurableRegistry, RecoveryReport, TenantDef, LOG_FILE, SNAPSHOT_FILE};
pub use snapshot::{Snapshot, TenantSnapshot};
