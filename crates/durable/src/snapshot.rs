//! Snapshots: a point-in-time serialization of every tenant's durable
//! state, written atomically (temp file + rename) and validated with
//! the same length-prefix + checksum discipline as the log.
//!
//! ## Layout
//!
//! ```text
//! file    := len:u32 LE | checksum:u64 LE | payload (len bytes)
//! payload := magic "SVSNAP01" | last_seq:u64 | n_tenants:u32 | tenant × n_tenants
//! tenant  := id:u64 | compaction_epoch:u64
//!          | n_modules:u32 | (module_index:u32 | epoch:u64) × n_modules
//!          | n_rows:u64 | arity:u32 | value:u32 × (n_rows × arity)
//! ```
//!
//! The per-tenant **ledger** is the sequence of workflow-schema rows
//! the tenant applied, in arrival order. Module relations are *not*
//! serialized: they are pure functions of the ledger (projection +
//! first-occurrence dedup), so recovery rebuilds them via
//! [`WorkflowOracles::restore_ledger`](sv_core::safety::WorkflowOracles::restore_ledger).
//! Module **epochs** do travel explicitly — after a compaction an epoch
//! is not derivable from row counts.
//!
//! `last_seq` anchors the snapshot in the log: recovery replays only
//! records with `seq > last_seq`.

use crate::error::DurableError;
use crate::log::{fnv1a64, put_rows, replace_file, with_header, Reader};
use std::fs::File;
use std::io::Read;
use std::path::Path;
use sv_relation::Value;

const MAGIC: &[u8; 8] = b"SVSNAP01";

/// Largest accepted snapshot payload (generous: snapshots hold whole
/// ledgers).
pub const MAX_SNAPSHOT_LEN: usize = 1 << 30;

/// One tenant's durable state at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantSnapshot {
    /// The tenant's wire id.
    pub tenant: u64,
    /// Retention generation: how many compactions this tenant has
    /// undergone.
    pub compaction_epoch: u64,
    /// `(module index, relation epoch)` per private module, in the
    /// oracle-set iteration order.
    pub module_epochs: Vec<(u32, u64)>,
    /// Applied workflow rows, arrival order. All rows share the
    /// workflow schema's arity.
    pub ledger: Vec<Vec<Value>>,
}

/// A whole-registry snapshot.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Highest log sequence number whose effects the snapshot captures.
    pub last_seq: u64,
    /// Per-tenant states, ascending tenant id.
    pub tenants: Vec<TenantSnapshot>,
}

impl Snapshot {
    /// Serializes the snapshot payload (without the file header) —
    /// deterministic, so snapshot size is an exact-gateable metric.
    #[must_use]
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.last_seq.to_le_bytes());
        out.extend_from_slice(&(self.tenants.len() as u32).to_le_bytes());
        for t in &self.tenants {
            out.extend_from_slice(&t.tenant.to_le_bytes());
            out.extend_from_slice(&t.compaction_epoch.to_le_bytes());
            out.extend_from_slice(&(t.module_epochs.len() as u32).to_le_bytes());
            for &(idx, epoch) in &t.module_epochs {
                out.extend_from_slice(&idx.to_le_bytes());
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            out.extend_from_slice(&(t.ledger.len() as u64).to_le_bytes());
            put_rows(&mut out, &t.ledger);
        }
        out
    }

    /// Total decoder for a snapshot payload.
    ///
    /// # Errors
    /// [`DurableError::SnapshotCorrupt`] on any structural fault.
    pub fn decode_payload(buf: &[u8]) -> Result<Self, DurableError> {
        let corrupt = |pos: usize, detail: &str| DurableError::SnapshotCorrupt {
            offset: pos as u64,
            detail: detail.to_string(),
        };
        let mut r = Reader::new(buf);
        let magic = r.take(8).map_err(|p| corrupt(p, "truncated magic"))?;
        if magic != MAGIC {
            return Err(corrupt(0, "bad magic"));
        }
        let last_seq = r.u64().map_err(|p| corrupt(p, "truncated last_seq"))?;
        let n_tenants = r.u32().map_err(|p| corrupt(p, "truncated tenant count"))?;
        let mut tenants = Vec::new();
        for _ in 0..n_tenants {
            let tenant = r.u64().map_err(|p| corrupt(p, "truncated tenant id"))?;
            let compaction_epoch = r
                .u64()
                .map_err(|p| corrupt(p, "truncated compaction epoch"))?;
            let n_modules = r.u32().map_err(|p| corrupt(p, "truncated module count"))? as usize;
            if n_modules > r.remaining() / 12 {
                return Err(corrupt(r.pos, "module count exceeds payload"));
            }
            let mut module_epochs = Vec::with_capacity(n_modules);
            for _ in 0..n_modules {
                let idx = r.u32().map_err(|p| corrupt(p, "truncated module index"))?;
                let epoch = r.u64().map_err(|p| corrupt(p, "truncated module epoch"))?;
                module_epochs.push((idx, epoch));
            }
            let n_rows = r.u64().map_err(|p| corrupt(p, "truncated row count"))? as usize;
            let ledger = r
                .rows(n_rows)
                .map_err(|p| corrupt(p, "truncated or oversized ledger"))?;
            tenants.push(TenantSnapshot {
                tenant,
                compaction_epoch,
                module_epochs,
                ledger,
            });
        }
        if r.remaining() != 0 {
            return Err(corrupt(r.pos, "trailing bytes"));
        }
        Ok(Self { last_seq, tenants })
    }

    /// The full file image (`len | checksum | payload`).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        with_header(&self.encode_payload())
    }

    /// Writes the snapshot **atomically**: a sibling `.tmp` file is
    /// written, synced, and renamed over `path` — a crash mid-write
    /// leaves either the old snapshot or the new one, never a torn mix.
    ///
    /// # Errors
    /// IO failures.
    pub fn save(&self, path: &Path) -> Result<(), DurableError> {
        replace_file(path, &self.encode())
    }

    /// Loads and validates a snapshot; `Ok(None)` when the file does
    /// not exist (a fresh directory, not a fault).
    ///
    /// # Errors
    /// IO failures; [`DurableError::SnapshotCorrupt`] on any damage
    /// (checksum mismatch, truncation, structural faults).
    pub fn load(path: &Path) -> Result<Option<Self>, DurableError> {
        let mut buf = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut buf)
                    .map_err(|e| DurableError::io("read snapshot", path, &e))?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(DurableError::io("open snapshot", path, &e)),
        }
        let mut r = Reader::new(&buf);
        let (Ok(len), Ok(checksum)) = (r.u32(), r.u64()) else {
            return Err(DurableError::SnapshotCorrupt {
                offset: 0,
                detail: "file shorter than header".into(),
            });
        };
        let len = len as usize;
        if len > MAX_SNAPSHOT_LEN || r.remaining() != len {
            return Err(DurableError::SnapshotCorrupt {
                offset: 0,
                detail: format!("length prefix {len} does not match file size {}", buf.len()),
            });
        }
        let payload = &buf[r.pos..];
        if fnv1a64(payload) != checksum {
            return Err(DurableError::SnapshotCorrupt {
                offset: 4,
                detail: "checksum mismatch".into(),
            });
        }
        Self::decode_payload(payload).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            last_seq: 42,
            tenants: vec![
                TenantSnapshot {
                    tenant: 1,
                    compaction_epoch: 2,
                    module_epochs: vec![(0, 5), (1, 4)],
                    ledger: vec![vec![0, 1, 1], vec![1, 0, 1]],
                },
                TenantSnapshot {
                    tenant: 9,
                    compaction_epoch: 0,
                    module_epochs: vec![(0, 0)],
                    ledger: vec![],
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let s = sample();
        let got = Snapshot::decode_payload(&s.encode_payload()).unwrap();
        assert_eq!(got, s);
    }

    #[test]
    fn save_load_roundtrip_and_missing_is_none() {
        let dir = std::env::temp_dir().join(format!("sv-durable-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.svs");
        assert!(Snapshot::load(&path).unwrap().is_none());
        let s = sample();
        s.save(&path).unwrap();
        assert_eq!(Snapshot::load(&path).unwrap(), Some(s));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_arity_ledger_rows_are_corrupt() {
        // One tenant, no modules, a ledger claiming 1,000,000 rows of
        // arity 0: nothing in the payload bounds that count.
        let mut payload = MAGIC.to_vec();
        payload.extend_from_slice(&7u64.to_le_bytes()); // last_seq
        payload.extend_from_slice(&1u32.to_le_bytes()); // tenants
        payload.extend_from_slice(&3u64.to_le_bytes()); // tenant id
        payload.extend_from_slice(&0u64.to_le_bytes()); // compaction epoch
        payload.extend_from_slice(&0u32.to_le_bytes()); // modules
        payload.extend_from_slice(&1_000_000u64.to_le_bytes()); // rows
        payload.extend_from_slice(&0u32.to_le_bytes()); // arity
        let dir = std::env::temp_dir().join(format!("sv-durable-snap0-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.svs");
        std::fs::write(&path, with_header(&payload)).unwrap();
        assert!(matches!(
            Snapshot::load(&path),
            Err(DurableError::SnapshotCorrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_bit_flip_is_a_typed_fault() {
        let dir = std::env::temp_dir().join(format!("sv-durable-snapflip-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.svs");
        let s = sample();
        let clean = s.encode();
        for byte in 0..clean.len() {
            let mut damaged = clean.clone();
            damaged[byte] ^= 0x10;
            std::fs::write(&path, &damaged).unwrap();
            let got = Snapshot::load(&path);
            assert!(
                matches!(got, Err(DurableError::SnapshotCorrupt { .. })),
                "flip at byte {byte} was not detected"
            );
        }
        // Truncations too.
        for cut in 0..clean.len() {
            std::fs::write(&path, &clean[..cut]).unwrap();
            assert!(
                matches!(
                    Snapshot::load(&path),
                    Err(DurableError::SnapshotCorrupt { .. })
                ),
                "truncation at {cut} was not detected"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
