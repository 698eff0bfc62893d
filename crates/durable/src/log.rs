//! The write-ahead log: length-prefixed, checksummed records with a
//! **total** scanner — any byte-level damage decodes to a typed
//! [`LogTail`], never a panic.
//!
//! ## Record format
//!
//! ```text
//! record  := len:u32 LE | checksum:u64 LE | payload (len bytes)
//! payload := tag:u8 | body
//!
//! tag 0x02  Tombstone   body := tenant:u64 | seq:u64 | upto:u64
//! tag 0x03  Compact     body := tenant:u64 | seq:u64 | compaction_epoch:u64
//! tag 0x04  IngestFrame body := tenant:u64 | seq:u64 | rows:u32 | arity:u32 | value:u32 × (rows × arity)
//! ```
//!
//! An `IngestFrame` is one *whole* ingest batch in one record: because
//! the checksum covers the full payload, a crash mid-frame leaves a
//! torn record that the scanner truncates away — frames are atomic on
//! disk exactly as they are in memory. Tag `0x01`, the per-row record
//! of logs written before frame-atomic ingest, is retired and never
//! reused: a record carrying it scans as [`LogTail::Corrupt`], like any
//! other unknown tag.
//!
//! All integers are little-endian. `checksum` is FNV-1a 64 over the
//! payload bytes. `seq` is a global, strictly increasing log sequence
//! number assigned by the writer; it orders records across tenants and
//! anchors snapshots (`replay records with seq > snapshot.last_seq`).
//!
//! The scanner ([`scan`]) accepts the longest valid prefix: it stops at
//! the first record whose header or payload is incomplete
//! ([`LogTail::Torn`]) or damaged ([`LogTail::Corrupt`]) and reports
//! the byte offset. [`LogWriter::open`] then truncates the file to the
//! valid prefix so new appends extend a clean log.

use crate::error::{DurableError, LogTail};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use sv_relation::Value;

/// Largest accepted record payload — mirrors the wire layer's frame
/// bound. A length prefix above this is corruption, not a big record.
pub const MAX_RECORD_LEN: usize = 1 << 26;

/// Bytes of record header (`len:u32` + `checksum:u64`).
pub const RECORD_HEADER_LEN: usize = 12;

// 0x01 (the per-row ingest record) is retired; never reuse it.
const TAG_TOMBSTONE: u8 = 0x02;
const TAG_COMPACT: u8 = 0x03;
const TAG_INGEST_FRAME: u8 = 0x04;

/// FNV-1a 64-bit checksum (the log's integrity check — fast, portable,
/// and deterministic across platforms).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One durable log record. Every variant carries the tenant it belongs
/// to and its log sequence number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// One whole ingest frame, logged **after** validation but before
    /// apply: a frame in the log is by construction a frame that
    /// applies cleanly on replay. One record per frame means frame
    /// atomicity on disk — a torn frame is truncated whole.
    IngestFrame {
        /// Owning tenant.
        tenant: u64,
        /// Log sequence number.
        seq: u64,
        /// The frame's rows (workflow-schema values, arrival order).
        rows: Vec<Vec<Value>>,
    },
    /// Retention marker: this tenant's `IngestFrame` records with
    /// `seq <= upto` are superseded by a snapshot written immediately
    /// before this record, and may be dropped when the log is rebuilt.
    Tombstone {
        /// Owning tenant.
        tenant: u64,
        /// Log sequence number.
        seq: u64,
        /// Highest superseded sequence number.
        upto: u64,
    },
    /// A compaction happened: the tenant's modules were rebuilt and its
    /// compaction epoch advanced to `compaction_epoch` (recorded so a
    /// replayed log agrees with the snapshot even if the two race a
    /// crash).
    Compact {
        /// Owning tenant.
        tenant: u64,
        /// Log sequence number.
        seq: u64,
        /// The tenant's compaction epoch after this compaction.
        compaction_epoch: u64,
    },
}

impl Record {
    /// The record's log sequence number.
    #[must_use]
    pub fn seq(&self) -> u64 {
        match self {
            Self::IngestFrame { seq, .. }
            | Self::Tombstone { seq, .. }
            | Self::Compact { seq, .. } => *seq,
        }
    }

    /// The record's owning tenant.
    #[must_use]
    pub fn tenant(&self) -> u64 {
        match self {
            Self::IngestFrame { tenant, .. }
            | Self::Tombstone { tenant, .. }
            | Self::Compact { tenant, .. } => *tenant,
        }
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Self::IngestFrame { tenant, seq, rows } => {
                out.push(TAG_INGEST_FRAME);
                out.extend_from_slice(&tenant.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                put_rows(&mut out, rows);
            }
            Self::Tombstone { tenant, seq, upto } => {
                out.push(TAG_TOMBSTONE);
                out.extend_from_slice(&tenant.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&upto.to_le_bytes());
            }
            Self::Compact {
                tenant,
                seq,
                compaction_epoch,
            } => {
                out.push(TAG_COMPACT);
                out.extend_from_slice(&tenant.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&compaction_epoch.to_le_bytes());
            }
        }
        out
    }

    /// Encodes the record with its header (`len | checksum | payload`).
    ///
    /// # Errors
    /// [`DurableError::RecordTooLarge`] for a payload beyond
    /// [`MAX_RECORD_LEN`] (only reachable with a pathological arity).
    pub fn encode(&self) -> Result<Vec<u8>, DurableError> {
        let payload = self.encode_payload();
        if payload.len() > MAX_RECORD_LEN {
            return Err(DurableError::RecordTooLarge {
                len: payload.len(),
                max: MAX_RECORD_LEN,
            });
        }
        Ok(with_header(&payload))
    }

    /// Total payload decoder: exact-length; a fault is `Err` with its
    /// payload offset.
    fn decode_payload(buf: &[u8]) -> Result<Self, usize> {
        let mut r = Reader::new(buf);
        let record = match r.u8()? {
            TAG_INGEST_FRAME => {
                let tenant = r.u64()?;
                let seq = r.u64()?;
                let nrows = r.u32()? as usize;
                let rows = r.rows(nrows)?;
                Self::IngestFrame { tenant, seq, rows }
            }
            TAG_TOMBSTONE => Self::Tombstone {
                tenant: r.u64()?,
                seq: r.u64()?,
                upto: r.u64()?,
            },
            TAG_COMPACT => Self::Compact {
                tenant: r.u64()?,
                seq: r.u64()?,
                compaction_epoch: r.u64()?,
            },
            // An unknown tag, the retired 0x01 included.
            _ => return Err(0),
        };
        if r.remaining() != 0 {
            return Err(r.pos);
        }
        Ok(record)
    }
}

/// `len:u32 LE | checksum:u64 LE | payload` — the header discipline the
/// log's records and the snapshot file share.
pub(crate) fn with_header(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Appends `arity:u32 | value:u32 × (rows × arity)`. Every row shares
/// the workflow schema's arity, so it is stored once.
pub(crate) fn put_rows(out: &mut Vec<u8>, rows: &[Vec<Value>]) {
    let arity = rows.first().map_or(0, Vec::len);
    out.extend_from_slice(&(arity as u32).to_le_bytes());
    for row in rows {
        debug_assert_eq!(row.len(), arity, "rows share one schema");
        for &v in row {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// A little-endian cursor over a record payload, a record header or a
/// snapshot. Every read is length-checked: running out of bytes is
/// `Err(offset)`, never a panic.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], usize> {
        if self.remaining() < n {
            return Err(self.pos);
        }
        self.pos += n;
        Ok(&self.buf[self.pos - n..self.pos])
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], usize> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, usize> {
        self.array().map(u8::from_le_bytes)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, usize> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, usize> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads what [`put_rows`] wrote for `nrows` rows, refusing a
    /// shape larger than the bytes left before allocating for it. Rows
    /// of arity 0 take no bytes, so the bytes left cannot bound their
    /// count: since no tenant's workflow has an empty schema
    /// (registration refuses one), any such row is corruption.
    pub(crate) fn rows(&mut self, nrows: usize) -> Result<Vec<Vec<Value>>, usize> {
        let arity = self.u32()? as usize;
        if (arity == 0 && nrows > 0)
            || nrows
                .checked_mul(arity)
                .is_none_or(|cells| cells > self.remaining() / 4)
        {
            return Err(self.pos);
        }
        (0..nrows)
            .map(|_| (0..arity).map(|_| self.u32()).collect())
            .collect()
    }
}

/// Atomically replaces `path` with `bytes`: writes a sibling `.tmp`
/// file, syncs it, and renames it over `path`, so a crash leaves the
/// old contents or the new ones, never a torn mix.
pub(crate) fn replace_file(path: &Path, bytes: &[u8]) -> Result<(), DurableError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut f = File::create(&tmp).map_err(|e| DurableError::io("create", &tmp, &e))?;
    f.write_all(bytes)
        .map_err(|e| DurableError::io("write", &tmp, &e))?;
    f.sync_data()
        .map_err(|e| DurableError::io("sync", &tmp, &e))?;
    std::fs::rename(&tmp, path).map_err(|e| DurableError::io("rename", path, &e))
}

/// Scans a log image, returning the records of its longest valid
/// prefix, the tail disposition, and the byte length of that prefix.
/// Total: never panics, never errors — damage is data.
#[must_use]
pub fn scan(buf: &[u8]) -> (Vec<Record>, LogTail, u64) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let tail = loop {
        if pos == buf.len() {
            break LogTail::Clean;
        }
        let offset = pos as u64;
        let mut r = Reader::new(&buf[pos..]);
        let (Ok(len), Ok(checksum)) = (r.u32(), r.u64()) else {
            break LogTail::Torn { offset };
        };
        if len as usize > MAX_RECORD_LEN {
            break LogTail::Corrupt { offset };
        }
        let Ok(payload) = r.take(len as usize) else {
            break LogTail::Torn { offset };
        };
        if fnv1a64(payload) != checksum {
            break LogTail::Corrupt { offset };
        }
        let Ok(record) = Record::decode_payload(payload) else {
            break LogTail::Corrupt { offset };
        };
        records.push(record);
        pos += r.pos;
    };
    (records, tail, pos as u64)
}

/// Reads and scans a log file.
///
/// # Errors
/// Only IO errors — byte-level damage comes back as the [`LogTail`].
pub fn read_log(path: &Path) -> Result<(Vec<Record>, LogTail, u64), DurableError> {
    let mut buf = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut buf))
        .map_err(|e| DurableError::io("read log", path, &e))?;
    Ok(scan(&buf))
}

/// The append side of the log: assigns sequence numbers, frames and
/// checksums records, and tracks the byte length of the valid prefix.
#[derive(Debug)]
pub struct LogWriter {
    file: File,
    path: PathBuf,
    next_seq: u64,
    len_bytes: u64,
}

impl LogWriter {
    /// Creates a fresh, empty log (truncating any existing file).
    ///
    /// # Errors
    /// IO failures.
    pub fn create(path: &Path) -> Result<Self, DurableError> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)
            .map_err(|e| DurableError::io("create log", path, &e))?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            next_seq: 1,
            len_bytes: 0,
        })
    }

    /// Opens an existing log (or creates an empty one): scans it,
    /// **truncates** any torn/corrupt tail so appends extend the valid
    /// prefix, and positions the next sequence number after the highest
    /// surviving record. Returns the surviving records and the
    /// pre-truncation tail disposition.
    ///
    /// # Errors
    /// IO failures.
    pub fn open(path: &Path) -> Result<(Self, Vec<Record>, LogTail), DurableError> {
        let mut buf = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut buf)
                    .map_err(|e| DurableError::io("read log", path, &e))?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(DurableError::io("open log", path, &e)),
        }
        let (records, tail, valid_len) = scan(&buf);
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            // Keep the valid prefix — only the bad tail is cut, below.
            .truncate(false)
            .open(path)
            .map_err(|e| DurableError::io("open log", path, &e))?;
        if valid_len < buf.len() as u64 {
            file.set_len(valid_len)
                .map_err(|e| DurableError::io("truncate log tail", path, &e))?;
        }
        let mut file = file;
        file.seek(SeekFrom::Start(valid_len))
            .map_err(|e| DurableError::io("seek log", path, &e))?;
        let next_seq = records.iter().map(Record::seq).max().unwrap_or(0) + 1;
        Ok((
            Self {
                file,
                path: path.to_path_buf(),
                next_seq,
                len_bytes: valid_len,
            },
            records,
            tail,
        ))
    }

    /// The next sequence number this writer will assign.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The log file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Byte length of the log's valid prefix (everything appended).
    #[must_use]
    pub fn len_bytes(&self) -> u64 {
        self.len_bytes
    }

    /// Highest sequence number assigned so far (0 when empty).
    #[must_use]
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    fn append(&mut self, record: &Record) -> Result<(), DurableError> {
        let bytes = record.encode()?;
        self.file
            .write_all(&bytes)
            .map_err(|e| DurableError::io("append", &self.path, &e))?;
        self.len_bytes += bytes.len() as u64;
        self.next_seq += 1;
        Ok(())
    }

    /// Appends one whole ingest frame as a single record, returning its
    /// sequence number. Rows must share one arity (one workflow schema
    /// per tenant).
    ///
    /// # Errors
    /// IO failures; [`DurableError::RecordTooLarge`].
    pub fn append_frame(&mut self, tenant: u64, rows: &[Vec<Value>]) -> Result<u64, DurableError> {
        let seq = self.next_seq;
        self.append(&Record::IngestFrame {
            tenant,
            seq,
            rows: rows.to_vec(),
        })?;
        Ok(seq)
    }

    /// A second handle to the log file, for syncing **outside** any
    /// lock that guards appends: `sync_data` on the clone flushes the
    /// same kernel file, so appenders never wait behind an fsync.
    ///
    /// # Errors
    /// IO failures (descriptor duplication).
    pub fn clone_handle(&self) -> Result<File, DurableError> {
        self.file
            .try_clone()
            .map_err(|e| DurableError::io("clone log handle", &self.path, &e))
    }

    /// Appends a tombstone record, returning its sequence number.
    ///
    /// # Errors
    /// IO failures.
    pub fn append_tombstone(&mut self, tenant: u64, upto: u64) -> Result<u64, DurableError> {
        let seq = self.next_seq;
        self.append(&Record::Tombstone { tenant, seq, upto })?;
        Ok(seq)
    }

    /// Appends a compaction record, returning its sequence number.
    ///
    /// # Errors
    /// IO failures.
    pub fn append_compact(
        &mut self,
        tenant: u64,
        compaction_epoch: u64,
    ) -> Result<u64, DurableError> {
        let seq = self.next_seq;
        self.append(&Record::Compact {
            tenant,
            seq,
            compaction_epoch,
        })?;
        Ok(seq)
    }

    /// Flushes appended records to stable storage (`fsync`).
    ///
    /// # Errors
    /// IO failures.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        self.file
            .sync_data()
            .map_err(|e| DurableError::io("sync", &self.path, &e))
    }

    /// Atomically replaces the log's contents with `records`
    /// (rebuild-on-compact): writes a sibling temp file, syncs it, and
    /// renames it over the log. Sequence numbers are preserved — the
    /// writer's counter does not rewind.
    ///
    /// # Errors
    /// IO failures; [`DurableError::RecordTooLarge`].
    pub fn rewrite(&mut self, records: &[Record]) -> Result<(), DurableError> {
        let mut bytes = Vec::new();
        for r in records {
            bytes.extend_from_slice(&r.encode()?);
        }
        replace_file(&self.path, &bytes)?;
        // Reopen the handle: the old descriptor points at the unlinked
        // pre-rewrite inode.
        self.file = OpenOptions::new()
            .write(true)
            .open(&self.path)
            .map_err(|e| DurableError::io("reopen log", &self.path, &e))?;
        self.file
            .seek(SeekFrom::End(0))
            .map_err(|e| DurableError::io("seek log", &self.path, &e))?;
        self.len_bytes = bytes.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::IngestFrame {
                tenant: 1,
                seq: 1,
                rows: vec![vec![0, 1, 2]],
            },
            Record::IngestFrame {
                tenant: 2,
                seq: 2,
                rows: vec![vec![3, 4, 5], vec![6, 7, 8]],
            },
            Record::Tombstone {
                tenant: 1,
                seq: 3,
                upto: 1,
            },
            Record::Compact {
                tenant: 1,
                seq: 4,
                compaction_epoch: 1,
            },
        ]
    }

    fn encode_all(records: &[Record]) -> Vec<u8> {
        records.iter().flat_map(|r| r.encode().unwrap()).collect()
    }

    #[test]
    fn roundtrip_and_clean_scan() {
        let records = sample_records();
        let buf = encode_all(&records);
        let (got, tail, len) = scan(&buf);
        assert_eq!(got, records);
        assert_eq!(tail, LogTail::Clean);
        assert_eq!(len, buf.len() as u64);
    }

    #[test]
    fn every_truncation_is_torn_or_shorter_clean() {
        let records = sample_records();
        let buf = encode_all(&records);
        let boundaries: Vec<usize> = {
            let mut b = vec![0];
            let mut acc = 0;
            for r in &records {
                acc += r.encode().unwrap().len();
                b.push(acc);
            }
            b
        };
        for cut in 0..buf.len() {
            let (got, tail, _) = scan(&buf[..cut]);
            if boundaries.contains(&cut) {
                assert_eq!(tail, LogTail::Clean, "cut at boundary {cut}");
            } else {
                assert!(
                    matches!(tail, LogTail::Torn { .. }),
                    "cut at {cut} gave {tail:?}"
                );
            }
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(got.len(), whole, "cut at {cut}");
            assert_eq!(got[..], records[..whole]);
        }
    }

    #[test]
    fn every_bit_flip_is_detected_or_prefix_preserving() {
        let records = sample_records();
        let buf = encode_all(&records);
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut damaged = buf.clone();
                damaged[byte] ^= 1 << bit;
                let (got, tail, _) = scan(&damaged);
                // The records before the damaged one must survive
                // unchanged; nothing at or after the damage may appear.
                assert!(
                    matches!(tail, LogTail::Corrupt { .. } | LogTail::Torn { .. }),
                    "flip {byte}.{bit} went undetected: {tail:?}"
                );
                assert!(got.len() < records.len());
                assert_eq!(got[..], records[..got.len()]);
            }
        }
    }

    #[test]
    fn retired_row_record_tag_scans_as_corrupt() {
        // A correctly checksummed record in the retired per-row layout:
        // tag 0x01, tenant 1, seq 5, arity 2, values [7, 8].
        let mut payload = vec![0x01];
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&5u64.to_le_bytes());
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&7u32.to_le_bytes());
        payload.extend_from_slice(&8u32.to_le_bytes());
        let records = sample_records();
        let mut buf = encode_all(&records);
        let offset = buf.len() as u64;
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        let (got, tail, len) = scan(&buf);
        assert_eq!(got, records, "the valid records before it are kept");
        assert_eq!(tail, LogTail::Corrupt { offset });
        assert_eq!(len, offset);
    }

    #[test]
    fn frame_records_roundtrip_edge_shapes() {
        for rows in [vec![], vec![vec![9]; 7], vec![vec![0, 1, 2, 3]; 3]] {
            let r = Record::IngestFrame {
                tenant: 42,
                seq: 1,
                rows,
            };
            let buf = r.encode().unwrap();
            let (got, tail, len) = scan(&buf);
            assert_eq!(tail, LogTail::Clean);
            assert_eq!(len, buf.len() as u64);
            assert_eq!(got, vec![r]);
        }
    }

    #[test]
    fn zero_arity_rows_scan_as_corrupt() {
        // A correctly checksummed frame claiming 1,000,000 rows of arity
        // 0 in a 37-byte record: its bytes cannot bound the row count,
        // so the decoder must refuse it rather than allocate the rows.
        let mut payload = vec![TAG_INGEST_FRAME];
        payload.extend_from_slice(&42u64.to_le_bytes());
        payload.extend_from_slice(&5u64.to_le_bytes());
        payload.extend_from_slice(&1_000_000u32.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        let records = sample_records();
        let mut buf = encode_all(&records);
        let offset = buf.len() as u64;
        buf.extend_from_slice(&with_header(&payload));
        assert_eq!(buf.len() as u64 - offset, 37);
        let (got, tail, len) = scan(&buf);
        assert_eq!(got, records, "the valid records before it are kept");
        assert_eq!(tail, LogTail::Corrupt { offset });
        assert_eq!(len, offset);
    }

    #[test]
    fn writer_open_truncates_damage_and_resumes_seq() {
        let dir = std::env::temp_dir().join(format!("sv-durable-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let mut w = LogWriter::create(&path).unwrap();
        assert_eq!(w.append_frame(7, &[vec![1, 2]]).unwrap(), 1);
        assert_eq!(w.append_frame(7, &[vec![3, 4], vec![5, 6]]).unwrap(), 2);
        w.sync().unwrap();
        let clean_len = w.len_bytes();
        // Simulate a torn third append.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0x05, 0x00]).unwrap();
        }
        let (w2, records, tail) = LogWriter::open(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(tail, LogTail::Torn { offset: clean_len });
        assert_eq!(w2.next_seq(), 3);
        assert_eq!(w2.len_bytes(), clean_len);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            clean_len,
            "torn tail must be truncated away"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_replaces_contents_atomically() {
        let dir = std::env::temp_dir().join(format!("sv-durable-rw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let mut w = LogWriter::create(&path).unwrap();
        w.append_frame(1, &[vec![1]]).unwrap();
        w.append_frame(2, &[vec![2]]).unwrap();
        let keep = Record::IngestFrame {
            tenant: 2,
            seq: 2,
            rows: vec![vec![2]],
        };
        w.rewrite(std::slice::from_ref(&keep)).unwrap();
        w.append_frame(3, &[vec![3]]).unwrap();
        w.sync().unwrap();
        let (records, tail, _) = read_log(&path).unwrap();
        assert_eq!(tail, LogTail::Clean);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], keep);
        assert_eq!(records[1].seq(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
