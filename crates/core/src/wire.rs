//! Wire framing for the provenance-privacy serving tier.
//!
//! The serving tier (`sv-serve`) moves batches of safety probes and
//! append ingest between clients and a tenant-multiplexing server. This
//! module defines the **transport-independent** part of that protocol:
//! the request/response payload types and their binary encoding. The
//! transports themselves (in-process loopback, local sockets) live in
//! `sv-serve`; both carry exactly these payloads.
//!
//! ## Frame layout
//!
//! A frame is a 4-byte little-endian `u32` payload length followed by
//! the payload bytes; payloads longer than [`MAX_FRAME_LEN`] are
//! rejected before any decoding. Within a payload every integer is
//! little-endian; the first byte is a message tag (see [`Request`] and
//! [`Response`]). [`frame`] / [`unframe`] implement the prefix for
//! in-memory buffers; stream transports read the 4-byte header first
//! and then the payload.
//!
//! ## Epochs on the wire
//!
//! A [`ProbeRequest`] may be conditioned on a module's relation epoch;
//! the server rejects the **whole batch** with
//! [`ServeFault::StaleEpoch`] when any conditioned probe's epoch does
//! not match the module's current one — exactly the
//! [`CoreError::StaleEpoch`](crate::CoreError::StaleEpoch) semantics of
//! [`WorkflowOracles::probe_batch`](crate::safety::WorkflowOracles::probe_batch),
//! surfaced as a typed response instead of a Rust error. Every probe
//! outcome carries the epoch it was answered at, so clients can chain
//! conditioned probes without a separate epoch query.
//!
//! ## Durability receipts
//!
//! Ingest frames are acknowledged with [`Response::Receipt`] (tag
//! `0x86`): the applied-row count, the post-frame epochs, and
//! [`IngestReceipt::durable_seq`] — the highest write-ahead-log
//! sequence whose fsync covers the frame (0 when the server has no
//! durability configured). It is the only ingest acknowledgement; tag
//! `0x82`, the pre-durability reply, is retired and never reused — a
//! payload carrying it decodes to [`WireError::BadTag`].
//!
//! The full protocol specification (tenancy model, backpressure
//! contract, operational guide) is `docs/SERVING.md` in the repository
//! root.
//!
//! # Examples
//! ```
//! use sv_core::safety::ProbeRequest;
//! use sv_core::wire::{frame, unframe, Request};
//! use sv_relation::AttrSet;
//! use sv_workflow::ModuleId;
//!
//! let req = Request::Probe {
//!     tenant: 7,
//!     probes: vec![ProbeRequest::new(ModuleId(0), AttrSet::from_indices(&[0, 2]), 4).at_epoch(1)],
//! };
//! let payload = req.encode();
//! let framed = frame(&payload);
//! assert_eq!(unframe(&framed).unwrap(), &payload[..]);
//! assert_eq!(Request::decode(&payload).unwrap(), req);
//! ```

use crate::safety::{ProbeOutcome, ProbeRequest};
use std::fmt;
use sv_relation::{AttrId, AttrSet, Value};
use sv_workflow::ModuleId;

/// Maximum payload length a conforming endpoint accepts (64 MiB). The
/// length prefix is checked against this before any allocation, so a
/// corrupt or hostile header cannot trigger an outsized buffer.
pub const MAX_FRAME_LEN: usize = 1 << 26;

/// Maximum attribute id accepted in a wire-encoded attribute set.
/// `AttrSet` is a bitset sized by its largest member, so without this
/// bound a single corrupt id (e.g. a flipped high bit turning attr 2
/// into attr 2³¹) would make the decoder allocate a multi-hundred-MiB
/// set. 2²⁰ attributes is far beyond any real workflow schema while
/// capping one set at 16,385 words (128 KiB). A frame's sets together
/// are capped separately: decoding charges each list-form set's bitset
/// words to a budget of one word per payload byte plus one largest set,
/// so any single in-range set decodes, and a frame of many such sets
/// fails with [`WireError::Oversize`] instead of allocating 128 KiB per
/// set.
pub const MAX_WIRE_ATTR_ID: u32 = 1 << 20;

// ── Message tags ────────────────────────────────────────────────────
const TAG_REQ_PROBE: u8 = 0x01;
const TAG_REQ_INGEST: u8 = 0x02;
const TAG_REQ_EPOCHS: u8 = 0x03;
const TAG_RESP_PROBE: u8 = 0x81;
// 0x82 (the pre-durability ingest reply) is retired; never reuse it.
const TAG_RESP_EPOCHS: u8 = 0x83;
const TAG_RESP_BUSY: u8 = 0x84;
const TAG_RESP_ERROR: u8 = 0x85;
const TAG_RESP_RECEIPT: u8 = 0x86;
const TAG_SET_WORD: u8 = 0x00;
const TAG_SET_LIST: u8 = 0x01;

/// A client → server message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// A batch of safety probes against one tenant's workflow, answered
    /// atomically by
    /// [`WorkflowOracles::probe_batch`](crate::safety::WorkflowOracles::probe_batch):
    /// either every probe is answered (in request order) or the whole
    /// batch is rejected with a typed fault.
    Probe {
        /// The tenant the batch addresses.
        tenant: u64,
        /// The probes, in the order outcomes come back.
        probes: Vec<ProbeRequest>,
    },
    /// Append ingest: full provenance rows over the tenant workflow's
    /// schema, applied **frame-atomically** (the whole batch is checked
    /// against the workflow schema and every private module before any
    /// module sees a row; an invalid row fails the frame with
    /// [`ServeFault::Rejected`] and **nothing** is applied).
    Ingest {
        /// The tenant the rows belong to.
        tenant: u64,
        /// Provenance rows (workflow-schema order).
        rows: Vec<Vec<Value>>,
    },
    /// Reads the tenant's current per-module relation epochs (for
    /// conditioning subsequent probes).
    Epochs {
        /// The tenant to read.
        tenant: u64,
    },
}

/// A server → client message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Probe outcomes, in request order.
    Probe(Vec<ProbeOutcome>),
    /// Ingest acknowledgement with durability: epochs *and* the
    /// covering log sequence number.
    Receipt(IngestReceipt),
    /// Per-module relation epochs.
    Epochs(Vec<ModuleEpoch>),
    /// Admission control rejected the frame; retry later (or shrink the
    /// batch). The server did **not** touch tenant state.
    Busy(BusyReason),
    /// The request failed; the fault says why.
    Error(ServeFault),
}

/// One module's relation epoch, as reported on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ModuleEpoch {
    /// The private module's id (workflow index).
    pub module: ModuleId,
    /// Its current relation epoch.
    pub epoch: u64,
}

/// Acknowledgement of an [`Request::Ingest`] frame
/// ([`Response::Receipt`], wire tag `0x86`): the applied-row count, the
/// post-frame epochs, and the highest write-ahead-log sequence number
/// whose fsync covered this frame. `durable_seq == 0` means the
/// serving path has no durability configured (loopback / in-memory
/// sinks); a nonzero value is the commit-lane guarantee that the frame
/// survives a crash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IngestReceipt {
    /// Total **new** module rows across all private modules (a module
    /// already holding a row's projection contributes 0).
    pub added: u64,
    /// The per-module epochs after the frame was applied.
    pub epochs: Vec<ModuleEpoch>,
    /// Highest durable log sequence covering this frame (0 = no
    /// durability configured).
    pub durable_seq: u64,
}

/// Why admission control bounced a frame ([`Response::Busy`]). Every
/// variant reports the observed value and the tenant's configured
/// limit, so clients can right-size their batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BusyReason {
    /// The frame alone exceeds the tenant's per-frame request budget.
    BatchRequests {
        /// Requests in the offending frame.
        got: u64,
        /// The per-frame limit.
        limit: u64,
    },
    /// The frame alone exceeds the tenant's per-frame byte budget.
    BatchBytes {
        /// Payload bytes of the offending frame.
        got: u64,
        /// The per-frame limit.
        limit: u64,
    },
    /// Admitting the frame would push the tenant's in-flight request
    /// count over its bound.
    InflightRequests {
        /// In-flight requests including this frame.
        got: u64,
        /// The in-flight limit.
        limit: u64,
    },
    /// Admitting the frame would push the tenant's in-flight bytes over
    /// their bound.
    InflightBytes {
        /// In-flight bytes including this frame.
        got: u64,
        /// The in-flight limit.
        limit: u64,
    },
}

impl fmt::Display for BusyReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BatchRequests { got, limit } => {
                write!(f, "frame carries {got} requests, per-frame limit {limit}")
            }
            Self::BatchBytes { got, limit } => {
                write!(f, "frame is {got} bytes, per-frame limit {limit}")
            }
            Self::InflightRequests { got, limit } => {
                write!(f, "{got} in-flight requests, limit {limit}")
            }
            Self::InflightBytes { got, limit } => {
                write!(f, "{got} in-flight bytes, limit {limit}")
            }
        }
    }
}

/// A typed serving fault ([`Response::Error`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeFault {
    /// The frame named a tenant the registry does not hold.
    UnknownTenant {
        /// The unregistered tenant id.
        tenant: u64,
    },
    /// A probe named a module the tenant's workflow has no oracle for.
    /// The whole batch was rejected before any oracle was touched.
    UnknownModule {
        /// The uncovered module index.
        module: u32,
    },
    /// An epoch-conditioned probe's epoch no longer matches the
    /// module's relation epoch: the module ingested provenance after
    /// the client read the epoch. The **whole batch** was rejected
    /// before any oracle state was touched — re-read epochs and retry.
    StaleEpoch {
        /// The module whose epoch mismatched.
        module: u32,
        /// The epoch the probe was conditioned on.
        expected: u64,
        /// The module's current epoch.
        actual: u64,
    },
    /// The payload failed to decode (or carried a request the server
    /// does not speak).
    Malformed {
        /// Decoder diagnostic.
        detail: String,
    },
    /// An ingest frame failed: a row failed validation (arity, domain
    /// or FD), the frame could not be logged, or the sync covering it
    /// failed. Frames are all-or-nothing, so `applied` is 0 unless only
    /// the covering sync failed; then it is the frame's added row
    /// count, applied in memory but not confirmed durable.
    Rejected {
        /// 0, or the frame's added rows when only its sync failed.
        applied: u64,
        /// Validation diagnostic.
        detail: String,
    },
}

impl fmt::Display for ServeFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownTenant { tenant } => write!(f, "unknown tenant {tenant}"),
            Self::UnknownModule { module } => {
                write!(f, "tenant workflow has no private module {module}")
            }
            Self::StaleEpoch {
                module,
                expected,
                actual,
            } => write!(
                f,
                "stale epoch on module {module}: probe conditioned on {expected}, module at {actual}"
            ),
            Self::Malformed { detail } => write!(f, "malformed request: {detail}"),
            Self::Rejected { applied, detail } => {
                write!(f, "ingest rejected after {applied} rows: {detail}")
            }
        }
    }
}

/// Decoding failures. These are *transport-level* errors (a framing or
/// encoding bug, truncation, corruption) — servers answer them with
/// [`ServeFault::Malformed`]; a client treats them as a broken
/// connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the announced content.
    Truncated,
    /// Decoding finished with bytes left over.
    Trailing {
        /// Number of undecoded bytes.
        extra: usize,
    },
    /// An unknown message (or field) tag.
    BadTag {
        /// The offending tag byte.
        tag: u8,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The announced payload length.
        len: usize,
    },
    /// A length field announces more elements than the remaining bytes
    /// could possibly hold, or a list-form attribute set of `count` ids
    /// would size its bitset past the frame's budget (see
    /// [`MAX_WIRE_ATTR_ID`]).
    Oversize {
        /// The announced element count.
        count: usize,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// An attribute id beyond [`MAX_WIRE_ATTR_ID`]: decoding it would
    /// size a bitset by the corrupt value.
    AttrIdOutOfRange {
        /// The offending id.
        id: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated => write!(f, "payload truncated"),
            Self::Trailing { extra } => write!(f, "{extra} trailing bytes after payload"),
            Self::BadTag { tag } => write!(f, "unknown tag 0x{tag:02x}"),
            Self::FrameTooLarge { len } => {
                write!(f, "frame of {len} bytes exceeds maximum {MAX_FRAME_LEN}")
            }
            Self::Oversize { count } => {
                write!(
                    f,
                    "length field announces {count} elements beyond the payload"
                )
            }
            Self::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            Self::AttrIdOutOfRange { id } => {
                write!(f, "attribute id {id} exceeds maximum {MAX_WIRE_ATTR_ID}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Prepends the 4-byte little-endian length prefix to a payload.
///
/// # Panics
/// If `payload` exceeds [`MAX_FRAME_LEN`] (an encoder bug, not a
/// runtime condition — encoders bound batches far below it).
#[must_use]
pub fn frame(payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_FRAME_LEN,
        "frame exceeds MAX_FRAME_LEN"
    );
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Strips and validates the 4-byte length prefix, returning the
/// payload slice.
///
/// # Errors
/// [`WireError::Truncated`] if the buffer is shorter than the header
/// announces; [`WireError::FrameTooLarge`] for an oversized prefix;
/// [`WireError::Trailing`] if bytes follow the framed payload.
pub fn unframe(buf: &[u8]) -> Result<&[u8], WireError> {
    if buf.len() < 4 {
        return Err(WireError::Truncated);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge { len });
    }
    if buf.len() < 4 + len {
        return Err(WireError::Truncated);
    }
    if buf.len() > 4 + len {
        return Err(WireError::Trailing {
            extra: buf.len() - 4 - len,
        });
    }
    Ok(&buf[4..4 + len])
}

// ── Encode helpers ──────────────────────────────────────────────────

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u128(buf: &mut Vec<u8>, v: u128) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_attrset(buf: &mut Vec<u8>, set: &AttrSet) {
    match set.as_word() {
        Some(w) => {
            buf.push(TAG_SET_WORD);
            put_u64(buf, w);
        }
        None => {
            buf.push(TAG_SET_LIST);
            let ids: Vec<AttrId> = set.iter().collect();
            put_u32(buf, ids.len() as u32);
            for a in ids {
                put_u32(buf, a.0);
            }
        }
    }
}

fn put_probe(buf: &mut Vec<u8>, p: &ProbeRequest) {
    put_u32(buf, p.module.0);
    put_attrset(buf, &p.visible);
    put_u128(buf, p.gamma);
    match p.epoch {
        Some(e) => {
            buf.push(1);
            put_u64(buf, e);
        }
        None => buf.push(0),
    }
}

fn put_module_epoch(buf: &mut Vec<u8>, me: &ModuleEpoch) {
    put_u32(buf, me.module.0);
    put_u64(buf, me.epoch);
}

// ── Decode helpers ──────────────────────────────────────────────────

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Bitset words the payload's list-form sets may still size: one
    /// per payload byte plus one largest set (see [`MAX_WIRE_ATTR_ID`]).
    set_words: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            set_words: buf.len() + MAX_WIRE_ATTR_ID as usize / 64 + 1,
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn u128(&mut self) -> Result<u128, WireError> {
        Ok(u128::from_le_bytes(self.bytes(16)?.try_into().unwrap()))
    }

    /// Reads an element count and guards it against the bytes actually
    /// left (`min_elem` = the smallest possible encoding of one
    /// element), so a corrupt count cannot trigger a huge allocation.
    fn count(&mut self, min_elem: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem) > self.remaining() {
            return Err(WireError::Oversize { count: n });
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, WireError> {
        let n = self.count(1)?;
        let raw = self.bytes(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn attrset(&mut self) -> Result<AttrSet, WireError> {
        match self.u8()? {
            TAG_SET_WORD => Ok(AttrSet::from_word(self.u64()?)),
            TAG_SET_LIST => {
                let n = self.count(4)?;
                // The bitset is sized by its largest member: charge each
                // new word to the frame before the set grows into it.
                let mut words = 0;
                (0..n)
                    .map(|_| {
                        let id = self.u32()?;
                        if id > MAX_WIRE_ATTR_ID {
                            return Err(WireError::AttrIdOutOfRange { id });
                        }
                        let need = id as usize / 64 + 1;
                        if need > words {
                            self.set_words = self
                                .set_words
                                .checked_sub(need - words)
                                .ok_or(WireError::Oversize { count: n })?;
                            words = need;
                        }
                        Ok(AttrId(id))
                    })
                    .collect()
            }
            tag => Err(WireError::BadTag { tag }),
        }
    }

    fn probe(&mut self) -> Result<ProbeRequest, WireError> {
        let module = ModuleId(self.u32()?);
        let visible = self.attrset()?;
        let gamma = self.u128()?;
        let epoch = match self.u8()? {
            0 => None,
            1 => Some(self.u64()?),
            tag => return Err(WireError::BadTag { tag }),
        };
        Ok(ProbeRequest {
            module,
            visible,
            gamma,
            epoch,
        })
    }

    fn module_epoch(&mut self) -> Result<ModuleEpoch, WireError> {
        Ok(ModuleEpoch {
            module: ModuleId(self.u32()?),
            epoch: self.u64()?,
        })
    }

    fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Trailing {
                extra: self.remaining(),
            })
        }
    }
}

impl Request {
    /// Encodes a probe batch directly from a borrowed slice — the
    /// serving hot path, shaped so clients never clone their probe
    /// buffers just to build a frame. Equivalent to
    /// `Request::Probe { tenant, probes: probes.to_vec() }.encode()`.
    #[must_use]
    pub fn encode_probe(tenant: u64, probes: &[ProbeRequest]) -> Vec<u8> {
        // Word-set probes dominate: 30 bytes each (see `decode`).
        let mut buf = Vec::with_capacity(13 + 30 * probes.len());
        buf.push(TAG_REQ_PROBE);
        put_u64(&mut buf, tenant);
        put_u32(&mut buf, probes.len() as u32);
        for p in probes {
            put_probe(&mut buf, p);
        }
        buf
    }

    /// Encodes the request into a fresh payload (no length prefix —
    /// see [`frame`]).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        match self {
            Self::Probe { tenant, probes } => {
                return Self::encode_probe(*tenant, probes);
            }
            Self::Ingest { tenant, rows } => {
                buf.push(TAG_REQ_INGEST);
                put_u64(&mut buf, *tenant);
                put_u32(&mut buf, rows.len() as u32);
                for row in rows {
                    put_u32(&mut buf, row.len() as u32);
                    for &v in row {
                        put_u32(&mut buf, v);
                    }
                }
            }
            Self::Epochs { tenant } => {
                buf.push(TAG_REQ_EPOCHS);
                put_u64(&mut buf, *tenant);
            }
        }
        buf
    }

    /// Decodes a request payload (no length prefix).
    ///
    /// # Errors
    /// Any [`WireError`]: truncation, trailing bytes, unknown tags,
    /// corrupt length fields.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            TAG_REQ_PROBE => {
                let tenant = r.u64()?;
                // Smallest probe: module(4) + word set(9) + Γ(16) + no
                // epoch(1) = 30 bytes.
                let n = r.count(30)?;
                let mut probes = Vec::with_capacity(n);
                for _ in 0..n {
                    probes.push(r.probe()?);
                }
                Self::Probe { tenant, probes }
            }
            TAG_REQ_INGEST => {
                let tenant = r.u64()?;
                let n = r.count(4)?;
                let mut rows = Vec::with_capacity(n);
                for _ in 0..n {
                    let len = r.count(4)?;
                    let mut row = Vec::with_capacity(len);
                    for _ in 0..len {
                        row.push(r.u32()?);
                    }
                    rows.push(row);
                }
                Self::Ingest { tenant, rows }
            }
            TAG_REQ_EPOCHS => Self::Epochs { tenant: r.u64()? },
            tag => return Err(WireError::BadTag { tag }),
        };
        r.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encodes the response into a fresh payload (no length prefix —
    /// see [`frame`]).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        match self {
            Self::Probe(outcomes) => {
                buf.push(TAG_RESP_PROBE);
                put_u32(&mut buf, outcomes.len() as u32);
                for o in outcomes {
                    put_u32(&mut buf, o.module.0);
                    buf.push(u8::from(o.safe));
                    put_u64(&mut buf, o.epoch);
                }
            }
            Self::Receipt(receipt) => {
                buf.push(TAG_RESP_RECEIPT);
                put_u64(&mut buf, receipt.added);
                put_u64(&mut buf, receipt.durable_seq);
                put_u32(&mut buf, receipt.epochs.len() as u32);
                for me in &receipt.epochs {
                    put_module_epoch(&mut buf, me);
                }
            }
            Self::Epochs(epochs) => {
                buf.push(TAG_RESP_EPOCHS);
                put_u32(&mut buf, epochs.len() as u32);
                for me in epochs {
                    put_module_epoch(&mut buf, me);
                }
            }
            Self::Busy(reason) => {
                buf.push(TAG_RESP_BUSY);
                let (code, got, limit) = match *reason {
                    BusyReason::BatchRequests { got, limit } => (0u8, got, limit),
                    BusyReason::BatchBytes { got, limit } => (1, got, limit),
                    BusyReason::InflightRequests { got, limit } => (2, got, limit),
                    BusyReason::InflightBytes { got, limit } => (3, got, limit),
                };
                buf.push(code);
                put_u64(&mut buf, got);
                put_u64(&mut buf, limit);
            }
            Self::Error(fault) => {
                buf.push(TAG_RESP_ERROR);
                match fault {
                    ServeFault::UnknownTenant { tenant } => {
                        buf.push(0);
                        put_u64(&mut buf, *tenant);
                    }
                    ServeFault::UnknownModule { module } => {
                        buf.push(1);
                        put_u32(&mut buf, *module);
                    }
                    ServeFault::StaleEpoch {
                        module,
                        expected,
                        actual,
                    } => {
                        buf.push(2);
                        put_u32(&mut buf, *module);
                        put_u64(&mut buf, *expected);
                        put_u64(&mut buf, *actual);
                    }
                    ServeFault::Malformed { detail } => {
                        buf.push(3);
                        put_str(&mut buf, detail);
                    }
                    ServeFault::Rejected { applied, detail } => {
                        buf.push(4);
                        put_u64(&mut buf, *applied);
                        put_str(&mut buf, detail);
                    }
                }
            }
        }
        buf
    }

    /// Decodes a response payload (no length prefix).
    ///
    /// # Errors
    /// Any [`WireError`]: truncation, trailing bytes, unknown tags,
    /// corrupt length fields.
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let resp = match r.u8()? {
            TAG_RESP_PROBE => {
                let n = r.count(13)?;
                let mut outcomes = Vec::with_capacity(n);
                for _ in 0..n {
                    let module = ModuleId(r.u32()?);
                    let safe = match r.u8()? {
                        0 => false,
                        1 => true,
                        tag => return Err(WireError::BadTag { tag }),
                    };
                    let epoch = r.u64()?;
                    outcomes.push(ProbeOutcome {
                        module,
                        safe,
                        epoch,
                    });
                }
                Self::Probe(outcomes)
            }
            TAG_RESP_RECEIPT => {
                let added = r.u64()?;
                let durable_seq = r.u64()?;
                let n = r.count(12)?;
                let mut epochs = Vec::with_capacity(n);
                for _ in 0..n {
                    epochs.push(r.module_epoch()?);
                }
                Self::Receipt(IngestReceipt {
                    added,
                    epochs,
                    durable_seq,
                })
            }
            TAG_RESP_EPOCHS => {
                let n = r.count(12)?;
                let mut epochs = Vec::with_capacity(n);
                for _ in 0..n {
                    epochs.push(r.module_epoch()?);
                }
                Self::Epochs(epochs)
            }
            TAG_RESP_BUSY => {
                let code = r.u8()?;
                let got = r.u64()?;
                let limit = r.u64()?;
                Self::Busy(match code {
                    0 => BusyReason::BatchRequests { got, limit },
                    1 => BusyReason::BatchBytes { got, limit },
                    2 => BusyReason::InflightRequests { got, limit },
                    3 => BusyReason::InflightBytes { got, limit },
                    tag => return Err(WireError::BadTag { tag }),
                })
            }
            TAG_RESP_ERROR => Self::Error(match r.u8()? {
                0 => ServeFault::UnknownTenant { tenant: r.u64()? },
                1 => ServeFault::UnknownModule { module: r.u32()? },
                2 => ServeFault::StaleEpoch {
                    module: r.u32()?,
                    expected: r.u64()?,
                    actual: r.u64()?,
                },
                3 => ServeFault::Malformed {
                    detail: r.string()?,
                },
                4 => ServeFault::Rejected {
                    applied: r.u64()?,
                    detail: r.string()?,
                },
                tag => return Err(WireError::BadTag { tag }),
            }),
            tag => return Err(WireError::BadTag { tag }),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: &Request) {
        let payload = req.encode();
        assert_eq!(&Request::decode(&payload).unwrap(), req);
        assert_eq!(unframe(&frame(&payload)).unwrap(), &payload[..]);
    }

    fn roundtrip_response(resp: &Response) {
        let payload = resp.encode();
        assert_eq!(&Response::decode(&payload).unwrap(), resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(&Request::Epochs { tenant: 42 });
        roundtrip_request(&Request::Probe {
            tenant: 7,
            probes: vec![
                ProbeRequest::new(ModuleId(0), AttrSet::from_word(0b1010), 4),
                ProbeRequest::new(ModuleId(3), AttrSet::from_indices(&[1, 65, 130]), 1 << 90)
                    .at_epoch(12),
            ],
        });
        roundtrip_request(&Request::Probe {
            tenant: 0,
            probes: Vec::new(),
        });
        roundtrip_request(&Request::Ingest {
            tenant: u64::MAX,
            rows: vec![vec![0, 1, 2], Vec::new(), vec![u32::MAX]],
        });
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_response(&Response::Probe(vec![
            ProbeOutcome {
                module: ModuleId(1),
                safe: true,
                epoch: 9,
            },
            ProbeOutcome {
                module: ModuleId(0),
                safe: false,
                epoch: 0,
            },
        ]));
        roundtrip_response(&Response::Receipt(IngestReceipt {
            added: 3,
            epochs: vec![
                ModuleEpoch {
                    module: ModuleId(0),
                    epoch: 5,
                },
                ModuleEpoch {
                    module: ModuleId(2),
                    epoch: 0,
                },
            ],
            durable_seq: u64::MAX,
        }));
        roundtrip_response(&Response::Receipt(IngestReceipt {
            added: 0,
            epochs: Vec::new(),
            durable_seq: 0,
        }));
        roundtrip_response(&Response::Epochs(Vec::new()));
        for reason in [
            BusyReason::BatchRequests { got: 9, limit: 4 },
            BusyReason::BatchBytes {
                got: 100,
                limit: 64,
            },
            BusyReason::InflightRequests { got: 5, limit: 4 },
            BusyReason::InflightBytes {
                got: 2048,
                limit: 1024,
            },
        ] {
            roundtrip_response(&Response::Busy(reason));
        }
        roundtrip_response(&Response::Error(ServeFault::UnknownTenant { tenant: 1 }));
        roundtrip_response(&Response::Error(ServeFault::UnknownModule { module: 2 }));
        roundtrip_response(&Response::Error(ServeFault::StaleEpoch {
            module: 0,
            expected: 1,
            actual: 2,
        }));
        roundtrip_response(&Response::Error(ServeFault::Malformed {
            detail: "tag 0xff".into(),
        }));
        roundtrip_response(&Response::Error(ServeFault::Rejected {
            applied: 2,
            detail: "FD violation".into(),
        }));
    }

    #[test]
    fn decode_rejects_corruption() {
        assert_eq!(Request::decode(&[]), Err(WireError::Truncated));
        assert_eq!(
            Request::decode(&[0x7f]),
            Err(WireError::BadTag { tag: 0x7f })
        );
        // Truncated probe batch: the count guard sees 1 announced probe
        // but fewer bytes than one probe's minimum encoding.
        let mut buf = Request::Probe {
            tenant: 1,
            probes: vec![ProbeRequest::new(ModuleId(0), AttrSet::from_word(1), 2)],
        }
        .encode();
        buf.truncate(buf.len() - 1);
        assert_eq!(Request::decode(&buf), Err(WireError::Oversize { count: 1 }));
        // Truncated before the batch header even completes.
        buf.truncate(5);
        assert_eq!(Request::decode(&buf), Err(WireError::Truncated));
        // Trailing garbage.
        let mut buf = Request::Epochs { tenant: 3 }.encode();
        buf.push(0);
        assert_eq!(Request::decode(&buf), Err(WireError::Trailing { extra: 1 }));
        // A count field announcing more elements than bytes remain.
        let mut buf = vec![TAG_REQ_PROBE];
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Request::decode(&buf),
            Err(WireError::Oversize {
                count: u32::MAX as usize
            })
        );
        // A corrupt attr id must be rejected before it sizes a bitset:
        // one wide-set probe whose single id is past the bound.
        let mut buf = vec![TAG_REQ_PROBE];
        buf.extend_from_slice(&1u64.to_le_bytes()); // tenant
        buf.extend_from_slice(&1u32.to_le_bytes()); // 1 probe
        buf.extend_from_slice(&0u32.to_le_bytes()); // module
        buf.push(TAG_SET_LIST);
        buf.extend_from_slice(&1u32.to_le_bytes()); // 1 id
        buf.extend_from_slice(&(MAX_WIRE_ATTR_ID + 1).to_le_bytes());
        buf.extend_from_slice(&2u128.to_le_bytes()); // Γ
        buf.push(0); // no epoch
        assert_eq!(
            Request::decode(&buf),
            Err(WireError::AttrIdOutOfRange {
                id: MAX_WIRE_ATTR_ID + 1
            })
        );
        // Oversized length prefix.
        let mut framed = vec![0u8; 4];
        framed[0..4].copy_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes());
        assert_eq!(
            unframe(&framed),
            Err(WireError::FrameTooLarge {
                len: MAX_FRAME_LEN + 1
            })
        );
    }

    #[test]
    fn list_and_word_forms_decode_to_one_set() {
        let mut buf = vec![TAG_SET_LIST];
        for v in [2u32, 3, 1] {
            put_u32(&mut buf, v); // 2 ids: 3, 1
        }
        let list = Reader::new(&buf).attrset().unwrap();
        assert_eq!(list, AttrSet::from_word(0b1010));
        assert_eq!(list.as_word(), Some(0b1010));
    }

    #[test]
    fn list_sets_cannot_allocate_past_the_frame_budget() {
        // A probe frame of `n` probes whose list-form sets each name
        // only attribute `id`.
        let frame_of = |n: u32, id: u32| {
            let mut buf = vec![TAG_REQ_PROBE];
            put_u64(&mut buf, 7);
            put_u32(&mut buf, n);
            for _ in 0..n {
                put_u32(&mut buf, 0); // module
                buf.push(TAG_SET_LIST);
                put_u32(&mut buf, 1);
                put_u32(&mut buf, id);
                put_u128(&mut buf, 2);
                buf.push(0); // no epoch
            }
            buf
        };
        // 30,733 bytes that would size 1,024 bitsets of 16,385 words
        // (134 MB): the budget of 30,733 + 16,385 words admits two sets
        // and refuses the third.
        let hostile = frame_of(1024, MAX_WIRE_ATTR_ID);
        assert_eq!(hostile.len(), 30_733);
        assert_eq!(
            Request::decode(&hostile),
            Err(WireError::Oversize { count: 1 })
        );
        // Any single in-range set decodes, however short its frame.
        for id in [1 << 10, 3000, MAX_WIRE_ATTR_ID] {
            let Ok(Request::Probe { probes, .. }) = Request::decode(&frame_of(1, id)) else {
                panic!("a one-set frame naming {id} must decode");
            };
            assert_eq!(probes[0].visible, AttrSet::from_indices(&[id]));
        }
    }

    #[test]
    fn retired_ingest_reply_tag_is_a_bad_tag() {
        // A well-formed pre-durability reply: tag 0x82, added = 3, one
        // module epoch (module 0 at epoch 5).
        let mut buf = vec![0x82];
        buf.extend_from_slice(&3u64.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&5u64.to_le_bytes());
        assert_eq!(Response::decode(&buf), Err(WireError::BadTag { tag: 0x82 }));
    }
}
