//! The length-prefixed session protocol spoken between [`super::LdpClient`]
//! and [`super::LdpServer`].
//!
//! Every message on the socket is one *envelope*:
//!
//! ```text
//! envelope := len(4B LE, 1 ..= MAX_MESSAGE_BYTES)  body
//! body     := type(1B)  payload
//!
//! client → server
//!   0x01 HELLO    payload := magic(2B = "LN") proto(1B = 1)
//!                            kind(1B) wire_version(1B: 1|2) windowed(1B: 0|1)
//!   0x02 REPORT   payload := count:varint  wire_frame × count   (back to back)
//!   0x03 QUERY    payload := windowed(1B: 0|1) [k:varint]  op
//!   0x04 SEAL     payload := (empty)
//!   0x05 BYE      payload := (empty)
//!   0x06 STATUS   payload := (empty)   (allowed before HELLO)
//!   0x07     retired — was METRICS; never reuse
//!   0x08 REPLICATE payload := magic(2B = "LN") proto(1B = 1) start:varint
//!                             (allowed before HELLO; durable leaders only —
//!                             flips the session into a WAL push stream)
//!   0x09 REPL_ACK payload := acked:varint   (follower → leader progress)
//!   0x0A     retired — was METRICS_RANGE; never reuse
//!   0x0B     retired — was HEALTH; never reuse
//!
//! op       := 0 RANGE a:varint b:varint
//!           | 1 PREFIX b:varint
//!           | 2 POINT z:varint
//!           | 3 QUANTILE phi(8B LE f64 bits, finite, 0 ≤ φ ≤ 1)
//!
//! server → client
//!   0x81 HELLO_OK  payload := kind(1B) wire_version(1B) windowed(1B) domain:varint
//!   0x82 REPORT_OK payload := accepted:varint
//!   0x83 QUERY_OK  payload := op(1B) result(8B LE) version:varint
//!                             num_reports:varint windowed(1B: 0|1)
//!                             [first:varint last:varint]
//!   0x84 SEAL_OK   payload := epoch:varint
//!   0x85 BYE_OK    payload := (empty)
//!   0x86 STATUS_OK payload := sessions:varint frames_absorbed:varint
//!                             frames_rejected:varint num_reports:varint
//!                             snapshot_version:varint
//!                             windowed(1B: 0|1) [current_epoch:varint]
//!                             durable(1B: 0|1) [has_ckpt(1B: 0|1) [id:varint]
//!                             wal_seq:varint wal_records:varint wal_frames:varint
//!                             checkpoint_failures:varint wedged(1B: 0|1)]
//!   0x87      retired — was METRICS_OK; never reuse
//!   0x88 REPL_OK   payload := start:varint leader_records:varint
//!   0x89 REPL_REC  payload := position:varint record_body(≥ 1 byte)
//!                             (leader push; record_body is a WAL record
//!                             body — type byte + payload, see
//!                             `crate::storage::wal` — re-framed and
//!                             CRC'd by the follower's own log)
//!   0x8A      retired — was METRICS_RANGE_OK; never reuse
//!   0x8B      retired — was HEALTH_OK; never reuse
//!   0x7F ERROR     payload := code(1B) has_index(1B: 0|1) [index:varint]
//!                             detail_len:varint detail(UTF-8)
//! ```
//!
//! Replication is version-gated the same way HELLO is: a REPLICATE
//! request leads with the handshake magic and the session protocol
//! version, so a server that predates replication answers with a typed
//! unknown-kind error instead of misparsing, and a future protocol bump
//! is rejected explicitly ([`WireError::UnsupportedVersion`]) rather than
//! silently streamed to.
//!
//! Telemetry does not travel on this protocol: metrics, health and the
//! time-series ring leave the process only over the plain-HTTP ops
//! endpoint ([`crate::net::NetConfig::ops_addr`]), and in-process callers
//! read [`super::LdpServer::registry`]. STATUS is the one probe left, and
//! its request and reply bytes are those of the first protocol version.
//! The retired type bytes decode as unknown types (a typed `Protocol`
//! error from the server) and must never be reused: a client built
//! against the old table would misparse a new meaning.
//!
//! The payload of a REPORT message is raw [`crate::wire`] frames — the
//! session layer frames *messages*, the wire layer frames *reports*, and
//! neither re-encodes the other. Decoding is total and allocation is
//! bounded: the envelope length is capped at [`MAX_MESSAGE_BYTES`] before
//! any read, a REPORT's declared frame count is validated against the
//! payload it arrived in, and an ERROR detail is capped at
//! [`MAX_DETAIL_BYTES`]. The codecs reuse the wire format's primitives
//! ([`Reader`], [`put_varint`]) so there is exactly one varint in the
//! codebase.

use std::io::{IoSlice, Read, Write};

use crate::error::WireError;
use crate::net::NetError;
use crate::storage::DurableStatus;
use crate::wire::{put_varint, Reader};

/// Handshake magic inside HELLO ("LN" = LQ-over-Network), distinguishing
/// a session handshake from stray bytes.
pub const HELLO_MAGIC: [u8; 2] = *b"LN";
/// Session protocol version negotiated by HELLO.
pub const PROTO_VERSION: u8 = 1;
/// Hard cap on one session message (envelope body), enforced on both
/// sides *before* allocating: 8 MiB holds tens of thousands of frames of
/// the largest report type while keeping a hostile 4 GiB declared length
/// unallocatable.
pub const MAX_MESSAGE_BYTES: usize = 1 << 23;
/// Cap on an ERROR message's human-readable detail.
pub const MAX_DETAIL_BYTES: usize = 1 << 10;
/// Wire version 1: epoch-less frames, decoded strictly.
pub const WIRE_V1: u8 = crate::wire::VERSION;
/// Wire version 2: epoch-tagged frames accepted (v1 frames still pass,
/// untagged).
pub const WIRE_EPOCH: u8 = crate::wire::VERSION_EPOCH;

// The client-message type bytes are crate-visible so the server can
// stamp them into trace events without re-deriving them from the enum.
// 0x07, 0x0A and 0x0B (and the replies 0x87, 0x8A, 0x8B) are retired:
// see the module docs before assigning a new type byte.
pub(crate) const MSG_HELLO: u8 = 0x01;
pub(crate) const MSG_REPORT: u8 = 0x02;
pub(crate) const MSG_QUERY: u8 = 0x03;
pub(crate) const MSG_SEAL: u8 = 0x04;
pub(crate) const MSG_BYE: u8 = 0x05;
pub(crate) const MSG_STATUS: u8 = 0x06;
pub(crate) const MSG_REPLICATE: u8 = 0x08;
pub(crate) const MSG_REPL_ACK: u8 = 0x09;

const MSG_HELLO_OK: u8 = 0x81;
const MSG_REPORT_OK: u8 = 0x82;
const MSG_QUERY_OK: u8 = 0x83;
const MSG_SEAL_OK: u8 = 0x84;
const MSG_BYE_OK: u8 = 0x85;
const MSG_STATUS_OK: u8 = 0x86;
const MSG_REPL_OK: u8 = 0x88;
const MSG_REPL_REC: u8 = 0x89;
const MSG_ERROR: u8 = 0x7F;

const OP_RANGE: u8 = 0;
const OP_PREFIX: u8 = 1;
const OP_POINT: u8 = 2;
const OP_QUANTILE: u8 = 3;

// --- handshake ---------------------------------------------------------

/// What a client proposes in its HELLO: which report type it will send,
/// which wire version its frames use, and whether it expects the epoch
/// (windowed) service. The server accepts only an exact match with its
/// own backend — mismatches are typed errors, not silent coercions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// The wire kind byte of the report type ([`crate::wire::WireReport::KIND`]).
    pub kind: u8,
    /// [`WIRE_V1`] or [`WIRE_EPOCH`].
    pub wire_version: u8,
    /// Whether the session targets a windowed (epoch-ring) backend.
    pub windowed: bool,
}

impl Hello {
    /// A plain (unwindowed, wire v1) session for report type `T`.
    #[must_use]
    pub fn plain<T: crate::wire::WireReport>() -> Self {
        Self {
            kind: T::KIND,
            wire_version: WIRE_V1,
            windowed: false,
        }
    }

    /// A windowed session for report type `T`, shipping epoch-tagged
    /// (wire v2) frames.
    #[must_use]
    pub fn windowed<T: crate::wire::WireReport>() -> Self {
        Self {
            kind: T::KIND,
            wire_version: WIRE_EPOCH,
            windowed: true,
        }
    }
}

/// The server's half of the handshake: the negotiated parameters echoed
/// back plus the backend's snapshot domain, so clients can bound-check
/// queries locally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloOk {
    /// Report kind this server aggregates.
    pub kind: u8,
    /// Wire version the session will decode with.
    pub wire_version: u8,
    /// Whether the backend is windowed.
    pub windowed: bool,
    /// Domain size of the backend's snapshots.
    pub domain: u64,
}

// --- queries -----------------------------------------------------------

/// One query operation, mirroring [`crate::RangeSnapshot`]'s surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryOp {
    /// Estimated fraction in the inclusive `[a, b]`.
    Range {
        /// Lower bound (inclusive).
        a: u64,
        /// Upper bound (inclusive).
        b: u64,
    },
    /// Estimated prefix fraction `R[0, b]`.
    Prefix {
        /// Upper bound (inclusive).
        b: u64,
    },
    /// Estimated frequency of one item.
    Point {
        /// The item.
        z: u64,
    },
    /// Estimated φ-quantile.
    Quantile {
        /// The quantile, finite and within `0 ..= 1` (enforced at
        /// decode, so a hostile φ can never reach the snapshot's panic).
        phi: f64,
    },
}

/// A query: an operation, optionally evaluated over the trailing `k`
/// sealed epochs instead of the live (all retained + open) state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    /// The operation.
    pub op: QueryOp,
    /// `Some(k)` answers from a [`crate::WindowedSnapshot`] over the
    /// trailing `k` sealed epochs (windowed sessions only); `None`
    /// answers from a freshly refreshed [`crate::RangeSnapshot`].
    pub window: Option<u64>,
}

/// A query's answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryResult {
    /// Range/prefix/point answers: an estimated fraction.
    Fraction(f64),
    /// Quantile answers: a domain index.
    Index(u64),
}

/// The full query reply: the answer plus the snapshot provenance readers
/// need to reason about staleness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryReply {
    /// The answer.
    pub result: QueryResult,
    /// Version of the snapshot that answered (monotone per backend).
    pub version: u64,
    /// Reports reflected in that snapshot.
    pub num_reports: u64,
    /// For windowed answers, the inclusive epoch interval covered.
    pub window: Option<(u64, u64)>,
}

impl QueryReply {
    /// The answer as a fraction.
    ///
    /// # Panics
    ///
    /// Panics if the reply answered a quantile query.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        match self.result {
            QueryResult::Fraction(f) => f,
            QueryResult::Index(_) => panic!("quantile reply has no fraction"),
        }
    }

    /// The answer as a quantile index.
    ///
    /// # Panics
    ///
    /// Panics if the reply answered a range/prefix/point query.
    #[must_use]
    pub fn index(&self) -> u64 {
        match self.result {
            QueryResult::Index(i) => i,
            QueryResult::Fraction(_) => panic!("fraction reply has no index"),
        }
    }
}

// --- status ------------------------------------------------------------

/// Durability progress inside a [`StatusReply`] (durable servers only):
/// the store's own [`DurableStatus`], shipped as is.
pub type DurableProgress = DurableStatus;

/// The server's answer to a STATUS probe: `ServerStats`-style counters
/// plus snapshot provenance and — on durable servers — checkpoint/WAL
/// progress, so operators can watch durability advance over the socket.
/// STATUS needs no handshake (it names no report kind), so an operator
/// tool can probe any server without knowing its mechanism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusReply {
    /// Sessions served to completion so far.
    pub sessions: u64,
    /// Frames absorbed and acked so far.
    pub frames_absorbed: u64,
    /// Frames arriving in rejected batches so far.
    pub frames_rejected: u64,
    /// Reports currently reflected in the backend.
    pub num_reports: u64,
    /// Version of the currently published snapshot.
    pub snapshot_version: u64,
    /// The open epoch id (windowed backends only).
    pub current_epoch: Option<u64>,
    /// Durability progress (durable backends only).
    pub durable: Option<DurableProgress>,
}

// --- errors ------------------------------------------------------------

/// Typed error codes a server can answer with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed session message.
    Protocol,
    /// HELLO proposed a session protocol version this server does not
    /// speak.
    UnsupportedProto,
    /// HELLO named a report kind other than the one this server
    /// aggregates.
    KindMismatch,
    /// HELLO proposed a wire version the backend cannot honor (e.g.
    /// epoch-tagged frames against an unwindowed service).
    WireVersionMismatch,
    /// HELLO's epoch mode does not match the backend (windowed vs plain).
    EpochModeMismatch,
    /// A REPORT batch was rejected; the index names the offending frame
    /// and nothing from the batch was absorbed.
    BadFrame,
    /// An epoch-tagged frame named an epoch other than the open one.
    EpochMismatch,
    /// A query was malformed or out of bounds for the snapshot domain.
    BadQuery,
    /// A windowed query ran before any epoch was sealed, or asked for a
    /// zero-epoch window.
    EmptyWindow,
    /// A SEAL/windowed request reached an unwindowed backend, or a
    /// message arrived before HELLO.
    BadState,
    /// The server is shutting down and no longer accepts this request.
    ShuttingDown,
    /// A server-side fault (storage I/O failure, poisoned lock) — the
    /// request was valid but could not be served durably; retry after
    /// the operator clears the fault.
    Internal,
    /// The session sat idle past the server's configured idle timeout
    /// and was evicted; reconnect to continue.
    IdleTimeout,
    /// A REPLICATE request cannot be served: the backend is not a
    /// durable leader, replication has been sealed by promotion, or the
    /// requested start position precedes the leader's retained log
    /// (checkpoint pruning discarded it).
    ReplUnavailable,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            Self::Protocol => 0,
            Self::UnsupportedProto => 1,
            Self::KindMismatch => 2,
            Self::WireVersionMismatch => 3,
            Self::EpochModeMismatch => 4,
            Self::BadFrame => 5,
            Self::EpochMismatch => 6,
            Self::BadQuery => 7,
            Self::EmptyWindow => 8,
            Self::BadState => 9,
            Self::ShuttingDown => 10,
            Self::Internal => 11,
            Self::IdleTimeout => 12,
            Self::ReplUnavailable => 13,
        }
    }

    fn from_u8(b: u8) -> Result<Self, WireError> {
        Ok(match b {
            0 => Self::Protocol,
            1 => Self::UnsupportedProto,
            2 => Self::KindMismatch,
            3 => Self::WireVersionMismatch,
            4 => Self::EpochModeMismatch,
            5 => Self::BadFrame,
            6 => Self::EpochMismatch,
            7 => Self::BadQuery,
            8 => Self::EmptyWindow,
            9 => Self::BadState,
            10 => Self::ShuttingDown,
            11 => Self::Internal,
            12 => Self::IdleTimeout,
            13 => Self::ReplUnavailable,
            _ => return Err(WireError::Malformed("unknown error code")),
        })
    }
}

/// A server-sent error: the typed code, the offending frame index for
/// batch rejections (mirroring [`crate::ServiceError::BadFrame`]), and a
/// bounded human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteError {
    /// What went wrong.
    pub code: ErrorCode,
    /// For [`ErrorCode::BadFrame`]/[`ErrorCode::EpochMismatch`]: the
    /// zero-based index of the offending frame within the batch.
    pub index: Option<u64>,
    /// Human-readable diagnosis (capped at [`MAX_DETAIL_BYTES`]).
    pub detail: String,
}

impl RemoteError {
    /// Builds an error, truncating the detail to the protocol cap (on a
    /// UTF-8 boundary).
    #[must_use]
    pub fn new(code: ErrorCode, index: Option<u64>, detail: impl Into<String>) -> Self {
        let mut detail = detail.into();
        if detail.len() > MAX_DETAIL_BYTES {
            let mut cut = MAX_DETAIL_BYTES;
            while !detail.is_char_boundary(cut) {
                cut -= 1;
            }
            detail.truncate(cut);
        }
        Self {
            code,
            index,
            detail,
        }
    }
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.code)?;
        if let Some(i) = self.index {
            write!(f, " at frame {i}")?;
        }
        if !self.detail.is_empty() {
            write!(f, ": {}", self.detail)?;
        }
        Ok(())
    }
}

// --- messages ----------------------------------------------------------

/// A batch of raw wire frames in flight: the declared count plus the
/// back-to-back frame bytes, still undecoded (the session layer does not
/// re-encode reports).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportBatch {
    /// Declared number of frames.
    pub count: u64,
    /// The concatenated wire frames.
    pub frames: Vec<u8>,
}

/// Every message a client can send.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// Session handshake.
    Hello(Hello),
    /// A batch of reports.
    Report(ReportBatch),
    /// A query.
    Query(Query),
    /// Seal the open epoch (windowed sessions only).
    Seal,
    /// Clean end of session.
    Bye,
    /// Probe the server's counters and durability progress (allowed
    /// before HELLO — it names no report kind).
    Status,
    /// Become a follower: ask a durable leader to stream its acked WAL
    /// records from absolute record position `start` (allowed before
    /// HELLO — it names no report kind; the records carry their own wire
    /// version). The session becomes a long-lived push stream.
    Replicate {
        /// First record (0-based, from the leader's log origin) the
        /// follower wants; records before it are already applied.
        start: u64,
    },
    /// Follower → leader progress report: records applied so far. The
    /// leader uses it only for lag accounting — a garbage position can
    /// never corrupt leader state.
    ReplAck {
        /// Absolute record position the follower has durably applied.
        acked: u64,
    },
}

/// Every message a server can send.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// Handshake accepted.
    HelloOk(HelloOk),
    /// Batch absorbed in full.
    ReportOk {
        /// Number of frames absorbed (the batch's count).
        accepted: u64,
    },
    /// Query answered.
    QueryOk(QueryReply),
    /// Epoch sealed.
    SealOk {
        /// Id of the epoch just sealed.
        epoch: u64,
    },
    /// Session closed cleanly.
    ByeOk,
    /// Counters and durability progress.
    StatusOk(StatusReply),
    /// Replication accepted: streaming begins at `start`.
    ReplOk {
        /// The start position the stream honors (echo of the request).
        start: u64,
        /// Records in the leader's log at accept time — the follower's
        /// initial lag is `leader_records - start`.
        leader_records: u64,
    },
    /// One pushed WAL record (leader → follower).
    ReplRecord {
        /// Absolute record position of this record in the leader's log.
        position: u64,
        /// The WAL record body (type byte + payload, no len/CRC framing
        /// — the envelope delimits it and the follower's own log
        /// re-frames it). Never empty.
        body: Vec<u8>,
    },
    /// Request rejected.
    Error(RemoteError),
}

impl ClientMsg {
    /// Encodes the message body (type byte + payload, no envelope).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        match self {
            Self::Hello(h) => {
                out.push(MSG_HELLO);
                out.extend_from_slice(&HELLO_MAGIC);
                out.push(PROTO_VERSION);
                out.push(h.kind);
                out.push(h.wire_version);
                out.push(u8::from(h.windowed));
            }
            Self::Report(batch) => return encode_report_body(batch.count, &batch.frames),
            Self::Query(q) => {
                out.push(MSG_QUERY);
                match q.window {
                    Some(k) => {
                        out.push(1);
                        put_varint(&mut out, k);
                    }
                    None => out.push(0),
                }
                match q.op {
                    QueryOp::Range { a, b } => {
                        out.push(OP_RANGE);
                        put_varint(&mut out, a);
                        put_varint(&mut out, b);
                    }
                    QueryOp::Prefix { b } => {
                        out.push(OP_PREFIX);
                        put_varint(&mut out, b);
                    }
                    QueryOp::Point { z } => {
                        out.push(OP_POINT);
                        put_varint(&mut out, z);
                    }
                    QueryOp::Quantile { phi } => {
                        out.push(OP_QUANTILE);
                        out.extend_from_slice(&phi.to_bits().to_le_bytes());
                    }
                }
            }
            Self::Seal => out.push(MSG_SEAL),
            Self::Bye => out.push(MSG_BYE),
            Self::Status => out.push(MSG_STATUS),
            Self::Replicate { start } => {
                out.push(MSG_REPLICATE);
                out.extend_from_slice(&HELLO_MAGIC);
                out.push(PROTO_VERSION);
                put_varint(&mut out, *start);
            }
            Self::ReplAck { acked } => {
                out.push(MSG_REPL_ACK);
                put_varint(&mut out, *acked);
            }
        }
        out
    }

    /// Decodes one message body. Total: any malformed input is a
    /// [`WireError`], never a panic, and nothing is allocated beyond the
    /// input's own length.
    ///
    /// # Errors
    ///
    /// Fails on an empty body, an unknown type byte, a malformed payload,
    /// or trailing bytes.
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(body);
        let msg = match r.u8()? {
            MSG_HELLO => {
                let magic = [r.u8()?, r.u8()?];
                if magic != HELLO_MAGIC {
                    return Err(WireError::BadMagic(magic));
                }
                let proto = r.u8()?;
                if proto != PROTO_VERSION {
                    return Err(WireError::UnsupportedVersion(proto));
                }
                let kind = r.u8()?;
                let wire_version = r.u8()?;
                if wire_version != WIRE_V1 && wire_version != WIRE_EPOCH {
                    return Err(WireError::UnsupportedVersion(wire_version));
                }
                let windowed = decode_bool(&mut r)?;
                Self::Hello(Hello {
                    kind,
                    wire_version,
                    windowed,
                })
            }
            MSG_REPORT => {
                let count = r.varint()?;
                let frames = r.bytes(r.remaining())?.to_vec();
                // The smallest well-formed wire frame is 5 bytes
                // (magic + version + kind + ≥1 payload byte); a count
                // that cannot fit the payload is rejected here so later
                // per-frame allocations stay bounded by real bytes.
                if count > frames.len() as u64 {
                    return Err(WireError::Malformed("frame count exceeds payload"));
                }
                Self::Report(ReportBatch { count, frames })
            }
            MSG_QUERY => {
                let window = if decode_bool(&mut r)? {
                    let k = r.varint()?;
                    if k == 0 {
                        return Err(WireError::Malformed("zero-epoch window"));
                    }
                    Some(k)
                } else {
                    None
                };
                let op = match r.u8()? {
                    OP_RANGE => {
                        let a = r.varint()?;
                        let b = r.varint()?;
                        if a > b {
                            return Err(WireError::Malformed("range lower bound above upper"));
                        }
                        QueryOp::Range { a, b }
                    }
                    OP_PREFIX => QueryOp::Prefix { b: r.varint()? },
                    OP_POINT => QueryOp::Point { z: r.varint()? },
                    OP_QUANTILE => {
                        let phi = f64::from_bits(u64_le(&mut r)?);
                        if !phi.is_finite() || !(0.0..=1.0).contains(&phi) {
                            return Err(WireError::Malformed("quantile phi outside [0, 1]"));
                        }
                        QueryOp::Quantile { phi }
                    }
                    _ => return Err(WireError::Malformed("unknown query op")),
                };
                Self::Query(Query { op, window })
            }
            MSG_SEAL => Self::Seal,
            MSG_BYE => Self::Bye,
            MSG_STATUS => Self::Status,
            MSG_REPLICATE => {
                let magic = [r.u8()?, r.u8()?];
                if magic != HELLO_MAGIC {
                    return Err(WireError::BadMagic(magic));
                }
                let proto = r.u8()?;
                if proto != PROTO_VERSION {
                    return Err(WireError::UnsupportedVersion(proto));
                }
                Self::Replicate { start: r.varint()? }
            }
            MSG_REPL_ACK => Self::ReplAck { acked: r.varint()? },
            t => return Err(WireError::UnknownKind(t)),
        };
        expect_consumed(&r, body.len())?;
        Ok(msg)
    }
}

impl ServerMsg {
    /// Encodes the message body (type byte + payload, no envelope).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        match self {
            Self::HelloOk(h) => {
                out.push(MSG_HELLO_OK);
                out.push(h.kind);
                out.push(h.wire_version);
                out.push(u8::from(h.windowed));
                put_varint(&mut out, h.domain);
            }
            Self::ReportOk { accepted } => {
                out.push(MSG_REPORT_OK);
                put_varint(&mut out, *accepted);
            }
            Self::QueryOk(reply) => {
                out.push(MSG_QUERY_OK);
                match reply.result {
                    QueryResult::Fraction(f) => {
                        out.push(0);
                        out.extend_from_slice(&f.to_bits().to_le_bytes());
                    }
                    QueryResult::Index(i) => {
                        out.push(1);
                        out.extend_from_slice(&i.to_le_bytes());
                    }
                }
                put_varint(&mut out, reply.version);
                put_varint(&mut out, reply.num_reports);
                match reply.window {
                    Some((first, last)) => {
                        out.push(1);
                        put_varint(&mut out, first);
                        put_varint(&mut out, last);
                    }
                    None => out.push(0),
                }
            }
            Self::SealOk { epoch } => {
                out.push(MSG_SEAL_OK);
                put_varint(&mut out, *epoch);
            }
            Self::ByeOk => out.push(MSG_BYE_OK),
            Self::StatusOk(s) => {
                out.push(MSG_STATUS_OK);
                put_varint(&mut out, s.sessions);
                put_varint(&mut out, s.frames_absorbed);
                put_varint(&mut out, s.frames_rejected);
                put_varint(&mut out, s.num_reports);
                put_varint(&mut out, s.snapshot_version);
                match s.current_epoch {
                    Some(epoch) => {
                        out.push(1);
                        put_varint(&mut out, epoch);
                    }
                    None => out.push(0),
                }
                match &s.durable {
                    Some(d) => {
                        out.push(1);
                        match d.last_checkpoint {
                            Some(id) => {
                                out.push(1);
                                put_varint(&mut out, id);
                            }
                            None => out.push(0),
                        }
                        put_varint(&mut out, d.wal_segment_seq);
                        put_varint(&mut out, d.wal_records);
                        put_varint(&mut out, d.wal_frames);
                        put_varint(&mut out, d.checkpoint_failures);
                        out.push(u8::from(d.wedged));
                    }
                    None => out.push(0),
                }
            }
            Self::ReplOk {
                start,
                leader_records,
            } => {
                out.push(MSG_REPL_OK);
                put_varint(&mut out, *start);
                put_varint(&mut out, *leader_records);
            }
            Self::ReplRecord { position, body } => {
                out.push(MSG_REPL_REC);
                put_varint(&mut out, *position);
                out.extend_from_slice(body);
            }
            Self::Error(e) => {
                out.push(MSG_ERROR);
                out.push(e.code.to_u8());
                match e.index {
                    Some(i) => {
                        out.push(1);
                        put_varint(&mut out, i);
                    }
                    None => out.push(0),
                }
                let detail = e.detail.as_bytes();
                let cut = detail.len().min(MAX_DETAIL_BYTES);
                put_varint(&mut out, cut as u64);
                out.extend_from_slice(&detail[..cut]);
            }
        }
        out
    }

    /// Decodes one message body. Total, like [`ClientMsg::decode`].
    ///
    /// # Errors
    ///
    /// Fails on an empty body, an unknown type byte, a malformed payload,
    /// or trailing bytes.
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(body);
        let msg = match r.u8()? {
            MSG_HELLO_OK => {
                let kind = r.u8()?;
                let wire_version = r.u8()?;
                let windowed = decode_bool(&mut r)?;
                let domain = r.varint()?;
                Self::HelloOk(HelloOk {
                    kind,
                    wire_version,
                    windowed,
                    domain,
                })
            }
            MSG_REPORT_OK => Self::ReportOk {
                accepted: r.varint()?,
            },
            MSG_QUERY_OK => {
                let result = match r.u8()? {
                    0 => QueryResult::Fraction(f64::from_bits(u64_le(&mut r)?)),
                    1 => QueryResult::Index(u64_le(&mut r)?),
                    _ => return Err(WireError::Malformed("unknown query result tag")),
                };
                let version = r.varint()?;
                let num_reports = r.varint()?;
                let window = if decode_bool(&mut r)? {
                    Some((r.varint()?, r.varint()?))
                } else {
                    None
                };
                Self::QueryOk(QueryReply {
                    result,
                    version,
                    num_reports,
                    window,
                })
            }
            MSG_SEAL_OK => Self::SealOk { epoch: r.varint()? },
            MSG_BYE_OK => Self::ByeOk,
            MSG_STATUS_OK => {
                let sessions = r.varint()?;
                let frames_absorbed = r.varint()?;
                let frames_rejected = r.varint()?;
                let num_reports = r.varint()?;
                let snapshot_version = r.varint()?;
                let current_epoch = if decode_bool(&mut r)? {
                    Some(r.varint()?)
                } else {
                    None
                };
                let durable = if decode_bool(&mut r)? {
                    let last_checkpoint = if decode_bool(&mut r)? {
                        Some(r.varint()?)
                    } else {
                        None
                    };
                    Some(DurableProgress {
                        last_checkpoint,
                        wal_segment_seq: r.varint()?,
                        wal_records: r.varint()?,
                        wal_frames: r.varint()?,
                        checkpoint_failures: r.varint()?,
                        wedged: decode_bool(&mut r)?,
                    })
                } else {
                    None
                };
                Self::StatusOk(StatusReply {
                    sessions,
                    frames_absorbed,
                    frames_rejected,
                    num_reports,
                    snapshot_version,
                    current_epoch,
                    durable,
                })
            }
            MSG_REPL_OK => Self::ReplOk {
                start: r.varint()?,
                leader_records: r.varint()?,
            },
            MSG_REPL_REC => {
                let position = r.varint()?;
                if r.remaining() == 0 {
                    return Err(WireError::Malformed("empty replication record body"));
                }
                let body = r.bytes(r.remaining())?.to_vec();
                Self::ReplRecord { position, body }
            }
            MSG_ERROR => {
                let code = ErrorCode::from_u8(r.u8()?)?;
                let index = if decode_bool(&mut r)? {
                    Some(r.varint()?)
                } else {
                    None
                };
                let len = r.varint()?;
                if len > MAX_DETAIL_BYTES as u64 {
                    return Err(WireError::Malformed("error detail over cap"));
                }
                let detail = String::from_utf8(r.bytes(len as usize)?.to_vec())
                    .map_err(|_| WireError::Malformed("error detail is not UTF-8"))?;
                Self::Error(RemoteError {
                    code,
                    index,
                    detail,
                })
            }
            t => return Err(WireError::UnknownKind(t)),
        };
        expect_consumed(&r, body.len())?;
        Ok(msg)
    }
}

/// A REPORT batch *borrowed* from the message body it arrived in: the
/// declared count plus the back-to-back frame bytes as a subslice of the
/// envelope buffer. The server's hot path decodes REPORT bodies through
/// this view instead of [`ClientMsg::decode`], so the frame bytes are
/// never copied between the socket buffer and the shard absorb — each
/// frame is decoded from a borrowed subslice end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReportFrames<'a> {
    /// Declared number of frames.
    pub count: u64,
    /// The concatenated wire frames, borrowed from the envelope body.
    pub frames: &'a [u8],
}

/// Decodes a REPORT message body (`body[0]` must be [`MSG_REPORT`]) into
/// a borrowed [`ReportFrames`], applying exactly the validation
/// [`ClientMsg::decode`] applies — the two paths must reject hostile
/// bodies identically.
pub(crate) fn decode_report_frames(body: &[u8]) -> Result<ReportFrames<'_>, WireError> {
    let mut r = Reader::new(body);
    if r.u8()? != MSG_REPORT {
        return Err(WireError::Malformed("not a REPORT body"));
    }
    let count = r.varint()?;
    let frames = r.bytes(r.remaining())?;
    // The smallest well-formed wire frame is 5 bytes (magic + version +
    // kind + ≥1 payload byte); a count that cannot fit the payload is
    // rejected here so later per-frame work stays bounded by real bytes.
    if count > frames.len() as u64 {
        return Err(WireError::Malformed("frame count exceeds payload"));
    }
    Ok(ReportFrames { count, frames })
}

/// Encodes a REPORT message body straight from borrowed frame bytes —
/// the hot replay path ([`super::LdpClient::send_stream`]) uses this to
/// avoid copying each batch into an owned [`ReportBatch`] first.
#[must_use]
pub fn encode_report_body(count: u64, frames: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(frames.len() + 11);
    out.push(MSG_REPORT);
    put_varint(&mut out, count);
    out.extend_from_slice(frames);
    out
}

/// Reads an 8-byte little-endian `u64` totally: short input is
/// [`WireError::Truncated`], never a panic — there is no `expect` or
/// `unwrap` on any path reachable from network bytes.
fn u64_le(r: &mut Reader<'_>) -> Result<u64, WireError> {
    match <[u8; 8]>::try_from(r.bytes(8)?) {
        Ok(raw) => Ok(u64::from_le_bytes(raw)),
        Err(_) => Err(WireError::Truncated),
    }
}

fn decode_bool(r: &mut Reader<'_>) -> Result<bool, WireError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(WireError::Malformed("flag byte not 0/1")),
    }
}

fn expect_consumed(r: &Reader<'_>, _len: usize) -> Result<(), WireError> {
    if r.remaining() != 0 {
        return Err(WireError::Malformed("trailing bytes after message"));
    }
    Ok(())
}

// --- envelope I/O ------------------------------------------------------

/// Writes one enveloped message (length prefix + body) in one vectored
/// write, so a `TCP_NODELAY` socket does not send the prefix as a
/// segment of its own.
///
/// # Errors
///
/// Fails on I/O errors; a body over [`MAX_MESSAGE_BYTES`] (which no
/// well-behaved caller produces — batches are split by the client) is
/// rejected as [`NetError::TooLarge`].
pub fn write_message(w: &mut impl Write, body: &[u8]) -> Result<(), NetError> {
    write_envelope(w, &[body])
}

/// Writes one REPORT message straight from borrowed frame bytes: the
/// length prefix, the REPORT header and `frames` leave in one vectored
/// write, and the frames are never copied into an owned body. The bytes
/// are exactly those of `write_message(w, &encode_report_body(count,
/// frames))`.
///
/// # Errors
///
/// As [`write_message`].
pub fn write_report(w: &mut impl Write, count: u64, frames: &[u8]) -> Result<(), NetError> {
    let mut header = Vec::with_capacity(11);
    header.push(MSG_REPORT);
    put_varint(&mut header, count);
    write_envelope(w, &[&header, frames])
}

/// Writes the length prefix, then `parts` back to back as one body,
/// looping on partial vectored writes.
fn write_envelope(w: &mut impl Write, parts: &[&[u8]]) -> Result<(), NetError> {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    if len == 0 || len > MAX_MESSAGE_BYTES {
        return Err(NetError::TooLarge {
            declared: len as u64,
        });
    }
    let prefix = (len as u32).to_le_bytes();
    let mut iov: Vec<IoSlice<'_>> = std::iter::once(&prefix[..])
        .chain(parts.iter().copied())
        .map(IoSlice::new)
        .collect();
    let mut rest = &mut iov[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(NetError::Io(std::io::ErrorKind::WriteZero.into())),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads one enveloped message body, blocking. The declared length is
/// validated against `(1 ..= MAX_MESSAGE_BYTES)` *before* any allocation,
/// so a hostile 4 GiB prefix costs nothing.
///
/// # Errors
///
/// [`NetError::Disconnected`] on clean EOF before the first length byte;
/// [`NetError::TooLarge`]/[`NetError::Proto`] on hostile lengths;
/// [`NetError::Io`] on transport failures (including EOF mid-message).
pub fn read_message(r: &mut impl Read) -> Result<Vec<u8>, NetError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Err(NetError::Disconnected),
            Ok(0) => return Err(NetError::Proto(WireError::Truncated)),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len == 0 {
        return Err(NetError::Proto(WireError::Malformed("empty message")));
    }
    if len > MAX_MESSAGE_BYTES {
        return Err(NetError::TooLarge {
            declared: len as u64,
        });
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => NetError::Proto(WireError::Truncated),
        _ => NetError::Io(e),
    })?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Type bytes of the retired METRICS, METRICS_RANGE and HEALTH
    /// requests and their replies (see the module docs).
    const RETIRED: [u8; 6] = [0x07, 0x0A, 0x0B, 0x87, 0x8A, 0x8B];

    fn durable_status() -> StatusReply {
        StatusReply {
            sessions: 3,
            frames_absorbed: 40_000,
            frames_rejected: 12,
            num_reports: 39_988,
            snapshot_version: 17,
            current_epoch: Some(6),
            durable: Some(DurableProgress {
                last_checkpoint: Some(2),
                wal_segment_seq: 5,
                wal_records: 190,
                wal_frames: 40_000,
                checkpoint_failures: 1,
                wedged: true,
            }),
        }
    }

    #[test]
    fn messages_roundtrip() {
        let msgs = [
            ClientMsg::Hello(Hello {
                kind: 3,
                wire_version: WIRE_EPOCH,
                windowed: true,
            }),
            ClientMsg::Report(ReportBatch {
                count: 2,
                frames: vec![0xAA; 12],
            }),
            ClientMsg::Query(Query {
                op: QueryOp::Range { a: 3, b: 900 },
                window: Some(4),
            }),
            ClientMsg::Query(Query {
                op: QueryOp::Quantile { phi: 0.5 },
                window: None,
            }),
            ClientMsg::Seal,
            ClientMsg::Bye,
            ClientMsg::Status,
            ClientMsg::Replicate { start: 0 },
            ClientMsg::Replicate { start: u64::MAX },
            ClientMsg::ReplAck { acked: 12_345 },
        ];
        for msg in msgs {
            let body = msg.encode();
            assert!(!RETIRED.contains(&body[0]), "{msg:?} reuses a retired type");
            let decoded = ClientMsg::decode(&body).expect("decode own encoding");
            assert_eq!(decoded, msg);
            assert_eq!(decoded.encode(), body);
        }

        let replies = [
            ServerMsg::HelloOk(HelloOk {
                kind: 1,
                wire_version: WIRE_V1,
                windowed: false,
                domain: 1024,
            }),
            ServerMsg::ReportOk { accepted: 500 },
            ServerMsg::QueryOk(QueryReply {
                result: QueryResult::Fraction(0.25),
                version: 7,
                num_reports: 10_000,
                window: Some((3, 6)),
            }),
            ServerMsg::QueryOk(QueryReply {
                result: QueryResult::Index(511),
                version: 1,
                num_reports: 1,
                window: None,
            }),
            ServerMsg::SealOk { epoch: 9 },
            ServerMsg::ByeOk,
            ServerMsg::StatusOk(durable_status()),
            ServerMsg::StatusOk(StatusReply {
                sessions: 0,
                frames_absorbed: 0,
                frames_rejected: 0,
                num_reports: 0,
                snapshot_version: 0,
                current_epoch: None,
                durable: None,
            }),
            ServerMsg::ReplOk {
                start: 17,
                leader_records: 40_000,
            },
            ServerMsg::ReplRecord {
                position: 190,
                body: vec![0x01, 0x02, 0xAA, 0xBB],
            },
            ServerMsg::Error(RemoteError::new(
                ErrorCode::BadFrame,
                Some(17),
                "frame 17 of HhReport batch rejected",
            )),
            ServerMsg::Error(RemoteError::new(
                ErrorCode::ReplUnavailable,
                None,
                "start precedes retained log",
            )),
        ];
        for msg in replies {
            let body = msg.encode();
            assert!(!RETIRED.contains(&body[0]), "{msg:?} reuses a retired type");
            let decoded = ServerMsg::decode(&body).expect("decode own encoding");
            assert_eq!(decoded, msg);
            assert_eq!(decoded.encode(), body);
        }
    }

    #[test]
    fn hostile_bodies_are_rejected_not_panicked() {
        // Empty body, unknown types, truncations of a valid message.
        assert!(ClientMsg::decode(&[]).is_err());
        assert!(ServerMsg::decode(&[]).is_err());
        assert!(ClientMsg::decode(&[0x66]).is_err());
        assert!(ServerMsg::decode(&[0x66]).is_err());
        let body = ClientMsg::Query(Query {
            op: QueryOp::Quantile { phi: 0.75 },
            window: Some(2),
        })
        .encode();
        for cut in 0..body.len() {
            assert!(ClientMsg::decode(&body[..cut]).is_err(), "prefix {cut}");
        }
        // Trailing garbage is an error.
        let mut trailing = body;
        trailing.push(0);
        assert!(ClientMsg::decode(&trailing).is_err());

        // A REPORT whose declared count exceeds its payload bytes.
        let mut report = vec![super::MSG_REPORT];
        put_varint(&mut report, 1_000_000);
        report.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            ClientMsg::decode(&report),
            Err(WireError::Malformed(_))
        ));

        // A hostile quantile (NaN / out of range) is stopped at decode.
        for bad in [f64::NAN, f64::INFINITY, -0.5, 1.5] {
            let mut q = vec![super::MSG_QUERY, 0, OP_QUANTILE];
            q.extend_from_slice(&bad.to_bits().to_le_bytes());
            assert!(ClientMsg::decode(&q).is_err(), "accepted phi {bad}");
        }

        // REPLICATE without the handshake magic or with a future proto
        // version is rejected, and a pushed record must carry a body.
        assert!(ClientMsg::decode(&[MSG_REPLICATE, b'X', b'Y', 1, 0]).is_err());
        assert!(matches!(
            ClientMsg::decode(&[MSG_REPLICATE, b'L', b'N', PROTO_VERSION + 1, 0]),
            Err(WireError::UnsupportedVersion(_))
        ));
        let empty_rec = ServerMsg::decode(&[MSG_REPL_REC, 0]);
        assert!(matches!(empty_rec, Err(WireError::Malformed(_))));
    }

    /// A STATUS probe and its reply encode to exactly the bytes of the
    /// first protocol version, so old clients and servers interoperate
    /// with new ones unchanged.
    #[test]
    fn status_without_metrics_is_legacy_byte_identical() {
        // Legacy probe: bare type byte.
        assert_eq!(ClientMsg::Status.encode(), vec![MSG_STATUS]);

        // Legacy reply: counters + option flags, nothing after `durable`.
        let reply = StatusReply {
            sessions: 3,
            frames_absorbed: 40,
            frames_rejected: 2,
            num_reports: 38,
            snapshot_version: 5,
            current_epoch: None,
            durable: None,
        };
        let body = ServerMsg::StatusOk(reply).encode();
        let legacy = vec![MSG_STATUS_OK, 3, 40, 2, 38, 5, 0, 0];
        assert_eq!(body, legacy);
    }

    /// STATUS carries no payload any more: the flag byte that once asked
    /// for the metrics section, or any other trailing byte, is a malformed
    /// body, and so is a STATUS_OK with a section after its durable block.
    #[test]
    fn hostile_metrics_payloads_are_rejected_not_panicked() {
        for body in [
            &[MSG_STATUS, 0][..],
            &[MSG_STATUS, 1],
            &[MSG_STATUS, 2],
            &[MSG_STATUS, 1, 1],
        ] {
            assert!(
                matches!(ClientMsg::decode(body), Err(WireError::Malformed(_))),
                "STATUS body {body:?} accepted"
            );
        }

        let full = ServerMsg::StatusOk(durable_status()).encode();
        for cut in 0..full.len() {
            assert!(ServerMsg::decode(&full[..cut]).is_err(), "prefix {cut}");
        }
        for section in [1u8, 2] {
            let mut trailing = full.clone();
            trailing.extend_from_slice(&[section, 0]);
            assert!(
                matches!(ServerMsg::decode(&trailing), Err(WireError::Malformed(_))),
                "STATUS_OK section {section} accepted"
            );
        }
    }

    /// The retired METRICS, METRICS_RANGE and HEALTH type bytes decode as
    /// unknown types on both sides: bare, with the payloads they used to
    /// carry, and behind their old version byte.
    #[test]
    fn hostile_ops_plane_payloads_are_rejected_not_panicked() {
        for t in RETIRED {
            for body in [vec![t], vec![t, 0xFF], vec![t, 1, 0], vec![t, 0x80]] {
                assert_eq!(ClientMsg::decode(&body), Err(WireError::UnknownKind(t)));
                assert_eq!(ServerMsg::decode(&body), Err(WireError::UnknownKind(t)));
            }
        }
    }

    #[test]
    fn envelope_rejects_oversized_declared_length_before_allocating() {
        let mut hostile: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF, 0x00];
        assert!(matches!(
            read_message(&mut hostile),
            Err(NetError::TooLarge { declared }) if declared == u64::from(u32::MAX)
        ));
        let mut empty: &[u8] = &[0, 0, 0, 0];
        assert!(matches!(read_message(&mut empty), Err(NetError::Proto(_))));
        let mut eof: &[u8] = &[];
        assert!(matches!(
            read_message(&mut eof),
            Err(NetError::Disconnected)
        ));
        let mut truncated: &[u8] = &[5, 0, 0, 0, 1, 2];
        assert!(matches!(
            read_message(&mut truncated),
            Err(NetError::Proto(WireError::Truncated))
        ));
    }

    #[test]
    fn report_body_fast_path_matches_the_message_codec() {
        let frames = vec![0x5A; 37];
        let via_msg = ClientMsg::Report(ReportBatch {
            count: 3,
            frames: frames.clone(),
        })
        .encode();
        assert_eq!(encode_report_body(3, &frames), via_msg);
    }

    #[test]
    fn error_detail_is_capped() {
        let long = "x".repeat(MAX_DETAIL_BYTES * 3);
        let e = RemoteError::new(ErrorCode::Protocol, None, long);
        assert_eq!(e.detail.len(), MAX_DETAIL_BYTES);
        let body = ServerMsg::Error(e.clone()).encode();
        assert_eq!(ServerMsg::decode(&body).unwrap(), ServerMsg::Error(e));
    }
}
