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
//! Telemetry does not travel on this protocol: metrics and health leave
//! the process only over the plain-HTTP ops endpoint
//! ([`crate::net::NetConfig::ops_addr`]), and in-process callers read
//! [`super::LdpServer::registry`]. STATUS is the one probe left, and
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
//! [`MAX_DETAIL_BYTES`]. The codecs reuse the wire format's primitives:
//! [`Reader`], and [`put_varint`], the one varint writer in the codebase
//! (`ldp_freq_oracle`'s, which checkpoints and WAL records write through
//! too). There are two varint readers: [`Reader::varint`] on the frame
//! decode path, which returns a [`WireError`], and checkpoint state's
//! `ldp_ranges::StateReader::varint`, which returns a `RangeError`.
//!
//! The grammar above is the human-readable spec; the `message_table!`
//! rows below are authoritative: `encode`, `decode` and the type lists
//! ([`ClientMsg::TYPES`], [`ServerMsg::TYPES`]) are generated from them,
//! and each validation rule lives once, in the `get` of its field.

use std::io::{IoSlice, Read, Write};

use crate::error::WireError;
use crate::net::NetError;
use crate::storage::wal::MAX_RECORD_BYTES;
use crate::storage::DurableStatus;
use crate::wire::{
    decode_message, encode_message, fields, message_table, Field, FrameCount, Le64, Reader, Tail,
    WireVersion, MAX_VARINT_BYTES,
};
use ldp_ranges::persist::put_varint;

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
/// Cap on the envelope a replication follower accepts: a REPL_REC head
/// (type byte + position varint) around the largest WAL record body. A
/// REPORT at [`MAX_MESSAGE_BYTES`] is acked as a WAL record one byte
/// longer than itself, so the stream must carry more than a client may
/// send.
pub(crate) const MAX_REPL_MESSAGE_BYTES: usize = 1 + MAX_VARINT_BYTES + MAX_RECORD_BYTES;
/// Cap on an ERROR message's human-readable detail.
pub const MAX_DETAIL_BYTES: usize = 1 << 10;
/// Wire version 1: epoch-less frames, decoded strictly.
pub const WIRE_V1: u8 = crate::wire::VERSION;
/// Wire version 2: epoch-tagged frames accepted (v1 frames still pass,
/// untagged).
pub const WIRE_EPOCH: u8 = crate::wire::VERSION_EPOCH;

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
    /// The answer as a fraction: `Some` for a range, prefix or point
    /// reply, `None` for a quantile reply.
    #[must_use]
    pub fn fraction(&self) -> Option<f64> {
        match self.result {
            QueryResult::Fraction(f) => Some(f),
            QueryResult::Index(_) => None,
        }
    }

    /// The answer as a quantile index: `Some` for a quantile reply,
    /// `None` for a range, prefix or point reply.
    #[must_use]
    pub fn index(&self) -> Option<u64> {
        match self.result {
            QueryResult::Index(i) => Some(i),
            QueryResult::Fraction(_) => None,
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
        encode_message::<Self>(self)
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
        decode_message::<Self>(body, "trailing bytes after message")
    }
}

impl ServerMsg {
    /// Encodes the message body (type byte + payload, no envelope).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        encode_message::<Self>(self)
    }

    /// Decodes one message body. Total, like [`ClientMsg::decode`].
    ///
    /// # Errors
    ///
    /// Fails on an empty body, an unknown type byte, a malformed payload,
    /// or trailing bytes.
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        decode_message::<Self>(body, "trailing bytes after message")
    }
}

// --- the tables --------------------------------------------------------

/// Type bytes of the retired METRICS, METRICS_RANGE and HEALTH requests
/// (0x07, 0x0A, 0x0B) and their replies (0x87, 0x8A, 0x8B). They decode
/// as unknown types and must never be reused: a client built against the
/// old table would misparse a new meaning.
pub const RETIRED_TYPES: [u8; 6] = [0x07, 0x0A, 0x0B, 0x87, 0x8A, 0x8B];

message_table! {
    ClientMsg, unknown(t) => WireError::UnknownKind(t);
    0x01 HELLO => [Handshake] Hello(Hello),
    0x02 REPORT => Report(ReportBatch),
    0x03 QUERY => Query(Query),
    0x04 SEAL => Seal,
    0x05 BYE => Bye,
    0x06 STATUS => Status,
    0x08 REPLICATE => [Handshake] Replicate { start: u64 },
    0x09 REPL_ACK => ReplAck { acked: u64 },
}

message_table! {
    ServerMsg, unknown(t) => WireError::UnknownKind(t);
    0x81 HELLO_OK => HelloOk(HelloOk),
    0x82 REPORT_OK => ReportOk { accepted: u64 },
    0x83 QUERY_OK => QueryOk(QueryReply),
    0x84 SEAL_OK => SealOk { epoch: u64 },
    0x85 BYE_OK => ByeOk,
    0x86 STATUS_OK => StatusOk(StatusReply),
    0x88 REPL_OK => ReplOk { start: u64, leader_records: u64 },
    0x89 REPL_REC => ReplRecord { position: u64, body: RecordBody },
    0x7F ERROR => Error(RemoteError),
}

message_table! {
    QueryOp, unknown(_) => WireError::Malformed("unknown query op");
    0 => Range { a: u64, b: u64 } if a > b => "range lower bound above upper",
    1 => Prefix { b: u64 },
    2 => Point { z: u64 },
    3 => Quantile { phi: f64 }
        if !phi.is_finite() || !(0.0..=1.0).contains(&phi) => "quantile phi outside [0, 1]",
}

message_table! {
    QueryResult, unknown(_) => WireError::Malformed("unknown query result tag");
    0 => Fraction(f64),
    1 => Index(Le64),
}

message_table! {
    ErrorCode, unknown(_) => WireError::Malformed("unknown error code");
    0 => Protocol,
    1 => UnsupportedProto,
    2 => KindMismatch,
    3 => WireVersionMismatch,
    4 => EpochModeMismatch,
    5 => BadFrame,
    6 => EpochMismatch,
    7 => BadQuery,
    8 => EmptyWindow,
    9 => BadState,
    10 => ShuttingDown,
    11 => Internal,
    12 => IdleTimeout,
    13 => ReplUnavailable,
}

fields!(Hello {
    kind: u8,
    wire_version: WireVersion,
    windowed: bool
});
fields!(HelloOk {
    kind: u8,
    wire_version: u8,
    windowed: bool,
    domain: u64
});
fields!(ReportBatch {
    count: FrameCount,
    frames: Tail
});
fields!(Query { window: Option<Window>, op: QueryOp });
fields!(QueryReply {
    result: QueryResult,
    version: u64,
    num_reports: u64,
    window: Option<(u64, u64)>,
});
fields!(StatusReply {
    sessions: u64,
    frames_absorbed: u64,
    frames_rejected: u64,
    num_reports: u64,
    snapshot_version: u64,
    current_epoch: Option<u64>,
    durable: Option<DurableStatus>,
});
fields!(DurableStatus {
    last_checkpoint: Option<u64>,
    wal_segment_seq: u64,
    wal_records: u64,
    wal_frames: u64,
    checkpoint_failures: u64,
    wedged: bool,
});
fields!(RemoteError { code: ErrorCode, index: Option<u64>, detail: Detail });

// --- session fields ----------------------------------------------------

/// The handshake magic and session protocol version that HELLO and
/// REPLICATE both open with.
struct Handshake;

impl Field for Handshake {
    type Value = ();
    fn put((): &(), out: &mut Vec<u8>) {
        out.extend_from_slice(&HELLO_MAGIC);
        out.push(PROTO_VERSION);
    }
    fn get(r: &mut Reader<'_>) -> Result<(), WireError> {
        let magic = [r.u8()?, r.u8()?];
        if magic != HELLO_MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        match r.u8()? {
            PROTO_VERSION => Ok(()),
            proto => Err(WireError::UnsupportedVersion(proto)),
        }
    }
}

/// A windowed query's epoch count: a varint, never zero.
struct Window;

impl Field for Window {
    type Value = u64;
    fn put(k: &u64, out: &mut Vec<u8>) {
        put_varint(out, *k);
    }
    fn get(r: &mut Reader<'_>) -> Result<u64, WireError> {
        match r.varint()? {
            0 => Err(WireError::Malformed("zero-epoch window")),
            k => Ok(k),
        }
    }
}

/// An ERROR detail: a length varint of at most [`MAX_DETAIL_BYTES`], then
/// that many bytes of UTF-8. Encoding cuts an over-long detail at the cap.
struct Detail;

impl Field for Detail {
    type Value = String;
    fn put(detail: &String, out: &mut Vec<u8>) {
        let bytes = detail.as_bytes();
        let cut = bytes.len().min(MAX_DETAIL_BYTES);
        put_varint(out, cut as u64);
        out.extend_from_slice(&bytes[..cut]);
    }
    fn get(r: &mut Reader<'_>) -> Result<String, WireError> {
        let len = r.varint()?;
        if len > MAX_DETAIL_BYTES as u64 {
            return Err(WireError::Malformed("error detail over cap"));
        }
        String::from_utf8(r.bytes(len as usize)?.to_vec())
            .map_err(|_| WireError::Malformed("error detail is not UTF-8"))
    }
}

/// A REPL_REC's WAL record body: the rest of the message, never empty.
struct RecordBody;

impl Field for RecordBody {
    type Value = Vec<u8>;
    fn put(body: &Vec<u8>, out: &mut Vec<u8>) {
        Tail::put(body, out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Vec<u8>, WireError> {
        if r.remaining() == 0 {
            return Err(WireError::Malformed("empty replication record body"));
        }
        Tail::get(r)
    }
}

// --- the REPORT fast paths ---------------------------------------------

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

/// Decodes a REPORT message body (`body[0]` must be
/// [`ClientMsg::REPORT`]) into a borrowed [`ReportFrames`], checking the
/// FRAMES head exactly as [`ClientMsg::decode`] does, so the two paths
/// reject hostile bodies identically.
pub(crate) fn decode_report_frames(body: &[u8]) -> Result<ReportFrames<'_>, WireError> {
    let mut r = Reader::new(body);
    if r.u8()? != ClientMsg::REPORT {
        return Err(WireError::Malformed("not a REPORT body"));
    }
    let count = FrameCount::get(&mut r)?;
    Ok(ReportFrames {
        count,
        frames: r.rest(),
    })
}

/// The REPORT type byte and FRAMES head, with room for `frames` more.
fn report_head(count: u64, frames: usize) -> Vec<u8> {
    let mut head = Vec::with_capacity(1 + MAX_VARINT_BYTES + frames);
    head.push(ClientMsg::REPORT);
    FrameCount::put(&count, &mut head);
    head
}

/// Encodes a REPORT message body straight from borrowed frame bytes —
/// the hot replay path ([`super::LdpClient::send_stream`]) uses this to
/// avoid copying each batch into an owned [`ReportBatch`] first.
#[must_use]
pub fn encode_report_body(count: u64, frames: &[u8]) -> Vec<u8> {
    let mut out = report_head(count, frames.len());
    out.extend_from_slice(frames);
    out
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
    write_envelope(w, &[&report_head(count, 0), frames])
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
    fn retired_types_are_in_neither_table() {
        for t in RETIRED_TYPES {
            assert!(!ClientMsg::TYPES.contains(&t), "0x{t:02X} is retired");
            assert!(!ServerMsg::TYPES.contains(&t), "0x{t:02X} is retired");
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
        let mut report = vec![ClientMsg::REPORT];
        put_varint(&mut report, 1_000_000);
        report.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            ClientMsg::decode(&report),
            Err(WireError::Malformed(_))
        ));
        // The borrowed fast path rejects it with the same error.
        assert_eq!(
            decode_report_frames(&report),
            Err(ClientMsg::decode(&report).unwrap_err())
        );

        // A hostile quantile (NaN / out of range) is stopped at decode.
        for bad in [f64::NAN, f64::INFINITY, -0.5, 1.5] {
            let mut q = vec![ClientMsg::QUERY, 0, QueryOp::TYPES[3]];
            q.extend_from_slice(&bad.to_bits().to_le_bytes());
            assert!(ClientMsg::decode(&q).is_err(), "accepted phi {bad}");
        }

        // REPLICATE without the handshake magic or with a future proto
        // version is rejected, and a pushed record must carry a body.
        assert!(ClientMsg::decode(&[ClientMsg::REPLICATE, b'X', b'Y', 1, 0]).is_err());
        assert!(matches!(
            ClientMsg::decode(&[ClientMsg::REPLICATE, b'L', b'N', PROTO_VERSION + 1, 0]),
            Err(WireError::UnsupportedVersion(_))
        ));
        let empty_rec = ServerMsg::decode(&[ServerMsg::REPL_REC, 0]);
        assert!(matches!(empty_rec, Err(WireError::Malformed(_))));
    }

    /// A STATUS probe and its reply encode to exactly the bytes of the
    /// first protocol version, so old clients and servers interoperate
    /// with new ones unchanged.
    #[test]
    fn status_without_metrics_is_legacy_byte_identical() {
        // Legacy probe: bare type byte.
        assert_eq!(ClientMsg::Status.encode(), vec![ClientMsg::STATUS]);

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
        let legacy = vec![ServerMsg::STATUS_OK, 3, 40, 2, 38, 5, 0, 0];
        assert_eq!(body, legacy);
    }

    /// STATUS carries no payload any more: the flag byte that once asked
    /// for the metrics section, or any other trailing byte, is a malformed
    /// body, and so is a STATUS_OK with a section after its durable block.
    #[test]
    fn hostile_metrics_payloads_are_rejected_not_panicked() {
        for body in [
            &[ClientMsg::STATUS, 0][..],
            &[ClientMsg::STATUS, 1],
            &[ClientMsg::STATUS, 2],
            &[ClientMsg::STATUS, 1, 1],
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
        for t in RETIRED_TYPES {
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
