//! The network front end: socket-served ingestion and query serving.
//!
//! Everything below the service layer is in-process; a production
//! aggregator absorbing reports from millions of users has to do the same
//! work across an actual network boundary. This module adds that boundary
//! as a std-only event-loop TCP stack — no async runtime, no external
//! crates, consistent with the offline shim-crate build — and keeps it
//! *fully testable by bit-identity*: every mechanism's state is an exact
//! integer sufficient statistic, so bytes-over-socket must produce
//! estimates bit-for-bit identical to in-process submission, and the
//! differential tests in `tests/net_differential.rs` hold it to that.
//!
//! ```text
//!   LdpClient ── TCP ──► loop 0: accept ──► round-robin hand-off
//!   (HELLO,                                 (mailbox + wake)
//!    REPORT×n,                                     │
//!    QUERY,              ┌─────────────────────────┘
//!    SEAL, BYE)          ▼
//!              event loop k (one per `workers`, epoll / portable poller)
//!                read ─► frame ─► execute inline ─► vectored reply write
//!                                      │ submit_wire_batch
//!                                      ▼
//!                          LdpService / EpochRing
//!                                      │ freeze
//!                                      ▼
//!                   RangeSnapshot / WindowedSnapshot
//! ```
//!
//! * [`proto`] — the length-prefixed session protocol layered on the
//!   [`crate::wire`] frames: a HELLO negotiating report kind + wire
//!   version + epoch mode, batched REPORT messages acked per batch (a bad
//!   frame rejects the whole batch with its index, reusing
//!   [`crate::ServiceError::BadFrame`] semantics), QUERY messages
//!   (range/prefix/point/quantile, optionally over a trailing window of
//!   sealed epochs), and SEAL/BYE control. Decoding is total: hostile
//!   bytes produce typed errors, never a panic, and declared lengths are
//!   capped before any allocation.
//! * [`server`] — [`LdpServer`]: [`NetConfig::workers`] identical event
//!   loops, each with its own readiness poller (a thin std-only `epoll`
//!   wrapper on Linux, a portable tick-based fallback elsewhere) and its
//!   own sessions. Loop 0 accepts and deals streams out round-robin. A
//!   loop keeps per-session partial-read/partial-write buffers over the
//!   framing, executes each complete message inline against a shared
//!   [`crate::LdpService`] (plain or windowed) on the thread that read
//!   it, and flushes the replies itself — so a session costs a file
//!   descriptor, not an OS thread, a message crosses no thread hand-off,
//!   and pipelined clients are served without a round trip per message.
//!   Queries answer from snapshots and never block ingestion; graceful
//!   shutdown drains in-flight work with bounded patience for stalled
//!   peers, seals the open epoch on windowed backends, checkpoints
//!   durable ones (a read replica does neither), and joins every thread.
//!   With [`NetConfig::ops_addr`] set it also serves the plain-HTTP ops
//!   endpoint (`GET /metrics`, `/health`).
//! * [`client`] — [`LdpClient`]: the blocking client used by the tests,
//!   `examples/net_pipeline.rs`, the socket replay path over
//!   [`crate::EncodedStream`], and the `ldpbench` load generator.
//!
//! ## Transport is a pure function
//!
//! A REPORT batch is absorbed via
//! [`crate::LdpService::submit_wire_batch`] (in place, all-or-nothing),
//! which commits exactly the state a direct
//! [`crate::LdpService::submit_frame`] loop would produce. Merging is
//! exact and order-independent, so *any* interleaving of sessions across
//! event loops and shards yields the same merged state — the socket
//! path adds transport, not semantics. The durable store relies on the
//! same algebra: batches from different loops may reach its log in a
//! different order than they reached the shards, and replay still lands
//! on the same state bit for bit.

pub mod client;
pub(crate) mod ops;
mod poll;
pub mod proto;
pub(crate) mod reactor;
pub mod server;

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

pub use client::LdpClient;
pub use poll::raise_nofile_limit;
pub use proto::{
    DurableProgress, ErrorCode, Hello, Query, QueryOp, QueryReply, QueryResult, RemoteError,
    StatusReply, WIRE_EPOCH, WIRE_V1,
};
pub use server::{LdpServer, ServerStats};

use crate::error::{ServiceError, WireError};
use crate::obs::{HealthThresholds, MetricsRegistry};

/// Tuning knobs of [`LdpServer`]. `Default` is sized for tests and
/// laptop-scale benchmarks; a deployment raises `workers`.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Event loops (threads), at least one. Each loop reads, executes and
    /// answers the sessions it was dealt, so this bounds *concurrently
    /// executing* messages, not open sessions (the loops hold as many
    /// sessions as the process has file descriptors). One per core is
    /// the natural setting. A message that runs long — a fresh O(D)
    /// estimate, a WAL fsync — delays the other sessions on its loop
    /// until it finishes.
    pub workers: usize,
    /// Event-loop poll tick — bounds how stale the shutdown flag and the
    /// idle/drain clocks can get.
    pub idle_poll: Duration,
    /// Ticks of `idle_poll` tolerated without a byte of progress
    /// *mid-message or mid-flush* once shutdown has begun, before the
    /// connection is abandoned — bounds how long a half-sent message
    /// from a stalled client can delay drain.
    pub drain_patience: u32,
    /// Evict sessions that have been fully idle (no request in flight,
    /// nothing buffered either way) for longer than this, answering
    /// with a typed [`ErrorCode::IdleTimeout`] error before closing.
    /// `None` (the default) keeps idle sessions forever.
    pub idle_timeout: Option<Duration>,
    /// Force the portable tick-based poller even where the `epoll`
    /// backend is available — the path non-Linux builds run, kept
    /// selectable so Linux CI exercises it too.
    pub portable_poller: bool,
    /// Metrics registry the server instruments itself into. `None` (the
    /// default) creates a private registry — except for durable backends,
    /// which share the registry their storage layer already registered
    /// into, so one `GET /metrics` scrape (or one
    /// [`LdpServer::registry`] snapshot) sees every tier.
    pub registry: Option<Arc<MetricsRegistry>>,
    /// Bind address of the plain-HTTP ops endpoint (`GET /metrics`,
    /// `/health`) — e.g. `"127.0.0.1:0"` — the only surface on which
    /// metrics and health leave the process. `None` (the default) serves
    /// no HTTP; in-process callers still read [`LdpServer::registry`],
    /// and the session protocol keeps its STATUS counters.
    pub ops_addr: Option<String>,
    /// Thresholds the component-health model judges registry signals
    /// against for `GET /health`.
    pub health: HealthThresholds,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            idle_poll: Duration::from_millis(20),
            drain_patience: 50,
            idle_timeout: None,
            portable_poller: false,
            registry: None,
            ops_addr: None,
            health: HealthThresholds::default(),
        }
    }
}

/// Errors surfaced by the network layer (both sides).
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure (connect, read, write, bind).
    Io(std::io::Error),
    /// Malformed session-protocol bytes (bad magic, unknown message
    /// type, truncated body...). Carries the codec's diagnosis.
    Proto(WireError),
    /// A declared message length exceeds [`proto::MAX_MESSAGE_BYTES`] —
    /// rejected before any allocation.
    TooLarge {
        /// The length the peer declared.
        declared: u64,
    },
    /// The peer closed the connection mid-session.
    Disconnected,
    /// The server answered with a typed error.
    Remote(RemoteError),
    /// The server answered with a well-formed message of the wrong type
    /// for the request in flight.
    UnexpectedReply(&'static str),
    /// A service-layer failure while absorbing or querying.
    Service(ServiceError),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "socket error: {e}"),
            Self::Proto(e) => write!(f, "session protocol error: {e}"),
            Self::TooLarge { declared } => write!(
                f,
                "declared message length {declared} exceeds the {} byte cap",
                proto::MAX_MESSAGE_BYTES
            ),
            Self::Disconnected => write!(f, "peer disconnected mid-session"),
            Self::Remote(e) => write!(f, "server rejected request: {e}"),
            Self::UnexpectedReply(what) => write!(f, "unexpected reply: {what}"),
            Self::Service(e) => write!(f, "service error: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Proto(e) => Some(e),
            Self::Service(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        Self::Proto(e)
    }
}

impl From<ServiceError> for NetError {
    fn from(e: ServiceError) -> Self {
        Self::Service(e)
    }
}
