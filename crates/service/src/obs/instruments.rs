//! Per-tier instrument bundles: each tier resolves its instruments from
//! the shared registry once, at attach time, and holds the `Arc`s so its
//! hot paths never touch the registry again.
//!
//! The canonical metric names live in [`names`]; the README
//! "Observability" table documents each one's type, unit, and tier.

use std::sync::Arc;

use crate::obs::registry::{Counter, Gauge, Histo, MetricsRegistry};

/// The canonical metric names, one constant per registered instrument,
/// so tests and operators reference names instead of retyping strings.
pub mod names {
    /// Histogram, ns: wall time of one shard-tier batch absorb.
    pub const SHARD_ABSORB_NS: &str = "shard.absorb_ns";
    /// Counter, frames: frames committed by the shard tier.
    pub const SHARD_FRAMES_ACCEPTED: &str = "shard.frames_accepted";
    /// Counter, frames: frames rejected by the shard tier (whole batch on
    /// an all-or-nothing failure).
    pub const SHARD_FRAMES_REJECTED: &str = "shard.frames_rejected";

    /// Histogram, ns: wall time of one published-snapshot refresh
    /// (drain + freeze + swap).
    pub const SERVICE_REFRESH_NS: &str = "service.refresh_ns";
    /// Histogram, ns: wall time of one snapshot freeze (estimate,
    /// constrained inference or pyramid collapse, prefix sums), recorded
    /// only by refreshes that publish a new version — a clean refresh
    /// freezes nothing and adds no sample.
    pub const SERVICE_FREEZE_NS: &str = "service.freeze_ns";
    /// Counter, refreshes: snapshot refreshes completed.
    pub const SERVICE_REFRESHES: &str = "service.refreshes";
    /// Gauge, version: version stamp of the currently published snapshot.
    pub const SERVICE_SNAPSHOT_VERSION: &str = "service.snapshot_version";
    /// Histogram, ns: wall time of one refresh's drain (every shard
    /// holding reports merged into the accumulator and cleared), recorded
    /// only by refreshes that publish a new version, like
    /// [`SERVICE_FREEZE_NS`].
    pub const SERVICE_DRAIN_NS: &str = "service.drain_ns";
    /// Counter, shards: shards refreshes drained into the accumulator
    /// (shards holding no reports are skipped and not counted).
    pub const SERVICE_REFRESH_SHARDS_DRAINED: &str = "service.refresh_shards_drained";
    /// Counter, refreshes: refreshes that found nothing drained since the
    /// published freeze and returned the already-published snapshot
    /// without estimating (over [`SERVICE_REFRESHES`] it is the hit rate
    /// of unchanged queries).
    pub const SERVICE_REFRESHES_CLEAN: &str = "service.refreshes_clean";

    /// Histogram, ns: wall time of one lockstep epoch seal across all
    /// shard rings.
    pub const WINDOW_SEAL_NS: &str = "window.seal_ns";
    /// Counter, epochs: epochs sealed (lockstep sweeps, not per shard).
    pub const WINDOW_EPOCHS_SEALED: &str = "window.epochs_sealed";
    /// Histogram, ns: wall time of one ring rotation's exact subtract of
    /// the retired epoch.
    pub const WINDOW_ROTATE_NS: &str = "window.rotate_ns";
    /// Counter, epochs: epochs retired out of the service's accumulator
    /// ring (shard rings hold no sealed data and are not instrumented).
    pub const WINDOW_ROTATIONS: &str = "window.rotations";

    /// Counter, sessions: sessions accepted off the listener.
    pub const NET_SESSIONS_OPENED: &str = "net.sessions_opened";
    /// Counter, sessions: sessions fully torn down.
    pub const NET_SESSIONS_CLOSED: &str = "net.sessions_closed";
    /// Gauge, sessions: sessions currently open (held by any event loop).
    pub const NET_SESSIONS_OPEN: &str = "net.sessions_open";
    /// Counter, frames: frames absorbed into the backend over the socket.
    pub const NET_FRAMES_ABSORBED: &str = "net.frames_absorbed";
    /// Counter, frames: frames rejected at the session layer.
    pub const NET_FRAMES_REJECTED: &str = "net.frames_rejected";
    /// Counter, bytes: session-message bytes read (length prefix + body).
    pub const NET_BYTES_IN: &str = "net.bytes_in";
    /// Counter, bytes: session-message bytes written.
    pub const NET_BYTES_OUT: &str = "net.bytes_out";
    /// Histogram, ns: REPORT handling latency (absorb + reply write).
    pub const NET_REPORT_NS: &str = "net.report_ns";
    /// Histogram, ns: QUERY handling latency.
    pub const NET_QUERY_NS: &str = "net.query_ns";
    /// Histogram, ns: SEAL handling latency.
    pub const NET_SEAL_NS: &str = "net.seal_ns";
    /// Histogram, ns: STATUS / REPLICATE handling latency.
    pub const NET_STATUS_NS: &str = "net.status_ns";

    /// Histogram, ns: one WAL group-commit append including fsync.
    pub const WAL_APPEND_NS: &str = "wal.append_ns";
    /// Histogram, frames: group-commit batch size (frames per record).
    pub const WAL_BATCH_FRAMES: &str = "wal.batch_frames";
    /// Counter, records: WAL records appended.
    pub const WAL_RECORDS: &str = "wal.records";
    /// Counter, frames: frames appended to the WAL.
    pub const WAL_FRAMES: &str = "wal.frames";
    /// Histogram, ns: wall time of one checkpoint (append + rotate +
    /// state write + prune).
    pub const STORAGE_CHECKPOINT_NS: &str = "storage.checkpoint_ns";
    /// Counter, checkpoints: checkpoints completed.
    pub const STORAGE_CHECKPOINTS: &str = "storage.checkpoints";
    /// Counter, failures: auto-checkpoints that failed (ingest continued).
    pub const STORAGE_CHECKPOINT_FAILURES: &str = "storage.checkpoint_failures";
    /// Gauge, flag: 1 once the store wedged fail-stop, else 0.
    pub const STORAGE_WEDGED: &str = "storage.wedged";
    /// Counter, records: WAL records replayed by recovery at open.
    pub const STORAGE_REPLAY_RECORDS: &str = "storage.replay_records";
    /// Counter, frames: frames replayed by recovery at open.
    pub const STORAGE_REPLAY_FRAMES: &str = "storage.replay_frames";

    /// Gauge, sessions: follower sessions currently subscribed to this
    /// leader's WAL stream.
    pub const REPL_FOLLOWERS: &str = "repl.followers";
    /// Gauge, records: records the slowest subscribed follower has yet
    /// to acknowledge (0 with no followers).
    pub const REPL_FOLLOWER_LAG_RECORDS: &str = "repl.follower_lag_records";
    /// Counter, records: replicated WAL records a follower has applied
    /// and persisted to its own log.
    pub const REPL_RECORDS_APPLIED: &str = "repl.records_applied";

    /// Counter, requests: HTTP requests answered by the ops scrape
    /// endpoint (any status).
    pub const OPS_HTTP_REQUESTS: &str = "ops.http_requests";
    /// Counter, requests: ops scrape requests answered with a non-200
    /// status (bad request, unknown path, wrong method).
    pub const OPS_HTTP_ERRORS: &str = "ops.http_errors";
}

/// Shard-tier instruments (the service's per-shard absorb path).
#[derive(Debug, Clone)]
pub struct ShardInstruments {
    /// [`names::SHARD_ABSORB_NS`].
    pub absorb_ns: Arc<Histo>,
    /// [`names::SHARD_FRAMES_ACCEPTED`].
    pub frames_accepted: Arc<Counter>,
    /// [`names::SHARD_FRAMES_REJECTED`].
    pub frames_rejected: Arc<Counter>,
}

impl ShardInstruments {
    /// Resolves the shard-tier instruments from `registry`.
    #[must_use]
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            absorb_ns: registry.histo(names::SHARD_ABSORB_NS),
            frames_accepted: registry.counter(names::SHARD_FRAMES_ACCEPTED),
            frames_rejected: registry.counter(names::SHARD_FRAMES_REJECTED),
        }
    }
}

/// Service-tier instruments (`crate::LdpService` snapshot publication).
#[derive(Debug, Clone)]
pub struct ServiceInstruments {
    /// [`names::SERVICE_REFRESH_NS`].
    pub refresh_ns: Arc<Histo>,
    /// [`names::SERVICE_FREEZE_NS`].
    pub freeze_ns: Arc<Histo>,
    /// [`names::SERVICE_REFRESHES`].
    pub refreshes: Arc<Counter>,
    /// [`names::SERVICE_SNAPSHOT_VERSION`].
    pub snapshot_version: Arc<Gauge>,
    /// [`names::SERVICE_DRAIN_NS`].
    pub drain_ns: Arc<Histo>,
    /// [`names::SERVICE_REFRESH_SHARDS_DRAINED`].
    pub refresh_shards_drained: Arc<Counter>,
    /// [`names::SERVICE_REFRESHES_CLEAN`].
    pub refreshes_clean: Arc<Counter>,
}

impl ServiceInstruments {
    /// Resolves the service-tier instruments from `registry`.
    #[must_use]
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            refresh_ns: registry.histo(names::SERVICE_REFRESH_NS),
            freeze_ns: registry.histo(names::SERVICE_FREEZE_NS),
            refreshes: registry.counter(names::SERVICE_REFRESHES),
            snapshot_version: registry.gauge(names::SERVICE_SNAPSHOT_VERSION),
            drain_ns: registry.histo(names::SERVICE_DRAIN_NS),
            refresh_shards_drained: registry.counter(names::SERVICE_REFRESH_SHARDS_DRAINED),
            refreshes_clean: registry.counter(names::SERVICE_REFRESHES_CLEAN),
        }
    }
}

/// Window-tier instruments (`crate::EpochRing` sealing and rotation).
#[derive(Debug, Clone)]
pub struct WindowInstruments {
    /// [`names::WINDOW_SEAL_NS`].
    pub seal_ns: Arc<Histo>,
    /// [`names::WINDOW_EPOCHS_SEALED`].
    pub epochs_sealed: Arc<Counter>,
    /// [`names::WINDOW_ROTATE_NS`].
    pub rotate_ns: Arc<Histo>,
    /// [`names::WINDOW_ROTATIONS`].
    pub rotations: Arc<Counter>,
}

impl WindowInstruments {
    /// Resolves the window-tier instruments from `registry`.
    #[must_use]
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            seal_ns: registry.histo(names::WINDOW_SEAL_NS),
            epochs_sealed: registry.counter(names::WINDOW_EPOCHS_SEALED),
            rotate_ns: registry.histo(names::WINDOW_ROTATE_NS),
            rotations: registry.counter(names::WINDOW_ROTATIONS),
        }
    }
}

/// Net-tier instruments (`crate::net::LdpServer` sessions). These are
/// the *only* accounting path for drain totals: `ServerStats` is read
/// back out of these counters.
#[derive(Debug, Clone)]
pub struct NetInstruments {
    /// [`names::NET_SESSIONS_OPENED`].
    pub sessions_opened: Arc<Counter>,
    /// [`names::NET_SESSIONS_CLOSED`].
    pub sessions_closed: Arc<Counter>,
    /// [`names::NET_SESSIONS_OPEN`].
    pub sessions_open: Arc<Gauge>,
    /// [`names::NET_FRAMES_ABSORBED`].
    pub frames_absorbed: Arc<Counter>,
    /// [`names::NET_FRAMES_REJECTED`].
    pub frames_rejected: Arc<Counter>,
    /// [`names::NET_BYTES_IN`].
    pub bytes_in: Arc<Counter>,
    /// [`names::NET_BYTES_OUT`].
    pub bytes_out: Arc<Counter>,
    /// [`names::NET_REPORT_NS`].
    pub report_ns: Arc<Histo>,
    /// [`names::NET_QUERY_NS`].
    pub query_ns: Arc<Histo>,
    /// [`names::NET_SEAL_NS`].
    pub seal_ns: Arc<Histo>,
    /// [`names::NET_STATUS_NS`].
    pub status_ns: Arc<Histo>,
}

impl NetInstruments {
    /// Resolves the net-tier instruments from `registry`.
    #[must_use]
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            sessions_opened: registry.counter(names::NET_SESSIONS_OPENED),
            sessions_closed: registry.counter(names::NET_SESSIONS_CLOSED),
            sessions_open: registry.gauge(names::NET_SESSIONS_OPEN),
            frames_absorbed: registry.counter(names::NET_FRAMES_ABSORBED),
            frames_rejected: registry.counter(names::NET_FRAMES_REJECTED),
            bytes_in: registry.counter(names::NET_BYTES_IN),
            bytes_out: registry.counter(names::NET_BYTES_OUT),
            report_ns: registry.histo(names::NET_REPORT_NS),
            query_ns: registry.histo(names::NET_QUERY_NS),
            seal_ns: registry.histo(names::NET_SEAL_NS),
            status_ns: registry.histo(names::NET_STATUS_NS),
        }
    }
}

/// Storage-tier instruments (`crate::storage::DurableService` WAL,
/// checkpointing, recovery, and the fail-stop wedge flag — the gauge *is*
/// the wedge state, there is no shadow copy).
#[derive(Debug, Clone)]
pub struct StorageInstruments {
    /// [`names::WAL_APPEND_NS`].
    pub append_ns: Arc<Histo>,
    /// [`names::WAL_BATCH_FRAMES`].
    pub batch_frames: Arc<Histo>,
    /// [`names::WAL_RECORDS`].
    pub wal_records: Arc<Counter>,
    /// [`names::WAL_FRAMES`].
    pub wal_frames: Arc<Counter>,
    /// [`names::STORAGE_CHECKPOINT_NS`].
    pub checkpoint_ns: Arc<Histo>,
    /// [`names::STORAGE_CHECKPOINTS`].
    pub checkpoints: Arc<Counter>,
    /// [`names::STORAGE_CHECKPOINT_FAILURES`].
    pub checkpoint_failures: Arc<Counter>,
    /// [`names::STORAGE_WEDGED`].
    pub wedged: Arc<Gauge>,
    /// [`names::STORAGE_REPLAY_RECORDS`].
    pub replay_records: Arc<Counter>,
    /// [`names::STORAGE_REPLAY_FRAMES`].
    pub replay_frames: Arc<Counter>,
}

impl StorageInstruments {
    /// Resolves the storage-tier instruments from `registry`.
    #[must_use]
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            append_ns: registry.histo(names::WAL_APPEND_NS),
            batch_frames: registry.histo(names::WAL_BATCH_FRAMES),
            wal_records: registry.counter(names::WAL_RECORDS),
            wal_frames: registry.counter(names::WAL_FRAMES),
            checkpoint_ns: registry.histo(names::STORAGE_CHECKPOINT_NS),
            checkpoints: registry.counter(names::STORAGE_CHECKPOINTS),
            checkpoint_failures: registry.counter(names::STORAGE_CHECKPOINT_FAILURES),
            wedged: registry.gauge(names::STORAGE_WEDGED),
            replay_records: registry.counter(names::STORAGE_REPLAY_RECORDS),
            replay_frames: registry.counter(names::STORAGE_REPLAY_FRAMES),
        }
    }
}

/// Replication-tier instruments. On a leader the two gauges track its
/// subscribed followers; on a follower the counter tracks applied
/// records. Both sides register the full bundle so the exposition shape
/// does not depend on the role.
#[derive(Debug, Clone)]
pub struct ReplInstruments {
    /// [`names::REPL_FOLLOWERS`].
    pub followers: Arc<Gauge>,
    /// [`names::REPL_FOLLOWER_LAG_RECORDS`].
    pub follower_lag_records: Arc<Gauge>,
    /// [`names::REPL_RECORDS_APPLIED`].
    pub records_applied: Arc<Counter>,
}

impl ReplInstruments {
    /// Resolves the replication-tier instruments from `registry`.
    #[must_use]
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            followers: registry.gauge(names::REPL_FOLLOWERS),
            follower_lag_records: registry.gauge(names::REPL_FOLLOWER_LAG_RECORDS),
            records_applied: registry.counter(names::REPL_RECORDS_APPLIED),
        }
    }
}

/// Ops-plane instruments (the HTTP scrape endpoint) — the ops plane
/// measures itself with the same registry it exposes.
#[derive(Debug, Clone)]
pub struct OpsInstruments {
    /// [`names::OPS_HTTP_REQUESTS`].
    pub http_requests: Arc<Counter>,
    /// [`names::OPS_HTTP_ERRORS`].
    pub http_errors: Arc<Counter>,
}

impl OpsInstruments {
    /// Resolves the ops-plane instruments from `registry`.
    #[must_use]
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self {
            http_requests: registry.counter(names::OPS_HTTP_REQUESTS),
            http_errors: registry.counter(names::OPS_HTTP_ERRORS),
        }
    }
}
