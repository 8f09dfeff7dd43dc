//! # ldp-service — sharded, mergeable LDP aggregation service
//!
//! The mechanism crates ([`ldp_ranges`], [`ldp_freq_oracle`]) implement
//! the SIGMOD'19 range-query mechanisms as single-threaded accumulators.
//! This crate turns them into a service shape able to absorb traffic from
//! millions of reporting users: a compact wire protocol, mutex-sharded
//! in-place aggregation, and snapshot-isolated query serving.
//!
//! ## Architecture
//!
//! ```text
//!   clients                      service                       queries
//!   ───────                      ───────                       ───────
//!   value ──► mechanism client ──► wire frame ("LQ" v1/v2)
//!                                    │
//!                                    ▼ (batches of raw frame bytes)
//!                     ┌──────────────────────────────┐
//!                     │          LdpService          │   submitters stream
//!                     │ shard 0   shard 1  …  shard k│   bytes into the next
//!                     │ (absorb)  (absorb)    (absorb)│   shard, in place,
//!                     └──────────────┬───────────────┘   all-or-nothing
//!                                    │ drain: add each dirty shard in and
//!                                    ▼ zero it, one pass (exact: integer sums)
//!                              accumulator
//!                                    │ freeze (CI / pyramid collapse,
//!                                    ▼         prefix sums)
//!                             RangeSnapshot (Arc, versioned)
//!                                    │
//!                                    ▼
//!                      range / prefix / point / quantile — lock-free
//! ```
//!
//! Every mechanism's server state is an integer sum
//! ([`ldp_ranges::MergeableServer`]), so *any* route by which a report
//! reaches *any* shard yields the same merged state bit for bit. The
//! crate therefore has exactly one such route:
//! [`LdpService::submit_wire_batch`] streams a batch's wire bytes into a
//! shard, and the socket front end, the durable store, a replication
//! follower and crash recovery all go through the function under it.
//!
//! * [`wire`] — the versioned binary frame format for the served report
//!   types (flat and `HH_B` reports through OUE, OLH or HRR, and
//!   HaarHRR). The paper's ablations — SUE among them — stay in
//!   `ldp_ranges` and `ldp_freq_oracle`, unserved: every constructor
//!   refuses a SUE-backed prototype, and an OLH one over
//!   [`MAX_OLH_DOMAIN`] items.
//!   Total decoding: malformed bytes produce [`error::WireError`], never
//!   a panic or an unbounded allocation.
//! * [`snapshot`] — [`RangeSnapshot`]: merged state published as
//!   immutable per-level integer prefix tables
//!   ([`ldp_ranges::PrefixTables`]) for every served mechanism,
//!   answering range/prefix/point/quantile queries by one root-to-leaf
//!   walk each, shared by `Arc`, versioned for staleness reasoning.
//! * [`service`] — [`LdpService`]: the live front combining round-robin
//!   mutex-sharded ingestion with atomic snapshot publication, so queries
//!   keep answering while reports stream in. Sharding is a pure
//!   throughput change: shard-merge equals sequential absorption
//!   *exactly* (bit-for-bit). A refresh runs on the calling thread:
//!   drain, then table build.
//! * [`window`] — [`EpochRing`]: time-windowed streaming aggregation.
//!   Per-epoch accumulators in a ring, rotation that retires the oldest
//!   epoch by *exact subtraction* ([`SubtractableServer`]) instead of a
//!   full recompute, and [`WindowedSnapshot`] handles answering
//!   range/prefix/quantile queries over any trailing window while
//!   ingestion continues. Wire v2 frames carry an epoch id so stale
//!   stragglers are rejected, not folded into the wrong window.
//! * [`loadgen`] — replay of [`ldp_workloads::Dataset`] populations as
//!   deterministic encoded report streams ([`EncodedStream`]), powering
//!   the examples and the integration tests; the
//!   drifting variant ([`generate_drifting_epochs`]) replays a population
//!   that shifts across epochs, the workload windowed queries exist for.
//! * [`net`] — the network tier: a std-only event-loop TCP front end
//!   ([`LdpServer`]: a few identical readiness loops, each reading,
//!   executing and answering its own sessions inline; [`LdpClient`]
//!   blocking sessions) speaking a length-prefixed session protocol
//!   layered on the wire frames. Because every mechanism's state is an
//!   exact integer sufficient statistic, bytes-over-socket produce
//!   *bit-identical* snapshots to in-process submission — the transport
//!   is a pure function, and the differential tests enforce it.
//! * [`storage`] — the persistence tier: [`DurableService`] wraps a
//!   plain or windowed service with a segmented, CRC-framed write-ahead
//!   log (whose FRAMES records are the raw wire frames) and periodic
//!   checkpoints of the full mechanism state
//!   ([`ldp_ranges::PersistableServer`]). Recovery loads the newest
//!   valid checkpoint, replays the WAL tail, and stops cleanly at the
//!   first torn record; the same exactness argument makes durability
//!   *testable by bit-identity*, and the crash-recovery differential
//!   tests enforce it at arbitrary truncation offsets.
//! * [`repl`] — WAL-shipping replication: a durable leader streams its
//!   acked WAL records over the session protocol to followers
//!   ([`FollowerService`]) that re-apply them through the same
//!   ingest path into their own logs — hot standbys promotable
//!   to leaders ([`FollowerService::promote`]) and read replicas
//!   serving queries from their own snapshots, bit-identical to the
//!   leader's at the same replication position.
//! * [`obs`] — the telemetry layer: a shared lock-free
//!   [`MetricsRegistry`] of counters, gauges, and log-bucketed latency
//!   histograms threaded through every tier above, with frozen snapshots
//!   that merge/subtract exactly like the mechanism servers — the one
//!   record of per-stage cost. [`NetConfig::ops_addr`] is the one
//!   surface on which it leaves the process: a std-only HTTP endpoint
//!   serving Prometheus text on `GET /metrics` and a [`HealthReport`]
//!   judged from registry signals on `GET /health`.
//!   In-process callers read [`LdpServer::registry`]; the session
//!   protocol keeps only its STATUS counters.
//!
//! ## Quick start
//!
//! ```
//! use ldp_service::{loadgen, wire, LdpService};
//! use ldp_ranges::{HhClient, HhConfig, HhServer, Epsilon};
//! use ldp_workloads::Dataset;
//!
//! let config = HhConfig::new(256, 4, Epsilon::from_exp(3.0)).unwrap();
//! let client = HhClient::new(config.clone()).unwrap();
//! let prototype = HhServer::new(config).unwrap();
//!
//! // 1. Clients encode; the load generator replays a population as
//! //    back-to-back wire frames.
//! let population = Dataset::from_counts(vec![100; 256]);
//! let stream = loadgen::generate_stream(&population, 20_000, 7, |value, rng| {
//!     client.report(value, rng).unwrap()
//! });
//!
//! // 2. Batches of raw frame bytes stream into the shards (round-robin),
//! //    each batch absorbed in place, all-or-nothing.
//! let service = LdpService::new(&prototype, 4).unwrap();
//! for lo in (0..stream.len()).step_by(256) {
//!     let hi = (lo + 256).min(stream.len());
//!     let frames = stream.frame_span(lo, hi);
//!     service.submit_wire_batch(wire::VERSION, (hi - lo) as u64, frames).unwrap();
//! }
//! assert_eq!(service.num_reports(), 20_000);
//!
//! // 3. Publish a snapshot (drain the shards, then estimation) and
//! //    serve queries from it, lock-free.
//! let snap = service.refresh_snapshot().unwrap();
//! assert!((snap.range(0, 255) - 1.0).abs() < 0.1);
//! assert!(snap.quantile(0.5) < 256 && snap.version() == 1);
//! ```

pub mod error;
pub mod loadgen;
pub mod net;
pub mod obs;
pub mod repl;
pub mod service;
pub mod snapshot;
pub mod storage;
pub mod window;
pub mod wire;

pub use error::{ServiceError, WireError};
pub use loadgen::{generate_drifting_epochs, generate_stream, EncodedStream, ValueSampler};
pub use net::{
    Hello, LdpClient, LdpServer, NetConfig, NetError, Query, QueryOp, QueryReply, ServerStats,
};
pub use obs::{
    HealthReport, HealthState, HealthThresholds, HistoSnapshot, MetricsRegistry, RegistrySnapshot,
};
pub use repl::{FollowerService, ReplFeed};
pub use service::{LdpService, MAX_OLH_DOMAIN};
pub use snapshot::{RangeSnapshot, SnapshotSource};
pub use storage::{
    DurableConfig, DurableService, DurableStatus, FsyncPolicy, RecoveryReport, TailStatus,
};
pub use window::{EpochRing, SealedEpoch, WindowedSnapshot};
pub use wire::{decode_all, decode_epoch_frame, decode_frame, WireReport};

// Re-export the traits the whole crate is generic over, so users need
// only this crate for the service surface.
pub use ldp_ranges::{MergeableServer, PersistableServer, SubtractableServer};
