//! The unified telemetry layer: a mergeable metrics registry, per-stage
//! latency histograms, and the ops plane built on top of them —
//! time-series sampling, derived component health, and cross-tier span
//! tracing.
//!
//! Every tier of the service — shard absorb, snapshot publication, epoch
//! windowing, the session server, and the durable storage layer —
//! registers its instruments in one shared [`MetricsRegistry`] and
//! updates them lock-free on its hot paths. The frozen views
//! ([`RegistrySnapshot`], [`HistoSnapshot`]) obey the same exact
//! merge/subtract algebra as the mechanism servers.
//!
//! Telemetry has one remote surface, the plain-HTTP ops endpoint
//! (`NetConfig::ops_addr`), and one in-process one, the registry itself
//! (`LdpServer::registry`):
//!
//! - `GET /metrics` — the Prometheus text exposition
//!   ([`RegistrySnapshot::render_prom`]) of a fresh snapshot;
//! - `GET /metrics/range` — the time-series ring ([`TimeSeriesRing`]): a
//!   background [`Sampler`], running only alongside the endpoint, freezes
//!   whole snapshots on a fixed interval, and the exact subtract algebra
//!   turns any two samples into a lossless per-interval delta
//!   ([`MetricsRange::deltas`]);
//! - `GET /health` — the derived component health ([`health::evaluate`]):
//!   a pure function over a frozen snapshot giving per-component
//!   `Healthy`/`Degraded`/`Unhealthy` verdicts rolled into one node
//!   verdict.
//!
//! The session protocol carries none of this; its STATUS probe answers
//! with counters and durability progress only.
//!
//! A [`TraceRing`] rides along for postmortem debugging of the
//! adversarial session paths: a fixed-size lock-free ring of structured
//! events behind a runtime flag. Events are **spans**: each message gets
//! an id at event-loop decode that follows it through execute, WAL
//! group-commit, and follower re-apply ([`TraceStage`]), so one ring
//! tail reconstructs the decode→absorb→fsync→ack timeline of a single
//! REPORT.
//!
//! See the README's "Observability" section for the full metric-name
//! table (name, type, unit, tier) and the health-state semantics.

pub mod expose;
pub mod health;
pub mod instruments;
pub mod registry;
pub mod timeseries;
pub mod trace;

pub use expose::{MetricEntry, MetricValue, RegistrySnapshot};
pub use health::{evaluate, ComponentHealth, HealthReport, HealthState, HealthThresholds};
pub use registry::{
    Counter, Gauge, Histo, HistoSnapshot, Metric, MetricsRegistry, ObsError, HISTO_BUCKETS,
};
pub use timeseries::{MetricsRange, Sampler, TimeSample, TimeSeriesRing, MAX_RANGE_SAMPLES};
pub use trace::{TraceEvent, TraceOutcome, TraceRing, TraceStage};
