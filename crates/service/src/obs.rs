//! The unified telemetry layer: a mergeable metrics registry, per-stage
//! latency histograms, and the ops plane built on top of them —
//! Prometheus exposition and derived component health.
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
//!   ([`RegistrySnapshot::render_prom`]) of a fresh snapshot. Counters
//!   and cumulative histograms only grow, and [`RegistrySnapshot::subtract`]
//!   is exact, so a scraper that differences two scrapes gets the exact
//!   per-interval delta — no in-process history is kept;
//! - `GET /health` — the derived component health ([`health::evaluate`]):
//!   a pure function over a frozen snapshot giving per-component
//!   `Healthy`/`Degraded`/`Unhealthy` verdicts rolled into one node
//!   verdict.
//!
//! The session protocol carries none of this; its STATUS probe answers
//! with counters and durability progress only.
//!
//! The registry is the one record of per-stage cost: each handled
//! message type, each WAL append and each follower re-apply is timed or
//! counted by its own instrument.
//!
//! See the README's "Observability" section for the full metric-name
//! table (name, type, unit, tier) and the health-state semantics.

pub mod expose;
pub mod health;
pub mod instruments;
pub mod registry;

pub use expose::{MetricEntry, MetricValue, RegistrySnapshot};
pub use health::{evaluate, ComponentHealth, HealthReport, HealthState, HealthThresholds};
pub use registry::{
    Counter, Gauge, Histo, HistoSnapshot, Metric, MetricsRegistry, ObsError, HISTO_BUCKETS,
};
