//! The metrics registry and its instruments: lock-free counters, gauges,
//! and log-bucketed latency histograms.
//!
//! The design mirrors the aggregation pipeline itself. Every mechanism in
//! this codebase is an *exact mergeable integer statistic* — shards absorb
//! independently and `merge` reproduces the single-writer state bit for
//! bit. Telemetry obeys the same algebra: instruments are plain `u64`
//! atomics updated with relaxed `fetch_add` (no lock anywhere on an
//! update path), and their frozen values ([`HistoSnapshot`],
//! [`super::RegistrySnapshot`]) carry exact `merge`/`subtract` operations
//! with checked arithmetic, so per-shard and per-worker instruments fan in
//! losslessly — the differential tests prove merged per-shard histograms
//! bit-identical to a single-writer run, exactly like `MergeableServer`.
//!
//! * [`Counter`] — monotone event count (`add`/`incr`).
//! * [`Gauge`] — last-written or high-water level (`set`/`record_max`).
//!   Gauges use `SeqCst` ordering so a flag-like gauge (the durable
//!   layer's wedge indicator) keeps fail-stop semantics.
//! * [`Histo`] — a latency/size histogram over power-of-two buckets:
//!   bucket 0 holds the value 0, bucket `i ≥ 1` holds `2^(i-1) ..= 2^i - 1`.
//!   Recording is three relaxed `fetch_add`s; there is no floating point
//!   anywhere, so histogram state is exact integer statistics like
//!   everything else in the pipeline.
//!
//! Registration (name → instrument) takes a mutex, but only at
//! construction time: components resolve their instruments once and hold
//! the `Arc`s, so the hot paths never touch the registry again.
//!
//! Like `LdpService::num_reports`, reading an instrument while writers
//! are active is racy by nature (a histogram's `count` can momentarily
//! disagree with its bucket sum mid-record) and exact when quiesced — the
//! multi-writer exactness tests pin the quiesced totals to the acked
//! frame counts.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::obs::expose::{MetricEntry, MetricValue, RegistrySnapshot};

/// Number of histogram buckets: bucket 0 for the value 0, buckets
/// `1 ..= 64` for the 64 power-of-two magnitude classes of a `u64`.
pub const HISTO_BUCKETS: usize = 65;

/// Errors of the exact telemetry algebra (merge/subtract on frozen
/// instrument values).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsError {
    /// A subtraction would drive a count below zero: the subtrahend was
    /// never merged into this value. Mirrors
    /// `OracleError::SubtractUnderflow` one layer up — the operation is
    /// rejected and the value is unchanged.
    Underflow,
    /// A merge would overflow a `u64` count. Unreachable for real
    /// telemetry (2^64 events), but the algebra stays total rather than
    /// wrapping silently.
    Overflow,
    /// Two metrics under one name have different kinds (a counter merged
    /// into a histogram) — the operands were never snapshots of one
    /// registry layout.
    KindMismatch,
}

impl std::fmt::Display for ObsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Underflow => write!(f, "metric subtraction underflow"),
            Self::Overflow => write!(f, "metric merge overflow"),
            Self::KindMismatch => write!(f, "metric kind mismatch under one name"),
        }
    }
}

impl std::error::Error for ObsError {}

// --- counter -----------------------------------------------------------

/// A monotone event counter (lock-free, relaxed atomics).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` events.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current total (racy while writers are active, exact quiesced).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

// --- gauge -------------------------------------------------------------

/// A last-written / high-water level. Uses `SeqCst` ordering so a gauge
/// can serve as a cross-thread flag (the durable layer's wedge indicator
/// must be observed by every ingest path immediately after it is set).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A fresh gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the level.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::SeqCst);
    }

    /// Raises the level to `v` if `v` is higher (high-water tracking).
    pub fn record_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::SeqCst);
    }

    /// Raises the level by one — with [`Gauge::decr`], a level that
    /// several threads move at once (open sessions across event loops).
    pub fn incr(&self) {
        self.value.fetch_add(1, Ordering::SeqCst);
    }

    /// Lowers the level by one, saturating at zero.
    pub fn decr(&self) {
        let _ = self
            .value
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Current level.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::SeqCst)
    }
}

// --- histogram ---------------------------------------------------------

/// A live latency/size histogram over power-of-two buckets (lock-free:
/// one recording is three relaxed `fetch_add`s).
#[derive(Debug)]
pub struct Histo {
    buckets: [AtomicU64; HISTO_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histo {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histo {
    /// A fresh, empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket a value lands in: 0 for 0, otherwise the value's bit
    /// length (`1 ..= 64`), so bucket `i` spans `2^(i-1) ..= 2^i - 1`.
    #[must_use]
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// The inclusive value range `[lo, hi]` of bucket `i` (clamped to the
    /// last bucket for out-of-range `i`).
    #[must_use]
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        match i.min(HISTO_BUCKETS - 1) {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            i => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturation instead of wrap-around is unobtainable from a single
        // atomic; a wrapped sum is detectable against count × bucket
        // bounds and irrelevant for realistic totals (< 2^64 ns ≈ 584
        // years).
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records the nanoseconds elapsed since `started` (saturating at
    /// `u64::MAX` — ~584 years).
    pub fn record_elapsed(&self, started: Instant) {
        self.record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }

    /// Freezes the current state. Racy while writers are active (the
    /// count can momentarily disagree with the bucket sum mid-record),
    /// exact when quiesced.
    #[must_use]
    pub fn snapshot(&self) -> HistoSnapshot {
        HistoSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A frozen histogram: exact integer bucket counts with the same
/// merge/subtract discipline as the mechanism servers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoSnapshot {
    buckets: [u64; HISTO_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for HistoSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; HISTO_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistoSnapshot {
    /// An empty snapshot (the identity of `merge`).
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The bucket counts.
    #[must_use]
    pub fn buckets(&self) -> &[u64; HISTO_BUCKETS] {
        &self.buckets
    }

    /// Count in bucket `i` (0 for out-of-range `i`).
    #[must_use]
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Mean observed value (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `phi`-quantile: the inclusive upper edge of
    /// the first bucket at which the cumulative count reaches
    /// `ceil(phi × count)`. Returns 0 when the histogram is empty; `phi`
    /// is clamped to `[0, 1]`.
    #[must_use]
    pub fn quantile_bound(&self, phi: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let phi = phi.clamp(0.0, 1.0);
        // ceil without floating-point rounding surprises at the edges.
        let target = ((phi * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= target {
                return Histo::bucket_bounds(i).1;
            }
        }
        u64::MAX
    }

    /// Merges `other` in: per-bucket, count, and sum addition — exactly
    /// the snapshot a single histogram recording both observation streams
    /// would hold. **All-or-nothing**: on overflow nothing is merged.
    ///
    /// # Errors
    ///
    /// [`ObsError::Overflow`] if any count would exceed `u64::MAX`.
    pub fn merge(&mut self, other: &Self) -> Result<(), ObsError> {
        let mut staged = self.clone();
        for (mine, theirs) in staged.buckets.iter_mut().zip(&other.buckets) {
            *mine = mine.checked_add(*theirs).ok_or(ObsError::Overflow)?;
        }
        staged.count = staged
            .count
            .checked_add(other.count)
            .ok_or(ObsError::Overflow)?;
        // The sum wraps by design (see `Histo::record`), so merge wraps
        // identically — (a + b) mod 2^64 keeps merge ≡ single-writer.
        staged.sum = staged.sum.wrapping_add(other.sum);
        *self = staged;
        Ok(())
    }

    /// The exact inverse of [`HistoSnapshot::merge`]: removes a
    /// previously merged snapshot, bit for bit. **All-or-nothing**: on
    /// underflow nothing is subtracted.
    ///
    /// # Errors
    ///
    /// [`ObsError::Underflow`] if any of `other`'s counts exceeds this
    /// snapshot's (it was never merged in).
    pub fn subtract(&mut self, other: &Self) -> Result<(), ObsError> {
        let mut staged = self.clone();
        for (mine, theirs) in staged.buckets.iter_mut().zip(&other.buckets) {
            *mine = mine.checked_sub(*theirs).ok_or(ObsError::Underflow)?;
        }
        staged.count = staged
            .count
            .checked_sub(other.count)
            .ok_or(ObsError::Underflow)?;
        staged.sum = staged.sum.wrapping_sub(other.sum);
        *self = staged;
        Ok(())
    }
}

// --- registry ----------------------------------------------------------

/// One registered instrument (shared: the registry holds one `Arc`, the
/// instrumented component holds another).
#[derive(Debug, Clone)]
pub enum Metric {
    /// A monotone counter.
    Counter(Arc<Counter>),
    /// A level / high-water gauge.
    Gauge(Arc<Gauge>),
    /// A log-bucketed histogram.
    Histo(Arc<Histo>),
}

/// A named collection of instruments shared across the service tiers.
///
/// Registration (`counter`/`gauge`/`histo`) is get-or-create under a
/// mutex — a cold path run once per component at construction. Updates go
/// through the returned `Arc`s and never touch the registry, so the hot
/// paths stay lock-free. [`MetricsRegistry::snapshot`] freezes every
/// instrument into a [`RegistrySnapshot`] for exposition (`GET /metrics`,
/// the time-series ring, in-process reads).
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MetricsRegistry({} metrics)", self.len())
    }
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    // Registration mutations are single BTreeMap inserts, so a poisoned
    // mutex still guards a consistent map — recover like the service
    // tier's read-only shard peeks instead of cascading a panic.
    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Gets or registers the counter `name`.
    ///
    /// Registering a name that already holds a *different* instrument
    /// kind is a programming error; the existing registration is kept
    /// (exposition stays consistent) and a detached instrument is
    /// returned, which the tier-coverage tests surface as a missing
    /// metric.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => Arc::new(Counter::new()),
        }
    }

    /// Gets or registers the gauge `name` (kind-collision semantics as
    /// [`MetricsRegistry::counter`]).
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => Arc::new(Gauge::new()),
        }
    }

    /// Gets or registers the histogram `name` (kind-collision semantics
    /// as [`MetricsRegistry::counter`]).
    #[must_use]
    pub fn histo(&self, name: &str) -> Arc<Histo> {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histo(Arc::new(Histo::new())))
        {
            Metric::Histo(h) => Arc::clone(h),
            _ => Arc::new(Histo::new()),
        }
    }

    /// Number of registered instruments.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether nothing is registered yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Freezes every instrument into an exposition snapshot (sorted by
    /// name). Individual values are read with the usual
    /// racy-while-active / exact-when-quiesced contract.
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        let entries = self
            .lock()
            .iter()
            .map(|(name, metric)| MetricEntry {
                name: name.clone(),
                value: match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histo(h) => MetricValue::Histo(Box::new(h.snapshot())),
                },
            })
            .collect();
        RegistrySnapshot::from_entries(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_geometry_is_total_and_ordered() {
        assert_eq!(Histo::bucket_index(0), 0);
        assert_eq!(Histo::bucket_index(1), 1);
        assert_eq!(Histo::bucket_index(2), 2);
        assert_eq!(Histo::bucket_index(3), 2);
        assert_eq!(Histo::bucket_index(u64::MAX), 64);
        for v in [0u64, 1, 2, 7, 1024, u64::MAX / 2, u64::MAX] {
            let i = Histo::bucket_index(v);
            let (lo, hi) = Histo::bucket_bounds(i);
            assert!(lo <= v && v <= hi, "value {v} outside bucket {i}");
        }
    }

    #[test]
    fn registry_shares_instruments_by_name() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("x.events");
        let b = registry.counter("x.events");
        a.add(3);
        b.incr();
        assert_eq!(a.get(), 4);
        assert_eq!(registry.len(), 1);
        // Kind collision keeps the first registration and returns a
        // detached instrument.
        let detached = registry.gauge("x.events");
        detached.set(99);
        assert_eq!(registry.snapshot().counter("x.events"), Some(4));
    }

    #[test]
    fn quantile_bound_walks_the_cumulative_counts() {
        let h = Histo::new();
        for v in [0u64, 1, 1, 3, 100, 100, 100, 5000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 8);
        assert_eq!(s.quantile_bound(0.0), 0);
        assert_eq!(s.quantile_bound(1.0), 8191); // bucket of 5000
        assert!(s.quantile_bound(0.5) >= 3);
        assert_eq!(HistoSnapshot::empty().quantile_bound(0.5), 0);
    }
}
