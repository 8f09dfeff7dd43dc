//! The metrics time-series ring: a background sampler freezes whole
//! [`RegistrySnapshot`]s on a fixed interval into a bounded ring, and
//! because snapshots support exact [`RegistrySnapshot::subtract`], any
//! two adjacent samples yield a **lossless** per-interval delta — "what
//! was the ingest rate over the last minute" is integer arithmetic over
//! frozen integer statistics, not an approximation.
//!
//! The ring and its sampler belong to the ops endpoint
//! (`NetConfig::ops_addr`), which serves [`MetricsRange`] — the newest
//! samples plus the sampling interval — as the JSON body of
//! `GET /metrics/range`. A server without an ops endpoint runs neither.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::obs::expose::RegistrySnapshot;
use crate::obs::instruments::OpsInstruments;
use crate::obs::registry::MetricsRegistry;
use crate::service::lock_infallible;

/// Cap on samples in one [`MetricsRange`] — bounds the `GET /metrics/range`
/// body (each sample embeds a full snapshot).
pub const MAX_RANGE_SAMPLES: usize = 1024;

/// One frozen sample: a whole registry snapshot stamped with its
/// monotone sequence number and wall-clock milliseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSample {
    /// Monotone per-ring sequence number (0, 1, 2, … across the ring's
    /// lifetime; samples beyond capacity evict the oldest).
    pub seq: u64,
    /// Wall-clock sample time, milliseconds since the Unix epoch.
    pub at_unix_ms: u64,
    /// The frozen registry.
    pub snapshot: RegistrySnapshot,
}

/// The newest N samples plus the ring's sampling interval — what
/// `GET /metrics/range` renders.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsRange {
    /// The sampler's fixed interval in milliseconds.
    pub interval_ms: u64,
    /// Samples oldest → newest.
    pub samples: Vec<TimeSample>,
}

impl MetricsRange {
    /// Exact per-interval deltas between adjacent samples: element `i`
    /// is `samples[i+1] − samples[i]` (counters and histograms subtract
    /// exactly; gauges are levels and pass through at the newer sample's
    /// value), stamped with the newer sample's seq and time. Pairs whose
    /// subtraction fails (samples from different registries) are
    /// skipped — between samples of one live registry the counters are
    /// monotone, so nothing is skipped in practice.
    #[must_use]
    pub fn deltas(&self) -> Vec<TimeSample> {
        self.samples
            .windows(2)
            .filter_map(|pair| {
                let mut delta = pair[1].snapshot.clone();
                delta.subtract(&pair[0].snapshot).ok()?;
                Some(TimeSample {
                    seq: pair[1].seq,
                    at_unix_ms: pair[1].at_unix_ms,
                    snapshot: delta,
                })
            })
            .collect()
    }

    /// The `GET /metrics/range` body (and the CI ring-dump artifact): a
    /// JSON object with the interval and one flat-JSON metrics object
    /// per sample.
    #[must_use]
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n\"interval_ms\": {},\n\"samples\": [",
            self.interval_ms
        );
        for (i, sample) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"seq\": {}, \"at_unix_ms\": {}, \"metrics\": {}}}",
                sample.seq,
                sample.at_unix_ms,
                sample.snapshot.render_json().trim_end()
            );
        }
        out.push_str("\n]\n}\n");
        out
    }
}

#[derive(Debug, Default)]
struct RingInner {
    next_seq: u64,
    samples: VecDeque<TimeSample>,
}

/// The bounded sample ring. Push is a mutex-guarded append-and-evict;
/// reads clone out the newest N samples — contention is one sampler
/// thread against occasional probes, not a hot path.
#[derive(Debug)]
pub struct TimeSeriesRing {
    capacity: usize,
    interval: Duration,
    inner: Mutex<RingInner>,
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

impl TimeSeriesRing {
    /// A ring holding the last `capacity` samples (clamped to ≥ 2, so a
    /// delta always has a pair) taken every `interval`.
    #[must_use]
    pub fn new(capacity: usize, interval: Duration) -> Self {
        Self {
            capacity: capacity.max(2),
            interval,
            inner: Mutex::new(RingInner::default()),
        }
    }

    /// Number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The sampling interval the ring was built for.
    #[must_use]
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Samples currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        lock_infallible(&self.inner).samples.len()
    }

    /// Whether the ring holds no samples yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Freezes `snapshot` into the ring stamped with the current wall
    /// clock, evicting the oldest sample at capacity. Returns the
    /// sample's sequence number.
    pub fn push(&self, snapshot: RegistrySnapshot) -> u64 {
        self.push_at(snapshot, unix_ms())
    }

    /// [`TimeSeriesRing::push`] with an explicit timestamp (tests pin
    /// time; the sampler passes the wall clock).
    pub fn push_at(&self, snapshot: RegistrySnapshot, at_unix_ms: u64) -> u64 {
        let mut inner = lock_infallible(&self.inner);
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.samples.len() == self.capacity {
            inner.samples.pop_front();
        }
        inner.samples.push_back(TimeSample {
            seq,
            at_unix_ms,
            snapshot,
        });
        seq
    }

    /// The newest `max` samples (oldest → newest) plus the interval.
    /// `max` is clamped to [`MAX_RANGE_SAMPLES`].
    #[must_use]
    pub fn range(&self, max: usize) -> MetricsRange {
        let max = max.min(MAX_RANGE_SAMPLES);
        let inner = lock_infallible(&self.inner);
        let skip = inner.samples.len().saturating_sub(max);
        MetricsRange {
            interval_ms: self.interval.as_millis() as u64,
            samples: inner.samples.iter().skip(skip).cloned().collect(),
        }
    }
}

/// The background sampler: one named thread freezing `registry` into
/// `ring` every [`TimeSeriesRing::interval`]. Stops (and joins) on drop
/// or [`Sampler::stop`]; the stop flag is polled every ≤ 50ms so
/// shutdown never waits a full interval.
#[derive(Debug)]
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Spawns the sampler thread. It samples once immediately (so the
    /// ring is never empty while the server runs), then on every
    /// interval tick.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] if the thread cannot be spawned.
    pub fn start(
        registry: Arc<MetricsRegistry>,
        ring: Arc<TimeSeriesRing>,
        obs: OpsInstruments,
    ) -> Result<Self, std::io::Error> {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("ldp-obs-sampler".into())
            .spawn(move || {
                let interval = ring.interval();
                loop {
                    ring.push(registry.snapshot());
                    obs.ts_samples.incr();
                    let mut slept = Duration::ZERO;
                    while slept < interval {
                        if thread_stop.load(Ordering::SeqCst) {
                            return;
                        }
                        let nap = (interval - slept).min(Duration::from_millis(50));
                        std::thread::sleep(nap);
                        slept += nap;
                    }
                }
            })?;
        Ok(Self {
            stop,
            handle: Some(handle),
        })
    }

    /// Stops and joins the sampler thread.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry_at(count: u64) -> RegistrySnapshot {
        let registry = MetricsRegistry::new();
        registry.counter("t.frames").add(count);
        registry.gauge("t.level").set(count * 10);
        registry.snapshot()
    }

    #[test]
    fn ring_bounds_and_orders_samples() {
        let ring = TimeSeriesRing::new(3, Duration::from_secs(1));
        assert!(ring.is_empty());
        for i in 0..5u64 {
            assert_eq!(ring.push_at(registry_at(i), 1000 + i), i);
        }
        assert_eq!(ring.len(), 3);
        let range = ring.range(10);
        assert_eq!(range.interval_ms, 1000);
        let seqs: Vec<u64> = range.samples.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest evicted, order kept");
        // max clamps the window to the newest samples.
        let two = ring.range(2);
        assert_eq!(two.samples[0].seq, 3);
    }

    #[test]
    fn deltas_are_exact_and_gauges_stay_levels() {
        let ring = TimeSeriesRing::new(8, Duration::from_secs(1));
        for i in 0..4u64 {
            // Counter totals 0, 10, 30, 60 → deltas 10, 20, 30.
            ring.push_at(registry_at(i * (i + 1) * 5), i);
        }
        let deltas = ring.range(10).deltas();
        assert_eq!(deltas.len(), 3);
        for (i, delta) in deltas.iter().enumerate() {
            let newer = i as u64 + 1; // index of the newer sample in the pair
            assert_eq!(delta.snapshot.counter("t.frames"), Some(newer * 10));
            // The gauge is the newer sample's level, untouched by subtract.
            assert_eq!(
                delta.snapshot.gauge("t.level"),
                Some(newer * (newer + 1) * 5 * 10)
            );
        }
    }

    #[test]
    fn sampler_fills_the_ring_and_stops_promptly() {
        let registry = Arc::new(MetricsRegistry::new());
        let obs = OpsInstruments::register(&registry);
        let ring = Arc::new(TimeSeriesRing::new(16, Duration::from_millis(10)));
        let mut sampler =
            Sampler::start(Arc::clone(&registry), Arc::clone(&ring), obs.clone()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while ring.len() < 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(ring.len() >= 3, "sampler never filled the ring");
        sampler.stop();
        let frozen = ring.len();
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(ring.len(), frozen, "sampler kept running after stop");
        assert!(obs.ts_samples.get() >= 3);
        // The sampler's own samples carry the ops counter: exact algebra
        // applies to the ops plane's metrics about itself too.
        let range = ring.range(MAX_RANGE_SAMPLES);
        assert!(range.samples.len() >= 3);
        assert!(!range.render_json().is_empty());
    }

    #[test]
    fn json_dump_names_every_sample() {
        let ring = TimeSeriesRing::new(4, Duration::from_secs(2));
        ring.push_at(registry_at(5), 77);
        let json = ring.range(4).render_json();
        assert!(json.contains("\"interval_ms\": 2000"));
        assert!(json.contains("\"at_unix_ms\": 77"));
        assert!(json.contains("\"t.frames\": 5"));
    }
}
