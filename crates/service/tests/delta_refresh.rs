//! Property tests for the drain refresh: after an *arbitrary*
//! interleaving of submits, refreshes, drains by `merged_state`, and
//! (windowed) epoch seals, the published snapshot must be bit-identical
//! to a one-shard reference that absorbed the same reports in order (an
//! `EpochRing` sealed at the same ops, for the windowed drivers) — for
//! the three served mechanisms (flat, `HH_B`, HaarHRR), plain and
//! windowed. Integer sufficient statistics make merging each shard's
//! delta into the accumulator and clearing the shard exact, which is the
//! whole correctness argument for the drain; the reference shares no code
//! with it. The drivers also pin the version contract: a refresh
//! publishes the next version iff something was submitted or sealed since
//! the last one, and otherwise returns the same `Arc`.
//!
//! The batched drivers submit wire batches instead of single reports, so
//! unary levels hold pending reports across batches — staged rows, whole
//! fold groups, runs past the 255-report auto-settle — whenever a
//! refresh, a `merged_state` drain or a seal lands.

use std::sync::Arc;

use proptest::prelude::*;

use ldp_freq_oracle::{Epsilon, FrequencyOracle};
use ldp_ranges::{
    FlatClient, FlatConfig, FlatServer, HaarConfig, HaarHrrClient, HaarHrrServer, HhClient,
    HhConfig, HhServer, MergeableServer, SubtractableServer,
};
use ldp_service::net::WIRE_V1;
use ldp_service::obs::instruments::names;
use ldp_service::{
    EncodedStream, EpochRing, LdpService, MetricsRegistry, RangeSnapshot, SnapshotSource,
    WireReport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ORACLES: [FrequencyOracle; 3] = [
    FrequencyOracle::Oue,
    FrequencyOracle::Olh,
    FrequencyOracle::Hrr,
];

/// One step of a generated interleaving. Values 0..8 submit the next
/// report (biasing runs toward submit-heavy histories, where dirty and
/// clean shards coexist); 8 refreshes; 9 seals the open epoch on
/// windowed drivers and drains through `merged_state` on plain ones.
const OP_REFRESH: u32 = 8;
const OP_SEAL: u32 = 9;

/// Batch lengths of the batched drivers' submit ops: single reports,
/// partial fold groups, a group exactly and one past it, and runs that
/// take a level past the auto-settle within a few batches.
const BATCH_LENS: [usize; 8] = [1, 2, 15, 16, 17, 40, 100, 300];

fn ops_strategy() -> impl Strategy<Value = Vec<u32>> {
    collection::vec(0u32..10, 1..60)
}

/// Asserts two snapshots hold the same report count and bit-identical
/// per-item estimates.
fn assert_same_estimate(snap: &RangeSnapshot, expected: &RangeSnapshot, what: &str) {
    assert_eq!(snap.num_reports(), expected.num_reports(), "{what}");
    assert_eq!(snap.domain(), expected.domain(), "{what}");
    for (z, (a, b)) in snap
        .estimate()
        .frequencies()
        .iter()
        .zip(expected.estimate().frequencies())
        .enumerate()
    {
        assert!(
            a.to_bits() == b.to_bits(),
            "{what}: diverged from the one-shard reference at item {z}: {a} vs {b}"
        );
    }
}

/// A service under a generated interleaving, the one-shard reference fed
/// the same reports, and the version contract's bookkeeping.
struct Driver<'a, S: SnapshotSource> {
    service: LdpService<S>,
    reference: S,
    reports: &'a [S::Report],
    next: usize,
    /// Whether submit op `op` sends the next `BATCH_LENS[op]` reports as
    /// one wire batch, rather than the next report alone.
    batched: bool,
    last: Arc<RangeSnapshot>,
    /// Whether anything was submitted or sealed since `last`.
    changed: bool,
}

impl<'a, S: SnapshotSource> Driver<'a, S> {
    fn new(service: LdpService<S>, reference: S, reports: &'a [S::Report]) -> Self {
        let last = service.snapshot();
        Self {
            service,
            reference,
            reports,
            next: 0,
            batched: false,
            last,
            changed: false,
        }
    }

    /// Submit op `op`: the next report alone, or on a batched driver the
    /// next `BATCH_LENS[op]` reports as one wire batch.
    fn submit(&mut self, op: u32)
    where
        S::Report: WireReport,
    {
        if !self.batched {
            let report = &self.reports[self.next % self.reports.len()];
            self.service.submit(report).expect("submit");
            self.reference.absorb(report).expect("reference absorb");
            self.next += 1;
            self.changed = true;
            return;
        }
        let len = BATCH_LENS[op as usize];
        let mut batch = EncodedStream::new();
        for _ in 0..len {
            let report = &self.reports[self.next % self.reports.len()];
            batch.push(report);
            self.reference.absorb(report).expect("reference absorb");
            self.next += 1;
        }
        let accepted = self
            .service
            .submit_wire_batch(WIRE_V1, len as u64, batch.as_bytes())
            .expect("batch");
        assert_eq!(accepted, len as u64);
        self.changed = true;
    }

    /// Refreshes and asserts the published snapshot is bit-identical to
    /// a freeze of the reference, under the next version iff anything
    /// changed since the last refresh and as the same `Arc` otherwise.
    fn refresh(&mut self) {
        let snap = self.service.refresh_snapshot().expect("refresh");
        if self.changed {
            assert_eq!(snap.version(), self.last.version() + 1, "changed refresh");
        } else {
            assert!(Arc::ptr_eq(&snap, &self.last), "clean refresh republished");
        }
        let expected = RangeSnapshot::freeze(&self.reference, snap.version());
        assert_same_estimate(&snap, &expected, "refresh");
        assert_eq!(self.service.num_reports(), self.reference.num_reports());
        self.last = snap;
        self.changed = false;
    }

    /// Two final refreshes: the second finds nothing to drain, so the
    /// clean path is exercised on every run.
    fn finish(mut self) -> Self {
        self.refresh();
        self.refresh();
        self
    }
}

/// Drives a *plain* service through the interleaving. A seal op drains
/// through [`LdpService::merged_state`] instead: it publishes nothing,
/// but the next refresh must.
fn run_plain<S: SnapshotSource>(
    prototype: &S,
    reports: &[S::Report],
    ops: &[u32],
    shards: usize,
    batched: bool,
) where
    S::Report: WireReport,
{
    let service = LdpService::new(prototype, shards).expect("service");
    let mut driver = Driver::new(service, prototype.clone(), reports);
    driver.batched = batched;
    for &op in ops {
        match op {
            OP_SEAL => {
                let merged = driver.service.merged_state().expect("merged state");
                assert_eq!(merged.num_reports(), driver.reference.num_reports());
            }
            OP_REFRESH => driver.refresh(),
            op => driver.submit(op),
        }
    }
    driver.finish();
}

/// Every trailing window the service answers must match the reference
/// ring's, bounds and estimate.
fn assert_windows_exact<S: SnapshotSource + SubtractableServer>(
    service: &LdpService<EpochRing<S>>,
    reference: &EpochRing<S>,
) {
    for k in 1..=3 {
        match reference.window_snapshot(k) {
            Ok(expected) => {
                let window = service.window_snapshot(k).expect("window");
                assert_eq!(
                    (window.first_epoch(), window.last_epoch()),
                    (expected.first_epoch(), expected.last_epoch())
                );
                assert_same_estimate(window.snapshot(), expected.snapshot(), "window");
            }
            Err(_) => assert!(service.window_snapshot(k).is_err()),
        }
    }
}

/// Drives a *windowed* service against a reference ring sealed at the
/// same ops. Every trailing window must match the reference's right
/// after each seal — before any refresh drains the shards — and at the
/// end.
fn run_windowed<S: SnapshotSource + SubtractableServer>(
    prototype: &S,
    reports: &[S::Report],
    ops: &[u32],
    shards: usize,
    batched: bool,
) where
    EpochRing<S>: SnapshotSource + MergeableServer<Report = S::Report>,
    S::Report: WireReport,
{
    let service = LdpService::<EpochRing<S>>::windowed(prototype, shards, 3).expect("service");
    let reference = EpochRing::new(prototype, 3).expect("reference ring");
    let mut driver = Driver::new(service, reference, reports);
    driver.batched = batched;
    for &op in ops {
        match op {
            OP_SEAL => {
                let sealed = driver.service.seal_epoch().expect("seal");
                assert_eq!(
                    sealed,
                    driver.reference.seal_epoch().expect("reference seal")
                );
                driver.changed = true;
                assert_windows_exact(&driver.service, &driver.reference);
            }
            OP_REFRESH => driver.refresh(),
            op => driver.submit(op),
        }
    }
    let driver = driver.finish();
    assert_windows_exact(&driver.service, &driver.reference);
}

proptest! {

    #[test]
    fn flat_delta_refresh_is_exact(
        seed in 0u64..5_000,
        ops in ops_strategy(),
        shards in 1usize..5,
        oracle_idx in 0..ORACLES.len(),
    ) {
        let config = FlatConfig::with_oracle(32, Epsilon::new(1.1), ORACLES[oracle_idx]).unwrap();
        let client = FlatClient::new(&config).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let reports: Vec<_> =
            (0..48).map(|i| client.report(i % 32, &mut rng).unwrap()).collect();
        let prototype = FlatServer::new(&config).unwrap();
        run_plain(&prototype, &reports, &ops, shards, false);
        run_windowed(&prototype, &reports, &ops, shards, false);
    }

    #[test]
    fn hh_delta_refresh_is_exact(
        seed in 0u64..5_000,
        ops in ops_strategy(),
        shards in 1usize..5,
        oracle_idx in 0..ORACLES.len(),
    ) {
        let config = HhConfig::with_oracle(64, 4, Epsilon::new(0.9), ORACLES[oracle_idx]).unwrap();
        let client = HhClient::new(config.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let reports: Vec<_> =
            (0..48).map(|i| client.report((i * 7) % 64, &mut rng).unwrap()).collect();
        let prototype = HhServer::new(config).unwrap();
        run_plain(&prototype, &reports, &ops, shards, false);
        run_windowed(&prototype, &reports, &ops, shards, false);
    }

    #[test]
    fn haar_hrr_delta_refresh_is_exact(
        seed in 0u64..5_000,
        ops in ops_strategy(),
        shards in 1usize..5,
    ) {
        let config = HaarConfig::new(128, Epsilon::new(1.1)).unwrap();
        let client = HaarHrrClient::new(config.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let reports: Vec<_> =
            (0..48).map(|i| client.report((i * 11) % 128, &mut rng).unwrap()).collect();
        let prototype = HaarHrrServer::new(config).unwrap();
        run_plain(&prototype, &reports, &ops, shards, false);
        run_windowed(&prototype, &reports, &ops, shards, false);
    }
}

proptest! {
    /// Flat and `HH_4` over OUE, and HaarHRR, fed wire batches: refreshes,
    /// `merged_state` drains and seals land between batches with reports
    /// pending, plain and windowed.
    #[test]
    fn batched_delta_refresh_is_exact(
        seed in 0u64..5_000,
        ops in ops_strategy(),
        shards in 1usize..4,
        which in 0usize..3,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        match which {
            0 => {
                let config = FlatConfig::new(32, Epsilon::new(1.1)).unwrap();
                let client = FlatClient::new(&config).unwrap();
                let reports: Vec<_> =
                    (0..97).map(|i| client.report(i % 32, &mut rng).unwrap()).collect();
                let prototype = FlatServer::new(&config).unwrap();
                run_plain(&prototype, &reports, &ops, shards, true);
                run_windowed(&prototype, &reports, &ops, shards, true);
            }
            1 => {
                let config = HhConfig::new(256, 4, Epsilon::new(0.9)).unwrap();
                let client = HhClient::new(config.clone()).unwrap();
                let reports: Vec<_> =
                    (0..97).map(|i| client.report((i * 7) % 256, &mut rng).unwrap()).collect();
                let prototype = HhServer::new(config).unwrap();
                run_plain(&prototype, &reports, &ops, shards, true);
                run_windowed(&prototype, &reports, &ops, shards, true);
            }
            _ => {
                let config = HaarConfig::new(128, Epsilon::new(1.1)).unwrap();
                let client = HaarHrrClient::new(config.clone()).unwrap();
                let reports: Vec<_> =
                    (0..97).map(|i| client.report((i * 11) % 128, &mut rng).unwrap()).collect();
                let prototype = HaarHrrServer::new(config).unwrap();
                run_plain(&prototype, &reports, &ops, shards, true);
                run_windowed(&prototype, &reports, &ops, shards, true);
            }
        }
    }
}

/// A seal marks the published snapshot stale whether or not anything
/// was absorbed: the next refresh publishes version + 1 (with nothing to
/// drain — the seal drained every shard), and the refresh after that
/// returns the same `Arc`.
#[test]
fn seal_publishes_once_then_reuses() {
    let config = HhConfig::new(64, 2, Epsilon::from_exp(3.0)).unwrap();
    let client = HhClient::new(config.clone()).unwrap();
    let prototype = HhServer::new(config).unwrap();
    let service = LdpService::<EpochRing<HhServer>>::windowed(&prototype, 2, 3).unwrap();
    let registry = MetricsRegistry::new();
    assert!(service.attach_metrics(&registry));
    let drained = registry.counter(names::SERVICE_REFRESH_SHARDS_DRAINED);

    let mut rng = StdRng::seed_from_u64(7);
    for i in 0..12 {
        let r = client.report(i % 64, &mut rng).unwrap();
        service.submit(&r).unwrap();
    }
    let first = service.refresh_snapshot().unwrap();
    assert_eq!((first.version(), first.num_reports()), (1, 12));
    assert_eq!(drained.get(), 2, "both shards held reports");
    assert!(Arc::ptr_eq(&service.refresh_snapshot().unwrap(), &first));

    for round in 1..=2u64 {
        // Round 1 seals an epoch holding reports, round 2 an empty one.
        service.seal_epoch().unwrap();
        let sealed = service.refresh_snapshot().unwrap();
        assert_eq!(sealed.version(), first.version() + round, "round {round}");
        assert_eq!(sealed.num_reports(), 12, "round {round}");
        assert_eq!(drained.get(), 2, "round {round}: the seal drained");
        let clean = service.refresh_snapshot().unwrap();
        assert!(Arc::ptr_eq(&clean, &sealed), "round {round}: republished");
    }
    assert_eq!(service.num_reports(), 12);
}
