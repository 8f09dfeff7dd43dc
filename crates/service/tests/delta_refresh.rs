//! Property tests for the delta snapshot refresh: after an *arbitrary*
//! interleaving of submits, refreshes, and (windowed) epoch seals, the
//! published snapshot must be bit-identical to a from-scratch
//! clone-and-merge of every shard — for all six mechanisms, plain and
//! windowed. Integer sufficient statistics make shard subtract the exact
//! inverse of shard merge, which is the whole correctness argument for
//! retaining the previous refresh's accumulator and only re-merging
//! dirty shards; these tests pin that argument against every absorb
//! path the service exposes.

use proptest::prelude::*;

use ldp_freq_oracle::{Epsilon, FrequencyOracle};
use ldp_ranges::{
    FlatClient, FlatConfig, FlatServer, HaarConfig, HaarHrrClient, HaarHrrServer, HaarOueClient,
    HaarOueServer, Hh2dClient, Hh2dConfig, Hh2dServer, HhClient, HhConfig, HhServer, HhSplitClient,
    HhSplitServer,
};
use ldp_service::obs::instruments::names;
use ldp_service::{EpochRing, LdpService, MetricsRegistry, RangeSnapshot, SnapshotSource};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ORACLES: [FrequencyOracle; 4] = [
    FrequencyOracle::Oue,
    FrequencyOracle::Olh,
    FrequencyOracle::Hrr,
    FrequencyOracle::Sue,
];

/// One step of a generated interleaving. Values 0..8 submit the next
/// report (biasing runs toward submit-heavy histories, where dirty and
/// clean shards coexist); 8 refreshes; 9 seals the open epoch (windowed
/// drivers only — plain drivers treat it as a refresh).
const OP_REFRESH: u32 = 8;
const OP_SEAL: u32 = 9;

fn ops_strategy() -> impl Strategy<Value = Vec<u32>> {
    collection::vec(0u32..10, 1..60)
}

/// Refreshes the service and asserts the published snapshot is
/// bit-identical to an independent from-scratch clone-and-merge of the
/// current shard state ([`LdpService::merged_state`] shares no state
/// with the retained delta accumulator).
fn assert_refresh_exact<S: SnapshotSource>(service: &LdpService<S>) {
    let oracle = service.merged_state().expect("merged state");
    let snap = service.refresh_snapshot().expect("refresh");
    let expected = RangeSnapshot::freeze(&oracle, snap.version());
    assert_eq!(snap.num_reports(), expected.num_reports());
    assert_eq!(snap.domain(), expected.domain());
    for (z, (a, b)) in snap
        .estimate()
        .frequencies()
        .iter()
        .zip(expected.estimate().frequencies())
        .enumerate()
    {
        assert!(
            a.to_bits() == b.to_bits(),
            "delta refresh diverged from clone-and-merge at item {z}: {a} vs {b}"
        );
    }
}

/// Drives a *plain* service through the interleaving. A seal op on a
/// plain service degrades to a refresh, so the same generated histories
/// exercise both drivers.
fn run_plain<S: SnapshotSource>(prototype: &S, reports: &[S::Report], ops: &[u32], shards: usize) {
    let service = LdpService::new(prototype, shards).expect("service");
    let mut next = 0usize;
    for &op in ops {
        if op >= OP_REFRESH {
            assert_refresh_exact(&service);
        } else {
            service
                .submit(&reports[next % reports.len()])
                .expect("submit");
            next += 1;
        }
    }
    // Two final refreshes: the second observes zero dirty shards, so the
    // all-shards-reused delta path is exercised on every run.
    assert_refresh_exact(&service);
    assert_refresh_exact(&service);
}

/// Drives a *windowed* service: seals restructure every shard ring and
/// must invalidate the retained accumulator, never corrupt it.
fn run_windowed<S: SnapshotSource + ldp_ranges::SubtractableServer>(
    prototype: &S,
    reports: &[S::Report],
    ops: &[u32],
    shards: usize,
) where
    EpochRing<S>: SnapshotSource + ldp_ranges::MergeableServer<Report = S::Report>,
{
    let service = LdpService::<EpochRing<S>>::windowed(prototype, shards, 3).expect("service");
    let mut next = 0usize;
    for &op in ops {
        match op {
            OP_SEAL => {
                service.seal_epoch().expect("seal");
            }
            OP_REFRESH => assert_refresh_exact(&service),
            _ => {
                service
                    .submit(&reports[next % reports.len()])
                    .expect("submit");
                next += 1;
            }
        }
    }
    assert_refresh_exact(&service);
    assert_refresh_exact(&service);
}

proptest! {

    #[test]
    fn flat_delta_refresh_is_exact(
        seed in 0u64..5_000,
        ops in ops_strategy(),
        shards in 1usize..5,
        oracle_idx in 0usize..4,
    ) {
        let config = FlatConfig::with_oracle(32, Epsilon::new(1.1), ORACLES[oracle_idx]).unwrap();
        let client = FlatClient::new(&config).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let reports: Vec<_> =
            (0..48).map(|i| client.report(i % 32, &mut rng).unwrap()).collect();
        let prototype = FlatServer::new(&config).unwrap();
        run_plain(&prototype, &reports, &ops, shards);
        run_windowed(&prototype, &reports, &ops, shards);
    }

    #[test]
    fn hh_delta_refresh_is_exact(
        seed in 0u64..5_000,
        ops in ops_strategy(),
        shards in 1usize..5,
        oracle_idx in 0usize..4,
    ) {
        let config = HhConfig::with_oracle(64, 4, Epsilon::new(0.9), ORACLES[oracle_idx]).unwrap();
        let client = HhClient::new(config.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let reports: Vec<_> =
            (0..48).map(|i| client.report((i * 7) % 64, &mut rng).unwrap()).collect();
        let prototype = HhServer::new(config).unwrap();
        run_plain(&prototype, &reports, &ops, shards);
        run_windowed(&prototype, &reports, &ops, shards);
    }

    #[test]
    fn hh_split_delta_refresh_is_exact(
        seed in 0u64..5_000,
        ops in ops_strategy(),
        shards in 1usize..5,
    ) {
        let config = HhConfig::new(64, 2, Epsilon::new(1.4)).unwrap();
        let client = HhSplitClient::new(config.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let reports: Vec<_> =
            (0..48).map(|i| client.report((i * 5) % 64, &mut rng).unwrap()).collect();
        let prototype = HhSplitServer::new(config).unwrap();
        run_plain(&prototype, &reports, &ops, shards);
        run_windowed(&prototype, &reports, &ops, shards);
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
        run_plain(&prototype, &reports, &ops, shards);
        run_windowed(&prototype, &reports, &ops, shards);
    }

    #[test]
    fn haar_oue_delta_refresh_is_exact(
        seed in 0u64..5_000,
        ops in ops_strategy(),
        shards in 1usize..5,
    ) {
        let config = HaarConfig::new(64, Epsilon::new(0.8)).unwrap();
        let client = HaarOueClient::new(config.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let reports: Vec<_> =
            (0..48).map(|i| client.report((i * 3) % 64, &mut rng).unwrap()).collect();
        let prototype = HaarOueServer::new(config).unwrap();
        run_plain(&prototype, &reports, &ops, shards);
        run_windowed(&prototype, &reports, &ops, shards);
    }

    #[test]
    fn hh2d_delta_refresh_is_exact(
        seed in 0u64..5_000,
        ops in ops_strategy(),
        shards in 1usize..5,
    ) {
        let config = Hh2dConfig::new(16, 2, Epsilon::new(1.1)).unwrap();
        let client = Hh2dClient::new(config.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let reports: Vec<_> = (0..48)
            .map(|i| client.report(i % 16, (i * 3) % 16, &mut rng).unwrap())
            .collect();
        let prototype = Hh2dServer::new(config).unwrap();
        run_plain(&prototype, &reports, &ops, shards);
        run_windowed(&prototype, &reports, &ops, shards);
    }
}

/// An epoch seal invalidates the retained accumulator: the refresh after
/// a seal is a full rebuild (counter-visible), and subsequent refreshes
/// delta again — all bit-exact, which the windowed proptests above pin.
#[test]
fn seal_invalidates_retained_state() {
    let config = HhConfig::new(64, 2, Epsilon::from_exp(3.0)).unwrap();
    let client = HhClient::new(config.clone()).unwrap();
    let prototype = HhServer::new(config).unwrap();
    let service = LdpService::<EpochRing<HhServer>>::windowed(&prototype, 2, 3).unwrap();
    let registry = MetricsRegistry::new();
    assert!(service.attach_metrics(&registry));
    let delta = registry.counter(names::SERVICE_REFRESHES_DELTA);
    let full = registry.counter(names::SERVICE_REFRESHES_FULL);

    let mut rng = StdRng::seed_from_u64(7);
    for i in 0..12 {
        let r = client.report(i % 64, &mut rng).unwrap();
        service.submit(&r).unwrap();
    }
    assert_refresh_exact(&service);
    assert_refresh_exact(&service);
    assert_eq!((full.get(), delta.get()), (1, 1));

    service.seal_epoch().unwrap();
    assert_refresh_exact(&service);
    assert_eq!(
        (full.get(), delta.get()),
        (2, 1),
        "refresh after seal must rebuild"
    );
    assert_refresh_exact(&service);
    assert_eq!((full.get(), delta.get()), (2, 2));
}
