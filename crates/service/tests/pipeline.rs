//! End-to-end service pipeline tests: encode → concurrent wire-batch
//! ingest → merge → snapshot → query, checked against the
//! single-threaded reference path.

use ldp_freq_oracle::Epsilon;
use ldp_ranges::{
    FlatClient, FlatConfig, FlatServer, HaarConfig, HaarHrrClient, HaarHrrServer, HhClient,
    HhConfig, HhServer, MergeableServer, RangeEstimate,
};
use ldp_service::wire::{WireReport, VERSION};
use ldp_service::{
    decode_all, generate_stream, EncodedStream, LdpService, ServiceError, SnapshotSource,
};
use ldp_workloads::{CauchyParams, DistributionKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cauchy_dataset(domain: usize, users: u64, seed: u64) -> ldp_workloads::Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    ldp_workloads::Dataset::sample(
        DistributionKind::Cauchy(CauchyParams::paper_default()),
        domain,
        users,
        &mut rng,
    )
}

/// Feeds `stream` to `service` from 4 scoped threads, each streaming its
/// contiguous quarter through `submit_wire_batch` in 256-frame batches —
/// so which shard a report lands in depends on thread scheduling, and the
/// merged state must not.
fn ingest_from_four_threads<S>(service: &LdpService<S>, stream: &EncodedStream)
where
    S: SnapshotSource + Send,
    S::Report: WireReport,
{
    let per_thread = stream.len().div_ceil(4);
    std::thread::scope(|scope| {
        for t in 0..4 {
            scope.spawn(move || {
                let end = ((t + 1) * per_thread).min(stream.len());
                let mut lo = t * per_thread;
                while lo < end {
                    let hi = (lo + 256).min(end);
                    let accepted = service
                        .submit_wire_batch(VERSION, (hi - lo) as u64, stream.frame_span(lo, hi))
                        .unwrap();
                    assert_eq!(accepted, (hi - lo) as u64);
                    lo = hi;
                }
            });
        }
    });
}

/// The acceptance-criterion test: with a fixed seed, a 4-shard merged
/// estimate answers range queries *identically* (bit-for-bit) to the
/// single-threaded path over the same encoded stream.
#[test]
fn four_shard_merge_equals_single_thread_exactly() {
    let domain = 256;
    let dataset = cauchy_dataset(domain, 30_000, 901);
    let config = HhConfig::new(domain, 4, Epsilon::from_exp(3.0)).unwrap();
    let client = HhClient::new(config.clone()).unwrap();
    let prototype = HhServer::new(config).unwrap();

    let stream = generate_stream(&dataset, 30_000, 902, |v, rng| {
        client.report(v, rng).unwrap()
    });

    // Reference: decode the same stream and absorb sequentially.
    let mut reference = prototype.clone();
    for report in decode_all::<ldp_ranges::HhReport>(stream.as_bytes()).unwrap() {
        MergeableServer::absorb(&mut reference, &report).unwrap();
    }

    // Service path: 4 threads streaming wire batches into 4 shards (a
    // service needs at least one).
    assert!(matches!(
        LdpService::new(&prototype, 0),
        Err(ServiceError::NoShards)
    ));
    let service = LdpService::new(&prototype, 4).unwrap();
    ingest_from_four_threads(&service, &stream);
    let merged = service.merged_state().unwrap();

    assert_eq!(reference.num_reports(), 30_000);
    assert_eq!(merged.num_reports(), 30_000);

    let ref_est = reference.estimate_consistent().to_frequency_estimate();
    let merged_est = merged.estimate_consistent().to_frequency_estimate();
    let queries = [
        (0usize, 255usize),
        (10, 99),
        (0, 0),
        (128, 191),
        (200, 201),
        (5, 250),
        (64, 64),
    ];
    for (a, b) in queries {
        assert_eq!(
            ref_est.range(a, b).to_bits(),
            merged_est.range(a, b).to_bits(),
            "range [{a},{b}] differs between sequential and 4-shard paths"
        );
    }
    for z in 0..domain {
        assert_eq!(
            ref_est.point(z).to_bits(),
            merged_est.point(z).to_bits(),
            "leaf {z}"
        );
    }
}

/// The full pipeline stays accurate: replayed per-user traffic through the
/// sharded service approximates ground truth within mechanism tolerances.
#[test]
fn sharded_pipeline_is_accurate_against_ground_truth() {
    let domain = 128;
    let users = 60_000u64;
    let dataset = cauchy_dataset(domain, users, 903);
    let config = HaarConfig::new(domain, Epsilon::from_exp(3.0)).unwrap();
    let client = HaarHrrClient::new(config.clone()).unwrap();
    let prototype = HaarHrrServer::new(config).unwrap();

    let stream = generate_stream(&dataset, users, 904, |v, rng| {
        client.report(v, rng).unwrap()
    });
    let service = LdpService::new(&prototype, 4).unwrap();
    ingest_from_four_threads(&service, &stream);
    let snap = service.refresh_snapshot().unwrap();

    assert_eq!(snap.num_reports(), users);
    for (a, b) in [(0, domain - 1), (32, 95), (0, 63), (100, 120)] {
        let got = snap.range(a, b);
        let truth = dataset.true_range(a, b);
        assert!(
            (got - truth).abs() < 0.06,
            "range [{a},{b}]: {got} vs truth {truth}"
        );
    }
    // Quantiles land near the true quantiles.
    for phi in [0.25, 0.5, 0.75] {
        let est_q = snap.quantile(phi) as f64;
        let true_q = dataset.true_quantile(phi) as f64;
        assert!(
            (est_q - true_q).abs() <= domain as f64 * 0.06,
            "phi {phi}: {est_q} vs {true_q}"
        );
    }
}

/// The flat mechanism rides the same service generically.
#[test]
fn flat_mechanism_through_the_service_front() {
    let domain = 64;
    let dataset = cauchy_dataset(domain, 20_000, 905);
    let config = FlatConfig::new(domain, Epsilon::from_exp(3.0)).unwrap();
    let client = FlatClient::new(&config).unwrap();
    let prototype = FlatServer::new(&config).unwrap();

    let service = LdpService::new(&prototype, 3).unwrap();
    let stream = generate_stream(&dataset, 20_000, 906, |v, rng| {
        client.report(v, rng).unwrap()
    });
    for i in 0..stream.len() {
        service.submit_frame(stream.frame(i)).unwrap();
    }
    let snap = service.refresh_snapshot().unwrap();
    assert_eq!(snap.num_reports(), 20_000);
    assert_eq!(snap.version(), 1);
    let truth = dataset.true_range(10, 40);
    assert!((snap.range(10, 40) - truth).abs() < 0.08);
}
