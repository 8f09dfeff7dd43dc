//! Windowed streaming aggregation tests: for every served mechanism (flat,
//! `HH_B`, HaarHRR), a sliding window answered via ring rotation (absorb +
//! subtract) is bit-identical to recomputing the merge of the covered
//! epochs from scratch, and the epoch-extended wire path stays total under
//! hostile input.

use proptest::prelude::*;

use ldp_freq_oracle::{AnyReport, Epsilon, FrequencyOracle};
use ldp_ranges::{
    FlatClient, FlatConfig, FlatServer, HaarConfig, HaarHrrClient, HaarHrrServer, HhClient,
    HhConfig, HhServer, SubtractableServer,
};
use ldp_service::wire::{encode_epoch_frame, MAGIC, VERSION_EPOCH};
use ldp_service::{
    decode_epoch_frame, generate_drifting_epochs, EpochRing, LdpService, ServiceError, WireError,
};
use ldp_workloads::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ORACLES: [FrequencyOracle; 4] = [
    FrequencyOracle::Oue,
    FrequencyOracle::Olh,
    FrequencyOracle::Hrr,
    FrequencyOracle::Sue,
];

/// `merge(a, b).subtract(b) ≡ a` bit-for-bit, on real report streams.
fn check_subtract_roundtrip<S, F, E>(make: F, reports: &[S::Report], split: usize, estimate: E)
where
    S: SubtractableServer,
    F: Fn() -> S,
    E: Fn(&S) -> Vec<f64>,
{
    let split = split.min(reports.len());
    let mut a = make();
    for r in &reports[..split] {
        a.absorb(r).unwrap();
    }
    let mut b = make();
    for r in &reports[split..] {
        b.absorb(r).unwrap();
    }
    let reference = estimate(&a);
    let mut merged = a.clone();
    merged.merge(&b).unwrap();
    merged.subtract(&b).unwrap();
    assert_eq!(a.num_reports(), merged.num_reports());
    for (x, y) in reference.iter().zip(&estimate(&merged)) {
        assert!(
            x.to_bits() == y.to_bits(),
            "merge-then-subtract drifted: {x} vs {y}"
        );
    }
}

/// Feeds `epochs` report batches through an [`EpochRing`] with the given
/// window length (forcing rotation whenever `epochs.len() > window`) and
/// asserts every trailing window answers bit-identically to a fresh
/// server that absorbed only the covered epochs.
fn check_ring_equals_scratch<S, F, E>(
    make: F,
    epochs: &[Vec<S::Report>],
    window: usize,
    estimate: E,
) where
    S: SubtractableServer,
    F: Fn() -> S,
    E: Fn(&S) -> Vec<f64>,
{
    let prototype = make();
    let mut ring = EpochRing::new(&prototype, window).unwrap();
    for batch in epochs {
        for r in batch {
            ring.absorb(r).unwrap();
        }
        ring.seal_epoch().unwrap();
    }
    let retained = window.min(epochs.len());
    assert_eq!(ring.epochs_retained(), retained);
    for k in 1..=retained {
        let ringed = ring.window_server(k).unwrap();
        let mut scratch = make();
        for batch in &epochs[epochs.len() - k..] {
            for r in batch {
                scratch.absorb(r).unwrap();
            }
        }
        assert_eq!(ringed.num_reports(), scratch.num_reports(), "k={k}");
        let a = estimate(&ringed);
        let b = estimate(&scratch);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!(
                x.to_bits() == y.to_bits(),
                "k={k}: ring-rotated window differs from scratch merge: {x} vs {y}"
            );
        }
    }
}

fn batches<R, F>(epochs: usize, per_epoch: usize, seed: u64, mut report: F) -> Vec<Vec<R>>
where
    F: FnMut(usize, &mut StdRng) -> R,
{
    let mut rng = StdRng::seed_from_u64(seed);
    (0..epochs)
        .map(|e| {
            (0..per_epoch)
                .map(|i| report(e * per_epoch + i, &mut rng))
                .collect()
        })
        .collect()
}

/// The acceptance-criterion test: six epochs through a 4-epoch sliding
/// window — so the ring has rotated (absorb + subtract) twice — compared
/// bit-for-bit against a from-scratch merge, for every served mechanism,
/// at fixed seeds.
#[test]
fn four_epoch_window_is_bit_identical_to_scratch_for_every_served_mechanism() {
    const EPOCHS: usize = 6;
    const WINDOW: usize = 4;
    const PER_EPOCH: usize = 150;
    let eps = Epsilon::new(1.1);

    let flat_config = FlatConfig::new(32, eps).unwrap();
    let flat_client = FlatClient::new(&flat_config).unwrap();
    check_ring_equals_scratch(
        || FlatServer::new(&flat_config).unwrap(),
        &batches(EPOCHS, PER_EPOCH, 1001, |i, rng| {
            flat_client.report(i % 32, rng).unwrap()
        }),
        WINDOW,
        |s: &FlatServer| s.estimate().frequencies().to_vec(),
    );

    let hh_config = HhConfig::new(64, 4, eps).unwrap();
    let hh_client = HhClient::new(hh_config.clone()).unwrap();
    check_ring_equals_scratch(
        || HhServer::new(hh_config.clone()).unwrap(),
        &batches(EPOCHS, PER_EPOCH, 1002, |i, rng| {
            hh_client.report((i * 7) % 64, rng).unwrap()
        }),
        WINDOW,
        |s: &HhServer| {
            s.estimate_consistent()
                .to_frequency_estimate()
                .frequencies()
                .to_vec()
        },
    );

    let haar_config = HaarConfig::new(64, eps).unwrap();
    let haar_client = HaarHrrClient::new(haar_config.clone()).unwrap();
    check_ring_equals_scratch(
        || HaarHrrServer::new(haar_config.clone()).unwrap(),
        &batches(EPOCHS, PER_EPOCH, 1004, |i, rng| {
            haar_client.report((i * 11) % 64, rng).unwrap()
        }),
        WINDOW,
        |s: &HaarHrrServer| s.estimate().to_frequency_estimate().frequencies().to_vec(),
    );
}

proptest! {
    /// Subtract inverts merge exactly for the flat mechanism over every
    /// oracle (randomized seed, split point, and oracle kind).
    #[test]
    fn flat_subtract_is_exact_for_every_oracle(
        seed in 0u64..5_000,
        n in 2usize..150,
        split in 1usize..150,
        oracle_idx in 0usize..4,
    ) {
        let config = FlatConfig::with_oracle(32, Epsilon::new(1.1), ORACLES[oracle_idx]).unwrap();
        let client = FlatClient::new(&config).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let reports: Vec<_> =
            (0..n).map(|i| client.report(i % 32, &mut rng).unwrap()).collect();
        check_subtract_roundtrip(
            || FlatServer::new(&config).unwrap(),
            &reports,
            split % n,
            |s: &FlatServer| s.estimate().frequencies().to_vec(),
        );
    }

    /// Subtract inverts merge for the hierarchical mechanism over every
    /// oracle.
    #[test]
    fn hh_subtract_is_exact(
        seed in 0u64..5_000,
        n in 2usize..150,
        split in 1usize..150,
        oracle_idx in 0usize..4,
    ) {
        let config = HhConfig::with_oracle(64, 4, Epsilon::new(0.9), ORACLES[oracle_idx]).unwrap();
        let client = HhClient::new(config.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let reports: Vec<_> =
            (0..n).map(|i| client.report((i * 7) % 64, &mut rng).unwrap()).collect();
        check_subtract_roundtrip(
            || HhServer::new(config.clone()).unwrap(),
            &reports,
            split % n,
            |s: &HhServer| {
                s.estimate_consistent().to_frequency_estimate().frequencies().to_vec()
            },
        );
    }

    /// Subtract inverts merge for the HaarHRR mechanism.
    #[test]
    fn haar_hrr_subtract_is_exact(
        seed in 0u64..5_000,
        n in 2usize..100,
        split in 1usize..100,
    ) {
        let eps = Epsilon::new(1.2);
        let mut rng = StdRng::seed_from_u64(seed);
        let haar = HaarConfig::new(64, eps).unwrap();
        let client = HaarHrrClient::new(haar.clone()).unwrap();
        let reports: Vec<_> =
            (0..n).map(|i| client.report((i * 11) % 64, &mut rng).unwrap()).collect();
        check_subtract_roundtrip(
            || HaarHrrServer::new(haar.clone()).unwrap(),
            &reports,
            split % n,
            |s: &HaarHrrServer| s.estimate().to_frequency_estimate().frequencies().to_vec(),
        );
    }

    /// Any window over any epoch/window geometry equals the from-scratch
    /// merge (randomized epoch count, window length, and epoch sizes).
    #[test]
    fn window_of_k_epochs_equals_scratch_merge(
        seed in 0u64..5_000,
        epochs in 1usize..7,
        window in 1usize..5,
        per_epoch in 1usize..60,
    ) {
        let config = HhConfig::new(64, 4, Epsilon::new(1.1)).unwrap();
        let client = HhClient::new(config.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let epoch_batches: Vec<Vec<_>> = (0..epochs)
            .map(|e| {
                (0..per_epoch)
                    .map(|i| client.report((e * 13 + i) % 64, &mut rng).unwrap())
                    .collect()
            })
            .collect();
        check_ring_equals_scratch(
            || HhServer::new(config.clone()).unwrap(),
            &epoch_batches,
            window,
            |s: &HhServer| {
                s.estimate_consistent().to_frequency_estimate().frequencies().to_vec()
            },
        );
    }
}

/// A windowed service tracks a drifting population: the window estimate
/// follows the drift while the all-time aggregate blurs it.
#[test]
fn windowed_service_tracks_drift() {
    let domain = 64usize;
    let config = HaarConfig::new(domain, Epsilon::from_exp(3.0)).unwrap();
    let client = HaarHrrClient::new(config.clone()).unwrap();
    let prototype = HaarHrrServer::new(config).unwrap();

    // Population drifts from the low quarter to the high quarter.
    let mut low = vec![0u64; domain];
    let mut high = vec![0u64; domain];
    for z in 0..domain / 4 {
        low[z] = 1;
        high[domain - 1 - z] = 1;
    }
    let epochs = 6usize;
    let streams = generate_drifting_epochs(
        &Dataset::from_counts(low),
        &Dataset::from_counts(high),
        epochs,
        4_000,
        1100,
        |v, rng| client.report(v, rng).unwrap(),
    );
    assert_eq!(streams.len(), epochs);

    let service = LdpService::windowed(&prototype, 3, 2).unwrap();
    let mut window_medians = Vec::new();
    for (e, stream) in streams.iter().enumerate() {
        assert_eq!(service.current_epoch(), e as u64);
        for i in 0..stream.len() {
            service.submit_epoch_frame(stream.frame(i)).unwrap();
        }
        assert_eq!(service.seal_epoch().unwrap(), e as u64);
        window_medians.push(service.window_snapshot(2).unwrap().quantile(0.5));
    }

    // The 2-epoch window median marches from the low quarter to the high
    // quarter as the population drifts.
    assert!(
        *window_medians.first().unwrap() < domain / 4,
        "first window median {} not in the low quarter",
        window_medians.first().unwrap()
    );
    assert!(
        *window_medians.last().unwrap() >= 3 * domain / 4,
        "last window median {} not in the high quarter",
        window_medians.last().unwrap()
    );

    // Stale frames (sealed epochs) are rejected, not folded in.
    let mut rng = StdRng::seed_from_u64(1101);
    let stale = client.report(1, &mut rng).unwrap();
    let mut frame = Vec::new();
    encode_epoch_frame(&stale, 0, &mut frame);
    assert!(matches!(
        service.submit_epoch_frame(&frame),
        Err(ServiceError::EpochMismatch {
            frame: 0,
            current: 6
        })
    ));

    // The published refresh_snapshot covers the retained window plus the
    // open epoch — after 6 sealed epochs with window 2, that is the last
    // two epochs' reports only.
    let snap = service.refresh_snapshot().unwrap();
    assert_eq!(snap.num_reports(), 8_000);
}

/// Hostile epoch-extended headers at the service boundary: every
/// mutation is an error, never a panic or a silent accept.
#[test]
fn hostile_epoch_frames_at_the_service_boundary() {
    let config = HaarConfig::new(32, Epsilon::new(1.1)).unwrap();
    let client = HaarHrrClient::new(config.clone()).unwrap();
    let prototype = HaarHrrServer::new(config).unwrap();
    let service = LdpService::windowed(&prototype, 2, 2).unwrap();

    let mut rng = StdRng::seed_from_u64(1200);
    let report = client.report(3, &mut rng).unwrap();
    let mut frame = Vec::new();
    encode_epoch_frame(&report, 0, &mut frame);

    // Sanity: the clean frame is accepted.
    service.submit_epoch_frame(&frame).unwrap();

    // Truncations, bad magic, unknown version, wrong kind, trailing
    // bytes: all rejected without state change.
    let before = service.num_reports();
    for cut in 0..frame.len() {
        assert!(service.submit_epoch_frame(&frame[..cut]).is_err());
    }
    let mut bad_magic = frame.clone();
    bad_magic[0] = b'X';
    assert!(matches!(
        service.submit_epoch_frame(&bad_magic),
        Err(ServiceError::Wire(WireError::BadMagic(_)))
    ));
    let mut v9 = frame.clone();
    v9[2] = 9;
    assert!(matches!(
        service.submit_epoch_frame(&v9),
        Err(ServiceError::Wire(WireError::UnsupportedVersion(9)))
    ));
    let mut wrong_kind = frame.clone();
    wrong_kind[3] = 0;
    assert!(service.submit_epoch_frame(&wrong_kind).is_err());
    let mut trailing = frame.clone();
    trailing.push(0x00);
    assert!(matches!(
        service.submit_epoch_frame(&trailing),
        Err(ServiceError::Wire(WireError::Malformed(_)))
    ));
    // An epoch varint that overflows u64.
    let mut overflow = vec![MAGIC[0], MAGIC[1], VERSION_EPOCH, 3];
    overflow.extend_from_slice(&[0xFF; 10]);
    assert!(matches!(
        service.submit_epoch_frame(&overflow),
        Err(ServiceError::Wire(WireError::BadVarint))
    ));
    // A structurally valid tag for a far-future epoch is a policy error.
    let mut future = Vec::new();
    encode_epoch_frame(&report, u64::MAX, &mut future);
    assert!(matches!(
        service.submit_epoch_frame(&future),
        Err(ServiceError::EpochMismatch { .. })
    ));
    assert_eq!(service.num_reports(), before, "hostile frame leaked state");

    // A v1 (epoch-less) frame is still accepted into the open epoch.
    let (epoch, _, _) = decode_epoch_frame::<ldp_ranges::HaarHrrReport>(&frame).unwrap();
    assert_eq!(epoch, Some(0));
    let v1 = {
        use ldp_service::WireReport;
        report.to_frame()
    };
    service.submit_epoch_frame(&v1).unwrap();
}

/// Untagged (v1) flat frames flow through the windowed service too — the
/// epoch extension is opt-in per frame.
#[test]
fn v1_frames_interoperate_with_windowed_flat_service() {
    let config = FlatConfig::new(16, Epsilon::new(1.3)).unwrap();
    let client = FlatClient::new(&config).unwrap();
    let prototype = FlatServer::new(&config).unwrap();
    let service = LdpService::windowed(&prototype, 2, 3).unwrap();
    let mut rng = StdRng::seed_from_u64(1300);
    for i in 0..200usize {
        let report: AnyReport = client.report(i % 16, &mut rng).unwrap();
        let mut frame = Vec::new();
        if i % 2 == 0 {
            encode_epoch_frame(&report, 0, &mut frame);
        } else {
            use ldp_service::WireReport;
            frame = report.to_frame();
        }
        service.submit_epoch_frame(&frame).unwrap();
    }
    service.seal_epoch().unwrap();
    let snap = service.window_snapshot(1).unwrap();
    assert_eq!(snap.num_reports(), 200);
    assert_eq!(snap.first_epoch(), 0);
    assert_eq!(snap.last_epoch(), 0);
    // The flat estimator is unbiased but not normalized; a loose check
    // suffices for this plumbing test.
    assert!((snap.range(0, 15) - 1.0).abs() < 0.75);
}
