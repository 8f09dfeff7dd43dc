//! The split drain and freeze ≡ the serial publish, bit for bit.
//!
//! From [`SPLIT_FREEZE_MIN_DOMAIN`] items up, a dirty refresh drains as a
//! fork-join over the refreshing thread and the service's freeze helper,
//! and HaarHRR freezes the same way (`HH_B` publishes prefix tables on
//! the refreshing thread). This suite holds what such a service publishes
//! to `RangeSnapshot::freeze` of its merged state — the serial,
//! allocating publish — in every frequency bit and every prefix bit:
//!
//! * `HH_B` over OUE for B ∈ {2, 3, 4, 16}, `HH_B` over HRR for the
//!   power-of-two B, whose levels go whole to one side, and HaarHRR;
//! * plain and windowed services;
//! * a domain below the cutoff, one at it (where the fanout has one) or
//!   just above it, and one far above it — up to 2^16 items, 2^17 for
//!   HaarHRR.
//!
//! It also publishes each state into NaN-poisoned `EstimateBuffers` with
//! a join that runs the other half on a scoped thread, so a split HaarHRR
//! freeze that reads a slot it did not write fails here too.
//!
//! The batched rows feed `HH_4`/OUE wire batches, so the split drain
//! spills reports still pending across batches, each half on its own
//! thread; they also hold the published snapshot to the freeze of a
//! one-server reference that absorbed every report on its own.

use ldp_freq_oracle::{Epsilon, FrequencyOracle};
use ldp_ranges::{
    EstimateBuffers, HaarConfig, HaarHrrClient, HaarHrrServer, HhClient, HhConfig, HhReport,
    HhServer, Join,
};
use ldp_service::net::WIRE_V1;
use ldp_service::{
    EncodedStream, EpochRing, LdpService, RangeSnapshot, SnapshotBuffers, SnapshotSource,
    SPLIT_FREEZE_MIN_DOMAIN,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const REPORTS_PER_ROUND: usize = 24;
const ROUNDS: usize = 3;

/// Runs `theirs` on a scoped thread while `mine` runs here.
struct ScopedJoin;

impl Join for ScopedJoin {
    fn join(&self, mine: &mut dyn FnMut(), theirs: &mut (dyn FnMut() + Send)) {
        std::thread::scope(|scope| {
            scope.spawn(theirs);
            mine();
        });
    }
}

fn eps() -> Epsilon {
    Epsilon::from_exp(3.0)
}

/// Every frequency bit and every prefix bit of a snapshot.
fn bits(snap: &RangeSnapshot) -> (Vec<u64>, Vec<u64>) {
    (
        snap.estimate()
            .frequencies()
            .iter()
            .map(|f| f.to_bits())
            .collect(),
        (0..snap.domain())
            .map(|b| snap.prefix(b).to_bits())
            .collect(),
    )
}

fn assert_same(got: &RangeSnapshot, serial: &RangeSnapshot, what: &str) {
    assert_eq!(got.domain(), serial.domain(), "{what}: domain");
    assert_eq!(got.num_reports(), serial.num_reports(), "{what}: reports");
    assert!(bits(got) == bits(serial), "{what}: bits differ");
}

/// A publish into NaN-poisoned buffers, split onto a scoped thread, held
/// to the serial publish.
fn check_poisoned<S: SnapshotSource>(state: &S, serial: &RangeSnapshot, what: &str) {
    let d = serial.domain();
    let mut buffers = SnapshotBuffers {
        estimate: EstimateBuffers {
            values: vec![f64::NAN; 2 * d],
            prefix: vec![f64::NAN; d + 1],
            pyramid: vec![f64::NAN; d],
            scratch: vec![f64::NAN; d],
        },
        ..SnapshotBuffers::default()
    };
    let answers = state
        .answers_into(&mut buffers, &ScopedJoin)
        .expect("publish");
    let split = RangeSnapshot::from_answers(answers, state.num_reports(), serial.version());
    assert_same(&split, serial, &format!("{what}, poisoned buffers"));
}

/// Feeds a plain and a windowed service over `prototype` a few rounds of
/// reports — sealing the windowed one between rounds — and holds every
/// published snapshot to the serial freeze of the merged state.
fn check<S: SnapshotSource>(
    prototype: &S,
    mut report: impl FnMut(usize, &mut dyn RngCore) -> S::Report,
    what: &str,
) {
    let mut rng = StdRng::seed_from_u64(4401);
    let plain = LdpService::new(prototype, 2).expect("service");
    let windowed = LdpService::windowed(prototype, 2, 2).expect("windowed service");
    for round in 0..ROUNDS {
        for i in 0..REPORTS_PER_ROUND {
            let r = report(round * REPORTS_PER_ROUND + i, &mut rng);
            plain.submit(&r).expect("submit");
            windowed.submit(&r).expect("submit");
        }
        let what = format!("{what}, round {round}");
        let snap = plain.refresh_snapshot().expect("refresh");
        let state = plain.merged_state().expect("state");
        let serial = RangeSnapshot::freeze(&state, snap.version());
        assert_same(&snap, &serial, &format!("{what}, plain"));
        check_poisoned(&state, &serial, &format!("{what}, plain"));

        let snap = windowed.refresh_snapshot().expect("refresh");
        let ring: EpochRing<S> = windowed.merged_state().expect("state");
        let serial = RangeSnapshot::freeze(&ring, snap.version());
        assert_same(&snap, &serial, &format!("{what}, windowed"));
        check_poisoned(&ring, &serial, &format!("{what}, windowed"));
        windowed.seal_epoch().expect("seal");
    }
}

/// A value skewed toward the low quarter of the domain.
fn value(i: usize, domain: usize) -> usize {
    if i.is_multiple_of(3) {
        (i * 7919) % domain
    } else {
        (i * 31) % (domain / 4)
    }
}

/// The powers of `fanout` that bracket the cutoff: the largest below it,
/// the smallest at or above it, and the largest up to 2^16.
fn domains(fanout: usize) -> Vec<usize> {
    let powers: Vec<usize> = std::iter::successors(Some(fanout), |&d| Some(d * fanout))
        .take_while(|&d| d <= 1 << 16)
        .collect();
    let at = powers
        .iter()
        .position(|&d| d >= SPLIT_FREEZE_MIN_DOMAIN)
        .expect("a power at or above the cutoff");
    let mut picked = vec![powers[at - 1], powers[at], powers[powers.len() - 1]];
    picked.dedup();
    picked
}

fn check_hh(oracle: FrequencyOracle, fanout: usize) {
    for domain in domains(fanout) {
        let config = HhConfig::with_oracle(domain, fanout, eps(), oracle).expect("config");
        let client = HhClient::new(config.clone()).expect("client");
        let prototype = HhServer::new(config).expect("server");
        check(
            &prototype,
            |i, rng| client.report(value(i, domain), rng).expect("report"),
            &format!("HH_{fanout}/{oracle} D={domain}"),
        );
    }
}

#[test]
fn the_domains_bracket_the_cutoff() {
    assert_eq!(domains(4), [1 << 12, 1 << 14, 1 << 16]);
    assert_eq!(domains(3), [6561, 19683, 59049]);
    assert_eq!(domains(16), [4096, 65536]);
}

#[test]
fn split_hh_oue_is_the_serial_freeze() {
    for fanout in [2, 3, 4, 16] {
        check_hh(FrequencyOracle::Oue, fanout);
    }
}

#[test]
fn split_hh_hrr_is_the_serial_freeze() {
    for fanout in [2, 4, 16] {
        check_hh(FrequencyOracle::Hrr, fanout);
    }
}

#[test]
fn split_haar_hrr_is_the_serial_freeze() {
    for domain in [
        SPLIT_FREEZE_MIN_DOMAIN / 4,
        SPLIT_FREEZE_MIN_DOMAIN,
        1 << 17,
    ] {
        let config = HaarConfig::new(domain, eps()).expect("config");
        let client = HaarHrrClient::new(config.clone()).expect("client");
        let prototype = HaarHrrServer::new(config).expect("server");
        check(
            &prototype,
            |i, rng| client.report(value(i, domain), rng).expect("report"),
            &format!("HaarHRR D={domain}"),
        );
    }
}

/// Frames per wire batch in [`check_batched`], and batches per round.
const FRAMES: usize = 40;
const BATCHES: usize = 3;

/// [`check`] fed wire batches: each round sends [`BATCHES`] batches
/// before the refreshes — so the drained shards hold reports pending
/// across batches — then one more before the windowed service seals, so
/// the seal's drain meets pending reports too. Every published snapshot
/// is also held to the freeze of a one-server reference (a ring sealed
/// at the same points, for the windowed service).
fn check_batched(
    prototype: &HhServer,
    mut report: impl FnMut(usize, &mut dyn RngCore) -> HhReport,
    what: &str,
) {
    let mut rng = StdRng::seed_from_u64(4402);
    let plain = LdpService::new(prototype, 2).expect("service");
    let windowed = LdpService::windowed(prototype, 2, 2).expect("windowed service");
    let mut reference = prototype.clone();
    let mut ring = EpochRing::new(prototype, 2).expect("ring");
    let mut next = 0;
    let mut send = |batches: usize, reference: &mut HhServer, ring: &mut EpochRing<HhServer>| {
        for _ in 0..batches {
            let mut batch = EncodedStream::new();
            for _ in 0..FRAMES {
                let r = report(next, &mut rng);
                batch.push(&r);
                reference.absorb(&r).expect("reference absorb");
                ring.absorb(&r).expect("ring absorb");
                next += 1;
            }
            for service in [
                plain.submit_wire_batch(WIRE_V1, FRAMES as u64, batch.as_bytes()),
                windowed.submit_wire_batch(WIRE_V1, FRAMES as u64, batch.as_bytes()),
            ] {
                assert_eq!(service.expect("batch"), FRAMES as u64);
            }
        }
    };
    for round in 0..ROUNDS {
        let what = format!("{what}, batched round {round}");
        send(BATCHES, &mut reference, &mut ring);
        let snap = plain.refresh_snapshot().expect("refresh");
        let serial = RangeSnapshot::freeze(&plain.merged_state().expect("state"), snap.version());
        assert_same(&snap, &serial, &format!("{what}, plain"));
        let expected = RangeSnapshot::freeze(&reference, snap.version());
        assert_same(&snap, &expected, &format!("{what}, plain vs reference"));

        let snap = windowed.refresh_snapshot().expect("refresh");
        let serial =
            RangeSnapshot::freeze(&windowed.merged_state().expect("state"), snap.version());
        assert_same(&snap, &serial, &format!("{what}, windowed"));
        let expected = RangeSnapshot::freeze(&ring, snap.version());
        assert_same(&snap, &expected, &format!("{what}, windowed vs reference"));

        send(1, &mut reference, &mut ring);
        assert_eq!(
            windowed.seal_epoch().expect("seal"),
            ring.seal_epoch().expect("ring seal")
        );
    }
    let snap = windowed.refresh_snapshot().expect("refresh");
    let expected = RangeSnapshot::freeze(&ring, snap.version());
    assert_same(
        &snap,
        &expected,
        &format!("{what}, windowed after the last seal"),
    );
}

#[test]
fn split_hh_oue_batched_is_the_serial_freeze() {
    for domain in domains(4) {
        let config = HhConfig::with_oracle(domain, 4, eps(), FrequencyOracle::Oue).expect("config");
        let client = HhClient::new(config.clone()).expect("client");
        let prototype = HhServer::new(config).expect("server");
        check_batched(
            &prototype,
            |i, rng| client.report(value(i, domain), rng).expect("report"),
            &format!("HH_4/OUE D={domain}"),
        );
    }
}
