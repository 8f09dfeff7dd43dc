//! A refresh runs on the calling thread and publishes what one server
//! absorbing every report would.
//!
//! A dirty refresh drains each shard into the accumulator, then builds
//! the snapshot's prefix tables, both on the caller
//! (`tests/refresh_threads.rs` checks that none of this starts a
//! thread). The rows are the served domain at its largest:
//!
//! * `HH_4`/OUE at 2^16, fed wire batches, so each drain meets reports
//!   still pending across batches — plain, and windowed with a seal
//!   between rounds whose drain meets pending reports too;
//! * HaarHRR at 2^16, plain and windowed.
//!
//! Each published snapshot is held to the snapshot of a one-server
//! reference (a ring sealed at the same points, for the windowed
//! service): the same persisted state bytes, which fix every answer,
//! and the same bits for a spread of prefixes, points and ranges.

use ldp_freq_oracle::{Epsilon, FrequencyOracle};
use ldp_ranges::{HaarConfig, HaarHrrClient, HaarHrrServer, HhClient, HhConfig, HhServer};
use ldp_service::net::WIRE_V1;
use ldp_service::{
    EncodedStream, EpochRing, LdpService, RangeSnapshot, SnapshotSource, WireReport,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const D: usize = 1 << 16;
/// Frames per wire batch, batches per round, and rounds.
const FRAMES: usize = 40;
const BATCHES: usize = 3;
const ROUNDS: usize = 3;

/// A value skewed toward the low quarter of the domain.
fn value(i: usize) -> usize {
    if i.is_multiple_of(3) {
        (i * 7919) % D
    } else {
        (i * 31) % (D / 4)
    }
}

fn state_bytes<S: SnapshotSource>(state: &S) -> Vec<u8> {
    let mut out = Vec::new();
    state.persist_state(&mut out);
    out
}

/// The published snapshot against the reference's: report count and the
/// bits of a spread of answers.
fn assert_same(got: &RangeSnapshot, want: &RangeSnapshot, what: &str) {
    assert_eq!(got.num_reports(), want.num_reports(), "{what}: reports");
    assert_eq!(got.domain(), want.domain(), "{what}: domain");
    for b in (0..D).step_by(257).chain([D - 1]) {
        assert_eq!(
            got.prefix(b).to_bits(),
            want.prefix(b).to_bits(),
            "{what}: prefix {b}"
        );
        assert_eq!(
            got.point(b).to_bits(),
            want.point(b).to_bits(),
            "{what}: point {b}"
        );
        let a = b / 3;
        assert_eq!(
            got.range(a, b).to_bits(),
            want.range(a, b).to_bits(),
            "{what}: range [{a}, {b}]"
        );
    }
    assert_eq!(got.quantile(0.5), want.quantile(0.5), "{what}: median");
}

/// Feeds a plain and a windowed service over `prototype` [`ROUNDS`]
/// rounds of [`BATCHES`] wire batches, refreshing both after each round
/// and then sending one more batch before the windowed service seals.
/// Every snapshot is held to the one-server reference.
fn check<S>(prototype: &S, mut report: impl FnMut(usize, &mut dyn RngCore) -> S::Report, what: &str)
where
    S: SnapshotSource,
    S::Report: WireReport,
{
    let mut rng = StdRng::seed_from_u64(4402);
    let plain = LdpService::new(prototype, 2).expect("service");
    let windowed = LdpService::windowed(prototype, 2, 2).expect("windowed service");
    let mut reference = prototype.clone();
    let mut ring = EpochRing::new(prototype, 2).expect("ring");
    let mut next = 0;
    let mut send = |batches: usize, reference: &mut S, ring: &mut EpochRing<S>| {
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
        let what = format!("{what}, round {round}");
        send(BATCHES, &mut reference, &mut ring);
        let snap = plain.refresh_snapshot().expect("refresh");
        assert_same(
            &snap,
            &RangeSnapshot::freeze(&reference, snap.version()),
            &format!("{what}, plain"),
        );
        let state = plain.merged_state().expect("state");
        assert_eq!(
            state_bytes(&state),
            state_bytes(&reference),
            "{what}: plain state"
        );

        let snap = windowed.refresh_snapshot().expect("refresh");
        assert_same(
            &snap,
            &RangeSnapshot::freeze(&ring, snap.version()),
            &format!("{what}, windowed"),
        );
        let state = windowed.merged_state().expect("state");
        assert_eq!(
            state_bytes(&state),
            state_bytes(&ring),
            "{what}: windowed state"
        );

        send(1, &mut reference, &mut ring);
        assert_eq!(
            windowed.seal_epoch().expect("seal"),
            ring.seal_epoch().expect("ring seal")
        );
    }
    let snap = windowed.refresh_snapshot().expect("refresh");
    assert_same(
        &snap,
        &RangeSnapshot::freeze(&ring, snap.version()),
        &format!("{what}, windowed after the last seal"),
    );
}

#[test]
fn hh_oue_batched_serial_drain_is_the_one_server_reference() {
    let config =
        HhConfig::with_oracle(D, 4, Epsilon::from_exp(3.0), FrequencyOracle::Oue).expect("config");
    let client = HhClient::new(config.clone()).expect("client");
    check(
        &HhServer::new(config).expect("server"),
        |i, rng| client.report(value(i), rng).expect("report"),
        "HH_4/OUE",
    );
}

#[test]
fn haar_hrr_serial_refresh_is_the_one_server_reference() {
    let config = HaarConfig::new(D, Epsilon::from_exp(3.0)).expect("config");
    let client = HaarHrrClient::new(config.clone()).expect("client");
    check(
        &HaarHrrServer::new(config).expect("server"),
        |i, rng| client.report(value(i), rng).expect("report"),
        "HaarHRR",
    );
}
