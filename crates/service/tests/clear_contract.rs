//! The `clear` contract ([`SubtractableServer::clear`]), which the
//! service's drain refresh rests on: for every served mechanism (flat,
//! `HH_B`, HaarHRR) × oracle, plain and as an [`EpochRing`], clearing a
//! server that has absorbed (some reports still pending), merged and — for
//! a ring — sealed and rotated leaves exactly the empty state: the
//! prototype's persisted bytes, or for a ring those of a fresh ring sealed
//! as often (which `aligned_empty()` must match too). The cleared server
//! then behaves like a fresh one: a cleared ring still merges with its
//! aligned peers, and absorbing the same reports again gives bytes
//! identical to a fresh server's.

use ldp_freq_oracle::{Epsilon, FrequencyOracle};
use ldp_ranges::{
    FlatClient, FlatConfig, FlatServer, HaarConfig, HaarHrrClient, HaarHrrServer, HhClient,
    HhConfig, HhServer, MergeableServer, PersistableServer, SubtractableServer,
};
use ldp_service::EpochRing;
use rand::rngs::StdRng;
use rand::SeedableRng;

const ORACLES: [FrequencyOracle; 4] = [
    FrequencyOracle::Oue,
    FrequencyOracle::Olh,
    FrequencyOracle::Hrr,
    FrequencyOracle::Sue,
];

fn bytes<S: PersistableServer>(server: &S) -> Vec<u8> {
    let mut out = Vec::new();
    server.persist_state(&mut out);
    out
}

fn absorb_all<S: MergeableServer>(server: &mut S, reports: &[S::Report]) {
    for r in reports {
        server.absorb(r).unwrap();
    }
}

/// Absorbs `reports` deferred, leaving them pending in the oracles.
fn absorb_deferred_all<S: MergeableServer>(server: &mut S, reports: &[S::Report]) {
    for r in reports {
        server.absorb_deferred(r).unwrap();
    }
}

/// `server` cleared must persist as `empty`, and then absorb `reports`
/// into exactly what `empty` does.
fn assert_cleared_like<S>(mut server: S, empty: &S, reports: &[S::Report], what: &str)
where
    S: SubtractableServer + PersistableServer,
{
    server.clear();
    assert_eq!(server.num_reports(), 0, "{what}: reports left after clear");
    assert_eq!(bytes(&server), bytes(empty), "{what}: cleared ≠ empty");
    let mut fresh = empty.clone();
    absorb_all(&mut server, reports);
    absorb_all(&mut fresh, reports);
    assert_eq!(bytes(&server), bytes(&fresh), "{what}: re-absorb ≠ fresh");
}

/// The plain server: absorbed, merged with a peer, some reports left
/// pending, then cleared.
fn check_plain<S>(prototype: &S, reports: &[S::Report], what: &str)
where
    S: SubtractableServer + PersistableServer,
{
    let third = reports.len() / 3;
    let mut server = prototype.clone();
    absorb_all(&mut server, &reports[..third]);
    let mut peer = prototype.clone();
    absorb_all(&mut peer, &reports[third..2 * third]);
    server.merge(&peer).unwrap();
    absorb_deferred_all(&mut server, &reports[2 * third..]);
    assert_cleared_like(server, prototype, reports, what);
}

/// The ring: two aligned rings absorb, merge and seal through more
/// epochs than the window retains (so rotation has run), with reports
/// pending in the open epoch; clearing one keeps its layout.
fn check_ring<S>(prototype: &S, reports: &[S::Report], what: &str)
where
    S: SubtractableServer + PersistableServer,
{
    let mut ring = EpochRing::new(prototype, 2).unwrap();
    let mut peer = ring.clone();
    let mut empty = ring.clone();
    for chunk in reports.chunks(reports.len().div_ceil(4)) {
        let half = chunk.len() / 2;
        absorb_all(&mut ring, &chunk[..half]);
        absorb_all(&mut peer, &chunk[half..]);
        ring.merge(&peer).unwrap();
        ring.seal_epoch().unwrap();
        peer.seal_epoch().unwrap();
        empty.seal_epoch().unwrap();
    }
    absorb_all(&mut peer, &reports[..reports.len() / 2]);
    absorb_deferred_all(&mut ring, &reports[reports.len() / 2..]);
    assert_eq!(ring.epochs_retained(), 2, "{what}: rotation never ran");
    assert_eq!(
        bytes(&ring.aligned_empty()),
        bytes(&empty),
        "{what}: aligned_empty"
    );

    let mut cleared = ring.clone();
    cleared.clear();
    assert_eq!(cleared.current_epoch(), ring.current_epoch(), "{what}");
    assert!(cleared
        .sealed()
        .map(|e| e.id())
        .eq(ring.sealed().map(|e| e.id())));
    let mut merged = cleared.clone();
    merged.merge(&peer).unwrap();
    let mut expected = empty.clone();
    expected.merge(&peer).unwrap();
    assert_eq!(
        bytes(&merged),
        bytes(&expected),
        "{what}: cleared ring merge"
    );

    assert_cleared_like(ring, &empty, reports, what);
}

fn check_both<S>(prototype: &S, reports: &[S::Report], what: &str)
where
    S: SubtractableServer + PersistableServer,
{
    check_plain(prototype, reports, what);
    check_ring(prototype, reports, &format!("{what} ring"));
}

const N: usize = 90;

#[test]
fn flat_clear_is_the_empty_state() {
    for oracle in ORACLES {
        let config = FlatConfig::with_oracle(32, Epsilon::new(1.1), oracle).unwrap();
        let client = FlatClient::new(&config).unwrap();
        let mut rng = StdRng::seed_from_u64(9301);
        let reports: Vec<_> = (0..N)
            .map(|i| client.report(i % 32, &mut rng).unwrap())
            .collect();
        let prototype = FlatServer::new(&config).unwrap();
        check_both(&prototype, &reports, &format!("flat {oracle}"));
    }
}

#[test]
fn hh_clear_is_the_empty_state() {
    for oracle in ORACLES {
        let config = HhConfig::with_oracle(64, 4, Epsilon::new(0.9), oracle).unwrap();
        let client = HhClient::new(config.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(9302);
        let reports: Vec<_> = (0..N)
            .map(|i| client.report((i * 7) % 64, &mut rng).unwrap())
            .collect();
        let prototype = HhServer::new(config).unwrap();
        check_both(&prototype, &reports, &format!("hh {oracle}"));
    }
}

#[test]
fn haar_clear_is_the_empty_state() {
    let config = HaarConfig::new(128, Epsilon::new(1.1)).unwrap();
    let mut rng = StdRng::seed_from_u64(9305);
    let client = HaarHrrClient::new(config.clone()).unwrap();
    let reports: Vec<_> = (0..N)
        .map(|i| client.report((i * 11) % 128, &mut rng).unwrap())
        .collect();
    check_both(&HaarHrrServer::new(config).unwrap(), &reports, "haar hrr");
}
