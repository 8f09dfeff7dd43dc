//! Recycled tables ≡ the allocating publish, bit for bit.
//!
//! A service publishes each snapshot over the prefix tables of the
//! snapshot it retired. Two properties make that safe, and this suite
//! holds both for the three served mechanisms (flat, `HH_4`, HaarHRR)
//! over every served oracle (OUE and HRR at 2^12 items, OLH at its 2^10
//! cap):
//!
//! 1. **Contents never leak.** `RangeSnapshot::freeze_into` gives the
//!    same bits — every frequency, every prefix — as
//!    `RangeSnapshot::freeze`, which allocates afresh: over tables
//!    recycled from the same state, from another state, from other
//!    configurations, longer and shorter, and from another mechanism's
//!    shape.
//! 2. **A shared snapshot is never written.** A caller that holds an old
//!    `Arc<RangeSnapshot>` across dirty refreshes reads the same bits
//!    from it afterwards, and every snapshot published meanwhile equals a
//!    fresh freeze of the service's state.

use std::sync::Arc;

use ldp_freq_oracle::{Epsilon, FrequencyOracle};
use ldp_ranges::{
    FlatClient, FlatConfig, FlatServer, HaarConfig, HaarHrrClient, HaarHrrServer, HhClient,
    HhConfig, HhServer, PrefixTables,
};
use ldp_service::{LdpService, RangeSnapshot, SnapshotSource};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The domain OUE and HRR are served at here; OLH is capped at 2^10.
const D: usize = 1 << 12;
const OLH_D: usize = 1 << 10;
const REPORTS: usize = 600;

/// Every served oracle with the domain it is tested at.
const ORACLES: [(FrequencyOracle, usize); 3] = [
    (FrequencyOracle::Oue, D),
    (FrequencyOracle::Hrr, D),
    (FrequencyOracle::Olh, OLH_D),
];

fn eps() -> Epsilon {
    Epsilon::from_exp(3.0)
}

/// Values skewed toward the low quarter, so estimates are far from flat.
fn value(i: usize, domain: usize) -> usize {
    if i.is_multiple_of(3) {
        (i * 7919) % domain
    } else {
        (i * 31) % (domain / 4)
    }
}

fn bits(v: impl IntoIterator<Item = f64>) -> Vec<u64> {
    v.into_iter().map(f64::to_bits).collect()
}

/// Every bit a snapshot answers from: the per-item frequencies, every
/// prefix sum, the report count and the version.
fn fingerprint(snap: &RangeSnapshot) -> (Vec<u64>, Vec<u64>, u64, u64) {
    let d = snap.domain();
    (
        bits(snap.estimate().frequencies().iter().copied()),
        bits((0..d).map(|b| snap.prefix(b))),
        snap.num_reports(),
        snap.version(),
    )
}

fn assert_same(got: &RangeSnapshot, fresh: &RangeSnapshot, what: &str) {
    assert_eq!(got.domain(), fresh.domain(), "{what}: domain");
    assert!(
        fingerprint(got) == fingerprint(fresh),
        "{what}: bits differ"
    );
    let d = got.domain();
    for (a, b) in [(0, d - 1), (d / 4, d / 2), (d - 1, d - 1), (1, 1)] {
        assert_eq!(
            got.range(a, b).to_bits(),
            fresh.range(a, b).to_bits(),
            "{what}: range [{a}, {b}]"
        );
    }
    assert_eq!(got.quantile(0.5), fresh.quantile(0.5), "{what}: median");
}

/// Publishes `server` over `spare` and holds it to the allocating
/// publish.
fn assert_recycled<S: SnapshotSource>(server: &S, spare: PrefixTables, what: &str) {
    let fresh = RangeSnapshot::freeze(server, 7);
    let got = RangeSnapshot::freeze_into(server, 7, spare).expect("publish");
    assert_same(&got, &fresh, what);
}

/// Publishes `server` over empty tables, then over the warm tables of
/// its own last publish, then over each of `foreign`, and holds each to
/// the allocating publish.
fn check_recycled_freezes<S: SnapshotSource>(server: &S, foreign: Vec<PrefixTables>, what: &str) {
    assert_recycled(server, PrefixTables::default(), &format!("{what}, empty"));
    let warm = tables_of(std::slice::from_ref(server)).remove(0);
    assert_recycled(server, warm, &format!("{what}, recycled own tables"));
    for (k, spare) in foreign.into_iter().enumerate() {
        assert_recycled(server, spare, &format!("{what}, foreign tables {k}"));
    }
}

/// The published tables of each of `others`.
fn tables_of<S: SnapshotSource>(others: &[S]) -> Vec<PrefixTables> {
    others
        .iter()
        .map(|other| {
            RangeSnapshot::freeze(other, 0)
                .into_tables()
                .expect("a served state publishes tables")
        })
        .collect()
}

/// A service over `prototype` fed `reports` in six chunks. Holds the
/// snapshot of the first chunk across five dirty refreshes, each of
/// whose snapshots is dropped at once so the next freeze recycles it;
/// the held one must keep its bits, and every published snapshot must
/// equal a fresh freeze of the service's whole state.
fn check_held_snapshot<S: SnapshotSource>(prototype: &S, reports: &[S::Report], what: &str) {
    let service = LdpService::new(prototype, 2).expect("service");
    let mut chunks = reports.chunks(reports.len().div_ceil(6));
    let mut submit = |service: &LdpService<S>| {
        for report in chunks.next().expect("six chunks") {
            service.submit(report).expect("submit");
        }
    };
    submit(&service);
    let held = service.refresh_snapshot().expect("refresh");
    let before = fingerprint(&held);
    for round in 1..=5 {
        submit(&service);
        let snap = service.refresh_snapshot().expect("refresh");
        assert_eq!(snap.version(), held.version() + round, "{what}");
        let state = service.merged_state().expect("merged state");
        let fresh = RangeSnapshot::freeze(&state, snap.version());
        assert_same(&snap, &fresh, &format!("{what}, refresh {round}"));
    }
    assert!(
        fingerprint(&held) == before,
        "{what}: a held snapshot changed under a recycling refresh"
    );
    assert_eq!(Arc::strong_count(&held), 1, "{what}: the service kept it");
}

fn flat(oracle: FrequencyOracle, d: usize) -> (FlatServer, Vec<ldp_freq_oracle::AnyReport>) {
    let config = FlatConfig::with_oracle(d, eps(), oracle).expect("config");
    let client = FlatClient::new(&config).expect("client");
    let mut rng = StdRng::seed_from_u64(4301);
    let reports = (0..REPORTS)
        .map(|i| client.report(value(i, d), &mut rng).expect("report"))
        .collect();
    (FlatServer::new(&config).expect("server"), reports)
}

fn hh4(oracle: FrequencyOracle, d: usize) -> (HhServer, Vec<ldp_ranges::HhReport>) {
    let config = HhConfig::with_oracle(d, 4, eps(), oracle).expect("config");
    let client = HhClient::new(config.clone()).expect("client");
    let mut rng = StdRng::seed_from_u64(4302);
    let reports = (0..REPORTS)
        .map(|i| client.report(value(i, d), &mut rng).expect("report"))
        .collect();
    (HhServer::new(config).expect("server"), reports)
}

fn haar_hrr(d: usize) -> (HaarHrrServer, Vec<ldp_ranges::HaarHrrReport>) {
    let config = HaarConfig::new(d, eps()).expect("config");
    let client = HaarHrrClient::new(config.clone()).expect("client");
    let mut rng = StdRng::seed_from_u64(4303);
    let reports = (0..REPORTS)
        .map(|i| client.report(value(i, d), &mut rng).expect("report"))
        .collect();
    (HaarHrrServer::new(config).expect("server"), reports)
}

/// The empty server (every level estimates from zero reports) and the
/// server holding every report, each recycling tables from `foreign`
/// and from the other state.
fn check_both_states<S: SnapshotSource>(
    mut server: S,
    reports: &[S::Report],
    foreign: impl Fn(&S) -> Vec<PrefixTables>,
    what: &str,
) {
    let empty = server.clone();
    for report in reports {
        server.absorb(report).expect("absorb");
    }
    let mut buffers = foreign(&empty);
    buffers.extend(foreign(&server));
    check_recycled_freezes(&empty, buffers, &format!("{what}, empty"));
    let mut buffers = foreign(&server);
    buffers.extend(foreign(&empty));
    check_recycled_freezes(&server, buffers, what);
}

/// Tables of a server like `state` at a quarter and four times `d`
/// items, with a few reports, and of `state` itself.
fn other_tables<S: SnapshotSource>(
    state: &S,
    make: impl Fn(usize) -> (S, Vec<S::Report>),
    d: usize,
) -> Vec<PrefixTables> {
    let mut others = vec![state.clone()];
    for other in [d / 4, d * 4] {
        let (mut server, reports) = make(other);
        for report in &reports[..40] {
            server.absorb(report).expect("absorb");
        }
        others.push(server);
    }
    tables_of(&others)
}

#[test]
fn flat_recycled_freeze_is_the_allocating_freeze() {
    for (oracle, d) in ORACLES {
        let (server, reports) = flat(oracle, d);
        let foreign = |state: &FlatServer| other_tables(state, |d| flat(oracle, d), d);
        check_both_states(server, &reports, foreign, &format!("flat/{oracle:?}"));
    }
}

#[test]
fn hh4_recycled_freeze_is_the_allocating_freeze() {
    for (oracle, d) in ORACLES {
        let (server, reports) = hh4(oracle, d);
        let foreign = |state: &HhServer| other_tables(state, |d| hh4(oracle, d), d);
        check_both_states(server, &reports, foreign, &format!("HH_4/{oracle:?}"));
    }
}

/// HaarHRR over its own tables at D/4, D and 4D, and over an `HH_4`
/// server's tables: the pyramid's shape replaces the tree's.
#[test]
fn haar_hrr_recycled_freeze_is_the_allocating_freeze() {
    let (server, reports) = haar_hrr(D);
    let foreign = |state: &HaarHrrServer| {
        let mut tables = other_tables(state, haar_hrr, D);
        tables.extend(tables_of(&[hh4(FrequencyOracle::Oue, D).0]));
        tables
    };
    check_both_states(server, &reports, foreign, "HaarHRR");
}

#[test]
fn held_snapshot_keeps_its_bits_across_recycling_refreshes() {
    for (oracle, d) in ORACLES {
        let (server, reports) = flat(oracle, d);
        check_held_snapshot(&server, &reports, &format!("flat/{oracle:?}"));
        let (server, reports) = hh4(oracle, d);
        check_held_snapshot(&server, &reports, &format!("HH_4/{oracle:?}"));
    }
    let (server, reports) = haar_hrr(D);
    check_held_snapshot(&server, &reports, "HaarHRR");
}
