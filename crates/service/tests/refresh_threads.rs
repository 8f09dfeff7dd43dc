//! No refresh, drain or seal starts a thread.
//!
//! A dirty refresh drains each shard and builds the snapshot's prefix
//! tables on the calling thread. This binary holds one test, so no other
//! test thread comes or goes while it counts the process's threads
//! (`/proc/self/task`) after every refresh and seal. The rows are
//! `HH_4`/OUE and HaarHRR services at 2^16, plain and windowed, fed wire
//! batches so that each drain meets reports still pending across them.
//! `tests/serial_refresh.rs` holds what these refreshes publish to a
//! one-server reference.

use ldp_freq_oracle::{Epsilon, FrequencyOracle};
use ldp_ranges::{HaarConfig, HaarHrrClient, HaarHrrServer, HhClient, HhConfig, HhServer};
use ldp_service::net::WIRE_V1;
use ldp_service::{EncodedStream, LdpService, SnapshotSource, WireReport};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const D: usize = 1 << 16;
/// Frames per wire batch, batches per round, and rounds.
const FRAMES: usize = 40;
const BATCHES: usize = 3;
const ROUNDS: usize = 3;

/// How many threads this process has, one per `/proc/self/task` entry.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .count()
}

/// Feeds a plain and a windowed service over `prototype` [`ROUNDS`]
/// rounds of [`BATCHES`] wire batches, refreshing both after each round
/// and then sending one more batch before the windowed service seals.
/// The thread count is held to `base` after every refresh and seal.
fn check<S>(
    prototype: &S,
    mut report: impl FnMut(usize, &mut dyn RngCore) -> S::Report,
    base: usize,
    what: &str,
) where
    S: SnapshotSource,
    S::Report: WireReport,
{
    let mut rng = StdRng::seed_from_u64(4402);
    let plain = LdpService::new(prototype, 2).expect("service");
    let windowed = LdpService::windowed(prototype, 2, 2).expect("windowed service");
    let mut next = 0;
    let mut send = |batches: usize| {
        for _ in 0..batches {
            let mut batch = EncodedStream::new();
            for _ in 0..FRAMES {
                batch.push(&report(next, &mut rng));
                next += 1;
            }
            for accepted in [
                plain.submit_wire_batch(WIRE_V1, FRAMES as u64, batch.as_bytes()),
                windowed.submit_wire_batch(WIRE_V1, FRAMES as u64, batch.as_bytes()),
            ] {
                assert_eq!(accepted.expect("batch"), FRAMES as u64);
            }
        }
    };
    for round in 0..ROUNDS {
        send(BATCHES);
        let snap = plain.refresh_snapshot().expect("refresh");
        assert_eq!(
            snap.num_reports(),
            (((round + 1) * BATCHES + round) * FRAMES) as u64
        );
        assert_eq!(
            threads(),
            base,
            "{what}, round {round}: a plain refresh started a thread"
        );
        windowed.refresh_snapshot().expect("refresh");
        assert_eq!(
            threads(),
            base,
            "{what}, round {round}: a windowed refresh started a thread"
        );
        send(1);
        windowed.seal_epoch().expect("seal");
        assert_eq!(
            threads(),
            base,
            "{what}, round {round}: a seal started a thread"
        );
    }
    windowed.refresh_snapshot().expect("refresh");
    assert_eq!(
        threads(),
        base,
        "{what}: a refresh after the last seal started a thread"
    );
}

#[test]
fn no_refresh_drain_or_seal_starts_a_thread() {
    let base = threads();
    let eps = Epsilon::from_exp(3.0);

    let config = HhConfig::with_oracle(D, 4, eps, FrequencyOracle::Oue).expect("config");
    let client = HhClient::new(config.clone()).expect("client");
    check(
        &HhServer::new(config).expect("server"),
        |i, rng| client.report(i * 7919 % D, rng).expect("report"),
        base,
        "HH_4/OUE",
    );

    let config = HaarConfig::new(D, eps).expect("config");
    let client = HaarHrrClient::new(config.clone()).expect("client");
    check(
        &HaarHrrServer::new(config).expect("server"),
        |i, rng| client.report(i * 7919 % D, rng).expect("report"),
        base,
        "HaarHRR",
    );
}
