//! Property tests for the merge semantics underpinning the sharded
//! service: for every served mechanism (flat, `HH_B`, HaarHRR),
//! shard-merge is associative, commutative, and bit-identical to
//! single-threaded absorption.

use proptest::prelude::*;

use ldp_freq_oracle::{Epsilon, FrequencyOracle};
use ldp_ranges::{
    FlatClient, FlatConfig, FlatServer, HaarConfig, HaarHrrClient, HaarHrrServer, HhClient,
    HhConfig, HhServer, MergeableServer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ORACLES: [FrequencyOracle; 4] = [
    FrequencyOracle::Oue,
    FrequencyOracle::Olh,
    FrequencyOracle::Hrr,
    FrequencyOracle::Sue,
];

/// Absorbs `reports` into `shards` fresh servers round-robin, merges
/// right-to-left and left-to-right (associativity + commutativity probe),
/// absorbs sequentially into one server, and asserts all three states
/// estimate identically.
fn check_merge_invariants<S, F, E>(make: F, reports: &[S::Report], shards: usize, estimate: E)
where
    S: MergeableServer,
    F: Fn() -> S,
    E: Fn(&S) -> Vec<f64>,
{
    let mut sequential = make();
    for r in reports {
        sequential.absorb(r).unwrap();
    }

    let mut pool: Vec<S> = (0..shards).map(|_| make()).collect();
    for (i, r) in reports.iter().enumerate() {
        pool[i % shards].absorb(r).unwrap();
    }

    // Left fold: ((s0 ⊕ s1) ⊕ s2) ⊕ …
    let mut left = pool[0].clone();
    for s in &pool[1..] {
        left.merge(s).unwrap();
    }
    // Reversed fold: ((s_k ⊕ s_{k-1}) ⊕ …) ⊕ s0 — different order and
    // grouping; equality with the left fold witnesses associativity +
    // commutativity on this input.
    let mut right = pool[shards - 1].clone();
    for s in pool[..shards - 1].iter().rev() {
        right.merge(s).unwrap();
    }

    let seq_e = estimate(&sequential);
    let left_e = estimate(&left);
    let right_e = estimate(&right);
    assert_eq!(sequential.num_reports(), left.num_reports());
    assert_eq!(sequential.num_reports(), right.num_reports());
    for ((a, b), c) in seq_e.iter().zip(&left_e).zip(&right_e) {
        assert!(a.to_bits() == b.to_bits(), "left fold differs: {a} vs {b}");
        assert!(a.to_bits() == c.to_bits(), "right fold differs: {a} vs {c}");
    }
}

proptest! {
    #[test]
    fn flat_merge_is_exact_for_every_oracle(
        seed in 0u64..5_000,
        n in 1usize..300,
        shards in 1usize..7,
        oracle_idx in 0usize..4,
    ) {
        let eps = Epsilon::new(1.1);
        let config = FlatConfig::with_oracle(32, eps, ORACLES[oracle_idx]).unwrap();
        let client = FlatClient::new(&config).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let reports: Vec<_> =
            (0..n).map(|i| client.report(i % 32, &mut rng).unwrap()).collect();
        check_merge_invariants(
            || FlatServer::new(&config).unwrap(),
            &reports,
            shards,
            |s: &FlatServer| s.estimate().frequencies().to_vec(),
        );
    }

    #[test]
    fn hh_merge_is_exact(
        seed in 0u64..5_000,
        n in 1usize..300,
        shards in 1usize..7,
        oracle_idx in 0usize..4,
    ) {
        let eps = Epsilon::new(0.9);
        let config = HhConfig::with_oracle(64, 4, eps, ORACLES[oracle_idx]).unwrap();
        let client = HhClient::new(config.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let reports: Vec<_> =
            (0..n).map(|i| client.report((i * 7) % 64, &mut rng).unwrap()).collect();
        check_merge_invariants(
            || HhServer::new(config.clone()).unwrap(),
            &reports,
            shards,
            |s: &HhServer| s.estimate_consistent().to_frequency_estimate().frequencies().to_vec(),
        );
    }

    #[test]
    fn haar_hrr_merge_is_exact(
        seed in 0u64..5_000,
        n in 1usize..300,
        shards in 1usize..7,
    ) {
        let eps = Epsilon::new(1.1);
        let config = HaarConfig::new(128, eps).unwrap();
        let client = HaarHrrClient::new(config.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let reports: Vec<_> =
            (0..n).map(|i| client.report((i * 11) % 128, &mut rng).unwrap()).collect();
        check_merge_invariants(
            || HaarHrrServer::new(config.clone()).unwrap(),
            &reports,
            shards,
            |s: &HaarHrrServer| s.estimate().to_frequency_estimate().frequencies().to_vec(),
        );
    }

    #[test]
    fn merge_rejects_mismatched_shapes(seed in 0u64..1_000) {
        let _ = seed;
        let eps = Epsilon::new(1.0);
        let mut a = HhServer::new(HhConfig::new(64, 2, eps).unwrap()).unwrap();
        let b = HhServer::new(HhConfig::new(64, 4, eps).unwrap()).unwrap();
        prop_assert!(a.merge(&b).is_err());
        let mut x = HaarHrrServer::new(HaarConfig::new(64, eps).unwrap()).unwrap();
        let y = HaarHrrServer::new(HaarConfig::new(32, eps).unwrap()).unwrap();
        prop_assert!(x.merge(&y).is_err());
    }
}
