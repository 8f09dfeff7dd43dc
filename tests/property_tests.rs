//! Property-based tests (proptest) over the core data structures and
//! invariants, spanning crates.

use proptest::prelude::*;

use ldp_range_queries::oracle::binomial::{sample_multinomial, sample_uniform_multinomial};
use ldp_range_queries::prelude::*;
use ldp_range_queries::transforms::{
    decompose_range, fwht, haar_forward, haar_inverse, CompleteTree, FlatTree, HaarPyramid,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The inverse Walsh–Hadamard transform `x ← (1/D)·φ·x`: `fwht`, then
/// divide by `D`.
fn fwht_inverse(data: &mut [f64]) {
    fwht(data);
    let scale = 1.0 / data.len() as f64;
    data.iter_mut().for_each(|v| *v *= scale);
}

proptest! {
    #[test]
    fn fwht_roundtrips_any_vector(
        log in 0u32..8,
        seedvals in proptest::collection::vec(-100.0f64..100.0, 256),
    ) {
        let n = 1usize << log;
        let x: Vec<f64> = seedvals[..n].to_vec();
        let mut y = x.clone();
        fwht(&mut y);
        fwht_inverse(&mut y);
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn haar_roundtrips_any_vector(
        log in 0u32..8,
        seedvals in proptest::collection::vec(-100.0f64..100.0, 256),
    ) {
        let n = 1usize << log;
        let x: Vec<f64> = seedvals[..n].to_vec();
        let y = haar_inverse(&haar_forward(&x));
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn haar_pyramid_ranges_match_direct_sums(
        log in 1u32..8,
        seedvals in proptest::collection::vec(0.0f64..10.0, 256),
        a_frac in 0.0f64..1.0,
        b_frac in 0.0f64..1.0,
    ) {
        let n = 1usize << log;
        let x: Vec<f64> = seedvals[..n].to_vec();
        let p = HaarPyramid::from_leaves(&x);
        let mut a = (a_frac * n as f64) as usize % n;
        let mut b = (b_frac * n as f64) as usize % n;
        if a > b { std::mem::swap(&mut a, &mut b); }
        let truth: f64 = x[a..=b].iter().sum();
        prop_assert!((p.range_sum(a, b) - truth).abs() < 1e-9);
    }

    #[test]
    fn decomposition_partitions_any_range(
        fanout in 2usize..9,
        height in 1u32..5,
        a_frac in 0.0f64..1.0,
        b_frac in 0.0f64..1.0,
    ) {
        let domain = fanout.pow(height);
        let shape = CompleteTree::new(fanout, domain);
        let mut a = (a_frac * domain as f64) as usize % domain;
        let mut b = (b_frac * domain as f64) as usize % domain;
        if a > b { std::mem::swap(&mut a, &mut b); }
        let nodes = decompose_range(&shape, a, b);
        // Tiles exactly, in order.
        let mut cursor = a;
        for n in &nodes {
            let blk = n.block(&shape);
            prop_assert_eq!(blk.start, cursor);
            cursor = blk.end;
        }
        prop_assert_eq!(cursor, b + 1);
        // Per-level count bound 2(B−1).
        let mut per_depth = std::collections::HashMap::new();
        for n in &nodes {
            *per_depth.entry(n.depth).or_insert(0usize) += 1;
        }
        for (_, c) in per_depth {
            prop_assert!(c <= 2 * (fanout - 1));
        }
    }

    #[test]
    fn consistency_projection_invariants(
        fanout in 2usize..6,
        height in 1u32..5,
        seed in 0u64..1_000,
    ) {
        let shape = CompleteTree::with_height(fanout, height);
        // Random-ish per-level values from a seeded RNG.
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree: FlatTree<f64> = FlatTree::new(shape);
        *tree.get_mut(0, 0) = 1.0;
        for d in 1..=height {
            let n = shape.nodes_at_depth(d);
            for i in 0..n {
                *tree.get_mut(d, i) = 1.0 / n as f64 + rng.random_range(-0.05..0.05);
            }
        }
        ldp_range_queries::ranges::hh::consistency::enforce_consistency(&mut tree);
        // Invariant 1: parent = sum of children, everywhere.
        for d in 0..height {
            for i in 0..shape.nodes_at_depth(d) {
                let child_sum: f64 = shape.children(d, i).map(|c| *tree.get(d + 1, c)).sum();
                prop_assert!((tree.get(d, i) - child_sum).abs() < 1e-9);
            }
        }
        // Invariant 2: every level totals exactly the root mass of 1.
        for d in 0..=height {
            let s: f64 = tree.level(d).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn multinomial_conserves_trials(
        n in 0u64..100_000,
        k in 1usize..32,
        seed in 0u64..1_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let counts = sample_uniform_multinomial(&mut rng, n, k);
        prop_assert_eq!(counts.len(), k);
        prop_assert_eq!(counts.iter().sum::<u64>(), n);
    }

    #[test]
    fn weighted_multinomial_conserves_trials(
        n in 0u64..50_000,
        weights in proptest::collection::vec(0.01f64..10.0, 1..16),
        seed in 0u64..1_000,
    ) {
        let total: f64 = weights.iter().sum();
        let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let counts = sample_multinomial(&mut rng, n, &probs);
        prop_assert_eq!(counts.iter().sum::<u64>(), n);
    }

    #[test]
    fn quantile_search_matches_linear_scan(
        freqs in proptest::collection::vec(0.0f64..1.0, 2..128),
        phi in 0.0f64..=1.0,
    ) {
        let total: f64 = freqs.iter().sum();
        prop_assume!(total > 0.0);
        let norm: Vec<f64> = freqs.iter().map(|f| f / total).collect();
        let est = ldp_range_queries::ranges::FrequencyEstimate::new(norm);
        let fast = quantile(&est, phi);
        let scan = (0..est.domain())
            .find(|&j| est.prefix(j) >= phi)
            .unwrap_or(est.domain() - 1);
        prop_assert_eq!(fast, scan);
    }

    #[test]
    fn dataset_range_answers_are_consistent(
        counts in proptest::collection::vec(0u64..1_000, 2..64),
    ) {
        let ds = Dataset::from_counts(counts.clone());
        let d = counts.len();
        // Ranges built from prefixes agree with direct summation.
        let total: u64 = counts.iter().sum();
        prop_assume!(total > 0);
        for (a, b) in [(0, d - 1), (0, d / 2), (d / 3, 2 * d / 3)] {
            let direct: u64 = counts[a..=b].iter().sum();
            let frac = direct as f64 / total as f64;
            prop_assert!((ds.true_range(a, b) - frac).abs() < 1e-12);
        }
        // CDF is monotone and ends at 1.
        let cdf = ds.cdf();
        for w in cdf.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
        prop_assert!((cdf[d - 1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn haar_mechanism_estimate_is_self_consistent(
        seed in 0u64..200,
        log in 2u32..7,
    ) {
        // For ANY noise realization, the Haar estimate must agree with its
        // own collapsed frequencies on every dyadic block — consistency by
        // design (§4.6).
        let domain = 1usize << log;
        let mut rng = StdRng::seed_from_u64(seed);
        let ds = Dataset::from_counts(vec![50u64; domain]);
        let config = HaarConfig::new(domain, Epsilon::new(0.5)).unwrap();
        let mut server = HaarHrrServer::new(config).unwrap();
        server.absorb_population(ds.counts(), &mut rng).unwrap();
        let est = server.estimate();
        let flat = est.to_frequency_estimate();
        for d in 0..=log {
            let block = domain >> d;
            for t in 0..(1usize << d) {
                let (a, b) = (t * block, (t + 1) * block - 1);
                prop_assert!((est.range(a, b) - flat.range(a, b)).abs() < 1e-9);
            }
        }
    }
}
