//! End-to-end integration: every mechanism, both protocol paths, against
//! exact ground truth.

use ldp_range_queries::oracle::frequency_oracle_variance;
use ldp_range_queries::prelude::*;
use ldp_range_queries::ranges::theory::haar_range_variance_bound;
use ldp_range_queries::ranges::{FlatClient, HaarHrrClient};
use ldp_range_queries::transforms::decompose_range;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Two-sided z of the theory-sized range checks below: the `HH_B` test
/// makes 3 fanouts × 2 estimates × 5 ranges = 30 of them and the Haar test
/// 5, and 35 × P(|N(0,1)| > 4.75) ≈ 7.1·10⁻⁵ keeps the family-wise
/// false-failure rate of the two under 10⁻⁴.
const Z: f64 = 4.75;

fn cauchy(domain: usize, n: u64, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    Dataset::sample(
        DistributionKind::Cauchy(CauchyParams::paper_default()),
        domain,
        n,
        &mut rng,
    )
}

/// Checks an estimate against ground truth on a spread of ranges, each
/// within `tol(a, b)`.
fn assert_close_on_ranges<E: RangeEstimate>(
    est: &E,
    ds: &Dataset,
    tol: impl Fn(usize, usize) -> f64,
    label: &str,
) {
    let d = ds.domain();
    for (a, b) in [
        (0, d - 1),
        (0, d / 2),
        (d / 4, 3 * d / 4),
        (d / 8, d / 8 + d / 16),
        (d - d / 8, d - 1),
    ] {
        let got = est.range(a, b);
        let want = ds.true_range(a, b);
        // Float slack on top: a range the root alone answers has no noise.
        let tol = tol(a, b) + 1e-9;
        assert!(
            (got - want).abs() <= tol,
            "{label}: range [{a},{b}] estimated {got}, truth {want}, tolerance {tol}"
        );
    }
}

/// `Z` standard deviations of an `HH_B`/OUE range answer, from the
/// range's own B-adic decomposition. Each estimated node (the root is
/// pinned at 1) rests on the ≈ N/h users that sampled its level; per
/// such user an OUE node of true fraction `f` adds variance
/// `[f·p(1−p) + (1−f)·q(1−q)]/(p−q)² + f(1−f)` (the oracle's noise plus
/// who landed on the level), which with `p = 1/2` peaks at `f = 1`, a
/// factor `(1+e^ε)²/(4e^ε)` above `VF·N`. Nodes of one level covary
/// negatively and levels are independent, so a range's variance is at
/// most nodes × h × VF × that factor. Constrained inference is the
/// least-squares projection of the same tree and does not raise it
/// (Lemma 4.6), so one bound serves both estimates.
fn hh_tolerance(config: &HhConfig, n: u64) -> impl Fn(usize, usize) -> f64 {
    let exp_eps = config.epsilon.exp();
    let node_var = f64::from(config.height)
        * frequency_oracle_variance(config.epsilon, n)
        * (1.0 + exp_eps).powi(2)
        / (4.0 * exp_eps);
    let shape = config.shape();
    move |a, b| {
        let nodes = decompose_range(&shape, a, b)
            .iter()
            .filter(|node| node.depth > 0)
            .count();
        Z * (nodes as f64 * node_var).sqrt()
    }
}

#[test]
fn flat_mechanism_per_user_and_population_paths() {
    let domain = 128;
    let ds = cauchy(domain, 40_000, 1);
    let eps = Epsilon::from_exp(3.0);
    let config = FlatConfig::new(domain, eps).unwrap();

    // Per-user path.
    let client = FlatClient::new(&config).unwrap();
    let mut server = FlatServer::new(&config).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    for (v, &c) in ds.counts().iter().enumerate() {
        for _ in 0..c {
            server.absorb(&client.report(v, &mut rng).unwrap()).unwrap();
        }
    }
    // Fact 1: flat ranges accumulate one VF per item, so the full-domain
    // query has sd ≈ sqrt(D·VF) ≈ 0.1 here — tolerances sized accordingly.
    assert_eq!(server.num_reports(), ds.population());
    assert_close_on_ranges(&server.estimate(), &ds, |_, _| 0.35, "flat per-user");

    // Population path.
    let mut server2 = FlatServer::new(&config).unwrap();
    server2.absorb_population(ds.counts(), &mut rng).unwrap();
    assert_close_on_ranges(&server2.estimate(), &ds, |_, _| 0.35, "flat population");
}

#[test]
fn hierarchical_mechanism_full_protocol() {
    let domain = 256;
    let ds = cauchy(domain, 60_000, 3);
    let eps = Epsilon::from_exp(3.0);
    for fanout in [2usize, 4, 16] {
        let config = HhConfig::new(domain, fanout, eps).unwrap();
        let client = HhClient::new(config.clone()).unwrap();
        let mut server = HhServer::new(config).unwrap();
        let mut rng = StdRng::seed_from_u64(4 + fanout as u64);
        for (v, &c) in ds.counts().iter().enumerate() {
            for _ in 0..c {
                server.absorb(&client.report(v, &mut rng).unwrap()).unwrap();
            }
        }
        let tol = hh_tolerance(server.config(), ds.population());
        let raw = server.estimate();
        let ci = server.estimate_consistent();
        assert_close_on_ranges(&raw, &ds, &tol, &format!("HH{fanout} raw"));
        assert_close_on_ranges(&ci, &ds, &tol, &format!("HH{fanout} CI"));
        assert!(ci.consistency_violation() < 1e-9);
    }
}

#[test]
fn haar_mechanism_full_protocol() {
    let domain = 256;
    let ds = cauchy(domain, 60_000, 5);
    let eps = Epsilon::from_exp(3.0);
    let config = HaarConfig::new(domain, eps).unwrap();
    let client = HaarHrrClient::new(config.clone()).unwrap();
    let mut server = HaarHrrServer::new(config).unwrap();
    let mut rng = StdRng::seed_from_u64(6);
    for (v, &c) in ds.counts().iter().enumerate() {
        for _ in 0..c {
            server.absorb(&client.report(v, &mut rng).unwrap()).unwrap();
        }
    }
    let est = server.estimate();
    // Eq. 3: every HaarHRR range answer has variance ≤ log₂(D)²·VF/2,
    // whatever its length.
    let sd =
        haar_range_variance_bound(frequency_oracle_variance(eps, ds.population()), domain).sqrt();
    assert_close_on_ranges(&est, &ds, |_, _| Z * sd, "HaarHRR");
    // Total mass is pinned exactly.
    assert!((est.range(0, domain - 1) - 1.0).abs() < 1e-12);
}

#[test]
fn tree_methods_beat_flat_on_long_ranges_at_scale() {
    // Fact 1 vs Theorem 4.3/Eq. 3: on a large domain the flat method's
    // long-range error must exceed the tree methods'.
    let domain = 1 << 12;
    let ds = cauchy(domain, 1 << 20, 7);
    let eps = Epsilon::from_exp(3.0);
    let mut rng = StdRng::seed_from_u64(8);

    let reps = 5;
    let r = domain / 2;
    let probe: Vec<(usize, usize)> = (0..64)
        .map(|i| (i * (domain - r) / 64, i * (domain - r) / 64 + r - 1))
        .collect();

    let mse_of = |est: &dyn RangeEstimate, ds: &Dataset| -> f64 {
        probe
            .iter()
            .map(|&(a, b)| {
                let e = est.range(a, b) - ds.true_range(a, b);
                e * e
            })
            .sum::<f64>()
            / probe.len() as f64
    };

    let mut flat_mse = 0.0;
    let mut hh_mse = 0.0;
    let mut haar_mse = 0.0;
    for _ in 0..reps {
        let fc = FlatConfig::new(domain, eps).unwrap();
        let mut fs = FlatServer::new(&fc).unwrap();
        fs.absorb_population(ds.counts(), &mut rng).unwrap();
        flat_mse += mse_of(&fs.estimate(), &ds);

        let hc = HhConfig::new(domain, 4, eps).unwrap();
        let mut hs = HhServer::new(hc).unwrap();
        hs.absorb_population(ds.counts(), &mut rng).unwrap();
        hh_mse += mse_of(&hs.estimate_consistent(), &ds);

        let cc = HaarConfig::new(domain, eps).unwrap();
        let mut cs = HaarHrrServer::new(cc).unwrap();
        cs.absorb_population(ds.counts(), &mut rng).unwrap();
        haar_mse += mse_of(&cs.estimate().to_frequency_estimate(), &ds);
    }
    assert!(
        flat_mse > 4.0 * hh_mse,
        "flat {flat_mse} should be ≫ consistent HH {hh_mse} on long ranges"
    );
    assert!(
        flat_mse > 4.0 * haar_mse,
        "flat {flat_mse} should be ≫ HaarHRR {haar_mse} on long ranges"
    );
}

#[test]
fn flat_wins_point_queries_small_domain() {
    // The other side of the trade-off (paper §5.1): for r = 1 the flat
    // method is competitive/best, since all users report at leaf level.
    let domain = 256;
    let ds = cauchy(domain, 1 << 18, 9);
    let eps = Epsilon::from_exp(3.0);
    let mut rng = StdRng::seed_from_u64(10);
    let reps = 8;

    let point_mse = |est: &dyn RangeEstimate, ds: &Dataset| -> f64 {
        (0..domain)
            .map(|z| {
                let e = est.range(z, z) - ds.true_range(z, z);
                e * e
            })
            .sum::<f64>()
            / domain as f64
    };

    let mut flat_mse = 0.0;
    let mut hh2_mse = 0.0;
    for _ in 0..reps {
        let fc = FlatConfig::new(domain, eps).unwrap();
        let mut fs = FlatServer::new(&fc).unwrap();
        fs.absorb_population(ds.counts(), &mut rng).unwrap();
        flat_mse += point_mse(&fs.estimate(), &ds);

        let hc = HhConfig::new(domain, 2, eps).unwrap();
        let mut hs = HhServer::new(hc).unwrap();
        hs.absorb_population(ds.counts(), &mut rng).unwrap();
        hh2_mse += point_mse(&hs.estimate(), &ds);
    }
    assert!(
        flat_mse < hh2_mse,
        "flat point MSE {flat_mse} should beat raw HH2 {hh2_mse} (level sampling splits \
         the population over 8 levels)"
    );
}

#[test]
fn population_and_user_paths_agree_statistically() {
    // Same protocol, two simulation fidelities: estimates must agree in
    // expectation. We compare averaged estimates across repetitions.
    let domain = 64;
    let ds = cauchy(domain, 20_000, 11);
    let eps = Epsilon::new(1.1);
    let config = HhConfig::new(domain, 4, eps).unwrap();
    let reps = 30;

    let mut user_mean = vec![0.0; domain];
    let mut pop_mean = vec![0.0; domain];
    let mut rng = StdRng::seed_from_u64(12);
    for _ in 0..reps {
        let client = HhClient::new(config.clone()).unwrap();
        let mut s1 = HhServer::new(config.clone()).unwrap();
        for (v, &c) in ds.counts().iter().enumerate() {
            for _ in 0..c {
                s1.absorb(&client.report(v, &mut rng).unwrap()).unwrap();
            }
        }
        let e1 = s1.estimate_consistent().to_frequency_estimate();

        let mut s2 = HhServer::new(config.clone()).unwrap();
        s2.absorb_population(ds.counts(), &mut rng).unwrap();
        let e2 = s2.estimate_consistent().to_frequency_estimate();

        for z in 0..domain {
            user_mean[z] += e1.point(z) / f64::from(reps);
            pop_mean[z] += e2.point(z) / f64::from(reps);
        }
    }
    for z in 0..domain {
        assert!(
            (user_mean[z] - pop_mean[z]).abs() < 0.02,
            "item {z}: user-path mean {} vs population-path mean {}",
            user_mean[z],
            pop_mean[z]
        );
    }
}
