//! The `PointOracle::estimate_into` contract: the one estimator body of
//! every oracle overwrites every slot of the buffer it is handed —
//! whatever the buffer held, with or without reports — and writes exactly
//! what `estimate()` returns, bit for bit.
//!
//! Buffers start as NaN, so a slot the estimator skips (an early return
//! on an empty oracle, an accumulate-into instead of a write) fails here.
//!
//! HRR's estimator is also held, bit for bit, to the textbook inverse
//! written out here: `estimate()` shares its body, so the slot contract
//! alone cannot see a wrong scale.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ldp_freq_oracle::{AnyOracle, Epsilon, FrequencyOracle, Hrr, Olh, Oue, PointOracle, Sue};
use ldp_transforms::fwht_scalar;
use rand::rngs::StdRng;
use rand::SeedableRng;

const DOMAINS: [usize; 5] = [1, 2, 8, 64, 1024];

/// Fills a NaN buffer through `estimate_into` and holds every slot to
/// `estimate()`.
fn assert_overwrites_every_slot<O: PointOracle>(oracle: &O, what: &str) {
    let mut out = vec![f64::NAN; oracle.domain()];
    oracle.estimate_into(&mut out);
    let want = oracle.estimate();
    assert_eq!(want.len(), oracle.domain(), "{what}: estimate length");
    for (z, (got, want)) in out.iter().zip(&want).enumerate() {
        assert!(!got.is_nan(), "{what}: slot {z} left unwritten");
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{what}: slot {z}: {got} vs {want}"
        );
    }
}

/// The contract on `oracle` empty, after `reports` per-user reports, and
/// after those reports are subtracted back out (zero reports again, with
/// state that once held some).
fn check<O: PointOracle + Clone>(
    mut oracle: O,
    subtract: fn(&mut O, &O) -> Result<(), ldp_freq_oracle::OracleError>,
    name: &str,
    seed: u64,
) {
    let domain = oracle.domain();
    assert_overwrites_every_slot(&oracle, &format!("{name} D={domain} empty"));
    let empty = oracle.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..200usize {
        let report = oracle.encode((i * i) % domain, &mut rng).unwrap();
        oracle.absorb(&report).unwrap();
    }
    assert_overwrites_every_slot(&oracle, &format!("{name} D={domain} 200 reports"));
    let populated = oracle.clone();
    let mut drained = populated.clone();
    subtract(&mut drained, &populated).unwrap();
    assert_eq!(drained.num_reports(), 0);
    assert_overwrites_every_slot(&drained, &format!("{name} D={domain} drained"));
    assert_eq!(drained.estimate(), empty.estimate(), "{name} D={domain}");
}

#[test]
fn every_oracle_overwrites_every_slot_with_and_without_reports() {
    let eps = Epsilon::from_exp(3.0);
    for (k, domain) in DOMAINS.into_iter().enumerate() {
        let seed = 3200 + k as u64;
        check(Oue::new(domain, eps).unwrap(), Oue::subtract, "OUE", seed);
        check(Sue::new(domain, eps).unwrap(), Sue::subtract, "SUE", seed);
        check(Olh::new(domain, eps).unwrap(), Olh::subtract, "OLH", seed);
        check(Hrr::new(domain, eps).unwrap(), Hrr::subtract, "HRR", seed);
    }
}

#[test]
fn any_oracle_overwrites_every_slot_with_and_without_reports() {
    let eps = Epsilon::from_exp(3.0);
    for kind in [
        FrequencyOracle::Oue,
        FrequencyOracle::Sue,
        FrequencyOracle::Olh,
        FrequencyOracle::Hrr,
    ] {
        for (k, domain) in DOMAINS.into_iter().enumerate() {
            let oracle = AnyOracle::new(kind, domain, eps).unwrap();
            check(
                oracle,
                AnyOracle::subtract,
                &format!("Any({kind})"),
                3300 + k as u64,
            );
        }
    }
}

/// The textbook HRR decode `θ = φ⁻¹·m̂`: scale each ±1 sum into the
/// coefficient estimate `m̂_j = D·s_j / (N(2p−1))`, run the scalar FWHT,
/// then multiply by `1/D`.
fn textbook_hrr_estimate(oracle: &Hrr) -> Vec<f64> {
    let domain = oracle.domain();
    let reports = oracle.num_reports();
    if reports == 0 {
        return vec![0.0; domain];
    }
    let scale = domain as f64 / (reports as f64 * (2.0 * oracle.keep_prob() - 1.0));
    let mut theta: Vec<f64> = oracle.sums().iter().map(|&s| s as f64 * scale).collect();
    fwht_scalar(&mut theta);
    let inv = 1.0 / domain as f64;
    for v in &mut theta {
        *v *= inv;
    }
    theta
}

fn assert_matches_textbook(oracle: &Hrr, what: &str) {
    let mut out = vec![f64::NAN; oracle.domain()];
    oracle.estimate_into(&mut out);
    let want = textbook_hrr_estimate(oracle);
    for (z, (got, want)) in out.iter().zip(&want).enumerate() {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{what}: slot {z}: {got} vs {want}"
        );
    }
}

#[test]
fn hrr_estimate_into_matches_the_textbook_inverse_bit_for_bit() {
    for (e, exp_eps) in [1.5, 3.0, 9.0].into_iter().enumerate() {
        let eps = Epsilon::from_exp(exp_eps);
        for k in 0..=16u32 {
            let domain = 1usize << k;
            let what = format!("HRR e^eps={exp_eps} D={domain}");
            let seed = 3400 + 100 * e as u64 + u64::from(k);
            let mut rng = StdRng::seed_from_u64(seed);

            let mut users = Hrr::new(domain, eps).unwrap();
            for i in 0..200usize {
                let report = users.encode((i * i + 7 * i) % domain, &mut rng).unwrap();
                users.absorb(&report).unwrap();
            }
            assert_matches_textbook(&users, &format!("{what} 200 reports"));

            // ≈10^6 users, three quarters on the all-ones value: half of
            // the coefficients of that value are −1, so those sums come
            // out negative (by ~10^5 at small D, where each index gathers
            // hundreds of thousands of reports).
            let mut counts = vec![1_000_000 / (4 * domain as u64); domain];
            counts[domain - 1] += 750_000;
            let mut population = Hrr::new(domain, eps).unwrap();
            population.absorb_population(&counts, &mut rng).unwrap();
            if domain > 1 {
                let most_negative = population.sums().iter().min().copied().unwrap();
                assert!(most_negative < 0, "{what}: min sum {most_negative}");
            }
            assert_matches_textbook(&population, &format!("{what} population"));

            let mut drained = population.clone();
            drained.subtract(&population).unwrap();
            assert_eq!(drained.num_reports(), 0);
            assert_matches_textbook(&drained, &format!("{what} drained"));
        }
    }
}

#[test]
fn a_buffer_of_the_wrong_length_is_refused() {
    let eps = Epsilon::from_exp(3.0);
    for kind in [
        FrequencyOracle::Oue,
        FrequencyOracle::Sue,
        FrequencyOracle::Olh,
        FrequencyOracle::Hrr,
    ] {
        let oracle = AnyOracle::new(kind, 8, eps).unwrap();
        for len in [7, 9] {
            let mut out = vec![0.0; len];
            let refused = catch_unwind(AssertUnwindSafe(|| oracle.estimate_into(&mut out)));
            assert!(refused.is_err(), "{kind}: a {len}-slot buffer was accepted");
        }
    }
}
