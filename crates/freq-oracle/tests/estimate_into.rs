//! The `PointOracle::estimate_into` contract: the one estimator body of
//! every oracle overwrites every slot of the buffer it is handed —
//! whatever the buffer held, with or without reports — and writes exactly
//! what `estimate()` returns, bit for bit.
//!
//! Buffers start as NaN, so a slot the estimator skips (an early return
//! on an empty oracle, an accumulate-into instead of a write) fails here.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ldp_freq_oracle::{AnyOracle, Epsilon, FrequencyOracle, Hrr, Olh, Oue, PointOracle, Sue};
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
