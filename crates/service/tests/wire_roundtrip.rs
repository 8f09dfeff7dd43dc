//! Fuzz-style wire-format round-trip tests: random reports of every served
//! type (flat, `HH_B`, HaarHRR) over random configurations must encode →
//! decode → re-encode to identical bytes, and the decoded report must be
//! semantically identical (absorbing original vs decoded leaves identical
//! server state).

use proptest::prelude::*;

use ldp_freq_oracle::{Epsilon, FrequencyOracle};
use ldp_ranges::{
    FlatClient, FlatConfig, FlatServer, HaarConfig, HaarHrrClient, HaarHrrServer, HhClient,
    HhConfig, HhServer, MergeableServer,
};
use ldp_service::{decode_frame, WireReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ORACLES: [FrequencyOracle; 3] = [
    FrequencyOracle::Oue,
    FrequencyOracle::Olh,
    FrequencyOracle::Hrr,
];

/// Byte-level and semantic round trip for one report.
fn check_roundtrip<T, S>(report: &T, server: &S)
where
    T: WireReport,
    S: MergeableServer<Report = T> + Clone,
{
    let frame = report.to_frame();
    let (decoded, used) = decode_frame::<T>(&frame).expect("decode own encoding");
    assert_eq!(used, frame.len(), "frame not fully consumed");
    assert_eq!(
        decoded.to_frame(),
        frame,
        "re-encode produced different bytes"
    );

    let mut a = server.clone();
    let mut b = server.clone();
    a.absorb(report).expect("absorb original");
    b.absorb(&decoded).expect("absorb decoded");
    assert_eq!(a.num_reports(), b.num_reports());
}

proptest! {
    #[test]
    fn flat_reports_roundtrip(
        seed in 0u64..100_000,
        log_domain in 1u32..9,
        oracle_idx in 0..ORACLES.len(),
        eps_v in 0.2f64..3.0,
    ) {
        let domain = 1usize << log_domain;
        let config =
            FlatConfig::with_oracle(domain, Epsilon::new(eps_v), ORACLES[oracle_idx]).unwrap();
        let client = FlatClient::new(&config).unwrap();
        let server = FlatServer::new(&config).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let report = client.report(seed as usize % domain, &mut rng).unwrap();
        check_roundtrip(&report, &server);
    }

    #[test]
    fn flat_reports_roundtrip_on_odd_domains(
        seed in 0u64..100_000,
        domain in 2usize..200,
        eps_v in 0.2f64..3.0,
    ) {
        // Non-power-of-two domains exercise the unary tail-bit masking
        // (OUE) and OLH; HRR requires powers of two and is covered
        // above.
        let oracle = if seed % 3 == 0 { FrequencyOracle::Olh } else { FrequencyOracle::Oue };
        let config = FlatConfig::with_oracle(domain, Epsilon::new(eps_v), oracle).unwrap();
        let client = FlatClient::new(&config).unwrap();
        let server = FlatServer::new(&config).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let report = client.report(seed as usize % domain, &mut rng).unwrap();
        check_roundtrip(&report, &server);
    }

    #[test]
    fn hh_reports_roundtrip(
        seed in 0u64..100_000,
        oracle_idx in 0..ORACLES.len(),
        fanout_pow in 1u32..3,
    ) {
        let fanout = 1usize << fanout_pow; // 2 or 4: power-of-two for HRR
        let domain = fanout.pow(3);
        let config =
            HhConfig::with_oracle(domain, fanout, Epsilon::new(1.1), ORACLES[oracle_idx])
                .unwrap();
        let client = HhClient::new(config.clone()).unwrap();
        let server = HhServer::new(config).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let report = client.report(seed as usize % domain, &mut rng).unwrap();
        check_roundtrip(&report, &server);
    }

    #[test]
    fn haar_hrr_reports_roundtrip(seed in 0u64..100_000, log_domain in 1u32..10) {
        let domain = 1usize << log_domain;
        let config = HaarConfig::new(domain, Epsilon::new(1.1)).unwrap();
        let client = HaarHrrClient::new(config.clone()).unwrap();
        let server = HaarHrrServer::new(config).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let report = client.report(seed as usize % domain, &mut rng).unwrap();
        check_roundtrip(&report, &server);
    }

    #[test]
    fn random_bytes_never_panic_the_decoder(
        bytes in proptest::collection::vec(0u64..256, 0..64),
    ) {
        // Totality fuzz: arbitrary byte soup must produce Ok or Err, never
        // a panic. (Values are folded into u8s.)
        let buf: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        let _ = decode_frame::<ldp_ranges::HhReport>(&buf);
        let _ = decode_frame::<ldp_ranges::HaarHrrReport>(&buf);
        let _ = decode_frame::<ldp_freq_oracle::AnyReport>(&buf);
        // And with a valid header grafted on, the payload parser is fuzzed.
        let mut framed = vec![b'L', b'Q', 1, 0];
        framed.extend_from_slice(&buf);
        let _ = decode_frame::<ldp_freq_oracle::AnyReport>(&framed);
    }
}
