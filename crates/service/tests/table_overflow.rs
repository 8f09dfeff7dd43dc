//! A restored state whose prefix tables would leave `i64` is refused with
//! a typed error, and nothing panics or wraps.
//!
//! A checkpoint's tally bodies are checked only against their report
//! totals (each count, or each signed sum's magnitude, at most `N`), so a
//! crafted one can hold a level whose prefixes reach `N·n` — or, for
//! HRR, `Σ|s|·n` after the integer transform — beyond `i64`. Each state
//! here is written as the bytes `persist_state` would write and loaded
//! with `PersistableServer::restore_state`:
//!
//! * past the bound — an `HH_4` level over OUE or HRR, or a HaarHRR
//!   depth — building a service over it fails with
//!   `StatisticOverflow` inside `ServiceError::Range`, and so does
//!   `RangeSnapshot::try_freeze` (`RangeSnapshot::freeze` answers from
//!   the float freeze instead);
//! * just inside it, the service builds, and one more report takes the
//!   level past it: the refresh fails with the same typed error, and a
//!   QUERY over the socket gets a typed `BadState` reply.

use std::sync::Arc;

use ldp_freq_oracle::{put_varint, Epsilon, FrequencyOracle, OracleError};
use ldp_ranges::{
    FlatClient, FlatConfig, FlatServer, HaarConfig, HaarHrrServer, HhConfig, HhServer,
    PersistableServer, RangeError, RangeEstimate, StateReader,
};
use ldp_service::net::{ErrorCode, Hello, NetConfig};
use ldp_service::{
    EncodedStream, LdpClient, LdpServer, LdpService, NetError, RangeSnapshot, ServiceError,
    SnapshotSource,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn eps() -> Epsilon {
    Epsilon::from_exp(3.0)
}

/// One level's tally body behind its kind's tag, every statistic `stat`.
fn put_level(out: &mut Vec<u8>, oracle: FrequencyOracle, items: usize, reports: u64, stat: i64) {
    out.push(oracle.tag());
    put_body(out, oracle, items, reports, stat);
}

/// One level's tally body, untagged as HaarHRR writes it.
fn put_body(out: &mut Vec<u8>, oracle: FrequencyOracle, items: usize, reports: u64, stat: i64) {
    put_varint(out, reports);
    let code = match oracle {
        FrequencyOracle::Hrr => ((stat << 1) ^ (stat >> 63)) as u64,
        _ => stat as u64,
    };
    for _ in 0..items {
        put_varint(out, code);
    }
}

fn restored<S: PersistableServer>(empty: &S, bytes: &[u8]) -> S {
    let mut state = empty.clone();
    state
        .restore_state(&mut StateReader::new(bytes))
        .expect("the checkpoint rules accept it");
    state
}

fn is_overflow<T>(result: Result<T, ServiceError>) -> bool {
    matches!(
        result,
        Err(ServiceError::Range(RangeError::Oracle(
            OracleError::StatisticOverflow
        )))
    )
}

/// An `HH_4` state over 64 items whose leaf level (64 items) is past the
/// bound: OUE with `N·64 > 2^63`, HRR with `Σ|s|·64 > 2^63`; the shallower
/// levels are empty.
fn overflowing_hh(oracle: FrequencyOracle) -> (HhServer, Vec<u8>) {
    let config = HhConfig::with_oracle(64, 4, eps(), oracle).unwrap();
    let empty = HhServer::new(config).unwrap();
    let mut bytes = Vec::new();
    put_level(&mut bytes, oracle, 4, 0, 0);
    put_level(&mut bytes, oracle, 16, 0, 0);
    match oracle {
        // Σ|s| = 64·2^51 = 2^57: Σ|s|·64 = 2^63.
        FrequencyOracle::Hrr => put_level(&mut bytes, oracle, 64, 1 << 51, -(1 << 51)),
        // N = 2^57 + 1: N·64 = 2^63 + 64.
        _ => put_level(&mut bytes, oracle, 64, (1 << 57) + 1, 1 << 56),
    }
    (empty, bytes)
}

/// A HaarHRR state over 64 items whose deepest depth (32 nodes) is past
/// the bound: `Σ|s|·32 = 32·2^53·32 = 2^63`; the shallower depths are
/// empty.
fn overflowing_haar() -> (HaarHrrServer, Vec<u8>) {
    let empty = HaarHrrServer::new(HaarConfig::new(64, eps()).unwrap()).unwrap();
    let mut bytes = Vec::new();
    for depth in 0..5 {
        put_body(&mut bytes, FrequencyOracle::Hrr, 1 << depth, 0, 0);
    }
    put_body(&mut bytes, FrequencyOracle::Hrr, 32, 1 << 53, 1 << 53);
    (empty, bytes)
}

/// The service over the restored state and `try_freeze` are refused
/// typed; `freeze` answers from the float freeze.
fn assert_refused<S: SnapshotSource>(empty: &S, bytes: &[u8], what: &str) {
    let state = restored(empty, bytes);
    assert!(
        is_overflow(LdpService::with_recovered(state.clone(), empty, 2)),
        "{what}: service"
    );
    assert!(
        is_overflow(RangeSnapshot::try_freeze(&state, 0)),
        "{what}: try_freeze"
    );
    let fallback = RangeSnapshot::freeze(&state, 0);
    assert!(fallback.prefix(63).is_finite(), "{what}: float freeze");
    let float = state.frequency_estimate();
    assert_eq!(
        fallback.prefix(40).to_bits(),
        float.prefix(40).to_bits(),
        "{what}"
    );
}

#[test]
fn a_service_over_an_overflowing_checkpoint_is_refused_typed() {
    for oracle in [FrequencyOracle::Oue, FrequencyOracle::Hrr] {
        let (empty, bytes) = overflowing_hh(oracle);
        assert_refused(&empty, &bytes, &format!("HH_4/{oracle}"));
    }
    let (empty, bytes) = overflowing_haar();
    assert_refused(&empty, &bytes, "HaarHRR");
}

#[test]
fn a_refresh_past_the_bound_fails_typed_and_query_gets_bad_state() {
    // Flat OUE over 16 items with N = 2^59 − 1 reports: N·16 = 2^63 − 16
    // fits, and one more report takes it to 2^63.
    let config = FlatConfig::with_oracle(16, eps(), FrequencyOracle::Oue).unwrap();
    let empty = FlatServer::new(&config).unwrap();
    let mut bytes = Vec::new();
    put_level(&mut bytes, FrequencyOracle::Oue, 16, (1 << 59) - 1, 1 << 57);
    let state = restored(&empty, &bytes);
    let service = Arc::new(LdpService::with_recovered(state, &empty, 2).expect("inside the bound"));
    let initial = service.snapshot();
    assert!(initial.range(0, 15).is_finite());

    let client = FlatClient::new(&config).unwrap();
    let mut rng = StdRng::seed_from_u64(5301);
    service
        .submit(&client.report(3, &mut rng).unwrap())
        .unwrap();
    assert!(is_overflow(service.refresh_snapshot()));
    assert!(
        Arc::ptr_eq(&service.snapshot(), &initial),
        "nothing published"
    );

    let server =
        LdpServer::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default()).unwrap();
    let mut session = LdpClient::connect(
        server.local_addr(),
        Hello::plain::<ldp_freq_oracle::AnyReport>(),
    )
    .unwrap();
    let mut stream = EncodedStream::new();
    stream.push(&client.report(5, &mut rng).unwrap());
    assert_eq!(session.send_stream(&stream, 8).unwrap(), 1);
    match session.range(0, 15) {
        Err(NetError::Remote(e)) => assert_eq!(e.code, ErrorCode::BadState, "{e:?}"),
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    match session.quantile(0.5) {
        Err(NetError::Remote(e)) => assert_eq!(e.code, ErrorCode::BadState, "{e:?}"),
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    session.bye().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.num_reports, (1 << 59) + 1);
}
