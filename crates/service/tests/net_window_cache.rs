//! The frozen-window cache at the socket boundary: a windowed QUERY's
//! `k` is attacker-chosen, so it must neither change an answer nor grow
//! server memory, and a cached window must never outlive a SEAL.

use std::sync::Arc;

use ldp_freq_oracle::Epsilon;
use ldp_ranges::{HaarConfig, HaarHrrClient, HaarHrrServer};
use ldp_service::net::{Hello, NetConfig, Query, QueryOp, QueryResult};
use ldp_service::{EncodedStream, EpochRing, LdpClient, LdpServer, LdpService};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A windowed QUERY's `k` is a wire `u64` the client picks: 10 000
/// distinct values (including `u64::MAX`) must each answer exactly what
/// an uncached freeze of the same window answers, and must not grow the
/// service's frozen-window cache past `window_len` entries. A SEAL
/// between two identical windowed queries must move the answer's epoch
/// bounds — a cached window never outlives the seal that ends it.
#[test]
fn hostile_window_sizes_answer_exactly_and_cannot_grow_the_cache() {
    const WINDOW: usize = 3;
    let config = HaarConfig::new(32, Epsilon::new(1.1)).unwrap();
    let haar_client = HaarHrrClient::new(config.clone()).unwrap();
    let prototype = HaarHrrServer::new(config).unwrap();
    let service = Arc::new(LdpService::windowed(&prototype, 2, WINDOW).unwrap());
    let server =
        LdpServer::bind_windowed("127.0.0.1:0", Arc::clone(&service), NetConfig::default())
            .unwrap();
    let mut session = LdpClient::connect(
        server.local_addr(),
        Hello::windowed::<ldp_ranges::HaarHrrReport>(),
    )
    .unwrap();

    // The uncached reference: one ring fed the same reports, sealed at
    // the same points, frozen from scratch for every comparison.
    let mut reference = EpochRing::new(&prototype, WINDOW).unwrap();
    let mut rng = StdRng::seed_from_u64(4242);
    let mut ingest_epoch =
        |session: &mut LdpClient, reference: &mut EpochRing<HaarHrrServer>, epoch: u64| {
            let mut stream = EncodedStream::new();
            for i in 0..20 + epoch as usize {
                let report = haar_client
                    .report((i * 5 + epoch as usize) % 32, &mut rng)
                    .unwrap();
                stream.push_epoch(&report, epoch);
                reference.absorb(&report).unwrap();
            }
            let n = stream.len() as u64;
            assert_eq!(session.send_batch(n, stream.as_bytes()).unwrap(), n);
            assert_eq!(session.seal_epoch().unwrap(), epoch);
            assert_eq!(reference.seal_epoch().unwrap(), epoch);
        };
    // Five epochs through a window of three: the ring has rotated.
    for epoch in 0..5 {
        ingest_epoch(&mut session, &mut reference, epoch);
    }
    assert_eq!(service.windows_cached(), 0, "a seal empties the cache");

    let ks = (1..=9_998u64).chain([u64::MAX - 1, u64::MAX]);
    for (i, k) in ks.enumerate() {
        let (a, b) = ((i % 7) as u64, 31 - (i % 11) as u64);
        let reply = session
            .query(Query {
                op: QueryOp::Range { a, b },
                window: Some(k),
            })
            .unwrap();
        let uncached = reference
            .window_snapshot(usize::try_from(k).unwrap_or(usize::MAX))
            .unwrap();
        let expected = uncached.range(a as usize, b as usize);
        match reply.result {
            QueryResult::Fraction(x) => assert!(
                x.to_bits() == expected.to_bits(),
                "k={k}: {x} vs uncached {expected}"
            ),
            other => panic!("k={k}: expected a fraction, got {other:?}"),
        }
        assert_eq!(reply.num_reports, uncached.num_reports(), "k={k}");
        assert_eq!(
            reply.window,
            Some((uncached.first_epoch(), uncached.last_epoch())),
            "k={k}"
        );
        assert_eq!(reply.version, uncached.last_epoch(), "k={k}");
        assert!(service.windows_cached() <= WINDOW, "k={k}: cache grew");
    }
    assert_eq!(service.windows_cached(), WINDOW);

    // The same query on both sides of a SEAL.
    let two_epochs = Query {
        op: QueryOp::Prefix { b: 15 },
        window: Some(2),
    };
    let before = session.query(two_epochs).unwrap();
    assert_eq!(session.query(two_epochs).unwrap(), before);
    assert_eq!(before.window, Some((3, 4)));
    ingest_epoch(&mut session, &mut reference, 5);
    let after = session.query(two_epochs).unwrap();
    assert_eq!(after.window, Some((4, 5)));
    let uncached = reference.window_snapshot(2).unwrap();
    assert_eq!(after.result, QueryResult::Fraction(uncached.prefix(15)));
    assert_eq!(after.num_reports, uncached.num_reports());
    assert_eq!(service.windows_cached(), 1);

    session.bye().unwrap();
    let _ = server.shutdown();
}
