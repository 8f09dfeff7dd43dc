//! Adversarial-input tests at the socket boundary: truncated length
//! prefixes, oversized declared lengths, garbage HELLOs, mid-stream
//! disconnects, and handshake mismatches all yield clean typed errors —
//! never a panic, a hang, or a partial absorb — and the server keeps
//! serving well-behaved clients afterwards. Every test ends in a graceful
//! shutdown, which joins every server thread (a leak would hang the
//! test).

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

use ldp_freq_oracle::Epsilon;
use ldp_ranges::{HaarConfig, HaarHrrClient, HaarHrrServer, HhClient, HhConfig, HhServer};
use ldp_service::net::proto::{
    read_message, write_message, ClientMsg, HelloOk, QueryReply, QueryResult, ReportBatch,
    ServerMsg, RETIRED_TYPES,
};
use ldp_service::net::{ErrorCode, Hello, NetConfig, Query, QueryOp, WIRE_EPOCH, WIRE_V1};
use ldp_service::{EncodedStream, LdpClient, LdpServer, LdpService, NetError, WireReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

type HhService = Arc<LdpService<HhServer>>;

fn hh_fixture() -> (HhClient, HhService, LdpServer<HhServer>) {
    let config = HhConfig::new(64, 4, Epsilon::new(1.1)).unwrap();
    let client = HhClient::new(config.clone()).unwrap();
    let prototype = HhServer::new(config).unwrap();
    let service = Arc::new(LdpService::new(&prototype, 2).unwrap());
    let server =
        LdpServer::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default()).unwrap();
    (client, service, server)
}

/// Reads the server's typed error reply off a raw socket.
fn read_error(stream: &mut TcpStream) -> ldp_service::net::RemoteError {
    let body = read_message(stream).expect("server answers before closing");
    match ServerMsg::decode(&body).expect("well-formed reply") {
        ServerMsg::Error(e) => e,
        other => panic!("expected an error reply, got {other:?}"),
    }
}

/// A well-behaved session still works — the liveness probe run after
/// every hostile client.
fn probe_alive(addr: std::net::SocketAddr, client: &HhClient, expect_reports: u64) {
    let mut rng = StdRng::seed_from_u64(42);
    let mut stream = EncodedStream::new();
    for i in 0..5 {
        stream.push(&client.report(i % 64, &mut rng).unwrap());
    }
    let mut session = LdpClient::connect(addr, Hello::plain::<ldp_ranges::HhReport>()).unwrap();
    assert_eq!(session.send_stream(&stream, 8).unwrap(), 5);
    let reply = session.range(0, 63).unwrap();
    assert_eq!(reply.num_reports, expect_reports + 5);
    session.bye().unwrap();
}

#[test]
fn hostile_bytes_yield_typed_errors_and_the_server_survives() {
    let (client, service, server) = hh_fixture();
    let addr = server.local_addr();

    // 1. Truncated length prefix: two bytes, then silence, then close.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&[0x10, 0x00]).unwrap();
    drop(raw);

    // 2. Oversized declared length: rejected with a typed error before
    //    any allocation, connection closed.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&[0xFF, 0xFF, 0xFF, 0xFF, 0x01]).unwrap();
    let e = read_error(&mut raw);
    assert_eq!(e.code, ErrorCode::Protocol);
    drop(raw);

    // 3. Zero-length envelope: same typed rejection.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&[0x00, 0x00, 0x00, 0x00]).unwrap();
    let e = read_error(&mut raw);
    assert_eq!(e.code, ErrorCode::Protocol);
    drop(raw);

    // 4. Garbage HELLO: a well-framed envelope of byte soup.
    let mut raw = TcpStream::connect(addr).unwrap();
    write_message(&mut raw, &[0x01, 0xDE, 0xAD, 0xBE, 0xEF, 0x99, 0x99]).unwrap();
    let e = read_error(&mut raw);
    assert_eq!(e.code, ErrorCode::Protocol);
    drop(raw);

    // 5. Unknown message types, the retired METRICS / METRICS_RANGE /
    //    HEALTH bytes, and the retired verbose STATUS flag: a typed
    //    protocol error before HELLO (then the server closes) and after
    //    it (then the session carries on).
    let mut unknown: Vec<Vec<u8>> = vec![vec![0x66, 1, 2, 3], vec![0x06, 0x01]];
    unknown.extend(RETIRED_TYPES.iter().flat_map(|&t| [vec![t], vec![t, 2]]));
    for body in &unknown {
        let mut raw = TcpStream::connect(addr).unwrap();
        write_message(&mut raw, body).unwrap();
        let e = read_error(&mut raw);
        assert_eq!(e.code, ErrorCode::Protocol, "pre-HELLO {body:?}");
        drop(raw);
    }
    let session = LdpClient::connect(addr, Hello::plain::<ldp_ranges::HhReport>()).unwrap();
    let mut raw = session.into_stream();
    for body in &unknown {
        write_message(&mut raw, body).unwrap();
        let e = read_error(&mut raw);
        assert_eq!(e.code, ErrorCode::Protocol, "post-HELLO {body:?}");
    }
    write_message(&mut raw, &ClientMsg::Status.encode()).unwrap();
    let body = read_message(&mut raw).unwrap();
    assert!(matches!(
        ServerMsg::decode(&body).unwrap(),
        ServerMsg::StatusOk(_)
    ));
    drop(raw);

    // 6. REPORT before HELLO: a state error, not a decode attempt.
    let mut raw = TcpStream::connect(addr).unwrap();
    let body = ClientMsg::Report(ReportBatch {
        count: 1,
        frames: vec![0xAA; 8],
    })
    .encode();
    write_message(&mut raw, &body).unwrap();
    let e = read_error(&mut raw);
    assert_eq!(e.code, ErrorCode::BadState);
    drop(raw);

    // 7. Mid-stream disconnect: a session that negotiates, starts a
    //    REPORT envelope, and vanishes. Nothing may be absorbed.
    let mut raw = TcpStream::connect(addr).unwrap();
    write_message(
        &mut raw,
        &ClientMsg::Hello(Hello::plain::<ldp_ranges::HhReport>()).encode(),
    )
    .unwrap();
    let body = read_message(&mut raw).unwrap();
    assert!(matches!(
        ServerMsg::decode(&body).unwrap(),
        ServerMsg::HelloOk(_)
    ));
    raw.write_all(&[200, 0, 0, 0]).unwrap(); // declares 200 bytes...
    raw.write_all(&[0x11; 20]).unwrap(); // ...delivers 20, then dies
    drop(raw);

    // After every attack: zero reports absorbed, and a clean session
    // still works end to end.
    assert_eq!(service.num_reports(), 0, "hostile bytes leaked state");
    probe_alive(addr, &client, 0);

    let stats = server.shutdown();
    assert_eq!(stats.num_reports, 5);
    assert_eq!(stats.frames_absorbed, 5);
}

#[test]
fn handshake_mismatches_are_typed_errors() {
    let (_, _, server) = hh_fixture();
    let addr = server.local_addr();

    // Wrong report kind.
    let err = LdpClient::connect(addr, Hello::plain::<ldp_ranges::HaarHrrReport>()).unwrap_err();
    match err {
        NetError::Remote(e) => assert_eq!(e.code, ErrorCode::KindMismatch),
        other => panic!("expected a remote kind mismatch, got {other}"),
    }

    // The retired HhSplit, HaarOue and Hh2d kind bytes name no served
    // mechanism.
    for kind in [2, 4, 5] {
        let hello = Hello {
            kind,
            wire_version: WIRE_V1,
            windowed: false,
        };
        match LdpClient::connect(addr, hello).unwrap_err() {
            NetError::Remote(e) => assert_eq!(e.code, ErrorCode::KindMismatch, "kind {kind}"),
            other => panic!("kind {kind}: expected a remote kind mismatch, got {other}"),
        }
    }

    // Epoch-tagged wire version against an unwindowed backend.
    let err = LdpClient::connect(
        addr,
        Hello {
            kind: ldp_ranges::HhReport::KIND,
            wire_version: WIRE_EPOCH,
            windowed: false,
        },
    )
    .unwrap_err();
    match err {
        NetError::Remote(e) => assert_eq!(e.code, ErrorCode::WireVersionMismatch),
        other => panic!("expected a remote wire-version mismatch, got {other}"),
    }

    // Windowed session against an unwindowed backend.
    let err = LdpClient::connect(addr, Hello::windowed::<ldp_ranges::HhReport>()).unwrap_err();
    match err {
        NetError::Remote(e) => assert_eq!(e.code, ErrorCode::EpochModeMismatch),
        other => panic!("expected a remote epoch-mode mismatch, got {other}"),
    }

    let stats = server.shutdown();
    assert_eq!(stats.num_reports, 0);

    // And the mirror image: a plain session against a windowed backend.
    let config = HaarConfig::new(32, Epsilon::new(1.1)).unwrap();
    let prototype = HaarHrrServer::new(config).unwrap();
    let service = Arc::new(LdpService::windowed(&prototype, 2, 2).unwrap());
    let server = LdpServer::bind_windowed("127.0.0.1:0", service, NetConfig::default()).unwrap();
    let err = LdpClient::connect(
        server.local_addr(),
        Hello::plain::<ldp_ranges::HaarHrrReport>(),
    )
    .unwrap_err();
    match err {
        NetError::Remote(e) => assert_eq!(e.code, ErrorCode::EpochModeMismatch),
        other => panic!("expected a remote epoch-mode mismatch, got {other}"),
    }
    let _ = server.shutdown();
}

#[test]
fn bad_batches_reject_all_or_nothing_with_the_offending_index() {
    let (client, service, server) = hh_fixture();
    let addr = server.local_addr();
    let mut rng = StdRng::seed_from_u64(77);

    // Five good frames, then garbage: the whole batch bounces, the error
    // names index 5, nothing is absorbed.
    let mut stream = EncodedStream::new();
    for i in 0..5 {
        stream.push(&client.report(i, &mut rng).unwrap());
    }
    stream.push_raw(&[0xDE, 0xAD, 0xBE, 0xEF]);
    let mut session = LdpClient::connect(addr, Hello::plain::<ldp_ranges::HhReport>()).unwrap();
    let err = session
        .send_batch(stream.len() as u64, stream.as_bytes())
        .unwrap_err();
    match err {
        NetError::Remote(e) => {
            assert_eq!(e.code, ErrorCode::BadFrame);
            assert_eq!(e.index, Some(5));
        }
        other => panic!("expected a remote bad-frame error, got {other}"),
    }
    assert_eq!(service.num_reports(), 0, "rejected batch leaked reports");

    // A count lying about the payload (too many / too few frames).
    let mut one = EncodedStream::new();
    one.push(&client.report(1, &mut rng).unwrap());
    let err = session.send_batch(5, one.as_bytes()).unwrap_err();
    assert!(matches!(err, NetError::Remote(ref e) if e.code == ErrorCode::BadFrame));
    let err = session.send_batch(0, one.as_bytes()).unwrap_err();
    assert!(matches!(err, NetError::Remote(ref e) if e.code == ErrorCode::BadFrame));
    assert_eq!(service.num_reports(), 0);

    // A well-formed frame under the retired kind byte 2 (was HhSplit).
    let mut retired = client.report(1, &mut rng).unwrap().to_frame();
    retired[3] = 2;
    match session.send_batch(1, &retired).unwrap_err() {
        NetError::Remote(e) => {
            assert_eq!(e.code, ErrorCode::BadFrame);
            assert_eq!(e.index, Some(0));
        }
        other => panic!("expected a remote bad-frame error, got {other}"),
    }
    assert_eq!(service.num_reports(), 0);

    // A well-formed frame under the retired oracle tag 3 (was SUE), after
    // two good frames: HH_B's tag follows the header and the depth byte.
    let mut batch = EncodedStream::new();
    for i in 0..2 {
        batch.push(&client.report(i, &mut rng).unwrap());
    }
    let mut sue = client.report(2, &mut rng).unwrap().to_frame();
    sue[5] = 3;
    batch.push_raw(&sue);
    match session.send_batch(3, batch.as_bytes()).unwrap_err() {
        NetError::Remote(e) => {
            assert_eq!(e.code, ErrorCode::BadFrame);
            assert_eq!(e.index, Some(2));
            assert!(e.detail.contains("unknown oracle tag 3"), "{}", e.detail);
        }
        other => panic!("expected a remote bad-frame error, got {other}"),
    }
    assert_eq!(service.num_reports(), 0);

    // The session survives its own rejected batches.
    assert_eq!(session.send_batch(1, one.as_bytes()).unwrap(), 1);
    session.bye().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.num_reports, 1);
    assert_eq!(stats.frames_absorbed, 1);
    assert!(stats.frames_rejected >= 6);
}

#[test]
fn hostile_queries_and_epoch_mismatches_are_typed() {
    // Windowed backend for the full query surface.
    let config = HaarConfig::new(32, Epsilon::new(1.1)).unwrap();
    let haar_client = HaarHrrClient::new(config.clone()).unwrap();
    let prototype = HaarHrrServer::new(config).unwrap();
    let service = Arc::new(LdpService::windowed(&prototype, 2, 2).unwrap());
    let server =
        LdpServer::bind_windowed("127.0.0.1:0", Arc::clone(&service), NetConfig::default())
            .unwrap();
    let mut session = LdpClient::connect(
        server.local_addr(),
        Hello::windowed::<ldp_ranges::HaarHrrReport>(),
    )
    .unwrap();

    // A windowed query before any seal: EmptyWindow.
    let err = session
        .query(Query {
            op: QueryOp::Point { z: 3 },
            window: Some(1),
        })
        .unwrap_err();
    assert!(matches!(err, NetError::Remote(ref e) if e.code == ErrorCode::EmptyWindow));

    // Out-of-domain bounds: BadQuery, not a panic.
    let err = session.range(0, 32).unwrap_err();
    assert!(matches!(err, NetError::Remote(ref e) if e.code == ErrorCode::BadQuery));

    // A stale epoch tag: the typed epoch mismatch, batch untouched.
    let mut rng = StdRng::seed_from_u64(88);
    let report = haar_client.report(3, &mut rng).unwrap();
    let mut stream = EncodedStream::new();
    stream.push_epoch(&report, 7);
    let err = session.send_batch(1, stream.as_bytes()).unwrap_err();
    match err {
        NetError::Remote(e) => {
            assert_eq!(e.code, ErrorCode::EpochMismatch);
            assert_eq!(e.index, Some(0));
        }
        other => panic!("expected a remote epoch mismatch, got {other}"),
    }
    assert_eq!(service.num_reports(), 0);

    // Current-epoch traffic flows; a post-seal straggler for the sealed
    // epoch bounces the same way a direct submit would.
    let mut current = EncodedStream::new();
    current.push_epoch(&report, 0);
    assert_eq!(session.send_batch(1, current.as_bytes()).unwrap(), 1);
    assert_eq!(session.seal_epoch().unwrap(), 0);
    let err = session.send_batch(1, current.as_bytes()).unwrap_err();
    assert!(matches!(err, NetError::Remote(ref e) if e.code == ErrorCode::EpochMismatch));

    // The windowed query now answers.
    let reply = session
        .query(Query {
            op: QueryOp::Range { a: 0, b: 31 },
            window: Some(1),
        })
        .unwrap();
    assert_eq!(reply.num_reports, 1);
    assert_eq!(reply.window, Some((0, 0)));

    session.bye().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.num_reports, 1);

    // SEAL and windowed queries against a plain backend are BadState.
    let (_, _, server) = hh_fixture();
    let mut session = LdpClient::connect(
        server.local_addr(),
        Hello {
            kind: ldp_ranges::HhReport::KIND,
            wire_version: WIRE_V1,
            windowed: false,
        },
    )
    .unwrap();
    let err = session.seal_epoch().unwrap_err();
    assert!(matches!(err, NetError::Remote(ref e) if e.code == ErrorCode::BadState));
    let err = session
        .query(Query {
            op: QueryOp::Point { z: 0 },
            window: Some(1),
        })
        .unwrap_err();
    assert!(matches!(err, NetError::Remote(ref e) if e.code == ErrorCode::BadState));
    session.bye().unwrap();
    let _ = server.shutdown();
}

fn is_bad_state<T: std::fmt::Debug>(result: Result<T, NetError>) -> bool {
    matches!(result, Err(NetError::Remote(ref e)) if e.code == ErrorCode::BadState)
}

/// One row of the refusal table: on an all-time node SEAL and windowed
/// QUERY are `BAD_STATE`; on a read replica REPORT and SEAL are too. A
/// refusal writes nothing — `store`'s `wal_records` stays put, and on a
/// replica it stays put through the server's shutdown as well.
fn check_refusals(
    row: &str,
    server: LdpServer<HhServer>,
    store: Option<&ldp_service::DurableService<HhServer>>,
    windowed: bool,
    read_only: bool,
) {
    let config = HhConfig::new(64, 4, Epsilon::new(1.1)).unwrap();
    let client = HhClient::new(config).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let mut batch = EncodedStream::new();
    for i in 0..8 {
        let report = client.report(i % 64, &mut rng).unwrap();
        if windowed {
            batch.push_epoch(&report, 0);
        } else {
            batch.push(&report);
        }
    }
    let hello = if windowed {
        Hello::windowed::<ldp_ranges::HhReport>()
    } else {
        Hello::plain::<ldp_ranges::HhReport>()
    };
    let wal_records = || store.map(|s| s.status().unwrap().wal_records);
    let logged = wal_records();
    let mut session = LdpClient::connect(server.local_addr(), hello).unwrap();
    let reports = session.range(0, 63).unwrap().num_reports;

    if !windowed || read_only {
        assert!(is_bad_state(session.seal_epoch()), "{row}: SEAL");
    }
    if !windowed {
        let windowed_query = session.query(Query {
            op: QueryOp::Point { z: 0 },
            window: Some(1),
        });
        assert!(is_bad_state(windowed_query), "{row}: windowed QUERY");
    }
    if read_only {
        let report = session.send_batch(batch.len() as u64, batch.as_bytes());
        assert!(is_bad_state(report), "{row}: REPORT");
    }
    assert_eq!(wal_records(), logged, "{row}: a refusal reached the log");
    assert_eq!(session.range(0, 63).unwrap().num_reports, reports, "{row}");
    session.bye().unwrap();

    let stats = server.shutdown();
    if read_only {
        assert_eq!(wal_records(), logged, "{row}: shutdown wrote the log");
        assert_eq!(stats.sealed_epoch, None, "{row}");
        assert_eq!(stats.final_checkpoint, None, "{row}");
    }
}

#[test]
fn every_backend_refuses_what_it_cannot_do() {
    use ldp_service::storage::{scratch_dir, DurableConfig, DurableService, FsyncPolicy};
    use ldp_service::FollowerService;

    let config = DurableConfig {
        num_shards: 2,
        fsync: FsyncPolicy::Never,
        ..DurableConfig::default()
    };
    let prototype = HhServer::new(HhConfig::new(64, 4, Epsilon::new(1.1)).unwrap()).unwrap();

    let (_, _, server) = hh_fixture();
    check_refusals("in-memory plain", server, None, false, false);

    let dir = scratch_dir("refusals-durable").unwrap();
    let (store, _) = DurableService::open(&dir, &prototype, config.clone()).unwrap();
    let store = Arc::new(store);
    let server =
        LdpServer::bind_durable("127.0.0.1:0", Arc::clone(&store), NetConfig::default()).unwrap();
    check_refusals("durable plain", server, Some(&store), false, false);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();

    for windowed in [false, true] {
        let row = if windowed {
            "windowed replica"
        } else {
            "plain replica"
        };
        let leader_dir = scratch_dir("refusals-leader").unwrap();
        let follower_dir = scratch_dir("refusals-follower").unwrap();
        let (leader, _) = if windowed {
            DurableService::open_windowed(&leader_dir, &prototype, 2, config.clone())
        } else {
            DurableService::open(&leader_dir, &prototype, config.clone())
        }
        .unwrap();
        let leader = Arc::new(leader);
        let leader_server =
            LdpServer::bind_durable("127.0.0.1:0", Arc::clone(&leader), NetConfig::default())
                .unwrap();
        let addr = leader_server.local_addr().to_string();
        let (follower, _) = if windowed {
            FollowerService::open_windowed(&follower_dir, &prototype, 2, &addr, config.clone())
        } else {
            FollowerService::open(&follower_dir, &prototype, &addr, config.clone())
        }
        .unwrap();
        let replica = LdpServer::bind_replica(
            "127.0.0.1:0",
            Arc::clone(follower.service()),
            NetConfig::default(),
        )
        .unwrap();
        check_refusals(row, replica, Some(follower.service()), windowed, true);
        drop(follower);
        let _ = leader_server.shutdown();
        drop(leader);
        std::fs::remove_dir_all(&leader_dir).unwrap();
        std::fs::remove_dir_all(&follower_dir).unwrap();
    }
}

/// Hostile replication clients: bogus start positions, garbage acks,
/// non-ack messages on the stream, and mid-record disconnects. The
/// leader must stay live for its report sessions throughout, the lag
/// accounting must stay clamped, and every dead stream must leave zero
/// follower state behind.
#[test]
fn hostile_followers_cannot_wedge_the_leader() {
    use std::io::Read;
    use std::time::{Duration, Instant};

    use ldp_service::storage::{scratch_dir, DurableConfig, DurableService, FsyncPolicy};
    use ldp_service::ReplFeed;

    let names = ldp_service::obs::instruments::names::REPL_FOLLOWERS;
    let lag_name = ldp_service::obs::instruments::names::REPL_FOLLOWER_LAG_RECORDS;

    // REPLICATE against a non-durable backend: a typed refusal, and the
    // server keeps serving.
    let (client, _, plain_server) = hh_fixture();
    let err = ReplFeed::connect(plain_server.local_addr(), 0).unwrap_err();
    assert!(matches!(err, NetError::Remote(ref e) if e.code == ErrorCode::ReplUnavailable));
    probe_alive(plain_server.local_addr(), &client, 0);
    let _ = plain_server.shutdown();

    // A durable leader with four acked FRAMES records.
    let config = HhConfig::new(64, 4, Epsilon::new(1.1)).unwrap();
    let client = HhClient::new(config.clone()).unwrap();
    let prototype = HhServer::new(config).unwrap();
    let dir = scratch_dir("repl-hostile").unwrap();
    let (leader, _) = DurableService::open(
        &dir,
        &prototype,
        DurableConfig {
            num_shards: 2,
            fsync: FsyncPolicy::Always,
            checkpoint_every_records: 0,
            ..DurableConfig::default()
        },
    )
    .unwrap();
    let leader = Arc::new(leader);
    let server =
        LdpServer::bind_durable("127.0.0.1:0", Arc::clone(&leader), NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut rng = StdRng::seed_from_u64(99);
    let mut session = LdpClient::connect(addr, Hello::plain::<ldp_ranges::HhReport>()).unwrap();
    for _ in 0..4 {
        let mut stream = EncodedStream::new();
        for i in 0..8 {
            stream.push(&client.report(i % 64, &mut rng).unwrap());
        }
        assert_eq!(session.send_batch(8, stream.as_bytes()).unwrap(), 8);
    }
    let gauge = |name: &str| server.registry().snapshot().gauge(name).unwrap_or(0);
    let await_gauge = |name: &str, want: u64, what: &str| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while gauge(name) != want {
            assert!(
                Instant::now() < deadline,
                "{what}: gauge {name} never hit {want}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    };

    // 1. Subscribing past the log end: typed refusal, nothing registered.
    let err = ReplFeed::connect(addr, 999).unwrap_err();
    assert!(matches!(err, NetError::Remote(ref e) if e.code == ErrorCode::ReplUnavailable));
    assert_eq!(gauge(names), 0, "refused subscription leaked a follower");

    // 2. REPLICATE on an already-negotiated report session: a state
    //    error — a stream session never negotiates.
    let negotiated = LdpClient::connect(addr, Hello::plain::<ldp_ranges::HhReport>()).unwrap();
    let mut raw = negotiated.into_stream();
    write_message(&mut raw, &ClientMsg::Replicate { start: 0 }.encode()).unwrap();
    let e = read_error(&mut raw);
    assert_eq!(e.code, ErrorCode::BadState);
    drop(raw);

    // 3. A subscribed follower that acks garbage: u64::MAX clamps to the
    //    log end, a replayed stale ack cannot move the gauge backwards,
    //    and a QUERY on the stream is a typed state error that ends it.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write_message(&mut raw, &ClientMsg::Replicate { start: 0 }.encode()).unwrap();
    let body = read_message(&mut raw).unwrap();
    assert!(matches!(
        ServerMsg::decode(&body).unwrap(),
        ServerMsg::ReplOk {
            start: 0,
            leader_records: 4,
        }
    ));
    assert_eq!(gauge(names), 1, "subscription not registered");
    for expected in 0..4u64 {
        let body = read_message(&mut raw).unwrap();
        match ServerMsg::decode(&body).unwrap() {
            ServerMsg::ReplRecord { position, .. } => assert_eq!(position, expected),
            other => panic!("expected pushed record {expected}, got {other:?}"),
        }
    }
    write_message(&mut raw, &ClientMsg::ReplAck { acked: u64::MAX }.encode()).unwrap();
    await_gauge(lag_name, 0, "clamped ack");
    write_message(&mut raw, &ClientMsg::ReplAck { acked: 0 }.encode()).unwrap();
    write_message(
        &mut raw,
        &ClientMsg::Query(Query {
            op: QueryOp::Point { z: 0 },
            window: None,
        })
        .encode(),
    )
    .unwrap();
    let e = read_error(&mut raw);
    assert_eq!(e.code, ErrorCode::BadState);
    // The stale ack arrived before the QUERY killed the stream and must
    // not have moved the gauge backwards.
    assert_eq!(gauge(lag_name), 0, "stale ack moved the lag backwards");
    drop(raw);
    await_gauge(names, 0, "stream teardown");

    // 4. Mid-record disconnect: subscribe, swallow a few bytes of the
    //    push stream (a partial envelope), vanish without a word.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write_message(&mut raw, &ClientMsg::Replicate { start: 0 }.encode()).unwrap();
    let mut partial = [0u8; 13]; // REPL_OK and then part of a pushed record
    raw.read_exact(&mut partial).unwrap();
    drop(raw);
    await_gauge(names, 0, "mid-record disconnect");
    assert_eq!(gauge(lag_name), 0, "dead stream left lag behind");

    // Throughout: the leader absorbed exactly its report traffic and
    // still serves it.
    assert_eq!(leader.num_reports(), 32, "replication leaked reports");
    let reply = session.range(0, 63).unwrap();
    assert_eq!(reply.num_reports, 32);
    let mut stream = EncodedStream::new();
    for i in 0..8 {
        stream.push(&client.report(i % 64, &mut rng).unwrap());
    }
    assert_eq!(session.send_batch(8, stream.as_bytes()).unwrap(), 8);
    session.bye().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.frames_absorbed, 40);
    drop(leader);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A REPORT sent *on* a replication stream: the stream guard answers it
/// with the stream-session `BadState` error and closes — it never reaches
/// the REPORT handler, so nothing is absorbed, logged, or counted as a
/// rejected frame — and the leader keeps serving report sessions.
#[test]
fn report_on_a_replication_stream_is_refused_and_closes() {
    use std::io::Read;
    use std::time::Duration;

    use ldp_service::storage::{scratch_dir, DurableConfig, DurableService, FsyncPolicy};

    let config = HhConfig::new(64, 4, Epsilon::new(1.1)).unwrap();
    let client = HhClient::new(config.clone()).unwrap();
    let prototype = HhServer::new(config).unwrap();
    let dir = scratch_dir("repl-report-on-stream").unwrap();
    let (leader, _) = DurableService::open(
        &dir,
        &prototype,
        DurableConfig {
            num_shards: 2,
            fsync: FsyncPolicy::Always,
            ..DurableConfig::default()
        },
    )
    .unwrap();
    let leader = Arc::new(leader);
    let server =
        LdpServer::bind_durable("127.0.0.1:0", Arc::clone(&leader), NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut rng = StdRng::seed_from_u64(7);
    let mut stream = EncodedStream::new();
    for i in 0..8 {
        stream.push(&client.report(i % 64, &mut rng).unwrap());
    }
    let mut session = LdpClient::connect(addr, Hello::plain::<ldp_ranges::HhReport>()).unwrap();
    assert_eq!(session.send_batch(8, stream.as_bytes()).unwrap(), 8);

    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write_message(&mut raw, &ClientMsg::Replicate { start: 0 }.encode()).unwrap();
    let body = read_message(&mut raw).unwrap();
    assert!(matches!(
        ServerMsg::decode(&body).unwrap(),
        ServerMsg::ReplOk {
            start: 0,
            leader_records: 1,
        }
    ));
    let body = read_message(&mut raw).unwrap();
    assert!(matches!(
        ServerMsg::decode(&body).unwrap(),
        ServerMsg::ReplRecord { position: 0, .. }
    ));
    // A perfectly well-formed batch the leader would ack on a report
    // session.
    let report = ClientMsg::Report(ReportBatch {
        count: 8,
        frames: stream.as_bytes().to_vec(),
    });
    write_message(&mut raw, &report.encode()).unwrap();
    let e = read_error(&mut raw);
    assert_eq!(e.code, ErrorCode::BadState);
    assert!(e.detail.contains("replication stream"), "{}", e.detail);
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "stream stayed open after the refusal");

    assert_eq!(leader.num_reports(), 8, "stream REPORT reached the shards");
    assert_eq!(leader.status().unwrap().wal_records, 1);
    assert_eq!(session.send_batch(8, stream.as_bytes()).unwrap(), 8);
    session.bye().unwrap();
    let stats = server.shutdown();
    assert_eq!((stats.frames_absorbed, stats.frames_rejected), (16, 0));
    drop(leader);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A scripted peer — a plain `TcpListener`, not an `LdpServer` — accepts
/// the HELLO, then answers every odd-numbered QUERY with the wrong result
/// kind (an index for a fraction op, a fraction for a quantile) and every
/// even-numbered one correctly. The client turns each mismatch into
/// `UnexpectedReply` instead of handing back a reply whose accessor
/// would panic, and the session stays usable for the next query.
#[test]
fn mismatched_query_result_kinds_are_unexpected_replies() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut queries = 0u64;
        loop {
            let msg = ClientMsg::decode(&read_message(&mut stream).unwrap()).unwrap();
            let reply = match msg {
                ClientMsg::Hello(hello) => ServerMsg::HelloOk(HelloOk {
                    kind: hello.kind,
                    wire_version: hello.wire_version,
                    windowed: hello.windowed,
                    domain: 64,
                }),
                ClientMsg::Query(query) => {
                    queries += 1;
                    let quantile = matches!(query.op, QueryOp::Quantile { .. });
                    let wrong = queries % 2 == 1;
                    let result = if quantile == wrong {
                        QueryResult::Fraction(0.25)
                    } else {
                        QueryResult::Index(7)
                    };
                    ServerMsg::QueryOk(QueryReply {
                        result,
                        version: queries,
                        num_reports: 0,
                        window: None,
                    })
                }
                ClientMsg::Bye => {
                    write_message(&mut stream, &ServerMsg::ByeOk.encode()).unwrap();
                    return queries;
                }
                other => panic!("unscripted message {other:?}"),
            };
            write_message(&mut stream, &reply.encode()).unwrap();
        }
    });

    let mut session = LdpClient::connect(addr, Hello::plain::<ldp_ranges::HhReport>()).unwrap();
    let ops = [
        QueryOp::Range { a: 1, b: 9 },
        QueryOp::Prefix { b: 9 },
        QueryOp::Point { z: 3 },
        QueryOp::Quantile { phi: 0.5 },
    ];
    for op in ops {
        let query = Query { op, window: None };
        assert!(
            matches!(session.query(query), Err(NetError::UnexpectedReply(_))),
            "{op:?}: a wrong-kind result must be refused"
        );
        let reply = session.query(query).expect("a right-kind result passes");
        match op {
            QueryOp::Quantile { .. } => assert_eq!(reply.index(), Some(7)),
            _ => assert_eq!(reply.fraction(), Some(0.25)),
        }
    }
    session.bye().unwrap();
    assert_eq!(peer.join().unwrap(), 2 * ops.len() as u64);
}
