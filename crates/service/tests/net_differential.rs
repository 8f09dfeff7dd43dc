//! Differential loopback tests: the socket path is a *pure transport*.
//!
//! Fixed-seed report streams replayed through `LdpClient` → `LdpServer`
//! over 127.0.0.1 must leave the backend in a state bit-identical to
//! feeding the same frames through `submit_frame` in-process — for the
//! three served mechanisms (flat, `HH_B`, HaarHRR), windowed and
//! unwindowed — and queries answered over the socket must equal the
//! in-process answers bit-for-bit. The concurrency test additionally pins
//! the drain contract: queries keep answering (with monotone snapshot
//! versions) while clients ingest, and after a graceful shutdown
//! `num_reports` equals the acked frame count exactly.

use std::sync::Arc;

use ldp_freq_oracle::{AnyReport, Epsilon};
use ldp_ranges::{
    FlatClient, FlatConfig, FlatServer, HaarConfig, HaarHrrClient, HaarHrrServer, HhClient,
    HhConfig, HhServer, PersistableServer, SubtractableServer,
};
use ldp_service::net::{Hello, NetConfig, Query, QueryOp};
use ldp_service::{
    EncodedStream, EpochRing, LdpClient, LdpServer, LdpService, SnapshotSource, WireReport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Replays `stream` through the in-process path and over a loopback
/// socket, and asserts the two backends end bit-identical.
fn check_unwindowed<S>(prototype: &S, stream: &EncodedStream)
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    // In-process reference: one frame at a time through submit_frame.
    let direct = LdpService::new(prototype, 3).unwrap();
    for i in 0..stream.len() {
        direct.submit_frame(stream.frame(i)).unwrap();
    }
    let direct_snap = direct.refresh_snapshot().unwrap();

    // Socket path: same frames, batched over 127.0.0.1.
    let service = Arc::new(LdpService::new(prototype, 3).unwrap());
    let server =
        LdpServer::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut client = LdpClient::connect(addr, Hello::plain::<S::Report>()).unwrap();
    assert_eq!(
        client.negotiated().domain,
        direct_snap.domain() as u64,
        "handshake advertises the snapshot domain"
    );
    let acked = client.send_stream(stream, 37).unwrap();
    assert_eq!(acked, stream.len() as u64);

    // Queries over the socket equal in-process answers bit-for-bit.
    let domain = direct_snap.domain() as u64;
    let reply = client.range(0, domain - 1).unwrap();
    assert_eq!(
        reply.fraction().expect("a range reply").to_bits(),
        direct_snap.range(0, domain as usize - 1).to_bits()
    );
    assert_eq!(reply.num_reports, stream.len() as u64);
    let reply = client
        .query(Query {
            op: QueryOp::Prefix { b: domain / 2 },
            window: None,
        })
        .unwrap();
    assert_eq!(
        reply.fraction().expect("a range reply").to_bits(),
        direct_snap.prefix(domain as usize / 2).to_bits()
    );
    let reply = client.quantile(0.5).unwrap();
    assert_eq!(reply.index(), Some(direct_snap.quantile(0.5) as u64));

    client.bye().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.frames_absorbed, stream.len() as u64);
    assert_eq!(stats.frames_rejected, 0);
    assert_eq!(stats.num_reports, direct_snap.num_reports());
    let socket_freqs = stats.final_snapshot.estimate().frequencies();
    let direct_freqs = direct_snap.estimate().frequencies();
    assert_eq!(socket_freqs.len(), direct_freqs.len());
    for (z, (a, b)) in socket_freqs.iter().zip(direct_freqs).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "socket and in-process estimates differ at item {z}: {a} vs {b}"
        );
    }
}

/// Replays epoch-tagged streams through both paths of a windowed service
/// (socket seals via SEAL messages) and asserts bit-identity of every
/// trailing-window answer and of the final drained state.
fn check_windowed<S>(prototype: &S, epochs: &[EncodedStream], window: usize)
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    let direct = LdpService::<EpochRing<S>>::windowed(prototype, 2, window).unwrap();
    let service = Arc::new(LdpService::<EpochRing<S>>::windowed(prototype, 2, window).unwrap());
    let server =
        LdpServer::bind_windowed("127.0.0.1:0", Arc::clone(&service), NetConfig::default())
            .unwrap();
    let mut client =
        LdpClient::connect(server.local_addr(), Hello::windowed::<S::Report>()).unwrap();

    for (e, stream) in epochs.iter().enumerate() {
        for i in 0..stream.len() {
            direct.submit_epoch_frame(stream.frame(i)).unwrap();
        }
        let acked = client.send_stream(stream, 23).unwrap();
        assert_eq!(acked, stream.len() as u64);
        assert_eq!(direct.seal_epoch().unwrap(), e as u64);
        assert_eq!(client.seal_epoch().unwrap(), e as u64);

        // Every trailing-window answer matches bit-for-bit.
        let k = window.min(e + 1) as u64;
        let direct_window = direct.window_snapshot(k as usize).unwrap();
        let domain = direct_window.snapshot().domain() as u64;
        let reply = client
            .query(Query {
                op: QueryOp::Range {
                    a: 0,
                    b: domain - 1,
                },
                window: Some(k),
            })
            .unwrap();
        assert_eq!(
            reply.fraction().expect("a range reply").to_bits(),
            direct_window.range(0, domain as usize - 1).to_bits(),
            "epoch {e}: windowed range differs"
        );
        assert_eq!(reply.num_reports, direct_window.num_reports());
        assert_eq!(
            reply.window,
            Some((direct_window.first_epoch(), direct_window.last_epoch()))
        );
        let reply = client
            .query(Query {
                op: QueryOp::Quantile { phi: 0.5 },
                window: Some(k),
            })
            .unwrap();
        assert_eq!(reply.index(), Some(direct_window.quantile(0.5) as u64));
    }

    client.bye().unwrap();
    let stats = server.shutdown();
    // The drain seals the open (empty) epoch; mirror it on the reference.
    assert_eq!(stats.sealed_epoch, Some(epochs.len() as u64));
    direct.seal_epoch().unwrap();
    let direct_snap = direct.refresh_snapshot().unwrap();
    assert_eq!(stats.num_reports, direct_snap.num_reports());
    for (z, (a, b)) in stats
        .final_snapshot
        .estimate()
        .frequencies()
        .iter()
        .zip(direct_snap.estimate().frequencies())
        .enumerate()
    {
        assert!(
            a.to_bits() == b.to_bits(),
            "windowed socket and in-process estimates differ at item {z}: {a} vs {b}"
        );
    }
}

fn plain_stream<T: WireReport>(
    n: usize,
    seed: u64,
    mut encode: impl FnMut(usize, &mut StdRng) -> T,
) -> EncodedStream {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stream = EncodedStream::new();
    for i in 0..n {
        stream.push(&encode(i, &mut rng));
    }
    stream
}

fn epoch_streams<T: WireReport>(
    epochs: usize,
    per_epoch: usize,
    seed: u64,
    mut encode: impl FnMut(usize, &mut StdRng) -> T,
) -> Vec<EncodedStream> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..epochs)
        .map(|e| {
            let mut stream = EncodedStream::new();
            for i in 0..per_epoch {
                stream.push_epoch(&encode(e * per_epoch + i, &mut rng), e as u64);
            }
            stream
        })
        .collect()
}

/// The acceptance-criterion test: socket-path snapshots are bit-identical
/// to in-process submission for every served mechanism (unwindowed).
#[test]
fn socket_path_is_bit_identical_for_every_served_mechanism() {
    const N: usize = 400;
    let eps = Epsilon::new(1.1);

    let flat_config = FlatConfig::new(32, eps).unwrap();
    let flat_client = FlatClient::new(&flat_config).unwrap();
    check_unwindowed(
        &FlatServer::new(&flat_config).unwrap(),
        &plain_stream::<AnyReport>(N, 2001, |i, rng| flat_client.report(i % 32, rng).unwrap()),
    );

    let hh_config = HhConfig::new(64, 4, eps).unwrap();
    let hh_client = HhClient::new(hh_config.clone()).unwrap();
    check_unwindowed(
        &HhServer::new(hh_config.clone()).unwrap(),
        &plain_stream(N, 2002, |i, rng| {
            hh_client.report((i * 7) % 64, rng).unwrap()
        }),
    );

    let haar_config = HaarConfig::new(64, eps).unwrap();
    let haar_client = HaarHrrClient::new(haar_config.clone()).unwrap();
    check_unwindowed(
        &HaarHrrServer::new(haar_config).unwrap(),
        &plain_stream(N, 2004, |i, rng| {
            haar_client.report((i * 11) % 64, rng).unwrap()
        }),
    );
}

/// The windowed differential: epoch-tagged traffic plus SEAL control over
/// the socket matches the in-process windowed service bit-for-bit, for
/// every served mechanism.
#[test]
fn windowed_socket_path_is_bit_identical_for_every_served_mechanism() {
    const EPOCHS: usize = 4;
    const PER_EPOCH: usize = 120;
    const WINDOW: usize = 2;
    let eps = Epsilon::new(1.1);

    let flat_config = FlatConfig::new(32, eps).unwrap();
    let flat_client = FlatClient::new(&flat_config).unwrap();
    check_windowed(
        &FlatServer::new(&flat_config).unwrap(),
        &epoch_streams::<AnyReport>(EPOCHS, PER_EPOCH, 2101, |i, rng| {
            flat_client.report(i % 32, rng).unwrap()
        }),
        WINDOW,
    );

    let hh_config = HhConfig::new(64, 4, eps).unwrap();
    let hh_client = HhClient::new(hh_config.clone()).unwrap();
    check_windowed(
        &HhServer::new(hh_config.clone()).unwrap(),
        &epoch_streams(EPOCHS, PER_EPOCH, 2102, |i, rng| {
            hh_client.report((i * 7) % 64, rng).unwrap()
        }),
        WINDOW,
    );

    let haar_config = HaarConfig::new(64, eps).unwrap();
    let haar_client = HaarHrrClient::new(haar_config.clone()).unwrap();
    check_windowed(
        &HaarHrrServer::new(haar_config).unwrap(),
        &epoch_streams(EPOCHS, PER_EPOCH, 2104, |i, rng| {
            haar_client.report((i * 11) % 64, rng).unwrap()
        }),
        WINDOW,
    );
}

/// Queries keep answering — with monotonically non-decreasing snapshot
/// versions and report counts — while N client threads ingest, and after
/// a graceful shutdown `num_reports` matches the acked frame count
/// exactly (the drain contract).
#[test]
fn queries_answer_during_ingest_and_shutdown_drains_exactly() {
    let config = HhConfig::new(64, 4, Epsilon::from_exp(3.0)).unwrap();
    let client = HhClient::new(config.clone()).unwrap();
    let prototype = HhServer::new(config).unwrap();
    let service = Arc::new(LdpService::new(&prototype, 4).unwrap());
    let server = LdpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetConfig {
            workers: 6,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    const WRITERS: usize = 4;
    const PER_WRITER: usize = 1_500;
    let total_acked: u64 = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let client = &client;
                scope.spawn(move || {
                    let stream = plain_stream(PER_WRITER, 2200 + w as u64, |i, rng| {
                        client.report((w * 17 + i) % 64, rng).unwrap()
                    });
                    let mut session =
                        LdpClient::connect(addr, Hello::plain::<ldp_ranges::HhReport>()).unwrap();
                    let acked = session.send_stream(&stream, 50).unwrap();
                    session.bye().unwrap();
                    acked
                })
            })
            .collect();

        // A reader querying over its own socket session while the
        // writers run: versions and report counts never go backwards,
        // and every reply is internally consistent.
        let reader = scope.spawn(move || {
            let mut session =
                LdpClient::connect(addr, Hello::plain::<ldp_ranges::HhReport>()).unwrap();
            let mut last_version = 0;
            let mut last_reports = 0;
            for _ in 0..30 {
                let reply = session.range(0, 63).unwrap();
                assert!(
                    reply.version >= last_version,
                    "snapshot version went backwards: {} after {last_version}",
                    reply.version
                );
                assert!(
                    reply.num_reports >= last_reports,
                    "report count went backwards: {} after {last_reports}",
                    reply.num_reports
                );
                let mass = reply.fraction().expect("a range reply");
                assert!(
                    reply.num_reports == 0 || (mass - 1.0).abs() < 1e-9,
                    "total mass {mass} inconsistent"
                );
                last_version = reply.version;
                last_reports = reply.num_reports;
                let _ = session.quantile(0.5).unwrap();
            }
            session.bye().unwrap();
        });

        let total = writers.into_iter().map(|w| w.join().unwrap()).sum();
        reader.join().unwrap();
        total
    });

    assert_eq!(total_acked, (WRITERS * PER_WRITER) as u64);
    let stats = server.shutdown();
    assert_eq!(
        stats.num_reports, total_acked,
        "drained num_reports must equal the acked frame count exactly"
    );
    assert_eq!(stats.frames_absorbed, total_acked);
    assert_eq!(service.num_reports(), total_acked);
    assert_eq!(stats.sessions, WRITERS as u64 + 1);
}

/// More sessions than workers: the bounded queue serves them all, and
/// the drain still accounts for every acked frame.
#[test]
fn bounded_queue_serves_more_sessions_than_workers() {
    let config = HaarConfig::new(32, Epsilon::new(1.1)).unwrap();
    let client = HaarHrrClient::new(config.clone()).unwrap();
    let prototype = HaarHrrServer::new(config).unwrap();
    let service = Arc::new(LdpService::new(&prototype, 2).unwrap());
    let server = LdpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetConfig {
            workers: 2,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    const SESSIONS: usize = 9;
    const PER_SESSION: usize = 200;
    let total_acked: u64 = std::thread::scope(|scope| {
        (0..SESSIONS)
            .map(|s| {
                let client = &client;
                scope.spawn(move || {
                    let stream = plain_stream(PER_SESSION, 2300 + s as u64, |i, rng| {
                        client.report((s + i) % 32, rng).unwrap()
                    });
                    let mut session =
                        LdpClient::connect(addr, Hello::plain::<ldp_ranges::HaarHrrReport>())
                            .unwrap();
                    let acked = session.send_stream(&stream, 64).unwrap();
                    session.bye().unwrap();
                    acked
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum()
    });

    assert_eq!(total_acked, (SESSIONS * PER_SESSION) as u64);
    let stats = server.shutdown();
    assert_eq!(stats.num_reports, total_acked);
    assert_eq!(stats.sessions, SESSIONS as u64);
}
