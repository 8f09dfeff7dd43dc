//! Durable mode over the socket: REPORT batches acked by a durable
//! server survive a restart bit-identically, graceful shutdown
//! checkpoints, and STATUS exposes durability progress to operators —
//! with or without a handshake.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use ldp_freq_oracle::Epsilon;
use ldp_ranges::{HaarConfig, HaarHrrClient, HaarHrrServer, HhClient, HhConfig, HhServer};
use ldp_service::net::proto::{read_message, write_message, ClientMsg, ServerMsg};
use ldp_service::net::{Hello, NetConfig, Query, QueryOp};
use ldp_service::storage::{scratch_dir, DurableConfig, DurableService, FsyncPolicy};
use ldp_service::{EncodedStream, LdpClient, LdpServer, LdpService, RangeSnapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_snapshots_identical(a: &RangeSnapshot, b: &RangeSnapshot, what: &str) {
    assert_eq!(a.num_reports(), b.num_reports(), "{what}: num_reports");
    for (z, (x, y)) in a
        .estimate()
        .frequencies()
        .iter()
        .zip(b.estimate().frequencies())
        .enumerate()
    {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: estimates differ at item {z}: {x} vs {y}"
        );
    }
}

fn durable_config() -> DurableConfig {
    DurableConfig {
        num_shards: 2,
        segment_bytes: 16 << 10,
        fsync: FsyncPolicy::Always,
        checkpoint_every_records: 0,
        retain_history: false,
        ..DurableConfig::default()
    }
}

/// Socket-ingested traffic into a durable server: acked batches are on
/// disk, shutdown checkpoints, and a restarted service recovers the
/// drained state bit-identically — and bit-identically to a plain
/// in-process service fed the same frames (transport *and* storage are
/// pure functions).
#[test]
fn durable_server_survives_restart_bit_identically() {
    let config = HhConfig::new(64, 4, Epsilon::from_exp(3.0)).unwrap();
    let client = HhClient::new(config.clone()).unwrap();
    let prototype = HhServer::new(config).unwrap();

    let mut rng = StdRng::seed_from_u64(4001);
    let mut stream = EncodedStream::new();
    for i in 0..600 {
        stream.push(&client.report((i * 7) % 64, &mut rng).unwrap());
    }

    // In-process reference.
    let direct = LdpService::new(&prototype, 1).unwrap();
    for i in 0..stream.len() {
        direct.submit_frame(stream.frame(i)).unwrap();
    }
    let direct_snap = direct.refresh_snapshot().unwrap();

    // Durable socket path.
    let dir = scratch_dir("durable-net").unwrap();
    let (durable, _) = DurableService::open(&dir, &prototype, durable_config()).unwrap();
    let durable = Arc::new(durable);
    let server =
        LdpServer::bind_durable("127.0.0.1:0", Arc::clone(&durable), NetConfig::default()).unwrap();
    let mut session =
        LdpClient::connect(server.local_addr(), Hello::plain::<ldp_ranges::HhReport>()).unwrap();
    let acked = session.send_stream(&stream, 64).unwrap();
    assert_eq!(acked, 600);

    // STATUS mid-session: WAL progress visible, no checkpoint yet.
    let status = session.status().unwrap();
    assert_eq!(status.frames_absorbed, 600);
    assert_eq!(status.frames_rejected, 0);
    assert_eq!(status.num_reports, 600);
    assert_eq!(status.current_epoch, None);
    let progress = status.durable.expect("durable server reports progress");
    assert_eq!(progress.last_checkpoint, None);
    assert_eq!(progress.wal_frames, 600);
    assert!(progress.wal_records >= 600 / 64);

    // Queries answer from the durable backend.
    let reply = session
        .query(Query {
            op: QueryOp::Range { a: 0, b: 63 },
            window: None,
        })
        .unwrap();
    assert_eq!(
        reply.fraction().expect("a range reply").to_bits(),
        direct_snap.range(0, 63).to_bits()
    );

    session.bye().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.frames_absorbed, 600);
    let final_ckpt = stats
        .final_checkpoint
        .expect("durable shutdown checkpoints");
    assert_snapshots_identical(&stats.final_snapshot, &direct_snap, "socket vs in-process");
    drop(durable);

    // Restart: the drained state comes back from the checkpoint alone.
    let (reopened, report) = DurableService::open(&dir, &prototype, durable_config()).unwrap();
    assert_eq!(report.checkpoint_id, Some(final_ckpt));
    assert_eq!(
        report.records_replayed, 0,
        "shutdown checkpoint covers everything"
    );
    let snap = reopened.refresh_snapshot().unwrap();
    assert_snapshots_identical(&snap, &direct_snap, "recovered vs in-process");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Windowed durable mode over the socket: SEALs are logged, shutdown
/// seals + checkpoints, and the restarted window (including rotation
/// state) matches the drained one.
#[test]
fn durable_windowed_server_recovers_window_state() {
    let config = HaarConfig::new(64, Epsilon::new(1.1)).unwrap();
    let client = HaarHrrClient::new(config.clone()).unwrap();
    let prototype = HaarHrrServer::new(config).unwrap();
    const WINDOW: usize = 2;

    let dir = scratch_dir("durable-net-win").unwrap();
    let (durable, _) =
        DurableService::open_windowed(&dir, &prototype, WINDOW, durable_config()).unwrap();
    let durable = Arc::new(durable);
    let server =
        LdpServer::bind_durable("127.0.0.1:0", Arc::clone(&durable), NetConfig::default()).unwrap();
    let mut session = LdpClient::connect(
        server.local_addr(),
        Hello::windowed::<ldp_ranges::HaarHrrReport>(),
    )
    .unwrap();

    let mut rng = StdRng::seed_from_u64(4002);
    for e in 0..4u64 {
        let mut stream = EncodedStream::new();
        for i in 0..150usize {
            stream.push_epoch(&client.report((i * 11) % 64, &mut rng).unwrap(), e);
        }
        assert_eq!(session.send_stream(&stream, 50).unwrap(), 150);
        assert_eq!(session.seal_epoch().unwrap(), e);
    }
    let status = session.status().unwrap();
    assert_eq!(status.current_epoch, Some(4));
    assert!(status.durable.is_some());

    session.bye().unwrap();
    let stats = server.shutdown();
    // The drain seals the open (empty) epoch and checkpoints.
    assert_eq!(stats.sealed_epoch, Some(4));
    assert!(stats.final_checkpoint.is_some());
    let drained = stats.final_snapshot;
    let drained_window = durable.window_snapshot(WINDOW).unwrap();
    drop(durable);

    let (reopened, report) =
        DurableService::open_windowed(&dir, &prototype, WINDOW, durable_config()).unwrap();
    assert_eq!(report.records_replayed, 0);
    let snap = reopened.refresh_snapshot().unwrap();
    assert_snapshots_identical(&snap, &drained, "recovered windowed live state");
    let window = reopened.window_snapshot(WINDOW).unwrap();
    assert_eq!(window.first_epoch(), drained_window.first_epoch());
    assert_eq!(window.last_epoch(), drained_window.last_epoch());
    assert_snapshots_identical(
        window.snapshot(),
        drained_window.snapshot(),
        "recovered trailing window",
    );

    // The reopened ring keeps sealing where it left off.
    assert_eq!(reopened.seal_epoch().unwrap(), 5);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// STATUS needs no handshake and works against non-durable servers too
/// (reporting no durability section) — the blind operator probe.
#[test]
fn status_probe_works_before_hello_and_without_durability() {
    let config = HhConfig::new(64, 4, Epsilon::new(1.1)).unwrap();
    let prototype = HhServer::new(config).unwrap();
    let service = Arc::new(LdpService::new(&prototype, 2).unwrap());
    let server =
        LdpServer::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default()).unwrap();

    // Raw socket, STATUS as the very first message — no HELLO.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_message(&mut stream, &ClientMsg::Status.encode()).unwrap();
    let reply = ServerMsg::decode(&read_message(&mut stream).unwrap()).unwrap();
    let ServerMsg::StatusOk(status) = reply else {
        panic!("STATUS answered with {reply:?}");
    };
    assert_eq!(status.frames_absorbed, 0);
    assert_eq!(status.num_reports, 0);
    assert_eq!(status.snapshot_version, 0);
    assert_eq!(status.current_epoch, None);
    assert_eq!(
        status.durable, None,
        "plain server has no durability section"
    );
    write_message(&mut stream, &ClientMsg::Bye.encode()).unwrap();
    let _ = read_message(&mut stream);
    drop(stream);
    let _ = server.shutdown();
}
