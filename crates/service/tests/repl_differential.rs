//! Replication differential tests: a follower is a *pure function* of
//! the leader's acked record stream.
//!
//! For the three served mechanisms (flat, `HH_B`, HaarHRR), windowed and
//! unwindowed: ingest through a durable leader over the socket while a
//! [`FollowerService`] streams the WAL, disconnect the follower at an
//! arbitrary acked offset, ingest more, restart the follower from its own
//! local log tail, let it catch up, and promote it. The promoted service's snapshot must be
//! bit-identical to a fresh in-process service fed exactly the acked
//! traffic — and a read replica's QUERY replies over the socket must be
//! bit-identical to the leader's at the same replication position.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ldp_freq_oracle::{AnyReport, Epsilon};
use ldp_ranges::{
    FlatClient, FlatConfig, FlatServer, HaarConfig, HaarHrrClient, HaarHrrServer, HhClient,
    HhConfig, HhServer, PersistableServer, SubtractableServer,
};
use ldp_service::net::proto::QueryResult;
use ldp_service::net::{Hello, NetConfig, WIRE_V1};
use ldp_service::storage::{scratch_dir, DurableConfig, DurableService, FsyncPolicy};
use ldp_service::{
    EncodedStream, EpochRing, FollowerService, LdpClient, LdpServer, LdpService, RangeSnapshot,
    SnapshotSource, WireReport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn config() -> DurableConfig {
    DurableConfig {
        num_shards: 3,
        // Small segments so every stream exercises segment rotation.
        segment_bytes: 4 << 10,
        fsync: FsyncPolicy::Always,
        checkpoint_every_records: 0,
        retain_history: false,
        ..DurableConfig::default()
    }
}

fn assert_snapshots_identical(a: &RangeSnapshot, b: &RangeSnapshot, what: &str) {
    assert_eq!(a.num_reports(), b.num_reports(), "{what}: num_reports");
    let fa = a.estimate().frequencies();
    let fb = b.estimate().frequencies();
    assert_eq!(fa.len(), fb.len(), "{what}: domain");
    for (z, (x, y)) in fa.iter().zip(fb).enumerate() {
        assert!(
            x.to_bits() == y.to_bits(),
            "{what}: estimates differ at item {z}: {x} vs {y}"
        );
    }
}

/// Polls the follower until it reaches `position` (every record applied
/// *and* logged locally) or the deadline passes.
fn await_position<S>(follower: &FollowerService<S>, position: u64, what: &str)
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    let deadline = Instant::now() + Duration::from_secs(20);
    while follower.position() < position {
        assert!(
            Instant::now() < deadline,
            "{what}: follower stuck at {} of {position} (stream error: {:?})",
            follower.position(),
            follower.last_error()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(follower.position(), position, "{what}: follower overshot");
}

/// In-process reference fed the same frames the leader acked.
fn reference_plain<S>(prototype: &S, batches: &[EncodedStream]) -> RangeSnapshot
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    let service = LdpService::new(prototype, 1).unwrap();
    for batch in batches {
        let mut buf = batch.as_bytes();
        while !buf.is_empty() {
            let (_, used) = ldp_service::decode_frame::<S::Report>(buf).unwrap();
            service.submit_frame(&buf[..used]).unwrap();
            buf = &buf[used..];
        }
    }
    service.refresh_snapshot().unwrap().as_ref().clone()
}

fn reference_windowed<S>(prototype: &S, window: usize, epochs: &[EncodedStream]) -> RangeSnapshot
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    let service = LdpService::<EpochRing<S>>::windowed(prototype, 1, window).unwrap();
    for stream in epochs {
        let mut buf = stream.as_bytes();
        while !buf.is_empty() {
            let (_, _, used) = ldp_service::decode_epoch_frame::<S::Report>(buf).unwrap();
            service.submit_epoch_frame(&buf[..used]).unwrap();
            buf = &buf[used..];
        }
        service.seal_epoch().unwrap();
    }
    service.refresh_snapshot().unwrap().as_ref().clone()
}

/// The unwindowed acceptance loop for one mechanism: stream `cut`
/// batches to a follower, disconnect it, stream the rest, restart the
/// follower from its local tail, catch up, check replica queries, and
/// promote — the promoted state must equal the reference bit for bit.
fn check_plain_replication<S>(prototype: &S, batches: &[EncodedStream], cut: usize, tag: &str)
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    assert!(cut > 0 && cut < batches.len(), "cut must be interior");
    let leader_dir = scratch_dir(&format!("repl-{tag}-leader")).unwrap();
    let follower_dir = scratch_dir(&format!("repl-{tag}-follower")).unwrap();
    let (leader, _) = DurableService::open(&leader_dir, prototype, config()).unwrap();
    let leader = Arc::new(leader);
    let server =
        LdpServer::bind_durable("127.0.0.1:0", Arc::clone(&leader), NetConfig::default()).unwrap();
    let addr = format!("{}", server.local_addr());

    // Phase 1: follower subscribed from the origin.
    let (follower, report) =
        FollowerService::open(&follower_dir, prototype, &addr, config()).unwrap();
    assert_eq!(report.records_replayed, 0);
    let mut session = LdpClient::connect(&addr, Hello::plain::<S::Report>()).unwrap();
    for batch in &batches[..cut] {
        let acked = session
            .send_batch(batch.len() as u64, batch.as_bytes())
            .unwrap();
        assert_eq!(acked, batch.len() as u64);
    }
    await_position(&follower, cut as u64, tag);
    drop(follower); // arbitrary disconnect offset: the cut

    // Phase 2: the leader keeps ingesting with no follower attached.
    for batch in &batches[cut..] {
        session
            .send_batch(batch.len() as u64, batch.as_bytes())
            .unwrap();
    }

    // Phase 3: restart from the local tail — recovery replays the local
    // log (cut records), and the stream resumes at exactly that position.
    let (follower, report) =
        FollowerService::open(&follower_dir, prototype, &addr, config()).unwrap();
    assert_eq!(report.records_replayed, cut as u64, "{tag}: local tail");
    await_position(&follower, batches.len() as u64, tag);

    // The read replica answers queries bit-identically to the leader at
    // the same replication position (both are quiescent here).
    let replica = LdpServer::bind_replica(
        "127.0.0.1:0",
        Arc::clone(follower.service()),
        NetConfig::default(),
    )
    .unwrap();
    let replica_addr = replica.local_addr();
    let mut replica_session =
        LdpClient::connect(replica_addr, Hello::plain::<S::Report>()).unwrap();
    let domain = replica_session.negotiated().domain;
    for (a, b) in [(0, domain - 1), (0, domain / 2), (domain / 3, domain - 1)] {
        let ours = replica_session.range(a, b).unwrap();
        let leaders = session.range(a, b).unwrap();
        let (QueryResult::Fraction(x), QueryResult::Fraction(y)) = (ours.result, leaders.result)
        else {
            panic!("{tag}: range query returned non-fraction");
        };
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{tag}: replica range [{a}, {b}] differs from leader"
        );
    }
    // A replica is read-only: REPORT is refused and absorbs nothing.
    let err = replica_session
        .send_batch(batches[0].len() as u64, batches[0].as_bytes())
        .unwrap_err();
    assert!(
        matches!(err, ldp_service::NetError::Remote(_)),
        "{tag}: replica accepted a REPORT"
    );
    let _ = replica.shutdown();
    session.bye().unwrap();

    // Phase 4: the leader dies; the promoted follower must be the
    // reference state, bit for bit.
    let _ = server.shutdown();
    drop(leader);
    let promoted = follower.promote().unwrap();
    let snap = promoted.refresh_snapshot().unwrap();
    let expected = reference_plain(prototype, batches);
    assert_snapshots_identical(&snap, &expected, &format!("{tag} promoted"));
    // The promoted service is a normal durable leader: it keeps
    // ingesting through its own (replicated) log.
    let more = promoted
        .ingest_batch(WIRE_V1, batches[0].len() as u64, batches[0].as_bytes())
        .unwrap();
    assert_eq!(more, batches[0].len() as u64);
    drop(promoted);
    std::fs::remove_dir_all(&leader_dir).unwrap();
    std::fs::remove_dir_all(&follower_dir).unwrap();
}

/// The windowed acceptance loop: epoch batches with interleaved seals —
/// the stream ships SEAL records and the follower's ring rotates in
/// lockstep with the leader's.
fn check_windowed_replication<S>(
    prototype: &S,
    epochs: &[EncodedStream],
    window: usize,
    cut_epoch: usize,
    tag: &str,
) where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    assert!(cut_epoch > 0 && cut_epoch < epochs.len());
    let leader_dir = scratch_dir(&format!("replw-{tag}-leader")).unwrap();
    let follower_dir = scratch_dir(&format!("replw-{tag}-follower")).unwrap();
    let (leader, _) =
        DurableService::open_windowed(&leader_dir, prototype, window, config()).unwrap();
    let leader = Arc::new(leader);
    let server =
        LdpServer::bind_durable("127.0.0.1:0", Arc::clone(&leader), NetConfig::default()).unwrap();
    let addr = format!("{}", server.local_addr());

    let (follower, _) =
        FollowerService::open_windowed(&follower_dir, prototype, window, &addr, config()).unwrap();
    let mut session = LdpClient::connect(&addr, Hello::windowed::<S::Report>()).unwrap();
    // Two FRAMES records + one SEAL per epoch: position = 3 per epoch.
    let mut drive = |stream: &EncodedStream, epoch: usize| {
        let mid = stream.len() / 2;
        session
            .send_batch(mid as u64, stream.frame_span(0, mid))
            .unwrap();
        session
            .send_batch(
                (stream.len() - mid) as u64,
                stream.frame_span(mid, stream.len()),
            )
            .unwrap();
        assert_eq!(session.seal_epoch().unwrap(), epoch as u64);
    };
    for (e, stream) in epochs[..cut_epoch].iter().enumerate() {
        drive(stream, e);
    }
    await_position(&follower, 3 * cut_epoch as u64, tag);
    drop(follower); // disconnect mid-window

    for (e, stream) in epochs[cut_epoch..].iter().enumerate() {
        drive(stream, cut_epoch + e);
    }

    let (follower, report) =
        FollowerService::open_windowed(&follower_dir, prototype, window, &addr, config()).unwrap();
    // Recovery does not count checkpoint markers (there are none on a
    // follower anyway), so the replayed count is exactly the local tail.
    assert_eq!(report.records_replayed, 3 * cut_epoch as u64, "{tag}");
    await_position(&follower, 3 * epochs.len() as u64, tag);
    session.bye().unwrap();

    let _ = server.shutdown();
    drop(leader);
    let promoted = follower.promote().unwrap();
    let snap = promoted.refresh_snapshot().unwrap();
    let expected = reference_windowed(prototype, window, epochs);
    assert_snapshots_identical(&snap, &expected, &format!("{tag} promoted (live)"));
    // The trailing window agrees too — the follower's ring sealed and
    // rotated epoch by epoch, exactly as the leader's did.
    let win = promoted.window_snapshot(window).unwrap();
    let reference = LdpService::<EpochRing<S>>::windowed(prototype, 1, window).unwrap();
    for stream in epochs {
        let mut buf = stream.as_bytes();
        while !buf.is_empty() {
            let (_, _, used) = ldp_service::decode_epoch_frame::<S::Report>(buf).unwrap();
            reference.submit_epoch_frame(&buf[..used]).unwrap();
            buf = &buf[used..];
        }
        reference.seal_epoch().unwrap();
    }
    let exp_win = reference.window_snapshot(window).unwrap();
    assert_eq!(win.first_epoch(), exp_win.first_epoch(), "{tag}");
    assert_eq!(win.last_epoch(), exp_win.last_epoch(), "{tag}");
    assert_snapshots_identical(
        win.snapshot(),
        exp_win.snapshot(),
        &format!("{tag} promoted (window)"),
    );
    drop(promoted);
    std::fs::remove_dir_all(&leader_dir).unwrap();
    std::fs::remove_dir_all(&follower_dir).unwrap();
}

fn plain_batches<T: WireReport>(
    batches: usize,
    per_batch: usize,
    seed: u64,
    mut encode: impl FnMut(usize, &mut StdRng) -> T,
) -> Vec<EncodedStream> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..batches)
        .map(|b| {
            let mut stream = EncodedStream::new();
            for i in 0..per_batch {
                stream.push(&encode(b * per_batch + i, &mut rng));
            }
            stream
        })
        .collect()
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

/// The acceptance-criterion sweep, unwindowed: every served mechanism,
/// each with a different disconnect offset.
#[test]
fn replication_is_bit_identical_for_every_served_mechanism() {
    const BATCHES: usize = 6;
    const PER_BATCH: usize = 40;
    let eps = Epsilon::new(1.1);

    let flat_config = FlatConfig::new(32, eps).unwrap();
    let flat_client = FlatClient::new(&flat_config).unwrap();
    check_plain_replication(
        &FlatServer::new(&flat_config).unwrap(),
        &plain_batches::<AnyReport>(BATCHES, PER_BATCH, 4001, |i, rng| {
            flat_client.report(i % 32, rng).unwrap()
        }),
        1,
        "flat",
    );

    let hh_config = HhConfig::new(64, 4, eps).unwrap();
    let hh_client = HhClient::new(hh_config.clone()).unwrap();
    check_plain_replication(
        &HhServer::new(hh_config.clone()).unwrap(),
        &plain_batches(BATCHES, PER_BATCH, 4002, |i, rng| {
            hh_client.report((i * 7) % 64, rng).unwrap()
        }),
        2,
        "hh",
    );

    let haar_config = HaarConfig::new(64, eps).unwrap();
    let haar_client = HaarHrrClient::new(haar_config.clone()).unwrap();
    check_plain_replication(
        &HaarHrrServer::new(haar_config).unwrap(),
        &plain_batches(BATCHES, PER_BATCH, 4004, |i, rng| {
            haar_client.report((i * 11) % 64, rng).unwrap()
        }),
        4,
        "haarhrr",
    );
}

/// The acceptance-criterion sweep, windowed: every served mechanism with
/// seals in the stream and window rotation on both sides.
#[test]
fn windowed_replication_is_bit_identical_for_every_served_mechanism() {
    const EPOCHS: usize = 4;
    const PER_EPOCH: usize = 40;
    const WINDOW: usize = 2;
    let eps = Epsilon::new(1.1);

    let flat_config = FlatConfig::new(32, eps).unwrap();
    let flat_client = FlatClient::new(&flat_config).unwrap();
    check_windowed_replication(
        &FlatServer::new(&flat_config).unwrap(),
        &epoch_streams::<AnyReport>(EPOCHS, PER_EPOCH, 4101, |i, rng| {
            flat_client.report(i % 32, rng).unwrap()
        }),
        WINDOW,
        1,
        "flat",
    );

    let hh_config = HhConfig::new(64, 4, eps).unwrap();
    let hh_client = HhClient::new(hh_config.clone()).unwrap();
    check_windowed_replication(
        &HhServer::new(hh_config.clone()).unwrap(),
        &epoch_streams(EPOCHS, PER_EPOCH, 4102, |i, rng| {
            hh_client.report((i * 7) % 64, rng).unwrap()
        }),
        WINDOW,
        2,
        "hh",
    );

    let haar_config = HaarConfig::new(64, eps).unwrap();
    let haar_client = HaarHrrClient::new(haar_config.clone()).unwrap();
    check_windowed_replication(
        &HaarHrrServer::new(haar_config).unwrap(),
        &epoch_streams(EPOCHS, PER_EPOCH, 4104, |i, rng| {
            haar_client.report((i * 11) % 64, rng).unwrap()
        }),
        WINDOW,
        1,
        "haarhrr",
    );
}

/// Shutting a read replica down writes nothing into its follower's log —
/// no seal, no checkpoint — so the follower keeps applying the leader's
/// records, reaches the leader's position with a clean stream, and
/// reopens from its own tail. Plain and windowed.
#[test]
fn replica_shutdown_leaves_the_follower_log_alone() {
    const WINDOW: usize = 3;
    let hh_config = HhConfig::new(64, 4, Epsilon::new(1.1)).unwrap();
    let client = HhClient::new(hh_config.clone()).unwrap();
    let prototype = HhServer::new(hh_config).unwrap();
    let encode = |i: usize, rng: &mut StdRng| client.report((i * 7) % 64, rng).unwrap();

    for windowed in [false, true] {
        let tag = if windowed {
            "replica-stop-w"
        } else {
            "replica-stop"
        };
        let batches = if windowed {
            epoch_streams(2, 30, 4301, encode)
        } else {
            plain_batches(2, 30, 4301, encode)
        };
        let leader_dir = scratch_dir(&format!("{tag}-leader")).unwrap();
        let follower_dir = scratch_dir(&format!("{tag}-follower")).unwrap();
        let (leader, _) = if windowed {
            DurableService::open_windowed(&leader_dir, &prototype, WINDOW, config())
        } else {
            DurableService::open(&leader_dir, &prototype, config())
        }
        .unwrap();
        let leader = Arc::new(leader);
        let server =
            LdpServer::bind_durable("127.0.0.1:0", Arc::clone(&leader), NetConfig::default())
                .unwrap();
        let addr = format!("{}", server.local_addr());
        let open_follower = || {
            if windowed {
                FollowerService::open_windowed(&follower_dir, &prototype, WINDOW, &addr, config())
            } else {
                FollowerService::open(&follower_dir, &prototype, &addr, config())
            }
            .unwrap()
        };
        let hello = if windowed {
            Hello::windowed::<ldp_ranges::HhReport>()
        } else {
            Hello::plain::<ldp_ranges::HhReport>()
        };
        let mut session = LdpClient::connect(&addr, hello).unwrap();
        // One FRAMES record per round, plus its SEAL when windowed.
        let per_round = if windowed { 2 } else { 1 };
        let mut round = |batch: &EncodedStream| {
            session
                .send_batch(batch.len() as u64, batch.as_bytes())
                .unwrap();
            if windowed {
                session.seal_epoch().unwrap();
            }
        };

        let (follower, _) = open_follower();
        round(&batches[0]);
        await_position(&follower, per_round, tag);
        let replica = LdpServer::bind_replica(
            "127.0.0.1:0",
            Arc::clone(follower.service()),
            NetConfig::default(),
        )
        .unwrap();
        let stats = replica.shutdown();
        assert_eq!(stats.sealed_epoch, None, "{tag}: replica shutdown sealed");
        assert_eq!(
            stats.final_checkpoint, None,
            "{tag}: replica shutdown checkpointed"
        );

        // The leader moves on; the follower keeps up, stream intact.
        round(&batches[1]);
        await_position(&follower, 2 * per_round, tag);
        assert_eq!(follower.last_error(), None, "{tag}");
        assert_snapshots_identical(
            &follower.service().refresh_snapshot().unwrap(),
            &leader.refresh_snapshot().unwrap(),
            tag,
        );

        // Its log is still a pure copy: it reopens from its own tail.
        drop(follower);
        let (follower, report) = open_follower();
        assert_eq!(report.records_replayed, 2 * per_round, "{tag}: local tail");
        assert_eq!(follower.position(), 2 * per_round, "{tag}");
        assert_snapshots_identical(
            &follower.service().refresh_snapshot().unwrap(),
            &leader.refresh_snapshot().unwrap(),
            &format!("{tag} reopened"),
        );

        drop(follower);
        session.bye().unwrap();
        let _ = server.shutdown();
        drop(leader);
        std::fs::remove_dir_all(&leader_dir).unwrap();
        std::fs::remove_dir_all(&follower_dir).unwrap();
    }
}

/// A follower that was streaming while the leader checkpoints: the
/// pushed CHECKPOINT marker lands in the follower's log as a no-op
/// marker, the follower's position counts it, and a *new* subscription
/// after the prune is refused with `REPL_UNAVAILABLE`.
#[test]
fn checkpoint_markers_replicate_and_pruning_refuses_new_subscriptions() {
    let eps = Epsilon::new(1.1);
    let hh_config = HhConfig::new(64, 4, eps).unwrap();
    let hh_client = HhClient::new(hh_config.clone()).unwrap();
    let prototype = HhServer::new(hh_config).unwrap();
    let batches = plain_batches(4, 30, 4201, |i, rng| {
        hh_client.report((i * 7) % 64, rng).unwrap()
    });

    let leader_dir = scratch_dir("repl-ckpt-leader").unwrap();
    let follower_dir = scratch_dir("repl-ckpt-follower").unwrap();
    let (leader, _) = DurableService::open(&leader_dir, &prototype, config()).unwrap();
    let leader = Arc::new(leader);
    let server =
        LdpServer::bind_durable("127.0.0.1:0", Arc::clone(&leader), NetConfig::default()).unwrap();
    let addr = format!("{}", server.local_addr());

    let (follower, _) = FollowerService::open(&follower_dir, &prototype, &addr, config()).unwrap();
    let mut session = LdpClient::connect(&addr, Hello::plain::<ldp_ranges::HhReport>()).unwrap();
    for batch in &batches[..2] {
        session
            .send_batch(batch.len() as u64, batch.as_bytes())
            .unwrap();
    }
    // Let the cursor reach the tail first, so the prune below can never
    // delete a segment the stream has not opened yet (in-flight cursors
    // past the pruned point keep streaming; lagging ones would die).
    await_position(&follower, 2, "ckpt-marker pre-prune");
    // The leader checkpoints (pruning its early segments): the marker is
    // streamed, the follower appends it without checkpointing itself.
    leader.checkpoint().unwrap();
    for batch in &batches[2..] {
        session
            .send_batch(batch.len() as u64, batch.as_bytes())
            .unwrap();
    }
    // 4 FRAMES + 1 CHECKPOINT marker.
    await_position(&follower, 5, "ckpt-marker");

    // New subscriptions from the origin are refused after the prune.
    let refused = ldp_service::ReplFeed::connect(&addr, 0);
    assert!(
        matches!(refused, Err(ldp_service::NetError::Remote(ref e))
            if matches!(e.code, ldp_service::net::proto::ErrorCode::ReplUnavailable)),
        "pruned leader admitted a new follower: {refused:?}"
    );

    session.bye().unwrap();
    let _ = server.shutdown();
    drop(leader);
    let promoted = follower.promote().unwrap();
    let snap = promoted.refresh_snapshot().unwrap();
    let expected = reference_plain(&prototype, &batches);
    assert_snapshots_identical(&snap, &expected, "ckpt-marker promoted");
    drop(promoted);
    std::fs::remove_dir_all(&leader_dir).unwrap();
    std::fs::remove_dir_all(&follower_dir).unwrap();
}

/// Picks frames from `pool` whose lengths sum to exactly `target`: the
/// pool in order while a margin of `small` bytes stays open, then a
/// subset sum over the frames no longer than `small` for the rest.
fn exact_fill(pool: &[Vec<u8>], target: usize, small: usize) -> Vec<usize> {
    let mut picked = Vec::new();
    let mut total = 0;
    let mut rest = Vec::new();
    for (i, frame) in pool.iter().enumerate() {
        if total + frame.len() + small <= target {
            total += frame.len();
            picked.push(i);
        } else if frame.len() <= small {
            rest.push(i);
        }
    }
    let need = target - total;
    // reach[v] = (item, previous sum) for the first way found to sum to v.
    let mut reach: Vec<Option<(usize, usize)>> = vec![None; need + 1];
    reach[0] = Some((usize::MAX, 0));
    for &i in &rest {
        let len = pool[i].len();
        for v in (len..=need).rev() {
            if reach[v].is_none() && reach[v - len].is_some() {
                reach[v] = Some((i, v - len));
            }
        }
    }
    let mut v = need;
    while v > 0 {
        let (i, prev) = reach[v].expect("the small frames cannot close the gap");
        picked.push(i);
        v = prev;
    }
    picked
}

/// A REPORT body at [`MAX_MESSAGE_BYTES`] is acked as a WAL record one
/// byte longer than itself, and its REPL_REC adds a type byte and the
/// position varint on top: the follower must take that envelope and
/// reach position 1, not stall at position 0 on the client-side cap.
#[test]
fn an_at_cap_report_reaches_the_follower() {
    use ldp_freq_oracle::FrequencyOracle;
    use ldp_service::net::proto::MAX_MESSAGE_BYTES;

    // HH_4 over OUE at D = 2^16: a frame is 15 bytes at the top levels and
    // 8 KiB at the leaves, so a few thousand frames fill the cap and the
    // small ones make the fill exact.
    let hh_config =
        HhConfig::with_oracle(1 << 16, 4, Epsilon::new(1.1), FrequencyOracle::Oue).unwrap();
    let client = HhClient::new(hh_config.clone()).unwrap();
    let prototype = HhServer::new(hh_config).unwrap();
    let mut rng = StdRng::seed_from_u64(4401);
    let pool: Vec<Vec<u8>> = (0..12_000)
        .map(|i| {
            client
                .report((i * 7919) % (1 << 16), &mut rng)
                .unwrap()
                .to_frame()
        })
        .collect();
    // The body is the type byte, a two-byte count varint, then the frames.
    let picked = exact_fill(&pool, MAX_MESSAGE_BYTES - 3, 600);
    assert!(
        (128..16_384).contains(&picked.len()),
        "count varint is not two bytes"
    );
    let frames: Vec<u8> = picked
        .iter()
        .flat_map(|&i| pool[i].iter().copied())
        .collect();
    let count = picked.len() as u64;
    assert_eq!(
        ldp_service::net::proto::encode_report_body(count, &frames).len(),
        MAX_MESSAGE_BYTES
    );

    let leader_dir = scratch_dir("repl-at-cap-leader").unwrap();
    let follower_dir = scratch_dir("repl-at-cap-follower").unwrap();
    let (leader, _) = DurableService::open(&leader_dir, &prototype, config()).unwrap();
    let leader = Arc::new(leader);
    let server =
        LdpServer::bind_durable("127.0.0.1:0", Arc::clone(&leader), NetConfig::default()).unwrap();
    let addr = format!("{}", server.local_addr());
    let (follower, _) = FollowerService::open(&follower_dir, &prototype, &addr, config()).unwrap();

    let mut session = LdpClient::connect(&addr, Hello::plain::<ldp_ranges::HhReport>()).unwrap();
    assert_eq!(session.send_batch(count, &frames).unwrap(), count);
    await_position(&follower, 1, "at-cap REPORT");
    assert_eq!(follower.last_error(), None);
    assert_snapshots_identical(
        &follower.service().refresh_snapshot().unwrap(),
        &leader.refresh_snapshot().unwrap(),
        "at-cap REPORT",
    );

    drop(follower);
    session.bye().unwrap();
    let _ = server.shutdown();
    drop(leader);
    std::fs::remove_dir_all(&leader_dir).unwrap();
    std::fs::remove_dir_all(&follower_dir).unwrap();
}
