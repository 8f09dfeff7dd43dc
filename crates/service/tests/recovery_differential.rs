//! Crash-recovery differential tests: durability is a *pure function* of
//! the logged prefix.
//!
//! For all six mechanisms, windowed and unwindowed: ingest through a
//! [`DurableService`], crash it (drop without shutdown), truncate the WAL
//! at arbitrary byte offsets — mid-header, mid-length-prefix, mid-body,
//! and on record boundaries — and recover. The recovered snapshot must be
//! bit-identical to an in-process service fed exactly the record prefix
//! that survived, and that prefix must itself be a byte prefix of what
//! was acknowledged. Separately: recovery from checkpoint + WAL tail must
//! equal a full-log replay bit for bit, a graceful shutdown must reopen
//! with zero replay, and a corrupt byte mid-log must stop replay cleanly
//! at the damaged record. Finally, four threads ingesting into one store
//! while a fifth seals and checkpoints must leave a log whose replay —
//! and a follower's re-apply — lands on the live state bit for bit.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ldp_freq_oracle::{AnyReport, Epsilon, FrequencyOracle};
use ldp_ranges::{
    FlatClient, FlatConfig, FlatServer, HaarConfig, HaarHrrClient, HaarHrrServer, HaarOueClient,
    HaarOueServer, Hh2dClient, Hh2dConfig, Hh2dServer, HhClient, HhConfig, HhServer, HhSplitClient,
    HhSplitServer, PersistableServer, SubtractableServer,
};
use ldp_service::net::{NetConfig, WIRE_EPOCH, WIRE_V1};
use ldp_service::storage::wal::{self, WalRecord};
use ldp_service::storage::{
    checkpoint, scratch_dir, DurableConfig, DurableService, FsyncPolicy, TailStatus,
};
use ldp_service::{
    EncodedStream, EpochRing, FollowerService, LdpServer, LdpService, RangeSnapshot,
    SnapshotSource, WireReport,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn config() -> DurableConfig {
    DurableConfig {
        num_shards: 3,
        // Small segments so every run exercises rotation.
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

/// Copies a storage directory, keeping only the first `keep` bytes of the
/// WAL (segments concatenated in order): whole earlier segments survive,
/// the segment containing the cut is truncated, later segments vanish.
/// Checkpoint files are copied unchanged.
fn truncated_copy(src: &Path, keep: u64, tag: &str) -> PathBuf {
    let dst = scratch_dir(tag).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name();
        // Copy checkpoints and other metadata, but never a (stale)
        // single-writer LOCK and never the segments (handled below).
        if name.to_str().and_then(wal::parse_segment_name).is_none() && name != "LOCK" {
            std::fs::copy(entry.path(), dst.join(&name)).unwrap();
        }
    }
    let mut remaining = keep;
    for (_, path) in wal::list_segments(src).unwrap() {
        if remaining == 0 {
            break;
        }
        let bytes = std::fs::read(&path).unwrap();
        let take = (bytes.len() as u64).min(remaining) as usize;
        std::fs::write(dst.join(path.file_name().unwrap()), &bytes[..take]).unwrap();
        remaining -= take as u64;
    }
    dst
}

/// Total WAL bytes across all segments.
fn wal_len(dir: &Path) -> u64 {
    wal::list_segments(dir)
        .unwrap()
        .iter()
        .map(|(_, p)| std::fs::metadata(p).unwrap().len())
        .sum()
}

/// Independently parses the valid record prefix of a (possibly
/// truncated) WAL directory: segments in order, stopping at the first
/// bad header, bad record, or sequence gap — the torn-tail rule the
/// recovery layer must implement.
fn parse_prefix(dir: &Path) -> Vec<WalRecord> {
    let mut records = Vec::new();
    let mut expected_seq = None;
    for (seq, path) in wal::list_segments(dir).unwrap() {
        if let Some(expected) = expected_seq {
            if seq != expected {
                break;
            }
        }
        let bytes = std::fs::read(&path).unwrap();
        let Ok(header) = wal::check_segment_header(&bytes, seq) else {
            return records;
        };
        let mut pos = header as usize;
        while pos < bytes.len() {
            match wal::decode_framed(&bytes[pos..]) {
                Ok((record, used)) => {
                    records.push(record);
                    pos += used;
                }
                Err(_) => return records,
            }
        }
        expected_seq = Some(seq + 1);
    }
    records
}

/// The byte offsets to cut the log at: a coarse sweep plus the hostile
/// edges (empty log, mid-header, mid-length-prefix, mid-first-body).
fn cut_offsets(total: u64) -> Vec<u64> {
    let mut cuts = vec![
        0,
        1,
        wal::SEGMENT_HEADER_BYTES + 2,
        wal::SEGMENT_HEADER_BYTES + 11,
    ];
    let stride = (total / 19).max(1) | 1;
    let mut at = stride;
    while at < total {
        cuts.push(at);
        at += stride;
    }
    cuts.push(total);
    cuts.retain(|&c| c <= total);
    cuts
}

/// Replays a record prefix into a fresh in-process service — the
/// reference the recovered state must match bit for bit.
fn replay_reference_plain<S>(prototype: &S, records: &[WalRecord]) -> (u64, RangeSnapshot)
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    let service = LdpService::new(prototype, 1).unwrap();
    let mut frames = 0u64;
    for record in records {
        if let WalRecord::Frames {
            count,
            frames: bytes,
            ..
        } = record
        {
            let mut buf = &bytes[..];
            for _ in 0..*count {
                let (_, used) = ldp_service::decode_frame::<S::Report>(buf).unwrap();
                service.submit_frame(&buf[..used]).unwrap();
                buf = &buf[used..];
                frames += 1;
            }
        }
    }
    (frames, service.refresh_snapshot().unwrap().as_ref().clone())
}

fn replay_reference_windowed<S>(
    prototype: &S,
    window: usize,
    records: &[WalRecord],
) -> (u64, RangeSnapshot)
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    let service = LdpService::<EpochRing<S>>::windowed(prototype, 1, window).unwrap();
    let mut frames = 0u64;
    for record in records {
        match record {
            WalRecord::Frames {
                count,
                frames: bytes,
                ..
            } => {
                let mut buf = &bytes[..];
                for _ in 0..*count {
                    let (_, _, used) = ldp_service::decode_epoch_frame::<S::Report>(buf).unwrap();
                    service.submit_epoch_frame(&buf[..used]).unwrap();
                    buf = &buf[used..];
                    frames += 1;
                }
            }
            WalRecord::Seal { epoch } => {
                assert_eq!(service.seal_epoch().unwrap(), *epoch);
            }
            WalRecord::Checkpoint { .. } => {}
        }
    }
    (frames, service.refresh_snapshot().unwrap().as_ref().clone())
}

/// The concatenated FRAMES payloads of a record list — used to pin that
/// the surviving log is a byte prefix of what was acknowledged.
fn frames_bytes(records: &[WalRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for record in records {
        if let WalRecord::Frames { frames, .. } = record {
            out.extend_from_slice(frames);
        }
    }
    out
}

/// The unwindowed acceptance loop for one mechanism: ingest batches,
/// crash, cut the log at every offset in the sweep, recover, and compare
/// against the in-process reference fed exactly the surviving prefix.
fn check_plain_crash<S>(prototype: &S, batches: &[EncodedStream], tag: &str)
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    let dir = scratch_dir(&format!("rec-{tag}")).unwrap();
    let (durable, report) = DurableService::open(&dir, prototype, config()).unwrap();
    assert!(report.checkpoint_id.is_none());
    assert_eq!(report.records_replayed, 0);
    let mut acked_bytes = Vec::new();
    for batch in batches {
        let n = durable
            .ingest_batch(WIRE_V1, batch.len() as u64, batch.as_bytes())
            .unwrap();
        assert_eq!(n, batch.len() as u64);
        acked_bytes.extend_from_slice(batch.as_bytes());
    }
    let pre_crash = durable.refresh_snapshot().unwrap();
    drop(durable); // crash: no finalize, no checkpoint

    let total = wal_len(&dir);
    assert!(total > 0);
    for cut in cut_offsets(total) {
        let crashed = truncated_copy(&dir, cut, &format!("rec-{tag}-cut"));
        let records = parse_prefix(&crashed);
        // The surviving frames are a byte prefix of the acked traffic.
        let survived = frames_bytes(&records);
        assert!(
            acked_bytes.starts_with(&survived),
            "{tag} cut {cut}: surviving log is not a prefix of acked bytes"
        );
        let (expect_frames, expected) = replay_reference_plain(prototype, &records);

        let (recovered, report) = DurableService::open(&crashed, prototype, config()).unwrap();
        assert_eq!(
            report.frames_replayed, expect_frames,
            "{tag} cut {cut}: replayed frame count"
        );
        let snap = recovered.refresh_snapshot().unwrap();
        assert_snapshots_identical(&snap, &expected, &format!("{tag} cut {cut}"));
        if cut == total {
            assert_eq!(
                report.tail,
                TailStatus::Clean,
                "{tag}: full log must be clean"
            );
            assert_snapshots_identical(&snap, &pre_crash, &format!("{tag} full log"));
        }
        drop(recovered);
        std::fs::remove_dir_all(&crashed).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The windowed acceptance loop: epoch-tagged batches with interleaved
/// seals (so the log carries SEAL control records and rotation retires
/// epochs by subtraction), then the same cut-and-recover sweep, checking
/// the live estimate *and* the trailing-window estimate.
fn check_windowed_crash<S>(prototype: &S, epochs: &[EncodedStream], window: usize, tag: &str)
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    let dir = scratch_dir(&format!("recw-{tag}")).unwrap();
    let (durable, _) = DurableService::open_windowed(&dir, prototype, window, config()).unwrap();
    for (e, stream) in epochs.iter().enumerate() {
        // Two batches per epoch so FRAMES records straddle seals.
        let mid = stream.len() / 2;
        durable
            .ingest_batch(WIRE_EPOCH, mid as u64, stream.frame_span(0, mid))
            .unwrap();
        durable
            .ingest_batch(
                WIRE_EPOCH,
                (stream.len() - mid) as u64,
                stream.frame_span(mid, stream.len()),
            )
            .unwrap();
        assert_eq!(durable.seal_epoch().unwrap(), e as u64);
    }
    let pre_crash = durable.refresh_snapshot().unwrap();
    drop(durable); // crash

    let total = wal_len(&dir);
    for cut in cut_offsets(total) {
        let crashed = truncated_copy(&dir, cut, &format!("recw-{tag}-cut"));
        let records = parse_prefix(&crashed);
        let (expect_frames, expected) = replay_reference_windowed(prototype, window, &records);

        let (recovered, report) =
            DurableService::open_windowed(&crashed, prototype, window, config()).unwrap();
        assert_eq!(
            report.frames_replayed, expect_frames,
            "{tag} cut {cut}: replayed frame count"
        );
        let snap = recovered.refresh_snapshot().unwrap();
        assert_snapshots_identical(&snap, &expected, &format!("{tag} cut {cut} (live)"));
        // The trailing-window estimate (sealed epochs only) agrees too.
        let seals = records
            .iter()
            .filter(|r| matches!(r, WalRecord::Seal { .. }))
            .count();
        if seals > 0 {
            let win = recovered.window_snapshot(window).unwrap();
            // Rebuild the reference ring to freeze its window directly.
            let svc = LdpService::<EpochRing<S>>::windowed(prototype, 1, window).unwrap();
            for record in &records {
                match record {
                    WalRecord::Frames {
                        count,
                        frames: bytes,
                        ..
                    } => {
                        let mut buf = &bytes[..];
                        for _ in 0..*count {
                            let (_, _, used) =
                                ldp_service::decode_epoch_frame::<S::Report>(buf).unwrap();
                            svc.submit_epoch_frame(&buf[..used]).unwrap();
                            buf = &buf[used..];
                        }
                    }
                    WalRecord::Seal { .. } => {
                        svc.seal_epoch().unwrap();
                    }
                    WalRecord::Checkpoint { .. } => {}
                }
            }
            let exp_win = svc.window_snapshot(window).unwrap();
            assert_eq!(win.first_epoch(), exp_win.first_epoch(), "{tag} cut {cut}");
            assert_eq!(win.last_epoch(), exp_win.last_epoch(), "{tag} cut {cut}");
            assert_snapshots_identical(
                win.snapshot(),
                exp_win.snapshot(),
                &format!("{tag} cut {cut} (window)"),
            );
        }
        if cut == total {
            assert_snapshots_identical(&snap, &pre_crash, &format!("{tag} full log"));
        }
        drop(recovered);
        std::fs::remove_dir_all(&crashed).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
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

/// The acceptance-criterion sweep, unwindowed: all six mechanisms.
#[test]
fn crash_recovery_is_bit_identical_for_all_six_mechanisms() {
    const BATCHES: usize = 6;
    const PER_BATCH: usize = 40;
    let eps = Epsilon::new(1.1);

    let flat_config = FlatConfig::new(32, eps).unwrap();
    let flat_client = FlatClient::new(&flat_config).unwrap();
    check_plain_crash(
        &FlatServer::new(&flat_config).unwrap(),
        &plain_batches::<AnyReport>(BATCHES, PER_BATCH, 3001, |i, rng| {
            flat_client.report(i % 32, rng).unwrap()
        }),
        "flat",
    );

    let hh_config = HhConfig::new(64, 4, eps).unwrap();
    let hh_client = HhClient::new(hh_config.clone()).unwrap();
    check_plain_crash(
        &HhServer::new(hh_config.clone()).unwrap(),
        &plain_batches(BATCHES, PER_BATCH, 3002, |i, rng| {
            hh_client.report((i * 7) % 64, rng).unwrap()
        }),
        "hh",
    );

    let split_config = HhConfig::new(64, 2, eps).unwrap();
    let split_client = HhSplitClient::new(split_config.clone()).unwrap();
    check_plain_crash(
        &HhSplitServer::new(split_config.clone()).unwrap(),
        &plain_batches(BATCHES, PER_BATCH, 3003, |i, rng| {
            split_client.report((i * 5) % 64, rng).unwrap()
        }),
        "hhsplit",
    );

    let haar_config = HaarConfig::new(64, eps).unwrap();
    let haar_client = HaarHrrClient::new(haar_config.clone()).unwrap();
    check_plain_crash(
        &HaarHrrServer::new(haar_config.clone()).unwrap(),
        &plain_batches(BATCHES, PER_BATCH, 3004, |i, rng| {
            haar_client.report((i * 11) % 64, rng).unwrap()
        }),
        "haarhrr",
    );

    let haar_oue_client = HaarOueClient::new(haar_config.clone()).unwrap();
    check_plain_crash(
        &HaarOueServer::new(haar_config.clone()).unwrap(),
        &plain_batches(BATCHES, PER_BATCH, 3005, |i, rng| {
            haar_oue_client.report((i * 3) % 64, rng).unwrap()
        }),
        "haaroue",
    );

    let config_2d = Hh2dConfig::new(16, 2, eps).unwrap();
    let client_2d = Hh2dClient::new(config_2d.clone()).unwrap();
    check_plain_crash(
        &Hh2dServer::new(config_2d.clone()).unwrap(),
        &plain_batches(BATCHES, PER_BATCH, 3006, |i, rng| {
            client_2d.report(i % 16, (i * 3) % 16, rng).unwrap()
        }),
        "hh2d",
    );
}

/// The acceptance-criterion sweep, windowed: all six mechanisms with
/// seals and window rotation in the log.
#[test]
fn windowed_crash_recovery_is_bit_identical_for_all_six_mechanisms() {
    const EPOCHS: usize = 4;
    const PER_EPOCH: usize = 40;
    const WINDOW: usize = 2;
    let eps = Epsilon::new(1.1);

    let flat_config = FlatConfig::new(32, eps).unwrap();
    let flat_client = FlatClient::new(&flat_config).unwrap();
    check_windowed_crash(
        &FlatServer::new(&flat_config).unwrap(),
        &epoch_streams::<AnyReport>(EPOCHS, PER_EPOCH, 3101, |i, rng| {
            flat_client.report(i % 32, rng).unwrap()
        }),
        WINDOW,
        "flat",
    );

    let hh_config = HhConfig::new(64, 4, eps).unwrap();
    let hh_client = HhClient::new(hh_config.clone()).unwrap();
    check_windowed_crash(
        &HhServer::new(hh_config.clone()).unwrap(),
        &epoch_streams(EPOCHS, PER_EPOCH, 3102, |i, rng| {
            hh_client.report((i * 7) % 64, rng).unwrap()
        }),
        WINDOW,
        "hh",
    );

    let split_config = HhConfig::new(64, 2, eps).unwrap();
    let split_client = HhSplitClient::new(split_config.clone()).unwrap();
    check_windowed_crash(
        &HhSplitServer::new(split_config.clone()).unwrap(),
        &epoch_streams(EPOCHS, PER_EPOCH, 3103, |i, rng| {
            split_client.report((i * 5) % 64, rng).unwrap()
        }),
        WINDOW,
        "hhsplit",
    );

    let haar_config = HaarConfig::new(64, eps).unwrap();
    let haar_client = HaarHrrClient::new(haar_config.clone()).unwrap();
    check_windowed_crash(
        &HaarHrrServer::new(haar_config.clone()).unwrap(),
        &epoch_streams(EPOCHS, PER_EPOCH, 3104, |i, rng| {
            haar_client.report((i * 11) % 64, rng).unwrap()
        }),
        WINDOW,
        "haarhrr",
    );

    let haar_oue_client = HaarOueClient::new(haar_config.clone()).unwrap();
    check_windowed_crash(
        &HaarOueServer::new(haar_config.clone()).unwrap(),
        &epoch_streams(EPOCHS, PER_EPOCH, 3105, |i, rng| {
            haar_oue_client.report((i * 3) % 64, rng).unwrap()
        }),
        WINDOW,
        "haaroue",
    );

    let config_2d = Hh2dConfig::new(16, 2, eps).unwrap();
    let client_2d = Hh2dClient::new(config_2d.clone()).unwrap();
    check_windowed_crash(
        &Hh2dServer::new(config_2d.clone()).unwrap(),
        &epoch_streams(EPOCHS, PER_EPOCH, 3106, |i, rng| {
            client_2d.report(i % 16, (i * 3) % 16, rng).unwrap()
        }),
        WINDOW,
        "hh2d",
    );
}

/// Checkpoint + tail replay ≡ full-log replay, bit for bit — plain and
/// windowed. With history retained, deleting the checkpoint files from a
/// copy forces a from-scratch replay of the same log; both recoveries
/// must land on identical states.
#[test]
fn checkpoint_plus_tail_equals_full_log_replay() {
    let eps = Epsilon::new(1.1);
    let hh_config = HhConfig::new(64, 4, eps).unwrap();
    let hh_client = HhClient::new(hh_config.clone()).unwrap();
    let prototype = HhServer::new(hh_config).unwrap();
    let batches = plain_batches(8, 50, 3201, |i, rng| {
        hh_client.report((i * 7) % 64, rng).unwrap()
    });

    let retain = DurableConfig {
        retain_history: true,
        ..config()
    };

    // Plain: checkpoint mid-stream, keep ingesting, crash.
    let dir = scratch_dir("ckpt-tail").unwrap();
    let (durable, _) = DurableService::open(&dir, &prototype, retain.clone()).unwrap();
    for (b, batch) in batches.iter().enumerate() {
        durable
            .ingest_batch(WIRE_V1, batch.len() as u64, batch.as_bytes())
            .unwrap();
        if b == 2 || b == 5 {
            durable.checkpoint().unwrap();
        }
    }
    assert_eq!(durable.status().unwrap().last_checkpoint, Some(1));
    drop(durable); // crash

    let (from_ckpt, report) = DurableService::open(&dir, &prototype, retain.clone()).unwrap();
    assert_eq!(report.checkpoint_id, Some(1));
    let tail_frames = report.frames_replayed;
    assert!(tail_frames < 400, "checkpoint did not shorten replay");
    let snap_ckpt = from_ckpt.refresh_snapshot().unwrap();
    drop(from_ckpt);

    let full = truncated_copy(&dir, wal_len(&dir), "ckpt-tail-full");
    for (_, path) in ldp_service::storage::checkpoint::list_checkpoints(&full).unwrap() {
        std::fs::remove_file(path).unwrap();
    }
    let (from_log, report) = DurableService::open(&full, &prototype, retain.clone()).unwrap();
    assert_eq!(report.checkpoint_id, None);
    assert_eq!(report.frames_replayed, 400, "full replay covers everything");
    let snap_full = from_log.refresh_snapshot().unwrap();
    drop(from_log);
    assert_snapshots_identical(&snap_ckpt, &snap_full, "checkpoint+tail vs full log");
    std::fs::remove_dir_all(&full).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    // Windowed: seals on both sides of the checkpoint, so the restored
    // ring mid-stream must keep sealing/rotating identically.
    let epochs = epoch_streams(5, 40, 3202, |i, rng| {
        hh_client.report((i * 7) % 64, rng).unwrap()
    });
    let dir = scratch_dir("ckpt-tail-win").unwrap();
    let (durable, _) = DurableService::open_windowed(&dir, &prototype, 2, retain.clone()).unwrap();
    for (e, stream) in epochs.iter().enumerate() {
        durable
            .ingest_batch(WIRE_EPOCH, stream.len() as u64, stream.as_bytes())
            .unwrap();
        durable.seal_epoch().unwrap();
        if e == 2 {
            durable.checkpoint().unwrap();
        }
    }
    drop(durable); // crash

    let (from_ckpt, report) =
        DurableService::open_windowed(&dir, &prototype, 2, retain.clone()).unwrap();
    assert_eq!(report.checkpoint_id, Some(0));
    let snap_ckpt = from_ckpt.refresh_snapshot().unwrap();
    let win_ckpt = from_ckpt.window_snapshot(2).unwrap();
    drop(from_ckpt);

    let full = truncated_copy(&dir, wal_len(&dir), "ckpt-tail-win-full");
    for (_, path) in ldp_service::storage::checkpoint::list_checkpoints(&full).unwrap() {
        std::fs::remove_file(path).unwrap();
    }
    let (from_log, report) = DurableService::open_windowed(&full, &prototype, 2, retain).unwrap();
    assert_eq!(report.checkpoint_id, None);
    let snap_full = from_log.refresh_snapshot().unwrap();
    let win_full = from_log.window_snapshot(2).unwrap();
    drop(from_log);
    assert_snapshots_identical(&snap_ckpt, &snap_full, "windowed checkpoint+tail (live)");
    assert_eq!(win_ckpt.first_epoch(), win_full.first_epoch());
    assert_eq!(win_ckpt.last_epoch(), win_full.last_epoch());
    assert_snapshots_identical(
        win_ckpt.snapshot(),
        win_full.snapshot(),
        "windowed checkpoint+tail (window)",
    );
    std::fs::remove_dir_all(&full).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Graceful shutdown checkpoints: reopening replays nothing, restores
/// the exact state, and superseded segments were truncated away.
#[test]
fn graceful_shutdown_reopens_without_replay() {
    let eps = Epsilon::new(1.1);
    let haar_config = HaarConfig::new(64, eps).unwrap();
    let haar_client = HaarHrrClient::new(haar_config.clone()).unwrap();
    let prototype = HaarHrrServer::new(haar_config).unwrap();
    let batches = plain_batches(5, 60, 3301, |i, rng| {
        haar_client.report((i * 11) % 64, rng).unwrap()
    });

    let dir = scratch_dir("graceful").unwrap();
    let (durable, _) = DurableService::open(&dir, &prototype, config()).unwrap();
    for batch in &batches {
        durable
            .ingest_batch(WIRE_V1, batch.len() as u64, batch.as_bytes())
            .unwrap();
    }
    let pre = durable.refresh_snapshot().unwrap();
    let ckpt = durable.finalize().unwrap();
    drop(durable);

    // The checkpoint superseded every earlier segment: only the empty
    // post-rotation segment remains.
    let segments = wal::list_segments(&dir).unwrap();
    assert_eq!(segments.len(), 1, "old segments not truncated");
    assert_eq!(
        std::fs::metadata(&segments[0].1).unwrap().len(),
        wal::SEGMENT_HEADER_BYTES
    );

    let (reopened, report) = DurableService::open(&dir, &prototype, config()).unwrap();
    assert_eq!(report.checkpoint_id, Some(ckpt));
    assert_eq!(
        report.records_replayed, 0,
        "graceful reopen must not replay"
    );
    assert_eq!(report.frames_replayed, 0);
    assert_eq!(report.tail, TailStatus::Clean);
    let snap = reopened.refresh_snapshot().unwrap();
    assert_snapshots_identical(&snap, &pre, "graceful reopen");

    // And the reopened service keeps ingesting durably.
    let more = plain_batches(1, 30, 3302, |i, rng| {
        haar_client.report(i % 64, rng).unwrap()
    });
    reopened
        .ingest_batch(WIRE_V1, more[0].len() as u64, more[0].as_bytes())
        .unwrap();
    assert_eq!(reopened.num_reports(), pre.num_reports() + 30);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A corrupt byte in the *final* segment (a genuine tail shape) recovers
/// cleanly to the record prefix before it; the same corruption *mid-log*
/// — with valid acknowledged segments after it — must refuse to open for
/// writing rather than truncate acked records away. A mismatched
/// prototype (CRC-valid records the state machine rejects) is refused
/// the same way, with the directory left untouched.
#[test]
fn corruption_in_the_tail_recovers_but_mid_log_damage_refuses_destruction() {
    let eps = Epsilon::new(1.1);
    let flat_config = FlatConfig::new(32, eps).unwrap();
    let flat_client = FlatClient::new(&flat_config).unwrap();
    let prototype = FlatServer::new(&flat_config).unwrap();
    let batches = plain_batches::<AnyReport>(8, 60, 3401, |i, rng| {
        flat_client.report(i % 32, rng).unwrap()
    });

    let dir = scratch_dir("corrupt").unwrap();
    let (durable, _) = DurableService::open(&dir, &prototype, config()).unwrap();
    for batch in &batches {
        durable
            .ingest_batch(WIRE_V1, batch.len() as u64, batch.as_bytes())
            .unwrap();
    }
    drop(durable);
    let segments = wal::list_segments(&dir).unwrap();
    assert!(segments.len() >= 2, "need a multi-segment log");

    // Corruption in the LAST segment: a crash-artifact shape — recovery
    // keeps everything before the damaged record and truncates the rest.
    let tail_damaged = truncated_copy(&dir, wal_len(&dir), "corrupt-tail");
    let (last_seq, _) = *wal::list_segments(&tail_damaged).unwrap().last().unwrap();
    let last_path = wal::segment_path(&tail_damaged, last_seq);
    let mut bytes = std::fs::read(&last_path).unwrap();
    let flip_at = wal::SEGMENT_HEADER_BYTES as usize + 10;
    bytes[flip_at] ^= 0x20;
    std::fs::write(&last_path, &bytes).unwrap();
    let records = parse_prefix(&tail_damaged);
    let (expect_frames, expected) = replay_reference_plain(&prototype, &records);
    let (recovered, report) = DurableService::open(&tail_damaged, &prototype, config()).unwrap();
    assert!(
        matches!(report.tail, TailStatus::Torn { .. }),
        "corruption must surface as a torn tail"
    );
    assert_eq!(report.frames_replayed, expect_frames);
    assert!(report.frames_replayed < 480, "corruption lost nothing?");
    let snap = recovered.refresh_snapshot().unwrap();
    assert_snapshots_identical(&snap, &expected, "tail corruption");
    drop(recovered);
    std::fs::remove_dir_all(&tail_damaged).unwrap();

    // Corruption in the FIRST segment with valid segments after it:
    // truncating there would destroy acknowledged records, so the open
    // fails and the directory is left byte-identical.
    let (seq0, path0) = wal::list_segments(&dir).unwrap().remove(0);
    assert_eq!(seq0, 0);
    let mut bytes = std::fs::read(&path0).unwrap();
    let flip_at = bytes.len() / 2;
    bytes[flip_at] ^= 0x20;
    std::fs::write(&path0, &bytes).unwrap();
    let before: Vec<_> = wal::list_segments(&dir)
        .unwrap()
        .iter()
        .map(|(_, p)| std::fs::read(p).unwrap())
        .collect();
    assert!(
        DurableService::open(&dir, &prototype, config()).is_err(),
        "mid-log corruption must refuse destructive recovery"
    );
    let after: Vec<_> = wal::list_segments(&dir)
        .unwrap()
        .iter()
        .map(|(_, p)| std::fs::read(p).unwrap())
        .collect();
    assert_eq!(before, after, "refused open must not modify the log");

    // A mismatched prototype (windowed log opened as plain, here: plain
    // log whose first record the wrong mechanism rejects) is refused the
    // same way. Use an undamaged copy so the rejection is purely
    // semantic.
    std::fs::write(&path0, {
        let mut b = std::fs::read(&path0).unwrap();
        b[flip_at] ^= 0x20; // undo the flip
        b
    })
    .unwrap();
    let wrong_config = ldp_ranges::HhConfig::new(64, 4, eps).unwrap();
    let wrong_prototype = ldp_ranges::HhServer::new(wrong_config).unwrap();
    assert!(
        DurableService::open(&dir, &wrong_prototype, config()).is_err(),
        "a mismatched prototype must refuse recovery, not truncate"
    );
    // The right prototype still recovers everything afterwards.
    let (recovered, report) = DurableService::open(&dir, &prototype, config()).unwrap();
    assert_eq!(report.tail, TailStatus::Clean);
    assert_eq!(report.frames_replayed, 480);
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A corrupt *sole* checkpoint, whose covered segments pruning already
/// deleted, must refuse the open: replaying the surviving WAL tail onto
/// an empty state would silently drop every checkpointed record. With
/// history retained (the WAL still starts at segment 0) the same
/// corruption instead falls back to an exact full-log replay.
#[test]
fn corrupt_sole_checkpoint_refuses_open_unless_full_log_survives() {
    let eps = Epsilon::new(1.1);
    let flat_config = FlatConfig::new(32, eps).unwrap();
    let flat_client = FlatClient::new(&flat_config).unwrap();
    let prototype = FlatServer::new(&flat_config).unwrap();
    let batches = plain_batches::<AnyReport>(6, 40, 3501, |i, rng| {
        flat_client.report(i % 32, rng).unwrap()
    });
    let ingest = |dir: &Path, cfg: DurableConfig| {
        let (durable, _) = DurableService::open(dir, &prototype, cfg).unwrap();
        for (b, batch) in batches.iter().enumerate() {
            durable
                .ingest_batch(WIRE_V1, batch.len() as u64, batch.as_bytes())
                .unwrap();
            if b == 2 {
                durable.checkpoint().unwrap();
            }
        }
        drop(durable);
    };
    let corrupt_all_checkpoints = |dir: &Path| {
        for (_, path) in checkpoint::list_checkpoints(dir).unwrap() {
            let mut bytes = std::fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0xFF;
            std::fs::write(&path, &bytes).unwrap();
        }
    };

    // Pruning on: the checkpoint superseded (deleted) the segments it
    // covers, so the corrupt file is the only copy of those records.
    let dir = scratch_dir("ckpt-corrupt-pruned").unwrap();
    ingest(&dir, config());
    assert_eq!(checkpoint::list_checkpoints(&dir).unwrap().len(), 1);
    assert!(
        wal::list_segments(&dir).unwrap()[0].0 > 0,
        "pruning should have deleted pre-checkpoint segments"
    );
    corrupt_all_checkpoints(&dir);
    assert!(
        DurableService::open(&dir, &prototype, config()).is_err(),
        "a corrupt sole checkpoint must refuse, not recover an empty state"
    );
    // Deleting the corrupt files must not sneak past the guard: the WAL
    // still starts past segment 0, so the pruned records remain lost.
    for (_, path) in checkpoint::list_checkpoints(&dir).unwrap() {
        std::fs::remove_file(path).unwrap();
    }
    assert!(
        DurableService::open(&dir, &prototype, config()).is_err(),
        "a deleted sole checkpoint must refuse just like a corrupt one"
    );
    std::fs::remove_dir_all(&dir).unwrap();

    // History retained: the full log survives from segment 0, so the
    // same corruption degrades to a full replay that reproduces the
    // exact pre-crash state.
    let retain = DurableConfig {
        retain_history: true,
        ..config()
    };
    let dir = scratch_dir("ckpt-corrupt-retained").unwrap();
    ingest(&dir, retain.clone());
    assert_eq!(wal::list_segments(&dir).unwrap()[0].0, 0);
    let (expect_frames, expected) = replay_reference_plain(&prototype, &parse_prefix(&dir));
    corrupt_all_checkpoints(&dir);
    let (recovered, report) = DurableService::open(&dir, &prototype, retain).unwrap();
    assert_eq!(report.checkpoint_id, None, "corrupt checkpoint restored?");
    assert_eq!(report.frames_replayed, expect_frames);
    assert_eq!(report.tail, TailStatus::Clean);
    let snap = recovered.refresh_snapshot().unwrap();
    assert_snapshots_identical(&snap, &expected, "full replay past corrupt checkpoint");
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Under `FsyncPolicy::Never`, small acked records wait in the
/// writer's staging buffer; a clean drop must still hand them to the
/// OS, so the next open replays every acked batch.
#[test]
fn a_clean_drop_keeps_acked_batches_under_lazy_fsync() {
    let hh = HhConfig::new(64, 4, Epsilon::new(1.1)).unwrap();
    let client = HhClient::new(hh.clone()).unwrap();
    let prototype = HhServer::new(hh).unwrap();
    let config = DurableConfig {
        num_shards: 2,
        fsync: FsyncPolicy::Never,
        ..DurableConfig::default()
    };
    let dir = scratch_dir("drop-flushes").unwrap();
    let (store, _) = DurableService::open(&dir, &prototype, config.clone()).unwrap();
    let mut rng = StdRng::seed_from_u64(21);
    for _ in 0..3 {
        let mut stream = EncodedStream::new();
        for i in 0..32 {
            stream.push(&client.report(i % 64, &mut rng).unwrap());
        }
        let acked = store.ingest_batch(WIRE_V1, 32, stream.as_bytes()).unwrap();
        assert_eq!(acked, 32);
    }
    let before = store.refresh_snapshot().unwrap();
    drop(store);

    let (store, report) = DurableService::open(&dir, &prototype, config).unwrap();
    assert_eq!(report.records_replayed, 3);
    assert_eq!(report.frames_replayed, 96);
    let after = store.refresh_snapshot().unwrap();
    assert_snapshots_identical(&after, &before, "reopened after a clean drop");
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The merged state's `persist_state` bytes — for a windowed store the
/// whole epoch ring, so every epoch and the open one are compared.
fn state_bytes<S>(store: &DurableService<S>) -> Vec<u8>
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    let mut out = Vec::new();
    match (store.plain(), store.windowed()) {
        (Some(plain), _) => plain.merged_state().unwrap().persist_state(&mut out),
        (_, Some(ring)) => ring.merged_state().unwrap().persist_state(&mut out),
        (None, None) => unreachable!("a store is plain or windowed"),
    }
    out
}

/// State bytes plus every trailing window (`1..=window` epochs).
type Observed = (Vec<u8>, Vec<(u64, u64, RangeSnapshot)>);

fn observe<S>(store: &DurableService<S>, window: Option<usize>) -> Observed
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    let windows = (1..=window.unwrap_or(0))
        .map(|k| {
            let w = store.window_snapshot(k).unwrap();
            (w.first_epoch(), w.last_epoch(), w.snapshot().clone())
        })
        .collect();
    (state_bytes(store), windows)
}

fn assert_observed_identical(ours: &Observed, theirs: &Observed, what: &str) {
    assert!(ours.0 == theirs.0, "{what}: persisted state bytes differ");
    assert_eq!(ours.1.len(), theirs.1.len(), "{what}: window count");
    for (k, (a, b)) in ours.1.iter().zip(&theirs.1).enumerate() {
        assert_eq!((a.0, a.1), (b.0, b.1), "{what}: window {} bounds", k + 1);
        assert_snapshots_identical(&a.2, &b.2, &format!("{what}: window {}", k + 1));
    }
}

/// Four threads call `ingest_batch` on one store while a fifth seals
/// (windowed) and checkpoints at seeded points of the ingest progress,
/// and a follower tails the leader over the socket. Batches may reach
/// the log in a different order than they reached the shards, but each
/// must land between the markers it was absorbed between. So the
/// promoted follower equals the live leader, and after the drain a
/// reopen from a mid-run checkpoint + tail and a full-log replay both
/// equal the drained state — persisted bytes and every trailing window.
fn check_concurrent_ingest<S>(
    prototype: &S,
    threads: Vec<Vec<EncodedStream>>,
    window: Option<usize>,
    seed: u64,
    tag: &str,
) where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    let retain = DurableConfig {
        retain_history: true,
        ..config()
    };
    let open = |dir: &Path| match window {
        Some(w) => DurableService::open_windowed(dir, prototype, w, retain.clone()).unwrap(),
        None => DurableService::open(dir, prototype, retain.clone()).unwrap(),
    };
    let leader_dir = scratch_dir(&format!("conc-{tag}-leader")).unwrap();
    let follower_dir = scratch_dir(&format!("conc-{tag}-follower")).unwrap();
    let leader = Arc::new(open(&leader_dir).0);
    let server =
        LdpServer::bind_durable("127.0.0.1:0", Arc::clone(&leader), NetConfig::default()).unwrap();
    let addr = format!("{}", server.local_addr());
    let (follower, _) = match window {
        Some(w) => {
            FollowerService::open_windowed(&follower_dir, prototype, w, &addr, retain.clone())
        }
        None => FollowerService::open(&follower_dir, prototype, &addr, retain.clone()),
    }
    .unwrap();

    // Seeded points of the ingest progress; each seals (windowed) and,
    // at random — or always when plain — checkpoints.
    let total: usize = threads.iter().map(Vec::len).sum();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points: Vec<(usize, bool)> = (0..8)
        .map(|_| (rng.random_range(1..total), rng.random_bool(0.5)))
        .collect();
    points.sort_unstable();
    let progress = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for batches in &threads {
            let (leader, progress) = (&leader, &progress);
            scope.spawn(move || {
                for batch in batches {
                    let n = leader
                        .ingest_batch(WIRE_V1, batch.len() as u64, batch.as_bytes())
                        .unwrap();
                    assert_eq!(n, batch.len() as u64);
                    progress.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        for &(at, checkpoint) in &points {
            while progress.load(Ordering::SeqCst) < at {
                std::thread::yield_now();
            }
            if window.is_some() {
                leader.seal_epoch().unwrap();
            }
            if checkpoint || window.is_none() {
                leader.checkpoint().unwrap();
            }
        }
    });
    let live = observe(&leader, window);

    // The follower tailed the whole run: at the leader's position,
    // promoted, it is the live leader bit for bit.
    let position = leader.status().unwrap().wal_records;
    let deadline = Instant::now() + Duration::from_secs(20);
    while follower.position() < position {
        assert!(
            Instant::now() < deadline,
            "{tag}: follower stuck at {} of {position} ({:?})",
            follower.position(),
            follower.last_error()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let promoted = follower.promote().unwrap();
    assert_observed_identical(
        &observe(&promoted, window),
        &live,
        &format!("{tag} promoted"),
    );
    drop(promoted);

    // The drain seals (windowed) and checkpoints; then the store goes.
    let _ = server.shutdown();
    let drained = observe(&leader, window);
    if window.is_none() {
        assert_observed_identical(&drained, &live, &format!("{tag} drained"));
    }
    drop(leader);

    // Without the drain's checkpoint: a mid-run checkpoint + tail.
    let checkpoints = checkpoint::list_checkpoints(&leader_dir).unwrap();
    assert!(checkpoints.len() >= 2, "{tag}: no mid-run checkpoint");
    let newest = checkpoints.iter().max_by_key(|(id, _)| *id).unwrap();
    std::fs::remove_file(&newest.1).unwrap();
    let (reopened, report) = open(&leader_dir);
    assert!(report.records_replayed > 0, "{tag}: nothing replayed");
    assert_observed_identical(
        &observe(&reopened, window),
        &drained,
        &format!("{tag} checkpoint + tail"),
    );
    drop(reopened);

    // Without any checkpoint: the whole log, replayed from segment 0.
    for (_, path) in checkpoint::list_checkpoints(&leader_dir).unwrap() {
        std::fs::remove_file(path).unwrap();
    }
    let (replayed, report) = open(&leader_dir);
    assert_eq!(report.checkpoint_id, None);
    assert_observed_identical(
        &observe(&replayed, window),
        &drained,
        &format!("{tag} full-log replay"),
    );
    drop(replayed);
    std::fs::remove_dir_all(&leader_dir).unwrap();
    std::fs::remove_dir_all(&follower_dir).unwrap();
}

/// Concurrent durable ingest against seal and checkpoint, plain and
/// windowed, for HH/OUE and HaarHRR: the order lock keeps every batch
/// between the markers it was absorbed between.
#[test]
fn concurrent_ingest_with_seals_and_checkpoints_replays_bit_identically() {
    const THREADS: usize = 4;
    const BATCHES: usize = 30;
    const PER_BATCH: usize = 12;
    let eps = Epsilon::new(1.1);

    let hh_config = HhConfig::with_oracle(64, 4, eps, FrequencyOracle::Oue).unwrap();
    let hh_client = HhClient::new(hh_config.clone()).unwrap();
    let hh = HhServer::new(hh_config).unwrap();
    let hh_threads = |seed: u64| {
        (0..THREADS as u64)
            .map(|t| {
                plain_batches(BATCHES, PER_BATCH, seed + t, |i, rng| {
                    hh_client.report((i * 7) % 64, rng).unwrap()
                })
            })
            .collect()
    };
    for (window, tag) in [(None, "hh-oue"), (Some(2), "hh-oue-win")] {
        check_concurrent_ingest(&hh, hh_threads(3601), window, 3611, tag);
    }

    let haar_config = HaarConfig::new(64, eps).unwrap();
    let haar_client = HaarHrrClient::new(haar_config.clone()).unwrap();
    let haar = HaarHrrServer::new(haar_config).unwrap();
    let haar_threads = |seed: u64| {
        (0..THREADS as u64)
            .map(|t| {
                plain_batches(BATCHES, PER_BATCH, seed + t, |i, rng| {
                    haar_client.report((i * 11) % 64, rng).unwrap()
                })
            })
            .collect()
    };
    for (window, tag) in [(None, "haarhrr"), (Some(2), "haarhrr-win")] {
        check_concurrent_ingest(&haar, haar_threads(3701), window, 3711, tag);
    }
}
