//! All-or-nothing batches are absorbed in place and rolled back by exact
//! subtraction; these tests pin that the rollback is *exact*.
//!
//! For the three served mechanisms (flat, `HH_B`, HaarHRR), plain and
//! windowed: a batch that fails at an arbitrary frame `k` — truncated
//! bytes, a well-formed report of the wrong shape, a stale or future
//! epoch tag — through each of `submit_wire_batch`, its windowed alias
//! `submit_epoch_wire_batch` and `DurableService::ingest_batch` must
//!
//! * report `BadFrame { index: k, .. }`,
//! * leave the merged shard state's `persist_state` bytes identical,
//! * leave the shard clean (the next refresh returns the same `Arc`),
//! * and, on a durable backend, leave the WAL untouched.
//!
//! The rollback rests on per-report atomicity — a rejected `absorb`
//! mutates nothing — which the unit tests at the bottom pin for every
//! served mechanism and for `EpochRing::absorb_tagged`.

use std::sync::Arc;

use proptest::prelude::*;

use ldp_freq_oracle::Epsilon;
use ldp_ranges::{
    FlatClient, FlatConfig, FlatServer, HaarConfig, HaarHrrClient, HaarHrrServer, HhClient,
    HhConfig, HhServer, MergeableServer, PersistableServer, SubtractableServer,
};
use ldp_service::net::{WIRE_EPOCH, WIRE_V1};
use ldp_service::storage::{scratch_dir, wal, DurableConfig, DurableService, FsyncPolicy};
use ldp_service::{
    EncodedStream, EpochRing, LdpService, RangeSnapshot, ServiceError, SnapshotSource, WireReport,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Reports per generated batch; failure indices range over `0..=BATCH`.
const BATCH: usize = 12;
const WINDOW: usize = 3;

/// One mechanism under test: its empty server, a pool of reports it
/// accepts, and one report that is well-formed on the wire but that this
/// server's `absorb` rejects.
struct Mech<S: MergeableServer> {
    prototype: S,
    good: Vec<S::Report>,
    bad: S::Report,
}

impl<S: MergeableServer> Mech<S> {
    /// `2 · BATCH` good reports drawn from `ours`; `bad` is the first
    /// `theirs` report (a client of a different configuration) the
    /// prototype refuses.
    fn new(
        prototype: S,
        rng: &mut StdRng,
        ours: impl FnMut(usize, &mut StdRng) -> S::Report,
        theirs: impl FnMut(usize, &mut StdRng) -> S::Report,
    ) -> Self {
        Self::with_pool(2 * BATCH, prototype, rng, ours, theirs)
    }

    /// [`Mech::new`] with `pool` good reports.
    fn with_pool(
        pool: usize,
        prototype: S,
        rng: &mut StdRng,
        mut ours: impl FnMut(usize, &mut StdRng) -> S::Report,
        mut theirs: impl FnMut(usize, &mut StdRng) -> S::Report,
    ) -> Self {
        let good = (0..pool).map(|i| ours(i, rng)).collect();
        let bad = (0..1_000)
            .map(|i| theirs(i, rng))
            .find(|r| prototype.clone().absorb(r).is_err())
            .expect("a foreign configuration yields a rejected report");
        Self {
            prototype,
            good,
            bad,
        }
    }
}

fn eps() -> Epsilon {
    Epsilon::new(1.1)
}

fn flat(seed: u64) -> Mech<FlatServer> {
    flat_with_pool(seed, 2 * BATCH)
}

/// Flat OUE with `pool` good reports.
fn flat_with_pool(seed: u64, pool: usize) -> Mech<FlatServer> {
    let config = FlatConfig::new(32, eps()).unwrap();
    let client = FlatClient::new(&config).unwrap();
    let foreign = FlatClient::new(&FlatConfig::new(64, eps()).unwrap()).unwrap();
    Mech::with_pool(
        pool,
        FlatServer::new(&config).unwrap(),
        &mut StdRng::seed_from_u64(seed),
        |i, rng| client.report(i % 32, rng).unwrap(),
        |i, rng| foreign.report(i % 64, rng).unwrap(),
    )
}

fn hh(seed: u64) -> Mech<HhServer> {
    hh_with_pool(seed, 2 * BATCH, 4)
}

/// HH_B/OUE over 64 items with `pool` good reports.
fn hh_with_pool(seed: u64, pool: usize, fanout: usize) -> Mech<HhServer> {
    let config = HhConfig::new(64, fanout, eps()).unwrap();
    let client = HhClient::new(config.clone()).unwrap();
    let foreign = HhClient::new(HhConfig::new(128, 2, eps()).unwrap()).unwrap();
    Mech::with_pool(
        pool,
        HhServer::new(config).unwrap(),
        &mut StdRng::seed_from_u64(seed),
        |i, rng| client.report((i * 7) % 64, rng).unwrap(),
        |i, rng| foreign.report(i % 128, rng).unwrap(),
    )
}

fn haar_hrr(seed: u64) -> Mech<HaarHrrServer> {
    let config = HaarConfig::new(64, eps()).unwrap();
    let client = HaarHrrClient::new(config.clone()).unwrap();
    let foreign = HaarHrrClient::new(HaarConfig::new(1024, eps()).unwrap()).unwrap();
    Mech::new(
        HaarHrrServer::new(config).unwrap(),
        &mut StdRng::seed_from_u64(seed),
        |i, rng| client.report((i * 11) % 64, rng).unwrap(),
        |i, rng| foreign.report(i % 1024, rng).unwrap(),
    )
}

fn state_bytes<S: PersistableServer>(state: &S) -> Vec<u8> {
    let mut out = Vec::new();
    state.persist_state(&mut out);
    out
}

fn assert_bad_frame<T: std::fmt::Debug>(result: Result<T, ServiceError>, k: usize, what: &str) {
    match result {
        Err(ServiceError::BadFrame { index, .. }) => {
            assert_eq!(index, k, "{what}: wrong frame index");
        }
        other => panic!("{what}: expected BadFrame at {k}, got {other:?}"),
    }
}

/// How frame `k` of a wire batch goes wrong.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    /// The payload ends inside frame `k`.
    Truncated,
    /// Frame `k` is a well-formed report this server rejects.
    WrongShape,
    /// Frame `k` is tagged with `open epoch + delta` (windowed only).
    Tag(i64),
}

/// A decoded batch of `BATCH + 1` reports whose entry `k` is faulty.
/// `open` is the open epoch every other report is tagged with.
fn faulty_reports<S: MergeableServer>(
    mech: &Mech<S>,
    k: usize,
    fault: Fault,
    open: u64,
) -> Vec<(Option<u64>, S::Report)> {
    let mut reports: Vec<_> = mech.good[..BATCH]
        .iter()
        .map(|r| (Some(open), r.clone()))
        .collect();
    let entry = match fault {
        Fault::WrongShape => (Some(open), mech.bad.clone()),
        Fault::Tag(delta) => (
            Some(open.checked_add_signed(delta).unwrap()),
            mech.good[BATCH].clone(),
        ),
        Fault::Truncated => unreachable!("decoded batches cannot be truncated"),
    };
    reports.insert(k, entry);
    reports
}

/// The same batch as raw frames (`version` 1 drops the tags). Returns
/// the declared count and the payload; a truncated batch ends one byte
/// short of frame `k`'s end.
fn faulty_frames<S>(
    mech: &Mech<S>,
    k: usize,
    fault: Fault,
    open: u64,
    version: u8,
) -> (u64, Vec<u8>)
where
    S: MergeableServer,
    S::Report: WireReport,
{
    let shaped = if fault == Fault::Truncated {
        Fault::WrongShape
    } else {
        fault
    };
    let mut stream = EncodedStream::new();
    for (epoch, report) in faulty_reports(mech, k, shaped, open) {
        match (version, epoch) {
            (WIRE_EPOCH, Some(e)) => stream.push_epoch(&report, e),
            _ => stream.push(&report),
        }
    }
    if fault == Fault::Truncated {
        let cut = stream.frame_span(0, k + 1);
        (k as u64 + 1, cut[..cut.len() - 1].to_vec())
    } else {
        (stream.len() as u64, stream.as_bytes().to_vec())
    }
}

/// Seeds a good prefix: `reports` as one untagged wire batch.
fn submit_good<S>(service: &LdpService<S>, reports: &[S::Report])
where
    S: SnapshotSource,
    S::Report: WireReport,
{
    let mut stream = EncodedStream::new();
    for r in reports {
        stream.push(r);
    }
    let accepted = service
        .submit_wire_batch(WIRE_V1, stream.len() as u64, stream.as_bytes())
        .unwrap();
    assert_eq!(accepted, reports.len() as u64);
}

/// Asserts a service is exactly as it was when `state`/`snap` were taken:
/// same state bytes, and — the dirty counters untouched — a clean refresh.
fn assert_untouched<S>(service: &LdpService<S>, state: &[u8], snap: &Arc<RangeSnapshot>, what: &str)
where
    S: SnapshotSource + PersistableServer,
{
    assert_eq!(
        state_bytes(&service.merged_state().unwrap()),
        state,
        "{what}: shard state changed"
    );
    assert!(
        Arc::ptr_eq(&service.refresh_snapshot().unwrap(), snap),
        "{what}: rejected batch dirtied its shard"
    );
}

/// Plain service, both shards: every fault through `submit_wire_batch`.
fn check_plain<S>(mech: &Mech<S>, k: usize)
where
    S: SnapshotSource + PersistableServer,
    S::Report: WireReport,
{
    let service = LdpService::new(&mech.prototype, 2).unwrap();
    submit_good(&service, &mech.good[..BATCH]);
    submit_good(&service, &mech.good[BATCH..]);
    let snap = service.refresh_snapshot().unwrap();
    let state = state_bytes(&service.merged_state().unwrap());

    // Twice each, so the round-robin puts every fault on both shards.
    for round in 0..2 {
        for fault in [Fault::WrongShape, Fault::Truncated] {
            let what = format!("plain k={k} round={round} {fault:?}");
            let (count, frames) = faulty_frames(mech, k, fault, 0, WIRE_V1);
            assert_bad_frame(service.submit_wire_batch(WIRE_V1, count, &frames), k, &what);
            assert_untouched(&service, &state, &snap, &what);
        }
    }
    // The shards still take the clean batch afterwards.
    submit_good(&service, &mech.good[..BATCH]);
    assert_eq!(service.num_reports(), 3 * BATCH as u64);
}

/// Windowed service with sealed history and a part-filled open epoch:
/// every fault through the wire-batch path, untagged and tagged.
fn check_windowed<S>(mech: &Mech<S>, k: usize)
where
    S: SnapshotSource + SubtractableServer + PersistableServer,
    S::Report: WireReport,
{
    let service = LdpService::<EpochRing<S>>::windowed(&mech.prototype, 2, WINDOW).unwrap();
    for epoch in 0..2 {
        submit_good(&service, &mech.good[..BATCH]);
        submit_good(&service, &mech.good[BATCH..]);
        assert_eq!(service.seal_epoch().unwrap(), epoch);
    }
    submit_good(&service, &mech.good[..BATCH]);
    submit_good(&service, &mech.good[..BATCH / 2]);
    let open = service.current_epoch();
    let snap = service.refresh_snapshot().unwrap();
    let state = state_bytes(&service.merged_state().unwrap());
    let reports_before = service.num_reports();

    for round in 0..2 {
        let what = format!("windowed k={k} round={round}");
        // Untagged (v1) batches work on rings too.
        for fault in [Fault::WrongShape, Fault::Truncated] {
            let what = format!("{what} v1 {fault:?}");
            let (count, frames) = faulty_frames(mech, k, fault, open, WIRE_V1);
            assert_bad_frame(service.submit_wire_batch(WIRE_V1, count, &frames), k, &what);
            assert_untouched(&service, &state, &snap, &what);
        }
        for fault in [
            Fault::WrongShape,
            Fault::Truncated,
            Fault::Tag(-1),
            Fault::Tag(1),
        ] {
            let what = format!("{what} wire {fault:?}");
            let (count, frames) = faulty_frames(mech, k, fault, open, WIRE_EPOCH);
            assert_bad_frame(
                service.submit_epoch_wire_batch(WIRE_EPOCH, count, &frames),
                k,
                &what,
            );
            assert_untouched(&service, &state, &snap, &what);
        }
        // The one ingest path checks tags under its own name too: a stale
        // tag at frame `k` of a v2 batch through `submit_wire_batch`
        // rejects the batch on a windowed service.
        let (count, frames) = faulty_frames(mech, k, Fault::Tag(-1), open, WIRE_EPOCH);
        match service.submit_wire_batch(WIRE_EPOCH, count, &frames) {
            Err(ServiceError::BadFrame { index, source, .. }) => {
                assert_eq!(index, k, "{what}: stale tag index");
                assert!(
                    matches!(*source, ServiceError::EpochMismatch { frame, current }
                        if frame + 1 == open && current == open),
                    "{what}: stale tag source {source:?}"
                );
            }
            other => panic!("{what}: expected a stale-tag BadFrame at {k}, got {other:?}"),
        }
        assert_untouched(&service, &state, &snap, &what);
    }
    assert_eq!(service.current_epoch(), open);
    assert_eq!(service.num_reports(), reports_before);
    // Sealing and the trailing window are unharmed by the rollbacks.
    assert_eq!(service.seal_epoch().unwrap(), open);
    assert_eq!(service.window_snapshot(WINDOW).unwrap().epochs(), 3);
}

fn durable_config() -> DurableConfig {
    DurableConfig {
        num_shards: 2,
        fsync: FsyncPolicy::Never,
        checkpoint_every_records: 0,
        ..DurableConfig::default()
    }
}

fn wal_len(dir: &std::path::Path) -> u64 {
    wal::list_segments(dir)
        .unwrap()
        .iter()
        .map(|(_, p)| std::fs::metadata(p).unwrap().len())
        .sum()
}

/// `DurableService::ingest_batch`, plain and windowed: a rejected batch
/// changes neither state nor log, and the service keeps ingesting.
fn check_durable<S>(mech: &Mech<S>, k: usize, tag: &str)
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    let mut good = EncodedStream::new();
    let mut good_tagged = EncodedStream::new();
    for r in &mech.good[..BATCH] {
        good.push(r);
        good_tagged.push_epoch(r, 1);
    }

    for windowed in [false, true] {
        let dir = scratch_dir(&format!("rollback-{tag}-{windowed}")).unwrap();
        let durable = if windowed {
            DurableService::open_windowed(&dir, &mech.prototype, WINDOW, durable_config())
        } else {
            DurableService::open(&dir, &mech.prototype, durable_config())
        }
        .unwrap()
        .0;
        let merged = || match (durable.plain(), durable.windowed()) {
            (Some(s), _) => state_bytes(&s.merged_state().unwrap()),
            (_, Some(s)) => state_bytes(&s.merged_state().unwrap()),
            _ => unreachable!(),
        };
        durable
            .ingest_batch(WIRE_V1, BATCH as u64, good.as_bytes())
            .unwrap();
        let (version, open, faults): (u8, u64, &[Fault]) = if windowed {
            durable.seal_epoch().unwrap();
            durable
                .ingest_batch(WIRE_EPOCH, BATCH as u64, good_tagged.as_bytes())
                .unwrap();
            (
                WIRE_EPOCH,
                1,
                &[
                    Fault::WrongShape,
                    Fault::Truncated,
                    Fault::Tag(-1),
                    Fault::Tag(1),
                ],
            )
        } else {
            (WIRE_V1, 0, &[Fault::WrongShape, Fault::Truncated])
        };
        durable.sync().unwrap();
        let snap = durable.refresh_snapshot().unwrap();
        let state = merged();
        let status = durable.status().unwrap();
        let log_bytes = wal_len(&dir);

        for round in 0..2 {
            for &fault in faults {
                let what = format!("durable {tag} windowed={windowed} k={k} r={round} {fault:?}");
                let (count, frames) = faulty_frames(mech, k, fault, open, version);
                assert_bad_frame(durable.ingest_batch(version, count, &frames), k, &what);
                assert_eq!(merged(), state, "{what}: state changed");
                assert!(
                    Arc::ptr_eq(&durable.refresh_snapshot().unwrap(), &snap),
                    "{what}: rejected batch dirtied its shard"
                );
                durable.sync().unwrap();
                let now = durable.status().unwrap();
                assert_eq!(now.wal_records, status.wal_records, "{what}: WAL records");
                assert_eq!(now.wal_frames, status.wal_frames, "{what}: WAL frames");
                assert!(!now.wedged, "{what}: wedged");
                assert_eq!(wal_len(&dir), log_bytes, "{what}: WAL bytes");
            }
        }
        durable
            .ingest_batch(WIRE_V1, BATCH as u64, good.as_bytes())
            .unwrap();
        assert_eq!(
            durable.status().unwrap().wal_records,
            status.wal_records + 1
        );
        drop(durable);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

proptest! {
    #[test]
    fn flat_rollback_is_exact(seed in 0u64..5_000, k in 0usize..=BATCH) {
        let mech = flat(seed);
        check_plain(&mech, k);
        check_windowed(&mech, k);
    }

    #[test]
    fn hh_rollback_is_exact(seed in 0u64..5_000, k in 0usize..=BATCH) {
        let mech = hh(seed);
        check_plain(&mech, k);
        check_windowed(&mech, k);
    }

    #[test]
    fn haar_hrr_rollback_is_exact(seed in 0u64..5_000, k in 0usize..=BATCH) {
        let mech = haar_hrr(seed);
        check_plain(&mech, k);
        check_windowed(&mech, k);
    }

    /// One mechanism per case through the durable path (a case opens two
    /// storage directories, so the three share one property's budget).
    #[test]
    fn durable_rollback_is_exact(seed in 0u64..5_000, k in 0usize..=BATCH, which in 0usize..3) {
        match which {
            0 => check_durable(&flat(seed), k, "flat"),
            1 => check_durable(&hh(seed), k, "hh"),
            _ => check_durable(&haar_hrr(seed), k, "haarhrr"),
        }
    }
}

/// Frames in one long batch: more than twice the 255 pending reports
/// after which a unary oracle's bit planes settle by themselves.
const LONG: usize = 600;
/// The frame at which the rejected long batch goes wrong.
const LONG_FAULT: usize = 300;

/// `mech`'s first `LONG` good reports as one v1 batch, with its bad
/// report in place of frame `LONG_FAULT` when `faulty`.
fn long_batch<S>(mech: &Mech<S>, faulty: bool) -> EncodedStream
where
    S: MergeableServer,
    S::Report: WireReport,
{
    let mut stream = EncodedStream::new();
    for (i, report) in mech.good[..LONG].iter().enumerate() {
        if faulty && i == LONG_FAULT {
            stream.push(&mech.bad);
        } else {
            stream.push(report);
        }
    }
    stream
}

fn frequency_bits(snap: &RangeSnapshot) -> Vec<u64> {
    snap.estimate()
        .frequencies()
        .iter()
        .map(|x| x.to_bits())
        .collect()
}

/// What `reference` (seeded like the service under test) holds after the
/// clean long batch arrives as `LONG` single-frame submits: its merged
/// state bytes and its published frequencies' bits.
fn single_submits<T>(reference: &LdpService<T>, clean: &EncodedStream) -> (Vec<u8>, Vec<u64>)
where
    T: SnapshotSource + PersistableServer,
    T::Report: WireReport,
{
    for i in 0..LONG {
        reference.submit_frame(clean.frame_span(i, i + 1)).unwrap();
    }
    (
        state_bytes(&reference.merged_state().unwrap()),
        frequency_bits(&reference.refresh_snapshot().unwrap()),
    )
}

/// The long batches against one seeded backend: the faulty one is
/// refused at `LONG_FAULT` and leaves state bytes and the published `Arc`
/// as they were; the clean one lands bit-identical to `expected`.
fn check_long_batches(
    faulty: &EncodedStream,
    clean: &EncodedStream,
    ingest: impl Fn(&[u8]) -> Result<u64, ServiceError>,
    state: impl Fn() -> Vec<u8>,
    refresh: impl Fn() -> Arc<RangeSnapshot>,
    expected: &(Vec<u8>, Vec<u64>),
    what: &str,
) {
    let snap = refresh();
    let before = state();
    assert_bad_frame(ingest(faulty.as_bytes()), LONG_FAULT, what);
    assert_eq!(state(), before, "{what}: rejected long batch changed state");
    assert!(
        Arc::ptr_eq(&refresh(), &snap),
        "{what}: rejected long batch dirtied its shard"
    );
    assert_eq!(ingest(clean.as_bytes()).unwrap(), LONG as u64, "{what}");
    assert_eq!(state(), expected.0, "{what}: batch state ≠ single submits");
    assert_eq!(
        frequency_bits(&refresh()),
        expected.1,
        "{what}: batch snapshot ≠ single submits"
    );
}

/// Batches long enough to cross the unary oracles' auto-settle, plain,
/// windowed and durable (plus a restart that replays the long record).
fn check_long<S>(mech: &Mech<S>, tag: &str)
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    let (faulty, clean) = (long_batch(mech, true), long_batch(mech, false));
    let seed = &mech.good[LONG..LONG + BATCH];
    let mut seed_stream = EncodedStream::new();
    for r in seed {
        seed_stream.push(r);
    }

    let plain = || {
        let service = LdpService::new(&mech.prototype, 2).unwrap();
        submit_good(&service, seed);
        service
    };
    let windowed = || {
        let service = LdpService::<EpochRing<S>>::windowed(&mech.prototype, 2, WINDOW).unwrap();
        submit_good(&service, seed);
        service.seal_epoch().unwrap();
        submit_good(&service, seed);
        service
    };
    let expected_plain = single_submits(&plain(), &clean);
    let expected_windowed = single_submits(&windowed(), &clean);

    let service = plain();
    check_long_batches(
        &faulty,
        &clean,
        |f| service.submit_wire_batch(WIRE_V1, LONG as u64, f),
        || state_bytes(&service.merged_state().unwrap()),
        || service.refresh_snapshot().unwrap(),
        &expected_plain,
        &format!("{tag} plain"),
    );
    let service = windowed();
    check_long_batches(
        &faulty,
        &clean,
        |f| service.submit_wire_batch(WIRE_V1, LONG as u64, f),
        || state_bytes(&service.merged_state().unwrap()),
        || service.refresh_snapshot().unwrap(),
        &expected_windowed,
        &format!("{tag} windowed"),
    );

    for ringed in [false, true] {
        let what = format!("{tag} durable windowed={ringed}");
        let dir = scratch_dir(&format!("long-batch-{tag}-{ringed}")).unwrap();
        let open = || {
            if ringed {
                DurableService::open_windowed(&dir, &mech.prototype, WINDOW, durable_config())
            } else {
                DurableService::open(&dir, &mech.prototype, durable_config())
            }
            .unwrap()
            .0
        };
        let merged = |d: &DurableService<S>| match (d.plain(), d.windowed()) {
            (Some(s), _) => state_bytes(&s.merged_state().unwrap()),
            (_, Some(s)) => state_bytes(&s.merged_state().unwrap()),
            _ => unreachable!(),
        };
        let durable = open();
        durable
            .ingest_batch(WIRE_V1, BATCH as u64, seed_stream.as_bytes())
            .unwrap();
        if ringed {
            durable.seal_epoch().unwrap();
            durable
                .ingest_batch(WIRE_V1, BATCH as u64, seed_stream.as_bytes())
                .unwrap();
        }
        let expected = if ringed {
            &expected_windowed
        } else {
            &expected_plain
        };
        check_long_batches(
            &faulty,
            &clean,
            |f| durable.ingest_batch(WIRE_V1, LONG as u64, f),
            || merged(&durable),
            || durable.refresh_snapshot().unwrap(),
            expected,
            &what,
        );
        durable.sync().unwrap();
        drop(durable);
        assert_eq!(
            merged(&open()),
            expected.0,
            "{what}: recovery replay of the long record"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Flat OUE and HH₈/OUE (two levels, so each level's oracle also sees
/// more than 255 reports of the clean batch): a `LONG`-frame batch
/// rejected at frame `LONG_FAULT` reports `BadFrame { index: LONG_FAULT }`
/// and leaves state bytes and the published `Arc` untouched; accepted,
/// it is bit-identical to `LONG` single-frame submits — plain, windowed
/// and durable, and after the durable restart.
#[test]
fn long_unary_batches_cross_the_auto_settle_exactly() {
    check_long(&flat_with_pool(7, LONG + BATCH), "flat");
    check_long(&hh_with_pool(8, LONG + BATCH, 8), "hh8");
}

/// Frames per good batch in [`check_after_deferred_batches`].
const DEFERRED_BATCH: usize = 16;

/// `batches` good batches of [`DEFERRED_BATCH`] frames, absorbed deferred
/// and never read, so their reports are still pending in the shards'
/// unary levels; then a batch rejected at frame `k`. The rollback settles
/// the shard before it clones and subtracts, so the state is exactly the
/// good batches': the same `persist_state` bytes and published bits as a
/// reference service fed only those, under the same version. The refresh
/// after that is clean (the same `Arc`), a second rejected batch on the
/// drained shards keeps it, and later good batches land as on the
/// reference.
fn check_after_deferred_batches<S>(mech: &Mech<S>, batches: usize, k: usize, shards: usize)
where
    S: SnapshotSource + PersistableServer,
    S::Report: WireReport,
{
    let what = format!("{batches} deferred batches, {shards} shard(s), k={k}");
    let good = |i: usize| {
        let at = (i * DEFERRED_BATCH) % (mech.good.len() - DEFERRED_BATCH);
        &mech.good[at..at + DEFERRED_BATCH]
    };
    let reference = LdpService::new(&mech.prototype, shards).unwrap();
    let service = LdpService::new(&mech.prototype, shards).unwrap();
    for i in 0..batches {
        submit_good(&reference, good(i));
        submit_good(&service, good(i));
    }
    let (count, frames) = faulty_frames(mech, k, Fault::WrongShape, 0, WIRE_V1);
    assert_bad_frame(service.submit_wire_batch(WIRE_V1, count, &frames), k, &what);
    assert_eq!(service.num_reports(), reference.num_reports(), "{what}");
    let state = state_bytes(&reference.merged_state().unwrap());
    assert_eq!(
        state_bytes(&service.merged_state().unwrap()),
        state,
        "{what}: state after the rollback"
    );
    let snap = service.refresh_snapshot().unwrap();
    let expected = reference.refresh_snapshot().unwrap();
    assert_eq!(snap.version(), expected.version(), "{what}");
    assert_eq!(frequency_bits(&snap), frequency_bits(&expected), "{what}");
    assert!(
        Arc::ptr_eq(&service.refresh_snapshot().unwrap(), &snap),
        "{what}: the rollback left its shard dirty"
    );
    assert_bad_frame(service.submit_wire_batch(WIRE_V1, count, &frames), k, &what);
    assert_untouched(&service, &state, &snap, &format!("{what}, drained"));
    for i in batches..batches + 3 {
        submit_good(&reference, good(i));
        submit_good(&service, good(i));
    }
    assert_eq!(
        state_bytes(&service.merged_state().unwrap()),
        state_bytes(&reference.merged_state().unwrap()),
        "{what}: good batches after the rollback"
    );
}

/// Flat OUE (one level: 15, 16 and 17 batches put 240, 256 and 272
/// reports on one shard, just under, just past and well past the
/// 255-report auto-settle) and HH₈/OUE (two levels, so about 31–33
/// batches straddle it per level): a rejected batch after good deferred
/// batches rolls back exactly, with one shard and with two.
#[test]
fn rollback_after_deferred_batches_straddling_the_auto_settle_is_exact() {
    let flat = flat_with_pool(11, LONG + BATCH);
    let hh = hh_with_pool(12, LONG + BATCH, 8);
    for shards in [1, 2] {
        for k in [0, 5, BATCH] {
            for batches in [15, 16, 17] {
                check_after_deferred_batches(&flat, batches * shards, k, shards);
            }
            for batches in [31, 32, 33] {
                check_after_deferred_batches(&hh, batches * shards, k, shards);
            }
        }
    }
}

/// Per-report atomicity: a single rejected `absorb` mutates nothing, on
/// a server that already holds state.
fn assert_rejected_absorb_is_a_no_op<S>(mech: &Mech<S>, what: &str)
where
    S: SubtractableServer + PersistableServer,
{
    let mut server = mech.prototype.clone();
    for r in &mech.good {
        server.absorb(r).unwrap();
    }
    let before = state_bytes(&server);
    assert!(
        server.absorb(&mech.bad).is_err(),
        "{what}: bad report accepted"
    );
    assert_eq!(
        state_bytes(&server),
        before,
        "{what}: rejected absorb mutated"
    );
    assert_eq!(server.num_reports(), mech.good.len() as u64);

    // The same through a ring, plus the tag check of `absorb_tagged`.
    let mut ring = EpochRing::new(&mech.prototype, WINDOW).unwrap();
    for r in &mech.good[..BATCH] {
        ring.absorb(r).unwrap();
    }
    ring.seal_epoch().unwrap();
    ring.absorb_tagged(Some(1), &mech.good[0]).unwrap();
    let before = state_bytes(&ring);
    assert!(
        ring.absorb_tagged(Some(1), &mech.bad).is_err(),
        "{what}: ring"
    );
    assert!(ring.absorb_tagged(None, &mech.bad).is_err(), "{what}: ring");
    for stale_or_future in [0, 2, u64::MAX] {
        assert!(matches!(
            ring.absorb_tagged(Some(stale_or_future), &mech.good[1]),
            Err(ServiceError::EpochMismatch { current: 1, .. })
        ));
    }
    assert_eq!(
        state_bytes(&ring),
        before,
        "{what}: rejected tagged absorb mutated"
    );
    assert_eq!(ring.current_epoch(), 1);
}

#[test]
fn flat_rejected_absorb_mutates_nothing() {
    assert_rejected_absorb_is_a_no_op(&flat(1), "flat");
}

#[test]
fn hh_rejected_absorb_mutates_nothing() {
    assert_rejected_absorb_is_a_no_op(&hh(2), "hh");
}

#[test]
fn haar_hrr_rejected_absorb_mutates_nothing() {
    assert_rejected_absorb_is_a_no_op(&haar_hrr(4), "haarhrr");
}
