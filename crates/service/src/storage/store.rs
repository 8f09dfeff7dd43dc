//! [`DurableService`] — the durable front over [`LdpService`].
//!
//! Wraps a plain or windowed service with a write-ahead log and periodic
//! checkpoints. Every ingest batch is absorbed all-or-nothing and then
//! logged as **one** WAL record (group commit: the batch is the commit
//! unit, so a thousand-frame batch costs one record and at most one
//! fsync). The [`FsyncPolicy`] decides how often acknowledged bytes are
//! forced to disk; [`DurableService::checkpoint`] serializes the merged
//! state, rotates the log, and truncates segments the checkpoint covers.
//!
//! Two locks order the log against the state. An *order lock* (a
//! reader-writer lock) is held shared by every ingest across its absorb
//! and its append, and exclusively by every state change that must see
//! each absorbed batch already logged: SEAL, CHECKPOINT, finalize and a
//! follower's re-apply. The WAL mutex is held only for the append
//! itself. Concurrent batches may therefore reach the log in a different
//! order than they reached the shards, but every batch lands between the
//! same SEAL / CHECKPOINT markers it was absorbed between — in
//! particular a frame absorbed into epoch `N` always precedes the
//! `SEAL N` record. Batches commute (state is integer sums), so replay,
//! recovery and a follower's re-apply all produce the live state bit for
//! bit. Ingestion through the wrapped service directly would bypass the
//! log; a durable deployment ingests only through this type.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use crate::error::ServiceError;
use crate::obs::instruments::{ReplInstruments, StorageInstruments};
use crate::obs::MetricsRegistry;
use crate::repl::hub::ReplHub;
use crate::service::{check_served, AnyService, LdpService};
use crate::snapshot::{RangeSnapshot, SnapshotSource};
use crate::storage::recovery::{self, RecoveryReport, ResumePoint};
use crate::storage::wal::{FsyncPolicy, WalRecord, WalWriter};
use crate::storage::{checkpoint, wal};
use crate::window::{EpochRing, WindowedSnapshot};
use crate::wire::WireReport;

/// Sentinel for "no checkpoint taken yet" in the atomic id cell.
const NO_CHECKPOINT: u64 = u64::MAX;

/// Tuning knobs of a [`DurableService`].
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// Shards of the wrapped [`LdpService`].
    pub num_shards: usize,
    /// Segment size threshold; the log rotates after crossing it.
    pub segment_bytes: u64,
    /// When acknowledged WAL bytes are forced to disk.
    pub fsync: FsyncPolicy,
    /// Take a checkpoint automatically after this many appended records
    /// (0 = only explicit [`DurableService::checkpoint`] /
    /// [`DurableService::finalize`] calls).
    pub checkpoint_every_records: u64,
    /// Keep segments and checkpoints a newer checkpoint supersedes
    /// (default `false`: they are deleted, bounding disk use). The
    /// recovery differential tests enable this to compare checkpoint +
    /// tail replay against a full-log replay.
    pub retain_history: bool,
    /// Metrics registry the storage tier (and the wrapped service)
    /// instruments itself into. `None` (the default) creates a private
    /// registry, reachable via [`DurableService::registry`].
    pub registry: Option<Arc<MetricsRegistry>>,
}

impl Default for DurableConfig {
    fn default() -> Self {
        Self {
            num_shards: 4,
            segment_bytes: 8 << 20,
            fsync: FsyncPolicy::Always,
            checkpoint_every_records: 0,
            retain_history: false,
            registry: None,
        }
    }
}

/// Durability progress counters — also what a durable server's STATUS
/// reply carries (as [`crate::net::proto::DurableProgress`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableStatus {
    /// Id of the newest completed checkpoint, if any.
    pub last_checkpoint: Option<u64>,
    /// Segment currently being appended to.
    pub wal_segment_seq: u64,
    /// Records appended since open (not counting recovered history).
    pub wal_records: u64,
    /// Frames appended since open (not counting recovered history).
    pub wal_frames: u64,
    /// Automatic checkpoints that failed (and will be retried on the
    /// next append); explicit [`DurableService::checkpoint`] failures
    /// surface to their caller instead.
    pub checkpoint_failures: u64,
    /// Whether the service has fail-stopped after a WAL append failure
    /// (see [`DurableService::ingest_batch`]); a wedged service rejects
    /// all further ingest, seals, and checkpoints until restarted — the
    /// first thing an operator probe must see.
    pub wedged: bool,
}

/// A durable LDP aggregation service: [`LdpService`] + WAL + checkpoints.
pub struct DurableService<S>
where
    S: SnapshotSource,
    S::Report: WireReport,
{
    service: AnyService<S>,
    /// Orders ingest against the state changes that must see every
    /// absorbed batch logged. Ingest holds it shared across absorb and
    /// append; seal, checkpoint, finalize and a follower's re-apply hold
    /// it exclusively. Always taken before `wal`.
    order: RwLock<()>,
    /// The log writer. Held only to append (plus the wedge check just
    /// before it) and to read or flush the writer — never across an
    /// absorb, so one slow batch does not stall the others.
    wal: Mutex<WalInner>,
    dir: PathBuf,
    config: DurableConfig,
    /// Newest completed checkpoint id ([`NO_CHECKPOINT`] = none).
    last_checkpoint: AtomicU64,
    /// The registry every tier below this store reports into.
    registry: Arc<MetricsRegistry>,
    /// Storage-tier instruments. These *are* the accounting state: the
    /// fail-stop wedge flag lives in `obs.wedged` (a `SeqCst` gauge —
    /// set when a WAL append fails after its batch was already absorbed,
    /// leaving in-memory state ahead of the log; every mutating path
    /// refuses while it reads 1, queries keep answering) and the
    /// auto-checkpoint failure count in `obs.checkpoint_failures`, with
    /// no shadow copies — [`DurableService::status`] and the metrics
    /// exposition cannot disagree.
    obs: StorageInstruments,
    /// The replication hub, once this store serves as a leader (created
    /// lazily by [`DurableService::ensure_repl_hub`]). Append paths
    /// publish each logged record through it; `None` costs nothing.
    repl: OnceLock<Arc<ReplHub>>,
}

impl<S> Drop for DurableService<S>
where
    S: SnapshotSource,
    S::Report: WireReport,
{
    fn drop(&mut self) {
        // Under a lazy fsync policy an acked record can still sit in the
        // writer's staging buffer; hand it to the OS so a clean drop
        // loses nothing. A wedged store writes nothing more: a partial
        // record may already be on disk.
        if self.obs.wedged.get() == 0 {
            if let Ok(wal) = self.wal.get_mut() {
                let _ = wal.writer.flush_buffer();
            }
        }
        // Release the single-writer lock. After a real crash the stale
        // lock file remains; the next open reclaims it once the owning
        // pid is gone.
        let _ = std::fs::remove_file(lock_path(&self.dir));
    }
}

/// The single-writer lock file guarding a WAL directory.
fn lock_path(dir: &Path) -> PathBuf {
    dir.join("LOCK")
}

/// Creates the storage directory and makes its own directory entry
/// durable: a first-boot WAL directory whose entry never hit disk would
/// vanish wholesale on power loss — every acked record with it, misread
/// by the next open as a fresh, empty log — the same failure the
/// per-segment directory sync prevents, one level up. Only the immediate
/// parent is synced; provisioning a deeper ancestor chain durably is the
/// operator's concern.
fn create_dir_durable(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    if let Some(parent) = dir.parent().filter(|p| !p.as_os_str().is_empty()) {
        crate::storage::sync_dir(parent)?;
    }
    Ok(())
}

/// Takes the directory's single-writer lock: creates `LOCK` holding this
/// process id. Two writers appending to one log interleave record bytes
/// into CRC garbage, so a second open must fail instead. A stale lock
/// (the recorded pid no longer runs — a crashed previous owner) is
/// reclaimed; a live owner is an error.
fn acquire_lock(dir: &Path) -> Result<(), ServiceError> {
    let path = lock_path(dir);
    for _ in 0..2 {
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut f) => {
                use std::io::Write;
                f.write_all(std::process::id().to_string().as_bytes())?;
                f.sync_all()?;
                return Ok(());
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let holder = std::fs::read_to_string(&path)
                    .ok()
                    .and_then(|s| s.trim().parse::<u32>().ok());
                let stale = match holder {
                    // Linux: the pid is gone from /proc ⇒ the owner died
                    // without cleanup.
                    #[cfg(target_os = "linux")]
                    Some(pid) => !std::path::Path::new(&format!("/proc/{pid}")).exists(),
                    // Elsewhere there is no /proc to probe liveness with,
                    // so the lock is conservatively treated as held and
                    // the operator removes it by hand — wrongly reclaiming
                    // a live owner's lock would put two writers on one log.
                    #[cfg(not(target_os = "linux"))]
                    Some(_) => false,
                    None => false,
                };
                if !stale {
                    return Err(ServiceError::Io(std::io::Error::other(format!(
                        "WAL directory already locked by pid {holder:?} ({}); \
                         a second writer would corrupt the log",
                        path.display()
                    ))));
                }
                std::fs::remove_file(&path)?;
                // Loop once more to race-safely retake via create_new.
            }
            Err(e) => return Err(e.into()),
        }
    }
    Err(ServiceError::Io(std::io::Error::other(
        "could not acquire WAL directory lock",
    )))
}

struct WalInner {
    writer: WalWriter,
    records_since_checkpoint: u64,
}

impl<S> DurableService<S>
where
    S: SnapshotSource + 'static,
    S::Report: WireReport,
{
    /// Opens (or creates) a durable *plain* service in `dir`: runs
    /// recovery, seeds the wrapped [`LdpService`] with the recovered
    /// state, truncates any torn WAL tail, and resumes the log.
    ///
    /// # Errors
    ///
    /// I/O failures, a zero shard count, a checkpoint that does not
    /// match `prototype`'s configuration, or a prototype the service
    /// does not serve (see [`LdpService::new`]) — refused before the
    /// directory is read or written.
    pub fn open(
        dir: impl AsRef<Path>,
        prototype: &S,
        config: DurableConfig,
    ) -> Result<(Self, RecoveryReport), ServiceError> {
        Self::open_with(dir.as_ref(), prototype, config, |dir, shards| {
            let (state, report) = recovery::recover_plain(dir, prototype)?;
            let service = LdpService::with_recovered(state, prototype, shards)?;
            Ok((AnyService::Plain(Arc::new(service)), report))
        })
    }

    /// Opens (or creates) a durable *windowed* service in `dir`; the ring
    /// retains `window_len` sealed epochs (which must match any existing
    /// checkpoint).
    ///
    /// # Errors
    ///
    /// As [`DurableService::open`], plus `window_len == 0`.
    pub fn open_windowed(
        dir: impl AsRef<Path>,
        prototype: &S,
        window_len: usize,
        config: DurableConfig,
    ) -> Result<(Self, RecoveryReport), ServiceError> {
        Self::open_with(dir.as_ref(), prototype, config, |dir, shards| {
            let (ring, report) = recovery::recover_windowed(dir, prototype, window_len)?;
            let empty = ring.aligned_empty();
            let service = LdpService::with_recovered(ring, &empty, shards)?;
            Ok((AnyService::Windowed(Arc::new(service)), report))
        })
    }

    /// The open path of both shapes: check that `prototype` is served,
    /// lock the directory, `recover` the shape's state into a service
    /// with `config.num_shards` shards, and resume the log. The lock is
    /// released again if any step fails.
    fn open_with(
        dir: &Path,
        prototype: &S,
        config: DurableConfig,
        recover: impl FnOnce(&Path, usize) -> Result<(AnyService<S>, RecoveryReport), ServiceError>,
    ) -> Result<(Self, RecoveryReport), ServiceError> {
        check_served(prototype)?;
        create_dir_durable(dir)?;
        acquire_lock(dir)?;
        let result = recover(dir, config.num_shards).and_then(|(service, report)| {
            Self::finish_open(dir.to_path_buf(), service, config, report)
        });
        if result.is_err() {
            let _ = std::fs::remove_file(lock_path(dir));
        }
        result
    }

    fn finish_open(
        dir: PathBuf,
        service: AnyService<S>,
        config: DurableConfig,
        report: RecoveryReport,
    ) -> Result<(Self, RecoveryReport), ServiceError> {
        // Resuming after a torn tail truncates the damage — destructive,
        // so it is allowed only for a genuine crash artifact at the
        // physical end of the log. Mid-log corruption, a segment gap, or
        // a CRC-valid record the state machine rejected (a mismatched
        // prototype, most likely) must not cost acknowledged records:
        // refuse to open for writing and leave the directory untouched.
        if !report.safe_to_resume {
            return Err(ServiceError::Range(ldp_ranges::RangeError::CorruptState(
                "WAL damaged before its physical tail (or its records do not match this \
                 prototype); refusing to truncate acknowledged records — inspect the log \
                 or reopen with the original configuration",
            )));
        }
        // Segments beyond the resume point (after a torn record) can
        // never be replayed again — delete them so a future recovery
        // cannot resurrect them after new appends.
        let resume_seq = match report.resume {
            ResumePoint::Fresh { seq } | ResumePoint::Continue { seq, .. } => seq,
        };
        for (seq, path) in wal::list_segments(&dir)? {
            if seq > resume_seq {
                std::fs::remove_file(path)?;
            }
        }
        let writer = match report.resume {
            ResumePoint::Fresh { seq } => {
                // A "fresh" resume can still find a file under this seq —
                // a segment whose header never reached disk, or arrived
                // corrupt. Nothing in it was replayable; clear it.
                let stale = wal::segment_path(&dir, seq);
                if stale.exists() {
                    std::fs::remove_file(&stale)?;
                }
                WalWriter::create(&dir, seq, config.segment_bytes, config.fsync)?
            }
            ResumePoint::Continue { seq, valid_len } => {
                WalWriter::resume(&dir, seq, valid_len, config.segment_bytes, config.fsync)?
            }
        };
        let last = report.checkpoint_id.unwrap_or(NO_CHECKPOINT);
        // One registry for the whole stack: the storage instruments, the
        // wrapped service's shard/refresh instruments, and (windowed)
        // the ring's rotation instruments all register here, so a single
        // snapshot sees every tier.
        let registry = config
            .registry
            .clone()
            .unwrap_or_else(|| Arc::new(MetricsRegistry::new()));
        let obs = StorageInstruments::register(&registry);
        obs.replay_records.add(report.records_replayed);
        obs.replay_frames.add(report.frames_replayed);
        service.attach_metrics(&registry);
        Ok((
            Self {
                service,
                order: RwLock::new(()),
                wal: Mutex::new(WalInner {
                    writer,
                    records_since_checkpoint: 0,
                }),
                dir,
                config,
                last_checkpoint: AtomicU64::new(last),
                registry,
                obs,
                repl: OnceLock::new(),
            },
            report,
        ))
    }

    /// The metrics registry this store (and the service it wraps)
    /// reports into — share it with [`crate::net::NetConfig::registry`]
    /// (done automatically by `bind_durable` when that is `None`) so one
    /// `GET /metrics` scrape covers every tier.
    #[must_use]
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Whether the backend is windowed.
    #[must_use]
    pub fn is_windowed(&self) -> bool {
        self.service.is_windowed()
    }

    /// The storage directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The wrapped plain service, for queries (`None` when windowed).
    /// Ingest through the service directly bypasses the log — durable
    /// writers use [`DurableService::ingest_batch`].
    #[must_use]
    pub fn plain(&self) -> Option<&Arc<LdpService<S>>> {
        self.service.plain()
    }

    /// The wrapped windowed service, for queries (`None` when plain).
    #[must_use]
    pub fn windowed(&self) -> Option<&Arc<LdpService<EpochRing<S>>>> {
        self.service.windowed()
    }

    /// The wrapped service of either shape — what a socket front end
    /// reads from.
    pub(crate) fn service(&self) -> &AnyService<S> {
        &self.service
    }

    /// Absorbs one batch of raw wire frames all-or-nothing
    /// ([`LdpService::submit_wire_batch`] — the same call an in-memory
    /// backend makes), logs it as one WAL record, applies the fsync
    /// policy, and returns the number of frames absorbed — the durable
    /// analogue of one REPORT message. Nothing is logged for a rejected
    /// batch, so replay never faces a frame the live service refused.
    ///
    /// Decode and absorb run under the shared order lock only, so
    /// batches from different sessions absorb concurrently (each into
    /// its own shard) and a rejected batch pays its rollback under its
    /// shard lock alone. The WAL mutex is held just for the wedge check
    /// and the append. Seals and checkpoints take the order lock
    /// exclusively, so each batch is logged between the same markers it
    /// was absorbed between.
    ///
    /// # Errors
    ///
    /// [`ServiceError::BadFrame`] (with index) for malformed or rejected
    /// frames — state and log unchanged. [`ServiceError::Io`] when the
    /// append fails: the batch was absorbed in memory but is **not
    /// durable**, so the service fail-stops (*wedges*) — every further
    /// ingest/seal/checkpoint is refused until a restart re-establishes
    /// `log == state` via recovery. Without the wedge a retry would
    /// double-count and a later checkpoint would silently persist the
    /// unlogged batch. Batches absorbing concurrently with the failed
    /// append (at most one per calling thread — one per event loop
    /// behind a server) find the wedge at their own append and are
    /// refused there: absorbed but never logged, and never acked, which
    /// the restart's recovery discards like the failed batch itself.
    pub fn ingest_batch(
        &self,
        wire_version: u8,
        count: u64,
        frames: &[u8],
    ) -> Result<u64, ServiceError> {
        let (n, checkpoint_due) = {
            let _order = self.share_order()?;
            self.check_wedged()?;
            self.apply_frames(wire_version, count, frames)?
        };
        if checkpoint_due {
            let _order = self.exclude_order()?;
            let mut wal = self.lock_wal()?;
            self.maybe_auto_checkpoint(&mut wal);
        }
        Ok(n)
    }

    /// Absorbs one FRAMES payload, then appends it as one record under
    /// the WAL mutex (re-checking the wedge first) — the step the
    /// leader's ingest and a follower's re-apply share. The caller holds
    /// the order lock, shared or exclusive. Returns the frames absorbed
    /// and whether an automatic checkpoint is due.
    fn apply_frames(
        &self,
        wire_version: u8,
        count: u64,
        frames: &[u8],
    ) -> Result<(u64, bool), ServiceError> {
        let n = self
            .service
            .submit_wire_batch(wire_version, count, frames)?;
        let mut wal = self.lock_wal()?;
        self.check_wedged()?;
        // Zero-copy append: the raw frame bytes go straight from the
        // request buffer to the log.
        let started = Instant::now();
        self.wedge_on_err(wal.writer.append_frames(wire_version, n, frames))?;
        self.obs.append_ns.record_elapsed(started);
        self.obs.batch_frames.record(n);
        self.obs.wal_records.incr();
        self.obs.wal_frames.add(n);
        wal.records_since_checkpoint += 1;
        self.notify_repl(&mut wal);
        Ok((n, self.checkpoint_due(&wal)))
    }

    /// Seals the open epoch on a windowed backend and logs the SEAL
    /// record, returning the sealed epoch id.
    ///
    /// # Errors
    ///
    /// [`ServiceError::NotWindowed`] on a plain backend; otherwise as
    /// [`DurableService::ingest_batch`] (an append failure wedges the
    /// service).
    pub fn seal_epoch(&self) -> Result<u64, ServiceError> {
        let _order = self.exclude_order()?;
        let mut wal = self.lock_wal()?;
        self.check_wedged()?;
        let epoch = self.service.seal_epoch()?;
        self.append_seal_locked(&mut wal, epoch)?;
        self.maybe_auto_checkpoint(&mut wal);
        Ok(epoch)
    }

    /// Appends the SEAL record of an epoch the backend just sealed. The
    /// caller holds the WAL lock.
    fn append_seal_locked(&self, wal: &mut WalInner, epoch: u64) -> Result<(), ServiceError> {
        let started = Instant::now();
        self.wedge_on_err(wal.writer.append(&WalRecord::Seal { epoch }))?;
        self.obs.append_ns.record_elapsed(started);
        self.obs.wal_records.incr();
        wal.records_since_checkpoint += 1;
        self.notify_repl(wal);
        Ok(())
    }

    /// Takes a checkpoint now: serializes the merged state, appends a
    /// CHECKPOINT marker, rotates the log (so the checkpoint boundary is
    /// a segment boundary), writes the checkpoint file atomically, and —
    /// unless [`DurableConfig::retain_history`] — deletes the segments
    /// and older checkpoints it supersedes. Returns the checkpoint id.
    ///
    /// # Errors
    ///
    /// I/O and lock failures; on error the previous checkpoint and the
    /// full log remain intact.
    pub fn checkpoint(&self) -> Result<u64, ServiceError> {
        let _order = self.exclude_order()?;
        let mut wal = self.lock_wal()?;
        self.check_wedged()?;
        self.checkpoint_locked(&mut wal)
    }

    /// Graceful shutdown epilogue: checkpoint and force everything to
    /// disk, so the next open restores from the checkpoint without any
    /// replay. Returns the final checkpoint id.
    ///
    /// # Errors
    ///
    /// As [`DurableService::checkpoint`].
    pub fn finalize(&self) -> Result<u64, ServiceError> {
        let _order = self.exclude_order()?;
        let mut wal = self.lock_wal()?;
        self.check_wedged()?;
        let id = self.checkpoint_locked(&mut wal)?;
        wal.writer.sync()?;
        Ok(id)
    }

    /// Forces all appended-but-buffered WAL bytes to disk (a durability
    /// barrier under relaxed fsync policies).
    ///
    /// # Errors
    ///
    /// I/O and lock failures.
    pub fn sync(&self) -> Result<(), ServiceError> {
        let mut wal = self.lock_wal()?;
        // A failed flush can leave a partial record on disk; writing
        // anything after it would bury acked records behind garbage.
        self.wedge_on_err(wal.writer.sync())
    }

    /// Durability progress counters.
    ///
    /// # Errors
    ///
    /// Lock poisoning.
    pub fn status(&self) -> Result<DurableStatus, ServiceError> {
        let wal = self.lock_wal()?;
        let last = self.last_checkpoint.load(Ordering::Relaxed);
        Ok(DurableStatus {
            last_checkpoint: (last != NO_CHECKPOINT).then_some(last),
            wal_segment_seq: wal.writer.seq(),
            wal_records: wal.writer.appended_records(),
            wal_frames: wal.writer.appended_frames(),
            // Read from the registry instruments — the only copy.
            checkpoint_failures: self.obs.checkpoint_failures.get(),
            wedged: self.obs.wedged.get() != 0,
        })
    }

    /// Total reports currently reflected in the backend (retained window
    /// for windowed backends).
    #[must_use]
    pub fn num_reports(&self) -> u64 {
        self.service.num_reports()
    }

    /// The most recently published snapshot of the backend.
    #[must_use]
    pub fn snapshot(&self) -> Arc<RangeSnapshot> {
        self.service.snapshot()
    }

    /// Merges current state and publishes a fresh snapshot.
    ///
    /// # Errors
    ///
    /// As [`LdpService::refresh_snapshot`].
    pub fn refresh_snapshot(&self) -> Result<Arc<RangeSnapshot>, ServiceError> {
        self.service.refresh_snapshot()
    }

    /// Freezes the trailing `epochs` sealed epochs (windowed backends).
    ///
    /// # Errors
    ///
    /// [`ServiceError::NotWindowed`] on a plain backend; otherwise as
    /// [`LdpService::window_snapshot`].
    pub fn window_snapshot(&self, epochs: usize) -> Result<WindowedSnapshot, ServiceError> {
        self.service.window_snapshot(epochs)
    }

    /// The attached replication hub, if this store has ever served as a
    /// replication leader.
    pub(crate) fn repl_hub(&self) -> Option<&Arc<ReplHub>> {
        self.repl.get()
    }

    /// Attaches (or returns) the replication hub: scans the retained log
    /// once — under the WAL lock, so the count cannot race an append —
    /// to seed the absolute record count and decide availability (the
    /// log must still start at segment 0 for positions to be exact from
    /// the origin).
    ///
    /// # Errors
    ///
    /// I/O and lock failures during the seeding scan.
    pub(crate) fn ensure_repl_hub(&self) -> Result<Arc<ReplHub>, ServiceError> {
        let mut wal = self.lock_wal()?;
        if let Some(hub) = self.repl.get() {
            return Ok(Arc::clone(hub));
        }
        let (records, origin) = self.scan_log_locked(&mut wal)?;
        let hub = Arc::new(ReplHub::new(
            records,
            origin,
            ReplInstruments::register(&self.registry),
        ));
        let _ = self.repl.set(Arc::clone(&hub));
        Ok(hub)
    }

    /// Counts every record in the retained log (FRAMES, SEAL, and
    /// CHECKPOINT markers alike) and reports whether the log still
    /// starts at segment 0. Used to seed the leader's replication hub
    /// and to position a follower at its local tail.
    ///
    /// # Errors
    ///
    /// I/O and lock failures; corruption inside a sealed segment.
    pub(crate) fn scan_log(&self) -> Result<(u64, bool), ServiceError> {
        let mut wal = self.lock_wal()?;
        self.scan_log_locked(&mut wal)
    }

    fn scan_log_locked(&self, wal: &mut WalInner) -> Result<(u64, bool), ServiceError> {
        // A failed flush can leave a partial record on disk; writing
        // past it would bury acked records behind garbage.
        self.wedge_on_err(wal.writer.flush_buffer())?;
        let origin = wal::list_segments(&self.dir)?
            .first()
            .is_some_and(|(seq, _)| *seq == 0);
        let mut reader = wal::WalReader::open_start(&self.dir)?;
        while !reader.next_batch(usize::MAX)?.is_empty() {}
        Ok((reader.records_read(), origin))
    }

    /// Publishes one appended record to the replication hub: flushes the
    /// writer's buffer so tail-following cursors see the record even
    /// under lazy fsync policies, then bumps the hub's absolute count
    /// and wakes streaming sessions. Called with the WAL lock held, so
    /// hub count order is log order.
    fn notify_repl(&self, wal: &mut WalInner) {
        let Some(hub) = self.repl.get() else {
            return;
        };
        if hub.has_followers() && wal.writer.flush_buffer().is_err() {
            // Same hazard as a failed sync: a partial record may now be
            // on disk, and appending past it would corrupt the log.
            self.obs.wedged.set(1);
        }
        hub.record_appended();
    }

    /// Applies a batch of replicated WAL records under **one** exclusive
    /// order lock — the follower's group-commit path. Each FRAMES record
    /// absorbs all-or-nothing and is appended with its original framing
    /// through the very step the leader's ingest runs (`apply_frames`), so
    /// the follower's log mirrors the leader's record for record; SEAL
    /// records seal and log at their original positions, and a
    /// CHECKPOINT record is appended as a marker only (the follower
    /// checkpoints on its own schedule, which for a live follower is
    /// never).
    ///
    /// All-or-nothing per record: if one is rejected, it reached neither
    /// state nor log, and the records *before* it in `records` are
    /// already applied and appended — the caller's position (its own log
    /// length) stays truthful either way.
    ///
    /// # Errors
    ///
    /// As [`DurableService::ingest_batch`] / [`DurableService::seal_epoch`];
    /// a SEAL naming a different epoch than the follower's ring sealed
    /// surfaces as corrupt state (the logs have diverged).
    pub(crate) fn apply_replicated_batch(&self, records: &[WalRecord]) -> Result<(), ServiceError> {
        let _order = self.exclude_order()?;
        self.check_wedged()?;
        for record in records {
            match record {
                WalRecord::Frames {
                    wire_version,
                    count,
                    frames,
                } => {
                    self.apply_frames(*wire_version, *count, frames)?;
                }
                WalRecord::Seal { epoch } => {
                    let mut wal = self.lock_wal()?;
                    let sealed = self.service.seal_epoch()?;
                    if sealed != *epoch {
                        return Err(ServiceError::Range(ldp_ranges::RangeError::CorruptState(
                            "replicated SEAL names a different epoch than the follower sealed \
                             — the logs have diverged",
                        )));
                    }
                    self.append_seal_locked(&mut wal, sealed)?;
                }
                WalRecord::Checkpoint { id } => {
                    let mut wal = self.lock_wal()?;
                    self.wedge_on_err(wal.writer.append(&WalRecord::Checkpoint { id: *id }))?;
                    self.obs.wal_records.incr();
                    self.notify_repl(&mut wal);
                }
            }
        }
        self.maybe_auto_checkpoint(&mut *self.lock_wal()?);
        Ok(())
    }

    fn lock_wal(&self) -> Result<std::sync::MutexGuard<'_, WalInner>, ServiceError> {
        self.wal
            .lock()
            .map_err(|_| ServiceError::LockPoisoned("wal"))
    }

    /// The order lock, shared: ingest's absorb + append.
    fn share_order(&self) -> Result<RwLockReadGuard<'_, ()>, ServiceError> {
        self.order
            .read()
            .map_err(|_| ServiceError::LockPoisoned("order"))
    }

    /// The order lock, exclusive: no batch is between its absorb and
    /// its append while the guard lives.
    fn exclude_order(&self) -> Result<RwLockWriteGuard<'_, ()>, ServiceError> {
        self.order
            .write()
            .map_err(|_| ServiceError::LockPoisoned("order"))
    }

    /// Fail-stops (*wedges*) the service when a log write failed: state
    /// may now be ahead of the log, or a partial record on disk, and
    /// nothing may be written past either.
    fn wedge_on_err<T>(&self, result: std::io::Result<T>) -> Result<T, ServiceError> {
        result.map_err(|e| {
            self.obs.wedged.set(1);
            e.into()
        })
    }

    /// Refuses mutating operations after a WAL append failure left
    /// in-memory state ahead of the log.
    fn check_wedged(&self) -> Result<(), ServiceError> {
        if self.obs.wedged.get() != 0 {
            return Err(ServiceError::Io(std::io::Error::other(
                "durable service wedged by an earlier WAL append failure; \
                 restart to recover the logged prefix",
            )));
        }
        Ok(())
    }

    /// Whether the record threshold for an automatic checkpoint is met.
    fn checkpoint_due(&self, wal: &WalInner) -> bool {
        self.config.checkpoint_every_records > 0
            && wal.records_since_checkpoint >= self.config.checkpoint_every_records
    }

    /// Runs an automatic checkpoint when the record threshold is
    /// reached; the caller holds the order lock exclusively. A wedged
    /// store writes nothing. A failure here must *not* be attributed to
    /// the batch that triggered it — that batch is already absorbed and
    /// durably logged — so it is counted (visible in
    /// [`DurableService::status`]) and retried on the next append; the
    /// previous checkpoint and the full log stay intact either way.
    fn maybe_auto_checkpoint(&self, wal: &mut WalInner) {
        if self.checkpoint_due(wal)
            && self.obs.wedged.get() == 0
            && self.checkpoint_locked(wal).is_err()
        {
            self.obs.checkpoint_failures.incr();
        }
    }

    fn checkpoint_locked(&self, wal: &mut WalInner) -> Result<u64, ServiceError> {
        let started = Instant::now();
        let last = self.last_checkpoint.load(Ordering::Relaxed);
        let id = if last == NO_CHECKPOINT { 0 } else { last + 1 };
        let state = self.service.persist_merged()?;
        // Log failures here wedge like any other append failure — a
        // partial marker or unflushed rotation must not be written past.
        // A failure *after* rotation (checkpoint file, truncation) does
        // not wedge: the log itself is intact and the previous
        // checkpoint still covers it.
        self.wedge_on_err(wal.writer.append(&WalRecord::Checkpoint { id }))?;
        self.obs.wal_records.incr();
        self.notify_repl(wal);
        let replay_from_seq = self.wedge_on_err(wal.writer.rotate())?;
        checkpoint::write_checkpoint(
            &self.dir,
            &checkpoint::Checkpoint {
                id,
                replay_from_seq,
                state,
            },
        )?;
        if !self.config.retain_history {
            let mut pruned = false;
            for (seq, path) in wal::list_segments(&self.dir)? {
                if seq < replay_from_seq {
                    std::fs::remove_file(path)?;
                    pruned = true;
                }
            }
            for (old_id, path) in checkpoint::list_checkpoints(&self.dir)? {
                if old_id < id {
                    std::fs::remove_file(path)?;
                }
            }
            if pruned {
                // Records before the checkpoint no longer exist on disk:
                // positions can no longer be served from the origin, so
                // new replication subscriptions are refused (in-flight
                // cursors past the pruned point keep streaming).
                if let Some(hub) = self.repl.get() {
                    hub.mark_pruned();
                }
            }
        }
        self.last_checkpoint.store(id, Ordering::Relaxed);
        wal.records_since_checkpoint = 0;
        self.obs.checkpoint_ns.record_elapsed(started);
        self.obs.checkpoints.incr();
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::EncodedStream;
    use crate::storage::scratch_dir;
    use crate::wire::VERSION_EPOCH;
    use ldp_freq_oracle::Epsilon;
    use ldp_ranges::{HhClient, HhConfig, HhServer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn log_of(dir: &Path) -> Vec<WalRecord> {
        wal::WalReader::open_start(dir)
            .unwrap()
            .next_batch(usize::MAX)
            .unwrap()
    }

    /// A follower handed a mixed run — FRAMES, FRAMES, SEAL, FRAMES,
    /// CHECKPOINT — in **one** `apply_replicated_batch` call ends with a
    /// log equal to the leader's record for record and a bit-identical
    /// snapshot.
    #[test]
    fn one_replicated_batch_of_mixed_records_mirrors_the_leader() {
        let hh = HhConfig::new(64, 4, Epsilon::new(1.1)).unwrap();
        let client = HhClient::new(hh.clone()).unwrap();
        let prototype = HhServer::new(hh).unwrap();
        let config = DurableConfig {
            num_shards: 3,
            fsync: FsyncPolicy::Never,
            retain_history: true,
            ..DurableConfig::default()
        };
        let open = |tag: &str| {
            let dir = scratch_dir(tag).unwrap();
            let (service, _) =
                DurableService::open_windowed(&dir, &prototype, 2, config.clone()).unwrap();
            (dir, service)
        };
        let (leader_dir, leader) = open("repl-mixed-leader");
        let (follower_dir, follower) = open("repl-mixed-follower");

        let mut rng = StdRng::seed_from_u64(20);
        let mut batch = |epoch: Option<u64>| {
            let mut stream = EncodedStream::new();
            for i in 0..24 {
                let report = client.report((i * 7) % 64, &mut rng).unwrap();
                match epoch {
                    Some(e) => stream.push_epoch(&report, e),
                    None => stream.push(&report),
                }
            }
            stream
        };
        let ingest = |version: u8, stream: EncodedStream| {
            leader
                .ingest_batch(version, stream.len() as u64, stream.as_bytes())
                .unwrap();
        };
        ingest(crate::wire::VERSION, batch(None));
        ingest(VERSION_EPOCH, batch(Some(0)));
        assert_eq!(leader.seal_epoch().unwrap(), 0);
        ingest(VERSION_EPOCH, batch(Some(1)));
        leader.checkpoint().unwrap();
        leader.sync().unwrap();

        let leader_log = log_of(&leader_dir);
        let kind = |r: &WalRecord| match r {
            WalRecord::Frames { .. } => 'F',
            WalRecord::Seal { .. } => 'S',
            WalRecord::Checkpoint { .. } => 'C',
        };
        assert_eq!(leader_log.iter().map(kind).collect::<String>(), "FFSFC");
        follower.apply_replicated_batch(&leader_log).unwrap();
        follower.sync().unwrap();

        assert_eq!(log_of(&follower_dir), leader_log);
        let (ours, theirs) = (
            follower.refresh_snapshot().unwrap(),
            leader.refresh_snapshot().unwrap(),
        );
        assert_eq!(ours.num_reports(), theirs.num_reports());
        let bits = |s: &RangeSnapshot| -> Vec<u64> {
            let freqs = s.estimate().frequencies();
            freqs.iter().map(|f| f.to_bits()).collect()
        };
        assert_eq!(bits(&ours), bits(&theirs));

        // A stale tag mid-run stops the run at that record: the records
        // before it are applied and logged, it and the rest are not.
        let stale = WalRecord::Frames {
            wire_version: VERSION_EPOCH,
            count: 24,
            frames: batch(Some(0)).as_bytes().to_vec(),
        };
        let good = leader_log[3].clone();
        let run = [good.clone(), stale, good.clone()];
        assert!(matches!(
            follower.apply_replicated_batch(&run),
            Err(ServiceError::BadFrame { index: 0, .. })
        ));
        follower.sync().unwrap();
        let mut expected = leader_log;
        expected.push(good);
        assert_eq!(log_of(&follower_dir), expected);
        assert_eq!(follower.num_reports(), 4 * 24);

        drop((leader, follower));
        std::fs::remove_dir_all(&leader_dir).unwrap();
        std::fs::remove_dir_all(&follower_dir).unwrap();
    }
}
