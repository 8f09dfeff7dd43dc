//! The live service front: concurrent ingestion with snapshot-isolated
//! query serving.
//!
//! [`LdpService`] wires the pieces together for long-running use:
//!
//! * **Ingestion** — each shard sits behind its own mutex; submitters
//!   pick a shard round-robin, so writers contend only `1/num_shards` of
//!   the time and the service can absorb traffic from many threads at
//!   once. Batches are **all-or-nothing** and absorbed *in place*: the
//!   happy path touches only the counters its reports increment, and a
//!   batch that fails at frame `k` is rolled back by subtracting the
//!   absorbed prefix back out (`absorb_all_or_nothing`) — exact, because
//!   every mechanism's state is integer sufficient statistics. This
//!   module is the only one that knows how frames become state: wire
//!   bytes stream into a shard through `absorb_frames`, and every
//!   backend — in-memory, durable, follower, recovery replay — goes
//!   through it.
//! * **Query serving** — readers never touch shard state. They clone an
//!   `Arc` to the latest published [`RangeSnapshot`] and answer queries
//!   lock-free against that immutable snapshot.
//! * **Publication** — the service's state is one *accumulator*, and
//!   each shard holds only its undrained delta: what it absorbed since it
//!   was last drained. [`LdpService::refresh_snapshot`] drains every
//!   shard that holds reports — under that shard's lock, one pass adds
//!   each of the shard's statistics into the accumulator and zeroes it
//!   in place ([`SubtractableServer::drain`]) —
//!   then publishes *outside* any shard lock, as integer prefix tables
//!   ([`crate::snapshot`]), and atomically swaps the published snapshot
//!   with a bumped version. The whole refresh runs on the calling
//!   thread: drain, then table build.
//!   Integer sufficient statistics make the accumulator bit-identical to
//!   one server absorbing every report. A refresh when nothing was
//!   drained since the last publish builds nothing: it returns the
//!   already-published `Arc` and the version stays put.
//!
//! Queries therefore keep answering — at a bounded staleness — while
//! ingestion continues, which is the contract industry aggregation
//! pipelines provide.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::time::Instant;

use ldp_freq_oracle::FrequencyOracle;
use ldp_ranges::{MergeableServer, PersistableServer, PrefixTables, SubtractableServer};

use crate::error::ServiceError;
use crate::obs::instruments::{ServiceInstruments, ShardInstruments, WindowInstruments};
use crate::obs::MetricsRegistry;
use crate::snapshot::{RangeSnapshot, SnapshotSource};
use crate::window::{EpochRing, WindowedSnapshot};
use crate::wire::{decode_frame, WireReport, VERSION_EPOCH};

/// The largest domain an OLH level of a served server may have. OLH
/// decodes a report by hashing every item to find its support, so one
/// absorb costs `O(D)` on the ingest path. On a 2-vCPU Intel Xeon VM
/// (release build, e^ε = 3) one OLH absorb at 2^10 items costs ≈ 3.8 µs
/// (`cargo bench -p ldp-bench --bench oracles`, group
/// `oracle_absorb_one_report`), and ≈ 283 µs at 2^16 — against ≈ 0.1 µs
/// for an HRR report at 2^16. HRR serves the larger domains.
pub const MAX_OLH_DOMAIN: usize = 1 << 10;

/// Refuses a prototype the service does not serve: one whose levels use
/// SUE, or OLH over more than [`MAX_OLH_DOMAIN`] items. Every service
/// is built through [`LdpService::with_recovered`], which calls this;
/// a durable service also calls it before it touches its directory.
pub(crate) fn check_served<S: SnapshotSource>(prototype: &S) -> Result<(), ServiceError> {
    match prototype.level_oracle() {
        (FrequencyOracle::Sue, _) => Err(ServiceError::SueNotServed),
        (FrequencyOracle::Olh, domain) if domain > MAX_OLH_DOMAIN => {
            Err(ServiceError::OlhDomainOverCap(domain))
        }
        _ => Ok(()),
    }
}

// The service's resolved instrument handles (shard tier: the per-shard
// absorb paths run inside this type; service tier: snapshot publication).
struct ServiceObs {
    shard: ShardInstruments,
    service: ServiceInstruments,
}

/// What the refresh mutex guards: the accumulator and, on a windowed
/// service, the frozen trailing windows.
struct Publication<S> {
    /// Everything drained out of the shards so far — with the shards'
    /// undrained deltas, the service's whole state. On a windowed service
    /// it alone holds sealed epochs: a seal drains every shard first.
    acc: S,
    /// Whether `acc` changed (a drain, by whoever ran it, or a seal)
    /// since the published snapshot was frozen from it.
    stale: bool,
    /// Frozen trailing windows keyed by the number of sealed epochs they
    /// cover — clamped to what the accumulator ring retains, so never more than
    /// `window_len` entries whatever `k` a query names. Sealed epochs are
    /// immutable, so an entry stays exact until the next seal, which
    /// clears the map.
    windows: BTreeMap<usize, WindowedSnapshot>,
    /// Seals so far: a window extracted under one value is cached only
    /// if no seal intervened before its freeze finished.
    seals: u64,
    /// The snapshot the last publish replaced. The next publish rebuilds
    /// its tables in place if no reader still holds it by then.
    retired: Option<Arc<RangeSnapshot>>,
}

impl<S: SnapshotSource> Publication<S> {
    /// Publishes the accumulator as prefix tables, rebuilt over the
    /// retired snapshot's tables only when `Arc::try_unwrap` shows this
    /// is its last holder; a snapshot a reader still holds is dropped
    /// here and never written, and the publish allocates afresh.
    fn freeze(&mut self, version: u64) -> Result<RangeSnapshot, ServiceError> {
        let spare = self
            .retired
            .take()
            .and_then(|s| Arc::try_unwrap(s).ok())
            .and_then(RangeSnapshot::into_tables)
            .unwrap_or_default();
        let tables = self.acc.publish_into(spare)?;
        Ok(RangeSnapshot::from_tables(
            tables,
            self.acc.num_reports(),
            version,
        ))
    }
}

/// A sharded LDP aggregation service with snapshot-isolated reads.
pub struct LdpService<S: SnapshotSource> {
    /// Each shard holds what it absorbed since its last drain.
    shards: Vec<Mutex<S>>,
    /// `acc.num_reports()`, stored by every drain under the drained
    /// shard's lock, so [`LdpService::num_reports`] reads it without
    /// waiting on the refresh guard. `Relaxed` suffices: it publishes no
    /// other data, and the shard mutexes order it against shard counts.
    acc_reports: AtomicU64,
    next_shard: AtomicUsize,
    published: RwLock<Arc<RangeSnapshot>>,
    /// Serializes drains and refreshes end to end (drain → estimate →
    /// publish) so a slow refresher can never overwrite a newer snapshot
    /// with staler data, and holds the accumulator; readers stay
    /// lock-free on `published`.
    refresh: Mutex<Publication<S>>,
    /// Telemetry handles, attached at most once
    /// ([`LdpService::attach_metrics`]); unattached, every hot path pays
    /// one `OnceLock` load and nothing else.
    obs: OnceLock<ServiceObs>,
    /// Window-tier handles for the lockstep seal sweep
    /// (`attach_window_metrics`; meaningful only for windowed backends).
    window_obs: OnceLock<Arc<WindowInstruments>>,
}

/// Locks a mutex, surfacing poisoning as a typed error instead of a
/// panic: one panicked writer must degrade the service, not cascade.
fn lock<'a, T>(mutex: &'a Mutex<T>, what: &'static str) -> Result<MutexGuard<'a, T>, ServiceError> {
    mutex.lock().map_err(|_| ServiceError::LockPoisoned(what))
}

/// Locks a mutex, recovering the guard from a poisoned lock — the crate's
/// one poison-tolerant lock, for state a panicking holder cannot leave
/// half-written (registries, mailboxes, follower tables) and for
/// read-only peeks at a shard.
///
/// Every mechanism's `absorb_deferred` validates its report before it mutates
/// anything, so a shard poisoned by a panic mid-batch holds *whole*
/// reports — but some of them may still be pending in a unary oracle's
/// staged rows or bit planes, not settled into its counts. Statistics
/// settle when read, not at batch end, so that holds of any shard, and
/// its pending reports may span many batches. That is why
/// the shard peeks through here read only [`LdpService::num_reports`]
/// (which counts pending reports whole) and [`LdpService::current_epoch`] — never
/// counts, estimates or persisted state — plus the telemetry attach,
/// which writes only instrument handles. What the panic costs is that one
/// batch's all-or-nothing (its absorbed prefix stays in), and every other
/// path to that shard — writers, refreshes, merged state, checkpoints —
/// gets [`ServiceError::LockPoisoned`] from [`lock`] instead of building
/// on it.
pub(crate) fn lock_infallible<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs a batch against `shard` **in place**, all-or-nothing: `run`
/// absorbs the batch's reports in order, deferred, and stops at the first
/// malformed or rejected frame. On `Ok` nothing else happens — the happy
/// path does no O(state) work and settles nothing, so the batch's reports
/// may stay pending in the shard until a drain reads them. On `Err` the
/// absorbed prefix is rolled back by exact subtraction: the shard is
/// settled ([`ldp_ranges::MergeableServer::settle`]), then an aligned
/// zero (`shard` cloned and cleared, which keeps an [`EpochRing`]'s
/// epoch layout) replays the batch — failing at the same frame, since
/// decoding and every `absorb` check depend on the bytes and the
/// configuration, never on the counts — is settled in turn and is
/// subtracted back out of the shard. So the rollback's clone, replay and
/// subtraction all see settled state. Integer sufficient statistics make
/// that the bit-identical inverse, so the shard is left exactly as it was
/// found, up to settling, and `run`'s error is returned.
///
/// The rollback always pays its clone, clear and subtraction, even when
/// the batch failed at frame 0 and nothing was absorbed: rolling back an
/// empty prefix is exact, and only the offending client pays for it, so
/// there is deliberately no second exit for that case.
///
/// The caller holds whatever lock guards `shard` across the call, so no
/// reader observes the prefix.
///
/// # Errors
///
/// `run`'s own error after a successful rollback. A failing rollback
/// subtraction is returned instead; it is impossible here, because
/// [`SnapshotSource::absorb_tagged`] never changes a shard's layout (it
/// does not auto-seal a ring).
fn absorb_all_or_nothing<S: SubtractableServer, T>(
    shard: &mut S,
    mut run: impl FnMut(&mut S) -> Result<T, ServiceError>,
) -> Result<T, ServiceError> {
    let rejected = match run(shard) {
        Ok(done) => return Ok(done),
        Err(e) => e,
    };
    shard.settle();
    let mut prefix = shard.clone();
    prefix.clear();
    // The replay's outcome is the rejection already in hand.
    let _ = run(&mut prefix);
    prefix.settle();
    shard.subtract(&prefix)?;
    Err(rejected)
}

/// How frames become state — the **only** place a FRAMES payload
/// (back-to-back raw wire frames, declared `count`) is turned into shard
/// contents. Each frame is decoded from its borrowed subslice of `frames`
/// ([`crate::wire::for_each_frame`]) and absorbed into `shard` at once
/// ([`SnapshotSource::absorb_tagged`]: an epoch ring checks a v2 tag
/// against its open epoch, an all-time server ignores it), so the batch
/// is never materialized, and the whole payload lands all-or-nothing
/// ([`absorb_all_or_nothing`]). Frames are absorbed deferred, and an
/// accepted batch settles nothing: statistics settle when read, not at
/// batch end, so the batch's reports may stay pending in the shard —
/// across later batches too — until a drain spills them into the
/// accumulator. Only a rejected batch settles, before its rollback. Live
/// ingest ([`LdpService::submit_wire_batch`], and through it the durable
/// store and a follower's re-apply) and both recovery replays call this
/// one function, so they accept and reject exactly the same bytes.
///
/// Returns the number of frames absorbed (always `count` on success).
///
/// # Errors
///
/// A malformed or rejected frame, or a count/payload mismatch, surfaces
/// as [`ServiceError::BadFrame`] with the offending index (with
/// [`ServiceError::EpochMismatch`] as the source for a stale or future
/// tag); `shard` is unchanged on error.
pub(crate) fn absorb_frames<S>(
    shard: &mut S,
    wire_version: u8,
    count: u64,
    frames: &[u8],
) -> Result<u64, ServiceError>
where
    S: SnapshotSource,
    S::Report: WireReport,
{
    absorb_all_or_nothing(shard, |shard| {
        crate::wire::for_each_frame(wire_version, count, frames, |epoch, report| {
            shard.absorb_tagged(epoch, report)
        })
    })
}

impl<S: SnapshotSource> LdpService<S> {
    /// Builds the service with `num_shards` shards cloned from the empty
    /// `prototype`; the initial published snapshot (version 0) is the
    /// prototype's empty-state estimate. Note that for the tree and Haar
    /// mechanisms an *empty* server estimates the uniform distribution
    /// with total mass pinned to 1 (their root/scaling coefficient is
    /// exact by construction), not all zeros — readers that must
    /// distinguish "no data yet" from real results should check
    /// [`RangeSnapshot::num_reports`] (0) or
    /// [`RangeSnapshot::version`] (0).
    ///
    /// # Errors
    ///
    /// Rejects `num_shards == 0`, and a prototype the service does not
    /// serve: SUE levels ([`ServiceError::SueNotServed`]) or OLH over
    /// more than [`MAX_OLH_DOMAIN`] items
    /// ([`ServiceError::OlhDomainOverCap`]).
    pub fn new(prototype: &S, num_shards: usize) -> Result<Self, ServiceError> {
        Self::with_recovered(prototype.clone(), prototype, num_shards)
    }

    /// Builds the service around `recovered` state as its accumulator,
    /// with `num_shards` shards cloned from `empty` — how the durable
    /// storage layer ([`crate::storage::DurableService`]) reopens a
    /// service after crash recovery. Because merging is exact, every
    /// merged view (snapshots, `num_reports`) is bit-identical to the
    /// pre-crash one. The initial published snapshot (version 0) is
    /// published from the recovered state, settled once first: a replay
    /// absorbs deferred.
    ///
    /// For windowed backends `empty` must be epoch-aligned with
    /// `recovered` (see [`EpochRing::aligned_empty`]), or draining a
    /// shard will reject the misalignment.
    ///
    /// # Errors
    ///
    /// As [`LdpService::new`], and a recovered state whose statistics
    /// are too large for exact prefix tables, as
    /// [`LdpService::refresh_snapshot`] refuses it.
    pub fn with_recovered(
        recovered: S,
        empty: &S,
        num_shards: usize,
    ) -> Result<Self, ServiceError> {
        check_served(empty)?;
        if num_shards == 0 {
            return Err(ServiceError::NoShards);
        }
        let mut recovered = recovered;
        recovered.settle();
        let tables = recovered.publish_into(PrefixTables::default())?;
        let initial = Arc::new(RangeSnapshot::from_tables(
            tables,
            recovered.num_reports(),
            0,
        ));
        Ok(Self {
            shards: (0..num_shards).map(|_| Mutex::new(empty.clone())).collect(),
            acc_reports: AtomicU64::new(recovered.num_reports()),
            next_shard: AtomicUsize::new(0),
            published: RwLock::new(initial),
            refresh: Mutex::new(Publication {
                acc: recovered,
                stale: false,
                windows: BTreeMap::new(),
                seals: 0,
                retired: None,
            }),
            obs: OnceLock::new(),
            window_obs: OnceLock::new(),
        })
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Attaches shard- and service-tier telemetry from the shared
    /// `registry`: batch absorb wall time, accepted/rejected frame
    /// counts, snapshot refresh latency, and the published version gauge.
    /// First attachment wins (returns `false` if already attached);
    /// unattached services carry zero instrumentation cost.
    pub fn attach_metrics(&self, registry: &MetricsRegistry) -> bool {
        self.obs
            .set(ServiceObs {
                shard: ShardInstruments::register(registry),
                service: ServiceInstruments::register(registry),
            })
            .is_ok()
    }

    /// Absorbs one decoded report into the next shard (round-robin).
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches from the mechanism.
    pub fn submit(&self, report: &S::Report) -> Result<(), ServiceError> {
        self.submit_tagged(None, report)
    }

    /// Decodes one wire frame and absorbs it. The buffer must hold
    /// exactly one frame — trailing bytes (a second concatenated frame, a
    /// partial next report) are an error, never silently dropped.
    ///
    /// # Errors
    ///
    /// Propagates wire and mechanism errors.
    pub fn submit_frame(&self, frame: &[u8]) -> Result<(), ServiceError>
    where
        S::Report: WireReport,
    {
        let (report, used) = decode_frame::<S::Report>(frame)?;
        if used != frame.len() {
            return Err(crate::error::WireError::Malformed("trailing bytes after frame").into());
        }
        self.submit(&report)
    }

    /// The shared tail of the single-report submits: absorbs one report,
    /// with its optional epoch tag, deferred into the next round-robin
    /// shard, where it stays pending until a drain reads it. A rejected
    /// report changes nothing, so nothing is rolled back or settled.
    fn submit_tagged(&self, epoch: Option<u64>, report: &S::Report) -> Result<(), ServiceError> {
        let result = self.on_next_shard(|shard| shard.absorb_tagged(epoch, report));
        if let Some(obs) = self.obs.get() {
            match &result {
                Ok(()) => obs.shard.frames_accepted.incr(),
                Err(_) => obs.shard.frames_rejected.incr(),
            }
        }
        result
    }

    /// Locks the next round-robin shard and runs one state change
    /// against it.
    fn on_next_shard<T>(
        &self,
        change: impl FnOnce(&mut S) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        let k = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        change(&mut *lock(&self.shards[k], "shard")?)
    }

    /// Absorbs a REPORT batch straight from its raw wire bytes into one
    /// round-robin shard, **all-or-nothing** (`absorb_frames`): the
    /// frames are absorbed into the locked shard in place, and if one is
    /// malformed or rejected the absorbed prefix is subtracted back out
    /// before the lock drops, so a rejected batch can be retried or
    /// discarded without double-counting. This is the transactional unit
    /// the network front end ([`crate::net::LdpServer`]) acks per REPORT
    /// message, and the one ingest path of every backend: the durable
    /// store and a replication follower call it under their order lock.
    ///
    /// Epoch tags (v2 frames) are checked against the open epoch on a
    /// windowed service — a stale straggler anywhere in the batch rejects
    /// it — and ignored on an all-time one.
    ///
    /// Because every mechanism's state is an integer sum, an accepted
    /// batch leaves state bit-identical to absorbing the same frames
    /// through [`LdpService::submit_frame`] one at a time, and a rejected
    /// one leaves it bit-identical to never having been submitted.
    ///
    /// Returns the number of frames absorbed (always `count` on success).
    ///
    /// # Errors
    ///
    /// A malformed or rejected frame surfaces as
    /// [`ServiceError::BadFrame`] with its batch index (with
    /// [`ServiceError::EpochMismatch`] as the source for stale or future
    /// tags); state is unchanged on error.
    pub fn submit_wire_batch(
        &self,
        wire_version: u8,
        count: u64,
        frames: &[u8],
    ) -> Result<u64, ServiceError>
    where
        S::Report: WireReport,
    {
        if count == 0 && frames.is_empty() {
            return Ok(0);
        }
        let started = self.obs.get().map(|_| Instant::now());
        let result = self.on_next_shard(|shard| absorb_frames(shard, wire_version, count, frames));
        if let (Some(obs), Some(started)) = (self.obs.get(), started) {
            obs.shard.absorb_ns.record_elapsed(started);
            match &result {
                Ok(absorbed) => obs.shard.frames_accepted.add(*absorbed),
                // Bounded by what the payload could physically hold (the
                // smallest frame is 5 bytes), so a lying count cannot
                // inflate an operator-visible counter.
                Err(_) => obs
                    .shard
                    .frames_rejected
                    .add(count.min(frames.len() as u64 / 5)),
            }
        }
        result
    }

    /// Total reports in the service right now: the accumulator plus every
    /// shard's undrained delta (racy by nature while writers are active;
    /// exact when quiesced). Every shard lock is held at once, taken in
    /// index order, while the accumulator total is read: a drain moves a
    /// shard's reports into that total under the shard's lock, so no
    /// drained batch is counted twice or missed.
    #[must_use]
    pub fn num_reports(&self) -> u64 {
        let shards: Vec<_> = self.shards.iter().map(lock_infallible).collect();
        shards.iter().map(|s| s.num_reports()).sum::<u64>()
            + self.acc_reports.load(Ordering::Relaxed)
    }

    /// The most recently published snapshot (lock-free once cloned).
    /// Poisoning is recovered from: the published slot only ever holds a
    /// whole `Arc`, so it is consistent even if a publisher panicked.
    #[must_use]
    pub fn snapshot(&self) -> Arc<RangeSnapshot> {
        Arc::clone(
            &self
                .published
                .read()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// Brings the published snapshot up to date with current shard state
    /// and returns it. Every shard holding reports is drained into the
    /// accumulator under its own lock, in one pass that adds each of the
    /// shard's statistics into the accumulator and zeroes it
    /// ([`SubtractableServer::drain`]); estimation runs with no shard
    /// lock held. Integer sufficient statistics make the accumulator
    /// bit-identical to one server absorbing every report in order (the
    /// `delta_refresh` proptest pins this for the three served mechanisms
    /// against such a one-shard reference).
    ///
    /// **Publish.** Every served mechanism publishes integer prefix
    /// tables, built in one pass over the accumulator's statistics
    /// ([`crate::snapshot`]). The registry's `service.freeze_ns` times
    /// that table build, and `service.drain_ns` the drain before it. Both
    /// run on the calling thread; a refresh starts no thread.
    ///
    /// **Version contract.** The version increases iff the published
    /// content changed: a refresh publishes under the next version iff
    /// anything was drained since the last publish — by this
    /// refresh, by [`LdpService::merged_state`], or by a seal, which also
    /// marks the snapshot stale. Otherwise the refresh builds nothing,
    /// publishes nothing, and returns that same `Arc` (`Arc::ptr_eq` with
    /// the previous return), so a query that finds nothing new costs a
    /// few lock round trips. A rejected batch rolls back to a shard with
    /// zero reports, so it never costs a re-estimate either.
    ///
    /// # Errors
    ///
    /// Propagates merge failures (impossible for shards built by
    /// [`LdpService::new`]), and refuses statistics too large for exact
    /// prefix tables (a restored state near the integer limits) with
    /// [`ldp_freq_oracle::OracleError::StatisticOverflow`] inside
    /// [`ServiceError::Range`], publishing nothing.
    pub fn refresh_snapshot(&self) -> Result<Arc<RangeSnapshot>, ServiceError> {
        // Serialize the whole drain → estimate → publish sequence;
        // without this, a refresher that drained earlier (staler data)
        // could publish after — and overwrite — a fresher snapshot.
        let mut guard = lock(&self.refresh, "refresh")?;
        let timer = self.obs.get().map(|obs| (obs, Instant::now()));
        let published = self.snapshot();
        let drained = self.drain(&mut guard)?;
        let clean = !guard.stale;
        let snap = if clean {
            published
        } else {
            let frozen = timer.map(|(obs, started)| {
                obs.service.drain_ns.record_elapsed(started);
                (obs, Instant::now())
            });
            let snap = Arc::new(guard.freeze(published.version() + 1)?);
            if let Some((obs, frozen)) = frozen {
                obs.service.freeze_ns.record_elapsed(frozen);
            }
            guard.stale = false;
            let replaced = std::mem::replace(
                &mut *self
                    .published
                    .write()
                    .unwrap_or_else(PoisonError::into_inner),
                Arc::clone(&snap),
            );
            guard.retired = Some(replaced);
            snap
        };
        if let Some((obs, started)) = timer {
            obs.service.refresh_ns.record_elapsed(started);
            obs.service.refreshes.incr();
            obs.service.snapshot_version.set(snap.version());
            obs.service.refresh_shards_drained.add(drained as u64);
            if clean {
                obs.service.refreshes_clean.incr();
            }
        }
        Ok(snap)
    }

    /// Drains every shard holding reports into the accumulator; returns
    /// how many were drained. An empty shard costs one lock round trip.
    fn drain(&self, publication: &mut Publication<S>) -> Result<usize, ServiceError> {
        let mut drained = 0;
        for shard in &self.shards {
            let mut shard = lock(shard, "shard")?;
            drained += usize::from(self.drain_shard(publication, &mut shard)?);
        }
        Ok(drained)
    }

    /// Moves one locked shard into the accumulator, if it holds any
    /// reports: one add-and-zero pass ([`SubtractableServer::drain`]),
    /// no copy. Runs under the shard's lock, so the accumulator total
    /// that [`LdpService::num_reports`] reads moves with the shard's
    /// reports.
    fn drain_shard(
        &self,
        publication: &mut Publication<S>,
        shard: &mut S,
    ) -> Result<bool, ServiceError> {
        if shard.num_reports() == 0 {
            return Ok(false);
        }
        publication.acc.drain(shard)?;
        publication.stale = true;
        self.acc_reports
            .store(publication.acc.num_reports(), Ordering::Relaxed);
        Ok(true)
    }

    /// The service's whole state in one server — exactly the state a
    /// single sequential server absorbing the same reports would hold:
    /// every shard is drained and the accumulator cloned, under the
    /// refresh guard, so the returned state never straddles an epoch
    /// boundary.
    ///
    /// # Errors
    ///
    /// Merge failures are impossible for shards built by
    /// [`LdpService::new`]; lock poisoning surfaces as
    /// [`ServiceError::LockPoisoned`].
    pub fn merged_state(&self) -> Result<S, ServiceError> {
        self.with_merged(S::clone)
    }

    /// Drains every shard and hands the accumulator to `read` under the
    /// refresh guard — what [`LdpService::merged_state`] clones and a
    /// durable checkpoint serializes in place.
    fn with_merged<T>(&self, read: impl FnOnce(&S) -> T) -> Result<T, ServiceError> {
        let mut guard = lock(&self.refresh, "refresh")?;
        self.drain(&mut guard)?;
        Ok(read(&guard.acc))
    }
}

/// The windowed streaming front: the accumulator and every shard hold an
/// [`EpochRing`], so the service ingests into the open epoch, seals
/// epochs in lockstep across the rings, and answers sliding-window
/// queries while reports keep arriving. [`LdpService::refresh_snapshot`] on a windowed service
/// publishes the *trailing-window* estimate (retained sealed epochs plus
/// the open one), not the all-time population.
impl<S> LdpService<EpochRing<S>>
where
    S: SnapshotSource,
{
    /// Builds a windowed service: `num_shards` shards, each an epoch ring
    /// retaining `window_len` sealed epochs. Shard rings use manual
    /// sealing only (driven by [`LdpService::seal_epoch`]) so they stay
    /// epoch-aligned.
    ///
    /// # Errors
    ///
    /// As [`LdpService::new`], plus `window_len == 0`.
    pub fn windowed(
        prototype: &S,
        num_shards: usize,
        window_len: usize,
    ) -> Result<Self, ServiceError> {
        let ring = EpochRing::new(prototype, window_len)?;
        Self::new(&ring, num_shards)
    }

    /// Id of the epoch currently open for ingestion.
    #[must_use]
    pub fn current_epoch(&self) -> u64 {
        lock_infallible(&self.shards[0]).current_epoch()
    }

    /// Attaches window-tier telemetry from the shared `registry`: the
    /// lockstep seal sweep's latency and count are recorded here, the
    /// rotation subtract inside the accumulator's [`EpochRing`] — the
    /// only ring that retires reports, since shard rings hold no sealed
    /// data. First attachment wins.
    pub fn attach_window_metrics(&self, registry: &MetricsRegistry) -> bool {
        let instruments = Arc::new(WindowInstruments::register(registry));
        lock_infallible(&self.refresh)
            .acc
            .set_instruments(Arc::clone(&instruments));
        self.window_obs.set(instruments).is_ok()
    }

    /// Seals the open epoch and returns its id. Each shard is drained and
    /// its ring sealed under one hold of its lock, so shard rings never
    /// hold sealed data; then the accumulator seals the epoch it now
    /// holds whole. Holds the refresh lock for the whole sweep so a
    /// concurrent [`LdpService::refresh_snapshot`] or
    /// [`LdpService::window_snapshot`] never observes half-sealed
    /// (epoch-misaligned) rings.
    ///
    /// Boundary semantics for concurrent submitters: an *untagged* (v1)
    /// report racing the seal lands on one side of the boundary or the
    /// other; a *tagged* (v2) report racing the seal may be routed to a
    /// shard that has already advanced and be rejected with
    /// [`ServiceError::EpochMismatch`] — rejection, not misplacement, is
    /// the designed failure mode, and the producer resubmits under the
    /// new epoch id (or untagged).
    ///
    /// # Errors
    ///
    /// Impossible for shards built by [`LdpService::windowed`]; an error
    /// indicates corrupted state.
    pub fn seal_epoch(&self) -> Result<u64, ServiceError> {
        let mut guard = lock(&self.refresh, "refresh")?;
        let started = self.window_obs.get().map(|_| Instant::now());
        // Every trailing window gains an epoch (and may lose one), so the
        // frozen windows go and the published snapshot is stale.
        // Invalidated up front: a sweep that fails half way must not
        // leave either behind.
        guard.windows.clear();
        guard.seals += 1;
        guard.stale = true;
        for shard in &self.shards {
            let mut shard = lock(shard, "shard")?;
            self.drain_shard(&mut guard, &mut *shard)?;
            let id = shard.seal_epoch()?;
            debug_assert_eq!(id, guard.acc.current_epoch(), "shards sealed out of step");
        }
        let sealed = guard.acc.seal_epoch()?;
        self.acc_reports
            .store(guard.acc.num_reports(), Ordering::Relaxed);
        if let (Some(obs), Some(started)) = (self.window_obs.get(), started) {
            obs.seal_ns.record_elapsed(started);
            obs.epochs_sealed.incr();
        }
        Ok(sealed)
    }

    /// Decodes one wire frame — v1 (epoch-less) or v2 (epoch-tagged) —
    /// and absorbs it into the open epoch. A v2 tag naming any epoch
    /// other than the open one is rejected: a stale straggler must not be
    /// silently folded into the wrong window. This includes tagged frames
    /// racing a concurrent [`LdpService::seal_epoch`] (see its boundary
    /// semantics) — resubmit under the fresh epoch id.
    ///
    /// # Errors
    ///
    /// Propagates wire and mechanism errors;
    /// [`ServiceError::EpochMismatch`] for stale or future tags.
    pub fn submit_epoch_frame(&self, frame: &[u8]) -> Result<(), ServiceError>
    where
        S::Report: WireReport,
    {
        let (epoch, report, used) = crate::wire::decode_epoch_frame::<S::Report>(frame)?;
        if used != frame.len() {
            return Err(crate::error::WireError::Malformed("trailing bytes after frame").into());
        }
        self.submit_tagged(epoch, &report)
    }

    /// Alias of [`LdpService::submit_wire_batch`], which already checks
    /// epoch tags on a windowed service; kept for callers that name the
    /// windowed path (the `ldpbench` harness).
    ///
    /// # Errors
    ///
    /// As [`LdpService::submit_wire_batch`].
    pub fn submit_epoch_wire_batch(
        &self,
        wire_version: u8,
        count: u64,
        frames: &[u8],
    ) -> Result<u64, ServiceError>
    where
        S::Report: WireReport,
    {
        self.submit_wire_batch(wire_version, count, frames)
    }

    /// Freezes the trailing `epochs` sealed epochs into an immutable
    /// windowed query handle. Serialized with sealing (see
    /// [`LdpService::seal_epoch`]); queries on the returned snapshot are
    /// lock-free.
    ///
    /// Sealed epochs are immutable, so a trailing window changes only at
    /// a seal: each distinct window is extracted and estimated once, kept
    /// (behind an `Arc`) until the next seal, and handed out again to
    /// every query in between. `epochs` is clamped to what the ring
    /// retains before it keys that cache, so it holds at most
    /// `window_len` entries however large a `k` callers name.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::EmptyWindow`] when `epochs == 0` or no
    /// epoch has been sealed yet.
    pub fn window_snapshot(&self, epochs: usize) -> Result<WindowedSnapshot, ServiceError> {
        // Sealed epochs live only in the accumulator, so the window is
        // extracted from it alone (for the common full-window query, a
        // clone of its running merge), under the refresh guard so a
        // concurrent seal cannot move it. The expensive estimation runs
        // after the guard drops — sealing and snapshot refreshes never
        // wait on it.
        let (server, (first, last), covered, seals) = {
            let guard = lock(&self.refresh, "refresh")?;
            let covered = epochs.min(guard.acc.epochs_retained());
            if let Some(frozen) = guard.windows.get(&covered) {
                return Ok(frozen.clone());
            }
            let bounds = guard
                .acc
                .window_bounds(epochs)
                .ok_or(ServiceError::EmptyWindow)?;
            (
                guard.acc.window_server(epochs)?,
                bounds,
                covered,
                guard.seals,
            )
        };
        let frozen = WindowedSnapshot::from_parts(
            Arc::new(RangeSnapshot::try_freeze(&server, last)?),
            first,
            last,
        );
        let mut guard = lock(&self.refresh, "refresh")?;
        // A seal since the extraction means this window is already
        // history: answer with it, but do not keep it.
        if guard.seals == seals {
            guard.windows.insert(covered, frozen.clone());
        }
        Ok(frozen)
    }

    /// Number of frozen trailing windows currently kept for
    /// [`LdpService::window_snapshot`] — never more than `window_len`,
    /// and 0 right after a seal.
    #[must_use]
    pub fn windows_cached(&self) -> usize {
        lock_infallible(&self.refresh).windows.len()
    }
}

/// A service of either shape behind one handle: an all-time
/// `LdpService<S>` or a windowed `LdpService<EpochRing<S>>`. Every node
/// kind — in-memory, durable, follower, read replica — serves the same
/// snapshot algebra over one of these, so this is the only code in the
/// crate that matches on shape. The epoch operations answer
/// [`ServiceError::NotWindowed`] on an all-time service.
#[derive(Clone)]
pub(crate) enum AnyService<S>
where
    S: SnapshotSource,
{
    Plain(Arc<LdpService<S>>),
    Windowed(Arc<LdpService<EpochRing<S>>>),
}

impl<S> AnyService<S>
where
    S: SnapshotSource,
{
    pub(crate) fn is_windowed(&self) -> bool {
        self.windowed().is_some()
    }

    pub(crate) fn plain(&self) -> Option<&Arc<LdpService<S>>> {
        match self {
            Self::Plain(s) => Some(s),
            Self::Windowed(_) => None,
        }
    }

    pub(crate) fn windowed(&self) -> Option<&Arc<LdpService<EpochRing<S>>>> {
        match self {
            Self::Windowed(s) => Some(s),
            Self::Plain(_) => None,
        }
    }

    /// Attaches service-tier telemetry and, on a windowed service, the
    /// window tier's too. First attachment wins.
    pub(crate) fn attach_metrics(&self, registry: &MetricsRegistry) {
        match self {
            Self::Plain(s) => {
                s.attach_metrics(registry);
            }
            Self::Windowed(s) => {
                s.attach_metrics(registry);
                s.attach_window_metrics(registry);
            }
        }
    }

    /// [`LdpService::submit_wire_batch`]. An all-time service refuses
    /// epoch-tagged (v2) frames: it has no open epoch to check them by.
    pub(crate) fn submit_wire_batch(
        &self,
        wire_version: u8,
        count: u64,
        frames: &[u8],
    ) -> Result<u64, ServiceError>
    where
        S::Report: WireReport,
    {
        match self {
            Self::Plain(_) if wire_version == VERSION_EPOCH => {
                Err(crate::error::WireError::UnsupportedVersion(wire_version).into())
            }
            Self::Plain(s) => s.submit_wire_batch(wire_version, count, frames),
            Self::Windowed(s) => s.submit_wire_batch(wire_version, count, frames),
        }
    }

    pub(crate) fn num_reports(&self) -> u64 {
        match self {
            Self::Plain(s) => s.num_reports(),
            Self::Windowed(s) => s.num_reports(),
        }
    }

    pub(crate) fn snapshot(&self) -> Arc<RangeSnapshot> {
        match self {
            Self::Plain(s) => s.snapshot(),
            Self::Windowed(s) => s.snapshot(),
        }
    }

    pub(crate) fn refresh_snapshot(&self) -> Result<Arc<RangeSnapshot>, ServiceError> {
        match self {
            Self::Plain(s) => s.refresh_snapshot(),
            Self::Windowed(s) => s.refresh_snapshot(),
        }
    }

    /// The merged state ([`LdpService::merged_state`]) serialized in
    /// place, without a copy — what a durable checkpoint writes.
    pub(crate) fn persist_merged(&self) -> Result<Vec<u8>, ServiceError> {
        let mut bytes = Vec::new();
        match self {
            Self::Plain(s) => s.with_merged(|state| state.persist_state(&mut bytes)),
            Self::Windowed(s) => s.with_merged(|state| state.persist_state(&mut bytes)),
        }?;
        Ok(bytes)
    }

    pub(crate) fn seal_epoch(&self) -> Result<u64, ServiceError> {
        self.windowed()
            .ok_or(ServiceError::NotWindowed)?
            .seal_epoch()
    }

    pub(crate) fn window_snapshot(&self, epochs: usize) -> Result<WindowedSnapshot, ServiceError> {
        self.windowed()
            .ok_or(ServiceError::NotWindowed)?
            .window_snapshot(epochs)
    }

    pub(crate) fn current_epoch(&self) -> Result<u64, ServiceError> {
        let ring = self.windowed().ok_or(ServiceError::NotWindowed)?;
        Ok(ring.current_epoch())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_freq_oracle::Epsilon;
    use ldp_ranges::{HaarConfig, HaarHrrClient, HaarHrrServer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn concurrent_ingest_and_query() {
        let config = HaarConfig::new(64, Epsilon::from_exp(3.0)).unwrap();
        let client = HaarHrrClient::new(config.clone()).unwrap();
        let prototype = HaarHrrServer::new(config).unwrap();
        let service = LdpService::new(&prototype, 4).unwrap();
        assert_eq!(service.num_shards(), 4);
        assert_eq!(service.snapshot().version(), 0);

        let writers = 4u64;
        let per_writer = 2_000u64;
        std::thread::scope(|scope| {
            for w in 0..writers {
                let service = &service;
                let client = &client;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(800 + w);
                    for i in 0..per_writer {
                        let v = 16 + (i as usize % 32);
                        let r = client.report(v, &mut rng).unwrap();
                        service.submit(&r).unwrap();
                    }
                });
            }
            // A reader refreshing and querying while writers run: the
            // snapshot must always be internally consistent.
            let service = &service;
            scope.spawn(move || {
                for _ in 0..20 {
                    let snap = service.refresh_snapshot().unwrap();
                    let total = snap.range(0, 63);
                    assert!((total - 1.0).abs() < 1e-9 || snap.num_reports() == 0);
                    let _ = snap.quantile(0.5);
                }
            });
        });

        assert_eq!(service.num_reports(), writers * per_writer);
        let racing_version = service.snapshot().version();
        let final_snap = service.refresh_snapshot().unwrap();
        assert_eq!(final_snap.num_reports(), writers * per_writer);
        // The version counts publications, not refresh calls: 20 racing
        // refreshes published at most 20 times, and at least once.
        assert!((1..=20).contains(&racing_version));
        assert!(final_snap.version() >= racing_version);
        assert!((final_snap.range(16, 47) - 1.0).abs() < 0.1);
        // Nothing changed since `final_snap`: a clean refresh returns the
        // same `Arc` and the version stays put.
        let clean = service.refresh_snapshot().unwrap();
        assert!(Arc::ptr_eq(&clean, &final_snap));
        assert!(Arc::ptr_eq(&service.snapshot(), &final_snap));
        assert_eq!(clean.version(), final_snap.version());
        // One more report changes the content, so the version moves —
        // and old handles keep answering after newer publications.
        let mut rng = StdRng::seed_from_u64(899);
        service
            .submit(&client.report(20, &mut rng).unwrap())
            .unwrap();
        let newer = service.refresh_snapshot().unwrap();
        assert_eq!(newer.version(), final_snap.version() + 1);
        assert_eq!(newer.num_reports(), writers * per_writer + 1);
        assert_eq!(final_snap.num_reports(), writers * per_writer);
        let _ = final_snap.range(0, 63);
    }
}
