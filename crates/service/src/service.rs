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
//!   lock-free against that immutable freeze.
//! * **Publication** — [`LdpService::refresh_snapshot`] locks shards one
//!   at a time (briefly, to clone), merges the clones, runs the expensive
//!   estimation *outside* any shard lock, and atomically swaps the
//!   published snapshot with a bumped version. Refreshes are *delta*
//!   refreshes: the service retains the merged accumulator between
//!   refreshes and re-clones only shards that absorbed since the last
//!   freeze, swapping each one's previous contribution out by exact
//!   subtraction — bit-identical to the from-scratch clone-and-merge
//!   (integer sufficient statistics), at a cost proportional to the
//!   shards that actually changed. A refresh that finds *no* shard
//!   changed re-estimates nothing: it returns the already-published
//!   `Arc` and the version stays put.
//!
//! Queries therefore keep answering — at a bounded staleness — while
//! ingestion continues, which is the contract industry aggregation
//! pipelines provide.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::time::Instant;

use ldp_ranges::{PersistableServer, SubtractableServer};

use crate::error::ServiceError;
use crate::obs::instruments::{ServiceInstruments, ShardInstruments, WindowInstruments};
use crate::obs::MetricsRegistry;
use crate::snapshot::{RangeSnapshot, SnapshotSource};
use crate::window::{EpochRing, WindowedSnapshot};
use crate::wire::{decode_frame, WireReport, VERSION_EPOCH};

// The service's resolved instrument handles (shard tier: the per-shard
// absorb paths run inside this type; service tier: snapshot publication).
struct ServiceObs {
    shard: ShardInstruments,
    service: ServiceInstruments,
}

/// State carried from one snapshot refresh to the next so a refresh can
/// merge *deltas* instead of re-merging every shard from scratch:
/// `merged` always equals the merge of `retained`, and `seen[k]` is the
/// value shard `k`'s dirty counter had when `retained[k]` was cloned.
struct RefreshState<S> {
    merged: S,
    retained: Vec<S>,
    seen: Vec<u64>,
}

/// What the refresh mutex guards: the retained delta-refresh state and,
/// on a windowed service, the frozen trailing windows.
struct Publication<S> {
    /// `None` until the first refresh, and reset by structural changes
    /// (epoch seals).
    delta: Option<RefreshState<S>>,
    /// Frozen trailing windows keyed by the number of sealed epochs they
    /// cover — clamped to what the rings retain, so never more than
    /// `window_len` entries whatever `k` a query names. Sealed epochs are
    /// immutable, so an entry stays exact until the next seal, which
    /// clears the map.
    windows: BTreeMap<usize, WindowedSnapshot>,
    /// Seals so far: a window extracted under one value is cached only
    /// if no seal intervened before its freeze finished.
    seals: u64,
}

/// A sharded LDP aggregation service with snapshot-isolated reads.
pub struct LdpService<S: SnapshotSource> {
    shards: Vec<Mutex<S>>,
    /// Per-shard mutation counters, bumped under the shard lock on every
    /// committed state change; a delta refresh skips any shard whose
    /// counter has not moved since its retained clone was taken.
    dirty: Vec<AtomicU64>,
    next_shard: AtomicUsize,
    published: RwLock<Arc<RangeSnapshot>>,
    version: AtomicU64,
    /// Serializes refreshes end to end (clone → estimate → publish) so a
    /// slow refresher can never overwrite a newer snapshot with staler
    /// data, and holds the state refreshes and windowed queries carry
    /// between calls; readers stay lock-free on `published`.
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

/// Locks a mutex for a read-only peek, recovering from poisoning. Every
/// mechanism's `absorb_deferred` validates its report before it mutates
/// anything, so a shard poisoned by a panic mid-batch holds *whole*
/// reports — but some of them may still be pending in an oracle's bit
/// planes, never settled into its counts. That is why the shard peeks
/// through here read only [`LdpService::num_reports`] (which counts
/// pending reports whole) and [`LdpService::current_epoch`] — never
/// counts, estimates or persisted state — plus the telemetry attach,
/// which writes only instrument handles. What the panic costs is that one
/// batch's all-or-nothing (its absorbed prefix stays in), and every other
/// path to that shard — writers, refreshes, merged state, checkpoints —
/// gets [`ServiceError::LockPoisoned`] from [`lock`] instead of building
/// on it.
fn lock_infallible<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs a batch against `shard` **in place**, all-or-nothing: `run`
/// absorbs the batch's reports in order and stops at the first malformed
/// or rejected frame, and it must leave `shard` settled
/// ([`ldp_ranges::MergeableServer::settle`]) on both outcomes. On `Ok`
/// nothing else happens — the happy path does no O(state) work. On `Err`
/// the absorbed prefix is rolled back by exact subtraction: an aligned
/// zero
/// (`shard − shard`, which keeps an [`EpochRing`]'s epoch layout)
/// replays the batch — failing at the same frame, since decoding and
/// every `absorb` check depend on the bytes and the configuration, never
/// on the counts — and is subtracted back out of the shard. Because
/// `run` settles before it returns, the rollback's clone, replay and
/// subtractions all see settled state. Integer sufficient statistics make
/// that the bit-identical inverse, so the shard is left exactly as it was
/// found and `run`'s error is returned.
///
/// The rollback always pays its two O(state) copies, even when the batch
/// failed at frame 0 and nothing was absorbed: rolling back an empty
/// prefix is exact, and only the offending client pays for it, so there
/// is deliberately no second exit for that case.
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
    let mut prefix = shard.clone();
    prefix.subtract(shard)?;
    // The replay's outcome is the rejection already in hand.
    let _ = run(&mut prefix);
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
/// ([`absorb_all_or_nothing`]). Frames are absorbed deferred, and the
/// shard is settled once, after the last frame or the rejected one —
/// inside the all-or-nothing `run`, so the rollback works on settled
/// state and the shard is settled when the caller's lock drops. Live
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
        let absorbed = crate::wire::for_each_frame(wire_version, count, frames, |epoch, report| {
            shard.absorb_tagged(epoch, &report)
        });
        shard.settle();
        absorbed
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
    /// Rejects `num_shards == 0`.
    pub fn new(prototype: &S, num_shards: usize) -> Result<Self, ServiceError> {
        Self::with_recovered(prototype.clone(), prototype, num_shards)
    }

    /// Builds the service with shard 0 seeded from `recovered` state and
    /// the remaining `num_shards - 1` shards cloned from `empty` — how
    /// the durable storage layer ([`crate::storage::DurableService`])
    /// reopens a service after crash recovery. Because merging is exact,
    /// concentrating the recovered state in one shard leaves every merged
    /// view (snapshots, `num_reports`) bit-identical to the pre-crash
    /// distribution across shards. The initial published snapshot
    /// (version 0) freezes the recovered state.
    ///
    /// For windowed backends `empty` must be epoch-aligned with
    /// `recovered` (see [`EpochRing::aligned_empty`]), or shard merging
    /// will reject the misalignment.
    ///
    /// # Errors
    ///
    /// Rejects `num_shards == 0`.
    pub fn with_recovered(
        recovered: S,
        empty: &S,
        num_shards: usize,
    ) -> Result<Self, ServiceError> {
        if num_shards == 0 {
            return Err(ServiceError::NoShards);
        }
        let initial = Arc::new(RangeSnapshot::freeze(&recovered, 0));
        let mut shards = Vec::with_capacity(num_shards);
        shards.push(Mutex::new(recovered));
        shards.extend((1..num_shards).map(|_| Mutex::new(empty.clone())));
        Ok(Self {
            shards,
            dirty: (0..num_shards).map(|_| AtomicU64::new(0)).collect(),
            next_shard: AtomicUsize::new(0),
            published: RwLock::new(initial),
            version: AtomicU64::new(0),
            refresh: Mutex::new(Publication {
                delta: None,
                windows: BTreeMap::new(),
                seals: 0,
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
    /// with its optional epoch tag, into the next round-robin shard, and
    /// settles it before the lock drops.
    fn submit_tagged(&self, epoch: Option<u64>, report: &S::Report) -> Result<(), ServiceError> {
        let result = self.on_next_shard(|shard| {
            let absorbed = shard.absorb_tagged(epoch, report);
            shard.settle();
            absorbed
        });
        if let Some(obs) = self.obs.get() {
            match &result {
                Ok(()) => obs.shard.frames_accepted.incr(),
                Err(_) => obs.shard.frames_rejected.incr(),
            }
        }
        result
    }

    /// Locks the next round-robin shard and runs one state change against
    /// it; a committed change marks the shard dirty, a refused one does
    /// not (the shard is bit-identical to what the last refresh saw).
    fn on_next_shard<T>(
        &self,
        change: impl FnOnce(&mut S) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        let k = self.next_shard.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let mut shard = lock(&self.shards[k], "shard")?;
        let done = change(&mut shard)?;
        self.dirty[k].fetch_add(1, Ordering::Relaxed);
        Ok(done)
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

    /// Total reports across all shards right now (racy by nature while
    /// writers are active; exact when quiesced).
    #[must_use]
    pub fn num_reports(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| lock_infallible(s).num_reports())
            .sum()
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
    /// and returns it. Shards are locked one at a time only long enough
    /// to clone (or, on the delta path, to read one counter); estimation
    /// runs with no shard lock held.
    ///
    /// Refreshes after the first take the **delta path**: the previous
    /// refresh's merged accumulator is retained, and only shards whose
    /// dirty counter moved since their last clone are re-cloned — each
    /// one's previous contribution is subtracted out and the fresh clone
    /// merged in. Integer sufficient statistics make subtract the exact
    /// inverse of merge and both order-insensitive, so the published
    /// snapshot is bit-identical to a from-scratch clone-and-merge (the
    /// `delta_refresh` proptest pins this for all six mechanisms against
    /// [`LdpService::merged_state`], which shares no state with the
    /// retained accumulator).
    /// Structural changes (epoch seals) reset the retained state, forcing
    /// the next refresh through the full rebuild.
    ///
    /// **Version contract.** The version increases iff the published
    /// content changed. A *clean* refresh — the delta pass found every
    /// shard unchanged since the freeze already published — estimates
    /// nothing, publishes nothing, and returns that same `Arc`
    /// (`Arc::ptr_eq` with the previous return), so a query that finds
    /// nothing new costs a few counter loads. Every refresh that
    /// re-merged anything (a dirty shard, or the full rebuild that the
    /// first refresh and the refresh after a seal take) freezes and
    /// publishes under the next version. Rejected batches roll back
    /// without dirtying their shard, so they never cost a re-estimate
    /// either.
    ///
    /// # Errors
    ///
    /// Propagates merge failures (impossible for shards built by
    /// [`LdpService::new`]).
    pub fn refresh_snapshot(&self) -> Result<Arc<RangeSnapshot>, ServiceError> {
        // Serialize the whole clone → merge → estimate → publish sequence;
        // without this, a refresher that cloned earlier (staler data)
        // could publish after — and overwrite — a fresher snapshot.
        let mut guard = lock(&self.refresh, "refresh")?;
        let started = self.obs.get().map(|_| Instant::now());
        let reused = self.refresh_merged(&mut guard.delta)?;
        let Some(state) = guard.delta.as_ref() else {
            return Err(ServiceError::NoShards);
        };
        // Retained state exists only once its freeze has been published
        // (below, under this guard), so "every shard reused" means the
        // published snapshot already is the freeze of `state.merged`.
        let clean = reused == Some(self.shards.len());
        let snap = if clean {
            self.snapshot()
        } else {
            let version = self.version.fetch_add(1, Ordering::Relaxed) + 1;
            let frozen = self.obs.get().map(|obs| (obs, Instant::now()));
            let snap = Arc::new(RangeSnapshot::freeze(&state.merged, version));
            if let Some((obs, frozen)) = frozen {
                obs.service.freeze_ns.record_elapsed(frozen);
            }
            *self
                .published
                .write()
                .unwrap_or_else(PoisonError::into_inner) = Arc::clone(&snap);
            snap
        };
        if let Some(obs) = self.obs.get() {
            if let Some(started) = started {
                obs.service.refresh_ns.record_elapsed(started);
            }
            obs.service.refreshes.incr();
            obs.service.snapshot_version.set(snap.version());
            match reused {
                Some(n) => {
                    obs.service.refreshes_delta.incr();
                    obs.service.refresh_shards_reused.add(n as u64);
                }
                None => obs.service.refreshes_full.incr(),
            }
            if clean {
                obs.service.refreshes_clean.incr();
            }
        }
        Ok(snap)
    }

    /// Brings the retained refresh state up to date with current shard
    /// contents: the delta path when state is retained, the from-scratch
    /// rebuild otherwise. On `Ok` the guard always holds a state whose
    /// `merged` equals a from-scratch clone-and-merge of every shard, bit
    /// for bit. Returns the number of unchanged shards the delta path
    /// reused (`None` when the full rebuild ran).
    fn refresh_merged(
        &self,
        state: &mut Option<RefreshState<S>>,
    ) -> Result<Option<usize>, ServiceError> {
        // An error mid-delta (impossible for shards built by the
        // constructors) may leave `merged` half-updated: drop the state
        // and rebuild instead of propagating.
        if let Some(reused) = state.as_mut().and_then(|s| self.apply_shard_deltas(s).ok()) {
            return Ok(Some(reused));
        }
        *state = None;
        let mut retained = Vec::with_capacity(self.shards.len());
        let mut seen = Vec::with_capacity(self.shards.len());
        for (shard, dirty) in self.shards.iter().zip(&self.dirty) {
            let locked = lock(shard, "shard")?;
            // Read under the shard lock: the counter is bumped under this
            // same lock, so it exactly matches the cloned contents.
            seen.push(dirty.load(Ordering::Relaxed));
            retained.push(locked.clone());
        }
        let mut merged = retained.first().cloned().ok_or(ServiceError::NoShards)?;
        for shard in &retained[1..] {
            merged.merge(shard)?;
        }
        *state = Some(RefreshState {
            merged,
            retained,
            seen,
        });
        Ok(None)
    }

    /// The delta step: every shard whose dirty counter moved has its
    /// previous contribution subtracted out of the running merge and a
    /// fresh clone merged in (and retained). Unchanged shards cost one
    /// counter load — no clone, no merge. Returns how many were reused.
    fn apply_shard_deltas(&self, state: &mut RefreshState<S>) -> Result<usize, ServiceError> {
        debug_assert_eq!(state.retained.len(), self.shards.len());
        let mut reused = 0;
        for (k, (shard, dirty)) in self.shards.iter().zip(&self.dirty).enumerate() {
            let fresh = {
                let locked = lock(shard, "shard")?;
                let counter = dirty.load(Ordering::Relaxed);
                if counter == state.seen[k] {
                    reused += 1;
                    continue;
                }
                state.seen[k] = counter;
                locked.clone()
            };
            state.merged.subtract(&state.retained[k])?;
            state.merged.merge(&fresh)?;
            state.retained[k] = fresh;
        }
        Ok(reused)
    }

    /// Clones and merges every shard into one server — exactly the state
    /// a single sequential server absorbing the same reports would hold.
    /// Serialized with snapshot refreshes and epoch seals (the refresh
    /// guard), so the returned state never straddles an epoch boundary.
    /// This is what durable checkpoints serialize.
    ///
    /// # Errors
    ///
    /// Merge failures are impossible for shards built by
    /// [`LdpService::new`]; lock poisoning surfaces as
    /// [`ServiceError::LockPoisoned`].
    pub fn merged_state(&self) -> Result<S, ServiceError> {
        let _guard = lock(&self.refresh, "refresh")?;
        let mut merged: Option<S> = None;
        for shard in &self.shards {
            let copy = lock(shard, "shard")?.clone();
            match &mut merged {
                None => merged = Some(copy),
                Some(m) => m.merge(&copy)?,
            }
        }
        merged.ok_or(ServiceError::NoShards)
    }
}

/// The windowed streaming front: every shard holds an [`EpochRing`], so
/// the service ingests into the open epoch, seals epochs in lockstep
/// across shards, and answers sliding-window queries while reports keep
/// arriving. [`LdpService::refresh_snapshot`] on a windowed service
/// publishes the *trailing-window* estimate (retained sealed epochs plus
/// the open one), not the all-time population.
impl<S> LdpService<EpochRing<S>>
where
    S: SnapshotSource + SubtractableServer,
{
    /// Builds a windowed service: `num_shards` shards, each an epoch ring
    /// retaining `window_len` sealed epochs. Shard rings use manual
    /// sealing only (driven by [`LdpService::seal_epoch`]) so they stay
    /// epoch-aligned.
    ///
    /// # Errors
    ///
    /// Rejects `num_shards == 0` and `window_len == 0`.
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
    /// per-ring rotation subtract inside each shard's [`EpochRing`]. One
    /// instrument set is shared by every shard ring — rotation counts
    /// from all shards fan into the same counters, exactly like shard
    /// state fans into one merge. First attachment wins.
    pub fn attach_window_metrics(&self, registry: &MetricsRegistry) -> bool {
        let instruments = Arc::new(WindowInstruments::register(registry));
        for shard in &self.shards {
            lock_infallible(shard).set_instruments(Arc::clone(&instruments));
        }
        self.window_obs.set(instruments).is_ok()
    }

    /// Seals the open epoch on every shard and returns its id. Holds the
    /// refresh lock for the whole sweep so a concurrent
    /// [`LdpService::refresh_snapshot`] or [`LdpService::window_snapshot`]
    /// never observes half-sealed (epoch-misaligned) shards.
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
        // Sealing restructures every shard ring (new open epoch, rotated
        // retention), so the retained delta-refresh clones no longer
        // align — the next refresh rebuilds from scratch — and every
        // trailing window gains an epoch (and may lose one), so the
        // frozen windows go too. Invalidated up front: a sweep that
        // fails half way must not leave either behind.
        guard.delta = None;
        guard.windows.clear();
        guard.seals += 1;
        let mut sealed = None;
        for shard in &self.shards {
            let id = lock(shard, "shard")?.seal_epoch()?;
            debug_assert!(sealed.is_none_or(|s| s == id), "shards sealed out of step");
            sealed = Some(id);
        }
        if let (Some(obs), Some(started)) = (self.window_obs.get(), started) {
            obs.seal_ns.record_elapsed(started);
            obs.epochs_sealed.incr();
        }
        sealed.ok_or(ServiceError::NoShards)
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

    /// Merges the shard rings and freezes the trailing `epochs` sealed
    /// epochs into an immutable windowed query handle. Serialized with
    /// sealing (see [`LdpService::seal_epoch`]); queries on the returned
    /// snapshot are lock-free.
    ///
    /// Sealed epochs are immutable, so a trailing window changes only at
    /// a seal: each distinct window is merged and estimated once, kept
    /// (behind an `Arc`) until the next seal, and handed out again to
    /// every query in between. `epochs` is clamped to what the rings
    /// retain before it keys that cache, so it holds at most `window_len`
    /// entries however large a `k` callers name.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::EmptyWindow`] when `epochs == 0` or no
    /// epoch has been sealed yet.
    pub fn window_snapshot(&self, epochs: usize) -> Result<WindowedSnapshot, ServiceError> {
        // Extract each shard's trailing-window server (for the common
        // full-window query that is a clone of the shard's running merge)
        // under the refresh guard, so a concurrent seal cannot leave the
        // extraction straddling an epoch boundary. Merging and the
        // expensive estimation run after the guard drops — sealing and
        // snapshot refreshes never wait on estimation.
        let (servers, bounds, covered, seals) = {
            let guard = lock(&self.refresh, "refresh")?;
            // Shards seal in lockstep (under this same guard), so every
            // shard retains the same epochs and reports identical bounds.
            let (covered, bounds) = {
                let ring = lock(&self.shards[0], "shard")?;
                (
                    epochs.min(ring.epochs_retained()),
                    ring.window_bounds(epochs),
                )
            };
            if let Some(frozen) = guard.windows.get(&covered) {
                return Ok(frozen.clone());
            }
            let mut servers = Vec::with_capacity(self.shards.len());
            for shard in &self.shards {
                servers.push(lock(shard, "shard")?.window_server(epochs)?);
            }
            (servers, bounds, covered, guard.seals)
        };
        let (first, last) = bounds.ok_or(ServiceError::EmptyWindow)?;
        let mut servers = servers.into_iter();
        let mut merged = servers.next().ok_or(ServiceError::NoShards)?;
        for server in servers {
            merged.merge(&server)?;
        }
        let frozen = WindowedSnapshot::from_parts(
            Arc::new(RangeSnapshot::freeze(&merged, last)),
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
    S: SnapshotSource + SubtractableServer,
{
    Plain(Arc<LdpService<S>>),
    Windowed(Arc<LdpService<EpochRing<S>>>),
}

impl<S> AnyService<S>
where
    S: SnapshotSource + SubtractableServer,
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

    /// The merged state ([`LdpService::merged_state`]) serialized — what
    /// a durable checkpoint writes.
    pub(crate) fn persist_merged(&self) -> Result<Vec<u8>, ServiceError>
    where
        S: PersistableServer,
    {
        let mut bytes = Vec::new();
        match self {
            Self::Plain(s) => s.merged_state()?.persist_state(&mut bytes),
            Self::Windowed(s) => s.merged_state()?.persist_state(&mut bytes),
        }
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
