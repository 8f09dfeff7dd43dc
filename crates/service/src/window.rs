//! Time-windowed streaming aggregation: the epoch ring.
//!
//! The one-shot snapshot path answers "what does the whole population
//! look like" over everything ever absorbed. A long-running service needs
//! the *continuous* variant: "what happened in the last K epochs" while
//! reports keep arriving. [`EpochRing`] provides it on top of two exact
//! algebraic facts about the mechanisms' integer sufficient statistics:
//!
//! * merging per-epoch accumulators is bit-identical to absorbing their
//!   reports into one server ([`MergeableServer`]), and
//! * a previously merged epoch can be removed again, bit-identically
//!   ([`SubtractableServer`]).
//!
//! So the ring keeps one accumulator per epoch plus a *running* merge of
//! every retained epoch. Sealing an epoch merges it into the running
//! state in `O(state)`; once the ring exceeds its window length, the
//! oldest epoch is retired by **subtraction** — also `O(state)` — instead
//! of re-merging the surviving `K − 1` epochs from scratch. Windowed
//! answers are therefore exactly what a from-scratch merge of the same
//! epochs would produce (the `window.rs` integration tests check this
//! bit-for-bit for the three served mechanisms), at a per-rotation cost
//! that does not grow with the window length.
//!
//! ```text
//!        absorb                    seal_epoch            rotation
//!   ─────────────────► current ──────────────► ring ─────────────► retired
//!                        │                      │ merge              │
//!                        ▼                      ▼                    ▼
//!                      (open)              running += epoch   running −= epoch
//! ```
//!
//! Epoch boundaries are *logical*: the owner calls [`EpochRing::seal_epoch`]
//! on whatever cadence defines an epoch (wall-clock ticks, report counts
//! via [`EpochRing::with_epoch_width`], upstream watermarks). The ring
//! itself never consults a clock, which keeps every test deterministic.
//!
//! [`WindowedSnapshot`] freezes any trailing window of sealed epochs into
//! an immutable query handle ([`RangeSnapshot`] plus the epoch interval it
//! covers), so range/prefix/point/quantile queries keep answering while
//! ingestion continues — the continuous-query contract of industry stream
//! aggregation systems.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use ldp_ranges::persist::put_varint;
use ldp_ranges::{
    FrequencyEstimate, MergeableServer, PersistableServer, PrefixTables, RangeError, StateReader,
    SubtractableServer,
};

use crate::error::ServiceError;
use crate::obs::instruments::WindowInstruments;
use crate::snapshot::{RangeSnapshot, SnapshotSource};

/// One sealed epoch: its id and the accumulator of every report absorbed
/// while it was open — `None` if it sealed empty, so an empty epoch (every
/// shard ring's, on a sharded service: a seal drains the shards first)
/// holds no state.
#[derive(Debug, Clone)]
pub struct SealedEpoch<S> {
    id: u64,
    server: Option<S>,
}

impl<S: MergeableServer> SealedEpoch<S> {
    /// The epoch's id (epoch 0 is the first epoch ever opened).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Reports absorbed during this epoch.
    #[must_use]
    pub fn num_reports(&self) -> u64 {
        self.server.as_ref().map_or(0, S::num_reports)
    }

    /// The epoch's frozen accumulator, `None` if it sealed empty.
    #[must_use]
    pub fn server(&self) -> Option<&S> {
        self.server.as_ref()
    }
}

/// A ring of per-epoch accumulators answering sliding-window queries
/// while ingestion continues.
///
/// See the [module docs](self) for the design. The ring retains the last
/// `window_len` *sealed* epochs plus the currently open one; rotation
/// retires the oldest epoch by exact subtraction.
#[derive(Debug, Clone)]
pub struct EpochRing<S: SubtractableServer> {
    /// Empty-state template every new epoch starts from.
    prototype: S,
    /// Sealed epochs still inside the retention window, oldest first.
    ring: VecDeque<SealedEpoch<S>>,
    /// Running merge of every epoch in `ring`, maintained incrementally:
    /// sealing merges the new epoch in, rotation subtracts the retired
    /// epoch out.
    running: S,
    /// The open epoch, absorbing new reports.
    current: S,
    /// Id of the open epoch.
    current_id: u64,
    /// Maximum number of sealed epochs retained.
    window_len: usize,
    /// Auto-seal threshold in reports per epoch; 0 = manual sealing only.
    epoch_width: u64,
    /// Window-tier telemetry, shared with clones (a cloned ring keeps
    /// recording into the same instruments). Not part of the ring's
    /// *state*: excluded from persistence and from merge alignment.
    obs: Option<Arc<WindowInstruments>>,
    /// The live window's sum — `running` plus `current` — as the last
    /// service refresh built it, kept so the next one overwrites it
    /// instead of allocating ([`SnapshotSource::publish_into`]).
    /// Scratch, not state: a clone starts without one, and persistence
    /// and alignment never look at it.
    live: Scratch<S>,
}

/// A kept scratch server; it clones as `None`.
#[derive(Debug)]
struct Scratch<S>(Option<S>);

impl<S> Clone for Scratch<S> {
    fn clone(&self) -> Self {
        Self(None)
    }
}

impl<S: SubtractableServer> EpochRing<S> {
    /// Builds a ring retaining up to `window_len` sealed epochs, sealed
    /// manually via [`EpochRing::seal_epoch`].
    ///
    /// # Errors
    ///
    /// Rejects `window_len == 0` (nothing could ever be queried).
    pub fn new(prototype: &S, window_len: usize) -> Result<Self, ServiceError> {
        if window_len == 0 {
            return Err(ServiceError::EmptyWindow);
        }
        Ok(Self {
            prototype: prototype.clone(),
            ring: VecDeque::with_capacity(window_len + 1),
            running: prototype.clone(),
            current: prototype.clone(),
            current_id: 0,
            window_len,
            epoch_width: 0,
            obs: None,
            live: Scratch(None),
        })
    }

    /// Attaches window-tier telemetry (rotation subtract latency and
    /// retired-epoch count are recorded by the ring itself; the seal
    /// sweep is timed by the owner). Shared instruments: clones of this
    /// ring keep recording into the same counters.
    pub fn set_instruments(&mut self, instruments: Arc<WindowInstruments>) {
        self.obs = Some(instruments);
    }

    /// Builds a ring that additionally self-seals: absorbing the
    /// `epoch_width`-th report of an epoch closes it. Meant for
    /// single-ring streaming use — sharded deployments should seal
    /// centrally (see [`crate::LdpService::seal_epoch`]) so shard rings
    /// stay epoch-aligned.
    ///
    /// # Errors
    ///
    /// Rejects `window_len == 0` and `epoch_width == 0`.
    pub fn with_epoch_width(
        prototype: &S,
        window_len: usize,
        epoch_width: u64,
    ) -> Result<Self, ServiceError> {
        if epoch_width == 0 {
            return Err(ServiceError::EmptyWindow);
        }
        let mut ring = Self::new(prototype, window_len)?;
        ring.epoch_width = epoch_width;
        Ok(ring)
    }

    /// Id of the epoch currently open for ingestion.
    #[must_use]
    pub fn current_epoch(&self) -> u64 {
        self.current_id
    }

    /// Number of sealed epochs currently retained (≤ `window_len`).
    #[must_use]
    pub fn epochs_retained(&self) -> usize {
        self.ring.len()
    }

    /// Maximum number of sealed epochs retained.
    #[must_use]
    pub fn window_len(&self) -> usize {
        self.window_len
    }

    /// Auto-seal threshold (0 = manual sealing).
    #[must_use]
    pub fn epoch_width(&self) -> u64 {
        self.epoch_width
    }

    /// The sealed epochs still retained, oldest first.
    pub fn sealed(&self) -> impl Iterator<Item = &SealedEpoch<S>> {
        self.ring.iter()
    }

    /// Reports in the open epoch so far.
    #[must_use]
    pub fn current_reports(&self) -> u64 {
        self.current.num_reports()
    }

    /// Absorbs one report into the open epoch, auto-sealing afterwards if
    /// an epoch width is configured and now reached.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches from the mechanism.
    pub fn absorb(&mut self, report: &S::Report) -> Result<(), ServiceError> {
        self.current.absorb(report)?;
        if self.epoch_width > 0 && self.current.num_reports() >= self.epoch_width {
            self.seal_epoch()?;
        }
        Ok(())
    }

    /// Absorbs one epoch-tagged report: the tag must name the open epoch.
    /// Untagged reports (`None`, from v1 wire frames) are accepted into
    /// the open epoch unconditionally.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::EpochMismatch`] for a stale or future tag;
    /// otherwise as [`EpochRing::absorb`].
    pub fn absorb_tagged(
        &mut self,
        epoch: Option<u64>,
        report: &S::Report,
    ) -> Result<(), ServiceError> {
        self.check_tag(epoch)?;
        self.absorb(report)
    }

    /// The tag rule: a tag, when present, must name the open epoch.
    fn check_tag(&self, epoch: Option<u64>) -> Result<(), ServiceError> {
        match epoch {
            Some(tag) if tag != self.current_id => Err(ServiceError::EpochMismatch {
                frame: tag,
                current: self.current_id,
            }),
            _ => Ok(()),
        }
    }

    /// Closes the open epoch (even an empty one — idle periods are real
    /// epochs), returning its id. The sealed epoch joins the ring and the
    /// running merge; if the ring now exceeds the window length, the
    /// oldest epoch is retired by exact subtraction.
    ///
    /// # Errors
    ///
    /// Merge/subtract failures are impossible for epochs this ring built
    /// itself (all clones of one prototype); an error indicates corrupted
    /// state.
    pub fn seal_epoch(&mut self) -> Result<u64, ServiceError> {
        // The sealed epoch is read (merged into the running sum), so its
        // pending reports settle first.
        self.current.settle();
        // An empty open epoch stays open: it already is what the next
        // epoch starts from.
        let server = if self.current.num_reports() > 0 {
            let sealed = std::mem::replace(&mut self.current, self.prototype.clone());
            self.running.merge(&sealed)?;
            Some(sealed)
        } else {
            None
        };
        self.ring.push_back(SealedEpoch {
            id: self.current_id,
            server,
        });
        let retired = if self.ring.len() > self.window_len {
            self.ring.pop_front()
        } else {
            None
        };
        if let Some(retired) = retired {
            // The rotation that makes sliding windows O(state): remove
            // the retired epoch from the running merge instead of
            // re-merging the survivors.
            let started = self.obs.as_ref().map(|_| Instant::now());
            if let Some(server) = &retired.server {
                self.running.subtract(server)?;
            }
            if let (Some(obs), Some(started)) = (&self.obs, started) {
                obs.rotate_ns.record_elapsed(started);
                obs.rotations.incr();
            }
        }
        let id = self.current_id;
        self.current_id += 1;
        Ok(id)
    }

    /// The merged accumulator of the trailing `epochs` sealed epochs
    /// (clamped to what the ring retains) — bit-identical to merging
    /// those epochs from scratch.
    ///
    /// Picks the cheaper of two exact routes: re-merge the `k` youngest
    /// epochs, or clone the running merge and subtract the `len − k`
    /// oldest. For the common full-window query the subtract route makes
    /// this a plain clone.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::EmptyWindow`] when `epochs == 0` or no
    /// epoch has been sealed yet.
    pub fn window_server(&self, epochs: usize) -> Result<S, ServiceError> {
        let k = epochs.min(self.ring.len());
        if k == 0 {
            return Err(ServiceError::EmptyWindow);
        }
        let drop = self.ring.len() - k;
        if drop <= k {
            let mut merged = self.running.clone();
            for server in self
                .ring
                .iter()
                .take(drop)
                .filter_map(|e| e.server.as_ref())
            {
                merged.subtract(server)?;
            }
            Ok(merged)
        } else {
            let mut merged = self.prototype.clone();
            for server in self
                .ring
                .iter()
                .skip(drop)
                .filter_map(|e| e.server.as_ref())
            {
                merged.merge(server)?;
            }
            Ok(merged)
        }
    }

    /// The inclusive epoch-id interval a trailing window of `epochs`
    /// sealed epochs would cover, or `None` while nothing is sealed.
    #[must_use]
    pub fn window_bounds(&self, epochs: usize) -> Option<(u64, u64)> {
        let k = epochs.min(self.ring.len());
        if k == 0 {
            return None;
        }
        let last = self.ring.back()?.id;
        Some((self.ring[self.ring.len() - k].id, last))
    }

    /// An empty ring *epoch-aligned* with this one: same window
    /// configuration, same open epoch id, and the same retained sealed
    /// epoch ids, holding no state — this ring, cleared. This is
    /// what the shards of a recovered windowed service start from, so
    /// they drain and seal in lockstep with the accumulator holding the
    /// recovered state (see [`crate::LdpService::with_recovered`]).
    #[must_use]
    pub fn aligned_empty(&self) -> Self {
        let mut empty = self.clone();
        empty.clear();
        empty
    }

    /// Refuses a ring that is not epoch-aligned with this one: same window
    /// configuration, same open epoch, same retained ids.
    fn ensure_aligned(&self, other: &Self) -> Result<(), RangeError> {
        let aligned = other.window_len == self.window_len
            && other.epoch_width == self.epoch_width
            && other.current_id == self.current_id
            && other.ring.len() == self.ring.len()
            && other.ring.iter().zip(&self.ring).all(|(a, b)| a.id == b.id);
        if aligned {
            Ok(())
        } else {
            Err(RangeError::ReportShapeMismatch)
        }
    }

    /// Folds `other` into this ring slot by slot with `op` (merge or
    /// subtract). Requires epoch-aligned rings — same window
    /// configuration, same open epoch, same retained ids — and rejects
    /// misaligned ones before touching any slot. A slot of `other` that
    /// holds no reports is the additive identity — integer sufficient
    /// statistics count nothing without a report — and is skipped, so
    /// folding in a shard ring (whose running merge and sealed epochs are
    /// empty) costs one pass over its open epoch, not `window_len + 2`.
    fn fold_aligned(
        &mut self,
        other: &Self,
        op: fn(&mut S, &S) -> Result<(), RangeError>,
    ) -> Result<(), RangeError> {
        self.ensure_aligned(other)?;
        let holding = |s: &&S| s.num_reports() > 0;
        for (mine, theirs) in [
            (&mut self.running, &other.running),
            (&mut self.current, &other.current),
        ] {
            if holding(&theirs) {
                op(mine, theirs)?;
            }
        }
        for (mine, theirs) in self.ring.iter_mut().zip(&other.ring) {
            if let Some(theirs) = theirs.server.as_ref().filter(holding) {
                let prototype = &self.prototype;
                op(mine.server.get_or_insert_with(|| prototype.clone()), theirs)?;
            }
        }
        Ok(())
    }

    /// The live window — the running merge plus the open epoch — summed
    /// into a fresh server.
    fn live_sum(&self) -> S {
        let mut live = self.running.clone();
        let summed = live.merge(&self.current);
        // Never refused: both are built from the prototype. (A refused
        // merge changes nothing.)
        debug_assert!(summed.is_ok(), "ring epochs share one prototype");
        live
    }

    /// Freezes the trailing `epochs` sealed epochs into an immutable
    /// query handle; ingestion into the open epoch continues undisturbed.
    ///
    /// # Errors
    ///
    /// As [`EpochRing::window_server`].
    pub fn window_snapshot(&self, epochs: usize) -> Result<WindowedSnapshot, ServiceError>
    where
        S: SnapshotSource,
    {
        let server = self.window_server(epochs)?;
        let (first, last) = self
            .window_bounds(epochs)
            .ok_or(ServiceError::EmptyWindow)?;
        Ok(WindowedSnapshot::from_parts(
            Arc::new(RangeSnapshot::try_freeze(&server, last)?),
            first,
            last,
        ))
    }
}

// The ring is itself a mergeable accumulator, so the whole sharding and
// service stack (`LdpService<EpochRing<S>>`) applies to windowed state
// unchanged. Merging requires epoch-aligned rings — same window
// configuration, same open epoch, same retained ids — which shard pools
// cloned from one prototype and sealed in lockstep satisfy by
// construction.
impl<S: SubtractableServer> MergeableServer for EpochRing<S> {
    type Report = S::Report;

    fn absorb(&mut self, report: &Self::Report) -> Result<(), RangeError> {
        self.current.absorb(report)?;
        // Auto-sealing is deliberately *not* applied on this path: shards
        // absorb through this trait, and shard-local report counts would
        // seal shards at different moments, breaking epoch alignment.
        Ok(())
    }

    /// Deferred into the open epoch — the only epoch that ever absorbs,
    /// so the only one that can hold pending reports.
    fn absorb_deferred(&mut self, report: &Self::Report) -> Result<(), RangeError> {
        self.current.absorb_deferred(report)
    }

    fn settle(&mut self) {
        self.current.settle();
    }

    fn merge(&mut self, other: &Self) -> Result<(), RangeError> {
        self.fold_aligned(other, S::merge)
    }

    fn num_reports(&self) -> u64 {
        // Reports inside the retention window: every sealed epoch still
        // ringed (the running merge) plus the open epoch.
        self.running.num_reports() + self.current.num_reports()
    }
}

/// Subtraction mirrors [`MergeableServer::merge`] slot by slot — running
/// merge, open epoch, and each retained sealed epoch — with the same
/// alignment requirements; a misaligned subtrahend — including a clone
/// taken before this ring sealed another epoch — is rejected up front,
/// exactly like a misaligned merge. Clearing zeroes the running merge and
/// the open epoch and drops every sealed epoch's state, but keeps the
/// layout (window configuration, open epoch id, retained ids), so a
/// drained shard ring stays aligned with the service's accumulator ring
/// ([`crate::LdpService::refresh_snapshot`]).
impl<S: SubtractableServer> SubtractableServer for EpochRing<S> {
    fn subtract(&mut self, other: &Self) -> Result<(), RangeError> {
        self.fold_aligned(other, S::subtract)
    }

    fn clear(&mut self) {
        for slot in [&mut self.running, &mut self.current] {
            if slot.num_reports() > 0 {
                slot.clear();
            }
        }
        for epoch in &mut self.ring {
            epoch.server = None;
        }
    }

    /// A shard ring's delta is its open epoch, which moves across in one
    /// add-and-zero pass ([`SubtractableServer::drain`]); any other slot
    /// of `other` holding reports is merged like
    /// [`MergeableServer::merge`] would, and `other` is then cleared to
    /// its layout. A misaligned ring is refused before either changes.
    fn drain(&mut self, other: &mut Self) -> Result<(), RangeError> {
        self.ensure_aligned(other)?;
        if other.current.num_reports() > 0 {
            self.current.drain(&mut other.current)?;
        }
        self.fold_aligned(other, S::merge)?;
        other.clear();
        Ok(())
    }
}

/// The ring's complete mutable state: the open epoch id, every retained
/// sealed epoch (id + accumulator), and the open accumulator. The window
/// configuration is written for validation only — the restoring side must
/// already hold a ring of the same shape — and the running merge is *not*
/// written: it is recomputed from the sealed epochs on restore, which
/// reproduces it bit-identically (integer sums) while guaranteeing the
/// restored ring is internally consistent.
impl<S> PersistableServer for EpochRing<S>
where
    S: SubtractableServer + PersistableServer,
{
    fn persist_state(&self, out: &mut Vec<u8>) {
        put_varint(out, self.window_len as u64);
        put_varint(out, self.epoch_width);
        put_varint(out, self.current_id);
        put_varint(out, self.ring.len() as u64);
        for epoch in &self.ring {
            put_varint(out, epoch.id);
            epoch
                .server
                .as_ref()
                .unwrap_or(&self.prototype)
                .persist_state(out);
        }
        self.current.persist_state(out);
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), RangeError> {
        if r.varint()? != self.window_len as u64 {
            return Err(RangeError::CorruptState("window length mismatch"));
        }
        if r.varint()? != self.epoch_width {
            return Err(RangeError::CorruptState("epoch width mismatch"));
        }
        let current_id = r.varint()?;
        let ring_len = r.varint()?;
        if ring_len > self.window_len as u64 || ring_len > current_id {
            return Err(RangeError::CorruptState("retained epochs exceed window"));
        }
        let mut ring = VecDeque::with_capacity(self.window_len + 1);
        let mut running = self.prototype.clone();
        for k in 0..ring_len {
            let id = r.varint()?;
            // Retained epochs are always the consecutive run ending just
            // below the open epoch — anything else never came from
            // `persist_state`.
            if id != current_id - (ring_len - k) {
                return Err(RangeError::CorruptState("sealed epoch ids not consecutive"));
            }
            let mut server = self.prototype.clone();
            server.restore_state(r)?;
            running.merge(&server)?;
            ring.push_back(SealedEpoch {
                id,
                server: (server.num_reports() > 0).then_some(server),
            });
        }
        let mut current = self.prototype.clone();
        current.restore_state(r)?;
        self.ring = ring;
        self.running = running;
        self.current = current;
        self.current_id = current_id;
        Ok(())
    }
}

impl<S: SnapshotSource> SnapshotSource for EpochRing<S> {
    /// The shard-side tagged absorb: [`EpochRing::absorb_tagged`]'s tag
    /// check in front of the [`MergeableServer::absorb_deferred`] shards
    /// use, which never auto-seals — so a batch cannot change a shard
    /// ring's layout under its own rollback. Deferred like the default:
    /// the caller settles.
    fn absorb_tagged(
        &mut self,
        epoch: Option<u64>,
        report: &Self::Report,
    ) -> Result<(), ServiceError> {
        self.check_tag(epoch)?;
        MergeableServer::absorb_deferred(self, report).map_err(Into::into)
    }

    /// The live window's float freeze: every retained sealed epoch plus
    /// the open epoch, summed into a fresh server.
    fn frequency_estimate(&self) -> FrequencyEstimate {
        self.live_sum().frequency_estimate()
    }

    /// The live window's tables: every retained sealed epoch plus the
    /// open epoch, summed into a fresh server. This is what
    /// `LdpService::refresh_snapshot` publishes for a windowed service —
    /// the trailing-window view, not the all-time population — through
    /// [`SnapshotSource::publish_into`], which sums into a kept scratch
    /// instead.
    fn tables_into(&self, spare: PrefixTables) -> Result<PrefixTables, ServiceError> {
        self.live_sum().tables_into(spare)
    }

    /// The live window's tables, summed into the kept scratch in place:
    /// cleared, then the running merge and the open epoch merged in.
    fn publish_into(&mut self, spare: PrefixTables) -> Result<PrefixTables, ServiceError> {
        let live = self.live.0.get_or_insert_with(|| self.prototype.clone());
        live.clear();
        live.merge(&self.running)?;
        live.merge(&self.current)?;
        live.tables_into(spare)
    }

    /// Every epoch is a clone of the prototype.
    fn level_oracle(&self) -> (ldp_freq_oracle::FrequencyOracle, usize) {
        self.prototype.level_oracle()
    }
}

/// An immutable freeze of a trailing window of sealed epochs.
///
/// Wraps a shared [`RangeSnapshot`] (whose version is the newest epoch id
/// covered) plus the inclusive epoch interval it reflects, so readers can
/// reason about *which* slice of time they are querying. Cloning is an
/// `Arc` bump: the service hands the same freeze to every query of an
/// unchanged window.
#[derive(Debug, Clone)]
pub struct WindowedSnapshot {
    snapshot: Arc<RangeSnapshot>,
    first_epoch: u64,
    last_epoch: u64,
}

impl WindowedSnapshot {
    /// Assembles a windowed handle from a frozen snapshot and the epoch
    /// interval it covers (the sharded service builds one from per-shard
    /// window servers).
    pub(crate) fn from_parts(
        snapshot: Arc<RangeSnapshot>,
        first_epoch: u64,
        last_epoch: u64,
    ) -> Self {
        Self {
            snapshot,
            first_epoch,
            last_epoch,
        }
    }

    /// Oldest epoch id covered (inclusive).
    #[must_use]
    pub fn first_epoch(&self) -> u64 {
        self.first_epoch
    }

    /// Newest epoch id covered (inclusive).
    #[must_use]
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// Number of epochs covered.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.last_epoch - self.first_epoch + 1
    }

    /// Reports reflected in this window.
    #[must_use]
    pub fn num_reports(&self) -> u64 {
        self.snapshot.num_reports()
    }

    /// Estimated fraction of window reports with value in `[a, b]`.
    ///
    /// # Panics
    ///
    /// Panics on invalid bounds.
    #[must_use]
    pub fn range(&self, a: usize, b: usize) -> f64 {
        self.snapshot.range(a, b)
    }

    /// Estimated prefix fraction `R[0, b]` within the window.
    #[must_use]
    pub fn prefix(&self, b: usize) -> f64 {
        self.snapshot.prefix(b)
    }

    /// Estimated frequency of one item within the window.
    #[must_use]
    pub fn point(&self, z: usize) -> f64 {
        self.snapshot.point(z)
    }

    /// Estimated φ-quantile of the window distribution.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ phi ≤ 1`.
    #[must_use]
    pub fn quantile(&self, phi: f64) -> usize {
        self.snapshot.quantile(phi)
    }

    /// The underlying frozen snapshot.
    #[must_use]
    pub fn snapshot(&self) -> &RangeSnapshot {
        &self.snapshot
    }

    /// The underlying frozen snapshot as a shared handle — no copy of
    /// the estimate.
    #[must_use]
    pub fn shared_snapshot(&self) -> Arc<RangeSnapshot> {
        Arc::clone(&self.snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_freq_oracle::Epsilon;
    use ldp_ranges::{HhClient, HhConfig, HhServer, RangeEstimate};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(domain: usize) -> (HhClient, HhServer) {
        let config = HhConfig::new(domain, 4, Epsilon::from_exp(3.0)).unwrap();
        (
            HhClient::new(config.clone()).unwrap(),
            HhServer::new(config).unwrap(),
        )
    }

    #[test]
    fn ring_rotates_and_matches_scratch_merge() {
        let (client, prototype) = setup(64);
        let mut ring = EpochRing::new(&prototype, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(901);
        let mut epochs: Vec<Vec<ldp_ranges::HhReport>> = Vec::new();
        for e in 0..6u64 {
            assert_eq!(ring.current_epoch(), e);
            let batch: Vec<_> = (0..200)
                .map(|i| client.report((e as usize * 7 + i) % 64, &mut rng).unwrap())
                .collect();
            for r in &batch {
                ring.absorb(r).unwrap();
            }
            epochs.push(batch);
            assert_eq!(ring.seal_epoch().unwrap(), e);
        }
        assert_eq!(ring.epochs_retained(), 3);
        assert_eq!(
            ring.sealed().map(SealedEpoch::id).collect::<Vec<_>>(),
            [3, 4, 5]
        );

        // Windowed state after rotation ≡ absorbing the covered epochs
        // into a fresh server, bit-for-bit.
        for k in 1..=3usize {
            let snap = ring.window_snapshot(k).unwrap();
            assert_eq!(snap.epochs(), k as u64);
            assert_eq!(snap.last_epoch(), 5);
            let mut scratch = prototype.clone();
            for batch in &epochs[6 - k..] {
                for r in batch {
                    MergeableServer::absorb(&mut scratch, r).unwrap();
                }
            }
            assert_eq!(snap.num_reports(), scratch.num_reports());
            // Bit for bit the evaluator on the scratch server's integers,
            // and within the derived tolerance of its float freeze.
            let tables = scratch.prefix_tables().unwrap();
            let direct = scratch.estimate_consistent().to_frequency_estimate();
            let tol = tables.freeze_tolerance();
            for z in 0..64 {
                assert!(
                    snap.point(z).to_bits() == tables.point(z).to_bits(),
                    "k={k}: leaf {z} differs after rotation"
                );
                assert!(
                    (snap.point(z) - direct.point(z)).abs() <= tol,
                    "k={k}: leaf {z} off the float freeze"
                );
            }
        }
    }

    #[test]
    fn auto_seal_by_epoch_width() {
        let (client, prototype) = setup(64);
        let mut ring = EpochRing::with_epoch_width(&prototype, 4, 50).unwrap();
        let mut rng = StdRng::seed_from_u64(902);
        for i in 0..175usize {
            ring.absorb(&client.report(i % 64, &mut rng).unwrap())
                .unwrap();
        }
        // 175 reports / width 50 → three sealed epochs, 25 in flight.
        assert_eq!(ring.current_epoch(), 3);
        assert_eq!(ring.epochs_retained(), 3);
        assert_eq!(ring.current_reports(), 25);
        let snap = ring.window_snapshot(usize::MAX).unwrap();
        assert_eq!(snap.num_reports(), 150);
    }

    #[test]
    fn epoch_tags_are_enforced() {
        let (client, prototype) = setup(64);
        let mut ring = EpochRing::new(&prototype, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(903);
        let r = client.report(5, &mut rng).unwrap();
        ring.absorb_tagged(Some(0), &r).unwrap();
        ring.absorb_tagged(None, &r).unwrap();
        assert!(matches!(
            ring.absorb_tagged(Some(1), &r),
            Err(ServiceError::EpochMismatch {
                frame: 1,
                current: 0
            })
        ));
        ring.seal_epoch().unwrap();
        assert!(matches!(
            ring.absorb_tagged(Some(0), &r),
            Err(ServiceError::EpochMismatch {
                frame: 0,
                current: 1
            })
        ));
        ring.absorb_tagged(Some(1), &r).unwrap();
    }

    #[test]
    fn empty_windows_are_rejected() {
        let (_, prototype) = setup(64);
        assert!(matches!(
            EpochRing::new(&prototype, 0),
            Err(ServiceError::EmptyWindow)
        ));
        assert!(matches!(
            EpochRing::with_epoch_width(&prototype, 2, 0),
            Err(ServiceError::EmptyWindow)
        ));
        let ring = EpochRing::new(&prototype, 2).unwrap();
        assert!(matches!(
            ring.window_snapshot(1),
            Err(ServiceError::EmptyWindow)
        ));
        let mut ring = ring;
        ring.seal_epoch().unwrap(); // an empty epoch is still an epoch
        assert!(matches!(
            ring.window_snapshot(0),
            Err(ServiceError::EmptyWindow)
        ));
        assert_eq!(ring.window_snapshot(1).unwrap().num_reports(), 0);
    }

    #[test]
    fn ring_merge_requires_alignment() {
        let (client, prototype) = setup(64);
        let mut rng = StdRng::seed_from_u64(904);
        let mut a = EpochRing::new(&prototype, 2).unwrap();
        let mut b = EpochRing::new(&prototype, 2).unwrap();
        let r = client.report(9, &mut rng).unwrap();
        a.absorb(&r).unwrap();
        b.absorb(&r).unwrap();
        a.seal_epoch().unwrap();
        b.seal_epoch().unwrap();
        // Aligned rings merge; total covers both shards' reports.
        let mut merged = a.clone();
        MergeableServer::merge(&mut merged, &b).unwrap();
        assert_eq!(merged.num_reports(), 2);
        // Misaligned rings (one sealed further) must refuse.
        b.seal_epoch().unwrap();
        assert!(MergeableServer::merge(&mut a, &b).is_err());
    }

    type Ring = EpochRing<HhServer>;

    /// Everything a ring holds: its checkpoint bytes, its running merge's
    /// bytes, which sealed slots hold state, its report total and its open
    /// epoch.
    fn ring_state(ring: &Ring) -> (Vec<u8>, Vec<u8>, Vec<bool>, u64, u64) {
        let mut bytes = Vec::new();
        ring.persist_state(&mut bytes);
        let mut running = Vec::new();
        ring.running.persist_state(&mut running);
        let slots = ring.ring.iter().map(|e| e.server.is_some()).collect();
        (bytes, running, slots, ring.num_reports(), ring.current_id)
    }

    #[test]
    fn ring_drain_is_merge_then_clear() {
        let (client, prototype) = setup(64);
        let mut rng = StdRng::seed_from_u64(905);
        let absorb = |ring: &mut Ring, n: usize, rng: &mut StdRng| {
            for i in 0..n {
                ring.absorb(&client.report(i * 5 % 64, rng).unwrap())
                    .unwrap();
            }
        };
        // An accumulator that has rotated, with one empty sealed epoch
        // and reports in its open epoch.
        let mut acc = Ring::new(&prototype, 3).unwrap();
        for n in [30, 0, 45, 20, 0] {
            absorb(&mut acc, n, &mut rng);
            acc.seal_epoch().unwrap();
        }
        absorb(&mut acc, 10, &mut rng);
        // A shard ring holding only an open-epoch delta — what a service
        // drains — and one sealed in lockstep while holding reports, so
        // its running merge and a sealed slot hold state too.
        let mut shard = acc.aligned_empty();
        absorb(&mut shard, 70, &mut rng);
        let mut sealed_shard = Ring::new(&prototype, 3).unwrap();
        let mut sealed_acc = Ring::new(&prototype, 3).unwrap();
        for ring in [&mut sealed_shard, &mut sealed_acc] {
            absorb(ring, 25, &mut rng);
            ring.seal_epoch().unwrap();
            absorb(ring, 15, &mut rng);
        }
        for (mut acc, mut shard) in [(acc, shard), (sealed_acc, sealed_shard)] {
            let mut expected = acc.clone();
            MergeableServer::merge(&mut expected, &shard).unwrap();
            let layout = acc.aligned_empty();
            acc.drain(&mut shard).unwrap();
            assert_eq!(ring_state(&acc), ring_state(&expected));
            assert_eq!(ring_state(&shard), ring_state(&layout));
            // Still aligned: the drained shard takes new reports and
            // drains again.
            let report = client.report(17, &mut rng).unwrap();
            shard.absorb(&report).unwrap();
            expected.absorb(&report).unwrap();
            acc.drain(&mut shard).unwrap();
            assert_eq!(ring_state(&acc), ring_state(&expected));
        }
    }

    #[test]
    fn misaligned_ring_drain_is_refused_unchanged() {
        let (client, prototype) = setup(64);
        let mut rng = StdRng::seed_from_u64(906);
        let mut acc = Ring::new(&prototype, 2).unwrap();
        let mut shard = acc.aligned_empty();
        for ring in [&mut acc, &mut shard] {
            ring.absorb(&client.report(9, &mut rng).unwrap()).unwrap();
        }
        acc.seal_epoch().unwrap();
        let (acc_before, shard_before) = (ring_state(&acc), ring_state(&shard));
        assert_eq!(acc.drain(&mut shard), Err(RangeError::ReportShapeMismatch));
        assert_eq!(ring_state(&acc), acc_before);
        assert_eq!(ring_state(&shard), shard_before);
        // A different window length, with the same open epoch.
        let mut wider = Ring::new(&prototype, 3).unwrap();
        wider.seal_epoch().unwrap();
        let wider_before = ring_state(&wider);
        assert!(acc.drain(&mut wider).is_err());
        assert_eq!(ring_state(&acc), acc_before);
        assert_eq!(ring_state(&wider), wider_before);
    }
}
