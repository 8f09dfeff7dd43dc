//! The snapshot query layer: frozen, immutable estimates served
//! concurrently while ingestion continues.
//!
//! Estimation (constrained inference, transform inversion, prefix-sum
//! construction) is much more expensive than absorbing a report, and the
//! raw shard accumulators mutate constantly. The service therefore
//! separates the two: [`RangeSnapshot`] freezes a merged server's state
//! into a fully materialized, query-optimized handle — per-item
//! frequencies plus prefix sums — answering range, prefix, point and
//! quantile queries in `O(1)`/`O(log D)` with no locks at all. Snapshots
//! are cheap to share (`Arc`) and carry a monotonically increasing
//! version plus the report count they reflect, so readers can reason
//! about staleness.
//!
//! A freeze writes each stage's output once, in place: every level oracle
//! estimates straight into its level of the tree or pyramid
//! (`PointOracle::estimate_into`), constrained inference runs a kernel
//! instantiated for the tree's fanout, and the prefix sums fill a
//! pre-sized buffer by index. `ldp_ranges`' freeze differential holds the
//! result bit-identical to a reference that copies a fresh `Vec` per
//! level, reads the fanout at run time and builds the prefix by `push`.
//!
//! A large freeze splits in two ([`ldp_ranges::Join`]): `HH_B`'s level
//! estimates and consistency passes under each half of the root's
//! children, HaarHRR's per-depth inversions and each half of its leaf
//! expansion. [`RangeSnapshot::freeze`] runs both halves on the calling
//! thread; a service runs them on two threads from
//! [`crate::SPLIT_FREEZE_MIN_DOMAIN`] items up, with the same bits.
//!
//! A service's freezes allocate nothing of size `O(D)` once warm.
//! [`RangeSnapshot::freeze_into`] writes into an
//! [`ldp_ranges::EstimateBuffers`], and [`crate::LdpService`] owns one,
//! kept under its refresh lock next to the accumulator. Its *workspace*
//! — HaarHRR's pyramid and second leaf-expansion buffer — is handed back
//! by every freeze and reused by the next. Its *spare* — a snapshot's
//! storage (the per-item vector, or for `HH_B` the whole estimate tree
//! whose leaf level that vector is) and prefix sums — comes from the
//! snapshot the last publish replaced: the service keeps that retired
//! `Arc` and, at the next dirty refresh, recycles its buffers only if
//! `Arc::try_unwrap` shows the service is its last holder. A snapshot
//! any reader still holds is never written: the service drops its
//! reference and the freeze allocates fresh buffers, as
//! [`RangeSnapshot::freeze`] always does. A buffer's old contents are
//! never read, so a recycled freeze is bit-identical to an allocating
//! one (`tests/recycled_freeze.rs`), and `tests/refresh_alloc.rs` counts
//! a warm refresh's large allocations — on the freeze helper too.

use crate::error::ServiceError;
use ldp_freq_oracle::{FrequencyOracle, PointOracle};
use ldp_ranges::{
    quantile, EstimateBuffers, FlatServer, FrequencyEstimate, HaarHrrServer, HhServer, Join,
    PersistableServer, RangeEstimate, SerialJoin, SubtractableServer,
};

/// Servers whose merged state can be frozen into a 1-D frequency
/// snapshot.
///
/// Implementations pick their mechanism's best estimator (constrained
/// inference for the hierarchical families, pyramid collapse for Haar),
/// so a snapshot is exactly what the underlying mechanism would publish.
///
/// The supertrait is [`SubtractableServer`], not just mergeable: the
/// service drains a shard into its accumulator in one add-and-zero pass
/// ([`SubtractableServer::drain`], from
/// [`crate::LdpService::refresh_snapshot`]), and rolls a rejected batch
/// back by exact subtraction, so anything the service can freeze must
/// also drain, clear and un-merge. It is
/// [`PersistableServer`] too, because a durable service checkpoints it
/// and a follower restores it. Every mechanism's integer sufficient
/// statistics satisfy both for free.
pub trait SnapshotSource: SubtractableServer + PersistableServer {
    /// Materializes the per-item frequency estimate of the current state
    /// in freshly allocated buffers, on the calling thread.
    fn frequency_estimate(&self) -> FrequencyEstimate {
        self.frequency_estimate_into(&mut EstimateBuffers::default(), &SerialJoin)
    }

    /// [`SnapshotSource::frequency_estimate`] written into `buffers`,
    /// bit-identical whatever they held (see [`EstimateBuffers`]), with
    /// its two halves run through `join` — the same bits however `join`
    /// runs them (see [`Join`]).
    fn frequency_estimate_into(
        &self,
        buffers: &mut EstimateBuffers,
        join: &dyn Join,
    ) -> FrequencyEstimate;

    /// The estimate [`crate::LdpService::refresh_snapshot`] publishes,
    /// frozen from the accumulator the service holds mutably: by default
    /// [`SnapshotSource::frequency_estimate_into`]. [`crate::EpochRing`]
    /// sums its open epoch and its sealed ones into a scratch server it
    /// keeps, instead of allocating one per refresh.
    ///
    /// # Errors
    ///
    /// A state that cannot be summed (impossible for a ring built from
    /// one prototype).
    fn publish_estimate_into(
        &mut self,
        buffers: &mut EstimateBuffers,
        join: &dyn Join,
    ) -> Result<FrequencyEstimate, ServiceError> {
        Ok(self.frequency_estimate_into(buffers, join))
    }

    /// The frequency oracle every level of this server releases reports
    /// through, and the largest level's domain — what
    /// [`crate::LdpService`] checks before it serves the server.
    fn level_oracle(&self) -> (FrequencyOracle, usize);

    /// Absorbs one report that arrived with an optional epoch tag (`Some`
    /// from a v2 wire frame, `None` from a v1 one). An all-time server
    /// has no epochs to check the tag against and ignores it — the
    /// default; [`crate::EpochRing`] overrides this to reject a tag that
    /// does not name its open epoch. This is the one absorb every ingest
    /// path of the service goes through.
    ///
    /// **Deferred.** The report is absorbed with
    /// [`ldp_ranges::MergeableServer::absorb_deferred`], so it may stay
    /// pending in the server's oracles until it is read: a drain moves it
    /// out as it is, and any other reader must call
    /// [`ldp_ranges::MergeableServer::settle`] first. The service's
    /// callers (`absorb_frames`, and the single-report submits) leave
    /// shards unsettled across batches; only a batch rollback settles,
    /// and only the drains read a shard.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches from the mechanism.
    fn absorb_tagged(
        &mut self,
        epoch: Option<u64>,
        report: &Self::Report,
    ) -> Result<(), ServiceError> {
        let _ = epoch;
        self.absorb_deferred(report).map_err(Into::into)
    }
}

/// Each served mechanism publishes its server's `frequency_estimate_into`: the
/// flat oracle's own estimate, the `HH_B` constrained-inference leaves, or
/// the collapsed HaarHRR pyramid.
impl SnapshotSource for FlatServer {
    /// The flat estimate is one oracle's and runs whole on the caller.
    fn frequency_estimate_into(
        &self,
        buffers: &mut EstimateBuffers,
        _join: &dyn Join,
    ) -> FrequencyEstimate {
        FlatServer::frequency_estimate_into(self, buffers)
    }

    fn level_oracle(&self) -> (FrequencyOracle, usize) {
        (self.oracle().kind(), self.oracle().domain())
    }
}

impl SnapshotSource for HhServer {
    fn frequency_estimate_into(
        &self,
        buffers: &mut EstimateBuffers,
        join: &dyn Join,
    ) -> FrequencyEstimate {
        HhServer::frequency_estimate_into(self, buffers, join)
    }

    /// Every depth uses the configured oracle; the leaves are the largest.
    fn level_oracle(&self) -> (FrequencyOracle, usize) {
        (self.config().oracle, self.config().domain)
    }
}

impl SnapshotSource for HaarHrrServer {
    fn frequency_estimate_into(
        &self,
        buffers: &mut EstimateBuffers,
        join: &dyn Join,
    ) -> FrequencyEstimate {
        HaarHrrServer::frequency_estimate_into(self, buffers, join)
    }

    fn level_oracle(&self) -> (FrequencyOracle, usize) {
        (FrequencyOracle::Hrr, self.config().domain)
    }
}

/// An immutable, query-ready freeze of merged aggregator state.
#[derive(Debug, Clone)]
pub struct RangeSnapshot {
    estimate: FrequencyEstimate,
    num_reports: u64,
    version: u64,
}

impl RangeSnapshot {
    /// Freezes a server's current state.
    #[must_use]
    pub fn freeze<S: SnapshotSource>(server: &S, version: u64) -> Self {
        Self::freeze_into(server, version, &mut EstimateBuffers::default())
    }

    /// [`RangeSnapshot::freeze`] written into `buffers`
    /// ([`SnapshotSource::frequency_estimate_into`]): the same bits, and
    /// no `O(D)` allocation once the buffers are warm.
    #[must_use]
    pub fn freeze_into<S: SnapshotSource>(
        server: &S,
        version: u64,
        buffers: &mut EstimateBuffers,
    ) -> Self {
        Self {
            estimate: server.frequency_estimate_into(buffers, &SerialJoin),
            num_reports: server.num_reports(),
            version,
        }
    }

    /// Builds a snapshot directly from a materialized estimate.
    #[must_use]
    pub fn from_estimate(estimate: FrequencyEstimate, num_reports: u64, version: u64) -> Self {
        Self {
            estimate,
            num_reports,
            version,
        }
    }

    /// Domain size `D`.
    #[must_use]
    pub fn domain(&self) -> usize {
        self.estimate.domain()
    }

    /// Reports reflected in this snapshot.
    #[must_use]
    pub fn num_reports(&self) -> u64 {
        self.num_reports
    }

    /// Monotone publication version (0 = the initial snapshot a service
    /// is built with). On a service-published snapshot the version
    /// increases iff the published content changed: a refresh that finds
    /// every shard unchanged returns the same `Arc` under the same
    /// version instead of publishing a copy (see
    /// [`crate::LdpService::refresh_snapshot`]). A windowed snapshot's
    /// version is the newest epoch id it covers.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Estimated fraction of users with value in the inclusive `[a, b]`.
    ///
    /// # Panics
    ///
    /// Panics on invalid bounds.
    #[must_use]
    pub fn range(&self, a: usize, b: usize) -> f64 {
        self.estimate.range(a, b)
    }

    /// Estimated prefix fraction `R[0, b]`.
    #[must_use]
    pub fn prefix(&self, b: usize) -> f64 {
        self.estimate.prefix(b)
    }

    /// Estimated frequency of one item.
    #[must_use]
    pub fn point(&self, z: usize) -> f64 {
        self.estimate.point(z)
    }

    /// Estimated φ-quantile (binary search over the estimated CDF).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ phi ≤ 1`.
    #[must_use]
    pub fn quantile(&self, phi: f64) -> usize {
        quantile(&self.estimate, phi)
    }

    /// The underlying frequency estimate.
    #[must_use]
    pub fn estimate(&self) -> &FrequencyEstimate {
        &self.estimate
    }

    /// Consumes the snapshot, returning its estimate — how a retired
    /// snapshot's buffers go back into [`EstimateBuffers::recycle`].
    #[must_use]
    pub fn into_estimate(self) -> FrequencyEstimate {
        self.estimate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_freq_oracle::Epsilon;
    use ldp_ranges::{HhClient, HhConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn snapshot_matches_direct_estimation() {
        let config = HhConfig::new(64, 4, Epsilon::from_exp(3.0)).unwrap();
        let client = HhClient::new(config.clone()).unwrap();
        let mut server = HhServer::new(config).unwrap();
        let mut rng = StdRng::seed_from_u64(701);
        for i in 0..2_000 {
            let r = client.report(16 + (i % 32), &mut rng).unwrap();
            server.absorb(&r).unwrap();
        }
        let snap = RangeSnapshot::freeze(&server, 3);
        assert_eq!(snap.version(), 3);
        assert_eq!(snap.num_reports(), 2_000);
        assert_eq!(snap.domain(), 64);
        let direct = server.estimate_consistent().to_frequency_estimate();
        for (a, b) in [(0, 63), (16, 47), (5, 5)] {
            assert_eq!(snap.range(a, b).to_bits(), direct.range(a, b).to_bits());
        }
        assert_eq!(snap.quantile(0.5), quantile(&direct, 0.5));
        assert!((snap.prefix(63) - 1.0).abs() < 0.05);
    }
}
