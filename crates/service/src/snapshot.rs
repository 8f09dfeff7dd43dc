//! The snapshot query layer: immutable answers served concurrently
//! while ingestion continues.
//!
//! The raw shard accumulators mutate constantly, so the service
//! separates answering from absorbing: [`RangeSnapshot`] holds what a
//! merged server's state answers, built once per publish, and answers
//! range, prefix, point and quantile queries with no locks at all.
//! Snapshots are cheap to share (`Arc`) and carry a monotonically
//! increasing version plus the report count they reflect, so readers can
//! reason about staleness.
//!
//! **Answers from integer tables.** Every served mechanism — flat,
//! `HH_B` and HaarHRR — publishes [`PrefixTables`]: one integer prefix
//! table per level and that level's affine map, built in one pass over
//! the integer statistics (HRR levels through an exact integer
//! transform). A query walks one root-to-leaf path through them — `O(h²)`
//! lookups for `HH_B`, with constrained inference folded into fixed
//! coefficients, `O(h)` for HaarHRR — so publishing computes no per-item
//! float at all. Tables answer what the serial float freeze of the same
//! integers answers ([`SnapshotSource::frequency_estimate`]), within
//! [`PrefixTables::freeze_tolerance`]; [`RangeSnapshot::estimate`] still
//! hands out a per-item vector, built on first call from the tables'
//! point answers and never on the query path.
//!
//! **Recycling.** A service's publishes allocate nothing of size `O(D)`
//! once warm. [`RangeSnapshot::freeze_into`] rebuilds a spare
//! [`PrefixTables`] in place, and [`crate::LdpService`] keeps one under
//! its refresh lock next to the accumulator: the tables of the snapshot
//! the last publish replaced, but only if `Arc::try_unwrap` shows the
//! service is its last holder. A snapshot any reader still holds is
//! never written: the service drops its reference and the publish
//! allocates afresh, as [`RangeSnapshot::freeze`] always does. Every slot
//! is rewritten, so a recycled publish answers exactly as a fresh one
//! (`tests/recycled_freeze.rs`), and `tests/refresh_alloc.rs` counts a
//! warm refresh's large allocations.
//!
//! **Overflow.** A table build checks once per level that no prefix can
//! leave `i64` — reachable only from a restored state near the integer
//! limits. When it cannot, a publish fails with a typed error
//! ([`ldp_freq_oracle::OracleError::StatisticOverflow`] inside
//! [`ServiceError::Range`]) and nothing wraps or panics;
//! [`RangeSnapshot::freeze`], which cannot fail, answers such a state
//! from its float freeze.

use std::sync::OnceLock;

use crate::error::ServiceError;
use ldp_freq_oracle::{FrequencyOracle, OracleError, PointOracle};
use ldp_ranges::{
    quantile, FlatServer, FrequencyEstimate, HaarHrrServer, HhServer, PersistableServer,
    PrefixTables, RangeError, RangeEstimate, SubtractableServer,
};

/// Servers whose merged state can be published as a 1-D snapshot.
///
/// The supertrait is [`SubtractableServer`], not just mergeable: the
/// service drains a shard into its accumulator in one add-and-zero pass
/// ([`SubtractableServer::drain`], from
/// [`crate::LdpService::refresh_snapshot`]), and rolls a rejected batch
/// back by exact subtraction, so anything the service can publish must
/// also drain, clear and un-merge. It is
/// [`PersistableServer`] too, because a durable service checkpoints it
/// and a follower restores it. Every mechanism's integer sufficient
/// statistics satisfy both for free.
pub trait SnapshotSource: SubtractableServer + PersistableServer {
    /// The serial float freeze of the current state: the per-item
    /// estimate and its prefix sums, computed in freshly allocated
    /// buffers — the reference the published tables are held to.
    fn frequency_estimate(&self) -> FrequencyEstimate;

    /// The prefix tables a snapshot of the current state answers from,
    /// rebuilt over `spare`'s buffers.
    ///
    /// # Errors
    ///
    /// Statistics too large for exact prefix tables, or a state that
    /// cannot be summed.
    fn tables_into(&self, spare: PrefixTables) -> Result<PrefixTables, ServiceError>;

    /// The tables [`crate::LdpService::refresh_snapshot`] publishes,
    /// built from the accumulator the service holds mutably: by default
    /// [`SnapshotSource::tables_into`]. [`crate::EpochRing`] sums its
    /// open epoch and its sealed ones into a scratch server it keeps,
    /// instead of allocating one per refresh.
    ///
    /// # Errors
    ///
    /// As [`SnapshotSource::tables_into`].
    fn publish_into(&mut self, spare: PrefixTables) -> Result<PrefixTables, ServiceError> {
        self.tables_into(spare)
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

/// A table build's refusal as a service error.
fn tables(built: Result<PrefixTables, OracleError>) -> Result<PrefixTables, ServiceError> {
    built.map_err(|e| ServiceError::Range(RangeError::Oracle(e)))
}

impl SnapshotSource for FlatServer {
    fn frequency_estimate(&self) -> FrequencyEstimate {
        FlatServer::frequency_estimate(self)
    }

    /// The flat oracle's one prefix table.
    fn tables_into(&self, spare: PrefixTables) -> Result<PrefixTables, ServiceError> {
        tables(self.prefix_tables_into(spare))
    }

    fn level_oracle(&self) -> (FrequencyOracle, usize) {
        (self.oracle().kind(), self.oracle().domain())
    }
}

impl SnapshotSource for HhServer {
    fn frequency_estimate(&self) -> FrequencyEstimate {
        HhServer::frequency_estimate(self)
    }

    /// One prefix table per depth, answered through constrained
    /// inference's coefficients.
    fn tables_into(&self, spare: PrefixTables) -> Result<PrefixTables, ServiceError> {
        tables(self.prefix_tables_into(spare))
    }

    /// Every depth uses the configured oracle; the leaves are the largest.
    fn level_oracle(&self) -> (FrequencyOracle, usize) {
        (self.config().oracle, self.config().domain)
    }
}

impl SnapshotSource for HaarHrrServer {
    fn frequency_estimate(&self) -> FrequencyEstimate {
        HaarHrrServer::frequency_estimate(self)
    }

    /// One prefix table per depth of the pyramid, answered by the Haar
    /// walk.
    fn tables_into(&self, spare: PrefixTables) -> Result<PrefixTables, ServiceError> {
        tables(self.prefix_tables_into(spare))
    }

    fn level_oracle(&self) -> (FrequencyOracle, usize) {
        (FrequencyOracle::Hrr, self.config().domain)
    }
}

/// What a snapshot answers from: prefix tables, or — only for a state
/// too large for them, frozen by [`RangeSnapshot::freeze`] — the float
/// freeze.
#[derive(Debug, Clone)]
enum Answers {
    Tables(PrefixTables),
    Frozen(FrequencyEstimate),
}

impl Answers {
    /// The answers as one range estimate.
    fn estimate(&self) -> &dyn RangeEstimate {
        match self {
            Self::Tables(tables) => tables,
            Self::Frozen(estimate) => estimate,
        }
    }
}

/// An immutable, query-ready snapshot of merged aggregator state.
#[derive(Debug, Clone)]
pub struct RangeSnapshot {
    answers: Answers,
    /// The per-item vector [`RangeSnapshot::estimate`] hands out for
    /// tables, built on first call.
    items: OnceLock<FrequencyEstimate>,
    num_reports: u64,
    version: u64,
}

impl RangeSnapshot {
    /// A snapshot of a server's current state, freshly allocated. A
    /// state whose statistics are too large for exact prefix tables (see
    /// [`RangeSnapshot::try_freeze`]) is answered from its float freeze
    /// instead.
    #[must_use]
    pub fn freeze<S: SnapshotSource>(server: &S, version: u64) -> Self {
        Self::try_freeze(server, version).unwrap_or_else(|_| Self {
            answers: Answers::Frozen(server.frequency_estimate()),
            items: OnceLock::new(),
            num_reports: server.num_reports(),
            version,
        })
    }

    /// [`RangeSnapshot::freeze`], refusing a state whose statistics are
    /// too large for exact prefix tables.
    ///
    /// # Errors
    ///
    /// As [`SnapshotSource::tables_into`].
    pub fn try_freeze<S: SnapshotSource>(server: &S, version: u64) -> Result<Self, ServiceError> {
        Self::freeze_into(server, version, PrefixTables::default())
    }

    /// [`RangeSnapshot::try_freeze`] built over `spare`'s buffers: the
    /// same answers, and no `O(D)` allocation once the buffers are warm.
    ///
    /// # Errors
    ///
    /// As [`SnapshotSource::tables_into`].
    pub fn freeze_into<S: SnapshotSource>(
        server: &S,
        version: u64,
        spare: PrefixTables,
    ) -> Result<Self, ServiceError> {
        let tables = server.tables_into(spare)?;
        Ok(Self::from_tables(tables, server.num_reports(), version))
    }

    /// Builds a snapshot directly from its tables.
    #[must_use]
    pub fn from_tables(tables: PrefixTables, num_reports: u64, version: u64) -> Self {
        Self {
            answers: Answers::Tables(tables),
            items: OnceLock::new(),
            num_reports,
            version,
        }
    }

    /// Domain size `D`.
    #[must_use]
    pub fn domain(&self) -> usize {
        self.answers.estimate().domain()
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
        self.answers.estimate().range(a, b)
    }

    /// Estimated prefix fraction `R[0, b]`.
    #[must_use]
    pub fn prefix(&self, b: usize) -> f64 {
        self.answers.estimate().prefix(b)
    }

    /// Estimated frequency of one item.
    #[must_use]
    pub fn point(&self, z: usize) -> f64 {
        self.answers.estimate().point(z)
    }

    /// Estimated φ-quantile (binary search over the estimated CDF, §4.7).
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ phi ≤ 1`.
    #[must_use]
    pub fn quantile(&self, phi: f64) -> usize {
        quantile(self.answers.estimate(), phi)
    }

    /// The per-item frequency estimate. For tables it is built on first
    /// call, `frequencies()[z]` being [`RangeSnapshot::point`]`(z)` to the
    /// bit — `O(D·h²)` once, for comparisons and exports; queries never
    /// build it.
    #[must_use]
    pub fn estimate(&self) -> &FrequencyEstimate {
        match &self.answers {
            Answers::Frozen(estimate) => estimate,
            Answers::Tables(tables) => self.items.get_or_init(|| {
                FrequencyEstimate::new((0..tables.domain()).map(|z| tables.point(z)).collect())
            }),
        }
    }

    /// Consumes the snapshot, returning its tables — how a retired
    /// snapshot's buffers go back to a publish — or `None` for a float
    /// freeze.
    #[must_use]
    pub fn into_tables(self) -> Option<PrefixTables> {
        match self.answers {
            Answers::Tables(tables) => Some(tables),
            Answers::Frozen(_) => None,
        }
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
        // Bit for bit the evaluator on the same integers, and within the
        // derived tolerance of the float freeze.
        let tables = server.prefix_tables().unwrap();
        let direct = server.estimate_consistent().to_frequency_estimate();
        let tol = tables.freeze_tolerance();
        for (a, b) in [(0, 63), (16, 47), (5, 5)] {
            assert_eq!(snap.range(a, b).to_bits(), tables.range(a, b).to_bits());
            assert!((snap.range(a, b) - direct.range(a, b)).abs() <= tol);
        }
        assert_eq!(snap.quantile(0.5), quantile(&tables, 0.5));
        assert_eq!(snap.quantile(0.5), quantile(&direct, 0.5));
        assert!((snap.prefix(63) - 1.0).abs() < 0.05);
        for z in 0..64 {
            assert_eq!(
                snap.estimate().frequencies()[z].to_bits(),
                snap.point(z).to_bits()
            );
        }
    }
}
