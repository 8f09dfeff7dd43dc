//! Mergeable aggregator state — the substrate for sharded, distributed
//! aggregation.
//!
//! Every mechanism's server accumulates *sufficient statistics* that are
//! plain integer sums over user reports (noisy bit counts for OUE/SUE,
//! support counts for OLH, signed coefficient sums for HRR). Sums are
//! associative and commutative, so a population can be split across any
//! number of independent shards — each absorbing its own cohort — and the
//! shard states added together afterwards. The merged state is *identical*
//! (bit-for-bit, not just statistically) to what a single server absorbing
//! every report in sequence would hold, which is what makes the sharded
//! service in `ldp-service` a pure performance change with no accuracy
//! semantics of its own.
//!
//! [`MergeableServer`] captures that contract behind one trait so generic
//! infrastructure (shard pools, load generators, snapshot builders) can be
//! written once for all six mechanisms. [`SubtractableServer`] — exact
//! un-merge, in-place clear and the fused merge-and-clear drain, which
//! windows and shard drains need — is implemented for the three
//! mechanisms `ldp-service` serves: flat, `HH_B` and HaarHRR.
//!
//! Each server is a slice of level oracles (the flat server is one
//! level), and each oracle's state is one [`ldp_freq_oracle::Tally`]: a
//! statistic per item and a report total, whose merge, subtract, clear
//! and drain are written once there. A server merges, subtracts, clears
//! or drains through one helper over its levels. A subtract checks every
//! level — its configuration, then
//! [`ldp_freq_oracle::Tally::check_subtract`] — before it changes any,
//! and the subtraction that follows cannot fail, so a refused subtract
//! leaves the server as it was.

use crate::error::RangeError;
use crate::flat::FlatServer;
use crate::haar::calibration::{HaarOueReport, HaarOueServer};
use crate::haar::{HaarHrrReport, HaarHrrServer};
use crate::hh::split::{HhSplitReport, HhSplitServer};
use crate::hh::{HhReport, HhServer};
use crate::multidim::{Hh2dReport, Hh2dServer};
use ldp_freq_oracle::{AnyReport, PointOracle};

/// An aggregator whose state from disjoint user cohorts can be combined
/// exactly.
///
/// # Contract
///
/// For any partition of a report sequence into shards, absorbing each
/// shard into its own fresh server and merging the results must leave the
/// same state as absorbing the full sequence into one server:
///
/// ```text
/// merge(absorb_all(s₁, A), absorb_all(s₂, B))  ==  absorb_all(s, A ++ B)
/// ```
///
/// In particular `merge` is associative and commutative, and the order in
/// which reports are absorbed never matters. Implementations uphold this
/// by keeping only integer sufficient statistics; the service crate's
/// property tests check it for every mechanism.
pub trait MergeableServer: Clone + Send {
    /// The per-user report type this server absorbs.
    type Report: Clone + Send + Sync;

    /// Accumulates one user report.
    ///
    /// # Errors
    ///
    /// Rejects reports whose shape does not match this server.
    fn absorb(&mut self, report: &Self::Report) -> Result<(), RangeError>;

    /// Accumulates one user report like [`MergeableServer::absorb`] —
    /// validated identically, and a rejected report mutates nothing — but
    /// its contribution may stay pending in the oracles
    /// ([`PointOracle::absorb_deferred`]) until
    /// [`MergeableServer::settle`]. A pending report counts in
    /// [`MergeableServer::num_reports`] at once. Statistics settle when
    /// read, not at the end of a batch: pending reports may span batches,
    /// a drain ([`SubtractableServer::drain`]) moves them out without
    /// settling, and every other reader of the state (`merge`, `subtract`,
    /// estimates, persistence) requires settled state — debug builds
    /// assert it — so whoever reads a server that absorbs deferred settles
    /// it first.
    ///
    /// The default is [`MergeableServer::absorb`]: nothing is ever pending.
    ///
    /// # Errors
    ///
    /// As [`MergeableServer::absorb`].
    fn absorb_deferred(&mut self, report: &Self::Report) -> Result<(), RangeError> {
        self.absorb(report)
    }

    /// Folds every pending report into the state, leaving it exactly as
    /// absorbing each report with [`MergeableServer::absorb`] would: what
    /// a reader other than a drain runs first. Idempotent; the default,
    /// for servers whose oracles never defer, does nothing.
    fn settle(&mut self) {}

    /// Adds another shard's accumulated state into this one.
    ///
    /// # Errors
    ///
    /// Rejects shards built from a different configuration.
    fn merge(&mut self, other: &Self) -> Result<(), RangeError>;

    /// Total number of reports reflected in this state.
    fn num_reports(&self) -> u64;
}

/// A mergeable aggregator whose merges can also be *undone* exactly.
///
/// # Contract
///
/// `subtract` is the bit-identical inverse of [`MergeableServer::merge`]:
/// for any states `a` and `b` of the same shape,
///
/// ```text
/// merge(a, b).subtract(b)  ==  a        (bit-for-bit)
/// ```
///
/// This holds because every mechanism's state is a vector of integer
/// sufficient statistics — integer addition is exactly invertible, with
/// none of the rounding drift a float accumulator would pick up. The
/// capability is what makes sliding-window aggregation cheap: a window of
/// `K` epochs retires its oldest epoch with one `subtract` (`O(state)`)
/// instead of re-merging the surviving `K − 1` epochs from scratch.
///
/// Subtracting state that was never merged in is a contract violation;
/// implementations detect it where the integers can witness it (a count
/// would go negative, a report total would underflow) and reject with an
/// error, leaving the accumulator unchanged.
pub trait SubtractableServer: MergeableServer {
    /// Removes another accumulator's state from this one — the exact
    /// inverse of [`MergeableServer::merge`].
    ///
    /// # Errors
    ///
    /// Rejects accumulators built from a different configuration, and
    /// state that was detectably never merged into this one.
    fn subtract(&mut self, other: &Self) -> Result<(), RangeError>;

    /// Resets this accumulator in place to the additive identity — the
    /// state a freshly built server of the same configuration holds —
    /// with no allocation, so `clear` then `merge(b)` holds exactly `b`.
    fn clear(&mut self);

    /// Moves `other`'s state into this accumulator: exactly
    /// [`MergeableServer::settle`] and [`MergeableServer::merge`] of
    /// `other`, then [`SubtractableServer::clear`] of it, fused into one
    /// pass over each statistic. `other` need not be settled: a unary
    /// level's pending reports are spilled straight into this
    /// accumulator in the pass that moves its counts, and counts known to
    /// be zero are not read ([`ldp_freq_oracle::PointOracle::drain`]).
    /// This is how a sharded service drains a shard into its accumulator:
    /// one pass, no copy, no settle.
    ///
    /// # Errors
    ///
    /// As [`MergeableServer::merge`], leaving both sides unchanged.
    fn drain(&mut self, other: &mut Self) -> Result<(), RangeError>;
}

/// Adds `theirs` into `mine` level by level — the one merge body of
/// every server. Every level's configuration is checked before any
/// tally changes, so a refused merge changes nothing.
fn merge_tallies<O: PointOracle>(mine: &mut [O], theirs: &[O]) -> Result<(), RangeError> {
    ensure_same_levels(mine, theirs)?;
    for (a, b) in mine.iter_mut().zip(theirs) {
        a.tally_mut().merge(b.tally());
    }
    Ok(())
}

/// Moves `theirs` into `mine` level by level, leaving `theirs` empty —
/// the one drain body of every served server:
/// [`PointOracle::drain`] per level (a unary level's pending reports spill
/// straight into `mine`), after the same check as [`merge_tallies`], so a
/// refused drain changes neither side.
fn drain_tallies<O: PointOracle>(mine: &mut [O], theirs: &mut [O]) -> Result<(), RangeError> {
    ensure_same_levels(mine, theirs)?;
    for (a, b) in mine.iter_mut().zip(theirs) {
        a.drain(b);
    }
    Ok(())
}

/// Subtracts `theirs` from `mine` level by level, all or nothing — the
/// one subtract body of every server. Every level's configuration and
/// tally is checked ([`ldp_freq_oracle::Tally::check_subtract`]) before
/// any is changed, and the subtraction that follows cannot fail.
fn subtract_tallies<O: PointOracle>(mine: &mut [O], theirs: &[O]) -> Result<(), RangeError> {
    ensure_same_levels(mine, theirs)?;
    for (a, b) in mine.iter().zip(theirs) {
        a.tally().check_subtract(b.tally())?;
    }
    for (a, b) in mine.iter_mut().zip(theirs) {
        a.tally_mut().apply_subtract(b.tally());
    }
    Ok(())
}

/// The check before two servers' levels combine: as many levels, each
/// the same primitive over the same domain under the same ε. That fixes
/// the configuration: `HH_B`'s level domains are `B, B², …, D`,
/// HaarHRR's `1, 2, …, D/2`.
fn ensure_same_levels<O: PointOracle>(mine: &[O], theirs: &[O]) -> Result<(), RangeError> {
    if mine.len() != theirs.len() {
        return Err(RangeError::ReportShapeMismatch);
    }
    for (a, b) in mine.iter().zip(theirs) {
        a.ensure_same(b)?;
    }
    Ok(())
}

/// Resets every level to its empty tally, dropping pending reports.
fn clear_tallies<O: PointOracle>(levels: &mut [O]) {
    levels.iter_mut().for_each(PointOracle::clear);
}

fn settle_all<O: PointOracle>(oracles: &mut [O]) {
    oracles.iter_mut().for_each(PointOracle::settle);
}

/// The servers that defer: each is a slice of level oracles
/// (`oracles`/`oracles_mut`), so settling and merging are the level
/// helpers', and only absorbing is the server's own.
macro_rules! deferring_servers {
    ($($server:ty => $report:ty),+ $(,)?) => {$(
        impl MergeableServer for $server {
            type Report = $report;

            fn absorb(&mut self, report: &Self::Report) -> Result<(), RangeError> {
                <$server>::absorb(self, report)
            }

            fn absorb_deferred(&mut self, report: &Self::Report) -> Result<(), RangeError> {
                <$server>::absorb_deferred(self, report)
            }

            fn settle(&mut self) {
                settle_all(self.oracles_mut());
            }

            fn merge(&mut self, other: &Self) -> Result<(), RangeError> {
                merge_tallies(self.oracles_mut(), other.oracles())
            }

            fn num_reports(&self) -> u64 {
                <$server>::num_reports(self)
            }
        }
    )+};
}

deferring_servers!(
    FlatServer => AnyReport,
    HhServer => HhReport,
    HhSplitServer => HhSplitReport,
    HaarOueServer => HaarOueReport,
    Hh2dServer => Hh2dReport,
);

/// HRR levels absorb at once, so HaarHRR never has anything to settle.
impl MergeableServer for HaarHrrServer {
    type Report = HaarHrrReport;

    fn absorb(&mut self, report: &Self::Report) -> Result<(), RangeError> {
        HaarHrrServer::absorb(self, report)
    }

    fn merge(&mut self, other: &Self) -> Result<(), RangeError> {
        merge_tallies(self.oracles_mut(), other.oracles())
    }

    fn num_reports(&self) -> u64 {
        HaarHrrServer::num_reports(self)
    }
}

/// The served mechanisms subtract, clear and drain through the level
/// helpers.
macro_rules! subtractable_servers {
    ($($server:ty),+) => {$(
        impl SubtractableServer for $server {
            fn subtract(&mut self, other: &Self) -> Result<(), RangeError> {
                subtract_tallies(self.oracles_mut(), other.oracles())
            }

            fn clear(&mut self) {
                clear_tallies(self.oracles_mut());
            }

            fn drain(&mut self, other: &mut Self) -> Result<(), RangeError> {
                drain_tallies(self.oracles_mut(), other.oracles_mut())
            }
        }
    )+};
}

subtractable_servers!(FlatServer, HhServer, HaarHrrServer);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FlatConfig, HaarConfig, HhConfig};
    use crate::estimate::RangeEstimate;
    use crate::flat::FlatClient;
    use crate::haar::calibration::HaarOueClient;
    use crate::haar::HaarHrrClient;
    use crate::hh::split::HhSplitClient;
    use crate::hh::HhClient;
    use crate::multidim::{Hh2dClient, Hh2dConfig};
    use crate::persist::PersistableServer;
    use ldp_freq_oracle::{Epsilon, FrequencyOracle, OracleError};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Generic helper exercising the trait contract through a `dyn`-free
    /// generic path: shard-merge equals sequential absorb exactly.
    fn assert_sharded_equals_sequential<S, F, R>(
        make: F,
        reports: &[S::Report],
        shards: usize,
        estimate: R,
    ) where
        S: MergeableServer,
        F: Fn() -> S,
        R: Fn(&S) -> Vec<f64>,
    {
        let mut sequential = make();
        for r in reports {
            sequential.absorb(r).unwrap();
        }

        let mut pool: Vec<S> = (0..shards).map(|_| make()).collect();
        for (i, r) in reports.iter().enumerate() {
            pool[i % shards].absorb(r).unwrap();
        }
        let mut merged = pool.remove(0);
        for shard in &pool {
            merged.merge(shard).unwrap();
        }

        assert_eq!(sequential.num_reports(), merged.num_reports());
        let a = estimate(&sequential);
        let b = estimate(&merged);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert!(
                x.to_bits() == y.to_bits(),
                "merged estimate differs: {x} vs {y}"
            );
        }
    }

    #[test]
    fn flat_sharding_is_exact() {
        let eps = Epsilon::new(1.1);
        let config = FlatConfig::new(32, eps).unwrap();
        let client = FlatClient::new(&config).unwrap();
        let mut rng = StdRng::seed_from_u64(301);
        let reports: Vec<_> = (0..500)
            .map(|i| client.report(i % 32, &mut rng).unwrap())
            .collect();
        assert_sharded_equals_sequential(
            || FlatServer::new(&config).unwrap(),
            &reports,
            4,
            |s: &FlatServer| s.estimate().frequencies().to_vec(),
        );
    }

    #[test]
    fn hh_sharding_is_exact() {
        let eps = Epsilon::new(1.1);
        let config = HhConfig::new(64, 4, eps).unwrap();
        let client = HhClient::new(config.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(302);
        let reports: Vec<_> = (0..500)
            .map(|i| client.report(i % 64, &mut rng).unwrap())
            .collect();
        assert_sharded_equals_sequential(
            || HhServer::new(config.clone()).unwrap(),
            &reports,
            3,
            |s: &HhServer| s.estimate_consistent().to_frequency_estimate().cdf(),
        );
    }

    /// `merge(a, b).subtract(b) ≡ a` bit-for-bit, and subtracting the
    /// same state twice underflows rather than corrupting.
    fn assert_subtract_inverts_merge<S, F, R>(make: F, reports: &[S::Report], estimate: R)
    where
        S: SubtractableServer,
        F: Fn() -> S,
        R: Fn(&S) -> Vec<f64>,
    {
        let split = reports.len() / 2;
        let mut a = make();
        for r in &reports[..split] {
            a.absorb(r).unwrap();
        }
        let mut b = make();
        for r in &reports[split..] {
            b.absorb(r).unwrap();
        }
        let before = estimate(&a);
        let mut merged = a.clone();
        merged.merge(&b).unwrap();
        merged.subtract(&b).unwrap();
        assert_eq!(a.num_reports(), merged.num_reports());
        for (x, y) in before.iter().zip(&estimate(&merged)) {
            assert!(
                x.to_bits() == y.to_bits(),
                "subtract did not invert merge: {x} vs {y}"
            );
        }
        // `b` is gone from `merged`; removing it again must be rejected
        // (unless b is empty, in which case it is a no-op).
        if b.num_reports() > 0 {
            assert!(merged.subtract(&b).is_err(), "double subtraction allowed");
        }
    }

    #[test]
    fn flat_subtract_inverts_merge() {
        let eps = Epsilon::new(1.1);
        let config = FlatConfig::new(32, eps).unwrap();
        let client = FlatClient::new(&config).unwrap();
        let mut rng = StdRng::seed_from_u64(311);
        let reports: Vec<_> = (0..400)
            .map(|i| client.report(i % 32, &mut rng).unwrap())
            .collect();
        assert_subtract_inverts_merge(
            || FlatServer::new(&config).unwrap(),
            &reports,
            |s: &FlatServer| s.estimate().frequencies().to_vec(),
        );
    }

    #[test]
    fn hh_subtract_inverts_merge() {
        let eps = Epsilon::new(1.1);
        let config = HhConfig::new(64, 4, eps).unwrap();
        let client = HhClient::new(config.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(312);
        let reports: Vec<_> = (0..400)
            .map(|i| client.report(i % 64, &mut rng).unwrap())
            .collect();
        assert_subtract_inverts_merge(
            || HhServer::new(config.clone()).unwrap(),
            &reports,
            |s: &HhServer| s.estimate_consistent().to_frequency_estimate().cdf(),
        );
    }

    #[test]
    fn haar_subtract_inverts_merge() {
        let eps = Epsilon::new(1.1);
        let config = HaarConfig::new(64, eps).unwrap();
        let client = HaarHrrClient::new(config.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(313);
        let reports: Vec<_> = (0..400)
            .map(|i| client.report(i % 64, &mut rng).unwrap())
            .collect();
        assert_subtract_inverts_merge(
            || HaarHrrServer::new(config.clone()).unwrap(),
            &reports,
            |s: &HaarHrrServer| s.estimate().to_frequency_estimate().cdf(),
        );
    }

    /// A subtrahend equal to `server` on every level but the last, where
    /// it holds one report more: the in-place subtraction runs through
    /// every earlier level before it refuses, and must leave them all
    /// exactly as they were.
    fn assert_last_level_underflow_restores<S>(server: &S, bump_last: impl FnOnce(&mut S))
    where
        S: SubtractableServer + PersistableServer,
    {
        let bytes = |s: &S| {
            let mut out = Vec::new();
            s.persist_state(&mut out);
            out
        };
        let mut other = server.clone();
        bump_last(&mut other);
        let mut refused = server.clone();
        assert_eq!(
            refused.subtract(&other),
            Err(RangeError::Oracle(OracleError::SubtractUnderflow))
        );
        assert_eq!(bytes(&refused), bytes(server), "refused subtract mutated");
        assert_eq!(refused.num_reports(), server.num_reports());
    }

    /// Absorbs one fresh report into the last of `oracles`.
    fn bump_last<O: PointOracle>(oracles: &mut [O], rng: &mut StdRng) {
        let last = oracles.last_mut().unwrap();
        let report = last.encode(0, rng).unwrap();
        last.absorb(&report).unwrap();
    }

    /// Redraws the last of `oracles` as as many fresh reports as it held:
    /// the report total matches, but some count is above what it was.
    fn reroll_last<O: PointOracle>(oracles: &mut [O], rng: &mut StdRng) {
        let last = oracles.last_mut().unwrap();
        let reports = last.num_reports();
        last.clear();
        for i in 0..reports {
            let report = last.encode(i as usize * 7 % last.domain(), rng).unwrap();
            last.absorb(&report).unwrap();
        }
    }

    /// `HH_B` over `kind` refuses a subtrahend with one report more on its
    /// last level, and — for the oracles whose counts can witness it — one
    /// with the same report total but a count it never held; both leave
    /// every level as it was.
    fn hh_last_level_underflow(kind: FrequencyOracle) {
        let mut rng = StdRng::seed_from_u64(321);
        let config = HhConfig::with_oracle(64, 4, Epsilon::new(1.1), kind).unwrap();
        let client = HhClient::new(config.clone()).unwrap();
        let mut server = HhServer::new(config).unwrap();
        for i in 0..300 {
            server
                .absorb(&client.report(i % 64, &mut rng).unwrap())
                .unwrap();
        }
        assert_last_level_underflow_restores(&server, |s| bump_last(s.oracles_mut(), &mut rng));
        if kind != FrequencyOracle::Hrr {
            assert_last_level_underflow_restores(&server, |s| {
                reroll_last(s.oracles_mut(), &mut rng);
            });
        }
    }

    #[test]
    fn hh_last_level_underflow_leaves_state() {
        for kind in [
            FrequencyOracle::Oue,
            FrequencyOracle::Olh,
            FrequencyOracle::Hrr,
            FrequencyOracle::Sue,
        ] {
            hh_last_level_underflow(kind);
        }
    }

    #[test]
    fn haar_hrr_last_level_underflow_leaves_state() {
        let mut rng = StdRng::seed_from_u64(323);
        let config = HaarConfig::new(64, Epsilon::new(1.1)).unwrap();
        let client = HaarHrrClient::new(config.clone()).unwrap();
        let mut server = HaarHrrServer::new(config).unwrap();
        for i in 0..300 {
            server
                .absorb(&client.report(i % 64, &mut rng).unwrap())
                .unwrap();
        }
        assert_last_level_underflow_restores(&server, |s| bump_last(s.oracles_mut(), &mut rng));
    }

    /// A drain leaves the accumulator with the bytes of a merge and the
    /// drained side with those of a clear — every served mechanism,
    /// `HH_B` over every fanout and level oracle — and refuses another
    /// shape unchanged.
    #[test]
    fn drain_is_merge_then_clear() {
        fn check<S: SubtractableServer + PersistableServer>(mut acc: S, mut shard: S, what: &str) {
            let bytes = |s: &S| {
                let mut out = Vec::new();
                s.persist_state(&mut out);
                out
            };
            let (mut merged, mut cleared) = (acc.clone(), shard.clone());
            merged.merge(&cleared).unwrap();
            cleared.clear();
            acc.drain(&mut shard).unwrap();
            assert_eq!(bytes(&acc), bytes(&merged), "{what}: accumulator");
            assert_eq!(bytes(&shard), bytes(&cleared), "{what}: drained shard");
        }
        let eps = Epsilon::from_exp(3.0);
        let mut rng = StdRng::seed_from_u64(331);
        for (kind, fanout, domain) in [
            (FrequencyOracle::Oue, 2, 256),
            (FrequencyOracle::Oue, 3, 243),
            (FrequencyOracle::Oue, 4, 256),
            (FrequencyOracle::Oue, 16, 256),
            (FrequencyOracle::Olh, 4, 64),
            (FrequencyOracle::Hrr, 2, 256),
            (FrequencyOracle::Hrr, 4, 256),
        ] {
            let config = HhConfig::with_oracle(domain, fanout, eps, kind).unwrap();
            let mut pair = [(); 2].map(|()| HhServer::new(config.clone()).unwrap());
            for (k, server) in pair.iter_mut().enumerate() {
                let counts: Vec<u64> = (0..domain as u64).map(|z| (z * 7 + k as u64) % 5).collect();
                server.absorb_population(&counts, &mut rng).unwrap();
            }
            let [acc, shard] = pair;
            check(acc, shard, &format!("HH_{fanout} {kind}"));
        }
        for domain in [2, 64, 1024] {
            let config = HaarConfig::new(domain, eps).unwrap();
            let mut pair = [(); 2].map(|()| HaarHrrServer::new(config.clone()).unwrap());
            for (k, server) in pair.iter_mut().enumerate() {
                let counts: Vec<u64> = (0..domain as u64).map(|z| (z * 3 + k as u64) % 4).collect();
                server.absorb_population(&counts, &mut rng).unwrap();
            }
            let [acc, shard] = pair;
            check(acc, shard, &format!("HaarHRR D={domain}"));
        }
        let mut a = HhServer::new(HhConfig::new(64, 2, eps).unwrap()).unwrap();
        let mut b = HhServer::new(HhConfig::new(64, 4, eps).unwrap()).unwrap();
        b.absorb_population(&[1; 64], &mut rng).unwrap();
        let before = b.num_reports();
        assert!(a.drain(&mut b).is_err());
        assert_eq!((a.num_reports(), b.num_reports()), (0, before));
    }

    #[test]
    fn subtract_rejects_mismatched_shapes() {
        let eps = Epsilon::new(1.0);
        let mut a = HhServer::new(HhConfig::new(64, 2, eps).unwrap()).unwrap();
        let b = HhServer::new(HhConfig::new(64, 4, eps).unwrap()).unwrap();
        assert!(SubtractableServer::subtract(&mut a, &b).is_err());
    }

    #[test]
    fn haar_sharding_is_exact() {
        let eps = Epsilon::new(1.1);
        let config = HaarConfig::new(64, eps).unwrap();
        let client = HaarHrrClient::new(config.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(303);
        let reports: Vec<_> = (0..500)
            .map(|i| client.report(i % 64, &mut rng).unwrap())
            .collect();
        assert_sharded_equals_sequential(
            || HaarHrrServer::new(config.clone()).unwrap(),
            &reports,
            5,
            |s: &HaarHrrServer| s.estimate().to_frequency_estimate().cdf(),
        );
    }

    // The ablations the service does not serve still merge exactly, and
    // refuse a shard of another shape.

    #[test]
    fn hh_split_sharding_is_exact() {
        let config = HhConfig::new(64, 2, Epsilon::new(1.4)).unwrap();
        let client = HhSplitClient::new(config.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(304);
        let reports: Vec<_> = (0..150)
            .map(|i| client.report((i * 5) % 64, &mut rng).unwrap())
            .collect();
        assert_sharded_equals_sequential(
            || HhSplitServer::new(config.clone()).unwrap(),
            &reports,
            4,
            |s: &HhSplitServer| s.estimate_consistent().to_frequency_estimate().cdf(),
        );
        let mut a = HhSplitServer::new(config).unwrap();
        let b = HhSplitServer::new(HhConfig::new(64, 4, Epsilon::new(1.4)).unwrap()).unwrap();
        assert!(MergeableServer::merge(&mut a, &b).is_err());
    }

    #[test]
    fn haar_oue_sharding_is_exact() {
        let config = HaarConfig::new(64, Epsilon::new(0.8)).unwrap();
        let client = HaarOueClient::new(config.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(305);
        let reports: Vec<_> = (0..200)
            .map(|i| client.report((i * 3) % 64, &mut rng).unwrap())
            .collect();
        assert_sharded_equals_sequential(
            || HaarOueServer::new(config.clone()).unwrap(),
            &reports,
            4,
            |s: &HaarOueServer| s.estimate().to_frequency_estimate().cdf(),
        );
        let mut a = HaarOueServer::new(config).unwrap();
        let b = HaarOueServer::new(HaarConfig::new(32, Epsilon::new(0.8)).unwrap()).unwrap();
        assert!(MergeableServer::merge(&mut a, &b).is_err());
    }

    #[test]
    fn hh2d_sharding_is_exact() {
        let config = Hh2dConfig::new(16, 2, Epsilon::new(1.1)).unwrap();
        let client = Hh2dClient::new(config.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(306);
        let reports: Vec<_> = (0..150)
            .map(|i| client.report(i % 16, (i * 3) % 16, &mut rng).unwrap())
            .collect();
        assert_sharded_equals_sequential(
            || Hh2dServer::new(config.clone()).unwrap(),
            &reports,
            4,
            |s: &Hh2dServer| {
                let est = s.estimate();
                [(0, 15, 0, 15), (0, 7, 8, 15), (3, 12, 2, 9), (5, 5, 5, 5)]
                    .iter()
                    .map(|&(a, b, c, d)| est.rectangle(a, b, c, d))
                    .collect()
            },
        );
        let mut a = Hh2dServer::new(config).unwrap();
        let b = Hh2dServer::new(Hh2dConfig::new(8, 2, Epsilon::new(1.1)).unwrap()).unwrap();
        assert!(MergeableServer::merge(&mut a, &b).is_err());
    }
}
