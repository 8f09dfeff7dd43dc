//! The frequency-oracle abstraction shared by all point-query mechanisms.

use rand::RngCore;

use crate::{Epsilon, OracleError, Tally};

/// A locally differentially private frequency oracle over a finite domain
/// `[D]` (paper §3.2).
///
/// One instance plays both roles of the protocol:
///
/// * **client side** — [`PointOracle::encode`] is a pure function of the
///   oracle's public parameters; it perturbs a single user's value into a
///   report. Nothing about other users is consulted, so calling it is
///   exactly what an end-user device would do.
/// * **aggregator side** — [`PointOracle::absorb`] accumulates reports and
///   [`PointOracle::estimate_into`] applies the mechanism's bias correction
///   to produce unbiased frequency estimates `θ̂`.
///
/// For population-scale experiments, [`PointOracle::absorb_population`]
/// draws the *aggregate* the server would have received from a cohort with
/// the given true counts — the statistically equivalent simulation the
/// paper uses to reach `N = 2^26` (§5).
pub trait PointOracle {
    /// The message one user transmits.
    type Report: Clone;

    /// Domain size `D`.
    fn domain(&self) -> usize;

    /// Privacy budget ε of each report.
    fn epsilon(&self) -> Epsilon;

    /// Perturbs one user's `value ∈ [D]` into a transmittable report.
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::ValueOutOfDomain`] when `value ≥ D`.
    fn encode(&self, value: usize, rng: &mut dyn RngCore) -> Result<Self::Report, OracleError>;

    /// Accumulates one report on the aggregator.
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::ReportDomainMismatch`] if the report shape
    /// does not match this oracle's domain.
    fn absorb(&mut self, report: &Self::Report) -> Result<(), OracleError>;

    /// Accumulates one report like [`PointOracle::absorb`] — validated
    /// identically, rejected with the same error and nothing mutated — but
    /// its contribution may stay *pending* until it is read. A pending
    /// report already counts in [`PointOracle::num_reports`]. Statistics
    /// settle when read, not at the end of a batch: a drain
    /// ([`PointOracle::drain`]) moves pending reports straight into
    /// the accumulator it drains into, and everything else that reads the
    /// accumulated statistics (estimates, merge, subtract, persisted
    /// state) requires settled state, so its caller runs
    /// [`PointOracle::settle`] first. Pending reports may span any number
    /// of batches, up to the oracle's own bound (the unary encodings stage
    /// reports as rows, fold every sixteen into bit planes, and settle by
    /// themselves at 255 pending), which lets an oracle amortize
    /// per-report work across them.
    ///
    /// The default is [`PointOracle::absorb`]: nothing is ever pending.
    ///
    /// # Errors
    ///
    /// As [`PointOracle::absorb`].
    fn absorb_deferred(&mut self, report: &Self::Report) -> Result<(), OracleError> {
        self.absorb(report)
    }

    /// Folds every pending report into the accumulated statistics,
    /// leaving them exactly as absorbing each report with
    /// [`PointOracle::absorb`] would. What a reader other than a drain
    /// runs first; a batch does not. Idempotent; the default, for oracles
    /// that never defer, does nothing.
    fn settle(&mut self) {}

    /// Moves `other`'s state into this oracle — exactly settling `other`,
    /// adding its tally into this one's and clearing it — in one pass
    /// that adds each statistic and zeroes it where it was read: how a
    /// service moves one level of a shard into its accumulator. Check
    /// [`PointOracle::ensure_same`] first.
    ///
    /// A drain reads `other` without settling it: a unary oracle spills
    /// `other`'s pending reports straight into this one's counts, in the
    /// same pass that moves `other`'s counts, which it skips when they
    /// are known to be zero. The default is [`Tally::drain`].
    fn drain(&mut self, other: &mut Self)
    where
        Self: Sized,
    {
        self.tally_mut().drain(other.tally_mut());
    }

    /// Absorbs an entire cohort at once: `true_counts[z]` users hold value
    /// `z`. Statistically equivalent to encoding and absorbing each user
    /// individually, but orders of magnitude faster.
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::ReportDomainMismatch`] if
    /// `true_counts.len() != D`.
    fn absorb_population(
        &mut self,
        true_counts: &[u64],
        rng: &mut dyn RngCore,
    ) -> Result<(), OracleError>;

    /// Number of reports absorbed so far.
    fn num_reports(&self) -> u64;

    /// Which primitive this is.
    fn kind(&self) -> FrequencyOracle;

    /// The accumulated statistics and report total — with the
    /// configuration, the oracle's whole state, and what merge,
    /// subtract, clear and checkpoints work on. A unary oracle asserts in
    /// debug builds that no report is pending.
    fn tally(&self) -> &Tally;

    /// Mutable [`PointOracle::tally`]; check [`PointOracle::ensure_same`]
    /// before combining it with another oracle's.
    fn tally_mut(&mut self) -> &mut Tally;

    /// The check merge and subtract run before touching state: `other`
    /// must be the same primitive over the same domain under the same ε.
    ///
    /// # Errors
    ///
    /// [`OracleError::ReportDomainMismatch`] when the kinds or domains
    /// differ and [`OracleError::EpsilonMismatch`] when only ε does.
    fn ensure_same(&self, other: &Self) -> Result<(), OracleError>
    where
        Self: Sized,
    {
        if other.kind() != self.kind() || other.domain() != self.domain() {
            return Err(OracleError::ReportDomainMismatch {
                report: other.domain(),
                server: self.domain(),
            });
        }
        if other.epsilon() != self.epsilon() {
            return Err(OracleError::EpsilonMismatch {
                other: other.epsilon().value().to_bits(),
                server: self.epsilon().value().to_bits(),
            });
        }
        Ok(())
    }

    /// Resets the accumulated statistics in place to the additive
    /// identity — exactly what a freshly built oracle of the same
    /// configuration holds — without reallocating. Pending reports are
    /// dropped with the rest.
    fn clear(&mut self);

    /// Writes the unbiased estimates `θ̂[z]` of the fraction of users
    /// holding each value into `out[z]` — all-zero if no reports have been
    /// absorbed. This is each oracle's one estimator body: it overwrites
    /// every slot whatever `out` held before, so a caller may hand it a
    /// level of a larger buffer (a tree, a pyramid, a grid) and skip both
    /// the per-level allocation and the copy.
    ///
    /// # Panics
    ///
    /// Panics unless `out.len() == D`.
    fn estimate_into(&self, out: &mut [f64]);

    /// The affine map from this oracle's per-item integer statistic `t`
    /// ([`PointOracle::statistic_prefix_into`]) to its estimate:
    /// `θ̂[z] = scale·t[z] + offset`, the estimator
    /// [`PointOracle::estimate_into`] evaluates, up to rounding. Both are
    /// zero with no reports, where that writes zeros.
    fn estimate_map(&self) -> EstimateMap;

    /// Writes the running prefix of the per-item integer statistic `t`:
    /// `out[0] = 0` and `out[z + 1] = t[0] + … + t[z]`. For the count
    /// oracles `t` is the tally as it is; for HRR it is the exact
    /// Walsh–Hadamard transform of the signed sums. First checks, once,
    /// that no entry can leave `i64`.
    ///
    /// # Errors
    ///
    /// [`OracleError::StatisticOverflow`] when the bound fails, with `out`
    /// unspecified.
    ///
    /// # Panics
    ///
    /// Panics unless `out.len() == D + 1`.
    fn statistic_prefix_into(&self, out: &mut [i64]) -> Result<(), OracleError>;

    /// [`PointOracle::estimate_into`] into a freshly allocated vector.
    fn estimate(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.domain()];
        self.estimate_into(&mut out);
        out
    }

    /// The theoretical per-item estimator variance `VF` for the current
    /// number of absorbed reports (paper §3.2: `≈ 4e^ε / (N (e^ε − 1)^2)`
    /// for all three mechanisms).
    fn theoretical_variance(&self) -> f64;
}

/// An oracle's estimator as an affine map of its per-item integer
/// statistic ([`PointOracle::estimate_map`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EstimateMap {
    /// Multiplies the statistic.
    pub scale: f64,
    /// Added per item.
    pub offset: f64,
}

impl EstimateMap {
    /// The unbiasing map of a report total `reports` whose statistic is a
    /// sum of Bernoulli indicators, one per report, with probability `p`
    /// for an item's own holders and `q` for everyone else:
    /// `(t/N − q)/(p − q)`. Zero with no reports.
    #[must_use]
    pub fn counts(reports: u64, p: f64, q: f64) -> Self {
        if reports == 0 {
            return Self::default();
        }
        Self {
            scale: 1.0 / (reports as f64 * (p - q)),
            offset: -q / (p - q),
        }
    }
}

/// Adds another shard's tally: the one body behind every oracle's
/// `merge`.
pub(crate) fn merge<O: PointOracle>(server: &mut O, other: &O) -> Result<(), OracleError> {
    server.ensure_same(other)?;
    server.tally_mut().merge(other.tally());
    Ok(())
}

/// Removes a previously merged shard's tally, unchanged on error: the one
/// body behind every oracle's `subtract`.
pub(crate) fn subtract<O: PointOracle>(server: &mut O, other: &O) -> Result<(), OracleError> {
    server.ensure_same(other)?;
    server.tally_mut().subtract(other.tally())
}

/// Which frequency-oracle primitive to instantiate — the `F` parameter of
/// the paper's mechanism framework (§4.4: "All algorithms follow a similar
/// structure but differ on the perturbation primitive F they use").
///
/// The discriminant is the primitive's one-byte tag in report frames and
/// checkpoints ([`FrequencyOracle::tag`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FrequencyOracle {
    /// Optimized Unary Encoding (Wang et al.).
    Oue = 0,
    /// Optimal Local Hashing (Wang et al.).
    Olh = 1,
    /// Hadamard Randomized Response.
    Hrr = 2,
    /// Symmetric Unary Encoding (basic RAPPOR) — the historical baseline
    /// OUE optimizes; kept for ablations.
    Sue = 3,
}

impl FrequencyOracle {
    /// Every primitive, in tag order.
    const ALL: [Self; 4] = [Self::Oue, Self::Olh, Self::Hrr, Self::Sue];

    /// Human-readable name as used in the paper's plots (`OUE`, `OLH`,
    /// `HRR`; `SUE` for the RAPPOR baseline).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Oue => "OUE",
            Self::Olh => "OLH",
            Self::Hrr => "HRR",
            Self::Sue => "SUE",
        }
    }

    /// The byte that names this primitive in a report frame and in a
    /// checkpoint — the one oracle tag table both encodings share.
    #[must_use]
    pub const fn tag(self) -> u8 {
        self as u8
    }

    /// The primitive a [`FrequencyOracle::tag`] names, if any.
    #[must_use]
    #[inline]
    pub fn from_tag(tag: u8) -> Option<Self> {
        Self::ALL.get(usize::from(tag)).copied()
    }

    /// Whether the primitive restricts the domain to powers of two.
    #[must_use]
    pub fn requires_power_of_two(self) -> bool {
        matches!(self, Self::Hrr)
    }
}

impl std::fmt::Display for FrequencyOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        assert_eq!(FrequencyOracle::Oue.to_string(), "OUE");
        assert_eq!(FrequencyOracle::Olh.to_string(), "OLH");
        assert_eq!(FrequencyOracle::Hrr.to_string(), "HRR");
    }

    #[test]
    fn tags_are_the_wire_and_checkpoint_bytes() {
        for (kind, tag) in [
            (FrequencyOracle::Oue, 0),
            (FrequencyOracle::Olh, 1),
            (FrequencyOracle::Hrr, 2),
            (FrequencyOracle::Sue, 3),
        ] {
            assert_eq!(kind.tag(), tag);
            assert_eq!(FrequencyOracle::from_tag(tag), Some(kind));
        }
        assert_eq!(FrequencyOracle::from_tag(4), None);
    }

    #[test]
    fn only_hrr_needs_power_of_two() {
        assert!(FrequencyOracle::Hrr.requires_power_of_two());
        assert!(!FrequencyOracle::Oue.requires_power_of_two());
        assert!(!FrequencyOracle::Olh.requires_power_of_two());
    }
}
