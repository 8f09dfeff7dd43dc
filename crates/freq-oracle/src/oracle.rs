//! The frequency-oracle abstraction shared by all point-query mechanisms.

use rand::RngCore;

use crate::{Epsilon, OracleError};

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
    /// its contribution may stay *pending* until [`PointOracle::settle`].
    /// A pending report already counts in [`PointOracle::num_reports`];
    /// everything that reads the accumulated statistics (estimates,
    /// merge, subtract, persisted state) requires settled state. A batch
    /// absorbs each report deferred and settles once at its end, which
    /// lets an oracle amortize per-report work across the batch (the
    /// unary encodings ripple reports into bit planes).
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
    /// [`PointOracle::absorb`] would. Idempotent; the default, for oracles
    /// that never defer, does nothing.
    fn settle(&mut self) {}

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

/// The check every oracle's `merge` and `subtract` run before touching
/// state: `other` must cover the same domain under the same ε.
pub(crate) fn ensure_same_config<O: PointOracle>(server: &O, other: &O) -> Result<(), OracleError> {
    if other.domain() != server.domain() {
        return Err(OracleError::ReportDomainMismatch {
            report: other.domain(),
            server: server.domain(),
        });
    }
    if other.epsilon() != server.epsilon() {
        return Err(OracleError::EpsilonMismatch {
            other: other.epsilon().value().to_bits(),
            server: server.epsilon().value().to_bits(),
        });
    }
    Ok(())
}

/// Which frequency-oracle primitive to instantiate — the `F` parameter of
/// the paper's mechanism framework (§4.4: "All algorithms follow a similar
/// structure but differ on the perturbation primitive F they use").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrequencyOracle {
    /// Optimized Unary Encoding (Wang et al.).
    Oue,
    /// Optimal Local Hashing (Wang et al.).
    Olh,
    /// Hadamard Randomized Response.
    Hrr,
    /// Symmetric Unary Encoding (basic RAPPOR) — the historical baseline
    /// OUE optimizes; kept for ablations.
    Sue,
}

impl FrequencyOracle {
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
    fn only_hrr_needs_power_of_two() {
        assert!(FrequencyOracle::Hrr.requires_power_of_two());
        assert!(!FrequencyOracle::Oue.requires_power_of_two());
        assert!(!FrequencyOracle::Olh.requires_power_of_two());
    }
}
