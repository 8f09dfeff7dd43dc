//! Optimized Unary Encoding (OUE) — Wang et al., adopted by paper §3.2.
//!
//! The user one-hot encodes her value over `[D]` and flips each bit
//! independently: a 1-bit stays 1 with probability `p = 1/2`; a 0-bit
//! becomes 1 with probability `q = 1/(1 + e^ε)`. The asymmetric choice
//! minimizes the estimator variance among unary encodings, giving
//! `VF = 4e^ε / (N (e^ε − 1)^2)` — independent of `D`.
//!
//! Communication is `D` bits per user, which is why the paper simulates the
//! aggregate for large domains; [`Oue::absorb_population`] implements that
//! exact simulation: the noisy count of item `j` is
//! `Bino(c_j, 1/2) + Bino(N − c_j, 1/(1+e^ε))` (§5, "Histogram estimation
//! primitives").

use rand::RngCore;

use crate::oracle::{self, EstimateMap, PointOracle};
use crate::params::oue_probs;
use crate::unary::{UnaryCounts, UnaryEncoder};
use crate::variance::frequency_oracle_variance;
use crate::{Epsilon, FrequencyOracle, OracleError, Tally};

/// One user's OUE report: the perturbed bit vector, bit-packed. SUE
/// reports share the type (the same wire format, different `(p, q)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OueReport {
    domain: usize,
    bits: Vec<u64>,
}

impl OueReport {
    /// Whether bit `j` is set.
    #[inline]
    #[must_use]
    pub fn bit(&self, j: usize) -> bool {
        debug_assert!(j < self.domain);
        self.bits[j / 64] >> (j % 64) & 1 == 1
    }

    /// Number of items the report covers.
    #[must_use]
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// Number of set bits (used in tests; expected `≈ 1/2 + (D−1)·q`).
    #[must_use]
    pub fn count_ones(&self) -> u32 {
        self.bits.iter().map(|w| w.count_ones()).sum()
    }

    /// The packed 64-bit words of the bit vector (wire encoding).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// The packed words, given back for reuse (the batch decoder reads
    /// the next frame into them).
    #[must_use]
    pub fn into_words(self) -> Vec<u64> {
        self.bits
    }

    /// Rebuilds a report from its packed words, returning `None` unless
    /// `domain > 0`, `words` has exactly `⌈domain/64⌉` entries, and no bit
    /// beyond `domain` is set — the single validation point shared by the
    /// wire decoder and [`OueReport::from_words`].
    #[must_use]
    pub fn try_from_words(domain: usize, words: Vec<u64>) -> Option<Self> {
        if domain == 0 || words.len() != domain.div_ceil(64) {
            return None;
        }
        if !domain.is_multiple_of(64) {
            let tail_mask = !0u64 << (domain % 64);
            if words.last().copied().unwrap_or(0) & tail_mask != 0 {
                return None;
            }
        }
        Some(Self {
            domain,
            bits: words,
        })
    }

    /// Rebuilds a report from its packed words (wire decoding).
    ///
    /// # Panics
    ///
    /// Panics unless `words` has exactly `⌈domain/64⌉` entries and no bit
    /// beyond `domain` is set.
    #[must_use]
    pub fn from_words(domain: usize, words: Vec<u64>) -> Self {
        Self::try_from_words(domain, words)
            .unwrap_or_else(|| panic!("invalid packed words for domain {domain}"))
    }
}

/// The OUE frequency oracle (client parameters + aggregator state).
#[derive(Debug, Clone)]
pub struct Oue {
    domain: usize,
    eps: Epsilon,
    p: f64,
    q: f64,
    /// Exact lane samplers for `p` and `q`.
    encoder: UnaryEncoder,
    /// Noisy 1-counts per item and the report total.
    state: UnaryCounts,
}

impl Oue {
    /// Creates an OUE oracle over a domain of `domain` items.
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::EmptyDomain`] for a zero-size domain.
    pub fn new(domain: usize, eps: Epsilon) -> Result<Self, OracleError> {
        if domain == 0 {
            return Err(OracleError::EmptyDomain);
        }
        let (p, q) = oue_probs(eps);
        Ok(Self {
            domain,
            eps,
            p,
            q,
            encoder: UnaryEncoder::new((p, q)),
            state: UnaryCounts::new(domain),
        })
    }

    /// The `(p, q)` bit-retention probabilities.
    #[must_use]
    pub fn probs(&self) -> (f64, f64) {
        (self.p, self.q)
    }

    /// The accumulated noisy 1-counts per item — with
    /// [`PointOracle::num_reports`], the oracle's [`PointOracle::tally`].
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        self.state.tally().stats()
    }

    /// Merges another shard's accumulator into this one (distributed
    /// aggregation: shards absorb disjoint user cohorts independently and
    /// are combined before estimation).
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::ReportDomainMismatch`] unless both shards
    /// share the same domain, and [`OracleError::EpsilonMismatch`] unless
    /// they share the same ε (and therefore parameters).
    pub fn merge(&mut self, other: &Self) -> Result<(), OracleError> {
        oracle::merge(self, other)
    }

    /// Removes a previously merged shard's accumulator — the exact inverse
    /// of [`Oue::merge`]: `merge(b)` followed by `subtract(b)` restores the
    /// state bit-for-bit. This is what lets a sliding window retire its
    /// oldest epoch without recomputing the surviving epochs from scratch.
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::ReportDomainMismatch`] on shape mismatch,
    /// [`OracleError::EpsilonMismatch`] on a different ε, and
    /// [`OracleError::SubtractUnderflow`] if `other` holds counts this
    /// state does not contain (it was never merged in). The accumulator is
    /// unchanged on error.
    pub fn subtract(&mut self, other: &Self) -> Result<(), OracleError> {
        oracle::subtract(self, other)
    }
}

impl PointOracle for Oue {
    type Report = OueReport;

    fn domain(&self) -> usize {
        self.domain
    }

    fn epsilon(&self) -> Epsilon {
        self.eps
    }

    /// Fills every bit with an independent Bernoulli(`q`) lane, 64 lanes
    /// per random word, then overwrites the value's bit with one
    /// Bernoulli(`p`) draw (`crate::unary`).
    ///
    /// Each lane compares its own bits of successive random words against
    /// `q`'s exact binary expansion (computed once in [`Oue::new`]), so
    /// `P(bit = 1)` is `q` exactly and no two lanes share a random bit:
    /// the bits are independent, as the ε-LDP ratio requires. The value
    /// only picks which bit the `p` draw overwrites, so the random words
    /// consumed — and the report's length — never depend on it.
    fn encode(&self, value: usize, rng: &mut dyn RngCore) -> Result<OueReport, OracleError> {
        if value >= self.domain {
            return Err(OracleError::ValueOutOfDomain {
                value,
                domain: self.domain,
            });
        }
        Ok(self.encoder.encode(self.domain, value, rng))
    }

    /// [`PointOracle::absorb_deferred`] then [`PointOracle::settle`], so
    /// the per-report path and deferred reports settle through the same
    /// kernel.
    fn absorb(&mut self, report: &OueReport) -> Result<(), OracleError> {
        self.absorb_deferred(report)?;
        self.settle();
        Ok(())
    }

    /// Stages the report's packed words as a row and folds every sixteen
    /// rows into the pending bit planes with a carry-save adder tree
    /// (`crate::unary`): a report costs a row copy and a share of one
    /// word-wide fold, plus a share of one spill when the pending reports
    /// are read — by a drain ([`PointOracle::drain`]) or
    /// [`PointOracle::settle`] — instead of one scattered increment per
    /// set bit.
    fn absorb_deferred(&mut self, report: &OueReport) -> Result<(), OracleError> {
        if report.domain != self.domain {
            return Err(OracleError::ReportDomainMismatch {
                report: report.domain,
                server: self.domain,
            });
        }
        self.state.add_deferred(&report.bits);
        Ok(())
    }

    fn settle(&mut self) {
        self.state.settle();
    }

    /// Spills `other`'s pending reports and its counts, unless known to
    /// be zero, straight into these counts (`crate::unary`).
    fn drain(&mut self, other: &mut Self) {
        self.state.drain(&mut other.state);
    }

    fn absorb_population(
        &mut self,
        true_counts: &[u64],
        rng: &mut dyn RngCore,
    ) -> Result<(), OracleError> {
        self.state
            .absorb_population(true_counts, (self.p, self.q), rng)
    }

    fn num_reports(&self) -> u64 {
        self.state.reports()
    }

    fn kind(&self) -> FrequencyOracle {
        FrequencyOracle::Oue
    }

    fn tally(&self) -> &Tally {
        self.state.tally()
    }

    fn tally_mut(&mut self) -> &mut Tally {
        self.state.tally_mut()
    }

    fn clear(&mut self) {
        self.state.clear();
    }

    fn estimate_into(&self, out: &mut [f64]) {
        self.state.estimate_into((self.p, self.q), out);
    }

    fn estimate_map(&self) -> EstimateMap {
        EstimateMap::counts(self.state.reports(), self.p, self.q)
    }

    /// The noisy 1-counts as they are.
    fn statistic_prefix_into(&self, out: &mut [i64]) -> Result<(), OracleError> {
        self.state.tally().count_prefix_into(out)
    }

    fn theoretical_variance(&self) -> f64 {
        frequency_oracle_variance(self.eps, self.state.reports())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_empty_domain() {
        assert_eq!(
            Oue::new(0, Epsilon::new(1.0)).unwrap_err(),
            OracleError::EmptyDomain
        );
    }

    #[test]
    fn rejects_out_of_domain_value() {
        let oracle = Oue::new(8, Epsilon::new(1.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            oracle.encode(8, &mut rng),
            Err(OracleError::ValueOutOfDomain {
                value: 8,
                domain: 8
            })
        ));
    }

    #[test]
    fn report_bit_statistics() {
        let eps = Epsilon::from_exp(3.0); // q = 1/4
        let oracle = Oue::new(64, eps).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut ones = 0u64;
        let reps = 2_000;
        for _ in 0..reps {
            let r = oracle.encode(5, &mut rng).unwrap();
            assert_eq!(r.domain(), 64);
            ones += u64::from(r.count_ones());
        }
        let expected = 0.5 + 63.0 * 0.25;
        let mean = ones as f64 / f64::from(reps);
        assert!(
            (mean - expected).abs() < 0.5,
            "mean ones {mean} vs {expected}"
        );
    }

    #[test]
    fn estimates_are_unbiased_per_user_path() {
        let eps = Epsilon::new(1.1);
        let mut oracle = Oue::new(16, eps).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        // 60% of users hold item 3, 40% hold item 12.
        let n = 30_000;
        for i in 0..n {
            let v = if i % 5 < 3 { 3 } else { 12 };
            let r = oracle.encode(v, &mut rng).unwrap();
            oracle.absorb(&r).unwrap();
        }
        let est = oracle.estimate();
        assert!((est[3] - 0.6).abs() < 0.03, "est[3]={}", est[3]);
        assert!((est[12] - 0.4).abs() < 0.03, "est[12]={}", est[12]);
        assert!(est[0].abs() < 0.03);
    }

    #[test]
    fn simulated_population_matches_per_user_statistics() {
        let eps = Epsilon::new(1.1);
        let domain = 8;
        let counts: Vec<u64> = vec![5_000, 0, 1_000, 0, 2_000, 0, 0, 2_000];
        let n: u64 = counts.iter().sum();

        // Run both paths many times and compare estimate means/variances.
        let mut sim_est = vec![0.0; domain];
        let reps = 40;
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..reps {
            let mut oracle = Oue::new(domain, eps).unwrap();
            oracle.absorb_population(&counts, &mut rng).unwrap();
            assert_eq!(oracle.num_reports(), n);
            for (s, e) in sim_est.iter_mut().zip(oracle.estimate()) {
                *s += e / f64::from(reps);
            }
        }
        for (j, &c) in counts.iter().enumerate() {
            let truth = c as f64 / n as f64;
            assert!(
                (sim_est[j] - truth).abs() < 0.01,
                "item {j}: {} vs {truth}",
                sim_est[j]
            );
        }
    }

    #[test]
    fn empirical_variance_matches_theory() {
        let eps = Epsilon::new(1.0);
        let domain = 4;
        let counts = vec![2_000u64, 2_000, 2_000, 2_000];
        let n: u64 = counts.iter().sum();
        let mut rng = StdRng::seed_from_u64(4);
        let reps = 600;
        let mut sq_err = 0.0;
        for _ in 0..reps {
            let mut oracle = Oue::new(domain, eps).unwrap();
            oracle.absorb_population(&counts, &mut rng).unwrap();
            let est = oracle.estimate();
            sq_err += (est[0] - 0.25_f64).powi(2);
        }
        let empirical = sq_err / f64::from(reps);
        let theory = frequency_oracle_variance(eps, n);
        let ratio = empirical / theory;
        assert!(
            (0.7..1.3).contains(&ratio),
            "empirical {empirical} vs theory {theory}"
        );
    }

    #[test]
    fn absorb_rejects_mismatched_report() {
        let mut a = Oue::new(8, Epsilon::new(1.0)).unwrap();
        let b = Oue::new(16, Epsilon::new(1.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let r = b.encode(0, &mut rng).unwrap();
        assert!(matches!(
            a.absorb(&r),
            Err(OracleError::ReportDomainMismatch { .. })
        ));
    }

    #[test]
    fn estimate_without_reports_is_zero() {
        let oracle = Oue::new(4, Epsilon::new(1.0)).unwrap();
        assert_eq!(oracle.estimate(), vec![0.0; 4]);
    }
}
