//! Symmetric Unary Encoding (SUE) — basic one-time RAPPOR (Erlingsson et
//! al., CCS 2014; reference \[12\] of the paper).
//!
//! Like OUE, the user one-hot encodes her value and flips bits
//! independently; unlike OUE the flip probabilities are *symmetric*:
//! a bit is reported truthfully with probability `p = e^{ε/2}/(1+e^{ε/2})`
//! (so `p/q = e^{ε/2}`, and the two bits that change when the input
//! changes compose to exactly `e^ε`). Wang et al. showed the asymmetric
//! OUE choice strictly improves on this — SUE's variance carries
//! `e^{ε/2}` where OUE's carries `e^ε`:
//! `VF_SUE = e^{ε/2}/(N(e^{ε/2}−1)²) · 4 … ≥ VF_OUE`.
//!
//! Included as the historical baseline the optimized mechanisms are
//! measured against (the paper cites RAPPOR as the archetypal deployed
//! LDP system); the `oracle_suite` ablation compares it against OUE
//! empirically. It is an ablation baseline only: `ldp-service` does not
//! serve it (wire oracle tag 3 is retired, and a SUE-backed server is
//! refused at construction).

use rand::RngCore;

use crate::oracle::{self, EstimateMap, PointOracle};
use crate::oue::OueReport;
use crate::unary::{UnaryCounts, UnaryEncoder};
use crate::{Epsilon, FrequencyOracle, OracleError, Tally};

/// SUE bit-retention probabilities `(p, q)` with `p + q = 1` and
/// `p/q = e^{ε/2}`.
#[must_use]
pub fn sue_probs(eps: Epsilon) -> (f64, f64) {
    let half = (eps.value() / 2.0).exp();
    (half / (1.0 + half), 1.0 / (1.0 + half))
}

/// Theoretical per-item variance of the SUE estimator:
/// `q(1−q)/(N(p−q)²)` with the symmetric `(p, q)` above.
#[must_use]
pub fn sue_variance(eps: Epsilon, num_reports: u64) -> f64 {
    if num_reports == 0 {
        return f64::INFINITY;
    }
    let (p, q) = sue_probs(eps);
    q * (1.0 - q) / (num_reports as f64 * (p - q) * (p - q))
}

/// The SUE frequency oracle (client parameters + aggregator state).
///
/// Reports reuse [`OueReport`] (both mechanisms transmit a perturbed
/// `D`-bit vector).
#[derive(Debug, Clone)]
pub struct Sue {
    domain: usize,
    eps: Epsilon,
    p: f64,
    q: f64,
    encoder: UnaryEncoder,
    state: UnaryCounts,
}

impl Sue {
    /// Creates a SUE oracle over `domain` items.
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::EmptyDomain`] for a zero-size domain.
    pub fn new(domain: usize, eps: Epsilon) -> Result<Self, OracleError> {
        if domain == 0 {
            return Err(OracleError::EmptyDomain);
        }
        let (p, q) = sue_probs(eps);
        Ok(Self {
            domain,
            eps,
            p,
            q,
            encoder: UnaryEncoder::new((p, q)),
            state: UnaryCounts::new(domain),
        })
    }

    /// The symmetric `(p, q)` retention probabilities.
    #[must_use]
    pub fn probs(&self) -> (f64, f64) {
        (self.p, self.q)
    }

    /// The accumulated noisy 1-counts per item (see [`crate::Oue::counts`]).
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        self.state.tally().stats()
    }

    /// Merges another shard's accumulator into this one.
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::ReportDomainMismatch`] on shape mismatch and
    /// [`OracleError::EpsilonMismatch`] on a different ε.
    pub fn merge(&mut self, other: &Self) -> Result<(), OracleError> {
        oracle::merge(self, other)
    }

    /// Removes a previously merged shard's accumulator — the exact inverse
    /// of [`Sue::merge`] (see [`crate::Oue::subtract`]).
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::ReportDomainMismatch`] on shape mismatch,
    /// [`OracleError::EpsilonMismatch`] on a different ε, and
    /// [`OracleError::SubtractUnderflow`] if `other` was never merged into
    /// this state. The accumulator is unchanged on error.
    pub fn subtract(&mut self, other: &Self) -> Result<(), OracleError> {
        oracle::subtract(self, other)
    }
}

impl PointOracle for Sue {
    type Report = OueReport;

    fn domain(&self) -> usize {
        self.domain
    }

    fn epsilon(&self) -> Epsilon {
        self.eps
    }

    /// The same word-parallel sampler as [`crate::Oue`]'s encode, with the
    /// symmetric `(p, q)` expanded once in [`Sue::new`]: every bit an
    /// exact, independent Bernoulli(`q`) lane, then the value's bit
    /// overwritten by one exact Bernoulli(`p`) draw. The random words
    /// consumed and the report's length never depend on the value.
    fn encode(&self, value: usize, rng: &mut dyn RngCore) -> Result<OueReport, OracleError> {
        if value >= self.domain {
            return Err(OracleError::ValueOutOfDomain {
                value,
                domain: self.domain,
            });
        }
        Ok(self.encoder.encode(self.domain, value, rng))
    }

    /// [`PointOracle::absorb_deferred`] then [`PointOracle::settle`].
    fn absorb(&mut self, report: &OueReport) -> Result<(), OracleError> {
        self.absorb_deferred(report)?;
        self.settle();
        Ok(())
    }

    /// The same staged rows and bit-plane fold as [`crate::Oue`]'s: the
    /// two encodings share one accumulator (`crate::unary`) and differ only
    /// in `(p, q)`.
    fn absorb_deferred(&mut self, report: &OueReport) -> Result<(), OracleError> {
        if report.domain() != self.domain {
            return Err(OracleError::ReportDomainMismatch {
                report: report.domain(),
                server: self.domain,
            });
        }
        self.state.add_deferred(report.words());
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
        FrequencyOracle::Sue
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
        sue_variance(self.eps, self.state.reports())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn probabilities_are_symmetric_and_ldp() {
        for eps_v in [0.2, 1.1, 2.0] {
            let eps = Epsilon::new(eps_v);
            let (p, q) = sue_probs(eps);
            assert!((p + q - 1.0).abs() < 1e-12);
            // Two changed bits compose: (p/q)² = e^eps.
            let ratio = (p / q) * ((1.0 - q) / (1.0 - p));
            assert!((ratio - eps.exp()).abs() < 1e-9, "eps={eps_v}");
        }
    }

    #[test]
    fn sue_variance_exceeds_oue_variance() {
        // Wang et al.'s optimization result, relied on by the paper's
        // choice of OUE as its best flat/level primitive.
        for eps_v in [0.2, 0.8, 1.1, 1.4] {
            let eps = Epsilon::new(eps_v);
            let sue = sue_variance(eps, 1_000);
            let oue = crate::variance::frequency_oracle_variance(eps, 1_000);
            assert!(sue > oue, "eps={eps_v}: SUE {sue} should exceed OUE {oue}");
        }
    }

    #[test]
    fn estimates_are_unbiased() {
        let eps = Epsilon::new(1.1);
        let mut oracle = Sue::new(8, eps).unwrap();
        let mut rng = StdRng::seed_from_u64(191);
        let counts = vec![6_000u64, 0, 2_000, 0, 0, 0, 2_000, 0];
        oracle.absorb_population(&counts, &mut rng).unwrap();
        let est = oracle.estimate();
        assert!((est[0] - 0.6).abs() < 0.05, "est[0]={}", est[0]);
        assert!((est[2] - 0.2).abs() < 0.05, "est[2]={}", est[2]);
        assert!(est[1].abs() < 0.05);
    }

    #[test]
    fn per_user_path_matches_population_path() {
        let eps = Epsilon::new(1.0);
        let mut a = Sue::new(4, eps).unwrap();
        let mut rng = StdRng::seed_from_u64(192);
        for _ in 0..20_000 {
            let r = a.encode(1, &mut rng).unwrap();
            a.absorb(&r).unwrap();
        }
        let est = a.estimate();
        assert!((est[1] - 1.0).abs() < 0.05, "est[1]={}", est[1]);
    }

    #[test]
    fn empirical_variance_matches_theory() {
        let eps = Epsilon::new(1.0);
        let counts = vec![2_000u64; 4];
        let n: u64 = counts.iter().sum();
        let mut rng = StdRng::seed_from_u64(193);
        let reps = 500;
        let mut sq = 0.0;
        for _ in 0..reps {
            let mut oracle = Sue::new(4, eps).unwrap();
            oracle.absorb_population(&counts, &mut rng).unwrap();
            sq += (oracle.estimate()[0] - 0.25_f64).powi(2);
        }
        let empirical = sq / f64::from(reps);
        let theory = sue_variance(eps, n);
        let ratio = empirical / theory;
        assert!((0.7..1.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(Sue::new(0, Epsilon::new(1.0)).is_err());
        let oracle = Sue::new(4, Epsilon::new(1.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(194);
        assert!(oracle.encode(4, &mut rng).is_err());
    }
}
