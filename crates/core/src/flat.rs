//! The flat (baseline) mechanism: answer ranges by summing point estimates
//! (paper §4.2).
//!
//! Every user releases her value through one frequency oracle over the full
//! domain; a range `[a, b]` is estimated as `Σ θ̂_i`. By Fact 1 the variance
//! grows linearly in the range length — the motivation for the hierarchical
//! and wavelet mechanisms — but for point queries and very short ranges the
//! flat method is the most accurate, since all of the population reports at
//! leaf granularity.

use rand::RngCore;

use ldp_freq_oracle::{AnyOracle, AnyReport, PointOracle};

use crate::config::FlatConfig;
use crate::error::RangeError;
use crate::estimate::FrequencyEstimate;

/// Client side of the flat mechanism: stateless per-user encoding.
#[derive(Debug, Clone)]
pub struct FlatClient {
    oracle: AnyOracle,
}

impl FlatClient {
    /// Builds the client from a validated configuration.
    ///
    /// # Errors
    ///
    /// Propagates oracle construction failures.
    pub fn new(config: &FlatConfig) -> Result<Self, RangeError> {
        Ok(Self {
            oracle: AnyOracle::new(config.oracle, config.domain, config.epsilon)?,
        })
    }

    /// Perturbs one user's value into a report.
    ///
    /// # Errors
    ///
    /// Returns an error if `value` is outside the domain.
    pub fn report(&self, value: usize, rng: &mut dyn RngCore) -> Result<AnyReport, RangeError> {
        Ok(self.oracle.encode(value, rng)?)
    }
}

/// Aggregator side of the flat mechanism.
#[derive(Debug, Clone)]
pub struct FlatServer {
    oracle: AnyOracle,
}

impl FlatServer {
    /// Builds the server from a validated configuration.
    ///
    /// # Errors
    ///
    /// Propagates oracle construction failures.
    pub fn new(config: &FlatConfig) -> Result<Self, RangeError> {
        Ok(Self {
            oracle: AnyOracle::new(config.oracle, config.domain, config.epsilon)?,
        })
    }

    /// Accumulates one user report.
    ///
    /// # Errors
    ///
    /// Rejects reports of mismatched shape.
    pub fn absorb(&mut self, report: &AnyReport) -> Result<(), RangeError> {
        Ok(self.oracle.absorb(report)?)
    }

    /// [`FlatServer::absorb`], leaving the report pending in the oracle
    /// (`MergeableServer::absorb_deferred`).
    pub(crate) fn absorb_deferred(&mut self, report: &AnyReport) -> Result<(), RangeError> {
        Ok(self.oracle.absorb_deferred(report)?)
    }

    /// Absorbs a whole cohort at once from its true histogram (the paper's
    /// statistically-equivalent simulation, §5).
    ///
    /// # Errors
    ///
    /// Rejects histograms of mismatched length.
    pub fn absorb_population(
        &mut self,
        true_counts: &[u64],
        rng: &mut dyn RngCore,
    ) -> Result<(), RangeError> {
        Ok(self.oracle.absorb_population(true_counts, rng)?)
    }

    /// Number of reports absorbed.
    #[must_use]
    pub fn num_reports(&self) -> u64 {
        self.oracle.num_reports()
    }

    /// The one oracle.
    #[must_use]
    pub fn oracle(&self) -> &AnyOracle {
        &self.oracle
    }

    /// The one oracle as a one-level slice, so the level helpers
    /// (merge, subtract, clear, checkpoints) serve the flat server too.
    pub(crate) fn oracles(&self) -> &[AnyOracle] {
        std::slice::from_ref(&self.oracle)
    }

    /// Mutable [`FlatServer::oracles`].
    pub(crate) fn oracles_mut(&mut self) -> &mut [AnyOracle] {
        std::slice::from_mut(&mut self.oracle)
    }

    /// Reconstructs per-item frequency estimates; ranges are answered by
    /// prefix-sum differences over them (identical to summing point
    /// estimates, but `O(1)` per query).
    #[must_use]
    pub fn estimate(&self) -> FrequencyEstimate {
        self.frequency_estimate()
    }

    /// The per-item estimate with prefix sums: the serial float freeze.
    /// A service publishes [`FlatServer::prefix_tables`] instead, which
    /// answers the same up to rounding.
    #[must_use]
    pub fn frequency_estimate(&self) -> FrequencyEstimate {
        FrequencyEstimate::new(self.oracle.estimate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::RangeEstimate;
    use ldp_freq_oracle::{Epsilon, FrequencyOracle};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn end_to_end_per_user() {
        let eps = Epsilon::from_exp(3.0);
        let config = FlatConfig::new(16, eps).unwrap();
        let client = FlatClient::new(&config).unwrap();
        let mut server = FlatServer::new(&config).unwrap();
        let mut rng = StdRng::seed_from_u64(61);
        // Uniform over items 4..8.
        let n = 20_000;
        for i in 0..n {
            let r = client.report(4 + (i % 4), &mut rng).unwrap();
            server.absorb(&r).unwrap();
        }
        assert_eq!(server.num_reports(), n as u64);
        let est = server.estimate();
        assert!((est.range(4, 7) - 1.0).abs() < 0.05);
        assert!(est.range(0, 3).abs() < 0.05);
        assert!((est.point(5) - 0.25).abs() < 0.05);
    }

    #[test]
    fn end_to_end_population_simulation() {
        let eps = Epsilon::new(1.1);
        let config = FlatConfig::new(64, eps).unwrap();
        let mut server = FlatServer::new(&config).unwrap();
        let mut rng = StdRng::seed_from_u64(62);
        // Population large enough that the 0.1 tolerance sits at several
        // standard deviations regardless of the RNG stream.
        let mut counts = vec![0u64; 64];
        for (z, c) in counts.iter_mut().enumerate() {
            *c = 1_000 + (z as u64 % 7) * 500;
        }
        let n: u64 = counts.iter().sum();
        server.absorb_population(&counts, &mut rng).unwrap();
        let est = server.estimate();
        let truth: f64 = counts[10..=30].iter().sum::<u64>() as f64 / n as f64;
        assert!((est.range(10, 30) - truth).abs() < 0.1);
    }

    #[test]
    fn hrr_flat_variant_works() {
        let eps = Epsilon::new(1.1);
        let config = FlatConfig::with_oracle(32, eps, FrequencyOracle::Hrr).unwrap();
        let client = FlatClient::new(&config).unwrap();
        let mut server = FlatServer::new(&config).unwrap();
        let mut rng = StdRng::seed_from_u64(63);
        for _ in 0..30_000 {
            let r = client.report(9, &mut rng).unwrap();
            server.absorb(&r).unwrap();
        }
        let est = server.estimate();
        assert!((est.point(9) - 1.0).abs() < 0.1, "est {}", est.point(9));
    }
}
