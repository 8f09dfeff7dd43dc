//! The Haar wavelet mechanism `HaarHRR` — paper §4.6.
//!
//! The Discrete Haar Transform imposes a full binary tree over the domain.
//! A user holding leaf `z` has exactly one non-zero rescaled Haar
//! coefficient per level, valued ±1: at the internal node whose subtree
//! contains `z`, with sign +1 if `z` falls in the left half and −1
//! otherwise. Each user samples one of the `h = log2 D` detail levels
//! uniformly and perturbs her signed one-hot level vector with Hadamard
//! Randomized Response — chosen because it natively handles the ±1 weights
//! and transmits a single bit plus indices. The 0-th (scaling) coefficient
//! needs no perturbation: it is the total population fraction, exactly 1.
//!
//! All coefficients are independent and uniquely determine a leaf vector,
//! so the mechanism is *consistent by design*: no post-processing is
//! needed, and a range query touches only the `O(log D)` coefficients of
//! nodes cut by the range.
//!
//! [`calibration`] holds the `HaarOUE` alternative the paper calibrated
//! HRR against.

pub mod calibration;

use rand::{Rng, RngCore};

use ldp_freq_oracle::{Hrr, HrrReport, PointOracle};
use ldp_transforms::HaarPyramid;

use crate::binomial_support::scatter_item_over_levels;
use crate::config::HaarConfig;
use crate::error::RangeError;
use crate::estimate::{FrequencyEstimate, RangeEstimate};

/// One user's `HaarHRR` report: the sampled detail level (as a node depth)
/// and the HRR-perturbed coefficient.
#[derive(Debug, Clone, Copy)]
pub struct HaarHrrReport {
    depth: u32,
    inner: HrrReport,
}

impl HaarHrrReport {
    /// Depth of the internal node whose coefficient was released
    /// (0 = root, `h − 1` = parents of leaves). The paper's level `l`,
    /// counting node heights, is `h − depth`.
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The HRR-perturbed coefficient (wire encoding).
    #[must_use]
    pub fn inner(&self) -> HrrReport {
        self.inner
    }

    /// Rebuilds a report from its transmitted parts (wire decoding).
    #[must_use]
    pub fn from_parts(depth: u32, inner: HrrReport) -> Self {
        Self { depth, inner }
    }
}

/// Sign of item `z`'s Haar coefficient at internal-node depth `d` within a
/// height-`h` tree, along with the node's index: `(node, sign)`.
#[inline]
pub(crate) fn coefficient_of(z: usize, depth: u32, height: u32) -> (usize, i8) {
    let node = z >> (height - depth);
    let bit = (z >> (height - depth - 1)) & 1;
    (node, if bit == 0 { 1 } else { -1 })
}

fn build_level_oracles(config: &HaarConfig) -> Result<Vec<Hrr>, RangeError> {
    (0..config.height)
        .map(|d| Hrr::new(1usize << d, config.epsilon).map_err(RangeError::from))
        .collect()
}

/// Client side of `HaarHRR`.
#[derive(Debug, Clone)]
pub struct HaarHrrClient {
    config: HaarConfig,
    encoders: Vec<Hrr>,
}

impl HaarHrrClient {
    /// Builds the client from a validated configuration.
    ///
    /// # Errors
    ///
    /// Propagates HRR construction failures (cannot occur for a validated
    /// power-of-two config, but surfaced for API uniformity).
    pub fn new(config: HaarConfig) -> Result<Self, RangeError> {
        let encoders = build_level_oracles(&config)?;
        Ok(Self { config, encoders })
    }

    /// Perturbs one user's value: samples a detail level uniformly and
    /// releases the ±1 coefficient at that level through HRR. At the root
    /// level (one coefficient) this degenerates to 1-bit randomized
    /// response, exactly as in the paper.
    ///
    /// # Errors
    ///
    /// Returns an error if `value` is outside the domain.
    pub fn report(&self, value: usize, rng: &mut dyn RngCore) -> Result<HaarHrrReport, RangeError> {
        if value >= self.config.domain {
            return Err(RangeError::Oracle(
                ldp_freq_oracle::OracleError::ValueOutOfDomain {
                    value,
                    domain: self.config.domain,
                },
            ));
        }
        let depth = rng.random_range(0..self.config.height);
        let (node, sign) = coefficient_of(value, depth, self.config.height);
        let inner = self.encoders[depth as usize].encode_signed(node, sign, rng)?;
        Ok(HaarHrrReport { depth, inner })
    }
}

/// Aggregator side of `HaarHRR`.
#[derive(Debug, Clone)]
pub struct HaarHrrServer {
    config: HaarConfig,
    levels: Vec<Hrr>,
}

impl HaarHrrServer {
    /// Builds the server from a validated configuration.
    ///
    /// # Errors
    ///
    /// Propagates HRR construction failures.
    pub fn new(config: HaarConfig) -> Result<Self, RangeError> {
        let levels = build_level_oracles(&config)?;
        Ok(Self { config, levels })
    }

    /// The configuration this server was built from.
    #[must_use]
    pub fn config(&self) -> &HaarConfig {
        &self.config
    }

    /// The per-level HRR accumulators, for the level helpers.
    pub(crate) fn oracles(&self) -> &[Hrr] {
        &self.levels
    }

    /// Mutable per-level accumulators, for the level helpers.
    pub(crate) fn oracles_mut(&mut self) -> &mut [Hrr] {
        &mut self.levels
    }

    /// Accumulates one user report at its sampled level.
    ///
    /// # Errors
    ///
    /// Rejects reports with an out-of-range depth.
    pub fn absorb(&mut self, report: &HaarHrrReport) -> Result<(), RangeError> {
        if report.depth >= self.config.height {
            return Err(RangeError::ReportShapeMismatch);
        }
        Ok(self.levels[report.depth as usize].absorb(&report.inner)?)
    }

    /// Absorbs a whole cohort from its true histogram (population-scale
    /// simulation: per-item multinomial scatter over levels, then the
    /// signed HRR aggregate simulation per level).
    ///
    /// # Errors
    ///
    /// Rejects histograms whose length differs from the domain.
    pub fn absorb_population(
        &mut self,
        true_counts: &[u64],
        rng: &mut dyn RngCore,
    ) -> Result<(), RangeError> {
        if true_counts.len() != self.config.domain {
            return Err(RangeError::ReportShapeMismatch);
        }
        let h = self.config.height;
        let mut plus: Vec<Vec<u64>> = (0..h).map(|d| vec![0; 1usize << d]).collect();
        let mut minus: Vec<Vec<u64>> = (0..h).map(|d| vec![0; 1usize << d]).collect();
        scatter_item_over_levels(true_counts, h as usize, rng, |z, level_idx, count| {
            let depth = level_idx as u32;
            let (node, sign) = coefficient_of(z, depth, h);
            if sign > 0 {
                plus[level_idx][node] += count;
            } else {
                minus[level_idx][node] += count;
            }
        });
        for ((oracle, p), m) in self.levels.iter_mut().zip(&plus).zip(&minus) {
            oracle.absorb_population_signed(p, m, rng)?;
        }
        Ok(())
    }

    /// Total reports across all levels.
    #[must_use]
    pub fn num_reports(&self) -> u64 {
        self.levels.iter().map(PointOracle::num_reports).sum()
    }

    /// Reconstructs the estimate: unbiased per-node fraction differences,
    /// each level oracle writing straight into its depth of a Haar pyramid
    /// whose scaling coefficient is pinned to the exact total of 1.
    #[must_use]
    pub fn estimate(&self) -> HaarEstimate {
        let mut pyramid = HaarPyramid::new(self.config.height, 1.0);
        for (depth, oracle) in (0..).zip(&self.levels) {
            oracle.estimate_into(pyramid.diffs_mut(depth));
        }
        HaarEstimate { pyramid }
    }

    /// The serial float freeze: the collapsed pyramid, with prefix sums.
    /// A service publishes [`HaarHrrServer::prefix_tables`] instead.
    #[must_use]
    pub fn frequency_estimate(&self) -> FrequencyEstimate {
        self.estimate().to_frequency_estimate()
    }
}

/// A reconstructed `HaarHRR` estimate: the noisy-but-unbiased Haar pyramid.
#[derive(Debug, Clone)]
pub struct HaarEstimate {
    pyramid: HaarPyramid,
}

impl HaarEstimate {
    /// Wraps a reconstructed pyramid (used by the `HaarOUE` calibration
    /// variant, which shares this estimate type).
    #[must_use]
    pub(crate) fn from_pyramid(pyramid: HaarPyramid) -> Self {
        Self { pyramid }
    }

    /// The underlying sum/difference pyramid.
    #[must_use]
    pub fn pyramid(&self) -> &HaarPyramid {
        &self.pyramid
    }

    /// Collapses to a per-item frequency vector with `O(1)` range queries.
    /// Exactly answer-preserving: the pyramid uniquely determines the leaf
    /// vector (consistency by design, §4.6).
    #[must_use]
    pub fn to_frequency_estimate(&self) -> FrequencyEstimate {
        FrequencyEstimate::new(self.pyramid.leaves())
    }
}

impl RangeEstimate for HaarEstimate {
    fn domain(&self) -> usize {
        self.pyramid.len()
    }

    fn range(&self, a: usize, b: usize) -> f64 {
        self.pyramid.range_sum(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_freq_oracle::Epsilon;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn coefficient_signs_follow_halves() {
        // Height 3 (D = 8): at the root (depth 0), items 0..4 are left.
        for z in 0..8usize {
            let (node, sign) = coefficient_of(z, 0, 3);
            assert_eq!(node, 0);
            assert_eq!(sign, if z < 4 { 1 } else { -1 }, "z={z}");
        }
        // Depth 2: nodes are pairs; sign alternates with the low bit.
        for z in 0..8usize {
            let (node, sign) = coefficient_of(z, 2, 3);
            assert_eq!(node, z / 2);
            assert_eq!(sign, if z % 2 == 0 { 1 } else { -1 });
        }
    }

    #[test]
    fn per_user_end_to_end() {
        let eps = Epsilon::from_exp(3.0);
        let config = HaarConfig::new(64, eps).unwrap();
        let client = HaarHrrClient::new(config.clone()).unwrap();
        let mut server = HaarHrrServer::new(config).unwrap();
        let mut rng = StdRng::seed_from_u64(91);
        let n = 60_000usize;
        for i in 0..n {
            let v = 16 + (i % 32); // mass on [16, 47]
            let r = client.report(v, &mut rng).unwrap();
            server.absorb(&r).unwrap();
        }
        assert_eq!(server.num_reports(), n as u64);
        let est = server.estimate();
        assert!(
            (est.range(16, 47) - 1.0).abs() < 0.1,
            "got {}",
            est.range(16, 47)
        );
        assert!(est.range(48, 63).abs() < 0.1);
        // Total mass is hardcoded to exactly 1 (the 0th coefficient).
        assert!((est.range(0, 63) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn population_path_is_unbiased() {
        let eps = Epsilon::new(1.1);
        let config = HaarConfig::new(256, eps).unwrap();
        let mut rng = StdRng::seed_from_u64(92);
        let counts = vec![1_000u64; 256];
        let mut mean = 0.0;
        let reps = 20;
        for _ in 0..reps {
            let mut server = HaarHrrServer::new(config.clone()).unwrap();
            server.absorb_population(&counts, &mut rng).unwrap();
            mean += server.estimate().range(64, 191) / f64::from(reps);
        }
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn collapsed_estimate_preserves_answers() {
        let eps = Epsilon::new(1.1);
        let config = HaarConfig::new(128, eps).unwrap();
        let mut server = HaarHrrServer::new(config).unwrap();
        let mut rng = StdRng::seed_from_u64(93);
        server
            .absorb_population(&vec![500u64; 128], &mut rng)
            .unwrap();
        let est = server.estimate();
        let flat = est.to_frequency_estimate();
        for (a, b) in [(0, 127), (5, 90), (64, 64), (32, 95)] {
            assert!(
                (est.range(a, b) - flat.range(a, b)).abs() < 1e-9,
                "range [{a},{b}]"
            );
        }
    }

    #[test]
    fn report_depth_distribution_is_uniform() {
        let config = HaarConfig::new(16, Epsilon::new(1.0)).unwrap();
        let client = HaarHrrClient::new(config).unwrap();
        let mut rng = StdRng::seed_from_u64(94);
        let mut per_depth = [0u32; 4];
        for _ in 0..8_000 {
            let r = client.report(3, &mut rng).unwrap();
            per_depth[r.depth() as usize] += 1;
        }
        for (d, &c) in per_depth.iter().enumerate() {
            let frac = f64::from(c) / 8_000.0;
            assert!((frac - 0.25).abs() < 0.03, "depth {d}: {frac}");
        }
    }

    #[test]
    fn rejects_shape_mismatches() {
        let mut rng = StdRng::seed_from_u64(95);
        let big = HaarHrrClient::new(HaarConfig::new(64, Epsilon::new(1.0)).unwrap()).unwrap();
        let mut small = HaarHrrServer::new(HaarConfig::new(4, Epsilon::new(1.0)).unwrap()).unwrap();
        // Find a report whose depth is out of range for the small server.
        loop {
            let r = big.report(10, &mut rng).unwrap();
            if r.depth() >= 2 {
                assert!(small.absorb(&r).is_err());
                break;
            }
        }
        assert!(small.absorb_population(&[1, 2, 3], &mut rng).is_err());
        assert!(big.report(64, &mut rng).is_err());
    }
}
