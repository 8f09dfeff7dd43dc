//! Hierarchical Histograms (`HH_B`) — paper §4.3–4.5.
//!
//! The domain is organized as a complete B-ary tree (the B-adic
//! decomposition of Fact 2). Each user arranges her input as the root-to-
//! leaf path of weight 1 (Figure 2), samples **one** level uniformly — the
//! variance-optimal choice, Lemma 4.4, and the key departure from the
//! centralized model, which splits the budget instead — and releases her
//! one-hot node vector at that level through a frequency oracle `F`.
//!
//! The aggregator reconstructs per-level *fraction* histograms and answers
//! a range query by summing the ≤ `2(B−1)` nodes per level of the range's
//! B-adic decomposition (Fact 3). Optional constrained inference
//! ([`consistency`]) finds the least-squares tree, which both reduces
//! variance by at least `B/(B+1)` (Lemma 4.6) and makes every evaluation
//! strategy agree.

pub mod consistency;
pub mod split;

use rand::{Rng, RngCore};

use ldp_freq_oracle::{AnyOracle, AnyReport, PointOracle};
use ldp_transforms::{decompose_range, CompleteTree, FlatTree};

use crate::binomial_support::{scatter_item_over_levels, scatter_item_over_weighted_levels};
use crate::config::HhConfig;
use crate::error::RangeError;
use crate::estimate::{FrequencyEstimate, RangeEstimate};

/// Validates and normalizes per-level sampling weights (length `h`, all
/// positive).
fn normalize_level_weights(weights: &[f64], height: u32) -> Result<Vec<f64>, RangeError> {
    if weights.len() != height as usize || weights.iter().any(|&w| !w.is_finite() || w <= 0.0) {
        return Err(RangeError::ReportShapeMismatch);
    }
    let total: f64 = weights.iter().sum();
    Ok(weights.iter().map(|w| w / total).collect())
}

/// One user's `HH_B` report: the sampled level and the perturbed one-hot
/// node vector at that level.
#[derive(Debug, Clone)]
pub struct HhReport {
    depth: u32,
    inner: AnyReport,
}

impl HhReport {
    /// Tree depth the user reported at (1 = children of the root, `h` =
    /// leaves; the paper's level `l` counts the other way: `l = h − d + 1`).
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// The perturbed one-hot node vector (wire encoding).
    #[must_use]
    pub fn inner(&self) -> &AnyReport {
        &self.inner
    }

    /// Rebuilds a report from its transmitted parts (wire decoding).
    #[must_use]
    pub fn from_parts(depth: u32, inner: AnyReport) -> Self {
        Self { depth, inner }
    }

    /// The inverse of [`HhReport::from_parts`].
    #[must_use]
    pub fn into_parts(self) -> (u32, AnyReport) {
        (self.depth, self.inner)
    }
}

/// Client side of `HH_B`.
///
/// Holds one (stateless) oracle encoder per tree depth; `report` is a pure
/// function of the user's value and randomness.
#[derive(Debug, Clone)]
pub struct HhClient {
    config: HhConfig,
    shape: CompleteTree,
    encoders: Vec<AnyOracle>,
    /// Probability of sampling each depth 1..=h; uniform by default
    /// (Lemma 4.4 proves uniform minimizes the variance bound — the
    /// non-uniform constructor exists for ablating exactly that claim).
    level_probs: Vec<f64>,
}

fn build_level_oracles(config: &HhConfig) -> Result<Vec<AnyOracle>, RangeError> {
    let shape = config.shape();
    (1..=config.height)
        .map(|d| {
            AnyOracle::new(config.oracle, shape.nodes_at_depth(d), config.epsilon)
                .map_err(RangeError::from)
        })
        .collect()
}

impl HhClient {
    /// Builds the client from a validated configuration.
    ///
    /// # Errors
    ///
    /// Propagates per-level oracle construction failures.
    pub fn new(config: HhConfig) -> Result<Self, RangeError> {
        let encoders = build_level_oracles(&config)?;
        let shape = config.shape();
        let level_probs = vec![1.0 / f64::from(config.height); config.height as usize];
        Ok(Self {
            config,
            shape,
            encoders,
            level_probs,
        })
    }

    /// Builds a client with a *non-uniform* level-sampling distribution
    /// (`weights[d-1]` ∝ probability of depth `d`) — an ablation hook for
    /// Lemma 4.4.
    ///
    /// # Errors
    ///
    /// Rejects weight vectors of the wrong length or with non-positive
    /// entries.
    pub fn with_level_weights(config: HhConfig, weights: &[f64]) -> Result<Self, RangeError> {
        let level_probs = normalize_level_weights(weights, config.height)?;
        let encoders = build_level_oracles(&config)?;
        let shape = config.shape();
        Ok(Self {
            config,
            shape,
            encoders,
            level_probs,
        })
    }

    /// Perturbs one user's value: samples a level (uniformly by default)
    /// and releases the one-hot node vector at that level through the
    /// configured oracle.
    ///
    /// # Errors
    ///
    /// Returns an error if `value` is outside the domain.
    pub fn report(&self, value: usize, rng: &mut dyn RngCore) -> Result<HhReport, RangeError> {
        if value >= self.config.domain {
            return Err(RangeError::Oracle(
                ldp_freq_oracle::OracleError::ValueOutOfDomain {
                    value,
                    domain: self.config.domain,
                },
            ));
        }
        let u: f64 = rng.random();
        let mut acc = 0.0;
        let mut depth = self.config.height;
        for (i, &p) in self.level_probs.iter().enumerate() {
            acc += p;
            if u < acc {
                depth = i as u32 + 1;
                break;
            }
        }
        let node = self.shape.ancestor_at_depth(value, depth);
        let inner = self.encoders[depth as usize - 1].encode(node, rng)?;
        Ok(HhReport { depth, inner })
    }
}

/// Aggregator side of `HH_B`.
#[derive(Debug, Clone)]
pub struct HhServer {
    config: HhConfig,
    shape: CompleteTree,
    levels: Vec<AnyOracle>,
    level_probs: Vec<f64>,
}

impl HhServer {
    /// Builds the server from a validated configuration.
    ///
    /// # Errors
    ///
    /// Propagates per-level oracle construction failures.
    pub fn new(config: HhConfig) -> Result<Self, RangeError> {
        let levels = build_level_oracles(&config)?;
        let shape = config.shape();
        let level_probs = vec![1.0 / f64::from(config.height); config.height as usize];
        Ok(Self {
            config,
            shape,
            levels,
            level_probs,
        })
    }

    /// Builds a server whose population simulation scatters users over
    /// levels with the given (normalized) weights — must match the
    /// clients' distribution. Per-level estimates remain unbiased for any
    /// weights; only the variance allocation changes (Lemma 4.4 ablation).
    ///
    /// # Errors
    ///
    /// Rejects invalid weight vectors.
    pub fn with_level_weights(config: HhConfig, weights: &[f64]) -> Result<Self, RangeError> {
        let level_probs = normalize_level_weights(weights, config.height)?;
        let levels = build_level_oracles(&config)?;
        let shape = config.shape();
        Ok(Self {
            config,
            shape,
            levels,
            level_probs,
        })
    }

    /// The configuration this server was built from.
    #[must_use]
    pub fn config(&self) -> &HhConfig {
        &self.config
    }

    /// The per-level oracle accumulators, for the level helpers.
    pub(crate) fn oracles(&self) -> &[AnyOracle] {
        &self.levels
    }

    /// Mutable per-level accumulators, for the level helpers.
    pub(crate) fn oracles_mut(&mut self) -> &mut [AnyOracle] {
        &mut self.levels
    }

    /// Accumulates one user report at its sampled level.
    ///
    /// # Errors
    ///
    /// Rejects reports whose depth or inner shape does not match.
    pub fn absorb(&mut self, report: &HhReport) -> Result<(), RangeError> {
        Ok(self.level_of(report)?.absorb(&report.inner)?)
    }

    /// [`HhServer::absorb`], leaving the report pending in its level
    /// oracle (`MergeableServer::absorb_deferred`).
    pub(crate) fn absorb_deferred(&mut self, report: &HhReport) -> Result<(), RangeError> {
        Ok(self.level_of(report)?.absorb_deferred(&report.inner)?)
    }

    /// The level oracle a report's depth names.
    fn level_of(&mut self, report: &HhReport) -> Result<&mut AnyOracle, RangeError> {
        if report.depth == 0 || report.depth > self.config.height {
            return Err(RangeError::ReportShapeMismatch);
        }
        Ok(&mut self.levels[report.depth as usize - 1])
    }

    /// Absorbs a whole cohort from its true histogram: every user samples
    /// a level and reports there, simulated exactly at population scale
    /// (per-item multinomial scatter over levels, then the level oracle's
    /// aggregate simulation).
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
        let h = self.config.height as usize;
        let uniform = self
            .level_probs
            .iter()
            .all(|&p| (p - self.level_probs[0]).abs() < 1e-15);
        let mut level_counts: Vec<Vec<u64>> = (1..=self.config.height)
            .map(|d| vec![0; self.shape.nodes_at_depth(d)])
            .collect();
        let sink = |z: usize, level_idx: usize, count: u64| {
            let depth = level_idx as u32 + 1;
            let node = self.shape.ancestor_at_depth(z, depth);
            level_counts[level_idx][node] += count;
        };
        if uniform {
            scatter_item_over_levels(true_counts, h, rng, sink);
        } else {
            scatter_item_over_weighted_levels(true_counts, &self.level_probs, rng, sink);
        }
        for (oracle, counts) in self.levels.iter_mut().zip(level_counts.iter()) {
            oracle.absorb_population(counts, rng)?;
        }
        Ok(())
    }

    /// Total reports across all levels.
    #[must_use]
    pub fn num_reports(&self) -> u64 {
        self.levels.iter().map(PointOracle::num_reports).sum()
    }

    /// Reconstructs the raw (inconsistent) estimate tree: per-level
    /// fraction histograms, root pinned at 1.
    #[must_use]
    pub fn estimate(&self) -> HhEstimate {
        HhEstimate::from_levels(self.shape, &self.levels)
    }

    /// Reconstructs the estimate tree and applies constrained inference
    /// (§4.5) — the paper's `CI` suffix.
    #[must_use]
    pub fn estimate_consistent(&self) -> HhEstimate {
        self.estimate().into_consistent()
    }

    /// The per-item estimate of the constrained-inference tree, with
    /// prefix sums: the serial float freeze, its leaf level copied out.
    /// A service publishes [`HhServer::prefix_tables`] instead, which
    /// answers the same up to rounding.
    #[must_use]
    pub fn frequency_estimate(&self) -> FrequencyEstimate {
        self.estimate_consistent().to_frequency_estimate()
    }
}

/// A reconstructed `HH_B` tree of per-node fraction estimates.
#[derive(Debug, Clone)]
pub struct HhEstimate {
    tree: FlatTree<f64>,
    consistent: bool,
}

impl HhEstimate {
    /// The raw tree of one oracle per depth `1..=h`: each level oracle
    /// writes its fraction histogram straight into its level of the
    /// tree, and the root is pinned at 1.
    fn from_levels(shape: CompleteTree, levels: &[AnyOracle]) -> Self {
        let mut tree = FlatTree::new(shape);
        *tree.get_mut(0, 0) = 1.0;
        for (depth, oracle) in (1..).zip(levels) {
            oracle.estimate_into(tree.level_mut(depth));
        }
        Self {
            tree,
            consistent: false,
        }
    }

    /// Applies constrained inference (§4.5) in place.
    fn into_consistent(mut self) -> Self {
        consistency::enforce_consistency(&mut self.tree);
        self.consistent = true;
        self
    }

    /// Whether constrained inference has been applied.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.consistent
    }

    /// The underlying estimate tree.
    #[must_use]
    pub fn tree(&self) -> &FlatTree<f64> {
        &self.tree
    }

    /// Collapses to a per-item frequency vector with `O(1)` range queries.
    ///
    /// For a consistent tree this is exactly answer-preserving ("it does
    /// not matter how we try to answer a range query — we will obtain the
    /// same result", §4.5). For an inconsistent tree the collapsed answers
    /// generally *differ* from [`HhEstimate::range`], which uses the
    /// B-adic decomposition; prefer `range` there.
    #[must_use]
    pub fn to_frequency_estimate(&self) -> FrequencyEstimate {
        FrequencyEstimate::new(self.tree.leaves().to_vec())
    }

    /// Maximum over nodes of |node − Σ children| — zero (up to floating
    /// point) iff the tree is consistent.
    #[must_use]
    pub fn consistency_violation(&self) -> f64 {
        let shape = self.tree.shape();
        let mut worst = 0.0f64;
        for d in 0..shape.height() {
            for idx in 0..shape.nodes_at_depth(d) {
                let child_sum: f64 = shape
                    .children(d, idx)
                    .map(|c| *self.tree.get(d + 1, c))
                    .sum();
                worst = worst.max((self.tree.get(d, idx) - child_sum).abs());
            }
        }
        worst
    }
}

impl RangeEstimate for HhEstimate {
    fn domain(&self) -> usize {
        self.tree.shape().domain()
    }

    fn range(&self, a: usize, b: usize) -> f64 {
        let shape = self.tree.shape();
        decompose_range(&shape, a, b)
            .iter()
            .map(|n| *self.tree.get(n.depth, n.index))
            .sum()
    }

    fn point(&self, z: usize) -> f64 {
        *self.tree.get(self.tree.shape().height(), z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_freq_oracle::{Epsilon, FrequencyOracle};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn uniform_counts(domain: usize, per_item: u64) -> Vec<u64> {
        vec![per_item; domain]
    }

    #[test]
    fn report_depths_are_uniform() {
        let config = HhConfig::new(256, 4, Epsilon::new(1.1)).unwrap();
        let client = HhClient::new(config).unwrap();
        let mut rng = StdRng::seed_from_u64(71);
        let mut per_depth = [0u32; 5];
        for _ in 0..8_000 {
            let r = client.report(100, &mut rng).unwrap();
            per_depth[r.depth() as usize] += 1;
        }
        assert_eq!(per_depth[0], 0);
        for (d, &count) in per_depth.iter().enumerate().skip(1) {
            let frac = f64::from(count) / 8_000.0;
            assert!((frac - 0.25).abs() < 0.03, "depth {d}: {frac}");
        }
    }

    #[test]
    fn per_user_end_to_end() {
        let eps = Epsilon::from_exp(3.0);
        let config = HhConfig::new(64, 2, eps).unwrap();
        let client = HhClient::new(config.clone()).unwrap();
        let mut server = HhServer::new(config).unwrap();
        let mut rng = StdRng::seed_from_u64(72);
        let n = 60_000usize;
        for i in 0..n {
            // Population concentrated on [16, 47].
            let v = 16 + (i % 32);
            let r = client.report(v, &mut rng).unwrap();
            server.absorb(&r).unwrap();
        }
        assert_eq!(server.num_reports(), n as u64);
        let est = server.estimate_consistent();
        assert!(
            (est.range(16, 47) - 1.0).abs() < 0.1,
            "got {}",
            est.range(16, 47)
        );
        assert!(est.range(48, 63).abs() < 0.1);
    }

    #[test]
    fn population_path_is_unbiased() {
        let eps = Epsilon::new(1.1);
        let config = HhConfig::new(256, 4, eps).unwrap();
        let mut rng = StdRng::seed_from_u64(73);
        let counts = uniform_counts(256, 1_000);
        let mut mean_range = 0.0;
        let reps = 20;
        for _ in 0..reps {
            let mut server = HhServer::new(config.clone()).unwrap();
            server.absorb_population(&counts, &mut rng).unwrap();
            mean_range += server.estimate().range(64, 191) / f64::from(reps);
        }
        assert!((mean_range - 0.5).abs() < 0.02, "mean {mean_range}");
    }

    #[test]
    fn consistency_zeroes_violations_and_preserves_answer_paths() {
        let eps = Epsilon::new(1.1);
        let config = HhConfig::new(256, 4, eps).unwrap();
        let mut server = HhServer::new(config).unwrap();
        let mut rng = StdRng::seed_from_u64(74);
        server
            .absorb_population(&uniform_counts(256, 500), &mut rng)
            .unwrap();

        let raw = server.estimate();
        assert!(!raw.is_consistent());
        assert!(
            raw.consistency_violation() > 1e-6,
            "noise should break consistency"
        );

        let ci = server.estimate_consistent();
        assert!(ci.is_consistent());
        assert!(ci.consistency_violation() < 1e-9);

        // After CI, decomposition answers equal leaf prefix-sum answers.
        let collapsed = ci.to_frequency_estimate();
        for (a, b) in [(0, 255), (3, 200), (17, 17), (128, 191)] {
            assert!(
                (ci.range(a, b) - collapsed.range(a, b)).abs() < 1e-9,
                "range [{a},{b}] mismatch"
            );
        }
    }

    #[test]
    fn consistent_levels_sum_to_one() {
        let eps = Epsilon::new(0.8);
        let config = HhConfig::new(64, 8, eps).unwrap();
        let mut server = HhServer::new(config).unwrap();
        let mut rng = StdRng::seed_from_u64(75);
        server
            .absorb_population(&uniform_counts(64, 2_000), &mut rng)
            .unwrap();
        let ci = server.estimate_consistent();
        let shape = ci.tree().shape();
        for d in 0..=shape.height() {
            let s: f64 = ci.tree().level(d).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "depth {d} sums to {s}");
        }
    }

    #[test]
    fn hrr_level_oracle_variant() {
        let eps = Epsilon::new(1.1);
        let config = HhConfig::with_oracle(256, 4, eps, FrequencyOracle::Hrr).unwrap();
        let mut server = HhServer::new(config).unwrap();
        let mut rng = StdRng::seed_from_u64(76);
        let mut counts = vec![0u64; 256];
        for (z, c) in counts.iter_mut().enumerate() {
            *c = if z < 128 { 1_500 } else { 500 };
        }
        server.absorb_population(&counts, &mut rng).unwrap();
        let est = server.estimate_consistent();
        assert!(
            (est.range(0, 127) - 0.75).abs() < 0.05,
            "got {}",
            est.range(0, 127)
        );
    }

    #[test]
    fn rejects_wrong_population_length() {
        let config = HhConfig::new(64, 2, Epsilon::new(1.0)).unwrap();
        let mut server = HhServer::new(config).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        assert!(matches!(
            server.absorb_population(&[1, 2, 3], &mut rng),
            Err(RangeError::ReportShapeMismatch)
        ));
    }

    #[test]
    fn rejects_out_of_domain_value() {
        let config = HhConfig::new(64, 2, Epsilon::new(1.0)).unwrap();
        let client = HhClient::new(config).unwrap();
        let mut rng = StdRng::seed_from_u64(78);
        assert!(client.report(64, &mut rng).is_err());
    }
}
