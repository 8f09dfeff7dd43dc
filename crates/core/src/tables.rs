//! Answers straight from the integer statistics: per-level prefix tables
//! and the `O(h²)` evaluator over them (paper §4.2, §4.4–§4.5, §4.7).
//!
//! Every served level estimate is affine in its level's integer
//! statistic: `x = α_ℓ·t + β_ℓ`, where `t` is OUE's and OLH's counts as
//! they are and HRR's signed sums through an exact integer transform
//! ([`PointOracle::estimate_map`], [`PointOracle::statistic_prefix_into`]).
//! So the sum of the raw estimates over a run `[lo, hi)` of level `ℓ` is
//! one difference of that level's integer prefix `P_ℓ`:
//! `α_ℓ·(P_ℓ[hi] − P_ℓ[lo]) + β_ℓ·(hi − lo)`.
//!
//! Constrained inference is a fixed linear map (Hay, Rastogi, Miklau,
//! Suciu, VLDB 2010), and [`crate::hh::consistency`]'s bottom-up pass
//! unrolls into one: a run of nodes at depth `d` whose subtrees have `i`
//! levels has bottom-up value `f̄ = Σ_k c_{i,k}·S_{d+k}`, where `S_{d+k}`
//! is the raw-estimate sum over the run's descendants at depth `d + k` —
//! a contiguous run again — and `c_{1,0} = 1`, `c_{i,0} = w_self(i)`,
//! `c_{i,k} = w_children(i)·c_{i−1,k−1}`. The top-down pass needs only
//! the path: with `f̂(root) = 1` pinned, each depth's sibling group `g`
//! around the path node `n` gets `adj = (f̂(parent) − f̄(g))/B`, so the
//! siblings left of `n` hold `f̄(left) + (their count)·adj` and
//! `f̂(n) = f̄(n) + adj`. A consistent tree's leaves under a node sum to
//! the node, so a prefix `R[0, b]` is one root-to-leaf walk: the left
//! siblings' mass at every depth, plus the leaf itself — `O(h²)` prefix
//! lookups whatever `B` is, and no float freeze of the whole tree. The
//! flat mechanism is one level with no inference.
//!
//! `HaarHRR` (§4.6) needs no inference: its depth-`d` level holds one
//! HRR statistic per internal node, and node `n`'s coefficient — the
//! estimated mass of its left half minus its right half — is
//! `θ = α_d·(P_d[n + 1] − P_d[n])`. A prefix is one root-to-leaf walk:
//! the subtree sum `S = 1` is pinned at the root, a node's halves hold
//! `(S + θ)/2` and `(S − θ)/2`, and where the path goes right the left
//! half is added to the prefix — `O(h)` lookups.
//!
//! The answers equal the serial float freeze ([`HhServer::frequency_estimate`],
//! [`FlatServer::frequency_estimate`], [`HaarHrrServer::frequency_estimate`])
//! of the same integers up to rounding, within
//! [`PrefixTables::freeze_tolerance`].

use ldp_freq_oracle::{EstimateMap, OracleError, PointOracle};
use ldp_transforms::CompleteTree;

use crate::estimate::RangeEstimate;
use crate::flat::FlatServer;
use crate::haar::HaarHrrServer;
use crate::hh::HhServer;

#[cfg(doc)]
use crate::estimate::FrequencyEstimate;

/// One integer prefix table per level plus that level's affine map, and
/// the shape: a flat, `HH_B` (with constrained inference) or `HaarHRR`
/// estimate that answers range, prefix, point and quantile queries in
/// `O(h²)` lookups without materializing a per-item vector (see the
/// [module docs](self)).
///
/// A table is rebuilt in place over a retired one's buffers
/// ([`FlatServer::prefix_tables_into`], [`HhServer::prefix_tables_into`],
/// [`HaarHrrServer::prefix_tables_into`]), so a warm rebuild allocates
/// nothing. Every slot is rewritten, so a rebuilt table answers exactly
/// as a freshly allocated one.
#[derive(Debug, Clone, Default)]
pub struct PrefixTables {
    shape: Shape,
    /// Level `ℓ`'s prefix `P_ℓ` is `prefix[starts[ℓ]..]`, one entry more
    /// than the level has items.
    starts: Vec<usize>,
    maps: Vec<EstimateMap>,
    prefix: Vec<i64>,
    /// `c_{i,k}` at `coeffs[i(i − 1)/2 + k]`, for `1 ≤ i ≤ h`, `k < i`.
    coeffs: Vec<f64>,
}

/// How the levels of a [`PrefixTables`] make up the estimate.
#[derive(Debug, Clone, Copy, Default)]
enum Shape {
    /// The flat mechanism's one level.
    #[default]
    Flat,
    /// `HH_B`: level `ℓ` is depth `ℓ + 1` of the tree, answered through
    /// constrained inference.
    Tree(CompleteTree),
    /// `HaarHRR` of this height: level `d` holds the coefficients of the
    /// `2^d` internal nodes at depth `d`.
    Haar(u32),
}

impl PrefixTables {
    /// Rebuilds over this table's buffers: each level's prefix and map
    /// from its oracle, and for a tree the inference coefficients.
    fn fill<O: PointOracle>(&mut self, shape: Shape, levels: &[O]) -> Result<(), OracleError> {
        self.shape = shape;
        self.starts.clear();
        self.maps.clear();
        let total = levels.iter().map(|level| level.domain() + 1).sum();
        self.prefix.resize(total, 0);
        let mut start = 0;
        for level in levels {
            let end = start + level.domain() + 1;
            level.statistic_prefix_into(&mut self.prefix[start..end])?;
            self.starts.push(start);
            self.maps.push(level.estimate_map());
            start = end;
        }
        self.coeffs.clear();
        if let Shape::Tree(tree) = shape {
            push_coefficients(&mut self.coeffs, tree);
        }
        Ok(())
    }

    /// Level `ℓ`'s prefix and map.
    fn level(&self, level: usize) -> (&[i64], EstimateMap) {
        (&self.prefix[self.starts[level]..], self.maps[level])
    }

    /// The raw-estimate sum over `[lo, hi)` of the flat level.
    fn flat_sum(&self, lo: usize, hi: usize) -> f64 {
        let (prefix, map) = self.level(0);
        run_sum(map, prefix[lo], prefix[hi], hi - lo)
    }

    /// The root-to-leaf walk to `leaf` of a tree or a Haar pyramid: the
    /// mass of every leaf before `leaf`, and the leaf's own value. `None`
    /// for the flat level, which has no path.
    fn walk(&self, leaf: usize) -> Option<(f64, f64)> {
        match self.shape {
            Shape::Flat => None,
            Shape::Tree(shape) => Some(self.tree_walk(shape, leaf)),
            Shape::Haar(height) => Some(self.haar_walk(height, leaf)),
        }
    }

    /// The tree walk: the constrained-inference mass of every node left
    /// of the path and the leaf's own value.
    fn tree_walk(&self, shape: CompleteTree, leaf: usize) -> (f64, f64) {
        let (b, h) = (shape.fanout(), shape.height() as usize);
        let mut parent = 1.0;
        let mut left_mass = 0.0;
        for depth in 1..=h {
            let n = shape.ancestor_at_depth(leaf, depth as u32);
            let g = n - n % b;
            let i = h - depth + 1;
            // f̄ of the left siblings, the path node and the right ones.
            let (mut left, mut node, mut right) = (0.0, 0.0, 0.0);
            let mut width = 1;
            for (k, &c) in self.coeffs[i * (i - 1) / 2..][..i].iter().enumerate() {
                let (prefix, map) = self.level(depth - 1 + k);
                let [p0, p1, p2, p3] = [g, n, n + 1, g + b].map(|x| prefix[x * width]);
                left += c * run_sum(map, p0, p1, (n - g) * width);
                node += c * run_sum(map, p1, p2, width);
                right += c * run_sum(map, p2, p3, (g + b - n - 1) * width);
                width *= b;
            }
            let adj = (parent - (left + node + right)) / b as f64;
            left_mass += left + (n - g) as f64 * adj;
            parent = node + adj;
        }
        (left_mass, parent)
    }

    /// The Haar walk: from `S = 1` at the root, each depth's path node
    /// `n` splits `S` by its coefficient `θ` into halves `(S + θ)/2` and
    /// `(S − θ)/2`; the left half is added to the mass where the path
    /// goes right, and the path's half is carried down.
    fn haar_walk(&self, height: u32, leaf: usize) -> (f64, f64) {
        let mut sum = 1.0;
        let mut left_mass = 0.0;
        for depth in 0..height {
            let n = leaf >> (height - depth);
            let (prefix, map) = self.level(depth as usize);
            let theta = run_sum(map, prefix[n], prefix[n + 1], 1);
            let (left, right) = ((sum + theta) / 2.0, (sum - theta) / 2.0);
            if (leaf >> (height - depth - 1)) & 1 == 1 {
                left_mass += left;
                sum = right;
            } else {
                sum = left;
            }
        }
        (left_mass, sum)
    }

    /// The absolute bound within which every answer — a prefix, range or
    /// point — agrees with the serial float freeze of the same integers
    /// ([`FlatServer::frequency_estimate`], [`HhServer::frequency_estimate`],
    /// [`HaarHrrServer::frequency_estimate`]).
    ///
    /// **Derivation.** Let `u = 2^−53` and `X = 1 + Σ_ℓ Σ_v (|α_ℓ t_v| +
    /// |β_ℓ|)`: the pinned root plus, for every node, the magnitudes of the
    /// two terms of its raw estimate. Both computations are linear in the
    /// exact raw estimates and the root. Each computes a raw estimate
    /// with at most four roundings, absolute error at most
    /// `4u(|α t| + |β|)` — cancellation inside a raw estimate is why its
    /// terms are counted and not the estimate. Then every output passes
    /// through at most `K = D + 2(B + 4)h + 8h² + 16` further rounded
    /// operations: the freeze's bottom-up and top-down passes (at most
    /// `B + 4` per level each way) and its prefix chain of up to `D`
    /// adds; the evaluator's two walks (at most `4h` per depth each) and
    /// one subtraction. The standard bound for such a computation is
    /// `γ_K = Ku/(1 − Ku)` times the same computation run on absolute
    /// values. In that run the bottom-up weights are at most 1, so a run's
    /// `f̄` is at most its subtrees' share of `X`; a top-down step adds at
    /// most its parent and its group, so one depth's `f̂` total grows by
    /// at most `2X`, and every prefix, walk and partial sum is at most
    /// `(1 + 2h)X`. Each side's error is at most `γ_K(1 + 2h)X`, and the
    /// tolerance is twice that. The flat mechanism has `h = 1` and no
    /// passes.
    ///
    /// **`HaarHRR`.** `X` is the same sum; here every map has `β = 0` and
    /// `t` is each depth's exact transform of its signed sums `s`, so
    /// `s = φt/2^d` and a depth's `M_d = Σ|s|` is at most its
    /// `T_d = Σ|t|`. The freeze rounds each coefficient before it expands
    /// it: a sum's conversion and scaling, then `d` transform adds, leave
    /// `θ` within `γ_{d+2}|α_d|M_d ≤ γ_{h+1}|α_d|T_d`. An exact prefix
    /// or point weighs at most one coefficient per depth, the path's, by
    /// at most 1 (a subtree wholly inside or outside a prefix cancels its
    /// own coefficient), so that error reaches an answer as at most
    /// `γ_{h+1}X`. The leaf expansion (one rounded add per depth) and the
    /// prefix chain then run on absolute values at most
    /// `1 + Σ_d Σ_n |θ̃| ≤ 2X` per prefix entry, through at most
    /// `D + h + 2` rounded steps. The tables round each coefficient at
    /// most three times and walk `h` depths at two rounded steps each,
    /// absolute values at most `X` per walk. With `K = D + 2h + 8`, a
    /// range (two prefixes and a subtraction) is within `6γ_K X` of exact
    /// on the freeze side and `2γ_K X` on the tables side; the tolerance
    /// is twice the larger, `12γ_K X`.
    ///
    /// The bound is worst case: answers differ in their last few bits in
    /// practice.
    #[must_use]
    pub fn freeze_tolerance(&self) -> f64 {
        let mut x = 1.0;
        for (level, &map) in self.maps.iter().enumerate() {
            let (prefix, _) = self.level(level);
            let items = self.level_items(level);
            let mass: f64 = prefix[..=items]
                .windows(2)
                .map(|w| (w[1] - w[0]).unsigned_abs() as f64)
                .sum();
            x += map.scale.abs() * mass + map.offset.abs() * items as f64;
        }
        let (b, h) = match self.shape {
            Shape::Flat => (0, 1),
            Shape::Tree(shape) => (shape.fanout(), shape.height() as usize),
            Shape::Haar(height) => {
                let h = height as usize;
                return 12.0 * gamma(self.domain() + 2 * h + 8) * x;
            }
        };
        let k = self.domain() + 2 * (b + 4) * h + 8 * h * h + 16;
        2.0 * gamma(k) * (1 + 2 * h) as f64 * x
    }

    /// Items of level `ℓ`.
    fn level_items(&self, level: usize) -> usize {
        let end = self
            .starts
            .get(level + 1)
            .copied()
            .unwrap_or(self.prefix.len());
        end - self.starts[level] - 1
    }
}

/// `γ_k = ku/(1 − ku)` for the unit roundoff `u = 2^−53`: the relative
/// error bound of `k` rounded steps.
fn gamma(k: usize) -> f64 {
    let ku = k as f64 * f64::EPSILON / 2.0;
    ku / (1.0 - ku)
}

/// `α·(P[hi] − P[lo]) + β·count`: the raw-estimate sum over a run of
/// `count` items whose prefix entries are `lo` and `hi`. The difference
/// is exact: it is a partial sum of the statistic, which the table build
/// bounds.
fn run_sum(map: EstimateMap, lo: i64, hi: i64, count: usize) -> f64 {
    map.scale * (hi - lo) as f64 + map.offset * count as f64
}

/// Appends the bottom-up coefficients `c_{i,k}` of a tree of `shape`, row
/// `i = 1..=h` after row: the weights of [`crate::hh::consistency`]'s
/// bottom-up pass, `w_self(i) = (B^i − B^{i−1})/(B^i − 1)` and
/// `w_children(i) = (B^{i−1} − 1)/(B^i − 1)`.
fn push_coefficients(coeffs: &mut Vec<f64>, shape: CompleteTree) {
    let b = shape.fanout() as f64;
    for i in 1..=shape.height() as usize {
        let levels = i32::try_from(i).unwrap_or(i32::MAX);
        let bi = b.powi(levels);
        let bim1 = b.powi(levels - 1);
        let w_self = (bi - bim1) / (bi - 1.0);
        let w_children = (bim1 - 1.0) / (bi - 1.0);
        let previous = coeffs.len() - (i - 1);
        coeffs.push(w_self);
        for k in 1..i {
            coeffs.push(w_children * coeffs[previous + k - 1]);
        }
    }
}

impl RangeEstimate for PrefixTables {
    fn domain(&self) -> usize {
        match self.shape {
            Shape::Flat => self.prefix.len().saturating_sub(1),
            Shape::Tree(shape) => shape.domain(),
            Shape::Haar(height) => 1 << height,
        }
    }

    /// A flat range is one prefix difference; any other is the
    /// difference of two walks.
    fn range(&self, a: usize, b: usize) -> f64 {
        assert!(a <= b && b < self.domain(), "invalid range [{a}, {b}]");
        match self.shape {
            Shape::Flat => self.flat_sum(a, b + 1),
            _ if a == 0 => self.prefix(b),
            _ => self.prefix(b) - self.prefix(a - 1),
        }
    }

    fn prefix(&self, b: usize) -> f64 {
        assert!(b < self.domain(), "invalid prefix [0, {b}]");
        self.walk(b)
            .map_or_else(|| self.flat_sum(0, b + 1), |(left, leaf)| left + leaf)
    }

    fn point(&self, z: usize) -> f64 {
        assert!(z < self.domain(), "invalid point {z}");
        self.walk(z)
            .map_or_else(|| self.flat_sum(z, z + 1), |(_, leaf)| leaf)
    }
}

impl FlatServer {
    /// The flat estimate as prefix tables, freshly allocated.
    ///
    /// # Errors
    ///
    /// [`OracleError::StatisticOverflow`] for statistics too large for
    /// exact 64-bit prefixes (a restored state near the integer limits).
    pub fn prefix_tables(&self) -> Result<PrefixTables, OracleError> {
        self.prefix_tables_into(PrefixTables::default())
    }

    /// [`FlatServer::prefix_tables`] rebuilt over `spare`'s buffers.
    ///
    /// # Errors
    ///
    /// As [`FlatServer::prefix_tables`].
    pub fn prefix_tables_into(&self, mut spare: PrefixTables) -> Result<PrefixTables, OracleError> {
        spare.fill(Shape::Flat, std::slice::from_ref(self.oracle()))?;
        Ok(spare)
    }
}

impl HhServer {
    /// The constrained-inference estimate as prefix tables, freshly
    /// allocated: what [`HhServer::frequency_estimate`] publishes, up to
    /// rounding.
    ///
    /// # Errors
    ///
    /// [`OracleError::StatisticOverflow`] for statistics too large for
    /// exact 64-bit prefixes (a restored state near the integer limits).
    pub fn prefix_tables(&self) -> Result<PrefixTables, OracleError> {
        self.prefix_tables_into(PrefixTables::default())
    }

    /// [`HhServer::prefix_tables`] rebuilt over `spare`'s buffers.
    ///
    /// # Errors
    ///
    /// As [`HhServer::prefix_tables`].
    pub fn prefix_tables_into(&self, mut spare: PrefixTables) -> Result<PrefixTables, OracleError> {
        spare.fill(Shape::Tree(self.config().shape()), self.oracles())?;
        Ok(spare)
    }
}

impl HaarHrrServer {
    /// The Haar estimate as prefix tables, freshly allocated: what
    /// [`HaarHrrServer::frequency_estimate`] publishes, up to rounding.
    ///
    /// # Errors
    ///
    /// [`OracleError::StatisticOverflow`] for statistics too large for
    /// exact 64-bit prefixes (a restored state near the integer limits).
    pub fn prefix_tables(&self) -> Result<PrefixTables, OracleError> {
        self.prefix_tables_into(PrefixTables::default())
    }

    /// [`HaarHrrServer::prefix_tables`] rebuilt over `spare`'s buffers.
    ///
    /// # Errors
    ///
    /// As [`HaarHrrServer::prefix_tables`].
    pub fn prefix_tables_into(&self, mut spare: PrefixTables) -> Result<PrefixTables, OracleError> {
        spare.fill(Shape::Haar(self.config().height), self.oracles())?;
        Ok(spare)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FlatConfig, HhConfig};
    use ldp_freq_oracle::{Epsilon, FrequencyOracle};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn coefficients_follow_the_recurrence() {
        let shape = CompleteTree::new(4, 64);
        let mut coeffs = Vec::new();
        push_coefficients(&mut coeffs, shape);
        assert_eq!(coeffs.len(), 6);
        assert_eq!(coeffs[0], 1.0);
        // i = 2: w_self = 12/15, w_children = 3/15.
        assert!((coeffs[1] - 0.8).abs() < 1e-15);
        assert!((coeffs[2] - 0.2).abs() < 1e-15);
        // i = 3: w_self = 48/63, w_children = 15/63.
        assert!((coeffs[3] - 48.0 / 63.0).abs() < 1e-15);
        assert!((coeffs[4] - 15.0 / 63.0 * 0.8).abs() < 1e-15);
        assert!((coeffs[5] - 15.0 / 63.0 * 0.2).abs() < 1e-15);
    }

    #[test]
    fn a_rebuilt_table_answers_as_a_fresh_one() {
        let config = HhConfig::new(256, 4, Epsilon::from_exp(3.0)).unwrap();
        let mut server = HhServer::new(config).unwrap();
        let mut rng = StdRng::seed_from_u64(5101);
        let counts: Vec<u64> = (0..256u64).map(|z| z % 7).collect();
        let stale = server.prefix_tables().unwrap();
        server.absorb_population(&counts, &mut rng).unwrap();
        let fresh = server.prefix_tables().unwrap();
        let rebuilt = server.prefix_tables_into(stale).unwrap();
        for b in 0..256 {
            assert_eq!(fresh.prefix(b).to_bits(), rebuilt.prefix(b).to_bits());
        }
        // A flat table over a tree's buffers.
        let flat = FlatConfig::with_oracle(100, Epsilon::from_exp(3.0), FrequencyOracle::Olh);
        let flat = FlatServer::new(&flat.unwrap()).unwrap();
        let tables = flat.prefix_tables_into(rebuilt).unwrap();
        assert_eq!(tables.domain(), 100);
        assert_eq!(tables.range(3, 40), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn rejects_bad_range() {
        let config = HhConfig::new(16, 4, Epsilon::from_exp(3.0)).unwrap();
        let _ = HhServer::new(config)
            .unwrap()
            .prefix_tables()
            .unwrap()
            .range(3, 16);
    }
}
