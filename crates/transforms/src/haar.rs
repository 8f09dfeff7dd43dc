//! Discrete Haar wavelet Transform (DHT).
//!
//! Two views of the same decomposition are provided:
//!
//! * [`haar_forward`] / [`haar_inverse`] — the orthonormal matrix form shown
//!   in Figure 3 of the paper. The coefficient of the node with block size
//!   `s` is `(Σ left − Σ right)/√s`, and `c[0] = (Σ x)/√D`.
//! * [`HaarPyramid`] — the *unnormalized* sum/difference pyramid the
//!   `HaarHRR` aggregator actually manipulates: for every internal node `u`
//!   it stores `d_u = (Σ left subtree) − (Σ right subtree)` together with the
//!   overall total. Given the total and all `d_u`, any leaf or range sum is
//!   uniquely determined (`C_left = (s + d)/2`, `C_right = (s − d)/2`), which
//!   is the "consistency by design" property of §4.6: no post-processing is
//!   ever required.

/// Orthonormal forward Haar transform of a length-`2^h` vector.
///
/// Output layout: `c[0]` is the scaling coefficient; the detail coefficient
/// of the node at depth `d` (block size `D/2^d`) and horizontal index `t`
/// lives at `c[2^d + t]`. This matches the row layout of Figure 3.
///
/// Runs in `O(D)` via the sum pyramid.
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn haar_forward(x: &[f64]) -> Vec<f64> {
    let n = x.len();
    assert!(
        n.is_power_of_two(),
        "Haar transform requires a power-of-two length, got {n}"
    );
    let mut out = vec![0.0; n];
    let mut sums = x.to_vec();
    let mut width = n; // number of block sums currently held in `sums`
    let mut block = 1usize; // current block size
    while width > 1 {
        let half = width / 2;
        let scale = 1.0 / ((2 * block) as f64).sqrt();
        // Parent nodes at this pass sit at depth log2(half); their
        // coefficient slots are [half, width).
        for t in 0..half {
            let l = sums[2 * t];
            let r = sums[2 * t + 1];
            out[half + t] = (l - r) * scale;
            sums[t] = l + r;
        }
        width = half;
        block *= 2;
    }
    out[0] = sums[0] / (n as f64).sqrt();
    out
}

/// Orthonormal inverse Haar transform; exact inverse of [`haar_forward`].
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn haar_inverse(c: &[f64]) -> Vec<f64> {
    let n = c.len();
    assert!(
        n.is_power_of_two(),
        "Haar transform requires a power-of-two length, got {n}"
    );
    // Rebuild block sums top-down, starting from the grand total.
    let mut sums = vec![0.0; n];
    sums[0] = c[0] * (n as f64).sqrt();
    let mut width = 1usize; // number of valid block sums
    let mut block = n; // their block size
    while width < n {
        let scale = (block as f64).sqrt();
        // Expand in place from the back so we do not clobber unread sums.
        for t in (0..width).rev() {
            let s = sums[t];
            let d = c[width + t] * scale;
            sums[2 * t] = (s + d) / 2.0;
            sums[2 * t + 1] = (s - d) / 2.0;
        }
        width *= 2;
        block /= 2;
    }
    sums
}

/// Unnormalized Haar sum/difference pyramid over a power-of-two domain.
///
/// For the internal node at depth `d ∈ [0, h)` and index `t ∈ [0, 2^d)`
/// it holds `d_u = Σ(left subtree) − Σ(right subtree)`, and `total` holds
/// `Σ x`. This is the natural state of the `HaarHRR` aggregator: the LDP
/// protocol produces one unbiased `d_u` estimate per node, and the
/// hardcoded 0-th coefficient provides `total`. The differences live in
/// one depth-major buffer of `D − 1` slots (depth `d` at offset `2^d − 1`,
/// as [`crate::FlatTree`] lays out its levels), so an aggregator fills
/// each depth in place through [`HaarPyramid::diffs_mut`].
#[derive(Debug, Clone, PartialEq)]
pub struct HaarPyramid {
    height: u32,
    total: f64,
    diffs: Vec<f64>,
}

impl HaarPyramid {
    /// A pyramid of height `h` with the given total and every difference
    /// zero, ready to be filled depth by depth.
    pub fn new(height: u32, total: f64) -> Self {
        Self {
            height,
            total,
            diffs: vec![0.0; (1usize << height) - 1],
        }
    }

    /// Builds the exact pyramid of a length-`2^h` leaf vector in `O(D)`.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two.
    pub fn from_leaves(x: &[f64]) -> Self {
        let n = x.len();
        assert!(
            n.is_power_of_two(),
            "HaarPyramid requires a power-of-two length, got {n}"
        );
        let mut pyramid = Self::new(n.trailing_zeros(), 0.0);
        let mut sums = x.to_vec();
        for d in (0..pyramid.height).rev() {
            let width = 1usize << d;
            for t in 0..width {
                let l = sums[2 * t];
                let r = sums[2 * t + 1];
                *pyramid.diff_mut(d, t) = l - r;
                sums[t] = l + r;
            }
        }
        pyramid.total = sums[0];
        pyramid
    }

    /// Assembles a pyramid from externally estimated parts (`total` from
    /// the hardcoded coefficient, `diffs[d]` the depth-`d` differences).
    ///
    /// # Panics
    ///
    /// Panics unless `diffs.len() == height` and `diffs[d].len() == 2^d`.
    pub fn from_parts(height: u32, total: f64, diffs: Vec<Vec<f64>>) -> Self {
        assert_eq!(
            diffs.len(),
            height as usize,
            "need one diff level per tree depth"
        );
        let mut pyramid = Self::new(height, total);
        for (d, level) in (0..height).zip(&diffs) {
            assert_eq!(level.len(), 1 << d, "level {d} must have 2^{d} nodes");
            pyramid.diffs_mut(d).copy_from_slice(level);
        }
        pyramid
    }

    /// The differences of every internal node at one depth, left to right.
    #[inline]
    pub fn diffs(&self, depth: u32) -> &[f64] {
        let width = 1usize << depth;
        &self.diffs[width - 1..2 * width - 1]
    }

    /// Mutable view of one depth's differences, for the aggregator to
    /// write its estimates into.
    #[inline]
    pub fn diffs_mut(&mut self, depth: u32) -> &mut [f64] {
        let width = 1usize << depth;
        &mut self.diffs[width - 1..2 * width - 1]
    }

    /// Domain size `D = 2^h`.
    #[inline]
    pub fn len(&self) -> usize {
        1 << self.height
    }

    /// True only for the degenerate zero-height pyramid over one leaf.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Tree height `h = log2 D`.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Grand total `Σ x`.
    #[inline]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Difference value of the internal node at `depth` and index `t`.
    #[inline]
    pub fn diff(&self, depth: u32, t: usize) -> f64 {
        self.diffs(depth)[t]
    }

    /// Mutable access for the aggregator while it fills in estimates.
    #[inline]
    pub fn diff_mut(&mut self, depth: u32, t: usize) -> &mut f64 {
        &mut self.diffs_mut(depth)[t]
    }

    /// Reconstructs a single leaf value in `O(log D)`.
    pub fn leaf(&self, i: usize) -> f64 {
        assert!(i < self.len());
        let mut s = self.total;
        let mut t = 0usize;
        for d in 0..self.height {
            let d_u = self.diff(d, t);
            let bit = (i >> (self.height - 1 - d)) & 1;
            s = if bit == 0 {
                (s + d_u) / 2.0
            } else {
                (s - d_u) / 2.0
            };
            t = 2 * t + bit;
        }
        s
    }

    /// Reconstructs every leaf in `O(D)`.
    pub fn leaves(&self) -> Vec<f64> {
        let n = self.len();
        let mut sums = vec![0.0; n];
        sums[0] = self.total;
        let mut width = 1usize;
        for d in 0..self.height {
            // Expand in place from the back so we do not clobber unread sums.
            for t in (0..width).rev() {
                let s = sums[t];
                let d_u = self.diff(d, t);
                sums[2 * t] = (s + d_u) / 2.0;
                sums[2 * t + 1] = (s - d_u) / 2.0;
            }
            width *= 2;
        }
        sums
    }

    /// Sum of leaves in the inclusive range `[a, b]`, in `O(log D)`.
    ///
    /// Only nodes *cut* by the range contribute recursion (at most two per
    /// level), mirroring the "at most 2h coefficients" argument of §4.6.
    ///
    /// # Panics
    ///
    /// Panics if `a > b` or `b` is outside the domain.
    pub fn range_sum(&self, a: usize, b: usize) -> f64 {
        assert!(
            a <= b && b < self.len(),
            "invalid range [{a}, {b}] for domain {}",
            self.len()
        );
        self.range_rec(0, 0, self.total, a, b + 1)
    }

    fn range_rec(&self, depth: u32, t: usize, node_sum: f64, a: usize, b: usize) -> f64 {
        let block = 1usize << (self.height - depth);
        let lo = t * block;
        let hi = lo + block;
        let (qa, qb) = (a.max(lo), b.min(hi));
        if qa >= qb {
            return 0.0;
        }
        if qa == lo && qb == hi {
            return node_sum;
        }
        let d_u = self.diff(depth, t);
        let left = (node_sum + d_u) / 2.0;
        let right = (node_sum - d_u) / 2.0;
        self.range_rec(depth + 1, 2 * t, left, a, b)
            + self.range_rec(depth + 1, 2 * t + 1, right, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-10;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < EPS
    }

    #[test]
    fn forward_matches_figure_3_row_layout() {
        // Item 0 (one-hot) should produce exactly row 0 of Figure 3:
        // 1/√8 · [1, 1, √2, 0, 2, 0, 0, 0].
        let mut x = vec![0.0; 8];
        x[0] = 1.0;
        let c = haar_forward(&x);
        let s = 1.0 / 8f64.sqrt();
        let expected = [1.0, 1.0, 2f64.sqrt(), 0.0, 2.0, 0.0, 0.0, 0.0].map(|v| v * s);
        for (got, want) in c.iter().zip(expected.iter()) {
            assert!(close(*got, *want), "got {got}, want {want}");
        }
    }

    #[test]
    fn forward_matches_figure_3_row_5() {
        // Row 5 of Figure 3: 1/√8 · [1, −1, 0, √2, 0, 0, −2, 0].
        let mut x = vec![0.0; 8];
        x[5] = 1.0;
        let c = haar_forward(&x);
        let s = 1.0 / 8f64.sqrt();
        let expected = [1.0, -1.0, 0.0, 2f64.sqrt(), 0.0, 0.0, -2.0, 0.0].map(|v| v * s);
        for (got, want) in c.iter().zip(expected.iter()) {
            assert!(close(*got, *want), "got {got}, want {want}");
        }
    }

    #[test]
    fn roundtrip() {
        let x: Vec<f64> = (0..64).map(|i| ((i * 37 + 5) % 23) as f64 / 7.0).collect();
        let c = haar_forward(&x);
        let y = haar_inverse(&c);
        for (a, b) in x.iter().zip(y.iter()) {
            assert!(close(*a, *b));
        }
    }

    #[test]
    fn transform_preserves_l2_norm() {
        // Orthonormality (Parseval).
        let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.7).cos()).collect();
        let c = haar_forward(&x);
        let nx: f64 = x.iter().map(|v| v * v).sum();
        let nc: f64 = c.iter().map(|v| v * v).sum();
        assert!(close(nx, nc));
    }

    #[test]
    fn pyramid_matches_direct_sums() {
        let x = [0.1, 0.15, 0.23, 0.12, 0.2, 0.05, 0.07, 0.08];
        let p = HaarPyramid::from_leaves(&x);
        assert!(close(p.total(), x.iter().sum()));
        // Root diff: first half minus second half.
        let first: f64 = x[..4].iter().sum();
        let second: f64 = x[4..].iter().sum();
        assert!(close(p.diff(0, 0), first - second));
        // A depth-2 node: leaves 4,5.
        assert!(close(p.diff(2, 2), x[4] - x[5]));
    }

    #[test]
    fn pyramid_leaf_reconstruction() {
        let x: Vec<f64> = (0..16).map(|i| (i as f64).sqrt()).collect();
        let p = HaarPyramid::from_leaves(&x);
        for (i, &v) in x.iter().enumerate() {
            assert!(close(p.leaf(i), v), "leaf {i}");
        }
        let all = p.leaves();
        for (a, b) in all.iter().zip(x.iter()) {
            assert!(close(*a, *b));
        }
    }

    #[test]
    fn pyramid_range_sums_match_prefix_sums() {
        let x: Vec<f64> = (0..32).map(|i| ((i * 13) % 7) as f64).collect();
        let p = HaarPyramid::from_leaves(&x);
        for a in 0..32 {
            for b in a..32 {
                let truth: f64 = x[a..=b].iter().sum();
                assert!(close(p.range_sum(a, b), truth), "range [{a},{b}]");
            }
        }
    }

    #[test]
    fn from_parts_roundtrips_from_leaves() {
        let x: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let p = HaarPyramid::from_leaves(&x);
        let q = HaarPyramid::from_parts(
            p.height(),
            p.total(),
            (0..p.height())
                .map(|d| (0..1usize << d).map(|t| p.diff(d, t)).collect())
                .collect(),
        );
        assert_eq!(p, q);
    }

    #[test]
    fn single_leaf_domain() {
        let p = HaarPyramid::from_leaves(&[7.0]);
        assert_eq!(p.len(), 1);
        assert!(close(p.range_sum(0, 0), 7.0));
        assert!(close(p.leaf(0), 7.0));
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn pyramid_rejects_bad_length() {
        HaarPyramid::from_leaves(&[1.0, 2.0, 3.0]);
    }
}
