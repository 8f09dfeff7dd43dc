//! Constrained inference ("CI"): least-squares post-processing of the
//! hierarchical estimate tree (paper §4.5, after Hay et al.).
//!
//! The raw tree is redundant — a node and its children independently
//! estimate the same mass — and noisy, so `parent ≠ Σ children`. Because
//! all per-node estimates share the same variance, the Gauss–Markov theorem
//! makes the least-squares solution the best linear unbiased estimator; it
//! reduces per-node variance by at least `B/(B+1)` (Lemma 4.6) and enforces
//! exact consistency, so every way of assembling a range answer agrees.
//!
//! The efficient two-stage linear-time procedure:
//!
//! 1. **Weighted averaging** (bottom-up): each internal node's estimate is
//!    blended with the sum of its children's adjusted estimates,
//!    `f̄(v) = (B^i − B^{i−1})/(B^i − 1)·f(v) + (B^{i−1} − 1)/(B^i − 1)·Σ f̄(u)`,
//!    where `i` is the number of tree levels in `v`'s subtree (leaves have
//!    `i = 1` and are left unchanged).
//! 2. **Mean consistency** (top-down): the residual between a parent and
//!    its children's total is split equally among the children,
//!    `f̂(v) = f̄(v) + (f̂(parent) − Σ_siblings f̄)/B`.
//!
//! One departure from the centralized literature: the root is not an
//! observed quantity here — users sample only levels 1..h, and the root
//! *fraction* is 1 by definition — so the root is pinned to exactly 1 and
//! every level is thereby renormalized to total mass 1 (the reason the
//! paper works "with the distribution of frequencies across each level,
//! rather than counts").

use ldp_transforms::FlatTree;

/// Applies the two-stage least-squares post-processing in place.
///
/// Expects per-level fraction estimates (each level summing to ≈ 1). Runs
/// in `O(total nodes)` — "the cost of this post-processing is relatively
/// low for the aggregator". Both stages are local to the subtrees under
/// the root's children except for one step, the root's own top-down
/// step over level 1, so the work is three passes — bottom-up, the root
/// step, top-down. [`crate::PrefixTables`] evaluates the same map along
/// one root-to-leaf path per answer instead.
pub fn enforce_consistency(tree: &mut FlatTree<f64>) {
    let fanout = tree.shape().fanout();
    let mut levels = tree.levels_mut();
    if let Some(root) = levels.next() {
        root[0] = 1.0;
    }
    let mut below: Vec<&mut [f64]> = levels.collect();
    bottom_up(&mut below, fanout);
    if let Some(level1) = below.first_mut() {
        root_step(level1, fanout);
    }
    top_down(&mut below, fanout);
}

// Both stages walk one depth and the depth below it as two slices,
// children grouped per parent by `chunks_exact(fanout)`. Each child sum
// adds left to right, so results are bit-identical to per-node
// `(depth, index)` addressing — the differential test below pins that.

/// Stage 1, bottom-up weighted averaging, below the root: `levels[i]`
/// holds depth `i + 1`, so `levels.len()` is the tree height.
fn bottom_up(levels: &mut [&mut [f64]], fanout: usize) {
    let b = fanout as f64;
    let h = levels.len();
    // Internal, non-root nodes: depths h − 1 down to 1.
    for d in (1..h).rev() {
        let subtree_levels = i32::try_from(h - d + 1).expect("height fits i32");
        let bi = b.powi(subtree_levels);
        let bim1 = b.powi(subtree_levels - 1);
        let w_self = (bi - bim1) / (bi - 1.0);
        let w_children = (bim1 - 1.0) / (bi - 1.0);
        let (upper, lower) = levels.split_at_mut(d);
        let (parents, children) = (&mut *upper[d - 1], &*lower[0]);
        for (v, group) in parents.iter_mut().zip(children.chunks_exact(fanout)) {
            let child_sum: f64 = group.iter().sum();
            *v = w_self * *v + w_children * child_sum;
        }
    }
}

/// Stage 2's first step: the root is the whole population, 1, and the
/// residual between it and level 1's total, summed left to right, is
/// shared equally among the `fanout` nodes.
fn root_step(level1: &mut [f64], fanout: usize) {
    debug_assert_eq!(level1.len(), fanout);
    let child_sum: f64 = level1.iter().sum();
    let adjust = (1.0 - child_sum) / fanout as f64;
    for c in level1 {
        *c += adjust;
    }
}

/// Stage 2, top-down mean consistency, below level 1 (see
/// [`bottom_up`]). Runs after [`root_step`].
fn top_down(levels: &mut [&mut [f64]], fanout: usize) {
    let b = fanout as f64;
    for d in 1..levels.len() {
        let (upper, lower) = levels.split_at_mut(d);
        let (parents, children) = (&*upper[d - 1], &mut *lower[0]);
        for (parent_val, group) in parents.iter().zip(children.chunks_exact_mut(fanout)) {
            let child_sum: f64 = group.iter().sum();
            let adjust = (parent_val - child_sum) / b;
            for c in group {
                *c += adjust;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_transforms::CompleteTree;

    fn max_violation(tree: &FlatTree<f64>) -> f64 {
        let shape = tree.shape();
        let mut worst = 0.0f64;
        for d in 0..shape.height() {
            for idx in 0..shape.nodes_at_depth(d) {
                let child_sum: f64 = shape.children(d, idx).map(|c| *tree.get(d + 1, c)).sum();
                worst = worst.max((tree.get(d, idx) - child_sum).abs());
            }
        }
        worst
    }

    fn noisy_tree(shape: CompleteTree, seed: u64) -> FlatTree<f64> {
        // Deterministic pseudo-noise around a uniform distribution, with
        // each level summing to ~1.
        let mut tree = FlatTree::new(shape);
        *tree.get_mut(0, 0) = 1.0;
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 0.01
        };
        for d in 1..=shape.height() {
            let n = shape.nodes_at_depth(d);
            for idx in 0..n {
                *tree.get_mut(d, idx) = 1.0 / n as f64 + next();
            }
        }
        tree
    }

    /// The scalar oracle: the textbook two-stage procedure addressed node
    /// by node through `tree.get(d, idx)` / `shape.children(d, idx)`.
    /// Kept only as the reference [`enforce_consistency`] is pinned to.
    fn enforce_consistency_scalar(tree: &mut FlatTree<f64>) {
        let shape = tree.shape();
        let b = shape.fanout() as f64;
        let h = shape.height();
        for d in (1..h).rev() {
            let subtree_levels = i32::try_from(h - d + 1).expect("height fits i32");
            let bi = b.powi(subtree_levels);
            let bim1 = b.powi(subtree_levels - 1);
            let w_self = (bi - bim1) / (bi - 1.0);
            let w_children = (bim1 - 1.0) / (bi - 1.0);
            for idx in 0..shape.nodes_at_depth(d) {
                let child_sum: f64 = shape.children(d, idx).map(|c| *tree.get(d + 1, c)).sum();
                let v = tree.get_mut(d, idx);
                *v = w_self * *v + w_children * child_sum;
            }
        }
        *tree.get_mut(0, 0) = 1.0;
        for d in 0..h {
            for parent in 0..shape.nodes_at_depth(d) {
                let parent_val = *tree.get(d, parent);
                let child_sum: f64 = shape.children(d, parent).map(|c| *tree.get(d + 1, c)).sum();
                let adjust = (parent_val - child_sum) / b;
                for c in shape.children(d, parent) {
                    *tree.get_mut(d + 1, c) += adjust;
                }
            }
        }
    }

    /// The slice kernel ≡ the scalar oracle, bit for bit, for every
    /// fanout the mechanisms use, every height up to 2^16 leaves
    /// (including the degenerate one-level tree, `h = 1`), and several
    /// noise seeds — the way `crates/transforms/tests/differential.rs`
    /// pins FWHT/Haar.
    #[test]
    fn slice_kernel_matches_scalar_oracle_bit_for_bit() {
        for fanout in [2usize, 3, 4, 5, 8, 16] {
            let mut height = 1u32;
            while fanout.pow(height) <= 1 << 16 {
                let shape = CompleteTree::with_height(fanout, height);
                for seed in [1u64, 42, 0xDEAD_BEEF] {
                    let mut fast = noisy_tree(shape, seed ^ u64::from(height));
                    let mut oracle = fast.clone();
                    enforce_consistency(&mut fast);
                    enforce_consistency_scalar(&mut oracle);
                    for d in 0..=height {
                        for (i, (a, b)) in fast.level(d).iter().zip(oracle.level(d)).enumerate() {
                            assert!(
                                a.to_bits() == b.to_bits(),
                                "B={fanout} h={height} seed={seed}: node ({d}, {i}) {a} vs {b}"
                            );
                        }
                    }
                }
                height += 1;
            }
        }
    }

    #[test]
    fn enforces_exact_consistency() {
        for (fanout, domain) in [(2usize, 64usize), (4, 256), (8, 64), (16, 256)] {
            let shape = CompleteTree::new(fanout, domain);
            let mut tree = noisy_tree(shape, 42);
            assert!(max_violation(&tree) > 1e-6);
            enforce_consistency(&mut tree);
            assert!(
                max_violation(&tree) < 1e-10,
                "B={fanout}, D={domain}: violation {}",
                max_violation(&tree)
            );
            assert!((tree.get(0, 0) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn idempotent() {
        let shape = CompleteTree::new(4, 256);
        let mut tree = noisy_tree(shape, 7);
        enforce_consistency(&mut tree);
        let once = tree.clone();
        enforce_consistency(&mut tree);
        for d in 0..=shape.height() {
            for (a, b) in tree.level(d).iter().zip(once.level(d).iter()) {
                assert!((a - b).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn already_consistent_tree_is_unchanged() {
        // Exact subtree sums: CI must be a no-op (it is the least-squares
        // projection, and the tree is already in the feasible subspace).
        let shape = CompleteTree::new(2, 16);
        let leaves: Vec<f64> = (0..16).map(|i| (i + 1) as f64 / 136.0).collect();
        let mut tree = FlatTree::from_leaf_sums(shape, &leaves);
        let before = tree.clone();
        enforce_consistency(&mut tree);
        for d in 0..=shape.height() {
            for (a, b) in tree.level(d).iter().zip(before.level(d).iter()) {
                assert!((a - b).abs() < 1e-10, "depth {d}");
            }
        }
    }

    #[test]
    fn preserves_unbiasedness_of_level_totals() {
        // Mean consistency with root = 1 forces every level to sum to 1.
        let shape = CompleteTree::new(4, 64);
        let mut tree = noisy_tree(shape, 99);
        enforce_consistency(&mut tree);
        for d in 0..=shape.height() {
            let s: f64 = tree.level(d).iter().sum();
            assert!((s - 1.0).abs() < 1e-10, "depth {d}: {s}");
        }
    }

    #[test]
    fn single_level_tree_averages_toward_root() {
        // B = D: one level below the root. Stage 1 has no internal
        // non-root nodes; stage 2 just redistributes the deficit equally.
        let shape = CompleteTree::new(4, 4);
        let mut tree = FlatTree::new(shape);
        *tree.get_mut(0, 0) = 1.0;
        for (i, v) in [0.3, 0.3, 0.3, 0.3].iter().enumerate() {
            *tree.get_mut(1, i) = *v;
        }
        enforce_consistency(&mut tree);
        for i in 0..4 {
            assert!((tree.get(1, i) - 0.25).abs() < 1e-12);
        }
    }
}
