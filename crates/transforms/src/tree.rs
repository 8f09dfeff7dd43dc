//! Complete B-ary tree geometry and flat-array storage.
//!
//! Both the hierarchical-histogram and Haar mechanisms impose a complete
//! B-ary tree over the domain `[D]` with `D = B^h`. This module owns all of
//! the index arithmetic — node counts per depth, flat offsets, parent/child
//! navigation, leaf-to-root paths — so mechanism code never does raw
//! power-of-B arithmetic inline.
//!
//! Convention used across the whole workspace: **depth** `d` counts *down
//! from the root*, so the root is `d = 0` and the leaves are `d = h`. The
//! paper's "level `l`" (counting up from the leaves) is `l = h − d`.

use crate::{exact_log, ipow};

/// Shape of a complete B-ary tree over a domain of size `fanout^height`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompleteTree {
    fanout: usize,
    height: u32,
}

impl CompleteTree {
    /// Builds the tree shape for `domain = fanout^h`.
    ///
    /// # Panics
    ///
    /// Panics if `fanout < 2` or `domain` is not an exact power of `fanout`
    /// — mechanisms validate domains at construction, so reaching this
    /// indicates a caller bug.
    pub fn new(fanout: usize, domain: usize) -> Self {
        assert!(fanout >= 2, "fanout must be at least 2, got {fanout}");
        let height = exact_log(domain, fanout)
            .unwrap_or_else(|| panic!("domain {domain} is not a power of fanout {fanout}"));
        Self { fanout, height }
    }

    /// Builds a tree shape directly from fanout and height.
    pub fn with_height(fanout: usize, height: u32) -> Self {
        assert!(fanout >= 2, "fanout must be at least 2, got {fanout}");
        // Validate that the domain fits in a usize.
        let _ = ipow(fanout, height);
        Self { fanout, height }
    }

    /// Branching factor `B`.
    #[inline]
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Height `h` (number of edges on a root-to-leaf path).
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Domain size `D = B^h` (equivalently, the number of leaves).
    #[inline]
    pub fn domain(&self) -> usize {
        ipow(self.fanout, self.height)
    }

    /// Number of nodes at depth `d`: `B^d`.
    #[inline]
    pub fn nodes_at_depth(&self, depth: u32) -> usize {
        debug_assert!(depth <= self.height);
        ipow(self.fanout, depth)
    }

    /// Flat-array offset of the first node at depth `d`:
    /// `(B^d − 1)/(B − 1)`.
    #[inline]
    pub fn depth_offset(&self, depth: u32) -> usize {
        (ipow(self.fanout, depth) - 1) / (self.fanout - 1)
    }

    /// Total number of nodes in the tree: `(B^{h+1} − 1)/(B − 1)`.
    #[inline]
    pub fn total_nodes(&self) -> usize {
        self.depth_offset(self.height + 1)
    }

    /// Number of leaves covered by one node at depth `d`: `B^{h−d}`.
    #[inline]
    pub fn block_len(&self, depth: u32) -> usize {
        debug_assert!(depth <= self.height);
        ipow(self.fanout, self.height - depth)
    }

    /// Leaf interval `[start, end)` covered by node `(depth, index)`.
    #[inline]
    pub fn block_range(&self, depth: u32, index: usize) -> std::ops::Range<usize> {
        let len = self.block_len(depth);
        index * len..(index + 1) * len
    }

    /// Index of the ancestor of `leaf` at depth `d`.
    #[inline]
    pub fn ancestor_at_depth(&self, leaf: usize, depth: u32) -> usize {
        debug_assert!(leaf < self.domain());
        leaf / self.block_len(depth)
    }

    /// Parent coordinates of a non-root node.
    #[inline]
    pub fn parent(&self, depth: u32, index: usize) -> (u32, usize) {
        debug_assert!(depth > 0, "root has no parent");
        (depth - 1, index / self.fanout)
    }

    /// Indices of the children of a non-leaf node (all at `depth + 1`).
    #[inline]
    pub fn children(&self, depth: u32, index: usize) -> std::ops::Range<usize> {
        debug_assert!(depth < self.height, "leaves have no children");
        index * self.fanout..(index + 1) * self.fanout
    }

    /// Node indices along the path of `leaf`, from root (depth 0) to leaf
    /// (depth h): element `d` is the index of the depth-`d` ancestor.
    pub fn path_of_leaf(&self, leaf: usize) -> Vec<usize> {
        (0..=self.height)
            .map(|d| self.ancestor_at_depth(leaf, d))
            .collect()
    }
}

/// Dense per-node storage for a [`CompleteTree`], addressed by
/// `(depth, index)`.
///
/// Backing layout is breadth-first: the root at slot 0, then each depth
/// contiguously. Mechanisms use this for per-node frequency estimates and
/// for the constrained-inference passes, both of which walk whole levels —
/// the contiguous layout keeps those passes cache-friendly.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatTree<T> {
    shape: CompleteTree,
    data: Vec<T>,
}

impl<T: Clone + Default> FlatTree<T> {
    /// Allocates a tree filled with `T::default()`.
    pub fn new(shape: CompleteTree) -> Self {
        Self {
            shape,
            data: vec![T::default(); shape.total_nodes()],
        }
    }
}

impl<T> FlatTree<T> {
    /// The tree shape.
    #[inline]
    pub fn shape(&self) -> CompleteTree {
        self.shape
    }

    #[inline]
    fn slot(&self, depth: u32, index: usize) -> usize {
        debug_assert!(depth <= self.shape.height);
        debug_assert!(index < self.shape.nodes_at_depth(depth));
        self.shape.depth_offset(depth) + index
    }

    /// Reference to the value at `(depth, index)`.
    #[inline]
    pub fn get(&self, depth: u32, index: usize) -> &T {
        &self.data[self.slot(depth, index)]
    }

    /// Mutable reference to the value at `(depth, index)`.
    #[inline]
    pub fn get_mut(&mut self, depth: u32, index: usize) -> &mut T {
        let s = self.slot(depth, index);
        &mut self.data[s]
    }

    /// All nodes at one depth, ordered left to right.
    #[inline]
    pub fn level(&self, depth: u32) -> &[T] {
        let start = self.shape.depth_offset(depth);
        &self.data[start..start + self.shape.nodes_at_depth(depth)]
    }

    /// Mutable view of all nodes at one depth.
    #[inline]
    pub fn level_mut(&mut self, depth: u32) -> &mut [T] {
        let start = self.shape.depth_offset(depth);
        let n = self.shape.nodes_at_depth(depth);
        &mut self.data[start..start + n]
    }

    /// Depths `depth` and `depth + 1` as two disjoint mutable slices —
    /// `(parents, children)`, where the children of `parents[i]` are
    /// `children[i * B..(i + 1) * B]`. The level-major layout makes the
    /// two levels adjacent in the backing storage, so whole-level passes
    /// (constrained inference) can walk `parents` zipped with
    /// `children.chunks_exact(B)` with no per-node index arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is the leaf depth (leaves have no children).
    #[inline]
    pub fn adjacent_levels_mut(&mut self, depth: u32) -> (&mut [T], &mut [T]) {
        assert!(depth < self.shape.height, "leaves have no children");
        let start = self.shape.depth_offset(depth);
        let parents = self.shape.nodes_at_depth(depth);
        let (upper, lower) = self.data[start..].split_at_mut(parents);
        (upper, &mut lower[..parents * self.shape.fanout])
    }

    /// Every depth `0..=h` as its own mutable slice, root first: disjoint
    /// borrows, so a pass can hold every level at once.
    pub fn levels_mut(&mut self) -> impl Iterator<Item = &mut [T]> {
        let shape = self.shape;
        let mut rest = self.data.as_mut_slice();
        (0..=shape.height).map(move |depth| {
            let (level, below) =
                std::mem::take(&mut rest).split_at_mut(shape.nodes_at_depth(depth));
            rest = below;
            level
        })
    }

    /// The leaf level (depth `h`).
    #[inline]
    pub fn leaves(&self) -> &[T] {
        self.level(self.shape.height)
    }
}

impl FlatTree<f64> {
    /// Builds a tree whose leaves are `leaf_values` and whose internal nodes
    /// are exact subtree sums — the "dyadic decomposition with internal node
    /// weights" of Figure 2(a).
    pub fn from_leaf_sums(shape: CompleteTree, leaf_values: &[f64]) -> Self {
        assert_eq!(
            leaf_values.len(),
            shape.domain(),
            "leaf count must equal domain size"
        );
        let mut tree = Self {
            shape,
            data: vec![0.0; shape.total_nodes()],
        };
        tree.level_mut(shape.height()).copy_from_slice(leaf_values);
        for depth in (0..shape.height()).rev() {
            for idx in 0..shape.nodes_at_depth(depth) {
                let sum: f64 = shape
                    .children(depth, idx)
                    .map(|c| *tree.get(depth + 1, c))
                    .sum();
                *tree.get_mut(depth, idx) = sum;
            }
        }
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_arithmetic_binary() {
        let t = CompleteTree::new(2, 8);
        assert_eq!(t.height(), 3);
        assert_eq!(t.domain(), 8);
        assert_eq!(t.nodes_at_depth(0), 1);
        assert_eq!(t.nodes_at_depth(3), 8);
        assert_eq!(t.depth_offset(0), 0);
        assert_eq!(t.depth_offset(1), 1);
        assert_eq!(t.depth_offset(2), 3);
        assert_eq!(t.depth_offset(3), 7);
        assert_eq!(t.total_nodes(), 15);
        assert_eq!(t.block_len(0), 8);
        assert_eq!(t.block_len(3), 1);
        assert_eq!(t.block_range(1, 1), 4..8);
    }

    #[test]
    fn shape_arithmetic_quaternary() {
        let t = CompleteTree::new(4, 64);
        assert_eq!(t.height(), 3);
        assert_eq!(t.total_nodes(), 1 + 4 + 16 + 64);
        assert_eq!(t.children(1, 2), 8..12);
        assert_eq!(t.parent(2, 9), (1, 2));
    }

    #[test]
    fn paths_are_consistent_with_ancestors() {
        let t = CompleteTree::new(2, 16);
        for leaf in 0..16 {
            let path = t.path_of_leaf(leaf);
            assert_eq!(path.len(), 5);
            assert_eq!(path[0], 0);
            assert_eq!(path[4], leaf);
            for d in 1..=4u32 {
                assert_eq!(t.parent(d, path[d as usize]).1, path[d as usize - 1]);
                assert!(t.block_range(d, path[d as usize]).contains(&leaf));
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a power of fanout")]
    fn rejects_non_power_domain() {
        CompleteTree::new(4, 32);
    }

    #[test]
    fn flat_tree_levels_and_slots() {
        let shape = CompleteTree::new(2, 4);
        let mut tree: FlatTree<u32> = FlatTree::new(shape);
        *tree.get_mut(0, 0) = 1;
        *tree.get_mut(1, 0) = 2;
        *tree.get_mut(1, 1) = 3;
        *tree.get_mut(2, 3) = 9;
        assert_eq!(tree.level(1), &[2, 3]);
        assert_eq!(tree.leaves(), &[0, 0, 0, 9]);
    }

    #[test]
    fn adjacent_levels_are_disjoint_and_cover_both_depths() {
        for (fanout, domain) in [(2usize, 16usize), (3, 27), (4, 4), (5, 125), (16, 256)] {
            let shape = CompleteTree::new(fanout, domain);
            let mut tree: FlatTree<usize> = FlatTree::new(shape);
            // Every slot holds its own breadth-first position.
            let mut slot = 0;
            for d in 0..=shape.height() {
                for v in tree.level_mut(d) {
                    *v = slot;
                    slot += 1;
                }
            }
            // Root depth through the last internal depth (leaf edge).
            for d in 0..shape.height() {
                let (expect_parents, expect_children) =
                    (tree.level(d).to_vec(), tree.level(d + 1).to_vec());
                let (parents, children) = tree.adjacent_levels_mut(d);
                assert_eq!(parents.len(), shape.nodes_at_depth(d));
                assert_eq!(children.len(), shape.nodes_at_depth(d + 1));
                assert_eq!(children.len(), parents.len() * fanout);
                assert_eq!(parents, expect_parents);
                assert_eq!(children, expect_children);
                // Disjoint and adjacent: the children start right where
                // the parents end.
                assert_eq!(parents.as_ptr_range().end, children.as_ptr_range().start);
                // Chunk `i` of the children is `shape.children(d, i)`.
                for (i, chunk) in children.chunks_exact(fanout).enumerate() {
                    let first = shape.depth_offset(d + 1) + shape.children(d, i).start;
                    assert_eq!(chunk[0], first, "B={fanout} d={d} parent {i}");
                }
                // Writes through both halves land in the right levels.
                parents[0] = usize::MAX;
                *children.last_mut().unwrap() = usize::MAX - 1;
                assert_eq!(*tree.get(d, 0), usize::MAX);
                let last = shape.nodes_at_depth(d + 1) - 1;
                assert_eq!(*tree.get(d + 1, last), usize::MAX - 1);
                *tree.get_mut(d, 0) = expect_parents[0];
                *tree.get_mut(d + 1, last) = *expect_children.last().unwrap();
            }
        }
    }

    #[test]
    fn levels_mut_are_the_levels() {
        for (fanout, domain) in [(2usize, 16usize), (3, 27), (4, 4)] {
            let shape = CompleteTree::new(fanout, domain);
            let mut tree: FlatTree<usize> = FlatTree::new(shape);
            for (depth, level) in (0..).zip(tree.levels_mut()) {
                assert_eq!(level.len(), shape.nodes_at_depth(depth));
                level.fill(depth as usize);
            }
            for d in 0..=shape.height() {
                assert!(tree.level(d).iter().all(|&v| v == d as usize));
            }
            assert_eq!(tree.levels_mut().count(), shape.height() as usize + 1);
        }
    }

    #[test]
    #[should_panic(expected = "leaves have no children")]
    fn adjacent_levels_reject_the_leaf_depth() {
        let mut tree: FlatTree<u32> = FlatTree::new(CompleteTree::new(2, 4));
        let _ = tree.adjacent_levels_mut(2);
    }

    #[test]
    fn from_leaf_sums_matches_figure_2a() {
        // Figure 2(a) input vector.
        let leaves = [0.1, 0.15, 0.23, 0.12, 0.2, 0.05, 0.07, 0.08];
        let shape = CompleteTree::new(2, 8);
        let t = FlatTree::from_leaf_sums(shape, &leaves);
        let total: f64 = leaves.iter().sum();
        assert!((*t.get(0, 0) - total).abs() < 1e-12);
        assert!((*t.get(1, 0) - 0.60).abs() < 1e-12);
        assert!((*t.get(1, 1) - 0.40).abs() < 1e-12);
        assert!((*t.get(2, 2) - 0.25).abs() < 1e-12);
    }
}
