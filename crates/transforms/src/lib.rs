//! Linear transforms and tree decompositions underpinning LDP range-query
//! mechanisms.
//!
//! This crate is a pure-computation substrate with three parts:
//!
//! * [`hadamard`] — the fast Walsh–Hadamard transform (FWHT) and pointwise
//!   entry oracle used by Hadamard Randomized Response (HRR). The transform
//!   is its own inverse up to a factor of `D`, and runs in `O(D log D)`.
//! * [`haar`] — the Discrete Haar wavelet Transform (DHT), both in its
//!   orthonormal matrix form (Figure 3 of the paper) and as the
//!   sum/difference *pyramid* used by the `HaarHRR` mechanism.
//! * [`dyadic`] and [`tree`] — B-adic interval decompositions (Facts 2–3 of
//!   the paper) and flat-array storage for complete B-ary trees, used by the
//!   hierarchical-histogram mechanisms.
//!
//! Everything here is deterministic; randomness lives in the mechanism
//! crates.

pub mod dyadic;
pub mod haar;
pub mod hadamard;
pub mod tree;

pub use dyadic::{decompose_range, DyadicNode};
pub use haar::{haar_forward, haar_inverse, HaarPyramid};
pub use hadamard::{fwht, fwht_i64, fwht_scalar, hadamard_entry};
pub use tree::{CompleteTree, FlatTree};

/// Returns `log_b(n)` when `n` is an exact power of `b`, and `None`
/// otherwise.
///
/// Used to validate domain sizes: every mechanism in this workspace requires
/// `D = B^h` for some integer height `h`.
///
/// ```
/// assert_eq!(ldp_transforms::exact_log(64, 4), Some(3));
/// assert_eq!(ldp_transforms::exact_log(48, 4), None);
/// ```
pub fn exact_log(n: usize, b: usize) -> Option<u32> {
    if n == 0 || b < 2 {
        return None;
    }
    let mut cur = 1usize;
    let mut log = 0u32;
    while cur < n {
        cur = cur.checked_mul(b)?;
        log += 1;
    }
    (cur == n).then_some(log)
}

/// Integer power `b^e` with overflow checking.
///
/// Panics on overflow: tree shapes in this workspace are always small enough
/// that overflow indicates a logic error rather than a recoverable state.
#[inline]
pub fn ipow(b: usize, e: u32) -> usize {
    b.checked_pow(e).expect("tree dimension overflow")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_log_accepts_exact_powers() {
        assert_eq!(exact_log(1, 2), Some(0));
        assert_eq!(exact_log(2, 2), Some(1));
        assert_eq!(exact_log(1024, 2), Some(10));
        assert_eq!(exact_log(625, 5), Some(4));
        assert_eq!(exact_log(16, 16), Some(1));
    }

    #[test]
    fn exact_log_rejects_non_powers() {
        assert_eq!(exact_log(0, 2), None);
        assert_eq!(exact_log(3, 2), None);
        assert_eq!(exact_log(100, 3), None);
        assert_eq!(exact_log(10, 1), None);
    }

    #[test]
    fn ipow_matches_pow() {
        assert_eq!(ipow(2, 10), 1024);
        assert_eq!(ipow(7, 0), 1);
        assert_eq!(ipow(16, 4), 65536);
    }
}
