//! The query interface over reconstructed distributions.

/// Anything that can answer estimated range queries over a discrete domain
/// `[D]` — the output side of every mechanism in this crate
/// (Definition 4.1 of the paper: estimate `R[a,b]`, the fraction of users
/// whose value lies in the closed interval).
pub trait RangeEstimate {
    /// Domain size `D`.
    fn domain(&self) -> usize;

    /// Estimated fraction of users with value in the inclusive `[a, b]`.
    ///
    /// # Panics
    ///
    /// Implementations panic when `a > b` or `b ≥ D`.
    fn range(&self, a: usize, b: usize) -> f64;

    /// Estimated fraction with value `≤ b` (prefix query, §4.7).
    fn prefix(&self, b: usize) -> f64 {
        self.range(0, b)
    }

    /// Estimated frequency of a single item (point query).
    fn point(&self, z: usize) -> f64 {
        self.range(z, z)
    }

    /// Estimated cumulative distribution: `cdf[z] = prefix(z)` for all `z`.
    fn cdf(&self) -> Vec<f64> {
        (0..self.domain()).map(|z| self.prefix(z)).collect()
    }
}

/// A reconstructed per-item frequency vector with `O(1)` range queries via
/// prefix sums.
///
/// This is the natural estimate of the flat mechanism; the tree mechanisms
/// can also be *collapsed* into one (exactly answer-preserving when the
/// tree is consistent — after constrained inference or for Haar by
/// construction — since then every range equals a difference of leaf
/// prefix sums, §4.5).
#[derive(Debug, Clone)]
pub struct FrequencyEstimate {
    freqs: Vec<f64>,
    /// `prefix[i]` = sum of the first `i` estimates; length `D + 1`.
    prefix: Vec<f64>,
}

impl FrequencyEstimate {
    /// Wraps a per-item frequency vector.
    ///
    /// # Panics
    ///
    /// Panics on an empty vector.
    #[must_use]
    pub fn new(freqs: Vec<f64>) -> Self {
        assert!(!freqs.is_empty(), "estimate needs at least one item");
        let mut prefix = Vec::with_capacity(freqs.len() + 1);
        prefix.push(0.0);
        let mut acc = 0.0;
        for &f in &freqs {
            acc += f;
            prefix.push(acc);
        }
        Self { freqs, prefix }
    }

    /// The per-item estimates.
    #[must_use]
    pub fn frequencies(&self) -> &[f64] {
        &self.freqs
    }
}

impl RangeEstimate for FrequencyEstimate {
    fn domain(&self) -> usize {
        self.prefix.len() - 1
    }

    fn range(&self, a: usize, b: usize) -> f64 {
        assert!(a <= b && b < self.domain(), "invalid range [{a}, {b}]");
        self.prefix[b + 1] - self.prefix[a]
    }

    fn point(&self, z: usize) -> f64 {
        self.frequencies()[z]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_are_prefix_differences() {
        let est = FrequencyEstimate::new(vec![0.1, 0.2, 0.3, 0.4]);
        assert!((est.range(0, 3) - 1.0).abs() < 1e-12);
        assert!((est.range(1, 2) - 0.5).abs() < 1e-12);
        assert!((est.point(3) - 0.4).abs() < 1e-12);
        assert!((est.prefix(1) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_monotone_for_nonnegative_freqs() {
        let est = FrequencyEstimate::new(vec![0.25; 4]);
        let cdf = est.cdf();
        assert_eq!(cdf.len(), 4);
        for w in cdf.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        assert!((cdf[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn rejects_bad_range() {
        FrequencyEstimate::new(vec![1.0]).range(0, 1);
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn rejects_empty() {
        let _ = FrequencyEstimate::new(vec![]);
    }
}
