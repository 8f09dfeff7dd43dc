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
    /// The per-item estimates are `values[first..]`. The `HH_B` float
    /// freeze hands over its whole estimate tree, whose leaf level they
    /// are, instead of copying that level out; everywhere else `first` is
    /// 0.
    values: Vec<f64>,
    first: usize,
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
        Self::over(freqs, 0, Vec::new())
    }

    /// The estimate whose per-item vector is `values[first..]`, its
    /// prefix sums written into `prefix`'s allocation
    /// ([`ldp_transforms::reuse_buffer`]; nothing it held is read).
    pub(crate) fn over(values: Vec<f64>, first: usize, prefix: Vec<f64>) -> Self {
        let freqs = &values[first..];
        assert!(!freqs.is_empty(), "estimate needs at least one item");
        let mut sums = PrefixSums::over(prefix, freqs.len());
        sums.extend(freqs);
        Self::from_parts(values, first, sums)
    }

    /// The estimate whose per-item vector is `values[first..]`, with the
    /// prefix sums a split freeze filled piece by piece.
    pub(crate) fn from_parts(values: Vec<f64>, first: usize, prefix: PrefixSums) -> Self {
        debug_assert_eq!(
            prefix.filled,
            prefix.sums.len(),
            "prefix sums left unfilled"
        );
        debug_assert_eq!(prefix.sums.len(), values.len() - first + 1);
        Self {
            values,
            first,
            prefix: prefix.sums,
        }
    }

    /// The per-item estimates.
    #[must_use]
    pub fn frequencies(&self) -> &[f64] {
        &self.values[self.first..]
    }
}

/// An estimate's prefix sums, filled left to right in as many pieces
/// as the caller has: `sums[i + 1]` is the sequential sum of the first
/// `i + 1` estimates, to the bit, however the items were cut — each piece
/// carries on from the last sum written, which the freeze differential
/// holds the snapshots to. A split freeze sums the first half of the
/// items while its other thread still writes the second.
pub(crate) struct PrefixSums {
    sums: Vec<f64>,
    /// Slots written so far.
    filled: usize,
}

impl PrefixSums {
    /// Sums for `items` estimates over `buf`'s allocation
    /// ([`ldp_transforms::reuse_buffer`]; nothing it held is read).
    pub(crate) fn over(buf: Vec<f64>, items: usize) -> Self {
        let mut sums = ldp_transforms::reuse_buffer(buf, items + 1);
        sums[0] = 0.0;
        Self { sums, filled: 1 }
    }

    /// Adds the next estimates, left to right.
    pub(crate) fn extend(&mut self, freqs: &[f64]) {
        let mut acc = self.sums[self.filled - 1];
        for (slot, &f) in self.sums[self.filled..self.filled + freqs.len()]
            .iter_mut()
            .zip(freqs)
        {
            acc += f;
            *slot = acc;
        }
        self.filled += freqs.len();
    }
}

/// The most levels a tree or pyramid over a `usize` domain can have:
/// with a fanout of at least 2, its height is below `usize::BITS`.
const MAX_LEVELS: usize = usize::BITS as usize;

/// One part per level of a tree or pyramid — its level slices, or the
/// parts of a split drain — held inline, so a freeze or drain that cuts
/// its levels in two allocates nothing. Built like a `Vec`, by
/// `collect`, `unzip` or `extend`, and read as a slice.
pub(crate) struct LevelParts<T> {
    parts: [T; MAX_LEVELS],
    len: usize,
}

impl<T: Default> Default for LevelParts<T> {
    fn default() -> Self {
        Self {
            parts: std::array::from_fn(|_| T::default()),
            len: 0,
        }
    }
}

impl<T> Extend<T> for LevelParts<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, parts: I) {
        for part in parts {
            self.parts[self.len] = part;
            self.len += 1;
        }
    }
}

impl<T: Default> FromIterator<T> for LevelParts<T> {
    fn from_iter<I: IntoIterator<Item = T>>(parts: I) -> Self {
        let mut all = Self::default();
        all.extend(parts);
        all
    }
}

impl<T> std::ops::Deref for LevelParts<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.parts[..self.len]
    }
}

impl<T> std::ops::DerefMut for LevelParts<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.parts[..self.len]
    }
}

/// How a freeze or a drain runs its two halves. HaarHRR's freeze splits
/// its work — the per-depth inversions and each half of its leaf
/// expansion — and a split drain its levels
/// ([`crate::SubtractableServer::drain_with`]) into pairs of disjoint
/// pieces, and hands each pair to [`Join::join`]; the result is the same
/// bits however the pieces run. [`SerialJoin`], what every allocating
/// `frequency_estimate` passes, runs them one after the other on the
/// calling thread; a service passes one that runs `theirs` on a second
/// thread.
pub trait Join {
    /// Runs `mine` on the calling thread and `theirs` wherever this join
    /// puts it, and returns once both have returned. A panic in either
    /// propagates to the caller, after both have finished.
    fn join(&self, mine: &mut dyn FnMut(), theirs: &mut (dyn FnMut() + Send));
}

/// The join that runs both pieces on the calling thread, `mine` first.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialJoin;

impl Join for SerialJoin {
    fn join(&self, mine: &mut dyn FnMut(), theirs: &mut (dyn FnMut() + Send)) {
        mine();
        theirs();
    }
}

/// The join the crate's tests split work with: `theirs` on a scoped
/// thread while `mine` runs on the caller.
#[cfg(test)]
pub(crate) struct ScopedJoin;

#[cfg(test)]
impl Join for ScopedJoin {
    fn join(&self, mine: &mut dyn FnMut(), theirs: &mut (dyn FnMut() + Send)) {
        std::thread::scope(|scope| {
            scope.spawn(theirs);
            mine();
        });
    }
}

/// The buffers HaarHRR's float freeze writes into instead of allocating
/// them: the storage and prefix sums of the estimate to be built, and
/// the pyramid and second leaf-expansion buffer.
/// [`crate::HaarHrrServer::frequency_estimate_into`] takes what it needs
/// and hands the pyramid and second buffer back, so a caller that keeps
/// one `EstimateBuffers` across freezes — and recycles each retired
/// estimate into it — allocates nothing of size `O(D)` once warm.
///
/// Any contents and any lengths are accepted: a buffer is reused when it
/// is long enough and replaced by a fresh one otherwise
/// ([`ldp_transforms::reuse_buffer`]), and no freeze reads a slot it did
/// not write, so the estimate is bit-identical to one built with no
/// buffers at all (`EstimateBuffers::default()`, what every allocating
/// `frequency_estimate` passes).
#[derive(Debug, Default)]
pub struct EstimateBuffers {
    /// The next estimate's per-item vector.
    pub values: Vec<f64>,
    /// The next estimate's prefix sums.
    pub prefix: Vec<f64>,
    /// The HaarHRR pyramid's differences.
    pub pyramid: Vec<f64>,
    /// The HaarHRR leaf expansion's second buffer.
    pub scratch: Vec<f64>,
}

impl EstimateBuffers {
    /// Takes a retired estimate's storage and prefix sums for the next
    /// freeze to overwrite.
    pub fn recycle(&mut self, retired: FrequencyEstimate) {
        self.values = retired.values;
        self.prefix = retired.prefix;
    }

    /// The estimate whose per-item vector is `values[first..]`, its
    /// prefix sums in the prefix buffer.
    pub(crate) fn finish(&mut self, values: Vec<f64>, first: usize) -> FrequencyEstimate {
        FrequencyEstimate::over(values, first, std::mem::take(&mut self.prefix))
    }

    /// Prefix sums for `items` estimates over the prefix buffer, for a
    /// split freeze to fill piece by piece.
    pub(crate) fn prefix_sums(&mut self, items: usize) -> PrefixSums {
        PrefixSums::over(std::mem::take(&mut self.prefix), items)
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
    fn prefix_sums_in_pieces_are_one_sequential_sum() {
        let freqs: Vec<f64> = (0..37).map(|i| f64::from(i).sin() / 7.0).collect();
        let whole = FrequencyEstimate::new(freqs.clone());
        for cut in [0, 1, 18, 36, 37] {
            let mut sums = PrefixSums::over(vec![f64::NAN; 3], freqs.len());
            sums.extend(&freqs[..cut]);
            sums.extend(&freqs[cut..]);
            let pieces = FrequencyEstimate::from_parts(freqs.clone(), 0, sums);
            let bits =
                |e: &FrequencyEstimate| e.prefix.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&pieces), bits(&whole), "cut at {cut}");
        }
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
