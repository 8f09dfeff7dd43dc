//! The aggregator state shared by the two unary encodings ([`crate::Oue`]
//! and [`crate::Sue`]): one noisy 1-count per item, plus a bit-sliced
//! buffer that absorbs a batch of `D`-bit reports without paying one
//! scattered increment per set bit.
//!
//! A report is `⌈D/64⌉` packed words. Absorbing it *deferred*
//! ripple-carry adds those words into **bit planes**: plane `k` holds bit
//! `k` of every item's pending count, so one word-wide XOR/AND step
//! advances 64 items' counters at once. With `n` reports pending no item's
//! pending count exceeds `n`, so `bit_length(n)` planes always hold the
//! carry. The planes spill into the `u64` counts when they are settled —
//! on demand ([`UnaryCounts::settle`]), or by themselves once
//! [`MAX_PENDING`] reports are pending, which keeps every pending count
//! inside one byte and the planes at most eight deep. The spill expands
//! each plane byte through a lookup table into eight byte-wide lanes;
//! with a single report pending it is the plain set-bit walk.
//!
//! Pending reports count towards [`UnaryCounts::reports`] at once, but
//! every reader of the counts (`counts`, `merge`, `subtract`, `estimate`,
//! `load`) requires settled state, and debug builds assert it. Planes
//! never outlive a batch, so they are not state: settled counts equal the
//! one-increment-per-set-bit loop's exactly, and the emptied plane buffer
//! clones without allocating.

use rand::RngCore;

use crate::binomial::sample_binomial;
use crate::OracleError;

/// Pending reports at which the planes settle by themselves: 255 keeps a
/// pending count in one byte (the spill's lane width) and the planes at
/// most eight deep.
const MAX_PENDING: u32 = u8::MAX as u32;

/// Words per ripple chunk: a chunk's carries live in a stack array while
/// it walks the planes, so the walk is branch-free within a plane.
const RIPPLE_CHUNK: usize = 16;

/// `BYTE_LANES[b]` spreads the bits of `b` over the bytes of a word: byte
/// `i` is bit `i` of `b`.
const BYTE_LANES: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut b = 0;
    while b < 256 {
        let mut i = 0;
        while i < 8 {
            table[b] |= ((b as u64 >> i) & 1) << (8 * i);
            i += 1;
        }
        b += 1;
    }
    table
};

/// Per-item noisy 1-counts of a unary encoding, with bit-sliced deferred
/// absorption (see the [module docs](self)).
#[derive(Debug, Clone)]
pub(crate) struct UnaryCounts {
    /// Settled noisy 1-counts per item.
    counts: Vec<u64>,
    /// Reports absorbed, pending ones included.
    reports: u64,
    /// Bit planes of the pending counts, plane-major: plane `k` is words
    /// `k·W .. (k+1)·W` with `W = ⌈D/64⌉`. Empty whenever settled.
    planes: Vec<u64>,
    /// Reports rippled into `planes` since the last settle.
    pending: u32,
}

impl UnaryCounts {
    pub(crate) fn new(domain: usize) -> Self {
        Self {
            counts: vec![0; domain],
            reports: 0,
            planes: Vec::new(),
            pending: 0,
        }
    }

    /// Packed words per report, and per plane.
    fn width(&self) -> usize {
        self.counts.len().div_ceil(64)
    }

    fn assert_settled(&self) {
        debug_assert!(
            self.pending == 0,
            "unary counts read with {} reports pending in bit planes",
            self.pending
        );
    }

    /// Reports absorbed so far, pending ones included.
    pub(crate) fn reports(&self) -> u64 {
        self.reports
    }

    /// The settled per-item counts.
    pub(crate) fn counts(&self) -> &[u64] {
        self.assert_settled();
        &self.counts
    }

    /// Ripple-carry adds one report's packed words — exactly `⌈D/64⌉`, no
    /// bit set at or past `D`, as every validated `OueReport` is — into
    /// the planes, settling once [`MAX_PENDING`] reports are pending.
    pub(crate) fn add_deferred(&mut self, words: &[u64]) {
        let width = self.width();
        debug_assert_eq!(words.len(), width);
        self.pending += 1;
        self.reports += 1;
        if self.pending == 1 {
            // Rippling into no planes at all leaves the report itself as
            // plane 0 — which is all a lone report (the per-report
            // `absorb`) ever costs before its set-bit walk.
            debug_assert!(self.planes.is_empty());
            self.planes.extend_from_slice(words);
            return;
        }
        let depth = (u32::BITS - self.pending.leading_zeros()) as usize;
        if self.planes.len() < depth * width {
            self.planes.resize(depth * width, 0);
        }
        for (chunk, report) in words.chunks(RIPPLE_CHUNK).enumerate() {
            let start = chunk * RIPPLE_CHUNK;
            let mut carries = [0u64; RIPPLE_CHUNK];
            let carries = &mut carries[..report.len()];
            carries.copy_from_slice(report);
            let mut overflow = true;
            for plane in self.planes.chunks_exact_mut(width) {
                let mut live = 0;
                for (bits, carry) in plane[start..].iter_mut().zip(carries.iter_mut()) {
                    let old = *bits;
                    *bits = old ^ *carry;
                    *carry &= old;
                    live |= *carry;
                }
                if live == 0 {
                    overflow = false;
                    break;
                }
            }
            debug_assert!(!overflow, "a pending count outgrew its bit planes");
        }
        if self.pending == MAX_PENDING {
            self.settle();
        }
    }

    /// Spills the planes into the counts and empties them (keeping their
    /// capacity for the next batch). A no-op when nothing is pending.
    pub(crate) fn settle(&mut self) {
        let width = self.width();
        match self.pending {
            0 => return,
            1 => {
                for (wi, &word) in self.planes[..width].iter().enumerate() {
                    let mut w = word;
                    while w != 0 {
                        self.counts[wi * 64 + w.trailing_zeros() as usize] += 1;
                        w &= w - 1;
                    }
                }
            }
            _ => {
                for (wi, items) in self.counts.chunks_mut(64).enumerate() {
                    // lanes[i] byte l = pending count of item 64·wi + 8·i + l.
                    let mut lanes = [0u64; 8];
                    for (k, plane) in self.planes.chunks_exact(width).enumerate() {
                        let bits = plane[wi];
                        if bits == 0 {
                            continue;
                        }
                        for (i, lane) in lanes.iter_mut().enumerate() {
                            *lane |= BYTE_LANES[usize::from((bits >> (8 * i)) as u8)] << k;
                        }
                    }
                    for (group, &lane) in items.chunks_mut(8).zip(&lanes) {
                        if lane == 0 {
                            continue;
                        }
                        for (l, count) in group.iter_mut().enumerate() {
                            *count += (lane >> (8 * l)) & 0xff;
                        }
                    }
                }
            }
        }
        self.planes.clear();
        self.pending = 0;
    }

    /// Replaces the state with persisted counts (and drops anything
    /// pending). State is unchanged on error.
    pub(crate) fn load(&mut self, counts: Vec<u64>, reports: u64) -> Result<(), OracleError> {
        self.assert_settled();
        if counts.len() != self.counts.len() {
            return Err(OracleError::InvalidState("count vector length != domain"));
        }
        if counts.iter().any(|&c| c > reports) {
            return Err(OracleError::InvalidState("item count above report total"));
        }
        self.counts = counts;
        self.reports = reports;
        self.planes.clear();
        self.pending = 0;
        Ok(())
    }

    /// Adds another settled accumulator of the same domain.
    pub(crate) fn merge(&mut self, other: &Self) {
        self.assert_settled();
        other.assert_settled();
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.reports += other.reports;
    }

    /// The exact inverse of [`UnaryCounts::merge`], checked before it
    /// mutates: unchanged on error.
    pub(crate) fn subtract(&mut self, other: &Self) -> Result<(), OracleError> {
        self.assert_settled();
        other.assert_settled();
        if self.reports < other.reports || self.counts.iter().zip(&other.counts).any(|(a, b)| a < b)
        {
            return Err(OracleError::SubtractUnderflow);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a -= b;
        }
        self.reports -= other.reports;
        Ok(())
    }

    /// Adds the exact aggregate a cohort with the given true counts would
    /// send: every bit is flipped independently per user and per item, so
    /// item `j`'s noisy count is `Bino(c_j, p) + Bino(N − c_j, q)` — exact,
    /// not an approximation (given the regimes of the binomial sampler).
    pub(crate) fn absorb_population(
        &mut self,
        true_counts: &[u64],
        (p, q): (f64, f64),
        rng: &mut dyn RngCore,
    ) -> Result<(), OracleError> {
        if true_counts.len() != self.counts.len() {
            return Err(OracleError::ReportDomainMismatch {
                report: true_counts.len(),
                server: self.counts.len(),
            });
        }
        let n: u64 = true_counts.iter().sum();
        for (count, &c) in self.counts.iter_mut().zip(true_counts) {
            let kept = sample_binomial(rng, c, p);
            let flipped = sample_binomial(rng, n - c, q);
            *count += kept + flipped;
        }
        self.reports += n;
        Ok(())
    }

    /// Unbiased frequency estimates `(c_j/N − q)/(p − q)`; all-zero before
    /// any report.
    pub(crate) fn estimate(&self, (p, q): (f64, f64)) -> Vec<f64> {
        self.assert_settled();
        if self.reports == 0 {
            return vec![0.0; self.counts.len()];
        }
        let n = self.reports as f64;
        self.counts
            .iter()
            .map(|&c| (c as f64 / n - q) / (p - q))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The scalar oracle: one increment per set bit, walked word by word —
    /// the counts the planes must reproduce exactly.
    fn absorb_scalar(counts: &mut [u64], words: &[u64]) {
        for (wi, &word) in words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let j = wi * 64 + w.trailing_zeros() as usize;
                counts[j] += 1;
                w &= w - 1;
            }
        }
    }

    /// A random report over `domain` items, bit density 1/2^`thin`.
    fn report(domain: usize, thin: u32, rng: &mut StdRng) -> Vec<u64> {
        let mut words: Vec<u64> = (0..domain.div_ceil(64))
            .map(|_| (0..thin).fold(!0u64, |w, _| w & rng.random::<u64>()))
            .collect();
        if !domain.is_multiple_of(64) {
            *words.last_mut().unwrap() &= (1u64 << (domain % 64)) - 1;
        }
        words
    }

    /// The planes ≡ the scalar oracle, bit for bit, over domains around
    /// the word and chunk edges, run lengths across the auto-settle, and
    /// densities from all-clear to all-set.
    #[test]
    fn planes_match_scalar_oracle_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for domain in [1, 2, 63, 64, 65, 127, 1_000, 1_025, 4_096] {
            for thin in [0, 1, 2, 5] {
                let mut acc = UnaryCounts::new(domain);
                let mut oracle = vec![0u64; domain];
                for n in 1..=700 {
                    let words = report(domain, thin, &mut rng);
                    acc.add_deferred(&words);
                    absorb_scalar(&mut oracle, &words);
                    // Settle at random points: runs range from one report
                    // to past the auto-settle threshold.
                    if rng.random_range(0..200u32) == 0 {
                        acc.settle();
                        assert_eq!(acc.counts(), &oracle[..], "D={domain} thin={thin} n={n}");
                    }
                }
                acc.settle();
                assert_eq!(acc.counts(), &oracle[..], "D={domain} thin={thin}");
                assert_eq!(acc.reports(), 700);
            }
        }
    }

    #[test]
    fn settled_state_clones_without_planes() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut acc = UnaryCounts::new(4_096);
        for _ in 0..100 {
            acc.add_deferred(&report(4_096, 2, &mut rng));
        }
        assert!(acc.planes.capacity() > 0);
        acc.settle();
        assert!(acc.planes.is_empty());
        assert_eq!(acc.clone().planes.capacity(), 0);
    }
}
