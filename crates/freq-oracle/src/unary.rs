//! The two halves shared by the unary encodings ([`crate::Oue`] and
//! [`crate::Sue`]): a client encoder that draws 64 exact Bernoulli lanes
//! per random word, and an aggregator state — one noisy 1-count per item,
//! plus a bit-sliced buffer that absorbs a batch of `D`-bit reports
//! without paying one scattered increment per set bit.
//!
//! # Encoding
//!
//! [`Lanes`] holds the exact binary expansion `0.b₁b₂…` of a probability
//! and decides a lane as `1` iff `U < q`, where `U = 0.u₁u₂…` takes its
//! digit `uₖ` from that lane's bit of the `k`-th random word. Comparing
//! MSB first, the first digit where `U` and `q` differ decides: where
//! `bₖ = 1` a lane with `uₖ = 0` is decided 1, where `bₖ = 0` a lane with
//! `uₖ = 1` is decided 0. A word is finished once every lane is decided
//! or the expansion ends (an undecided lane then has `U ≥ q`, so it is 0).
//! So `P(lane = 1) = q` exactly — no 2⁻⁵³ rounding — for ≈ 8 words per 64
//! lanes at a general `q` and 2 at `q = 1/4`, against one draw per bit.
//!
//! # Aggregation
//!
//! A report is `⌈D/64⌉` packed words. Absorbing it *deferred*
//! ripple-carry adds those words into **bit planes**: plane `k` holds bit
//! `k` of every item's pending count, so one word-wide XOR/AND step
//! advances 64 items' counters at once. With `n` reports pending no item's
//! pending count exceeds `n`, so `bit_length(n)` planes always hold the
//! carry. The planes spill into the `u64` counts when they are settled —
//! on demand ([`UnaryCounts::settle`]), or by themselves once
//! [`MAX_PENDING`] reports are pending, which keeps every pending count
//! inside one byte and the planes at most eight deep. The spill builds,
//! per 64 items, eight byte-wide lanes (each plane byte expanded through
//! a lookup table and shifted to its plane's bit) whose little-endian
//! bytes are the 64 pending counts in item order, then adds those bytes
//! to the counts in one straight widening loop that the compiler
//! vectorizes. With a single report pending it is the plain set-bit
//! walk.
//!
//! Pending reports count towards [`UnaryCounts::reports`] at once, but
//! every reader of the counts — [`UnaryCounts::tally`], which `counts`,
//! `merge`, `subtract` and checkpoints go through, and `estimate` —
//! requires settled state, and debug builds assert it. Planes
//! never outlive a batch, so they are not state: settled counts equal the
//! one-increment-per-set-bit loop's exactly, and the emptied plane buffer
//! clones without allocating.

use rand::RngCore;

use crate::binomial::sample_binomial;
use crate::{OracleError, OueReport, Tally};

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

/// A Bernoulli(`prob`) sampler that decides 64 independent lanes per
/// random word from `prob`'s exact binary expansion (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub(crate) struct Lanes {
    /// `prob == 1`: every lane is 1 without a draw.
    certain: bool,
    /// The fractional binary digits of `prob`, most significant first,
    /// ending at its last 1 — trailing zeros can only decide lanes 0, as
    /// running out of digits does.
    digits: Vec<bool>,
}

impl Lanes {
    /// Expands `prob ∈ [0, 1]` by exact doubling: doubling a binary float
    /// below 1 and subtracting 1 from one in `[1, 2)` are both exact, and a
    /// finite `f64` has at most 1074 fractional digits, so the loop ends
    /// with `Σ digitₖ·2⁻ᵏ == prob`.
    pub(crate) fn new(prob: f64) -> Self {
        debug_assert!((0.0..=1.0).contains(&prob), "probability {prob}");
        let certain = prob >= 1.0;
        let mut digits = Vec::new();
        let mut rest = if certain { 0.0 } else { prob };
        while rest > 0.0 {
            rest *= 2.0;
            let digit = rest >= 1.0;
            if digit {
                rest -= 1.0;
            }
            digits.push(digit);
        }
        Self { certain, digits }
    }

    /// A word whose lanes in `mask` are independent Bernoulli(`prob`)
    /// draws and whose other lanes are 0. Each lane is a function of its
    /// own bit of each word drawn, so lanes share no randomness; how many
    /// words are drawn depends on `mask` and on their bits alone.
    #[inline]
    pub(crate) fn draw(&self, mask: u64, rng: &mut dyn RngCore) -> u64 {
        if self.certain {
            return mask;
        }
        let mut ones = 0;
        let mut open = mask;
        for &digit in &self.digits {
            if open == 0 {
                break;
            }
            let random = rng.next_u64();
            // `at_one` is all-ones under a 1 digit, where open lanes
            // drawing 0 fall below `prob` (decided 1); under a 0 digit, open
            // lanes drawing 1 rise above it (decided 0). Lanes drawing the
            // digit itself stay open.
            let at_one = 0u64.wrapping_sub(u64::from(digit));
            ones |= open & !random & at_one;
            open &= !(random ^ at_one);
        }
        ones
    }
}

/// The client half of a unary encoding: exact lane samplers for `p` (the
/// value's bit) and `q` (every other bit).
#[derive(Debug, Clone)]
pub(crate) struct UnaryEncoder {
    p: Lanes,
    q: Lanes,
}

impl UnaryEncoder {
    pub(crate) fn new((p, q): (f64, f64)) -> Self {
        Self {
            p: Lanes::new(p),
            q: Lanes::new(q),
        }
    }

    /// One report over `domain` items: every bit an independent
    /// Bernoulli(`q`) lane — bits past `domain` are never opened — then
    /// the value's bit overwritten by one Bernoulli(`p`) draw. The words
    /// drawn never depend on `value`, only on `domain` and the random bits.
    pub(crate) fn encode(&self, domain: usize, value: usize, rng: &mut dyn RngCore) -> OueReport {
        debug_assert!(value < domain);
        let width = domain.div_ceil(64);
        let mut words = Vec::with_capacity(width);
        words.extend((1..width).map(|_| self.q.draw(!0, rng)));
        let tail = match domain % 64 {
            0 => !0,
            bits => (1u64 << bits) - 1,
        };
        words.push(self.q.draw(tail, rng));
        let (word, bit) = (value / 64, value % 64);
        words[word] = (words[word] & !(1 << bit)) | (self.p.draw(1, rng) << bit);
        OueReport::from_words(domain, words)
    }
}

/// Per-item noisy 1-counts of a unary encoding, with bit-sliced deferred
/// absorption (see the [module docs](self)).
#[derive(Debug, Clone)]
pub(crate) struct UnaryCounts {
    /// Settled noisy 1-counts per item, and the reports absorbed —
    /// pending ones included.
    tally: Tally,
    /// Bit planes of the pending counts, plane-major: plane `k` is words
    /// `k·W .. (k+1)·W` with `W = ⌈D/64⌉`. Empty whenever settled.
    planes: Vec<u64>,
    /// Reports rippled into `planes` since the last settle.
    pending: u32,
}

impl UnaryCounts {
    pub(crate) fn new(domain: usize) -> Self {
        Self {
            tally: Tally::counts(domain),
            planes: Vec::new(),
            pending: 0,
        }
    }

    /// Packed words per report, and per plane.
    fn width(&self) -> usize {
        self.tally.stats.len().div_ceil(64)
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
        self.tally.reports
    }

    /// The settled counts and report total.
    pub(crate) fn tally(&self) -> &Tally {
        self.assert_settled();
        &self.tally
    }

    /// Mutable [`UnaryCounts::tally`]: settled, so nothing pending can be
    /// lost or double-counted.
    pub(crate) fn tally_mut(&mut self) -> &mut Tally {
        self.assert_settled();
        &mut self.tally
    }

    /// Ripple-carry adds one report's packed words — exactly `⌈D/64⌉`, no
    /// bit set at or past `D`, as every validated `OueReport` is — into
    /// the planes, settling once [`MAX_PENDING`] reports are pending.
    pub(crate) fn add_deferred(&mut self, words: &[u64]) {
        let width = self.width();
        debug_assert_eq!(words.len(), width);
        self.pending += 1;
        self.tally.reports += 1;
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
        let counts = &mut self.tally.stats;
        match self.pending {
            0 => return,
            1 => {
                for (wi, &word) in self.planes[..width].iter().enumerate() {
                    let mut w = word;
                    while w != 0 {
                        counts[wi * 64 + w.trailing_zeros() as usize] += 1;
                        w &= w - 1;
                    }
                }
            }
            _ => {
                for (wi, items) in counts.chunks_mut(64).enumerate() {
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
                    // So the lanes' little-endian bytes are the 64 pending
                    // counts in item order: one straight widening add.
                    let bytes = lanes.map(u64::to_le_bytes);
                    for (count, &byte) in items.iter_mut().zip(bytes.as_flattened()) {
                        *count += u64::from(byte);
                    }
                }
            }
        }
        self.planes.clear();
        self.pending = 0;
    }

    /// Resets to the empty accumulator in place: counts zeroed, nothing
    /// pending, no allocation (the plane buffer keeps its capacity).
    pub(crate) fn clear(&mut self) {
        self.tally.clear();
        self.planes.clear();
        self.pending = 0;
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
        let tally = &mut self.tally;
        if true_counts.len() != tally.stats.len() {
            return Err(OracleError::ReportDomainMismatch {
                report: true_counts.len(),
                server: tally.stats.len(),
            });
        }
        let n: u64 = true_counts.iter().sum();
        for (count, &c) in tally.stats.iter_mut().zip(true_counts) {
            let kept = sample_binomial(rng, c, p);
            let flipped = sample_binomial(rng, n - c, q);
            *count += kept + flipped;
        }
        tally.reports += n;
        Ok(())
    }

    /// Writes the unbiased frequency estimates `(c_j/N − q)/(p − q)` of
    /// items `first..first + out.len()` into `out`; all-zero before any
    /// report. The whole estimate is the part from item 0 over the whole
    /// domain.
    pub(crate) fn estimate_part_into(&self, (p, q): (f64, f64), first: usize, out: &mut [f64]) {
        let tally = self.tally();
        let counts = &tally.stats[first..first + out.len()];
        if tally.reports == 0 {
            out.fill(0.0);
            return;
        }
        let n = tally.reports as f64;
        for (o, &c) in out.iter_mut().zip(counts) {
            *o = (c as f64 / n - q) / (p - q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PointOracle;
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
                        assert_eq!(acc.tally().stats(), oracle, "D={domain} thin={thin} n={n}");
                    }
                }
                acc.settle();
                assert_eq!(acc.tally().stats(), oracle, "D={domain} thin={thin}");
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

    /// The lane sampler and the encoders built on it.
    mod encode {
        use super::*;

        /// A generator that replays a fixed word sequence and panics past
        /// its end, so a sampler that draws more words than the script
        /// holds fails.
        struct Script<'a>(std::slice::Iter<'a, u64>);

        impl RngCore for Script<'_> {
            fn next_u64(&mut self) -> u64 {
                *self.0.next().expect("sampler drew past the scripted words")
            }
        }

        /// A generator of all-zero words: every lane takes `q`'s first 1
        /// digit, the densest report the sampler can emit.
        struct Zeros;

        impl RngCore for Zeros {
            fn next_u64(&mut self) -> u64 {
                0
            }
        }

        const EXP_EPS: [f64; 3] = [1.5, 3.0, 9.0];

        /// Both unary oracles at every e^ε of [`EXP_EPS`].
        fn unary_oracles(domain: usize) -> Vec<crate::AnyOracle> {
            use crate::FrequencyOracle::{Oue, Sue};
            EXP_EPS
                .into_iter()
                .flat_map(|e| {
                    [Oue, Sue].map(|kind| {
                        crate::AnyOracle::new(kind, domain, crate::Epsilon::from_exp(e)).unwrap()
                    })
                })
                .collect()
        }

        fn words_of(report: &crate::AnyReport) -> &[u64] {
            match report {
                crate::AnyReport::Oue(r) | crate::AnyReport::Sue(r) => r.words(),
                other => panic!("not a unary report: {other:?}"),
            }
        }

        /// The stored expansion is `prob`'s, digit for digit: summed back
        /// it reproduces `prob`'s bits exactly, and it ends at its last 1.
        #[test]
        fn expansion_sums_back_to_the_probability_bit_for_bit() {
            let mut probs: Vec<f64> = EXP_EPS
                .into_iter()
                .flat_map(|e| {
                    let eps = crate::Epsilon::from_exp(e);
                    let ((p, q), (sp, sq)) = (crate::oue_probs(eps), crate::sue_probs(eps));
                    [p, q, sp, sq]
                })
                .collect();
            probs.extend([
                0.5,
                0.0,
                1.0,
                1.0 - f64::EPSILON / 2.0,
                f64::MIN_POSITIVE,
                f64::from_bits(1),
                f64::from_bits(0x000f_0000_0000_1234),
            ]);
            for prob in probs {
                let lanes = Lanes::new(prob);
                assert_eq!(lanes.certain, prob == 1.0, "{prob:e}");
                assert!(lanes.digits.len() <= 1074, "{prob:e}");
                assert_ne!(lanes.digits.last(), Some(&false), "{prob:e}");
                // Every partial sum is a prefix of `prob`'s digits, so each
                // addition below is exact.
                let (mut sum, mut weight) = (f64::from(u8::from(lanes.certain)), 1.0);
                for &digit in &lanes.digits {
                    weight /= 2.0;
                    if digit {
                        sum += weight;
                    }
                }
                assert_eq!(sum.to_bits(), prob.to_bits(), "{prob:e}");
            }
        }

        /// For `q = k/2^m`, scripted over all `2^m` word sequences — lane
        /// `ℓ` of sequence `s` reading `U = ((s + ℓ) mod 2^m)/2^m`, so every
        /// lane sees every pattern once and neighbouring lanes see
        /// different ones — each lane is exactly `[U < q]`: 1 in exactly
        /// `k` sequences, decided by its own bits alone, and never after
        /// more than `m` words.
        #[test]
        fn dyadic_probabilities_are_exact_over_every_word_sequence() {
            for m in 0..=8u32 {
                let patterns = 1usize << m;
                // scripts[s][i], lane ℓ: digit i+1 (MSB first) of (s+ℓ) mod 2^m.
                let scripts: Vec<Vec<u64>> = (0..patterns)
                    .map(|s| {
                        (0..m)
                            .map(|i| {
                                (0..64).fold(0u64, |word, lane| {
                                    let u = ((s + lane) % patterns) as u64;
                                    word | ((u >> (m - 1 - i)) & 1) << lane
                                })
                            })
                            .collect()
                    })
                    .collect();
                for k in 0..=patterns {
                    let lanes = Lanes::new(k as f64 / patterns as f64);
                    let mut ones = [0usize; 64];
                    for (s, script) in scripts.iter().enumerate() {
                        let word = lanes.draw(!0, &mut Script(script.iter()));
                        for (lane, count) in ones.iter_mut().enumerate() {
                            let one = (word >> lane) & 1 == 1;
                            assert_eq!(
                                one,
                                (s + lane) % patterns < k,
                                "q={k}/2^{m} s={s} lane {lane}"
                            );
                            *count += usize::from(one);
                        }
                    }
                    assert_eq!(ones, [k; 64], "q = {k}/2^{m}");
                }
            }
        }

        /// No bit at or past `D` is ever set — not by the densest possible
        /// draw, not at `q = 1`, and not by a seeded generator.
        #[test]
        fn bits_past_the_domain_are_zero() {
            for domain in [1, 63, 64, 65, 1_000] {
                let tail = match domain % 64 {
                    0 => !0,
                    bits => (1u64 << bits) - 1,
                };
                let mut rng = StdRng::seed_from_u64(domain as u64);
                for oracle in unary_oracles(domain) {
                    let dense = oracle.encode(domain - 1, &mut Zeros).unwrap();
                    let set: u32 = words_of(&dense).iter().map(|w| w.count_ones()).sum();
                    assert_eq!(set as usize, domain, "{} D={domain}", oracle.kind());
                    for value in [0, domain / 2, domain - 1] {
                        let report = oracle.encode(value, &mut rng).unwrap();
                        let words = words_of(&report);
                        assert_eq!(words.len(), domain.div_ceil(64));
                        assert_eq!(words[words.len() - 1] & !tail, 0, "D={domain}");
                    }
                }
                let certain = UnaryEncoder::new((1.0, 1.0)).encode(domain, 0, &mut Zeros);
                assert_eq!(certain.count_ones() as usize, domain, "D={domain}");
                assert_eq!(certain.words()[certain.words().len() - 1] & !tail, 0);
            }
        }

        /// The input only picks which bit the `p` draw overwrites: two
        /// encodes of different values from one seed differ at most at
        /// those two bits and leave the generator in the same state — the
        /// work done and the frame length do not depend on the input.
        #[test]
        fn inputs_change_only_their_own_bits_and_never_the_draws() {
            for domain in [2, 63, 64, 65, 130, 1_000] {
                for oracle in unary_oracles(domain) {
                    for seed in 0..20u64 {
                        let mut pick = StdRng::seed_from_u64(!seed);
                        let a = pick.random_range(0..domain);
                        let b = (a + pick.random_range(1..domain)) % domain;
                        let mut rng_a = StdRng::seed_from_u64(seed);
                        let mut rng_b = rng_a.clone();
                        let ra = oracle.encode(a, &mut rng_a).unwrap();
                        let rb = oracle.encode(b, &mut rng_b).unwrap();
                        let (wa, wb) = (words_of(&ra), words_of(&rb));
                        assert_eq!(wa.len(), wb.len());
                        for (i, (x, y)) in wa.iter().zip(wb).enumerate() {
                            let own = [a, b]
                                .into_iter()
                                .filter(|v| v / 64 == i)
                                .fold(0u64, |m, v| m | 1 << (v % 64));
                            assert_eq!((x ^ y) & !own, 0, "D={domain} a={a} b={b} word {i}");
                        }
                        for _ in 0..4 {
                            assert_eq!(
                                rng_a.next_u64(),
                                rng_b.next_u64(),
                                "D={domain} a={a} b={b}"
                            );
                        }
                    }
                }
            }
        }
    }
}
