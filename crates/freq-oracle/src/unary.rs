//! The two halves shared by the unary encodings ([`crate::Oue`] and
//! [`crate::Sue`]): a client encoder that draws 64 exact Bernoulli lanes
//! per random word, and an aggregator state — one noisy 1-count per item,
//! plus staged rows and bit planes that absorb a batch of `D`-bit reports
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
//! A report is `⌈D/64⌉` packed words. Absorbing it *deferred* copies
//! those words into a **staged row**, zero-padded to a whole number of
//! 8-word lane blocks. Every sixteen staged rows are **folded** into **bit
//! planes**: plane `k` holds bit `k` of every item's pending count, so one
//! word-wide step advances 64 items' counters at once. The fold is a
//! Harley–Seal carry-save adder tree (Muła, Kurz & Lemire, "Faster
//! Population Counts Using AVX2 Instructions", 2018; Klarqvist, Muła &
//! Lemire, "Efficient Computation of Positional Population Counts Using
//! SIMD Instructions", 2021): planes 0–3 are its ones, twos, fours and
//! eights accumulators, the sixteen rows go in through fifteen adders of
//! five bitwise operations each, and only the tree's sixteens word
//! ripples on into planes 4–7. So the planes are walked once per sixteen
//! reports, not once per report, at ≈ 5 word operations per staged word,
//! on `[u64; 8]` blocks the compiler vectorizes.
//!
//! Pending reports are spilled when they are read, not at the end of a
//! batch, so they stay in the rows and planes across batches. A **drain**
//! ([`UnaryCounts::drain`], how a service moves a shard into its
//! accumulator) spills them straight into the accumulator's counts, in
//! the same pass that moves the shard's own counts — which it skips when
//! they are known to be zero, as they are in a shard drained at every
//! refresh, so such a drain never touches the shard's `u64` counts.
//! Every other reader settles first ([`UnaryCounts::settle`]), which
//! spills into the oracle's own counts; and the planes settle by
//! themselves once [`MAX_PENDING`] reports are pending, which keeps every
//! pending count inside one byte and eight planes. The spill builds, per
//! 64 items, the 64 pending counts as 64 bytes in item order — each plane
//! word's bits set as bit `k` of their items' bytes, then each row staged
//! since the last fold added in — and adds those bytes, and the drained
//! counts if any, to the counts in one straight widening loop that the
//! compiler vectorizes. On AVX2 the bytes are built with byte shuffles:
//! a word is broadcast, `vpshufb` copies its byte `i` to bytes
//! `8i .. 8i + 8` of two 32-byte vectors, and a mask and compare leave
//! one all-ones byte per set bit (`vpshufb` as Muła, Kurz & Lemire use it
//! for their population count), seven instructions per 64 items;
//! elsewhere each plane byte goes through a 256-entry lookup table. A
//! spill reads every pending report where it is, the staged rows of a
//! partial group one row at a time, since with shuffles a row costs less
//! than zero-padding and folding the group, and a settle of a single
//! report spills it as any other (a set-bit walk over the row costs
//! more). The fold and the spill are each compiled twice and dispatched
//! on AVX2, as `ldp_transforms::hadamard::fwht` is.
//!
//! The rows cost memory: sixteen rows of the padded width, for every
//! oracle that takes batches. An `HH_4`/OUE server at `D = 2^16` (eight
//! levels, 1 392 padded words) stages at most 16 · 1 392 · 8 B ≈ 174 KiB
//! per shard, next to 87 KiB of planes. Against the per-report ripple
//! through the planes that the fold replaced, `ldpbench`'s
//! `hh_oue_d64k_mem` ingest went from 844 k to 1.03 M reports/s (medians
//! of ten interleaved 20-s pairs on a 2-vCPU Intel Xeon VM, ten wins).
//!
//! Pending reports count towards [`UnaryCounts::reports`] at once, but
//! every reader of the counts other than a drain — [`UnaryCounts::tally`],
//! which `counts`, `merge`, `subtract` and checkpoints go through, and
//! `estimate` — requires settled state, and debug builds assert it. Rows
//! and planes are not state: a settle or a drain leaves the counts equal
//! to the one-increment-per-set-bit loop's exactly, and the emptied
//! buffers clone without allocating. They keep their capacity, reserved
//! whole at the first report staged, so no later fold, settle or drain
//! grows them.

use rand::RngCore;

use crate::binomial::sample_binomial;
use crate::tally::add_and_zero;
use crate::{OracleError, OueReport, Tally};

/// Pending reports at which the planes settle by themselves: 255 keeps a
/// pending count in one byte (the spill's lane width) and in [`PLANES`]
/// bit planes.
const MAX_PENDING: u32 = u8::MAX as u32;

/// Bit planes of the pending counts: enough for [`MAX_PENDING`].
const PLANES: usize = 8;

/// Staged rows per fold: one Harley–Seal tree adds sixteen rows into
/// planes 0–3 and carries its sixteens into planes 4–7.
const FOLD_ROWS: usize = 16;

/// Words per lane block. Rows and planes are padded to a multiple of it,
/// and the fold works one `[u64; 8]` block at a time, so each of its
/// steps is two AVX2 or four SSE2 instructions.
const LANE_BLOCK: usize = 8;

type Block = [u64; LANE_BLOCK];

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
    /// Reports staged since the last fold, row-major: row `r` is words
    /// `r·S .. (r+1)·S` with `S` the [stride](UnaryCounts::stride) — the
    /// report's `⌈D/64⌉` words, then zero pad. Fewer than [`FOLD_ROWS`]
    /// rows; empty whenever nothing is pending.
    staged: Vec<u64>,
    /// Bit planes of the folded pending counts, plane-major: plane `k` is
    /// words `k·S .. (k+1)·S`. [`PLANES`] planes from the first fold
    /// after a settle or drain on; empty whenever nothing is pending.
    planes: Vec<u64>,
    /// Reports staged or folded since the last settle or drain.
    pending: u32,
    /// Whether the settled counts are known to be all zero: set when
    /// built, cleared or drained out, so a drain need not read them;
    /// unset by anything that may add to them.
    zero: bool,
}

impl UnaryCounts {
    pub(crate) fn new(domain: usize) -> Self {
        Self {
            tally: Tally::counts(domain),
            staged: Vec::new(),
            planes: Vec::new(),
            pending: 0,
            zero: true,
        }
    }

    /// Packed words per report.
    fn width(&self) -> usize {
        self.tally.stats.len().div_ceil(64)
    }

    /// Words per staged row and per plane: the width padded to a whole
    /// number of lane blocks.
    fn stride(&self) -> usize {
        self.width().next_multiple_of(LANE_BLOCK)
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
        self.zero = false;
        &mut self.tally
    }

    /// Stages one report's packed words — exactly `⌈D/64⌉`, no bit set at
    /// or past `D`, as every validated `OueReport` is — as a zero-padded
    /// row, folds the rows into the planes once [`FOLD_ROWS`] are staged,
    /// and settles once [`MAX_PENDING`] reports are pending.
    pub(crate) fn add_deferred(&mut self, words: &[u64]) {
        let (width, stride) = (self.width(), self.stride());
        debug_assert_eq!(words.len(), width);
        debug_assert!(
            self.pending > 0 || (self.staged.is_empty() && self.planes.is_empty()),
            "rows or planes left behind by a drain"
        );
        if self.staged.capacity() == 0 {
            // A whole group of rows and every plane at once, so that no
            // later fold, settle or drain grows them.
            self.staged.reserve_exact(FOLD_ROWS * stride);
            self.planes.reserve_exact(PLANES * stride);
        }
        self.pending += 1;
        self.tally.reports += 1;
        self.staged.extend_from_slice(words);
        self.staged.resize(self.staged.len() + stride - width, 0);
        if self.staged.len() == FOLD_ROWS * stride {
            self.fold_staged();
        }
        if self.pending == MAX_PENDING {
            self.settle();
        }
    }

    /// Folds the [`FOLD_ROWS`] staged rows into the planes (zeroed first
    /// if this is the first fold since the last settle or drain) and
    /// empties the rows.
    fn fold_staged(&mut self) {
        let stride = self.stride();
        debug_assert_eq!(self.staged.len(), FOLD_ROWS * stride);
        if self.planes.is_empty() {
            self.planes.resize(PLANES * stride, 0);
        }
        fold(&mut self.planes, &self.staged, stride);
        self.staged.clear();
    }

    /// The pending reports as a spill reads them: the planes that can
    /// hold bits of the folded counts (no folded count reaches 2^depth)
    /// and the rows staged since the last fold, which the spill adds in
    /// one at a time.
    fn pending_bits<'a>(
        planes: &'a [u64],
        staged: &'a [u64],
        pending: u32,
        stride: usize,
    ) -> Pending<'a> {
        let folded = pending - (staged.len() / stride) as u32;
        let depth = (u32::BITS - folded.leading_zeros()) as usize;
        Pending {
            planes: &planes[..depth * stride],
            rows: staged,
            stride,
        }
    }

    /// Spills the pending reports into the counts and empties the rows and
    /// planes (keeping their capacity). A no-op when nothing is pending.
    pub(crate) fn settle(&mut self) {
        if self.pending == 0 {
            return;
        }
        let bits = Self::pending_bits(&self.planes, &self.staged, self.pending, self.stride());
        spill(&mut self.tally.stats, &mut [], bits);
        self.staged.clear();
        self.planes.clear();
        self.pending = 0;
        self.zero = false;
    }

    /// Moves `other` into these counts in one pass — its settled counts
    /// unless they are known to be zero, and its pending reports, spilled
    /// straight in without settling `other` first. The report total moves
    /// here, and `other` is left empty with nothing pending, its rows and
    /// planes emptied with their capacity kept.
    pub(crate) fn drain(&mut self, other: &mut Self) {
        debug_assert_eq!(self.tally.stats.len(), other.tally.stats.len());
        let stride = other.stride();
        self.zero &= other.zero && other.pending == 0;
        self.tally.reports += std::mem::take(&mut other.tally.reports);
        let Self {
            tally,
            staged,
            planes,
            pending,
            zero,
        } = other;
        let from: &mut [u64] = if std::mem::replace(zero, true) {
            &mut []
        } else {
            &mut tally.stats
        };
        let bits = Self::pending_bits(planes, staged, std::mem::take(pending), stride);
        if bits.is_empty() {
            add_and_zero(&mut self.tally.stats, from);
        } else {
            spill(&mut self.tally.stats, from, bits);
        }
        staged.clear();
        planes.clear();
    }

    /// Resets to the empty accumulator in place: counts zeroed, nothing
    /// pending, no allocation (the row and plane buffers keep their
    /// capacity).
    pub(crate) fn clear(&mut self) {
        if self.zero {
            self.tally.reports = 0;
        } else {
            self.tally.clear();
        }
        self.staged.clear();
        self.planes.clear();
        self.pending = 0;
        self.zero = true;
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
        self.zero = false;
        for (count, &c) in tally.stats.iter_mut().zip(true_counts) {
            let kept = sample_binomial(rng, c, p);
            let flipped = sample_binomial(rng, n - c, q);
            *count += kept + flipped;
        }
        tally.reports += n;
        Ok(())
    }

    /// Writes the unbiased frequency estimates `(c_j/N − q)/(p − q)` of
    /// every item into `out`; all-zero before any report.
    pub(crate) fn estimate_into(&self, (p, q): (f64, f64), out: &mut [f64]) {
        let tally = self.tally();
        assert_eq!(out.len(), tally.stats.len(), "estimate buffer != domain");
        if tally.reports == 0 {
            out.fill(0.0);
            return;
        }
        let n = tally.reports as f64;
        for (o, &c) in out.iter_mut().zip(&tally.stats) {
            *o = (c as f64 / n - q) / (p - q);
        }
    }
}

/// Adds [`FOLD_ROWS`] staged rows into the planes. One body, compiled
/// twice, dispatched as [`ldp_transforms::hadamard::fwht`] is: on x86-64
/// CPUs that report AVX2 it runs as an AVX2 build, elsewhere at the
/// baseline width. Both builds do the same bitwise operations on the same
/// words, so they leave the same bits.
fn fold(planes: &mut [u64], staged: &[u64], stride: usize) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `fold_avx2` needs only AVX2, which this CPU reports.
        unsafe { fold_avx2(planes, staged, stride) };
        return;
    }
    fold_body(planes, staged, stride);
}

/// The fold body compiled for AVX2; [`fold`] calls it only on a CPU that
/// reports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fold_avx2(planes: &mut [u64], staged: &[u64], stride: usize) {
    fold_body(planes, staged, stride);
}

/// Pending reports as a spill reads them: bit planes of the folded
/// counts, plane-major, and the rows staged since the last fold, each
/// `stride` words.
#[derive(Debug, Clone, Copy)]
struct Pending<'a> {
    planes: &'a [u64],
    rows: &'a [u64],
    stride: usize,
}

impl Pending<'_> {
    /// Whether no report is pending.
    fn is_empty(&self) -> bool {
        self.planes.is_empty() && self.rows.is_empty()
    }
}

/// Adds each item's pending count, read from `pending`'s planes, into
/// `into` — and, unless `from` is empty, the drained count `from` holds
/// for the same item, zeroed where it is read. A settle spills into its
/// own counts with `from` empty; a drain spills a shard's pending reports
/// and its counts into the accumulator in the same pass. Dispatched as
/// [`fold`] is, but the two builds differ in how they build each 64
/// items' counts: the AVX2 build with byte shuffles
/// ([`pending_counts_avx2`]), every other with a lookup table
/// ([`pending_counts`]). Both return the same bytes, so both leave the
/// same counts.
fn spill(into: &mut [u64], from: &mut [u64], pending: Pending<'_>) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `spill_avx2` needs only AVX2, which this CPU reports.
        unsafe { spill_avx2(into, from, pending) };
        return;
    }
    spill_body(into, from, pending, pending_counts);
}

/// The spill body compiled for AVX2 with the byte-shuffle count builder;
/// [`spill`] calls it only on a CPU that reports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn spill_avx2(into: &mut [u64], from: &mut [u64], pending: Pending<'_>) {
    spill_body(into, from, pending, |pending, word| {
        // SAFETY: `spill` calls this build only on a CPU that reports AVX2.
        unsafe { pending_counts_avx2(pending, word) }
    });
}

/// The lane block of `words` at word `at`.
#[inline(always)]
fn block(words: &[u64], at: usize) -> Block {
    words[at..at + LANE_BLOCK]
        .try_into()
        .expect("a slice of one lane block")
}

/// One carry-save adder: adds `a` and `b` into `sum` (the low bit of each
/// lane's three-way sum) and returns the carry (its high bit).
#[inline(always)]
fn csa(sum: &mut Block, a: Block, b: Block) -> Block {
    let mut carry = [0; LANE_BLOCK];
    for i in 0..LANE_BLOCK {
        let half = sum[i] ^ a[i];
        carry[i] = (sum[i] & a[i]) | (half & b[i]);
        sum[i] = half ^ b[i];
    }
    carry
}

/// The portable fold body: a Harley–Seal tree over each lane block.
///
/// Planes 0–3 of a block are the tree's ones, twos, fours and eights
/// accumulators; the tree adds the sixteen rows' blocks into them and
/// yields a sixteens word per lane, which a ripple adds into planes 4–7.
/// Every pending count stays at most [`MAX_PENDING`], so planes 4–7 never
/// carry out. It and its helpers are `#[inline(always)]`, so [`fold`] and
/// `fold_avx2` each get their own copy, compiled at their own width.
#[inline(always)]
fn fold_body(planes: &mut [u64], staged: &[u64], stride: usize) {
    assert!(stride.is_multiple_of(LANE_BLOCK));
    assert_eq!(planes.len(), PLANES * stride);
    assert_eq!(staged.len(), FOLD_ROWS * stride);
    for at in (0..stride).step_by(LANE_BLOCK) {
        let mut ones = block(planes, at);
        let mut twos = block(planes, stride + at);
        let mut fours = block(planes, 2 * stride + at);
        let mut eights = block(planes, 3 * stride + at);
        let mut eights_in = [[0; LANE_BLOCK]; 2];
        for (half, eights_in) in eights_in.iter_mut().enumerate() {
            let mut fours_in = [[0; LANE_BLOCK]; 2];
            for (quarter, fours_in) in fours_in.iter_mut().enumerate() {
                let first = 4 * (2 * half + quarter) * stride + at;
                let row = |r: usize| first + r * stride;
                let twos_a = csa(&mut ones, block(staged, row(0)), block(staged, row(1)));
                let twos_b = csa(&mut ones, block(staged, row(2)), block(staged, row(3)));
                *fours_in = csa(&mut twos, twos_a, twos_b);
            }
            *eights_in = csa(&mut fours, fours_in[0], fours_in[1]);
        }
        let mut carry = csa(&mut eights, eights_in[0], eights_in[1]);
        for (k, bits) in [ones, twos, fours, eights].into_iter().enumerate() {
            planes[k * stride + at..][..LANE_BLOCK].copy_from_slice(&bits);
        }
        for k in 4..PLANES {
            let plane = &mut planes[k * stride + at..][..LANE_BLOCK];
            for (bits, carry) in plane.iter_mut().zip(&mut carry) {
                let old = *bits;
                *bits = old ^ *carry;
                *carry &= old;
            }
        }
        debug_assert_eq!(carry, [0; LANE_BLOCK], "a pending count outgrew its planes");
    }
}

/// The pending counts of 64 items, in item order: byte `8·i + l` (byte
/// `l` of lane `i`) is item `64·word + 8·i + l`'s, for the `word` a count
/// builder was asked for.
type Counts = [[u8; 8]; 8];

/// The spill body, generic over the builder of each 64 items' pending
/// counts ([`pending_counts`] or [`pending_counts_avx2`]). Per word it
/// builds the counts, then adds those bytes — and the drained counts, if
/// any — to the counts in one straight widening loop. `#[inline(always)]`,
/// so [`spill`] and `spill_avx2` each get their own copy, with their own
/// builder inlined: the builder is called at one site, since with a
/// second one LLVM kept the table builder out of line.
#[inline(always)]
fn spill_body(
    into: &mut [u64],
    from: &mut [u64],
    pending: Pending<'_>,
    counts_at: impl Fn(Pending<'_>, usize) -> Counts,
) {
    let Pending {
        planes,
        rows,
        stride,
    } = pending;
    assert!(stride > 0 && planes.len() <= PLANES * stride && rows.len() < FOLD_ROWS * stride);
    assert!(planes.len().is_multiple_of(stride) && rows.len().is_multiple_of(stride));
    assert!(into.len().div_ceil(64) <= stride);
    assert!(from.is_empty() || from.len() == into.len());
    for (wi, items) in into.chunks_mut(64).enumerate() {
        let counts = counts_at(pending, wi);
        let counts = &counts.as_flattened()[..items.len()];
        if from.is_empty() {
            for (count, &c) in items.iter_mut().zip(counts) {
                *count = count.wrapping_add(u64::from(c));
            }
        } else {
            let drained = &mut from[64 * wi..][..items.len()];
            for ((count, drained), &c) in items.iter_mut().zip(drained).zip(counts) {
                *count = count
                    .wrapping_add(std::mem::take(drained))
                    .wrapping_add(u64::from(c));
            }
        }
    }
}

/// The portable count builder: the pending counts of the 64 items at
/// `word`. Each plane byte is expanded through [`BYTE_LANES`] and shifted
/// to its plane's bit `k` of each byte; each staged row then adds its
/// bits in, one at a time. A pending count never exceeds
/// [`MAX_PENDING`], so no byte carries into the next.
#[inline(always)]
fn pending_counts(pending: Pending<'_>, word: usize) -> Counts {
    let mut lanes = [0u64; 8];
    for (k, plane) in pending.planes.chunks_exact(pending.stride).enumerate() {
        let bits = plane[word];
        if bits != 0 {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane |= BYTE_LANES[usize::from((bits >> (8 * i)) as u8)] << k;
            }
        }
    }
    for row in pending.rows.chunks_exact(pending.stride) {
        let bits = row[word];
        if bits != 0 {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane += BYTE_LANES[usize::from((bits >> (8 * i)) as u8)];
            }
        }
    }
    lanes.map(u64::to_le_bytes)
}

/// The AVX2 count builder: the same bytes as [`pending_counts`], built
/// with byte shuffles (see the [module docs](self)). Each plane or row
/// word becomes two 32-byte masks ([`byte_masks`]); plane `k`'s masks
/// are ANDed with `1 << k` and ORed into two 32-byte accumulators, and
/// each staged row's masks (−1 per set bit) are subtracted from them,
/// which adds 1 per set bit. No branch and no table: about a dozen
/// instructions per word against eight table lookups.
///
/// # Safety
///
/// The CPU must report AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn pending_counts_avx2(pending: Pending<'_>, word: usize) -> Counts {
    use std::arch::x86_64::*;
    let mut counts = [_mm256_setzero_si256(); 2];
    for (k, plane) in pending.planes.chunks_exact(pending.stride).enumerate() {
        let weight = _mm256_set1_epi8((1u8 << k) as i8);
        for (count, mask) in counts.iter_mut().zip(byte_masks(plane[word])) {
            *count = _mm256_or_si256(*count, _mm256_and_si256(mask, weight));
        }
    }
    for row in pending.rows.chunks_exact(pending.stride) {
        for (count, mask) in counts.iter_mut().zip(byte_masks(row[word])) {
            *count = _mm256_sub_epi8(*count, mask);
        }
    }
    // SAFETY: two 32-byte vectors and eight 8-byte arrays are the same
    // 64 bytes, in the same order on this little-endian target.
    unsafe { std::mem::transmute::<[__m256i; 2], Counts>(counts) }
}

/// Byte `j` of the two masks (items `0..32`, then `32..64`) is all-ones
/// if bit `j` of `word` is set and zero otherwise. `word` is broadcast
/// to every 8-byte lane, one load for both masks; a shuffle copies its
/// byte `i` to bytes `8i .. 8i + 8` (shuffles work within each 16-byte
/// half, so each half of each mask has its own two source bytes); each
/// byte then keeps only its own bit (`1 << (j mod 8)`) and compares
/// equal to it.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn byte_masks(word: u64) -> [std::arch::x86_64::__m256i; 2] {
    use std::arch::x86_64::*;
    let low = _mm256_setr_epi8(
        0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, //
        2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3,
    );
    let high = _mm256_setr_epi8(
        4, 4, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5, //
        6, 6, 6, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 7, 7, 7,
    );
    let bit = _mm256_set1_epi64x(0x8040_2010_0804_0201_u64 as i64);
    let word = _mm256_set1_epi64x(word as i64);
    let low = _mm256_and_si256(_mm256_shuffle_epi8(word, low), bit);
    let high = _mm256_and_si256(_mm256_shuffle_epi8(word, high), bit);
    [_mm256_cmpeq_epi8(low, bit), _mm256_cmpeq_epi8(high, bit)]
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
        assert!(acc.staged.capacity() > 0);
        acc.settle();
        assert!(acc.planes.is_empty());
        assert!(acc.staged.is_empty());
        let clone = acc.clone();
        assert_eq!(clone.planes.capacity(), 0);
        assert_eq!(clone.staged.capacity(), 0);
    }

    /// Item `j`'s count in planes of `stride` words: bit `k` from plane `k`.
    fn plane_count(planes: &[u64], stride: usize, j: usize) -> u64 {
        planes
            .chunks_exact(stride)
            .enumerate()
            .map(|(k, plane)| ((plane[j / 64] >> (j % 64)) & 1) << k)
            .sum()
    }

    /// Planes of `stride` words holding `counts` (each below 2^[`PLANES`]).
    fn planes_of(counts: &[u64], stride: usize) -> Vec<u64> {
        let mut planes = vec![0u64; PLANES * stride];
        for (j, &count) in counts.iter().enumerate() {
            for (k, plane) in planes.chunks_exact_mut(stride).enumerate() {
                plane[j / 64] |= ((count >> k) & 1) << (j % 64);
            }
        }
        planes
    }

    /// The portable fold body — what every CPU without AVX2 and every
    /// non-x86-64 target runs — called directly, so a host that dispatches
    /// to AVX2 still holds it to the scalar oracle: sixteen rows at every
    /// density, added to pending counts up to the largest that sixteen
    /// more keep within [`MAX_PENDING`], over one to several lane blocks.
    #[test]
    fn portable_fold_body_matches_scalar_oracle() {
        let mut rng = StdRng::seed_from_u64(0xF01D);
        for stride in [8, 16, 24, 136] {
            let items = 64 * stride;
            for thin in [0, 1, 2, 5] {
                let before: Vec<u64> = (0..items)
                    .map(|_| rng.random_range(0..=u64::from(MAX_PENDING) - FOLD_ROWS as u64))
                    .collect();
                let staged: Vec<u64> = (0..FOLD_ROWS)
                    .flat_map(|_| report(items, thin, &mut rng))
                    .collect();
                let mut oracle = before.clone();
                for row in staged.chunks_exact(stride) {
                    absorb_scalar(&mut oracle, row);
                }
                let mut planes = planes_of(&before, stride);
                fold_body(&mut planes, &staged, stride);
                let after: Vec<u64> = (0..items)
                    .map(|j| plane_count(&planes, stride, j))
                    .collect();
                assert_eq!(after, oracle, "stride={stride} thin={thin}");
            }
        }
    }

    /// The portable spill body, called directly as the fold body is: every
    /// depth, domains off the word and lane-block edges, and counts that
    /// already hold values.
    #[test]
    fn portable_spill_body_matches_scalar_oracle() {
        let mut rng = StdRng::seed_from_u64(0x5B11);
        for domain in [1usize, 63, 64, 65, 513, 1_000, 4_160] {
            let stride = domain.div_ceil(64).next_multiple_of(LANE_BLOCK);
            for depth in 1..=PLANES {
                let pending: Vec<u64> = (0..domain)
                    .map(|_| rng.random_range(0..1u64 << depth))
                    .collect();
                let planes = planes_of(&pending, stride);
                let mut counts: Vec<u64> =
                    (0..domain).map(|_| rng.random_range(0..1 << 40)).collect();
                let oracle: Vec<u64> = counts.iter().zip(&pending).map(|(c, p)| c + p).collect();
                let pending = Pending {
                    planes: &planes[..depth * stride],
                    rows: &[],
                    stride,
                };
                spill_body(&mut counts, &mut [], pending, pending_counts);
                assert_eq!(counts, oracle, "D={domain} depth={depth}");
            }
        }
    }

    /// The portable spill body as a drain runs it: every word of the
    /// domain, into accumulator counts, from folded counts in planes plus
    /// none, one or fifteen staged rows, with the drained shard's counts
    /// added and zeroed in the same pass, or absent.
    #[test]
    fn portable_spill_body_drains_a_run_of_words() {
        let mut rng = StdRng::seed_from_u64(0xD8A1);
        for domain in [64usize, 65, 513, 4_160] {
            let stride = domain.div_ceil(64).next_multiple_of(LANE_BLOCK);
            let words = domain.div_ceil(64);
            for (depth, rows) in [(1, 0), (1, 1), (5, 15), (PLANES, 0), (PLANES, 15)] {
                // Folded counts below 2^depth that leave room for the rows.
                let top = (1u64 << depth).min(u64::from(MAX_PENDING) + 1 - rows as u64);
                let folded: Vec<u64> = (0..domain).map(|_| rng.random_range(0..top)).collect();
                let planes = planes_of(&folded, stride);
                let staged: Vec<u64> = (0..rows)
                    .flat_map(|_| {
                        let mut row = report(domain, 1, &mut rng);
                        row.resize(stride, 0);
                        row
                    })
                    .collect();
                let mut pending = folded.clone();
                for row in staged.chunks_exact(stride) {
                    absorb_scalar(&mut pending, &row[..words]);
                }
                let part = Pending {
                    planes: &planes[..depth * stride],
                    rows: &staged,
                    stride,
                };
                for with_shard in [false, true] {
                    let mut acc: Vec<u64> =
                        (0..domain).map(|_| rng.random_range(0..1 << 40)).collect();
                    let mut shard: Vec<u64> = if with_shard {
                        (0..domain).map(|_| rng.random_range(0..1 << 40)).collect()
                    } else {
                        Vec::new()
                    };
                    let oracle: Vec<u64> = (0..domain)
                        .map(|j| acc[j] + shard.get(j).copied().unwrap_or(0) + pending[j])
                        .collect();
                    spill_body(&mut acc, &mut shard, part, pending_counts);
                    let at = format!("D={domain} depth={depth} rows={rows} shard={with_shard}");
                    assert_eq!(acc, oracle, "{at}");
                    assert!(shard.iter().all(|&c| c == 0), "{at}: shard not zeroed");
                }
            }
        }
    }

    /// The AVX2 spill build (byte-shuffle counts) ≡ the portable body
    /// (table counts) ≡ the scalar oracle, bit for bit: plane depth 0–8,
    /// 0–15 staged rows, with drained shard counts or none,
    /// over 64, 65, 513 and 2^16 items. At 2^16 a spread of depths and
    /// row counts stands in for the whole grid. A host without AVX2 holds
    /// only the portable body.
    #[test]
    fn avx2_spill_matches_portable_body_and_scalar_oracle() {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        let mut rng = StdRng::seed_from_u64(0xA5F2);
        for domain in [64usize, 65, 513, 1 << 16] {
            let words = domain.div_ceil(64);
            let stride = words.next_multiple_of(LANE_BLOCK);
            let grid: Vec<(usize, usize)> = if domain < 1 << 16 {
                (0..=PLANES)
                    .flat_map(|depth| (0..FOLD_ROWS).map(move |rows| (depth, rows)))
                    .collect()
            } else {
                [
                    (0, 1),
                    (0, 15),
                    (1, 0),
                    (3, 7),
                    (5, 1),
                    (6, 15),
                    (8, 0),
                    (8, 15),
                ]
                .into()
            };
            for (depth, rows) in grid {
                // Folded counts below 2^depth that leave room for the rows.
                let top = (1u64 << depth).min(u64::from(MAX_PENDING) + 1 - rows as u64);
                let folded: Vec<u64> = (0..domain).map(|_| rng.random_range(0..top)).collect();
                let planes = planes_of(&folded, stride);
                let staged: Vec<u64> = (0..rows)
                    .flat_map(|_| {
                        let mut row = report(domain, 1, &mut rng);
                        row.resize(stride, 0);
                        row
                    })
                    .collect();
                let mut pending = folded;
                for row in staged.chunks_exact(stride) {
                    absorb_scalar(&mut pending, &row[..words]);
                }
                let part = Pending {
                    planes: &planes[..depth * stride],
                    rows: &staged,
                    stride,
                };
                for with_shard in [false, true] {
                    let at = format!("D={domain} depth={depth} rows={rows} shard={with_shard}");
                    let acc: Vec<u64> = (0..domain).map(|_| rng.random_range(0..1 << 40)).collect();
                    let shard: Vec<u64> = if with_shard {
                        (0..domain).map(|_| rng.random_range(0..1 << 40)).collect()
                    } else {
                        Vec::new()
                    };
                    let oracle: Vec<u64> = (0..domain)
                        .map(|j| acc[j] + shard.get(j).copied().unwrap_or(0) + pending[j])
                        .collect();
                    let (mut portable, mut portable_shard) = (acc.clone(), shard.clone());
                    spill_body(&mut portable, &mut portable_shard, part, pending_counts);
                    assert_eq!(portable, oracle, "{at}: portable");
                    assert!(
                        portable_shard.iter().all(|&c| c == 0),
                        "{at}: portable shard"
                    );
                    #[cfg(target_arch = "x86_64")]
                    if avx2 {
                        let (mut shuffled, mut shuffled_shard) = (acc.clone(), shard.clone());
                        // SAFETY: this CPU reports AVX2.
                        unsafe { spill_avx2(&mut shuffled, &mut shuffled_shard, part) };
                        assert_eq!(shuffled, portable, "{at}: AVX2 against portable");
                        assert!(shuffled_shard.iter().all(|&c| c == 0), "{at}: AVX2 shard");
                    }
                }
            }
        }
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
