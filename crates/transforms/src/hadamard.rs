//! Fast Walsh–Hadamard transform (FWHT).
//!
//! The Hadamard matrix `φ` of dimension `D = 2^k` has entries
//! `φ[i][j] = (−1)^{⟨i, j⟩}` where `⟨i, j⟩` counts the positions on which
//! the binary representations of `i` and `j` are both 1 (paper §3.2,
//! Figure 1 shows the `D = 8` instance, there scaled by `1/√D`).
//!
//! We work with the *unnormalized* ±1 matrix throughout, which is what the
//! HRR mechanism transmits; the `1/√D` or `1/D` factors are restored by the
//! caller where needed. The unnormalized matrix satisfies `φ·φ = D·I`, so
//! the inverse transform is [`fwht`] followed by division by `D`.

use std::ops::{Add, Sub};

/// Single entry of the unnormalized Hadamard matrix: `(−1)^{popcount(i & j)}`.
///
/// This is the value a user with input `i` computes for a sampled column
/// `j` in HRR — an `O(1)` operation, so clients never materialize the
/// matrix.
///
/// ```
/// use ldp_transforms::hadamard_entry;
/// // Row 3 of the D=8 matrix from Figure 1 of the paper.
/// let row: Vec<i8> = (0..8).map(|j| hadamard_entry(3, j)).collect();
/// assert_eq!(row, [1, -1, -1, 1, 1, -1, -1, 1]);
/// ```
#[inline]
pub fn hadamard_entry(i: usize, j: usize) -> i8 {
    if (i & j).count_ones().is_multiple_of(2) {
        1
    } else {
        -1
    }
}

/// Butterfly passes with spans under this many lanes run entirely inside
/// one resident chunk before the array is traversed again — 2048 eight-byte
/// lanes = 16 KiB, well inside a 32–48 KiB L1d, so the `log₂ 2048 = 11`
/// cheapest passes cost one pass over memory instead of eleven.
const FWHT_BLOCK: usize = 2048;

/// What the blocked body transforms: `f64` for [`fwht`], `i64` for the
/// exact integer transform [`fwht_i64`]. A butterfly needs only an add
/// and a subtract.
trait Lane: Copy + Add<Output = Self> + Sub<Output = Self> {}

impl Lane for f64 {}

impl Lane for i64 {}

/// In-place fast Walsh–Hadamard transform of a length-`2^k` slice.
///
/// Computes `x ← φ·x` for the unnormalized ±1 Hadamard matrix in
/// `O(D log D)` time and no extra space. Applying it twice multiplies the
/// input by `D`.
///
/// The butterfly passes (`half = 1, 2, 4, …, D/2`) are scheduled for the
/// cache, not for operation count:
///
/// - **Resident blocks.** Every pass with `half <` `FWHT_BLOCK` stays
///   inside one 2048-lane chunk, so those passes run chunk by chunk out of
///   L1: a radix-8 base case holds the `half = 1, 2, 4` passes in
///   registers, then radix-4 passes cover `half = 8 … 1024`.
/// - **Radix-4 long passes.** The passes with `half ≥` `FWHT_BLOCK` run
///   in pairs, one traversal of memory per pair: each `4h`-lane block is
///   split into quarters `Q0..Q3`, and one loop over the quarters does the
///   `half = h` butterflies `(Q0, Q1)`, `(Q2, Q3)`, then the `half = 2h`
///   butterflies `(Q0, Q2)`, `(Q1, Q3)`. A single radix-2 pass finishes
///   an odd count. The contiguous quarter streams auto-vectorize.
///
/// Fusing passes only changes *when* a butterfly runs, never what it
/// computes: pass `half = 2h` reads exactly the two values pass `half = h`
/// wrote for those lanes (held in locals instead of memory), and every
/// element sees the same two-operand adds and subtracts in the same order
/// as the textbook triple loop. The output is therefore **bit-identical**
/// to [`fwht_scalar`] — the differential tests assert this, not a
/// tolerance.
///
/// # Vector width
///
/// One body, compiled twice. On x86-64 CPUs that report AVX2
/// (`is_x86_feature_detected!`, checked per call and cached by `std`) it
/// runs as an AVX2 build, four `f64` lanes per instruction; on every
/// other CPU and target it runs at the baseline width (SSE2's two lanes on
/// x86-64). Nothing else selects the path: no option, environment
/// variable or cargo feature. Both builds issue the same IEEE-754 adds and
/// subtracts on the same operands — there is no multiply to contract — so
/// they return the same bits. An AVX-512F build measured slower than AVX2
/// for the sixteen per-depth transforms of a `D = 2^16` HaarHRR decode on
/// a 2-vCPU Intel Xeon VM (154–156 µs against 130–137 µs; 174–189 µs at
/// baseline width), so it is not offered.
///
/// # Panics
///
/// Panics if the length is not a power of two (the transform is undefined
/// otherwise).
pub fn fwht(data: &mut [f64]) {
    transform(data);
}

/// The transform over exact integers: [`fwht`]'s blocked body and AVX2
/// dispatch on `i64` lanes, the same butterflies as the textbook loop.
/// Each output is a ±1 combination of the inputs, so the caller bounds
/// their total magnitude to keep every intermediate in range (HRR's
/// prefix tables check it first); an add that overflows anyway panics in
/// a debug build.
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn fwht_i64(data: &mut [i64]) {
    transform(data);
}

/// Checks the length, then runs the AVX2 build of the blocked body on a
/// CPU that reports AVX2 and the portable build everywhere else.
fn transform<T: Lane>(data: &mut [T]) {
    let n = data.len();
    assert!(
        n.is_power_of_two(),
        "FWHT requires a power-of-two length, got {n}"
    );
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `fwht_avx2` needs only AVX2, which this CPU reports.
        unsafe { fwht_avx2(data) };
        return;
    }
    fwht_blocked(data);
}

/// The blocked body compiled for AVX2; [`transform`] calls it only on a
/// CPU that reports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fwht_avx2<T: Lane>(data: &mut [T]) {
    fwht_blocked(data);
}

/// The blocked transform of a power-of-two slice — the portable body.
/// It and its helpers are `#[inline(always)]`, so [`transform`] and
/// `fwht_avx2` each get their own copy per lane type, compiled at their
/// own width.
#[inline(always)]
fn fwht_blocked<T: Lane>(data: &mut [T]) {
    if data.len() <= FWHT_BLOCK {
        fwht_block(data);
        return;
    }
    // Stage 1: all passes with half < FWHT_BLOCK, one resident chunk at
    // a time (butterflies with a span under the chunk length never cross
    // a chunk boundary).
    for chunk in data.chunks_exact_mut(FWHT_BLOCK) {
        fwht_block(chunk);
    }
    // Stage 2: the remaining long-span passes, two per traversal.
    passes_from(data, FWHT_BLOCK);
}

/// All butterfly passes of one cache-resident block (`len ≤` `FWHT_BLOCK`,
/// a power of two): the radix-8 base case, then radix-4 passes.
#[inline(always)]
fn fwht_block<T: Lane>(data: &mut [T]) {
    if data.len() < 8 {
        passes_from(data, 1);
        return;
    }
    // Fused half = 1, 2, 4 passes, eight lanes at a time. The locals hold
    // the exact intermediates the three scalar passes would have stored.
    for q in data.chunks_exact_mut(8) {
        let (a, b, c, d) = (q[0] + q[1], q[0] - q[1], q[2] + q[3], q[2] - q[3]);
        let (e, f, g, h) = (q[4] + q[5], q[4] - q[5], q[6] + q[7], q[6] - q[7]);
        let (a, b, c, d) = (a + c, b + d, a - c, b - d);
        let (e, f, g, h) = (e + g, f + h, e - g, f - h);
        q[0] = a + e;
        q[1] = b + f;
        q[2] = c + g;
        q[3] = d + h;
        q[4] = a - e;
        q[5] = b - f;
        q[6] = c - g;
        q[7] = d - h;
    }
    passes_from(data, 8);
}

/// The passes `half, 2·half, …, len/2` over the whole slice: radix-4
/// pairs, then one radix-2 pass if the count is odd.
#[inline(always)]
fn passes_from<T: Lane>(data: &mut [T], mut half: usize) {
    let n = data.len();
    while half * 4 <= n {
        radix4_pass(data, half);
        half *= 4;
    }
    if half < n {
        radix2_pass(data, half);
    }
}

/// The `half = h` and `half = 2h` passes in one traversal: per `4h`-lane
/// block, butterflies `(Q0, Q1)`, `(Q2, Q3)` at span `h`, then `(Q0, Q2)`,
/// `(Q1, Q3)` at span `2h` on those results.
#[inline(always)]
fn radix4_pass<T: Lane>(data: &mut [T], h: usize) {
    for block in data.chunks_exact_mut(4 * h) {
        let (q01, q23) = block.split_at_mut(2 * h);
        let (q0, q1) = q01.split_at_mut(h);
        let (q2, q3) = q23.split_at_mut(h);
        let quarters = q0.iter_mut().zip(q1).zip(q2.iter_mut().zip(q3));
        for ((w, x), (y, z)) in quarters {
            let (s01, d01) = (*w + *x, *w - *x);
            let (s23, d23) = (*y + *z, *y - *z);
            *w = s01 + s23;
            *x = d01 + d23;
            *y = s01 - s23;
            *z = d01 - d23;
        }
    }
}

/// One `half`-span pass: each `2·half`-lane block split into two
/// contiguous halves, which the compiler vectorizes.
#[inline(always)]
fn radix2_pass<T: Lane>(data: &mut [T], half: usize) {
    for block in data.chunks_exact_mut(2 * half) {
        let (lo, hi) = block.split_at_mut(half);
        for (l, h) in lo.iter_mut().zip(hi) {
            let (a, b) = (*l, *h);
            *l = a + b;
            *h = a - b;
        }
    }
}

/// The textbook triple-loop FWHT — the reference oracle the blocked
/// [`fwht`] is differential-tested against (bit-identical, not within a
/// tolerance). Kept unoptimized on purpose; use [`fwht`] everywhere else.
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn fwht_scalar(data: &mut [f64]) {
    let n = data.len();
    assert!(
        n.is_power_of_two(),
        "FWHT requires a power-of-two length, got {n}"
    );
    let mut half = 1;
    while half < n {
        let step = half * 2;
        for block in (0..n).step_by(step) {
            for i in block..block + half {
                let a = data[i];
                let b = data[i + half];
                data[i] = a + b;
                data[i + half] = a - b;
            }
        }
        half = step;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The inverse transform `x ← (1/D)·φ·x`: [`fwht`], then divide by `D`.
    fn fwht_inverse(data: &mut [f64]) {
        fwht(data);
        let scale = 1.0 / data.len() as f64;
        data.iter_mut().for_each(|v| *v *= scale);
    }

    fn naive_transform(x: &[f64]) -> Vec<f64> {
        let n = x.len();
        (0..n)
            .map(|i| (0..n).map(|j| f64::from(hadamard_entry(i, j)) * x[j]).sum())
            .collect()
    }

    #[test]
    fn integer_transform_is_the_float_transform_on_integers() {
        for n in [1usize, 2, 8, 64, 1024] {
            let ints: Vec<i64> = (0..n as i64).map(|i| (i * 37 % 23) - 11).collect();
            let mut exact = ints.clone();
            fwht_i64(&mut exact);
            let mut floats: Vec<f64> = ints.iter().map(|&i| i as f64).collect();
            fwht_scalar(&mut floats);
            assert!(
                exact.iter().zip(&floats).all(|(&a, &b)| a as f64 == b),
                "n={n}"
            );
        }
    }

    #[test]
    fn matches_figure_1_matrix() {
        // Figure 1 of the paper (scaled by sqrt(8)).
        let expected: [[i8; 8]; 8] = [
            [1, 1, 1, 1, 1, 1, 1, 1],
            [1, -1, 1, -1, 1, -1, 1, -1],
            [1, 1, -1, -1, 1, 1, -1, -1],
            [1, -1, -1, 1, 1, -1, -1, 1],
            [1, 1, 1, 1, -1, -1, -1, -1],
            [1, -1, 1, -1, -1, 1, -1, 1],
            [1, 1, -1, -1, -1, -1, 1, 1],
            // Note: the arXiv rendering of Figure 1 garbles row 7; the
            // Sylvester construction gives ⟨7,3⟩ = 2, hence +1 in column 3.
            [1, -1, -1, 1, -1, 1, 1, -1],
        ];
        for (i, row) in expected.iter().enumerate() {
            for (j, &e) in row.iter().enumerate() {
                assert_eq!(hadamard_entry(i, j), e, "entry ({i},{j})");
            }
        }
    }

    #[test]
    fn fwht_matches_naive() {
        let x: Vec<f64> = (0..16).map(|i| (i as f64).sin()).collect();
        let mut fast = x.clone();
        fwht(&mut fast);
        let slow = naive_transform(&x);
        for (a, b) in fast.iter().zip(slow.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn fwht_involution_up_to_scale() {
        let x: Vec<f64> = (0..64).map(|i| (i * i % 17) as f64).collect();
        let mut y = x.clone();
        fwht(&mut y);
        fwht_inverse(&mut y);
        for (a, b) in x.iter().zip(y.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn transform_of_basis_vector_is_column() {
        let d = 32;
        for v in [0usize, 1, 7, 31] {
            let mut e = vec![0.0; d];
            e[v] = 1.0;
            fwht(&mut e);
            for (i, a) in e.iter().enumerate() {
                assert!((a - f64::from(hadamard_entry(i, v))).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rows_are_orthogonal() {
        let d = 16;
        for i in 0..d {
            for j in 0..d {
                let dot: i32 = (0..d)
                    .map(|k| i32::from(hadamard_entry(i, k)) * i32::from(hadamard_entry(j, k)))
                    .sum();
                assert_eq!(dot, if i == j { d as i32 } else { 0 });
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_power_of_two() {
        let mut x = vec![0.0; 6];
        fwht(&mut x);
    }

    /// The portable body — what every CPU without AVX2 and every
    /// non-x86-64 target runs — called directly, so a host that dispatches
    /// to AVX2 still holds it to [`fwht_scalar`] bit for bit, at every
    /// power of two to 2^17 and over signed zeros, subnormals and
    /// infinities. `tests/differential.rs` covers the dispatched [`fwht`].
    #[test]
    fn portable_body_bit_identical_to_scalar() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let specials = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            1e308,
            -1e308,
            f64::INFINITY,
        ];
        let mut rng = StdRng::seed_from_u64(0xFA57_0007);
        for n in (0..=17).map(|k| 1usize << k) {
            let random: Vec<f64> = (0..n).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect();
            let special: Vec<f64> = (0..n)
                .map(|_| specials[rng.random_range(0..specials.len())])
                .collect();
            for x in [random, special] {
                let mut fast = x.clone();
                let mut slow = x;
                fwht_blocked(&mut fast);
                fwht_scalar(&mut slow);
                let bits = |v: &[f64]| v.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fast), bits(&slow), "n = {n}");
            }
        }
    }

    /// The portable body on `i64` lanes, called directly, equals the
    /// textbook butterflies computed in `i128` — exactly, so no lane
    /// wrapped — at every power of two to 2^16, over random sums and over
    /// sums whose total magnitude is the largest HRR's prefix tables admit
    /// (`Σ|s|·D ≤ i64::MAX`). `tests/differential.rs` covers the
    /// dispatched [`fwht_i64`].
    #[test]
    fn portable_integer_body_is_the_textbook_transform() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xFA57_0008);
        for n in (0..=16).map(|k| 1usize << k) {
            let bound = i64::MAX / n as i64;
            let at_bound: Vec<i64> = (0..n)
                .map(|i| {
                    let share = bound / n as i64 + i64::from(i == 0) * (bound % n as i64);
                    if rng.random::<bool>() {
                        -share
                    } else {
                        share
                    }
                })
                .collect();
            let random: Vec<i64> = (0..n)
                .map(|_| rng.random_range(0..2000u64) as i64 - 1000)
                .collect();
            for x in [at_bound, random] {
                let mut want: Vec<i128> = x.iter().map(|&v| i128::from(v)).collect();
                let mut half = 1;
                while half < n {
                    for block in want.chunks_exact_mut(2 * half) {
                        let (lo, hi) = block.split_at_mut(half);
                        for (a, b) in lo.iter_mut().zip(hi) {
                            (*a, *b) = (*a + *b, *a - *b);
                        }
                    }
                    half *= 2;
                }
                let mut got = x;
                fwht_blocked(&mut got);
                assert!(
                    got.iter().zip(&want).all(|(&g, &w)| i128::from(g) == w),
                    "n = {n}"
                );
            }
        }
    }

    #[test]
    fn length_one_is_identity() {
        let mut x = vec![42.0];
        fwht(&mut x);
        assert_eq!(x, vec![42.0]);
        fwht_inverse(&mut x);
        assert_eq!(x, vec![42.0]);
    }
}
