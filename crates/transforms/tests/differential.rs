//! Differential suite: the blocked/vectorized FWHT against its retained
//! scalar oracle, **bit for bit**, and the Haar transforms and pyramid
//! against their defining identities at every size.
//!
//! The optimized FWHT runs every pass with a span under 2048 lanes inside
//! one resident 2048-lane chunk (a radix-8 base case, then radix-4
//! passes) and the longer passes in radix-4 pairs with a trailing radix-2
//! pass. Every butterfly still combines exactly the same two operands in
//! the same order — each `(i, i + half)` pair is disjoint from every
//! other pair of its pass, and a fused pass reads exactly what the pass
//! before it wrote — so the computation DAG is unchanged and IEEE-754
//! determinism makes the outputs identical, not merely close. The FWHT
//! oracle rows therefore compare `to_bits()`, with no tolerance.

use ldp_transforms::{fwht, fwht_i64, fwht_scalar, haar_forward, haar_inverse, HaarPyramid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The inverse transform `x ← (1/D)·φ·x`: [`fwht`], then divide by `D`.
fn fwht_inverse(data: &mut [f64]) {
    fwht(data);
    let scale = 1.0 / data.len() as f64;
    data.iter_mut().for_each(|v| *v *= scale);
}

/// Every power of two from 1 to 2^17. For the FWHT that covers sizes
/// under the radix-8 base case (1, 2, 4), single-block sizes with an even
/// and an odd count of radix-4 passes (8..2048, 2048 being one full
/// block), and many-block sizes whose long passes run as a trailing
/// radix-2 pass alone (2^12), radix-4 pairs only (2^13, 2^15, 2^17) or
/// pairs plus the trailing radix-2 pass (2^14, 2^16).
fn sizes() -> Vec<usize> {
    (0..=17).map(|k| 1usize << k).collect()
}

fn random_vec(rng: &mut StdRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.random::<f64>() * 2.0 - 1.0).collect()
}

fn assert_bits_eq(fast: &[f64], slow: &[f64], what: &str, n: usize) {
    assert_eq!(fast.len(), slow.len(), "{what}: length mismatch at n={n}");
    for (i, (a, b)) in fast.iter().zip(slow.iter()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: bit mismatch at n={n}, index {i}: {a} vs {b}"
        );
    }
}

#[test]
fn fwht_bit_identical_to_scalar_oracle() {
    let mut rng = StdRng::seed_from_u64(0xFA57_0001);
    for n in sizes() {
        for _ in 0..4 {
            let x = random_vec(&mut rng, n);
            let mut fast = x.clone();
            let mut slow = x;
            fwht(&mut fast);
            fwht_scalar(&mut slow);
            assert_bits_eq(&fast, &slow, "fwht", n);
        }
    }
}

#[test]
fn fwht_inverse_roundtrips_through_blocked_forward() {
    let mut rng = StdRng::seed_from_u64(0xFA57_0002);
    for n in sizes() {
        let x = random_vec(&mut rng, n);
        let mut y = x.clone();
        fwht(&mut y);
        fwht_inverse(&mut y);
        for (a, b) in x.iter().zip(y.iter()) {
            assert!((a - b).abs() < 1e-9, "roundtrip at n={n}: {a} vs {b}");
        }
    }
}

#[test]
fn fwht_adversarial_values_still_bit_identical() {
    // Signed zeros, subnormals, extreme magnitudes, and infinities: even
    // where the arithmetic saturates or underflows, both paths must take
    // the identical IEEE path.
    let specials = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        f64::MIN_POSITIVE / 4.0,
        1e308,
        -1e308,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.0,
        -1.0,
        std::f64::consts::PI,
    ];
    let mut rng = StdRng::seed_from_u64(0xFA57_0003);
    for n in [4usize, 64, 128, 1024, 4096, 8192] {
        let x: Vec<f64> = (0..n)
            .map(|_| specials[rng.random_range(0..specials.len())])
            .collect();
        let mut fast = x.clone();
        let mut slow = x;
        fwht(&mut fast);
        fwht_scalar(&mut slow);
        assert_bits_eq(&fast, &slow, "fwht specials", n);
    }
}

/// The textbook integer butterflies, in `i128` so that no intermediate
/// can wrap: the oracle the dispatched [`fwht_i64`] must equal exactly.
fn fwht_i128_textbook(data: &mut [i128]) {
    let mut half = 1;
    while half < data.len() {
        for block in data.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            for (a, b) in lo.iter_mut().zip(hi) {
                (*a, *b) = (*a + *b, *a - *b);
            }
        }
        half *= 2;
    }
}

/// The integer transform — the AVX2 build on a host that reports AVX2,
/// the portable one elsewhere — equals the textbook integer butterflies
/// exactly at every power of two from 1 to 2^16: over small random sums,
/// over sums of one sign whose total magnitude is the largest HRR's
/// prefix tables admit (`Σ|s|·D ≤ i64::MAX`, where the first output is
/// that total), and over mixed signs at the same bound.
#[test]
fn fwht_i64_is_the_textbook_integer_transform() {
    let mut rng = StdRng::seed_from_u64(0xFA57_0009);
    for n in (0..=16).map(|k| 1usize << k) {
        let bound = i64::MAX / n as i64;
        let share = |i: usize| bound / n as i64 + i64::from(i == 0) * (bound % n as i64);
        let inputs: [Vec<i64>; 4] = [
            (0..n)
                .map(|_| rng.random_range(0..1u64 << 21) as i64 - (1 << 20))
                .collect(),
            (0..n).map(share).collect(),
            (0..n).map(|i| -share(i)).collect(),
            (0..n)
                .map(|i| {
                    if rng.random::<bool>() {
                        share(i)
                    } else {
                        -share(i)
                    }
                })
                .collect(),
        ];
        for (k, x) in inputs.into_iter().enumerate() {
            let mut want: Vec<i128> = x.iter().map(|&v| i128::from(v)).collect();
            fwht_i128_textbook(&mut want);
            let mut got = x;
            fwht_i64(&mut got);
            for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(i128::from(g), w, "input {k}, n={n}, index {i}");
            }
        }
    }
}

/// At every size up to 2^17: the orthonormal transform inverts, and the
/// sum/difference pyramid of a vector gives back its leaves and answers
/// every sampled range (and the whole domain and both end points) as
/// the prefix sums of the vector do.
#[test]
fn haar_roundtrip_through_buffered_paths() {
    let mut rng = StdRng::seed_from_u64(0xFA57_0006);
    for n in sizes() {
        let x = random_vec(&mut rng, n);
        let y = haar_inverse(&haar_forward(&x));
        for (a, b) in x.iter().zip(y.iter()) {
            assert!((a - b).abs() < 1e-9, "haar roundtrip at n={n}");
        }
        let pyramid = HaarPyramid::from_leaves(&x);
        for (i, (a, b)) in x.iter().zip(pyramid.leaves().iter()).enumerate() {
            assert!((a - b).abs() < 1e-9, "pyramid leaf {i} at n={n}");
        }
        let prefix: Vec<f64> = std::iter::once(0.0)
            .chain(x.iter().scan(0.0, |acc, &v| {
                *acc += v;
                Some(*acc)
            }))
            .collect();
        let sampled = (0..64).map(|_| {
            let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
            (a.min(b), a.max(b))
        });
        for (a, b) in [(0, n - 1), (0, 0), (n - 1, n - 1)]
            .into_iter()
            .chain(sampled)
        {
            let want = prefix[b + 1] - prefix[a];
            let got = pyramid.range_sum(a, b);
            assert!(
                (got - want).abs() < 1e-9,
                "pyramid range [{a}, {b}] at n={n}: {got} vs {want}"
            );
        }
    }
}
