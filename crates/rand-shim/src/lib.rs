//! A minimal, dependency-free drop-in for the subset of the `rand` 0.9 API
//! this workspace uses (the build environment is fully offline, so the real
//! crate cannot be fetched).
//!
//! Provided surface:
//!
//! * [`RngCore`] — object-safe raw-randomness source (`next_u32/u64`,
//!   `fill_bytes`), usable as `&mut dyn RngCore`.
//! * [`Rng`] — blanket extension with `random::<T>()` and
//!   `random_range(a..b)` over the integer/float types the workspace
//!   samples.
//! * [`SeedableRng`] + [`rngs::StdRng`] — a deterministic, seedable
//!   generator. The implementation is xoshiro256++ (Blackman & Vigna)
//!   seeded through SplitMix64; it passes the usual statistical batteries,
//!   which the workspace's unbiasedness tests rely on. The *stream* differs
//!   from upstream `StdRng` (ChaCha12) — upstream makes no cross-version
//!   stream guarantee either, and every test seeds explicitly.
//!
//! `StdRng` is deterministic and **not cryptographically secure**: its
//! whole future follows from 256 bits of state, and a few outputs reveal
//! it. It suits seeded tests, simulations and benchmarks; the privacy of a
//! deployed LDP client additionally rests on its randomness being
//! unpredictable to the aggregator, which this generator does not provide.
//!
//! Every bit of every [`RngCore::next_u64`] word is used as a fair coin:
//! the unary encoders' lane sampler decides 64 Bernoulli lanes from the
//! 64 bits of each word. xoshiro256++ supports that — all its output bits
//! pass the statistical batteries — whereas xoshiro256+ (whose lowest
//! bits are linear and fail them) would not.
//!
//! Integer ranges are sampled with Lemire's unbiased multiply-shift
//! rejection method; floats with the standard 53-bit mantissa trick.

use std::ops::{Range, RangeInclusive};

/// Object-safe source of raw random bits.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits (top half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// Types samplable uniformly from their "standard" distribution
/// (`[0, 1)` for floats, the full value range for integers).
pub trait StandardSample: Sized {
    /// Draws one value from `rng`.
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    #[inline]
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    #[inline]
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl StandardSample for u64 {
    #[inline]
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    #[inline]
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl StandardSample for usize {
    #[inline]
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

impl StandardSample for bool {
    #[inline]
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Unbiased `[0, n)` draw via Lemire's multiply-shift rejection.
#[inline]
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    // Accept x when the low 64 bits of x·n land at or above 2^64 mod n;
    // the high 64 bits are then exactly uniform over [0, n).
    let threshold = n.wrapping_neg() % n;
    loop {
        let m = u128::from(rng.next_u64()) * u128::from(n);
        if (m as u64) >= threshold {
            return (m >> 64) as u64;
        }
    }
}

/// Ranges samplable by [`Rng::random_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + uniform_below(rng, span) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample from empty range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full u64 domain.
                    return rng.next_u64() as $t;
                }
                lo + uniform_below(rng, span) as $t
            }
        }
    )*};
}

impl_int_range!(u32, u64, usize);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample from empty range");
        let u = f64::standard_sample(rng);
        self.start + (self.end - self.start) * u
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample from empty range");
        // Treating the closed interval as half-open is standard practice for
        // floats (the endpoint has measure zero).
        let u = f64::standard_sample(rng);
        lo + (hi - lo) * u
    }
}

/// Convenience extension over any [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value from the type's standard distribution.
    #[inline]
    fn random<T: StandardSample>(&mut self) -> T {
        T::standard_sample(self)
    }

    /// Draws a value uniformly from `range`.
    #[inline]
    fn random_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_from(self)
    }

    /// Returns `true` with probability `p`.
    #[inline]
    fn random_bool(&mut self, p: f64) -> bool {
        f64::standard_sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Deterministic construction from a seed.
pub trait SeedableRng: Sized {
    /// Raw seed type.
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64`, expanding it with SplitMix64 —
    /// the same convention upstream `rand` documents for this method.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            let word = splitmix64(&mut state);
            let bytes = word.to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Concrete generators.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256++.
    /// Not cryptographically secure (see the [crate docs](crate)).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, chunk) in seed.chunks_exact(8).enumerate() {
                s[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            if s.iter().all(|&w| w == 0) {
                // xoshiro must not start at the all-zero state.
                let mut x = 0xDEAD_BEEF_CAFE_F00Du64;
                for w in &mut s {
                    *w = splitmix64(&mut x);
                }
            }
            Self { s }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn seeding_is_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn unit_floats_are_uniform() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.random::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
        for _ in 0..10_000 {
            let u: f64 = rng.random();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn ranges_cover_and_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[rng.random_range(0usize..7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1_000 {
            let v = rng.random_range(5u64..6);
            assert_eq!(v, 5);
            let f = rng.random_range(-0.5f64..0.5);
            assert!((-0.5..0.5).contains(&f));
            let g = rng.random_range(0.0f64..=1.0);
            assert!((0.0..=1.0).contains(&g));
        }
    }

    #[test]
    fn integer_range_is_unbiased() {
        // Chi-square-ish sanity check over a small modulus.
        let mut rng = StdRng::seed_from_u64(3);
        let k = 13usize;
        let n = 130_000;
        let mut buckets = vec![0u32; k];
        for _ in 0..n {
            buckets[rng.random_range(0..k)] += 1;
        }
        let expect = n as f64 / k as f64;
        for (i, &b) in buckets.iter().enumerate() {
            let dev = (f64::from(b) - expect).abs() / expect;
            assert!(dev < 0.05, "bucket {i} deviates {dev}");
        }
    }

    #[test]
    fn dyn_rng_core_works() {
        let mut rng = StdRng::seed_from_u64(4);
        let dyn_rng: &mut dyn RngCore = &mut rng;
        let v: f64 = dyn_rng.random();
        assert!((0.0..1.0).contains(&v));
        assert!(dyn_rng.random_range(0u32..10) < 10);
    }

    #[test]
    fn fill_bytes_fills_everything() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut buf = [0u8; 37];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
