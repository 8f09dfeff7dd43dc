//! The aggregator state every frequency oracle shares: one integer
//! statistic per item and the number of reports behind them (paper §3.2).
//!
//! OUE and SUE count each item's noisy 1-bits, OLH counts the reports
//! supporting each item and HRR sums each Hadamard index's ±1 bits: sums
//! over reports, so two cohorts merge by adding and one retires by
//! subtracting, exactly. [`Tally`] is where that algebra — merge,
//! subtract, clear, the fused merge-and-clear drain, validated load and
//! the checkpoint body — is written.
//!
//! HRR's signed sums are stored in two's complement, so one wrapping add
//! and one wrapping subtract serve every oracle with no per-item branch.
//! Signedness matters only where statistics are checked or encoded: a
//! count is at most the report total and can witness a subtract that
//! takes it below zero; a sum's magnitude is at most the report total,
//! and a sum witnesses nothing.

use crate::OracleError;

/// Appends one LEB128 varint (at most 10 bytes): the one varint writer
/// of the workspace, behind tally bodies, report frames, session
/// messages, WAL records and checkpoints.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// A two's-complement sum's zigzag code: small magnitudes of either sign
/// get short varints.
fn zigzag(s: u64) -> u64 {
    (s << 1) ^ ((s as i64 >> 63) as u64)
}

fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ 0u64.wrapping_sub(z & 1)
}

/// Checks that `bound · items`, a bound on the magnitude of every entry
/// of a prefix over `items` statistics each at most `bound` in
/// magnitude, fits `i64`.
pub(crate) fn fits_i64(bound: u64, items: usize) -> Result<(), OracleError> {
    let fits = u128::from(bound) * items as u128 <= i64::MAX as u128;
    if fits {
        Ok(())
    } else {
        Err(OracleError::StatisticOverflow)
    }
}

/// Adds each statistic of `from` into `into` and zeroes it where it was
/// read: the one pass of every drain with nothing pending.
pub(crate) fn add_and_zero(into: &mut [u64], from: &mut [u64]) {
    for (a, b) in into.iter_mut().zip(from) {
        *a = a.wrapping_add(std::mem::take(b));
    }
}

/// One oracle's statistics and report total ([`crate::PointOracle::tally`]).
/// Combining two assumes their oracles share a configuration, which the
/// caller checks first ([`crate::PointOracle::ensure_same`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tally {
    /// One statistic per item; HRR's signed sums in two's complement.
    pub(crate) stats: Vec<u64>,
    pub(crate) reports: u64,
    /// Whether `stats` are signed sums rather than counts.
    signed: bool,
}

impl Tally {
    /// An empty tally of `len` unsigned counts.
    pub(crate) fn counts(len: usize) -> Self {
        Self {
            stats: vec![0; len],
            reports: 0,
            signed: false,
        }
    }

    /// An empty tally of `len` signed sums.
    pub(crate) fn sums(len: usize) -> Self {
        Self {
            signed: true,
            ..Self::counts(len)
        }
    }

    /// One statistic per item: a count, or a signed sum in two's
    /// complement (`s as i64`).
    pub(crate) fn stats(&self) -> &[u64] {
        &self.stats
    }

    /// Adds another cohort's tally.
    pub fn merge(&mut self, other: &Self) {
        debug_assert!(self.same_shape(other));
        for (a, &b) in self.stats.iter_mut().zip(&other.stats) {
            *a = a.wrapping_add(b);
        }
        self.reports += other.reports;
    }

    /// Moves another cohort's tally into this one — [`Tally::merge`] then
    /// [`Tally::clear`] of `other`, in one pass that adds each statistic
    /// and zeroes it where it was read; the report total moves here. What
    /// an oracle with nothing pending does when a service drains a shard
    /// into its accumulator ([`crate::PointOracle::drain`]).
    pub fn drain(&mut self, other: &mut Self) {
        debug_assert!(self.same_shape(other));
        self.reports += std::mem::take(&mut other.reports);
        add_and_zero(&mut self.stats, &mut other.stats);
    }

    /// Checks, changing nothing, that `other` could have been merged in:
    /// its report total, and for counts each count, is not above this
    /// tally's.
    ///
    /// # Errors
    ///
    /// [`OracleError::SubtractUnderflow`] when it could not.
    pub fn check_subtract(&self, other: &Self) -> Result<(), OracleError> {
        debug_assert!(self.same_shape(other));
        let underflow = self.reports < other.reports
            || (!self.signed && self.stats.iter().zip(&other.stats).any(|(a, b)| a < b));
        if underflow {
            Err(OracleError::SubtractUnderflow)
        } else {
            Ok(())
        }
    }

    /// Subtracts `other`, which [`Tally::check_subtract`] accepted: the
    /// exact inverse of [`Tally::merge`].
    pub fn apply_subtract(&mut self, other: &Self) {
        debug_assert!(self.same_shape(other));
        for (a, &b) in self.stats.iter_mut().zip(&other.stats) {
            *a = a.wrapping_sub(b);
        }
        self.reports -= other.reports;
    }

    /// [`Tally::check_subtract`], then [`Tally::apply_subtract`];
    /// unchanged on error.
    pub(crate) fn subtract(&mut self, other: &Self) -> Result<(), OracleError> {
        self.check_subtract(other)?;
        self.apply_subtract(other);
        Ok(())
    }

    /// The running prefix of the counts, for
    /// [`crate::PointOracle::statistic_prefix_into`]: `out[0] = 0` and
    /// `out[z + 1]` the sum of the first `z + 1` counts. Every count is at
    /// most the report total `N` (what every absorb keeps and every load
    /// checks), so every prefix is at most `N·D`; that bound is checked
    /// once, before the pass.
    ///
    /// # Errors
    ///
    /// [`OracleError::StatisticOverflow`] when `N·D` exceeds `i64::MAX`.
    pub(crate) fn count_prefix_into(&self, out: &mut [i64]) -> Result<(), OracleError> {
        debug_assert!(!self.signed, "signed sums have no count prefix");
        assert_eq!(out.len(), self.stats.len() + 1, "prefix buffer != D + 1");
        fits_i64(self.reports, self.stats.len())?;
        let (first, rest) = out.split_at_mut(1);
        first[0] = 0;
        let mut acc = 0i64;
        for (slot, &c) in rest.iter_mut().zip(&self.stats) {
            acc += c as i64;
            *slot = acc;
        }
        Ok(())
    }

    /// Resets to the empty tally in place, without reallocating.
    pub fn clear(&mut self) {
        self.stats.fill(0);
        self.reports = 0;
    }

    /// Replaces the state with persisted statistics, if some report
    /// sequence could have produced them: [`OracleError::InvalidState`],
    /// unchanged, when `stats` is not one per item, or a count (or a sum's
    /// magnitude) is above `reports`.
    fn load(&mut self, stats: Vec<u64>, reports: u64) -> Result<(), OracleError> {
        if stats.len() != self.stats.len() {
            return Err(OracleError::InvalidState("statistics length != domain"));
        }
        let possible = if self.signed {
            stats.iter().all(|&s| (s as i64).unsigned_abs() <= reports)
        } else {
            stats.iter().all(|&c| c <= reports)
        };
        if !possible {
            return Err(OracleError::InvalidState("statistic above report total"));
        }
        self.stats = stats;
        self.reports = reports;
        Ok(())
    }

    /// Appends the checkpoint body: `reports`, then each statistic, as
    /// varints — zigzag-coded for signed sums.
    pub fn encode(&self, out: &mut Vec<u8>) {
        fn put_all(out: &mut Vec<u8>, stats: &[u64], code: impl Fn(u64) -> u64) {
            for &s in stats {
                put_varint(out, code(s));
            }
        }
        put_varint(out, self.reports);
        if self.signed {
            put_all(out, &self.stats, zigzag);
        } else {
            put_all(out, &self.stats, |c| c);
        }
    }

    /// Reads a body [`Tally::encode`] wrote for a tally of this shape,
    /// pulling each varint from `next`, then loads it if some report
    /// sequence could have produced it: one statistic per item, each
    /// count (or sum's magnitude) at most the report total. A short body
    /// fails in `next` before anything is checked.
    ///
    /// # Errors
    ///
    /// The outer error is `next`'s; the inner one is
    /// [`OracleError::InvalidState`] for impossible statistics. Unchanged
    /// on either.
    pub fn decode<E>(
        &mut self,
        mut next: impl FnMut() -> Result<u64, E>,
    ) -> Result<Result<(), OracleError>, E> {
        let reports = next()?;
        let code = if self.signed { unzigzag } else { |c| c };
        // Sized by this tally, never by the bytes.
        let mut stats = Vec::with_capacity(self.stats.len());
        for _ in 0..self.stats.len() {
            stats.push(code(next()?));
        }
        Ok(self.load(stats, reports))
    }

    fn same_shape(&self, other: &Self) -> bool {
        self.stats.len() == other.stats.len() && self.signed == other.signed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(signed: bool, stats: &[i64], reports: u64) -> Tally {
        let mut t = if signed {
            Tally::sums(stats.len())
        } else {
            Tally::counts(stats.len())
        };
        t.load(stats.iter().map(|&s| s as u64).collect(), reports)
            .unwrap();
        t
    }

    /// Decodes `bytes` into an empty tally shaped like `shape`.
    fn decoded(shape: &Tally, bytes: &[u8]) -> Result<Result<Tally, OracleError>, &'static str> {
        let mut out = shape.clone();
        out.clear();
        let mut rest = bytes;
        let result = out.decode(|| {
            let mut v = 0u64;
            for shift in (0..64).step_by(7) {
                let (&byte, tail) = rest.split_first().ok_or("truncated")?;
                rest = tail;
                v |= u64::from(byte & 0x7f) << shift;
                if byte & 0x80 == 0 {
                    return Ok(v);
                }
            }
            Err("overlong")
        })?;
        assert!(rest.is_empty(), "body not fully read");
        Ok(result.map(|()| out))
    }

    #[test]
    fn merge_then_subtract_is_the_identity() {
        for (signed, a, b) in [
            (false, vec![3, 0, 7, 1], vec![2, 5, 0, 1]),
            (true, vec![-3, 0, 7, 1], vec![2, -5, 0, -1]),
        ] {
            let base = tally(signed, &a, 9);
            let other = tally(signed, &b, 6);
            let mut merged = base.clone();
            merged.merge(&other);
            assert_eq!(merged.reports, 15);
            let sums: Vec<u64> = a.iter().zip(&b).map(|(x, y)| (x + y) as u64).collect();
            assert_eq!(merged.stats(), &sums[..]);
            merged.subtract(&other).unwrap();
            assert_eq!(merged, base, "signed={signed}");
        }
    }

    #[test]
    fn refused_subtract_leaves_the_tally_unchanged() {
        // A report total above this one's, for either kind.
        for signed in [false, true] {
            let mut base = tally(signed, &[1, 1], 2);
            let before = base.clone();
            assert_eq!(
                base.subtract(&tally(signed, &[0, 0], 3)),
                Err(OracleError::SubtractUnderflow)
            );
            assert_eq!(base, before);
        }
        // One count above this one's, report totals equal: counts refuse
        // it, signed sums cannot witness it and go negative exactly.
        let mut counts = tally(false, &[2, 0, 1], 2);
        let before = counts.clone();
        assert_eq!(
            counts.subtract(&tally(false, &[1, 1, 0], 2)),
            Err(OracleError::SubtractUnderflow)
        );
        assert_eq!(counts, before);
        let mut sums = tally(true, &[2, 0, 1], 2);
        sums.subtract(&tally(true, &[1, 1, 0], 2)).unwrap();
        assert_eq!(sums.stats(), [1, (-1i64) as u64, 1]);
        assert_eq!(sums.reports, 0);
    }

    #[test]
    fn clear_is_the_empty_tally() {
        for signed in [false, true] {
            let mut t = tally(signed, &[1, 0, 1], 4);
            t.clear();
            assert_eq!(t, tally(signed, &[0, 0, 0], 0));
        }
    }

    /// A tally of `len` statistics, every one nonzero where it can be:
    /// counts up to the report total, sums of either sign.
    fn filled(signed: bool, len: usize, seed: i64, reports: u64) -> Tally {
        let stats: Vec<i64> = (0..len as i64)
            .map(|i| {
                let v = (i * 7 + seed) % (reports as i64 + 1);
                if signed && (i + seed) % 3 == 0 {
                    -v
                } else {
                    v
                }
            })
            .collect();
        tally(signed, &stats, reports)
    }

    #[test]
    fn drain_is_merge_then_clear() {
        for signed in [false, true] {
            for len in [0, 1, 7, 8, 9, 65_535] {
                for (mine, theirs) in [
                    (filled(signed, len, 3, 40), filled(signed, len, 5, 25)),
                    (filled(signed, len, 0, 0), filled(signed, len, 11, 9)),
                    (filled(signed, len, 2, 17), filled(signed, len, 0, 0)),
                ] {
                    let mut expected = mine.clone();
                    expected.merge(&theirs);
                    let mut drained = mine;
                    let mut shard = theirs;
                    drained.drain(&mut shard);
                    let at = format!("signed={signed} len={len}");
                    assert_eq!(drained.stats(), expected.stats(), "{at}");
                    assert_eq!(drained.reports, expected.reports, "{at}");
                    assert_eq!(drained, expected, "{at}");
                    let empty = if signed {
                        Tally::sums(len)
                    } else {
                        Tally::counts(len)
                    };
                    assert_eq!(shard, empty, "{at}: drained side not empty");
                    assert_eq!(shard.reports, 0, "{at}");
                }
            }
        }
        // Negative sums cross zero both ways and still add exactly.
        let mut acc = tally(true, &[-5, 3, 0, i64::MIN + 1], u64::MAX >> 1);
        let mut shard = tally(true, &[5, -4, -2, -1], 6);
        acc.drain(&mut shard);
        assert_eq!(
            acc.stats(),
            [0, (-1i64) as u64, (-2i64) as u64, i64::MIN as u64]
        );
        assert_eq!(acc.reports, (u64::MAX >> 1) + 6);
        assert_eq!(shard, Tally::sums(4));
    }

    #[test]
    fn load_checks_every_rule_and_refuses_without_change() {
        let check = |signed: bool, stats: &[i64], reports: u64, why: Option<&'static str>| {
            let mut t = tally(signed, &[1, 0, 0], 1);
            let before = t.clone();
            let result = t.load(stats.iter().map(|&s| s as u64).collect(), reports);
            match why {
                None => {
                    assert_eq!(result, Ok(()));
                    assert_eq!(t.reports, reports);
                }
                Some(why) => {
                    assert_eq!(result, Err(OracleError::InvalidState(why)));
                    assert_eq!(t, before);
                }
            }
        };
        for signed in [false, true] {
            check(signed, &[0, 0], 0, Some("statistics length != domain"));
            check(
                signed,
                &[0, 0, 0, 0],
                5,
                Some("statistics length != domain"),
            );
            check(signed, &[3, 0, 3], 3, None);
            check(signed, &[4, 0, 0], 3, Some("statistic above report total"));
        }
        // Counts: a "negative" count is a huge one.
        check(false, &[-1, 0, 0], 3, Some("statistic above report total"));
        // Sums: the magnitude is bounded, either sign, up to i64::MIN.
        check(true, &[-3, 3, 0], 3, None);
        check(true, &[0, -4, 0], 3, Some("statistic above report total"));
        check(true, &[i64::MIN, i64::MAX, 0], u64::MAX, None);
        check(
            true,
            &[i64::MIN, 0, 0],
            1 << 62,
            Some("statistic above report total"),
        );
    }

    #[test]
    fn codec_writes_the_checkpoint_body_bytes() {
        // Counts: reports, then each count.
        let counts = tally(false, &[2, 0, 300], 300);
        let mut bytes = Vec::new();
        counts.encode(&mut bytes);
        assert_eq!(bytes, [0xAC, 0x02, 0x02, 0x00, 0xAC, 0x02]);
        assert_eq!(decoded(&counts, &bytes), Ok(Ok(counts)));

        // Sums: zigzag, +2 → 4, −1 → 1, −64 → 127.
        let sums = tally(true, &[2, -1, -64], 64);
        let mut bytes = Vec::new();
        sums.encode(&mut bytes);
        assert_eq!(bytes, [0x40, 0x04, 0x01, 0x7F]);
        assert_eq!(decoded(&sums, &bytes), Ok(Ok(sums)));

        // The extremes survive the zigzag.
        let extremes = tally(true, &[0, 1, -1, i64::MAX, i64::MIN], u64::MAX);
        let mut bytes = Vec::new();
        extremes.encode(&mut bytes);
        assert_eq!(decoded(&extremes, &bytes), Ok(Ok(extremes)));
    }

    #[test]
    fn decode_refuses_short_and_impossible_bodies() {
        let shape = Tally::counts(3);
        for cut in 0..4 {
            assert_eq!(
                decoded(&shape, &[0x01, 0x00, 0x01, 0x00][..cut]),
                Err("truncated")
            );
        }
        assert_eq!(
            decoded(&shape, &[0x01, 0x02, 0x00, 0x00]),
            Ok(Err(OracleError::InvalidState(
                "statistic above report total"
            )))
        );
        // |−2| > 1 report; zigzag(−2) = 3.
        assert_eq!(
            decoded(&Tally::sums(3), &[0x01, 0x00, 0x03, 0x00]),
            Ok(Err(OracleError::InvalidState(
                "statistic above report total"
            )))
        );
    }
}
