//! Exact serialization of server state — the substrate of durable
//! storage.
//!
//! Every mechanism server is a pure function of (a) its immutable
//! configuration and (b) the integer sufficient statistics its oracles
//! have accumulated. A checkpoint therefore needs to serialize only (b):
//! restoring those integers into a *fresh server built from the same
//! configuration* reproduces the original state bit for bit — estimates,
//! report counts, merge behavior, everything. [`PersistableServer`]
//! captures that contract for the three mechanisms `ldp-service` serves
//! (flat, `HH_B`, HaarHRR), the same way [`MergeableServer`] captures
//! exact merging.
//!
//! ## Format
//!
//! The encoding is deliberately minimal and prototype-driven: no domain
//! sizes, level counts, or probabilities are written, because the
//! restoring side already knows them from its prototype. What is written:
//!
//! ```text
//! server_state  := oracle_state × (number of oracles, from prototype)
//! oracle_state  := tagged for AnyOracle:  tag(1B)  body
//!                  untagged for Oue/Hrr:  body
//! body          := reports:varint  stat:varint × domain        (counts)
//!                | reports:varint  zigzag:varint × domain      (±1 sums)
//! ```
//!
//! Each `body` is one level oracle's [`ldp_freq_oracle::Tally`], which
//! writes and reads it ([`ldp_freq_oracle::Tally::encode`] /
//! [`ldp_freq_oracle::Tally::decode`]) and holds its load rules: one
//! statistic per item, each count (or sum's magnitude) at most the report
//! total. This module only walks a server's level oracles — the flat
//! server is one level, `HH_B` has one per depth and HaarHRR one per
//! detail level — and frames each body: behind its kind's
//! [`FrequencyOracle::tag`] for flat and `HH_B`, bare for HaarHRR, whose
//! levels are all HRR.
//!
//! Decoding is *total*: truncated or inconsistent bytes produce
//! [`RangeError::CorruptState`], never a panic, and every allocation is
//! sized by the prototype (never by attacker-controlled lengths). On any
//! error the server under restoration must be discarded — partial
//! restores are not rolled back.

use ldp_freq_oracle::{FrequencyOracle, PointOracle};

use crate::error::RangeError;
use crate::flat::FlatServer;
use crate::haar::HaarHrrServer;
use crate::hh::HhServer;
use crate::mergeable::MergeableServer;

pub use ldp_freq_oracle::put_varint;

/// Bounds-checked cursor over persisted state bytes.
///
/// Every read is total: running past the end or hitting a malformed
/// varint yields [`RangeError::CorruptState`], never a panic.
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// Wraps a buffer, starting at offset 0.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes left to read.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Fails at end of buffer.
    pub fn u8(&mut self) -> Result<u8, RangeError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(RangeError::CorruptState("truncated state bytes"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads one LEB128 varint in its shortest form.
    ///
    /// # Errors
    ///
    /// Fails on truncation, 64-bit overflow or a multi-byte encoding ending in `0x00`.
    pub fn varint(&mut self) -> Result<u64, RangeError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = u64::from(byte & 0x7f);
            if shift == 63 && bits > 1 {
                return Err(RangeError::CorruptState("varint overflows 64 bits"));
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return (byte != 0 || shift == 0)
                    .then_some(v)
                    .ok_or(RangeError::CorruptState("varint not in its shortest form"));
            }
        }
        Err(RangeError::CorruptState("varint overflows 64 bits"))
    }
}

/// A server whose accumulated state can be serialized and later restored
/// bit-identically into a fresh server of the same configuration.
///
/// # Contract
///
/// For any server `s` and a prototype `p` built from the same
/// configuration (`p` freshly constructed, no reports absorbed):
///
/// ```text
/// let mut bytes = Vec::new();
/// s.persist_state(&mut bytes);
/// let mut r = p.clone();
/// r.restore_state(&mut StateReader::new(&bytes))?;
/// // r is bit-identical to s: same num_reports, same estimates
/// // (to_bits() equality), same merge/subtract behavior.
/// ```
///
/// `restore_state` reads exactly the bytes `persist_state` wrote and
/// *replaces* the accumulated statistics (it does not merge). It
/// validates the bytes against the prototype's shape and the statistics'
/// integer invariants; on error the server must be discarded, since a
/// multi-oracle restore is not rolled back.
pub trait PersistableServer: MergeableServer {
    /// Appends this server's complete mutable state to `out`.
    fn persist_state(&self, out: &mut Vec<u8>);

    /// Replaces this server's state with previously persisted bytes.
    ///
    /// # Errors
    ///
    /// [`RangeError::CorruptState`] on truncated, misshapen, or
    /// impossible statistics. The server is in an unspecified (but
    /// memory-safe) state after an error — discard it.
    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), RangeError>;
}

/// Appends each level's tally body ([`ldp_freq_oracle::Tally::encode`]),
/// after its kind's tag when `tagged` — the one persist body of every
/// server.
fn persist_tallies<O: PointOracle>(out: &mut Vec<u8>, levels: &[O], tagged: bool) {
    for level in levels {
        if tagged {
            out.push(level.kind().tag());
        }
        level.tally().encode(out);
    }
}

/// Replaces each level's tally with the next body in `r`, after checking
/// its tag names the level's kind when `tagged` — the one restore body of
/// every server.
fn restore_tallies<O: PointOracle>(
    r: &mut StateReader<'_>,
    levels: &mut [O],
    tagged: bool,
) -> Result<(), RangeError> {
    for level in levels {
        let kind = level.kind();
        if tagged && r.u8()? != kind.tag() {
            return Err(RangeError::CorruptState(
                "oracle tag does not match prototype kind",
            ));
        }
        level
            .tally_mut()
            .decode(|| r.varint())?
            .map_err(|_| RangeError::CorruptState(impossible(kind)))?;
    }
    Ok(())
}

/// Why a restore refuses statistics no report sequence could produce.
fn impossible(kind: FrequencyOracle) -> &'static str {
    match kind {
        FrequencyOracle::Oue => "impossible OUE counts",
        FrequencyOracle::Olh => "impossible OLH support",
        FrequencyOracle::Hrr => "impossible HRR sums",
        FrequencyOracle::Sue => "impossible SUE counts",
    }
}

// --- server impls ------------------------------------------------------

impl PersistableServer for FlatServer {
    fn persist_state(&self, out: &mut Vec<u8>) {
        persist_tallies(out, self.oracles(), true);
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), RangeError> {
        restore_tallies(r, self.oracles_mut(), true)
    }
}

impl PersistableServer for HhServer {
    fn persist_state(&self, out: &mut Vec<u8>) {
        persist_tallies(out, self.oracles(), true);
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), RangeError> {
        restore_tallies(r, self.oracles_mut(), true)
    }
}

impl PersistableServer for HaarHrrServer {
    fn persist_state(&self, out: &mut Vec<u8>) {
        persist_tallies(out, self.oracles(), false);
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), RangeError> {
        restore_tallies(r, self.oracles_mut(), false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FlatConfig, HaarConfig, HhConfig};
    use crate::estimate::RangeEstimate;
    use crate::flat::FlatClient;
    use crate::haar::HaarHrrClient;
    use crate::hh::HhClient;
    use ldp_freq_oracle::{Epsilon, FrequencyOracle};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn roundtrip<S, E>(server: &S, prototype: &S, estimate: E)
    where
        S: PersistableServer,
        E: Fn(&S) -> Vec<f64>,
    {
        let mut bytes = Vec::new();
        server.persist_state(&mut bytes);
        let mut restored = prototype.clone();
        let mut r = StateReader::new(&bytes);
        restored.restore_state(&mut r).expect("restore");
        assert_eq!(r.remaining(), 0, "state bytes not fully consumed");
        assert_eq!(restored.num_reports(), server.num_reports());
        for (a, b) in estimate(server).iter().zip(&estimate(&restored)) {
            assert!(
                a.to_bits() == b.to_bits(),
                "restored estimate differs: {a} vs {b}"
            );
        }
        // Every truncation prefix must error, never panic.
        for cut in 0..bytes.len() {
            let mut fresh = prototype.clone();
            let _ = fresh.restore_state(&mut StateReader::new(&bytes[..cut]));
        }
    }

    #[test]
    fn flat_roundtrips_every_oracle() {
        let mut rng = StdRng::seed_from_u64(601);
        for kind in [
            FrequencyOracle::Oue,
            FrequencyOracle::Olh,
            FrequencyOracle::Hrr,
            FrequencyOracle::Sue,
        ] {
            let config = FlatConfig::with_oracle(32, Epsilon::new(1.1), kind).unwrap();
            let client = FlatClient::new(&config).unwrap();
            let prototype = FlatServer::new(&config).unwrap();
            let mut server = prototype.clone();
            for i in 0..300 {
                MergeableServer::absorb(&mut server, &client.report(i % 32, &mut rng).unwrap())
                    .unwrap();
            }
            roundtrip(&server, &prototype, |s: &FlatServer| {
                s.estimate().frequencies().to_vec()
            });
        }
    }

    #[test]
    fn hh_families_roundtrip() {
        let mut rng = StdRng::seed_from_u64(602);
        let config = HhConfig::new(64, 4, Epsilon::from_exp(3.0)).unwrap();

        let client = HhClient::new(config.clone()).unwrap();
        let prototype = HhServer::new(config.clone()).unwrap();
        let mut server = prototype.clone();
        for i in 0..400 {
            MergeableServer::absorb(&mut server, &client.report(i % 64, &mut rng).unwrap())
                .unwrap();
        }
        roundtrip(&server, &prototype, |s: &HhServer| {
            s.estimate_consistent().to_frequency_estimate().cdf()
        });
    }

    #[test]
    fn haar_families_roundtrip() {
        let mut rng = StdRng::seed_from_u64(603);
        let config = HaarConfig::new(64, Epsilon::new(1.1)).unwrap();

        let client = HaarHrrClient::new(config.clone()).unwrap();
        let prototype = HaarHrrServer::new(config.clone()).unwrap();
        let mut server = prototype.clone();
        for i in 0..400 {
            MergeableServer::absorb(&mut server, &client.report(i % 64, &mut rng).unwrap())
                .unwrap();
        }
        roundtrip(&server, &prototype, |s: &HaarHrrServer| {
            s.estimate().to_frequency_estimate().cdf()
        });
    }

    #[test]
    fn corrupt_state_is_rejected_not_panicked() {
        let mut rng = StdRng::seed_from_u64(605);
        let config = FlatConfig::new(16, Epsilon::new(1.1)).unwrap();
        let client = FlatClient::new(&config).unwrap();
        let prototype = FlatServer::new(&config).unwrap();
        let mut server = prototype.clone();
        for i in 0..50 {
            MergeableServer::absorb(&mut server, &client.report(i % 16, &mut rng).unwrap())
                .unwrap();
        }
        let mut bytes = Vec::new();
        server.persist_state(&mut bytes);

        // Wrong oracle tag.
        let mut wrong_tag = bytes.clone();
        wrong_tag[0] = FrequencyOracle::Hrr.tag();
        assert!(matches!(
            prototype
                .clone()
                .restore_state(&mut StateReader::new(&wrong_tag)),
            Err(RangeError::CorruptState(_))
        ));

        // A count above the report total is impossible.
        let mut impossible = vec![FrequencyOracle::Oue.tag()];
        put_varint(&mut impossible, 3); // reports
        for _ in 0..16 {
            put_varint(&mut impossible, 1000); // counts > reports
        }
        assert!(matches!(
            prototype
                .clone()
                .restore_state(&mut StateReader::new(&impossible)),
            Err(RangeError::CorruptState(_))
        ));

        // Arbitrary byte soup never panics.
        for seed in 0..32u8 {
            let soup: Vec<u8> = (0..64)
                .map(|i| seed.wrapping_mul(31).wrapping_add(i))
                .collect();
            let _ = prototype
                .clone()
                .restore_state(&mut StateReader::new(&soup));
        }
    }

    /// Signed sums at the extremes survive the zigzag body: a flat HRR
    /// state restored from them persists back to the same bytes.
    #[test]
    fn zigzag_roundtrips_extremes() {
        let config = FlatConfig::with_oracle(8, Epsilon::new(1.1), FrequencyOracle::Hrr).unwrap();
        let prototype = FlatServer::new(&config).unwrap();
        let mut bytes = vec![FrequencyOracle::Hrr.tag()];
        put_varint(&mut bytes, u64::MAX); // reports
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, 0] {
            put_varint(&mut bytes, ((v << 1) ^ (v >> 63)) as u64);
        }
        let mut restored = prototype.clone();
        let mut r = StateReader::new(&bytes);
        restored.restore_state(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(restored.num_reports(), u64::MAX);
        let mut again = Vec::new();
        restored.persist_state(&mut again);
        assert_eq!(again, bytes);
    }

    #[test]
    fn restored_state_merges_and_subtracts_exactly() {
        // A restored server is not a lookalike — it participates in the
        // exact-merge algebra identically to the original.
        let mut rng = StdRng::seed_from_u64(606);
        let config = HhConfig::new(64, 4, Epsilon::new(1.1)).unwrap();
        let client = HhClient::new(config.clone()).unwrap();
        let prototype = HhServer::new(config).unwrap();
        let mut a = prototype.clone();
        let mut b = prototype.clone();
        for i in 0..200 {
            MergeableServer::absorb(&mut a, &client.report(i % 64, &mut rng).unwrap()).unwrap();
            MergeableServer::absorb(&mut b, &client.report((i * 3) % 64, &mut rng).unwrap())
                .unwrap();
        }
        let mut bytes = Vec::new();
        a.persist_state(&mut bytes);
        let mut restored = prototype.clone();
        restored
            .restore_state(&mut StateReader::new(&bytes))
            .unwrap();

        let mut merged_orig = a.clone();
        MergeableServer::merge(&mut merged_orig, &b).unwrap();
        let mut merged_rest = restored.clone();
        MergeableServer::merge(&mut merged_rest, &b).unwrap();
        let x = merged_orig.estimate_consistent().to_frequency_estimate();
        let y = merged_rest.estimate_consistent().to_frequency_estimate();
        for z in 0..64 {
            assert_eq!(x.point(z).to_bits(), y.point(z).to_bits());
        }
    }
}
