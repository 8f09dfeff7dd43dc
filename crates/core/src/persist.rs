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
//! Decoding is *total*: truncated or inconsistent bytes produce
//! [`RangeError::CorruptState`], never a panic, and every allocation is
//! sized by the prototype (never by attacker-controlled lengths). On any
//! error the server under restoration must be discarded — partial
//! restores are not rolled back.

use ldp_freq_oracle::{AnyOracle, Hrr, Oue, PointOracle};

use crate::error::RangeError;
use crate::flat::FlatServer;
use crate::haar::HaarHrrServer;
use crate::hh::HhServer;
use crate::mergeable::MergeableServer;

/// Oracle kind tags, matching the service crate's wire-format oracle tags
/// so one set of constants describes both encodings.
const TAG_OUE: u8 = 0;
const TAG_OLH: u8 = 1;
const TAG_HRR: u8 = 2;
const TAG_SUE: u8 = 3;

/// Appends one LEB128 varint (at most 10 bytes).
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

/// Appends one signed value as a zigzag-encoded varint.
pub fn put_ivarint(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

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

    /// Bytes consumed so far.
    #[must_use]
    pub fn consumed(&self) -> usize {
        self.pos
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

    /// Reads one LEB128 varint.
    ///
    /// # Errors
    ///
    /// Fails on truncation or 64-bit overflow.
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
                return Ok(v);
            }
        }
        Err(RangeError::CorruptState("varint overflows 64 bits"))
    }

    /// Reads one zigzag-encoded signed varint.
    ///
    /// # Errors
    ///
    /// As [`StateReader::varint`].
    pub fn ivarint(&mut self) -> Result<i64, RangeError> {
        let z = self.varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
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

// --- oracle codecs -----------------------------------------------------

fn put_counts(out: &mut Vec<u8>, reports: u64, counts: &[u64]) {
    put_varint(out, reports);
    for &c in counts {
        put_varint(out, c);
    }
}

fn get_counts(r: &mut StateReader<'_>, n: usize) -> Result<(u64, Vec<u64>), RangeError> {
    let reports = r.varint()?;
    // `n` comes from the prototype's own configuration, never from the
    // bytes, so this allocation is bounded by state we already hold.
    let mut counts = Vec::with_capacity(n);
    for _ in 0..n {
        counts.push(r.varint()?);
    }
    Ok((reports, counts))
}

fn persist_oue(out: &mut Vec<u8>, oracle: &Oue) {
    put_counts(out, oracle.num_reports(), oracle.counts());
}

fn restore_oue(r: &mut StateReader<'_>, oracle: &mut Oue) -> Result<(), RangeError> {
    let (reports, counts) = get_counts(r, oracle.domain())?;
    oracle
        .load_state(counts, reports)
        .map_err(|_| RangeError::CorruptState("impossible OUE counts"))
}

fn persist_hrr(out: &mut Vec<u8>, oracle: &Hrr) {
    put_varint(out, oracle.num_reports());
    for &s in oracle.sums() {
        put_ivarint(out, s);
    }
}

fn restore_hrr(r: &mut StateReader<'_>, oracle: &mut Hrr) -> Result<(), RangeError> {
    let reports = r.varint()?;
    let mut sums = Vec::with_capacity(oracle.domain());
    for _ in 0..oracle.domain() {
        sums.push(r.ivarint()?);
    }
    oracle
        .load_state(sums, reports)
        .map_err(|_| RangeError::CorruptState("impossible HRR sums"))
}

/// Appends one tagged [`AnyOracle`] state.
fn persist_any(out: &mut Vec<u8>, oracle: &AnyOracle) {
    match oracle {
        AnyOracle::Oue(o) => {
            out.push(TAG_OUE);
            persist_oue(out, o);
        }
        AnyOracle::Olh(o) => {
            out.push(TAG_OLH);
            put_counts(out, o.num_reports(), o.support());
        }
        AnyOracle::Hrr(o) => {
            out.push(TAG_HRR);
            persist_hrr(out, o);
        }
        AnyOracle::Sue(o) => {
            out.push(TAG_SUE);
            put_counts(out, o.num_reports(), o.counts());
        }
    }
}

/// Restores one tagged [`AnyOracle`] state; the tag must match the
/// prototype's oracle kind.
fn restore_any(r: &mut StateReader<'_>, oracle: &mut AnyOracle) -> Result<(), RangeError> {
    let tag = r.u8()?;
    match (tag, oracle) {
        (TAG_OUE, AnyOracle::Oue(o)) => restore_oue(r, o),
        (TAG_OLH, AnyOracle::Olh(o)) => {
            let (reports, support) = get_counts(r, o.domain())?;
            o.load_state(support, reports)
                .map_err(|_| RangeError::CorruptState("impossible OLH support"))
        }
        (TAG_HRR, AnyOracle::Hrr(o)) => restore_hrr(r, o),
        (TAG_SUE, AnyOracle::Sue(o)) => {
            let (reports, counts) = get_counts(r, o.domain())?;
            o.load_state(counts, reports)
                .map_err(|_| RangeError::CorruptState("impossible SUE counts"))
        }
        _ => Err(RangeError::CorruptState(
            "oracle tag does not match prototype kind",
        )),
    }
}

// --- server impls ------------------------------------------------------

impl PersistableServer for FlatServer {
    fn persist_state(&self, out: &mut Vec<u8>) {
        persist_any(out, self.oracle());
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), RangeError> {
        restore_any(r, self.oracle_mut())
    }
}

impl PersistableServer for HhServer {
    fn persist_state(&self, out: &mut Vec<u8>) {
        for oracle in self.oracles() {
            persist_any(out, oracle);
        }
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), RangeError> {
        for oracle in self.oracles_mut() {
            restore_any(r, oracle)?;
        }
        Ok(())
    }
}

impl PersistableServer for HaarHrrServer {
    fn persist_state(&self, out: &mut Vec<u8>) {
        for oracle in self.oracles() {
            persist_hrr(out, oracle);
        }
    }

    fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), RangeError> {
        for oracle in self.oracles_mut() {
            restore_hrr(r, oracle)?;
        }
        Ok(())
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
        wrong_tag[0] = TAG_HRR;
        assert!(matches!(
            prototype
                .clone()
                .restore_state(&mut StateReader::new(&wrong_tag)),
            Err(RangeError::CorruptState(_))
        ));

        // A count above the report total is impossible.
        let mut impossible = vec![TAG_OUE];
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

    #[test]
    fn zigzag_roundtrips_extremes() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut out = Vec::new();
            put_ivarint(&mut out, v);
            let mut r = StateReader::new(&out);
            assert_eq!(r.ivarint().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
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
