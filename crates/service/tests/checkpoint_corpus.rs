//! Golden corpus for checkpoint state: the bytes `persist_state` writes
//! for every served mechanism and for the epoch ring.
//!
//! Each state is built from hand-made reports, not a seeded RNG, so its
//! integer statistics are known; the expected bytes are written out from
//! the grammar in the `ldp_ranges::persist` module docs:
//!
//! ```text
//! server_state  := oracle_state × (number of oracles, from prototype)
//! oracle_state  := tagged for AnyOracle:  tag(1B)  body
//!                  untagged for Oue/Hrr:  body
//! body          := reports:varint  stat:varint × domain        (counts)
//!                | reports:varint  zigzag:varint × domain      (±1 sums)
//! ```
//!
//! Oracle tags: OUE 0, OLH 1, HRR 2, and SUE 3, which is retired from the
//! service — a SUE-backed server is refused before any checkpoint is read
//! — but still persisted by `ldp_ranges`, whose rows stay pinned here.
//! Every pinned body restores into a fresh prototype, consuming every
//! byte and persisting back to the same bytes, and every strict prefix of
//! it is refused as truncated. Each `CorruptState` rule has one hostile
//! row with its exact reason.

use ldp_freq_oracle::{
    AnyReport, Epsilon, FrequencyOracle, HrrReport, OlhReport, OueReport, UniversalHash,
};
use ldp_ranges::{
    FlatConfig, FlatServer, HaarConfig, HaarHrrReport, HaarHrrServer, HhConfig, HhReport, HhServer,
    MergeableServer, PersistableServer, RangeError, StateReader,
};
use ldp_service::EpochRing;

const TRUNCATED: &str = "truncated state bytes";

fn eps() -> Epsilon {
    // e^ε = 3, so OLH hashes into g = e^ε + 1 = 4 buckets.
    Epsilon::from_exp(3.0)
}

/// `state` persists to exactly `bytes`; `bytes` restore into a clone of
/// `empty`, consuming all of them and persisting back to `bytes`; and
/// every strict prefix of `bytes` is refused as truncated.
fn pin<S: PersistableServer>(state: &S, empty: &S, bytes: &[u8]) {
    let mut out = Vec::new();
    state.persist_state(&mut out);
    assert_eq!(out, bytes, "persist_state bytes");

    let mut restored = empty.clone();
    let mut reader = StateReader::new(bytes);
    restored.restore_state(&mut reader).expect("restore");
    assert_eq!(reader.remaining(), 0, "restore left bytes unread");
    assert_eq!(restored.num_reports(), state.num_reports());
    let mut again = Vec::new();
    restored.persist_state(&mut again);
    assert_eq!(again, bytes, "restored state persists differently");

    for cut in 0..bytes.len() {
        refuse(empty, &bytes[..cut], TRUNCATED);
    }
}

/// `bytes` restored into a clone of `empty` fail with exactly `why`.
fn refuse<S: PersistableServer>(empty: &S, bytes: &[u8], why: &'static str) {
    let result = empty.clone().restore_state(&mut StateReader::new(bytes));
    assert_eq!(
        result.err(),
        Some(RangeError::CorruptState(why)),
        "{bytes:02x?}"
    );
}

fn flat(kind: FrequencyOracle, domain: usize) -> FlatServer {
    FlatServer::new(&FlatConfig::with_oracle(domain, eps(), kind).unwrap()).unwrap()
}

fn absorbed<S: MergeableServer>(empty: &S, reports: &[S::Report]) -> S {
    let mut server = empty.clone();
    for report in reports {
        MergeableServer::absorb(&mut server, report).unwrap();
    }
    server
}

fn oue(domain: usize, word: u64) -> OueReport {
    OueReport::from_words(domain, vec![word])
}

fn hrr(domain: usize, index: usize, bit: i8) -> HrrReport {
    HrrReport::from_parts(domain, index, bit)
}

// --- flat: one tagged oracle --------------------------------------------

#[test]
fn flat_over_each_oracle_has_one_pinned_state() {
    // OUE and SUE share the bit-vector report and the counts body: bits
    // {0, 2} and {0, 7} over D=8 count [2,0,1,0,0,0,0,1] in 2 reports.
    let unary = [0b0000_0101, 0b1000_0001];
    let body = [0x02, 0x02, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x01];
    for (kind, tag) in [(FrequencyOracle::Oue, 0x00), (FrequencyOracle::Sue, 0x03)] {
        let empty = flat(kind, 8);
        let reports: Vec<AnyReport> = unary
            .iter()
            .map(|&w| match kind {
                FrequencyOracle::Oue => AnyReport::Oue(oue(8, w)),
                _ => AnyReport::Sue(oue(8, w)),
            })
            .collect();
        pin(
            &absorbed(&empty, &reports),
            &empty,
            &[&[tag][..], &body].concat(),
        );
        // The empty state: the tag, zero reports, zero counts.
        pin(&empty, &empty, &[tag, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
    }

    // OLH, g = 4: H(x) = x mod 4 = 1 supports {1, 5}; H(x) = (2x + 1)
    // mod 4 = 3 supports {1, 3, 5, 7}.
    let empty = flat(FrequencyOracle::Olh, 8);
    let reports = [
        AnyReport::Olh(OlhReport::from_parts(UniversalHash::from_parts(1, 0, 4), 1)),
        AnyReport::Olh(OlhReport::from_parts(UniversalHash::from_parts(2, 1, 4), 3)),
    ];
    pin(
        &absorbed(&empty, &reports),
        &empty,
        &[0x01, 0x02, 0x00, 0x02, 0x00, 0x01, 0x00, 0x02, 0x00, 0x01],
    );

    // HRR: sums [0,0,0,+2,0,−1,0,0] in 3 reports; zigzag +2 → 4, −1 → 1.
    let empty = flat(FrequencyOracle::Hrr, 8);
    let reports = [
        AnyReport::Hrr(hrr(8, 3, 1)),
        AnyReport::Hrr(hrr(8, 3, 1)),
        AnyReport::Hrr(hrr(8, 5, -1)),
    ];
    pin(
        &absorbed(&empty, &reports),
        &empty,
        &[0x02, 0x03, 0x00, 0x00, 0x00, 0x04, 0x00, 0x01, 0x00, 0x00],
    );
}

// --- HH_B: one tagged oracle per depth, for every level oracle ----------

#[test]
fn hh_over_oue_and_hrr_has_one_pinned_state() {
    // D=16, B=4: depth 1 has 4 nodes, depth 2 has 16; oracles in depth
    // order.
    let empty = HhServer::new(HhConfig::new(16, 4, eps()).unwrap()).unwrap();
    let reports = [
        HhReport::from_parts(1, AnyReport::Oue(oue(4, 0b0110))),
        HhReport::from_parts(2, AnyReport::Oue(oue(16, 0x8001))),
        HhReport::from_parts(2, AnyReport::Oue(oue(16, 0x0010))),
    ];
    #[rustfmt::skip]
    let bytes = [
        // depth 1: tag OUE, 1 report, counts [0,1,1,0]
        0x00, 0x01, 0x00, 0x01, 0x01, 0x00,
        // depth 2: tag OUE, 2 reports, counts 1 at nodes 0, 4 and 15
        0x00, 0x02,
        0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
    ];
    pin(&absorbed(&empty, &reports), &empty, &bytes);

    let config = HhConfig::with_oracle(16, 4, eps(), FrequencyOracle::Hrr).unwrap();
    let empty = HhServer::new(config).unwrap();
    let reports = [
        HhReport::from_parts(1, AnyReport::Hrr(hrr(4, 2, -1))),
        HhReport::from_parts(2, AnyReport::Hrr(hrr(16, 9, 1))),
        HhReport::from_parts(2, AnyReport::Hrr(hrr(16, 9, 1))),
        HhReport::from_parts(2, AnyReport::Hrr(hrr(16, 0, -1))),
    ];
    #[rustfmt::skip]
    let bytes = [
        // depth 1: tag HRR, 1 report, sums [0,0,−1,0]
        0x02, 0x01, 0x00, 0x00, 0x01, 0x00,
        // depth 2: tag HRR, 3 reports, sum −1 at 0 and +2 at 9
        0x02, 0x03,
        0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    ];
    pin(&absorbed(&empty, &reports), &empty, &bytes);
}

#[test]
fn hh_over_olh_and_sue_has_one_pinned_state() {
    // OLH, g = 4. Depth 1: H(x) = x mod 4 = 1 supports {1}. Depth 2:
    // H(x) = (2x + 1) mod 4 = 3 supports the odd nodes, and H(x) = x mod
    // 4 = 0 supports {0, 4, 8, 12}.
    let config = HhConfig::with_oracle(16, 4, eps(), FrequencyOracle::Olh).unwrap();
    let empty = HhServer::new(config).unwrap();
    let olh =
        |a, b, y| AnyReport::Olh(OlhReport::from_parts(UniversalHash::from_parts(a, b, 4), y));
    let reports = [
        HhReport::from_parts(1, olh(1, 0, 1)),
        HhReport::from_parts(2, olh(2, 1, 3)),
        HhReport::from_parts(2, olh(1, 0, 0)),
    ];
    #[rustfmt::skip]
    let bytes = [
        // depth 1: tag OLH, 1 report, support [0,1,0,0]
        0x01, 0x01, 0x00, 0x01, 0x00, 0x00,
        // depth 2: tag OLH, 2 reports, support 0 at nodes 2, 6, 10, 14
        0x01, 0x02,
        0x01, 0x01, 0x00, 0x01, 0x01, 0x01, 0x00, 0x01,
        0x01, 0x01, 0x00, 0x01, 0x01, 0x01, 0x00, 0x01,
    ];
    pin(&absorbed(&empty, &reports), &empty, &bytes);

    // SUE carries OUE's bit-vector reports and counts body under tag 3:
    // the OUE rows above, retagged.
    let config = HhConfig::with_oracle(16, 4, eps(), FrequencyOracle::Sue).unwrap();
    let empty = HhServer::new(config).unwrap();
    let reports = [
        HhReport::from_parts(1, AnyReport::Sue(oue(4, 0b0110))),
        HhReport::from_parts(2, AnyReport::Sue(oue(16, 0x8001))),
        HhReport::from_parts(2, AnyReport::Sue(oue(16, 0x0010))),
    ];
    #[rustfmt::skip]
    let bytes = [
        // depth 1: tag SUE, 1 report, counts [0,1,1,0]
        0x03, 0x01, 0x00, 0x01, 0x01, 0x00,
        // depth 2: tag SUE, 2 reports, counts 1 at nodes 0, 4 and 15
        0x03, 0x02,
        0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
    ];
    pin(&absorbed(&empty, &reports), &empty, &bytes);
}

// --- HaarHRR: one untagged HRR per detail level -------------------------

#[test]
fn haar_hrr_has_one_pinned_state() {
    // D=8: detail levels 0, 1, 2 hold 1, 2 and 4 coefficients.
    let empty = HaarHrrServer::new(HaarConfig::new(8, eps()).unwrap()).unwrap();
    let mut reports = vec![HaarHrrReport::from_parts(0, hrr(1, 0, 1)); 200];
    reports.push(HaarHrrReport::from_parts(1, hrr(2, 1, -1)));
    #[rustfmt::skip]
    let bytes = [
        // level 0: 200 reports (varint c8 01), sum +200 (zigzag 400 = 90 03)
        0xC8, 0x01, 0x90, 0x03,
        // level 1: 1 report, sums [0, −1]
        0x01, 0x00, 0x01,
        // level 2: nothing reported
        0x00, 0x00, 0x00, 0x00, 0x00,
    ];
    pin(&absorbed(&empty, &reports), &empty, &bytes);
}

// --- the epoch ring -----------------------------------------------------

/// A window-2 ring over flat HRR (D=4) after epochs 0 (one report),
/// 1 (empty) and 2 (two reports) sealed, epoch 0 rotated out, and one
/// report in the open epoch 3.
fn ring_fixture() -> (EpochRing<FlatServer>, EpochRing<FlatServer>) {
    let empty = EpochRing::new(&flat(FrequencyOracle::Hrr, 4), 2).unwrap();
    let mut ring = empty.clone();
    ring.absorb(&AnyReport::Hrr(hrr(4, 1, 1))).unwrap();
    assert_eq!(ring.seal_epoch().unwrap(), 0);
    assert_eq!(ring.seal_epoch().unwrap(), 1);
    for _ in 0..2 {
        ring.absorb(&AnyReport::Hrr(hrr(4, 2, -1))).unwrap();
    }
    assert_eq!(ring.seal_epoch().unwrap(), 2);
    ring.absorb(&AnyReport::Hrr(hrr(4, 0, 1))).unwrap();
    (ring, empty)
}

#[rustfmt::skip]
const RING_BYTES: [u8; 24] = [
    // window_len 2, epoch_width 0, open epoch 3, 2 sealed epochs retained
    0x02, 0x00, 0x03, 0x02,
    // epoch 1: sealed empty, persisted as the prototype
    0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
    // epoch 2: 2 reports, sum −2 (zigzag 3) at index 2
    0x02, 0x02, 0x02, 0x00, 0x00, 0x03, 0x00,
    // open epoch: 1 report, sum +1 (zigzag 2) at index 0
    0x02, 0x01, 0x02, 0x00, 0x00, 0x00,
];

#[test]
fn epoch_ring_has_one_pinned_state() {
    let (ring, empty) = ring_fixture();
    pin(&ring, &empty, &RING_BYTES);
}

// --- hostile rows: one per CorruptState rule ----------------------------

#[test]
fn every_corrupt_state_rule_has_one_hostile_row() {
    let oue_empty = flat(FrequencyOracle::Oue, 8);
    // Truncated: the last count is missing.
    refuse(
        &oue_empty,
        &[0x00, 0x02, 0x02, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00],
        TRUNCATED,
    );
    // A varint running past 64 bits.
    refuse(
        &oue_empty,
        &[
            0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02,
        ],
        "varint overflows 64 bits",
    );
    // A varint in a longer form than its shortest: the report total 2
    // widened to `0x82 0x00`.
    refuse(
        &oue_empty,
        &[
            0x00, 0x82, 0x00, 0x02, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x01,
        ],
        "varint not in its shortest form",
    );
    // A well-formed HRR state offered to an OUE prototype.
    refuse(
        &oue_empty,
        &[0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00],
        "oracle tag does not match prototype kind",
    );
    // An unknown tag.
    refuse(
        &oue_empty,
        &[0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00],
        "oracle tag does not match prototype kind",
    );

    // A count above the report total, for each counting oracle.
    let one_report_counted_twice = [0x01, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00];
    for (kind, tag, why) in [
        (FrequencyOracle::Oue, 0x00, "impossible OUE counts"),
        (FrequencyOracle::Olh, 0x01, "impossible OLH support"),
        (FrequencyOracle::Sue, 0x03, "impossible SUE counts"),
    ] {
        refuse(
            &flat(kind, 8),
            &[&[tag][..], &one_report_counted_twice].concat(),
            why,
        );
    }

    // |sum| above the report total, either sign: tagged (flat) and
    // untagged (HaarHRR).
    let hrr_empty = flat(FrequencyOracle::Hrr, 8);
    refuse(
        &hrr_empty,
        &[0x02, 0x01, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00],
        "impossible HRR sums",
    );
    refuse(
        &hrr_empty,
        &[0x02, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03],
        "impossible HRR sums",
    );
    let haar_empty = HaarHrrServer::new(HaarConfig::new(8, eps()).unwrap()).unwrap();
    refuse(&haar_empty, &[0x00, 0x02], "impossible HRR sums");

    // The ring's own rules, each a one-field edit of the pinned ring.
    let (_, ring_empty) = ring_fixture();
    let edit = |at: usize, byte: u8| {
        let mut bytes = RING_BYTES.to_vec();
        bytes[at] = byte;
        bytes
    };
    refuse(&ring_empty, &edit(0, 0x03), "window length mismatch");
    refuse(&ring_empty, &edit(1, 0x05), "epoch width mismatch");
    refuse(&ring_empty, &edit(3, 0x03), "retained epochs exceed window");
    refuse(&ring_empty, &edit(2, 0x01), "retained epochs exceed window");
    refuse(
        &ring_empty,
        &edit(4, 0x00),
        "sealed epoch ids not consecutive",
    );
}
