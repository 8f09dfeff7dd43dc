//! The batch decoder ≡ one `decode_frame` per frame, bit for bit.
//!
//! `LdpService::submit_wire_batch` walks a REPORT payload frame by frame
//! and absorbs each report in place. These tests hold it to the plain
//! reference: decode every frame on its own (`decode_frame`, or
//! `decode_epoch_frame` under the epoch wire version) and `absorb` the
//! reports one at a time. An accepted batch must leave the same
//! `persist_state` bytes; a refused one must name the same frame index and
//! the same error, and leave the shard as it was.
//!
//! The batches are built to catch a decoder that carries anything from
//! one frame to the next: `HH_4`/OUE frames of every depth interleaved,
//! so a 4-item frame follows a 65 536-item one; flat OUE around the
//! 64-bit word edges; and hostile rows placed right after a longer
//! frame — bits set past a short frame's domain, a truncated word block,
//! a domain that does not match its depth, and the retired oracle tag 3
//! (SUE) on an otherwise valid frame.

use ldp_freq_oracle::{AnyOracle, AnyReport, Epsilon, FrequencyOracle, OueReport, PointOracle};
use ldp_ranges::{
    FlatClient, FlatConfig, FlatServer, HhConfig, HhReport, HhServer, MergeableServer,
    PersistableServer,
};
use ldp_service::net::{WIRE_EPOCH, WIRE_V1};
use ldp_service::wire::encode_epoch_frame;
use ldp_service::{
    decode_epoch_frame, decode_frame, LdpService, ServiceError, SnapshotSource, WireError,
    WireReport,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The epoch every v2 frame carries; an all-time service ignores it.
const EPOCH: u64 = 9;

fn eps() -> Epsilon {
    Epsilon::from_exp(3.0)
}

fn frame<R: WireReport>(report: &R, version: u8) -> Vec<u8> {
    let mut out = Vec::new();
    if version == WIRE_EPOCH {
        encode_epoch_frame(report, EPOCH, &mut out);
    } else {
        report.encode_frame(&mut out);
    }
    out
}

/// `frame` with bit `bit` of its last packed word set: the last eight
/// bytes of a unary frame are that word, little-endian.
fn with_bit_set(mut frame: Vec<u8>, bit: usize) -> Vec<u8> {
    let at = frame.len() - 8 + bit / 8;
    frame[at] |= 1 << (bit % 8);
    frame
}

fn state_bytes<S: PersistableServer>(state: &S) -> Vec<u8> {
    let mut out = Vec::new();
    state.persist_state(&mut out);
    out
}

/// The reference: `frames` decoded one `decode_frame` (or
/// `decode_epoch_frame`) call each and absorbed one report at a time
/// into `state`. Returns the first refused frame's index and error, as
/// the batch path reports them, leaving `state` mid-way in that case.
fn absorb_one_by_one<S>(state: &mut S, version: u8, frames: &[Vec<u8>]) -> Result<(), String>
where
    S: MergeableServer,
    S::Report: WireReport,
{
    for (index, bytes) in frames.iter().enumerate() {
        let decoded = if version == WIRE_EPOCH {
            decode_epoch_frame::<S::Report>(bytes).map(|(_, report, used)| (report, used))
        } else {
            decode_frame::<S::Report>(bytes)
        };
        let refused = |e: ServiceError| format!("frame {index}: {e:?}");
        let (report, used) = decoded.map_err(|e| refused(e.into()))?;
        assert_eq!(used, bytes.len(), "frame {index} decoded short");
        state
            .absorb(&report)
            .map_err(|e| refused(ServiceError::from(e)))?;
    }
    Ok(())
}

/// Submits the valid `warm` batch and then `batch` to a one-shard
/// service, and holds both to [`absorb_one_by_one`]: `batch` is accepted
/// or refused exactly when the reference is, with the same frame index
/// and error, and the merged state after it is bit-identical to the
/// reference's — `warm` alone when `batch` was refused. `accepted` says
/// which outcome the case is built for.
fn assert_batch_matches<S>(
    prototype: &S,
    version: u8,
    (warm, batch): (&[Vec<u8>], &[Vec<u8>]),
    accepted: bool,
    what: &str,
) where
    S: SnapshotSource + PersistableServer,
    S::Report: WireReport,
{
    let service = LdpService::new(prototype, 1).unwrap();
    let mut expected = prototype.clone();
    absorb_one_by_one(&mut expected, version, warm).expect("the warm-up batch is valid");
    let submit = |frames: &[Vec<u8>]| {
        service.submit_wire_batch(version, frames.len() as u64, &frames.concat())
    };
    assert_eq!(submit(warm).unwrap(), warm.len() as u64, "{what}: warm-up");
    let mut reference = expected.clone();
    let outcome = submit(batch);
    assert_eq!(outcome.is_ok(), accepted, "{what}: {outcome:?}");
    match absorb_one_by_one(&mut reference, version, batch) {
        Ok(()) => {
            assert_eq!(outcome.unwrap(), batch.len() as u64, "{what}");
            expected = reference;
        }
        Err(want) => match outcome {
            Err(ServiceError::BadFrame { index, source, .. }) => {
                assert_eq!(format!("frame {index}: {source:?}"), want, "{what}");
            }
            other => panic!("{what}: expected {want}, got {other:?}"),
        },
    }
    let merged = service.merged_state().unwrap();
    assert_eq!(merged.num_reports(), expected.num_reports(), "{what}");
    assert_eq!(
        state_bytes(&merged),
        state_bytes(&expected),
        "{what}: state bytes"
    );
}

/// `HH_4`/OUE over 2^16 items: depths 1..=8 hold 4, 16, …, 65 536 nodes.
struct Hh {
    config: HhConfig,
    levels: Vec<AnyOracle>,
    rng: StdRng,
}

impl Hh {
    fn new(seed: u64) -> Self {
        let config = HhConfig::new(1 << 16, 4, eps()).unwrap();
        let levels = (1..=config.height)
            .map(|d| AnyOracle::new(FrequencyOracle::Oue, 4usize.pow(d), eps()).unwrap())
            .collect();
        Self {
            config,
            levels,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A valid report at `depth`, on a random node.
    fn report(&mut self, depth: u32) -> HhReport {
        let oracle = &self.levels[depth as usize - 1];
        let node = self.rng.random_range(0..oracle.domain());
        HhReport::from_parts(depth, oracle.encode(node, &mut self.rng).unwrap())
    }

    /// Frames at each of `depths`, in order.
    fn frames(&mut self, depths: &[u32], version: u8) -> Vec<Vec<u8>> {
        depths
            .iter()
            .map(|&d| frame(&self.report(d), version))
            .collect()
    }
}

/// Every depth, each long frame followed by a short one.
const INTERLEAVED: [u32; 16] = [8, 1, 7, 2, 6, 3, 5, 4, 8, 2, 8, 1, 1, 8, 4, 7];

#[test]
fn hh_oue_batches_of_every_depth_match_frame_by_frame_absorb() {
    for version in [WIRE_V1, WIRE_EPOCH] {
        let mut hh = Hh::new(u64::from(version));
        let server = HhServer::new(hh.config.clone()).unwrap();
        let warm = hh.frames(&[1, 8, 3], version);
        let batch = hh.frames(&INTERLEAVED, version);
        assert_batch_matches(
            &server,
            version,
            (&warm, &batch),
            true,
            "interleaved depths",
        );
        // Depth 1 right after depth 8, many times over.
        let seesaw: Vec<u32> = (0..12).map(|i| if i % 2 == 0 { 8 } else { 1 }).collect();
        let batch = hh.frames(&seesaw, version);
        assert_batch_matches(&server, version, (&warm, &batch), true, "8/1 seesaw");
    }
}

#[test]
fn hostile_hh_rows_after_a_longer_frame_are_refused_like_decode_frame() {
    for version in [WIRE_V1, WIRE_EPOCH] {
        let mut hh = Hh::new(100 + u64::from(version));
        let server = HhServer::new(hh.config.clone()).unwrap();
        let warm = hh.frames(&[2, 8, 5], version);
        let prefix = hh.frames(&[3, 8, 1, 8], version);
        let tail = hh.frames(&[1, 8], version);
        // Depth 1 (4 items) with bit 4 set; depth 2 (16 items) with bit 40.
        let past_domain_1 = with_bit_set(frame(&hh.report(1), version), 4);
        let past_domain_2 = with_bit_set(frame(&hh.report(2), version), 40);
        // Depth 7 (16 384 items, 256 words) ending 1 and 8 bytes short.
        let depth_7 = frame(&hh.report(7), version);
        let short_1 = depth_7[..depth_7.len() - 1].to_vec();
        let short_8 = depth_7[..depth_7.len() - 8].to_vec();
        // Depth 1 carrying a 16-item report: decodes, then is refused.
        let sixteen = hh.levels[1].encode(3, &mut hh.rng).unwrap();
        let mismatched = frame(&HhReport::from_parts(1, sixteen), version);
        let cases = [
            ("bits past a depth-1 domain", past_domain_1, true),
            ("bits past a depth-2 domain", past_domain_2, true),
            ("depth 1 over 16 items", mismatched, true),
            ("truncated by one byte", short_1, false),
            ("truncated by one word", short_8, false),
        ];
        for (what, hostile, has_tail) in cases {
            let mut batch = prefix.clone();
            batch.push(hostile);
            if has_tail {
                batch.extend(tail.iter().cloned());
            }
            assert_batch_matches(&server, version, (&warm, &batch), false, what);
        }
    }
}

/// Submits `batch`, whose frame `index` carries the retired oracle tag 3
/// (SUE), to a one-shard service: refused as that frame's unknown tag,
/// exactly as [`assert_batch_matches`] holds `decode_frame` to refuse it.
fn assert_tag_3_refused<S>(prototype: &S, version: u8, batch: &[Vec<u8>], index: usize)
where
    S: SnapshotSource,
    S::Report: WireReport,
{
    let service = LdpService::new(prototype, 1).unwrap();
    match service.submit_wire_batch(version, batch.len() as u64, &batch.concat()) {
        Err(ServiceError::BadFrame {
            index: at, source, ..
        }) => {
            assert_eq!(at, index);
            assert!(
                matches!(*source, ServiceError::Wire(WireError::UnknownOracleTag(3))),
                "{source:?}"
            );
        }
        other => panic!("expected frame {index} refused, got {other:?}"),
    }
    assert_eq!(service.num_reports(), 0);
}

#[test]
fn the_retired_sue_tag_is_refused_at_its_index() {
    for version in [WIRE_V1, WIRE_EPOCH] {
        // The oracle tag follows the four header bytes, the one-byte
        // epoch under v2 and, in an `HH_B` frame, the one-byte depth.
        let tag_at = if version == WIRE_EPOCH { 5 } else { 4 };
        let retagged = |mut frame: Vec<u8>, at: usize| {
            frame[at] = 3;
            frame
        };

        let mut hh = Hh::new(200 + u64::from(version));
        let server = HhServer::new(hh.config.clone()).unwrap();
        let warm = hh.frames(&[1, 8], version);
        let mut batch = hh.frames(&[3, 8, 1], version);
        batch.push(retagged(frame(&hh.report(2), version), tag_at + 1));
        batch.extend(hh.frames(&[8], version));
        assert_batch_matches(&server, version, (&warm, &batch), false, "HH_4 tag 3");
        assert_tag_3_refused(&server, version, &batch, 3);

        let config = FlatConfig::new(64, eps()).unwrap();
        let client = FlatClient::new(&config).unwrap();
        let server = FlatServer::new(&config).unwrap();
        let mut rng = StdRng::seed_from_u64(u64::from(version));
        let mut frames = (0..4).map(|v| frame(&client.report(v, &mut rng).unwrap(), version));
        let warm = vec![frames.next().unwrap()];
        let batch = vec![
            frames.next().unwrap(),
            retagged(frames.next().unwrap(), tag_at),
            frames.next().unwrap(),
        ];
        assert_batch_matches(&server, version, (&warm, &batch), false, "flat tag 3");
        assert_tag_3_refused(&server, version, &batch, 1);
    }
}

/// A unary report over `domain` items with only bit `bit` set.
fn one_hot(domain: usize, bit: usize) -> OueReport {
    let mut words = vec![0; domain.div_ceil(64)];
    words[bit / 64] = 1 << (bit % 64);
    OueReport::from_words(domain, words)
}

/// Flat `kind` over `domain` items under wire `version`: a valid batch,
/// then each hostile row right after a full-length valid frame.
fn check_flat(
    kind: FrequencyOracle,
    unary: fn(OueReport) -> AnyReport,
    domain: usize,
    version: u8,
) {
    let config = FlatConfig::with_oracle(domain, eps(), kind).unwrap();
    let client = FlatClient::new(&config).unwrap();
    let server = FlatServer::new(&config).unwrap();
    let mut rng = StdRng::seed_from_u64(domain as u64);
    let mut frames = |n: usize| -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                frame(
                    &client.report((i * 37) % domain, &mut rng).unwrap(),
                    version,
                )
            })
            .collect()
    };
    let warm = frames(3);
    let what = format!("{kind:?} D={domain} v{version}");
    assert_batch_matches(&server, version, (&warm, &frames(20)), true, &what);

    let prefix = frames(4);
    let tail = frames(2);
    let valid = frames(1).remove(0);
    let one_item = frame(&unary(one_hot(1, 0)), version);
    let mut hostile = vec![
        // Decodes, then is refused: the server holds `domain` items.
        ("D=1 report", one_item.clone(), true),
        ("bit past D=1", with_bit_set(one_item, 1), true),
        ("truncated", valid[..valid.len() - 3].to_vec(), false),
    ];
    if !domain.is_multiple_of(64) {
        hostile.push(("bit past D", with_bit_set(valid, domain % 64), true));
    }
    for (row, bad, has_tail) in hostile {
        let mut batch = prefix.clone();
        batch.push(bad);
        if has_tail {
            batch.extend(tail.iter().cloned());
        }
        let row = format!("{what}: {row}");
        assert_batch_matches(&server, version, (&warm, &batch), false, &row);
    }
}

#[test]
fn flat_unary_batches_match_frame_by_frame_absorb_at_the_word_edges() {
    // `FlatConfig` refuses D < 2; one-item frames are among the hostile rows.
    for domain in [2, 63, 64, 65, 1_000] {
        for version in [WIRE_V1, WIRE_EPOCH] {
            check_flat(FrequencyOracle::Oue, AnyReport::Oue, domain, version);
        }
    }
}
