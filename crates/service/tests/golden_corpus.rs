//! Golden corpus for the two self-made binary formats: the session
//! protocol (`net::proto`) and the WAL record body (`storage::wal`), plus
//! the fixed-width heads of a framed record, a segment and a checkpoint.
//!
//! Every live session type byte and every WAL record type has one pinned
//! encoding here, written out byte by byte from the module-doc grammars,
//! and every decoder validation rule has one hostile body with the exact
//! [`WireError`] it must produce. Roundtrip tests cannot see a field-order
//! swap made on both the encode and the decode side; these bytes can.
//! Two refusals of the report-frame grammar (`wire`), whose frames a
//! REPORT carries verbatim, are pinned here too: overlong varints and the
//! retired oracle tag 3.

use ldp_freq_oracle::{AnyReport, OueReport};
use ldp_ranges::HhReport;
use ldp_service::net::proto::{
    encode_report_body, write_report, ClientMsg, DurableProgress, ErrorCode, Hello, HelloOk, Query,
    QueryOp, QueryReply, QueryResult, RemoteError, ReportBatch, ServerMsg, StatusReply,
};
use ldp_service::storage::checkpoint::{decode_checkpoint, encode_checkpoint, Checkpoint};
use ldp_service::storage::scratch_dir;
use ldp_service::storage::wal::{
    check_segment_header, crc32, decode_framed, segment_path, FsyncPolicy, WalRecord, WalWriter,
    SEGMENT_HEADER_BYTES,
};
use ldp_service::{decode_epoch_frame, decode_frame, WireError, WireReport};

/// `msg` encodes to exactly `bytes`, and `bytes` decode to exactly `msg`.
fn client(msg: ClientMsg, bytes: &[u8]) {
    assert_eq!(msg.encode(), bytes, "encode {msg:?}");
    assert_eq!(ClientMsg::decode(bytes), Ok(msg), "decode {bytes:02x?}");
}

fn server(msg: ServerMsg, bytes: &[u8]) {
    assert_eq!(msg.encode(), bytes, "encode {msg:?}");
    assert_eq!(ServerMsg::decode(bytes), Ok(msg), "decode {bytes:02x?}");
}

fn record(rec: WalRecord, bytes: &[u8]) {
    assert_eq!(rec.encode_body(), bytes, "encode {rec:?}");
    assert_eq!(
        WalRecord::decode_body(bytes),
        Ok(rec),
        "decode {bytes:02x?}"
    );
}

fn malformed(why: &'static str) -> WireError {
    WireError::Malformed(why)
}

/// An `f64`'s eight little-endian bit bytes.
fn f64_le(x: f64) -> [u8; 8] {
    x.to_bits().to_le_bytes()
}

fn concat(parts: &[&[u8]]) -> Vec<u8> {
    parts.concat()
}

// --- pinned encodings --------------------------------------------------

#[test]
fn every_client_message_has_one_pinned_encoding() {
    // 0x01 HELLO: magic "LN", proto 1, kind, wire_version, windowed.
    client(
        ClientMsg::Hello(Hello {
            kind: 3,
            wire_version: 2,
            windowed: true,
        }),
        &[0x01, b'L', b'N', 0x01, 0x03, 0x02, 0x01],
    );
    // 0x02 REPORT: count varint, then the frames verbatim.
    client(
        ClientMsg::Report(ReportBatch {
            count: 2,
            frames: vec![0xAA, 0xBB, 0xCC],
        }),
        &[0x02, 0x02, 0xAA, 0xBB, 0xCC],
    );
    client(
        ClientMsg::Report(ReportBatch {
            count: 0,
            frames: Vec::new(),
        }),
        &[0x02, 0x00],
    );
    // 0x03 QUERY: window flag [k], then op tag and operands.
    client(
        ClientMsg::Query(Query {
            op: QueryOp::Range { a: 3, b: 900 },
            window: Some(4),
        }),
        &[0x03, 0x01, 0x04, 0x00, 0x03, 0x84, 0x07],
    );
    client(
        ClientMsg::Query(Query {
            op: QueryOp::Prefix { b: 5 },
            window: None,
        }),
        &[0x03, 0x00, 0x01, 0x05],
    );
    client(
        ClientMsg::Query(Query {
            op: QueryOp::Point { z: 300 },
            window: None,
        }),
        &[0x03, 0x00, 0x02, 0xAC, 0x02],
    );
    client(
        ClientMsg::Query(Query {
            op: QueryOp::Quantile { phi: 0.5 },
            window: Some(1),
        }),
        &concat(&[&[0x03, 0x01, 0x01, 0x03], &f64_le(0.5)]),
    );
    // Both ends of φ's range are legal.
    for phi in [0.0, 1.0] {
        client(
            ClientMsg::Query(Query {
                op: QueryOp::Quantile { phi },
                window: None,
            }),
            &concat(&[&[0x03, 0x00, 0x03], &f64_le(phi)]),
        );
    }
    // 0x04 SEAL, 0x05 BYE, 0x06 STATUS: bare type bytes.
    client(ClientMsg::Seal, &[0x04]);
    client(ClientMsg::Bye, &[0x05]);
    client(ClientMsg::Status, &[0x06]);
    // 0x08 REPLICATE: magic "LN", proto 1, start varint.
    client(
        ClientMsg::Replicate { start: 300 },
        &[0x08, b'L', b'N', 0x01, 0xAC, 0x02],
    );
    client(
        ClientMsg::Replicate { start: u64::MAX },
        &[
            0x08, b'L', b'N', 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01,
        ],
    );
    // 0x09 REPL_ACK: acked varint.
    client(ClientMsg::ReplAck { acked: 12_345 }, &[0x09, 0xB9, 0x60]);
}

#[test]
fn every_server_message_has_one_pinned_encoding() {
    // 0x81 HELLO_OK: kind, wire_version, windowed, domain varint.
    server(
        ServerMsg::HelloOk(HelloOk {
            kind: 1,
            wire_version: 1,
            windowed: false,
            domain: 1024,
        }),
        &[0x81, 0x01, 0x01, 0x00, 0x80, 0x08],
    );
    // 0x82 REPORT_OK: accepted varint.
    server(ServerMsg::ReportOk { accepted: 500 }, &[0x82, 0xF4, 0x03]);
    // 0x83 QUERY_OK, fraction arm: tag 0 + f64 bits, version,
    // num_reports, window flag + (first, last).
    server(
        ServerMsg::QueryOk(QueryReply {
            result: QueryResult::Fraction(0.25),
            version: 7,
            num_reports: 10_000,
            window: Some((3, 6)),
        }),
        &concat(&[
            &[0x83, 0x00],
            &f64_le(0.25),
            &[0x07, 0x90, 0x4E, 0x01, 0x03, 0x06],
        ]),
    );
    // 0x83 QUERY_OK, index arm: tag 1 + the index as 8 LE bytes (not a
    // varint).
    server(
        ServerMsg::QueryOk(QueryReply {
            result: QueryResult::Index(511),
            version: 1,
            num_reports: 1,
            window: None,
        }),
        &[
            0x83, 0x01, 0xFF, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x01, 0x00,
        ],
    );
    // 0x84 SEAL_OK, 0x85 BYE_OK.
    server(ServerMsg::SealOk { epoch: 9 }, &[0x84, 0x09]);
    server(ServerMsg::ByeOk, &[0x85]);
    // 0x86 STATUS_OK without a durable block (the first protocol
    // version's bytes).
    server(
        ServerMsg::StatusOk(StatusReply {
            sessions: 3,
            frames_absorbed: 40,
            frames_rejected: 2,
            num_reports: 38,
            snapshot_version: 5,
            current_epoch: None,
            durable: None,
        }),
        &[0x86, 0x03, 0x28, 0x02, 0x26, 0x05, 0x00, 0x00],
    );
    // 0x86 STATUS_OK with its durable block, every option present.
    server(
        ServerMsg::StatusOk(StatusReply {
            sessions: 3,
            frames_absorbed: 40_000,
            frames_rejected: 12,
            num_reports: 39_988,
            snapshot_version: 17,
            current_epoch: Some(6),
            durable: Some(DurableProgress {
                last_checkpoint: Some(2),
                wal_segment_seq: 5,
                wal_records: 190,
                wal_frames: 40_000,
                checkpoint_failures: 1,
                wedged: true,
            }),
        }),
        &[
            0x86, 0x03, 0xC0, 0xB8, 0x02, 0x0C, 0xB4, 0xB8, 0x02, 0x11, // counters
            0x01, 0x06, // current_epoch
            0x01, // durable
            0x01, 0x02, // last_checkpoint
            0x05, 0xBE, 0x01, 0xC0, 0xB8, 0x02, 0x01, // seq, records, frames, failures
            0x01, // wedged
        ],
    );
    // ... and with no checkpoint yet, not wedged.
    server(
        ServerMsg::StatusOk(StatusReply {
            sessions: 0,
            frames_absorbed: 0,
            frames_rejected: 0,
            num_reports: 0,
            snapshot_version: 0,
            current_epoch: None,
            durable: Some(DurableProgress {
                last_checkpoint: None,
                wal_segment_seq: 0,
                wal_records: 0,
                wal_frames: 0,
                checkpoint_failures: 0,
                wedged: false,
            }),
        }),
        &[
            0x86, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        ],
    );
    // 0x88 REPL_OK: start, leader_records.
    server(
        ServerMsg::ReplOk {
            start: 17,
            leader_records: 40_000,
        },
        &[0x88, 0x11, 0xC0, 0xB8, 0x02],
    );
    // 0x89 REPL_REC: position varint, then the WAL record body verbatim.
    server(
        ServerMsg::ReplRecord {
            position: 190,
            body: vec![0x02, 0x29],
        },
        &[0x89, 0xBE, 0x01, 0x02, 0x29],
    );
    // 0x7F ERROR with an index: code, flag + index, detail_len, detail.
    server(
        ServerMsg::Error(RemoteError::new(ErrorCode::BadFrame, Some(17), "bad")),
        &[0x7F, 0x05, 0x01, 0x11, 0x03, b'b', b'a', b'd'],
    );
    // ... and without one, empty detail.
    server(
        ServerMsg::Error(RemoteError::new(ErrorCode::ReplUnavailable, None, "")),
        &[0x7F, 0x0D, 0x00, 0x00],
    );
}

#[test]
fn every_error_code_has_one_pinned_byte() {
    let codes = [
        (ErrorCode::Protocol, 0u8),
        (ErrorCode::UnsupportedProto, 1),
        (ErrorCode::KindMismatch, 2),
        (ErrorCode::WireVersionMismatch, 3),
        (ErrorCode::EpochModeMismatch, 4),
        (ErrorCode::BadFrame, 5),
        (ErrorCode::EpochMismatch, 6),
        (ErrorCode::BadQuery, 7),
        (ErrorCode::EmptyWindow, 8),
        (ErrorCode::BadState, 9),
        (ErrorCode::ShuttingDown, 10),
        (ErrorCode::Internal, 11),
        (ErrorCode::IdleTimeout, 12),
        (ErrorCode::ReplUnavailable, 13),
    ];
    for (code, byte) in codes {
        server(
            ServerMsg::Error(RemoteError::new(code, None, "")),
            &[0x7F, byte, 0x00, 0x00],
        );
    }
}

#[test]
fn every_wal_record_has_one_pinned_encoding() {
    // 0x01 FRAMES: wire_version, count varint, frames verbatim.
    record(
        WalRecord::Frames {
            wire_version: 1,
            count: 3,
            frames: vec![0xAB; 5],
        },
        &[0x01, 0x01, 0x03, 0xAB, 0xAB, 0xAB, 0xAB, 0xAB],
    );
    record(
        WalRecord::Frames {
            wire_version: 2,
            count: 0,
            frames: Vec::new(),
        },
        &[0x01, 0x02, 0x00],
    );
    // 0x02 SEAL: epoch varint. 0x03 CHECKPOINT: id varint.
    record(WalRecord::Seal { epoch: 41 }, &[0x02, 0x29]);
    record(WalRecord::Checkpoint { id: 300 }, &[0x03, 0xAC, 0x02]);

    // The framing around a body: len(4B LE), crc32(4B LE), body.
    let framed = WalRecord::Seal { epoch: 41 }.encode_framed();
    let crc = crc32(&[0x02, 0x29]).to_le_bytes();
    assert_eq!(framed, concat(&[&[0x02, 0, 0, 0], &crc, &[0x02, 0x29]]));
    assert_eq!(
        decode_framed(&framed),
        Ok((WalRecord::Seal { epoch: 41 }, framed.len()))
    );
}

/// A FRAMES record long enough to take the checksum through several
/// 16-byte steps plus a byte tail, framed bytes written out in full. The
/// CRC here comes from an independent CRC-32 (Python's `zlib.crc32`), not
/// from `crc32`, so a kernel that agrees only with itself fails.
#[test]
fn a_long_frames_record_has_literal_framed_bytes() {
    let rec = WalRecord::Frames {
        wire_version: 1,
        count: 4,
        frames: (0u8..48).collect(),
    };
    #[rustfmt::skip]
    let pinned: [u8; 59] = [
        0x33, 0x00, 0x00, 0x00, // len = 51
        0x9B, 0x9B, 0x46, 0xC1, // crc32 = 0xC146_9B9B
        0x01, 0x01, 0x04,       // FRAMES, wire v1, count 4
        0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
        0x08, 0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x0E, 0x0F,
        0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x17,
        0x18, 0x19, 0x1A, 0x1B, 0x1C, 0x1D, 0x1E, 0x1F,
        0x20, 0x21, 0x22, 0x23, 0x24, 0x25, 0x26, 0x27,
        0x28, 0x29, 0x2A, 0x2B, 0x2C, 0x2D, 0x2E, 0x2F,
    ];
    assert_eq!(rec.encode_framed(), pinned);
    assert_eq!(decode_framed(&pinned), Ok((rec, pinned.len())));

    // The append path checksums head ++ tail without concatenating them;
    // it must land the same bytes.
    let dir = scratch_dir("golden-wal-long").unwrap();
    let mut writer = WalWriter::create(&dir, 0, 1 << 20, FsyncPolicy::Never).unwrap();
    writer.append_frames(1, 4, &pinned[11..]).unwrap();
    writer.sync().unwrap();
    let on_disk = std::fs::read(segment_path(&dir, 0)).unwrap();
    assert_eq!(on_disk[SEGMENT_HEADER_BYTES as usize..], pinned);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The borrowed fast paths write the same FRAMES head as the owned
/// codecs: REPORT's count varint, and WAL FRAMES' wire version + count.
#[test]
fn fast_paths_write_the_pinned_frames_head() {
    let frames = [0x5Au8; 7];
    let pinned = concat(&[&[0x02, 0x03], &frames]);
    assert_eq!(encode_report_body(3, &frames), pinned);
    let mut socket = Vec::new();
    write_report(&mut socket, 3, &frames).unwrap();
    assert_eq!(
        socket,
        concat(&[&(pinned.len() as u32).to_le_bytes(), &pinned])
    );

    let dir = scratch_dir("golden-wal").unwrap();
    let mut writer = WalWriter::create(&dir, 0, 1 << 20, FsyncPolicy::Never).unwrap();
    writer.append_frames(2, 3, &frames).unwrap();
    writer.sync().unwrap();
    let body = concat(&[&[0x01, 0x02, 0x03], &frames]);
    let on_disk = std::fs::read(segment_path(&dir, 0)).unwrap();
    assert_eq!(
        on_disk[SEGMENT_HEADER_BYTES as usize..],
        concat(&[
            &(body.len() as u32).to_le_bytes(),
            &crc32(&body).to_le_bytes(),
            &body
        ])[..]
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

// --- one hostile body per validation rule -------------------------------

#[test]
fn handshake_magic_and_proto_version_are_checked() {
    for body in [
        &[0x01, b'X', b'Y', 0x01, 0x03, 0x01, 0x00][..],
        &[0x08, b'X', b'Y', 0x01, 0x00],
    ] {
        assert_eq!(ClientMsg::decode(body), Err(WireError::BadMagic(*b"XY")));
    }
    for body in [
        &[0x01, b'L', b'N', 0x02, 0x03, 0x01, 0x00][..],
        &[0x08, b'L', b'N', 0x02, 0x00],
    ] {
        assert_eq!(
            ClientMsg::decode(body),
            Err(WireError::UnsupportedVersion(2))
        );
    }
}

#[test]
fn wire_version_must_be_one_or_two() {
    for v in [0u8, 3, 0xFF] {
        assert_eq!(
            ClientMsg::decode(&[0x01, b'L', b'N', 0x01, 0x03, v, 0x00]),
            Err(WireError::UnsupportedVersion(v))
        );
        assert_eq!(
            WalRecord::decode_body(&[0x01, v, 0x00]),
            Err(WireError::UnsupportedVersion(v))
        );
    }
    // The version is checked before anything after it is read.
    assert_eq!(
        WalRecord::decode_body(&[0x01, 0x09]),
        Err(WireError::UnsupportedVersion(9))
    );
}

#[test]
fn zero_epoch_window_is_rejected_before_the_op() {
    let zero = malformed("zero-epoch window");
    assert_eq!(
        ClientMsg::decode(&[0x03, 0x01, 0x00, 0x01, 0x05]),
        Err(zero.clone())
    );
    assert_eq!(ClientMsg::decode(&[0x03, 0x01, 0x00]), Err(zero));
}

#[test]
fn range_bounds_must_be_ordered() {
    assert_eq!(
        ClientMsg::decode(&[0x03, 0x00, 0x00, 0x05, 0x04]),
        Err(malformed("range lower bound above upper"))
    );
}

#[test]
fn quantile_phi_must_be_finite_and_in_the_unit_interval() {
    for phi in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5, 1.5] {
        assert_eq!(
            ClientMsg::decode(&concat(&[&[0x03, 0x00, 0x03], &f64_le(phi)])),
            Err(malformed("quantile phi outside [0, 1]")),
            "phi {phi}"
        );
    }
}

#[test]
fn unknown_op_and_result_tags_are_rejected() {
    assert_eq!(
        ClientMsg::decode(&[0x03, 0x00, 0x04, 0x00]),
        Err(malformed("unknown query op"))
    );
    assert_eq!(
        ServerMsg::decode(&[0x83, 0x02]),
        Err(malformed("unknown query result tag"))
    );
    assert_eq!(
        ServerMsg::decode(&[0x7F, 0x0E, 0x00, 0x00]),
        Err(malformed("unknown error code"))
    );
}

#[test]
fn replication_record_body_must_be_non_empty() {
    assert_eq!(
        ServerMsg::decode(&[0x89, 0x00]),
        Err(malformed("empty replication record body"))
    );
    assert_eq!(ServerMsg::decode(&[0x89]), Err(WireError::Truncated));
}

#[test]
fn error_detail_is_capped_and_utf8() {
    // 1025 declared bytes: one over the cap, rejected before the read.
    assert_eq!(
        ServerMsg::decode(&[0x7F, 0x00, 0x00, 0x81, 0x08]),
        Err(malformed("error detail over cap"))
    );
    // Exactly at the cap is legal.
    let at_cap = concat(&[&[0x7F, 0x00, 0x00, 0x80, 0x08], &[b'x'; 1024]]);
    assert!(matches!(
        ServerMsg::decode(&at_cap),
        Ok(ServerMsg::Error(_))
    ));
    assert_eq!(
        ServerMsg::decode(&[0x7F, 0x00, 0x00, 0x01, 0xFF]),
        Err(malformed("error detail is not UTF-8"))
    );
    assert_eq!(
        ServerMsg::decode(&[0x7F, 0x00, 0x00, 0x02, b'x']),
        Err(WireError::Truncated)
    );
}

#[test]
fn frame_count_must_fit_the_payload() {
    let over = malformed("frame count exceeds payload");
    assert_eq!(
        ClientMsg::decode(&[0x02, 0x05, 0xAA, 0xAA, 0xAA, 0xAA]),
        Err(over.clone())
    );
    assert_eq!(
        WalRecord::decode_body(&[0x01, 0x01, 0x05, 0xAA, 0xAA, 0xAA, 0xAA]),
        Err(over)
    );
    // count == payload bytes is the boundary, and legal.
    assert!(ClientMsg::decode(&[0x02, 0x02, 0xAA, 0xAA]).is_ok());
}

#[test]
fn flags_are_strict_zero_or_one() {
    let flag = malformed("flag byte not 0/1");
    for body in [
        &[0x01, b'L', b'N', 0x01, 0x03, 0x01, 0x02][..], // HELLO windowed
        &[0x03, 0x02, 0x00, 0x00, 0x00],                 // QUERY window flag
    ] {
        assert_eq!(ClientMsg::decode(body), Err(flag.clone()), "{body:02x?}");
    }
    for body in [
        &[0x81, 0x01, 0x01, 0x02, 0x00][..],         // HELLO_OK windowed
        &[0x86, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02], // STATUS_OK epoch flag
        &[0x86, 0, 0, 0, 0, 0, 0, 0x01, 0x00, 0, 0, 0, 0, 0x02], // STATUS_OK wedged
        &[0x7F, 0x00, 0x02, 0x00],                   // ERROR index flag
    ] {
        assert_eq!(ServerMsg::decode(body), Err(flag.clone()), "{body:02x?}");
    }
}

#[test]
fn unknown_types_trailing_bytes_and_empty_bodies() {
    assert_eq!(
        ClientMsg::decode(&[0x66]),
        Err(WireError::UnknownKind(0x66))
    );
    assert_eq!(
        ServerMsg::decode(&[0x66]),
        Err(WireError::UnknownKind(0x66))
    );
    assert_eq!(
        WalRecord::decode_body(&[0x66]),
        Err(WireError::UnknownKind(0x66))
    );
    // A client type byte is unknown to the server codec and vice versa.
    assert_eq!(
        ClientMsg::decode(&[0x85]),
        Err(WireError::UnknownKind(0x85))
    );
    assert_eq!(
        ServerMsg::decode(&[0x05]),
        Err(WireError::UnknownKind(0x05))
    );
    assert_eq!(ClientMsg::decode(&[]), Err(WireError::Truncated));
    assert_eq!(ServerMsg::decode(&[]), Err(WireError::Truncated));
    assert_eq!(WalRecord::decode_body(&[]), Err(WireError::Truncated));
    assert_eq!(
        ClientMsg::decode(&[0x04, 0x00]),
        Err(malformed("trailing bytes after message"))
    );
    assert_eq!(
        ServerMsg::decode(&[0x84, 0x09, 0x00]),
        Err(malformed("trailing bytes after message"))
    );
    assert_eq!(
        WalRecord::decode_body(&[0x02, 0x29, 0x00]),
        Err(malformed("trailing bytes after record"))
    );
    // A varint past 64 bits.
    assert_eq!(
        ClientMsg::decode(&[0x09, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02]),
        Err(WireError::BadVarint)
    );
}

/// Every varint is read in its shortest form only: a final `0x00` byte
/// after a continuation byte adds nothing but a second encoding of the
/// same value, so each reader refuses it — in a session message, a WAL
/// record and a report frame alike.
#[test]
fn overlong_varints_are_refused() {
    // REPL_ACK's acked, SEAL's epoch and REPLICATE's start, each widened.
    for body in [
        &[0x09, 0x80, 0x00][..],
        &[0x09, 0xB9, 0xE0, 0x00],
        &[0x08, b'L', b'N', 0x01, 0xAC, 0x82, 0x00],
    ] {
        assert_eq!(
            ClientMsg::decode(body),
            Err(WireError::BadVarint),
            "{body:02x?}"
        );
    }
    assert_eq!(
        WalRecord::decode_body(&[0x02, 0xA9, 0x00]),
        Err(WireError::BadVarint)
    );
    // A ten-byte varint whose last byte adds no bit.
    let mut ten = vec![0x09];
    ten.extend([0xFF; 9]);
    ten.push(0x00);
    assert_eq!(ClientMsg::decode(&ten), Err(WireError::BadVarint));
    // The shortest forms next to them still decode: 0x80 0x01 is 128.
    client(ClientMsg::ReplAck { acked: 128 }, &[0x09, 0x80, 0x01]);
    client(ClientMsg::ReplAck { acked: 0 }, &[0x09, 0x00]);

    // A flat HRR frame over D = 16 (tag 2, domain 16, index 3, sign +1),
    // then the same frame with either body varint widened by `0x80 0x00`.
    let hrr = |body: &[u8]| decode_frame::<AnyReport>(&concat(&[b"LQ\x01\x00", body]));
    let (report, used) = hrr(&[0x02, 0x10, 0x03, 0x01]).expect("canonical frame");
    assert_eq!(used, 8);
    assert_eq!(report.to_frame(), b"LQ\x01\x00\x02\x10\x03\x01");
    for widened in [
        &[0x02, 0x90, 0x00, 0x03, 0x01][..],
        &[0x02, 0x10, 0x83, 0x00, 0x01],
    ] {
        assert_eq!(
            hrr(widened).err(),
            Some(WireError::BadVarint),
            "{widened:02x?}"
        );
    }
}

/// Report frames' oracle tag 3 (SUE) is retired: a tag-3 body — SUE's
/// old unary body included — is refused flat, inside an `HH_B` frame and
/// behind an epoch, while the same body under tag 0 (OUE) decodes; and a
/// SUE report encodes to the bare retired tag.
#[test]
fn retired_oracle_tag_3_is_refused() {
    // Tag, then a unary body: D = 4, one word with bits {0, 2}.
    let unary = |tag: u8| concat(&[&[tag, 0x04, 0x05], &[0; 7]]);
    for head in [
        &b"LQ\x01\x00"[..],     // v1 flat
        &b"LQ\x02\x00\x09"[..], // v2 flat, epoch 9
    ] {
        let (_, report, _) = decode_epoch_frame::<AnyReport>(&concat(&[head, &unary(0)])).unwrap();
        assert!(matches!(report, AnyReport::Oue(_)));
        assert_eq!(
            decode_epoch_frame::<AnyReport>(&concat(&[head, &unary(3)])).err(),
            Some(WireError::UnknownOracleTag(3)),
            "{head:02x?}"
        );
    }
    // v1 HH_B at depth 1.
    let hh = |tag: u8| concat(&[b"LQ\x01\x01\x01", &unary(tag)]);
    assert!(decode_frame::<HhReport>(&hh(0)).is_ok());
    assert_eq!(
        decode_frame::<HhReport>(&hh(3)).err(),
        Some(WireError::UnknownOracleTag(3))
    );
    let sue = AnyReport::Sue(OueReport::from_words(4, vec![0b101]));
    assert_eq!(sue.to_frame(), b"LQ\x01\x00\x03");
}

/// The fixed-width heads a framed WAL record, a segment file and a
/// checkpoint file open with: each short, misidentified or corrupt head
/// has one exact error.
#[test]
fn storage_heads_are_checked_field_by_field() {
    // Record framing: len(4B LE), crc32(4B LE), body.
    let framed = WalRecord::Seal { epoch: 41 }.encode_framed();
    assert_eq!(decode_framed(&framed[..7]), Err(WireError::Truncated));
    assert_eq!(decode_framed(&[0; 8]), Err(WireError::SizeOverCap(0)));
    assert_eq!(
        decode_framed(&[0xFF; 8]),
        Err(WireError::SizeOverCap(u64::from(u32::MAX)))
    );
    assert_eq!(decode_framed(&framed[..9]), Err(WireError::Truncated));
    let mut bad_crc = framed.clone();
    bad_crc[4] ^= 0x01;
    assert_eq!(
        decode_framed(&bad_crc),
        Err(malformed("record CRC mismatch"))
    );

    // Segment header: magic "LDPW", version 1, seq(8B LE).
    let head = concat(&[b"LDPW", &[0x01], &7u64.to_le_bytes()]);
    assert_eq!(check_segment_header(&head, 7), Ok(SEGMENT_HEADER_BYTES));
    assert_eq!(
        check_segment_header(&head[..12], 7),
        Err(WireError::Truncated)
    );
    assert_eq!(
        check_segment_header(&concat(&[b"XYPW", &head[4..]]), 7),
        Err(WireError::BadMagic(*b"XY"))
    );
    assert_eq!(
        check_segment_header(&concat(&[b"LDPW", &[0x02], &head[5..]]), 7),
        Err(WireError::UnsupportedVersion(2))
    );
    assert_eq!(
        check_segment_header(&head, 8),
        Err(malformed("segment header seq != filename seq"))
    );

    // Checkpoint head: magic "LDPK", version 1, crc32(4B LE) over the rest.
    let ckpt = encode_checkpoint(&Checkpoint {
        id: 1,
        replay_from_seq: 0,
        state: vec![0xAB; 20],
    });
    assert_eq!(&ckpt[..5], b"LDPK\x01");
    assert_eq!(ckpt[5..9], crc32(&ckpt[9..]).to_le_bytes());
    assert_eq!(decode_checkpoint(&ckpt[..8]), Err(WireError::Truncated));
    assert_eq!(
        decode_checkpoint(&concat(&[b"XYPK", &ckpt[4..]])),
        Err(WireError::BadMagic(*b"XY"))
    );
    assert_eq!(
        decode_checkpoint(&concat(&[b"LDPK", &[0x02], &ckpt[5..]])),
        Err(WireError::UnsupportedVersion(2))
    );
    let mut bad_crc = ckpt.clone();
    bad_crc[5] ^= 0x01;
    assert_eq!(
        decode_checkpoint(&bad_crc),
        Err(malformed("checkpoint CRC mismatch"))
    );
}
