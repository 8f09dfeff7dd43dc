//! Property tests for the session-message codecs, mirroring
//! `wire_roundtrip.rs` one layer up: every message encodes → decodes →
//! re-encodes to identical bytes, and decoding arbitrary byte soup never
//! panics (Ok or Err, nothing else).

use proptest::prelude::*;

use ldp_service::net::proto::{
    ClientMsg, DurableProgress, ErrorCode, Hello, HelloOk, Query, QueryOp, QueryReply, QueryResult,
    RemoteError, ReportBatch, ServerMsg, StatusReply,
};
use ldp_service::net::{WIRE_EPOCH, WIRE_V1};

fn roundtrip_client(msg: &ClientMsg) {
    let body = msg.encode();
    let decoded = ClientMsg::decode(&body).expect("decode own encoding");
    assert_eq!(&decoded, msg);
    assert_eq!(decoded.encode(), body, "re-encode produced different bytes");
}

fn roundtrip_server(msg: &ServerMsg) {
    let body = msg.encode();
    let decoded = ServerMsg::decode(&body).expect("decode own encoding");
    assert_eq!(&decoded, msg);
    assert_eq!(decoded.encode(), body, "re-encode produced different bytes");
}

/// One query per op tag in `QueryOp::TYPES`, built from numeric
/// parameters.
fn queries(a: u64, b: u64, phi_milli: u64, window: u64) -> Vec<Query> {
    let (lo, hi) = (a.min(b), a.max(b));
    let window = (window > 0).then_some(window);
    QueryOp::TYPES
        .iter()
        .map(|&tag| {
            let op = match tag {
                0 => QueryOp::Range { a: lo, b: hi },
                1 => QueryOp::Prefix { b: hi },
                2 => QueryOp::Point { z: a },
                3 => QueryOp::Quantile {
                    phi: (phi_milli % 1001) as f64 / 1000.0,
                },
                t => unreachable!("query op {t} has no generator"),
            };
            Query { op, window }
        })
        .collect()
}

/// Every error code, read back through the one `ErrorCode` table.
fn codes() -> Vec<ErrorCode> {
    ErrorCode::TYPES
        .iter()
        .map(|&c| match ServerMsg::decode(&[ServerMsg::ERROR, c, 0, 0]) {
            Ok(ServerMsg::Error(e)) => e.code,
            other => panic!("error code {c}: {other:?}"),
        })
        .collect()
}

proptest! {
    /// Every live client type byte, every case: a type byte added to the
    /// table without a generator here fails the test.
    #[test]
    fn client_messages_roundtrip(
        kind in 0u64..6,
        wire_v2 in 0u64..2,
        windowed in 0u64..2,
        a in 0u64..u64::MAX,
        b in 0u64..u64::MAX,
        phi_milli in 0u64..5_000,
        window in 0u64..1_000,
        frames in proptest::collection::vec(0u64..256, 0..64),
    ) {
        for &type_byte in ClientMsg::TYPES {
            let msgs = match type_byte {
                ClientMsg::HELLO => vec![ClientMsg::Hello(Hello {
                    kind: kind as u8,
                    wire_version: if wire_v2 == 1 { WIRE_EPOCH } else { WIRE_V1 },
                    windowed: windowed == 1,
                })],
                ClientMsg::REPORT => {
                    let frames: Vec<u8> = frames.iter().map(|&x| x as u8).collect();
                    // The codec enforces count ≤ payload bytes.
                    let count = a % (frames.len() as u64 + 1);
                    vec![ClientMsg::Report(ReportBatch { count, frames })]
                }
                ClientMsg::QUERY => queries(a, b, phi_milli, window)
                    .into_iter()
                    .map(ClientMsg::Query)
                    .collect(),
                ClientMsg::SEAL => vec![ClientMsg::Seal],
                ClientMsg::BYE => vec![ClientMsg::Bye],
                ClientMsg::STATUS => vec![ClientMsg::Status],
                ClientMsg::REPLICATE => vec![ClientMsg::Replicate { start: a }],
                ClientMsg::REPL_ACK => vec![ClientMsg::ReplAck { acked: b }],
                t => unreachable!("client type 0x{t:02X} has no generator"),
            };
            for msg in &msgs {
                prop_assert_eq!(msg.encode()[0], type_byte);
                roundtrip_client(msg);
            }
        }
    }

    /// Every live server type byte, every case, with both `QueryResult`
    /// arms and STATUS_OK with and without its durable block.
    #[test]
    fn server_messages_roundtrip(
        kind in 0u64..6,
        windowed in 0u64..2,
        x in 0u64..u64::MAX,
        y in 0u64..u64::MAX,
        code_idx in 0usize..64,
        has_index in 0u64..2,
        detail_len in 0usize..64,
        body in proptest::collection::vec(0u64..256, 1..48),
    ) {
        let codes = codes();
        let window = (windowed == 1).then_some((x.min(y), x.max(y)));
        for &type_byte in ServerMsg::TYPES {
            let msgs = match type_byte {
                ServerMsg::HELLO_OK => vec![ServerMsg::HelloOk(HelloOk {
                    kind: kind as u8,
                    wire_version: if windowed == 1 { WIRE_EPOCH } else { WIRE_V1 },
                    windowed: windowed == 1,
                    domain: x,
                })],
                ServerMsg::REPORT_OK => vec![ServerMsg::ReportOk { accepted: x }],
                ServerMsg::QUERY_OK => QueryResult::TYPES
                    .iter()
                    .map(|&arm| {
                        let result = match arm {
                            // Any finite fraction round-trips through its bits.
                            0 => QueryResult::Fraction((x as f64) / ((y as f64) + 1.0)),
                            1 => QueryResult::Index(y),
                            t => unreachable!("query result {t} has no generator"),
                        };
                        ServerMsg::QueryOk(QueryReply {
                            result,
                            version: x,
                            num_reports: y,
                            window,
                        })
                    })
                    .collect(),
                ServerMsg::SEAL_OK => vec![ServerMsg::SealOk { epoch: x }],
                ServerMsg::BYE_OK => vec![ServerMsg::ByeOk],
                ServerMsg::STATUS_OK => {
                    let durable = DurableProgress {
                        last_checkpoint: (has_index == 1).then_some(y),
                        wal_segment_seq: x,
                        wal_records: y,
                        wal_frames: x ^ y,
                        checkpoint_failures: x % 7,
                        wedged: windowed == 1,
                    };
                    [None, Some(durable)]
                        .into_iter()
                        .map(|durable| {
                            ServerMsg::StatusOk(StatusReply {
                                sessions: x,
                                frames_absorbed: y,
                                frames_rejected: x / 3,
                                num_reports: y / 3,
                                snapshot_version: x ^ y,
                                current_epoch: window.map(|(first, _)| first),
                                durable,
                            })
                        })
                        .collect()
                }
                ServerMsg::REPL_OK => vec![ServerMsg::ReplOk {
                    start: x.min(y),
                    leader_records: x.max(y),
                }],
                ServerMsg::REPL_REC => vec![ServerMsg::ReplRecord {
                    position: x,
                    // The codec enforces a non-empty record body.
                    body: body.iter().map(|&b| b as u8).collect(),
                }],
                ServerMsg::ERROR => vec![ServerMsg::Error(RemoteError::new(
                    codes[code_idx % codes.len()],
                    (has_index == 1).then_some(x),
                    "e".repeat(detail_len),
                ))],
                t => unreachable!("server type 0x{t:02X} has no generator"),
            };
            for msg in &msgs {
                prop_assert_eq!(msg.encode()[0], type_byte);
                roundtrip_server(msg);
            }
        }
    }

    /// Totality fuzz: arbitrary byte soup must produce Ok or Err from
    /// both decoders, never a panic — bare, and grafted behind each
    /// valid message-type byte so every payload parser gets fuzzed.
    #[test]
    fn arbitrary_bytes_never_panic_the_codecs(
        bytes in proptest::collection::vec(0u64..256, 0..96),
        type_byte in 0u64..256,
    ) {
        let soup: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        let _ = ClientMsg::decode(&soup);
        let _ = ServerMsg::decode(&soup);

        let mut framed = vec![type_byte as u8];
        framed.extend_from_slice(&soup);
        let _ = ClientMsg::decode(&framed);
        let _ = ServerMsg::decode(&framed);
    }

    /// The REPLICATE codec at every truncation split: valid stream
    /// messages cut at every byte boundary must decode to Err (never a
    /// panic, never a bogus Ok shorter than the original), and the
    /// surviving full messages round-trip — the leader's stream can die
    /// mid-envelope at any offset, and the follower's parser must treat
    /// every cut as a clean torn tail.
    #[test]
    fn replication_messages_survive_every_truncation(
        start in 0u64..u64::MAX,
        position in 0u64..u64::MAX,
        acked in 0u64..u64::MAX,
        body in proptest::collection::vec(0u64..256, 1..64),
    ) {
        let client_msgs = [
            ClientMsg::Replicate { start },
            ClientMsg::ReplAck { acked },
        ];
        for msg in &client_msgs {
            roundtrip_client(msg);
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                prop_assert!(ClientMsg::decode(&bytes[..cut]).is_err());
            }
        }
        let server_msgs = [
            ServerMsg::ReplOk { start, leader_records: start.saturating_add(position) },
            ServerMsg::ReplRecord {
                position,
                body: body.iter().map(|&b| b as u8).collect(),
            },
        ];
        for msg in &server_msgs {
            roundtrip_server(msg);
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                // A REPL_REC body is delimited by the envelope, so a cut
                // inside it *is* a valid shorter record — acceptable only
                // if byte-exact self-consistent; everything else must be
                // a clean decode error.
                if let Ok(decoded) = ServerMsg::decode(&bytes[..cut]) {
                    prop_assert_eq!(decoded.encode(), &bytes[..cut]);
                    prop_assert!(matches!(decoded, ServerMsg::ReplRecord { .. }));
                }
            }
        }
    }
}
