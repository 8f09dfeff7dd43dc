//! Event-loop behaviors the blocking engine could not provide: slow or
//! stalled clients must not impede other sessions (one loop serves many
//! sockets because readiness, not a thread, owns each connection),
//! pipelined requests are answered in order without a round trip per
//! message — and without waiting a poll tick per inbox-cap slice — idle
//! sessions are evicted with a typed error, the portable fallback poller
//! serves the identical protocol, sessions and span ids are accounted
//! once across loops, and shutdown stays bounded even with a peer frozen
//! mid-frame.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ldp_freq_oracle::Epsilon;
use ldp_ranges::{HhClient, HhConfig, HhReport, HhServer};
use ldp_service::net::proto::{
    encode_report_body, read_message, write_message, write_report, ServerMsg,
};
use ldp_service::net::{ErrorCode, Hello, NetConfig};
use ldp_service::obs::instruments::names;
use ldp_service::obs::{TraceRing, TraceStage};
use ldp_service::{EncodedStream, LdpClient, LdpServer, LdpService};
use rand::rngs::StdRng;
use rand::SeedableRng;

type HhService = Arc<LdpService<HhServer>>;

fn hh_fixture(config: NetConfig) -> (HhClient, HhService, LdpServer<HhServer>) {
    let hh = HhConfig::new(64, 4, Epsilon::new(1.1)).unwrap();
    let client = HhClient::new(hh.clone()).unwrap();
    let prototype = HhServer::new(hh).unwrap();
    let service = Arc::new(LdpService::new(&prototype, 2).unwrap());
    let server = LdpServer::bind("127.0.0.1:0", Arc::clone(&service), config).unwrap();
    (client, service, server)
}

fn frames(client: &HhClient, n: usize, seed: u64) -> EncodedStream {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stream = EncodedStream::new();
    for i in 0..n {
        stream.push(&client.report(i % 64, &mut rng).unwrap());
    }
    stream
}

/// A slow-loris peer dribbling one byte every 10 ms must not delay a
/// well-behaved session — even with a single event loop, because a
/// session occupies its loop only while a *complete* message executes.
/// (The blocking engine parked its one worker on the loris forever.)
#[test]
fn slow_loris_does_not_stall_other_sessions() {
    let (client, _service, server) = hh_fixture(NetConfig {
        workers: 1,
        ..NetConfig::default()
    });
    let addr = server.local_addr();

    // The loris: a valid HELLO envelope, one byte per 10 ms, from a
    // thread. ~50 bytes means it is still mid-envelope while the
    // well-behaved session below does all of its work.
    let hello_env = {
        let body = ldp_service::net::proto::ClientMsg::Hello(Hello::plain::<HhReport>()).encode();
        let mut env = (u32::try_from(body.len()).unwrap()).to_le_bytes().to_vec();
        env.extend_from_slice(&body);
        env
    };
    let loris = std::thread::spawn(move || {
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        for b in hello_env {
            if raw.write_all(&[b]).is_err() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        // Keep the socket open (mid-session, quiescent) until the server
        // shuts down underneath it.
        std::thread::sleep(Duration::from_secs(5));
    });

    // Cross-session progress, measured while the loris is dribbling.
    let started = Instant::now();
    let mut session = LdpClient::connect(addr, Hello::plain::<HhReport>()).unwrap();
    let acked = session.send_stream(&frames(&client, 100, 7), 10).unwrap();
    assert_eq!(acked, 100);
    let reply = session.range(0, 63).unwrap();
    assert_eq!(reply.num_reports, 100);
    session.bye().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "well-behaved session starved behind a slow-loris peer"
    );

    let stats = server.shutdown();
    assert_eq!(stats.frames_absorbed, 100);
    assert_eq!(stats.num_reports, 100);
    // Both sessions are accounted for: the clean BYE and the abandoned
    // loris.
    assert_eq!(stats.sessions, 2);
    loris.join().unwrap();
}

/// A peer frozen mid-frame cannot hold shutdown hostage: the drain
/// abandons it after `drain_patience` ticks without progress, and the
/// frames acked to well-behaved sessions are still accounted exactly.
#[test]
fn mid_frame_stall_keeps_shutdown_bounded() {
    let (client, _service, server) = hh_fixture(NetConfig {
        idle_poll: Duration::from_millis(10),
        drain_patience: 20,
        ..NetConfig::default()
    });
    let addr = server.local_addr();

    // A clean session absorbs 20 frames.
    let mut session = LdpClient::connect(addr, Hello::plain::<HhReport>()).unwrap();
    assert_eq!(
        session.send_stream(&frames(&client, 20, 11), 5).unwrap(),
        20
    );
    session.bye().unwrap();

    // The staller: negotiated, then a REPORT envelope that declares 100
    // bytes and delivers 10, then silence — but the socket stays open,
    // so there is no EOF to save the server.
    let staller = LdpClient::connect(addr, Hello::plain::<HhReport>()).unwrap();
    let mut stalled = staller.into_stream();
    stalled.write_all(&100u32.to_le_bytes()).unwrap();
    stalled.write_all(&[0xAB; 10]).unwrap();

    let started = Instant::now();
    let stats = server.shutdown();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "drain took {elapsed:?} with a mid-frame staller (patience is ~200ms)"
    );
    assert_eq!(stats.frames_absorbed, 20);
    assert_eq!(stats.num_reports, 20, "acked frames ≡ num_reports");
    assert_eq!(stats.sessions, 2);
    drop(stalled);
}

/// With an idle timeout configured, a dead-quiet session is evicted
/// with a typed `IdleTimeout` error — and the server keeps serving
/// everyone else.
#[test]
fn idle_sessions_are_evicted_with_a_typed_error() {
    let (client, _service, server) = hh_fixture(NetConfig {
        idle_poll: Duration::from_millis(10),
        idle_timeout: Some(Duration::from_millis(150)),
        ..NetConfig::default()
    });
    let addr = server.local_addr();

    // Negotiate, then go quiet. The eviction must arrive as a typed
    // error, not a silent close.
    let idler =
        LdpClient::connect_with(addr, Hello::plain::<HhReport>(), Duration::from_secs(10)).unwrap();
    let mut idle_stream = idler.into_stream();
    let body = read_message(&mut idle_stream).expect("eviction sends a reply before closing");
    let ServerMsg::Error(e) = ServerMsg::decode(&body).unwrap() else {
        panic!("expected a typed eviction error");
    };
    assert_eq!(e.code, ErrorCode::IdleTimeout);
    // The server closed the connection after the error.
    let mut rest = Vec::new();
    assert_eq!(idle_stream.read_to_end(&mut rest).unwrap_or(0), 0);

    // The server is still live for an active session — one that keeps
    // making requests is never idle, so it is never evicted.
    let mut session = LdpClient::connect(addr, Hello::plain::<HhReport>()).unwrap();
    for chunk in 0..4 {
        assert_eq!(
            session
                .send_stream(&frames(&client, 10, 100 + chunk), 10)
                .unwrap(),
            10
        );
        std::thread::sleep(Duration::from_millis(60));
    }
    session.bye().unwrap();

    let stats = server.shutdown();
    assert_eq!(stats.frames_absorbed, 40);
    assert_eq!(stats.sessions, 2);
}

/// Regression: a session whose replies are still being flushed is not
/// "idle". The client pipelines 16 MiB worth of STATUS replies and then
/// goes quiet for twice the idle timeout *without reading* — the
/// server's outbound buffer (and the kernel's) are full of its replies
/// the whole time, so evicting it would drop acked work. Every reply
/// must still arrive, and because flushing them is write progress (which
/// stamps the eviction clock), the session must answer a STATUS sent
/// right after the drain.
#[test]
fn pending_replies_shield_a_session_from_idle_eviction() {
    let (_client, _service, server) = hh_fixture(NetConfig {
        idle_poll: Duration::from_millis(10),
        idle_timeout: Some(Duration::from_millis(300)),
        ..NetConfig::default()
    });
    let addr = server.local_addr();

    // Size one STATUS reply (allowed before HELLO), then pipeline enough
    // of them that their replies cannot fit in kernel socket buffers
    // even with autotuning — the server must hold the overflow across
    // the quiet period.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    let mut replies = std::io::BufReader::new(stream.try_clone().unwrap());
    let request = ldp_service::net::proto::ClientMsg::Status.encode();
    write_message(&mut stream, &request).unwrap();
    let reply_len = read_message(&mut replies).unwrap().len() + 4;
    let n = (16 << 20) / reply_len + 1;
    // Built by doubling, not message by message: a per-message loop takes
    // about the 300 ms idle timeout in a debug build, and the session,
    // quiet since its first reply, was sometimes evicted before the
    // burst left.
    let mut one = (u32::try_from(request.len()).unwrap())
        .to_le_bytes()
        .to_vec();
    one.extend_from_slice(&request);
    let burst = one.repeat(n);
    // The requests are megabytes too: once the server sheds read
    // interest behind its full output queue, the rest of the burst waits
    // in the kernel, so it is written from its own thread.
    let mut writer = stream.try_clone().unwrap();
    let burst = std::thread::spawn(move || writer.write_all(&burst));

    // Dead quiet for 2× the idle timeout, replies pending throughout.
    std::thread::sleep(Duration::from_millis(600));

    for k in 0..n {
        let body = read_message(&mut replies)
            .unwrap_or_else(|e| panic!("reply {k} of {n} lost after the idle sleep: {e}"));
        match ServerMsg::decode(&body).unwrap() {
            ServerMsg::StatusOk(_) => {}
            other => panic!("reply {k} of {n}: expected STATUS_OK, got {other:?}"),
        }
    }
    burst.join().unwrap().unwrap();

    // The drain itself refreshed the eviction clock: the session still
    // answers, then closes cleanly.
    write_message(
        &mut stream,
        &ldp_service::net::proto::ClientMsg::Status.encode(),
    )
    .unwrap();
    let body = read_message(&mut replies).unwrap();
    assert!(matches!(
        ServerMsg::decode(&body).unwrap(),
        ServerMsg::StatusOk(_)
    ));
    write_message(
        &mut stream,
        &ldp_service::net::proto::ClientMsg::Bye.encode(),
    )
    .unwrap();
    let body = read_message(&mut replies).unwrap();
    assert!(matches!(
        ServerMsg::decode(&body).unwrap(),
        ServerMsg::ByeOk
    ));

    let stats = server.shutdown();
    assert_eq!(stats.sessions, 1);
}

/// The portable fallback poller (the non-Linux code path, forced here)
/// serves the identical protocol: same acks, same estimates as the
/// in-process snapshot of the very service behind the server.
#[test]
fn portable_poller_serves_identical_sessions() {
    let (client, service, server) = hh_fixture(NetConfig {
        portable_poller: true,
        ..NetConfig::default()
    });
    let addr = server.local_addr();

    let mut session = LdpClient::connect(addr, Hello::plain::<HhReport>()).unwrap();
    assert_eq!(
        session.send_stream(&frames(&client, 120, 3), 25).unwrap(),
        120
    );
    let reply = session.range(4, 40).unwrap();
    let snap = service.refresh_snapshot().unwrap();
    assert_eq!(reply.num_reports, snap.num_reports());
    let ldp_service::net::QueryResult::Fraction(over_socket) = reply.result else {
        panic!("range query answered with a non-fraction result");
    };
    assert!((over_socket - snap.range(4, 40)).abs() < 1e-12);
    session.bye().unwrap();

    let stats = server.shutdown();
    assert_eq!(stats.frames_absorbed, 120);
    assert_eq!(stats.num_reports, 120);
    assert_eq!(stats.sessions, 1);
}

/// Pipelining: a client that fires batches back-to-back without reading
/// gets every reply, in order — the loop executes a session's queued
/// messages in arrival order and flushes replies in that order. The
/// burst is three times the per-session inbox cap (32 messages), and
/// the poll tick is 10 s: the loop must keep parsing and executing the
/// bytes it already holds instead of waiting a tick per slice.
#[test]
fn pipelined_reports_are_acked_in_order() {
    const BATCHES: usize = 100;
    let (client, _service, server) = hh_fixture(NetConfig {
        idle_poll: Duration::from_secs(10),
        ..NetConfig::default()
    });
    let addr = server.local_addr();

    let session = LdpClient::connect(addr, Hello::plain::<HhReport>()).unwrap();
    let mut stream = session.into_stream();

    // REPORT batches of 5 frames each, written as one burst with no
    // interleaved reads, then a BYE.
    let all = frames(&client, 5 * BATCHES, 23);
    let mut burst = Vec::new();
    for k in 0..BATCHES {
        let body = encode_report_body(5, all.frame_span(k * 5, k * 5 + 5));
        burst.extend_from_slice(&(u32::try_from(body.len()).unwrap()).to_le_bytes());
        burst.extend_from_slice(&body);
    }
    let bye = ldp_service::net::proto::ClientMsg::Bye.encode();
    burst.extend_from_slice(&(u32::try_from(bye.len()).unwrap()).to_le_bytes());
    burst.extend_from_slice(&bye);
    let started = Instant::now();
    stream.write_all(&burst).unwrap();

    for k in 0..BATCHES {
        let body = read_message(&mut stream).unwrap();
        match ServerMsg::decode(&body).unwrap() {
            ServerMsg::ReportOk { accepted } => assert_eq!(accepted, 5),
            other => panic!("pipelined REPORT {k} answered out of order: {other:?}"),
        }
    }
    let body = read_message(&mut stream).unwrap();
    assert!(matches!(
        ServerMsg::decode(&body).unwrap(),
        ServerMsg::ByeOk
    ));
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "a {BATCHES}-message burst took {elapsed:?}: slices past the inbox cap waited for a tick"
    );

    let stats = server.shutdown();
    assert_eq!(stats.frames_absorbed, 5 * BATCHES as u64);
    assert_eq!(stats.num_reports, 5 * BATCHES as u64);
    assert_eq!(stats.sessions, 1);
}

/// `write_message` / `write_report` framing sanity for this file's raw
/// bursts: the helpers and the hand-rolled envelopes agree byte for
/// byte, so the client's one-write, copy-free REPORT send changes no
/// wire byte.
#[test]
fn raw_envelope_matches_write_message() {
    let by_hand = |body: &[u8]| {
        let mut env = (u32::try_from(body.len()).unwrap()).to_le_bytes().to_vec();
        env.extend_from_slice(body);
        env
    };
    let body = ldp_service::net::proto::ClientMsg::Bye.encode();
    let mut by_helper = Vec::new();
    write_message(&mut by_helper, &body).unwrap();
    assert_eq!(by_hand(&body), by_helper);

    let hh = HhConfig::new(64, 4, Epsilon::new(1.1)).unwrap();
    let batch = frames(&HhClient::new(hh).unwrap(), 300, 5);
    for (count, span) in [(300, batch.as_bytes()), (1, batch.frame_span(0, 1))] {
        let mut by_helper = Vec::new();
        write_report(&mut by_helper, count, span).unwrap();
        assert_eq!(by_hand(&encode_report_body(count, span)), by_helper);
    }
}

/// Sessions dealt across three loops are accounted once: the shared
/// `net.sessions_open` gauge reads every open session while they are
/// open and zero after their BYEs, opened equals closed, and span ids
/// (one server-wide counter) never repeat across loops.
#[test]
fn sessions_and_spans_are_counted_once_across_loops() {
    const SESSIONS: usize = 10;
    let trace = Arc::new(TraceRing::enabled_with(1024));
    let (client, _service, server) = hh_fixture(NetConfig {
        workers: 3,
        trace: Some(Arc::clone(&trace)),
        ..NetConfig::default()
    });
    let addr = server.local_addr();
    let gauge = |name: &str| server.registry().snapshot().gauge(name).unwrap_or(0);
    let counter = |name: &str| server.registry().snapshot().counter(name).unwrap_or(0);

    let mut sessions: Vec<LdpClient> = (0..SESSIONS)
        .map(|_| LdpClient::connect(addr, Hello::plain::<HhReport>()).unwrap())
        .collect();
    for (k, session) in sessions.iter_mut().enumerate() {
        let batch = frames(&client, 8, 40 + k as u64);
        assert_eq!(session.send_stream(&batch, 4).unwrap(), 8);
        session.range(0, 63).unwrap();
    }
    assert_eq!(gauge(names::NET_SESSIONS_OPEN), SESSIONS as u64);

    for session in sessions {
        session.bye().unwrap();
    }
    // The ByeOk leaves before its loop tears the session down.
    let deadline = Instant::now() + Duration::from_secs(5);
    while gauge(names::NET_SESSIONS_OPEN) != 0 {
        assert!(Instant::now() < deadline, "sessions_open stuck above 0");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(counter(names::NET_SESSIONS_OPENED), SESSIONS as u64);
    assert_eq!(counter(names::NET_SESSIONS_CLOSED), SESSIONS as u64);

    // HELLO, two REPORTs, a QUERY and a BYE per session, each with its
    // own span, and one session id per session.
    let decodes: Vec<_> = trace
        .events()
        .into_iter()
        .map(|(_, e)| e)
        .filter(|e| e.stage == TraceStage::Decode)
        .collect();
    assert_eq!(decodes.len(), 5 * SESSIONS);
    let spans: std::collections::BTreeSet<u64> = decodes.iter().map(|e| e.span).collect();
    assert_eq!(
        spans.len(),
        decodes.len(),
        "a span id was reused across loops"
    );
    let ids: std::collections::BTreeSet<u64> = decodes.iter().map(|e| e.session).collect();
    assert_eq!(ids.len(), SESSIONS, "a session id was reused across loops");

    let stats = server.shutdown();
    assert_eq!(stats.sessions, SESSIONS as u64);
    assert_eq!(stats.frames_absorbed, 8 * SESSIONS as u64);
}
