//! The ops plane, end to end over real sockets.
//!
//! The HTTP scrape endpoint — the one surface on which telemetry leaves
//! the process — serves valid Prometheus text, health JSON whose status
//! code tracks the node verdict; hostile HTTP bytes get typed status
//! codes, never a hang or a panic. It answers against a follower
//! actively catching up, while the session protocol keeps its pre-HELLO
//! STATUS probe. A server without an ops endpoint binds none. A leader
//! whose event loops deal follower sessions out across loops counts
//! every follower once.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ldp_freq_oracle::Epsilon;
use ldp_ranges::{HhClient, HhConfig, HhServer};
use ldp_service::net::proto::{
    encode_report_body, read_message, write_message, ClientMsg, ServerMsg,
};
use ldp_service::net::{Hello, NetConfig};
use ldp_service::obs::instruments::names;
use ldp_service::obs::{evaluate, HealthState};
use ldp_service::storage::{scratch_dir, DurableConfig, DurableService, FsyncPolicy};
use ldp_service::{
    EncodedStream, FollowerService, HealthThresholds, LdpClient, LdpServer, LdpService,
    MetricsRegistry,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

// --- helpers ------------------------------------------------------------

fn hh_parts() -> (HhClient, HhServer) {
    let config = HhConfig::new(64, 4, Epsilon::from_exp(3.0)).unwrap();
    (
        HhClient::new(config.clone()).unwrap(),
        HhServer::new(config).unwrap(),
    )
}

fn stream_of(client: &HhClient, seed: u64, frames: usize) -> EncodedStream {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stream = EncodedStream::new();
    for i in 0..frames {
        stream.push(&client.report((i * 7) % 64, &mut rng).unwrap());
    }
    stream
}

fn durable_config() -> DurableConfig {
    DurableConfig {
        num_shards: 2,
        fsync: FsyncPolicy::Always,
        checkpoint_every_records: 0,
        ..DurableConfig::default()
    }
}

/// One HTTP request over a fresh connection; the endpoint always closes
/// after the response, so read-to-EOF is the framing.
fn http_request(addr: std::net::SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).unwrap();
    let text = String::from_utf8_lossy(&buf).to_string();
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {text:?}"));
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    http_request(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
}

/// The state `GET /health` reports for `component`, if it was judged.
fn component_state(health_json: &str, component: &str) -> Option<String> {
    let key = format!("\"component\": \"{component}\", \"state\": \"");
    let (_, rest) = health_json.split_once(&key)?;
    rest.split('"').next().map(str::to_string)
}

fn assert_valid_prom_name(name: &str) {
    let mut chars = name.chars();
    let first = chars.next().unwrap_or_else(|| panic!("empty metric name"));
    assert!(
        first.is_ascii_alphabetic() || first == '_' || first == ':',
        "bad first char in metric name {name:?}"
    );
    assert!(
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
        "bad char in metric name {name:?}"
    );
}

/// A strict parse of the Prometheus text exposition format, the check
/// a scraper's parser would apply: every line is a `# TYPE` comment or
/// a `name[{labels}] value` sample, names are well-formed, values are
/// finite numbers, and every sample belongs to a family a `# TYPE` line
/// declared first.
fn assert_prometheus_text_valid(body: &str) {
    let mut families: Vec<String> = Vec::new();
    let mut samples = 0usize;
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().expect("TYPE line names a family");
            let kind = parts.next().expect("TYPE line names a kind");
            assert!(parts.next().is_none(), "trailing tokens in {line:?}");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown family kind in {line:?}"
            );
            assert_valid_prom_name(name);
            families.push(name.to_string());
        } else {
            assert!(!line.starts_with('#'), "unexpected comment {line:?}");
            let (name_part, value) = line
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("sample line {line:?} has no value"));
            let value: f64 = value
                .parse()
                .unwrap_or_else(|_| panic!("non-numeric value in {line:?}"));
            assert!(value.is_finite(), "non-finite value in {line:?}");
            let base = name_part.split('{').next().unwrap();
            assert_valid_prom_name(base);
            let known = families.iter().any(|f| {
                base == f
                    || ["_bucket", "_sum", "_count"]
                        .iter()
                        .any(|suffix| base.strip_suffix(suffix) == Some(f))
            });
            assert!(known, "sample {line:?} has no preceding # TYPE family");
            samples += 1;
        }
    }
    assert!(samples > 0, "exposition carried no samples:\n{body}");
}

// --- the HTTP endpoint --------------------------------------------------

/// Both routes answer from live telemetry over a real socket, the
/// Prometheus text parses strictly, no route serves metric history, and
/// hostile requests get typed status codes.
#[test]
fn http_endpoint_serves_scrapes_and_rejects_hostile_requests() {
    let (client, prototype) = hh_parts();
    let service = Arc::new(LdpService::new(&prototype, 2).unwrap());
    let config = NetConfig {
        ops_addr: Some("127.0.0.1:0".to_string()),
        ..NetConfig::default()
    };
    let server = LdpServer::bind("127.0.0.1:0", Arc::clone(&service), config).unwrap();
    let ops = server.ops_local_addr().expect("ops endpoint configured");

    // Put some traffic through so the scrape shows non-trivial counters.
    let mut session =
        LdpClient::connect(server.local_addr(), Hello::plain::<ldp_ranges::HhReport>()).unwrap();
    let stream = stream_of(&client, 4100, 80);
    assert_eq!(session.send_stream(&stream, 20).unwrap(), 80);

    let (status, body) = http_get(ops, "/metrics");
    assert_eq!(status, 200);
    assert_prometheus_text_valid(&body);
    assert!(
        body.contains("net_frames_absorbed 80"),
        "scrape missed the absorbed frames:\n{body}"
    );

    let (status, body) = http_get(ops, "/health");
    assert_eq!(status, 200, "a healthy node scrapes 200: {body}");
    assert!(body.contains("\"verdict\": \"Healthy\""));
    assert!(body.contains("\"component\": \"net\""));

    // History is the scraper's: it differences two `/metrics` scrapes.
    assert_eq!(http_get(ops, "/metrics/range").0, 404);

    // Query strings are stripped; unknown routes 404; non-GET 405;
    // garbage 400. All typed, none hang.
    assert_eq!(http_get(ops, "/metrics?ts=123").0, 200);
    assert_eq!(http_get(ops, "/nope").0, 404);
    assert_eq!(http_request(ops, "POST /metrics HTTP/1.1\r\n\r\n").0, 405);
    assert_eq!(http_request(ops, "BLURB\r\n\r\n").0, 400);
    assert_eq!(http_request(ops, "GET /metrics SPDY/3\r\n\r\n").0, 400);

    // The endpoint measures itself: the request/error counters it
    // served with are visible in its own next scrape.
    let (_, body) = http_get(ops, "/metrics");
    assert!(body.contains("ops_http_requests"), "no self-metrics");

    session.bye().unwrap();
    let _ = server.shutdown();

    // Shutdown joined the listener: a fresh scrape must fail to connect.
    assert!(
        TcpStream::connect(ops).is_err(),
        "ops endpoint outlived shutdown"
    );
}

/// Injected replication lag flips the health verdict to Degraded and
/// then Unhealthy over both surfaces — the in-process [`evaluate`] of the
/// server's registry and `GET /health`, whose JSON names each
/// component's state and whose status code turns 503 on Unhealthy (and
/// only on Unhealthy).
#[test]
fn injected_follower_lag_flips_health_over_both_surfaces() {
    let (_, prototype) = hh_parts();
    let service = Arc::new(LdpService::new(&prototype, 2).unwrap());
    let registry = Arc::new(MetricsRegistry::new());
    let thresholds = HealthThresholds {
        follower_lag_degraded: 10,
        follower_lag_unhealthy: 1_000,
        ..HealthThresholds::default()
    };
    let config = NetConfig {
        registry: Some(Arc::clone(&registry)),
        ops_addr: Some("127.0.0.1:0".to_string()),
        health: thresholds.clone(),
        ..NetConfig::default()
    };
    let server = LdpServer::bind("127.0.0.1:0", Arc::clone(&service), config).unwrap();
    let ops = server.ops_local_addr().unwrap();

    let lag = registry.gauge(names::REPL_FOLLOWER_LAG_RECORDS);
    for (level, want, code) in [
        (0, HealthState::Healthy, 200),
        // Degraded still scrapes 200 — the node is operable.
        (50, HealthState::Degraded, 200),
        (5_000, HealthState::Unhealthy, 503),
    ] {
        lag.set(level);
        let report = evaluate(&server.registry().snapshot(), &thresholds);
        assert_eq!(report.verdict(), want, "lag {level}: {report:?}");
        assert_eq!(report.component("repl").map(|c| c.state), Some(want));

        let (status, body) = http_get(ops, "/health");
        assert_eq!(status, code, "lag {level}: {body}");
        assert!(
            body.contains(&format!("\"verdict\": \"{}\"", want.as_str())),
            "lag {level}: {body}"
        );
        assert_eq!(
            component_state(&body, "repl").as_deref(),
            Some(want.as_str())
        );
        assert_eq!(
            component_state(&body, "net").as_deref(),
            Some("Healthy"),
            "{body}"
        );
    }

    let _ = server.shutdown();
}

/// A client that pipelines a burst deeper than a session's inbox cap,
/// reads its acks and disconnects leaves the node Healthy once its
/// session is closed. A full inbox means a client is pipelining — read
/// interest is shed until it drains — not that a loop is behind. The
/// server was bound without `ops_addr`, so it serves no HTTP.
#[test]
fn pipelined_burst_leaves_health_healthy_once_drained() {
    const BURST: usize = 40;
    let (client, prototype) = hh_parts();
    let service = Arc::new(LdpService::new(&prototype, 2).unwrap());
    let server = LdpServer::bind("127.0.0.1:0", service, NetConfig::default()).unwrap();
    assert!(server.ops_local_addr().is_none());
    let session =
        LdpClient::connect(server.local_addr(), Hello::plain::<ldp_ranges::HhReport>()).unwrap();
    let mut stream = session.into_stream();

    let frames = stream_of(&client, 4500, BURST);
    let mut burst = Vec::new();
    for k in 0..BURST {
        let body = encode_report_body(1, frames.frame_span(k, k + 1));
        burst.extend_from_slice(&u32::try_from(body.len()).unwrap().to_le_bytes());
        burst.extend_from_slice(&body);
    }
    stream.write_all(&burst).unwrap();
    for k in 0..BURST {
        let reply = ServerMsg::decode(&read_message(&mut stream).unwrap()).unwrap();
        assert!(
            matches!(reply, ServerMsg::ReportOk { accepted: 1 }),
            "REPORT {k}: {reply:?}"
        );
    }
    drop(stream);

    let open = || server.registry().snapshot().gauge(names::NET_SESSIONS_OPEN);
    let deadline = Instant::now() + Duration::from_secs(5);
    while open() != Some(0) {
        assert!(Instant::now() < deadline, "session never closed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let report = evaluate(&server.registry().snapshot(), &HealthThresholds::default());
    assert_eq!(report.verdict(), HealthState::Healthy, "{report:?}");

    let stats = server.shutdown();
    assert_eq!(stats.frames_absorbed, BURST as u64);
}

/// A pre-HELLO STATUS probe answers on a follower's replica
/// socket while it is actively catching up, the replica's `/health`
/// shows the follower's storage and repl components, and the follower
/// publishes its own lag gauge, which settles to zero once caught up.
#[test]
fn follower_replica_answers_probes_during_catch_up() {
    let (client, prototype) = hh_parts();
    let leader_dir = scratch_dir("ops-probe-leader").unwrap();
    let follower_dir = scratch_dir("ops-probe-follower").unwrap();
    let (leader, _) = DurableService::open(&leader_dir, &prototype, durable_config()).unwrap();
    let leader = Arc::new(leader);
    let server =
        LdpServer::bind_durable("127.0.0.1:0", Arc::clone(&leader), NetConfig::default()).unwrap();
    let addr = format!("{}", server.local_addr());

    // Ingest a backlog *before* the follower exists, so its catch-up
    // phase is real work (fsync-per-record on the follower side).
    let mut session = LdpClient::connect(&addr, Hello::plain::<ldp_ranges::HhReport>()).unwrap();
    let stream = stream_of(&client, 4200, 300);
    for chunk in 0..30 {
        let span = stream.frame_span(chunk * 10, (chunk + 1) * 10);
        assert_eq!(session.send_batch(10, span).unwrap(), 10);
    }

    let (follower, _) =
        FollowerService::open(&follower_dir, &prototype, &addr, durable_config()).unwrap();
    let replica = LdpServer::bind_replica(
        "127.0.0.1:0",
        Arc::clone(follower.service()),
        NetConfig {
            ops_addr: Some("127.0.0.1:0".to_string()),
            ..NetConfig::default()
        },
    )
    .unwrap();
    let ops = replica.ops_local_addr().unwrap();

    // Probe the replica immediately — catch-up is (very likely) still in
    // flight; correctness does not depend on winning that race, only
    // that the probes answer either way.
    let mut probe = TcpStream::connect(replica.local_addr()).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_message(&mut probe, &ClientMsg::Status.encode()).unwrap();
    let reply = ServerMsg::decode(&read_message(&mut probe).unwrap()).unwrap();
    assert!(
        matches!(reply, ServerMsg::StatusOk(_)),
        "pre-HELLO STATUS answered with {reply:?}"
    );
    let (status, body) = http_get(ops, "/metrics");
    assert_eq!(status, 200);
    assert_prometheus_text_valid(&body);
    // The replica shares the follower's registry, so the storage
    // component (and once the pump publishes lag, the repl component)
    // is visible through the replica's endpoint.
    let (_, body) = http_get(ops, "/health");
    assert!(component_state(&body, "storage").is_some(), "{body}");

    // Wait for catch-up, then for the published lag gauge to settle at
    // zero (the gauge is stored just after the position, so poll it).
    let deadline = Instant::now() + Duration::from_secs(20);
    while follower.position() < 30 {
        assert!(
            Instant::now() < deadline,
            "follower stuck at {} (err: {:?})",
            follower.position(),
            follower.last_error()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let lag = loop {
        let snapshot = follower.service().registry().snapshot();
        if let Some(0) = snapshot.gauge(names::REPL_FOLLOWER_LAG_RECORDS) {
            break 0;
        }
        assert!(
            Instant::now() < deadline,
            "lag gauge never settled: {:?}",
            snapshot.gauge(names::REPL_FOLLOWER_LAG_RECORDS)
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(lag, 0);

    // Now the health report judges the repl component from the gauge.
    let (status, body) = http_get(ops, "/health");
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        component_state(&body, "repl").as_deref(),
        Some("Healthy"),
        "{body}"
    );
    assert_eq!(
        component_state(&body, "storage").as_deref(),
        Some("Healthy"),
        "{body}"
    );

    drop(probe);
    session.bye().unwrap();
    let _ = replica.shutdown();
    drop(follower);
    let _ = server.shutdown();
}

// --- followers across event loops ---------------------------------------

/// Two followers subscribe through a three-loop leader, so their
/// sessions live on different loops. The replication hub keys streams
/// by session id, so ids must be unique server-wide: the leader counts
/// two followers, both reach its position, and each counts every
/// record it applied once.
#[test]
fn followers_on_different_loops_are_counted_apart() {
    let (client, prototype) = hh_parts();
    let leader_dir = scratch_dir("ops-two-followers-leader").unwrap();
    let (leader, _) = DurableService::open(&leader_dir, &prototype, durable_config()).unwrap();
    let leader = Arc::new(leader);
    let server = LdpServer::bind_durable(
        "127.0.0.1:0",
        Arc::clone(&leader),
        NetConfig {
            workers: 3,
            ..NetConfig::default()
        },
    )
    .unwrap();
    let addr = format!("{}", server.local_addr());

    let mut session = LdpClient::connect(&addr, Hello::plain::<ldp_ranges::HhReport>()).unwrap();
    let stream = stream_of(&client, 4400, 30);
    for chunk in 0..3 {
        let span = stream.frame_span(chunk * 10, (chunk + 1) * 10);
        assert_eq!(session.send_batch(10, span).unwrap(), 10);
    }
    let followers: Vec<_> = ["a", "b"]
        .iter()
        .map(|tag| {
            let dir = scratch_dir(&format!("ops-two-followers-{tag}")).unwrap();
            FollowerService::open(&dir, &prototype, &addr, durable_config())
                .unwrap()
                .0
        })
        .collect();

    let position = leader.status().unwrap().wal_records;
    assert_eq!(position, 3);
    let deadline = Instant::now() + Duration::from_secs(20);
    for follower in &followers {
        let applied = || {
            let snapshot = follower.service().registry().snapshot();
            snapshot.counter(names::REPL_RECORDS_APPLIED)
        };
        while follower.position() < position || applied() != Some(position) {
            assert!(
                Instant::now() < deadline,
                "follower stuck at {} with {:?} applied (err: {:?})",
                follower.position(),
                applied(),
                follower.last_error()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    let snapshot = server.registry().snapshot();
    assert_eq!(snapshot.gauge(names::REPL_FOLLOWERS), Some(2));

    session.bye().unwrap();
    drop(followers);
    let _ = server.shutdown();
}
