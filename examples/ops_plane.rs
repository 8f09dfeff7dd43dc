//! The ops plane on one page: a durable windowed `LdpServer` runs with one
//! shared `MetricsRegistry` spanning every tier — shard absorb, snapshot
//! refresh, epoch sealing, socket sessions, and the write-ahead log —
//! with the HTTP scrape endpoint enabled. In process it prints exact
//! per-epoch deltas (`server.registry()` snapshots and `subtract`). Over
//! plain std sockets — no curl, no fixed port — it scrapes *itself*,
//! asserting that `GET /metrics` parses as Prometheus text and
//! `GET /health` answers 200 with a `Healthy` verdict. A last epoch then
//! runs between two `/metrics` scrapes, and the difference of the scrapes
//! equals the in-process delta exactly — the endpoint keeps no history
//! because a scraper can difference any two scrapes.
//!
//! ```text
//! cargo run --release --example ops_plane
//! ```

use std::collections::BTreeMap;
use std::io::{Read, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use ldp_range_queries::prelude::*;
use ldp_range_queries::service::net::{Hello, NetConfig};
use ldp_range_queries::service::obs::instruments::names;
use ldp_range_queries::service::obs::MetricValue;
use ldp_range_queries::service::storage::{
    scratch_dir, DurableConfig, DurableService, FsyncPolicy,
};
use ldp_range_queries::service::{EncodedStream, LdpClient, LdpServer, MetricsRegistry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One HTTP GET over a fresh connection; the ops endpoint closes after
/// every response, so read-to-EOF frames the reply.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to ops endpoint");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: smoke\r\n\r\n").as_bytes())
        .expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw).to_string();
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// A scraper-strength parse of the Prometheus text format: every line
/// is a `# TYPE` comment or a `name value` sample with a finite value,
/// and every sample's family was declared by a preceding `# TYPE`.
fn assert_prometheus_parses(body: &str) -> usize {
    let mut families: Vec<String> = Vec::new();
    let mut samples = 0usize;
    for line in body.lines().filter(|l| !l.is_empty()) {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().expect("family name");
            let kind = parts.next().expect("family kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown kind: {line}"
            );
            families.push(name.to_string());
        } else {
            assert!(!line.starts_with('#'), "unexpected comment: {line}");
            let (name_part, value) = line.rsplit_once(' ').expect("sample has a value");
            let value: f64 = value.parse().expect("numeric sample value");
            assert!(value.is_finite(), "non-finite sample: {line}");
            let base = name_part.split('{').next().unwrap();
            assert!(
                families.iter().any(|f| {
                    base == f
                        || ["_bucket", "_sum", "_count"]
                            .iter()
                            .any(|s| base.strip_suffix(s) == Some(f.as_str()))
                }),
                "sample without TYPE: {line}"
            );
            samples += 1;
        }
    }
    assert!(samples > 0, "empty exposition");
    samples
}

/// The unlabelled `name value` samples of a Prometheus text body:
/// counters, gauges, and each histogram's `_sum` / `_count`.
fn prom_scalars(body: &str) -> BTreeMap<String, u64> {
    body.lines()
        .filter(|line| !line.starts_with('#') && !line.contains('{') && !line.is_empty())
        .filter_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Domain of the reported values.
const DOMAIN: usize = 256;

/// Streams one epoch of `users` reports over `session` and seals it.
fn ingest_epoch(
    session: &mut LdpClient,
    client: &HhClient,
    rng: &mut StdRng,
    epoch: u64,
    users: u64,
) {
    let mut stream = EncodedStream::new();
    for _ in 0..users {
        let value = rng.random_range(0..DOMAIN);
        stream.push_epoch(&client.report(value, rng).expect("report"), epoch);
    }
    assert_eq!(session.send_stream(&stream, 256).expect("stream"), users);
    session.seal_epoch().expect("seal");
}

fn main() {
    let epochs = 3u64;
    let users_per_epoch = 2_000u64;
    let config = HhConfig::new(DOMAIN, 4, Epsilon::from_exp(3.0)).expect("valid config");
    let client = HhClient::new(config.clone()).expect("client");
    let prototype = HhServer::new(config).expect("server");

    // One registry for the whole stack: handed to the storage tier, which
    // shares it with the wrapped service, window, and shard tiers; the
    // socket front end adopts it at bind.
    let registry = Arc::new(MetricsRegistry::new());
    let dir = scratch_dir("ops-plane-example").expect("scratch dir");
    let (durable, _) = DurableService::open_windowed(
        &dir,
        &prototype,
        2,
        DurableConfig {
            num_shards: 2,
            fsync: FsyncPolicy::EveryBytes(1 << 20),
            registry: Some(Arc::clone(&registry)),
            ..DurableConfig::default()
        },
    )
    .expect("open durable store");
    let server = LdpServer::bind_durable(
        "127.0.0.1:0",
        Arc::new(durable),
        NetConfig {
            ops_addr: Some("127.0.0.1:0".to_string()),
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    assert!(Arc::ptr_eq(server.registry(), &registry));
    let ops = server.ops_local_addr().expect("ops endpoint bound");
    println!(
        "# ops_plane: sessions on {}, scrape endpoint on {ops}\n",
        server.local_addr()
    );

    // Ingest a few epochs, watching the registry between them. Snapshots
    // are integer statistics, so (after − before) is an *exact* per-epoch
    // delta.
    let mut session = LdpClient::connect(
        server.local_addr(),
        Hello::windowed::<ldp_range_queries::ranges::HhReport>(),
    )
    .expect("connect");
    let mut rng = StdRng::seed_from_u64(7);
    let mut before = server.registry().snapshot();
    println!(
        "{:>6}  {:>8}  {:>12}  {:>14}  {:>12}",
        "epoch", "frames", "wal records", "absorb p99 ns", "report ns"
    );
    for epoch in 0..epochs {
        ingest_epoch(&mut session, &client, &mut rng, epoch, users_per_epoch);

        let after = server.registry().snapshot();
        let mut delta = after.clone();
        delta
            .subtract(&before)
            .expect("later snapshot minus earlier is exact");
        println!(
            "{epoch:>6}  {:>8}  {:>12}  {:>14}  {:>12.0}",
            delta.counter(names::NET_FRAMES_ABSORBED).unwrap_or(0),
            delta.counter(names::WAL_RECORDS).unwrap_or(0),
            delta
                .histo(names::SHARD_ABSORB_NS)
                .map_or(0, |h| h.quantile_bound(0.99)),
            delta.histo(names::NET_REPORT_NS).map_or(0.0, |h| h.mean()),
        );
        before = after;
    }
    let total = epochs * users_per_epoch;
    let median = session.quantile(0.5).expect("quantile");
    let status = session.status().expect("status");
    assert_eq!(status.frames_absorbed, total);
    println!(
        "\n# median after {epochs} epochs: {}; STATUS: {} frames, {} WAL records",
        median.index().expect("a quantile reply"),
        status.frames_absorbed,
        status.durable.map_or(0, |d| d.wal_records)
    );

    // GET /metrics: valid Prometheus text with the ingested frames.
    let (code, body) = http_get(ops, "/metrics");
    let first = server.registry().snapshot();
    assert_eq!(code, 200, "/metrics status");
    let samples = assert_prometheus_parses(&body);
    assert!(
        body.contains(&format!("net_frames_absorbed {total}\n")),
        "scrape missed the traffic"
    );
    let scraped = prom_scalars(&body);
    println!("# GET /metrics: 200, {samples} samples, Prometheus text parses");

    // GET /health: 200 and a Healthy verdict on this idle, intact node.
    let (code, body) = http_get(ops, "/health");
    assert_eq!(code, 200, "/health status: {body}");
    assert!(
        body.contains("\"verdict\": \"Healthy\""),
        "unexpected verdict: {body}"
    );
    println!("# GET /health: 200, verdict Healthy");

    // One more epoch, then a second scrape. Counters and histograms only
    // grow, so (scrape₂ − scrape₁) is the exact in-process delta — what a
    // scraper computes per interval, with no history kept in the server.
    ingest_epoch(&mut session, &client, &mut rng, epochs, users_per_epoch);
    let (code, body) = http_get(ops, "/metrics");
    assert_eq!(code, 200, "/metrics status");
    let mut delta = server.registry().snapshot();
    delta.subtract(&first).expect("exact registry delta");
    let rescraped = prom_scalars(&body);
    let mut compared = 0usize;
    for entry in delta.entries() {
        let name = entry.name.replace('.', "_");
        let totals = match &entry.value {
            MetricValue::Counter(v) => vec![(name, *v)],
            MetricValue::Histo(h) => vec![
                (format!("{name}_sum"), h.sum()),
                (format!("{name}_count"), h.count()),
            ],
            // Gauges are levels, not totals.
            MetricValue::Gauge(_) => continue,
        };
        for (name, want) in totals {
            let moved = rescraped[&name] - scraped.get(&name).copied().unwrap_or(0);
            assert_eq!(moved, want, "{name}: scrape delta != registry delta");
            compared += 1;
        }
    }
    assert_eq!(
        delta.counter(names::NET_FRAMES_ABSORBED),
        Some(users_per_epoch)
    );
    println!(
        "# two /metrics scrapes differenced: {compared} totals equal the registry delta \
         ({users_per_epoch} frames)"
    );

    session.bye().expect("clean close");
    let stats = server.shutdown();
    assert_eq!(stats.frames_absorbed, total + users_per_epoch);

    std::fs::remove_dir_all(&dir).expect("cleanup");
    println!("# ops_plane: OK");
}
