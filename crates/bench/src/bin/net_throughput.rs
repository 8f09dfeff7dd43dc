//! Socket-path throughput benchmark for the `ldp-service` network front
//! end.
//!
//! Replays a Cauchy population (HH₄ mechanism, like `service_throughput`)
//! through N concurrent `LdpClient` sessions over 127.0.0.1 into an
//! `LdpServer`, timing end-to-end socket ingest: session framing, batched
//! REPORT messages, wire decode, and staged batch absorption. After the
//! drain it asserts the transport was a *pure function* — the server's
//! final snapshot must be bit-identical to feeding the same frames
//! through `submit_frame` in-process — then times queries over a live
//! session.
//!
//! ```text
//! cargo run -p ldp-bench --release --bin net_throughput
//! LDP_NET_USERS=400000 LDP_NET_CLIENTS=8 \
//!     cargo run -p ldp-bench --release --bin net_throughput
//! ```

use std::sync::Arc;
use std::time::Instant;

use ldp_bench::metrics::BenchMetrics;
use ldp_freq_oracle::Epsilon;
use ldp_ranges::{HhClient, HhConfig, HhServer};
use ldp_service::net::{Hello, NetConfig};
use ldp_service::obs::instruments::names;
use ldp_service::{generate_stream, LdpClient, LdpServer, LdpService, MetricsRegistry};
use ldp_workloads::{CauchyParams, Dataset, DistributionKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn env_or(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let users = env_or("LDP_NET_USERS", 100_000).max(1);
    let clients = env_or("LDP_NET_CLIENTS", 4).max(1) as usize;
    let batch = env_or("LDP_NET_BATCH", 256).max(1) as usize;
    let workers = env_or("LDP_NET_WORKERS", 4).max(1) as usize;
    let domain = env_or("LDP_SERVICE_DOMAIN", 1_024) as usize;
    let per_client = users.div_ceil(clients as u64);

    let mut rng = StdRng::seed_from_u64(4);
    let dataset = Dataset::sample(
        DistributionKind::Cauchy(CauchyParams::paper_default()),
        domain,
        users,
        &mut rng,
    );
    let config = HhConfig::new(domain, 4, Epsilon::from_exp(3.0)).expect("valid config");
    let client = HhClient::new(config.clone()).expect("client");
    let prototype = HhServer::new(config).expect("server");

    println!(
        "# net_throughput: {clients} clients × {per_client} users over loopback TCP, \
         domain {domain}, HH_4/OUE, batch {batch} frames, {workers} session workers"
    );
    let gen_started = Instant::now();
    let streams: Vec<_> = (0..clients)
        .map(|c| {
            generate_stream(&dataset, per_client, 40 + c as u64, |value, rng| {
                client.report(value, rng).expect("in-domain value")
            })
        })
        .collect();
    let total_frames: usize = streams.iter().map(ldp_service::EncodedStream::len).sum();
    let total_bytes: usize = streams.iter().map(|s| s.total_bytes()).sum();
    println!(
        "# streams: {total_frames} frames, {:.1} MiB, generated in {:.2?}\n",
        total_bytes as f64 / (1024.0 * 1024.0),
        gen_started.elapsed(),
    );

    // The timed path runs fully instrumented: per-message latency
    // histograms and byte counters are live during ingest, so their cost
    // is inside the rate the CI regression gate compares to the seed.
    let registry = Arc::new(MetricsRegistry::new());
    let service = Arc::new(LdpService::new(&prototype, workers).expect("shards"));
    let server = LdpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetConfig {
            workers,
            registry: Some(Arc::clone(&registry)),
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    let started = Instant::now();
    let acked: u64 = std::thread::scope(|scope| {
        streams
            .iter()
            .map(|stream| {
                scope.spawn(move || {
                    let mut session =
                        LdpClient::connect(addr, Hello::plain::<ldp_ranges::HhReport>())
                            .expect("connect");
                    let acked = session.send_stream(stream, batch).expect("clean stream");
                    session.bye().expect("clean close");
                    acked
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .sum()
    });
    let ingest = started.elapsed();
    let ingest_rate = acked as f64 / ingest.as_secs_f64();
    assert_eq!(acked, total_frames as u64, "frames lost over the socket");
    println!(
        "# socket ingest: {acked} frames in {ingest:.2?} → {ingest_rate:.0} reports/sec across \
         {clients} sessions"
    );

    // Query serving over a live session (each query refreshes
    // server-side; with ingest finished only the first finds anything
    // changed and freezes — the rest are handed the published snapshot).
    let mut session =
        LdpClient::connect(addr, Hello::plain::<ldp_ranges::HhReport>()).expect("connect");
    let queries = 10u32;
    let started = Instant::now();
    for q in 0..queries {
        let reply = session
            .range(0, domain as u64 - 1)
            .expect("in-bounds query");
        assert_eq!(reply.num_reports, acked);
        assert!((reply.fraction() - 1.0).abs() < 1e-6 || q > 0);
    }
    let query_mean_us = started.elapsed().as_micros() as f64 / f64::from(queries);
    session.bye().expect("clean close");
    println!("# query round-trip (refresh + freeze + answer): mean {query_mean_us:.0} µs");

    let stats = server.shutdown();
    assert_eq!(stats.frames_absorbed, acked);
    assert_eq!(stats.num_reports, acked, "drain lost reports");

    // The telemetry registry is the same accounting path the drain stats
    // read from — its counters must agree exactly with the acked total.
    let telemetry = registry.snapshot();
    assert_eq!(
        telemetry.counter(names::NET_FRAMES_ABSORBED),
        Some(acked),
        "registry lost frames"
    );
    assert_eq!(
        telemetry.counter(names::SHARD_FRAMES_ACCEPTED),
        Some(acked),
        "shard tier disagrees with net tier"
    );
    let report_ns = telemetry
        .histo(names::NET_REPORT_NS)
        .expect("report latency histogram registered");
    println!(
        "# REPORT handling: {} messages, mean {:.0} ns, p99 ≤ {} ns; \
         {} B in, {} B out",
        report_ns.count(),
        report_ns.mean(),
        report_ns.quantile_bound(0.99),
        telemetry.counter(names::NET_BYTES_IN).unwrap_or(0),
        telemetry.counter(names::NET_BYTES_OUT).unwrap_or(0),
    );

    // The transport must be a pure function: in-process submission of the
    // same frames yields a bit-identical snapshot.
    let reference = LdpService::new(&prototype, workers).expect("shards");
    for stream in &streams {
        for i in 0..stream.len() {
            reference.submit_frame(stream.frame(i)).expect("absorb");
        }
    }
    let direct = reference.refresh_snapshot().expect("refresh");
    assert_eq!(direct.num_reports(), stats.final_snapshot.num_reports());
    for (z, (a, b)) in stats
        .final_snapshot
        .estimate()
        .frequencies()
        .iter()
        .zip(direct.estimate().frequencies())
        .enumerate()
    {
        assert!(
            a.to_bits() == b.to_bits(),
            "socket and in-process estimates differ at leaf {z}"
        );
    }
    println!("# identity check passed: socket snapshot ≡ in-process snapshot (bit-for-bit)");

    let mut metrics = BenchMetrics::new();
    metrics.record("net_users", acked as f64);
    metrics.record("net_clients", clients as f64);
    metrics.record("net_batch_frames", batch as f64);
    metrics.record("net_workers", workers as f64);
    metrics.record("net_ingest_reports_per_sec", ingest_rate);
    metrics.record("net_query_mean_us", query_mean_us);
    match metrics.write_to_env_path() {
        Ok(Some(path)) => println!("# metrics written to {path}"),
        Ok(None) => {}
        Err(e) => {
            eprintln!("net_throughput: {e}");
            std::process::exit(1);
        }
    }
}
