//! Session-concurrency benchmark for the event-loop network front end.
//!
//! The throughput benchmarks measure a handful of busy sessions; this one
//! measures the opposite regime — the one the event loops exist
//! for: many thousands of *open* sessions, almost all idle, with a small
//! Zipf-weighted active subset doing REPORT/QUERY rounds. A
//! thread-per-session engine cannot enter this regime at all (10,000
//! sessions would be 10,000 OS threads); under the event loops an idle
//! session costs one file descriptor and ~one slab slot.
//!
//! Emits two gated metrics:
//!
//! * `net_concurrent_sessions` — sessions held open simultaneously,
//!   every one verified live via the server's `net.sessions_open` gauge
//!   and a clean BYE. Higher is better.
//! * `net_concurrent_p99_reply_us` — p99 reply latency (µs) for the
//!   active subset's REPORT and QUERY roundtrips *while* the thousands
//!   of idle sessions are open — the "idle sessions must cost nothing on
//!   the hot path" claim, as a number. Lower is better.
//!
//! ```text
//! cargo run -p ldp-bench --release --bin net_concurrency
//! LDP_NET_CONC_SESSIONS=2000 \
//!     cargo run -p ldp-bench --release --bin net_concurrency
//! ```

use std::sync::{Arc, Mutex};
use std::time::Instant;

use ldp_bench::metrics::BenchMetrics;
use ldp_freq_oracle::Epsilon;
use ldp_ranges::{HhClient, HhConfig, HhReport, HhServer};
use ldp_service::net::{raise_nofile_limit, Hello, NetConfig};
use ldp_service::obs::instruments::names;
use ldp_service::{LdpClient, LdpServer, LdpService, MetricsRegistry};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn env_or(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    // Each session is two descriptors (client + server end) in this one
    // process; raise the fd ceiling before opening anything.
    let fd_limit = raise_nofile_limit();
    let mut sessions = env_or("LDP_NET_CONC_SESSIONS", 10_000).max(1) as usize;
    let openers = env_or("LDP_NET_CONC_OPENERS", 8).max(1) as usize;
    let rounds = env_or("LDP_NET_CONC_ROUNDS", 400).max(1) as usize;
    let domain = 1_024usize;

    // A container or sandbox can pin RLIMIT_NOFILE below the default
    // target. Degrade gracefully: clamp the session count to what the
    // descriptor budget holds (two fds per session in this one process,
    // plus headroom for the active subset, listener, wake channel, and
    // stdio) and log the cap — a smaller measured regime beats a refusal
    // to measure.
    if let Some(limit) = fd_limit {
        let allowed = (limit.saturating_sub(256) / 2) as usize;
        if allowed == 0 {
            eprintln!("net_concurrency: fd limit {limit} leaves no session budget; aborting");
            std::process::exit(1);
        }
        if sessions > allowed {
            eprintln!(
                "net_concurrency: fd limit {limit} cannot hold {sessions} sessions; \
                 capping to {allowed}"
            );
            sessions = allowed;
        }
    }
    let active = (env_or("LDP_NET_CONC_ACTIVE", 64).max(1) as usize).min(sessions);

    let config = HhConfig::new(domain, 4, Epsilon::from_exp(3.0)).expect("valid config");
    let client = Arc::new(HhClient::new(config.clone()).expect("client"));
    let prototype = HhServer::new(config).expect("server");
    let registry = Arc::new(MetricsRegistry::new());
    let service = Arc::new(LdpService::new(&prototype, 4).expect("shards"));
    let server = LdpServer::bind(
        "127.0.0.1:0",
        Arc::clone(&service),
        NetConfig {
            workers: 4,
            registry: Some(Arc::clone(&registry)),
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    println!(
        "# net_concurrency: {sessions} concurrent sessions ({openers} opener threads), \
         {active} Zipf-active, {rounds} request rounds, fd limit {fd_limit:?}"
    );

    // Open every session and keep it open. The handles live in one Vec
    // so nothing closes until the benchmark says so.
    let started = Instant::now();
    let held: Vec<LdpClient> = {
        let pool: Mutex<Vec<LdpClient>> = Mutex::new(Vec::with_capacity(sessions));
        std::thread::scope(|scope| {
            for t in 0..openers {
                let quota = sessions / openers + usize::from(t < sessions % openers);
                let pool = &pool;
                scope.spawn(move || {
                    let mut local = Vec::with_capacity(quota);
                    for _ in 0..quota {
                        local.push(
                            LdpClient::connect(addr, Hello::plain::<HhReport>())
                                .expect("session connect"),
                        );
                    }
                    pool.lock().unwrap().append(&mut local);
                });
            }
        });
        pool.into_inner().unwrap()
    };
    let open_elapsed = started.elapsed();
    assert_eq!(held.len(), sessions);
    // The server's own gauge must agree that every session is open —
    // this is the concurrency claim, read from the server side.
    let open_gauge = registry.snapshot().gauge(names::NET_SESSIONS_OPEN);
    assert_eq!(
        open_gauge,
        Some(sessions as u64),
        "server does not hold all sessions open"
    );
    println!(
        "# opened {sessions} sessions in {open_elapsed:.2?} \
         ({:.0} connects/sec); server gauge agrees",
        sessions as f64 / open_elapsed.as_secs_f64()
    );

    // The active subset: `rounds` request rounds distributed over
    // `active` fresh sessions with Zipf(1) weights — session k gets a
    // share ∝ 1/(k+1), the usual skew of real fleets (a few chatty
    // clients, a long quiet tail). Every round is a REPORT batch plus a
    // range QUERY, each reply latency recorded, all while the thousands
    // of idle sessions stay open.
    let harmonic: f64 = (1..=active).map(|k| 1.0 / k as f64).sum();
    let mut latencies_us: Vec<f64> = Vec::with_capacity(2 * rounds);
    let mut rng = StdRng::seed_from_u64(17);
    let mut actives: Vec<LdpClient> = (0..active)
        .map(|_| LdpClient::connect(addr, Hello::plain::<HhReport>()).expect("active connect"))
        .collect();
    let mut frames_sent = 0u64;
    let busy_started = Instant::now();
    for (k, session) in actives.iter_mut().enumerate() {
        let share = ((rounds as f64) * (1.0 / (k + 1) as f64) / harmonic).round() as usize;
        for _ in 0..share.max(1) {
            let mut stream = ldp_service::EncodedStream::new();
            for i in 0..16usize {
                stream.push(
                    &client
                        .report((i * (k + 1)) % domain, &mut rng)
                        .expect("report"),
                );
            }
            let sent = Instant::now();
            let acked = session
                .send_batch(16, stream.frame_span(0, 16))
                .expect("ack");
            latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
            assert_eq!(acked, 16);
            frames_sent += acked;
            let sent = Instant::now();
            let reply = session.range(0, domain as u64 - 1).expect("query");
            latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
            assert!(reply.num_reports <= frames_sent);
        }
    }
    let busy_elapsed = busy_started.elapsed();
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let p99_us = latencies_us[((latencies_us.len() - 1) as f64 * 0.99) as usize];
    let mean_us = latencies_us.iter().sum::<f64>() / latencies_us.len() as f64;
    println!(
        "# active subset: {} replies in {busy_elapsed:.2?} with {sessions} idle sessions open \
         → mean {mean_us:.0} µs, p99 {p99_us:.0} µs",
        latencies_us.len()
    );

    // Every held session must still be live after the busy phase: the
    // gauge still counts them, and each one closes with a clean BYE ack.
    let open_gauge = registry.snapshot().gauge(names::NET_SESSIONS_OPEN);
    assert_eq!(
        open_gauge,
        Some((sessions + active) as u64),
        "idle sessions were dropped during the busy phase"
    );
    for session in actives {
        session.bye().expect("active close");
    }
    let closing = Instant::now();
    let chunk_len = sessions.div_ceil(openers);
    std::thread::scope(|scope| {
        let mut held = held;
        while !held.is_empty() {
            let take = chunk_len.min(held.len());
            let chunk: Vec<LdpClient> = held.drain(..take).collect();
            scope.spawn(move || {
                for session in chunk {
                    session.bye().expect("held session still live");
                }
            });
        }
    });
    println!(
        "# all {sessions} held sessions answered BYE in {:.2?}",
        closing.elapsed()
    );

    let stats = server.shutdown();
    assert_eq!(stats.sessions, (sessions + active) as u64);
    assert_eq!(stats.frames_absorbed, frames_sent);

    let mut metrics = BenchMetrics::new();
    metrics.record("net_concurrent_sessions", sessions as f64);
    metrics.record("net_concurrent_p99_reply_us", p99_us);
    match metrics.write_to_env_path() {
        Ok(Some(path)) => println!("# metrics written to {path}"),
        Ok(None) => {}
        Err(e) => {
            eprintln!("net_concurrency: {e}");
            std::process::exit(1);
        }
    }
}
