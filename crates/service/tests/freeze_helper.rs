//! The freeze helper's lifecycle, read from `/proc/self/task`.
//!
//! A service whose freezes split runs half of each on one helper thread
//! (named `ldp-freeze`), spawned at its first split freeze and joined
//! when the service drops. This binary holds one test, so no other test
//! thread comes or goes while it counts the process's threads:
//!
//! * a service below [`SPLIT_FREEZE_MIN_DOMAIN`] never spawns a helper,
//!   however many dirty refreshes it runs;
//! * a service at or above it spawns exactly one, however many;
//! * the helper is gone once the service drops, and once an `LdpServer`
//!   serving such a service shuts down.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ldp_freq_oracle::{Epsilon, FrequencyOracle};
use ldp_ranges::{HhClient, HhConfig, HhReport, HhServer};
use ldp_service::net::{Hello, NetConfig, Query, QueryOp};
use ldp_service::{EncodedStream, LdpClient, LdpServer, LdpService, SPLIT_FREEZE_MIN_DOMAIN};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The names of this process's threads, one per `/proc/self/task` entry.
fn threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .collect()
}

fn helpers() -> usize {
    threads()
        .iter()
        .filter(|name| *name == "ldp-freeze")
        .count()
}

/// The thread count once it settles at `want` — a joined thread can
/// linger in `/proc` for a moment after `join` returns — or whatever it
/// is after two seconds.
fn threads_settled_at(want: usize) -> usize {
    let started = Instant::now();
    loop {
        let now = threads().len();
        if now == want || started.elapsed() > Duration::from_secs(2) {
            return now;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn hh(domain: usize) -> (HhClient, HhServer) {
    let config =
        HhConfig::with_oracle(domain, 4, Epsilon::from_exp(3.0), FrequencyOracle::Oue).unwrap();
    (
        HhClient::new(config.clone()).unwrap(),
        HhServer::new(config).unwrap(),
    )
}

/// Eight reports, then a dirty refresh, `rounds` times.
fn refresh_dirty(service: &LdpService<HhServer>, client: &HhClient, rounds: usize) {
    let mut rng = StdRng::seed_from_u64(4501);
    let domain = service.snapshot().domain();
    for round in 0..rounds {
        for i in 0..8 {
            let report = client.report((i * 977 + round) % domain, &mut rng).unwrap();
            service.submit(&report).unwrap();
        }
        let before = service.snapshot().version();
        assert_eq!(service.refresh_snapshot().unwrap().version(), before + 1);
    }
}

#[test]
fn one_helper_per_split_service_and_none_after_it() {
    let base = threads().len();
    assert_eq!(helpers(), 0);

    // Below the cutoff: no helper, however many refreshes.
    let (client, prototype) = hh(SPLIT_FREEZE_MIN_DOMAIN / 4);
    let small = LdpService::new(&prototype, 2).unwrap();
    refresh_dirty(&small, &client, 20);
    assert_eq!(
        threads().len(),
        base,
        "a service below the cutoff spawned a thread"
    );
    drop(small);

    // At the cutoff and above: one helper, however many refreshes.
    let (client, prototype) = hh(1 << 16);
    let big = LdpService::new(&prototype, 2).unwrap();
    assert_eq!(helpers(), 0, "the helper is spawned lazily");
    for _ in 0..4 {
        refresh_dirty(&big, &client, 5);
        assert_eq!(helpers(), 1);
        assert_eq!(threads().len(), base + 1);
    }
    let (at_client, at_prototype) = hh(SPLIT_FREEZE_MIN_DOMAIN);
    let at = LdpService::new(&at_prototype, 2).unwrap();
    refresh_dirty(&at, &at_client, 5);
    assert_eq!(helpers(), 2, "one helper per service");
    drop(at);
    drop(big);
    assert_eq!(
        threads_settled_at(base),
        base,
        "a helper outlived its service"
    );
    assert_eq!(helpers(), 0);

    // Behind a socket server: a fresh QUERY spawns the helper, and
    // shutdown — which drops the server's only handle on the service —
    // takes it away.
    let service = Arc::new(LdpService::new(&prototype, 2).unwrap());
    let server = LdpServer::bind("127.0.0.1:0", service, NetConfig::default()).unwrap();
    let mut session = LdpClient::connect(server.local_addr(), Hello::plain::<HhReport>()).unwrap();
    let mut rng = StdRng::seed_from_u64(4502);
    for round in 0..3 {
        let mut stream = EncodedStream::new();
        for i in 0..16 {
            stream.push(
                &client
                    .report((i * 4099 + round) % (1 << 16), &mut rng)
                    .unwrap(),
            );
        }
        let n = stream.len() as u64;
        assert_eq!(session.send_batch(n, stream.as_bytes()).unwrap(), n);
        session
            .query(Query {
                op: QueryOp::Range { a: 0, b: 999 },
                window: None,
            })
            .unwrap();
        assert_eq!(helpers(), 1);
    }
    drop(session);
    let _ = server.shutdown();
    assert_eq!(
        threads_settled_at(base),
        base,
        "a thread outlived the server"
    );
    assert_eq!(helpers(), 0);
}
