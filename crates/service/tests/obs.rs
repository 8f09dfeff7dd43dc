//! The telemetry layer's contracts, end to end.
//!
//! The registry's frozen views obey the same exact integer algebra as
//! the mechanism servers: per-shard histograms merge bit-identically to
//! a single writer, merge − subtract round-trips exactly, and the
//! Prometheus exposition carries every scalar of a snapshot exactly.
//! Over a real socket the drain totals, the STATUS counters, and a
//! `GET /metrics` scrape are one accounting path that can never disagree,
//! and the session protocol answers the retired telemetry type bytes
//! with typed errors.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use ldp_freq_oracle::Epsilon;
use ldp_ranges::{HhClient, HhConfig, HhServer};
use ldp_service::net::proto::{ClientMsg, ServerMsg, RETIRED_TYPES};
use ldp_service::net::{Hello, NetConfig};
use ldp_service::obs::instruments::names;
use ldp_service::obs::{Histo, MetricValue};
use ldp_service::storage::{scratch_dir, DurableConfig, DurableService, FsyncPolicy};
use ldp_service::{
    EncodedStream, LdpClient, LdpServer, LdpService, MetricsRegistry, RegistrySnapshot, WireError,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The scalar samples of a Prometheus text body — every `name value`
/// line without labels (counters, gauges, histogram `_sum` / `_count`).
fn prom_scalars(body: &str) -> BTreeMap<String, u64> {
    body.lines()
        .filter(|line| !line.starts_with('#') && !line.contains('{') && !line.is_empty())
        .map(|line| {
            let (name, value) = line.rsplit_once(' ').expect("sample has a value");
            (name.to_string(), value.parse().expect("integer sample"))
        })
        .collect()
}

/// The scalars a snapshot's exposition must carry, under their
/// Prometheus names.
fn snapshot_scalars(snapshot: &RegistrySnapshot) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for entry in snapshot.entries() {
        let name = entry.name.replace('.', "_");
        match &entry.value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                out.insert(name, *v);
            }
            MetricValue::Histo(h) => {
                out.insert(format!("{name}_sum"), h.sum());
                out.insert(format!("{name}_count"), h.count());
            }
        }
    }
    out
}

// --- exact histogram algebra -------------------------------------------

/// Sharded recording merges bit-identically to a single writer: the
/// telemetry analogue of `MergeableServer`'s exactness argument, proven
/// the same way (differentially).
#[test]
fn sharded_histograms_merge_bit_identical_to_single_writer() {
    let values: Vec<u64> = (0..4000u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
        .collect();

    let single = Histo::new();
    for &v in &values {
        single.record(v);
    }

    let shards: Vec<Histo> = (0..4).map(|_| Histo::new()).collect();
    for (i, &v) in values.iter().enumerate() {
        shards[i % 4].record(v);
    }
    let mut merged = shards[0].snapshot();
    for shard in &shards[1..] {
        merged.merge(&shard.snapshot()).unwrap();
    }

    let reference = single.snapshot();
    assert_eq!(merged.count(), reference.count());
    assert_eq!(merged.sum(), reference.sum());
    assert_eq!(merged.buckets(), reference.buckets(), "buckets diverged");
}

/// Four writers hammering *one* histogram lose nothing: the final
/// snapshot equals a single-threaded recording of the same multiset.
#[test]
fn concurrent_recording_is_exact() {
    let histo = Arc::new(Histo::new());
    let per_thread = 5000u64;
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let histo = Arc::clone(&histo);
            std::thread::spawn(move || {
                for i in 0..per_thread {
                    histo.record(t * per_thread + i);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let reference = Histo::new();
    for v in 0..4 * per_thread {
        reference.record(v);
    }
    let got = histo.snapshot();
    let want = reference.snapshot();
    assert_eq!(got.count(), want.count());
    assert_eq!(got.sum(), want.sum());
    assert_eq!(got.buckets(), want.buckets());
}

fn snapshot_of(values: &[u64]) -> ldp_service::HistoSnapshot {
    let h = Histo::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    /// Every value lands in the bucket whose bounds contain it.
    #[test]
    fn bucket_bounds_contain_their_values(v in 0u64..u64::MAX) {
        let i = Histo::bucket_index(v);
        let (lo, hi) = Histo::bucket_bounds(i);
        prop_assert!(lo <= v && v <= hi, "value {v} outside bucket {i} = [{lo}, {hi}]");
    }

    /// merge then subtract round-trips bit-identically (histograms).
    #[test]
    fn histo_merge_subtract_roundtrip(
        a in proptest::collection::vec(0u64..u64::MAX, 0..64),
        b in proptest::collection::vec(0u64..u64::MAX, 0..64),
    ) {
        let sa = snapshot_of(&a);
        let sb = snapshot_of(&b);
        let mut merged = sa.clone();
        merged.merge(&sb).unwrap();
        merged.subtract(&sb).unwrap();
        prop_assert_eq!(merged, sa);
    }

    /// Subtracting more than a histogram holds is rejected — and the
    /// rejection is all-or-nothing: the failed operand is unchanged.
    #[test]
    fn histo_underflow_rejected_state_unchanged(
        a in proptest::collection::vec(0u64..1024, 1..32),
    ) {
        let sa = snapshot_of(&a);
        let mut bigger = sa.clone();
        bigger.merge(&sa).unwrap();
        let mut victim = sa.clone();
        prop_assert!(victim.subtract(&bigger).is_err());
        prop_assert_eq!(victim, sa, "failed subtract mutated its operand");
    }

    /// A registry's delta between two moments is exact: snapshot twice,
    /// subtract, merge the delta back — bit-identical to the second
    /// snapshot. This is the drain-accounting property the server's
    /// stats rely on.
    #[test]
    fn registry_delta_roundtrip(
        phase1 in proptest::collection::vec(0u64..u64::MAX, 0..32),
        phase2 in proptest::collection::vec(0u64..u64::MAX, 0..32),
    ) {
        let registry = MetricsRegistry::new();
        let counter = registry.counter("t.counter");
        let gauge = registry.gauge("t.gauge");
        let histo = registry.histo("t.histo");
        for &v in &phase1 {
            counter.add(v % 1024);
            gauge.record_max(v);
            histo.record(v);
        }
        let s1 = registry.snapshot();
        for &v in &phase2 {
            counter.add(v % 1024);
            gauge.record_max(v);
            histo.record(v);
        }
        let s2 = registry.snapshot();

        let mut delta = s2.clone();
        delta.subtract(&s1).unwrap();
        let mut rebuilt = s1.clone();
        rebuilt.merge(&delta).unwrap();
        prop_assert_eq!(rebuilt, s2);
    }

    /// The Prometheus exposition carries every scalar of a snapshot
    /// exactly: counters, gauges, and each histogram's sum and count read
    /// back from the text equal the frozen values.
    #[test]
    fn exposition_roundtrips_canonically(
        counts in proptest::collection::vec(0u64..u64::MAX, 0..8),
        values in proptest::collection::vec(0u64..u64::MAX, 0..32),
    ) {
        let registry = MetricsRegistry::new();
        for (i, &c) in counts.iter().enumerate() {
            registry.counter(&format!("c.{i}")).add(c);
            registry.gauge(&format!("g.{i}")).set(c);
        }
        let histo = registry.histo("h.latency");
        for &v in &values {
            histo.record(v);
        }
        let snapshot = registry.snapshot();
        prop_assert_eq!(prom_scalars(&snapshot.render_prom()), snapshot_scalars(&snapshot));
    }

    /// Arbitrary byte soup never panics the session decoders, and a body
    /// led by a retired telemetry type byte is always an unknown type.
    #[test]
    fn arbitrary_bytes_never_panic_decoder(
        bytes in proptest::collection::vec(0u64..256, 0..256),
    ) {
        let bytes: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        let _ = ServerMsg::decode(&bytes);
        let _ = ClientMsg::decode(&bytes);
        for type_byte in RETIRED_TYPES {
            let mut framed = vec![type_byte];
            framed.extend_from_slice(&bytes);
            prop_assert_eq!(ClientMsg::decode(&framed), Err(WireError::UnknownKind(type_byte)));
            prop_assert_eq!(ServerMsg::decode(&framed), Err(WireError::UnknownKind(type_byte)));
        }
    }
}

// --- the socket surfaces -----------------------------------------------

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

/// `service.freeze_ns` counts freezes, not refreshes: a refresh that
/// publishes a new version adds exactly one sample, and a clean refresh
/// (nothing absorbed since) adds none while `service.refresh_ns` still
/// counts it.
#[test]
fn freeze_histogram_samples_only_publishing_refreshes() {
    let (client, prototype) = hh_parts();
    let service = LdpService::new(&prototype, 2).unwrap();
    let registry = MetricsRegistry::new();
    assert!(service.attach_metrics(&registry));
    let counts = || {
        let snapshot = registry.snapshot();
        let count = |name| snapshot.histo(name).map_or(0, |h| h.count());
        (
            count(names::SERVICE_FREEZE_NS),
            count(names::SERVICE_REFRESH_NS),
        )
    };
    let mut rng = StdRng::seed_from_u64(9050);

    let mut version = service.snapshot().version();
    for round in 1..=3u64 {
        for i in 0..20 {
            service
                .submit(&client.report(i % 64, &mut rng).unwrap())
                .unwrap();
        }
        let dirty = service.refresh_snapshot().unwrap();
        assert!(
            dirty.version() > version,
            "round {round}: dirty refresh publishes"
        );
        version = dirty.version();
        assert_eq!(counts(), (round, 2 * round - 1), "round {round}: dirty");

        let clean = service.refresh_snapshot().unwrap();
        assert!(
            Arc::ptr_eq(&dirty, &clean),
            "round {round}: clean refresh republished"
        );
        assert_eq!(counts(), (round, 2 * round), "round {round}: clean");
    }
}

/// `service.drain_ns` samples like `service.freeze_ns`: once per
/// publishing refresh, none for a clean one — including a refresh that
/// publishes what `merged_state` drained before it, which drains no shard
/// itself. `service.refresh_shards_drained` counts the shards each
/// refresh actually drained.
#[test]
fn drain_histogram_samples_only_publishing_refreshes() {
    let (client, prototype) = hh_parts();
    let service = LdpService::new(&prototype, 2).unwrap();
    let registry = MetricsRegistry::new();
    assert!(service.attach_metrics(&registry));
    let counts = || {
        let snapshot = registry.snapshot();
        let count = |name| snapshot.histo(name).map_or(0, |h| h.count());
        (
            count(names::SERVICE_DRAIN_NS),
            count(names::SERVICE_REFRESH_NS),
            snapshot
                .counter(names::SERVICE_REFRESH_SHARDS_DRAINED)
                .unwrap_or(0),
        )
    };
    let mut rng = StdRng::seed_from_u64(9060);
    let mut submit = |n| {
        for i in 0..n {
            service
                .submit(&client.report(i % 64, &mut rng).unwrap())
                .unwrap();
        }
    };

    for round in 1..=3u64 {
        submit(20);
        let dirty = service.refresh_snapshot().unwrap();
        assert_eq!(
            counts(),
            (round, 2 * round - 1, 2 * round),
            "round {round}: dirty refresh drains both shards"
        );
        let clean = service.refresh_snapshot().unwrap();
        assert!(Arc::ptr_eq(&dirty, &clean), "round {round}: republished");
        assert_eq!(counts(), (round, 2 * round, 2 * round), "round {round}");
    }

    submit(1);
    service.merged_state().unwrap();
    let published = service.refresh_snapshot().unwrap();
    assert_eq!(published.num_reports(), 61);
    assert_eq!(
        counts(),
        (4, 7, 6),
        "drained by merged_state, still published"
    );
}

/// Four concurrent socket writers: the drained stats, the registry's
/// net/shard counters, and the backend's report count all agree exactly
/// on the acked total — one accounting path, no lost updates — and each
/// handled message is one sample in its type's latency histogram.
#[test]
fn four_writer_socket_ingest_totals_are_exact() {
    let (client, prototype) = hh_parts();
    let service = Arc::new(LdpService::new(&prototype, 4).unwrap());
    let registry = Arc::new(MetricsRegistry::new());
    let config = NetConfig {
        registry: Some(Arc::clone(&registry)),
        ..NetConfig::default()
    };
    let server = LdpServer::bind("127.0.0.1:0", Arc::clone(&service), config).unwrap();
    let addr = server.local_addr();

    const WRITERS: u64 = 4;
    const FRAMES_EACH: usize = 250;
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let stream = stream_of(&client, 9100 + w, FRAMES_EACH);
            std::thread::spawn(move || {
                let mut session =
                    LdpClient::connect(addr, Hello::plain::<ldp_ranges::HhReport>()).unwrap();
                let acked = session.send_stream(&stream, 50).unwrap();
                let _ = session.range(0, 63).unwrap();
                let _ = session.status().unwrap();
                session.bye().unwrap();
                acked
            })
        })
        .collect();
    let acked: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let total = WRITERS * FRAMES_EACH as u64;
    assert_eq!(acked, total);

    let stats = server.shutdown();
    assert_eq!(stats.frames_absorbed, total);
    assert_eq!(stats.frames_rejected, 0);
    assert_eq!(stats.sessions, WRITERS);
    assert_eq!(stats.num_reports, total);

    let snapshot = registry.snapshot();
    assert_eq!(snapshot.counter(names::NET_FRAMES_ABSORBED), Some(total));
    assert_eq!(snapshot.counter(names::SHARD_FRAMES_ACCEPTED), Some(total));
    assert_eq!(snapshot.counter(names::NET_SESSIONS_OPENED), Some(WRITERS));
    assert_eq!(snapshot.counter(names::NET_SESSIONS_CLOSED), Some(WRITERS));
    let samples = |name: &str| snapshot.histo(name).map(|h| h.count());
    assert_eq!(
        samples(names::NET_REPORT_NS),
        Some(WRITERS * (FRAMES_EACH as u64).div_ceil(50)),
        "one latency sample per REPORT message"
    );
    assert_eq!(samples(names::NET_QUERY_NS), Some(WRITERS));
    assert_eq!(samples(names::NET_STATUS_NS), Some(WRITERS));
    assert_eq!(samples(names::NET_SEAL_NS), Some(0));
    assert!(snapshot.counter(names::NET_BYTES_IN).unwrap() > 0);
    assert!(snapshot.counter(names::NET_BYTES_OUT).unwrap() > 0);
}

/// One HTTP GET over a fresh connection; the ops endpoint closes after
/// every response, so read-to-EOF frames the reply.
fn scrape(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status = raw.split(' ').nth(1).and_then(|s| s.parse().ok()).unwrap();
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string());
    (status, body.unwrap_or_default())
}

/// The acceptance gate: a durable *windowed* server exercised over the
/// socket shows live instruments from every tier — shard, service,
/// window, net, and storage — in one `GET /metrics` scrape, every scraped
/// scalar equals the in-process registry snapshot taken right after, and
/// the STATUS probe reports the same counters.
///
/// Then more traffic and a second scrape: on the quiescent server the
/// difference of the two scrapes is, scalar for scalar, the exact
/// [`RegistrySnapshot::subtract`] of the snapshots taken beside them
/// (gauges compared as levels). A scraper therefore needs no
/// server-side history to get per-interval deltas.
#[test]
fn metrics_probe_sees_every_tier_live() {
    let (client, prototype) = hh_parts();
    let registry = Arc::new(MetricsRegistry::new());
    let dir = scratch_dir("obs-every-tier").unwrap();
    let (durable, _) = DurableService::open_windowed(
        &dir,
        &prototype,
        2,
        DurableConfig {
            num_shards: 2,
            fsync: FsyncPolicy::Always,
            registry: Some(Arc::clone(&registry)),
            ..DurableConfig::default()
        },
    )
    .unwrap();
    let durable = Arc::new(durable);
    // NetConfig.registry is None: bind_durable must share the storage
    // tier's registry on its own.
    let config = NetConfig {
        ops_addr: Some("127.0.0.1:0".to_string()),
        ..NetConfig::default()
    };
    let server = LdpServer::bind_durable("127.0.0.1:0", Arc::clone(&durable), config).unwrap();
    assert!(Arc::ptr_eq(server.registry(), &registry));
    let ops = server.ops_local_addr().expect("ops endpoint bound");

    let mut session = LdpClient::connect(
        server.local_addr(),
        Hello::windowed::<ldp_ranges::HhReport>(),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(9200);
    for epoch in 0..2u64 {
        let mut stream = EncodedStream::new();
        for i in 0..120usize {
            stream.push_epoch(&client.report((i * 11) % 64, &mut rng).unwrap(), epoch);
        }
        assert_eq!(session.send_stream(&stream, 40).unwrap(), 120);
        assert_eq!(session.seal_epoch().unwrap(), epoch);
    }
    let _ = session.quantile(0.5).unwrap();

    // The STATUS probe carries the counters and durability progress.
    let status = session.status().unwrap();
    assert_eq!(status.frames_absorbed, 240);
    assert_eq!(status.durable.map(|d| d.wal_records), Some(8));

    let before = server.registry().snapshot();
    let (code, body) = scrape(ops, "/metrics");
    assert_eq!(code, 200);
    let scraped = prom_scalars(&body);
    let after = server.registry().snapshot();

    // Shard tier.
    assert_eq!(scraped["shard_frames_accepted"], 240);
    assert!(scraped["shard_absorb_ns_count"] > 0);
    // Service tier (the query refreshed a snapshot).
    assert!(scraped["service_refreshes"] >= 1);
    assert!(scraped["service_refresh_ns_count"] >= 1);
    // Window tier.
    assert_eq!(scraped["window_epochs_sealed"], 2);
    assert_eq!(scraped["window_seal_ns_count"], 2);
    // Net tier.
    assert_eq!(scraped["net_frames_absorbed"], 240);
    assert!(scraped["net_report_ns_count"] >= 6);
    // Storage tier: one WAL record per batch + one per seal.
    assert_eq!(scraped["wal_frames"], 240);
    assert_eq!(scraped["wal_records"], 8);
    assert!(scraped["wal_append_ns_count"] >= 8);
    assert_eq!(scraped["storage_wedged"], 0);

    // Every scalar of the in-process snapshot taken right after the
    // scrape is in the scrape, with the same value.
    for (name, value) in snapshot_scalars(&after) {
        assert_eq!(scraped.get(&name), Some(&value), "{name}");
    }
    // The later snapshot can only have moved forward: subtracting the
    // earlier one must succeed (counters and histograms are monotone).
    let mut delta = after.clone();
    delta
        .subtract(&before)
        .expect("later snapshot subtracts the earlier one exactly");

    // Phase two: one more epoch of traffic, two scrapes the first one
    // does not see (a `/health` and a 404), then the second `/metrics`.
    let mut stream = EncodedStream::new();
    for i in 0..120usize {
        stream.push_epoch(&client.report((i * 13) % 64, &mut rng).unwrap(), 2);
    }
    assert_eq!(session.send_stream(&stream, 40).unwrap(), 120);
    assert_eq!(session.seal_epoch().unwrap(), 2);
    let _ = session.range(3, 40).unwrap();
    assert_eq!(scrape(ops, "/health").0, 200);
    assert_eq!(scrape(ops, "/nope").0, 404);
    let (code, body) = scrape(ops, "/metrics");
    assert_eq!(code, 200);
    let rescraped = prom_scalars(&body);
    let later = server.registry().snapshot();

    let mut interval = later.clone();
    interval
        .subtract(&after)
        .expect("snapshots of one live registry subtract exactly");
    let mut checked = 0;
    for entry in interval.entries() {
        let name = entry.name.replace('.', "_");
        let pairs = match &entry.value {
            // A gauge is a level: the second scrape shows it as is.
            MetricValue::Gauge(level) => {
                assert_eq!(rescraped.get(&name), Some(level), "{name}");
                checked += 1;
                continue;
            }
            MetricValue::Counter(v) => vec![(name, *v)],
            MetricValue::Histo(h) => vec![
                (format!("{name}_sum"), h.sum()),
                (format!("{name}_count"), h.count()),
            ],
        };
        for (name, want) in pairs {
            let first = scraped.get(&name).copied().unwrap_or(0);
            assert_eq!(rescraped[&name] - first, want, "{name}");
            checked += 1;
        }
    }
    assert_eq!(checked, rescraped.len(), "every scraped scalar was checked");
    // The interval's traffic, read off the scrape difference.
    let moved = |name: &str| rescraped[name] - scraped.get(name).copied().unwrap_or(0);
    assert_eq!(moved("shard_frames_accepted"), 120);
    assert_eq!(moved("wal_records"), 4);
    assert_eq!(moved("window_epochs_sealed"), 1);
    // Three requests since the first scrape, one of them the 404.
    assert_eq!(moved("ops_http_requests"), 3);
    assert_eq!(moved("ops_http_errors"), 1);

    session.bye().unwrap();
    let stats = server.shutdown();
    assert_eq!(stats.frames_absorbed, 360);
    std::fs::remove_dir_all(&dir).unwrap();
}
