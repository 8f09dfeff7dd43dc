//! The full aggregation-service pipeline on one page:
//! ingest → merge → snapshot → query.
//!
//! A synthetic population reports through the hierarchical-histogram
//! mechanism; reports travel as wire frames, concurrent submitters stream
//! them in batches into the sharded service, and a frozen snapshot serves
//! range, prefix and quantile queries while ingestion keeps running.
//!
//! ```text
//! cargo run --release --example service_pipeline
//! ```

use ldp_range_queries::prelude::*;
use ldp_range_queries::service::{wire, LdpService};
use ldp_range_queries::workloads::DistributionKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let domain = 1024;
    let users = 200_000u64;
    let shards = 4;

    // A skewed synthetic population (the paper's truncated-Cauchy family).
    let mut rng = StdRng::seed_from_u64(42);
    let dataset = Dataset::sample(
        DistributionKind::Cauchy(CauchyParams::paper_default()),
        domain,
        users,
        &mut rng,
    );

    let config = HhConfig::new(domain, 4, Epsilon::from_exp(3.0)).expect("valid config");
    let client = HhClient::new(config.clone()).expect("client");
    let prototype = HhServer::new(config).expect("server");

    // 1. Clients encode their LDP reports into wire frames.
    let stream = ldp_range_queries::service::generate_stream(&dataset, users, 7, |value, rng| {
        client.report(value, rng).expect("in-domain value")
    });
    println!(
        "encoded {} reports into {:.1} MiB ({:.1} bytes/report)",
        stream.len(),
        stream.total_bytes() as f64 / (1024.0 * 1024.0),
        stream.mean_frame_bytes(),
    );

    // 2. One submitter per shard streams its slice of the wire bytes
    //    into the service in 256-frame batches, each absorbed in place and
    //    all-or-nothing. Merging is exact, so the result equals
    //    single-threaded absorption whichever shard a batch lands in.
    let service = LdpService::new(&prototype, shards).expect("shards > 0");
    let started = std::time::Instant::now();
    let per_submitter = stream.len().div_ceil(shards);
    std::thread::scope(|scope| {
        for w in 0..shards {
            let (service, stream) = (&service, &stream);
            scope.spawn(move || {
                let end = ((w + 1) * per_submitter).min(stream.len());
                for lo in (w * per_submitter..end).step_by(256) {
                    let hi = (lo + 256).min(end);
                    service
                        .submit_wire_batch(
                            wire::VERSION,
                            (hi - lo) as u64,
                            stream.frame_span(lo, hi),
                        )
                        .expect("well-formed batch");
                }
            });
        }
    });
    println!(
        "ingested across {shards} shards in {:.2?} ({:.0} reports/sec)",
        started.elapsed(),
        stream.len() as f64 / started.elapsed().as_secs_f64(),
    );

    // 3. Publish a snapshot and answer queries against ground truth.
    let snap = service.refresh_snapshot().expect("refresh");
    println!(
        "\n{:>22}  {:>10}  {:>10}  {:>8}",
        "query", "estimate", "truth", "error"
    );
    for (a, b) in [(0, domain - 1), (128, 383), (200, 260), (0, 50)] {
        let est = snap.range(a, b);
        let truth = dataset.true_range(a, b);
        println!(
            "{:>22}  {est:>10.4}  {truth:>10.4}  {:>8.4}",
            format!("R[{a},{b}]"),
            (est - truth).abs()
        );
    }
    for phi in [0.25, 0.5, 0.75] {
        let est = snap.quantile(phi);
        let truth = dataset.true_quantile(phi);
        println!(
            "{:>22}  {est:>10}  {truth:>10}  {:>8}",
            format!("quantile({phi})"),
            est.abs_diff(truth)
        );
    }

    // 4. The service stays live: single reports keep arriving from
    //    concurrent clients, and the next refresh folds them in.
    std::thread::scope(|scope| {
        for w in 0..shards {
            let service = &service;
            let client = &client;
            let dataset = &dataset;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + w as u64);
                let sampler = ldp_range_queries::service::ValueSampler::new(dataset);
                for _ in 0..5_000 {
                    let v = sampler.draw(&mut rng);
                    let report = client.report(v, &mut rng).expect("in-domain");
                    service.submit(&report).expect("absorb");
                }
            });
        }
    });
    let live = service.refresh_snapshot().expect("refresh");
    println!(
        "\nlive service: {} reports over {} shards, snapshot v{}, R[128,383] = {:.4}",
        live.num_reports(),
        service.num_shards(),
        live.version(),
        live.range(128, 383),
    );
}
