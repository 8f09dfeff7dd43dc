//! Cost benchmarks for the frequency oracles — the paper's resource claims
//! (§3.2): client-side encoding is cheap for all mechanisms; aggregation is
//! `O(N + D log D)` for HRR versus `O(N·D)` for OLH; OUE pays `O(D)`
//! communication/computation per user.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ldp_freq_oracle::{Epsilon, Hrr, Olh, Oue, PointOracle, Sue};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_encode(c: &mut Criterion) {
    let eps = Epsilon::from_exp(3.0);
    let mut group = c.benchmark_group("oracle_encode");
    for domain in [256usize, 4096] {
        let oue = Oue::new(domain, eps).unwrap();
        let olh = Olh::new(domain, eps).unwrap();
        let hrr = Hrr::new(domain, eps).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        group.bench_with_input(BenchmarkId::new("OUE", domain), &domain, |b, _| {
            b.iter(|| black_box(oue.encode(black_box(5), &mut rng).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("OLH", domain), &domain, |b, _| {
            b.iter(|| black_box(olh.encode(black_box(5), &mut rng).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("HRR", domain), &domain, |b, _| {
            b.iter(|| black_box(hrr.encode(black_box(5), &mut rng).unwrap()))
        });
    }
    group.finish();
}

/// The unary client encode at D = 2^16, where it is most of a client's
/// cost: OUE at e^ε ∈ {1.5, 3, 9} (q = 0.4, 1/4, 0.1) and SUE at
/// e^ε ∈ {1.5, 3}. Only q = 1/4 is a power of two (2 random words per 64
/// bits); the others have long binary expansions, and 64 lanes take ≈ 8
/// words to decide. Divide by 65 536 for ns/bit.
fn bench_unary_encode(c: &mut Criterion) {
    let domain = 1usize << 16;
    let mut rng = StdRng::seed_from_u64(6);
    let mut group = c.benchmark_group("unary_encode_d65536");
    for exp_eps in [1.5, 3.0, 9.0] {
        let oue = Oue::new(domain, Epsilon::from_exp(exp_eps)).unwrap();
        group.bench_with_input(BenchmarkId::new("OUE", exp_eps), &exp_eps, |b, _| {
            b.iter(|| black_box(oue.encode(black_box(5), &mut rng).unwrap()))
        });
    }
    for exp_eps in [1.5, 3.0] {
        let sue = Sue::new(domain, Epsilon::from_exp(exp_eps)).unwrap();
        group.bench_with_input(BenchmarkId::new("SUE", exp_eps), &exp_eps, |b, _| {
            b.iter(|| black_box(sue.encode(black_box(5), &mut rng).unwrap()))
        });
    }
    group.finish();
}

fn bench_absorb(c: &mut Criterion) {
    let eps = Epsilon::from_exp(3.0);
    let domain = 1024usize;
    let mut rng = StdRng::seed_from_u64(2);
    let mut group = c.benchmark_group("oracle_absorb_one_report");
    {
        let oracle = Oue::new(domain, eps).unwrap();
        let report = oracle.encode(7, &mut rng).unwrap();
        let mut server = oracle.clone();
        group.bench_function("OUE", |b| {
            b.iter(|| server.absorb(black_box(&report)).unwrap())
        });
    }
    {
        let oracle = Olh::new(domain, eps).unwrap();
        let report = oracle.encode(7, &mut rng).unwrap();
        let mut server = oracle.clone();
        // The O(D) support scan per report — OLH's decode bottleneck.
        group.bench_function("OLH", |b| {
            b.iter(|| server.absorb(black_box(&report)).unwrap())
        });
    }
    {
        let oracle = Hrr::new(domain, eps).unwrap();
        let report = oracle.encode(7, &mut rng).unwrap();
        let mut server = oracle.clone();
        group.bench_function("HRR", |b| {
            b.iter(|| server.absorb(black_box(&report)).unwrap())
        });
    }
    group.finish();
}

/// The batch absorb the service runs: 32 deferred OUE reports then one
/// settle, one `HH_4` level's share of a 256-frame batch. The one-report
/// `absorb` above never reaches the settle's plane spill (a lone pending
/// report takes the set-bit walk); this does. Reports are encoded once,
/// outside the timed loop. Divide by 32 for ns per report.
fn bench_absorb_batch(c: &mut Criterion) {
    const BATCH: usize = 32;
    let eps = Epsilon::from_exp(3.0);
    let mut rng = StdRng::seed_from_u64(7);
    let mut group = c.benchmark_group("oracle_absorb_batch_32");
    for domain in [1usize << 10, 1 << 16] {
        let oracle = Oue::new(domain, eps).unwrap();
        let reports: Vec<_> = (0..BATCH)
            .map(|i| oracle.encode(i * 31 % domain, &mut rng).unwrap())
            .collect();
        let mut server = oracle.clone();
        group.bench_with_input(BenchmarkId::new("OUE", domain), &domain, |b, _| {
            b.iter(|| {
                for report in &reports {
                    server.absorb_deferred(black_box(report)).unwrap();
                }
                server.settle();
            })
        });
    }
    group.finish();
}

fn bench_population_simulation(c: &mut Criterion) {
    // The statistically-equivalent aggregate path: absorbing 2^20 users at
    // once (OUE and HRR; OLH has no aggregate shortcut).
    let eps = Epsilon::from_exp(3.0);
    let mut group = c.benchmark_group("oracle_absorb_population_2e20");
    group.sample_size(10);
    for domain in [1024usize, 65_536] {
        let counts = vec![(1u64 << 20) / domain as u64; domain];
        group.bench_with_input(BenchmarkId::new("OUE", domain), &domain, |b, _| {
            let mut rng = StdRng::seed_from_u64(3);
            b.iter(|| {
                let mut oracle = Oue::new(domain, eps).unwrap();
                oracle
                    .absorb_population(black_box(&counts), &mut rng)
                    .unwrap();
                black_box(oracle.num_reports())
            })
        });
        group.bench_with_input(BenchmarkId::new("HRR", domain), &domain, |b, _| {
            let mut rng = StdRng::seed_from_u64(4);
            b.iter(|| {
                let mut oracle = Hrr::new(domain, eps).unwrap();
                oracle
                    .absorb_population(black_box(&counts), &mut rng)
                    .unwrap();
                black_box(oracle.num_reports())
            })
        });
    }
    group.finish();
}

fn bench_estimate(c: &mut Criterion) {
    // Aggregator decode: HRR's O(D log D) inverse transform vs OUE's O(D)
    // correction (OLH's cost is in absorb, measured above).
    let eps = Epsilon::from_exp(3.0);
    let domain = 1 << 14;
    let counts = vec![64u64; domain];
    let mut rng = StdRng::seed_from_u64(5);
    let mut oue = Oue::new(domain, eps).unwrap();
    oue.absorb_population(&counts, &mut rng).unwrap();
    let mut hrr = Hrr::new(domain, eps).unwrap();
    hrr.absorb_population(&counts, &mut rng).unwrap();
    let mut group = c.benchmark_group("oracle_estimate_d16384");
    group.bench_function("OUE", |b| b.iter(|| black_box(oue.estimate())));
    group.bench_function("HRR", |b| b.iter(|| black_box(hrr.estimate())));
    group.finish();
}

criterion_group!(
    benches,
    bench_encode,
    bench_unary_encode,
    bench_absorb,
    bench_absorb_batch,
    bench_population_simulation,
    bench_estimate
);
criterion_main!(benches);
