//! Benchmarks for the transform substrate: FWHT, Haar, and B-adic
//! decomposition.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ldp_transforms::{decompose_range, fwht, haar_forward, CompleteTree, HaarPyramid};

fn bench_fwht(c: &mut Criterion) {
    let mut group = c.benchmark_group("fwht");
    // 2^16 is the served HaarHRR domain (one FWHT per tree depth).
    for log in [10u32, 14, 16, 18] {
        let n = 1usize << log;
        let data: Vec<f64> = (0..n).map(|i| (i % 97) as f64).collect();
        // Refill one preallocated buffer so the timing is the transform,
        // not an allocation and copy of the input.
        let mut x = vec![0.0; n];
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                x.copy_from_slice(&data);
                fwht(black_box(&mut x));
                black_box(x[0])
            })
        });
    }
    group.finish();
}

fn bench_haar(c: &mut Criterion) {
    let mut group = c.benchmark_group("haar_forward");
    for log in [10u32, 14, 18] {
        let n = 1usize << log;
        let data: Vec<f64> = (0..n).map(|i| (i % 89) as f64).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(haar_forward(black_box(&data))))
        });
    }
    group.finish();
}

fn bench_haar_range_sum(c: &mut Criterion) {
    // O(log D) range evaluation on the pyramid.
    let n = 1usize << 20;
    let data: Vec<f64> = (0..n).map(|i| (i % 83) as f64).collect();
    let pyramid = HaarPyramid::from_leaves(&data);
    c.bench_function("haar_pyramid_range_sum_d2e20", |b| {
        b.iter(|| black_box(pyramid.range_sum(black_box(12_345), black_box(987_654))))
    });
}

fn bench_decompose(c: &mut Criterion) {
    let mut group = c.benchmark_group("badic_decompose_d2e20");
    for fanout in [2usize, 4, 16] {
        let shape = CompleteTree::new(fanout, 1 << 20);
        group.bench_with_input(BenchmarkId::from_parameter(fanout), &fanout, |b, _| {
            b.iter(|| {
                black_box(decompose_range(
                    &shape,
                    black_box(12_345),
                    black_box(987_654),
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fwht,
    bench_haar,
    bench_haar_range_sum,
    bench_decompose
);
criterion_main!(benches);
