//! Criterion bench for experiment E13 — the design-choice ablation called
//! out in DESIGN.md: Vitter's Algorithm R (one RNG draw per element) vs
//! Li's Algorithm L (geometric skips) as the per-bucket reservoir.
//!
//! Expected shape: identical at tiny streams, L pulling ahead as the
//! stream/bucket grows (R's cost is Θ(N) draws, L's is
//! Θ(k (1 + log(N/k)))).
//!
//! ASSERTION (the `seq_wr_speedup_k64_n100000` gate of
//! `swsample_bench::throughput::check`, applied by `bench_throughput`
//! before it writes and by `tests/parallel_engine.rs` to the committed
//! file): at len = 100_000 / k = 64 the skip-based ingestion
//! must hold a ≥5× elems/sec lead over the per-element path — the bar
//! `BENCH_throughput.json` records for `seq_wr_skip` vs `seq_wr_naive` at
//! k = 64, n = 10⁵. Since this PR the samplers also clone at most
//! `acceptors − 1` values per arrival (the value is *moved* into the last
//! accepting instance, so the common single-acceptor case clones nothing);
//! if either property regresses, this bench is where the curve bends
//! first.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;
use swsample_core::reservoir::{ReservoirK, ReservoirL, ReservoirOne};

fn bench_fill(c: &mut Criterion) {
    let mut group = c.benchmark_group("reservoir_fill");
    for &len in &[1_000u64, 100_000] {
        group.throughput(Throughput::Elements(len));
        for &k in &[4usize, 64] {
            group.bench_with_input(
                BenchmarkId::new("algorithm_r", format!("len{len}_k{k}")),
                &(len, k),
                |b, &(len, k)| {
                    let mut rng = SmallRng::seed_from_u64(1);
                    b.iter(|| {
                        let mut r = ReservoirK::new(k);
                        for i in 0..len {
                            r.insert(&mut rng, black_box(i), i, i);
                        }
                        black_box(r.entries().len())
                    });
                },
            );
            group.bench_with_input(
                BenchmarkId::new("algorithm_l", format!("len{len}_k{k}")),
                &(len, k),
                |b, &(len, k)| {
                    let mut rng = SmallRng::seed_from_u64(2);
                    b.iter(|| {
                        let mut r = ReservoirL::new(k);
                        for i in 0..len {
                            r.insert(&mut rng, black_box(i), i, i);
                        }
                        black_box(r.entries().len())
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_single(c: &mut Criterion) {
    let mut group = c.benchmark_group("reservoir_one");
    group.throughput(Throughput::Elements(1));
    group.bench_function("insert", |b| {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut r = ReservoirOne::new();
        let mut i = 0u64;
        b.iter(|| {
            r.insert(&mut rng, black_box(i), i, i);
            i += 1;
        });
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_fill, bench_single
}
criterion_main!(benches);
