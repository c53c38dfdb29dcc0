//! Criterion bench for experiments E1/E2: per-element insert cost of the
//! sequence-window samplers (Theorems 2.1 / 2.2) across window sizes and
//! sample counts `k`, plus query cost, the seq-WR acceptance kernel
//! (`record_skip`), and the first-touch cost of a fresh seq-WR fleet.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;
use swsample_core::seq::{SeqSamplerWor, SeqSamplerWr};
use swsample_core::skip::record_skip;
use swsample_core::WindowSampler;
use swsample_stream::{zipf_fleet_events, MultiStreamEngine};

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("seq_insert");
    group.throughput(Throughput::Elements(1));
    for &n in &[1024u64, 65_536] {
        for &k in &[1usize, 8, 64] {
            group.bench_with_input(
                BenchmarkId::new("wr", format!("n{n}_k{k}")),
                &(n, k),
                |b, &(n, k)| {
                    let mut s = SeqSamplerWr::new(n, k, SmallRng::seed_from_u64(1));
                    let mut i = 0u64;
                    b.iter(|| {
                        s.insert(black_box(i));
                        i += 1;
                    });
                },
            );
            group.bench_with_input(
                BenchmarkId::new("wor", format!("n{n}_k{k}")),
                &(n, k),
                |b, &(n, k)| {
                    let mut s = SeqSamplerWor::new(n, k, SmallRng::seed_from_u64(2));
                    let mut i = 0u64;
                    b.iter(|| {
                        s.insert(black_box(i));
                        i += 1;
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("seq_query");
    for &k in &[1usize, 8, 64] {
        group.bench_with_input(BenchmarkId::new("wr_sample_k", k), &k, |b, &k| {
            let mut s = SeqSamplerWr::new(4096, k, SmallRng::seed_from_u64(3));
            for i in 0..10_000u64 {
                s.insert(i);
            }
            b.iter(|| black_box(s.sample_k()));
        });
        group.bench_with_input(BenchmarkId::new("wor_sample_k", k), &k, |b, &k| {
            let mut s = SeqSamplerWor::new(4096, k, SmallRng::seed_from_u64(4));
            for i in 0..10_000u64 {
                s.insert(i);
            }
            b.iter(|| black_box(s.sample_k()));
        });
    }
    group.finish();
}

/// One acceptance's gap draw at the fleet's window (`n = 1000`), from a
/// fresh bucket (`m = 1`), early in it (`m = 8`) and past its middle
/// (`m = 512`, where half the draws end the bucket).
fn bench_record_skip(c: &mut Criterion) {
    let mut group = c.benchmark_group("record_skip");
    for &m in &[1u64, 8, 512] {
        group.bench_with_input(BenchmarkId::new("cap1000", format!("m{m}")), &m, |b, &m| {
            let mut rng = SmallRng::seed_from_u64(5);
            b.iter(|| record_skip(&mut rng, black_box(m), 1000));
        });
    }
    group.finish();
}

/// A fresh 100k-key zipf fleet of seq-WR `k = 16`, `n = 1000` samplers
/// through `MultiStreamEngine::ingest`: most keys are touched a handful
/// of times, so this is dominated by opening each key's first bucket —
/// the allocation and the `k` acceptances every new key pays.
fn bench_fleet_first_touch(c: &mut Criterion) {
    let events: Vec<(u64, u64, u64)> = zipf_fleet_events(100_000, 1.1, 6).take(200_000).collect();
    let mut group = c.benchmark_group("fleet_first_touch");
    group.throughput(Throughput::Elements(events.len() as u64));
    group.sample_size(10);
    group.bench_function("seq_wr_k16_100k_keys", |b| {
        b.iter(|| {
            let mut engine: MultiStreamEngine<u64, u64> = MultiStreamEngine::new(
                "--window seq --n 1000 --mode wr --k 16 --seed 7"
                    .parse()
                    .expect("template parses"),
            )
            .expect("engine builds");
            engine.ingest(&events);
            engine.num_keys()
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
    targets = bench_insert, bench_query, bench_record_skip, bench_fleet_first_touch
}
criterion_main!(benches);
