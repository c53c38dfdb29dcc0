//! Criterion group `e8_ts_bank`: per-element ingestion cost of the fused
//! `TsEngineBank` samplers against the independent-engine reference types
//! (`IndependentTsWr`/`IndependentTsWor`), across `k` — the ablation
//! behind the `ts_wr_speedup_k64` field of `BENCH_throughput.json`.

use criterion::{criterion_group, criterion_main, Bencher, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;
use swsample_core::ts::independent::{IndependentTsWor, IndependentTsWr};
use swsample_core::ts::{TsSamplerWor, TsSamplerWr};
use swsample_core::WindowSampler;

/// One arrival per iteration, 4 arrivals per tick.
fn bench_inserts<S: WindowSampler<u64>>(b: &mut Bencher, s: &mut S) {
    let mut tick = 0u64;
    let mut i = 0u64;
    b.iter(|| {
        if i.is_multiple_of(4) {
            tick += 1;
            s.advance_time(tick);
        }
        s.insert(black_box(i));
        i += 1;
    });
}

fn bench_bank_vs_independent(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_ts_bank");
    group.throughput(Throughput::Elements(1));
    let t0 = 1024u64;
    for &k in &[16usize, 64] {
        for (label, fused) in [("fused", true), ("independent", false)] {
            group.bench_with_input(
                BenchmarkId::new(format!("wr_{label}"), format!("k{k}")),
                &k,
                |b, &k| {
                    let rng = SmallRng::seed_from_u64(1);
                    if fused {
                        bench_inserts(b, &mut TsSamplerWr::new(t0, k, rng))
                    } else {
                        bench_inserts(b, &mut IndependentTsWr::new(t0, k, rng))
                    }
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("wor_{label}"), format!("k{k}")),
                &k,
                |b, &k| {
                    let rng = SmallRng::seed_from_u64(2);
                    if fused {
                        bench_inserts(b, &mut TsSamplerWor::new(t0, k, rng))
                    } else {
                        bench_inserts(b, &mut IndependentTsWor::new(t0, k, rng))
                    }
                },
            );
        }
    }
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
    targets = bench_bank_vs_independent
}
criterion_main!(benches);
