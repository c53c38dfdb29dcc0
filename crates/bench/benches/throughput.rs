//! Criterion bench for experiment E7: head-to-head per-element cost of the
//! paper's samplers against every baseline, at matched parameters
//! (sequence: n = 4096, k = 8; timestamp: t0 = 1024, 4 arrivals/tick).
//!
//! The paper's disadvantage (a) of over-sampling — extra per-element cost —
//! shows up here, as does the price of deterministic bounds (the covering
//! decomposition does more bookkeeping per insert than a priority stack).
//!
//! Two additional groups cover the skip-ahead ingestion work: `e7_ablation`
//! pits the skip paths against their per-arrival reference twins (expect
//! order-of-magnitude gaps that widen with n; the authoritative numbers
//! with exact RNG-draw counts live in `BENCH_throughput.json`, produced by
//! the `bench_throughput` binary), and `e7_batched` measures the chunked
//! `insert_batch` API the CLI and suite ingest through. Set
//! `CRITERION_JSON=path` to capture all of it machine-readably.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;
use swsample_baselines::{
    ChainSampler, OverSampler, PrioritySampler, PriorityTopK, StreamReservoir, WindowBuffer,
};
use swsample_core::seq::reference::{NaiveSeqWor, NaiveSeqWr};
use swsample_core::seq::{SeqSamplerWor, SeqSamplerWr};
use swsample_core::ts::{TsSamplerWor, TsSamplerWr};
use swsample_core::WindowSampler;
use swsample_stream::WindowSpec;

const N: u64 = 4096;
const K: usize = 8;
const T0: u64 = 1024;

fn bench_seq_family(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_seq");
    group.throughput(Throughput::Elements(1));
    macro_rules! seq_case {
        ($name:literal, $sampler:expr) => {
            group.bench_function($name, |b| {
                let mut s = $sampler;
                let mut i = 0u64;
                b.iter(|| {
                    s.insert(black_box(i));
                    i += 1;
                });
            });
        };
    }
    seq_case!(
        "SeqSamplerWr",
        SeqSamplerWr::new(N, K, SmallRng::seed_from_u64(1))
    );
    seq_case!(
        "SeqSamplerWor",
        SeqSamplerWor::new(N, K, SmallRng::seed_from_u64(2))
    );
    seq_case!(
        "ChainSampler",
        ChainSampler::new(N, K, SmallRng::seed_from_u64(3))
    );
    seq_case!(
        "OverSampler_2k",
        OverSampler::new(N, K, 2 * K, SmallRng::seed_from_u64(4))
    );
    seq_case!(
        "WindowBuffer",
        WindowBuffer::new(WindowSpec::Sequence(N), K, SmallRng::seed_from_u64(5))
    );
    seq_case!(
        "StreamReservoir",
        StreamReservoir::new(K, SmallRng::seed_from_u64(6))
    );
    group.finish();
}

fn bench_ts_family(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_ts");
    group.throughput(Throughput::Elements(1));
    macro_rules! ts_case {
        ($name:literal, $sampler:expr) => {
            group.bench_function($name, |b| {
                let mut s = $sampler;
                let mut tick = 0u64;
                let mut i = 0u64;
                b.iter(|| {
                    if i % 4 == 0 {
                        tick += 1;
                        s.advance_time(tick);
                    }
                    s.insert(black_box(i));
                    i += 1;
                });
            });
        };
    }
    ts_case!(
        "TsSamplerWr",
        TsSamplerWr::new(T0, K, SmallRng::seed_from_u64(7))
    );
    ts_case!(
        "TsSamplerWor",
        TsSamplerWor::new(T0, K, SmallRng::seed_from_u64(8))
    );
    ts_case!(
        "PrioritySampler",
        PrioritySampler::new(T0, K, SmallRng::seed_from_u64(9))
    );
    ts_case!(
        "PriorityTopK",
        PriorityTopK::new(T0, K, SmallRng::seed_from_u64(10))
    );
    ts_case!(
        "WindowBuffer",
        WindowBuffer::new(WindowSpec::Timestamp(T0), K, SmallRng::seed_from_u64(11))
    );
    group.finish();
}

fn bench_skip_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_ablation");
    group.throughput(Throughput::Elements(1));
    macro_rules! seq_case {
        ($name:literal, $sampler:expr) => {
            group.bench_function($name, |b| {
                let mut s = $sampler;
                let mut i = 0u64;
                b.iter(|| {
                    s.insert(black_box(i));
                    i += 1;
                });
            });
        };
    }
    seq_case!(
        "SeqSamplerWr_skip",
        SeqSamplerWr::new(N, K, SmallRng::seed_from_u64(20))
    );
    seq_case!(
        "SeqSamplerWr_naive",
        NaiveSeqWr::new(N, K, SmallRng::seed_from_u64(21))
    );
    seq_case!(
        "SeqSamplerWor_skip",
        SeqSamplerWor::new(N, K, SmallRng::seed_from_u64(22))
    );
    seq_case!(
        "SeqSamplerWor_naive",
        NaiveSeqWor::new(N, K, SmallRng::seed_from_u64(23))
    );
    group.finish();
}

fn bench_batched(c: &mut Criterion) {
    const CHUNK: u64 = 1024;
    let mut group = c.benchmark_group("e7_batched");
    group.throughput(Throughput::Elements(CHUNK));
    macro_rules! batch_case {
        ($name:literal, $sampler:expr) => {
            group.bench_function($name, |b| {
                let mut s = $sampler;
                let mut i = 0u64;
                let mut buf: Vec<u64> = Vec::with_capacity(CHUNK as usize);
                b.iter(|| {
                    buf.clear();
                    buf.extend(i..i + CHUNK);
                    s.insert_batch(black_box(&buf));
                    i += CHUNK;
                });
            });
        };
    }
    batch_case!(
        "SeqSamplerWr",
        SeqSamplerWr::new(N, K, SmallRng::seed_from_u64(30))
    );
    batch_case!(
        "SeqSamplerWor",
        SeqSamplerWor::new(N, K, SmallRng::seed_from_u64(31))
    );
    batch_case!(
        "ChainSampler",
        ChainSampler::new(N, K, SmallRng::seed_from_u64(32))
    );
    batch_case!(
        "StreamReservoir",
        StreamReservoir::new(K, SmallRng::seed_from_u64(33))
    );
    batch_case!(
        "WindowBuffer",
        WindowBuffer::new(WindowSpec::Sequence(N), K, SmallRng::seed_from_u64(34))
    );
    // Timestamp side: one advance_and_insert per tick's burst.
    group.bench_function("TsSamplerWr_advance_and_insert", |b| {
        let mut s = TsSamplerWr::new(T0, K, SmallRng::seed_from_u64(35));
        let mut tick = 0u64;
        let mut i = 0u64;
        let mut buf: Vec<u64> = Vec::with_capacity(CHUNK as usize);
        b.iter(|| {
            buf.clear();
            buf.extend(i..i + CHUNK);
            tick += 1;
            s.advance_and_insert(tick, black_box(&buf));
            i += CHUNK;
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
    targets = bench_seq_family, bench_ts_family, bench_skip_ablation, bench_batched
}
criterion_main!(benches);
