//! The seeded ingestion-throughput suite behind `BENCH_throughput.json` —
//! the repo's machine-readable perf trajectory (one committed artifact per
//! PR, produced by the `bench_throughput` binary).
//!
//! Every case drives one sampler configuration over a fixed seeded stream
//! through the batched ingestion API, measuring wall-clock elements/sec
//! (the median of interleaved passes) and — via
//! [`swsample_core::rng::CountingRng`] — the *exact* number of RNG words
//! consumed. The draw counts are what make the skip-ahead claims
//! auditable: `seq_wr_skip` at n = 10⁵ draws `O(k log n / n)` words per
//! element where `seq_wr_naive` draws `k`, and the JSON records both.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::time::Instant;
use swsample_baselines::{
    ChainSampler, NaiveStreamReservoir, PrioritySampler, PriorityTopK, StreamReservoir,
    WindowBuffer,
};
use swsample_core::rng::CountingRng;
use swsample_core::seq::reference::{NaiveSeqWor, NaiveSeqWr};
use swsample_core::seq::{SeqSamplerWor, SeqSamplerWr};
use swsample_core::ts::independent::{IndependentTsWor, IndependentTsWr};
use swsample_core::ts::{TsSamplerWor, TsSamplerWr};
use swsample_core::{SamplerSpec, WindowSampler};
use swsample_stream::engine::KeyedEvent;
use swsample_stream::{zipf_fleet_events, MultiStreamEngine, ParallelStats, WindowSpec};

use crate::json::{self, Value};

/// One measured configuration.
#[derive(Debug, Clone)]
pub struct Row {
    /// Sampler identifier (stable across PRs — the trajectory key).
    pub sampler: &'static str,
    /// `"seq"` or `"ts"`.
    pub discipline: &'static str,
    /// Number of samples maintained.
    pub k: usize,
    /// Window size (sequence length or active-set size for ts cases);
    /// 0 for whole-stream samplers, which have no window.
    pub n: u64,
    /// Stream length driven through the sampler in each pass.
    pub elements: u64,
    /// Wall-clock ingestion time of one pass: the median of
    /// [`ROW_PASSES`] interleaved passes.
    pub seconds: f64,
    /// `elements / seconds`.
    pub elems_per_sec: f64,
    /// Exact RNG words consumed (CountingRng).
    pub rng_draws: u64,
}

/// One measured multi-stream (keyed fleet) configuration.
#[derive(Debug, Clone)]
pub struct MultiRow {
    /// Key-domain size (number of logical streams).
    pub keys: u64,
    /// Per-key samples maintained.
    pub k: usize,
    /// Engine shard count.
    pub shards: usize,
    /// Keyed events driven through `MultiStreamEngine::ingest`.
    pub elements: u64,
    /// Wall-clock ingestion time of a fresh fleet's first (cold) pass.
    pub seconds: f64,
    /// Cold-pass `elements / seconds`: fleet construction, registry
    /// growth, and the accept-dense first arrivals all included — the
    /// schema-v3-compatible figure.
    pub elems_per_sec: f64,
    /// Warm-fleet `elements / seconds`: the same event stream replayed
    /// after the cold pass, so keys are materialized and the hot keys
    /// sample in steady state. This is the regime where per-element
    /// fleet overhead (registry probe, per-key state access) dominates.
    pub sustained_elems_per_sec: f64,
    /// Keys that actually materialized a sampler.
    pub keys_touched: usize,
    /// Fleet-wide footprint in words.
    pub memory_words: usize,
    /// Hottest single key's footprint in words (the paper's per-window
    /// deterministic cap applies here).
    pub max_key_words: usize,
}

/// One measured parallel-ingestion (worker pool) configuration.
#[derive(Debug, Clone)]
pub struct ParallelRow {
    /// Key-domain size (number of logical streams).
    pub keys: u64,
    /// Per-key samples maintained.
    pub k: usize,
    /// Engine shard count.
    pub shards: usize,
    /// Worker threads (`1` = the inline serial path).
    pub threads: usize,
    /// Chunk length fed to `ingest_parallel` (larger than the serial
    /// section's: each chunk amortizes one partition + pool round trip).
    pub batch: usize,
    /// Keyed events driven through `MultiStreamEngine::ingest_parallel`.
    pub elements: u64,
    /// Wall-clock ingestion time (including the final `flush()` — the
    /// double-buffered pool may still be draining the last epoch when
    /// `ingest_parallel` returns).
    pub seconds: f64,
    /// Fleet-wide `elements / seconds`.
    pub elems_per_sec: f64,
    /// Logical cores on the measuring host, copied per row so thread
    /// rows are never judged against parallelism the machine lacks.
    pub cores: usize,
    /// Shard-run units executed across all epochs of the median pass.
    pub units: u64,
    /// Units claimed by a non-home worker (the steal count) in the
    /// median pass. 0 at `threads = 1` (inline path, no pool).
    pub steals: u64,
    /// Max/mean busy-time ratio across workers in the median pass;
    /// 1.0 = perfectly balanced (or serial).
    pub imbalance: f64,
}

/// One measured durable-pipeline configuration: the multi-stream fleet
/// workload of [`run_multi`] driven through [`swsample_durable::DurableEngine`]
/// (or the plain engine for the `wal-off` baseline), plus the wall-clock
/// cost of recovering the finished directory.
#[derive(Debug, Clone)]
pub struct DurableRow {
    /// `"wal-off"` (plain engine), `"wal-on"` (WAL, no mid-run
    /// snapshots), or `"wal-snap"` (WAL + periodic snapshots).
    pub mode: &'static str,
    /// Key-domain size (number of logical streams).
    pub keys: u64,
    /// Per-key samples maintained.
    pub k: usize,
    /// Engine shard count.
    pub shards: usize,
    /// Snapshot cadence in ingest batches (0 = initial snapshot only).
    pub snapshot_every: u64,
    /// Keyed events driven through the engine.
    pub elements: u64,
    /// Wall-clock ingestion time.
    pub seconds: f64,
    /// `elements / seconds`.
    pub elems_per_sec: f64,
    /// Wall-clock time to reopen the finished directory — latest valid
    /// snapshot plus log-tail replay. 0 for `wal-off` (nothing durable
    /// to recover).
    pub recovery_seconds: f64,
}

/// One measured end-to-end serving configuration: the loadgen zipf
/// workload driven through a real loopback TCP [`swsample_server::Server`]
/// (framing, crc, the bounded ingest queue, `ingest_parallel` drain),
/// next to a same-run direct `ingest_parallel` baseline over the
/// identical events — the denominator of the serving-tax gate.
#[derive(Debug, Clone)]
pub struct ServerRow {
    /// Concurrent load-generator connections.
    pub connections: usize,
    /// Key-domain size (number of logical streams).
    pub keys: u64,
    /// Keyed events driven across the wire.
    pub elements: u64,
    /// Wall-clock seconds from first byte to last ack (fresh server).
    pub seconds: f64,
    /// End-to-end `elements / seconds`.
    pub elems_per_sec: f64,
    /// Median ingest-reply latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile ingest-reply latency, microseconds.
    pub p99_us: u64,
    /// `BUSY` rejections absorbed by client retry (backpressure hits).
    pub busy: u64,
    /// Same-run direct `ingest_parallel` throughput over the identical
    /// workload, no sockets (same template, shards, and threads).
    pub direct_elems_per_sec: f64,
}

/// Suite dimensions; [`params`] builds the standard full/quick shapes.
/// Every timing in a row (ingest, sustained, recovery, the direct
/// baseline) is the median of its own [`ROW_PASSES`] passes.
#[derive(Debug, Clone)]
pub struct Params {
    /// Values of `k` to sweep.
    pub ks: Vec<usize>,
    /// Window sizes to sweep.
    pub ns: Vec<u64>,
    /// Stream length for sequence-window cases.
    pub seq_elements: u64,
    /// Stream length for timestamp-window cases (smaller: every arrival
    /// touches `k` covering decompositions).
    pub ts_elements: u64,
    /// Chunk length fed to `insert_batch`.
    pub chunk: usize,
    /// Key-domain sizes for the multi-stream section.
    pub multi_keys: Vec<u64>,
    /// Keyed events per multi-stream case.
    pub multi_elements: u64,
    /// Per-key `k` for the multi-stream section.
    pub multi_k: usize,
    /// Worker-thread counts for the parallel section.
    pub multi_threads: Vec<usize>,
    /// Chunk length fed to `ingest_parallel` in the parallel section.
    pub parallel_chunk: usize,
    /// Snapshot cadence (in ingest batches) for the durable section's
    /// `wal-snap` mode.
    pub durable_snapshot_every: u64,
    /// Concurrent-connection counts for the end-to-end server section.
    pub server_connections: Vec<usize>,
}

/// Schema tag [`to_json`] writes and the `schema` gate requires.
const SCHEMA: &str = "swsample-bench-throughput/v7";

/// Hard acceptance bar for [`durable_wal_overhead_100k`]: ingesting
/// through the write-ahead log at 100k keys must retain at least this
/// fraction of the plain engine's throughput. Append-then-apply adds
/// one buffered sequential write (~24 bytes/event) per batch and fsyncs
/// only on segment roll, so the tax is bandwidth, not latency; 0.7×
/// leaves headroom for slow CI disks while still catching an
/// accidental fsync-per-batch or per-event allocation regression.
pub const DURABLE_WAL_100K_GATE: f64 = 0.7;

/// Hard acceptance bar for [`server_e2e_100k_vs_direct`]: the best
/// end-to-end serving throughput at 100k keys (framing + crc + TCP
/// loopback + the bounded queue, measured by the load generator) must
/// retain at least this fraction of the same-run direct
/// `ingest_parallel` rate over the identical events. The wire adds
/// ~26 bytes/event of columnar delta-varint encode/decode plus one
/// crc32 pass each way — bandwidth work, like the WAL tax — so losing
/// more than half of direct throughput means a stall (per-batch sync
/// round trips serializing the pipeline, queue thrash, a blocking
/// writer) rather than honest framing cost.
pub const SERVER_E2E_100K_GATE: f64 = 0.5;

/// Hard acceptance bar for the work-stealing overhead headlines
/// ([`parallel_t8_overhead`] at 1k and 100k keys): running with an
/// 8-thread pool must retain at least this fraction of the serial
/// inline path's throughput *even when the host has one core*. The
/// scheduler's fixed cost per batch is one counting-sort partition and
/// one epoch handshake; 0.9× caps that tax. Unlike the efficiency
/// gate this one is always armed — oversubscription on a small host is
/// exactly where a chatty scheduler would show.
pub const PARALLEL_T8_OVERHEAD_GATE: f64 = 0.9;

/// Hard acceptance bar for [`parallel_t4_efficiency_100k`]: with 4
/// workers on the 100k-key zipf workload, the fleet must beat the
/// serial path by at least this factor. Armed only when
/// `machine.cores > 1` (a single-core host cannot exhibit parallel
/// speedup, only the overhead gate applies there).
pub const PARALLEL_T4_EFFICIENCY_GATE: f64 = 1.5;

/// Host descriptor recorded in the artifact so figures from different
/// machines are never compared as if they were a trajectory.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Logical cores visible to the process.
    pub cores: usize,
    /// CPU model string from `/proc/cpuinfo` (or `"unknown"`).
    pub model: String,
}

/// Probe the host: logical core count and CPU model string.
pub fn machine() -> Machine {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Machine { cores, model }
}

/// The standard suite shapes. `quick` keeps the schema identical but
/// shrinks the sweep so a CI smoke run finishes in seconds; the committed
/// artifact is always produced with `quick = false` (which includes the
/// acceptance configuration k = 64, n = 10⁵).
pub fn params(quick: bool) -> Params {
    if quick {
        Params {
            ks: vec![8],
            ns: vec![10_000],
            seq_elements: 40_000,
            ts_elements: 20_000,
            chunk: 1024,
            multi_keys: vec![1_000],
            multi_elements: 50_000,
            multi_k: 16,
            multi_threads: vec![1, 2],
            parallel_chunk: 2_048,
            durable_snapshot_every: 16,
            server_connections: vec![1, 2],
        }
    } else {
        Params {
            ks: vec![8, 64],
            ns: vec![10_000, 100_000],
            seq_elements: 1_000_000,
            ts_elements: 200_000,
            chunk: 1024,
            multi_keys: vec![1_000, 100_000],
            multi_elements: 2_000_000,
            multi_k: 16,
            multi_threads: vec![1, 2, 4, 8],
            parallel_chunk: 32_768,
            durable_snapshot_every: 512,
            server_connections: vec![1, 8, 64],
        }
    }
}

/// Wall-clock seconds `f` takes.
fn timed(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// Drive a sequence-window sampler over `elements` consecutive values in
/// `chunk`-sized batches; returns ingestion seconds.
fn drive_seq<S: WindowSampler<u64>>(s: &mut S, elements: u64, chunk: usize) -> f64 {
    let mut buf: Vec<u64> = Vec::with_capacity(chunk);
    let start = Instant::now();
    let mut i = 0u64;
    while i < elements {
        let end = (i + chunk as u64).min(elements);
        buf.clear();
        buf.extend(i..end);
        s.insert_batch(&buf);
        i = end;
    }
    start.elapsed().as_secs_f64()
}

/// Drive a timestamp-window sampler at 4 arrivals/tick through
/// `advance_and_insert`; returns ingestion seconds.
fn drive_ts<S: WindowSampler<u64>>(s: &mut S, elements: u64, per_tick: u64) -> f64 {
    let mut buf: Vec<u64> = Vec::with_capacity(per_tick as usize);
    let start = Instant::now();
    let mut i = 0u64;
    let mut tick = 0u64;
    while i < elements {
        let end = (i + per_tick).min(elements);
        buf.clear();
        buf.extend(i..end);
        tick += 1;
        s.advance_and_insert(tick, &buf);
        i = end;
    }
    start.elapsed().as_secs_f64()
}

/// Timed passes behind every row of every section; each row reports its
/// median pass.
pub const ROW_PASSES: usize = 5;

#[cfg(test)]
thread_local! {
    /// Passes [`interleaved`] has run on this thread, for the suite tests.
    static PASSES_RUN: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The suite's one repetition policy: run [`ROW_PASSES`] passes of every
/// configuration of a section, interleaved with the pass as the outer
/// loop, so a burst of host noise costs every configuration one pass
/// instead of one configuration all of them. Returns what each pass
/// measured, per configuration, in pass order.
fn interleaved<C, M>(configs: &[C], mut pass: impl FnMut(&C) -> M) -> Vec<Vec<M>> {
    let mut measured: Vec<Vec<M>> = configs.iter().map(|_| Vec::new()).collect();
    for _ in 0..ROW_PASSES {
        for (config, passes) in configs.iter().zip(&mut measured) {
            #[cfg(test)]
            PASSES_RUN.set(PASSES_RUN.get() + 1);
            passes.push(pass(config));
        }
    }
    measured
}

/// The median of `passes` by the time `seconds` reads from each; the
/// pass's other measurements travel with it.
fn median<M>(passes: &[M], seconds: impl Fn(&M) -> f64) -> &M {
    let mut sorted: Vec<&M> = passes.iter().collect();
    sorted.sort_by(|a, b| seconds(a).total_cmp(&seconds(b)));
    sorted[sorted.len() / 2]
}

/// `elements / seconds`, safe at a zero time.
fn rate(elements: u64, seconds: f64) -> f64 {
    elements as f64 / seconds.max(1e-9)
}

/// Run the sampler section for the given dimensions; deterministic
/// streams, fresh seeded RNG per pass. A pass drives a fresh sampler and
/// returns its row; each row is its median of [`ROW_PASSES`] interleaved
/// passes, and every pass of a row draws the same RNG words.
pub fn run_with(p: &Params) -> Vec<Row> {
    let mut cases: Vec<Box<dyn Fn() -> Row + '_>> = Vec::new();

    let row = |sampler, discipline, k, n, elements, seconds, rng_draws| Row {
        sampler,
        discipline,
        k,
        n,
        elements,
        seconds,
        elems_per_sec: rate(elements, seconds),
        rng_draws,
    };
    macro_rules! seq_case {
        ($name:literal, $k:expr, $n:expr, $make:expr) => {{
            let (k, n) = ($k, $n);
            cases.push(Box::new(move || {
                let rng = CountingRng::new(SmallRng::seed_from_u64(42));
                let draws = rng.counter();
                #[allow(clippy::redundant_closure_call)]
                let mut s = ($make)(n, k, rng);
                let seconds = drive_seq(&mut s, p.seq_elements, p.chunk);
                drop(s);
                row($name, "seq", k, n, p.seq_elements, seconds, draws.words())
            }));
        }};
    }
    macro_rules! ts_case {
        ($name:literal, $k:expr, $n:expr, $make:expr) => {{
            let (k, n) = ($k, $n);
            cases.push(Box::new(move || {
                let rng = CountingRng::new(SmallRng::seed_from_u64(43));
                let draws = rng.counter();
                // 4 arrivals/tick and a window of n/4 ticks keep ≈ n
                // active.
                let t0 = (n / 4).max(1);
                #[allow(clippy::redundant_closure_call)]
                let mut s = ($make)(t0, k, rng);
                let seconds = drive_ts(&mut s, p.ts_elements, 4);
                drop(s);
                row($name, "ts", k, n, p.ts_elements, seconds, draws.words())
            }));
        }};
    }

    for &k in &p.ks {
        // Whole-stream reservoirs have no window: one row per k (n = 0),
        // not one per swept window size.
        seq_case!("vitter_l", k, 0, |_n, k, rng| StreamReservoir::new(k, rng));
        seq_case!("vitter_r", k, 0, |_n, k, rng| NaiveStreamReservoir::new(
            k, rng
        ));
        for &n in &p.ns {
            seq_case!("seq_wr_skip", k, n, SeqSamplerWr::new);
            seq_case!("seq_wr_naive", k, n, NaiveSeqWr::new);
            seq_case!("seq_wor_skip", k, n, SeqSamplerWor::new);
            seq_case!("seq_wor_naive", k, n, NaiveSeqWor::new);
            seq_case!("chain", k, n, ChainSampler::new);
            seq_case!("window_buffer", k, n, |n, k, rng| WindowBuffer::new(
                WindowSpec::Sequence(n),
                k,
                rng
            ));
            ts_case!("ts_wr", k, n, TsSamplerWr::new);
            ts_case!("ts_wr_indep", k, n, IndependentTsWr::new);
            ts_case!("ts_wor", k, n, TsSamplerWor::new);
            ts_case!("ts_wor_indep", k, n, IndependentTsWor::new);
            ts_case!("priority", k, n, PrioritySampler::new);
            ts_case!("priority_topk", k, n, PriorityTopK::new);
        }
    }
    let measured = interleaved(&cases, |pass| pass());
    let median_row = |passes: &Vec<Row>| {
        let (first, draws) = (passes[0].sampler, passes[0].rng_draws);
        let same = passes.iter().all(|r| r.rng_draws == draws);
        assert!(same, "{first}: passes drew different RNG words");
        median(passes, |r| r.seconds).clone()
    };
    measured.iter().map(median_row).collect()
}

/// The fleet sections' per-key template: paper seq-WR, k = `multi_k`,
/// n = 1000.
fn fleet_template(p: &Params) -> SamplerSpec {
    format!("--window seq --n 1000 --k {} --seed 42", p.multi_k)
        .parse()
        .expect("template spec")
}

/// The fleet sections' key domains, each with its events, pre-generated
/// so the clock measures ingestion, not zipf inversion: `multi_elements`
/// of the shared `zipf_fleet_events` workload (theta 1.1) over `keys`.
fn fleet_domains(p: &Params, seed: u64) -> Vec<(u64, Vec<KeyedEvent<u64, u64>>)> {
    let events = |keys| zipf_fleet_events(keys, 1.1, seed).take(p.multi_elements as usize);
    p.multi_keys
        .iter()
        .map(|&k| (k, events(k).collect()))
        .collect()
}

/// One timed `ingest_parallel` pass of `events` over a fresh fleet with
/// `threads` workers (64 shards, batches of `parallel_chunk`): seconds,
/// including the drain of the last double-buffered epoch, and the
/// scheduler's counters.
fn drive_parallel(
    p: &Params,
    events: &[KeyedEvent<u64, u64>],
    threads: usize,
) -> (f64, ParallelStats) {
    let engine: MultiStreamEngine<u64, u64> =
        MultiStreamEngine::with_threads(fleet_template(p), 64, SamplerSpec::build::<u64>, threads)
            .expect("engine");
    let seconds = timed(|| {
        for chunk in events.chunks(p.parallel_chunk) {
            engine.ingest_parallel(chunk);
        }
        engine.flush().expect("bench workload never panics");
    });
    (seconds, engine.parallel_stats())
}

/// Run the multi-stream (keyed fleet) section: a zipf-keyed stream over
/// each key-domain size, ingested through `MultiStreamEngine`'s batched
/// grouped path with a paper seq-WR template (k = `multi_k`, n = 1000).
/// Each pass builds a fresh fleet; the cold and sustained figures are
/// the medians of their own passes.
pub fn run_multi(p: &Params) -> Vec<MultiRow> {
    let domains = fleet_domains(p, 44);
    let measured = interleaved(&domains, |(keys, events)| {
        let mut engine: MultiStreamEngine<u64, u64> =
            MultiStreamEngine::with_factory(fleet_template(p), 64, SamplerSpec::build::<u64>)
                .expect("engine");
        // Cold pass: fleet construction + accept-dense first arrivals
        // (the schema-v3 figure). Sustained pass: the identical stream
        // replayed into the now-warm fleet.
        let mut ingest = || events.chunks(p.chunk).for_each(|c| engine.ingest(c));
        let (cold, sustained) = (timed(&mut ingest), timed(&mut ingest));
        let row = MultiRow {
            keys: *keys,
            k: p.multi_k,
            shards: engine.num_shards(),
            elements: p.multi_elements,
            seconds: cold,
            elems_per_sec: rate(p.multi_elements, cold),
            sustained_elems_per_sec: 0.0,
            keys_touched: engine.num_keys(),
            memory_words: swsample_core::MemoryWords::memory_words(&engine),
            max_key_words: engine.max_key_memory_words(),
        };
        (row, sustained)
    });
    let median_row = |passes: &Vec<(MultiRow, f64)>| MultiRow {
        sustained_elems_per_sec: rate(p.multi_elements, median(passes, |pass| pass.1).1),
        ..median(passes, |pass| pass.0.seconds).0.clone()
    };
    measured.iter().map(median_row).collect()
}

/// Run the parallel-scaling section: the same zipf-keyed workload as
/// [`run_multi`], driven through `MultiStreamEngine::ingest_parallel` at
/// each worker-thread count (seq-WR template, k = `multi_k`, n = 1000,
/// 64 shards). Thread count 1 is the inline serial path; per-key output
/// is bit-identical across all rows (asserted in
/// `tests/parallel_engine.rs`), so the rows measure pure scheduling.
/// Each pass builds a fresh engine; a row's scheduler counters come from
/// its median pass, and no pass may violate one-shard-one-worker.
pub fn run_parallel(p: &Params) -> Vec<ParallelRow> {
    let cores = machine().cores;
    let domains = fleet_domains(p, 44);
    let configs: Vec<_> = domains
        .iter()
        .flat_map(|d| p.multi_threads.iter().map(move |&threads| (d, threads)))
        .collect();
    let measured = interleaved(&configs, |&((keys, events), threads)| {
        let (seconds, st) = drive_parallel(p, events, threads);
        assert_eq!(st.violations, 0, "one-shard-one-worker violated");
        ParallelRow {
            keys: *keys,
            k: p.multi_k,
            shards: 64,
            threads: threads.min(64),
            batch: p.parallel_chunk,
            elements: p.multi_elements,
            seconds,
            elems_per_sec: rate(p.multi_elements, seconds),
            cores,
            units: st.units,
            steals: st.steals,
            imbalance: st.imbalance(),
        }
    });
    let median_row = |passes: &Vec<ParallelRow>| median(passes, |r| r.seconds).clone();
    measured.iter().map(median_row).collect()
}

/// Run the durable-pipeline section: the zipf-keyed fleet workload of
/// [`run_multi`] (seq-WR template, k = `multi_k`, n = 1000, 64 shards,
/// serial threads) ingested through [`swsample_durable::Fleet`] three
/// ways — in memory (`wal-off`), through the write-ahead log
/// (`wal-on`), and through the WAL with periodic O(k)-per-key
/// snapshots (`wal-snap`) — each timed up to its final WAL fsync, then
/// the durable two timed through recovery (`DurableEngine::open`:
/// latest snapshot + log-tail replay) on every pass. Every pass checks
/// that the ingested fleet, and the recovered one, hold every distinct
/// key of the events. Ingest and recovery are the medians of their own
/// passes. Durable state lives
/// under the system temp directory and is removed before the function
/// returns.
pub fn run_durable(p: &Params) -> Vec<DurableRow> {
    use swsample_durable::{DurableEngine, DurableOptions, Fleet, Storage};

    let modes = [
        ("wal-off", 0u64),
        ("wal-on", 0),
        ("wal-snap", p.durable_snapshot_every),
    ];
    // Each domain's distinct-key count, which the live fleet and every
    // recovered one must hold; counted once, outside the timed passes.
    let domains: Vec<_> = fleet_domains(p, 44)
        .into_iter()
        .map(|(keys, events)| {
            let distinct = events.iter().map(|e| e.0).collect::<HashSet<_>>().len();
            (keys, events, distinct)
        })
        .collect();
    let configs: Vec<_> = domains
        .iter()
        .flat_map(|d| modes.map(|mode| (d, mode)))
        .collect();
    let measured = interleaved(
        &configs,
        |&((keys, events, distinct), (mode, snapshot_every))| {
            // The call counter keeps concurrent calls in one process
            // (parallel unit tests) out of each other's directories, and
            // gives each pass a fresh one: `create` refuses to reuse one.
            static CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "swsample-bench-durable-{}-{}-{mode}-{keys}",
                std::process::id(),
                CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            ));
            let opts = DurableOptions {
                snapshot_every: (snapshot_every > 0).then_some(snapshot_every),
                ..DurableOptions::default()
            };
            let storage = match mode {
                "wal-off" => Storage::Memory,
                _ => Storage::Wal(dir.clone(), opts.clone(), None),
            };
            let fleet: Fleet<u64, u64> =
                Fleet::start(fleet_template(p), 64, 1, storage).expect("fleet");
            let seconds = timed(|| {
                for chunk in events.chunks(p.chunk) {
                    fleet.ingest(chunk).expect("fleet ingest");
                }
                fleet.sync().expect("wal sync");
            });
            let live = fleet.engine().num_keys();
            assert_eq!(live, *distinct, "{mode}: ingested fleet lost keys");
            drop(fleet);
            // Recovery wall-clock: wal-on replays the whole log from the
            // initial snapshot; wal-snap restores the newest snapshot and
            // replays only the tail.
            let recovery_seconds = if mode == "wal-off" {
                0.0
            } else {
                let start = Instant::now();
                let recovered: DurableEngine<u64, u64> =
                    DurableEngine::open(&dir, opts).expect("recovery");
                let seconds = start.elapsed().as_secs_f64();
                let after = recovered.engine().num_keys();
                assert_eq!(after, *distinct, "{mode}: recovered fleet lost keys");
                seconds
            };
            let _ = std::fs::remove_dir_all(&dir);
            DurableRow {
                mode,
                keys: *keys,
                k: p.multi_k,
                shards: 64,
                snapshot_every,
                elements: p.multi_elements,
                seconds,
                elems_per_sec: rate(p.multi_elements, seconds),
                recovery_seconds,
            }
        },
    );
    let median_row = |passes: &Vec<DurableRow>| DurableRow {
        recovery_seconds: median(passes, |r| r.recovery_seconds).recovery_seconds,
        ..median(passes, |r| r.seconds).clone()
    };
    measured.iter().map(median_row).collect()
}

/// Run the end-to-end server section: a real loopback TCP
/// [`swsample_server::Server`] (seq-WR template, k = `multi_k`,
/// n = 1000, 64 shards) driven by the in-process load generator at each
/// connection count, next to a same-run direct `ingest_parallel`
/// baseline over the identical loadgen workload (seed 1, theta 1.1).
/// The baseline's passes interleave with the server's, and each row
/// reads the median of both. The ratio of the two is the serving tax the
/// [`SERVER_E2E_100K_GATE`] bar polices.
pub fn run_server(p: &Params) -> Vec<ServerRow> {
    use swsample_server::{loadgen, LoadgenConfig, Server, ServerConfig};

    // Drain threads: enough to keep the queue from being the bottleneck
    // without oversubscribing loadgen's connection threads on small CI
    // hosts. The direct baseline uses the identical count so the ratio
    // isolates the wire, not the thread budget.
    let threads = machine().cores.clamp(1, 8);
    // The loadgen workload, regenerated here for the direct baseline:
    // identical events, no sockets.
    let domains = fleet_domains(p, 1);
    // Per key domain, the direct baseline (`None`) before the servers.
    let configs: Vec<_> = domains
        .iter()
        .flat_map(|d| {
            let served = p.server_connections.iter().map(|&c| Some(c));
            std::iter::once(None).chain(served).map(move |c| (d, c))
        })
        .collect();
    // The direct baseline's pass reports only its seconds.
    let measured = interleaved(&configs, |&((keys, events), connections)| {
        let Some(connections) = connections else {
            return (drive_parallel(p, events, threads).0, None);
        };
        let mut cfg = ServerConfig::new(fleet_template(p));
        cfg.shards = 64;
        cfg.threads = threads;
        let server = Server::start(cfg).expect("server start");
        let mut lg = LoadgenConfig::new(server.local_addr().to_string());
        lg.connections = connections;
        lg.keys = *keys;
        lg.count = p.multi_elements;
        lg.batch = p.parallel_chunk;
        let report = loadgen::run(&lg, &mut std::io::sink()).expect("loadgen run");
        server.shutdown();
        let row = ServerRow {
            connections,
            keys: *keys,
            elements: report.events_sent,
            seconds: report.seconds,
            elems_per_sec: report.elems_per_sec,
            p50_us: report.p50_us,
            p99_us: report.p99_us,
            busy: report.busy_retries,
            direct_elems_per_sec: 0.0,
        };
        (report.seconds, Some(row))
    });
    let mut out = Vec::new();
    let mut direct = 0.0;
    for passes in &measured {
        match median(passes, |pass| pass.0) {
            (seconds, None) => direct = rate(p.multi_elements, *seconds),
            (_, Some(row)) => out.push(ServerRow {
                direct_elems_per_sec: direct,
                ..row.clone()
            }),
        }
    }
    out
}

/// The durability-tax headline: WAL-on over WAL-off sustained ingest
/// throughput at 100k keys (same workload, same engine configuration).
/// `None` when the sweep has no 100k-key rows (the quick shape).
pub fn durable_wal_overhead_100k(durable: &[DurableRow]) -> Option<f64> {
    let get = |mode: &str| {
        durable
            .iter()
            .find(|r| r.keys == 100_000 && r.mode == mode)
            .map(|r| r.elems_per_sec)
    };
    Some(get("wal-on")? / get("wal-off")?)
}

/// The serving-tax headline: best end-to-end server throughput at 100k
/// keys over the same-run direct `ingest_parallel` figure. Best-of over
/// connection counts — the gate asks whether *some* honest client shape
/// can feed the server near engine speed, not that every shape does.
/// `None` when the sweep has no 100k-key rows (the quick shape).
pub fn server_e2e_100k_vs_direct(server: &[ServerRow]) -> Option<f64> {
    server
        .iter()
        .filter(|r| r.keys == 100_000)
        .map(|r| r.elems_per_sec / r.direct_elems_per_sec.max(1e-9))
        .fold(None, |acc: Option<f64>, x| {
            Some(acc.map_or(x, |a| a.max(x)))
        })
}

/// `threads`-over-serial throughput ratio at one key domain, same run.
/// `None` when either row is missing.
fn thread_ratio(parallel: &[ParallelRow], keys: u64, threads: usize) -> Option<f64> {
    let get = |t: usize| {
        parallel
            .iter()
            .find(|r| r.keys == keys && r.threads == t)
            .map(|r| r.elems_per_sec)
    };
    Some(get(threads)? / get(1)?.max(1e-9))
}

/// The scheduler-overhead headline at one key domain: the
/// 8-thread-over-serial throughput ratio. Gated at
/// [`PARALLEL_T8_OVERHEAD_GATE`] unconditionally — on a single-core
/// host the ratio measures pure scheduling tax, on a parallel host it
/// should clear 1 outright. `None` when the sweep lacks either row
/// (the quick shape stops at 2 threads).
pub fn parallel_t8_overhead(parallel: &[ParallelRow], keys: u64) -> Option<f64> {
    thread_ratio(parallel, keys, 8)
}

/// The work-stealing efficiency headline: the 4-thread-over-serial
/// ratio at 100k keys. Gated at
/// [`PARALLEL_T4_EFFICIENCY_GATE`] when the artifact's
/// `machine.cores > 1`. `None` when the sweep lacks the rows.
pub fn parallel_t4_efficiency_100k(parallel: &[ParallelRow]) -> Option<f64> {
    thread_ratio(parallel, 100_000, 4)
}

/// Elems/sec ratio between two samplers at a given configuration.
pub fn speedup(rows: &[Row], fast: &str, slow: &str, k: usize, n: u64) -> Option<f64> {
    let find = |name: &str| {
        rows.iter()
            .find(|r| r.sampler == name && r.k == k && r.n == n)
            .map(|r| r.elems_per_sec)
    };
    Some(find(fast)? / find(slow)?)
}

/// Render the suite result as the `BENCH_throughput.json` document
/// (schema v7: v6's sections with the `parallel` rows annotated with
/// the measuring host's core count and the work-stealing scheduler's
/// units/steals/imbalance counters, plus the gated
/// `parallel_t8_overhead_{1k,100k}` and `parallel_t4_efficiency_100k`
/// headlines; the `multi_stream` and `parallel` rows carry no fleet
/// backend since the fleet has a single per-key store).
pub fn to_json(
    rows: &[Row],
    multi: &[MultiRow],
    parallel: &[ParallelRow],
    durable: &[DurableRow],
    server: &[ServerRow],
    quick: bool,
) -> String {
    let m = machine();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str(&format!("  \"quick\": {quick},\n"));
    // Host descriptor: throughput figures are only a trajectory on the
    // same machine; the block makes cross-host artifacts self-describing.
    out.push_str(&format!(
        "  \"machine\": {{\"cores\": {}, \"model\": \"{}\"}},\n",
        m.cores,
        json::escape(&m.model)
    ));
    // The acceptance-tracked ratios, surfaced at top level so trajectory
    // diffs catch regressions without re-deriving them from the rows;
    // each is absent when the sweep lacks its rows (the quick shape).
    #[rustfmt::skip]
    let headlines = [
        ("seq_wr_speedup_k64_n100000", speedup(rows, "seq_wr_skip", "seq_wr_naive", 64, 100_000)),
        // Fused TsEngineBank vs the retained per-engine construction.
        ("ts_wr_speedup_k64", speedup(rows, "ts_wr", "ts_wr_indep", 64, 100_000)),
        ("ts_wor_speedup_k64", speedup(rows, "ts_wor", "ts_wor_indep", 64, 100_000)),
        ("parallel_t8_overhead_1k", parallel_t8_overhead(parallel, 1_000)),
        ("parallel_t8_overhead_100k", parallel_t8_overhead(parallel, 100_000)),
        ("parallel_t4_efficiency_100k", parallel_t4_efficiency_100k(parallel)),
        ("durable_wal_overhead_100k", durable_wal_overhead_100k(durable)),
        ("server_e2e_100k_vs_direct", server_e2e_100k_vs_direct(server)),
    ];
    for (name, ratio) in headlines {
        if let Some(s) = ratio {
            out.push_str(&format!("  \"{name}\": {},\n", json::number(s)));
        }
    }
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"sampler\": \"{}\", \"discipline\": \"{}\", \"k\": {}, \"n\": {}, \
             \"elements\": {}, \"seconds\": {}, \"elems_per_sec\": {}, \"rng_draws\": {}, \
             \"draws_per_element\": {}}}{}\n",
            json::escape(r.sampler),
            json::escape(r.discipline),
            r.k,
            r.n,
            r.elements,
            json::number(r.seconds),
            json::number(r.elems_per_sec),
            r.rng_draws,
            json::number(r.rng_draws as f64 / r.elements as f64),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"multi_stream\": [\n");
    for (i, r) in multi.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"keys\": {}, \"k\": {}, \"shards\": {}, \
             \"elements\": {}, \"seconds\": {}, \"elems_per_sec\": {}, \
             \"sustained_elems_per_sec\": {}, \"keys_touched\": {}, \
             \"memory_words\": {}, \"max_key_words\": {}}}{}\n",
            r.keys,
            r.k,
            r.shards,
            r.elements,
            json::number(r.seconds),
            json::number(r.elems_per_sec),
            json::number(r.sustained_elems_per_sec),
            r.keys_touched,
            r.memory_words,
            r.max_key_words,
            if i + 1 == multi.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"parallel\": [\n");
    for (i, r) in parallel.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"keys\": {}, \"k\": {}, \"shards\": {}, \
             \"threads\": {}, \"batch\": {}, \"elements\": {}, \"seconds\": {}, \
             \"elems_per_sec\": {}, \"cores\": {}, \"units\": {}, \"steals\": {}, \
             \"imbalance\": {}}}{}\n",
            r.keys,
            r.k,
            r.shards,
            r.threads,
            r.batch,
            r.elements,
            json::number(r.seconds),
            json::number(r.elems_per_sec),
            r.cores,
            r.units,
            r.steals,
            json::number(r.imbalance),
            if i + 1 == parallel.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"durable\": [\n");
    for (i, r) in durable.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"keys\": {}, \"k\": {}, \"shards\": {}, \
             \"snapshot_every\": {}, \"elements\": {}, \"seconds\": {}, \
             \"elems_per_sec\": {}, \"recovery_seconds\": {}}}{}\n",
            json::escape(r.mode),
            r.keys,
            r.k,
            r.shards,
            r.snapshot_every,
            r.elements,
            json::number(r.seconds),
            json::number(r.elems_per_sec),
            json::number(r.recovery_seconds),
            if i + 1 == durable.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"server\": [\n");
    for (i, r) in server.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"connections\": {}, \"keys\": {}, \"elements\": {}, \
             \"seconds\": {}, \"elems_per_sec\": {}, \"p50_us\": {}, \
             \"p99_us\": {}, \"busy\": {}, \"direct_elems_per_sec\": {}}}{}\n",
            r.connections,
            r.keys,
            r.elements,
            json::number(r.seconds),
            json::number(r.elems_per_sec),
            r.p50_us,
            r.p99_us,
            r.busy,
            json::number(r.direct_elems_per_sec),
            if i + 1 == server.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// What a gate reports on a document: `Ok(None)` when it does not
/// apply, else the measured value (`Ok`) or the offending one (`Err`).
type Verdict = Result<Option<String>, String>;

/// A row check: `Ok(false)` when the row is not one the gate covers.
type RowCheck = fn(doc: &Value, row: &Value) -> Result<bool, String>;

/// How a gate judges the document; `bar` strings are printed as is.
enum Rule {
    /// The top-level headline named like the gate is ≥ the bar: required
    /// in a full document, checked when present in a quick one.
    AtLeast(f64),
    /// As `AtLeast`, armed only when the document's `machine.cores > 1`:
    /// a single-core host cannot exhibit parallel speedup.
    AtLeastOnMultiCore(f64),
    /// Each named section is non-empty and every row of it passes; at
    /// least one row is covered.
    Rows(&'static str, &'static [&'static str], RowCheck),
    /// The distinct values of a section's key equal the [`params`] sweep
    /// of the document's shape.
    Sweep(&'static str, &'static str, fn(&Params) -> &[usize]),
    /// Any other document invariant.
    Doc(&'static str, fn(&Value, bool) -> Verdict),
}
use Rule::{AtLeast, AtLeastOnMultiCore, Doc, Rows, Sweep};

/// One acceptance bar: its name (for the headline rules, also the
/// top-level field it reads) and its rule.
struct Gate(&'static str, Rule);

/// The document's row sections, in order.
pub const SECTIONS: &[&str] = &["results", "multi_stream", "parallel", "durable", "server"];

/// Every acceptance bar on `BENCH_throughput.json`, each defined once.
/// The two speedups over per-arrival references are at k = 64, n = 10^5.
#[rustfmt::skip]
const GATES: &[Gate] = &[
    Gate("schema", Doc("equals the current schema tag", schema_tag)),
    Gate("machine.cores", Doc(">= 1", cores_recorded)),
    Gate("seq_wr_speedup_k64_n100000", AtLeast(5.0)),
    Gate("ts_wr_speedup_k64", AtLeast(10.0)),
    Gate("ts_wor_speedup_k64", AtLeast(10.0)),
    Gate("parallel_t8_overhead_1k", AtLeast(PARALLEL_T8_OVERHEAD_GATE)),
    Gate("parallel_t8_overhead_100k", AtLeast(PARALLEL_T8_OVERHEAD_GATE)),
    Gate("parallel_t4_efficiency_100k", AtLeastOnMultiCore(PARALLEL_T4_EFFICIENCY_GATE)),
    Gate("durable_wal_overhead_100k", AtLeast(DURABLE_WAL_100K_GATE)),
    Gate("server_e2e_100k_vs_direct", AtLeast(SERVER_E2E_100K_GATE)),
    Gate("fused_ts_draws", Rows("ts_wr/ts_wor draws_per_element <= k/32 + 1", &["results"], fused_ts_draws)),
    Gate("priority_topk_vs_priority", Doc("priority_topk >= priority elems/s at k = 64", priority_topk)),
    Gate("row_rates", Rows("every section non-empty, every *elems_per_sec > 0", SECTIONS, rates_positive)),
    Gate("parallel_rows", Rows("cores == machine.cores, imbalance >= 1, units == steals == 0 at t = 1, \
                                0 < units and steals <= units at t > 1", &["parallel"], parallel_counters)),
    Gate("parallel_sweep", Sweep("parallel", "threads", |p| &p.multi_threads)),
    Gate("durable_modes", Doc("[wal-off, wal-on, wal-snap] per key domain", durable_modes)),
    Gate("durable_recovery", Rows("recovery_seconds > 0 unless wal-off", &["durable"], durable_recovery)),
    Gate("server_latency", Rows("p99_us >= p50_us", &["server"], server_latency)),
    Gate("server_sweep", Sweep("server", "connections", |p| &p.server_connections)),
];

impl Gate {
    fn bar(&self) -> String {
        match self.1 {
            AtLeast(bar) => format!(">= {bar}"),
            AtLeastOnMultiCore(bar) => format!(">= {bar} when machine.cores > 1"),
            Sweep(_, key, _) => format!("{key} == the params sweep"),
            Rows(bar, ..) | Doc(bar, _) => bar.into(),
        }
    }

    fn eval(&self, doc: &Value, quick: bool) -> Verdict {
        let headline = |bar: f64| match doc.get(self.0).map(Value::as_f64) {
            None if quick => Ok(None),
            Some(Some(x)) if x >= bar => Ok(Some(json::number(x))),
            other => Err(other.flatten().map_or("missing".into(), json::number)),
        };
        match self.1 {
            AtLeast(bar) => headline(bar),
            AtLeastOnMultiCore(bar) if cores(doc).is_some_and(|c| c > 1.0) => headline(bar),
            AtLeastOnMultiCore(_) => Ok(None),
            Rows(_, sections, test) => {
                let mut covered = 0;
                for &name in sections {
                    let rows = section(doc, name);
                    ensure(!rows.is_empty(), format!("no {name} rows"))?;
                    for (i, row) in rows.iter().enumerate() {
                        covered +=
                            test(doc, row).map_err(|e| format!("{name}[{i}]: {e}"))? as usize;
                    }
                }
                ensure(covered > 0, "no covered rows".into())?;
                Ok(Some(format!("{covered} rows")))
            }
            Sweep(name, key, want) => {
                // A row without the key reads as NaN, which matches no sweep.
                let rows = section(doc, name).iter();
                let mut seen: Vec<f64> = rows.map(|r| num(r, key).unwrap_or(f64::NAN)).collect();
                seen.sort_by(f64::total_cmp);
                seen.dedup();
                let want: Vec<f64> = want(&params(quick)).iter().map(|&x| x as f64).collect();
                ensure(seen == want, format!("{key} {seen:?}, expected {want:?}"))?;
                Ok(Some(format!("{key} {seen:?}")))
            }
            Doc(_, eval) => eval(doc, quick),
        }
    }
}

/// Apply every acceptance gate to a parsed `BENCH_throughput.json`. A
/// pure function of the document: sweep shapes come from [`params`] of
/// its `quick` flag (absent reads as a full run, the strictest), and the
/// multi-core arming from its `machine.cores`, never from the host.
///
/// `Ok` holds one report line per applicable gate; `Err` one line per
/// failed gate, each naming the gate, the offending value and the bar.
pub fn check(doc: &Value) -> Result<Vec<String>, Vec<String>> {
    let quick = doc.get("quick") == Some(&Value::Bool(true));
    let (mut report, mut failures) = (Vec::new(), Vec::new());
    for gate in GATES {
        match gate.eval(doc, quick) {
            Ok(None) => {}
            Ok(Some(v)) => report.push(format!("gate {}: {v} (bar {})", gate.0, gate.bar())),
            Err(v) => failures.push(format!("gate {} failed: {v} (bar {})", gate.0, gate.bar())),
        }
    }
    failures.is_empty().then_some(report).ok_or(failures)
}

/// `Ok(true)` when `ok`, else `Err(offending)`.
fn ensure(ok: bool, offending: String) -> Result<bool, String> {
    if ok {
        Ok(true)
    } else {
        Err(offending)
    }
}

fn num(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

fn text<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    v.get(key).and_then(Value::as_str)
}

fn field(row: &Value, key: &str) -> Result<f64, String> {
    num(row, key).ok_or_else(|| format!("{key} missing"))
}

fn cores(doc: &Value) -> Option<f64> {
    doc.get("machine").and_then(|m| num(m, "cores"))
}

/// The rows of section `name` (none when it is absent).
pub fn section<'a>(doc: &'a Value, name: &str) -> &'a [Value] {
    match doc.get(name) {
        Some(Value::Array(rows)) => rows,
        _ => &[],
    }
}

fn schema_tag(doc: &Value, _: bool) -> Verdict {
    let tag = text(doc, "schema");
    ensure(tag == Some(SCHEMA), format!("{tag:?}, expected {SCHEMA}"))?;
    Ok(Some(SCHEMA.into()))
}

fn cores_recorded(doc: &Value, _: bool) -> Verdict {
    let c = cores(doc);
    ensure(c.is_some_and(|c| c >= 1.0), format!("{c:?}"))?;
    Ok(c.map(|c| c.to_string()))
}

fn priority_topk(doc: &Value, quick: bool) -> Verdict {
    let rate = |sampler: &str, n: u64| {
        let id = (Some(sampler), Some(64.0), Some(n as f64));
        let at = |r: &&Value| (text(r, "sampler"), num(r, "k"), num(r, "n")) == id;
        let row = section(doc, "results").iter().find(at);
        row.and_then(|r| num(r, "elems_per_sec"))
    };
    let mut ratios = Vec::new();
    for n in params(quick).ns {
        let (Some(topk), Some(full)) = (rate("priority_topk", n), rate("priority", n)) else {
            ensure(quick, format!("k=64 n={n} rows missing"))?;
            continue;
        };
        ensure(topk >= full, format!("n={n}: {topk} < {full} elems/s"))?;
        ratios.push(format!("n={n}: {:.2}x", topk / full));
    }
    Ok((!ratios.is_empty()).then(|| ratios.join(", ")))
}

fn durable_modes(doc: &Value, _: bool) -> Verdict {
    let rows = section(doc, "durable");
    let mut domains: Vec<f64> = rows.iter().filter_map(|r| num(r, "keys")).collect();
    domains.dedup();
    ensure(!domains.is_empty(), "no durable rows".into())?;
    for &keys in &domains {
        let of_domain = rows.iter().filter(|r| num(r, "keys") == Some(keys));
        let modes: Vec<&str> = of_domain.filter_map(|r| text(r, "mode")).collect();
        ensure(
            modes == ["wal-off", "wal-on", "wal-snap"],
            format!("keys={keys}: {modes:?}"),
        )?;
    }
    Ok(Some(format!("{} key domains", domains.len())))
}

fn fused_ts_draws(_: &Value, r: &Value) -> Result<bool, String> {
    if !matches!(text(r, "sampler"), Some("ts_wr" | "ts_wor")) {
        return Ok(false);
    }
    let (k, dpe) = (field(r, "k")?, field(r, "draws_per_element")?);
    ensure(
        dpe <= k / 32.0 + 1.0,
        format!("k={k}: draws_per_element {dpe}"),
    )
}

fn rates_positive(_: &Value, r: &Value) -> Result<bool, String> {
    field(r, "elems_per_sec")?;
    if let Value::Object(members) = r {
        for (k, v) in members.iter().filter(|(k, _)| k.ends_with("elems_per_sec")) {
            ensure(v.as_f64().is_some_and(|x| x > 0.0), format!("{k} {v:?}"))?;
        }
    }
    Ok(true)
}

fn parallel_counters(doc: &Value, r: &Value) -> Result<bool, String> {
    let [c, imbalance, t, units, steals] = ["cores", "imbalance", "threads", "units", "steals"]
        .map(|key| num(r, key).unwrap_or(f64::NAN));
    let counters = if t == 1.0 {
        units == 0.0 && steals == 0.0
    } else {
        units > 0.0 && steals <= units
    };
    ensure(
        Some(c) == cores(doc) && imbalance >= 1.0 && counters,
        format!("cores {c}, imbalance {imbalance}, threads {t}, units {units}, steals {steals}"),
    )
}

fn durable_recovery(_: &Value, r: &Value) -> Result<bool, String> {
    if text(r, "mode") == Some("wal-off") {
        return Ok(false);
    }
    let s = field(r, "recovery_seconds")?;
    ensure(s > 0.0, format!("recovery_seconds {s}"))
}

fn server_latency(_: &Value, r: &Value) -> Result<bool, String> {
    let (p50, p99) = (field(r, "p50_us")?, field(r, "p99_us")?);
    ensure(p99 >= p50, format!("p99_us {p99} < p50_us {p50}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn micro_params() -> Params {
        Params {
            ks: vec![2],
            ns: vec![1024],
            seq_elements: 4_000,
            ts_elements: 800,
            chunk: 128,
            multi_keys: vec![64],
            multi_elements: 4_000,
            multi_k: 4,
            multi_threads: vec![1, 2],
            parallel_chunk: 256,
            durable_snapshot_every: 4,
            server_connections: vec![1, 2],
        }
    }

    #[test]
    fn micro_suite_round_trips_and_passes_as_quick() {
        let p = micro_params();
        let (rows, rows_passes) = counted(|| run_with(&p));
        assert_eq!(rows.len(), 14, "one row per sampler");
        assert!(speedup(&rows, "seq_wr_skip", "seq_wr_naive", 2, 1024).is_some());
        assert!(speedup(&rows, "seq_wr_skip", "seq_wr_naive", 99, 1024).is_none());
        let (multi, multi_passes) = counted(|| run_multi(&p));
        let (parallel, parallel_passes) = counted(|| run_parallel(&p));
        assert_eq!(parallel.len(), 2, "one row per (keys, threads)");
        let (durable, durable_passes) = counted(|| run_durable(&p));
        let (server, server_passes) = counted(|| run_server(&p));
        // Every configuration of every section ran `ROW_PASSES` passes;
        // the server section's include one direct baseline per domain.
        let passes = [
            rows_passes,
            multi_passes,
            parallel_passes,
            durable_passes,
            server_passes,
        ];
        let configs = [
            rows.len(),
            multi.len(),
            parallel.len(),
            durable.len(),
            server.len() + p.multi_keys.len(),
        ];
        assert_eq!(passes, configs.map(|c| c * ROW_PASSES));
        // Only the WAL modes have anything to recover (the gates check
        // they do); wal-snap snapshots at the configured cadence.
        assert_eq!(durable[0].recovery_seconds, 0.0);
        assert_eq!(durable[2].snapshot_every, p.durable_snapshot_every);
        assert_eq!(server.len(), 2, "one row per connection count");
        assert!(server.iter().all(|r| r.elements == p.multi_elements));
        let body = to_json(&rows, &multi, &parallel, &durable, &server, true);
        let doc = json::parse(&body).expect("emitted JSON must parse");
        let lens: Vec<usize> = SECTIONS.iter().map(|&n| section(&doc, n).len()).collect();
        let want = [
            rows.len(),
            multi.len(),
            parallel.len(),
            durable.len(),
            server.len(),
        ];
        assert_eq!(lens, want, "every row round-trips");
        // The micro sweep matches the quick thread/connection sets, so a
        // quick document of it passes every gate that applies...
        check(&doc).unwrap_or_else(|f| panic!("micro suite fails: {f:#?}"));
        // ...and, having no k = 64, 100k-key or 8-thread rows, it carries
        // no headline. Claiming to be a full run fails on every one.
        let mut full = doc.clone();
        edit(&mut full, "", "quick", "false");
        let failures = check(&full).expect_err("a full document needs its headlines");
        for gate in GATES {
            let headline = matches!(gate.1, AtLeast(_) | AtLeastOnMultiCore(_));
            assert!(!headline || doc.get(gate.0).is_none(), "{} emitted", gate.0);
            if let AtLeast(_) = gate.1 {
                assert!(names(&failures, gate.0), "{}: {failures:#?}", gate.0);
            }
        }
    }

    /// `section`'s result and the passes [`interleaved`] ran for it.
    fn counted<R>(section: impl FnOnce() -> R) -> (R, usize) {
        PASSES_RUN.set(0);
        let out = section();
        (out, PASSES_RUN.get())
    }

    #[test]
    fn passes_interleave_and_each_row_reads_its_median_pass() {
        // Scripted seconds per configuration and pass; each pass also
        // reports its pass number, standing in for a pass's counters.
        let script: [[f64; ROW_PASSES]; 3] = [
            [5.0, 1.0, 3.0, 4.0, 2.0],
            [0.3, 0.1, 0.2, 0.5, 0.4],
            [7.0; ROW_PASSES],
        ];
        let (mut order, mut next) = (Vec::new(), [0; 3]);
        let measured = interleaved(&[0usize, 1, 2], |&c| {
            order.push(c);
            next[c] += 1;
            (script[c][next[c] - 1], next[c] - 1)
        });
        let pass_outermost: Vec<usize> = (0..ROW_PASSES).flat_map(|_| 0..3).collect();
        assert_eq!(order, pass_outermost);
        let pass_order: Vec<usize> = (0..ROW_PASSES).collect();
        for (c, passes) in measured.iter().enumerate() {
            let numbers: Vec<usize> = passes.iter().map(|pass| pass.1).collect();
            assert_eq!(
                numbers, pass_order,
                "configuration {c} keeps its passes in order"
            );
        }
        // The median pass by seconds, with its counters.
        assert_eq!(*median(&measured[0], |pass| pass.0), (3.0, 2));
        assert_eq!(*median(&measured[1], |pass| pass.0), (0.3, 0));
        assert_eq!(median(&measured[2], |pass| pass.0).0, 7.0);
    }

    #[test]
    fn multi_section_respects_per_key_caps() {
        let p = micro_params();
        let multi = run_multi(&p);
        assert_eq!(multi.len(), 1, "one row per key domain");
        for r in &multi {
            assert!(r.elems_per_sec > 0.0);
            assert!(r.sustained_elems_per_sec > 0.0);
            assert!(r.keys_touched >= 1 && r.keys_touched as u64 <= r.keys);
            // Paper seq-WR template: Theorem 2.1's 7k+3 ceiling per key.
            let cap = 7 * p.multi_k + 3;
            assert!(
                r.max_key_words <= cap,
                "hottest key {} words > cap {cap}",
                r.max_key_words
            );
            assert!(r.memory_words <= r.keys_touched * cap);
        }
    }

    #[test]
    fn skip_paths_draw_fewer_rng_words() {
        let rows = run_with(&micro_params());
        let draws = |name: &str| {
            rows.iter()
                .find(|r| r.sampler == name)
                .expect("row present")
                .rng_draws
        };
        // k=2, n=1024, 4000 elements: naive draws ≥ k per element; the
        // skip path draws O(k log n) per bucket — far less.
        assert!(draws("seq_wr_naive") >= 2 * 4_000);
        assert!(
            draws("seq_wr_skip") * 10 < draws("seq_wr_naive"),
            "skip {} vs naive {}",
            draws("seq_wr_skip"),
            draws("seq_wr_naive")
        );
        assert!(draws("seq_wor_skip") < draws("seq_wor_naive"));
        assert!(draws("vitter_l") < draws("vitter_r"));
    }

    fn committed() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
        let body = std::fs::read_to_string(path).expect("committed artifact");
        json::parse(&body).expect("committed artifact parses")
    }

    /// Set member `key` to the JSON text `to` (remove it when `to` is
    /// empty) in every object `selector` names: the top level when empty,
    /// else one of its members, narrowed for a section to the rows whose
    /// members match the `key=json` pairs that follow.
    fn edit(doc: &mut Value, selector: &str, key: &str, to: &str) {
        let mut words = selector.split_whitespace();
        let targets: Vec<&mut Value> = match (words.next(), doc) {
            (None, doc) => vec![doc],
            (Some(name), Value::Object(members)) => {
                let id: Vec<(&str, Value)> = words
                    .map(|w| w.split_once('=').expect("key=json"))
                    .map(|(k, v)| (k, json::parse(v).expect("selector value")))
                    .collect();
                match members.iter_mut().find(|(k, _)| k == name) {
                    Some((_, Value::Array(rows))) => rows
                        .iter_mut()
                        .filter(|r| id.iter().all(|(k, v)| r.get(k) == Some(v)))
                        .collect(),
                    other => other.map(|(_, v)| v).into_iter().collect(),
                }
            }
            _ => panic!("not an object"),
        };
        assert!(!targets.is_empty(), "`{selector}` matches nothing");
        for target in targets {
            let Value::Object(members) = target else {
                panic!("`{selector}` is not an object")
            };
            members.retain(|(k, _)| k != key);
            if !to.is_empty() {
                members.push((key.into(), json::parse(to).expect("edit value")));
            }
        }
    }

    fn names(failures: &[String], gate: &str) -> bool {
        let prefix = format!("gate {gate} failed: ");
        failures.iter().any(|f| f.starts_with(&prefix))
    }

    /// Edits of the committed document, each pushing just one gate's
    /// value past its bar (the headline gates are covered generically):
    /// `(gate, selector, key, new value)` as taken by [`edit`].
    #[rustfmt::skip]
    const BREACHES: &[(&str, &str, &str, &str)] = &[
        ("schema", "", "schema", "\"swsample-bench-throughput/v6\""),
        ("machine.cores", "machine", "cores", "0"),
        ("fused_ts_draws", "results sampler=\"ts_wor\" k=64", "draws_per_element", "3.01"),
        ("priority_topk_vs_priority", "results sampler=\"priority_topk\" k=64 n=100000", "elems_per_sec", "1"),
        ("row_rates", "results", "elems_per_sec", "0"),
        ("row_rates", "", "multi_stream", "[]"),
        ("parallel_rows", "parallel threads=2", "cores", "0"),
        ("parallel_rows", "parallel threads=4", "imbalance", "0.99"),
        ("parallel_rows", "parallel threads=2", "steals", "1e12"),
        ("parallel_sweep", "parallel threads=8", "threads", "3"),
        ("durable_modes", "durable mode=\"wal-on\"", "mode", "\"wal-snap\""),
        ("durable_recovery", "durable mode=\"wal-snap\" keys=100000", "recovery_seconds", "0"),
        ("server_latency", "server connections=8", "p99_us", "-1"),
        ("server_sweep", "server connections=64", "connections", "32"),
    ];

    #[test]
    fn committed_artifact_passes_and_each_gate_rejects_its_breach() {
        let base = committed();
        let report = check(&base).unwrap_or_else(|f| panic!("committed artifact fails: {f:#?}"));
        assert_eq!(report.len(), GATES.len(), "every gate applies");
        let breach = |gate: &str, selector: &str, key: &str, to: &str| {
            let mut doc = base.clone();
            edit(&mut doc, selector, key, to);
            let failures = check(&doc).expect_err(gate);
            assert!(
                names(&failures, gate),
                "{gate}: {selector} {key}: {failures:#?}"
            );
        };
        for &(gate, selector, key, to) in BREACHES {
            breach(gate, selector, key, to);
        }
        for gate in GATES {
            if let AtLeast(bar) | AtLeastOnMultiCore(bar) = gate.1 {
                breach(gate.0, "", gate.0, &json::number(bar - 0.01));
                breach(gate.0, "", gate.0, "");
            } else {
                let covered = BREACHES.iter().any(|b| b.0 == gate.0);
                assert!(covered, "{} has no breach case", gate.0);
            }
        }
    }

    #[test]
    fn single_core_document_disarms_the_efficiency_gate() {
        let mut doc = committed();
        edit(&mut doc, "machine", "cores", "1");
        edit(&mut doc, "parallel", "cores", "1");
        edit(&mut doc, "", "parallel_t4_efficiency_100k", "1.0");
        let report = check(&doc).unwrap_or_else(|f| panic!("{f:#?}"));
        let t4 = |l: &String| l.contains("parallel_t4_efficiency_100k");
        assert!(!report.iter().any(t4), "disarmed on one core");
    }
}
