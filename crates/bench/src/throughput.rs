//! The seeded ingestion-throughput suite behind `BENCH_throughput.json` —
//! the repo's machine-readable perf trajectory (one committed artifact per
//! PR, produced by the `bench_throughput` binary).
//!
//! Every case drives one sampler configuration over a fixed seeded stream
//! through the batched ingestion API, measuring wall-clock elements/sec
//! and — via [`swsample_core::rng::CountingRng`] — the *exact* number of
//! RNG words consumed. The draw counts are what make the skip-ahead claims
//! auditable: `seq_wr_skip` at n = 10⁵ draws `O(k log n / n)` words per
//! element where `seq_wr_naive` draws `k`, and the JSON records both.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;
use swsample_baselines::{
    ChainSampler, NaiveStreamReservoir, PrioritySampler, PriorityTopK, StreamReservoir,
    WindowBuffer,
};
use swsample_core::rng::CountingRng;
use swsample_core::seq::{SeqSamplerWor, SeqSamplerWr};
use swsample_core::ts::{TsSamplerWor, TsSamplerWr};
use swsample_core::WindowSampler;
use swsample_stream::WindowSpec;

use crate::json;

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
    /// Stream length driven through the sampler.
    pub elements: u64,
    /// Wall-clock ingestion time.
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
    /// Wall-clock ingestion time of the first (cold) pass.
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
    /// Shard-run units executed across all epochs of the fastest rep.
    pub units: u64,
    /// Units claimed by a non-home worker (the steal count) in the
    /// fastest rep. 0 at `threads = 1` (inline path, no pool).
    pub steals: u64,
    /// Max/mean busy-time ratio across workers in the fastest rep;
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
    /// Wall-clock ingestion time (best of reps).
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
    /// Wall-clock seconds from first byte to last ack.
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
    /// Repetitions per parallel configuration; the row keeps the best
    /// (fastest) run. Throughput on a shared host is best-of noise:
    /// scheduler steal only ever *adds* time, so the minimum is the
    /// faithful capability measurement for a gated artifact.
    pub parallel_reps: usize,
    /// Snapshot cadence (in ingest batches) for the durable section's
    /// `wal-snap` mode.
    pub durable_snapshot_every: u64,
    /// Concurrent-connection counts for the end-to-end server section.
    pub server_connections: Vec<usize>,
}

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
            parallel_reps: 1,
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
            parallel_reps: 5,
            durable_snapshot_every: 512,
            server_connections: vec![1, 8, 64],
        }
    }
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

/// Run the full suite for the given dimensions; deterministic streams,
/// fresh seeded RNG per case.
pub fn run_with(p: &Params) -> Vec<Row> {
    let mut rows = Vec::new();

    macro_rules! seq_case {
        ($name:literal, $k:expr, $n:expr, $make:expr) => {{
            let (k, n) = ($k, $n);
            let rng = CountingRng::new(SmallRng::seed_from_u64(42));
            let draws = rng.counter();
            #[allow(clippy::redundant_closure_call)]
            let mut s = ($make)(n, k, rng);
            let seconds = drive_seq(&mut s, p.seq_elements, p.chunk);
            drop(s);
            rows.push(Row {
                sampler: $name,
                discipline: "seq",
                k,
                n,
                elements: p.seq_elements,
                seconds,
                elems_per_sec: p.seq_elements as f64 / seconds.max(1e-9),
                rng_draws: draws.words(),
            });
        }};
    }
    macro_rules! ts_case {
        ($name:literal, $k:expr, $n:expr, $make:expr) => {{
            let (k, n) = ($k, $n);
            let rng = CountingRng::new(SmallRng::seed_from_u64(43));
            let draws = rng.counter();
            // 4 arrivals/tick and a window of n/4 ticks keep ≈ n active.
            let t0 = (n / 4).max(1);
            #[allow(clippy::redundant_closure_call)]
            let mut s = ($make)(t0, k, rng);
            let seconds = drive_ts(&mut s, p.ts_elements, 4);
            drop(s);
            rows.push(Row {
                sampler: $name,
                discipline: "ts",
                k,
                n,
                elements: p.ts_elements,
                seconds,
                elems_per_sec: p.ts_elements as f64 / seconds.max(1e-9),
                rng_draws: draws.words(),
            });
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
            seq_case!("seq_wr_naive", k, n, SeqSamplerWr::naive);
            seq_case!("seq_wor_skip", k, n, SeqSamplerWor::new);
            seq_case!("seq_wor_naive", k, n, SeqSamplerWor::naive);
            seq_case!("chain", k, n, ChainSampler::new);
            seq_case!("window_buffer", k, n, |n, k, rng| WindowBuffer::new(
                WindowSpec::Sequence(n),
                k,
                rng
            ));
            ts_case!("ts_wr", k, n, TsSamplerWr::new);
            ts_case!("ts_wr_indep", k, n, TsSamplerWr::independent);
            ts_case!("ts_wor", k, n, TsSamplerWor::new);
            ts_case!("ts_wor_indep", k, n, TsSamplerWor::independent);
            ts_case!("priority", k, n, PrioritySampler::new);
            ts_case!("priority_topk", k, n, PriorityTopK::new);
        }
    }
    rows
}

/// Run the multi-stream (keyed fleet) section: a zipf-keyed stream over
/// each key-domain size, ingested through `MultiStreamEngine`'s batched
/// grouped path with a paper seq-WR template (k = `multi_k`, n = 1000).
pub fn run_multi(p: &Params) -> Vec<MultiRow> {
    use swsample_core::SamplerSpec;
    use swsample_stream::{MultiStreamEngine, ValueGen, ZipfGen};

    let mut out = Vec::new();
    for &keys in &p.multi_keys {
        let mut rng = SmallRng::seed_from_u64(44);
        let mut zipf = ZipfGen::new(keys, 1.1);
        // Pre-generate the workload so the clock measures ingestion, not
        // zipf inversion.
        let events: Vec<(u64, u64, u64)> = (0..p.multi_elements)
            .map(|i| (zipf.next_value(&mut rng), i / 64, i))
            .collect();
        // Best-of reps, like the parallel section: identical
        // deterministic runs, so the minimum is the capability
        // measurement and scheduler steal is excluded.
        let (mut cold, mut sustained) = (f64::INFINITY, f64::INFINITY);
        let mut last = None;
        for _ in 0..p.parallel_reps.max(1) {
            let template: SamplerSpec =
                format!("--window seq --n 1000 --k {} --seed 42", p.multi_k)
                    .parse()
                    .expect("template spec");
            let mut engine: MultiStreamEngine<u64, u64> =
                MultiStreamEngine::with_factory(template, 64, SamplerSpec::build::<u64>)
                    .expect("engine");
            // Cold pass: fleet construction + accept-dense first arrivals
            // (the schema-v3 figure). Sustained pass: the identical
            // stream replayed into the now-warm fleet.
            let start = Instant::now();
            for chunk in events.chunks(p.chunk) {
                engine.ingest(chunk);
            }
            cold = cold.min(start.elapsed().as_secs_f64());
            let start = Instant::now();
            for chunk in events.chunks(p.chunk) {
                engine.ingest(chunk);
            }
            sustained = sustained.min(start.elapsed().as_secs_f64());
            last = Some(engine);
        }
        let engine = last.expect("at least one rep");
        out.push(MultiRow {
            keys,
            k: p.multi_k,
            shards: engine.num_shards(),
            elements: p.multi_elements,
            seconds: cold,
            elems_per_sec: p.multi_elements as f64 / cold.max(1e-9),
            sustained_elems_per_sec: p.multi_elements as f64 / sustained.max(1e-9),
            keys_touched: engine.num_keys(),
            memory_words: swsample_core::MemoryWords::memory_words(&engine),
            max_key_words: engine.max_key_memory_words(),
        });
    }
    out
}

/// Run the parallel-scaling section: the same zipf-keyed workload as
/// [`run_multi`], driven through `MultiStreamEngine::ingest_parallel` at
/// each worker-thread count (seq-WR template, k = `multi_k`, n = 1000,
/// 64 shards). Thread count 1 is the inline serial path; per-key output
/// is bit-identical across all rows (asserted in
/// `tests/parallel_engine.rs`), so the rows measure pure scheduling.
pub fn run_parallel(p: &Params) -> Vec<ParallelRow> {
    use swsample_core::SamplerSpec;
    use swsample_stream::{MultiStreamEngine, ValueGen, ZipfGen};

    let cores = machine().cores;
    let mut out = Vec::new();
    for &keys in &p.multi_keys {
        // Pre-generate once per key domain; every thread count replays
        // the identical workload.
        let mut rng = SmallRng::seed_from_u64(44);
        let mut zipf = ZipfGen::new(keys, 1.1);
        let events: Vec<(u64, u64, u64)> = (0..p.multi_elements)
            .map(|i| (zipf.next_value(&mut rng), i / 64, i))
            .collect();
        // Best of `parallel_reps` identical runs per configuration
        // (fresh engine each time — the workload and results are
        // deterministic, only host scheduling noise varies). The
        // scheduler counters travel with the fastest rep. Two
        // noise-robustness measures, because the t8/t1 overhead gate
        // divides two of these figures so per-row noise compounds:
        // reps are interleaved across the thread counts (rep-outermost)
        // so a multi-second host-noise burst degrades every count's rep
        // pool instead of swallowing one count's contiguous block, and
        // small key domains — which finish in milliseconds and can lose
        // every rep to a single descheduling blip — get 3x the reps.
        let configs = &p.multi_threads;
        let reps = p.parallel_reps.max(1) * if keys < 10_000 { 3 } else { 1 };
        let mut best: Vec<(f64, Option<swsample_stream::ParallelStats>)> =
            vec![(f64::INFINITY, None); configs.len()];
        for _ in 0..reps {
            for (ci, &threads) in configs.iter().enumerate() {
                let template: SamplerSpec =
                    format!("--window seq --n 1000 --k {} --seed 42", p.multi_k)
                        .parse()
                        .expect("template spec");
                let engine: MultiStreamEngine<u64, u64> = MultiStreamEngine::with_threads(
                    template,
                    64,
                    SamplerSpec::build::<u64>,
                    threads,
                )
                .expect("engine");
                let start = Instant::now();
                for chunk in events.chunks(p.parallel_chunk) {
                    engine.ingest_parallel(chunk);
                }
                // The clock must cover the drain of the last
                // double-buffered epoch, not just its publication.
                engine.flush().expect("bench workload never panics");
                let elapsed = start.elapsed().as_secs_f64();
                if elapsed < best[ci].0 {
                    best[ci] = (elapsed, Some(engine.parallel_stats()));
                }
            }
        }
        for (ci, &threads) in configs.iter().enumerate() {
            let (seconds, stats) = std::mem::replace(&mut best[ci], (0.0, None));
            let st = stats.expect("at least one rep");
            assert_eq!(st.violations, 0, "one-shard-one-worker violated");
            out.push(ParallelRow {
                keys,
                k: p.multi_k,
                shards: 64,
                threads: threads.min(64),
                batch: p.parallel_chunk,
                elements: p.multi_elements,
                seconds,
                elems_per_sec: p.multi_elements as f64 / seconds.max(1e-9),
                cores,
                units: st.units,
                steals: st.steals,
                imbalance: st.imbalance(),
            });
        }
    }
    out
}

/// Run the durable-pipeline section: the zipf-keyed fleet workload of
/// [`run_multi`] (seq-WR template, k = `multi_k`, n = 1000, 64 shards,
/// serial threads) ingested three ways — plain engine (`wal-off`),
/// through the write-ahead log (`wal-on`), and through the WAL with
/// periodic O(k)-per-key snapshots (`wal-snap`) — then timed through
/// recovery (`DurableEngine::open`: latest snapshot + log-tail replay).
/// Durable state lives under the system temp directory and is removed
/// before the function returns.
pub fn run_durable(p: &Params) -> Vec<DurableRow> {
    use swsample_core::spec::FleetBackend;
    use swsample_core::SamplerSpec;
    use swsample_durable::{DurableEngine, DurableOptions};
    use swsample_stream::{MultiStreamEngine, ValueGen, ZipfGen};

    let mut out = Vec::new();
    for &keys in &p.multi_keys {
        let mut rng = SmallRng::seed_from_u64(44);
        let mut zipf = ZipfGen::new(keys, 1.1);
        let events: Vec<(u64, u64, u64)> = (0..p.multi_elements)
            .map(|i| (zipf.next_value(&mut rng), i / 64, i))
            .collect();
        for (mode, snapshot_every) in [
            ("wal-off", 0u64),
            ("wal-on", 0),
            ("wal-snap", p.durable_snapshot_every),
        ] {
            let template = || -> SamplerSpec {
                format!("--window seq --n 1000 --k {} --seed 42", p.multi_k)
                    .parse()
                    .expect("template spec")
            };
            // The call counter keeps concurrent calls in one process
            // (parallel unit tests) out of each other's directories.
            static CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "swsample-bench-durable-{}-{}-{mode}-{keys}",
                std::process::id(),
                CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            ));
            let mut seconds = f64::INFINITY;
            let mut recovery = 0.0;
            for rep in 0..p.parallel_reps.max(1) {
                let last_rep = rep + 1 == p.parallel_reps.max(1);
                if mode == "wal-off" {
                    let engine: MultiStreamEngine<u64, u64> =
                        MultiStreamEngine::with_factory(template(), 64, SamplerSpec::build::<u64>)
                            .expect("engine");
                    let start = Instant::now();
                    for chunk in events.chunks(p.chunk) {
                        engine.ingest_parallel(chunk);
                    }
                    seconds = seconds.min(start.elapsed().as_secs_f64());
                    continue;
                }
                // Fresh directory per rep: `create` refuses to reuse one.
                let _ = std::fs::remove_dir_all(&dir);
                let opts = DurableOptions {
                    snapshot_every: (snapshot_every > 0).then_some(snapshot_every),
                    ..DurableOptions::default()
                };
                let mut engine: DurableEngine<u64, u64> = DurableEngine::create(
                    &dir,
                    template(),
                    64,
                    1,
                    FleetBackend::Auto,
                    opts.clone(),
                )
                .expect("durable engine");
                let start = Instant::now();
                for chunk in events.chunks(p.chunk) {
                    engine.ingest(chunk).expect("durable ingest");
                }
                engine.sync().expect("wal sync");
                seconds = seconds.min(start.elapsed().as_secs_f64());
                drop(engine);
                if last_rep {
                    // Recovery wall-clock: wal-on replays the whole log
                    // from the initial snapshot; wal-snap restores the
                    // newest snapshot and replays only the tail.
                    let start = Instant::now();
                    let recovered: DurableEngine<u64, u64> =
                        DurableEngine::open(&dir, opts).expect("recovery");
                    recovery = start.elapsed().as_secs_f64();
                    assert_eq!(
                        recovered.engine().num_keys() as u64,
                        events
                            .iter()
                            .map(|e| e.0)
                            .collect::<std::collections::HashSet<_>>()
                            .len() as u64,
                        "{mode}: recovered fleet lost keys"
                    );
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
            out.push(DurableRow {
                mode,
                keys,
                k: p.multi_k,
                shards: 64,
                snapshot_every,
                elements: p.multi_elements,
                seconds,
                elems_per_sec: p.multi_elements as f64 / seconds.max(1e-9),
                recovery_seconds: recovery,
            });
        }
    }
    out
}

/// Run the end-to-end server section: a real loopback TCP
/// [`swsample_server::Server`] (seq-WR template, k = `multi_k`,
/// n = 1000, 64 shards) driven by the in-process load generator at each
/// connection count, next to a same-run direct `ingest_parallel`
/// baseline over the identical loadgen workload (seed 1, theta 1.1).
/// The ratio of the two is the serving tax the
/// [`SERVER_E2E_100K_GATE`] bar polices.
pub fn run_server(p: &Params) -> Vec<ServerRow> {
    use swsample_core::SamplerSpec;
    use swsample_server::{loadgen, LoadgenConfig, Server, ServerConfig};
    use swsample_stream::{MultiStreamEngine, ValueGen, ZipfGen};

    let template = || -> SamplerSpec {
        format!("--window seq --n 1000 --k {} --seed 42", p.multi_k)
            .parse()
            .expect("template spec")
    };
    // Drain threads: enough to keep the queue from being the bottleneck
    // without oversubscribing loadgen's connection threads on small CI
    // hosts. The direct baseline uses the identical count so the ratio
    // isolates the wire, not the thread budget.
    let threads = machine().cores.clamp(1, 8);
    let mut out = Vec::new();
    for &keys in &p.multi_keys {
        // The loadgen workload, regenerated here for the direct
        // baseline: identical events, no sockets.
        let mut rng = SmallRng::seed_from_u64(1);
        let mut zipf = ZipfGen::new(keys, 1.1);
        let events: Vec<(u64, u64, u64)> = (0..p.multi_elements)
            .map(|i| (zipf.next_value(&mut rng), i / 64, i))
            .collect();
        let engine: MultiStreamEngine<u64, u64> =
            MultiStreamEngine::with_threads(template(), 64, SamplerSpec::build::<u64>, threads)
                .expect("engine");
        let start = Instant::now();
        for chunk in events.chunks(p.parallel_chunk) {
            engine.ingest_parallel(chunk);
        }
        engine.flush().expect("bench workload never panics");
        let direct = p.multi_elements as f64 / start.elapsed().as_secs_f64().max(1e-9);
        drop((engine, events));

        for &connections in &p.server_connections {
            let mut cfg = ServerConfig::new(template());
            cfg.shards = 64;
            cfg.threads = threads;
            let server = Server::start(cfg).expect("server start");
            let mut lg = LoadgenConfig::new(server.local_addr().to_string());
            lg.connections = connections;
            lg.keys = keys;
            lg.count = p.multi_elements;
            lg.batch = p.parallel_chunk;
            let report = loadgen::run(&lg, &mut std::io::sink()).expect("loadgen run");
            server.shutdown();
            out.push(ServerRow {
                connections,
                keys,
                elements: report.events_sent,
                seconds: report.seconds,
                elems_per_sec: report.elems_per_sec,
                p50_us: report.p50_us,
                p99_us: report.p99_us,
                busy: report.busy_retries,
                direct_elems_per_sec: direct,
            });
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
    out.push_str("  \"schema\": \"swsample-bench-throughput/v7\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    // Host descriptor: throughput figures are only a trajectory on the
    // same machine; the block makes cross-host artifacts self-describing.
    out.push_str(&format!(
        "  \"machine\": {{\"cores\": {}, \"model\": \"{}\"}},\n",
        m.cores,
        json::escape(&m.model)
    ));
    // The acceptance-tracked ratios, surfaced at top level so trajectory
    // diffs catch regressions without re-deriving them from the rows.
    if let Some(s) = speedup(rows, "seq_wr_skip", "seq_wr_naive", 64, 100_000) {
        out.push_str(&format!(
            "  \"seq_wr_speedup_k64_n100000\": {},\n",
            json::number(s)
        ));
    }
    // Fused TsEngineBank vs the retained per-engine construction, at the
    // acceptance configuration (k = 64, n = 10^5).
    if let Some(s) = speedup(rows, "ts_wr", "ts_wr_indep", 64, 100_000) {
        out.push_str(&format!("  \"ts_wr_speedup_k64\": {},\n", json::number(s)));
    }
    if let Some(s) = speedup(rows, "ts_wor", "ts_wor_indep", 64, 100_000) {
        out.push_str(&format!("  \"ts_wor_speedup_k64\": {},\n", json::number(s)));
    }
    // Work-stealing scheduler headlines: the overhead ratios (8 threads
    // over serial — armed on any host) and the efficiency ratio (4
    // threads over serial — armed when machine.cores > 1).
    if let Some(s) = parallel_t8_overhead(parallel, 1_000) {
        out.push_str(&format!(
            "  \"parallel_t8_overhead_1k\": {},\n",
            json::number(s)
        ));
    }
    if let Some(s) = parallel_t8_overhead(parallel, 100_000) {
        out.push_str(&format!(
            "  \"parallel_t8_overhead_100k\": {},\n",
            json::number(s)
        ));
    }
    if let Some(s) = parallel_t4_efficiency_100k(parallel) {
        out.push_str(&format!(
            "  \"parallel_t4_efficiency_100k\": {},\n",
            json::number(s)
        ));
    }
    // Durability tax at 100k keys (WAL-on / WAL-off ingest ratio) — the
    // PR-7 gated headline.
    if let Some(s) = durable_wal_overhead_100k(durable) {
        out.push_str(&format!(
            "  \"durable_wal_overhead_100k\": {},\n",
            json::number(s)
        ));
    }
    // Serving tax at 100k keys (best e2e / same-run direct ingest) —
    // the PR-8 gated headline.
    if let Some(s) = server_e2e_100k_vs_direct(server) {
        out.push_str(&format!(
            "  \"server_e2e_100k_vs_direct\": {},\n",
            json::number(s)
        ));
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
            parallel_reps: 2,
            durable_snapshot_every: 4,
            server_connections: vec![1, 2],
        }
    }

    #[test]
    fn suite_runs_and_emits_valid_json() {
        let rows = run_with(&micro_params());
        assert_eq!(rows.len(), 14, "one row per sampler");
        for r in &rows {
            assert!(r.elems_per_sec > 0.0, "{}: zero throughput", r.sampler);
        }
        let multi = run_multi(&micro_params());
        let parallel = run_parallel(&micro_params());
        assert_eq!(parallel.len(), 2, "one row per (keys, threads)");
        for r in &parallel {
            assert!(
                r.elems_per_sec > 0.0,
                "threads={}: zero throughput",
                r.threads
            );
            assert!(r.cores >= 1);
            assert!(r.imbalance >= 1.0, "imbalance is max/mean, never < 1");
            if r.threads == 1 {
                // Inline serial path: the pool never runs.
                assert_eq!((r.units, r.steals), (0, 0));
            } else {
                assert!(r.units > 0, "pooled rows must execute units");
                assert!(r.steals <= r.units);
            }
        }
        let durable = run_durable(&micro_params());
        let server = run_server(&micro_params());
        assert_eq!(server.len(), 2, "one row per connection count");
        for r in &server {
            assert!(
                r.elems_per_sec > 0.0 && r.direct_elems_per_sec > 0.0,
                "conns={}: zero throughput",
                r.connections
            );
            assert_eq!(r.elements, micro_params().multi_elements);
        }
        let doc = to_json(&rows, &multi, &parallel, &durable, &server, true);
        json::validate(&doc).expect("emitted JSON must parse");
        assert!(
            doc.contains("\"multi_stream\"")
                && doc.contains("\"parallel\"")
                && doc.contains("\"durable\"")
                && doc.contains("\"server\": ["),
            "schema sections present"
        );
        assert!(
            doc.contains("\"schema\": \"swsample-bench-throughput/v7\"")
                && doc.contains("\"machine\": {\"cores\": "),
            "schema v7 header with machine block"
        );
        assert!(
            doc.contains("\"units\": ") && doc.contains("\"imbalance\": "),
            "parallel rows carry scheduler counters"
        );
        // 64-key micro sweep has no 100k row and stops at 2 threads, so
        // the gated fields stay out of the document rather than gating
        // on noise.
        assert!(durable_wal_overhead_100k(&durable).is_none());
        assert!(server_e2e_100k_vs_direct(&server).is_none());
        assert!(parallel_t8_overhead(&parallel, 64).is_none());
        assert!(parallel_t4_efficiency_100k(&parallel).is_none());
        assert!(!doc.contains("durable_wal_overhead_100k"));
        assert!(!doc.contains("server_e2e_100k_vs_direct"));
        assert!(!doc.contains("parallel_t8_overhead"));
        assert!(!doc.contains("parallel_t4_efficiency"));
    }

    #[test]
    fn durable_section_measures_all_modes_and_recovery() {
        let durable = run_durable(&micro_params());
        let modes: Vec<&str> = durable.iter().map(|r| r.mode).collect();
        assert_eq!(modes, ["wal-off", "wal-on", "wal-snap"]);
        for r in &durable {
            assert!(r.elems_per_sec > 0.0, "{}: zero throughput", r.mode);
        }
        // Only the durable modes have anything to recover, and recovery
        // of a real directory takes measurable time.
        assert_eq!(durable[0].recovery_seconds, 0.0);
        assert!(durable[1].recovery_seconds > 0.0);
        assert!(durable[2].recovery_seconds > 0.0);
        // wal-snap actually snapshotted mid-run.
        assert_eq!(
            durable[2].snapshot_every,
            micro_params().durable_snapshot_every
        );
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

    #[test]
    fn ts_bank_rows_meet_the_draw_bound() {
        // The fused ts samplers must ingest in ≤ k/32 + 1 words per
        // element (2k merge-coin bits per amortized merge), far below the
        // independent construction's per-word coins of old; the
        // independent rows now pack coins per engine and land low too,
        // but the fused rows are the gated ones.
        let p = micro_params();
        let rows = run_with(&p);
        for r in rows
            .iter()
            .filter(|r| r.sampler == "ts_wr" || r.sampler == "ts_wor")
        {
            let dpe = r.rng_draws as f64 / r.elements as f64;
            let bound = r.k as f64 / 32.0 + 1.0;
            assert!(
                dpe <= bound,
                "{} k={}: {dpe} draws/element > {bound}",
                r.sampler,
                r.k
            );
        }
    }

    #[test]
    fn speedup_lookup() {
        let rows = run_with(&micro_params());
        assert!(speedup(&rows, "seq_wr_skip", "seq_wr_naive", 2, 1024).is_some());
        assert!(speedup(&rows, "seq_wr_skip", "seq_wr_naive", 99, 1024).is_none());
    }
}
