//! The parallel-ingestion acceptance suite (PR 5, extended by the
//! work-stealing scheduler PR):
//!
//! 1. **Determinism** — per-key samples are byte-identical for every
//!    worker-thread count, shard count, and skew level:
//!    seeds derive from the key alone, and each shard's events are
//!    processed in arrival order by exactly one worker per epoch.
//! 2. **`Send` audit** — every spec-built sampler (all algorithm
//!    families) crosses thread boundaries, enforced at compile time.
//! 3. **Scale** — the 100k-key zipf acceptance run through
//!    `ingest_parallel`, re-asserting the paper's per-key word cap.
//! 4. **Scheduler invariants** — the one-shard-one-worker-per-epoch
//!    claim under a steal-heavy stress shape, and byte-identical
//!    samples across mid-stream worker rescales.
//! 5. **Committed artifact** — the checked-in `BENCH_throughput.json`
//!    is schema v7 and records the gated `durable_wal_overhead_100k ≥
//!    0.7`, `server_e2e_100k_vs_direct ≥ 0.5`, and
//!    `parallel_t8_overhead_{1k,100k} ≥ 0.9` headlines (plus
//!    `parallel_t4_efficiency_100k ≥ 1.5` when the measuring host had
//!    more than one core) and the machine block.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use swsample::core::spec::SamplerSpec;
use swsample::core::{ErasedWindowSampler, MemoryWords};
use swsample::stream::{MultiStreamEngine, ValueGen, ZipfGen};

type Engine = MultiStreamEngine<u64, u64>;

fn build_engine(template: &str, shards: usize, threads: usize) -> Engine {
    MultiStreamEngine::with_threads(
        template.parse().expect("template parses"),
        shards,
        swsample::baselines::spec::build::<u64>,
        threads,
    )
    .expect("engine builds")
}

/// Drive `events` through the engine in `chunk`-sized batches via the
/// parallel path (thread count 1 exercises the inline serial path).
fn drive(engine: &mut Engine, events: &[(u64, u64, u64)], chunk: usize) {
    for c in events.chunks(chunk) {
        engine.ingest_parallel(c);
    }
}

fn zipf_events(keys: u64, count: u64, seed: u64) -> Vec<(u64, u64, u64)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut zipf = ZipfGen::new(keys, 1.2);
    (0..count)
        .map(|i| (zipf.next_value(&mut rng), i / 32, i))
        .collect()
}

/// Same seed + same stream ⇒ byte-identical per-key samples for
/// threads ∈ {1, 2, 8} and shards ∈ {1, 64}, for both window
/// disciplines. The reference is the plain serial engine.
#[test]
fn parallel_samples_bit_identical_across_threads_and_shards() {
    for template in [
        "--window seq --n 40 --mode wr --k 4 --seed 31",
        "--window seq --n 40 --mode wor --k 4 --seed 32",
        "--window ts --w 8 --mode wor --k 3 --seed 33",
    ] {
        let events = zipf_events(300, 12_000, 77);
        let mut reference = build_engine(template, 16, 1);
        drive(&mut reference, &events, 1024);
        let keys = reference.keys();
        let reference_samples: Vec<_> = keys.iter().map(|k| reference.sample_k(k)).collect();

        for shards in [1usize, 64] {
            for threads in [1usize, 2, 8] {
                let mut engine = build_engine(template, shards, threads);
                drive(&mut engine, &events, 1024);
                assert_eq!(engine.num_keys(), keys.len(), "{template}: key census");
                for (key, want) in keys.iter().zip(&reference_samples) {
                    assert_eq!(
                        &engine.sample_k(key),
                        want,
                        "{template}: key {key} diverges at shards={shards} threads={threads}"
                    );
                }
            }
        }
    }
}

/// Compile-time `Send` audit: every sampler the full factory can build
/// must cross threads (the erased trait carries `Send` as a supertrait,
/// so this is enforced for the boxed type as a whole, and the blanket
/// impl enforces it per concrete sampler).
#[test]
fn every_spec_built_sampler_is_send() {
    fn assert_send<T: Send>(_: &T) {}
    fn assert_send_type<T: Send>() {}
    assert_send_type::<Box<dyn ErasedWindowSampler<u64>>>();
    assert_send_type::<Box<dyn ErasedWindowSampler<String>>>();
    assert_send_type::<Engine>();

    for spec in [
        "--window seq --n 100 --mode wr --algo paper --k 3 --seed 1",
        "--window seq --n 100 --mode wor --algo paper --k 3 --seed 1",
        "--window ts --w 16 --mode wr --algo paper --k 3 --seed 1",
        "--window ts --w 16 --mode wor --algo paper --k 3 --seed 1",
        "--window stream --mode wor --algo reservoir-l --k 3 --seed 1",
        "--window seq --n 100 --mode wr --algo chain --k 3 --seed 1",
        "--window ts --w 16 --mode wr --algo priority --k 3 --seed 1",
        "--window ts --w 16 --mode wor --algo priority --k 3 --seed 1",
        "--window seq --n 100 --mode wor --algo window-buffer --k 3 --seed 1",
        "--window ts --w 16 --mode wor --algo window-buffer --k 3 --seed 1",
    ] {
        let parsed: SamplerSpec = spec.parse().expect("spec parses");
        let sampler = swsample::baselines::spec::build::<u64>(&parsed)
            .unwrap_or_else(|e| panic!("`{spec}`: {e}"));
        assert_send(&sampler);
        // And they actually survive a thread hop, state intact.
        let mut sampler = std::thread::spawn(move || {
            let mut s = sampler;
            s.advance_and_insert(1, &[1, 2, 3]);
            s
        })
        .join()
        .expect("sampler crossed threads");
        assert!(sampler.sample_k().is_some(), "`{spec}` lost its window");
    }
}

/// The 100k-key zipf acceptance run, now through `ingest_parallel`:
/// every materialized key stays under Theorem 2.1's deterministic
/// `7k + 3` ceiling and the fleet under `keys · cap`.
#[test]
fn hundred_thousand_keys_parallel_within_paper_caps() {
    let (keys, k) = (100_000u64, 16usize);
    let cap = 7 * k + 3;
    let mut engine = build_engine("--window seq --n 1000 --k 16 --seed 42", 64, 4);
    let mut rng = SmallRng::seed_from_u64(7);
    let mut zipf = ZipfGen::new(keys, 1.05);
    let events: Vec<(u64, u64, u64)> = (0..400_000u64)
        .map(|i| (zipf.next_value(&mut rng), i / 64, i))
        .collect();
    drive(&mut engine, &events, 8_192);

    assert!(
        engine.num_keys() > 40_000,
        "zipf(1.05): expected ~48k distinct keys, got {}",
        engine.num_keys()
    );
    assert!(
        engine.max_key_memory_words() <= cap,
        "hottest key {} words > deterministic cap {cap}",
        engine.max_key_memory_words()
    );
    assert!(engine.memory_words() <= engine.num_keys() * cap);
    // Registry scaffolding is bounded and reported separately from the
    // paper's model: ≤ 4 bucket + 3 slot words per key for u64 keys.
    assert!(engine.registry_overhead_words() <= engine.num_keys() * 7);
    assert_eq!(engine.sample_k(&0).expect("hot key nonempty").len(), k);
}

/// `ingest_parallel` takes `&self` (shards behind read/write locks), so
/// queries may run *during* ingestion. Regression pin: a reader thread
/// hammering `sample_k`/`num_keys` while the worker pool ingests must
/// never deadlock, panic, or observe a torn sample (wrong length), and
/// the final samples must equal the serial reference's. A barrier
/// releases the readers and the ingester together, and each reader's
/// last pass starts after ingestion finished, so every reader observes
/// samples however the threads are scheduled.
#[test]
fn queries_run_concurrently_with_parallel_ingestion() {
    let template = "--window seq --n 40 --mode wr --k 4 --seed 55";
    let events = zipf_events(300, 24_000, 99);

    let mut reference = build_engine(template, 16, 1);
    drive(&mut reference, &events, 1024);

    let engine = build_engine(template, 16, 4);
    let done = std::sync::atomic::AtomicBool::new(false);
    let start = std::sync::Barrier::new(3);
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2u64)
            .map(|r| {
                let (engine, done, start) = (&engine, &done, &start);
                scope.spawn(move || {
                    start.wait();
                    let mut observed = 0usize;
                    loop {
                        let last_pass = done.load(std::sync::atomic::Ordering::Acquire);
                        for key in 0..300u64 {
                            if let Some(s) = engine.sample_k(&(key.wrapping_add(r) % 300)) {
                                assert!(!s.is_empty() && s.len() <= 4, "torn sample");
                                observed += 1;
                            }
                        }
                        let _ = engine.num_keys();
                        if last_pass {
                            return observed;
                        }
                    }
                })
            })
            .collect();
        start.wait();
        for c in events.chunks(512) {
            engine.ingest_parallel(c);
        }
        done.store(true, std::sync::atomic::Ordering::Release);
        for reader in readers {
            assert!(reader.join().expect("reader survives") > 0);
        }
    });
    for key in reference.keys() {
        assert_eq!(
            engine.sample_k(&key),
            reference.sample_k(&key),
            "key {key} diverges from the serial reference"
        );
    }
}

/// The work-stealing determinism sweep: per-key samples are
/// byte-identical across thread counts {1, 2, 3, 8} × zipf skew
/// {θ = 1.1, θ = 1.5}, fed in deliberately uneven batch sizes so epochs
/// carry wildly different unit counts. Steals move *units* between
/// workers, never events within a shard, so the reference
/// (threads = 1) must match bit for bit. (The name predates the single
/// per-key store, when the sweep also crossed two fleet backends.)
#[test]
fn samples_bit_identical_across_threads_backends_and_skew() {
    const UNEVEN: &[usize] = &[1, 7, 256, 31, 1024, 3, 129];
    let drive_uneven = |engine: &Engine, events: &[(u64, u64, u64)]| {
        let mut at = 0usize;
        let mut i = 0usize;
        while at < events.len() {
            let take = UNEVEN[i % UNEVEN.len()].min(events.len() - at);
            engine.ingest_parallel(&events[at..at + take]);
            at += take;
            i += 1;
        }
        engine.flush().expect("no worker panics");
    };
    let template = "--window seq --n 50 --k 4 --seed 61";
    for theta in [1.1f64, 1.5] {
        let mut rng = SmallRng::seed_from_u64(909);
        let mut zipf = ZipfGen::new(500, theta);
        let events: Vec<(u64, u64, u64)> = (0..20_000u64)
            .map(|i| (zipf.next_value(&mut rng), i / 32, i))
            .collect();
        let reference = build_engine(template, 64, 1);
        drive_uneven(&reference, &events);
        let keys = reference.keys();
        for threads in [2usize, 3, 8] {
            let engine = build_engine(template, 64, threads);
            drive_uneven(&engine, &events);
            assert_eq!(
                engine.num_keys(),
                keys.len(),
                "θ={theta} threads={threads}: key census"
            );
            for key in &keys {
                assert_eq!(
                    engine.sample_k(key),
                    reference.sample_k(key),
                    "θ={theta}: key {key} diverges at threads={threads}"
                );
            }
            assert_eq!(engine.parallel_stats().violations, 0);
        }
    }
}

/// Steal-heavy stress shape: 2000 tiny epochs over 64 shards with 8
/// workers, heavy zipf skew. Every epoch re-races all eight workers
/// over a fresh claim queue; the one-shard-one-worker-per-epoch claim
/// must hold on every one (the `violations` counter is asserted by the
/// workers themselves via the per-shard executing flags), the claim
/// accounting must balance, and the samples must equal the serial
/// reference's.
#[test]
fn steal_stress_holds_one_shard_one_worker() {
    let template = "--window seq --n 32 --k 3 --seed 77";
    let mut rng = SmallRng::seed_from_u64(1234);
    let mut zipf = ZipfGen::new(400, 1.5);
    let events: Vec<(u64, u64, u64)> = (0..32_000u64)
        .map(|i| (zipf.next_value(&mut rng), i / 16, i))
        .collect();
    let mut reference = build_engine(template, 64, 1);
    drive(&mut reference, &events, 16);

    let engine = build_engine(template, 64, 8);
    for c in events.chunks(16) {
        engine.ingest_parallel(c);
    }
    engine.flush().expect("no worker panics");
    let stats = engine.parallel_stats();
    assert_eq!(stats.threads, 8);
    assert_eq!(stats.epochs, 2_000, "one epoch per non-empty batch");
    assert_eq!(stats.violations, 0, "two workers entered one shard");
    assert!(stats.units >= stats.epochs, "every epoch carves ≥ 1 unit");
    assert!(stats.steals <= stats.units);
    let claimed: u64 = stats.workers.iter().map(|w| w.claimed).sum();
    assert_eq!(claimed, stats.units, "claim accounting balances");
    for key in reference.keys() {
        assert_eq!(
            engine.sample_k(&key),
            reference.sample_k(&key),
            "key {key} diverges from the serial reference under steal stress"
        );
    }
}

/// The PR-7 rescale contract, extended to the work-stealing pool:
/// resizing the worker pool mid-stream — up, down to serial, and back
/// up — never changes a single sample byte. Epochs are serialized and
/// seeds are key-derived, so thread count is invisible to the output;
/// `set_threads` reuses live workers where counts allow, and the
/// counters survive the rescale.
#[test]
fn mid_stream_thread_rescale_stays_bit_identical() {
    let template = "--window seq --n 40 --mode wor --k 4 --seed 91";
    let events = zipf_events(300, 18_000, 345);
    let mut reference = build_engine(template, 16, 1);
    drive(&mut reference, &events, 512);

    let mut engine = build_engine(template, 16, 2);
    // chunk index → new worker count, applied between batches.
    let schedule = [(6usize, 8usize), (12, 1), (18, 3), (24, 8)];
    for (i, c) in events.chunks(512).enumerate() {
        if let Some(&(_, t)) = schedule.iter().find(|&&(at, _)| at == i) {
            engine.set_threads(t);
        }
        engine.ingest_parallel(c);
    }
    engine.flush().expect("no worker panics");
    let stats = engine.parallel_stats();
    assert_eq!(stats.violations, 0);
    assert!(
        stats.units > 0,
        "pooled epochs ran on both sides of rescale"
    );
    for key in reference.keys() {
        assert_eq!(
            engine.sample_k(&key),
            reference.sample_k(&key),
            "key {key} diverges across mid-stream thread rescales"
        );
    }
}

fn committed_artifact() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_throughput.json");
    std::fs::read_to_string(path).expect("BENCH_throughput.json is committed")
}

fn field(body: &str, key: &str) -> f64 {
    let marker = format!("\"{key}\":");
    let at = body
        .find(&marker)
        .unwrap_or_else(|| panic!("{key} present"));
    let rest = &body[at + marker.len()..];
    let end = rest.find([',', '\n', '}']).expect("number terminated");
    rest[..end].trim().parse().expect("numeric field")
}

/// The committed artifact is schema v7 and holds the same-run
/// acceptance bars: WAL-on ingest ≥ 0.7× WAL-off at 100k keys,
/// end-to-end serving ≥ 0.5× same-run direct ingest at 100k keys, and
/// the work-stealing scheduler bars — 8-thread overhead ≥ 0.9× serial
/// at 1k and 100k keys on any host, 4-thread efficiency ≥ 1.5× when the recorded
/// machine had more than one core (a single-core artifact cannot
/// witness speedup, only overhead). `bench_throughput` refuses to
/// write a sub-bar file; this refuses to let a hand-edited or stale
/// one past CI.
#[test]
fn committed_artifact_holds_parallel_acceptance_bar() {
    let body = committed_artifact();
    swsample_bench::json::validate(&body).expect("committed artifact parses");
    assert!(
        body.contains("\"schema\": \"swsample-bench-throughput/v7\""),
        "artifact is schema v7"
    );
    assert!(body.contains("\"parallel\": ["), "parallel section present");
    for counter in ["\"units\": ", "\"steals\": ", "\"imbalance\": "] {
        assert!(
            body.contains(counter),
            "parallel rows carry scheduler counter {counter}"
        );
    }
    assert!(body.contains("\"durable\": ["), "durable section present");
    assert!(body.contains("\"server\": ["), "server section present");
    assert!(
        body.contains("\"machine\": {"),
        "machine descriptor block present"
    );
    assert!(field(&body, "cores") >= 1.0, "machine core count recorded");
    let wal = field(&body, "durable_wal_overhead_100k");
    assert!(
        wal >= swsample_bench::throughput::DURABLE_WAL_100K_GATE,
        "committed durable_wal_overhead_100k {wal}x below the acceptance bar"
    );
    let e2e = field(&body, "server_e2e_100k_vs_direct");
    assert!(
        e2e >= swsample_bench::throughput::SERVER_E2E_100K_GATE,
        "committed server_e2e_100k_vs_direct {e2e}x below the acceptance bar"
    );
    for key in ["parallel_t8_overhead_1k", "parallel_t8_overhead_100k"] {
        let overhead = field(&body, key);
        assert!(
            overhead >= swsample_bench::throughput::PARALLEL_T8_OVERHEAD_GATE,
            "committed {key} {overhead}x below the acceptance bar"
        );
    }
    // The efficiency bar only means something when the measuring host
    // could actually run workers in parallel; `field` finds the machine
    // block's `cores` (it precedes the per-row annotations).
    if field(&body, "cores") > 1.0 {
        let eff = field(&body, "parallel_t4_efficiency_100k");
        assert!(
            eff >= swsample_bench::throughput::PARALLEL_T4_EFFICIENCY_GATE,
            "committed parallel_t4_efficiency_100k {eff}x below the acceptance bar \
             on a multi-core host"
        );
    }
}

/// The priority_topk regression fix, pinned on the committed artifact:
/// at k = 64 the one-draw-per-element GL top-k sampler must not be
/// slower than full k-draw priority sampling at either window size.
#[test]
fn committed_artifact_priority_topk_not_slower_than_priority() {
    let body = committed_artifact();
    let rate = |sampler: &str, n: u64| -> f64 {
        let marker =
            format!("{{\"sampler\": \"{sampler}\", \"discipline\": \"ts\", \"k\": 64, \"n\": {n},");
        let at = body
            .find(&marker)
            .unwrap_or_else(|| panic!("row {sampler} k=64 n={n} present"));
        field(&body[at..], "elems_per_sec")
    };
    for n in [10_000u64, 100_000] {
        let topk = rate("priority_topk", n);
        let full = rate("priority", n);
        assert!(
            topk >= full,
            "priority_topk ({topk:.0}/s) slower than priority ({full:.0}/s) at k=64 n={n}"
        );
    }
}
