//! Live heap bytes per key for the paper's four sampler families on a
//! zipf-keyed fleet, next to the paper's word model.
//!
//! A counting global allocator tracks requested live bytes (no allocator
//! rounding). Each row builds a `MultiStreamEngine` (64 shards, 1 thread),
//! feeds it zipf(1.1) events in batches of 256 — the fleet shape of
//! `zipf_fleet_events`, `k = 16`, `n = w = 1000` — and divides the live
//! byte delta by the touched keys. Shard tables and the engine's route
//! buffers count; the event buffer is allocated up front and does not,
//! and neither does thread-local scratch (the ts bank's merge buffers),
//! which a warm-up pass of every family grows before any row is
//! measured. The model column is `(memory_words +
//! registry_overhead_words) × 8` per key.
//!
//! The query column counts allocator calls (allocations and
//! reallocations) per `sample_k`, over one query of every key of the
//! 1k-key fleet, the answer's own vector included.
//!
//! The binary holds one test, so nothing else allocates while it
//! measures. Run with `cargo test --test heap_probe -- --nocapture` to
//! see the table.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

use swsample::core::MemoryWords;
use swsample::stream::{zipf_fleet_events, MultiStreamEngine};

struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` unchanged and only counts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// One probe row: live heap and model bytes per touched key, and
/// allocator calls per `sample_k`.
struct Row {
    keys: usize,
    heap: f64,
    model: f64,
    allocs: f64,
}

/// Build a fleet of `template` over `keys` zipf keys, feed it `events`
/// arrivals, and measure it.
fn probe(template: &str, keys: u64, events: usize) -> Row {
    let stream: Vec<(u64, u64, u64)> = zipf_fleet_events(keys, 1.1, 11).take(events).collect();
    let before = LIVE.load(Ordering::Relaxed);
    let mut engine: MultiStreamEngine<u64, u64> = MultiStreamEngine::with_threads(
        template.parse().expect("template parses"),
        64,
        swsample::baselines::spec::build::<u64>,
        1,
    )
    .expect("engine builds");
    for batch in stream.chunks(256) {
        engine.ingest(batch);
    }
    let heap = LIVE.load(Ordering::Relaxed) - before;
    let touched = engine.num_keys();
    let model = (engine.memory_words() + engine.registry_overhead_words()) * 8;
    let keys = engine.keys();
    let calls = CALLS.load(Ordering::Relaxed);
    for key in &keys {
        engine.sample_k(key);
    }
    let allocs = CALLS.load(Ordering::Relaxed) - calls;
    drop(engine);
    Row {
        keys: touched,
        heap: heap as f64 / touched as f64,
        model: model as f64 / touched as f64,
        allocs: allocs as f64 / keys.len() as f64,
    }
}

/// Bar on seq-WR heap per key at 100k keys. This probe measured, at its
/// shape, 842 B/key with the lanes stored plainly (two arrays of `k`
/// optional samples and `k` absolute next-acceptance indices), 489 with
/// indexed buckets, and 383 with two-word candidates and 32-bit offsets.
/// The bar leaves 4% above the last figure.
const SEQ_WR_100K_BAR: f64 = 400.0;

/// Bars on ts-WOR heap per key at 1k and 100k keys. This probe measured
/// 2,335 and 762 B/key with three-word bank candidates and auxiliary
/// entries; 1,851 and 636 with two-word candidates, value-only singletons
/// and `(value, timestamp)` auxiliary entries; and 1,691 and 415 with an
/// auxiliary array whose capacity doubles from one entry, capped at `k`.
/// The bars leave 5% above the last figures.
const TS_WOR_1K_BAR: f64 = 1776.0;
const TS_WOR_100K_BAR: f64 = 436.0;

/// Bars on allocator calls per `sample_k` at 1k keys, in the order of
/// the families: seq-WR, seq-WOR, ts-WR, ts-WOR. This probe measured
/// 1.00, 1.05, 3.00 and 17.64 when ts-WOR cloned a standalone engine per
/// lane and ts-WR grew its answer through `Option`'s collect, and 1.00,
/// 1.05, 1.00 and 11.16 with the scratch-bank extension and a presized
/// answer. The bars leave about 10% above the last figures.
const QUERY_ALLOC_BARS: [f64; 4] = [1.1, 1.2, 1.1, 12.3];

#[test]
fn heap_bytes_per_key_by_family() {
    let families = [
        ("seq-WR", "--window seq --n 1000 --mode wr --k 16 --seed 11"),
        (
            "seq-WOR",
            "--window seq --n 1000 --mode wor --k 16 --seed 11",
        ),
        ("ts-WR", "--window ts --w 1000 --mode wr --k 16 --seed 11"),
        ("ts-WOR", "--window ts --w 1000 --mode wor --k 16 --seed 11"),
    ];
    println!(
        "| template | 1k keys: heap / model, B per key | allocations per sample_k (bar) \
         | 100k keys: heap / model |"
    );
    println!("|---|---|---|---|");
    let mut seq_wr_100k = None;
    let mut ts_wor = None;
    // Warm-up: grow thread-local scratch before any row is measured.
    for (_, template) in families {
        probe(template, 1_000, 20_000);
    }
    for ((name, template), bar) in families.into_iter().zip(QUERY_ALLOC_BARS) {
        let small = probe(template, 1_000, 100_000);
        let large = probe(template, 100_000, 200_000);
        println!(
            "| {name} | {:.0} / {:.0} ({:.1}×) | {:.2} ({bar}) | {:.0} / {:.0} ({:.1}×, {} keys) |",
            small.heap,
            small.model,
            small.heap / small.model,
            small.allocs,
            large.heap,
            large.model,
            large.heap / large.model,
            large.keys,
        );
        assert!(
            small.allocs <= bar,
            "{name}: {:.2} allocations per sample_k at 1k keys, bar {bar}",
            small.allocs
        );
        for row in [&small, &large] {
            assert!(
                row.heap >= row.model * 0.9,
                "{name}: heap {:.0} B/key below the word model {:.0}",
                row.heap,
                row.model
            );
        }
        match name {
            "seq-WR" => seq_wr_100k = Some(large.heap),
            "ts-WOR" => ts_wor = Some((small.heap, large.heap)),
            _ => {}
        }
    }
    let seq_wr = seq_wr_100k.expect("seq-WR row measured");
    assert!(
        seq_wr <= SEQ_WR_100K_BAR,
        "seq-WR heap {seq_wr:.0} B/key at 100k keys, bar {SEQ_WR_100K_BAR:.0}"
    );
    let (ts_wor_1k, ts_wor_100k) = ts_wor.expect("ts-WOR row measured");
    assert!(
        ts_wor_1k <= TS_WOR_1K_BAR,
        "ts-WOR heap {ts_wor_1k:.0} B/key at 1k keys, bar {TS_WOR_1K_BAR:.0}"
    );
    assert!(
        ts_wor_100k <= TS_WOR_100K_BAR,
        "ts-WOR heap {ts_wor_100k:.0} B/key at 100k keys, bar {TS_WOR_100K_BAR:.0}"
    );
}
