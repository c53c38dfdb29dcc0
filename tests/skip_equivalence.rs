//! Skip-ahead ingestion equivalence: the fast paths (precomputed
//! next-acceptance indices, Algorithm L buckets, batched insert) must be
//! indistinguishable from the naive per-arrival reference paths — same
//! sampling distribution at the same chi-square thresholds as the seed
//! tests, `MemoryWords` that are an exact account of what each path
//! stores, and `O(log n)` RNG draws per window instead of `Θ(n)`.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use swsample::baselines::WindowBuffer;
use swsample::core::rng::CountingRng;
use swsample::core::seq::reference::{NaiveSeqWor, NaiveSeqWr};
use swsample::core::seq::{SeqSamplerWor, SeqSamplerWr};
use swsample::core::ts::{TsSamplerWor, TsSamplerWr};
use swsample::core::{MemoryWords, WindowSampler};
use swsample::stats::chi_square_uniform_test;
use swsample::stream::{zipf_fleet_events, MultiStreamEngine, WindowSpec};

/// The skip-path WR sampler and its per-arrival reference draw different
/// samples, so their words differ step by step. At every step each stays
/// under the `7k + 3` cap. (That the skip path's words are an exact
/// recount of its lanes is checked by the sampler's unit tests, which see
/// its layout.)
#[test]
fn wr_memory_words_lockstep_with_naive() {
    for &(n, k) in &[(7u64, 1usize), (16, 4), (100, 9)] {
        let mut skip = SeqSamplerWr::new(n, k, SmallRng::seed_from_u64(1));
        let mut naive = NaiveSeqWr::new(n, k, SmallRng::seed_from_u64(999));
        for i in 0..(4 * n + 3) {
            skip.insert(i);
            naive.insert(i);
            assert!(skip.memory_words() <= 7 * k + 3, "n={n}, k={k}, step {i}");
            assert!(naive.memory_words() <= 7 * k + 3, "n={n}, k={k}, step {i}");
        }
    }
}

/// A fleet resumed from its checkpoint reports the live fleet's
/// `memory_words`: every key's buckets are rebuilt in the live layout.
/// Both keep agreeing as ingestion continues.
#[test]
fn seq_wr_resumed_fleet_reports_live_memory() {
    let template: swsample::core::SamplerSpec = "--window seq --n 200 --mode wr --k 16 --seed 3"
        .parse()
        .expect("template parses");
    let events: Vec<(u64, u64, u64)> = zipf_fleet_events(500, 1.1, 8).take(60_000).collect();
    let (head, tail) = events.split_at(37_001);
    let mut live: MultiStreamEngine<u64, u64> =
        MultiStreamEngine::new(template.clone()).expect("engine builds");
    live.ingest(head);
    let mut resumed: MultiStreamEngine<u64, u64> =
        MultiStreamEngine::new(template).expect("engine builds");
    resumed
        .restore_states(live.save_states().expect("seq-wr saves"))
        .expect("checkpoint restores");
    assert_eq!(resumed.memory_words(), live.memory_words());
    assert!(live.memory_words() < live.num_keys() * (7 * 16 + 3));
    for chunk in tail.chunks(1000) {
        live.ingest(chunk);
        resumed.ingest(chunk);
        assert_eq!(resumed.memory_words(), live.memory_words());
    }
    let mut keys = live.keys();
    keys.sort_unstable();
    for key in &keys {
        assert_eq!(resumed.sample_k(key), live.sample_k(key), "key {key}");
    }
}

/// Same for WOR, up to the two extra Algorithm-L scalars (next-accept
/// index and W) — a constant, never a function of the stream.
#[test]
fn wor_memory_words_lockstep_with_naive() {
    for &(n, k) in &[(9u64, 2usize), (32, 5)] {
        let mut skip = SeqSamplerWor::new(n, k, SmallRng::seed_from_u64(2));
        let mut naive = NaiveSeqWor::new(n, k, SmallRng::seed_from_u64(998));
        for i in 0..(4 * n + 3) {
            skip.insert(i);
            naive.insert(i);
            assert_eq!(
                skip.memory_words(),
                naive.memory_words() + 2,
                "n={n}, k={k}, step {i}"
            );
        }
    }
}

/// Batched ingestion on sequence windows: sample_k() window positions stay
/// uniform (same 1e-4 threshold as the seed tests), with ragged chunk
/// sizes that straddle bucket boundaries.
#[test]
fn seq_batched_sample_k_positions_uniform() {
    let (n, k, stop) = (16u64, 2usize, 41u64);
    let trials = 20_000u64;
    let mut counts = vec![0u64; (n * k as u64) as usize];
    for t in 0..trials {
        let mut s = SeqSamplerWr::new(n, k, SmallRng::seed_from_u64(800_000 + t));
        let values: Vec<u64> = (0..stop).collect();
        for chunk in values.chunks(11) {
            s.insert_batch(chunk);
        }
        for (j, smp) in s.sample_k().expect("nonempty").iter().enumerate() {
            counts[j * n as usize + (smp.index() - (stop - n)) as usize] += 1;
        }
    }
    // Each instance's marginal occupies its own block of n cells; joint
    // uniformity over the blocks == per-instance uniformity.
    let out = chi_square_uniform_test(&counts);
    assert!(
        out.p_value > 1e-4,
        "seq batched positions not uniform: p = {}",
        out.p_value
    );
}

/// Batched ingestion on timestamp windows, WR: advance_and_insert bursts,
/// then check uniformity over the active set.
#[test]
fn ts_wr_batched_sample_positions_uniform() {
    let t0 = 4u64;
    // Deterministic bursty schedule (mirrors the engine test): active at
    // t=9 are ticks 6..=9 -> bursts 5,1,4,2 = 12 elements.
    let schedule: &[(u64, u64)] = &[
        (0, 3),
        (1, 7),
        (2, 2),
        (3, 1),
        (4, 6),
        (5, 2),
        (6, 5),
        (7, 1),
        (8, 4),
        (9, 2),
    ];
    let first_active: u64 = 3 + 7 + 2 + 1 + 6 + 2;
    let active = 5 + 1 + 4 + 2;
    let trials = 25_000u64;
    let mut counts = vec![0u64; active as usize];
    for t in 0..trials {
        let mut s = TsSamplerWr::new(t0, 1, SmallRng::seed_from_u64(900_000 + t));
        let mut idx = 0u64;
        for &(tick, burst) in schedule {
            let batch: Vec<u64> = (idx..idx + burst).collect();
            s.advance_and_insert(tick, &batch);
            idx += burst;
        }
        let smp = s.sample().expect("nonempty");
        assert!(smp.index() >= first_active, "expired sample");
        counts[(smp.index() - first_active) as usize] += 1;
    }
    let out = chi_square_uniform_test(&counts);
    assert!(
        out.p_value > 1e-4,
        "ts batched WR not uniform: p = {}",
        out.p_value
    );
}

/// Batched ingestion on timestamp windows, WOR: marginal inclusion stays
/// uniform and samples stay distinct.
#[test]
fn ts_wor_batched_marginals_uniform_and_distinct() {
    let (t0, k, ticks) = (8u64, 3usize, 30u64);
    let trials = 25_000u64;
    let mut counts = vec![0u64; t0 as usize];
    for t in 0..trials {
        let mut s = TsSamplerWor::new(t0, k, SmallRng::seed_from_u64(700_000 + t));
        // One element per tick, delivered through the batch API in pairs
        // of ticks (each tick is its own advance_and_insert call).
        for tick in 0..ticks {
            s.advance_and_insert(tick, &[tick]);
        }
        let out = s.sample_k().expect("nonempty");
        let mut idx: Vec<u64> = out.iter().map(|s| s.index()).collect();
        idx.sort_unstable();
        for w in idx.windows(2) {
            assert_ne!(w[0], w[1], "duplicate in WOR batch sample");
        }
        for s in out {
            counts[(s.index() - (ticks - t0)) as usize] += 1;
        }
    }
    let out = chi_square_uniform_test(&counts);
    assert!(
        out.p_value > 1e-4,
        "ts batched WOR marginals not uniform: p = {}",
        out.p_value
    );
}

/// Larger multi-arrival-per-tick batches keep the WOR distinctness
/// invariant through the delayed-engine plumbing.
#[test]
fn ts_wor_large_batches_stay_distinct_and_active() {
    let mut s = TsSamplerWor::new(6, 4, SmallRng::seed_from_u64(77));
    let mut idx = 0u64;
    for tick in 0..200u64 {
        let burst = (tick % 7) as usize; // 0..=6 arrivals, incl. empty ticks
        let batch: Vec<u64> = (idx..idx + burst as u64).collect();
        s.advance_and_insert(tick, &batch);
        idx += burst as u64;
        if let Some(out) = s.sample_k() {
            let mut seen: Vec<u64> = out.iter().map(|x| x.index()).collect();
            seen.sort_unstable();
            let len = seen.len();
            seen.dedup();
            assert_eq!(seen.len(), len, "duplicates at tick {tick}");
            for smp in &out {
                assert!(tick - smp.timestamp() < 6, "expired at tick {tick}");
            }
        }
    }
}

/// Exact (non-statistical) equivalence: WindowBuffer is deterministic in
/// content, so batch and per-element ingestion must match exactly for any
/// chunking.
#[test]
fn window_buffer_batch_equals_single_exactly() {
    for chunk in [1usize, 3, 10, 64] {
        let mut single = WindowBuffer::new(WindowSpec::Sequence(20), 4, SmallRng::seed_from_u64(5));
        let mut batched =
            WindowBuffer::new(WindowSpec::Sequence(20), 4, SmallRng::seed_from_u64(5));
        let values: Vec<u64> = (0..137).collect();
        for &v in &values {
            single.insert(v);
        }
        for c in values.chunks(chunk) {
            batched.insert_batch(c);
        }
        let a: Vec<u64> = single.window_contents().map(|s| s.index()).collect();
        let b: Vec<u64> = batched.window_contents().map(|s| s.index()).collect();
        assert_eq!(a, b, "chunk={chunk}");
        assert_eq!(single.memory_words(), batched.memory_words());
    }
}

/// The committed `BENCH_throughput.json` passes `throughput::check`, and
/// each of `gates` is among the gates it applied.
fn committed_gates_applied(gates: &[&str]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_throughput.json");
    let body = std::fs::read_to_string(path).expect("BENCH_throughput.json is committed");
    let doc = swsample_bench::json::parse(&body).expect("committed artifact parses");
    let report = swsample_bench::throughput::check(&doc)
        .unwrap_or_else(|failures| panic!("committed artifact fails its gates: {failures:#?}"));
    for gate in gates {
        let prefix = format!("gate {gate}:");
        assert!(
            report.iter().any(|line| line.starts_with(&prefix)),
            "gate {gate} not applied to the committed artifact: {report:#?}"
        );
    }
}

/// The committed perf baseline parses and holds the seq-WR skip vs naive
/// acceptance bar (elems/sec at k = 64, n = 10⁵), the
/// `seq_wr_speedup_k64_n100000` gate. Deterministic: this reads the
/// checked-in artifact rather than re-timing anything —
/// `bench_throughput` refuses to write a file that fails the gate, and
/// this refuses to let one that was hand-edited (or gone stale through a
/// schema change) slip past CI.
#[test]
fn committed_throughput_baseline_holds_acceptance_bar() {
    committed_gates_applied(&["seq_wr_speedup_k64_n100000"]);
}

/// The headline draw bound: over many windows, the skip path consumes
/// O(k log n) RNG words per window while the naive path consumes k·n.
#[test]
fn skip_path_rng_draws_are_logarithmic_per_window() {
    let (n, k, windows) = (4096u64, 4usize, 50u64);
    let elements = n * windows;

    let skip_rng = CountingRng::new(SmallRng::seed_from_u64(11));
    let skip_counter = skip_rng.counter();
    let mut s = SeqSamplerWr::new(n, k, skip_rng);
    let values: Vec<u64> = (0..elements).collect();
    for chunk in values.chunks(1024) {
        s.insert_batch(chunk);
    }
    let accepts = s.acceptances();
    drop(s);
    let skip_draws = skip_counter.words();

    let naive_rng = CountingRng::new(SmallRng::seed_from_u64(11));
    let naive_counter = naive_rng.counter();
    let mut s = NaiveSeqWr::new(n, k, naive_rng);
    for chunk in values.chunks(1024) {
        s.insert_batch(chunk);
    }
    drop(s);
    let naive_draws = naive_counter.words();

    // Naive: ≥ 1 draw per instance per element.
    assert!(
        naive_draws >= k as u64 * elements,
        "naive draws {naive_draws}"
    );
    // Skip: acceptances are ≈ k·H(n) per window; each costs O(1) draws.
    // Generous w.h.p. ceiling: 16·k·ln(n) draws per window.
    let ln_n = (n as f64).ln();
    let cap = (16.0 * k as f64 * ln_n * windows as f64) as u64;
    assert!(
        skip_draws <= cap,
        "skip draws {skip_draws} > O(k log n) cap {cap}"
    );
    // And the acceptance count itself is Θ(k log n) per window.
    let expected = k as f64 * (ln_n + 0.5772) * windows as f64;
    assert!(
        (accepts as f64) < 2.0 * expected && (accepts as f64) > 0.5 * expected,
        "acceptances {accepts} far from k·H(n)·windows = {expected}"
    );
    // The end-to-end draw reduction the throughput suite banks on.
    assert!(
        skip_draws * 20 < naive_draws,
        "skip {skip_draws} vs naive {naive_draws}: expected ≥20× fewer draws"
    );
}

/// FNV-1a over `words`, continuing from `h`.
fn fnv1a(mut h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Fold a `sample_k` answer (`None` included) into the digest.
fn fold_samples(h: u64, samples: Option<Vec<swsample::core::Sample<u64>>>) -> u64 {
    let samples = samples.unwrap_or_default();
    let h = fnv1a(h, [samples.len() as u64]);
    fnv1a(h, samples.iter().flat_map(|s| [s.index(), *s.value()]))
}

/// Golden digest of seq-WR output at the fleet's shape (`k = 16`,
/// `n = 1000`). Every sample is a function of the RNG words the skip path
/// consumes, so any change in how many words an acceptance draws, or in
/// which order the lanes draw them, moves this digest even when the
/// distribution is unchanged. Two halves:
///
/// - one sampler over 50k arrivals, hashed at 20 checkpoints that land
///   inside the first bucket, on bucket boundaries and straddling them,
///   fed alternately per element and by batch;
/// - a 1k-key zipf fleet through `ingest_parallel` at 2 threads, hashed
///   over every key's `sample_k` in key order.
#[test]
fn seq_wr_golden_sample_digest() {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    let mut s = SeqSamplerWr::new(1000, 16, SmallRng::seed_from_u64(2024));
    let mut h = OFFSET;
    let mut at = 0u64;
    for j in 1..=20u64 {
        let stop = 2500 * j - if j % 2 == 1 { 1800 } else { 0 };
        let values: Vec<u64> = (at..stop)
            .map(|i| i.wrapping_mul(0x9e37_79b9) ^ 5)
            .collect();
        if j % 2 == 0 {
            for chunk in values.chunks(333) {
                s.insert_batch(chunk);
            }
        } else {
            for &v in &values {
                s.insert(v);
            }
        }
        at = stop;
        h = fold_samples(fnv1a(h, [at]), s.sample_k());
    }
    assert_eq!(at, 50_000);
    assert_eq!(h, 0xbd36_e31e_a8d5_72e8, "single-sampler digest moved");

    let engine: MultiStreamEngine<u64, u64> = MultiStreamEngine::with_threads(
        "--window seq --n 1000 --mode wr --k 16 --seed 15"
            .parse()
            .expect("template parses"),
        16,
        swsample::baselines::spec::build::<u64>,
        2,
    )
    .expect("engine builds");
    let events: Vec<(u64, u64, u64)> = zipf_fleet_events(1_000, 1.1, 16).take(200_000).collect();
    for chunk in events.chunks(4096) {
        engine.ingest_parallel(chunk);
    }
    let mut keys = engine.keys();
    keys.sort_unstable();
    let mut h = fnv1a(OFFSET, [keys.len() as u64]);
    for key in &keys {
        h = fold_samples(fnv1a(h, [*key]), engine.sample_k(key));
    }
    assert_eq!(h, 0xc7e7_1c9f_2933_1124, "fleet digest moved");
}

/// Golden digest of seq-WR checkpoint records (`save_state` encoded as a
/// state record), which pins every lane's `prev`/`cur` samples and
/// `next_accept` byte for byte, not only the samples a query returns.
/// Each `k` runs over a hot stream of 2.5 buckets of `n = 10_000`: at
/// `k = 70` the lanes hold nearly as many distinct elements as there are
/// lanes late in each bucket, and few early on. Records are hashed every
/// 397 arrivals, fed alternately per element and by batch; small
/// per-arrival references pin their records too.
#[test]
fn seq_wr_golden_state_digest() {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    let record = |s: &SeqSamplerWr<u64, SmallRng>| {
        s.save_state()
            .expect("non-tracking sampler saves")
            .encode_record()
    };
    let mut h = OFFSET;
    for k in [1usize, 2, 5, 16, 70] {
        let n = 10_000u64;
        let mut s = SeqSamplerWr::new(n, k, SmallRng::seed_from_u64(77 + k as u64));
        let values: Vec<u64> = (0..5 * n / 2)
            .map(|i| i.wrapping_mul(0x9e37_79b9) ^ 3)
            .collect();
        for (j, chunk) in values.chunks(397).enumerate() {
            if j % 2 == 0 {
                s.insert_batch(chunk);
            } else {
                for &v in chunk {
                    s.insert(v);
                }
            }
            h = fnv1a(h, record(&s).into_iter().map(u64::from));
        }
    }
    for k in [2usize, 16] {
        let mut s = NaiveSeqWr::new(300, k, SmallRng::seed_from_u64(5 + k as u64));
        for i in 0..900u64 {
            s.insert(i);
            if i % 37 == 0 {
                let record = s.save_state().expect("reference saves").encode_record();
                h = fnv1a(h, record.into_iter().map(u64::from));
            }
        }
    }
    assert_eq!(h, 0x2103_03c3_0a62_1e9a, "state-record digest moved");
}
