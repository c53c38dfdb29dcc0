//! Equivalence audit for the fused k-lane timestamp bank (`TsEngineBank`):
//! the fused `TsSamplerWr`/`TsSamplerWor` against the per-engine
//! reference types `IndependentTsWr`/`IndependentTsWor`.
//!
//! Three layers of evidence, mirroring `tests/skip_equivalence.rs`:
//!
//! 1. **Structural lockstep** — the bank's shared bucket-boundary skeleton
//!    must equal an independent engine's at *every* tick (boundaries are a
//!    deterministic function of the stream; randomness only picks sample
//!    slots).
//! 2. **Distributional equality** — per-lane marginals and cross-lane
//!    joints at the same seed chi-square thresholds on both backends.
//! 3. **Draw complexity** — `CountingRng` bounds: fused ingestion costs
//!    amortized `O(k/32)` RNG words per element (packed merge-coin bits),
//!    against the `Θ(k)` words the PR-3 engines paid before coin packing.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swsample::core::rng::CountingRng;
use swsample::core::ts::independent::{IndependentTsWor, IndependentTsWr};
use swsample::core::ts::{TsSamplerWor, TsSamplerWr};
use swsample::core::WindowSampler;
use swsample::stats::chi_square_uniform_test;

/// Layer 1 (WR): fused bank vs independent engine, byte-identical bucket
/// boundaries and straddle state at every tick of a bursty schedule, even
/// though the two consume entirely different randomness.
#[test]
fn wr_boundaries_lockstep_at_every_tick() {
    let mut fused = TsSamplerWr::new(13, 6, SmallRng::seed_from_u64(1));
    let mut indep = IndependentTsWr::new(13, 6, SmallRng::seed_from_u64(777));
    let mut sched = SmallRng::seed_from_u64(2);
    let mut checked_straddle = 0u32;
    for tick in 0..600u64 {
        fused.advance_time(tick);
        indep.advance_time(tick);
        let burst: Vec<u64> = (0..sched.gen_range(0..5u64))
            .map(|j| tick * 8 + j)
            .collect();
        fused.insert_batch(&burst);
        indep.insert_batch(&burst);
        assert_eq!(fused.boundaries(), indep.boundaries(), "tick {tick}");
        assert_eq!(fused.is_straddling(), indep.is_straddling(), "tick {tick}");
        if fused.is_straddling() {
            checked_straddle += 1;
        }
    }
    assert!(checked_straddle > 100, "schedule never exercised case 2");
}

/// Layer 1 (WOR): the fused bank runs every lane at delay k−1, so its
/// skeleton must track the independent construction's engine k−1 tick for
/// tick.
#[test]
fn wor_boundaries_lockstep_at_every_tick() {
    let k = 5usize;
    let mut fused = TsSamplerWor::new(17, k, SmallRng::seed_from_u64(3));
    let mut indep = IndependentTsWor::new(17, k, SmallRng::seed_from_u64(999));
    let mut sched = SmallRng::seed_from_u64(4);
    let mut idx = 0u64;
    for tick in 0..600u64 {
        fused.advance_time(tick);
        indep.advance_time(tick);
        for _ in 0..sched.gen_range(0..4u64) {
            fused.insert(idx);
            indep.insert(idx);
            idx += 1;
        }
        assert_eq!(fused.boundaries(), indep.boundaries(), "tick {tick}");
    }
}

/// Layer 2 (WR): every fused lane's marginal is uniform over the active
/// window, at the same chi-square threshold as the independent engines.
#[test]
fn wr_per_lane_marginals_uniform_on_both_backends() {
    let t0 = 12u64;
    let ticks = 30u64;
    let k = 3usize;
    let trials = 20_000u64;
    for fused in [true, false] {
        let mut counts = vec![vec![0u64; t0 as usize]; k];
        for t in 0..trials {
            let rng = SmallRng::seed_from_u64(500_000 + t);
            let mut s: Box<dyn WindowSampler<u64>> = if fused {
                Box::new(TsSamplerWr::new(t0, k, rng))
            } else {
                Box::new(IndependentTsWr::new(t0, k, rng))
            };
            for tick in 0..ticks {
                s.advance_time(tick);
                s.insert(tick);
            }
            let got = s.sample_k().expect("nonempty");
            for (lane, smp) in got.iter().enumerate() {
                counts[lane][(smp.index() - (ticks - t0)) as usize] += 1;
            }
        }
        for (lane, lane_counts) in counts.iter().enumerate() {
            let out = chi_square_uniform_test(lane_counts);
            assert!(
                out.p_value > 1e-4,
                "lane {lane} (fused={fused}) not uniform: p = {}",
                out.p_value
            );
        }
    }
}

/// Layer 2 (WR): cross-lane joint uniformity — the packed coin bits must
/// leave lanes mutually independent: the (lane 0, lane 1) pair over a
/// 4-element window is product-uniform on both backends.
#[test]
fn wr_cross_lane_joint_uniform_on_both_backends() {
    let t0 = 4u64;
    let ticks = 14u64;
    let trials = 40_000u64;
    for fused in [true, false] {
        let mut counts = vec![0u64; (t0 * t0) as usize];
        for t in 0..trials {
            let rng = SmallRng::seed_from_u64(800_000 + t);
            let mut s: Box<dyn WindowSampler<u64>> = if fused {
                Box::new(TsSamplerWr::new(t0, 2, rng))
            } else {
                Box::new(IndependentTsWr::new(t0, 2, rng))
            };
            for tick in 0..ticks {
                s.advance_time(tick);
                s.insert(tick);
            }
            let got = s.sample_k().expect("nonempty");
            let a = got[0].index() - (ticks - t0);
            let b = got[1].index() - (ticks - t0);
            counts[(a * t0 + b) as usize] += 1;
        }
        let out = chi_square_uniform_test(&counts);
        assert!(
            out.p_value > 1e-4,
            "joint (fused={fused}) not product-uniform: p = {}",
            out.p_value
        );
    }
}

/// Layer 2 (WOR): inclusion marginals on both backends at the same
/// threshold — the delay-(k−1) bank + query-time lane extension must
/// reproduce the delayed-engine ladder's law exactly.
#[test]
fn wor_marginals_uniform_on_both_backends() {
    let (t0, k, ticks) = (8u64, 3usize, 30u64);
    let trials = 25_000u64;
    for fused in [true, false] {
        let mut counts = vec![0u64; t0 as usize];
        for t in 0..trials {
            let rng = SmallRng::seed_from_u64(650_000 + t);
            let mut s: Box<dyn WindowSampler<u64>> = if fused {
                Box::new(TsSamplerWor::new(t0, k, rng))
            } else {
                Box::new(IndependentTsWor::new(t0, k, rng))
            };
            for tick in 0..ticks {
                s.advance_time(tick);
                s.insert(tick);
            }
            for smp in s.sample_k().expect("nonempty") {
                counts[(smp.index() - (ticks - t0)) as usize] += 1;
            }
        }
        let out = chi_square_uniform_test(&counts);
        assert!(
            out.p_value > 1e-4,
            "WOR marginals (fused={fused}) not uniform: p = {}",
            out.p_value
        );
    }
}

/// Layer 2 (WOR): pairwise joint — all unordered pairs over n = 5 active
/// elements equally likely through the fused path.
#[test]
fn wor_pairs_uniform_through_the_fused_path() {
    let (t0, k, ticks) = (5u64, 2usize, 20u64);
    let trials = 30_000u64;
    let n = t0;
    let mut counts = vec![0u64; (n * (n - 1) / 2) as usize];
    for t in 0..trials {
        let mut s = TsSamplerWor::new(t0, k, SmallRng::seed_from_u64(950_000 + t));
        for tick in 0..ticks {
            s.advance_time(tick);
            s.insert(tick);
        }
        let out = s.sample_k().expect("nonempty");
        let mut pos: Vec<u64> = out.iter().map(|s| s.index() - (ticks - t0)).collect();
        pos.sort_unstable();
        let (a, b) = (pos[0], pos[1]);
        let rank = a * n - a * (a + 1) / 2 + (b - a - 1);
        counts[rank as usize] += 1;
    }
    let out = chi_square_uniform_test(&counts);
    assert!(
        out.p_value > 1e-4,
        "fused WOR pairs not uniform: p = {}",
        out.p_value
    );
}

/// Layer 2 (both): one sampler of each fused family on a steady stream,
/// queried at every tick after warm-up. Queries draw from a per-query
/// stream and leave the sampler unchanged, so successive answers are not
/// independent draws of one state, yet each is uniform over its own
/// window: the positions relative to the window, pooled over every tick,
/// pass the chi-square test. Two back-to-back queries at one state
/// return the same answer.
#[test]
fn successive_query_times_pool_uniform() {
    let (t0, k, warm, ticks) = (16u64, 4usize, 64u64, 20_000u64);
    let samplers: [(&str, Box<dyn WindowSampler<u64>>); 2] = [
        (
            "wr",
            Box::new(TsSamplerWr::new(t0, k, SmallRng::seed_from_u64(31))),
        ),
        (
            "wor",
            Box::new(TsSamplerWor::new(t0, k, SmallRng::seed_from_u64(32))),
        ),
    ];
    for (mode, mut s) in samplers {
        let mut counts = vec![0u64; t0 as usize];
        for tick in 0..warm + ticks {
            // One arrival per tick: the arrival's index is its tick, and
            // the window holds ticks `tick − t0 + 1 ..= tick`.
            s.advance_and_insert(tick, &[tick]);
            if tick < warm {
                continue;
            }
            let got = s.sample_k().expect("nonempty");
            assert_eq!(
                Some(&got),
                s.sample_k().as_ref(),
                "{mode}: repeat at {tick}"
            );
            assert_eq!(got.len(), k, "{mode}: tick {tick}");
            for smp in got {
                counts[(smp.index() + t0 - 1 - tick) as usize] += 1;
            }
        }
        let out = chi_square_uniform_test(&counts);
        assert!(
            out.p_value > 1e-4,
            "{mode}: positions over successive query times not uniform: p = {} ({counts:?})",
            out.p_value
        );
    }
}

/// Layer 3: fused ingestion draws — at k = 64 the bank must stay under
/// k/32 + 1 = 3 RNG words per element (2k merge-coin bits per amortized
/// merge, packed 64 per word), where the pre-PR4 engines paid ~2k = 128.
#[test]
fn fused_ingestion_draws_are_amortized_k_over_32() {
    let k = 64usize;
    let t0 = 25_000u64; // ≈ n = 100k active at 4 arrivals/tick
    let elements = 100_000u64;
    fn drive<S: WindowSampler<u64>>(s: &mut S, elements: u64) {
        let mut i = 0u64;
        let mut tick = 0u64;
        let mut buf = Vec::with_capacity(4);
        while i < elements {
            buf.clear();
            buf.extend(i..(i + 4).min(elements));
            tick += 1;
            s.advance_and_insert(tick, &buf);
            i += buf.len() as u64;
        }
    }
    let bound = k as f64 / 32.0 + 1.0;

    let rng = CountingRng::new(SmallRng::seed_from_u64(21));
    let counter = rng.counter();
    let mut wr = TsSamplerWr::new(t0, k, rng);
    drive(&mut wr, elements);
    drop(wr);
    let per_elem = counter.words() as f64 / elements as f64;
    assert!(
        per_elem <= bound,
        "wr: {per_elem} draws/element above {bound}"
    );

    let rng = CountingRng::new(SmallRng::seed_from_u64(22));
    let counter = rng.counter();
    let mut wor = TsSamplerWor::new(t0, k, rng);
    drive(&mut wor, elements);
    drop(wor);
    let per_elem = counter.words() as f64 / elements as f64;
    assert!(
        per_elem <= bound,
        "wor: {per_elem} draws/element above {bound}"
    );
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

/// The committed perf baseline records the fused-bank acceptance
/// numbers: the `ts_wr_speedup_k64` and `ts_wor_speedup_k64` gates over
/// the retained independent construction, and the `fused_ts_draws` gate
/// (draws_per_element ≤ k/32 + 1 on every fused ts row).
#[test]
fn committed_baseline_records_ts_bank_acceptance() {
    committed_gates_applied(&["ts_wr_speedup_k64", "ts_wor_speedup_k64", "fused_ts_draws"]);
}
