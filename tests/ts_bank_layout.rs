//! Storage-layout pins for the fused timestamp bank (`TsEngineBank`).
//!
//! How the bank stores its per-lane bucket samples is an implementation
//! detail: samples, query draws and checkpoint records must not depend on
//! it. These tests pin all three against golden digests, and check that a
//! checkpoint taken at any bucket width continues bit-identically after a
//! restore.

use rand::rngs::SmallRng;
use std::collections::BTreeSet;

use rand::{Rng, SeedableRng};
use swsample::core::ts::{TsSamplerWor, TsSamplerWr};
use swsample::core::{MemoryWords, Sample, WindowSampler};
use swsample::stream::MultiStreamEngine;

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

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

/// FNV-1a over raw bytes, continuing from `h`.
fn fnv1a_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fold a `sample_k` answer (`None` included) into the digest.
fn fold_samples(h: u64, samples: Option<Vec<Sample<u64>>>) -> u64 {
    let samples = samples.unwrap_or_default();
    let h = fnv1a(h, [samples.len() as u64]);
    fnv1a(
        h,
        samples
            .iter()
            .flat_map(|s| [s.index(), s.timestamp(), *s.value()]),
    )
}

/// A bursty keyed stream: 24 keys with a skewed key choice (key 0 takes
/// about a third of the events, so its buckets grow wide), bursts of
/// 0–11 events per tick and occasional idle gaps that expire whole windows.
fn bursty_events() -> Vec<(u64, u64, u64)> {
    let mut rng = SmallRng::seed_from_u64(17);
    let mut events = Vec::new();
    let mut now = 0u64;
    for _ in 0..900 {
        now += if rng.gen_range(0..40) == 0 {
            rng.gen_range(20u64..90)
        } else {
            rng.gen_range(0u64..3)
        };
        for _ in 0..rng.gen_range(0..12u64) {
            let key = if rng.gen_bool(0.35) {
                0
            } else {
                rng.gen_range(0..24)
            };
            events.push((key, now, rng.gen::<u64>() >> 8));
        }
    }
    events
}

/// Digests of every key's `sample_k` and of the fleet's `save_states`
/// records, taken at four checkpoints of the bursty stream.
fn fleet_digests(template: &str) -> (u64, u64) {
    let mut engine: MultiStreamEngine<u64, u64> =
        MultiStreamEngine::new(template.parse().expect("template parses")).expect("engine");
    let events = bursty_events();
    let (mut samples, mut states) = (OFFSET, OFFSET);
    for chunk in events.chunks(events.len() / 4 + 1) {
        engine.ingest(chunk);
        let mut saved = engine.save_states().expect("ts templates save");
        saved.sort_unstable_by_key(|(key, _)| *key);
        states = fnv1a(states, [saved.len() as u64]);
        for (key, state) in &saved {
            states = fnv1a_bytes(fnv1a(states, [*key]), &state.encode_record());
        }
        let mut keys = engine.keys();
        keys.sort_unstable();
        samples = fnv1a(samples, [keys.len() as u64]);
        for key in &keys {
            samples = fold_samples(fnv1a(samples, [*key]), engine.sample_k(key));
        }
    }
    (samples, states)
}

/// Golden digests of ts-WR and ts-WOR fleets at k ∈ {1, 5, 16, 70}
/// (k = 70 needs two coin-mask words per merge), computed before the
/// bank stored its lane samples indexed. Any change in which element a
/// lane holds, in the order merges draw coins, in query-time draws or in
/// the checkpoint records moves them.
#[test]
fn ts_fleet_golden_digests() {
    let golden: [(&str, usize, u64, u64); 8] = [
        ("wr", 1, 0x3ca9_c163_b1b9_81d1, 0x9ca7_c605_f100_8a47),
        ("wr", 5, 0x6fdd_0200_6223_7667, 0xfcf1_baea_4e3a_bd66),
        ("wr", 16, 0x7a8a_ddf9_b30c_f624, 0x8707_563c_34a8_210d),
        ("wr", 70, 0x0fe6_50a2_83e2_7d3c, 0xf3bc_e9bd_3e01_db86),
        ("wor", 1, 0x3ca9_c163_b1b9_81d1, 0xa3bd_be1d_7041_5d9b),
        ("wor", 5, 0x21a2_deeb_3280_ef7f, 0x418a_88a2_9b6f_448f),
        ("wor", 16, 0x3348_de1d_c32d_c232, 0xb1af_3b3c_8f04_7aeb),
        ("wor", 70, 0xde5b_06df_2621_6bcc, 0xbc35_eef6_40e3_9328),
    ];
    for (mode, k, samples, states) in golden {
        let template = format!("--window ts --w 40 --mode {mode} --k {k} --seed 23");
        let (s, r) = fleet_digests(&template);
        assert_eq!(s, samples, "{template}: sample digest moved");
        assert_eq!(r, states, "{template}: state-record digest moved");
    }
}

/// Drive `sampler` over a bursty stream and checkpoint it every 5 ticks:
/// each checkpoint restores onto `fresh()`, which must re-save the same
/// record, hold the same words, and then answer and checkpoint exactly
/// as the original does for the next 5 ticks. Returns the bucket widths
/// live at the checkpoints.
fn round_trip<S: WindowSampler<u64> + MemoryWords>(
    mut sampler: S,
    fresh: impl Fn() -> S,
    widths: impl Fn(&S) -> Vec<u64>,
) -> BTreeSet<u64> {
    let mut sched = SmallRng::seed_from_u64(41);
    let mut seen = BTreeSet::new();
    let mut restored: Option<S> = None;
    let mut value = 0u64;
    for tick in 0..400u64 {
        if tick % 5 == 0 {
            let state = sampler.save_state().expect("fused banks checkpoint");
            let mut copy = fresh();
            copy.restore_state(state.clone())
                .unwrap_or_else(|e| panic!("tick {tick}: restore failed: {e}"));
            assert_eq!(copy.save_state(), Some(state), "tick {tick}: re-save");
            assert_eq!(
                copy.memory_words(),
                sampler.memory_words(),
                "tick {tick}: restored layout"
            );
            seen.extend(widths(&sampler));
            restored = Some(copy);
        }
        let copy = restored.as_mut().expect("restored at tick 0");
        let burst = sched.gen_range(0..12u64);
        let values: Vec<u64> = (value..value + burst).collect();
        value += burst;
        sampler.advance_and_insert(tick, &values);
        copy.advance_and_insert(tick, &values);
        assert_eq!(copy.sample_k(), sampler.sample_k(), "tick {tick}: sample_k");
        assert_eq!(
            copy.save_state(),
            sampler.save_state(),
            "tick {tick}: state"
        );
    }
    seen
}

/// Save → restore → continue, with buckets of every width from 1 to 64
/// live at the checkpoints, on both fused samplers at lane counts around
/// each layout edge: `k = 1` (no pair records), `2..=64` (pair records at
/// width 2), above 64 (two coin-mask words per merge).
#[test]
fn save_restore_continue_at_every_bucket_width() {
    let every_width: BTreeSet<u64> = (0..7).map(|j| 1u64 << j).collect();
    for k in [1usize, 2, 5, 16, 64, 65, 70] {
        let wr = |seed| TsSamplerWr::new(30, k, SmallRng::seed_from_u64(seed));
        let seen = round_trip(wr(k as u64), || wr(999), |s| bucket_widths(&s.boundaries()));
        assert!(seen.is_superset(&every_width), "wr k={k}: widths {seen:?}");
        let wor = |seed| TsSamplerWor::new(30, k, SmallRng::seed_from_u64(seed));
        let seen = round_trip(
            wor(k as u64),
            || wor(999),
            |s| bucket_widths(&s.boundaries()),
        );
        assert!(seen.is_superset(&every_width), "wor k={k}: widths {seen:?}");
    }
}

fn bucket_widths(boundaries: &[(u64, u64, u64)]) -> Vec<u64> {
    boundaries.iter().map(|&(a, b, _)| b - a).collect()
}

/// Save → restore → continue at `k = 16` in a 1000-tick window, so the
/// buckets grow hundreds wide: their 32 slots then often hold 31
/// distinct elements, stored in slot order with one element twice, and
/// merges of such buckets must store that element once, as a restore
/// does.
#[test]
fn save_restore_continue_with_wide_buckets() {
    for seed in 1..=3u64 {
        let wr = |seed| TsSamplerWr::new(1000, 16, SmallRng::seed_from_u64(seed));
        let seen = round_trip(wr(seed), || wr(999), |s| bucket_widths(&s.boundaries()));
        assert!(seen.contains(&512), "wr seed {seed}: widths {seen:?}");
        let wor = |seed| TsSamplerWor::new(1000, 16, SmallRng::seed_from_u64(seed));
        let seen = round_trip(wor(seed), || wor(999), |s| bucket_widths(&s.boundaries()));
        assert!(seen.contains(&512), "wor seed {seed}: widths {seen:?}");
    }
}
