//! Acceptance tests for the spec-driven erased layer. A
//! `Box<dyn ErasedWindowSampler>` is a concrete sampler behind the
//! `Send + Sync` marker over `WindowSampler`, with no wrapper between:
//!
//! 1. The spec flag grammar round-trips (`Display` ∘ `FromStr` = id),
//!    property-checked over the whole field space, and every valid spec
//!    builds.
//! 2. Sampling *through* `Box<dyn ErasedWindowSampler>` is the identical
//!    process: chi-square uniformity holds at the same seed thresholds as
//!    the concrete-type tests, and at equal seeds the counts match the
//!    concrete run exactly.
//! 3. `MultiStreamEngine` keys are mutually independent: the joint
//!    distribution of two keys' samples over identical per-key windows is
//!    uniform over the product space.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use swsample::core::seq::SeqSamplerWor;
use swsample::core::spec::{Algorithm, Replacement, SamplerSpec, WindowKind};
use swsample::core::{ErasedWindowSampler, WindowSampler};
use swsample::stats::chi_square_uniform_test;
use swsample::stream::MultiStreamEngine;

fn window_kind(tag: u8, size: u64) -> WindowKind {
    match tag % 3 {
        0 => WindowKind::Sequence(size),
        1 => WindowKind::Timestamp(size),
        _ => WindowKind::WholeStream,
    }
}

fn algorithm(tag: u8) -> Algorithm {
    match tag % 5 {
        0 => Algorithm::Paper,
        1 => Algorithm::ReservoirL,
        2 => Algorithm::Chain,
        3 => Algorithm::Priority,
        _ => Algorithm::WindowBuffer,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Display then parse is the identity on every spec — valid or not —
    /// so the spec grammar cannot drift from the flag surface.
    #[test]
    fn spec_flag_surface_round_trips(
        win_tag in 0u8..3,
        size in 1u64..1_000_000,
        wor in any::<bool>(),
        algo_tag in 0u8..5,
        k in 1usize..1024,
        seed in any::<u64>(),
    ) {
        let spec = SamplerSpec {
            window: window_kind(win_tag, size),
            replacement: if wor { Replacement::Without } else { Replacement::With },
            algorithm: algorithm(algo_tag),
            k,
            seed,
        };
        let rendered = spec.to_string();
        let back: SamplerSpec = rendered.parse().expect("canonical form parses");
        prop_assert_eq!(&back, &spec, "round-trip through `{}`", rendered);
        // And idempotently: re-rendering the parsed spec is stable.
        prop_assert_eq!(back.to_string(), rendered);
    }

    /// Every spec that validates also builds through the full factory,
    /// and the built sampler reports the spec's `k`.
    #[test]
    fn valid_specs_build_and_introspect(
        win_tag in 0u8..3,
        size in 1u64..10_000,
        wor in any::<bool>(),
        algo_tag in 0u8..5,
        k in 1usize..32,
        seed in any::<u64>(),
    ) {
        let spec = SamplerSpec {
            window: window_kind(win_tag, size),
            replacement: if wor { Replacement::Without } else { Replacement::With },
            algorithm: algorithm(algo_tag),
            k,
            seed,
        };
        if spec.validate().is_ok() {
            let mut s = swsample::baselines::spec::build::<u64>(&spec)
                .expect("valid specs build");
            prop_assert_eq!(s.k(), k);
            s.advance_and_insert(1, &[1, 2, 3]);
            prop_assert!(s.sample_k().is_some());
        }
    }
}

/// Chi-square uniformity through the erased interface, and exact
/// agreement with the concrete type at equal seeds: erasure is a view,
/// not a reimplementation.
#[test]
fn erased_seq_wor_uniform_and_identical_to_concrete() {
    let (n, k, stop) = (16u64, 4usize, 40u64);
    let trials = 30_000u64;
    let spec_template = SamplerSpec::seq(n, Replacement::Without, k, 0);
    let mut erased_counts = vec![0u64; n as usize];
    let mut concrete_counts = vec![0u64; n as usize];
    let values: Vec<u64> = (0..stop).collect();
    for t in 0..trials {
        let mut spec = spec_template.clone();
        spec.seed = 900_000 + t;
        let mut erased = spec.build::<u64>().expect("builds");
        let mut concrete = SeqSamplerWor::new(n, k, SmallRng::seed_from_u64(900_000 + t));
        for chunk in values.chunks(7) {
            erased.insert_batch(chunk);
            WindowSampler::insert_batch(&mut concrete, chunk);
        }
        for s in erased.sample_k().expect("nonempty") {
            erased_counts[(s.index() - (stop - n)) as usize] += 1;
        }
        for s in WindowSampler::sample_k(&concrete).expect("nonempty") {
            concrete_counts[(s.index() - (stop - n)) as usize] += 1;
        }
    }
    assert_eq!(
        erased_counts, concrete_counts,
        "erased and concrete runs must be the same process at equal seeds"
    );
    let out = chi_square_uniform_test(&erased_counts);
    assert!(
        out.p_value > 1e-4,
        "erased-sampler inclusion not uniform: p = {}",
        out.p_value
    );
}

/// Same check for the with-replacement sampler: each erased instance's
/// sample is uniform over the window.
#[test]
fn erased_seq_wr_uniform_through_box() {
    let (n, k, stop) = (16u64, 3usize, 37u64);
    let trials = 20_000u64;
    let mut counts = vec![0u64; n as usize];
    let values: Vec<u64> = (0..stop).collect();
    for t in 0..trials {
        let spec = SamplerSpec::seq(n, Replacement::With, k, 700_000 + t);
        let mut s = spec.build::<u64>().expect("builds");
        for chunk in values.chunks(9) {
            s.insert_batch(chunk);
        }
        for smp in s.sample_k().expect("nonempty") {
            counts[(smp.index() - (stop - n)) as usize] += 1;
        }
    }
    let out = chi_square_uniform_test(&counts);
    assert!(
        out.p_value > 1e-4,
        "erased WR sampler not uniform: p = {}",
        out.p_value
    );
}

/// Cross-key independence in the engine: two keys receive identical
/// 8-element windows; with k = 1 each key's sample position is uniform
/// over 8, and independence makes the joint (pos_a, pos_b) uniform over
/// the 64 cells. Correlated per-key RNG streams would concentrate the
/// diagonal and fail the chi-square.
#[test]
fn multi_stream_keys_are_independent() {
    let n = 8u64;
    let trials = 40_000u64;
    let mut joint = vec![0u64; (n * n) as usize];
    for t in 0..trials {
        let template = SamplerSpec::seq(n, Replacement::With, 1, t);
        let mut engine: MultiStreamEngine<u8, u64> =
            MultiStreamEngine::new(template).expect("engine");
        // Interleaved: both keys see values 0..8 in order, through the
        // grouped batched path.
        let batch: Vec<(u8, u64, u64)> = (0..n).flat_map(|i| [(1u8, 0, i), (2u8, 0, i)]).collect();
        engine.ingest(&batch);
        let a = engine.sample(&1).expect("key 1 nonempty").into_value();
        let b = engine.sample(&2).expect("key 2 nonempty").into_value();
        joint[(a * n + b) as usize] += 1;
    }
    let out = chi_square_uniform_test(&joint);
    assert!(
        out.p_value > 1e-4,
        "cross-key samples not independent/uniform: p = {}",
        out.p_value
    );
    // The scalar view of the same property: sample correlation ≈ 0.
    let total = trials as f64;
    let mean = (n as f64 - 1.0) / 2.0;
    let (mut cov, mut var_a, mut var_b) = (0.0f64, 0.0f64, 0.0f64);
    for a in 0..n {
        for b in 0..n {
            let p = joint[(a * n + b) as usize] as f64 / total;
            let (da, db) = (a as f64 - mean, b as f64 - mean);
            cov += p * da * db;
            var_a += p * da * da;
            var_b += p * db * db;
        }
    }
    let corr = cov / (var_a.sqrt() * var_b.sqrt());
    assert!(
        corr.abs() < 0.05,
        "cross-key sample correlation {corr} too far from 0"
    );
}

/// A fleet mixing algorithm families through the one erased interface —
/// the heterogeneity the redesign exists to allow.
#[test]
fn heterogeneous_fleet_answers_uniformly() {
    let specs = [
        "--window seq --n 50 --mode wr --algo paper --k 2 --seed 1",
        "--window seq --n 50 --mode wor --algo paper --k 2 --seed 2",
        "--window ts --w 10 --mode wor --algo paper --k 2 --seed 3",
        "--window seq --n 50 --mode wr --algo chain --k 2 --seed 4",
        "--window ts --w 10 --mode wor --algo priority --k 2 --seed 5",
        "--window seq --n 50 --mode wor --algo window-buffer --k 2 --seed 6",
        "--window stream --mode wor --algo reservoir-l --k 2 --seed 7",
    ];
    let mut fleet: Vec<Box<dyn ErasedWindowSampler<u64>>> = specs
        .iter()
        .map(|s| {
            swsample::baselines::spec::build(&s.parse::<SamplerSpec>().expect("parses"))
                .expect("builds")
        })
        .collect();
    for tick in 1..=100u64 {
        let values = [tick * 3, tick * 3 + 1, tick * 3 + 2];
        for s in &mut fleet {
            s.advance_and_insert(tick, &values);
        }
    }
    for (i, s) in fleet.iter_mut().enumerate() {
        let out = s
            .sample_k()
            .unwrap_or_else(|| panic!("{}: empty", specs[i]));
        assert!(!out.is_empty() && out.len() <= 2, "{}", specs[i]);
        assert!(s.memory_words() > 0);
    }
}
