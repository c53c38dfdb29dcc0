//! The full [`SamplerSpec`] factory: every algorithm in the workspace.
//!
//! `swsample_core::spec::SamplerSpec::build` can only construct the
//! samplers its crate owns (the paper's four, plus whole-stream
//! Algorithm L). This module completes the map with the baseline
//! algorithms this crate implements — chain, priority (both variants),
//! and exact window buffering — and delegates everything else to core,
//! so [`build`] accepts **any** valid spec. Its address,
//! `swsample_baselines::spec::build`, is a
//! [`SamplerFactory`](swsample_core::spec::SamplerFactory) and is what
//! fleet holders (the multi-stream engine, the CLI) should be handed
//! when baseline algorithms must be constructible.

use crate::chain::ChainSampler;
use crate::priority::PrioritySampler;
use crate::priority_topk::PriorityTopK;
use crate::window_buffer::WindowBuffer;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use swsample_core::spec::{Algorithm, Replacement, SamplerSpec, SpecError, WindowKind};
use swsample_core::ErasedWindowSampler;
use swsample_stream::WindowSpec;

/// Build any valid spec, baseline algorithms included.
///
/// The constructed sampler's RNG is a `SmallRng` seeded from
/// `spec.seed`, exactly as in `SamplerSpec::build`, and the concrete
/// sampler is boxed as-is, with no wrapper layer. `T: Send + Sync`
/// mirrors `SamplerSpec::build` — erased samplers are `Send + Sync` so
/// fleets can shard them across worker threads.
pub fn build<T: Clone + Send + Sync + 'static>(
    spec: &SamplerSpec,
) -> Result<Box<dyn ErasedWindowSampler<T>>, SpecError> {
    spec.validate()?;
    let rng = SmallRng::seed_from_u64(spec.seed);
    let k = spec.k;
    match (spec.algorithm, spec.window, spec.replacement) {
        (Algorithm::Chain, WindowKind::Sequence(n), _) => {
            Ok(Box::new(ChainSampler::new(n, k, rng)))
        }
        (Algorithm::Priority, WindowKind::Timestamp(w), Replacement::With) => {
            Ok(Box::new(PrioritySampler::new(w, k, rng)))
        }
        (Algorithm::Priority, WindowKind::Timestamp(w), Replacement::Without) => {
            Ok(Box::new(PriorityTopK::new(w, k, rng)))
        }
        (Algorithm::WindowBuffer, WindowKind::Sequence(n), _) => {
            Ok(Box::new(WindowBuffer::new(WindowSpec::Sequence(n), k, rng)))
        }
        (Algorithm::WindowBuffer, WindowKind::Timestamp(w), _) => Ok(Box::new(WindowBuffer::new(
            WindowSpec::Timestamp(w),
            k,
            rng,
        ))),
        // Paper samplers and the whole-stream reservoir live in core.
        _ => spec.build(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(s: &str) -> SamplerSpec {
        s.parse().expect("spec parses")
    }

    #[test]
    fn builds_every_algorithm_family() {
        for s in [
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
            let sp = spec(s);
            let mut sampler = build::<u64>(&sp).unwrap_or_else(|e| panic!("`{s}`: {e}"));
            for tick in 1..=40u64 {
                sampler.advance_and_insert(tick, &[tick, tick + 1]);
            }
            let out = sampler.sample_k().expect("nonempty window");
            assert!(!out.is_empty() && out.len() <= 3);
            assert!(sampler.memory_words() > 0);
        }
    }

    #[test]
    fn invalid_specs_still_rejected() {
        assert!(build::<u64>(&spec("--window ts --w 9 --algo chain")).is_err());
        assert!(build::<u64>(&spec("--window seq --n 9 --algo priority")).is_err());
        assert!(build::<u64>(&spec("--window seq --n 9 --mode wr --algo window-buffer")).is_err());
    }

    #[test]
    fn chain_via_spec_matches_concrete() {
        let sp = spec("--window seq --n 64 --mode wr --algo chain --k 2 --seed 9");
        let mut erased = build::<u64>(&sp).expect("builds");
        let mut concrete = ChainSampler::new(64, 2, SmallRng::seed_from_u64(9));
        let values: Vec<u64> = (0..400).collect();
        for chunk in values.chunks(32) {
            erased.insert_batch(chunk);
            swsample_core::WindowSampler::insert_batch(&mut concrete, chunk);
        }
        assert_eq!(
            erased.sample_k(),
            swsample_core::WindowSampler::sample_k(&concrete)
        );
    }
}
