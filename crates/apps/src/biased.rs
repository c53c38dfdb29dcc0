//! Step-biased sampling over nested windows (§5, final paragraph).
//!
//! Biased sampling (Aggarwal, VLDB'06) gives more recent elements higher
//! inclusion probability. The paper observes that *step* bias functions
//! follow directly from its machinery: "maintaining samples over each
//! window with different lengths and combining the samples with
//! corresponding probabilities". [`StepBiasedSampler`] does exactly that —
//! one [`SeqSamplerWr`] per step, mixture-sampled by the step weights. The
//! resulting inclusion probability of an element of age `a` is the
//! decreasing step function
//!
//! ```text
//! P(sampled element has age a) · n_eff = Σ_{i : nᵢ > a} wᵢ / nᵢ
//! ```
//!
//! which [`StepBiasedSampler::step_probability`] exposes so tests can check
//! the realized distribution against the specification.

use rand::Rng;
use swsample_core::seq::SeqSamplerWr;
use swsample_core::{MemoryWords, Sample, WindowSampler};

/// A step of the bias function: window length and mixture weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BiasStep {
    /// Window length `nᵢ` (elements of age `< nᵢ` are covered).
    pub window: u64,
    /// Non-negative mixture weight `wᵢ`.
    pub weight: f64,
}

/// Step-biased sampler: a weighted mixture of uniform window samplers of
/// different lengths.
#[derive(Debug, Clone)]
pub struct StepBiasedSampler<T, R> {
    steps: Vec<BiasStep>,
    samplers: Vec<SeqSamplerWr<T, R>>,
    total_weight: f64,
}

impl<T: Clone, R: Rng + Clone + 'static> StepBiasedSampler<T, R> {
    /// Build from strictly increasing window lengths with positive weights.
    /// Each internal sampler gets a clone of `rng` reseeded by `Rng::gen`,
    /// so the mixtures are independent.
    pub fn new(steps: &[BiasStep], mut rng: R) -> Self
    where
        R: rand::SeedableRng,
    {
        assert!(!steps.is_empty(), "StepBiasedSampler: no steps");
        let mut total = 0.0;
        for w in steps.windows(2) {
            assert!(
                w[0].window < w[1].window,
                "StepBiasedSampler: windows must increase"
            );
        }
        for s in steps {
            assert!(
                s.weight > 0.0 && s.window >= 1,
                "StepBiasedSampler: bad step {s:?}"
            );
            total += s.weight;
        }
        let samplers = steps
            .iter()
            .map(|s| SeqSamplerWr::new(s.window, 1, R::seed_from_u64(rng.gen())))
            .collect();
        Self {
            steps: steps.to_vec(),
            samplers,
            total_weight: total,
        }
    }

    /// Feed the next arrival into every step sampler.
    pub fn insert(&mut self, value: T) {
        for s in &mut self.samplers {
            s.push(value.clone());
        }
    }

    /// Draw one biased sample: choose a step by weight, then sample its
    /// window uniformly.
    pub fn sample<G: Rng>(&self, rng: &mut G) -> Option<Sample<T>> {
        let mut pick = rng.gen_range(0.0..self.total_weight);
        for (i, step) in self.steps.iter().enumerate() {
            if pick < step.weight {
                return self.samplers[i].sample();
            }
            pick -= step.weight;
        }
        // Float round-off: fall back to the last step.
        self.samplers.last().expect("nonempty").sample()
    }

    /// The specified sampling probability for an element of age `a`
    /// (0 = newest), given all step windows are full:
    /// `Σ_{i: nᵢ > a} (wᵢ / W) / nᵢ`.
    pub fn step_probability(&self, age: u64) -> f64 {
        self.steps
            .iter()
            .filter(|s| s.window > age)
            .map(|s| (s.weight / self.total_weight) / s.window as f64)
            .sum()
    }

    /// The step specification.
    pub fn steps(&self) -> &[BiasStep] {
        &self.steps
    }
}

impl<T, R> MemoryWords for StepBiasedSampler<T, R> {
    fn memory_words(&self) -> usize {
        self.samplers
            .iter()
            .map(MemoryWords::memory_words)
            .sum::<usize>()
            + self.steps.len() * 2
            + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use swsample_stats::chi_square_test;

    fn two_step() -> Vec<BiasStep> {
        vec![
            BiasStep {
                window: 4,
                weight: 1.0,
            },
            BiasStep {
                window: 16,
                weight: 1.0,
            },
        ]
    }

    #[test]
    fn step_probability_is_decreasing_step_function() {
        let s: StepBiasedSampler<u64, SmallRng> =
            StepBiasedSampler::new(&two_step(), SmallRng::seed_from_u64(0));
        // Ages 0..3 covered by both windows: 0.5/4 + 0.5/16.
        let recent = 0.5 / 4.0 + 0.5 / 16.0;
        let old = 0.5 / 16.0;
        assert!((s.step_probability(0) - recent).abs() < 1e-12);
        assert!((s.step_probability(3) - recent).abs() < 1e-12);
        assert!((s.step_probability(4) - old).abs() < 1e-12);
        assert!((s.step_probability(15) - old).abs() < 1e-12);
        assert_eq!(s.step_probability(16), 0.0);
        // Total mass over ages is 1.
        let total: f64 = (0..16).map(|a| s.step_probability(a)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn realized_distribution_matches_specification() {
        let trials = 40_000u64;
        let mut counts = vec![0u64; 16];
        for t in 0..trials {
            let mut s: StepBiasedSampler<u64, SmallRng> =
                StepBiasedSampler::new(&two_step(), SmallRng::seed_from_u64(1_000 + t));
            for i in 0..64u64 {
                s.insert(i);
            }
            let mut rng = SmallRng::seed_from_u64(5_000_000 + t);
            let got = s.sample(&mut rng).expect("nonempty");
            let age = 63 - got.index();
            counts[age as usize] += 1;
        }
        let spec: StepBiasedSampler<u64, SmallRng> =
            StepBiasedSampler::new(&two_step(), SmallRng::seed_from_u64(0));
        let probs: Vec<f64> = (0..16).map(|a| spec.step_probability(a)).collect();
        let out = chi_square_test(&counts, &probs);
        assert!(
            out.p_value > 1e-4,
            "biased sampling off-spec: p = {}",
            out.p_value
        );
    }

    #[test]
    fn memory_is_sum_of_steps() {
        let mut s: StepBiasedSampler<u64, SmallRng> =
            StepBiasedSampler::new(&two_step(), SmallRng::seed_from_u64(2));
        for i in 0..100u64 {
            s.insert(i);
        }
        // Two k=1 samplers: bounded by 2 · (2·3 + 1 + 3) + steps bookkeeping.
        assert!(s.memory_words() <= 2 * 10 + 5);
    }

    #[test]
    #[should_panic]
    fn rejects_nonincreasing_windows() {
        let steps = vec![
            BiasStep {
                window: 8,
                weight: 1.0,
            },
            BiasStep {
                window: 8,
                weight: 1.0,
            },
        ];
        let _: StepBiasedSampler<u64, SmallRng> =
            StepBiasedSampler::new(&steps, SmallRng::seed_from_u64(3));
    }
}
