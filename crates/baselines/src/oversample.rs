//! The over-sampling strategy for sampling without replacement — the method
//! the paper's introduction criticizes.
//!
//! To produce a `k`-sample without replacement, maintain `k' > k`
//! independent with-replacement samplers (here: chain samplers) and hope
//! that at query time their outputs contain at least `k` *distinct*
//! elements. Both disadvantages from the paper's abstract are visible:
//!
//! (a) extra cost — `k'/k` times the work and memory of the optimal method;
//! (b) non-deterministic guarantees — with positive probability fewer than
//!     `k` distinct elements are available (a birthday collision), and that
//!     probability never reaches 0 for any finite `k'`.
//!
//! Experiment E8 sweeps the over-sampling factor and tabulates the measured
//! failure probability against the analytic occupancy model.

use crate::chain::ChainSampler;
use rand::Rng;
use swsample_core::{MemoryWords, Sample, WindowSampler};

/// Over-sampling without-replacement sampler for sequence-based windows:
/// `k'` independent chain samplers, queried for `k` distinct elements.
#[derive(Debug, Clone)]
pub struct OverSampler<T, R> {
    k: usize,
    inner: ChainSampler<T, R>,
}

impl<T: Clone, R: Rng + 'static> OverSampler<T, R> {
    /// Maintain `k_prime ≥ k` with-replacement samples over the last `n`
    /// arrivals, targeting `k` distinct ones.
    pub fn new(n: u64, k: usize, k_prime: usize, rng: R) -> Self {
        assert!(k >= 1 && k_prime >= k, "OverSampler: need k' >= k >= 1");
        Self {
            k,
            inner: ChainSampler::new(n, k_prime, rng),
        }
    }

    /// The over-sampling factor `k'`.
    pub fn k_prime(&self) -> usize {
        self.inner.k()
    }

    /// Query attempt: `Ok` with `k` distinct samples, or `Err(d)` reporting
    /// how many distinct elements were actually available (`d < k` — the
    /// failure event the paper's disadvantage (b) is about).
    pub fn try_sample_k(&self) -> Result<Vec<Sample<T>>, usize> {
        let all = match self.inner.sample_k() {
            Some(v) => v,
            None => return Err(0),
        };
        let mut distinct: Vec<Sample<T>> = Vec::with_capacity(self.k);
        for s in all {
            if !distinct.iter().any(|d| d.index() == s.index()) {
                distinct.push(s);
            }
            if distinct.len() == self.k {
                return Ok(distinct);
            }
        }
        Err(distinct.len())
    }
}

impl<T, R> MemoryWords for OverSampler<T, R> {
    fn memory_words(&self) -> usize {
        self.inner.memory_words() + 1
    }
}

impl<T: Clone, R: Rng + 'static> WindowSampler<T> for OverSampler<T, R> {
    fn insert(&mut self, value: T) {
        self.inner.insert(value);
    }

    fn insert_batch(&mut self, values: &[T])
    where
        T: Clone,
    {
        // Inherit the chain sampler's skip-based batch path.
        self.inner.insert_batch(values);
    }

    fn sample(&self) -> Option<Sample<T>> {
        self.inner.sample()
    }

    /// `Some` only when `k` distinct elements were available — callers that
    /// need the failure signal use [`OverSampler::try_sample_k`].
    fn sample_k(&self) -> Option<Vec<Sample<T>>> {
        self.try_sample_k().ok()
    }

    fn k(&self) -> usize {
        self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn success_yields_k_distinct() {
        let mut s = OverSampler::new(64, 3, 12, SmallRng::seed_from_u64(1));
        for i in 0..500u64 {
            s.insert(i);
        }
        let out = s
            .try_sample_k()
            .expect("k'=12 over window 64 almost surely succeeds");
        assert_eq!(out.len(), 3);
        let mut idx: Vec<u64> = out.iter().map(|s| s.index()).collect();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn failure_happens_with_tight_oversampling() {
        // k' = k over a tiny window: collisions are frequent.
        let mut failures = 0;
        let trials = 400;
        for seed in 0..trials {
            let mut s = OverSampler::new(4, 3, 3, SmallRng::seed_from_u64(seed));
            for i in 0..40u64 {
                s.insert(i);
            }
            if s.try_sample_k().is_err() {
                failures += 1;
            }
        }
        assert!(
            failures > 0,
            "no failures over {trials} trials — implausible for k'=k"
        );
    }

    #[test]
    fn failure_rate_decreases_with_k_prime() {
        let rate = |k_prime: usize| {
            let trials = 300;
            let mut failures = 0;
            for seed in 0..trials {
                let mut s = OverSampler::new(8, 4, k_prime, SmallRng::seed_from_u64(7_000 + seed));
                for i in 0..80u64 {
                    s.insert(i);
                }
                if s.try_sample_k().is_err() {
                    failures += 1;
                }
            }
            failures as f64 / trials as f64
        };
        let tight = rate(4);
        let loose = rate(16);
        assert!(
            loose < tight,
            "oversampling did not help: tight={tight}, loose={loose}"
        );
    }

    #[test]
    fn memory_scales_with_k_prime_not_k() {
        let mut narrow = OverSampler::new(32, 2, 2, SmallRng::seed_from_u64(2));
        let mut wide = OverSampler::new(32, 2, 20, SmallRng::seed_from_u64(2));
        for i in 0..1000u64 {
            narrow.insert(i);
            wide.insert(i);
        }
        assert!(wide.memory_words() > narrow.memory_words());
    }
}
