//! Plain reservoir sampling over the *entire* stream — no window, no
//! expiry. Skip-based (Li's Algorithm L \[53\]) by default, with Vitter's
//! per-element Algorithm R (1985) available as the reference path.
//!
//! This is the insertion-only method the paper's Question 1.2 measures
//! against ("is sampling from sliding windows algorithmically harder than
//! sampling from the entire stream?"); the throughput benchmark (E7) uses it
//! as the per-element cost floor — which is why it runs the skip-based
//! variant: baseline-vs-paper comparisons should pit *optimized*
//! implementations against each other.

use rand::Rng;
use swsample_core::reservoir::ReservoirK;
use swsample_core::rngutil::query_rng;
use swsample_core::{MemoryWords, Sample, WindowSampler};

/// Whole-stream Algorithm L lives in core, next to the reservoirs it
/// wraps, so `SamplerSpec::build` can construct `--algo reservoir-l`;
/// re-exported here beside its Algorithm R counterpart.
pub use swsample_core::reservoir::StreamReservoir;

/// Algorithm R counterpart of [`StreamReservoir`]: identical
/// distribution, one RNG draw per element. Kept as the ablation baseline
/// (`reservoir_ablation` bench / `bench_throughput`'s naive rows).
#[derive(Debug, Clone)]
pub struct NaiveStreamReservoir<T, R> {
    inner: ReservoirK<T>,
    rng: R,
    next_index: u64,
}

impl<T: Clone, R: Rng> NaiveStreamReservoir<T, R> {
    /// Reservoir of capacity `k ≥ 1`.
    pub fn new(k: usize, rng: R) -> Self {
        Self {
            inner: ReservoirK::new(k),
            rng,
            next_index: 0,
        }
    }
}

impl<T, R> MemoryWords for NaiveStreamReservoir<T, R> {
    fn memory_words(&self) -> usize {
        self.inner.memory_words() + 1
    }
}

impl<T: Clone, R: Rng + Clone> WindowSampler<T> for NaiveStreamReservoir<T, R> {
    fn insert(&mut self, value: T) {
        let idx = self.next_index;
        self.next_index += 1;
        self.inner.insert(&mut self.rng, value, idx, idx);
    }

    fn sample(&self) -> Option<Sample<T>> {
        let entries = self.inner.entries();
        if entries.is_empty() {
            return None;
        }
        let j = query_rng(&self.rng, self.next_index, 0).gen_range(0..entries.len());
        Some(entries[j].clone())
    }

    fn sample_k(&self) -> Option<Vec<Sample<T>>> {
        if self.inner.entries().is_empty() {
            None
        } else {
            Some(self.inner.entries().to_vec())
        }
    }

    fn k(&self) -> usize {
        self.inner.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use swsample_stats::chi_square_uniform_test;

    #[test]
    fn holds_k_samples_from_whole_stream() {
        let mut s = StreamReservoir::new(5, SmallRng::seed_from_u64(0));
        for i in 0..1000u64 {
            s.insert(i);
        }
        let out = s.sample_k().expect("nonempty");
        assert_eq!(out.len(), 5);
        // Samples may be arbitrarily old — that is the point of contrast
        // with windowed samplers.
        assert!(out.iter().all(|x| x.index() < 1000));
    }

    #[test]
    fn memory_constant() {
        let mut s = StreamReservoir::new(3, SmallRng::seed_from_u64(1));
        for i in 0..10_000u64 {
            s.insert(i);
        }
        // Algorithm L carries 2 extra scalar state words vs Algorithm R.
        assert!(s.memory_words() <= 3 * 3 + 5);
        let mut r = NaiveStreamReservoir::new(3, SmallRng::seed_from_u64(1));
        for i in 0..10_000u64 {
            r.insert(i);
        }
        assert!(r.memory_words() <= 3 * 3 + 3);
    }

    #[test]
    fn empty_returns_none() {
        let s: StreamReservoir<u64, _> = StreamReservoir::new(2, SmallRng::seed_from_u64(2));
        assert!(s.sample().is_none());
        let r: NaiveStreamReservoir<u64, _> =
            NaiveStreamReservoir::new(2, SmallRng::seed_from_u64(2));
        assert!(r.sample().is_none());
    }

    #[test]
    fn batched_ingest_uniform_marginals() {
        // Chunked ingestion through the skip path keeps k/N inclusion.
        let (n, k, trials) = (24u64, 3usize, 30_000u64);
        let mut counts = vec![0u64; n as usize];
        for t in 0..trials {
            let mut s = StreamReservoir::new(k, SmallRng::seed_from_u64(40_000 + t));
            let values: Vec<u64> = (0..n).collect();
            for chunk in values.chunks(5) {
                s.insert_batch(chunk);
            }
            for e in s.sample_k().expect("nonempty") {
                counts[e.index() as usize] += 1;
            }
        }
        let out = chi_square_uniform_test(&counts);
        assert!(
            out.p_value > 1e-4,
            "batched stream reservoir not uniform: p = {}",
            out.p_value
        );
    }
}
