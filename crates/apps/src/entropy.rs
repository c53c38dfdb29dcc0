//! Empirical entropy over sliding windows (Corollary 5.4).
//!
//! The Chakrabarti–Cormode–McGregor estimator: pick a uniform position `j`,
//! let `r` be the occurrence count of value `a_j` in the suffix from `j`;
//! then
//!
//! ```text
//! X = r·log₂(N/r) − (r−1)·log₂(N/(r−1))        (X = log₂ N when r = 1)
//! ```
//!
//! satisfies `E[X] = H = Σ (xᵢ/N) log₂(N/xᵢ)` — the telescoping trick of
//! the AMS family applied to `f(x) = x log₂(N/x)`. Windowed via the same
//! Theorem 5.1 transfer as [`crate::moments`]: uniform positions from
//! [`SeqSamplerWr`], suffix counts from [`OccurrenceTracker`].

use crate::moments::median_of_means;
use rand::Rng;
use swsample_core::seq::SeqSamplerWr;
use swsample_core::track::OccurrenceTracker;
use swsample_core::MemoryWords;

/// CCM entropy estimator over the last `n` arrivals.
///
/// ```
/// use swsample_apps::EntropyEstimator;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// // Round-robin over 16 symbols in a 16-wide window: H = 4 bits.
/// let mut est = EntropyEstimator::new(16, 32, 3, SmallRng::seed_from_u64(2));
/// for i in 0..480u64 {
///     est.insert(i % 16);
/// }
/// let h = est.estimate().unwrap();
/// assert!((h - 4.0).abs() < 1.0, "H = {h}");
/// ```
#[derive(Debug, Clone)]
pub struct EntropyEstimator<R> {
    s1: usize,
    s2: usize,
    sampler: SeqSamplerWr<u64, R, OccurrenceTracker>,
}

impl<R: Rng> EntropyEstimator<R> {
    /// Estimator over windows of `n` arrivals with `s1`-way averaging and
    /// `s2`-way medians (total `s1·s2` window samples).
    pub fn new(n: u64, s1: usize, s2: usize, rng: R) -> Self {
        assert!(s1 >= 1 && s2 >= 1, "EntropyEstimator: need s1, s2 >= 1");
        Self {
            s1,
            s2,
            sampler: SeqSamplerWr::with_tracker(n, s1 * s2, rng, OccurrenceTracker),
        }
    }

    /// Feed the next arrival.
    pub fn insert(&mut self, value: u64) {
        self.sampler.push(value);
    }

    /// Current entropy estimate (bits); `None` before any arrival.
    pub fn estimate(&self) -> Option<f64> {
        let n = self.sampler.active_len() as f64;
        if n == 0.0 {
            return None;
        }
        let picks = self.sampler.sample_k_with_stats()?;
        let basics: Vec<f64> = picks
            .iter()
            .map(|(_, (_, r))| {
                let r = *r as f64;
                debug_assert!(r >= 1.0 && r <= n);
                let hi = r * (n / r).log2();
                let lo = if r > 1.0 {
                    (r - 1.0) * (n / (r - 1.0)).log2()
                } else {
                    0.0
                };
                hi - lo
            })
            .collect();
        Some(median_of_means(&basics, self.s1, self.s2))
    }

    /// Number of active elements.
    pub fn active_len(&self) -> u64 {
        self.sampler.active_len()
    }
}

impl<R> MemoryWords for EntropyEstimator<R> {
    fn memory_words(&self) -> usize {
        self.sampler.memory_words() + self.s1 * self.s2 * 2 + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactWindow;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use swsample_stats::OnlineMoments;

    #[test]
    fn constant_stream_has_zero_entropy() {
        let mut est = EntropyEstimator::new(32, 8, 3, SmallRng::seed_from_u64(1));
        for _ in 0..200 {
            est.insert(5);
        }
        // r = n − j + ...: every basic estimator is r log(n/r) − (r−1)log(n/(r−1));
        // for the constant stream the *average* over uniform positions is
        // H = 0... individual basics are noisy but telescoping makes the
        // sum over all positions exactly 0 = n·H. Accept small error.
        let h = est.estimate().expect("nonempty");
        assert!(h.abs() < 0.35, "entropy of constant stream: {h}");
    }

    #[test]
    fn unbiased_against_exact_entropy() {
        let n = 32u64;
        let stream: Vec<u64> = (0..300u64).map(|i| (i * 7) % 5).collect();
        let mut exact = ExactWindow::new(n as usize);
        for &v in &stream {
            exact.insert(v);
        }
        let truth = exact.entropy();
        let mut acc = OnlineMoments::new();
        for seed in 0..300 {
            let mut est = EntropyEstimator::new(n, 4, 1, SmallRng::seed_from_u64(seed));
            for &v in &stream {
                est.insert(v);
            }
            acc.push(est.estimate().expect("nonempty"));
        }
        let rel = (acc.mean() - truth).abs() / truth.max(1e-9);
        assert!(rel < 0.1, "mean {} vs exact {truth}", acc.mean());
    }

    #[test]
    fn uniform_window_entropy_close_to_log_n() {
        // Round-robin over 16 values in a 16-wide window: H = 4 bits.
        let mut est = EntropyEstimator::new(16, 16, 5, SmallRng::seed_from_u64(2));
        for i in 0..320u64 {
            est.insert(i % 16);
        }
        let h = est.estimate().expect("nonempty");
        assert!((h - 4.0).abs() < 1.0, "estimate {h} vs 4.0");
    }

    #[test]
    fn empty_returns_none() {
        let est = EntropyEstimator::new(8, 1, 1, SmallRng::seed_from_u64(3));
        assert!(est.estimate().is_none());
    }
}
