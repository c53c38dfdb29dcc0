//! Frequency moments over sliding windows (Corollary 5.2).
//!
//! The Alon–Matias–Szegedy estimator for `F_k = Σᵢ xᵢᵏ`: pick a uniform
//! stream position `j`, let `r` be the number of occurrences of the value
//! `a_j` from position `j` onwards; then `N·(rᵏ − (r−1)ᵏ)` is an unbiased
//! estimate of `F_k`. Variance is tamed the standard way: average `s₁`
//! independent basic estimators, take the median of `s₂` such averages.
//!
//! The windowed version is exactly the Theorem 5.1 transfer: the uniform
//! position comes from [`SeqSamplerWr`], and the suffix count `r` rides
//! along via [`OccurrenceTracker`] — counting only arrivals *after* the
//! sampled position, all of which are inside the window because the window
//! is a stream suffix.

use rand::Rng;
use swsample_core::seq::SeqSamplerWr;
use swsample_core::track::OccurrenceTracker;
use swsample_core::MemoryWords;

/// AMS estimator for the `k`-th frequency moment over the last `n` arrivals.
///
/// ```
/// use swsample_apps::MomentEstimator;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// // F1 = window size, exactly, for any stream.
/// let mut est = MomentEstimator::new(64, 1, 4, 1, SmallRng::seed_from_u64(1));
/// for i in 0..500u64 {
///     est.insert(i % 10);
/// }
/// assert_eq!(est.estimate().unwrap(), 64.0);
/// ```
#[derive(Debug, Clone)]
pub struct MomentEstimator<R> {
    moment: u32,
    s1: usize,
    s2: usize,
    sampler: SeqSamplerWr<u64, R, OccurrenceTracker>,
}

impl<R: Rng> MomentEstimator<R> {
    /// Estimator for `F_moment` (`moment ≥ 1`) over windows of `n` arrivals,
    /// averaging `s1 ≥ 1` basic estimators per group and taking the median
    /// of `s2 ≥ 1` groups (total `s1·s2` window samples).
    pub fn new(n: u64, moment: u32, s1: usize, s2: usize, rng: R) -> Self {
        assert!(moment >= 1, "MomentEstimator: moment must be >= 1");
        assert!(s1 >= 1 && s2 >= 1, "MomentEstimator: need s1, s2 >= 1");
        Self {
            moment,
            s1,
            s2,
            sampler: SeqSamplerWr::with_tracker(n, s1 * s2, rng, OccurrenceTracker),
        }
    }

    /// Feed the next arrival.
    pub fn insert(&mut self, value: u64) {
        self.sampler.push(value);
    }

    /// Current estimate of `F_k` over the active window; `None` before any
    /// arrival.
    pub fn estimate(&self) -> Option<f64> {
        let n = self.sampler.active_len();
        if n == 0 {
            return None;
        }
        let picks = self.sampler.sample_k_with_stats()?;
        let k = self.moment as i32;
        let basics: Vec<f64> = picks
            .iter()
            .map(|(_, (_, r))| {
                let r = *r as f64;
                n as f64 * (r.powi(k) - (r - 1.0).powi(k))
            })
            .collect();
        Some(median_of_means(&basics, self.s1, self.s2))
    }

    /// Exponent `k` of the estimated moment.
    pub fn moment(&self) -> u32 {
        self.moment
    }

    /// Number of active elements.
    pub fn active_len(&self) -> u64 {
        self.sampler.active_len()
    }
}

impl<R> MemoryWords for MomentEstimator<R> {
    fn memory_words(&self) -> usize {
        // Sampler words + one (value, count) stat pair per instance.
        self.sampler.memory_words() + self.s1 * self.s2 * 2 + 3
    }
}

/// Median of `s2` group means over `basics` (length `s1·s2`).
pub(crate) fn median_of_means(basics: &[f64], s1: usize, s2: usize) -> f64 {
    debug_assert_eq!(basics.len(), s1 * s2);
    let mut means: Vec<f64> = basics
        .chunks_exact(s1)
        .map(|c| c.iter().sum::<f64>() / s1 as f64)
        .collect();
    means.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let m = means.len();
    if m % 2 == 1 {
        means[m / 2]
    } else {
        0.5 * (means[m / 2 - 1] + means[m / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use swsample_stats::OnlineMoments;

    #[test]
    fn median_of_means_basics() {
        // 2 groups of 2: means 1.5 and 3.5 -> median 2.5.
        assert_eq!(median_of_means(&[1.0, 2.0, 3.0, 4.0], 2, 2), 2.5);
        // 3 groups of 1: median of {5, 1, 9} = 5.
        assert_eq!(median_of_means(&[5.0, 1.0, 9.0], 1, 3), 5.0);
    }

    #[test]
    fn constant_stream_estimate_is_exact() {
        // All values equal: r = n − j for position j uniform, and
        // E[n(r² − (r−1)²)] = n·E[2r−1] = n·n = F₂ exactly; with a constant
        // stream each basic estimator is unbiased but noisy; the estimate
        // must still land near n².
        let n = 64u64;
        let mut est = MomentEstimator::new(n, 2, 16, 5, SmallRng::seed_from_u64(1));
        for _ in 0..500 {
            est.insert(42);
        }
        let f2 = est.estimate().expect("nonempty");
        let exact = (n * n) as f64;
        assert!(
            (f2 - exact).abs() / exact < 0.5,
            "f2 = {f2}, exact = {exact}"
        );
    }

    #[test]
    fn unbiasedness_over_many_seeds() {
        // Mean of many independent estimates must approach the exact F₂.
        let n = 32u64;
        let mut exact = crate::exact::ExactWindow::new(n as usize);
        let stream: Vec<u64> = (0..200u64).map(|i| i % 7).collect();
        for &v in &stream {
            exact.insert(v);
        }
        let truth = exact.moment(2);
        let mut acc = OnlineMoments::new();
        for seed in 0..400 {
            let mut est = MomentEstimator::new(n, 2, 4, 1, SmallRng::seed_from_u64(seed));
            for &v in &stream {
                est.insert(v);
            }
            acc.push(est.estimate().expect("nonempty"));
        }
        let rel = (acc.mean() - truth).abs() / truth;
        assert!(
            rel < 0.1,
            "mean estimate {} vs exact {truth} (rel {rel})",
            acc.mean()
        );
    }

    #[test]
    fn f1_is_window_size() {
        // F₁ = Σ xᵢ = N: the estimator is exactly n for every sample since
        // n(r − (r−1)) = n.
        let mut est = MomentEstimator::new(16, 1, 2, 1, SmallRng::seed_from_u64(3));
        for i in 0..100u64 {
            est.insert(i);
        }
        assert_eq!(est.estimate().expect("nonempty"), 16.0);
    }

    #[test]
    fn empty_returns_none() {
        let est = MomentEstimator::new(8, 2, 2, 2, SmallRng::seed_from_u64(4));
        assert!(est.estimate().is_none());
    }

    #[test]
    fn warmup_window_uses_partial_length() {
        let mut est = MomentEstimator::new(1000, 1, 2, 1, SmallRng::seed_from_u64(5));
        for i in 0..10u64 {
            est.insert(i);
        }
        // F₁ of a 10-element window is 10.
        assert_eq!(est.estimate().expect("nonempty"), 10.0);
    }

    #[test]
    fn memory_independent_of_window_size() {
        let mut small = MomentEstimator::new(16, 2, 4, 3, SmallRng::seed_from_u64(6));
        let mut large = MomentEstimator::new(1 << 20, 2, 4, 3, SmallRng::seed_from_u64(7));
        for i in 0..2000u64 {
            small.insert(i % 50);
            large.insert(i % 50);
        }
        assert!(large.memory_words() <= small.memory_words() + 8);
    }
}
