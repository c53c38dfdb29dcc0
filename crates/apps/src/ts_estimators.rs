//! Frequency moments and entropy over **timestamp-based** windows — the
//! full strength of Corollaries 5.2 and 5.4.
//!
//! Two extra ingredients beyond the sequence-window estimators:
//!
//! 1. the suffix statistic `r` rides on the timestamp sampler's covering
//!    decomposition (each bucket's `R` sample carries its tracker state,
//!    surviving merges — `swsample-core`'s tracked `TsSamplerWr`), and
//! 2. the window size `n(t)` — which is *not computable exactly* in
//!    sublinear space for timestamp windows — is replaced by the `(1±ε)`
//!    DGIM estimate from `swsample-counting`, the paper's reference \[31\].
//!
//! The estimator error therefore has two parts: the AMS/CCM sampling error
//! `O(1/√s₁)` plus a multiplicative `(1±ε)` from the counter; both shrink
//! with their respective parameters. Total memory stays polylogarithmic, as
//! Theorem 5.1 promises (the `log n` overhead of the timestamp model).

use crate::moments::median_of_means;
use rand::Rng;
use swsample_core::track::OccurrenceTracker;
use swsample_core::ts::TsSamplerWr;
use swsample_core::{MemoryWords, WindowSampler};
use swsample_counting::WindowCounter;

/// AMS estimator for `F_k` over a timestamp window of width `t0`.
#[derive(Debug, Clone)]
pub struct TsMomentEstimator<R> {
    moment: u32,
    s1: usize,
    s2: usize,
    sampler: TsSamplerWr<u64, R, OccurrenceTracker>,
    counter: WindowCounter,
}

impl<R: Rng + Clone + 'static> TsMomentEstimator<R> {
    /// Estimator for `F_moment` over the last `t0` ticks with `s1·s2`
    /// samples and a `(1±epsilon)` window-size counter.
    pub fn new(t0: u64, moment: u32, s1: usize, s2: usize, epsilon: f64, rng: R) -> Self {
        assert!(moment >= 1 && s1 >= 1 && s2 >= 1);
        Self {
            moment,
            s1,
            s2,
            sampler: TsSamplerWr::with_tracker(t0, s1 * s2, rng, OccurrenceTracker),
            counter: WindowCounter::with_epsilon(t0, epsilon),
        }
    }

    /// Advance the shared clock.
    pub fn advance_time(&mut self, now: u64) {
        self.sampler.advance_time(now);
        self.counter.advance_time(now);
    }

    /// Feed the next arrival at the current tick.
    pub fn insert(&mut self, value: u64) {
        self.sampler.insert(value);
        self.counter.insert();
    }

    /// Current estimate of `F_k`; `None` when the window is empty.
    pub fn estimate(&self) -> Option<f64> {
        let n = self.counter.estimate();
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

    /// The `(1±ε)` window-size estimate feeding the estimator.
    pub fn window_size_estimate(&self) -> u64 {
        self.counter.estimate()
    }
}

impl<R> MemoryWords for TsMomentEstimator<R> {
    fn memory_words(&self) -> usize {
        self.sampler.memory_words()
            + self.counter.memory_words()
            + self.s1 * self.s2 * 2 // tracker stats
            + 3
    }
}

/// CCM entropy estimator over a timestamp window of width `t0`.
#[derive(Debug, Clone)]
pub struct TsEntropyEstimator<R> {
    s1: usize,
    s2: usize,
    sampler: TsSamplerWr<u64, R, OccurrenceTracker>,
    counter: WindowCounter,
}

impl<R: Rng + Clone + 'static> TsEntropyEstimator<R> {
    /// Estimator over the last `t0` ticks with `s1·s2` samples and a
    /// `(1±epsilon)` window-size counter.
    pub fn new(t0: u64, s1: usize, s2: usize, epsilon: f64, rng: R) -> Self {
        assert!(s1 >= 1 && s2 >= 1);
        Self {
            s1,
            s2,
            sampler: TsSamplerWr::with_tracker(t0, s1 * s2, rng, OccurrenceTracker),
            counter: WindowCounter::with_epsilon(t0, epsilon),
        }
    }

    /// Advance the shared clock.
    pub fn advance_time(&mut self, now: u64) {
        self.sampler.advance_time(now);
        self.counter.advance_time(now);
    }

    /// Feed the next arrival at the current tick.
    pub fn insert(&mut self, value: u64) {
        self.sampler.insert(value);
        self.counter.insert();
    }

    /// Current entropy estimate (bits); `None` when the window is empty.
    pub fn estimate(&self) -> Option<f64> {
        let n = self.counter.estimate() as f64;
        if n < 1.0 {
            return None;
        }
        let picks = self.sampler.sample_k_with_stats()?;
        let basics: Vec<f64> = picks
            .iter()
            .map(|(_, (_, r))| {
                // The DGIM estimate can sit slightly below the true count;
                // clamp so the logs stay well-defined.
                let r = (*r as f64).min(n);
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
}

impl<R> MemoryWords for TsEntropyEstimator<R> {
    fn memory_words(&self) -> usize {
        self.sampler.memory_words() + self.counter.memory_words() + self.s1 * self.s2 * 2 + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactWindow;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use swsample_stats::OnlineMoments;

    /// Drive estimator + an exact reference over a steady stream (1/tick),
    /// so the exact window is the last `t0` values.
    fn steady_f2(
        t0: u64,
        ticks: u64,
        s1: usize,
        seeds: u64,
        values: impl Fn(u64) -> u64,
    ) -> (f64, f64) {
        let mut exact = ExactWindow::new(t0 as usize);
        for tick in 0..ticks {
            exact.insert(values(tick));
        }
        let truth = exact.moment(2);
        let mut acc = OnlineMoments::new();
        for seed in 0..seeds {
            let mut est = TsMomentEstimator::new(t0, 2, s1, 3, 0.05, SmallRng::seed_from_u64(seed));
            for tick in 0..ticks {
                est.advance_time(tick);
                est.insert(values(tick));
            }
            acc.push(est.estimate().expect("nonempty"));
        }
        (acc.mean(), truth)
    }

    #[test]
    fn f2_converges_on_timestamp_windows() {
        let (mean, truth) = steady_f2(256, 700, 64, 40, |t| t % 11);
        let rel = (mean - truth).abs() / truth;
        assert!(rel < 0.12, "TS F2 mean {mean} vs exact {truth} (rel {rel})");
    }

    #[test]
    fn f1_matches_window_size_estimate() {
        // F1 = n: every basic estimator equals n̂ exactly.
        let mut est = TsMomentEstimator::new(64, 1, 4, 1, 0.05, SmallRng::seed_from_u64(1));
        for tick in 0..300u64 {
            est.advance_time(tick);
            est.insert(tick);
        }
        let f1 = est.estimate().expect("nonempty");
        let n_hat = est.window_size_estimate() as f64;
        assert_eq!(f1, n_hat);
        // And n̂ is within 5% + 1 of the true 64.
        assert!((n_hat - 64.0).abs() <= 0.05 * 64.0 + 1.0, "n̂ = {n_hat}");
    }

    #[test]
    fn entropy_converges_on_timestamp_windows() {
        let t0 = 256u64;
        let mut exact = ExactWindow::new(t0 as usize);
        for tick in 0..700u64 {
            exact.insert(tick % 16);
        }
        let truth = exact.entropy();
        let mut acc = OnlineMoments::new();
        for seed in 0..30 {
            let mut est = TsEntropyEstimator::new(t0, 64, 3, 0.05, SmallRng::seed_from_u64(seed));
            for tick in 0..700u64 {
                est.advance_time(tick);
                est.insert(tick % 16);
            }
            acc.push(est.estimate().expect("nonempty"));
        }
        assert!(
            (acc.mean() - truth).abs() < 0.35,
            "TS entropy mean {} vs exact {truth}",
            acc.mean()
        );
    }

    #[test]
    fn empty_window_returns_none() {
        let mut est = TsMomentEstimator::new(4, 2, 2, 1, 0.1, SmallRng::seed_from_u64(2));
        assert!(est.estimate().is_none());
        est.advance_time(0);
        est.insert(1);
        est.advance_time(1000);
        assert!(est.estimate().is_none());
    }

    #[test]
    fn memory_is_polylogarithmic() {
        let mut est = TsMomentEstimator::new(1024, 2, 8, 3, 0.1, SmallRng::seed_from_u64(3));
        for tick in 0..4096u64 {
            est.advance_time(tick);
            for _ in 0..4 {
                est.insert(tick % 100);
            }
        }
        // Window holds 4096 elements; buffering would need ≥ 8192 words.
        assert!(est.memory_words() < 8192, "memory {}", est.memory_words());
    }

    #[test]
    fn handles_bursts_and_gaps() {
        let mut est = TsEntropyEstimator::new(32, 16, 3, 0.1, SmallRng::seed_from_u64(4));
        let mut rng = SmallRng::seed_from_u64(5);
        use rand::Rng as _;
        for tick in (0..500u64).step_by(3) {
            est.advance_time(tick);
            for _ in 0..rng.gen_range(0..6u64) {
                est.insert(rng.gen_range(0..8u64));
            }
            // Must never panic, and must report Some iff window non-empty.
            let _ = est.estimate();
        }
    }
}
