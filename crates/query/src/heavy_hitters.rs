//! Sample-based heavy-hitter detection over sliding windows.
//!
//! A value with window frequency `≥ φ·n` appears in a uniform `k`-sample
//! `≥ φ·k` times in expectation; thresholding the sample at `(φ − ε)·k`
//! yields the classic sampling guarantee: every true `φ`-heavy hitter is
//! reported with probability `≥ 1 − δ` once `k = Ω(ε⁻² log(1/(δφ)))`, and
//! nothing lighter than `φ − 2ε` sneaks in (w.h.p.). The point, per the
//! paper's Theorem 5.1: the *same* estimator runs over sliding windows by
//! swapping in the window sampler — with deterministic memory.

use rand::Rng;
use std::collections::HashMap;
use swsample_core::seq::SeqSamplerWor;
use swsample_core::{MemoryWords, WindowSampler};

/// A reported heavy hitter.
#[derive(Debug, Clone, PartialEq)]
pub struct Hitter {
    /// The value.
    pub value: u64,
    /// Its estimated share of the window (fraction of the sample).
    pub share: f64,
}

/// Heavy-hitter detector over the last `n` arrivals, built on a
/// without-replacement `k`-sample.
///
/// ```
/// use swsample_query::HeavyHitters;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut hh = HeavyHitters::new(600, 64, 0.3, SmallRng::seed_from_u64(6));
/// for i in 0..3_000u64 {
///     // Value 7 is half the stream; the rest are all distinct.
///     hh.insert(if i % 2 == 0 { 7 } else { 1_000 + i });
/// }
/// let hits = hh.hitters();
/// assert_eq!(hits[0].value, 7);
/// assert!((hits[0].share - 0.5).abs() < 0.25);
/// ```
#[derive(Debug, Clone)]
pub struct HeavyHitters<R> {
    sampler: SeqSamplerWor<u64, R>,
    threshold: f64,
}

impl<R: Rng + Clone + 'static> HeavyHitters<R> {
    /// Detector over the last `n` arrivals reporting values whose sampled
    /// share is at least `threshold ∈ (0, 1]`, using a `k`-sample.
    pub fn new(n: u64, k: usize, threshold: f64, rng: R) -> Self {
        assert!(threshold > 0.0 && threshold <= 1.0, "threshold in (0, 1]");
        Self {
            sampler: SeqSamplerWor::new(n, k, rng),
            threshold,
        }
    }

    /// Feed the next arrival.
    pub fn insert(&mut self, value: u64) {
        self.sampler.insert(value);
    }

    /// Values whose sampled share meets the threshold, heaviest first;
    /// empty before any arrival.
    pub fn hitters(&self) -> Vec<Hitter> {
        let sample = match self.sampler.sample_k() {
            Some(s) => s,
            None => return Vec::new(),
        };
        let total = sample.len() as f64;
        let mut freq: HashMap<u64, u64> = HashMap::new();
        for s in &sample {
            *freq.entry(*s.value()).or_insert(0) += 1;
        }
        let mut out: Vec<Hitter> = freq
            .into_iter()
            .filter_map(|(value, count)| {
                let share = count as f64 / total;
                (share >= self.threshold).then_some(Hitter { value, share })
            })
            .collect();
        out.sort_by(|a, b| b.share.partial_cmp(&a.share).expect("finite"));
        out
    }

    /// The report threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

impl<R> MemoryWords for HeavyHitters<R> {
    fn memory_words(&self) -> usize {
        self.sampler.memory_words() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn empty_reports_nothing() {
        let h = HeavyHitters::new(10, 4, 0.2, SmallRng::seed_from_u64(0));
        assert!(h.hitters().is_empty());
    }

    #[test]
    fn detects_a_planted_majority_value() {
        // Value 7 is 60% of the window; everything else is spread thin.
        let mut detected = 0;
        let trials = 50;
        for seed in 0..trials {
            let mut h = HeavyHitters::new(500, 64, 0.4, SmallRng::seed_from_u64(seed));
            let mut rng = SmallRng::seed_from_u64(1000 + seed);
            for _ in 0..2000 {
                let v = if rng.gen_bool(0.6) {
                    7
                } else {
                    rng.gen_range(100..10_000u64)
                };
                h.insert(v);
            }
            let hits = h.hitters();
            if hits.iter().any(|x| x.value == 7) {
                detected += 1;
                // The majority value must be ranked first.
                assert_eq!(hits[0].value, 7);
            }
        }
        assert!(detected >= trials * 9 / 10, "detected {detected}/{trials}");
    }

    #[test]
    fn light_values_rarely_reported() {
        // All values distinct: nothing can recur in the sample beyond
        // chance, so a 30% threshold reports nothing.
        let mut h = HeavyHitters::new(1000, 32, 0.3, SmallRng::seed_from_u64(3));
        for i in 0..5000u64 {
            h.insert(i);
        }
        assert!(h.hitters().is_empty());
    }

    #[test]
    fn tracks_window_change() {
        // Heavy value switches from 1 to 2; after a full window the report
        // must follow.
        let mut h = HeavyHitters::new(200, 48, 0.5, SmallRng::seed_from_u64(4));
        for _ in 0..400 {
            h.insert(1);
        }
        assert_eq!(h.hitters()[0].value, 1);
        for _ in 0..400 {
            h.insert(2);
        }
        let hits = h.hitters();
        assert_eq!(hits[0].value, 2);
        assert!(
            hits.iter().all(|x| x.value != 1),
            "stale hitter survived the window"
        );
    }

    #[test]
    fn share_estimates_are_calibrated() {
        // 70/30 mix: estimated shares across seeds must average near truth.
        let (mut s1, mut s2) = (0.0, 0.0);
        let trials = 60;
        for seed in 0..trials {
            let mut h = HeavyHitters::new(400, 64, 0.1, SmallRng::seed_from_u64(seed));
            let mut rng = SmallRng::seed_from_u64(500 + seed);
            for _ in 0..1200 {
                h.insert(if rng.gen_bool(0.7) { 10 } else { 20 });
            }
            for hit in h.hitters() {
                if hit.value == 10 {
                    s1 += hit.share;
                } else if hit.value == 20 {
                    s2 += hit.share;
                }
            }
        }
        let (m1, m2) = (s1 / trials as f64, s2 / trials as f64);
        assert!((m1 - 0.7).abs() < 0.05, "heavy share {m1}");
        assert!((m2 - 0.3).abs() < 0.05, "light share {m2}");
    }

    #[test]
    fn memory_is_o_of_k_not_n() {
        let mut h = HeavyHitters::new(1 << 20, 32, 0.1, SmallRng::seed_from_u64(5));
        for i in 0..10_000u64 {
            h.insert(i % 97);
        }
        assert!(
            h.memory_words() <= 6 * 32 + 32,
            "memory {}",
            h.memory_words()
        );
    }

    #[test]
    #[should_panic]
    fn rejects_zero_threshold() {
        let _ = HeavyHitters::new(10, 4, 0.0, SmallRng::seed_from_u64(0));
    }
}
