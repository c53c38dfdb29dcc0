//! The per-engine timestamp constructions Theorems 3.9 and 4.4 were first
//! built on: one physically separate [`TsEngine`] per lane, with no
//! shared covering decomposition.
//!
//! [`IndependentTsWr`] and [`IndependentTsWor`] are distribution-identical
//! to the fused [`TsSamplerWr`](super::TsSamplerWr) and
//! [`TsSamplerWor`](super::TsSamplerWor), and are kept only as their
//! reference: `tests/ts_bank_equivalence.rs` holds both shapes to
//! lockstep boundary equality and the same chi-square thresholds, and
//! `bench_throughput` measures them as the `ts_wr_indep` / `ts_wor_indep`
//! baselines of the `ts_*_speedup_k64` gates. Neither checkpoints: a
//! reference is not a durability target.

use super::engine::TsEngine;
use super::wor::fold_lanes;
use crate::memory::MemoryWords;
use crate::rngutil::query_rng;
use crate::sample::Sample;
use crate::track::{NullTracker, SampleTracker};
use crate::traits::WindowSampler;
use rand::Rng;
use std::collections::VecDeque;

/// `k` independent uniform samples, *with replacement*, over a timestamp
/// window of width `t0`: `k` separate §3 engines, each paying its own
/// boundary walk and merge coins.
#[derive(Debug, Clone)]
pub struct IndependentTsWr<T, R, K: SampleTracker<T> = NullTracker> {
    engines: Vec<TsEngine<T, K>>,
    rng: R,
    now: u64,
    next_index: u64,
}

impl<T: Clone, R: Rng> IndependentTsWr<T, R, NullTracker> {
    /// `k ≥ 1` independent engines over windows of width `t0 ≥ 1`.
    pub fn new(t0: u64, k: usize, rng: R) -> Self {
        Self::with_tracker(t0, k, rng, NullTracker)
    }
}

impl<T: Clone, R: Rng, K: SampleTracker<T>> IndependentTsWr<T, R, K> {
    /// Like [`IndependentTsWr::new`], each engine with a clone of `tracker`.
    pub fn with_tracker(t0: u64, k: usize, rng: R, tracker: K) -> Self
    where
        K: Clone,
    {
        assert!(k >= 1, "IndependentTsWr: k must be at least 1");
        Self {
            engines: (0..k)
                .map(|_| TsEngine::with_tracker(t0, tracker.clone()))
                .collect(),
            rng,
            now: 0,
            next_index: 0,
        }
    }

    /// Draw the `k` samples together with their tracker statistics;
    /// `None` when the window is empty.
    pub fn sample_k_with_stats(&self) -> Option<Vec<(Sample<T>, K::Stat)>>
    where
        R: Clone,
    {
        let mut rng = query_rng(&self.rng, self.next_index, self.now);
        self.engines
            .iter()
            .map(|e| e.sample_with_stat(&mut rng))
            .collect()
    }

    /// Engine 0's bucket-boundary profile (all engines hold the same one).
    pub fn boundaries(&self) -> Vec<(u64, u64, u64)> {
        self.engines[0].boundaries()
    }

    /// `true` in the Lemma 3.5 case-2 (straddling) state.
    pub fn is_straddling(&self) -> bool {
        self.engines[0].is_straddling()
    }
}

impl<T, R, K: SampleTracker<T>> MemoryWords for IndependentTsWr<T, R, K> {
    fn memory_words(&self) -> usize {
        self.engines.memory_words() + 2 // + (now, next_index)
    }
}

impl<T: Clone, R: Rng + Clone, K: SampleTracker<T>> WindowSampler<T> for IndependentTsWr<T, R, K> {
    fn advance_time(&mut self, now: u64) {
        assert!(now >= self.now, "IndependentTsWr: clock moved backwards");
        self.now = now;
        for e in &mut self.engines {
            e.advance_time(now);
        }
    }

    fn insert(&mut self, value: T) {
        let idx = self.next_index;
        self.next_index += 1;
        for e in &mut self.engines {
            e.insert(&mut self.rng, value.clone(), idx, self.now);
        }
    }

    /// Engine-major iteration: each engine ingests the whole run while its
    /// covering decomposition is hot in cache. Engines are independent, so
    /// the reordering of RNG consumption across engines leaves every
    /// engine's distribution unchanged.
    fn insert_batch(&mut self, values: &[T]) {
        let first = self.next_index;
        self.next_index += values.len() as u64;
        let now = self.now;
        for e in &mut self.engines {
            for (j, v) in values.iter().enumerate() {
                e.insert(&mut self.rng, v.clone(), first + j as u64, now);
            }
        }
    }

    fn sample(&self) -> Option<Sample<T>> {
        self.engines[0].sample(&mut query_rng(&self.rng, self.next_index, self.now))
    }

    fn sample_k(&self) -> Option<Vec<Sample<T>>> {
        self.sample_k_with_stats()
            .map(|v| v.into_iter().map(|(s, _)| s).collect())
    }

    fn k(&self) -> usize {
        self.engines.len()
    }
}

/// A uniform `k`-sample *without replacement* over a timestamp window of
/// width `t0` by the §4 reduction, on `k` *delayed* engines: engine `i`
/// ingests an arrival once `i` newer ones exist (Lemma 4.1), so it
/// samples the active elements minus the last `i` arrivals.
#[derive(Debug, Clone)]
pub struct IndependentTsWor<T, R> {
    k: usize,
    engines: Vec<TsEngine<T>>,
    /// The last `k` arrivals, newest at the back.
    recent: VecDeque<Sample<T>>,
    rng: R,
    now: u64,
    next_index: u64,
}

impl<T: Clone, R: Rng> IndependentTsWor<T, R> {
    /// `k ≥ 1` delayed engines over windows of width `t0 ≥ 1`.
    pub fn new(t0: u64, k: usize, rng: R) -> Self {
        assert!(k >= 1, "IndependentTsWor: k must be at least 1");
        Self {
            k,
            engines: (0..k).map(|_| TsEngine::new(t0)).collect(),
            recent: VecDeque::with_capacity(k),
            rng,
            now: 0,
            next_index: 0,
        }
    }

    /// Engine `k−1`'s bucket-boundary profile: the delay-(k−1) state,
    /// lockstep-equal to the fused bank's.
    pub fn boundaries(&self) -> Vec<(u64, u64, u64)> {
        self.engines[self.k - 1].boundaries()
    }
}

impl<T, R> MemoryWords for IndependentTsWor<T, R> {
    fn memory_words(&self) -> usize {
        self.engines.memory_words() + self.recent.len() * Sample::<T>::WORDS + 3
    }
}

impl<T: Clone, R: Rng + Clone> WindowSampler<T> for IndependentTsWor<T, R> {
    fn advance_time(&mut self, now: u64) {
        assert!(now >= self.now, "IndependentTsWor: clock moved backwards");
        self.now = now;
        for e in &mut self.engines {
            e.advance_time(now);
        }
    }

    fn insert(&mut self, value: T) {
        let item = Sample::new(value, self.next_index, self.now);
        self.next_index += 1;
        self.recent.push_back(item);
        if self.recent.len() > self.k {
            self.recent.pop_front();
        }
        // recent[len−1−i] is now the element with `i` arrivals after it —
        // the one engine `i` is allowed to see (engine 0: the arrival).
        let len = self.recent.len();
        for (i, engine) in self.engines.iter_mut().enumerate().take(len) {
            let s = &self.recent[len - 1 - i];
            engine.insert(&mut self.rng, s.value().clone(), s.index(), s.timestamp());
        }
    }

    fn insert_batch(&mut self, values: &[T]) {
        let first = self.next_index;
        self.next_index += values.len() as u64;
        // Materialize the combined auxiliary view (old last-k array + the
        // batch) once, then run engine-major: engine `i` sees arrival `j`
        // as soon as `i` newer arrivals exist, i.e. element
        // `combined[old_len + j − i]` — exactly what the per-arrival path
        // feeds it, but with each engine's covering hot in cache.
        let old_len = self.recent.len();
        let mut combined: Vec<Sample<T>> = Vec::with_capacity(old_len + values.len());
        combined.extend(self.recent.iter().cloned());
        for (j, v) in values.iter().enumerate() {
            combined.push(Sample::new(v.clone(), first + j as u64, self.now));
        }
        for (i, engine) in self.engines.iter_mut().enumerate() {
            for pos in old_len.max(i)..combined.len() {
                let s = &combined[pos - i];
                engine.insert(&mut self.rng, s.value().clone(), s.index(), s.timestamp());
            }
        }
        // The auxiliary array keeps the last k arrivals.
        let keep = combined.len().min(self.k);
        self.recent = combined.split_off(combined.len() - keep).into();
    }

    fn sample(&self) -> Option<Sample<T>> {
        self.engines[0].sample(&mut query_rng(&self.rng, self.next_index, self.now))
    }

    fn sample_k(&self) -> Option<Vec<Sample<T>>> {
        let t0 = self.engines[0].window();
        let mut rng = query_rng(&self.rng, self.next_index, self.now);
        fold_lanes(self.k, self.recent.iter().cloned(), self.now, t0, |i| {
            self.engines[i].sample(&mut rng)
        })
    }

    fn k(&self) -> usize {
        self.k
    }
}
