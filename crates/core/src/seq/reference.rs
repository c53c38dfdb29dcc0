//! The per-arrival constructions Theorems 2.1 and 2.2 state directly: one
//! reservoir step per arrival, with no skip-ahead.
//!
//! [`NaiveSeqWr`] and [`NaiveSeqWor`] are distribution-identical to the
//! skip-ahead [`SeqSamplerWr`](super::SeqSamplerWr) and
//! [`SeqSamplerWor`](super::SeqSamplerWor), and are kept only as their
//! reference: tests hold both shapes to the same chi-square thresholds and
//! memory caps, and `bench_throughput` measures them as the
//! `seq_wr_naive` / `seq_wor_naive` baselines of the
//! `seq_wr_speedup_k64_n100000` gate. Neither restores a checkpoint: a
//! reference is not a durability target.

use super::wor::{pick_one, window_sample};
use crate::memory::MemoryWords;
use crate::reservoir::ReservoirK;
use crate::rngutil::query_rng;
use crate::sample::Sample;
use crate::state::{self, SamplerState, SeqWrLaneState};
use crate::traits::WindowSampler;
use rand::Rng;

/// `k` independent uniform samples, *with replacement*, over the last `n`
/// arrivals: `k` lanes, each a k=1 reservoir over the partial bucket
/// (`X_V`) next to the last complete bucket's sample (`X_U`). Every
/// arrival draws `gen_range(0..=pos)` once per lane, in lane order, and a
/// lane adopts it on 0.
#[derive(Debug, Clone)]
pub struct NaiveSeqWr<T, R> {
    n: u64,
    /// Total arrivals so far.
    count: u64,
    rng: R,
    /// Lane `i`'s sample of the partial bucket at `i`; empty before the
    /// bucket's first arrival, which every lane adopts.
    cur: Vec<Sample<T>>,
    /// Lane `i`'s sample of the last complete bucket at `i`; empty until
    /// the first rotation.
    prev: Vec<Sample<T>>,
    k: usize,
    /// Total acceptance events so far (diagnostic; not counted as memory).
    accepts: u64,
}

impl<T: Clone, R: Rng> NaiveSeqWr<T, R> {
    /// Sampler for windows of the last `n ≥ 1` arrivals maintaining `k ≥ 1`
    /// independent samples.
    pub fn new(n: u64, k: usize, rng: R) -> Self {
        assert!(n >= 1, "NaiveSeqWr: window size must be at least 1");
        assert!(k >= 1, "NaiveSeqWr: k must be at least 1");
        Self {
            n,
            count: 0,
            rng,
            cur: Vec::with_capacity(k),
            prev: Vec::with_capacity(k),
            k,
            accepts: 0,
        }
    }

    /// Total acceptance events across all lanes.
    pub fn acceptances(&self) -> u64 {
        self.accepts
    }
}

impl<T, R> MemoryWords for NaiveSeqWr<T, R> {
    fn memory_words(&self) -> usize {
        (self.cur.len() + self.prev.len()) * Sample::<T>::WORDS + 3 // + (n, k, count)
    }
}

impl<T: Clone, R: Rng + 'static> WindowSampler<T> for NaiveSeqWr<T, R> {
    fn insert(&mut self, value: T) {
        let idx = self.count;
        // The arrival is the (pos+1)-th element of the partial bucket.
        let pos = idx % self.n;
        let sample = Sample::new(value, idx, idx);
        for i in 0..self.k {
            // Reservoir step: adopt with probability 1/(pos+1).
            if self.rng.gen_range(0..=pos) == 0 {
                self.accepts += 1;
                if pos == 0 {
                    self.cur.push(sample.clone());
                } else {
                    self.cur[i] = sample.clone();
                }
            }
        }
        self.count += 1;
        if self.count.is_multiple_of(self.n) {
            std::mem::swap(&mut self.prev, &mut self.cur);
            self.cur.clear();
        }
    }

    /// The [`SamplerState::SeqWr`] record of these lanes. No lane keeps a
    /// next acceptance; each records 0.
    fn save_state(&self) -> Option<SamplerState<T>> {
        let rng = state::capture_rng(&self.rng)?;
        let lanes = (0..self.k)
            .map(|i| SeqWrLaneState {
                prev: self.prev.get(i).cloned(),
                cur: self.cur.get(i).cloned(),
                next_accept: 0,
            })
            .collect();
        Some(SamplerState::SeqWr {
            count: self.count,
            accepts: self.accepts,
            rng,
            lanes,
        })
    }

    fn sample(&self) -> Option<Sample<T>> {
        self.sample_k().map(|mut v| v.swap_remove(0))
    }

    fn sample_k(&self) -> Option<Vec<Sample<T>>> {
        if self.count == 0 {
            return None;
        }
        if self.count < self.n {
            // Window = everything so far = the partial bucket.
            return Some(self.cur.clone());
        }
        if self.count.is_multiple_of(self.n) {
            // Window = the complete bucket U.
            return Some(self.prev.clone());
        }
        // The window straddles U and V: take X_U unless expired.
        let oldest_active = self.count - self.n;
        let picks = self
            .prev
            .iter()
            .zip(&self.cur)
            .map(|(p, c)| if p.index() >= oldest_active { p } else { c })
            .cloned()
            .collect();
        Some(picks)
    }

    fn k(&self) -> usize {
        self.k
    }
}

/// A uniform `k`-sample *without replacement* over the last `n` arrivals:
/// an Algorithm R reservoir ([`ReservoirK`], one draw per arrival once
/// full) over the partial bucket, and the window fold
/// [`SeqSamplerWor`](super::SeqSamplerWor) answers with.
#[derive(Debug, Clone)]
pub struct NaiveSeqWor<T, R> {
    n: u64,
    k: usize,
    count: u64,
    rng: R,
    /// k-sample of the most recent complete bucket (`X_U`).
    prev: Vec<Sample<T>>,
    /// Reservoir over the partial bucket (`X_V`).
    cur: ReservoirK<T>,
}

impl<T: Clone, R: Rng> NaiveSeqWor<T, R> {
    /// Sampler for windows of the last `n ≥ 1` arrivals, maintaining a
    /// `k ≥ 1`-sample without replacement.
    pub fn new(n: u64, k: usize, rng: R) -> Self {
        assert!(n >= 1, "NaiveSeqWor: window size must be at least 1");
        Self {
            n,
            k,
            count: 0,
            rng,
            prev: Vec::new(),
            cur: ReservoirK::new(k),
        }
    }
}

impl<T, R> MemoryWords for NaiveSeqWor<T, R> {
    fn memory_words(&self) -> usize {
        self.prev.len() * Sample::<T>::WORDS + self.cur.memory_words() + 3 // + (n, k, count)
    }
}

impl<T: Clone, R: Rng + Clone> WindowSampler<T> for NaiveSeqWor<T, R> {
    fn insert(&mut self, value: T) {
        let idx = self.count;
        self.cur.insert(&mut self.rng, value, idx, idx);
        self.count += 1;
        if self.count.is_multiple_of(self.n) {
            self.prev = self.cur.take();
        }
    }

    fn sample(&self) -> Option<Sample<T>> {
        let mut rng = query_rng(&self.rng, self.count, 0);
        (self.count > 0).then(|| {
            let all = window_sample(&mut rng, self.n, self.count, &self.prev, self.cur.entries());
            pick_one(&mut rng, all)
        })
    }

    fn sample_k(&self) -> Option<Vec<Sample<T>>> {
        let mut rng = query_rng(&self.rng, self.count, 0);
        (self.count > 0)
            .then(|| window_sample(&mut rng, self.n, self.count, &self.prev, self.cur.entries()))
    }

    fn k(&self) -> usize {
        self.k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::SeqSamplerWor;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use swsample_stats::chi_square_uniform_test;

    #[test]
    fn wr_uniform_at_awkward_offsets() {
        // On a bucket boundary, just after one, and straddling.
        let n = 16u64;
        for &stop in &[16u64, 17, 24, 32, 33, 47] {
            let trials = 20_000;
            let mut counts = vec![0u64; n as usize];
            for t in 0..trials {
                let mut s = NaiveSeqWr::new(n, 1, SmallRng::seed_from_u64(1000 + t));
                for i in 0..stop {
                    s.insert(i);
                }
                let smp = s.sample().expect("nonempty");
                counts[(smp.index() - (stop - n)) as usize] += 1;
            }
            let out = chi_square_uniform_test(&counts);
            assert!(
                out.p_value > 1e-4,
                "not uniform at stop={stop}: p = {}",
                out.p_value
            );
        }
    }

    #[test]
    fn wr_samples_stay_in_window_and_record_no_next_accept() {
        // Every lane adopts a bucket's first arrival; the record carries no
        // next acceptance.
        let mut s = NaiveSeqWr::new(10, 3, SmallRng::seed_from_u64(7));
        for i in 0..25u64 {
            s.insert(i);
            let lo = (i + 1).saturating_sub(10);
            for smp in s.sample_k().expect("nonempty") {
                assert!((lo..=i).contains(&smp.index()), "at {i}");
            }
            assert!(s.memory_words() <= 7 * 3 + 3, "at {i}");
        }
        assert!(s.acceptances() >= 3 * 3, "each bucket opens with k accepts");
        let Some(SamplerState::SeqWr { count, lanes, .. }) = s.save_state() else {
            unreachable!("a SmallRng reference saves a seq-wr record")
        };
        assert_eq!(count, 25);
        assert!(lanes.iter().all(|l| l.next_accept == 0));
        assert!(lanes.iter().all(|l| l.prev.is_some() && l.cur.is_some()));
    }

    #[test]
    fn wor_marginals_match() {
        // Held to the threshold of the skip path's own marginal test.
        let (n, k, stop) = (12u64, 3usize, 19u64);
        let trials = 20_000u64;
        let mut counts = vec![0u64; n as usize];
        for t in 0..trials {
            let mut s = NaiveSeqWor::new(n, k, SmallRng::seed_from_u64(300_000 + t));
            for i in 0..stop {
                s.insert(i);
            }
            for s in s.sample_k().expect("nonempty") {
                counts[(s.index() - (stop - n)) as usize] += 1;
            }
        }
        let out = chi_square_uniform_test(&counts);
        assert!(out.p_value > 1e-4, "naive marginals: p = {}", out.p_value);
    }

    #[test]
    fn wor_skip_memory_exceeds_naive_by_constant() {
        // Algorithm L carries two extra scalar state words (next_accept,
        // W) per partial-bucket reservoir; everything else is lockstep.
        let mut skip = SeqSamplerWor::new(17, 4, SmallRng::seed_from_u64(5));
        let mut naive = NaiveSeqWor::new(17, 4, SmallRng::seed_from_u64(6));
        for i in 0..500u64 {
            skip.insert(i);
            naive.insert(i);
            assert_eq!(skip.memory_words(), naive.memory_words() + 2, "at step {i}");
        }
    }
}
