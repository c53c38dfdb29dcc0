//! Sampling **without replacement** from sequence-based windows
//! (Theorem 2.2).

use crate::memory::MemoryWords;
use crate::reservoir::ReservoirL;
use crate::rngutil::query_rng;
use crate::sample::Sample;
use crate::state::{self, ReservoirLState, SamplerState, StateError};
use crate::traits::WindowSampler;
use rand::Rng;

/// A uniform `k`-sample *without replacement* over the last `n` arrivals —
/// Theorem 2.2, `O(k)` memory words, deterministic.
///
/// Construction (§2.2): keep an independent reservoir `k`-sample per
/// equivalent-width bucket. When the window straddles the complete bucket
/// `U` and the partial bucket `V`, let `i` be the number of expired entries
/// in `X_U`; the window sample is the non-expired part of `X_U` together
/// with a uniform `i`-subset of `X_V` (a uniform sub-subset of a
/// without-replacement sample is itself a without-replacement sample).
///
/// When fewer than `k` elements are active, the sample is *all* active
/// elements.
///
/// Ingestion uses Li's Algorithm L per bucket: `O(k(1 + log(n/k)))` RNG
/// draws per bucket instead of `n`, with arrivals between precomputed
/// acceptances skipped wholesale by
/// [`insert_batch`](WindowSampler::insert_batch). The per-arrival
/// Algorithm R construction is kept as the reference for tests and
/// benchmarks, [`NaiveSeqWor`](super::reference::NaiveSeqWor).
///
/// ```
/// use swsample_core::seq::SeqSamplerWor;
/// use swsample_core::WindowSampler;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut s = SeqSamplerWor::new(100, 5, SmallRng::seed_from_u64(3));
/// for i in 0..1_000u64 {
///     s.insert(i);
/// }
/// let mut idx: Vec<u64> = s.sample_k().unwrap().iter().map(|x| x.index()).collect();
/// idx.sort_unstable();
/// idx.dedup();
/// assert_eq!(idx.len(), 5);                      // distinct
/// assert!(idx.iter().all(|&i| i >= 900));        // all in the window
/// ```
#[derive(Debug, Clone)]
pub struct SeqSamplerWor<T, R> {
    n: u64,
    k: usize,
    count: u64,
    rng: R,
    /// k-sample of the most recent complete bucket (`X_U`).
    prev: Vec<Sample<T>>,
    /// Reservoir over the partial bucket (`X_V`).
    cur: ReservoirL<T>,
}

impl<T: Clone, R: Rng> SeqSamplerWor<T, R> {
    /// Sampler for windows of the last `n ≥ 1` arrivals, maintaining a
    /// `k ≥ 1`-sample without replacement (skip-ahead ingestion).
    pub fn new(n: u64, k: usize, rng: R) -> Self {
        assert!(n >= 1, "SeqSamplerWor: window size must be at least 1");
        assert!(k >= 1, "SeqSamplerWor: k must be at least 1");
        Self {
            n,
            k,
            count: 0,
            rng,
            prev: Vec::new(),
            cur: ReservoirL::new(k),
        }
    }

    /// Window size `n`.
    pub fn window(&self) -> u64 {
        self.n
    }

    /// Total arrivals observed.
    pub fn len_seen(&self) -> u64 {
        self.count
    }

    /// Insert the next arrival.
    pub fn push(&mut self, value: T) {
        let idx = self.count;
        self.cur.insert(&mut self.rng, value, idx, idx);
        self.count += 1;
        if self.count.is_multiple_of(self.n) {
            self.prev = self.cur.take();
        }
    }
}

/// The window's `k`-sample after `count ≥ 1` arrivals over windows of
/// `n` (§2.2), from `prev`, the last complete bucket's sample (`X_U`),
/// and `cur`, the partial bucket's reservoir entries (`X_V`). The top-up
/// draws from `rng`, the query's own stream.
pub(super) fn window_sample<T: Clone, R: Rng>(
    rng: &mut R,
    n: u64,
    count: u64,
    prev: &[Sample<T>],
    cur: &[Sample<T>],
) -> Vec<Sample<T>> {
    if count < n {
        // Warm-up: window = partial bucket; its reservoir *is* the
        // k-sample (or all elements when fewer than k).
        return cur.to_vec();
    }
    if count.is_multiple_of(n) {
        // Window coincides with the complete bucket.
        return prev.to_vec();
    }
    let oldest_active = count - n;
    // Split X_U into expired and retained parts.
    let mut out: Vec<Sample<T>> = prev
        .iter()
        .filter(|s| s.index() >= oldest_active)
        .cloned()
        .collect();
    let expired_count = prev.len() - out.len();
    // Top up with a uniform expired_count-subset of X_V. The paper
    // guarantees expired_count <= min(k, |V_a|) = |X_V| entries.
    if expired_count > 0 {
        out.extend(choose_distinct(rng, cur, expired_count));
    }
    out
}

/// One entry of a window `k`-sample, uniformly.
pub(super) fn pick_one<T, R: Rng>(rng: &mut R, mut sample: Vec<Sample<T>>) -> Sample<T> {
    let j = rng.gen_range(0..sample.len());
    sample.swap_remove(j)
}

/// Choose `i` distinct entries uniformly from `pool` (partial
/// Fisher–Yates).
fn choose_distinct<T: Clone, R: Rng>(rng: &mut R, pool: &[Sample<T>], i: usize) -> Vec<Sample<T>> {
    debug_assert!(i <= pool.len(), "choose_distinct: {i} > {}", pool.len());
    let mut scratch: Vec<&Sample<T>> = pool.iter().collect();
    let mut out = Vec::with_capacity(i);
    for step in 0..i {
        let j = rng.gen_range(step..scratch.len());
        scratch.swap(step, j);
        out.push(scratch[step].clone());
    }
    out
}

impl<T, R> MemoryWords for SeqSamplerWor<T, R> {
    fn memory_words(&self) -> usize {
        self.prev.len() * Sample::<T>::WORDS + self.cur.memory_words() + 3 // + (n, k, count)
    }
}

impl<T: Clone, R: Rng + Clone + 'static> WindowSampler<T> for SeqSamplerWor<T, R> {
    fn insert(&mut self, value: T) {
        self.push(value);
    }

    fn save_state(&self) -> Option<SamplerState<T>> {
        let rng = state::capture_rng(&self.rng)?;
        let res = &self.cur;
        let (next_accept, w_bits) = res.skip_state();
        Some(SamplerState::SeqWor {
            count: self.count,
            rng,
            prev: self.prev.clone(),
            cur: ReservoirLState {
                entries: res.entries().to_vec(),
                seen: res.seen(),
                next_accept,
                w_bits,
            },
        })
    }

    fn restore_state(&mut self, state: SamplerState<T>) -> Result<(), StateError> {
        let (count, rng, prev, cur) = match state {
            SamplerState::SeqWor {
                count,
                rng,
                prev,
                cur,
            } => (count, rng, prev, cur),
            other => {
                return Err(StateError::Mismatch {
                    expected: "seq-wor",
                    found: other.family(),
                })
            }
        };
        // The partial bucket's reservoir is a reachable Algorithm L state
        // over its `count % n` arrivals; once a bucket has completed,
        // `prev` is the last complete bucket's `min(k, n)`-sample.
        let corrupt = |m: String| Err(StateError::Corrupt(format!("seq-wor {m}")));
        cur.check_reachable(self.k).or_else(corrupt)?;
        let (n, k) = (self.n, self.k as u64);
        let bucket = count - count % n;
        let prev_len = if count >= n { n.min(k) } else { 0 };
        let within =
            |s: &[Sample<T>], lo: u64, hi: u64| s.iter().all(|e| (lo..hi).contains(&e.index()));
        if cur.seen != count % n
            || prev.len() as u64 != prev_len
            || !within(&prev, bucket.saturating_sub(n), bucket)
            || !within(&cur.entries, bucket, count)
        {
            return corrupt(format!(
                "buckets ({} prev / {} cur entries, {} seen) disagree with {count} \
                 arrivals at n = {n}, k = {k}",
                prev.len(),
                cur.entries.len(),
                cur.seen
            ));
        }
        if !state::restore_rng(&mut self.rng, &rng) {
            return Err(StateError::Unsupported);
        }
        self.count = count;
        self.prev = prev;
        self.cur =
            ReservoirL::from_parts(self.k, cur.entries, cur.seen, cur.next_accept, cur.w_bits);
        Ok(())
    }

    fn insert_batch(&mut self, values: &[T])
    where
        T: Clone,
    {
        let mut i = 0usize;
        while i < values.len() {
            // Feed the run that stays inside the current partial bucket,
            // letting the bucket reservoir hop over non-acceptances.
            let pos = self.count % self.n;
            let chunk = (self.n - pos).min((values.len() - i) as u64) as usize;
            self.cur
                .insert_batch(&mut self.rng, &values[i..i + chunk], self.count);
            self.count += chunk as u64;
            i += chunk;
            if self.count.is_multiple_of(self.n) {
                self.prev = self.cur.take();
            }
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
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use swsample_stats::chi_square_uniform_test;

    fn drive(n: u64, k: usize, stop: u64, seed: u64) -> Vec<Sample<u64>> {
        let mut s = SeqSamplerWor::new(n, k, SmallRng::seed_from_u64(seed));
        for i in 0..stop {
            s.insert(i);
        }
        s.sample_k().expect("nonempty")
    }

    #[test]
    fn empty_returns_none() {
        let s: SeqSamplerWor<u64, _> = SeqSamplerWor::new(5, 2, SmallRng::seed_from_u64(0));
        assert!(s.sample_k().is_none());
        assert!(s.sample().is_none());
    }

    #[test]
    fn exactly_k_distinct_in_window() {
        for &stop in &[9u64, 16, 17, 20, 31, 32, 33] {
            for seed in 0..50 {
                let out = drive(16, 5, stop, seed);
                assert_eq!(out.len(), 5, "stop={stop}");
                let lo = stop - 16.min(stop);
                let mut idx: Vec<u64> = out.iter().map(|s| s.index()).collect();
                idx.sort_unstable();
                for w in idx.windows(2) {
                    assert_ne!(w[0], w[1], "duplicate at stop={stop}");
                }
                for &i in &idx {
                    assert!(
                        i >= lo && i < stop,
                        "index {i} outside window at stop={stop}"
                    );
                }
            }
        }
    }

    #[test]
    fn returns_all_when_window_smaller_than_k() {
        let out = drive(100, 10, 4, 1);
        assert_eq!(out.len(), 4);
        let mut idx: Vec<u64> = out.iter().map(|s| s.index()).collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 1, 2, 3]);
    }

    #[test]
    fn marginal_inclusion_is_k_over_n() {
        // Every window element must appear with probability k/n; uniform
        // over positions after conditioning on inclusion counts.
        let (n, k) = (12u64, 3usize);
        for &stop in &[12u64, 19, 24, 30] {
            let trials = 20_000u64;
            let mut counts = vec![0u64; n as usize];
            for t in 0..trials {
                for s in drive(n, k, stop, 7_000 + t) {
                    counts[(s.index() - (stop - n)) as usize] += 1;
                }
            }
            let out = chi_square_uniform_test(&counts);
            assert!(
                out.p_value > 1e-4,
                "marginals at stop={stop}: p = {}",
                out.p_value
            );
        }
    }

    #[test]
    fn batched_insert_marginals_match() {
        // Chunked ingestion through the Algorithm L hop path.
        let (n, k, stop) = (12u64, 3usize, 30u64);
        let trials = 20_000u64;
        let mut counts = vec![0u64; n as usize];
        for t in 0..trials {
            let mut s = SeqSamplerWor::new(n, k, SmallRng::seed_from_u64(600_000 + t));
            let values: Vec<u64> = (0..stop).collect();
            for chunk in values.chunks(7) {
                s.insert_batch(chunk);
            }
            for s in s.sample_k().expect("nonempty") {
                counts[(s.index() - (stop - n)) as usize] += 1;
            }
        }
        let out = chi_square_uniform_test(&counts);
        assert!(out.p_value > 1e-4, "batched marginals: p = {}", out.p_value);
    }

    #[test]
    fn pairwise_inclusion_uniform() {
        // Frequency of each unordered pair must be uniform across all pairs.
        let (n, k, stop) = (6u64, 2usize, 9u64);
        let trials = 30_000u64;
        let mut counts = vec![0u64; (n * (n - 1) / 2) as usize];
        for t in 0..trials {
            let out = drive(n, k, stop, 40_000 + t);
            let mut pos: Vec<u64> = out.iter().map(|s| s.index() - (stop - n)).collect();
            pos.sort_unstable();
            let (a, b) = (pos[0], pos[1]);
            // Rank of pair (a,b), a<b, in lexicographic order.
            let rank = a * n - a * (a + 1) / 2 + (b - a - 1);
            counts[rank as usize] += 1;
        }
        let out = chi_square_uniform_test(&counts);
        assert!(out.p_value > 1e-4, "pairs not uniform: p = {}", out.p_value);
    }

    #[test]
    fn memory_is_o_of_k() {
        let k = 7usize;
        let cap = 2 * k * 3 + 16;
        for &n in &[8u64, 512, 8192] {
            let mut s = SeqSamplerWor::new(n, k, SmallRng::seed_from_u64(3));
            for i in 0..4000u64 {
                s.insert(i);
                assert!(
                    s.memory_words() <= cap,
                    "n={n}: {} > {cap}",
                    s.memory_words()
                );
            }
        }
    }

    #[test]
    fn single_sample_draws_from_the_k_set() {
        let mut s = SeqSamplerWor::new(10, 3, SmallRng::seed_from_u64(4));
        for i in 0..50u64 {
            s.insert(i);
        }
        let one = s.sample().expect("nonempty");
        assert!(one.index() >= 40 && one.index() < 50);
    }

    #[test]
    fn every_reachable_state_restores() {
        // Batches of every size straddle bucket ends, with k above and
        // below n: each checkpoint passes the restore checks.
        for (n, k) in [(7u64, 3usize), (3, 5), (1, 2)] {
            let mut s = SeqSamplerWor::new(n, k, SmallRng::seed_from_u64(8));
            let mut sched = SmallRng::seed_from_u64(9);
            for step in 0..300u64 {
                let len = sched.gen_range(0..2 * n + 2);
                s.insert_batch(&(0..len).collect::<Vec<u64>>());
                let mut fresh = SeqSamplerWor::new(n, k, SmallRng::seed_from_u64(0));
                let state = s.save_state().expect("checkpoint");
                fresh
                    .restore_state(state)
                    .unwrap_or_else(|e| panic!("n={n} k={k} step {step}: {e}"));
            }
        }
    }
}
