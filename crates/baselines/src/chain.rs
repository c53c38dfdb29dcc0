//! Chain sampling (Babcock, Datar, Motwani — SODA'02) for sequence-based
//! windows.
//!
//! Each of the `k` independent instances maintains the current sample plus a
//! *chain of successors*: when element `i` is adopted as the sample, a
//! successor index is drawn uniformly from the `n` positions after `i`; when
//! that element arrives it is stored and given its own successor, and so on.
//! When the sample expires, the next chain element takes over — so a sample
//! is always available.
//!
//! The catch — the paper's central criticism — is that the chain length is a
//! random variable: `O(1)` expected, `O(log n)` with high probability, but
//! with **no deterministic bound**. Experiment E6 exhibits exactly this:
//! `memory_words()` here has a growing maximum over the stream's life, while
//! the paper's `SeqSamplerWr` has a hard ceiling.
//!
//! Ingestion is skip-based, so throughput comparisons against the paper's
//! samplers pit optimized implementations against each other: adoption
//! events are independent Bernoulli(1/min(count, n+1)), so each instance
//! precomputes its next-adoption count (exact record-process skip during
//! warm-up, geometric skip in the constant-probability tail) and
//! non-adopted arrivals cost zero RNG draws. The warm-up skips draw their
//! octave-search coins from one sampler-wide [`BitSource`] — 64 coins
//! per RNG word across all `k` chains (`draws_pack_warmup_coins` below
//! pins the saving). Batched ingestion is **event-driven**: a min-heap
//! over the lanes' next-event counts (scheduled adoption or awaited
//! successor arrival) jumps from event to event, so a batch costs
//! O(events · log k) instead of O(batch · k) lane scans — and, because
//! events process in (count, lane) order, is bit-identical to
//! per-element ingestion (`batch_is_bit_identical_to_per_element`).

use rand::Rng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use swsample_core::rngutil::BitSource;
use swsample_core::skip::{geometric_skip, record_skip_with_bits};
use swsample_core::state::{self, BitsState, ChainLaneState, SamplerState, StateError};
use swsample_core::{MemoryWords, Sample, WindowSampler};

/// One chain: the current sample at the front, successors behind it, plus
/// a precomputed **next-adoption count** so non-adopted arrivals cost no
/// RNG draws (the same skip-ahead idea as the paper's samplers; see
/// `swsample_core::skip`).
#[derive(Debug, Clone)]
struct ChainInstance<T> {
    /// `(element, successor index)` pairs in arrival order.
    links: VecDeque<(Sample<T>, u64)>,
    /// 1-based arrival count of the next adoption (the skip counter).
    next_adopt: u64,
}

impl<T: Clone> ChainInstance<T> {
    fn new() -> Self {
        Self {
            links: VecDeque::new(),
            // Count 1 adopts with probability 1/min(1, n+1) = 1.
            next_adopt: 1,
        }
    }

    /// Draw the next adoption count after an adoption at count `m`.
    ///
    /// The adoption probability at count `c` is 1/min(c, n+1): a record
    /// process while `c ≤ n+1` (exact integer skip) and a constant
    /// Bernoulli(1/(n+1)) afterwards (geometric skip). During warm-up
    /// this is plain reservoir sampling. After warm-up the correct
    /// adoption probability is 1/(n+1), not 1/n: expiry promotion already
    /// feeds probability 1/n² to every window position (the expiring
    /// sample's successor is uniform over the new window), and solving
    ///   p + (1−p)/n² = (1−p)(1/n + 1/n²)
    /// for uniformity gives p = 1/(n+1). (With 1/n the newest elements
    /// are over-sampled by ≈1/n — the bias is measurable, and the test
    /// `uniform_over_window` below catches it.)
    fn schedule_next_adopt<R: Rng>(&mut self, rng: &mut R, bits: &mut BitSource, m: u64, n: u64) {
        let den = n + 1;
        let base = if m < den {
            match record_skip_with_bits(rng, bits, m, den) {
                Some(c) => {
                    self.next_adopt = c;
                    return;
                }
                None => den, // no adoption through count n+1
            }
        } else {
            m
        };
        // Constant-probability tail: counts beyond n+1 adopt with
        // probability exactly 1/(n+1) each.
        self.next_adopt = base + 1 + geometric_skip(rng, den);
    }

    fn insert<R: Rng>(&mut self, rng: &mut R, bits: &mut BitSource, value: &T, idx: u64, n: u64) {
        let count = idx + 1;
        if count == self.next_adopt {
            self.links.clear();
            let succ = idx + 1 + rng.gen_range(0..n);
            self.links
                .push_back((Sample::new(value.clone(), idx, idx), succ));
            self.schedule_next_adopt(rng, bits, count, n);
        } else if self.links.back().is_some_and(|(_, succ)| *succ == idx) {
            // The awaited successor arrived: extend the chain.
            let succ = idx + 1 + rng.gen_range(0..n);
            self.links
                .push_back((Sample::new(value.clone(), idx, idx), succ));
        }
        // Expire from the front; the next link becomes the sample.
        let oldest_active = count.saturating_sub(n);
        while self
            .links
            .front()
            .is_some_and(|(s, _)| s.index() < oldest_active)
        {
            self.links.pop_front();
        }
    }

    fn sample(&self) -> Option<&Sample<T>> {
        self.links.front().map(|(s, _)| s)
    }

    /// 1-based arrival count of this chain's next *event* — the earlier
    /// of its scheduled adoption and its awaited successor's arrival
    /// (`u64::MAX` when no successor is pending). Arrivals before this
    /// count leave the chain untouched apart from front expiry, which
    /// commutes with everything and can be applied at batch end.
    fn next_event(&self) -> u64 {
        let succ = self
            .links
            .back()
            .map_or(u64::MAX, |&(_, succ)| succ.saturating_add(1));
        self.next_adopt.min(succ)
    }
}

impl<T> ChainInstance<T> {
    fn words(&self) -> usize {
        // Each link: value + index + ts + successor index; plus the skip
        // counter.
        self.links.len() * 4 + 1
    }
}

/// `k` independent chain samplers over the last `n` arrivals — sampling with
/// replacement, expected `O(k)` but randomized memory.
#[derive(Debug, Clone)]
pub struct ChainSampler<T, R> {
    n: u64,
    count: u64,
    rng: R,
    /// Shared coin buffer for every instance's record-process octave
    /// search — one RNG word serves 64 coins across all k chains (RNG
    /// state, excluded from the word accounting).
    bits: BitSource,
    chains: Vec<ChainInstance<T>>,
}

impl<T: Clone, R: Rng> ChainSampler<T, R> {
    /// Chain sampler for windows of the last `n ≥ 1` arrivals with `k ≥ 1`
    /// independent samples.
    pub fn new(n: u64, k: usize, rng: R) -> Self {
        assert!(n >= 1 && k >= 1);
        assert!(n < 1 << 62, "ChainSampler: window size too large");
        Self {
            n,
            count: 0,
            rng,
            bits: BitSource::new(),
            chains: (0..k).map(|_| ChainInstance::new()).collect(),
        }
    }

    /// Length of the longest successor chain (the randomized-memory culprit).
    pub fn max_chain_len(&self) -> usize {
        self.chains.iter().map(|c| c.links.len()).max().unwrap_or(0)
    }
}

impl<T, R> MemoryWords for ChainSampler<T, R> {
    fn memory_words(&self) -> usize {
        self.chains.iter().map(ChainInstance::words).sum::<usize>() + 2
    }
}

impl<T: Clone, R: Rng + 'static> WindowSampler<T> for ChainSampler<T, R> {
    fn insert(&mut self, value: T) {
        let idx = self.count;
        for c in &mut self.chains {
            c.insert(&mut self.rng, &mut self.bits, &value, idx, self.n);
        }
        self.count += 1;
    }

    fn insert_batch(&mut self, values: &[T])
    where
        T: Clone,
    {
        // Event-driven: a chain only does work at its *events* —
        // scheduled adoptions and awaited successor arrivals, both known
        // in advance — so instead of scanning every lane for every
        // element (O(batch·k)), a min-heap over the lanes' next-event
        // counts jumps straight from event to event:
        // O(events · log k + k) per batch, with adoptions arriving at
        // rate 1/min(count, n+1) per lane and successor arrivals at a
        // comparable rate. Front expiry is deferred to batch end — it
        // only pops links that the final count expires anyway, and the
        // awaited *back* link can never be expiry-popped before its
        // successor arrives (succ ≤ idx + n, so the successor lands at
        // count ≤ idx + n + 1, exactly when per-element code would trim
        // idx — and it trims *after* extending).
        if values.is_empty() {
            return;
        }
        let first = self.count;
        let n = self.n;
        let end_count = first + values.len() as u64;
        // Lanes with an event inside this batch, keyed (count, lane) so
        // same-count events process in lane order — the per-element
        // path's lane iteration order, keeping RNG consumption aligned.
        let mut events: BinaryHeap<Reverse<(u64, u32)>> =
            BinaryHeap::with_capacity(self.chains.len());
        for (ci, c) in self.chains.iter().enumerate() {
            let ev = c.next_event();
            if ev <= end_count {
                events.push(Reverse((ev, ci as u32)));
            }
        }
        while let Some(Reverse((count, ci))) = events.pop() {
            let c = &mut self.chains[ci as usize];
            debug_assert_eq!(c.next_event(), count, "stale heap entry");
            let idx = count - 1;
            let value = &values[(idx - first) as usize];
            let succ = idx + 1 + self.rng.gen_range(0..n);
            if count == c.next_adopt {
                c.links.clear();
                c.links
                    .push_back((Sample::new(value.clone(), idx, idx), succ));
                c.schedule_next_adopt(&mut self.rng, &mut self.bits, count, n);
            } else {
                // The awaited successor arrived: extend the chain.
                c.links
                    .push_back((Sample::new(value.clone(), idx, idx), succ));
            }
            let next = c.next_event();
            if next <= end_count {
                events.push(Reverse((next, ci)));
            }
        }
        self.count = end_count;
        // Deferred front expiry: identical final state to per-element
        // trimming (trim sets only grow with the count).
        let oldest_active = end_count.saturating_sub(n);
        for c in &mut self.chains {
            while c
                .links
                .front()
                .is_some_and(|(s, _)| s.index() < oldest_active)
            {
                c.links.pop_front();
            }
        }
    }

    fn sample(&self) -> Option<Sample<T>> {
        self.chains[0].sample().cloned()
    }

    fn sample_k(&self) -> Option<Vec<Sample<T>>> {
        self.chains.iter().map(|c| c.sample().cloned()).collect()
    }

    fn k(&self) -> usize {
        self.chains.len()
    }

    fn save_state(&self) -> Option<SamplerState<T>> {
        let (buf, left) = self.bits.state();
        Some(SamplerState::Chain {
            count: self.count,
            rng: state::capture_rng(&self.rng)?,
            bits: BitsState { buf, left },
            chains: self
                .chains
                .iter()
                .map(|c| ChainLaneState {
                    links: c.links.iter().cloned().collect(),
                    next_adopt: c.next_adopt,
                })
                .collect(),
        })
    }

    fn restore_state(&mut self, state: SamplerState<T>) -> Result<(), StateError> {
        let (count, rng, bits, chains) = match state {
            SamplerState::Chain {
                count,
                rng,
                bits,
                chains,
            } => (count, rng, bits, chains),
            other => {
                return Err(StateError::Mismatch {
                    expected: "chain",
                    found: other.family(),
                })
            }
        };
        if chains.len() != self.chains.len() {
            return Err(StateError::Corrupt(format!(
                "chain state has {} lanes for k = {}",
                chains.len(),
                self.chains.len()
            )));
        }
        if !state::restore_rng(&mut self.rng, &rng) {
            return Err(StateError::Unsupported);
        }
        self.bits = BitSource::from_state(bits.buf, bits.left);
        for (c, st) in self.chains.iter_mut().zip(chains) {
            c.links = st.links.into();
            c.next_adopt = st.next_adopt;
        }
        self.count = count;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use swsample_stats::chi_square_uniform_test;

    #[test]
    fn empty_returns_none() {
        let s: ChainSampler<u64, _> = ChainSampler::new(10, 2, SmallRng::seed_from_u64(0));
        assert!(s.sample().is_none());
    }

    #[test]
    fn sample_always_in_window() {
        let mut s = ChainSampler::new(9, 3, SmallRng::seed_from_u64(1));
        for i in 0..400u64 {
            s.insert(i);
            for smp in s.sample_k().expect("nonempty") {
                assert!(smp.index() + 9 > i, "expired sample {} at {i}", smp.index());
            }
        }
    }

    #[test]
    fn uniform_over_window() {
        let n = 12u64;
        let stop = 40u64;
        let trials = 25_000u64;
        let mut counts = vec![0u64; n as usize];
        for t in 0..trials {
            let mut s = ChainSampler::new(n, 1, SmallRng::seed_from_u64(10_000 + t));
            for i in 0..stop {
                s.insert(i);
            }
            counts[(s.sample().expect("nonempty").index() - (stop - n)) as usize] += 1;
        }
        let out = chi_square_uniform_test(&counts);
        assert!(
            out.p_value > 1e-4,
            "chain sampling not uniform: p = {}",
            out.p_value
        );
    }

    #[test]
    fn draws_pack_warmup_coins() {
        use swsample_core::rng::CountingRng;
        // Warm-up regime (count ≤ n+1): every adoption schedules the next
        // one through a record skip whose octave coins now come from the
        // shared BitSource. Per chain the warm-up costs ~H(n) ≈ 11.7
        // adoptions and a similar number of chain extensions; each pays
        // ~1 successor draw plus ~2.6 rejection-phase words, while the
        // ~2 octave coins per skip cost 1/64 word each instead of a full
        // word. With n = 2¹⁶, k = 8 the packed total must stay under
        // k·(5·H(n) + 16) ≈ 595 words; unpacked octave coins alone add
        // back ≈ 2·H(n)·k ≈ 190 words and push past it.
        let n = 1u64 << 16;
        let k = 8usize;
        let rng = CountingRng::new(SmallRng::seed_from_u64(7));
        let mut s = ChainSampler::new(n, k, rng);
        for i in 0..n {
            s.insert(i);
        }
        let words = s.rng.words();
        let h_n = (n as f64).ln() + 0.5772;
        let cap = (k as f64 * (5.0 * h_n + 16.0)) as u64;
        assert!(
            words <= cap,
            "warm-up drew {words} words > packed cap {cap}"
        );
    }

    /// The event-driven batch path consumes RNG in exactly the
    /// per-element order ((count, lane) ascending — the same order the
    /// per-element loop visits lanes), so batch and per-element
    /// ingestion are bit-identical for any chunking — a stronger
    /// property than the pre-event-driven chain-major batch path had.
    #[test]
    fn batch_is_bit_identical_to_per_element() {
        for chunk in [1usize, 7, 64, 1000] {
            let (n, k) = (50u64, 5usize);
            let mut single = ChainSampler::new(n, k, SmallRng::seed_from_u64(21));
            let mut batched = ChainSampler::new(n, k, SmallRng::seed_from_u64(21));
            let values: Vec<u64> = (0..3_000).collect();
            for &v in &values {
                single.insert(v);
            }
            for c in values.chunks(chunk) {
                batched.insert_batch(c);
            }
            assert_eq!(
                single.sample_k(),
                batched.sample_k(),
                "chunk={chunk}: batch diverges from per-element"
            );
            assert_eq!(single.memory_words(), batched.memory_words());
            assert_eq!(single.max_chain_len(), batched.max_chain_len());
        }
    }

    /// Event-driven batches do O(events) work, and events cost O(1)
    /// draws — so the draw count must stay tiny relative to batch·k.
    #[test]
    fn batch_draw_count_tracks_events_not_elements() {
        use swsample_core::rng::CountingRng;
        let (n, k, total) = (10_000u64, 16usize, 100_000u64);
        let rng = CountingRng::new(SmallRng::seed_from_u64(4));
        let mut s = ChainSampler::new(n, k, rng);
        let values: Vec<u64> = (0..total).collect();
        for c in values.chunks(1024) {
            s.insert_batch(c);
        }
        let words = s.rng.words();
        // Steady state: ~1/(n+1) adoptions per lane per element, each
        // O(1) draws, plus comparable successor extensions and warm-up.
        // 8·k·(total/n + H(n)) is a generous ceiling; the per-element
        // path consumed the same (the paths are bit-identical) but the
        // *time* no longer scales with batch·k.
        let h_n = (n as f64).ln() + 0.58;
        let cap = (8.0 * k as f64 * (total as f64 / n as f64 + h_n)) as u64;
        assert!(words <= cap, "batch ingestion drew {words} words > {cap}");
    }

    #[test]
    fn chain_length_fluctuates() {
        // The chain is a random variable: over a long stream it must exceed
        // 2 at some point (randomized bound) for window 64.
        let mut s = ChainSampler::new(64, 1, SmallRng::seed_from_u64(5));
        let mut max_len = 0;
        for i in 0..20_000u64 {
            s.insert(i);
            max_len = max_len.max(s.max_chain_len());
        }
        assert!(max_len > 2, "chain never grew: {max_len}");
    }
}
