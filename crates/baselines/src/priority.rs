//! Priority sampling (Babcock, Datar, Motwani — SODA'02) for
//! timestamp-based windows.
//!
//! Every element draws a uniform priority; the window sample is the active
//! element of highest priority. It suffices to store the *right-maxima*:
//! elements whose priority exceeds that of every later element — the
//! stored set forms a descending-priority list whose head is always the
//! answer. The expected stored count over a window of `n` elements is
//! `H_n = Θ(log n)` per instance, but the bound is randomized: no
//! deterministic ceiling exists (Lemma 3.10's schedule forces `Ω(log n)`
//! *and* the constant is luck-dependent — see experiments E4/E6).
//!
//! Unlike reservoir-style acceptance (see `swsample_core::skip`), priority
//! sampling admits **no** skip-ahead: every arrival is provisionally a
//! right-maximum (it is the newest active element, hence survives expiry
//! the longest) and so must draw a priority and be pushed; there are no
//! "non-accepted" arrivals to hop over. The optimized form here instead
//! (a) draws raw `u64` priorities — one RNG word and an integer compare,
//! no floating-point conversion (ties have probability ≈ n²·2⁻⁶⁴,
//! statistically invisible) — and (b) ingests batches instance-major so
//! each right-maxima deque stays hot in cache.
//!
//! # Why the `k` priorities per element cannot be shared
//!
//! The `k` draws per arrival (`draws_per_element = k` in
//! `BENCH_throughput.json`) look redundant next to
//! [`PriorityTopK`](crate::PriorityTopK), which draws **one** priority per
//! element for a whole `k`-sample. The difference is the sampling mode.
//! `PriorityTopK` answers the *without-replacement* query: the top-`k`
//! priorities of distinct elements are automatically distinct elements,
//! so one priority per element suffices. `PrioritySampler` answers the
//! *with-replacement* query of BDM'02: `k` **mutually independent**
//! uniform samples. An element's priority is the sole source of
//! randomness in an instance's answer — two instances fed identical
//! priorities maintain identical right-maxima lists and return the *same*
//! element forever, collapsing the joint distribution from the product of
//! uniforms to its diagonal (every WR estimator built on independence,
//! e.g. variance via independent replicas, silently breaks). So the
//! replication is load-bearing, not waste:
//! `shared_priorities_collapse_the_joint_distribution` below demonstrates
//! the collapse, and `k_instances_are_mutually_independent` pins the
//! product law that the per-instance draws buy.

use rand::Rng;
use std::collections::VecDeque;
use swsample_core::state::{self, SamplerState, StateError};
use swsample_core::{MemoryWords, Sample, WindowSampler};

/// One priority-sampling instance: the right-maxima list.
#[derive(Debug, Clone)]
struct PriorityInstance<T> {
    /// `(element, priority)`, descending priority, ascending arrival.
    stack: VecDeque<(Sample<T>, u64)>,
}

impl<T: Clone> PriorityInstance<T> {
    fn new() -> Self {
        Self {
            stack: VecDeque::new(),
        }
    }

    fn insert<R: Rng>(&mut self, rng: &mut R, value: &T, idx: u64, ts: u64) {
        let priority: u64 = rng.gen();
        while self.stack.back().is_some_and(|(_, p)| *p < priority) {
            self.stack.pop_back();
        }
        self.stack
            .push_back((Sample::new(value.clone(), idx, ts), priority));
    }

    fn expire(&mut self, now: u64, t0: u64) {
        while self
            .stack
            .front()
            .is_some_and(|(s, _)| now - s.timestamp() >= t0)
        {
            self.stack.pop_front();
        }
    }

    fn sample(&self) -> Option<&Sample<T>> {
        self.stack.front().map(|(s, _)| s)
    }
}

impl<T> PriorityInstance<T> {
    fn words(&self) -> usize {
        // value + index + ts + priority per stored element.
        self.stack.len() * 4
    }
}

/// `k` independent priority samplers over a timestamp window of width `t0`
/// — sampling with replacement, expected `O(k log n)` but randomized memory.
#[derive(Debug, Clone)]
pub struct PrioritySampler<T, R> {
    t0: u64,
    now: u64,
    next_index: u64,
    rng: R,
    instances: Vec<PriorityInstance<T>>,
}

impl<T: Clone, R: Rng> PrioritySampler<T, R> {
    /// Priority sampler over windows of width `t0 ≥ 1` with `k ≥ 1`
    /// independent samples.
    pub fn new(t0: u64, k: usize, rng: R) -> Self {
        assert!(t0 >= 1 && k >= 1);
        Self {
            t0,
            now: 0,
            next_index: 0,
            rng,
            instances: (0..k).map(|_| PriorityInstance::new()).collect(),
        }
    }

    /// Largest stored right-maxima list across instances.
    pub fn max_stored(&self) -> usize {
        self.instances
            .iter()
            .map(|i| i.stack.len())
            .max()
            .unwrap_or(0)
    }
}

impl<T, R> MemoryWords for PrioritySampler<T, R> {
    fn memory_words(&self) -> usize {
        self.instances
            .iter()
            .map(PriorityInstance::words)
            .sum::<usize>()
            + 3
    }
}

impl<T: Clone, R: Rng + 'static> WindowSampler<T> for PrioritySampler<T, R> {
    fn advance_time(&mut self, now: u64) {
        assert!(now >= self.now, "PrioritySampler: clock moved backwards");
        self.now = now;
        for i in &mut self.instances {
            i.expire(now, self.t0);
        }
    }

    fn insert(&mut self, value: T) {
        let idx = self.next_index;
        self.next_index += 1;
        for i in &mut self.instances {
            i.insert(&mut self.rng, &value, idx, self.now);
        }
    }

    fn insert_batch(&mut self, values: &[T])
    where
        T: Clone,
    {
        // Instance-major: each right-maxima deque consumes the whole run
        // while hot in cache (no skip exists for priority sampling — see
        // the module docs — so locality is the available win).
        let first = self.next_index;
        let now = self.now;
        for inst in &mut self.instances {
            for (j, v) in values.iter().enumerate() {
                inst.insert(&mut self.rng, v, first + j as u64, now);
            }
        }
        self.next_index += values.len() as u64;
    }

    fn sample(&self) -> Option<Sample<T>> {
        self.instances[0].sample().cloned()
    }

    fn sample_k(&self) -> Option<Vec<Sample<T>>> {
        self.instances.iter().map(|i| i.sample().cloned()).collect()
    }

    fn k(&self) -> usize {
        self.instances.len()
    }

    fn save_state(&self) -> Option<SamplerState<T>> {
        Some(SamplerState::Priority {
            now: self.now,
            next_index: self.next_index,
            rng: state::capture_rng(&self.rng)?,
            stacks: self
                .instances
                .iter()
                .map(|i| i.stack.iter().cloned().collect())
                .collect(),
        })
    }

    fn restore_state(&mut self, state: SamplerState<T>) -> Result<(), StateError> {
        let (now, next_index, rng, stacks) = match state {
            SamplerState::Priority {
                now,
                next_index,
                rng,
                stacks,
            } => (now, next_index, rng, stacks),
            other => {
                return Err(StateError::Mismatch {
                    expected: "priority",
                    found: other.family(),
                })
            }
        };
        if stacks.len() != self.instances.len() {
            return Err(StateError::Corrupt(format!(
                "priority state has {} stacks for k = {}",
                stacks.len(),
                self.instances.len()
            )));
        }
        if !state::restore_rng(&mut self.rng, &rng) {
            return Err(StateError::Unsupported);
        }
        for (inst, stack) in self.instances.iter_mut().zip(stacks) {
            inst.stack = stack.into();
        }
        self.now = now;
        self.next_index = next_index;
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
        let s: PrioritySampler<u64, _> = PrioritySampler::new(5, 1, SmallRng::seed_from_u64(0));
        assert!(s.sample().is_none());
    }

    #[test]
    fn sample_always_active() {
        let mut s = PrioritySampler::new(6, 2, SmallRng::seed_from_u64(1));
        for tick in 0..300u64 {
            s.advance_time(tick);
            s.insert(tick);
            for smp in s.sample_k().expect("nonempty") {
                assert!(tick - smp.timestamp() < 6);
            }
        }
    }

    #[test]
    fn uniform_over_window() {
        let t0 = 10u64;
        let ticks = 35u64;
        let trials = 25_000u64;
        let mut counts = vec![0u64; t0 as usize];
        for t in 0..trials {
            let mut s = PrioritySampler::new(t0, 1, SmallRng::seed_from_u64(20_000 + t));
            for tick in 0..ticks {
                s.advance_time(tick);
                s.insert(tick);
            }
            counts[(s.sample().expect("nonempty").index() - (ticks - t0)) as usize] += 1;
        }
        let out = chi_square_uniform_test(&counts);
        assert!(
            out.p_value > 1e-4,
            "priority sampling not uniform: p = {}",
            out.p_value
        );
    }

    #[test]
    fn k_instances_are_mutually_independent() {
        // k = 2 over a 4-element window: the joint law over the 16 cells
        // must be the product of uniforms — this is what the k priority
        // draws per element pay for (see the module docs).
        let t0 = 4u64;
        let ticks = 12u64;
        let trials = 40_000u64;
        let mut counts = vec![0u64; (t0 * t0) as usize];
        for t in 0..trials {
            let mut s = PrioritySampler::new(t0, 2, SmallRng::seed_from_u64(70_000 + t));
            for tick in 0..ticks {
                s.advance_time(tick);
                s.insert(tick);
            }
            let got = s.sample_k().expect("nonempty");
            let a = got[0].index() - (ticks - t0);
            let b = got[1].index() - (ticks - t0);
            counts[(a * t0 + b) as usize] += 1;
        }
        let out = chi_square_uniform_test(&counts);
        assert!(
            out.p_value > 1e-4,
            "k=2 joint not product-uniform: p = {}",
            out.p_value
        );
    }

    #[test]
    fn shared_priorities_collapse_the_joint_distribution() {
        // The "optimization" the bench numbers suggest — one shared
        // priority per element across instances — is exactly two instances
        // consuming the same priority stream. Identically-seeded k = 1
        // samplers realize that: they agree on *every* query over a long
        // bursty stream, i.e. the joint distribution degenerates to the
        // diagonal instead of the 1/n² product. This is why
        // PrioritySampler must draw k priorities per element while
        // PriorityTopK (WOR semantics) needs only one.
        let mut a = PrioritySampler::new(16, 1, SmallRng::seed_from_u64(42));
        let mut b = PrioritySampler::new(16, 1, SmallRng::seed_from_u64(42));
        let mut sched = SmallRng::seed_from_u64(5);
        let mut idx = 0u64;
        let mut queries = 0u64;
        for tick in 0..500u64 {
            a.advance_time(tick);
            b.advance_time(tick);
            for _ in 0..sched.gen_range(0..4u64) {
                a.insert(idx);
                b.insert(idx);
                idx += 1;
            }
            if let (Some(sa), Some(sb)) = (a.sample(), b.sample()) {
                assert_eq!(
                    sa.index(),
                    sb.index(),
                    "shared priorities must force identical samples (tick {tick})"
                );
                queries += 1;
            }
        }
        // With n ≈ 16·2 active elements, independent instances would agree
        // on ≈ 1/n of queries; perfect agreement over hundreds of queries
        // is the collapse.
        assert!(queries > 400, "collapse demo needs many nonempty queries");
    }

    #[test]
    fn stored_count_fluctuates_logarithmically() {
        let mut s = PrioritySampler::new(1024, 1, SmallRng::seed_from_u64(3));
        let mut max_stored = 0;
        for tick in 0..20_000u64 {
            s.advance_time(tick);
            s.insert(tick);
            max_stored = max_stored.max(s.max_stored());
        }
        // Expected H_1024 ~ 7.5; the max over a long run must exceed that,
        // demonstrating the randomized bound.
        assert!(max_stored >= 8, "stored never grew: {max_stored}");
    }

    #[test]
    fn total_expiry_empties() {
        let mut s = PrioritySampler::new(4, 1, SmallRng::seed_from_u64(4));
        s.advance_time(0);
        s.insert(9u64);
        s.advance_time(100);
        assert!(s.sample().is_none());
    }
}
