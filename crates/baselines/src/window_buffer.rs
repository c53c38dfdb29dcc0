//! The trivial exact method: buffer the entire window (Zhang, Li, Yu, Wang,
//! Jiang — "random sampling algorithms for sliding windows", 2005).
//!
//! `O(n)` memory — "applicable only for small windows" as the paper notes —
//! but exact: it doubles as ground truth for tests and as the memory-cost
//! yardstick in experiment E6. Supports both window disciplines.

use rand::Rng;
use std::collections::VecDeque;
use swsample_core::rngutil::query_rng;
use swsample_core::state::{self, SamplerState, StateError};
use swsample_core::{MemoryWords, Sample, WindowSampler};
use swsample_stream::WindowSpec;

/// Full-window buffer sampler (both disciplines).
#[derive(Debug, Clone)]
pub struct WindowBuffer<T, R> {
    spec: WindowSpec,
    k: usize,
    now: u64,
    next_index: u64,
    rng: R,
    buf: VecDeque<Sample<T>>,
}

impl<T: Clone, R: Rng> WindowBuffer<T, R> {
    /// Buffer sampler for the given window discipline, answering `k`-sample
    /// queries (without replacement).
    pub fn new(spec: WindowSpec, k: usize, rng: R) -> Self {
        assert!(k >= 1 && spec.parameter() >= 1);
        Self {
            spec,
            k,
            now: 0,
            next_index: 0,
            rng,
            buf: VecDeque::new(),
        }
    }

    fn expire(&mut self) {
        let newest = self.next_index.saturating_sub(1);
        let (spec, now) = (self.spec, self.now);
        while self
            .buf
            .front()
            .is_some_and(|s| !spec.is_active(s.index(), s.timestamp(), newest, now))
        {
            self.buf.pop_front();
        }
    }

    /// Stamp and store one arrival (no expiry — callers expire once per
    /// insert or once per batch).
    fn push_one(&mut self, value: T) {
        let ts = match self.spec {
            WindowSpec::Sequence(_) => self.next_index,
            WindowSpec::Timestamp(_) => self.now,
        };
        self.buf.push_back(Sample::new(value, self.next_index, ts));
        self.next_index += 1;
    }

    /// The exact active window content, oldest first.
    pub fn window_contents(&self) -> impl Iterator<Item = &Sample<T>> {
        self.buf.iter()
    }

    /// Number of active elements (exact).
    pub fn active_len(&self) -> usize {
        self.buf.len()
    }
}

impl<T, R> MemoryWords for WindowBuffer<T, R> {
    fn memory_words(&self) -> usize {
        self.buf.len() * Sample::<T>::WORDS + 4
    }
}

impl<T: Clone, R: Rng + Clone + 'static> WindowSampler<T> for WindowBuffer<T, R> {
    fn advance_time(&mut self, now: u64) {
        assert!(now >= self.now, "WindowBuffer: clock moved backwards");
        self.now = now;
        self.expire();
    }

    fn insert(&mut self, value: T) {
        self.push_one(value);
        self.expire();
    }

    fn insert_batch(&mut self, values: &[T])
    where
        T: Clone,
    {
        // Push the whole run, then expire once: one front-trim instead of
        // one per element.
        for v in values {
            self.push_one(v.clone());
        }
        self.expire();
    }

    fn sample(&self) -> Option<Sample<T>> {
        if self.buf.is_empty() {
            return None;
        }
        let j = query_rng(&self.rng, self.next_index, self.now).gen_range(0..self.buf.len());
        Some(self.buf[j].clone())
    }

    fn sample_k(&self) -> Option<Vec<Sample<T>>> {
        if self.buf.is_empty() {
            return None;
        }
        // Partial Fisher–Yates over buffer positions.
        let take = self.k.min(self.buf.len());
        let mut order: Vec<usize> = (0..self.buf.len()).collect();
        let mut out = Vec::with_capacity(take);
        let mut rng = query_rng(&self.rng, self.next_index, self.now);
        for step in 0..take {
            let j = rng.gen_range(step..order.len());
            order.swap(step, j);
            out.push(self.buf[order[step]].clone());
        }
        Some(out)
    }

    fn k(&self) -> usize {
        self.k
    }

    fn save_state(&self) -> Option<SamplerState<T>> {
        Some(SamplerState::WindowBuffer {
            now: self.now,
            next_index: self.next_index,
            rng: state::capture_rng(&self.rng)?,
            buf: self.buf.iter().cloned().collect(),
        })
    }

    fn restore_state(&mut self, state: SamplerState<T>) -> Result<(), StateError> {
        let (now, next_index, rng, buf) = match state {
            SamplerState::WindowBuffer {
                now,
                next_index,
                rng,
                buf,
            } => (now, next_index, rng, buf),
            other => {
                return Err(StateError::Mismatch {
                    expected: "window-buffer",
                    found: other.family(),
                })
            }
        };
        if !state::restore_rng(&mut self.rng, &rng) {
            return Err(StateError::Unsupported);
        }
        self.buf = buf.into();
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

    #[test]
    fn sequence_discipline_keeps_last_n() {
        let mut s = WindowBuffer::new(WindowSpec::Sequence(5), 2, SmallRng::seed_from_u64(0));
        for i in 0..12u64 {
            s.insert(i);
        }
        assert_eq!(s.active_len(), 5);
        let contents: Vec<u64> = s.window_contents().map(|x| x.index()).collect();
        assert_eq!(contents, vec![7, 8, 9, 10, 11]);
    }

    #[test]
    fn timestamp_discipline_expires_by_clock() {
        let mut s = WindowBuffer::new(WindowSpec::Timestamp(3), 1, SmallRng::seed_from_u64(1));
        for tick in 0..10u64 {
            s.advance_time(tick);
            s.insert(tick);
        }
        // Active at tick 9: ts in {7, 8, 9}.
        assert_eq!(s.active_len(), 3);
    }

    #[test]
    fn memory_is_linear_in_window() {
        let mut s = WindowBuffer::new(WindowSpec::Sequence(100), 1, SmallRng::seed_from_u64(2));
        for i in 0..500u64 {
            s.insert(i);
        }
        assert!(s.memory_words() >= 300, "expected O(n) memory");
    }

    #[test]
    fn sample_k_distinct_and_capped() {
        let mut s = WindowBuffer::new(WindowSpec::Sequence(10), 4, SmallRng::seed_from_u64(3));
        for i in 0..30u64 {
            s.insert(i);
        }
        let out = s.sample_k().expect("nonempty");
        assert_eq!(out.len(), 4);
        let mut idx: Vec<u64> = out.iter().map(|x| x.index()).collect();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), 4);
        // Smaller window than k: returns everything.
        let mut tiny = WindowBuffer::new(WindowSpec::Sequence(2), 4, SmallRng::seed_from_u64(4));
        tiny.insert(1u64);
        tiny.insert(2u64);
        assert_eq!(tiny.sample_k().expect("nonempty").len(), 2);
    }

    #[test]
    fn empty_returns_none() {
        let s: WindowBuffer<u64, _> =
            WindowBuffer::new(WindowSpec::Timestamp(5), 1, SmallRng::seed_from_u64(5));
        assert!(s.sample().is_none());
        assert!(s.sample_k().is_none());
    }
}
