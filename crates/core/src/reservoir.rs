//! Reservoir sampling over insertion-only streams (Vitter \[60\], Li \[53\]).
//!
//! Reservoirs are the paper's per-bucket building block: §2 runs one
//! reservoir per equivalent-width bucket, and the independence argument of
//! §1.3.4 leans on the reservoir property that the sample held after `i`
//! arrivals is independent of which elements survive later replacements.
//!
//! Two interchangeable k-sample implementations are provided:
//!
//! * [`ReservoirK`] — Vitter's Algorithm R: one RNG draw per arrival.
//! * [`ReservoirL`] — Li's Algorithm L: geometric skip generation, `O(k (1 +
//!   log(N/k)))` RNG draws total. Same distribution, cheaper inner loop;
//!   benchmarked against Algorithm R in the `reservoir_ablation` bench
//!   (experiment E13).
//!
//! plus the single-sample specialization [`ReservoirOne`], and
//! [`StreamReservoir`], Algorithm L over the entire stream as a
//! [`WindowSampler`].

use crate::memory::MemoryWords;
use crate::rngutil::query_rng;
use crate::sample::Sample;
use crate::state::{capture_rng, restore_rng, ReservoirLState, SamplerState, StateError};
use crate::traits::WindowSampler;
use rand::Rng;

/// Single uniform sample over an insertion-only stream (Algorithm R, k=1).
#[derive(Debug, Clone)]
pub struct ReservoirOne<T> {
    candidate: Option<Sample<T>>,
    seen: u64,
}

impl<T> Default for ReservoirOne<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ReservoirOne<T> {
    /// Empty reservoir.
    pub fn new() -> Self {
        Self {
            candidate: None,
            seen: 0,
        }
    }

    /// Offer the next stream element.
    pub fn insert<R: Rng>(&mut self, rng: &mut R, value: T, index: u64, timestamp: u64) {
        self.seen += 1;
        // Replace with probability 1/seen — Algorithm R.
        if self.seen == 1 || rng.gen_range(0..self.seen) == 0 {
            self.candidate = Some(Sample::new(value, index, timestamp));
        }
    }

    /// The current sample, if any element has been offered.
    pub fn sample(&self) -> Option<&Sample<T>> {
        self.candidate.as_ref()
    }

    /// Number of elements offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Forget everything (start a new bucket).
    pub fn reset(&mut self) {
        self.candidate = None;
        self.seen = 0;
    }

    /// Extract the sample, leaving the reservoir empty.
    pub fn take(&mut self) -> Option<Sample<T>> {
        self.seen = 0;
        self.candidate.take()
    }
}

impl<T> MemoryWords for ReservoirOne<T> {
    fn memory_words(&self) -> usize {
        // candidate (value, index, ts) + seen counter.
        self.candidate.as_ref().map_or(0, |_| Sample::<T>::WORDS) + 1
    }
}

/// Uniform `k`-sample *without replacement* over an insertion-only stream
/// (Vitter's Algorithm R).
///
/// While fewer than `k` elements have been offered, the reservoir holds all
/// of them.
#[derive(Debug, Clone)]
pub struct ReservoirK<T> {
    cap: usize,
    entries: Vec<Sample<T>>,
    seen: u64,
}

impl<T> ReservoirK<T> {
    /// Empty reservoir with capacity `k ≥ 1`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "ReservoirK: k must be at least 1");
        Self {
            cap: k,
            entries: Vec::with_capacity(k),
            seen: 0,
        }
    }

    /// Offer the next stream element.
    pub fn insert<R: Rng>(&mut self, rng: &mut R, value: T, index: u64, timestamp: u64) {
        self.seen += 1;
        if self.entries.len() < self.cap {
            self.entries.push(Sample::new(value, index, timestamp));
        } else {
            // Keep with probability k/seen, landing on a uniform slot.
            let j = rng.gen_range(0..self.seen) as usize;
            if j < self.cap {
                self.entries[j] = Sample::new(value, index, timestamp);
            }
        }
    }

    /// Current entries (all offered elements when `seen < k`).
    pub fn entries(&self) -> &[Sample<T>] {
        &self.entries
    }

    /// Number of elements offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Capacity `k`.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Forget everything (start a new bucket).
    pub fn reset(&mut self) {
        self.entries.clear();
        self.seen = 0;
    }

    /// Extract the entries, leaving the reservoir empty.
    pub fn take(&mut self) -> Vec<Sample<T>> {
        self.seen = 0;
        std::mem::take(&mut self.entries)
    }
}

impl<T> MemoryWords for ReservoirK<T> {
    fn memory_words(&self) -> usize {
        self.entries.len() * Sample::<T>::WORDS + 2 // entries + (seen, cap)
    }
}

/// Uniform `k`-sample without replacement via Li's Algorithm L \[53\]:
/// identical distribution to [`ReservoirK`], but consumes `O(k(1 +
/// log(N/k)))` random draws instead of `N` by skipping a geometric number
/// of elements between replacements.
#[derive(Debug, Clone)]
pub struct ReservoirL<T> {
    cap: usize,
    entries: Vec<Sample<T>>,
    seen: u64,
    /// Next 1-based arrival count at which a replacement happens.
    next_accept: u64,
    /// Algorithm L's running `W` state.
    w: f64,
}

impl<T> ReservoirL<T> {
    /// Empty reservoir with capacity `k ≥ 1`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "ReservoirL: k must be at least 1");
        Self {
            cap: k,
            entries: Vec::with_capacity(k),
            seen: 0,
            next_accept: 0,
            w: 1.0,
        }
    }

    fn advance_skip<R: Rng>(&mut self, rng: &mut R) {
        advance_skip_state(rng, self.cap, &mut self.w, &mut self.next_accept);
    }

    /// Offer the next stream element.
    pub fn insert<R: Rng>(&mut self, rng: &mut R, value: T, index: u64, timestamp: u64) {
        self.seen += 1;
        if self.entries.len() < self.cap {
            self.entries.push(Sample::new(value, index, timestamp));
            if self.entries.len() == self.cap {
                self.next_accept = self.seen;
                self.advance_skip(rng);
            }
            return;
        }
        if self.seen == self.next_accept {
            let slot = rng.gen_range(0..self.cap);
            self.entries[slot] = Sample::new(value, index, timestamp);
            self.advance_skip(rng);
        }
    }

    /// Offer a run of consecutive elements whose timestamps equal their
    /// stream indices (`first_index`, `first_index + 1`, …) — the shape
    /// sequence-window buckets ingest. Elements strictly between the
    /// current position and the precomputed next acceptance are skipped
    /// wholesale: zero clones, zero RNG draws, zero per-element work.
    pub fn insert_batch<R: Rng>(&mut self, rng: &mut R, values: &[T], first_index: u64)
    where
        T: Clone,
    {
        self.insert_run(rng, first_index, values.len() as u64, |i| {
            values[i as usize].clone()
        });
    }

    /// [`ReservoirL::insert_batch`] for callers whose values are not
    /// contiguous in memory: offer `m` consecutive elements with
    /// indices/timestamps `first_index..first_index + m`, materializing a
    /// value via `value_at(offset)` only when it is actually stored.
    pub fn insert_run<R: Rng>(
        &mut self,
        rng: &mut R,
        first_index: u64,
        m: u64,
        mut value_at: impl FnMut(u64) -> T,
    ) {
        let mut i = 0u64;
        while i < m {
            if self.entries.len() < self.cap {
                // Warm-up: every element is stored.
                let idx = first_index + i;
                self.insert(rng, value_at(i), idx, idx);
                i += 1;
                continue;
            }
            if self.seen + 1 < self.next_accept {
                let hop = (self.next_accept - self.seen - 1).min(m - i);
                self.seen += hop;
                i += hop;
                continue;
            }
            let idx = first_index + i;
            self.insert(rng, value_at(i), idx, idx);
            i += 1;
        }
    }

    /// Current entries (all offered elements when `seen < k`).
    pub fn entries(&self) -> &[Sample<T>] {
        &self.entries
    }

    /// Number of elements offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Capacity `k`.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Forget everything.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.seen = 0;
        self.next_accept = 0;
        self.w = 1.0;
    }

    /// Extract the entries, leaving the reservoir empty.
    pub fn take(&mut self) -> Vec<Sample<T>> {
        self.seen = 0;
        self.next_accept = 0;
        self.w = 1.0;
        std::mem::take(&mut self.entries)
    }

    /// Checkpoint the Algorithm L skip state as `(next_accept, W bits)`.
    /// `W` travels as raw IEEE-754 bits so a round trip is exact — the
    /// skip law would silently diverge under any decimal detour.
    pub(crate) fn skip_state(&self) -> (u64, u64) {
        (self.next_accept, self.w.to_bits())
    }

    /// Rebuild a reservoir from checkpointed parts. Entries beyond `cap`
    /// are rejected by the caller's decode layer, not here.
    pub(crate) fn from_parts(
        cap: usize,
        entries: Vec<Sample<T>>,
        seen: u64,
        next_accept: u64,
        w_bits: u64,
    ) -> Self {
        Self {
            cap,
            entries,
            seen,
            next_accept,
            w: f64::from_bits(w_bits),
        }
    }
}

impl<T> MemoryWords for ReservoirL<T> {
    fn memory_words(&self) -> usize {
        self.entries.len() * Sample::<T>::WORDS + 4 // entries + (seen, cap, next, w)
    }
}

/// Whole-stream `k`-sample without replacement (the sliding window is the
/// entire stream) — the paper's Question 1.2 reference point — ingesting
/// through Algorithm L's geometric skips: `O(k(1 + log(N/k)))` RNG draws
/// total instead of `N`. [`SamplerSpec::build`](crate::spec::SamplerSpec::build)
/// constructs it for `--algo reservoir-l`, and it checkpoints as
/// [`SamplerState::StreamL`].
#[derive(Debug, Clone)]
pub struct StreamReservoir<T, R> {
    inner: ReservoirL<T>,
    rng: R,
    next_index: u64,
}

impl<T: Clone, R: Rng> StreamReservoir<T, R> {
    /// Reservoir of capacity `k ≥ 1`.
    pub fn new(k: usize, rng: R) -> Self {
        Self {
            inner: ReservoirL::new(k),
            rng,
            next_index: 0,
        }
    }
}

impl<T, R> MemoryWords for StreamReservoir<T, R> {
    fn memory_words(&self) -> usize {
        self.inner.memory_words() + 1
    }
}

impl<T: Clone, R: Rng + Clone + 'static> WindowSampler<T> for StreamReservoir<T, R> {
    fn insert(&mut self, value: T) {
        let idx = self.next_index;
        self.next_index += 1;
        self.inner.insert(&mut self.rng, value, idx, idx);
    }

    fn insert_batch(&mut self, values: &[T])
    where
        T: Clone,
    {
        // Algorithm L's precomputed acceptance index lets the reservoir
        // hop over non-accepted arrivals wholesale.
        self.inner
            .insert_batch(&mut self.rng, values, self.next_index);
        self.next_index += values.len() as u64;
    }

    fn sample(&self) -> Option<Sample<T>> {
        let entries = self.inner.entries();
        if entries.is_empty() {
            return None;
        }
        let j = query_rng(&self.rng, self.next_index, 0).gen_range(0..entries.len());
        Some(entries[j].clone())
    }

    fn sample_k(&self) -> Option<Vec<Sample<T>>> {
        if self.inner.entries().is_empty() {
            None
        } else {
            Some(self.inner.entries().to_vec())
        }
    }

    fn k(&self) -> usize {
        self.inner.capacity()
    }

    fn save_state(&self) -> Option<SamplerState<T>> {
        let (next_accept, w_bits) = self.inner.skip_state();
        Some(SamplerState::StreamL {
            next_index: self.next_index,
            rng: capture_rng(&self.rng)?,
            res: ReservoirLState {
                entries: self.inner.entries().to_vec(),
                seen: self.inner.seen(),
                next_accept,
                w_bits,
            },
        })
    }

    /// Accepts only states a run can reach: a reachable reservoir (see
    /// [`ReservoirLState::check_reachable`]) and one stream index per
    /// arrival.
    fn restore_state(&mut self, state: SamplerState<T>) -> Result<(), StateError> {
        let (next_index, rng, res) = match state {
            SamplerState::StreamL {
                next_index,
                rng,
                res,
            } => (next_index, rng, res),
            other => {
                return Err(StateError::Mismatch {
                    expected: "stream-l",
                    found: other.family(),
                })
            }
        };
        let cap = self.inner.capacity();
        let corrupt = |m: String| Err(StateError::Corrupt(format!("stream-l {m}")));
        res.check_reachable(cap).or_else(corrupt)?;
        if next_index != res.seen {
            return corrupt(format!(
                "next index {next_index} differs from {} arrivals",
                res.seen
            ));
        }
        if !restore_rng(&mut self.rng, &rng) {
            return Err(StateError::Unsupported);
        }
        self.inner =
            ReservoirL::from_parts(cap, res.entries, res.seen, res.next_accept, res.w_bits);
        self.next_index = next_index;
        Ok(())
    }
}

impl<T> ReservoirLState<T> {
    /// `Ok` when a capacity-`cap` [`ReservoirL`] can reach this state:
    /// `min(seen, cap)` entries and — once full — a pending acceptance
    /// after `seen` with `W ∈ (0, 1]`; before that, the untouched skip
    /// schedule. Anything else could freeze the reservoir for good.
    pub fn check_reachable(&self, cap: usize) -> Result<(), String> {
        if self.entries.len() as u64 != self.seen.min(cap as u64) {
            return Err(format!(
                "reservoir has {} entries after {} arrivals at k = {cap}",
                self.entries.len(),
                self.seen
            ));
        }
        let w = f64::from_bits(self.w_bits);
        let reachable = if self.entries.len() == cap {
            self.next_accept > self.seen && w > 0.0 && w <= 1.0
        } else {
            self.next_accept == 0 && w == 1.0
        };
        if !reachable {
            return Err(format!(
                "skip state (next accept {}, W = {w}) is unreachable after {} arrivals",
                self.next_accept, self.seen
            ));
        }
        Ok(())
    }
}

/// Algorithm L's skip advance as a free kernel over borrowed state:
/// `W *= U^{1/k}`, then `next_accept += Geometric(W) + 1`. [`ReservoirL`]
/// calls it on its own fields.
fn advance_skip_state<R: Rng>(rng: &mut R, cap: usize, w: &mut f64, next_accept: &mut u64) {
    *w *= random_unit(rng).powf(1.0 / cap as f64);
    let u = random_unit(rng);
    let skip = (u.ln() / (1.0 - *w).ln()).floor();
    let skip = if skip.is_finite() && skip >= 0.0 {
        skip.min(u64::MAX as f64 / 4.0) as u64
    } else {
        0
    };
    *next_accept = next_accept.saturating_add(skip).saturating_add(1);
}

/// Uniform draw in the open interval `(0, 1)` — Algorithm L needs logs of it.
fn random_unit<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        if u > 0.0 {
            return u;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use swsample_stats::chi_square_uniform_test;

    #[test]
    fn reservoir_one_holds_single_element() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut r = ReservoirOne::new();
        assert!(r.sample().is_none());
        r.insert(&mut rng, 42u64, 0, 0);
        assert_eq!(*r.sample().expect("present").value(), 42);
        assert_eq!(r.seen(), 1);
    }

    #[test]
    fn reservoir_one_uniform() {
        let n = 16u64;
        let trials = 40_000;
        let mut rng = SmallRng::seed_from_u64(2);
        let mut counts = vec![0u64; n as usize];
        for _ in 0..trials {
            let mut r = ReservoirOne::new();
            for i in 0..n {
                r.insert(&mut rng, i, i, i);
            }
            counts[r.sample().expect("present").index() as usize] += 1;
        }
        let out = chi_square_uniform_test(&counts);
        assert!(
            out.p_value > 1e-4,
            "reservoir-1 not uniform: p = {}",
            out.p_value
        );
    }

    #[test]
    fn reservoir_k_keeps_all_when_small() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut r = ReservoirK::new(5);
        for i in 0..3u64 {
            r.insert(&mut rng, i, i, i);
        }
        assert_eq!(r.entries().len(), 3);
    }

    #[test]
    fn reservoir_k_marginal_inclusion_uniform() {
        // Each element's inclusion probability must be k/n.
        let (n, k, trials) = (20u64, 4usize, 30_000);
        let mut rng = SmallRng::seed_from_u64(4);
        let mut counts = vec![0u64; n as usize];
        for _ in 0..trials {
            let mut r = ReservoirK::new(k);
            for i in 0..n {
                r.insert(&mut rng, i, i, i);
            }
            assert_eq!(r.entries().len(), k);
            for e in r.entries() {
                counts[e.index() as usize] += 1;
            }
        }
        let out = chi_square_uniform_test(&counts);
        assert!(
            out.p_value > 1e-4,
            "reservoir-k marginals not uniform: p = {}",
            out.p_value
        );
    }

    #[test]
    fn reservoir_k_entries_distinct() {
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..200 {
            let mut r = ReservoirK::new(6);
            for i in 0..50u64 {
                r.insert(&mut rng, i, i, i);
            }
            let mut idx: Vec<u64> = r.entries().iter().map(|e| e.index()).collect();
            idx.sort_unstable();
            idx.dedup();
            assert_eq!(idx.len(), 6);
        }
    }

    #[test]
    fn reservoir_l_matches_distribution() {
        let (n, k, trials) = (24u64, 3usize, 30_000);
        let mut rng = SmallRng::seed_from_u64(6);
        let mut counts = vec![0u64; n as usize];
        for _ in 0..trials {
            let mut r = ReservoirL::new(k);
            for i in 0..n {
                r.insert(&mut rng, i, i, i);
            }
            assert_eq!(r.entries().len(), k);
            let mut idx: Vec<u64> = r.entries().iter().map(|e| e.index()).collect();
            idx.sort_unstable();
            idx.dedup();
            assert_eq!(idx.len(), k, "duplicate entries");
            for e in r.entries() {
                counts[e.index() as usize] += 1;
            }
        }
        let out = chi_square_uniform_test(&counts);
        assert!(
            out.p_value > 1e-4,
            "algorithm L marginals not uniform: p = {}",
            out.p_value
        );
    }

    #[test]
    fn take_and_reset_clear_state() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut r = ReservoirK::new(2);
        r.insert(&mut rng, 1u64, 0, 0);
        let taken = r.take();
        assert_eq!(taken.len(), 1);
        assert_eq!(r.seen(), 0);
        assert!(r.entries().is_empty());

        let mut one = ReservoirOne::new();
        one.insert(&mut rng, 1u64, 0, 0);
        one.reset();
        assert!(one.sample().is_none());
        assert_eq!(one.seen(), 0);
    }

    #[test]
    fn memory_words_bounded_by_capacity() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut r = ReservoirK::new(4);
        for i in 0..1000u64 {
            r.insert(&mut rng, i, i, i);
            assert!(r.memory_words() <= 4 * 3 + 2);
        }
    }
}
