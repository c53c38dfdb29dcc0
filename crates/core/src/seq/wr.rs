//! Sampling **with replacement** from sequence-based windows (Theorem 2.1).

use crate::memory::MemoryWords;
use crate::sample::Sample;
use crate::skip::record_skip;
use crate::state::{self, SamplerState, SeqWrLaneState, StateError};
use crate::track::{NullTracker, SampleTracker};
use crate::traits::WindowSampler;
use rand::Rng;

/// `k` independent uniform samples, *with replacement*, over the last `n`
/// arrivals — Theorem 2.1, `O(k)` memory words, deterministic.
///
/// The sampler is generic over a [`SampleTracker`] so sampling-based
/// algorithms (Theorem 5.1) can carry a suffix statistic with each
/// candidate; the default [`NullTracker`] costs nothing.
///
/// # Ingestion cost
///
/// Each instance is a k=1 reservoir over the partial bucket, whose
/// acceptance events are independent Bernoulli(1/(pos+1)) — so instead of
/// one RNG draw per instance per arrival, every instance precomputes its
/// **next-acceptance index** from the exact gap law (see
/// [`crate::skip::record_skip`]). Arrivals below the cached minimum of
/// those indices cost two comparisons and *zero* RNG draws; only the
/// `H(n) = Θ(log n)` accepted arrivals per instance per bucket do real
/// work, for amortized `O(k log(n)/n)` draws per element. An accepted
/// arrival is one pass over the lanes: write, redraw in instance order,
/// and recompute the cached minimum. The skip path is
/// distribution-identical to the per-arrival path, which remains available
/// via [`SeqSamplerWr::naive`] (benchmark baseline + equivalence tests)
/// and is used automatically whenever the tracker must observe every
/// arrival (`K::TRACKS`).
///
/// The lanes are two parallel arrays: `cur` (partial bucket, the paper's
/// `X_V`) and `prev` (last complete bucket, `X_U`). `prev` stays
/// unallocated until the first rotation, so a key that never sees `n`
/// arrivals pays for one array of samples, not two; rotation swaps the
/// arrays and clears the new `cur`. The §1.4 word accounting counts held
/// samples and is the same either way.
///
/// ```
/// use swsample_core::seq::SeqSamplerWr;
/// use swsample_core::WindowSampler;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut s = SeqSamplerWr::new(100, 3, SmallRng::seed_from_u64(1));
/// for i in 0..1_000u64 {
///     s.insert(i);
/// }
/// for sample in s.sample_k().unwrap() {
///     assert!(sample.index() >= 900); // inside the window
/// }
/// ```
#[derive(Debug, Clone)]
pub struct SeqSamplerWr<T, R, K: SampleTracker<T> = NullTracker> {
    // Declaration order puts the fields every arrival reads
    // (`n`/`count`/`min_next`/`next_rotate`/`naive`) ahead of the lane
    // arrays, which only acceptances and rotations touch, so the common
    // non-accept insert in a 10⁵-key fleet *tends* to stay within the
    // box's first cache line. `repr(Rust)` does not guarantee layout
    // follows declaration — this is a nudge the compiler is free to
    // ignore, not a pinned layout.
    n: u64,
    /// Total arrivals so far (`N` in the paper).
    count: u64,
    /// Cached minimum of `next_accept` — the skip path's only per-arrival
    /// comparison.
    min_next: u64,
    /// The count at which the next bucket rotation happens — the cached
    /// next multiple of `n`, so the per-arrival boundary check is a
    /// compare instead of a `u64` division. Pure arithmetic function of
    /// `count` (which is counted), so excluded from the §1.4 word
    /// accounting like the RNG state.
    next_rotate: u64,
    /// `true` forces the per-arrival reference path (required when the
    /// tracker observes every arrival).
    naive: bool,
    rng: R,
    tracker: K,
    /// Per instance: reservoir candidate of the partial bucket (the
    /// paper's `X_V`). Always `k` long.
    cur: Vec<Option<(Sample<T>, K::Stat)>>,
    /// Per instance: sample of the most recent complete bucket (the
    /// paper's `X_U`). Empty until the first rotation, `k` long after.
    prev: Vec<Option<(Sample<T>, K::Stat)>>,
    /// Absolute stream index at which each instance next accepts
    /// (`u64::MAX` = no further acceptance in the current bucket).
    next_accept: Vec<u64>,
    /// Total acceptance events so far (diagnostic; not counted as memory).
    accepts: u64,
}

impl<T: Clone, R: Rng> SeqSamplerWr<T, R, NullTracker> {
    /// Sampler for windows of the last `n ≥ 1` arrivals maintaining `k ≥ 1`
    /// independent samples, using the skip-ahead ingestion path.
    pub fn new(n: u64, k: usize, rng: R) -> Self {
        Self::with_tracker(n, k, rng, NullTracker)
    }

    /// Like [`SeqSamplerWr::new`] but forcing the naive per-arrival RNG
    /// path. Distribution-identical to the skip path; kept as the
    /// reference implementation for equivalence tests and as the
    /// benchmark baseline (`bench_throughput` measures both).
    pub fn naive(n: u64, k: usize, rng: R) -> Self {
        let mut s = Self::with_tracker(n, k, rng, NullTracker);
        s.naive = true;
        s
    }
}

impl<T: Clone, R: Rng, K: SampleTracker<T>> SeqSamplerWr<T, R, K> {
    /// Like [`SeqSamplerWr::new`], with a custom per-candidate tracker.
    /// Trackers with `TRACKS = true` need to observe every arrival, so
    /// they ingest through the per-arrival path; non-observing trackers
    /// (like [`NullTracker`]) get the skip path.
    pub fn with_tracker(n: u64, k: usize, rng: R, tracker: K) -> Self {
        assert!(n >= 1, "SeqSamplerWr: window size must be at least 1");
        assert!(n <= 1 << 62, "SeqSamplerWr: window size too large");
        assert!(k >= 1, "SeqSamplerWr: k must be at least 1");
        Self {
            n,
            count: 0,
            rng,
            tracker,
            cur: (0..k).map(|_| None).collect(),
            prev: Vec::new(),
            // Index 0 opens the first bucket: every instance accepts it
            // with probability 1.
            next_accept: vec![0; k],
            min_next: 0,
            next_rotate: n,
            naive: K::TRACKS,
            accepts: 0,
        }
    }

    /// Window size `n`.
    pub fn window(&self) -> u64 {
        self.n
    }

    /// Total number of arrivals observed.
    pub fn len_seen(&self) -> u64 {
        self.count
    }

    /// Current number of active (windowed) elements.
    pub fn active_len(&self) -> u64 {
        self.count.min(self.n)
    }

    /// Total acceptance events across all instances — the quantity the
    /// skip path bounds by `O(k log n)` per bucket w.h.p. (diagnostic).
    pub fn acceptances(&self) -> u64 {
        self.accepts
    }

    /// `true` when ingestion uses the skip-ahead path.
    pub fn is_skip_path(&self) -> bool {
        !self.naive
    }

    /// Insert the next arrival.
    pub fn push(&mut self, value: T) {
        if self.naive {
            self.push_naive(value);
        } else {
            let idx = self.count;
            if idx >= self.min_next {
                self.accept_at(idx, value);
            }
            self.count += 1;
            if self.count == self.next_rotate {
                self.rotate_buckets();
                self.next_rotate += self.n;
            }
        }
    }

    /// The reference per-arrival path: one RNG draw per instance per
    /// arrival, plus tracker observation hooks.
    fn push_naive(&mut self, value: T) {
        let idx = self.count;
        // Position inside the partial bucket; the arriving element is the
        // (pos+1)-th element of that bucket.
        let pos = idx % self.n;
        for (i, cur) in self.cur.iter_mut().enumerate() {
            // Reservoir step: adopt with probability 1/(pos+1).
            if self.rng.gen_range(0..=pos) == 0 {
                self.accepts += 1;
                let stat = self.tracker.fresh(&value, idx);
                *cur = Some((Sample::new(value.clone(), idx, idx), stat));
            } else if let Some((_, stat)) = cur.as_mut() {
                self.tracker.observe(stat, &value);
            }
            // The complete bucket's retained sample keeps observing the
            // suffix (its suffix statistic spans into the partial bucket).
            if let Some(Some((_, stat))) = self.prev.get_mut(i) {
                self.tracker.observe(stat, &value);
            }
        }
        self.count += 1;
        if self.count == self.next_rotate {
            self.rotate_buckets();
            self.next_rotate += self.n;
        }
    }

    /// The partial bucket just completed; it becomes bucket U and the old
    /// U is now fully expired. Re-arms the skip state: the next bucket's
    /// first arrival is accepted by every instance with probability 1.
    /// The first rotation is where `prev`'s array gets allocated.
    fn rotate_buckets(&mut self) {
        std::mem::swap(&mut self.prev, &mut self.cur);
        self.cur.clear();
        self.cur.resize_with(self.prev.len(), || None);
        if !self.naive {
            self.next_accept.fill(self.count);
            self.min_next = self.count;
        }
    }

    /// Skip-path acceptance: adopt `value` into every instance whose
    /// next-acceptance index is `idx`, then redraw their gaps, in one pass
    /// that also recomputes `min_next`. The value is moved into the last
    /// acceptor, so an arrival accepted by `j` instances costs `j − 1`
    /// clones (zero in the common `j = 1` case).
    fn accept_at(&mut self, idx: u64, value: T) {
        let bucket_start = self.next_rotate - self.n;
        let pos = idx - bucket_start;
        let last = self.next_accept.iter().rposition(|&na| na == idx);
        debug_assert!(last.is_some(), "accept_at called with no acceptor");
        let Some(last) = last else { return };
        let mut value = Some(value);
        let mut min_next = u64::MAX;
        for i in 0..self.cur.len() {
            if self.next_accept[i] == idx {
                self.accepts += 1;
                let v = if i == last {
                    value.take().expect("value present for the last acceptor")
                } else {
                    value.as_ref().expect("value present").clone()
                };
                let stat = self.tracker.fresh(&v, idx);
                self.cur[i] = Some((Sample::new(v, idx, idx), stat));
                self.next_accept[i] = match record_skip(&mut self.rng, pos + 1, self.n) {
                    Some(c) => bucket_start + c - 1,
                    None => u64::MAX, // instance is done until the next bucket
                };
            }
            min_next = min_next.min(self.next_accept[i]);
        }
        self.min_next = min_next;
    }

    /// Draw the `k` samples together with their tracker statistics.
    pub fn sample_k_with_stats(&mut self) -> Option<Vec<(Sample<T>, K::Stat)>> {
        if self.count == 0 {
            return None;
        }
        let oldest_active = self.count.saturating_sub(self.n);
        let within_first_bucket = self.count < self.n;
        let aligned = self.count.is_multiple_of(self.n);
        let picks = self
            .cur
            .iter()
            .enumerate()
            .map(|(i, cur)| {
                let partial = || cur.as_ref().expect("partial bucket nonempty");
                if within_first_bucket {
                    // Window = everything so far = the partial bucket.
                    return partial();
                }
                // Aligned, the window coincides with the complete bucket
                // U; otherwise it straddles U and V: take X_U unless
                // expired.
                let prev = self.prev[i].as_ref().expect("complete bucket exists");
                if aligned || prev.0.index() >= oldest_active {
                    prev
                } else {
                    partial()
                }
            })
            .map(|(s, stat)| (s.clone(), stat.clone()))
            .collect();
        Some(picks)
    }

    /// Reject skip-path lanes no run of this sampler could reach: a lane
    /// that can never accept again in its bucket, or a bucket missing its
    /// sample, would later panic in [`sample_k_with_stats`] instead of
    /// failing here with a typed error. At `count` (next rotation at
    /// `next_rotate`) every lane must have
    ///
    /// - `next_accept` in `[count, next_rotate)`, or `u64::MAX` (done for
    ///   this bucket) once the partial bucket holds an arrival — an empty
    ///   partial bucket's first arrival is every lane's acceptance;
    /// - `cur` exactly when the partial bucket is non-empty, and `prev`
    ///   exactly when a complete bucket exists (`count ≥ n`);
    /// - each sample's index inside its own bucket.
    ///
    /// [`sample_k_with_stats`]: Self::sample_k_with_stats
    fn check_reachable(
        &self,
        count: u64,
        next_rotate: u64,
        lanes: &[SeqWrLaneState<T>],
    ) -> Result<(), StateError> {
        let start = next_rotate - self.n;
        let partial = count > start;
        let complete = count >= self.n;
        let within = |slot: &Option<Sample<T>>, lo: u64, hi: u64| {
            slot.as_ref().is_none_or(|s| (lo..hi).contains(&s.index()))
        };
        for (i, lane) in lanes.iter().enumerate() {
            let na = lane.next_accept;
            let reachable = if partial {
                (count..next_rotate).contains(&na) || na == u64::MAX
            } else {
                na == count
            };
            let fault = if !reachable {
                "next_accept outside the current bucket"
            } else if lane.cur.is_some() != partial {
                "current-bucket sample does not match the bucket's fill"
            } else if lane.prev.is_some() != complete {
                "complete-bucket sample does not match the count"
            } else if !within(&lane.cur, start, count)
                || !within(&lane.prev, start.saturating_sub(self.n), start)
            {
                "sample index outside its bucket"
            } else {
                continue;
            };
            return Err(StateError::Corrupt(format!(
                "seq-wr: lane {i} at count {count}: {fault}"
            )));
        }
        Ok(())
    }
}

impl<T, R, K: SampleTracker<T>> MemoryWords for SeqSamplerWr<T, R, K> {
    fn memory_words(&self) -> usize {
        // Per instance: up to two retained samples plus its next-acceptance
        // index; plus (n, count, min_next) globals. Identical on the skip
        // and naive paths (the lockstep equivalence tests rely on that).
        let per = self
            .cur
            .iter()
            .chain(&self.prev)
            .filter(|slot| slot.is_some())
            .count()
            * Sample::<T>::WORDS;
        per + self.next_accept.len() + 3
    }
}

impl<T: Clone, R: Rng + 'static, K: SampleTracker<T>> WindowSampler<T> for SeqSamplerWr<T, R, K> {
    fn insert(&mut self, value: T) {
        self.push(value);
    }

    fn save_state(&self) -> Option<SamplerState<T>> {
        // Tracking trackers carry suffix statistics that cannot be
        // reconstructed from the retained samples alone.
        if K::TRACKS {
            return None;
        }
        let rng = state::capture_rng(&self.rng)?;
        let sample = |slot: &Option<(Sample<T>, K::Stat)>| slot.as_ref().map(|(s, _)| s.clone());
        let lanes = self
            .cur
            .iter()
            .zip(&self.next_accept)
            .enumerate()
            .map(|(i, (cur, &next_accept))| SeqWrLaneState {
                prev: self.prev.get(i).and_then(sample),
                cur: sample(cur),
                next_accept,
            })
            .collect();
        Some(SamplerState::SeqWr {
            count: self.count,
            accepts: self.accepts,
            rng,
            lanes,
        })
    }

    fn restore_state(&mut self, state: SamplerState<T>) -> Result<(), StateError> {
        if K::TRACKS {
            return Err(StateError::Unsupported);
        }
        let (count, accepts, rng, lanes) = match state {
            SamplerState::SeqWr {
                count,
                accepts,
                rng,
                lanes,
            } => (count, accepts, rng, lanes),
            other => {
                return Err(StateError::Mismatch {
                    expected: "seq-wr",
                    found: other.family(),
                })
            }
        };
        if lanes.len() != self.cur.len() {
            return Err(StateError::Corrupt(format!(
                "seq-wr: {} lanes for k = {}",
                lanes.len(),
                self.cur.len()
            )));
        }
        // The next rotation is the next multiple of `n` after `count`.
        let next_rotate = (count / self.n + 1)
            .checked_mul(self.n)
            .ok_or_else(|| StateError::Corrupt(format!("seq-wr: count {count} out of range")))?;
        if !self.naive {
            self.check_reachable(count, next_rotate, &lanes)?;
        }
        if !state::restore_rng(&mut self.rng, &rng) {
            return Err(StateError::Unsupported);
        }
        // Non-tracking trackers' statistics are position-independent, so
        // `fresh` reproduces them exactly (for `NullTracker`: `()`).
        let tracker = &mut self.tracker;
        let mut with_stat = |s: Sample<T>| {
            let stat = tracker.fresh(s.value(), s.index());
            (s, stat)
        };
        let mut prev = Vec::with_capacity(lanes.len());
        self.cur.clear();
        self.next_accept.clear();
        for lane in lanes {
            prev.push(lane.prev.map(&mut with_stat));
            self.cur.push(lane.cur.map(&mut with_stat));
            self.next_accept.push(lane.next_accept);
        }
        self.prev = if count >= self.n { prev } else { Vec::new() };
        self.count = count;
        self.accepts = accepts;
        // Derived fields: the skip gate is the minimum pending acceptance.
        self.min_next = self
            .next_accept
            .iter()
            .copied()
            .min()
            .expect("at least one instance");
        self.next_rotate = next_rotate;
        Ok(())
    }

    fn insert_batch(&mut self, values: &[T])
    where
        T: Clone,
    {
        if self.naive {
            for v in values {
                self.push_naive(v.clone());
            }
            return;
        }
        let mut i = 0usize;
        while i < values.len() {
            let idx = self.count;
            if idx >= self.min_next {
                self.accept_at(idx, values[i].clone());
                self.count += 1;
                i += 1;
            } else {
                // Hop wholesale over arrivals no instance will accept —
                // stop at the next acceptance, the bucket boundary, or the
                // end of the batch, whichever comes first.
                let hop = (self.next_rotate - idx)
                    .min(self.min_next - idx)
                    .min((values.len() - i) as u64);
                self.count += hop;
                i += hop as usize;
            }
            if self.count == self.next_rotate {
                self.rotate_buckets();
                self.next_rotate += self.n;
            }
        }
    }

    fn sample(&mut self) -> Option<Sample<T>> {
        self.sample_k_with_stats().map(|mut v| v.swap_remove(0).0)
    }

    fn sample_k(&mut self) -> Option<Vec<Sample<T>>> {
        self.sample_k_with_stats()
            .map(|v| v.into_iter().map(|(s, _)| s).collect())
    }

    fn k(&self) -> usize {
        self.cur.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use swsample_stats::chi_square_uniform_test;

    #[test]
    fn empty_sampler_returns_none() {
        let mut s: SeqSamplerWr<u64, _> = SeqSamplerWr::new(10, 2, SmallRng::seed_from_u64(0));
        assert!(s.sample().is_none());
        assert!(s.sample_k().is_none());
    }

    #[test]
    fn sample_always_in_window() {
        let mut s = SeqSamplerWr::new(13, 3, SmallRng::seed_from_u64(1));
        for i in 0..500u64 {
            s.insert(i);
            let lo = (i + 1).saturating_sub(13);
            for smp in s.sample_k().expect("nonempty") {
                assert!(
                    smp.index() >= lo && smp.index() <= i,
                    "sample {} outside [{lo}, {i}]",
                    smp.index()
                );
                assert_eq!(*smp.value(), smp.index());
            }
        }
    }

    /// Drive both ingestion paths at several awkward stream positions and
    /// hold them to the same chi-square threshold.
    #[test]
    fn uniform_at_awkward_offsets() {
        // Check uniformity at several stream positions, including exactly on
        // a bucket boundary and just after one.
        let n = 16u64;
        for naive in [false, true] {
            for &stop in &[16u64, 17, 24, 32, 33, 47] {
                let trials = 20_000;
                let mut counts = vec![0u64; n as usize];
                for t in 0..trials {
                    let mut s = if naive {
                        SeqSamplerWr::naive(n, 1, SmallRng::seed_from_u64(1000 + t))
                    } else {
                        SeqSamplerWr::new(n, 1, SmallRng::seed_from_u64(1000 + t))
                    };
                    for i in 0..stop {
                        s.insert(i);
                    }
                    let smp = s.sample().expect("nonempty");
                    counts[(smp.index() - (stop - n)) as usize] += 1;
                }
                let out = chi_square_uniform_test(&counts);
                assert!(
                    out.p_value > 1e-4,
                    "not uniform at stop={stop} (naive={naive}): p = {}",
                    out.p_value
                );
            }
        }
    }

    #[test]
    fn uniform_during_warmup() {
        // Fewer than n arrivals: window is everything seen so far.
        let trials = 20_000;
        let mut counts = vec![0u64; 7];
        for t in 0..trials {
            let mut s = SeqSamplerWr::new(100, 1, SmallRng::seed_from_u64(t));
            for i in 0..7u64 {
                s.insert(i);
            }
            counts[s.sample().expect("nonempty").index() as usize] += 1;
        }
        let out = chi_square_uniform_test(&counts);
        assert!(
            out.p_value > 1e-4,
            "warm-up not uniform: p = {}",
            out.p_value
        );
    }

    #[test]
    fn k_samples_are_independent_pairs() {
        // With k = 2 the joint distribution over (pos1, pos2) must be the
        // product of uniforms: chi-square over the n×n grid.
        let n = 4u64;
        let trials = 40_000u64;
        let mut counts = vec![0u64; (n * n) as usize];
        for t in 0..trials {
            let mut s = SeqSamplerWr::new(n, 2, SmallRng::seed_from_u64(90_000 + t));
            for i in 0..10u64 {
                s.insert(i);
            }
            let ss = s.sample_k().expect("nonempty");
            let a = ss[0].index() - 6;
            let b = ss[1].index() - 6;
            counts[(a * n + b) as usize] += 1;
        }
        let out = chi_square_uniform_test(&counts);
        assert!(
            out.p_value > 1e-4,
            "k=2 joint not product-uniform: p = {}",
            out.p_value
        );
    }

    #[test]
    fn batched_insert_is_uniform() {
        // The wholesale-hop batch path must produce the same distribution
        // as per-element ingestion, at the same threshold.
        let n = 16u64;
        let stop = 47usize;
        let trials = 20_000;
        let mut counts = vec![0u64; n as usize];
        for t in 0..trials {
            let mut s = SeqSamplerWr::new(n, 1, SmallRng::seed_from_u64(400_000 + t));
            let values: Vec<u64> = (0..stop as u64).collect();
            // Uneven chunk sizes exercise hop clipping at batch ends.
            for chunk in values.chunks(7) {
                s.insert_batch(chunk);
            }
            let smp = s.sample().expect("nonempty");
            counts[(smp.index() - (stop as u64 - n)) as usize] += 1;
        }
        let out = chi_square_uniform_test(&counts);
        assert!(
            out.p_value > 1e-4,
            "batched ingestion not uniform: p = {}",
            out.p_value
        );
    }

    #[test]
    fn batch_and_single_agree_given_same_rng_stream() {
        // The skip path consumes RNG only on acceptances, so batch and
        // per-element ingestion of the same stream are *identical*, not
        // just equidistributed.
        let mut a = SeqSamplerWr::new(32, 4, SmallRng::seed_from_u64(9));
        let mut b = SeqSamplerWr::new(32, 4, SmallRng::seed_from_u64(9));
        let values: Vec<u64> = (0..1000).collect();
        for &v in &values {
            a.insert(v);
        }
        for chunk in values.chunks(13) {
            b.insert_batch(chunk);
        }
        assert_eq!(a.acceptances(), b.acceptances());
        assert_eq!(a.sample_k(), b.sample_k());
    }

    #[test]
    fn lockstep_memory_naive_vs_skip() {
        // Identical MemoryWords trajectories: which samples are held at
        // each step is deterministic (bucket position only), and the skip
        // state is accounted on both paths. Runs well past the first
        // rotation, where the skip path allocates `prev`, and pins the
        // count of held samples on either side of it. Around that
        // rotation a save/restore round trip must resume identically.
        for (n, k) in [(13u64, 5usize), (1000, 16)] {
            let mut skip = SeqSamplerWr::new(n, k, SmallRng::seed_from_u64(1));
            let mut naive = SeqSamplerWr::naive(n, k, SmallRng::seed_from_u64(2));
            let lanes = |held: usize| held * Sample::<u64>::WORDS + k + 3;
            for i in 0..(3 * n + 7) {
                skip.insert(i);
                naive.insert(i);
                assert_eq!(skip.memory_words(), naive.memory_words(), "at step {i}");
                let count = i + 1;
                if count == n - 1 || count == n {
                    assert_eq!(skip.memory_words(), lanes(k), "at count {count}");
                } else if count == n + 1 {
                    assert_eq!(skip.memory_words(), lanes(2 * k), "at count {count}");
                }
                if (n - 1..=n + 1).contains(&count) {
                    let mut resumed = SeqSamplerWr::new(n, k, SmallRng::seed_from_u64(99));
                    resumed
                        .restore_state(skip.save_state().expect("skip path saves"))
                        .expect("reachable state restores");
                    let mut original = skip.clone();
                    for j in count..count + n + 2 {
                        original.insert(j);
                        resumed.insert(j);
                        assert_eq!(original.memory_words(), resumed.memory_words());
                    }
                    assert_eq!(
                        original.sample_k(),
                        resumed.sample_k(),
                        "resumed at {count}"
                    );
                }
            }
        }
    }

    /// Save a `(n = 10, k = 3)` skip sampler after `arrivals`, apply
    /// `edit` to the record's count and lanes, and restore it into a fresh
    /// sampler.
    fn restore_edited(
        arrivals: u64,
        edit: impl FnOnce(&mut u64, &mut [SeqWrLaneState<u64>]),
    ) -> Result<(), StateError> {
        let mut s = SeqSamplerWr::new(10, 3, SmallRng::seed_from_u64(7));
        for i in 0..arrivals {
            s.insert(i);
        }
        let mut state = s.save_state().expect("skip path saves");
        let SamplerState::SeqWr { count, lanes, .. } = &mut state else {
            unreachable!("seq-wr saves a seq-wr state")
        };
        edit(count, lanes);
        SeqSamplerWr::new(10, 3, SmallRng::seed_from_u64(8)).restore_state(state)
    }

    fn assert_corrupt(result: Result<(), StateError>, what: &str) {
        assert!(
            matches!(result, Err(StateError::Corrupt(_))),
            "{what}: {result:?}"
        );
    }

    #[test]
    fn restore_accepts_every_reachable_state() {
        for arrivals in 0..35 {
            assert_eq!(restore_edited(arrivals, |_, _| {}), Ok(()), "at {arrivals}");
        }
        // The naive path never maintains `next_accept`; its states keep
        // restoring into naive samplers.
        let mut naive = SeqSamplerWr::naive(10, 3, SmallRng::seed_from_u64(7));
        for i in 0..25u64 {
            naive.insert(i);
        }
        let state = naive.save_state().expect("naive path saves");
        let mut resumed = SeqSamplerWr::naive(10, 3, SmallRng::seed_from_u64(8));
        resumed.restore_state(state).expect("naive state restores");
        assert_eq!(resumed.sample_k(), naive.sample_k());
    }

    #[test]
    fn restore_rejects_next_accept_outside_the_bucket() {
        // 15 arrivals: partial bucket [10, 20) holds 5, count = 15.
        let at = |na: u64| restore_edited(15, move |_, lanes| lanes[1].next_accept = na);
        assert_corrupt(at(14), "next_accept below count");
        assert_corrupt(at(20), "next_accept at the next rotation");
        assert_eq!(at(15), Ok(()));
        assert_eq!(at(19), Ok(()));
        assert_eq!(at(u64::MAX), Ok(()));
        // On a boundary the next arrival opens a bucket: every lane takes it.
        let boundary = |na: u64| restore_edited(20, move |_, lanes| lanes[0].next_accept = na);
        assert_corrupt(boundary(u64::MAX), "lane done before its bucket opened");
        assert_corrupt(boundary(21), "lane skipping its bucket's first arrival");
    }

    #[test]
    fn restore_rejects_cur_that_does_not_match_the_partial_bucket() {
        assert_corrupt(
            restore_edited(15, |_, lanes| lanes[2].cur = None),
            "empty lane in a non-empty partial bucket",
        );
        assert_corrupt(
            restore_edited(20, |_, lanes| lanes[2].cur = Some(Sample::new(19, 19, 19))),
            "candidate in an empty partial bucket",
        );
    }

    #[test]
    fn restore_rejects_prev_that_does_not_match_the_count() {
        assert_corrupt(
            restore_edited(15, |_, lanes| lanes[0].prev = None),
            "missing complete-bucket sample",
        );
        assert_corrupt(
            restore_edited(5, |_, lanes| lanes[0].prev = Some(Sample::new(1, 1, 1))),
            "complete-bucket sample before the first rotation",
        );
    }

    #[test]
    fn restore_rejects_samples_outside_their_bucket() {
        assert_corrupt(
            restore_edited(15, |_, lanes| lanes[0].cur = Some(Sample::new(9, 9, 9))),
            "current sample from the complete bucket",
        );
        assert_corrupt(
            restore_edited(15, |_, lanes| lanes[0].cur = Some(Sample::new(15, 15, 15))),
            "current sample not yet arrived",
        );
        assert_corrupt(
            restore_edited(25, |_, lanes| lanes[0].prev = Some(Sample::new(5, 5, 5))),
            "complete-bucket sample from an expired bucket",
        );
        assert_corrupt(
            restore_edited(25, |_, lanes| lanes[0].prev = Some(Sample::new(21, 21, 21))),
            "complete-bucket sample from the partial bucket",
        );
    }

    #[test]
    fn restore_rejects_a_count_past_the_last_rotation() {
        assert_corrupt(
            restore_edited(15, |count, _| *count = u64::MAX - 3),
            "count whose next rotation overflows",
        );
    }

    #[test]
    fn skip_path_accepts_logarithmically() {
        // Acceptances per bucket must be O(log n) w.h.p. — here: mean
        // within 10% of k·H(n), max under 4·k·H(n), over 200 buckets.
        let n = 1024u64;
        let k = 4usize;
        let mut s = SeqSamplerWr::new(n, k, SmallRng::seed_from_u64(3));
        let mut per_bucket = Vec::new();
        let mut last = 0u64;
        for b in 0..200u64 {
            for i in 0..n {
                s.insert(b * n + i);
            }
            per_bucket.push(s.acceptances() - last);
            last = s.acceptances();
        }
        let h_n = (n as f64).ln() + 0.5772;
        let mean = per_bucket.iter().sum::<u64>() as f64 / per_bucket.len() as f64;
        let max = *per_bucket.iter().max().expect("nonempty") as f64;
        assert!(
            (mean - k as f64 * h_n).abs() < 0.1 * k as f64 * h_n,
            "mean acceptances/bucket {mean} vs k·H(n) = {}",
            k as f64 * h_n
        );
        assert!(
            max < 4.0 * k as f64 * h_n,
            "max acceptances/bucket {max} not O(log n)"
        );
    }

    #[test]
    fn memory_is_constant_in_stream_length_and_window() {
        for &n in &[4u64, 64, 4096] {
            let k = 5;
            let mut s = SeqSamplerWr::new(n, k, SmallRng::seed_from_u64(2));
            // Two samples of 3 words + 1 skip index per instance + globals.
            let cap = k * 2 * 3 + k + 3;
            for i in 0..3000u64 {
                s.insert(i);
                assert!(
                    s.memory_words() <= cap,
                    "memory {} > {cap}",
                    s.memory_words()
                );
            }
        }
    }

    #[test]
    fn tracker_counts_suffix_occurrences() {
        use crate::track::OccurrenceTracker;
        // Constant stream: the suffix count of the candidate must equal
        // (count - candidate index). Observing trackers force the naive
        // ingestion path.
        let mut s = SeqSamplerWr::with_tracker(8, 1, SmallRng::seed_from_u64(3), OccurrenceTracker);
        assert!(!s.is_skip_path());
        for _ in 0..20 {
            s.insert(7u64);
        }
        let (smp, (val, cnt)) = s
            .sample_k_with_stats()
            .expect("nonempty")
            .pop()
            .expect("k=1");
        assert_eq!(val, 7);
        assert_eq!(cnt, 20 - smp.index());
    }

    #[test]
    fn len_accessors() {
        let mut s: SeqSamplerWr<u64, _> = SeqSamplerWr::new(10, 1, SmallRng::seed_from_u64(4));
        assert_eq!(s.active_len(), 0);
        assert!(s.is_skip_path());
        for i in 0..25u64 {
            s.insert(i);
        }
        assert_eq!(s.len_seen(), 25);
        assert_eq!(s.active_len(), 10);
        assert_eq!(s.window(), 10);
        assert_eq!(s.k(), 1);
    }
}
