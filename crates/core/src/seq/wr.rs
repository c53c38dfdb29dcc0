//! Sampling **with replacement** from sequence-based windows (Theorem 2.1).
//!
//! # Lane storage
//!
//! Theorem 2.1 keeps `k` independent lanes, each holding one reservoir
//! sample of the partial bucket (`X_V`) and one of the last complete
//! bucket (`X_U`). While a bucket has seen few arrivals, its `k` samples
//! repeat the same few elements: `k` uniform picks from `p` arrivals are
//! all distinct only once `p` is large against `k²`. So each bucket stores
//! every element its lanes hold once:
//!
//! * **indexed:** the bucket's `m` distinct candidates in stream order,
//!   each with its tracker statistic, plus a one-byte selector per lane —
//!   lane `i`'s candidate index — eight to the word (`⌈k / 8⌉` words);
//! * **lane order:** when that index would not be smaller than `k` plain
//!   samples (`3m + ⌈k / 8⌉ ≥ 3k`, in practice: every lane holds a
//!   different element), or when `k = 1` or `k > 256` (past what a byte
//!   selects), the bucket stores lane `i`'s sample at `i` and no
//!   selectors.
//!
//! A bucket therefore never holds more than `3k` words, and a sampler
//! never more than `2 · 3k + k + 3 = 7k + 3`: the §1.4 cap of the plain
//! layout still holds. The typical count is smaller, and depends on how
//! many distinct elements the lanes drew.
//!
//! The layout is a function of the lanes' samples and `k` alone. An
//! acceptance appends the arrival once and points every acceptor's
//! selector at it, then drops each replaced candidate no selector holds
//! any more and renumbers the selectors; rotation swaps the two
//! buckets and clears the new partial one. Which RNG words are drawn, and
//! in which order, does not depend on the layout, so samples and
//! checkpoint records are those of the plain layout. A restored sampler
//! rebuilds each bucket from its per-lane record through the same
//! function the live path uses, and stores exactly what the live one did.

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
/// arrival finds its acceptors in one pass over the lanes, adopts the
/// arrival into them, then redraws their gaps in instance order while
/// recomputing the cached minimum. The skip path is
/// distribution-identical to the per-arrival path, which remains
/// available via [`SeqSamplerWr::naive`] (benchmark baseline +
/// equivalence tests) and is used automatically whenever the tracker must
/// observe every arrival (`K::TRACKS`).
///
/// # Storage
///
/// Two buckets, `cur` (partial bucket, the paper's `X_V`) and `prev`
/// (last complete bucket, `X_U`). Each stores its distinct candidates
/// once, in stream order, plus a one-byte selector per lane (indexed);
/// or, when that is not smaller, its `k` lane samples plainly (lane
/// order). So a bucket never exceeds `3k` words, and the layout is a
/// function of the lanes' samples alone: a restored sampler stores
/// exactly what the live one did. Both ingestion paths share this one
/// layout. `prev` stays empty until the first rotation, so a key that
/// never sees `n` arrivals pays for one bucket, and a cold `k = 16` key
/// holds one candidate and two selector words. Every per-lane word — the next-acceptance indices
/// and both buckets' selectors — lives in one heap block, which an
/// acceptance already reads. [`memory_words`](MemoryWords::memory_words)
/// counts exactly the stored candidates (3 words each), the selector
/// words of indexed buckets and the next-acceptance indices, plus 3
/// globals: at most `7k + 3`.
///
/// A tracker whose statistics are not a pure function of the candidate
/// (`K::TRACKS`, e.g. one that draws randomness in
/// [`fresh`](SampleTracker::fresh)) keeps one statistic per lane, so its
/// buckets always use lane order.
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
    // storage, which only acceptances and rotations touch, so the common
    // non-accept insert in a 10⁵-key fleet *tends* to stay within the
    // box's first cache line. `repr(Rust)` does not guarantee layout
    // follows declaration — this is a nudge the compiler is free to
    // ignore, not a pinned layout.
    n: u64,
    /// Total arrivals so far (`N` in the paper).
    count: u64,
    /// Cached minimum of the next-acceptance indices — the skip path's
    /// only per-arrival comparison.
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
    /// Selector words per indexed bucket ([`Lanes::words`]; not
    /// counted).
    sel_words: u32,
    rng: R,
    tracker: K,
    /// The partial bucket's candidates (the paper's `X_V`).
    cur: Bucket<T, K::Stat>,
    /// The most recent complete bucket's candidates (the paper's `X_U`).
    /// Empty until the first rotation.
    prev: Bucket<T, K::Stat>,
    /// `cur`'s selector words, then `prev`'s (a bucket's words hold
    /// nothing unless it is indexed); then per instance, the absolute stream
    /// index at which it next accepts (`u64::MAX` = no further acceptance
    /// in the current bucket). One heap block, whose first line an
    /// acceptance reads anyway, so `cur`'s selectors cost no extra miss.
    lane_words: Vec<u64>,
    /// Total acceptance events so far (diagnostic; not counted as memory).
    accepts: u64,
}

/// The lane count `k` and the selector words of an indexed bucket.
#[derive(Debug, Clone, Copy)]
struct Lanes {
    k: usize,
    /// Selector words per indexed bucket: one byte per lane, eight to
    /// the word. 0 where no bucket is ever indexed.
    words: usize,
}

impl Lanes {
    /// Selector words per bucket for `k` lanes; 0 for `k = 1` (one
    /// sample is never worth indexing), past `k = 256` (a byte selects at
    /// most 256 candidates), and where lanes cannot share a candidate
    /// (`share` false: statistics are not a pure function of it).
    fn words(k: usize, share: bool) -> usize {
        if share && (2..=256).contains(&k) {
            k.div_ceil(8)
        } else {
            0
        }
    }

    /// Whether `m` distinct candidates plus the selectors take fewer
    /// words than `k` plain samples — the layout rule.
    fn indexed(self, m: usize) -> bool {
        let w = Sample::<()>::WORDS;
        self.words > 0 && m * w + self.words < self.k * w
    }

    /// Lane `i`'s candidate index in the selector words `sel`.
    #[inline]
    fn pick(sel: &[u64], i: usize) -> usize {
        usize::from((sel[i / 8] >> (8 * (i % 8))) as u8)
    }

    /// Point lane `i`'s selector at candidate `c < 256`.
    #[inline]
    fn set(sel: &mut [u64], i: usize, c: usize) {
        let shift = 8 * (i % 8);
        sel[i / 8] = (sel[i / 8] & !(0xff << shift)) | ((c as u64) << shift);
    }
}

/// Candidates a bucket first makes room for.
const COLD_CANDIDATES: usize = 4;

/// One bucket's sample for each of the `k` lanes, indexed or in lane
/// order (see the [module docs](self)); an indexed bucket's selector
/// words live in the sampler's `lane_words`.
#[derive(Debug, Clone)]
struct Bucket<T, S> {
    /// Empty: no arrival yet. Fewer than `k` entries: the distinct
    /// candidates the lanes hold, each once, in stream order (indexed).
    /// Exactly `k`: lane `i`'s sample at `i` (lane order).
    items: Vec<(Sample<T>, S)>,
}

impl<T, S> Bucket<T, S> {
    const EMPTY: Self = Bucket { items: Vec::new() };

    fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the bucket is in the indexed layout.
    fn indexed(&self, lanes: Lanes) -> bool {
        !self.items.is_empty() && self.items.len() < lanes.k
    }

    /// Stored words: 3 per candidate, plus the selector words of an
    /// indexed bucket.
    fn words(&self, lanes: Lanes) -> usize {
        let sel = if self.indexed(lanes) { lanes.words } else { 0 };
        self.items.len() * Sample::<T>::WORDS + sel
    }

    /// Lane `i`'s sample and statistic; the bucket is not empty.
    #[inline]
    fn lane(&self, lanes: Lanes, sel: &[u64], i: usize) -> &(Sample<T>, S) {
        if self.items.len() == lanes.k {
            return &self.items[i];
        }
        &self.items[Lanes::pick(sel, i)]
    }
}

impl<T: Clone, S: Clone> Bucket<T, S> {
    /// Adopt an arrival into the lanes in `takers`, and keep the layout
    /// rule; `sel` are the bucket's selector words. `item` builds the
    /// arrival's entry: once, or once per taker in lane order where each
    /// lane owns its entry.
    ///
    /// An indexed bucket touches only the takers' selectors: each points
    /// at the new candidate, and a taker's old candidate is dropped when
    /// no selector holds it any more, moving the later candidates down.
    #[inline]
    fn adopt(
        &mut self,
        lanes: Lanes,
        sel: &mut [u64],
        mut item: impl FnMut() -> (Sample<T>, S),
        takers: &Bits,
    ) {
        let k = lanes.k;
        let m = self.items.len();
        if m == 0 {
            debug_assert_eq!(takers.len(), k, "a bucket's first arrival is every lane's");
            if lanes.indexed(1) {
                // Room for a few candidates, not `k`: most keys of a big
                // fleet stay cold.
                self.items.reserve_exact(COLD_CANDIDATES.min(k));
                self.items.push(item());
                sel.fill(0);
            } else {
                self.items.extend((0..k).map(|_| item()));
            }
            return;
        }
        if m == k {
            for i in takers.iter() {
                self.items[i] = item();
            }
            // One taker replaces one sample: the lanes hold at least as
            // many distinct elements as before, and lane order stands.
            if takers.len() > 1 && lanes.words > 0 {
                let samples = std::mem::take(&mut self.items);
                self.store(lanes, sel, samples);
            }
            return;
        }
        // Indexed: the arrival becomes candidate `m`.
        for i in takers.iter() {
            Lanes::set(sel, i, m);
        }
        if m == self.items.capacity() {
            // A warming key reallocates once, not at every doubling.
            self.items.reserve_exact(k - m);
        }
        self.items.push(item());
        // Drop each candidate no lane selects any more (every lane that
        // held it took the arrival), and renumber the selectors past it:
        // candidate `c` becomes `to[c]`. An indexed bucket holds fewer
        // than `k ≤ 256` candidates.
        let mut held = [false; 256];
        for i in 0..k {
            held[Lanes::pick(sel, i)] = true;
        }
        if !held[..=m].iter().all(|&h| h) {
            let (mut to, mut kept) = ([0u8; 256], 0);
            for (to, &held) in to.iter_mut().zip(&held[..=m]) {
                *to = kept;
                kept += u8::from(held);
            }
            // The bytes past lane `k` are 0, and so is `to[0]`.
            for word in sel.iter_mut() {
                *word = u64::from_le_bytes(word.to_le_bytes().map(|c| to[usize::from(c)]));
            }
            let mut c = 0;
            self.items.retain(|_| {
                c += 1;
                held[c - 1]
            });
        }
        if !lanes.indexed(self.items.len()) {
            let samples = (0..k)
                .map(|i| self.items[Lanes::pick(sel, i)].clone())
                .collect();
            self.items = samples;
        }
    }

    /// Store lane `i`'s `samples[i]` (all `k` lanes) in the layout the
    /// rule picks: lanes holding the same stream index share one
    /// candidate. The live path and restore both build buckets here.
    fn store(&mut self, lanes: Lanes, sel: &mut [u64], samples: Vec<(Sample<T>, S)>) {
        let mut order: Vec<(u64, usize)> = samples
            .iter()
            .enumerate()
            .map(|(i, (s, _))| (s.index(), i))
            .collect();
        order.sort_unstable();
        let m = 1 + order.windows(2).filter(|p| p[0].0 != p[1].0).count();
        if !lanes.indexed(m) {
            self.items = samples;
            return;
        }
        self.items.clear();
        self.items.reserve_exact(m);
        sel.fill(0);
        for (j, &(index, lane)) in order.iter().enumerate() {
            if j == 0 || order[j - 1].0 != index {
                self.items.push(samples[lane].clone());
            }
            Lanes::set(sel, lane, self.items.len() - 1);
        }
    }
}

/// A set of lanes below some `n`: one inline word up to 64 (every
/// `k ≤ 64`), a bit vector past that.
enum Bits {
    Word(u64),
    Words(Vec<u64>),
}

impl Bits {
    fn new(n: usize) -> Self {
        if n <= 64 {
            Bits::Word(0)
        } else {
            Bits::Words(vec![0; n.div_ceil(64)])
        }
    }

    fn words(&self) -> &[u64] {
        match self {
            Bits::Word(w) => std::slice::from_ref(w),
            Bits::Words(ws) => ws,
        }
    }

    #[inline]
    fn insert(&mut self, i: usize) {
        match self {
            Bits::Word(w) => *w |= 1 << i,
            Bits::Words(ws) => ws[i / 64] |= 1 << (i % 64),
        }
    }

    /// Insert `i` when `cond` holds, without branching on it.
    #[inline]
    fn insert_if(&mut self, i: usize, cond: bool) {
        let bit = u64::from(cond);
        match self {
            Bits::Word(w) => *w |= bit << i,
            Bits::Words(ws) => ws[i / 64] |= bit << (i % 64),
        }
    }

    fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The members, ascending.
    fn iter(&self) -> BitsIter<'_> {
        let words = self.words();
        BitsIter {
            words,
            word: 0,
            bits: words[0],
        }
    }
}

/// [`Bits::iter`].
struct BitsIter<'a> {
    words: &'a [u64],
    word: usize,
    bits: u64,
}

impl Iterator for BitsIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *self.words.get(self.word)?;
        }
        let b = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(64 * self.word + b)
    }
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

impl<T, R, K: SampleTracker<T>> SeqSamplerWr<T, R, K> {
    /// `k` and the selector words per bucket.
    fn lanes(&self) -> Lanes {
        let words = self.sel_words as usize;
        let k = self.lane_words.len() - 2 * words;
        Lanes { k, words }
    }

    /// The next-acceptance indices, `cur`'s selector words and `prev`'s.
    fn lane_words(&self) -> (&[u64], &[u64], &[u64]) {
        let w = self.sel_words as usize;
        let (sel, next_accept) = self.lane_words.split_at(2 * w);
        let (cur, prev) = sel.split_at(w);
        (next_accept, cur, prev)
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
        let sel_words = Lanes::words(k, !K::TRACKS);
        // Index 0 opens the first bucket: every instance accepts it with
        // probability 1.
        let lane_words = vec![0; k + 2 * sel_words];
        Self {
            n,
            count: 0,
            rng,
            tracker,
            sel_words: sel_words as u32,
            cur: Bucket::EMPTY,
            prev: Bucket::EMPTY,
            lane_words,
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
            self.push_naive(&value);
        } else {
            let idx = self.count;
            if idx >= self.min_next {
                self.accept_at(idx, &value);
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
    fn push_naive(&mut self, value: &T) {
        let idx = self.count;
        // Position inside the partial bucket; the arriving element is the
        // (pos+1)-th element of that bucket.
        let pos = idx % self.n;
        // Every retained candidate observes the arrival — the complete
        // bucket's too, since its suffix statistic spans into the partial
        // bucket. A candidate the arrival replaces in every lane is
        // dropped below, so observing it first changes nothing.
        for (_, stat) in self.cur.items.iter_mut().chain(&mut self.prev.items) {
            self.tracker.observe(stat, value);
        }
        let lanes = self.lanes();
        let mut takers = Bits::new(lanes.k);
        for i in 0..lanes.k {
            // Reservoir step: adopt with probability 1/(pos+1).
            if self.rng.gen_range(0..=pos) == 0 {
                takers.insert(i);
                self.accepts += 1;
            }
        }
        if takers.len() > 0 {
            self.adopt(lanes, idx, value, &takers);
        }
        self.count += 1;
        if self.count == self.next_rotate {
            self.rotate_buckets();
            self.next_rotate += self.n;
        }
    }

    /// Adopt the arrival `value` at stream index `idx` into the partial
    /// bucket's `takers`.
    #[inline]
    fn adopt(&mut self, lanes: Lanes, idx: u64, value: &T, takers: &Bits) {
        let tracker = &mut self.tracker;
        let sel = &mut self.lane_words[..self.sel_words as usize];
        self.cur.adopt(
            lanes,
            sel,
            || {
                let stat = tracker.fresh(value, idx);
                (Sample::new(value.clone(), idx, idx), stat)
            },
            takers,
        );
    }

    /// The partial bucket just completed; it becomes bucket U and the old
    /// U is now fully expired. Re-arms the skip state: the next bucket's
    /// first arrival is accepted by every instance with probability 1.
    fn rotate_buckets(&mut self) {
        std::mem::swap(&mut self.prev, &mut self.cur);
        self.cur.items.clear();
        let (sel, next_accept) = self.lane_words.split_at_mut(2 * self.sel_words as usize);
        let (cur, prev) = sel.split_at_mut(self.sel_words as usize);
        cur.swap_with_slice(prev);
        if !self.naive {
            next_accept.fill(self.count);
            self.min_next = self.count;
        }
    }

    /// Skip-path acceptance: adopt `value` into every instance whose
    /// next-acceptance index is `idx`, then redraw their gaps in instance
    /// order, recomputing `min_next` in the same pass. Adopting first
    /// lets the candidates' cache misses overlap the redraws, which
    /// depend on nothing the adoption writes.
    fn accept_at(&mut self, idx: u64, value: &T) {
        let n = self.n;
        let bucket_start = self.next_rotate - n;
        let pos = idx - bucket_start;
        let lanes = self.lanes();
        let first = 2 * lanes.words;
        let mut takers = Bits::new(lanes.k);
        for (i, &na) in self.lane_words[first..].iter().enumerate() {
            // Branch-free: which lanes accept is a coin flip.
            takers.insert_if(i, na == idx);
        }
        debug_assert!(takers.len() > 0, "accept_at called with no acceptor");
        self.adopt(lanes, idx, value, &takers);
        let mut min_next = u64::MAX;
        for na in &mut self.lane_words[first..] {
            if *na == idx {
                self.accepts += 1;
                *na = match record_skip(&mut self.rng, pos + 1, n) {
                    Some(c) => bucket_start + c - 1,
                    None => u64::MAX, // instance is done until the next bucket
                };
            }
            min_next = min_next.min(*na);
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
        let lanes = self.lanes();
        let (_, cur_sel, prev_sel) = self.lane_words();
        let picks = (0..lanes.k)
            .map(|i| {
                if within_first_bucket {
                    // Window = everything so far = the partial bucket.
                    return self.cur.lane(lanes, cur_sel, i);
                }
                // Aligned, the window coincides with the complete bucket
                // U; otherwise it straddles U and V: take X_U unless
                // expired.
                let prev = self.prev.lane(lanes, prev_sel, i);
                if aligned || prev.0.index() >= oldest_active {
                    prev
                } else {
                    self.cur.lane(lanes, cur_sel, i)
                }
            })
            .map(|(s, stat)| (s.clone(), stat.clone()))
            .collect();
        Some(picks)
    }

    /// Reject lanes no run of this sampler could reach: a lane that can
    /// never accept again in its bucket, or a bucket missing its sample,
    /// would later panic in [`sample_k_with_stats`] instead of failing
    /// here with a typed error. At `count` (next rotation at
    /// `next_rotate`) every lane must have
    ///
    /// - on the skip path, `next_accept` in `[count, next_rotate)`, or
    ///   `u64::MAX` (done for this bucket) once the partial bucket holds
    ///   an arrival — an empty partial bucket's first arrival is every
    ///   lane's acceptance (the naive path keeps no `next_accept`);
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
            let reachable = self.naive
                || if partial {
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
        // Both buckets' stored candidates and (when indexed) selectors,
        // each instance's next-acceptance index, and the (n, count,
        // min_next) globals.
        let lanes = self.lanes();
        self.cur.words(lanes) + self.prev.words(lanes) + lanes.k + 3
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
        let layout = self.lanes();
        let (next_accept, cur_sel, prev_sel) = self.lane_words();
        let sample = |bucket: &Bucket<T, K::Stat>, sel: &[u64], i: usize| {
            (!bucket.is_empty()).then(|| bucket.lane(layout, sel, i).0.clone())
        };
        let lanes = next_accept
            .iter()
            .enumerate()
            .map(|(i, &next_accept)| SeqWrLaneState {
                prev: sample(&self.prev, prev_sel, i),
                cur: sample(&self.cur, cur_sel, i),
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

    /// Restore a per-lane record. Each bucket is rebuilt through the
    /// layout rule the live path keeps, so the restored sampler stores
    /// exactly what the saving one did. Lanes that hold the same stream
    /// index share one candidate; that their values agree is checked
    /// where the record is decoded
    /// ([`SamplerState::decode_payload`]), the one place values can be
    /// compared without requiring `T: PartialEq`.
    fn restore_state(&mut self, state: SamplerState<T>) -> Result<(), StateError> {
        if K::TRACKS {
            return Err(StateError::Unsupported);
        }
        let (count, accepts, rng, mut lanes) = match state {
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
        let layout = self.lanes();
        if lanes.len() != layout.k {
            return Err(StateError::Corrupt(format!(
                "seq-wr: {} lanes for k = {}",
                lanes.len(),
                layout.k
            )));
        }
        // The next rotation is the next multiple of `n` after `count`.
        let next_rotate = (count / self.n + 1)
            .checked_mul(self.n)
            .ok_or_else(|| StateError::Corrupt(format!("seq-wr: count {count} out of range")))?;
        self.check_reachable(count, next_rotate, &lanes)?;
        if !state::restore_rng(&mut self.rng, &rng) {
            return Err(StateError::Unsupported);
        }
        // Non-tracking trackers' statistics are position-independent, so
        // `fresh` reproduces them exactly (for `NullTracker`: `()`).
        let tracker = &mut self.tracker;
        let mut bucket =
            |bucket: &mut Bucket<T, K::Stat>, sel: &mut [u64], samples: Option<Vec<Sample<T>>>| {
                bucket.items.clear();
                if let Some(samples) = samples {
                    let samples = samples
                        .into_iter()
                        .map(|s| {
                            let stat = tracker.fresh(s.value(), s.index());
                            (s, stat)
                        })
                        .collect();
                    bucket.store(layout, sel, samples);
                }
            };
        // `check_reachable` saw every lane's `cur` present or every one
        // absent, and the same for `prev`.
        let w = layout.words;
        let (sel, next_accept) = self.lane_words.split_at_mut(2 * w);
        let (cur_sel, prev_sel) = sel.split_at_mut(w);
        bucket(
            &mut self.cur,
            cur_sel,
            lanes.iter_mut().map(|l| l.cur.take()).collect(),
        );
        bucket(
            &mut self.prev,
            prev_sel,
            lanes.iter_mut().map(|l| l.prev.take()).collect(),
        );
        for (na, lane) in next_accept.iter_mut().zip(&lanes) {
            *na = lane.next_accept;
        }
        self.count = count;
        self.accepts = accepts;
        // Derived fields: the skip gate is the minimum pending acceptance.
        self.min_next = next_accept
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
                self.push_naive(v);
            }
            return;
        }
        let mut i = 0usize;
        while i < values.len() {
            let idx = self.count;
            if idx >= self.min_next {
                self.accept_at(idx, &values[i]);
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
        self.lanes().k
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

    /// Words the stored layout holds, checking its invariants on the way:
    /// an indexed bucket holds fewer than `k` candidates, distinct, in
    /// stream order and each some lane's, plus its selector words; a
    /// lane-order bucket holds `k` samples.
    fn stored_words<R>(s: &SeqSamplerWr<u64, R>) -> usize {
        let lanes = s.lanes();
        let (next_accept, cur_sel, prev_sel) = s.lane_words();
        let mut words = next_accept.len() + 3;
        for (bucket, sel) in [(&s.cur, cur_sel), (&s.prev, prev_sel)] {
            let m = bucket.items.len();
            words += m * Sample::<u64>::WORDS;
            if m == 0 || m == lanes.k {
                continue;
            }
            assert!(lanes.indexed(m), "{m} candidates stored indexed");
            words += sel.len();
            assert!(
                bucket
                    .items
                    .windows(2)
                    .all(|p| p[0].0.index() < p[1].0.index()),
                "candidates not distinct in stream order"
            );
            let mut held = vec![false; m];
            for i in 0..lanes.k {
                held[Lanes::pick(sel, i)] = true;
            }
            assert!(held.iter().all(|&h| h), "a candidate no lane holds");
        }
        words
    }

    /// `memory_words` recounted from the per-lane record alone: per
    /// non-empty bucket, `3m` words for its `m` distinct stream indices
    /// plus `⌈k / 8⌉` selector words when that is smaller than `3k` and
    /// `2 ≤ k ≤ 256`, else `3k`; plus `k + 3`.
    fn recount(record: &SamplerState<u64>) -> usize {
        let SamplerState::SeqWr { lanes, .. } = record else {
            unreachable!("seq-wr saves a seq-wr state")
        };
        let k = lanes.len();
        let sel = match k {
            2..=256 => k.div_ceil(8),
            _ => usize::MAX, // never indexed
        };
        let bucket = |indices: Vec<u64>| {
            let mut indices = indices;
            indices.sort_unstable();
            indices.dedup();
            let m = indices.len();
            match m {
                0 => 0,
                _ if (3 * m).saturating_add(sel) < 3 * k => 3 * m + sel,
                _ => 3 * k,
            }
        };
        let indices = |pick: fn(&SeqWrLaneState<u64>) -> &Option<Sample<u64>>| {
            lanes
                .iter()
                .filter_map(|l| pick(l).as_ref().map(Sample::index))
                .collect()
        };
        bucket(indices(|l| &l.cur)) + bucket(indices(|l| &l.prev)) + k + 3
    }

    #[test]
    fn memory_words_is_an_exact_recount() {
        // `n` large against `k²` at the larger `k`s, so late in each
        // bucket the lanes reach lane order and leave it at rotation.
        // Past `k = 256` a byte cannot select, so buckets stay in lane
        // order.
        for (n, k) in [
            (9u64, 1usize),
            (7, 2),
            (50, 5),
            (600, 16),
            (5000, 70),
            (40, 300),
        ] {
            for naive in [false, true] {
                let rng = SmallRng::seed_from_u64(k as u64);
                let mut s = if naive {
                    SeqSamplerWr::naive(n, k, rng)
                } else {
                    SeqSamplerWr::new(n, k, rng)
                };
                let (mut indexed, mut lane_order) = (false, false);
                for i in 0..(2 * n + n / 2) {
                    s.insert(i);
                    let words = s.memory_words();
                    assert_eq!(words, stored_words(&s), "n={n} k={k} at {i}");
                    if i % 7 == 0 || k < 16 {
                        let record = s.save_state().expect("saves");
                        assert_eq!(words, recount(&record), "n={n} k={k} at {i}");
                    }
                    let m = s.cur.items.len();
                    indexed |= m > 0 && m < k;
                    lane_order |= m == k;
                }
                assert!(lane_order, "n={n} k={k}: lanes never reached lane order");
                assert_eq!(
                    indexed,
                    (2..=256).contains(&k),
                    "n={n} k={k}: indexed buckets"
                );
            }
        }
    }

    #[test]
    fn lockstep_memory_naive_vs_skip() {
        // The skip and naive paths draw different samples, so their words
        // differ; each must be an exact recount of its own lanes and stay
        // under the Theorem 2.1 cap, and restoring the skip path's record
        // into a naive sampler must store exactly as many words. Runs
        // well past the first rotation, where `prev` fills. Around that
        // rotation a save/restore round trip must resume identically.
        for (n, k) in [(13u64, 5usize), (1000, 16)] {
            let mut skip = SeqSamplerWr::new(n, k, SmallRng::seed_from_u64(1));
            let mut naive = SeqSamplerWr::naive(n, k, SmallRng::seed_from_u64(2));
            let cap = 7 * k + 3;
            for i in 0..(3 * n + 7) {
                skip.insert(i);
                naive.insert(i);
                for s in [&skip, &naive] {
                    assert_eq!(s.memory_words(), stored_words(s), "at step {i}");
                    assert!(s.memory_words() <= cap, "at step {i}");
                }
                let record = skip.save_state().expect("skip path saves");
                assert_eq!(skip.memory_words(), recount(&record), "at step {i}");
                let mut crossed = SeqSamplerWr::naive(n, k, SmallRng::seed_from_u64(3));
                crossed
                    .restore_state(record)
                    .expect("a skip record restores into a naive sampler");
                assert_eq!(crossed.memory_words(), skip.memory_words(), "at step {i}");
                let count = i + 1;
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

    #[test]
    fn restored_layout_equals_live() {
        // A save/restore round trip every few arrivals, across rotations:
        // the restored buckets hold the same candidates, selectors and
        // words as the live ones, and the two keep agreeing afterwards.
        for (n, k) in [(40u64, 3usize), (300, 16), (2000, 70)] {
            let mut live = SeqSamplerWr::new(n, k, SmallRng::seed_from_u64(11));
            for i in 0..(3 * n + 5) {
                live.insert(i * 3);
                if i % 5 != 0 {
                    continue;
                }
                let mut restored = SeqSamplerWr::new(n, k, SmallRng::seed_from_u64(12));
                restored
                    .restore_state(live.save_state().expect("saves"))
                    .expect("live state restores");
                let lanes = live.lanes();
                let ((_, live_cur, live_prev), (_, restored_cur, restored_prev)) =
                    (live.lane_words(), restored.lane_words());
                for (a, b) in [
                    ((&live.cur, live_cur), (&restored.cur, restored_cur)),
                    ((&live.prev, live_prev), (&restored.prev, restored_prev)),
                ] {
                    assert_eq!(a.0.items, b.0.items, "n={n} k={k} at {i}");
                    assert_eq!(a.0.indexed(lanes), b.0.indexed(lanes));
                    if a.0.indexed(lanes) {
                        assert_eq!(a.1, b.1, "n={n} k={k} at {i}");
                    }
                }
                assert_eq!(live.memory_words(), restored.memory_words());
                let mut original = live.clone();
                for j in 0..7 {
                    original.insert(j);
                    restored.insert(j);
                }
                assert_eq!(original.memory_words(), restored.memory_words());
                assert_eq!(original.sample_k(), restored.sample_k());
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
