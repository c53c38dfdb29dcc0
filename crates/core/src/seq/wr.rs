//! Sampling **with replacement** from sequence-based windows (Theorem 2.1).
//!
//! # Lane storage
//!
//! Theorem 2.1 keeps `k` independent lanes, each holding one reservoir
//! sample of the partial bucket (`X_V`) and one of the last complete
//! bucket (`X_U`). While a bucket has seen few arrivals, its `k` samples
//! repeat the same few elements: `k` uniform picks from `p` arrivals are
//! all distinct only once `p` is large against `k²`. So each bucket stores
//! every element its lanes hold once, as a candidate of two words — the
//! element and its stream index, which in a sequence window is also its
//! timestamp:
//!
//! * **indexed:** the bucket's `m` distinct candidates in stream order,
//!   each with its tracker statistic, plus a one-byte selector per lane —
//!   lane `i`'s candidate index — eight to the word (`⌈k / 8⌉` words);
//! * **lane order:** when that index would not be smaller than `k` plain
//!   candidates (`2m + ⌈k / 8⌉ ≥ 2k`, in practice: nearly every lane holds
//!   a different element), or when `k = 1` or `k > 256` (past what a byte
//!   selects), the bucket stores lane `i`'s candidate at `i` and no
//!   selectors.
//!
//! Each lane also keeps the index of its next acceptance, which lies
//! inside the partial bucket. It is stored as an offset below `n` from
//! the bucket's start: two 32-bit offsets to the word when `n < 2^32`,
//! one offset per word for wider windows.
//!
//! A bucket therefore never holds more than `2k` words, and a sampler
//! never more than `2 · 2k + k + 3 = 5k + 3`: inside the §1.4 cap of
//! `7k + 3` that plain lanes (a three-word sample per bucket and an
//! absolute index per lane) reach. The typical count is smaller, and
//! depends on how many distinct elements the lanes drew.
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
/// arrival into them, redraws their gaps in instance order, and
/// recomputes the cached minimum in a second pass. This skip path is
/// distribution-identical to one draw per lane per arrival, the
/// construction [`NaiveSeqWr`](super::reference::NaiveSeqWr) keeps as the
/// reference for tests and benchmarks.
///
/// A tracker that observes arrivals (`K::TRACKS`) rides the same path:
/// every arrival, accepted or hopped, is first folded into each retained
/// candidate's statistic, so an arrival costs one
/// [`observe`](SampleTracker::observe) per stored candidate (at most
/// `2k`) and still no RNG draw unless a lane accepts it.
///
/// # Storage
///
/// Two buckets, `cur` (partial bucket, the paper's `X_V`) and `prev`
/// (last complete bucket, `X_U`). Each stores its distinct candidates
/// once, in stream order, plus a one-byte selector per lane (indexed);
/// or, when that is not smaller, its `k` lane candidates plainly (lane
/// order). A candidate is two words, the element and its stream index:
/// the timestamp equals the index and is rebuilt where a [`Sample`]
/// leaves the sampler. So a bucket never exceeds `2k` words, and the
/// layout is a function of the lanes' samples alone: a restored sampler
/// stores exactly what the live one did. Both ingestion paths share this
/// one layout. `prev` stays empty until the first rotation, so a key
/// that never sees `n` arrivals pays for one bucket.
///
/// Every per-lane word — both buckets' selectors and the next-acceptance
/// offsets from the partial bucket's start, two to the word while
/// `n < 2^32` — lives in one heap block, which an acceptance already
/// reads. A cold `k = 16` key holds one candidate, two selector words and
/// eight offset words. [`memory_words`](MemoryWords::memory_words) counts
/// exactly the stored candidates (2 words each), the selector words of
/// indexed buckets and the offset words, plus 3 globals: at most
/// `5k + 3`, inside the §1.4 cap of `7k + 3`.
///
/// A tracker whose statistics are not a pure function of the candidate
/// (`K::TRACKS`: they fold in later arrivals, and may draw randomness in
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
    // (`n`/`count`/`min_next`/`next_rotate`) ahead of the lane
    // storage, which only acceptances and rotations touch, so the common
    // non-accept insert in a 10⁵-key fleet *tends* to stay within the
    // box's first cache line. `repr(Rust)` does not guarantee layout
    // follows declaration — this is a nudge the compiler is free to
    // ignore, not a pinned layout.
    n: u64,
    /// Total arrivals so far (`N` in the paper).
    count: u64,
    /// Cached minimum of the absolute next-acceptance indices — the skip
    /// path's only per-arrival comparison.
    min_next: u64,
    /// The count at which the next bucket rotation happens — the cached
    /// next multiple of `n`, so the per-arrival boundary check is a
    /// compare instead of a `u64` division. Pure arithmetic function of
    /// `count` (which is counted), so excluded from the §1.4 word
    /// accounting like the RNG state.
    next_rotate: u64,
    /// The lane count `k` (a parameter, not counted).
    k: u32,
    rng: R,
    tracker: K,
    /// The partial bucket's candidates (the paper's `X_V`).
    cur: Bucket<T, K::Stat>,
    /// The most recent complete bucket's candidates (the paper's `X_U`).
    /// Empty until the first rotation.
    prev: Bucket<T, K::Stat>,
    /// `cur`'s selector words, then `prev`'s (a bucket's words hold
    /// nothing unless it is indexed); then per instance, the offset from
    /// the partial bucket's start at which it next accepts, or
    /// [`Lanes::done`] (no further acceptance in the current bucket). One
    /// heap block, whose first line an acceptance reads anyway, so `cur`'s
    /// selectors cost no extra miss.
    lane_words: Vec<u64>,
    /// Total acceptance events so far (diagnostic; not counted as memory).
    accepts: u64,
}

/// One stored candidate: the element, its stream index (a sequence
/// window's timestamp is the index) and its tracker statistic.
#[derive(Debug, Clone, PartialEq)]
struct Cand<T, S> {
    value: T,
    index: u64,
    stat: S,
}

/// Words a candidate holds: the element and its index.
const CAND_WORDS: usize = 2;

impl<T: Clone, S> Cand<T, S> {
    /// The candidate as a sample: its timestamp is its index.
    fn sample(&self) -> Sample<T> {
        Sample::new(self.value.clone(), self.index, self.index)
    }
}

/// `0x01` in every byte.
const LO: u64 = u64::from_le_bytes([1; 8]);
/// `0x80` in every byte.
const HI: u64 = LO << 7;

/// Whether some byte of `x` is zero (exact: no false positives).
#[inline]
fn has_zero_byte(x: u64) -> bool {
    x.wrapping_sub(LO) & !x & HI != 0
}

/// `0x01` in each byte of `x` greater than `d`, `0x00` in the others.
#[inline]
fn bytes_above(x: u64, d: u8) -> u64 {
    // Low seven bits first: `(b | 0x80) - (d mod 128 + 1)` keeps the high
    // bit exactly when `b mod 128 > d mod 128`, with no borrow out of the
    // byte. Then the high bits decide: below 128, `d` is passed by a set
    // high bit or by the low bits; from 128, it takes both.
    let low = (x | HI).wrapping_sub(LO * u64::from((d & 0x7f) + 1)) & HI;
    let above = if d < 0x80 { (x & HI) | low } else { x & low };
    above >> 7
}

/// The per-lane geometry: `k`, the selector words of an indexed bucket,
/// and how the next-acceptance offsets pack into words.
#[derive(Debug, Clone, Copy)]
struct Lanes {
    k: usize,
    /// Selector words per indexed bucket: one byte per lane, eight to
    /// the word. 0 where no bucket is ever indexed.
    words: usize,
    /// log₂ of the offsets per word: 1 (two 32-bit offsets) when every
    /// offset below `n` and [`done`](Self::done) fit 32 bits, i.e.
    /// `n < 2^32`; else 0 (one 64-bit offset).
    pack: u32,
}

impl Lanes {
    /// The geometry of `k` lanes over windows of `n`; `share` is false
    /// where lanes cannot share a candidate (statistics are not a pure
    /// function of it).
    fn new(k: usize, n: u64, share: bool) -> Self {
        // One sample is never worth indexing, and a byte selects at most
        // 256 candidates.
        let words = if share && (2..=256).contains(&k) {
            k.div_ceil(8)
        } else {
            0
        };
        let pack = u32::from(n <= u64::from(u32::MAX));
        Lanes { k, words, pack }
    }

    /// Whether `m` distinct candidates plus the selectors take fewer
    /// words than `k` plain candidates — the layout rule.
    fn indexed(self, m: usize) -> bool {
        self.words > 0 && m * CAND_WORDS + self.words < self.k * CAND_WORDS
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

    /// Whether some lane's selector in `sel` holds candidate `c`: a
    /// zero-byte test per word, with the bytes past lane `k` masked.
    #[inline]
    fn holds(self, sel: &[u64], c: usize) -> bool {
        let spread = LO * c as u64;
        let (last, full) = sel.split_last().expect("an indexed bucket has selectors");
        let pad = u64::MAX.checked_shl(8 * (self.k - 8 * full.len()) as u32);
        full.iter().any(|&w| has_zero_byte(w ^ spread))
            || has_zero_byte((last ^ spread) | pad.unwrap_or(0))
    }

    /// Renumber the selectors in `sel` after candidate `d` is removed:
    /// every selector past it moves down by one. The bytes past lane `k`
    /// are 0 and stay so.
    #[inline]
    fn unselect(sel: &mut [u64], d: usize) {
        for w in sel {
            *w -= bytes_above(*w, d as u8);
        }
    }

    /// Bits per next-acceptance offset.
    fn bits(self) -> u32 {
        64 >> self.pack
    }

    /// The offset of a lane done with the current bucket: no offset below
    /// `n` equals it.
    fn done(self) -> u64 {
        u64::MAX >> (64 - self.bits())
    }

    /// Words holding the `k` next-acceptance offsets.
    fn offset_words(self) -> usize {
        self.k.div_ceil(1 << self.pack)
    }

    /// Arm every lane of `off` for a fresh bucket: offset 0, the bucket's
    /// first arrival. The slot past lane `k` that an odd `k` leaves in
    /// the last packed word holds [`done`](Self::done), so passes over
    /// whole words read it as a lane that never accepts.
    fn rearm(self, off: &mut [u64]) {
        off.fill(0);
        if self.k < off.len() << self.pack {
            self.set_offset(off, self.k, self.done());
        }
    }

    /// Lane `i`'s next-acceptance offset in the offset words `off`: in
    /// word `i >> pack`, slot `i & pack` (`pack` is 0 or 1, so it is also
    /// the slot mask).
    #[inline]
    fn offset(self, off: &[u64], i: usize) -> u64 {
        let shift = (i as u32 & self.pack) * self.bits();
        (off[i >> self.pack] >> shift) & self.done()
    }

    /// Set lane `i`'s next-acceptance offset to `o ≤ done`.
    #[inline]
    fn set_offset(self, off: &mut [u64], i: usize, o: u64) {
        let shift = (i as u32 & self.pack) * self.bits();
        let word = &mut off[i >> self.pack];
        *word = (*word & !(self.done() << shift)) | (o << shift);
    }
}

/// Candidates a bucket first makes room for.
const COLD_CANDIDATES: usize = 4;

/// One bucket's candidate for each of the `k` lanes, indexed or in lane
/// order (see the [module docs](self)); an indexed bucket's selector
/// words live in the sampler's `lane_words`.
#[derive(Debug, Clone)]
struct Bucket<T, S> {
    /// Empty: no arrival yet. Fewer than `k` entries: the distinct
    /// candidates the lanes hold, each once, in stream order (indexed).
    /// Exactly `k`: lane `i`'s candidate at `i` (lane order).
    items: Vec<Cand<T, S>>,
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

    /// Stored words: 2 per candidate, plus the selector words of an
    /// indexed bucket.
    fn words(&self, lanes: Lanes) -> usize {
        let sel = if self.indexed(lanes) { lanes.words } else { 0 };
        self.items.len() * CAND_WORDS + sel
    }

    /// Lane `i`'s candidate; the bucket is not empty.
    #[inline]
    fn lane(&self, lanes: Lanes, sel: &[u64], i: usize) -> &Cand<T, S> {
        if self.items.len() == lanes.k {
            return &self.items[i];
        }
        &self.items[Lanes::pick(sel, i)]
    }
}

impl<T: Clone, S: Clone> Bucket<T, S> {
    /// Adopt an arrival into the lanes in `takers`, and keep the layout
    /// rule; `sel` are the bucket's selector words. `item` builds the
    /// arrival's candidate: once, or once per taker in lane order where
    /// each lane owns its candidate.
    ///
    /// An indexed bucket touches only the takers' selectors: each points
    /// at the new candidate, and a taker's old candidate is dropped when
    /// no selector holds it any more, moving the later candidates down.
    /// The work is per taker, not per lane.
    #[inline]
    fn adopt(
        &mut self,
        lanes: Lanes,
        sel: &mut [u64],
        mut item: impl FnMut() -> Cand<T, S>,
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
        // Indexed: the arrival becomes candidate `m`, and the takers'
        // old candidates (`m < k ≤ 256` of them at most) may be orphaned.
        let mut old = [0u64; 4];
        for i in takers.iter() {
            let c = Lanes::pick(sel, i);
            old[c / 64] |= 1 << (c % 64);
            Lanes::set(sel, i, m);
        }
        if m == self.items.capacity() {
            // A warming key reallocates once, not at every doubling.
            self.items.reserve_exact(k - m);
        }
        self.items.push(item());
        // Drop each old candidate no selector holds any more, the highest
        // first, so the ones still to test keep their numbers.
        for (w, &bits) in old.iter().enumerate().rev() {
            let mut bits = bits;
            while bits != 0 {
                let b = 63 - bits.leading_zeros() as usize;
                bits ^= 1 << b;
                let d = 64 * w + b;
                if !lanes.holds(sel, d) {
                    Lanes::unselect(sel, d);
                    self.items.remove(d);
                }
            }
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
    fn store(&mut self, lanes: Lanes, sel: &mut [u64], samples: Vec<Cand<T, S>>) {
        let mut order: Vec<(u64, usize)> = samples
            .iter()
            .enumerate()
            .map(|(i, c)| (c.index, i))
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
}

impl<T, R, K: SampleTracker<T>> SeqSamplerWr<T, R, K> {
    /// The lane geometry, a function of `k`, `n` and the tracker.
    fn lanes(&self) -> Lanes {
        Lanes::new(self.k as usize, self.n, !K::TRACKS)
    }

    /// The next-acceptance offset words, `cur`'s selector words and
    /// `prev`'s.
    fn lane_words(&self) -> (&[u64], &[u64], &[u64]) {
        let w = self.lanes().words;
        let (sel, offsets) = self.lane_words.split_at(2 * w);
        let (cur, prev) = sel.split_at(w);
        (offsets, cur, prev)
    }

    /// The stream index at which the partial bucket started.
    fn bucket_start(&self) -> u64 {
        self.next_rotate - self.n
    }
}

impl<T: Clone, R: Rng, K: SampleTracker<T>> SeqSamplerWr<T, R, K> {
    /// Like [`SeqSamplerWr::new`], with a custom per-candidate tracker.
    pub fn with_tracker(n: u64, k: usize, rng: R, tracker: K) -> Self {
        assert!(n >= 1, "SeqSamplerWr: window size must be at least 1");
        assert!(n <= 1 << 62, "SeqSamplerWr: window size too large");
        assert!(k >= 1, "SeqSamplerWr: k must be at least 1");
        let k32 = u32::try_from(k).expect("SeqSamplerWr: k too large");
        let lanes = Lanes::new(k, n, !K::TRACKS);
        // Offset 0 opens the first bucket: every instance accepts index 0
        // with probability 1.
        let mut lane_words = vec![0; 2 * lanes.words + lanes.offset_words()];
        lanes.rearm(&mut lane_words[2 * lanes.words..]);
        Self {
            n,
            count: 0,
            rng,
            tracker,
            k: k32,
            cur: Bucket::EMPTY,
            prev: Bucket::EMPTY,
            lane_words,
            min_next: 0,
            next_rotate: n,
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

    /// Insert the next arrival.
    pub fn push(&mut self, value: T) {
        self.observe(std::slice::from_ref(&value));
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

    /// Fold each of `values`, in order, into every retained candidate's
    /// statistic — the complete bucket's too, since its suffix statistic
    /// spans into the partial bucket. Runs before an arrival can be
    /// accepted: a candidate it replaces is dropped, so observing it
    /// first changes nothing. A no-op unless `K::TRACKS`.
    #[inline]
    fn observe(&mut self, values: &[T]) {
        if !K::TRACKS {
            return;
        }
        for v in values {
            for c in self.cur.items.iter_mut().chain(&mut self.prev.items) {
                self.tracker.observe(&mut c.stat, v);
            }
        }
    }

    /// Adopt the arrival `value` at stream index `idx` into the partial
    /// bucket's `takers`.
    #[inline]
    fn adopt(&mut self, lanes: Lanes, idx: u64, value: &T, takers: &Bits) {
        let tracker = &mut self.tracker;
        let sel = &mut self.lane_words[..lanes.words];
        self.cur.adopt(
            lanes,
            sel,
            || Cand {
                stat: tracker.fresh(value, idx),
                value: value.clone(),
                index: idx,
            },
            takers,
        );
    }

    /// The partial bucket just completed; it becomes bucket U and the old
    /// U is now fully expired. Re-arms the skip state: the next bucket's
    /// first arrival (offset 0) is accepted by every instance with
    /// probability 1.
    fn rotate_buckets(&mut self) {
        std::mem::swap(&mut self.prev, &mut self.cur);
        self.cur.items.clear();
        let lanes = self.lanes();
        let (sel, offsets) = self.lane_words.split_at_mut(2 * lanes.words);
        let (cur, prev) = sel.split_at_mut(lanes.words);
        cur.swap_with_slice(prev);
        lanes.rearm(offsets);
        self.min_next = self.count;
    }

    /// Skip-path acceptance: adopt `value` into every instance whose
    /// next acceptance is `idx`, redraw their gaps in instance order,
    /// then recompute `min_next` in one pass over the offsets. Adopting
    /// first lets the candidates' cache misses overlap the redraws,
    /// which depend on nothing the adoption writes.
    fn accept_at(&mut self, idx: u64, value: &T) {
        // `n` fixes the offset width at construction. Each width gets its
        // own copy of the lane passes, in which the width is a constant
        // and an offset one shift and mask.
        match self.lanes().pack {
            0 => self.accept_lanes::<0>(idx, value),
            _ => self.accept_lanes::<1>(idx, value),
        }
    }

    /// [`accept_at`](Self::accept_at) for offsets packed `1 << PACK` to
    /// the word.
    #[inline]
    fn accept_lanes<const PACK: u32>(&mut self, idx: u64, value: &T) {
        let n = self.n;
        let start = self.bucket_start();
        let pos = idx - start;
        let lanes = Lanes {
            pack: PACK,
            ..self.lanes()
        };
        let first = 2 * lanes.words;
        let (per, done) = (1 << PACK, lanes.done());
        // The passes below read whole words: a slot past lane `k` holds
        // `done`, which no position equals and no offset is below.
        let slot = |w: u64, h: usize| (w >> (h as u32 * lanes.bits())) & done;
        let mut takers = Bits::new(lanes.k);
        for (j, &w) in self.lane_words[first..].iter().enumerate() {
            for h in 0..per {
                // Branch-free: which lanes accept is a coin flip.
                takers.insert_if(j * per + h, slot(w, h) == pos);
            }
        }
        debug_assert!(takers.len() > 0, "accept_at called with no acceptor");
        self.adopt(lanes, idx, value, &takers);
        let offsets = &mut self.lane_words[first..];
        for i in takers.iter() {
            self.accepts += 1;
            let o = match record_skip(&mut self.rng, pos + 1, n) {
                Some(c) => c - 1,
                None => done, // instance is done until the next bucket
            };
            lanes.set_offset(offsets, i, o);
        }
        let mut min = done;
        for &w in offsets.iter() {
            for h in 0..per {
                min = min.min(slot(w, h));
            }
        }
        self.min_next = if min == done { u64::MAX } else { start + min };
    }

    /// Draw the `k` samples together with their tracker statistics.
    pub fn sample_k_with_stats(&self) -> Option<Vec<(Sample<T>, K::Stat)>> {
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
                if aligned || prev.index >= oldest_active {
                    prev
                } else {
                    self.cur.lane(lanes, cur_sel, i)
                }
            })
            .map(|c| (c.sample(), c.stat.clone()))
            .collect();
        Some(picks)
    }

    /// Reject lanes no run of this sampler could reach: a lane that can
    /// never accept again in its bucket, or a bucket missing its sample,
    /// would later panic in [`sample_k_with_stats`] instead of failing
    /// here with a typed error. At `count` (next rotation at
    /// `next_rotate`) every lane must have
    ///
    /// - `next_accept` in `[count, next_rotate)`, or `u64::MAX` (done for
    ///   this bucket) once the partial bucket holds an arrival — an empty
    ///   partial bucket's first arrival is every lane's acceptance;
    /// - `cur` exactly when the partial bucket is non-empty, and `prev`
    ///   exactly when a complete bucket exists (`count ≥ n`);
    /// - each sample's index inside its own bucket, and its timestamp
    ///   equal to its index (candidates store no timestamp).
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
        let stamped =
            |slot: &Option<Sample<T>>| slot.as_ref().is_none_or(|s| s.timestamp() == s.index());
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
            } else if !stamped(&lane.cur) || !stamped(&lane.prev) {
                "sample timestamp differs from its index"
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
        // the next-acceptance offset words, and the (n, count, min_next)
        // globals.
        let lanes = self.lanes();
        self.cur.words(lanes) + self.prev.words(lanes) + lanes.offset_words() + 3
    }
}

impl<T: Clone, R: Rng + 'static, K: SampleTracker<T>> WindowSampler<T> for SeqSamplerWr<T, R, K> {
    fn insert(&mut self, value: T) {
        self.push(value);
    }

    /// Save the per-lane record. Each lane's next acceptance is recorded
    /// as an absolute stream index (`u64::MAX` when done).
    fn save_state(&self) -> Option<SamplerState<T>> {
        // Tracking trackers carry suffix statistics that cannot be
        // reconstructed from the retained samples alone.
        if K::TRACKS {
            return None;
        }
        let rng = state::capture_rng(&self.rng)?;
        let layout = self.lanes();
        let (offsets, cur_sel, prev_sel) = self.lane_words();
        let start = self.bucket_start();
        let sample = |bucket: &Bucket<T, K::Stat>, sel: &[u64], i: usize| {
            (!bucket.is_empty()).then(|| bucket.lane(layout, sel, i).sample())
        };
        let lanes = (0..layout.k)
            .map(|i| SeqWrLaneState {
                prev: sample(&self.prev, prev_sel, i),
                cur: sample(&self.cur, cur_sel, i),
                next_accept: match layout.offset(offsets, i) {
                    o if o == layout.done() => u64::MAX,
                    o => start + o,
                },
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
                        .map(|s| Cand {
                            stat: tracker.fresh(s.value(), s.index()),
                            index: s.index(),
                            value: s.into_value(),
                        })
                        .collect();
                    bucket.store(layout, sel, samples);
                }
            };
        // `check_reachable` saw every lane's `cur` present or every one
        // absent, and the same for `prev`.
        let w = layout.words;
        let (sel, offsets) = self.lane_words.split_at_mut(2 * w);
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
        // `check_reachable` put every next acceptance in the partial bucket
        // or at `u64::MAX`.
        let start = next_rotate - self.n;
        let done = layout.done();
        let mut min = done;
        layout.rearm(offsets);
        for (i, lane) in lanes.iter().enumerate() {
            let o = match lane.next_accept {
                u64::MAX => done,
                na => na - start,
            };
            layout.set_offset(offsets, i, o);
            min = min.min(o);
        }
        self.count = count;
        self.accepts = accepts;
        // Derived fields: the skip gate is the minimum pending acceptance.
        self.min_next = if min == done { u64::MAX } else { start + min };
        self.next_rotate = next_rotate;
        Ok(())
    }

    fn insert_batch(&mut self, values: &[T])
    where
        T: Clone,
    {
        let mut i = 0usize;
        while i < values.len() {
            let idx = self.count;
            if idx >= self.min_next {
                self.observe(&values[i..=i]);
                self.accept_at(idx, &values[i]);
                self.count += 1;
                i += 1;
            } else {
                // Hop wholesale over arrivals no instance will accept —
                // stop at the next acceptance, the bucket boundary, or the
                // end of the batch, whichever comes first. A tracker still
                // observes each of them.
                let hop = (self.next_rotate - idx)
                    .min(self.min_next - idx)
                    .min((values.len() - i) as u64);
                self.observe(&values[i..i + hop as usize]);
                self.count += hop;
                i += hop as usize;
            }
            if self.count == self.next_rotate {
                self.rotate_buckets();
                self.next_rotate += self.n;
            }
        }
    }

    fn sample(&self) -> Option<Sample<T>> {
        self.sample_k_with_stats().map(|mut v| v.swap_remove(0).0)
    }

    fn sample_k(&self) -> Option<Vec<Sample<T>>> {
        self.sample_k_with_stats()
            .map(|v| v.into_iter().map(|(s, _)| s).collect())
    }

    fn k(&self) -> usize {
        self.k as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::reference::NaiveSeqWr;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use swsample_stats::chi_square_uniform_test;

    #[test]
    fn empty_sampler_returns_none() {
        let s: SeqSamplerWr<u64, _> = SeqSamplerWr::new(10, 2, SmallRng::seed_from_u64(0));
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

    /// Drive a sampler carrying `tracker` to several awkward stream
    /// positions and hold it to the chi-square threshold.
    fn uniform_at_awkward_offsets_with<K: SampleTracker<u64> + Clone>(tracker: K) {
        // Check uniformity at several stream positions, including exactly on
        // a bucket boundary and just after one.
        let n = 16u64;
        for &stop in &[16u64, 17, 24, 32, 33, 47] {
            let trials = 20_000;
            let mut counts = vec![0u64; n as usize];
            for t in 0..trials {
                let rng = SmallRng::seed_from_u64(1000 + t);
                let mut s = SeqSamplerWr::with_tracker(n, 1, rng, tracker.clone());
                for i in 0..stop {
                    s.insert(i % 5);
                }
                let smp = s.sample().expect("nonempty");
                counts[(smp.index() - (stop - n)) as usize] += 1;
            }
            let out = chi_square_uniform_test(&counts);
            assert!(
                out.p_value > 1e-4,
                "not uniform at stop={stop} ({}): p = {}",
                std::any::type_name::<K>(),
                out.p_value
            );
        }
    }

    #[test]
    fn uniform_at_awkward_offsets() {
        uniform_at_awkward_offsets_with(NullTracker);
    }

    /// A tracker observes every arrival on the skip path; the positions it
    /// samples stay uniform.
    #[test]
    fn tracked_uniform_at_awkward_offsets() {
        uniform_at_awkward_offsets_with(crate::track::OccurrenceTracker);
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
    /// lane-order bucket holds `k` candidates. Then the offset words.
    fn stored_words<R, K: SampleTracker<u64>>(s: &SeqSamplerWr<u64, R, K>) -> usize {
        let lanes = s.lanes();
        let (offsets, cur_sel, prev_sel) = s.lane_words();
        if lanes.k < offsets.len() << lanes.pack {
            assert_eq!(lanes.offset(offsets, lanes.k), lanes.done(), "padding slot");
        }
        let mut words = offsets.len() + 3;
        for (bucket, sel) in [(&s.cur, cur_sel), (&s.prev, prev_sel)] {
            let m = bucket.items.len();
            words += CAND_WORDS * m;
            if m == 0 || m == lanes.k {
                continue;
            }
            assert!(lanes.indexed(m), "{m} candidates stored indexed");
            words += sel.len();
            assert!(
                bucket.items.windows(2).all(|p| p[0].index < p[1].index),
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

    /// `memory_words` recounted from the per-lane record of a sampler
    /// over windows of `n`: per non-empty bucket, `2m` words for its `m`
    /// distinct stream indices plus `⌈k / 8⌉` selector words when that is
    /// smaller than `2k` and `2 ≤ k ≤ 256`, else `2k`; plus `⌈k / 2⌉`
    /// offset words when `n < 2^32`, else `k`; plus 3.
    fn recount(record: &SamplerState<u64>, n: u64) -> usize {
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
                _ if (2 * m).saturating_add(sel) < 2 * k => 2 * m + sel,
                _ => 2 * k,
            }
        };
        let indices = |pick: fn(&SeqWrLaneState<u64>) -> &Option<Sample<u64>>| {
            lanes
                .iter()
                .filter_map(|l| pick(l).as_ref().map(Sample::index))
                .collect()
        };
        let offsets = if n < 1 << 32 { k.div_ceil(2) } else { k };
        bucket(indices(|l| &l.cur)) + bucket(indices(|l| &l.prev)) + offsets + 3
    }

    #[test]
    fn memory_words_is_an_exact_recount() {
        // `n` large against `k²` at the larger `k`s, so late in each
        // bucket the lanes reach lane order and leave it at rotation.
        // Past `k = 256` a byte cannot select, so buckets stay in lane
        // order. A tracking sampler always stores lane order and saves no
        // record.
        fn check<K: SampleTracker<u64>>(n: u64, k: usize, mut s: SeqSamplerWr<u64, SmallRng, K>) {
            let (mut indexed, mut lane_order) = (false, false);
            for i in 0..(2 * n + n / 2) {
                s.insert(i);
                let words = s.memory_words();
                assert_eq!(words, stored_words(&s), "n={n} k={k} at {i}");
                if !K::TRACKS && (i % 7 == 0 || k < 16) {
                    let record = s.save_state().expect("saves");
                    assert_eq!(words, recount(&record, n), "n={n} k={k} at {i}");
                }
                let m = s.cur.items.len();
                indexed |= m > 0 && m < k;
                lane_order |= m == k;
            }
            assert!(lane_order, "n={n} k={k}: lanes never reached lane order");
            assert_eq!(
                indexed,
                !K::TRACKS && (2..=256).contains(&k),
                "n={n} k={k}: indexed buckets"
            );
        }
        for (n, k) in [
            (9u64, 1usize),
            (7, 2),
            (50, 5),
            (600, 16),
            (5000, 70),
            (40, 300),
        ] {
            let rng = || SmallRng::seed_from_u64(k as u64);
            check(n, k, SeqSamplerWr::new(n, k, rng()));
            let tracker = crate::track::OccurrenceTracker;
            check(n, k, SeqSamplerWr::with_tracker(n, k, rng(), tracker));
        }
    }

    #[test]
    fn lockstep_memory_naive_vs_skip() {
        // The skip path and the per-arrival reference draw different
        // samples, so their words differ; both stay under the Theorem 2.1
        // cap, and the skip path's are an exact recount of its lanes. Runs
        // well past the first rotation, where `prev` fills. Around that
        // rotation a save/restore round trip must resume identically.
        for (n, k) in [(13u64, 5usize), (1000, 16)] {
            let mut skip = SeqSamplerWr::new(n, k, SmallRng::seed_from_u64(1));
            let mut naive = NaiveSeqWr::new(n, k, SmallRng::seed_from_u64(2));
            let cap = 7 * k + 3;
            for i in 0..(3 * n + 7) {
                skip.insert(i);
                naive.insert(i);
                assert_eq!(skip.memory_words(), stored_words(&skip), "at step {i}");
                assert!(skip.memory_words() <= cap, "at step {i}");
                assert!(naive.memory_words() <= cap, "at step {i}");
                let record = skip.save_state().expect("skip path saves");
                assert_eq!(skip.memory_words(), recount(&record, n), "at step {i}");
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
    fn restore_rejects_a_timestamp_that_is_not_the_index() {
        // Candidates store no timestamp, so no sampler can hold one that
        // differs from the index.
        assert_corrupt(
            restore_edited(15, |_, lanes| {
                let s = lanes[1].cur.take().expect("partial bucket filled");
                lanes[1].cur = Some(Sample::new(*s.value(), s.index(), s.index() + 1));
            }),
            "current sample stamped after its index",
        );
        assert_corrupt(
            restore_edited(15, |_, lanes| {
                let s = lanes[0].prev.take().expect("complete bucket filled");
                lanes[0].prev = Some(Sample::new(*s.value(), s.index(), 0));
            }),
            "complete-bucket sample stamped before its index",
        );
    }

    #[test]
    fn wide_windows_save_restore_and_resume() {
        // Windows at and past 2^32 hold one 64-bit offset per lane, the
        // largest packed window two 32-bit offsets per word; either way a
        // lane's first redraw lands anywhere below `n`.
        for n in [(1u64 << 32) - 1, 1 << 32, 1 << 40, 1 << 62] {
            let k = 5;
            let mut s = SeqSamplerWr::new(n, k, SmallRng::seed_from_u64(n % 97));
            let values: Vec<u64> = (0..3000).collect();
            for chunk in values.chunks(101) {
                s.insert_batch(chunk);
                let record = s.save_state().expect("saves");
                assert_eq!(s.memory_words(), stored_words(&s), "n={n}");
                assert_eq!(s.memory_words(), recount(&record, n), "n={n}");
                assert!(s.memory_words() <= 7 * k + 3, "n={n}");
                let SamplerState::SeqWr { lanes, .. } = &record else {
                    unreachable!("seq-wr saves a seq-wr state")
                };
                assert!(lanes.iter().all(|l| l.next_accept >= s.len_seen()));
                let mut resumed = SeqSamplerWr::new(n, k, SmallRng::seed_from_u64(1));
                resumed.restore_state(record.clone()).expect("restores");
                assert_eq!(resumed.save_state(), Some(record), "n={n}");
                assert_eq!(resumed.memory_words(), s.memory_words(), "n={n}");
                let mut original = s.clone();
                for v in 0..500u64 {
                    original.insert(v);
                    resumed.insert(v);
                }
                assert_eq!(original.sample_k(), resumed.sample_k(), "n={n}");
                assert_eq!(original.save_state(), resumed.save_state(), "n={n}");
            }
        }
    }

    #[test]
    fn offsets_pack_two_to_the_word_below_2_pow_32() {
        for (n, words) in [(1u64, 3), ((1 << 32) - 1, 3), (1 << 32, 5), (1 << 62, 5)] {
            let s: SeqSamplerWr<u64, _> = SeqSamplerWr::new(n, 5, SmallRng::seed_from_u64(0));
            assert_eq!(s.lanes().offset_words(), words, "n={n}");
            let lanes = s.lanes();
            let mut off = vec![0; words];
            for i in 0..5 {
                lanes.set_offset(&mut off, i, lanes.done() - i as u64);
            }
            lanes.set_offset(&mut off, 2, n - 1);
            let got: Vec<u64> = (0..5).map(|i| lanes.offset(&off, i)).collect();
            let done = lanes.done();
            assert_eq!(got, [done, done - 1, n - 1, done - 3, done - 4], "n={n}");
            assert!(n - 1 < done, "n={n}: an offset equals the done sentinel");
        }
    }

    #[test]
    fn byte_compares_match_scalar() {
        for d in 0..=255u8 {
            for b in 0..=255u8 {
                let x = u64::from_le_bytes([b, d, 0, 255, b, 1, 128, 127]);
                let want = u64::from_le_bytes(x.to_le_bytes().map(|byte| u8::from(byte > d)));
                assert_eq!(bytes_above(x, d), want, "b={b} d={d}");
                let spread = LO * u64::from(d);
                assert_eq!(
                    has_zero_byte(x ^ spread),
                    x.to_le_bytes().contains(&d),
                    "b={b} d={d}"
                );
            }
        }
        // Bytes past lane `k` never hold a candidate, not even 0.
        for k in [2usize, 9, 16, 17, 255, 256] {
            let lanes = Lanes::new(k, 100, true);
            let mut sel = vec![0; lanes.words];
            for i in 0..k {
                Lanes::set(&mut sel, i, 1 + i % 3);
            }
            assert!(!lanes.holds(&sel, 0), "k={k}");
            assert!(lanes.holds(&sel, 1), "k={k}");
            assert_eq!(lanes.holds(&sel, 3), k > 2, "k={k}");
        }
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
            // The §1.4 cap: two 3-word samples and one index per
            // instance, plus globals.
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
        // Mixed values from a small domain, so suffix counts grow and
        // differ between candidates. After every step each sample's count
        // equals an exact recount of its value from its index on, and the
        // samples are those an untracked sampler of the same seed draws:
        // the tracker adds no RNG draw. Fed per element, then in ragged
        // chunks that cross rotations.
        let n = 13u64;
        let mut values_rng = SmallRng::seed_from_u64(17);
        let stream: Vec<u64> = (0..12 * n).map(|_| values_rng.gen_range(0..4)).collect();
        for k in [1usize, 4, 16] {
            for batched in [false, true] {
                let seed = 3 + k as u64;
                let mut tracked = SeqSamplerWr::with_tracker(
                    n,
                    k,
                    SmallRng::seed_from_u64(seed),
                    OccurrenceTracker,
                );
                let mut plain = SeqSamplerWr::new(n, k, SmallRng::seed_from_u64(seed));
                let mut chunks = SmallRng::seed_from_u64(seed);
                let mut at = 0usize;
                while at < stream.len() {
                    let len = if batched {
                        chunks.gen_range(1..3 * n as usize)
                    } else {
                        1
                    };
                    let chunk = &stream[at..(at + len).min(stream.len())];
                    if batched {
                        tracked.insert_batch(chunk);
                        plain.insert_batch(chunk);
                    } else {
                        tracked.insert(chunk[0]);
                        plain.insert(chunk[0]);
                    }
                    at += chunk.len();
                    let picks = tracked.sample_k_with_stats().expect("nonempty");
                    assert_eq!(picks.len(), k);
                    for (smp, (val, cnt)) in &picks {
                        let suffix = &stream[smp.index() as usize..at];
                        assert_eq!(val, smp.value(), "k={k} at {at}");
                        let want = suffix.iter().filter(|&v| v == val).count() as u64;
                        assert_eq!(*cnt, want, "k={k} batched={batched} at {at}");
                    }
                    let samples: Vec<_> = picks.into_iter().map(|(s, _)| s).collect();
                    assert_eq!(Some(samples), plain.sample_k(), "k={k} at {at}");
                }
            }
        }
    }

    #[test]
    fn len_accessors() {
        let mut s: SeqSamplerWr<u64, _> = SeqSamplerWr::new(10, 1, SmallRng::seed_from_u64(4));
        assert_eq!(s.active_len(), 0);
        for i in 0..25u64 {
            s.insert(i);
        }
        assert_eq!(s.len_seen(), 25);
        assert_eq!(s.active_len(), 10);
        assert_eq!(s.window(), 10);
        assert_eq!(s.k(), 1);
    }
}
