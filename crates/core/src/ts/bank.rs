//! The fused `k`-lane timestamp engine: one covering decomposition,
//! `k` independent sample lanes.
//!
//! Theorem 3.9 maintains `k` independent copies of the §3 single-sample
//! engine. The key structural fact — proved by the determinism of the
//! `Incr` walk (Lemma 3.4) and of the Lemma 3.5 expiry transitions — is
//! that the engines' randomness never touches their *bucket boundaries*:
//!
//! * `Incr`'s merge decisions depend only on the covered index range
//!   (`⌊log⌋` comparisons), never on a coin;
//! * expiry transitions (`split_straddle`, head discard, total expiry)
//!   depend only on bucket first-timestamps and the clock;
//! * the coins decide *which element occupies each bucket's `R`/`Q` slot*,
//!   nothing else.
//!
//! So `k` independent engines driven by the same stream hold **byte
//! identical** bucket boundaries at every moment and differ only in their
//! per-bucket sample slots. [`TsEngineBank`] de-duplicates everything
//! deterministic: one boundary list (`a`, `b`, `T(p_a)` stored once), with
//! per-lane `R`/`Q` sample slots per bucket (stored as described below).
//! Per arrival, boundary maintenance runs **once** instead of
//! `k` times; each (amortized `O(1)`) merge spends `2k` fair coin *bits*
//! served from a [`BitSource`] — one `next_u64` covers 64 lane-coins — so
//! ingestion costs amortized `O(k/32)` RNG words per element instead of
//! the `2k` full words of `k` independent engines.
//!
//! Why per-lane distributions are untouched (the Theorem 3.9 independence
//! argument): fix a lane `i`. Its slot contents evolve by exactly the
//! single-engine rules — on a merge, the lane keeps its left or right
//! sample by an exactly-fair coin, independently for `R` and `Q` — with
//! coins taken from bit positions of the shared words that no other lane
//! reads. Marginally, lane `i` is therefore *the same Markov chain* as a
//! solo [`super::TsEngine`]; jointly, distinct lanes consume disjoint,
//! mutually independent bits (and disjoint query-time draws), so the `k`
//! lane samples are independent — exactly the product distribution of `k`
//! separate engines. The reference type
//! [`super::independent::IndependentTsWr`] and
//! `tests/ts_bank_equivalence.rs` hold both to the same lockstep-boundary
//! and chi-square standards.
//!
//! Lane storage. A bucket has `2k` sample slots — lane `j`'s `R` at slot
//! `j`, its `Q` at slot `k + j` — yet few *distinct* elements among them:
//! `2k` uniform picks from a width-`w` bucket repeat whenever `w` is small
//! against `k`. So each bucket stores every element its slots hold once:
//!
//! * a never-merged singleton stores its element inline, once for all
//!   lanes (`Shared`);
//! * a width-2 bucket at `2 ≤ k ≤ 64` stores both its candidates inline,
//!   with the merge coins verbatim as a 1-bit selector per slot (`Pair`,
//!   two selector words);
//! * any other merged bucket stores its `m` distinct candidates in stream
//!   order plus a selector per slot — a bit when `m = 2`, a byte when
//!   `m ≤ 256` (`Indexed`). When that index would not be smaller than
//!   `2k` plain samples (`m` near `2k`, in wide buckets), the bucket
//!   stores its `2k` slots in slot order instead, with no selectors.
//!
//! So no bucket ever costs more than `6k + 3` words. A merge reads each
//! slot's left or right candidate by its coin, eight slots (a byte each)
//! to the word, marks which candidates some slot still holds, and drops
//! and renumbers the rest. The coins drawn and the element each lane ends
//! up holding do not depend on the layout; only the storage does. The
//! layout is a function of the bucket's width, `k` and its slots'
//! contents, so a bucket rebuilt from its checkpoint record stores
//! exactly what the live one did.

use super::bucket::BucketStruct;
use super::covering::Covering;
use super::engine::{State, TsEngine};
use crate::memory::MemoryWords;
use crate::rngutil::{bernoulli_ratio, floor_log2, BitSource};
use crate::sample::Sample;
use crate::state::{
    BitsState, StateError, TsBankBucketState, TsBankKind, TsBankState, TsLaneSamplesState,
};
use crate::track::{NullTracker, SampleTracker};
use rand::Rng;

/// Per-bucket sample slots for all `k` lanes (see the module docs).
#[derive(Debug, Clone)]
enum LaneSamples<T, S> {
    /// Never merged: every slot holds this element, stored once.
    Shared { item: Sample<T>, stat: S },
    /// Width 2 at `2 ≤ k ≤ 64`: both candidates, and bit `s` of `sel`
    /// is slot `s`'s selector (the merge coins).
    Pair {
        cands: [(Sample<T>, S); 2],
        sel: [u64; 2],
    },
    /// Any other merged bucket.
    Indexed(Lanes<T, S>),
}

/// Slot `s`'s candidate in a `Pair`.
fn pair_pick(sel: &[u64; 2], s: usize) -> usize {
    ((sel[s / 64] >> (s % 64)) & 1) as usize
}

/// A merged bucket's `2k` slots over its stored candidates.
#[derive(Debug, Clone)]
struct Lanes<T, S> {
    /// With `bits > 0`, or a single entry: the distinct elements the slots
    /// hold, each once, in stream order. With `bits == 0` and more than
    /// one entry: slot `s` holds `cands[s]` (slot order).
    cands: Vec<(Sample<T>, S)>,
    /// Slot `s`'s candidate index in bits `[s·bits, (s+1)·bits)`, `bits`
    /// being 1 for two candidates and 8 for more: exactly `⌈2k·bits/64⌉`
    /// words.
    sel: Vec<u64>,
    bits: u32,
}

/// Whether width-2 buckets are `Pair`s (and checkpoint as `Pair` records:
/// `k` `R` and `k` `Q` selector bits, one coin mask each).
fn pair_shaped(lanes: usize) -> bool {
    (2..=64).contains(&lanes)
}

/// Most candidates an index addresses: a selector is at most a byte.
const MAX_INDEXED: usize = 256;

/// Selector bits per slot for `m ≤ MAX_INDEXED` candidates: none for one,
/// a bit for two, a byte for more.
fn sel_bits(m: usize) -> u32 {
    match m {
        0 | 1 => 0,
        2 => 1,
        _ => 8,
    }
}

/// Words holding `slots` fields of `bits` bits.
fn sel_words(slots: usize, bits: u32) -> usize {
    (slots * bits as usize).div_ceil(64)
}

/// The low `n ≤ 64` bits set.
fn low_mask(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// `EXPAND[x]`: byte `j` holds bit `j` of `x`.
const EXPAND: [u64; 256] = {
    let mut table = [0; 256];
    let mut x = 0;
    while x < 256 {
        let mut j = 0;
        while j < 8 {
            table[x] |= ((x as u64 >> j) & 1) << (8 * j);
            j += 1;
        }
        x += 1;
    }
    table
};

/// The inverse of [`EXPAND`] on bytes of 0 or 1: bit `j` of the result
/// is byte `j` of `x`.
fn gather(x: u64) -> u64 {
    x.wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// A 1 in every byte.
const BYTE_ONES: u64 = 0x0101_0101_0101_0101;

/// An indexed bucket's selectors, read eight slots at a time.
#[derive(Clone, Copy)]
struct Sel<'a> {
    words: &'a [u64],
    bits: u32,
}

impl Sel<'_> {
    /// Selector bits of slots `64w..64w + 64` (`bits ≤ 1`).
    #[inline]
    fn bit_word(self, w: usize) -> u64 {
        if self.bits == 0 {
            0
        } else {
            self.words[w]
        }
    }

    /// The fields of slots `8w..8w + 8`, one per byte.
    #[inline]
    fn bytes(self, w: usize) -> u64 {
        match self.bits {
            0 => 0,
            1 => EXPAND[((self.words[w / 8] >> (8 * (w % 8))) & 0xFF) as usize],
            _ => self.words[w],
        }
    }
}

impl<T, S> Lanes<T, S> {
    const EMPTY: Self = Lanes {
        cands: Vec::new(),
        sel: Vec::new(),
        bits: 0,
    };

    fn slot_order(&self) -> bool {
        self.bits == 0 && self.cands.len() > 1
    }

    fn selectors(&self) -> Sel<'_> {
        Sel {
            words: &self.sel,
            bits: self.bits,
        }
    }

    /// Slot `s`'s candidate index.
    #[inline]
    fn pick(&self, s: usize) -> usize {
        if self.bits == 0 {
            return if self.cands.len() == 1 { 0 } else { s };
        }
        let pos = s * self.bits as usize;
        ((self.sel[pos / 64] >> (pos % 64)) & low_mask(self.bits)) as usize
    }

    /// Reset the selectors to `slots` zero fields of `bits` bits.
    fn clear_sel(&mut self, slots: usize, bits: u32) {
        self.sel.clear();
        self.sel.resize(sel_words(slots, bits), 0);
        self.bits = bits;
    }

    /// Point slot `s`, whose field is zero, at candidate `c` (`bits > 0`).
    #[inline]
    fn set_pick(&mut self, s: usize, c: usize) {
        let pos = s * self.bits as usize;
        self.sel[pos / 64] |= (c as u64) << (pos % 64);
    }
}

/// Recycled buffers. A merge consumes its operands' vectors, and an
/// expiring head its own; instead of freeing them the bank parks them here
/// (cleared) for the next merge — steady-state ingestion runs
/// allocation-free. Allocator-level reuse, like `Vec` spare capacity: not
/// part of the §1.4 word accounting.
#[derive(Debug, Clone)]
struct SparePool<T, S> {
    bufs: Vec<Lanes<T, S>>,
}

impl<T, S> Default for SparePool<T, S> {
    fn default() -> Self {
        Self { bufs: Vec::new() }
    }
}

/// Cascaded merges can park several buffers before the next merge drains
/// one; a handful is plenty.
const SPARE_POOL_CAP: usize = 8;

/// Merge scratch: the coin words, the merged selectors, and the slots by
/// stream index when re-indexing.
#[derive(Default)]
struct Scratch {
    coins: Vec<u64>,
    sel: Vec<u64>,
    order: Vec<(u64, usize)>,
}

thread_local! {
    /// Shared by every bank on the thread, so it stays in cache across a
    /// fleet's keys.
    static SCRATCH: std::cell::Cell<Scratch> = const {
        std::cell::Cell::new(Scratch {
            coins: Vec::new(),
            sel: Vec::new(),
            order: Vec::new(),
        })
    };
}

impl<T, S> SparePool<T, S> {
    /// Empty candidate and selector buffers.
    fn take(&mut self) -> Lanes<T, S> {
        self.bufs.pop().unwrap_or(Lanes::EMPTY)
    }

    fn put(&mut self, mut bufs: Lanes<T, S>) {
        if self.bufs.len() < SPARE_POOL_CAP {
            bufs.cands.clear();
            bufs.sel.clear();
            bufs.bits = 0;
            self.bufs.push(bufs);
        }
    }
}

impl<T: Clone, S: Clone> Lanes<T, S> {
    /// The layout to store these slots in: each distinct element once,
    /// in stream order, with a selector per slot — unless that index
    /// would not be smaller than the `2k` slots stored plainly, or would
    /// need more than [`MAX_INDEXED`] candidates: then slot order.
    fn store(
        self,
        lanes: usize,
        order: &mut Vec<(u64, usize)>,
        pool: &mut SparePool<T, S>,
    ) -> Self {
        let slots = 2 * lanes;
        let smaller = |m: usize| {
            m <= MAX_INDEXED
                && m * Sample::<T>::WORDS + sel_words(slots, sel_bits(m))
                    < slots * Sample::<T>::WORDS
        };
        if !self.slot_order() {
            if smaller(self.cands.len()) {
                return self;
            }
            let mut out = pool.take();
            out.cands
                .extend((0..slots).map(|s| self.cands[self.pick(s)].clone()));
            pool.put(self);
            return out;
        }
        // The slots by stream index: runs of one element.
        order.clear();
        order.extend((0..slots).map(|s| (self.cands[s].0.index(), s)));
        order.sort_unstable();
        let m = 1 + order.windows(2).filter(|p| p[0].0 != p[1].0).count();
        if !smaller(m) {
            return self;
        }
        let mut out = pool.take();
        out.clear_sel(slots, sel_bits(m));
        for (i, &(index, s)) in order.iter().enumerate() {
            if i == 0 || order[i - 1].0 != index {
                out.cands.push(self.cands[s].clone());
            }
            if out.bits > 0 {
                out.set_pick(s, out.cands.len() - 1);
            }
        }
        pool.put(self);
        out
    }

    /// [`LaneSamples::merge`] past the first level: slot `s` takes the
    /// right operand's element where bit `s` of `take_right` is set, and
    /// the result stores the candidates some slot still holds, in stream
    /// order. `sel` is scratch for the merged selectors.
    ///
    /// Up to [`MAX_INDEXED`] candidates between the operands, and neither
    /// in slot order, the selectors merge eight slots (a byte each) to the
    /// word, branch-free: the coins are a 50/50 guess for a branch. Wide
    /// buckets build the merged slots in slot order, for
    /// [`store`](Self::store) to index if that is smaller.
    fn merge(
        mut self,
        right: LaneSamples<T, S>,
        lanes: usize,
        take_right: &[u64],
        sel: &mut Vec<u64>,
        pool: &mut SparePool<T, S>,
    ) -> Self {
        let slots = 2 * lanes;
        let ml = self.cands.len();
        let m = ml + right.len();
        if self.slot_order() || right.slot_order() || m > MAX_INDEXED {
            let mut out = pool.take();
            out.cands.extend((0..slots).map(|s| {
                if (take_right[s / 64] >> (s % 64)) & 1 == 1 {
                    let (item, stat) = right.slot(s);
                    (item.clone(), stat.clone())
                } else {
                    self.cands[self.pick(s)].clone()
                }
            }));
            pool.put(self);
            right.recycle(pool);
            return out;
        }
        let (lsel, rsel) = (self.selectors(), right.selectors());
        let offset = ml as u64 * BYTE_ONES;
        // Per word, its 8 slots' candidates in `left ++ right`, a byte
        // each; bytes past the last slot read 0.
        let picks = |w: usize| {
            let coins = (take_right[w / 8] >> (8 * (w % 8))) & 0xFF;
            let take = EXPAND[coins as usize] * 0xFF;
            let (l, r) = (lsel.bytes(w), rsel.bytes(w) + offset);
            l ^ ((l ^ r) & take)
        };
        let words = slots.div_ceil(8);
        // Whether a slot holds each candidate.
        let mut held = [0u8; MAX_INDEXED];
        if lsel.bits <= 1 && rsel.bits <= 1 {
            // At most two candidates a side: a word of slots at a time,
            // candidate 1 where the selector bit is set, 0 where clear.
            for (w, &take) in take_right.iter().enumerate() {
                let live = low_mask((slots - 64 * w).min(64) as u32);
                let (l, r) = (lsel.bit_word(w), rsel.bit_word(w));
                for (c, slots) in [
                    (0, !l & !take),
                    (1, l & !take),
                    (ml, !r & take),
                    (ml + 1, r & take),
                ] {
                    held[c] |= u8::from(slots & live != 0);
                }
            }
        } else {
            for w in 0..words {
                let live = (slots - 8 * w).min(8);
                for (j, c) in picks(w).to_le_bytes().into_iter().enumerate() {
                    if j < live {
                        held[usize::from(c)] = 1;
                    }
                }
            }
        }
        let held = &held[..m];
        let kept = held.iter().map(|&h| usize::from(h)).sum();
        // The held candidates' new indices, if any is dropped
        // (`kept < m ≤ 256`, so they fit a byte).
        let rank = (kept < m).then(|| {
            let mut rank = [0u8; MAX_INDEXED];
            let mut next = 0;
            for (r, &h) in rank.iter_mut().zip(held) {
                *r = next;
                next += h;
            }
            rank
        });
        let bits = sel_bits(kept);
        sel.clear();
        sel.resize(sel_words(slots, bits), 0);
        if bits > 0 {
            for w in 0..words {
                let mut p = picks(w);
                if let Some(rank) = &rank {
                    p = u64::from_le_bytes(p.to_le_bytes().map(|c| rank[usize::from(c)]));
                }
                if bits == 8 {
                    sel[w] = p;
                } else {
                    sel[w / 8] |= gather(p) << (8 * (w % 8));
                }
            }
        }
        let held = (kept < m).then_some(held);
        if let Some(held) = held {
            retain_held(&mut self.cands, &held[..ml]);
        }
        right.move_held(held.map(|h| &h[ml..]), &mut self.cands, pool);
        self.sel.clear();
        self.sel.extend_from_slice(sel);
        self.bits = bits;
        self
    }
}

/// Keep the entries whose `held` flag is 1, in order. Branch-free: a
/// dropped entry moves up past the kept ones.
fn retain_held<C>(cands: &mut Vec<C>, held: &[u8]) {
    let first = held.iter().position(|&h| h == 0).unwrap_or(held.len());
    let mut kept = first;
    for (c, &h) in held.iter().enumerate().skip(first) {
        cands.swap(kept, c);
        kept += usize::from(h);
    }
    cands.truncate(kept);
}

impl<T, S> LaneSamples<T, S> {
    /// Slot `s`'s element and its tracker statistic.
    #[inline]
    fn slot(&self, s: usize) -> (&Sample<T>, &S) {
        match self {
            LaneSamples::Shared { item, stat } => (item, stat),
            LaneSamples::Pair { cands, sel } => {
                let (item, stat) = &cands[pair_pick(sel, s)];
                (item, stat)
            }
            LaneSamples::Indexed(l) => {
                let (item, stat) = &l.cands[l.pick(s)];
                (item, stat)
            }
        }
    }

    /// Park the buffers (if merged) for reuse.
    fn recycle(self, pool: &mut SparePool<T, S>) {
        if let LaneSamples::Indexed(l) = self {
            pool.put(l);
        }
    }

    /// Stored candidates.
    fn len(&self) -> usize {
        match self {
            LaneSamples::Shared { .. } => 1,
            LaneSamples::Pair { .. } => 2,
            LaneSamples::Indexed(l) => l.cands.len(),
        }
    }

    fn slot_order(&self) -> bool {
        matches!(self, LaneSamples::Indexed(l) if l.slot_order())
    }

    /// The selectors of an index.
    fn selectors(&self) -> Sel<'_> {
        match self {
            LaneSamples::Shared { .. } => Sel {
                words: &[],
                bits: 0,
            },
            LaneSamples::Pair { sel, .. } => Sel {
                words: sel,
                bits: 1,
            },
            LaneSamples::Indexed(l) => l.selectors(),
        }
    }

    /// Move the candidates whose `held` entry is 1 (all of them without
    /// `held`) to the end of `out`, in stream order, and recycle the
    /// buffers.
    fn move_held(
        self,
        held: Option<&[u8]>,
        out: &mut Vec<(Sample<T>, S)>,
        pool: &mut SparePool<T, S>,
    ) {
        let is_held = |c: usize| held.is_none_or(|held| held[c] != 0);
        match self {
            LaneSamples::Shared { item, stat } => {
                if is_held(0) {
                    out.push((item, stat));
                }
            }
            LaneSamples::Pair { cands, .. } => {
                for (c, cand) in cands.into_iter().enumerate() {
                    if is_held(c) {
                        out.push(cand);
                    }
                }
            }
            LaneSamples::Indexed(mut l) => {
                if let Some(held) = held {
                    retain_held(&mut l.cands, held);
                }
                out.append(&mut l.cands);
                pool.put(l);
            }
        }
    }

    fn into_lanes(self, lanes: usize, pool: &mut SparePool<T, S>) -> Lanes<T, S> {
        match self {
            LaneSamples::Indexed(l) => l,
            LaneSamples::Shared { item, stat } => {
                let mut single = pool.take();
                single.cands.push((item, stat));
                single
            }
            LaneSamples::Pair { cands, sel } => {
                let mut pair = pool.take();
                pair.cands.extend(cands);
                pair.sel.extend_from_slice(&sel[..sel_words(2 * lanes, 1)]);
                pair.bits = 1;
                pair
            }
        }
    }
}

impl<T: Clone, S: Clone> LaneSamples<T, S> {
    /// The `Incr` union step for all lanes at once: per lane, `R` (and,
    /// independently, `Q`) is taken from the right operand on a fair coin
    /// bit. Coins are drawn as masks, per 64-lane chunk the `R` mask then
    /// the `Q` mask. Two singletons at `2 ≤ k ≤ 64` (half of all merges)
    /// keep both candidates, and the coins are their 1-bit selectors
    /// verbatim; every other merge is [`Lanes::merge`].
    fn merge<R: Rng>(
        self,
        right: Self,
        lanes: usize,
        rng: &mut R,
        coins: &mut BitSource,
        pool: &mut SparePool<T, S>,
    ) -> Self {
        let (left, right) = match (self, right) {
            (
                LaneSamples::Shared { item: li, stat: ls },
                LaneSamples::Shared { item: ri, stat: rs },
            ) if pair_shaped(lanes) => {
                let n = lanes as u32;
                let (r, q) = (coins.mask(rng, n), coins.mask(rng, n));
                let sel = u128::from(r) | u128::from(q) << lanes;
                return LaneSamples::Pair {
                    cands: [(li, ls), (ri, rs)],
                    sel: [sel as u64, (sel >> 64) as u64],
                };
            }
            (left, right) => (left.into_lanes(lanes, pool), right),
        };
        let mut scratch = SCRATCH.take();
        let take_right = &mut scratch.coins;
        take_right.clear();
        take_right.resize((2 * lanes).div_ceil(64), 0);
        let mut lane0 = 0;
        while lane0 < lanes {
            let n = (lanes - lane0).min(64);
            for first in [lane0, lanes + lane0] {
                let mask = coins.mask(rng, n as u32);
                take_right[first / 64] |= mask << (first % 64);
                if first % 64 + n > 64 {
                    take_right[first / 64 + 1] |= mask >> (64 - first % 64);
                }
            }
            lane0 += n;
        }
        let merged = left.merge(right, lanes, &scratch.coins, &mut scratch.sel, pool);
        let merged = merged.store(lanes, &mut scratch.order, pool);
        SCRATCH.set(scratch);
        LaneSamples::Indexed(merged)
    }
}

/// A bucket structure with shared boundaries and `k`-lane sample slots.
#[derive(Debug, Clone)]
struct BankBucket<T, S> {
    /// First covered index (`x`).
    a: u64,
    /// One past the last covered index (`y`).
    b: u64,
    /// Timestamp of the first covered element `T(p_a)` — shared, stored
    /// once for all lanes.
    ts_first: u64,
    samples: LaneSamples<T, S>,
}

impl<T: Clone, S: Clone> BankBucket<T, S> {
    fn singleton(item: Sample<T>, stat: S) -> Self {
        let idx = item.index();
        let ts = item.timestamp();
        Self {
            a: idx,
            b: idx + 1,
            ts_first: ts,
            samples: LaneSamples::Shared { item, stat },
        }
    }

    fn width(&self) -> u64 {
        self.b - self.a
    }

    /// Slot `s`'s element and its tracker statistic.
    fn slot(&self, s: usize) -> (&Sample<T>, &S) {
        self.samples.slot(s)
    }

    /// Lane `lane`'s `R` sample and its statistic.
    fn r(&self, lane: usize) -> (&Sample<T>, &S) {
        self.slot(lane)
    }

    /// Lane `lane`'s `Q` sample.
    fn q(&self, lane: usize, lanes: usize) -> &Sample<T> {
        self.slot(lanes + lane).0
    }

    fn merge_right<R: Rng>(
        &mut self,
        right: BankBucket<T, S>,
        lanes: usize,
        rng: &mut R,
        coins: &mut BitSource,
        pool: &mut SparePool<T, S>,
    ) {
        debug_assert_eq!(self.b, right.a, "merge of non-adjacent buckets");
        debug_assert_eq!(
            self.width(),
            right.width(),
            "merge of unequal-width buckets"
        );
        let left = std::mem::replace(&mut self.samples, LaneSamples::Indexed(Lanes::EMPTY));
        self.samples = left.merge(right.samples, lanes, rng, coins, pool);
        self.b = right.b;
    }

    /// Park this bucket's buffers (if merged) for reuse.
    fn recycle(self, pool: &mut SparePool<T, S>) {
        self.samples.recycle(pool);
    }

    /// One lane's view as a plain `BucketStruct` (cloned).
    fn lane_bucket(&self, lane: usize, lanes: usize) -> BucketStruct<T, S> {
        let (r, r_stat) = self.r(lane);
        BucketStruct {
            a: self.a,
            b: self.b,
            ts_first: self.ts_first,
            r: r.clone(),
            r_stat: r_stat.clone(),
            q: self.q(lane, lanes).clone(),
        }
    }

    fn observe_stats(&mut self, mut observe: impl FnMut(&mut S)) {
        match &mut self.samples {
            LaneSamples::Shared { stat, .. } => observe(stat),
            LaneSamples::Pair { cands, .. } => {
                for (_, stat) in cands {
                    observe(stat);
                }
            }
            LaneSamples::Indexed(l) => {
                for (_, stat) in &mut l.cands {
                    observe(stat);
                }
            }
        }
    }

    /// The checkpoint record, in the shape every release has written:
    /// `Shared` at width 1, `Pair` at width 2 for `2 ≤ k ≤ 64`, per-lane
    /// slots otherwise.
    fn to_state(&self, lanes: usize) -> TsBankBucketState<T> {
        let samples = match &self.samples {
            LaneSamples::Shared { item, .. } => TsLaneSamplesState::Shared(item.clone()),
            LaneSamples::Pair { cands, sel } => {
                let mask = |first: usize| {
                    (0..lanes).fold(0u64, |mask, j| {
                        mask | (pair_pick(sel, first + j) as u64) << j
                    })
                };
                TsLaneSamplesState::Pair {
                    lo: cands[0].0.clone(),
                    hi: cands[1].0.clone(),
                    rsel: mask(0),
                    qsel: mask(lanes),
                }
            }
            LaneSamples::Indexed(_) => TsLaneSamplesState::PerLane {
                r: (0..lanes).map(|s| self.slot(s).0.clone()).collect(),
                q: (lanes..2 * lanes).map(|s| self.slot(s).0.clone()).collect(),
            },
        };
        TsBankBucketState {
            a: self.a,
            b: self.b,
            ts_first: self.ts_first,
            samples,
        }
    }
}

impl<T, S> MemoryWords for BankBucket<T, S> {
    fn memory_words(&self) -> usize {
        // Boundaries (a, b, ts_first) stored once; then the stored
        // candidates and selector words, exactly as held.
        3 + match &self.samples {
            LaneSamples::Shared { .. } => Sample::<T>::WORDS,
            LaneSamples::Pair { sel, .. } => 2 * Sample::<T>::WORDS + sel.len(),
            LaneSamples::Indexed(l) => l.cands.len() * Sample::<T>::WORDS + l.sel.len(),
        }
    }
}

/// The covering decomposition over shared boundaries — `Covering`'s exact
/// `Incr`/split logic, lifted to `k`-lane buckets.
#[derive(Debug, Clone)]
struct BankCovering<T, S> {
    buckets: Vec<BankBucket<T, S>>,
}

impl<T: Clone, S: Clone> BankCovering<T, S> {
    fn new(bucket: BankBucket<T, S>) -> Self {
        Self {
            buckets: vec![bucket],
        }
    }

    fn start(&self) -> u64 {
        self.buckets[0].a
    }

    fn end(&self) -> u64 {
        self.buckets.last().expect("covering is never empty").b
    }

    fn covered_len(&self) -> u64 {
        self.end() - self.start()
    }

    fn newest_ts(&self) -> u64 {
        let last = self.buckets.last().expect("covering is never empty");
        debug_assert_eq!(last.width(), 1, "canonical covering ends in width 1");
        last.ts_first
    }

    fn oldest_ts(&self) -> u64 {
        self.buckets[0].ts_first
    }

    /// `Incr` (Lemma 3.4) — the same front-to-back walk as
    /// `Covering::incr`, with each merge resolving all `k` lanes at once.
    #[allow(clippy::too_many_arguments)]
    fn incr<R: Rng>(
        &mut self,
        item: Sample<T>,
        stat: S,
        lanes: usize,
        rng: &mut R,
        bits: &mut BitSource,
        pool: &mut SparePool<T, S>,
    ) {
        debug_assert_eq!(item.index(), self.end(), "Incr: non-consecutive index");
        debug_assert!(
            item.timestamp() >= self.newest_ts(),
            "Incr: timestamps must be non-decreasing"
        );
        // Closed-form Lemma 3.4 walk. Bucket start offsets are canonical
        // in the covered length `l`, so the walk's suffix-length chain
        // (`l → l − head_width`) is pure arithmetic, and a merge fires
        // exactly at chain values of the form 2^j − 1 (where the `⌊log⌋`
        // jumps). Three facts collapse the walk to O(1) + O(#merges):
        //
        // 1. The chain from even `l` stays even until 2 → 1, and every
        //    trigger 2^j − 1 (j ≥ 2) is odd — so even lengths never
        //    merge: the insert is a single push.
        // 2. Merges cascade: a merge at chain value m = 2^j − 1 is
        //    followed by chain value (m−1)/2 = 2^{j−1} − 1, another
        //    trigger — so the merges are a contiguous suffix of the walk,
        //    starting at the *largest* trigger the chain reaches: `l`
        //    itself when all-ones, else 2^{t+1} − 1 for `t` trailing
        //    ones of `l` (odd `l` always reaches 3 = 2^2 − 1 at worst).
        // 3. A canonical covering of length m has exactly
        //    popcount(m) + ⌊log₂ m⌋ buckets, which converts the cascade's
        //    suffix length into its bucket index.
        //
        // The retained reference walk (`Covering::incr`) and the lockstep
        // boundary tests pin the equivalence.
        let l = self.covered_len();
        if l & 1 == 1 && l > 1 {
            let first = if (l + 1).is_power_of_two() {
                l
            } else {
                (1u64 << (l.trailing_ones() + 1)) - 1
            };
            let bucket_count = |m: u64| m.count_ones() + floor_log2(m);
            let mut i = (bucket_count(l) - bucket_count(first)) as usize;
            let mut m = first;
            while m > 1 {
                let right = self.buckets.remove(i + 1);
                self.buckets[i].merge_right(right, lanes, rng, bits, pool);
                m = (m - 1) / 2;
                i += 1;
            }
        }
        self.buckets.push(BankBucket::singleton(item, stat));
        debug_assert!(self.is_canonical(), "Incr broke canonical form");
    }

    /// The Lemma 3.5 case-2 split — identical to `Covering::split_straddle`.
    fn split_straddle(&mut self, active: impl Fn(u64) -> bool) -> BankBucket<T, S> {
        debug_assert!(
            !active(self.buckets[0].ts_first),
            "split: first bucket still active"
        );
        debug_assert!(active(self.newest_ts()), "split: newest element expired");
        let j = self
            .buckets
            .iter()
            .position(|b| active(b.ts_first))
            .expect("newest element is active, so an active bucket exists");
        debug_assert!(j >= 1);
        let mut tail = self.buckets.split_off(j);
        std::mem::swap(&mut self.buckets, &mut tail);
        tail.pop().expect("prefix is non-empty")
    }

    /// Uniform sample of the covered range for one lane: bucket chosen
    /// proportional to width, that bucket's lane-`R` output.
    fn sample_uniform_lane<R: Rng>(&self, lane: usize, rng: &mut R) -> (Sample<T>, S) {
        let total = self.covered_len();
        let mut x = rng.gen_range(0..total);
        for b in &self.buckets {
            if x < b.width() {
                let (r, stat) = b.r(lane);
                return (r.clone(), stat.clone());
            }
            x -= b.width();
        }
        unreachable!("widths sum to covered_len")
    }

    fn observe_stats(&mut self, mut observe: impl FnMut(&mut S)) {
        for b in &mut self.buckets {
            b.observe_stats(&mut observe);
        }
    }

    fn is_canonical(&self) -> bool {
        let end = self.end();
        let mut expect_a = self.start();
        for (i, b) in self.buckets.iter().enumerate() {
            if b.a != expect_a || b.b <= b.a {
                return false;
            }
            let suffix_len = end - b.a;
            let want = if i == self.buckets.len() - 1 {
                1
            } else {
                1u64 << (floor_log2(suffix_len) - 1)
            };
            if b.width() != want {
                return false;
            }
            expect_a = b.b;
        }
        expect_a == end
    }
}

impl<T, S> MemoryWords for BankCovering<T, S> {
    fn memory_words(&self) -> usize {
        self.buckets.iter().map(MemoryWords::memory_words).sum()
    }
}

/// Lemma 3.5 state over the shared boundaries.
#[derive(Debug, Clone)]
enum BankState<T, S> {
    Empty,
    Full(BankCovering<T, S>),
    Straddle {
        head: BankBucket<T, S>,
        tail: BankCovering<T, S>,
    },
}

/// `k` fused single-sample engines over one timestamp window: one shared
/// covering decomposition, `k` independent sample lanes.
///
/// Equivalent in distribution to `k` independent [`TsEngine`]s driven by
/// the same stream (see the [module docs](self) for the argument), at
/// `1/k` of the boundary-maintenance work and amortized `O(k/32)` RNG
/// words per arrival. [`super::TsSamplerWr`] and [`super::TsSamplerWor`]
/// are built on it; the per-engine construction is the reference module
/// [`super::independent`].
#[derive(Debug, Clone)]
pub struct TsEngineBank<T, K: SampleTracker<T> = NullTracker> {
    t0: u64,
    now: u64,
    lanes: usize,
    tracker: K,
    bits: BitSource,
    spare: SparePool<T, K::Stat>,
    state: BankState<T, K::Stat>,
}

impl<T: Clone> TsEngineBank<T, NullTracker> {
    /// Bank of `lanes ≥ 1` fused engines over windows of width `t0 ≥ 1`,
    /// clock starting at 0, no tracking.
    pub fn new(t0: u64, lanes: usize) -> Self {
        Self::with_tracker(t0, lanes, NullTracker)
    }
}

impl<T: Clone, K: SampleTracker<T>> TsEngineBank<T, K> {
    /// Like [`TsEngineBank::new`] with a per-sample suffix tracker
    /// (Theorem 5.1 support). One tracker serves all lanes; a fresh
    /// arrival's statistic is computed once and stored with the element,
    /// which each bucket stores once for all the lanes holding it.
    pub fn with_tracker(t0: u64, lanes: usize, tracker: K) -> Self {
        assert!(t0 >= 1, "TsEngineBank: window width must be at least 1");
        assert!(lanes >= 1, "TsEngineBank: need at least one lane");
        Self {
            t0,
            now: 0,
            lanes,
            tracker,
            bits: BitSource::new(),
            spare: SparePool::default(),
            state: BankState::Empty,
        }
    }

    /// Window width `t0`.
    pub fn window(&self) -> u64 {
        self.t0
    }

    /// Current clock.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of fused lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// `true` when a query returns `None` (nothing stored is active).
    pub fn is_empty(&self) -> bool {
        matches!(self.state, BankState::Empty)
    }

    fn is_active(&self, ts: u64) -> bool {
        debug_assert!(ts <= self.now);
        self.now - ts < self.t0
    }

    /// Advance the clock and run the Lemma 3.5 expiry transitions — once,
    /// for all lanes.
    ///
    /// # Panics
    /// Panics if `now` moves backwards.
    pub fn advance_time(&mut self, now: u64) {
        assert!(
            now >= self.now,
            "TsEngineBank: clock moved backwards ({} -> {now})",
            self.now
        );
        self.now = now;
        // Every transition needs the oldest live (covering or tail)
        // element to have expired; until then nothing moves.
        let oldest_live = match &self.state {
            BankState::Empty => return,
            BankState::Full(cov) => cov.oldest_ts(),
            BankState::Straddle { tail, .. } => tail.oldest_ts(),
        };
        if self.is_active(oldest_live) {
            return;
        }
        let t0 = self.t0;
        let active = |ts: u64| now - ts < t0;
        let state = std::mem::replace(&mut self.state, BankState::Empty);
        self.state = match state {
            BankState::Empty => unreachable!("returned above"),
            BankState::Full(mut cov) => {
                if !active(cov.newest_ts()) {
                    BankState::Empty
                } else {
                    let head = cov.split_straddle(active);
                    BankState::Straddle { head, tail: cov }
                }
            }
            BankState::Straddle { head, mut tail } => {
                head.recycle(&mut self.spare);
                if !active(tail.newest_ts()) {
                    BankState::Empty
                } else {
                    let head = tail.split_straddle(active);
                    BankState::Straddle { head, tail }
                }
            }
        };
        self.debug_check_invariants();
    }

    /// Insert an element arriving at timestamp `ts` with stream index
    /// `index` — one boundary walk for all `k` lanes.
    ///
    /// Same contract as [`TsEngine::insert`]: indices consecutive while
    /// non-empty, already-expired arrivals only ever offered when the bank
    /// has emptied (the §4 delayed-ingestion path, Lemma 4.1).
    pub fn insert<R: Rng>(&mut self, rng: &mut R, value: T, index: u64, ts: u64) {
        assert!(
            ts <= self.now,
            "TsEngineBank: element from the future (ts {ts} > now {})",
            self.now
        );
        if !self.is_active(ts) {
            debug_assert!(matches!(self.state, BankState::Empty));
            return;
        }
        if K::TRACKS {
            let tracker = &mut self.tracker;
            match &mut self.state {
                BankState::Empty => {}
                BankState::Full(cov) => cov.observe_stats(|stat| tracker.observe(stat, &value)),
                BankState::Straddle { head, tail } => {
                    head.observe_stats(|stat| tracker.observe(stat, &value));
                    tail.observe_stats(|stat| tracker.observe(stat, &value));
                }
            }
        }
        let stat = self.tracker.fresh(&value, index);
        let item = Sample::new(value, index, ts);
        let lanes = self.lanes;
        let bits = &mut self.bits;
        let pool = &mut self.spare;
        match &mut self.state {
            BankState::Empty => {
                self.state = BankState::Full(BankCovering::new(BankBucket::singleton(item, stat)))
            }
            BankState::Full(cov) => cov.incr(item, stat, lanes, rng, bits, pool),
            BankState::Straddle { tail, .. } => tail.incr(item, stat, lanes, rng, bits, pool),
        }
        self.debug_check_invariants();
    }

    /// Lane `lane`'s uniform sample of the active elements (Lemma 3.8 /
    /// Theorem 3.9); `None` when the window is empty. Query-time draws
    /// (bucket choice, implicit events) are per-lane, exactly as for a
    /// solo engine.
    pub fn sample_lane<R: Rng>(&self, lane: usize, rng: &mut R) -> Option<Sample<T>> {
        self.sample_lane_with_stat(lane, rng).map(|(s, _)| s)
    }

    /// Like [`TsEngineBank::sample_lane`], returning the tracker statistic
    /// carried by the sampled element.
    pub fn sample_lane_with_stat<R: Rng>(
        &self,
        lane: usize,
        rng: &mut R,
    ) -> Option<(Sample<T>, K::Stat)> {
        assert!(lane < self.lanes, "lane {lane} out of range");
        match &self.state {
            BankState::Empty => None,
            BankState::Full(cov) => Some(cov.sample_uniform_lane(lane, rng)),
            BankState::Straddle { head, tail } => {
                Some(self.sample_straddle_lane(head, tail, lane, rng))
            }
        }
    }

    /// The case-2 sampling rule (Lemmas 3.6–3.8) for one lane — a verbatim
    /// lift of `TsEngine::sample_straddle` onto lane-indexed slots.
    fn sample_straddle_lane<R: Rng>(
        &self,
        head: &BankBucket<T, K::Stat>,
        tail: &BankCovering<T, K::Stat>,
        lane: usize,
        rng: &mut R,
    ) -> (Sample<T>, K::Stat) {
        let alpha = head.width();
        let beta = tail.covered_len();
        debug_assert!(
            alpha <= beta,
            "case-2 invariant α ≤ β violated ({alpha} > {beta})"
        );
        let r2 = tail.sample_uniform_lane(lane, rng);

        let q1 = head.q(lane, self.lanes);
        let i = head.b - q1.index();
        debug_assert!(i >= 1 && i <= alpha);
        let y_expired = if i < alpha {
            let num = alpha as u128 * beta as u128;
            let den = (beta + i) as u128 * (beta + i - 1) as u128;
            if bernoulli_ratio(rng, num, den) {
                !self.is_active(q1.timestamp())
            } else {
                !self.is_active(head.ts_first)
            }
        } else {
            !self.is_active(head.ts_first)
        };

        let x = y_expired && bernoulli_ratio(rng, alpha as u128, beta as u128);

        let (r1, r1_stat) = head.r(lane);
        if x && self.is_active(r1.timestamp()) {
            (r1.clone(), r1_stat.clone())
        } else {
            r2
        }
    }

    /// The shared bucket-boundary profile — `(a, b, T(p_a))` per bucket,
    /// oldest first, straddling head included. By construction identical
    /// for every lane; lockstep-equal to [`TsEngine::boundaries`] of an
    /// independent engine fed the same stream (asserted in
    /// `tests/ts_bank_equivalence.rs`).
    pub fn boundaries(&self) -> Vec<(u64, u64, u64)> {
        match &self.state {
            BankState::Empty => Vec::new(),
            BankState::Full(cov) => cov.buckets.iter().map(|b| (b.a, b.b, b.ts_first)).collect(),
            BankState::Straddle { head, tail } => std::iter::once((head.a, head.b, head.ts_first))
                .chain(tail.buckets.iter().map(|b| (b.a, b.b, b.ts_first)))
                .collect(),
        }
    }

    /// `true` in the Lemma 3.5 case-2 (straddling-bucket) state.
    pub fn is_straddling(&self) -> bool {
        matches!(self.state, BankState::Straddle { .. })
    }

    /// Extract one lane as a standalone [`TsEngine`] (cloned boundaries +
    /// that lane's slots). Used by the §4 without-replacement sampler to
    /// extend a lane with its delay-deficit arrivals at query time.
    pub(crate) fn lane_engine(&self, lane: usize) -> TsEngine<T, K>
    where
        K: Clone,
    {
        assert!(lane < self.lanes, "lane {lane} out of range");
        let state = match &self.state {
            BankState::Empty => State::Empty,
            BankState::Full(cov) => State::Full(Covering::from_buckets(
                cov.buckets
                    .iter()
                    .map(|b| b.lane_bucket(lane, self.lanes))
                    .collect(),
            )),
            BankState::Straddle { head, tail } => State::Straddle {
                head: head.lane_bucket(lane, self.lanes),
                tail: Covering::from_buckets(
                    tail.buckets
                        .iter()
                        .map(|b| b.lane_bucket(lane, self.lanes))
                        .collect(),
                ),
            },
        };
        TsEngine::from_parts(self.t0, self.now, self.tracker.clone(), state)
    }

    /// Checkpoint the bank's stream-dependent state (bucket skeleton,
    /// lane samples in the record shape their bucket's width gives, coin
    /// buffer) as plain data. `None` when the tracker observes arrivals —
    /// its suffix statistics cannot be reconstructed from retained
    /// samples.
    ///
    /// The internal `SparePool` is allocator-level recycling, not sampler state;
    /// it is neither saved nor restored, which is behavior-neutral.
    pub fn save_state(&self) -> Option<TsBankState<T>> {
        if K::TRACKS {
            return None;
        }
        let lanes = self.lanes;
        let kind = match &self.state {
            BankState::Empty => TsBankKind::Empty,
            BankState::Full(cov) => {
                TsBankKind::Full(cov.buckets.iter().map(|b| b.to_state(lanes)).collect())
            }
            BankState::Straddle { head, tail } => TsBankKind::Straddle {
                head: head.to_state(lanes),
                tail: tail.buckets.iter().map(|b| b.to_state(lanes)).collect(),
            },
        };
        let (buf, left) = self.bits.state();
        Some(TsBankState {
            now: self.now,
            bits: BitsState { buf, left },
            kind,
        })
    }

    /// Rebuild one bucket from its checkpoint, reconstructing tracker
    /// statistics via `fresh` (exact for non-tracking trackers). Rejects
    /// any record this bank could not have written: a shape other than the
    /// one its width and `k` give, a lane sample outside the bucket, a
    /// selector bit at or above `k`, a bucket that starts after `now`.
    fn load_bucket(
        &mut self,
        b: TsBankBucketState<T>,
        now: u64,
    ) -> Result<BankBucket<T, K::Stat>, StateError> {
        let corrupt = |what: String| Err(StateError::Corrupt(what));
        let (a, end, ts_first, lanes) = (b.a, b.b, b.ts_first, self.lanes);
        if end <= a {
            return corrupt(format!("bank bucket [{a}, {end}) is empty"));
        }
        if ts_first > now {
            return corrupt(format!(
                "bank bucket starts at {ts_first}, after now = {now}"
            ));
        }
        let width = end - a;
        let in_bucket = |s: &Sample<T>| {
            (a..end).contains(&s.index()) && (ts_first..=now).contains(&s.timestamp())
        };
        let outside = || corrupt(format!("lane sample outside its bucket [{a}, {end})"));
        let tracker = &mut self.tracker;
        let mut with_stat = |s: Sample<T>| {
            let stat = tracker.fresh(s.value(), s.index());
            (s, stat)
        };
        let samples = match b.samples {
            TsLaneSamplesState::Shared(item) => {
                if width != 1 {
                    return corrupt(format!("shared lane samples on a width-{width} bucket"));
                }
                if !in_bucket(&item) {
                    return outside();
                }
                let (item, stat) = with_stat(item);
                LaneSamples::Shared { item, stat }
            }
            TsLaneSamplesState::Pair { lo, hi, rsel, qsel } => {
                if width != 2 || !pair_shaped(lanes) {
                    return corrupt(format!(
                        "pair lane samples on a width-{width} bucket at k = {lanes}"
                    ));
                }
                if lo.index() != a || hi.index() != a + 1 || !in_bucket(&lo) || !in_bucket(&hi) {
                    return outside();
                }
                if (rsel | qsel) & !low_mask(lanes as u32) != 0 {
                    return corrupt(format!("pair selector bit at or above k = {lanes}"));
                }
                let sel = u128::from(rsel) | u128::from(qsel) << lanes;
                LaneSamples::Pair {
                    cands: [with_stat(lo), with_stat(hi)],
                    sel: [sel as u64, (sel >> 64) as u64],
                }
            }
            TsLaneSamplesState::PerLane { r, q } => {
                if r.len() != lanes || q.len() != lanes {
                    return corrupt(format!(
                        "bank bucket holds {}/{} lane slots for {lanes} lanes",
                        r.len(),
                        q.len()
                    ));
                }
                if width == 1 || (width == 2 && pair_shaped(lanes)) {
                    return corrupt(format!(
                        "per-lane samples on a width-{width} bucket at k = {lanes}"
                    ));
                }
                let slots: Vec<Sample<T>> = r.into_iter().chain(q).collect();
                if !slots.iter().all(in_bucket) {
                    return outside();
                }
                let mut seen: Vec<(u64, u64)> =
                    slots.iter().map(|s| (s.index(), s.timestamp())).collect();
                seen.sort_unstable();
                seen.dedup();
                if let Some(p) = seen.windows(2).find(|p| p[0].0 == p[1].0) {
                    return corrupt(format!(
                        "lane samples of index {} disagree on its timestamp",
                        p[0].0
                    ));
                }
                let plain = Lanes {
                    cands: slots.into_iter().map(with_stat).collect(),
                    ..Lanes::EMPTY
                };
                let mut scratch = SCRATCH.take();
                let stored = plain.store(lanes, &mut scratch.order, &mut self.spare);
                SCRATCH.set(scratch);
                LaneSamples::Indexed(stored)
            }
        };
        Ok(BankBucket {
            a,
            b: end,
            ts_first,
            samples,
        })
    }

    fn load_covering(
        &mut self,
        buckets: Vec<TsBankBucketState<T>>,
        now: u64,
    ) -> Result<BankCovering<T, K::Stat>, StateError> {
        if buckets.is_empty() {
            return Err(StateError::Corrupt("empty bank covering".into()));
        }
        let buckets = buckets
            .into_iter()
            .map(|b| self.load_bucket(b, now))
            .collect::<Result<_, _>>()?;
        Ok(BankCovering { buckets })
    }

    /// Overwrite the bank's stream-dependent state from a
    /// [`TsBankState`] checkpoint taken on a bank with the same window
    /// width and lane count. Continues the run bit-identically. A record
    /// no run of this bank could reach is [`StateError::Corrupt`].
    pub fn restore_state(&mut self, state: TsBankState<T>) -> Result<(), StateError> {
        if K::TRACKS {
            return Err(StateError::Unsupported);
        }
        let now = state.now;
        let bank_state = match state.kind {
            TsBankKind::Empty => BankState::Empty,
            TsBankKind::Full(buckets) => BankState::Full(self.load_covering(buckets, now)?),
            TsBankKind::Straddle { head, tail } => BankState::Straddle {
                head: self.load_bucket(head, now)?,
                tail: self.load_covering(tail, now)?,
            },
        };
        if let Some(what) = invariant_violation(&bank_state, self.t0, now) {
            return Err(StateError::Corrupt(what.into()));
        }
        self.now = now;
        self.bits = BitSource::from_state(state.bits.buf, state.bits.left);
        self.state = bank_state;
        Ok(())
    }

    fn debug_check_invariants(&self) {
        debug_assert_eq!(invariant_violation(&self.state, self.t0, self.now), None);
    }
}

/// The first Lemma 3.5 invariant `state` breaks at clock `now`, if any:
/// canonical covering, bucket timestamps non-decreasing and not in the
/// future, every covering element active, and in case 2 an expired head
/// abutting its tail with `α ≤ β`.
fn invariant_violation<T: Clone, S: Clone>(
    state: &BankState<T, S>,
    t0: u64,
    now: u64,
) -> Option<&'static str> {
    let (head, tail) = match state {
        BankState::Empty => return None,
        BankState::Full(cov) => (None, cov),
        BankState::Straddle { head, tail } => (Some(head), tail),
    };
    if !tail.is_canonical() {
        return Some("bank covering not canonical");
    }
    let mut prev = 0;
    for b in head.into_iter().chain(&tail.buckets) {
        if b.ts_first < prev || b.ts_first > now {
            return Some("bank bucket timestamps out of order");
        }
        prev = b.ts_first;
    }
    let active = |ts: u64| now - ts < t0;
    if !active(tail.oldest_ts()) {
        return Some("bank covering holds an expired bucket");
    }
    match head {
        Some(head) if head.b != tail.start() => Some("straddle head does not abut tail"),
        Some(head) if active(head.ts_first) => Some("straddle head has not expired"),
        Some(head) if head.width() > tail.covered_len() => {
            Some("straddle head wider than its tail")
        }
        _ => None,
    }
}

impl<T, K: SampleTracker<T>> MemoryWords for TsEngineBank<T, K> {
    fn memory_words(&self) -> usize {
        let state = match &self.state {
            BankState::Empty => 0,
            BankState::Full(cov) => cov.memory_words(),
            BankState::Straddle { head, tail } => head.memory_words() + tail.memory_words(),
        };
        state + 2 // t0, now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::CountingRng;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use swsample_stats::chi_square_uniform_test;

    fn drive(
        t0: u64,
        lanes: usize,
        schedule: &[(u64, u64)],
        rng: &mut SmallRng,
    ) -> TsEngineBank<u64> {
        let mut bank = TsEngineBank::new(t0, lanes);
        let mut idx = 0u64;
        for &(ts, burst) in schedule {
            bank.advance_time(ts);
            for _ in 0..burst {
                bank.insert(rng, idx, idx, ts);
                idx += 1;
            }
        }
        bank
    }

    #[test]
    fn empty_bank_returns_none() {
        let mut rng = SmallRng::seed_from_u64(0);
        let bank: TsEngineBank<u64> = TsEngineBank::new(5, 4);
        for lane in 0..4 {
            assert!(bank.sample_lane(lane, &mut rng).is_none());
        }
        assert!(bank.is_empty());
    }

    #[test]
    fn boundaries_match_an_independent_engine_in_lockstep() {
        // The load-bearing structural claim: the shared skeleton equals a
        // solo engine's at every single tick, straddle state included.
        let mut rng_bank = SmallRng::seed_from_u64(1);
        let mut rng_engine = SmallRng::seed_from_u64(99); // different coins on purpose
        let mut bank: TsEngineBank<u64> = TsEngineBank::new(7, 8);
        let mut engine: TsEngine<u64> = TsEngine::new(7);
        let mut sched = SmallRng::seed_from_u64(3);
        let mut idx = 0u64;
        for tick in 0..400u64 {
            bank.advance_time(tick);
            engine.advance_time(tick);
            for _ in 0..sched.gen_range(0..4u64) {
                bank.insert(&mut rng_bank, idx, idx, tick);
                engine.insert(&mut rng_engine, idx, idx, tick);
                idx += 1;
            }
            assert_eq!(bank.boundaries(), engine.boundaries(), "tick {tick}");
            assert_eq!(bank.is_straddling(), engine.is_straddling(), "tick {tick}");
        }
    }

    #[test]
    fn every_lane_is_uniform_case2() {
        // Steady stream, query in the straddling state: each of 3 lanes
        // must be uniform over the 16 active elements.
        let t0 = 16u64;
        let last_tick = 40u64;
        let lanes = 3usize;
        let trials = 20_000u64;
        let mut counts = vec![vec![0u64; t0 as usize]; lanes];
        for t in 0..trials {
            let mut rng = SmallRng::seed_from_u64(100_000 + t);
            let schedule: Vec<(u64, u64)> = (0..=last_tick).map(|i| (i, 1)).collect();
            let bank = drive(t0, lanes, &schedule, &mut rng);
            let lo = last_tick - t0 + 1;
            for (lane, lane_counts) in counts.iter_mut().enumerate() {
                let s = bank.sample_lane(lane, &mut rng).expect("nonempty");
                assert!(s.index() >= lo);
                lane_counts[(s.index() - lo) as usize] += 1;
            }
        }
        for (lane, lane_counts) in counts.iter().enumerate() {
            let out = chi_square_uniform_test(lane_counts);
            assert!(
                out.p_value > 1e-4,
                "lane {lane} not uniform: p = {}",
                out.p_value
            );
        }
    }

    #[test]
    fn lanes_are_mutually_independent() {
        // 2 lanes over a 3-element window: the joint law over 9 cells must
        // be the product of uniforms.
        let trials = 40_000u64;
        let mut counts = vec![0u64; 9];
        for t in 0..trials {
            let mut rng = SmallRng::seed_from_u64(50_000 + t);
            let schedule: Vec<(u64, u64)> = (0..10).map(|i| (i, 1)).collect();
            let bank = drive(3, 2, &schedule, &mut rng);
            let a = bank.sample_lane(0, &mut rng).expect("nonempty").index() - 7;
            let b = bank.sample_lane(1, &mut rng).expect("nonempty").index() - 7;
            counts[(a * 3 + b) as usize] += 1;
        }
        let out = chi_square_uniform_test(&counts);
        assert!(
            out.p_value > 1e-4,
            "lanes not independent: p = {}",
            out.p_value
        );
    }

    #[test]
    fn ingestion_draws_are_amortized_bits() {
        // 2k coin bits per merge, ~1 merge per arrival: ≤ k/32 + ε words
        // per element, two orders below the 2k words of independent
        // engines.
        let lanes = 64usize;
        let mut rng = CountingRng::new(SmallRng::seed_from_u64(4));
        let mut bank: TsEngineBank<u64> = TsEngineBank::new(1 << 20, lanes);
        bank.advance_time(0);
        let n = 40_000u64;
        for i in 0..n {
            bank.insert(&mut rng, i, i, 0);
        }
        let per_elem = rng.words() as f64 / n as f64;
        assert!(
            per_elem <= lanes as f64 / 32.0 + 1.0,
            "draws/element {per_elem} above k/32 + 1"
        );
    }

    #[test]
    fn lane_engine_extraction_round_trips() {
        // An extracted lane must be a valid engine whose boundaries match
        // the bank and whose sample is active.
        let mut rng = SmallRng::seed_from_u64(5);
        let schedule: Vec<(u64, u64)> = (0..60).map(|i| (i, 2)).collect();
        let bank = drive(9, 4, &schedule, &mut rng);
        for lane in 0..4 {
            let mut e = bank.lane_engine(lane);
            assert_eq!(e.boundaries(), bank.boundaries());
            let s = e.sample(&mut rng).expect("nonempty");
            assert!(bank.now() - s.timestamp() < 9);
        }
    }

    #[test]
    fn memory_never_exceeds_independent_engines() {
        // Shared boundaries: (6k+3) words per differentiated bucket vs 9k
        // for k engines; Shared singletons are cheaper still.
        let mut rng = SmallRng::seed_from_u64(6);
        let lanes = 5usize;
        let mut bank: TsEngineBank<u64> = TsEngineBank::new(64, lanes);
        let mut engine: TsEngine<u64> = TsEngine::new(64);
        let mut idx = 0u64;
        for tick in 0..500u64 {
            bank.advance_time(tick);
            engine.advance_time(tick);
            for _ in 0..3 {
                bank.insert(&mut rng, idx, idx, tick);
                engine.insert(&mut rng, idx, idx, tick);
                idx += 1;
            }
            let independent = lanes * engine.memory_words();
            assert!(
                bank.memory_words() <= independent,
                "tick {tick}: bank {} > {independent}",
                bank.memory_words()
            );
        }
    }

    /// Each live bucket's stored layout: candidate indices, selector
    /// words and field width.
    fn layouts(bank: &TsEngineBank<u64>) -> Vec<(Vec<u64>, Vec<u64>, u32)> {
        let buckets: Vec<&BankBucket<u64, ()>> = match &bank.state {
            BankState::Empty => Vec::new(),
            BankState::Full(cov) => cov.buckets.iter().collect(),
            BankState::Straddle { head, tail } => {
                std::iter::once(head).chain(&tail.buckets).collect()
            }
        };
        buckets
            .into_iter()
            .map(|b| match &b.samples {
                LaneSamples::Shared { item, .. } => (vec![item.index()], Vec::new(), 0),
                LaneSamples::Pair { cands, sel } => (
                    cands.iter().map(|(s, _)| s.index()).collect(),
                    sel.to_vec(),
                    1,
                ),
                LaneSamples::Indexed(l) => (
                    l.cands.iter().map(|(s, _)| s.index()).collect(),
                    l.sel.clone(),
                    l.bits,
                ),
            })
            .collect()
    }

    #[test]
    fn memory_words_is_an_exact_recount_within_the_per_lane_layout() {
        // Recount each live bucket from its checkpoint record — distinct
        // elements once plus a selector per slot (a bit for two, a byte for
        // up to 256), or 2k slot samples when that is no smaller — and hold
        // it to the layout
        // that stored 2k samples per bucket of width ≥ 4 (6k + 3 words),
        // two candidates and two mask words at width 2 (11) and the
        // element once at width 1 (6). A bank restored from its checkpoint
        // must store exactly the same layout. The last case keeps one hot
        // stream in a 1000-tick window, so buckets grow hundreds wide and
        // their 32 slots hold 31 or 32 distinct elements: slot order, with
        // a repeated element whenever 31.
        let cases = [1usize, 2, 3, 5, 16, 33, 64, 65, 70]
            .map(|lanes| (lanes, 40u64, 10u64, 300u64))
            .into_iter()
            .chain([(16, 1000, 8, 1500)]);
        for (lanes, t0, burst, ticks) in cases {
            let mut rng = SmallRng::seed_from_u64(lanes as u64);
            let mut sched = SmallRng::seed_from_u64(8);
            let mut bank: TsEngineBank<u64> = TsEngineBank::new(t0, lanes);
            let mut idx = 0u64;
            let mut slot_order_repeats = 0;
            for tick in 0..ticks {
                bank.advance_time(tick);
                for _ in 0..sched.gen_range(0..burst) {
                    bank.insert(&mut rng, idx, idx, tick);
                    idx += 1;
                }
                let saved = bank.save_state().expect("untracked banks save");
                let mut total = 2;
                let records: Vec<&TsBankBucketState<u64>> = match &saved.kind {
                    TsBankKind::Empty => Vec::new(),
                    TsBankKind::Full(buckets) => buckets.iter().collect(),
                    TsBankKind::Straddle { head, tail } => {
                        std::iter::once(head).chain(tail).collect()
                    }
                };
                for b in records {
                    let (recount, per_lane) = match &b.samples {
                        TsLaneSamplesState::Shared(_) => (6, 6),
                        TsLaneSamplesState::Pair { .. } => (11, 11),
                        TsLaneSamplesState::PerLane { r, q } => {
                            let m = r
                                .iter()
                                .chain(q)
                                .map(|s| s.index())
                                .collect::<std::collections::BTreeSet<_>>()
                                .len();
                            let bits = match m {
                                1 => 0,
                                2 => 1,
                                _ => 8,
                            };
                            let indexed = if m <= 256 {
                                3 * m + (2 * lanes * bits).div_ceil(64)
                            } else {
                                6 * lanes
                            };
                            if indexed >= 6 * lanes && m < 2 * lanes {
                                slot_order_repeats += 1;
                            }
                            (3 + indexed.min(6 * lanes), 3 + 6 * lanes)
                        }
                    };
                    assert!(recount <= per_lane, "k={lanes} tick {tick}");
                    total += recount;
                }
                assert_eq!(bank.memory_words(), total, "k={lanes} tick {tick}");
                let mut restored: TsEngineBank<u64> = TsEngineBank::new(t0, lanes);
                restored
                    .restore_state(saved)
                    .expect("own checkpoint restores");
                assert_eq!(layouts(&restored), layouts(&bank), "k={lanes} tick {tick}");
            }
            if t0 == 1000 {
                assert!(
                    slot_order_repeats > 0,
                    "no slot-order bucket repeats an element"
                );
            }
        }
    }

    #[test]
    fn gather_inverts_expand() {
        for x in 0..256u64 {
            let bytes = EXPAND[x as usize];
            for j in 0..8 {
                assert_eq!((bytes >> (8 * j)) & 0xFF, (x >> j) & 1, "x = {x}");
            }
            assert_eq!(gather(bytes), x);
        }
    }

    #[test]
    fn total_expiry_resets_all_lanes() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut bank: TsEngineBank<u64> = TsEngineBank::new(3, 2);
        bank.advance_time(0);
        bank.insert(&mut rng, 1, 0, 0);
        bank.advance_time(100);
        assert!(bank.is_empty());
        bank.insert(&mut rng, 2, 1, 100);
        for lane in 0..2 {
            let s = bank.sample_lane(lane, &mut rng).expect("restarted");
            assert_eq!(s.index(), 1);
        }
    }
}
