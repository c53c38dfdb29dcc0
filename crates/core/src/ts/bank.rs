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
//! against `k`. So each bucket stores every element its slots hold once,
//! and of each element only what its bucket's boundaries do not give:
//!
//! * a never-merged singleton stores its element's value alone, once for
//!   all lanes (`Shared`): the index is `a` and the timestamp `T(p_a)`;
//! * a width-2 bucket at `2 ≤ k ≤ 64` stores both values, the second
//!   one's timestamp offset from `T(p_a)`, and the merge coins verbatim as
//!   a 1-bit selector per slot (`Pair`, two selector words);
//! * any other merged bucket stores its `m` distinct candidates in stream
//!   order plus a selector per slot — a bit when `m = 2`, a byte when
//!   `m ≤ 256`. When that index would not be smaller than the `2k` slots'
//!   candidates stored plainly (`m` near `2k`, in wide buckets), the
//!   bucket stores its `2k` slots in slot order instead, with no
//!   selectors.
//!
//! A merged bucket's candidate is its value and its offsets `index − a`
//! and `ts − T(p_a)`. The index offset is below the width. The timestamp
//! offset is below `t0`: only the covering (or the straddle tail) merges,
//! and all of its buckets start inside the window (Lemma 3.5), so every
//! element a bucket holds arrived less than `t0` after the bucket's
//! first. When `t0 ≤ 2^32` and the width is at most `2^32`, both offsets
//! fit 32 bits and share one word (`Indexed`: two words a candidate);
//! otherwise they take a word each (`Wide`: three words a candidate).
//!
//! With the three boundary words, a width-1 bucket costs 4 words, a
//! `Pair` 8, and a merged bucket `3 + 2m` plus its selector words (`3 +
//! 3m` when wide). No bucket ever costs more than `4k + 3` words (`6k +
//! 3` when wide), its `2k` slots' candidates stored plainly. A merge reads
//! each slot's left or right candidate by its coin, eight slots (a byte
//! each) to the word, marks which candidates some slot still holds, and
//! drops and renumbers the rest. The coins drawn and the element each
//! lane ends up holding do not depend on the layout; only the storage
//! does. The layout is a function of `t0`, the bucket's width, `k` and
//! its slots' contents, so a bucket rebuilt from its checkpoint record
//! stores exactly what the live one did.

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
    /// Never merged: every slot holds the bucket's element (index `a`,
    /// timestamp `ts_first`), stored once.
    Shared { value: T, stat: S },
    /// Width 2 at `2 ≤ k ≤ 64`: the elements at `a` (timestamp
    /// `ts_first`) and `a + 1` (timestamp `ts_first + dt`); bit `s` of
    /// `sel` is slot `s`'s selector (the merge coins).
    Pair {
        cands: [(T, S); 2],
        dt: u64,
        sel: [u64; 2],
    },
    /// Any other merged bucket whose offsets [`packs`] into one word.
    Indexed(Lanes<T, S, Packed>),
    /// Any other merged bucket.
    Wide(Lanes<T, S, Unpacked>),
}

/// Slot `s`'s candidate in a `Pair`.
fn pair_pick(sel: &[u64; 2], s: usize) -> usize {
    ((sel[s / 64] >> (s % 64)) & 1) as usize
}

/// Whether a merged bucket of `width` over windows of `t0` stores each
/// candidate's two offsets in one word: both are then below `2^32`.
fn packs(t0: u64, width: u64) -> bool {
    t0 <= 1 << 32 && width <= 1 << 32
}

/// A stored candidate: the element's value, its offsets from its bucket's
/// first index and timestamp, and its tracker statistic.
#[derive(Debug, Clone)]
struct Cand<T, S, O> {
    value: T,
    off: O,
    stat: S,
}

/// How a merged bucket stores a candidate's `(index − a, ts − ts_first)`.
trait Offsets: Copy {
    /// Words the offsets take.
    const WORDS: usize;
    fn new(di: u64, dt: u64) -> Self;
    fn get(self) -> (u64, u64);
    /// A merged bucket storing offsets this way.
    fn wrap<T, S>(lanes: Lanes<T, S, Self>) -> LaneSamples<T, S>;
    /// The lanes of `samples`, if they store offsets this way.
    fn unwrap<T, S>(samples: LaneSamples<T, S>) -> Result<Lanes<T, S, Self>, LaneSamples<T, S>>;
    /// The pool's spare buffers of this kind.
    fn spares<T, S>(pool: &mut SparePool<T, S>) -> &mut Vec<Lanes<T, S, Self>>;
}

/// Both offsets in one word, the index offset in the low half.
#[derive(Debug, Clone, Copy)]
struct Packed(u64);

/// A word each.
#[derive(Debug, Clone, Copy)]
struct Unpacked([u64; 2]);

impl Offsets for Packed {
    const WORDS: usize = 1;

    #[inline]
    fn new(di: u64, dt: u64) -> Self {
        debug_assert!(di >> 32 == 0 && dt >> 32 == 0, "offsets wider than 32 bits");
        Packed(di | dt << 32)
    }

    #[inline]
    fn get(self) -> (u64, u64) {
        (self.0 & u64::from(u32::MAX), self.0 >> 32)
    }

    fn wrap<T, S>(lanes: Lanes<T, S, Self>) -> LaneSamples<T, S> {
        LaneSamples::Indexed(lanes)
    }

    fn unwrap<T, S>(samples: LaneSamples<T, S>) -> Result<Lanes<T, S, Self>, LaneSamples<T, S>> {
        match samples {
            LaneSamples::Indexed(l) => Ok(l),
            other => Err(other),
        }
    }

    fn spares<T, S>(pool: &mut SparePool<T, S>) -> &mut Vec<Lanes<T, S, Self>> {
        &mut pool.packed
    }
}

impl Offsets for Unpacked {
    const WORDS: usize = 2;

    fn new(di: u64, dt: u64) -> Self {
        Unpacked([di, dt])
    }

    fn get(self) -> (u64, u64) {
        (self.0[0], self.0[1])
    }

    fn wrap<T, S>(lanes: Lanes<T, S, Self>) -> LaneSamples<T, S> {
        LaneSamples::Wide(lanes)
    }

    fn unwrap<T, S>(samples: LaneSamples<T, S>) -> Result<Lanes<T, S, Self>, LaneSamples<T, S>> {
        match samples {
            LaneSamples::Wide(l) => Ok(l),
            other => Err(other),
        }
    }

    fn spares<T, S>(pool: &mut SparePool<T, S>) -> &mut Vec<Lanes<T, S, Self>> {
        &mut pool.unpacked
    }
}

/// A slot's element as its bucket stores it: value, statistic, index and
/// timestamp (offsets from the bucket's first until
/// [`BankBucket::slot`] adds those).
struct Pick<'a, T, S> {
    value: &'a T,
    stat: &'a S,
    index: u64,
    ts: u64,
}

impl<T: Clone, S> Pick<'_, T, S> {
    fn sample(&self) -> Sample<T> {
        Sample::new(self.value.clone(), self.index, self.ts)
    }

    /// The element as a candidate `shift` further into a merged bucket.
    fn cand<O: Offsets>(&self, shift: (u64, u64)) -> Cand<T, S, O>
    where
        S: Clone,
    {
        Cand {
            value: self.value.clone(),
            off: O::new(self.index + shift.0, self.ts + shift.1),
            stat: self.stat.clone(),
        }
    }
}

impl<T, S, O: Offsets> Cand<T, S, O> {
    fn pick(&self) -> Pick<'_, T, S> {
        let (index, ts) = self.off.get();
        Pick {
            value: &self.value,
            stat: &self.stat,
            index,
            ts,
        }
    }
}

/// A merged bucket's `2k` slots over its stored candidates.
#[derive(Debug, Clone)]
struct Lanes<T, S, O> {
    /// With `bits > 0`, or a single entry: the distinct elements the slots
    /// hold, each once, in stream order. With `bits == 0` and more than
    /// one entry: slot `s` holds `cands[s]` (slot order).
    cands: Vec<Cand<T, S, O>>,
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

impl<T, S, O: Offsets> Lanes<T, S, O> {
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

    /// Words stored: each candidate's value and offsets, and the
    /// selectors.
    fn words(&self) -> usize {
        self.cands.len() * (1 + O::WORDS) + self.sel.len()
    }

    /// Move the candidates whose `held` entry is 1 (all of them without
    /// `held`) to the end of `out`, `shift` further into its bucket, and
    /// recycle the buffers.
    fn move_held<P: Offsets>(
        mut self,
        held: Option<&[u8]>,
        out: &mut Vec<Cand<T, S, P>>,
        shift: (u64, u64),
        pool: &mut SparePool<T, S>,
    ) {
        if let Some(held) = held {
            retain_held(&mut self.cands, held);
        }
        out.extend(self.cands.drain(..).map(|c| {
            let (di, dt) = c.off.get();
            Cand {
                value: c.value,
                off: P::new(di + shift.0, dt + shift.1),
                stat: c.stat,
            }
        }));
        pool.put(self);
    }
}

/// Recycled buffers. A merge consumes its operands' vectors, and an
/// expiring head its own; instead of freeing them the bank parks them here
/// (cleared) for the next merge — steady-state ingestion runs
/// allocation-free. Allocator-level reuse, like `Vec` spare capacity: not
/// part of the §1.4 word accounting.
#[derive(Debug, Clone)]
struct SparePool<T, S> {
    packed: Vec<Lanes<T, S, Packed>>,
    unpacked: Vec<Lanes<T, S, Unpacked>>,
}

impl<T, S> Default for SparePool<T, S> {
    fn default() -> Self {
        Self {
            packed: Vec::new(),
            unpacked: Vec::new(),
        }
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
    fn take<O: Offsets>(&mut self) -> Lanes<T, S, O> {
        O::spares(self).pop().unwrap_or(Lanes::EMPTY)
    }

    fn put<O: Offsets>(&mut self, mut bufs: Lanes<T, S, O>) {
        let spares = O::spares(self);
        if spares.len() < SPARE_POOL_CAP {
            bufs.cands.clear();
            bufs.sel.clear();
            bufs.bits = 0;
            spares.push(bufs);
        }
    }
}

impl<T: Clone, S: Clone, O: Offsets> Lanes<T, S, O> {
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
        // A candidate's words: its value and its offsets.
        let unit = 1 + O::WORDS;
        let smaller =
            |m: usize| m <= MAX_INDEXED && m * unit + sel_words(slots, sel_bits(m)) < slots * unit;
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
        order.extend((0..slots).map(|s| (self.cands[s].off.get().0, s)));
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
    /// order; the right operand's sit `shift` further into the merged
    /// bucket. `sel` is scratch for the merged selectors.
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
        shift: (u64, u64),
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
                    right.slot(s).cand(shift)
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
        right.move_held(held.map(|h| &h[ml..]), &mut self.cands, shift, pool);
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
    /// Slot `s`'s element and its tracker statistic, at its offsets from
    /// the bucket's first index and timestamp.
    #[inline]
    fn slot(&self, s: usize) -> Pick<'_, T, S> {
        match self {
            LaneSamples::Shared { value, stat } => Pick {
                value,
                stat,
                index: 0,
                ts: 0,
            },
            LaneSamples::Pair { cands, dt, sel } => {
                let c = pair_pick(sel, s);
                let (value, stat) = &cands[c];
                Pick {
                    value,
                    stat,
                    index: c as u64,
                    ts: if c == 0 { 0 } else { *dt },
                }
            }
            LaneSamples::Indexed(l) => l.cands[l.pick(s)].pick(),
            LaneSamples::Wide(l) => l.cands[l.pick(s)].pick(),
        }
    }

    /// Park the buffers (if merged) for reuse.
    fn recycle(self, pool: &mut SparePool<T, S>) {
        match self {
            LaneSamples::Indexed(l) => pool.put(l),
            LaneSamples::Wide(l) => pool.put(l),
            LaneSamples::Shared { .. } | LaneSamples::Pair { .. } => {}
        }
    }

    /// Stored candidates.
    fn len(&self) -> usize {
        match self {
            LaneSamples::Shared { .. } => 1,
            LaneSamples::Pair { .. } => 2,
            LaneSamples::Indexed(l) => l.cands.len(),
            LaneSamples::Wide(l) => l.cands.len(),
        }
    }

    fn slot_order(&self) -> bool {
        match self {
            LaneSamples::Indexed(l) => l.slot_order(),
            LaneSamples::Wide(l) => l.slot_order(),
            LaneSamples::Shared { .. } | LaneSamples::Pair { .. } => false,
        }
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
            LaneSamples::Wide(l) => l.selectors(),
        }
    }

    /// Move the candidates whose `held` entry is 1 (all of them without
    /// `held`) to the end of `out`, in stream order, `shift` further into
    /// its bucket, and recycle the buffers.
    fn move_held<O: Offsets>(
        self,
        held: Option<&[u8]>,
        out: &mut Vec<Cand<T, S, O>>,
        shift: (u64, u64),
        pool: &mut SparePool<T, S>,
    ) {
        let is_held = |c: usize| held.is_none_or(|held| held[c] != 0);
        let mut push = |value, stat, di, dt| {
            out.push(Cand {
                value,
                off: O::new(di + shift.0, dt + shift.1),
                stat,
            })
        };
        match self {
            LaneSamples::Shared { value, stat } => {
                if is_held(0) {
                    push(value, stat, 0, 0);
                }
            }
            LaneSamples::Pair {
                cands: [(lo, lo_stat), (hi, hi_stat)],
                dt,
                ..
            } => {
                if is_held(0) {
                    push(lo, lo_stat, 0, 0);
                }
                if is_held(1) {
                    push(hi, hi_stat, 1, dt);
                }
            }
            LaneSamples::Indexed(l) => l.move_held(held, out, shift, pool),
            LaneSamples::Wide(l) => l.move_held(held, out, shift, pool),
        }
    }

    /// These slots as a merged bucket storing offsets as `O`.
    fn into_lanes<O: Offsets>(self, lanes: usize, pool: &mut SparePool<T, S>) -> Lanes<T, S, O> {
        let samples = match O::unwrap(self) {
            Ok(l) => return l,
            Err(samples) => samples,
        };
        let mut out = pool.take();
        let sel = samples.selectors();
        out.sel
            .extend_from_slice(&sel.words[..sel_words(2 * lanes, sel.bits)]);
        out.bits = sel.bits;
        samples.move_held(None, &mut out.cands, (0, 0), pool);
        out
    }
}

impl<T: Clone, S: Clone> LaneSamples<T, S> {
    /// The `Incr` union step for all lanes at once: per lane, `R` (and,
    /// independently, `Q`) is taken from the right operand on a fair coin
    /// bit. Coins are drawn as masks, per 64-lane chunk the `R` mask then
    /// the `Q` mask. Two singletons at `2 ≤ k ≤ 64` (half of all merges)
    /// keep both candidates, and the coins are their 1-bit selectors
    /// verbatim; every other merge is [`Lanes::merge`], into a bucket
    /// storing offsets one word to the candidate where `packed`. The right
    /// operand starts `shift` into the merged bucket.
    #[allow(clippy::too_many_arguments)]
    fn merge<R: Rng>(
        self,
        right: Self,
        lanes: usize,
        shift: (u64, u64),
        packed: bool,
        rng: &mut R,
        coins: &mut BitSource,
        pool: &mut SparePool<T, S>,
    ) -> Self {
        let (left, right) = match (self, right) {
            (
                LaneSamples::Shared {
                    value: lv,
                    stat: ls,
                },
                LaneSamples::Shared {
                    value: rv,
                    stat: rs,
                },
            ) if pair_shaped(lanes) => {
                let n = lanes as u32;
                let (r, q) = (coins.mask(rng, n), coins.mask(rng, n));
                let sel = u128::from(r) | u128::from(q) << lanes;
                return LaneSamples::Pair {
                    cands: [(lv, ls), (rv, rs)],
                    dt: shift.1,
                    sel: [sel as u64, (sel >> 64) as u64],
                };
            }
            operands => operands,
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
        let merged = if packed {
            left.merge_as::<Packed>(right, lanes, shift, &mut scratch, pool)
        } else {
            left.merge_as::<Unpacked>(right, lanes, shift, &mut scratch, pool)
        };
        SCRATCH.set(scratch);
        merged
    }

    /// [`Lanes::merge`] then [`Lanes::store`], into a bucket storing
    /// offsets as `O`, on the coins in `scratch`.
    fn merge_as<O: Offsets>(
        self,
        right: Self,
        lanes: usize,
        shift: (u64, u64),
        scratch: &mut Scratch,
        pool: &mut SparePool<T, S>,
    ) -> Self {
        let merged = self.into_lanes::<O>(lanes, pool).merge(
            right,
            lanes,
            shift,
            &scratch.coins,
            &mut scratch.sel,
            pool,
        );
        O::wrap(merged.store(lanes, &mut scratch.order, pool))
    }

    /// A merged bucket's slots from its checkpoint: slot `s` holds
    /// `slots[s]`, a value and statistic at offsets `(di, dt)`.
    fn from_slots<O: Offsets>(
        slots: impl Iterator<Item = (T, S, u64, u64)>,
        lanes: usize,
        pool: &mut SparePool<T, S>,
    ) -> Self {
        let mut plain = pool.take();
        plain.cands.extend(slots.map(|(value, stat, di, dt)| Cand {
            value,
            off: O::new(di, dt),
            stat,
        }));
        let mut scratch = SCRATCH.take();
        let stored = plain.store(lanes, &mut scratch.order, pool);
        SCRATCH.set(scratch);
        O::wrap(stored)
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
    fn singleton(value: T, stat: S, index: u64, ts: u64) -> Self {
        Self {
            a: index,
            b: index + 1,
            ts_first: ts,
            samples: LaneSamples::Shared { value, stat },
        }
    }

    fn width(&self) -> u64 {
        self.b - self.a
    }

    /// Slot `s`'s element and its tracker statistic.
    fn slot(&self, s: usize) -> Pick<'_, T, S> {
        let mut pick = self.samples.slot(s);
        pick.index += self.a;
        pick.ts += self.ts_first;
        pick
    }

    /// Lane `lane`'s `R` sample and its statistic.
    fn r(&self, lane: usize) -> Pick<'_, T, S> {
        self.slot(lane)
    }

    /// Lane `lane`'s `Q` sample.
    fn q(&self, lane: usize, lanes: usize) -> Pick<'_, T, S> {
        self.slot(lanes + lane)
    }

    #[allow(clippy::too_many_arguments)]
    fn merge_right<R: Rng>(
        &mut self,
        right: BankBucket<T, S>,
        t0: u64,
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
        let shift = (self.width(), right.ts_first - self.ts_first);
        let packed = packs(t0, 2 * self.width());
        let left = std::mem::replace(&mut self.samples, LaneSamples::Indexed(Lanes::EMPTY));
        self.samples = left.merge(right.samples, lanes, shift, packed, rng, coins, pool);
        self.b = right.b;
    }

    /// Park this bucket's buffers (if merged) for reuse.
    fn recycle(self, pool: &mut SparePool<T, S>) {
        self.samples.recycle(pool);
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
                for c in &mut l.cands {
                    observe(&mut c.stat);
                }
            }
            LaneSamples::Wide(l) => {
                for c in &mut l.cands {
                    observe(&mut c.stat);
                }
            }
        }
    }

    /// The checkpoint record, in the shape every release has written:
    /// `Shared` at width 1, `Pair` at width 2 for `2 ≤ k ≤ 64`, per-lane
    /// slots otherwise.
    fn to_state(&self, lanes: usize) -> TsBankBucketState<T> {
        let samples = match &self.samples {
            LaneSamples::Shared { value, .. } => {
                TsLaneSamplesState::Shared(Sample::new(value.clone(), self.a, self.ts_first))
            }
            LaneSamples::Pair {
                cands: [(lo, _), (hi, _)],
                dt,
                sel,
            } => {
                let mask = |first: usize| {
                    (0..lanes).fold(0u64, |mask, j| {
                        mask | (pair_pick(sel, first + j) as u64) << j
                    })
                };
                TsLaneSamplesState::Pair {
                    lo: Sample::new(lo.clone(), self.a, self.ts_first),
                    hi: Sample::new(hi.clone(), self.a + 1, self.ts_first + dt),
                    rsel: mask(0),
                    qsel: mask(lanes),
                }
            }
            LaneSamples::Indexed(_) | LaneSamples::Wide(_) => TsLaneSamplesState::PerLane {
                r: (0..lanes).map(|s| self.slot(s).sample()).collect(),
                q: (lanes..2 * lanes).map(|s| self.slot(s).sample()).collect(),
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
            LaneSamples::Shared { .. } => 1,
            // Two values and the second one's timestamp offset.
            LaneSamples::Pair { sel, .. } => 3 + sel.len(),
            LaneSamples::Indexed(l) => l.words(),
            LaneSamples::Wide(l) => l.words(),
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
    /// `Covering::incr`, with each merge resolving all `k` lanes at once;
    /// `item` is the arrival's singleton bucket.
    fn incr<R: Rng>(
        &mut self,
        item: BankBucket<T, S>,
        t0: u64,
        lanes: usize,
        rng: &mut R,
        bits: &mut BitSource,
        pool: &mut SparePool<T, S>,
    ) {
        debug_assert_eq!(item.a, self.end(), "Incr: non-consecutive index");
        debug_assert!(
            item.ts_first >= self.newest_ts(),
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
                self.buckets[i].merge_right(right, t0, lanes, rng, bits, pool);
                m = (m - 1) / 2;
                i += 1;
            }
        }
        self.buckets.push(item);
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
                let r = b.r(lane);
                return (r.sample(), r.stat.clone());
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
/// Equivalent in distribution to `k` independent [`super::TsEngine`]s driven by
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
    /// Same contract as [`super::TsEngine::insert`]: indices consecutive while
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
        let item = BankBucket::singleton(value, stat, index, ts);
        let (t0, lanes) = (self.t0, self.lanes);
        let bits = &mut self.bits;
        let pool = &mut self.spare;
        match &mut self.state {
            BankState::Empty => self.state = BankState::Full(BankCovering::new(item)),
            BankState::Full(cov) => cov.incr(item, t0, lanes, rng, bits, pool),
            BankState::Straddle { tail, .. } => tail.incr(item, t0, lanes, rng, bits, pool),
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
        let i = head.b - q1.index;
        debug_assert!(i >= 1 && i <= alpha);
        let y_expired = if i < alpha {
            let num = alpha as u128 * beta as u128;
            let den = (beta + i) as u128 * (beta + i - 1) as u128;
            if bernoulli_ratio(rng, num, den) {
                !self.is_active(q1.ts)
            } else {
                !self.is_active(head.ts_first)
            }
        } else {
            !self.is_active(head.ts_first)
        };

        let x = y_expired && bernoulli_ratio(rng, alpha as u128, beta as u128);

        let r1 = head.r(lane);
        if x && self.is_active(r1.ts) {
            (r1.sample(), r1.stat.clone())
        } else {
            r2
        }
    }

    /// The shared bucket-boundary profile — `(a, b, T(p_a))` per bucket,
    /// oldest first, straddling head included. By construction identical
    /// for every lane; lockstep-equal to [`super::TsEngine::boundaries`] of an
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

    /// A copy of the boundaries and lane slots with an empty coin buffer
    /// and spare pool, for the §4 query-time lane extension: its merges
    /// never reuse a coin this bank's later merges will read.
    pub(crate) fn scratch(&self) -> Self
    where
        K: Clone,
    {
        Self {
            t0: self.t0,
            now: self.now,
            lanes: self.lanes,
            tracker: self.tracker.clone(),
            bits: BitSource::new(),
            spare: SparePool::default(),
            state: self.state.clone(),
        }
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
    /// statistics via `fresh` (exact for non-tracking trackers). `limit`
    /// is the next bucket's first timestamp, or `now` for the newest.
    /// Rejects any record this bank could not have written: a shape other
    /// than the one its width and `k` give, a selector bit at or above
    /// `k`, a bucket that starts after `limit`, or a lane sample no run
    /// puts in it — outside its index range, before `ts_first` or after
    /// `limit`, `t0` or more after `ts_first`, or the element at `a` at a
    /// timestamp other than `ts_first`.
    fn load_bucket(
        &mut self,
        b: TsBankBucketState<T>,
        limit: u64,
    ) -> Result<BankBucket<T, K::Stat>, StateError> {
        let corrupt = |what: String| Err(StateError::Corrupt(what));
        let (a, end, ts_first, lanes, t0) = (b.a, b.b, b.ts_first, self.lanes, self.t0);
        if end <= a {
            return corrupt(format!("bank bucket [{a}, {end}) is empty"));
        }
        if ts_first > limit {
            return corrupt(format!("bank bucket starts at {ts_first}, after {limit}"));
        }
        let width = end - a;
        let in_bucket = |s: &Sample<T>| {
            let (index, ts) = (s.index(), s.timestamp());
            (a..end).contains(&index)
                && (ts_first..=limit).contains(&ts)
                && ts - ts_first < t0
                && (index != a || ts == ts_first)
        };
        let outside = || {
            corrupt(format!(
                "bank bucket [{a}, {end}) from timestamp {ts_first} holds a lane sample \
                 no run puts there"
            ))
        };
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
                LaneSamples::Shared {
                    value: item.into_value(),
                    stat,
                }
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
                let dt = hi.timestamp() - ts_first;
                let ((lo, lo_stat), (hi, hi_stat)) = (with_stat(lo), with_stat(hi));
                LaneSamples::Pair {
                    cands: [(lo.into_value(), lo_stat), (hi.into_value(), hi_stat)],
                    dt,
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
                let slots = slots.into_iter().map(|s| {
                    let (di, dt) = (s.index() - a, s.timestamp() - ts_first);
                    let (s, stat) = with_stat(s);
                    (s.into_value(), stat, di, dt)
                });
                let pool = &mut self.spare;
                if packs(t0, width) {
                    LaneSamples::from_slots::<Packed>(slots, lanes, pool)
                } else {
                    LaneSamples::from_slots::<Unpacked>(slots, lanes, pool)
                }
            }
        };
        Ok(BankBucket {
            a,
            b: end,
            ts_first,
            samples,
        })
    }

    /// Rebuild a covering from its checkpoint; its newest bucket's
    /// samples are bounded by `now`.
    fn load_covering(
        &mut self,
        buckets: Vec<TsBankBucketState<T>>,
        now: u64,
    ) -> Result<BankCovering<T, K::Stat>, StateError> {
        if buckets.is_empty() {
            return Err(StateError::Corrupt("empty bank covering".into()));
        }
        let limits: Vec<u64> = buckets.iter().skip(1).map(|b| b.ts_first).collect();
        let buckets = buckets
            .into_iter()
            .zip(limits.into_iter().chain([now]))
            .map(|(b, limit)| self.load_bucket(b, limit))
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
            TsBankKind::Straddle { head, tail } => {
                let limit = tail.first().map_or(now, |b| b.ts_first);
                BankState::Straddle {
                    head: self.load_bucket(head, limit)?,
                    tail: self.load_covering(tail, now)?,
                }
            }
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
    use crate::ts::TsEngine;
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
    fn memory_never_exceeds_independent_engines() {
        // Shared boundaries: at most 4k + 3 words per merged bucket vs 9k
        // for k engines; singletons are cheaper still.
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

    /// A bucket's stored layout: its shape, its candidates' indices and
    /// timestamps, its selector words and field width.
    type Layout = (&'static str, Vec<(u64, u64)>, Vec<u64>, u32);

    /// Each live bucket's stored layout.
    fn layouts(bank: &TsEngineBank<u64>) -> Vec<Layout> {
        fn cands<O: Offsets>(b: &BankBucket<u64, ()>, l: &Lanes<u64, (), O>) -> Vec<(u64, u64)> {
            l.cands
                .iter()
                .map(|c| {
                    let (di, dt) = c.off.get();
                    (b.a + di, b.ts_first + dt)
                })
                .collect()
        }
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
                LaneSamples::Shared { .. } => ("shared", vec![(b.a, b.ts_first)], Vec::new(), 0),
                LaneSamples::Pair { dt, sel, .. } => (
                    "pair",
                    vec![(b.a, b.ts_first), (b.a + 1, b.ts_first + dt)],
                    sel.to_vec(),
                    1,
                ),
                LaneSamples::Indexed(l) => ("indexed", cands(b, l), l.sel.clone(), l.bits),
                LaneSamples::Wide(l) => ("wide", cands(b, l), l.sel.clone(), l.bits),
            })
            .collect()
    }

    /// The bucket records of a bank checkpoint, straddling head first.
    fn records(saved: &TsBankState<u64>) -> Vec<&TsBankBucketState<u64>> {
        match &saved.kind {
            TsBankKind::Empty => Vec::new(),
            TsBankKind::Full(buckets) => buckets.iter().collect(),
            TsBankKind::Straddle { head, tail } => std::iter::once(head).chain(tail).collect(),
        }
    }

    /// Words a bucket stores, recounted from its checkpoint record over
    /// windows of `t0`: 3 boundary words, then the value alone at width 1;
    /// two values, a timestamp offset and two selector words for a pair;
    /// otherwise each distinct element once (its value and offsets: two
    /// words when they pack, else three) plus a selector per slot (a bit
    /// for two elements, a byte for up to 256), or all `2k` slots' when
    /// that is no larger. Also returns the cap: `2k` slots stored plainly.
    fn recount_bucket(b: &TsBankBucketState<u64>, t0: u64, lanes: usize) -> (usize, usize) {
        let unit = if packs(t0, b.b - b.a) { 2 } else { 3 };
        let plain = 2 * lanes * unit;
        let words = match &b.samples {
            TsLaneSamplesState::Shared(_) => 1,
            TsLaneSamplesState::Pair { .. } => 5,
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
                let indexed = unit * m + (2 * lanes * bits).div_ceil(64);
                if m <= 256 && indexed < plain {
                    indexed
                } else {
                    plain
                }
            }
        };
        (3 + words, 3 + plain)
    }

    /// [`recount_bucket`] over a checkpoint, plus the clock and width.
    fn recount(saved: &TsBankState<u64>, t0: u64, lanes: usize) -> usize {
        2 + records(saved)
            .into_iter()
            .map(|b| recount_bucket(b, t0, lanes).0)
            .sum::<usize>()
    }

    #[test]
    fn memory_words_is_an_exact_recount_within_the_per_lane_layout() {
        // Recount each live bucket from its checkpoint record and hold it
        // to the layout that stores the 2k slots' candidates plainly (4k
        // + 3 words). A bank restored from its checkpoint must store
        // exactly the same layout. The last case keeps one hot stream in a
        // 1000-tick window, so buckets grow hundreds wide and their 32
        // slots hold 31 or 32 distinct elements: slot order, with a
        // repeated element whenever 31.
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
                for b in records(&saved) {
                    let (words, per_lane) = recount_bucket(b, t0, lanes);
                    assert!(words <= per_lane, "k={lanes} tick {tick}");
                    if let TsLaneSamplesState::PerLane { r, q } = &b.samples {
                        let m = r
                            .iter()
                            .chain(q)
                            .map(|s| s.index())
                            .collect::<std::collections::BTreeSet<_>>()
                            .len();
                        if words == per_lane && m < 2 * lanes {
                            slot_order_repeats += 1;
                        }
                    }
                }
                assert_eq!(
                    bank.memory_words(),
                    recount(&saved, t0, lanes),
                    "k={lanes} tick {tick}"
                );
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
    fn sampler_memory_words_are_exact_recounts() {
        // ts-WR holds its bank plus (now, next_index); ts-WOR its bank,
        // each recent arrival's value and timestamp, and (k, now,
        // next_index). Gaps empty the window while the auxiliary array is
        // full.
        use crate::state::SamplerState;
        use crate::traits::WindowSampler;
        use crate::ts::{TsSamplerWor, TsSamplerWr};
        let t0 = 12;
        for k in [1usize, 3, 16, 70] {
            let mut wr = TsSamplerWr::new(t0, k, SmallRng::seed_from_u64(1));
            let mut wor = TsSamplerWor::new(t0, k, SmallRng::seed_from_u64(2));
            let mut sched = SmallRng::seed_from_u64(3);
            let mut now = 0u64;
            for step in 0..400u64 {
                now += if sched.gen_range(0..30) == 0 { 20 } else { 1 };
                wr.advance_time(now);
                wor.advance_time(now);
                for _ in 0..sched.gen_range(0..6) {
                    wr.insert(step);
                    wor.insert(step);
                }
                let Some(SamplerState::TsWr { bank, .. }) = wr.save_state() else {
                    panic!("ts-wr checkpoint");
                };
                assert_eq!(wr.memory_words(), recount(&bank, t0, k) + 2, "wr k={k}");
                let Some(SamplerState::TsWor { bank, recent, .. }) = wor.save_state() else {
                    panic!("ts-wor checkpoint");
                };
                assert_eq!(
                    wor.memory_words(),
                    recount(&bank, t0, k) + 2 * recent.len() + 3,
                    "wor k={k} step {step}"
                );
            }
        }
    }

    /// The value of the element at stream index `index` in the
    /// wide-window test, so that a saved sample's value checks its index.
    fn value_of(index: u64) -> u64 {
        index.rotate_left(17) ^ 0x9e37_79b9_7f4a_7c15
    }

    /// Save `bank`, restore the record onto a fresh bank and check the
    /// copy: it re-saves the same record, stores the same layout, and its
    /// words equal the recount. Every saved sample must be the element
    /// `value_of` and `ts_of` give its index.
    fn round_trip(bank: &TsEngineBank<u64>, ts_of: &dyn Fn(u64) -> u64) -> TsEngineBank<u64> {
        let (t0, lanes) = (bank.window(), bank.lanes());
        let saved = bank.save_state().expect("untracked banks save");
        for b in records(&saved) {
            let samples: Vec<&Sample<u64>> = match &b.samples {
                TsLaneSamplesState::Shared(s) => vec![s],
                TsLaneSamplesState::Pair { lo, hi, .. } => vec![lo, hi],
                TsLaneSamplesState::PerLane { r, q } => r.iter().chain(q).collect(),
            };
            for s in samples {
                assert_eq!(*s.value(), value_of(s.index()), "t0 {t0}: value");
                assert_eq!(s.timestamp(), ts_of(s.index()), "t0 {t0}: timestamp");
            }
        }
        let mut copy: TsEngineBank<u64> = TsEngineBank::new(t0, lanes);
        copy.restore_state(saved.clone())
            .unwrap_or_else(|e| panic!("t0 {t0}: restore failed: {e}"));
        assert_eq!(copy.save_state().as_ref(), Some(&saved), "t0 {t0}: re-save");
        assert_eq!(layouts(&copy), layouts(bank), "t0 {t0}: layout");
        assert_eq!(bank.memory_words(), recount(&saved, t0, lanes), "t0 {t0}");
        copy
    }

    /// Insert the elements from index `next` on, at timestamps `ts_of`
    /// gives, a burst of 0–3 per step; after each step checkpoint the
    /// bank, and check that the restored copy answers and checkpoints
    /// exactly as the original after the next. Returns the bank.
    fn resume_identically(
        mut bank: TsEngineBank<u64>,
        next: u64,
        ts_of: &dyn Fn(u64) -> u64,
    ) -> TsEngineBank<u64> {
        let mut rng = SmallRng::seed_from_u64(bank.window());
        let mut sched = SmallRng::seed_from_u64(3);
        let mut idx = next;
        for step in 0..120 {
            let mut copy = round_trip(&bank, ts_of);
            let mut copy_rng = rng.clone();
            for _ in 0..sched.gen_range(0..4) {
                let ts = ts_of(idx);
                bank.advance_time(ts);
                bank.insert(&mut rng, value_of(idx), idx, ts);
                copy.advance_time(ts);
                copy.insert(&mut copy_rng, value_of(idx), idx, ts);
                idx += 1;
            }
            for lane in 0..bank.lanes() {
                assert_eq!(
                    copy.sample_lane(lane, &mut copy_rng),
                    bank.sample_lane(lane, &mut rng),
                    "t0 {} step {step}",
                    bank.window()
                );
            }
            assert_eq!(copy.save_state(), bank.save_state(), "step {step}");
        }
        bank
    }

    /// A checkpoint of a full covering of `len` elements from stream index
    /// `start` at clock `now`, in canonical bucket widths, each slot of
    /// `lanes` picking an element of its bucket at random.
    fn canonical_record(
        start: u64,
        len: u64,
        now: u64,
        lanes: usize,
        ts_of: &dyn Fn(u64) -> u64,
    ) -> TsBankState<u64> {
        let mut rng = SmallRng::seed_from_u64(len);
        let sample = |i: u64| Sample::new(value_of(i), i, ts_of(i));
        let (end, mut a) = (start + len, start);
        let mut buckets = Vec::new();
        while a < end {
            let width = if end - a == 1 {
                1
            } else {
                1 << (floor_log2(end - a) - 1)
            };
            let mut pick = || sample(rng.gen_range(a..a + width));
            let samples = if width == 1 {
                TsLaneSamplesState::Shared(sample(a))
            } else if width == 2 && pair_shaped(lanes) {
                TsLaneSamplesState::Pair {
                    lo: sample(a),
                    hi: sample(a + 1),
                    rsel: 0b10110 & low_mask(lanes as u32),
                    qsel: 0b01101 & low_mask(lanes as u32),
                }
            } else {
                TsLaneSamplesState::PerLane {
                    r: (0..lanes).map(|_| pick()).collect(),
                    q: (0..lanes).map(|_| pick()).collect(),
                }
            };
            buckets.push(TsBankBucketState {
                a,
                b: a + width,
                ts_first: ts_of(a),
                samples,
            });
            a += width;
        }
        TsBankState {
            now,
            bits: BitsState { buf: 0, left: 0 },
            kind: TsBankKind::Full(buckets),
        }
    }

    #[test]
    fn wide_windows_save_restore_and_resume() {
        // Around the edge where a candidate's two offsets stop sharing a
        // word: windows of 2^32 − 1 and 2^32 ticks pack them until a
        // bucket grows past 2^32 elements; 2^40 never does. Each window
        // runs twice: live from an empty bank, with timestamp offsets up
        // to t0 − 1, and from a restored covering of 2^34 − 1 elements at
        // indices from 2^40, whose next arrival merges its two 2^32-wide
        // buckets.
        for t0 in [(1u64 << 32) - 1, 1 << 32, 1 << 40] {
            let lanes = 5;
            let live = move |i: u64| (i / 4) * (t0 / 5);
            resume_identically(TsEngineBank::new(t0, lanes), 0, &live);
            let start = 1u64 << 40;
            let len = (1u64 << 34) - 1;
            let dense = move |i: u64| (7 << 40) + ((i - start) >> 8);
            let record = canonical_record(start, len, dense(start + len - 1), lanes, &dense);
            let widths: Vec<u64> = records(&record).iter().map(|b| b.b - b.a).collect();
            assert_eq!(widths[..2], [1 << 32, 1 << 32]);
            let mut bank: TsEngineBank<u64> = TsEngineBank::new(t0, lanes);
            bank.restore_state(record)
                .unwrap_or_else(|e| panic!("t0 {t0}: canonical record: {e}"));
            let kinds: std::collections::BTreeSet<&str> =
                layouts(&bank).into_iter().map(|l| l.0).collect();
            let want: &[&str] = if t0 <= 1 << 32 {
                &["indexed", "pair", "shared"]
            } else {
                &["pair", "shared", "wide"]
            };
            assert_eq!(kinds.into_iter().collect::<Vec<_>>(), want, "t0 {t0}");
            let bank = resume_identically(bank, start + len, &dense);
            let (first, _, _, _) = &layouts(&bank)[0];
            assert_eq!(*first, "wide", "t0 {t0}: the 2^33-wide bucket");
        }
    }

    #[test]
    fn offsets_pack_below_2_pow_32() {
        assert!(packs(1 << 32, 1 << 32));
        assert!(!packs((1 << 32) + 1, 4));
        assert!(!packs(1000, (1 << 32) + 1));
        for (di, dt) in [(0, 0), (u64::from(u32::MAX), 0), (7, u64::from(u32::MAX))] {
            assert_eq!(Packed::new(di, dt).get(), (di, dt));
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
