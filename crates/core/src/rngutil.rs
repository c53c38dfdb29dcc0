//! Exact randomness primitives shared by the samplers.
//!
//! The implicit-event probabilities of §3.3 (`α/β`,
//! `αβ/((β+i)(β+i−1))`) are ratios of 64-bit integers. Generating them
//! through `f64` would introduce platform-dependent rounding into the very
//! distribution the paper proves exact, so we generate them with exact
//! 128-bit integer comparisons instead.
//!
//! [`BitSource`] is the fair-coin companion: hot paths that consume single
//! random *bits* (the `Incr` merge coins of the covering decomposition,
//! chain sampling's octave coins through
//! [`crate::skip::record_skip_with_bits`]) would otherwise burn a full
//! 64-bit RNG word per coin. A `BitSource` buffers one `next_u64` and
//! hands out its 64 bits one at a time — each bit is an exactly-fair,
//! mutually independent coin, so the consuming distribution is unchanged
//! while the draw count drops by up to 64×. This is what lets the fused
//! [`crate::ts::TsEngineBank`] service all `k` lanes' merge coins from
//! `O(k/64)` words per arrival. The seq-WR skip path's
//! [`crate::skip::record_skip`] needs no buffer: its whole octave search
//! reads one word's bits at once, and `record_skip_with_bits` with a
//! fresh `BitSource` is its coin-by-coin reference.

use crate::fault::mix64;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Salt of the query-only seed domain (`"QUERY"` in ASCII).
const QUERY_SALT: u64 = 0x0051_5545_5259;

/// The random stream one query draws from: a generator seeded from the
/// next word of a *clone* of the sampler's `rng`, its arrival count and
/// its clock (0 for sequence windows), splitmix-mixed in a domain of its
/// own. The sampler's generator does not advance, so a query changes no
/// later sample and no checkpoint record, and repeating a query with no
/// arrival and no clock move draws the same stream. Nothing is stored:
/// the seed is recomputed at each query.
pub fn query_rng<R: RngCore + Clone>(rng: &R, arrivals: u64, now: u64) -> SmallRng {
    let word = rng.clone().next_u64();
    SmallRng::seed_from_u64(mix64(mix64(word, QUERY_SALT, arrivals), QUERY_SALT, now))
}

/// Buffered exactly-fair coin flips: one `next_u64` yields 64 independent
/// bits.
///
/// The buffer is RNG state, not sampler state — like the generator it
/// wraps, it is excluded from the §1.4 word accounting. Cloning a holder
/// clones the buffered bits (the clone replays the same coins, exactly as
/// a cloned RNG replays the same words).
#[derive(Debug, Clone, Default)]
pub struct BitSource {
    buf: u64,
    left: u8,
}

impl BitSource {
    /// An empty buffer; the first [`bit`](BitSource::bit) draws one word.
    pub fn new() -> Self {
        Self::default()
    }

    /// The next fair coin, refilling the 64-bit buffer from `rng` when
    /// drained.
    #[inline]
    pub fn bit<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> bool {
        if self.left == 0 {
            self.buf = rng.next_u64();
            self.left = 64;
        }
        let b = self.buf & 1 == 1;
        self.buf >>= 1;
        self.left -= 1;
        b
    }

    /// The next `nbits` fair coins at once, packed into the low bits of a
    /// `u64` (bit `j` = coin `j`). Equivalent to `nbits` calls of
    /// [`bit`](BitSource::bit) — same bits, same order — but lets hot
    /// loops consume coins as a mask: iterate the set bits instead of
    /// branching per coin, which is what keeps the fused bank's merge
    /// loop free of 50/50 branch mispredicts.
    ///
    /// # Panics
    /// Debug-panics unless `1 ≤ nbits ≤ 64`.
    #[inline]
    pub fn mask<R: RngCore + ?Sized>(&mut self, rng: &mut R, nbits: u32) -> u64 {
        debug_assert!((1..=64).contains(&nbits), "mask: need 1..=64 bits");
        let mut out: u64 = 0;
        let mut got: u32 = 0;
        while got < nbits {
            if self.left == 0 {
                self.buf = rng.next_u64();
                self.left = 64;
            }
            let take = (nbits - got).min(self.left as u32);
            let chunk = if take == 64 {
                self.buf
            } else {
                self.buf & ((1u64 << take) - 1)
            };
            out |= chunk << got;
            self.buf = if take == 64 { 0 } else { self.buf >> take };
            self.left -= take as u8;
            got += take;
        }
        out
    }

    /// Bits still buffered (diagnostic).
    pub fn buffered(&self) -> u8 {
        self.left
    }

    /// Snapshot the buffered coins as `(buffer, bits_left)` for
    /// checkpointing. Restoring via [`BitSource::from_state`] replays the
    /// exact remaining coin stream, which save/restore needs for
    /// bit-identical recovery.
    pub fn state(&self) -> (u64, u8) {
        (self.buf, self.left)
    }

    /// Rebuild a buffer from a [`BitSource::state`] snapshot.
    pub fn from_state(buf: u64, left: u8) -> Self {
        Self { buf, left }
    }
}

/// Bernoulli event with probability exactly `num / den`.
///
/// # Panics
/// Panics (debug) if `num > den` or `den == 0`.
pub(crate) fn bernoulli_ratio<R: Rng>(rng: &mut R, num: u128, den: u128) -> bool {
    debug_assert!(den > 0, "bernoulli_ratio: zero denominator");
    debug_assert!(num <= den, "bernoulli_ratio: p = {num}/{den} > 1");
    if num == den {
        return true;
    }
    if num == 0 {
        return false;
    }
    rng.gen_range(0..den) < num
}

/// `⌊log₂ x⌋` for `x ≥ 1`.
pub(crate) fn floor_log2(x: u64) -> u32 {
    debug_assert!(x >= 1, "floor_log2: x must be >= 1");
    63 - x.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn floor_log2_values() {
        assert_eq!(floor_log2(1), 0);
        assert_eq!(floor_log2(2), 1);
        assert_eq!(floor_log2(3), 1);
        assert_eq!(floor_log2(4), 2);
        assert_eq!(floor_log2(7), 2);
        assert_eq!(floor_log2(8), 3);
        assert_eq!(floor_log2(u64::MAX), 63);
    }

    #[test]
    fn bernoulli_degenerate() {
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(bernoulli_ratio(&mut rng, 5, 5));
        assert!(!bernoulli_ratio(&mut rng, 0, 5));
    }

    #[test]
    fn bernoulli_empirical_rate() {
        let mut rng = SmallRng::seed_from_u64(42);
        let trials = 200_000;
        let hits = (0..trials)
            .filter(|_| bernoulli_ratio(&mut rng, 3, 7))
            .count();
        let rate = hits as f64 / trials as f64;
        assert!((rate - 3.0 / 7.0).abs() < 0.005, "rate = {rate}");
    }

    #[test]
    fn bit_source_is_fair_and_packs_64_per_word() {
        use crate::rng::CountingRng;
        let mut rng = CountingRng::new(SmallRng::seed_from_u64(9));
        let mut bits = BitSource::new();
        let trials = 64 * 1000;
        let heads = (0..trials).filter(|_| bits.bit(&mut rng)).count();
        // Exactly one word per 64 bits.
        assert_eq!(rng.words(), trials as u64 / 64);
        let rate = heads as f64 / trials as f64;
        assert!((rate - 0.5).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    fn mask_is_exactly_the_next_bits() {
        // mask(n) must hand out the same coin stream as n bit() calls,
        // across refill boundaries and mixed call sizes.
        let mut a = SmallRng::seed_from_u64(11);
        let mut b = SmallRng::seed_from_u64(11);
        let mut bits_a = BitSource::new();
        let mut bits_b = BitSource::new();
        for &n in &[1u32, 64, 7, 33, 64, 64, 5, 61, 64, 2] {
            let m = bits_a.mask(&mut a, n);
            for j in 0..n {
                assert_eq!((m >> j) & 1 == 1, bits_b.bit(&mut b), "n={n}, bit {j}");
            }
        }
    }

    #[test]
    fn bit_source_bits_match_the_word_it_buffered() {
        // The bits must be the literal bits of the drawn word, LSB first —
        // i.e. the source adds buffering, not transformation.
        let mut a = SmallRng::seed_from_u64(4);
        let word = SmallRng::seed_from_u64(4).next_u64();
        let mut bits = BitSource::new();
        for i in 0..64 {
            assert_eq!(bits.bit(&mut a), (word >> i) & 1 == 1, "bit {i}");
        }
        assert_eq!(bits.buffered(), 0);
    }

    #[test]
    fn bernoulli_huge_operands() {
        let mut rng = SmallRng::seed_from_u64(1);
        // Must not overflow for operands near u64::MAX squared.
        let den = (u64::MAX as u128) * (u64::MAX as u128);
        let num = den / 2;
        let hits = (0..4000)
            .filter(|_| bernoulli_ratio(&mut rng, num, den))
            .count();
        let rate = hits as f64 / 4000.0;
        assert!((rate - 0.5).abs() < 0.05, "rate = {rate}");
    }
}
