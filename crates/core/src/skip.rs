//! Skip-ahead sampling of reservoir acceptance gaps (Vitter \[60\] §4 /
//! Li \[53\], adapted to the paper's per-bucket reservoirs).
//!
//! A k=1 reservoir offers element `c` (1-based) an *independent*
//! Bernoulli(1/c) acceptance — the record process. Instead of paying one
//! RNG draw per arrival to realize each Bernoulli, [`record_skip`] draws
//! the index of the **next** acceptance directly from the gap
//! distribution: conditioned on an acceptance at count `m`,
//!
//! ```text
//! P(next > x) = m/x,          P(next = c) = m / (c (c − 1)),
//! ```
//!
//! so arrivals between acceptances cost *zero* draws, and a window of `n`
//! arrivals triggers only `H(n) = Θ(log n)` acceptances in expectation
//! (`O(log n)` w.h.p. — Chernoff over the independent indicators).
//!
//! Unlike the classic float inversion (`ceil(m/U)`), the sampler here is
//! **exact**: it composes an octave search — `P(next > 2a | next > a) =
//! (m/2a)/(m/a) = 1/2` exactly, so one fair coin per doubling — with an
//! integer rejection step inside the located octave, all realized through
//! the exactly-uniform `gen_range` and the exact `bernoulli_ratio` (in the
//! crate-private `rngutil` module) primitive. One Bernoulli draw per
//! arrival and this skip path are therefore *distribution-identical*, not
//! merely approximately so; the statistical tests hold
//! [`SeqSamplerWr`](crate::seq::SeqSamplerWr) and its per-arrival
//! reference [`NaiveSeqWr`](crate::seq::reference::NaiveSeqWr) to the
//! same chi-square thresholds.
//!
//! [`record_skip`] reads all of its octave coins from one RNG word: the
//! coins are the word's bits, least significant first, and the search
//! stops at the first set bit, so the octave is `a = m << t` with
//! `t = trailing_zeros(word)`. It never needs more than 62 coins (the
//! doubling reaches `cap ≤ 2^62` first), so one word always suffices.
//! Its rejection step runs in `u64` while `2a < 2^32`.
//! [`record_skip_with_bits`] is the plain form: the same search coin by
//! coin from a caller-held [`BitSource`], and the rejection step always
//! in `u128`. Given a fresh `BitSource` it consumes exactly the words
//! `record_skip` does and returns the same result, which makes it the
//! reference oracle the tests hold `record_skip` to.
//!
//! [`geometric_skip`] covers the constant-probability tail regime needed
//! by chain sampling (adoption probability frozen at `1/(n+1)` once the
//! window fills); its inverse transform goes through `f64`, which is fine
//! there because chain sampling is a *baseline* whose own guarantees are
//! already randomized.

use crate::rngutil::{bernoulli_ratio, BitSource};
use rand::Rng;

/// Next acceptance of the record process after an acceptance at count `m`,
/// truncated at `cap`: returns `Some(c)` with `m < c ≤ cap` distributed as
/// `P(c) = m/(c(c−1))`, or `None` when the next acceptance falls beyond
/// `cap` (probability exactly `m/cap`).
///
/// Counts are 1-based: the element at count `c` is the `c`-th offered to
/// the reservoir, and count 1 is always accepted (use `m = 1` after it).
///
/// Expected RNG draws: one word for the octave search plus an
/// accept-rate ≳ 1/2 rejection loop — independent of `cap`. The octave
/// coins are the bits of that one word, least significant first, so the
/// located octave is `m << trailing_zeros(word)`; this is draw for draw
/// [`record_skip_with_bits`] with a fresh [`BitSource`]. Callers that skip
/// repeatedly from small `m` (chain sampling's per-instance schedulers)
/// should hold a persistent `BitSource` and use `record_skip_with_bits`,
/// which amortizes one RNG word over up to 64 coins *across* calls.
///
/// # Panics
/// Panics if `m == 0` or `cap > 2^62` (headroom for the octave doubling).
pub fn record_skip<R: Rng>(rng: &mut R, m: u64, cap: u64) -> Option<u64> {
    assert!(m >= 1, "record_skip: count must be 1-based");
    assert!(cap <= 1 << 62, "record_skip: cap too large");
    if m >= cap {
        return None;
    }
    // Coin `j` is bit `j`; the search doubles past every clear bit. A
    // shift that would push `m`'s top bit out is past `cap` too (and
    // `t = 64`, an all-zero word, is always such a shift).
    let t = rng.next_u64().trailing_zeros();
    if t >= m.leading_zeros() {
        return None;
    }
    let a = m << t;
    if a >= cap {
        return None;
    }
    if 2 * a >= 1 << 32 {
        return octave_draw(rng, a, cap);
    }
    // `octave_draw` in `u64`: with `2a < 2^32` the ratio fits, and `u64`
    // `gen_range` draws the same words the `u128` one makes for such spans.
    loop {
        let c = rng.gen_range(a + 1..=2 * a);
        let (num, den) = (a * (a + 1), c * (c - 1));
        if num == den || rng.gen_range(0..den) < num {
            return if c > cap { None } else { Some(c) };
        }
    }
}

/// [`record_skip`] drawing its octave coins one at a time from a
/// caller-held [`BitSource`], so the coin cost amortizes across calls (64
/// coins per RNG word). The result distribution is identical — the
/// buffered bits are exactly-fair, independent coins.
///
/// # Panics
/// Panics if `m == 0` or `cap > 2^62` (headroom for the octave doubling).
pub fn record_skip_with_bits<R: Rng>(
    rng: &mut R,
    bits: &mut BitSource,
    m: u64,
    cap: u64,
) -> Option<u64> {
    assert!(m >= 1, "record_skip: count must be 1-based");
    assert!(cap <= 1 << 62, "record_skip: cap too large");
    if m >= cap {
        return None;
    }
    // Octave search: survival halves exactly at each doubling, so a fair
    // coin decides `next ∈ (a, 2a]` vs `next > 2a`.
    let mut a = m;
    loop {
        if a >= cap {
            return None;
        }
        if bits.bit(rng) {
            break;
        }
        a *= 2;
    }
    octave_draw(rng, a, cap)
}

/// The next acceptance given that it lies in the octave `(a, 2a]`, or
/// `None` when the drawn count passes `cap`.
///
/// Within `(a, 2a]` the gap law is `p(c) ∝ 1/(c(c−1))`. Propose uniformly
/// and accept with probability `a(a+1)/(c(c−1)) ≤ 1` (equality at
/// `c = a + 1`); the overall acceptance rate is at least 1/2.
fn octave_draw<R: Rng>(rng: &mut R, a: u64, cap: u64) -> Option<u64> {
    loop {
        let c = rng.gen_range(a + 1..=2 * a);
        let num = a as u128 * (a as u128 + 1);
        let den = c as u128 * (c as u128 - 1);
        if bernoulli_ratio(rng, num, den) {
            return if c > cap { None } else { Some(c) };
        }
    }
}

/// Number of failures before the first success of independent
/// Bernoulli(1/den) trials — the skip length of a constant-probability
/// acceptance process (chain sampling's steady state).
///
/// Sampled by inverse transform through `f64`; the ≈2⁻⁵³ rounding bias is
/// far below what any statistical test in this workspace can resolve.
///
/// # Panics
/// Panics if `den == 0`.
pub fn geometric_skip<R: Rng>(rng: &mut R, den: u64) -> u64 {
    assert!(den >= 1, "geometric_skip: zero denominator");
    if den == 1 {
        return 0; // success probability 1: no failures possible
    }
    let ln_q = (1.0 - 1.0 / den as f64).ln();
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        if u > 0.0 {
            let s = (u.ln() / ln_q).floor();
            if s.is_finite() && s >= 0.0 {
                // Clamp astronomically long skips so the cast is sound.
                return s.min(9.0e18) as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{RngCore, SeedableRng};
    use swsample_stats::{chi_square_test, chi_square_uniform_test};

    #[test]
    fn first_count_is_never_skipped_from_zero_gap() {
        // m >= cap means no acceptance can remain below the cap.
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(record_skip(&mut rng, 5, 5), None);
        assert_eq!(record_skip(&mut rng, 9, 4), None);
    }

    #[test]
    fn gap_law_matches_exact_probabilities() {
        // P(c) = m/(c(c-1)) for c in (m, cap], P(None) = m/cap.
        let (m, cap) = (3u64, 12u64);
        let trials = 200_000u64;
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = vec![0u64; (cap - m + 1) as usize]; // last bin = None
        for _ in 0..trials {
            match record_skip(&mut rng, m, cap) {
                Some(c) => counts[(c - m - 1) as usize] += 1,
                None => counts[(cap - m) as usize] += 1,
            }
        }
        let mut probs: Vec<f64> = ((m + 1)..=cap)
            .map(|c| m as f64 / (c as f64 * (c - 1) as f64))
            .collect();
        probs.push(m as f64 / cap as f64);
        let out = chi_square_test(&counts, &probs);
        assert!(out.p_value > 1e-4, "gap law off: p = {}", out.p_value);
    }

    #[test]
    fn skip_process_equals_naive_record_process() {
        // Run a full k=1 reservoir over n elements both ways; the final
        // accepted position must be uniform over 0..n in both.
        let n = 32u64;
        let trials = 60_000u64;
        let mut counts = vec![0u64; n as usize];
        for t in 0..trials {
            let mut rng = SmallRng::seed_from_u64(10_000 + t);
            let mut last = 0u64; // count 1 always accepts
            let mut m = 1u64;
            while let Some(c) = record_skip(&mut rng, m, n) {
                last = c - 1;
                m = c;
            }
            counts[last as usize] += 1;
        }
        let out = chi_square_uniform_test(&counts);
        assert!(
            out.p_value > 1e-4,
            "skip-driven reservoir not uniform: p = {}",
            out.p_value
        );
    }

    #[test]
    fn acceptances_per_window_are_logarithmic() {
        // The number of acceptances over n arrivals is 1 + sum of
        // Bernoulli(1/c): mean H(n), O(log n) w.h.p. With n = 4096 and
        // 2000 windows, the max must stay below 4·H(n) comfortably.
        let n = 4096u64;
        let mut rng = SmallRng::seed_from_u64(2);
        let mut max_accepts = 0u64;
        let mut total = 0u64;
        for _ in 0..2000 {
            let mut accepts = 1u64; // count 1
            let mut m = 1u64;
            while let Some(c) = record_skip(&mut rng, m, n) {
                accepts += 1;
                m = c;
            }
            max_accepts = max_accepts.max(accepts);
            total += accepts;
        }
        let h_n = (n as f64).ln() + 0.5772;
        let mean = total as f64 / 2000.0;
        assert!(
            (mean - h_n).abs() < 0.5,
            "mean acceptances {mean} far from H(n) = {h_n}"
        );
        assert!(
            (max_accepts as f64) < 4.0 * h_n,
            "max acceptances {max_accepts} not O(log n)"
        );
    }

    #[test]
    fn shared_bit_source_pins_the_octave_coin_savings() {
        use crate::rng::CountingRng;
        // Reference: the pre-BitSource shape — one full RNG word per octave
        // coin (`gen_range(0..2)`), same search, same rejection step.
        fn record_skip_word_coins<R: rand::Rng>(rng: &mut R, m: u64, cap: u64) -> Option<u64> {
            let mut a = m;
            loop {
                if a >= cap {
                    return None;
                }
                if rng.gen_range(0..2u64) == 0 {
                    break;
                }
                a *= 2;
            }
            loop {
                let c = rng.gen_range(a + 1..=2 * a);
                let num = a as u128 * (a as u128 + 1);
                let den = c as u128 * (c as u128 - 1);
                if bernoulli_ratio(rng, num, den) {
                    return if c > cap { None } else { Some(c) };
                }
            }
        }
        // Chain-sampling warm-up shape: restart the record process from
        // m = 1 over a 2^16 window, repeatedly. Coins dominate (octave
        // doubles ~16 times from small m), so packing 64 coins per word
        // must cut the word count well below the reference.
        let cap = 1 << 16;
        let runs = 2_000u64;
        let mut reference = CountingRng::new(SmallRng::seed_from_u64(5));
        for _ in 0..runs {
            let mut m = 1u64;
            while let Some(c) = record_skip_word_coins(&mut reference, m, cap) {
                m = c;
            }
        }
        let mut packed = CountingRng::new(SmallRng::seed_from_u64(5));
        let mut bits = BitSource::new();
        for _ in 0..runs {
            let mut m = 1u64;
            while let Some(c) = record_skip_with_bits(&mut packed, &mut bits, m, cap) {
                m = c;
            }
        }
        // The rejection-phase words (uniform proposal + bernoulli) are
        // identical on both sides; the packing eliminates essentially all
        // octave-coin words, which is ≳ 20% of the total in this regime.
        assert!(
            packed.words() * 5 <= reference.words() * 4,
            "bit packing saved too little: {} vs {} words",
            packed.words(),
            reference.words()
        );
    }

    /// The caps the equivalence property runs at: tiny windows, the
    /// fleet's `n = 1000`, both sides of the `u64` rejection step's
    /// `2^32` boundary, and the largest cap allowed.
    const CAPS: [u64; 10] = [
        1,
        2,
        3,
        16,
        1000,
        (1 << 31) - 1,
        1 << 31,
        (1 << 31) + 1,
        1 << 32,
        1 << 62,
    ];

    /// A `SmallRng` whose first word is given, so a property can pick the
    /// octave search's trailing-zero count directly — including the long
    /// runs a random word almost never has.
    #[derive(Clone)]
    struct FirstWord {
        first: Option<u64>,
        rest: SmallRng,
    }

    impl RngCore for FirstWord {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.first.take().unwrap_or_else(|| self.rest.next_u64())
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4096))]

        /// `record_skip` is draw for draw the reference, coin by coin from
        /// a fresh `BitSource`: same result, and both RNGs left at the
        /// same word. The first word has exactly `tz` trailing zeros
        /// (`tz = 64`: the zero word); `m` spans `[1, cap + 2]`,
        /// log-spread by `shift` so small counts come up at every cap.
        #[test]
        fn record_skip_is_draw_for_draw_the_reference(
            first in (proptest::prelude::any::<u64>(), 0u32..65),
            cap_at in 0usize..CAPS.len(),
            raw in proptest::prelude::any::<u64>(),
            shift in 0u32..64,
        ) {
            let ((seed, tz), cap) = (first, CAPS[cap_at]);
            let m = 1 + (raw >> shift) % (cap + 2);
            let rng = FirstWord {
                first: Some((seed | 1).checked_shl(tz).unwrap_or(0)),
                rest: SmallRng::seed_from_u64(seed),
            };
            let (mut fast, mut reference) = (rng.clone(), rng);
            let want = record_skip_with_bits(&mut reference, &mut BitSource::new(), m, cap);
            proptest::prop_assert_eq!(record_skip(&mut fast, m, cap), want, "m = {}, cap = {}", m, cap);
            proptest::prop_assert_eq!(fast.next_u64(), reference.next_u64());
        }
    }

    #[test]
    fn geometric_skip_mean_matches() {
        // failures ~ Geometric(p = 1/den): mean (1-p)/p = den - 1.
        let den = 16u64;
        let mut rng = SmallRng::seed_from_u64(3);
        let trials = 100_000u64;
        let sum: u64 = (0..trials).map(|_| geometric_skip(&mut rng, den)).sum();
        let mean = sum as f64 / trials as f64;
        assert!(
            (mean - (den - 1) as f64).abs() < 0.3,
            "geometric mean {mean} vs expected {}",
            den - 1
        );
    }

    #[test]
    fn geometric_skip_degenerate() {
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..100 {
            assert_eq!(geometric_skip(&mut rng, 1), 0);
        }
    }
}
