//! The single-sample engine for timestamp-based windows: Lemma 3.5 state
//! maintenance plus the Lemma 3.6–3.8 implicit-event sampling rule.
//!
//! State (Lemma 3.5): at every moment with active elements, the engine holds
//! either
//!
//! 1. `ζ(l(t), N(t))` — a covering decomposition of exactly the active
//!    elements, or
//! 2. `BS(y, z), ζ(z, N(t))` — a *straddling* bucket whose first element is
//!    expired (`y < l(t) ≤ z`) followed by a covering of the all-active
//!    suffix, with the invariant `z − y ≤ N(t) + 1 − z` (i.e. `α ≤ β`).
//!
//! Queries: in case 1 a bucket is chosen with probability proportional to
//! its width and its `R` sample is output. In case 2 the window size
//! `n = β + γ` is unknown (`γ` = active elements inside the straddling
//! bucket); Lemmas 3.6–3.8 synthesize a Bernoulli event of probability
//! exactly `α/(β+γ)` out of the straddling bucket's second sample `Q` —
//! whose *expiry status* is observable even though `γ` is not — and combine
//! `R₁` with the suffix sample into a uniform sample of all active elements.
//!
//! Reference only: the samplers a spec builds run the fused
//! [`super::TsEngineBank`]. This engine, with its `covering` and `bucket`
//! modules, serves the per-engine reference types in
//! [`super::independent`] and the tests that hold the bank to them.

use super::bucket::BucketStruct;
use super::covering::Covering;
use crate::memory::MemoryWords;
use crate::rngutil::{bernoulli_ratio, BitSource};
use crate::sample::Sample;
use crate::track::{NullTracker, SampleTracker};
use rand::Rng;

/// Lemma 3.5 state.
#[derive(Debug, Clone)]
enum State<T, S> {
    /// No stored elements (empty window, or everything stored has expired).
    Empty,
    /// Case 1: the covering spans exactly the active elements.
    Full(Covering<T, S>),
    /// Case 2: straddling bucket + all-active covering.
    Straddle {
        head: BucketStruct<T, S>,
        tail: Covering<T, S>,
    },
}

/// Single uniform sample over a timestamp window of width `t0`, in
/// `Θ(log n)` words (Theorem 3.9). The reference types in
/// [`super::independent`] run `k` independent engines (WR) or `k` *delayed*
/// engines (WOR, Lemma 4.1).
/// The engine is generic over a [`SampleTracker`] (Theorem 5.1 support for
/// timestamp windows): each bucket's `R` sample carries a suffix statistic
/// that is updated on every arrival — `O(log n)` tracker updates per
/// element — and survives bucket merges with its sample.
#[derive(Debug, Clone)]
pub struct TsEngine<T, K: SampleTracker<T> = NullTracker> {
    t0: u64,
    now: u64,
    tracker: K,
    /// Coin buffer for the `Incr` merge steps — RNG state, excluded from
    /// the word accounting like the generator it draws from.
    bits: BitSource,
    state: State<T, K::Stat>,
}

impl<T: Clone> TsEngine<T, NullTracker> {
    /// Engine for window width `t0 ≥ 1`, clock starting at 0, no tracking.
    pub fn new(t0: u64) -> Self {
        Self::with_tracker(t0, NullTracker)
    }
}

impl<T: Clone, K: SampleTracker<T>> TsEngine<T, K> {
    /// Engine for window width `t0 ≥ 1` with a per-sample suffix tracker.
    pub fn with_tracker(t0: u64, tracker: K) -> Self {
        assert!(t0 >= 1, "TsEngine: window width must be at least 1");
        Self {
            t0,
            now: 0,
            tracker,
            bits: BitSource::new(),
            state: State::Empty,
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

    fn is_active(&self, ts: u64) -> bool {
        debug_assert!(ts <= self.now);
        self.now - ts < self.t0
    }

    /// Advance the clock and run the Lemma 3.5 expiry transitions.
    ///
    /// # Panics
    /// Panics if `now` moves backwards.
    pub fn advance_time(&mut self, now: u64) {
        assert!(
            now >= self.now,
            "TsEngine: clock moved backwards ({} -> {now})",
            self.now
        );
        self.now = now;
        // 2(a)/3(a): while the oldest element of the covering (case 1) or
        // tail (case 2) is active, nothing moves — the case-2 invariant
        // only strengthens as the tail grows.
        let oldest_live = match &self.state {
            State::Empty => return,
            State::Full(cov) => cov.oldest_ts(),
            State::Straddle { tail, .. } => tail.oldest_ts(),
        };
        if self.is_active(oldest_live) {
            return;
        }
        let t0 = self.t0;
        let active = |ts: u64| now - ts < t0;
        let state = std::mem::replace(&mut self.state, State::Empty);
        self.state = match state {
            State::Empty => unreachable!("returned above"),
            State::Full(mut cov) => {
                if !active(cov.newest_ts()) {
                    // 2(b): every stored element expired.
                    State::Empty
                } else {
                    // 2(c): the expiry boundary crossed into the covering;
                    // split off the straddling bucket.
                    let head = cov.split_straddle(active);
                    State::Straddle { head, tail: cov }
                }
            }
            State::Straddle { mut tail, .. } => {
                if !active(tail.newest_ts()) {
                    // 3(b): everything stored expired.
                    State::Empty
                } else {
                    // 3(c): boundary moved past z; re-split inside the tail
                    // and discard the old head.
                    let head = tail.split_straddle(active);
                    State::Straddle { head, tail }
                }
            }
        };
        self.debug_check_invariants();
    }

    /// Insert an element arriving at timestamp `ts` with stream index
    /// `index`.
    ///
    /// Within one engine, indices must be consecutive while the state is
    /// non-empty (the covering needs contiguity); the wrappers guarantee
    /// this. Elements already expired on arrival are skipped — that only
    /// happens for the delayed engines of §4, and only when the engine has
    /// already emptied (Lemma 4.1).
    pub fn insert<R: Rng>(&mut self, rng: &mut R, value: T, index: u64, ts: u64) {
        assert!(
            ts <= self.now,
            "TsEngine: element from the future (ts {ts} > now {})",
            self.now
        );
        if !self.is_active(ts) {
            // Lemma 4.1: skip already-expired arrivals. Anything stored is
            // older, hence also expired; advance_time has emptied the state.
            debug_assert!(matches!(self.state, State::Empty));
            return;
        }
        // Existing samples observe the arrival first (their suffix now
        // includes it) ...
        let tracker = &mut self.tracker;
        match &mut self.state {
            State::Empty => {}
            State::Full(cov) => cov.observe_all(|stat| tracker.observe(stat, &value)),
            State::Straddle { head, tail } => {
                tracker.observe(&mut head.r_stat, &value);
                tail.observe_all(|stat| tracker.observe(stat, &value));
            }
        }
        // ... then the arrival enters with a fresh statistic of its own.
        let stat = self.tracker.fresh(&value, index);
        let item = Sample::new(value, index, ts);
        let bits = &mut self.bits;
        match &mut self.state {
            State::Empty => self.state = State::Full(Covering::new_with_stat(item, stat)),
            State::Full(cov) => cov.incr_with_stat(item, stat, rng, bits),
            State::Straddle { tail, .. } => tail.incr_with_stat(item, stat, rng, bits),
        }
        self.debug_check_invariants();
    }

    /// Draw a uniform sample of the active elements (Lemma 3.8 /
    /// Theorem 3.9); `None` when the window is empty.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Option<Sample<T>> {
        self.sample_with_stat(rng).map(|(s, _)| s)
    }

    /// Like [`TsEngine::sample`], returning the tracker statistic carried
    /// by the sampled element.
    pub fn sample_with_stat<R: Rng>(&self, rng: &mut R) -> Option<(Sample<T>, K::Stat)> {
        match &self.state {
            State::Empty => None,
            State::Full(cov) => Some(cov.sample_uniform_with_stat(rng)),
            State::Straddle { head, tail } => Some(self.sample_straddle(head, tail, rng)),
        }
    }

    /// The case-2 sampling rule. `B₁ = B(a, b)` is the straddling bucket
    /// (α = b−a elements, γ of them active, γ unknown), `B₂` the all-active
    /// suffix (β elements).
    fn sample_straddle<R: Rng>(
        &self,
        head: &BucketStruct<T, K::Stat>,
        tail: &Covering<T, K::Stat>,
        rng: &mut R,
    ) -> (Sample<T>, K::Stat) {
        let alpha = head.width();
        let beta = tail.covered_len();
        debug_assert!(
            alpha <= beta,
            "case-2 invariant α ≤ β violated ({alpha} > {beta})"
        );
        // R₂: uniform over B₂.
        let r2 = tail.sample_uniform_with_stat(rng);

        // Lemma 3.6: realize Y from Q₁. Q₁ = q_{b−i} for i ∈ 1..=α.
        let q1 = &head.q;
        let i = head.b - q1.index();
        debug_assert!(i >= 1 && i <= alpha);
        let y_expired = if i < alpha {
            // H_i fires with probability αβ / ((β+i)(β+i−1)); then Y = q_{b−i},
            // otherwise Y = p_a.
            let num = alpha as u128 * beta as u128;
            let den = (beta + i) as u128 * (beta + i - 1) as u128;
            if bernoulli_ratio(rng, num, den) {
                !self.is_active(q1.timestamp())
            } else {
                !self.is_active(head.ts_first)
            }
        } else {
            // Q₁ is p_a itself: Y = p_a.
            !self.is_active(head.ts_first)
        };

        // Lemma 3.7: X = [Y expired] ∧ [S = 1], P(S = 1) = α/β, giving
        // P(X = 1) = (β/(β+γ)) · (α/β) = α/(β+γ) = α/n.
        let x = y_expired && bernoulli_ratio(rng, alpha as u128, beta as u128);

        // Lemma 3.8: V = R₁ if R₁ is active and X = 1, else R₂.
        if x && self.is_active(head.r.timestamp()) {
            (head.r.clone(), head.r_stat.clone())
        } else {
            r2
        }
    }

    /// Is the window currently empty *as far as the engine knows*? (`true`
    /// means a query returns `None`.)
    pub fn is_empty(&self) -> bool {
        matches!(self.state, State::Empty)
    }

    /// The bucket-boundary profile of the current state — `(a, b, T(p_a))`
    /// per bucket, oldest first, with the straddling head included when
    /// present. The profile is a *deterministic* function of the ingested
    /// stream (the merge coins pick which samples survive, never where the
    /// boundaries sit) — the invariant the fused [`super::TsEngineBank`]
    /// exploits, exposed so the lockstep equivalence tests can assert it.
    pub fn boundaries(&self) -> Vec<(u64, u64, u64)> {
        match &self.state {
            State::Empty => Vec::new(),
            State::Full(cov) => cov
                .buckets()
                .iter()
                .map(|b| (b.a, b.b, b.ts_first))
                .collect(),
            State::Straddle { head, tail } => std::iter::once((head.a, head.b, head.ts_first))
                .chain(tail.buckets().iter().map(|b| (b.a, b.b, b.ts_first)))
                .collect(),
        }
    }

    /// `true` in the Lemma 3.5 case-2 (straddling-bucket) state.
    pub fn is_straddling(&self) -> bool {
        matches!(self.state, State::Straddle { .. })
    }

    #[cfg(debug_assertions)]
    fn debug_check_invariants(&self) {
        match &self.state {
            State::Empty => {}
            State::Full(cov) => {
                debug_assert!(cov.is_canonical());
                debug_assert!(
                    self.is_active(cov.oldest_ts()),
                    "case-1 covering must be all-active"
                );
            }
            State::Straddle { head, tail } => {
                debug_assert!(tail.is_canonical());
                debug_assert_eq!(head.b, tail.start(), "head must abut the tail");
                debug_assert!(
                    !self.is_active(head.ts_first),
                    "head's first element must be expired"
                );
                debug_assert!(self.is_active(tail.oldest_ts()), "tail must be all-active");
                debug_assert!(head.width() <= tail.covered_len(), "α ≤ β invariant");
            }
        }
    }

    #[cfg(not(debug_assertions))]
    fn debug_check_invariants(&self) {}
}

impl<T, K: SampleTracker<T>> MemoryWords for TsEngine<T, K> {
    fn memory_words(&self) -> usize {
        let state = match &self.state {
            State::Empty => 0,
            State::Full(cov) => cov.memory_words(),
            State::Straddle { head, tail } => head.memory_words() + tail.memory_words(),
        };
        state + 2 // t0, now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use swsample_stats::chi_square_uniform_test;

    /// Drive an engine over (timestamp, burst-size) pairs, inserting
    /// sequential indices; returns the engine and total insert count.
    fn drive(t0: u64, schedule: &[(u64, u64)], rng: &mut SmallRng) -> (TsEngine<u64>, u64) {
        let mut e = TsEngine::new(t0);
        let mut idx = 0u64;
        for &(ts, burst) in schedule {
            e.advance_time(ts);
            for _ in 0..burst {
                e.insert(rng, idx, idx, ts);
                idx += 1;
            }
        }
        (e, idx)
    }

    #[test]
    fn empty_engine_returns_none() {
        let mut rng = SmallRng::seed_from_u64(0);
        let e: TsEngine<u64> = TsEngine::new(5);
        assert!(e.sample(&mut rng).is_none());
        assert!(e.is_empty());
    }

    #[test]
    fn everything_expires() {
        let mut rng = SmallRng::seed_from_u64(1);
        let (mut e, _) = drive(3, &[(0, 5), (1, 5)], &mut rng);
        assert!(e.sample(&mut rng).is_some());
        e.advance_time(10);
        assert!(e.sample(&mut rng).is_none());
        assert!(e.is_empty());
    }

    #[test]
    fn restarts_after_total_expiry() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut e = TsEngine::new(2);
        e.advance_time(0);
        e.insert(&mut rng, 0u64, 0, 0);
        e.advance_time(50);
        assert!(e.is_empty());
        e.insert(&mut rng, 1u64, 1, 50);
        let s = e.sample(&mut rng).expect("restarted");
        assert_eq!(s.index(), 1);
    }

    #[test]
    fn sample_always_active() {
        let mut rng = SmallRng::seed_from_u64(3);
        let t0 = 7;
        let mut e = TsEngine::new(t0);
        let mut idx = 0u64;
        let mut ts_of = Vec::new();
        for tick in 0..200u64 {
            e.advance_time(tick);
            let burst = rng.gen_range(0..4u64);
            for _ in 0..burst {
                e.insert(&mut rng, idx, idx, tick);
                ts_of.push(tick);
                idx += 1;
            }
            if let Some(s) = e.sample(&mut rng) {
                let age = tick - ts_of[s.index() as usize];
                assert!(age < t0, "sampled expired element (age {age})");
            }
        }
    }

    #[test]
    fn uniform_on_steady_stream_case2() {
        // One element per tick, window t0 = 16, query at tick 40: active
        // elements are exactly those with ts in (40-16, 40] -> 16 elements.
        // This exercises case 2 (straddling bucket) heavily.
        let t0 = 16u64;
        let last_tick = 40u64;
        let trials = 30_000u64;
        let mut counts = vec![0u64; t0 as usize];
        for t in 0..trials {
            let mut rng = SmallRng::seed_from_u64(100_000 + t);
            let schedule: Vec<(u64, u64)> = (0..=last_tick).map(|i| (i, 1)).collect();
            let (e, n) = drive(t0, &schedule, &mut rng);
            assert_eq!(n, last_tick + 1);
            let s = e.sample(&mut rng).expect("nonempty");
            // Active indices: last_tick-t0+1 ..= last_tick.
            let lo = last_tick - t0 + 1;
            assert!(s.index() >= lo);
            counts[(s.index() - lo) as usize] += 1;
        }
        let out = chi_square_uniform_test(&counts);
        assert!(
            out.p_value > 1e-4,
            "steady-stream case-2 not uniform: p = {}",
            out.p_value
        );
    }

    #[test]
    fn uniform_on_bursty_stream() {
        // Deterministic bursty schedule so every trial has the same active
        // set; uniformity over that set is chi-squared.
        let t0 = 4u64;
        // (tick, burst): active at t=9 are ticks 6..=9 -> bursts 5,1,4,2 = 12 elems.
        let schedule: Vec<(u64, u64)> = vec![
            (0, 3),
            (1, 7),
            (2, 2),
            (3, 1),
            (4, 6),
            (5, 2),
            (6, 5),
            (7, 1),
            (8, 4),
            (9, 2),
        ];
        let active_count = 5 + 1 + 4 + 2;
        let first_active_idx: u64 = (3 + 7 + 2 + 1 + 6 + 2) as u64;
        let trials = 30_000u64;
        let mut counts = vec![0u64; active_count as usize];
        for t in 0..trials {
            let mut rng = SmallRng::seed_from_u64(200_000 + t);
            let (e, _) = drive(t0, &schedule, &mut rng);
            let s = e.sample(&mut rng).expect("nonempty");
            assert!(
                s.index() >= first_active_idx,
                "expired sample {}",
                s.index()
            );
            counts[(s.index() - first_active_idx) as usize] += 1;
        }
        let out = chi_square_uniform_test(&counts);
        assert!(
            out.p_value > 1e-4,
            "bursty not uniform: p = {}",
            out.p_value
        );
    }

    #[test]
    fn uniform_in_case1_fresh_window() {
        // All elements arrive at the same tick and none expire: pure case 1.
        let trials = 30_000u64;
        let m = 13u64;
        let mut counts = vec![0u64; m as usize];
        for t in 0..trials {
            let mut rng = SmallRng::seed_from_u64(300_000 + t);
            let (e, _) = drive(100, &[(0, m)], &mut rng);
            counts[e.sample(&mut rng).expect("nonempty").index() as usize] += 1;
        }
        let out = chi_square_uniform_test(&counts);
        assert!(
            out.p_value > 1e-4,
            "case-1 not uniform: p = {}",
            out.p_value
        );
    }

    #[test]
    fn memory_logarithmic_in_active_count() {
        let mut rng = SmallRng::seed_from_u64(4);
        // 2^15 elements in one tick: memory must stay O(log n) words.
        let mut e = TsEngine::new(10);
        e.advance_time(0);
        for i in 0..(1u64 << 15) {
            e.insert(&mut rng, i, i, 0);
        }
        let words = e.memory_words();
        // ~2·log2(n) buckets of 9 words each, plus slack.
        let bound = 9 * (2 * 15 + 2) + 16;
        assert!(words <= bound, "memory {words} > bound {bound}");
    }

    #[test]
    fn memory_bounded_across_sliding() {
        let mut rng = SmallRng::seed_from_u64(5);
        let t0 = 64u64;
        let mut e = TsEngine::new(t0);
        let mut idx = 0u64;
        let mut peak = 0usize;
        for tick in 0..2000u64 {
            e.advance_time(tick);
            for _ in 0..8 {
                e.insert(&mut rng, idx, idx, tick);
                idx += 1;
            }
            peak = peak.max(e.memory_words());
        }
        // n = 8·64 = 512 active; deterministic O(log n) cap.
        let bound = 9 * (2 * 10 + 3) + 16;
        assert!(peak <= bound, "peak {peak} > bound {bound}");
    }

    #[test]
    #[should_panic]
    fn clock_cannot_go_backwards() {
        let mut e: TsEngine<u64> = TsEngine::new(5);
        e.advance_time(10);
        e.advance_time(9);
    }

    #[test]
    fn gap_bigger_than_window_resets_cleanly() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut e = TsEngine::new(5);
        for epoch in 0..20u64 {
            let base = epoch * 1000;
            e.advance_time(base);
            for j in 0..10u64 {
                e.insert(&mut rng, j, epoch * 10 + j, base);
            }
            let s = e.sample(&mut rng).expect("fresh epoch nonempty");
            assert!(s.index() >= epoch * 10);
        }
    }
}
