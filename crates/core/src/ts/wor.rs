//! Sampling **without replacement** from timestamp-based windows via the §4
//! black-box reduction (Lemmas 4.1–4.3, Theorem 4.4).
//!
//! The construction needs, at query time, samples `R_i` uniform over the
//! active elements **minus the last `i` arrivals**, for `i = k−1 .. 0`,
//! mutually independent — assembled into a `k`-sample without replacement
//! by the Lemma 4.2 recurrence (the *cross-lane rejection*: lane `i`'s
//! draw is replaced by the newest element of its domain whenever it
//! collides with the set built so far):
//!
//! ```text
//! S^{b+1}_{a+1} = S^b_a ∪ {element b+1}   if S^{b+1}_1 ∈ S^b_a
//!               = S^b_a ∪ S^{b+1}_1        otherwise
//! ```
//!
//! PR 3 realized the `R_i` as `k` *delayed* engines: engine `i` ingests an
//! arrival once `i` newer ones exist (Lemma 4.1). Those engines see
//! `k` different stream prefixes, so their bucket boundaries differ and
//! they cannot share a [`TsEngineBank`] directly. The fused construction
//! here shifts where the delay lives:
//!
//! * **Ingestion**: all `k` lanes run at the *same* delay `k−1` — one bank
//!   ingests each arrival exactly once, `k−1` arrivals late. Boundaries
//!   are shared; per-arrival cost collapses from `k` covering walks to
//!   one.
//! * **Query**: lane `k−1` already has the right domain (it seeds the
//!   recurrence). The others are extended in one pass over a scratch copy
//!   of the bank: its boundaries and lane slots, with an empty coin
//!   buffer. Let `p ≤ k−1` be the number of *pending* arrivals, stored in
//!   the auxiliary array but not yet in the bank. Lanes `p..k` are read
//!   before any insert; then the pending arrivals enter the copy oldest
//!   first, and after the `j`-th, lane `p − j` is read. Lane `i` has then
//!   seen every arrival but the last `i`.
//!
//! This is distribution-exact, not approximate: a §3 engine's sample is
//! uniform over whatever elements it ingested, for **any** valid
//! insert/advance schedule (Theorem 3.9 is schedule-free), so the
//! extended lane `i` — having ingested precisely the active elements
//! minus the last `i` — has exactly the law of PR 3's delayed engine `i`.
//! The lanes' joint law is the bank's own argument: the boundaries are a
//! deterministic function of the stream, and the coins are independent
//! per lane, at ingestion and in the copy's merges alike. The copy's
//! merges and the lane reads draw only from the query's own stream
//! ([`query_rng`]), never from the bank's buffered bits, so a query
//! leaves the sampler exactly as it found it. The PR-3 construction is
//! the reference type [`IndependentTsWor`], held to the same chi-square
//! thresholds in `tests/ts_bank_equivalence.rs`.
//!
//! Total memory: `Θ(k + k log n)` words, deterministic (shared boundaries
//! make the bank *smaller* than the `k` separate delayed engines). The
//! auxiliary array keeps each arrival's value and timestamp, two words:
//! its indices are consecutive, the newest `next_index − 1`.
//!
//! The trade is ingestion-for-query: the fused path makes every arrival
//! ~20× cheaper, while a full `sample_k` copies the bank (`O(k log n)`
//! words, its merged buckets' buffers included) and runs up to `k − 1`
//! inserts on the copy before its `k` lane reads. On a 1k-key zipf(1.1)
//! fleet at `k = 16`, `w = 1000` (2M events, thread CPU, 2-vCPU guest)
//! that is about 1.8 µs and 11 allocations per query; the copy is not
//! allocation-free. Streaming workloads are
//! ingestion-dominated by orders of magnitude, so the fused bank is the
//! only construction a spec builds; the reference does not checkpoint.
//!
//! [`IndependentTsWor`]: super::independent::IndependentTsWor

use super::bank::TsEngineBank;
use crate::memory::MemoryWords;
use crate::rngutil::query_rng;
use crate::sample::Sample;
use crate::state::{self, SamplerState, StateError};
use crate::track::NullTracker;
use crate::traits::WindowSampler;
use rand::Rng;
use std::collections::VecDeque;

/// A uniform `k`-sample *without replacement* over a timestamp window of
/// width `t0` — Theorem 4.4, `O(k log n)` memory words, deterministic.
///
/// When fewer than `k` elements are active the sample is all of them.
/// Ingestion runs on one fused [`TsEngineBank`] with every lane at delay
/// `k−1`, extended per lane on a scratch copy at query time (see the
/// `ts::wor` source module docs for the construction and its argument);
/// the per-engine PR-3 shape is the reference type
/// [`IndependentTsWor`](super::independent::IndependentTsWor).
///
/// ```
/// use swsample_core::ts::TsSamplerWor;
/// use swsample_core::WindowSampler;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut s = TsSamplerWor::new(30, 4, SmallRng::seed_from_u64(5));
/// for tick in 0..200u64 {
///     s.advance_time(tick);
///     s.insert(tick);          // one arrival per tick
/// }
/// let out = s.sample_k().unwrap();
/// assert_eq!(out.len(), 4);
/// for smp in &out {
///     assert!(199 - smp.timestamp() < 30);       // all active
/// }
/// ```
#[derive(Debug, Clone)]
pub struct TsSamplerWor<T, R> {
    k: usize,
    bank: TsEngineBank<T, NullTracker>,
    /// The last `k` arrivals (the paper's auxiliary array) as `(value,
    /// timestamp)`, newest at the back; their indices are consecutive, up
    /// to `next_index − 1`. Its front element is the one the bank has
    /// just ingested; the newer `k−1` feed the query-time lane extensions.
    /// Its capacity doubles with its arrivals, capped at exactly `k`.
    recent: VecDeque<(T, u64)>,
    rng: R,
    now: u64,
    next_index: u64,
}

impl<T: Clone, R: Rng> TsSamplerWor<T, R> {
    /// Sampler over windows of width `t0 ≥ 1` maintaining a `k ≥ 1`-sample
    /// without replacement.
    pub fn new(t0: u64, k: usize, rng: R) -> Self {
        assert!(k >= 1, "TsSamplerWor: k must be at least 1");
        Self {
            k,
            bank: TsEngineBank::new(t0, k),
            recent: VecDeque::new(),
            rng,
            now: 0,
            next_index: 0,
        }
    }

    /// Window width `t0`.
    pub fn window(&self) -> u64 {
        self.bank.window()
    }

    /// Current clock.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Total arrivals observed.
    pub fn len_seen(&self) -> u64 {
        self.next_index
    }

    /// The bucket-boundary profile of the delay-(k−1) bank —
    /// lockstep-equal to the reference's engine `k−1` (asserted in
    /// `tests/ts_bank_equivalence.rs`).
    pub fn boundaries(&self) -> Vec<(u64, u64, u64)> {
        self.bank.boundaries()
    }

    /// One query's lane reader: lane `i`'s sample of the active elements
    /// minus the last `i` arrivals, on a scratch copy of the bank (see the
    /// module docs). Lanes are read in descending order, as in
    /// [`fold_lanes`].
    fn lane_reader(&self) -> impl FnMut(usize) -> Option<Sample<T>> + '_
    where
        R: Clone,
    {
        let mut rng = query_rng(&self.rng, self.next_index, self.now);
        let mut bank = self.bank.scratch();
        // The newest `pending` entries of `recent` are not in the bank.
        let pending = self.recent.len().min(self.k - 1);
        let first = self.recent.len() - pending;
        let mut fed = 0;
        move |lane| {
            while fed + lane < pending {
                let (value, ts) = &self.recent[first + fed];
                let index = self.next_index - (pending - fed) as u64;
                // Lemma 4.1: the bank skips arrivals that expired while
                // waiting (only ever offered when it is empty).
                bank.insert(&mut rng, value.clone(), index, *ts);
                fed += 1;
            }
            bank.sample_lane(lane, &mut rng)
        }
    }
}

/// The auxiliary array `recent` as samples, oldest first: its newest
/// entry has stream index `next_index − 1`.
fn recent_samples<T: Clone>(
    recent: &VecDeque<(T, u64)>,
    next_index: u64,
) -> impl Iterator<Item = Sample<T>> + '_ {
    let base = next_index - recent.len() as u64;
    (base..)
        .zip(recent)
        .map(|(index, (value, ts))| Sample::new(value.clone(), index, *ts))
}

/// The Lemma 4.2–4.3 recurrence (the cross-lane rejection): fold lane
/// draws `R_{k−1}, …, R_0` into a `k`-sample without replacement, where
/// `lane(i)` samples the active elements minus the last `i` arrivals and
/// `recent` yields the last `k` arrivals, oldest first. Lanes are read
/// in order `k−1, …, 0`. When `R_{k−1}`'s domain is empty, the whole
/// window fits in `recent`.
pub(super) fn fold_lanes<T: Clone>(
    k: usize,
    recent: impl Iterator<Item = Sample<T>>,
    now: u64,
    t0: u64,
    mut lane: impl FnMut(usize) -> Option<Sample<T>>,
) -> Option<Vec<Sample<T>>> {
    let active_recent: Vec<Sample<T>> = recent.filter(|s| now - s.timestamp() < t0).collect();
    let Some(seed) = lane(k - 1) else {
        return (!active_recent.is_empty()).then_some(active_recent);
    };
    // n ≥ k: the last k arrivals are all active.
    debug_assert_eq!(active_recent.len(), k);
    let mut set: Vec<Sample<T>> = vec![seed];
    for i in (0..k - 1).rev() {
        // Lane i supplies S^{n−k+j}_1 for j = k − i.
        let r = lane(i).expect("lane i's domain contains lane k-1's domain");
        // "Element b+1" of Lemma 4.2: the newest element of lane i's
        // domain = the arrival with exactly i newer arrivals.
        if set.iter().any(|s| s.index() == r.index()) {
            set.push(active_recent[active_recent.len() - 1 - i].clone());
        } else {
            set.push(r);
        }
    }
    debug_assert!(
        {
            let mut idx: Vec<u64> = set.iter().map(|s| s.index()).collect();
            idx.sort_unstable();
            idx.windows(2).all(|w| w[0] != w[1])
        },
        "without-replacement sample contains a duplicate"
    );
    Some(set)
}

impl<T, R> MemoryWords for TsSamplerWor<T, R> {
    fn memory_words(&self) -> usize {
        // Each recent arrival's value and timestamp; then (k, now,
        // next_index).
        self.bank.memory_words() + 2 * self.recent.len() + 3
    }
}

impl<T: Clone, R: Rng + Clone + 'static> WindowSampler<T> for TsSamplerWor<T, R> {
    fn advance_time(&mut self, now: u64) {
        assert!(now >= self.now, "TsSamplerWor: clock moved backwards");
        self.now = now;
        self.bank.advance_time(now);
    }

    fn insert(&mut self, value: T) {
        self.next_index += 1;
        // The bank runs `k−1` arrivals behind: each arrival enters the
        // auxiliary array now and the bank once it is the element with
        // exactly `k−1` newer ones — i.e. whenever the array is full, its
        // front is due. A full array drops its oldest entry (already in
        // the bank) before the arrival enters, so it never outgrows `k`;
        // a full array below `k` doubles, capped at `k`.
        let len = self.recent.len();
        if len == self.k {
            self.recent.pop_front();
        } else if len == self.recent.capacity() {
            self.recent.reserve_exact(len.max(1).min(self.k - len));
        }
        self.recent.push_back((value, self.now));
        if self.recent.len() == self.k {
            let (value, ts) = &self.recent[0];
            // Lemma 4.1: the bank skips arrivals that expired while
            // waiting (only ever offered when it is empty).
            let index = self.next_index - self.k as u64;
            self.bank.insert(&mut self.rng, value.clone(), index, *ts);
        }
    }

    fn sample(&self) -> Option<Sample<T>> {
        // Lane 0 extended with everything pending = an undelayed §3
        // sampler of the full window.
        self.lane_reader()(0)
    }

    fn sample_k(&self) -> Option<Vec<Sample<T>>> {
        let (recent, t0) = (recent_samples(&self.recent, self.next_index), self.window());
        fold_lanes(self.k, recent, self.now, t0, self.lane_reader())
    }

    fn k(&self) -> usize {
        self.k
    }

    fn save_state(&self) -> Option<SamplerState<T>> {
        Some(SamplerState::TsWor {
            bank: self.bank.save_state()?,
            now: self.now,
            next_index: self.next_index,
            rng: state::capture_rng(&self.rng)?,
            recent: recent_samples(&self.recent, self.next_index).collect(),
        })
    }

    /// Also rejects a record whose auxiliary array is not the last
    /// `min(k, next_index)` arrivals in stream order, or disagrees with
    /// the bank: the bank must share the clock, hold `recent[0]` as its
    /// newest arrival (or have emptied), and be empty until the array
    /// first fills.
    fn restore_state(&mut self, state: SamplerState<T>) -> Result<(), StateError> {
        let (now, next_index, rng, recent, bank) = match state {
            SamplerState::TsWor {
                now,
                next_index,
                rng,
                recent,
                bank,
            } => (now, next_index, rng, recent, bank),
            other => {
                return Err(StateError::Mismatch {
                    expected: "ts-wor",
                    found: other.family(),
                })
            }
        };
        let (len, k) = (recent.len() as u64, self.k as u64);
        let sound = len == next_index.min(k)
            && recent
                .iter()
                .enumerate()
                .all(|(p, s)| s.index() == next_index - len + p as u64 && s.timestamp() <= now)
            && recent
                .windows(2)
                .all(|w| w[0].timestamp() <= w[1].timestamp())
            && now == bank.now
            && match (bank.newest(), recent.first()) {
                (None, _) => true,
                (Some(b), Some(due)) => {
                    len == k && b.b == due.index() + 1 && b.ts_first <= due.timestamp()
                }
                (Some(_), None) => false,
            };
        if !sound {
            return Err(StateError::Corrupt(format!(
                "ts-wor recent array ({len} entries, next index {next_index}, clock {now}) \
                 disagrees with k = {k} or its bank"
            )));
        }
        if !state::restore_rng(&mut self.rng, &rng) {
            return Err(StateError::Unsupported);
        }
        self.bank.restore_state(bank)?;
        self.recent = recent
            .into_iter()
            .map(|s| {
                let ts = s.timestamp();
                (s.into_value(), ts)
            })
            .collect();
        self.now = now;
        self.next_index = next_index;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ts::independent::IndependentTsWor;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use swsample_stats::chi_square_uniform_test;

    /// One element per tick for `ticks` ticks, then query.
    fn drive(
        t0: u64,
        k: usize,
        ticks: u64,
        seed: u64,
    ) -> (TsSamplerWor<u64, SmallRng>, Option<Vec<Sample<u64>>>) {
        let mut s = TsSamplerWor::new(t0, k, SmallRng::seed_from_u64(seed));
        for tick in 0..ticks {
            s.advance_time(tick);
            s.insert(tick);
        }
        let out = s.sample_k();
        (s, out)
    }

    #[test]
    fn empty_returns_none() {
        let s: TsSamplerWor<u64, _> = TsSamplerWor::new(5, 3, SmallRng::seed_from_u64(0));
        assert!(s.sample_k().is_none());
        let ind: IndependentTsWor<u64, _> = IndependentTsWor::new(5, 3, SmallRng::seed_from_u64(0));
        assert!(ind.sample_k().is_none());
    }

    #[test]
    fn distinct_and_active() {
        for seed in 0..100 {
            let (_, out) = drive(16, 5, 50, seed);
            let out = out.expect("nonempty");
            assert_eq!(out.len(), 5);
            let mut idx: Vec<u64> = out.iter().map(|s| s.index()).collect();
            idx.sort_unstable();
            for w in idx.windows(2) {
                assert_ne!(w[0], w[1], "duplicate sample");
            }
            for &i in &idx {
                // Active at tick 49: ts in 34..=49 -> index == ts here.
                assert!((34..=49).contains(&i), "index {i} outside window");
            }
        }
    }

    #[test]
    fn returns_all_when_window_small() {
        // Window of width 3, k = 5: only 3 active elements.
        let (_, out) = drive(3, 5, 50, 7);
        let out = out.expect("nonempty");
        let mut idx: Vec<u64> = out.iter().map(|s| s.index()).collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![47, 48, 49]);
    }

    #[test]
    fn marginal_inclusion_uniform() {
        // Window of n = 8 active elements, k = 3: every element appears with
        // probability 3/8; positions must be uniform.
        let (t0, k, ticks) = (8u64, 3usize, 30u64);
        let trials = 25_000u64;
        let mut counts = vec![0u64; t0 as usize];
        for t in 0..trials {
            let (_, out) = drive(t0, k, ticks, 60_000 + t);
            for s in out.expect("nonempty") {
                counts[(s.index() - (ticks - t0)) as usize] += 1;
            }
        }
        let out = chi_square_uniform_test(&counts);
        assert!(
            out.p_value > 1e-4,
            "WOR marginals not uniform: p = {}",
            out.p_value
        );
    }

    #[test]
    fn pairwise_inclusion_uniform() {
        // n = 5, k = 2: all 10 unordered pairs equally likely.
        let (t0, k, ticks) = (5u64, 2usize, 20u64);
        let trials = 30_000u64;
        let n = t0;
        let mut counts = vec![0u64; (n * (n - 1) / 2) as usize];
        for t in 0..trials {
            let (_, out) = drive(t0, k, ticks, 90_000 + t);
            let out = out.expect("nonempty");
            let mut pos: Vec<u64> = out.iter().map(|s| s.index() - (ticks - t0)).collect();
            pos.sort_unstable();
            let (a, b) = (pos[0], pos[1]);
            let rank = a * n - a * (a + 1) / 2 + (b - a - 1);
            counts[rank as usize] += 1;
        }
        let out = chi_square_uniform_test(&counts);
        assert!(
            out.p_value > 1e-4,
            "WOR pairs not uniform: p = {}",
            out.p_value
        );
    }

    #[test]
    fn bursty_stream_stays_distinct() {
        for fused in [true, false] {
            let mut s: Box<dyn WindowSampler<u64>> = if fused {
                Box::new(TsSamplerWor::new(6, 4, SmallRng::seed_from_u64(11)))
            } else {
                Box::new(IndependentTsWor::new(6, 4, SmallRng::seed_from_u64(11)))
            };
            let mut rng = SmallRng::seed_from_u64(12);
            let mut idx = 0u64;
            for tick in 0..300u64 {
                s.advance_time(tick);
                for _ in 0..rng.gen_range(0..5u64) {
                    s.insert(idx);
                    idx += 1;
                }
                if let Some(out) = s.sample_k() {
                    let mut seen: Vec<u64> = out.iter().map(|x| x.index()).collect();
                    seen.sort_unstable();
                    let len = seen.len();
                    seen.dedup();
                    assert_eq!(seen.len(), len, "duplicates at tick {tick} (fused={fused})");
                    for smp in &out {
                        assert!(
                            tick - smp.timestamp() < 6,
                            "expired sample at tick {tick} (fused={fused})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn memory_scales_as_k_log_n() {
        let (t0, ticks) = (256u64, 1024u64);
        let mut peaks = Vec::new();
        for &k in &[1usize, 2, 4, 8] {
            let mut s = TsSamplerWor::new(t0, k, SmallRng::seed_from_u64(13));
            let mut peak = 0;
            for tick in 0..ticks {
                s.advance_time(tick);
                s.insert(tick);
                peak = peak.max(s.memory_words());
            }
            peaks.push(peak);
        }
        // Deterministic cap: k engines × 9·(2 log2(n)+3) + k aux + slack —
        // the fused bank stays far below it (shared boundaries).
        let log_n = 8; // log2(256)
        for (i, &k) in [1usize, 2, 4, 8].iter().enumerate() {
            let bound = k * 9 * (2 * log_n + 3) + 3 * k + 16;
            assert!(
                peaks[i] <= bound,
                "k={k}: peak {} > bound {bound}",
                peaks[i]
            );
        }
    }

    #[test]
    fn single_sample_works() {
        let (s, _) = drive(10, 3, 40, 21);
        let one = s.sample().expect("nonempty");
        assert!(one.index() >= 30);
    }

    #[test]
    fn fused_and_independent_agree_on_small_windows() {
        // Whenever fewer than k elements are active, the k-sample is
        // deterministic (the complete active set), so both backends must
        // return the identical index set. A bursty schedule with gaps
        // repeatedly drops the active count below k mid-stream, so the
        // degenerate path is exercised long after warm-up too.
        for k in [2usize, 4, 6] {
            let mut fused = TsSamplerWor::new(4, k, SmallRng::seed_from_u64(31));
            let mut indep = IndependentTsWor::new(4, k, SmallRng::seed_from_u64(32));
            let mut sched = SmallRng::seed_from_u64(33);
            let mut compared = 0u32;
            let mut now = 0u64;
            let mut idx = 0u64;
            let mut arrivals: Vec<(u64, u64)> = Vec::new(); // (index, ts)
            for _ in 0..200u64 {
                // Occasional jumps empty most (or all) of the window.
                now += sched.gen_range(1..6u64);
                fused.advance_time(now);
                indep.advance_time(now);
                for _ in 0..sched.gen_range(0..3u64) {
                    fused.insert(idx);
                    indep.insert(idx);
                    arrivals.push((idx, now));
                    idx += 1;
                }
                let active: Vec<u64> = arrivals
                    .iter()
                    .filter(|&&(_, ts)| now - ts < 4)
                    .map(|&(i, _)| i)
                    .collect();
                if active.len() < k {
                    let sorted = |v: Option<Vec<Sample<u64>>>| {
                        v.map(|v| {
                            let mut ix: Vec<u64> = v.iter().map(|s| s.index()).collect();
                            ix.sort_unstable();
                            ix
                        })
                    };
                    let f = sorted(fused.sample_k());
                    let i = sorted(indep.sample_k());
                    let want = if active.is_empty() {
                        None
                    } else {
                        Some(active)
                    };
                    assert_eq!(f, want, "fused at now={now}, k={k}");
                    assert_eq!(i, want, "independent at now={now}, k={k}");
                    compared += 1;
                }
            }
            assert!(
                compared > 50,
                "schedule exercised the degenerate path only {compared} times"
            );
        }
    }

    #[test]
    fn every_reachable_state_restores() {
        // Gaps that expire the whole window while the auxiliary array is
        // full, and arrivals that wait in it past their expiry: each
        // checkpoint passes the restore checks.
        for k in [1usize, 2, 5] {
            let mut s = TsSamplerWor::new(4, k, SmallRng::seed_from_u64(41));
            let mut sched = SmallRng::seed_from_u64(42);
            let mut now = 0u64;
            for step in 0..400u64 {
                now += sched.gen_range(0..7u64);
                s.advance_time(now);
                for _ in 0..sched.gen_range(0..3u64) {
                    s.insert(step);
                }
                let mut fresh = TsSamplerWor::new(4, k, SmallRng::seed_from_u64(0));
                let state = s.save_state().expect("checkpoint");
                fresh
                    .restore_state(state)
                    .unwrap_or_else(|e| panic!("k={k} step {step}: {e}"));
            }
        }
    }
}
