//! Sampling **with replacement** from timestamp-based windows
//! (§3, Theorem 3.9): `k` independent single-sample engines, fused into a
//! [`TsEngineBank`] sharing one covering decomposition.

use super::bank::TsEngineBank;
use crate::memory::MemoryWords;
use crate::rngutil::query_rng;
use crate::sample::Sample;
use crate::state::{self, SamplerState, StateError};
use crate::track::{NullTracker, SampleTracker};
use crate::traits::WindowSampler;
use rand::Rng;

/// `k` independent uniform samples, *with replacement*, over a timestamp
/// window of width `t0` — `O(k log n)` memory words, deterministic.
///
/// The `k` engines of Theorem 3.9 share one covering decomposition (their
/// bucket boundaries are a deterministic function of the stream; see the
/// [`super::bank`] module docs), so boundary maintenance runs once per
/// arrival and merge coins are served as packed bits: amortized `O(k/32)`
/// RNG words per element instead of the `2k` words of `k` separate
/// engines. Each bucket stores the distinct elements its lanes hold once,
/// as a value and an offset word (a value alone for a singleton). The
/// per-engine construction is the reference type
/// [`IndependentTsWr`](super::independent::IndependentTsWr), and is
/// distribution-identical — `tests/ts_bank_equivalence.rs` holds both to
/// lockstep boundary equality and the same chi-square thresholds.
///
/// ```
/// use swsample_core::ts::TsSamplerWr;
/// use swsample_core::WindowSampler;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut s = TsSamplerWr::new(60, 2, SmallRng::seed_from_u64(9));
/// for tick in 0..1000u64 {
///     s.advance_time(tick);
///     s.insert(tick * 7); // one arrival per tick
/// }
/// let samples = s.sample_k().unwrap();
/// assert_eq!(samples.len(), 2);
/// for smp in samples {
///     assert!(999 - smp.timestamp() < 60); // all active
/// }
/// ```
#[derive(Debug, Clone)]
pub struct TsSamplerWr<T, R, K: SampleTracker<T> = NullTracker> {
    bank: TsEngineBank<T, K>,
    rng: R,
    now: u64,
    next_index: u64,
}

impl<T: Clone, R: Rng> TsSamplerWr<T, R, NullTracker> {
    /// Sampler over windows of width `t0 ≥ 1` keeping `k ≥ 1` independent
    /// samples.
    pub fn new(t0: u64, k: usize, rng: R) -> Self {
        Self::with_tracker(t0, k, rng, NullTracker)
    }
}

impl<T: Clone, R: Rng, K: SampleTracker<T>> TsSamplerWr<T, R, K> {
    /// Like [`TsSamplerWr::new`] with a per-candidate suffix tracker
    /// (Theorem 5.1 support).
    pub fn with_tracker(t0: u64, k: usize, rng: R, tracker: K) -> Self {
        assert!(k >= 1, "TsSamplerWr: k must be at least 1");
        Self {
            bank: TsEngineBank::with_tracker(t0, k, tracker),
            rng,
            now: 0,
            next_index: 0,
        }
    }

    /// Draw the `k` samples together with their tracker statistics;
    /// `None` when the window is empty. The §3 query draws come from
    /// [`query_rng`], one stream for all lanes.
    pub fn sample_k_with_stats(&self) -> Option<Vec<(Sample<T>, K::Stat)>>
    where
        R: Clone,
    {
        let mut rng = query_rng(&self.rng, self.next_index, self.now);
        // Sized up front: collecting through `Option` would grow it.
        let mut out = Vec::with_capacity(self.bank.lanes());
        for lane in 0..self.bank.lanes() {
            out.push(self.bank.sample_lane_with_stat(lane, &mut rng)?);
        }
        Some(out)
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

    /// The bucket-boundary profile shared by all lanes. See
    /// [`TsEngineBank::boundaries`].
    pub fn boundaries(&self) -> Vec<(u64, u64, u64)> {
        self.bank.boundaries()
    }

    /// `true` in the Lemma 3.5 case-2 (straddling) state.
    pub fn is_straddling(&self) -> bool {
        self.bank.is_straddling()
    }
}

impl<T, R, K: SampleTracker<T>> MemoryWords for TsSamplerWr<T, R, K> {
    fn memory_words(&self) -> usize {
        self.bank.memory_words() + 2 // + (now, next_index)
    }
}

impl<T: Clone, R: Rng + Clone + 'static, K: SampleTracker<T>> WindowSampler<T>
    for TsSamplerWr<T, R, K>
{
    fn advance_time(&mut self, now: u64) {
        assert!(now >= self.now, "TsSamplerWr: clock moved backwards");
        self.now = now;
        self.bank.advance_time(now);
    }

    fn insert(&mut self, value: T) {
        let idx = self.next_index;
        self.next_index += 1;
        self.bank.insert(&mut self.rng, value, idx, self.now);
    }

    fn insert_batch(&mut self, values: &[T])
    where
        T: Clone,
    {
        let first = self.next_index;
        self.next_index += values.len() as u64;
        let now = self.now;
        for (j, v) in values.iter().enumerate() {
            self.bank
                .insert(&mut self.rng, v.clone(), first + j as u64, now);
        }
    }

    fn sample(&self) -> Option<Sample<T>> {
        let mut rng = query_rng(&self.rng, self.next_index, self.now);
        self.bank.sample_lane(0, &mut rng)
    }

    fn sample_k(&self) -> Option<Vec<Sample<T>>> {
        self.sample_k_with_stats()
            .map(|v| v.into_iter().map(|(s, _)| s).collect())
    }

    fn k(&self) -> usize {
        self.bank.lanes()
    }

    fn save_state(&self) -> Option<SamplerState<T>> {
        Some(SamplerState::TsWr {
            bank: self.bank.save_state()?,
            now: self.now,
            next_index: self.next_index,
            rng: state::capture_rng(&self.rng)?,
        })
    }

    /// Also rejects a clock other than the bank's, and a next index that
    /// would restamp arrivals the bank already holds.
    fn restore_state(&mut self, state: SamplerState<T>) -> Result<(), StateError> {
        let (now, next_index, rng, bank) = match state {
            SamplerState::TsWr {
                now,
                next_index,
                rng,
                bank,
            } => (now, next_index, rng, bank),
            other => {
                return Err(StateError::Mismatch {
                    expected: "ts-wr",
                    found: other.family(),
                })
            }
        };
        let end = bank.newest().map_or(0, |b| b.b);
        if now != bank.now || next_index < end {
            return Err(StateError::Corrupt(format!(
                "ts-wr clock {now} / next index {next_index} disagree with its bank \
                 (clock {}, end {end})",
                bank.now
            )));
        }
        if !state::restore_rng(&mut self.rng, &rng) {
            return Err(StateError::Unsupported);
        }
        self.bank.restore_state(bank)?;
        self.now = now;
        self.next_index = next_index;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ts::independent::IndependentTsWr;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use swsample_stats::chi_square_uniform_test;

    #[test]
    fn empty_returns_none() {
        let s: TsSamplerWr<u64, _> = TsSamplerWr::new(5, 3, SmallRng::seed_from_u64(0));
        assert!(s.sample().is_none());
        assert!(s.sample_k().is_none());
        let ind: IndependentTsWr<u64, _> = IndependentTsWr::new(5, 3, SmallRng::seed_from_u64(0));
        assert!(ind.sample_k().is_none());
    }

    #[test]
    fn k_samples_all_active() {
        for fused in [true, false] {
            let mut s: Box<dyn WindowSampler<u64>> = if fused {
                Box::new(TsSamplerWr::new(8, 4, SmallRng::seed_from_u64(1)))
            } else {
                Box::new(IndependentTsWr::new(8, 4, SmallRng::seed_from_u64(1)))
            };
            for tick in 0..100u64 {
                s.advance_time(tick);
                s.insert(tick);
                let got = s.sample_k().expect("nonempty");
                assert_eq!(got.len(), 4);
                for smp in got {
                    assert!(tick - smp.timestamp() < 8, "fused={fused}");
                }
            }
        }
    }

    #[test]
    fn joint_distribution_of_two_engines_is_product() {
        // k = 2 fused lanes over a 3-element window: the merge coins come
        // from disjoint bits of shared words, so the joint law must still
        // be the product of uniforms.
        let trials = 40_000u64;
        let mut counts = vec![0u64; 9];
        for t in 0..trials {
            let mut s = TsSamplerWr::new(3, 2, SmallRng::seed_from_u64(50_000 + t));
            for tick in 0..10u64 {
                s.advance_time(tick);
                s.insert(tick);
            }
            let got = s.sample_k().expect("nonempty");
            let a = got[0].index() - 7;
            let b = got[1].index() - 7;
            counts[(a * 3 + b) as usize] += 1;
        }
        let out = chi_square_uniform_test(&counts);
        assert!(
            out.p_value > 1e-4,
            "joint not product-uniform: p = {}",
            out.p_value
        );
    }

    #[test]
    fn memory_linear_in_k() {
        let mut one = TsSamplerWr::new(16, 1, SmallRng::seed_from_u64(2));
        let mut four = TsSamplerWr::new(16, 4, SmallRng::seed_from_u64(3));
        for tick in 0..200u64 {
            one.advance_time(tick);
            four.advance_time(tick);
            for _ in 0..4 {
                one.insert(tick);
                four.insert(tick);
            }
        }
        let (m1, m4) = (one.memory_words(), four.memory_words());
        assert!(m4 <= 4 * m1 + 8, "k=4 memory {m4} vs k=1 {m1}");
    }

    #[test]
    fn fused_memory_is_below_independent() {
        // Shared boundaries shrink the footprint: at most 4k + 3 words
        // per merged bucket against 9k across independent engines.
        let mut fused = TsSamplerWr::new(32, 8, SmallRng::seed_from_u64(21));
        let mut indep = IndependentTsWr::new(32, 8, SmallRng::seed_from_u64(21));
        for tick in 0..300u64 {
            fused.advance_time(tick);
            indep.advance_time(tick);
            for _ in 0..3 {
                fused.insert(tick);
                indep.insert(tick);
            }
            assert!(
                fused.memory_words() <= indep.memory_words(),
                "tick {tick}: fused {} > independent {}",
                fused.memory_words(),
                indep.memory_words()
            );
        }
    }

    #[test]
    fn expiry_empties_sampler() {
        let mut s = TsSamplerWr::new(5, 2, SmallRng::seed_from_u64(4));
        s.advance_time(0);
        s.insert(1u64);
        s.advance_time(100);
        assert!(s.sample_k().is_none());
    }

    #[test]
    fn tracker_counts_suffix_occurrences_on_ts_windows() {
        use crate::track::OccurrenceTracker;
        // Constant stream: the sampled element's suffix count must equal
        // (total arrivals − sample index), exactly as for sequence windows.
        let mut s = TsSamplerWr::with_tracker(10, 1, SmallRng::seed_from_u64(5), OccurrenceTracker);
        let total = 30u64;
        for tick in 0..total {
            s.advance_time(tick);
            s.insert(7u64);
        }
        let (smp, (val, count)) = s
            .sample_k_with_stats()
            .expect("nonempty")
            .pop()
            .expect("k = 1");
        assert_eq!(val, 7);
        assert_eq!(count, total - smp.index());
    }

    /// Samples with their `OccurrenceTracker` statistics.
    type WithStats = Option<Vec<(Sample<u64>, (u64, u64))>>;

    /// Drive `s` through mixed values; the stat `stats` reports for each
    /// sample must count occurrences of the sampled value from its
    /// position onward.
    fn check_suffix_stats<S: WindowSampler<u64>>(
        mut s: S,
        stats: fn(&S) -> WithStats,
        label: &str,
    ) {
        let mut values = Vec::new();
        for tick in 0..60u64 {
            s.advance_time(tick);
            for j in 0..(tick % 3) + 1 {
                let v = (tick + j) % 4;
                s.insert(v);
                values.push(v);
            }
            if let Some(all) = stats(&s) {
                for (smp, (val, count)) in all {
                    let truth = values[smp.index() as usize..]
                        .iter()
                        .filter(|&&x| x == val)
                        .count() as u64;
                    assert_eq!(count, truth, "stat mismatch at tick {tick} ({label})");
                }
            }
        }
    }

    #[test]
    fn tracker_stat_survives_merges_and_straddle() {
        use crate::track::OccurrenceTracker;
        // Mixed values; the stat must always count occurrences of the
        // sampled value from its position onward, whatever bucket merges or
        // case-2 transitions happened in between — on both constructions,
        // and now with multiple fused lanes sharing singleton stats.
        for k in [1usize, 3] {
            check_suffix_stats(
                TsSamplerWr::with_tracker(6, k, SmallRng::seed_from_u64(6), OccurrenceTracker),
                TsSamplerWr::sample_k_with_stats,
                &format!("fused, k={k}"),
            );
            check_suffix_stats(
                IndependentTsWr::with_tracker(6, k, SmallRng::seed_from_u64(6), OccurrenceTracker),
                IndependentTsWr::sample_k_with_stats,
                &format!("independent, k={k}"),
            );
        }
    }

    #[test]
    fn every_reachable_state_restores() {
        // Gaps that expire the whole window: each checkpoint passes the
        // restore checks.
        let mut s = TsSamplerWr::new(4, 3, SmallRng::seed_from_u64(41));
        let mut sched = SmallRng::seed_from_u64(42);
        let mut now = 0u64;
        for step in 0..400u64 {
            now += sched.gen_range(0..7u64);
            s.advance_time(now);
            for _ in 0..sched.gen_range(0..3u64) {
                s.insert(step);
            }
            let mut fresh = TsSamplerWr::new(4, 3, SmallRng::seed_from_u64(0));
            let state = s.save_state().expect("checkpoint");
            fresh
                .restore_state(state)
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
        }
    }
}
