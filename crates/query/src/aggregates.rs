//! Sample-based windowed aggregates.
//!
//! Everything here is estimated from a `k`-sample of the window
//! (Theorems 2.2 / 4.4): means and quantiles come straight from the
//! sample; sums additionally need the window size — exact for sequence
//! windows, `(1±ε)`-approximate via DGIM for timestamp windows.
//!
//! The aggregators hold a `Box<dyn` [`ErasedWindowSampler`]`>` — any
//! `Send + Sync` [`WindowSampler`](swsample_core::WindowSampler) behind
//! one box — so they work over **any** sampler in the workspace: the paper's (the default, and the only ones with
//! deterministic memory) or a baseline built through
//! `swsample_baselines::spec::build`. Construct with the classic
//! `new(n, k, rng)` shape, from a [`SamplerSpec`], or adopt a boxed
//! sampler with `from_sampler` — which expects a sampler that has not
//! ingested yet, since all arrivals must flow through the aggregator's
//! own counting. [`SeqAggregator::with_seen`] is the escape hatch for
//! adopting a pre-fed sequence sampler; there is no timestamp
//! equivalent — [`TsAggregator`]'s DGIM window counter cannot be
//! backfilled, so its `from_sampler` strictly requires a fresh sampler.

use rand::Rng;
use swsample_core::seq::SeqSamplerWor;
use swsample_core::spec::{SamplerSpec, SpecError, WindowKind};
use swsample_core::ts::TsSamplerWor;
use swsample_core::{ErasedWindowSampler, MemoryWords};
use swsample_counting::WindowCounter;

/// A snapshot of sample-based aggregate estimates over the active window.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateEstimate {
    /// Estimated (or exact, for sequence windows) number of active elements.
    pub count: f64,
    /// Sample mean of the window values.
    pub mean: f64,
    /// `count · mean`.
    pub sum: f64,
    /// Smallest sampled value.
    pub min_seen: u64,
    /// Largest sampled value.
    pub max_seen: u64,
}

/// Compute the estimate from sampled values and a window-size figure.
fn estimate_from(values: &[u64], count: f64) -> AggregateEstimate {
    debug_assert!(!values.is_empty());
    let sum_sample: u64 = values.iter().sum();
    let mean = sum_sample as f64 / values.len() as f64;
    AggregateEstimate {
        count,
        mean,
        sum: mean * count,
        min_seen: *values.iter().min().expect("nonempty"),
        max_seen: *values.iter().max().expect("nonempty"),
    }
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of a sample, by sorting — the standard
/// sample-quantile estimator whose rank error is `O(n/√k)` w.h.p.
fn sample_quantile(values: &[u64], q: f64) -> u64 {
    debug_assert!(!values.is_empty());
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let pos = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[pos]
}

/// Drain a sampler's current `k`-sample into plain values.
fn sampled_values(s: &dyn ErasedWindowSampler<u64>) -> Option<Vec<u64>> {
    Some(s.sample_k()?.into_iter().map(|x| x.into_value()).collect())
}

/// Windowed aggregates over the last `n` arrivals (sequence discipline).
///
/// ```
/// use swsample_query::SeqAggregator;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut agg = SeqAggregator::new(100, 32, SmallRng::seed_from_u64(4));
/// for i in 0..1_000u64 {
///     agg.insert(i % 10);
/// }
/// let est = agg.estimate().unwrap();
/// assert_eq!(est.count, 100.0);                   // exact for seq windows
/// assert!((est.mean - 4.5).abs() < 2.0);          // sample mean near 4.5
/// assert!(agg.quantile(1.0).unwrap() <= 9);
/// ```
///
/// Or declaratively, over any erased sampler:
///
/// ```
/// use swsample_query::SeqAggregator;
///
/// let spec = "--window seq --n 100 --mode wor --k 32 --seed 4".parse().unwrap();
/// let mut agg = SeqAggregator::from_spec(&spec).unwrap();
/// agg.insert_batch(&(0..1_000u64).collect::<Vec<_>>());
/// assert_eq!(agg.count(), 100);
/// ```
pub struct SeqAggregator {
    sampler: Box<dyn ErasedWindowSampler<u64>>,
    n: u64,
    seen: u64,
}

impl std::fmt::Debug for SeqAggregator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeqAggregator")
            .field("n", &self.n)
            .field("seen", &self.seen)
            .field("k", &self.sampler.k())
            .finish()
    }
}

impl SeqAggregator {
    /// Aggregator over the last `n` arrivals using a `k`-sample
    /// (Theorem 2.2's sampler — `O(k)` deterministic words).
    pub fn new<R: Rng + Clone + Send + Sync + 'static>(n: u64, k: usize, rng: R) -> Self {
        Self::from_sampler(Box::new(SeqSamplerWor::new(n, k, rng)), n)
    }

    /// Aggregator over any sequence-window spec (use
    /// `swsample_baselines::spec::build` + [`SeqAggregator::from_sampler`]
    /// for baseline algorithms).
    pub fn from_spec(spec: &SamplerSpec) -> Result<Self, SpecError> {
        match spec.window {
            WindowKind::Sequence(n) => Ok(Self::from_sampler(spec.build()?, n)),
            _ => Err(SpecError::Invalid(
                "SeqAggregator needs --window seq".into(),
            )),
        }
    }

    /// Adopt an erased sampler maintaining a window of the last `n`
    /// arrivals. The sampler must not have ingested yet — the aggregator
    /// counts arrivals itself (the erased surface exposes no stream
    /// position), so every insert must flow through it; to adopt a
    /// sampler that has already seen `s` elements (e.g. one borrowed
    /// from a fleet), follow with [`SeqAggregator::with_seen`]`(s)`.
    /// Without-replacement samplers give the tightest estimates;
    /// with-replacement ones remain individually uniform, so
    /// means/quantiles stay unbiased.
    pub fn from_sampler(sampler: Box<dyn ErasedWindowSampler<u64>>, n: u64) -> Self {
        assert!(n >= 1, "SeqAggregator: empty window");
        Self {
            sampler,
            n,
            seen: 0,
        }
    }

    /// Declare that the adopted sampler has already ingested `seen`
    /// arrivals, so [`count`](SeqAggregator::count) (and through it the
    /// `sum` estimate) accounts for them.
    pub fn with_seen(mut self, seen: u64) -> Self {
        self.seen = seen;
        self
    }

    /// Feed the next arrival.
    pub fn insert(&mut self, value: u64) {
        self.seen += 1;
        self.sampler.insert(value);
    }

    /// Feed a run of arrivals through the sampler's batch fast path.
    pub fn insert_batch(&mut self, values: &[u64]) {
        self.seen += values.len() as u64;
        self.sampler.insert_batch(values);
    }

    /// Exact number of active elements.
    pub fn count(&self) -> u64 {
        self.seen.min(self.n)
    }

    /// Current aggregate estimates; `None` before any arrival.
    pub fn estimate(&self) -> Option<AggregateEstimate> {
        let count = self.count() as f64;
        let values = sampled_values(self.sampler.as_ref())?;
        Some(estimate_from(&values, count))
    }

    /// Sample `q`-quantile of the window; `None` before any arrival.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let values = sampled_values(self.sampler.as_ref())?;
        Some(sample_quantile(&values, q))
    }

    /// Estimated fraction of window elements satisfying `pred`.
    pub fn share(&self, pred: impl Fn(&u64) -> bool) -> Option<f64> {
        let sample = self.sampler.sample_k()?;
        let hits = sample.iter().filter(|s| pred(s.value())).count();
        Some(hits as f64 / sample.len() as f64)
    }
}

impl MemoryWords for SeqAggregator {
    fn memory_words(&self) -> usize {
        self.sampler.memory_words() + 1 // + the `seen` counter
    }
}

/// Windowed aggregates over the last `t0` ticks (timestamp discipline):
/// a window sampler (Theorem 4.4 by default) plus a DGIM counter as the
/// window-size oracle.
pub struct TsAggregator {
    sampler: Box<dyn ErasedWindowSampler<u64>>,
    counter: WindowCounter,
}

impl std::fmt::Debug for TsAggregator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TsAggregator")
            .field("k", &self.sampler.k())
            .field("count_estimate", &self.counter.estimate())
            .finish()
    }
}

impl TsAggregator {
    /// Aggregator over the last `t0` ticks with a `k`-sample and a
    /// `(1±epsilon)` window-size counter.
    pub fn new<R>(t0: u64, k: usize, epsilon: f64, rng: R) -> Self
    where
        R: Rng + Clone + Send + Sync + 'static,
    {
        Self::from_sampler(Box::new(TsSamplerWor::new(t0, k, rng)), t0, epsilon)
    }

    /// Aggregator over any timestamp-window spec.
    pub fn from_spec(spec: &SamplerSpec, epsilon: f64) -> Result<Self, SpecError> {
        match spec.window {
            WindowKind::Timestamp(t0) => Ok(Self::from_sampler(spec.build()?, t0, epsilon)),
            _ => Err(SpecError::Invalid("TsAggregator needs --window ts".into())),
        }
    }

    /// Adopt an existing erased sampler over a `t0`-tick window, pairing
    /// it with a **fresh** `(1±epsilon)` DGIM counter — so the sampler
    /// must not have ingested yet: the counter only counts arrivals that
    /// flow through the aggregator.
    pub fn from_sampler(sampler: Box<dyn ErasedWindowSampler<u64>>, t0: u64, epsilon: f64) -> Self {
        Self {
            sampler,
            counter: WindowCounter::with_epsilon(t0, epsilon),
        }
    }

    /// Advance the shared clock.
    pub fn advance_time(&mut self, now: u64) {
        self.sampler.advance_time(now);
        self.counter.advance_time(now);
    }

    /// Feed the next arrival at the current tick.
    pub fn insert(&mut self, value: u64) {
        self.sampler.insert(value);
        self.counter.insert();
    }

    /// Advance the clock to `now` and feed a tick's worth of arrivals in
    /// one dispatch.
    pub fn advance_and_insert(&mut self, now: u64, values: &[u64]) {
        self.sampler.advance_and_insert(now, values);
        self.counter.advance_time(now);
        for _ in values {
            self.counter.insert();
        }
    }

    /// `(1±ε)` estimate of the number of active elements.
    pub fn count_estimate(&self) -> u64 {
        self.counter.estimate()
    }

    /// Current aggregate estimates; `None` when the window is empty.
    pub fn estimate(&self) -> Option<AggregateEstimate> {
        let values = sampled_values(self.sampler.as_ref())?;
        Some(estimate_from(&values, self.counter.estimate() as f64))
    }

    /// Sample `q`-quantile of the window; `None` when the window is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let values = sampled_values(self.sampler.as_ref())?;
        Some(sample_quantile(&values, q))
    }

    /// Estimated fraction of window elements satisfying `pred`.
    pub fn share(&self, pred: impl Fn(&u64) -> bool) -> Option<f64> {
        let sample = self.sampler.sample_k()?;
        let hits = sample.iter().filter(|s| pred(s.value())).count();
        Some(hits as f64 / sample.len() as f64)
    }
}

impl MemoryWords for TsAggregator {
    fn memory_words(&self) -> usize {
        self.sampler.memory_words() + self.counter.memory_words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use swsample_stats::OnlineMoments;

    #[test]
    fn seq_count_is_exact() {
        let mut a = SeqAggregator::new(100, 8, SmallRng::seed_from_u64(1));
        for i in 0..37u64 {
            a.insert(i);
        }
        assert_eq!(a.count(), 37);
        for i in 0..500u64 {
            a.insert(i);
        }
        assert_eq!(a.count(), 100);
    }

    #[test]
    fn seq_mean_converges_to_window_mean() {
        // Window holds values 900..1000: mean 949.5. Average over seeds.
        let mut acc = OnlineMoments::new();
        for seed in 0..100 {
            let mut a = SeqAggregator::new(100, 16, SmallRng::seed_from_u64(seed));
            for i in 0..1000u64 {
                a.insert(i);
            }
            acc.push(a.estimate().expect("nonempty").mean);
        }
        assert!(
            (acc.mean() - 949.5).abs() < 5.0,
            "mean of means {}",
            acc.mean()
        );
    }

    #[test]
    fn seq_sum_estimates_window_sum() {
        let mut acc = OnlineMoments::new();
        for seed in 0..100 {
            let mut a = SeqAggregator::new(50, 10, SmallRng::seed_from_u64(seed));
            for i in 0..200u64 {
                a.insert(i % 7);
            }
            acc.push(a.estimate().expect("nonempty").sum);
        }
        // Window = last 50 of i%7: values cycle; exact sum:
        let exact: u64 = (150..200u64).map(|i| i % 7).sum();
        assert!(
            (acc.mean() - exact as f64).abs() < 0.15 * exact as f64,
            "sum of means {} vs exact {exact}",
            acc.mean()
        );
    }

    #[test]
    fn seq_quantile_near_true_quantile() {
        let mut acc = OnlineMoments::new();
        for seed in 0..60 {
            let mut a = SeqAggregator::new(1000, 64, SmallRng::seed_from_u64(seed));
            for i in 0..5000u64 {
                a.insert(i % 1000);
            }
            acc.push(a.quantile(0.5).expect("nonempty") as f64);
        }
        // True median of 0..1000 is ~500; sample median concentrated around it.
        assert!(
            (acc.mean() - 500.0).abs() < 60.0,
            "median of medians {}",
            acc.mean()
        );
    }

    #[test]
    fn seq_share_estimates_predicate_fraction() {
        let mut acc = OnlineMoments::new();
        for seed in 0..100 {
            let mut a = SeqAggregator::new(100, 20, SmallRng::seed_from_u64(seed));
            for i in 0..400u64 {
                a.insert(i % 10);
            }
            acc.push(a.share(|&v| v < 3).expect("nonempty"));
        }
        assert!((acc.mean() - 0.3).abs() < 0.05, "share {}", acc.mean());
    }

    #[test]
    fn seq_from_spec_equals_classic_construction() {
        // Same seed, same stream: the spec path is construction sugar,
        // not a different sampler.
        let spec = "--window seq --n 64 --mode wor --k 8 --seed 11"
            .parse()
            .expect("spec");
        let mut via_spec = SeqAggregator::from_spec(&spec).expect("builds");
        let mut classic = SeqAggregator::new(64, 8, SmallRng::seed_from_u64(11));
        let values: Vec<u64> = (0..500).map(|i| i * 3 % 101).collect();
        via_spec.insert_batch(&values);
        classic.insert_batch(&values);
        assert_eq!(via_spec.count(), classic.count());
        assert_eq!(via_spec.estimate(), classic.estimate());
        assert_eq!(via_spec.quantile(0.5), classic.quantile(0.5));
    }

    #[test]
    fn adopting_a_pre_fed_sampler_via_with_seen() {
        // A sampler that already ingested 1000 arrivals (e.g. borrowed
        // from a fleet): with_seen restores the count/sum accounting.
        let spec: SamplerSpec = "--window seq --n 100 --mode wor --k 16 --seed 5"
            .parse()
            .expect("spec");
        let mut pre_fed = spec.build::<u64>().expect("builds");
        pre_fed.insert_batch(&(0..1_000u64).collect::<Vec<_>>());
        let agg = SeqAggregator::from_sampler(pre_fed, 100).with_seen(1_000);
        assert_eq!(agg.count(), 100);
        let est = agg.estimate().expect("nonempty");
        assert_eq!(est.count, 100.0);
        assert!(est.sum > 0.0, "sum reflects the full window, not 0");
    }

    #[test]
    fn seq_from_spec_rejects_other_windows() {
        let ts = "--window ts --w 9 --mode wor".parse().expect("spec");
        assert!(SeqAggregator::from_spec(&ts).is_err());
        let ts2 = "--window seq --n 9 --mode wor".parse().expect("spec");
        assert!(TsAggregator::from_spec(&ts2, 0.1).is_err());
    }

    #[test]
    fn ts_aggregator_combines_counter_and_sampler() {
        let mut a = TsAggregator::new(16, 8, 0.1, SmallRng::seed_from_u64(2));
        for tick in 0..100u64 {
            a.advance_time(tick);
            a.insert(tick % 5);
            a.insert(tick % 5 + 10);
        }
        // 16 ticks × 2 arrivals = 32 active.
        let est = a.estimate().expect("nonempty");
        assert!(
            (est.count - 32.0).abs() <= 0.1 * 32.0 + 1.0,
            "count {}",
            est.count
        );
        assert!(est.mean > 0.0 && est.sum > 0.0);
    }

    #[test]
    fn ts_advance_and_insert_matches_per_element_feeding() {
        let mut batched = TsAggregator::new(8, 4, 0.1, SmallRng::seed_from_u64(3));
        let mut single = TsAggregator::new(8, 4, 0.1, SmallRng::seed_from_u64(3));
        for tick in 0..60u64 {
            let values = [tick, tick + 1, tick + 2];
            batched.advance_and_insert(tick, &values);
            single.advance_time(tick);
            for v in values {
                single.insert(v);
            }
        }
        assert_eq!(batched.count_estimate(), single.count_estimate());
        assert_eq!(batched.memory_words(), single.memory_words());
    }

    #[test]
    fn ts_empty_window_returns_none() {
        let mut a = TsAggregator::new(4, 3, 0.2, SmallRng::seed_from_u64(3));
        assert!(a.estimate().is_none());
        a.advance_time(0);
        a.insert(5);
        a.advance_time(100);
        assert!(a.estimate().is_none());
        assert_eq!(a.count_estimate(), 0);
    }

    #[test]
    fn quantile_bounds_checked() {
        let vals = [5u64, 1, 9, 3];
        assert_eq!(sample_quantile(&vals, 0.0), 1);
        assert_eq!(sample_quantile(&vals, 1.0), 9);
        // Even-length sample: position 0.5·3 = 1.5 rounds away from zero.
        assert_eq!(sample_quantile(&vals, 0.5), 5);
    }

    #[test]
    #[should_panic]
    fn quantile_rejects_out_of_range() {
        sample_quantile(&[1], 1.5);
    }

    #[test]
    fn memory_stays_sublinear() {
        let mut a = TsAggregator::new(1024, 8, 0.1, SmallRng::seed_from_u64(4));
        for tick in 0..4096u64 {
            a.advance_time(tick);
            for _ in 0..4 {
                a.insert(tick);
            }
        }
        // Window holds 4096 elements of 3 words if buffered; the aggregator
        // must be far below that.
        assert!(a.memory_words() < 4096, "memory {}", a.memory_words());
    }
}
