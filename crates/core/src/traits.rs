//! The common sampler interface.

use crate::memory::MemoryWords;
use crate::sample::Sample;
use crate::state::{SamplerState, StateError};

/// A uniform random sampler over a sliding window.
///
/// The protocol is: optionally [`advance_time`](WindowSampler::advance_time)
/// (timestamp windows only — sequence windows ignore it), then
/// [`insert`](WindowSampler::insert) each arriving element, and at any point
/// draw the current sample(s).
///
/// Queries are pure: [`sample`](WindowSampler::sample) and
/// [`sample_k`](WindowSampler::sample_k) take `&self`, and an answer is a
/// function of the sampler's state and clock. The families that draw at
/// query time (the implicit events of §3, the §4 lane extension, the
/// seq-WOR top-up) take those draws from
/// [`query_rng`](crate::rngutil::query_rng), which never advances the
/// sampler's own generator. So a query changes no later sample and no
/// checkpoint record, and repeating a query with no arrival and no clock
/// move returns the same answer.
///
/// This is the only sampler interface, and it is dyn-compatible: fleets
/// hold `Box<dyn ErasedWindowSampler<T>>`, where
/// [`ErasedWindowSampler`](crate::ErasedWindowSampler) is the `Send +
/// Sync` marker over this trait and declares no methods of its own.
pub trait WindowSampler<T>: MemoryWords {
    /// Move the clock forward to `now`, expiring elements. No-op for
    /// sequence-based windows.
    ///
    /// # Panics
    /// Panics if `now` is smaller than a previously supplied time.
    fn advance_time(&mut self, now: u64) {
        let _ = now;
    }

    /// Insert an arriving element (stamped with the current clock for
    /// timestamp windows).
    fn insert(&mut self, value: T);

    /// Insert a run of arrivals at once (all stamped with the current
    /// clock for timestamp windows).
    ///
    /// Semantically identical to calling [`insert`](WindowSampler::insert)
    /// once per element, in order — but implementations override it with
    /// fast paths: the skip-ahead sequence samplers advance over
    /// non-accepted arrivals wholesale (zero work per skipped element),
    /// and the timestamp samplers invert their per-engine loops for cache
    /// locality. Callers (the CLI's chunked stdin ingestion, the bench
    /// suite) should prefer this over per-element `insert` on hot paths.
    fn insert_batch(&mut self, values: &[T])
    where
        T: Clone,
    {
        for v in values {
            self.insert(v.clone());
        }
    }

    /// Advance the clock to `now`, then insert `values`, all stamped
    /// `now`. The one-call shape timestamp-window ingestion loops want:
    /// a tick's worth of arrivals becomes a single dispatch.
    ///
    /// # Panics
    /// Panics if `now` is smaller than a previously supplied time.
    fn advance_and_insert(&mut self, now: u64, values: &[T])
    where
        T: Clone,
    {
        self.advance_time(now);
        self.insert_batch(values);
    }

    /// Draw one uniform sample from the active window, or `None` if the
    /// window is empty.
    fn sample(&self) -> Option<Sample<T>>;

    /// Draw the full `k`-sample. For with-replacement samplers the entries
    /// are independent; for without-replacement samplers they are distinct
    /// elements. Returns `None` when the window is empty. Without
    /// replacement, returns all active elements when fewer than `k` are
    /// active.
    fn sample_k(&self) -> Option<Vec<Sample<T>>>;

    /// The configured number of samples `k`.
    fn k(&self) -> usize;

    /// Checkpoint the sampler's stream-dependent state (retained samples,
    /// counters, skip schedules, RNG words) as a plain-data
    /// [`SamplerState`]. Restoring it onto a freshly spec-built sampler of
    /// the same family continues the run bit-identically.
    ///
    /// Returns `None` when this configuration cannot be checkpointed —
    /// the default for hand-constructed samplers, non-`SmallRng`
    /// generators, and tracking [`SampleTracker`](crate::track)s. Every
    /// spec-built family overrides it.
    fn save_state(&self) -> Option<SamplerState<T>> {
        None
    }

    /// Overwrite this sampler's stream-dependent state from a
    /// [`SamplerState`] checkpoint. The sampler must have been freshly
    /// built from the same spec that produced the checkpoint; config
    /// (window width, `k`, seed) is not carried by the state.
    fn restore_state(&mut self, state: SamplerState<T>) -> Result<(), StateError> {
        let _ = state;
        Err(StateError::Unsupported)
    }
}
