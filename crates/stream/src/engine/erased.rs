//! The fleet's per-key store: one `Box<dyn ErasedWindowSampler>` per key.
//!
//! Fully general — any template any [`SamplerFactory`] can build,
//! including the baseline algorithm families — at the cost of one heap
//! box and one vtable dispatch per key per event. A key's box holds
//! exactly the state its sampler's theorem bounds, so the fleet's word
//! accounting is the sum of the per-key samplers' own.

use swsample_core::spec::{SamplerFactory, SamplerSpec};
use swsample_core::state::{SamplerState, StateError};
use swsample_core::{ErasedWindowSampler, Sample};

/// Per-key boxed samplers, slot-aligned with the shard's
/// [`KeyRegistry`](super::registry::KeyRegistry).
pub(crate) struct ErasedStore<T: Clone> {
    samplers: Vec<Box<dyn ErasedWindowSampler<T>>>,
    template: SamplerSpec,
    factory: SamplerFactory<T>,
}

impl<T: Clone + 'static> ErasedStore<T> {
    pub(crate) fn new(template: SamplerSpec, factory: SamplerFactory<T>) -> Self {
        Self {
            samplers: Vec::new(),
            template,
            factory,
        }
    }

    /// Materialize the next key slot with the given derived seed.
    pub(crate) fn push_key(&mut self, seed: u64) {
        let mut spec = self.template.clone();
        spec.seed = seed;
        let sampler = (self.factory)(&spec).expect("template was validated at construction");
        self.samplers.push(sampler);
    }

    /// Mutable access to one key's sampler.
    #[inline]
    pub(crate) fn sampler_mut(&mut self, slot: usize) -> &mut dyn ErasedWindowSampler<T> {
        self.samplers[slot].as_mut()
    }

    pub(crate) fn sample_k(&mut self, slot: usize) -> Option<Vec<Sample<T>>> {
        self.samplers[slot].sample_k()
    }

    pub(crate) fn sample(&mut self, slot: usize) -> Option<Sample<T>> {
        self.samplers[slot].sample()
    }

    pub(crate) fn memory_words(&self, slot: usize) -> usize {
        self.samplers[slot].memory_words()
    }

    /// One key's compact checkpoint record, or `None` when the boxed
    /// family does not support durable state (see
    /// [`swsample_core::WindowSampler::save_state`]).
    pub(crate) fn save_slot(&self, slot: usize) -> Option<SamplerState<T>> {
        self.samplers[slot].save_state()
    }

    /// Overwrite one key's state from a checkpoint record. The slot's
    /// sampler was built from the same template, so config mismatches
    /// reduce to family mismatches ([`StateError::Mismatch`]).
    pub(crate) fn restore_slot(
        &mut self,
        slot: usize,
        state: SamplerState<T>,
    ) -> Result<(), StateError> {
        self.samplers[slot].restore_state(state)
    }

    /// Store scaffolding per the §1.4 exclusions: each boxed sampler's
    /// fat pointer (2 words).
    pub(crate) fn overhead_words(&self) -> usize {
        self.samplers.len() * 2
    }
}
