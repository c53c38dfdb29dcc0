//! The object-safe fleet surface: [`ErasedWindowSampler`].
//!
//! [`WindowSampler`] is the only sampler interface, and it is
//! dyn-compatible. `ErasedWindowSampler` adds no methods: it is the
//! `Send + Sync` marker that fleets (code owning many windows of
//! different concrete types) box their samplers behind, blanket-
//! implemented for every thread-safe `WindowSampler<T>`. The supertrait
//! methods — batch-first ingestion, `k`-sample queries, word-exact
//! memory accounting, checkpoints — resolve on the `dyn` type without
//! importing [`WindowSampler`]:
//!
//! ```
//! use rand::{rngs::SmallRng, SeedableRng};
//! use swsample_core::seq::SeqSamplerWr;
//! use swsample_core::ts::TsSamplerWor;
//! use swsample_core::ErasedWindowSampler;
//!
//! // A heterogeneous fleet: different algorithms, one element type.
//! let mut fleet: Vec<Box<dyn ErasedWindowSampler<u64>>> = vec![
//!     Box::new(SeqSamplerWr::new(100, 2, SmallRng::seed_from_u64(1))),
//!     Box::new(TsSamplerWor::new(60, 4, SmallRng::seed_from_u64(2))),
//! ];
//! for s in &mut fleet {
//!     s.advance_and_insert(1, &[10, 20, 30]);
//!     assert!(s.sample_k().is_some());
//! }
//! let total_words: usize = fleet.iter().map(|s| s.memory_words()).sum();
//! assert!(total_words > 0);
//! ```

use crate::memory::MemoryWords;
use crate::traits::WindowSampler;

/// A [`WindowSampler`] that may cross and be shared between threads —
/// what `Box<dyn ErasedWindowSampler<T>>` fleets hold.
///
/// `Send + Sync` are supertraits because fleets shard across worker
/// threads (`MultiStreamEngine`'s parallel ingestion) and shards sit
/// behind `RwLock`s, so a sampler may be *referenced* from several
/// threads at once (`&self` access only ever happens under a read guard;
/// all mutation takes the write guard). Every sampler in this workspace
/// owns plain data plus a `SmallRng`, so all of them qualify; a
/// hypothetical non-thread-safe sampler (e.g. one holding `Rc` state)
/// keeps the generic interface and simply cannot be erased.
pub trait ErasedWindowSampler<T: Clone>: WindowSampler<T> + Send + Sync {}

impl<T: Clone, S: WindowSampler<T> + Send + Sync> ErasedWindowSampler<T> for S {}

/// Boxed erased samplers report their inner footprint, so fleets
/// (`Vec<Box<dyn ErasedWindowSampler<T>>>`, the multi-stream engine's
/// shards) sum through the existing [`MemoryWords`] machinery.
impl<T: Clone> MemoryWords for Box<dyn ErasedWindowSampler<T>> {
    fn memory_words(&self) -> usize {
        self.as_ref().memory_words()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reservoir::StreamReservoir;
    use crate::seq::{SeqSamplerWor, SeqSamplerWr};
    use crate::ts::{TsSamplerWor, TsSamplerWr};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn blanket_impl_erases_any_window_sampler() {
        let mut fleet: Vec<Box<dyn ErasedWindowSampler<u64>>> = vec![
            Box::new(SeqSamplerWr::new(10, 2, SmallRng::seed_from_u64(1))),
            Box::new(SeqSamplerWor::new(10, 2, SmallRng::seed_from_u64(2))),
            Box::new(TsSamplerWr::new(5, 2, SmallRng::seed_from_u64(3))),
        ];
        for s in &mut fleet {
            assert_eq!(s.k(), 2);
            assert!(s.sample().is_none(), "empty before arrivals");
            s.advance_and_insert(1, &[7, 8, 9]);
            s.insert(10);
            s.insert_batch(&[11, 12]);
            assert_eq!(s.sample_k().expect("nonempty").len(), 2);
            assert!(s.memory_words() > 0);
        }
        let v: Vec<Box<dyn ErasedWindowSampler<u64>>> = fleet;
        assert!(MemoryWords::memory_words(&v) > 0, "Vec<Box<dyn ...>> sums");
    }

    /// Equal seeds and streams give byte-identical samples, words and
    /// checkpoints through the concrete type and through the box, for
    /// every family `SamplerSpec::build` owns.
    fn assert_erased_matches<S>(make: impl Fn() -> S)
    where
        S: WindowSampler<u64> + Send + Sync + 'static,
    {
        let mut concrete = make();
        let mut erased: Box<dyn ErasedWindowSampler<u64>> = Box::new(make());
        let values: Vec<u64> = (0..200).collect();
        for (tick, chunk) in values.chunks(7).enumerate() {
            concrete.advance_and_insert(tick as u64, chunk);
            erased.advance_and_insert(tick as u64, chunk);
        }
        assert_eq!(concrete.sample_k(), erased.sample_k());
        assert_eq!(concrete.memory_words(), erased.memory_words());
        assert_eq!(concrete.save_state(), erased.save_state());
    }

    #[test]
    fn erased_matches_concrete_behaviour_exactly() {
        let rng = || SmallRng::seed_from_u64(9);
        assert_erased_matches(|| SeqSamplerWr::new(16, 3, rng()));
        assert_erased_matches(|| SeqSamplerWor::new(16, 3, rng()));
        assert_erased_matches(|| TsSamplerWr::new(5, 3, rng()));
        assert_erased_matches(|| TsSamplerWor::new(5, 3, rng()));
        assert_erased_matches(|| StreamReservoir::new(3, rng()));
    }
}
