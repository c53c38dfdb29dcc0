//! Prior sliding-window sampling methods — the paper's comparison set.
//!
//! The paper's contribution is best understood against what came before; to
//! reproduce its claims we implement every baseline it discusses:
//!
//! * [`chain`] — **chain sampling** (Babcock–Datar–Motwani, SODA'02) for
//!   sequence-based windows: expected `O(k)` memory but only a *randomized*
//!   bound — the successor chain length is a random variable.
//! * [`priority`] — **priority sampling** (Babcock–Datar–Motwani) for
//!   timestamp-based windows: expected `O(k log n)` memory, again
//!   randomized.
//! * [`priority_topk`] — the Gemulla–Lehner (SIGMOD'08) extension keeping
//!   the `k` highest-priority active elements: sampling *without*
//!   replacement with expected `O(k log n)` memory.
//! * [`oversample`] — the naive **over-sampling** strategy the paper's
//!   introduction criticizes: maintain `k' > k` position samples per bucket
//!   and hope at least `k` survive; exhibits both disadvantages (a) extra
//!   cost and (b) a failure probability that never vanishes.
//! * [`window_buffer`] — the trivial exact method (Zhang et al.): buffer the
//!   whole window, `O(n)` memory; ground truth in tests.
//! * [`vitter`] — plain reservoir sampling over the entire stream (no
//!   window); the reference point for Question 1.2 ("is sampling from
//!   sliding windows harder than from streams?"). Its Algorithm L
//!   sampler is core's `StreamReservoir`, re-exported.
//!
//! Every baseline implements the same [`swsample_core::WindowSampler`] and
//! [`swsample_core::MemoryWords`] traits as the paper's samplers, so the
//! experiment harness can sweep them interchangeably — and all of them are
//! constructible declaratively through [`spec::build`], the full
//! [`swsample_core::spec::SamplerSpec`] factory covering baseline and
//! paper algorithms alike. The point the
//! experiments make (E6): for the baselines, `memory_words()` is a random
//! variable whose maximum grows with the stream; for the paper's samplers it
//! has a hard deterministic ceiling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod oversample;
pub mod priority;
pub mod priority_topk;
pub mod spec;
pub mod vitter;
pub mod window_buffer;

pub use chain::ChainSampler;
pub use oversample::OverSampler;
pub use priority::PrioritySampler;
pub use priority_topk::PriorityTopK;
pub use vitter::{NaiveStreamReservoir, StreamReservoir};
pub use window_buffer::WindowBuffer;
