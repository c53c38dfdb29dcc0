//! # swsample-core — optimal sampling from sliding windows
//!
//! From-scratch implementation of
//!
//! > Braverman, Ostrovsky, Zaniolo. *Optimal sampling from sliding windows.*
//! > PODS 2009 / J. Comput. Syst. Sci. 78(1):260–272 (2012).
//!
//! The paper gives the first algorithms for maintaining uniform random
//! samples over sliding windows whose memory bounds are **deterministic**
//! (worst-case), not merely expected or with-high-probability — closing the
//! gap left open by Babcock–Datar–Motwani (SODA'02) for all four problem
//! variants:
//!
//! | sampler | window | replacement | bound | paper |
//! |---|---|---|---|---|
//! | [`seq::SeqSamplerWr`]  | last `n` arrivals | with    | `O(k)`       | Thm 2.1 |
//! | [`seq::SeqSamplerWor`] | last `n` arrivals | without | `O(k)`       | Thm 2.2 |
//! | [`ts::TsSamplerWr`]    | last `t₀` ticks   | with    | `O(k log n)` | Thm 3.9 |
//! | [`ts::TsSamplerWor`]   | last `t₀` ticks   | without | `O(k log n)` | Thm 4.4 |
//!
//! All samplers implement [`WindowSampler`] and word-exact
//! [`MemoryWords`] accounting (§1.4's cost model), so the deterministic
//! bounds are directly assertable — and asserted, in this crate's tests.
//!
//! For embedding, the concrete types need not be named at all: a
//! [`spec::SamplerSpec`] is a plain-data description of any sampler in
//! the workspace, and [`SamplerSpec::build`](spec::SamplerSpec::build)
//! returns it as a boxed [`ErasedWindowSampler`] — the object-safe,
//! batch-first companion of [`WindowSampler`] that heterogeneous fleets
//! (the multi-stream engine in `swsample-stream`, the CLI) are written
//! against.
//!
//! The building blocks are public as well: reservoir sampling over
//! insertion-only streams ([`reservoir`], Vitter's Algorithm R and Li's
//! Algorithm L), the covering decomposition and implicit-event machinery of
//! §3 ([`ts`]), and the [`track::SampleTracker`] hook that realizes the
//! Theorem 5.1 transfer of sampling-based algorithms onto sliding windows
//! (used by `swsample-apps` for frequency moments, entropy, and triangle
//! counting).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod erased;
pub mod fault;
mod memory;
pub mod reservoir;
pub mod rng;
pub mod rngutil;
mod sample;
pub mod seq;
pub mod skip;
pub mod spec;
pub mod state;
pub mod track;
mod traits;
pub mod ts;

pub use erased::ErasedWindowSampler;
pub use fault::{FaultInjector, FaultSchedule, FaultSite};
pub use memory::MemoryWords;
pub use sample::Sample;
pub use spec::{FleetBackend, SamplerSpec, SpecError};
pub use state::{SamplerState, StateCodec, StateError};
pub use traits::WindowSampler;
