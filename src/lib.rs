//! # swsample — optimal sampling from sliding windows
//!
//! Facade crate for the `swsample` workspace, a from-scratch Rust
//! implementation of
//!
//! > Braverman, Ostrovsky, Zaniolo. *Optimal sampling from sliding windows.*
//! > PODS 2009 / J. Comput. Syst. Sci. 78(1):260–272 (2012).
//!
//! It re-exports the public API of every sub-crate:
//!
//! * [`core`] — the paper's samplers: [`core::seq::SeqSamplerWr`]
//!   (Theorem 2.1), [`core::seq::SeqSamplerWor`] (Theorem 2.2),
//!   [`core::ts::TsSamplerWr`] (§3, Theorem 3.9), and
//!   [`core::ts::TsSamplerWor`] (§4, Theorem 4.4).
//! * [`stream`] — workload generators, timestamp models, and the
//!   [`stream::MultiStreamEngine`] keyed fleet of per-key windows.
//! * [`baselines`] — the prior methods the paper improves on.
//! * [`apps`] — §5 applications (frequency moments, entropy, triangles).
//! * [`stats`] — the statistical test machinery used for validation.
//! * [`durable`] — write-ahead logging, O(k) snapshots, and bit-identical
//!   crash recovery for the keyed fleet ([`durable::Fleet`]).
//! * [`server`] — a std-only TCP serving layer over the fleet
//!   ([`server::Server`]): length-prefixed crc-framed wire protocol,
//!   batched ingest with backpressure, continuous queries, and the
//!   [`server::Client`] / load-generator pair.
//!
//! ## Quickstart
//!
//! ```
//! use swsample::core::seq::SeqSamplerWr;
//! use swsample::core::WindowSampler;
//! use rand::SeedableRng;
//!
//! // Keep k = 4 uniform samples (with replacement) over the last 1000 items.
//! let rng = rand::rngs::SmallRng::seed_from_u64(7);
//! let mut sampler = SeqSamplerWr::new(1000, 4, rng);
//! for x in 0..10_000u64 {
//!     sampler.insert(x);
//! }
//! let samples = sampler.sample_k().expect("window is non-empty");
//! assert_eq!(samples.len(), 4);
//! for s in &samples {
//!     assert!(*s.value() >= 9_000, "every sample lies in the window");
//! }
//! ```
#![forbid(unsafe_code)]

// Compile README code blocks as doctests, so the documented embedding
// examples (quickstart, SamplerSpec, MultiStreamEngine) cannot rot.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
mod readme_doctests {}

pub use swsample_apps as apps;
pub use swsample_baselines as baselines;
pub use swsample_core as core;
pub use swsample_counting as counting;
pub use swsample_durable as durable;
pub use swsample_query as query;
pub use swsample_server as server;
pub use swsample_stats as stats;
pub use swsample_stream as stream;
