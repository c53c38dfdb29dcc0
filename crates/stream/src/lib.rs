//! Stream substrate for the `swsample` workspace.
//!
//! The paper studies an abstract data-stream model; this crate provides the
//! concrete machinery the reproduction runs on:
//!
//! * [`event`] — the stream event model: values paired with arrival
//!   timestamps, in the two window disciplines the paper treats
//!   (sequence-based and timestamp-based).
//! * [`values`] — value generators: uniform, Zipf (self-implemented inverse
//!   CDF), round-robin, constant.
//! * [`arrivals`] — arrival processes for timestamp-based windows: steady
//!   (one item per tick), bursty (random burst sizes per tick), and the
//!   *adversarial* schedule from Lemma 3.10 (`2^{2t₀−i}` items at tick `i`)
//!   used to exhibit the `Ω(log n)` lower bound.
//! * [`graph`] — random-graph edge streams with planted triangles for the
//!   Corollary 5.3 experiments, plus exact in-window triangle counting.
//! * [`engine`] — the serving-shaped side: [`MultiStreamEngine`], a
//!   sharded registry of independent per-key window samplers built
//!   lazily from one `SamplerSpec` template, with keyed batched
//!   ingestion and fleet-level memory accounting.
//!
//! All generators are deterministic given a seed, so every experiment in
//! `EXPERIMENTS.md` is exactly reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod engine;
pub mod event;
pub mod graph;
pub mod values;

pub use arrivals::{AdversarialStream, BurstyArrivals, SteadyArrivals, TimedEvent};
pub use engine::{
    FxBuildHasher, FxHasher, MultiStreamEngine, ParallelStats, WorkerPanic, WorkerStats,
};
pub use event::{Timestamp, WindowSpec};
pub use graph::{count_triangles, Edge, EdgeStreamGen};
pub use values::{zipf_fleet_events, ConstantGen, RoundRobinGen, UniformGen, ValueGen, ZipfGen};
