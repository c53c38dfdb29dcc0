//! Timestamp-based windows — §3 and §4 of the paper.
//!
//! An element with timestamp `T(p)` is active at time `t` iff
//! `t − T(p) < t₀`. The number of active elements `n = n(t)` is *unknown*
//! (it cannot even be approximated in sublinear space, Datar et al.), which
//! is what makes this model hard: a uniform sample over a domain of unknown
//! size must be produced.
//!
//! The machinery, bottom-up:
//!
//! * `bucket` — bucket structures `BS(x, y)`: index range, first-element
//!   timestamp, and *two* independent uniform samples `R`, `Q` (Q feeds the
//!   implicit-event generator).
//! * `covering` — the covering decomposition `ζ(a, b)` (Definition 3.1)
//!   and its `Incr` maintenance operator (Lemma 3.4): an `O(log)`-length
//!   list of dyadic buckets covering a stream suffix.
//! * `engine` — the single-sample engine: state maintenance per Lemma 3.5
//!   (case 1 "all covered elements active" / case 2 "one straddling
//!   bucket"), plus the implicit-event construction of Lemmas 3.6–3.8 that
//!   samples uniformly although the window size is unknown.
//! * `bank` — [`TsEngineBank`]: `k` single-sample engines *fused* over one
//!   shared covering decomposition with per-lane sample slots.
//! * `wr` — [`TsSamplerWr`]: `k` independent samples (Theorem 3.9 /
//!   `O(k log n)` for general `k`), on the fused bank.
//! * `wor` — [`TsSamplerWor`]: the §4 black-box reduction from sampling
//!   without replacement to `k` delayed with-replacement samplers
//!   (Lemmas 4.1–4.3, Theorem 4.4), on one bank at uniform delay `k−1`
//!   with query-time lane extension.
//! * `independent` — the per-engine reference types, for equivalence
//!   tests and benchmark baselines only.
//!
//! `bucket`, `covering` and `engine` are the reference side: only
//! `independent` and the tests that hold the bank to it use them. The
//! samplers a spec builds run on the bank alone, queries included.
//!
//! # Design note: why boundary sharing preserves Theorem 3.9 independence
//!
//! Theorem 3.9's `k` engines are independent because they share no
//! randomness. Fusing them into one bank looks like it couples them — but
//! the coupling is confined to state that was never random. Split an
//! engine's state into two parts:
//!
//! 1. **The skeleton**: bucket boundaries `(a, b)`, first-timestamps
//!    `T(p_a)`, and the Lemma 3.5 case tag. Every transition touching the
//!    skeleton — the `Incr` walk's merge-or-keep decision (a `⌊log⌋`
//!    comparison on index ranges, Lemma 3.4), `split_straddle`, head
//!    discard, total expiry — is a *deterministic* function of the arrival
//!    indices, their timestamps, and the clock. `k` engines fed the same
//!    stream therefore hold byte-identical skeletons forever; storing the
//!    skeleton once is pure de-duplication, with no distributional
//!    content.
//! 2. **The sample slots** `R`, `Q` per bucket: the only randomized state.
//!    The bank keeps these per-lane and resolves every merge with per-lane
//!    fair coins — bit positions of shared `next_u64` words, no bit read
//!    by two lanes — so lane `i`'s slot process is exactly the solo
//!    engine's Markov chain (marginal correctness), and distinct lanes'
//!    coins are mutually independent (joint correctness: the `k` samples
//!    are independent, as Theorem 3.9 requires). Query-time draws (bucket
//!    selection, the Lemma 3.6–3.8 implicit events) come from a per-query
//!    stream ([`crate::rngutil::query_rng`]), disjoint draws per lane.
//!
//! The equivalence is audited, not just argued: the per-engine
//! construction is kept as the reference types in [`independent`] and
//! `tests/ts_bank_equivalence.rs` asserts lockstep skeleton equality at
//! every tick plus per-lane and cross-lane chi-square agreement at the
//! seed thresholds.

pub mod bank;
pub(crate) mod bucket;
pub(crate) mod covering;
pub(crate) mod engine;
pub mod independent;
mod wor;
mod wr;

pub use bank::TsEngineBank;
pub use engine::TsEngine;
pub use wor::TsSamplerWor;
pub use wr::TsSamplerWr;
