//! Sequence-based (fixed-size) windows — §2 of the paper.
//!
//! The window is the last `n` arrivals. Both samplers rest on the
//! *equivalent-width partition* idea (§1.3.1): the stream is cut into
//! buckets `B(in, (i+1)n)` of exactly the window size; at any moment the
//! window intersects at most the most recent *complete* bucket `U` and the
//! *partial* bucket `V` still being filled, and a window sample can be
//! assembled from just the per-bucket reservoir samples:
//!
//! * with replacement ([`SeqSamplerWr`], Theorem 2.1): if `U`'s sample is
//!   not expired it *is* the window sample; otherwise `V`'s sample is.
//! * without replacement ([`SeqSamplerWor`], Theorem 2.2): keep the
//!   non-expired part of `U`'s k-sample and top it up with a random
//!   same-size subset of `V`'s k-sample.
//!
//! Both use `O(k)` words, deterministically. [`reference`](mod@reference) keeps the
//! per-arrival constructions they are tested and benchmarked against.

pub mod reference;
mod wor;
mod wr;

pub use wor::SeqSamplerWor;
pub use wr::SeqSamplerWr;
