//! Network-facing streaming ingestion for the keyed sampling fleet:
//! a std-only TCP server speaking a length-prefixed, crc32-framed
//! binary protocol, with bounded-queue backpressure, continuous
//! queries over sampled windows, and a load-generator client that
//! extends the engine's determinism contract across the wire.
//!
//! The pieces, one module each:
//!
//! * [`protocol`] — the frame grammar and message codecs (versioned
//!   hello, batched `INGEST` riding the WAL's columnar delta-varint
//!   batch record, `QUERY`, `SUBSCRIBE`, `STATS`, typed errors carrying
//!   the offending frame offset).
//! * [`server`] — the runtime: thread-per-connection transport with
//!   panic isolation, a bounded central ingest queue whose watermark
//!   pushes `BUSY` back instead of buffering unboundedly, a scheduler
//!   evaluating standing queries against snapshot-consistent shard
//!   reads, drop-oldest per-subscriber rings, and graceful shutdown
//!   that drains, fsyncs, and snapshots the WAL.
//! * [`stats`] — atomically-snapshotted per-connection and global
//!   counters behind the `STATS` frame.
//! * [`client`] — a blocking protocol client.
//! * [`loadgen`] — N-connection zipf load with latency percentiles and
//!   the byte-identical offline-replay verification.
//!
//! Determinism across the wire: per-key sampler state folds over that
//! key's own batched event subsequence, and the load generator routes
//! each key to one connection whose batches enter the server's FIFO
//! ingest queue in order — so an offline engine replaying the same
//! batches answers byte-identically, at any thread count, with or
//! without a WAL.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod stats;

pub use client::{Backoff, Client, IngestOutcome};
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use protocol::{
    ClientMsg, ErrorCode, ProtocolError, ServerMsg, SubscribeKind, MAX_MESSAGE_BYTES,
    PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig};
pub use stats::{ConnStats, EngineStats, GlobalStats, StatsSnapshot};
