//! Durability for the keyed fleet engine: a write-ahead segment log,
//! `O(k)`-per-key snapshots, bit-identical crash recovery, and live
//! rescale.
//!
//! The repo's core invariant makes durability cheap: every sampler is a
//! pure function of `(spec, event log)`, with per-key RNG seeds derived
//! from the key alone. So a crash-consistent replica needs exactly two
//! artifacts — a checkpoint of per-key sampler states
//! ([`MultiStreamEngine::save_states`], `O(k)` words per key) and the
//! suffix of ingest batches since that checkpoint (the WAL). Replaying
//! the suffix into the restored fleet reproduces the uncrashed run **bit
//! for bit**, at any shard count, at any thread count.
//!
//! The layout on disk, all little-endian, every record CRC-framed
//! (`[len u32][crc32 u32][payload]`, see [`frame`]):
//!
//! * **WAL** ([`wal::SegmentLog`]) — `wal-<index>.seg` files of framed
//!   `[seq u64][batch]` records, one per *ingest batch* (batch
//!   boundaries are replay-significant: some samplers draw RNG in
//!   batch-major order). Appends go to the active segment; the file is
//!   fsynced when it rolls over the segment-size threshold and on
//!   [`snapshot`](Fleet::snapshot). A torn final record
//!   in the **final** segment is tolerated at recovery (the crash wrote
//!   a partial frame); torn or corrupt records anywhere else are hard
//!   errors.
//! * **Snapshots** ([`snapshot`]) — `snap-<wal_seq>.snap` files: a
//!   header frame (template spec string, fleet-store token, shard/thread counts,
//!   the first WAL seq *not* covered, key count) followed by one frame
//!   per key, `[key][state version][payload]`, whose CRC is the key's
//!   only checksum and whose [`SamplerState`](swsample_core::SamplerState)
//!   payload stores its counters as varints. Streamed shard by shard
//!   to a temp file, fsynced, then renamed — a crash mid-snapshot leaves
//!   the previous snapshot intact — and only the newest two are kept.
//!   Recovery takes the newest snapshot that validates end-to-end and
//!   silently falls back to the older one (a corrupted byte anywhere in
//!   a snapshot fails its CRC). Format-v1 snapshots still open.
//! * **Recovery** ([`Fleet::open`]) — latest valid snapshot, then each
//!   WAL record with `seq >=` the snapshot's position, streamed from the
//!   log through the same apply the live fleet ran. A record whose
//!   apply failed live fails again, is counted, and replay goes on.
//!
//! There is one fleet type: [`Fleet`] owns the in-memory
//! [`MultiStreamEngine`] and, when it is logged, the WAL behind a lock
//! that only ingest, sync, snapshot and close take — queries read the
//! engine directly. [`Fleet::start`] is where the server and the CLI's
//! `multi` make theirs: in memory, as a fresh directory, or resumed
//! (refusing a template other than the recorded one). [`DurableEngine`]
//! is another name for the same type.
//!
//! Fault injection for all of the above takes one environment variable
//! and one grammar, the seeded/counted schedule of
//! [`swsample_core::fault`] handed in as [`DurableOptions::faults`]:
//! `SWSAMPLE_FAULTS=kill=@N[:B]` crashes the process (exit code
//! [`CRASH_EXIT_CODE`]) after the `N`th WAL append, first tearing `B`
//! bytes onto the log tail, and the CI crash-recovery smoke byte-diffs
//! the resumed run's output against an uncrashed reference.
//! `shutdown`, `disk-full`, `corrupt-snapshot` and the transient
//! `wal-append`/`wal-fsync` sites use the same grammar.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod fleet;
pub mod frame;
pub mod snapshot;
pub mod wal;

pub use fleet::{
    DurableEngine, DurableOptions, Event, Fleet, ResumeOverrides, Storage, CRASH_EXIT_CODE,
    SHUTDOWN_EXIT_CODE,
};

use std::path::PathBuf;

use swsample_core::state::StateError;
#[cfg(doc)]
use swsample_stream::MultiStreamEngine;
use swsample_stream::WorkerPanic;

/// Everything that can go wrong opening, appending to, or recovering a
/// durable fleet.
#[derive(Debug)]
pub enum DurableError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A sampler state record failed to decode or apply.
    State(StateError),
    /// A durable file is structurally invalid (and not covered by the
    /// final-segment torn-tail tolerance).
    Corrupt {
        /// The offending file.
        file: PathBuf,
        /// What failed to validate.
        detail: String,
    },
    /// The on-disk configuration and the caller's disagree (e.g. a
    /// resume with a different template).
    Config(String),
    /// A batch failed to apply: a per-key sampler panicked (a key's
    /// clock running backwards, say). The fleet stays usable.
    Apply(WorkerPanic),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "durable i/o error: {e}"),
            DurableError::State(e) => write!(f, "durable state error: {e}"),
            DurableError::Corrupt { file, detail } => {
                write!(f, "corrupt durable file {}: {detail}", file.display())
            }
            DurableError::Config(msg) => write!(f, "durable config error: {msg}"),
            DurableError::Apply(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io(e) => Some(e),
            DurableError::State(e) => Some(e),
            DurableError::Apply(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<StateError> for DurableError {
    fn from(e: StateError) -> Self {
        DurableError::State(e)
    }
}
