//! [`DurableEngine`]: a [`MultiStreamEngine`] whose ingest batches are
//! written ahead to a [`SegmentLog`] and whose per-key states are
//! periodically snapshotted, giving bit-identical crash recovery.
//!
//! The write path is *append, then apply*: a batch reaches the
//! in-memory fleet only after its WAL record is buffered. Combined with
//! the snapshot's `wal_seq` watermark (recorded only after an fsync),
//! recovery never observes a state that is ahead of the log.
//!
//! Bit-identity holds across shard and thread counts, because per-key
//! samplers derive their RNG streams from the key and consume events in
//! batch order — the exact property the engine's
//! `save_states`/`restore_states` round-trip preserves. A resumed run
//! may therefore also *rescale*: reopen with different shard/thread
//! counts and continue, and every sample stays what it would have been.

use std::hash::Hash;
use std::path::{Path, PathBuf};

use swsample_core::fault::{FaultInjector, FaultSchedule, FaultSite};
use swsample_core::state::StateCodec;
use swsample_core::{FleetBackend, SamplerSpec};
use swsample_stream::MultiStreamEngine;

use crate::batch::{decode_batch, encode_batch};
use crate::snapshot::{self, SnapshotMeta};
use crate::wal::{SegmentLog, DEFAULT_SEGMENT_BYTES};
use crate::DurableError;

/// A keyed ingest event, matching the stream engine's batch element.
pub type Event<K, T> = (K, u64, T);

/// Exit code of the `kill` fault, so harnesses can tell an injected
/// crash (expected) from a genuine panic or error (not).
pub const CRASH_EXIT_CODE: i32 = 42;

/// Exit code of the `shutdown` fault — distinct from
/// [`CRASH_EXIT_CODE`] because the two exercise different recovery
/// paths (snapshot-only restore vs WAL replay).
pub const SHUTDOWN_EXIT_CODE: i32 = 43;

/// How many consecutive transient faults on one operation the engine
/// retries before surfacing an I/O error.
const TRANSIENT_RETRY_LIMIT: u32 = 4;

/// Tuning and fault-injection knobs for a [`DurableEngine`].
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// WAL segment-roll (and therefore fsync) threshold in bytes.
    pub segment_bytes: u64,
    /// Automatically snapshot after this many ingest batches
    /// (`None` = only on explicit [`DurableEngine::snapshot`] calls).
    pub snapshot_every: Option<u64>,
    /// Fault schedule for the durable sites (default: no faults):
    /// transient `wal-append`/`wal-fsync` errors the engine rides out
    /// with a bounded retry, and the hard `kill`, `shutdown`,
    /// `disk-full` and `corrupt-snapshot` faults. Network sites are
    /// inert here.
    pub faults: FaultSchedule,
}

impl Default for DurableOptions {
    fn default() -> Self {
        Self {
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            snapshot_every: None,
            faults: FaultSchedule::default(),
        }
    }
}

/// Overrides applied when reopening a durable fleet — the live-rescale
/// path. Fields left `None` keep the on-disk configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResumeOverrides {
    /// Rebuild with this many shards.
    pub shards: Option<usize>,
    /// Rebuild with this many worker threads.
    pub threads: Option<usize>,
}

/// A crash-recoverable, rescalable keyed sampling fleet. See the
/// [module docs](self) and the crate docs for the on-disk layout.
#[derive(Debug)]
pub struct DurableEngine<K: Clone, T: Clone> {
    engine: MultiStreamEngine<K, T>,
    wal: SegmentLog,
    dir: PathBuf,
    opts: DurableOptions,
    batches_since_snapshot: u64,
    /// Decides which appends, fsyncs and snapshots fault; its per-site
    /// counters number them within this process.
    injector: FaultInjector,
    /// Transient injected faults absorbed by the retry policy.
    transient_retries: u64,
}

impl<K, T> DurableEngine<K, T>
where
    K: StateCodec + Hash + Eq + Clone + Send + Sync + 'static,
    T: StateCodec + Clone + Send + Sync + 'static,
{
    /// Start a fresh durable fleet in `dir` (created if missing; must
    /// not already hold a WAL or snapshots). Writes an initial empty
    /// snapshot at sequence 0 so the directory always records its
    /// configuration.
    ///
    /// The sampler factory is [`swsample_baselines::spec::build`], so
    /// every spec-expressible family — paper, reservoir-l, chain,
    /// priority, priority top-k, window buffer — is durable. The
    /// one-variant [`FleetBackend`] is accepted for source compatibility
    /// and ignored.
    pub fn create(
        dir: impl Into<PathBuf>,
        template: SamplerSpec,
        shards: usize,
        threads: usize,
        _backend: FleetBackend,
        opts: DurableOptions,
    ) -> Result<Self, DurableError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        if let Some((_, path)) = snapshot::list_snapshots(&dir)?.first() {
            return Err(DurableError::Config(format!(
                "refusing to create a fresh durable fleet over existing snapshot {}",
                path.display()
            )));
        }
        let engine = MultiStreamEngine::with_threads(
            template,
            shards,
            swsample_baselines::spec::build::<T>,
            threads,
        )
        .map_err(|e| DurableError::Config(e.to_string()))?;
        let wal = SegmentLog::create(&dir, opts.segment_bytes)?;
        let injector = FaultInjector::new(opts.faults.clone());
        let mut this = Self {
            engine,
            wal,
            dir,
            opts,
            batches_since_snapshot: 0,
            injector,
            transient_retries: 0,
        };
        this.snapshot()?;
        Ok(this)
    }

    /// Recover a durable fleet from `dir`: newest fully-valid snapshot,
    /// then replay of every WAL record at or past its watermark. The
    /// result is bit-identical to the uncrashed run up to the last
    /// durable record.
    pub fn open(dir: impl Into<PathBuf>, opts: DurableOptions) -> Result<Self, DurableError> {
        Self::open_with(dir, opts, ResumeOverrides::default())
    }

    /// [`open`](Self::open) with shard/thread overrides — the
    /// rescale-on-resume path. Sample distributions are unaffected by
    /// any override.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        opts: DurableOptions,
        overrides: ResumeOverrides,
    ) -> Result<Self, DurableError> {
        let dir = dir.into();
        let (snap_path, meta, states) = snapshot::latest_valid::<K, T>(&dir)?.ok_or_else(|| {
            DurableError::Config(format!(
                "{} is not a durable fleet directory (no snapshot found)",
                dir.display()
            ))
        })?;
        let template: SamplerSpec = meta.template.parse().map_err(|e| DurableError::Corrupt {
            file: snap_path.clone(),
            detail: format!("unparseable template `{}`: {e}", meta.template),
        })?;
        let shards = overrides.shards.unwrap_or(meta.shards as usize);
        let threads = overrides.threads.unwrap_or(meta.threads as usize);
        let mut engine = MultiStreamEngine::with_threads(
            template,
            shards,
            swsample_baselines::spec::build::<T>,
            threads,
        )
        .map_err(|e| DurableError::Config(e.to_string()))?;
        engine.restore_states(states)?;
        let injector = FaultInjector::new(opts.faults.clone());
        let (wal, records) = SegmentLog::open(&dir, opts.segment_bytes)?;
        for (seq, payload) in &records {
            if *seq < meta.wal_seq {
                continue;
            }
            let batch = decode_batch::<K, T>(payload).map_err(|e| DurableError::Corrupt {
                file: dir.join("<wal>"),
                detail: format!("record {seq}: {e}"),
            })?;
            engine.ingest_parallel(&batch);
        }
        Ok(Self {
            engine,
            wal,
            dir,
            opts,
            batches_since_snapshot: 0,
            injector,
            transient_retries: 0,
        })
    }

    /// Pass one faultable operation through the transient-fault
    /// schedule at `site`, retrying boundedly: each consecutive
    /// injected failure consumes another retry until
    /// `TRANSIENT_RETRY_LIMIT` (4) is exhausted, at which point the
    /// error is surfaced as a real I/O failure.
    fn ride_out_transients(&mut self, site: FaultSite, what: &str) -> Result<(), DurableError> {
        let mut attempts = 0u32;
        while self.injector.check(site).is_some() {
            self.transient_retries += 1;
            attempts += 1;
            if attempts > TRANSIENT_RETRY_LIMIT {
                return Err(DurableError::Io(std::io::Error::other(format!(
                    "transient {what} failure persisted through {attempts} attempts (fault injection)"
                ))));
            }
        }
        Ok(())
    }

    /// Append `batch` to the WAL, apply it to the fleet, and snapshot if
    /// the automatic interval elapsed. Returns the batch's WAL sequence
    /// number. Empty batches are not logged.
    pub fn ingest(&mut self, batch: &[Event<K, T>]) -> Result<Option<u64>, DurableError> {
        if batch.is_empty() {
            return Ok(None);
        }
        let faulty = !self.injector.is_empty();
        if faulty {
            if self.injector.check(FaultSite::DiskFull).is_some() {
                return Err(DurableError::Io(std::io::Error::other(
                    "synthetic disk-full (fault injection)",
                )));
            }
            self.ride_out_transients(FaultSite::WalAppend, "WAL append")?;
        }
        let payload = encode_batch(batch);
        let seq = self.wal.append(&payload)?;
        if faulty {
            if let Some(hit) = self.injector.check(FaultSite::Kill) {
                let _ = match hit.param {
                    Some(bytes) => self.wal.inject_torn_tail(bytes),
                    None => self.wal.sync(),
                };
                eprintln!(
                    "swsample-durable: fault kill after {} appends (exit {CRASH_EXIT_CODE})",
                    hit.op + 1
                );
                std::process::exit(CRASH_EXIT_CODE);
            }
        }
        self.engine.ingest_parallel(batch);
        self.batches_since_snapshot += 1;
        if let Some(every) = self.opts.snapshot_every {
            if self.batches_since_snapshot >= every.max(1) {
                self.snapshot()?;
            }
        }
        if faulty {
            if let Some(hit) = self.injector.check(FaultSite::Shutdown) {
                // Unlike the kill (which exits *before* apply, leaving
                // un-applied durable records for replay), this takes the
                // orderly exit path — final snapshot, then a distinct
                // exit code.
                self.close()?;
                eprintln!(
                    "swsample-durable: fault shutdown after {} appends (exit {SHUTDOWN_EXIT_CODE})",
                    hit.op + 1
                );
                std::process::exit(SHUTDOWN_EXIT_CODE);
            }
        }
        Ok(Some(seq))
    }

    /// Graceful shutdown: fsync the WAL and write a final snapshot, so
    /// a reopen restores from the snapshot alone with no replay. This
    /// is what SIGINT handlers and server shutdown call; dropping the
    /// engine without it is still safe (crash recovery replays the
    /// log) but leaves replay work for the next open.
    pub fn close(&mut self) -> Result<PathBuf, DurableError> {
        self.snapshot()
    }

    /// Fsync the WAL, then stream a snapshot of every key's state with
    /// the post-sync sequence watermark, shard by shard, straight to
    /// disk. Atomic: a crash mid-write leaves the previous snapshot as
    /// the recovery point. Only the newest
    /// [`SNAPSHOTS_KEPT`](snapshot::SNAPSHOTS_KEPT) snapshots remain.
    pub fn snapshot(&mut self) -> Result<PathBuf, DurableError> {
        self.ride_out_transients(FaultSite::WalFsync, "WAL fsync")?;
        self.wal.sync()?;
        let meta = SnapshotMeta {
            template: self.engine.template().to_string(),
            shards: self.engine.num_shards() as u64,
            threads: self.engine.num_threads() as u64,
            wal_seq: self.wal.next_seq(),
            keys: self.engine.num_keys() as u64,
        };
        let path = snapshot::write_snapshot(&self.dir, &meta, |emit| {
            self.engine.for_each_state(|key, state| emit(key, &state))
        })?;
        if let Some(hit) = self.injector.check(FaultSite::CorruptSnapshot) {
            let offset = hit.param.unwrap_or(0);
            let mut bytes = std::fs::read(&path)?;
            if !bytes.is_empty() {
                let at = (offset as usize).min(bytes.len() - 1);
                bytes[at] ^= 0xFF;
                std::fs::write(&path, bytes)?;
                eprintln!(
                    "swsample-durable: fault corrupted snapshot byte {offset} in {}",
                    path.display()
                );
            }
        }
        self.batches_since_snapshot = 0;
        Ok(path)
    }

    /// Flush and fsync the WAL without snapshotting — everything
    /// ingested so far becomes durable (recoverable by replay).
    pub fn sync(&mut self) -> Result<(), DurableError> {
        self.ride_out_transients(FaultSite::WalFsync, "WAL fsync")?;
        self.wal.sync()
    }

    /// Transient injected append/fsync faults absorbed by the bounded
    /// retry policy so far — the server surfaces this as `wal_retries`.
    pub fn transient_retries(&self) -> u64 {
        self.transient_retries
    }

    /// Live rescale: snapshot-remap-restore the fleet onto a new shard
    /// count, mid-stream, with no change to any sample distribution.
    pub fn set_shards(&mut self, shards: usize) -> Result<(), DurableError> {
        self.engine.set_shards(shards)?;
        Ok(())
    }

    /// Resize the worker pool used for parallel ingestion.
    pub fn set_threads(&mut self, threads: usize) {
        self.engine.set_threads(threads);
    }

    /// The underlying in-memory fleet (read-only: mutating it without
    /// the WAL would break the recovery contract).
    pub fn engine(&self) -> &MultiStreamEngine<K, T> {
        &self.engine
    }

    /// The sequence number the next ingest batch will get — equals the
    /// number of batches ever logged.
    pub fn next_seq(&self) -> u64 {
        self.wal.next_seq()
    }

    /// The durable directory this fleet lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("swsample-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn template() -> SamplerSpec {
        "--window seq --n 32 --mode wr --algo paper --k 3 --seed 11"
            .parse()
            .expect("template")
    }

    fn batches(total: usize) -> Vec<Vec<Event<u64, u64>>> {
        (0..total)
            .map(|b| {
                (0..7u64)
                    .map(|i| {
                        let e = (b as u64) * 7 + i;
                        (e % 13, e, e * 31)
                    })
                    .collect()
            })
            .collect()
    }

    fn fleet_samples(
        engine: &MultiStreamEngine<u64, u64>,
    ) -> Vec<(u64, Option<Vec<swsample_core::Sample<u64>>>)> {
        let mut keys = engine.keys();
        keys.sort_unstable();
        keys.into_iter()
            .map(|k| {
                let s = engine.sample_k(&k);
                (k, s)
            })
            .collect()
    }

    #[test]
    fn reopen_after_clean_shutdown_is_bit_identical() {
        let dir = tmp_dir("clean");
        let mut reference =
            MultiStreamEngine::<u64, u64>::new(template()).expect("reference engine");
        let mut durable = DurableEngine::<u64, u64>::create(
            &dir,
            template(),
            4,
            2,
            FleetBackend::Auto,
            DurableOptions {
                snapshot_every: Some(3),
                ..DurableOptions::default()
            },
        )
        .expect("create");
        for batch in batches(10) {
            reference.ingest(&batch);
            durable.ingest(&batch).expect("ingest");
        }
        durable.sync().expect("sync");
        drop(durable);
        let reopened =
            DurableEngine::<u64, u64>::open(&dir, DurableOptions::default()).expect("open");
        assert_eq!(fleet_samples(reopened.engine()), fleet_samples(&reference));
        assert_eq!(reopened.next_seq(), 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn close_writes_a_snapshot_covering_the_whole_log() {
        let dir = tmp_dir("close");
        let mut durable = DurableEngine::<u64, u64>::create(
            &dir,
            template(),
            4,
            2,
            FleetBackend::Auto,
            DurableOptions::default(),
        )
        .expect("create");
        for batch in batches(5) {
            durable.ingest(&batch).expect("ingest");
        }
        durable.close().expect("close");
        drop(durable);
        // The final snapshot's watermark covers every logged batch, so a
        // reopen restores from it alone — no replay work pending.
        let (_, meta, _) = snapshot::latest_valid::<u64, u64>(&dir)
            .expect("scan")
            .expect("snapshot");
        assert_eq!(meta.wal_seq, 5);
        let reopened =
            DurableEngine::<u64, u64>::open(&dir, DurableOptions::default()).expect("open");
        assert_eq!(reopened.next_seq(), 5);
        assert_eq!(reopened.engine().num_keys(), 13);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_full_failpoint_fails_append_but_engine_stays_queryable() {
        let dir = tmp_dir("diskfull");
        let mut durable = DurableEngine::<u64, u64>::create(
            &dir,
            template(),
            2,
            1,
            FleetBackend::Auto,
            DurableOptions {
                faults: "disk-full=@3..".parse().expect("schedule"),
                ..DurableOptions::default()
            },
        )
        .expect("create");
        let all = batches(4);
        assert!(durable.ingest(&all[0]).is_ok());
        assert!(durable.ingest(&all[1]).is_ok());
        for batch in &all[2..] {
            let err = durable.ingest(batch).expect_err("disk full");
            assert!(matches!(err, DurableError::Io(_)), "got {err:?}");
        }
        // The failed batch was never applied; the fleet still answers.
        assert_eq!(durable.engine().num_keys(), 13);
        assert!(durable.snapshot().is_ok(), "snapshot unaffected");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_append_faults_are_retried_and_counted() {
        let dir = tmp_dir("transient");
        let mut durable = DurableEngine::<u64, u64>::create(
            &dir,
            template(),
            2,
            1,
            FleetBackend::Auto,
            DurableOptions {
                faults: "seed=3,wal-append=1/3,wal-fsync=1/3"
                    .parse()
                    .expect("schedule"),
                ..DurableOptions::default()
            },
        )
        .expect("create");
        let mut reference =
            MultiStreamEngine::<u64, u64>::new(template()).expect("reference engine");
        for batch in batches(40) {
            reference.ingest(&batch);
            durable
                .ingest(&batch)
                .expect("transient faults must be absorbed");
        }
        durable.close().expect("close under fsync faults");
        assert!(
            durable.transient_retries() > 0,
            "a 1/3 schedule over 40 appends must inject"
        );
        // Exactly-once under transient faults: retries never double-apply.
        assert_eq!(fleet_samples(durable.engine()), fleet_samples(&reference));
        drop(durable);
        let reopened =
            DurableEngine::<u64, u64>::open(&dir, DurableOptions::default()).expect("open");
        assert_eq!(fleet_samples(reopened.engine()), fleet_samples(&reference));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_fault_storm_exhausts_the_retry_budget() {
        let dir = tmp_dir("exhaust");
        let mut durable = DurableEngine::<u64, u64>::create(
            &dir,
            template(),
            2,
            1,
            FleetBackend::Auto,
            DurableOptions {
                // 1/1: every append attempt faults — no retry can save it.
                faults: "wal-append=1/1".parse().expect("schedule"),
                ..DurableOptions::default()
            },
        )
        .expect("create");
        let err = durable.ingest(&batches(1)[0]).expect_err("must exhaust");
        assert!(
            matches!(&err, DurableError::Io(e) if e.to_string().contains("transient")),
            "got {err:?}"
        );
        // The first attempt plus every retry the budget allows.
        assert_eq!(
            durable.transient_retries(),
            u64::from(TRANSIENT_RETRY_LIMIT) + 1
        );
        // The failed batch never reached the WAL or the fleet.
        assert_eq!(durable.next_seq(), 0);
        assert_eq!(durable.engine().num_keys(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_existing_directory() {
        let dir = tmp_dir("exists");
        let durable = DurableEngine::<u64, u64>::create(
            &dir,
            template(),
            2,
            1,
            FleetBackend::Auto,
            DurableOptions::default(),
        )
        .expect("create");
        drop(durable);
        assert!(matches!(
            DurableEngine::<u64, u64>::create(
                &dir,
                template(),
                2,
                1,
                FleetBackend::Auto,
                DurableOptions::default(),
            ),
            Err(DurableError::Config(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn initial_snapshot_records_config() {
        let dir = tmp_dir("config");
        let durable = DurableEngine::<u64, u64>::create(
            &dir,
            template(),
            8,
            4,
            FleetBackend::Auto,
            DurableOptions::default(),
        )
        .expect("create");
        drop(durable);
        let (_, meta, states) = snapshot::latest_valid::<u64, u64>(&dir)
            .expect("scan")
            .expect("snapshot");
        assert!(states.is_empty());
        assert_eq!(meta.template, template().to_string());
        assert_eq!(meta.shards, 8);
        assert_eq!(meta.threads, 4);
        assert_eq!(meta.wal_seq, 0);
        assert_eq!(meta.keys, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
