//! Crash-recovery bit-identity. Crashes are simulated with the same
//! file surgery a real crash leaves behind — a torn partial record at
//! the end of the WAL, a corrupted snapshot — and recovery must rebuild
//! a fleet whose continued run is byte-for-byte the uncrashed run, at
//! any shard or thread count.

use std::fs;
use std::path::{Path, PathBuf};

use swsample_core::{FleetBackend, Sample, SamplerSpec};
use swsample_durable::{snapshot, wal, DurableEngine, DurableOptions, ResumeOverrides};
use swsample_stream::MultiStreamEngine;

const KEYS: u64 = 37;
const BATCHES: usize = 30;
const BATCH_LEN: u64 = 13;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("swsample-recovery-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn batch(b: usize) -> Vec<(u64, u64, u64)> {
    (0..BATCH_LEN)
        .map(|i| {
            let e = b as u64 * BATCH_LEN + i;
            (e % KEYS, e / 3, e.wrapping_mul(2654435761))
        })
        .collect()
}

fn fleet_samples(engine: &MultiStreamEngine<u64, u64>) -> Vec<(u64, Option<Vec<Sample<u64>>>)> {
    let mut keys = engine.keys();
    keys.sort_unstable();
    keys.into_iter()
        .map(|k| {
            let s = engine.sample_k(&k);
            (k, s)
        })
        .collect()
}

fn reference_samples(spec: &SamplerSpec) -> Vec<(u64, Option<Vec<Sample<u64>>>)> {
    let mut reference = MultiStreamEngine::<u64, u64>::with_factory(
        spec.clone(),
        4,
        swsample_baselines::spec::build::<u64>,
    )
    .expect("reference engine");
    for b in 0..BATCHES {
        reference.ingest(&batch(b));
    }
    fleet_samples(&reference)
}

fn last_wal_segment(dir: &Path) -> PathBuf {
    let segs = wal::list_segments(dir).expect("list segments");
    segs.last().expect("at least one segment").1.clone()
}

fn newest_snapshot(dir: &Path) -> PathBuf {
    let snaps = snapshot::list_snapshots(dir).expect("list snapshots");
    snaps.last().expect("at least one snapshot").1.clone()
}

/// The resume loop every harness runs: recover, learn how many batches
/// are already covered from `next_seq`, re-ingest the remainder of the
/// regenerated workload.
fn resume_and_finish(
    dir: &Path,
    overrides: ResumeOverrides,
) -> Vec<(u64, Option<Vec<Sample<u64>>>)> {
    let mut durable =
        DurableEngine::<u64, u64>::open_with(dir, DurableOptions::default(), overrides)
            .expect("recovery");
    let done = durable.next_seq() as usize;
    assert!(done <= BATCHES, "recovered more batches than were written");
    for b in done..BATCHES {
        durable.ingest(&batch(b)).unwrap();
    }
    fleet_samples(durable.engine())
}

/// Crash matrix: (threads at crash time) × (threads at resume time),
/// with a torn partial record appended to the WAL tail.
#[test]
fn torn_tail_crash_recovers_bit_identical_across_threads() {
    let spec: SamplerSpec = "--window seq --n 64 --mode wr --algo paper --k 4 --seed 900"
        .parse()
        .expect("spec");
    let expected = reference_samples(&spec);
    for crash_threads in [1usize, 2] {
        for resume_threads in [1usize, 2] {
            let tag = format!("torn-{crash_threads}-{resume_threads}");
            let dir = tmp_dir(&tag);
            let mut durable = DurableEngine::<u64, u64>::create(
                &dir,
                spec.clone(),
                4,
                crash_threads,
                FleetBackend::Auto,
                DurableOptions {
                    snapshot_every: Some(7),
                    ..DurableOptions::default()
                },
            )
            .expect("create");
            for b in 0..20 {
                durable.ingest(&batch(b)).unwrap();
            }
            // "Crash": drop without a final snapshot, then tear the log
            // tail the way an interrupted append would.
            drop(durable);
            let seg = last_wal_segment(&dir);
            let mut bytes = fs::read(&seg).expect("read segment");
            bytes.extend_from_slice(&[0x17, 0xFF, 0x00, 0xA5, 0x5A]);
            fs::write(&seg, bytes).expect("tear tail");

            let got = resume_and_finish(
                &dir,
                ResumeOverrides {
                    threads: Some(resume_threads),
                    ..ResumeOverrides::default()
                },
            );
            assert_eq!(got, expected, "case {tag} diverged");
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

/// A crash can also cut the last durable record itself: truncating the
/// final segment mid-record loses that batch, and the resume loop
/// re-ingests it from the regenerated workload.
#[test]
fn truncated_final_record_is_replayed_from_the_workload() {
    let spec: SamplerSpec = "--window ts --w 40 --mode wor --algo paper --k 3 --seed 901"
        .parse()
        .expect("spec");
    let expected = reference_samples(&spec);
    let dir = tmp_dir("trunc");
    let mut durable = DurableEngine::<u64, u64>::create(
        &dir,
        spec,
        4,
        2,
        FleetBackend::Auto,
        DurableOptions {
            snapshot_every: Some(5),
            ..DurableOptions::default()
        },
    )
    .expect("create");
    for b in 0..17 {
        durable.ingest(&batch(b)).unwrap();
    }
    drop(durable);
    let seg = last_wal_segment(&dir);
    let len = fs::metadata(&seg).expect("stat").len();
    assert!(len > 3, "final segment too small to truncate mid-record");
    let bytes = fs::read(&seg).expect("read");
    fs::write(&seg, &bytes[..len as usize - 3]).expect("truncate");

    let got = resume_and_finish(&dir, ResumeOverrides::default());
    assert_eq!(got, expected, "resume after mid-record truncation diverged");
    let _ = fs::remove_dir_all(&dir);
}

/// A corrupted newest snapshot must not poison recovery: the engine
/// falls back to the previous snapshot and replays a longer WAL suffix,
/// landing on the same bits.
#[test]
fn corrupt_snapshot_falls_back_to_older_and_stays_identical() {
    let spec: SamplerSpec = "--window seq --n 64 --mode wor --algo paper --k 4 --seed 902"
        .parse()
        .expect("spec");
    let expected = reference_samples(&spec);
    let dir = tmp_dir("snapfall");
    let mut durable = DurableEngine::<u64, u64>::create(
        &dir,
        spec,
        4,
        2,
        FleetBackend::Auto,
        DurableOptions {
            snapshot_every: Some(4),
            ..DurableOptions::default()
        },
    )
    .expect("create");
    for b in 0..18 {
        durable.ingest(&batch(b)).unwrap();
    }
    durable.sync().unwrap();
    drop(durable);
    let snap = newest_snapshot(&dir);
    let mut bytes = fs::read(&snap).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(&snap, bytes).expect("corrupt snapshot");

    let got = resume_and_finish(&dir, ResumeOverrides::default());
    assert_eq!(got, expected, "fallback recovery diverged");
    let _ = fs::remove_dir_all(&dir);
}

/// Snapshot retention: a long run keeps only the newest two snapshots
/// (WAL segments all stay), and with the newest corrupted, recovery
/// still falls back to the older one plus a longer replay.
#[test]
fn only_two_snapshots_remain_and_the_older_still_recovers() {
    let spec: SamplerSpec = "--window ts --w 40 --mode wor --algo paper --k 3 --seed 906"
        .parse()
        .expect("spec");
    let expected = reference_samples(&spec);
    let dir = tmp_dir("retention");
    let mut durable = DurableEngine::<u64, u64>::create(
        &dir,
        spec,
        4,
        2,
        FleetBackend::Auto,
        DurableOptions {
            snapshot_every: Some(3),
            ..DurableOptions::default()
        },
    )
    .expect("create");
    // The initial snapshot plus six automatic ones.
    for b in 0..19 {
        durable.ingest(&batch(b)).unwrap();
    }
    durable.sync().unwrap();
    drop(durable);
    let snaps = snapshot::list_snapshots(&dir).expect("list snapshots");
    assert_eq!(snaps.len(), 2, "superseded snapshots must be pruned");
    let snap = newest_snapshot(&dir);
    let mut bytes = fs::read(&snap).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(&snap, bytes).expect("corrupt snapshot");

    let got = resume_and_finish(&dir, ResumeOverrides::default());
    assert_eq!(got, expected, "fallback recovery after pruning diverged");
    let _ = fs::remove_dir_all(&dir);
}

/// The `corrupt-snapshot` fault produces the same situation from
/// inside the engine. `create`'s initial snapshot is the first one
/// written, so `@3` hits the newest survivor of pruning (`snap-12`)
/// and recovery must fall back to `snap-6`.
#[test]
fn corrupt_snapshot_failpoint_is_survivable() {
    let spec: SamplerSpec = "--window seq --n 64 --mode wr --algo chain --k 3 --seed 903"
        .parse()
        .expect("spec");
    let expected = reference_samples(&spec);
    let dir = tmp_dir("snapfp");
    let mut durable = DurableEngine::<u64, u64>::create(
        &dir,
        spec,
        4,
        1,
        FleetBackend::Auto,
        DurableOptions {
            snapshot_every: Some(6),
            faults: "corrupt-snapshot=@3:120".parse().expect("schedule"),
            ..DurableOptions::default()
        },
    )
    .expect("create");
    for b in 0..14 {
        durable.ingest(&batch(b)).unwrap();
    }
    durable.sync().unwrap();
    drop(durable);

    let snaps = snapshot::list_snapshots(&dir).expect("list snapshots");
    let seqs: Vec<u64> = snaps.iter().map(|(seq, _)| *seq).collect();
    assert_eq!(seqs, vec![6, 12], "pruning keeps the newest two");
    assert!(
        snapshot::read_snapshot::<u64, u64>(&snaps[1].1).is_err(),
        "the fault must corrupt the newest snapshot"
    );
    let (path, meta, _) = snapshot::latest_valid::<u64, u64>(&dir)
        .expect("scan")
        .expect("a valid snapshot");
    assert_eq!((path, meta.wal_seq), (snaps[0].1.clone(), 6));

    let got = resume_and_finish(&dir, ResumeOverrides::default());
    assert_eq!(got, expected, "fault-corrupted snapshot diverged");
    let _ = fs::remove_dir_all(&dir);
}

/// Rescale-on-resume: reopening with different shard/thread counts
/// changes nothing about the samples.
#[test]
fn rescale_on_resume_changes_nothing() {
    let spec: SamplerSpec = "--window seq --n 64 --mode wr --algo paper --k 4 --seed 904"
        .parse()
        .expect("spec");
    let expected = reference_samples(&spec);
    let cases = [
        ResumeOverrides {
            shards: Some(16),
            threads: Some(2),
        },
        ResumeOverrides {
            shards: Some(1),
            threads: Some(1),
        },
        ResumeOverrides {
            shards: Some(8),
            threads: Some(4),
        },
    ];
    for (i, overrides) in cases.into_iter().enumerate() {
        let dir = tmp_dir(&format!("rescale{i}"));
        let mut durable = DurableEngine::<u64, u64>::create(
            &dir,
            spec.clone(),
            4,
            2,
            FleetBackend::Auto,
            DurableOptions {
                snapshot_every: Some(9),
                ..DurableOptions::default()
            },
        )
        .expect("create");
        for b in 0..21 {
            durable.ingest(&batch(b)).unwrap();
        }
        durable.sync().unwrap();
        drop(durable);
        let got = resume_and_finish(&dir, overrides);
        assert_eq!(got, expected, "rescale case {i} diverged");
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Mid-stream live rescale through the durable layer: `set_shards`
/// during a logged run, with a crash after it, still recovers to the
/// reference bits (shard count is config, not sampling state).
#[test]
fn live_rescale_then_crash_recovers() {
    let spec: SamplerSpec = "--window ts --w 40 --mode wr --algo paper --k 3 --seed 905"
        .parse()
        .expect("spec");
    let expected = reference_samples(&spec);
    let dir = tmp_dir("liverescale");
    let mut durable = DurableEngine::<u64, u64>::create(
        &dir,
        spec,
        4,
        2,
        FleetBackend::Auto,
        DurableOptions {
            snapshot_every: Some(6),
            ..DurableOptions::default()
        },
    )
    .expect("create");
    for b in 0..10 {
        durable.ingest(&batch(b)).unwrap();
    }
    durable.set_shards(32).expect("rescale up");
    durable.set_threads(4);
    for b in 10..19 {
        durable.ingest(&batch(b)).unwrap();
    }
    drop(durable);
    let seg = last_wal_segment(&dir);
    let mut bytes = fs::read(&seg).expect("read segment");
    bytes.extend_from_slice(&[0xEE; 7]);
    fs::write(&seg, bytes).expect("tear tail");

    let got = resume_and_finish(&dir, ResumeOverrides::default());
    assert_eq!(got, expected, "live rescale + crash diverged");
    let _ = fs::remove_dir_all(&dir);
}
