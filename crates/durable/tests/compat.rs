//! Format compatibility: a durable directory written in snapshot format
//! v1 (fixed-width state records, one nested checksum per key) still
//! opens, and re-encoding it in the current format changes no sample.
//!
//! `fixtures/v1-seq-wr` holds a v1 snapshot at WAL position 4 plus seven
//! logged batches, as a format-v1 build of the CLI left them after a
//! crash (spelled in the one fault grammar, `SWSAMPLE_FAULTS`):
//!
//! ```sh
//! SWSAMPLE_FAULTS=kill=@7 swsample multi --keys 20 \
//!   --count 3000 --window seq --n 16 --k 3 --seed 9 --batch-size 256 \
//!   --show 5 --wal DIR --snapshot-every 4
//! ```
//!
//! The CLI test `v1_fixture_resumes_byte_identical` finishes that run
//! and diffs its output against an uninterrupted one.

use std::fs;
use std::path::{Path, PathBuf};

use swsample_core::Sample;
use swsample_durable::snapshot::{read_snapshot, snapshot_name, write_snapshot, SNAPSHOT_VERSION};
use swsample_durable::{DurableEngine, DurableOptions};
use swsample_stream::MultiStreamEngine;

fn fixture_copy(tag: &str) -> PathBuf {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1-seq-wr");
    let dir = std::env::temp_dir().join(format!("swsample-compat-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("mkdir");
    for entry in fs::read_dir(src).expect("fixture dir") {
        let path = entry.expect("entry").path();
        fs::copy(&path, dir.join(path.file_name().expect("file name"))).expect("copy");
    }
    dir
}

/// The format version in a snapshot's header frame (after the 8-byte
/// frame header).
fn header_version(path: &Path) -> u32 {
    let bytes = fs::read(path).expect("read snapshot");
    u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"))
}

/// The header frame's payload (after the 8-byte frame header).
fn header_payload(path: &Path) -> Vec<u8> {
    let bytes = fs::read(path).expect("read snapshot");
    let len = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
    bytes[8..8 + len].to_vec()
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

#[test]
fn v1_fixture_opens_and_reencodes_identically() {
    let dir = fixture_copy("reopen");
    assert_eq!(header_version(&dir.join(snapshot_name(4))), 1);
    // The fixture predates the single fleet store: its header records
    // the retired `soa` store token, which the reader must accept.
    assert!(
        header_payload(&dir.join(snapshot_name(4)))
            .windows(3)
            .any(|w| w == b"soa"),
        "fixture header records the legacy store token"
    );
    let mut durable =
        DurableEngine::<u64, u64>::open(&dir, DurableOptions::default()).expect("open v1 fixture");
    assert_eq!(
        durable.next_seq(),
        7,
        "v1 snapshot at 4 plus 3 replayed records"
    );
    let recovered = fleet_samples(durable.engine());
    assert!(!recovered.is_empty());
    let path = durable.snapshot().expect("current-format snapshot");
    assert_eq!(header_version(&path), SNAPSHOT_VERSION);
    drop(durable);
    let reopened =
        DurableEngine::<u64, u64>::open(&dir, DurableOptions::default()).expect("reopen");
    assert_eq!(reopened.next_seq(), 7);
    assert_eq!(fleet_samples(reopened.engine()), recovered);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn v1_states_reencode_smaller_and_round_trip() {
    let src = fixture_copy("reencode");
    let v1_path = src.join(snapshot_name(4));
    let (meta, states) = read_snapshot::<u64, u64>(&v1_path).expect("read v1");
    assert!(!states.is_empty());
    let dir = std::env::temp_dir().join(format!("swsample-compat-v2-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("mkdir");
    let v2_path = write_snapshot(&dir, &meta, |emit| {
        states.iter().try_for_each(|(key, state)| emit(key, state))
    })
    .expect("write v2");
    let (meta2, states2) = read_snapshot::<u64, u64>(&v2_path).expect("read v2");
    assert_eq!((meta2, states2), (meta, states));
    let v1_bytes = fs::metadata(&v1_path).expect("stat v1").len();
    let v2_bytes = fs::metadata(&v2_path).expect("stat v2").len();
    assert!(
        v2_bytes * 3 < v1_bytes * 2,
        "v2 snapshot {v2_bytes} B is not well under v1's {v1_bytes} B"
    );
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&src);
}
