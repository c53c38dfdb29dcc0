//! `O(k)`-per-key fleet snapshots: `snap-<wal_seq>.snap` files holding a
//! config header plus every key's compact sampler state.
//!
//! Format version 2 (written today) is a header frame followed by one
//! CRC frame per key, `[key][state version varint][state payload]`: the
//! frame's CRC is the only checksum, and the payload uses the varint
//! field layout of [`swsample_core::state`]. Version-1 key frames wrapped
//! a length-prefixed, separately checksummed
//! [`SamplerState::encode_record`] instead; they still decode, through
//! the same payload decoder.
//!
//! A snapshot is streamed — one reused encode buffer, one large
//! `BufWriter` — to a temp file, fsynced, and renamed into place, so a
//! crash mid-write can never damage an existing snapshot. After the
//! rename, all but the newest [`SNAPSHOTS_KEPT`] snapshots are deleted.
//! Reading validates every frame's CRC, the header version, the key
//! count, and each state payload; any failure makes the whole snapshot
//! invalid, and recovery falls back to the next older one.

use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

use swsample_core::state::{
    SamplerState, StateCodec, StateError, StateReader, StateWriter, STATE_VERSION,
};

use crate::frame::{self, FrameRead};
use crate::DurableError;

/// Version tag leading every snapshot header written today.
pub const SNAPSHOT_VERSION: u32 = 2;

/// The version whose key frames wrap a checksummed state record.
const SNAPSHOT_VERSION_V1: u32 = 1;

/// Snapshots left in a directory after each write: the newest, plus the
/// one recovery falls back to should the newest fail to validate. WAL
/// segments are all kept — replay from either snapshot needs them, and
/// [`SegmentLog::open`](crate::wal::SegmentLog::open) requires a log
/// that starts at sequence 0.
pub const SNAPSHOTS_KEPT: usize = 2;

/// Snapshot write buffer: large enough that a fleet-wide snapshot costs
/// a few dozen write syscalls, not thousands.
const WRITE_BUFFER_BYTES: usize = 1 << 20;

/// What a snapshot file decodes to: its recorded fleet configuration
/// plus every key's sampler state.
pub type SnapshotContents<K, T> = (SnapshotMeta, Vec<(K, SamplerState<T>)>);

/// The per-key callback [`write_snapshot`] hands its visitor.
pub type EmitState<'a, K, T> = dyn FnMut(&K, &SamplerState<T>) -> Result<(), DurableError> + 'a;

/// The fleet-store token every header carries after the template.
/// Older releases could keep a fleet in one of two stores and wrote
/// `erased` or `soa` here; both held bit-identical per-key state, so
/// the reader accepts either ([`LEGACY_STORE_TOKENS`]) and ignores it.
const STORE_TOKEN: &str = "erased";

/// Every store token a valid header may carry.
const LEGACY_STORE_TOKENS: [&str; 2] = ["erased", "soa"];

/// The fleet configuration a snapshot records alongside its states —
/// everything needed to rebuild the engine before restoring keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// The template spec, in its canonical `Display` form.
    pub template: String,
    /// Shard count at snapshot time.
    pub shards: u64,
    /// Worker-thread count at snapshot time.
    pub threads: u64,
    /// The first WAL sequence number **not** reflected in these states:
    /// recovery replays records with `seq >= wal_seq`.
    pub wal_seq: u64,
    /// Number of per-key state frames that follow the header.
    pub keys: u64,
}

/// Name of the snapshot covering everything before `wal_seq`. Fixed
/// width so lexicographic order is numeric order.
pub fn snapshot_name(wal_seq: u64) -> String {
    format!("snap-{wal_seq:016x}.snap")
}

fn parse_snapshot_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("snap-")?.strip_suffix(".snap")?;
    u64::from_str_radix(hex, 16).ok()
}

/// All snapshot paths in `dir`, ascending by covered WAL position.
pub fn list_snapshots(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_snapshot_name) {
            out.push((seq, entry.path()));
        }
    }
    out.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(out)
}

fn corrupt(path: &Path, detail: impl Into<String>) -> DurableError {
    DurableError::Corrupt {
        file: path.to_path_buf(),
        detail: detail.into(),
    }
}

/// Stream a snapshot to `dir`, atomically, and prune all but the newest
/// [`SNAPSHOTS_KEPT`]. Returns the final path. Overwrites an existing
/// snapshot at the same `wal_seq` (the newer states cover at least as
/// much of the log).
///
/// `visit` is called once with an emitter and must pass it every key's
/// state — exactly `meta.keys` of them, which the header has already
/// promised; any other count is a [`DurableError::Config`] and leaves
/// no snapshot behind. Each key is encoded into one reused buffer and
/// written as it arrives, so the fleet is never materialized.
pub fn write_snapshot<K: StateCodec, T: StateCodec>(
    dir: &Path,
    meta: &SnapshotMeta,
    visit: impl FnOnce(&mut EmitState<'_, K, T>) -> Result<(), DurableError>,
) -> Result<PathBuf, DurableError> {
    let tmp_path = dir.join("snap.tmp");
    let final_path = dir.join(snapshot_name(meta.wal_seq));
    if let Err(e) = write_tmp(&tmp_path, meta, visit) {
        let _ = fs::remove_file(&tmp_path);
        return Err(e);
    }
    fs::rename(&tmp_path, &final_path)?;
    // Persist the rename itself.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    // The new snapshot is durable; superseded ones are only disk use.
    if let Err(e) = prune_snapshots(dir) {
        eprintln!("swsample-durable: could not prune old snapshots: {e}");
    }
    Ok(final_path)
}

fn write_tmp<K: StateCodec, T: StateCodec>(
    tmp_path: &Path,
    meta: &SnapshotMeta,
    visit: impl FnOnce(&mut EmitState<'_, K, T>) -> Result<(), DurableError>,
) -> Result<(), DurableError> {
    let file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(tmp_path)?;
    let mut out = BufWriter::with_capacity(WRITE_BUFFER_BYTES, file);
    let mut buf = StateWriter::for_state_version(STATE_VERSION);
    buf.put_u32(SNAPSHOT_VERSION);
    buf.put_len_bytes(meta.template.as_bytes());
    buf.put_len_bytes(STORE_TOKEN.as_bytes());
    buf.put_u64(meta.shards);
    buf.put_u64(meta.threads);
    buf.put_u64(meta.wal_seq);
    buf.put_u64(meta.keys);
    frame::write_frame(&mut out, buf.as_bytes())?;
    let mut written = 0u64;
    visit(&mut |key, state| {
        buf.clear();
        key.encode_state(&mut buf);
        buf.put_varint_u64(STATE_VERSION.into());
        state.encode_payload(&mut buf);
        frame::write_frame(&mut out, buf.as_bytes())?;
        written += 1;
        Ok(())
    })?;
    if written != meta.keys {
        return Err(DurableError::Config(format!(
            "snapshot header promises {} keys, the fleet produced {written}",
            meta.keys
        )));
    }
    out.flush()?;
    out.get_ref().sync_all()?;
    Ok(())
}

/// Delete all but the newest [`SNAPSHOTS_KEPT`] snapshots in `dir`.
fn prune_snapshots(dir: &Path) -> std::io::Result<()> {
    let snapshots = list_snapshots(dir)?;
    let stale = snapshots.len().saturating_sub(SNAPSHOTS_KEPT);
    for (_, path) in &snapshots[..stale] {
        fs::remove_file(path)?;
    }
    Ok(())
}

/// Read and fully validate one snapshot file (either format version).
pub fn read_snapshot<K: StateCodec, T: StateCodec + Clone>(
    path: &Path,
) -> Result<SnapshotContents<K, T>, DurableError> {
    let mut r = BufReader::new(File::open(path)?);
    let header = match frame::read_frame(&mut r)? {
        FrameRead::Frame(p) => p,
        FrameRead::Eof => return Err(corrupt(path, "empty snapshot")),
        FrameRead::Torn(detail) => return Err(corrupt(path, format!("header: {detail}"))),
    };
    let mut hr = StateReader::new(&header);
    let (version, meta) = (|| -> Result<(u32, SnapshotMeta), StateError> {
        let version = hr.get_u32()?;
        if !(SNAPSHOT_VERSION_V1..=SNAPSHOT_VERSION).contains(&version) {
            return Err(StateError::Version(version));
        }
        let template = String::from_utf8(hr.get_len_bytes()?.to_vec())
            .map_err(|_| StateError::Corrupt("non-utf8 template".into()))?;
        let store = hr.get_len_bytes()?;
        if !LEGACY_STORE_TOKENS.iter().any(|t| t.as_bytes() == store) {
            return Err(StateError::Corrupt(format!(
                "unknown fleet store token {:?}",
                String::from_utf8_lossy(store)
            )));
        }
        let shards = hr.get_u64()?;
        let threads = hr.get_u64()?;
        let wal_seq = hr.get_u64()?;
        let keys = hr.get_u64()?;
        hr.finish()?;
        Ok((
            version,
            SnapshotMeta {
                template,
                shards,
                threads,
                wal_seq,
                keys,
            },
        ))
    })()
    .map_err(|e| corrupt(path, format!("header: {e}")))?;
    if let Some(expect) =
        parse_snapshot_name(path.file_name().and_then(|n| n.to_str()).unwrap_or(""))
    {
        if expect != meta.wal_seq {
            return Err(corrupt(
                path,
                format!(
                    "file name says wal_seq {expect}, header says {}",
                    meta.wal_seq
                ),
            ));
        }
    }
    let mut states = Vec::with_capacity(meta.keys.min(1 << 20) as usize);
    for i in 0..meta.keys {
        let body = match frame::read_frame(&mut r)? {
            FrameRead::Frame(p) => p,
            FrameRead::Eof => {
                return Err(corrupt(
                    path,
                    format!("truncated: {i} of {} key frames", meta.keys),
                ))
            }
            FrameRead::Torn(detail) => {
                return Err(corrupt(path, format!("key frame {i}: {detail}")))
            }
        };
        let mut br = StateReader::new(&body);
        let entry = (|| -> Result<(K, SamplerState<T>), StateError> {
            let key = K::decode_state(&mut br)?;
            let state = if version == SNAPSHOT_VERSION_V1 {
                SamplerState::<T>::decode_record(br.get_len_bytes()?)?
            } else {
                let state_version = br.get_varint_u64()?;
                br.set_state_version(u32::try_from(state_version).unwrap_or(u32::MAX))?;
                SamplerState::<T>::decode_payload(&mut br)?
            };
            br.finish()?;
            Ok((key, state))
        })()
        .map_err(|e| corrupt(path, format!("key frame {i}: {e}")))?;
        states.push(entry);
    }
    match frame::read_frame(&mut r)? {
        FrameRead::Eof => Ok((meta, states)),
        _ => Err(corrupt(path, "trailing data after final key frame")),
    }
}

/// The newest snapshot in `dir` that validates end to end, or `None` if
/// the directory holds no snapshot at all. Invalid snapshots are skipped
/// with a warning — that is the corrupt-snapshot recovery path.
#[allow(clippy::type_complexity)]
pub fn latest_valid<K: StateCodec, T: StateCodec + Clone>(
    dir: &Path,
) -> Result<Option<(PathBuf, SnapshotMeta, Vec<(K, SamplerState<T>)>)>, DurableError> {
    let mut snapshots = list_snapshots(dir)?;
    snapshots.reverse();
    let any = !snapshots.is_empty();
    for (_, path) in snapshots {
        match read_snapshot::<K, T>(&path) {
            Ok((meta, states)) => return Ok(Some((path, meta, states))),
            Err(e) => {
                eprintln!("swsample-durable: skipping invalid snapshot: {e}");
            }
        }
    }
    if any {
        // Snapshots existed but none validated — recovery would have to
        // replay a log whose base configuration is unknown.
        return Err(DurableError::Corrupt {
            file: dir.to_path_buf(),
            detail: "every snapshot in the directory is corrupt".into(),
        });
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swsample-snap-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn demo_states(n: u64) -> Vec<(u64, SamplerState<u64>)> {
        // WindowBuffer is the simplest family to fabricate states for:
        // its payload is just a clock, an index, an rng, and a buffer.
        (0..n)
            .map(|key| {
                (
                    key,
                    SamplerState::WindowBuffer {
                        now: key,
                        next_index: key + 1,
                        rng: swsample_core::state::RngState([key, 1, 2, 3]),
                        buf: vec![swsample_core::Sample::new(key * 3, key, key)],
                    },
                )
            })
            .collect()
    }

    fn demo_meta(n: u64, wal_seq: u64) -> SnapshotMeta {
        SnapshotMeta {
            template: "--window seq --n 8 --mode wr --algo buffer --k 2 --seed 7".into(),
            shards: 4,
            threads: 2,
            wal_seq,
            keys: n,
        }
    }

    fn write_states(
        dir: &Path,
        meta: &SnapshotMeta,
        states: &[(u64, SamplerState<u64>)],
    ) -> Result<PathBuf, DurableError> {
        write_snapshot(dir, meta, |emit| {
            states.iter().try_for_each(|(key, state)| emit(key, state))
        })
    }

    #[test]
    fn round_trips_meta_and_states() {
        let dir = tmp_dir("roundtrip");
        let states = demo_states(5);
        let meta = demo_meta(5, 42);
        let path = write_states(&dir, &meta, &states).expect("write");
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            snapshot_name(42)
        );
        let (got_meta, got_states) = read_snapshot::<u64, u64>(&path).expect("read");
        assert_eq!(got_meta, meta);
        assert_eq!(got_states, states);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_valid_skips_corrupt_newest() {
        let dir = tmp_dir("fallback");
        write_states(&dir, &demo_meta(3, 10), &demo_states(3)).expect("older");
        let newer = write_states(&dir, &demo_meta(4, 20), &demo_states(4)).expect("newer");
        // Corrupt one byte in the middle of the newest snapshot.
        let mut bytes = fs::read(&newer).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&newer, bytes).expect("write");
        let (path, meta, states) = latest_valid::<u64, u64>(&dir)
            .expect("scan")
            .expect("found");
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            snapshot_name(10)
        );
        assert_eq!(meta.wal_seq, 10);
        assert_eq!(states.len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_corrupt_is_an_error_and_no_snapshots_is_none() {
        let dir = tmp_dir("allcorrupt");
        assert!(latest_valid::<u64, u64>(&dir).expect("scan").is_none());
        let path = write_states(&dir, &demo_meta(2, 5), &demo_states(2)).expect("write");
        let mut bytes = fs::read(&path).expect("read");
        bytes[4] ^= 0x01;
        fs::write(&path, bytes).expect("write");
        assert!(matches!(
            latest_valid::<u64, u64>(&dir),
            Err(DurableError::Corrupt { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_truncation_of_a_snapshot_is_an_error() {
        let dir = tmp_dir("trunc");
        let path = write_states(&dir, &demo_meta(3, 9), &demo_states(3)).expect("write");
        let bytes = fs::read(&path).expect("read");
        for cut in 0..bytes.len() {
            fs::write(&path, &bytes[..cut]).expect("write");
            assert!(
                read_snapshot::<u64, u64>(&path).is_err(),
                "truncation to {cut} bytes was accepted"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn only_the_newest_snapshots_are_kept() {
        let dir = tmp_dir("retention");
        for wal_seq in 0..6 {
            write_states(&dir, &demo_meta(2, wal_seq), &demo_states(2)).expect("write");
        }
        let left: Vec<u64> = list_snapshots(&dir)
            .expect("list")
            .into_iter()
            .map(|(seq, _)| seq)
            .collect();
        assert_eq!(left, vec![4, 5]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_count_mismatch_is_an_error_and_leaves_no_file() {
        let dir = tmp_dir("mismatch");
        for (promised, produced) in [(3, 2), (2, 3)] {
            let err = write_states(&dir, &demo_meta(promised, 7), &demo_states(produced))
                .expect_err("count mismatch");
            assert!(matches!(err, DurableError::Config(_)), "got {err:?}");
        }
        assert_eq!(fs::read_dir(&dir).expect("read dir").count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
