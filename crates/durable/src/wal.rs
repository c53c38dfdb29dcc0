//! The write-ahead segment log: framed `[seq u64][payload]` records in
//! numbered segment files, fsync on segment roll, torn-tail tolerance in
//! the final segment only.
//!
//! One record per **ingest batch** — batch boundaries are part of the
//! replay contract, because some sampler families (notably priority)
//! draw RNG in batch-major order, so replaying with different chunking
//! would diverge from the original run.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::frame::{self, FrameRead, FRAME_HEADER_BYTES};
use crate::DurableError;

/// Default segment-roll threshold: 4 MiB of framed records.
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 << 20;

/// Name of segment `index` within the log directory.
fn segment_name(index: u64) -> String {
    format!("wal-{index:08}.seg")
}

/// Parse a segment file name back to its index.
fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

/// Write-buffer size for the active segment. Appends are batch-sized
/// (tens of KB); a large buffer keeps the syscall rate far below the
/// append rate so the WAL tax stays encode + checksum bandwidth.
const WRITE_BUF_BYTES: usize = 256 << 10;

/// All segment paths in `dir`, ascending by index.
pub fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(index) = entry.file_name().to_str().and_then(parse_segment_name) {
            out.push((index, entry.path()));
        }
    }
    out.sort_unstable_by_key(|(i, _)| *i);
    Ok(out)
}

/// An append-only log of sequenced records across rolling segment files.
///
/// Durability policy: appends are buffered; the active segment is
/// flushed **and fsynced** when it rolls past the size threshold, and on
/// [`sync`](SegmentLog::sync) (which [`Fleet::snapshot`] calls before
/// recording a log position). A crash can therefore lose or tear only
/// the unsynced tail of the final segment — exactly the region recovery
/// tolerates.
///
/// [`Fleet::snapshot`]: crate::Fleet::snapshot
#[derive(Debug)]
pub struct SegmentLog {
    dir: PathBuf,
    file: BufWriter<File>,
    segment_index: u64,
    segment_bytes: u64,
    /// Bytes written to the active segment so far.
    written: u64,
    next_seq: u64,
}

impl SegmentLog {
    /// Start a fresh log in `dir` (created if missing). Errors if the
    /// directory already holds WAL segments — recovery must go through
    /// [`open`](SegmentLog::open).
    pub fn create(dir: impl Into<PathBuf>, segment_bytes: u64) -> Result<Self, DurableError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        if let Some((_, path)) = list_segments(&dir)?.first() {
            return Err(DurableError::Config(format!(
                "refusing to create a fresh WAL over existing segment {}",
                path.display()
            )));
        }
        let path = dir.join(segment_name(0));
        let file = OpenOptions::new().create_new(true).write(true).open(path)?;
        Ok(Self {
            dir,
            file: BufWriter::with_capacity(WRITE_BUF_BYTES, file),
            segment_index: 0,
            segment_bytes: segment_bytes.max(1),
            written: 0,
            next_seq: 0,
        })
    }

    /// Reopen an existing log for appending, handing `replay` each
    /// record with `seq >= from_seq` as it is read, in `(seq, payload)`
    /// order; records below `from_seq` are checked and skipped.
    ///
    /// Returns the log positioned after the last valid record. A torn
    /// tail in the **final** segment is truncated away (a crash's
    /// partial write); torn or corrupt records in any earlier segment —
    /// or a sequence gap — are [`DurableError::Corrupt`]. An error from
    /// `replay` stops the open and is returned as is.
    pub fn open(
        dir: impl Into<PathBuf>,
        segment_bytes: u64,
        from_seq: u64,
        mut replay: impl FnMut(u64, &[u8]) -> Result<(), DurableError>,
    ) -> Result<Self, DurableError> {
        let dir = dir.into();
        let segments = list_segments(&dir)?;
        if segments.is_empty() {
            return Self::create(dir, segment_bytes);
        }
        let mut next_seq = 0u64;
        let last = segments.len() - 1;
        let mut tail_valid_bytes = 0u64;
        for (pos, (index, path)) in segments.iter().enumerate() {
            let is_last = pos == last;
            let mut reader = BufReader::new(File::open(path)?);
            let mut offset = 0u64;
            loop {
                match frame::read_frame(&mut reader)? {
                    FrameRead::Eof => break,
                    FrameRead::Torn(detail) if is_last => {
                        // The crash-truncated tail; everything before it
                        // replays, everything from it is discarded.
                        eprintln!(
                            "swsample-durable: discarding torn WAL tail in {} at byte {offset} ({detail})",
                            path.display()
                        );
                        break;
                    }
                    FrameRead::Torn(detail) => {
                        return Err(DurableError::Corrupt {
                            file: path.clone(),
                            detail: format!("segment {index} record at byte {offset}: {detail}"),
                        });
                    }
                    FrameRead::Frame(payload) => {
                        if payload.len() < 8 {
                            return Err(DurableError::Corrupt {
                                file: path.clone(),
                                detail: format!("record shorter than its seq at byte {offset}"),
                            });
                        }
                        let seq = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
                        if seq != next_seq {
                            return Err(DurableError::Corrupt {
                                file: path.clone(),
                                detail: format!("sequence gap: expected {next_seq}, found {seq}"),
                            });
                        }
                        next_seq += 1;
                        offset += (FRAME_HEADER_BYTES + payload.len()) as u64;
                        if seq >= from_seq {
                            replay(seq, &payload[8..])?;
                        }
                    }
                }
            }
            if is_last {
                tail_valid_bytes = offset;
            }
        }
        // Reopen the final segment for append, truncating any torn tail
        // so old garbage never sits between valid records.
        let (last_index, last_path) = segments[last].clone();
        let mut file = OpenOptions::new().write(true).open(&last_path)?;
        file.set_len(tail_valid_bytes)?;
        file.seek(SeekFrom::Start(tail_valid_bytes))?;
        Ok(Self {
            dir,
            file: BufWriter::with_capacity(WRITE_BUF_BYTES, file),
            segment_index: last_index,
            segment_bytes: segment_bytes.max(1),
            written: tail_valid_bytes,
            next_seq,
        })
    }

    /// Append one record, returning its sequence number. Rolls (flush +
    /// fsync + next segment file) once the active segment exceeds the
    /// threshold.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, DurableError> {
        let seq = self.next_seq;
        let mut record = Vec::with_capacity(8 + payload.len());
        record.extend_from_slice(&seq.to_le_bytes());
        record.extend_from_slice(payload);
        frame::write_frame(&mut self.file, &record)?;
        self.next_seq += 1;
        self.written += (FRAME_HEADER_BYTES + record.len()) as u64;
        if self.written >= self.segment_bytes {
            self.roll()?;
        }
        Ok(seq)
    }

    /// Flush and fsync the active segment, then start the next one.
    fn roll(&mut self) -> Result<(), DurableError> {
        self.sync()?;
        self.segment_index += 1;
        let path = self.dir.join(segment_name(self.segment_index));
        let file = OpenOptions::new().create_new(true).write(true).open(path)?;
        self.file = BufWriter::with_capacity(WRITE_BUF_BYTES, file);
        self.written = 0;
        Ok(())
    }

    /// Flush buffered records and fsync the active segment.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        self.file.flush()?;
        self.file.get_ref().sync_all()?;
        Ok(())
    }

    /// The sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The active segment's index.
    pub fn segment_index(&self) -> u64 {
        self.segment_index
    }

    /// Flush buffers **without** fsync and write `bytes` of raw garbage
    /// after the last record — the torn-tail fault injection (a crash
    /// mid-append).
    pub fn inject_torn_tail(&mut self, bytes: u64) -> Result<(), DurableError> {
        self.file.flush()?;
        // A plausible-looking partial frame: a header promising more
        // payload than will ever arrive.
        let mut garbage = Vec::with_capacity(bytes as usize);
        garbage.extend_from_slice(&(u32::MAX / 2).to_le_bytes());
        garbage.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        while (garbage.len() as u64) < bytes {
            garbage.push(0xAB);
        }
        garbage.truncate(bytes as usize);
        self.file.get_mut().write_all(&garbage)?;
        self.file.get_mut().flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swsample-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Every record of a log, as `(seq, payload)` pairs.
    type Records = Vec<(u64, Vec<u8>)>;

    /// Reopen `dir`, collecting every record from sequence 0.
    fn open_all(dir: &Path, segment_bytes: u64) -> Result<(SegmentLog, Records), DurableError> {
        let mut records = Vec::new();
        let log = SegmentLog::open(dir, segment_bytes, 0, |seq, payload| {
            records.push((seq, payload.to_vec()));
            Ok(())
        })?;
        Ok((log, records))
    }

    #[test]
    fn append_reopen_replays_in_order() {
        let dir = tmp_dir("replay");
        let mut log = SegmentLog::create(&dir, 64).expect("create");
        for i in 0..20u64 {
            let seq = log.append(format!("batch-{i}").as_bytes()).expect("append");
            assert_eq!(seq, i);
        }
        log.sync().expect("sync");
        drop(log);
        // 64-byte segments force several rolls.
        assert!(list_segments(&dir).expect("list").len() > 1);
        let (log, records) = open_all(&dir, 64).expect("open");
        assert_eq!(log.next_seq(), 20);
        assert_eq!(records.len(), 20);
        for (i, (seq, payload)) in records.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(payload, format!("batch-{i}").as_bytes());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_in_final_segment_is_truncated() {
        let dir = tmp_dir("torn");
        let mut log = SegmentLog::create(&dir, 1 << 20).expect("create");
        for i in 0..5u64 {
            log.append(&i.to_le_bytes()).expect("append");
        }
        log.inject_torn_tail(13).expect("tear");
        drop(log);
        let (mut log, records) = open_all(&dir, 1 << 20).expect("open tolerates tail");
        assert_eq!(records.len(), 5);
        assert_eq!(log.next_seq(), 5);
        // The torn bytes were truncated away: appending and reopening
        // yields a clean log.
        log.append(b"after-recovery").expect("append");
        log.sync().expect("sync");
        drop(log);
        let (_, records) = open_all(&dir, 1 << 20).expect("clean reopen");
        assert_eq!(records.len(), 6);
        assert_eq!(records[5].1, b"after-recovery");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_in_earlier_segment_is_fatal() {
        let dir = tmp_dir("midcorrupt");
        let mut log = SegmentLog::create(&dir, 32).expect("create");
        for i in 0..10u64 {
            log.append(&[i as u8; 16]).expect("append");
        }
        log.sync().expect("sync");
        drop(log);
        let segments = list_segments(&dir).expect("list");
        assert!(segments.len() >= 3, "need a non-final segment to corrupt");
        // Flip one byte in the first segment.
        let victim = &segments[0].1;
        let mut bytes = fs::read(victim).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(victim, bytes).expect("write");
        match open_all(&dir, 32) {
            Err(DurableError::Corrupt { file, .. }) => assert_eq!(&file, victim),
            other => panic!("expected corrupt error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_below_the_watermark_are_skipped() {
        let dir = tmp_dir("watermark");
        let mut log = SegmentLog::create(&dir, 64).expect("create");
        for i in 0..12u64 {
            log.append(&i.to_le_bytes()).expect("append");
        }
        log.sync().expect("sync");
        drop(log);
        let mut seen = Vec::new();
        let log = SegmentLog::open(&dir, 64, 9, |seq, payload| {
            seen.push((
                seq,
                u64::from_le_bytes(payload.try_into().expect("8 bytes")),
            ));
            Ok(())
        })
        .expect("open");
        assert_eq!(seen, vec![(9, 9), (10, 10), (11, 11)]);
        assert_eq!(log.next_seq(), 12);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_existing_log() {
        let dir = tmp_dir("refuse");
        let mut log = SegmentLog::create(&dir, 1024).expect("create");
        log.append(b"x").expect("append");
        log.sync().expect("sync");
        drop(log);
        assert!(matches!(
            SegmentLog::create(&dir, 1024),
            Err(DurableError::Config(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
