//! The keyed-batch wire codec shared by the WAL and the network server:
//! one self-describing record per ingest batch of `(key, now, value)`
//! events.
//!
//! Two encodings behind one tag byte:
//!
//! * [`BATCH_ROWS`] — generic row-major: each event's key, timestamp,
//!   and value through their [`StateCodec`] forms in turn. Works for
//!   every key/value type.
//! * [`BATCH_U64_COLUMNS`] — columnar delta-varint, selected
//!   automatically when both key and value are `u64` (the serving-fleet
//!   hot path). Keys are plain varints (zipf traffic keeps the hot
//!   ranks small); timestamps and values are zigzag varint deltas down
//!   their columns (timestamps are near-constant within a batch). A
//!   record shrinks from 24 fixed bytes per event to a few.
//!
//! Decoding is hardened the same way as every other durable codec:
//! truncation, overlong varints, type mismatches, and unknown tags are
//! [`StateError`]s, never panics (`tests/decode_robustness.rs` and the
//! server crate's protocol proptests both fuzz this path).

use swsample_core::state::{StateCodec, StateError, StateReader, StateWriter};

use crate::fleet::Event;

/// Wire tag for the generic row-major batch encoding.
pub const BATCH_ROWS: u8 = 0;

/// Wire tag for the columnar delta-varint encoding used when both key
/// and value are `u64`.
pub const BATCH_U64_COLUMNS: u8 = 1;

fn as_u64<V: 'static>(v: &V) -> Option<u64> {
    (v as &dyn std::any::Any).downcast_ref::<u64>().copied()
}

fn from_u64<V: Clone + 'static>(v: u64) -> Option<V> {
    (&v as &dyn std::any::Any).downcast_ref::<V>().cloned()
}

fn u64_fleet<K: 'static, T: 'static>() -> bool {
    use std::any::TypeId;
    TypeId::of::<K>() == TypeId::of::<u64>() && TypeId::of::<T>() == TypeId::of::<u64>()
}

/// Map a wrapping `u64` column delta onto a small varint: zigzag fold
/// so deltas near zero — in either direction — encode in one byte.
fn zigzag(delta: u64) -> u64 {
    let d = delta as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> u64 {
    ((z >> 1) ^ (z & 1).wrapping_neg()) as i64 as u64
}

/// Encode one ingest batch as a self-describing record (columnar for
/// `u64`/`u64` fleets, row-major otherwise).
pub fn encode_batch<K, T>(batch: &[Event<K, T>]) -> Vec<u8>
where
    K: StateCodec + Clone + 'static,
    T: StateCodec + Clone + 'static,
{
    // Columnar varints: capacity is a heuristic (hot batches land well
    // under 6 bytes/event-column-triple). Row-major: exact for
    // fixed-width key/value types, a lower bound otherwise. Either way
    // the buffer never reallocates its way up from empty on every batch.
    let per_event = if u64_fleet::<K, T>() {
        6
    } else {
        K::MIN_BYTES + 8 + T::MIN_BYTES
    };
    let mut w = StateWriter::with_capacity(5 + batch.len() * per_event);
    encode_batch_into(&mut w, batch);
    w.into_bytes()
}

/// [`encode_batch`], appending the record to `w` — for callers that
/// embed it in a larger message.
pub fn encode_batch_into<K, T>(w: &mut StateWriter, batch: &[Event<K, T>])
where
    K: StateCodec + Clone + 'static,
    T: StateCodec + Clone + 'static,
{
    if u64_fleet::<K, T>() {
        w.put_u8(BATCH_U64_COLUMNS);
        w.put_u32(batch.len() as u32);
        for (key, ..) in batch {
            w.put_varint_u64(as_u64(key).expect("type checked"));
        }
        let mut prev = 0u64;
        for (_, now, _) in batch {
            w.put_varint_u64(zigzag(now.wrapping_sub(prev)));
            prev = *now;
        }
        let mut prev = 0u64;
        for (_, _, value) in batch {
            let v = as_u64(value).expect("type checked");
            w.put_varint_u64(zigzag(v.wrapping_sub(prev)));
            prev = v;
        }
        return;
    }
    w.put_u8(BATCH_ROWS);
    w.put_u32(batch.len() as u32);
    for (key, now, value) in batch {
        key.encode_state(w);
        w.put_u64(*now);
        value.encode_state(w);
    }
}

/// Decode a record produced by [`encode_batch`]. Malformed bytes —
/// truncation, trailing garbage, a columnar record aimed at a non-`u64`
/// fleet, an unknown tag — are errors, never panics.
pub fn decode_batch<K, T>(bytes: &[u8]) -> Result<Vec<Event<K, T>>, StateError>
where
    K: StateCodec + Clone + 'static,
    T: StateCodec + Clone + 'static,
{
    let mut r = StateReader::new(bytes);
    match r.get_u8()? {
        BATCH_ROWS => {
            let n = r.get_count(K::MIN_BYTES + 8 + T::MIN_BYTES)?;
            let mut batch = Vec::with_capacity(n);
            for _ in 0..n {
                let key = K::decode_state(&mut r)?;
                let now = r.get_u64()?;
                let value = T::decode_state(&mut r)?;
                batch.push((key, now, value));
            }
            r.finish()?;
            Ok(batch)
        }
        BATCH_U64_COLUMNS => {
            if !u64_fleet::<K, T>() {
                return Err(StateError::Corrupt(
                    "columnar u64 batch record in a non-u64 fleet".into(),
                ));
            }
            // Three varint columns, at least one byte per entry.
            let n = r.get_count(3)?;
            let mut batch: Vec<Event<K, T>> = Vec::with_capacity(n);
            for _ in 0..n {
                let key = from_u64::<K>(r.get_varint_u64()?).expect("type checked");
                batch.push((key, 0, from_u64::<T>(0).expect("type checked")));
            }
            let mut prev = 0u64;
            for event in batch.iter_mut() {
                prev = prev.wrapping_add(unzigzag(r.get_varint_u64()?));
                event.1 = prev;
            }
            let mut prev = 0u64;
            for event in batch.iter_mut() {
                prev = prev.wrapping_add(unzigzag(r.get_varint_u64()?));
                event.2 = from_u64::<T>(prev).expect("type checked");
            }
            r.finish()?;
            Ok(batch)
        }
        tag => Err(StateError::Corrupt(format!("unknown batch format {tag}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_codec_round_trips() {
        // u64 fleets take the columnar delta-varint encoding — exercise
        // backward deltas, wraparound-class extremes, and repeats.
        let batch: Vec<Event<u64, u64>> = vec![
            (1, 10, 100),
            (2, 11, 200),
            (u64::MAX, 5, 0),
            (0, u64::MAX, u64::MAX),
            (7, 6, 3),
        ];
        let bytes = encode_batch(&batch);
        assert_eq!(bytes[0], BATCH_U64_COLUMNS);
        assert_eq!(decode_batch::<u64, u64>(&bytes).expect("decode"), batch);
        assert!(decode_batch::<u64, u64>(&bytes[..bytes.len() - 1]).is_err());
        // Non-u64 keys take the generic row-major encoding.
        let rows: Vec<Event<String, u64>> =
            vec![("alpha".into(), 10, 100), ("beta".into(), 11, 200)];
        let bytes = encode_batch(&rows);
        assert_eq!(bytes[0], BATCH_ROWS);
        assert_eq!(decode_batch::<String, u64>(&bytes).expect("decode"), rows);
        assert!(decode_batch::<String, u64>(&bytes[..bytes.len() - 1]).is_err());
        // A columnar record replayed into a non-u64 fleet is corruption,
        // not a panic; so is an unknown tag.
        let columnar = encode_batch(&batch);
        assert!(decode_batch::<String, u64>(&columnar).is_err());
        let mut unknown = columnar.clone();
        unknown[0] = 9;
        assert!(decode_batch::<u64, u64>(&unknown).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let batch: Vec<Event<u64, u64>> = vec![(1, 2, 3)];
        let mut bytes = encode_batch(&batch);
        bytes.push(0);
        assert!(decode_batch::<u64, u64>(&bytes).is_err());
    }
}
