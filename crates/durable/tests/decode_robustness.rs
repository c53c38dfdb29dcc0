//! Adversarial-bytes robustness: no sequence of bit flips or
//! truncations applied to durable files — sampler state records,
//! snapshot files, WAL segments — may ever panic a decoder or smuggle
//! corrupt state past one. Corruption is always an `Err` (or, for the
//! WAL's final segment, a clean prefix).

use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;
use swsample_core::state::{
    ReservoirLState, SamplerState, SeqWrLaneState, StateError, StateReader, StateWriter,
    TsBankBucketState, TsBankKind, TsBankState, TsLaneSamplesState, STATE_VERSION,
};
use swsample_core::{FleetBackend, Sample, SamplerSpec};
use swsample_durable::frame::write_frame;
use swsample_durable::snapshot::{read_snapshot, SNAPSHOT_VERSION};
use swsample_durable::wal::{self, SegmentLog};
use swsample_durable::{DurableEngine, DurableError, DurableOptions};

mod common;

use common::CaseDir;

fn case_dir(tag: &str) -> CaseDir {
    common::case_dir("robust", tag)
}

/// The file name of a case directory's one snapshot.
const SNAPSHOT: &str = "snap-0000000000000001.snap";

/// Bytes of a genuine snapshot over a populated fleet, produced once.
fn real_snapshot_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let dir = case_dir("seed-snap");
        let spec: SamplerSpec = "--window ts --w 16 --mode wor --algo paper --k 3 --seed 5"
            .parse()
            .expect("spec");
        let durable = DurableEngine::<u64, u64>::create(
            &dir,
            spec,
            4,
            1,
            FleetBackend::Auto,
            DurableOptions::default(),
        )
        .expect("create");
        let batch: Vec<(u64, u64, u64)> = (0..200u64).map(|e| (e % 17, e / 5, e * 3)).collect();
        durable.ingest(&batch).expect("ingest");
        let path = durable.snapshot().expect("snapshot");
        drop(durable);
        std::fs::read(path).expect("read snapshot")
    })
}

/// A genuine state record to mutate.
fn real_state_record() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let spec: SamplerSpec = "--window seq --n 24 --mode wr --algo paper --k 3 --seed 9"
            .parse()
            .expect("spec");
        let mut sampler = spec.build::<u64>().expect("build");
        for i in 0..100 {
            sampler.insert(i);
        }
        sampler.save_state().expect("save").encode_record()
    })
}

/// A directory holding one current-format snapshot, [`SNAPSHOT`], whose
/// header records the fleet store token `store` and whose key frame is
/// `[key][state_version varint][payload]` — CRC-valid, so only the
/// decoders stand between the file and the fleet.
fn crafted_snapshot(tag: &str, store: &[u8], state_version: u8, payload: &[u8]) -> CaseDir {
    let spec = "--window seq --n 24 --mode wr --algo paper --k 3 --seed 9";
    crafted_snapshot_of(tag, spec, store, state_version, payload)
}

/// [`crafted_snapshot`] for a fleet built from `spec`.
fn crafted_snapshot_of(
    tag: &str,
    spec: &str,
    store: &[u8],
    state_version: u8,
    payload: &[u8],
) -> CaseDir {
    let dir = case_dir(tag);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(SNAPSHOT);
    let mut header = StateWriter::new();
    header.put_u32(SNAPSHOT_VERSION);
    header.put_len_bytes(spec.as_bytes());
    header.put_len_bytes(store);
    for v in [4u64, 1, 1, 1] {
        header.put_u64(v); // shards, threads, wal_seq, keys
    }
    let mut body = 7u64.to_le_bytes().to_vec();
    body.push(state_version);
    body.extend_from_slice(payload);
    let mut file = Vec::new();
    write_frame(&mut file, &header.into_bytes()).expect("vec write");
    write_frame(&mut file, &body).expect("vec write");
    std::fs::write(&path, file).expect("write");
    dir
}

/// Open a directory holding one crafted snapshot of a `spec` fleet whose
/// one key holds `state`; the directory is removed afterwards.
fn open_one_key(tag: &str, spec: &str, state: &SamplerState<u64>) -> Result<(), DurableError> {
    let mut payload = StateWriter::for_state_version(STATE_VERSION);
    state.encode_payload(&mut payload);
    let dir = crafted_snapshot_of(
        tag,
        spec,
        b"erased",
        STATE_VERSION as u8,
        payload.as_bytes(),
    );
    DurableEngine::<u64, u64>::open(&dir, DurableOptions::default()).map(|_| ())
}

/// A seq-WR payload prefix: family tag, `count` and `accepts` fields
/// (both 0), and the four RNG words.
fn seq_wr_prefix() -> Vec<u8> {
    let mut p = vec![1u8, 0x01, 0x01];
    p.extend_from_slice(&[0xAB; 32]);
    p
}

/// Hand-made v2 state payloads that pass the frame CRC but lie inside:
/// each is a typed `Corrupt`, never a panic or an allocation storm.
#[test]
fn hostile_v2_state_payloads_are_typed_corruption() {
    // Sanity: the crafted frame shape decodes when the payload is sound
    // (a seq-WR state with zero lanes).
    let mut sound = seq_wr_prefix();
    sound.push(0x01);
    let dir = crafted_snapshot("v2-sound", b"erased", STATE_VERSION as u8, &sound);
    let (_, states) =
        read_snapshot::<u64, u64>(&dir.join(SNAPSHOT)).expect("sound payload decodes");
    assert_eq!(states.len(), 1);

    // An 11-byte varint where the `count` field belongs.
    let mut overlong = vec![1u8];
    overlong.extend_from_slice(&[0x80; 10]);
    overlong.push(0x00);
    // A lane count of 2^32 with no lanes behind it.
    let mut oversized = seq_wr_prefix();
    oversized.extend_from_slice(&[0x81, 0x80, 0x80, 0x80, 0x10]);
    // One lane whose `next_accept` sentinel is stored as 2^64 — one past
    // the `u64::MAX + 1` that encodes "never".
    let mut sentinel = seq_wr_prefix();
    sentinel.extend_from_slice(&[0x02, 0x00, 0x00]);
    sentinel.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02]);
    let cases: [(&str, u8, &[u8]); 4] = [
        ("overlong varint", STATE_VERSION as u8, &overlong),
        ("oversized count", STATE_VERSION as u8, &oversized),
        ("out-of-range sentinel", STATE_VERSION as u8, &sentinel),
        ("unknown state version", STATE_VERSION as u8 + 1, &sound),
    ];
    for (what, version, payload) in cases {
        let dir = crafted_snapshot("v2-hostile", b"erased", version, payload);
        match read_snapshot::<u64, u64>(&dir.join(SNAPSHOT)) {
            Err(DurableError::Corrupt { .. }) => {}
            other => panic!("{what}: expected typed corruption, got {other:?}"),
        }
    }
}

/// An in-place edit of one seq-WR lane.
type LaneEdit = fn(&mut SeqWrLaneState<u64>);

/// Seq-WR lanes that are CRC-valid and decode cleanly but that no run
/// of the sampler could reach — a lane that can never accept again, a
/// bucket without its sample, a sample outside its bucket — make
/// `DurableEngine::open` fail with a typed error instead of panicking
/// later on the query path.
#[test]
fn unreachable_seq_wr_lanes_fail_open_with_a_typed_error() {
    let text = "--window seq --n 24 --mode wr --algo paper --k 3 --seed 9";
    let spec: SamplerSpec = text.parse().expect("spec");
    let mut sampler = spec.build::<u64>().expect("build");
    for i in 0..30 {
        sampler.insert(i); // count 30: the partial bucket [24, 48) holds 6
    }
    let state = sampler.save_state().expect("save");
    // Edit lane 1 of the saved state, write it as a one-key snapshot and
    // open the directory.
    let open_with = |tag: &str, edit: LaneEdit| {
        let mut state = state.clone();
        match &mut state {
            SamplerState::SeqWr { lanes, .. } => edit(&mut lanes[1]),
            other => panic!("expected a seq-wr state, got {}", other.family()),
        }
        open_one_key(tag, text, &state)
    };
    open_with("seq-wr-sound", |_| {}).expect("a reachable state opens");
    let cases: [(&str, LaneEdit); 4] = [
        ("next_accept below count", |l| l.next_accept = 12),
        ("empty lane in a non-empty bucket", |l| l.cur = None),
        ("no complete-bucket sample", |l| l.prev = None),
        ("sample outside its bucket", |l| {
            l.cur = Some(Sample::new(3, 3, 3))
        }),
    ];
    for (what, edit) in cases {
        match open_with("seq-wr-unreachable", edit) {
            Err(DurableError::State(StateError::Corrupt(_))) => {}
            other => panic!("{what}: expected typed corruption, got {other:?}"),
        }
    }
}

/// A seq-WR record in which two lanes hold the same stream index with
/// different values cannot come from any run (lanes that share an index
/// share one stored candidate): opening it is a typed corruption error,
/// not a silent pick of one of the two.
#[test]
fn seq_wr_lanes_disagreeing_on_one_index_fail_open_with_a_typed_error() {
    let spec: SamplerSpec = "--window seq --n 24 --mode wr --algo paper --k 3 --seed 9"
        .parse()
        .expect("spec");
    let mut sampler = spec.build::<u64>().expect("build");
    for i in 0..30 {
        sampler.insert(i);
    }
    let state = sampler.save_state().expect("save");
    let SamplerState::SeqWr { lanes, .. } = &state else {
        panic!("expected a seq-wr state")
    };
    let shared = lanes[0].cur.clone().expect("partial bucket holds a sample");
    // Point lane 1 at lane 0's stream index, holding `value`.
    let open_with = |tag: &str, value: u64| {
        let mut state = state.clone();
        if let SamplerState::SeqWr { lanes, .. } = &mut state {
            lanes[1].cur = Some(Sample::new(value, shared.index(), shared.timestamp()));
        }
        let mut payload = StateWriter::for_state_version(STATE_VERSION);
        state.encode_payload(&mut payload);
        let dir = crafted_snapshot(tag, b"erased", STATE_VERSION as u8, payload.as_bytes());
        let read = read_snapshot::<u64, u64>(&dir.join(SNAPSHOT)).map(|_| ());
        let opened = DurableEngine::<u64, u64>::open(&dir, DurableOptions::default()).map(|_| ());
        (read, opened)
    };
    let (read, opened) = open_with("seq-wr-shared", *shared.value());
    read.expect("lanes sharing one sample decode");
    opened.expect("lanes sharing one sample open");
    match open_with("seq-wr-disagreeing", shared.value() + 1) {
        (Err(DurableError::Corrupt { detail, .. }), Err(DurableError::Corrupt { .. }))
            if detail.contains("different samples") => {}
        other => panic!("expected typed corruption, got {other:?}"),
    }
}

/// An in-place edit of a ts bank checkpoint.
type BankEdit = fn(&mut TsBankState<u64>);

/// An in-place edit of a whole sampler checkpoint.
type StateEdit = fn(&mut SamplerState<u64>);

/// Open a one-key snapshot holding `spec`'s sampler after 60 ticks of
/// 1–3 arrivals each, its bank checkpoint edited by `edit`.
fn open_ts_with(spec: &str, edit: BankEdit) -> Result<(), DurableError> {
    open_ts_state_with(spec, |state| match state {
        SamplerState::TsWr { bank, .. } | SamplerState::TsWor { bank, .. } => edit(bank),
        other => panic!("expected a ts state, got {}", other.family()),
    })
}

/// [`open_ts_with`] for an edit of the whole checkpoint.
fn open_ts_state_with(
    spec: &str,
    edit: impl FnOnce(&mut SamplerState<u64>),
) -> Result<(), DurableError> {
    let parsed: SamplerSpec = spec.parse().expect("spec");
    let mut sampler = parsed.build::<u64>().expect("build");
    let mut value = 0u64;
    for tick in 0..60u64 {
        sampler.advance_time(tick);
        for _ in 0..=tick % 3 {
            sampler.insert(value);
            value += 1;
        }
    }
    let mut state = sampler.save_state().expect("save");
    edit(&mut state);
    open_one_key("ts-bank", spec, &state)
}

/// The buckets of a bank checkpoint, straddling head first.
fn bank_buckets(bank: &mut TsBankState<u64>) -> Vec<&mut TsBankBucketState<u64>> {
    match &mut bank.kind {
        TsBankKind::Empty => Vec::new(),
        TsBankKind::Full(buckets) => buckets.iter_mut().collect(),
        TsBankKind::Straddle { head, tail } => std::iter::once(head).chain(tail).collect(),
    }
}

/// The first bucket whose lane samples `pick` selects.
fn first_bucket(
    bank: &mut TsBankState<u64>,
    pick: fn(&TsLaneSamplesState<u64>) -> bool,
) -> &mut TsBankBucketState<u64> {
    bank_buckets(bank)
        .into_iter()
        .find(|b| pick(&b.samples))
        .expect("the run reaches a bucket of that shape")
}

fn is_pair(s: &TsLaneSamplesState<u64>) -> bool {
    matches!(s, TsLaneSamplesState::Pair { .. })
}

fn is_per_lane(s: &TsLaneSamplesState<u64>) -> bool {
    matches!(s, TsLaneSamplesState::PerLane { .. })
}

/// Ts bank checkpoints that are CRC-valid and decode cleanly but that no
/// run of the bank could reach — a lane sample outside its bucket, a
/// selector bit for a lane that does not exist, a two-candidate record
/// where the bank keeps per-lane samples, a shared sample on a merged
/// bucket, a bucket from the future — make `DurableEngine::open` fail
/// with a typed error instead of `sample_k` serving the impossible
/// sample.
#[test]
fn unreachable_ts_bank_lanes_fail_open_with_a_typed_error() {
    for mode in ["wr", "wor"] {
        let spec = format!("--window ts --w 100 --mode {mode} --algo paper --k 4 --seed 9");
        open_ts_with(&spec, |_| {}).expect("a reachable state opens");
        let cases: [(&str, BankEdit); 4] = [
            ("lane samples outside their bucket", |bank| {
                if let TsLaneSamplesState::PerLane { r, q } =
                    &mut first_bucket(bank, is_per_lane).samples
                {
                    for s in r.iter_mut().chain(q) {
                        *s = Sample::new(7, 1_000_000_000, 0);
                    }
                }
            }),
            ("pair selector bit at or above k", |bank| {
                if let TsLaneSamplesState::Pair { rsel, .. } =
                    &mut first_bucket(bank, is_pair).samples
                {
                    *rsel |= 1 << 4;
                }
            }),
            ("shared sample on a merged bucket", |bank| {
                let bucket = first_bucket(bank, is_per_lane);
                bucket.samples =
                    TsLaneSamplesState::Shared(Sample::new(7, bucket.a, bucket.ts_first));
            }),
            ("bucket starting after now", |bank| {
                let now = bank.now;
                bank_buckets(bank).pop().expect("non-empty bank").ts_first = now + 1;
            }),
        ];
        for (what, edit) in cases {
            match open_ts_with(&spec, edit) {
                Err(DurableError::State(StateError::Corrupt(_))) => {}
                other => panic!("{mode} {what}: expected typed corruption, got {other:?}"),
            }
        }
        // A two-candidate record where k = 1 or k > 64 keeps per-lane
        // samples at width 2.
        for k in [1, 65] {
            let spec = format!("--window ts --w 100 --mode {mode} --algo paper --k {k} --seed 9");
            open_ts_with(&spec, |_| {}).expect("a reachable state opens");
            let as_pair: BankEdit = |bank| {
                let bucket = bank_buckets(bank)
                    .into_iter()
                    .find(|b| b.b - b.a == 2)
                    .expect("a width-2 bucket");
                let (a, ts) = (bucket.a, bucket.ts_first);
                bucket.samples = TsLaneSamplesState::Pair {
                    lo: Sample::new(7, a, ts),
                    hi: Sample::new(7, a + 1, ts),
                    rsel: 0,
                    qsel: 0,
                };
            };
            match open_ts_with(&spec, as_pair) {
                Err(DurableError::State(StateError::Corrupt(_))) => {}
                other => {
                    panic!("{mode} k={k} pair record: expected typed corruption, got {other:?}")
                }
            }
        }
    }
}

fn is_shared(s: &TsLaneSamplesState<u64>) -> bool {
    matches!(s, TsLaneSamplesState::Shared(_))
}

/// Every sample a bank bucket record holds.
fn bucket_samples(b: &mut TsBankBucketState<u64>) -> Vec<&mut Sample<u64>> {
    match &mut b.samples {
        TsLaneSamplesState::Shared(s) => vec![s],
        TsLaneSamplesState::Pair { lo, hi, .. } => vec![lo, hi],
        TsLaneSamplesState::PerLane { r, q } => r.iter_mut().chain(q).collect(),
    }
}

/// Point every lane slot of a per-lane bucket record at `s`.
fn set_slots(b: &mut TsBankBucketState<u64>, s: Sample<u64>) {
    assert!(is_per_lane(&b.samples), "expected per-lane samples");
    for slot in bucket_samples(b) {
        *slot = s.clone();
    }
}

/// The bank checkpoint of a ts sampler checkpoint.
fn ts_bank(state: &mut SamplerState<u64>) -> &mut TsBankState<u64> {
    match state {
        SamplerState::TsWr { bank, .. } | SamplerState::TsWor { bank, .. } => bank,
        other => panic!("expected a ts state, got {}", other.family()),
    }
}

/// Ts bank checkpoints whose lane samples lie inside their bucket's index
/// range and the clock, but where no run puts them — the bucket's first
/// element at a timestamp other than the bucket's, an element after the
/// next bucket's first timestamp, an element `t0` or more after its
/// bucket's first — make `DurableEngine::open` fail with a typed error.
/// The bank keeps a sample as offsets from its bucket's first index and
/// timestamp, so it could not hold them.
#[test]
fn ts_lane_samples_no_run_places_fail_open_with_a_typed_error() {
    for mode in ["wr", "wor"] {
        let spec = format!("--window ts --w 100 --mode {mode} --algo paper --k 4 --seed 9");
        let cases: [(&str, BankEdit); 3] = [
            ("pair lo after its bucket's first timestamp", |bank| {
                if let TsLaneSamplesState::Pair { lo, .. } =
                    &mut first_bucket(bank, is_pair).samples
                {
                    *lo = Sample::new(*lo.value(), lo.index(), lo.timestamp() + 1);
                }
            }),
            (
                "per-lane first element after its bucket's first timestamp",
                |bank| {
                    let b = first_bucket(bank, is_per_lane);
                    let s = Sample::new(7, b.a, b.ts_first + 1);
                    set_slots(b, s);
                },
            ),
            (
                "per-lane sample after the next bucket's first timestamp",
                |bank| {
                    let mut buckets = bank_buckets(bank);
                    let i = buckets
                        .iter()
                        .position(|b| is_per_lane(&b.samples))
                        .expect("a per-lane bucket");
                    let next = buckets[i + 1].ts_first;
                    let b = &mut buckets[i];
                    let s = Sample::new(7, b.a + 1, next + 1);
                    set_slots(b, s);
                },
            ),
        ];
        for (what, edit) in cases {
            match open_ts_with(&spec, edit) {
                Err(DurableError::State(StateError::Corrupt(_))) => {}
                other => panic!("{mode} {what}: expected typed corruption, got {other:?}"),
            }
        }
        // The newest bucket is a singleton: a tick later, its element
        // could sit at any timestamp up to the clock.
        let late_singleton: StateEdit = |state| {
            *ts_clock(state).0 += 1;
            let bank = ts_bank(state);
            bank.now += 1;
            let newest = bank_buckets(bank).pop().expect("non-empty bank");
            assert!(is_shared(&newest.samples), "expected a singleton");
            newest.samples =
                TsLaneSamplesState::Shared(Sample::new(7, newest.a, newest.ts_first + 1));
        };
        match open_ts_state_with(&spec, late_singleton) {
            Err(DurableError::State(StateError::Corrupt(_))) => {}
            other => panic!("{mode} late singleton: expected typed corruption, got {other:?}"),
        }
        // A 20-tick window straddles after 60 ticks. Moving everything
        // after the straddling head 100 ticks later leaves a reachable
        // state with room before the tail for a head sample 20 ticks after
        // the head's first.
        let spec = format!("--window ts --w 20 --mode {mode} --algo paper --k 4 --seed 9");
        let late_head: StateEdit = |state| {
            *ts_clock(state).0 += 100;
            if let SamplerState::TsWor { recent, .. } = state {
                for r in recent {
                    *r = Sample::new(*r.value(), r.index(), r.timestamp() + 100);
                }
            }
            let bank = ts_bank(state);
            bank.now += 100;
            let TsBankKind::Straddle { head, tail } = &mut bank.kind else {
                panic!("expected a straddling bank");
            };
            for b in tail {
                b.ts_first += 100;
                for s in bucket_samples(b) {
                    *s = Sample::new(*s.value(), s.index(), s.timestamp() + 100);
                }
            }
            let s = Sample::new(7, head.a + 1, head.ts_first + 20);
            set_slots(head, s);
        };
        match open_ts_state_with(&spec, late_head) {
            Err(DurableError::State(StateError::Corrupt(_))) => {}
            other => panic!("{mode} late head sample: expected typed corruption, got {other:?}"),
        }
    }
}

/// The `(now, next_index)` fields of a ts checkpoint.
fn ts_clock(state: &mut SamplerState<u64>) -> (&mut u64, &mut u64) {
    match state {
        SamplerState::TsWr {
            now, next_index, ..
        }
        | SamplerState::TsWor {
            now, next_index, ..
        } => (now, next_index),
        other => panic!("expected a ts state, got {}", other.family()),
    }
}

/// The auxiliary array of a ts-WOR checkpoint.
fn ts_recent(state: &mut SamplerState<u64>) -> &mut Vec<Sample<u64>> {
    match state {
        SamplerState::TsWor { recent, .. } => recent,
        other => panic!("expected a ts-wor state, got {}", other.family()),
    }
}

/// Ts checkpoints whose sampler clock or next index disagrees with the
/// bank make `DurableEngine::open` fail with a typed error. A next index
/// below the bank's newest arrival would stamp new arrivals with indices
/// the bank already holds.
#[test]
fn ts_clock_or_next_index_disagreeing_with_the_bank_fails_open() {
    for mode in ["wr", "wor"] {
        let spec = format!("--window ts --w 100 --mode {mode} --algo paper --k 4 --seed 9");
        open_ts_state_with(&spec, |_| {}).expect("a reachable state opens");
        let cases: [(&str, StateEdit); 2] = [
            ("next index 0", |s| *ts_clock(s).1 = 0),
            ("clock 0", |s| *ts_clock(s).0 = 0),
        ];
        for (what, edit) in cases {
            match open_ts_state_with(&spec, edit) {
                Err(DurableError::State(StateError::Corrupt(_))) => {}
                other => panic!("{mode} {what}: expected typed corruption, got {other:?}"),
            }
        }
    }
}

/// Ts-WOR checkpoints whose auxiliary array is not the last `min(k,
/// next_index)` arrivals in stream order, or disagrees with the bank, make
/// `DurableEngine::open` fail with a typed error instead of panicking at
/// the next query or arrival.
#[test]
fn ts_wor_recent_array_disagreeing_with_the_record_fails_open() {
    let spec = "--window ts --w 100 --mode wor --algo paper --k 4 --seed 9";
    open_ts_state_with(spec, |_| {}).expect("a reachable state opens");
    let cases: [(&str, StateEdit); 7] = [
        ("recent truncated to 2 entries", |s| {
            ts_recent(s).truncate(2)
        }),
        ("recent emptied", |s| ts_recent(s).clear()),
        ("recent timestamps set to 0", |s| {
            for r in ts_recent(s) {
                *r = Sample::new(*r.value(), r.index(), 0);
            }
        }),
        ("recent in reverse stream order", |s| ts_recent(s).reverse()),
        ("recent entry after the clock", |s| {
            let now = *ts_clock(s).0;
            let last = ts_recent(s).last_mut().expect("full array");
            *last = Sample::new(*last.value(), last.index(), now + 1);
        }),
        ("bank missing recent[0]", |s| {
            let recent = ts_recent(s);
            recent.remove(0);
            let last = recent.last().expect("full array").clone();
            recent.push(Sample::new(7, last.index() + 1, last.timestamp()));
            *ts_clock(s).1 += 1;
        }),
        ("bank holding arrivals newer than recent[0]", |s| {
            let recent = ts_recent(s);
            recent.pop();
            let first = recent[0].clone();
            recent.insert(0, Sample::new(7, first.index() - 1, first.timestamp()));
            *ts_clock(s).1 -= 1;
        }),
    ];
    for (what, edit) in cases {
        match open_ts_state_with(spec, edit) {
            Err(DurableError::State(StateError::Corrupt(_))) => {}
            other => panic!("{what}: expected typed corruption, got {other:?}"),
        }
    }
}

/// An in-place edit of a seq-WOR checkpoint's previous and current bucket.
type SeqWorEdit = fn(&mut Vec<Sample<u64>>, &mut ReservoirLState<u64>);

/// Seq-WOR checkpoints whose bucket reservoirs no run could reach — a
/// pending acceptance at or before `seen`, a reservoir without its
/// entries, a bucket position other than `count % n`, a missing or
/// misplaced complete-bucket sample — make `DurableEngine::open` fail
/// with a typed error instead of answering non-uniformly.
#[test]
fn unreachable_seq_wor_buckets_fail_open_with_a_typed_error() {
    let spec = "--window seq --n 24 --mode wor --algo paper --k 3 --seed 9";
    let parsed: SamplerSpec = spec.parse().expect("spec");
    let open_with = |edit: SeqWorEdit| {
        let mut sampler = parsed.build::<u64>().expect("build");
        for i in 0..30 {
            sampler.insert(i); // count 30: the partial bucket [24, 48) holds 6
        }
        let mut state = sampler.save_state().expect("save");
        match &mut state {
            SamplerState::SeqWor { prev, cur, .. } => edit(prev, cur),
            other => panic!("expected a seq-wor state, got {}", other.family()),
        }
        open_one_key("seq-wor", spec, &state)
    };
    open_with(|_, _| {}).expect("a reachable state opens");
    let cases: [(&str, SeqWorEdit); 6] = [
        ("next accept reset to 0", |_, cur| cur.next_accept = 0),
        ("current entries emptied", |_, cur| cur.entries.clear()),
        ("current bucket position off count % n", |_, cur| {
            cur.seen -= 1
        }),
        ("current entry outside its bucket", |_, cur| {
            cur.entries[0] = Sample::new(3, 3, 3)
        }),
        ("complete-bucket sample emptied", |prev, _| prev.clear()),
        ("complete-bucket sample outside its bucket", |prev, _| {
            prev[0] = Sample::new(25, 25, 25)
        }),
    ];
    for (what, edit) in cases {
        match open_with(edit) {
            Err(DurableError::State(StateError::Corrupt(_))) => {}
            other => panic!("{what}: expected typed corruption, got {other:?}"),
        }
    }
}

/// An in-place edit of a whole-stream Algorithm L checkpoint.
type ReservoirEdit = fn(&mut ReservoirLState<u64>, &mut u64);

/// Whole-stream Algorithm L checkpoints that are CRC-valid and decode
/// cleanly but whose skip schedule no run could reach — above all a
/// pending acceptance at or before `seen`, which would freeze the
/// reservoir on its current entries forever — make `DurableEngine::open`
/// fail with a typed error.
#[test]
fn unreachable_stream_l_skip_state_fails_open_with_a_typed_error() {
    let spec = "--window stream --mode wor --algo reservoir-l --k 4 --seed 9";
    let parsed: SamplerSpec = spec.parse().expect("spec");
    let open_with = |arrivals: u64, edit: ReservoirEdit| {
        let mut sampler = parsed.build::<u64>().expect("build");
        for i in 0..arrivals {
            sampler.insert(i);
        }
        let mut state = sampler.save_state().expect("save");
        match &mut state {
            SamplerState::StreamL {
                next_index, res, ..
            } => edit(res, next_index),
            other => panic!("expected a stream-l state, got {}", other.family()),
        }
        open_one_key("stream-l", spec, &state)
    };
    for arrivals in [2, 1_000] {
        open_with(arrivals, |_, _| {}).expect("a reachable state opens");
    }
    let full: [(&str, ReservoirEdit); 7] = [
        ("next accept reset to 0", |res, _| res.next_accept = 0),
        ("next accept at seen", |res, _| res.next_accept = res.seen),
        ("W = 0", |res, _| res.w_bits = 0f64.to_bits()),
        ("W above 1", |res, _| res.w_bits = 1.5f64.to_bits()),
        ("W not a number", |res, _| res.w_bits = f64::NAN.to_bits()),
        ("an entry missing", |res, _| {
            res.entries.pop();
        }),
        ("next index behind seen", |_, next_index| *next_index -= 1),
    ];
    let partial: [(&str, ReservoirEdit); 3] = [
        ("more entries than arrivals", |res, _| {
            res.entries.push(Sample::new(7, 1, 1))
        }),
        ("skip schedule before the reservoir fills", |res, _| {
            res.next_accept = 5
        }),
        ("W moved before the reservoir fills", |res, _| {
            res.w_bits = 0.5f64.to_bits()
        }),
    ];
    let cases = full
        .iter()
        .map(|c| (1_000, c))
        .chain(partial.iter().map(|c| (2, c)));
    for (arrivals, (what, edit)) in cases {
        match open_with(arrivals, *edit) {
            Err(DurableError::State(StateError::Corrupt(_))) => {}
            other => panic!("{what}: expected typed corruption, got {other:?}"),
        }
    }
}

/// The header's fleet-store token: both tokens older releases wrote
/// (`erased`, `soa`) open to the same states; any other token is a
/// typed `Corrupt`, never a panic.
#[test]
fn unknown_store_token_is_typed_corruption() {
    let mut sound = seq_wr_prefix();
    sound.push(0x01);
    let mut opened = Vec::new();
    for token in [&b"erased"[..], b"soa"] {
        let dir = crafted_snapshot("store-legacy", token, STATE_VERSION as u8, &sound);
        let (_, states) =
            read_snapshot::<u64, u64>(&dir.join(SNAPSHOT)).expect("legacy store token opens");
        opened.push(states);
    }
    assert_eq!(opened[0], opened[1], "the store token changes no state");
    for token in [&b"hybrid"[..], b"", b"SOA", b"\xff\xfe"] {
        let dir = crafted_snapshot("store-unknown", token, STATE_VERSION as u8, &sound);
        match read_snapshot::<u64, u64>(&dir.join(SNAPSHOT)) {
            Err(DurableError::Corrupt { detail, .. }) => {
                assert!(detail.contains("store token"), "untyped detail: {detail}")
            }
            other => panic!("token {token:?}: expected typed corruption, got {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary bytes fed to the state-record decoder: never a panic.
    #[test]
    fn arbitrary_state_record_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = SamplerState::<u64>::decode_record(&bytes);
    }

    /// Arbitrary bytes decoded as a v2 snapshot payload (the frame CRC
    /// already passed, so nothing else checks them): never a panic.
    #[test]
    fn arbitrary_v2_payload_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut r = StateReader::new(&bytes);
        r.set_state_version(STATE_VERSION).expect("current version");
        let _ = SamplerState::<u64>::decode_payload(&mut r);
    }

    /// Any single bit flip in a real state record is rejected.
    #[test]
    fn flipped_state_record_is_rejected(pos in any::<u64>(), bit in 0u8..8) {
        let mut bytes = real_state_record().to_vec();
        let i = (pos % bytes.len() as u64) as usize;
        bytes[i] ^= 1 << bit;
        prop_assert!(SamplerState::<u64>::decode_record(&bytes).is_err(),
            "flip at byte {i} bit {bit} was accepted");
    }

    /// Any single bit flip anywhere in a real snapshot file is rejected.
    #[test]
    fn flipped_snapshot_is_rejected(pos in any::<u64>(), bit in 0u8..8) {
        let mut bytes = real_snapshot_bytes().to_vec();
        let i = (pos % bytes.len() as u64) as usize;
        bytes[i] ^= 1 << bit;
        let dir = case_dir("snapflip");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(SNAPSHOT);
        std::fs::write(&path, &bytes).expect("write");
        prop_assert!(read_snapshot::<u64, u64>(&path).is_err(),
            "flip at byte {i} bit {bit} was accepted");
    }

    /// Any truncation of a real snapshot file is rejected.
    #[test]
    fn truncated_snapshot_is_rejected(cut in any::<u64>()) {
        let bytes = real_snapshot_bytes();
        let cut = (cut % bytes.len() as u64) as usize;
        let dir = case_dir("snapcut");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(SNAPSHOT);
        std::fs::write(&path, &bytes[..cut]).expect("write");
        prop_assert!(read_snapshot::<u64, u64>(&path).is_err(),
            "truncation to {cut} bytes was accepted");
    }

    /// A WAL whose bytes were flipped anywhere never panics on open:
    /// either a corruption error, or (final-segment tolerance) a clean
    /// prefix of the original records.
    #[test]
    fn flipped_wal_yields_error_or_clean_prefix(
        pos in any::<u64>(),
        bit in 0u8..8,
    ) {
        let dir = case_dir("walflip");
        let mut log = SegmentLog::create(&dir, 96).expect("create");
        let originals: Vec<Vec<u8>> = (0..12u64)
            .map(|i| format!("payload-{i}-{}", "x".repeat(i as usize)).into_bytes())
            .collect();
        for p in &originals {
            log.append(p).expect("append");
        }
        log.sync().expect("sync");
        drop(log);
        // Pick a victim byte across all segments, deterministically.
        let segs = wal::list_segments(&dir).expect("list segments");
        let segs: Vec<PathBuf> = segs.into_iter().map(|(_, path)| path).collect();
        let total: usize = segs.iter().map(|p| std::fs::metadata(p).expect("stat").len() as usize).sum();
        let mut victim = (pos % total as u64) as usize;
        for seg in &segs {
            let mut bytes = std::fs::read(seg).expect("read");
            if victim < bytes.len() {
                bytes[victim] ^= 1 << bit;
                std::fs::write(seg, bytes).expect("write");
                break;
            }
            victim -= bytes.len();
        }
        let mut records: Vec<(u64, Vec<u8>)> = Vec::new();
        let opened = SegmentLog::open(&dir, 96, 0, |seq, payload| {
            records.push((seq, payload.to_vec()));
            Ok(())
        });
        match opened {
            Err(_) => {}
            Ok(_) => {
                prop_assert!(records.len() <= originals.len());
                for (i, (seq, payload)) in records.iter().enumerate() {
                    prop_assert_eq!(*seq, i as u64);
                    prop_assert_eq!(payload, &originals[i], "record {} mutated silently", i);
                }
            }
        }
    }

    /// A directory of pure garbage "segments" never panics the opener.
    #[test]
    fn garbage_wal_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..192)) {
        let dir = case_dir("walgarbage");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("wal-00000000.seg"), &bytes).expect("write");
        let _ = SegmentLog::open(&dir, 1024, 0, |_, _| Ok(()));
    }
}
