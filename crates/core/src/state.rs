//! Checkpointable sampler state: plain-data snapshots of every spec-built
//! family, with a versioned, checksummed binary encoding.
//!
//! Every sampler in this workspace is a pure function of `(spec, event
//! log)`: per-key seeds are splitmix-derived from keys, and the ts-bank's
//! bucket boundaries never consume randomness. [`SamplerState`] captures
//! the *stream-dependent* remainder of a sampler — retained samples,
//! counters, skip schedules, and the exact RNG/coin-buffer state — in
//! `O(k)` words per key, so that `restore` onto a freshly spec-built
//! sampler continues the run **bit-identically**: every subsequent RNG
//! draw, accept decision, and emitted sample matches the uninterrupted
//! execution.
//!
//! Config fields derivable from the [`crate::spec::SamplerSpec`] (window
//! width `n`, capacity `k`, seeds) are deliberately *not* stored: restore
//! always targets a sampler built from the same spec, which keeps the
//! records compact and makes snapshots portable across shard and thread
//! counts.
//!
//! The payload layout is versioned. Version 2 (written today) stores
//! every count, index, timestamp, schedule field and collection length
//! as an LEB128 varint of `v.wrapping_add(1)` (so the `u64::MAX`
//! "never" sentinels cost one byte), while RNG words, coin buffers,
//! selector masks, priorities and values stay fixed-width. Version 1
//! stored every such field as a fixed little-endian `u64` and every
//! length as a `u32`; it still decodes. Both layouts go through one
//! version-switched primitive pair ([`StateWriter::put_field`] /
//! [`StateReader::get_field`], plus the matching collection counts), so
//! every family has exactly one encoder and one decoder.
//!
//! [`SamplerState::encode_record`] frames a standalone record as
//! `[version u32][payload][crc32 u32]`; [`SamplerState::decode_record`]
//! rejects any truncation, bit flip, or version skew with a
//! [`StateError`] — never a panic, never silently wrong state
//! (property-tested in `swsample-durable`). Fleet snapshots skip that
//! wrapper and carry `[version][payload]` inside their own CRC frames.

use crate::sample::Sample;
use std::fmt;

/// Version tag stamped on every newly encoded state record: the
/// varint-field layout (see the module docs).
pub const STATE_VERSION: u32 = 2;

/// Oldest state-record version the decoders still accept: the
/// fixed-width layout.
pub const STATE_VERSION_MIN: u32 = 1;

/// Why a save, restore, or decode failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// This sampler configuration cannot be checkpointed (e.g. a
    /// non-checkpointable RNG type, a tracking `SampleTracker`, or a
    /// test-only backend).
    Unsupported,
    /// The record failed structural validation: bad checksum, truncated
    /// buffer, out-of-range field, or malformed framing.
    Corrupt(String),
    /// The record was written by an incompatible format version.
    Version(u32),
    /// The state belongs to a different sampler family than the target.
    Mismatch {
        /// Family the restoring sampler expected.
        expected: &'static str,
        /// Family found in the record.
        found: &'static str,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Unsupported => write!(f, "sampler state capture unsupported"),
            StateError::Corrupt(why) => write!(f, "corrupt state record: {why}"),
            StateError::Version(v) => {
                write!(
                    f,
                    "state record version {v} (supported {STATE_VERSION_MIN}..={STATE_VERSION})"
                )
            }
            StateError::Mismatch { expected, found } => {
                write!(
                    f,
                    "state family mismatch: expected {expected}, found {found}"
                )
            }
        }
    }
}

impl std::error::Error for StateError {}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the checksum
/// used by every state record, WAL frame, and snapshot section.
pub fn crc32(bytes: &[u8]) -> u32 {
    // Slicing-by-8: eight lookup tables let each iteration fold a full
    // u64 into the running remainder, the classic ~8x over the
    // byte-at-a-time loop. Table 0 is the standard reflected CRC-32
    // table; table k advances a byte k positions further through the
    // polynomial, so the eight lookups of one chunk are independent.
    // The result is bit-identical to the byte-at-a-time definition for
    // every input (the WAL/snapshot framing depends on that stability).
    const fn tables() -> [[u32; 256]; 8] {
        let mut t = [[0u32; 256]; 8];
        let mut i = 0usize;
        while i < 256 {
            let mut c = i as u32;
            let mut j = 0;
            while j < 8 {
                c = if c & 1 == 1 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                j += 1;
            }
            t[0][i] = c;
            i += 1;
        }
        let mut k = 1usize;
        while k < 8 {
            let mut i = 0usize;
            while i < 256 {
                t[k][i] = t[0][(t[k - 1][i] & 0xFF) as usize] ^ (t[k - 1][i] >> 8);
                i += 1;
            }
            k += 1;
        }
        t
    }
    static T: [[u32; 256]; 8] = tables();
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = T[7][(lo & 0xFF) as usize]
            ^ T[6][((lo >> 8) & 0xFF) as usize]
            ^ T[5][((lo >> 16) & 0xFF) as usize]
            ^ T[4][(lo >> 24) as usize]
            ^ T[3][(hi & 0xFF) as usize]
            ^ T[2][((hi >> 8) & 0xFF) as usize]
            ^ T[1][((hi >> 16) & 0xFF) as usize]
            ^ T[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = T[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Little-endian binary writer for state records.
///
/// A writer also carries the state-record layout its
/// [`put_field`](Self::put_field) / [`put_count`](Self::put_count) calls
/// use: [`new`](Self::new) and [`with_capacity`](Self::with_capacity)
/// write the fixed-width version-1 layout,
/// [`for_state_version`](Self::for_state_version) picks one explicitly.
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
    /// Version ≥ 2 layout: fields and counts as varints.
    varint_fields: bool,
}

impl StateWriter {
    /// Fresh empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh writer with `bytes` of preallocated capacity — for hot
    /// paths that know (a lower bound on) the encoded size up front.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
            varint_fields: false,
        }
    }

    /// Fresh writer whose fields and counts use the layout of
    /// state-record `version` (the caller stamps the version itself).
    pub fn for_state_version(version: u32) -> Self {
        Self {
            buf: Vec::new(),
            varint_fields: version >= 2,
        }
    }

    /// Append a count, index, timestamp or schedule field in this
    /// writer's layout: a fixed little-endian `u64` (version 1), or an
    /// LEB128 varint of `v.wrapping_add(1)` (version 2), which keeps
    /// small values small and stores the `u64::MAX` sentinel in one
    /// byte.
    pub fn put_field(&mut self, v: u64) {
        if self.varint_fields {
            self.put_varint_u64(v.wrapping_add(1));
        } else {
            self.put_u64(v);
        }
    }

    /// Append a collection length in this writer's layout: a `u32`
    /// (version 1) or a field (version 2). Read back with
    /// [`StateReader::get_count`].
    pub fn put_count(&mut self, n: usize) {
        if self.varint_fields {
            self.put_field(n as u64);
        } else {
            self.put_u32(n as u32);
        }
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an LEB128 varint: 7 value bits per byte, low bits first,
    /// high bit set on every byte but the last. Small values cost one
    /// byte; any `u64` costs at most ten.
    pub fn put_varint_u64(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v as u8) | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Append raw bytes (no length prefix).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a `u32`-length-prefixed byte string.
    pub fn put_len_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.put_bytes(bytes);
    }

    /// Append a `u32`-length-prefixed byte string that `fill` writes in
    /// place — [`put_len_bytes`](Self::put_len_bytes) without encoding
    /// into a separate buffer first and copying it over.
    pub fn put_len_prefixed(&mut self, fill: impl FnOnce(&mut Self)) {
        let at = self.buf.len();
        self.put_u32(0);
        fill(self);
        let len = (self.buf.len() - at - 4) as u32;
        self.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Forget the bytes written, keeping the allocation and the layout —
    /// one writer can then encode a whole stream of records.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Consume the writer, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked little-endian reader over a state record. Every getter
/// returns [`StateError::Corrupt`] instead of panicking when the buffer
/// runs short.
///
/// Like [`StateWriter`], a reader carries the layout its
/// [`get_field`](Self::get_field) / [`get_count`](Self::get_count) calls
/// decode: version 1 until [`set_state_version`](Self::set_state_version)
/// says otherwise.
#[derive(Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Version ≥ 2 layout: fields and counts as varints.
    varint_fields: bool,
}

impl<'a> StateReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            varint_fields: false,
        }
    }

    /// Decode the rest of the buffer's fields and counts in the layout
    /// of state-record `version`; [`StateError::Version`] if this build
    /// cannot read it.
    pub fn set_state_version(&mut self, version: u32) -> Result<(), StateError> {
        if !(STATE_VERSION_MIN..=STATE_VERSION).contains(&version) {
            return Err(StateError::Version(version));
        }
        self.varint_fields = version >= 2;
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StateError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                StateError::Corrupt(format!(
                    "truncated: need {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len().saturating_sub(self.pos)
                ))
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Next byte.
    pub fn get_u8(&mut self) -> Result<u8, StateError> {
        Ok(self.take(1)?[0])
    }

    /// Next little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, StateError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Next little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, StateError> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    /// Next LEB128 varint (see [`StateWriter::put_varint_u64`]).
    /// Overlong or overflowing encodings are corruption, not panics.
    pub fn get_varint_u64(&mut self) -> Result<u64, StateError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.get_u8()?;
            if shift == 63 && b > 1 {
                return Err(StateError::Corrupt(format!(
                    "varint overflows u64 at offset {}",
                    self.pos
                )));
            }
            v |= ((b & 0x7F) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(StateError::Corrupt(format!(
                    "varint longer than 10 bytes at offset {}",
                    self.pos
                )));
            }
        }
    }

    /// Next field written by [`StateWriter::put_field`] in this
    /// reader's layout. Overlong or out-of-range varints are corruption.
    pub fn get_field(&mut self) -> Result<u64, StateError> {
        if self.varint_fields {
            Ok(self.get_varint_u64()?.wrapping_sub(1))
        } else {
            self.get_u64()
        }
    }

    /// Next `u32`-length-prefixed byte string.
    pub fn get_len_bytes(&mut self) -> Result<&'a [u8], StateError> {
        let n = self.get_u32()? as usize;
        self.take(n)
    }

    /// A collection length written by [`StateWriter::put_count`] in this
    /// reader's layout, validated against the bytes actually left (each
    /// element needs at least `min_elem_bytes`), so a corrupted length
    /// can never trigger a huge allocation.
    pub fn get_count(&mut self, min_elem_bytes: usize) -> Result<usize, StateError> {
        let n = if self.varint_fields {
            usize::try_from(self.get_field()?).unwrap_or(usize::MAX)
        } else {
            self.get_u32()? as usize
        };
        let left = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem_bytes.max(1)) > left {
            return Err(StateError::Corrupt(format!(
                "count {n} exceeds remaining {left} bytes"
            )));
        }
        Ok(n)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless the record was consumed exactly.
    pub fn finish(&self) -> Result<(), StateError> {
        if self.remaining() != 0 {
            return Err(StateError::Corrupt(format!(
                "{} trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Value types that can travel inside a state record or WAL frame.
pub trait StateCodec: Sized {
    /// Lower bound on the encoded size, used to validate collection
    /// lengths before allocating.
    const MIN_BYTES: usize;

    /// Append this value to `w`.
    fn encode_state(&self, w: &mut StateWriter);

    /// Decode one value.
    fn decode_state(r: &mut StateReader<'_>) -> Result<Self, StateError>;
}

impl StateCodec for u64 {
    const MIN_BYTES: usize = 8;

    fn encode_state(&self, w: &mut StateWriter) {
        w.put_u64(*self);
    }

    fn decode_state(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        r.get_u64()
    }
}

impl StateCodec for String {
    const MIN_BYTES: usize = 4;

    fn encode_state(&self, w: &mut StateWriter) {
        w.put_len_bytes(self.as_bytes());
    }

    fn decode_state(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        let bytes = r.get_len_bytes()?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StateError::Corrupt("invalid utf-8 in string value".into()))
    }
}

/// Captured xoshiro256++ state words (see `rand::rngs::SmallRng::state`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RngState(pub [u64; 4]);

/// Capture the state of `rng` when it is a
/// [`SmallRng`](rand::rngs::SmallRng) — the only checkpointable
/// generator — or `None` for any other type. Samplers are generic over
/// their RNG, so this is the narrow waist their `save_state` overrides
/// go through.
pub fn capture_rng<R: std::any::Any>(rng: &R) -> Option<RngState> {
    (rng as &dyn std::any::Any)
        .downcast_ref::<rand::rngs::SmallRng>()
        .map(|r| RngState(r.state()))
}

/// Overwrite `rng` from captured state when it is a
/// [`SmallRng`](rand::rngs::SmallRng); returns `false` (and leaves the
/// generator untouched) otherwise.
pub fn restore_rng<R: std::any::Any>(rng: &mut R, state: &RngState) -> bool {
    match (rng as &mut dyn std::any::Any).downcast_mut::<rand::rngs::SmallRng>() {
        Some(r) => {
            *r = rand::rngs::SmallRng::from_state(state.0);
            true
        }
        None => false,
    }
}

/// Captured [`crate::rngutil::BitSource`] coin buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitsState {
    /// Buffered coin bits, LSB next.
    pub buf: u64,
    /// Coins left in `buf` (≤ 64).
    pub left: u8,
}

/// One instance of the sequence-window WR two-bucket construction
/// (Theorem 2.1): the retained previous-bucket sample, the growing
/// current-bucket candidate, and the precomputed next acceptance.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqWrLaneState<T> {
    /// Sample of the completed previous bucket, with its acceptance count.
    pub prev: Option<Sample<T>>,
    /// Candidate of the in-progress bucket.
    pub cur: Option<Sample<T>>,
    /// Stream index of the next acceptance (`u64::MAX` = no more accepts
    /// this bucket). The per-arrival reference
    /// [`NaiveSeqWr`](crate::seq::reference::NaiveSeqWr) keeps none and
    /// records 0.
    pub next_accept: u64,
}

/// Algorithm L reservoir state: entries plus the geometric skip schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ReservoirLState<T> {
    /// Retained samples (≤ capacity).
    pub entries: Vec<Sample<T>>,
    /// Elements offered so far.
    pub seen: u64,
    /// Next 1-based arrival count at which a replacement happens.
    pub next_accept: u64,
    /// Algorithm L's running `W`, as raw IEEE-754 bits (exact round trip).
    pub w_bits: u64,
}

/// One chain-sample instance: its links and adoption schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainLaneState<T> {
    /// `(sample, successor index)` links, oldest first.
    pub links: Vec<(Sample<T>, u64)>,
    /// Stream index whose arrival the head is waiting to adopt.
    pub next_adopt: u64,
}

/// Captured [`crate::ts::TsEngineBank`] state: the shared covering
/// decomposition with per-bucket lane samples, plus the coin buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct TsBankState<T> {
    /// The bank's current clock.
    pub now: u64,
    /// Buffered merge coins.
    pub bits: BitsState,
    /// Covering phase and buckets.
    pub kind: TsBankKind<T>,
}

/// Which phase the bank's covering decomposition is in.
#[derive(Debug, Clone, PartialEq)]
pub enum TsBankKind<T> {
    /// No elements in scope.
    Empty,
    /// Window not yet full: one covering from the stream start.
    Full(Vec<TsBankBucketState<T>>),
    /// Window full: expired-straddling head bucket + in-window tail.
    Straddle {
        /// The bucket straddling the window boundary.
        head: TsBankBucketState<T>,
        /// The covering of buckets fully inside the window.
        tail: Vec<TsBankBucketState<T>>,
    },
}

impl<T> TsBankState<T> {
    /// The bucket holding the bank's newest arrival; `None` when empty.
    pub fn newest(&self) -> Option<&TsBankBucketState<T>> {
        match &self.kind {
            TsBankKind::Empty => None,
            TsBankKind::Full(tail) | TsBankKind::Straddle { tail, .. } => tail.last(),
        }
    }
}

/// One bucket of the bank's covering: the stream indices `[a, b)` it
/// covers and its lane samples.
#[derive(Debug, Clone, PartialEq)]
pub struct TsBankBucketState<T> {
    /// First covered stream index (inclusive).
    pub a: u64,
    /// One past the last covered stream index (exclusive).
    pub b: u64,
    /// Timestamp of the bucket's first arrival.
    pub ts_first: u64,
    /// Lane samples.
    pub samples: TsLaneSamplesState<T>,
}

/// Lane samples of one bank bucket. The record's shape is fixed by the
/// bucket's width and the lane count `k`: `Shared` at width 1, `Pair` at
/// width 2 for `2 ≤ k ≤ 64`, `PerLane` otherwise. How the bank stores the
/// samples in memory does not change the record.
#[derive(Debug, Clone, PartialEq)]
pub enum TsLaneSamplesState<T> {
    /// All lanes share one sample (singleton bucket).
    Shared(Sample<T>),
    /// A width-2 bucket's two elements: per-lane selectors pick `lo`/`hi`.
    Pair {
        /// The element at index `a`: a lane's `r` (`q`) where its `rsel`
        /// (`qsel`) bit is 0.
        lo: Sample<T>,
        /// The element at index `a + 1`: a lane's `r` (`q`) where its
        /// `rsel` (`qsel`) bit is 1.
        hi: Sample<T>,
        /// Per-lane `r` selector bits (lane `j` = bit `j`).
        rsel: u64,
        /// Per-lane `q` selector bits.
        qsel: u64,
    },
    /// One `r` and one `q` sample per lane.
    PerLane {
        /// Per-lane `r` (uniform-in-bucket) samples.
        r: Vec<Sample<T>>,
        /// Per-lane `q` samples: a second, independent uniform sample of
        /// the bucket, consumed by the implicit-event generator (Lemma 3.6).
        q: Vec<Sample<T>>,
    },
}

/// A checkpoint of one sampler's stream-dependent state — every retained
/// sample, counter, skip schedule, and RNG word needed to continue the
/// run bit-identically on a freshly spec-built sampler of the same
/// family. See the module docs for what is deliberately *not* stored.
#[derive(Debug, Clone, PartialEq)]
pub enum SamplerState<T> {
    /// Sequence-window sampling with replacement (Theorem 2.1 buckets).
    SeqWr {
        /// Elements ingested.
        count: u64,
        /// Lifetime accepted-arrival count (diagnostic; snapshots from
        /// older releases may record 0).
        accepts: u64,
        /// RNG state.
        rng: RngState,
        /// Per-instance bucket state.
        lanes: Vec<SeqWrLaneState<T>>,
    },
    /// Sequence-window sampling without replacement (Theorem 2.2).
    SeqWor {
        /// Elements ingested.
        count: u64,
        /// RNG state.
        rng: RngState,
        /// Previous bucket's k-sample.
        prev: Vec<Sample<T>>,
        /// Current bucket's in-progress reservoir.
        cur: ReservoirLState<T>,
    },
    /// Whole-stream Algorithm L reservoir.
    StreamL {
        /// Next stream index to assign.
        next_index: u64,
        /// RNG state.
        rng: RngState,
        /// The reservoir.
        res: ReservoirLState<T>,
    },
    /// Timestamp-window sampling with replacement (§3, fused bank).
    TsWr {
        /// Sampler clock.
        now: u64,
        /// Next stream index to assign.
        next_index: u64,
        /// RNG state.
        rng: RngState,
        /// The fused bank.
        bank: TsBankState<T>,
    },
    /// Timestamp-window sampling without replacement (§4 delayed engine).
    TsWor {
        /// Sampler clock.
        now: u64,
        /// Next stream index to assign.
        next_index: u64,
        /// RNG state.
        rng: RngState,
        /// The last `min(k, next_index)` arrivals, oldest first, expired
        /// ones included.
        recent: Vec<Sample<T>>,
        /// The delayed bank (uniform delay k−1).
        bank: TsBankState<T>,
    },
    /// Chain sampling baseline (Babcock–Datar–Motwani).
    Chain {
        /// Elements ingested.
        count: u64,
        /// RNG state.
        rng: RngState,
        /// Coin buffer.
        bits: BitsState,
        /// Per-instance chains.
        chains: Vec<ChainLaneState<T>>,
    },
    /// Priority sampling baseline (per-instance right-maxima stacks).
    Priority {
        /// Sampler clock.
        now: u64,
        /// Next stream index to assign.
        next_index: u64,
        /// RNG state.
        rng: RngState,
        /// Per-instance `(sample, priority)` stacks, oldest first.
        stacks: Vec<Vec<(Sample<T>, u64)>>,
    },
    /// Priority top-k baseline (single shared priority order).
    PriorityTopK {
        /// Sampler clock.
        now: u64,
        /// Next stream index to assign.
        next_index: u64,
        /// RNG state.
        rng: RngState,
        /// `(sample, priority)` entries, oldest first.
        entries: Vec<(Sample<T>, u64)>,
        /// Compaction watermark (entries below it are dominance-checked).
        watermark: u64,
    },
    /// Exact window buffer baseline.
    WindowBuffer {
        /// Sampler clock.
        now: u64,
        /// Next stream index to assign.
        next_index: u64,
        /// RNG state.
        rng: RngState,
        /// Every in-window element, oldest first.
        buf: Vec<Sample<T>>,
    },
}

const TAG_SEQ_WR: u8 = 1;
const TAG_SEQ_WOR: u8 = 2;
const TAG_STREAM_L: u8 = 3;
const TAG_TS_WR: u8 = 4;
const TAG_TS_WOR: u8 = 5;
const TAG_CHAIN: u8 = 6;
const TAG_PRIORITY: u8 = 7;
const TAG_PRIORITY_TOPK: u8 = 8;
const TAG_WINDOW_BUFFER: u8 = 9;

fn put_rng(w: &mut StateWriter, rng: &RngState) {
    for word in rng.0 {
        w.put_u64(word);
    }
}

fn get_rng(r: &mut StateReader<'_>) -> Result<RngState, StateError> {
    let mut s = [0u64; 4];
    for word in &mut s {
        *word = r.get_u64()?;
    }
    Ok(RngState(s))
}

fn put_bits(w: &mut StateWriter, bits: &BitsState) {
    w.put_u64(bits.buf);
    w.put_u8(bits.left);
}

fn get_bits(r: &mut StateReader<'_>) -> Result<BitsState, StateError> {
    let buf = r.get_u64()?;
    let left = r.get_u8()?;
    if left > 64 {
        return Err(StateError::Corrupt(format!("coin buffer left={left} > 64")));
    }
    Ok(BitsState { buf, left })
}

fn put_sample<T: StateCodec>(w: &mut StateWriter, s: &Sample<T>) {
    s.value().encode_state(w);
    w.put_field(s.index());
    w.put_field(s.timestamp());
}

fn get_sample<T: StateCodec>(r: &mut StateReader<'_>) -> Result<Sample<T>, StateError> {
    let value = T::decode_state(r)?;
    let index = r.get_field()?;
    let timestamp = r.get_field()?;
    Ok(Sample::new(value, index, timestamp))
}

// Minimum encoded sizes for `get_count` bounds, in the varint layout
// (the smaller of the two, so they bound version-1 records too).
const FIELD_MIN: usize = 1;
const SAMPLE_MIN: usize = 2 * FIELD_MIN; // index + timestamp; value adds T::MIN_BYTES

fn put_opt_sample<T: StateCodec>(w: &mut StateWriter, s: &Option<Sample<T>>) {
    match s {
        None => w.put_u8(0),
        Some(s) => {
            w.put_u8(1);
            put_sample(w, s);
        }
    }
}

fn get_opt_sample<T: StateCodec>(r: &mut StateReader<'_>) -> Result<Option<Sample<T>>, StateError> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(get_sample(r)?)),
        t => Err(StateError::Corrupt(format!("bad option tag {t}"))),
    }
}

fn put_samples<T: StateCodec>(w: &mut StateWriter, samples: &[Sample<T>]) {
    w.put_count(samples.len());
    for s in samples {
        put_sample(w, s);
    }
}

fn get_samples<T: StateCodec>(r: &mut StateReader<'_>) -> Result<Vec<Sample<T>>, StateError> {
    let n = r.get_count(SAMPLE_MIN + T::MIN_BYTES)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_sample(r)?);
    }
    Ok(out)
}

/// `(sample, u64)` pairs. Chain links pair a sample with its
/// successor's stream *index* (a field); priority entries pair it with
/// a random *priority*, which stays fixed-width like the RNG words.
fn put_pairs<T: StateCodec>(
    w: &mut StateWriter,
    pairs: &[(Sample<T>, u64)],
    put_second: fn(&mut StateWriter, u64),
) {
    w.put_count(pairs.len());
    for (s, second) in pairs {
        put_sample(w, s);
        put_second(w, *second);
    }
}

fn get_pairs<'a, T: StateCodec>(
    r: &mut StateReader<'a>,
    get_second: fn(&mut StateReader<'a>) -> Result<u64, StateError>,
) -> Result<Vec<(Sample<T>, u64)>, StateError> {
    let n = r.get_count(SAMPLE_MIN + T::MIN_BYTES + FIELD_MIN)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let s = get_sample(r)?;
        let second = get_second(r)?;
        out.push((s, second));
    }
    Ok(out)
}

fn put_reservoir<T: StateCodec>(w: &mut StateWriter, res: &ReservoirLState<T>) {
    put_samples(w, &res.entries);
    w.put_field(res.seen);
    w.put_field(res.next_accept);
    w.put_u64(res.w_bits);
}

fn get_reservoir<T: StateCodec>(r: &mut StateReader<'_>) -> Result<ReservoirLState<T>, StateError> {
    let entries = get_samples(r)?;
    let seen = r.get_field()?;
    let next_accept = r.get_field()?;
    let w_bits = r.get_u64()?;
    Ok(ReservoirLState {
        entries,
        seen,
        next_accept,
        w_bits,
    })
}

fn put_bank_bucket<T: StateCodec>(w: &mut StateWriter, b: &TsBankBucketState<T>) {
    w.put_field(b.a);
    w.put_field(b.b);
    w.put_field(b.ts_first);
    match &b.samples {
        TsLaneSamplesState::Shared(s) => {
            w.put_u8(0);
            put_sample(w, s);
        }
        TsLaneSamplesState::Pair { lo, hi, rsel, qsel } => {
            w.put_u8(1);
            put_sample(w, lo);
            put_sample(w, hi);
            w.put_u64(*rsel);
            w.put_u64(*qsel);
        }
        TsLaneSamplesState::PerLane { r, q } => {
            w.put_u8(2);
            put_samples(w, r);
            put_samples(w, q);
        }
    }
}

fn get_bank_bucket<T: StateCodec>(
    r: &mut StateReader<'_>,
) -> Result<TsBankBucketState<T>, StateError> {
    let a = r.get_field()?;
    let b = r.get_field()?;
    let ts_first = r.get_field()?;
    let samples = match r.get_u8()? {
        0 => TsLaneSamplesState::Shared(get_sample(r)?),
        1 => {
            let lo = get_sample(r)?;
            let hi = get_sample(r)?;
            let rsel = r.get_u64()?;
            let qsel = r.get_u64()?;
            TsLaneSamplesState::Pair { lo, hi, rsel, qsel }
        }
        2 => {
            let rs = get_samples(r)?;
            let qs = get_samples(r)?;
            TsLaneSamplesState::PerLane { r: rs, q: qs }
        }
        t => return Err(StateError::Corrupt(format!("bad lane-samples tag {t}"))),
    };
    Ok(TsBankBucketState {
        a,
        b,
        ts_first,
        samples,
    })
}

const BUCKET_MIN: usize = 3 * FIELD_MIN + 1; // a + b + ts_first + samples tag

fn put_bank_buckets<T: StateCodec>(w: &mut StateWriter, buckets: &[TsBankBucketState<T>]) {
    w.put_count(buckets.len());
    for b in buckets {
        put_bank_bucket(w, b);
    }
}

fn get_bank_buckets<T: StateCodec>(
    r: &mut StateReader<'_>,
) -> Result<Vec<TsBankBucketState<T>>, StateError> {
    let n = r.get_count(BUCKET_MIN)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_bank_bucket(r)?);
    }
    Ok(out)
}

fn put_bank<T: StateCodec>(w: &mut StateWriter, bank: &TsBankState<T>) {
    w.put_field(bank.now);
    put_bits(w, &bank.bits);
    match &bank.kind {
        TsBankKind::Empty => w.put_u8(0),
        TsBankKind::Full(buckets) => {
            w.put_u8(1);
            put_bank_buckets(w, buckets);
        }
        TsBankKind::Straddle { head, tail } => {
            w.put_u8(2);
            put_bank_bucket(w, head);
            put_bank_buckets(w, tail);
        }
    }
}

fn get_bank<T: StateCodec>(r: &mut StateReader<'_>) -> Result<TsBankState<T>, StateError> {
    let now = r.get_field()?;
    let bits = get_bits(r)?;
    let kind = match r.get_u8()? {
        0 => TsBankKind::Empty,
        1 => TsBankKind::Full(get_bank_buckets(r)?),
        2 => {
            let head = get_bank_bucket(r)?;
            let tail = get_bank_buckets(r)?;
            TsBankKind::Straddle { head, tail }
        }
        t => return Err(StateError::Corrupt(format!("bad bank-state tag {t}"))),
    };
    Ok(TsBankState { now, bits, kind })
}

impl<T> SamplerState<T> {
    /// Short family name, used in mismatch errors and diagnostics.
    pub fn family(&self) -> &'static str {
        match self {
            SamplerState::SeqWr { .. } => "seq-wr",
            SamplerState::SeqWor { .. } => "seq-wor",
            SamplerState::StreamL { .. } => "stream-l",
            SamplerState::TsWr { .. } => "ts-wr",
            SamplerState::TsWor { .. } => "ts-wor",
            SamplerState::Chain { .. } => "chain",
            SamplerState::Priority { .. } => "priority",
            SamplerState::PriorityTopK { .. } => "priority-topk",
            SamplerState::WindowBuffer { .. } => "window-buffer",
        }
    }
}

impl<T: StateCodec> SamplerState<T> {
    /// Encode the bare payload (family tag + fields), without version or
    /// checksum framing.
    pub fn encode_payload(&self, w: &mut StateWriter) {
        match self {
            SamplerState::SeqWr {
                count,
                accepts,
                rng,
                lanes,
            } => {
                w.put_u8(TAG_SEQ_WR);
                w.put_field(*count);
                w.put_field(*accepts);
                put_rng(w, rng);
                w.put_count(lanes.len());
                for lane in lanes {
                    put_opt_sample(w, &lane.prev);
                    put_opt_sample(w, &lane.cur);
                    w.put_field(lane.next_accept);
                }
            }
            SamplerState::SeqWor {
                count,
                rng,
                prev,
                cur,
            } => {
                w.put_u8(TAG_SEQ_WOR);
                w.put_field(*count);
                put_rng(w, rng);
                put_samples(w, prev);
                put_reservoir(w, cur);
            }
            SamplerState::StreamL {
                next_index,
                rng,
                res,
            } => {
                w.put_u8(TAG_STREAM_L);
                w.put_field(*next_index);
                put_rng(w, rng);
                put_reservoir(w, res);
            }
            SamplerState::TsWr {
                now,
                next_index,
                rng,
                bank,
            } => {
                w.put_u8(TAG_TS_WR);
                w.put_field(*now);
                w.put_field(*next_index);
                put_rng(w, rng);
                put_bank(w, bank);
            }
            SamplerState::TsWor {
                now,
                next_index,
                rng,
                recent,
                bank,
            } => {
                w.put_u8(TAG_TS_WOR);
                w.put_field(*now);
                w.put_field(*next_index);
                put_rng(w, rng);
                put_samples(w, recent);
                put_bank(w, bank);
            }
            SamplerState::Chain {
                count,
                rng,
                bits,
                chains,
            } => {
                w.put_u8(TAG_CHAIN);
                w.put_field(*count);
                put_rng(w, rng);
                put_bits(w, bits);
                w.put_count(chains.len());
                for chain in chains {
                    put_pairs(w, &chain.links, StateWriter::put_field);
                    w.put_field(chain.next_adopt);
                }
            }
            SamplerState::Priority {
                now,
                next_index,
                rng,
                stacks,
            } => {
                w.put_u8(TAG_PRIORITY);
                w.put_field(*now);
                w.put_field(*next_index);
                put_rng(w, rng);
                w.put_count(stacks.len());
                for stack in stacks {
                    put_pairs(w, stack, StateWriter::put_u64);
                }
            }
            SamplerState::PriorityTopK {
                now,
                next_index,
                rng,
                entries,
                watermark,
            } => {
                w.put_u8(TAG_PRIORITY_TOPK);
                w.put_field(*now);
                w.put_field(*next_index);
                put_rng(w, rng);
                put_pairs(w, entries, StateWriter::put_u64);
                w.put_field(*watermark);
            }
            SamplerState::WindowBuffer {
                now,
                next_index,
                rng,
                buf,
            } => {
                w.put_u8(TAG_WINDOW_BUFFER);
                w.put_field(*now);
                w.put_field(*next_index);
                put_rng(w, rng);
                put_samples(w, buf);
            }
        }
    }

    /// Decode a bare payload written by
    /// [`encode_payload`](SamplerState::encode_payload).
    ///
    /// A seq-WR record in which two lanes hold the same stream index with
    /// different samples is [`StateError::Corrupt`]: no run writes one,
    /// and the sampler stores lanes that share an index as one candidate.
    pub fn decode_payload(r: &mut StateReader<'_>) -> Result<Self, StateError> {
        match r.get_u8()? {
            TAG_SEQ_WR => {
                let count = r.get_field()?;
                let accepts = r.get_field()?;
                let rng = get_rng(r)?;
                let n = r.get_count(2 + FIELD_MIN)?; // two option tags + next_accept
                let mut lanes = Vec::with_capacity(n);
                // Every held sample's stream index and encoding: lanes
                // that hold one index must hold one sample.
                let buf = r.buf;
                let mut held = Vec::with_capacity(2 * n);
                for _ in 0..n {
                    let at = r.pos;
                    let prev = get_opt_sample(r)?;
                    let mid = r.pos;
                    let cur = get_opt_sample(r)?;
                    if let Some(s) = &prev {
                        held.push((s.index(), &buf[at..mid]));
                    }
                    if let Some(s) = &cur {
                        held.push((s.index(), &buf[mid..r.pos]));
                    }
                    let next_accept = r.get_field()?;
                    lanes.push(SeqWrLaneState {
                        prev,
                        cur,
                        next_accept,
                    });
                }
                held.sort_unstable_by_key(|&(index, _)| index);
                if let Some(p) = held
                    .windows(2)
                    .find(|p| p[0].0 == p[1].0 && p[0].1 != p[1].1)
                {
                    return Err(StateError::Corrupt(format!(
                        "seq-wr: lanes hold stream index {} with different samples",
                        p[0].0
                    )));
                }
                Ok(SamplerState::SeqWr {
                    count,
                    accepts,
                    rng,
                    lanes,
                })
            }
            TAG_SEQ_WOR => {
                let count = r.get_field()?;
                let rng = get_rng(r)?;
                let prev = get_samples(r)?;
                let cur = get_reservoir(r)?;
                Ok(SamplerState::SeqWor {
                    count,
                    rng,
                    prev,
                    cur,
                })
            }
            TAG_STREAM_L => {
                let next_index = r.get_field()?;
                let rng = get_rng(r)?;
                let res = get_reservoir(r)?;
                Ok(SamplerState::StreamL {
                    next_index,
                    rng,
                    res,
                })
            }
            TAG_TS_WR => {
                let now = r.get_field()?;
                let next_index = r.get_field()?;
                let rng = get_rng(r)?;
                let bank = get_bank(r)?;
                Ok(SamplerState::TsWr {
                    now,
                    next_index,
                    rng,
                    bank,
                })
            }
            TAG_TS_WOR => {
                let now = r.get_field()?;
                let next_index = r.get_field()?;
                let rng = get_rng(r)?;
                let recent = get_samples(r)?;
                let bank = get_bank(r)?;
                Ok(SamplerState::TsWor {
                    now,
                    next_index,
                    rng,
                    recent,
                    bank,
                })
            }
            TAG_CHAIN => {
                let count = r.get_field()?;
                let rng = get_rng(r)?;
                let bits = get_bits(r)?;
                let n = r.get_count(2 * FIELD_MIN)?; // links count + next_adopt
                let mut chains = Vec::with_capacity(n);
                for _ in 0..n {
                    let links = get_pairs(r, StateReader::get_field)?;
                    let next_adopt = r.get_field()?;
                    chains.push(ChainLaneState { links, next_adopt });
                }
                Ok(SamplerState::Chain {
                    count,
                    rng,
                    bits,
                    chains,
                })
            }
            TAG_PRIORITY => {
                let now = r.get_field()?;
                let next_index = r.get_field()?;
                let rng = get_rng(r)?;
                let n = r.get_count(FIELD_MIN)?;
                let mut stacks = Vec::with_capacity(n);
                for _ in 0..n {
                    stacks.push(get_pairs(r, StateReader::get_u64)?);
                }
                Ok(SamplerState::Priority {
                    now,
                    next_index,
                    rng,
                    stacks,
                })
            }
            TAG_PRIORITY_TOPK => {
                let now = r.get_field()?;
                let next_index = r.get_field()?;
                let rng = get_rng(r)?;
                let entries = get_pairs(r, StateReader::get_u64)?;
                let watermark = r.get_field()?;
                Ok(SamplerState::PriorityTopK {
                    now,
                    next_index,
                    rng,
                    entries,
                    watermark,
                })
            }
            TAG_WINDOW_BUFFER => {
                let now = r.get_field()?;
                let next_index = r.get_field()?;
                let rng = get_rng(r)?;
                let buf = get_samples(r)?;
                Ok(SamplerState::WindowBuffer {
                    now,
                    next_index,
                    rng,
                    buf,
                })
            }
            t => Err(StateError::Corrupt(format!("unknown family tag {t}"))),
        }
    }

    /// Encode a self-validating record:
    /// `[version u32][payload][crc32(version ‖ payload) u32]`, in the
    /// current ([`STATE_VERSION`]) layout.
    pub fn encode_record(&self) -> Vec<u8> {
        let mut w = StateWriter::for_state_version(STATE_VERSION);
        w.put_u32(STATE_VERSION);
        self.encode_payload(&mut w);
        let mut bytes = w.into_bytes();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// Decode and fully validate a record written by
    /// [`encode_record`](SamplerState::encode_record): checksum first,
    /// then version, then payload, rejecting trailing bytes.
    pub fn decode_record(bytes: &[u8]) -> Result<Self, StateError> {
        if bytes.len() < 8 {
            return Err(StateError::Corrupt(format!(
                "record too short: {} bytes",
                bytes.len()
            )));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
        let actual = crc32(body);
        if stored != actual {
            return Err(StateError::Corrupt(format!(
                "checksum mismatch: stored {stored:#010x}, computed {actual:#010x}"
            )));
        }
        let mut r = StateReader::new(body);
        let version = r.get_u32()?;
        r.set_state_version(version)?;
        let state = Self::decode_payload(&mut r)?;
        r.finish()?;
        Ok(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(v: u64) -> Sample<u64> {
        Sample::new(v, v + 1, v + 2)
    }

    fn example_states() -> Vec<SamplerState<u64>> {
        vec![
            SamplerState::SeqWr {
                count: 100,
                accepts: 7,
                rng: RngState([1, 2, 3, 4]),
                lanes: vec![
                    SeqWrLaneState {
                        prev: Some(sample(5)),
                        cur: None,
                        next_accept: u64::MAX,
                    },
                    SeqWrLaneState {
                        prev: None,
                        cur: Some(sample(9)),
                        next_accept: 42,
                    },
                ],
            },
            SamplerState::SeqWor {
                count: 50,
                rng: RngState([9, 8, 7, 6]),
                prev: vec![sample(1), sample(2)],
                cur: ReservoirLState {
                    entries: vec![sample(3)],
                    seen: 10,
                    next_accept: 12,
                    w_bits: 0.5f64.to_bits(),
                },
            },
            SamplerState::StreamL {
                next_index: 33,
                rng: RngState([0, 0, 0, 1]),
                res: ReservoirLState {
                    entries: vec![],
                    seen: 0,
                    next_accept: 0,
                    w_bits: 1.0f64.to_bits(),
                },
            },
            SamplerState::TsWr {
                now: 77,
                next_index: 12,
                rng: RngState([4, 3, 2, 1]),
                bank: TsBankState {
                    now: 77,
                    bits: BitsState {
                        buf: 0b1011,
                        left: 4,
                    },
                    kind: TsBankKind::Straddle {
                        head: TsBankBucketState {
                            a: 0,
                            b: 8,
                            ts_first: 1,
                            samples: TsLaneSamplesState::Pair {
                                lo: sample(1),
                                hi: sample(2),
                                rsel: 0b01,
                                qsel: 0b10,
                            },
                        },
                        tail: vec![TsBankBucketState {
                            a: 8,
                            b: 12,
                            ts_first: 8,
                            samples: TsLaneSamplesState::PerLane {
                                r: vec![sample(3), sample(4)],
                                q: vec![sample(5), sample(6)],
                            },
                        }],
                    },
                },
            },
            SamplerState::TsWor {
                now: 5,
                next_index: 6,
                rng: RngState([11, 12, 13, 14]),
                recent: vec![sample(7)],
                bank: TsBankState {
                    now: 4,
                    bits: BitsState { buf: 0, left: 0 },
                    kind: TsBankKind::Full(vec![TsBankBucketState {
                        a: 0,
                        b: 4,
                        ts_first: 0,
                        samples: TsLaneSamplesState::Shared(sample(8)),
                    }]),
                },
            },
            SamplerState::Chain {
                count: 9,
                rng: RngState([5, 5, 5, 5]),
                bits: BitsState {
                    buf: u64::MAX,
                    left: 64,
                },
                chains: vec![ChainLaneState {
                    links: vec![(sample(1), 4), (sample(4), 9)],
                    next_adopt: 9,
                }],
            },
            SamplerState::Priority {
                now: 3,
                next_index: 4,
                rng: RngState([6, 6, 6, 6]),
                stacks: vec![vec![(sample(1), 900), (sample(2), 400)], vec![]],
            },
            SamplerState::PriorityTopK {
                now: 3,
                next_index: 4,
                rng: RngState([7, 7, 7, 7]),
                entries: vec![(sample(1), 100)],
                watermark: 1,
            },
            SamplerState::WindowBuffer {
                now: 2,
                next_index: 3,
                rng: RngState([8, 8, 8, 8]),
                buf: vec![sample(0), sample(1)],
            },
        ]
    }

    #[test]
    fn round_trip_every_family() {
        for state in example_states() {
            let bytes = state.encode_record();
            let back = SamplerState::<u64>::decode_record(&bytes)
                .unwrap_or_else(|e| panic!("{}: {e}", state.family()));
            assert_eq!(back, state, "{}", state.family());
        }
    }

    /// A standalone record in the fixed-width version-1 layout, as
    /// earlier builds wrote it.
    fn encode_v1_record(state: &SamplerState<u64>) -> Vec<u8> {
        let mut w = StateWriter::for_state_version(1);
        w.put_u32(1);
        state.encode_payload(&mut w);
        let mut bytes = w.into_bytes();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    #[test]
    fn version_1_records_still_decode_and_version_2_is_smaller() {
        for state in example_states() {
            let v1 = encode_v1_record(&state);
            let back = SamplerState::<u64>::decode_record(&v1)
                .unwrap_or_else(|e| panic!("{} v1: {e}", state.family()));
            assert_eq!(back, state, "{}", state.family());
            let v2 = state.encode_record();
            assert!(
                v2.len() < v1.len(),
                "{}: v2 {} bytes, v1 {} bytes",
                state.family(),
                v2.len(),
                v1.len()
            );
        }
    }

    #[test]
    fn varint_fields_store_sentinels_in_one_byte() {
        let mut w = StateWriter::for_state_version(STATE_VERSION);
        for v in [u64::MAX, 0, 126] {
            w.put_field(v);
        }
        w.put_count(3);
        assert_eq!(w.as_bytes(), &[0x00, 0x01, 0x7F, 0x04]);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        r.set_state_version(STATE_VERSION).expect("supported");
        assert_eq!(r.get_field(), Ok(u64::MAX));
        assert_eq!(r.get_field(), Ok(0));
        assert_eq!(r.get_field(), Ok(126));
        // A count of 3 with no elements behind it is bounded, not trusted.
        assert!(r.get_count(1).is_err());
        // Version 1 keeps the fixed-width layout.
        let mut w = StateWriter::for_state_version(1);
        w.put_field(u64::MAX);
        w.put_count(3);
        assert_eq!(w.len(), 12);
        assert_eq!(
            StateReader::new(&[]).set_state_version(STATE_VERSION + 1),
            Err(StateError::Version(STATE_VERSION + 1))
        );
    }

    #[test]
    fn string_values_round_trip() {
        let state = SamplerState::WindowBuffer {
            now: 1,
            next_index: 2,
            rng: RngState([1, 2, 3, 4]),
            buf: vec![Sample::new("héllo".to_string(), 0, 0)],
        };
        let bytes = state.encode_record();
        let back = SamplerState::<String>::decode_record(&bytes).expect("decode");
        assert_eq!(back, state);
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let state = &example_states()[0];
        let bytes = state.encode_record();
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    SamplerState::<u64>::decode_record(&bad).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_an_error() {
        let state = &example_states()[3]; // ts-wr: deepest nesting
        let bytes = state.encode_record();
        for len in 0..bytes.len() {
            assert!(
                SamplerState::<u64>::decode_record(&bytes[..len]).is_err(),
                "truncation to {len} bytes went undetected"
            );
        }
    }

    #[test]
    fn version_skew_is_reported() {
        let state = &example_states()[0];
        let mut bytes = state.encode_record();
        // Patch the version field and re-stamp the checksum so only the
        // version check can object.
        bytes[0] = 99;
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
        assert_eq!(
            SamplerState::<u64>::decode_record(&bytes),
            Err(StateError::Version(99))
        );
    }

    #[test]
    fn varint_round_trips_and_rejects_overlong() {
        let probes = [
            0u64,
            1,
            0x7F,
            0x80,
            300,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut w = StateWriter::new();
        for &v in &probes {
            w.put_varint_u64(v);
        }
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        for &v in &probes {
            assert_eq!(r.get_varint_u64().expect("round trip"), v);
        }
        r.finish().expect("exact consumption");
        // 11 continuation bytes: longer than any valid u64 varint.
        let overlong = [0x80u8; 11];
        assert!(StateReader::new(&overlong).get_varint_u64().is_err());
        // 10 bytes whose final byte pushes past 64 bits.
        let overflow = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        assert!(StateReader::new(&overflow).get_varint_u64().is_err());
        // Truncated mid-varint is corruption, not a panic.
        assert!(StateReader::new(&[0x80u8]).get_varint_u64().is_err());
    }

    #[test]
    fn crc32_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_sliced_matches_bytewise_at_every_length() {
        // The slicing-by-8 fold must agree with the defining
        // byte-at-a-time recurrence at every length mod 8 (chunked
        // path, remainder path, and their seam).
        fn reference(bytes: &[u8]) -> u32 {
            let mut c = !0u32;
            for &b in bytes {
                c ^= b as u32;
                for _ in 0..8 {
                    c = if c & 1 == 1 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                }
            }
            !c
        }
        let data: Vec<u8> = (0u32..64)
            .map(|i| (i.wrapping_mul(167) >> 3) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn huge_count_does_not_allocate() {
        // A corrupted count must be rejected by bounds, not by OOM, in
        // either layout.
        for version in [1, STATE_VERSION] {
            let mut w = StateWriter::for_state_version(version);
            w.put_u32(version);
            w.put_u8(super::TAG_PRIORITY);
            w.put_field(0);
            w.put_field(0);
            put_rng(&mut w, &RngState([1, 2, 3, 4]));
            w.put_count(u32::MAX as usize); // absurd stack count
            let mut bytes = w.into_bytes();
            let crc = crc32(&bytes);
            bytes.extend_from_slice(&crc.to_le_bytes());
            let err = SamplerState::<u64>::decode_record(&bytes).expect_err("must reject");
            assert!(matches!(err, StateError::Corrupt(_)), "v{version}: {err:?}");
        }
    }
}
