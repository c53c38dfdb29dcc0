//! [`MultiStreamEngine`] — a sharded, multi-core fleet of per-key window
//! samplers over a slab key registry.
//!
//! The paper maintains *one* window sample; a serving system maintains
//! one **per user**: millions of independent logical streams multiplexed
//! over one physical event feed, each answering the same window queries.
//! This engine is that shape. It owns a sharded registry of per-key
//! samplers, all built lazily from a single template [`SamplerSpec`]
//! (each key gets its own derived RNG seed, so per-key sample streams
//! are mutually independent), and ingests a keyed batch in shard-major,
//! key-major order so the per-sampler batch fast paths (skip-ahead hops,
//! engine-major timestamp ingestion) still fire even when arrivals
//! interleave keys.
//!
//! The module splits along the engine's two concerns beside the shard
//! itself:
//!
//! * `registry` — key hashing, the shard-fold rule, seed derivation, and
//!   the open-addressing slab index (`key → u32` slot ids);
//! * `parallel` — the skew-aware work-stealing scheduler.
//!
//! Each shard holds its registry and one boxed [`ErasedWindowSampler`]
//! per key at the same slot, built by the engine's [`SamplerFactory`]
//! (so every algorithm family the factory covers, baselines included,
//! can run as a fleet).
//!
//! # The slab key registry
//!
//! Each shard keeps its keys in an **open-addressing index table**
//! (linear probing, `u32` slot ids, load factor ≤ ½) over a **contiguous
//! key slab**, appended in first-touch order. The hot probe loop touches
//! two dense arrays (table, key slab) instead of hash-map nodes
//! scattered across the heap, and under skewed (zipf) traffic the
//! hottest keys arrive first, so their entries cluster at the front and
//! stay cache-resident. Batched ingestion resolves every event to its
//! slot id up front, then dispatches grouped per slot (`slot << 32 |
//! position` words, preserving per-key arrival order).
//!
//! # Parallel ingestion and concurrent queries
//!
//! Shard-ownership makes multi-core ingestion embarrassingly safe: a
//! key's sampler lives in exactly one shard, so processing different
//! shards on different threads cannot race.
//! [`MultiStreamEngine::ingest_parallel`] carves a keyed batch into
//! **shard-run units** (one per non-empty shard, arrival order
//! preserved), orders them largest-first (LPT), and publishes them in a
//! lock-free claim queue that persistent stealer threads — and the
//! calling thread itself — drain by atomic cursor, so a zipf-hot shard
//! no longer pins one worker while the rest idle. Batches are
//! double-buffered: the call prepares and publishes its epoch while the
//! previous epoch's tail drains, and returns once every unit of its own
//! epoch is claimed (the two-slot handshake in the `parallel` module
//! replaces
//! the old per-batch completion barrier). Per-key RNG seeds are
//! splitmix-derived from the key alone, each shard is exactly one unit
//! per epoch (one-shard-one-worker, counter-asserted), and epochs never
//! overlap in execution, so the resulting per-key samples are
//! **bit-identical for every thread count** — including the serial
//! [`ingest`](MultiStreamEngine::ingest) path. `threads = 1` (the
//! default) never spawns a pool. Scheduler behavior is observable via
//! [`MultiStreamEngine::parallel_stats`].
//!
//! Shards sit behind `RwLock`s: ingestion takes a shard's write lock,
//! while sample queries, key census, accounting, and checkpoints share
//! the read lock (a sampler query is a pure function of the key's state
//! and clock; see [`WindowSampler`](swsample_core::WindowSampler)).
//! Every query and checkpoint first waits on the epoch watermark (all
//! published batches applied), so sequential ingest-then-read still
//! observes exactly the ingested prefix.
//! `ingest_parallel` takes `&self`, so queries may run during
//! ingestion; batches submitted concurrently from several threads are
//! applied atomically per shard but in unspecified relative order —
//! determinism is stated for sequentially submitted batches. A
//! deferred sampler panic from an outstanding epoch surfaces at the
//! next ingest call or [`MultiStreamEngine::flush`].
//!
//! Memory scales as the paper promises per key: a fleet of `m` active
//! keys with a sequence-WR template costs at most `m · (7k + 3)` words —
//! deterministic, because every per-key sampler inherits its theorem's
//! hard ceiling. The typical count is lower and depends on the samples
//! drawn: a seq-WR bucket stores each element its lanes hold once (plus
//! a small per-lane selector), so a key whose lanes repeat few elements
//! costs far less than the ceiling (about 21 words at `k = 16` on a
//! 100k-key zipf fleet, against 115). [`MultiStreamEngine::memory_words`]
//! and [`MultiStreamEngine::max_key_memory_words`] expose both sides of
//! that accounting, and
//! [`MultiStreamEngine::registry_overhead_words`] reports the registry
//! scaffolding (index table + key slab + each sampler's box pointer) that
//! the paper's §1.4 model excludes.
//!
//! ```
//! use swsample_core::spec::SamplerSpec;
//! use swsample_stream::MultiStreamEngine;
//!
//! // One 100-arrival WR window per user key.
//! let spec: SamplerSpec = "--window seq --n 100 --k 4 --seed 7".parse().unwrap();
//! let mut engine: MultiStreamEngine<u64, u64> = MultiStreamEngine::new(spec).unwrap();
//! engine.ingest(&[(17, 0, 111), (42, 0, 222), (17, 1, 333)]);
//! assert_eq!(engine.num_keys(), 2);
//! assert_eq!(engine.sample_k(&17).unwrap().len(), 4);
//! assert!(engine.sample_k(&7).is_none(), "untouched key has no window");
//! ```
//!
//! Sharding uses an FxHash-style multiply-rotate hash (the rustc /
//! Firefox workhorse) implemented locally — fast, deterministic across
//! runs, and dependency-free.

mod parallel;
mod registry;

use std::hash::Hash;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, TryLockError};

use swsample_core::spec::{FleetBackend, SamplerFactory, SamplerSpec, SpecError, WindowKind};
use swsample_core::state::{SamplerState, StateError};
use swsample_core::{ErasedWindowSampler, MemoryWords, Sample};

use self::parallel::{ingest_guarded, Epoch, WorkStealPool};
use self::registry::{fx_hash_key, mix_seed, shard_of, KeyRegistry, SLOT_MASK};

pub use self::parallel::{ParallelStats, WorkerPanic, WorkerStats};
pub use self::registry::{FxBuildHasher, FxHasher};

/// One keyed event: `(key, now, value)`. `now` is the arrival timestamp
/// for timestamp-window templates; sequence templates ignore it.
pub type KeyedEvent<K, T> = (K, u64, T);

/// A shard's per-batch routing entry: `(position, key hash)`. Positions
/// index into the batch handed to `Shard::ingest` alongside the route.
pub(crate) type Route = Vec<(u32, u64)>;

/// One shard: the key registry plus the per-key samplers, and
/// everything needed to materialize new keys without consulting the
/// engine (so a worker thread can run a shard in isolation).
pub(crate) struct Shard<K, T: Clone> {
    registry: KeyRegistry<K>,
    /// One boxed sampler per key, slot-aligned with `registry`. A box
    /// holds exactly the state its sampler's theorem bounds, so the
    /// fleet's word accounting is the sum of the samplers' own.
    samplers: Vec<Box<dyn ErasedWindowSampler<T>>>,
    /// New keys' samplers are `factory(template)` with the seed
    /// splitmix-derived from the template seed and the key hash.
    template: SamplerSpec,
    factory: SamplerFactory<T>,
    /// Timestamp-window template: key runs must be split into
    /// same-timestamp sub-runs and enter through `advance_and_insert`.
    /// Sequence / whole-stream templates ignore the clock entirely, so
    /// their runs dispatch per element regardless of timestamps.
    split_ts: bool,
    /// Grouping scratch: `slot << 32 | position`, per batch.
    order: Vec<u64>,
    /// Run scratch: the values of one per-key (sub-)run.
    run: Vec<T>,
}

/// Per-element dispatch in arrival order: the shape sequence and
/// whole-stream families take (`insert` is their reference path —
/// `insert_batch` is defined as its exact repetition, so this is
/// bit-identical to any grouping, and the skip fast path is two
/// compares, cheaper than a slot sort).
#[inline]
fn dispatch_seq<K, T: Clone>(
    order: &[u64],
    batch: &[KeyedEvent<K, T>],
    mut sink: impl FnMut(usize, T),
) {
    for &word in order {
        let (slot, pos) = ((word >> 32) as usize, (word & SLOT_MASK) as usize);
        sink(slot, batch[pos].2.clone());
    }
}

/// Grouped dispatch for timestamp families: slot-major, then maximal
/// same-timestamp sub-runs in arrival order, one `sink` call each. Their
/// engine-major batch path is the fast path *and* orders RNG draws
/// differently from per-element ingestion, so every thread count (and
/// the serial path) must use this same grouping. `order` must already be
/// sorted.
#[inline]
fn dispatch_ts<K, T: Clone>(
    order: &[u64],
    batch: &[KeyedEvent<K, T>],
    run: &mut Vec<T>,
    mut sink: impl FnMut(usize, u64, &[T]),
) {
    let mut i = 0;
    while i < order.len() {
        let slot = (order[i] >> 32) as usize;
        let mut end = i + 1;
        while end < order.len() && (order[end] >> 32) as usize == slot {
            end += 1;
        }
        let mut j = i;
        while j < end {
            let now = batch[(order[j] & SLOT_MASK) as usize].1;
            run.clear();
            while j < end {
                let ev = &batch[(order[j] & SLOT_MASK) as usize];
                if ev.1 != now {
                    break;
                }
                run.push(ev.2.clone());
                j += 1;
            }
            sink(slot, now, run);
        }
        i = end;
    }
}

impl<K: Hash + Eq + Clone, T: Clone + 'static> Shard<K, T> {
    fn new(template: &SamplerSpec, factory: SamplerFactory<T>) -> Self {
        Self {
            registry: KeyRegistry::new(),
            samplers: Vec::new(),
            template: template.clone(),
            factory,
            split_ts: matches!(template.window, WindowKind::Timestamp(_)),
            order: Vec::new(),
            run: Vec::new(),
        }
    }

    /// `key`'s slot, materializing its sampler on first touch.
    #[inline]
    fn slot_of(&mut self, hash: u64, key: &K) -> usize {
        let (slot, is_new) = self.registry.get_or_insert(hash, key);
        if is_new {
            let mut spec = self.template.clone();
            spec.seed = mix_seed(self.template.seed, hash);
            let sampler = (self.factory)(&spec).expect("template was validated at construction");
            self.samplers.push(sampler);
        }
        slot
    }

    /// Ingest this shard's portion of a keyed batch. `route` lists the
    /// shard's events as `(position into batch, key hash)` in arrival
    /// order; grouping per slot preserves that order, so the result is
    /// independent of how the batch was interleaved or which thread runs
    /// the shard.
    pub(crate) fn ingest(&mut self, batch: &[KeyedEvent<K, T>], route: &[(u32, u64)]) {
        // Probe loop first, dispatch loop second: probe iterations are
        // independent (table + key loads), so their cache misses overlap,
        // and the dispatch loop then starts from warm slab entries with
        // its sampler-state misses overlapping each other instead of
        // queueing behind each element's probe chain.
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        // Warm pass: touch every event's home bucket in a branchless
        // loop. The loads are mutually independent, so they overlap up
        // to the memory system's parallelism; the probe loop right after
        // then runs against warm lines instead of serializing one miss
        // per element behind its branches.
        let mut warm = 0u64;
        for &(_, hash) in route {
            warm ^= self.registry.home_bucket(hash);
        }
        std::hint::black_box(warm);
        for &(pos, hash) in route {
            let slot = self.slot_of(hash, &batch[pos as usize].0);
            order.push((slot as u64) << 32 | pos as u64);
        }
        let samplers = &mut self.samplers;
        if !self.split_ts {
            // Per-element arrival order: the trait surface has no run
            // kernel, and a slot sort would only add cost ahead of the
            // same vtable calls.
            dispatch_seq(&order, batch, |slot, v| samplers[slot].insert(v));
            self.order = order;
            return;
        }
        order.sort_unstable();
        let mut run = std::mem::take(&mut self.run);
        dispatch_ts(&order, batch, &mut run, |slot, now, r| {
            samplers[slot].advance_and_insert(now, r)
        });
        run.clear();
        self.order = order;
        self.run = run;
    }

    /// Registry scaffolding in words (8 bytes) plus, per the §1.4
    /// exclusions, each boxed sampler's fat pointer (2 words).
    fn overhead_words(&self) -> usize {
        self.registry.overhead_words() + self.samplers.len() * 2
    }
}

/// A sharded registry of independent per-key window samplers, all
/// described by one template [`SamplerSpec`]. See the [module
/// docs](self) for the registry layout and the parallel-ingestion model.
pub struct MultiStreamEngine<K, T: Clone> {
    template: SamplerSpec,
    /// The per-key sampler factory, retained for shard rebuilds
    /// ([`set_shards`](Self::set_shards)).
    factory: SamplerFactory<T>,
    shards: Vec<Arc<RwLock<Shard<K, T>>>>,
    shard_mask: u64,
    /// Worker threads `ingest_parallel` uses (1 = inline, no pool).
    threads: usize,
    pool: Option<WorkStealPool<K, T>>,
    /// Per-shard "executing" flags the scheduler uses to assert the
    /// one-shard-one-worker invariant (shared into each epoch).
    exec_flags: Arc<Vec<AtomicBool>>,
    /// Serial-path scratch: per-shard routes into the caller's batch,
    /// reused across batches by both serial entry points and sized to
    /// the shard count on use.
    routes: Mutex<Vec<Route>>,
}

impl<K, T: Clone> std::fmt::Debug for MultiStreamEngine<K, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiStreamEngine")
            .field("template", &self.template)
            .field("shards", &self.shards.len())
            .field("threads", &self.threads)
            .finish()
    }
}

impl<K, T: Clone> MultiStreamEngine<K, T> {
    /// Wait until every published parallel epoch has been applied (two
    /// atomic loads when nothing is outstanding). Every read path calls
    /// this so sequential ingest-then-query semantics survive the
    /// double-buffered pipeline; deferred panics stay parked for the
    /// next ingest/flush.
    #[inline]
    fn sync(&self) {
        if let Some(pool) = &self.pool {
            pool.barrier();
        }
    }

    /// Snapshot of the work-stealing scheduler's lifetime counters:
    /// epochs applied, per-worker units claimed/stolen and busy time,
    /// and the one-shard-one-worker violation count (always 0 unless
    /// the scheduler is broken). All zeros while `threads == 1` (the
    /// inline path never publishes epochs).
    pub fn parallel_stats(&self) -> ParallelStats {
        match &self.pool {
            Some(pool) => pool.stats(),
            None => ParallelStats {
                threads: self.threads,
                ..ParallelStats::default()
            },
        }
    }
}

impl<K: Hash + Eq + Clone, T: Clone + Send + Sync + 'static> MultiStreamEngine<K, T> {
    /// Default shard count: enough to keep per-shard tables small (and
    /// parallel ingestion balanced) without bloating empty engines.
    pub const DEFAULT_SHARDS: usize = 16;

    /// Engine whose per-key samplers are built by
    /// [`SamplerSpec::build`] — i.e. the template must use a core-owned
    /// algorithm (paper or reservoir-l). Validates (and test-builds) the
    /// template eagerly.
    pub fn new(template: SamplerSpec) -> Result<Self, SpecError> {
        Self::with_factory(template, Self::DEFAULT_SHARDS, SamplerSpec::build::<T>)
    }

    /// Engine with an explicit shard count and sampler factory. Pass
    /// `swsample_baselines::spec::build` to allow baseline-algorithm
    /// templates. `shards` is rounded up to a power of two.
    pub fn with_factory(
        template: SamplerSpec,
        shards: usize,
        factory: SamplerFactory<T>,
    ) -> Result<Self, SpecError> {
        // Fail now, not on the millionth event: the factory must accept
        // the template (validity + algorithm coverage in one probe).
        factory(&template)?;
        let shards = shards.max(1).next_power_of_two();
        let slabs = (0..shards)
            .map(|_| Arc::new(RwLock::new(Shard::new(&template, factory))))
            .collect();
        Ok(Self {
            template,
            factory,
            shard_mask: shards as u64 - 1,
            shards: slabs,
            threads: 1,
            pool: None,
            exec_flags: Arc::new((0..shards).map(|_| AtomicBool::new(false)).collect()),
            routes: Mutex::new(Vec::new()),
        })
    }

    /// The template every per-key sampler is built from (per-key seeds
    /// are derived from its `seed`).
    pub fn template(&self) -> &SamplerSpec {
        &self.template
    }

    /// Number of shards (a power of two).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of keys with materialized samplers.
    pub fn num_keys(&self) -> usize {
        self.sync();
        self.shards
            .iter()
            .map(|s| self.read(s).registry.len())
            .sum()
    }

    /// Worker threads [`ingest_parallel`](Self::ingest_parallel) uses.
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    #[inline]
    fn shard_of(&self, hash: u64) -> usize {
        shard_of(hash, self.shard_mask)
    }

    #[inline]
    #[allow(clippy::type_complexity)]
    fn read<'a>(&self, shard: &'a Arc<RwLock<Shard<K, T>>>) -> RwLockReadGuard<'a, Shard<K, T>> {
        shard.read().expect("shard lock poisoned")
    }

    /// Ingest a keyed batch: `(key, now, value)` triples with
    /// non-decreasing `now` per key (for timestamp-window templates;
    /// sequence templates ignore `now`).
    ///
    /// Events are routed per shard, resolved to slab slots, and
    /// dispatched grouped (preserving per-key arrival order), so each
    /// key's run enters its sampler through the batch fast paths even on
    /// heavily interleaved feeds. Samplers for unseen keys are created
    /// lazily from the template. The result is bit-identical to
    /// [`ingest_parallel`](Self::ingest_parallel) at any thread count.
    ///
    /// # Panics
    /// Panics if the batch exceeds `u32::MAX` events, and re-raises a
    /// per-key sampler panic (e.g. a key's timestamps running backwards)
    /// with the structured [`WorkerPanic`] message once the whole batch
    /// has been routed: the batch's other shards still apply, and no
    /// shard lock is poisoned, so the fleet stays queryable and
    /// ingestible. The first panic in shard order is re-raised.
    pub fn ingest(&mut self, batch: &[KeyedEvent<K, T>]) {
        if batch.is_empty() {
            return;
        }
        assert!(
            batch.len() <= u32::MAX as usize,
            "batch exceeds u32 positions"
        );
        if let Err(panic) = self.ingest_inline(batch) {
            panic!("{panic}");
        }
    }

    /// The one serial ingest path, behind [`ingest`](Self::ingest) and
    /// the inline branch of [`try_ingest_parallel`](Self::try_ingest_parallel):
    /// route each event as `(position, key hash)` into its shard's
    /// route (the engine's `routes` scratch, or fresh buffers while a
    /// concurrent caller holds it) — no copies; a key is cloned only on
    /// first touch — then run the shards one at a time under
    /// [`ingest_guarded`], which catches a sampler panic without
    /// poisoning the shard lock. Returns the first panic in shard order.
    fn ingest_inline(&self, batch: &[KeyedEvent<K, T>]) -> Result<(), WorkerPanic> {
        // A still-draining parallel epoch must fully apply before a
        // serial batch may touch the shards (per-shard batch order is
        // the determinism contract).
        self.sync();
        let mut held = match self.routes.try_lock() {
            Ok(routes) => Some(routes),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        };
        let mut fresh = Vec::new();
        let routes = held.as_deref_mut().unwrap_or(&mut fresh);
        routes.resize_with(self.shards.len(), Vec::new);
        for route in routes.iter_mut() {
            route.clear();
        }
        for (pos, (key, _, _)) in batch.iter().enumerate() {
            let hash = fx_hash_key(key);
            routes[self.shard_of(hash)].push((pos as u32, hash));
        }
        let mut first_panic = None;
        for (s, (shard, route)) in self.shards.iter().zip(routes.iter()).enumerate() {
            if route.is_empty() {
                continue;
            }
            if let Err(p) = ingest_guarded(shard, batch, route, 0, s) {
                first_panic.get_or_insert(p);
            }
        }
        first_panic.map_or(Ok(()), Err)
    }

    /// The key's current `k`-sample, or `None` if the key has never
    /// arrived or its window is empty. Takes the shard's read lock: a
    /// query leaves the key's sampler unchanged.
    pub fn sample_k(&self, key: &K) -> Option<Vec<Sample<T>>> {
        self.sync();
        let hash = fx_hash_key(key);
        let guard = self.read(&self.shards[self.shard_of(hash)]);
        let slot = guard.registry.find(hash, key)?;
        guard.samplers[slot].sample_k()
    }

    /// [`sample_k`](Self::sample_k) for many keys in one pass, one
    /// result per input key in order. Keys are grouped by shard so each
    /// shard's lock is taken once — the scheduler tick of a server
    /// evaluating many standing queries against a snapshot-consistent
    /// shard view, without `keys.len()` lock round-trips.
    pub fn sample_k_many(&self, keys: &[K]) -> Vec<Option<Vec<Sample<T>>>> {
        self.sync();
        let mut out: Vec<Option<Vec<Sample<T>>>> = (0..keys.len()).map(|_| None).collect();
        // (position, hash) per shard, reusing the ingest routing shape.
        let mut by_shard: Vec<Vec<(usize, u64)>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for (pos, key) in keys.iter().enumerate() {
            let hash = fx_hash_key(key);
            by_shard[self.shard_of(hash)].push((pos, hash));
        }
        for (shard, routed) in self.shards.iter().zip(&by_shard) {
            if routed.is_empty() {
                continue;
            }
            let guard = self.read(shard);
            for &(pos, hash) in routed {
                if let Some(slot) = guard.registry.find(hash, &keys[pos]) {
                    out[pos] = guard.samplers[slot].sample_k();
                }
            }
        }
        out
    }

    /// One uniform sample from the key's window, or `None` as in
    /// [`sample_k`](MultiStreamEngine::sample_k).
    pub fn sample(&self, key: &K) -> Option<Sample<T>> {
        self.sync();
        let hash = fx_hash_key(key);
        let guard = self.read(&self.shards[self.shard_of(hash)]);
        let slot = guard.registry.find(hash, key)?;
        guard.samplers[slot].sample()
    }

    /// Has this key a materialized sampler?
    pub fn contains_key(&self, key: &K) -> bool {
        self.sync();
        let hash = fx_hash_key(key);
        self.read(&self.shards[self.shard_of(hash)])
            .registry
            .find(hash, key)
            .is_some()
    }

    /// All materialized keys (shard order, first-touch order within a
    /// shard). Cloned out because keys live behind the shard locks.
    pub fn keys(&self) -> Vec<K> {
        self.sync();
        self.shards
            .iter()
            .flat_map(|s| self.read(s).registry.keys().to_vec())
            .collect()
    }

    /// Largest single-key footprint in words — the quantity the paper's
    /// per-window theorems cap deterministically.
    pub fn max_key_memory_words(&self) -> usize {
        self.sync();
        self.shards
            .iter()
            .map(|s| {
                let shard = self.read(s);
                shard
                    .samplers
                    .iter()
                    .map(|s| s.memory_words())
                    .max()
                    .unwrap_or(0)
            })
            .max()
            .unwrap_or(0)
    }

    /// Registry scaffolding in words (8 bytes): the tagged index-table
    /// words, the slab keys, and per-key bookkeeping (each boxed
    /// sampler's fat pointer). Outside the paper's §1.4 stream-element
    /// model — reported separately so fleet sizing can account for it;
    /// at the ≤ ½ load factor this is `2..=4` bucket words per key
    /// (depending on where the table sits between doublings) plus
    /// `size_of::<K>()/8` key words plus 2 box words.
    pub fn registry_overhead_words(&self) -> usize {
        self.sync();
        self.shards
            .iter()
            .map(|s| self.read(s).overhead_words())
            .sum()
    }

    /// Checkpoint every materialized key: `(key, state)` pairs in
    /// shard-major, first-touch slot order, `O(k)` words per key.
    ///
    /// Records are shard-layout-free, so a checkpoint restores onto any
    /// shard or thread count, reproducing bit-identical samples.
    ///
    /// `Err(StateError::Unsupported)` if the template's family has no
    /// durable state (externally supplied factories whose samplers opt
    /// out, such as the per-engine timestamp reference types).
    pub fn save_states(&self) -> Result<Vec<(K, SamplerState<T>)>, StateError> {
        let mut out = Vec::with_capacity(self.num_keys());
        self.for_each_state(|key, state| {
            out.push((key.clone(), state));
            Ok(())
        })?;
        Ok(out)
    }

    /// Streaming [`save_states`](Self::save_states): after the epoch
    /// sync, hand `visit` each materialized key's state in the same
    /// shard-major, first-touch slot order, one shard at a time under
    /// its read lock — so a checkpoint writer can encode the fleet
    /// without ever holding all of it in memory. Stops at the first
    /// error, `visit`'s own or [`StateError::Unsupported`].
    pub fn for_each_state<E: From<StateError>>(
        &self,
        mut visit: impl FnMut(&K, SamplerState<T>) -> Result<(), E>,
    ) -> Result<(), E> {
        self.sync();
        for shard in &self.shards {
            let guard = self.read(shard);
            for (key, sampler) in guard.registry.keys().iter().zip(&guard.samplers) {
                let state = sampler.save_state().ok_or(StateError::Unsupported)?;
                visit(key, state)?;
            }
        }
        Ok(())
    }

    /// Restore a checkpoint taken by [`save_states`](Self::save_states)
    /// on an engine built from the **same template**: keys are
    /// materialized as needed (in the order given, which fixes slot
    /// order) and each key's sampler state is overwritten.
    ///
    /// On error the engine is left with the records before the failing
    /// one applied; callers treating restore as transactional should
    /// rebuild the engine. Mixed-family records fail with
    /// [`StateError::Mismatch`].
    pub fn restore_states(
        &mut self,
        states: impl IntoIterator<Item = (K, SamplerState<T>)>,
    ) -> Result<(), StateError> {
        self.sync();
        for (key, state) in states {
            let hash = fx_hash_key(&key);
            let shard = &self.shards[self.shard_of(hash)];
            let mut guard = shard.write().expect("shard lock poisoned");
            let slot = guard.slot_of(hash, &key);
            guard.samplers[slot].restore_state(state)?;
        }
        Ok(())
    }
}

impl<K, T> MultiStreamEngine<K, T>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + 'static,
{
    /// Engine with an explicit shard count, factory, and worker-thread
    /// count for [`ingest_parallel`](Self::ingest_parallel).
    pub fn with_threads(
        template: SamplerSpec,
        shards: usize,
        factory: SamplerFactory<T>,
        threads: usize,
    ) -> Result<Self, SpecError> {
        let mut engine = Self::with_factory(template, shards, factory)?;
        engine.set_threads(threads);
        Ok(engine)
    }

    /// [`with_threads`](Self::with_threads) under the older signature;
    /// the one-variant [`FleetBackend`] selects nothing and is ignored.
    pub fn with_backend(
        template: SamplerSpec,
        shards: usize,
        factory: SamplerFactory<T>,
        threads: usize,
        _backend: FleetBackend,
    ) -> Result<Self, SpecError> {
        Self::with_threads(template, shards, factory, threads)
    }

    /// Set the worker-thread count for subsequent
    /// [`ingest_parallel`](Self::ingest_parallel) calls. `1` (the
    /// default) ingests inline; higher counts spawn the persistent
    /// stealer pool immediately (so `ingest_parallel` can take `&self`
    /// and run concurrently with queries). Capped at the shard count
    /// (extra workers could never hold a unit). Rescaling a live pool
    /// **reuses** its workers: growing spawns only the missing stealers,
    /// shrinking retires only the excess (each finishes its in-flight
    /// unit first) — scheduler counters persist across the rescale, and
    /// samples are unaffected (thread count never influences them).
    pub fn set_threads(&mut self, threads: usize) {
        let threads = threads.clamp(1, self.shards.len());
        if threads == self.threads {
            return;
        }
        self.threads = threads;
        match &mut self.pool {
            Some(pool) => pool.resize(threads),
            None if threads > 1 => self.pool = Some(WorkStealPool::spawn(threads)),
            None => {}
        }
    }

    /// Wait for every published batch to finish applying and surface a
    /// deferred [`WorkerPanic`], if one is parked.
    ///
    /// The double-buffered pipeline means
    /// [`try_ingest_parallel`](Self::try_ingest_parallel) can return
    /// before its own batch has fully drained (the report then arrives
    /// at the *next* call). Queries synchronize implicitly; call this
    /// at end-of-stream to collect the last batch's verdict explicitly.
    /// A no-op `Ok(())` on the inline (`threads == 1`) path.
    pub fn flush(&self) -> Result<(), WorkerPanic> {
        match &self.pool {
            Some(pool) => pool.flush(),
            None => Ok(()),
        }
    }

    /// Live rescale: change the shard count mid-stream by checkpointing
    /// every key ([`save_states`](Self::save_states)), rebuilding the
    /// shard array, and restoring. Per-key sample streams are untouched
    /// — seeds derive from keys alone and the state records are
    /// shard-layout-free — so the sample distribution (in fact, every
    /// future sample, bit for bit) is unchanged. `shards` is rounded up
    /// to a power of two; the worker-thread count is re-clamped to the
    /// new shard count.
    ///
    /// On `Err` the engine keeps its original shards, untouched.
    pub fn set_shards(&mut self, shards: usize) -> Result<(), StateError> {
        let shards = shards.max(1).next_power_of_two();
        if shards == self.shards.len() {
            return Ok(());
        }
        let states = self.save_states()?; // syncs: no epoch outlives the old shards
        let slabs = (0..shards)
            .map(|_| Arc::new(RwLock::new(Shard::new(&self.template, self.factory))))
            .collect();
        let old_shards = std::mem::replace(&mut self.shards, slabs);
        let old_mask = std::mem::replace(&mut self.shard_mask, shards as u64 - 1);
        self.exec_flags = Arc::new((0..shards).map(|_| AtomicBool::new(false)).collect());
        if let Err(e) = self.restore_states(states) {
            // Restoring our own just-saved records onto same-template
            // shards cannot family-mismatch; keep the engine usable
            // anyway by reinstating the old shards.
            self.shards = old_shards;
            self.shard_mask = old_mask;
            self.exec_flags = Arc::new(
                (0..self.shards.len())
                    .map(|_| AtomicBool::new(false))
                    .collect(),
            );
            return Err(e);
        }
        // Threads are capped at the shard count; re-apply the clamp
        // (reusing live stealers, as in `set_threads`).
        let threads = self.threads.clamp(1, shards);
        if threads != self.threads {
            self.threads = threads;
            if let Some(pool) = &mut self.pool {
                pool.resize(threads);
            }
        }
        Ok(())
    }

    /// Multi-core [`ingest`](Self::ingest): carve the batch into
    /// shard-run units, publish them LPT-first in the lock-free claim
    /// queue, and drain them together with the stealer pool (the calling
    /// thread claims units too). Because a shard is processed by exactly
    /// one worker per batch and per-key seeds derive from the key alone,
    /// the per-key samples are **bit-identical for every thread count**
    /// (equal to the serial path's). With `threads == 1` this runs the
    /// shards inline.
    ///
    /// Takes `&self`: queries may run concurrently (they use the shard
    /// read/write locks, after waiting on the epoch watermark).
    /// Concurrent `ingest_parallel` calls from several threads are
    /// applied atomically per shard but in unspecified relative order;
    /// the bit-identical guarantee is for sequentially submitted
    /// batches.
    ///
    /// Batches are double-buffered: this may return while the batch's
    /// in-flight tail is still draining on the stealers (the next call
    /// overlaps its partition/sort with that tail and then waits for the
    /// epoch before publishing). Queries and checkpoints synchronize
    /// implicitly; [`flush`](Self::flush) does so explicitly.
    ///
    /// # Panics
    /// Re-raises per-key sampler panics (e.g. a key's timestamps running
    /// backwards) with the structured [`WorkerPanic`] message naming the
    /// worker and shard — possibly deferred to the *next* call or
    /// [`flush`](Self::flush) under pipelining. Use
    /// [`try_ingest_parallel`](Self::try_ingest_parallel) to handle them
    /// as values instead.
    pub fn ingest_parallel(&self, batch: &[KeyedEvent<K, T>]) {
        if let Err(panic) = self.try_ingest_parallel(batch) {
            panic!("{panic}");
        }
    }

    /// [`ingest_parallel`](Self::ingest_parallel) with per-key sampler
    /// panics surfaced as a structured [`WorkerPanic`] (worker index,
    /// shard index, payload) instead of aborting the caller.
    ///
    /// A sampler panic is a caller contract violation (backwards per-key
    /// clock being the canonical one), but it must not take the fleet
    /// down: the unit catches the unwind while holding the shard's
    /// write guard, so no lock is poisoned — the offending shard keeps
    /// its pre-batch-visible state (the failing sub-batch may be
    /// partially applied; its key-arrival-order prefix is) and **every**
    /// shard remains queryable and ingestible afterwards. Under the
    /// double-buffered pipeline the report is **deferred to the next
    /// synchronization point**: this call returns the panic of the
    /// *previous* outstanding batch, if any; end-of-stream callers
    /// should finish with [`flush`](Self::flush) to collect the last
    /// batch's verdict. The first panic in shard order is reported.
    pub fn try_ingest_parallel(&self, batch: &[KeyedEvent<K, T>]) -> Result<(), WorkerPanic> {
        if batch.is_empty() {
            return Ok(());
        }
        assert!(
            batch.len() <= u32::MAX as usize,
            "batch exceeds u32 positions"
        );
        let nshards = self.shards.len();
        if self.threads <= 1 || nshards == 1 {
            return self.ingest_inline(batch);
        }
        let pool = self.pool.as_ref().expect("set_threads spawned the pool");
        // Prepare (partition + counting sort + LPT order) runs *before*
        // waiting on the previous epoch — this is the double-buffered
        // overlap: batch N+1's carve proceeds while batch N's tail
        // drains on the stealers.
        let epoch = Epoch::prepare(
            batch,
            nshards,
            self.threads,
            self.shard_mask,
            &self.shards,
            Arc::clone(&self.exec_flags),
            fx_hash_key,
        )
        .expect("batch checked non-empty");
        pool.submit(epoch)
    }
}

impl<K, T: Clone + 'static> MemoryWords for MultiStreamEngine<K, T> {
    /// Fleet-wide footprint: the sum of every per-key sampler's words.
    /// Registry scaffolding (index tables, key slabs, box pointers) is
    /// outside the paper's §1.4 stream-element model, exactly as RNG
    /// state is excluded for single samplers — see
    /// [`MultiStreamEngine::registry_overhead_words`] for that side.
    fn memory_words(&self) -> usize {
        self.sync();
        self.shards
            .iter()
            .map(|s| {
                let shard = s.read().expect("shard lock poisoned");
                shard
                    .samplers
                    .iter()
                    .map(|s| s.memory_words())
                    .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::values::{zipf_fleet_events, ValueGen, ZipfGen};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn seq_wr_spec(n: u64, k: usize, seed: u64) -> SamplerSpec {
        format!("--window seq --n {n} --k {k} --seed {seed}")
            .parse()
            .expect("spec")
    }

    #[test]
    fn fx_hash_is_deterministic_and_spreads() {
        let a = fx_hash_key(&1234u64);
        assert_eq!(a, fx_hash_key(&1234u64));
        assert_ne!(a, fx_hash_key(&1235u64));
        // Spread check: 4096 consecutive keys across 16 shards.
        let mut counts = [0usize; 16];
        for key in 0..4096u64 {
            counts[shard_of(fx_hash_key(&key), 15)] += 1;
        }
        for (shard, &c) in counts.iter().enumerate() {
            assert!(
                (128..=384).contains(&c),
                "shard {shard} got {c} of 4096 keys"
            );
        }
    }

    #[test]
    fn windows_past_the_samplers_limit_fail_construction() {
        // Past the samplers' limit, construction fails with a typed spec
        // error rather than a sampler panic on the first key.
        let over = seq_wr_spec((1 << 62) + 1, 2, 1);
        assert!(matches!(
            MultiStreamEngine::<u64, u64>::new(over),
            Err(SpecError::Invalid(m)) if m.contains("2^62")
        ));
        let chain: SamplerSpec = "--window seq --n 4611686018427387904 --algo chain --k 2"
            .parse()
            .expect("spec");
        assert!(matches!(
            MultiStreamEngine::<u64, u64>::new(chain),
            Err(SpecError::Invalid(m)) if m.contains("2^62")
        ));
        let mut at_limit: MultiStreamEngine<u64, u64> =
            MultiStreamEngine::new(seq_wr_spec(1 << 62, 2, 1)).expect("2^62 itself is fine");
        at_limit.ingest(&[(1, 0, 1)]);
        assert_eq!(at_limit.sample_k(&1).map(|s| s.len()), Some(2));
    }

    #[test]
    fn lazy_creation_and_per_key_windows() {
        let mut e: MultiStreamEngine<&str, u64> =
            MultiStreamEngine::new(seq_wr_spec(3, 2, 1)).expect("engine");
        assert_eq!(e.num_keys(), 0);
        e.ingest(&[
            ("alice", 0, 1),
            ("bob", 0, 100),
            ("alice", 0, 2),
            ("alice", 0, 3),
            ("alice", 0, 4),
        ]);
        assert_eq!(e.num_keys(), 2);
        assert!(e.contains_key(&"alice") && e.contains_key(&"bob"));
        // Alice's window is her last 3 arrivals — untouched by Bob's.
        for s in e.sample_k(&"alice").expect("nonempty") {
            assert!((2..=4).contains(s.value()), "stale sample {s:?}");
        }
        for s in e.sample_k(&"bob").expect("nonempty") {
            assert_eq!(*s.value(), 100);
        }
        assert!(e.sample_k(&"carol").is_none());
        assert!(e.sample(&"carol").is_none());
        assert_eq!(e.keys().len(), 2);
    }

    #[test]
    fn sample_k_many_matches_per_key_queries() {
        // The batched read must agree element-for-element with sample_k,
        // and misses must come back as None in position.
        let mut e: MultiStreamEngine<u64, u64> =
            MultiStreamEngine::with_factory(seq_wr_spec(8, 3, 5), 4, SamplerSpec::build::<u64>)
                .expect("engine");
        let events: Vec<(u64, u64, u64)> = (0..500u64).map(|i| (i % 23, 0, i)).collect();
        e.ingest(&events);
        let mut keys: Vec<u64> = (0..30u64).collect();
        keys.push(7); // duplicates answer independently
        let many = e.sample_k_many(&keys);
        assert_eq!(many.len(), keys.len());
        for (key, got) in keys.iter().zip(&many) {
            assert_eq!(*got, e.sample_k(key), "key {key}");
            assert_eq!(got.is_some(), *key < 23, "key {key}");
        }
    }

    #[test]
    fn interleaved_ingest_equals_per_key_ingest() {
        // The grouped batched path must produce exactly the samples a
        // dedicated per-key sampler produces: grouping is a reordering
        // of already-commuting operations, and seeds are derived purely
        // from (template seed, key).
        let template = seq_wr_spec(10, 3, 99);
        let mut e: MultiStreamEngine<u64, u64> =
            MultiStreamEngine::new(template.clone()).expect("engine");
        let keys = [3u64, 17, 290_017];
        let mut batch = Vec::new();
        for round in 0..200u64 {
            for &k in &keys {
                batch.push((k, 0u64, round * 10 + k));
            }
        }
        e.ingest(&batch);

        for &key in &keys {
            let mut spec = template.clone();
            spec.seed = mix_seed(template.seed, fx_hash_key(&key));
            let mut solo = spec.build::<u64>().expect("builds");
            let values: Vec<u64> = (0..200u64).map(|r| r * 10 + key).collect();
            solo.insert_batch(&values);
            assert_eq!(
                e.sample_k(&key),
                solo.sample_k(),
                "key {key}: engine diverges from dedicated sampler"
            );
        }
    }

    #[test]
    fn timestamp_template_expires_per_key() {
        let spec: SamplerSpec = "--window ts --w 5 --mode wor --k 2 --seed 4"
            .parse()
            .expect("spec");
        let mut e: MultiStreamEngine<u8, u64> = MultiStreamEngine::new(spec).expect("engine");
        let mut batch = Vec::new();
        for t in 0..50u64 {
            batch.push((1u8, t, t));
            if t % 3 == 0 {
                batch.push((2u8, t, 1000 + t));
            }
        }
        e.ingest(&batch);
        for s in e.sample_k(&1).expect("nonempty") {
            assert!(s.timestamp() >= 45, "expired sample {s:?}");
        }
        for s in e.sample_k(&2).expect("nonempty") {
            assert!(s.timestamp() >= 45 && *s.value() >= 1000);
        }
    }

    #[test]
    fn distinct_keys_get_distinct_seeds() {
        let mut e: MultiStreamEngine<u64, u64> =
            MultiStreamEngine::new(seq_wr_spec(100, 4, 7)).expect("engine");
        let batch: Vec<(u64, u64, u64)> = (0..64u64).map(|k| (k, 0, 1)).collect();
        e.ingest(&batch);
        // Every key saw the same one-element stream, so only its seed can
        // tell the keys' RNG words apart.
        let mut rngs: Vec<[u64; 4]> = e
            .save_states()
            .expect("seq-wr checkpoints")
            .into_iter()
            .map(|(_, state)| match state {
                SamplerState::SeqWr { rng, .. } => rng.0,
                other => panic!("expected a seq-wr state, got {}", other.family()),
            })
            .collect();
        assert_eq!(rngs.len(), 64);
        rngs.sort_unstable();
        rngs.dedup();
        assert_eq!(rngs.len(), 64, "per-key seed collision");
        assert!(!e.contains_key(&999), "untouched key");
    }

    #[test]
    fn rejects_bad_templates_eagerly() {
        // k = 0 is invalid; chain needs the baselines factory.
        let bad: SamplerSpec = "--window seq --n 5 --k 0".parse().expect("parses");
        assert!(MultiStreamEngine::<u64, u64>::new(bad).is_err());
        let chain: SamplerSpec = "--window seq --n 5 --algo chain".parse().expect("parses");
        assert!(MultiStreamEngine::<u64, u64>::new(chain).is_err());
    }

    #[test]
    fn slab_registry_survives_growth_and_collisions() {
        // One shard forces every key through one table; enough keys to
        // trigger several doublings, interleaved with lookups.
        let mut e: MultiStreamEngine<u64, u64> =
            MultiStreamEngine::with_factory(seq_wr_spec(4, 1, 3), 1, SamplerSpec::build::<u64>)
                .expect("engine");
        for round in 0..4u64 {
            let batch: Vec<(u64, u64, u64)> =
                (0..500u64).map(|k| (k, 0, round * 1000 + k)).collect();
            e.ingest(&batch);
            assert_eq!(e.num_keys(), 500, "round {round}");
        }
        for k in (0..500u64).step_by(97) {
            let got = e.sample_k(&k).expect("key present");
            assert!(got.iter().all(|s| *s.value() % 1000 == k));
        }
        // ≥ 2 bucket words + 1 key word + 2 box words per key.
        assert!(e.registry_overhead_words() >= 500 * 5);
    }

    #[test]
    fn parallel_ingest_is_bit_identical_to_serial() {
        let template = seq_wr_spec(50, 4, 11);
        let mut serial: MultiStreamEngine<u64, u64> =
            MultiStreamEngine::with_factory(template.clone(), 8, SamplerSpec::build::<u64>)
                .expect("engine");
        let parallel: MultiStreamEngine<u64, u64> =
            MultiStreamEngine::with_threads(template, 8, SamplerSpec::build::<u64>, 4)
                .expect("engine");
        assert_eq!(parallel.num_threads(), 4);

        let mut rng = SmallRng::seed_from_u64(9);
        let mut zipf = ZipfGen::new(200, 1.2);
        let events: Vec<(u64, u64, u64)> = (0..20_000u64)
            .map(|i| (zipf.next_value(&mut rng), i / 32, i))
            .collect();
        for chunk in events.chunks(777) {
            serial.ingest(chunk);
            parallel.ingest_parallel(chunk);
        }
        assert_eq!(serial.num_keys(), parallel.num_keys());
        for key in serial.keys() {
            assert_eq!(
                serial.sample_k(&key),
                parallel.sample_k(&key),
                "key {key}: parallel diverges from serial"
            );
        }
    }

    #[test]
    fn serial_route_scratch_follows_reshards_and_both_entry_points() {
        // Both serial entry points reuse one per-engine route scratch,
        // sized to the shard count on use. An engine resharded between
        // batches (64 → 4 → 16: routes left stale, then missing) and fed
        // alternately through `ingest` and `try_ingest_parallel` must end
        // equal to one fed through `ingest` at a fixed 64 shards.
        let template = seq_wr_spec(50, 4, 11);
        let build = || -> MultiStreamEngine<u64, u64> {
            MultiStreamEngine::with_factory(template.clone(), 64, SamplerSpec::build::<u64>)
                .expect("engine")
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let mut zipf = ZipfGen::new(300, 1.1);
        let events: Vec<(u64, u64, u64)> = (0..12_000u64)
            .map(|i| (zipf.next_value(&mut rng), i / 32, i))
            .collect();
        let (mut resharded, mut fixed) = (build(), build());
        for (i, chunk) in events.chunks(301).enumerate() {
            match i {
                13 => resharded.set_shards(4).expect("reshard"),
                26 => resharded.set_shards(16).expect("reshard"),
                _ => {}
            }
            if i % 2 == 0 {
                resharded.ingest(chunk);
            } else {
                resharded
                    .try_ingest_parallel(chunk)
                    .expect("no sampler panics");
            }
            fixed.ingest(chunk);
        }
        assert_eq!(resharded.num_shards(), 16);
        assert_eq!(resharded.num_keys(), fixed.num_keys());
        for key in fixed.keys() {
            assert_eq!(resharded.sample_k(&key), fixed.sample_k(&key), "key {key}");
        }
    }

    #[test]
    fn worker_panic_is_structured_and_nonfatal() {
        // A backwards per-key clock panics inside the sampler (caller
        // contract violation). The pool must name the shard, leave no
        // lock poisoned, and keep every shard queryable and ingestible.
        let spec: SamplerSpec = "--window ts --w 10 --k 2 --seed 1".parse().expect("spec");
        let engine: MultiStreamEngine<u64, u64> =
            MultiStreamEngine::with_threads(spec, 4, SamplerSpec::build::<u64>, 2).expect("engine");
        // Two keys in different shards.
        let key_shard = |key: u64| shard_of(fx_hash_key(&key), engine.shard_mask);
        let a = 0u64;
        let b = (1..100u64)
            .find(|&k| key_shard(k) != key_shard(a))
            .expect("some key lands elsewhere");
        engine
            .try_ingest_parallel(&[(a, 10, 1), (b, 10, 2)])
            .expect("forward clock is fine");
        engine.flush().expect("clean epoch");
        // Under the double-buffered pipeline the report is deferred to
        // the next synchronization point — here, an explicit flush.
        engine
            .try_ingest_parallel(&[(a, 5, 3), (b, 11, 4)])
            .expect("own-batch panics surface at the next sync point");
        let err = engine.flush().expect_err("key a's clock ran backwards");
        assert_eq!(err.shard, key_shard(a), "panic names the wrong shard");
        assert!(
            err.message.contains("backwards"),
            "payload lost: {:?}",
            err.message
        );
        assert!(err.worker < 2);
        // Both shards — including the panicked one — still answer.
        assert!(engine.sample_k(&a).is_some(), "panicked shard unreadable");
        assert!(engine.sample_k(&b).is_some(), "innocent shard unreadable");
        // And future (contract-respecting) ingestion still works.
        engine
            .try_ingest_parallel(&[(a, 12, 5), (b, 12, 6)])
            .expect("fleet recovered");
        engine.flush().expect("recovered epoch is clean");
        // The deferred report also arrives through the *next* ingest
        // call, and the panicking wrapper re-raises it structured.
        engine.ingest_parallel(&[(a, 3, 7)]); // backwards again; deferred
        let msg = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.ingest_parallel(&[(b, 13, 8)])
        }))
        .expect_err("must re-raise at the next call");
        let msg = msg.downcast_ref::<String>().expect("string payload");
        assert!(
            msg.contains(&format!("shard {}", key_shard(a))),
            "unstructured message: {msg}"
        );
        engine.flush().expect("nothing further pending");
    }

    #[test]
    fn serial_ingest_panic_leaves_every_shard_usable() {
        // The same backwards clock through the serial `ingest`: it
        // re-raises structured after the whole batch, the other shard's
        // events still apply, and the panicked shard's lock is not
        // poisoned.
        let spec: SamplerSpec = "--window ts --w 10 --k 2 --seed 1".parse().expect("spec");
        let mut e: MultiStreamEngine<u64, u64> =
            MultiStreamEngine::with_factory(spec, 4, SamplerSpec::build::<u64>).expect("engine");
        let mask = e.shard_mask;
        let key_shard = |key: u64| shard_of(fx_hash_key(&key), mask);
        let b = (0..100u64)
            .find(|&k| key_shard(k) != key_shard(7))
            .expect("some key lands elsewhere");
        e.ingest(&[(7, 10, 1)]);
        let msg = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.ingest(&[(7, 5, 2), (b, 10, 3)])
        }))
        .expect_err("key 7's clock ran backwards");
        let msg = msg.downcast_ref::<String>().expect("string payload");
        assert!(
            msg.contains(&format!("shard {}", key_shard(7))) && msg.contains("backwards"),
            "unstructured message: {msg}"
        );
        assert!(e.sample_k(&7).is_some(), "panicked shard unreadable");
        assert!(
            e.sample_k(&b).is_some(),
            "the batch's other shard was skipped"
        );
        e.ingest(&[(7, 11, 4)]);
        assert!(e.sample_k(&7).is_some());
    }

    #[test]
    fn save_restore_round_trips_across_scales() {
        // Checkpoint at the halfway point, restore into the same and into
        // different shard counts — then finish the stream everywhere and
        // require bit-identical samples against the uninterrupted run.
        let template = seq_wr_spec(40, 3, 23);
        let events: Vec<(u64, u64, u64)> = (0..6_000u64).map(|i| (i % 101, 0, i)).collect();
        let (first, second) = events.split_at(events.len() / 2);

        let build = |shards| -> MultiStreamEngine<u64, u64> {
            MultiStreamEngine::with_factory(template.clone(), shards, SamplerSpec::build::<u64>)
                .expect("engine")
        };
        let mut uninterrupted = build(8);
        uninterrupted.ingest(&events);

        let mut half = build(8);
        half.ingest(first);
        let checkpoint = half.save_states().expect("seq-wr checkpoints");
        assert_eq!(checkpoint.len(), half.num_keys());

        for shards in [8, 2, 32] {
            let mut resumed = build(shards);
            resumed
                .restore_states(checkpoint.clone())
                .expect("restore onto same template");
            resumed.ingest(second);
            assert_eq!(resumed.num_keys(), uninterrupted.num_keys());
            for key in uninterrupted.keys() {
                assert_eq!(
                    resumed.sample_k(&key),
                    uninterrupted.sample_k(&key),
                    "key {key} on {shards} shards diverged after restore"
                );
            }
        }
    }

    #[test]
    fn live_rescale_preserves_every_sample() {
        let template = seq_wr_spec(30, 4, 5);
        let events: Vec<(u64, u64, u64)> = (0..4_000u64).map(|i| (i % 53, 0, i)).collect();
        let (first, second) = events.split_at(events.len() / 2);

        let mut steady: MultiStreamEngine<u64, u64> =
            MultiStreamEngine::new(template.clone()).expect("engine");
        steady.ingest(&events);

        let mut rescaled: MultiStreamEngine<u64, u64> =
            MultiStreamEngine::with_threads(template, 16, SamplerSpec::build::<u64>, 4)
                .expect("engine");
        rescaled.ingest(first);
        rescaled.set_shards(2).expect("shrink mid-stream");
        assert_eq!(rescaled.num_shards(), 2);
        assert_eq!(rescaled.num_threads(), 2, "threads re-clamped to shards");
        rescaled.ingest_parallel(second);
        assert_eq!(steady.num_keys(), rescaled.num_keys());
        for key in steady.keys() {
            assert_eq!(
                steady.sample_k(&key),
                rescaled.sample_k(&key),
                "key {key} diverged across rescale"
            );
        }
        // Growing again is equally invisible.
        rescaled.set_shards(64).expect("grow");
        for key in steady.keys() {
            assert_eq!(steady.sample_k(&key), rescaled.sample_k(&key));
        }
    }

    #[test]
    fn restore_rejects_mismatched_family() {
        let mut wr: MultiStreamEngine<u64, u64> =
            MultiStreamEngine::new(seq_wr_spec(10, 2, 1)).expect("engine");
        wr.ingest(&[(1, 0, 10), (2, 0, 20)]);
        let states = wr.save_states().expect("checkpoints");
        let wor: SamplerSpec = "--window seq --n 10 --mode wor --k 2 --seed 1"
            .parse()
            .expect("spec");
        let mut wor: MultiStreamEngine<u64, u64> = MultiStreamEngine::new(wor).expect("engine");
        let err = wor.restore_states(states).expect_err("family mismatch");
        assert!(matches!(
            err,
            swsample_core::state::StateError::Mismatch { .. }
        ));
    }

    /// The acceptance-criterion test: a 100k-key zipf-skewed stream
    /// through the batched keyed path, with every per-key footprint under
    /// the Theorem 2.1 cap and fleet memory under `keys · cap`.
    #[test]
    fn hundred_thousand_keys_within_paper_caps() {
        let (keys, k, n) = (100_000u64, 16usize, 1_000u64);
        let seq_wr_cap = 7 * k + 3; // Theorem 2.1 ceiling (see tests/theorem_bounds.rs)
        let mut e: MultiStreamEngine<u64, u64> =
            MultiStreamEngine::with_factory(seq_wr_spec(n, k, 42), 64, SamplerSpec::build::<u64>)
                .expect("engine");

        let events: Vec<(u64, u64, u64)> = zipf_fleet_events(keys, 1.05, 7).take(400_000).collect();
        for batch in events.chunks(1024) {
            e.ingest(batch);
        }

        assert!(
            e.num_keys() > 40_000,
            "zipf(1.05) over 100k keys, 400k draws: expected ~48k distinct keys, got {}",
            e.num_keys()
        );
        assert!(
            e.max_key_memory_words() <= seq_wr_cap,
            "hottest key {} words > deterministic cap {seq_wr_cap}",
            e.max_key_memory_words()
        );
        assert!(
            e.memory_words() <= e.num_keys() * seq_wr_cap,
            "fleet {} words > {} keys x {seq_wr_cap}",
            e.memory_words(),
            e.num_keys()
        );
        // And the fleet still answers per-key queries.
        let hot = e.sample_k(&0).expect("hottest key nonempty");
        assert_eq!(hot.len(), k);
    }
}
