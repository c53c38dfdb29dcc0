//! The skew-aware work-stealing scheduler behind
//! [`MultiStreamEngine::ingest_parallel`](super::MultiStreamEngine::ingest_parallel),
//! and the structured [`WorkerPanic`] report it surfaces when a per-key
//! sampler panics mid-unit.
//!
//! # Why not the old shard-pinned pool
//!
//! The first parallel design fed a persistent pool over mpsc channels:
//! one job per shard-batch, shard `s` always to worker `s % threads`, and
//! a full completion barrier per call. Three structural costs came with
//! it, all visible in the committed BENCH thread sweep (flat-to-negative
//! 1→8 threads): a channel hop (allocation + wakeup) per shard per
//! batch, a barrier that serialized the dispatcher against the slowest
//! worker every batch, and a fixed shard→worker pin that parked a
//! zipf-hot shard on one worker while the rest idled.
//!
//! # The work-stealing design
//!
//! Each batch becomes one **epoch**:
//!
//! 1. The calling thread partitions the batch into **shard-run units**
//!    (one unit per non-empty shard: the shard's events, in arrival
//!    order, as a contiguous slice of a shard-grouped route array — no
//!    per-shard `Vec` clones, one counting sort).
//! 2. Units are ordered **largest-first** (LPT — longest processing time
//!    first): the zipf-hot shard is claimed immediately, and the many
//!    small shards backfill the other workers instead of queueing behind
//!    the hot one.
//! 3. The unit array is published behind a **lock-free claim queue**: a
//!    single atomic cursor (`fetch_add`) over the prepared array. No
//!    per-unit channel send, no per-unit lock; claiming a unit is one
//!    atomic RMW.
//! 4. Persistent workers — plus the calling thread itself, which always
//!    participates as worker 0 — claim and steal units until the cursor
//!    runs off the end. Wakeups are **chained**: publishing seeds one
//!    `notify_one`, and each claim wakes one more parked stealer while
//!    unclaimed units remain, so idle stealers that would lose the race
//!    anyway (oversubscribed or single-core hosts) are never scheduled. A worker whose "home" shard (the old `s %
//!    threads` pin, kept for accounting) is claimed by someone else
//!    records a **steal**; per-worker units-claimed / units-stolen /
//!    busy-ns counters feed [`ParallelStats`].
//!
//! **Double-buffered handoff:** `ingest_parallel` no longer ends with a
//! completion barrier. Publishing epoch `N` returns once every unit of
//! `N` is *claimed*; the next call prepares epoch `N+1` (partition +
//! sort) while `N`'s in-flight tail drains, then performs a two-slot
//! epoch handshake — wait for `N` complete, publish `N+1`. At most one
//! epoch is ever outstanding, and epochs never overlap in execution, so
//! cross-batch per-shard ordering is exactly the serial path's. Queries
//! and checkpoints synchronize on the epoch watermark before reading.
//!
//! # Determinism
//!
//! The bit-identity contract survives stealing because scheduling only
//! decides *who* runs a unit, never *what order* a key's events apply
//! in: per-key RNG seeds are splitmix-derived from the key hash alone,
//! each shard is exactly one unit per epoch (a per-unit **claimed bit**
//! and a per-shard **executing flag** assert one-shard-one-worker; see
//! [`ParallelStats::violations`]), units apply their events in arrival
//! order, and epochs are serialized. Samples are therefore byte-equal
//! at every thread count — same argument as before, now enforced by
//! counters instead of channel topology.

use std::any::Any;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Instant;

use super::registry::shard_of;
use super::{KeyedEvent, Shard};

/// Structured report of a shard-ingestion panic: which worker ran the
/// unit, which shard it was ingesting, and the panic payload.
///
/// A sampler panic (e.g. a key's timestamps running backwards — a caller
/// contract violation) used to kill the worker thread and abort the
/// dispatching `ingest_parallel` with an opaque `recv` failure. Now the
/// worker catches the unwind **while still holding the shard's write
/// guard**, so the `RwLock` is never poisoned: the offending shard keeps
/// its pre-panic-visible state (the failed sub-batch may be partially
/// applied) and every shard — including this one — remains queryable and
/// ingestible afterwards. With the double-buffered epoch pipeline the
/// report surfaces at the **next synchronization point**: the following
/// `try_ingest_parallel` call, or an explicit
/// [`flush`](super::MultiStreamEngine::flush).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the worker that ran the unit (`0` is the calling
    /// thread — it claims units too — and also the inline serial path).
    pub worker: usize,
    /// Index of the engine shard whose ingestion panicked.
    pub shard: usize,
    /// The panic payload, when it was a string (the usual case);
    /// `"<non-string panic payload>"` otherwise.
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard {} ingestion panicked on worker {}: {}",
            self.shard, self.worker, self.message
        )
    }
}

impl std::error::Error for WorkerPanic {}

/// Per-worker scheduling counters for one worker slot, snapshotted from
/// the live atomics by [`MultiStreamEngine::parallel_stats`](super::MultiStreamEngine::parallel_stats).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Units this worker claimed from the queue (home or stolen).
    pub claimed: u64,
    /// Claimed units whose home worker (`shard % threads`) was someone
    /// else — the skew the old pinned design could not shed.
    pub stolen: u64,
    /// Nanoseconds spent executing units (excludes idle/park time).
    pub busy_ns: u64,
}

/// A snapshot of the work-stealing scheduler's lifetime counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParallelStats {
    /// Configured thread count (worker 0 is the calling thread).
    pub threads: usize,
    /// Epochs (batches) fully applied by the scheduler.
    pub epochs: u64,
    /// Shard-run units executed, summed over workers.
    pub units: u64,
    /// Units executed by a non-home worker, summed over workers.
    pub steals: u64,
    /// One-shard-two-workers invariant violations observed (claimed-bit
    /// double-claims + executing-flag overlaps). Always 0 unless the
    /// scheduler is broken; tests assert on it.
    pub violations: u64,
    /// Per-worker counters, index = worker id (0 = calling thread).
    pub workers: Vec<WorkerStats>,
}

impl ParallelStats {
    /// Busy-time imbalance across workers that did any work: max
    /// per-worker busy-ns over mean busy-ns. `1.0` is perfect balance;
    /// the old pinned pool's zipf pathology shows up here as ≈threads.
    pub fn imbalance(&self) -> f64 {
        let busy: Vec<u64> = self
            .workers
            .iter()
            .map(|w| w.busy_ns)
            .filter(|&b| b > 0)
            .collect();
        if busy.is_empty() {
            return 1.0;
        }
        let max = *busy.iter().max().expect("nonempty") as f64;
        let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Extract the human-readable message from a `catch_unwind` payload.
pub(crate) fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Run one shard sub-batch under `catch_unwind`, holding the write guard
/// across the catch so a panicking sampler never poisons the shard lock.
pub(crate) fn ingest_guarded<K, T>(
    shard: &Arc<RwLock<Shard<K, T>>>,
    batch: &[KeyedEvent<K, T>],
    route: &[(u32, u64)],
    worker: usize,
    shard_index: usize,
) -> Result<(), WorkerPanic>
where
    K: Hash + Eq + Clone,
    T: Clone + 'static,
{
    let mut guard = shard.write().expect("shard lock poisoned");
    catch_unwind(AssertUnwindSafe(|| guard.ingest(batch, route))).map_err(|payload| WorkerPanic {
        worker,
        shard: shard_index,
        message: panic_message(payload),
    })
}

/// One claimable work item: a shard plus its slice of the epoch's
/// shard-grouped route (arrival order within the slice).
struct Unit<K, T: Clone> {
    shard_index: usize,
    /// The old pinned assignment (`shard % threads`), kept purely for
    /// steal accounting.
    home_worker: usize,
    shard: Arc<RwLock<Shard<K, T>>>,
    start: usize,
    len: usize,
}

/// One published batch: the owned events, the shard-grouped route, the
/// LPT-ordered unit array, and the claim/completion state.
pub(crate) struct Epoch<K, T: Clone> {
    id: u64,
    batch: Vec<KeyedEvent<K, T>>,
    route: Vec<(u32, u64)>,
    units: Vec<Unit<K, T>>,
    /// The lock-free claim queue: next unclaimed index in `units`.
    cursor: AtomicUsize,
    /// Units not yet completed; the worker that takes this to 0 marks
    /// the epoch complete and wakes waiters.
    remaining: AtomicUsize,
    /// Per-unit claimed bits — a second claim of the same unit is an
    /// invariant violation (the cursor alone already prevents it; the
    /// bit turns "should be impossible" into a counted assertion).
    claimed: Vec<AtomicBool>,
    /// Per-shard executing flags (shared across epochs, sized to the
    /// engine's shard count): two workers inside one shard at once — in
    /// this epoch or across an epoch-overlap bug — is a violation.
    executing: Arc<Vec<AtomicBool>>,
    panics: Mutex<Vec<WorkerPanic>>,
}

impl<K: Clone, T: Clone> Epoch<K, T> {
    /// Partition `batch` into shard-run units, LPT-ordered. `hash` maps
    /// a key to its hash (shard = [`shard_of`] the hash). Returns `None`
    /// for an empty batch.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn prepare(
        batch: &[KeyedEvent<K, T>],
        nshards: usize,
        threads: usize,
        shard_mask: u64,
        shards: &[Arc<RwLock<Shard<K, T>>>],
        executing: Arc<Vec<AtomicBool>>,
        hash: impl Fn(&K) -> u64,
    ) -> Option<Self> {
        if batch.is_empty() {
            return None;
        }
        // Counting sort by shard: one pass for counts, one to scatter
        // (position, hash) into a single shard-grouped route array.
        // Arrival order is preserved within each shard's slice, which is
        // all determinism needs. The hash is recomputed in the scatter
        // pass rather than buffered — hashing a key is a couple of
        // arithmetic ops, cheaper per epoch than allocating and
        // streaming a batch-sized side array.
        let mut counts = vec![0usize; nshards];
        for (key, _, _) in batch {
            counts[shard_of(hash(key), shard_mask)] += 1;
        }
        let mut offsets = vec![0usize; nshards];
        let mut acc = 0usize;
        for (s, count) in counts.iter().enumerate() {
            offsets[s] = acc;
            acc += count;
        }
        let mut route = vec![(0u32, 0u64); batch.len()];
        let mut fill = offsets.clone();
        for (pos, (key, _, _)) in batch.iter().enumerate() {
            let h = hash(key);
            let s = shard_of(h, shard_mask);
            route[fill[s]] = (pos as u32, h);
            fill[s] += 1;
        }
        let mut units: Vec<Unit<K, T>> = (0..nshards)
            .filter(|&s| counts[s] > 0)
            .map(|s| Unit {
                shard_index: s,
                home_worker: s % threads,
                shard: Arc::clone(&shards[s]),
                start: offsets[s],
                len: counts[s],
            })
            .collect();
        // LPT: largest unit first, shard index as the deterministic
        // tie-break. The hot shard starts draining on the first claim.
        units.sort_by(|a, b| b.len.cmp(&a.len).then(a.shard_index.cmp(&b.shard_index)));
        let claimed = (0..units.len()).map(|_| AtomicBool::new(false)).collect();
        Some(Self {
            id: 0, // assigned at publish, before the epoch is shared
            batch: batch.to_vec(),
            route,
            remaining: AtomicUsize::new(units.len()),
            claimed,
            units,
            cursor: AtomicUsize::new(0),
            executing,
            panics: Mutex::new(Vec::new()),
        })
    }
}

/// Live per-worker counters (see [`WorkerStats`] for the snapshot form).
#[derive(Default)]
struct WorkerCounters {
    claimed: AtomicU64,
    stolen: AtomicU64,
    busy_ns: AtomicU64,
}

struct PoolState<K, T: Clone> {
    /// The epoch being drained (or the last one drained).
    current: Option<Arc<Epoch<K, T>>>,
    /// Desired worker count *including* the calling thread: pool threads
    /// `1..target` stay alive, `>= target` exit at the next check.
    target: usize,
    shutdown: bool,
    /// First panic (in shard order) from a completed epoch, awaiting the
    /// next synchronization point.
    pending: Option<WorkerPanic>,
    /// Worker id allocated at publish time; lets concurrent callers each
    /// drain under a distinct accounting slot.
    counters: Vec<Arc<WorkerCounters>>,
}

/// State shared between the engine and its stealer threads.
pub(crate) struct PoolShared<K, T: Clone> {
    /// Id of the most recently published epoch (0 = none yet).
    published: AtomicU64,
    /// Id of the most recently *completed* epoch. `completed ==
    /// published` means no epoch is outstanding — the fast path every
    /// query watermark check takes.
    completed: AtomicU64,
    state: Mutex<PoolState<K, T>>,
    /// Workers park here between epochs.
    work_cv: Condvar,
    /// Publishers and flushers park here for epoch completion.
    done_cv: Condvar,
    epochs: AtomicU64,
    violations: AtomicU64,
    /// `true` when the host reports a single unit of available
    /// parallelism at pool spawn. Waking a stealer then buys nothing —
    /// the OS time-slices it against the publisher over the same core,
    /// doubling the hot working set (measurably worse at large fleets) —
    /// so work wakeups are skipped entirely and the publisher drains
    /// every epoch alone. Determinism is unaffected: scheduling decides
    /// who runs a unit, never what a unit computes.
    solo: bool,
}

impl<K: Clone, T: Clone> PoolShared<K, T> {
    /// Claim-and-execute until the epoch's cursor runs off the unit
    /// array. Runs on pool workers and on the publishing caller alike.
    fn drain(&self, epoch: &Epoch<K, T>, me: usize, counters: &WorkerCounters)
    where
        K: Hash + Eq,
        T: 'static,
    {
        loop {
            let idx = epoch.cursor.fetch_add(1, Ordering::AcqRel);
            if idx >= epoch.units.len() {
                return;
            }
            let unit = &epoch.units[idx];
            // Wakeup chaining: each successful claim wakes one more
            // parked stealer while unclaimed units remain, so an epoch
            // costs one futex wake per *engaged* worker instead of
            // `threads - 1` unconditionally (on a busy host most
            // stealers never wake at all — the publisher drains the
            // queue before the chain reaches them). Single-core hosts
            // skip wakeups altogether (see [`PoolShared::solo`]).
            if !self.solo && idx + 1 < epoch.units.len() {
                self.work_cv.notify_one();
            }
            if epoch.claimed[idx].swap(true, Ordering::AcqRel) {
                self.violations.fetch_add(1, Ordering::Relaxed);
            }
            if epoch.executing[unit.shard_index].swap(true, Ordering::AcqRel) {
                self.violations.fetch_add(1, Ordering::Relaxed);
            }
            let started = Instant::now();
            let route = &epoch.route[unit.start..unit.start + unit.len];
            let result = ingest_guarded(&unit.shard, &epoch.batch, route, me, unit.shard_index);
            epoch.executing[unit.shard_index].store(false, Ordering::Release);
            counters
                .busy_ns
                .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            counters.claimed.fetch_add(1, Ordering::Relaxed);
            if me != unit.home_worker {
                counters.stolen.fetch_add(1, Ordering::Relaxed);
            }
            if let Err(p) = result {
                epoch.panics.lock().expect("panic list").push(p);
            }
            if epoch.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last unit: the epoch is complete. Park the first panic
                // (shard order) for the next synchronization point and
                // wake publishers/flushers.
                let mut st = self.state.lock().expect("pool state");
                let mut panics = std::mem::take(&mut *epoch.panics.lock().expect("panic list"));
                panics.sort_by_key(|p| p.shard);
                if let Some(p) = panics.into_iter().next() {
                    st.pending.get_or_insert(p);
                }
                self.epochs.fetch_add(1, Ordering::Relaxed);
                self.completed.store(epoch.id, Ordering::Release);
                self.done_cv.notify_all();
            }
        }
    }
}

fn worker_loop<K, T>(shared: Arc<PoolShared<K, T>>, me: usize, counters: Arc<WorkerCounters>)
where
    K: Hash + Eq + Clone,
    T: Clone + 'static,
{
    let mut seen = 0u64;
    loop {
        let epoch = {
            let mut st = shared.state.lock().expect("pool state");
            loop {
                if st.shutdown || me >= st.target {
                    return;
                }
                // On a single-core host stealers park unconditionally
                // (no wakeup will ever come — see [`PoolShared::solo`]):
                // a freshly spawned worker's first scheduled slice lands
                // mid-epoch and would otherwise claim a stint it can
                // only run by preempting the publisher.
                let published = shared.published.load(Ordering::Acquire);
                if published > seen && !shared.solo {
                    if let Some(e) = st.current.clone() {
                        seen = published;
                        break e;
                    }
                }
                st = shared.work_cv.wait(st).expect("pool state");
            }
        };
        shared.drain(&epoch, me, &counters);
    }
}

/// The persistent work-stealing pool: stealer threads `1..threads`
/// (worker 0 is whatever thread calls `ingest_parallel`), the shared
/// epoch slots, and the join handles.
///
/// Liveness argument: every published epoch is drained to cursor
/// exhaustion by its *publisher* before `submit` returns, so no unit
/// ever waits on a pool thread existing — the pool can shrink to zero
/// stealers (target 1) or shut down at any epoch boundary without
/// stranding work. Workers check the shrink target between units only;
/// a mid-unit worker finishes its unit first, keeping the
/// one-shard-one-worker invariant intact across rescales.
pub(crate) struct WorkStealPool<K, T: Clone> {
    shared: Arc<PoolShared<K, T>>,
    /// `handles[w - 1]` is stealer `w`; `None` once joined after a
    /// shrink (respawned in place on a later grow — live workers in
    /// `1..min(old, new)` are reused untouched).
    handles: Vec<Option<std::thread::JoinHandle<()>>>,
}

impl<K, T> WorkStealPool<K, T>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    T: Clone + Send + Sync + 'static,
{
    pub(crate) fn spawn(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            published: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            state: Mutex::new(PoolState {
                current: None,
                target: 1,
                shutdown: false,
                pending: None,
                counters: vec![Arc::new(WorkerCounters::default())],
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            epochs: AtomicU64::new(0),
            violations: AtomicU64::new(0),
            solo: std::thread::available_parallelism().is_ok_and(|n| n.get() == 1),
        });
        let mut pool = Self {
            shared,
            handles: Vec::new(),
        };
        pool.resize(threads);
        pool
    }

    /// Grow or shrink the stealer set to `threads - 1` pool threads,
    /// reusing live workers where counts allow: growing spawns only the
    /// missing indices; shrinking signals excess workers (they exit at
    /// the next between-units check) and joins them. Counters persist
    /// across rescales.
    pub(crate) fn resize(&mut self, threads: usize) {
        let threads = threads.max(1);
        let old = {
            let mut st = self.shared.state.lock().expect("pool state");
            let old = st.target;
            if old == threads {
                return;
            }
            st.target = threads;
            while st.counters.len() < threads {
                st.counters.push(Arc::new(WorkerCounters::default()));
            }
            // Wake parked workers so excess ones observe the new target.
            self.shared.work_cv.notify_all();
            old
        };
        if threads < old {
            for w in threads..old {
                if let Some(handle) = self.handles.get_mut(w - 1).and_then(Option::take) {
                    let _ = handle.join();
                }
            }
            return;
        }
        while self.handles.len() < threads - 1 {
            self.handles.push(None);
        }
        for w in old.max(1)..threads {
            if self.handles[w - 1].is_some() {
                continue; // a live worker from before the last shrink
            }
            let shared = Arc::clone(&self.shared);
            let counters = {
                let st = self.shared.state.lock().expect("pool state");
                Arc::clone(&st.counters[w])
            };
            let handle = std::thread::Builder::new()
                .name(format!("swsample-steal-worker-{w}"))
                .spawn(move || worker_loop(shared, w, counters))
                .expect("spawn steal worker");
            self.handles[w - 1] = Some(handle);
        }
    }

    /// Two-slot epoch handshake: wait for the outstanding epoch (if any)
    /// to complete — collecting its deferred panic — publish `epoch`,
    /// then help drain it to cursor exhaustion as worker 0. Returns the
    /// *previous* epoch's panic report, if one is pending.
    pub(crate) fn submit(&self, mut epoch: Epoch<K, T>) -> Result<(), WorkerPanic> {
        let (epoch, counters) = {
            let mut st = self.shared.state.lock().expect("pool state");
            while self.shared.completed.load(Ordering::Acquire)
                < self.shared.published.load(Ordering::Acquire)
            {
                st = self.shared.done_cv.wait(st).expect("pool state");
            }
            let pending = st.pending.take();
            let id = self.shared.published.load(Ordering::Acquire) + 1;
            epoch.id = id;
            let epoch = Arc::new(epoch);
            st.current = Some(Arc::clone(&epoch));
            self.shared.published.store(id, Ordering::Release);
            // Seed the wakeup chain with a single stealer; `drain`
            // cascades further wakes only while unclaimed units remain
            // (see the chaining note there). Rescale and shutdown still
            // broadcast, so target checks are never missed.
            if !self.shared.solo {
                self.shared.work_cv.notify_one();
            }
            let counters = Arc::clone(&st.counters[0]);
            drop(st);
            if let Some(p) = pending {
                // The previous batch panicked: report it now. Our own
                // epoch is already published; the stealers will drain
                // it, and the engine-side watermark still synchronizes.
                self.drain_as_caller(&epoch, &counters);
                return Err(p);
            }
            (epoch, counters)
        };
        self.drain_as_caller(&epoch, &counters);
        Ok(())
    }

    fn drain_as_caller(&self, epoch: &Epoch<K, T>, counters: &WorkerCounters) {
        self.shared.drain(epoch, 0, counters);
    }
}

impl<K, T: Clone> WorkStealPool<K, T> {
    /// Wait until every published epoch has completed. Cheap when idle:
    /// two atomic loads.
    pub(crate) fn barrier(&self) {
        if self.shared.completed.load(Ordering::Acquire)
            >= self.shared.published.load(Ordering::Acquire)
        {
            return;
        }
        let mut st = self.shared.state.lock().expect("pool state");
        while self.shared.completed.load(Ordering::Acquire)
            < self.shared.published.load(Ordering::Acquire)
        {
            st = self.shared.done_cv.wait(st).expect("pool state");
        }
    }

    /// [`barrier`](Self::barrier), then take the deferred panic, if any.
    pub(crate) fn flush(&self) -> Result<(), WorkerPanic> {
        self.barrier();
        let mut st = self.shared.state.lock().expect("pool state");
        st.pending.take().map_or(Ok(()), Err)
    }

    /// Snapshot the scheduler counters.
    pub(crate) fn stats(&self) -> ParallelStats {
        let st = self.shared.state.lock().expect("pool state");
        let workers: Vec<WorkerStats> = st
            .counters
            .iter()
            .map(|c| WorkerStats {
                claimed: c.claimed.load(Ordering::Relaxed),
                stolen: c.stolen.load(Ordering::Relaxed),
                busy_ns: c.busy_ns.load(Ordering::Relaxed),
            })
            .collect();
        ParallelStats {
            threads: st.target,
            epochs: self.shared.epochs.load(Ordering::Relaxed),
            units: workers.iter().map(|w| w.claimed).sum(),
            steals: workers.iter().map(|w| w.stolen).sum(),
            violations: self.shared.violations.load(Ordering::Relaxed),
            workers,
        }
    }
}

impl<K, T: Clone> Drop for WorkStealPool<K, T> {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool state");
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.iter_mut().filter_map(Option::take) {
            let _ = handle.join();
        }
    }
}
