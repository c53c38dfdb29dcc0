//! The server runtime: acceptor, per-connection reader/writer threads,
//! the bounded central ingest queue, and the continuous-query
//! scheduler.
//!
//! Threading model (all `std`, no async runtime):
//!
//! * **Acceptor** — blocks in `accept` (shutdown unparks it with a
//!   throwaway connection); each accepted socket gets a registry entry,
//!   a reader thread, and a writer thread, each wrapped in
//!   `catch_unwind` so one connection's panic never takes the server
//!   down (the `WorkStealPool` isolation idiom).
//! * **Readers** decode frames and either answer directly (`QUERY`,
//!   `STATS`, `SUBSCRIBE`) or push the batch onto the **bounded ingest
//!   queue**. When `queued events + incoming > queue_max_events` the
//!   batch is rejected with `BUSY` instead of buffered — backpressure
//!   is explicit, the queue's high-watermark can never pass its bound,
//!   and nothing is silently dropped (the client retries).
//! * **The ingest loop** drains the queue into the [`Fleet`] — the one
//!   fleet type `serve` and the CLI's `multi` share. Every batch applies
//!   through [`MultiStreamEngine::try_ingest_parallel`], so an apply
//!   failure comes back as a value and is answered with `ERROR`; with a
//!   WAL directory the batch is appended first, under the log's lock.
//!   The loop acks each batch back to its connection. Queries, `HELLO`,
//!   `STATS` and subscription ticks read the engine directly and never
//!   wait on that lock. Because every
//!   connection's batches enter the FIFO queue in connection order,
//!   each key's event subsequence is applied in order — the engine's
//!   determinism contract extends across the network boundary.
//! * **The scheduler** ticks on a fixed cadence, evaluates due standing
//!   queries against a snapshot-consistent
//!   [`MultiStreamEngine::sample_k_many`] pass, and pushes results to
//!   subscribers through per-connection drop-oldest rings: replies are
//!   never dropped, pushes to a slow subscriber are (oldest first,
//!   counted and reported in `STATS`), and ingestion never blocks on a
//!   slow consumer.
//!
//! Shutdown (API call or the `SHUTDOWN` opcode) is graceful: stop
//! accepting, unblock readers, drain the ingest queue fully, fsync +
//! final-snapshot the WAL, then flush and close every connection.
//!
//! Hardening against misbehaving peers and flaky infrastructure:
//!
//! * **Deadlines** — per-connection read/write socket timeouts. A
//!   read-deadline wakeup at a frame boundary is an idle poll (the
//!   scheduler reaps truly idle connections on its ticks); a wakeup
//!   *mid-frame* means a stalled peer, which is dropped and counted.
//! * **Admission** — at the `--max-conns` cap the acceptor answers
//!   with a single typed `OVERLOAD` error frame and closes.
//! * **Slow consumers** — a subscriber whose ring has dropped more
//!   than `slow_consumer_budget` pushes is disconnected rather than
//!   allowed to hog the scheduler forever.
//! * **Exactly-once under retry** — a client that reconnects after a
//!   lost ack resends its batch under the same `HELLO` session id; the
//!   ingest loop dedupes on `(session, seq)` at apply time, so the
//!   retry is acked without double-applying.
//! * **Deterministic chaos** — one [`FaultSchedule`]
//!   (`SWSAMPLE_FAULTS`) injects connection drops, read/write stalls,
//!   and wire byte-flips at the reader/writer layers, and transient WAL
//!   errors and hard crashes (`kill=@N`) inside the fleet's log,
//!   replayably.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufRead as _, BufReader, BufWriter, Write as _};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use swsample_core::fault::{FaultInjector, FaultSchedule, FaultSite};
use swsample_core::SamplerSpec;
use swsample_durable::frame::write_frame;
use swsample_durable::wal::DEFAULT_SEGMENT_BYTES;
use swsample_durable::{
    snapshot, DurableError, DurableOptions, Event, Fleet, ResumeOverrides, Storage,
};
#[cfg(doc)]
use swsample_stream::MultiStreamEngine;

use crate::protocol::{
    read_client_msg, wire_samples, ClientMsg, ErrorCode, ProtocolError, ReadOutcome, ServerMsg,
    SubscribeKind, PROTOCOL_VERSION,
};
use crate::stats::{ConnStats, EngineStats, GlobalStats, StatsSnapshot};

/// Everything a [`Server`] needs to start. Build one with
/// [`ServerConfig::new`] and override fields as needed.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// The per-key sampler template.
    pub template: SamplerSpec,
    /// Fleet shard count.
    pub shards: usize,
    /// Ingest worker threads.
    pub threads: usize,
    /// When set, the fleet is write-ahead logged here: created
    /// fresh, or resumed if the directory already holds a snapshot. A
    /// resume takes `shards` and `threads` from this config, and
    /// [`Server::start`] fails if the directory recorded a template
    /// other than `template`.
    pub wal_dir: Option<PathBuf>,
    /// Auto-snapshot cadence for the durable fleet.
    pub snapshot_every: Option<u64>,
    /// WAL segment-roll threshold.
    pub segment_bytes: u64,
    /// Bound on events waiting in the central ingest queue; the
    /// backpressure watermark.
    pub queue_max_events: usize,
    /// Per-connection outbound ring capacity (frames). Pushes beyond it
    /// drop oldest-push-first; replies are never dropped.
    pub ring_capacity: usize,
    /// Scheduler tick interval for continuous queries.
    pub tick: Duration,
    /// Test knob: sleep this long per drained batch, simulating a slow
    /// ingest loop to force backpressure.
    pub drain_delay: Duration,
    /// Socket read deadline. A peer that stalls *mid-frame* past it is
    /// dropped (counted in `deadline_drops`); at a frame boundary the
    /// wakeup is just an idle poll. `Duration::ZERO` disables.
    pub read_deadline: Duration,
    /// Socket write deadline: a peer that blocks our writer past it is
    /// dropped (counted in `deadline_drops`). `Duration::ZERO` disables.
    pub write_deadline: Duration,
    /// Connections with no traffic in either direction for this long
    /// are reaped on a scheduler tick. `Duration::ZERO` disables.
    pub idle_timeout: Duration,
    /// Open-connection cap; the acceptor refuses the excess with a
    /// typed `OVERLOAD` error frame.
    pub max_conns: usize,
    /// Disconnect a subscriber after its ring has dropped more than
    /// this many pushes. 0 disables.
    pub slow_consumer_budget: u64,
    /// Seeded network-fault schedule (drops, stalls, flips); also
    /// forwarded to the fleet's log for transient WAL faults.
    /// Empty (the default) injects nothing.
    pub faults: FaultSchedule,
}

impl ServerConfig {
    /// Defaults for everything but the template: ephemeral loopback
    /// port, 16 shards, 1 thread, no WAL, 256 Ki-event
    /// queue bound, 1024-frame rings, 100 ms ticks.
    pub fn new(template: SamplerSpec) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            template,
            shards: 16,
            threads: 1,
            wal_dir: None,
            snapshot_every: None,
            segment_bytes: DEFAULT_SEGMENT_BYTES,
            queue_max_events: 262_144,
            ring_capacity: 1024,
            tick: Duration::from_millis(100),
            drain_delay: Duration::ZERO,
            read_deadline: Duration::from_secs(30),
            write_deadline: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(300),
            max_conns: 4096,
            slow_consumer_budget: 65_536,
            faults: FaultSchedule::default(),
        }
    }
}

/// Per-connection outbound frame ring: drop-oldest for droppable
/// entries (continuous-query pushes), never for replies.
struct OutRing {
    cap: usize,
    entries: VecDeque<(bool, Vec<u8>)>,
    drops: u64,
    closed: bool,
}

impl OutRing {
    fn new(cap: usize) -> OutRing {
        OutRing {
            cap: cap.max(1),
            entries: VecDeque::new(),
            drops: 0,
            closed: false,
        }
    }

    /// Queue a frame payload; returns how many pushes were dropped to
    /// make room (0 or 1).
    fn push(&mut self, droppable: bool, payload: Vec<u8>) -> u64 {
        if self.closed {
            return 0;
        }
        if self.entries.len() >= self.cap {
            if let Some(pos) = self.entries.iter().position(|(d, _)| *d) {
                // Oldest droppable frame makes room.
                self.entries.remove(pos);
                self.drops += 1;
                self.entries.push_back((droppable, payload));
                return 1;
            }
            if droppable {
                // Ring full of replies: the incoming push is the one
                // that gives way.
                self.drops += 1;
                return 1;
            }
            // Replies are never dropped; the ring stretches (bounded in
            // practice by the client's own request pipelining).
        }
        self.entries.push_back((droppable, payload));
        0
    }
}

struct Conn {
    id: u64,
    stream: TcpStream,
    out: Mutex<OutRing>,
    out_cv: Condvar,
    events_in: AtomicU64,
    batches_in: AtomicU64,
    busy_rejections: AtomicU64,
    /// The client's `HELLO` session id (0 = no ingest dedup).
    session: AtomicU64,
    /// Milliseconds since server start of the last traffic in either
    /// direction; the scheduler's idle-reap clock.
    last_activity_ms: AtomicU64,
    /// Set once by the reaper so a connection is only ever counted (and
    /// shut down) once, even if teardown races the next tick.
    reaped: AtomicBool,
    /// Server start instant, for stamping `last_activity_ms`.
    started: Instant,
}

impl Conn {
    fn touch(&self) {
        self.last_activity_ms
            .store(self.started.elapsed().as_millis() as u64, Ordering::Relaxed);
    }

    fn send(&self, droppable: bool, msg: &ServerMsg) -> u64 {
        self.touch();
        let dropped = {
            let mut ring = self.out.lock().expect("out ring poisoned");
            ring.push(droppable, msg.encode())
        };
        self.out_cv.notify_all();
        dropped
    }

    fn close_ring(&self) {
        self.out.lock().expect("out ring poisoned").closed = true;
        self.out_cv.notify_all();
    }

    fn stats(&self) -> ConnStats {
        ConnStats {
            conn_id: self.id,
            events_in: self.events_in.load(Ordering::Relaxed),
            batches_in: self.batches_in.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            subscriber_drops: self.out.lock().expect("out ring poisoned").drops,
        }
    }
}

struct QueuedBatch {
    conn_id: u64,
    /// The connection's `HELLO` session id at enqueue time (0 = no
    /// dedup).
    session: u64,
    seq: u64,
    events: Vec<Event<u64, u64>>,
}

#[derive(Default)]
struct QueueInner {
    batches: VecDeque<QueuedBatch>,
    pending_events: usize,
    hwm_events: usize,
}

/// The bounded central ingest queue. `push` rejects (→ `BUSY`) instead
/// of exceeding `max_events`, so `hwm_events <= max_events` by
/// construction.
struct IngestQueue {
    inner: Mutex<QueueInner>,
    cv: Condvar,
    max_events: usize,
}

impl IngestQueue {
    fn new(max_events: usize) -> IngestQueue {
        IngestQueue {
            inner: Mutex::new(QueueInner::default()),
            cv: Condvar::new(),
            max_events: max_events.max(1),
        }
    }

    fn push(&self, batch: QueuedBatch) -> Result<(), u64> {
        let mut inner = self.inner.lock().expect("ingest queue poisoned");
        let n = batch.events.len();
        if inner.pending_events + n > self.max_events {
            return Err(inner.pending_events as u64);
        }
        inner.pending_events += n;
        inner.hwm_events = inner.hwm_events.max(inner.pending_events);
        inner.batches.push_back(batch);
        drop(inner);
        self.cv.notify_one();
        Ok(())
    }

    /// Next batch, blocking. `None` only after shutdown is flagged
    /// *and* the queue has fully drained — no enqueued event is lost.
    fn pop(&self, shutdown: &AtomicBool) -> Option<QueuedBatch> {
        let mut inner = self.inner.lock().expect("ingest queue poisoned");
        loop {
            if let Some(batch) = inner.batches.pop_front() {
                inner.pending_events -= batch.events.len();
                return Some(batch);
            }
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(inner, Duration::from_millis(50))
                .expect("ingest queue poisoned");
            inner = guard;
        }
    }
}

struct Subscription {
    id: u64,
    conn_id: u64,
    kind: SubscribeKind,
    key: u64,
    every_ticks: u64,
    threshold: u64,
}

struct Shared {
    cfg: ServerConfig,
    fleet: Fleet<u64, u64>,
    queue: IngestQueue,
    conns: Mutex<BTreeMap<u64, Arc<Conn>>>,
    subs: Mutex<Vec<Subscription>>,
    global: Mutex<GlobalStats>,
    sub_drops: AtomicU64,
    shutdown: AtomicBool,
    /// Pairs with `shutdown_cv` so the scheduler's absolute-deadline
    /// wait (and any embedding loop) wakes the moment shutdown is
    /// requested instead of on its next poll.
    shutdown_mx: Mutex<()>,
    shutdown_cv: Condvar,
    /// Highest-applied ingest watermark per `HELLO` session: the value
    /// is one past the last applied `seq`, so `seq < watermark` means
    /// "already applied — ack, don't reapply".
    sessions: Mutex<HashMap<u64, u64>>,
    /// The seeded network-fault injector (inert when no schedule).
    injector: FaultInjector,
    next_conn_id: AtomicU64,
    next_sub_id: AtomicU64,
    reader_threads: Mutex<Vec<JoinHandle<()>>>,
    writer_threads: Mutex<Vec<JoinHandle<()>>>,
    started: Instant,
    /// From the start of the first applied batch to the end of the
    /// latest one: the span the shutdown line's `elems_per_sec` divides
    /// by, so idle time before and after the traffic does not count.
    apply_span: Mutex<Option<(Instant, Instant)>>,
}

impl Shared {
    fn global(&self) -> MutexGuard<'_, GlobalStats> {
        self.global.lock().expect("global counters poisoned")
    }

    /// Flag shutdown and wake everything that might be waiting on it:
    /// the ingest queue and the shutdown condvar.
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.cv.notify_all();
        let _guard = self.shutdown_mx.lock().expect("shutdown lock poisoned");
        self.shutdown_cv.notify_all();
    }

    /// Sleep until `deadline` or until shutdown is requested, whichever
    /// comes first. Returns true when shutdown was requested.
    fn wait_shutdown_until(&self, deadline: Instant) -> bool {
        let mut guard = self.shutdown_mx.lock().expect("shutdown lock poisoned");
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, _) = self
                .shutdown_cv
                .wait_timeout(guard, deadline - now)
                .expect("shutdown lock poisoned");
            guard = next;
        }
    }

    /// One consistent snapshot: global counters, queue depth/watermark,
    /// fleet shape, and per-connection counters, all under the global
    /// lock (the single place these locks nest).
    fn snapshot(&self) -> StatsSnapshot {
        let mut global = self.global().clone();
        {
            let q = self.queue.inner.lock().expect("ingest queue poisoned");
            global.queue_events = q.pending_events as u64;
            global.queue_hwm_events = q.hwm_events as u64;
        }
        global.subscriber_drops = self.sub_drops.load(Ordering::Relaxed);
        global.faults_injected = self.injector.injected_total();
        global.wal_retries = self.fleet.wal_retries();
        let conns: Vec<ConnStats> = self
            .conns
            .lock()
            .expect("conn registry poisoned")
            .values()
            .map(|c| c.stats())
            .collect();
        StatsSnapshot {
            global,
            engine: EngineStats::of(self.fleet.engine()),
            conns,
        }
    }

    /// Extend the apply span by a batch applied from `began` until now.
    fn record_apply(&self, began: Instant) {
        let mut span = self.apply_span.lock().expect("apply span poisoned");
        let first = span.map_or(began, |(first, _)| first);
        *span = Some((first, Instant::now()));
    }

    /// Events applied per second of the apply span (0 before any batch).
    fn apply_rate(&self, events_applied: u64) -> f64 {
        match *self.apply_span.lock().expect("apply span poisoned") {
            Some((first, last)) => events_applied as f64 / (last - first).as_secs_f64().max(1e-9),
            None => 0.0,
        }
    }

    fn conn(&self, id: u64) -> Option<Arc<Conn>> {
        self.conns
            .lock()
            .expect("conn registry poisoned")
            .get(&id)
            .cloned()
    }
}

/// A running server. Dropping it without [`shutdown`](Server::shutdown)
/// still shuts down gracefully (drains and snapshots), discarding the
/// final stats.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    ingest: Option<JoinHandle<()>>,
    scheduler: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind, build the fleet, and spawn the acceptor, ingest loop, and
    /// scheduler.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let fleet = open_fleet(&cfg).map_err(io::Error::other)?;
        let injector = FaultInjector::new(cfg.faults.clone());
        let shared = Arc::new(Shared {
            queue: IngestQueue::new(cfg.queue_max_events),
            cfg,
            fleet,
            conns: Mutex::new(BTreeMap::new()),
            subs: Mutex::new(Vec::new()),
            global: Mutex::new(GlobalStats::default()),
            sub_drops: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            shutdown_mx: Mutex::new(()),
            shutdown_cv: Condvar::new(),
            sessions: Mutex::new(HashMap::new()),
            injector,
            next_conn_id: AtomicU64::new(1),
            next_sub_id: AtomicU64::new(1),
            reader_threads: Mutex::new(Vec::new()),
            writer_threads: Mutex::new(Vec::new()),
            started: Instant::now(),
            apply_span: Mutex::new(None),
        });
        let spawn = |name: &str, body: Box<dyn FnOnce() + Send>| -> io::Result<JoinHandle<()>> {
            let tag = name.to_string();
            std::thread::Builder::new()
                .name(tag.clone())
                .spawn(move || {
                    if catch_unwind(AssertUnwindSafe(body)).is_err() {
                        eprintln!("swsample-server: {tag} thread panicked");
                    }
                })
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            spawn(
                "swsample-acceptor",
                Box::new(move || accept_loop(shared, listener)),
            )?
        };
        let ingest = {
            let shared = Arc::clone(&shared);
            spawn("swsample-ingest", Box::new(move || ingest_loop(shared)))?
        };
        let scheduler = {
            let shared = Arc::clone(&shared);
            spawn(
                "swsample-scheduler",
                Box::new(move || scheduler_loop(shared)),
            )?
        };
        Ok(Server {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            ingest: Some(ingest),
            scheduler: Some(scheduler),
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A consistent stats snapshot of the running server.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// True once shutdown has been requested — by a `SHUTDOWN` frame or
    /// a [`shutdown`](Server::shutdown) call.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Block up to `timeout` waiting for a shutdown request; true when
    /// one arrived. The embedding loop's alternative to polling
    /// [`shutdown_requested`](Server::shutdown_requested) on a timer.
    pub fn wait_shutdown_requested(&self, timeout: Duration) -> bool {
        self.shared.wait_shutdown_until(Instant::now() + timeout)
    }

    /// Graceful shutdown: stop accepting, unblock readers, drain every
    /// enqueued batch into the fleet, fsync + final-snapshot the WAL,
    /// flush and close every connection. Returns the final stats after
    /// printing the one-line stderr metrics summary.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> StatsSnapshot {
        self.shared.request_shutdown();
        // 1. Stop accepting — after this join the registry can only
        //    shrink, so no reader escapes the next step.
        if let Some(handle) = self.acceptor.take() {
            wake_acceptor(self.local_addr);
            let _ = handle.join();
        }
        // 2. Unblock and join every reader: no new work can enter the
        //    ingest queue once they are gone.
        for conn in self
            .shared
            .conns
            .lock()
            .expect("conn registry poisoned")
            .values()
        {
            let _ = conn.stream.shutdown(Shutdown::Read);
        }
        let readers: Vec<JoinHandle<()>> = std::mem::take(
            &mut *self
                .shared
                .reader_threads
                .lock()
                .expect("reader threads poisoned"),
        );
        for handle in readers {
            let _ = handle.join();
        }
        // 3. The ingest loop drains the queue fully — every accepted
        //    batch is applied and acked — then closes the fleet (final
        //    WAL fsync + snapshot).
        self.shared.queue.cv.notify_all();
        if let Some(handle) = self.ingest.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
        let stats = self.shared.snapshot();
        // 4. Writers flush their rings (reader teardown closed them)
        //    and half-close the sockets.
        let writers: Vec<JoinHandle<()>> = std::mem::take(
            &mut *self
                .shared
                .writer_threads
                .lock()
                .expect("writer threads poisoned"),
        );
        for handle in writers {
            let _ = handle.join();
        }
        let elems_per_sec = self.shared.apply_rate(stats.global.events_applied);
        eprintln!("{}", stats.metrics_line(elems_per_sec));
        stats
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() || self.ingest.is_some() || self.scheduler.is_some() {
            self.shutdown_inner();
        }
    }
}

/// The server's fleet: in memory, or on `cfg.wal_dir` — resumed when
/// the directory already holds a snapshot (with the configured shard
/// and thread counts), created fresh otherwise.
fn open_fleet(cfg: &ServerConfig) -> Result<Fleet<u64, u64>, DurableError> {
    let storage = match &cfg.wal_dir {
        None => Storage::Memory,
        Some(dir) => Storage::Wal(
            dir.clone(),
            DurableOptions {
                segment_bytes: cfg.segment_bytes,
                snapshot_every: cfg.snapshot_every,
                faults: cfg.faults.clone(),
            },
            // A missing directory has no snapshots: `create` makes it.
            snapshot::list_snapshots(dir)
                .is_ok_and(|s| !s.is_empty())
                .then_some(ResumeOverrides {
                    shards: Some(cfg.shards),
                    threads: Some(cfg.threads),
                }),
        ),
    };
    Fleet::start(cfg.template.clone(), cfg.shards, cfg.threads, storage)
}

/// Blocks in `accept`; [`wake_acceptor`] unparks it at shutdown. Any
/// connection accepted once the shutdown flag is set — the wake-up
/// connection included — is dropped unserved.
fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let open = shared.conns.lock().expect("conn registry poisoned").len();
                if open >= shared.cfg.max_conns {
                    reject_conn(&shared, stream);
                } else if let Err(e) = spawn_conn(&shared, stream) {
                    eprintln!("swsample-server: failed to start connection: {e}");
                }
            }
            Err(e) => {
                eprintln!("swsample-server: accept error: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Unpark an acceptor blocked in `accept` on `addr` with one throwaway
/// connection. A listener bound to an unspecified address (`0.0.0.0`,
/// `::`) is reached through loopback.
fn wake_acceptor(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

/// At the `--max-conns` cap: one typed `OVERLOAD` frame, then close.
fn reject_conn(shared: &Shared, stream: TcpStream) {
    shared.global().conns_rejected += 1;
    let payload = ServerMsg::Error {
        code: ErrorCode::Overload,
        offset: 0,
        detail: format!(
            "server at its connection cap ({}); retry later",
            shared.cfg.max_conns
        ),
    }
    .encode();
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut writer = BufWriter::new(stream);
    let _ = write_frame(&mut writer, &payload);
    let _ = writer.flush();
}

fn spawn_conn(shared: &Arc<Shared>, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    if !shared.cfg.read_deadline.is_zero() {
        stream.set_read_timeout(Some(shared.cfg.read_deadline))?;
    }
    if !shared.cfg.write_deadline.is_zero() {
        stream.set_write_timeout(Some(shared.cfg.write_deadline))?;
    }
    let id = shared.next_conn_id.fetch_add(1, Ordering::SeqCst);
    let conn = Arc::new(Conn {
        id,
        stream: stream.try_clone()?,
        out: Mutex::new(OutRing::new(shared.cfg.ring_capacity)),
        out_cv: Condvar::new(),
        events_in: AtomicU64::new(0),
        batches_in: AtomicU64::new(0),
        busy_rejections: AtomicU64::new(0),
        session: AtomicU64::new(0),
        last_activity_ms: AtomicU64::new(shared.started.elapsed().as_millis() as u64),
        reaped: AtomicBool::new(false),
        started: shared.started,
    });
    shared
        .conns
        .lock()
        .expect("conn registry poisoned")
        .insert(id, Arc::clone(&conn));
    {
        let mut g = shared.global();
        g.connections_total += 1;
        g.connections_open += 1;
    }
    let reader = {
        let shared = Arc::clone(shared);
        let conn = Arc::clone(&conn);
        let stream = stream.try_clone()?;
        std::thread::Builder::new()
            .name(format!("swsample-conn-{id}-r"))
            .spawn(move || {
                if catch_unwind(AssertUnwindSafe(|| reader_loop(&shared, &conn, stream))).is_err() {
                    eprintln!("swsample-server: connection {id} reader panicked");
                }
                // Teardown runs whether the reader returned or panicked.
                conn_teardown(&shared, &conn);
            })?
    };
    let writer = {
        let shared = Arc::clone(shared);
        let conn = Arc::clone(&conn);
        std::thread::Builder::new()
            .name(format!("swsample-conn-{id}-w"))
            .spawn(move || {
                if catch_unwind(AssertUnwindSafe(|| writer_loop(&shared, &conn, stream))).is_err() {
                    eprintln!("swsample-server: connection {id} writer panicked");
                }
            })?
    };
    shared
        .reader_threads
        .lock()
        .expect("reader threads poisoned")
        .push(reader);
    shared
        .writer_threads
        .lock()
        .expect("writer threads poisoned")
        .push(writer);
    Ok(())
}

fn conn_teardown(shared: &Shared, conn: &Conn) {
    shared
        .conns
        .lock()
        .expect("conn registry poisoned")
        .remove(&conn.id);
    shared
        .subs
        .lock()
        .expect("subscriptions poisoned")
        .retain(|s| s.conn_id != conn.id);
    shared.global().connections_open -= 1;
    conn.close_ring();
}

/// True for the error kinds a socket read/write deadline produces.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn reader_loop(shared: &Arc<Shared>, conn: &Arc<Conn>, stream: TcpStream) {
    let mut reader = BufReader::new(stream);
    let mut offset = 0u64;
    let mut hello_done = false;
    'conn: loop {
        // Wait at the frame boundary without consuming anything. A
        // read-deadline wakeup with no bytes pending is an idle poll —
        // patience here is fine, the scheduler reaps idle connections —
        // but once the first byte of a frame lands, the deadline below
        // applies to the *rest of that frame*.
        loop {
            match reader.fill_buf() {
                Ok([]) => break 'conn, // clean EOF
                Ok(_) => break,
                Err(e) if is_timeout(&e) => {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        break 'conn;
                    }
                }
                Err(_) => break 'conn,
            }
        }
        let outcome = match read_client_msg(&mut reader, &mut offset) {
            Ok(outcome) => outcome,
            Err(e) if is_timeout(&e) => {
                // A frame started but the peer stalled past the read
                // deadline mid-frame: drop the connection.
                shared.global().deadline_drops += 1;
                let _ = conn.stream.shutdown(Shutdown::Both);
                break;
            }
            // Any other `Err` is a connection-level I/O failure: just
            // drop the connection.
            Err(_) => break,
        };
        let msg = match outcome {
            ReadOutcome::Eof => break,
            ReadOutcome::Bad(e) => {
                // Typed protocol error, then close: framing is
                // unrecoverable mid-stream. A torn frame here is a peer
                // that died mid-INGEST — the partial batch was never
                // decoded, so nothing of it can reach the fleet.
                if e.code == ErrorCode::TornFrame {
                    shared.global().partial_frames += 1;
                }
                send_protocol_error(conn, &e);
                break;
            }
            ReadOutcome::Msg(msg) => msg,
        };
        conn.touch();
        if !shared.injector.is_empty() {
            if let Some(hit) = shared.injector.check(FaultSite::StallRx) {
                std::thread::sleep(Duration::from_millis(hit.param.unwrap_or(0)));
            }
            if shared.injector.check(FaultSite::DropRx).is_some() {
                // Injected network fault: sever right after a complete
                // frame — the client sees a dead connection and must
                // reconnect and resend (dedup keeps it exactly-once).
                let _ = conn.stream.shutdown(Shutdown::Both);
                break;
            }
        }
        if !hello_done {
            match msg {
                ClientMsg::Hello {
                    version, session, ..
                } if version == PROTOCOL_VERSION => {
                    hello_done = true;
                    conn.session.store(session, Ordering::Relaxed);
                    conn.send(
                        false,
                        &ServerMsg::HelloAck {
                            version: PROTOCOL_VERSION,
                            conn_id: conn.id,
                            template: shared.fleet.engine().template().to_string(),
                        },
                    );
                    continue;
                }
                ClientMsg::Hello { version, .. } => {
                    send_protocol_error(
                        conn,
                        &ProtocolError {
                            code: ErrorCode::Version,
                            offset,
                            detail: format!(
                                "client speaks version {version}, server speaks {PROTOCOL_VERSION}"
                            ),
                        },
                    );
                    break;
                }
                _ => {
                    send_protocol_error(
                        conn,
                        &ProtocolError {
                            code: ErrorCode::State,
                            offset,
                            detail: "first message must be HELLO".into(),
                        },
                    );
                    break;
                }
            }
        }
        match msg {
            ClientMsg::Hello { .. } => {
                send_protocol_error(
                    conn,
                    &ProtocolError {
                        code: ErrorCode::State,
                        offset,
                        detail: "duplicate HELLO".into(),
                    },
                );
                break;
            }
            ClientMsg::Ingest { seq, batch } => {
                let n = batch.len() as u64;
                conn.events_in.fetch_add(n, Ordering::Relaxed);
                conn.batches_in.fetch_add(1, Ordering::Relaxed);
                {
                    let mut g = shared.global();
                    g.events_in += n;
                    g.batches_in += 1;
                }
                if batch.is_empty() {
                    conn.send(false, &ServerMsg::IngestOk { seq, events: 0 });
                    continue;
                }
                match shared.queue.push(QueuedBatch {
                    conn_id: conn.id,
                    session: conn.session.load(Ordering::Relaxed),
                    seq,
                    events: batch,
                }) {
                    Ok(()) => {} // acked by the ingest loop once applied
                    Err(queued_events) => {
                        conn.busy_rejections.fetch_add(1, Ordering::Relaxed);
                        shared.global().busy_rejections += 1;
                        conn.send(false, &ServerMsg::Busy { seq, queued_events });
                    }
                }
            }
            ClientMsg::Query { key } => {
                let samples = shared.fleet.engine().sample_k(&key);
                let samples = samples.as_deref().map(wire_samples);
                conn.send(false, &ServerMsg::Samples { key, samples });
            }
            ClientMsg::Subscribe {
                kind,
                key,
                every_ticks,
                threshold,
            } => {
                let id = shared.next_sub_id.fetch_add(1, Ordering::SeqCst);
                shared
                    .subs
                    .lock()
                    .expect("subscriptions poisoned")
                    .push(Subscription {
                        id,
                        conn_id: conn.id,
                        kind,
                        key,
                        every_ticks: every_ticks.max(1),
                        threshold,
                    });
                conn.send(false, &ServerMsg::SubAck { id });
            }
            ClientMsg::Stats => {
                conn.send(false, &ServerMsg::StatsReply(shared.snapshot()));
            }
            ClientMsg::Bye => {
                conn.send(false, &ServerMsg::Bye);
                break;
            }
            ClientMsg::Shutdown => {
                conn.send(false, &ServerMsg::Bye);
                shared.request_shutdown();
                break;
            }
        }
    }
}

fn send_protocol_error(conn: &Conn, e: &ProtocolError) {
    conn.send(
        false,
        &ServerMsg::Error {
            code: e.code,
            offset: e.offset,
            detail: e.detail.clone(),
        },
    );
}

fn writer_loop(shared: &Shared, conn: &Conn, stream: TcpStream) {
    let mut writer = BufWriter::new(stream);
    loop {
        let payload = {
            let mut ring = conn.out.lock().expect("out ring poisoned");
            loop {
                if let Some((_, payload)) = ring.entries.pop_front() {
                    break Some(payload);
                }
                if ring.closed {
                    break None;
                }
                ring = conn.out_cv.wait(ring).expect("out ring poisoned");
            }
        };
        match payload {
            Some(payload) => {
                // Build the frame in memory so injected faults can cut
                // or corrupt it byte-precisely.
                let mut frame = Vec::with_capacity(payload.len() + 16);
                if write_frame(&mut frame, &payload).is_err() {
                    break;
                }
                if !shared.injector.is_empty() {
                    if let Some(hit) = shared.injector.check(FaultSite::StallTx) {
                        std::thread::sleep(Duration::from_millis(hit.param.unwrap_or(0)));
                    }
                    if let Some(hit) = shared.injector.check(FaultSite::DropTx) {
                        // Injected fault: send a strict prefix of the
                        // frame, then sever — the peer sees a torn
                        // frame, reconnects, and resends (its ack for
                        // this batch is lost, so dedup must hold).
                        let cut = 1 + (hit.aux as usize) % (frame.len() - 1);
                        let _ = writer.write_all(&frame[..cut]);
                        let _ = writer.flush();
                        let _ = conn.stream.shutdown(Shutdown::Both);
                        break;
                    }
                    if let Some(hit) = shared.injector.check(FaultSite::FlipTx) {
                        // Injected fault: flip one byte in flight; the
                        // peer's CRC rejects the frame.
                        let at = (hit.aux as usize) % frame.len();
                        frame[at] ^= 0x20;
                    }
                }
                if let Err(e) = writer.write_all(&frame).and_then(|_| writer.flush()) {
                    // Write deadline exceeded means a consumer that
                    // stopped draining; anything else is a dead peer.
                    if is_timeout(&e) {
                        shared.global().deadline_drops += 1;
                        let _ = conn.stream.shutdown(Shutdown::Both);
                    }
                    break;
                }
            }
            None => break,
        }
    }
    let _ = writer.flush();
    let _ = conn.stream.shutdown(Shutdown::Write);
}

fn ingest_loop(shared: Arc<Shared>) {
    while let Some(batch) = shared.queue.pop(&shared.shutdown) {
        if !shared.cfg.drain_delay.is_zero() {
            std::thread::sleep(shared.cfg.drain_delay);
        }
        let n = batch.events.len() as u64;
        // Session dedup at *apply* time (not enqueue): after a lost ack
        // the client's resent copy can coexist in the FIFO with the
        // original, and only whichever drains first may apply. `seq <
        // watermark` is acked as applied — to the client an ack for a
        // dedup'd retry is indistinguishable from the lost original.
        let duplicate = batch.session != 0 && {
            let sessions = shared.sessions.lock().expect("session table poisoned");
            sessions
                .get(&batch.session)
                .is_some_and(|&watermark| batch.seq < watermark)
        };
        let reply = if duplicate {
            shared.global().dup_batches += 1;
            ServerMsg::IngestOk {
                seq: batch.seq,
                events: n,
            }
        } else {
            let began = Instant::now();
            match shared.fleet.ingest(&batch.events) {
                Ok(()) => {
                    shared.record_apply(began);
                    shared.global().events_applied += n;
                    if batch.session != 0 {
                        shared
                            .sessions
                            .lock()
                            .expect("session table poisoned")
                            .insert(batch.session, batch.seq + 1);
                    }
                    ServerMsg::IngestOk {
                        seq: batch.seq,
                        events: n,
                    }
                }
                Err(e) => ServerMsg::Error {
                    code: ErrorCode::Internal,
                    offset: 0,
                    detail: e.to_string(),
                },
            }
        };
        if let Some(conn) = shared.conn(batch.conn_id) {
            conn.send(false, &reply);
        }
    }
    // Queue fully drained; make everything durable before exit.
    if let Err(e) = shared.fleet.close() {
        eprintln!("swsample-server: closing the fleet failed: {e}");
    }
}

fn scheduler_loop(shared: Arc<Shared>) {
    let mut tick = 0u64;
    // Absolute deadlines: each tick is scheduled at `previous + tick`
    // rather than `now + tick`, so jitter doesn't accumulate and tick
    // cadence is independent of how long tick work takes. A shutdown
    // request wakes the wait immediately (no fixed-interval polling).
    let mut next = Instant::now() + shared.cfg.tick;
    loop {
        if shared.wait_shutdown_until(next) {
            break;
        }
        tick += 1;
        let now = Instant::now();
        next += shared.cfg.tick;
        if next < now {
            // We fell behind (a long reap or sample pass); resume the
            // cadence from now instead of burst-ticking to catch up.
            next = now + shared.cfg.tick;
        }
        shared.global().ticks = tick;
        reap_connections(&shared);
        // Clone the due subscriptions out so sampling and delivery run
        // without the subscription lock.
        let due: Vec<(u64, u64, SubscribeKind, u64, u64)> = shared
            .subs
            .lock()
            .expect("subscriptions poisoned")
            .iter()
            .filter(|s| tick.is_multiple_of(s.every_ticks))
            .map(|s| (s.id, s.conn_id, s.kind, s.key, s.threshold))
            .collect();
        if due.is_empty() {
            continue;
        }
        let mut keys: Vec<u64> = due.iter().map(|d| d.3).collect();
        keys.sort_unstable();
        keys.dedup();
        // One snapshot-consistent pass over the shard locks for every
        // due key.
        let samples = shared.fleet.engine().sample_k_many(&keys);
        let aggregate = |key: u64| -> Option<(u64, u64)> {
            let at = keys.binary_search(&key).ok()?;
            let sample = samples[at].as_ref()?;
            let sum = sample.iter().map(|s| *s.value()).sum();
            Some((sample.len() as u64, sum))
        };
        for (id, conn_id, kind, key, threshold) in due {
            let Some((count, sum)) = aggregate(key) else {
                continue;
            };
            if kind == SubscribeKind::Threshold && sum < threshold {
                continue;
            }
            if let Some(conn) = shared.conn(conn_id) {
                let dropped = conn.send(
                    true,
                    &ServerMsg::Push {
                        id,
                        tick,
                        key,
                        count,
                        sum,
                    },
                );
                if dropped > 0 {
                    shared.sub_drops.fetch_add(dropped, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Scheduler-tick sweep over open connections: sever any that sat idle
/// past `idle_timeout`, and any subscriber whose ring dropped more
/// pushes than `slow_consumer_budget` (a consumer that persistently
/// can't keep up is better disconnected than silently lossy forever).
fn reap_connections(shared: &Shared) {
    let idle = shared.cfg.idle_timeout;
    let budget = shared.cfg.slow_consumer_budget;
    if idle.is_zero() && budget == 0 {
        return;
    }
    let now_ms = shared.started.elapsed().as_millis() as u64;
    let mut idle_victims: Vec<Arc<Conn>> = Vec::new();
    let mut slow_victims: Vec<Arc<Conn>> = Vec::new();
    {
        let conns = shared.conns.lock().expect("connections poisoned");
        for conn in conns.values() {
            let idle_for = now_ms.saturating_sub(conn.last_activity_ms.load(Ordering::Relaxed));
            let is_idle = !idle.is_zero() && u128::from(idle_for) >= idle.as_millis();
            let is_slow = budget > 0 && conn.out.lock().expect("out ring poisoned").drops > budget;
            if (is_idle || is_slow) && !conn.reaped.swap(true, Ordering::Relaxed) {
                if is_idle {
                    idle_victims.push(Arc::clone(conn));
                } else {
                    slow_victims.push(Arc::clone(conn));
                }
            }
        }
    }
    // Counters and socket teardown outside the connection-map lock; the
    // reader thread notices the severed socket and unregisters.
    if !idle_victims.is_empty() {
        shared.global().idle_reaped += idle_victims.len() as u64;
    }
    if !slow_victims.is_empty() {
        shared.global().slow_disconnects += slow_victims.len() as u64;
    }
    for conn in idle_victims.into_iter().chain(slow_victims) {
        let _ = conn.stream.shutdown(Shutdown::Both);
        conn.close_ring();
    }
}
