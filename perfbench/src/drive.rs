//! The served path, end to end: an in-process [`Server`] driven over
//! loopback by [`Client`]s, with every repetition's answers checked
//! against an offline engine.
//!
//! Ingest connections are closed-loop: the wire protocol allows one
//! `INGEST` in flight per connection (the `(session, seq)` dedup relies
//! on it), so each connection sends its next batch when the previous
//! one is acked. A workload with a query rate adds one connection that
//! sends `QUERY` on a fixed schedule, timed from each query's due time.

use std::collections::{HashMap, HashSet};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use swsample_core::spec::Replacement;
use swsample_server::protocol::{WireEvent, WireSample};
use swsample_server::{Client, GlobalStats, IngestOutcome, Server, ServerConfig};
use swsample_stream::MultiStreamEngine;

use crate::trace::{SpanId, Tracer};
use crate::workload::{Workload, SHARDS, VERIFY_HOT, VERIFY_SAMPLED};

/// `BUSY` replies one batch may absorb before its connection gives up.
const MAX_BUSY_PER_BATCH: u64 = 1000;

/// The offline reference: the same batches applied in connection-major
/// order to a serial engine. Per-key state folds over that key's own
/// subsequence, so the server must answer byte-identically.
pub struct Reference {
    engine: MultiStreamEngine<u64, u64>,
    answers: HashMap<u64, Option<Vec<WireSample>>>,
}

impl Reference {
    /// Apply every batch of `w` offline.
    pub fn build(w: &Workload) -> Result<Reference, String> {
        let mut engine =
            MultiStreamEngine::new(w.shape.template.clone()).map_err(|e| e.to_string())?;
        for batch in w.batches() {
            engine.ingest(batch);
        }
        Ok(Reference {
            engine,
            answers: HashMap::new(),
        })
    }

    /// The expected answer for `key`, drawn once and remembered: a
    /// timestamp-window query consumes the key's sampler randomness, and
    /// every repetition queries a fresh server exactly once per key.
    fn answer(&mut self, key: u64) -> &Option<Vec<WireSample>> {
        let engine = &self.engine;
        self.answers.entry(key).or_insert_with(|| {
            engine.sample_k(&key).map(|samples| {
                samples
                    .iter()
                    .map(|s| (*s.value(), s.index(), s.timestamp()))
                    .collect()
            })
        })
    }
}

/// Server counters over one drive (`Server::stats()` after minus before).
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Events received in `INGEST` frames.
    pub events_in: u64,
    /// Events applied to the fleet.
    pub events_applied: u64,
    /// `INGEST` frames answered `BUSY`.
    pub busy_rejections: u64,
    /// Ingest-queue high watermark (events).
    pub queue_hwm_events: u64,
    /// Retried batches acked without being applied again.
    pub dup_batches: u64,
}

impl Counters {
    fn delta(before: &GlobalStats, after: &GlobalStats) -> Counters {
        Counters {
            events_in: after.events_in - before.events_in,
            events_applied: after.events_applied - before.events_applied,
            busy_rejections: after.busy_rejections - before.busy_rejections,
            queue_hwm_events: after.queue_hwm_events,
            dup_batches: after.dup_batches - before.dup_batches,
        }
    }
}

/// What one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// `Server::start` until every connection has its `HELLO_ACK`.
    pub setup_s: f64,
    /// First `INGEST` sent until the last one acked.
    pub ingest_s: f64,
    /// Process CPU seconds over the same interval.
    pub ingest_cpu_s: f64,
    /// Events acked.
    pub events: u64,
    /// Per-batch send-to-`INGEST_OK` latencies.
    pub ack_us: Vec<f64>,
    /// Query latencies: from due time on a query schedule, else the
    /// verification queries' round trips.
    pub query_us: Vec<f64>,
    /// How late the query schedule ran at worst (0 without one).
    pub late_max_us: f64,
    /// Operations sent: ingest attempts and queries.
    pub attempted: u64,
    /// `BUSY` replies, error replies and broken connections.
    pub failed: u64,
    /// Answers that did not match the reference (or, for scheduled
    /// queries, were not a possible sample of the key).
    pub mismatches: u64,
    /// Keys byte-compared against the reference.
    pub verified_keys: u64,
    /// `STATS` fleet memory words per key after the drive.
    pub words_per_key: f64,
    /// Restart on the WAL directory until the first `HELLO_ACK`
    /// (durable workloads).
    pub recovery_s: Option<f64>,
    /// Bytes under the WAL directory after shutdown (durable workloads).
    pub disk_bytes: Option<u64>,
    /// Server counter deltas over the drive.
    pub counters: Counters,
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// User plus system CPU seconds this process (every thread: server and
/// clients alike) has run, from `/proc/self/stat` in its fixed 100 Hz
/// units. Time the hypervisor gives to other guests is not in it.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line, so the 12th and 13th here.
    let ticks: u64 = stat
        .rsplit_once(')')
        .map(|(_, rest)| {
            rest.split_whitespace()
                .skip(11)
                .take(2)
                .filter_map(|f| f.parse::<u64>().ok())
                .sum()
        })
        .unwrap_or(0);
    ticks as f64 / 100.0
}

struct ConnOut {
    acks: Vec<f64>,
    events: u64,
    attempted: u64,
    failed: u64,
    end: Instant,
}

fn drive_conn(
    client: &mut Client,
    batches: &[Vec<WireEvent>],
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> ConnOut {
    let mut out = ConnOut {
        acks: Vec::with_capacity(batches.len()),
        events: 0,
        attempted: 0,
        failed: 0,
        end: Instant::now(),
    };
    'batches: for (seq, batch) in batches.iter().enumerate() {
        let mut busy = 0u64;
        loop {
            out.attempted += 1;
            let sent = Instant::now();
            let open = tracer.begin("client.ingest", parent);
            let reply = client.ingest(seq as u64, batch);
            tracer.end(open);
            match reply {
                Ok(IngestOutcome::Applied(n)) => {
                    out.acks.push(micros(sent.elapsed()));
                    out.events += n;
                    break;
                }
                Ok(IngestOutcome::Busy(_)) if busy < MAX_BUSY_PER_BATCH => {
                    out.failed += 1;
                    busy += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(IngestOutcome::Busy(_)) | Err(_) => {
                    out.failed += 1;
                    break 'batches;
                }
            }
        }
    }
    out.end = Instant::now();
    out
}

/// Whether `answer` could be a sample of `key`: every sampled event
/// belongs to the key, carries its generated timestamp, and (without
/// replacement) appears once. Used for answers drawn mid-drive, which
/// no offline replay can reproduce exactly.
fn plausible(w: &Workload, key: u64, answer: &Option<Vec<WireSample>>) -> bool {
    let Some(samples) = answer else {
        return true;
    };
    let distinct = w.shape.template.replacement == Replacement::Without;
    let mut seen = HashSet::new();
    samples.len() <= w.shape.template.k
        && samples.iter().all(|&(value, _, timestamp)| {
            w.key_of.get(value as usize) == Some(&key)
                && timestamp == value / 64
                && (!distinct || seen.insert(value))
        })
}

struct QueryOut {
    latencies: Vec<f64>,
    late_max_us: f64,
    attempted: u64,
    failed: u64,
    implausible: u64,
    queried: HashSet<u64>,
}

/// Send `QUERY`s at `rate_hz` until `done`, each timed from its due
/// time so a stall also counts against the queries queued behind it.
fn query_schedule(
    client: &mut Client,
    w: &Workload,
    rate_hz: f64,
    done: &AtomicBool,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> QueryOut {
    let mut out = QueryOut {
        latencies: Vec::new(),
        late_max_us: 0.0,
        attempted: 0,
        failed: 0,
        implausible: 0,
        queried: HashSet::new(),
    };
    let period = Duration::from_secs_f64(1.0 / rate_hz);
    let start = Instant::now();
    let mut j: u32 = 0;
    // At least one query, however quickly the ingest side finishes.
    while j == 0 || !done.load(Ordering::Acquire) {
        let due = start + period * j;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        out.late_max_us = out.late_max_us.max(micros(due.elapsed()));
        let key = w.query_keys[j as usize % w.query_keys.len()];
        out.attempted += 1;
        let open = tracer.begin("client.query", parent);
        let answer = client.query(key);
        tracer.end(open);
        match answer {
            Ok(answer) => {
                out.latencies.push(micros(due.elapsed()));
                if !plausible(w, key, &answer) {
                    out.implausible += 1;
                }
                out.queried.insert(key);
            }
            Err(_) => {
                out.failed += 1;
                break;
            }
        }
        j += 1;
    }
    out
}

/// Byte-compare the server's answers with the reference for the
/// hottest keys and a seeded sample of the rest, skipping keys in
/// `skip` (queried mid-drive, so their randomness was consumed at times
/// no replay reproduces). Returns (keys compared, mismatches).
fn verify(
    client: &mut Client,
    w: &Workload,
    reference: &mut Reference,
    skip: &HashSet<u64>,
    mut latencies: Option<&mut Vec<f64>>,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> io::Result<(u64, u64)> {
    let mut chosen: HashSet<u64> = HashSet::new();
    let mut keys: Vec<u64> = Vec::with_capacity(VERIFY_HOT + VERIFY_SAMPLED);
    for (pool, want) in [(&w.hot, VERIFY_HOT), (&w.sampled, VERIFY_SAMPLED)] {
        let start = keys.len();
        for &key in pool.iter() {
            if keys.len() - start == want {
                break;
            }
            if !skip.contains(&key) && chosen.insert(key) {
                keys.push(key);
            }
        }
    }
    let mut mismatches = 0u64;
    for &key in &keys {
        let sent = Instant::now();
        let got = tracer.span("client.query", parent, || client.query(key))?;
        if let Some(lat) = latencies.as_deref_mut() {
            lat.push(micros(sent.elapsed()));
        }
        if &got != reference.answer(key) {
            mismatches += 1;
        }
    }
    Ok((keys.len() as u64, mismatches))
}

fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

/// One repetition: start a fresh server, connect, drive every batch,
/// read the counters, verify (after a restart on the WAL directory for
/// durable workloads) and shut down. `scratch` holds the WAL directory.
pub fn run_rep(
    w: &Workload,
    reference: &mut Reference,
    threads: usize,
    scratch: &Path,
    tracer: &Tracer,
) -> io::Result<Rep> {
    let shape = &w.shape;
    let drive = tracer.begin("drive", None);
    let parent = drive.id();
    let wal_dir = scratch.join("wal");
    let mut cfg = ServerConfig::new(shape.template.clone());
    cfg.shards = SHARDS;
    cfg.threads = threads;
    if shape.durable {
        if wal_dir.exists() {
            std::fs::remove_dir_all(&wal_dir)?;
        }
        cfg.wal_dir = Some(wal_dir.clone());
        cfg.snapshot_every = Some(shape.snapshot_every);
    }
    let mut rep = Rep::default();

    let t0 = Instant::now();
    let server = tracer.span("server.start", parent, || Server::start(cfg.clone()))?;
    let addr = server.local_addr().to_string();
    let connect =
        |name: &str| tracer.span("client.connect", parent, || Client::connect(&addr, name));
    let mut ingest: Vec<Client> = (0..w.per_conn.len())
        .map(|_| connect("perfbench-ingest"))
        .collect::<io::Result<_>>()?;
    let mut query = match shape.query_rate_hz {
        Some(_) => Some(connect("perfbench-query")?),
        None => None,
    };
    rep.setup_s = t0.elapsed().as_secs_f64();
    let before = server.stats().global;

    let done = AtomicBool::new(false);
    let cpu0 = cpu_seconds();
    let started = Instant::now();
    let (conns, scheduled) = std::thread::scope(|s| {
        let senders: Vec<_> = ingest
            .iter_mut()
            .zip(&w.per_conn)
            .map(|(client, batches)| s.spawn(|| drive_conn(client, batches, tracer, parent)))
            .collect();
        let queries = query
            .as_mut()
            .zip(shape.query_rate_hz)
            .map(|(client, rate)| {
                let done = &done;
                s.spawn(move || query_schedule(client, w, rate, done, tracer, parent))
            });
        let conns: Vec<ConnOut> = senders
            .into_iter()
            .map(|h| h.join().expect("ingest connection thread panicked"))
            .collect();
        done.store(true, Ordering::Release);
        let scheduled = queries.map(|h| h.join().expect("query thread panicked"));
        (conns, scheduled)
    });
    let last_ack = conns.iter().map(|c| c.end).max().unwrap_or(started);
    rep.ingest_s = (last_ack - started).as_secs_f64();
    rep.ingest_cpu_s = cpu_seconds() - cpu0;
    for c in conns {
        rep.ack_us.extend(c.acks);
        rep.events += c.events;
        rep.attempted += c.attempted;
        rep.failed += c.failed;
    }
    let mut skip = HashSet::new();
    if let Some(q) = scheduled {
        rep.query_us = q.latencies;
        rep.late_max_us = q.late_max_us;
        rep.attempted += q.attempted;
        rep.failed += q.failed;
        rep.mismatches += q.implausible;
        skip = q.queried;
    }
    let fleet = tracer
        .span("client.stats", parent, || ingest[0].stats())?
        .engine;
    rep.words_per_key = fleet.memory_words as f64 / fleet.keys.max(1) as f64;
    rep.counters = Counters::delta(&before, &server.stats().global);
    // Without a schedule, the verification queries are the query path.
    let verify_latencies = shape.query_rate_hz.is_none();

    let (keys, mismatches) = if shape.durable {
        ingest[0].shutdown_server()?;
        drop(ingest);
        drop(query);
        tracer.span("server.shutdown", parent, || server.shutdown());
        rep.disk_bytes = Some(dir_bytes(&wal_dir)?);
        let t1 = Instant::now();
        let server = tracer.span("server.start", parent, || Server::start(cfg))?;
        let mut client = tracer.span("client.connect", parent, || {
            Client::connect(&server.local_addr().to_string(), "perfbench-verify")
        })?;
        rep.recovery_s = Some(t1.elapsed().as_secs_f64());
        let lat = verify_latencies.then_some(&mut rep.query_us);
        let verdict = verify(&mut client, w, reference, &skip, lat, tracer, parent)?;
        let _ = client.bye();
        tracer.span("server.shutdown", parent, || server.shutdown());
        std::fs::remove_dir_all(&wal_dir)?;
        verdict
    } else {
        let lat = verify_latencies.then_some(&mut rep.query_us);
        let verdict = verify(&mut ingest[0], w, reference, &skip, lat, tracer, parent)?;
        for client in ingest.into_iter().chain(query) {
            let _ = client.bye();
        }
        tracer.span("server.shutdown", parent, || server.shutdown());
        verdict
    };
    rep.attempted += keys;
    rep.mismatches += mismatches;
    rep.verified_keys = keys;
    tracer.end(drive);
    Ok(rep)
}
