//! The load generator: N concurrent connections driving zipf-keyed
//! batches, end-to-end throughput and reply-latency percentiles, and
//! the across-the-wire determinism check.
//!
//! The workload is byte-for-byte the CLI `multi` workload
//! ([`zipf_fleet_events`]), routed to connections by
//! `key % connections` so each key's event subsequence rides one
//! connection in order. Per-key sampler state depends only on that
//! key's own batched subsequence, so the server's interleaving of
//! connections is immaterial: an offline
//! engine fed each connection's batches in connection-major order must
//! answer **byte-identically** — [`run`] asserts exactly that when
//! [`LoadgenConfig::verify`] is set. With one connection the server
//! applies precisely `multi`'s batch sequence, which is what the CI
//! smoke diffs ([`LoadgenConfig::render_multi`] reproduces `multi`'s
//! stdout from query replies alone).

use std::collections::HashMap;
use std::io::{self, Write};
use std::time::{Duration, Instant};

use swsample_core::fault::mix64;
use swsample_core::spec::SamplerSpec;
use swsample_stream::{zipf_fleet_events, MultiStreamEngine};

use crate::client::{Backoff, Client};
use crate::protocol::{wire_samples, WireEvent};
use crate::report::{hot_keys, write_multi_report};

/// What to drive and how hard.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address.
    pub addr: String,
    /// Concurrent connections.
    pub connections: usize,
    /// Zipf key domain (the `multi --keys` flag).
    pub keys: u64,
    /// Total events (the `multi --count` flag).
    pub count: u64,
    /// Zipf skew.
    pub theta: f64,
    /// Workload RNG seed.
    pub workload_seed: u64,
    /// Events per `INGEST` batch.
    pub batch: usize,
    /// After driving, replay the same batches into an offline engine
    /// and assert every touched key's server answer is byte-identical.
    pub verify: bool,
    /// Reproduce the CLI `multi` stdout (top keys, `# keys`, `# memory`
    /// lines) from query replies — only meaningful with 1 connection,
    /// where the server's batch sequence equals `multi`'s.
    pub render_multi: bool,
    /// Hot keys to print in `render_multi` mode.
    pub show: usize,
    /// Send `SHUTDOWN` when done (after queries), asking the server to
    /// drain, fsync, and snapshot.
    pub shutdown_server: bool,
    /// First retry delay for `BUSY` storms and reconnects.
    pub retry_base: Duration,
    /// Retry delay ceiling (bounded exponential backoff).
    pub retry_cap: Duration,
    /// Overall per-operation deadline across `BUSY` retries and
    /// reconnect attempts; `Duration::ZERO` retries forever.
    pub retry_deadline: Duration,
    /// Socket read timeout, so a stalled or byte-flipped server reply
    /// surfaces as an error (and a reconnect) instead of hanging a
    /// connection thread forever. `Duration::ZERO` means blocking
    /// reads.
    pub io_timeout: Duration,
}

impl LoadgenConfig {
    /// Defaults mirroring `multi`'s: 1 connection, 1000 keys, 100k
    /// events, theta 1.1, seed 1, 512-event batches, no verification.
    pub fn new(addr: impl Into<String>) -> LoadgenConfig {
        LoadgenConfig {
            addr: addr.into(),
            connections: 1,
            keys: 1000,
            count: 100_000,
            theta: 1.1,
            workload_seed: 1,
            batch: 512,
            verify: false,
            render_multi: false,
            show: 3,
            shutdown_server: false,
            retry_base: Duration::from_micros(200),
            retry_cap: Duration::from_millis(50),
            retry_deadline: Duration::from_secs(30),
            io_timeout: Duration::from_secs(10),
        }
    }

    /// The retry policy for connection `c`, with a seed derived from
    /// the workload seed and the connection index so concurrent
    /// backoffs don't synchronize (and a given seed replays the same
    /// pacing).
    fn backoff(&self, c: u64) -> Backoff {
        Backoff {
            base: self.retry_base,
            cap: self.retry_cap,
            deadline: (!self.retry_deadline.is_zero()).then_some(self.retry_deadline),
            seed: mix64(self.workload_seed, 0x0042_4143_4b4f_4646, c),
        }
    }
}

/// Connection `c`'s ingest-dedup session id: nonzero, stable for the
/// whole run (so a reconnect resumes the same session) but unique
/// *across* runs — the nonce keeps a second loadgen run against the
/// same server from colliding with the first run's watermarks and
/// silently deduping everything. Session values never influence
/// sampled bytes, so per-run entropy here doesn't cost determinism.
fn session(run_nonce: u64, c: u64) -> u64 {
    mix64(run_nonce, 0x0053_4553_5349_4f4e, c) | 1
}

/// Per-run session entropy: wall clock + pid, mixed.
fn run_nonce() -> u64 {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    mix64(now, u64::from(std::process::id()), 0)
}

/// What the run measured.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Events driven end-to-end.
    pub events_sent: u64,
    /// `INGEST` batches driven (excluding busy retries).
    pub batches_sent: u64,
    /// Wall-clock seconds from first byte to last ack.
    pub seconds: f64,
    /// `events_sent / seconds`.
    pub elems_per_sec: f64,
    /// Median ingest reply latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile ingest reply latency, microseconds.
    pub p99_us: u64,
    /// `BUSY` rejections absorbed by retry (0 = no backpressure hit).
    pub busy_retries: u64,
    /// Connections re-established after a mid-run drop (0 = no faults
    /// or dead peers encountered). Retried batches are deduped
    /// server-side by session, so reconnects never double-apply.
    pub reconnects: u64,
    /// Keys compared against the offline engine (0 unless `verify`).
    pub verified_keys: u64,
}

/// The workload, pre-partitioned: per-connection batch lists plus the
/// per-key traffic counts (for `render_multi`'s hot-key report).
struct Workload {
    per_conn: Vec<Vec<Vec<WireEvent>>>,
    traffic: Vec<(u64, u64)>,
}

fn generate(cfg: &LoadgenConfig) -> Workload {
    let mut traffic: HashMap<u64, u64> = HashMap::new();
    let conns = cfg.connections.max(1);
    let mut per_conn: Vec<Vec<Vec<WireEvent>>> = vec![Vec::new(); conns];
    let mut open: Vec<Vec<WireEvent>> = vec![Vec::with_capacity(cfg.batch); conns];
    let events = zipf_fleet_events(cfg.keys, cfg.theta, cfg.workload_seed);
    for event in events.take(cfg.count as usize) {
        *traffic.entry(event.0).or_insert(0) += 1;
        let c = (event.0 % conns as u64) as usize;
        open[c].push(event);
        if open[c].len() >= cfg.batch {
            per_conn[c].push(std::mem::replace(
                &mut open[c],
                Vec::with_capacity(cfg.batch),
            ));
        }
    }
    for (c, chunk) in open.into_iter().enumerate() {
        if !chunk.is_empty() {
            per_conn[c].push(chunk);
        }
    }
    Workload {
        per_conn,
        traffic: hot_keys(traffic),
    }
}

/// The query/verify phase's fault-tolerant client: every operation it
/// runs is idempotent (queries, stats, template fetch), so on any error
/// it reconnects and simply retries under the backoff's deadline.
struct QuerySide {
    addr: String,
    io_timeout: Duration,
    backoff: Backoff,
    client: Option<Client>,
    reconnects: u64,
}

impl QuerySide {
    fn with<T>(&mut self, mut op: impl FnMut(&mut Client) -> io::Result<T>) -> io::Result<T> {
        let started = Instant::now();
        let mut attempt = 0u64;
        let mut last: Option<io::Error> = None;
        loop {
            if self.client.is_none() {
                match Client::connect(&self.addr, "loadgen-query") {
                    Ok(mut c) => {
                        if !self.io_timeout.is_zero() {
                            c.set_read_timeout(Some(self.io_timeout))?;
                        }
                        self.client = Some(c);
                    }
                    Err(e) => last = Some(e),
                }
            }
            if let Some(c) = self.client.as_mut() {
                match op(c) {
                    Ok(v) => return Ok(v),
                    Err(e) => {
                        self.client = None;
                        self.reconnects += 1;
                        last = Some(e);
                    }
                }
            }
            if self
                .backoff
                .deadline
                .is_some_and(|d| started.elapsed() >= d)
            {
                let detail = last.map(|e| e.to_string()).unwrap_or_default();
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("query-side retry deadline exceeded: {detail}"),
                ));
            }
            std::thread::sleep(self.backoff.delay(attempt));
            attempt += 1;
        }
    }
}

/// Per-connection driver: ingest every batch exactly-once, reconnecting
/// (same session, so the server dedupes resent batches whose acks were
/// lost) whenever the connection dies under it. Returns the per-batch
/// latencies, `BUSY` retries absorbed, and reconnect count.
fn drive_conn(
    addr: &str,
    c: usize,
    session: u64,
    batches: &[Vec<WireEvent>],
    backoff: &Backoff,
    io_timeout: Duration,
) -> io::Result<(Vec<u64>, u64, u64)> {
    let name = format!("loadgen-{c}");
    let mut client: Option<Client> = None;
    let mut latencies = Vec::with_capacity(batches.len());
    let mut busy = 0u64;
    let mut reconnects = 0u64;
    let mut seq = 0usize;
    // Per-batch clock: BUSY retries *and* reconnect attempts for one
    // batch share the deadline, so a wedged server can't stall a
    // connection thread forever.
    let mut op_started = Instant::now();
    let mut attempt = 0u64;
    while seq < batches.len() {
        if client.is_none() {
            match Client::connect_with_session(addr, &name, session) {
                Ok(mut fresh) => {
                    if !io_timeout.is_zero() {
                        fresh.set_read_timeout(Some(io_timeout))?;
                    }
                    client = Some(fresh);
                }
                Err(e) => {
                    if backoff.deadline.is_some_and(|d| op_started.elapsed() >= d) {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("conn {c}: reconnect for seq {seq} failed: {e}"),
                        ));
                    }
                    std::thread::sleep(backoff.delay(attempt));
                    attempt += 1;
                    continue;
                }
            }
        }
        let active = client.as_mut().expect("just connected");
        let t0 = Instant::now();
        match active.ingest_retry_with(seq as u64, &batches[seq], backoff) {
            Ok(b) => {
                busy += b;
                latencies.push(t0.elapsed().as_micros() as u64);
                seq += 1;
                op_started = Instant::now();
                attempt = 0;
            }
            Err(e) => {
                // Connection is suspect (dropped, stalled past the io
                // timeout, or a corrupted frame): rebuild it and resend
                // this seq — dedup makes the resend exactly-once.
                client = None;
                reconnects += 1;
                if backoff.deadline.is_some_and(|d| op_started.elapsed() >= d) {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        format!("conn {c}: seq {seq} undeliverable: {e}"),
                    ));
                }
                std::thread::sleep(backoff.delay(attempt));
                attempt += 1;
            }
        }
    }
    if let Some(active) = client.take() {
        // Best-effort: under injected faults the goodbye itself can
        // die, and that's fine — every batch is already acked.
        let _ = active.bye();
    }
    Ok((latencies, busy, reconnects))
}

/// Drive the configured load, then (optionally) verify determinism
/// across the wire and render `multi`-format output to `out`.
pub fn run(cfg: &LoadgenConfig, out: &mut dyn Write) -> io::Result<LoadgenReport> {
    let workload = generate(cfg);
    let nonce = run_nonce();
    let started = Instant::now();
    let mut handles = Vec::new();
    for (c, batches) in workload.per_conn.iter().enumerate() {
        let addr = cfg.addr.clone();
        let batches = batches.clone();
        let backoff = cfg.backoff(c as u64);
        let session = session(nonce, c as u64);
        let io_timeout = cfg.io_timeout;
        handles.push(
            std::thread::Builder::new()
                .name(format!("swsample-loadgen-{c}"))
                .spawn(move || -> io::Result<(Vec<u64>, u64, u64)> {
                    drive_conn(&addr, c, session, &batches, &backoff, io_timeout)
                })?,
        );
    }
    let mut latencies: Vec<u64> = Vec::new();
    let mut busy_retries = 0u64;
    let mut reconnects = 0u64;
    for handle in handles {
        let (lat, busy, re) = handle
            .join()
            .map_err(|_| io::Error::other("loadgen connection thread panicked"))??;
        latencies.extend(lat);
        busy_retries += busy;
        reconnects += re;
    }
    let seconds = started.elapsed().as_secs_f64().max(1e-9);
    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let at = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        latencies[at]
    };
    let batches_sent = latencies.len() as u64;
    let mut report = LoadgenReport {
        events_sent: cfg.count,
        batches_sent,
        seconds,
        elems_per_sec: cfg.count as f64 / seconds,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
        busy_retries,
        reconnects,
        verified_keys: 0,
    };

    // Every ack is in hand, so the server has applied everything;
    // queries from here are stable (and idempotent, so the query side
    // reconnects and retries freely under injected faults).
    let mut query_side = QuerySide {
        addr: cfg.addr.clone(),
        io_timeout: cfg.io_timeout,
        backoff: cfg.backoff(u64::MAX),
        client: None,
        reconnects: 0,
    };
    let template: SamplerSpec = query_side
        .with(|c| Ok(c.template().to_string()))?
        .parse()
        .map_err(|e| io::Error::other(format!("server template unparseable: {e}")))?;

    if cfg.verify {
        // The offline reference: same batches, connection-major order.
        // Per-key state folds over that key's own subsequence alone, so
        // any server-side interleaving of connections must agree.
        let mut offline: MultiStreamEngine<u64, u64> = MultiStreamEngine::new(template.clone())
            .map_err(|e| io::Error::other(e.to_string()))?;
        for batches in &workload.per_conn {
            for batch in batches {
                offline.ingest(batch);
            }
        }
        for &(key, _) in &workload.traffic {
            let expect = offline.sample_k(&key).as_deref().map(wire_samples);
            let got = query_side.with(|c| c.query(key))?;
            if got != expect {
                return Err(io::Error::other(format!(
                    "determinism violation at key {key}: server {got:?}, offline {expect:?}"
                )));
            }
            report.verified_keys += 1;
        }
    }

    if cfg.render_multi {
        let stats = query_side.with(|c| c.stats())?;
        let rows = workload
            .traffic
            .iter()
            .take(cfg.show)
            .map(|&(key, cnt)| Ok((key, cnt, query_side.with(|c| c.query(key))?)))
            .collect::<io::Result<Vec<_>>>()?;
        write_multi_report(out, &template, cfg.keys, &rows, &stats.engine)?;
    }

    if cfg.shutdown_server {
        // The SHUTDOWN's BYE ack can itself be lost to an injected
        // fault; a refused reconnect after at least one attempt means
        // the server took the order and closed its listener — success.
        let started = Instant::now();
        let mut attempt = 0u64;
        loop {
            let res = match query_side.client.as_mut() {
                Some(c) => c.shutdown_server(),
                None => match Client::connect(&cfg.addr, "loadgen-shutdown") {
                    Ok(mut c) => {
                        if !cfg.io_timeout.is_zero() {
                            c.set_read_timeout(Some(cfg.io_timeout))?;
                        }
                        let res = c.shutdown_server();
                        query_side.client = Some(c);
                        res
                    }
                    Err(e) if e.kind() == io::ErrorKind::ConnectionRefused && attempt > 0 => {
                        break;
                    }
                    Err(e) => Err(e),
                },
            };
            match res {
                Ok(()) => break,
                Err(e) => {
                    query_side.client = None;
                    let deadline = query_side.backoff.deadline;
                    if deadline.is_some_and(|d| started.elapsed() >= d) {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("SHUTDOWN undeliverable: {e}"),
                        ));
                    }
                    std::thread::sleep(query_side.backoff.delay(attempt));
                    attempt += 1;
                }
            }
        }
    } else if let Some(c) = query_side.client.take() {
        // Best-effort goodbye; under faults the server may already have
        // severed us.
        let _ = c.bye();
    }
    report.reconnects += query_side.reconnects;
    Ok(report)
}
