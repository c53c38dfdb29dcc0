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

use crate::client::{Client, IngestOutcome};
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
            io_timeout: Duration::from_secs(10),
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

/// First retry delay; each later one doubles, up to [`RETRY_CAP`].
const RETRY_BASE: Duration = Duration::from_micros(200);
/// Retry delay ceiling.
const RETRY_CAP: Duration = Duration::from_millis(50);
/// How long one operation may keep retrying before it fails with
/// `TimedOut`, so a wedged server can't stall a run forever.
const RETRY_DEADLINE: Duration = Duration::from_secs(30);

/// One logical connection that rides out faults: the single retry loop
/// behind every operation the load generator sends. [`Conn::run`]
/// repeats an operation until it succeeds, reconnecting under the same
/// session after any error (so the server dedupes a resent batch whose
/// ack was lost) and backing off after an error or a `BUSY`, all on one
/// clock per operation.
struct Conn {
    addr: String,
    name: String,
    /// Ingest-dedup session id; 0 for the query side, which only sends
    /// idempotent requests.
    session: u64,
    io_timeout: Duration,
    /// Jitter seed, distinct per connection so concurrent backoffs
    /// don't synchronize (and a given seed replays the same pacing).
    jitter: u64,
    deadline: Duration,
    client: Option<Client>,
    busy: u64,
    reconnects: u64,
}

impl Conn {
    fn new(cfg: &LoadgenConfig, c: u64, name: String, session: u64) -> Conn {
        Conn {
            addr: cfg.addr.clone(),
            name,
            session,
            io_timeout: cfg.io_timeout,
            jitter: mix64(cfg.workload_seed, 0x0042_4143_4b4f_4646, c),
            deadline: RETRY_DEADLINE,
            client: None,
            busy: 0,
            reconnects: 0,
        }
    }

    /// The live client, connecting (with the read timeout applied)
    /// first if the last one was dropped.
    fn connected(&mut self) -> io::Result<&mut Client> {
        let client = match self.client.take() {
            Some(client) => client,
            None => {
                let mut client =
                    Client::connect_with_session(&self.addr, &self.name, self.session)?;
                client.set_read_timeout((!self.io_timeout.is_zero()).then_some(self.io_timeout))?;
                client
            }
        };
        Ok(self.client.insert(client))
    }

    /// Run `op` until it yields a value. `op` is handed the live client
    /// or the error connecting it; `Ok(None)` means `BUSY`: back off
    /// and resend. Any error drops the connection, and the next attempt
    /// reconnects. Fails with `TimedOut` once the operation has been
    /// retrying for the deadline.
    fn run<T>(
        &mut self,
        mut op: impl FnMut(io::Result<&mut Client>) -> io::Result<Option<T>>,
    ) -> io::Result<T> {
        let started = Instant::now();
        let mut attempt = 0u64;
        loop {
            let why = match op(self.connected()) {
                Ok(Some(done)) => return Ok(done),
                Ok(None) => {
                    self.busy += 1;
                    "BUSY".to_string()
                }
                Err(e) => {
                    // The connection is suspect (dropped, stalled past
                    // the read timeout, or a corrupted frame).
                    if self.client.take().is_some() {
                        self.reconnects += 1;
                    }
                    e.to_string()
                }
            };
            let elapsed = started.elapsed();
            if elapsed >= self.deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("{}: gave up after {attempt} retries: {why}", self.name),
                ));
            }
            std::thread::sleep(self.delay(attempt).min(self.deadline - elapsed));
            attempt += 1;
        }
    }

    /// The delay before retry `attempt` (0-based): `min(cap, base *
    /// 2^attempt)` scaled by a seed-derived factor in `[0.5, 1.0)`.
    fn delay(&self, attempt: u64) -> Duration {
        let raw = RETRY_BASE
            .saturating_mul(1 << attempt.min(20))
            .min(RETRY_CAP);
        let jitter = 512 + (mix64(self.jitter, 0x4a49_5454_4552, attempt) % 512);
        raw.mul_f64(jitter as f64 / 1024.0)
    }

    /// Best-effort goodbye: under faults the server may already have
    /// severed us, and every operation is already answered.
    fn bye(&mut self) {
        if let Some(client) = self.client.take() {
            let _ = client.bye();
        }
    }
}

/// Per-connection driver: ingest every batch exactly-once. Returns the
/// per-batch delivery latencies, `BUSY` retries absorbed, and reconnect
/// count.
fn drive_conn(mut conn: Conn, batches: &[Vec<WireEvent>]) -> io::Result<(Vec<u64>, u64, u64)> {
    let mut latencies = Vec::with_capacity(batches.len());
    for (seq, batch) in batches.iter().enumerate() {
        let t0 = Instant::now();
        conn.run(|c| {
            Ok(match c?.ingest(seq as u64, batch)? {
                IngestOutcome::Applied(_) => Some(()),
                IngestOutcome::Busy(_) => None,
            })
        })?;
        latencies.push(t0.elapsed().as_micros() as u64);
    }
    conn.bye();
    Ok((latencies, conn.busy, conn.reconnects))
}

/// Drive the configured load, then (optionally) verify determinism
/// across the wire and render `multi`-format output to `out`.
pub fn run(cfg: &LoadgenConfig, out: &mut dyn Write) -> io::Result<LoadgenReport> {
    let workload = generate(cfg);
    let nonce = run_nonce();
    let started = Instant::now();
    let mut handles = Vec::new();
    for (c, batches) in workload.per_conn.iter().enumerate() {
        let session = session(nonce, c as u64);
        let conn = Conn::new(cfg, c as u64, format!("loadgen-{c}"), session);
        let batches = batches.clone();
        handles.push(
            std::thread::Builder::new()
                .name(format!("swsample-loadgen-{c}"))
                .spawn(move || drive_conn(conn, &batches))?,
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
    let mut query = Conn::new(cfg, u64::MAX, "loadgen-query".into(), 0);
    let template: SamplerSpec = query
        .run(|c| Ok(Some(c?.template().to_string())))?
        .parse()
        .map_err(|e| io::Error::other(format!("server template unparseable: {e}")))?;

    if cfg.verify {
        // The offline reference: same batches, connection-major order,
        // built by the factory the server uses, so every template
        // `serve` accepts is checked. Per-key state folds over that
        // key's own subsequence alone, so any server-side interleaving
        // of connections must agree.
        let mut offline: MultiStreamEngine<u64, u64> = MultiStreamEngine::with_factory(
            template.clone(),
            MultiStreamEngine::<u64, u64>::DEFAULT_SHARDS,
            swsample_baselines::spec::build,
        )
        .map_err(|e| io::Error::other(e.to_string()))?;
        for batches in &workload.per_conn {
            for batch in batches {
                offline.ingest(batch);
            }
        }
        for &(key, _) in &workload.traffic {
            let expect = offline.sample_k(&key).as_deref().map(wire_samples);
            let got = query.run(|c| c?.query(key).map(Some))?;
            if got != expect {
                return Err(io::Error::other(format!(
                    "determinism violation at key {key}: server {got:?}, offline {expect:?}"
                )));
            }
            report.verified_keys += 1;
        }
    }

    if cfg.render_multi {
        let stats = query.run(|c| c?.stats().map(Some))?;
        let rows = workload
            .traffic
            .iter()
            .take(cfg.show)
            .map(|&(key, cnt)| Ok((key, cnt, query.run(|c| c?.query(key).map(Some))?)))
            .collect::<io::Result<Vec<_>>>()?;
        write_multi_report(out, &template, cfg.keys, &rows, &stats.engine)?;
    }

    if cfg.shutdown_server {
        // The SHUTDOWN's BYE ack can itself be lost to an injected
        // fault; a refused reconnect once the order went out means the
        // server took it and closed its listener — success.
        let mut sent = false;
        query.run(|c| match c {
            Ok(c) => {
                sent = true;
                c.shutdown_server().map(Some)
            }
            Err(e) if sent && e.kind() == io::ErrorKind::ConnectionRefused => Ok(Some(())),
            Err(e) => Err(e),
        })?;
    } else {
        query.bye();
    }
    report.reconnects += query.reconnects;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Server, ServerConfig};

    const SHORT: Duration = Duration::from_millis(300);

    fn conn(addr: &str) -> Conn {
        let mut conn = Conn::new(&LoadgenConfig::new(addr), 0, "deadline-test".into(), 0);
        conn.deadline = SHORT;
        conn
    }

    /// Times `run` and checks it gave up with `TimedOut` no sooner than
    /// the deadline and within one capped delay after it.
    fn times_out<T: std::fmt::Debug>(
        conn: &mut Conn,
        op: impl FnMut(io::Result<&mut Client>) -> io::Result<Option<T>>,
    ) {
        let started = Instant::now();
        let err = conn.run(op).expect_err("the operation never succeeds");
        let took = started.elapsed();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(
            took >= SHORT && took <= SHORT + RETRY_CAP,
            "gave up after {took:?}, deadline {SHORT:?}"
        );
    }

    #[test]
    fn refused_connects_time_out_at_the_deadline() {
        // Bind an ephemeral port and close it: connects are refused.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("ephemeral port")
            .to_string();
        let mut conn = conn(&addr);
        times_out(&mut conn, |c| c?.stats().map(Some));
        assert_eq!(conn.reconnects, 0, "no connection was ever made");
    }

    #[test]
    fn busy_forever_times_out_on_the_same_clock() {
        let mut cfg = ServerConfig::new(
            "--window seq --n 64 --k 4 --seed 7"
                .parse()
                .expect("template spec"),
        );
        cfg.addr = "127.0.0.1:0".into();
        let server = Server::start(cfg).expect("server start");
        let mut conn = conn(&server.local_addr().to_string());
        times_out(&mut conn, |c| c.map(|_| None::<()>));
        assert!(conn.busy > 0, "every attempt answered BUSY");
        assert_eq!(conn.reconnects, 0, "BUSY keeps the connection");
        conn.bye();
        drop(server.shutdown());
    }
}
