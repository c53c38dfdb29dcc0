//! The three workload shapes and their seeded event generation.
//!
//! Events are `(key, i / 64, i)` for the global arrival index `i`, keys
//! drawn zipf(θ = 1.1) over the shape's key domain, routed to ingest
//! connection `key % conns` and cut into fixed-size batches per
//! connection. Per-key timestamps therefore never decrease along a
//! connection, which is the timestamp samplers' clock contract.

use std::collections::HashMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use swsample_core::fault::mix64;
use swsample_core::spec::Replacement;
use swsample_core::SamplerSpec;
use swsample_server::protocol::WireEvent;
use swsample_stream::{ValueGen, ZipfGen};

/// Zipf skew of the key distribution (and of the query keys).
pub const THETA: f64 = 1.1;
/// Events per `INGEST` batch.
pub const BATCH: usize = 4096;
/// Server shard count.
pub const SHARDS: usize = 64;
/// `mixed_1k_ts` query schedule: queries per second on the query
/// connection, held constant so query latency is comparable across
/// commits whatever the ingest rate.
pub const QUERY_RATE_HZ: f64 = 2000.0;
/// `durable_100k_seq` auto-snapshot cadence in batches (≈ 1M events).
pub const SNAPSHOT_EVERY_BATCHES: u64 = 256;
/// Hottest keys every verification compares.
pub const VERIFY_HOT: usize = 100;
/// Further touched keys, a seeded sample, every verification compares.
pub const VERIFY_SAMPLED: usize = 900;

/// One workload: what the server runs and what the load looks like.
#[derive(Debug, Clone)]
pub struct Shape {
    /// The workload name, as passed to `--workload`.
    pub name: &'static str,
    /// Zipf key domain.
    pub keys: u64,
    /// The server fleet's per-key sampler template.
    pub template: SamplerSpec,
    /// Closed-loop ingest connections.
    pub ingest_conns: usize,
    /// Fixed query rate on a separate connection, if the workload has one.
    pub query_rate_hz: Option<f64>,
    /// Run the server with a WAL directory, then restart it on that
    /// directory before verifying.
    pub durable: bool,
    /// Events driven per repetition.
    pub events: u64,
    /// Events per `INGEST` batch.
    pub batch: usize,
    /// Auto-snapshot cadence in batches (durable workloads).
    pub snapshot_every: u64,
}

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["ingest_100k_seq", "mixed_1k_ts", "durable_100k_seq"];

impl Shape {
    /// The full-size shape of a named workload.
    pub fn named(name: &str) -> Option<Shape> {
        let seq_wr = SamplerSpec::seq(1000, Replacement::With, 16, 42);
        let base = Shape {
            name: "",
            keys: 100_000,
            template: seq_wr,
            ingest_conns: 2,
            query_rate_hz: None,
            durable: false,
            events: 2_000_000,
            batch: BATCH,
            snapshot_every: SNAPSHOT_EVERY_BATCHES,
        };
        match name {
            "ingest_100k_seq" => Some(Shape {
                name: "ingest_100k_seq",
                ..base
            }),
            "mixed_1k_ts" => Some(Shape {
                name: "mixed_1k_ts",
                keys: 1000,
                template: SamplerSpec::ts(1000, Replacement::Without, 16, 42),
                ingest_conns: 1,
                query_rate_hz: Some(QUERY_RATE_HZ),
                ..base
            }),
            "durable_100k_seq" => Some(Shape {
                name: "durable_100k_seq",
                durable: true,
                ..base
            }),
            _ => None,
        }
    }

    /// The same workload scaled down for the self-test: a tenth of the
    /// keys, small batches, and a snapshot every few batches so the
    /// durable path still snapshots and replays.
    pub fn tiny(self) -> Shape {
        Shape {
            keys: self.keys / 10,
            events: 40_000,
            batch: 512,
            snapshot_every: 16,
            ..self
        }
    }
}

/// A generated workload: per-connection batches plus what the checks
/// and the query schedule need.
pub struct Workload {
    /// The shape this was generated from.
    pub shape: Shape,
    /// Batches per ingest connection, in send order.
    pub per_conn: Vec<Vec<Vec<WireEvent>>>,
    /// `key_of[i]` is the key of event `i` (the event whose value is `i`).
    pub key_of: Vec<u64>,
    /// Touched keys, hottest first (traffic descending, key ascending).
    pub hot: Vec<u64>,
    /// Touched keys outside the hottest [`VERIFY_HOT`], in seeded random
    /// order: the sampled part of every verification.
    pub sampled: Vec<u64>,
    /// Zipf-drawn keys for the query schedule and the `sample_k` layer.
    pub query_keys: Vec<u64>,
}

impl Workload {
    /// Every batch in connection-major order: the order the offline
    /// reference and the layer ladder apply them in.
    pub fn batches(&self) -> impl Iterator<Item = &Vec<WireEvent>> {
        self.per_conn.iter().flatten()
    }

    /// Total events.
    pub fn events(&self) -> u64 {
        self.key_of.len() as u64
    }
}

/// Generate `shape`'s events from `seed`: the same seed gives the same
/// batches, the same verification keys and the same query keys.
pub fn generate(shape: &Shape, seed: u64) -> Workload {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut zipf = ZipfGen::new(shape.keys, THETA);
    let conns = shape.ingest_conns.max(1);
    let mut per_conn: Vec<Vec<Vec<WireEvent>>> = vec![Vec::new(); conns];
    let mut open: Vec<Vec<WireEvent>> = vec![Vec::with_capacity(shape.batch); conns];
    let mut key_of = Vec::with_capacity(shape.events as usize);
    let mut traffic: HashMap<u64, u64> = HashMap::new();
    for i in 0..shape.events {
        let key = zipf.next_value(&mut rng);
        key_of.push(key);
        *traffic.entry(key).or_insert(0) += 1;
        let c = (key % conns as u64) as usize;
        open[c].push((key, i / 64, i));
        if open[c].len() == shape.batch {
            per_conn[c].push(std::mem::replace(
                &mut open[c],
                Vec::with_capacity(shape.batch),
            ));
        }
    }
    for (c, rest) in open.into_iter().enumerate() {
        if !rest.is_empty() {
            per_conn[c].push(rest);
        }
    }
    let mut ranked: Vec<(u64, u64)> = traffic.into_iter().collect();
    ranked.sort_unstable_by_key(|&(key, n)| (std::cmp::Reverse(n), key));
    let hot: Vec<u64> = ranked.into_iter().map(|(key, _)| key).collect();
    let mut sampled: Vec<u64> = hot.iter().skip(VERIFY_HOT).copied().collect();
    let mut srng = SmallRng::seed_from_u64(mix64(seed, 0x5645_5249_4659, 0));
    for i in (1..sampled.len()).rev() {
        sampled.swap(i, srng.gen_range(0..=i));
    }
    let mut qrng = SmallRng::seed_from_u64(mix64(seed, 0x5155_4552_5953, 0));
    let query_keys = (0..1 << 16).map(|_| zipf.next_value(&mut qrng)).collect();
    Workload {
        shape: shape.clone(),
        per_conn,
        key_of,
        hot,
        sampled,
        query_keys,
    }
}
