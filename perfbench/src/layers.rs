//! The layer ladder: each layer's public functions timed from outside on
//! the workload's own batches, in connection-major order.
//!
//! Rungs, bottom up: the sampler kernels (`swsample-core`), serial and
//! parallel fleet ingest and queries (`swsample-stream`), the batch
//! codec, WAL, snapshots and recovery (`swsample-durable`), and the
//! `INGEST` frame codec (`swsample-server`). Timed rungs run
//! [`LAYER_REPS`] times on fresh state and report the median.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use swsample_core::fault::mix64;
use swsample_core::spec::WindowKind;
use swsample_core::{ErasedWindowSampler, FleetBackend, SamplerSpec};
use swsample_durable::batch::{decode_batch, encode_batch};
use swsample_durable::wal::{SegmentLog, DEFAULT_SEGMENT_BYTES};
use swsample_durable::{DurableEngine, DurableOptions};
use swsample_server::ClientMsg;
use swsample_stream::MultiStreamEngine;

use crate::trace::{SpanId, Tracer};
use crate::workload::{Workload, SHARDS};

/// Repetitions of each timed rung.
const LAYER_REPS: usize = 3;
/// `sample_k` calls timed, on the first query keys.
const SAMPLE_K_CALLS: usize = 16_384;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Run `body` [`LAYER_REPS`] times under a `layer` span each and return
/// the median of the durations it reports.
fn timed(
    tracer: &Tracer,
    layer: &'static str,
    parent: Option<SpanId>,
    mut body: impl FnMut(Option<SpanId>) -> Result<Duration, String>,
) -> Result<f64, String> {
    let mut secs = Vec::with_capacity(LAYER_REPS);
    for _ in 0..LAYER_REPS {
        let open = tracer.begin(layer, parent);
        let took = body(open.id());
        tracer.end(open);
        secs.push(took?.as_secs_f64());
    }
    Ok(median(secs))
}

/// One key's run inside a batch: `values[start..end]` for sampler
/// `idx`, all at time `now`.
struct Run {
    idx: u32,
    now: u64,
    start: u32,
    end: u32,
}

/// The kernel rung: one sampler per key from `SamplerSpec::build`, fed
/// each batch's per-key runs (split at timestamp changes for timestamp
/// windows) exactly as the fleet groups them. Returns seconds.
fn core_kernel(w: &Workload, tracer: &Tracer, parent: Option<SpanId>) -> Result<f64, String> {
    let template = &w.shape.template;
    let split_ts = matches!(template.window, WindowKind::Timestamp(_));
    let mut index: HashMap<u64, u32> = HashMap::new();
    let mut keys: Vec<u64> = Vec::new();
    let plan: Vec<(Vec<u64>, Vec<Run>)> = w
        .batches()
        .map(|batch| {
            let mut order: Vec<(u32, u32)> = batch
                .iter()
                .enumerate()
                .map(|(pos, &(key, _, _))| {
                    let idx = *index.entry(key).or_insert_with(|| {
                        keys.push(key);
                        keys.len() as u32 - 1
                    });
                    (idx, pos as u32)
                })
                .collect();
            order.sort_unstable();
            let mut values = Vec::with_capacity(order.len());
            let mut runs: Vec<Run> = Vec::new();
            for (idx, pos) in order {
                let (_, now, value) = batch[pos as usize];
                let at = values.len() as u32;
                values.push(value);
                match runs.last_mut() {
                    Some(run) if run.idx == idx && (!split_ts || run.now == now) => run.end += 1,
                    _ => runs.push(Run {
                        idx,
                        now,
                        start: at,
                        end: at + 1,
                    }),
                }
            }
            (values, runs)
        })
        .collect();
    timed(tracer, "layer.core", parent, |layer| {
        let mut samplers: Vec<Box<dyn ErasedWindowSampler<u64>>> = keys
            .iter()
            .map(|&key| {
                let spec = SamplerSpec {
                    seed: mix64(template.seed, key, 0),
                    ..template.clone()
                };
                spec.build::<u64>()
            })
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        for (values, runs) in &plan {
            tracer.span("core.insert_batch", layer, || {
                for run in runs {
                    samplers[run.idx as usize]
                        .advance_and_insert(run.now, &values[run.start as usize..run.end as usize]);
                }
            });
        }
        let took = t.elapsed();
        black_box(&samplers);
        Ok(took)
    })
}

fn engine(w: &Workload, threads: usize) -> Result<MultiStreamEngine<u64, u64>, String> {
    MultiStreamEngine::with_backend(
        w.shape.template.clone(),
        SHARDS,
        SamplerSpec::build::<u64>,
        threads,
        FleetBackend::Auto,
    )
    .map_err(|e| e.to_string())
}

/// Every rung's metrics, named as in `BENCHMARK.json`'s `per_layer`.
pub fn ladder(
    w: &Workload,
    threads: usize,
    scratch: &Path,
    tracer: &Tracer,
) -> Result<Vec<(&'static str, f64)>, String> {
    let events = w.events() as f64;
    let per_event_ns = |secs: f64| secs * 1e9 / events;
    let batches: Vec<&Vec<(u64, u64, u64)>> = w.batches().collect();
    let mut m: Vec<(&'static str, f64)> = Vec::new();

    // swsample-core: the sampler kernels alone.
    let core_s = core_kernel(w, tracer, None)?;
    m.push(("core.insert_batch.ns_per_event", per_event_ns(core_s)));

    // swsample-stream: the fleet's serial ingest, registry included.
    let serial_s = timed(tracer, "layer.stream.ingest", None, |layer| {
        let mut fleet = engine(w, 1)?;
        let t = Instant::now();
        for batch in &batches {
            tracer.span("stream.ingest", layer, || fleet.ingest(batch));
        }
        Ok(t.elapsed())
    })?;
    m.push(("stream.ingest.ns_per_event", per_event_ns(serial_s)));
    m.push(("stream.registry_tax", serial_s / core_s));

    // swsample-stream: parallel ingest on the work-stealing pool.
    let mut fleet = None;
    let parallel_s = timed(tracer, "layer.stream.ingest_parallel", None, |layer| {
        let pooled = engine(w, threads)?;
        let t = Instant::now();
        for batch in &batches {
            tracer.span("stream.ingest_parallel", layer, || {
                pooled.ingest_parallel(batch)
            });
        }
        tracer
            .span("stream.flush", layer, || pooled.flush())
            .map_err(|e| e.to_string())?;
        let took = t.elapsed();
        fleet = Some(pooled);
        Ok(took)
    })?;
    let fleet = fleet.expect("timed runs its body");
    let stats = fleet.parallel_stats();
    m.push((
        "stream.ingest_parallel.ns_per_event",
        per_event_ns(parallel_s),
    ));
    m.push(("stream.parallel_gain", serial_s / parallel_s));
    m.push(("stream.epochs", stats.epochs as f64));
    m.push(("stream.units", stats.units as f64));
    m.push(("stream.steals", stats.steals as f64));
    m.push(("stream.imbalance", stats.imbalance()));

    // swsample-stream: queries and memory on the fleet just built.
    let sample_k_s = timed(tracer, "layer.stream.sample_k", None, |layer| {
        let t = Instant::now();
        for chunk in w.query_keys[..SAMPLE_K_CALLS].chunks(1024) {
            tracer.span("stream.sample_k", layer, || {
                for key in chunk {
                    black_box(fleet.sample_k(key));
                }
            });
        }
        Ok(t.elapsed())
    })?;
    m.push((
        "stream.sample_k.ns",
        sample_k_s * 1e9 / SAMPLE_K_CALLS as f64,
    ));
    let keys = fleet.num_keys().max(1) as f64;
    m.push(("stream.max_key_words", fleet.max_key_memory_words() as f64));
    m.push((
        "stream.registry_overhead_words",
        fleet.registry_overhead_words() as f64 / keys,
    ));
    drop(fleet);

    // swsample-durable: the batch codec the WAL and the wire share.
    let mut encoded: Vec<Vec<u8>> = Vec::new();
    let encode_s = timed(tracer, "layer.durable.codec", None, |layer| {
        let t = Instant::now();
        encoded = batches
            .iter()
            .map(|b| tracer.span("durable.encode_batch", layer, || encode_batch(b)))
            .collect();
        Ok(t.elapsed())
    })?;
    let decode_s = timed(tracer, "layer.durable.codec", None, |layer| {
        let t = Instant::now();
        for bytes in &encoded {
            let batch = tracer.span("durable.decode_batch", layer, || {
                decode_batch::<u64, u64>(bytes)
            });
            black_box(batch.map_err(|e| e.to_string())?);
        }
        Ok(t.elapsed())
    })?;
    let encoded_bytes: usize = encoded.iter().map(Vec::len).sum();
    m.push(("durable.encode_batch.ns_per_event", per_event_ns(encode_s)));
    m.push(("durable.decode_batch.ns_per_event", per_event_ns(decode_s)));
    m.push(("durable.bytes_per_event", encoded_bytes as f64 / events));

    // swsample-durable: WAL appends, with a sync at every snapshot mark.
    let wal_dir = scratch.join("layer-wal");
    let mut syncs: Vec<f64> = Vec::new();
    let append_s = timed(tracer, "layer.durable.wal", None, |layer| {
        let _ = std::fs::remove_dir_all(&wal_dir);
        let mut log =
            SegmentLog::create(&wal_dir, DEFAULT_SEGMENT_BYTES).map_err(|e| e.to_string())?;
        let mut appending = Duration::ZERO;
        for (i, payload) in encoded.iter().enumerate() {
            let t = Instant::now();
            tracer
                .span("durable.wal_append", layer, || log.append(payload))
                .map_err(|e| e.to_string())?;
            appending += t.elapsed();
            if (i as u64 + 1).is_multiple_of(w.shape.snapshot_every) || i + 1 == encoded.len() {
                let t = Instant::now();
                tracer
                    .span("durable.wal_sync", layer, || log.sync())
                    .map_err(|e| e.to_string())?;
                syncs.push(t.elapsed().as_secs_f64());
            }
        }
        Ok(appending)
    })?;
    std::fs::remove_dir_all(&wal_dir).map_err(|e| e.to_string())?;
    m.push(("durable.wal_append.ns_per_event", per_event_ns(append_s)));
    m.push(("durable.wal_sync.s", median(syncs)));

    // swsample-durable: recovery after a crash-style drop, then snapshots
    // of the recovered fleet.
    let durable_dir = scratch.join("layer-durable");
    let _ = std::fs::remove_dir_all(&durable_dir);
    let opts = DurableOptions {
        snapshot_every: Some(w.shape.snapshot_every),
        ..DurableOptions::default()
    };
    let layer = tracer.begin("layer.durable.recovery", None);
    {
        let mut durable = DurableEngine::<u64, u64>::create(
            &durable_dir,
            w.shape.template.clone(),
            SHARDS,
            threads,
            FleetBackend::Auto,
            opts.clone(),
        )
        .map_err(|e| e.to_string())?;
        for batch in &batches {
            tracer
                .span("durable.ingest", layer.id(), || durable.ingest(batch))
                .map_err(|e| e.to_string())?;
        }
        // Dropped without `close`: no final snapshot, so `open` replays
        // the WAL suffix past the last automatic one.
    }
    let t = Instant::now();
    let mut durable = tracer
        .span("durable.open", layer.id(), || {
            DurableEngine::<u64, u64>::open(&durable_dir, opts)
        })
        .map_err(|e| e.to_string())?;
    m.push(("durable.open.s", t.elapsed().as_secs_f64()));
    tracer.end(layer);
    let mut snapshot_bytes = 0u64;
    let snapshot_s = timed(tracer, "layer.durable.snapshot", None, |layer| {
        let t = Instant::now();
        let path = tracer
            .span("durable.snapshot", layer, || durable.snapshot())
            .map_err(|e| e.to_string())?;
        let took = t.elapsed();
        snapshot_bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
        Ok(took)
    })?;
    drop(durable);
    std::fs::remove_dir_all(&durable_dir).map_err(|e| e.to_string())?;
    m.push(("durable.snapshot.s", snapshot_s));
    m.push(("durable.snapshot.bytes", snapshot_bytes as f64));

    // swsample-server: the INGEST frame codec.
    let msgs: Vec<ClientMsg> = batches
        .iter()
        .enumerate()
        .map(|(seq, batch)| ClientMsg::Ingest {
            seq: seq as u64,
            batch: batch.to_vec(),
        })
        .collect();
    let mut frames: Vec<Vec<u8>> = Vec::new();
    let frame_encode_s = timed(tracer, "layer.server.frame", None, |layer| {
        let t = Instant::now();
        frames = msgs
            .iter()
            .map(|msg| tracer.span("server.frame_encode", layer, || msg.encode()))
            .collect();
        Ok(t.elapsed())
    })?;
    let frame_decode_s = timed(tracer, "layer.server.frame", None, |layer| {
        let t = Instant::now();
        for frame in &frames {
            let msg = tracer.span("server.frame_decode", layer, || ClientMsg::decode(frame));
            black_box(msg.map_err(|_| "INGEST frame failed to decode".to_string())?);
        }
        Ok(t.elapsed())
    })?;
    m.push((
        "server.frame_encode.ns_per_event",
        per_event_ns(frame_encode_s),
    ));
    m.push((
        "server.frame_decode.ns_per_event",
        per_event_ns(frame_decode_s),
    ));
    Ok(m)
}
