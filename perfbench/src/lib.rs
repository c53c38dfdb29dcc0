//! The served-path benchmark for the swsample fleet.
//!
//! One run drives an in-process `swsample_server::Server` (64 shards,
//! one ingest worker per core, automatic fleet backend) over loopback
//! with `swsample_server::Client`s, repeating fresh-server drives of the
//! workload's events for the requested seconds and checking every
//! repetition's answers against an offline engine. Untraced runs report
//! the end-to-end metrics; traced runs repeat the drive with spans
//! around each client call and then time each layer's public functions
//! on the same events (the layer ladder). See `README.md` beside this
//! crate for the workloads and which layer metric should move which
//! end-to-end metric.

#![forbid(unsafe_code)]

pub mod drive;
pub mod layers;
pub mod trace;
pub mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;

use drive::{Reference, Rep};
use trace::Tracer;
use workload::{generate, Shape, WORKLOADS};

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What an untraced run reports, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    def("ingest_eps_cpu", "events/cpu-s", "higher"),
    def("ok_frac", "ratio", "higher"),
    def("setup_s", "s", "lower"),
    def("fleet_words_per_key", "words/key", "lower"),
];

/// What a traced run reports, on every workload.
pub const PER_LAYER: &[MetricDef] = &[
    def("core.insert_batch.ns_per_event", "ns", "lower"),
    def("stream.ingest.ns_per_event", "ns", "lower"),
    def("stream.registry_tax", "ratio", "lower"),
    def("stream.ingest_parallel.ns_per_event", "ns", "lower"),
    def("stream.parallel_gain", "ratio", "higher"),
    def("stream.epochs", "count", "lower"),
    def("stream.units", "count", "lower"),
    def("stream.steals", "count", "lower"),
    def("stream.imbalance", "ratio", "lower"),
    def("stream.sample_k.ns", "ns", "lower"),
    def("stream.max_key_words", "words", "lower"),
    def("stream.registry_overhead_words", "words/key", "lower"),
    def("durable.encode_batch.ns_per_event", "ns", "lower"),
    def("durable.decode_batch.ns_per_event", "ns", "lower"),
    def("durable.bytes_per_event", "B/event", "lower"),
    def("durable.wal_append.ns_per_event", "ns", "lower"),
    def("durable.wal_sync.s", "s", "lower"),
    def("durable.snapshot.s", "s", "lower"),
    def("durable.snapshot.bytes", "B", "lower"),
    def("durable.open.s", "s", "lower"),
    def("server.frame_encode.ns_per_event", "ns", "lower"),
    def("server.frame_decode.ns_per_event", "ns", "lower"),
    def("server.wire_tax", "ratio", "higher"),
    def("server.wire_amplification", "ratio", "lower"),
    def("server.busy_rejections", "count", "lower"),
    def("server.queue_hwm_events", "count", "lower"),
    def("server.dup_batches", "count", "lower"),
    def("gen.late_max_us", "us", "lower"),
    def("gen.build_s", "s", "lower"),
    def("trace.overhead_eps", "events/s", "higher"),
    def("wall.ingest_eps", "events/s", "higher"),
    def("wall.ingest_ack_p50_us", "us", "lower"),
    def("wall.ingest_ack_p99_us", "us", "lower"),
    def("wall.query_p50_us", "us", "lower"),
    def("wall.query_p99_us", "us", "lower"),
];

/// Repetitions every run makes, however short `seconds` is.
const MIN_REPS: usize = 3;

/// One run's request.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Seconds of repetitions to measure.
    pub seconds: f64,
    /// Report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Run the workload's tiny shape (the self-test).
    pub tiny: bool,
    /// Where WAL directories and span files go.
    pub out_dir: PathBuf,
}

/// One run's result.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every answer verified and no operation failed.
    pub correct: bool,
    /// Operations sent.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// The reported metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Keys byte-compared against the offline engine, over all
    /// repetitions.
    pub verified_keys: u64,
    /// Human-readable context: host, sample counts, figures that apply
    /// to one workload only, per-span self times.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric with its unit.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                // A non-finite figure is not JSON; the run is already
                // marked incorrect.
                let value = if value.is_finite() { value } else { -1.0 };
                let unit = END_TO_END
                    .iter()
                    .chain(PER_LAYER)
                    .find(|d| d.name == name)
                    .map_or("", |d| d.unit);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Nearest-rank percentile of a sorted sample (NaN when empty).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.max(1) - 1).copied().unwrap_or(f64::NAN)
}

fn pooled(reps: &[Rep], field: impl Fn(&Rep) -> &Vec<f64>) -> Vec<f64> {
    let mut all: Vec<f64> = reps.iter().flat_map(|r| field(r).iter().copied()).collect();
    all.sort_by(f64::total_cmp);
    all
}

fn eps(reps: &[Rep]) -> f64 {
    median(reps.iter().map(|r| r.events as f64 / r.ingest_s).collect())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit under test, from `.git` in the working directory, or
/// `unknown` in a plain source checkout.
fn commit() -> String {
    let git = Path::new(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|c| c.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// Removes a run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run one workload for `args.seconds` and report.
pub fn run(args: &Args) -> Result<Report, String> {
    let shape = Shape::named(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload `{}` (expected one of: {})",
            args.workload,
            WORKLOADS.join(", ")
        )
    })?;
    let shape = if args.tiny { shape.tiny() } else { shape };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tracer = Tracer::new(args.trace);
    let t = Instant::now();
    let w = tracer.span("gen", None, || generate(&shape, args.seed));
    let build_s = t.elapsed().as_secs_f64();
    let mut reference = Reference::build(&w)?;
    let scratch = Scratch(args.out_dir.join(format!(
        "run-{}-{}-{}",
        shape.name,
        args.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&scratch.0).map_err(|e| e.to_string())?;

    // Untraced repetitions give the end-to-end figures; a traced run
    // alternates them with traced ones so the tracing overhead is a
    // same-run difference.
    let untraced = Tracer::new(false);
    // One discarded repetition first, so allocator growth and lazily
    // faulted memory are not charged to the first measured one.
    let warm = drive::run_rep(&w, &mut reference, threads, &scratch.0, &untraced)
        .map_err(|e| format!("warm-up repetition failed: {e}"))?;
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut broken: Option<String> = None;
    let started = Instant::now();
    while broken.is_none()
        && (plain.len() < MIN_REPS || started.elapsed().as_secs_f64() < args.seconds)
    {
        let kinds: &[(&Tracer, bool)] = if args.trace {
            &[(&untraced, false), (&tracer, true)]
        } else {
            &[(&untraced, false)]
        };
        for &(rec, is_traced) in kinds {
            match drive::run_rep(&w, &mut reference, threads, &scratch.0, rec) {
                Ok(rep) if is_traced => traced.push(rep),
                Ok(rep) => plain.push(rep),
                Err(e) => {
                    broken = Some(e.to_string());
                    break;
                }
            }
        }
    }
    if plain.is_empty() || (args.trace && traced.is_empty()) {
        return Err(format!(
            "no repetition completed: {}",
            broken.unwrap_or_default()
        ));
    }
    let all: Vec<Rep> = plain.iter().chain(&traced).cloned().collect();
    // The warm-up's answers count towards correctness, not the figures.
    let checked = || all.iter().chain([&warm]);
    let attempted: u64 = checked().map(|r| r.attempted).sum::<u64>() + u64::from(broken.is_some());
    let failed: u64 =
        checked().map(|r| r.failed + r.mismatches).sum::<u64>() + u64::from(broken.is_some());

    let acks = pooled(&plain, |r| &r.ack_us);
    let queries = pooled(&plain, |r| &r.query_us);
    let plain_eps = eps(&plain);
    let mut notes = vec![
        format!(
            "meta workload={} seed={} nproc={threads} cpu=\"{}\" commit={} reps={} traced_reps={} events_per_rep={}",
            shape.name,
            args.seed,
            cpu_model(),
            commit(),
            plain.len(),
            traced.len(),
            w.events()
        ),
        format!(
            "verify keys_per_rep={} mismatches={} failed_frac={}",
            all.iter().map(|r| r.verified_keys).max().unwrap_or(0),
            all.iter().map(|r| r.mismatches).sum::<u64>(),
            failed as f64 / attempted.max(1) as f64
        ),
        // Wall-clock figures, not gated: on a shared 2-vCPU guest the
        // hypervisor's steal time moves them by up to 2x between runs.
        format!(
            "wallclock ingest_eps={plain_eps} (median of {} reps) ingest_ack_p50_us={} \
             ingest_ack_p99_us={} (n={}) query_p50_us={} query_p99_us={} (n={})",
            plain.len(),
            percentile(&acks, 0.5),
            percentile(&acks, 0.99),
            acks.len(),
            percentile(&queries, 0.5),
            percentile(&queries, 0.99),
            queries.len()
        ),
        format!(
            "reps events_per_cpu_s={:?}",
            plain
                .iter()
                .map(|r| (r.events as f64 / r.ingest_cpu_s).round())
                .collect::<Vec<_>>()
        ),
    ];
    if let Some(e) = &broken {
        notes.push(format!("error {e}"));
    }
    if shape.durable {
        let recovery: Vec<f64> = plain.iter().filter_map(|r| r.recovery_s).collect();
        let disk: Vec<f64> = plain
            .iter()
            .filter_map(|r| r.disk_bytes.map(|b| b as f64 / 1e6))
            .collect();
        notes.push(format!(
            "durable recovery_s={} disk_mb={} (medians of {} reps)",
            median(recovery),
            median(disk),
            plain.len()
        ));
    }

    let metrics: Vec<(&'static str, f64)> = if args.trace {
        let mut m = layers::ladder(&w, threads, &scratch.0, &tracer)?;
        let parallel_ns = m
            .iter()
            .find(|(n, _)| *n == "stream.ingest_parallel.ns_per_event")
            .map(|&(_, v)| v)
            .expect("the ladder reports parallel ingest");
        let sum = |f: fn(&Rep) -> u64| all.iter().map(f).sum::<u64>() as f64;
        m.extend([
            ("server.wire_tax", plain_eps * parallel_ns / 1e9),
            (
                "server.wire_amplification",
                sum(|r| r.counters.events_in) / sum(|r| r.counters.events_applied).max(1.0),
            ),
            (
                "server.busy_rejections",
                sum(|r| r.counters.busy_rejections),
            ),
            (
                "server.queue_hwm_events",
                all.iter()
                    .map(|r| r.counters.queue_hwm_events)
                    .max()
                    .unwrap_or(0) as f64,
            ),
            ("server.dup_batches", sum(|r| r.counters.dup_batches)),
            (
                "gen.late_max_us",
                all.iter().map(|r| r.late_max_us).fold(0.0, f64::max),
            ),
            ("gen.build_s", build_s),
            ("trace.overhead_eps", eps(&traced) - plain_eps),
            ("wall.ingest_eps", plain_eps),
            ("wall.ingest_ack_p50_us", percentile(&acks, 0.5)),
            ("wall.ingest_ack_p99_us", percentile(&acks, 0.99)),
            ("wall.query_p50_us", percentile(&queries, 0.5)),
            ("wall.query_p99_us", percentile(&queries, 0.99)),
        ]);
        let spans = tracer.spans();
        let path = args
            .out_dir
            .join(format!("trace-{}-seed{}.jsonl", shape.name, args.seed));
        trace::write_spans(&path, shape.name, &spans).map_err(|e| e.to_string())?;
        notes.push(format!(
            "spans {} written to {}",
            spans.len(),
            path.display()
        ));
        for (name, ns) in trace::self_time_by_name(&spans) {
            notes.push(format!("self_ms {name} {}", ns as f64 / 1e6));
        }
        order(m, PER_LAYER)
    } else {
        order(
            vec![
                (
                    "ingest_eps_cpu",
                    plain.iter().map(|r| r.events as f64).sum::<f64>()
                        / plain.iter().map(|r| r.ingest_cpu_s).sum::<f64>(),
                ),
                ("ok_frac", 1.0 - failed as f64 / attempted.max(1) as f64),
                ("setup_s", median(plain.iter().map(|r| r.setup_s).collect())),
                (
                    "fleet_words_per_key",
                    median(plain.iter().map(|r| r.words_per_key).collect()),
                ),
            ],
            END_TO_END,
        )
    };
    let finite = metrics.iter().all(|(_, v)| v.is_finite());
    Ok(Report {
        correct: failed == 0 && finite,
        attempted,
        failed,
        metrics,
        verified_keys: all.iter().map(|r| r.verified_keys).sum(),
        notes,
    })
}

/// `metrics` in the order of `defs`; every defined metric must be there.
fn order(metrics: Vec<(&'static str, f64)>, defs: &[MetricDef]) -> Vec<(&'static str, f64)> {
    defs.iter()
        .map(|d| {
            let value = metrics
                .iter()
                .find(|(n, _)| *n == d.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", d.name))
                .1;
            (d.name, value)
        })
        .collect()
}
