//! The CLI subcommands, written against generic readers/writers so the
//! tests can drive them end-to-end in memory.
//!
//! Sampler construction is **spec-driven**: every sampling subcommand
//! assembles a [`SamplerSpec`] (the `run` and `multi` subcommands expose
//! its flag surface directly; `seq`/`ts` are legacy shorthands that fill
//! one in) and builds it through the full factory
//! `swsample_baselines::spec::build`, then ingests through the boxed
//! sampler's [`WindowSampler`](swsample_core::WindowSampler) methods
//! (`Box<dyn` [`ErasedWindowSampler`]`>`, the trait's `Send + Sync`
//! marker) — one code path for every algorithm and window discipline in
//! the workspace.
//!
//! Input formats:
//! * `seq` / `run` (seq or stream windows) — one value per line.
//! * `ts` / `run` (ts windows) — `<timestamp> <value>` per line,
//!   non-decreasing timestamps.
//! * `agg` — `<timestamp> <numeric value>` per line.
//! * `gen` — no input; emits a synthetic workload for piping.
//! * `multi` — no input; drives the shared zipf-keyed workload
//!   ([`zipf_fleet_events`]) through a [`Fleet`] — in memory, or on a
//!   WAL directory with `--wal` — and prints the report `loadgen
//!   --render-multi` reproduces from a served fleet.
//! * `serve` — the same [`Fleet`] behind the TCP server.

use crate::args::{ArgError, Args};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::io::{BufRead, Write};
use swsample_core::fault::FaultSchedule;
use swsample_core::spec::{SamplerSpec, WindowKind};
use swsample_core::{ErasedWindowSampler, MemoryWords};
use swsample_durable::{DurableError, DurableOptions, Fleet, ResumeOverrides, Storage};
use swsample_query::TsAggregator;
use swsample_server::protocol::wire_samples;
use swsample_server::report::{hot_keys, memory_note, write_multi_report};
use swsample_server::{loadgen, EngineStats, LoadgenConfig, Server, ServerConfig};
use swsample_stream::{zipf_fleet_events, BurstyArrivals, SteadyArrivals, UniformGen, ZipfGen};

/// Run one subcommand against the given input/output. Returns an error
/// message suitable for the user.
pub fn run(args: &Args, input: &mut dyn BufRead, out: &mut dyn Write) -> Result<(), String> {
    let res = match args.command.as_str() {
        "run" => cmd_run(args, input, out),
        "seq" => cmd_legacy(args, input, out, false),
        "ts" => cmd_legacy(args, input, out, true),
        "multi" => cmd_multi(args, out),
        "serve" => cmd_serve(args),
        "loadgen" => cmd_loadgen(args, out),
        "agg" => cmd_agg(args, input, out),
        "gen" => cmd_gen(args, out),
        "help" | "--help" => write_help(out).map_err(|e| ArgError(e.to_string())),
        other => Err(ArgError(format!(
            "unknown subcommand `{other}` (try `help`)"
        ))),
    };
    res.map_err(|e| e.to_string())
}

/// Usage text.
pub fn write_help(out: &mut dyn Write) -> std::io::Result<()> {
    writeln!(
        out,
        "swsample — uniform random sampling from sliding windows\n\
         (Braverman–Ostrovsky–Zaniolo, PODS 2009)\n\n\
         USAGE: swsample <COMMAND> [--flag value]...\n\n\
         COMMANDS\n\
           run   sample stdin through any sampler spec\n\
                 --window seq|ts|stream (--n N | --w T0) [--mode wr|wor]\n\
                 [--algo paper|reservoir-l|chain|priority|window-buffer]\n\
                 [--k K] [--seed S] [--report-every M] [--batch-size B]\n\
                 (ts windows read `<ts> <value>` lines; others one value/line)\n\
           multi run a keyed fleet: one window per key, zipf key skew\n\
                 --keys K --count N + the spec flags of `run`\n\
                 [--theta T] [--shards S] [--threads W] [--show H]\n\
                 [--workload-seed S]\n\
                 (--threads > 1 ingests via work-stealing over shard-run\n\
                 units; --threads 0 uses every core (resolved count on\n\
                 stderr); output is bit-identical for every thread count)\n\
                 durability: [--wal DIR] [--snapshot-every B]\n\
                 [--segment-bytes N] [--resume]  (WAL + snapshots; resume\n\
                 recovers and continues, stdout byte-identical to an\n\
                 uninterrupted run; the run always ends with a final\n\
                 snapshot so --resume restarts instantly; --resume under\n\
                 a different template is refused, --shards/--threads\n\
                 given on resume rescale)\n\
                 faults: SWSAMPLE_FAULTS (needs --wal for durable sites)\n\
                 live rescale: [--rescale-after B]\n\
                 [--rescale-shards S] [--rescale-threads W]\n\
           serve run the fleet as a TCP server (framed binary protocol)\n\
                 [--addr HOST:PORT] + the spec flags of `run`\n\
                 [--shards S] [--threads W] (0 = every core)\n\
                 [--wal DIR] [--snapshot-every B] [--segment-bytes N]\n\
                 (a DIR holding a snapshot is resumed at --shards/--threads;\n\
                 a different template is refused)\n\
                 [--queue-max-events N] [--ring-capacity N] [--tick-ms T]\n\
                 [--drain-delay-ms D]\n\
                 (first stderr line is `# listening on HOST:PORT`; a\n\
                 client SHUTDOWN frame drains, snapshots, and exits;\n\
                 ingest past the queue bound answers BUSY, not buffering)\n\
                 hardening: [--read-deadline-ms T] [--write-deadline-ms T]\n\
                 [--idle-timeout-ms T] [--max-conns N]\n\
                 [--slow-consumer-budget D]  (0 disables a knob; past the\n\
                 conn cap new connections get a typed OVERLOAD reject)\n\
                 chaos: [--faults SPEC] or SWSAMPLE_FAULTS\n\
           loadgen drive a `serve` instance with the `multi` workload\n\
                 --addr HOST:PORT [--connections C] --keys K --count N\n\
                 [--theta T] [--workload-seed S] [--batch-size B]\n\
                 [--verify] [--render-multi] [--show H] [--shutdown-server]\n\
                 (--verify replays offline and asserts byte-identical\n\
                 answers for any template `serve` accepts; --render-multi\n\
                 reproduces `multi` stdout; every request retries BUSY\n\
                 and dead connections under one backoff, 200us doubling\n\
                 to 50ms for up to 30s, and reconnects dedupe by session)\n\
           seq   shorthand: sample the last N lines of stdin\n\
                 --window N [--k K] [--wor] [--report-every M] [--seed S]\n\
                 [--batch-size B]\n\
           ts    shorthand: sample a timestamped stream (`<ts> <value>` lines)\n\
                 --window T0 [--k K] [--wor] [--report-every M] [--seed S]\n\
                 [--batch-size B]\n\
           agg   approximate aggregates over a timestamped numeric stream\n\
                 --window T0 [--k K] [--epsilon E] [--report-every M] [--seed S]\n\
           gen   emit a synthetic workload (pipe into the other commands)\n\
                 --kind uniform|zipf|bursty --count N [--domain D] [--theta T]\n\
                 [--max-burst B] [--seed S]\n\
           help  this text\n\n\
         FAULTS (one env var, one grammar; `serve --faults SPEC` wins)\n\
           SWSAMPLE_FAULTS=[seed=S,]SITE=TRIGGER[:P],...\n\
           TRIGGER: 1/N (seeded, ~1 in N ops) | @N (the Nth op) |\n\
                    @N.. (the Nth op and every one after)\n\
           network: drop-rx drop-tx stall-rx stall-tx (:Pms) flip-tx\n\
           durable (need --wal): wal-append wal-fsync (transient, retried)\n\
                    kill (exit 42 after a WAL append; :P tears P bytes)\n\
                    shutdown (final snapshot, exit 43) disk-full\n\
                    corrupt-snapshot (:P = byte offset; the 1st is create's)\n\
           e.g. kill=@40:11  or  seed=42,drop-rx=1/61,stall-tx=1/37:5ms\n\n\
         Sampling commands ingest stdin in batches of --batch-size lines\n\
         (default 512) and report end-of-run throughput on stderr."
    )
}

/// End-of-run ingestion throughput, reported on stderr so it never mixes
/// with the sample stream on stdout.
fn report_throughput(count: u64, elapsed: std::time::Duration) {
    let secs = elapsed.as_secs_f64();
    if secs > 0.0 {
        eprintln!(
            "# throughput: {count} elements in {secs:.3}s ({:.0} elems/s)",
            count as f64 / secs
        );
    } else {
        eprintln!("# throughput: {count} elements in <1ms");
    }
}

/// Parse and validate the `--batch-size` flag (chunk length for batched
/// stdin ingestion).
fn batch_size(args: &Args) -> Result<usize, ArgError> {
    let b = args.get_usize("batch-size", 512)?;
    if b == 0 {
        return Err(ArgError("--batch-size must be at least 1".into()));
    }
    Ok(b)
}

/// Assemble a [`SamplerSpec`] from the spec flags present on the command
/// line, parsed through the one canonical grammar in `swsample-core`.
fn spec_from_flags(args: &Args) -> Result<SamplerSpec, ArgError> {
    let mut s = String::new();
    for name in ["window", "n", "w", "mode", "algo", "k", "seed"] {
        if let Some(v) = args.get_str(name) {
            // The grammar is whitespace-separated; a value containing
            // whitespace would silently re-tokenize into extra flags.
            if v.chars().any(char::is_whitespace) {
                return Err(ArgError(format!(
                    "--{name}: value `{v}` contains whitespace"
                )));
            }
            s.push_str("--");
            s.push_str(name);
            s.push(' ');
            s.push_str(v);
            s.push(' ');
        }
    }
    s.parse()
        .map_err(|e: swsample_core::SpecError| ArgError(e.to_string()))
}

/// Build a spec through the full factory (baseline algorithms included).
fn build_sampler<T: Clone + Send + Sync + 'static>(
    spec: &SamplerSpec,
) -> Result<Box<dyn ErasedWindowSampler<T>>, ArgError> {
    swsample_baselines::spec::build(spec).map_err(|e| ArgError(e.to_string()))
}

fn cmd_run(args: &Args, input: &mut dyn BufRead, out: &mut dyn Write) -> Result<(), ArgError> {
    let spec = spec_from_flags(args)?;
    drive_stream(&spec, args, input, out)
}

/// `seq`/`ts` — legacy shorthands: numeric `--window`, `--wor`, paper
/// algorithm. They fill in a spec and share `run`'s driver.
fn cmd_legacy(
    args: &Args,
    input: &mut dyn BufRead,
    out: &mut dyn Write,
    timestamped: bool,
) -> Result<(), ArgError> {
    let window: u64 = args.require("window")?;
    let k = args.get_usize("k", 1)?;
    let seed = args.get_u64("seed", 42)?;
    let replacement = if args.get_flag("wor") {
        swsample_core::spec::Replacement::Without
    } else {
        swsample_core::spec::Replacement::With
    };
    let spec = if timestamped {
        SamplerSpec::ts(window, replacement, k, seed)
    } else {
        SamplerSpec::seq(window, replacement, k, seed)
    };
    drive_stream(&spec, args, input, out)
}

/// The one ingestion loop behind `run`, `seq`, and `ts`: chunked reads
/// through the erased batch API, report-cadence-preserving flushes.
fn drive_stream(
    spec: &SamplerSpec,
    args: &Args,
    input: &mut dyn BufRead,
    out: &mut dyn Write,
) -> Result<(), ArgError> {
    let timestamped = matches!(spec.window, WindowKind::Timestamp(_));
    let every = args.get_u64("report-every", 0)?;
    let batch = batch_size(args)?;
    let io_err = |e: std::io::Error| ArgError(format!("io error: {e}"));

    let mut sampler = build_sampler::<String>(spec)?;
    let start = std::time::Instant::now();
    // Chunked ingestion: lines accumulate into `buf` and enter the
    // sampler through the batch fast paths. Chunks flush at
    // `--batch-size`, at every report boundary (so `--report-every`
    // cadence is unchanged from per-line ingestion) and, for timestamp
    // windows, on a timestamp change.
    let mut buf: Vec<String> = Vec::with_capacity(batch);
    let mut buf_ts = 0u64;
    let mut count = 0u64;
    for line in input.lines() {
        let line = line.map_err(io_err)?;
        if line.trim().is_empty() {
            continue;
        }
        let (ts, value) = if timestamped {
            let (ts, rest) = split_timestamped(&line)?;
            (ts, rest.to_string())
        } else {
            (0, line)
        };
        if ts != buf_ts && !buf.is_empty() {
            sampler.advance_and_insert(buf_ts, &buf);
            buf.clear();
        }
        buf_ts = ts;
        buf.push(value);
        count += 1;
        let at_report = every > 0 && count.is_multiple_of(every);
        if buf.len() >= batch || at_report {
            sampler.advance_and_insert(buf_ts, &buf);
            buf.clear();
            if at_report {
                report_samples(out, count, sampler.as_ref(), timestamped).map_err(io_err)?;
            }
        }
    }
    if count == 0 {
        return Err(ArgError("no input".into()));
    }
    if !buf.is_empty() {
        sampler.advance_and_insert(buf_ts, &buf);
    }
    report_throughput(count, start.elapsed());
    report_samples(out, count, sampler.as_ref(), timestamped).map_err(io_err)?;
    writeln!(
        out,
        "# memory: {} words ({})",
        sampler.memory_words(),
        memory_note(spec)
    )
    .map_err(io_err)?;
    Ok(())
}

/// Render one sample according to the window discipline.
fn render_sample<T: std::fmt::Display>(s: &swsample_core::Sample<T>, timestamped: bool) -> String {
    if timestamped {
        format!("{}@t{}", s.value(), s.timestamp())
    } else {
        format!("{}@{}", s.value(), s.index())
    }
}

fn report_samples(
    out: &mut dyn Write,
    count: u64,
    sampler: &dyn ErasedWindowSampler<String>,
    timestamped: bool,
) -> std::io::Result<()> {
    match sampler.sample_k() {
        Some(samples) => {
            let rendered: Vec<String> = samples
                .iter()
                .map(|s| render_sample(s, timestamped))
                .collect();
            writeln!(out, "{count}\t{}", rendered.join(" "))
        }
        None if timestamped => writeln!(out, "{count}\t(window empty)"),
        None => Ok(()),
    }
}

/// Parse a `<ts> <rest>` line.
fn split_timestamped(line: &str) -> Result<(u64, &str), ArgError> {
    let mut parts = line.splitn(2, char::is_whitespace);
    let ts: u64 = parts
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| ArgError(format!("bad timestamp in line `{line}`")))?;
    let rest = parts.next().unwrap_or("").trim();
    if rest.is_empty() {
        return Err(ArgError(format!("missing value in line `{line}`")));
    }
    Ok((ts, rest))
}

/// Resolve the `--threads` flag: `0` is the "use every core" sentinel,
/// mapping to [`std::thread::available_parallelism`] (reported on
/// stderr so runs are attributable); any other value passes through.
fn resolve_threads(threads: usize) -> usize {
    if threads != 0 {
        return threads;
    }
    let resolved = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!("# threads: 0 resolved to {resolved} (available parallelism)");
    resolved
}

/// Refuse a fault schedule naming a durable site (`kill`, `shutdown`,
/// `disk-full`, `corrupt-snapshot`, `wal-*`) when no `--wal` directory
/// gives it a durable engine to act on: silently ignoring it would let
/// a crash harness pass vacuously.
fn require_wal_for_durable_faults(faults: &FaultSchedule, wal: bool) -> Result<(), ArgError> {
    match faults.durable_site() {
        Some(site) if !wal => Err(ArgError(format!(
            "fault site `{site}` needs --wal (durable sites drive the durable engine)"
        ))),
        _ => Ok(()),
    }
}

/// `multi` — a sharded fleet of per-key windows over a self-generated
/// zipf-keyed workload: the serving shape (one independent window per
/// user) at CLI scale.
///
/// With `--wal DIR` the fleet is durable: batches are written ahead to a
/// segment log, `--snapshot-every B` adds periodic snapshots, and
/// `--resume` recovers from the directory and continues the regenerated
/// workload where the log ends — stdout is byte-identical to an
/// uninterrupted run. `SWSAMPLE_FAULTS` injects crashes for testing.
fn cmd_multi(args: &Args, out: &mut dyn Write) -> Result<(), ArgError> {
    let keys: u64 = args.require("keys")?;
    if keys == 0 {
        return Err(ArgError("--keys must be at least 1".into()));
    }
    // The zipf inverse-CDF table is O(keys); engine memory is O(keys
    // touched). Bound the table so absurd domains fail fast, not in the
    // allocator.
    const MAX_KEYS: u64 = 10_000_000;
    if keys > MAX_KEYS {
        return Err(ArgError(format!("--keys: at most {MAX_KEYS} supported")));
    }
    let count: u64 = args.require("count")?;
    let theta = args.get_f64("theta", 1.1)?;
    if !(theta.is_finite() && theta > 0.0) {
        return Err(ArgError(format!(
            "--theta: expected a positive number, got `{theta}`"
        )));
    }
    let shards = args.get_usize("shards", 16)?;
    let threads = resolve_threads(args.get_usize("threads", 1)?);
    let show = args.get_usize("show", 3)?;
    let wseed = args.get_u64("workload-seed", 1)?;
    let batch = batch_size(args)?;
    let io_err = |e: std::io::Error| ArgError(format!("io error: {e}"));

    // Durability flags (--wal switches the fleet onto the WAL-backed
    // engine) and the mid-stream rescale schedule.
    let wal_dir = args.get_str("wal").map(std::path::PathBuf::from);
    let resume = args.get_flag("resume");
    let snapshot_every = args.get_u64("snapshot-every", 0)?;
    let segment_bytes = args.get_u64("segment-bytes", 4 << 20)?;
    if resume && wal_dir.is_none() {
        return Err(ArgError("--resume requires --wal DIR".into()));
    }
    // Durable sites drive the WAL-backed engine; network sites are
    // inert here.
    let faults = FaultSchedule::from_env().map_err(ArgError)?;
    require_wal_for_durable_faults(&faults, wal_dir.is_some())?;
    let rescale_after = args.get_u64("rescale-after", 0)?;
    let rescale_shards = args.get_usize("rescale-shards", 0)?;
    let rescale_threads = args.get_usize("rescale-threads", 0)?;
    if rescale_after > 0 && rescale_shards == 0 && rescale_threads == 0 {
        return Err(ArgError(
            "--rescale-after needs --rescale-shards and/or --rescale-threads".into(),
        ));
    }

    let spec = spec_from_flags(args)?;
    let storage = match wal_dir {
        None => Storage::Memory,
        Some(dir) => Storage::Wal(
            dir,
            DurableOptions {
                segment_bytes: segment_bytes.max(1),
                snapshot_every: (snapshot_every > 0).then_some(snapshot_every),
                faults,
            },
            // Explicit flags override the recorded config — the
            // rescale-on-resume path. Samples are unaffected.
            resume.then(|| ResumeOverrides {
                shards: args.get_str("shards").is_some().then_some(shards),
                threads: args.get_str("threads").is_some().then_some(threads),
            }),
        ),
    };
    let fleet_err = |e: DurableError| ArgError(e.to_string());
    let mut fleet = Fleet::start(spec.clone(), shards, threads, storage).map_err(fleet_err)?;
    // `done` = ingest batches already covered by a recovered WAL: the
    // workload is regenerated from scratch (it is deterministic in
    // --workload-seed), traffic is re-counted for every event, but the
    // first `done` batches are not re-ingested.
    let done = fleet.next_seq();
    // Stderr, like the throughput line: diagnostics never mix with the
    // sample stream.
    if done > 0 {
        eprintln!("# resume: {done} batches recovered, re-ingesting from there");
    }

    // Traffic counts sized by keys *touched*, matching the engine's lazy
    // materialization, not by the key domain.
    let mut traffic: HashMap<u64, u64> = HashMap::new();
    let mut chunk: Vec<(u64, u64, u64)> = Vec::with_capacity(batch);
    let mut chunk_index = 0u64;
    let start = std::time::Instant::now();
    for event in zipf_fleet_events(keys, theta, wseed).take(count as usize) {
        *traffic.entry(event.0).or_insert(0) += 1;
        chunk.push(event);
        if chunk.len() >= batch {
            if chunk_index >= done {
                fleet.ingest(&chunk).map_err(fleet_err)?;
            }
            chunk_index += 1;
            chunk.clear();
            if rescale_after > 0 && chunk_index == rescale_after {
                if rescale_shards > 0 {
                    fleet.set_shards(rescale_shards).map_err(fleet_err)?;
                }
                if rescale_threads > 0 {
                    fleet.set_threads(rescale_threads);
                }
                eprintln!(
                    "# rescale: {} shards, {} threads after batch {chunk_index}",
                    fleet.engine().num_shards(),
                    fleet.engine().num_threads()
                );
            }
        }
    }
    if !chunk.is_empty() && chunk_index >= done {
        fleet.ingest(&chunk).map_err(fleet_err)?;
    }
    // Graceful end of stream: a plain fleet collects the last batch's
    // deferred verdict; a durable one also fsyncs and writes a final
    // snapshot, so a later `--resume` restores without replaying.
    fleet.close().map_err(fleet_err)?;
    report_throughput(count, start.elapsed());
    // Scheduler observability (stderr, like `# resume:`): epochs/units
    // drained, steal traffic, and busy-time imbalance across workers.
    // All zeros at threads=1 (the inline path publishes no epochs).
    let engine = fleet.engine();
    if engine.num_threads() > 1 {
        let stats = engine.parallel_stats();
        eprintln!(
            "# parallel: threads={} epochs={} units={} steals={} violations={} imbalance={:.2}",
            stats.threads,
            stats.epochs,
            stats.units,
            stats.steals,
            stats.violations,
            stats.imbalance()
        );
    }

    let rows: Vec<_> = hot_keys(traffic)
        .into_iter()
        .take(show)
        .map(|(key, cnt)| {
            let samples = engine.sample_k(&key);
            (key, cnt, samples.as_deref().map(wire_samples))
        })
        .collect();
    write_multi_report(out, &spec, keys, &rows, &EngineStats::of(engine)).map_err(io_err)
}

/// `serve` — the fleet behind a TCP listener speaking the framed binary
/// protocol: batched ingest with bounded-queue backpressure, queries,
/// standing subscriptions, stats.
///
/// The first stderr line is `# listening on HOST:PORT` (with the real
/// port when `--addr` asked for :0), so scripts can parse where to
/// connect. The process runs until a client sends `SHUTDOWN`, then
/// drains the ingest queue, fsyncs + snapshots the WAL if one is
/// configured, prints the metrics line, and exits 0.
fn cmd_serve(args: &Args) -> Result<(), ArgError> {
    let mut cfg = ServerConfig::new(spec_from_flags(args)?);
    if let Some(addr) = args.get_str("addr") {
        cfg.addr = addr.to_string();
    }
    cfg.shards = args.get_usize("shards", cfg.shards)?;
    cfg.threads = resolve_threads(args.get_usize("threads", cfg.threads)?);
    cfg.wal_dir = args.get_str("wal").map(std::path::PathBuf::from);
    let snapshot_every = args.get_u64("snapshot-every", 0)?;
    cfg.snapshot_every = (snapshot_every > 0).then_some(snapshot_every);
    cfg.segment_bytes = args.get_u64("segment-bytes", cfg.segment_bytes)?.max(1);
    cfg.queue_max_events = args.get_usize("queue-max-events", cfg.queue_max_events)?;
    if cfg.queue_max_events == 0 {
        return Err(ArgError("--queue-max-events must be at least 1".into()));
    }
    cfg.ring_capacity = args.get_usize("ring-capacity", cfg.ring_capacity)?.max(1);
    cfg.tick = std::time::Duration::from_millis(args.get_u64("tick-ms", 100)?.max(1));
    cfg.drain_delay = std::time::Duration::from_millis(args.get_u64("drain-delay-ms", 0)?);

    // Hardening knobs: 0 disables a deadline/budget entirely.
    let ms = |v: u64| std::time::Duration::from_millis(v);
    cfg.read_deadline = ms(args.get_u64("read-deadline-ms", cfg.read_deadline.as_millis() as u64)?);
    cfg.write_deadline =
        ms(args.get_u64("write-deadline-ms", cfg.write_deadline.as_millis() as u64)?);
    cfg.idle_timeout = ms(args.get_u64("idle-timeout-ms", cfg.idle_timeout.as_millis() as u64)?);
    cfg.max_conns = args.get_usize("max-conns", cfg.max_conns)?;
    if cfg.max_conns == 0 {
        return Err(ArgError("--max-conns must be at least 1".into()));
    }
    cfg.slow_consumer_budget = args.get_u64("slow-consumer-budget", cfg.slow_consumer_budget)?;
    // Chaos: --faults SPEC wins over the SWSAMPLE_FAULTS environment
    // variable; both parse the same seeded-schedule grammar.
    cfg.faults = match args.get_str("faults") {
        Some(spec) => spec.parse().map_err(ArgError)?,
        None => FaultSchedule::from_env().map_err(ArgError)?,
    };
    require_wal_for_durable_faults(&cfg.faults, cfg.wal_dir.is_some())?;
    if !cfg.faults.is_empty() {
        eprintln!("# faults: {}", cfg.faults);
    }

    let server = Server::start(cfg).map_err(|e| ArgError(format!("serve: {e}")))?;
    eprintln!("# listening on {}", server.local_addr());
    // Condvar-backed wait: wakes immediately on SHUTDOWN instead of
    // polling on a fixed interval.
    while !server.wait_shutdown_requested(std::time::Duration::from_secs(3600)) {}
    // Drains, snapshots, joins every thread, prints the metrics line.
    server.shutdown();
    Ok(())
}

/// `loadgen` — drive a `serve` instance with `multi`'s deterministic
/// zipf workload over N concurrent connections, reporting end-to-end
/// throughput and reply-latency percentiles on stderr.
fn cmd_loadgen(args: &Args, out: &mut dyn Write) -> Result<(), ArgError> {
    let addr: String = args.require("addr")?;
    let mut cfg = LoadgenConfig::new(addr);
    cfg.connections = args.get_usize("connections", 1)?.max(1);
    cfg.keys = args.require("keys")?;
    if cfg.keys == 0 {
        return Err(ArgError("--keys must be at least 1".into()));
    }
    cfg.count = args.require("count")?;
    cfg.theta = args.get_f64("theta", 1.1)?;
    if !(cfg.theta.is_finite() && cfg.theta > 0.0) {
        return Err(ArgError(format!(
            "--theta: expected a positive number, got `{}`",
            cfg.theta
        )));
    }
    cfg.workload_seed = args.get_u64("workload-seed", 1)?;
    cfg.batch = batch_size(args)?;
    cfg.verify = args.get_flag("verify");
    cfg.render_multi = args.get_flag("render-multi");
    cfg.show = args.get_usize("show", 3)?;
    cfg.shutdown_server = args.get_flag("shutdown-server");

    let report = loadgen::run(&cfg, out).map_err(|e| ArgError(format!("loadgen: {e}")))?;
    eprintln!(
        "# loadgen: {} events over {} connections in {:.3}s ({:.0} elems/s), \
         p50 {}us p99 {}us, {} busy retries, {} reconnects, {} keys verified",
        report.events_sent,
        cfg.connections,
        report.seconds,
        report.elems_per_sec,
        report.p50_us,
        report.p99_us,
        report.busy_retries,
        report.reconnects,
        report.verified_keys
    );
    Ok(())
}

fn cmd_agg(args: &Args, input: &mut dyn BufRead, out: &mut dyn Write) -> Result<(), ArgError> {
    let window: u64 = args.require("window")?;
    let k = args.get_usize("k", 64)?;
    let epsilon = args.get_f64("epsilon", 0.05)?;
    let every = args.get_u64("report-every", 0)?;
    let seed = args.get_u64("seed", 42)?;
    let io_err = |e: std::io::Error| ArgError(format!("io error: {e}"));

    let mut agg = TsAggregator::new(window, k, epsilon, SmallRng::seed_from_u64(seed));
    let mut count = 0u64;
    for line in input.lines() {
        let line = line.map_err(io_err)?;
        if line.trim().is_empty() {
            continue;
        }
        let (ts, rest) = split_timestamped(&line)?;
        let value: u64 = rest
            .parse()
            .map_err(|_| ArgError(format!("bad numeric value `{rest}`")))?;
        agg.advance_time(ts);
        agg.insert(value);
        count += 1;
        if every > 0 && count.is_multiple_of(every) {
            report_agg(out, count, &agg).map_err(io_err)?;
        }
    }
    if count == 0 {
        return Err(ArgError("no input".into()));
    }
    report_agg(out, count, &agg).map_err(io_err)?;
    writeln!(out, "# memory: {} words", agg.memory_words()).map_err(io_err)?;
    Ok(())
}

fn report_agg(out: &mut dyn Write, count: u64, agg: &TsAggregator) -> std::io::Result<()> {
    match (agg.estimate(), agg.quantile(0.5), agg.quantile(0.99)) {
        (Some(est), Some(p50), Some(p99)) => writeln!(
            out,
            "{count}\tcount~{:.0}\tmean~{:.2}\tsum~{:.0}\tp50~{p50}\tp99~{p99}",
            est.count, est.mean, est.sum
        ),
        _ => writeln!(out, "{count}\t(window empty)"),
    }
}

fn cmd_gen(args: &Args, out: &mut dyn Write) -> Result<(), ArgError> {
    let kind: String = args.require("kind")?;
    let count: u64 = args.require("count")?;
    let domain = args.get_u64("domain", 1000)?;
    let seed = args.get_u64("seed", 42)?;
    let io_err = |e: std::io::Error| ArgError(format!("io error: {e}"));
    let mut rng = SmallRng::seed_from_u64(seed);
    match kind.as_str() {
        "uniform" => {
            let mut gen = SteadyArrivals::new(UniformGen::new(domain));
            for _ in 0..count {
                let ev = gen.next_event(&mut rng);
                writeln!(out, "{} {}", ev.timestamp, ev.value).map_err(io_err)?;
            }
        }
        "zipf" => {
            let theta = args.get_f64("theta", 1.1)?;
            let mut gen = SteadyArrivals::new(ZipfGen::new(domain, theta));
            for _ in 0..count {
                let ev = gen.next_event(&mut rng);
                writeln!(out, "{} {}", ev.timestamp, ev.value).map_err(io_err)?;
            }
        }
        "bursty" => {
            let max_burst = args.get_u64("max-burst", 8)?;
            let mut gen = BurstyArrivals::new(UniformGen::new(domain), max_burst);
            for _ in 0..count {
                let ev = gen.next_event(&mut rng);
                writeln!(out, "{} {}", ev.timestamp, ev.value).map_err(io_err)?;
            }
        }
        other => return Err(ArgError(format!("unknown workload kind `{other}`"))),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;
    use std::io::Cursor;

    fn run_cmd(cmdline: &str, input: &str) -> Result<String, String> {
        let args =
            Args::parse(cmdline.split_whitespace().map(String::from)).map_err(|e| e.to_string())?;
        let mut out = Vec::new();
        let mut cur = Cursor::new(input.as_bytes().to_vec());
        run(&args, &mut cur, &mut out).map(|()| String::from_utf8(out).expect("utf8"))
    }

    #[test]
    fn seq_samples_from_window() {
        let input: String = (0..100).map(|i| format!("v{i}\n")).collect();
        let out = run_cmd("seq --window 10 --k 3 --seed 1", &input).expect("runs");
        // Final report: all samples from v90..v99.
        let line = out.lines().next().expect("report line");
        assert!(line.starts_with("100\t"));
        for tok in line.split_whitespace().skip(1) {
            let idx: u64 = tok
                .split('@')
                .nth(1)
                .expect("@index")
                .parse()
                .expect("index");
            assert!(idx >= 90, "sample {tok} outside window");
        }
        assert!(out.contains("# memory:"));
    }

    #[test]
    fn seq_wor_distinct() {
        let input: String = (0..50).map(|i| format!("{i}\n")).collect();
        let out = run_cmd("seq --window 20 --k 5 --wor --seed 2", &input).expect("runs");
        let line = out.lines().next().expect("report");
        let idx: Vec<&str> = line.split_whitespace().skip(1).collect();
        assert_eq!(idx.len(), 5);
        let mut set: Vec<&str> = idx.clone();
        set.sort_unstable();
        set.dedup();
        assert_eq!(set.len(), 5, "duplicates in WOR output");
    }

    #[test]
    fn ts_respects_window() {
        let mut input = String::new();
        for t in 0..100u64 {
            input.push_str(&format!("{t} item{t}\n"));
        }
        let out = run_cmd("ts --window 5 --k 2 --seed 3", &input).expect("runs");
        let line = out.lines().next().expect("report");
        for tok in line.split_whitespace().skip(1) {
            let ts: u64 = tok.split("@t").nth(1).expect("@t").parse().expect("ts");
            assert!(ts >= 95, "expired sample {tok}");
        }
    }

    #[test]
    fn legacy_shorthand_equals_run_spec_surface() {
        // `seq --window N --wor` and `run --window seq --n N --mode wor`
        // are the same spec — byte-identical output at equal seeds.
        let input: String = (0..200).map(|i| format!("v{i}\n")).collect();
        let legacy = run_cmd("seq --window 25 --k 4 --wor --seed 9", &input).expect("legacy");
        let spec = run_cmd("run --window seq --n 25 --mode wor --k 4 --seed 9", &input)
            .expect("spec surface");
        assert_eq!(legacy, spec);

        let mut ts_input = String::new();
        for t in 0..60u64 {
            ts_input.push_str(&format!("{t} item{t}\n"));
        }
        let legacy = run_cmd("ts --window 7 --k 2 --seed 4", &ts_input).expect("legacy ts");
        let spec =
            run_cmd("run --window ts --w 7 --mode wr --k 2 --seed 4", &ts_input).expect("spec ts");
        assert_eq!(legacy, spec);
    }

    #[test]
    fn run_supports_baseline_algorithms_and_stream_windows() {
        let input: String = (0..300).map(|i| format!("{i}\n")).collect();
        // Chain sampling through the same CLI path.
        let out = run_cmd(
            "run --window seq --n 50 --mode wr --algo chain --k 3 --seed 5",
            &input,
        )
        .expect("chain runs");
        assert!(out.contains("randomized bound"), "{out}");
        // Whole-stream reservoir: samples may be arbitrarily old.
        let out = run_cmd(
            "run --window stream --mode wor --algo reservoir-l --k 4 --seed 5",
            &input,
        )
        .expect("reservoir runs");
        let line = out.lines().next().expect("report");
        assert!(line.starts_with("300\t"));
        // Priority sampling over a ts window.
        let mut ts_input = String::new();
        for t in 0..80u64 {
            ts_input.push_str(&format!("{t} v{t}\n"));
        }
        let out = run_cmd(
            "run --window ts --w 10 --mode wor --algo priority --k 3 --seed 6",
            &ts_input,
        )
        .expect("priority runs");
        for tok in out
            .lines()
            .next()
            .expect("report")
            .split_whitespace()
            .skip(1)
        {
            let ts: u64 = tok.split("@t").nth(1).expect("@t").parse().expect("ts");
            assert!(ts >= 70, "expired sample {tok}");
        }
    }

    #[test]
    fn run_rejects_invalid_specs() {
        assert!(run_cmd("run --n 5", "x\n").is_err(), "missing --window");
        assert!(
            run_cmd("run --window seq --n 5 --algo priority", "x\n").is_err(),
            "priority needs ts windows"
        );
        assert!(
            run_cmd("run --window seq --n 5 --mode maybe", "x\n").is_err(),
            "bad mode"
        );
    }

    #[test]
    fn multi_runs_a_fleet_end_to_end() {
        let out = run_cmd(
            "multi --keys 50 --count 4000 --window seq --n 20 --k 2 --seed 3 \
             --theta 1.2 --shards 4 --show 2",
            "",
        )
        .expect("multi runs");
        // Two hottest keys with their windows.
        let key_lines: Vec<&str> = out.lines().filter(|l| l.starts_with("key ")).collect();
        assert_eq!(key_lines.len(), 2, "{out}");
        for line in key_lines {
            assert!(line.contains("arrivals"));
            assert!(line.contains('@'), "samples rendered: {line}");
        }
        assert!(out.contains("# keys: "), "{out}");
        assert!(out.contains("materialized across 4 shards"), "{out}");
        assert!(out.contains("# memory: fleet "), "{out}");
        assert!(out.contains("max per key"), "{out}");
    }

    #[test]
    fn multi_fleet_respects_per_key_windows() {
        // Regenerate the deterministic workload (--workload-seed default
        // 1, zipf theta default 1.1, values = global stream index) and
        // check every reported sample is one of that key's own last-n
        // arrivals: cross-key routing would surface as a value the key
        // never received, a stale sample as one outside its window.
        let (keys, count, n) = (5u64, 2_000u64, 10usize);
        let out = run_cmd(
            "multi --keys 5 --count 2000 --window seq --n 10 --mode wor --k 3 --seed 8 --show 5",
            "",
        )
        .expect("multi runs");
        let mut arrivals: Vec<Vec<u64>> = vec![Vec::new(); keys as usize];
        for (key, _, i) in zipf_fleet_events(keys, 1.1, 1).take(count as usize) {
            arrivals[key as usize].push(i);
        }
        let key_lines: Vec<&str> = out.lines().filter(|l| l.starts_with("key ")).collect();
        assert_eq!(key_lines.len(), 5, "{out}");
        for line in key_lines {
            let mut parts = line.split('\t');
            let key: usize = parts
                .next()
                .expect("key column")
                .strip_prefix("key ")
                .expect("key prefix")
                .trim()
                .parse()
                .expect("key id");
            let cnt: u64 = parts
                .next()
                .expect("traffic column")
                .split_whitespace()
                .next()
                .expect("count")
                .parse()
                .expect("numeric count");
            assert_eq!(cnt, arrivals[key].len() as u64, "traffic count, key {key}");
            let window = &arrivals[key][arrivals[key].len().saturating_sub(n)..];
            for tok in parts.next().expect("samples column").split_whitespace() {
                let value: u64 = tok
                    .split('@')
                    .next()
                    .expect("value")
                    .parse()
                    .expect("value");
                assert!(
                    window.contains(&value),
                    "key {key}: sample {value} outside its window {window:?}"
                );
            }
        }
    }

    /// The determinism contract `--threads` rides on: per-key samples
    /// are bit-identical for every worker count, so the whole stdout
    /// report (samples, key census, memory) must match byte for byte.
    #[test]
    fn multi_threads_output_is_bit_identical() {
        let base = "multi --keys 200 --count 6000 --window seq --n 25 --k 3 --seed 5 \
             --theta 1.2 --shards 8 --show 4";
        let serial = run_cmd(base, "").expect("serial fleet runs");
        for threads in [2usize, 8] {
            let parallel =
                run_cmd(&format!("{base} --threads {threads}"), "").expect("parallel fleet runs");
            assert_eq!(
                serial, parallel,
                "--threads {threads} output diverges from --threads 1"
            );
        }
        // Timestamp templates cross the pool too.
        let ts_base = "multi --keys 50 --count 4000 --window ts --w 10 --mode wor --k 2 \
             --seed 6 --shards 4 --show 3";
        let serial = run_cmd(ts_base, "").expect("serial ts fleet runs");
        let parallel = run_cmd(&format!("{ts_base} --threads 4"), "").expect("parallel ts fleet");
        assert_eq!(serial, parallel, "ts template diverges across threads");
    }

    #[test]
    fn multi_rejects_bad_fleets() {
        assert!(
            run_cmd("multi --count 10 --window seq --n 5", "").is_err(),
            "missing --keys"
        );
        assert!(
            run_cmd("multi --keys 0 --count 10 --window seq --n 5", "").is_err(),
            "zero keys"
        );
        assert!(
            run_cmd("multi --keys 5 --count 10 --window seq --n 5 --k 0", "").is_err(),
            "invalid template"
        );
        // --threads 0 is the available-parallelism sentinel, not an
        // error — and the output stays byte-identical to --threads 1.
        let auto = run_cmd(
            "multi --keys 5 --count 10 --window seq --n 5 --threads 0",
            "",
        )
        .expect("--threads 0 resolves to available parallelism");
        let one = run_cmd(
            "multi --keys 5 --count 10 --window seq --n 5 --threads 1",
            "",
        )
        .expect("baseline");
        assert_eq!(auto, one, "--threads 0 output diverges from --threads 1");
        for theta in ["0", "-1", "nan"] {
            assert!(
                run_cmd(
                    &format!("multi --keys 5 --count 10 --window seq --n 5 --theta {theta}"),
                    ""
                )
                .is_err(),
                "theta {theta} must be rejected, not panic"
            );
        }
        assert!(
            run_cmd("multi --keys 99000000000 --count 10 --window seq --n 5", "").is_err(),
            "absurd key domain rejected before allocation"
        );
    }

    #[test]
    fn agg_reports_estimates() {
        let mut input = String::new();
        for t in 0..200u64 {
            input.push_str(&format!("{t} {}\n", t % 10));
        }
        let out = run_cmd("agg --window 50 --k 16 --seed 4", &input).expect("runs");
        assert!(out.contains("count~"), "{out}");
        assert!(out.contains("p99~"));
    }

    #[test]
    fn gen_produces_parseable_workload() {
        let out = run_cmd("gen --kind zipf --count 50 --domain 10 --seed 5", "").expect("runs");
        assert_eq!(out.lines().count(), 50);
        for line in out.lines() {
            let (_ts, v) = split_timestamped(line).expect("parse");
            let v: u64 = v.parse().expect("numeric");
            assert!(v < 10);
        }
    }

    #[test]
    fn gen_pipes_into_ts() {
        let workload =
            run_cmd("gen --kind bursty --count 200 --domain 100 --seed 6", "").expect("gen");
        let out = run_cmd("ts --window 10 --k 3 --wor --seed 7", &workload).expect("ts");
        assert!(out.lines().next().expect("report").starts_with("200\t"));
    }

    #[test]
    fn periodic_reports() {
        let input: String = (0..100).map(|i| format!("{i}\n")).collect();
        let out =
            run_cmd("seq --window 10 --k 1 --report-every 25 --seed 8", &input).expect("runs");
        // Reports at 25, 50, 75, 100 + final (100 repeats) + memory line.
        let reports = out.lines().filter(|l| !l.starts_with('#')).count();
        assert_eq!(reports, 5);
    }

    #[test]
    fn errors_are_reported() {
        assert!(run_cmd("seq", "").is_err(), "missing --window");
        assert!(
            run_cmd("nope --window 5", "").is_err(),
            "unknown subcommand"
        );
        assert!(
            run_cmd("ts --window 5", "not-a-ts x\n").is_err(),
            "bad timestamp"
        );
        assert!(run_cmd("seq --window 5", "").is_err(), "empty input");
        assert!(
            run_cmd("gen --kind weird --count 5", "").is_err(),
            "unknown kind"
        );
    }

    #[test]
    fn help_prints_usage() {
        let out = run_cmd("help", "").expect("help");
        assert!(out.contains("USAGE"));
        assert!(out.contains("seq"));
        assert!(out.contains("batch-size"));
        assert!(out.contains("multi"));
        assert!(out.contains("--algo"));
    }

    #[test]
    fn seq_batch_size_respects_window_and_reports() {
        let input: String = (0..100).map(|i| format!("v{i}\n")).collect();
        for bs in [1usize, 7, 100, 4096] {
            let out = run_cmd(
                &format!("seq --window 10 --k 3 --seed 1 --batch-size {bs}"),
                &input,
            )
            .expect("runs");
            let line = out.lines().next().expect("report line");
            assert!(line.starts_with("100\t"), "batch={bs}: {line}");
            for tok in line.split_whitespace().skip(1) {
                let idx: u64 = tok
                    .split('@')
                    .nth(1)
                    .expect("@index")
                    .parse()
                    .expect("index");
                assert!(idx >= 90, "batch={bs}: sample {tok} outside window");
            }
        }
    }

    #[test]
    fn seq_batching_keeps_report_cadence() {
        let input: String = (0..100).map(|i| format!("{i}\n")).collect();
        let out = run_cmd(
            "seq --window 10 --k 1 --report-every 25 --seed 8 --batch-size 64",
            &input,
        )
        .expect("runs");
        // Same cadence as the unbatched run: 25, 50, 75, 100 + final.
        let reports = out.lines().filter(|l| !l.starts_with('#')).count();
        assert_eq!(reports, 5);
    }

    #[test]
    fn ts_batch_size_respects_window() {
        let mut input = String::new();
        for t in 0..50u64 {
            for j in 0..3u64 {
                input.push_str(&format!("{t} item{t}_{j}\n"));
            }
        }
        for bs in [1usize, 5, 1000] {
            let out = run_cmd(
                &format!("ts --window 5 --k 2 --seed 3 --batch-size {bs}"),
                &input,
            )
            .expect("runs");
            let line = out.lines().next().expect("report");
            for tok in line.split_whitespace().skip(1) {
                let ts: u64 = tok.split("@t").nth(1).expect("@t").parse().expect("ts");
                assert!(ts >= 45, "batch={bs}: expired sample {tok}");
            }
        }
    }

    #[test]
    fn zero_batch_size_is_an_error() {
        let input = "a\nb\n";
        assert!(run_cmd("seq --window 2 --batch-size 0", input).is_err());
        assert!(run_cmd("ts --window 2 --batch-size 0", "0 a\n").is_err());
    }
}
