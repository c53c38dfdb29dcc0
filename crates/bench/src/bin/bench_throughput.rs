//! `bench_throughput` — regenerate `BENCH_throughput.json`, the repo's
//! machine-readable ingestion-throughput baseline.
//!
//! ```text
//! bench_throughput                        # full suite -> BENCH_throughput.json
//! bench_throughput --quick --out /tmp/t.json   # CI smoke shape
//! ```
//!
//! The suite is seeded and the sampler/config matrix is fixed, so the only
//! run-to-run variance is wall-clock noise; `rng_draws` columns are exact
//! and fully reproducible. The binary validates the JSON it wrote (with
//! the bench crate's own parser) and exits non-zero if it does not parse —
//! the CI smoke step relies on that plus an external `json.tool` pass.
//!
//! Run it from the repo root with `cargo run --release -p swsample-bench
//! --bin bench_throughput`; always use `--release`, a debug-profile
//! baseline would be meaningless.

use swsample_bench::throughput::{
    durable_wal_overhead_100k, machine, parallel_t4_efficiency_100k, parallel_t8_overhead, params,
    run_durable, run_multi, run_parallel, run_server, run_with, server_e2e_100k_vs_direct, speedup,
    to_json, DURABLE_WAL_100K_GATE, PARALLEL_T4_EFFICIENCY_GATE, PARALLEL_T8_OVERHEAD_GATE,
    SERVER_E2E_100K_GATE,
};
use swsample_bench::{json, table_header, table_row};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_throughput.json".to_string());
    let max_threads = args
        .iter()
        .position(|a| a == "--threads")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse::<usize>().expect("--threads: numeric"));
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("usage: bench_throughput [--quick] [--out PATH] [--threads MAX]");
        return;
    }

    let mut p = params(quick);
    if let Some(max) = max_threads {
        p.multi_threads.retain(|&t| t <= max.max(1));
    }
    eprintln!(
        "running throughput suite ({}; {} configurations)...",
        if quick { "quick" } else { "full" },
        p.ks.len() * (p.ns.len() * 12 + 2)
    );
    let rows = run_with(&p);

    table_header(
        "ingestion throughput (batched API, seeded streams)",
        &["sampler", "win", "k", "n", "elems/s", "draws/elem"],
    );
    for r in &rows {
        table_row(&[
            r.sampler.into(),
            r.discipline.into(),
            r.k.to_string(),
            r.n.to_string(),
            format!("{:.0}", r.elems_per_sec),
            format!("{:.4}", r.rng_draws as f64 / r.elements as f64),
        ]);
    }
    if let Some(s) = speedup(&rows, "seq_wr_skip", "seq_wr_naive", 64, 100_000) {
        println!("\nseq-WR skip vs naive at k=64, n=1e5: {s:.1}x elems/sec");
        if s < 5.0 {
            // Hard gate: never write a baseline artifact that violates the
            // acceptance bar (tests/skip_equivalence.rs re-checks the
            // committed file, so a regression cannot slip through either).
            eprintln!("bench_throughput: skip-path speedup {s:.1}x below the 5x acceptance bar");
            std::process::exit(1);
        }
    }
    for (fused, indep, label) in [
        ("ts_wr", "ts_wr_indep", "ts-WR"),
        ("ts_wor", "ts_wor_indep", "ts-WOR"),
    ] {
        if let Some(s) = speedup(&rows, fused, indep, 64, 100_000) {
            println!("{label} fused bank vs independent engines at k=64, n=1e5: {s:.1}x elems/sec");
            if s < 5.0 {
                eprintln!(
                    "bench_throughput: {label} bank speedup {s:.1}x below the 5x acceptance bar"
                );
                std::process::exit(1);
            }
        }
    }
    // The fused ts rows are draw-gated: ingestion must cost at most
    // k/32 + 1 RNG words per element (packed merge-coin bits), in quick
    // and full shapes alike. CI re-asserts this on the emitted JSON.
    for r in rows
        .iter()
        .filter(|r| r.sampler == "ts_wr" || r.sampler == "ts_wor")
    {
        let dpe = r.rng_draws as f64 / r.elements as f64;
        let bound = r.k as f64 / 32.0 + 1.0;
        if dpe > bound {
            eprintln!(
                "bench_throughput: {} k={} draws/element {dpe:.4} above the k/32+1 bound {bound}",
                r.sampler, r.k
            );
            std::process::exit(1);
        }
    }
    // The priority_topk lazy-eviction rebuild: 1 draw/element sampling
    // must never be slower than full k-draw priority sampling at k = 64
    // (the PR-4 artifact had it *under* — 0.88M vs 1.1M elems/s).
    for &n in &p.ns {
        if let Some(s) = speedup(&rows, "priority_topk", "priority", 64, n) {
            println!("GL top-k vs k-draw priority at k=64, n={n}: {s:.1}x elems/sec");
            if s < 1.0 {
                eprintln!(
                    "bench_throughput: priority_topk {s:.2}x slower than priority at k=64, n={n}"
                );
                std::process::exit(1);
            }
        }
    }

    let m = machine();
    println!("\nmachine: {} logical cores, {}", m.cores, m.model);

    let multi = run_multi(&p);
    table_header(
        "multi-stream engine (zipf-keyed fleet, seq-WR template, batched keyed ingest)",
        &[
            "keys",
            "k",
            "shards",
            "cold elems/s",
            "sustained elems/s",
            "keys touched",
            "fleet words",
            "max key words",
        ],
    );
    for r in &multi {
        table_row(&[
            r.keys.to_string(),
            r.k.to_string(),
            r.shards.to_string(),
            format!("{:.0}", r.elems_per_sec),
            format!("{:.0}", r.sustained_elems_per_sec),
            r.keys_touched.to_string(),
            r.memory_words.to_string(),
            r.max_key_words.to_string(),
        ]);
    }

    let parallel = run_parallel(&p);
    table_header(
        "parallel ingestion (work-stealing shard-run scheduler, seq-WR template)",
        &[
            "keys",
            "k",
            "shards",
            "threads",
            "batch",
            "fleet elems/s",
            "units",
            "steals",
            "imbalance",
        ],
    );
    for r in &parallel {
        table_row(&[
            r.keys.to_string(),
            r.k.to_string(),
            r.shards.to_string(),
            r.threads.to_string(),
            r.batch.to_string(),
            format!("{:.0}", r.elems_per_sec),
            r.units.to_string(),
            r.steals.to_string(),
            format!("{:.2}", r.imbalance),
        ]);
    }
    for (keys, label) in [(1_000u64, "1k"), (100_000u64, "100k")] {
        if let Some(s) = parallel_t8_overhead(&parallel, keys) {
            println!("work-stealing 8-thread vs serial at {label} keys: {s:.2}x");
            if s < PARALLEL_T8_OVERHEAD_GATE {
                // Hard gate, armed on any host: the scheduler's fixed
                // per-batch cost (partition + epoch handshake) must not
                // eat more than 10% of serial throughput even when all
                // 8 workers share one core.
                eprintln!(
                    "bench_throughput: parallel_t8_overhead_{label} {s:.2}x below the \
                     {PARALLEL_T8_OVERHEAD_GATE}x acceptance bar"
                );
                std::process::exit(1);
            }
        }
    }
    if let Some(s) = parallel_t4_efficiency_100k(&parallel) {
        println!("work-stealing 4-thread vs serial at 100k keys: {s:.2}x");
        if m.cores > 1 && s < PARALLEL_T4_EFFICIENCY_GATE {
            // Hard gate, armed only on parallel hosts: with real cores
            // available, 4 workers must actually scale.
            eprintln!(
                "bench_throughput: parallel_t4_efficiency_100k {s:.2}x below the \
                 {PARALLEL_T4_EFFICIENCY_GATE}x acceptance bar (cores={})",
                m.cores
            );
            std::process::exit(1);
        }
    }

    let durable = run_durable(&p);
    table_header(
        "durable pipeline (WAL + snapshots over the keyed fleet, seq-WR template)",
        &["mode", "keys", "k", "snap every", "elems/s", "recovery s"],
    );
    for r in &durable {
        table_row(&[
            r.mode.into(),
            r.keys.to_string(),
            r.k.to_string(),
            r.snapshot_every.to_string(),
            format!("{:.0}", r.elems_per_sec),
            format!("{:.3}", r.recovery_seconds),
        ]);
    }
    if let Some(s) = durable_wal_overhead_100k(&durable) {
        println!("\nWAL-on vs WAL-off ingest at 100k keys: {s:.2}x");
        if s < DURABLE_WAL_100K_GATE {
            // Hard gate: the durability tax must stay a bandwidth tax.
            // Dropping under 0.7x means an fsync or allocation snuck
            // into the per-batch path.
            eprintln!(
                "bench_throughput: durable_wal_overhead_100k {s:.2}x below the \
                 {DURABLE_WAL_100K_GATE}x acceptance bar"
            );
            std::process::exit(1);
        }
    }

    let server = run_server(&p);
    table_header(
        "end-to-end serving (loopback TCP server + load generator, seq-WR template)",
        &[
            "conns",
            "keys",
            "elems/s",
            "p50 us",
            "p99 us",
            "busy",
            "direct elems/s",
        ],
    );
    for r in &server {
        table_row(&[
            r.connections.to_string(),
            r.keys.to_string(),
            format!("{:.0}", r.elems_per_sec),
            r.p50_us.to_string(),
            r.p99_us.to_string(),
            r.busy.to_string(),
            format!("{:.0}", r.direct_elems_per_sec),
        ]);
    }
    if let Some(s) = server_e2e_100k_vs_direct(&server) {
        println!(
            "\nend-to-end server vs same-run direct ingest at 100k keys: {s:.2}x (best conns)"
        );
        if s < SERVER_E2E_100K_GATE {
            // Hard gate: the serving tax must stay a framing/bandwidth
            // tax. Dropping under 0.5x means the pipeline serialized —
            // a per-batch sync round trip, queue thrash, or a blocking
            // writer snuck into the hot path.
            eprintln!(
                "bench_throughput: server_e2e_100k_vs_direct {s:.2}x below the \
                 {SERVER_E2E_100K_GATE}x acceptance bar"
            );
            std::process::exit(1);
        }
    }

    let doc = to_json(&rows, &multi, &parallel, &durable, &server, quick);
    if let Err(e) = json::validate(&doc) {
        eprintln!("bench_throughput: emitted invalid JSON ({e}) — refusing to write");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("bench_throughput: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    // Re-read and re-validate: the committed artifact itself must parse.
    match std::fs::read_to_string(&out_path) {
        Ok(back) => {
            if let Err(e) = json::validate(&back) {
                eprintln!("bench_throughput: {out_path} does not re-parse ({e})");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("bench_throughput: cannot re-read {out_path}: {e}");
            std::process::exit(1);
        }
    }
    println!("\nwrote {out_path} ({} rows, validated)", rows.len());
}
