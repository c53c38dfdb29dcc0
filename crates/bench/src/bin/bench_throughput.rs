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
//! and fully reproducible. The binary parses the document it rendered,
//! prints its rows and every gate's report line (`throughput::check`), and
//! refuses to write on any gate failure, so its exit status carries every
//! gate. Always use `--release`: a debug-profile baseline is meaningless.
//! An unknown argument or an `--out` without a path exits 2 before
//! measuring anything.

use swsample_bench::json::{self, Value};
use swsample_bench::throughput::{
    check, machine, params, run_durable, run_multi, run_parallel, run_server, run_with, section,
    to_json, SECTIONS,
};
use swsample_bench::{table_header, table_row};

const USAGE: &str = "usage: bench_throughput [--quick] [--out PATH]";

/// `(quick, out path)`, or `None` for `--help`.
fn parse_args(args: &[String]) -> Result<Option<(bool, String)>, String> {
    let (mut quick, mut out) = (false, "BENCH_throughput.json".to_string());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--quick" => quick = true,
            "--out" => match it.next() {
                Some(path) if !path.starts_with('-') => out = path.clone(),
                _ => return Err("--out needs a path".into()),
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some((quick, out)))
}

fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("bench_throughput: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, out_path) = match parse_args(&args) {
        Ok(Some(run)) => run,
        Ok(None) => return eprintln!("{USAGE}"),
        Err(e) => {
            eprintln!("bench_throughput: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };

    let p = params(quick);
    eprintln!(
        "running throughput suite ({}; {} configurations)...",
        if quick { "quick" } else { "full" },
        p.ks.len() * (p.ns.len() * 12 + 2)
    );
    let rows = run_with(&p);
    let (multi, parallel) = (run_multi(&p), run_parallel(&p));
    let (durable, server) = (run_durable(&p), run_server(&p));
    let body = to_json(&rows, &multi, &parallel, &durable, &server, quick);
    let doc = json::parse(&body).unwrap_or_else(|e| die(format!("emitted invalid JSON ({e})")));
    let m = machine();
    println!("machine: {} logical cores, {}", m.cores, m.model);
    print_tables(&doc);
    let report = check(&doc).unwrap_or_else(|failures| {
        die(format!(
            "{}\nbench_throughput: refusing to write {out_path}",
            failures.join("\nbench_throughput: ")
        ))
    });
    println!();
    report.iter().for_each(|line| println!("{line}"));
    std::fs::write(&out_path, &body)
        .unwrap_or_else(|e| die(format!("cannot write {out_path}: {e}")));
    // Re-read and re-parse: the written artifact itself must parse.
    let back = std::fs::read_to_string(&out_path)
        .unwrap_or_else(|e| die(format!("cannot re-read {out_path}: {e}")));
    json::parse(&back).unwrap_or_else(|e| die(format!("{out_path} does not re-parse ({e})")));
    println!("\nwrote {out_path} ({} rows, all gates passed)", rows.len());
}

/// Print each row section of the document as a table, one column per
/// row member.
fn print_tables(doc: &Value) {
    for &name in SECTIONS {
        let Some(Value::Object(first)) = section(doc, name).first() else {
            continue;
        };
        let columns: Vec<&str> = first.iter().map(|(k, _)| k.as_str()).collect();
        table_header(name, &columns);
        for row in section(doc, name) {
            let cell = |c: &&str| match row.get(c) {
                Some(Value::String(s)) => s.clone(),
                Some(Value::Number(x)) => json::number(*x),
                _ => "-".into(),
            };
            table_row(&columns.iter().map(cell).collect::<Vec<_>>());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<(bool, String)>, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_parse_or_are_rejected_before_any_measurement() {
        let run = |quick, out: &str| Ok(Some((quick, out.to_string())));
        assert_eq!(parse(&[]), run(false, "BENCH_throughput.json"));
        assert_eq!(parse(&["--quick", "--out", "q.json"]), run(true, "q.json"));
        assert_eq!(parse(&["--out", "x.json", "--quick"]), run(true, "x.json"));
        assert_eq!(parse(&["--quick", "-h"]), Ok(None));
        for bad in [
            &["--quikc"][..],
            &["--out"],
            &["--out", "--quick"],
            &["--quick", "extra"],
            &["--threads", "4"],
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
