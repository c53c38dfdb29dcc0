//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints `# `-prefixed context lines, then one JSON result line. Span
//! files and scratch WAL directories go under `.bench_out/` in the
//! working directory.

use std::path::PathBuf;
use std::process::ExitCode;

use swsample_perfbench::{run, Args};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        tiny: false,
        out_dir: PathBuf::from(".bench_out"),
    };
    let (mut workload, mut seed, mut seconds, mut trace) = (false, false, false, false);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                args.workload = value.clone();
                workload = true;
            }
            "--seed" => {
                args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?;
                seed = true;
            }
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?;
                seconds = true;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
                trace = true;
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if workload && seed && seconds && trace {
        Ok(args)
    } else {
        Err("--workload, --seed, --seconds and --trace are all required".into())
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for note in &report.notes {
                println!("# {note}");
            }
            for (name, value) in &report.metrics {
                println!("# metric {name} = {value}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
