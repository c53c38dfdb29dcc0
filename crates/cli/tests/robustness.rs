//! Adversarial command-line robustness: no sequence of flags — valid,
//! garbled, truncated, or duplicated — may panic the parser or a
//! command driver, and every rejection must name the offending flag or
//! token so the user can fix it.

use proptest::prelude::*;
use swsample_cli::args::Args;

/// Characters junk tokens are built from (the vendored proptest subset
/// has no regex string strategies).
const JUNK: &[char] = &['a', 'z', 'q', '0', '9', '!', '@', '#', '%', '.', '-', '='];

fn junk_string(picks: &[usize]) -> String {
    picks.iter().map(|&i| JUNK[i % JUNK.len()]).collect()
}
use swsample_cli::commands;
use swsample_core::SamplerSpec;

/// Token pool the fuzzer draws command lines from: real subcommands,
/// real flags, plausible values, and junk. Numeric values are kept tiny
/// so accidentally-valid `multi`/`gen` invocations finish instantly.
const TOKENS: &[&str] = &[
    "run",
    "seq",
    "ts",
    "multi",
    "agg",
    "gen",
    "help",
    "frobnicate",
    "--window",
    "--n",
    "--w",
    "--mode",
    "--algo",
    "--k",
    "--seed",
    "--keys",
    "--count",
    "--theta",
    "--shards",
    "--threads",
    "--batch-size",
    "--report-every",
    "--show",
    "--workload-seed",
    "--kind",
    "--domain",
    "--epsilon",
    "--wor",
    "--resume",
    "--snapshot-every",
    "--rescale-after",
    "--rescale-shards",
    "seq",
    "ts",
    "stream",
    "wr",
    "wor",
    "paper",
    "reservoir-l",
    "chain",
    "priority",
    "window-buffer",
    "uniform",
    "zipf",
    "bursty",
    "3",
    "7",
    "0",
    "-1",
    "2.5",
    "nan",
    "1e999",
    "garbage",
    "--",
    "--=",
    "--window=seq",
    "--k=3",
    "--k=",
    "=5",
    "ten",
];

fn run_captured(argv: Vec<String>) -> Result<Result<(), String>, ()> {
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(_) => return Err(()),
    };
    let mut input: &[u8] = b"";
    let mut out = Vec::new();
    Ok(commands::run(&args, &mut { &mut input }, &mut out))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any command line assembled from the token pool parses or errors —
    /// never panics — all the way through the command drivers.
    #[test]
    fn fuzzed_command_lines_never_panic(
        picks in proptest::collection::vec(0usize..TOKENS.len(), 0..10),
    ) {
        let argv: Vec<String> = picks.iter().map(|&i| TOKENS[i].to_string()).collect();
        let _ = run_captured(argv);
    }

    /// Garbling one token of a canonical, valid `multi` command line
    /// never panics, and if it turns the line invalid, the error names
    /// the offending token or its flag.
    #[test]
    fn garbled_multi_flag_errors_name_the_token(
        victim in 0usize..12,
        junk_picks in proptest::collection::vec(0usize..JUNK.len(), 1..8),
    ) {
        let junk = junk_string(&junk_picks);
        let mut argv: Vec<String> = [
            "multi", "--keys", "10", "--count", "200", "--window", "seq",
            "--n", "50", "--k", "2", "--threads", "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        // Garble one token (never the subcommand itself — that case is
        // covered by the pool fuzzer above).
        let at = 1 + (victim % (argv.len() - 1));
        let original = argv[at].clone();
        // The flag governing the garbled token: the token itself if it is
        // a flag, otherwise the flag it is the value of. A junk value may
        // be rejected by semantic validation (e.g. `--k 0`), whose message
        // names the flag rather than echoing the value.
        let flag = if original.starts_with("--") {
            original.clone()
        } else {
            argv[at - 1].clone()
        };
        argv[at] = junk.clone();
        match run_captured(argv) {
            Err(()) => {} // Args::parse rejected the shape — fine.
            Ok(Ok(())) => {} // still valid (e.g. junk became a value for a bare flag)
            Ok(Err(msg)) => {
                prop_assert!(
                    msg.contains(&junk)
                        || msg.contains(flag.trim_start_matches("--"))
                        || msg.contains("missing"),
                    "error `{msg}` names neither the junk token `{junk}` nor \
                     the flag `{flag}`"
                );
            }
        }
    }

    /// The spec grammar itself: garbling any token of a canonical spec
    /// string never panics `SamplerSpec::from_str`, and failures name
    /// the offending token or flag.
    #[test]
    fn garbled_spec_strings_error_with_the_token(
        victim in 0usize..12,
        junk_picks in proptest::collection::vec(0usize..JUNK.len(), 1..6),
    ) {
        let junk = junk_string(&junk_picks);
        let canonical = "--window seq --n 100 --mode wr --algo paper --k 3 --seed 9";
        let mut tokens: Vec<String> = canonical.split_whitespace().map(String::from).collect();
        let at = victim % tokens.len();
        let original = tokens[at].clone();
        tokens[at] = junk.clone();
        let line = tokens.join(" ");
        match line.parse::<SamplerSpec>() {
            Ok(_) => {} // junk happened to be a valid value
            Err(e) => {
                let msg = e.to_string();
                prop_assert!(
                    msg.contains(&junk) || msg.contains(original.trim_start_matches("--"))
                        || msg.contains("missing"),
                    "spec error `{msg}` names neither `{junk}` nor `{original}`"
                );
            }
        }
    }

    /// Arbitrary whitespace-separated garbage through the spec parser:
    /// never a panic.
    #[test]
    fn arbitrary_spec_strings_never_panic(
        picks in proptest::collection::vec(0usize..(JUNK.len() + 1), 0..80),
    ) {
        // Index JUNK.len() maps to a space so the garbage re-tokenizes.
        let s: String = picks
            .iter()
            .map(|&i| if i == JUNK.len() { ' ' } else { JUNK[i] })
            .collect();
        let _ = s.parse::<SamplerSpec>();
    }

    /// Truncating a valid command line at any point never panics and
    /// (when it fails) reports what is missing.
    #[test]
    fn truncated_command_lines_never_panic(keep in 0usize..13) {
        let full = [
            "multi", "--keys", "10", "--count", "200", "--window", "seq",
            "--n", "50", "--k", "2", "--threads", "1",
        ];
        let argv: Vec<String> = full[..keep.min(full.len())]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let _ = run_captured(argv);
    }
}

/// Deterministic checks of the `--threads` / durability flag surface:
/// every invalid combination is an error whose message names the flag.
#[test]
fn threads_and_durability_combos_report_the_flag() {
    let cases: &[(&[&str], &str)] = &[
        // (--threads 0 is no longer an error: it is the
        // available-parallelism sentinel, covered in commands.rs tests.)
        (
            &[
                "multi",
                "--keys",
                "5",
                "--count",
                "50",
                "--window",
                "seq",
                "--n",
                "10",
                "--threads",
                "two",
            ],
            "--threads",
        ),
        (
            &[
                "multi", "--keys", "5", "--count", "50", "--window", "seq", "--n", "10", "--resume",
            ],
            "--wal",
        ),
        (
            &[
                "multi",
                "--keys",
                "5",
                "--count",
                "50",
                "--window",
                "seq",
                "--n",
                "10",
                "--rescale-after",
                "2",
            ],
            "--rescale",
        ),
    ];
    for (argv, needle) in cases {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let args = Args::parse(argv.clone()).expect("shape parses");
        let mut input: &[u8] = b"";
        let mut out = Vec::new();
        let err = commands::run(&args, &mut { &mut input }, &mut out)
            .expect_err(&format!("{argv:?} should fail"));
        assert!(
            err.contains(needle),
            "{argv:?}: error `{err}` does not mention `{needle}`"
        );
    }
}

/// `Args::parse` on raw garbage never panics (no pool, pure bytes).
#[test]
fn args_parse_handles_edge_shapes() {
    for argv in [
        vec![],
        vec!["--".into()],
        vec!["---".into()],
        vec!["cmd".into(), "--".into()],
        vec!["cmd".into(), "--=x".into()],
        vec!["cmd".into(), "--a".into(), "--b".into(), "--c".into()],
        vec!["cmd".into(), "--a=1=2".into()],
        vec!["cmd".into(), "\u{0}".into()],
    ] {
        let _ = Args::parse(argv);
    }
}
