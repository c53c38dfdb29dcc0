//! Graceful-shutdown and crash durability, driven through the real
//! binary: a `multi --wal` run stopped mid-stream by the `shutdown`
//! fault (exit 43, after drain + final snapshot) must `--resume` to
//! stdout byte-identical with an uninterrupted run; a `serve` process
//! asked to shut down over the wire must exit 0 with its WAL in a
//! reopenable state; and a `serve` process crashed by the `kill` fault
//! must restart on its WAL answering exactly what it logged.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use swsample_core::SamplerSpec;
use swsample_server::{Client, IngestOutcome};
use swsample_stream::MultiStreamEngine;

const BIN: &str = env!("CARGO_BIN_EXE_swsample");

fn temp_dir(tag: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "swsample-cli-shutdown-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn multi_cmd(wal: &Path) -> String {
    format!(
        "multi --keys 40 --count 3000 --window seq --n 16 --k 3 --seed 9 --wal {}",
        wal.display()
    )
}

/// Run `swsample <cmdline>` (split on whitespace) to completion under
/// the fault schedule `faults` (`""` injects nothing).
fn run(cmdline: &str, faults: &str) -> Output {
    Command::new(BIN)
        .args(cmdline.split_whitespace())
        .env("SWSAMPLE_FAULTS", faults)
        .output()
        .expect("run swsample")
}

#[test]
fn failpoint_shutdown_resumes_byte_identical() {
    // Uninterrupted reference run.
    let ref_dir = temp_dir("reference");
    let reference = run(&multi_cmd(&ref_dir), "");
    assert!(reference.status.success(), "reference run failed");

    // Interrupted run: graceful shutdown after 3 applied batches.
    let dir = temp_dir("interrupted");
    let interrupted = run(&multi_cmd(&dir), "shutdown=@3");
    assert_eq!(
        interrupted.status.code(),
        Some(43),
        "shutdown fault must exit 43, stderr: {}",
        String::from_utf8_lossy(&interrupted.stderr)
    );
    // Graceful: a snapshot covering all three applied batches exists.
    assert_eq!(newest_snapshot_seq(&dir), 3, "shutdown must snapshot");

    // Resume without the fault: byte-identical stdout.
    let resumed = run(&format!("{} --resume", multi_cmd(&dir)), "");
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&reference.stdout),
        "resumed stdout diverged from the uninterrupted run"
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("# resume:"),
        "resume must report recovered batches, stderr: {stderr}"
    );

    let _ = std::fs::remove_dir_all(ref_dir);
    let _ = std::fs::remove_dir_all(dir);
}

fn snapshots(dir: &Path) -> Vec<(u64, PathBuf)> {
    swsample_durable::snapshot::list_snapshots(dir).expect("wal dir")
}

/// The WAL position the newest snapshot in `dir` covers.
fn newest_snapshot_seq(dir: &Path) -> u64 {
    snapshots(dir).last().expect("a snapshot").0
}

/// A crashed run's directory in snapshot format v1 (see
/// `crates/durable/tests/compat.rs` for how it was made) resumes under
/// the current format to stdout byte-identical with an uninterrupted
/// run, and leaves at most two snapshots behind.
#[test]
fn v1_fixture_resumes_byte_identical() {
    let cmd =
        "multi --keys 20 --count 3000 --window seq --n 16 --k 3 --seed 9 --batch-size 256 --show 5";
    let reference = run(cmd, "");
    assert!(reference.status.success(), "reference run failed");

    let dir = temp_dir("v1");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("../durable/tests/fixtures/v1-seq-wr");
    for entry in std::fs::read_dir(fixture).expect("fixture dir") {
        let path = entry.expect("entry").path();
        std::fs::copy(&path, dir.join(path.file_name().expect("name"))).expect("copy");
    }
    let resumed = run(&format!("{cmd} --wal {} --resume", dir.display()), "");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(resumed.status.success(), "resume failed: {stderr}");
    assert!(stderr.contains("# resume: 7 batches"), "stderr: {stderr}");
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&reference.stdout),
        "resumed v1 directory diverged from the uninterrupted run"
    );
    assert!(snapshots(&dir).len() <= 2, "old snapshots were not pruned");
    let _ = std::fs::remove_dir_all(dir);
}

/// `--resume` under a template other than the one the directory
/// recorded is refused, naming both, instead of printing the recorded
/// template's samples under the new flags. Shard and thread overrides
/// stay allowed.
#[test]
fn resume_refuses_a_different_template() {
    let workload = "multi --keys 20 --count 3000 --batch-size 256 --show 3";
    let dir = temp_dir("template");
    let wal = format!("--wal {}", dir.display());
    let first = run(
        &format!("{workload} --window seq --n 16 --k 3 --seed 9 {wal}"),
        "",
    );
    assert!(first.status.success(), "first run failed");

    let resumed = run(
        &format!("{workload} --window seq --n 40 --k 5 --seed 9 {wal} --resume"),
        "",
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(!resumed.status.success(), "mismatched resume exited 0");
    assert!(
        resumed.stdout.is_empty(),
        "mismatched resume printed samples"
    );
    assert!(
        stderr.contains("--n 16") && stderr.contains("--n 40") && stderr.contains("--k 5"),
        "the error must name both templates: {stderr}"
    );

    let rescaled = run(
        &format!(
            "{workload} --window seq --n 16 --k 3 --seed 9 {wal} --resume --shards 4 --threads 2"
        ),
        "",
    );
    assert!(
        rescaled.status.success(),
        "same-template rescale refused: {}",
        String::from_utf8_lossy(&rescaled.stderr)
    );
    // Same samples; only the `# keys:` line's shard count moves.
    let samples = |out: &Output| -> Vec<String> {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.starts_with("# keys:"))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(samples(&rescaled), samples(&first));
    let _ = std::fs::remove_dir_all(dir);
}

/// Spawn `serve --addr 127.0.0.1:0 <args>`; returns the child, its
/// address and the rest of its stderr. Only the `# faults:` echo of a
/// fault schedule may precede the `# listening on HOST:PORT` line.
fn spawn_serve(args: &str) -> (Child, String, BufReader<ChildStderr>) {
    let mut serve = Command::new(BIN)
        .args(format!("serve --addr 127.0.0.1:0 {args}").split_whitespace())
        .env_remove("SWSAMPLE_FAULTS")
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawn");
    let mut serve_err = BufReader::new(serve.stderr.take().expect("serve stderr"));
    let mut line = String::new();
    while line.is_empty() || line.starts_with("# faults: ") {
        line.clear();
        serve_err.read_line(&mut line).expect("listening line");
    }
    let addr = line
        .trim()
        .strip_prefix("# listening on ")
        .unwrap_or_else(|| panic!("unexpected stderr line: {line:?}"))
        .to_string();
    (serve, addr, serve_err)
}

/// The CI smoke, in-repo: `serve` on an ephemeral port, `loadgen`
/// verifying across the wire and rendering `multi`'s stdout, the
/// server exiting 0 on the wire-level SHUTDOWN.
#[test]
fn serve_loadgen_round_trip_matches_multi() {
    let workload = "--keys 50 --count 5000";
    let spec = "--window seq --n 20 --k 2 --seed 3";

    let multi = run(&format!("multi {workload} {spec}"), "");
    assert!(multi.status.success(), "multi failed");

    let wal = temp_dir("serve");
    let (mut serve, addr, _serve_err) = spawn_serve(&format!("{spec} --wal {}", wal.display()));

    let loadgen = run(
        &format!("loadgen --addr {addr} {workload} --verify --render-multi --shutdown-server"),
        "",
    );
    assert!(
        loadgen.status.success(),
        "loadgen failed: {}",
        String::from_utf8_lossy(&loadgen.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&loadgen.stdout),
        String::from_utf8_lossy(&multi.stdout),
        "server answers diverged from the offline `multi` run"
    );

    let status = serve.wait().expect("serve exit");
    assert!(status.success(), "serve must exit 0 after SHUTDOWN");
    assert!(
        newest_snapshot_seq(&wal) > 0,
        "serve shutdown must leave a final snapshot"
    );
    let _ = std::fs::remove_dir_all(wal);
}

/// The `# server:` shutdown line's `elems_per_sec` counts only the span
/// from the first to the last applied batch. Every batch is applied
/// between the client's first send and its last ack, so the reported
/// rate can be no lower than the client-side rate — however long the
/// server sat idle before the traffic came.
#[test]
fn shutdown_rate_excludes_idle_time() {
    let (mut serve, addr, mut serve_err) = spawn_serve("--window seq --n 20 --k 2 --seed 3");
    let mut client = Client::connect(&addr, "rate-test").expect("connect");
    // Idle time that a lifetime-based rate would divide by.
    std::thread::sleep(Duration::from_millis(1000));
    let batches = 20u64;
    let per_batch = 500u64;
    let sent = Instant::now();
    for seq in 0..batches {
        let batch: Vec<(u64, u64, u64)> = (0..per_batch)
            .map(|i| {
                let e = seq * per_batch + i;
                (e % 37, e, e)
            })
            .collect();
        assert_eq!(
            client.ingest(seq, &batch).expect("ingest"),
            IngestOutcome::Applied(per_batch)
        );
    }
    let client_span = sent.elapsed().as_secs_f64();
    client.shutdown_server().expect("shutdown");
    let mut rest = String::new();
    serve_err.read_to_string(&mut rest).expect("stderr");
    assert!(serve.wait().expect("serve exit").success());
    let metrics = rest
        .lines()
        .find(|l| l.starts_with("# server:"))
        .unwrap_or_else(|| panic!("no metrics line in {rest:?}"));
    assert!(metrics.contains(&format!(" applied={} ", batches * per_batch)));
    let reported: f64 = metrics
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("elems_per_sec="))
        .expect("elems_per_sec field")
        .parse()
        .expect("numeric rate");
    let client_rate = (batches * per_batch) as f64 / client_span;
    assert!(
        reported >= client_rate,
        "reported {reported:.0} elems/s is below the client-side {client_rate:.0}: idle time leaked in ({metrics})"
    );
}

/// A served durable fleet crashed by `kill=@3` exits 42 after logging
/// its third batch and before acking it; a restart on the same
/// directory must answer every touched key byte-identically to an
/// offline fleet fed the three logged batches.
#[test]
fn served_kill_restarts_byte_identical() {
    let spec = "--window seq --n 20 --mode wr --algo paper --k 2 --seed 3";
    let batches: Vec<Vec<(u64, u64, u64)>> = (0..3u64)
        .map(|b| {
            (b * 200..(b + 1) * 200)
                .map(|e| (e % 37, e / 4, e))
                .collect()
        })
        .collect();
    let dir = temp_dir("served-kill");

    let (mut serve, addr, _serve_err) =
        spawn_serve(&format!("{spec} --wal {} --faults kill=@3", dir.display()));
    let mut client = Client::connect(&addr, "kill-test").expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    for (seq, batch) in (0..).zip(&batches[..2]) {
        let outcome = client.ingest(seq, batch).expect("ingest");
        assert!(
            matches!(outcome, IngestOutcome::Applied(200)),
            "{outcome:?}"
        );
    }
    assert!(
        client.ingest(2, &batches[2]).is_err(),
        "the killed server must not ack its third batch"
    );
    let status = serve.wait().expect("serve exit");
    assert_eq!(status.code(), Some(42), "kill fault must exit 42");

    let (mut serve, addr, _serve_err) = spawn_serve(&format!("{spec} --wal {}", dir.display()));
    let template: SamplerSpec = spec.parse().expect("spec");
    let mut offline =
        MultiStreamEngine::with_factory(template, 4, swsample_baselines::spec::build::<u64>)
            .expect("offline engine");
    for batch in &batches {
        offline.ingest(batch);
    }
    let mut client = Client::connect(&addr, "restarted").expect("reconnect");
    for key in 0..37u64 {
        let expected: Option<Vec<(u64, u64, u64)>> = offline.sample_k(&key).map(|samples| {
            samples
                .iter()
                .map(|s| (*s.value(), s.index(), s.timestamp()))
                .collect()
        });
        assert!(expected.is_some(), "key {key} was touched");
        assert_eq!(
            client.query(key).expect("query"),
            expected,
            "key {key} diverged after the served crash"
        );
    }
    client.shutdown_server().expect("shutdown");
    assert!(serve.wait().expect("serve exit").success());
    let _ = std::fs::remove_dir_all(dir);
}
