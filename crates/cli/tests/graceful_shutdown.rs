//! Graceful-shutdown durability, driven through the real binary: a
//! `multi --wal` run stopped mid-stream by the `shutdown-after-appends`
//! failpoint (exit 43, after drain + final snapshot) must `--resume` to
//! stdout byte-identical with an uninterrupted run — and a `serve`
//! process asked to shut down over the wire must exit 0 with its WAL
//! in a reopenable state.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use swsample_server::Client;

const BIN: &str = env!("CARGO_BIN_EXE_swsample");

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "swsample-cli-shutdown-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn multi_args(wal: &std::path::Path) -> Vec<String> {
    let mut args: Vec<String> = "multi --keys 40 --count 3000 --window seq --n 16 --k 3 --seed 9"
        .split_whitespace()
        .map(String::from)
        .collect();
    args.push("--wal".into());
    args.push(wal.to_string_lossy().into_owned());
    args
}

#[test]
fn failpoint_shutdown_resumes_byte_identical() {
    // Uninterrupted reference run.
    let ref_dir = temp_dir("reference");
    let reference = Command::new(BIN)
        .args(multi_args(&ref_dir))
        .env_remove("SWSAMPLE_FAILPOINT")
        .output()
        .expect("reference run");
    assert!(reference.status.success(), "reference run failed");

    // Interrupted run: graceful shutdown after 3 applied batches.
    let dir = temp_dir("interrupted");
    let interrupted = Command::new(BIN)
        .args(multi_args(&dir))
        .env("SWSAMPLE_FAILPOINT", "shutdown-after-appends=3")
        .output()
        .expect("interrupted run");
    assert_eq!(
        interrupted.status.code(),
        Some(43),
        "shutdown failpoint must exit 43, stderr: {}",
        String::from_utf8_lossy(&interrupted.stderr)
    );
    // Graceful: a snapshot covering everything applied exists.
    let snaps = std::fs::read_dir(&dir)
        .expect("wal dir")
        .filter(|e| {
            e.as_ref()
                .expect("dir entry")
                .path()
                .extension()
                .is_some_and(|x| x == "snap")
        })
        .count();
    assert!(snaps > 0, "graceful shutdown must leave a snapshot");

    // Resume without the failpoint: byte-identical stdout.
    let mut args = multi_args(&dir);
    args.push("--resume".into());
    let resumed = Command::new(BIN)
        .args(args)
        .env_remove("SWSAMPLE_FAILPOINT")
        .output()
        .expect("resumed run");
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

fn snap_count(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir)
        .expect("wal dir")
        .filter(|e| {
            e.as_ref()
                .expect("dir entry")
                .path()
                .extension()
                .is_some_and(|x| x == "snap")
        })
        .count()
}

/// A crashed run's directory in snapshot format v1 (see
/// `crates/durable/tests/compat.rs` for how it was made) resumes under
/// the current format to stdout byte-identical with an uninterrupted
/// run, and leaves at most two snapshots behind.
#[test]
fn v1_fixture_resumes_byte_identical() {
    let args: Vec<&str> =
        "multi --keys 20 --count 3000 --window seq --n 16 --k 3 --seed 9 --batch-size 256 --show 5"
            .split_whitespace()
            .collect();
    let reference = Command::new(BIN)
        .args(&args)
        .env_remove("SWSAMPLE_FAILPOINT")
        .output()
        .expect("reference run");
    assert!(reference.status.success(), "reference run failed");

    let dir = temp_dir("v1");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../durable/tests/fixtures/v1-seq-wr");
    for entry in std::fs::read_dir(fixture).expect("fixture dir") {
        let path = entry.expect("entry").path();
        std::fs::copy(&path, dir.join(path.file_name().expect("name"))).expect("copy");
    }
    let resumed = Command::new(BIN)
        .args(&args)
        .arg("--wal")
        .arg(&dir)
        .arg("--resume")
        .env_remove("SWSAMPLE_FAILPOINT")
        .output()
        .expect("resumed run");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(resumed.status.success(), "resume failed: {stderr}");
    assert!(stderr.contains("# resume: 7 batches"), "stderr: {stderr}");
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&reference.stdout),
        "resumed v1 directory diverged from the uninterrupted run"
    );
    assert!(snap_count(&dir) <= 2, "old snapshots were not pruned");
    let _ = std::fs::remove_dir_all(dir);
}

/// The CI smoke, in-repo: `serve` on an ephemeral port, `loadgen`
/// verifying across the wire and rendering `multi`'s stdout, the
/// server exiting 0 on the wire-level SHUTDOWN.
#[test]
fn serve_loadgen_round_trip_matches_multi() {
    let workload = "--keys 50 --count 5000";
    let spec = "--window seq --n 20 --k 2 --seed 3";

    let multi = Command::new(BIN)
        .args(
            format!("multi {workload} {spec}")
                .split_whitespace()
                .collect::<Vec<_>>(),
        )
        .output()
        .expect("multi run");
    assert!(multi.status.success(), "multi failed");

    let wal = temp_dir("serve");
    let mut serve = Command::new(BIN)
        .args(
            format!("serve --addr 127.0.0.1:0 {spec} --wal {}", wal.display())
                .split_whitespace()
                .collect::<Vec<_>>(),
        )
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawn");
    let mut serve_err = BufReader::new(serve.stderr.take().expect("serve stderr"));
    let mut line = String::new();
    serve_err.read_line(&mut line).expect("listening line");
    let addr = line
        .trim()
        .strip_prefix("# listening on ")
        .unwrap_or_else(|| panic!("unexpected first stderr line: {line:?}"))
        .to_string();

    let loadgen = Command::new(BIN)
        .args(
            format!("loadgen --addr {addr} {workload} --verify --render-multi --shutdown-server")
                .split_whitespace()
                .collect::<Vec<_>>(),
        )
        .output()
        .expect("loadgen run");
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
        std::fs::read_dir(&wal).expect("wal dir").any(|e| e
            .expect("entry")
            .path()
            .extension()
            .is_some_and(|x| x == "snap")),
        "serve shutdown must leave a snapshot"
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
    let mut serve = Command::new(BIN)
        .args("serve --addr 127.0.0.1:0 --window seq --n 20 --k 2 --seed 3".split_whitespace())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawn");
    let mut serve_err = BufReader::new(serve.stderr.take().expect("serve stderr"));
    let mut line = String::new();
    serve_err.read_line(&mut line).expect("listening line");
    let addr = line
        .trim()
        .strip_prefix("# listening on ")
        .unwrap_or_else(|| panic!("unexpected first stderr line: {line:?}"))
        .to_string();
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
        client.ingest_retry(seq, &batch).expect("ingest");
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
