//! End-to-end server tests over real sockets on an ephemeral port:
//! determinism across the wire, bounded-queue backpressure, continuous
//! queries, stats, and durable graceful shutdown.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use swsample_core::spec::SamplerSpec;
use swsample_durable::{DurableEngine, DurableOptions};
use swsample_server::loadgen::{self, LoadgenConfig};
use swsample_server::protocol::SubscribeKind;
use swsample_server::{Client, IngestOutcome, Server, ServerConfig, ServerMsg};

fn template() -> SamplerSpec {
    "--window seq --n 64 --mode wr --algo paper --k 4 --seed 7"
        .parse()
        .expect("template spec")
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "swsample-server-e2e-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn start(mut cfg: ServerConfig) -> Server {
    cfg.addr = "127.0.0.1:0".into();
    Server::start(cfg).expect("server start")
}

/// The tentpole acceptance: the server's answers are byte-identical to
/// an offline engine at thread counts {1, 2, 8}, with and without a
/// WAL. The loadgen's `verify` mode replays the exact per-connection
/// batches offline and compares every touched key.
#[test]
fn answers_are_deterministic_across_the_wire() {
    for (threads, wal) in [
        (1usize, false),
        (2, false),
        (8, true),
        (2, true),
        (8, false),
    ] {
        let mut cfg = ServerConfig::new(template());
        cfg.threads = threads;
        let wal_dir = wal.then(|| temp_dir("determinism"));
        cfg.wal_dir = wal_dir.clone();
        let server = start(cfg);
        let addr = server.local_addr().to_string();

        let mut lg = LoadgenConfig::new(&addr);
        lg.connections = 3;
        lg.keys = 50;
        lg.count = 5_000;
        lg.batch = 256;
        lg.verify = true;
        let mut out = Vec::new();
        let report = loadgen::run(&lg, &mut out)
            .unwrap_or_else(|e| panic!("threads={threads} wal={wal}: {e}"));
        assert_eq!(report.events_sent, 5_000);
        assert!(
            report.verified_keys > 0,
            "verification must touch at least one key"
        );

        let stats = server.shutdown();
        assert_eq!(
            stats.global.events_applied, 5_000,
            "threads={threads} wal={wal}"
        );
        if let Some(dir) = wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Backpressure: with a tiny queue and a slowed ingest loop, the
/// high-watermark never exceeds the bound, clients observe `BUSY`, and
/// retries deliver every event — nothing is silently dropped.
#[test]
fn backpressure_bounds_the_queue_without_losing_events() {
    // 100 events: one 64-event batch fits, a second concurrent one
    // cannot, so the four synchronous clients must see BUSY.
    let mut cfg = ServerConfig::new(template());
    cfg.queue_max_events = 100;
    cfg.drain_delay = Duration::from_millis(2);
    let server = start(cfg);
    let addr = server.local_addr().to_string();

    let mut lg = LoadgenConfig::new(&addr);
    lg.connections = 4;
    lg.keys = 32;
    lg.count = 20_000;
    lg.batch = 64;
    lg.verify = true;
    let mut out = Vec::new();
    let report = loadgen::run(&lg, &mut out).expect("loadgen");
    assert!(
        report.busy_retries > 0,
        "a 100-event queue drained at 2ms/batch must push back"
    );

    let stats = server.shutdown();
    assert!(
        stats.global.queue_hwm_events <= 100,
        "queue high-watermark {} exceeded the 100-event bound",
        stats.global.queue_hwm_events
    );
    assert!(stats.global.busy_rejections > 0);
    assert_eq!(
        stats.global.events_applied, 20_000,
        "busy-retried events must all land"
    );
}

/// Continuous queries: an aggregate subscription receives pushes with
/// plausible count/sum on scheduler ticks.
#[test]
fn subscriptions_push_aggregates() {
    let mut cfg = ServerConfig::new(template());
    cfg.tick = Duration::from_millis(5);
    let server = start(cfg);
    let addr = server.local_addr().to_string();

    let mut client = Client::connect(&addr, "subscriber").expect("connect");
    let batch: Vec<(u64, u64, u64)> = (0..100u64).map(|i| (7, i / 64, i)).collect();
    match client.ingest(0, &batch).expect("ingest") {
        IngestOutcome::Applied(n) => assert_eq!(n, 100),
        IngestOutcome::Busy(_) => panic!("empty server rejected a batch"),
    }
    let sub = client
        .subscribe(SubscribeKind::Aggregate, 7, 1, 0)
        .expect("subscribe");
    match client.recv_push().expect("push") {
        ServerMsg::Push {
            id,
            key,
            count,
            sum,
            ..
        } => {
            assert_eq!(id, sub);
            assert_eq!(key, 7);
            assert_eq!(count, 4, "paper k=4 keeps exactly k samples");
            assert!(sum > 0, "samples of value 7 must sum positive");
        }
        other => panic!("expected PUSH, got {other:?}"),
    }

    // Threshold alerts: a bar above any possible sum stays silent; the
    // next push for the zero-threshold sub still arrives, proving the
    // scheduler kept ticking.
    let silent = client
        .subscribe(SubscribeKind::Threshold, 7, 1, u64::MAX)
        .expect("subscribe threshold");
    let push = client.recv_push().expect("second push");
    match push {
        ServerMsg::Push { id, .. } => assert_ne!(id, silent, "threshold sub must stay silent"),
        other => panic!("expected PUSH, got {other:?}"),
    }

    let stats = server.shutdown();
    assert!(stats.global.ticks > 0);
}

/// A slow subscriber's ring drops oldest pushes (never replies) and the
/// drops are counted in STATS.
#[test]
fn slow_subscribers_drop_oldest_pushes() {
    let mut cfg = ServerConfig::new(template());
    cfg.tick = Duration::from_millis(1);
    cfg.ring_capacity = 2;
    let server = start(cfg);
    let addr = server.local_addr().to_string();

    let mut client = Client::connect(&addr, "slowpoke").expect("connect");
    let batch: Vec<(u64, u64, u64)> = (0..64u64).map(|i| (3, i / 64, i)).collect();
    client.ingest(0, &batch).expect("ingest");
    // Hundreds of standing queries: every tick the scheduler bursts
    // that many pushes into the 2-slot ring far faster than the writer
    // thread can sink them, so drop-oldest must engage regardless of
    // how much the kernel socket buffer absorbs.
    for _ in 0..300 {
        client
            .subscribe(SubscribeKind::Aggregate, 3, 1, 0)
            .expect("subscribe");
    }
    // Don't read: drops accumulate, observed via a *second*
    // connection's STATS.
    let mut observer = Client::connect(&addr, "observer").expect("connect observer");
    let mut drops = 0u64;
    for _ in 0..200 {
        std::thread::sleep(Duration::from_millis(5));
        let stats = observer.stats().expect("stats");
        drops = stats.global.subscriber_drops;
        if drops > 0 {
            break;
        }
    }
    assert!(drops > 0, "a 2-slot ring at 1ms ticks must shed pushes");

    // The slow client is wedged behind buffered pushes but its
    // connection still works: drain pushes until the reply comes back.
    let stats = client.stats().expect("stats after backlog");
    assert!(stats.global.subscriber_drops >= drops);
    drop(server.shutdown());
}

/// STATS reports per-connection rows for every open connection.
#[test]
fn stats_report_per_connection_counters() {
    let server = start(ServerConfig::new(template()));
    let addr = server.local_addr().to_string();

    let mut a = Client::connect(&addr, "conn-a").expect("connect a");
    let mut b = Client::connect(&addr, "conn-b").expect("connect b");
    let batch: Vec<(u64, u64, u64)> = (0..10u64).map(|i| (i, 0, i)).collect();
    a.ingest(0, &batch).expect("ingest a");
    let stats = b.stats().expect("stats");
    assert_eq!(stats.conns.len(), 2);
    let row_a = stats
        .conns
        .iter()
        .find(|c| c.conn_id == a.conn_id())
        .expect("conn a row");
    assert_eq!(row_a.events_in, 10);
    assert_eq!(row_a.batches_in, 1);
    assert_eq!(stats.global.connections_total, 2);
    assert_eq!(stats.global.connections_open, 2);
    drop(server.shutdown());
}

/// Durable graceful shutdown: after `shutdown()` drains and snapshots,
/// a fresh offline `DurableEngine` opened on the same directory answers
/// the same samples the live server did.
#[test]
fn durable_shutdown_resumes_byte_identical() {
    let dir = temp_dir("durable-shutdown");
    let mut cfg = ServerConfig::new(template());
    cfg.wal_dir = Some(dir.clone());
    let server = start(cfg);
    let addr = server.local_addr().to_string();

    let mut lg = LoadgenConfig::new(&addr);
    lg.connections = 2;
    lg.keys = 40;
    lg.count = 3_000;
    lg.batch = 128;
    let mut out = Vec::new();
    loadgen::run(&lg, &mut out).expect("loadgen");

    type Answer = Option<Vec<(u64, u64, u64)>>;
    let mut client = Client::connect(&addr, "pre-shutdown").expect("connect");
    let live: Vec<(u64, Answer)> = (0..40u64)
        .map(|key| (key, client.query(key).expect("query")))
        .collect();
    client.bye().expect("bye");
    drop(server.shutdown());

    let offline: DurableEngine<u64, u64> =
        DurableEngine::open(&dir, DurableOptions::default()).expect("reopen WAL dir");
    for (key, expect) in live {
        let got: Option<Vec<(u64, u64, u64)>> = offline.engine().sample_k(&key).map(|samples| {
            samples
                .iter()
                .map(|s| (*s.value(), s.index(), s.timestamp()))
                .collect()
        });
        assert_eq!(got, expect, "key {key} diverged after durable shutdown");
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// The SHUTDOWN opcode flips the server's shutdown flag so an embedding
/// loop (the CLI `serve` command) can tear down.
#[test]
fn shutdown_opcode_raises_the_flag() {
    let server = start(ServerConfig::new(template()));
    let addr = server.local_addr().to_string();
    assert!(!server.shutdown_requested());
    let mut client = Client::connect(&addr, "terminator").expect("connect");
    client.shutdown_server().expect("shutdown opcode");
    for _ in 0..100 {
        if server.shutdown_requested() {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(server.shutdown_requested());
    let stats = server.shutdown();
    assert_eq!(stats.global.connections_total, 1);
}

/// The acceptor blocks in `accept`; `shutdown()` must still return
/// promptly on a server bound to the unspecified address, both with no
/// client ever connecting and after a client's `SHUTDOWN` frame.
#[test]
fn shutdown_returns_on_unspecified_address() {
    for send_shutdown_frame in [false, true] {
        let mut cfg = ServerConfig::new(template());
        cfg.addr = "0.0.0.0:0".into();
        let server = Server::start(cfg).expect("server start");
        let port = server.local_addr().port();
        if send_shutdown_frame {
            let mut client =
                Client::connect(&format!("127.0.0.1:{port}"), "terminator").expect("connect");
            client.shutdown_server().expect("shutdown opcode");
            assert!(server.wait_shutdown_requested(Duration::from_secs(10)));
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let waiter = std::thread::spawn(move || tx.send(server.shutdown()).expect("report stats"));
        let stats = rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| {
                panic!("shutdown hung (SHUTDOWN frame sent: {send_shutdown_frame})")
            });
        waiter.join().expect("shutdown thread");
        assert_eq!(
            stats.global.connections_total,
            u64::from(send_shutdown_frame),
            "the wake-up connection is never served"
        );
    }
}
