//! Chaos harness: the server and load generator under seeded,
//! deterministic fault schedules — dropped connections mid-frame,
//! stalled and corrupted replies, transient WAL errors — asserting the
//! system degrades *gracefully*: no event lost, no event double-applied
//! (the `--verify` offline oracle plus exact `events_applied`
//! accounting), no thread panics, and every casualty showing up in the
//! right STATS counter.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use swsample_core::fault::{FaultSchedule, FaultSite};
use swsample_core::spec::SamplerSpec;
use swsample_durable::frame::write_frame;
use swsample_server::loadgen::{self, LoadgenConfig};
use swsample_server::protocol::{read_server_msg, ClientMsg, ReadOutcome, SubscribeKind};
use swsample_server::{Client, Server, ServerConfig, ServerMsg, PROTOCOL_VERSION};

fn template() -> SamplerSpec {
    "--window seq --n 64 --mode wr --algo paper --k 4 --seed 7"
        .parse()
        .expect("template spec")
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "swsample-server-chaos-{tag}-{}-{n}",
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

/// The capstone, for each of the four paper templates (seq/ts ×
/// WR/WOR): a WAL-backed server under every fault site at once —
/// connections dropped mid-frame in both directions, reads stalled,
/// reply bytes flipped, transient WAL append errors — driven by a
/// loadgen that must reconnect and resend. Exactly-once end to end:
/// the offline oracle byte-matches every touched key and the applied
/// event count equals the driven count exactly (dedup absorbed every
/// resend of an already-applied batch).
#[test]
fn chaos_schedule_degrades_gracefully_and_loses_nothing() {
    let faults: FaultSchedule =
        "seed=16,drop-rx=1/61,drop-tx=1/53,stall-rx=1/37:3ms,flip-tx=1/71,wal-append=1/23"
            .parse()
            .expect("fault schedule");
    // The schedule is deterministic: make sure every site actually
    // fires within the op volume this workload generates, so the
    // assertions below are meaningful (and stable) for this seed.
    for (site, ops) in [
        (FaultSite::DropRx, 60),
        (FaultSite::DropTx, 60),
        (FaultSite::StallRx, 60),
        (FaultSite::FlipTx, 60),
        (FaultSite::WalAppend, 60),
    ] {
        assert!(
            faults.first_hit(site, ops).is_some(),
            "{site:?} never fires in {ops} ops — pick a denser rule"
        );
    }

    let seq_wr = template().to_string();
    for spec in [
        seq_wr.as_str(),
        "--window seq --n 64 --mode wor --algo paper --k 4 --seed 7",
        "--window ts --w 64 --mode wr --algo paper --k 4 --seed 7",
        "--window ts --w 64 --mode wor --algo paper --k 4 --seed 7",
    ] {
        let dir = temp_dir("mixed");
        let mut cfg = ServerConfig::new(spec.parse().expect("template spec"));
        cfg.faults = faults.clone();
        cfg.wal_dir = Some(dir.clone());
        // A small queue plus a drain delay so BUSY storms happen
        // *under* the fault schedule too.
        cfg.queue_max_events = 600;
        cfg.drain_delay = Duration::from_millis(1);
        cfg.read_deadline = Duration::from_secs(5);
        cfg.write_deadline = Duration::from_secs(5);
        let server = start(cfg);
        let addr = server.local_addr().to_string();

        let mut lg = LoadgenConfig::new(&addr);
        lg.connections = 4;
        lg.keys = 60;
        lg.count = 12_000;
        lg.batch = 128;
        lg.verify = true;
        lg.io_timeout = Duration::from_secs(2);
        let mut out = Vec::new();
        let report = loadgen::run(&lg, &mut out)
            .unwrap_or_else(|e| panic!("{spec}: chaos loadgen must survive the schedule: {e}"));

        assert_eq!(report.events_sent, 12_000, "{spec}");
        assert!(
            report.verified_keys > 0,
            "{spec}: the offline oracle must compare at least one key"
        );
        assert!(
            report.reconnects > 0,
            "{spec}: drop faults at 1/53–1/61 must kill at least one connection"
        );

        let stats = server.shutdown();
        assert_eq!(
            stats.global.events_applied, 12_000,
            "{spec}: exactly-once: every driven event applied, no resend double-applied"
        );
        assert!(
            stats.global.faults_injected > 0,
            "{spec}: the schedule verified above must have fired"
        );
        assert!(
            stats.global.wal_retries > 0,
            "{spec}: wal-append at 1/23 must have been ridden out at least once"
        );
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A connection dying mid-INGEST frame: the server discards the torn
/// partial batch, counts it, and the next connection is unaffected —
/// a fresh verified loadgen run still byte-matches the offline oracle.
#[test]
fn death_mid_frame_discards_the_partial_batch() {
    let server = start(ServerConfig::new(template()));
    let addr = server.local_addr().to_string();

    // Raw socket: complete the handshake, then send *half* an INGEST
    // frame and vanish.
    let stream = TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream.try_clone().expect("clone");
    let hello = ClientMsg::Hello {
        version: PROTOCOL_VERSION,
        name: "torn".into(),
        session: 0,
    };
    write_frame(&mut writer, &hello.encode()).expect("hello frame");
    let mut offset = 0u64;
    match read_server_msg(&mut reader, &mut offset).expect("hello ack") {
        ReadOutcome::Msg(ServerMsg::HelloAck { .. }) => {}
        other => panic!("expected HELLO_ACK, got {other:?}"),
    }
    let batch: Vec<(u64, u64, u64)> = (0..64u64).map(|i| (9, i / 64, i)).collect();
    let mut frame = Vec::new();
    write_frame(&mut frame, &ClientMsg::Ingest { seq: 0, batch }.encode()).expect("ingest frame");
    writer
        .write_all(&frame[..frame.len() / 2])
        .expect("half a frame");
    writer.flush().expect("flush");
    drop((reader, writer, stream)); // EOF mid-frame.

    // The casualty is counted and nothing from the torn batch applied.
    let mut observer = Client::connect(&addr, "observer").expect("observer");
    let mut partial = 0u64;
    for _ in 0..200 {
        let stats = observer.stats().expect("stats");
        partial = stats.global.partial_frames;
        if partial > 0 {
            assert_eq!(stats.global.events_applied, 0, "torn batch must not apply");
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(partial, 1, "the torn frame must be counted exactly once");
    observer.bye().expect("bye");

    // The next traffic is unaffected: full verified run, exact counts.
    let mut lg = LoadgenConfig::new(&addr);
    lg.keys = 20;
    lg.count = 2_000;
    lg.batch = 128;
    lg.verify = true;
    let report = loadgen::run(&lg, &mut Vec::new()).expect("post-torn loadgen");
    assert!(report.verified_keys > 0);
    let stats = server.shutdown();
    assert_eq!(stats.global.events_applied, 2_000);
}

/// A peer that stalls *mid-frame* (half a frame sent, then silence) is
/// severed at the read deadline and counted in `deadline_drops` —
/// distinct from an idle peer at a frame boundary, which is legal.
#[test]
fn stalling_mid_frame_hits_the_read_deadline() {
    let mut cfg = ServerConfig::new(template());
    cfg.read_deadline = Duration::from_millis(50);
    cfg.idle_timeout = Duration::ZERO; // isolate the deadline path
    let server = start(cfg);
    let addr = server.local_addr().to_string();

    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream.try_clone().expect("clone");
    let hello = ClientMsg::Hello {
        version: PROTOCOL_VERSION,
        name: "staller".into(),
        session: 0,
    };
    write_frame(&mut writer, &hello.encode()).expect("hello frame");
    let mut offset = 0u64;
    assert!(matches!(
        read_server_msg(&mut reader, &mut offset).expect("hello ack"),
        ReadOutcome::Msg(ServerMsg::HelloAck { .. })
    ));
    let batch: Vec<(u64, u64, u64)> = (0..64u64).map(|i| (5, i / 64, i)).collect();
    let mut frame = Vec::new();
    write_frame(&mut frame, &ClientMsg::Ingest { seq: 0, batch }.encode()).expect("ingest frame");
    writer
        .write_all(&frame[..frame.len() / 2])
        .expect("half a frame");
    writer.flush().expect("flush");
    // ... and just hold the socket open, silent.

    let mut observer = Client::connect(&addr, "observer").expect("observer");
    let mut drops = 0u64;
    for _ in 0..400 {
        drops = observer.stats().expect("stats").global.deadline_drops;
        if drops > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        drops, 1,
        "the mid-frame staller must be severed exactly once"
    );
    drop((reader, writer, stream));
    drop(server.shutdown());
}

/// Idle connections (at a frame *boundary*) are reaped by the scheduler
/// once they sit past `idle_timeout`; an active observer is spared.
#[test]
fn idle_connections_are_reaped_on_scheduler_ticks() {
    let mut cfg = ServerConfig::new(template());
    cfg.tick = Duration::from_millis(10);
    cfg.idle_timeout = Duration::from_millis(80);
    let server = start(cfg);
    let addr = server.local_addr().to_string();

    let mut idler = Client::connect(&addr, "idler").expect("idler");
    let mut observer = Client::connect(&addr, "observer").expect("observer");
    let mut reaped = 0u64;
    for _ in 0..400 {
        // Observer traffic keeps *its* connection alive; the idler
        // never speaks again after HELLO.
        reaped = observer.stats().expect("stats").global.idle_reaped;
        if reaped > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(reaped, 1, "exactly the idler must be reaped");
    let dead = idler.query(1).is_err();
    assert!(dead, "the reaped connection must be unusable");
    let stats = observer.stats().expect("observer still fine");
    assert_eq!(stats.global.connections_open, 1);
    drop(server.shutdown());
}

/// Past `--max-conns` the server answers with a typed OVERLOAD error
/// (not a silent RST) and counts the rejection; capacity frees when a
/// connection leaves.
#[test]
fn connection_cap_rejects_with_typed_overload() {
    let mut cfg = ServerConfig::new(template());
    cfg.max_conns = 2;
    let server = start(cfg);
    let addr = server.local_addr().to_string();

    let a = Client::connect(&addr, "a").expect("conn a");
    let mut b = Client::connect(&addr, "b").expect("conn b");
    let err = match Client::connect(&addr, "c") {
        Ok(_) => panic!("third connection must be rejected"),
        Err(e) => e,
    };
    assert!(
        err.to_string().contains("Overload"),
        "rejection must carry the typed OVERLOAD code, got: {err}"
    );
    let stats = b.stats().expect("stats");
    assert_eq!(stats.global.conns_rejected, 1);
    assert_eq!(stats.global.connections_open, 2);

    // Freeing a slot re-admits.
    a.bye().expect("bye a");
    let mut ok = None;
    for _ in 0..200 {
        match Client::connect(&addr, "c-again") {
            Ok(c) => {
                ok = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    ok.expect("a freed slot must re-admit").bye().expect("bye");
    drop(server.shutdown());
}

/// A subscriber that never drains and blows through the configured
/// drop budget is disconnected (and counted) rather than shedding
/// pushes forever.
#[test]
fn slow_consumers_are_disconnected_past_the_budget() {
    let mut cfg = ServerConfig::new(template());
    cfg.tick = Duration::from_millis(1);
    cfg.ring_capacity = 2;
    cfg.slow_consumer_budget = 50;
    let server = start(cfg);
    let addr = server.local_addr().to_string();

    let mut slowpoke = Client::connect(&addr, "slowpoke").expect("connect");
    let batch: Vec<(u64, u64, u64)> = (0..64u64).map(|i| (3, i / 64, i)).collect();
    slowpoke.ingest(0, &batch).expect("ingest");
    for _ in 0..300 {
        // At 1ms ticks the drop budget can trip while we're still
        // piling on subscriptions — the disconnect killing this very
        // loop is the behavior under test, not a failure.
        if slowpoke
            .subscribe(SubscribeKind::Aggregate, 3, 1, 0)
            .is_err()
        {
            break;
        }
    }
    // Never read a push; the ring sheds until the budget trips.
    let mut observer = Client::connect(&addr, "observer").expect("observer");
    let mut cut = 0u64;
    for _ in 0..400 {
        cut = observer.stats().expect("stats").global.slow_disconnects;
        if cut > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        cut, 1,
        "the slow consumer must be disconnected exactly once"
    );
    drop(server.shutdown());
}
