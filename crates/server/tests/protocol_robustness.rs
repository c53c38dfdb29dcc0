//! Adversarial-bytes robustness for the wire protocol: no truncation,
//! bitflip, overlong varint, or oversized length prefix may ever panic
//! or hang the decoder — every failure is a typed [`ProtocolError`]
//! carrying the byte offset of the offending frame. A well-formed batch
//! the fleet cannot apply is answered on its own connection and leaves
//! the server serving.

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use proptest::prelude::*;
use swsample_core::state::StateWriter;
use swsample_durable::batch::encode_batch;
use swsample_durable::frame::{write_frame, FRAME_HEADER_BYTES};
use swsample_durable::{snapshot, DurableEngine, DurableOptions};
use swsample_server::protocol::{
    encode_ingest, read_client_msg, read_server_msg, ClientMsg, ErrorCode, ReadOutcome, ServerMsg,
    SubscribeKind, MAX_MESSAGE_BYTES, PROTOCOL_VERSION,
};
use swsample_server::stats::StatsSnapshot;
use swsample_server::{Client, IngestOutcome, Server, ServerConfig};

/// One representative of every client message.
fn client_corpus() -> Vec<ClientMsg> {
    vec![
        ClientMsg::Hello {
            version: PROTOCOL_VERSION,
            name: "robustness".into(),
            session: 0x0043_4841_4f53_0001,
        },
        ClientMsg::Ingest {
            seq: 3,
            batch: (0..40u64).map(|i| (i % 7, i / 8, i * 13)).collect(),
        },
        ClientMsg::Query { key: 99 },
        ClientMsg::Subscribe {
            kind: SubscribeKind::Aggregate,
            key: 5,
            every_ticks: 2,
            threshold: 0,
        },
        ClientMsg::Stats,
        ClientMsg::Bye,
        ClientMsg::Shutdown,
    ]
}

fn server_corpus() -> Vec<ServerMsg> {
    vec![
        ServerMsg::HelloAck {
            version: PROTOCOL_VERSION,
            conn_id: 4,
            template: "--window seq --n 32 --mode wr --algo paper --k 3 --seed 11".into(),
        },
        ServerMsg::IngestOk { seq: 3, events: 40 },
        ServerMsg::Busy {
            seq: 4,
            queued_events: 1 << 18,
        },
        ServerMsg::Samples {
            key: 99,
            samples: Some(vec![(1, 2, 3), (4, 5, 6), (u64::MAX, 0, u64::MAX)]),
        },
        ServerMsg::SubAck { id: 1 },
        ServerMsg::Push {
            id: 1,
            tick: 10,
            key: 5,
            count: 3,
            sum: 77,
        },
        ServerMsg::StatsReply(StatsSnapshot::default()),
        ServerMsg::Error {
            code: ErrorCode::Malformed,
            offset: 123,
            detail: "x".into(),
        },
        ServerMsg::Bye,
    ]
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, payload).expect("vec write");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `INGEST` frames encoded from a borrowed batch are byte-identical
    /// to the owned message's encoding and to the wire layout built
    /// field by field.
    #[test]
    fn borrowed_ingest_encoding_matches_the_message(
        seq in any::<u64>(),
        batch in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..200),
    ) {
        let bytes = encode_ingest(seq, &batch);
        let msg = ClientMsg::Ingest { seq, batch };
        prop_assert_eq!(&bytes, &msg.encode());
        // The layout is unchanged: opcode, varint seq, then the batch
        // record behind a u32 length prefix.
        let mut expect = StateWriter::new();
        expect.put_u8(0x02);
        expect.put_varint_u64(seq);
        let ClientMsg::Ingest { batch, .. } = &msg else { unreachable!() };
        expect.put_len_bytes(&encode_batch(batch));
        prop_assert_eq!(&bytes, &expect.into_bytes());
        prop_assert_eq!(ClientMsg::decode(&bytes).expect("decode"), msg);
    }

    /// Arbitrary garbage on the wire: the reader always returns a typed
    /// outcome, never panics.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut offset = 0u64;
        let mut r = &bytes[..];
        let _ = read_client_msg(&mut r, &mut offset).expect("in-memory read");
        let mut offset = 0u64;
        let mut r = &bytes[..];
        let _ = read_server_msg(&mut r, &mut offset).expect("in-memory read");
    }

    /// Arbitrary garbage as a *frame payload* (so it reaches the
    /// message decoder, not just the CRC check): typed error, no panic.
    #[test]
    fn random_payloads_decode_to_typed_errors(
        payload in proptest::collection::vec(any::<u8>(), 0..192),
    ) {
        if let Err(e) = ClientMsg::decode(&payload) {
            prop_assert!(matches!(e.code, ErrorCode::Malformed | ErrorCode::UnknownOpcode));
        }
        if let Err(e) = ServerMsg::decode(&payload) {
            prop_assert!(matches!(e.code, ErrorCode::Malformed | ErrorCode::UnknownOpcode));
        }
    }

    /// Truncating a valid frame anywhere yields `TornFrame` at the
    /// frame's offset (or a clean EOF at cut 0).
    #[test]
    fn truncation_is_torn_at_the_frame_offset(which in 0usize..7, frac in 0.0f64..1.0) {
        let msg = &client_corpus()[which];
        let bytes = framed(&msg.encode());
        let cut = 1 + ((bytes.len() - 2) as f64 * frac) as usize; // 1..len-1
        let mut offset = 0u64;
        let mut r = &bytes[..cut];
        match read_client_msg(&mut r, &mut offset).expect("in-memory read") {
            ReadOutcome::Bad(e) => {
                prop_assert_eq!(e.code, ErrorCode::TornFrame);
                prop_assert_eq!(e.offset, 0);
            }
            other => prop_assert!(false, "cut {cut}: expected torn, got {other:?}"),
        }
    }

    /// Flipping any bit of a framed message is detected — as torn
    /// framing (CRC/length damage) or a typed decode error, never an
    /// accepted different message and never a panic.
    #[test]
    fn bitflips_never_pass(which in 0usize..9, pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let msg = &server_corpus()[which];
        let mut bytes = framed(&msg.encode());
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        let mut offset = 0u64;
        let mut r = &bytes[..];
        match read_server_msg(&mut r, &mut offset).expect("in-memory read") {
            ReadOutcome::Bad(e) => prop_assert_eq!(e.offset, 0),
            ReadOutcome::Eof => prop_assert!(false, "flip read as eof"),
            ReadOutcome::Msg(got) => {
                // The only byte a flip can change while keeping the CRC
                // valid is... none. Reaching here means the frame
                // re-validated, which the CRC forbids.
                prop_assert!(false, "flip at byte {pos} bit {bit} accepted: {got:?}");
            }
        }
    }

    /// A second frame's corruption reports the second frame's offset.
    #[test]
    fn offsets_point_at_the_bad_frame(bit in 0u8..8, tail in 1usize..12) {
        let first = framed(&ClientMsg::Query { key: 7 }.encode());
        let second = framed(&ClientMsg::Stats.encode());
        let mut bytes = first.clone();
        bytes.extend_from_slice(&second);
        let pos = first.len() + (tail % second.len());
        bytes[pos] ^= 1 << bit;
        let mut offset = 0u64;
        let mut r = &bytes[..];
        match read_client_msg(&mut r, &mut offset).expect("io") {
            ReadOutcome::Msg(ClientMsg::Query { key: 7 }) => {}
            other => {
                prop_assert!(false, "first frame should survive, got {other:?}");
            }
        }
        match read_client_msg(&mut r, &mut offset).expect("io") {
            ReadOutcome::Bad(e) => prop_assert_eq!(e.offset, first.len() as u64),
            other => prop_assert!(false, "expected bad second frame, got {other:?}"),
        }
    }
}

/// Overlong LEB128 varints — continuation bytes running past what a
/// u64 can hold — are rejected as malformed, not silently wrapped.
#[test]
fn overlong_varints_are_malformed() {
    // QUERY with key encoded as ten continuation bytes: the tenth byte
    // would need bits beyond 64, so the decoder must bail.
    let mut payload = vec![0x03u8]; // OP_QUERY
    payload.extend_from_slice(&[0x80; 10]);
    payload.push(0x00);
    let err = ClientMsg::decode(&payload).expect_err("overlong varint");
    assert_eq!(err.code, ErrorCode::Malformed);
    assert!(err.detail.contains("varint"), "detail: {}", err.detail);

    // An eleven-byte run with small continuation bits is still overlong
    // even though no individual byte overflows.
    let mut payload = vec![0x03u8];
    payload.extend_from_slice(&[
        0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x81, 0x00,
    ]);
    let err = ClientMsg::decode(&payload).expect_err("11-byte varint");
    assert_eq!(err.code, ErrorCode::Malformed);
}

/// A length prefix beyond the message cap is torn framing — rejected
/// before any allocation, with the frame offset attached.
#[test]
fn oversized_length_prefix_is_torn_without_allocation() {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(MAX_MESSAGE_BYTES + 1).to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&[0u8; 64]); // far fewer bytes than claimed
    let mut offset = 0u64;
    let mut r = &bytes[..];
    match read_client_msg(&mut r, &mut offset).expect("io") {
        ReadOutcome::Bad(e) => {
            assert_eq!(e.code, ErrorCode::TornFrame);
            assert_eq!(e.offset, 0);
            assert!(e.detail.contains("implausible"), "detail: {}", e.detail);
        }
        other => panic!("expected torn, got {other:?}"),
    }
}

/// Every corpus message survives a frame round-trip through the
/// offset-tracking reader.
#[test]
fn corpus_round_trips_with_offsets() {
    let mut bytes = Vec::new();
    for msg in client_corpus() {
        write_frame(&mut bytes, &msg.encode()).expect("vec write");
    }
    let total = bytes.len() as u64;
    let mut offset = 0u64;
    let mut r = &bytes[..];
    for expect in client_corpus() {
        match read_client_msg(&mut r, &mut offset).expect("io") {
            ReadOutcome::Msg(got) => assert_eq!(got, expect),
            other => panic!("expected {expect:?}, got {other:?}"),
        }
    }
    assert_eq!(offset, total);
    assert!(matches!(
        read_client_msg(&mut r, &mut offset).expect("io"),
        ReadOutcome::Eof
    ));
    assert_eq!(FRAME_HEADER_BYTES, 8);
}

/// A directory removed when the guard drops, passing or failing.
struct CaseDir(PathBuf);

impl Drop for CaseDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A poison batch on a WAL-backed server — key 7's clock running from
/// t = 10 back to t = 5 — is answered with `ERROR` on its own
/// connection. Another connection's later batches still apply, `QUERY`
/// and `STATS` answer, and `SHUTDOWN` leaves a final snapshot that
/// covers every logged batch. Every wait is bounded, so a dead ingest
/// loop fails the test instead of hanging it.
#[test]
fn poison_batch_on_a_wal_server_is_answered_and_survived() {
    const WAIT: Duration = Duration::from_secs(20);
    let dir = CaseDir(
        std::env::temp_dir().join(format!("swsample-server-poison-{}", std::process::id())),
    );
    let _ = std::fs::remove_dir_all(&dir.0);
    let mut cfg = ServerConfig::new(
        "--window ts --w 100 --mode wr --algo paper --k 4 --seed 3"
            .parse()
            .expect("template"),
    );
    cfg.addr = "127.0.0.1:0".into();
    cfg.threads = 1;
    cfg.wal_dir = Some(dir.0.clone());
    let server = Server::start(cfg).expect("server start");
    let addr = server.local_addr().to_string();
    let connect = |name: &str| {
        let mut client = Client::connect(&addr, name).expect("connect");
        client.set_read_timeout(Some(WAIT)).expect("read timeout");
        client
    };

    let mut a = connect("poisoner");
    assert!(matches!(
        a.ingest(0, &[(7, 10, 1)]).expect("first batch"),
        IngestOutcome::Applied(1)
    ));
    let refused = a
        .ingest(1, &[(7, 5, 2)])
        .expect_err("a backwards clock must fail");
    assert!(
        refused.to_string().contains("Error {"),
        "expected an ERROR reply, got: {refused}"
    );

    let mut b = connect("bystander");
    for (seq, batch) in [(0, vec![(7, 20, 3), (8, 20, 4)]), (1, vec![(9, 30, 5)])] {
        match b.ingest(seq, &batch).expect("later batch") {
            IngestOutcome::Applied(n) => assert_eq!(n, batch.len() as u64),
            IngestOutcome::Busy(_) => panic!("an idle server pushed back"),
        }
    }
    let live = b.query(7).expect("query").expect("key 7 has samples");
    assert_eq!(b.stats().expect("stats").global.events_applied, 4);
    b.shutdown_server().expect("shutdown");

    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(server.shutdown());
    });
    let stats = finished.recv_timeout(WAIT).expect("server shut down");
    assert_eq!(stats.global.events_applied, 4);
    // All four batches were logged, the refused one included; the final
    // snapshot covers them, so a reopen replays nothing.
    let snaps = snapshot::list_snapshots(&dir.0).expect("list snapshots");
    assert_eq!(snaps.last().map(|(seq, _)| *seq), Some(4));
    let reopened =
        DurableEngine::<u64, u64>::open(&dir.0, DurableOptions::default()).expect("reopen");
    assert_eq!(reopened.replay_failures(), 0);
    let recovered: Vec<(u64, u64, u64)> = reopened
        .engine()
        .sample_k(&7)
        .expect("key 7 recovered")
        .iter()
        .map(|s| (*s.value(), s.index(), s.timestamp()))
        .collect();
    assert_eq!(recovered, live);
}
