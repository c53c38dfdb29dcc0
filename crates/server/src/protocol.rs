//! The wire protocol: CRC-framed binary messages over TCP.
//!
//! Every message is one [`swsample_durable::frame`] frame
//! (`[len u32 LE][crc32 u32 LE][payload]`) whose payload starts with a
//! one-byte opcode. Bodies use the [`swsample_core::state`] codecs —
//! LEB128 varints (overlong encodings rejected), length-prefixed byte
//! strings — and `INGEST` batches ride the columnar delta-varint batch
//! record from [`swsample_durable::batch`], byte-identical to what the
//! WAL logs.
//!
//! The grammar (client → server opcodes `0x01..`, server → client
//! `0x81..`) is documented per variant on [`ClientMsg`] and
//! [`ServerMsg`]; the README "Serving" section carries the same spec.
//!
//! Decoding is total: truncation, bitflips, overlong varints, oversized
//! length prefixes, unknown opcodes, and trailing garbage all come back
//! as a typed [`ProtocolError`] carrying the byte offset of the
//! offending frame — never a panic, never a hang, never an oversized
//! allocation (frames are capped at [`MAX_MESSAGE_BYTES`] before any
//! buffer is sized).

use std::io::{self, Read};

use swsample_core::state::{StateError, StateReader, StateWriter};
use swsample_durable::batch::{decode_batch, encode_batch_into};
use swsample_durable::frame::{read_frame_capped, FrameRead, FRAME_HEADER_BYTES};

use crate::stats::StatsSnapshot;

/// Protocol version carried in `HELLO` / `HELLO_ACK`. A server refuses
/// mismatched clients with [`ErrorCode::Version`]. Version 2 added the
/// `HELLO` session id (retry dedup across reconnects) and the
/// [`ErrorCode::Overload`] connection-cap reject.
pub const PROTOCOL_VERSION: u32 = 2;

/// Upper bound on a message payload — far above any legitimate batch,
/// far below the on-disk frame cap. A length prefix beyond this is a
/// torn frame, not an allocation request.
pub const MAX_MESSAGE_BYTES: u32 = 1 << 24;

/// A keyed ingest event as the server fleet consumes it. The network
/// surface is concretely `u64` keys and values — the fleet shape the
/// columnar WAL encoding and the CLI both optimize for; heterogeneous
/// fleets stay an in-process (library) concern.
pub type WireEvent = (u64, u64, u64);

/// Typed protocol error codes (the `code` byte of an `ERROR` frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Framing failed: truncated header/payload, checksum mismatch, or
    /// a length prefix over [`MAX_MESSAGE_BYTES`].
    TornFrame = 1,
    /// The frame was intact but its payload failed to decode.
    Malformed = 2,
    /// `HELLO` carried an unsupported protocol version.
    Version = 3,
    /// The opcode byte names no known message.
    UnknownOpcode = 4,
    /// A legal message arrived in an illegal state (e.g. before
    /// `HELLO`).
    State = 5,
    /// The server failed internally while handling the request (e.g. a
    /// WAL write error); the connection stays up.
    Internal = 6,
    /// The server is at its `--max-conns` cap and refused the
    /// connection; sent as the only frame before close. Retry later.
    Overload = 7,
}

impl ErrorCode {
    /// The wire byte for this code.
    pub fn as_u8(self) -> u8 {
        self as u8
    }

    /// Decode a wire byte.
    pub fn from_u8(v: u8) -> Option<ErrorCode> {
        match v {
            1 => Some(ErrorCode::TornFrame),
            2 => Some(ErrorCode::Malformed),
            3 => Some(ErrorCode::Version),
            4 => Some(ErrorCode::UnknownOpcode),
            5 => Some(ErrorCode::State),
            6 => Some(ErrorCode::Internal),
            7 => Some(ErrorCode::Overload),
            _ => None,
        }
    }
}

/// A typed protocol failure: what went wrong, and the byte offset (from
/// the start of the connection's stream) of the frame it went wrong in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// The failure class.
    pub code: ErrorCode,
    /// Stream offset of the first byte of the offending frame.
    pub offset: u64,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "protocol error {:?} at frame offset {}: {}",
            self.code, self.offset, self.detail
        )
    }
}

impl std::error::Error for ProtocolError {}

/// The kind of a standing (continuous) query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubscribeKind {
    /// Every `every_ticks` scheduler ticks, push the key's sampled
    /// aggregate (count and sum over the current `k`-sample).
    Aggregate,
    /// Same cadence, but push only when the sampled sum reaches the
    /// subscription's threshold — an alert, not a feed.
    Threshold,
}

/// Messages a client sends. Opcodes `0x01..=0x07`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientMsg {
    /// `0x01` — must be the first message: `version u32`, a
    /// length-prefixed client name (diagnostics only), then a varint
    /// session id. A nonzero session opts into ingest dedup: the server
    /// remembers the highest `(session, seq)` applied, so a batch
    /// resent after a reconnect (same session) is acked without being
    /// applied twice. Session 0 means no dedup (fire-and-forget
    /// clients, queries).
    Hello {
        /// Client protocol version.
        version: u32,
        /// Free-form client name.
        name: String,
        /// Retry-dedup session id (0 = none). Clients must pick ids
        /// unique across concurrent sessions (e.g. seed-derived).
        session: u64,
    },
    /// `0x02` — an ingest batch: client-chosen sequence number (echoed
    /// in the `OK`/`BUSY` reply) and a batch record from
    /// [`swsample_durable::batch`].
    Ingest {
        /// Client-side batch sequence, echoed in the reply.
        seq: u64,
        /// The events, in arrival order.
        batch: Vec<WireEvent>,
    },
    /// `0x03` — one-shot query for a key's current `k`-sample.
    Query {
        /// The key to sample.
        key: u64,
    },
    /// `0x04` — register a standing query; answered with `SUB_ACK`.
    Subscribe {
        /// Aggregate feed or threshold alert.
        kind: SubscribeKind,
        /// The key the query watches.
        key: u64,
        /// Evaluation cadence in scheduler ticks (min 1).
        every_ticks: u64,
        /// Threshold on the sampled sum (ignored for aggregates).
        threshold: u64,
    },
    /// `0x05` — request a [`StatsSnapshot`].
    Stats,
    /// `0x06` — orderly connection close; answered with `BYE`.
    Bye,
    /// `0x07` — ask the whole server to shut down gracefully (final
    /// WAL fsync + snapshot); answered with `BYE` before the server
    /// begins draining.
    Shutdown,
}

const OP_HELLO: u8 = 0x01;
const OP_INGEST: u8 = 0x02;
const OP_QUERY: u8 = 0x03;
const OP_SUBSCRIBE: u8 = 0x04;
const OP_STATS: u8 = 0x05;
const OP_BYE: u8 = 0x06;
const OP_SHUTDOWN: u8 = 0x07;

const OP_HELLO_ACK: u8 = 0x81;
const OP_OK: u8 = 0x82;
const OP_BUSY: u8 = 0x83;
const OP_SAMPLES: u8 = 0x84;
const OP_SUB_ACK: u8 = 0x85;
const OP_PUSH: u8 = 0x86;
const OP_STATS_REPLY: u8 = 0x87;
const OP_ERROR: u8 = 0x88;
const OP_BYE_ACK: u8 = 0x89;

/// One sampled element as it crosses the wire: `(value, index,
/// timestamp)` — the fields of [`swsample_core::Sample`].
pub type WireSample = (u64, u64, u64);

/// Messages a server sends. Opcodes `0x81..=0x89`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerMsg {
    /// `0x81` — reply to `HELLO`: server version, the connection's id,
    /// and the fleet's template spec string (so clients can render
    /// samples and memory notes exactly as the offline CLI does).
    HelloAck {
        /// Server protocol version.
        version: u32,
        /// This connection's id (appears in STATS).
        conn_id: u64,
        /// The fleet template, in spec-string form.
        template: String,
    },
    /// `0x82` — the ingest batch with this sequence was applied.
    IngestOk {
        /// Echo of the client's batch sequence.
        seq: u64,
        /// Events applied.
        events: u64,
    },
    /// `0x83` — backpressure: the bounded ingest queue is at its
    /// watermark, the batch was **not** enqueued; retry later.
    Busy {
        /// Echo of the client's batch sequence.
        seq: u64,
        /// Events currently queued (≥ the watermark trigger).
        queued_events: u64,
    },
    /// `0x84` — reply to `QUERY`: the key's `k`-sample, or absent if
    /// the key was never seen / its window is empty.
    Samples {
        /// Echo of the queried key.
        key: u64,
        /// The sample, present iff the key answers.
        samples: Option<Vec<WireSample>>,
    },
    /// `0x85` — subscription registered.
    SubAck {
        /// The subscription id (echoed in every `PUSH`).
        id: u64,
    },
    /// `0x86` — a continuous-query result (droppable: slow subscribers
    /// lose oldest pushes first, counted in STATS).
    Push {
        /// Subscription id.
        id: u64,
        /// Scheduler tick that produced this result.
        tick: u64,
        /// The watched key.
        key: u64,
        /// Elements in the key's current sample.
        count: u64,
        /// Sum of the sampled values.
        sum: u64,
    },
    /// `0x87` — reply to `STATS`.
    StatsReply(StatsSnapshot),
    /// `0x88` — typed protocol error; fatal to the connection for
    /// `TornFrame`/`Malformed`/`Version`/`UnknownOpcode`/`State`.
    Error {
        /// The failure class.
        code: ErrorCode,
        /// Stream offset of the offending frame.
        offset: u64,
        /// Human-readable detail.
        detail: String,
    },
    /// `0x89` — reply to `BYE`/`SHUTDOWN`; the server closes after.
    Bye,
}

/// The frame payload of [`ClientMsg::Ingest`], encoded straight from a
/// borrowed batch: the batch record is written in place behind its
/// length prefix, so neither the events nor the record are copied.
pub fn encode_ingest(seq: u64, batch: &[WireEvent]) -> Vec<u8> {
    let mut w = StateWriter::with_capacity(16 + batch.len() * 6);
    w.put_u8(OP_INGEST);
    w.put_varint_u64(seq);
    w.put_len_prefixed(|w| encode_batch_into(w, batch));
    w.into_bytes()
}

impl ClientMsg {
    /// Encode to a frame payload (opcode byte + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        match self {
            ClientMsg::Hello {
                version,
                name,
                session,
            } => {
                w.put_u8(OP_HELLO);
                w.put_u32(*version);
                w.put_len_bytes(name.as_bytes());
                w.put_varint_u64(*session);
            }
            ClientMsg::Ingest { seq, batch } => return encode_ingest(*seq, batch),
            ClientMsg::Query { key } => {
                w.put_u8(OP_QUERY);
                w.put_varint_u64(*key);
            }
            ClientMsg::Subscribe {
                kind,
                key,
                every_ticks,
                threshold,
            } => {
                w.put_u8(OP_SUBSCRIBE);
                w.put_u8(match kind {
                    SubscribeKind::Aggregate => 0,
                    SubscribeKind::Threshold => 1,
                });
                w.put_varint_u64(*key);
                w.put_varint_u64(*every_ticks);
                w.put_varint_u64(*threshold);
            }
            ClientMsg::Stats => w.put_u8(OP_STATS),
            ClientMsg::Bye => w.put_u8(OP_BYE),
            ClientMsg::Shutdown => w.put_u8(OP_SHUTDOWN),
        }
        w.into_bytes()
    }

    /// Decode a frame payload. Errors carry no offset — the transport
    /// layer ([`read_client_msg`]) attaches it.
    pub fn decode(payload: &[u8]) -> Result<ClientMsg, DecodeFailure> {
        let mut r = StateReader::new(payload);
        let op = r.get_u8().map_err(DecodeFailure::malformed)?;
        let msg = match op {
            OP_HELLO => {
                let version = r.get_u32().map_err(DecodeFailure::malformed)?;
                let name = get_string(&mut r)?;
                let session = r.get_varint_u64().map_err(DecodeFailure::malformed)?;
                ClientMsg::Hello {
                    version,
                    name,
                    session,
                }
            }
            OP_INGEST => {
                let seq = r.get_varint_u64().map_err(DecodeFailure::malformed)?;
                let record = r.get_len_bytes().map_err(DecodeFailure::malformed)?;
                let batch = decode_batch::<u64, u64>(record).map_err(DecodeFailure::malformed)?;
                ClientMsg::Ingest { seq, batch }
            }
            OP_QUERY => ClientMsg::Query {
                key: r.get_varint_u64().map_err(DecodeFailure::malformed)?,
            },
            OP_SUBSCRIBE => {
                let kind = match r.get_u8().map_err(DecodeFailure::malformed)? {
                    0 => SubscribeKind::Aggregate,
                    1 => SubscribeKind::Threshold,
                    k => {
                        return Err(DecodeFailure {
                            code: ErrorCode::Malformed,
                            detail: format!("unknown subscription kind {k}"),
                        })
                    }
                };
                ClientMsg::Subscribe {
                    kind,
                    key: r.get_varint_u64().map_err(DecodeFailure::malformed)?,
                    every_ticks: r.get_varint_u64().map_err(DecodeFailure::malformed)?,
                    threshold: r.get_varint_u64().map_err(DecodeFailure::malformed)?,
                }
            }
            OP_STATS => ClientMsg::Stats,
            OP_BYE => ClientMsg::Bye,
            OP_SHUTDOWN => ClientMsg::Shutdown,
            op => {
                return Err(DecodeFailure {
                    code: ErrorCode::UnknownOpcode,
                    detail: format!("unknown client opcode {op:#04x}"),
                })
            }
        };
        r.finish().map_err(DecodeFailure::malformed)?;
        Ok(msg)
    }
}

impl ServerMsg {
    /// Encode to a frame payload (opcode byte + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        match self {
            ServerMsg::HelloAck {
                version,
                conn_id,
                template,
            } => {
                w.put_u8(OP_HELLO_ACK);
                w.put_u32(*version);
                w.put_varint_u64(*conn_id);
                w.put_len_bytes(template.as_bytes());
            }
            ServerMsg::IngestOk { seq, events } => {
                w.put_u8(OP_OK);
                w.put_varint_u64(*seq);
                w.put_varint_u64(*events);
            }
            ServerMsg::Busy { seq, queued_events } => {
                w.put_u8(OP_BUSY);
                w.put_varint_u64(*seq);
                w.put_varint_u64(*queued_events);
            }
            ServerMsg::Samples { key, samples } => {
                w.put_u8(OP_SAMPLES);
                w.put_varint_u64(*key);
                match samples {
                    None => w.put_u8(0),
                    Some(samples) => {
                        w.put_u8(1);
                        w.put_u32(samples.len() as u32);
                        for (value, index, timestamp) in samples {
                            w.put_varint_u64(*value);
                            w.put_varint_u64(*index);
                            w.put_varint_u64(*timestamp);
                        }
                    }
                }
            }
            ServerMsg::SubAck { id } => {
                w.put_u8(OP_SUB_ACK);
                w.put_varint_u64(*id);
            }
            ServerMsg::Push {
                id,
                tick,
                key,
                count,
                sum,
            } => {
                w.put_u8(OP_PUSH);
                w.put_varint_u64(*id);
                w.put_varint_u64(*tick);
                w.put_varint_u64(*key);
                w.put_varint_u64(*count);
                w.put_varint_u64(*sum);
            }
            ServerMsg::StatsReply(snapshot) => {
                w.put_u8(OP_STATS_REPLY);
                snapshot.encode(&mut w);
            }
            ServerMsg::Error {
                code,
                offset,
                detail,
            } => {
                w.put_u8(OP_ERROR);
                w.put_u8(code.as_u8());
                w.put_varint_u64(*offset);
                w.put_len_bytes(detail.as_bytes());
            }
            ServerMsg::Bye => w.put_u8(OP_BYE_ACK),
        }
        w.into_bytes()
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> Result<ServerMsg, DecodeFailure> {
        let mut r = StateReader::new(payload);
        let op = r.get_u8().map_err(DecodeFailure::malformed)?;
        let msg = match op {
            OP_HELLO_ACK => {
                let version = r.get_u32().map_err(DecodeFailure::malformed)?;
                let conn_id = r.get_varint_u64().map_err(DecodeFailure::malformed)?;
                let template = get_string(&mut r)?;
                ServerMsg::HelloAck {
                    version,
                    conn_id,
                    template,
                }
            }
            OP_OK => ServerMsg::IngestOk {
                seq: r.get_varint_u64().map_err(DecodeFailure::malformed)?,
                events: r.get_varint_u64().map_err(DecodeFailure::malformed)?,
            },
            OP_BUSY => ServerMsg::Busy {
                seq: r.get_varint_u64().map_err(DecodeFailure::malformed)?,
                queued_events: r.get_varint_u64().map_err(DecodeFailure::malformed)?,
            },
            OP_SAMPLES => {
                let key = r.get_varint_u64().map_err(DecodeFailure::malformed)?;
                let samples = match r.get_u8().map_err(DecodeFailure::malformed)? {
                    0 => None,
                    1 => {
                        let n = r.get_count(3).map_err(DecodeFailure::malformed)?;
                        let mut out = Vec::with_capacity(n);
                        for _ in 0..n {
                            out.push((
                                r.get_varint_u64().map_err(DecodeFailure::malformed)?,
                                r.get_varint_u64().map_err(DecodeFailure::malformed)?,
                                r.get_varint_u64().map_err(DecodeFailure::malformed)?,
                            ));
                        }
                        Some(out)
                    }
                    p => {
                        return Err(DecodeFailure {
                            code: ErrorCode::Malformed,
                            detail: format!("bad presence byte {p}"),
                        })
                    }
                };
                ServerMsg::Samples { key, samples }
            }
            OP_SUB_ACK => ServerMsg::SubAck {
                id: r.get_varint_u64().map_err(DecodeFailure::malformed)?,
            },
            OP_PUSH => ServerMsg::Push {
                id: r.get_varint_u64().map_err(DecodeFailure::malformed)?,
                tick: r.get_varint_u64().map_err(DecodeFailure::malformed)?,
                key: r.get_varint_u64().map_err(DecodeFailure::malformed)?,
                count: r.get_varint_u64().map_err(DecodeFailure::malformed)?,
                sum: r.get_varint_u64().map_err(DecodeFailure::malformed)?,
            },
            OP_STATS_REPLY => ServerMsg::StatsReply(
                StatsSnapshot::decode(&mut r).map_err(DecodeFailure::malformed)?,
            ),
            OP_ERROR => {
                let code_byte = r.get_u8().map_err(DecodeFailure::malformed)?;
                let code = ErrorCode::from_u8(code_byte).ok_or_else(|| DecodeFailure {
                    code: ErrorCode::Malformed,
                    detail: format!("unknown error code {code_byte}"),
                })?;
                let offset = r.get_varint_u64().map_err(DecodeFailure::malformed)?;
                let detail = get_string(&mut r)?;
                ServerMsg::Error {
                    code,
                    offset,
                    detail,
                }
            }
            OP_BYE_ACK => ServerMsg::Bye,
            op => {
                return Err(DecodeFailure {
                    code: ErrorCode::UnknownOpcode,
                    detail: format!("unknown server opcode {op:#04x}"),
                })
            }
        };
        r.finish().map_err(DecodeFailure::malformed)?;
        Ok(msg)
    }
}

/// A payload-level decode failure: the error class plus detail, before
/// the transport layer stamps the frame offset on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeFailure {
    /// [`ErrorCode::Malformed`] or [`ErrorCode::UnknownOpcode`].
    pub code: ErrorCode,
    /// Human-readable detail.
    pub detail: String,
}

impl DecodeFailure {
    fn malformed(e: StateError) -> DecodeFailure {
        DecodeFailure {
            code: ErrorCode::Malformed,
            detail: e.to_string(),
        }
    }

    /// Attach a frame offset, producing the full typed error.
    pub fn at(self, offset: u64) -> ProtocolError {
        ProtocolError {
            code: self.code,
            offset,
            detail: self.detail,
        }
    }
}

fn get_string(r: &mut StateReader<'_>) -> Result<String, DecodeFailure> {
    let bytes = r.get_len_bytes().map_err(DecodeFailure::malformed)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| DecodeFailure {
        code: ErrorCode::Malformed,
        detail: "string field is not UTF-8".into(),
    })
}

/// One read from a message stream.
#[derive(Debug)]
pub enum ReadOutcome<M> {
    /// A complete, valid message.
    Msg(M),
    /// Clean end of stream on a frame boundary.
    Eof,
    /// Framing or decoding failed; the offset points at the bad frame.
    Bad(ProtocolError),
}

/// Read one client message. `offset` is the cumulative count of bytes
/// consumed by *valid* frames so far — i.e. the stream offset of the
/// frame about to be read — and is advanced on success.
pub fn read_client_msg(r: &mut impl Read, offset: &mut u64) -> io::Result<ReadOutcome<ClientMsg>> {
    read_msg(r, offset, ClientMsg::decode)
}

/// Read one server message (client side), same contract as
/// [`read_client_msg`].
pub fn read_server_msg(r: &mut impl Read, offset: &mut u64) -> io::Result<ReadOutcome<ServerMsg>> {
    read_msg(r, offset, ServerMsg::decode)
}

fn read_msg<M>(
    r: &mut impl Read,
    offset: &mut u64,
    decode: impl FnOnce(&[u8]) -> Result<M, DecodeFailure>,
) -> io::Result<ReadOutcome<M>> {
    match read_frame_capped(r, MAX_MESSAGE_BYTES)? {
        FrameRead::Eof => Ok(ReadOutcome::Eof),
        FrameRead::Torn(detail) => Ok(ReadOutcome::Bad(ProtocolError {
            code: ErrorCode::TornFrame,
            offset: *offset,
            detail,
        })),
        FrameRead::Frame(payload) => match decode(&payload) {
            Ok(msg) => {
                *offset += (FRAME_HEADER_BYTES + payload.len()) as u64;
                Ok(ReadOutcome::Msg(msg))
            }
            Err(fail) => Ok(ReadOutcome::Bad(fail.at(*offset))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swsample_durable::frame::write_frame;

    fn round_trip_client(msg: ClientMsg) {
        let payload = msg.encode();
        assert_eq!(ClientMsg::decode(&payload).expect("decode"), msg);
    }

    fn round_trip_server(msg: ServerMsg) {
        let payload = msg.encode();
        assert_eq!(ServerMsg::decode(&payload).expect("decode"), msg);
    }

    #[test]
    fn client_messages_round_trip() {
        round_trip_client(ClientMsg::Hello {
            version: PROTOCOL_VERSION,
            name: "loadgen-3".into(),
            session: 0x1234_5678_9abc_def0,
        });
        round_trip_client(ClientMsg::Ingest {
            seq: 7,
            batch: vec![(1, 10, 100), (2, 10, 200), (u64::MAX, 11, 0)],
        });
        round_trip_client(ClientMsg::Query { key: 42 });
        round_trip_client(ClientMsg::Subscribe {
            kind: SubscribeKind::Threshold,
            key: 3,
            every_ticks: 5,
            threshold: 1000,
        });
        round_trip_client(ClientMsg::Stats);
        round_trip_client(ClientMsg::Bye);
        round_trip_client(ClientMsg::Shutdown);
    }

    #[test]
    fn server_messages_round_trip() {
        round_trip_server(ServerMsg::HelloAck {
            version: PROTOCOL_VERSION,
            conn_id: 9,
            template: "--window seq --n 32 --k 3 --seed 1".into(),
        });
        round_trip_server(ServerMsg::IngestOk {
            seq: 7,
            events: 512,
        });
        round_trip_server(ServerMsg::Busy {
            seq: 8,
            queued_events: 262144,
        });
        round_trip_server(ServerMsg::Samples {
            key: 5,
            samples: Some(vec![(100, 3, 10), (200, 7, 11)]),
        });
        round_trip_server(ServerMsg::Samples {
            key: 6,
            samples: None,
        });
        round_trip_server(ServerMsg::SubAck { id: 2 });
        round_trip_server(ServerMsg::Push {
            id: 2,
            tick: 40,
            key: 5,
            count: 3,
            sum: 999,
        });
        round_trip_server(ServerMsg::Error {
            code: ErrorCode::TornFrame,
            offset: 1234,
            detail: "checksum mismatch".into(),
        });
        round_trip_server(ServerMsg::Bye);
    }

    #[test]
    fn unknown_opcode_is_typed() {
        let err = ClientMsg::decode(&[0x7f]).expect_err("unknown");
        assert_eq!(err.code, ErrorCode::UnknownOpcode);
        let err = ServerMsg::decode(&[0x00]).expect_err("unknown");
        assert_eq!(err.code, ErrorCode::UnknownOpcode);
    }

    #[test]
    fn trailing_garbage_is_malformed() {
        let mut payload = ClientMsg::Stats.encode();
        payload.push(0);
        let err = ClientMsg::decode(&payload).expect_err("trailing");
        assert_eq!(err.code, ErrorCode::Malformed);
    }

    #[test]
    fn read_tracks_frame_offsets() {
        let mut bytes = Vec::new();
        let first = ClientMsg::Query { key: 1 }.encode();
        write_frame(&mut bytes, &first).expect("frame");
        write_frame(&mut bytes, &ClientMsg::Stats.encode()).expect("frame");
        // Truncate inside the second frame: the error's offset points at
        // the second frame's start.
        let cut = FRAME_HEADER_BYTES + first.len() + 3;
        let mut r = &bytes[..cut];
        let mut offset = 0u64;
        match read_client_msg(&mut r, &mut offset).expect("io") {
            ReadOutcome::Msg(ClientMsg::Query { key: 1 }) => {}
            other => panic!("expected first query, got {other:?}"),
        }
        match read_client_msg(&mut r, &mut offset).expect("io") {
            ReadOutcome::Bad(e) => {
                assert_eq!(e.code, ErrorCode::TornFrame);
                assert_eq!(e.offset, (FRAME_HEADER_BYTES + first.len()) as u64);
            }
            other => panic!("expected torn, got {other:?}"),
        }
    }
}
