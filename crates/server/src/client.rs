//! A blocking client for the wire protocol — the substrate for the
//! load generator, the CLI `loadgen` subcommand, and the integration
//! tests.
//!
//! One TCP connection, request/reply with transparent handling of
//! asynchronous `PUSH` frames: replies are matched in order (the
//! protocol answers every request with exactly one frame), pushes that
//! arrive interleaved are buffered and retrievable with
//! [`Client::take_pushes`].

use std::io::{self, BufReader, BufWriter, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use swsample_core::fault::mix64;
use swsample_durable::frame::write_frame;

use crate::protocol::{
    encode_ingest, read_server_msg, ClientMsg, ReadOutcome, ServerMsg, SubscribeKind, WireEvent,
    WireSample, PROTOCOL_VERSION,
};
use crate::stats::StatsSnapshot;

/// The server's answer to one `INGEST` attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// Applied; the count of events the server acknowledged.
    Applied(u64),
    /// Rejected with backpressure; the server's queued-event count.
    Busy(u64),
}

/// Bounded exponential backoff with deterministic jitter, for `BUSY`
/// storms and reconnect loops. Delay for attempt `n` is
/// `min(cap, base * 2^n)` scaled by a seed-derived factor in
/// `[0.5, 1.0)` — the same seed replays the same pacing, so chaos runs
/// stay reproducible while concurrent clients still decorrelate.
#[derive(Debug, Clone)]
pub struct Backoff {
    /// First-retry delay.
    pub base: Duration,
    /// Delay ceiling.
    pub cap: Duration,
    /// Give up (with `TimedOut`) once an operation has been retrying
    /// this long. `None` retries forever.
    pub deadline: Option<Duration>,
    /// Jitter seed; derive per-client so concurrent backoffs don't
    /// synchronize.
    pub seed: u64,
}

impl Default for Backoff {
    fn default() -> Backoff {
        Backoff {
            base: Duration::from_micros(200),
            cap: Duration::from_millis(50),
            deadline: Some(Duration::from_secs(30)),
            seed: 0,
        }
    }
}

impl Backoff {
    /// The delay before retry `attempt` (0-based).
    pub fn delay(&self, attempt: u64) -> Duration {
        let exp = attempt.min(20) as u32;
        let raw = self
            .base
            .checked_mul(1u32 << exp)
            .unwrap_or(self.cap)
            .min(self.cap);
        // Jitter factor in [1/2, 1): 512..1024 over 1024.
        let jitter = 512 + (mix64(self.seed, 0x4a49_5454_4552, attempt) % 512);
        raw.mul_f64(jitter as f64 / 1024.0)
    }

    /// True once `started` is past the deadline (never, if unset).
    fn expired(&self, started: Instant) -> bool {
        self.deadline.is_some_and(|d| started.elapsed() >= d)
    }
}

/// A connected, HELLO-completed protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    offset: u64,
    conn_id: u64,
    template: String,
    pushes: Vec<ServerMsg>,
}

impl Client {
    /// Connect and complete the version handshake.
    pub fn connect(addr: &str, name: &str) -> io::Result<Client> {
        Client::connect_with_session(addr, name, 0)
    }

    /// Connect with a nonzero session id to opt into server-side ingest
    /// dedup: if an ack is lost (connection dropped mid-reply) the
    /// client can reconnect with the *same* session and resend the
    /// unacked batch — the server acks without reapplying anything it
    /// already applied, making retried ingest exactly-once.
    pub fn connect_with_session(addr: &str, name: &str, session: u64) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut client = Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            offset: 0,
            conn_id: 0,
            template: String::new(),
            pushes: Vec::new(),
        };
        client.send(&ClientMsg::Hello {
            version: PROTOCOL_VERSION,
            name: name.to_string(),
            session,
        })?;
        match client.recv_reply()? {
            ServerMsg::HelloAck {
                conn_id, template, ..
            } => {
                client.conn_id = conn_id;
                client.template = template;
                Ok(client)
            }
            other => Err(io::Error::other(format!(
                "expected HELLO_ACK, got {other:?}"
            ))),
        }
    }

    /// The server-assigned connection id.
    pub fn conn_id(&self) -> u64 {
        self.conn_id
    }

    /// The server fleet's template spec string.
    pub fn template(&self) -> &str {
        &self.template
    }

    fn send(&mut self, msg: &ClientMsg) -> io::Result<()> {
        self.send_payload(&msg.encode())
    }

    fn send_payload(&mut self, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.writer, payload)?;
        self.writer.flush()
    }

    /// Receive the next server frame (push or reply). Protocol failures
    /// become `io::Error`s — a client has no one to report them to.
    pub fn recv(&mut self) -> io::Result<ServerMsg> {
        match read_server_msg(&mut self.reader, &mut self.offset)? {
            ReadOutcome::Msg(msg) => Ok(msg),
            ReadOutcome::Eof => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            ReadOutcome::Bad(e) => Err(io::Error::other(e.to_string())),
        }
    }

    /// Receive the next *reply*, buffering any `PUSH` frames that
    /// arrive first.
    fn recv_reply(&mut self) -> io::Result<ServerMsg> {
        loop {
            match self.recv()? {
                msg @ ServerMsg::Push { .. } => self.pushes.push(msg),
                msg => return Ok(msg),
            }
        }
    }

    /// `PUSH` frames collected while waiting for replies.
    pub fn take_pushes(&mut self) -> Vec<ServerMsg> {
        std::mem::take(&mut self.pushes)
    }

    /// Block until the next `PUSH` frame arrives (buffered ones first).
    pub fn recv_push(&mut self) -> io::Result<ServerMsg> {
        if !self.pushes.is_empty() {
            return Ok(self.pushes.remove(0));
        }
        loop {
            if let msg @ ServerMsg::Push { .. } = self.recv()? {
                return Ok(msg);
            }
        }
    }

    /// One `INGEST` attempt: applied, or rejected with backpressure.
    pub fn ingest(&mut self, seq: u64, batch: &[WireEvent]) -> io::Result<IngestOutcome> {
        self.send_payload(&encode_ingest(seq, batch))?;
        match self.recv_reply()? {
            ServerMsg::IngestOk { seq: got, events } if got == seq => {
                Ok(IngestOutcome::Applied(events))
            }
            ServerMsg::Busy {
                seq: got,
                queued_events,
            } if got == seq => Ok(IngestOutcome::Busy(queued_events)),
            other => Err(io::Error::other(format!(
                "expected OK/BUSY for seq {seq}, got {other:?}"
            ))),
        }
    }

    /// `INGEST` with busy-retry under the default [`Backoff`]. Returns
    /// the number of `BUSY` rejections absorbed.
    pub fn ingest_retry(&mut self, seq: u64, batch: &[WireEvent]) -> io::Result<u64> {
        self.ingest_retry_with(seq, batch, &Backoff::default())
    }

    /// `INGEST` with busy-retry: resend on `BUSY` until applied, so no
    /// event is ever silently dropped. Waits `backoff.delay(attempt)`
    /// between attempts (bounded exponential, not a hot resend loop)
    /// and fails with `TimedOut` once past `backoff.deadline`. Returns
    /// the number of `BUSY` rejections absorbed.
    pub fn ingest_retry_with(
        &mut self,
        seq: u64,
        batch: &[WireEvent],
        backoff: &Backoff,
    ) -> io::Result<u64> {
        let started = Instant::now();
        let mut retries = 0u64;
        loop {
            match self.ingest(seq, batch)? {
                IngestOutcome::Applied(_) => return Ok(retries),
                IngestOutcome::Busy(_) => {
                    if backoff.expired(started) {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("seq {seq} still BUSY after {retries} retries"),
                        ));
                    }
                    std::thread::sleep(backoff.delay(retries));
                    retries += 1;
                }
            }
        }
    }

    /// Apply a socket read timeout, so a server stall (or a corrupted
    /// length prefix) surfaces as `WouldBlock`/`TimedOut` instead of
    /// hanging the client forever. `None` restores blocking reads.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Query a key's current `k`-sample.
    pub fn query(&mut self, key: u64) -> io::Result<Option<Vec<WireSample>>> {
        self.send(&ClientMsg::Query { key })?;
        match self.recv_reply()? {
            ServerMsg::Samples { key: got, samples } if got == key => Ok(samples),
            other => Err(io::Error::other(format!(
                "expected SAMPLES for key {key}, got {other:?}"
            ))),
        }
    }

    /// Register a standing query; returns the subscription id.
    pub fn subscribe(
        &mut self,
        kind: SubscribeKind,
        key: u64,
        every_ticks: u64,
        threshold: u64,
    ) -> io::Result<u64> {
        self.send(&ClientMsg::Subscribe {
            kind,
            key,
            every_ticks,
            threshold,
        })?;
        match self.recv_reply()? {
            ServerMsg::SubAck { id } => Ok(id),
            other => Err(io::Error::other(format!("expected SUB_ACK, got {other:?}"))),
        }
    }

    /// Fetch a consistent stats snapshot.
    pub fn stats(&mut self) -> io::Result<StatsSnapshot> {
        self.send(&ClientMsg::Stats)?;
        match self.recv_reply()? {
            ServerMsg::StatsReply(snapshot) => Ok(snapshot),
            other => Err(io::Error::other(format!(
                "expected STATS_REPLY, got {other:?}"
            ))),
        }
    }

    /// Orderly close.
    pub fn bye(mut self) -> io::Result<()> {
        self.send(&ClientMsg::Bye)?;
        match self.recv_reply()? {
            ServerMsg::Bye => Ok(()),
            other => Err(io::Error::other(format!("expected BYE, got {other:?}"))),
        }
    }

    /// Ask the server to shut down gracefully (drain, fsync, final
    /// snapshot). The server answers `BYE` before it starts draining.
    pub fn shutdown_server(&mut self) -> io::Result<()> {
        self.send(&ClientMsg::Shutdown)?;
        match self.recv_reply()? {
            ServerMsg::Bye => Ok(()),
            other => Err(io::Error::other(format!("expected BYE, got {other:?}"))),
        }
    }
}
