//! A blocking client for the wire protocol — the substrate for the
//! load generator, the CLI `loadgen` subcommand, and the integration
//! tests.
//!
//! One TCP connection, request/reply with transparent handling of
//! asynchronous `PUSH` frames: replies are matched in order (the
//! protocol answers every request with exactly one frame), pushes that
//! arrive interleaved are buffered and retrievable with
//! [`Client::take_pushes`].
//!
//! Every method makes a single attempt: a `BUSY` comes back as
//! [`IngestOutcome::Busy`] and a dead connection as an error. Riding out
//! faults (backoff, reconnect, resend) is the load generator's job.

use std::io::{self, BufReader, BufWriter, Write as _};
use std::net::TcpStream;
use std::time::Duration;

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
