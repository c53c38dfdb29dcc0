//! Server observability: the counters behind the `STATS` frame and the
//! shutdown metrics line.
//!
//! All global counters live behind one mutex so a [`StatsSnapshot`] is
//! *atomic* — every field comes from the same instant, no torn reads
//! across counters. Per-connection counters are folded in under the
//! same pass.

use swsample_core::state::{StateError, StateReader, StateWriter};
use swsample_core::MemoryWords;
use swsample_stream::MultiStreamEngine;

/// Global server counters (one consistent view).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GlobalStats {
    /// Events received in `INGEST` frames (whether or not enqueued).
    pub events_in: u64,
    /// `INGEST` frames received.
    pub batches_in: u64,
    /// Events applied to the fleet by the ingest loop.
    pub events_applied: u64,
    /// `INGEST` frames rejected with `BUSY` (the events in them are
    /// counted in `events_in` but never in `events_applied` — the
    /// client retries them, so nothing is silently dropped).
    pub busy_rejections: u64,
    /// `PUSH` frames dropped for slow subscribers (drop-oldest rings).
    pub subscriber_drops: u64,
    /// Events currently waiting in the bounded ingest queue.
    pub queue_events: u64,
    /// High-watermark of `queue_events` over the server's lifetime —
    /// never exceeds the configured queue bound.
    pub queue_hwm_events: u64,
    /// Connections currently open.
    pub connections_open: u64,
    /// Connections ever accepted.
    pub connections_total: u64,
    /// Scheduler ticks elapsed.
    pub ticks: u64,
    /// Connections dropped for stalling mid-frame past the read
    /// deadline, or for blocking writes past the write deadline.
    pub deadline_drops: u64,
    /// Connections reaped for sitting idle past `idle_timeout`.
    pub idle_reaped: u64,
    /// Connections refused at the `--max-conns` cap (typed `OVERLOAD`
    /// reject, then close).
    pub conns_rejected: u64,
    /// Subscribers disconnected after their ring dropped more pushes
    /// than `slow_consumer_budget`.
    pub slow_disconnects: u64,
    /// Ingest batches acked-but-not-reapplied because their
    /// `(session, seq)` was already applied — a retry after a lost ack.
    pub dup_batches: u64,
    /// Connections that died mid-frame leaving a torn partial batch
    /// (discarded; nothing applied).
    pub partial_frames: u64,
    /// Network faults injected by the seeded `SWSAMPLE_FAULTS`
    /// schedule (drops, stalls, flips). 0 in production.
    pub faults_injected: u64,
    /// Transient WAL append/fsync faults absorbed by the durable
    /// engine's bounded retry.
    pub wal_retries: u64,
}

/// One connection's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// The connection id from `HELLO_ACK`.
    pub conn_id: u64,
    /// Events received on this connection.
    pub events_in: u64,
    /// `INGEST` frames received on this connection.
    pub batches_in: u64,
    /// `BUSY` rejections sent to this connection.
    pub busy_rejections: u64,
    /// `PUSH` frames dropped for this connection.
    pub subscriber_drops: u64,
}

/// The fleet, as seen at snapshot time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Keys with materialized samplers.
    pub keys: u64,
    /// Shard count.
    pub shards: u64,
    /// Ingest worker threads.
    pub threads: u64,
    /// Fleet memory footprint in 8-byte words.
    pub memory_words: u64,
    /// Largest single-key footprint in words.
    pub max_key_words: u64,
    /// Work-stealing shard-run units executed across all parallel
    /// ingest epochs (0 when running single-threaded).
    pub parallel_units: u64,
    /// Units claimed by a worker other than the shard's home worker —
    /// the work-stealing scheduler absorbing skew.
    pub parallel_steals: u64,
}

impl EngineStats {
    /// `engine`'s shape, footprint and scheduler counters now.
    pub fn of(engine: &MultiStreamEngine<u64, u64>) -> EngineStats {
        let par = engine.parallel_stats();
        EngineStats {
            keys: engine.num_keys() as u64,
            shards: engine.num_shards() as u64,
            threads: engine.num_threads() as u64,
            memory_words: engine.memory_words() as u64,
            max_key_words: engine.max_key_memory_words() as u64,
            parallel_units: par.units,
            parallel_steals: par.steals,
        }
    }
}

/// A consistent snapshot of everything the server counts, answering
/// the `STATS` opcode.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Global counters.
    pub global: GlobalStats,
    /// The fleet's shape and footprint.
    pub engine: EngineStats,
    /// Per-connection counters for every open connection, in
    /// connection-id order.
    pub conns: Vec<ConnStats>,
}

impl StatsSnapshot {
    /// Append the wire form (a run of varints; counts first).
    pub fn encode(&self, w: &mut StateWriter) {
        let g = &self.global;
        for v in [
            g.events_in,
            g.batches_in,
            g.events_applied,
            g.busy_rejections,
            g.subscriber_drops,
            g.queue_events,
            g.queue_hwm_events,
            g.connections_open,
            g.connections_total,
            g.ticks,
            g.deadline_drops,
            g.idle_reaped,
            g.conns_rejected,
            g.slow_disconnects,
            g.dup_batches,
            g.partial_frames,
            g.faults_injected,
            g.wal_retries,
        ] {
            w.put_varint_u64(v);
        }
        let e = &self.engine;
        for v in [
            e.keys,
            e.shards,
            e.threads,
            e.memory_words,
            e.max_key_words,
            e.parallel_units,
            e.parallel_steals,
        ] {
            w.put_varint_u64(v);
        }
        w.put_u32(self.conns.len() as u32);
        for c in &self.conns {
            for v in [
                c.conn_id,
                c.events_in,
                c.batches_in,
                c.busy_rejections,
                c.subscriber_drops,
            ] {
                w.put_varint_u64(v);
            }
        }
    }

    /// Decode the wire form written by [`encode`](Self::encode).
    pub fn decode(r: &mut StateReader<'_>) -> Result<StatsSnapshot, StateError> {
        let mut g = GlobalStats::default();
        for slot in [
            &mut g.events_in,
            &mut g.batches_in,
            &mut g.events_applied,
            &mut g.busy_rejections,
            &mut g.subscriber_drops,
            &mut g.queue_events,
            &mut g.queue_hwm_events,
            &mut g.connections_open,
            &mut g.connections_total,
            &mut g.ticks,
            &mut g.deadline_drops,
            &mut g.idle_reaped,
            &mut g.conns_rejected,
            &mut g.slow_disconnects,
            &mut g.dup_batches,
            &mut g.partial_frames,
            &mut g.faults_injected,
            &mut g.wal_retries,
        ] {
            *slot = r.get_varint_u64()?;
        }
        let mut e = EngineStats::default();
        for slot in [
            &mut e.keys,
            &mut e.shards,
            &mut e.threads,
            &mut e.memory_words,
            &mut e.max_key_words,
            &mut e.parallel_units,
            &mut e.parallel_steals,
        ] {
            *slot = r.get_varint_u64()?;
        }
        let n = r.get_count(5)?;
        let mut conns = Vec::with_capacity(n);
        for _ in 0..n {
            let mut c = ConnStats::default();
            for slot in [
                &mut c.conn_id,
                &mut c.events_in,
                &mut c.batches_in,
                &mut c.busy_rejections,
                &mut c.subscriber_drops,
            ] {
                *slot = r.get_varint_u64()?;
            }
            conns.push(c);
        }
        Ok(StatsSnapshot {
            global: g,
            engine: e,
            conns,
        })
    }

    /// The single-line stderr metrics summary the server prints on
    /// shutdown (`#`-prefixed so it never collides with data output).
    pub fn metrics_line(&self, elems_per_sec: f64) -> String {
        let g = &self.global;
        format!(
            "# server: events_in={} batches={} applied={} busy={} sub_drops={} \
             queue_hwm={} conns={}/{} keys={} dup={} partial={} deadline_drops={} \
             reaped={} slow={} rejected={} faults={} wal_retries={} \
             steal_units={} steals={} elems_per_sec={elems_per_sec:.2}",
            g.events_in,
            g.batches_in,
            g.events_applied,
            g.busy_rejections,
            g.subscriber_drops,
            g.queue_hwm_events,
            g.connections_open,
            g.connections_total,
            self.engine.keys,
            g.dup_batches,
            g.partial_frames,
            g.deadline_drops,
            g.idle_reaped,
            g.slow_disconnects,
            g.conns_rejected,
            g.faults_injected,
            g.wal_retries,
            self.engine.parallel_units,
            self.engine.parallel_steals,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips() {
        let snap = StatsSnapshot {
            global: GlobalStats {
                events_in: 1_000_000,
                batches_in: 2000,
                events_applied: 999_000,
                busy_rejections: 17,
                subscriber_drops: 3,
                queue_events: 512,
                queue_hwm_events: 262_144,
                connections_open: 8,
                connections_total: 12,
                ticks: 99,
                deadline_drops: 2,
                idle_reaped: 1,
                conns_rejected: 4,
                slow_disconnects: 1,
                dup_batches: 6,
                partial_frames: 2,
                faults_injected: 40,
                wal_retries: 9,
            },
            engine: EngineStats {
                keys: 100_000,
                shards: 16,
                threads: 8,
                memory_words: 1 << 20,
                max_key_words: 37,
                parallel_units: 4321,
                parallel_steals: 87,
            },
            conns: vec![
                ConnStats {
                    conn_id: 1,
                    events_in: 10,
                    batches_in: 1,
                    busy_rejections: 0,
                    subscriber_drops: 2,
                },
                ConnStats {
                    conn_id: 2,
                    ..ConnStats::default()
                },
            ],
        };
        let mut w = StateWriter::new();
        snap.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        let decoded = StatsSnapshot::decode(&mut r).expect("decode");
        r.finish().expect("consumed");
        assert_eq!(decoded, snap);
        assert!(snap
            .metrics_line(123.4)
            .starts_with("# server: events_in=1000000"));
    }

    #[test]
    fn truncated_snapshot_is_an_error() {
        let mut w = StateWriter::new();
        StatsSnapshot::default().encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes[..bytes.len() - 1]);
        assert!(StatsSnapshot::decode(&mut r).is_err());
    }
}
