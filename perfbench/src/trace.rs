//! In-memory spans recorded around the calls into each layer, from the
//! benchmark's side of the public API.
//!
//! A span is `(id, parent, name, start, end)`; spans are kept in memory
//! while the run measures and written out as JSON lines at the end. A
//! disabled tracer records nothing and reads no clock, so the untraced
//! end-to-end drive pays for none of this.

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a recorded span, so children can name their parent.
pub type SpanId = u32;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run.
    pub id: SpanId,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The call or layer, e.g. `stream.ingest`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// A span that has started and not yet ended.
#[derive(Debug)]
#[must_use = "an open span records nothing until it is ended"]
pub struct Open {
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// This span's id, for its children.
    pub fn id(&self) -> Option<SpanId> {
        (self.id != 0).then_some(self.id)
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a span named `name` under `parent`.
    pub fn begin(&self, name: &'static str, parent: Option<SpanId>) -> Open {
        if !self.enabled {
            return Open {
                id: 0,
                parent: None,
                name,
                start_ns: 0,
            };
        }
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// End `open` now and record it.
    pub fn end(&self, open: Open) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Time `f` as one span.
    pub fn span<R>(&self, name: &'static str, parent: Option<SpanId>, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, parent);
        let out = f();
        self.end(open);
        out
    }

    /// Every span recorded so far, in end order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus
/// the part of its interval that its children cover (children on
/// concurrent threads may overlap, so their union is what counts).
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

/// Write `spans` as JSON lines, one span per line, tagged with the
/// workload.
pub fn write_spans(path: &Path, workload: &str, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"workload\":\"{workload}\"}}",
            s.id, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100 with overlapping children 10..40 and 30..60
        // (union 10..60) and a child running past the parent's end.
        let spans = [
            span(1, None, "drive", 0, 100),
            span(2, Some(1), "ingest", 10, 40),
            span(3, Some(1), "ingest", 30, 60),
            span(4, Some(1), "query", 90, 120),
        ];
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["drive"], 100 - 50 - 10);
        assert_eq!(by_name["ingest"], 30 + 30);
        assert_eq!(by_name["query"], 30);
    }
}
