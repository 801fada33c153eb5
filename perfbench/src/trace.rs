//! In-memory spans recorded by the benchmark's own code around each call
//! into a layer (client requests and jobs on the live system, in-process
//! replays of the same inputs). Spans are kept in memory and written out
//! once, after the measurements.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Next free span-buffer number, so ids never collide across buffers.
static NEXT_LANE: AtomicU64 = AtomicU64::new(1);

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one (0 for a root).
    pub parent: u64,
    /// Shared by every span of one request or job.
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls the span covers (1 unless a span times a batch of calls).
    pub calls: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span buffer. Each thread records into its own and the buffers merge at
/// the end; ids carry the buffer's unique number in their top bits.
pub struct Tracer {
    origin: Instant,
    lane: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            lane: NEXT_LANE.fetch_add(1, Ordering::Relaxed),
            next: 0,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        trace: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        self.record_calls(name, parent, trace, start, end, 1)
    }

    pub fn record_calls(
        &mut self,
        name: &'static str,
        parent: u64,
        trace: u64,
        start: Instant,
        end: Instant,
        calls: u64,
    ) -> u64 {
        let id = self.reserve();
        self.push(id, parent, name, trace, start, end, calls);
        id
    }

    /// Reserves an id for a parent span recorded after its children.
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        (self.lane << 48) | self.next
    }

    /// Records a root span under an id taken from [`Tracer::reserve`].
    pub fn record_reserved(
        &mut self,
        id: u64,
        name: &'static str,
        trace: u64,
        start: Instant,
        end: Instant,
    ) {
        self.push(id, 0, name, trace, start, end, 1);
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &mut self,
        id: u64,
        parent: u64,
        name: &'static str,
        trace: u64,
        start: Instant,
        end: Instant,
        calls: u64,
    ) {
        let span = Span {
            id,
            parent,
            trace,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            calls,
        };
        self.spans.push(span);
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    /// Durations (ns per call) of every span named `name`.
    pub fn per_call_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / s.calls.max(1) as f64)
            .collect()
    }

    /// Self time per span name: each span's duration minus the time its
    /// children cover, summed. Returns `(spans, total ns, self ns)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for span in &self.spans {
            if span.parent != 0 {
                *child_ns.entry(span.parent).or_default() += span.ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for span in &self.spans {
            let children = child_ns.get(&span.id).copied().unwrap_or(0);
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.ns();
            entry.2 += span.ns().saturating_sub(children);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"trace":{},"name":"{}","start_ns":{},"end_ns":{},"calls":{}}}"#,
                s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns, s.calls
            )?;
        }
        out.flush()
    }
}
