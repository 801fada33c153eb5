//! # ayd-obs — structured tracing and instrumentation
//!
//! The paper's contribution is an *accounting* of where wall-clock time goes
//! on a failure-prone platform; this crate lets the reproduction answer the
//! same question about itself. It provides lock-cheap, monotonic-clock timed
//! [`Span`]s with typed key/value fields and parent/child nesting, buffered
//! per thread and drained into a bounded process-wide ring, plus pluggable
//! [`Sink`]s:
//!
//! - [`JsonLinesSink`] — one JSON object per completed span, stable field
//!   order (golden-testable), used by `reproduce --trace-log PATH`;
//! - [`MemorySink`] — an in-memory recorder for assertions in tests.
//!
//! ## Cost model
//!
//! Tracing is **off by default**. Every span site starts with one relaxed
//! atomic load ([`enabled`]); while disabled a [`span`] call constructs
//! nothing and its guard's `Drop` is a no-op.
//!
//! Recording never touches the traced computation's values: spans carry only
//! clock readings and counters, so enabling tracing cannot perturb any
//! deterministic output (sweep CSV bytes are asserted identical with tracing
//! on and off).
//!
//! ## Nesting and threads
//!
//! [`span`] makes the new span a child of the innermost span still open *on
//! the current thread*; [`root_span`] starts a fresh trace (for example one
//! HTTP request, carrying its request ID as the trace ID); [`child_of`]
//! parents a span across threads via a [`SpanContext`] captured from the
//! parent. Spans may finish in any order — closing a parent before its child
//! simply leaves the child an orphan in the stack, which is tolerated (the
//! records still carry the correct parent IDs). Dropping a guard without
//! calling [`Span::finish`] records the span exactly as a finish would.
//!
//! Completed spans are buffered per thread and flushed to the global ring
//! (and the installed sink) when a root span completes, when the buffer
//! fills, or on an explicit [`flush`]. The ring keeps the newest
//! [`RING_CAPACITY`] records; overflow discards the oldest.
//!
//! ## Span vocabulary
//!
//! The emitting crates share one flat vocabulary (the full table, with
//! fields, is `docs/OBSERVABILITY.md` at the repository root): the serving
//! path emits `request`/`parse`/`route`/`evaluate`/`render`,
//! the sweep engine `sweep`/`chunk`/`shard`, and a distributed-sweep
//! coordinator additionally `dispatch`, `lease_expire`, `shard_reissue` and
//! `shard_chunk` — the audit trail of which worker held which shard epoch
//! and how many checkpointed rows each recovery retained.

#![deny(missing_docs)]
#![warn(clippy::all)]

mod record;
mod sink;
mod span;

pub use record::{FieldValue, SpanContext, SpanRecord};
pub use sink::{JsonLinesSink, MemorySink, Sink};
pub use span::{
    child_of, disable, enable, enabled, event, flush, fresh_trace_id, recent, root_span, set_sink,
    span, Span, RING_CAPACITY,
};
