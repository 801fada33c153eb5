//! # ayd-serve — a zero-dependency concurrent query service
//!
//! The paper's deliverable is a decision procedure: platform, scenario, `α`
//! and `λ` in — optimal processor count `P` and checkpoint period `T` out.
//! This crate serves that procedure over HTTP/1.1 on `std::net` alone (the
//! offline build has no async runtime and no HTTP dependencies):
//!
//! | Endpoint | Method | Answer |
//! |----------|--------|--------|
//! | `/v1/optimize` | POST | one query → first-order + numerical operating points (JSON, or the canonical sweep CSV via `Accept: text/csv`) |
//! | `/v1/batch` | POST | many queries, evaluated in slices of 8 on the reactor that read them |
//! | `/v1/sweep` | POST | a [`ayd_sweep::ScenarioGrid`] as an async job (202 + id) |
//! | `/v1/sweep/{id}` | GET | job status while running; the canonical CSV when done |
//! | `/v1/sweep/{id}` | DELETE | cooperative cancellation |
//! | `/v1/sweep/{id}/shards` | GET | per-shard progress; on a coordinator: per-worker assignment, epoch, re-issues |
//! | `/v1/workers/register` | POST | coordinator only: a worker node joins the cluster (id + lease token) |
//! | `/v1/workers/{id}/heartbeat` | POST | coordinator only: lease renewal |
//! | `/v1/workers` | GET | coordinator only: operator view of worker liveness and assignments |
//! | `/v1/shards/run` | POST | worker only: the coordinator dispatching one shard to this node |
//! | `/v1/sweep/{job}/shards/{i}/chunk` | POST | coordinator only: a worker uploading checkpointed shard rows |
//! | `/healthz` | GET | liveness + uptime |
//! | `/metrics` | GET | Prometheus text: request counts, latency histograms, job gauges, cache hit rate |
//! | `/v1/trace/recent` | GET | newest completed `ayd-obs` spans from the in-process ring (JSON) |
//!
//! Every response carries an `x-ayd-trace-id` header naming the request's
//! server-side trace; with tracing enabled the same ID appears in the span
//! records (ring, `--trace-log` sink).
//!
//! Architecture: one serving core. A set of per-thread epoll reactors
//! ([`reactor`], one `SO_REUSEPORT` listener each, so the kernel shards
//! accepts) drives nonblocking edge-triggered connections through an
//! incremental parser ([`conn::IncrementalParser`] — the same strict one-shot
//! parser re-run over the accumulating buffer, so partial reads and
//! pipelining answer byte-identically). Each reactor answers the requests it
//! parses itself, one request or one `/v1/batch` slice per connection per
//! turn, through the one function that turns a request into response bytes
//! (also behind [`conn::serve_chunks`], the socket-free harness). The raw
//! syscall layer is the vendored [`sys`] shim — no libc, no async runtime —
//! so serving needs Linux on x86_64/aarch64; elsewhere [`Server::bind`]
//! reports it unsupported. Around the reactors: a process-wide
//! [`ayd_sweep::ShardedEvalCache`] shared by every request
//! (answers are bit-identical to the offline [`ayd_sweep::Evaluator`] —
//! asserted by [`client::smoke_check`]), async sweeps on
//! [`app::LocalJob`] threads, and graceful shutdown via
//! a flag + listener wake-up ([`server::ServeHandle`]) that drains in-flight
//! responses without truncating one.
//!
//! The request parser ([`http`]) is strict and bounded (header count, line
//! lengths, body size) with exact 400/404/405/413/414/431/501 mapping; the
//! malformed-input property suite asserts it never panics and always answers
//! with a well-formed status line. JSON ([`json`]) is a small strict
//! parser/renderer whose `f64` round-trips are bit-exact.
//!
//! Cluster mode ([`coordinator`], [`worker`]) distributes one sweep across
//! processes: the coordinator decomposes a `/v1/sweep` job into
//! [`ayd_sweep::ShardSpec`] units, dispatches them to registered workers over
//! [`client::HttpClient`], checkpoints uploaded row chunks, re-issues a
//! shard from its checkpoint when its worker's lease expires or its worker
//! reports it dropped, frees a cancelled job's workers at once, and appends
//! each accepted chunk to the job's file (a [`CsvFile`]), which reads the
//! rows back in shard order, so the CSV is byte-identical to a
//! single-process sweep. An in-process job's file reads back by the same
//! rule, and a cancelled job of either kind keeps its in-order prefix.
//! See `docs/ARCHITECTURE.md` and
//! `docs/OPERATIONS.md` at the repository root.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod api;
pub mod app;
pub mod client;
pub mod conn;
pub mod coordinator;
pub mod csv_file;
pub mod http;
pub mod json;
pub mod metrics;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub mod reactor;
pub mod server;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub mod sys;
pub mod worker;

pub use api::ApiError;
pub use app::{AppState, ClusterConfig, ServerConfig};
pub use client::{smoke_check, ClientResponse, HttpClient};
pub use conn::{serve_chunks, IncrementalParser};
pub use coordinator::{ClusterStats, Coordinator};
pub use csv_file::CsvFile;
pub use http::{Body, Limits, Request, Response};
pub use json::Json;
pub use metrics::{validate_prometheus, GaugeSnapshot, Metrics, PrometheusText, Sample};
pub use server::{ServeHandle, Server};
pub use worker::WorkerRuntime;
