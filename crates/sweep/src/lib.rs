//! # ayd-sweep — parallel scenario-sweep engine
//!
//! The paper's headline results are sweeps: over processor counts (Figure 3),
//! error rates (Figures 5–6), sequential fractions (Figure 4), platforms and
//! scenarios (Figure 2, Tables II–III). This crate turns that pattern into one
//! reusable subsystem:
//!
//! * [`ScenarioGrid`] — a builder of cartesian scenario grids (platforms ×
//!   scenarios × applications × error rates × processor counts × pattern
//!   lengths), flattened into a deterministic cell order.
//! * [`SweepExecutor`] — a parallel executor over `std::thread::scope` (a
//!   self-scheduling worker pool pulling from a shared atomic work queue)
//!   that evaluates the exact model, the first-order model and (optionally)
//!   either simulation engine per cell.
//! * [`EvalCache`] / [`ShardedEvalCache`] — LRU-style memoisation of the
//!   expensive optimiser evaluations, keyed on the quantized inputs an
//!   evaluation reads (the model, the fixed `P`, the search ranges); the
//!   sharded variant spreads concurrent lookups over independently locked
//!   shards (the executor and the `ayd-serve` query service both use it).
//! * [`sink`] — the canonical CSV renderer ([`write_csv_line`]; each
//!   worker renders its rows once, through a writer that reuses the
//!   previous row's shared columns and remembers the numbers it wrote
//!   last) and the [`SweepSink`] trait that
//!   receives those lines in cell order through a reorder buffer.
//! * [`shard`] / [`manifest`] — sharded, resumable execution: a
//!   [`ShardSpec`] `i/N` partitions any grid into contiguous ranges of cell
//!   indices, shard runs stream into a CSV plus an atomically-updated sidecar
//!   manifest, interrupted shards resume without recomputing finished cells,
//!   and [`merge_parts`] concatenates the N shard CSVs into bytes identical
//!   to the unsharded sweep, through the [`ShardMerge`] a cluster
//!   coordinator merges its shards' rows with as they arrive.
//! * [`Evaluator`] / [`RunOptions`] — the per-cell evaluation kernel and run
//!   options, shared with (and re-exported by) the `ayd-exp` harness.
//!
//! ## Determinism contract
//!
//! For a fixed grid and base seed, sweep output is **bit-identical regardless
//! of the worker-thread count and of whether the cache is enabled**: cells are
//! seeded from `(base seed, cell index)` with the `ayd-sim` SplitMix64 scheme
//! (`rng_for_replicate`), and rows are reassembled in cell order. The root
//! property suite asserts both halves of the contract on the CSV bytes.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod cache;
pub mod evaluate;
pub mod executor;
pub mod grid;
pub mod manifest;
pub mod misspec;
pub mod options;
pub mod shard;
pub mod sink;
pub mod wire;

pub use ayd_core::{FailureModelSpec, ProfileSpec, SpeedupProfile};
pub use ayd_optim::{FallbackReason, SearchReport};
pub use cache::{CacheKey, CacheStats, EvalCache, ShardedEvalCache};
pub use evaluate::{Evaluator, OperatingPoint, OptimumComparison, SimSummary};
pub use executor::{
    analytic_cache_key, cache_shards, cell_seed, evaluate_analytic, evaluate_analytic_observed,
    evaluate_cells, AnalyticEval, ClosedForm, EvalObservation, StreamedSweep, SweepExecutor,
    SweepOptions, SweepResults, SweepRow,
};
pub use grid::{GridBuilder, GridError, LambdaAxis, ProcessorAxis, ScenarioGrid, SweepCell};
pub use manifest::{manifest_path, SweepManifest, MANIFEST_MAGIC};
pub use misspec::{
    misspecification_of, misspecification_report, MisspecificationReport, MisspecificationRow,
};
pub use options::{Fidelity, RunOptions};
pub use shard::{
    merge_parts, run_shard_to_files, ShardError, ShardMerge, ShardPart, ShardRunReport, ShardSpec,
    MAX_SHARDS,
};
pub use sink::{csv_text, write_csv_line, NullSink, SweepSink, CSV_HEADER};
pub use wire::{validate_rows, ShardChunk, CHUNK_MAGIC};
