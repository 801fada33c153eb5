//! # ayd-sim — discrete-event simulation of the VC protocol
//!
//! This crate is the experimental substrate of the reproduction: it injects
//! fail-stop and silent errors as independent Poisson processes and replays the
//! verified-checkpoint (VC) protocol of the paper, pattern by pattern, measuring
//! the achieved execution overhead. The paper's Section IV uses exactly this kind
//! of simulation (500 runs of at least 500 patterns each) to validate the
//! analytical model; every figure's "simulation" series comes from here.
//!
//! ## Protocol semantics (Figure 1 of the paper)
//!
//! * A pattern is `T` seconds of computation, a verification `V_P`, then a
//!   checkpoint `C_P`.
//! * **Fail-stop errors** can strike during computation, verification, checkpoint
//!   and recovery — but not during downtime. When one strikes, the platform pays
//!   the downtime `D`, performs a recovery `R_P` (itself subject to fail-stop
//!   errors) and re-executes the pattern from the last checkpoint.
//! * **Silent errors** strike only during computation. They do not interrupt the
//!   execution; they are detected by the verification at the end of the pattern,
//!   which then triggers a recovery and a re-execution (no downtime). A silent
//!   error that is followed by a fail-stop error in the same attempt is *masked*:
//!   the rollback caused by the fail-stop error discards the corrupted state.
//!
//! ## Engines
//!
//! Two independently written engines implement those semantics:
//!
//! * [`engine::WindowSamplingEngine`] draws, for every attempt window, the time to
//!   the next fail-stop error and the occurrence of silent errors within the
//!   window (exact thanks to the memorylessness of the exponential distribution).
//! * [`stream::EventStreamEngine`] maintains genuine arrival processes whose
//!   countdowns persist across phases and patterns.
//!
//! Both engines produce statistically identical results (see the cross-validation
//! tests and the `ablation_engines` bench); the window engine is the default.
//!
//! ## Batch replication
//!
//! [`batch::Simulator`] replicates runs in parallel (std scoped threads),
//! with deterministic per-run seeding so results are reproducible independently of
//! the number of worker threads.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod batch;
pub mod engine;
pub mod law;
pub mod params;
pub mod rng;
pub mod run;
pub mod stats;
pub mod stream;

pub use batch::{OverheadStats, SimulationConfig, Simulator};
pub use engine::{PatternEngine, PatternOutcome, WindowSamplingEngine};
pub use law::ArrivalLaw;
pub use params::PatternParams;
pub use run::{simulate_run, RunResult};
pub use stats::RunningStats;
pub use stream::EventStreamEngine;

/// Which simulation engine a batch should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Per-window exponential sampling (default).
    #[default]
    WindowSampling,
    /// Persistent arrival-process countdowns.
    EventStream,
}
