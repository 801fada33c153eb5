//! # ayd-exp — experiment harness
//!
//! Reproduces every table and figure of the evaluation section of *"When Amdahl
//! Meets Young/Daly"* (CLUSTER 2016):
//!
//! | Experiment | Module | Content |
//! |------------|--------|---------|
//! | Table II   | [`tables`]  | platform parameters |
//! | Table III  | [`tables`]  | resilience scenarios + fitted coefficients |
//! | Figure 2   | [`figure2`] | optimal `P*`, `T*`, overhead per scenario on the four platforms |
//! | Figure 3   | [`figure3`] | `T*_P`, simulated overhead and first-order gap vs processor count (Hera) |
//! | Figure 4   | [`figure4`] | optima and overhead vs sequential fraction `α` (Hera) |
//! | Figure 5   | [`figure5`] | optima and overhead vs `λ_ind`, `α = 0.1` (Hera), with asymptotic slopes |
//! | Figure 6   | [`figure6`] | optima and overhead vs `λ_ind`, `α = 0` (numerical only) |
//! | Figure 7   | [`figure7`] | optima and overhead vs downtime `D` (Hera) |
//! | Ablations  | [`ablation`] | first-order-vs-numerical gap; window vs event-stream engines |
//! | Extension  | [`extensions`] | non-Amdahl speedup profiles (paper's future work) |
//! | Sweep      | [`sweep`]   | demonstration grids for the `ayd-sweep` parallel sweep engine |
//!
//! The sweep-shaped figures (3, 5, 6) and both ablations delegate their inner
//! loops to the [`ayd_sweep`] engine (parallel, memoised, deterministic); the
//! remaining modules use the shared [`evaluate::Evaluator`] kernel directly.
//!
//! Each runner returns plain serialisable data, renders a text table resembling
//! the figure's series/rows, and is reachable from the `reproduce` CLI
//! (`cargo run -p ayd-exp --bin reproduce -- fig2`).

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod ablation;
pub mod evaluate;
pub mod extensions;
pub mod figure2;
pub mod figure3;
pub mod figure4;
pub mod figure5;
pub mod figure6;
pub mod figure7;
pub mod obsreport;
pub mod report;
pub mod sweep;
pub mod table;
pub mod tables;

pub use ayd_sweep::{Fidelity, RunOptions};
pub use evaluate::{Evaluator, OperatingPoint, OptimumComparison};
pub use table::TextTable;
