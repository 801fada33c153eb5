//! # ayd-optim — numerical optimisation substrate
//!
//! The paper compares its closed-form first-order optima against the "Optimal"
//! solution obtained by numerical methods (Section IV, citing the iterative
//! procedure of Jin et al.). This crate provides that numerical machinery as a
//! small, dependency-free library of one-dimensional and nested two-dimensional
//! minimisers:
//!
//! * [`golden::golden_section`] — derivative-free unimodal minimisation.
//! * [`brent::brent_minimize`] — Brent's method (golden section + parabolic
//!   interpolation), faster on smooth objectives.
//! * [`grid::log_grid_minimum`] — coarse logarithmic scan used to locate the
//!   basin of attraction when unimodality over the full range is not guaranteed.
//! * [`scalar::minimize_scalar`] — the robust composition used everywhere: coarse
//!   log-grid scan followed by Brent refinement of the best bracket.
//! * [`joint::JointSearch`] — nested 2-D minimisation over `(P, T)`: for every
//!   candidate `P` the inner dimension `T` is minimised, and the outer envelope
//!   `P ↦ min_T f(P, T)` is minimised in turn.
//! * [`seeded::minimize_scalar_seeded`] — warm-started variant of the scalar
//!   search: a seed predicts the basin, a short hill descent replaces the
//!   coarse scan, and a [`seeded::Check`] proves that the scan would pick the
//!   same grid point — a margin certificate for objectives proven
//!   quasiconvex (the period search), sentinel probes decided by a lower
//!   bound where possible otherwise (the processor search) — so the result is
//!   bit-identical to the reference (or the call self-demotes to it).
//!
//! The crate is deliberately generic: objectives are arbitrary `Fn(f64) -> f64`
//! closures, so it has no dependency on `ayd-core`. The experiment harness wires
//! it to the exact pattern model.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod brent;
pub mod golden;
pub mod grid;
pub mod integer;
pub mod joint;
pub mod scalar;
pub mod seeded;

pub use brent::{brent_minimize, brent_minimize_counted};
pub use golden::golden_section;
pub use grid::{log_grid_minimum, log_space_point};
pub use joint::{JointResult, JointSearch};
pub use scalar::{minimize_scalar, OptimizeOptions, ScalarMinimum};
pub use seeded::{minimize_scalar_seeded, Check, FallbackReason, SearchReport};
