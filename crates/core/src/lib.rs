//! # ayd-core — analytical models from *When Amdahl Meets Young/Daly*
//!
//! This crate implements the analytical machinery of the CLUSTER 2016 paper
//! *"When Amdahl Meets Young/Daly"* (Cavelan, Li, Robert, Sun):
//!
//! * **Speedup profiles** obeying Amdahl's law (and, as an extension, perfectly
//!   parallel, power-law and Gustafson-style profiles) — [`speedup`].
//! * **Resilience cost models** `C_P = a + b/P + cP` for checkpoints/recoveries and
//!   `V_P = v + u/P` for verifications — [`cost`].
//! * **Failure model** splitting an individual-processor error rate `λ_ind` into
//!   fail-stop and silent fractions, and scaling it to `P` processors — [`failure`].
//! * **Exact expected execution time of a periodic checkpointing pattern**
//!   `PATTERN(T, P)` under both error sources (Proposition 1 / Eq. (2)) — [`pattern`].
//! * **First-order approximations** of the optimal checkpointing period `T*_P`
//!   (Theorem 1) and of the jointly optimal `(P*, T*)` (Theorems 2 and 3, plus the
//!   degenerate cases 3 and 4) — [`first_order`].
//! * **Validity-region bookkeeping and asymptotic-order estimation** used to check
//!   the `Θ(λ_ind^{-1/4})` / `Θ(λ_ind^{-1/3})` laws — [`regimes`].
//! * **Classical Young/Daly baselines** (fail-stop errors only) — [`young_daly`].
//! * **Application-level makespan projection** — [`application`].
//!
//! The crate is purely analytical: it contains no randomness and no I/O. The
//! companion crates `ayd-sim` (discrete-event simulation), `ayd-optim` (numerical
//! optimisation of the exact model) and `ayd-exp` (experiment harness) build on it.
//!
//! ## Quick start
//!
//! ```
//! use ayd_core::prelude::*;
//!
//! // A platform of processors with a 1.69e-8 /s individual error rate, of which
//! // 21.88% are fail-stop and the rest silent (the "Hera" platform of the paper).
//! let failures = FailureModel::new(1.69e-8, 0.2188).unwrap();
//! // Checkpoint cost grows linearly with P (coordinated checkpointing):
//! // C_P = 0.586 * P seconds; verification is a 15.4 s constant.
//! let costs = ResilienceCosts::new(
//!     CheckpointCost::linear(300.0 / 512.0),
//!     VerificationCost::constant(15.4),
//!     3600.0,
//! ).unwrap();
//! let speedup = SpeedupProfile::amdahl(0.1).unwrap();
//! let model = ExactModel::new(speedup, costs, failures);
//!
//! // First-order optimum (Theorem 2): ~ λ_ind^{-1/4} processors.
//! let opt = FirstOrder::new(&model).joint_optimum().unwrap();
//! assert!(opt.processors > 100.0 && opt.processors < 1000.0);
//! // The exact expected overhead at that operating point is close to the
//! // first-order prediction.
//! let exact = model.expected_overhead(opt.period, opt.processors);
//! assert!((exact - opt.overhead).abs() / opt.overhead < 0.05);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod application;
pub mod cost;
pub mod error;
pub mod failure;
pub mod failure_spec;
pub mod first_order;
pub mod pattern;
pub mod profile;
pub mod regimes;
pub mod speedup;
pub mod young_daly;

pub use application::Application;
pub use cost::{CheckpointCost, ResilienceCosts, VerificationCost};
pub use error::ModelError;
pub use failure::FailureModel;
pub use failure_spec::{FailureLaw, FailureModelSpec};
pub use first_order::{CostCase, FirstOrder, JointOptimum, PeriodOptimum};
pub use pattern::{ExactModel, ModelAt};
pub use profile::ProfileSpec;
pub use regimes::{fit_power_law, ValidityBounds};
pub use speedup::SpeedupProfile;
pub use young_daly::{daly_period, young_daly_period};

/// Convenience re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::application::Application;
    pub use crate::cost::{CheckpointCost, ResilienceCosts, VerificationCost};
    pub use crate::error::ModelError;
    pub use crate::failure::FailureModel;
    pub use crate::failure_spec::{FailureLaw, FailureModelSpec};
    pub use crate::first_order::{CostCase, FirstOrder, JointOptimum, PeriodOptimum};
    pub use crate::pattern::{ExactModel, ModelAt};
    pub use crate::profile::ProfileSpec;
    pub use crate::regimes::{fit_power_law, ValidityBounds};
    pub use crate::speedup::SpeedupProfile;
    pub use crate::young_daly::{daly_period, young_daly_period};
}
