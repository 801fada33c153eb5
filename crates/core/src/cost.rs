//! Resilience cost models: checkpoint, recovery and verification costs.
//!
//! The paper uses the general forms (Section II, Table I):
//!
//! ```text
//! C_P = a + b/P + cP        (checkpoint; recovery R_P = C_P)
//! V_P = v + u/P             (verification)
//! ```
//!
//! * `a + b/P` is the I/O time to write the memory footprint: `a` is a start-up
//!   latency (or the full `β + M/τ_io` term when the storage bandwidth is the
//!   bottleneck), `b/P` the per-processor share of an in-memory / network-bound
//!   transfer.
//! * `cP` is the message-passing / coordination overhead that grows linearly with
//!   the processor count (coordinated checkpointing).
//! * `v + u/P` mirrors the same structure for an in-memory verification.
//!
//! The aggregate `d = a + v` and `h = b + u` quantities drive the case analysis of
//! Section III.D (Theorem 2 when `c ≠ 0`, Theorem 3 when `c = 0, d ≠ 0`, the
//! degenerate case when `c = d = 0, h ≠ 0`).

use crate::error::{ensure_non_negative, ModelError};

/// Checkpoint (and recovery) cost model `C_P = a + b/P + cP`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointCost {
    /// Constant term `a` (seconds): start-up latency and/or storage-bound I/O time.
    pub a: f64,
    /// Per-processor-share term `b` (seconds × processors): `b/P` is each
    /// processor's share of the transfer when the footprint is distributed.
    pub b: f64,
    /// Linear term `c` (seconds / processor): coordination overhead growing with `P`.
    pub c: f64,
}

impl CheckpointCost {
    /// Builds a general cost model, validating that every coefficient is finite
    /// and non-negative.
    pub fn new(a: f64, b: f64, c: f64) -> Result<Self, ModelError> {
        ensure_non_negative("checkpoint.a", a)?;
        ensure_non_negative("checkpoint.b", b)?;
        ensure_non_negative("checkpoint.c", c)?;
        Ok(Self { a, b, c })
    }

    /// A cost that grows linearly with the processor count: `C_P = cP`
    /// (coordinated checkpointing to stable storage, scenarios 1–2 of Table III).
    pub fn linear(c: f64) -> Self {
        Self { a: 0.0, b: 0.0, c }
    }

    /// A constant cost: `C_P = a` (storage-bandwidth-bound checkpointing,
    /// scenarios 3–4 of Table III).
    pub fn constant(a: f64) -> Self {
        Self { a, b: 0.0, c: 0.0 }
    }

    /// A cost that decreases with the processor count: `C_P = b/P`
    /// (in-memory / network-bound checkpointing, scenarios 5–6 of Table III).
    pub fn per_processor(b: f64) -> Self {
        Self { a: 0.0, b, c: 0.0 }
    }

    /// Evaluates `C_P` for `p` processors.
    pub fn at(&self, p: f64) -> f64 {
        debug_assert!(p > 0.0);
        self.a + self.b / p + self.c * p
    }

    /// True when the cost is identically zero for every `P`.
    pub fn is_zero(&self) -> bool {
        self.a == 0.0 && self.b == 0.0 && self.c == 0.0
    }
}

/// Verification cost model `V_P = v + u/P`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerificationCost {
    /// Constant term `v` (seconds): start-up latency of the detector.
    pub v: f64,
    /// Per-processor-share term `u` (seconds × processors): `u/P` is the time to
    /// verify the application data distributed across `P` processors.
    pub u: f64,
}

impl VerificationCost {
    /// Builds a general verification cost, validating non-negativity.
    pub fn new(v: f64, u: f64) -> Result<Self, ModelError> {
        ensure_non_negative("verification.v", v)?;
        ensure_non_negative("verification.u", u)?;
        Ok(Self { v, u })
    }

    /// A constant verification cost `V_P = v` (scenarios 1, 3, 5).
    pub fn constant(v: f64) -> Self {
        Self { v, u: 0.0 }
    }

    /// A verification cost that decreases with `P`: `V_P = u/P` (scenarios 2, 4, 6).
    pub fn per_processor(u: f64) -> Self {
        Self { v: 0.0, u }
    }

    /// A verification that is free (used to model protocols that only face
    /// fail-stop errors, e.g. the classical Young/Daly setting).
    pub fn zero() -> Self {
        Self { v: 0.0, u: 0.0 }
    }

    /// Evaluates `V_P` for `p` processors.
    pub fn at(&self, p: f64) -> f64 {
        debug_assert!(p > 0.0);
        self.v + self.u / p
    }

    /// True when the verification is free for every `P`.
    pub fn is_zero(&self) -> bool {
        self.v == 0.0 && self.u == 0.0
    }
}

/// The complete set of resilience costs of the VC (verified-checkpoint) protocol:
/// checkpoint `C_P`, recovery `R_P = C_P`, verification `V_P` and the downtime `D`
/// paid after each fail-stop error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceCosts {
    /// Checkpoint cost model (also used for recoveries, `R_P = C_P`).
    pub checkpoint: CheckpointCost,
    /// Verification cost model.
    pub verification: VerificationCost,
    /// Downtime `D` (seconds) after a fail-stop error, while the failed processor
    /// is repaired or replaced. No error of any kind strikes during downtime.
    pub downtime: f64,
}

impl ResilienceCosts {
    /// Builds the resilience cost set, validating the downtime.
    pub fn new(
        checkpoint: CheckpointCost,
        verification: VerificationCost,
        downtime: f64,
    ) -> Result<Self, ModelError> {
        ensure_non_negative("downtime", downtime)?;
        Ok(Self {
            checkpoint,
            verification,
            downtime,
        })
    }

    /// Checkpoint cost `C_P` on `p` processors.
    pub fn checkpoint_at(&self, p: f64) -> f64 {
        self.checkpoint.at(p)
    }

    /// Recovery cost `R_P` on `p` processors. The paper assumes `R_P = C_P`
    /// because a recovery performs the same I/O as a checkpoint.
    pub fn recovery_at(&self, p: f64) -> f64 {
        self.checkpoint.at(p)
    }

    /// Verification cost `V_P` on `p` processors.
    pub fn verification_at(&self, p: f64) -> f64 {
        self.verification.at(p)
    }

    /// Combined `C_P + V_P`, the quantity that enters Theorem 1.
    pub fn checkpoint_plus_verification_at(&self, p: f64) -> f64 {
        self.checkpoint_at(p) + self.verification_at(p)
    }

    /// The constant part `d = a + v` of `C_P + V_P` (Theorem 3's coefficient).
    pub fn d(&self) -> f64 {
        self.checkpoint.a + self.verification.v
    }

    /// The decreasing part `h = b + u` of `C_P + V_P` (case-3 coefficient).
    pub fn h(&self) -> f64 {
        self.checkpoint.b + self.verification.u
    }

    /// The linear coefficient `c` of `C_P` (Theorem 2's coefficient).
    pub fn c(&self) -> f64 {
        self.checkpoint.c
    }

    /// Returns a copy with a different downtime, leaving the cost coefficients
    /// untouched (used by the downtime sweep of Figure 7).
    pub fn with_downtime(mut self, downtime: f64) -> Result<Self, ModelError> {
        ensure_non_negative("downtime", downtime)?;
        self.downtime = downtime;
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn general_cost_evaluates_all_terms() {
        let c = CheckpointCost::new(10.0, 200.0, 0.5).unwrap();
        // 10 + 200/100 + 0.5*100 = 10 + 2 + 50
        assert!((c.at(100.0) - 62.0).abs() < 1e-12);
    }

    #[test]
    fn linear_cost_scales_with_p() {
        let c = CheckpointCost::linear(300.0 / 512.0);
        assert!((c.at(512.0) - 300.0).abs() < 1e-9);
        assert!((c.at(1024.0) - 600.0).abs() < 1e-9);
    }

    #[test]
    fn constant_cost_is_flat() {
        let c = CheckpointCost::constant(439.0);
        assert_eq!(c.at(1.0), 439.0);
        assert_eq!(c.at(1e6), 439.0);
    }

    #[test]
    fn per_processor_cost_decreases() {
        let c = CheckpointCost::per_processor(2500.0 * 2048.0);
        assert!((c.at(2048.0) - 2500.0).abs() < 1e-9);
        assert!(c.at(4096.0) < c.at(2048.0));
    }

    #[test]
    fn negative_coefficients_rejected() {
        assert!(CheckpointCost::new(-1.0, 0.0, 0.0).is_err());
        assert!(CheckpointCost::new(0.0, -1.0, 0.0).is_err());
        assert!(CheckpointCost::new(0.0, 0.0, -1.0).is_err());
        assert!(VerificationCost::new(-1.0, 0.0).is_err());
        assert!(VerificationCost::new(0.0, f64::NAN).is_err());
    }

    #[test]
    fn verification_forms() {
        let v = VerificationCost::constant(15.4);
        assert_eq!(v.at(512.0), 15.4);
        let v = VerificationCost::per_processor(15.4 * 512.0);
        assert!((v.at(512.0) - 15.4).abs() < 1e-9);
        assert!(VerificationCost::zero().is_zero());
    }

    #[test]
    fn recovery_equals_checkpoint() {
        let costs = ResilienceCosts::new(
            CheckpointCost::new(5.0, 100.0, 0.25).unwrap(),
            VerificationCost::constant(2.0),
            3600.0,
        )
        .unwrap();
        for p in [1.0, 32.0, 1000.0] {
            assert_eq!(costs.checkpoint_at(p), costs.recovery_at(p));
        }
    }

    #[test]
    fn aggregate_coefficients() {
        let costs = ResilienceCosts::new(
            CheckpointCost::new(5.0, 100.0, 0.25).unwrap(),
            VerificationCost::new(2.0, 30.0).unwrap(),
            0.0,
        )
        .unwrap();
        assert_eq!(costs.d(), 7.0);
        assert_eq!(costs.h(), 130.0);
        assert_eq!(costs.c(), 0.25);
        let p = 10.0;
        let sum = costs.checkpoint_plus_verification_at(p);
        assert!((sum - (5.0 + 10.0 + 2.5 + 2.0 + 3.0)).abs() < 1e-12);
    }

    #[test]
    fn with_downtime_replaces_only_downtime() {
        let costs = ResilienceCosts::new(
            CheckpointCost::constant(10.0),
            VerificationCost::constant(1.0),
            3600.0,
        )
        .unwrap();
        let other = costs.with_downtime(60.0).unwrap();
        assert_eq!(other.downtime, 60.0);
        assert_eq!(other.checkpoint, costs.checkpoint);
        assert!(costs.with_downtime(-1.0).is_err());
    }
}
