//! Concrete per-pattern simulation parameters.
//!
//! The analytical model works with cost *models* (functions of `P`); the simulator
//! works with the concrete values those models take at a given operating point
//! `(T, P)`. [`PatternParams`] is that flattened view, derived from an
//! [`ayd_core::ExactModel`] via [`PatternParams::from_model`].

use ayd_core::ExactModel;

/// The concrete parameters of one periodic checkpointing pattern at a fixed
/// operating point `(T, P)`. All times are in seconds, all rates in errors per
/// second (already scaled to the full platform of `P` processors).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternParams {
    /// Length `T` of the computation chunk.
    pub work: f64,
    /// Verification cost `V_P`.
    pub verification: f64,
    /// Checkpoint cost `C_P`.
    pub checkpoint: f64,
    /// Recovery cost `R_P`.
    pub recovery: f64,
    /// Downtime `D` after a fail-stop error.
    pub downtime: f64,
    /// Platform fail-stop error rate `λ_f(P)`.
    pub lambda_fail_stop: f64,
    /// Platform silent error rate `λ_s(P)`.
    pub lambda_silent: f64,
    /// Amount of useful work accomplished by one committed pattern, in seconds of
    /// sequential computation: `T · S(P)`.
    pub work_per_pattern: f64,
}

impl PatternParams {
    /// Derives the concrete parameters of the pattern `(t, p)` from an exact
    /// analytical model.
    ///
    /// # Panics
    /// Panics if `t` or `p` is not strictly positive.
    pub fn from_model(model: &ExactModel, t: f64, p: f64) -> Self {
        assert!(t > 0.0, "pattern length must be positive");
        assert!(p > 0.0, "processor count must be positive");
        Self {
            work: t,
            verification: model.costs.verification_at(p),
            checkpoint: model.costs.checkpoint_at(p),
            recovery: model.costs.recovery_at(p),
            downtime: model.costs.downtime,
            lambda_fail_stop: model.failures.fail_stop_rate(p),
            lambda_silent: model.failures.silent_rate(p),
            work_per_pattern: t * model.speedup.speedup(p),
        }
    }

    /// Error-free duration of one pattern: `T + V_P + C_P`.
    pub fn error_free_duration(&self) -> f64 {
        self.work + self.verification + self.checkpoint
    }

    /// Error-free execution overhead of the pattern per unit of sequential work,
    /// `(T + V_P + C_P) / (T · S(P))` — the floor any simulation result must stay
    /// above.
    pub fn error_free_overhead(&self) -> f64 {
        self.error_free_duration() / self.work_per_pattern
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ayd_core::{
        CheckpointCost, FailureModel, ResilienceCosts, SpeedupProfile, VerificationCost,
    };

    fn model() -> ExactModel {
        ExactModel::new(
            SpeedupProfile::amdahl(0.1).unwrap(),
            ResilienceCosts::new(
                CheckpointCost::linear(300.0 / 512.0),
                VerificationCost::constant(15.4),
                3600.0,
            )
            .unwrap(),
            FailureModel::new(1.69e-8, 0.2188).unwrap(),
        )
    }

    #[test]
    fn params_match_model_at_operating_point() {
        let m = model();
        let (t, p) = (6_000.0, 512.0);
        let params = PatternParams::from_model(&m, t, p);
        assert_eq!(params.work, t);
        assert!((params.checkpoint - 300.0).abs() < 1e-9);
        assert!((params.verification - 15.4).abs() < 1e-12);
        assert_eq!(params.recovery, params.checkpoint);
        assert_eq!(params.downtime, 3600.0);
        assert!((params.lambda_fail_stop - 0.2188 * 1.69e-8 * 512.0).abs() < 1e-18);
        assert!((params.lambda_silent - 0.7812 * 1.69e-8 * 512.0).abs() < 1e-18);
        assert!((params.work_per_pattern - t * m.speedup.speedup(p)).abs() < 1e-9);
    }

    #[test]
    fn error_free_overhead_is_above_amdahl_floor() {
        let m = model();
        let params = PatternParams::from_model(&m, 6_000.0, 512.0);
        // Must exceed H(P) = α + (1-α)/P but stay close to it for a long pattern.
        let floor = 0.1 + 0.9 / 512.0;
        let h = params.error_free_overhead();
        assert!(h > floor);
        assert!(h < floor * 1.2);
    }

    #[test]
    #[should_panic(expected = "pattern length")]
    fn rejects_zero_length_pattern() {
        let _ = PatternParams::from_model(&model(), 0.0, 512.0);
    }

    #[test]
    #[should_panic(expected = "processor count")]
    fn rejects_zero_processors() {
        let _ = PatternParams::from_model(&model(), 100.0, 0.0);
    }
}
