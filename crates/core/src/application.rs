//! Application-level makespan projection.
//!
//! An application is characterised by its total amount of sequential work
//! `W_total` (seconds of single-processor computation) and a speedup profile.
//! Under the VC protocol the application is divided into periodic patterns of
//! length `T` on `P` processors; each pattern performs `W_pattern = T · S(P)`
//! units of work, so a long-lasting application comprises
//! `W_total / (T · S(P))` patterns and its expected makespan is
//!
//! ```text
//! E(W_final) ≈ E(PATTERN) · W_total / (T · S(P)) = H(PATTERN) · W_total .
//! ```

use crate::error::{ensure_positive, ModelError};
use crate::pattern::ExactModel;

/// An HPC application: total sequential work plus the model used to execute it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Application {
    /// Total amount of work `W_total`, expressed in seconds of sequential
    /// computation.
    pub total_work: f64,
}

/// Projection of an application onto a concrete pattern `(T, P)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MakespanProjection {
    /// Number of patterns needed to complete the application (fractional; the
    /// paper's long-application approximation).
    pub patterns: f64,
    /// Error-free makespan `H(P) · W_total` (seconds), without any resilience
    /// cost.
    pub error_free_makespan: f64,
    /// Expected makespan `H(PATTERN) · W_total` (seconds) under the VC protocol
    /// with both error sources.
    pub expected_makespan: f64,
    /// Expected execution overhead of the pattern, `H(PATTERN)` (the figure-of-
    /// merit of the paper: expected seconds per second of sequential work).
    pub expected_overhead: f64,
}

impl Application {
    /// Creates an application from its total sequential work (seconds).
    pub fn new(total_work: f64) -> Result<Self, ModelError> {
        ensure_positive("total_work", total_work)?;
        Ok(Self { total_work })
    }

    /// Convenience constructor: an application whose *error-free parallel*
    /// execution on `p` processors would last `wall_clock` seconds under the
    /// model's speedup profile.
    pub fn from_wall_clock(
        model: &ExactModel,
        wall_clock: f64,
        p: f64,
    ) -> Result<Self, ModelError> {
        ensure_positive("wall_clock", wall_clock)?;
        ensure_positive("processors", p)?;
        Self::new(wall_clock * model.speedup.speedup(p))
    }

    /// Projects the expected makespan of the application when executed with the
    /// pattern `(t, p)` under `model`.
    pub fn project(&self, model: &ExactModel, t: f64, p: f64) -> MakespanProjection {
        let speedup = model.speedup.speedup(p);
        let patterns = self.total_work / (t * speedup);
        let expected_overhead = model.expected_overhead(t, p);
        MakespanProjection {
            patterns,
            error_free_makespan: model.speedup.overhead(p) * self.total_work,
            expected_makespan: expected_overhead * self.total_work,
            expected_overhead,
        }
    }

    /// The number of patterns the application spans for a pattern `(t, p)`.
    pub fn pattern_count(&self, model: &ExactModel, t: f64, p: f64) -> f64 {
        self.total_work / (t * model.speedup.speedup(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CheckpointCost, ResilienceCosts, VerificationCost};
    use crate::failure::FailureModel;
    use crate::speedup::SpeedupProfile;

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
    fn projection_is_consistent_with_overhead() {
        let m = model();
        // One week of sequential work.
        let app = Application::new(7.0 * 86_400.0).unwrap();
        let proj = app.project(&m, 6_000.0, 400.0);
        assert!((proj.expected_makespan - proj.expected_overhead * app.total_work).abs() < 1e-6);
        assert!(proj.expected_makespan > proj.error_free_makespan);
        assert!(proj.patterns > 1.0);
    }

    #[test]
    fn from_wall_clock_round_trips() {
        let m = model();
        let p = 512.0;
        let app = Application::from_wall_clock(&m, 86_400.0, p).unwrap();
        // Error-free makespan on the same processor count equals the wall clock.
        let proj = app.project(&m, 6_000.0, p);
        assert!((proj.error_free_makespan - 86_400.0).abs() < 1e-6);
    }

    #[test]
    fn pattern_count_matches_definition() {
        let m = model();
        let app = Application::new(1e6).unwrap();
        let (t, p) = (5_000.0, 400.0);
        let n = app.pattern_count(&m, t, p);
        assert!((n - 1e6 / (t * m.speedup.speedup(p))).abs() < 1e-9);
    }

    #[test]
    fn rejects_non_positive_work() {
        assert!(Application::new(0.0).is_err());
        assert!(Application::new(-1.0).is_err());
        assert!(Application::from_wall_clock(&model(), 0.0, 10.0).is_err());
    }
}
