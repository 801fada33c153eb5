//! Failure model: fail-stop and silent error rates.
//!
//! Each individual processor suffers errors (of both kinds combined) at rate
//! `λ_ind = 1/µ_ind`, where `µ_ind` is its MTBF. A fraction `f` of those errors are
//! fail-stop (hardware crashes, detected immediately) and the remaining `s = 1 - f`
//! are silent data corruptions (detected only by a verification). Both arrival
//! processes are exponential and independent, so on `P` processors
//! (see [Hérault & Robert 2015, Prop. 1.2]):
//!
//! ```text
//! λ_f(P) = f · λ_ind · P       (fail-stop errors)
//! λ_s(P) = s · λ_ind · P       (silent errors)
//! ```
//!
//! The probability of at least one fail-stop error during a window of length `t`
//! is `q_f(t) = 1 - exp(-λ_f t)`, and similarly for silent errors.

use crate::error::{ensure_fraction, ensure_positive, ModelError};

/// Failure model of an individual processor and its projection onto a platform
/// of `P` processors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureModel {
    /// Individual-processor error rate `λ_ind` (errors per second), all sources
    /// combined.
    pub lambda_ind: f64,
    /// Fraction `f ∈ [0, 1]` of errors that are fail-stop; the remaining `1 - f`
    /// are silent.
    pub fail_stop_fraction: f64,
}

impl FailureModel {
    /// Builds a failure model from the individual error rate and the fail-stop
    /// fraction.
    pub fn new(lambda_ind: f64, fail_stop_fraction: f64) -> Result<Self, ModelError> {
        ensure_positive("lambda_ind", lambda_ind)?;
        ensure_fraction("fail_stop_fraction", fail_stop_fraction)?;
        Ok(Self {
            lambda_ind,
            fail_stop_fraction,
        })
    }

    /// Builds a failure model from the individual MTBF `µ_ind` (seconds) instead
    /// of the rate.
    pub fn from_mtbf(mtbf_ind: f64, fail_stop_fraction: f64) -> Result<Self, ModelError> {
        ensure_positive("mtbf_ind", mtbf_ind)?;
        Self::new(1.0 / mtbf_ind, fail_stop_fraction)
    }

    /// Returns a copy with a different individual error rate (used by the
    /// `λ_ind` sweeps of Figures 5 and 6).
    pub fn with_lambda_ind(mut self, lambda_ind: f64) -> Result<Self, ModelError> {
        ensure_positive("lambda_ind", lambda_ind)?;
        self.lambda_ind = lambda_ind;
        Ok(self)
    }

    /// The silent-error fraction `s = 1 - f`.
    pub fn silent_fraction(&self) -> f64 {
        1.0 - self.fail_stop_fraction
    }

    /// Individual-processor MTBF `µ_ind = 1/λ_ind` (seconds).
    pub fn mtbf_ind(&self) -> f64 {
        1.0 / self.lambda_ind
    }

    /// Fail-stop error rate on `p` processors: `λ_f(P) = f · λ_ind · P`.
    pub fn fail_stop_rate(&self, p: f64) -> f64 {
        debug_assert!(p > 0.0);
        self.fail_stop_fraction * self.lambda_ind * p
    }

    /// Silent error rate on `p` processors: `λ_s(P) = (1 - f) · λ_ind · P`.
    pub fn silent_rate(&self, p: f64) -> f64 {
        debug_assert!(p > 0.0);
        self.silent_fraction() * self.lambda_ind * p
    }

    /// Total error rate on `p` processors, both sources combined: `λ_ind · P`.
    pub fn total_rate(&self, p: f64) -> f64 {
        self.lambda_ind * p
    }

    /// Platform MTBF on `p` processors: `µ_ind / P`.
    pub fn platform_mtbf(&self, p: f64) -> f64 {
        self.mtbf_ind() / p
    }

    /// Probability of at least one fail-stop error during a window of length
    /// `t` seconds on `p` processors: `1 - exp(-λ_f(P) t)`.
    pub fn fail_stop_probability(&self, p: f64, t: f64) -> f64 {
        probability_of_error(self.fail_stop_rate(p), t)
    }

    /// Probability of at least one silent error during a computation of length
    /// `t` seconds on `p` processors: `1 - exp(-λ_s(P) t)`.
    pub fn silent_probability(&self, p: f64, t: f64) -> f64 {
        probability_of_error(self.silent_rate(p), t)
    }

    /// Expected time lost when a fail-stop error interrupts a window of length
    /// `w`, conditioned on the error striking within the window:
    ///
    /// ```text
    /// E_lost(w) = 1/λ_f - w / (exp(λ_f w) - 1)
    /// ```
    ///
    /// (Section III.A of the paper). For `λ_f w → 0` this tends to `w/2`, the
    /// uniform-interruption intuition.
    pub fn expected_time_lost(&self, p: f64, w: f64) -> f64 {
        expected_time_lost(self.fail_stop_rate(p), w)
    }

    /// The effective rate `λ_f(P)/2 + λ_s(P) = (f/2 + s) λ_ind P` that appears in
    /// the denominator of the generalised Young/Daly period (Theorem 1).
    pub fn effective_rate(&self, p: f64) -> f64 {
        self.fail_stop_rate(p) / 2.0 + self.silent_rate(p)
    }

    /// The per-processor effective rate factor `(f/2 + s) λ_ind`, the quantity the
    /// closed forms of Theorems 2 and 3 depend on.
    pub fn effective_rate_factor(&self) -> f64 {
        (self.fail_stop_fraction / 2.0 + self.silent_fraction()) * self.lambda_ind
    }
}

/// Probability of at least one arrival of a Poisson process of rate `rate` in a
/// window of length `t`.
pub fn probability_of_error(rate: f64, t: f64) -> f64 {
    debug_assert!(rate >= 0.0 && t >= 0.0);
    // `exp_m1` keeps precision when `rate * t` is tiny (the common HPC regime).
    -(-rate * t).exp_m1()
}

/// Expected time lost before an interruption within a window of length `w`, for a
/// Poisson process of rate `rate`, conditioned on at least one arrival in the
/// window: `1/rate - w/(exp(rate*w) - 1)`.
pub fn expected_time_lost(rate: f64, w: f64) -> f64 {
    debug_assert!(rate >= 0.0 && w >= 0.0);
    if w == 0.0 {
        return 0.0;
    }
    let x = rate * w;
    if x < 1e-4 {
        // Series expansion E_lost ≈ w/2 - x·w/12 + x³·w/720 ; avoids the
        // catastrophic cancellation between 1/rate and w/(e^x - 1) when x is
        // tiny (both terms are then ~1/rate and their difference ~w/2).
        return w / 2.0 - x * w / 12.0 + x * x * x * w / 720.0;
    }
    1.0 / rate - w / x.exp_m1()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hera() -> FailureModel {
        FailureModel::new(1.69e-8, 0.2188).unwrap()
    }

    #[test]
    fn rates_scale_linearly_with_p() {
        let m = hera();
        let p = 512.0;
        assert!((m.fail_stop_rate(p) - 0.2188 * 1.69e-8 * 512.0).abs() < 1e-18);
        assert!((m.silent_rate(p) - 0.7812 * 1.69e-8 * 512.0).abs() < 1e-18);
        assert!((m.total_rate(p) - (m.fail_stop_rate(p) + m.silent_rate(p))).abs() < 1e-18);
    }

    #[test]
    fn platform_mtbf_divides_by_p() {
        let m = hera();
        assert!((m.platform_mtbf(100.0) - m.mtbf_ind() / 100.0).abs() < 1e-6);
    }

    #[test]
    fn from_mtbf_round_trips() {
        let m = FailureModel::from_mtbf(1.0e8, 0.3).unwrap();
        assert!((m.lambda_ind - 1.0e-8).abs() < 1e-20);
        assert!((m.mtbf_ind() - 1.0e8).abs() < 1e-3);
    }

    #[test]
    fn fractions_sum_to_one() {
        let m = hera();
        assert!((m.fail_stop_fraction + m.silent_fraction() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(FailureModel::new(0.0, 0.5).is_err());
        assert!(FailureModel::new(-1e-8, 0.5).is_err());
        assert!(FailureModel::new(1e-8, 1.5).is_err());
        assert!(FailureModel::from_mtbf(0.0, 0.5).is_err());
    }

    #[test]
    fn probability_is_a_probability() {
        let m = hera();
        for t in [0.0, 1.0, 1e3, 1e9, 1e15] {
            let q = m.fail_stop_probability(1000.0, t);
            assert!((0.0..=1.0).contains(&q), "q={q} for t={t}");
        }
        assert_eq!(m.fail_stop_probability(1000.0, 0.0), 0.0);
    }

    #[test]
    fn probability_matches_direct_formula_for_moderate_arguments() {
        let q = probability_of_error(1e-3, 500.0);
        let direct = 1.0 - (-0.5f64).exp();
        assert!((q - direct).abs() < 1e-12);
    }

    #[test]
    fn expected_time_lost_tends_to_half_window() {
        // For rates much smaller than 1/w the conditional loss is ~ w/2.
        let lost = expected_time_lost(1e-12, 1000.0);
        assert!((lost - 500.0).abs() < 1e-3, "lost={lost}");
    }

    #[test]
    fn expected_time_lost_is_below_window_and_positive() {
        for rate in [1e-9, 1e-6, 1e-3, 1.0] {
            for w in [1.0, 100.0, 1e5] {
                let lost = expected_time_lost(rate, w);
                assert!(lost > 0.0, "rate={rate} w={w}");
                assert!(lost < w, "rate={rate} w={w} lost={lost}");
            }
        }
    }

    #[test]
    fn expected_time_lost_series_matches_exact_at_crossover() {
        // The series branch (x < 1e-8) and the exact branch must agree around the
        // crossover point.
        let w = 1.0e4;
        let rate_below = 0.99e-8; // x ≈ 0.99e-4 → series branch
        let rate_above = 1.01e-8; // x ≈ 1.01e-4 → exact branch
        let a = expected_time_lost(rate_below, w);
        let b = expected_time_lost(rate_above, w);
        // Both branches approximate w/2 minus a small correction; they must agree
        // far better than the size of that correction (x·w/12 ≈ 0.08 s here).
        assert!((a - b).abs() < 1e-2, "a={a} b={b}");
    }

    #[test]
    fn effective_rate_combines_both_sources() {
        let m = hera();
        let p = 512.0;
        let expected = m.fail_stop_rate(p) / 2.0 + m.silent_rate(p);
        assert!((m.effective_rate(p) - expected).abs() < 1e-20);
        assert!((m.effective_rate(p) - m.effective_rate_factor() * p).abs() < 1e-18);
    }

    #[test]
    fn with_lambda_ind_changes_only_rate() {
        let m = hera().with_lambda_ind(1e-10).unwrap();
        assert_eq!(m.lambda_ind, 1e-10);
        assert_eq!(m.fail_stop_fraction, 0.2188);
        assert!(hera().with_lambda_ind(0.0).is_err());
    }
}
