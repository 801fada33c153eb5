//! Exact expected execution time of a periodic checkpointing pattern.
//!
//! A pattern `PATTERN(T, P)` is a chunk of `T` seconds of useful computation on
//! `P` processors, followed by a verification `V_P` and a checkpoint `C_P`
//! (the *VC protocol*). Fail-stop errors can strike at any time except during the
//! downtime `D`; silent errors strike only the computation and are detected by the
//! verification at the end of the pattern. After a fail-stop error the platform
//! pays a downtime `D` and a recovery `R_P`; after a detected silent error it pays
//! only a recovery.
//!
//! [`ExactModel`] implements Proposition 1 of the paper in two independent ways:
//!
//! 1. **Component recurrences** — solving the expectations `E(R_P)`, `E(T + V_P)`
//!    and `E(C_P)` exactly as in the proof (this is the primary, numerically robust
//!    path, written with `exp_m1` so it remains accurate when `λ · x` is tiny).
//! 2. **Closed form** — Eq. (2) of the paper, transcribed verbatim.
//!
//! The two paths agree to machine precision (see the module tests and the
//! property tests in `tests/`), which guards against transcription errors.
//!
//! The optimisers evaluate the component path through [`ModelAt`], the model
//! at one processor count ([`ExactModel::at`]): every term that depends on `P`
//! alone is evaluated once, so each period `T` costs only the three
//! `T`-dependent exponentials. The terms are the component methods' own
//! expressions in the same association order, so the kernel is bit-identical
//! to them, and they stay as its oracle.
//!
//! Note: the intermediate expression for `E(T + V_P)` printed in the paper's proof
//! contains a spurious `e^{λ_s(T+V)}(T+V)` term; re-deriving the recurrence shows
//! that the term cancels and the final Eq. (2) is unaffected. See DESIGN.md.

use crate::cost::ResilienceCosts;
use crate::failure::FailureModel;
use crate::speedup::SpeedupProfile;

/// The exact analytical model of the VC protocol for a given application speedup
/// profile, resilience cost set and failure model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactModel {
    /// Application speedup profile `S(P)`.
    pub speedup: SpeedupProfile,
    /// Resilience costs (`C_P`, `R_P`, `V_P`, `D`).
    pub costs: ResilienceCosts,
    /// Failure model (`λ_ind`, fail-stop fraction `f`).
    pub failures: FailureModel,
}

/// Breakdown of the expected execution time of a pattern into its three
/// components, as in the proof of Proposition 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PatternBreakdown {
    /// Expected time to successfully execute the work chunk and the verification,
    /// `E(T + V_P)`.
    pub work_and_verification: f64,
    /// Expected time to successfully store the checkpoint, `E(C_P)`.
    pub checkpoint: f64,
    /// Expected time of a single successful recovery, `E(R_P)` (not part of the
    /// pattern total; recoveries are already accounted for inside the other two
    /// components, but the value is useful for diagnostics).
    pub recovery: f64,
}

impl PatternBreakdown {
    /// Total expected pattern time `E(PATTERN) = E(T + V_P) + E(C_P)`.
    pub fn total(&self) -> f64 {
        self.work_and_verification + self.checkpoint
    }
}

impl ExactModel {
    /// Builds the exact model from its three ingredients.
    pub fn new(speedup: SpeedupProfile, costs: ResilienceCosts, failures: FailureModel) -> Self {
        Self {
            speedup,
            costs,
            failures,
        }
    }

    /// `(1/λ_f + D) · (exp(λ_f · x) - 1)`, computed so that the `λ_f → 0` limit
    /// (`= x`) is exact and small arguments do not lose precision.
    fn a_expm1(&self, lambda_f: f64, x: f64) -> f64 {
        if lambda_f == 0.0 {
            x
        } else {
            (1.0 / lambda_f + self.costs.downtime) * (lambda_f * x).exp_m1()
        }
    }

    /// Expected time to perform one successful recovery, `E(R_P)`, accounting for
    /// fail-stop errors striking during the recovery itself:
    /// `E(R_P) = (1/λ_f + D)(exp(λ_f R_P) - 1)`.
    pub fn expected_recovery_time(&self, p: f64) -> f64 {
        let lambda_f = self.failures.fail_stop_rate(p);
        let r = self.costs.recovery_at(p);
        self.a_expm1(lambda_f, r)
    }

    /// Expected time to successfully execute the work chunk and the verification,
    /// `E(T + V_P)`, accounting for fail-stop errors (anywhere in `T + V_P`) and
    /// silent errors (in `T` only, detected by the verification):
    ///
    /// ```text
    /// E(T+V) = e^{λ_s T} (e^{λ_f (T+V)} - 1)(1/λ_f + D)
    ///        + (e^{λ_f (T+V) + λ_s T} - 1) E(R)
    /// ```
    pub fn expected_work_and_verification_time(&self, t: f64, p: f64) -> f64 {
        let lambda_f = self.failures.fail_stop_rate(p);
        let lambda_s = self.failures.silent_rate(p);
        let v = self.costs.verification_at(p);
        let w = t + v;
        let e_r = self.expected_recovery_time(p);
        let silent_factor = (lambda_s * t).exp();
        silent_factor * self.a_expm1(lambda_f, w) + (lambda_f * w + lambda_s * t).exp_m1() * e_r
    }

    /// Expected time to successfully store the checkpoint, `E(C_P)`. If a
    /// fail-stop error strikes during the checkpoint the pattern rolls back and
    /// must re-execute the recovery, the work chunk, the verification and the
    /// checkpoint:
    /// `E(C_P) = (e^{λ_f C_P} - 1)(1/λ_f + D + E(R_P) + E(T + V_P))`.
    pub fn expected_checkpoint_time(&self, t: f64, p: f64) -> f64 {
        let lambda_f = self.failures.fail_stop_rate(p);
        let c = self.costs.checkpoint_at(p);
        if lambda_f == 0.0 {
            return c;
        }
        let e_r = self.expected_recovery_time(p);
        let e_wv = self.expected_work_and_verification_time(t, p);
        (lambda_f * c).exp_m1() * (1.0 / lambda_f + self.costs.downtime + e_r + e_wv)
    }

    /// The model at processor count `p`, for evaluating many periods there:
    /// each [`ModelAt`] evaluation skips the terms that depend on `p` alone.
    pub fn at(&self, p: f64) -> ModelAt {
        let lambda_f = self.failures.fail_stop_rate(p);
        let checkpoint = self.costs.checkpoint_at(p);
        let a = 1.0 / lambda_f + self.costs.downtime;
        let recovery = self.expected_recovery_time(p);
        ModelAt {
            lambda_f,
            lambda_s: self.failures.silent_rate(p),
            verification: self.costs.verification_at(p),
            checkpoint,
            a,
            recovery,
            checkpoint_expm1: (lambda_f * checkpoint).exp_m1(),
            rollback: a + recovery,
            h_p: self.speedup.overhead(p),
        }
    }

    /// Expected execution time of the pattern, `E(PATTERN) = E(T+V_P) + E(C_P)`,
    /// computed through the component recurrences (the numerically robust path)
    /// by [`ModelAt::pattern_time`].
    pub fn expected_pattern_time(&self, t: f64, p: f64) -> f64 {
        debug_assert!(t > 0.0 && p > 0.0);
        self.at(p).pattern_time(t)
    }

    /// Full component breakdown of the expected pattern time, computed by the
    /// component methods themselves: the oracle of [`ModelAt`].
    pub fn pattern_breakdown(&self, t: f64, p: f64) -> PatternBreakdown {
        PatternBreakdown {
            work_and_verification: self.expected_work_and_verification_time(t, p),
            checkpoint: self.expected_checkpoint_time(t, p),
            recovery: self.expected_recovery_time(p),
        }
    }

    /// Expected execution time of the pattern computed with the closed form of
    /// Eq. (2) in the paper:
    ///
    /// ```text
    /// E = (1/λ_f + D) ( e^{λ_f C}(1 - e^{λ_s T})
    ///                 + e^{λ_f R}(e^{λ_f (C+T+V) + λ_s T} - 1) )
    /// ```
    ///
    /// This form requires a strictly positive fail-stop rate (`f > 0`); it exists
    /// for cross-validation against [`ExactModel::expected_pattern_time`] and is
    /// not used by the optimisers.
    pub fn expected_pattern_time_closed_form(&self, t: f64, p: f64) -> f64 {
        let lambda_f = self.failures.fail_stop_rate(p);
        assert!(
            lambda_f > 0.0,
            "the closed form of Eq. (2) requires a positive fail-stop rate; \
             use expected_pattern_time() which handles the f = 0 limit"
        );
        let lambda_s = self.failures.silent_rate(p);
        let c = self.costs.checkpoint_at(p);
        let r = self.costs.recovery_at(p);
        let v = self.costs.verification_at(p);
        let a = 1.0 / lambda_f + self.costs.downtime;
        let term1 = (lambda_f * c).exp() * (1.0 - (lambda_s * t).exp());
        let term2 = (lambda_f * r).exp() * ((lambda_f * (c + t + v) + lambda_s * t).exp() - 1.0);
        a * (term1 + term2)
    }

    /// Expected speedup of the pattern,
    /// `S(PATTERN) = T · S(P) / E(PATTERN)`: useful work per unit of expected
    /// wall-clock time, in units of sequential work.
    pub fn expected_speedup(&self, t: f64, p: f64) -> f64 {
        t * self.speedup.speedup(p) / self.expected_pattern_time(t, p)
    }

    /// Expected execution overhead of the pattern,
    /// `H(PATTERN) = 1 / S(PATTERN) = E(PATTERN) · H(P) / T`: expected wall-clock
    /// seconds per second of sequential work. This is the quantity the paper
    /// minimises and plots in every figure; [`ModelAt::overhead`] computes it.
    pub fn expected_overhead(&self, t: f64, p: f64) -> f64 {
        debug_assert!(t > 0.0 && p > 0.0);
        self.at(p).overhead(t)
    }

    /// Error-free overhead of the pattern (the same work, verification and
    /// checkpoint but no errors): `(T + V_P + C_P) · H(P) / T`. Useful as a lower
    /// bound sanity check.
    pub fn error_free_overhead(&self, t: f64, p: f64) -> f64 {
        (t + self.costs.verification_at(p) + self.costs.checkpoint_at(p)) * self.speedup.overhead(p)
            / t
    }

    /// Returns a copy of the model with a different failure model (used by the
    /// `λ_ind` sweeps).
    pub fn with_failures(mut self, failures: FailureModel) -> Self {
        self.failures = failures;
        self
    }

    /// Returns a copy of the model with different resilience costs (used by the
    /// downtime sweep).
    pub fn with_costs(mut self, costs: ResilienceCosts) -> Self {
        self.costs = costs;
        self
    }
}

/// The exact model at one processor count `P`: the terms of Proposition 1
/// that depend on `P` alone, evaluated once by [`ExactModel::at`].
///
/// [`ModelAt::pattern_time`] and [`ModelAt::overhead`] then evaluate only the
/// three exponentials that depend on `T` — `e^{λ_s T}`, `e^{λ_f (T+V_P)} - 1`
/// and `e^{λ_f (T+V_P) + λ_s T} - 1` — against ten for the component methods,
/// which compute `E(T + V_P)` twice and `E(R_P)` three times. Every value is
/// the component methods' floating-point expression in the same association
/// order, `λ_f = 0` branches included, so the results are bit-identical to
/// `(E(T+V_P) + E(C_P)) · H(P) / T` through
/// [`ExactModel::expected_work_and_verification_time`] and
/// [`ExactModel::expected_checkpoint_time`].
#[derive(Debug, Clone, Copy)]
pub struct ModelAt {
    /// Fail-stop error rate `λ_f(P)`.
    lambda_f: f64,
    /// Silent error rate `λ_s(P)`.
    lambda_s: f64,
    /// Verification cost `V_P`.
    verification: f64,
    /// Checkpoint cost `C_P` (also the recovery cost `R_P`).
    checkpoint: f64,
    /// `1/λ_f + D` (infinite when `λ_f = 0`, where it is never used).
    a: f64,
    /// Expected recovery time `E(R_P)`.
    recovery: f64,
    /// `e^{λ_f C_P} - 1`.
    checkpoint_expm1: f64,
    /// `1/λ_f + D + E(R_P)`, the part of `E(C_P)`'s rollback that does not
    /// depend on `T`.
    rollback: f64,
    /// Error-free overhead `H(P) = 1/S(P)`.
    h_p: f64,
}

impl ModelAt {
    /// Expected time to execute the work chunk and the verification,
    /// `E(T + V_P)`: [`ExactModel::expected_work_and_verification_time`].
    fn work_and_verification(&self, t: f64) -> f64 {
        let w = t + self.verification;
        let work = if self.lambda_f == 0.0 {
            w
        } else {
            self.a * (self.lambda_f * w).exp_m1()
        };
        (self.lambda_s * t).exp() * work
            + (self.lambda_f * w + self.lambda_s * t).exp_m1() * self.recovery
    }

    /// Expected pattern time `E(PATTERN) = E(T+V_P) + E(C_P)`; bit-identical
    /// to the sum of the component methods. With `C_P = 0` and an overflowing
    /// `E(T+V_P)`, `E(C_P)` is `0 · ∞`, and the result NaN, as on the
    /// component path.
    pub fn pattern_time(&self, t: f64) -> f64 {
        let work_and_verification = self.work_and_verification(t);
        let checkpoint = if self.lambda_f == 0.0 {
            self.checkpoint
        } else {
            self.checkpoint_expm1 * (self.rollback + work_and_verification)
        };
        work_and_verification + checkpoint
    }

    /// Expected execution overhead `H(PATTERN) = E(PATTERN) · H(P) / T`.
    pub fn overhead(&self, t: f64) -> f64 {
        self.pattern_time(t) * self.h_p / t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CheckpointCost, VerificationCost};

    /// Hera-like model under scenario 1 (C_P = cP, V_P = v).
    fn hera_scenario1() -> ExactModel {
        let failures = FailureModel::new(1.69e-8, 0.2188).unwrap();
        let costs = ResilienceCosts::new(
            CheckpointCost::linear(300.0 / 512.0),
            VerificationCost::constant(15.4),
            3600.0,
        )
        .unwrap();
        ExactModel::new(SpeedupProfile::amdahl(0.1).unwrap(), costs, failures)
    }

    #[test]
    fn components_and_closed_form_agree() {
        let m = hera_scenario1();
        for t in [100.0, 1_000.0, 10_000.0, 100_000.0] {
            for p in [1.0, 64.0, 512.0, 4096.0] {
                let a = m.expected_pattern_time(t, p);
                let b = m.expected_pattern_time_closed_form(t, p);
                let rel = (a - b).abs() / b.abs();
                assert!(rel < 1e-9, "t={t} p={p}: components={a} closed={b}");
            }
        }
    }

    #[test]
    fn error_free_limit_recovers_raw_costs() {
        // With a vanishing error rate the expected time tends to T + V + C.
        let m = hera_scenario1();
        let m = m.with_failures(FailureModel::new(1e-30, 0.2188).unwrap());
        let (t, p) = (5_000.0, 512.0);
        let expect = t + m.costs.verification_at(p) + m.costs.checkpoint_at(p);
        let got = m.expected_pattern_time(t, p);
        assert!(
            (got - expect).abs() / expect < 1e-9,
            "got={got} expect={expect}"
        );
    }

    #[test]
    fn expected_time_exceeds_error_free_time() {
        let m = hera_scenario1();
        for t in [500.0, 5_000.0, 50_000.0] {
            for p in [16.0, 512.0, 8192.0] {
                let floor = t + m.costs.verification_at(p) + m.costs.checkpoint_at(p);
                assert!(m.expected_pattern_time(t, p) > floor);
            }
        }
    }

    #[test]
    fn expected_time_increases_with_error_rate() {
        let base = hera_scenario1();
        let worse = base.with_failures(FailureModel::new(1.69e-7, 0.2188).unwrap());
        let (t, p) = (5_000.0, 512.0);
        assert!(worse.expected_pattern_time(t, p) > base.expected_pattern_time(t, p));
    }

    #[test]
    fn expected_time_increases_with_downtime() {
        let base = hera_scenario1();
        let longer = base.with_costs(base.costs.with_downtime(7200.0).unwrap());
        let (t, p) = (5_000.0, 512.0);
        assert!(longer.expected_pattern_time(t, p) > base.expected_pattern_time(t, p));
    }

    #[test]
    fn pure_silent_errors_handled_without_closed_form() {
        // f = 0 → no fail-stop errors; E = e^{λs T}(T + V) + (e^{λs T} - 1) R + C.
        let failures = FailureModel::new(1e-6, 0.0).unwrap();
        let costs = ResilienceCosts::new(
            CheckpointCost::constant(100.0),
            VerificationCost::constant(10.0),
            3600.0,
        )
        .unwrap();
        let m = ExactModel::new(SpeedupProfile::amdahl(0.1).unwrap(), costs, failures);
        let (t, p) = (10_000.0, 100.0);
        let lambda_s = failures.silent_rate(p);
        let expected =
            (lambda_s * t).exp() * (t + 10.0) + ((lambda_s * t).exp() - 1.0) * 100.0 + 100.0;
        let got = m.expected_pattern_time(t, p);
        assert!(
            (got - expected).abs() / expected < 1e-12,
            "got={got} expected={expected}"
        );
    }

    #[test]
    fn pure_fail_stop_errors_match_textbook_recurrence() {
        // s = 0 → classical checkpoint/restart; verify against a direct evaluation
        // of the known formula E = (1/λ + D)(e^{λ R} - 1)(e^{λ(T+V+C)})
        //                         + (1/λ + D)(e^{λ(T+V+C)} - 1)   [derived]
        // Easier: compare component path against closed form, which is already a
        // different derivation.
        let failures = FailureModel::new(1e-7, 1.0).unwrap();
        let costs = ResilienceCosts::new(
            CheckpointCost::constant(300.0),
            VerificationCost::zero(),
            1800.0,
        )
        .unwrap();
        let m = ExactModel::new(SpeedupProfile::amdahl(0.05).unwrap(), costs, failures);
        let (t, p) = (20_000.0, 256.0);
        let a = m.expected_pattern_time(t, p);
        let b = m.expected_pattern_time_closed_form(t, p);
        assert!((a - b).abs() / b < 1e-10);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let m = hera_scenario1();
        let (t, p) = (3_000.0, 512.0);
        let bd = m.pattern_breakdown(t, p);
        assert!((bd.total() - m.expected_pattern_time(t, p)).abs() < 1e-9);
        assert!(bd.work_and_verification > t);
        assert!(bd.checkpoint > 0.0);
        assert!(bd.recovery > m.costs.recovery_at(p));
    }

    #[test]
    fn overhead_matches_definition() {
        let m = hera_scenario1();
        let (t, p) = (4_000.0, 512.0);
        let e = m.expected_pattern_time(t, p);
        let h = m.expected_overhead(t, p);
        let s = m.expected_speedup(t, p);
        assert!((h - e * m.speedup.overhead(p) / t).abs() < 1e-12);
        assert!(
            (h * s - 1.0).abs() < 1e-12,
            "overhead is the reciprocal of speedup"
        );
    }

    #[test]
    fn overhead_near_alpha_for_reasonable_operating_point() {
        // At a sensible (T, P) for Hera/scenario-1 the overhead should be a little
        // above α = 0.1 (the paper reports ≈ 0.11 at the optimum).
        let m = hera_scenario1();
        let h = m.expected_overhead(6_000.0, 350.0);
        assert!(h > 0.1 && h < 0.2, "h={h}");
    }

    #[test]
    fn error_free_overhead_is_a_lower_bound() {
        let m = hera_scenario1();
        for t in [1_000.0, 10_000.0] {
            for p in [64.0, 512.0] {
                assert!(m.expected_overhead(t, p) > m.error_free_overhead(t, p));
            }
        }
    }

    #[test]
    #[should_panic(expected = "closed form")]
    fn closed_form_panics_without_fail_stop_errors() {
        let failures = FailureModel::new(1e-6, 0.0).unwrap();
        let costs = ResilienceCosts::new(
            CheckpointCost::constant(100.0),
            VerificationCost::constant(10.0),
            0.0,
        )
        .unwrap();
        let m = ExactModel::new(SpeedupProfile::amdahl(0.1).unwrap(), costs, failures);
        let _ = m.expected_pattern_time_closed_form(1000.0, 10.0);
    }
}
