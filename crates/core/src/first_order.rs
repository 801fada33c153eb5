//! First-order approximations: optimal period (Theorem 1) and joint optimal
//! processor allocation / period (Theorems 2 and 3, cases 3 and 4).
//!
//! The first-order analysis expands the exact expectation of
//! [`crate::pattern::ExactModel`] in Taylor series around small `λ · x` products,
//! which is legitimate as long as the processor count and the period stay within
//! the validity region of Section III.B (see [`crate::regimes::ValidityBounds`]).
//! The resulting closed forms are:
//!
//! * **Theorem 1** (fixed `P`): `T*_P = sqrt((V_P + C_P) / (λ_f/2 + λ_s))` and
//!   `H(T*_P, P) = H(P)(1 + 2 sqrt((λ_f/2 + λ_s)(V_P + C_P)))`.
//! * **Theorem 2** (`C_P = cP`, Amdahl `α > 0`):
//!   `P* = (1/(cΛ))^{1/4} ((1-α)/(2α))^{1/2}`, `T* = (c/Λ)^{1/2}`,
//!   `H* = α + 2 (4 α² (1-α)² c Λ)^{1/4}`, with `Λ = (f/2 + s) λ_ind`.
//! * **Theorem 3** (`C_P + V_P = d`, Amdahl `α > 0`):
//!   `P* = (1/(dΛ))^{1/3} ((1-α)/α)^{2/3}`, `T* = (d²/Λ)^{1/3} (α/(1-α))^{1/3}`,
//!   `H* = α + 3 (α² (1-α) d Λ)^{1/3}`.
//! * **Case 3** (`C_P + V_P = h/P`): the first-order overhead decreases
//!   monotonically with `P`; no closed-form optimum exists (the experiments use the
//!   numerical optimiser of `ayd-optim` instead).
//! * **Case 4** (perfectly parallel, `α = 0`): the overhead again decreases with
//!   `P`; only asymptotic expressions are available.

use crate::error::ModelError;
use crate::pattern::ExactModel;
use crate::speedup::SpeedupProfile;

/// Structural classification of the combined checkpoint + verification cost,
/// which selects the applicable theorem (Section III.D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostCase {
    /// `C_P = cP + o(P)` with `c ≠ 0` — Theorem 2 applies (`P* = Θ(λ^{-1/4})`).
    LinearGrowth,
    /// `C_P + V_P = d + o(1)` with `c = 0, d ≠ 0` — Theorem 3 applies
    /// (`P* = Θ(λ^{-1/3})`).
    Constant,
    /// `C_P + V_P = h/P` with `c = d = 0, h ≠ 0` — no first-order optimum; the
    /// overhead decreases with `P` throughout the validity region.
    Decreasing,
    /// All resilience costs are zero — resilience is free, the model degenerates.
    Free,
}

/// Result of the fixed-`P` optimisation (Theorem 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodOptimum {
    /// Optimal checkpointing period `T*_P` (seconds).
    pub period: f64,
    /// Predicted expected execution overhead `H(T*_P, P)` at that period.
    pub overhead: f64,
}

/// Result of the joint optimisation over `(P, T)` (Theorems 2 and 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JointOptimum {
    /// Optimal (continuous) processor allocation `P*`.
    pub processors: f64,
    /// Optimal checkpointing period `T*` (seconds).
    pub period: f64,
    /// Predicted expected execution overhead `H(T*, P*)`.
    pub overhead: f64,
    /// Which cost case (and therefore which theorem) produced the result.
    pub case: CostCase,
}

/// First-order approximation engine attached to an [`ExactModel`].
#[derive(Debug, Clone, Copy)]
pub struct FirstOrder<'a> {
    model: &'a ExactModel,
}

impl<'a> FirstOrder<'a> {
    /// Wraps an exact model.
    pub fn new(model: &'a ExactModel) -> Self {
        Self { model }
    }

    /// The underlying exact model.
    pub fn model(&self) -> &ExactModel {
        self.model
    }

    /// Structural classification of the cost model (which theorem applies).
    pub fn cost_case(&self) -> CostCase {
        let costs = &self.model.costs;
        if costs.c() > 0.0 {
            CostCase::LinearGrowth
        } else if costs.d() > 0.0 {
            CostCase::Constant
        } else if costs.h() > 0.0 {
            CostCase::Decreasing
        } else {
            CostCase::Free
        }
    }

    /// First-order (second-order Taylor) approximation of the expected pattern
    /// time, keeping the same terms as the expansion displayed in the proof of
    /// Theorem 1:
    ///
    /// ```text
    /// E ≈ T + V + C + (λ_f/2 + λ_s) T²
    ///   + λ_f T (V + C + R + D) + λ_s T (V + R)
    ///   + λ_f C (C/2 + R + V + D) + λ_f V (V + R + D)
    /// ```
    pub fn approx_pattern_time(&self, t: f64, p: f64) -> f64 {
        let costs = &self.model.costs;
        let failures = &self.model.failures;
        let c = costs.checkpoint_at(p);
        let r = costs.recovery_at(p);
        let v = costs.verification_at(p);
        let d = costs.downtime;
        let lf = failures.fail_stop_rate(p);
        let ls = failures.silent_rate(p);
        t + v
            + c
            + (lf / 2.0 + ls) * t * t
            + lf * t * (v + c + r + d)
            + ls * t * (v + r)
            + lf * c * (c / 2.0 + r + v + d)
            + lf * v * (v + r + d)
    }

    /// Dominant-term first-order expected overhead
    /// `H(T, P) ≈ H(P) (1 + (V_P + C_P)/T + (λ_f/2 + λ_s) T)`, the expression the
    /// theorems minimise.
    pub fn approx_overhead(&self, t: f64, p: f64) -> f64 {
        let costs = &self.model.costs;
        let vc = costs.checkpoint_plus_verification_at(p);
        let lam = self.model.failures.effective_rate(p);
        self.model.speedup.overhead(p) * (1.0 + vc / t + lam * t)
    }

    /// Theorem 1: the optimal checkpointing period for a fixed processor count,
    /// `T*_P = sqrt((V_P + C_P)/(λ_f/2 + λ_s))`, together with the predicted
    /// overhead `H(T*_P, P) = H(P)(1 + 2 sqrt((λ_f/2 + λ_s)(V_P + C_P)))`.
    ///
    /// This generalises the Young/Daly formula: with `s = 0` (fail-stop only) and
    /// `V_P = 0` it reduces to `sqrt(2 C_P / λ_f)`.
    pub fn optimal_period_for(&self, p: f64) -> PeriodOptimum {
        let vc = self.model.costs.checkpoint_plus_verification_at(p);
        let lam = self.model.failures.effective_rate(p);
        let period = (vc / lam).sqrt();
        let overhead = self.model.speedup.overhead(p) * (1.0 + 2.0 * (lam * vc).sqrt());
        PeriodOptimum { period, overhead }
    }

    /// A proven lower bound of the exact model's best overhead at `p`
    /// processors, `min_{T>0} H(T, P)` with `H` of
    /// [`ExactModel::expected_overhead`]:
    ///
    /// ```text
    /// H(P) (k + 2 sqrt(Λ k (k V_P + (k - 1)/λ_f))),   k = e^{λ_f C_P},  Λ = λ_f/2 + λ_s
    /// ```
    ///
    /// where `(k - 1)/λ_f` is read as its limit `C_P` when `λ_f = 0`.
    ///
    /// Derivation. Proposition 1 gives `E = k E(T+V) + (k - 1)(1/λ_f + D +
    /// E(R))`, with `E(T+V) = e^{λ_s T}(1/λ_f + D)(e^{λ_f W} - 1) +
    /// (e^{λ_f W + λ_s T} - 1) E(R)` and `W = T + V_P`. Dropping `D ≥ 0` and
    /// `E(R) ≥ 0`, and using `(e^x - 1)/λ_f ≥ W + λ_f W²/2` for `x = λ_f W`
    /// and `e^{λ_s T} ≥ 1 + λ_s T`:
    ///
    /// ```text
    /// E(T+V) ≥ (W + λ_f W²/2)(1 + λ_s T) ≥ T + V_P + Λ T²
    /// E      ≥ k (T + V_P + Λ T²) + (k - 1)/λ_f
    /// ```
    ///
    /// Dividing by `T` and minimising `k + (k V_P + (k - 1)/λ_f)/T + k Λ T`
    /// over `T > 0` gives the bound. With `λ_f = 0` the same steps give
    /// `E ≥ T + V_P + C_P + λ_s T²`, the `k = 1` case. Since `k ≥ 1` and
    /// `(k - 1)/λ_f ≥ C_P`, the bound is at least Theorem 1's predicted
    /// overhead `H(P)(1 + 2 sqrt(Λ (V_P + C_P)))`, which is therefore a lower
    /// bound too.
    ///
    /// The result is `+∞` only where the exact overhead overflows at every
    /// period: when `k` or `k V_P + (k - 1)/λ_f`, which `E` exceeds at every
    /// `T`, overflows.
    pub fn overhead_lower_bound(&self, p: f64) -> f64 {
        let costs = &self.model.costs;
        let c = costs.checkpoint_at(p);
        let v = costs.verification_at(p);
        let lambda_f = self.model.failures.fail_stop_rate(p);
        let lam = self.model.failures.effective_rate(p);
        let k = (lambda_f * c).exp();
        if k == f64::INFINITY {
            return k;
        }
        let excess = if lambda_f == 0.0 {
            c
        } else {
            (lambda_f * c).exp_m1() / lambda_f
        };
        // Two square roots, so that `Λ k (k V_P + …)` cannot overflow alone.
        self.model.speedup.overhead(p) * (k + 2.0 * (lam * k).sqrt() * (k * v + excess).sqrt())
    }

    /// Theorem 2: joint optimum when the checkpoint cost grows linearly with the
    /// processor count (`C_P = cP + o(P)`, Amdahl profile with `α > 0`).
    pub fn theorem2_optimum(&self) -> Result<JointOptimum, ModelError> {
        let alpha = self.require_positive_alpha()?;
        let c = self.model.costs.c();
        if c <= 0.0 {
            return Err(ModelError::NoClosedFormOptimum {
                reason: "Theorem 2 requires a checkpoint cost growing linearly with P (c > 0)",
            });
        }
        let big_lambda = self.model.failures.effective_rate_factor();
        let processors =
            (1.0 / (c * big_lambda)).powf(0.25) * ((1.0 - alpha) / (2.0 * alpha)).sqrt();
        let period = (c / big_lambda).sqrt();
        let overhead = alpha
            + 2.0
                * (4.0 * alpha * alpha * (1.0 - alpha) * (1.0 - alpha) * c * big_lambda).powf(0.25);
        Ok(JointOptimum {
            processors,
            period,
            overhead,
            case: CostCase::LinearGrowth,
        })
    }

    /// Theorem 3: joint optimum when the combined checkpoint + verification cost
    /// is a constant (`C_P + V_P = d + o(1)`, Amdahl profile with `α > 0`).
    pub fn theorem3_optimum(&self) -> Result<JointOptimum, ModelError> {
        let alpha = self.require_positive_alpha()?;
        let d = self.model.costs.d();
        if self.model.costs.c() > 0.0 {
            return Err(ModelError::NoClosedFormOptimum {
                reason: "Theorem 3 requires the checkpoint cost not to grow with P (c = 0)",
            });
        }
        if d <= 0.0 {
            return Err(ModelError::NoClosedFormOptimum {
                reason: "Theorem 3 requires a constant checkpoint + verification cost (d > 0)",
            });
        }
        let big_lambda = self.model.failures.effective_rate_factor();
        let processors =
            (1.0 / (d * big_lambda)).powf(1.0 / 3.0) * ((1.0 - alpha) / alpha).powf(2.0 / 3.0);
        let period = (d * d / big_lambda).powf(1.0 / 3.0) * (alpha / (1.0 - alpha)).powf(1.0 / 3.0);
        let overhead =
            alpha + 3.0 * (alpha * alpha * (1.0 - alpha) * d * big_lambda).powf(1.0 / 3.0);
        Ok(JointOptimum {
            processors,
            period,
            overhead,
            case: CostCase::Constant,
        })
    }

    /// Joint optimum `(P*, T*, H*)`, dispatching to Theorem 2 or Theorem 3
    /// according to the cost case. Returns an error for the decreasing-cost case
    /// (no first-order optimum), for free resilience, for non-Amdahl profiles and
    /// for perfectly parallel applications (`α = 0`).
    pub fn joint_optimum(&self) -> Result<JointOptimum, ModelError> {
        match self.cost_case() {
            CostCase::LinearGrowth => self.theorem2_optimum(),
            CostCase::Constant => self.theorem3_optimum(),
            CostCase::Decreasing => Err(ModelError::NoClosedFormOptimum {
                reason: "C_P + V_P = h/P: the first-order overhead decreases monotonically \
                         with P; use the numerical optimiser",
            }),
            CostCase::Free => Err(ModelError::NoClosedFormOptimum {
                reason: "all resilience costs are zero; the model degenerates",
            }),
        }
    }

    /// Case 3 (`C_P + V_P = h/P`): the first-order overhead at the Theorem-1
    /// period for a given `P`,
    /// `H(T*_P, P) = (α + (1-α)/P)(1 + 2 sqrt(h (f/2 + s) λ_ind))`, which decreases
    /// monotonically with `P` within the validity region.
    pub fn decreasing_cost_overhead_at(&self, p: f64) -> Result<f64, ModelError> {
        let alpha = self.require_alpha()?;
        if self.cost_case() != CostCase::Decreasing {
            return Err(ModelError::NoClosedFormOptimum {
                reason: "decreasing_cost_overhead_at only applies when C_P + V_P = h/P",
            });
        }
        let h = self.model.costs.h();
        let big_lambda = self.model.failures.effective_rate_factor();
        Ok((alpha + (1.0 - alpha) / p) * (1.0 + 2.0 * (h * big_lambda).sqrt()))
    }

    /// Case 4 (perfectly parallel application, `H(P) = 1/P`): the first-order
    /// overhead at the Theorem-1 period for a given `P`, in the three sub-cases of
    /// Section III.D.4. This never admits a finite first-order optimum; the paper
    /// resorts to numerical optimisation (Figure 6).
    pub fn perfectly_parallel_overhead_at(&self, p: f64) -> f64 {
        let costs = &self.model.costs;
        let big_lambda = self.model.failures.effective_rate_factor();
        let c = costs.c();
        let d = costs.d();
        let h = costs.h();
        if c > 0.0 {
            1.0 / p + 2.0 * (c * big_lambda).sqrt()
        } else if d > 0.0 {
            1.0 / p + 2.0 * (d * big_lambda / p).sqrt()
        } else {
            (1.0 + 2.0 * (h * big_lambda).sqrt()) / p
        }
    }

    fn require_alpha(&self) -> Result<f64, ModelError> {
        self.model
            .speedup
            .sequential_fraction()
            .ok_or(ModelError::FirstOrderInapplicable {
                reason:
                    "the closed-form theorems require an Amdahl (or perfectly parallel) profile",
            })
    }

    fn require_positive_alpha(&self) -> Result<f64, ModelError> {
        let alpha = self.require_alpha()?;
        if alpha > 0.0 {
            Ok(alpha)
        } else {
            Err(ModelError::FirstOrderInapplicable {
                reason: "Theorems 2 and 3 require a strictly positive sequential fraction α; \
                         for α = 0 use the numerical optimiser (Figure 6 regime)",
            })
        }
    }
}

/// Convenience: classification of a speedup profile + cost pair into the paper's
/// four analysis cases (Sections III.D.1–III.D.4).
pub fn analysis_case(speedup: &SpeedupProfile, case: CostCase) -> &'static str {
    match (speedup.has_sequential_part(), case) {
        (true, CostCase::LinearGrowth) => "case 1 (Theorem 2): alpha > 0, C_P = cP",
        (true, CostCase::Constant) => "case 2 (Theorem 3): alpha > 0, C_P + V_P = d",
        (true, CostCase::Decreasing) => "case 3: alpha > 0, C_P + V_P = h/P",
        (true, CostCase::Free) => "degenerate: free resilience",
        (false, _) => "case 4: perfectly parallel (alpha = 0) or non-Amdahl profile",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CheckpointCost, ResilienceCosts, VerificationCost};
    use crate::failure::FailureModel;

    fn hera_failures() -> FailureModel {
        FailureModel::new(1.69e-8, 0.2188).unwrap()
    }

    fn scenario1_costs() -> ResilienceCosts {
        ResilienceCosts::new(
            CheckpointCost::linear(300.0 / 512.0),
            VerificationCost::constant(15.4),
            3600.0,
        )
        .unwrap()
    }

    fn scenario3_costs() -> ResilienceCosts {
        ResilienceCosts::new(
            CheckpointCost::constant(300.0),
            VerificationCost::constant(15.4),
            3600.0,
        )
        .unwrap()
    }

    fn scenario5_costs() -> ResilienceCosts {
        ResilienceCosts::new(
            CheckpointCost::per_processor(300.0 * 512.0),
            VerificationCost::constant(15.4),
            3600.0,
        )
        .unwrap()
    }

    fn model(costs: ResilienceCosts, alpha: f64) -> ExactModel {
        ExactModel::new(
            SpeedupProfile::amdahl(alpha).unwrap(),
            costs,
            hera_failures(),
        )
    }

    #[test]
    fn cost_case_classification() {
        assert_eq!(
            FirstOrder::new(&model(scenario1_costs(), 0.1)).cost_case(),
            CostCase::LinearGrowth
        );
        assert_eq!(
            FirstOrder::new(&model(scenario3_costs(), 0.1)).cost_case(),
            CostCase::Constant
        );
        let m5 = ExactModel::new(
            SpeedupProfile::amdahl(0.1).unwrap(),
            ResilienceCosts::new(
                CheckpointCost::per_processor(1000.0),
                VerificationCost::per_processor(10.0),
                0.0,
            )
            .unwrap(),
            hera_failures(),
        );
        assert_eq!(FirstOrder::new(&m5).cost_case(), CostCase::Decreasing);
        let free = ExactModel::new(
            SpeedupProfile::amdahl(0.1).unwrap(),
            ResilienceCosts::new(CheckpointCost::constant(0.0), VerificationCost::zero(), 0.0)
                .unwrap(),
            hera_failures(),
        );
        assert_eq!(FirstOrder::new(&free).cost_case(), CostCase::Free);
    }

    #[test]
    fn theorem1_period_matches_formula() {
        let m = model(scenario1_costs(), 0.1);
        let fo = FirstOrder::new(&m);
        let p = 512.0;
        let opt = fo.optimal_period_for(p);
        let vc = m.costs.checkpoint_plus_verification_at(p);
        let lam = m.failures.effective_rate(p);
        assert!((opt.period - (vc / lam).sqrt()).abs() < 1e-9);
        // The first-order period is a stationary point of the dominant-term
        // overhead: perturbing it in either direction increases the overhead.
        let h0 = fo.approx_overhead(opt.period, p);
        assert!(fo.approx_overhead(opt.period * 1.1, p) > h0);
        assert!(fo.approx_overhead(opt.period * 0.9, p) > h0);
        assert!((h0 - opt.overhead).abs() / h0 < 1e-12);
    }

    #[test]
    fn overhead_lower_bound_sits_between_theorem1_and_the_exact_overhead() {
        for costs in [scenario1_costs(), scenario3_costs(), scenario5_costs()] {
            // Silent errors only (λ_f = 0), the paper's mix, fail-stop only.
            for fail_stop in [0.0, 0.2188, 1.0] {
                let failures = FailureModel::new(50.0 * 1.69e-8, fail_stop).unwrap();
                let m = ExactModel::new(SpeedupProfile::amdahl(0.1).unwrap(), costs, failures);
                let fo = FirstOrder::new(&m);
                // At 1e5 processors scenario 1's `e^{λ_f C_P}` overflows: the
                // bound is +∞, and so is the exact overhead at every period.
                for p in [16.0, 512.0, 8192.0, 1e5] {
                    let bound = fo.overhead_lower_bound(p);
                    assert!(!bound.is_nan(), "f={fail_stop} p={p}");
                    let theorem1 = fo.optimal_period_for(p).overhead;
                    assert!(bound >= theorem1 * (1.0 - 1e-12), "f={fail_stop} p={p}");
                    for i in 0..=90 {
                        let t = 10f64.powf(i as f64 / 10.0);
                        let exact = m.expected_overhead(t, p);
                        assert!(
                            !exact.is_finite() || bound <= exact,
                            "f={fail_stop} p={p} t={t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn theorem1_reduces_to_young_daly_without_silent_errors() {
        let failures = FailureModel::new(1e-8, 1.0).unwrap(); // fail-stop only
        let costs = ResilienceCosts::new(
            CheckpointCost::constant(300.0),
            VerificationCost::zero(),
            0.0,
        )
        .unwrap();
        let m = ExactModel::new(SpeedupProfile::amdahl(0.1).unwrap(), costs, failures);
        let p = 1000.0;
        let period = FirstOrder::new(&m).optimal_period_for(p).period;
        let young_daly = (2.0 * 300.0 / failures.fail_stop_rate(p)).sqrt();
        assert!((period - young_daly).abs() / young_daly < 1e-12);
    }

    #[test]
    fn theorem2_matches_closed_form_and_is_a_minimum() {
        let m = model(scenario1_costs(), 0.1);
        let fo = FirstOrder::new(&m);
        let opt = fo.theorem2_optimum().unwrap();
        assert_eq!(opt.case, CostCase::LinearGrowth);
        // Direct formula check.
        let c = m.costs.c();
        let lam = m.failures.effective_rate_factor();
        let alpha: f64 = 0.1;
        let p_expected = (1.0 / (c * lam)).powf(0.25) * ((1.0 - alpha) / (2.0 * alpha)).sqrt();
        assert!((opt.processors - p_expected).abs() / p_expected < 1e-12);
        assert!((opt.period - (c / lam).sqrt()).abs() / opt.period < 1e-12);
        // P* is a minimiser of the Theorem-1 overhead over P.
        let h = |p: f64| fo.optimal_period_for(p).overhead;
        assert!(h(opt.processors * 1.2) > h(opt.processors) - 1e-12);
        assert!(h(opt.processors * 0.8) > h(opt.processors) - 1e-12);
        // Paper, Figure 2 (Hera): P* in the few-hundred range, overhead ≈ 0.11.
        assert!(
            opt.processors > 150.0 && opt.processors < 600.0,
            "P*={}",
            opt.processors
        );
        assert!(
            opt.overhead > 0.10 && opt.overhead < 0.13,
            "H*={}",
            opt.overhead
        );
    }

    #[test]
    fn theorem3_matches_closed_form_and_is_a_minimum() {
        let m = model(scenario3_costs(), 0.1);
        let fo = FirstOrder::new(&m);
        let opt = fo.theorem3_optimum().unwrap();
        assert_eq!(opt.case, CostCase::Constant);
        let d = m.costs.d();
        let lam = m.failures.effective_rate_factor();
        let alpha: f64 = 0.1;
        let p_expected =
            (1.0 / (d * lam)).powf(1.0 / 3.0) * ((1.0 - alpha) / alpha).powf(2.0 / 3.0);
        assert!((opt.processors - p_expected).abs() / p_expected < 1e-12);
        let t_expected = (d * d / lam).powf(1.0 / 3.0) * (alpha / (1.0 - alpha)).powf(1.0 / 3.0);
        assert!((opt.period - t_expected).abs() / t_expected < 1e-12);
        let h_expected = alpha + 3.0 * (alpha * alpha * (1.0 - alpha) * d * lam).powf(1.0 / 3.0);
        assert!((opt.overhead - h_expected).abs() < 1e-15);
        let h = |p: f64| fo.optimal_period_for(p).overhead;
        assert!(h(opt.processors * 1.2) > h(opt.processors) - 1e-12);
        assert!(h(opt.processors * 0.8) > h(opt.processors) - 1e-12);
    }

    #[test]
    fn joint_optimum_dispatches_on_cost_case() {
        let m1 = model(scenario1_costs(), 0.1);
        assert_eq!(
            FirstOrder::new(&m1).joint_optimum().unwrap().case,
            CostCase::LinearGrowth
        );
        let m3 = model(scenario3_costs(), 0.1);
        assert_eq!(
            FirstOrder::new(&m3).joint_optimum().unwrap().case,
            CostCase::Constant
        );
        let m6 = ExactModel::new(
            SpeedupProfile::amdahl(0.1).unwrap(),
            ResilienceCosts::new(
                CheckpointCost::per_processor(1000.0),
                VerificationCost::per_processor(100.0),
                0.0,
            )
            .unwrap(),
            hera_failures(),
        );
        assert!(FirstOrder::new(&m6).joint_optimum().is_err());
    }

    #[test]
    fn joint_optimum_requires_positive_alpha() {
        let m = model(scenario1_costs(), 0.0);
        assert!(FirstOrder::new(&m).joint_optimum().is_err());
        let perfectly = ExactModel::new(
            SpeedupProfile::perfectly_parallel(),
            scenario1_costs(),
            hera_failures(),
        );
        assert!(FirstOrder::new(&perfectly).joint_optimum().is_err());
    }

    #[test]
    fn theorem2_scaling_with_lambda_is_minus_one_quarter() {
        // P*(λ/16) / P*(λ) = 16^{1/4} = 2 ; T* scales as λ^{-1/2}.
        let base = model(scenario1_costs(), 0.1);
        let opt1 = FirstOrder::new(&base).theorem2_optimum().unwrap();
        let weaker = base.with_failures(hera_failures().with_lambda_ind(1.69e-8 / 16.0).unwrap());
        let opt2 = FirstOrder::new(&weaker).theorem2_optimum().unwrap();
        assert!((opt2.processors / opt1.processors - 2.0).abs() < 1e-9);
        assert!((opt2.period / opt1.period - 4.0).abs() < 1e-9);
    }

    #[test]
    fn theorem3_scaling_with_lambda_is_minus_one_third() {
        let base = model(scenario3_costs(), 0.1);
        let opt1 = FirstOrder::new(&base).theorem3_optimum().unwrap();
        let weaker = base.with_failures(hera_failures().with_lambda_ind(1.69e-8 / 8.0).unwrap());
        let opt2 = FirstOrder::new(&weaker).theorem3_optimum().unwrap();
        assert!((opt2.processors / opt1.processors - 2.0).abs() < 1e-9);
        assert!((opt2.period / opt1.period - 2.0).abs() < 1e-9);
    }

    #[test]
    fn smaller_alpha_enrolls_more_processors() {
        for costs in [scenario1_costs(), scenario3_costs()] {
            let few = FirstOrder::new(&model(costs, 0.1)).joint_optimum().unwrap();
            let many = FirstOrder::new(&model(costs, 0.001))
                .joint_optimum()
                .unwrap();
            assert!(many.processors > few.processors);
            assert!(many.overhead < few.overhead);
        }
    }

    #[test]
    fn decreasing_cost_overhead_decreases_with_p() {
        let m = ExactModel::new(
            SpeedupProfile::amdahl(0.1).unwrap(),
            ResilienceCosts::new(
                CheckpointCost::per_processor(300.0 * 512.0),
                VerificationCost::per_processor(15.4 * 512.0),
                3600.0,
            )
            .unwrap(),
            hera_failures(),
        );
        let fo = FirstOrder::new(&m);
        let h1 = fo.decreasing_cost_overhead_at(100.0).unwrap();
        let h2 = fo.decreasing_cost_overhead_at(1000.0).unwrap();
        assert!(h2 < h1);
        // Scenario 5 (constant verification) is NOT the decreasing case.
        let m5 = model(scenario5_costs(), 0.1);
        assert!(FirstOrder::new(&m5)
            .decreasing_cost_overhead_at(100.0)
            .is_err());
    }

    #[test]
    fn perfectly_parallel_overheads_decrease_with_p() {
        for costs in [scenario1_costs(), scenario3_costs(), scenario5_costs()] {
            let m = ExactModel::new(SpeedupProfile::perfectly_parallel(), costs, hera_failures());
            let fo = FirstOrder::new(&m);
            assert!(
                fo.perfectly_parallel_overhead_at(10_000.0)
                    < fo.perfectly_parallel_overhead_at(100.0)
            );
        }
    }

    #[test]
    fn approx_pattern_time_close_to_exact_in_validity_region() {
        let m = model(scenario1_costs(), 0.1);
        let fo = FirstOrder::new(&m);
        let p = 400.0;
        let t = fo.optimal_period_for(p).period;
        let exact = m.expected_pattern_time(t, p);
        let approx = fo.approx_pattern_time(t, p);
        assert!(
            (exact - approx).abs() / exact < 1e-3,
            "exact={exact} approx={approx}"
        );
    }

    #[test]
    fn analysis_case_strings() {
        let amdahl = SpeedupProfile::amdahl(0.1).unwrap();
        assert!(analysis_case(&amdahl, CostCase::LinearGrowth).contains("Theorem 2"));
        assert!(analysis_case(&amdahl, CostCase::Constant).contains("Theorem 3"));
        assert!(analysis_case(&amdahl, CostCase::Decreasing).contains("case 3"));
        let pp = SpeedupProfile::perfectly_parallel();
        assert!(analysis_case(&pp, CostCase::LinearGrowth).contains("case 4"));
    }
}

/// Cross-checks of the closed-form optima (Theorems 1–3) against the generic
/// numerical minimisers of `ayd-optim` applied to the exact pattern model.
#[cfg(test)]
mod cross_check_tests {
    use super::*;
    use crate::cost::{CheckpointCost, ResilienceCosts, VerificationCost};
    use crate::failure::FailureModel;
    use ayd_optim::{golden_section, minimize_scalar, JointSearch, OptimizeOptions};

    fn hera_model(checkpoint: CheckpointCost) -> ExactModel {
        ExactModel::new(
            SpeedupProfile::amdahl(0.1).unwrap(),
            ResilienceCosts::new(checkpoint, VerificationCost::constant(15.4), 3600.0).unwrap(),
            FailureModel::new(1.69e-8, 0.2188).unwrap(),
        )
    }

    #[test]
    fn theorem1_period_agrees_with_brent_on_the_exact_model() {
        // For fixed P, Theorem 1's period vs Brent on the exact expected
        // overhead: periods within ~10%, overheads within a fraction of a
        // percent (the optimum is flat).
        let model = hera_model(CheckpointCost::linear(300.0 / 512.0));
        let fo = FirstOrder::new(&model);
        for p in [128.0, 512.0, 1_024.0] {
            let closed_form = fo.optimal_period_for(p).period;
            let minimum = minimize_scalar(10.0, 1e8, OptimizeOptions::default(), |t| {
                model.expected_overhead(t, p)
            });
            let (numerical, h_num) = (minimum.argument, minimum.value);
            assert!(
                (closed_form - numerical).abs() / numerical < 0.10,
                "P={p}: {closed_form} vs {numerical}"
            );
            let h_fo = model.expected_overhead(closed_form, p);
            assert!((h_fo - h_num) / h_num < 5e-3, "P={p}");
        }
    }

    #[test]
    fn theorem2_optimum_agrees_with_joint_search_on_the_exact_model() {
        // Scenario-1 costs (C_P = cP): Theorem 2 vs the nested numerical
        // (P, T) search on the exact model. The paper's Figure 2 claim: the
        // achieved overheads are within 1%; allocations within tens of percent.
        let model = hera_model(CheckpointCost::linear(300.0 / 512.0));
        let optimum = FirstOrder::new(&model).theorem2_optimum().unwrap();
        let search = JointSearch::new((1.0, 1e6), (10.0, 1e8));
        let numerical = search.optimize(|p, t| model.expected_overhead(t, p));
        assert!(
            (optimum.processors - numerical.processors).abs() / numerical.processors < 0.35,
            "P*: theorem {} vs numerical {}",
            optimum.processors,
            numerical.processors
        );
        assert!(
            (optimum.period - numerical.period).abs() / numerical.period < 0.35,
            "T*: theorem {} vs numerical {}",
            optimum.period,
            numerical.period
        );
        // Achieved overhead at Theorem 2's own operating point (with Theorem 1's
        // period at P*, as a practitioner would use it).
        let period = FirstOrder::new(&model)
            .optimal_period_for(optimum.processors)
            .period;
        let achieved = model.expected_overhead(period, optimum.processors);
        assert!(achieved >= numerical.value - 1e-12);
        assert!((achieved - numerical.value) / numerical.value < 0.01);
    }

    #[test]
    fn theorem3_optimum_agrees_with_joint_search_on_the_exact_model() {
        // Scenario-3 costs (C_P = a): Theorem 3 vs the nested numerical search.
        let model = hera_model(CheckpointCost::constant(300.0));
        let optimum = FirstOrder::new(&model).theorem3_optimum().unwrap();
        let search = JointSearch::new((1.0, 1e6), (10.0, 1e8));
        let numerical = search.optimize(|p, t| model.expected_overhead(t, p));
        assert!(
            (optimum.processors - numerical.processors).abs() / numerical.processors < 0.35,
            "P*: theorem {} vs numerical {}",
            optimum.processors,
            numerical.processors
        );
        let period = FirstOrder::new(&model)
            .optimal_period_for(optimum.processors)
            .period;
        let achieved = model.expected_overhead(period, optimum.processors);
        assert!(achieved >= numerical.value - 1e-12);
        assert!((achieved - numerical.value) / numerical.value < 0.01);
    }

    #[test]
    fn theorem2_closed_forms_match_golden_section_on_the_first_order_surface() {
        // On the dominant-term first-order surface the theorems minimise, the
        // agreement with a numerical scan is tight: minimise the Theorem-1
        // overhead envelope over P with golden section and compare against the
        // closed-form P* (the verification cost v is the only dropped term).
        let model = hera_model(CheckpointCost::linear(300.0 / 512.0));
        let fo = FirstOrder::new(&model);
        let optimum = fo.theorem2_optimum().unwrap();
        let (p_num, _) =
            golden_section(1.0, 1e6, 1e-13, 600, |p| fo.optimal_period_for(p).overhead);
        assert!(
            (optimum.processors - p_num).abs() / p_num < 0.05,
            "closed form {} vs golden section {}",
            optimum.processors,
            p_num
        );
    }
}
