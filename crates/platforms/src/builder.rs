//! Assembling complete experiment setups (platform × scenario × application).

use ayd_core::{ExactModel, FailureModel, ModelError, SpeedupProfile};

use crate::platform::{Platform, PlatformId};
use crate::scenario::{Scenario, ScenarioId};

/// A fully specified experiment setup: a platform, a resilience scenario, the
/// application's speedup profile, the downtime and (optionally) an overridden
/// individual error rate. This is the unit every figure of the paper sweeps over.
///
/// The profile is stored *unvalidated* (its variant fields may hold any `f64`
/// the caller supplied, e.g. from a builder or a deserialized request);
/// [`ExperimentSetup::model`] validates it, so an out-of-range parameter
/// surfaces as a [`ModelError`] rather than a panic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentSetup {
    /// Platform whose Table II measurements parameterise the costs and rates.
    pub platform: PlatformId,
    /// Resilience scenario (Table III) describing cost scaling.
    pub scenario: ScenarioId,
    /// Speedup profile of the application (paper default: Amdahl, `α = 0.1`).
    pub profile: SpeedupProfile,
    /// Downtime `D` in seconds after each fail-stop error (paper default: 3600 s,
    /// a repair-based restoration).
    pub downtime: f64,
    /// Optional override of the individual error rate `λ_ind` (used by the sweeps
    /// of Figures 5 and 6); `None` keeps the platform's measured rate.
    pub lambda_ind_override: Option<f64>,
}

impl ExperimentSetup {
    /// The paper's default configuration for a platform/scenario pair:
    /// Amdahl with `α = 0.1`, `D = 3600 s`, measured `λ_ind`.
    pub fn paper_default(platform: PlatformId, scenario: ScenarioId) -> Self {
        Self {
            platform,
            scenario,
            profile: SpeedupProfile::Amdahl { alpha: 0.1 },
            downtime: 3600.0,
            lambda_ind_override: None,
        }
    }

    /// Returns a copy with a different Amdahl sequential fraction (Figure 4
    /// sweep). Convenience wrapper over [`Self::with_profile`].
    pub fn with_alpha(self, alpha: f64) -> Self {
        self.with_profile(SpeedupProfile::Amdahl { alpha })
    }

    /// Returns a copy with a different speedup profile.
    pub fn with_profile(mut self, profile: SpeedupProfile) -> Self {
        self.profile = profile;
        self
    }

    /// The Amdahl-equivalent sequential fraction of the profile (`α` for
    /// Amdahl, `0` for perfectly parallel), `None` for extension profiles.
    pub fn alpha(&self) -> Option<f64> {
        self.profile.sequential_fraction()
    }

    /// Returns a copy with a different downtime (Figure 7 sweep).
    pub fn with_downtime(mut self, downtime: f64) -> Self {
        self.downtime = downtime;
        self
    }

    /// Returns a copy with an overridden individual error rate (Figures 5–6).
    pub fn with_lambda_ind(mut self, lambda_ind: f64) -> Self {
        self.lambda_ind_override = Some(lambda_ind);
        self
    }

    /// The platform measurements backing this setup.
    pub fn platform_data(&self) -> Platform {
        Platform::get(self.platform)
    }

    /// The scenario definition backing this setup.
    pub fn scenario_data(&self) -> Scenario {
        Scenario::get(self.scenario)
    }

    /// The failure model of this setup (platform rate or override).
    pub fn failure_model(&self) -> Result<FailureModel, ModelError> {
        let platform = self.platform_data();
        match self.lambda_ind_override {
            Some(lambda) => FailureModel::new(lambda, platform.fail_stop_fraction),
            None => Ok(platform.failure_model()),
        }
    }

    /// Builds the exact analytical model of this setup.
    pub fn model(&self) -> Result<ExactModel, ModelError> {
        let platform = self.platform_data();
        let scenario = self.scenario_data();
        let costs = scenario.fit(&platform, self.downtime)?;
        let speedup = self.profile.validate()?;
        Ok(ExactModel::new(speedup, costs, self.failure_model()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ayd_core::{CostCase, FirstOrder};

    #[test]
    fn default_setup_uses_paper_parameters() {
        let setup = ExperimentSetup::paper_default(PlatformId::Hera, ScenarioId::S1);
        assert_eq!(setup.alpha(), Some(0.1));
        assert_eq!(setup.profile, SpeedupProfile::Amdahl { alpha: 0.1 });
        assert_eq!(setup.downtime, 3600.0);
        assert!(setup.lambda_ind_override.is_none());
        let model = setup.model().unwrap();
        assert_eq!(model.costs.downtime, 3600.0);
        assert_eq!(model.failures.lambda_ind, 1.69e-8);
    }

    #[test]
    fn scenario_cost_cases_are_classified_as_in_the_paper() {
        // Scenarios 1–2 → Theorem 2 (linear growth), 3–5 → Theorem 3 (constant),
        // 6 → decreasing.
        let expected = [
            (ScenarioId::S1, CostCase::LinearGrowth),
            (ScenarioId::S2, CostCase::LinearGrowth),
            (ScenarioId::S3, CostCase::Constant),
            (ScenarioId::S4, CostCase::Constant),
            (ScenarioId::S5, CostCase::Constant),
            (ScenarioId::S6, CostCase::Decreasing),
        ];
        for (scenario, case) in expected {
            let model = ExperimentSetup::paper_default(PlatformId::Hera, scenario)
                .model()
                .unwrap();
            assert_eq!(FirstOrder::new(&model).cost_case(), case, "{scenario:?}");
        }
    }

    #[test]
    fn overrides_apply() {
        let setup = ExperimentSetup::paper_default(PlatformId::Atlas, ScenarioId::S3)
            .with_alpha(0.01)
            .with_downtime(60.0)
            .with_lambda_ind(1e-10);
        let model = setup.model().unwrap();
        assert_eq!(model.failures.lambda_ind, 1e-10);
        assert_eq!(model.costs.downtime, 60.0);
        assert_eq!(model.speedup.sequential_fraction(), Some(0.01));
        // The fail-stop fraction stays that of Atlas.
        assert_eq!(model.failures.fail_stop_fraction, 0.0625);
    }

    #[test]
    fn non_amdahl_profiles_build_models() {
        let setup = ExperimentSetup::paper_default(PlatformId::Hera, ScenarioId::S1)
            .with_profile(SpeedupProfile::PowerLaw { sigma: 0.8 });
        assert_eq!(setup.alpha(), None);
        let model = setup.model().unwrap();
        assert_eq!(model.speedup, SpeedupProfile::power_law(0.8).unwrap());
        // Invalid extension-profile parameters error at model() time, exactly
        // like an out-of-range alpha.
        assert!(
            ExperimentSetup::paper_default(PlatformId::Hera, ScenarioId::S1)
                .with_profile(SpeedupProfile::PowerLaw { sigma: 1.5 })
                .model()
                .is_err()
        );
    }

    #[test]
    fn invalid_overrides_surface_as_errors() {
        assert!(
            ExperimentSetup::paper_default(PlatformId::Hera, ScenarioId::S1)
                .with_alpha(1.5)
                .model()
                .is_err()
        );
        assert!(
            ExperimentSetup::paper_default(PlatformId::Hera, ScenarioId::S1)
                .with_lambda_ind(0.0)
                .model()
                .is_err()
        );
        assert!(
            ExperimentSetup::paper_default(PlatformId::Hera, ScenarioId::S1)
                .with_downtime(-5.0)
                .model()
                .is_err()
        );
    }

    #[test]
    fn first_order_optimum_on_hera_matches_figure2_magnitudes() {
        // Figure 2 (Hera, α = 0.1): P* of a few hundred, T* of a few thousand
        // seconds, overhead ≈ 0.11 for the first four scenarios.
        for scenario in [
            ScenarioId::S1,
            ScenarioId::S2,
            ScenarioId::S3,
            ScenarioId::S4,
        ] {
            let model = ExperimentSetup::paper_default(PlatformId::Hera, scenario)
                .model()
                .unwrap();
            let opt = FirstOrder::new(&model).joint_optimum().unwrap();
            assert!(
                opt.processors > 100.0 && opt.processors < 1500.0,
                "{scenario:?}: P*={}",
                opt.processors
            );
            assert!(
                opt.period > 500.0 && opt.period < 20_000.0,
                "{scenario:?}: T*={}",
                opt.period
            );
            assert!(
                opt.overhead > 0.10 && opt.overhead < 0.13,
                "{scenario:?}: H*={}",
                opt.overhead
            );
        }
    }
}
