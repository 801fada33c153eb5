//! The six resilience scenarios of Table III and the cost-model fitting.
//!
//! A scenario prescribes how the checkpoint/recovery cost and the verification
//! cost scale with the processor count:
//!
//! | Scenario | 1    | 2    | 3   | 4   | 5    | 6    |
//! |----------|------|------|-----|-----|------|------|
//! | `C_P, R_P` | `cP` | `cP` | `a` | `a` | `b/P`| `b/P`|
//! | `V_P`      | `v`  | `u/P`| `v` | `u/P`| `v` | `u/P`|
//!
//! Scenarios 1–2 model coordinated checkpointing whose synchronisation cost grows
//! with `P` (Theorem 2 / case 1); scenarios 3–5 have a constant combined cost
//! (Theorem 3 / case 2 — note that scenario 5's constant part is the verification
//! only); scenario 6 has a fully decreasing cost (case 3, no first-order optimum).
//!
//! Given a platform's measured `C_P` and `V_P` at its measured processor count,
//! [`Scenario::fit`] derives the coefficients (`a`, `b`, `c`, `v`, `u`) so that
//! the projected costs reproduce the measurements at the measured `P` and
//! extrapolate to any other processor count.

use ayd_core::{CheckpointCost, ModelError, ResilienceCosts, VerificationCost};

use crate::platform::Platform;

/// How the checkpoint (and recovery) cost scales with the processor count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostShape {
    /// `C_P = cP` — grows linearly with `P` (coordinated checkpointing).
    Linear,
    /// `C_P = a` — constant in `P` (storage-bandwidth-bound I/O).
    Constant,
    /// `C_P = b/P` — decreases with `P` (in-memory / network-bound I/O).
    PerProcessor,
}

/// How the verification cost scales with the processor count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerificationShape {
    /// `V_P = v` — constant in `P`.
    Constant,
    /// `V_P = u/P` — decreases with `P`.
    PerProcessor,
}

/// Identifier of one of the six scenarios of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScenarioId {
    /// Scenario 1: `C_P = cP`, `V_P = v`.
    S1,
    /// Scenario 2: `C_P = cP`, `V_P = u/P`.
    S2,
    /// Scenario 3: `C_P = a`, `V_P = v`.
    S3,
    /// Scenario 4: `C_P = a`, `V_P = u/P`.
    S4,
    /// Scenario 5: `C_P = b/P`, `V_P = v`.
    S5,
    /// Scenario 6: `C_P = b/P`, `V_P = u/P`.
    S6,
}

impl ScenarioId {
    /// All six scenarios in Table III order.
    pub const ALL: [ScenarioId; 6] = [
        ScenarioId::S1,
        ScenarioId::S2,
        ScenarioId::S3,
        ScenarioId::S4,
        ScenarioId::S5,
        ScenarioId::S6,
    ];

    /// The scenarios the paper focuses on after Figure 3 (1, 3 and 5): scenarios
    /// 2, 4 and 6 behave like their odd counterparts.
    pub const REPRESENTATIVE: [ScenarioId; 3] = [ScenarioId::S1, ScenarioId::S3, ScenarioId::S5];

    /// The scenario number (1–6) as printed in the paper.
    pub fn number(&self) -> usize {
        match self {
            ScenarioId::S1 => 1,
            ScenarioId::S2 => 2,
            ScenarioId::S3 => 3,
            ScenarioId::S4 => 4,
            ScenarioId::S5 => 5,
            ScenarioId::S6 => 6,
        }
    }

    /// Parses a scenario from its number.
    pub fn from_number(n: usize) -> Option<Self> {
        ScenarioId::ALL.get(n.checked_sub(1)?).copied()
    }
}

/// A resilience scenario: the scaling shapes of the checkpoint and verification
/// costs (one column of Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scenario {
    /// Which of the six scenarios this is.
    pub id: ScenarioId,
    /// Scaling of the checkpoint (and recovery) cost.
    pub checkpoint: CostShape,
    /// Scaling of the verification cost.
    pub verification: VerificationShape,
}

impl Scenario {
    /// Returns the definition of a scenario (Table III).
    pub fn get(id: ScenarioId) -> Self {
        let (checkpoint, verification) = match id {
            ScenarioId::S1 => (CostShape::Linear, VerificationShape::Constant),
            ScenarioId::S2 => (CostShape::Linear, VerificationShape::PerProcessor),
            ScenarioId::S3 => (CostShape::Constant, VerificationShape::Constant),
            ScenarioId::S4 => (CostShape::Constant, VerificationShape::PerProcessor),
            ScenarioId::S5 => (CostShape::PerProcessor, VerificationShape::Constant),
            ScenarioId::S6 => (CostShape::PerProcessor, VerificationShape::PerProcessor),
        };
        Self {
            id,
            checkpoint,
            verification,
        }
    }

    /// All six scenarios in Table III order.
    pub fn all() -> Vec<Self> {
        ScenarioId::ALL.iter().map(|&id| Self::get(id)).collect()
    }

    /// Fits the general cost model of `ayd-core` to a platform's measured costs
    /// under this scenario, with downtime `downtime` seconds.
    ///
    /// The fitted coefficients reproduce the measured `C_P` and `V_P` exactly at
    /// the platform's measured processor count, and extrapolate according to the
    /// scenario's shapes elsewhere.
    pub fn fit(&self, platform: &Platform, downtime: f64) -> Result<ResilienceCosts, ModelError> {
        let p = platform.measured_processors as f64;
        let checkpoint = match self.checkpoint {
            CostShape::Linear => CheckpointCost::linear(platform.measured_checkpoint / p),
            CostShape::Constant => CheckpointCost::constant(platform.measured_checkpoint),
            CostShape::PerProcessor => {
                CheckpointCost::per_processor(platform.measured_checkpoint * p)
            }
        };
        let verification = match self.verification {
            VerificationShape::Constant => {
                VerificationCost::constant(platform.measured_verification)
            }
            VerificationShape::PerProcessor => {
                VerificationCost::per_processor(platform.measured_verification * p)
            }
        };
        ResilienceCosts::new(checkpoint, verification, downtime)
    }

    /// Which of the paper's analysis cases the scenario belongs to (Section IV.A):
    /// scenarios 1–2 are case 1 (Theorem 2), scenarios 3–5 are case 2 (Theorem 3),
    /// scenario 6 is case 3.
    pub fn analysis_case(&self) -> usize {
        match self.id {
            ScenarioId::S1 | ScenarioId::S2 => 1,
            ScenarioId::S3 | ScenarioId::S4 | ScenarioId::S5 => 2,
            ScenarioId::S6 => 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{Platform, PlatformId};

    fn hera() -> Platform {
        Platform::get(PlatformId::Hera)
    }

    #[test]
    fn table3_shapes_are_correct() {
        assert_eq!(Scenario::get(ScenarioId::S1).checkpoint, CostShape::Linear);
        assert_eq!(
            Scenario::get(ScenarioId::S1).verification,
            VerificationShape::Constant
        );
        assert_eq!(
            Scenario::get(ScenarioId::S2).verification,
            VerificationShape::PerProcessor
        );
        assert_eq!(
            Scenario::get(ScenarioId::S3).checkpoint,
            CostShape::Constant
        );
        assert_eq!(
            Scenario::get(ScenarioId::S4).checkpoint,
            CostShape::Constant
        );
        assert_eq!(
            Scenario::get(ScenarioId::S5).checkpoint,
            CostShape::PerProcessor
        );
        assert_eq!(
            Scenario::get(ScenarioId::S6).checkpoint,
            CostShape::PerProcessor
        );
        assert_eq!(
            Scenario::get(ScenarioId::S6).verification,
            VerificationShape::PerProcessor
        );
    }

    #[test]
    fn fitted_costs_reproduce_measurements_at_measured_p() {
        for platform in Platform::all() {
            let p = platform.measured_processors as f64;
            for scenario in Scenario::all() {
                let costs = scenario.fit(&platform, 3600.0).unwrap();
                assert!(
                    (costs.checkpoint_at(p) - platform.measured_checkpoint).abs() < 1e-9,
                    "{:?}/{:?}",
                    platform.id,
                    scenario.id
                );
                assert!(
                    (costs.verification_at(p) - platform.measured_verification).abs() < 1e-9,
                    "{:?}/{:?}",
                    platform.id,
                    scenario.id
                );
                assert_eq!(costs.downtime, 3600.0);
            }
        }
    }

    #[test]
    fn extrapolation_follows_scenario_shape() {
        let platform = hera();
        let p = platform.measured_processors as f64;
        // Scenario 1: doubling P doubles the checkpoint cost.
        let s1 = Scenario::get(ScenarioId::S1).fit(&platform, 0.0).unwrap();
        assert!((s1.checkpoint_at(2.0 * p) - 2.0 * platform.measured_checkpoint).abs() < 1e-9);
        // Scenario 3: doubling P leaves it unchanged.
        let s3 = Scenario::get(ScenarioId::S3).fit(&platform, 0.0).unwrap();
        assert!((s3.checkpoint_at(2.0 * p) - platform.measured_checkpoint).abs() < 1e-9);
        // Scenario 5: doubling P halves it.
        let s5 = Scenario::get(ScenarioId::S5).fit(&platform, 0.0).unwrap();
        assert!((s5.checkpoint_at(2.0 * p) - platform.measured_checkpoint / 2.0).abs() < 1e-9);
    }

    #[test]
    fn analysis_case_mapping_matches_paper() {
        assert_eq!(Scenario::get(ScenarioId::S1).analysis_case(), 1);
        assert_eq!(Scenario::get(ScenarioId::S2).analysis_case(), 1);
        assert_eq!(Scenario::get(ScenarioId::S3).analysis_case(), 2);
        assert_eq!(Scenario::get(ScenarioId::S4).analysis_case(), 2);
        assert_eq!(Scenario::get(ScenarioId::S5).analysis_case(), 2);
        assert_eq!(Scenario::get(ScenarioId::S6).analysis_case(), 3);
    }

    #[test]
    fn scenario_numbers_round_trip() {
        for id in ScenarioId::ALL {
            assert_eq!(ScenarioId::from_number(id.number()), Some(id));
        }
        assert_eq!(ScenarioId::from_number(0), None);
        assert_eq!(ScenarioId::from_number(7), None);
    }

    #[test]
    fn representative_scenarios_are_one_three_five() {
        let numbers: Vec<usize> = ScenarioId::REPRESENTATIVE
            .iter()
            .map(|s| s.number())
            .collect();
        assert_eq!(numbers, vec![1, 3, 5]);
    }

    #[test]
    fn negative_downtime_is_rejected() {
        assert!(Scenario::get(ScenarioId::S1).fit(&hera(), -1.0).is_err());
    }
}

/// Golden values: the cost coefficients fitted from Table II under every
/// scenario of Table III, pinned as literals for all 24 (scenario, platform)
/// pairs so refactors of the fitting cannot silently drift from the paper.
#[cfg(test)]
mod golden_tests {
    use super::*;
    use crate::platform::PlatformId;

    /// (scenario, platform, c, a, b, v, u) with the convention that exactly one
    /// checkpoint coefficient and one verification coefficient are non-zero.
    const GOLDEN: [(usize, PlatformId, f64, f64, f64, f64, f64); 24] = [
        (1, PlatformId::Hera, 0.585_937_5, 0.0, 0.0, 15.4, 0.0),
        (1, PlatformId::Atlas, 0.428_710_937_5, 0.0, 0.0, 9.1, 0.0),
        (1, PlatformId::Coastal, 0.513_183_593_75, 0.0, 0.0, 4.5, 0.0),
        (
            1,
            PlatformId::CoastalSsd,
            1.220_703_125,
            0.0,
            0.0,
            180.0,
            0.0,
        ),
        (2, PlatformId::Hera, 0.585_937_5, 0.0, 0.0, 0.0, 7_884.8),
        (
            2,
            PlatformId::Atlas,
            0.428_710_937_5,
            0.0,
            0.0,
            0.0,
            9_318.4,
        ),
        (
            2,
            PlatformId::Coastal,
            0.513_183_593_75,
            0.0,
            0.0,
            0.0,
            9_216.0,
        ),
        (
            2,
            PlatformId::CoastalSsd,
            1.220_703_125,
            0.0,
            0.0,
            0.0,
            368_640.0,
        ),
        (3, PlatformId::Hera, 0.0, 300.0, 0.0, 15.4, 0.0),
        (3, PlatformId::Atlas, 0.0, 439.0, 0.0, 9.1, 0.0),
        (3, PlatformId::Coastal, 0.0, 1_051.0, 0.0, 4.5, 0.0),
        (3, PlatformId::CoastalSsd, 0.0, 2_500.0, 0.0, 180.0, 0.0),
        (4, PlatformId::Hera, 0.0, 300.0, 0.0, 0.0, 7_884.8),
        (4, PlatformId::Atlas, 0.0, 439.0, 0.0, 0.0, 9_318.4),
        (4, PlatformId::Coastal, 0.0, 1_051.0, 0.0, 0.0, 9_216.0),
        (4, PlatformId::CoastalSsd, 0.0, 2_500.0, 0.0, 0.0, 368_640.0),
        (5, PlatformId::Hera, 0.0, 0.0, 153_600.0, 15.4, 0.0),
        (5, PlatformId::Atlas, 0.0, 0.0, 449_536.0, 9.1, 0.0),
        (5, PlatformId::Coastal, 0.0, 0.0, 2_152_448.0, 4.5, 0.0),
        (5, PlatformId::CoastalSsd, 0.0, 0.0, 5_120_000.0, 180.0, 0.0),
        (6, PlatformId::Hera, 0.0, 0.0, 153_600.0, 0.0, 7_884.8),
        (6, PlatformId::Atlas, 0.0, 0.0, 449_536.0, 0.0, 9_318.4),
        (6, PlatformId::Coastal, 0.0, 0.0, 2_152_448.0, 0.0, 9_216.0),
        (
            6,
            PlatformId::CoastalSsd,
            0.0,
            0.0,
            5_120_000.0,
            0.0,
            368_640.0,
        ),
    ];

    #[test]
    fn golden_table3_fitted_coefficients() {
        for (number, platform_id, c, a, b, v, u) in GOLDEN {
            let scenario = Scenario::get(ScenarioId::from_number(number).unwrap());
            let platform = Platform::get(platform_id);
            let costs = scenario.fit(&platform, 3600.0).unwrap();
            let close = |label: &str, got: f64, want: f64| {
                // The products of measured values with powers of two are exact
                // in binary; decimal literals like 15.4 carry one rounding, so
                // compare with a tight relative tolerance instead of bitwise.
                let tolerance = 1e-12 * want.abs().max(1.0);
                assert!(
                    (got - want).abs() <= tolerance,
                    "scenario {number} {platform_id:?} {label}: got {got}, want {want}"
                );
            };
            close("c", costs.checkpoint.c, c);
            close("a", costs.checkpoint.a, a);
            close("b", costs.checkpoint.b, b);
            close("v", costs.verification.v, v);
            close("u", costs.verification.u, u);
        }
    }

    #[test]
    fn golden_covers_every_scenario_platform_pair_once() {
        let mut seen = std::collections::HashSet::new();
        for (number, platform_id, ..) in GOLDEN {
            assert!(
                seen.insert((number, platform_id)),
                "duplicate ({number}, {platform_id:?})"
            );
        }
        assert_eq!(seen.len(), 6 * 4);
    }
}
