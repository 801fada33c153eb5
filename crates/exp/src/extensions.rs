//! Extension experiment E1 — non-Amdahl speedup profiles.
//!
//! The paper's conclusion lists "jobs with different speedup profiles" as future
//! work. This experiment exercises that direction with the extension profiles of
//! [`ayd_core::SpeedupProfile`], running them through the shared `ayd-sweep`
//! engine's generic profile axis: the per-cell kernel dispatches the
//! first-order closed forms for the Amdahl family and falls back to the
//! numerical optimiser (which never relied on Amdahl's law) for the power-law
//! and Gustafson profiles, so this module no longer carries any bespoke
//! evaluation loop of its own.

use ayd_core::{ProfileSpec, SpeedupProfile};
use ayd_platforms::{PlatformId, ScenarioId};
use ayd_sweep::{RunOptions, ScenarioGrid, SweepExecutor, SweepOptions};

use crate::evaluate::OperatingPoint;
use crate::table::{fmt_option, fmt_value, TextTable};

/// One row of the extension experiment: a speedup profile under a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtensionRow {
    /// Scenario number.
    pub scenario: usize,
    /// Canonical profile spec (`amdahl:0.1`, `powerlaw:0.9`, …).
    pub profile: String,
    /// Numerically optimal operating point for that profile.
    pub numerical: OperatingPoint,
}

/// Results of the extension experiment.
#[derive(Debug, Clone)]
pub struct ExtensionData {
    /// One row per (scenario, profile).
    pub rows: Vec<ExtensionRow>,
}

/// The profiles exercised: the Amdahl baseline plus the three extension profiles.
pub fn profiles() -> Vec<SpeedupProfile> {
    vec![
        SpeedupProfile::amdahl(0.1).unwrap(),
        SpeedupProfile::power_law(0.9).unwrap(),
        SpeedupProfile::gustafson(0.1).unwrap(),
        SpeedupProfile::perfectly_parallel(),
    ]
}

/// Runs the extension experiment on Hera, scenarios 1 and 3, through the
/// sweep engine's profile axis.
pub fn run(options: &RunOptions) -> ExtensionData {
    let grid = ScenarioGrid::builder()
        .platforms(&[PlatformId::Hera])
        .scenarios(&[ScenarioId::S1, ScenarioId::S3])
        .profiles(&profiles())
        .build()
        .expect("the extension grid is valid");
    let sweep = SweepOptions::new(*options)
        .with_processor_range(1.0, 1e10)
        .with_simulate_first_order(false);
    let results = SweepExecutor::new(sweep).run(&grid);
    let rows = results
        .rows
        .into_iter()
        .map(|row| ExtensionRow {
            scenario: row.scenario,
            profile: ProfileSpec::from(row.profile).to_string(),
            numerical: row.numerical,
        })
        .collect();
    ExtensionData { rows }
}

/// Renders the extension experiment as a table.
pub fn render(data: &ExtensionData) -> TextTable {
    let mut table = TextTable::new(
        "Extension E1 — optimal pattern for non-Amdahl speedup profiles (Hera)",
        &[
            "scenario",
            "profile",
            "P* (optimal)",
            "T* (optimal)",
            "H (optimal)",
            "H (simulated)",
        ],
    );
    for row in &data.rows {
        table.push_row(vec![
            row.scenario.to_string(),
            row.profile.clone(),
            fmt_value(row.numerical.processors),
            fmt_value(row.numerical.period),
            fmt_value(row.numerical.predicted_overhead),
            fmt_option(row.numerical.simulated.map(|s| s.mean)),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analytical() -> RunOptions {
        RunOptions {
            simulate: false,
            ..RunOptions::smoke()
        }
    }

    #[test]
    fn profiles_with_better_scalability_enroll_more_processors() {
        let data = run(&analytical());
        for scenario in [1usize, 3] {
            let p_of = |name: &str| {
                data.rows
                    .iter()
                    .find(|r| r.scenario == scenario && r.profile.starts_with(name))
                    .unwrap()
                    .numerical
                    .processors
            };
            // Amdahl saturates earliest; power-law and Gustafson scale further;
            // the perfectly parallel profile scales the furthest.
            assert!(p_of("powerlaw") > p_of("amdahl"), "scenario {scenario}");
            assert!(p_of("gustafson") > p_of("amdahl"), "scenario {scenario}");
            assert!(p_of("perfect") >= p_of("amdahl"), "scenario {scenario}");
        }
    }

    #[test]
    fn amdahl_overhead_is_bounded_below_by_alpha_but_others_are_not() {
        let data = run(&analytical());
        for row in &data.rows {
            if row.profile.starts_with("amdahl") {
                assert!(row.numerical.predicted_overhead > 0.1);
            }
            if row.profile.starts_with("gustafson") || row.profile.starts_with("perfect") {
                assert!(row.numerical.predicted_overhead < 0.1, "{}", row.profile);
            }
        }
    }

    #[test]
    fn render_lists_every_profile_for_both_scenarios() {
        let data = run(&analytical());
        assert_eq!(data.rows.len(), 8);
        assert_eq!(render(&data).len(), 8);
        // Profiles are reported by their canonical spec strings.
        assert!(data.rows.iter().any(|r| r.profile == "amdahl:0.1"));
        assert!(data.rows.iter().any(|r| r.profile == "powerlaw:0.9"));
        assert!(data.rows.iter().any(|r| r.profile == "gustafson:0.1"));
        assert!(data.rows.iter().any(|r| r.profile == "perfect"));
    }

    #[test]
    fn engine_backed_run_matches_the_direct_evaluator() {
        // Folding the experiment onto the sweep engine must not change the
        // numbers: the numerical series equals a direct Evaluator call over
        // the same extension-profile model, bit for bit.
        use ayd_platforms::ExperimentSetup;
        let data = run(&analytical());
        let evaluator =
            crate::evaluate::Evaluator::new(analytical()).with_processor_range(1.0, 1e10);
        let base = ExperimentSetup::paper_default(PlatformId::Hera, ScenarioId::S1)
            .with_profile(SpeedupProfile::power_law(0.9).unwrap())
            .model()
            .unwrap();
        let direct = evaluator.numerical_point(&base);
        let engine = &data
            .rows
            .iter()
            .find(|r| r.scenario == 1 && r.profile == "powerlaw:0.9")
            .unwrap()
            .numerical;
        assert_eq!(engine.processors, direct.processors);
        assert_eq!(engine.period, direct.period);
        assert_eq!(engine.predicted_overhead, direct.predicted_overhead);
    }
}
