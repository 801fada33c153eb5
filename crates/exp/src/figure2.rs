//! Figure 2 — performance of the optimal patterns in the six resilience
//! scenarios on the four platforms (`α = 0.1`).
//!
//! For every (platform, scenario) pair the paper plots three panels: the optimal
//! number of processors `P*`, the optimal checkpointing period `T*` and the
//! execution overhead, each with a "First-order" and an "Optimal" (numerical)
//! series; the overhead panel additionally separates analytical predictions from
//! simulation results. [`run`] regenerates all of those series.

use ayd_platforms::{ExperimentSetup, PlatformId, ScenarioId};
use ayd_sweep::RunOptions;

use crate::evaluate::{Evaluator, OptimumComparison};
use crate::table::{fmt_option, fmt_value, TextTable};

/// One (platform, scenario) cell of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure2Row {
    /// Platform name.
    pub platform: PlatformId,
    /// Scenario number (1–6).
    pub scenario: usize,
    /// First-order and numerical optima (with simulations when requested).
    pub comparison: OptimumComparison,
}

/// All series of Figure 2.
#[derive(Debug, Clone)]
pub struct Figure2Data {
    /// Sequential fraction used (the paper fixes 0.1).
    pub alpha: f64,
    /// One row per (platform, scenario) pair, platforms outermost.
    pub rows: Vec<Figure2Row>,
}

/// Runs Figure 2 for a single platform (all six scenarios).
pub fn run_platform(platform: PlatformId, options: &RunOptions) -> Vec<Figure2Row> {
    let evaluator = Evaluator::new(*options);
    ScenarioId::ALL
        .iter()
        .map(|&scenario| {
            let model = ExperimentSetup::paper_default(platform, scenario)
                .model()
                .expect("paper-default setups are valid");
            Figure2Row {
                platform,
                scenario: scenario.number(),
                comparison: evaluator.compare(&model),
            }
        })
        .collect()
}

/// Runs the full Figure 2 (four platforms × six scenarios).
pub fn run(options: &RunOptions) -> Figure2Data {
    let mut rows = Vec::with_capacity(24);
    for platform in PlatformId::ALL {
        rows.extend(run_platform(platform, options));
    }
    Figure2Data { alpha: 0.1, rows }
}

/// Renders the figure's series as one table (a row per platform/scenario pair).
pub fn render(data: &Figure2Data) -> TextTable {
    let mut table = TextTable::new(
        format!(
            "Figure 2 — optimal patterns per scenario (alpha = {})",
            data.alpha
        ),
        &[
            "platform",
            "scenario",
            "P* (first-order)",
            "P* (optimal)",
            "T* (first-order)",
            "T* (optimal)",
            "H (fo prediction)",
            "H (fo simulation)",
            "H (opt prediction)",
            "H (opt simulation)",
        ],
    );
    for row in &data.rows {
        let fo = row.comparison.first_order;
        let num = row.comparison.numerical;
        table.push_row(vec![
            format!("{:?}", row.platform),
            row.scenario.to_string(),
            fmt_option(fo.map(|p| p.processors)),
            fmt_value(num.processors),
            fmt_option(fo.map(|p| p.period)),
            fmt_value(num.period),
            fmt_option(fo.and_then(|p| p.formula_overhead)),
            fmt_option(fo.and_then(|p| p.simulated.map(|s| s.mean))),
            fmt_value(num.predicted_overhead),
            fmt_option(num.simulated.map(|s| s.mean)),
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
    fn hera_matches_paper_magnitudes() {
        // Figure 2, Hera panels: P* between ~200 and ~900 across scenarios,
        // T* between ~2000 s and ~10000 s, overhead ≈ 0.11 in scenarios 1–4.
        let rows = run_platform(PlatformId::Hera, &analytical());
        assert_eq!(rows.len(), 6);
        for row in &rows {
            let p = row.comparison.numerical.processors;
            assert!(
                p > 100.0 && p < 2_000.0,
                "scenario {}: P*={p}",
                row.scenario
            );
            let h = row.comparison.numerical.predicted_overhead;
            assert!(h > 0.10 && h < 0.14, "scenario {}: H={h}", row.scenario);
        }
        // Scenarios 1–4 have first-order optima close to the numerical ones.
        for row in rows.iter().filter(|r| r.scenario <= 4) {
            let gap = row.comparison.overhead_gap().expect("first-order exists");
            assert!(gap.abs() < 0.02, "scenario {}: gap={gap}", row.scenario);
        }
        // Scenario 6 has no first-order solution (only the numerical one is shown
        // in the paper).
        assert!(rows[5].comparison.first_order.is_none());
        // Scenarios 5 and 6 enrol more processors than scenario 1 (their
        // checkpoint cost decreases with P).
        let p1 = rows[0].comparison.numerical.processors;
        let p5 = rows[4].comparison.numerical.processors;
        let p6 = rows[5].comparison.numerical.processors;
        assert!(p5 > p1, "P*(S5)={p5} should exceed P*(S1)={p1}");
        assert!(
            p6 >= p5 * 0.8,
            "P*(S6)={p6} should be comparable to or above P*(S5)={p5}"
        );
    }

    #[test]
    fn full_figure_covers_all_platform_scenario_pairs() {
        let data = run(&analytical());
        assert_eq!(data.rows.len(), 24);
        let rendered = render(&data);
        assert_eq!(rendered.len(), 24);
        // Coastal SSD has the largest checkpoint cost, hence the longest periods.
        let t_hera_s1 = data.rows[0].comparison.numerical.period;
        let t_ssd_s1 = data
            .rows
            .iter()
            .find(|r| r.platform == PlatformId::CoastalSsd && r.scenario == 1)
            .unwrap()
            .comparison
            .numerical
            .period;
        assert!(t_ssd_s1 > t_hera_s1);
    }

    #[test]
    fn simulation_series_track_predictions_when_enabled() {
        let mut options = RunOptions::smoke();
        options.simulate = true;
        // Just Hera scenario 1 and 3 to keep the test fast.
        let evaluator = Evaluator::new(options);
        for scenario in [ScenarioId::S1, ScenarioId::S3] {
            let model = ExperimentSetup::paper_default(PlatformId::Hera, scenario)
                .model()
                .unwrap();
            let cmp = evaluator.compare(&model);
            let fo = cmp.first_order.unwrap();
            let sim = fo.simulated.unwrap();
            assert!(
                (sim.mean - fo.predicted_overhead).abs() / fo.predicted_overhead < 0.1,
                "{scenario:?}: sim={} predicted={}",
                sim.mean,
                fo.predicted_overhead
            );
        }
    }
}
