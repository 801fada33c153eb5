//! Figure 7 — impact of the downtime `D` on the optimal pattern
//! (platform Hera, `α = 0.1`, scenarios 1, 3 and 5).
//!
//! The first-order formulas of Theorems 2 and 3 do not involve `D`, so the
//! first-order operating point is constant along this sweep; the numerical
//! optimum, by contrast, enrols slightly fewer processors as the downtime grows.
//! Because even a three-hour downtime stays much smaller than the platform MTBF,
//! the overheads of the two solutions remain close.

use ayd_platforms::{ExperimentSetup, PlatformId, ScenarioId};
use ayd_sweep::RunOptions;

use crate::evaluate::{Evaluator, OptimumComparison};
use crate::table::{fmt_option, fmt_value, TextTable};

/// One point of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure7Row {
    /// Scenario number (1, 3 or 5).
    pub scenario: usize,
    /// Downtime in seconds.
    pub downtime: f64,
    /// First-order and numerical optima.
    pub comparison: OptimumComparison,
}

/// All series of Figure 7.
#[derive(Debug, Clone)]
pub struct Figure7Data {
    /// Downtimes swept (seconds).
    pub downtimes: Vec<f64>,
    /// One row per (scenario, downtime).
    pub rows: Vec<Figure7Row>,
}

/// The paper's downtime sweep: 0 to 3 hours.
pub fn default_downtime_sweep() -> Vec<f64> {
    (0..=6).map(|i| i as f64 * 1800.0).collect()
}

/// Runs Figure 7 for the given downtimes.
pub fn run_with_downtimes(downtimes: &[f64], options: &RunOptions) -> Figure7Data {
    let evaluator = Evaluator::new(*options);
    let mut rows = Vec::new();
    for &scenario in &ScenarioId::REPRESENTATIVE {
        for &downtime in downtimes {
            let model = ExperimentSetup::paper_default(PlatformId::Hera, scenario)
                .with_downtime(downtime)
                .model()
                .expect("downtime sweep setups are valid");
            rows.push(Figure7Row {
                scenario: scenario.number(),
                downtime,
                comparison: evaluator.compare(&model),
            });
        }
    }
    Figure7Data {
        downtimes: downtimes.to_vec(),
        rows,
    }
}

/// Runs Figure 7 with the paper's sweep.
pub fn run(options: &RunOptions) -> Figure7Data {
    run_with_downtimes(&default_downtime_sweep(), options)
}

/// Renders the series as a table.
pub fn render(data: &Figure7Data) -> TextTable {
    let mut table = TextTable::new(
        "Figure 7 — optimal pattern vs downtime (Hera, alpha = 0.1)",
        &[
            "scenario",
            "D (h)",
            "P* (first-order)",
            "P* (optimal)",
            "T* (first-order)",
            "T* (optimal)",
            "H (first-order)",
            "H (optimal)",
            "H (simulated @fo)",
            "H (simulated @opt)",
        ],
    );
    for row in &data.rows {
        let fo = row.comparison.first_order;
        let num = row.comparison.numerical;
        table.push_row(vec![
            row.scenario.to_string(),
            format!("{:.1}", row.downtime / 3600.0),
            fmt_option(fo.map(|p| p.processors)),
            fmt_value(num.processors),
            fmt_option(fo.map(|p| p.period)),
            fmt_value(num.period),
            fmt_option(fo.map(|p| p.predicted_overhead)),
            fmt_value(num.predicted_overhead),
            fmt_option(fo.and_then(|p| p.simulated.map(|s| s.mean))),
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
    fn first_order_point_does_not_depend_on_downtime() {
        let data = run_with_downtimes(&[0.0, 3600.0, 10_800.0], &analytical());
        for scenario in [1usize, 3, 5] {
            let series: Vec<&Figure7Row> = data
                .rows
                .iter()
                .filter(|r| r.scenario == scenario)
                .collect();
            let first = series[0].comparison.first_order.unwrap();
            for row in &series[1..] {
                let fo = row.comparison.first_order.unwrap();
                assert!((fo.processors - first.processors).abs() < 1e-9);
                assert!((fo.period - first.period).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn numerical_optimum_enrolls_fewer_processors_as_downtime_grows() {
        let data = run_with_downtimes(&[0.0, 10_800.0], &analytical());
        for scenario in [1usize, 3, 5] {
            let at = |d: f64| {
                data.rows
                    .iter()
                    .find(|r| r.scenario == scenario && r.downtime == d)
                    .unwrap()
                    .comparison
                    .numerical
                    .processors
            };
            assert!(
                at(10_800.0) <= at(0.0) + 1e-6,
                "scenario {scenario}: P*(3h)={} P*(0)={}",
                at(10_800.0),
                at(0.0)
            );
        }
    }

    #[test]
    fn overheads_of_both_solutions_stay_close_across_the_sweep() {
        // The paper's conclusion for this figure: even with a 3-hour downtime the
        // first-order solution loses very little against the numerical optimum.
        let data = run_with_downtimes(&[0.0, 5_400.0, 10_800.0], &analytical());
        for row in &data.rows {
            let gap = row.comparison.overhead_gap().unwrap();
            assert!(gap >= -1e-9, "first-order can never beat the optimum");
            // Scenario 5's Theorem-3 point ignores the (still sizeable) b/P part of
            // its checkpoint cost, so its gap is larger — the paper reports "up to
            // 5%" for the simulated overhead; the exact-model gap at the
            // first-order operating point is of the order of 10%.
            let tolerance = if row.scenario == 5 { 0.12 } else { 0.02 };
            assert!(
                gap < tolerance,
                "scenario {} D={}: gap={gap}",
                row.scenario,
                row.downtime
            );
        }
    }

    #[test]
    fn overhead_increases_with_downtime() {
        let data = run_with_downtimes(&[0.0, 10_800.0], &analytical());
        for scenario in [1usize, 3, 5] {
            let at = |d: f64| {
                data.rows
                    .iter()
                    .find(|r| r.scenario == scenario && r.downtime == d)
                    .unwrap()
                    .comparison
                    .numerical
                    .predicted_overhead
            };
            assert!(at(10_800.0) > at(0.0), "scenario {scenario}");
        }
    }

    #[test]
    fn render_has_one_row_per_point() {
        let data = run_with_downtimes(&[0.0, 3600.0], &analytical());
        assert_eq!(render(&data).len(), 6);
    }
}
