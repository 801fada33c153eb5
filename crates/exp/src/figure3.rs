//! Figure 3 — impact of the processor allocation on the optimal period and the
//! execution overhead (platform Hera, `α = 0.1`).
//!
//! Panel (a): first-order optimal period `T*_P` versus the processor count for
//! each of the six scenarios. Panel (b): simulated execution overhead at that
//! period. Panel (c): relative difference in overhead between the first-order
//! period and the numerically optimal period for the same processor count
//! (the paper reports it stays within 0.2%).

use ayd_platforms::{PlatformId, ScenarioId};
use ayd_sweep::{ProcessorAxis, RunOptions, ScenarioGrid, SweepExecutor, SweepOptions};

use crate::evaluate::SimSummary;
use crate::table::{fmt_option, fmt_value, TextTable};

/// One point of Figure 3: a scenario at a fixed processor count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure3Row {
    /// Scenario number (1–6).
    pub scenario: usize,
    /// Processor count `P`.
    pub processors: f64,
    /// First-order optimal period `T*_P` (Theorem 1).
    pub first_order_period: f64,
    /// Exact-model overhead at the first-order period.
    pub first_order_overhead: f64,
    /// Simulated overhead at the first-order period (panel b), when requested.
    pub simulated: Option<SimSummary>,
    /// Numerically optimal period for this processor count.
    pub numerical_period: f64,
    /// Exact-model overhead at the numerically optimal period.
    pub numerical_overhead: f64,
    /// Relative overhead excess of the first-order period over the numerical one,
    /// in percent (panel c).
    pub overhead_difference_percent: f64,
}

/// All series of Figure 3.
#[derive(Debug, Clone)]
pub struct Figure3Data {
    /// Platform used (the paper uses Hera).
    pub platform: PlatformId,
    /// Processor counts swept.
    pub processors: Vec<f64>,
    /// One row per (scenario, processor count).
    pub rows: Vec<Figure3Row>,
}

/// Default sweep of processor counts (the paper's x-axis spans 200–1400).
pub fn default_processor_sweep() -> Vec<f64> {
    (1..=7).map(|i| (i * 200) as f64).collect()
}

/// Runs Figure 3 on the given processor counts.
///
/// The sweep itself — six scenarios crossed with the processor axis, the
/// first-order period and the numerically optimal period per cell, optional
/// simulation at the first-order point — is delegated to `ayd-sweep`, which
/// parallelises the cells and memoises repeated evaluations.
pub fn run_with_processors(processors: &[f64], options: &RunOptions) -> Figure3Data {
    // An empty sweep is a valid (empty) figure, not a grid-validation error.
    if processors.is_empty() {
        return Figure3Data {
            platform: PlatformId::Hera,
            processors: Vec::new(),
            rows: Vec::new(),
        };
    }
    let grid = ScenarioGrid::builder()
        .platforms(&[PlatformId::Hera])
        .scenarios(&ScenarioId::ALL)
        .processors(ProcessorAxis::Fixed(processors.to_vec()))
        .build()
        .expect("the Figure 3 grid is valid");
    let results = SweepExecutor::new(SweepOptions::new(*options)).run(&grid);
    let rows = results
        .rows
        .iter()
        .map(|row| {
            let fo = row
                .first_order
                .expect("fixed-P cells always carry a first-order period");
            Figure3Row {
                scenario: row.scenario,
                processors: fo.processors,
                first_order_period: fo.period,
                first_order_overhead: fo.predicted_overhead,
                simulated: fo.simulated,
                numerical_period: row.numerical.period,
                numerical_overhead: row.numerical.predicted_overhead,
                overhead_difference_percent: 100.0
                    * (fo.predicted_overhead - row.numerical.predicted_overhead)
                    / row.numerical.predicted_overhead,
            }
        })
        .collect();
    Figure3Data {
        platform: PlatformId::Hera,
        processors: processors.to_vec(),
        rows,
    }
}

/// Runs Figure 3 with the default processor sweep.
pub fn run(options: &RunOptions) -> Figure3Data {
    run_with_processors(&default_processor_sweep(), options)
}

/// Renders the figure's three panels as one table.
pub fn render(data: &Figure3Data) -> TextTable {
    let mut table = TextTable::new(
        "Figure 3 — optimal period and overhead vs processor count (Hera)",
        &[
            "scenario",
            "P",
            "T*_P (first-order)",
            "T (numerical)",
            "H (first-order)",
            "H (simulated)",
            "H (numerical)",
            "diff (%)",
        ],
    );
    for row in &data.rows {
        table.push_row(vec![
            row.scenario.to_string(),
            fmt_value(row.processors),
            fmt_value(row.first_order_period),
            fmt_value(row.numerical_period),
            fmt_value(row.first_order_overhead),
            fmt_option(row.simulated.map(|s| s.mean)),
            fmt_value(row.numerical_overhead),
            format!("{:.4}", row.overhead_difference_percent),
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
    fn period_decreases_with_processor_count_in_all_scenarios() {
        // Figure 3(a): in every scenario the optimal period shrinks as P grows
        // (to compensate for the increased error rate).
        let data = run_with_processors(&[200.0, 400.0, 800.0, 1_400.0], &analytical());
        for scenario in 1..=6 {
            let periods: Vec<f64> = data
                .rows
                .iter()
                .filter(|r| r.scenario == scenario)
                .map(|r| r.first_order_period)
                .collect();
            for w in periods.windows(2) {
                assert!(w[1] < w[0], "scenario {scenario}: periods {periods:?}");
            }
        }
    }

    #[test]
    fn scenarios_sharing_checkpoint_shape_have_similar_periods() {
        // The paper notes the curves of scenarios sharing the same C_P almost
        // overlap (the verification cost is second-order).
        let data = run_with_processors(&[600.0], &analytical());
        let period = |s: usize| {
            data.rows
                .iter()
                .find(|r| r.scenario == s)
                .unwrap()
                .first_order_period
        };
        assert!((period(1) - period(2)).abs() / period(1) < 0.05);
        assert!((period(3) - period(4)).abs() / period(3) < 0.05);
        assert!((period(5) - period(6)).abs() / period(5) < 0.25);
    }

    #[test]
    fn first_order_overhead_is_within_a_fraction_of_percent_of_numerical() {
        // Figure 3(c): the difference stays below ~0.2% over the swept range.
        let data = run_with_processors(&[200.0, 600.0, 1_000.0, 1_400.0], &analytical());
        for row in &data.rows {
            assert!(
                row.overhead_difference_percent >= -1e-6,
                "numerical optimum cannot be worse than the first-order period"
            );
            assert!(
                row.overhead_difference_percent < 0.5,
                "scenario {} at P={}: diff={}%",
                row.scenario,
                row.processors,
                row.overhead_difference_percent
            );
        }
    }

    #[test]
    fn overhead_exhibits_the_u_shape_of_panel_b() {
        // For scenario 1 the overhead first improves with parallelism and then
        // degrades once errors dominate; over 200..1400 processors on Hera the
        // minimum is interior (around 300-400 processors).
        let sweep: Vec<f64> = (1..=14).map(|i| (i * 100) as f64).collect();
        let data = run_with_processors(&sweep, &analytical());
        let overheads: Vec<f64> = data
            .rows
            .iter()
            .filter(|r| r.scenario == 1)
            .map(|r| r.first_order_overhead)
            .collect();
        let min_index = overheads
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(
            min_index > 0 && min_index < overheads.len() - 1,
            "minimum must be interior"
        );
        assert!(overheads.last().unwrap() > &overheads[min_index]);
        assert!(overheads.first().unwrap() > &overheads[min_index]);
    }

    #[test]
    fn render_contains_every_row() {
        let data = run_with_processors(&[400.0, 800.0], &analytical());
        assert_eq!(render(&data).len(), 12);
    }

    #[test]
    fn empty_processor_sweep_produces_empty_data() {
        let data = run_with_processors(&[], &analytical());
        assert!(data.rows.is_empty());
        assert!(data.processors.is_empty());
        assert!(render(&data).is_empty());
    }
}
