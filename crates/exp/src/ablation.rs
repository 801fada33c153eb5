//! Ablation studies of the reproduction's own design choices.
//!
//! * **A1 — first-order gap across the validity region**: how far can the
//!   processor count be pushed (as an order of `λ_ind`) before the first-order
//!   period of Theorem 1 stops being a good surrogate for the numerically optimal
//!   period? This quantifies the validity bounds of Section III.B.
//! * **A2 — simulation engines**: the window-sampling and event-stream engines
//!   implement the same stochastic process with different mechanics; this ablation
//!   measures how closely their outputs agree (they must differ only by
//!   Monte-Carlo noise).

use ayd_core::ValidityBounds;
use ayd_platforms::{ExperimentSetup, PlatformId, ScenarioId};
use ayd_sweep::{ProcessorAxis, RunOptions, ScenarioGrid, SweepExecutor, SweepOptions};

use crate::table::{fmt_value, TextTable};

/// One row of ablation A1: the first-order-versus-numerical overhead gap at a
/// processor count of a given order in `λ_ind`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FirstOrderGapRow {
    /// Scenario number.
    pub scenario: usize,
    /// Order `x` such that the evaluated processor count is `λ_ind^{-x}`.
    pub processor_order: f64,
    /// The concrete processor count.
    pub processors: f64,
    /// Whether the point lies inside the validity region of Inequality (5).
    pub within_validity_bounds: bool,
    /// Relative overhead excess of the first-order period over the numerically
    /// optimal period at this processor count (percent).
    pub gap_percent: f64,
}

/// Results of ablation A1.
#[derive(Debug, Clone)]
pub struct FirstOrderGapData {
    /// One row per (scenario, processor order).
    pub rows: Vec<FirstOrderGapRow>,
}

/// Runs ablation A1 on Hera for scenarios 1, 3 and 5, sweeping the order of the
/// processor count from 0.1 to 0.45 (`P = λ_ind^{-x}`).
///
/// The sweep (three scenarios × seven lambda orders, first-order period versus
/// numerically optimal period at each fixed `P`) runs on `ayd-sweep`'s
/// lambda-order processor axis; only the validity-bound classification stays
/// figure-specific.
pub fn run_first_order_gap(options: &RunOptions) -> FirstOrderGapData {
    let orders = [0.10, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45];
    let grid = ScenarioGrid::builder()
        .platforms(&[PlatformId::Hera])
        .scenarios(&ScenarioId::REPRESENTATIVE)
        .processors(ProcessorAxis::LambdaOrders(orders.to_vec()))
        .build()
        .expect("the ablation A1 grid is valid");
    let analytic = RunOptions {
        simulate: false,
        ..*options
    };
    let results = SweepExecutor::new(SweepOptions::new(analytic)).run(&grid);
    // The validity bound of Inequality (5) is constant per scenario: derive the
    // three bounds once, not per output row.
    let order_bounds: Vec<(usize, f64)> = ScenarioId::REPRESENTATIVE
        .iter()
        .map(|&scenario| {
            let model = ExperimentSetup::paper_default(PlatformId::Hera, scenario)
                .model()
                .expect("paper defaults are valid");
            let bounds = ValidityBounds::for_costs(&model.costs);
            (scenario.number(), bounds.effective_processor_order_bound())
        })
        .collect();
    let rows = results
        .rows
        .iter()
        .map(|row| {
            let (_, order_bound) = order_bounds
                .iter()
                .find(|(number, _)| *number == row.scenario)
                .expect("every sweep row maps to a representative scenario");
            let order = row
                .processor_order
                .expect("lambda-order cells carry their order");
            let fo = row
                .first_order
                .expect("fixed-P cells always carry a first-order period");
            FirstOrderGapRow {
                scenario: row.scenario,
                processor_order: order,
                processors: fo.processors,
                within_validity_bounds: order < *order_bound,
                gap_percent: 100.0 * (fo.predicted_overhead - row.numerical.predicted_overhead)
                    / row.numerical.predicted_overhead,
            }
        })
        .collect();
    FirstOrderGapData { rows }
}

/// Renders ablation A1 as a table.
pub fn render_first_order_gap(data: &FirstOrderGapData) -> TextTable {
    let mut table = TextTable::new(
        "Ablation A1 — first-order gap vs processor order x (P = lambda^-x, Hera)",
        &["scenario", "x", "P", "within bounds", "gap (%)"],
    );
    for row in &data.rows {
        table.push_row(vec![
            row.scenario.to_string(),
            format!("{:.2}", row.processor_order),
            fmt_value(row.processors),
            row.within_validity_bounds.to_string(),
            format!("{:.4}", row.gap_percent),
        ]);
    }
    table
}

/// One row of ablation A2: both engines simulated at the same operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineComparisonRow {
    /// Scenario number.
    pub scenario: usize,
    /// Operating point: processor count.
    pub processors: f64,
    /// Operating point: period (seconds).
    pub period: f64,
    /// Analytical expected overhead (Proposition 1).
    pub analytical: f64,
    /// Simulated overhead, window-sampling engine.
    pub window_engine: f64,
    /// Simulated overhead, event-stream engine.
    pub stream_engine: f64,
    /// Relative disagreement between the two engines.
    pub relative_disagreement: f64,
}

/// Results of ablation A2.
#[derive(Debug, Clone)]
pub struct EngineComparisonData {
    /// One row per scenario.
    pub rows: Vec<EngineComparisonRow>,
}

/// Runs ablation A2: simulates the first-order optimum of Hera scenarios 1, 3
/// and 5 with both engines.
///
/// Runs on `ayd-sweep`'s engine-comparison mode: each cell's primary operating
/// point (the first-order optimum, or the numerical one when no first-order
/// solution exists) is simulated with the window-sampling engine and again
/// with the event-stream engine.
pub fn run_engine_comparison(options: &RunOptions) -> EngineComparisonData {
    let grid = ScenarioGrid::builder()
        .platforms(&[PlatformId::Hera])
        .scenarios(&ScenarioId::REPRESENTATIVE)
        .build()
        .expect("the ablation A2 grid is valid");
    // A2 always simulates (that is the whole point of the ablation), and only
    // at the primary point: skip the numerical-optimum simulation.
    let sweep_options = SweepOptions::new(RunOptions {
        simulate: true,
        ..*options
    })
    .with_compare_engines(true)
    .with_simulate_numerical(false);
    let results = SweepExecutor::new(sweep_options).run(&grid);
    let rows = results
        .rows
        .iter()
        .map(|row| {
            let point = row.primary_point();
            let window = point
                .simulated
                .expect("A2 simulates the primary point of every cell");
            let stream = row
                .stream_simulated
                .expect("engine-comparison mode simulates the event-stream engine");
            EngineComparisonRow {
                scenario: row.scenario,
                processors: point.processors,
                period: point.period,
                analytical: point.predicted_overhead,
                window_engine: window.mean,
                stream_engine: stream.mean,
                relative_disagreement: (window.mean - stream.mean).abs() / window.mean,
            }
        })
        .collect();
    EngineComparisonData { rows }
}

/// Renders ablation A2 as a table.
pub fn render_engine_comparison(data: &EngineComparisonData) -> TextTable {
    let mut table = TextTable::new(
        "Ablation A2 — window-sampling vs event-stream engines (Hera)",
        &[
            "scenario",
            "P",
            "T",
            "analytical H",
            "window H",
            "stream H",
            "disagreement",
        ],
    );
    for row in &data.rows {
        table.push_row(vec![
            row.scenario.to_string(),
            fmt_value(row.processors),
            fmt_value(row.period),
            fmt_value(row.analytical),
            fmt_value(row.window_engine),
            fmt_value(row.stream_engine),
            format!("{:.4}%", 100.0 * row.relative_disagreement),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_is_tiny_inside_the_validity_region() {
        let options = RunOptions {
            simulate: false,
            ..RunOptions::smoke()
        };
        let data = run_first_order_gap(&options);
        assert_eq!(data.rows.len(), 3 * 7);
        for row in &data.rows {
            assert!(row.gap_percent >= -1e-6);
            if row.within_validity_bounds && row.processor_order <= 0.3 {
                assert!(
                    row.gap_percent < 1.0,
                    "scenario {} x={}: gap {}%",
                    row.scenario,
                    row.processor_order,
                    row.gap_percent
                );
            }
        }
    }

    #[test]
    fn validity_bound_is_half_for_scenario1_and_larger_otherwise() {
        let options = RunOptions {
            simulate: false,
            ..RunOptions::smoke()
        };
        let data = run_first_order_gap(&options);
        // Scenario 1 (c ≠ 0): x = 0.45 is still below δ = 0.5 → within bounds.
        // Scenario 3/5 (c = 0): δ = 1, all sampled orders are within bounds.
        for row in &data.rows {
            assert!(
                row.within_validity_bounds,
                "all sampled orders are below their δ"
            );
        }
        let rendered = render_first_order_gap(&data);
        assert_eq!(rendered.len(), data.rows.len());
    }

    #[test]
    fn engines_agree_to_monte_carlo_noise() {
        let data = run_engine_comparison(&RunOptions::smoke());
        assert_eq!(data.rows.len(), 3);
        for row in &data.rows {
            assert!(
                row.relative_disagreement < 0.05,
                "scenario {}: window={} stream={}",
                row.scenario,
                row.window_engine,
                row.stream_engine
            );
            // Both engines also agree with the analytical expectation.
            assert!((row.window_engine - row.analytical).abs() / row.analytical < 0.1);
            assert!((row.stream_engine - row.analytical).abs() / row.analytical < 0.1);
        }
        assert_eq!(render_engine_comparison(&data).len(), 3);
    }
}
