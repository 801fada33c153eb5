//! Figure 6 — optimal pattern versus `λ_ind` for a perfectly parallel application
//! (`α = 0`, platform Hera, scenarios 1, 3 and 5).
//!
//! This regime admits no first-order solution, so only the numerical optimum is
//! reported. The paper's numerical analysis suggests `P* ≈ Θ(λ^{-1/2})`,
//! `T* ≈ Θ(λ^{-1/2})` and `H* ≈ Θ(λ^{1/2})` under scenario 1, and
//! `P* ≈ Θ(λ^{-1})`, `T* ≈ O(1)` and `H* ≈ Θ(λ)` under scenarios 3 and 5.

use ayd_core::{fit_power_law, SpeedupProfile};
use ayd_platforms::{PlatformId, ScenarioId};
use ayd_sweep::{RunOptions, ScenarioGrid, SweepExecutor, SweepOptions};

use crate::evaluate::OperatingPoint;
use crate::table::{fmt_option, fmt_value, TextTable};

/// One point of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure6Row {
    /// Scenario number (1, 3 or 5).
    pub scenario: usize,
    /// Individual error rate `λ_ind`.
    pub lambda_ind: f64,
    /// Numerical optimum (no first-order solution exists for `α = 0`).
    pub numerical: OperatingPoint,
}

/// Fitted asymptotic exponents of the `α = 0` regime for one scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure6Slopes {
    /// Scenario number.
    pub scenario: usize,
    /// Fitted exponent of `P*(λ_ind)`.
    pub processors_exponent: f64,
    /// Fitted exponent of `H*(λ_ind)`.
    pub overhead_exponent: f64,
    /// Exponent of `P*` suggested by the paper's numerical analysis
    /// (−1/2 for scenario 1, −1 for scenarios 3 and 5).
    pub expected_processors_exponent: f64,
    /// Exponent of `H*` suggested by the paper (+1/2 for scenario 1, +1 otherwise).
    pub expected_overhead_exponent: f64,
}

/// All series of Figure 6.
#[derive(Debug, Clone)]
pub struct Figure6Data {
    /// Error rates swept.
    pub lambdas: Vec<f64>,
    /// One row per (scenario, λ_ind).
    pub rows: Vec<Figure6Row>,
    /// Fitted slopes per scenario.
    pub slopes: Vec<Figure6Slopes>,
}

/// The error rates of the paper's sweep.
pub fn default_lambda_sweep() -> Vec<f64> {
    vec![1e-12, 1e-11, 1e-10, 1e-9, 1e-8]
}

fn expected_exponents(scenario: usize) -> (f64, f64) {
    match scenario {
        1 | 2 => (-0.5, 0.5),
        _ => (-1.0, 1.0),
    }
}

/// Runs Figure 6 with the given error rates.
///
/// The α = 0 sweep is delegated to `ayd-sweep`; no first-order series exists
/// in this regime, so only the numerical optimum of each cell is consumed.
pub fn run_with(lambdas: &[f64], options: &RunOptions) -> Figure6Data {
    // An empty sweep is a valid (empty) figure, not a grid-validation error.
    if lambdas.is_empty() {
        return Figure6Data {
            lambdas: Vec::new(),
            rows: Vec::new(),
            slopes: Vec::new(),
        };
    }
    let grid = ScenarioGrid::builder()
        .platforms(&[PlatformId::Hera])
        .scenarios(&ScenarioId::REPRESENTATIVE)
        .profiles(&[SpeedupProfile::Amdahl { alpha: 0.0 }])
        .lambda_values(lambdas)
        .build()
        .expect("the Figure 6 grid is valid");
    // The α = 0 optimum grows very fast as λ decreases (up to ~λ^{-1}); allow a
    // very wide search range. Periods can also become short.
    let results = SweepExecutor::new(
        SweepOptions::new(*options)
            .with_processor_range(1.0, 1e14)
            .with_period_range(1e-2, 1e9),
    )
    .run(&grid);
    let rows: Vec<Figure6Row> = results
        .rows
        .iter()
        .map(|row| Figure6Row {
            scenario: row.scenario,
            lambda_ind: row.lambda_ind,
            numerical: row.numerical,
        })
        .collect();
    let mut slopes = Vec::new();
    for &scenario in &ScenarioId::REPRESENTATIVE {
        let p_points: Vec<(f64, f64)> = rows
            .iter()
            .filter(|r| r.scenario == scenario.number())
            .map(|r| (r.lambda_ind, r.numerical.processors))
            .collect();
        let h_points: Vec<(f64, f64)> = rows
            .iter()
            .filter(|r| r.scenario == scenario.number())
            .map(|r| (r.lambda_ind, r.numerical.predicted_overhead))
            .collect();
        if lambdas.len() >= 2 {
            let (expected_p, expected_h) = expected_exponents(scenario.number());
            slopes.push(Figure6Slopes {
                scenario: scenario.number(),
                processors_exponent: fit_power_law(&p_points).exponent,
                overhead_exponent: fit_power_law(&h_points).exponent,
                expected_processors_exponent: expected_p,
                expected_overhead_exponent: expected_h,
            });
        }
    }
    Figure6Data {
        lambdas: lambdas.to_vec(),
        rows,
        slopes,
    }
}

/// Runs Figure 6 with the paper's sweep.
pub fn run(options: &RunOptions) -> Figure6Data {
    run_with(&default_lambda_sweep(), options)
}

/// Renders the series as a table.
pub fn render(data: &Figure6Data) -> TextTable {
    let mut table = TextTable::new(
        "Figure 6 — optimal pattern vs lambda_ind for a perfectly parallel job (alpha = 0)",
        &[
            "scenario",
            "lambda_ind",
            "P* (optimal)",
            "T* (optimal)",
            "H (optimal)",
            "H (simulated)",
        ],
    );
    for row in &data.rows {
        table.push_row(vec![
            row.scenario.to_string(),
            format!("{:.2e}", row.lambda_ind),
            fmt_value(row.numerical.processors),
            fmt_value(row.numerical.period),
            fmt_value(row.numerical.predicted_overhead),
            fmt_option(row.numerical.simulated.map(|s| s.mean)),
        ]);
    }
    table
}

/// Renders the fitted slopes against the paper's suggested asymptotics.
pub fn render_slopes(data: &Figure6Data) -> TextTable {
    let mut table = TextTable::new(
        "Figure 6 — fitted asymptotic exponents (alpha = 0)",
        &[
            "scenario",
            "P* exponent (fit)",
            "P* (paper)",
            "H exponent (fit)",
            "H (paper)",
        ],
    );
    for s in &data.slopes {
        table.push_row(vec![
            s.scenario.to_string(),
            format!("{:.3}", s.processors_exponent),
            format!("{:.3}", s.expected_processors_exponent),
            format!("{:.3}", s.overhead_exponent),
            format!("{:.3}", s.expected_overhead_exponent),
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
    fn overhead_vanishes_with_lambda_but_stays_positive() {
        let data = run_with(&[1e-10, 1e-8], &analytical());
        for row in &data.rows {
            assert!(row.numerical.predicted_overhead > 0.0);
            assert!(
                row.numerical.predicted_overhead < 0.1,
                "alpha = 0 removes the Amdahl floor"
            );
        }
        // Overhead decreases as processors get more reliable.
        for scenario in [1usize, 3, 5] {
            let at = |lambda: f64| {
                data.rows
                    .iter()
                    .find(|r| r.scenario == scenario && r.lambda_ind == lambda)
                    .unwrap()
                    .numerical
                    .predicted_overhead
            };
            assert!(at(1e-10) < at(1e-8), "scenario {scenario}");
        }
    }

    #[test]
    fn scenario1_slopes_follow_minus_half_and_plus_half() {
        let data = run_with(&[1e-11, 1e-10, 1e-9, 1e-8], &analytical());
        let s1 = data.slopes.iter().find(|s| s.scenario == 1).unwrap();
        assert!(
            (s1.processors_exponent - (-0.5)).abs() < 0.12,
            "P* exponent {}",
            s1.processors_exponent
        );
        assert!(
            (s1.overhead_exponent - 0.5).abs() < 0.12,
            "H exponent {}",
            s1.overhead_exponent
        );
    }

    #[test]
    fn constant_cost_scenarios_scale_faster_than_scenario1() {
        // Scenarios 3 and 5 approach P* = Θ(λ^{-1}) and H = Θ(λ): their exponents
        // must be clearly steeper than scenario 1's.
        let data = run_with(&[1e-11, 1e-10, 1e-9, 1e-8], &analytical());
        let exp = |scenario: usize| data.slopes.iter().find(|s| s.scenario == scenario).unwrap();
        assert!(exp(3).processors_exponent < exp(1).processors_exponent - 0.1);
        assert!(exp(5).processors_exponent < exp(1).processors_exponent - 0.1);
        assert!(exp(3).overhead_exponent > exp(1).overhead_exponent + 0.1);
        assert!(exp(5).overhead_exponent > exp(1).overhead_exponent + 0.1);
    }

    #[test]
    fn processor_counts_far_exceed_the_alpha_positive_regime() {
        // With α = 0 the optimal allocation grows way beyond the few hundred
        // processors of Figure 2.
        let data = run_with(&[1e-10], &analytical());
        for row in &data.rows {
            assert!(
                row.numerical.processors > 1e4,
                "scenario {}: {}",
                row.scenario,
                row.numerical.processors
            );
        }
    }

    #[test]
    fn render_tables_have_expected_sizes() {
        let data = run_with(&[1e-9, 1e-8], &analytical());
        assert_eq!(render(&data).len(), 6);
        assert_eq!(render_slopes(&data).len(), 3);
    }

    #[test]
    fn empty_lambda_sweep_produces_empty_data() {
        let data = run_with(&[], &analytical());
        assert!(data.rows.is_empty());
        assert!(data.slopes.is_empty());
    }
}
