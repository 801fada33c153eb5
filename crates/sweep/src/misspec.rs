//! Misspecification report: how far the paper's exponential-failure analytics
//! drift when the platform's true arrival law is not exponential.
//!
//! The analytic series of a sweep (`first_order`, `closed_form`, `numerical`)
//! always assume the paper's exponential failure model; a cell with a
//! non-exponential [`FailureModelSpec`] simulates under the *true* law (the
//! executor's simulation-first policy guarantees the primary operating point
//! carries such a simulation whenever simulation is on). The gap between the
//! two is the model's misspecification error, and this module turns it into a
//! small per-row report.
//!
//! The 3-sigma harness of the validation suite is deliberately **inverted**
//! here: the validation tests assert `|model − simulation| ≤ 3·SE` to prove
//! the model right under its own assumptions, while this report flags rows
//! where `|model − simulation| > 3·SE` — statistically significant evidence
//! that the exponential model mispredicts the overhead under the cell's law.

use ayd_core::FailureModelSpec;
use ayd_platforms::PlatformId;

use crate::executor::{SweepResults, SweepRow};

/// One non-exponential row's model-vs-simulation comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MisspecificationRow {
    /// Platform of the row.
    pub platform: PlatformId,
    /// Scenario number (1–6).
    pub scenario: usize,
    /// The row's (non-exponential) failure model.
    pub failure_model: FailureModelSpec,
    /// Individual error rate `λ_ind` of the row.
    pub lambda_ind: f64,
    /// Overhead the exponential model predicts at the primary point.
    pub predicted_overhead: f64,
    /// Mean overhead simulated under the true law at the same point.
    pub simulated_overhead: f64,
    /// Half-width of the simulation's 95% confidence interval.
    pub simulated_ci95: f64,
    /// Signed relative error of the prediction:
    /// `(simulated − predicted) / predicted`.
    pub relative_error: f64,
    /// True when `|predicted − simulated| > 3·SE` (with `SE = ci95 / 1.96`):
    /// the misprediction is statistically significant at the 3-sigma level,
    /// not simulation noise.
    pub significant: bool,
}

/// Per-sweep misspecification report (see [`misspecification_report`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MisspecificationReport {
    /// One entry per non-exponential row that carries a primary-point
    /// simulation, in row order.
    pub rows: Vec<MisspecificationRow>,
}

impl MisspecificationReport {
    /// True when no row produced a comparison (all-exponential sweep, or
    /// simulation was off).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of rows whose misprediction is significant at 3 sigma.
    pub fn significant_count(&self) -> usize {
        self.rows.iter().filter(|r| r.significant).count()
    }

    /// Renders the report as an aligned text table (empty string when the
    /// report is empty).
    pub fn render(&self) -> String {
        if self.rows.is_empty() {
            return String::new();
        }
        let mut out = String::from(
            "platform    scenario  failure_model     lambda_ind    predicted    simulated    rel_error  3-sigma\n",
        );
        for row in &self.rows {
            out.push_str(&format!(
                "{:<10}  {:<8}  {:<16}  {:<11.4e}  {:<11.6}  {:<11.6}  {:>+8.2}%  {}\n",
                format!("{:?}", row.platform),
                row.scenario,
                row.failure_model.to_string(),
                row.lambda_ind,
                row.predicted_overhead,
                row.simulated_overhead,
                100.0 * row.relative_error,
                if row.significant { "yes" } else { "no" },
            ));
        }
        out
    }
}

/// Extracts one comparison from a row, when the row is non-exponential and
/// its primary point was simulated.
pub fn misspecification_of(row: &SweepRow) -> Option<MisspecificationRow> {
    if row.failure_model.is_exponential() {
        return None;
    }
    let point = row.primary_point();
    let simulated = point.simulated?;
    let predicted = point.predicted_overhead;
    let standard_error = simulated.ci95 / 1.96;
    Some(MisspecificationRow {
        platform: row.platform,
        scenario: row.scenario,
        failure_model: row.failure_model.clone(),
        lambda_ind: row.lambda_ind,
        predicted_overhead: predicted,
        simulated_overhead: simulated.mean,
        simulated_ci95: simulated.ci95,
        relative_error: (simulated.mean - predicted) / predicted,
        significant: (predicted - simulated.mean).abs() > 3.0 * standard_error,
    })
}

/// Builds the misspecification report of a sweep: one entry per
/// non-exponential row whose primary point carries a simulation.
pub fn misspecification_report(results: &SweepResults) -> MisspecificationReport {
    MisspecificationReport {
        rows: results
            .rows
            .iter()
            .filter_map(misspecification_of)
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{SweepExecutor, SweepOptions};
    use crate::grid::{ProcessorAxis, ScenarioGrid};
    use crate::options::RunOptions;
    use ayd_platforms::ScenarioId;

    fn mixed_grid() -> ScenarioGrid {
        ScenarioGrid::builder()
            .scenarios(&[ScenarioId::S1])
            .failure_models(&[
                FailureModelSpec::exponential(),
                FailureModelSpec::weibull(0.7).unwrap(),
                FailureModelSpec::weibull(1.0).unwrap(),
            ])
            .lambda_multipliers(&[10.0])
            .processors(ProcessorAxis::Fixed(vec![512.0]))
            .build()
            .unwrap()
    }

    #[test]
    fn report_covers_exactly_the_non_exponential_rows() {
        let results = SweepExecutor::new(SweepOptions::new(RunOptions::smoke())).run(&mixed_grid());
        let report = misspecification_report(&results);
        // The exponential row is excluded; so is weibull:1.0, which
        // canonicalises to exponential. Only weibull:0.7 remains.
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        assert_eq!(row.failure_model.kind(), "weibull");
        assert_eq!(row.failure_model.param(), Some(0.7));
        assert!(row.predicted_overhead > 0.0);
        assert!(row.simulated_overhead > 0.0);
        assert!(row.relative_error.is_finite());
        let rendered = report.render();
        assert!(rendered.contains("weibull:0.7"), "{rendered}");
        assert!(rendered.contains("3-sigma"), "{rendered}");
    }

    #[test]
    fn analytic_sweeps_produce_an_empty_report() {
        let options = SweepOptions::new(RunOptions {
            simulate: false,
            ..RunOptions::smoke()
        });
        let results = SweepExecutor::new(options).run(&mixed_grid());
        let report = misspecification_report(&results);
        assert!(report.is_empty());
        assert_eq!(report.significant_count(), 0);
        assert_eq!(report.render(), "");
    }

    #[test]
    fn a_strongly_non_exponential_law_is_flagged_at_three_sigma() {
        // A heavy-tailed weibull (k = 0.5) at a high error rate mispredicts
        // far beyond simulation noise; standard fidelity makes the confidence
        // interval tight enough to resolve the gap.
        let grid = ScenarioGrid::builder()
            .scenarios(&[ScenarioId::S1])
            .failure_models(&[FailureModelSpec::weibull(0.5).unwrap()])
            .lambda_multipliers(&[10.0])
            .processors(ProcessorAxis::Fixed(vec![512.0]))
            .build()
            .unwrap();
        let run = RunOptions {
            fidelity: crate::options::Fidelity::Standard,
            ..RunOptions::smoke()
        };
        let results = SweepExecutor::new(SweepOptions::new(run)).run(&grid);
        let report = misspecification_report(&results);
        assert_eq!(report.rows.len(), 1);
        assert!(
            report.rows[0].significant,
            "expected a 3-sigma misprediction, got {:?}",
            report.rows[0]
        );
        assert_eq!(report.significant_count(), 1);
    }
}
