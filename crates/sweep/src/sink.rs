//! Streaming sinks: consume sweep rows in cell order as they complete.
//!
//! Each row is rendered once, as its canonical CSV line ([`write_csv_line`]),
//! on the executor worker that evaluated it. The executor feeds sinks through
//! a reorder buffer, so [`SweepSink::on_row`] always observes the lines in the
//! grid's deterministic cell order even though the cells complete out of
//! order across worker threads.

use std::fmt::Write;

use crate::evaluate::SimSummary;
use crate::executor::{SweepResults, SweepRow};

/// Column header of the canonical sweep CSV, pinned by the golden test suite.
///
/// `profile` holds the profile family (`amdahl`, `perfect`, `powerlaw`,
/// `gustafson`) and `profile_param` its parameter (`α` or `σ`, empty for
/// `perfect`); `alpha` keeps the Amdahl-equivalent sequential fraction and is
/// empty for extension profiles. `failure_model` holds the failure-arrival
/// family (`exp`, `weibull`, `shifted`, `trace`) and `failure_param` its
/// parameter (shape `k` or shift `d`; empty for `exp` and `trace`).
pub const CSV_HEADER: &str = "platform,scenario,alpha,profile,profile_param,\
failure_model,failure_param,\
lambda_ind,lambda_multiplier,processors,\
pattern_length,fo_processors,fo_period,fo_overhead,fo_formula_overhead,fo_sim_mean,fo_sim_ci95,\
num_processors,num_period,num_overhead,num_sim_mean,num_sim_ci95,\
pattern_overhead,pattern_sim_mean,pattern_sim_ci95,stream_sim_mean,stream_sim_ci95";

/// Appends `,` and the value's `Display` (nothing for an absent value):
/// `Display` is what fixes the CSV bytes, so no other formatter may stand in.
fn push_value(out: &mut String, value: Option<f64>) {
    out.push(',');
    if let Some(v) = value {
        write!(out, "{v}").expect("writing to a String cannot fail");
    }
}

fn push_sim(out: &mut String, sim: Option<SimSummary>) {
    push_value(out, sim.map(|s| s.mean));
    push_value(out, sim.map(|s| s.ci95));
}

/// Appends one row's canonical CSV line, newline included, to `out`. Absent
/// values (no first-order optimum, no simulation, free axes, non-Amdahl
/// `alpha`) are empty cells. Every number goes through its `Display`
/// (shortest round-trip for `f64`), so parsing the two profile columns back
/// reproduces the profile bit-identically. Writes straight into `out`: no
/// intermediate `String` per value or per row.
pub fn write_csv_line(out: &mut String, row: &SweepRow) {
    let profile = ayd_core::ProfileSpec::from(row.profile);
    write!(out, "{},{}", row.platform.name(), row.scenario)
        .expect("writing to a String cannot fail");
    push_value(out, row.alpha);
    out.push(',');
    out.push_str(profile.kind());
    push_value(out, profile.param());
    out.push(',');
    out.push_str(row.failure_model.kind());
    push_value(out, row.failure_model.param());
    push_value(out, Some(row.lambda_ind));
    push_value(out, Some(row.lambda_multiplier));
    push_value(out, row.fixed_processors);
    push_value(out, row.pattern_length);
    push_value(out, row.first_order.map(|p| p.processors));
    push_value(out, row.first_order.map(|p| p.period));
    push_value(out, row.first_order.map(|p| p.predicted_overhead));
    push_value(out, row.first_order.and_then(|p| p.formula_overhead));
    push_sim(out, row.first_order.and_then(|p| p.simulated));
    push_value(out, Some(row.numerical.processors));
    push_value(out, Some(row.numerical.period));
    push_value(out, Some(row.numerical.predicted_overhead));
    push_sim(out, row.numerical.simulated);
    push_value(out, row.prescribed.map(|p| p.predicted_overhead));
    push_sim(out, row.prescribed.and_then(|p| p.simulated));
    push_sim(out, row.stream_simulated);
    out.push('\n');
}

/// Renders rows as the canonical sweep CSV: the header, then one
/// [`write_csv_line`] per row.
pub fn csv_text<'a>(rows: impl IntoIterator<Item = &'a SweepRow>) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for row in rows {
        write_csv_line(&mut out, row);
    }
    out
}

/// A sink observing the rows of a sweep in cell order.
///
/// Sinks must be `Send`: the executor calls them from whichever worker thread
/// completes the in-order frontier (under a mutex, so calls never overlap).
pub trait SweepSink: Send {
    /// Called once per row, in cell order, with the row's canonical CSV line
    /// (newline included), rendered by the worker that evaluated the row.
    fn on_row(&mut self, line: &str);
    /// Called once after the sweep completes, with the assembled results.
    fn finish(&mut self, _results: &SweepResults) {}
}

/// Discards every row (the plain `run` path).
pub struct NullSink;

impl SweepSink for NullSink {
    fn on_row(&mut self, _line: &str) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{SweepExecutor, SweepOptions};
    use crate::grid::{ProcessorAxis, ScenarioGrid};
    use crate::options::RunOptions;
    use ayd_platforms::ScenarioId;

    fn analytic() -> SweepOptions {
        SweepOptions::new(RunOptions {
            simulate: false,
            ..RunOptions::smoke()
        })
    }

    fn grid() -> ScenarioGrid {
        ScenarioGrid::builder()
            .scenarios(&[ScenarioId::S1, ScenarioId::S3])
            .processors(ProcessorAxis::Fixed(vec![256.0, 1024.0]))
            .build()
            .unwrap()
    }

    #[test]
    fn csv_line_counts_match_the_header() {
        let results = SweepExecutor::new(analytic()).run(&grid());
        let columns = CSV_HEADER.split(',').count();
        for row in &results.rows {
            let mut line = String::new();
            write_csv_line(&mut line, row);
            assert_eq!(line.matches('\n').count(), 1);
            assert_eq!(line.trim_end().split(',').count(), columns);
        }
    }

    #[test]
    fn empty_sweep_still_emits_the_header() {
        let empty = SweepExecutor::new(analytic()).run_cells(&[]);
        assert!(empty.rows.is_empty());
        assert_eq!(empty.to_csv(), format!("{CSV_HEADER}\n"));
        assert_eq!(csv_text(&empty.rows), empty.to_csv());
    }
}
