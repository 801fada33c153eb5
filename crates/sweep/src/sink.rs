//! Streaming sinks: consume sweep rows in cell order as they complete.
//!
//! The executor feeds sinks through a reorder buffer, so [`SweepSink::on_row`]
//! always observes rows in the grid's deterministic cell order even though the
//! cells complete out of order across worker threads. [`CsvSink`] streams the
//! canonical CSV; [`ReportSink`] accumulates a compact summary.

use std::io::Write;
use std::sync::{Arc, Mutex};

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

fn push_value(out: &mut String, value: Option<f64>) {
    out.push(',');
    if let Some(v) = value {
        out.push_str(&format!("{v}"));
    }
}

fn push_sim(out: &mut String, sim: Option<SimSummary>) {
    push_value(out, sim.map(|s| s.mean));
    push_value(out, sim.map(|s| s.ci95));
}

/// Renders one row as its canonical CSV line (no trailing newline). Absent
/// values (no first-order optimum, no simulation, free axes, non-Amdahl
/// `alpha`) are empty cells. The profile parameter uses shortest-roundtrip
/// `f64` formatting, so parsing the two profile columns back reproduces the
/// profile bit-identically.
pub fn csv_line(row: &SweepRow) -> String {
    let profile = ayd_core::ProfileSpec::from(row.profile);
    let mut out = format!("{},{}", row.platform.name(), row.scenario);
    push_value(&mut out, row.alpha);
    out.push(',');
    out.push_str(profile.kind());
    push_value(&mut out, profile.param());
    out.push(',');
    out.push_str(row.failure_model.kind());
    push_value(&mut out, row.failure_model.param());
    out.push_str(&format!(",{},{}", row.lambda_ind, row.lambda_multiplier));
    push_value(&mut out, row.fixed_processors);
    push_value(&mut out, row.pattern_length);
    push_value(&mut out, row.first_order.map(|p| p.processors));
    push_value(&mut out, row.first_order.map(|p| p.period));
    push_value(&mut out, row.first_order.map(|p| p.predicted_overhead));
    push_value(&mut out, row.first_order.and_then(|p| p.formula_overhead));
    push_sim(&mut out, row.first_order.and_then(|p| p.simulated));
    push_value(&mut out, Some(row.numerical.processors));
    push_value(&mut out, Some(row.numerical.period));
    push_value(&mut out, Some(row.numerical.predicted_overhead));
    push_sim(&mut out, row.numerical.simulated);
    push_value(&mut out, row.prescribed.map(|p| p.predicted_overhead));
    push_sim(&mut out, row.prescribed.and_then(|p| p.simulated));
    push_sim(&mut out, row.stream_simulated);
    out
}

/// Renders rows as the canonical sweep CSV: the header, then one
/// [`csv_line`] per row, each newline-terminated.
pub fn csv_text<'a>(rows: impl IntoIterator<Item = &'a SweepRow>) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for row in rows {
        out.push_str(&csv_line(row));
        out.push('\n');
    }
    out
}

/// A sink observing the rows of a sweep in cell order.
///
/// Sinks must be `Send`: the executor calls them from whichever worker thread
/// completes the in-order frontier (under a mutex, so calls never overlap).
pub trait SweepSink: Send {
    /// Called once per row, in cell order.
    fn on_row(&mut self, row: &SweepRow);
    /// Called once after the sweep completes, with the assembled results.
    fn finish(&mut self, _results: &SweepResults) {}
}

/// Discards every row (the plain `run` path).
pub struct NullSink;

impl SweepSink for NullSink {
    fn on_row(&mut self, _row: &SweepRow) {}
}

/// Streams the canonical CSV (header first) into any writer.
pub struct CsvSink<W: Write + Send> {
    writer: W,
    wrote_header: bool,
}

impl<W: Write + Send> CsvSink<W> {
    /// Creates a CSV sink over `writer`. The header is written lazily with the
    /// first row (or by [`SweepSink::finish`] for empty sweeps).
    pub fn new(writer: W) -> Self {
        Self {
            writer,
            wrote_header: false,
        }
    }

    fn header(&mut self) {
        if !self.wrote_header {
            writeln!(self.writer, "{CSV_HEADER}").expect("CSV sink write failed");
            self.wrote_header = true;
        }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write + Send> SweepSink for CsvSink<W> {
    fn on_row(&mut self, row: &SweepRow) {
        self.header();
        writeln!(self.writer, "{}", csv_line(row)).expect("CSV sink write failed");
    }

    fn finish(&mut self, _results: &SweepResults) {
        self.header();
        self.writer.flush().expect("CSV sink flush failed");
    }
}

/// Accumulates a compact summary of a sweep: row count, overhead extrema and
/// the worst first-order-versus-numerical gap observed.
#[derive(Debug, Clone, Default)]
pub struct ReportSink {
    /// Number of rows observed.
    pub rows: usize,
    /// Smallest numerical overhead across the sweep.
    pub min_overhead: Option<(f64, usize)>,
    /// Largest numerical overhead across the sweep.
    pub max_overhead: Option<(f64, usize)>,
    /// Largest relative first-order-versus-numerical overhead gap.
    pub worst_gap: Option<(f64, usize)>,
}

impl SweepSink for ReportSink {
    fn on_row(&mut self, row: &SweepRow) {
        let index = self.rows;
        self.rows += 1;
        let h = row.numerical.predicted_overhead;
        if self.min_overhead.is_none_or(|(best, _)| h < best) {
            self.min_overhead = Some((h, index));
        }
        if self.max_overhead.is_none_or(|(best, _)| h > best) {
            self.max_overhead = Some((h, index));
        }
        if let Some(gap) = row.comparison().overhead_gap() {
            if self.worst_gap.is_none_or(|(worst, _)| gap.abs() > worst) {
                self.worst_gap = Some((gap.abs(), index));
            }
        }
    }
}

/// A sink shared behind `Arc<Mutex<…>>`, for collecting rows from a sweep while
/// retaining access to the inner sink afterwards.
pub struct SharedSink<S: SweepSink>(pub Arc<Mutex<S>>);

impl<S: SweepSink> SweepSink for SharedSink<S> {
    fn on_row(&mut self, row: &SweepRow) {
        // A panic in an unrelated holder must not cascade: the protected data
        // (an append-only sink) stays coherent, so recover the guard.
        self.0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .on_row(row);
    }

    fn finish(&mut self, results: &SweepResults) {
        self.0
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .finish(results);
    }
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
    fn csv_sink_streams_the_same_bytes_as_to_csv() {
        let mut sink = CsvSink::new(Vec::<u8>::new());
        let results =
            SweepExecutor::new(analytic().with_threads(4)).run_with_sink(&grid(), &mut sink);
        let streamed = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(streamed, results.to_csv());
        assert!(streamed.starts_with(CSV_HEADER));
        assert_eq!(streamed.lines().count(), 1 + results.rows.len());
    }

    #[test]
    fn csv_line_counts_match_the_header() {
        let results = SweepExecutor::new(analytic()).run(&grid());
        let columns = CSV_HEADER.split(',').count();
        for row in &results.rows {
            assert_eq!(csv_line(row).split(',').count(), columns);
        }
    }

    #[test]
    fn report_sink_tracks_extrema() {
        let mut sink = ReportSink::default();
        let results = SweepExecutor::new(analytic()).run_with_sink(&grid(), &mut sink);
        assert_eq!(sink.rows, results.rows.len());
        let (min_h, _) = sink.min_overhead.unwrap();
        let (max_h, _) = sink.max_overhead.unwrap();
        assert!(min_h <= max_h);
        assert!(sink.worst_gap.unwrap().0 >= 0.0);
    }

    #[test]
    fn empty_sweep_still_emits_the_header() {
        let empty = ScenarioGrid::builder()
            .scenarios(&[ScenarioId::S1])
            .build()
            .unwrap();
        // A one-cell grid exercises the lazy header; rows ≥ 1 ensures on_row ran.
        let mut sink = CsvSink::new(Vec::<u8>::new());
        SweepExecutor::new(analytic()).run_with_sink(&empty, &mut sink);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(text.starts_with(CSV_HEADER));
    }
}
