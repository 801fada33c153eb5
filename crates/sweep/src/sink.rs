//! Streaming sinks: consume sweep rows in cell order as they complete.
//!
//! Each row is rendered once, as its canonical CSV line ([`write_csv_line`]'s
//! bytes), on the executor worker that evaluated it, by that worker's
//! `CsvWriter`, into a text buffer the worker keeps across chunks. The
//! executor feeds sinks through a reorder buffer, one call per released
//! chunk, so [`SweepSink::on_rows`] always observes the lines in the grid's
//! deterministic cell order even though the cells complete out of order
//! across worker threads.

use std::fmt::Write;

use crate::evaluate::SimSummary;
use crate::executor::SweepRow;

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

/// Appends the value's `Display`: `Display` is what fixes the CSV bytes, so
/// no other formatter may stand in.
fn push_display(out: &mut String, value: f64) {
    write!(out, "{value}").expect("writing to a String cannot fail");
}

/// Appends one row's canonical CSV line, newline included, to `out`, with
/// every present number written by `number` and every absent one an empty
/// cell.
fn write_line_with(out: &mut String, row: &SweepRow, mut number: impl FnMut(&mut String, f64)) {
    let mut value = |out: &mut String, value: Option<f64>| {
        out.push(',');
        if let Some(v) = value {
            number(out, v);
        }
    };
    let profile = ayd_core::ProfileSpec::from(row.profile);
    write!(out, "{},{}", row.platform.name(), row.scenario)
        .expect("writing to a String cannot fail");
    value(out, row.alpha);
    out.push(',');
    out.push_str(profile.kind());
    value(out, profile.param());
    out.push(',');
    out.push_str(row.failure_model.kind());
    value(out, row.failure_model.param());
    value(out, Some(row.lambda_ind));
    value(out, Some(row.lambda_multiplier));
    value(out, row.fixed_processors);
    value(out, row.pattern_length);
    value(out, row.first_order.map(|p| p.processors));
    value(out, row.first_order.map(|p| p.period));
    value(out, row.first_order.map(|p| p.predicted_overhead));
    value(out, row.first_order.and_then(|p| p.formula_overhead));
    let sim = |sim: Option<SimSummary>| [sim.map(|s| s.mean), sim.map(|s| s.ci95)];
    for v in sim(row.first_order.and_then(|p| p.simulated)) {
        value(out, v);
    }
    value(out, Some(row.numerical.processors));
    value(out, Some(row.numerical.period));
    value(out, Some(row.numerical.predicted_overhead));
    for v in sim(row.numerical.simulated) {
        value(out, v);
    }
    value(out, row.prescribed.map(|p| p.predicted_overhead));
    for v in sim(row.prescribed.and_then(|p| p.simulated)) {
        value(out, v);
    }
    for v in sim(row.stream_simulated) {
        value(out, v);
    }
    out.push('\n');
}

/// Appends one row's canonical CSV line, newline included, to `out`. Absent
/// values (no first-order optimum, no simulation, free axes, non-Amdahl
/// `alpha`) are empty cells. Every number goes through its `Display`
/// (shortest round-trip for `f64`), so parsing the two profile columns back
/// reproduces the profile bit-identically. Writes straight into `out`: no
/// intermediate `String` per value or per row. The executor and
/// [`csv_text`] write the same bytes through a `CsvWriter`, which renders
/// each number once.
pub fn write_csv_line(out: &mut String, row: &SweepRow) {
    write_line_with(out, row, push_display);
}

/// Slots in a [`CsvWriter`]'s table of recently written numbers.
const RECENT_SLOTS: usize = 128;

/// The longest number text a slot holds; a longer `Display` (a huge or
/// tiny magnitude, which `Display` spells out in full) is rendered afresh
/// every time.
const RECENT_TEXT: usize = 32;

/// One remembered number: its bit pattern and its `Display` text.
#[derive(Clone, Copy)]
struct Recent {
    bits: u64,
    /// Length of the text in `text`; 0 marks an empty slot (no `Display`
    /// is empty).
    len: u8,
    text: [u8; RECENT_TEXT],
}

/// Writes canonical CSV lines ([`write_csv_line`]'s bytes) for many rows,
/// rendering each number once: it keeps the `Display` text of the numbers
/// it wrote last in a direct-mapped table keyed by the `f64` bit pattern
/// and copies the text on a hit.
///
/// Sweep rows repeat most of their numbers (axis values, and optima shared
/// by neighbouring cells), and `f64` `Display` is the dearest step of a
/// line. The key is the bit pattern, so `-0.0` and `0.0`, or two NaN
/// payloads, never share an entry, and the text is always `Display`'s own.
pub(crate) struct CsvWriter {
    recent: Box<[Recent; RECENT_SLOTS]>,
}

impl CsvWriter {
    /// A writer that remembers nothing yet.
    pub(crate) fn new() -> Self {
        let empty = Recent {
            bits: 0,
            len: 0,
            text: [0; RECENT_TEXT],
        };
        Self {
            recent: Box::new([empty; RECENT_SLOTS]),
        }
    }

    /// Appends one row's canonical CSV line, newline included, to `out`:
    /// the bytes [`write_csv_line`] appends.
    pub(crate) fn write_line(&mut self, out: &mut String, row: &SweepRow) {
        write_line_with(out, row, |out, v| self.push_number(out, v));
    }

    /// Appends `value`'s `Display`, from the table when it holds the value.
    fn push_number(&mut self, out: &mut String, value: f64) {
        let bits = value.to_bits();
        // Fibonacci hashing: the top bits of the product mix every input bit.
        let slot = &mut self.recent[(bits.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            >> (64 - RECENT_SLOTS.trailing_zeros())) as usize];
        if slot.len > 0 && slot.bits == bits {
            out.push_str(
                std::str::from_utf8(&slot.text[..usize::from(slot.len)])
                    .expect("a slot holds the text of a str"),
            );
            return;
        }
        let start = out.len();
        push_display(out, value);
        let text = &out.as_bytes()[start..];
        if text.len() <= RECENT_TEXT {
            slot.bits = bits;
            slot.len = text.len() as u8;
            slot.text[..text.len()].copy_from_slice(text);
        }
    }
}

/// Renders rows as the canonical sweep CSV: the header, then one
/// [`write_csv_line`] line per row, all written by one `CsvWriter`.
pub fn csv_text<'a>(rows: impl IntoIterator<Item = &'a SweepRow>) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    let mut writer = CsvWriter::new();
    for row in rows {
        writer.write_line(&mut out, row);
    }
    out
}

/// A sink observing the rows of a sweep in cell order.
///
/// Sinks must be `Send`: the executor calls them from whichever worker thread
/// completes the in-order frontier (under a mutex, so calls never overlap).
pub trait SweepSink: Send {
    /// Called once per released chunk, in cell order, with the chunk's
    /// canonical CSV lines back to back (each ending in its only newline)
    /// and their count, as rendered by the worker that evaluated them.
    fn on_rows(&mut self, lines: &str, rows: usize);
    /// Called once after the sweep's last row (also when it had none).
    fn finish(&mut self) {}
}

/// Discards every row.
pub struct NullSink;

impl SweepSink for NullSink {
    fn on_rows(&mut self, _lines: &str, _rows: usize) {}
}

/// Appends every line: the sink of a caller that keeps the CSV text.
impl SweepSink for String {
    fn on_rows(&mut self, lines: &str, _rows: usize) {
        self.push_str(lines);
    }
}

impl<S: SweepSink + ?Sized> SweepSink for &mut S {
    fn on_rows(&mut self, lines: &str, rows: usize) {
        (**self).on_rows(lines, rows);
    }

    fn finish(&mut self) {
        (**self).finish();
    }
}

/// Feeds both sinks every chunk, the first one first.
impl<A: SweepSink, B: SweepSink> SweepSink for (A, B) {
    fn on_rows(&mut self, lines: &str, rows: usize) {
        self.0.on_rows(lines, rows);
        self.1.on_rows(lines, rows);
    }

    fn finish(&mut self) {
        self.0.finish();
        self.1.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::OperatingPoint;
    use crate::executor::{SweepExecutor, SweepOptions};
    use crate::grid::{ProcessorAxis, ScenarioGrid};
    use crate::options::RunOptions;
    use ayd_core::{FailureModelSpec, SpeedupProfile};
    use ayd_platforms::{PlatformId, ScenarioId};
    use proptest::prelude::*;

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

    /// Numbers whose `Display` is easy to get wrong: signed zeros, NaN
    /// payloads, infinities, subnormals, 301-character magnitudes and
    /// neighbours one ulp apart.
    fn awkward() -> Vec<f64> {
        let ulp = |x: f64, step: i64| f64::from_bits(x.to_bits().wrapping_add_signed(step));
        vec![
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF8_0000_0000_0001),
            f64::from_bits(0x7FF0_0000_0000_0001),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            f64::MIN_POSITIVE,
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN,
            0.1,
            ulp(0.1, 1),
            ulp(0.1, -1),
            1.0,
            ulp(1.0, 1),
            256.0,
            ulp(256.0, -1),
            3600.0,
            1.69e-8,
            ulp(1.69e-8, 1),
        ]
    }

    /// A number for `draw`: an awkward one, an arbitrary bit pattern, or a
    /// short decimal like the axis values of a grid.
    fn number(draw: u64) -> f64 {
        let pool = awkward();
        match draw % 3 {
            0 => pool[(draw / 3) as usize % pool.len()],
            1 => f64::from_bits(draw),
            _ => (draw / 3 % 100_000) as f64 / 1e3,
        }
    }

    fn point(optional: &mut impl FnMut() -> Option<f64>) -> OperatingPoint {
        OperatingPoint {
            processors: optional().unwrap_or(1.0),
            period: optional().unwrap_or(2.0),
            predicted_overhead: optional().unwrap_or(3.0),
            formula_overhead: optional(),
            simulated: optional().map(|mean| SimSummary {
                mean,
                ci95: optional().unwrap_or(4.0),
            }),
        }
    }

    /// A row whose numbers are `picks` into `pool` (a pick past the pool's
    /// end leaves an optional field absent) and whose first pick chooses
    /// its scenario, profile and failure model.
    fn row(pool: &[f64], picks: &[u64]) -> SweepRow {
        let (&kind, picks) = picks.split_first().expect("a kind pick");
        let kind = kind as usize;
        let mut picks = picks.iter();
        let mut optional = || {
            let pick = *picks.next().expect("enough picks") as usize % (pool.len() + 1);
            pool.get(pick).copied()
        };
        let profiles = [
            SpeedupProfile::amdahl(0.1).unwrap(),
            SpeedupProfile::perfectly_parallel(),
            SpeedupProfile::power_law(0.8).unwrap(),
            SpeedupProfile::gustafson(0.05).unwrap(),
        ];
        SweepRow {
            platform: PlatformId::Hera,
            scenario: 1 + kind % 6,
            profile: profiles[kind % profiles.len()],
            failure_model: if kind.is_multiple_of(2) {
                FailureModelSpec::exponential()
            } else {
                FailureModelSpec::weibull(0.7).unwrap()
            },
            alpha: optional(),
            lambda_ind: optional().unwrap_or(5.0),
            lambda_multiplier: optional().unwrap_or(6.0),
            fixed_processors: optional(),
            processor_order: None,
            pattern_length: optional(),
            first_order: optional().map(|_| point(&mut optional)),
            closed_form: None,
            numerical: point(&mut optional),
            prescribed: optional().map(|_| point(&mut optional)),
            stream_simulated: optional().map(|mean| SimSummary {
                mean,
                ci95: optional().unwrap_or(7.0),
            }),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// One writer over a long run of rows writes exactly the bytes of a
        /// fresh writer per row, which are exactly `write_csv_line`'s. The
        /// numbers come from a pool, so they repeat and collide in the
        /// writer's table; small pools hit, large ones evict.
        #[test]
        fn a_writer_never_changes_a_byte(
            draws in prop::collection::vec(0u64..=u64::MAX, 1..400),
            rows in prop::collection::vec(prop::collection::vec(0u64..=u64::MAX, 40..41), 1..300),
        ) {
            let pool: Vec<f64> = draws.iter().map(|&draw| number(draw)).collect();
            let mut writer = CsvWriter::new();
            let mut shared = String::new();
            for picks in &rows {
                let row = row(&pool, picks);
                let start = shared.len();
                writer.write_line(&mut shared, &row);
                let mut fresh = String::new();
                CsvWriter::new().write_line(&mut fresh, &row);
                prop_assert_eq!(&shared[start..], fresh.as_str());
                let mut display = String::new();
                write_csv_line(&mut display, &row);
                prop_assert_eq!(fresh, display);
            }
            let rows: Vec<SweepRow> = rows.iter().map(|picks| row(&pool, picks)).collect();
            prop_assert_eq!(csv_text(&rows), format!("{CSV_HEADER}\n{shared}"));
        }
    }
}
