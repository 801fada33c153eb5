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

use crate::executor::SweepRow;
use crate::number::write_f64;

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

/// Appends the value's `Display` bytes, written by [`write_f64`] without
/// `core::fmt`: `Display` is what fixes the CSV bytes, and `number.rs`'s
/// tests hold `write_f64` to `format!("{value}")` (edge sets, pinned ties,
/// a million random draws; 100 million in CI's release run), while this
/// module's tests hold every line to one whose numbers come from `Display`.
fn push_display(out: &mut String, value: f64) {
    write_f64(out, value);
}

/// Appends one optional number's cell, its leading comma included: the
/// number written by `number`, or nothing when it is absent.
fn push_cell(out: &mut String, value: Option<f64>, number: &mut impl FnMut(&mut String, f64)) {
    out.push(',');
    if let Some(v) = value {
        number(out, v);
    }
}

/// The values of a row's head columns, `platform` … `processors`, as bit
/// patterns (the text columns by their family tags): the head's text is a
/// function of exactly these.
fn head_bits(row: &SweepRow) -> [Option<u64>; 10] {
    let bits = |value: Option<f64>| value.map(f64::to_bits);
    let profile = ayd_core::ProfileSpec::from(row.profile);
    [
        Some(row.platform as u64),
        Some(row.scenario as u64),
        bits(row.alpha),
        Some(u64::from(profile.kind_tag())),
        bits(profile.param()),
        Some(u64::from(row.failure_model.kind_tag())),
        bits(row.failure_model.param()),
        bits(Some(row.lambda_ind)),
        bits(Some(row.lambda_multiplier)),
        bits(row.fixed_processors),
    ]
}

/// Appends a row's head columns, `platform` … `processors`, with no
/// leading comma.
fn write_head(out: &mut String, row: &SweepRow, number: &mut impl FnMut(&mut String, f64)) {
    let profile = ayd_core::ProfileSpec::from(row.profile);
    write!(out, "{},{}", row.platform.name(), row.scenario)
        .expect("writing to a String cannot fail");
    push_cell(out, row.alpha, number);
    out.push(',');
    out.push_str(profile.kind());
    push_cell(out, profile.param(), number);
    out.push(',');
    out.push_str(row.failure_model.kind());
    push_cell(out, row.failure_model.param(), number);
    push_cell(out, Some(row.lambda_ind), number);
    push_cell(out, Some(row.lambda_multiplier), number);
    push_cell(out, row.fixed_processors, number);
}

/// The values of a row's optima columns, `fo_processors` … `num_sim_ci95`,
/// in header order.
fn optima_values(row: &SweepRow) -> [Option<f64>; 11] {
    let fo = row.first_order;
    let fo_sim = fo.and_then(|p| p.simulated);
    let num = row.numerical;
    [
        fo.map(|p| p.processors),
        fo.map(|p| p.period),
        fo.map(|p| p.predicted_overhead),
        fo.and_then(|p| p.formula_overhead),
        fo_sim.map(|s| s.mean),
        fo_sim.map(|s| s.ci95),
        Some(num.processors),
        Some(num.period),
        Some(num.predicted_overhead),
        num.simulated.map(|s| s.mean),
        num.simulated.map(|s| s.ci95),
    ]
}

/// Appends the cells of `values`, each with its leading comma.
fn write_cells(
    out: &mut String,
    values: &[Option<f64>],
    number: &mut impl FnMut(&mut String, f64),
) {
    for &value in values {
        push_cell(out, value, number);
    }
}

/// The per-row columns after the optima, `pattern_overhead` …
/// `stream_sim_ci95`, in header order.
fn tail_values(row: &SweepRow) -> [Option<f64>; 5] {
    let pattern_sim = row.prescribed.and_then(|p| p.simulated);
    [
        row.prescribed.map(|p| p.predicted_overhead),
        pattern_sim.map(|s| s.mean),
        pattern_sim.map(|s| s.ci95),
        row.stream_simulated.map(|s| s.mean),
        row.stream_simulated.map(|s| s.ci95),
    ]
}

/// Appends one row's canonical CSV line, newline included, to `out`. Absent
/// values (no first-order optimum, no simulation, free axes, non-Amdahl
/// `alpha`) are empty cells. Every number is its `Display` (shortest
/// round-trip for `f64`), written by [`write_f64`], so parsing the two
/// profile columns back reproduces the profile bit-identically. Writes
/// straight into `out`: no intermediate `String` per value or per row. The
/// executor and [`csv_text`] write the same bytes through a `CsvWriter`,
/// which renders each number, and each run of rows' shared columns, once.
pub fn write_csv_line(out: &mut String, row: &SweepRow) {
    write_line_with(out, row, &mut push_display);
}

/// Appends one row's CSV line, its numbers written by `number`.
fn write_line_with(out: &mut String, row: &SweepRow, number: &mut impl FnMut(&mut String, f64)) {
    write_head(out, row, number);
    push_cell(out, row.pattern_length, number);
    write_cells(out, &optima_values(row), number);
    write_cells(out, &tail_values(row), number);
    out.push('\n');
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

/// The text of a run of columns and the values it was rendered from.
#[derive(Default)]
struct Segment<const N: usize> {
    /// The bit patterns of the values behind `text` (`None` before the
    /// first row).
    bits: Option<[Option<u64>; N]>,
    text: String,
}

impl<const N: usize> Segment<N> {
    /// Appends the segment's text for values whose bit patterns are `bits`:
    /// the previous row's text when they agree, else what `render` appends,
    /// which the segment then keeps in its reused buffer.
    fn write(
        &mut self,
        out: &mut String,
        bits: [Option<u64>; N],
        render: impl FnOnce(&mut String),
    ) {
        if self.bits == Some(bits) {
            out.push_str(&self.text);
            return;
        }
        let start = out.len();
        render(out);
        self.text.clear();
        self.text.push_str(&out[start..]);
        self.bits = Some(bits);
    }
}

/// Writes canonical CSV lines ([`write_csv_line`]'s bytes) for many rows,
/// rendering each shared segment and each number once.
///
/// Consecutive rows of a sweep share most of their text: a block's rows
/// differ only in their pattern length and its columns. The writer keeps
/// the previous row's head (`platform` … `processors`) and optima (`fo_*`
/// and `num_*`) text with the bit patterns it was rendered from, and copies
/// it when the next row's values match. Every other number comes from a
/// direct-mapped table of the `Display` text of recently written numbers,
/// keyed by the `f64` bit pattern, or is rendered afresh. Both match by bit
/// pattern, so `-0.0` and `0.0`, or two NaN payloads, never share text, and
/// the text is always `Display`'s own.
pub(crate) struct CsvWriter {
    recent: Box<[Recent; RECENT_SLOTS]>,
    head: Segment<10>,
    optima: Segment<11>,
    /// Numbers handed to [`write_f64`]: those neither a segment nor the
    /// table supplied.
    numbers: u64,
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
            head: Segment::default(),
            optima: Segment::default(),
            numbers: 0,
        }
    }

    /// Numbers written so far that no segment or table entry supplied: each
    /// one a [`write_f64`] call.
    pub(crate) fn numbers(&self) -> u64 {
        self.numbers
    }

    /// Appends one row's canonical CSV line, newline included, to `out`:
    /// the bytes [`write_csv_line`] appends.
    pub(crate) fn write_line(&mut self, out: &mut String, row: &SweepRow) {
        let Self {
            recent,
            head,
            optima,
            numbers,
        } = self;
        let number = &mut |out: &mut String, value: f64| push_number(recent, numbers, out, value);
        head.write(out, head_bits(row), |out| write_head(out, row, number));
        push_cell(out, row.pattern_length, number);
        let values = optima_values(row);
        optima.write(out, values.map(|v| v.map(f64::to_bits)), |out| {
            write_cells(out, &values, number)
        });
        write_cells(out, &tail_values(row), number);
        out.push('\n');
    }
}

/// Appends `value`'s `Display`, from `recent` when it holds the value;
/// else writes it afresh and counts it in `numbers`.
fn push_number(
    recent: &mut [Recent; RECENT_SLOTS],
    numbers: &mut u64,
    out: &mut String,
    value: f64,
) {
    let bits = value.to_bits();
    // Fibonacci hashing: the top bits of the product mix every input bit.
    let slot = &mut recent[(bits.wrapping_mul(0x9E37_79B9_7F4A_7C15)
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
    *numbers += 1;
    let text = &out.as_bytes()[start..];
    if text.len() <= RECENT_TEXT {
        slot.bits = bits;
        slot.len = text.len() as u8;
        slot.text[..text.len()].copy_from_slice(text);
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
    use crate::evaluate::{OperatingPoint, SimSummary};
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

    /// The oracle: a row's line laid out as `write_csv_line` lays it out,
    /// every number from `Display` itself.
    fn display_line(row: &SweepRow) -> String {
        let mut line = String::new();
        write_line_with(&mut line, row, &mut |out: &mut String, value: f64| {
            write!(out, "{value}").expect("writing to a String cannot fail")
        });
        line
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

    /// One number of a row that a one-field change moves.
    enum Slot<'a> {
        Required(&'a mut f64),
        Optional(&'a mut Option<f64>),
        Simulated(&'a mut Option<SimSummary>),
    }

    /// The numbers of a row a change can move, from the head to the tail.
    const SLOTS: u64 = 18;

    /// The `field`-th number of `row`, whose first-order and prescribed
    /// points are present.
    fn slot(row: &mut SweepRow, field: u64) -> Slot<'_> {
        fn point(point: &mut Option<OperatingPoint>) -> &mut OperatingPoint {
            point.as_mut().expect("a present point")
        }
        match field % SLOTS {
            0 => Slot::Optional(&mut row.alpha),
            1 => match &mut row.profile {
                SpeedupProfile::Amdahl { alpha } | SpeedupProfile::Gustafson { alpha } => {
                    Slot::Required(alpha)
                }
                SpeedupProfile::PowerLaw { sigma } => Slot::Required(sigma),
                SpeedupProfile::PerfectlyParallel => Slot::Required(&mut row.lambda_ind),
            },
            2 => Slot::Required(&mut row.lambda_ind),
            3 => Slot::Required(&mut row.lambda_multiplier),
            4 => Slot::Optional(&mut row.fixed_processors),
            5 => Slot::Optional(&mut row.pattern_length),
            6 => Slot::Required(&mut point(&mut row.first_order).processors),
            7 => Slot::Required(&mut point(&mut row.first_order).period),
            8 => Slot::Required(&mut point(&mut row.first_order).predicted_overhead),
            9 => Slot::Optional(&mut point(&mut row.first_order).formula_overhead),
            10 => Slot::Simulated(&mut point(&mut row.first_order).simulated),
            11 => Slot::Required(&mut row.numerical.processors),
            12 => Slot::Required(&mut row.numerical.period),
            13 => Slot::Required(&mut row.numerical.predicted_overhead),
            14 => Slot::Simulated(&mut row.numerical.simulated),
            15 => Slot::Required(&mut point(&mut row.prescribed).predicted_overhead),
            16 => Slot::Simulated(&mut point(&mut row.prescribed).simulated),
            _ => Slot::Simulated(&mut row.stream_simulated),
        }
    }

    /// Puts `value` in `slot`: an absent value leaves a required number as
    /// it was, and a present one is a simulation's mean.
    fn set(slot: Slot<'_>, value: Option<f64>) {
        match slot {
            Slot::Required(number) => *number = value.unwrap_or(*number),
            Slot::Optional(number) => *number = value,
            Slot::Simulated(sim) => {
                let ci95 = sim.map_or(4.0, |s| s.ci95);
                *sim = value.map(|mean| SimSummary { mean, ci95 });
            }
        }
    }

    /// The two values of a one-field change, the first row's and the
    /// second's: `x` and its neighbour one ulp away, `0.0` and `-0.0`, two
    /// NaN payloads, or `x` and an absent number.
    fn change(how: u64, x: f64) -> (Option<f64>, Option<f64>) {
        let nan = |payload: u64| f64::from_bits(0x7FF8_0000_0000_0000 | payload);
        match how % 4 {
            0 => (Some(x), Some(f64::from_bits(x.to_bits() ^ 1))),
            1 => (Some(0.0), Some(-0.0)),
            2 => (Some(nan(1)), Some(nan(2))),
            _ => (Some(x), None),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Runs of rows that share their head and optima and differ in one
        /// number (one ulp, `0.0` against `-0.0`, two NaN payloads, a
        /// present against an absent number, a simulated column) are
        /// written exactly as `display_line` writes each row: the writer
        /// copies a segment's text only for bit-identical values.
        #[test]
        fn a_writer_reuses_text_only_for_identical_bits(
            draws in prop::collection::vec(0u64..=u64::MAX, 1..40),
            picks in prop::collection::vec(0u64..=u64::MAX, 40..41),
            changes in prop::collection::vec(
                (0..SLOTS, 0u64..4, 0u64..=u64::MAX, 1usize..4),
                1..60,
            ),
        ) {
            let pool: Vec<f64> = draws.iter().map(|&draw| number(draw)).collect();
            let mut template = row(&pool, &picks);
            template.first_order.get_or_insert(template.numerical);
            template.prescribed.get_or_insert(template.numerical);
            let mut writer = CsvWriter::new();
            for (field, how, draw, run) in changes {
                let (first, second) = change(how, number(draw));
                let mut pair = [template.clone(), template.clone()];
                set(slot(&mut pair[0], field), first);
                set(slot(&mut pair[1], field), second);
                for row in &pair {
                    for _ in 0..run {
                        let mut line = String::new();
                        writer.write_line(&mut line, row);
                        prop_assert_eq!(line, display_line(row));
                    }
                }
            }
        }

        /// One writer over a long run of rows writes exactly the bytes of a
        /// fresh writer per row, which are exactly `write_csv_line`'s and
        /// `display_line`'s. The
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
                let mut line = String::new();
                write_csv_line(&mut line, &row);
                prop_assert_eq!(&fresh, &line);
                prop_assert_eq!(fresh, display_line(&row));
            }
            let rows: Vec<SweepRow> = rows.iter().map(|picks| row(&pool, picks)).collect();
            prop_assert_eq!(csv_text(&rows), format!("{CSV_HEADER}\n{shared}"));
        }
    }
}
