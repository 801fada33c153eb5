//! Sharded, resumable sweep execution and the deterministic shard merge.
//!
//! A [`ShardSpec`] `i/N` partitions any [`ScenarioGrid`] into N balanced,
//! contiguous ranges of global cell indices: shard `i` owns
//! [`ShardSpec::range`], which starts at `i·⌊n/N⌋ + min(i, n mod N)`. That
//! method is the only code deciding the partition. Contiguity keeps the
//! pattern-length siblings of a configuration (adjacent cells sharing one
//! optimiser evaluation) inside one shard, so a shard's memoisation cache
//! hits as often as the unsharded run's. Because every cell's seed derives
//! from its *global* index (see [`crate::executor::cell_seed`]) and every
//! cell's analytic evaluation depends only on the cell itself, a shard
//! computes bit-identical rows to the same cells of an unsharded run — for
//! any shard count, worker-thread count and cache setting — and
//! [`merge_parts`] concatenates the N shard CSVs in shard order into bytes
//! **identical** to the unsharded sweep CSV.
//!
//! [`run_shard_to_files`] executes one shard against a CSV file plus an
//! atomically-updated sidecar manifest (see [`crate::manifest`]). Because the
//! executor emits rows in cell order, the CSV on disk is always the header
//! plus an in-order prefix of the shard's rows; an interrupted run — torn
//! final line and all — can therefore be resumed by truncating to the last
//! complete row and evaluating only the remaining cells.

use std::fmt;
use std::io::Write;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::AtomicBool;

use crate::executor::{StreamedSweep, SweepExecutor};
use crate::grid::{ScenarioGrid, SweepCell};
use crate::manifest::{manifest_path, SweepManifest};
use crate::sink::{SweepSink, CSV_HEADER};
use crate::wire::validate_rows;

/// One shard of a sweep: `index` of `count`, owning one contiguous range of
/// global cell indices (see [`ShardSpec::range`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    /// Zero-based shard index (`< count`).
    pub index: usize,
    /// Total number of shards (`>= 1`).
    pub count: usize,
}

/// Upper bound on the shard count: far beyond any useful fan-out, but low
/// enough that a typo (`--shard 3/30000000`) is caught instead of producing
/// millions of empty shard files.
pub const MAX_SHARDS: usize = 4096;

impl ShardSpec {
    /// The trivial 0/1 shard covering the whole grid.
    pub const WHOLE: ShardSpec = ShardSpec { index: 0, count: 1 };

    /// Validates and builds a shard spec.
    pub fn new(index: usize, count: usize) -> Result<Self, ShardError> {
        if count == 0 || count > MAX_SHARDS {
            return Err(ShardError::Spec(format!(
                "shard count must be in 1..={MAX_SHARDS}, got {count}"
            )));
        }
        if index >= count {
            return Err(ShardError::Spec(format!(
                "shard index {index} out of range for {count} shards"
            )));
        }
        Ok(Self { index, count })
    }

    /// Parses the `i/N` CLI syntax (e.g. `0/4`).
    pub fn parse(text: &str) -> Result<Self, ShardError> {
        let bad = || ShardError::Spec(format!("shard spec must be `i/N` (e.g. 0/4), got `{text}`"));
        let (index, count) = text.split_once('/').ok_or_else(bad)?;
        Self::new(
            index.trim().parse().map_err(|_| bad())?,
            count.trim().parse().map_err(|_| bad())?,
        )
    }

    /// The global cell indices this shard owns out of `total` grid cells: one
    /// balanced, contiguous range starting at `index·⌊total/count⌋ +
    /// min(index, total mod count)`. The first `total mod count` shards hold
    /// one cell more than the rest; shards past `total` are empty. The ranges
    /// of shards `0..count` tile `0..total` in shard order.
    pub fn range(&self, total: usize) -> Range<usize> {
        let (base, extra) = (total / self.count, total % self.count);
        let start = self.index * base + self.index.min(extra);
        start..start + base + usize::from(self.index < extra)
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Errors of shard parsing, manifest handling, resuming and merging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// Malformed `i/N` spec or out-of-range shard coordinates.
    Spec(String),
    /// Malformed or inconsistent manifest content.
    Manifest(String),
    /// A resume or merge input does not belong to the sweep at hand.
    Mismatch(String),
    /// Filesystem failure (reading, writing or renaming shard files).
    Io(String),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Spec(m) => write!(f, "invalid shard spec: {m}"),
            ShardError::Manifest(m) => write!(f, "invalid manifest: {m}"),
            ShardError::Mismatch(m) => write!(f, "shard mismatch: {m}"),
            ShardError::Io(m) => write!(f, "shard i/o: {m}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// One merge input: a shard's manifest plus its CSV text.
#[derive(Debug, Clone)]
pub struct ShardPart {
    /// The shard's sidecar manifest.
    pub manifest: SweepManifest,
    /// The shard's CSV (header + rows, exactly as written by the shard run).
    pub csv: String,
}

impl ShardPart {
    /// Loads a merge input from a shard CSV path and its sidecar manifest.
    pub fn load(csv_path: &Path) -> Result<Self, ShardError> {
        let manifest = SweepManifest::read(&manifest_path(csv_path))?;
        let csv = std::fs::read_to_string(csv_path)
            .map_err(|e| ShardError::Io(format!("read {}: {e}", csv_path.display())))?;
        Ok(Self { manifest, csv })
    }
}

/// Merges complete shard outputs into the unsharded sweep CSV.
///
/// Validates that the parts all belong to one sweep (fingerprints agree),
/// that together they form a complete partition (`count` parts with indices
/// `0..count`, every one fully materialised, headers intact), and that each
/// part's rows are the engine's: every row newline-terminated, without a
/// `\r` and with the header's field count ([`validate_rows`], the rule
/// chunk uploads pass), and as many rows as the shard owns. The parts'
/// rows then follow the header in shard order — shard ranges are
/// contiguous and ascending, so that is global cell order — in one
/// `String` reserved once from the parts' lengths. The result is
/// **byte-identical** to the CSV an unsharded run over the same grid and
/// options would produce.
pub fn merge_parts(parts: &[ShardPart]) -> Result<String, ShardError> {
    let first = parts
        .first()
        .ok_or_else(|| ShardError::Mismatch("no shard inputs to merge".to_string()))?;
    let count = first.manifest.shard.count;
    if parts.len() != count {
        return Err(ShardError::Mismatch(format!(
            "expected {count} shard inputs (shard count of the first manifest), got {}",
            parts.len()
        )));
    }
    let mut ordered: Vec<Option<&str>> = vec![None; count];
    for part in parts {
        let manifest = &part.manifest;
        let refuse = |why: String| ShardError::Mismatch(format!("shard {} {why}", manifest.shard));
        if !manifest.same_sweep(&first.manifest) {
            return Err(refuse(format!(
                "belongs to a different sweep (grid {:016x}/options {:016x} \
                 vs grid {:016x}/options {:016x})",
                manifest.grid_fingerprint,
                manifest.options_fingerprint,
                first.manifest.grid_fingerprint,
                first.manifest.options_fingerprint,
            )));
        }
        if !manifest.is_complete() {
            return Err(refuse(format!(
                "is incomplete ({}/{} rows); resume it before merging",
                manifest.completed, manifest.shard_cells
            )));
        }
        let index = manifest.shard.index;
        if ordered[index].is_some() {
            return Err(ShardError::Mismatch(format!(
                "duplicate input for shard {}",
                manifest.shard
            )));
        }
        let rows = (part.csv.strip_prefix(CSV_HEADER))
            .and_then(|rest| rest.strip_prefix('\n'))
            .ok_or_else(|| refuse("CSV does not start with the canonical header".to_string()))?;
        let found = validate_rows(rows).map_err(|err| match err {
            ShardError::Mismatch(rule) => refuse(format!("CSV: {rule}")),
            other => other,
        })?;
        let total = ShardSpec { index, count }
            .range(first.manifest.grid_cells)
            .len();
        if found != total {
            return Err(refuse(format!(
                "CSV has {found} rows but the manifest promises {total}"
            )));
        }
        ordered[index] = Some(rows);
    }
    let mut csv = String::with_capacity(parts.iter().map(|part| part.csv.len()).sum());
    csv.push_str(CSV_HEADER);
    csv.push('\n');
    csv.extend(ordered.into_iter().flatten());
    Ok(csv)
}

/// Outcome of [`run_shard_to_files`].
#[derive(Debug)]
pub struct ShardRunReport {
    /// The shard that ran.
    pub shard: ShardSpec,
    /// Cells owned by the shard.
    pub shard_cells: usize,
    /// Rows found already materialised and skipped (`--resume`).
    pub resumed_rows: usize,
    /// The cells newly evaluated by this run: their row count and the
    /// executor's cache counters (no [`crate::SweepRow`] and no text is
    /// kept; the rows are in the CSV file).
    pub results: StreamedSweep,
    /// True when the run was cancelled before materialising every cell.
    pub cancelled: bool,
}

impl ShardRunReport {
    /// True when the shard's CSV now contains every row.
    pub fn is_complete(&self) -> bool {
        self.resumed_rows + self.results.rows >= self.shard_cells
    }
}

/// Streaming sink of a shard run: appends each released chunk's lines to the
/// CSV file and flushes them, then rewrites the sidecar manifest atomically,
/// once per chunk. The manifest therefore never claims more rows than the
/// CSV holds; after a kill the CSV may be up to one chunk ahead of it, torn
/// final row and all, and resume keeps only the rows both acknowledge.
///
/// The `SweepSink` trait cannot return errors, so a filesystem failure
/// (disk full, volume gone read-only) is *recorded*, the shared stop flag is
/// raised to end the sweep cooperatively, and further rows are dropped;
/// [`run_shard_to_files`] surfaces the recorded error as a clean
/// [`ShardError::Io`] instead of panicking mid-run. The files on disk stay
/// resumable either way (the manifest is never ahead of the CSV).
struct ShardFileSink<'a> {
    file: std::fs::File,
    manifest: SweepManifest,
    manifest_file: std::path::PathBuf,
    stop: &'a AtomicBool,
    error: Option<ShardError>,
}

impl ShardFileSink<'_> {
    fn try_rows(&mut self, lines: &str, rows: usize) -> Result<(), ShardError> {
        self.file
            .write_all(lines.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| ShardError::Io(format!("append shard rows: {e}")))?;
        self.manifest.completed += rows;
        self.manifest.write_atomic(&self.manifest_file)
    }
}

impl SweepSink for ShardFileSink<'_> {
    fn on_rows(&mut self, lines: &str, rows: usize) {
        if self.error.is_some() {
            return;
        }
        if let Err(error) = self.try_rows(lines, rows) {
            self.error = Some(error);
            self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        }
    }

    fn finish(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.file.flush() {
                self.error = Some(ShardError::Io(format!("flush shard CSV: {e}")));
            }
        }
    }
}

/// Number of complete (newline-terminated) data rows in shard CSV `text`,
/// after validating the header. Returns the byte length of the valid prefix
/// (header + complete rows) alongside the row count, so a torn final row can
/// be truncated away on resume.
fn complete_rows(text: &str) -> Result<(usize, usize), ShardError> {
    let header_len = CSV_HEADER.len() + 1;
    // Byte-wise comparison: a clobbered file may put a multibyte character
    // across the header boundary, where a str slice would panic.
    let bytes = text.as_bytes();
    if bytes.len() < header_len
        || &bytes[..CSV_HEADER.len()] != CSV_HEADER.as_bytes()
        || bytes[CSV_HEADER.len()] != b'\n'
    {
        return Err(ShardError::Mismatch(
            "existing CSV does not start with the canonical sweep header".to_string(),
        ));
    }
    let mut rows = 0;
    let mut end = header_len;
    for line in text[header_len..].split_inclusive('\n') {
        if !line.ends_with('\n') {
            break; // torn final row from an interrupted write
        }
        rows += 1;
        end += line.len();
    }
    Ok((rows, end))
}

/// Runs one shard of `grid` into `csv_path` (+ its `.manifest` sidecar).
///
/// With `resume`, an existing CSV/manifest pair is validated against the
/// grid, options and shard (fingerprints must match), truncated to its last
/// complete row, and only the remaining cells are evaluated — finished cells
/// are **never recomputed**. Without `resume`, existing files are overwritten.
/// `cancel` (when given) cooperatively stops the run between cells, leaving
/// resumable files behind.
pub fn run_shard_to_files(
    executor: &SweepExecutor,
    grid: &ScenarioGrid,
    shard: ShardSpec,
    csv_path: &Path,
    resume: bool,
    cancel: Option<&AtomicBool>,
) -> Result<ShardRunReport, ShardError> {
    let cells: Vec<SweepCell> = grid.shard_cells(shard);
    let manifest_file = manifest_path(csv_path);
    let mut manifest = SweepManifest::new(grid, &executor.options, shard);

    let completed = if resume && csv_path.exists() {
        let text = std::fs::read_to_string(csv_path)
            .map_err(|e| ShardError::Io(format!("read {}: {e}", csv_path.display())))?;
        if format!("{CSV_HEADER}\n")
            .as_bytes()
            .starts_with(text.as_bytes())
        {
            // The CSV holds zero data rows — at most a (possibly torn) header,
            // from a run killed before its first row. Resume degenerates to a
            // fresh start: rewrite the header and evaluate every cell. The
            // manifest may not exist yet (the kill can land between the two
            // file creations), but one that *does* read back and describes a
            // different sweep still refuses, like any other resume.
            if let Ok(existing) = SweepManifest::read(&manifest_file) {
                if !existing.same_sweep(&manifest) || existing.shard != shard {
                    return Err(ShardError::Mismatch(format!(
                        "cannot resume: {} describes {existing}, expected shard {shard} of this sweep",
                        manifest_file.display()
                    )));
                }
            }
            std::fs::write(csv_path, format!("{CSV_HEADER}\n"))
                .map_err(|e| ShardError::Io(format!("write {}: {e}", csv_path.display())))?;
            0
        } else {
            let existing = SweepManifest::read(&manifest_file)?;
            if !existing.same_sweep(&manifest) || existing.shard != shard {
                return Err(ShardError::Mismatch(format!(
                    "cannot resume: {} describes {existing}, expected shard {shard} of this sweep",
                    manifest_file.display()
                )));
            }
            let (csv_rows, valid_len) = complete_rows(&text)?;
            // Trust whichever of the manifest and the CSV is *behind*: the CSV
            // may hold a torn row the manifest never acknowledged, and an
            // unsynced manifest may trail the CSV by a chunk.
            let completed = existing.completed.min(csv_rows).min(cells.len());
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(csv_path)
                .map_err(|e| ShardError::Io(format!("open {}: {e}", csv_path.display())))?;
            let keep = (CSV_HEADER.len() + 1)
                + text[CSV_HEADER.len() + 1..valid_len]
                    .split_inclusive('\n')
                    .take(completed)
                    .map(str::len)
                    .sum::<usize>();
            file.set_len(keep as u64)
                .map_err(|e| ShardError::Io(format!("truncate {}: {e}", csv_path.display())))?;
            completed
        }
    } else {
        std::fs::write(csv_path, format!("{CSV_HEADER}\n"))
            .map_err(|e| ShardError::Io(format!("write {}: {e}", csv_path.display())))?;
        0
    };

    manifest.completed = completed;
    manifest.write_atomic(&manifest_file)?;
    let file = std::fs::OpenOptions::new()
        .append(true)
        .open(csv_path)
        .map_err(|e| ShardError::Io(format!("open {}: {e}", csv_path.display())))?;
    // One flag serves both the caller's cancellation and the sink's own
    // abort-on-I/O-failure (the executor takes a single stop signal).
    let own_stop = AtomicBool::new(false);
    let stop = cancel.unwrap_or(&own_stop);
    let mut sink = ShardFileSink {
        file,
        manifest,
        manifest_file,
        stop,
        error: None,
    };
    // The shard span wraps the executor run, so its nested sweep/chunk spans
    // parent under it; resumed rows show up as the gap between `cells` and
    // the inner sweep's `rows` field.
    let mut shard_span = ayd_obs::span("shard");
    if shard_span.is_recording() {
        shard_span.field_u64("shard_index", shard.index as u64);
        shard_span.field_u64("shard_count", shard.count as u64);
        shard_span.field_u64("cells", cells.len() as u64);
        shard_span.field_u64("resumed_rows", completed as u64);
    }
    let results = executor.run_cells_streamed(&cells[completed..], &mut sink, Some(stop), None);
    shard_span.finish();
    if let Some(error) = sink.error {
        return Err(error);
    }
    let cancelled = completed + results.rows < cells.len();
    Ok(ShardRunReport {
        shard,
        shard_cells: cells.len(),
        resumed_rows: completed,
        results,
        cancelled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SweepOptions;
    use crate::grid::ProcessorAxis;
    use crate::options::RunOptions;
    use ayd_platforms::ScenarioId;
    use std::sync::atomic::Ordering;

    fn options() -> SweepOptions {
        SweepOptions::new(RunOptions {
            simulate: false,
            ..RunOptions::smoke()
        })
    }

    fn grid() -> ScenarioGrid {
        ScenarioGrid::builder()
            .scenarios(&ScenarioId::ALL)
            .lambda_multipliers(&[1.0, 10.0])
            .processors(ProcessorAxis::Fixed(vec![256.0, 1024.0]))
            .build()
            .unwrap()
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ayd-shard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn shard_spec_parses_and_partitions() {
        let spec = ShardSpec::parse("2/5").unwrap();
        assert_eq!(spec, ShardSpec { index: 2, count: 5 });
        assert_eq!(spec.to_string(), "2/5");
        // 12 cells over 5 shards: sizes 3,3,2,2,2; shard 2 owns 6..8.
        assert_eq!(spec.range(12), 6..8);
        // 13 cells: sizes 3,3,3,2,2; shard 2 owns 6..9.
        assert_eq!(spec.range(13), 6..9);
        for bad in ["", "3", "a/b", "5/5", "1/0", "0/999999", "-1/2"] {
            assert!(ShardSpec::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn shard_ranges_tile_the_grid_in_shard_order() {
        for total in 0..=40usize {
            for count in 1..=8usize {
                let ranges: Vec<Range<usize>> = (0..count)
                    .map(|index| ShardSpec::new(index, count).unwrap().range(total))
                    .collect();
                // Contiguous, in shard order, covering exactly 0..total.
                let mut next = 0;
                for range in &ranges {
                    assert_eq!(range.start, next, "total={total} count={count}");
                    assert!(range.end >= range.start);
                    next = range.end;
                }
                assert_eq!(next, total, "total={total} count={count}");
                // Balanced: sizes differ by at most one, larger shards first.
                let sizes: Vec<usize> = ranges.iter().map(Range::len).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "total={total} count={count}: {sizes:?}");
                assert!(sizes.windows(2).all(|w| w[0] >= w[1]), "{sizes:?}");
                // Fewer cells than shards: the trailing shards are empty.
                if total < count {
                    assert!(sizes[total..].iter().all(|&n| n == 0), "{sizes:?}");
                }
            }
        }
    }

    #[test]
    fn merged_shards_are_byte_identical_to_the_unsharded_sweep() {
        let grid = grid();
        let options = options();
        let executor = SweepExecutor::new(options);
        let unsharded = executor.run(&grid).to_csv();
        for count in [1usize, 2, 3, 4] {
            let parts: Vec<ShardPart> = (0..count)
                .map(|index| {
                    let shard = ShardSpec::new(index, count).unwrap();
                    let results = executor.run_cells(&grid.shard_cells(shard));
                    ShardPart {
                        manifest: SweepManifest::complete(&grid, &options, shard),
                        csv: results.to_csv(),
                    }
                })
                .collect();
            assert_eq!(merge_parts(&parts).unwrap(), unsharded, "count={count}");
        }
    }

    #[test]
    fn merge_rejects_incomplete_foreign_and_duplicate_parts() {
        let grid = grid();
        let options = options();
        let executor = SweepExecutor::new(options);
        let part = |index: usize, count: usize| {
            let shard = ShardSpec::new(index, count).unwrap();
            ShardPart {
                manifest: SweepManifest::complete(&grid, &options, shard),
                csv: executor.run_cells(&grid.shard_cells(shard)).to_csv(),
            }
        };
        assert!(merge_parts(&[]).is_err());
        // Wrong part count for the declared shard count.
        assert!(merge_parts(&[part(0, 2)]).is_err());
        // Duplicate shard indices.
        assert!(merge_parts(&[part(0, 2), part(0, 2)]).is_err());
        // Incomplete shard.
        let mut torn = part(0, 2);
        torn.manifest.completed -= 1;
        assert!(merge_parts(&[torn, part(1, 2)]).is_err());
        // A shard of a different sweep (different seed → different options).
        let reseeded = SweepOptions::new(RunOptions {
            seed: 99,
            simulate: false,
            ..RunOptions::smoke()
        });
        let mut foreign = part(0, 2);
        foreign.manifest = SweepManifest::complete(&grid, &reseeded, ShardSpec::new(0, 2).unwrap());
        assert!(merge_parts(&[foreign, part(1, 2)]).is_err());
        // A CSV whose rows do not match its manifest's count.
        let mut short = part(0, 2);
        short.csv = short.csv.lines().take(3).collect::<Vec<_>>().join("\n") + "\n";
        assert!(merge_parts(&[short, part(1, 2)]).is_err());
        // Rows that are not the engine's, which `str::lines` would have
        // merged: a torn final row, a row of the wrong width, a `\r`.
        let refusal = |edit: &dyn Fn(&mut String)| {
            let mut bad = part(1, 2);
            edit(&mut bad.csv);
            merge_parts(&[part(0, 2), bad]).unwrap_err().to_string()
        };
        let torn = refusal(&|csv| {
            csv.pop();
        });
        assert!(
            torn.contains("shard 1/2 CSV") && torn.contains("torn"),
            "{torn}"
        );
        let wide = refusal(&|csv| csv.insert(csv.len() - 1, ','));
        assert!(wide.contains("fields"), "{wide}");
        let cr = refusal(&|csv| *csv = csv.replace('\n', "\r\n").replacen("\r\n", "\n", 1));
        assert!(cr.contains("\\r"), "{cr}");
        assert!(refusal(&|csv| csv.insert(csv.len() / 2, '\r')).contains("\\r"));
        // The header, exactly.
        let header = refusal(&|csv| *csv = csv.replacen('\n', "\r\n", 1));
        assert!(header.contains("canonical header"), "{header}");
    }

    #[test]
    fn file_runs_produce_resumable_artifacts() {
        let dir = temp_dir("files");
        let grid = grid();
        let executor = SweepExecutor::new(options());
        let csv_path = dir.join("shard-1-of-3.csv");
        let shard = ShardSpec::new(1, 3).unwrap();
        let report = run_shard_to_files(&executor, &grid, shard, &csv_path, false, None).unwrap();
        assert!(report.is_complete() && !report.cancelled);
        assert_eq!(report.resumed_rows, 0);
        assert_eq!(report.results.rows, shard.range(grid.len()).len());
        let manifest = SweepManifest::read(&manifest_path(&csv_path)).unwrap();
        assert!(manifest.is_complete());
        // The file bytes match the in-memory run of the same cells.
        let text = std::fs::read_to_string(&csv_path).unwrap();
        assert_eq!(text, executor.run_cells(&grid.shard_cells(shard)).to_csv());
        // A no-op resume recomputes nothing.
        let again = run_shard_to_files(&executor, &grid, shard, &csv_path, true, None).unwrap();
        assert_eq!(again.resumed_rows, shard.range(grid.len()).len());
        assert_eq!(again.results.rows, 0);
        assert_eq!(std::fs::read_to_string(&csv_path).unwrap(), text);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn killed_mid_run_resume_completes_without_recomputing_finished_cells() {
        // The "gated sink" interruption: cancel the shard run after the first
        // rows land, then resume. The resume must (a) skip every materialised
        // cell, (b) complete the shard, (c) end with bytes identical to an
        // uninterrupted run.
        let dir = temp_dir("resume");
        let grid = grid();
        let executor = SweepExecutor::new(options().with_threads(2));
        let shard = ShardSpec::new(0, 2).unwrap();
        let csv_path = dir.join("shard-0-of-2.csv");
        let manifest_file = manifest_path(&csv_path);

        let cancel = AtomicBool::new(false);
        let interrupted = std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                run_shard_to_files(&executor, &grid, shard, &csv_path, false, Some(&cancel))
                    .unwrap()
            });
            // Wait (via the atomically-written manifest) for real progress,
            // then kill the run cooperatively.
            loop {
                if let Ok(manifest) = SweepManifest::read(&manifest_file) {
                    if manifest.completed >= 1 {
                        break;
                    }
                }
                std::thread::yield_now();
            }
            cancel.store(true, Ordering::Relaxed);
            handle.join().unwrap()
        });
        // (The scheduler may have drained every cell before the flag landed;
        // in the common case the run really was interrupted.)
        let done_early = interrupted.resumed_rows + interrupted.results.rows;
        assert!(done_early >= 1);
        assert_eq!(
            interrupted.cancelled,
            done_early < shard.range(grid.len()).len()
        );

        // Simulate the torn final row a hard kill can leave behind.
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&csv_path)
            .unwrap();
        write!(file, "Hera,1,0.1,amdahl,0.1,1e-8").unwrap();
        drop(file);

        let resumed = run_shard_to_files(&executor, &grid, shard, &csv_path, true, None).unwrap();
        assert!(resumed.is_complete() && !resumed.cancelled);
        assert_eq!(
            resumed.resumed_rows, done_early,
            "finished cells recomputed"
        );
        assert_eq!(
            resumed.results.rows,
            shard.range(grid.len()).len() - done_early
        );
        let text = std::fs::read_to_string(&csv_path).unwrap();
        assert_eq!(text, executor.run_cells(&grid.shard_cells(shard)).to_csv());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_only_csv_resumes_as_a_fresh_start() {
        // A run killed before its first row leaves a CSV holding exactly the
        // header (zero data rows) — possibly before the manifest was ever
        // created. Resuming such a shard must behave like a fresh start, not
        // error out or mis-count rows.
        let dir = temp_dir("header-only");
        let grid = grid();
        let executor = SweepExecutor::new(options().with_threads(2));
        let shard = ShardSpec::new(0, 2).unwrap();
        let expected = executor.run_cells(&grid.shard_cells(shard)).to_csv();

        // Exactly the header, no manifest sidecar at all.
        let csv_path = dir.join("shard.csv");
        std::fs::write(&csv_path, format!("{CSV_HEADER}\n")).unwrap();
        let report = run_shard_to_files(&executor, &grid, shard, &csv_path, true, None).unwrap();
        assert!(report.is_complete());
        assert_eq!(report.resumed_rows, 0);
        assert_eq!(report.results.rows, shard.range(grid.len()).len());
        assert_eq!(std::fs::read_to_string(&csv_path).unwrap(), expected);

        // A header torn mid-write (hard kill during the very first write):
        // still a fresh start, with the header repaired.
        let torn_path = dir.join("torn-header.csv");
        std::fs::write(&torn_path, &CSV_HEADER[..CSV_HEADER.len() / 2]).unwrap();
        let report = run_shard_to_files(&executor, &grid, shard, &torn_path, true, None).unwrap();
        assert!(report.is_complete());
        assert_eq!(report.resumed_rows, 0);
        assert_eq!(std::fs::read_to_string(&torn_path).unwrap(), expected);

        // But a header-only CSV whose sidecar manifest describes a *different*
        // sweep still refuses, like any other resume.
        let foreign_path = dir.join("foreign.csv");
        std::fs::write(&foreign_path, format!("{CSV_HEADER}\n")).unwrap();
        let foreign_options = SweepOptions::new(RunOptions {
            seed: 999,
            simulate: false,
            ..RunOptions::smoke()
        });
        SweepManifest::new(&grid, &foreign_options, shard)
            .write_atomic(&manifest_path(&foreign_path))
            .unwrap();
        let err = run_shard_to_files(&executor, &grid, shard, &foreign_path, true, None);
        assert!(matches!(err, Err(ShardError::Mismatch(_))), "{err:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sink_io_failures_surface_as_clean_errors_not_panics() {
        // Point the manifest at a directory that does not exist: the first
        // chunk's atomic manifest write fails, the sink records the error and
        // raises the stop flag, and run_shard_to_files returns ShardError::Io
        // (no worker panic, no poisoned emitter). One worker: with two, the
        // second can claim the last chunk before the first chunk's failure
        // raises the stop flag, and the run then drains every cell.
        let dir = temp_dir("sink-io");
        let grid = grid();
        let executor = SweepExecutor::new(options().with_threads(1));
        let csv_path = dir.join("shard.csv");
        std::fs::write(&csv_path, format!("{CSV_HEADER}\n")).unwrap();
        let stop = AtomicBool::new(false);
        let mut sink = ShardFileSink {
            file: std::fs::OpenOptions::new()
                .append(true)
                .open(&csv_path)
                .unwrap(),
            manifest: SweepManifest::new(&grid, &executor.options, ShardSpec::WHOLE),
            manifest_file: dir.join("missing-dir").join("shard.csv.manifest"),
            stop: &stop,
            error: None,
        };
        let results = executor.run_cells_streamed(
            &grid.shard_cells(ShardSpec::WHOLE),
            &mut sink,
            Some(&stop),
            None,
        );
        assert!(
            matches!(sink.error, Some(ShardError::Io(_))),
            "{:?}",
            sink.error
        );
        assert!(stop.load(Ordering::Relaxed), "stop flag raised on failure");
        assert!(
            results.rows < grid.len(),
            "the failed run stopped early instead of draining every cell"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_refuses_a_round_robin_v1_manifest() {
        // Round-robin and range shards have the same sizes, so only the
        // manifest version stops a resume from appending range-order rows to
        // a round-robin prefix. A `v2` manifest's per-cell fingerprint is
        // refused by version too, not as a foreign grid.
        let dir = temp_dir("v1");
        let grid = grid();
        let executor = SweepExecutor::new(options());
        let csv_path = dir.join("shard.csv");
        let shard = ShardSpec::new(0, 2).unwrap();
        run_shard_to_files(&executor, &grid, shard, &csv_path, false, None).unwrap();
        let manifest_file = manifest_path(&csv_path);
        let text = std::fs::read_to_string(&manifest_file).unwrap();
        for retired in ["ayd-sweep-manifest v1", "ayd-sweep-manifest v2"] {
            std::fs::write(
                &manifest_file,
                text.replace("ayd-sweep-manifest v3", retired),
            )
            .unwrap();
            let err = run_shard_to_files(&executor, &grid, shard, &csv_path, true, None)
                .unwrap_err()
                .to_string();
            assert!(err.contains(retired), "{err}");
            assert!(err.contains("re-run the shard"), "{err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_mismatched_artifacts() {
        let dir = temp_dir("mismatch");
        let grid = grid();
        let executor = SweepExecutor::new(options());
        let csv_path = dir.join("shard.csv");
        let shard = ShardSpec::new(0, 2).unwrap();
        run_shard_to_files(&executor, &grid, shard, &csv_path, false, None).unwrap();
        // Wrong shard coordinates.
        let other = ShardSpec::new(1, 2).unwrap();
        assert!(run_shard_to_files(&executor, &grid, other, &csv_path, true, None).is_err());
        // Different seed → different sweep → refuse to resume.
        let reseeded = SweepExecutor::new(SweepOptions::new(RunOptions {
            seed: 99,
            simulate: false,
            ..RunOptions::smoke()
        }));
        assert!(run_shard_to_files(&reseeded, &grid, shard, &csv_path, true, None).is_err());
        // A clobbered CSV header is caught even when the manifest looks sane —
        // including multibyte text straddling the header length (a str slice
        // there would panic on the char boundary).
        std::fs::write(&csv_path, "bogus,header\n1,2\n").unwrap();
        assert!(run_shard_to_files(&executor, &grid, shard, &csv_path, true, None).is_err());
        std::fs::write(&csv_path, "é".repeat(CSV_HEADER.len())).unwrap();
        assert!(run_shard_to_files(&executor, &grid, shard, &csv_path, true, None).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
