//! Wire framing for shard result exchange between cluster nodes.
//!
//! A worker streams its shard's rows back to the coordinator in chunks; each
//! [`ShardChunk`] carries a contiguous run of CSV rows together with the
//! manifest snapshot taken *after* the run's last row was written, so the
//! receiver can validate the chunk against the sweep's fingerprints and its
//! own checkpoint before accepting a single byte. The format is plain text
//! (the offline build has no JSON codec for nested documents) and versioned
//! by a magic first line, like the sidecar manifest:
//!
//! ```text
//! ayd-shard-chunk v1
//! from_row = 16
//! rows = 8
//! ---
//! <manifest text (ayd-sweep-manifest v3 ...)>
//! ---
//! <8 newline-terminated CSV rows, no header>
//! ```
//!
//! Parsing is strict: the declared row count must match the payload, every
//! row must be newline-terminated, hold no `\r` and have exactly the
//! canonical header's field count (a torn final row — the tail a `kill -9`
//! can leave — is rejected, never silently truncated on the receiving
//! side), and the manifest's `completed` must equal `from_row + rows` (the
//! chunk *is* the checkpoint advance it claims to be). One pass over the rows, a word at a time,
//! checks all of that and counts them; the chunk carries the count, so
//! neither side scans its rows again.

use std::fmt::Write as _;

use crate::manifest::SweepManifest;
use crate::shard::ShardError;
use crate::sink::CSV_HEADER;

/// Format tag of a shard result chunk; bumped on incompatible changes.
pub const CHUNK_MAGIC: &str = "ayd-shard-chunk v1";

/// One contiguous run of shard rows in flight from a worker to the
/// coordinator, with the manifest snapshot that makes it verifiable. Only
/// [`Self::new`] and [`Self::parse`] build one, so a chunk's rows are always
/// valid and its row count is the one their validation counted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardChunk {
    manifest: SweepManifest,
    from_row: usize,
    rows: String,
    row_count: usize,
}

/// Number of commas in one well-formed canonical CSV row.
const HEADER_COMMAS: usize = {
    let header = CSV_HEADER.as_bytes();
    let (mut commas, mut i) = (0, 0);
    while i < header.len() {
        if header[i] == b',' {
            commas += 1;
        }
        i += 1;
    }
    commas
};

/// What one pass over a chunk's rows finds.
struct RowScan {
    /// Newline-terminated rows.
    rows: usize,
    /// True when bytes follow the last newline: a torn final row.
    torn: bool,
    /// The first newline-terminated row that holds a `\r` or whose comma
    /// count is not the header's: its index, its commas and whether it
    /// holds a `\r`.
    misfit: Option<(usize, usize, bool)>,
}

impl RowScan {
    /// Rows as `str::lines` counts them: a torn tail is a line too.
    fn lines(&self) -> usize {
        self.rows + usize::from(self.torn)
    }

    /// The row rules, torn tail first: `Ok` with the row count when every
    /// row is newline-terminated, holds no `\r` and has the header's field
    /// count.
    fn verdict(&self) -> Result<usize, ShardError> {
        if self.torn {
            return Err(ShardError::Mismatch(
                "chunk rows end with a torn (unterminated) row".to_string(),
            ));
        }
        match self.misfit {
            None => Ok(self.rows),
            Some((row, _, true)) => Err(ShardError::Mismatch(format!(
                "chunk row {row} holds a `\\r`; the engine ends rows with `\\n`"
            ))),
            Some((row, commas, false)) => Err(ShardError::Mismatch(format!(
                "chunk row {row} has {} fields, expected {}",
                commas + 1,
                HEADER_COMMAS + 1
            ))),
        }
    }

    /// Ends a row that had `commas` commas, and a `\r` if `cr`.
    fn end_row(&mut self, commas: usize, cr: bool) {
        if (cr || commas != HEADER_COMMAS) && self.misfit.is_none() {
            self.misfit = Some((self.rows, commas, cr));
        }
        self.rows += 1;
    }
}

/// Every byte of a word set to `byte`.
const fn splat(byte: u8) -> u64 {
    u64::from_ne_bytes([byte; 8])
}

/// The high bit of each byte of `word` that equals `byte`, and no other
/// bit. Exact: the low seven bits of each byte are added apart, so no carry
/// crosses a byte.
fn byte_flags(word: u64, byte: u8) -> u64 {
    const LOW7: u64 = splat(0x7f);
    let x = word ^ splat(byte);
    !(((x & LOW7) + LOW7) | x | LOW7)
}

/// The number of flags [`byte_flags`] set: one per byte, summed by one
/// multiply (no `popcnt` on baseline x86-64).
fn flag_count(flags: u64) -> usize {
    ((flags >> 7).wrapping_mul(splat(1)) >> 56) as usize
}

/// Scans `rows` once, eight bytes at a time: counts the newline-terminated
/// rows and checks each one's commas and `\r`s. ',', '\n' and '\r' are
/// ASCII, so none of them occurs inside a multi-byte UTF-8 sequence.
fn scan_rows(rows: &str) -> RowScan {
    let bytes = rows.as_bytes();
    let mut scan = RowScan {
        rows: 0,
        torn: bytes.last().is_some_and(|&last| last != b'\n'),
        misfit: None,
    };
    let (mut commas, mut cr) = (0, false);
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    for word in words {
        let word = u64::from_le_bytes(word.try_into().expect("an 8-byte word"));
        let mut comma = byte_flags(word, b',');
        let mut carriage = byte_flags(word, b'\r');
        let mut newline = byte_flags(word, b'\n');
        while newline != 0 {
            // Little-endian: lower bits are earlier bytes.
            let before = (newline & newline.wrapping_neg()) - 1;
            commas += flag_count(comma & before);
            comma &= !before;
            cr |= carriage & before != 0;
            carriage &= !before;
            scan.end_row(commas, cr);
            (commas, cr) = (0, false);
            newline &= newline - 1;
        }
        commas += flag_count(comma);
        cr |= carriage != 0;
    }
    for &byte in tail {
        match byte {
            b',' => commas += 1,
            b'\r' => cr = true,
            b'\n' => {
                scan.end_row(commas, cr);
                (commas, cr) = (0, false);
            }
            _ => {}
        }
    }
    scan
}

/// Checks that `rows` are complete, well-formed CSV rows and counts them.
/// Rejects a missing final newline (a torn row), and any row that holds a
/// `\r` or whose field count differs from the canonical header's.
pub fn validate_rows(rows: &str) -> Result<usize, ShardError> {
    scan_rows(rows).verdict()
}

impl ShardChunk {
    /// Builds a chunk, checking the internal consistency [`Self::parse`]
    /// would enforce on the receiving side.
    pub fn new(manifest: SweepManifest, from_row: usize, rows: String) -> Result<Self, ShardError> {
        let row_count = validate_rows(&rows)?;
        Self::checked(manifest, from_row, rows, row_count)
    }

    /// Checks that the manifest's checkpoint is the advance the rows make.
    fn checked(
        manifest: SweepManifest,
        from_row: usize,
        rows: String,
        row_count: usize,
    ) -> Result<Self, ShardError> {
        let claimed = from_row
            .checked_add(row_count)
            .ok_or_else(|| ShardError::Mismatch("chunk row range overflows".to_string()))?;
        if manifest.completed != claimed {
            return Err(ShardError::Mismatch(format!(
                "manifest says {} rows completed but the chunk covers rows {from_row}..{claimed}",
                manifest.completed
            )));
        }
        Ok(Self {
            manifest,
            from_row,
            rows,
            row_count,
        })
    }

    /// Manifest snapshot taken after this chunk's last row was written;
    /// `manifest().completed == from_row() + row_count()`.
    pub fn manifest(&self) -> &SweepManifest {
        &self.manifest
    }

    /// Shard-local index of the chunk's first row (0-based).
    pub fn from_row(&self) -> usize {
        self.from_row
    }

    /// The rows: newline-terminated canonical CSV lines, no header.
    pub fn rows(&self) -> &str {
        &self.rows
    }

    /// Number of rows in the chunk.
    pub fn row_count(&self) -> usize {
        self.row_count
    }

    /// Renders the chunk in its canonical wire form.
    pub fn render(&self) -> String {
        let manifest = self.manifest.render();
        let mut out = String::with_capacity(96 + manifest.len() + self.rows.len());
        out.push_str(CHUNK_MAGIC);
        write!(
            out,
            "\nfrom_row = {}\nrows = {}\n---\n",
            self.from_row, self.row_count
        )
        .expect("writing to a String cannot fail");
        out.push_str(&manifest);
        out.push_str("---\n");
        out.push_str(&self.rows);
        out
    }

    /// Parses the canonical wire form back. Strict: magic line, declared row
    /// count equal to the payload's, well-formed newline-terminated rows, and
    /// a manifest whose `completed` equals `from_row + rows`.
    pub fn parse(text: &str) -> Result<Self, ShardError> {
        let bad = |message: String| ShardError::Manifest(message);
        let rest = text
            .strip_prefix(CHUNK_MAGIC)
            .and_then(|rest| rest.strip_prefix('\n'))
            .ok_or_else(|| bad(format!("missing magic line `{CHUNK_MAGIC}`")))?;
        let (from_line, rest) = rest
            .split_once('\n')
            .ok_or_else(|| bad("truncated chunk header".to_string()))?;
        let from_row = from_line
            .strip_prefix("from_row = ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad(format!("malformed chunk line `{from_line}`")))?;
        let (rows_line, rest) = rest
            .split_once('\n')
            .ok_or_else(|| bad("truncated chunk header".to_string()))?;
        let declared: usize = rows_line
            .strip_prefix("rows = ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad(format!("malformed chunk line `{rows_line}`")))?;
        let rest = rest
            .strip_prefix("---\n")
            .ok_or_else(|| bad("missing manifest separator".to_string()))?;
        let (manifest_text, rows) = rest
            .split_once("---\n")
            .ok_or_else(|| bad("missing rows separator".to_string()))?;
        let manifest = SweepManifest::parse(manifest_text)?;
        let scan = scan_rows(rows);
        if scan.lines() != declared {
            return Err(bad(format!(
                "chunk declares {declared} rows but carries {}",
                scan.lines()
            )));
        }
        let row_count = scan.verdict()?;
        Self::checked(manifest, from_row, rows.to_string(), row_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::SweepOptions;
    use crate::grid::{ProcessorAxis, ScenarioGrid};
    use crate::options::RunOptions;
    use crate::shard::ShardSpec;
    use ayd_platforms::ScenarioId;
    use proptest::prelude::*;

    fn grid() -> ScenarioGrid {
        ScenarioGrid::builder()
            .scenarios(&[ScenarioId::S1, ScenarioId::S3])
            .processors(ProcessorAxis::Fixed(vec![256.0, 1024.0]))
            .build()
            .unwrap()
    }

    fn options() -> SweepOptions {
        SweepOptions::new(RunOptions {
            simulate: false,
            ..RunOptions::smoke()
        })
    }

    fn fake_row() -> String {
        let fields = CSV_HEADER.matches(',').count() + 1;
        let mut row = vec!["x"; fields].join(",");
        row.push('\n');
        row
    }

    #[test]
    fn chunks_round_trip_through_text() {
        let mut manifest = SweepManifest::new(&grid(), &options(), ShardSpec::WHOLE);
        manifest.completed = 3;
        let rows = fake_row().repeat(2);
        let chunk = ShardChunk::new(manifest, 1, rows).unwrap();
        assert_eq!(chunk.row_count(), 2);
        let parsed = ShardChunk::parse(&chunk.render()).unwrap();
        assert_eq!(parsed, chunk);
    }

    #[test]
    fn empty_chunks_round_trip() {
        // A worker that checkpoints without new rows (e.g. a resume probe)
        // sends an empty chunk; the manifest must agree with from_row.
        let mut manifest = SweepManifest::new(&grid(), &options(), ShardSpec::WHOLE);
        manifest.completed = 2;
        let chunk = ShardChunk::new(manifest, 2, String::new()).unwrap();
        assert_eq!(chunk.row_count(), 0);
        assert_eq!(ShardChunk::parse(&chunk.render()).unwrap(), chunk);
    }

    #[test]
    fn torn_and_malformed_rows_are_rejected() {
        let mut manifest = SweepManifest::new(&grid(), &options(), ShardSpec::WHOLE);
        manifest.completed = 2;
        // Torn final row: missing the trailing newline.
        let torn = format!("{}{}", fake_row(), fake_row().trim_end());
        let err = ShardChunk::new(manifest.clone(), 0, torn).unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        // Wrong field count.
        let short = "a,b,c\n".repeat(2);
        let err = ShardChunk::new(manifest.clone(), 0, short).unwrap_err();
        assert!(err.to_string().contains("fields"), "{err}");
        // Manifest checkpoint disagreeing with the row range.
        let err = ShardChunk::new(manifest, 1, fake_row().repeat(2)).unwrap_err();
        assert!(err.to_string().contains("completed"), "{err}");
    }

    #[test]
    fn parse_rejects_tampered_wire_text() {
        let mut manifest = SweepManifest::new(&grid(), &options(), ShardSpec::WHOLE);
        manifest.completed = 1;
        let wire = ShardChunk::new(manifest, 0, fake_row()).unwrap().render();
        assert!(ShardChunk::parse(&wire["ayd".len()..]).is_err());
        assert!(ShardChunk::parse(&wire.replace("rows = 1", "rows = 2")).is_err());
        assert!(ShardChunk::parse(&wire.replace("from_row = 0", "from_row = 9")).is_err());
        // Truncating the payload (the torn suffix a dead TCP stream leaves).
        assert!(ShardChunk::parse(&wire[..wire.len() - 2]).is_err());
        // Dropping the manifest separator.
        assert!(ShardChunk::parse(&wire.replacen("---\n", "", 1)).is_err());
    }

    #[test]
    fn refusals_name_the_rule_they_break() {
        let mut manifest = SweepManifest::new(&grid(), &options(), ShardSpec::WHOLE);
        manifest.completed = 2;
        let fields = HEADER_COMMAS + 1;
        let refusal = |rows: String, from_row| {
            ShardChunk::new(manifest.clone(), from_row, rows)
                .unwrap_err()
                .to_string()
        };
        assert_eq!(
            refusal(format!("{}{}", fake_row(), fake_row().trim_end()), 0),
            "shard mismatch: chunk rows end with a torn (unterminated) row"
        );
        assert_eq!(
            refusal(format!("{}x,{}", fake_row(), fake_row()), 0),
            format!(
                "shard mismatch: chunk row 1 has {} fields, expected {fields}",
                fields + 1
            )
        );
        assert_eq!(
            refusal(
                format!("{}{}", fake_row(), fake_row().replace('\n', "\r\n")),
                0
            ),
            "shard mismatch: chunk row 1 holds a `\\r`; the engine ends rows with `\\n`"
        );
        assert_eq!(
            refusal(fake_row().repeat(2), 1),
            "shard mismatch: manifest says 2 rows completed but the chunk covers rows 1..3"
        );
        let wire = ShardChunk::new(manifest.clone(), 0, fake_row().repeat(2))
            .unwrap()
            .render();
        assert_eq!(
            ShardChunk::parse(&wire.replace("rows = 2", "rows = 3"))
                .unwrap_err()
                .to_string(),
            "invalid manifest: chunk declares 3 rows but carries 2"
        );
    }

    /// The per-line definition of the row rules: the rows split at each
    /// `\n`, then a `\r` check and a comma count per row. The one-pass
    /// validator must accept and refuse exactly what it does.
    fn per_line_rows(rows: &str) -> Result<usize, ShardError> {
        if rows.is_empty() {
            return Ok(0);
        }
        if !rows.ends_with('\n') {
            return Err(ShardError::Mismatch(
                "chunk rows end with a torn (unterminated) row".to_string(),
            ));
        }
        let commas = CSV_HEADER.matches(',').count();
        let mut count = 0;
        for row in rows.split_terminator('\n') {
            if row.contains('\r') {
                return Err(ShardError::Mismatch(format!(
                    "chunk row {count} holds a `\\r`; the engine ends rows with `\\n`"
                )));
            }
            let row_commas = row.bytes().filter(|&b| b == b',').count();
            if row_commas != commas {
                return Err(ShardError::Mismatch(format!(
                    "chunk row {count} has {} fields, expected {}",
                    row_commas + 1,
                    commas + 1
                )));
            }
            count += 1;
        }
        Ok(count)
    }

    /// The per-line definition of parsing a chunk whose header is
    /// well-formed: the declared count against `lines().count()`, then the
    /// row rules, then the checkpoint.
    fn per_line_parse(
        declared: usize,
        from_row: usize,
        completed: usize,
        rows: &str,
    ) -> Result<usize, ShardError> {
        let lines = rows.lines().count();
        if lines != declared {
            return Err(ShardError::Manifest(format!(
                "chunk declares {declared} rows but carries {lines}"
            )));
        }
        let count = per_line_rows(rows)?;
        if completed != from_row + count {
            return Err(ShardError::Mismatch(format!(
                "manifest says {completed} rows completed but the chunk covers rows {from_row}..{}",
                from_row + count
            )));
        }
        Ok(count)
    }

    /// Field text: ASCII of several lengths (so rows end at every offset
    /// of a word), a '-' after a comma (the byte after ',') and multi-byte
    /// UTF-8.
    const FIELDS: [&str; 8] = [
        "",
        "x",
        "1.5e-7",
        "-2.5",
        "λ",
        "été",
        "😀ß",
        "1234567890123",
    ];

    /// One row from its draws, changed by `how`: 0 adds a comma, 1 removes
    /// one, 2 makes it empty, 3 ends it with `\r\n`; anything else keeps it
    /// well-formed.
    fn mutated_row(draw: u64, how: u64) -> String {
        let mut fields: Vec<&str> = (0..=HEADER_COMMAS)
            .map(|i| FIELDS[((draw >> (i % 21 * 3)) & 7) as usize])
            .collect();
        match how {
            0 => fields.push("x"),
            1 => {
                fields.pop();
            }
            2 => fields = vec![""],
            _ => {}
        }
        let mut row = fields.join(",");
        row.push_str(if how == 3 { "\r\n" } else { "\n" });
        row
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Mutated rows (a comma added or removed, an empty row, `\r\n`
        /// endings, multi-byte UTF-8 fields, a dropped final newline) and
        /// a declared `rows =` or manifest checkpoint off by one: the
        /// one-pass validator and the chunk constructors accept and refuse
        /// exactly what the per-line definition does, with its messages.
        #[test]
        fn one_pass_validation_matches_the_per_line_definition(
            rows in prop::collection::vec((0u64..=u64::MAX, 0u64..64), 0..24),
            torn in 0u64..4,
            from_row in 0usize..3,
            declared_off in 0u64..6,
            completed_off in 0u64..6,
        ) {
            let mut text: String = rows.iter().map(|&(draw, how)| mutated_row(draw, how)).collect();
            if torn == 0 {
                text.pop();
            }
            let expected = per_line_rows(&text);
            prop_assert_eq!(validate_rows(&text), expected.clone());

            let lines = text.lines().count();
            let off = |n: usize, by: u64| match by {
                0 => n + 1,
                1 => n.saturating_sub(1),
                _ => n,
            };
            let declared = off(lines, declared_off);
            let completed = off(from_row + lines, completed_off);
            // 64 cells, room for every checkpoint drawn.
            let grid = ScenarioGrid::builder()
                .scenarios(&[ScenarioId::S1, ScenarioId::S3])
                .processors(ProcessorAxis::Fixed(vec![64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0]))
                .pattern_lengths(&[900.0, 1800.0, 3600.0, 7200.0])
                .build()
                .unwrap();
            let mut manifest = SweepManifest::new(&grid, &options(), ShardSpec::WHOLE);
            manifest.completed = completed;
            let built = ShardChunk::new(manifest.clone(), from_row, text.clone());
            let built_expected = expected.and_then(|count| per_line_parse(count, from_row, completed, &text));
            prop_assert_eq!(built.as_ref().map(ShardChunk::row_count), built_expected.as_ref().copied());

            let wire = format!(
                "{CHUNK_MAGIC}\nfrom_row = {from_row}\nrows = {declared}\n---\n{}---\n{text}",
                manifest.render()
            );
            let parsed = ShardChunk::parse(&wire);
            prop_assert_eq!(
                parsed.as_ref().map(|chunk| (chunk.row_count(), chunk.rows())),
                per_line_parse(declared, from_row, completed, &text).map(|count| (count, text.as_str())).as_ref().copied()
            );
            if let (Ok(parsed), Ok(built)) = (&parsed, &built) {
                prop_assert_eq!(parsed, built);
                prop_assert_eq!(&built.render(), &wire);
            }
        }
    }
}
