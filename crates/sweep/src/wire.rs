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
//! <manifest text (ayd-sweep-manifest v2 ...)>
//! ---
//! <8 newline-terminated CSV rows, no header>
//! ```
//!
//! Parsing is strict: the declared row count must match the payload, every
//! row must be newline-terminated with exactly the canonical header's field
//! count (a torn final row — the tail a `kill -9` can leave — is rejected,
//! never silently truncated on the receiving side), and the manifest's
//! `completed` must equal `from_row + rows` (the chunk *is* the checkpoint
//! advance it claims to be).

use crate::manifest::SweepManifest;
use crate::shard::ShardError;
use crate::sink::CSV_HEADER;

/// Format tag of a shard result chunk; bumped on incompatible changes.
pub const CHUNK_MAGIC: &str = "ayd-shard-chunk v1";

/// One contiguous run of shard rows in flight from a worker to the
/// coordinator, with the manifest snapshot that makes it verifiable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardChunk {
    /// Manifest snapshot taken after this chunk's last row was written;
    /// `manifest.completed == from_row + rows`.
    pub manifest: SweepManifest,
    /// Shard-local index of the chunk's first row (0-based).
    pub from_row: usize,
    /// The rows: newline-terminated canonical CSV lines, no header.
    pub rows: String,
}

/// Number of commas in one well-formed canonical CSV row.
fn header_commas() -> usize {
    CSV_HEADER.matches(',').count()
}

/// Splits `rows` into complete, well-formed CSV rows. Rejects a missing
/// final newline (a torn row) and any row whose field count differs from
/// the canonical header's.
pub fn validate_rows(rows: &str) -> Result<usize, ShardError> {
    if rows.is_empty() {
        return Ok(0);
    }
    if !rows.ends_with('\n') {
        return Err(ShardError::Mismatch(
            "chunk rows end with a torn (unterminated) row".to_string(),
        ));
    }
    let commas = header_commas();
    let mut count = 0;
    for row in rows.lines() {
        // Byte-wise: a chunk holds hundreds of rows and both ends validate
        // each one; ',' is ASCII, so its byte is part of no multi-byte
        // UTF-8 sequence.
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

impl ShardChunk {
    /// Builds a chunk, checking the internal consistency [`Self::parse`]
    /// would enforce on the receiving side.
    pub fn new(manifest: SweepManifest, from_row: usize, rows: String) -> Result<Self, ShardError> {
        let chunk = Self {
            manifest,
            from_row,
            rows,
        };
        chunk.check()?;
        Ok(chunk)
    }

    /// Number of rows in the chunk.
    pub fn row_count(&self) -> usize {
        self.rows.lines().count()
    }

    fn check(&self) -> Result<(), ShardError> {
        let rows = validate_rows(&self.rows)?;
        let claimed = self
            .from_row
            .checked_add(rows)
            .ok_or_else(|| ShardError::Mismatch("chunk row range overflows".to_string()))?;
        if self.manifest.completed != claimed {
            return Err(ShardError::Mismatch(format!(
                "manifest says {} rows completed but the chunk covers rows {}..{}",
                self.manifest.completed, self.from_row, claimed
            )));
        }
        Ok(())
    }

    /// Renders the chunk in its canonical wire form.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(128 + self.rows.len());
        out.push_str(CHUNK_MAGIC);
        out.push('\n');
        out.push_str(&format!("from_row = {}\n", self.from_row));
        out.push_str(&format!("rows = {}\n", self.row_count()));
        out.push_str("---\n");
        out.push_str(&self.manifest.render());
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
        let chunk = Self {
            manifest,
            from_row,
            rows: rows.to_string(),
        };
        if chunk.row_count() != declared {
            return Err(bad(format!(
                "chunk declares {declared} rows but carries {}",
                chunk.row_count()
            )));
        }
        chunk.check()?;
        Ok(chunk)
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
}
