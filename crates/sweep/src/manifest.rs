//! Sidecar progress manifests for sharded sweep runs.
//!
//! A [`SweepManifest`] rides alongside a shard's CSV file (at
//! [`manifest_path`]: `<csv>.manifest`) and records everything needed to
//! resume an interrupted run and to merge shard outputs safely:
//!
//! * fingerprints of the grid and of the output-relevant sweep options, so a
//!   resume (or a merge) against a *different* grid or configuration is
//!   rejected instead of silently producing a frankenstein CSV;
//! * the shard coordinates and cell counts;
//! * the number of rows already materialised (always an in-order prefix of
//!   the shard's cell list — the executor emits rows through a reorder
//!   buffer);
//! * the grid's speedup-profile axis, human-readable, for post-mortems.
//!
//! Manifests are plain `key = value` text (the model layers carry no JSON
//! codec) and are written **atomically**: the new content goes to
//! `<path>.tmp` which is then renamed over the manifest, so a kill at any
//! instant leaves either the old or the new manifest, never a torn one.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::executor::SweepOptions;
use crate::grid::ScenarioGrid;
use crate::shard::{ShardError, ShardSpec};

/// Format tag of the manifest file; bumped on incompatible layout changes.
///
/// `v2` marks the contiguous-range shard partition ([`ShardSpec::range`]).
/// `v1` manifests describe round-robin shards (`cell % N == I`) whose sizes
/// are identical but whose rows are different cells, so resuming or merging
/// one against the current partition is refused rather than silently mixing
/// the two orders.
pub const MANIFEST_MAGIC: &str = "ayd-sweep-manifest v2";

/// The retired round-robin format tag, recognised only to refuse it clearly.
const MANIFEST_MAGIC_V1: &str = "ayd-sweep-manifest v1";

/// The sidecar manifest path of a shard CSV: `<csv>.manifest`.
pub fn manifest_path(csv_path: &Path) -> PathBuf {
    let mut name = csv_path.file_name().unwrap_or_default().to_os_string();
    name.push(".manifest");
    csv_path.with_file_name(name)
}

/// Progress manifest of one shard of one sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepManifest {
    /// Fingerprint of the grid's cells (see [`ScenarioGrid::fingerprint`]).
    pub grid_fingerprint: u64,
    /// Fingerprint of the output-relevant sweep options (see
    /// [`SweepOptions::output_fingerprint`]).
    pub options_fingerprint: u64,
    /// Which shard of how many this file tracks.
    pub shard: ShardSpec,
    /// Total cells of the full (unsharded) grid.
    pub grid_cells: usize,
    /// Cells owned by this shard.
    pub shard_cells: usize,
    /// Rows materialised so far — always an in-order prefix of the shard's
    /// cell list.
    pub completed: usize,
    /// Canonical spec strings of the grid's speedup-profile axis.
    pub profiles: Vec<String>,
}

impl SweepManifest {
    /// A fresh manifest (no rows completed) for one shard of a sweep.
    pub fn new(grid: &ScenarioGrid, options: &SweepOptions, shard: ShardSpec) -> Self {
        Self::with_grid_fingerprint(grid.fingerprint(), grid, options, shard)
    }

    /// [`Self::new`] for a caller that already holds `grid.fingerprint()`
    /// (hashing re-flattens the whole grid).
    pub fn with_grid_fingerprint(
        grid_fingerprint: u64,
        grid: &ScenarioGrid,
        options: &SweepOptions,
        shard: ShardSpec,
    ) -> Self {
        Self {
            grid_fingerprint,
            options_fingerprint: options.output_fingerprint(),
            shard,
            grid_cells: grid.len(),
            shard_cells: shard.range(grid.len()).len(),
            completed: 0,
            profiles: grid
                .profile_axis()
                .iter()
                .map(|p| ayd_core::ProfileSpec::from(*p).to_string())
                .collect(),
        }
    }

    /// [`Self::new`] with every cell marked completed (used when building
    /// merge inputs in memory).
    pub fn complete(grid: &ScenarioGrid, options: &SweepOptions, shard: ShardSpec) -> Self {
        let mut manifest = Self::new(grid, options, shard);
        manifest.completed = manifest.shard_cells;
        manifest
    }

    /// True when every cell of the shard has been materialised.
    pub fn is_complete(&self) -> bool {
        self.completed >= self.shard_cells
    }

    /// True when `other` describes a shard of the *same* sweep (same grid,
    /// same output-relevant options, same shard count).
    pub fn same_sweep(&self, other: &Self) -> bool {
        self.grid_fingerprint == other.grid_fingerprint
            && self.options_fingerprint == other.options_fingerprint
            && self.shard.count == other.shard.count
            && self.grid_cells == other.grid_cells
    }

    /// Renders the manifest as its canonical text form.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(MANIFEST_MAGIC);
        out.push('\n');
        let mut field = |key: &str, value: String| {
            out.push_str(key);
            out.push_str(" = ");
            out.push_str(&value);
            out.push('\n');
        };
        field("grid", format!("{:016x}", self.grid_fingerprint));
        field("options", format!("{:016x}", self.options_fingerprint));
        field("shard", self.shard.to_string());
        field("grid_cells", self.grid_cells.to_string());
        field("shard_cells", self.shard_cells.to_string());
        field("completed", self.completed.to_string());
        field("profiles", self.profiles.join(","));
        out
    }

    /// Parses the canonical text form back. Strict: the magic line, every
    /// field and no unknown keys.
    pub fn parse(text: &str) -> Result<Self, ShardError> {
        let bad = |message: String| ShardError::Manifest(message);
        let mut lines = text.lines();
        match lines.next() {
            Some(MANIFEST_MAGIC) => {}
            Some(MANIFEST_MAGIC_V1) => {
                return Err(bad(format!(
                    "`{MANIFEST_MAGIC_V1}` describes the retired round-robin shard partition; \
                     re-run the shard (without --resume) to produce `{MANIFEST_MAGIC}` output"
                )))
            }
            _ => return Err(bad(format!("missing magic line `{MANIFEST_MAGIC}`"))),
        }
        let mut grid_fingerprint = None;
        let mut options_fingerprint = None;
        let mut shard = None;
        let mut grid_cells = None;
        let mut shard_cells = None;
        let mut completed = None;
        let mut profiles = None;
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once(" = ")
                .ok_or_else(|| bad(format!("malformed manifest line `{line}`")))?;
            match key {
                "grid" => {
                    grid_fingerprint = Some(
                        u64::from_str_radix(value, 16)
                            .map_err(|_| bad(format!("bad grid fingerprint `{value}`")))?,
                    )
                }
                "options" => {
                    options_fingerprint = Some(
                        u64::from_str_radix(value, 16)
                            .map_err(|_| bad(format!("bad options fingerprint `{value}`")))?,
                    )
                }
                "shard" => shard = Some(ShardSpec::parse(value)?),
                "grid_cells" => {
                    grid_cells = Some(
                        value
                            .parse()
                            .map_err(|_| bad(format!("bad grid_cells `{value}`")))?,
                    )
                }
                "shard_cells" => {
                    shard_cells = Some(
                        value
                            .parse()
                            .map_err(|_| bad(format!("bad shard_cells `{value}`")))?,
                    )
                }
                "completed" => {
                    completed = Some(
                        value
                            .parse()
                            .map_err(|_| bad(format!("bad completed `{value}`")))?,
                    )
                }
                "profiles" => {
                    profiles = Some(
                        value
                            .split(',')
                            .filter(|s| !s.is_empty())
                            .map(str::to_string)
                            .collect(),
                    )
                }
                other => return Err(bad(format!("unknown manifest key `{other}`"))),
            }
        }
        let require = |name: &'static str| move || bad(format!("manifest is missing `{name}`"));
        let manifest = Self {
            grid_fingerprint: grid_fingerprint.ok_or_else(require("grid"))?,
            options_fingerprint: options_fingerprint.ok_or_else(require("options"))?,
            shard: shard.ok_or_else(require("shard"))?,
            grid_cells: grid_cells.ok_or_else(require("grid_cells"))?,
            shard_cells: shard_cells.ok_or_else(require("shard_cells"))?,
            completed: completed.ok_or_else(require("completed"))?,
            profiles: profiles.ok_or_else(require("profiles"))?,
        };
        if manifest.shard_cells != manifest.shard.range(manifest.grid_cells).len() {
            return Err(bad(format!(
                "shard_cells {} does not match shard {} of {} grid cells",
                manifest.shard_cells, manifest.shard, manifest.grid_cells
            )));
        }
        if manifest.completed > manifest.shard_cells {
            return Err(bad(format!(
                "completed {} exceeds shard_cells {}",
                manifest.completed, manifest.shard_cells
            )));
        }
        Ok(manifest)
    }

    /// Reads and parses the manifest at `path`.
    pub fn read(path: &Path) -> Result<Self, ShardError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ShardError::Io(format!("read {}: {e}", path.display())))?;
        Self::parse(&text)
    }

    /// Writes the manifest to `path` atomically (`<path>.tmp` + rename), so a
    /// kill at any point leaves either the previous or the new manifest.
    pub fn write_atomic(&self, path: &Path) -> Result<(), ShardError> {
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        std::fs::write(&tmp, self.render())
            .map_err(|e| ShardError::Io(format!("write {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            ShardError::Io(format!(
                "rename {} -> {}: {e}",
                tmp.display(),
                path.display()
            ))
        })
    }
}

impl fmt::Display for SweepManifest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {} of grid {:016x}: {}/{} rows",
            self.shard, self.grid_fingerprint, self.completed, self.shard_cells
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ProcessorAxis;
    use crate::options::RunOptions;
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

    #[test]
    fn manifest_round_trips_through_text() {
        // Shard 0/3 of the 4-cell grid owns cells 0..2: two rows.
        let mut manifest = SweepManifest::new(&grid(), &options(), ShardSpec::new(0, 3).unwrap());
        assert_eq!(manifest.shard_cells, 2);
        manifest.completed = 1;
        let parsed = SweepManifest::parse(&manifest.render()).unwrap();
        assert_eq!(parsed, manifest);
        assert!(!parsed.is_complete());
        assert!(parsed.same_sweep(&manifest));
    }

    #[test]
    fn parse_rejects_torn_or_inconsistent_manifests() {
        let text = SweepManifest::complete(&grid(), &options(), ShardSpec::WHOLE).render();
        assert!(SweepManifest::parse(&text).is_ok());
        // Missing magic, truncated fields, unknown keys, inconsistent counts.
        assert!(SweepManifest::parse(&text["ayd".len()..]).is_err());
        let truncated: String = text.lines().take(3).collect::<Vec<_>>().join("\n");
        assert!(SweepManifest::parse(&truncated).is_err());
        assert!(SweepManifest::parse(&format!("{text}bogus = 1\n")).is_err());
        let inflated = text.replace("completed = 4", "completed = 99");
        assert!(SweepManifest::parse(&inflated).is_err());
    }

    #[test]
    fn round_robin_v1_manifests_are_refused_by_name() {
        let text = SweepManifest::complete(&grid(), &options(), ShardSpec::WHOLE).render();
        assert!(text.starts_with("ayd-sweep-manifest v2\n"));
        let v1 = text.replace(MANIFEST_MAGIC, MANIFEST_MAGIC_V1);
        let err = SweepManifest::parse(&v1).unwrap_err().to_string();
        assert!(err.contains("ayd-sweep-manifest v1"), "{err}");
        assert!(err.contains("re-run the shard"), "{err}");
    }

    #[test]
    fn fingerprints_separate_grids_options_and_shards() {
        let options = options();
        let base = SweepManifest::new(&grid(), &options, ShardSpec::WHOLE);
        let other_grid = ScenarioGrid::builder()
            .scenarios(&[ScenarioId::S1])
            .build()
            .unwrap();
        assert!(!base.same_sweep(&SweepManifest::new(&other_grid, &options, ShardSpec::WHOLE)));
        let reseeded = SweepOptions::new(RunOptions {
            seed: 7,
            simulate: false,
            ..RunOptions::smoke()
        });
        assert!(!base.same_sweep(&SweepManifest::new(&grid(), &reseeded, ShardSpec::WHOLE)));
        // Same sweep, different shard of the same count: still the same sweep.
        let sharded = SweepManifest::new(&grid(), &options, ShardSpec::new(1, 2).unwrap());
        let sibling = SweepManifest::new(&grid(), &options, ShardSpec::new(0, 2).unwrap());
        assert!(sharded.same_sweep(&sibling));
        assert!(!base.same_sweep(&sharded));
    }

    #[test]
    fn atomic_writes_land_and_sidecar_naming_is_stable() {
        let dir = std::env::temp_dir().join(format!("ayd-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("shard-0.csv");
        let path = manifest_path(&csv);
        assert_eq!(path, dir.join("shard-0.csv.manifest"));
        let manifest = SweepManifest::new(&grid(), &options(), ShardSpec::WHOLE);
        manifest.write_atomic(&path).unwrap();
        assert_eq!(SweepManifest::read(&path).unwrap(), manifest);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
