//! Property tests of the sharding subsystem (ISSUE 5 acceptance):
//!
//! For **any** shard count in `1..=8`, any grid shape and any seed:
//!
//! * the shards partition the grid — concatenating the shard runs' rows is a
//!   permutation of the full grid's rows (same multiset, every cell exactly
//!   once);
//! * the deterministic merge of the shard CSVs is **byte-identical** to the
//!   unsharded sweep CSV — including across different worker-thread counts
//!   and cache settings per shard, and with simulation enabled (per-cell
//!   seeding is global-index-based, so sharding cannot reseed anything);
//! * shards are contiguous cell ranges, so the pattern-length siblings of a
//!   configuration (which share one cached optimiser evaluation) stay
//!   together: sharding costs at most one extra cache miss per shard
//!   boundary;
//! * the CSV lines the workers render while they evaluate agree with the rows
//!   they return, for any thread count and cache setting, evicting or not;
//! * a merge of shard CSVs whose rows were broken (truncated, a separator or
//!   a `\r` inserted, a separator deleted) either refuses or returns the
//!   unsharded sweep's bytes.

use proptest::prelude::*;

use ayd_platforms::ScenarioId;
use ayd_sweep::{
    csv_text, merge_parts, ProcessorAxis, ScenarioGrid, ShardPart, ShardSpec, SweepExecutor,
    SweepManifest, SweepOptions, SweepRow,
};

fn arb_profile() -> impl Strategy<Value = ayd_sweep::SpeedupProfile> {
    use ayd_sweep::SpeedupProfile;
    (0usize..4, 0.05f64..1.0).prop_map(|(kind, param)| match kind {
        0 => SpeedupProfile::Amdahl { alpha: param },
        1 => SpeedupProfile::PerfectlyParallel,
        2 => SpeedupProfile::PowerLaw { sigma: param },
        _ => SpeedupProfile::Gustafson { alpha: param },
    })
}

/// A key that identifies one row's cell coordinates (for the permutation
/// check; full `SweepRow` equality is used via the merged CSV bytes).
fn row_key(row: &SweepRow) -> String {
    format!(
        "{}|{}|{:?}|{}|{}|{:?}|{:?}",
        row.platform.name(),
        row.scenario,
        row.profile,
        row.lambda_ind,
        row.lambda_multiplier,
        row.fixed_processors,
        row.pattern_length,
    )
}

proptest! {
    // Each case runs the executor count+1 times; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn shards_partition_and_merge_byte_identically(
        seed in 0u64..1_000,
        count in 1usize..=8,
        threads_per_shard in prop::collection::vec(1usize..5, 8..9),
        scenario_index in 0usize..6,
        profiles in prop::collection::vec(arb_profile(), 1..3),
        multipliers in prop::collection::vec(0.2f64..30.0, 1..3),
        processors in prop::collection::vec(64.0f64..4_096.0, 1..3),
    ) {
        let grid = ScenarioGrid::builder()
            .scenarios(&[ScenarioId::ALL[scenario_index]])
            .profiles(&profiles)
            .lambda_multipliers(&multipliers)
            .processors(ProcessorAxis::Fixed(processors))
            .build()
            .unwrap();
        let run = ayd_sweep::RunOptions {
            seed,
            simulate: false,
            ..ayd_sweep::RunOptions::smoke()
        };
        let options = SweepOptions::new(run);
        let full = SweepExecutor::new(options.with_threads(2)).run(&grid);

        let mut concatenated: Vec<SweepRow> = Vec::new();
        let mut parts: Vec<ShardPart> = Vec::new();
        for (index, &threads) in threads_per_shard.iter().enumerate().take(count) {
            let shard = ShardSpec::new(index, count).unwrap();
            // Every shard may use a different thread count — and shard 0 (when
            // sharded at all) runs uncached — without changing a byte.
            let shard_options = if index == 0 && count > 1 {
                options.with_threads(threads).with_cache_capacity(None)
            } else {
                options.with_threads(threads)
            };
            let results = SweepExecutor::new(shard_options).run_cells(&grid.shard_cells(shard));
            prop_assert_eq!(results.rows.len(), shard.range(grid.len()).len());
            concatenated.extend(results.rows.iter().cloned());
            parts.push(ShardPart {
                manifest: SweepManifest::complete(&grid, &options, shard),
                csv: results.to_csv(),
            });
        }

        // Permutation: same row multiset, same total count.
        prop_assert_eq!(concatenated.len(), full.rows.len());
        let mut full_keys: Vec<String> = full.rows.iter().map(row_key).collect();
        let mut shard_keys: Vec<String> = concatenated.iter().map(row_key).collect();
        full_keys.sort();
        shard_keys.sort();
        prop_assert_eq!(full_keys, shard_keys);

        // Byte-identical merge.
        let merged = merge_parts(&parts).unwrap();
        prop_assert_eq!(merged, full.to_csv());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn shards_keep_pattern_length_siblings_in_one_cache(
        seed in 0u64..1_000,
        count in 2usize..=8,
        scenario_index in 0usize..6,
        profiles in prop::collection::vec(arb_profile(), 1..3),
        multipliers in prop::collection::vec(0.2f64..30.0, 1..3),
        processors in prop::collection::vec(64.0f64..4_096.0, 1..3),
        lengths in prop::collection::vec(600.0f64..20_000.0, 2..5),
    ) {
        // Equal cache keys must be pattern-length siblings, i.e. adjacent
        // cells: a repeated profile (two `perfect` draws) would repeat whole
        // configuration blocks far apart.
        let mut profiles = profiles;
        profiles.dedup();
        let grid = ScenarioGrid::builder()
            .scenarios(&[ScenarioId::ALL[scenario_index]])
            .profiles(&profiles)
            .lambda_multipliers(&multipliers)
            .processors(ProcessorAxis::Fixed(processors))
            .pattern_lengths(&lengths)
            .build()
            .unwrap();
        // One thread, cache on: miss counts are exact (no concurrent
        // duplicate misses), so they count distinct evaluations per run.
        let options = SweepOptions::new(ayd_sweep::RunOptions {
            seed,
            simulate: false,
            ..ayd_sweep::RunOptions::smoke()
        })
        .with_threads(1);
        let full = SweepExecutor::new(options).run(&grid);
        let mut shard_misses = 0;
        let mut parts = Vec::new();
        for index in 0..count {
            let shard = ShardSpec::new(index, count).unwrap();
            let results = SweepExecutor::new(options).run_cells(&grid.shard_cells(shard));
            shard_misses += results.cache.misses;
            parts.push(ShardPart {
                manifest: SweepManifest::complete(&grid, &options, shard),
                csv: results.to_csv(),
            });
        }
        // Each of the count - 1 boundaries splits at most one sibling group.
        prop_assert!(
            shard_misses <= full.cache.misses + (count as u64 - 1),
            "shards missed {} times, unsharded {} (count {})",
            shard_misses,
            full.cache.misses,
            count
        );
        prop_assert_eq!(merge_parts(&parts).unwrap(), full.to_csv());
    }
}

/// The simulation half of the contract on a fixed grid: shard runs simulate
/// each cell with its global-index seed, so merging shards of a *simulating*
/// sweep still reproduces the unsharded bytes exactly.
#[test]
fn simulating_shards_merge_byte_identically() {
    let grid = ScenarioGrid::builder()
        .scenarios(&[ScenarioId::S1, ScenarioId::S5])
        .lambda_multipliers(&[1.0, 20.0])
        .processors(ProcessorAxis::Fixed(vec![400.0, 800.0]))
        .build()
        .unwrap();
    let options = SweepOptions::new(ayd_sweep::RunOptions::smoke());
    let full = SweepExecutor::new(options.with_threads(2))
        .run(&grid)
        .to_csv();
    for count in [2usize, 3] {
        let parts: Vec<ShardPart> = (0..count)
            .map(|index| {
                let shard = ShardSpec::new(index, count).unwrap();
                ShardPart {
                    manifest: SweepManifest::complete(&grid, &options, shard),
                    csv: SweepExecutor::new(options.with_threads(1))
                        .run_cells(&grid.shard_cells(shard))
                        .to_csv(),
                }
            })
            .collect();
        assert_eq!(merge_parts(&parts).unwrap(), full, "count={count}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Rows are rendered on the workers, chunk by chunk, while the cache may
    /// be off, warm or evicting on every miss. Whatever the thread count,
    /// cache and shard count, each run's CSV equals a fresh render of its own
    /// rows, and the shards' bodies concatenate to the unsharded bytes.
    #[test]
    fn rendered_bodies_match_their_rows_and_the_unsharded_bytes(
        seed in 0u64..1_000,
        threads_index in 0usize..3,
        cache_index in 0usize..3,
        count in 1usize..=4,
        scenario_index in 0usize..6,
        profiles in prop::collection::vec(arb_profile(), 1..3),
        multipliers in prop::collection::vec(0.2f64..30.0, 1..3),
        base_processors in 64.0f64..1_024.0,
        processor_count in 2usize..4,
        lengths in prop::collection::vec(600.0f64..20_000.0, 1..3),
    ) {
        let threads = [1, 2, 8][threads_index];
        // Off, the default capacity, or one entry per cache shard (so a run
        // with two distinct configurations evicts).
        let capacity = [None, Some(4096), Some(1)][cache_index];
        let processors: Vec<f64> =
            (0..processor_count).map(|i| base_processors * f64::from(1u32 << i)).collect();
        let grid = ScenarioGrid::builder()
            .scenarios(&[ScenarioId::ALL[scenario_index]])
            .profiles(&profiles)
            .lambda_multipliers(&multipliers)
            .processors(ProcessorAxis::Fixed(processors))
            .pattern_lengths(&lengths)
            .build()
            .unwrap();
        let base = SweepOptions::new(ayd_sweep::RunOptions {
            seed,
            simulate: false,
            ..ayd_sweep::RunOptions::smoke()
        });
        let reference = SweepExecutor::new(base.with_threads(1)).run(&grid).to_csv();
        let options = base.with_threads(threads).with_cache_capacity(capacity);

        let unsharded = SweepExecutor::new(options).run(&grid);
        prop_assert_eq!(unsharded.to_csv(), csv_text(&unsharded.rows));
        prop_assert_eq!(&unsharded.to_csv(), &reference);
        if capacity == Some(1) && threads == 1 {
            prop_assert!(unsharded.cache.evictions > 0, "{:?}", unsharded.cache);
        }

        let mut concatenated = format!("{}\n", ayd_sweep::CSV_HEADER);
        for index in 0..count {
            let shard = ShardSpec::new(index, count).unwrap();
            let results = SweepExecutor::new(options).run_cells(&grid.shard_cells(shard));
            prop_assert_eq!(results.to_csv(), csv_text(&results.rows));
            concatenated.push_str(results.csv_body());
        }
        prop_assert_eq!(concatenated, reference);
    }
}

/// One structural edit of a shard CSV, drawn as `(kind, position)`: the
/// position is taken modulo the CSV's length plus one.
fn break_rows(csv: &mut String, (kind, position): (u64, usize)) {
    let at = position % (csv.len() + 1);
    match kind {
        0 => csv.truncate(at),
        1 => csv.insert(at, ','),
        2 => csv.insert(at, '\n'),
        3 => csv.insert(at, '\r'),
        // Deletes a separator: two rows become one, or a row loses a field.
        _ => {
            if matches!(csv.as_bytes().get(at), Some(b',' | b'\n')) {
                csv.remove(at);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A merge checks rows by their structure: no merge can tell a changed
    /// digit from another sweep's row, so the edits are the ones a torn or
    /// mangled file shows. All shards are ASCII, so every edit position is
    /// a character boundary.
    #[test]
    fn a_merge_of_broken_rows_refuses_or_returns_the_engine_bytes(
        count in 1usize..=4,
        edits in prop::collection::vec((0usize..4, (0u64..5, 0usize..usize::MAX)), 0..4),
    ) {
        let grid = ScenarioGrid::builder()
            .scenarios(&[ScenarioId::S1, ScenarioId::S4])
            .lambda_multipliers(&[1.0, 10.0])
            .processors(ProcessorAxis::Fixed(vec![256.0, 1024.0]))
            .pattern_lengths(&[1800.0, 3600.0])
            .build()
            .unwrap();
        let options = SweepOptions::new(ayd_sweep::RunOptions {
            simulate: false,
            ..ayd_sweep::RunOptions::smoke()
        });
        let executor = SweepExecutor::new(options.with_threads(1));
        let full = executor.run(&grid).to_csv();
        let mut parts: Vec<ShardPart> = (0..count)
            .map(|index| {
                let shard = ShardSpec::new(index, count).unwrap();
                ShardPart {
                    manifest: SweepManifest::complete(&grid, &options, shard),
                    csv: executor.run_cells(&grid.shard_cells(shard)).to_csv(),
                }
            })
            .collect();
        for (part, edit) in edits {
            break_rows(&mut parts[part % count].csv, edit);
        }
        if let Ok(merged) = merge_parts(&parts) {
            prop_assert_eq!(merged, full);
        }
    }
}
