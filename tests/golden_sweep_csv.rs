//! Golden test of the sweep CSV format.
//!
//! Pins the canonical CSV header and the first/last rows of a small fixed grid
//! (analytical only, so every cell is a deterministic pure-`f64` computation).
//! Any drift in the output schema, the column order, the value formatting or
//! the grid's deterministic cell order fails here before it reaches a consumer
//! of `reproduce sweep --csv` output. A second grid pins a non-Amdahl row, so
//! the profile columns and the numerical-only fallback are golden too, and a
//! third pins one jointly optimised row per profile family, so the exact
//! model's kernel and the nested search are golden as well.

use ayd_platforms::{PlatformId, ScenarioId};
use ayd_sweep::{
    ProcessorAxis, RunOptions, ScenarioGrid, SpeedupProfile, SweepExecutor, SweepOptions,
    CSV_HEADER,
};

fn golden_grid() -> ScenarioGrid {
    ScenarioGrid::builder()
        .platforms(&[PlatformId::Hera])
        .scenarios(&[ScenarioId::S1, ScenarioId::S3])
        .lambda_multipliers(&[1.0, 10.0])
        .processors(ProcessorAxis::Fixed(vec![256.0, 1024.0]))
        .pattern_lengths(&[3_600.0])
        .build()
        .unwrap()
}

fn run_csv(grid: &ScenarioGrid) -> String {
    let options = SweepOptions::new(RunOptions {
        simulate: false,
        ..RunOptions::smoke()
    });
    SweepExecutor::new(options).run(grid).to_csv()
}

fn golden_csv() -> String {
    run_csv(&golden_grid())
}

#[test]
fn sweep_csv_header_is_pinned() {
    assert_eq!(
        CSV_HEADER,
        "platform,scenario,alpha,profile,profile_param,failure_model,failure_param,\
lambda_ind,lambda_multiplier,processors,\
pattern_length,fo_processors,fo_period,fo_overhead,fo_formula_overhead,fo_sim_mean,fo_sim_ci95,\
num_processors,num_period,num_overhead,num_sim_mean,num_sim_ci95,\
pattern_overhead,pattern_sim_mean,pattern_sim_ci95,stream_sim_mean,stream_sim_ci95"
    );
}

#[test]
fn sweep_csv_first_and_last_rows_are_pinned() {
    let csv = golden_csv();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 1 + 8, "2 scenarios × 2 multipliers × 2 P");
    assert_eq!(lines[0], CSV_HEADER);
    assert_eq!(
        lines[1],
        "Hera,1,0.1,amdahl,0.1,exp,,0.0000000169,1,256,3600,256,6551.836818431605,\
0.10923732682928215,0.10874209350020253,,,256,6469.2375895385285,0.10923689384439697,,,\
0.11018235679785451,,,,"
    );
    assert_eq!(
        lines[8],
        "Hera,3,0.1,amdahl,0.1,exp,,0.000000169,10,1024,3600,1024,1430.5273600525854,\
0.17749510125302212,0.14536209184958257,,,1024,1280.6146752871186,0.17710358937015436,,,\
0.22113748594843097,,,,"
    );
}

#[test]
fn non_amdahl_rows_are_pinned() {
    // One power-law cell: the profile columns carry the spec, the alpha column
    // and the whole first-order series are empty (numerical-only fallback).
    let grid = ScenarioGrid::builder()
        .platforms(&[PlatformId::Hera])
        .scenarios(&[ScenarioId::S1])
        .profiles(&[SpeedupProfile::power_law(0.8).unwrap()])
        .processors(ProcessorAxis::Fixed(vec![256.0]))
        .build()
        .unwrap();
    let csv = run_csv(&grid);
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 2);
    let line = lines[1];
    assert!(
        line.starts_with("Hera,1,,powerlaw,0.8,exp,,0.0000000169,1,256,,,,,,,,256,"),
        "line: {line}"
    );
    let columns: Vec<&str> = line.split(',').collect();
    assert_eq!(columns.len(), CSV_HEADER.split(',').count());
    // The numerical series is present and positive.
    let num_overhead: f64 = columns[19].parse().unwrap();
    assert!(num_overhead > 0.0, "line: {line}");
}

#[test]
fn joint_rows_are_pinned() {
    // One jointly optimised cell per profile family. Each row runs the
    // nested (P, T) search through the exact model's kernel, so any drift
    // in the kernel or the search shows here, whichever search ran.
    let grid = ScenarioGrid::builder()
        .platforms(&[PlatformId::Hera])
        .scenarios(&[ScenarioId::S1])
        .profiles(&[
            SpeedupProfile::amdahl(0.1).unwrap(),
            SpeedupProfile::power_law(0.8).unwrap(),
            SpeedupProfile::gustafson(0.05).unwrap(),
            SpeedupProfile::perfectly_parallel(),
        ])
        .processors(ProcessorAxis::Optimize)
        .build()
        .unwrap();
    let csv = run_csv(&grid);
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 1 + 4, "one row per profile family");
    assert_eq!(
        lines[1],
        "Hera,1,0.1,amdahl,0.1,exp,,0.0000000169,1,,,218.90268301532373,6603.324885207787,\
0.10905078734140444,0.10822283206037267,,,207.21388766098164,6554.858460446106,\
0.10903714666640324,,,,,,,"
    );
    assert_eq!(
        lines[2],
        "Hera,1,,powerlaw,0.8,exp,,0.0000000169,1,,,,,,,,,4110.38304002245,5156.38736475804,\
0.002897647050960101,,,,,,,"
    );
    assert_eq!(
        lines[3],
        "Hera,1,,gustafson,0.05,exp,,0.0000000169,1,,,,,,,,,5150.769635461111,\
4910.420336060737,0.0005641110421314414,,,,,,,"
    );
    assert_eq!(
        lines[4],
        "Hera,1,0,perfect,,exp,,0.0000000169,1,,,,,,,,,5150.822538039581,4910.408103243105,\
0.0005359109659846562,,,,,,,"
    );
}

#[test]
fn non_exponential_rows_are_pinned() {
    // One Weibull cell: the failure-model columns carry the family and its
    // shape, while the analytic series stays the exponential model's (the
    // misspecification report, not the CSV, carries the comparison).
    let grid = ScenarioGrid::builder()
        .platforms(&[PlatformId::Hera])
        .scenarios(&[ScenarioId::S1])
        .failure_models(&[ayd_sweep::FailureModelSpec::weibull(0.7).unwrap()])
        .processors(ProcessorAxis::Fixed(vec![256.0]))
        .pattern_lengths(&[3_600.0])
        .build()
        .unwrap();
    let csv = run_csv(&grid);
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 2);
    let line = lines[1];
    assert!(
        line.starts_with("Hera,1,0.1,amdahl,0.1,weibull,0.7,0.0000000169,1,256,3600,"),
        "line: {line}"
    );
    assert_eq!(line.split(',').count(), CSV_HEADER.split(',').count());
    // Analytic-only run: the analytic columns are identical to the same grid
    // under the default exponential axis (stripping the two failure columns).
    let exp_grid = ScenarioGrid::builder()
        .platforms(&[PlatformId::Hera])
        .scenarios(&[ScenarioId::S1])
        .processors(ProcessorAxis::Fixed(vec![256.0]))
        .pattern_lengths(&[3_600.0])
        .build()
        .unwrap();
    let exp_line = run_csv(&exp_grid).lines().nth(1).unwrap().to_string();
    assert_eq!(
        strip_failure_columns(line),
        strip_failure_columns(&exp_line)
    );
}

/// Drops the `failure_model`/`failure_param` columns (1-indexed 6 and 7) from
/// a CSV line, mirroring the CI smoke step's `cut -d, -f1-5,8-`.
fn strip_failure_columns(line: &str) -> String {
    let columns: Vec<&str> = line.split(',').collect();
    let mut kept: Vec<&str> = columns[..5].to_vec();
    kept.extend(&columns[7..]);
    kept.join(",")
}

#[test]
fn sharded_merge_reproduces_the_golden_bytes() {
    // The golden grid run as 3 shards and merged must reproduce the exact
    // golden bytes — the pinned first/last rows included. This is the
    // golden-level anchor of the shard determinism contract (the property
    // suite covers arbitrary grids and shard counts).
    let grid = golden_grid();
    let options = SweepOptions::new(RunOptions {
        simulate: false,
        ..RunOptions::smoke()
    });
    let parts: Vec<ayd_sweep::ShardPart> = (0..3)
        .map(|index| {
            let shard = ayd_sweep::ShardSpec::new(index, 3).unwrap();
            ayd_sweep::ShardPart {
                manifest: ayd_sweep::SweepManifest::complete(&grid, &options, shard),
                csv: SweepExecutor::new(options)
                    .run_cells(&grid.shard_cells(shard))
                    .to_csv(),
            }
        })
        .collect();
    assert_eq!(ayd_sweep::merge_parts(&parts).unwrap(), golden_csv());
}

#[test]
fn every_golden_row_has_the_full_column_count() {
    let csv = golden_csv();
    let columns = CSV_HEADER.split(',').count();
    assert_eq!(columns, 27);
    for line in csv.lines() {
        assert_eq!(line.split(',').count(), columns, "line: {line}");
    }
}
