//! The `sweep` subcommand: demonstration grids for the `ayd-sweep` engine.
//!
//! Two presets are exposed through the `reproduce` CLI:
//!
//! * **Analytical** (`--no-sim`): a large grid — every platform × every
//!   scenario × two sequential fractions × two error-rate multipliers × three
//!   processor counts × four pattern lengths (1152 cells) — evaluated with the
//!   exact and first-order models only. Engine time is ~2 ms in release mode
//!   (~40 ms end-to-end CLI including process startup); the pattern-length
//!   axis exercises the memoisation cache (the optimiser runs once per 4
//!   cells).
//! * **Simulated** (default): a small grid (24 cells) that also simulates the
//!   first-order operating point of every cell.
//!
//! Both presets honour the sweep determinism contract: for a fixed seed the
//! output is byte-identical regardless of `--threads` and `--no-cache`.

use ayd_core::{FailureModelSpec, ProfileSpec, SpeedupProfile};
use ayd_platforms::{PlatformId, ScenarioId};
use ayd_sweep::{
    misspecification_report, MisspecificationReport, ProcessorAxis, RunOptions, ScenarioGrid,
    SweepExecutor, SweepOptions, SweepResults,
};

use crate::table::{fmt_option, fmt_value, TextTable};

/// The demonstration grid of the `sweep` subcommand. The analytical preset is
/// the large one; the simulating preset keeps the cell count small enough for
/// interactive use.
pub fn demo_grid(simulate: bool) -> ScenarioGrid {
    demo_grid_with_profiles(simulate, None)
}

/// [`demo_grid`] with the application axis overridden by an explicit list of
/// speedup profiles (the CLI's `--profiles` flag). `None` keeps each preset's
/// default Amdahl axis.
pub fn demo_grid_with_profiles(
    simulate: bool,
    profiles: Option<&[SpeedupProfile]>,
) -> ScenarioGrid {
    demo_grid_with_axes(simulate, profiles, None)
}

/// [`demo_grid`] with the application and failure-model axes overridden by
/// explicit lists (the CLI's `--profiles` and `--failure-models` flags).
/// `None` keeps each preset's default: the Amdahl application axis and the
/// paper's exponential failure law.
pub fn demo_grid_with_axes(
    simulate: bool,
    profiles: Option<&[SpeedupProfile]>,
    failure_models: Option<&[FailureModelSpec]>,
) -> ScenarioGrid {
    let mut builder = if simulate {
        ScenarioGrid::builder()
            .platforms(&[PlatformId::Hera, PlatformId::Atlas])
            .scenarios(&ScenarioId::REPRESENTATIVE)
            .lambda_multipliers(&[1.0, 10.0])
            .processors(ProcessorAxis::Fixed(vec![512.0, 1024.0]))
    } else {
        ScenarioGrid::builder()
            .platforms(&PlatformId::ALL)
            .scenarios(&ScenarioId::ALL)
            .profiles(&[
                SpeedupProfile::Amdahl { alpha: 0.05 },
                SpeedupProfile::Amdahl { alpha: 0.1 },
            ])
            .lambda_multipliers(&[1.0, 10.0])
            .processors(ProcessorAxis::Fixed(vec![256.0, 1024.0, 4096.0]))
            .pattern_lengths(&[900.0, 3_600.0, 14_400.0, 57_600.0])
    };
    if let Some(profiles) = profiles {
        builder = builder.profiles(profiles);
    }
    if let Some(failure_models) = failure_models {
        builder = builder.failure_models(failure_models);
    }
    builder.build().expect("the demo grids are valid")
}

/// Runs the demo sweep. The worker-thread count and the cache switch come
/// from the run options (`--threads` / `--no-cache` on the CLI).
pub fn run(options: &RunOptions) -> SweepResults {
    run_with_profiles(options, None)
}

/// [`run`] over a demo grid whose application axis is the given profiles
/// (`--profiles` on the CLI); `None` keeps the preset's Amdahl axis.
pub fn run_with_profiles(
    options: &RunOptions,
    profiles: Option<&[SpeedupProfile]>,
) -> SweepResults {
    run_with_axes(options, profiles, None)
}

/// [`run`] over a demo grid with both the application and failure-model axes
/// overridden (`--profiles` / `--failure-models` on the CLI).
pub fn run_with_axes(
    options: &RunOptions,
    profiles: Option<&[SpeedupProfile]>,
    failure_models: Option<&[FailureModelSpec]>,
) -> SweepResults {
    SweepExecutor::new(SweepOptions::new(*options)).run(&demo_grid_with_axes(
        options.simulate,
        profiles,
        failure_models,
    ))
}

/// Renders sweep results as a text table (one row per cell).
pub fn render(results: &SweepResults) -> TextTable {
    // The title deliberately omits the cache hit/miss counters: they may vary
    // with thread scheduling (concurrent misses can compute twice), while the
    // rendered table must honour the byte-identical determinism contract.
    let mut table = TextTable::new(
        format!("Scenario sweep — {} cells", results.rows.len()),
        &[
            "platform",
            "scenario",
            "profile",
            "failure",
            "lambda_x",
            "P",
            "T*_P (first-order)",
            "H (first-order)",
            "T (numerical)",
            "H (numerical)",
            "T (pattern)",
            "H (pattern)",
            "H (simulated)",
            "H (stream)",
        ],
    );
    for row in &results.rows {
        let fo = row.first_order;
        let simulated = row
            .prescribed
            .and_then(|p| p.simulated)
            .or_else(|| fo.and_then(|p| p.simulated));
        table.push_row(vec![
            row.platform.name().to_string(),
            row.scenario.to_string(),
            ProfileSpec::from(row.profile).to_string(),
            row.failure_model.to_string(),
            fmt_value(row.lambda_multiplier),
            fmt_option(row.fixed_processors),
            fmt_option(fo.map(|p| p.period)),
            fmt_option(fo.map(|p| p.predicted_overhead)),
            fmt_value(row.numerical.period),
            fmt_value(row.numerical.predicted_overhead),
            fmt_option(row.pattern_length),
            fmt_option(row.prescribed.map(|p| p.predicted_overhead)),
            fmt_option(simulated.map(|s| s.mean)),
            fmt_option(row.stream_simulated.map(|s| s.mean)),
        ]);
    }
    table
}

/// The misspecification report of a sweep: how far the paper's exponential
/// analytics drift on non-exponential cells (empty on all-exponential or
/// analytic-only runs).
pub fn misspecification(results: &SweepResults) -> MisspecificationReport {
    misspecification_report(results)
}

/// Renders a misspecification report as a text table (one row per
/// non-exponential cell that carries a primary-point simulation).
pub fn render_misspecification(report: &MisspecificationReport) -> TextTable {
    let mut table = TextTable::new(
        format!(
            "Misspecification under non-exponential failures — {} of {} rows beyond 3 sigma",
            report.significant_count(),
            report.rows.len()
        ),
        &[
            "platform",
            "scenario",
            "failure",
            "lambda_ind",
            "H (model)",
            "H (simulated)",
            "ci95",
            "rel_error_%",
            "3-sigma",
        ],
    );
    for row in &report.rows {
        table.push_row(vec![
            row.platform.name().to_string(),
            row.scenario.to_string(),
            row.failure_model.to_string(),
            fmt_value(row.lambda_ind),
            fmt_value(row.predicted_overhead),
            fmt_value(row.simulated_overhead),
            fmt_value(row.simulated_ci95),
            format!("{:+.2}", 100.0 * row.relative_error),
            (if row.significant { "yes" } else { "no" }).to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytical_demo_grid_has_over_a_thousand_cells() {
        let grid = demo_grid(false);
        assert_eq!(grid.len(), 4 * 6 * 2 * 2 * 3 * 4);
        assert!(grid.len() >= 1_000);
        assert_eq!(demo_grid(true).len(), 2 * 3 * 2 * 2);
    }

    #[test]
    fn analytical_sweep_renders_every_cell() {
        let options = RunOptions {
            simulate: false,
            threads: Some(2),
            ..RunOptions::smoke()
        };
        let results = run(&options);
        assert_eq!(results.rows.len(), demo_grid(false).len());
        assert_eq!(render(&results).len(), results.rows.len());
        // The pattern-length axis reuses each optimiser evaluation, so the
        // cache must score hits.
        assert!(results.cache.hits > 0);
    }

    #[test]
    fn profile_override_reshapes_the_application_axis() {
        let profiles = [
            SpeedupProfile::amdahl(0.1).unwrap(),
            SpeedupProfile::power_law(0.8).unwrap(),
            SpeedupProfile::gustafson(0.05).unwrap(),
            SpeedupProfile::perfectly_parallel(),
        ];
        let grid = demo_grid_with_profiles(true, Some(&profiles));
        // 2 platforms × 3 scenarios × 4 profiles × 2 λ × 2 P.
        assert_eq!(grid.len(), 2 * 3 * 4 * 2 * 2);
        // Smoke-level simulation on the small preset: the override must also
        // hold under the simulating grid (and stay deterministic there).
        let options = RunOptions {
            threads: Some(2),
            ..RunOptions::smoke()
        };
        let results = run_with_profiles(&options, Some(&profiles));
        assert_eq!(results.rows.len(), grid.len());
        // Extension-profile rows carry no first-order series; Amdahl rows do.
        for row in &results.rows {
            match row.profile {
                SpeedupProfile::Amdahl { .. } | SpeedupProfile::PerfectlyParallel => {
                    assert!(row.first_order.is_some(), "{:?}", row.profile);
                }
                _ => assert!(row.first_order.is_none(), "{:?}", row.profile),
            }
        }
        // Determinism holds for mixed-profile grids too.
        let reran = run_with_profiles(
            &RunOptions {
                threads: Some(4),
                cache: false,
                ..options
            },
            Some(&profiles),
        );
        assert_eq!(results.to_csv(), reran.to_csv());
    }

    #[test]
    fn failure_model_override_reshapes_the_grid_and_reports_misspecification() {
        let models = [
            FailureModelSpec::exponential(),
            FailureModelSpec::weibull(0.7).unwrap(),
        ];
        let grid = demo_grid_with_axes(true, None, Some(&models));
        assert_eq!(grid.len(), 2 * 3 * 2 * 2 * 2);
        let options = RunOptions {
            threads: Some(2),
            ..RunOptions::smoke()
        };
        let results = run_with_axes(&options, None, Some(&models));
        assert_eq!(results.rows.len(), grid.len());
        // Every weibull:0.7 cell is compared against its simulation; no
        // exponential cell is.
        let report = misspecification(&results);
        assert_eq!(report.rows.len(), grid.len() / 2);
        let table = render_misspecification(&report);
        assert_eq!(table.len(), report.rows.len());
        assert!(table.render().contains("weibull:0.7"));
        // Determinism holds for mixed-law grids too.
        let reran = run_with_axes(
            &RunOptions {
                threads: Some(4),
                cache: false,
                ..options
            },
            None,
            Some(&models),
        );
        assert_eq!(results.to_csv(), reran.to_csv());
    }

    #[test]
    fn threads_and_cache_do_not_change_the_output() {
        let options = RunOptions {
            simulate: false,
            threads: Some(1),
            ..RunOptions::smoke()
        };
        let baseline = run(&options);
        let parallel = run(&RunOptions {
            threads: Some(4),
            cache: false,
            ..options
        });
        assert_eq!(baseline.rows, parallel.rows);
        assert_eq!(baseline.to_csv(), parallel.to_csv());
    }
}
