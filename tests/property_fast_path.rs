//! Property-based equivalence of the warm-started search and the reference.
//!
//! Every sweep and served query finds its numerical optimum with the
//! warm-started search of `ayd_optim::seeded`: seeded from the paper's
//! first-order closed forms (Theorems 1–3), checked by sentinel probes, and
//! demoted to the reference grid scan + Brent search whenever it cannot prove
//! it found the scan's basin. Its contract is that it is **bit-identical** to
//! that reference search, which [`Evaluator::numerical_period_for`] and
//! [`Evaluator::numerical_point`] still run as the oracle. This suite checks
//! the contract end-to-end through the sweep engine on randomized grids
//! spanning all four speedup-profile families, every platform, both lambda
//! axes, fixed and jointly-optimised processor counts, pattern-length axes,
//! several worker thread counts, and the cache both on and off. The two
//! "search strategies" the test names refer to are the warm-started search
//! and its reference oracle.

use proptest::prelude::*;

use ayd_core::SpeedupProfile;
use ayd_platforms::{PlatformId, ScenarioId};
use ayd_sweep::{
    Evaluator, ProcessorAxis, RunOptions, ScenarioGrid, SweepExecutor, SweepOptions, SweepResults,
};

/// One arbitrary (valid) speedup profile, covering all four families.
fn arb_profile() -> impl Strategy<Value = SpeedupProfile> {
    (0usize..4, 0.05f64..1.0).prop_map(|(kind, param)| match kind {
        0 => SpeedupProfile::Amdahl { alpha: param },
        1 => SpeedupProfile::PerfectlyParallel,
        2 => SpeedupProfile::PowerLaw { sigma: param },
        _ => SpeedupProfile::Gustafson { alpha: param },
    })
}

/// One arbitrary processor axis: jointly optimised, fixed counts, or the
/// lambda-order ablation axis.
fn arb_processor_axis() -> impl Strategy<Value = ProcessorAxis> {
    (
        0usize..3,
        prop::collection::vec(64.0f64..65_536.0, 1..3),
        prop::collection::vec(0.2f64..0.5, 1..3),
    )
        .prop_map(|(kind, fixed, orders)| match kind {
            0 => ProcessorAxis::Optimize,
            1 => ProcessorAxis::Fixed(fixed),
            _ => ProcessorAxis::LambdaOrders(orders),
        })
}

/// One arbitrary grid: random platform, scenario, profiles, error-rate axis,
/// processor axis and (for fixed-P cells) pattern lengths.
fn arb_grid() -> impl Strategy<Value = ScenarioGrid> {
    (
        0usize..4,
        0usize..6,
        prop::collection::vec(arb_profile(), 1..3),
        prop::collection::vec(0.2f64..30.0, 1..3),
        arb_processor_axis(),
        prop::collection::vec(600.0f64..100_000.0, 0..3),
    )
        .prop_map(
            |(platform, scenario, profiles, multipliers, axis, patterns)| {
                let mut builder = ScenarioGrid::builder()
                    .platforms(&[PlatformId::ALL[platform]])
                    .scenarios(&[ScenarioId::ALL[scenario]])
                    .profiles(&profiles)
                    .lambda_multipliers(&multipliers)
                    .processors(axis.clone());
                // Pattern-length axes only combine with fixed processor counts.
                if !patterns.is_empty() && matches!(axis, ProcessorAxis::Fixed(_)) {
                    builder = builder.pattern_lengths(&patterns);
                }
                builder.build().unwrap()
            },
        )
}

/// Asserts that every row's numerical `(P*, T*, overhead)` is bit-identical
/// to the reference search on the row's cell.
fn assert_rows_match_reference(grid: &ScenarioGrid, results: &SweepResults, run: RunOptions) {
    let oracle = Evaluator::new(RunOptions {
        simulate: false,
        ..run
    });
    let cells = grid.cells();
    assert_eq!(results.rows.len(), cells.len());
    for (cell, row) in cells.iter().zip(&results.rows) {
        let model = cell.setup.model().unwrap();
        let expected = match cell.fixed_processors {
            Some(p) => {
                let (period, overhead) = oracle.numerical_period_for(&model, p);
                (p, period, overhead)
            }
            None => {
                let point = oracle.numerical_point(&model);
                (point.processors, point.period, point.predicted_overhead)
            }
        };
        let got = (
            row.numerical.processors,
            row.numerical.period,
            row.numerical.predicted_overhead,
        );
        let bits = |(p, t, h): (f64, f64, f64)| (p.to_bits(), t.to_bits(), h.to_bits());
        assert_eq!(
            bits(got),
            bits(expected),
            "cell {}: {got:?} != reference {expected:?}",
            cell.index
        );
    }
}

proptest! {
    // Each case runs the reference search on every cell; keep the case
    // count low.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any grid, every cell's numerical `(P*, T*, overhead)` is
    /// bit-identical to the reference search, regardless of thread count,
    /// and with the cache on or off.
    #[test]
    fn search_strategies_are_byte_identical_on_random_grids(
        grid in arb_grid(),
        seed in 0u64..1_000,
        threads_index in 0usize..3,
        cache_switch in 0usize..2,
    ) {
        let threads = [1usize, 2, 8][threads_index];
        let cache = cache_switch == 1;
        let run = RunOptions {
            seed,
            simulate: false,
            ..RunOptions::smoke()
        };
        let options = SweepOptions::new(run)
            .with_threads(threads)
            .with_cache_capacity(cache.then_some(1024));
        let results = SweepExecutor::new(options).run(&grid);
        prop_assert!(results.search.total() > 0, "sanity: the warm start ran");
        assert_rows_match_reference(&grid, &results, run);
    }

    /// Simulation rides on the analytic operating points, so with simulation
    /// enabled the numerical points must still match the reference.
    #[test]
    fn search_strategies_agree_with_simulation_enabled(
        seed in 0u64..1_000,
        scenario_index in 0usize..6,
        processors in prop::collection::vec(64.0f64..4_096.0, 1..3),
    ) {
        let grid = ScenarioGrid::builder()
            .scenarios(&[ScenarioId::ALL[scenario_index]])
            .lambda_multipliers(&[1.0, 10.0])
            .processors(ProcessorAxis::Fixed(processors))
            .build()
            .unwrap();
        let run = RunOptions {
            seed,
            ..RunOptions::smoke()
        };
        let results = SweepExecutor::new(SweepOptions::new(run).with_threads(2)).run(&grid);
        prop_assert!(results.rows.iter().all(|row| row.primary_point().simulated.is_some()));
        assert_rows_match_reference(&grid, &results, run);
    }
}

/// The 2304-cell mixed-profile demo grid of `reproduce sweep --no-sim
/// --profiles amdahl:0.1,powerlaw:0.8,gustafson:0.05,perfect` (platforms ×
/// scenarios × profiles × lambdas × fixed P × pattern lengths), with the
/// cache off so every cell runs its own search.
#[test]
fn mixed_profile_fixed_p_grid_is_strategy_invariant() {
    let grid = ayd_exp::sweep::demo_grid_with_profiles(
        false,
        Some(&[
            SpeedupProfile::amdahl(0.1).unwrap(),
            SpeedupProfile::power_law(0.8).unwrap(),
            SpeedupProfile::gustafson(0.05).unwrap(),
            SpeedupProfile::perfectly_parallel(),
        ]),
    );
    assert_eq!(grid.len(), 2304);
    let run = RunOptions {
        simulate: false,
        threads: Some(2),
        cache: false,
        ..RunOptions::default()
    };
    let results = SweepExecutor::new(SweepOptions::new(run)).run(&grid);
    assert_eq!(results.search.total(), 2304, "one period search per cell");
    assert_rows_match_reference(&grid, &results, run);
}

/// Joint-optimisation cells (the expensive path the warm start exists for)
/// match the reference across every platform and scenario at the default
/// paper error rates.
#[test]
fn joint_optimisation_cells_are_strategy_invariant_everywhere() {
    let grid = ScenarioGrid::builder()
        .platforms(PlatformId::ALL.as_slice())
        .scenarios(ScenarioId::ALL.as_slice())
        .lambda_multipliers(&[1.0, 10.0])
        .processors(ProcessorAxis::Optimize)
        .build()
        .unwrap();
    let run = RunOptions {
        simulate: false,
        ..RunOptions::default()
    };
    let results = SweepExecutor::new(SweepOptions::new(run)).run(&grid);
    assert_rows_match_reference(&grid, &results, run);
}
