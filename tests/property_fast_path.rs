//! Property-based equivalence of the warm-started search and the reference.
//!
//! Every sweep and served query finds its numerical optimum with the
//! warm-started search of `ayd_optim::seeded`. Each period search is seeded
//! with Theorem 1's `T*_P` and certified by the convexity of the pattern
//! time; the processor search is seeded with the outer grid point that
//! minimises the exact overhead at `T*_P`, and checked by sentinel probes
//! that a proven lower bound mostly decides without a period search. Any
//! search that cannot prove it found the scan's basin demotes to the
//! reference grid scan + Brent search. Its contract is that it is
//! **bit-identical** to that reference search, which
//! [`Evaluator::numerical_period_for`] and [`Evaluator::numerical_point`]
//! still run as the oracle. This suite checks the contract end-to-end
//! through the sweep engine on randomized grids spanning all four
//! speedup-profile families, every platform, both lambda axes, fixed and
//! jointly-optimised processor counts, pattern-length axes, several worker
//! thread counts, and the cache both on and off, and through the served
//! kernel on queries drawn as the `query-cold` benchmark draws them. The two
//! "search strategies" the test names refer to are the warm-started search
//! and its reference oracle.

use proptest::prelude::*;

use ayd_core::SpeedupProfile;
use ayd_platforms::{ExperimentSetup, Platform, PlatformId, ScenarioId};
use ayd_sweep::{
    evaluate_analytic_observed, Evaluator, FailureModelSpec, FallbackReason, ProcessorAxis,
    RunOptions, ScenarioGrid, SearchReport, SweepExecutor, SweepOptions, SweepResults,
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

/// SplitMix64, so the cold-path draw below needs no RNG crate and never
/// changes with one.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// 2,000 cache-cold queries drawn the way the `query-cold` benchmark draws
/// them — 4 platforms × 6 scenarios × the four profile families, a
/// log-uniform λ multiplier in [1, 50], ¾ joint and ¼ at a fixed P in
/// [128, 8192] — answered by the served kernel without a cache. Every answer
/// is bit-identical to the reference search; every family and cost case gets
/// a processor seed, and at most 1 % of the scalar searches fall back.
#[test]
fn cold_queries_of_every_family_take_the_fast_path_bit_identically() {
    let run = RunOptions {
        simulate: false,
        threads: Some(1),
        ..RunOptions::default()
    };
    let options = SweepOptions::new(run);
    let oracle = Evaluator::new(run);
    let exp = FailureModelSpec::parse("exp").unwrap();
    let mut rng = SplitMix64(0xC01D_5EED);
    let mut search = SearchReport::default();
    let mut joint = 0;
    for query in 0..2_000 {
        let platform = PlatformId::ALL[rng.below(PlatformId::ALL.len())];
        let scenario = ScenarioId::ALL[rng.below(ScenarioId::ALL.len())];
        let profile = match rng.below(4) {
            0 => SpeedupProfile::amdahl(rng.uniform(0.02, 0.25)).unwrap(),
            1 => SpeedupProfile::power_law(rng.uniform(0.6, 0.95)).unwrap(),
            2 => SpeedupProfile::gustafson(rng.uniform(0.02, 0.25)).unwrap(),
            _ => SpeedupProfile::perfectly_parallel(),
        };
        let multiplier = 10f64.powf(rng.unit() * 50f64.log10());
        let fixed = (rng.below(4) == 0).then(|| (128.0 * 2f64.powf(6.0 * rng.unit())).round());
        let model = ExperimentSetup::paper_default(platform, scenario)
            .with_profile(profile)
            .with_lambda_ind(Platform::get(platform).lambda_ind * multiplier)
            .model()
            .unwrap();
        let (eval, observation) = evaluate_analytic_observed(&model, fixed, &exp, &options, None);
        search.merge(&observation.search);
        let expected = match fixed {
            Some(p) => {
                let (period, overhead) = oracle.numerical_period_for(&model, p);
                (p, period, overhead)
            }
            None => {
                joint += 1;
                let point = oracle.numerical_point(&model);
                (point.processors, point.period, point.predicted_overhead)
            }
        };
        let got = (
            eval.numerical.processors,
            eval.numerical.period,
            eval.numerical.predicted_overhead,
        );
        let bits = |(p, t, h): (f64, f64, f64)| (p.to_bits(), t.to_bits(), h.to_bits());
        assert_eq!(
            bits(got),
            bits(expected),
            "query {query} ({platform:?}/{scenario:?}/{profile:?}, ×{multiplier}, P {fixed:?}): \
             {got:?} != reference {expected:?}"
        );
    }
    assert!(joint > 1_400, "{joint} joint queries");
    assert_eq!(
        search.fallback_count(FallbackReason::MissingSeed),
        0,
        "{search:?}"
    );
    let fast_share = search.fast as f64 / search.total() as f64;
    assert!(fast_share >= 0.99, "fast share {fast_share}: {search:?}");
}
