//! Property-based tests (proptest) of the core invariants, spanning crates.
//!
//! Parameter ranges are chosen to cover the physically meaningful regime of the
//! paper (individual error rates between 1e-12 and 1e-6 per second, costs up to
//! an hour, patterns between minutes and days, platforms up to ~100k processors)
//! while keeping the exponentials finite.

use proptest::prelude::*;

use ayd_core::{
    failure, CheckpointCost, ExactModel, FailureModel, FirstOrder, ResilienceCosts, SpeedupProfile,
    VerificationCost,
};
use ayd_optim::{brent_minimize, golden_section};
use ayd_platforms::{Platform, PlatformId, Scenario, ScenarioId};
use ayd_sim::{PatternParams, RunningStats, SimulationConfig};
use ayd_sweep::{ProcessorAxis, ScenarioGrid, SweepExecutor, SweepOptions};

/// Strategy for a random but physically sensible exact model.
fn arb_model() -> impl Strategy<Value = ExactModel> {
    (
        // λ_ind is sampled log-uniformly between 1e-12 and 1e-6 so that the whole
        // reliability range is exercised without concentrating on the extreme
        // high-error end.
        (-12.0f64..-6.0).prop_map(|e| 10f64.powf(e)),
        0.0f64..=1.0,    // fail-stop fraction
        0.001f64..0.5,   // alpha
        0.0f64..2.0,     // c
        0.0f64..2_000.0, // a
        0.0f64..1e6,     // b
        0.0f64..200.0,   // v
        0.0f64..1e5,     // u
        0.0f64..7_200.0, // downtime
    )
        .prop_map(|(lambda, f, alpha, c, a, b, v, u, d)| {
            ExactModel::new(
                SpeedupProfile::amdahl(alpha).unwrap(),
                ResilienceCosts::new(
                    CheckpointCost::new(a, b, c).unwrap(),
                    VerificationCost::new(v, u).unwrap(),
                    d,
                )
                .unwrap(),
                FailureModel::new(lambda, f).unwrap(),
            )
        })
}

/// Strategy for an operating point that keeps `λ_P · (T + V + C)` far from
/// overflow.
fn arb_operating_point() -> impl Strategy<Value = (f64, f64)> {
    (60.0f64..200_000.0, 1.0f64..100_000.0)
}

/// Strategy for an operating point anywhere in the numerical search's default
/// ranges (`T` in `[1, 1e9]`, `P` in `[1, 1e7]`, both log-uniform), overflowing
/// tail included.
fn arb_search_point() -> impl Strategy<Value = (f64, f64)> {
    (0.0f64..9.0, 0.0f64..7.0).prop_map(|(t, p)| (10f64.powf(t), 10f64.powf(p)))
}

/// The kernel of the model at one processor count against the component
/// path: `[(kernel, components)]` for the pattern time and the overhead,
/// where the components' overhead is `(E(T+V) + E(C)) · H(P) / T`.
fn kernel_and_components(model: &ExactModel, t: f64, p: f64) -> [(f64, f64); 2] {
    let at = model.at(p);
    let pattern = model.pattern_breakdown(t, p).total();
    let overhead = pattern * model.speedup.overhead(p) / t;
    [(at.pattern_time(t), pattern), (at.overhead(t), overhead)]
}

/// Bit equality, except that any NaN equals any NaN (a NaN's payload is not
/// part of the contract, only that both sides are NaN).
fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The expected overhead is the reciprocal of the expected speedup, and both
    /// are finite and positive in the physical regime.
    #[test]
    fn overhead_is_reciprocal_of_speedup(model in arb_model(), (t, p) in arb_operating_point()) {
        let overhead = model.expected_overhead(t, p);
        let speedup = model.expected_speedup(t, p);
        prop_assume!(overhead.is_finite());
        prop_assert!(overhead > 0.0);
        prop_assert!((overhead * speedup - 1.0).abs() < 1e-9);
    }

    /// The expected pattern time always exceeds the error-free duration
    /// `T + V_P + C_P`, and equals it in the limit of a vanishing error rate.
    #[test]
    fn expected_time_dominates_error_free_time(model in arb_model(), (t, p) in arb_operating_point()) {
        let expected = model.expected_pattern_time(t, p);
        prop_assume!(expected.is_finite());
        let floor = t + model.costs.verification_at(p) + model.costs.checkpoint_at(p);
        prop_assert!(expected >= floor - 1e-9);
    }

    /// The component-recurrence evaluation and the closed form of Eq. (2) agree
    /// whenever the fail-stop rate is positive.
    #[test]
    fn closed_form_matches_components(model in arb_model(), (t, p) in arb_operating_point()) {
        prop_assume!(model.failures.fail_stop_fraction > 1e-3);
        let a = model.expected_pattern_time(t, p);
        let b = model.expected_pattern_time_closed_form(t, p);
        prop_assume!(a.is_finite() && b.is_finite());
        prop_assert!((a - b).abs() <= 1e-8 * a.abs().max(1.0), "components {a} vs closed form {b}");
    }

    /// `ExactModel::at(p)` evaluates the component path's own expressions, so
    /// its pattern time and overhead, and the `ExactModel` methods that
    /// delegate to it, equal the components' bit for bit over the whole
    /// search range, overflow included.
    #[test]
    fn model_at_is_bit_identical_to_the_component_path(
        model in arb_model(),
        (t, p) in arb_search_point(),
    ) {
        let delegated = [model.expected_pattern_time(t, p), model.expected_overhead(t, p)];
        for ((kernel, components), delegated) in kernel_and_components(&model, t, p).into_iter().zip(delegated) {
            prop_assert!(
                same_bits(kernel, components) && same_bits(delegated, components),
                "T={t} P={p}: kernel {kernel}, delegated {delegated}, components {components}"
            );
        }
    }

    /// The expected pattern time is monotone in the individual error rate.
    #[test]
    fn expected_time_is_monotone_in_error_rate(
        model in arb_model(),
        (t, p) in arb_operating_point(),
        factor in 1.5f64..10.0,
    ) {
        // Skip configurations whose amplified error load would overflow the
        // exponentials (they are outside any physically meaningful regime).
        prop_assume!(
            model.failures.total_rate(p)
                * factor
                * (t + model.costs.checkpoint_plus_verification_at(p))
                < 200.0
        );
        let base = model.expected_pattern_time(t, p);
        let worse_failures = model
            .failures
            .with_lambda_ind(model.failures.lambda_ind * factor)
            .unwrap();
        let worse = model.with_failures(worse_failures).expected_pattern_time(t, p);
        prop_assume!(base.is_finite() && worse.is_finite());
        prop_assert!(worse >= base - 1e-9);
    }

    /// Theorem 1's period is a stationary point of the dominant-term first-order
    /// overhead: small perturbations never decrease it.
    #[test]
    fn theorem1_period_is_stationary(model in arb_model(), p in 1.0f64..50_000.0) {
        let costs = model.costs.checkpoint_plus_verification_at(p);
        prop_assume!(costs > 1e-6);
        let fo = FirstOrder::new(&model);
        let optimum = fo.optimal_period_for(p);
        prop_assume!(optimum.period.is_finite() && optimum.period > 0.0);
        let h = |t: f64| fo.approx_overhead(t, p);
        let best = h(optimum.period);
        prop_assert!(h(optimum.period * 1.05) >= best - 1e-12);
        prop_assert!(h(optimum.period * 0.95) >= best - 1e-12);
    }

    /// Theorem 2's closed form minimises the Theorem-1 overhead envelope over P,
    /// whenever the checkpoint cost is genuinely linear in P.
    #[test]
    fn theorem2_processor_count_is_stationary(
        lambda in 1e-11f64..1e-7,
        f in 0.01f64..0.99,
        alpha in 0.01f64..0.5,
        c in 0.01f64..5.0,
        v in 0.0f64..100.0,
    ) {
        let model = ExactModel::new(
            SpeedupProfile::amdahl(alpha).unwrap(),
            ResilienceCosts::new(CheckpointCost::linear(c), VerificationCost::constant(v), 0.0).unwrap(),
            FailureModel::new(lambda, f).unwrap(),
        );
        let fo = FirstOrder::new(&model);
        let optimum = fo.theorem2_optimum().unwrap();
        // Theorem 2 assumes the linear checkpoint cost dominates the (constant)
        // verification cost at the optimum; require that dominance, otherwise the
        // closed form is (by design) only asymptotically exact.
        prop_assume!(c * optimum.processors > 10.0 * v);
        let envelope = |p: f64| fo.optimal_period_for(p).overhead;
        let best = envelope(optimum.processors);
        prop_assert!(envelope(optimum.processors * 1.1) >= best - 1e-12);
        prop_assert!(envelope(optimum.processors * 0.9) >= best - 1e-12);
    }

    /// The probability helper is a genuine probability and the expected time lost
    /// to an interrupted window stays inside the window.
    #[test]
    fn failure_helpers_are_well_behaved(rate in 0.0f64..1e-2, w in 0.0f64..1e6) {
        let q = failure::probability_of_error(rate, w);
        prop_assert!((0.0..=1.0).contains(&q));
        if w > 0.0 && rate > 0.0 {
            let lost = failure::expected_time_lost(rate, w);
            prop_assert!(lost > 0.0 && lost < w, "lost={lost} w={w}");
        }
    }

    /// Golden-section and Brent agree on random shifted quadratics in log-space.
    #[test]
    fn scalar_minimisers_agree_on_quadratics(center in 1.0f64..1e6, scale in 0.1f64..10.0) {
        let f = |x: f64| scale * (x.ln() - center.ln()).powi(2) + 1.0;
        let (xg, _) = golden_section(1e-3, 1e9, 1e-12, 400, f);
        let (xb, _) = brent_minimize(1e-3, 1e9, 1e-12, 400, f);
        prop_assert!((xg - center).abs() / center < 1e-3, "golden {xg} vs {center}");
        prop_assert!((xb - center).abs() / center < 1e-3, "brent {xb} vs {center}");
    }

    /// Parallel-merge statistics are identical to sequential accumulation for any
    /// split point.
    #[test]
    fn running_stats_merge_is_associative(values in prop::collection::vec(-1e3f64..1e3, 2..200), split in 0usize..200) {
        let split = split.min(values.len());
        let mut all = RunningStats::new();
        for &v in &values { all.push(v); }
        let mut left = RunningStats::new();
        let mut right = RunningStats::new();
        for &v in &values[..split] { left.push(v); }
        for &v in &values[split..] { right.push(v); }
        left.merge(&right);
        prop_assert_eq!(left.count(), all.count());
        prop_assert!((left.mean() - all.mean()).abs() < 1e-9);
        prop_assert!((left.variance() - all.variance()).abs() < 1e-6);
    }

    /// Scenario fitting reproduces the measured costs at the measured processor
    /// count for every platform, scenario and downtime.
    #[test]
    fn scenario_fit_reproduces_measurements(
        platform_index in 0usize..4,
        scenario_index in 0usize..6,
        downtime in 0.0f64..1e5,
    ) {
        let platform = Platform::get(PlatformId::ALL[platform_index]);
        let scenario = Scenario::get(ScenarioId::ALL[scenario_index]);
        let costs = scenario.fit(&platform, downtime).unwrap();
        let p = platform.measured_processors as f64;
        prop_assert!((costs.checkpoint_at(p) - platform.measured_checkpoint).abs() < 1e-9);
        prop_assert!((costs.verification_at(p) - platform.measured_verification).abs() < 1e-9);
        prop_assert!((costs.downtime - downtime).abs() < 1e-12);
    }

    /// Amdahl speedup is bounded by `1/α`, is at least 1, and increases with P.
    #[test]
    fn amdahl_speedup_bounds(alpha in 0.001f64..1.0, p in 1.0f64..1e9, factor in 1.01f64..100.0) {
        let profile = SpeedupProfile::amdahl(alpha).unwrap();
        let s = profile.speedup(p);
        prop_assert!(s >= 1.0 - 1e-12);
        prop_assert!(s <= 1.0 / alpha + 1e-9);
        prop_assert!(profile.speedup(p * factor) >= s - 1e-12);
    }
}

/// Strategy for one arbitrary (valid) speedup profile, covering all four
/// families with a shared in-range parameter.
fn arb_profile() -> impl Strategy<Value = SpeedupProfile> {
    (0usize..4, 0.05f64..1.0).prop_map(|(kind, param)| match kind {
        0 => SpeedupProfile::Amdahl { alpha: param },
        1 => SpeedupProfile::PerfectlyParallel,
        2 => SpeedupProfile::PowerLaw { sigma: param },
        _ => SpeedupProfile::Gustafson { alpha: param },
    })
}

proptest! {
    // Sweep determinism needs several executor runs per case: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sweep determinism contract, analytic half: for any grid — including a
    /// mixed speedup-profile axis — and seed, the sweep CSV bytes are
    /// identical for 1, 2 and 8 worker threads, and with the memoisation
    /// cache disabled.
    #[test]
    fn sweep_csv_is_invariant_under_threads_and_cache(
        seed in 0u64..1_000,
        scenario_index in 0usize..6,
        profiles in prop::collection::vec(arb_profile(), 1..4),
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
        let reference = SweepExecutor::new(SweepOptions::new(run).with_threads(1))
            .run(&grid)
            .to_csv();
        for threads in [2usize, 8] {
            let csv = SweepExecutor::new(SweepOptions::new(run).with_threads(threads))
                .run(&grid)
                .to_csv();
            prop_assert_eq!(&reference, &csv);
        }
        let uncached = SweepExecutor::new(
            SweepOptions::new(run).with_cache_capacity(None).with_threads(8),
        )
        .run(&grid)
        .to_csv();
        prop_assert_eq!(&reference, &uncached);
    }
}

proptest! {
    // Simulation-backed properties are more expensive: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The simulated overhead of any configuration is at least the error-free
    /// overhead and, in expectation, close to the analytical prediction.
    #[test]
    fn simulation_respects_error_free_floor(
        model in arb_model(),
        t in 600.0f64..50_000.0,
        p in 8.0f64..5_000.0,
        seed in 0u64..1_000,
    ) {
        // Keep the per-pattern error expectation moderate so the test stays fast.
        prop_assume!(model.failures.total_rate(p) * (t + model.costs.checkpoint_plus_verification_at(p)) < 2.0);
        let params = PatternParams::from_model(&model, t, p);
        let config = SimulationConfig { runs: 4, patterns_per_run: 20, seed, ..Default::default() };
        let stats = ayd_sim::batch::simulate_params(&params, &config);
        prop_assert!(stats.mean >= params.error_free_overhead() - 1e-12);
        let predicted = model.expected_overhead(t, p);
        prop_assume!(predicted.is_finite());
        // 4x20 patterns is noisy; just require the right order of magnitude.
        prop_assert!(stats.mean < predicted * 3.0 + 1.0);
    }
}

/// Removes the `profile`/`profile_param` columns from every line of a sweep
/// CSV, leaving the rest byte-for-byte intact.
fn strip_profile_columns(csv: &str) -> String {
    csv.lines()
        .map(|line| {
            let fields: Vec<&str> = line.split(',').collect();
            let mut kept: Vec<&str> = Vec::with_capacity(fields.len() - 2);
            kept.extend(&fields[..3]); // platform, scenario, alpha
            kept.extend(&fields[5..]); // everything after profile_param
            kept.join(",")
        })
        .collect::<Vec<String>>()
        .join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `amdahl:0.0` and `perfect` describe the same application: a grid swept
    /// with one is row-for-row bit-identical to the other modulo the profile
    /// columns, for any worker-thread count and with the cache on or off.
    #[test]
    fn amdahl_zero_sweeps_bit_identical_to_perfect(
        seed in 0u64..1_000,
        scenario_index in 0usize..6,
        threads_index in 0usize..3,
        cache_switch in 0usize..2,
        processors in prop::collection::vec(64.0f64..4_096.0, 1..3),
    ) {
        let threads = [1usize, 2, 8][threads_index];
        let cache = cache_switch == 1;
        let grid_for = |profile: SpeedupProfile| {
            ScenarioGrid::builder()
                .scenarios(&[ScenarioId::ALL[scenario_index]])
                .profiles(&[profile])
                .lambda_multipliers(&[1.0, 10.0])
                .processors(ProcessorAxis::Fixed(processors.clone()))
                .build()
                .unwrap()
        };
        let run = ayd_sweep::RunOptions {
            seed,
            simulate: false,
            ..ayd_sweep::RunOptions::smoke()
        };
        let options = SweepOptions::new(run)
            .with_threads(threads)
            .with_cache_capacity(cache.then_some(1024));
        let amdahl_zero = SweepExecutor::new(options)
            .run(&grid_for(SpeedupProfile::Amdahl { alpha: 0.0 }));
        let perfect = SweepExecutor::new(options)
            .run(&grid_for(SpeedupProfile::PerfectlyParallel));
        prop_assert_eq!(amdahl_zero.rows.len(), perfect.rows.len());
        for (a, p) in amdahl_zero.rows.iter().zip(&perfect.rows) {
            // Identical modulo the profile field itself…
            let mut normalized = p.clone();
            normalized.profile = a.profile;
            prop_assert_eq!(a, &normalized);
            // …including the Amdahl-equivalent alpha column (both are 0).
            prop_assert_eq!(a.alpha, Some(0.0));
            prop_assert_eq!(p.alpha, Some(0.0));
        }
        // And the CSV bytes agree once the two profile columns are spliced out.
        prop_assert_eq!(
            strip_profile_columns(&amdahl_zero.to_csv()),
            strip_profile_columns(&perfect.to_csv())
        );
    }
}

/// The kernel's edge cases, each against the component path: the `λ_f = 0`
/// branches (`f = 0`), no silent errors (`f = 1`), the overflowing tail, and
/// the `0 · ∞` NaN of `E(C_P)` when `C_P = 0`.
#[test]
fn model_at_matches_the_component_path_on_its_edge_cases() {
    let model = |lambda: f64, f: f64, checkpoint: CheckpointCost| {
        ExactModel::new(
            SpeedupProfile::amdahl(0.1).unwrap(),
            ResilienceCosts::new(checkpoint, VerificationCost::constant(15.4), 3600.0).unwrap(),
            FailureModel::new(lambda, f).unwrap(),
        )
    };
    let hera_costs = CheckpointCost::linear(300.0 / 512.0);
    let finite_points = [(600.0, 64.0), (6_600.0, 207.0), (50_000.0, 4_096.0)];
    for f in [0.0, 1.0] {
        let m = model(1.69e-8, f, hera_costs);
        for (t, p) in finite_points {
            for (kernel, components) in kernel_and_components(&m, t, p) {
                assert!(kernel.is_finite(), "f={f} T={t} P={p}");
                assert_eq!(kernel.to_bits(), components.to_bits(), "f={f} T={t} P={p}");
            }
        }
    }

    // λ_P T ≈ 1690: every T-dependent exponential overflows.
    let hera = model(1.69e-8, 0.2188, hera_costs);
    for (kernel, components) in kernel_and_components(&hera, 1e8, 1_000.0) {
        assert_eq!(kernel, f64::INFINITY);
        assert_eq!(components, f64::INFINITY);
    }

    // C_P = 0 and λ_f (T + V) + λ_s T ≈ 705: E(T+V)'s first term overflows,
    // its second, (e^705 − 1) · E(R_P) with E(R_P) = 0, does not, and
    // E(C_P) = (e^0 − 1) · ∞ is NaN on both paths.
    let free_checkpoints = model(1e-6, 0.5, CheckpointCost::constant(0.0));
    let (t, p) = (705_000.0, 1_000.0);
    assert_eq!(
        free_checkpoints.expected_work_and_verification_time(t, p),
        f64::INFINITY
    );
    assert!(free_checkpoints.expected_checkpoint_time(t, p).is_nan());
    for (kernel, components) in kernel_and_components(&free_checkpoints, t, p) {
        assert!(
            kernel.is_nan() && components.is_nan(),
            "{kernel} vs {components}"
        );
    }
}

/// Sweep determinism contract, simulation half: with simulation enabled the
/// CSV bytes are still identical across 1/2/8 worker threads and with the
/// cache disabled — simulations are seeded per cell index, never per thread.
/// A different base seed, by contrast, must change the simulated bytes.
#[test]
fn simulating_sweep_is_thread_count_and_cache_invariant() {
    let grid = ScenarioGrid::builder()
        .scenarios(&[ScenarioId::S1, ScenarioId::S5])
        .lambda_multipliers(&[1.0, 20.0])
        .processors(ProcessorAxis::Fixed(vec![400.0]))
        .build()
        .unwrap();
    let run = ayd_sweep::RunOptions::smoke();
    let csv = |options: SweepOptions| SweepExecutor::new(options).run(&grid).to_csv();
    let reference = csv(SweepOptions::new(run).with_threads(1));
    assert!(reference.contains(','), "sanity: rows were produced");
    for threads in [2usize, 8] {
        assert_eq!(reference, csv(SweepOptions::new(run).with_threads(threads)));
    }
    assert_eq!(
        reference,
        csv(SweepOptions::new(run)
            .with_cache_capacity(None)
            .with_threads(8))
    );
    let reseeded = ayd_sweep::RunOptions {
        seed: run.seed + 1,
        ..run
    };
    assert_ne!(reference, csv(SweepOptions::new(reseeded).with_threads(8)));
}
