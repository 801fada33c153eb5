//! Parallel batch replication of simulation runs.
//!
//! The paper averages 500 independent runs of at least 500 patterns each for
//! every data point. [`Simulator`] performs that replication, spreading runs over
//! worker threads (std scoped threads) while keeping results bit-for-bit
//! reproducible: each run derives its RNG from `(base seed, run index)` only, so
//! the outcome does not depend on how runs are scheduled across threads.

use std::sync::Mutex;

use ayd_core::ExactModel;

use crate::engine::{PatternOutcome, WindowSamplingEngine};
use crate::law::ArrivalLaw;
use crate::params::PatternParams;
use crate::rng::rng_for_replicate;
use crate::run::simulate_run;
use crate::stats::RunningStats;
use crate::stream::EventStreamEngine;
use crate::EngineKind;

/// Configuration of a batch of simulation runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationConfig {
    /// Number of independent runs (the paper uses 500).
    pub runs: u64,
    /// Number of committed patterns per run (the paper uses at least 500).
    pub patterns_per_run: u64,
    /// Base seed; each run derives its own deterministic stream from it.
    pub seed: u64,
    /// Which engine to use.
    pub engine: EngineKind,
    /// Number of worker threads (`None` = all available cores).
    pub threads: Option<usize>,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self {
            runs: 100,
            patterns_per_run: 200,
            seed: 0x5EED_A1D0_2016,
            engine: EngineKind::WindowSampling,
            threads: None,
        }
    }
}

impl SimulationConfig {
    /// The replication scale used in the paper: 500 runs × 500 patterns.
    pub fn paper_scale() -> Self {
        Self {
            runs: 500,
            patterns_per_run: 500,
            ..Self::default()
        }
    }

    /// A light profile for quick smoke tests and benches.
    pub fn quick() -> Self {
        Self {
            runs: 30,
            patterns_per_run: 60,
            ..Self::default()
        }
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with an explicit worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }
}

/// Aggregated overhead statistics of a batch of runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadStats {
    /// Mean execution overhead across runs (the simulated `H(PATTERN)`).
    pub mean: f64,
    /// Standard deviation of the per-run overheads.
    pub std_dev: f64,
    /// Half-width of the 95% confidence interval of the mean.
    pub ci95: f64,
    /// Smallest per-run overhead observed.
    pub min: f64,
    /// Largest per-run overhead observed.
    pub max: f64,
    /// Number of runs.
    pub runs: u64,
    /// Total number of fail-stop errors injected across all runs.
    pub fail_stop_errors: u64,
    /// Total number of silent errors detected across all runs.
    pub silent_errors_detected: u64,
    /// Total number of silent errors masked by fail-stop errors.
    pub silent_errors_masked: u64,
}

/// Parallel batch simulator bound to an exact analytical model.
#[derive(Debug, Clone, Copy)]
pub struct Simulator {
    /// The model whose operating points are simulated.
    pub model: ExactModel,
}

impl Simulator {
    /// Creates a simulator for the given model.
    pub fn new(model: ExactModel) -> Self {
        Self { model }
    }

    /// Simulates the execution overhead of the pattern `(t, p)` under the given
    /// batch configuration.
    pub fn simulate_overhead(&self, t: f64, p: f64, config: &SimulationConfig) -> OverheadStats {
        let params = PatternParams::from_model(&self.model, t, p);
        simulate_params(&params, config)
    }

    /// Like [`Self::simulate_overhead`], but with failure inter-arrivals drawn
    /// from `law` instead of the exponential. The memoryless exponential law
    /// takes exactly the same code path as [`Self::simulate_overhead`] (so the
    /// results are bit-identical); any other law is routed to the event-stream
    /// engine regardless of `config.engine`, because the window engine's
    /// per-attempt redraw is exact only under memorylessness.
    pub fn simulate_overhead_with_law(
        &self,
        t: f64,
        p: f64,
        config: &SimulationConfig,
        law: &ArrivalLaw,
    ) -> OverheadStats {
        let params = PatternParams::from_model(&self.model, t, p);
        simulate_params_with_law(&params, config, law)
    }

    /// Convenience: simulated overhead using the first-order optimal period for
    /// the given processor count (Theorem 1).
    pub fn simulate_at_first_order_period(
        &self,
        p: f64,
        config: &SimulationConfig,
    ) -> OverheadStats {
        let period = ayd_core::FirstOrder::new(&self.model)
            .optimal_period_for(p)
            .period;
        self.simulate_overhead(period, p, config)
    }
}

/// Simulates a batch directly from flattened pattern parameters.
pub fn simulate_params(params: &PatternParams, config: &SimulationConfig) -> OverheadStats {
    simulate_params_with_law(params, config, &ArrivalLaw::Exponential)
}

/// Simulates a batch under an arbitrary failure inter-arrival law.
///
/// Non-memoryless laws always run on the event-stream engine (whose persistent
/// countdowns implement a correct renewal process); `config.engine` is honoured
/// only for the exponential law, where both engines are exact.
pub fn simulate_params_with_law(
    params: &PatternParams,
    config: &SimulationConfig,
    law: &ArrivalLaw,
) -> OverheadStats {
    assert!(config.runs > 0, "at least one run is required");
    let workers = config
        .threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .clamp(1, config.runs as usize);

    // Per-run results are collected with their run index and aggregated in run
    // order afterwards, so the statistics are bit-for-bit identical regardless of
    // how runs were scheduled across worker threads.
    let next_run = std::sync::atomic::AtomicU64::new(0);
    let collected: Mutex<Vec<(u64, f64, PatternOutcome)>> =
        Mutex::new(Vec::with_capacity(config.runs as usize));

    // Panics in workers propagate when the scope joins them at the end.
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut local: Vec<(u64, f64, PatternOutcome)> = Vec::new();
                loop {
                    let run = next_run.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if run >= config.runs {
                        break;
                    }
                    let mut rng = rng_for_replicate(config.seed, run);
                    let result = if law.is_memoryless() {
                        match config.engine {
                            EngineKind::WindowSampling => {
                                let mut engine = WindowSamplingEngine::new();
                                simulate_run(&mut engine, params, config.patterns_per_run, &mut rng)
                            }
                            EngineKind::EventStream => {
                                let mut engine = EventStreamEngine::new();
                                simulate_run(&mut engine, params, config.patterns_per_run, &mut rng)
                            }
                        }
                    } else {
                        let mut engine = EventStreamEngine::with_law(law.clone());
                        simulate_run(&mut engine, params, config.patterns_per_run, &mut rng)
                    };
                    local.push((run, result.overhead, result.events));
                }
                collected.lock().expect("collector poisoned").extend(local);
            });
        }
    });

    let mut per_run = collected.into_inner().expect("collector poisoned");
    per_run.sort_unstable_by_key(|(run, _, _)| *run);
    let mut stats = RunningStats::new();
    let mut events = PatternOutcome::default();
    for (_, overhead, run_events) in &per_run {
        stats.push(*overhead);
        events.accumulate(run_events);
    }
    OverheadStats {
        mean: stats.mean(),
        std_dev: stats.std_dev(),
        ci95: stats.ci95_half_width(),
        min: stats.min(),
        max: stats.max(),
        runs: stats.count(),
        fail_stop_errors: events.fail_stop_errors,
        silent_errors_detected: events.silent_errors_detected,
        silent_errors_masked: events.silent_errors_masked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ayd_core::{
        CheckpointCost, FailureModel, FirstOrder, ResilienceCosts, SpeedupProfile, VerificationCost,
    };

    fn hera_scenario1() -> ExactModel {
        ExactModel::new(
            SpeedupProfile::amdahl(0.1).unwrap(),
            ResilienceCosts::new(
                CheckpointCost::linear(300.0 / 512.0),
                VerificationCost::constant(15.4),
                3600.0,
            )
            .unwrap(),
            FailureModel::new(1.69e-8, 0.2188).unwrap(),
        )
    }

    #[test]
    fn simulated_overhead_matches_analytical_prediction() {
        let model = hera_scenario1();
        let sim = Simulator::new(model);
        let (t, p) = (6_000.0, 400.0);
        let config = SimulationConfig {
            runs: 60,
            patterns_per_run: 150,
            ..Default::default()
        };
        let stats = sim.simulate_overhead(t, p, &config);
        let predicted = model.expected_overhead(t, p);
        let rel = (stats.mean - predicted).abs() / predicted;
        assert!(
            rel < 0.03,
            "simulated {} vs predicted {} (rel {rel})",
            stats.mean,
            predicted
        );
        assert_eq!(stats.runs, 60);
        assert!(stats.min <= stats.mean && stats.mean <= stats.max);
    }

    #[test]
    fn results_are_reproducible_and_thread_count_independent() {
        let model = hera_scenario1();
        let sim = Simulator::new(model);
        let base = SimulationConfig {
            runs: 24,
            patterns_per_run: 80,
            ..Default::default()
        };
        let one_thread = sim.simulate_overhead(5_000.0, 512.0, &base.with_threads(1));
        let many_threads = sim.simulate_overhead(5_000.0, 512.0, &base.with_threads(8));
        assert_eq!(one_thread.mean, many_threads.mean);
        assert_eq!(one_thread.std_dev, many_threads.std_dev);
        assert_eq!(one_thread.fail_stop_errors, many_threads.fail_stop_errors);
    }

    #[test]
    fn different_seeds_give_different_but_close_results() {
        let model = hera_scenario1();
        let sim = Simulator::new(model);
        let config = SimulationConfig {
            runs: 40,
            patterns_per_run: 100,
            ..Default::default()
        };
        let a = sim.simulate_overhead(6_000.0, 400.0, &config.with_seed(1));
        let b = sim.simulate_overhead(6_000.0, 400.0, &config.with_seed(2));
        assert_ne!(a.mean, b.mean);
        assert!((a.mean - b.mean).abs() / a.mean < 0.05);
    }

    #[test]
    fn both_engines_agree_within_confidence_intervals() {
        let model = hera_scenario1();
        let sim = Simulator::new(model);
        let config = SimulationConfig {
            runs: 50,
            patterns_per_run: 120,
            ..Default::default()
        };
        let window = sim.simulate_overhead(6_000.0, 400.0, &config);
        let stream_config = SimulationConfig {
            engine: EngineKind::EventStream,
            ..config
        };
        let stream = sim.simulate_overhead(6_000.0, 400.0, &stream_config);
        let gap = (window.mean - stream.mean).abs();
        assert!(
            gap < 3.0 * (window.ci95 + stream.ci95),
            "window={} stream={} gap={gap}",
            window.mean,
            stream.mean
        );
    }

    #[test]
    fn first_order_period_helper_matches_explicit_call() {
        let model = hera_scenario1();
        let sim = Simulator::new(model);
        let config = SimulationConfig {
            runs: 10,
            patterns_per_run: 50,
            ..Default::default()
        };
        let p = 400.0;
        let period = FirstOrder::new(&model).optimal_period_for(p).period;
        let a = sim.simulate_at_first_order_period(p, &config);
        let b = sim.simulate_overhead(period, p, &config);
        assert_eq!(a.mean, b.mean);
    }

    #[test]
    fn error_counts_scale_with_error_rate() {
        let model = hera_scenario1();
        let sim_low = Simulator::new(model);
        let sim_high =
            Simulator::new(model.with_failures(FailureModel::new(1.69e-7, 0.2188).unwrap()));
        let config = SimulationConfig {
            runs: 20,
            patterns_per_run: 60,
            ..Default::default()
        };
        let low = sim_low.simulate_overhead(6_000.0, 512.0, &config);
        let high = sim_high.simulate_overhead(6_000.0, 512.0, &config);
        assert!(
            high.fail_stop_errors + high.silent_errors_detected
                > low.fail_stop_errors + low.silent_errors_detected
        );
        assert!(high.mean > low.mean);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_rejected() {
        let model = hera_scenario1();
        let sim = Simulator::new(model);
        let config = SimulationConfig {
            runs: 0,
            ..Default::default()
        };
        let _ = sim.simulate_overhead(1_000.0, 10.0, &config);
    }
}
