//! Simulation of one application run: a sequence of committed patterns.
//!
//! The paper's experiments execute each configuration for "at least 500 patterns"
//! per run and average over 500 runs. [`simulate_run`] executes one run: it
//! commits a fixed number of patterns, accumulates the elapsed wall-clock time
//! and the error counts, and reports the achieved execution overhead — the ratio
//! of the elapsed time to the amount of sequential work accomplished (which is
//! the simulated counterpart of `H(PATTERN)`).

use rand::rngs::StdRng;

use crate::engine::{PatternEngine, PatternOutcome};
use crate::params::PatternParams;

/// Aggregate result of one application run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// Number of patterns committed.
    pub patterns: u64,
    /// Total wall-clock time elapsed (seconds), including all rollbacks,
    /// recoveries and downtimes.
    pub total_time: f64,
    /// Total useful work accomplished, in seconds of sequential computation
    /// (`patterns · T · S(P)`).
    pub work_done: f64,
    /// Achieved execution overhead: `total_time / work_done`. This is the
    /// simulated estimate of `H(PATTERN)` that the paper's figures report.
    pub overhead: f64,
    /// Accumulated event counters over the whole run.
    pub events: PatternOutcome,
}

/// Executes one run of `patterns` committed patterns with the given engine and
/// RNG, and returns the aggregate result.
///
/// # Panics
/// Panics if `patterns` is zero.
pub fn simulate_run<E: PatternEngine>(
    engine: &mut E,
    params: &PatternParams,
    patterns: u64,
    rng: &mut StdRng,
) -> RunResult {
    assert!(patterns > 0, "a run must commit at least one pattern");
    engine.reset();
    let mut events = PatternOutcome::default();
    for _ in 0..patterns {
        let outcome = engine.execute_pattern(params, rng);
        events.accumulate(&outcome);
    }
    let work_done = params.work_per_pattern * patterns as f64;
    RunResult {
        patterns,
        total_time: events.time,
        work_done,
        overhead: events.time / work_done,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::WindowSamplingEngine;
    use crate::rng::rng_for_replicate;
    use crate::stream::EventStreamEngine;

    fn params(lambda_f: f64, lambda_s: f64) -> PatternParams {
        PatternParams {
            work: 6_000.0,
            verification: 15.4,
            checkpoint: 300.0,
            recovery: 300.0,
            downtime: 3600.0,
            lambda_fail_stop: lambda_f,
            lambda_silent: lambda_s,
            work_per_pattern: 6_000.0 * (1.0 / (0.1 + 0.9 / 512.0)),
        }
    }

    #[test]
    fn error_free_run_has_exactly_the_error_free_overhead() {
        let p = params(0.0, 0.0);
        let mut engine = WindowSamplingEngine::new();
        let mut rng = rng_for_replicate(1, 0);
        let result = simulate_run(&mut engine, &p, 100, &mut rng);
        assert_eq!(result.patterns, 100);
        assert!((result.total_time - 100.0 * p.error_free_duration()).abs() < 1e-6);
        assert!((result.overhead - p.error_free_overhead()).abs() < 1e-12);
        assert_eq!(result.events.fail_stop_errors, 0);
    }

    #[test]
    fn overhead_definition_is_time_per_unit_work() {
        let p = params(2e-6, 7e-6);
        let mut engine = WindowSamplingEngine::new();
        let mut rng = rng_for_replicate(2, 0);
        let result = simulate_run(&mut engine, &p, 200, &mut rng);
        assert!((result.overhead - result.total_time / result.work_done).abs() < 1e-15);
        assert!(result.overhead > p.error_free_overhead());
    }

    #[test]
    fn longer_runs_accumulate_more_events() {
        let p = params(5e-6, 1e-5);
        let mut engine = EventStreamEngine::new();
        let mut rng = rng_for_replicate(3, 0);
        let short = simulate_run(&mut engine, &p, 50, &mut rng);
        let mut rng = rng_for_replicate(3, 0);
        let long = simulate_run(&mut engine, &p, 500, &mut rng);
        assert!(long.total_time > short.total_time);
        assert!(
            long.events.fail_stop_errors + long.events.silent_errors_detected
                >= short.events.fail_stop_errors + short.events.silent_errors_detected
        );
    }

    #[test]
    fn same_seed_reproduces_the_run_exactly() {
        let p = params(3e-6, 9e-6);
        let mut engine = WindowSamplingEngine::new();
        let mut rng_a = rng_for_replicate(55, 4);
        let mut rng_b = rng_for_replicate(55, 4);
        let a = simulate_run(&mut engine, &p, 300, &mut rng_a);
        let b = simulate_run(&mut engine, &p, 300, &mut rng_b);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one pattern")]
    fn rejects_zero_pattern_runs() {
        let p = params(0.0, 0.0);
        let mut engine = WindowSamplingEngine::new();
        let mut rng = rng_for_replicate(1, 0);
        let _ = simulate_run(&mut engine, &p, 0, &mut rng);
    }
}
