//! Window-sampling simulation engine.
//!
//! For each attempt of each phase the engine draws the time to the next fail-stop
//! error (exponential with the platform rate) and, for computation phases, whether
//! a silent error strikes within the chunk. Because exponential inter-arrival
//! times are memoryless, re-drawing at every attempt is statistically identical to
//! maintaining a persistent arrival process (which is what
//! [`crate::stream::EventStreamEngine`] does); the two engines cross-validate each
//! other.

use rand::rngs::StdRng;

use crate::params::PatternParams;
use crate::rng::sample_exponential;

/// Outcome of executing one pattern until its checkpoint commits.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PatternOutcome {
    /// Wall-clock time elapsed until the checkpoint committed (seconds).
    pub time: f64,
    /// Number of fail-stop errors that struck (in any phase).
    pub fail_stop_errors: u64,
    /// Number of silent errors that were detected by the verification.
    pub silent_errors_detected: u64,
    /// Number of silent errors that struck but were masked by a later fail-stop
    /// error within the same attempt (the rollback discarded the corruption).
    pub silent_errors_masked: u64,
    /// Number of recovery attempts (including those interrupted by further
    /// fail-stop errors).
    pub recovery_attempts: u64,
}

impl PatternOutcome {
    /// Merges another outcome into this one (summing counters and times).
    pub fn accumulate(&mut self, other: &PatternOutcome) {
        self.time += other.time;
        self.fail_stop_errors += other.fail_stop_errors;
        self.silent_errors_detected += other.silent_errors_detected;
        self.silent_errors_masked += other.silent_errors_masked;
        self.recovery_attempts += other.recovery_attempts;
    }
}

/// A simulation engine able to execute one pattern and report its outcome.
pub trait PatternEngine {
    /// Executes one pattern (until its checkpoint commits) and returns the
    /// elapsed time and event counts.
    fn execute_pattern(&mut self, params: &PatternParams, rng: &mut StdRng) -> PatternOutcome;

    /// Resets any internal state (arrival countdowns, ...) so the engine can be
    /// reused for an independent run.
    fn reset(&mut self) {}
}

/// The default engine: independent exponential draws per attempt window.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowSamplingEngine;

impl WindowSamplingEngine {
    /// Creates the engine.
    pub fn new() -> Self {
        Self
    }

    /// Executes a successful-or-retried recovery sequence: keeps attempting the
    /// recovery of length `R`, paying a downtime after each fail-stop error that
    /// interrupts it, until one attempt completes.
    fn run_recovery(params: &PatternParams, rng: &mut StdRng, outcome: &mut PatternOutcome) -> f64 {
        let mut elapsed = 0.0;
        loop {
            outcome.recovery_attempts += 1;
            let next_failure = sample_exponential(rng, params.lambda_fail_stop);
            if next_failure < params.recovery {
                outcome.fail_stop_errors += 1;
                elapsed += next_failure + params.downtime;
            } else {
                elapsed += params.recovery;
                return elapsed;
            }
        }
    }
}

impl PatternEngine for WindowSamplingEngine {
    fn execute_pattern(&mut self, params: &PatternParams, rng: &mut StdRng) -> PatternOutcome {
        let mut outcome = PatternOutcome::default();
        let work_and_verification = params.work + params.verification;
        // Outer loop: re-entered when a fail-stop error interrupts the checkpoint.
        'pattern: loop {
            // Inner loop: execute T + V until both complete without a fail-stop
            // error and without a detected silent error.
            'work: loop {
                let next_failure = sample_exponential(rng, params.lambda_fail_stop);
                // Time of the first silent error within this attempt's computation
                // (silent errors strike only during the `T` part, never during the
                // verification).
                let next_silent = sample_exponential(rng, params.lambda_silent);
                if next_failure < work_and_verification {
                    // Fail-stop error: immediate interruption, downtime, recovery.
                    outcome.fail_stop_errors += 1;
                    if next_silent < next_failure.min(params.work) {
                        // A silent error had already corrupted the data, but the
                        // rollback caused by the fail-stop error discards it.
                        outcome.silent_errors_masked += 1;
                    }
                    outcome.time += next_failure + params.downtime;
                    outcome.time += Self::run_recovery(params, rng, &mut outcome);
                    continue 'work;
                }
                // No fail-stop error: the whole T + V executed.
                outcome.time += work_and_verification;
                if next_silent < params.work {
                    // Detected by the verification: recovery (no downtime), retry.
                    outcome.silent_errors_detected += 1;
                    outcome.time += Self::run_recovery(params, rng, &mut outcome);
                    continue 'work;
                }
                break 'work;
            }
            // Checkpoint attempt.
            let next_failure = sample_exponential(rng, params.lambda_fail_stop);
            if next_failure < params.checkpoint {
                outcome.fail_stop_errors += 1;
                outcome.time += next_failure + params.downtime;
                outcome.time += Self::run_recovery(params, rng, &mut outcome);
                // The whole pattern (T + V, then C) must be re-executed.
                continue 'pattern;
            }
            outcome.time += params.checkpoint;
            return outcome;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_for_replicate;

    fn params(lambda_f: f64, lambda_s: f64) -> PatternParams {
        PatternParams {
            work: 6_000.0,
            verification: 15.4,
            checkpoint: 300.0,
            recovery: 300.0,
            downtime: 3600.0,
            lambda_fail_stop: lambda_f,
            lambda_silent: lambda_s,
            work_per_pattern: 6_000.0 * 9.83,
        }
    }

    #[test]
    fn error_free_pattern_takes_exactly_the_raw_time() {
        let mut engine = WindowSamplingEngine::new();
        let mut rng = rng_for_replicate(1, 1);
        let p = params(0.0, 0.0);
        let out = engine.execute_pattern(&p, &mut rng);
        assert_eq!(out.time, p.error_free_duration());
        assert_eq!(out.fail_stop_errors, 0);
        assert_eq!(out.silent_errors_detected, 0);
        assert_eq!(out.recovery_attempts, 0);
    }

    #[test]
    fn time_is_never_below_error_free_duration() {
        let mut engine = WindowSamplingEngine::new();
        let mut rng = rng_for_replicate(2, 0);
        let p = params(1e-5, 3e-5);
        for _ in 0..2_000 {
            let out = engine.execute_pattern(&p, &mut rng);
            assert!(out.time >= p.error_free_duration() - 1e-9);
        }
    }

    #[test]
    fn every_fail_stop_error_costs_a_downtime() {
        // With a large downtime, total time must be at least
        // error-free + fail_stop_errors * downtime.
        let mut engine = WindowSamplingEngine::new();
        let mut rng = rng_for_replicate(3, 0);
        let p = params(5e-5, 0.0);
        for _ in 0..500 {
            let out = engine.execute_pattern(&p, &mut rng);
            assert!(
                out.time + 1e-6
                    >= p.error_free_duration() + out.fail_stop_errors as f64 * p.downtime
            );
        }
    }

    #[test]
    fn silent_only_configuration_detects_or_commits() {
        let mut engine = WindowSamplingEngine::new();
        let mut rng = rng_for_replicate(4, 0);
        let p = params(0.0, 1e-4);
        let mut detected = 0;
        for _ in 0..500 {
            let out = engine.execute_pattern(&p, &mut rng);
            assert_eq!(out.fail_stop_errors, 0);
            assert_eq!(out.silent_errors_masked, 0);
            detected += out.silent_errors_detected;
            // Every detected silent error triggers exactly one recovery sequence,
            // and with λ_f = 0 each sequence is a single attempt.
            assert_eq!(out.recovery_attempts, out.silent_errors_detected);
        }
        assert!(
            detected > 0,
            "with this rate some silent errors must strike"
        );
    }

    #[test]
    fn masked_silent_errors_only_appear_alongside_fail_stop_errors() {
        let mut engine = WindowSamplingEngine::new();
        let mut rng = rng_for_replicate(5, 0);
        let p = params(1e-4, 1e-4);
        for _ in 0..500 {
            let out = engine.execute_pattern(&p, &mut rng);
            if out.silent_errors_masked > 0 {
                assert!(out.fail_stop_errors > 0);
            }
        }
    }

    #[test]
    fn mean_time_matches_analytical_expectation() {
        // Cross-check the engine against Proposition 1 on a Hera-like setting.
        use ayd_core::{
            CheckpointCost, ExactModel, FailureModel, ResilienceCosts, SpeedupProfile,
            VerificationCost,
        };
        let model = ExactModel::new(
            SpeedupProfile::amdahl(0.1).unwrap(),
            ResilienceCosts::new(
                CheckpointCost::linear(300.0 / 512.0),
                VerificationCost::constant(15.4),
                3600.0,
            )
            .unwrap(),
            FailureModel::new(1.69e-8, 0.2188).unwrap(),
        );
        let (t, p) = (6_000.0, 512.0);
        let params = crate::params::PatternParams::from_model(&model, t, p);
        let expected = model.expected_pattern_time(t, p);
        let mut engine = WindowSamplingEngine::new();
        let mut rng = rng_for_replicate(99, 3);
        let n = 40_000;
        let mean: f64 = (0..n)
            .map(|_| engine.execute_pattern(&params, &mut rng).time)
            .sum::<f64>()
            / n as f64;
        let rel = (mean - expected).abs() / expected;
        assert!(
            rel < 0.01,
            "simulated mean {mean} vs analytical {expected} (rel {rel})"
        );
    }

    #[test]
    fn accumulate_sums_fields() {
        let a = PatternOutcome {
            time: 10.0,
            fail_stop_errors: 1,
            silent_errors_detected: 2,
            silent_errors_masked: 3,
            recovery_attempts: 4,
        };
        let mut b = a;
        b.accumulate(&a);
        assert_eq!(b.time, 20.0);
        assert_eq!(b.fail_stop_errors, 2);
        assert_eq!(b.silent_errors_detected, 4);
        assert_eq!(b.silent_errors_masked, 6);
        assert_eq!(b.recovery_attempts, 8);
    }
}
