//! Run options shared by every experiment runner and sweep.
//!
//! The sweep engine and the experiment harness share this one definition
//! (`ayd-exp` re-exports it at its crate root).

use ayd_sim::SimulationConfig;

/// How much replication/simulation effort to spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Tiny replication, for unit tests and CI smoke runs.
    Smoke,
    /// Moderate replication; the CLI's default.
    Standard,
    /// The paper's replication scale (500 runs × 500 patterns per point).
    Paper,
}

/// Options of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// Simulation effort.
    pub fidelity: Fidelity,
    /// Base seed for all simulations.
    pub seed: u64,
    /// Whether to run the simulations at all (the analytical/numerical series are
    /// always produced; simulation can be skipped for speed).
    pub simulate: bool,
    /// Worker-thread count for sweep-backed runners (`None` = all available
    /// cores). Results never depend on this (determinism contract).
    pub threads: Option<usize>,
    /// Whether sweep-backed runners memoise optimiser evaluations. Results
    /// never depend on this either.
    pub cache: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            fidelity: Fidelity::Standard,
            seed: 2016,
            simulate: true,
            threads: None,
            cache: true,
        }
    }
}

impl RunOptions {
    /// Options used by unit tests: smoke-level simulation.
    pub fn smoke() -> Self {
        Self {
            fidelity: Fidelity::Smoke,
            ..Self::default()
        }
    }

    /// Options matching the paper's replication scale.
    pub fn paper() -> Self {
        Self {
            fidelity: Fidelity::Paper,
            ..Self::default()
        }
    }

    /// Options that skip simulation entirely (analytical + numerical only).
    pub fn analytical_only() -> Self {
        Self {
            simulate: false,
            ..Self::default()
        }
    }

    /// The simulation batch configuration corresponding to the chosen fidelity.
    pub fn simulation_config(&self) -> SimulationConfig {
        let base = match self.fidelity {
            Fidelity::Smoke => SimulationConfig {
                runs: 12,
                patterns_per_run: 40,
                ..Default::default()
            },
            Fidelity::Standard => SimulationConfig {
                runs: 80,
                patterns_per_run: 150,
                ..Default::default()
            },
            Fidelity::Paper => SimulationConfig::paper_scale(),
        };
        base.with_seed(self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_scales_replication() {
        let smoke = RunOptions::smoke().simulation_config();
        let standard = RunOptions::default().simulation_config();
        let paper = RunOptions::paper().simulation_config();
        assert!(smoke.runs < standard.runs);
        assert!(standard.runs < paper.runs);
        assert_eq!(paper.runs, 500);
        assert_eq!(paper.patterns_per_run, 500);
    }

    #[test]
    fn seed_propagates_to_simulation_config() {
        let opts = RunOptions {
            seed: 999,
            ..RunOptions::smoke()
        };
        assert_eq!(opts.simulation_config().seed, 999);
    }

    #[test]
    fn analytical_only_disables_simulation() {
        assert!(!RunOptions::analytical_only().simulate);
        assert!(RunOptions::default().simulate);
    }

    #[test]
    fn sweep_execution_knobs_default_to_all_cores_and_caching() {
        let options = RunOptions::default();
        assert_eq!(options.threads, None);
        assert!(options.cache);
    }
}
