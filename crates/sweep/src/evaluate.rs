//! Shared evaluation machinery: first-order optima, numerical optima and
//! simulation at both operating points.
//!
//! Every figure of the paper compares up to four series per configuration:
//!
//! * **First-order prediction** — the closed-form overhead of Theorem 2/3.
//! * **First-order simulation** — the simulated overhead at the first-order
//!   operating point `(P*, T*)`.
//! * **Optimal prediction** — the exact-model overhead at the numerically
//!   optimised operating point.
//! * **Optimal simulation** — the simulated overhead at that numerical optimum.
//!
//! [`Evaluator`] produces all four from an [`ayd_core::ExactModel`]. It is the
//! per-cell kernel of the sweep engine (see [`crate::executor`]) and used to
//! live in `ayd-exp`, which now re-exports it.

use serde::{Deserialize, Serialize};

use ayd_core::{ExactModel, FirstOrder};
use ayd_optim::{JointSearch, OptimizeOptions, SearchReport};
use ayd_sim::Simulator;

use crate::options::RunOptions;

/// Summary of a simulation batch at one operating point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimSummary {
    /// Mean simulated execution overhead across runs.
    pub mean: f64,
    /// Half-width of the 95% confidence interval of the mean.
    pub ci95: f64,
}

/// One operating point `(P, T)` together with its predicted and simulated
/// overheads.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// Processor allocation.
    pub processors: f64,
    /// Checkpointing period (seconds).
    pub period: f64,
    /// Exact-model expected overhead at this point (Proposition 1).
    pub predicted_overhead: f64,
    /// Closed-form first-order overhead (Theorem 2/3), when the point came from
    /// the first-order analysis.
    pub formula_overhead: Option<f64>,
    /// Simulated overhead, when simulation was requested.
    pub simulated: Option<SimSummary>,
}

/// First-order and numerical optima of one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OptimumComparison {
    /// First-order optimum (absent when the closed forms do not apply:
    /// scenario 6, `α = 0`, non-Amdahl profiles).
    pub first_order: Option<OperatingPoint>,
    /// Numerical optimum of the exact model.
    pub numerical: OperatingPoint,
}

impl OptimumComparison {
    /// Relative gap between the first-order and numerical predicted overheads
    /// (`None` when no first-order optimum exists).
    pub fn overhead_gap(&self) -> Option<f64> {
        self.first_order.map(|fo| {
            (fo.predicted_overhead - self.numerical.predicted_overhead)
                / self.numerical.predicted_overhead
        })
    }
}

/// Evaluation engine: computes optima and simulates them.
#[derive(Debug, Clone, Copy)]
pub struct Evaluator {
    /// Run options (simulation fidelity, seed, whether to simulate).
    pub options: RunOptions,
    /// Search range for the processor count of the numerical optimiser.
    pub processor_range: (f64, f64),
    /// Search range for the checkpointing period of the numerical optimiser.
    pub period_range: (f64, f64),
}

impl Evaluator {
    /// Creates an evaluator with the default search ranges (processors up to
    /// 10^7, periods between 1 second and 10^9 seconds).
    pub fn new(options: RunOptions) -> Self {
        Self {
            options,
            processor_range: (1.0, 1e7),
            period_range: (1.0, 1e9),
        }
    }

    /// Overrides the processor search range (Figure 6 needs up to ~10^13).
    pub fn with_processor_range(mut self, lo: f64, hi: f64) -> Self {
        self.processor_range = (lo, hi);
        self
    }

    /// Overrides the period search range.
    pub fn with_period_range(mut self, lo: f64, hi: f64) -> Self {
        self.period_range = (lo, hi);
        self
    }

    fn joint_search(&self) -> JointSearch {
        JointSearch::new(self.processor_range, self.period_range)
            .with_options(OptimizeOptions::default(), OptimizeOptions::nested())
    }

    /// The first-order operating point of a model, when Theorem 2 or 3 applies.
    ///
    /// The processor count is the closed-form `P*` of Theorem 2/3; the period is
    /// Theorem 1's `T*_P` evaluated at that `P*` (with the full cost model). This
    /// is how a practitioner would apply the paper's formulas — and how the
    /// paper's Figure 2 reports the first-order period: the asymptotic `T*`
    /// expression of the theorems drops the cost terms that vanish with `P`
    /// (e.g. scenario 5's `b/P`), which are not always negligible at the actual
    /// `P*`. The closed-form `T*` remains available through
    /// [`ayd_core::FirstOrder::joint_optimum`].
    pub fn first_order_point(&self, model: &ExactModel) -> Option<OperatingPoint> {
        let fo = FirstOrder::new(model);
        let optimum = fo.joint_optimum().ok()?;
        let period = fo.optimal_period_for(optimum.processors).period;
        let mut point = OperatingPoint {
            processors: optimum.processors,
            period,
            predicted_overhead: model.expected_overhead(period, optimum.processors),
            formula_overhead: Some(optimum.overhead),
            simulated: None,
        };
        self.maybe_simulate(model, &mut point);
        Some(point)
    }

    /// The numerically optimal operating point of the exact model, found by
    /// the reference grid scan + Brent search. Sweeps and served queries run
    /// [`Self::numerical_point_seeded`] instead, which reproduces this bit
    /// for bit; this is the oracle the tests compare it against.
    pub fn numerical_point(&self, model: &ExactModel) -> OperatingPoint {
        let result = self
            .joint_search()
            .optimize(|p, t| model.expected_overhead(t, p));
        let mut point = OperatingPoint {
            processors: result.processors,
            period: result.period,
            predicted_overhead: result.value,
            formula_overhead: None,
            simulated: None,
        };
        self.maybe_simulate(model, &mut point);
        point
    }

    /// The numerically optimal period (and resulting overhead) for a fixed
    /// processor count, by the reference search (the oracle of
    /// [`Self::numerical_period_for_seeded`]).
    pub fn numerical_period_for(&self, model: &ExactModel, p: f64) -> (f64, f64) {
        let minimum = self
            .joint_search()
            .optimize_period(p, |pp, t| model.expected_overhead(t, pp));
        (minimum.argument, minimum.value)
    }

    /// Theorem 1's `T*_P = sqrt((V_P + C_P)/Λ_P)` as a warm start for the
    /// period search at processor count `p`. Valid for every profile family —
    /// the closed form only involves the cost and failure models — but only
    /// used as a *seed*: correctness never depends on it.
    fn period_seed(model: &ExactModel, p: f64) -> Option<f64> {
        let seed = FirstOrder::new(model).optimal_period_for(p).period;
        (seed.is_finite() && seed > 0.0).then_some(seed)
    }

    /// [`Self::numerical_point`], evaluated through the warm-started search
    /// every sweep and served query runs. Every period search is seeded with
    /// Theorem 1's `T*_P` and certified by the convexity of the pattern time.
    /// The processor search is seeded with the outer grid point that
    /// minimises the exact overhead at `T*_P`, whatever the profile family,
    /// and [`FirstOrder::overhead_lower_bound`] decides most of its sentinels
    /// without a period search. Each period search evaluates the model at
    /// its processor count, [`ExactModel::at`], built once per search. The
    /// result is bit-identical to [`Self::numerical_point`] — every scalar
    /// sub-search either proves it matched the reference or self-demotes to
    /// it — and `report` tallies the fast/fallback split.
    pub fn numerical_point_seeded(
        &self,
        model: &ExactModel,
        report: &mut SearchReport,
    ) -> OperatingPoint {
        let first_order = FirstOrder::new(model);
        let result = self.joint_search().optimize_seeded(
            |p| Self::period_seed(model, p),
            |p| first_order.overhead_lower_bound(p),
            report,
            |p| {
                let at = model.at(p);
                move |t| at.overhead(t)
            },
        );
        let mut point = OperatingPoint {
            processors: result.processors,
            period: result.period,
            predicted_overhead: result.value,
            formula_overhead: None,
            simulated: None,
        };
        self.maybe_simulate(model, &mut point);
        point
    }

    /// [`Self::numerical_period_for`] through the warm-started search (seeded
    /// with Theorem 1's `T*_P`, certified by convexity); bit-identical by the
    /// same argument as [`Self::numerical_point_seeded`].
    pub fn numerical_period_for_seeded(
        &self,
        model: &ExactModel,
        p: f64,
        report: &mut SearchReport,
    ) -> (f64, f64) {
        let at = model.at(p);
        let seed = Self::period_seed(model, p);
        let minimum = self
            .joint_search()
            .optimize_period_seeded(seed, report, |t| at.overhead(t));
        (minimum.argument, minimum.value)
    }

    /// Both optima (and, if requested, their simulated overheads).
    pub fn compare(&self, model: &ExactModel) -> OptimumComparison {
        OptimumComparison {
            first_order: self.first_order_point(model),
            numerical: self.numerical_point(model),
        }
    }

    /// Simulates the overhead at an explicit operating point.
    pub fn simulate_at(&self, model: &ExactModel, t: f64, p: f64) -> SimSummary {
        let stats =
            Simulator::new(*model).simulate_overhead(t, p, &self.options.simulation_config());
        SimSummary {
            mean: stats.mean,
            ci95: stats.ci95,
        }
    }

    fn maybe_simulate(&self, model: &ExactModel, point: &mut OperatingPoint) {
        if self.options.simulate {
            point.simulated = Some(self.simulate_at(model, point.period, point.processors));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ayd_platforms::{ExperimentSetup, PlatformId, ScenarioId};

    fn evaluator(simulate: bool) -> Evaluator {
        let mut options = RunOptions::smoke();
        options.simulate = simulate;
        Evaluator::new(options)
    }

    #[test]
    fn first_order_and_numerical_agree_on_hera_scenario1() {
        // Figure 2's headline observation: the first-order optimum is very close
        // to the numerical optimum in the realistic scenarios.
        let model = ExperimentSetup::paper_default(PlatformId::Hera, ScenarioId::S1)
            .model()
            .unwrap();
        let eval = evaluator(false);
        let cmp = eval.compare(&model);
        let fo = cmp
            .first_order
            .expect("scenario 1 has a first-order optimum");
        let gap = cmp.overhead_gap().unwrap();
        assert!(gap.abs() < 0.01, "overhead gap {gap}");
        // Processor allocations agree within ~20% and overheads within 1%.
        let rel_p = (fo.processors - cmp.numerical.processors).abs() / cmp.numerical.processors;
        assert!(
            rel_p < 0.35,
            "P gap {rel_p}: fo={} num={}",
            fo.processors,
            cmp.numerical.processors
        );
        assert!(fo.predicted_overhead >= cmp.numerical.predicted_overhead - 1e-9);
    }

    #[test]
    fn scenario6_has_no_first_order_optimum() {
        let model = ExperimentSetup::paper_default(PlatformId::Hera, ScenarioId::S6)
            .model()
            .unwrap();
        let cmp = evaluator(false).compare(&model);
        assert!(cmp.first_order.is_none());
        assert!(cmp.overhead_gap().is_none());
        assert!(cmp.numerical.predicted_overhead > 0.1);
    }

    #[test]
    fn numerical_period_for_fixed_p_matches_first_order_closely() {
        let model = ExperimentSetup::paper_default(PlatformId::Hera, ScenarioId::S3)
            .model()
            .unwrap();
        let eval = evaluator(false);
        let p = 512.0;
        let (t_num, h_num) = eval.numerical_period_for(&model, p);
        let fo = ayd_core::FirstOrder::new(&model).optimal_period_for(p);
        assert!(
            (t_num - fo.period).abs() / fo.period < 0.1,
            "num={t_num} fo={}",
            fo.period
        );
        assert!(h_num <= model.expected_overhead(fo.period, p) + 1e-12);
    }

    #[test]
    fn simulation_is_attached_when_requested() {
        let model = ExperimentSetup::paper_default(PlatformId::Hera, ScenarioId::S1)
            .model()
            .unwrap();
        let with_sim = evaluator(true).first_order_point(&model).unwrap();
        let without = evaluator(false).first_order_point(&model).unwrap();
        assert!(with_sim.simulated.is_some());
        assert!(without.simulated.is_none());
        let sim = with_sim.simulated.unwrap();
        // Smoke-level simulation still lands in the right ballpark (±10%).
        assert!((sim.mean - with_sim.predicted_overhead).abs() / with_sim.predicted_overhead < 0.1);
    }

    #[test]
    fn seeded_numerical_point_is_bit_identical_across_scenarios() {
        use ayd_core::SpeedupProfile;
        let eval = evaluator(false);
        for platform in [PlatformId::Hera, PlatformId::Atlas] {
            for scenario in [ScenarioId::S1, ScenarioId::S3, ScenarioId::S6] {
                for profile in [
                    SpeedupProfile::amdahl(0.1).unwrap(),
                    SpeedupProfile::power_law(0.8).unwrap(),
                    SpeedupProfile::gustafson(0.05).unwrap(),
                    SpeedupProfile::perfectly_parallel(),
                ] {
                    let model = ayd_platforms::ExperimentSetup::paper_default(platform, scenario)
                        .with_profile(profile)
                        .model()
                        .unwrap();
                    let reference = eval.numerical_point(&model);
                    let mut report = SearchReport::default();
                    let fast = eval.numerical_point_seeded(&model, &mut report);
                    assert_eq!(
                        fast.processors.to_bits(),
                        reference.processors.to_bits(),
                        "{platform:?}/{scenario:?}/{profile:?}"
                    );
                    assert_eq!(fast.period.to_bits(), reference.period.to_bits());
                    assert_eq!(
                        fast.predicted_overhead.to_bits(),
                        reference.predicted_overhead.to_bits()
                    );
                    assert!(report.total() > 0);
                }
            }
        }
    }

    #[test]
    fn seeded_period_search_is_bit_identical_and_mostly_fast() {
        let eval = evaluator(false);
        let model = ExperimentSetup::paper_default(PlatformId::Hera, ScenarioId::S3)
            .model()
            .unwrap();
        for p in [64.0, 512.0, 4096.0] {
            let (t_ref, h_ref) = eval.numerical_period_for(&model, p);
            let mut report = SearchReport::default();
            let (t_fast, h_fast) = eval.numerical_period_for_seeded(&model, p, &mut report);
            assert_eq!(t_fast.to_bits(), t_ref.to_bits(), "P={p}");
            assert_eq!(h_fast.to_bits(), h_ref.to_bits(), "P={p}");
            // Theorem 1 lands within a grid cell of the optimum: the single
            // inner search must be answered by the fast path, and the Brent
            // refinement it ran is reflected in the iteration tally.
            assert_eq!((report.fast, report.fallback), (1, 0), "P={p}");
            assert!(report.brent_iterations > 0, "P={p}: {report:?}");
            assert_eq!(report.fallback_reasons, [0; 5], "P={p}");
        }
    }

    #[test]
    fn custom_ranges_are_respected() {
        let model = ExperimentSetup::paper_default(PlatformId::Hera, ScenarioId::S1)
            .model()
            .unwrap();
        let eval = evaluator(false)
            .with_processor_range(1.0, 100.0)
            .with_period_range(10.0, 1e6);
        let point = eval.numerical_point(&model);
        assert!(point.processors <= 100.0 + 1e-6);
        assert!(point.period <= 1e6 + 1e-3);
    }
}
