//! [`ScenarioGrid`]: cartesian products of sweep axes.
//!
//! A grid is the declarative description of a sweep: which platforms, which
//! resilience scenarios, which applications (speedup profiles — Amdahl `α`
//! values or any extension profile), which error-rate axis, which processor
//! axis and (optionally) which fixed pattern lengths. [`ScenarioGrid::cells`]
//! flattens the product into an ordered list of [`SweepCell`]s; the cell order
//! is part of the determinism contract (it never depends on how the executor
//! schedules cells across threads).

use ayd_core::{FailureModelSpec, SpeedupProfile};
use ayd_platforms::{ExperimentSetup, Platform, PlatformId, ScenarioId};

/// The processor axis of a grid.
#[derive(Debug, Clone, PartialEq)]
pub enum ProcessorAxis {
    /// Jointly optimise the processor count per cell (first-order + numerical).
    Optimize,
    /// Evaluate every cell at each of these fixed processor counts.
    Fixed(Vec<f64>),
    /// Evaluate at `P = λ_ind^{-x}` for each order `x` (the ablation-A1 axis,
    /// probing the validity region of the first-order formulas).
    LambdaOrders(Vec<f64>),
}

/// The error-rate axis of a grid.
#[derive(Debug, Clone, PartialEq)]
pub enum LambdaAxis {
    /// Keep each platform's measured individual error rate.
    Measured,
    /// Multiply each platform's measured rate by each of these factors.
    Multipliers(Vec<f64>),
    /// Override the rate with each of these absolute values (Figures 5–6).
    Absolute(Vec<f64>),
}

/// One cell of a sweep: a fully specified experiment setup plus the axis
/// coordinates it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Position of the cell in the grid's deterministic order.
    pub index: usize,
    /// The platform/scenario/α/λ configuration to evaluate.
    pub setup: ExperimentSetup,
    /// The failure inter-arrival law of the cell (default: exponential).
    pub failure_model: FailureModelSpec,
    /// Ratio of the cell's `λ_ind` to the platform's measured rate.
    pub lambda_multiplier: f64,
    /// Fixed processor count (`None` when the cell optimises `P`).
    pub fixed_processors: Option<f64>,
    /// Order `x` such that `fixed_processors = λ_ind^{-x}`, when the grid used
    /// [`ProcessorAxis::LambdaOrders`].
    pub processor_order: Option<f64>,
    /// Fixed pattern length `T` in seconds (`None` = use the first-order /
    /// numerically optimal period).
    pub pattern_length: Option<f64>,
}

impl SweepCell {
    /// The individual error rate of this cell (override or platform measurement).
    pub fn lambda_ind(&self) -> f64 {
        self.setup
            .lambda_ind_override
            .unwrap_or_else(|| Platform::get(self.setup.platform).lambda_ind)
    }

    /// The speedup profile of this cell.
    pub fn profile(&self) -> SpeedupProfile {
        self.setup.profile
    }
}

/// Error raised by [`GridBuilder::build`] on an ill-formed grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridError(String);

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid scenario grid: {}", self.0)
    }
}

impl std::error::Error for GridError {}

/// A cartesian sweep grid over platforms × scenarios × applications
/// (speedup profiles) × error rates × processor counts × pattern lengths.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioGrid {
    platforms: Vec<PlatformId>,
    scenarios: Vec<ScenarioId>,
    profiles: Vec<SpeedupProfile>,
    failure_models: Vec<FailureModelSpec>,
    lambdas: LambdaAxis,
    processors: ProcessorAxis,
    pattern_lengths: Vec<f64>,
    downtime: f64,
}

impl ScenarioGrid {
    /// Starts building a grid. Defaults: Hera, the representative scenarios
    /// (1, 3, 5), Amdahl `α = 0.1`, measured error rates, jointly optimised
    /// `P`, no fixed pattern length, `D = 3600 s`.
    pub fn builder() -> GridBuilder {
        GridBuilder::default()
    }

    /// Number of cells in the grid.
    pub fn len(&self) -> usize {
        self.platforms.len()
            * self.scenarios.len()
            * self.profiles.len()
            * self.failure_models.len()
            * self.lambda_axis_len()
            * self.processor_axis_len()
            * self.pattern_lengths.len().max(1)
    }

    /// True when the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lambda_axis_len(&self) -> usize {
        match &self.lambdas {
            LambdaAxis::Measured => 1,
            LambdaAxis::Multipliers(m) => m.len(),
            LambdaAxis::Absolute(v) => v.len(),
        }
    }

    fn processor_axis_len(&self) -> usize {
        match &self.processors {
            ProcessorAxis::Optimize => 1,
            ProcessorAxis::Fixed(p) => p.len(),
            ProcessorAxis::LambdaOrders(orders) => orders.len(),
        }
    }

    /// The speedup-profile axis of the grid, in declaration order (recorded
    /// by shard manifests for post-mortems).
    pub fn profile_axis(&self) -> &[SpeedupProfile] {
        &self.profiles
    }

    /// A 64-bit fingerprint of [`Self::cells`]: every semantic field of
    /// every cell, folded through SplitMix64. The hash covers the platform,
    /// scenario, profile, error rate, downtime and the processor/pattern
    /// coordinates of each cell — everything that feeds the per-cell
    /// evaluation and the CSV text. Grids share a fingerprint exactly when
    /// they flatten to the same cell list, so shard manifests can refuse to
    /// resume (or merge) against a different grid. The cells are hashed as
    /// they are walked; none is kept.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xA4D5_EED5_0F5A_4DE5;
        self.walk(0..self.len(), |cell| {
            let profile = ayd_core::ProfileSpec::from(cell.setup.profile);
            for byte in cell.setup.platform.name().bytes() {
                h = mix(h, byte as u64);
            }
            h = mix(h, cell.setup.scenario.number() as u64);
            h = mix(h, profile.kind_tag() as u64);
            h = mix(h, bits_or_marker(profile.param()));
            h = mix(h, cell.lambda_ind().to_bits());
            h = mix(h, cell.lambda_multiplier.to_bits());
            h = mix(h, cell.setup.downtime.to_bits());
            h = mix(h, bits_or_marker(cell.fixed_processors));
            h = mix(h, bits_or_marker(cell.processor_order));
            h = mix(h, bits_or_marker(cell.pattern_length));
            // The failure law is mixed only when non-default, so fingerprints
            // of pre-existing (exponential) grids — and any manifests recorded
            // against them — are unchanged.
            if cell.failure_model != FailureModelSpec::exponential() {
                h = mix(h, 0xFA11_0B5E_55ED_0002);
                h = mix(h, cell.failure_model.kind_tag() as u64);
                h = mix(h, bits_or_marker(cell.failure_model.param()));
                h = mix(h, bits_or_marker(cell.failure_model.lambda()));
                for byte in cell.failure_model.trace_path().unwrap_or("").bytes() {
                    h = mix(h, byte as u64);
                }
            }
        });
        h
    }

    /// The cells owned by `shard` — the slice [`ShardSpec::range`] of the
    /// flattened grid, in global cell order (their `index` fields keep the
    /// *global* position, so per-cell seeding — and therefore every simulated
    /// value — is identical to the unsharded run). Only the shard's cells
    /// are built.
    ///
    /// [`ShardSpec::range`]: crate::shard::ShardSpec::range
    pub fn shard_cells(&self, shard: crate::shard::ShardSpec) -> Vec<SweepCell> {
        let range = shard.range(self.len());
        let mut cells = Vec::with_capacity(range.len());
        self.walk(range, |cell| cells.push(cell));
        cells
    }

    /// Flattens the grid into its deterministic cell order: platform (outer) →
    /// scenario → profile → failure model → λ → processors → pattern length
    /// (inner). The profile axis occupies the position the `α` axis used to,
    /// so Amdahl-only grids keep their historical cell ordering; the failure
    /// axis defaults to the single exponential law, so grids that never set
    /// it keep their cell list too.
    pub fn cells(&self) -> Vec<SweepCell> {
        let mut cells = Vec::with_capacity(self.len());
        self.walk(0..self.len(), |cell| cells.push(cell));
        cells
    }

    /// The one walk of the cell order ([`Self::cells`]): hands `visit` each
    /// cell whose index lies in `range`, in order, and builds no other.
    fn walk(&self, range: std::ops::Range<usize>, mut visit: impl FnMut(SweepCell)) {
        let mut index = 0;
        for &platform in &self.platforms {
            let measured_lambda = Platform::get(platform).lambda_ind;
            for &scenario in &self.scenarios {
                for &profile in &self.profiles {
                    let base = ExperimentSetup::paper_default(platform, scenario)
                        .with_profile(profile)
                        .with_downtime(self.downtime);
                    for failure_model in &self.failure_models {
                        for lambda_entry in 0..self.lambda_axis_len() {
                            let (lambda_override, multiplier) = match &self.lambdas {
                                LambdaAxis::Measured => (None, 1.0),
                                LambdaAxis::Multipliers(ms) => {
                                    let m = ms[lambda_entry];
                                    (Some(measured_lambda * m), m)
                                }
                                LambdaAxis::Absolute(vs) => {
                                    let v = vs[lambda_entry];
                                    (Some(v), v / measured_lambda)
                                }
                            };
                            let setup = match lambda_override {
                                Some(lambda) => base.with_lambda_ind(lambda),
                                None => base,
                            };
                            let lambda = lambda_override.unwrap_or(measured_lambda);
                            for processor_entry in 0..self.processor_axis_len() {
                                let (fixed_processors, processor_order) = match &self.processors {
                                    ProcessorAxis::Optimize => (None, None),
                                    ProcessorAxis::Fixed(ps) => (Some(ps[processor_entry]), None),
                                    ProcessorAxis::LambdaOrders(orders) => {
                                        let x = orders[processor_entry];
                                        (Some((1.0 / lambda).powf(x)), Some(x))
                                    }
                                };
                                for length in 0..self.pattern_lengths.len().max(1) {
                                    if index >= range.end {
                                        return;
                                    }
                                    if index >= range.start {
                                        visit(SweepCell {
                                            index,
                                            setup,
                                            failure_model: failure_model.clone(),
                                            lambda_multiplier: multiplier,
                                            fixed_processors,
                                            processor_order,
                                            pattern_length: self
                                                .pattern_lengths
                                                .get(length)
                                                .copied(),
                                        });
                                    }
                                    index += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// One SplitMix64 fingerprint-mixing step (shared with the options
/// fingerprint in [`crate::executor`]).
pub(crate) fn mix(h: u64, value: u64) -> u64 {
    ayd_sim::rng::splitmix64(
        h ^ ayd_sim::rng::splitmix64(value.wrapping_add(0x9E37_79B9_7F4A_7C15)),
    )
}

/// Fingerprint encoding of an optional f64: the raw bits, or a marker that no
/// finite value can collide with (a non-canonical NaN payload).
pub(crate) fn bits_or_marker(value: Option<f64>) -> u64 {
    value.map_or(0x7FF8_DEAD_BEEF_0001, f64::to_bits)
}

/// Builder of a [`ScenarioGrid`]; see [`ScenarioGrid::builder`].
#[derive(Debug, Clone)]
pub struct GridBuilder {
    platforms: Vec<PlatformId>,
    scenarios: Vec<ScenarioId>,
    profiles: Vec<SpeedupProfile>,
    failure_models: Vec<FailureModelSpec>,
    lambdas: LambdaAxis,
    processors: ProcessorAxis,
    pattern_lengths: Vec<f64>,
    downtime: f64,
}

impl Default for GridBuilder {
    fn default() -> Self {
        Self {
            platforms: vec![PlatformId::Hera],
            scenarios: ScenarioId::REPRESENTATIVE.to_vec(),
            profiles: vec![SpeedupProfile::Amdahl { alpha: 0.1 }],
            failure_models: vec![FailureModelSpec::exponential()],
            lambdas: LambdaAxis::Measured,
            processors: ProcessorAxis::Optimize,
            pattern_lengths: Vec::new(),
            downtime: 3600.0,
        }
    }
}

impl GridBuilder {
    /// Sets the platform axis.
    pub fn platforms(mut self, platforms: &[PlatformId]) -> Self {
        self.platforms = platforms.to_vec();
        self
    }

    /// Sets the scenario axis.
    pub fn scenarios(mut self, scenarios: &[ScenarioId]) -> Self {
        self.scenarios = scenarios.to_vec();
        self
    }

    /// Sets the application axis to a list of speedup profiles (Amdahl,
    /// perfectly parallel, power law, Gustafson).
    pub fn profiles(mut self, profiles: &[SpeedupProfile]) -> Self {
        self.profiles = profiles.to_vec();
        self
    }

    /// Sets the failure-model axis: one cell block per inter-arrival law
    /// (default: the single exponential law of the paper). Specs must not pin
    /// an explicit rate — the grid's lambda axis owns the rate.
    pub fn failure_models(mut self, models: &[FailureModelSpec]) -> Self {
        self.failure_models = models.to_vec();
        self
    }

    /// Sweeps multiples of each platform's measured error rate.
    pub fn lambda_multipliers(mut self, multipliers: &[f64]) -> Self {
        self.lambdas = LambdaAxis::Multipliers(multipliers.to_vec());
        self
    }

    /// Sweeps absolute individual error rates (Figures 5–6).
    pub fn lambda_values(mut self, values: &[f64]) -> Self {
        self.lambdas = LambdaAxis::Absolute(values.to_vec());
        self
    }

    /// Sets the processor axis.
    pub fn processors(mut self, axis: ProcessorAxis) -> Self {
        self.processors = axis;
        self
    }

    /// Sets fixed pattern lengths `T` (requires a fixed-processor axis).
    pub fn pattern_lengths(mut self, lengths: &[f64]) -> Self {
        self.pattern_lengths = lengths.to_vec();
        self
    }

    /// Sets the downtime `D` in seconds (paper default: 3600).
    pub fn downtime(mut self, downtime: f64) -> Self {
        self.downtime = downtime;
        self
    }

    /// Validates the axes and produces the grid.
    pub fn build(self) -> Result<ScenarioGrid, GridError> {
        let err = |message: &str| Err(GridError(message.to_string()));
        if self.platforms.is_empty() {
            return err("at least one platform is required");
        }
        if self.scenarios.is_empty() {
            return err("at least one scenario is required");
        }
        if self.profiles.is_empty() {
            return err("at least one speedup profile (or alpha) is required");
        }
        for profile in &self.profiles {
            if let Err(e) = profile.validate() {
                return err(&format!("invalid speedup profile: {e}"));
            }
        }
        if self.failure_models.is_empty() {
            return err("at least one failure model is required");
        }
        for model in &self.failure_models {
            // Re-parse the canonical rendering: constructed values go through
            // the same validation as parsed spec strings.
            if let Err(e) = FailureModelSpec::parse(&model.to_string()) {
                return err(&format!("invalid failure model: {e}"));
            }
            if model.lambda().is_some() {
                return err(&format!(
                    "failure model '{model}' pins an explicit rate; grid cells take their rate \
                     from the lambda axis"
                ));
            }
        }
        match &self.lambdas {
            LambdaAxis::Measured => {}
            LambdaAxis::Multipliers(ms) => {
                if ms.is_empty() || ms.iter().any(|&m| !(m.is_finite() && m > 0.0)) {
                    return err("lambda multipliers must be positive and non-empty");
                }
            }
            LambdaAxis::Absolute(vs) => {
                if vs.is_empty() || vs.iter().any(|&v| !(v.is_finite() && v > 0.0)) {
                    return err("lambda values must be positive and non-empty");
                }
            }
        }
        match &self.processors {
            ProcessorAxis::Optimize => {
                if !self.pattern_lengths.is_empty() {
                    return err("fixed pattern lengths require a fixed processor axis");
                }
            }
            ProcessorAxis::Fixed(ps) => {
                if ps.is_empty() || ps.iter().any(|&p| !(p.is_finite() && p >= 1.0)) {
                    return err("fixed processor counts must be >= 1 and non-empty");
                }
            }
            ProcessorAxis::LambdaOrders(orders) => {
                if orders.is_empty() || orders.iter().any(|&x| !(x.is_finite() && x > 0.0)) {
                    return err("lambda orders must be positive and non-empty");
                }
            }
        }
        if self
            .pattern_lengths
            .iter()
            .any(|&t| !(t.is_finite() && t > 0.0))
        {
            return err("pattern lengths must be positive");
        }
        if !(self.downtime.is_finite() && self.downtime >= 0.0) {
            return err("downtime must be non-negative");
        }
        Ok(ScenarioGrid {
            platforms: self.platforms,
            scenarios: self.scenarios,
            profiles: self.profiles,
            failure_models: self.failure_models,
            lambdas: self.lambdas,
            processors: self.processors,
            pattern_lengths: self.pattern_lengths,
            downtime: self.downtime,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_covers_representative_scenarios() {
        let grid = ScenarioGrid::builder().build().unwrap();
        assert_eq!(grid.len(), 3);
        let cells = grid.cells();
        assert_eq!(cells.len(), 3);
        let numbers: Vec<usize> = cells.iter().map(|c| c.setup.scenario.number()).collect();
        assert_eq!(numbers, vec![1, 3, 5]);
        assert!(cells.iter().all(|c| c.fixed_processors.is_none()));
        assert!(cells.iter().all(|c| c.lambda_multiplier == 1.0));
    }

    #[test]
    fn cell_order_is_the_documented_nesting() {
        let grid = ScenarioGrid::builder()
            .platforms(&[PlatformId::Hera, PlatformId::Atlas])
            .scenarios(&[ScenarioId::S1, ScenarioId::S3])
            .lambda_multipliers(&[1.0, 10.0])
            .processors(ProcessorAxis::Fixed(vec![256.0, 512.0]))
            .build()
            .unwrap();
        assert_eq!(grid.len(), 2 * 2 * 2 * 2);
        let cells = grid.cells();
        assert_eq!(cells.len(), grid.len());
        // Innermost axis (processors) varies fastest.
        assert_eq!(cells[0].fixed_processors, Some(256.0));
        assert_eq!(cells[1].fixed_processors, Some(512.0));
        assert_eq!(cells[0].lambda_multiplier, cells[1].lambda_multiplier);
        // Platform is the outermost axis.
        assert!(cells[..8]
            .iter()
            .all(|c| c.setup.platform == PlatformId::Hera));
        assert!(cells[8..]
            .iter()
            .all(|c| c.setup.platform == PlatformId::Atlas));
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i);
        }
    }

    #[test]
    fn lambda_axes_compute_rates_and_multipliers() {
        let measured = Platform::get(PlatformId::Hera).lambda_ind;
        let multiplied = ScenarioGrid::builder()
            .scenarios(&[ScenarioId::S1])
            .lambda_multipliers(&[10.0])
            .build()
            .unwrap();
        let cell = multiplied.cells()[0].clone();
        assert_eq!(cell.lambda_ind(), measured * 10.0);
        assert_eq!(cell.lambda_multiplier, 10.0);

        let absolute = ScenarioGrid::builder()
            .scenarios(&[ScenarioId::S1])
            .lambda_values(&[1e-9])
            .build()
            .unwrap();
        let cell = absolute.cells()[0].clone();
        assert_eq!(cell.lambda_ind(), 1e-9);
        assert!((cell.lambda_multiplier - 1e-9 / measured).abs() < 1e-12);
    }

    #[test]
    fn lambda_orders_fix_processor_counts() {
        let grid = ScenarioGrid::builder()
            .scenarios(&[ScenarioId::S1])
            .processors(ProcessorAxis::LambdaOrders(vec![0.25]))
            .build()
            .unwrap();
        let cell = grid.cells()[0].clone();
        let expected = (1.0 / cell.lambda_ind()).powf(0.25);
        assert_eq!(cell.fixed_processors, Some(expected));
        assert_eq!(cell.processor_order, Some(0.25));
    }

    #[test]
    fn invalid_grids_are_rejected() {
        assert!(ScenarioGrid::builder().platforms(&[]).build().is_err());
        assert!(ScenarioGrid::builder().scenarios(&[]).build().is_err());
        assert!(ScenarioGrid::builder()
            .profiles(&[SpeedupProfile::Amdahl { alpha: 1.5 }])
            .build()
            .is_err());
        assert!(ScenarioGrid::builder()
            .lambda_multipliers(&[0.0])
            .build()
            .is_err());
        assert!(ScenarioGrid::builder()
            .lambda_values(&[-1e-9])
            .build()
            .is_err());
        assert!(ScenarioGrid::builder()
            .processors(ProcessorAxis::Fixed(vec![]))
            .build()
            .is_err());
        assert!(ScenarioGrid::builder()
            .pattern_lengths(&[3600.0])
            .build()
            .is_err());
        assert!(ScenarioGrid::builder().downtime(-1.0).build().is_err());
        let err = ScenarioGrid::builder().platforms(&[]).build().unwrap_err();
        assert!(err.to_string().contains("platform"));
    }

    #[test]
    fn profile_axis_generalises_alphas() {
        let profiles = [
            SpeedupProfile::amdahl(0.1).unwrap(),
            SpeedupProfile::power_law(0.8).unwrap(),
            SpeedupProfile::gustafson(0.05).unwrap(),
            SpeedupProfile::perfectly_parallel(),
        ];
        let grid = ScenarioGrid::builder()
            .scenarios(&[ScenarioId::S1])
            .profiles(&profiles)
            .processors(ProcessorAxis::Fixed(vec![256.0]))
            .build()
            .unwrap();
        assert_eq!(grid.len(), 4);
        let cells = grid.cells();
        // The profile axis preserves the declared order and every cell's setup
        // builds a model with exactly that profile.
        for (cell, &profile) in cells.iter().zip(&profiles) {
            assert_eq!(cell.profile(), profile);
            assert_eq!(cell.setup.model().unwrap().speedup, profile);
        }
    }

    #[test]
    fn amdahl_profiles_vary_between_the_scenario_and_lambda_axes() {
        let grid = ScenarioGrid::builder()
            .platforms(&[PlatformId::Hera, PlatformId::Atlas])
            .scenarios(&[ScenarioId::S1, ScenarioId::S3])
            .profiles(&[
                SpeedupProfile::Amdahl { alpha: 0.05 },
                SpeedupProfile::Amdahl { alpha: 0.1 },
            ])
            .lambda_multipliers(&[1.0, 10.0])
            .processors(ProcessorAxis::Fixed(vec![256.0, 1024.0]))
            .build()
            .unwrap();
        // The α axis varies exactly where it always has: just inside the
        // scenario axis, just outside the λ axis.
        let cells = grid.cells();
        assert_eq!(cells[0].setup.alpha(), Some(0.05));
        assert_eq!(cells[4].setup.alpha(), Some(0.1));
        assert_eq!(cells[0].setup.scenario, cells[4].setup.scenario);
    }

    #[test]
    fn failure_axis_sits_between_profile_and_lambda() {
        let grid = ScenarioGrid::builder()
            .scenarios(&[ScenarioId::S1])
            .profiles(&[
                SpeedupProfile::Amdahl { alpha: 0.05 },
                SpeedupProfile::Amdahl { alpha: 0.1 },
            ])
            .failure_models(&[
                FailureModelSpec::exponential(),
                FailureModelSpec::weibull(0.7).unwrap(),
            ])
            .lambda_multipliers(&[1.0, 10.0])
            .build()
            .unwrap();
        assert_eq!(grid.len(), 2 * 2 * 2);
        let cells = grid.cells();
        // λ varies fastest, then the failure model, then α.
        assert_eq!(cells[0].failure_model.kind(), "exp");
        assert_eq!(cells[1].failure_model.kind(), "exp");
        assert_eq!(cells[2].failure_model.kind(), "weibull");
        assert_eq!(cells[3].failure_model.kind(), "weibull");
        assert_eq!(cells[0].setup.alpha(), Some(0.05));
        assert_eq!(cells[4].setup.alpha(), Some(0.1));
        assert_eq!(cells[0].lambda_multiplier, 1.0);
        assert_eq!(cells[1].lambda_multiplier, 10.0);
    }

    #[test]
    fn default_failure_axis_leaves_grids_unchanged() {
        // Back-compat: a grid that never mentions failure models flattens to
        // exactly the same cells (and fingerprint) as one that sets the
        // default exponential axis explicitly.
        let implicit = ScenarioGrid::builder()
            .lambda_multipliers(&[1.0, 10.0])
            .build()
            .unwrap();
        let explicit = ScenarioGrid::builder()
            .failure_models(&[FailureModelSpec::exponential()])
            .lambda_multipliers(&[1.0, 10.0])
            .build()
            .unwrap();
        assert_eq!(implicit, explicit);
        assert_eq!(implicit.cells(), explicit.cells());
        assert_eq!(implicit.fingerprint(), explicit.fingerprint());
    }

    #[test]
    fn failure_axes_change_the_fingerprint() {
        let base = ScenarioGrid::builder().build().unwrap();
        let weibull = ScenarioGrid::builder()
            .failure_models(&[FailureModelSpec::weibull(0.7).unwrap()])
            .build()
            .unwrap();
        let degenerate = ScenarioGrid::builder()
            .failure_models(&[FailureModelSpec::weibull(1.0).unwrap()])
            .build()
            .unwrap();
        assert_ne!(base.fingerprint(), weibull.fingerprint());
        // weibull:1.0 evaluates like exp but is a *different grid*: its CSV
        // carries different spec columns, so its fingerprint must differ too.
        assert_ne!(base.fingerprint(), degenerate.fingerprint());
        assert_ne!(weibull.fingerprint(), degenerate.fingerprint());
    }

    #[test]
    fn invalid_failure_models_are_rejected() {
        assert!(ScenarioGrid::builder().failure_models(&[]).build().is_err());
        let pinned = FailureModelSpec::parse("weibull:0.7,1e-8").unwrap();
        let err = ScenarioGrid::builder()
            .failure_models(&[pinned])
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("lambda axis"), "{err}");
    }

    #[test]
    fn invalid_profiles_are_rejected() {
        assert!(ScenarioGrid::builder()
            .profiles(&[SpeedupProfile::PowerLaw { sigma: 0.0 }])
            .build()
            .is_err());
        assert!(ScenarioGrid::builder()
            .profiles(&[SpeedupProfile::Gustafson { alpha: 1.5 }])
            .build()
            .is_err());
        assert!(ScenarioGrid::builder().profiles(&[]).build().is_err());
    }

    #[test]
    fn every_cell_produces_a_valid_model() {
        let grid = ScenarioGrid::builder()
            .platforms(&PlatformId::ALL)
            .scenarios(&ScenarioId::ALL)
            .profiles(&[
                SpeedupProfile::Amdahl { alpha: 0.0 },
                SpeedupProfile::Amdahl { alpha: 0.1 },
            ])
            .lambda_multipliers(&[0.1, 1.0, 10.0])
            .processors(ProcessorAxis::Fixed(vec![512.0]))
            .pattern_lengths(&[3600.0])
            .build()
            .unwrap();
        assert_eq!(grid.len(), 4 * 6 * 2 * 3);
        for cell in grid.cells() {
            assert!(cell.setup.model().is_ok(), "cell {cell:?}");
        }
    }

    mod properties {
        use super::*;
        use crate::shard::ShardSpec;
        use proptest::prelude::*;

        /// `count` distinct entries of `pool`, starting at a drawn offset.
        fn pick<T: Clone>(pool: &[T], draw: u64, count: u64) -> Vec<T> {
            let count = 1 + (count as usize) % pool.len();
            (0..count)
                .map(|i| pool[(draw as usize + i) % pool.len()].clone())
                .collect()
        }

        /// A grid over every kind of axis, chosen by `draws`.
        fn grid(draws: &[u64]) -> ScenarioGrid {
            let failure_models = [
                FailureModelSpec::exponential(),
                FailureModelSpec::weibull(0.7).unwrap(),
                FailureModelSpec::weibull(1.0).unwrap(),
                FailureModelSpec::shifted(0.0).unwrap(),
                FailureModelSpec::trace("logs/a.trace").unwrap(),
            ];
            let profiles = [
                SpeedupProfile::Amdahl { alpha: 0.1 },
                SpeedupProfile::PerfectlyParallel,
                SpeedupProfile::PowerLaw { sigma: 0.8 },
                SpeedupProfile::Gustafson { alpha: 0.05 },
            ];
            let mut builder = ScenarioGrid::builder()
                .platforms(&pick(&PlatformId::ALL, draws[0], draws[1] % 2))
                .scenarios(&pick(&ScenarioId::ALL, draws[2], draws[3] % 3))
                .profiles(&pick(&profiles, draws[4], draws[5] % 2))
                .failure_models(&pick(&failure_models, draws[6], draws[7] % 2))
                .downtime([3600.0, 0.0, 60.0][draws[8] as usize % 3]);
            let values = pick(&[1.0, 2.0, 10.0, 2.0], draws[9], draws[10] % 3);
            builder = match draws[11] % 3 {
                0 => builder,
                1 => builder.lambda_multipliers(&values),
                _ => builder.lambda_values(&values.iter().map(|v| v * 1e-8).collect::<Vec<_>>()),
            };
            let processors = pick(&[128.0, 512.0, 2048.0], draws[12], draws[13] % 3);
            builder = match draws[14] % 3 {
                0 => builder.processors(ProcessorAxis::Optimize),
                1 => builder
                    .processors(ProcessorAxis::Fixed(processors))
                    .pattern_lengths(&[900.0, 1800.0, 3600.0, 7200.0][..(draws[15] % 4) as usize]),
                _ => builder.processors(ProcessorAxis::LambdaOrders(
                    processors.iter().map(|p| p / 4096.0).collect(),
                )),
            };
            builder.build().unwrap()
        }

        /// The fingerprint as it was computed before the cell walk: over
        /// the collected cell list.
        fn collected_fingerprint(grid: &ScenarioGrid) -> u64 {
            let mut h: u64 = 0xA4D5_EED5_0F5A_4DE5;
            for cell in &grid.cells() {
                let profile = ayd_core::ProfileSpec::from(cell.setup.profile);
                for byte in cell.setup.platform.name().bytes() {
                    h = mix(h, byte as u64);
                }
                h = mix(h, cell.setup.scenario.number() as u64);
                h = mix(h, profile.kind_tag() as u64);
                h = mix(h, bits_or_marker(profile.param()));
                h = mix(h, cell.lambda_ind().to_bits());
                h = mix(h, cell.lambda_multiplier.to_bits());
                h = mix(h, cell.setup.downtime.to_bits());
                h = mix(h, bits_or_marker(cell.fixed_processors));
                h = mix(h, bits_or_marker(cell.processor_order));
                h = mix(h, bits_or_marker(cell.pattern_length));
                if cell.failure_model != FailureModelSpec::exponential() {
                    h = mix(h, 0xFA11_0B5E_55ED_0002);
                    h = mix(h, cell.failure_model.kind_tag() as u64);
                    h = mix(h, bits_or_marker(cell.failure_model.param()));
                    h = mix(h, bits_or_marker(cell.failure_model.lambda()));
                    for byte in cell.failure_model.trace_path().unwrap_or("").bytes() {
                        h = mix(h, byte as u64);
                    }
                }
            }
            h
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Every shard's cells are its range of the whole cell list,
            /// global indices included, and the walked fingerprint is the
            /// hash of the collected cells.
            #[test]
            fn shards_are_ranges_of_the_cell_list(
                draws in prop::collection::vec(0u64..1_000, 16..17),
                count in 1usize..=8,
            ) {
                let grid = grid(&draws);
                let cells = grid.cells();
                prop_assert_eq!(cells.len(), grid.len());
                for (i, cell) in cells.iter().enumerate() {
                    prop_assert_eq!(cell.index, i);
                }
                for index in 0..count {
                    let spec = ShardSpec::new(index, count).unwrap();
                    prop_assert_eq!(
                        grid.shard_cells(spec),
                        cells[spec.range(cells.len())].to_vec()
                    );
                }
                prop_assert_eq!(grid.fingerprint(), collected_fingerprint(&grid));
            }
        }
    }
}
