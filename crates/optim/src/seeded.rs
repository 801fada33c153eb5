//! Warm-started scalar and joint minimisation, bit-identical to the reference.
//!
//! [`minimize_scalar_seeded`] reproduces [`crate::scalar::minimize_scalar`]
//! exactly — same grid points, same tie rules, same Brent refinement on the
//! same bracket — while skipping most of the coarse grid scan: a seed predicts
//! the grid index of the minimum, a hill descent over grid indices walks to a
//! local minimum of the grid, a [`Check`] proves that it is the index the
//! reference scan would select, and only then does the identical Brent
//! refinement run on the identical neighbour bracket. Because every probed
//! grid point is computed with [`crate::grid::LogGrid::point`] (the same
//! floating-point expression as the full scan) and the refinement call is
//! unchanged, a successful fast path returns the reference result bit for bit.
//!
//! The check is fixed by the call site, from what is known about the
//! objective:
//!
//! * [`Check::Certificate`] for an objective proven quasiconvex, such as the
//!   exact overhead `H(T, P)` at fixed `P` (the period search): the located
//!   index is accepted when its neighbours exceed it by [`MARGIN`], more than
//!   the objective's rounding error. No other grid point is probed.
//! * [`Check::Sentinels`] for an objective of unknown shape, such as the
//!   processor envelope `P ↦ min_T H(T, P)`: every `SENTINEL_STRIDE`-th grid
//!   point must not beat the located basin, unless a lower bound of the
//!   objective there already exceeds the basin by [`MARGIN`].
//!
//! Whenever the proof fails — no seed, a non-finite value the check cannot
//! account for, a descent that walks too far, a missed margin or a sentinel
//! that beats the basin — the call self-demotes and runs the reference search
//! instead, so the result is bit-identical in every case. Each call reports
//! which path it took through a [`SearchReport`], making fallback rates
//! assertable and observable.
//!
//! [`JointSearch::optimize_seeded`] seeds its outer processor search itself:
//! with the outer grid point that minimises the objective at its period seed.
//! It takes its objective one processor count at a time, so whatever the
//! objective computes from `P` alone is computed once per period search, not
//! once per evaluation.

use crate::brent::brent_minimize_counted;
use crate::grid::{log_grid_scan, LogGrid};
use crate::integer::round_to_best_integer;
use crate::joint::{JointResult, JointSearch};
use crate::scalar::{minimize_scalar, OptimizeOptions, ScalarMinimum};

/// Maximum number of hill-descent steps before the seed is declared bad and
/// the call falls back to the reference scan. The seeds land within a few
/// grid cells of the optimum; a longer walk signals either a poor seed or a
/// non-unimodal objective, and the full scan is both safer and not much
/// slower at that point.
const DESCENT_BUDGET: usize = 12;

/// Grid-index stride of the sentinel probes of [`Check::Sentinels`]: every
/// `SENTINEL_STRIDE`-th grid point (and the last) is compared against the
/// located basin, so a secondary basin wider than one stride cannot go
/// unnoticed.
const SENTINEL_STRIDE: usize = 8;

/// Relative gap by which a value must exceed the located basin's value to be
/// provably worse than it despite rounding. The exact overhead only adds and
/// multiplies positive terms, so its relative rounding error stays below
/// ~1e-13; the margin leaves four orders of magnitude on top.
pub const MARGIN: f64 = 1e-9;

/// True when `value` exceeds `basin` by more than [`MARGIN`] (relative);
/// false for a NaN `value`.
fn clears(value: f64, basin: f64) -> bool {
    value - basin > MARGIN * basin.abs()
}

/// How a seeded search proves that its descent found the reference scan's
/// argmin. Each call site fixes it from what is known about its objective;
/// it is never a user option.
#[derive(Clone, Copy)]
pub enum Check<'a> {
    /// The objective is quasiconvex on the range, and a non-finite value is
    /// followed only by non-finite values (an overflowing right-hand tail).
    /// The descent's index is then the scan's argmin when its left neighbour
    /// and a finite right neighbour exceed it by [`MARGIN`]: the values rise
    /// on both sides of it, and the scan skips the non-finite tail.
    Certificate,
    /// Nothing is known about the objective's shape. Sentinel grid points
    /// must not beat the located basin; a sentinel is not evaluated when
    /// `lower_bound` at its point already exceeds the basin by [`MARGIN`].
    Sentinels {
        /// A lower bound of the objective (`&|_| f64::NEG_INFINITY` when none
        /// is known, which evaluates every sentinel).
        lower_bound: &'a dyn Fn(f64) -> f64,
    },
}

/// Why a seeded search fell back to the reference scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// No seed was supplied (e.g. the objective was non-finite at every
    /// seeding point), or the seed was non-finite or non-positive.
    MissingSeed,
    /// The objective was non-finite at a probed grid point the check cannot
    /// account for (the seed's, a left neighbour, or any neighbour under
    /// [`Check::Sentinels`]).
    NonFiniteValue,
    /// The hill descent exhausted its step budget without settling.
    BudgetExhausted,
    /// A sentinel probe found a grid point at least as good as the located
    /// basin (the objective is not unimodal at grid resolution).
    SentinelDisagreement,
    /// Under [`Check::Certificate`], a neighbour of the located index did not
    /// exceed it by [`MARGIN`] (a minimum too flat to certify).
    MarginNotMet,
}

impl FallbackReason {
    /// Every reason, in [`FallbackReason::index`] order.
    pub const ALL: [FallbackReason; 5] = [
        FallbackReason::MissingSeed,
        FallbackReason::NonFiniteValue,
        FallbackReason::BudgetExhausted,
        FallbackReason::SentinelDisagreement,
        FallbackReason::MarginNotMet,
    ];

    /// Stable index of this reason into [`SearchReport::fallback_reasons`].
    pub fn index(self) -> usize {
        match self {
            FallbackReason::MissingSeed => 0,
            FallbackReason::NonFiniteValue => 1,
            FallbackReason::BudgetExhausted => 2,
            FallbackReason::SentinelDisagreement => 3,
            FallbackReason::MarginNotMet => 4,
        }
    }

    /// Kebab-case label, used as a metric/span field name.
    pub fn as_str(self) -> &'static str {
        match self {
            FallbackReason::MissingSeed => "missing-seed",
            FallbackReason::NonFiniteValue => "non-finite-value",
            FallbackReason::BudgetExhausted => "budget-exhausted",
            FallbackReason::SentinelDisagreement => "sentinel-disagreement",
            FallbackReason::MarginNotMet => "margin-not-met",
        }
    }
}

/// Fast/fallback call counters of one or more seeded searches, plus the
/// diagnostics instrumentation attaches to spans: per-[`FallbackReason`]
/// tallies and the Brent iteration count of the fast-path refinements.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchReport {
    /// Scalar sub-searches answered by the warm-started fast path.
    pub fast: u64,
    /// Scalar sub-searches that self-demoted to the reference scan.
    pub fallback: u64,
    /// Brent refinement iterations spent by the fast-path searches (the
    /// reference scan's own refinements are not separable and not counted).
    pub brent_iterations: u64,
    /// Fallback tallies by reason, indexed by [`FallbackReason::index`].
    pub fallback_reasons: [u64; FallbackReason::ALL.len()],
}

impl SearchReport {
    /// Total number of scalar sub-searches.
    pub fn total(&self) -> u64 {
        self.fast + self.fallback
    }

    /// Fraction of sub-searches that fell back (`0.0` when none ran).
    pub fn fallback_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.fallback as f64 / self.total() as f64
        }
    }

    /// How many sub-searches fell back for `reason`.
    pub fn fallback_count(&self, reason: FallbackReason) -> u64 {
        self.fallback_reasons[reason.index()]
    }

    /// Adds another report's counters into this one.
    pub fn merge(&mut self, other: &SearchReport) {
        self.fast += other.fast;
        self.fallback += other.fallback;
        self.brent_iterations += other.brent_iterations;
        for (mine, theirs) in self
            .fallback_reasons
            .iter_mut()
            .zip(other.fallback_reasons.iter())
        {
            *mine += theirs;
        }
    }
}

/// Memoised lazy view of the reference log grid: probed points are computed
/// with [`LogGrid::point`] (bit-identical to the full scan) and each index is
/// evaluated at most once.
struct GridMemo<'a, F> {
    grid: LogGrid,
    f: &'a F,
    values: Vec<Option<f64>>,
}

impl<'a, F: Fn(f64) -> f64> GridMemo<'a, F> {
    fn new(grid: LogGrid, n: usize, f: &'a F) -> Self {
        Self {
            grid,
            f,
            values: vec![None; n],
        }
    }

    fn point(&self, i: usize) -> f64 {
        self.grid.point(i)
    }

    fn is_known(&self, i: usize) -> bool {
        self.values[i].is_some()
    }

    fn value(&mut self, i: usize) -> f64 {
        match self.values[i] {
            Some(v) => v,
            None => {
                let v = (self.f)(self.point(i));
                self.values[i] = Some(v);
                v
            }
        }
    }
}

/// The warm-started fast path of [`minimize_scalar_seeded`]: `Ok` carries the
/// minimum plus the Brent iteration count of the refinement; `Err` carries
/// the reason the caller must fall back to the reference search.
fn try_fast<F>(
    lo: f64,
    hi: f64,
    options: OptimizeOptions,
    seed: Option<f64>,
    check: Check<'_>,
    f: &F,
) -> Result<(ScalarMinimum, usize), FallbackReason>
where
    F: Fn(f64) -> f64,
{
    let seed = seed.ok_or(FallbackReason::MissingSeed)?;
    if !seed.is_finite() || seed <= 0.0 {
        return Err(FallbackReason::MissingSeed);
    }
    let n = options.grid_points;
    // Predict the grid index nearest the seed (clamped into range; the grid
    // itself is only materialised lazily around the descent path).
    let grid = LogGrid::new(lo, hi, n);
    let mut best = grid
        .nearest_index(seed)
        .ok_or(FallbackReason::MissingSeed)?;
    let certified = matches!(check, Check::Certificate);

    // Hill descent with the reference scan's exact tie rules: the scan keeps
    // the *first* index whose finite value is strictly smallest, so descend
    // left on `<=` (crossing plateaus to their left edge) and right only on
    // strict improvement. The scan skips non-finite values, which a descent
    // cannot reason about — except, under the certificate, on the right,
    // where they start the objective's non-finite tail and are never better.
    let mut memo = GridMemo::new(grid, n, f);
    if !memo.value(best).is_finite() {
        return Err(FallbackReason::NonFiniteValue);
    }
    let mut steps = 0usize;
    loop {
        let current = memo.value(best);
        if best > 0 {
            let left = memo.value(best - 1);
            if !left.is_finite() {
                return Err(FallbackReason::NonFiniteValue);
            }
            if left <= current {
                best -= 1;
                steps += 1;
                if steps > DESCENT_BUDGET {
                    return Err(FallbackReason::BudgetExhausted);
                }
                continue;
            }
        }
        if best + 1 < n {
            let right = memo.value(best + 1);
            if !right.is_finite() && !certified {
                return Err(FallbackReason::NonFiniteValue);
            }
            if right < current {
                best += 1;
                steps += 1;
                if steps > DESCENT_BUDGET {
                    return Err(FallbackReason::BudgetExhausted);
                }
                continue;
            }
        }
        break;
    }

    let (x0, f0) = (memo.point(best), memo.value(best));
    match check {
        Check::Certificate => {
            // Both neighbours are already memoised by the descent.
            let left_clears = best == 0 || clears(memo.value(best - 1), f0);
            let right_clears = best + 1 == n || {
                let right = memo.value(best + 1);
                !right.is_finite() || clears(right, f0)
            };
            if !(left_clears && right_clears) {
                return Err(FallbackReason::MarginNotMet);
            }
        }
        Check::Sentinels { lower_bound } => {
            // A coarse sub-scan that must not beat the located basin. A
            // strictly better sentinel — or an equal one at a smaller index,
            // which the scan's first-smallest rule would prefer — demotes the
            // call. Non-finite sentinels are skipped exactly like the scan
            // skips them, and so are sentinels the bound proves worse.
            for i in (0..n)
                .step_by(SENTINEL_STRIDE)
                .chain(std::iter::once(n - 1))
            {
                if !memo.is_known(i) && clears(lower_bound(memo.point(i)), f0) {
                    continue;
                }
                let v = memo.value(i);
                if v.is_finite() && (v < f0 || (v == f0 && i < best)) {
                    return Err(FallbackReason::SentinelDisagreement);
                }
            }
        }
    }

    // Identical refinement on the identical neighbour bracket, identical
    // acceptance rule — from here on the fast path *is* the reference.
    let lower = memo.point(if best == 0 { 0 } else { best - 1 });
    let upper = memo.point(if best + 1 == n { n - 1 } else { best + 1 });
    let (lx, fx, iterations) = brent_minimize_counted(
        lower.ln(),
        upper.ln(),
        options.tolerance,
        options.max_iterations,
        |lx| f(lx.exp()),
    );
    if fx <= f0 {
        Ok((
            ScalarMinimum {
                argument: lx.exp(),
                value: fx,
            },
            iterations,
        ))
    } else {
        Ok((
            ScalarMinimum {
                argument: x0,
                value: f0,
            },
            iterations,
        ))
    }
}

/// [`minimize_scalar`] with a warm start: `seed` predicts the location of the
/// minimum, letting the coarse grid scan be replaced by a short hill descent.
/// The result is bit-identical to the reference search: either `check`
/// proves the descent located the scan's argmin and the identical refinement
/// runs, or the call falls back to [`minimize_scalar`] itself.
///
/// Each call increments exactly one counter of `report`: `fast` when the warm
/// start was used, `fallback` when the reference search ran.
///
/// # Panics
/// Panics in the same cases as [`minimize_scalar`] (invalid range, NaN
/// objective inside the refinement bracket).
pub fn minimize_scalar_seeded<F>(
    lo: f64,
    hi: f64,
    options: OptimizeOptions,
    seed: Option<f64>,
    check: Check<'_>,
    report: &mut SearchReport,
    f: F,
) -> ScalarMinimum
where
    F: Fn(f64) -> f64,
{
    if lo == hi {
        // Degenerate ranges take the reference's trivial path directly; no
        // search happens, so neither counter moves.
        return minimize_scalar(lo, hi, options, f);
    }
    match try_fast(lo, hi, options, seed, check, &f) {
        Ok((minimum, brent_iterations)) => {
            report.fast += 1;
            report.brent_iterations += brent_iterations as u64;
            minimum
        }
        Err(reason) => {
            report.fallback += 1;
            report.fallback_reasons[reason.index()] += 1;
            minimize_scalar(lo, hi, options, f)
        }
    }
}

impl JointSearch {
    /// [`JointSearch::optimize_period`] with a warm start, proved by
    /// [`Check::Certificate`]. `f` is the objective at one processor count,
    /// `T ↦ f(P, T)`; it must be quasiconvex with non-finite values only on a
    /// right-hand tail. The exact overhead `H(T, P)` is (docs/ARCHITECTURE.md,
    /// determinism contract).
    pub fn optimize_period_seeded<F>(
        &self,
        seed: Option<f64>,
        report: &mut SearchReport,
        f: F,
    ) -> ScalarMinimum
    where
        F: Fn(f64) -> f64,
    {
        minimize_scalar_seeded(
            self.period_range.0,
            self.period_range.1,
            self.inner,
            seed,
            Check::Certificate,
            report,
            f,
        )
    }

    /// [`JointSearch::optimize`] with warm starts on both dimensions.
    ///
    /// The objective comes one processor count at a time: `at(p)` returns
    /// `T ↦ f(p, T)`, so whatever depends on `p` alone is computed once per
    /// use of `p`. `at` is called once per outer seed-scan point that has a
    /// period seed, once per inner period search and once for the final
    /// value — never once per evaluation.
    ///
    /// `period_seed(p)` seeds every inner period search (certified as in
    /// [`Self::optimize_period_seeded`]), and the outer processor search is
    /// seeded with the outer grid point minimising `f(P, period_seed(P))`.
    /// The outer search's shape is not known, so it is checked by
    /// [`Check::Sentinels`], and `envelope_bound(p)` — a lower bound of
    /// `min_T f(p, T)` — spares the inner search of every sentinel it proves
    /// worse than the basin. Every scalar sub-search is bit-identical to its
    /// reference counterpart (fast-path proof or fallback), so the returned
    /// [`JointResult`] matches [`JointSearch::optimize`] on `f` bit for bit;
    /// `report` accumulates the per-sub-search fast/fallback tallies.
    pub fn optimize_seeded<A, G, S, B>(
        &self,
        period_seed: S,
        envelope_bound: B,
        report: &mut SearchReport,
        at: A,
    ) -> JointResult
    where
        A: Fn(f64) -> G,
        G: Fn(f64) -> f64,
        S: Fn(f64) -> Option<f64>,
        B: Fn(f64) -> f64,
    {
        // The envelope closure runs inside the outer search, which already
        // holds `report` mutably — tally the inner sub-searches in a cell and
        // merge at the end.
        let inner_tally = std::cell::RefCell::new(SearchReport::default());
        let inner = |p: f64| -> ScalarMinimum {
            let seed = period_seed(p);
            let mut tally = inner_tally.borrow_mut();
            self.optimize_period_seeded(seed, &mut tally, at(p))
        };
        let envelope = |p: f64| inner(p).value;
        let (lo, hi) = self.processor_range;
        // One objective evaluation per outer grid point, at its period seed
        // instead of its searched period.
        let (seed_index, grid, values) = log_grid_scan(lo, hi, self.outer.grid_points, |p| {
            period_seed(p).map_or(f64::NAN, |t| at(p)(t))
        });
        let processor_seed = values[seed_index].is_finite().then(|| grid[seed_index]);
        let mut outer_report = SearchReport::default();
        let outer_min = minimize_scalar_seeded(
            lo,
            hi,
            self.outer,
            processor_seed,
            Check::Sentinels {
                lower_bound: &envelope_bound,
            },
            &mut outer_report,
            envelope,
        );
        let processors = outer_min.argument;
        let period = inner(processors).argument;
        let value = at(processors)(period);
        let (processors_integer, value_integer) =
            round_to_best_integer(processors, 1, |p| inner(p as f64).value);
        report.merge(&inner_tally.into_inner());
        report.merge(&outer_report);
        JointResult {
            processors,
            processors_integer,
            period,
            value,
            value_integer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn bits(m: &ScalarMinimum) -> (u64, u64) {
        (m.argument.to_bits(), m.value.to_bits())
    }

    /// The sentinel check without a bound: every sentinel is evaluated.
    const SENTINELS: Check<'static> = Check::Sentinels {
        lower_bound: &|_| f64::NEG_INFINITY,
    };

    #[test]
    fn seeded_search_is_bit_identical_on_unimodal_objectives() {
        let options = OptimizeOptions::default();
        type Objective = Box<dyn Fn(f64) -> f64>;
        let cases: Vec<(Objective, f64)> = vec![
            // Young/Daly shape: c/t + λ t / 2.
            (
                Box::new(|t: f64| 439.0 / t + 1.62e-8 * 1024.0 * t / 2.0),
                (2.0f64 * 439.0 / (1.62e-8 * 1024.0)).sqrt(),
            ),
            // Log-quadratic well.
            (
                Box::new(|x: f64| (x.ln() - 12_345.678f64.ln()).powi(2)),
                12_345.678,
            ),
            // Boundary minimum at the left edge.
            (Box::new(|x: f64| x), 1.0),
            // Boundary minimum at the right edge.
            (Box::new(|x: f64| -x.ln()), 1e9),
        ];
        for (f, seed) in &cases {
            let reference = minimize_scalar(1.0, 1e9, options, f);
            for check in [Check::Certificate, SENTINELS] {
                let mut report = SearchReport::default();
                let fast =
                    minimize_scalar_seeded(1.0, 1e9, options, Some(*seed), check, &mut report, f);
                assert_eq!(bits(&fast), bits(&reference), "seed {seed}");
                assert_eq!(report.fast, 1, "seed {seed}");
                assert_eq!(report.fallback, 0, "seed {seed}");
            }
        }
    }

    #[test]
    fn even_poor_seeds_within_budget_stay_bit_identical() {
        let options = OptimizeOptions::default();
        let target = 50_000.0f64;
        let f = |x: f64| (x.ln() - target.ln()).powi(2);
        let reference = minimize_scalar(1.0, 1e9, options, f);
        // A seed several grid cells away still descends to the right basin.
        for factor in [0.2, 0.5, 2.0, 5.0] {
            let mut report = SearchReport::default();
            let fast = minimize_scalar_seeded(
                1.0,
                1e9,
                options,
                Some(target * factor),
                Check::Certificate,
                &mut report,
                f,
            );
            assert_eq!(bits(&fast), bits(&reference), "factor {factor}");
            assert_eq!(report.total(), 1);
        }
    }

    #[test]
    fn missing_or_invalid_seeds_fall_back_to_the_reference() {
        let options = OptimizeOptions::default();
        let f = |x: f64| (x.ln() - 3.0).powi(2);
        let reference = minimize_scalar(1.0, 1e6, options, f);
        for seed in [
            None,
            Some(f64::NAN),
            Some(f64::INFINITY),
            Some(0.0),
            Some(-4.0),
        ] {
            let mut report = SearchReport::default();
            let fast =
                minimize_scalar_seeded(1.0, 1e6, options, seed, Check::Certificate, &mut report, f);
            assert_eq!(bits(&fast), bits(&reference), "seed {seed:?}");
            assert_eq!(report.fallback, 1, "seed {seed:?}");
            assert_eq!(report.fast, 0, "seed {seed:?}");
        }
    }

    #[test]
    fn wildly_wrong_seed_exhausts_the_descent_budget_and_falls_back() {
        let options = OptimizeOptions::default();
        // Minimum near the right edge, seed at the left edge: the descent
        // would need ~60 steps, far beyond the budget.
        let f = |x: f64| (x.ln() - 1e8f64.ln()).powi(2);
        let reference = minimize_scalar(1.0, 1e9, options, f);
        let mut report = SearchReport::default();
        let fast = minimize_scalar_seeded(1.0, 1e9, options, Some(1.5), SENTINELS, &mut report, f);
        assert_eq!(bits(&fast), bits(&reference));
        assert_eq!(report.fallback, 1);
        assert_eq!(
            try_fast(1.0, 1e9, options, Some(1.5), Check::Certificate, &f).unwrap_err(),
            FallbackReason::BudgetExhausted
        );
    }

    #[test]
    fn non_finite_values_near_the_seed_fall_back_without_panicking() {
        let options = OptimizeOptions::default();
        // Non-finite plateau immediately left of the basin: the scan skips
        // it; neither check can reason about it, so both demote.
        let f = |x: f64| {
            if x < 140.0 {
                f64::INFINITY
            } else {
                (x.ln() - 150.0f64.ln()).powi(2)
            }
        };
        let reference = minimize_scalar(1.0, 1e6, options, f);
        for check in [Check::Certificate, SENTINELS] {
            let mut report = SearchReport::default();
            let fast =
                minimize_scalar_seeded(1.0, 1e6, options, Some(150.0), check, &mut report, f);
            assert_eq!(bits(&fast), bits(&reference));
            assert_eq!(report.fallback, 1);
            assert_eq!(
                try_fast(1.0, 1e6, options, Some(150.0), check, &f).unwrap_err(),
                FallbackReason::NonFiniteValue
            );
            // A seed landing *on* the non-finite plateau also demotes cleanly.
            assert_eq!(
                try_fast(1.0, 1e6, options, Some(2.0), check, &f).unwrap_err(),
                FallbackReason::NonFiniteValue
            );
        }
    }

    #[test]
    fn the_certificate_accepts_a_non_finite_right_tail() {
        let options = OptimizeOptions::nested();
        // The exact overhead's shape: one basin, then overflow on the right.
        // The minimum (grid point 2894) sits one grid cell left of the first
        // non-finite one (4924).
        let f = |t: f64| {
            if t > 3.5e3 {
                f64::INFINITY
            } else {
                600.0 / t + 1e-4 * t
            }
        };
        let reference = minimize_scalar(1.0, 1e9, options, f);
        let mut report = SearchReport::default();
        let fast = minimize_scalar_seeded(
            1.0,
            1e9,
            options,
            Some(2e3),
            Check::Certificate,
            &mut report,
            f,
        );
        assert_eq!(bits(&fast), bits(&reference));
        assert_eq!((report.fast, report.fallback), (1, 0), "{report:?}");
        // The sentinel check cannot tell a tail from a hole and demotes.
        assert_eq!(
            try_fast(1.0, 1e9, options, Some(2e3), SENTINELS, &f).unwrap_err(),
            FallbackReason::NonFiniteValue
        );
    }

    #[test]
    fn the_certificate_probes_only_the_descent_and_demotes_a_flat_minimum() {
        let options = OptimizeOptions::nested();
        let calls = Cell::new(0usize);
        let well = |x: f64| {
            calls.set(calls.get() + 1);
            (x.ln() - 5e4f64.ln()).powi(2) + 1.0
        };
        let mut report = SearchReport::default();
        let reference = minimize_scalar(1.0, 1e9, options, well);
        calls.set(0);
        let fast = minimize_scalar_seeded(
            1.0,
            1e9,
            options,
            Some(5e4),
            Check::Certificate,
            &mut report,
            well,
        );
        assert_eq!(bits(&fast), bits(&reference));
        let certified_calls = calls.get();
        calls.set(0);
        minimize_scalar_seeded(1.0, 1e9, options, Some(5e4), SENTINELS, &mut report, well);
        assert!(
            certified_calls + 5 <= calls.get(),
            "the certificate skips the 6 sentinels: {certified_calls} vs {}",
            calls.get()
        );
        assert_eq!(report.fallback, 0);

        // A plateau wider than a grid cell: the descent stops at its left
        // edge, whose right neighbour ties it, so the margin is not met.
        let plateau = |x: f64| (x.ln() - 1e5f64.ln()).abs().max(1.0);
        let reference = minimize_scalar(1.0, 1e9, options, plateau);
        assert_eq!(
            try_fast(1.0, 1e9, options, Some(1e5), Check::Certificate, &plateau).unwrap_err(),
            FallbackReason::MarginNotMet
        );
        let mut report = SearchReport::default();
        let fast = minimize_scalar_seeded(
            1.0,
            1e9,
            options,
            Some(1e5),
            Check::Certificate,
            &mut report,
            plateau,
        );
        assert_eq!(bits(&fast), bits(&reference));
        assert_eq!(report.fallback_count(FallbackReason::MarginNotMet), 1);
    }

    #[test]
    fn strict_sentinels_catch_a_deeper_remote_basin() {
        let options = OptimizeOptions::default();
        // Two wells; the seed points at the shallow one. The descent settles
        // there, but the sentinels spot the deeper well and demote, so the
        // result still matches the reference bit for bit. (The certificate
        // assumes one basin and must never be used on such an objective.)
        let f = |x: f64| {
            let shallow = (x.ln() - 10.0f64.ln()).powi(2) + 0.5;
            let deep = (x.ln() - 1e5f64.ln()).powi(2);
            shallow.min(deep)
        };
        let reference = minimize_scalar(1.0, 1e8, options, f);
        assert_eq!(
            try_fast(1.0, 1e8, options, Some(10.0), SENTINELS, &f).unwrap_err(),
            FallbackReason::SentinelDisagreement
        );
        // A valid lower bound that cannot rule out the deep well changes
        // nothing: its sentinels are still evaluated.
        let bound = |x: f64| f(x) - 0.1;
        assert_eq!(
            try_fast(
                1.0,
                1e8,
                options,
                Some(10.0),
                Check::Sentinels {
                    lower_bound: &bound
                },
                &f
            )
            .unwrap_err(),
            FallbackReason::SentinelDisagreement
        );
        let mut report = SearchReport::default();
        let seeded =
            minimize_scalar_seeded(1.0, 1e8, options, Some(10.0), SENTINELS, &mut report, f);
        assert_eq!(bits(&seeded), bits(&reference));
        assert_eq!(report.fallback, 1);
    }

    #[test]
    fn a_lower_bound_decides_sentinels_without_evaluating_them() {
        let options = OptimizeOptions::default();
        let calls = Cell::new(0usize);
        let f = |x: f64| {
            calls.set(calls.get() + 1);
            (x.ln() - 1e3f64.ln()).powi(2) + 1.0
        };
        let reference = minimize_scalar(1.0, 1e8, options, f);
        let unbounded = |check: Check<'_>| {
            calls.set(0);
            let mut report = SearchReport::default();
            let m = minimize_scalar_seeded(1.0, 1e8, options, Some(1e3), check, &mut report, f);
            assert_eq!(bits(&m), bits(&reference));
            assert_eq!(report.fast, 1);
            calls.get()
        };
        let all_sentinels = unbounded(SENTINELS);
        // The exact objective minus a little is a lower bound that clears
        // every sentinel away from the basin.
        let bound = |x: f64| (x.ln() - 1e3f64.ln()).powi(2) + 1.0 - 1e-3;
        let decided = unbounded(Check::Sentinels {
            lower_bound: &bound,
        });
        assert!(
            decided + 5 <= all_sentinels,
            "{decided} vs {all_sentinels} evaluations"
        );
    }

    #[test]
    fn degenerate_range_is_trivial_and_uncounted() {
        let mut report = SearchReport::default();
        let m = minimize_scalar_seeded(
            7.0,
            7.0,
            OptimizeOptions::default(),
            Some(7.0),
            Check::Certificate,
            &mut report,
            |x| x * 2.0,
        );
        assert_eq!(m.argument, 7.0);
        assert_eq!(m.value, 14.0);
        assert_eq!(report, SearchReport::default());
    }

    /// A first-order-shaped joint objective: `H(P)(1 + (cP + v)/T + ΛPT)`.
    /// Theorem 1's period is its period seed, and Theorem 1's overhead, its
    /// exact minimum over `T`, its envelope bound.
    mod first_order_shaped {
        const ALPHA: f64 = 0.1;
        const C: f64 = 300.0 / 512.0;
        const V: f64 = 15.4;
        const LAMBDA: f64 = (0.2188 / 2.0 + 0.7812) * 1.69e-8;

        fn overhead(p: f64) -> f64 {
            ALPHA + (1.0 - ALPHA) / p
        }

        pub fn h(p: f64, t: f64) -> f64 {
            overhead(p) * (1.0 + (C * p + V) / t + LAMBDA * p * t)
        }

        pub fn period_seed(p: f64) -> Option<f64> {
            Some(((C * p + V) / (LAMBDA * p)).sqrt())
        }

        pub fn envelope_bound(p: f64) -> f64 {
            overhead(p) * (1.0 + 2.0 * (LAMBDA * p * (C * p + V)).sqrt())
        }
    }

    fn assert_joint_bits_eq(fast: &JointResult, reference: &JointResult) {
        assert_eq!(fast.processors.to_bits(), reference.processors.to_bits());
        assert_eq!(fast.period.to_bits(), reference.period.to_bits());
        assert_eq!(fast.value.to_bits(), reference.value.to_bits());
        assert_eq!(fast.processors_integer, reference.processors_integer);
        assert_eq!(
            fast.value_integer.to_bits(),
            reference.value_integer.to_bits()
        );
    }

    #[test]
    fn joint_seeded_search_matches_the_reference_bit_for_bit() {
        use first_order_shaped::{envelope_bound, h, period_seed};
        let search = JointSearch::new((1.0, 1e6), (10.0, 1e8));
        let reference = search.optimize(h);
        let mut report = SearchReport::default();
        let fast = search.optimize_seeded(period_seed, envelope_bound, &mut report, |p| {
            move |t| h(p, t)
        });
        assert_joint_bits_eq(&fast, &reference);
        assert!(report.total() > 0);
        assert_eq!(report.fallback, 0, "{report:?}");
    }

    #[test]
    fn joint_seeded_search_builds_the_objective_once_per_sub_search() {
        // `at(p)` is the per-P objective: one build per seed-scan point, one
        // per period search (outer search included, via its envelope), and
        // one for the final value. Building it per evaluation instead would
        // call it hundreds of times more.
        use first_order_shaped::{envelope_bound, h, period_seed};
        let search = JointSearch::new((1.0, 1e6), (10.0, 1e8));
        let reference = search.optimize(h);
        let builds = Cell::new(0u64);
        let mut report = SearchReport::default();
        let fast = search.optimize_seeded(period_seed, envelope_bound, &mut report, |p| {
            builds.set(builds.get() + 1);
            move |t| h(p, t)
        });
        assert_joint_bits_eq(&fast, &reference);
        assert_eq!(
            builds.get(),
            search.outer.grid_points as u64 + report.total(),
            "{report:?}"
        );
    }

    #[test]
    fn joint_seeded_search_without_seeds_still_matches_via_fallback() {
        let search = JointSearch::new((1.0, 1e4), (1.0, 1e6));
        let f = |p: f64, t: f64| (p - 97.3).powi(2) / 1e4 + (t.ln() - 9.0).powi(2);
        let reference = search.optimize(f);
        let mut report = SearchReport::default();
        let fast = search.optimize_seeded(
            |_| None,
            |_| f64::NEG_INFINITY,
            &mut report,
            |p| move |t| f(p, t),
        );
        assert_eq!(fast.processors.to_bits(), reference.processors.to_bits());
        assert_eq!(fast.period.to_bits(), reference.period.to_bits());
        assert_eq!(fast.value.to_bits(), reference.value.to_bits());
        assert_eq!(report.fast, 0);
        assert!(report.fallback > 0);
        assert_eq!(
            report.fallback,
            report.fallback_count(FallbackReason::MissingSeed)
        );
    }

    #[test]
    fn reports_merge_and_rate() {
        let mut a = SearchReport {
            fast: 3,
            fallback: 1,
            brent_iterations: 40,
            fallback_reasons: [1, 0, 0, 0, 0],
        };
        let b = SearchReport {
            fast: 2,
            fallback: 4,
            brent_iterations: 12,
            fallback_reasons: [0, 1, 1, 1, 1],
        };
        a.merge(&b);
        assert_eq!(
            a,
            SearchReport {
                fast: 5,
                fallback: 5,
                brent_iterations: 52,
                fallback_reasons: [1, 1, 1, 1, 1],
            }
        );
        assert_eq!(a.total(), 10);
        assert!((a.fallback_rate() - 0.5).abs() < 1e-12);
        assert_eq!(SearchReport::default().fallback_rate(), 0.0);
        for reason in FallbackReason::ALL {
            assert_eq!(a.fallback_count(reason), 1);
            assert_eq!(FallbackReason::ALL[reason.index()], reason);
            assert!(!reason.as_str().is_empty());
        }
    }

    #[test]
    fn reports_tally_reasons_and_brent_iterations() {
        let options = OptimizeOptions::default();
        let f = |x: f64| (x.ln() - 5.0).powi(2);
        let mut report = SearchReport::default();
        // A fast-path search racks up Brent iterations…
        minimize_scalar_seeded(
            1.0,
            1e6,
            options,
            Some(5.0f64.exp()),
            Check::Certificate,
            &mut report,
            f,
        );
        assert_eq!(report.fast, 1);
        assert!(report.brent_iterations > 0, "{report:?}");
        // …and a missing seed lands in the matching reason bucket.
        minimize_scalar_seeded(1.0, 1e6, options, None, Check::Certificate, &mut report, f);
        assert_eq!(report.fallback, 1);
        assert_eq!(report.fallback_count(FallbackReason::MissingSeed), 1);
        assert_eq!(report.fallback_reasons.iter().sum::<u64>(), 1);
    }
}
