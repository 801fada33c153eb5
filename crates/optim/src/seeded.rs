//! Warm-started scalar and joint minimisation, bit-identical to the reference.
//!
//! [`minimize_scalar_seeded`] reproduces [`crate::scalar::minimize_scalar`]
//! exactly — same grid points, same tie rules, same Brent refinement on the
//! same bracket — while skipping most of the coarse grid scan: a seed (e.g. a
//! first-order closed form such as Theorem 1's `T*_P`) predicts the grid index
//! of the minimum, a hill descent over grid indices locates the exact index the
//! reference scan would select, and only then does the identical Brent
//! refinement run on the identical neighbour bracket. Because every probed
//! grid point is computed with [`crate::grid::log_space_point`] (the same
//! floating-point expression as the full scan) and the refinement call is
//! unchanged, a successful fast path returns the reference result bit for bit.
//!
//! The fast path is only valid when the objective is unimodal over the grid
//! indices (the hill descent then provably lands on the scan's argmin,
//! including its first-smallest tie rule). Whenever that cannot be
//! established — no seed, a non-finite value near the basin, a descent that
//! walks too far, or a sentinel probe that beats the located basin — the call
//! self-demotes and runs the reference search instead, so the result is
//! bit-identical in every case. Each call reports which path it took
//! through a [`SearchReport`], making fallback rates assertable and
//! observable.

use crate::brent::brent_minimize_counted;
use crate::grid::log_space_point;
use crate::integer::round_to_best_integer;
use crate::joint::{JointResult, JointSearch};
use crate::scalar::{minimize_scalar, OptimizeOptions, ScalarMinimum};

/// Maximum number of hill-descent steps before the seed is declared bad and
/// the call falls back to the reference scan. The closed-form seeds land
/// within a few grid cells of the optimum; a longer walk signals either a poor
/// seed or a non-unimodal objective, and the full scan is both safer and not
/// much slower at that point.
const DESCENT_BUDGET: usize = 12;

/// Grid-index stride of the sentinel probes: every `SENTINEL_STRIDE`-th grid
/// point is evaluated and compared against the located basin, so a secondary
/// basin wider than one stride cannot go unnoticed.
const SENTINEL_STRIDE: usize = 8;

/// Why a seeded search fell back to the reference scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// No seed was supplied (e.g. the profile family has no closed form), or
    /// the seed was non-finite or non-positive.
    MissingSeed,
    /// The objective was non-finite at a probed grid point, so the descent
    /// cannot prove it matched the scan's non-finite-skipping tie rule.
    NonFiniteValue,
    /// The hill descent exhausted its step budget without settling.
    BudgetExhausted,
    /// A sentinel probe found a grid point at least as good as the located
    /// basin (the objective is not unimodal at grid resolution).
    SentinelDisagreement,
}

impl FallbackReason {
    /// Every reason, in [`FallbackReason::index`] order.
    pub const ALL: [FallbackReason; 4] = [
        FallbackReason::MissingSeed,
        FallbackReason::NonFiniteValue,
        FallbackReason::BudgetExhausted,
        FallbackReason::SentinelDisagreement,
    ];

    /// Stable index of this reason into [`SearchReport::fallback_reasons`].
    pub fn index(self) -> usize {
        match self {
            FallbackReason::MissingSeed => 0,
            FallbackReason::NonFiniteValue => 1,
            FallbackReason::BudgetExhausted => 2,
            FallbackReason::SentinelDisagreement => 3,
        }
    }

    /// Kebab-case label, used as a metric/span field name.
    pub fn as_str(self) -> &'static str {
        match self {
            FallbackReason::MissingSeed => "missing-seed",
            FallbackReason::NonFiniteValue => "non-finite-value",
            FallbackReason::BudgetExhausted => "budget-exhausted",
            FallbackReason::SentinelDisagreement => "sentinel-disagreement",
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
    pub fallback_reasons: [u64; 4],
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
/// with [`log_space_point`] (bit-identical to the full scan) and each index is
/// evaluated at most once.
struct GridMemo<'a, F> {
    lo: f64,
    hi: f64,
    n: usize,
    f: &'a F,
    values: Vec<Option<f64>>,
}

impl<'a, F: Fn(f64) -> f64> GridMemo<'a, F> {
    fn new(lo: f64, hi: f64, n: usize, f: &'a F) -> Self {
        Self {
            lo,
            hi,
            n,
            f,
            values: vec![None; n],
        }
    }

    fn point(&self, i: usize) -> f64 {
        log_space_point(self.lo, self.hi, self.n, i)
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
    let (llo, lhi) = (lo.ln(), hi.ln());
    let step = (lhi - llo) / (n as f64 - 1.0);
    let guess = ((seed.ln() - llo) / step).round();
    if !guess.is_finite() {
        return Err(FallbackReason::MissingSeed);
    }
    let mut best = (guess.max(0.0) as usize).min(n - 1);

    // Hill descent with the reference scan's exact tie rules: the scan keeps
    // the *first* index whose finite value is strictly smallest, so descend
    // left on `<=` (crossing plateaus to their left edge) and right only on
    // strict improvement. On a unimodal index sequence this provably lands on
    // the scan's argmin. Any non-finite probe voids that proof — the scan
    // skips non-finite values entirely — so it demotes to the reference.
    let mut memo = GridMemo::new(lo, hi, n, f);
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
            if !right.is_finite() {
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
    // Sentinel probes: a coarse sub-scan that must not beat the located
    // basin. A strictly better sentinel — or an equal one at a smaller
    // index, which the scan's first-smallest rule would prefer — demotes the
    // call. Non-finite sentinels are skipped exactly like the scan skips
    // them.
    for i in (0..n).step_by(SENTINEL_STRIDE) {
        let v = memo.value(i);
        if v.is_finite() && (v < f0 || (v == f0 && i < best)) {
            return Err(FallbackReason::SentinelDisagreement);
        }
    }
    let last = memo.value(n - 1);
    if last.is_finite() && last < f0 {
        return Err(FallbackReason::SentinelDisagreement);
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
/// minimum (e.g. a first-order closed form), letting the coarse grid scan be
/// replaced by a short hill descent. The result is bit-identical to the
/// reference search: either the fast path proves it located the scan's argmin
/// and runs the identical refinement, or the call falls back to
/// [`minimize_scalar`] itself. Sentinel probes demote the call when the
/// objective is not unimodal at grid resolution.
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
    match try_fast(lo, hi, options, seed, &f) {
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
    /// [`JointSearch::optimize_period`] with a warm start (see
    /// [`minimize_scalar_seeded`]).
    pub fn optimize_period_seeded<F>(
        &self,
        p: f64,
        seed: Option<f64>,
        report: &mut SearchReport,
        f: F,
    ) -> ScalarMinimum
    where
        F: Fn(f64, f64) -> f64,
    {
        minimize_scalar_seeded(
            self.period_range.0,
            self.period_range.1,
            self.inner,
            seed,
            report,
            |t| f(p, t),
        )
    }

    /// [`JointSearch::optimize`] with warm starts on both dimensions:
    /// `processor_seed` seeds the outer envelope search (the closed-form `P*`
    /// of Theorem 2/3, when it exists) and `period_seed(p)` seeds every inner
    /// period search (Theorem 1's `T*_P`). Every scalar sub-search is bit
    /// -identical to its reference counterpart (fast-path proof or fallback),
    /// so the returned [`JointResult`] matches [`JointSearch::optimize`] bit
    /// for bit; `report` accumulates the per-sub-search fast/fallback tallies.
    pub fn optimize_seeded<F, S>(
        &self,
        processor_seed: Option<f64>,
        period_seed: S,
        report: &mut SearchReport,
        f: F,
    ) -> JointResult
    where
        F: Fn(f64, f64) -> f64,
        S: Fn(f64) -> Option<f64>,
    {
        // The envelope closure runs inside the outer search, which already
        // holds `report` mutably — tally the inner sub-searches in a cell and
        // merge at the end.
        let inner_tally = std::cell::RefCell::new(SearchReport::default());
        let inner = |p: f64| -> ScalarMinimum {
            let seed = period_seed(p);
            let mut tally = inner_tally.borrow_mut();
            self.optimize_period_seeded(p, seed, &mut tally, &f)
        };
        let envelope = |p: f64| inner(p).value;
        let mut outer_report = SearchReport::default();
        let outer_min = minimize_scalar_seeded(
            self.processor_range.0,
            self.processor_range.1,
            self.outer,
            processor_seed,
            &mut outer_report,
            envelope,
        );
        let processors = outer_min.argument;
        let period = inner(processors).argument;
        let value = f(processors, period);
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

    fn bits(m: &ScalarMinimum) -> (u64, u64) {
        (m.argument.to_bits(), m.value.to_bits())
    }

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
            let mut report = SearchReport::default();
            let fast = minimize_scalar_seeded(1.0, 1e9, options, Some(*seed), &mut report, f);
            assert_eq!(bits(&fast), bits(&reference), "seed {seed}");
            assert_eq!(report.fast, 1, "seed {seed}");
            assert_eq!(report.fallback, 0, "seed {seed}");
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
            let fast =
                minimize_scalar_seeded(1.0, 1e9, options, Some(target * factor), &mut report, f);
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
            let fast = minimize_scalar_seeded(1.0, 1e6, options, seed, &mut report, f);
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
        let fast = minimize_scalar_seeded(1.0, 1e9, options, Some(1.5), &mut report, f);
        assert_eq!(bits(&fast), bits(&reference));
        assert_eq!(report.fallback, 1);
        assert_eq!(
            try_fast(1.0, 1e9, options, Some(1.5), &f).unwrap_err(),
            FallbackReason::BudgetExhausted
        );
    }

    #[test]
    fn non_finite_values_near_the_seed_fall_back_without_panicking() {
        let options = OptimizeOptions::default();
        // Non-finite plateau immediately next to the basin: the scan skips
        // it; the fast path must refuse to reason about it and demote.
        let f = |x: f64| {
            if x < 140.0 {
                f64::INFINITY
            } else {
                (x.ln() - 150.0f64.ln()).powi(2)
            }
        };
        let reference = minimize_scalar(1.0, 1e6, options, f);
        let mut report = SearchReport::default();
        let fast = minimize_scalar_seeded(1.0, 1e6, options, Some(150.0), &mut report, f);
        assert_eq!(bits(&fast), bits(&reference));
        assert_eq!(report.fallback, 1);
        assert_eq!(
            try_fast(1.0, 1e6, options, Some(150.0), &f).unwrap_err(),
            FallbackReason::NonFiniteValue
        );
        // A seed landing *on* the non-finite plateau also demotes cleanly.
        assert_eq!(
            try_fast(1.0, 1e6, options, Some(2.0), &f).unwrap_err(),
            FallbackReason::NonFiniteValue
        );
    }

    #[test]
    fn strict_sentinels_catch_a_deeper_remote_basin() {
        let options = OptimizeOptions::default();
        // Two wells; the seed points at the shallow one. The descent settles
        // there, but the sentinels spot the deeper well and demote, so the
        // result still matches the reference bit for bit.
        let f = |x: f64| {
            let shallow = (x.ln() - 10.0f64.ln()).powi(2) + 0.5;
            let deep = (x.ln() - 1e5f64.ln()).powi(2);
            shallow.min(deep)
        };
        let reference = minimize_scalar(1.0, 1e8, options, f);
        assert_eq!(
            try_fast(1.0, 1e8, options, Some(10.0), &f).unwrap_err(),
            FallbackReason::SentinelDisagreement
        );
        let mut report = SearchReport::default();
        let seeded = minimize_scalar_seeded(1.0, 1e8, options, Some(10.0), &mut report, f);
        assert_eq!(bits(&seeded), bits(&reference));
        assert_eq!(report.fallback, 1);
    }

    #[test]
    fn degenerate_range_is_trivial_and_uncounted() {
        let mut report = SearchReport::default();
        let m = minimize_scalar_seeded(
            7.0,
            7.0,
            OptimizeOptions::default(),
            Some(7.0),
            &mut report,
            |x| x * 2.0,
        );
        assert_eq!(m.argument, 7.0);
        assert_eq!(m.value, 14.0);
        assert_eq!(report, SearchReport::default());
    }

    #[test]
    fn joint_seeded_search_matches_the_reference_bit_for_bit() {
        // The first-order-shaped objective of the joint tests, with the
        // Theorem-2 closed forms as seeds (the production wiring).
        let alpha = 0.1;
        let c = 300.0 / 512.0;
        let v = 15.4;
        let lam = (0.2188 / 2.0 + 0.7812) * 1.69e-8;
        let h =
            |p: f64, t: f64| (alpha + (1.0 - alpha) / p) * (1.0 + (c * p + v) / t + lam * p * t);
        let search = JointSearch::new((1.0, 1e6), (10.0, 1e8));
        let reference = search.optimize(h);
        let p_star = (1.0 / (c * lam)).powf(0.25) * ((1.0 - alpha) / (2.0 * alpha)).sqrt();
        let mut report = SearchReport::default();
        let fast = search.optimize_seeded(
            Some(p_star),
            |p| Some(((c * p + v) / (lam * p)).sqrt()),
            &mut report,
            h,
        );
        assert_eq!(fast.processors.to_bits(), reference.processors.to_bits());
        assert_eq!(fast.period.to_bits(), reference.period.to_bits());
        assert_eq!(fast.value.to_bits(), reference.value.to_bits());
        assert_eq!(fast.processors_integer, reference.processors_integer);
        assert_eq!(
            fast.value_integer.to_bits(),
            reference.value_integer.to_bits()
        );
        assert!(report.total() > 0);
        assert_eq!(report.fallback, 0, "{report:?}");
    }

    #[test]
    fn joint_seeded_search_without_seeds_still_matches_via_fallback() {
        let search = JointSearch::new((1.0, 1e4), (1.0, 1e6));
        let f = |p: f64, t: f64| (p - 97.3).powi(2) / 1e4 + (t.ln() - 9.0).powi(2);
        let reference = search.optimize(f);
        let mut report = SearchReport::default();
        let fast = search.optimize_seeded(None, |_| None, &mut report, f);
        assert_eq!(fast.processors.to_bits(), reference.processors.to_bits());
        assert_eq!(fast.period.to_bits(), reference.period.to_bits());
        assert_eq!(fast.value.to_bits(), reference.value.to_bits());
        assert_eq!(report.fast, 0);
        assert!(report.fallback > 0);
    }

    #[test]
    fn reports_merge_and_rate() {
        let mut a = SearchReport {
            fast: 3,
            fallback: 1,
            brent_iterations: 40,
            fallback_reasons: [1, 0, 0, 0],
        };
        let b = SearchReport {
            fast: 1,
            fallback: 3,
            brent_iterations: 12,
            fallback_reasons: [0, 1, 1, 1],
        };
        a.merge(&b);
        assert_eq!(
            a,
            SearchReport {
                fast: 4,
                fallback: 4,
                brent_iterations: 52,
                fallback_reasons: [1, 1, 1, 1],
            }
        );
        assert_eq!(a.total(), 8);
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
        minimize_scalar_seeded(1.0, 1e6, options, Some(5.0f64.exp()), &mut report, f);
        assert_eq!(report.fast, 1);
        assert!(report.brent_iterations > 0, "{report:?}");
        // …and a missing seed lands in the matching reason bucket.
        minimize_scalar_seeded(1.0, 1e6, options, None, &mut report, f);
        assert_eq!(report.fallback, 1);
        assert_eq!(report.fallback_count(FallbackReason::MissingSeed), 1);
        assert_eq!(report.fallback_reasons.iter().sum::<u64>(), 1);
    }
}
