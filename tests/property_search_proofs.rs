//! Property tests of the numerical premises behind the warm-started search's
//! proofs (`ayd_optim::seeded`, docs/ARCHITECTURE.md's determinism contract).
//!
//! * The period search accepts its descent's index by a certificate, which
//!   is sound when the exact overhead `H(T, P)` is quasiconvex in `T` and
//!   non-finite only on a right-hand tail. On the inner search's 40-point
//!   grid the values must therefore fall strictly to one minimum, rise
//!   strictly after it, and, once non-finite, stay non-finite; the minimum's
//!   neighbours must also clear the certificate's margin, or the certificate
//!   would demote the search.
//! * The processor search skips every sentinel whose
//!   `FirstOrder::overhead_lower_bound` exceeds the located basin, so the
//!   bound must never exceed the reference period search's value.
//!
//! Both are checked at every point of two outer grids: the default search
//! (`P` in `[1, 1e7]`, `T` in `[1, 1e9]`) and Figure 6's (`P` in `[1, 1e14]`,
//! `T` in `[1e-2, 1e9]`), over every profile family, all six scenarios,
//! fail-stop fractions 0, the platform's and 1, and λ up to 50× the
//! platform's.

use proptest::prelude::*;

use ayd_core::{ExactModel, FailureModel, FirstOrder, SpeedupProfile};
use ayd_optim::grid::log_space;
use ayd_optim::seeded::MARGIN;
use ayd_optim::JointSearch;
use ayd_platforms::{ExperimentSetup, Platform, PlatformId, ScenarioId};

/// The default search and Figure 6's, as `(processor range, period range)`.
const SEARCHES: [((f64, f64), (f64, f64)); 2] =
    [((1.0, 1e7), (1.0, 1e9)), ((1.0, 1e14), (1e-2, 1e9))];

/// A random model: any profile family, platform and scenario, a fail-stop
/// fraction of 0, the platform's or 1, and a log-uniform λ multiplier in
/// [1, 50].
fn arb_model() -> impl Strategy<Value = ExactModel> {
    (
        0usize..4,
        0usize..6,
        0usize..4,
        0.02f64..0.95,
        0usize..3,
        0.0f64..1.0,
    )
        .prop_map(|(platform, scenario, family, param, fail_stop, unit)| {
            let platform = PlatformId::ALL[platform];
            let profile = match family {
                0 => SpeedupProfile::amdahl(param).unwrap(),
                1 => SpeedupProfile::power_law(param).unwrap(),
                2 => SpeedupProfile::gustafson(param).unwrap(),
                _ => SpeedupProfile::perfectly_parallel(),
            };
            let data = Platform::get(platform);
            let fail_stop = [0.0, data.fail_stop_fraction, 1.0][fail_stop];
            let lambda = data.lambda_ind * 10f64.powf(unit * 50f64.log10());
            ExperimentSetup::paper_default(platform, ScenarioId::ALL[scenario])
                .with_profile(profile)
                .model()
                .unwrap()
                .with_failures(FailureModel::new(lambda, fail_stop).unwrap())
        })
}

/// Every `(search, P)` pair of the outer grids of [`SEARCHES`].
fn outer_points() -> Vec<(JointSearch, f64)> {
    SEARCHES
        .iter()
        .flat_map(|&(processors, periods)| {
            let search = JointSearch::new(processors, periods);
            log_space(processors.0, processors.1, search.outer.grid_points)
                .into_iter()
                .map(move |p| (search, p))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The lower bound never exceeds the reference period search's value,
    /// wherever that value is finite.
    #[test]
    fn overhead_lower_bound_never_exceeds_the_reference_envelope(model in arb_model()) {
        let first_order = FirstOrder::new(&model);
        for (search, p) in outer_points() {
            let value = search
                .optimize_period(p, |pp, t| model.expected_overhead(t, pp))
                .value;
            let bound = first_order.overhead_lower_bound(p);
            prop_assert!(
                !value.is_finite() || bound <= value,
                "P={p}: bound {bound} > envelope {value} ({model:?})"
            );
        }
    }

    /// On the inner search's grid the exact overhead falls strictly to one
    /// minimum and rises strictly after it, turns non-finite only on a
    /// right-hand tail, and its minimum's neighbours clear the margin.
    #[test]
    fn period_objective_is_unimodal_with_a_certifiable_minimum(model in arb_model()) {
        for (search, p) in outer_points() {
            let (lo, hi) = search.period_range;
            let values: Vec<f64> = log_space(lo, hi, search.inner.grid_points)
                .into_iter()
                .map(|t| model.expected_overhead(t, p))
                .collect();
            let finite = values.iter().take_while(|v| v.is_finite()).count();
            prop_assert!(
                values[finite..].iter().all(|v| !v.is_finite()),
                "P={p}: a finite value follows a non-finite one ({model:?})"
            );
            if finite == 0 {
                continue;
            }
            let values = &values[..finite];
            let m = (0..finite).fold(0, |m, i| if values[i] < values[m] { i } else { m });
            prop_assert!(
                values[..=m].windows(2).all(|w| w[0] - w[1] > MARGIN * w[1].abs())
                    && values[m..].windows(2).all(|w| w[1] - w[0] > MARGIN * w[0].abs()),
                "P={p}: not unimodal with margin {MARGIN} around index {m}: {values:?} ({model:?})"
            );
        }
    }
}
