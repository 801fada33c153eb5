//! Validity region of the first-order approximation and asymptotic-order fitting.
//!
//! Section III.B of the paper bounds the orders of `P` and `T` (as powers of
//! `λ_ind`) for which the Taylor expansions behind the first-order results are
//! legitimate. Writing `P = Θ(λ_ind^{-x})` and `T = Θ(λ_ind^{-y})`:
//!
//! ```text
//! x < δ,   with δ = 1/2 if c ≠ 0 and δ = 1 otherwise        (Ineq. (5))
//! y < 1 - x                                                 (Ineq. (6))
//! ```
//!
//! (plus `x < 1/2` in the fully decreasing-cost case `c = d = 0` so that `y > 0`).
//!
//! This module also provides a small least-squares power-law fitter used by the
//! experiments to verify the asymptotic slopes of Figures 5 and 6
//! (`P* = Θ(λ^{-1/4})`, `Θ(λ^{-1/3})`, `T* = Θ(λ^{-1/2})`, ...).

use crate::cost::ResilienceCosts;

/// Validity bounds of the first-order approximation for a given cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidityBounds {
    /// Maximum admissible order `δ` of the processor count (`P = Θ(λ^{-x})`
    /// requires `x < δ`).
    pub max_processor_order: f64,
    /// Whether the cost model is fully decreasing (`c = d = 0`), which adds the
    /// extra requirement `x < 1/2` so that the optimal period keeps a positive
    /// order.
    pub fully_decreasing: bool,
}

impl ValidityBounds {
    /// Derives the bounds from a resilience cost model (Inequality (5)).
    pub fn for_costs(costs: &ResilienceCosts) -> Self {
        let fully_decreasing = costs.c() == 0.0 && costs.d() == 0.0;
        let max_processor_order = if costs.c() > 0.0 { 0.5 } else { 1.0 };
        Self {
            max_processor_order,
            fully_decreasing,
        }
    }

    /// The effective upper bound on `x` (the processor order), accounting for the
    /// extra `x < 1/2` constraint of the fully decreasing case.
    pub fn effective_processor_order_bound(&self) -> f64 {
        if self.fully_decreasing {
            self.max_processor_order.min(0.5)
        } else {
            self.max_processor_order
        }
    }

    /// The order `x` of a concrete processor count with respect to `λ_ind`,
    /// i.e. the exponent such that `P = λ_ind^{-x}`.
    pub fn processor_order(p: f64, lambda_ind: f64) -> f64 {
        assert!(p >= 1.0 && lambda_ind > 0.0 && lambda_ind < 1.0);
        p.ln() / (1.0 / lambda_ind).ln()
    }

    /// The order `y` of a concrete period with respect to `λ_ind`
    /// (`T = λ_ind^{-y}`).
    pub fn period_order(t: f64, lambda_ind: f64) -> f64 {
        assert!(t > 0.0 && lambda_ind > 0.0 && lambda_ind < 1.0);
        t.ln() / (1.0 / lambda_ind).ln()
    }

    /// Checks whether a concrete operating point `(T, P)` lies inside the validity
    /// region (Inequalities (5) and (6)) for an individual error rate `λ_ind`.
    pub fn contains(&self, t: f64, p: f64, lambda_ind: f64) -> bool {
        let x = Self::processor_order(p, lambda_ind);
        let y = Self::period_order(t, lambda_ind);
        x < self.effective_processor_order_bound() && y < 1.0 - x
    }
}

/// Result of a least-squares power-law fit `y ≈ k · x^e` (performed in log-log
/// space).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawFit {
    /// Fitted exponent `e`.
    pub exponent: f64,
    /// Fitted multiplicative constant `k`.
    pub constant: f64,
    /// Coefficient of determination of the fit in log-log space.
    pub r_squared: f64,
}

/// Fits `y ≈ k · x^e` by ordinary least squares on `(ln x, ln y)`.
///
/// Used by the experiments to verify asymptotic slopes, e.g. that the numerical
/// `P*(λ_ind)` follows `λ_ind^{-1/4}` under scenario 1 (Figure 5a).
///
/// # Panics
/// Panics if fewer than two points are supplied or if any coordinate is not
/// strictly positive.
pub fn fit_power_law(points: &[(f64, f64)]) -> PowerLawFit {
    assert!(
        points.len() >= 2,
        "need at least two points to fit a power law"
    );
    let logs: Vec<(f64, f64)> = points
        .iter()
        .map(|&(x, y)| {
            assert!(
                x > 0.0 && y > 0.0,
                "power-law fit requires positive coordinates"
            );
            (x.ln(), y.ln())
        })
        .collect();
    let n = logs.len() as f64;
    let mean_x = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for &(x, y) in &logs {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
        syy += (y - mean_y) * (y - mean_y);
    }
    assert!(
        sxx > 0.0,
        "all x coordinates are identical; exponent is undefined"
    );
    let exponent = sxy / sxx;
    let intercept = mean_y - exponent * mean_x;
    let r_squared = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    PowerLawFit {
        exponent,
        constant: intercept.exp(),
        r_squared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CheckpointCost, VerificationCost};

    fn costs(c: CheckpointCost, v: VerificationCost) -> ResilienceCosts {
        ResilienceCosts::new(c, v, 3600.0).unwrap()
    }

    #[test]
    fn delta_is_half_for_linear_costs_and_one_otherwise() {
        let linear = costs(
            CheckpointCost::linear(0.5),
            VerificationCost::constant(10.0),
        );
        assert_eq!(ValidityBounds::for_costs(&linear).max_processor_order, 0.5);
        let constant = costs(
            CheckpointCost::constant(300.0),
            VerificationCost::constant(10.0),
        );
        assert_eq!(
            ValidityBounds::for_costs(&constant).max_processor_order,
            1.0
        );
        let decreasing = costs(
            CheckpointCost::per_processor(1000.0),
            VerificationCost::per_processor(10.0),
        );
        let b = ValidityBounds::for_costs(&decreasing);
        assert!(b.fully_decreasing);
        assert_eq!(b.effective_processor_order_bound(), 0.5);
    }

    #[test]
    fn orders_are_logarithmic_exponents() {
        let lambda = 1e-8;
        // P = λ^{-1/4} = 1e2 → x = 0.25.
        let x = ValidityBounds::processor_order(100.0, lambda);
        assert!((x - 0.25).abs() < 1e-12);
        let y = ValidityBounds::period_order(1e4, lambda);
        assert!((y - 0.5).abs() < 1e-12);
    }

    #[test]
    fn contains_respects_both_inequalities() {
        let linear = costs(
            CheckpointCost::linear(0.5),
            VerificationCost::constant(10.0),
        );
        let b = ValidityBounds::for_costs(&linear);
        let lambda = 1e-8;
        // x = 0.25, y = 0.5: valid (0.25 < 0.5 and 0.5 < 0.75).
        assert!(b.contains(1e4, 1e2, lambda));
        // x = 0.75 > δ: invalid even though y is small.
        assert!(!b.contains(10.0, 1e6, lambda));
        // y too large: x = 0.25, y = 0.9 > 0.75.
        assert!(!b.contains(10f64.powf(7.2), 1e2, lambda));
    }

    #[test]
    fn fit_recovers_exact_power_law() {
        let pts: Vec<(f64, f64)> = (1..=20)
            .map(|i| (i as f64, 3.5 * (i as f64).powf(-0.25)))
            .collect();
        let fit = fit_power_law(&pts);
        assert!((fit.exponent + 0.25).abs() < 1e-10);
        assert!((fit.constant - 3.5).abs() < 1e-9);
        assert!(fit.r_squared > 0.999999);
    }

    #[test]
    fn fit_handles_noiseless_two_points() {
        let fit = fit_power_law(&[(1.0, 2.0), (4.0, 8.0)]);
        assert!((fit.exponent - 1.0).abs() < 1e-12);
        assert!((fit.constant - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn fit_rejects_single_point() {
        let _ = fit_power_law(&[(1.0, 1.0)]);
    }

    #[test]
    #[should_panic]
    fn fit_rejects_non_positive_coordinates() {
        let _ = fit_power_law(&[(1.0, 1.0), (2.0, -3.0)]);
    }
}
