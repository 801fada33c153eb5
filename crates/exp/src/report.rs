//! Shape checks: comparing the reproduction's measured trends against the
//! paper's claims.
//!
//! Exact numbers are not expected to match the original study (the paper's own
//! results are simulation-based and ours use independently seeded simulations),
//! but the *shape* of each result — who wins, how quantities scale, where
//! crossovers occur — must hold. [`ShapeCheck`] records one such claim together
//! with the measured value, and [`render_checks`] summarises a list of them as a
//! table that EXPERIMENTS.md mirrors.

use crate::table::TextTable;

/// One verifiable claim extracted from the paper, together with what the
/// reproduction measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeCheck {
    /// Short identifier (e.g. `"fig5.P*.scenario1.slope"`).
    pub name: String,
    /// The value the paper predicts or reports.
    pub expected: f64,
    /// The value the reproduction measured.
    pub measured: f64,
    /// Acceptable absolute deviation.
    pub tolerance: f64,
}

impl ShapeCheck {
    /// Creates a check.
    pub fn new(name: impl Into<String>, expected: f64, measured: f64, tolerance: f64) -> Self {
        Self {
            name: name.into(),
            expected,
            measured,
            tolerance,
        }
    }

    /// Whether the measured value is within tolerance of the expectation.
    pub fn passes(&self) -> bool {
        (self.measured - self.expected).abs() <= self.tolerance
    }
}

/// Renders a list of checks as a pass/fail table.
pub fn render_checks(title: &str, checks: &[ShapeCheck]) -> TextTable {
    let mut table = TextTable::new(
        title,
        &["check", "expected", "measured", "tolerance", "status"],
    );
    for check in checks {
        table.push_row(vec![
            check.name.clone(),
            format!("{:.4}", check.expected),
            format!("{:.4}", check.measured),
            format!("{:.4}", check.tolerance),
            if check.passes() {
                "PASS".to_string()
            } else {
                "FAIL".to_string()
            },
        ]);
    }
    table
}

/// Counts how many checks pass.
pub fn passing(checks: &[ShapeCheck]) -> usize {
    checks.iter().filter(|c| c.passes()).count()
}

/// Builds the headline shape checks from a Figure 5 run (the asymptotic scaling
/// laws of Theorems 2 and 3) and a Figure 6 run (the `α = 0` regime).
pub fn headline_checks(
    fig5: &crate::figure5::Figure5Data,
    fig6: &crate::figure6::Figure6Data,
) -> Vec<ShapeCheck> {
    let mut checks = Vec::new();
    for s in &fig5.slopes {
        // The first-order series follows the theorems exactly; the numerical
        // optimum approaches the same asymptotics but converges more slowly for
        // scenario 5 (its b/P cost term is not negligible at λ_ind ≈ 1e-8).
        checks.push(ShapeCheck::new(
            format!("fig5.P*.scenario{}.slope.first-order", s.scenario),
            s.expected_processors_exponent,
            s.first_order_processors_exponent
                .unwrap_or(s.processors_exponent),
            0.03,
        ));
        checks.push(ShapeCheck::new(
            format!("fig5.T*.scenario{}.slope.first-order", s.scenario),
            s.expected_period_exponent,
            s.first_order_period_exponent.unwrap_or(s.period_exponent),
            0.03,
        ));
        checks.push(ShapeCheck::new(
            format!("fig5.P*.scenario{}.slope.numerical", s.scenario),
            s.expected_processors_exponent,
            s.processors_exponent,
            0.08,
        ));
        checks.push(ShapeCheck::new(
            format!("fig5.T*.scenario{}.slope.numerical", s.scenario),
            s.expected_period_exponent,
            s.period_exponent,
            if s.scenario == 5 { 0.15 } else { 0.08 },
        ));
    }
    for s in &fig6.slopes {
        checks.push(ShapeCheck::new(
            format!("fig6.P*.scenario{}.slope", s.scenario),
            s.expected_processors_exponent,
            s.processors_exponent,
            0.2,
        ));
        checks.push(ShapeCheck::new(
            format!("fig6.H.scenario{}.slope", s.scenario),
            s.expected_overhead_exponent,
            s.overhead_exponent,
            0.2,
        ));
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use ayd_sweep::RunOptions;

    #[test]
    fn pass_fail_logic() {
        assert!(ShapeCheck::new("x", -0.25, -0.26, 0.05).passes());
        assert!(!ShapeCheck::new("x", -0.25, -0.40, 0.05).passes());
        let checks = vec![
            ShapeCheck::new("a", 1.0, 1.0, 0.1),
            ShapeCheck::new("b", 1.0, 2.0, 0.1),
        ];
        assert_eq!(passing(&checks), 1);
        let table = render_checks("demo", &checks);
        let text = table.render();
        assert!(text.contains("PASS"));
        assert!(text.contains("FAIL"));
    }

    #[test]
    fn headline_checks_pass_on_analytical_sweeps() {
        let options = RunOptions {
            simulate: false,
            ..RunOptions::smoke()
        };
        let fig5 = crate::figure5::run_with(&[1e-11, 1e-10, 1e-9, 1e-8], 0.1, &options);
        let fig6 = crate::figure6::run_with(&[1e-10, 1e-9, 1e-8], &options);
        let checks = headline_checks(&fig5, &fig6);
        assert_eq!(checks.len(), 4 * 3 + 2 * 3);
        let pass = passing(&checks);
        assert!(
            pass >= checks.len() - 2,
            "{} / {} headline checks pass: {:?}",
            pass,
            checks.len(),
            checks.iter().filter(|c| !c.passes()).collect::<Vec<_>>()
        );
    }
}
