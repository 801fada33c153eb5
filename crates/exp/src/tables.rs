//! Reproduction of Table II (platform parameters) and Table III (resilience
//! scenarios, plus the cost coefficients fitted to each platform).

use ayd_platforms::{Platform, Scenario};

use crate::table::{fmt_value, TextTable};

/// Data behind the Table II reproduction.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// The four platforms, in paper order.
    pub platforms: Vec<Platform>,
}

/// One row of the Table III reproduction: a scenario and the coefficients fitted
/// to a platform.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Scenario number (1–6).
    pub scenario: usize,
    /// Shape of the checkpoint cost (`cP`, `a` or `b/P`) as printed in the paper.
    pub checkpoint_shape: String,
    /// Shape of the verification cost (`v` or `u/P`).
    pub verification_shape: String,
    /// Platform the coefficients are fitted for.
    pub platform: String,
    /// Fitted linear coefficient `c` (zero when not applicable).
    pub c: f64,
    /// Fitted constant checkpoint coefficient `a`.
    pub a: f64,
    /// Fitted per-processor checkpoint coefficient `b`.
    pub b: f64,
    /// Fitted constant verification coefficient `v`.
    pub v: f64,
    /// Fitted per-processor verification coefficient `u`.
    pub u: f64,
}

/// Data behind the Table III reproduction.
#[derive(Debug, Clone)]
pub struct Table3 {
    /// One row per (scenario, platform) pair.
    pub rows: Vec<Table3Row>,
}

/// Builds the Table II data.
pub fn table2() -> Table2 {
    Table2 {
        platforms: Platform::all(),
    }
}

/// Renders Table II as text.
pub fn render_table2(data: &Table2) -> TextTable {
    let mut table = TextTable::new(
        "Table II — platform parameters",
        &[
            "platform",
            "lambda_ind",
            "f",
            "s",
            "P",
            "C_P (s)",
            "V_P (s)",
            "MTBF_ind (years)",
        ],
    );
    for p in &data.platforms {
        table.push_row(vec![
            p.id.name().to_string(),
            format!("{:.2e}", p.lambda_ind),
            format!("{:.4}", p.fail_stop_fraction),
            format!("{:.4}", p.silent_fraction()),
            p.measured_processors.to_string(),
            fmt_value(p.measured_checkpoint),
            fmt_value(p.measured_verification),
            format!("{:.1}", p.mtbf_ind_years()),
        ]);
    }
    table
}

fn shape_strings(scenario: &Scenario) -> (String, String) {
    use ayd_platforms::{CostShape, VerificationShape};
    let c = match scenario.checkpoint {
        CostShape::Linear => "cP",
        CostShape::Constant => "a",
        CostShape::PerProcessor => "b/P",
    };
    let v = match scenario.verification {
        VerificationShape::Constant => "v",
        VerificationShape::PerProcessor => "u/P",
    };
    (c.to_string(), v.to_string())
}

/// Builds the Table III data: the six scenarios and, for every platform, the
/// coefficients fitted from its Table II measurements.
pub fn table3() -> Table3 {
    let mut rows = Vec::new();
    for scenario in Scenario::all() {
        let (checkpoint_shape, verification_shape) = shape_strings(&scenario);
        for platform in Platform::all() {
            let costs = scenario
                .fit(&platform, 3600.0)
                .expect("embedded platform parameters always fit");
            rows.push(Table3Row {
                scenario: scenario.id.number(),
                checkpoint_shape: checkpoint_shape.clone(),
                verification_shape: verification_shape.clone(),
                platform: platform.id.name().to_string(),
                c: costs.checkpoint.c,
                a: costs.checkpoint.a,
                b: costs.checkpoint.b,
                v: costs.verification.v,
                u: costs.verification.u,
            });
        }
    }
    Table3 { rows }
}

/// Renders Table III (with fitted coefficients) as text.
pub fn render_table3(data: &Table3) -> TextTable {
    let mut table = TextTable::new(
        "Table III — resilience scenarios and fitted cost coefficients",
        &[
            "scenario", "C_P,R_P", "V_P", "platform", "c", "a", "b", "v", "u",
        ],
    );
    for row in &data.rows {
        table.push_row(vec![
            row.scenario.to_string(),
            row.checkpoint_shape.clone(),
            row.verification_shape.clone(),
            row.platform.clone(),
            fmt_value(row.c),
            fmt_value(row.a),
            fmt_value(row.b),
            fmt_value(row.v),
            fmt_value(row.u),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_four_platforms_in_paper_order() {
        let data = table2();
        assert_eq!(data.platforms.len(), 4);
        let rendered = render_table2(&data).render();
        assert!(rendered.contains("Hera"));
        assert!(rendered.contains("Coastal SSD"));
        assert!(rendered.contains("1.69e-8") || rendered.contains("1.69e-08"));
    }

    #[test]
    fn table3_has_one_row_per_scenario_platform_pair() {
        let data = table3();
        assert_eq!(data.rows.len(), 6 * 4);
        // Scenario 1 on Hera: c = 300/512, no other checkpoint coefficient.
        let row = data
            .rows
            .iter()
            .find(|r| r.scenario == 1 && r.platform == "Hera")
            .unwrap();
        assert!((row.c - 300.0 / 512.0).abs() < 1e-12);
        assert_eq!(row.a, 0.0);
        assert_eq!(row.b, 0.0);
        assert_eq!(row.v, 15.4);
        // Scenario 6 on Atlas: b = 439*1024, u = 9.1*1024.
        let row = data
            .rows
            .iter()
            .find(|r| r.scenario == 6 && r.platform == "Atlas")
            .unwrap();
        assert!((row.b - 439.0 * 1024.0).abs() < 1e-6);
        assert!((row.u - 9.1 * 1024.0).abs() < 1e-6);
        assert_eq!(row.c, 0.0);
    }

    #[test]
    fn table3_shapes_match_scenario_ids() {
        let data = table3();
        for row in &data.rows {
            match row.scenario {
                1 | 2 => assert_eq!(row.checkpoint_shape, "cP"),
                3 | 4 => assert_eq!(row.checkpoint_shape, "a"),
                5 | 6 => assert_eq!(row.checkpoint_shape, "b/P"),
                _ => unreachable!(),
            }
            if row.scenario % 2 == 1 {
                assert_eq!(row.verification_shape, "v");
            } else {
                assert_eq!(row.verification_shape, "u/P");
            }
        }
    }

    #[test]
    fn rendered_tables_are_csv_exportable() {
        let t2 = render_table2(&table2());
        let csv = t2.to_csv();
        assert_eq!(csv.lines().count(), 1 + 4);
        let t3 = render_table3(&table3());
        assert_eq!(t3.to_csv().lines().count(), 1 + 24);
    }
}
