//! The four SCR platforms of Table II.
//!
//! Each platform is described by the measurements reported in the paper:
//! individual error rate `λ_ind`, fail-stop fraction `f`, the processor count the
//! measurements were taken on, and the measured checkpoint and verification costs
//! at that processor count. Following the paper (and Benoit et al., IPDPS 2016),
//! the verification cost is set to that of an in-memory checkpoint, since the
//! whole memory footprint must be inspected to detect silent errors.

use ayd_core::FailureModel;

/// Identifier of one of the four platforms of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlatformId {
    /// LLNL Hera: 512 processors, λ_ind = 1.69e-8, f = 0.2188.
    Hera,
    /// LLNL Atlas: 1024 processors, λ_ind = 1.62e-8, f = 0.0625.
    Atlas,
    /// LLNL Coastal: 2048 processors, λ_ind = 2.34e-9, f = 0.1667.
    Coastal,
    /// LLNL Coastal with SSD storage: same error profile as Coastal, larger
    /// checkpoint and verification costs.
    CoastalSsd,
}

impl PlatformId {
    /// All four platforms, in the order of Table II.
    pub const ALL: [PlatformId; 4] = [
        PlatformId::Hera,
        PlatformId::Atlas,
        PlatformId::Coastal,
        PlatformId::CoastalSsd,
    ];

    /// Human-readable name as printed in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            PlatformId::Hera => "Hera",
            PlatformId::Atlas => "Atlas",
            PlatformId::Coastal => "Coastal",
            PlatformId::CoastalSsd => "Coastal SSD",
        }
    }

    /// Parses a (case-insensitive) platform name.
    pub fn parse(name: &str) -> Option<Self> {
        match name
            .to_ascii_lowercase()
            .replace(['-', '_', ' '], "")
            .as_str()
        {
            "hera" => Some(PlatformId::Hera),
            "atlas" => Some(PlatformId::Atlas),
            "coastal" => Some(PlatformId::Coastal),
            "coastalssd" => Some(PlatformId::CoastalSsd),
            _ => None,
        }
    }
}

/// Measured parameters of a platform (one column of Table II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Platform {
    /// Which platform this is.
    pub id: PlatformId,
    /// Individual-processor error rate `λ_ind` (errors per second), all error
    /// sources combined.
    pub lambda_ind: f64,
    /// Fraction of errors that are fail-stop.
    pub fail_stop_fraction: f64,
    /// Processor count the measurements were taken on.
    pub measured_processors: u64,
    /// Measured checkpoint cost `C_P` (seconds) at `measured_processors`.
    pub measured_checkpoint: f64,
    /// Measured verification cost `V_P` (seconds) at `measured_processors`
    /// (the cost of an in-memory checkpoint, following the paper).
    pub measured_verification: f64,
}

impl Platform {
    /// Returns the measured parameters of a platform (Table II).
    pub fn get(id: PlatformId) -> Self {
        match id {
            PlatformId::Hera => Self {
                id,
                lambda_ind: 1.69e-8,
                fail_stop_fraction: 0.2188,
                measured_processors: 512,
                measured_checkpoint: 300.0,
                measured_verification: 15.4,
            },
            PlatformId::Atlas => Self {
                id,
                lambda_ind: 1.62e-8,
                fail_stop_fraction: 0.0625,
                measured_processors: 1024,
                measured_checkpoint: 439.0,
                measured_verification: 9.1,
            },
            PlatformId::Coastal => Self {
                id,
                lambda_ind: 2.34e-9,
                fail_stop_fraction: 0.1667,
                measured_processors: 2048,
                measured_checkpoint: 1051.0,
                measured_verification: 4.5,
            },
            PlatformId::CoastalSsd => Self {
                id,
                lambda_ind: 2.34e-9,
                fail_stop_fraction: 0.1667,
                measured_processors: 2048,
                measured_checkpoint: 2500.0,
                measured_verification: 180.0,
            },
        }
    }

    /// All four platforms in Table II order.
    pub fn all() -> Vec<Self> {
        PlatformId::ALL.iter().map(|&id| Self::get(id)).collect()
    }

    /// Silent-error fraction `s = 1 - f`.
    pub fn silent_fraction(&self) -> f64 {
        1.0 - self.fail_stop_fraction
    }

    /// The failure model of this platform (possibly with an overridden `λ_ind`,
    /// for the sweeps of Figures 5 and 6).
    pub fn failure_model(&self) -> FailureModel {
        FailureModel::new(self.lambda_ind, self.fail_stop_fraction)
            .expect("embedded Table II parameters are valid")
    }

    /// Individual-processor MTBF in years (useful for reporting).
    pub fn mtbf_ind_years(&self) -> f64 {
        1.0 / self.lambda_ind / (365.25 * 86_400.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_values_are_embedded_verbatim() {
        let hera = Platform::get(PlatformId::Hera);
        assert_eq!(hera.lambda_ind, 1.69e-8);
        assert_eq!(hera.fail_stop_fraction, 0.2188);
        assert_eq!(hera.measured_processors, 512);
        assert_eq!(hera.measured_checkpoint, 300.0);
        assert_eq!(hera.measured_verification, 15.4);

        let atlas = Platform::get(PlatformId::Atlas);
        assert_eq!(atlas.lambda_ind, 1.62e-8);
        assert_eq!(atlas.fail_stop_fraction, 0.0625);
        assert_eq!(atlas.measured_processors, 1024);
        assert_eq!(atlas.measured_checkpoint, 439.0);
        assert_eq!(atlas.measured_verification, 9.1);

        let coastal = Platform::get(PlatformId::Coastal);
        assert_eq!(coastal.lambda_ind, 2.34e-9);
        assert_eq!(coastal.fail_stop_fraction, 0.1667);
        assert_eq!(coastal.measured_processors, 2048);
        assert_eq!(coastal.measured_checkpoint, 1051.0);
        assert_eq!(coastal.measured_verification, 4.5);

        let ssd = Platform::get(PlatformId::CoastalSsd);
        assert_eq!(ssd.lambda_ind, 2.34e-9);
        assert_eq!(ssd.measured_checkpoint, 2500.0);
        assert_eq!(ssd.measured_verification, 180.0);
    }

    #[test]
    fn silent_fractions_match_table2() {
        assert!((Platform::get(PlatformId::Hera).silent_fraction() - 0.7812).abs() < 1e-12);
        assert!((Platform::get(PlatformId::Atlas).silent_fraction() - 0.9375).abs() < 1e-12);
        assert!((Platform::get(PlatformId::Coastal).silent_fraction() - 0.8333).abs() < 1e-12);
    }

    #[test]
    fn all_returns_four_distinct_platforms() {
        let all = Platform::all();
        assert_eq!(all.len(), 4);
        for (i, p) in all.iter().enumerate() {
            assert_eq!(p.id, PlatformId::ALL[i]);
        }
    }

    #[test]
    fn failure_model_is_valid() {
        for p in Platform::all() {
            let fm = p.failure_model();
            assert_eq!(fm.lambda_ind, p.lambda_ind);
            assert_eq!(fm.fail_stop_fraction, p.fail_stop_fraction);
        }
    }

    #[test]
    fn individual_mtbf_is_on_the_order_of_years() {
        // The paper argues λ_ind corresponds to MTBFs of the order of years.
        for p in Platform::all() {
            let years = p.mtbf_ind_years();
            assert!(
                years > 1.0 && years < 50.0,
                "{}: {years} years",
                p.id.name()
            );
        }
    }

    #[test]
    fn parse_round_trips_names() {
        for id in PlatformId::ALL {
            assert_eq!(PlatformId::parse(id.name()), Some(id));
        }
        assert_eq!(
            PlatformId::parse("coastal-ssd"),
            Some(PlatformId::CoastalSsd)
        );
        assert_eq!(PlatformId::parse("unknown"), None);
    }
}

/// Golden values: the complete Table II, pinned as literal tuples so that any
/// refactor silently drifting from the paper's constants fails loudly here.
#[cfg(test)]
mod golden_tests {
    use super::*;

    #[test]
    fn golden_table2() {
        // (id, lambda_ind, f, P, C_P, V_P) — transcribed from Table II.
        let expected: [(PlatformId, f64, f64, u64, f64, f64); 4] = [
            (PlatformId::Hera, 1.69e-8, 0.2188, 512, 300.0, 15.4),
            (PlatformId::Atlas, 1.62e-8, 0.0625, 1024, 439.0, 9.1),
            (PlatformId::Coastal, 2.34e-9, 0.1667, 2048, 1051.0, 4.5),
            (PlatformId::CoastalSsd, 2.34e-9, 0.1667, 2048, 2500.0, 180.0),
        ];
        for (id, lambda, f, p, checkpoint, verification) in expected {
            let platform = Platform::get(id);
            assert_eq!(
                platform.lambda_ind.to_bits(),
                lambda.to_bits(),
                "{id:?} lambda"
            );
            assert_eq!(
                platform.fail_stop_fraction.to_bits(),
                f.to_bits(),
                "{id:?} f"
            );
            assert_eq!(platform.measured_processors, p, "{id:?} P");
            assert_eq!(
                platform.measured_checkpoint.to_bits(),
                checkpoint.to_bits(),
                "{id:?} C"
            );
            assert_eq!(
                platform.measured_verification.to_bits(),
                verification.to_bits(),
                "{id:?} V"
            );
        }
    }
}
