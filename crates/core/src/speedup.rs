//! Speedup profiles: Amdahl's law and extension profiles.
//!
//! The paper's headline analysis assumes Amdahl's law (Eq. (1)):
//!
//! ```text
//! S(P) = 1 / (α + (1 - α) / P)
//! ```
//!
//! where `α` is the inherently sequential fraction of the application. The
//! *execution overhead* without failures is `H(P) = 1 / S(P) = α + (1 - α)/P`,
//! i.e. the time per unit of sequential work when running on `P` processors.
//!
//! Case 4 of Section III.D considers the perfectly parallel profile `H(P) = 1/P`
//! (`α = 0`). As an extension (the paper's future-work direction on "jobs with
//! different speedup profiles"), this module also provides a power-law profile
//! `S(P) = P^σ` and a Gustafson-style weak-scaling profile; those are only
//! optimised numerically (see `ayd-optim`), never through the first-order formulas.

use crate::error::{ensure_fraction, ensure_positive, ModelError};

/// A speedup profile `S(P)` mapping a processor count to the factor by which the
/// sequential execution time is divided in an error-free execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpeedupProfile {
    /// Amdahl's law with sequential fraction `alpha`:
    /// `S(P) = 1 / (alpha + (1 - alpha)/P)`.
    Amdahl {
        /// Sequential fraction `α ∈ [0, 1]`.
        alpha: f64,
    },
    /// Perfectly parallel application: `S(P) = P` (`H(P) = 1/P`).
    PerfectlyParallel,
    /// Power-law (sub-linear) profile: `S(P) = P^sigma` with `0 < sigma ≤ 1`.
    ///
    /// Extension profile — not covered by the paper's closed-form theorems.
    PowerLaw {
        /// Scaling exponent `σ ∈ (0, 1]`.
        sigma: f64,
    },
    /// Gustafson-style weak-scaling profile: `S(P) = alpha + (1 - alpha) * P`.
    ///
    /// Extension profile — not covered by the paper's closed-form theorems.
    Gustafson {
        /// Sequential fraction `α ∈ [0, 1]` of the *scaled* workload.
        alpha: f64,
    },
}

impl SpeedupProfile {
    /// Builds an Amdahl profile, validating that `alpha ∈ [0, 1]`.
    ///
    /// `alpha = 0` degenerates into [`SpeedupProfile::PerfectlyParallel`] behaviour
    /// but is kept as an `Amdahl` variant so that sweeps over `α` (Figure 4) stay
    /// uniform.
    pub fn amdahl(alpha: f64) -> Result<Self, ModelError> {
        ensure_fraction("alpha", alpha)?;
        Ok(SpeedupProfile::Amdahl { alpha })
    }

    /// Builds a perfectly parallel profile (`S(P) = P`).
    pub fn perfectly_parallel() -> Self {
        SpeedupProfile::PerfectlyParallel
    }

    /// Builds a power-law profile `S(P) = P^sigma`, validating `0 < sigma ≤ 1`.
    pub fn power_law(sigma: f64) -> Result<Self, ModelError> {
        ensure_positive("sigma", sigma)?;
        ensure_fraction("sigma", sigma)?;
        Ok(SpeedupProfile::PowerLaw { sigma })
    }

    /// Builds a Gustafson weak-scaling profile, validating `alpha ∈ [0, 1]`.
    pub fn gustafson(alpha: f64) -> Result<Self, ModelError> {
        ensure_fraction("alpha", alpha)?;
        Ok(SpeedupProfile::Gustafson { alpha })
    }

    /// Re-validates the parameters of a profile built directly from its
    /// variant fields (e.g. deserialized, or carried unchecked through a
    /// builder), returning the same profile on success.
    pub fn validate(&self) -> Result<Self, ModelError> {
        match *self {
            SpeedupProfile::Amdahl { alpha } => Self::amdahl(alpha),
            SpeedupProfile::PerfectlyParallel => Ok(Self::perfectly_parallel()),
            SpeedupProfile::PowerLaw { sigma } => Self::power_law(sigma),
            SpeedupProfile::Gustafson { alpha } => Self::gustafson(alpha),
        }
    }

    /// The speedup `S(P)` for `p` processors. `p` is treated as a continuous
    /// quantity (the optimisation theorems do the same); callers that need an
    /// integral processor count round the optimum afterwards.
    pub fn speedup(&self, p: f64) -> f64 {
        debug_assert!(p > 0.0, "processor count must be positive");
        match *self {
            SpeedupProfile::Amdahl { alpha } => 1.0 / (alpha + (1.0 - alpha) / p),
            SpeedupProfile::PerfectlyParallel => p,
            SpeedupProfile::PowerLaw { sigma } => p.powf(sigma),
            SpeedupProfile::Gustafson { alpha } => alpha + (1.0 - alpha) * p,
        }
    }

    /// The error-free execution overhead `H(P) = 1 / S(P)`, i.e. the time needed
    /// per unit of sequential work when running on `p` processors.
    pub fn overhead(&self, p: f64) -> f64 {
        match *self {
            // Written out explicitly to avoid the (tiny) round-trip error of 1/S.
            SpeedupProfile::Amdahl { alpha } => alpha + (1.0 - alpha) / p,
            _ => 1.0 / self.speedup(p),
        }
    }

    /// The sequential fraction `α` if this is an Amdahl profile (or zero for a
    /// perfectly parallel profile), `None` otherwise.
    pub fn sequential_fraction(&self) -> Option<f64> {
        match *self {
            SpeedupProfile::Amdahl { alpha } => Some(alpha),
            SpeedupProfile::PerfectlyParallel => Some(0.0),
            _ => None,
        }
    }

    /// Upper bound of the speedup (`1/α` for Amdahl, unbounded otherwise).
    pub fn asymptotic_speedup(&self) -> f64 {
        match *self {
            SpeedupProfile::Amdahl { alpha } if alpha > 0.0 => 1.0 / alpha,
            _ => f64::INFINITY,
        }
    }

    /// True when the profile is Amdahl with a strictly positive sequential
    /// fraction — the prerequisite of Theorems 2 and 3.
    pub fn has_sequential_part(&self) -> bool {
        matches!(*self, SpeedupProfile::Amdahl { alpha } if alpha > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amdahl_single_processor_has_unit_speedup() {
        let s = SpeedupProfile::amdahl(0.3).unwrap();
        assert!((s.speedup(1.0) - 1.0).abs() < 1e-12);
        assert!((s.overhead(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn amdahl_speedup_is_bounded_by_inverse_alpha() {
        let s = SpeedupProfile::amdahl(0.1).unwrap();
        assert!(s.speedup(1e12) < 10.0);
        assert!((s.asymptotic_speedup() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn amdahl_speedup_is_increasing_in_p() {
        let s = SpeedupProfile::amdahl(0.05).unwrap();
        let mut prev = 0.0;
        for p in [1.0, 2.0, 8.0, 64.0, 1024.0, 1e6] {
            let cur = s.speedup(p);
            assert!(cur > prev, "speedup must increase with P");
            prev = cur;
        }
    }

    #[test]
    fn amdahl_zero_alpha_matches_perfectly_parallel() {
        let a = SpeedupProfile::amdahl(0.0).unwrap();
        let p = SpeedupProfile::perfectly_parallel();
        for procs in [1.0, 10.0, 1e4] {
            assert!((a.speedup(procs) - p.speedup(procs)).abs() < 1e-9);
        }
    }

    #[test]
    fn amdahl_one_alpha_never_speeds_up() {
        let s = SpeedupProfile::amdahl(1.0).unwrap();
        assert!((s.speedup(1e6) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overhead_is_reciprocal_of_speedup() {
        for profile in [
            SpeedupProfile::amdahl(0.2).unwrap(),
            SpeedupProfile::perfectly_parallel(),
            SpeedupProfile::power_law(0.8).unwrap(),
            SpeedupProfile::gustafson(0.2).unwrap(),
        ] {
            for p in [1.0, 7.0, 512.0] {
                let prod = profile.speedup(p) * profile.overhead(p);
                assert!((prod - 1.0).abs() < 1e-12, "{profile:?} at P={p}");
            }
        }
    }

    #[test]
    fn paper_example_hera_alpha() {
        // With α = 0.1 (paper's default) and P = 512: H(P) = 0.1 + 0.9/512.
        let s = SpeedupProfile::amdahl(0.1).unwrap();
        let expected = 0.1 + 0.9 / 512.0;
        assert!((s.overhead(512.0) - expected).abs() < 1e-15);
    }

    #[test]
    fn invalid_alpha_rejected() {
        assert!(SpeedupProfile::amdahl(-0.1).is_err());
        assert!(SpeedupProfile::amdahl(1.1).is_err());
        assert!(SpeedupProfile::amdahl(f64::NAN).is_err());
    }

    #[test]
    fn power_law_validation() {
        assert!(SpeedupProfile::power_law(0.0).is_err());
        assert!(SpeedupProfile::power_law(1.2).is_err());
        let s = SpeedupProfile::power_law(1.0).unwrap();
        assert!((s.speedup(64.0) - 64.0).abs() < 1e-9);
    }

    #[test]
    fn gustafson_scales_linearly() {
        let s = SpeedupProfile::gustafson(0.25).unwrap();
        assert!((s.speedup(100.0) - (0.25 + 0.75 * 100.0)).abs() < 1e-12);
    }

    #[test]
    fn sequential_fraction_accessor() {
        assert_eq!(
            SpeedupProfile::amdahl(0.1).unwrap().sequential_fraction(),
            Some(0.1)
        );
        assert_eq!(
            SpeedupProfile::perfectly_parallel().sequential_fraction(),
            Some(0.0)
        );
        assert_eq!(
            SpeedupProfile::power_law(0.5)
                .unwrap()
                .sequential_fraction(),
            None
        );
    }

    #[test]
    fn has_sequential_part_only_for_positive_alpha() {
        assert!(SpeedupProfile::amdahl(0.1).unwrap().has_sequential_part());
        assert!(!SpeedupProfile::amdahl(0.0).unwrap().has_sequential_part());
        assert!(!SpeedupProfile::perfectly_parallel().has_sequential_part());
    }
}
