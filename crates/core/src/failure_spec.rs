//! [`FailureModelSpec`]: a serializable, parseable description of a failure
//! inter-arrival law.
//!
//! The paper's closed forms assume Poisson failures — iid *exponential*
//! inter-arrival times, the one law under which memorylessness makes the
//! Proposition-1 analysis exact. Everything downstream (grids, caches, CSV
//! files, HTTP requests, CLI flags) needs "which failure law, with which
//! parameter" as a first-class value, exactly as [`crate::profile::ProfileSpec`]
//! does for speedup profiles:
//!
//! | Law | Spec string |
//! |-----|-------------|
//! | Exponential (Poisson failures) | `exp` |
//! | Weibull, shape `k = 0.7` | `weibull:0.7` |
//! | Shifted exponential, shift `d = 120` s | `shifted:120` |
//! | Trace replay of a recorded failure log | `trace:logs/failures.txt` |
//!
//! Each numeric law also accepts an **explicit rate** suffix (`exp:1.69e-8`,
//! `weibull:0.7,1.69e-8`, `shifted:120,1.69e-8`) that overrides the ambient
//! per-processor error rate `λ_ind`. Grid axes reject explicit rates (the
//! grid's lambda axis owns the rate there); single-query surfaces such as
//! `ayd-serve` accept them.
//!
//! Rendering uses Rust's shortest-roundtrip `f64` formatting, so
//! `FailureModelSpec::parse(&spec.to_string())` reproduces every parameter
//! bit-identically — the property the sweep CSV columns and the `ayd-serve`
//! JSON round-trips rely on.
//!
//! Two non-exponential parameterisations degenerate to the exponential law:
//! a Weibull with shape `k = 1` and a shifted exponential with shift `d = 0`.
//! [`FailureModelSpec::is_exponential`] reports this so that consumers can
//! dispatch those specs onto the *exact* exponential code paths, which is what
//! makes `weibull:1.0` sweeps bit-identical to `exp` sweeps.

use std::fmt;
use std::str::FromStr;

use crate::error::ModelError;

/// A failure inter-arrival law.
///
/// The law describes the *shape* of the inter-arrival distribution; the rate
/// (mean inter-arrival time) comes from the ambient failure model unless the
/// wrapping [`FailureModelSpec`] pins one explicitly.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureLaw {
    /// Memoryless exponential inter-arrivals (Poisson failures) — the paper's
    /// model, and the only law under which the closed forms are exact.
    Exponential,
    /// Weibull inter-arrivals with shape `k`, mean-matched to the ambient
    /// rate. `k < 1` models infant mortality (decreasing hazard), `k > 1`
    /// wear-out (increasing hazard); `k = 1` degenerates to the exponential.
    Weibull {
        /// The Weibull shape parameter `k` (finite, strictly positive).
        shape: f64,
    },
    /// A fixed failure-free window of `shift` seconds followed by an
    /// exponential tail at the ambient rate; `shift = 0` degenerates to the
    /// exponential.
    Shifted {
        /// The shift `d` in seconds (finite, non-negative).
        shift: f64,
    },
    /// Replay of a recorded failure log: a text file of inter-arrival samples
    /// (one per line), normalised to unit mean at load time and scaled to the
    /// ambient rate by the simulator.
    Trace {
        /// Path of the trace file.
        path: String,
    },
}

/// A [`FailureLaw`] plus an optional explicit rate, with canonical
/// spec-string behaviour mirroring [`crate::profile::ProfileSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct FailureModelSpec {
    law: FailureLaw,
    lambda: Option<f64>,
}

impl FailureModelSpec {
    /// The default exponential law at the ambient rate — the paper's model.
    pub fn exponential() -> Self {
        Self {
            law: FailureLaw::Exponential,
            lambda: None,
        }
    }

    /// A validated Weibull law with shape `k` at the ambient rate.
    pub fn weibull(shape: f64) -> Result<Self, ModelError> {
        if !(shape.is_finite() && shape > 0.0) {
            return Err(invalid(format!(
                "weibull shape must be finite and strictly positive, got {shape}"
            )));
        }
        Ok(Self {
            law: FailureLaw::Weibull { shape },
            lambda: None,
        })
    }

    /// A validated shifted-exponential law with shift `d` seconds at the
    /// ambient rate.
    pub fn shifted(shift: f64) -> Result<Self, ModelError> {
        if !(shift.is_finite() && shift >= 0.0) {
            return Err(invalid(format!(
                "shifted-exponential shift must be finite and non-negative, got {shift}"
            )));
        }
        Ok(Self {
            law: FailureLaw::Shifted { shift },
            lambda: None,
        })
    }

    /// A trace-replay law reading inter-arrival samples from `path`.
    pub fn trace(path: &str) -> Result<Self, ModelError> {
        if path.is_empty() {
            return Err(invalid("trace spec requires a non-empty path".into()));
        }
        Ok(Self {
            law: FailureLaw::Trace {
                path: path.to_string(),
            },
            lambda: None,
        })
    }

    /// The same law with an explicit per-processor rate `λ_ind` overriding the
    /// ambient one. Trace specs carry no explicit rate (the replay is scaled
    /// to whatever rate the ambient model provides).
    pub fn with_lambda(self, lambda: f64) -> Result<Self, ModelError> {
        if matches!(self.law, FailureLaw::Trace { .. }) {
            return Err(invalid("trace specs take no explicit rate".into()));
        }
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(invalid(format!(
                "rate must be finite and strictly positive, got {lambda}"
            )));
        }
        Ok(Self {
            lambda: Some(lambda),
            ..self
        })
    }

    /// The same law with any explicit rate dropped: the ambient model's rate
    /// applies again. Used by consumers (grid axes, the serve layer) that
    /// take the rate from their own `λ` axis after honouring the spec's.
    pub fn without_lambda(self) -> Self {
        Self {
            lambda: None,
            ..self
        }
    }

    /// The wrapped law.
    pub fn law(&self) -> &FailureLaw {
        &self.law
    }

    /// The law family name: `exp`, `weibull`, `shifted` or `trace`.
    pub fn kind(&self) -> &'static str {
        match self.law {
            FailureLaw::Exponential => "exp",
            FailureLaw::Weibull { .. } => "weibull",
            FailureLaw::Shifted { .. } => "shifted",
            FailureLaw::Trace { .. } => "trace",
        }
    }

    /// The law's shape parameter (Weibull `k` or shift `d`), `None` for the
    /// parameterless exponential and trace laws.
    pub fn param(&self) -> Option<f64> {
        match self.law {
            FailureLaw::Exponential | FailureLaw::Trace { .. } => None,
            FailureLaw::Weibull { shape } => Some(shape),
            FailureLaw::Shifted { shift } => Some(shift),
        }
    }

    /// The name of the law's parameter (`shape` or `shift`), `None` for the
    /// exponential and trace laws. Used by structured request/response schemas.
    pub fn param_name(&self) -> Option<&'static str> {
        match self.law {
            FailureLaw::Exponential | FailureLaw::Trace { .. } => None,
            FailureLaw::Weibull { .. } => Some("shape"),
            FailureLaw::Shifted { .. } => Some("shift"),
        }
    }

    /// [`Self::param_name`] looked up by family name before a spec exists —
    /// the single source of the kind → parameter-key mapping for request
    /// validators. `None` for the parameterless families *and* for unknown
    /// names (let [`Self::from_kind_param`] report those).
    pub fn param_name_for_kind(kind: &str) -> Option<&'static str> {
        match kind {
            "weibull" => Some("shape"),
            "shifted" => Some("shift"),
            _ => None,
        }
    }

    /// A small integer discriminating the law family (0 = exponential,
    /// 1 = Weibull, 2 = shifted, 3 = trace). Stable across releases: grid
    /// fingerprints hash it. No evaluation cache key holds it, because no
    /// analytic evaluation reads the law.
    pub fn kind_tag(&self) -> u8 {
        match self.law {
            FailureLaw::Exponential => 0,
            FailureLaw::Weibull { .. } => 1,
            FailureLaw::Shifted { .. } => 2,
            FailureLaw::Trace { .. } => 3,
        }
    }

    /// The explicit rate override, if the spec pins one (`exp:LAMBDA`,
    /// `weibull:K,LAMBDA`, `shifted:D,LAMBDA`).
    pub fn lambda(&self) -> Option<f64> {
        self.lambda
    }

    /// The trace file path, for trace-replay specs.
    pub fn trace_path(&self) -> Option<&str> {
        match &self.law {
            FailureLaw::Trace { path } => Some(path),
            _ => None,
        }
    }

    /// Whether the law *is* the exponential law — including the degenerate
    /// parameterisations `weibull:1.0` (shape exactly 1) and `shifted:0`
    /// (shift exactly 0). Consumers dispatch such specs onto the exact
    /// exponential code paths, making their output bit-identical to `exp`.
    pub fn is_exponential(&self) -> bool {
        match self.law {
            FailureLaw::Exponential => true,
            FailureLaw::Weibull { shape } => shape == 1.0,
            FailureLaw::Shifted { shift } => shift == 0.0,
            FailureLaw::Trace { .. } => false,
        }
    }

    /// Builds a validated spec from a family name and an optional parameter
    /// (the shape of the `failure_model` JSON object in `ayd-serve`). The
    /// trace family needs a path, not a number — use [`Self::trace`] for it.
    pub fn from_kind_param(kind: &str, param: Option<f64>) -> Result<Self, ModelError> {
        let require = |name: &str| {
            param.ok_or_else(|| {
                invalid(format!(
                    "failure-model kind '{kind}' requires a '{name}' value"
                ))
            })
        };
        match kind {
            "exp" => {
                if param.is_some() {
                    return Err(invalid(
                        "failure-model kind 'exp' takes no shape parameter".into(),
                    ));
                }
                Ok(Self::exponential())
            }
            "weibull" => Self::weibull(require("shape")?),
            "shifted" => Self::shifted(require("shift")?),
            "trace" => Err(invalid(
                "failure-model kind 'trace' requires a 'path', not a numeric parameter".into(),
            )),
            other => Err(invalid(format!(
                "unknown failure-model kind '{other}' (expected exp, weibull, shifted or trace)"
            ))),
        }
    }

    /// Parses a canonical spec string: `exp`, `exp:LAMBDA`, `weibull:K`,
    /// `weibull:K,LAMBDA`, `shifted:D`, `shifted:D,LAMBDA` or `trace:PATH`,
    /// validating every parameter.
    pub fn parse(spec: &str) -> Result<Self, ModelError> {
        let spec = spec.trim();
        let (kind, rest) = match spec.split_once(':') {
            Some((kind, rest)) => (kind, Some(rest)),
            None => (spec, None),
        };
        if kind == "trace" {
            let path = rest.unwrap_or("");
            return Self::trace(path)
                .map_err(|_| invalid(format!("trace spec '{spec}' requires a non-empty path")));
        }
        let number = |value: &str| {
            value.parse::<f64>().map_err(|_| {
                invalid(format!(
                    "failure-model spec '{spec}': '{value}' is not a number"
                ))
            })
        };
        let base = match (kind, rest) {
            ("exp", _) => Self::exponential(),
            ("weibull", Some(rest)) => {
                let shape = rest.split_once(',').map_or(rest, |(first, _)| first);
                Self::weibull(number(shape)?)?
            }
            ("shifted", Some(rest)) => {
                let shift = rest.split_once(',').map_or(rest, |(first, _)| first);
                Self::shifted(number(shift)?)?
            }
            ("weibull" | "shifted", None) => {
                let name = Self::param_name_for_kind(kind).unwrap_or("parameter");
                return Err(invalid(format!(
                    "failure-model kind '{kind}' requires a '{name}' value"
                )));
            }
            (other, _) => {
                return Err(invalid(format!(
                    "unknown failure-model kind '{other}' (expected exp, weibull, shifted or trace)"
                )))
            }
        };
        // `exp:LAMBDA` puts the rate right after the colon; the two-parameter
        // families put it after a comma.
        let lambda = match (kind, rest) {
            ("exp", Some(rest)) => Some(number(rest)?),
            (_, Some(rest)) => match rest.split_once(',') {
                Some((_, lambda)) => Some(number(lambda)?),
                None => None,
            },
            (_, None) => None,
        };
        match lambda {
            Some(lambda) => base.with_lambda(lambda),
            None => Ok(base),
        }
    }
}

impl Default for FailureModelSpec {
    fn default() -> Self {
        Self::exponential()
    }
}

impl fmt::Display for FailureModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.law, self.lambda) {
            (FailureLaw::Exponential, None) => write!(f, "exp"),
            (FailureLaw::Exponential, Some(lambda)) => write!(f, "exp:{lambda}"),
            (FailureLaw::Trace { path }, _) => write!(f, "trace:{path}"),
            (_, None) => write!(f, "{}:{}", self.kind(), self.param().unwrap()),
            (_, Some(lambda)) => {
                write!(f, "{}:{},{lambda}", self.kind(), self.param().unwrap())
            }
        }
    }
}

impl FromStr for FailureModelSpec {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

fn invalid(message: String) -> ModelError {
    ModelError::InvalidFailureSpec { message }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_strings_round_trip() {
        for spec in [
            "exp",
            "exp:0.0000000169",
            "weibull:0.7",
            "weibull:0.7,0.0000000169",
            "shifted:120",
            "shifted:120,0.0000000169",
            "trace:logs/failures.txt",
        ] {
            let parsed = FailureModelSpec::parse(spec).unwrap();
            assert_eq!(parsed.to_string(), spec);
            assert_eq!(
                FailureModelSpec::parse(&parsed.to_string()).unwrap(),
                parsed
            );
        }
    }

    #[test]
    fn parameters_round_trip_bit_identically() {
        // Shortest-roundtrip f64 formatting: rendering then parsing reproduces
        // the exact bits even for awkward values.
        for value in [0.1, 0.30000000000000004, 1.0 / 3.0, 5e-324, 0.9999999999] {
            let spec = FailureModelSpec::weibull(value).unwrap();
            let back = FailureModelSpec::parse(&spec.to_string()).unwrap();
            assert_eq!(back.param().unwrap().to_bits(), value.to_bits());
            let spec = FailureModelSpec::shifted(value)
                .unwrap()
                .with_lambda(value)
                .unwrap();
            let back = FailureModelSpec::parse(&spec.to_string()).unwrap();
            assert_eq!(back.param().unwrap().to_bits(), value.to_bits());
            assert_eq!(back.lambda().unwrap().to_bits(), value.to_bits());
        }
    }

    #[test]
    fn kinds_params_and_tags() {
        let exp = FailureModelSpec::parse("exp").unwrap();
        assert_eq!((exp.kind(), exp.param(), exp.kind_tag()), ("exp", None, 0));
        assert_eq!(exp.param_name(), None);
        let weibull = FailureModelSpec::parse("weibull:0.7").unwrap();
        assert_eq!(
            (weibull.kind(), weibull.param(), weibull.kind_tag()),
            ("weibull", Some(0.7), 1)
        );
        assert_eq!(weibull.param_name(), Some("shape"));
        let shifted = FailureModelSpec::parse("shifted:120").unwrap();
        assert_eq!(
            (shifted.kind(), shifted.param(), shifted.kind_tag()),
            ("shifted", Some(120.0), 2)
        );
        assert_eq!(shifted.param_name(), Some("shift"));
        let trace = FailureModelSpec::parse("trace:a.txt").unwrap();
        assert_eq!(
            (trace.kind(), trace.param(), trace.kind_tag()),
            ("trace", None, 3)
        );
        assert_eq!(trace.trace_path(), Some("a.txt"));
    }

    #[test]
    fn param_name_for_kind_agrees_with_param_name() {
        for spec in ["exp", "weibull:0.7", "shifted:120", "trace:a.txt"] {
            let parsed = FailureModelSpec::parse(spec).unwrap();
            assert_eq!(
                FailureModelSpec::param_name_for_kind(parsed.kind()),
                parsed.param_name(),
                "{spec}"
            );
        }
        assert_eq!(FailureModelSpec::param_name_for_kind("bogus"), None);
    }

    #[test]
    fn degenerate_parameterisations_are_exponential() {
        assert!(FailureModelSpec::parse("exp").unwrap().is_exponential());
        assert!(FailureModelSpec::parse("weibull:1.0")
            .unwrap()
            .is_exponential());
        assert!(FailureModelSpec::parse("shifted:0")
            .unwrap()
            .is_exponential());
        assert!(!FailureModelSpec::parse("weibull:0.7")
            .unwrap()
            .is_exponential());
        assert!(!FailureModelSpec::parse("shifted:120")
            .unwrap()
            .is_exponential());
        assert!(!FailureModelSpec::parse("trace:a.txt")
            .unwrap()
            .is_exponential());
    }

    #[test]
    fn invalid_specs_are_rejected_with_context() {
        for bad in [
            "weibull",       // missing parameter
            "weibull:x",     // non-numeric parameter
            "weibull:0",     // shape must be positive
            "weibull:-1",    // shape must be positive
            "weibull:inf",   // shape must be finite
            "weibull:0.7,x", // non-numeric rate
            "weibull:0.7,0", // rate must be positive
            "shifted",       // missing parameter
            "shifted:-5",    // shift must be non-negative
            "exp:0",         // rate must be positive
            "exp:x",         // non-numeric rate
            "trace",         // missing path
            "trace:",        // empty path
            "bogus:0.5",     // unknown family
            "",              // empty
        ] {
            assert!(FailureModelSpec::parse(bad).is_err(), "accepted: {bad:?}");
        }
        let err = FailureModelSpec::parse("bogus:0.5").unwrap_err();
        assert!(err.to_string().contains("bogus"));
        let err = FailureModelSpec::parse("weibull").unwrap_err();
        assert!(err.to_string().contains("shape"));
    }

    #[test]
    fn from_kind_param_mirrors_the_json_object_shape() {
        let spec = FailureModelSpec::from_kind_param("weibull", Some(0.7)).unwrap();
        assert_eq!(spec, FailureModelSpec::weibull(0.7).unwrap());
        assert!(FailureModelSpec::from_kind_param("weibull", None).is_err());
        assert!(FailureModelSpec::from_kind_param("exp", Some(1.0)).is_err());
        assert!(FailureModelSpec::from_kind_param("exp", None).is_ok());
        assert!(FailureModelSpec::from_kind_param("trace", Some(1.0)).is_err());
        assert!(FailureModelSpec::from_kind_param("bogus", None).is_err());
    }

    #[test]
    fn explicit_rates_are_validated() {
        let spec = FailureModelSpec::parse("exp:0.0000000169").unwrap();
        assert_eq!(spec.lambda(), Some(1.69e-8));
        assert!(spec.is_exponential());
        assert!(FailureModelSpec::exponential()
            .with_lambda(f64::NAN)
            .is_err());
        assert!(FailureModelSpec::trace("a.txt")
            .unwrap()
            .with_lambda(1e-8)
            .is_err());
    }
}
