//! [`ProfileSpec`]: a serializable, parseable description of a speedup profile.
//!
//! Grids, caches, CSV files, HTTP requests and CLI flags all need to carry
//! "which speedup profile, with which parameter" as a first-class value rather
//! than a bare Amdahl `α`. `ProfileSpec` wraps a [`SpeedupProfile`] and gives
//! it a canonical short string form:
//!
//! | Profile | Spec string |
//! |---------|-------------|
//! | Amdahl, `α = 0.1` | `amdahl:0.1` |
//! | Perfectly parallel | `perfect` |
//! | Power law, `σ = 0.8` | `powerlaw:0.8` |
//! | Gustafson, `α = 0.05` | `gustafson:0.05` |
//!
//! Rendering uses Rust's shortest-roundtrip `f64` formatting, so
//! `ProfileSpec::parse(&spec.to_string())` reproduces the parameter
//! bit-identically — the property the sweep CSV columns and the `ayd-serve`
//! JSON round-trips rely on.

use std::fmt;
use std::str::FromStr;

use crate::error::ModelError;
use crate::speedup::SpeedupProfile;

/// A [`SpeedupProfile`] together with its canonical spec-string behaviour.
///
/// The wrapper is transparent: construct it from any profile with
/// [`From<SpeedupProfile>`], get the profile back with [`ProfileSpec::profile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileSpec(SpeedupProfile);

impl ProfileSpec {
    /// Wraps a profile.
    pub fn new(profile: SpeedupProfile) -> Self {
        Self(profile)
    }

    /// The wrapped profile.
    pub fn profile(&self) -> SpeedupProfile {
        self.0
    }

    /// The profile family name: `amdahl`, `perfect`, `powerlaw` or `gustafson`.
    pub fn kind(&self) -> &'static str {
        match self.0 {
            SpeedupProfile::Amdahl { .. } => "amdahl",
            SpeedupProfile::PerfectlyParallel => "perfect",
            SpeedupProfile::PowerLaw { .. } => "powerlaw",
            SpeedupProfile::Gustafson { .. } => "gustafson",
        }
    }

    /// The profile's parameter (`α` or `σ`), `None` for the parameterless
    /// perfectly parallel profile.
    pub fn param(&self) -> Option<f64> {
        match self.0 {
            SpeedupProfile::Amdahl { alpha } => Some(alpha),
            SpeedupProfile::PerfectlyParallel => None,
            SpeedupProfile::PowerLaw { sigma } => Some(sigma),
            SpeedupProfile::Gustafson { alpha } => Some(alpha),
        }
    }

    /// The name of the profile's parameter (`alpha` or `sigma`), `None` for
    /// the perfectly parallel profile. Used by structured request/response
    /// schemas.
    pub fn param_name(&self) -> Option<&'static str> {
        match self.0 {
            SpeedupProfile::Amdahl { .. } | SpeedupProfile::Gustafson { .. } => Some("alpha"),
            SpeedupProfile::PerfectlyParallel => None,
            SpeedupProfile::PowerLaw { .. } => Some("sigma"),
        }
    }

    /// [`Self::param_name`] looked up by family name before a profile exists —
    /// the single source of the kind → parameter-key mapping for request
    /// validators. `None` for the parameterless `perfect` family *and* for
    /// unknown names (let [`Self::from_kind_param`] report those).
    pub fn param_name_for_kind(kind: &str) -> Option<&'static str> {
        match kind {
            "amdahl" | "gustafson" => Some("alpha"),
            "powerlaw" => Some("sigma"),
            _ => None,
        }
    }

    /// A small integer discriminating the profile family (0 = Amdahl,
    /// 1 = perfect, 2 = power law, 3 = Gustafson). Stable across releases:
    /// cache keys quantize over it.
    pub fn kind_tag(&self) -> u8 {
        match self.0 {
            SpeedupProfile::Amdahl { .. } => 0,
            SpeedupProfile::PerfectlyParallel => 1,
            SpeedupProfile::PowerLaw { .. } => 2,
            SpeedupProfile::Gustafson { .. } => 3,
        }
    }

    /// Builds a validated profile from a family name and an optional
    /// parameter (the shape of the `profile` JSON object in `ayd-serve`).
    pub fn from_kind_param(kind: &str, param: Option<f64>) -> Result<Self, ModelError> {
        let invalid = |message: String| ModelError::InvalidProfileSpec { message };
        let require = |name: &str| {
            param.ok_or_else(|| invalid(format!("profile kind '{kind}' requires a '{name}' value")))
        };
        let profile = match kind {
            "amdahl" => SpeedupProfile::amdahl(require("alpha")?)?,
            "perfect" => {
                if param.is_some() {
                    return Err(invalid("profile kind 'perfect' takes no parameter".into()));
                }
                SpeedupProfile::perfectly_parallel()
            }
            "powerlaw" => SpeedupProfile::power_law(require("sigma")?)?,
            "gustafson" => SpeedupProfile::gustafson(require("alpha")?)?,
            other => {
                return Err(invalid(format!(
                "unknown profile kind '{other}' (expected amdahl, perfect, powerlaw or gustafson)"
            )))
            }
        };
        Ok(Self(profile))
    }

    /// Parses a canonical spec string (`amdahl:0.1`, `perfect`,
    /// `powerlaw:0.8`, `gustafson:0.05`), validating the parameter.
    pub fn parse(spec: &str) -> Result<Self, ModelError> {
        let spec = spec.trim();
        let (kind, param) = match spec.split_once(':') {
            Some((kind, value)) => {
                let value = value
                    .parse::<f64>()
                    .map_err(|_| ModelError::InvalidProfileSpec {
                        message: format!("profile spec '{spec}': '{value}' is not a number"),
                    })?;
                (kind, Some(value))
            }
            None => (spec, None),
        };
        Self::from_kind_param(kind, param)
    }
}

impl fmt::Display for ProfileSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.param() {
            Some(param) => write!(f, "{}:{}", self.kind(), param),
            None => write!(f, "{}", self.kind()),
        }
    }
}

impl FromStr for ProfileSpec {
    type Err = ModelError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

impl From<SpeedupProfile> for ProfileSpec {
    fn from(profile: SpeedupProfile) -> Self {
        Self(profile)
    }
}

impl From<ProfileSpec> for SpeedupProfile {
    fn from(spec: ProfileSpec) -> Self {
        spec.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_strings_round_trip() {
        for spec in ["amdahl:0.1", "perfect", "powerlaw:0.8", "gustafson:0.05"] {
            let parsed = ProfileSpec::parse(spec).unwrap();
            assert_eq!(parsed.to_string(), spec);
            assert_eq!(ProfileSpec::parse(&parsed.to_string()).unwrap(), parsed);
        }
    }

    #[test]
    fn parameters_round_trip_bit_identically() {
        // Shortest-roundtrip f64 formatting: rendering then parsing reproduces
        // the exact bits even for awkward values.
        for value in [0.1, 0.30000000000000004, 1.0 / 3.0, 5e-324, 0.9999999999] {
            let spec = ProfileSpec::new(SpeedupProfile::Amdahl { alpha: value });
            let back = ProfileSpec::parse(&spec.to_string()).unwrap();
            assert_eq!(back.param().unwrap().to_bits(), value.to_bits());
        }
    }

    #[test]
    fn kinds_params_and_tags() {
        let amdahl = ProfileSpec::parse("amdahl:0.1").unwrap();
        assert_eq!(
            (amdahl.kind(), amdahl.param(), amdahl.kind_tag()),
            ("amdahl", Some(0.1), 0)
        );
        assert_eq!(amdahl.param_name(), Some("alpha"));
        let perfect = ProfileSpec::parse("perfect").unwrap();
        assert_eq!(
            (perfect.kind(), perfect.param(), perfect.kind_tag()),
            ("perfect", None, 1)
        );
        assert_eq!(perfect.param_name(), None);
        let power = ProfileSpec::parse("powerlaw:0.8").unwrap();
        assert_eq!(
            (power.kind(), power.param(), power.kind_tag()),
            ("powerlaw", Some(0.8), 2)
        );
        assert_eq!(power.param_name(), Some("sigma"));
        let gustafson = ProfileSpec::parse("gustafson:0.05").unwrap();
        assert_eq!(
            (gustafson.kind(), gustafson.param(), gustafson.kind_tag()),
            ("gustafson", Some(0.05), 3)
        );
    }

    #[test]
    fn param_name_for_kind_agrees_with_param_name() {
        for spec in ["amdahl:0.1", "perfect", "powerlaw:0.8", "gustafson:0.05"] {
            let parsed = ProfileSpec::parse(spec).unwrap();
            assert_eq!(
                ProfileSpec::param_name_for_kind(parsed.kind()),
                parsed.param_name(),
                "{spec}"
            );
        }
        assert_eq!(ProfileSpec::param_name_for_kind("bogus"), None);
    }

    #[test]
    fn profile_conversions_are_transparent() {
        let profile = SpeedupProfile::power_law(0.7).unwrap();
        let spec = ProfileSpec::from(profile);
        assert_eq!(spec.profile(), profile);
        assert_eq!(SpeedupProfile::from(spec), profile);
    }

    #[test]
    fn invalid_specs_are_rejected_with_context() {
        for bad in [
            "amdahl",         // missing parameter
            "amdahl:x",       // non-numeric parameter
            "amdahl:1.5",     // out of range
            "powerlaw:0",     // sigma must be positive
            "powerlaw:1.2",   // sigma must be ≤ 1
            "gustafson:-0.1", // alpha must be a fraction
            "perfect:1",      // parameterless profile with a parameter
            "bogus:0.5",      // unknown family
            "",               // empty
        ] {
            assert!(ProfileSpec::parse(bad).is_err(), "accepted: {bad:?}");
        }
        let err = ProfileSpec::parse("bogus:0.5").unwrap_err();
        assert!(err.to_string().contains("bogus"));
        let err = ProfileSpec::parse("amdahl").unwrap_err();
        assert!(err.to_string().contains("alpha"));
    }

    #[test]
    fn from_kind_param_mirrors_the_json_object_shape() {
        let spec = ProfileSpec::from_kind_param("powerlaw", Some(0.8)).unwrap();
        assert_eq!(spec.profile(), SpeedupProfile::power_law(0.8).unwrap());
        assert!(ProfileSpec::from_kind_param("powerlaw", None).is_err());
        assert!(ProfileSpec::from_kind_param("perfect", Some(1.0)).is_err());
        assert!(ProfileSpec::from_kind_param("perfect", None).is_ok());
    }
}
