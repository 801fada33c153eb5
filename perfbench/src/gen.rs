//! Seeded workload inputs. Every input is a pure function of the workload
//! seed and its own index, so a run with `--trace 1` replays exactly the
//! inputs of the `--trace 0` run with the same seed, and the server only
//! ever sees the rendered bodies.

use std::collections::HashSet;
use std::hash::{DefaultHasher, Hash, Hasher};

use ayd_core::{ExactModel, FailureModelSpec, ProfileSpec};
use ayd_platforms::{ExperimentSetup, Platform, PlatformId, ScenarioId};
use ayd_sweep::{analytic_cache_key, RunOptions, SweepOptions};

use crate::http;

/// SplitMix64 finaliser.
pub fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A SplitMix64 stream keyed by `(seed, stream)`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream ^ 0x5EED_BE7C_0000_0000)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// The failure models both query and sweep workloads draw from.
pub const FAILURE_MODELS: [&str; 2] = ["exp", "weibull:0.7"];

/// Options the server evaluates with (`reproduce serve` forces simulation
/// off; the thread count never changes a value or a cache key).
pub fn serve_options() -> SweepOptions {
    SweepOptions::new(RunOptions {
        simulate: false,
        threads: Some(2),
        ..RunOptions::default()
    })
}

/// One `/v1/optimize` query.
#[derive(Debug, Clone)]
pub struct Query {
    pub platform: PlatformId,
    pub scenario: usize,
    /// Canonical profile spec string (`amdahl:0.1234`, `perfect`, ...).
    pub profile: String,
    pub failure_model: &'static str,
    pub lambda_multiplier: f64,
    /// `Some(P)` for a fixed-P query, `None` when P is optimised.
    pub processors: Option<f64>,
}

impl Query {
    pub fn body(&self) -> String {
        let mut body = format!(
            r#"{{"platform":"{}","scenario":{},"profile":"{}","failure_model":"{}","lambda_multiplier":{}"#,
            self.platform.name(),
            self.scenario,
            self.profile,
            self.failure_model,
            self.lambda_multiplier
        );
        if let Some(p) = self.processors {
            body.push_str(&format!(r#","processors":{p}"#));
        }
        body.push('}');
        body
    }

    /// The full request bytes sent on the wire.
    pub fn request(&self) -> Vec<u8> {
        http::request("POST", "/v1/optimize", None, Some(self.body().as_bytes()))
    }

    /// The setup the API builds for this query (same defaults and the same
    /// `measured λ × multiplier` rate).
    pub fn setup(&self) -> ExperimentSetup {
        let scenario = ScenarioId::from_number(self.scenario).expect("scenario in 1..=6");
        let profile = ProfileSpec::parse(&self.profile)
            .expect("generated profile specs are valid")
            .profile();
        ExperimentSetup::paper_default(self.platform, scenario)
            .with_profile(profile)
            .with_lambda_ind(Platform::get(self.platform).lambda_ind * self.lambda_multiplier)
    }

    pub fn model(&self) -> ExactModel {
        self.setup().model().expect("generated setups are valid")
    }

    pub fn failure_spec(&self) -> FailureModelSpec {
        FailureModelSpec::parse(self.failure_model)
            .expect("generated failure specs are valid")
            .without_lambda()
    }

    /// A 64-bit digest of the server's evaluation-cache key for this query:
    /// equal keys always share a digest, so distinct digests prove distinct
    /// keys in 8 bytes each.
    pub fn key_digest(&self, options: &SweepOptions) -> u64 {
        let key = analytic_cache_key(
            &self.model(),
            self.processors,
            &self.failure_spec(),
            options,
        );
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        hasher.finish()
    }
}

fn profile_spec(rng: &mut Rng) -> String {
    match rng.below(4) {
        0 => format!("amdahl:{:.4}", rng.uniform(0.02, 0.25)),
        1 => format!("powerlaw:{:.4}", rng.uniform(0.6, 0.95)),
        2 => format!("gustafson:{:.4}", rng.uniform(0.02, 0.25)),
        _ => "perfect".to_string(),
    }
}

/// Query number `index` of the stream `stream` under `seed`: one of the 4
/// platforms and 6 scenarios, one of the 4 profile families, `exp` or
/// `weibull:0.7`, a log-uniform λ multiplier in [1, 50] drawn at full f64
/// resolution, and P optimised with probability ¾ (else a fixed P in
/// [128, 8192]).
pub fn query(seed: u64, stream: u64, index: u64) -> Query {
    let mut rng = Rng::new(seed, mix(stream) ^ index);
    let platform = PlatformId::ALL[rng.below(PlatformId::ALL.len())];
    let scenario = 1 + rng.below(6);
    let profile = profile_spec(&mut rng);
    let failure_model = FAILURE_MODELS[rng.below(FAILURE_MODELS.len())];
    let lambda_multiplier = 10f64.powf(rng.unit() * 50f64.log10());
    let processors = (rng.below(4) == 0).then(|| (128.0 * 2f64.powf(6.0 * rng.unit())).round());
    Query {
        platform,
        scenario,
        profile,
        failure_model,
        lambda_multiplier,
        processors,
    }
}

/// Stream of the `query-cold` inputs.
pub const COLD_STREAM: u64 = 0xC01D;
/// Stream of the `query-warm` inputs.
pub const WARM_STREAM: u64 = 0x3A53;

/// `count` queries whose cache keys are pairwise distinct: a candidate whose
/// key digest repeats an earlier one is skipped, so every request of the
/// stream is one the server has never seen.
pub fn distinct_queries(seed: u64, stream: u64, count: usize) -> Vec<Query> {
    let options = serve_options();
    let mut seen = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    let mut index = 0u64;
    while out.len() < count {
        let query = query(seed, stream, index);
        index += 1;
        if seen.insert(query.key_digest(&options)) {
            out.push(query);
        }
    }
    out
}

/// The sweep grid axes shared by `sweep-local` and `sweep-cluster`:
/// 4 platforms × 6 scenarios × 4 profile families × 2 failure models ×
/// 6 λ multipliers × 6 processor counts × 4 pattern lengths = 27,648 cells.
pub const SWEEP_CELLS: usize = 4 * 6 * 4 * 2 * 6 * 6 * 4;

/// Shards every sweep job is split into.
pub const SWEEP_SHARDS: usize = 4;

/// The `/v1/sweep` body of job `job`: the fixed axes with the family
/// parameters drawn per job (near the paper's defaults, so each job costs
/// about the same), so no two jobs of a run share a configuration.
pub fn sweep_body(seed: u64, job: u64) -> String {
    let mut rng = Rng::new(seed, 0x5EE9_0000 ^ job);
    let platforms: Vec<String> = PlatformId::ALL
        .iter()
        .map(|p| format!("\"{}\"", p.name()))
        .collect();
    format!(
        concat!(
            r#"{{"platforms":[{}],"scenarios":[1,2,3,4,5,6],"#,
            r#""profiles":["amdahl:{:.4}","powerlaw:{:.4}","gustafson:{:.4}","perfect"],"#,
            r#""failure_models":["exp","weibull:0.7"],"lambda_multipliers":[1,2,5,10,20,50],"#,
            r#""processors":[128,256,512,1024,2048,4096],"pattern_lengths":[900,1800,3600,7200],"#,
            r#""shards":{}}}"#
        ),
        platforms.join(","),
        rng.uniform(0.08, 0.12),
        rng.uniform(0.75, 0.85),
        rng.uniform(0.03, 0.07),
        SWEEP_SHARDS
    )
}

/// `count` sweep bodies with pairwise distinct parameters.
pub fn sweep_bodies(seed: u64, count: usize) -> Vec<String> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    let mut job = 0u64;
    while out.len() < count {
        let body = sweep_body(seed, job);
        job += 1;
        if seen.insert(body.clone()) {
            out.push(body);
        }
    }
    out
}
