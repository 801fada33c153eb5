//! Property suite: the request and spec parsers, fed mutated valid text.
//!
//! Each parser gets the text of a valid value with a few mutations (see
//! `mutate`). Whatever comes of it, the parser must not panic. A speedup
//! profile or failure model spec is either refused or round-trips through
//! its rendering. `/v1/optimize` and `/v1/batch` bodies go through
//! `api::route` and must answer 2xx, or 4xx with an `error`, never a 5xx.
//! `/v1/sweep` bodies go through `api::parse_grid` (routing them would start
//! jobs), and an accepted grid keeps its fingerprint through the JSON
//! rendering a coordinator forwards to its workers. `/metrics` text goes
//! through `PrometheusText::parse`.

use std::sync::{Arc, OnceLock};

use ayd_serve::{api, AppState, Json, PrometheusText, Request, ServerConfig};
use ayd_sweep::{FailureModelSpec, ProfileSpec};
use mutate::{mutate, mutations};
use proptest::prelude::*;

mod mutate;

const PROFILES: [&str; 5] = [
    "amdahl:0.1",
    "perfect",
    "powerlaw:0.8",
    "gustafson:0.05",
    "amdahl:-0",
];

const FAILURE_MODELS: [&str; 7] = [
    "exp",
    "exp:2e-8",
    "weibull:0.7",
    "weibull:0.7,1e-7",
    "shifted:600",
    "shifted:600,1e-7",
    "trace:logs/a.trace",
];

/// Valid `/v1/optimize` bodies, one per kind of field.
const QUERIES: [&str; 4] = [
    r#"{"platform":"Hera","scenario":1,"lambda_multiplier":10}"#,
    r#"{"platform":"Atlas","scenario":3,"profile":"powerlaw:0.8","failure_model":"weibull:0.7","processors":1024,"pattern_length":3600}"#,
    r#"{"platform":"Coastal","scenario":6,"profile":{"kind":"gustafson","alpha":0.05},"failure_model":{"kind":"shifted","shift":600},"lambda_ind":1e-7,"downtime":60}"#,
    r#"{"alpha":0.2,"failure_model":"exp:2e-8"}"#,
];

/// Valid `/v1/sweep` bodies over every kind of axis.
const GRIDS: [&str; 3] = [
    r#"{"platforms":["Hera","Atlas"],"scenarios":[1,3],"profiles":["amdahl:0.1",{"kind":"powerlaw","sigma":0.8}],"failure_models":["exp","weibull:0.7"],"lambda_multipliers":[1,2.5],"processors":[256,1024],"pattern_lengths":[900,3600],"downtime":-0,"shards":2}"#,
    r#"{"alphas":[0.1,0.2],"lambda_values":[1e-8,3e-9],"lambda_orders":[0.25],"failure_models":[{"kind":"trace","path":"logs/a.trace"}]}"#,
    r#"{"scenarios":[6],"downtime":0}"#,
];

/// One standalone server state for every case, so a query repeated across
/// cases is answered from its cache.
fn state() -> &'static Arc<AppState> {
    static STATE: OnceLock<Arc<AppState>> = OnceLock::new();
    STATE.get_or_init(|| {
        AppState::new(&ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        })
    })
}

fn request(method: &str, target: &str, body: &str) -> Request {
    Request {
        method: method.to_string(),
        target: target.to_string(),
        http1_0: false,
        headers: vec![("content-type".to_string(), "application/json".to_string())],
        body: body.as_bytes().to_vec(),
    }
}

/// Routes `body` to `target` on the standalone state: the answer must be a
/// 2xx, or a 4xx whose JSON body names an `error`.
fn answer(target: &str, body: &str) {
    let (_, response) = api::route(state(), &request("POST", target, body));
    let status = response.status;
    if (200..300).contains(&status) {
        return;
    }
    assert!(
        (400..500).contains(&status),
        "{target} {body:?} answered {status}"
    );
    let error = std::str::from_utf8(&response.body.bytes().unwrap())
        .ok()
        .and_then(|text| Json::parse(text).ok())
        .is_some_and(|doc| doc.get("error").and_then(Json::as_str).is_some());
    assert!(error, "{target} {body:?}: a {status} without an error");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_profile_specs_are_refused_or_round_trip(
        which in 0usize..PROFILES.len(),
        edits in mutations(),
    ) {
        let text = mutate(PROFILES[which], &edits);
        if let Ok(parsed) = ProfileSpec::parse(&text) {
            prop_assert_eq!(ProfileSpec::parse(&parsed.to_string()), Ok(parsed));
        }
    }

    #[test]
    fn mutated_failure_model_specs_are_refused_or_round_trip(
        which in 0usize..FAILURE_MODELS.len(),
        edits in mutations(),
    ) {
        let text = mutate(FAILURE_MODELS[which], &edits);
        if let Ok(parsed) = FailureModelSpec::parse(&text) {
            prop_assert_eq!(FailureModelSpec::parse(&parsed.to_string()), Ok(parsed));
        }
    }

    /// A grid a worker rebuilds from the coordinator's rendering of the
    /// body is the grid the coordinator fingerprinted.
    #[test]
    fn mutated_sweep_bodies_are_refused_or_keep_their_fingerprint(
        which in 0usize..GRIDS.len(),
        edits in mutations(),
    ) {
        if let Ok(doc) = Json::parse(&mutate(GRIDS[which], &edits)) {
            if let Ok(grid) = api::parse_grid(&doc) {
                let forwarded = Json::parse(&doc.render()).expect("a rendering parses");
                prop_assert_eq!(
                    api::parse_grid(&forwarded).ok().map(|rebuilt| rebuilt.fingerprint()),
                    Some(grid.fingerprint()),
                    "{}", doc.render()
                );
            }
        }
    }

    #[test]
    fn mutated_metrics_text_parses_without_panicking(edits in mutations()) {
        static METRICS: OnceLock<String> = OnceLock::new();
        let text = METRICS.get_or_init(|| {
            api::route(state(), &request("POST", "/v1/optimize", QUERIES[0]));
            let (_, response) = api::route(state(), &request("GET", "/metrics", ""));
            assert_eq!(response.status, 200);
            String::from_utf8(response.body.bytes().unwrap().to_vec()).unwrap()
        });
        let _ = PrometheusText::parse(&mutate(text, &edits));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mutated_optimize_bodies_answer_2xx_or_4xx(
        which in 0usize..QUERIES.len(),
        edits in mutations(),
    ) {
        answer("/v1/optimize", &mutate(QUERIES[which], &edits));
    }

    #[test]
    fn mutated_batch_bodies_answer_2xx_or_4xx(
        picks in prop::collection::vec(0usize..QUERIES.len(), 0..9),
        edits in mutations(),
    ) {
        let queries: Vec<&str> = picks.iter().map(|&which| QUERIES[which]).collect();
        let body = format!(r#"{{"queries":[{}]}}"#, queries.join(","));
        answer("/v1/batch", &mutate(&body, &edits));
    }
}
