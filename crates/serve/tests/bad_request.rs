//! Structured 400 contract of `/v1/optimize` (and `/v1/batch`): invalid model
//! parameters come back as `{"error", "field", "reason"}` JSON naming the
//! offending request field, not as a generic error string.

use std::sync::Arc;

use ayd_serve::api::route;
use ayd_serve::{AppState, Json, Request, ServerConfig};

fn state() -> Arc<AppState> {
    AppState::new(&ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    })
}

fn post(target: &str, body: &str) -> Request {
    Request {
        method: "POST".to_string(),
        target: target.to_string(),
        http1_0: false,
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    }
}

/// Routes a body to `/v1/optimize`, expects a 400 and returns the parsed
/// error document.
fn optimize_400(state: &Arc<AppState>, body: &str) -> Json {
    let (_, response) = route(state, &post("/v1/optimize", body));
    assert_eq!(response.status, 400, "body: {body}");
    assert_eq!(response.content_type, "application/json");
    Json::parse(std::str::from_utf8(&response.body.bytes().unwrap()).unwrap()).unwrap()
}

fn field_of(doc: &Json) -> &str {
    doc.get("field").and_then(Json::as_str).unwrap_or_else(|| {
        panic!("no 'field' in {doc:?}");
    })
}

fn reason_of(doc: &Json) -> &str {
    doc.get("reason").and_then(Json::as_str).expect("reason")
}

#[test]
fn invalid_alpha_names_the_field() {
    let state = state();
    for body in [r#"{"alpha":1.5}"#, r#"{"alpha":-0.1}"#] {
        let doc = optimize_400(&state, body);
        assert_eq!(field_of(&doc), "alpha", "{doc:?}");
        assert!(reason_of(&doc).contains("[0, 1]"), "{doc:?}");
        // Back-compat: the legacy "error" key carries the same message.
        assert_eq!(
            doc.get("error").and_then(Json::as_str).unwrap(),
            reason_of(&doc)
        );
    }
}

#[test]
fn invalid_sigma_names_the_field() {
    let state = state();
    for sigma in ["0", "1.5", "-0.2"] {
        let doc = optimize_400(
            &state,
            &format!(r#"{{"profile":{{"kind":"powerlaw","sigma":{sigma}}}}}"#),
        );
        assert_eq!(field_of(&doc), "sigma", "{doc:?}");
        assert!(reason_of(&doc).contains("sigma"), "{doc:?}");
    }
}

#[test]
fn profile_shape_errors_name_the_profile_field() {
    let state = state();
    for body in [
        r#"{"profile":"bogus:0.5"}"#,
        r#"{"profile":"amdahl"}"#,
        r#"{"profile":{"kind":"perfect","alpha":0.1}}"#,
        r#"{"profile":{"kind":"powerlaw","alpha":0.8}}"#,
        r#"{"profile":{"alpha":0.1}}"#,
        r#"{"profile":42}"#,
        r#"{"alpha":0.1,"profile":"perfect"}"#,
    ] {
        let doc = optimize_400(&state, body);
        assert_eq!(field_of(&doc), "profile", "body: {body} → {doc:?}");
    }
}

#[test]
fn wrong_parameter_key_reports_the_key_mismatch_not_a_phantom_field() {
    // An out-of-range value under the wrong key must report the key mismatch
    // ('powerlaw' takes 'sigma'), not attribute the error to a 'sigma' field
    // the request never contained.
    let state = state();
    let doc = optimize_400(&state, r#"{"profile":{"kind":"powerlaw","alpha":1.7}}"#);
    assert_eq!(field_of(&doc), "profile", "{doc:?}");
    assert!(
        reason_of(&doc).contains("takes 'sigma', not 'alpha'"),
        "{doc:?}"
    );
}

#[test]
fn sweep_bodies_attribute_their_own_fields() {
    let state = state();
    let sweep_400 = |body: &str| {
        let (_, response) = route(&state, &post("/v1/sweep", body));
        assert_eq!(response.status, 400, "body: {body}");
        Json::parse(std::str::from_utf8(&response.body.bytes().unwrap()).unwrap()).unwrap()
    };
    let doc = sweep_400(r#"{"alphas":[0.1,1.5]}"#);
    assert_eq!(field_of(&doc), "alphas", "{doc:?}");
    assert!(reason_of(&doc).contains("[0, 1]"), "{doc:?}");
    let doc = sweep_400(r#"{"profiles":["bogus:0.5"]}"#);
    assert_eq!(field_of(&doc), "profiles", "{doc:?}");
    let doc = sweep_400(r#"{"profiles":[{"kind":"powerlaw","sigma":0}]}"#);
    assert_eq!(field_of(&doc), "sigma", "{doc:?}");
    let doc = sweep_400(r#"{"alphas":[0.1],"profiles":["perfect"]}"#);
    assert_eq!(field_of(&doc), "profiles", "{doc:?}");
}

#[test]
fn other_model_parameters_are_attributed_too() {
    let state = state();
    let doc = optimize_400(&state, r#"{"lambda_ind":0}"#);
    assert_eq!(field_of(&doc), "lambda_ind", "{doc:?}");
    let doc = optimize_400(&state, r#"{"downtime":-5}"#);
    assert_eq!(field_of(&doc), "downtime", "{doc:?}");
    let doc = optimize_400(&state, r#"{"processors":-1}"#);
    assert_eq!(field_of(&doc), "processors", "{doc:?}");
    let doc = optimize_400(&state, r#"{"platform":"Nope"}"#);
    assert_eq!(field_of(&doc), "platform", "{doc:?}");
}

#[test]
fn batch_errors_keep_the_field_and_name_the_query() {
    let state = state();
    let (_, response) = route(
        &state,
        &post("/v1/batch", r#"{"queries":[{"scenario":1},{"alpha":7}]}"#),
    );
    assert_eq!(response.status, 400);
    let doc = Json::parse(std::str::from_utf8(&response.body.bytes().unwrap()).unwrap()).unwrap();
    assert_eq!(field_of(&doc), "alpha");
    assert!(reason_of(&doc).starts_with("query 1: "), "{doc:?}");
}

#[test]
fn valid_profiles_still_answer_200() {
    let state = state();
    for body in [
        r#"{"profile":"powerlaw:0.8"}"#,
        r#"{"profile":{"kind":"gustafson","alpha":0.05}}"#,
        r#"{"profile":"perfect"}"#,
        r#"{"alpha":0.2}"#,
    ] {
        let (_, response) = route(&state, &post("/v1/optimize", body));
        assert_eq!(response.status, 200, "body: {body}");
    }
}
