//! Route table and request handlers.
//!
//! `endpoint` names the route of a request with a static label, which feeds
//! the metrics registry; `dispatch` runs the handler that label names, and
//! the connection loop writes the response. A `/v1/batch` answers a
//! validated `Batch` instead,
//! which the connection loop evaluates one slice per turn. Handlers are pure
//! functions of the shared [`AppState`] plus the parsed request — no I/O —
//! which keeps them trivially testable.

use std::sync::Arc;
use std::time::Instant;

use ayd_core::{FailureModelSpec, ModelError, ProfileSpec, SpeedupProfile};
use ayd_platforms::{ExperimentSetup, Platform, PlatformId, ScenarioId};
use ayd_sweep::{
    evaluate_cells, write_csv_line, OperatingPoint, ProcessorAxis, ScenarioGrid, SearchReport,
    SweepCell, SweepRow, CSV_HEADER,
};

use crate::app::{
    AppState, DistributedJobHandle, JobHandle, JobView, LocalJob, MAX_RUNNING_JOBS, MAX_SWEEP_CELLS,
};
use crate::http::{Request, Response};
use crate::json::Json;

/// Maximum queries accepted in one `/v1/batch` body.
const MAX_BATCH: usize = 10_000;

/// What [`dispatch`] made of a request.
pub(crate) enum Routed {
    /// The whole response.
    Done(Response),
    /// A validated `/v1/batch`, still to be evaluated one [`Batch::step`] at
    /// a time.
    Batch(Batch),
}

impl From<Response> for Routed {
    fn from(response: Response) -> Self {
        Routed::Done(response)
    }
}

/// Answers one parsed request to completion, returning the endpoint label
/// (for metrics) and the response: the request is dispatched, and a batch's
/// slices are evaluated back to back.
pub fn route(state: &Arc<AppState>, req: &Request) -> (&'static str, Response) {
    let response = match dispatch(state, req) {
        Routed::Done(response) => response,
        Routed::Batch(mut batch) => {
            while !batch.step(state, ayd_obs::SpanContext::default()) {}
            batch.finish()
        }
    };
    (endpoint(&req.method, &req.target), response)
}

/// The endpoint label of a request, from its method and target: the route
/// table. [`dispatch`] picks the handler by it, and the connection loop
/// labels the in-flight gauge, the request counter and the `request` span
/// with it. A method the route does not allow keeps the route's label.
pub(crate) fn endpoint(method: &str, target: &str) -> &'static str {
    let path = target.split('?').next().unwrap_or("");
    match path {
        "/healthz" => "healthz",
        "/metrics" => "metrics",
        "/v1/trace/recent" => "trace_recent",
        "/v1/optimize" => "optimize",
        "/v1/batch" => "batch",
        "/v1/sweep" => "sweep_submit",
        "/v1/workers/register" => "worker_register",
        "/v1/workers" => "workers",
        "/v1/shards/run" => "shard_run",
        _ if path.starts_with("/v1/workers/") => "worker_heartbeat",
        _ => match path.strip_prefix("/v1/sweep/") {
            Some(rest) if rest.contains("/shards/") => "shard_chunk",
            Some(rest) if rest.ends_with("/shards") => "sweep_shards",
            Some(_) if method == "DELETE" => "sweep_cancel",
            Some(_) => "sweep_poll",
            None => "unknown",
        },
    }
}

/// Dispatches one parsed request to the handler its [`endpoint`] label
/// names, returning either the response or a batch to evaluate over later
/// turns.
pub(crate) fn dispatch(state: &Arc<AppState>, req: &Request) -> Routed {
    let path = req.target.split('?').next().unwrap_or("");
    // The sweep routes carry their ids below `/v1/sweep/`.
    let rest = path.strip_prefix("/v1/sweep/").unwrap_or("");
    let method = req.method.as_str();
    match endpoint(method, &req.target) {
        "healthz" => match method {
            "GET" => health(state).into(),
            _ => method_not_allowed("GET").into(),
        },
        "metrics" => match method {
            "GET" => {
                let cluster = state
                    .coordinator
                    .as_ref()
                    .map(|coordinator| coordinator.stats(Instant::now()));
                Response::text(
                    200,
                    "OK",
                    state.metrics.render_prometheus(
                        &state.cache.stats(),
                        &state.jobs.gauge_snapshot(),
                        cluster.as_ref(),
                    ),
                )
                .into()
            }
            _ => method_not_allowed("GET").into(),
        },
        "trace_recent" => match method {
            "GET" => trace_recent(req).into(),
            _ => method_not_allowed("GET").into(),
        },
        "optimize" => match method {
            "POST" => optimize(state, req).into(),
            _ => method_not_allowed("POST").into(),
        },
        "batch" => match method {
            "POST" => Batch::start(req).map_or_else(Routed::Done, Routed::Batch),
            _ => method_not_allowed("POST").into(),
        },
        "sweep_submit" => match method {
            "POST" => sweep_submit(state, req).into(),
            _ => method_not_allowed("POST").into(),
        },
        "worker_register" => match method {
            "POST" => worker_register(state, req).into(),
            _ => method_not_allowed("POST").into(),
        },
        "workers" => match method {
            "GET" => workers_list(state).into(),
            _ => method_not_allowed("GET").into(),
        },
        "worker_heartbeat" => {
            let id = path
                .strip_prefix("/v1/workers/")
                .and_then(|rest| rest.strip_suffix("/heartbeat"))
                .and_then(|t| t.parse().ok());
            match (method, id) {
                ("POST", Some(id)) => worker_heartbeat(state, req, id).into(),
                (_, Some(_)) => method_not_allowed("POST").into(),
                (_, None) => not_found().into(),
            }
        }
        "shard_run" => match method {
            "POST" => shard_run(state, req).into(),
            _ => method_not_allowed("POST").into(),
        },
        // Worker → coordinator chunk upload:
        // POST /v1/sweep/{job}/shards/{index}/chunk?worker=&token=&epoch=
        "shard_chunk" => {
            let ids = rest.split_once("/shards/").and_then(|(job_text, tail)| {
                let index_text = tail.strip_suffix("/chunk")?;
                Some((
                    job_text.parse::<u64>().ok()?,
                    index_text.parse::<usize>().ok()?,
                ))
            });
            match (method, ids) {
                ("POST", Some((job, index))) => shard_chunk(state, req, job, index).into(),
                (_, Some(_)) => method_not_allowed("POST").into(),
                (_, None) => not_found().into(),
            }
        }
        "sweep_shards" => {
            let id = rest.strip_suffix("/shards").and_then(|t| t.parse().ok());
            match (method, id) {
                ("GET", Some(id)) => sweep_shards(state, id).into(),
                (_, Some(_)) => method_not_allowed("GET").into(),
                (_, None) => not_found().into(),
            }
        }
        "sweep_poll" | "sweep_cancel" => match (method, rest.parse::<u64>().ok()) {
            ("GET", Some(id)) => sweep_poll(state, req, id).into(),
            ("DELETE", Some(id)) => sweep_cancel(state, id).into(),
            (_, Some(_)) => method_not_allowed("GET, DELETE").into(),
            (_, None) => not_found().into(),
        },
        _ => not_found().into(),
    }
}

/// The value of query parameter `key` in a request target, if present.
fn query_param<'a>(target: &'a str, key: &str) -> Option<&'a str> {
    target.split_once('?')?.1.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then_some(v)
    })
}

/// `GET /v1/trace/recent[?limit=N]`: the newest completed spans from the
/// in-process ring, oldest first — a debug window onto the tracing layer, no
/// sink required. Returns an empty list while tracing is disabled.
fn trace_recent(req: &Request) -> Response {
    let limit = req
        .target
        .split_once('?')
        .and_then(|(_, query)| {
            query
                .split('&')
                .find_map(|pair| pair.strip_prefix("limit="))
        })
        .map(str::parse::<usize>);
    let limit = match limit {
        None => 64,
        Some(Ok(limit)) => limit.min(ayd_obs::RING_CAPACITY.max(64)),
        Some(Err(_)) => return bad_request("limit must be a non-negative integer"),
    };
    let records = ayd_obs::recent(limit);
    // SpanRecord::to_json_line is already the canonical JSON rendering of one
    // span (stable field order); the endpoint just frames the lines.
    let mut body = String::with_capacity(64 + records.len() * 128);
    body.push_str("{\"count\":");
    body.push_str(&records.len().to_string());
    body.push_str(",\"spans\":[");
    for (i, record) in records.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&record.to_json_line());
    }
    body.push_str("]}");
    Response::json_text(body)
}

fn method_not_allowed(allow: &'static str) -> Response {
    Response::error(405, "Method Not Allowed", "method not allowed").with_header("allow", allow)
}

fn not_found() -> Response {
    Response::error(404, "Not Found", "no such route")
}

fn bad_request(message: &str) -> Response {
    Response::error(400, "Bad Request", message)
}

/// A structured bad-request error: the offending request field (when it can
/// be pinned down) plus a human-readable reason. Rendered as
/// `{"error": ..., "field": ..., "reason": ...}` with status 400, so clients
/// can surface validation failures per field instead of parsing prose.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiError {
    /// The request field at fault (`alpha`, `sigma`, `lambda_ind`, …), when known.
    pub field: Option<String>,
    /// Why the value was rejected.
    pub reason: String,
}

impl ApiError {
    /// An error attributed to one request field.
    pub fn field(field: impl Into<String>, reason: impl Into<String>) -> Self {
        Self {
            field: Some(field.into()),
            reason: reason.into(),
        }
    }

    /// An error with no single offending field.
    pub fn plain(reason: impl Into<String>) -> Self {
        Self {
            field: None,
            reason: reason.into(),
        }
    }

    /// Maps a model-construction error to the request field it came from: the
    /// model layer names its parameters (`alpha`, `sigma`, `lambda_ind`,
    /// `downtime`) exactly like the request schema does.
    pub fn from_model_error(error: ModelError) -> Self {
        let reason = error.to_string();
        match error {
            ModelError::NonPositive { name, .. }
            | ModelError::Negative { name, .. }
            | ModelError::NotAFraction { name, .. } => Self::field(name, reason),
            ModelError::InvalidProfileSpec { .. } => Self::field("profile", reason),
            ModelError::InvalidFailureSpec { .. } => Self::field("failure_model", reason),
            _ => Self::plain(reason),
        }
    }

    /// Prefixes the reason (used by `/v1/batch` to name the failing query).
    pub fn prefixed(mut self, prefix: &str) -> Self {
        self.reason = format!("{prefix}{}", self.reason);
        self
    }

    /// The structured 400 response.
    pub fn response(&self) -> Response {
        Response::json_status(
            400,
            "Bad Request",
            &Json::obj(vec![
                ("error", Json::str(self.reason.clone())),
                ("field", self.field.as_deref().map_or(Json::Null, Json::str)),
                ("reason", Json::str(self.reason.clone())),
            ]),
        )
    }
}

impl From<String> for ApiError {
    fn from(reason: String) -> Self {
        Self::plain(reason)
    }
}

fn parse_body(req: &Request) -> Result<Json, Response> {
    let text =
        std::str::from_utf8(&req.body).map_err(|_| bad_request("body is not valid UTF-8"))?;
    if text.trim().is_empty() {
        // An absent body behaves like an empty object: every field optional.
        return Ok(Json::Obj(Vec::new()));
    }
    Json::parse(text).map_err(|e| bad_request(&format!("invalid JSON: {e}")))
}

fn health(state: &Arc<AppState>) -> Response {
    Response::json(&Json::obj(vec![
        ("status", Json::str("ok")),
        (
            "uptime_seconds",
            Json::num(state.started.elapsed().as_secs_f64()),
        ),
        ("requests", Json::num(state.metrics.request_count() as f64)),
        ("cache_entries", Json::num(state.cache.len() as f64)),
        ("running_jobs", Json::num(state.jobs.running_count() as f64)),
    ]))
}

/// One validated optimize query: a one-cell sweep. Its `index` is 0; the
/// index only seeds simulations, and the service never simulates.
pub type OptimizeQuery = SweepCell;

fn field_f64(body: &Json, key: &str) -> Result<Option<f64>, ApiError> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(value) => value
            .as_f64()
            .map(Some)
            .ok_or_else(|| ApiError::field(key, format!("field '{key}' must be a number"))),
    }
}

/// Parses a `profile` request value: either a canonical spec string
/// (`"powerlaw:0.8"`) or an object (`{"kind":"powerlaw","sigma":0.8}`,
/// `{"kind":"amdahl","alpha":0.1}`, `{"kind":"perfect"}`). Rendering a
/// response profile back through either form reproduces the parameter
/// bit-identically.
pub fn parse_profile(value: &Json) -> Result<SpeedupProfile, ApiError> {
    let spec = match value {
        Json::Str(spec) => {
            ProfileSpec::parse(spec).map_err(|e| ApiError::field("profile", e.to_string()))?
        }
        Json::Obj(_) => {
            let kind = value.get("kind").and_then(Json::as_str).ok_or_else(|| {
                ApiError::field("profile", "profile object needs a 'kind' string")
            })?;
            let alpha = field_f64(value, "alpha")?;
            let sigma = field_f64(value, "sigma")?;
            let param = match (alpha, sigma) {
                (Some(_), Some(_)) => {
                    return Err(ApiError::field(
                        "profile",
                        "specify at most one of 'alpha' and 'sigma' in a profile object",
                    ))
                }
                (param, None) | (None, param) => param,
            };
            // The parameter key must match the family's parameter name
            // (amdahl/gustafson take 'alpha', powerlaw takes 'sigma') — checked
            // before range validation, so a wrong key with an out-of-range
            // value reports the key mismatch, not a field the request never
            // contained.
            let given = if alpha.is_some() {
                Some("alpha")
            } else if sigma.is_some() {
                Some("sigma")
            } else {
                None
            };
            if let (Some(given), Some(expected)) = (given, ProfileSpec::param_name_for_kind(kind)) {
                if given != expected {
                    return Err(ApiError::field(
                        "profile",
                        format!("profile kind '{kind}' takes '{expected}', not '{given}'"),
                    ));
                }
            }
            ProfileSpec::from_kind_param(kind, param).map_err(ApiError::from_model_error)?
        }
        _ => {
            return Err(ApiError::field(
                "profile",
                "field 'profile' must be a spec string or an object",
            ))
        }
    };
    Ok(spec.profile())
}

/// Parses a `failure_model` request value: either a canonical spec string
/// (`"weibull:0.7"`, `"shifted:600,1e-7"`, `"trace:logs/a.trace"`) or an
/// object (`{"kind":"weibull","shape":0.7}`, `{"kind":"shifted","shift":600}`,
/// `{"kind":"trace","path":"logs/a.trace"}`, optionally with an explicit
/// `"lambda"` rate on the parametric families). Rendering a response model
/// back through either form reproduces the parameters bit-identically.
pub fn parse_failure_model(value: &Json) -> Result<FailureModelSpec, ApiError> {
    match value {
        Json::Str(spec) => FailureModelSpec::parse(spec)
            .map_err(|e| ApiError::field("failure_model", e.to_string())),
        Json::Obj(_) => {
            let kind = value.get("kind").and_then(Json::as_str).ok_or_else(|| {
                ApiError::field(
                    "failure_model",
                    "failure model object needs a 'kind' string",
                )
            })?;
            let shape = field_f64(value, "shape").map_err(remap_to_failure_model)?;
            let shift = field_f64(value, "shift").map_err(remap_to_failure_model)?;
            let param = match (shape, shift) {
                (Some(_), Some(_)) => {
                    return Err(ApiError::field(
                        "failure_model",
                        "specify at most one of 'shape' and 'shift' in a failure model object",
                    ))
                }
                (param, None) | (None, param) => param,
            };
            // Like profile objects: the parameter key must match the family
            // (weibull takes 'shape', shifted takes 'shift'), checked before
            // range validation.
            let given = if shape.is_some() {
                Some("shape")
            } else if shift.is_some() {
                Some("shift")
            } else {
                None
            };
            if let (Some(given), Some(expected)) =
                (given, FailureModelSpec::param_name_for_kind(kind))
            {
                if given != expected {
                    return Err(ApiError::field(
                        "failure_model",
                        format!("failure model kind '{kind}' takes '{expected}', not '{given}'"),
                    ));
                }
            }
            let path = match value.get("path") {
                None | Some(Json::Null) => None,
                Some(path) => Some(path.as_str().ok_or_else(|| {
                    ApiError::field("failure_model", "field 'path' must be a string")
                })?),
            };
            let spec = match (kind, path) {
                ("trace", Some(path)) => {
                    if param.is_some() {
                        return Err(ApiError::field(
                            "failure_model",
                            "trace models take a 'path', not 'shape'/'shift'",
                        ));
                    }
                    FailureModelSpec::trace(path).map_err(ApiError::from_model_error)?
                }
                ("trace", None) => {
                    return Err(ApiError::field(
                        "failure_model",
                        "failure model kind 'trace' needs a 'path' string",
                    ))
                }
                (_, Some(_)) => {
                    return Err(ApiError::field(
                        "failure_model",
                        format!("failure model kind '{kind}' takes no 'path'"),
                    ))
                }
                (_, None) => FailureModelSpec::from_kind_param(kind, param)
                    .map_err(ApiError::from_model_error)?,
            };
            match field_f64(value, "lambda").map_err(remap_to_failure_model)? {
                None => Ok(spec),
                Some(lambda) => spec.with_lambda(lambda).map_err(ApiError::from_model_error),
            }
        }
        _ => Err(ApiError::field(
            "failure_model",
            "field 'failure_model' must be a spec string or an object",
        )),
    }
}

/// Re-attributes a sub-field error (`shape`, `shift`, `lambda`) of a failure
/// model object to the enclosing `failure_model` request field.
fn remap_to_failure_model(mut error: ApiError) -> ApiError {
    error.field = Some("failure_model".to_string());
    error
}

/// Parses one optimize query. Defaults are the paper's: Hera, scenario 1,
/// Amdahl `α = 0.1`, `D = 3600 s`, the platform's measured error rate,
/// jointly optimised `P`. The speedup profile comes from either `alpha`
/// (Amdahl shorthand) or the generic `profile` field, never both.
pub fn parse_optimize(body: &Json) -> Result<OptimizeQuery, ApiError> {
    let platform = match body.get("platform") {
        None | Some(Json::Null) => PlatformId::Hera,
        Some(value) => {
            let name = value
                .as_str()
                .ok_or_else(|| ApiError::field("platform", "field 'platform' must be a string"))?;
            PlatformId::parse(name)
                .ok_or_else(|| ApiError::field("platform", format!("unknown platform '{name}'")))?
        }
    };
    let scenario = match field_f64(body, "scenario")? {
        None => ScenarioId::S1,
        Some(number) => ScenarioId::from_number(number as usize)
            .filter(|_| number.fract() == 0.0)
            .ok_or_else(|| {
                ApiError::field(
                    "scenario",
                    format!("scenario must be an integer in 1..=6, got {number}"),
                )
            })?,
    };
    let mut setup = ExperimentSetup::paper_default(platform, scenario);
    let alpha = field_f64(body, "alpha")?;
    let profile = match body.get("profile") {
        None | Some(Json::Null) => None,
        Some(value) => Some(parse_profile(value)?),
    };
    match (alpha, profile) {
        (Some(_), Some(_)) => {
            return Err(ApiError::field(
                "profile",
                "specify at most one of 'alpha' and 'profile'",
            ))
        }
        (Some(alpha), None) => setup = setup.with_alpha(alpha),
        (None, Some(profile)) => setup = setup.with_profile(profile),
        (None, None) => {}
    }
    if let Some(downtime) = field_f64(body, "downtime")? {
        setup = setup.with_downtime(downtime);
    }
    let failure_model = match body.get("failure_model") {
        None | Some(Json::Null) => FailureModelSpec::exponential(),
        Some(value) => parse_failure_model(value)?,
    };
    let measured_lambda = Platform::get(platform).lambda_ind;
    let lambda_ind = field_f64(body, "lambda_ind")?;
    let lambda_multiplier = field_f64(body, "lambda_multiplier")?;
    if failure_model.lambda().is_some() && (lambda_ind.is_some() || lambda_multiplier.is_some()) {
        return Err(ApiError::field(
            "failure_model",
            "the failure model pins an explicit rate; specify the rate once \
             (drop 'lambda_ind'/'lambda_multiplier', or the model's rate)",
        ));
    }
    // A rate pinned in the failure model spec behaves exactly like
    // 'lambda_ind'; the spec itself is stored rate-free (the row's
    // lambda_ind column carries the rate, as in sweep grids).
    let lambda_ind = lambda_ind.or(failure_model.lambda());
    let failure_model = failure_model.without_lambda();
    let multiplier = match (lambda_ind, lambda_multiplier) {
        (Some(_), Some(_)) => {
            return Err(ApiError::field(
                "lambda_ind",
                "specify at most one of 'lambda_ind' and 'lambda_multiplier'",
            ))
        }
        (Some(lambda), None) => {
            setup = setup.with_lambda_ind(lambda);
            lambda / measured_lambda
        }
        (None, Some(multiplier)) => {
            setup = setup.with_lambda_ind(measured_lambda * multiplier);
            multiplier
        }
        (None, None) => 1.0,
    };
    let fixed_processors = field_f64(body, "processors")?;
    if fixed_processors.is_some_and(|p| !p.is_finite() || p <= 0.0) {
        return Err(ApiError::field(
            "processors",
            "'processors' must be positive and finite",
        ));
    }
    let pattern_length = field_f64(body, "pattern_length")?;
    if pattern_length.is_some() && fixed_processors.is_none() {
        return Err(ApiError::field(
            "pattern_length",
            "'pattern_length' requires a fixed 'processors'",
        ));
    }
    if pattern_length.is_some_and(|t| !t.is_finite() || t <= 0.0) {
        return Err(ApiError::field(
            "pattern_length",
            "'pattern_length' must be positive and finite",
        ));
    }
    // Built here only to validate it: a bad model answers its structured
    // 400 before anything is evaluated.
    setup.model().map_err(ApiError::from_model_error)?;
    Ok(SweepCell {
        index: 0,
        setup,
        failure_model,
        lambda_multiplier: multiplier,
        fixed_processors,
        processor_order: None,
        pattern_length,
    })
}

/// Evaluates a query against the process-wide cache: the query is a
/// one-cell sweep, so its row is the one the sweep engine computes for the
/// same cell. Cold (cache-miss) evaluations feed
/// `ayd_optimize_cold_seconds`, warm ones `ayd_optimize_warm_seconds`; both
/// feed the search counters and the per-request `evaluate` span.
pub fn evaluate_query(state: &AppState, query: &OptimizeQuery) -> SweepRow {
    let mut span = ayd_obs::span("evaluate");
    let started = Instant::now();
    let mut answer = None;
    let observation = evaluate_cells(
        std::slice::from_ref(query),
        &state.options,
        Some(&state.cache),
        |row| answer = Some(row),
    );
    if observation.computed {
        state.metrics.observe_cold(started.elapsed());
    } else {
        state.metrics.observe_warm(started.elapsed());
    }
    span.field_bool("cold", observation.computed);
    record_search(state, &mut span, observation.search);
    span.finish();
    answer.expect("one cell evaluates to one row")
}

/// Writes an evaluation's search tally to the `ayd_search_*` counters and
/// to its `evaluate` span: the fast/fallback counts, the Brent iterations
/// and, when a search fell back, the distinct reasons.
fn record_search(state: &AppState, span: &mut ayd_obs::Span, search: SearchReport) {
    state.metrics.observe_search(search);
    if !span.is_recording() {
        return;
    }
    span.field_u64("search_fast", search.fast);
    span.field_u64("search_fallback", search.fallback);
    span.field_u64("brent_iterations", search.brent_iterations);
    if search.fallback > 0 {
        let reasons: Vec<&str> = ayd_sweep::FallbackReason::ALL
            .into_iter()
            .filter(|&reason| search.fallback_count(reason) > 0)
            .map(ayd_sweep::FallbackReason::as_str)
            .collect();
        span.field_str("fallback_reasons", &reasons.join(","));
    }
}

fn point_json(point: &OperatingPoint) -> Json {
    Json::obj(vec![
        ("processors", Json::num(point.processors)),
        ("period", Json::num(point.period)),
        ("overhead", Json::num(point.predicted_overhead)),
        ("formula_overhead", Json::opt_num(point.formula_overhead)),
    ])
}

/// Renders a speedup profile as its response JSON object: the family `kind`,
/// the canonical `spec` string, and the parameter under its proper name
/// (`alpha` or `sigma`). Numbers render with shortest-roundtrip formatting,
/// so feeding the object (or the spec string) back as a request `profile`
/// reproduces the profile bit-identically.
pub fn profile_json(profile: SpeedupProfile) -> Json {
    let spec = ProfileSpec::from(profile);
    let mut fields = vec![
        ("kind", Json::str(spec.kind())),
        ("spec", Json::str(spec.to_string())),
    ];
    if let (Some(name), Some(value)) = (spec.param_name(), spec.param()) {
        fields.push((name, Json::num(value)));
    }
    Json::obj(fields)
}

/// Renders a failure model as its response JSON object: the family `kind`,
/// the canonical `spec` string, and the parameter under its proper name
/// (`shape` or `shift`); trace models carry their `path`. Feeding the object
/// (or the spec string) back as a request `failure_model` reproduces the
/// model bit-identically.
pub fn failure_model_json(spec: &FailureModelSpec) -> Json {
    let mut fields = vec![
        ("kind", Json::str(spec.kind())),
        ("spec", Json::str(spec.to_string())),
    ];
    if let (Some(name), Some(value)) = (spec.param_name(), spec.param()) {
        fields.push((name, Json::num(value)));
    }
    if let Some(path) = spec.trace_path() {
        fields.push(("path", Json::str(path)));
    }
    Json::obj(fields)
}

/// Renders one evaluated row as the `/v1/optimize` JSON document.
pub fn row_json(row: &SweepRow) -> Json {
    Json::obj(vec![
        ("platform", Json::str(row.platform.name())),
        ("scenario", Json::num(row.scenario as f64)),
        ("profile", profile_json(row.profile)),
        ("failure_model", failure_model_json(&row.failure_model)),
        ("alpha", Json::opt_num(row.alpha)),
        ("lambda_ind", Json::num(row.lambda_ind)),
        ("lambda_multiplier", Json::num(row.lambda_multiplier)),
        ("processors", Json::opt_num(row.fixed_processors)),
        ("pattern_length", Json::opt_num(row.pattern_length)),
        (
            "first_order",
            row.first_order.as_ref().map_or(Json::Null, point_json),
        ),
        (
            "closed_form",
            row.closed_form.map_or(Json::Null, |cf| {
                Json::obj(vec![
                    ("processors", Json::num(cf.processors)),
                    ("period", Json::num(cf.period)),
                    ("overhead", Json::num(cf.overhead)),
                ])
            }),
        ),
        ("numerical", point_json(&row.numerical)),
        (
            "prescribed",
            row.prescribed.as_ref().map_or(Json::Null, point_json),
        ),
    ])
}

fn optimize(state: &Arc<AppState>, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(body) => body,
        Err(response) => return response,
    };
    let query = match parse_optimize(&body) {
        Ok(query) => query,
        Err(error) => return error.response(),
    };
    let row = evaluate_query(state, &query);
    if req.accepts("text/csv") {
        // The header, then the row's line, as a one-row batch writes it.
        let mut csv = format!("{CSV_HEADER}\n");
        write_csv_line(&mut csv, &row);
        Response::csv(csv)
    } else {
        Response::json(&row_json(&row))
    }
}

/// Queries evaluated per [`Batch::step`]: one [`evaluate_cells`] call, as
/// a sweep worker evaluates one chunk.
const BATCH_CHUNK: usize = 8;

/// A validated `/v1/batch` request, evaluated and rendered one slice of
/// [`BATCH_CHUNK`] queries per [`Batch::step`]. The reactor that read it
/// takes one step per turn, so a long batch never holds the reactor from its
/// other connections.
pub(crate) struct Batch {
    queries: Vec<SweepCell>,
    /// Queries evaluated so far; their rows are already in `body`.
    done: usize,
    csv: bool,
    /// The response body so far: the document's opening, then one rendered
    /// row per evaluated query.
    body: String,
}

impl Batch {
    /// Parses and validates the whole body before anything is evaluated: a
    /// bad query answers its `query N:` 400 here.
    fn start(req: &Request) -> Result<Batch, Response> {
        let body = parse_body(req)?;
        let queries = body
            .get("queries")
            .and_then(Json::as_array)
            .ok_or_else(|| bad_request("body must be {\"queries\": [...]}"))?;
        if queries.len() > MAX_BATCH {
            return Err(bad_request(&format!(
                "at most {MAX_BATCH} queries per batch"
            )));
        }
        let queries = queries
            .iter()
            .enumerate()
            .map(|(index, query)| {
                parse_optimize(query)
                    .map_err(|error| error.prefixed(&format!("query {index}: ")).response())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let csv = req.accepts("text/csv");
        let count = Json::num(queries.len() as f64).render();
        let body = if csv {
            format!("{CSV_HEADER}\n")
        } else {
            format!("{{\"count\":{count},\"results\":[")
        };
        Ok(Batch {
            queries,
            done: 0,
            csv,
            body,
        })
    }

    /// Evaluates the next slice and appends its rows to the body, inside one
    /// `evaluate` span under `parent` (a default context records none).
    /// Returns true once every query is in.
    pub(crate) fn step(&mut self, state: &AppState, parent: ayd_obs::SpanContext) -> bool {
        let end = (self.done + BATCH_CHUNK).min(self.queries.len());
        let slice = &self.queries[self.done..end];
        if slice.is_empty() {
            return true;
        }
        let mut span = ayd_obs::child_of(parent, "evaluate");
        let (body, csv) = (&mut self.body, self.csv);
        let mut index = self.done;
        let observation = evaluate_cells(slice, &state.options, Some(&state.cache), |row| {
            if csv {
                write_csv_line(body, &row);
            } else {
                if index > 0 {
                    body.push(',');
                }
                row_json(&row).render_into(body);
            }
            index += 1;
        });
        record_search(state, &mut span, observation.search);
        span.finish();
        self.done = end;
        self.done == self.queries.len()
    }

    /// Closes the document: the batch's `200` response, byte-identical to
    /// rendering every row at once.
    pub(crate) fn finish(mut self) -> Response {
        if self.csv {
            return Response::csv(self.body);
        }
        self.body.push_str("]}");
        Response::json_text(self.body)
    }
}

fn f64_list(body: &Json, key: &str) -> Result<Option<Vec<f64>>, ApiError> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(value) => {
            let bad = || ApiError::field(key, format!("field '{key}' must be an array of numbers"));
            let items = value.as_array().ok_or_else(bad)?;
            items
                .iter()
                .map(|item| item.as_f64().ok_or_else(bad))
                .collect::<Result<Vec<f64>, ApiError>>()
                .map(Some)
        }
    }
}

/// Builds a [`ScenarioGrid`] from a `/v1/sweep` body. Absent fields fall back
/// to the grid builder's defaults (Hera, representative scenarios, Amdahl
/// `α = 0.1`, measured rates, jointly optimised `P`). The application axis is
/// either `alphas` (Amdahl shorthand) or the generic `profiles` array (spec
/// strings or profile objects), never both.
pub fn parse_grid(body: &Json) -> Result<ScenarioGrid, ApiError> {
    let mut builder = ScenarioGrid::builder();
    if let Some(platforms) = body.get("platforms") {
        let bad = || {
            ApiError::field(
                "platforms",
                "field 'platforms' must be an array of platform names",
            )
        };
        let names = platforms.as_array().ok_or_else(bad)?;
        let mut ids = Vec::with_capacity(names.len());
        for name in names {
            let name = name.as_str().ok_or_else(bad)?;
            ids.push(PlatformId::parse(name).ok_or_else(|| {
                ApiError::field("platforms", format!("unknown platform '{name}'"))
            })?);
        }
        builder = builder.platforms(&ids);
    }
    if let Some(numbers) = f64_list(body, "scenarios")? {
        let mut ids = Vec::with_capacity(numbers.len());
        for number in numbers {
            ids.push(
                ScenarioId::from_number(number as usize)
                    .filter(|_| number.fract() == 0.0)
                    .ok_or_else(|| {
                        ApiError::field(
                            "scenarios",
                            format!("scenario must be an integer in 1..=6, got {number}"),
                        )
                    })?,
            );
        }
        builder = builder.scenarios(&ids);
    }
    let alphas = f64_list(body, "alphas")?;
    let profiles = match body.get("profiles") {
        None | Some(Json::Null) => None,
        Some(value) => {
            let items = value.as_array().ok_or_else(|| {
                ApiError::field(
                    "profiles",
                    "field 'profiles' must be an array of profile specs or objects",
                )
            })?;
            let mut parsed = Vec::with_capacity(items.len());
            for item in items {
                // parse_profile attributes errors to the optimize schema's
                // 'profile' field; in a sweep body the field is 'profiles'.
                parsed.push(parse_profile(item).map_err(|mut e| {
                    if e.field.as_deref() == Some("profile") {
                        e.field = Some("profiles".to_string());
                    }
                    e
                })?);
            }
            Some(parsed)
        }
    };
    match (alphas, profiles) {
        (Some(_), Some(_)) => {
            return Err(ApiError::field(
                "profiles",
                "specify at most one of 'alphas' and 'profiles'",
            ))
        }
        (Some(alphas), None) => {
            // Validate the model parameters eagerly so an out-of-range alpha
            // is attributed to the 'alphas' field rather than surfacing as a
            // fieldless grid-builder error.
            let profiles = alphas
                .into_iter()
                .map(|alpha| {
                    SpeedupProfile::amdahl(alpha)
                        .map_err(|e| ApiError::field("alphas", e.to_string()))
                })
                .collect::<Result<Vec<_>, _>>()?;
            builder = builder.profiles(&profiles);
        }
        (None, Some(profiles)) => builder = builder.profiles(&profiles),
        (None, None) => {}
    }
    match body.get("failure_models") {
        None | Some(Json::Null) => {}
        Some(value) => {
            let items = value.as_array().ok_or_else(|| {
                ApiError::field(
                    "failure_models",
                    "field 'failure_models' must be an array of failure model specs or objects",
                )
            })?;
            let mut parsed = Vec::with_capacity(items.len());
            for item in items {
                // parse_failure_model attributes errors to the optimize
                // schema's 'failure_model' field; here the field is plural.
                let spec = parse_failure_model(item).map_err(|mut e| {
                    if e.field.as_deref() == Some("failure_model") {
                        e.field = Some("failure_models".to_string());
                    }
                    e
                })?;
                if spec.lambda().is_some() {
                    return Err(ApiError::field(
                        "failure_models",
                        "a sweep failure model must not pin an explicit rate; \
                         grid cells take their rate from the lambda axis",
                    ));
                }
                parsed.push(spec);
            }
            builder = builder.failure_models(&parsed);
        }
    }
    let multipliers = f64_list(body, "lambda_multipliers")?;
    let values = f64_list(body, "lambda_values")?;
    match (multipliers, values) {
        (Some(_), Some(_)) => {
            return Err(ApiError::field(
                "lambda_multipliers",
                "specify at most one of 'lambda_multipliers' and 'lambda_values'",
            ))
        }
        (Some(multipliers), None) => builder = builder.lambda_multipliers(&multipliers),
        (None, Some(values)) => builder = builder.lambda_values(&values),
        (None, None) => {}
    }
    let processors = f64_list(body, "processors")?;
    let orders = f64_list(body, "lambda_orders")?;
    match (processors, orders) {
        (Some(_), Some(_)) => {
            return Err(ApiError::field(
                "processors",
                "specify at most one of 'processors' and 'lambda_orders'",
            ))
        }
        (Some(processors), None) => builder = builder.processors(ProcessorAxis::Fixed(processors)),
        (None, Some(orders)) => builder = builder.processors(ProcessorAxis::LambdaOrders(orders)),
        (None, None) => {}
    }
    if let Some(lengths) = f64_list(body, "pattern_lengths")? {
        builder = builder.pattern_lengths(&lengths);
    }
    if let Some(downtime) = field_f64(body, "downtime")? {
        builder = builder.downtime(downtime);
    }
    builder.build().map_err(|e| ApiError::plain(e.to_string()))
}

/// Parses the optional shard count of a `/v1/sweep` body. A body that
/// still carries the retired `resume_token` is refused by name on every
/// role: its job would compute the same bytes, but the client must not
/// believe it resumed anything.
fn parse_shards(body: &Json) -> Result<Option<usize>, ApiError> {
    if body.get("resume_token").is_some() {
        return Err(ApiError::field(
            "resume_token",
            "sweep jobs take no resume_token; resubmit the grid without one",
        ));
    }
    let Some(count) = field_f64(body, "shards")? else {
        return Ok(None);
    };
    let max = ayd_sweep::MAX_SHARDS as f64;
    if count.fract() != 0.0 || count < 1.0 || count > max {
        return Err(ApiError::field(
            "shards",
            format!("shards must be an integer in 1..={max}, got {count}"),
        ));
    }
    Ok(Some(count as usize))
}

/// `POST /v1/workers/register` (coordinator only): registers a worker node
/// and returns its identity, lease and heartbeat cadence. The token is a
/// 16-hex-digit string (u64 values do not survive a JSON f64 round trip).
fn worker_register(state: &Arc<AppState>, req: &Request) -> Response {
    let Some(coordinator) = &state.coordinator else {
        return bad_request("this server is not running in coordinator mode");
    };
    let body = match parse_body(req) {
        Ok(body) => body,
        Err(response) => return response,
    };
    let Some(addr) = body.get("addr").and_then(Json::as_str) else {
        return ApiError::field("addr", "field 'addr' must be the worker's host:port string")
            .response();
    };
    let (id, token) = coordinator.register_worker(addr, Instant::now());
    let lease = coordinator.lease();
    Response::json(&Json::obj(vec![
        ("id", Json::num(id as f64)),
        ("token", Json::str(format!("{token:016x}"))),
        ("lease_ms", Json::num(lease.as_millis() as f64)),
        ("heartbeat_ms", Json::num((lease / 3).as_millis() as f64)),
    ]))
}

/// `POST /v1/workers/{id}/heartbeat` (coordinator only): renews a worker's
/// lease and reports the shard the worker stopped computing after a refused
/// or failed upload (`"dropped"`: a `{job, shard, epoch}` object, or `null`
/// when there is nothing to report). `404` tells the worker its
/// registration is gone — re-register.
fn worker_heartbeat(state: &Arc<AppState>, req: &Request, id: u64) -> Response {
    let Some(coordinator) = &state.coordinator else {
        return bad_request("this server is not running in coordinator mode");
    };
    let body = match parse_body(req) {
        Ok(body) => body,
        Err(response) => return response,
    };
    let token = body
        .get("token")
        .and_then(Json::as_str)
        .and_then(|t| u64::from_str_radix(t, 16).ok());
    let Some(token) = token else {
        return ApiError::field(
            "token",
            "field 'token' must be the registration's hex token",
        )
        .response();
    };
    let num = |key: &str| body.get("dropped")?.get(key)?.as_f64();
    let dropped = match (body.get("dropped"), num("job"), num("shard"), num("epoch")) {
        (Some(Json::Null), ..) => None,
        (Some(_), Some(job), Some(shard), Some(epoch)) => {
            Some((job as u64, shard as usize, epoch as u64))
        }
        _ => {
            return ApiError::field(
                "dropped",
                "field 'dropped' must be null or the {job, shard, epoch} of a dropped shard",
            )
            .response()
        }
    };
    match coordinator.heartbeat(id, token, dropped, Instant::now()) {
        Ok(()) => Response::json(&Json::obj(vec![
            ("id", Json::num(id as f64)),
            ("status", Json::str("alive")),
        ])),
        Err(reason) => Response::error(404, "Not Found", &reason),
    }
}

/// A shard's `(job, shard, epoch)` as its JSON object, or `null`: a
/// worker's assignment in `GET /v1/workers`, and a heartbeat's `dropped`.
pub(crate) fn shard_key_json(key: Option<(u64, usize, u64)>) -> Json {
    key.map_or(Json::Null, |(job, shard, epoch)| {
        Json::obj(vec![
            ("job", Json::num(job as f64)),
            ("shard", Json::num(shard as f64)),
            ("epoch", Json::num(epoch as f64)),
        ])
    })
}

/// `GET /v1/workers` (coordinator only): the operator view of every
/// registered worker — liveness, heartbeat age and current assignment.
fn workers_list(state: &Arc<AppState>) -> Response {
    let Some(coordinator) = &state.coordinator else {
        return bad_request("this server is not running in coordinator mode");
    };
    let now = Instant::now();
    let stats = coordinator.stats(now);
    let workers = coordinator
        .workers_view(now)
        .into_iter()
        .map(|view| {
            Json::obj(vec![
                ("id", Json::num(view.id as f64)),
                ("addr", Json::str(view.addr)),
                ("state", Json::str(view.state)),
                ("age_ms", Json::num(view.age_ms as f64)),
                ("assignment", shard_key_json(view.assignment)),
            ])
        })
        .collect();
    Response::json(&Json::obj(vec![
        ("workers", Json::Arr(workers)),
        ("alive", Json::num(stats.workers_alive as f64)),
        ("suspect", Json::num(stats.workers_suspect as f64)),
        ("dead", Json::num(stats.workers_dead as f64)),
    ]))
}

/// `POST /v1/sweep/{job}/shards/{index}/chunk?worker=ID&token=HEX&epoch=N`
/// (coordinator only): a worker uploading one run of shard rows. The body is
/// the [`ayd_sweep::ShardChunk`] wire text; a chunk that fails structural
/// validation (torn row, tampered counts) is a `400` and never touches the
/// checkpoint.
fn shard_chunk(state: &Arc<AppState>, req: &Request, job: u64, index: usize) -> Response {
    let Some(coordinator) = &state.coordinator else {
        return bad_request("this server is not running in coordinator mode");
    };
    let worker = query_param(&req.target, "worker").and_then(|v| v.parse::<u64>().ok());
    let token = query_param(&req.target, "token").and_then(|v| u64::from_str_radix(v, 16).ok());
    let epoch = query_param(&req.target, "epoch").and_then(|v| v.parse::<u64>().ok());
    let (Some(worker), Some(token), Some(epoch)) = (worker, token, epoch) else {
        return bad_request("chunk uploads require worker, token and epoch query parameters");
    };
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return bad_request("chunk body must be UTF-8 wire text");
    };
    let chunk = match ayd_sweep::ShardChunk::parse(text) {
        Ok(chunk) => chunk,
        Err(err) => return bad_request(&format!("malformed shard chunk: {err}")),
    };
    match coordinator.accept_chunk(job, index, worker, token, epoch, &chunk, Instant::now()) {
        Ok(outcome) => Response::json(&Json::obj(vec![
            ("accepted", Json::num(outcome.accepted_rows as f64)),
            ("shard_done", Json::Bool(outcome.shard_done)),
            ("job_done", Json::Bool(outcome.job_done)),
        ])),
        Err(error) => {
            let (status, reason) = error.status();
            Response::error(status, reason, error.reason())
        }
    }
}

/// `POST /v1/shards/run` (worker only): the coordinator dispatching a shard
/// to this node. `202` acknowledges that the shard started computing.
fn shard_run(state: &Arc<AppState>, req: &Request) -> Response {
    let Some(worker) = &state.worker else {
        return bad_request("this server is not running in worker mode");
    };
    let body = match parse_body(req) {
        Ok(body) => body,
        Err(response) => return response,
    };
    let num = |key: &str| body.get(key).and_then(Json::as_f64);
    let hex = |key: &str| {
        body.get(key)
            .and_then(Json::as_str)
            .and_then(|v| u64::from_str_radix(v, 16).ok())
    };
    let parsed = (
        num("job"),
        num("shard"),
        num("count"),
        num("epoch"),
        num("start_row"),
        num("worker"),
        hex("grid_fingerprint"),
        hex("options_fingerprint"),
    );
    let (
        Some(job),
        Some(shard),
        Some(count),
        Some(epoch),
        Some(start_row),
        Some(worker_id),
        Some(grid_fingerprint),
        Some(options_fingerprint),
    ) = parsed
    else {
        return bad_request(
            "dispatch requires job, shard, count, epoch, start_row, worker and both fingerprints",
        );
    };
    let Some(grid_body) = body.get("grid") else {
        return bad_request("dispatch is missing the grid document");
    };
    let grid = match parse_grid(grid_body) {
        Ok(grid) => grid,
        Err(error) => return error.prefixed("grid: ").response(),
    };
    let run = crate::worker::ShardRun {
        job: job as u64,
        shard: shard as usize,
        count: count as usize,
        epoch: epoch as u64,
        start_row: start_row as usize,
        worker: worker_id as u64,
        grid_fingerprint,
        options_fingerprint,
    };
    match worker.start_shard(state.options, &grid_body.render(), grid, run) {
        Ok(()) => Response::json_status(
            202,
            "Accepted",
            &Json::obj(vec![
                ("status", Json::str("started")),
                ("job", Json::num(job)),
                ("shard", Json::num(shard)),
            ]),
        ),
        Err(error) => {
            let (status, reason) = error.status();
            Response::error(status, reason, error.reason())
        }
    }
}

fn sweep_submit(state: &Arc<AppState>, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(body) => body,
        Err(response) => return response,
    };
    let grid = match parse_grid(&body) {
        Ok(grid) => grid,
        Err(error) => return error.response(),
    };
    let cells = grid.len();
    if cells > MAX_SWEEP_CELLS {
        return bad_request(&format!(
            "grid has {cells} cells; this server accepts at most {MAX_SWEEP_CELLS}"
        ));
    }
    let shards = match parse_shards(&body) {
        Ok(shards) => shards,
        Err(error) => return error.response(),
    };
    let submitted = match (&state.coordinator, shards) {
        // Coordinator mode: a sharded submission becomes a distributed job
        // whose shards are dispatched to registered workers, which check
        // their chunks against the grid's fingerprint.
        (Some(coordinator), Some(count)) => {
            let grid_fingerprint = grid.fingerprint();
            let options_fingerprint = state.options.output_fingerprint();
            let grid_json = body.render();
            state.jobs.try_submit(MAX_RUNNING_JOBS, |id| {
                coordinator.submit(
                    id,
                    grid_json,
                    grid_fingerprint,
                    options_fingerprint,
                    count,
                    cells,
                );
                JobHandle::Distributed(DistributedJobHandle {
                    coordinator: Arc::clone(coordinator),
                    id,
                })
            })
        }
        // Every other job runs in this process, coordinators included.
        _ => state.jobs.try_submit(MAX_RUNNING_JOBS, |_| {
            JobHandle::Local(LocalJob::spawn(state.options, grid, shards))
        }),
    };
    let Some(id) = submitted else {
        return Response::error(
            503,
            "Service Unavailable",
            "too many sweeps running; retry later",
        );
    };
    let mut doc = vec![
        ("id", Json::num(id as f64)),
        ("status", Json::str("running")),
        ("cells", Json::num(cells as f64)),
        (
            "shards",
            shards.map_or(Json::Null, |count| Json::num(count as f64)),
        ),
        ("href", Json::str(format!("/v1/sweep/{id}"))),
    ];
    if shards.is_some() {
        doc.push(("shards_href", Json::str(format!("/v1/sweep/{id}/shards"))));
    }
    Response::json_status(202, "Accepted", &Json::obj(doc))
}

/// `GET /v1/sweep/{id}/shards`: per-shard progress of a sharded job. On a
/// coordinator the distributed view is richer — which worker owns each
/// shard, its fencing epoch and how often it re-issued — so it is consulted
/// first; local jobs fall back to the registry view.
fn sweep_shards(state: &Arc<AppState>, id: u64) -> Response {
    if let Some(coordinator) = &state.coordinator {
        if let Some(view) = coordinator.shards_view(id) {
            let progress = view
                .shards
                .iter()
                .map(|shard| {
                    Json::obj(vec![
                        ("index", Json::num(shard.index as f64)),
                        ("total", Json::num(shard.total as f64)),
                        ("completed", Json::num(shard.completed as f64)),
                        ("status", Json::str(shard.status)),
                        (
                            "worker",
                            shard.worker.map_or(Json::Null, |w| Json::num(w as f64)),
                        ),
                        (
                            "worker_addr",
                            shard.worker_addr.as_deref().map_or(Json::Null, Json::str),
                        ),
                        ("epoch", Json::num(shard.epoch as f64)),
                        ("reissues", Json::num(shard.reissues as f64)),
                    ])
                })
                .collect();
            return Response::json(&Json::obj(vec![
                ("id", Json::num(id as f64)),
                ("shards", Json::num(view.shards.len() as f64)),
                ("merged_rows", Json::num(view.merged_rows as f64)),
                ("total", Json::num(view.total as f64)),
                ("cancelled", Json::Bool(view.cancelled)),
                ("progress", Json::Arr(progress)),
            ]));
        }
    }
    match state.jobs.shards_view(id) {
        None => Response::error(404, "Not Found", "no such sweep job"),
        Some(None) => bad_request("sweep job was not submitted with shards"),
        Some(Some(views)) => Response::json(&Json::obj(vec![
            ("id", Json::num(id as f64)),
            ("shards", Json::num(views.len() as f64)),
            (
                "progress",
                Json::Arr(
                    views
                        .iter()
                        .map(|view| {
                            Json::obj(vec![
                                ("index", Json::num(view.index as f64)),
                                ("total", Json::num(view.total as f64)),
                                ("completed", Json::num(view.completed as f64)),
                                ("status", Json::str(view.status)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])),
    }
}

fn sweep_poll(state: &Arc<AppState>, req: &Request, id: u64) -> Response {
    match state.jobs.poll(id) {
        None => Response::error(404, "Not Found", "no such sweep job"),
        Some(JobView::Running(completed, total)) => Response::json(&Json::obj(vec![
            ("id", Json::num(id as f64)),
            ("status", Json::str("running")),
            ("completed", Json::num(completed as f64)),
            ("total", Json::num(total as f64)),
        ])),
        Some(JobView::Finished(done)) => {
            // Finished jobs stream the canonical CSV by default; clients that
            // ask for JSON get the status document instead.
            if req.accepts("application/json") {
                Response::json(&Json::obj(vec![
                    ("id", Json::num(id as f64)),
                    (
                        "status",
                        Json::str(if done.cancelled { "cancelled" } else { "done" }),
                    ),
                    ("rows", Json::num(done.rows as f64)),
                    ("cache_hits", Json::num(done.cache.hits as f64)),
                    ("cache_misses", Json::num(done.cache.misses as f64)),
                    ("cache_hit_rate", Json::num(done.cache.hit_rate())),
                ]))
            } else {
                // The job's bytes, shared: the connection sends them from
                // the `Arc`, so a GET copies nothing in proportion to them.
                Response::csv(Arc::clone(&done.csv))
            }
        }
    }
}

fn sweep_cancel(state: &Arc<AppState>, id: u64) -> Response {
    match state.jobs.cancel(id) {
        None => Response::error(404, "Not Found", "no such sweep job"),
        Some(cancelled) => Response::json(&Json::obj(vec![
            ("id", Json::num(id as f64)),
            (
                "status",
                Json::str(if cancelled { "cancelling" } else { "finished" }),
            ),
        ])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::ServerConfig;
    use ayd_sweep::{Evaluator, RunOptions, SweepExecutor, SweepOptions, CSV_HEADER};

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

    fn get(target: &str) -> Request {
        Request {
            method: "GET".to_string(),
            target: target.to_string(),
            http1_0: false,
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    #[test]
    fn optimize_is_bit_identical_to_the_offline_evaluator() {
        let state = state();
        let req = post("/v1/optimize", r#"{"platform":"Hera","scenario":1}"#);
        let (endpoint, response) = route(&state, &req);
        assert_eq!((endpoint, response.status), ("optimize", 200));
        let doc = Json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();

        let evaluator = Evaluator::new(RunOptions {
            simulate: false,
            ..RunOptions::default()
        });
        let model = ExperimentSetup::paper_default(PlatformId::Hera, ScenarioId::S1)
            .model()
            .unwrap();
        let expected = evaluator.compare(&model);
        let numerical = doc.get("numerical").unwrap();
        assert_eq!(
            numerical.get("processors").unwrap().as_f64().unwrap(),
            expected.numerical.processors
        );
        assert_eq!(
            numerical.get("period").unwrap().as_f64().unwrap(),
            expected.numerical.period
        );
        assert_eq!(
            numerical.get("overhead").unwrap().as_f64().unwrap(),
            expected.numerical.predicted_overhead
        );
        let fo = doc.get("first_order").unwrap();
        let expected_fo = expected.first_order.unwrap();
        assert_eq!(
            fo.get("processors").unwrap().as_f64().unwrap(),
            expected_fo.processors
        );
        assert_eq!(
            fo.get("period").unwrap().as_f64().unwrap(),
            expected_fo.period
        );
        // The second identical query hits the shared cache.
        let (_, again) = route(&state, &req);
        assert_eq!(again.body, response.body);
        assert_eq!(state.cache.stats().hits, 1);
    }

    #[test]
    fn evaluate_spans_carry_each_field_once() {
        // At λ_ind = 0.01/s the exact overhead overflows at nearly every
        // point, so this cold joint query falls back for more than one
        // reason: no outer grid point gives a finite processor seed, and the
        // inner period searches meet non-finite values. The span must still
        // name every key once, with the reasons joined into one field.
        let sink = Arc::new(ayd_obs::MemorySink::new());
        ayd_obs::set_sink(Some(sink.clone()));
        let trace = ayd_obs::fresh_trace_id();
        let root = ayd_obs::root_span("request", trace);
        let req = post(
            "/v1/optimize",
            r#"{"platform":"Hera","scenario":5,"profile":"powerlaw:0.8","lambda_ind":0.01}"#,
        );
        let (_, response) = route(&state(), &req);
        root.finish();
        ayd_obs::set_sink(None);
        assert_eq!(response.status, 200);
        let spans = sink.take();
        let evaluate = spans
            .iter()
            .find(|span| span.trace == trace && span.name == "evaluate")
            .expect("the query records an evaluate span");
        let line = evaluate.to_json_line();
        let mut keys: Vec<&str> = evaluate.fields.iter().map(|(key, _)| *key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), evaluate.fields.len(), "repeated key in {line}");
        assert_eq!(
            evaluate.field("fallback_reasons"),
            Some(&ayd_obs::FieldValue::Str(
                "missing-seed,non-finite-value".into()
            )),
            "{line}"
        );
    }

    /// Random configurations, each as the one-cell grids of the sweep
    /// engine (one cell per pattern length) and as the `/v1/optimize`
    /// bodies naming the same cells. A configuration with a fixed `P` and
    /// pattern lengths yields a run of 1–3 cells that differ only in the
    /// length: one block.
    fn drawn_queries(draws: &[u64]) -> (Vec<SweepCell>, Vec<String>) {
        let (mut cells, mut bodies) = (Vec::new(), Vec::new());
        for d in draws.chunks_exact(8) {
            let platform = PlatformId::ALL[d[0] as usize % 4];
            let scenario = ScenarioId::from_number(1 + d[1] as usize % 6).unwrap();
            let param = (1 + d[3] % 300) as f64 / 1_000.0;
            let profile = match d[2] % 4 {
                0 => SpeedupProfile::amdahl(param),
                1 => SpeedupProfile::power_law(0.5 + param),
                2 => SpeedupProfile::gustafson(param),
                _ => Ok(SpeedupProfile::perfectly_parallel()),
            }
            .unwrap();
            let (failure, failure_spec) = match d[4] % 3 {
                0 => (FailureModelSpec::exponential(), "exp"),
                1 => (FailureModelSpec::weibull(0.7).unwrap(), "weibull:0.7"),
                _ => (FailureModelSpec::shifted(600.0).unwrap(), "shifted:600"),
            };
            let multiplier = (1 + d[5] % 40) as f64 / 4.0;
            let processors = [128.0, 512.0, 2_048.0, 8_192.0][d[7] as usize % 4];
            let lengths = [1_800.0, 3_600.0, 7_200.0];
            let (axis, lengths) = match d[6] % 3 {
                0 => (ProcessorAxis::Optimize, &[][..]),
                1 => (ProcessorAxis::Fixed(vec![processors]), &[][..]),
                _ => (
                    ProcessorAxis::Fixed(vec![processors]),
                    &lengths[..1 + (d[7] as usize / 4) % 3],
                ),
            };
            let grid = ScenarioGrid::builder()
                .platforms(&[platform])
                .scenarios(&[scenario])
                .profiles(&[profile])
                .failure_models(&[failure])
                .lambda_multipliers(&[multiplier])
                .processors(axis.clone())
                .pattern_lengths(lengths)
                .build()
                .unwrap();
            for cell in grid.cells() {
                let mut body = format!(
                    r#"{{"platform":"{}","scenario":{},"profile":"{}","failure_model":"{failure_spec}","lambda_multiplier":{multiplier}"#,
                    platform.name(),
                    scenario.number(),
                    ProfileSpec::from(profile),
                );
                if let Some(p) = cell.fixed_processors {
                    body.push_str(&format!(r#","processors":{p}"#));
                }
                if let Some(t) = cell.pattern_length {
                    body.push_str(&format!(r#","pattern_length":{t}"#));
                }
                body.push('}');
                cells.push(cell);
                bodies.push(body);
            }
        }
        (cells, bodies)
    }

    fn csv_post(target: &str, body: &str) -> Request {
        let mut req = post(target, body);
        req.headers
            .push(("accept".to_string(), "text/csv".to_string()));
        req
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// A served answer is the sweep's row: `/v1/optimize`'s CSV lines
        /// and a `/v1/batch`'s CSV (with blocks, across slices) equal the
        /// sweep engine's `run_cells` CSV of the same cells, and the batch
        /// scores the cache hits and misses of the same queries sent one at
        /// a time.
        #[test]
        fn optimize_csv_matches_the_sweep_engine_bytes(
            draws in proptest::collection::vec(0u64..1_000_000, 8..65),
        ) {
            let (cells, bodies) = drawn_queries(&draws);
            let offline = SweepExecutor::new(SweepOptions::new(RunOptions {
                simulate: false,
                ..RunOptions::default()
            }))
            .run_cells(&cells)
            .to_csv();

            let single = state();
            let mut lines = format!("{CSV_HEADER}\n");
            for body in &bodies {
                let (_, response) = route(&single, &csv_post("/v1/optimize", body));
                proptest::prop_assert_eq!(response.status, 200);
                let csv = String::from_utf8(response.body.to_vec()).unwrap();
                let line = csv.strip_prefix(&format!("{CSV_HEADER}\n")).unwrap();
                proptest::prop_assert_eq!(line.lines().count(), 1);
                lines.push_str(line);
            }
            proptest::prop_assert_eq!(&lines, &offline);

            let batched = state();
            let batch = format!(r#"{{"queries":[{}]}}"#, bodies.join(","));
            let (_, response) = route(&batched, &csv_post("/v1/batch", &batch));
            proptest::prop_assert_eq!(response.status, 200);
            proptest::prop_assert_eq!(String::from_utf8(response.body.to_vec()).unwrap(), offline);
            let (one, all) = (single.cache.stats(), batched.cache.stats());
            proptest::prop_assert_eq!((one.hits, one.misses), (all.hits, all.misses));
        }
    }

    #[test]
    fn batch_preserves_query_order_and_validates_eagerly() {
        let state = state();
        let body = r#"{"queries":[
            {"platform":"Hera","scenario":1,"processors":256},
            {"platform":"Atlas","scenario":3},
            {"platform":"Hera","scenario":1,"processors":256}
        ]}"#;
        let (endpoint, response) = route(&state, &post("/v1/batch", body));
        assert_eq!((endpoint, response.status), ("batch", 200));
        let doc = Json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap();
        assert_eq!(doc.get("count").unwrap().as_f64().unwrap(), 3.0);
        let results = doc.get("results").unwrap().as_array().unwrap();
        assert_eq!(
            results[0].get("platform").unwrap().as_str().unwrap(),
            "Hera"
        );
        assert_eq!(
            results[1].get("platform").unwrap().as_str().unwrap(),
            "Atlas"
        );
        // Identical queries produce identical documents (and share the cache).
        assert_eq!(results[0].render(), results[2].render());

        let (_, bad) = route(
            &state,
            &post("/v1/batch", r#"{"queries":[{"platform":"Nope"}]}"#),
        );
        assert_eq!(bad.status, 400);
        let message = String::from_utf8(bad.body.to_vec()).unwrap();
        assert!(message.contains("query 0"), "{message}");
    }

    #[test]
    fn sweep_jobs_run_to_csv_and_report_status() {
        let state = state();
        let body = r#"{"platforms":["Hera"],"scenarios":[1,3],"lambda_multipliers":[1,10],
                       "processors":[256,1024],"pattern_lengths":[3600]}"#;
        let (_, accepted) = route(&state, &post("/v1/sweep", body));
        assert_eq!(accepted.status, 202);
        let doc = Json::parse(std::str::from_utf8(&accepted.body).unwrap()).unwrap();
        assert_eq!(doc.get("cells").unwrap().as_f64().unwrap(), 8.0);
        let id = doc.get("id").unwrap().as_f64().unwrap() as u64;

        // Poll until the CSV arrives.
        let csv = loop {
            let (_, poll) = route(&state, &get(&format!("/v1/sweep/{id}")));
            assert_eq!(poll.status, 200);
            if poll.content_type.starts_with("text/csv") {
                break String::from_utf8(poll.body.to_vec()).unwrap();
            }
            std::thread::yield_now();
        };
        assert!(csv.starts_with(CSV_HEADER));
        assert_eq!(csv.lines().count(), 9);

        // A JSON status request reports completion instead of the bytes.
        let mut req = get(&format!("/v1/sweep/{id}"));
        req.headers
            .push(("accept".to_string(), "application/json".to_string()));
        let (_, status) = route(&state, &req);
        let doc = Json::parse(std::str::from_utf8(&status.body).unwrap()).unwrap();
        assert_eq!(doc.get("status").unwrap().as_str().unwrap(), "done");
        assert_eq!(doc.get("rows").unwrap().as_f64().unwrap(), 8.0);

        // Unknown ids and bad grids are definite errors.
        let (_, missing) = route(&state, &get("/v1/sweep/999"));
        assert_eq!(missing.status, 404);
        let (_, bad) = route(&state, &post("/v1/sweep", r#"{"scenarios":[9]}"#));
        assert_eq!(bad.status, 400);
    }

    #[test]
    fn sharded_sweep_jobs_report_shards_and_refuse_resume_tokens() {
        let state = state();
        // A 3-shard job, and a 2-cell grid split into more shards than cells.
        for (body, count) in [
            (
                r#"{"platforms":["Hera"],"scenarios":[1,3],"lambda_multipliers":[1,10],
                    "processors":[256,1024],"shards":3}"#,
                3,
            ),
            (r#"{"scenarios":[1],"processors":[256,1024],"shards":4}"#, 4),
        ] {
            let (_, accepted) = route(&state, &post("/v1/sweep", body));
            assert_eq!(accepted.status, 202);
            let doc = Json::parse(std::str::from_utf8(&accepted.body).unwrap()).unwrap();
            let id = doc.get("id").unwrap().as_f64().unwrap() as u64;
            assert_eq!(doc.get("shards").unwrap().as_f64(), Some(count as f64));
            assert!(doc.get("resume_token").is_none(), "{doc:?}");

            // Wait for the CSV; it must equal the unsharded engine's bytes.
            let csv = loop {
                let (_, poll) = route(&state, &get(&format!("/v1/sweep/{id}")));
                if poll.content_type.starts_with("text/csv") {
                    break String::from_utf8(poll.body.to_vec()).unwrap();
                }
                std::thread::yield_now();
            };
            let grid = parse_grid(&Json::parse(body).unwrap()).unwrap();
            assert_eq!(csv, SweepExecutor::new(state.options).run(&grid).to_csv());

            // The shards view accounts for every cell, every shard done.
            let (endpoint, shards) = route(&state, &get(&format!("/v1/sweep/{id}/shards")));
            assert_eq!((endpoint, shards.status), ("sweep_shards", 200));
            let doc = Json::parse(std::str::from_utf8(&shards.body).unwrap()).unwrap();
            let progress = doc.get("progress").unwrap().as_array().unwrap();
            assert_eq!(progress.len(), count);
            let total: f64 = progress
                .iter()
                .map(|p| p.get("total").unwrap().as_f64().unwrap())
                .sum();
            assert_eq!(total as usize, grid.len());
            assert!(progress
                .iter()
                .all(|p| p.get("status").unwrap().as_str() == Some("done")));
        }

        // Resume tokens are gone: a body carrying one, or any other bad
        // sharding field, is a structured 400 naming it.
        for (body, field) in [
            (
                r#"{"scenarios":[1],"shards":2,"resume_token":"1-00"}"#,
                "resume_token",
            ),
            (r#"{"scenarios":[1],"resume_token":null}"#, "resume_token"),
            (r#"{"shards":0}"#, "shards"),
            (r#"{"shards":2.5}"#, "shards"),
        ] {
            let (_, refused) = route(&state, &post("/v1/sweep", body));
            assert_eq!(refused.status, 400, "{body}");
            let doc = Json::parse(std::str::from_utf8(&refused.body).unwrap()).unwrap();
            assert_eq!(doc.get("field").and_then(Json::as_str), Some(field));
        }

        // The shards view of a plain job says "not sharded"; unknown ids 404.
        let (_, plain) = route(&state, &post("/v1/sweep", r#"{"scenarios":[1]}"#));
        let doc = Json::parse(std::str::from_utf8(&plain.body).unwrap()).unwrap();
        assert!(matches!(doc.get("shards"), Some(Json::Null)));
        assert!(doc.get("shards_href").is_none());
        let plain_id = doc.get("id").unwrap().as_f64().unwrap() as u64;
        let (_, view) = route(&state, &get(&format!("/v1/sweep/{plain_id}/shards")));
        assert_eq!(view.status, 400);
        let (_, missing) = route(&state, &get("/v1/sweep/424242/shards"));
        assert_eq!(missing.status, 404);
    }

    #[test]
    fn optimize_failure_models_round_trip_and_fold_pinned_rates() {
        let state = state();
        // Spec string and object form produce byte-identical documents.
        let (_, by_spec) = route(
            &state,
            &post(
                "/v1/optimize",
                r#"{"platform":"Hera","scenario":1,"failure_model":"weibull:0.7"}"#,
            ),
        );
        assert_eq!(by_spec.status, 200);
        let (_, by_object) = route(
            &state,
            &post(
                "/v1/optimize",
                r#"{"platform":"Hera","scenario":1,"failure_model":{"kind":"weibull","shape":0.7}}"#,
            ),
        );
        assert_eq!(by_object.body, by_spec.body);
        let doc = Json::parse(std::str::from_utf8(&by_spec.body).unwrap()).unwrap();
        let model = doc.get("failure_model").unwrap();
        assert_eq!(model.get("kind").unwrap().as_str().unwrap(), "weibull");
        assert_eq!(model.get("spec").unwrap().as_str().unwrap(), "weibull:0.7");
        assert_eq!(model.get("shape").unwrap().as_f64().unwrap(), 0.7);

        // weibull with shape 1 *is* the exponential law: same analytics.
        let (_, exp) = route(
            &state,
            &post("/v1/optimize", r#"{"platform":"Hera","scenario":1}"#),
        );
        let (_, weib1) = route(
            &state,
            &post(
                "/v1/optimize",
                r#"{"platform":"Hera","scenario":1,"failure_model":"weibull:1"}"#,
            ),
        );
        let exp_doc = Json::parse(std::str::from_utf8(&exp.body).unwrap()).unwrap();
        let weib_doc = Json::parse(std::str::from_utf8(&weib1.body).unwrap()).unwrap();
        assert_eq!(
            exp_doc.get("numerical").unwrap().render(),
            weib_doc.get("numerical").unwrap().render()
        );

        // A rate pinned in the spec behaves exactly like 'lambda_ind': the
        // stored model is rate-free, so the documents are byte-identical.
        let (_, pinned) = route(
            &state,
            &post(
                "/v1/optimize",
                r#"{"platform":"Hera","scenario":1,"failure_model":"exp:2e-8"}"#,
            ),
        );
        let (_, explicit) = route(
            &state,
            &post(
                "/v1/optimize",
                r#"{"platform":"Hera","scenario":1,"lambda_ind":2e-8}"#,
            ),
        );
        assert_eq!(pinned.status, 200);
        assert_eq!(pinned.body, explicit.body);
    }

    #[test]
    fn malformed_failure_models_are_structured_400s() {
        let state = state();
        let cases = [
            (
                r#"{"failure_model":"gamma:2"}"#,
                "unknown failure-model kind",
            ),
            (r#"{"failure_model":"weibull:0"}"#, "shape"),
            (
                r#"{"failure_model":{"kind":"weibull","shift":0.7}}"#,
                "takes 'shape', not 'shift'",
            ),
            (r#"{"failure_model":{"kind":"trace"}}"#, "needs a 'path'"),
            (
                r#"{"failure_model":{"kind":"exp","path":"x"}}"#,
                "takes no 'path'",
            ),
            (
                r#"{"failure_model":"weibull:0.7,1e-8","lambda_multiplier":10}"#,
                "specify the rate once",
            ),
            (r#"{"failure_model":42}"#, "spec string or an object"),
        ];
        for (body, needle) in cases {
            let (_, response) = route(&state, &post("/v1/optimize", body));
            assert_eq!(response.status, 400, "{body}");
            let message = String::from_utf8(response.body.to_vec()).unwrap();
            assert!(message.contains(needle), "{body} -> {message}");
        }
    }

    #[test]
    fn sweep_failure_model_axes_match_the_engine_and_reject_pinned_rates() {
        let state = state();
        let body = r#"{"platforms":["Hera"],"scenarios":[1],
                       "failure_models":["exp","weibull:0.7"],
                       "lambda_multipliers":[1,10],"processors":[256]}"#;
        let (_, accepted) = route(&state, &post("/v1/sweep", body));
        assert_eq!(
            accepted.status,
            202,
            "{:?}",
            String::from_utf8(accepted.body.to_vec())
        );
        let doc = Json::parse(std::str::from_utf8(&accepted.body).unwrap()).unwrap();
        assert_eq!(doc.get("cells").unwrap().as_f64().unwrap(), 4.0);
        let id = doc.get("id").unwrap().as_f64().unwrap() as u64;
        let csv = loop {
            let (_, poll) = route(&state, &get(&format!("/v1/sweep/{id}")));
            if poll.content_type.starts_with("text/csv") {
                break String::from_utf8(poll.body.to_vec()).unwrap();
            }
            std::thread::yield_now();
        };
        let grid = ScenarioGrid::builder()
            .platforms(&[PlatformId::Hera])
            .scenarios(&[ScenarioId::S1])
            .failure_models(&[
                FailureModelSpec::exponential(),
                FailureModelSpec::weibull(0.7).unwrap(),
            ])
            .lambda_multipliers(&[1.0, 10.0])
            .processors(ProcessorAxis::Fixed(vec![256.0]))
            .build()
            .unwrap();
        assert_eq!(csv, SweepExecutor::new(state.options).run(&grid).to_csv());
        assert!(csv.contains(",weibull,0.7,"), "{csv}");

        // Pinned rates and malformed entries are rejected at submission.
        let (_, pinned) = route(
            &state,
            &post("/v1/sweep", r#"{"failure_models":["weibull:0.7,1e-8"]}"#),
        );
        assert_eq!(pinned.status, 400);
        let message = String::from_utf8(pinned.body.to_vec()).unwrap();
        assert!(message.contains("lambda axis"), "{message}");
        let (_, bad) = route(
            &state,
            &post("/v1/sweep", r#"{"failure_models":["nope:1"]}"#),
        );
        assert_eq!(bad.status, 400);
        let message = String::from_utf8(bad.body.to_vec()).unwrap();
        assert!(message.contains("failure_models"), "{message}");
    }

    #[test]
    fn routing_errors_are_exact() {
        let state = state();
        let (_, response) = route(&state, &get("/nope"));
        assert_eq!(response.status, 404);
        let (_, response) = route(&state, &get("/v1/optimize"));
        assert_eq!(response.status, 405);
        assert!(response
            .extra_headers
            .iter()
            .any(|(name, value)| *name == "allow" && value == "POST"));
        let (_, response) = route(&state, &post("/v1/optimize", "{not json"));
        assert_eq!(response.status, 400);
        let (_, response) = route(&state, &post("/v1/optimize", r#"{"scenario":7}"#));
        assert_eq!(response.status, 400);
        // Overflowing JSON numbers parse to infinity and must be rejected,
        // not evaluated at P = ∞.
        let (_, response) = route(&state, &post("/v1/optimize", r#"{"processors":1e999}"#));
        assert_eq!(response.status, 400);
        let (_, response) = route(&state, &get("/healthz"));
        assert_eq!(response.status, 200);
        let (_, response) = route(&state, &get("/metrics"));
        assert_eq!(response.status, 200);
        crate::metrics::validate_prometheus(std::str::from_utf8(&response.body).unwrap()).unwrap();
    }

    fn coordinator_state() -> Arc<AppState> {
        AppState::new(&ServerConfig {
            threads: 2,
            cluster: crate::app::ClusterConfig {
                coordinator: true,
                ..crate::app::ClusterConfig::default()
            },
            ..ServerConfig::default()
        })
    }

    fn body_json(response: &Response) -> Json {
        Json::parse(std::str::from_utf8(&response.body).unwrap()).unwrap()
    }

    #[test]
    fn cluster_endpoints_require_the_matching_role() {
        // A plain server is neither coordinator nor worker: every cluster
        // endpoint answers a structured 400, not a 404 (the route exists,
        // the role doesn't).
        let state = state();
        for (endpoint, req) in [
            (
                "worker_register",
                post("/v1/workers/register", r#"{"addr":"127.0.0.1:9"}"#),
            ),
            ("worker_heartbeat", post("/v1/workers/3/heartbeat", "{}")),
            ("workers", get("/v1/workers")),
            ("shard_run", post("/v1/shards/run", "{}")),
            (
                "shard_chunk",
                post("/v1/sweep/1/shards/0/chunk?worker=1&token=0&epoch=0", ""),
            ),
        ] {
            let (label, response) = route(&state, &req);
            assert_eq!((label, response.status), (endpoint, 400), "{endpoint}");
        }
    }

    #[test]
    fn workers_register_heartbeat_and_appear_in_the_view() {
        let state = coordinator_state();
        let (_, response) = route(&state, &post("/v1/workers/register", r#"{"addr":"h:1"}"#));
        assert_eq!(response.status, 200);
        let doc = body_json(&response);
        let id = doc.get("id").unwrap().as_f64().unwrap() as u64;
        let token = doc.get("token").unwrap().as_str().unwrap().to_string();
        assert_eq!(token.len(), 16, "token is a 16-hex-digit string");
        assert!(doc.get("lease_ms").unwrap().as_f64().unwrap() > 0.0);
        assert!(doc.get("heartbeat_ms").unwrap().as_f64().unwrap() > 0.0);

        // Registration without an address is a field error.
        let (_, response) = route(&state, &post("/v1/workers/register", "{}"));
        assert_eq!(response.status, 400);

        let heartbeat =
            |body: String| route(&state, &post(&format!("/v1/workers/{id}/heartbeat"), &body)).1;
        let response = heartbeat(format!(r#"{{"token":"{token}","dropped":null}}"#));
        assert_eq!(response.status, 200);
        let response = heartbeat(format!(
            r#"{{"token":"{token}","dropped":{{"job":1,"shard":0,"epoch":0}}}}"#
        ));
        assert_eq!(response.status, 200);
        // The dropped shard is a required field with a fixed shape, and the
        // retired `active` report is not it.
        for bad in [
            format!(r#"{{"token":"{token}"}}"#),
            format!(r#"{{"token":"{token}","dropped":{{"job":1}}}}"#),
            format!(r#"{{"token":"{token}","active":null}}"#),
        ] {
            let response = heartbeat(bad);
            assert_eq!(response.status, 400);
            let doc = body_json(&response);
            assert_eq!(doc.get("field").and_then(Json::as_str), Some("dropped"));
        }
        // A wrong token means the registration is gone: re-register.
        let response = heartbeat(r#"{"token":"00000000deadbeef","dropped":null}"#.to_string());
        assert_eq!(response.status, 404);

        let (_, response) = route(&state, &get("/v1/workers"));
        assert_eq!(response.status, 200);
        let doc = body_json(&response);
        assert_eq!(doc.get("alive").unwrap().as_f64().unwrap(), 1.0);
        let workers = doc.get("workers").unwrap().as_array().unwrap();
        assert_eq!(workers.len(), 1);
        assert_eq!(workers[0].get("addr").unwrap().as_str().unwrap(), "h:1");
        assert_eq!(workers[0].get("state").unwrap().as_str().unwrap(), "alive");
    }

    #[test]
    fn distributed_submissions_register_with_the_coordinator() {
        let state = coordinator_state();
        let body = r#"{"platforms":["Hera"],"scenarios":[1,3],"processors":[256,1024],"shards":2}"#;
        let (_, response) = route(&state, &post("/v1/sweep", body));
        assert_eq!(response.status, 202);
        let doc = body_json(&response);
        let id = doc.get("id").unwrap().as_f64().unwrap() as u64;
        assert_eq!(doc.get("shards").unwrap().as_f64().unwrap(), 2.0);
        assert!(doc.get("resume_token").is_none());

        // The coordinator's shards view is the enriched one: per-worker
        // assignment, fencing epoch, re-issue count, merged-row watermark.
        let (_, response) = route(&state, &get(&format!("/v1/sweep/{id}/shards")));
        assert_eq!(response.status, 200);
        let doc = body_json(&response);
        assert_eq!(doc.get("merged_rows").unwrap().as_f64().unwrap(), 0.0);
        assert_eq!(doc.get("total").unwrap().as_f64().unwrap(), 4.0);
        let progress = doc.get("progress").unwrap().as_array().unwrap();
        assert_eq!(progress.len(), 2);
        for shard in progress {
            assert_eq!(shard.get("status").unwrap().as_str().unwrap(), "pending");
            assert!(matches!(shard.get("worker"), Some(Json::Null)));
            assert_eq!(shard.get("epoch").unwrap().as_f64().unwrap(), 0.0);
            assert_eq!(shard.get("reissues").unwrap().as_f64().unwrap(), 0.0);
        }

        // The cluster metric families appear on a coordinator.
        let (_, response) = route(&state, &get("/metrics"));
        let text = std::str::from_utf8(&response.body).unwrap();
        assert!(text.contains("ayd_workers{state=\"alive\"}"));
        assert!(text.contains("ayd_shards_dispatched_total"));

        // Cancellation flows through the coordinator.
        let mut cancel = post(&format!("/v1/sweep/{id}"), "");
        cancel.method = "DELETE".to_string();
        let (_, response) = route(&state, &cancel);
        assert_eq!(response.status, 200);
    }

    #[test]
    fn distributed_submissions_reject_resume_tokens() {
        // The same structured 400 on every role: coordinator, standalone
        // and worker.
        let worker = AppState::new(&ServerConfig {
            threads: 2,
            cluster: crate::app::ClusterConfig {
                worker_of: Some("127.0.0.1:9".to_string()),
                ..crate::app::ClusterConfig::default()
            },
            ..ServerConfig::default()
        });
        let body = r#"{"platforms":["Hera"],"scenarios":[1],"processors":[256],"shards":1,"resume_token":"1-0000000000000002"}"#;
        for state in [coordinator_state(), state(), worker] {
            let (_, response) = route(&state, &post("/v1/sweep", body));
            assert_eq!(response.status, 400);
            let doc = body_json(&response);
            assert_eq!(
                doc.get("field").and_then(Json::as_str),
                Some("resume_token")
            );
            assert_eq!(state.jobs.running_count(), 0, "no job was started");
        }
    }

    #[test]
    fn torn_chunk_uploads_are_rejected_before_touching_the_checkpoint() {
        use ayd_sweep::{ShardChunk, ShardSpec, SweepManifest, CSV_HEADER};

        let state = coordinator_state();
        let body = r#"{"platforms":["Hera"],"scenarios":[1,3],"processors":[256,1024],"shards":2}"#;
        let (_, response) = route(&state, &post("/v1/sweep", body));
        let id = body_json(&response).get("id").unwrap().as_f64().unwrap() as u64;

        // Missing fencing parameters never reach the coordinator.
        let (_, response) = route(
            &state,
            &post(&format!("/v1/sweep/{id}/shards/0/chunk"), "anything"),
        );
        assert_eq!(response.status, 400);

        // A torn body (not valid chunk wire text) is a 400.
        let target =
            format!("/v1/sweep/{id}/shards/0/chunk?worker=1&token=0000000000000001&epoch=0");
        let (_, response) = route(&state, &post(&target, "ayd-shard-chunk v1\ntorn"));
        assert_eq!(response.status, 400);

        // A structurally valid chunk from a worker the coordinator never
        // registered is fenced as stale (409), and the checkpoint stays dry.
        let grid = ScenarioGrid::builder()
            .platforms(&[PlatformId::Hera])
            .scenarios(&[ScenarioId::S1, ScenarioId::S3])
            .processors(ProcessorAxis::Fixed(vec![256.0, 1024.0]))
            .build()
            .unwrap();
        let mut manifest = SweepManifest::new(&grid, &state.options, ShardSpec::new(0, 2).unwrap());
        manifest.completed = 1;
        let row = vec!["x"; CSV_HEADER.matches(',').count() + 1].join(",");
        let chunk = ShardChunk::new(manifest, 0, format!("{row}\n")).unwrap();
        let (_, response) = route(&state, &post(&target, &chunk.render()));
        assert_eq!(response.status, 409);
        let (_, response) = route(&state, &get(&format!("/v1/sweep/{id}/shards")));
        let doc = body_json(&response);
        assert_eq!(doc.get("merged_rows").unwrap().as_f64().unwrap(), 0.0);
        let progress = doc.get("progress").unwrap().as_array().unwrap();
        assert_eq!(progress[0].get("completed").unwrap().as_f64().unwrap(), 0.0);
    }
}
