//! A minimal keep-alive HTTP/1.1 client, plus the end-to-end smoke check
//! shared by `loadgen --check`, the CI gate and the subprocess integration
//! tests.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use ayd_core::SpeedupProfile;
use ayd_platforms::{ExperimentSetup, PlatformId, ScenarioId};
use ayd_sweep::{
    Evaluator, ProcessorAxis, RunOptions, ScenarioGrid, SweepExecutor, SweepOptions, CSV_HEADER,
};

use crate::json::Json;

/// One parsed response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code of the response.
    pub status: u16,
    /// `Content-Type` header value (empty when absent).
    pub content_type: String,
    /// `x-ayd-trace-id` header value (empty when absent): the server-side
    /// request ID this response's spans are recorded under.
    pub trace_id: String,
    /// Body, decoded as UTF-8 (the service only emits text media types).
    pub body: String,
    /// True when the response carried `connection: close`: the server
    /// reads no further request on this connection.
    pub closes: bool,
}

/// A keep-alive connection to one server.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl HttpClient {
    /// Connects to `addr` (`host:port`) with generous timeouts.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request and reads the response. `accept` sets an `Accept`
    /// header; `body` implies `Content-Length`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        accept: Option<&str>,
        body: Option<&str>,
    ) -> std::io::Result<ClientResponse> {
        self.send(method, path, accept, body)?;
        self.receive()
    }

    /// Writes one request without waiting for its response, which a later
    /// [`Self::receive`] reads: the caller can work while the server
    /// answers. Responses come back in request order.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        accept: Option<&str>,
        body: Option<&str>,
    ) -> std::io::Result<()> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nhost: ayd-serve\r\n");
        if let Some(accept) = accept {
            head.push_str(&format!("accept: {accept}\r\n"));
        }
        if let Some(body) = body {
            head.push_str(&format!("content-length: {}\r\n", body.len()));
        }
        head.push_str("\r\n");
        self.writer.write_all(head.as_bytes())?;
        if let Some(body) = body {
            self.writer.write_all(body.as_bytes())?;
        }
        self.writer.flush()
    }

    /// `GET path`, optionally with an `Accept` header.
    pub fn get(&mut self, path: &str, accept: Option<&str>) -> std::io::Result<ClientResponse> {
        self.request("GET", path, accept, None)
    }

    /// `POST path` with a JSON body.
    pub fn post_json(&mut self, path: &str, body: &str) -> std::io::Result<ClientResponse> {
        self.request("POST", path, None, Some(body))
    }

    /// `POST path` with a JSON body, dripped onto the wire at roughly
    /// `bytes_per_sec`: the raw request bytes go out in small chunks with
    /// sleeps in between, simulating a slow client and exercising the
    /// server's partial-read path. Reads the response normally.
    pub fn post_json_paced(
        &mut self,
        path: &str,
        body: &str,
        bytes_per_sec: u64,
    ) -> std::io::Result<ClientResponse> {
        let mut request = format!(
            "POST {path} HTTP/1.1\r\nhost: ayd-serve\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body.as_bytes());
        // Pace in ~20 ms ticks; at very low rates this degrades to one byte
        // per tick, which is the most adversarial framing for the server.
        let rate = bytes_per_sec.max(1);
        let chunk = ((rate / 50).max(1)) as usize;
        for piece in request.chunks(chunk) {
            self.writer.write_all(piece)?;
            self.writer.flush()?;
            let nanos = piece.len() as u64 * 1_000_000_000 / rate;
            std::thread::sleep(Duration::from_nanos(nanos));
        }
        self.receive()
    }

    /// Reads the response to the oldest request sent and not yet answered.
    pub fn receive(&mut self) -> std::io::Result<ClientResponse> {
        let bad = |message: &str| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, message.to_string())
        };
        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line)? == 0 {
            return Err(bad("connection closed before a status line"));
        }
        let status = status_line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.split(' ').next())
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length: Option<usize> = None;
        let mut content_type = String::new();
        let mut trace_id = String::new();
        let mut closes = false;
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside response headers"));
            }
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = Some(value.parse().map_err(|_| bad("bad content-length"))?);
                } else if name.eq_ignore_ascii_case("content-type") {
                    content_type = value.to_string();
                } else if name.eq_ignore_ascii_case("x-ayd-trace-id") {
                    trace_id = value.to_string();
                } else if name.eq_ignore_ascii_case("connection") {
                    closes = value.eq_ignore_ascii_case("close");
                }
            }
        }
        let length = content_length.ok_or_else(|| bad("response without content-length"))?;
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        Ok(ClientResponse {
            status,
            content_type,
            trace_id,
            body: String::from_utf8(body).map_err(|_| bad("non-UTF-8 response body"))?,
            closes,
        })
    }
}

/// The golden sweep grid of `tests/golden_sweep_csv.rs`, as a `/v1/sweep`
/// request body. The smoke check recomputes the same grid in-process and
/// compares the CSV byte-for-byte.
pub const GOLDEN_SWEEP_BODY: &str = r#"{"platforms":["Hera"],"scenarios":[1,3],"lambda_multipliers":[1,10],"processors":[256,1024],"pattern_lengths":[3600]}"#;

/// A mixed-profile sweep (all four profile families) as a `/v1/sweep` request
/// body; the smoke check compares the served CSV byte-for-byte against the
/// in-process engine over the equivalent grid.
pub const PROFILE_SWEEP_BODY: &str = r#"{"platforms":["Hera"],"scenarios":[1,3],"profiles":["amdahl:0.1","powerlaw:0.8","gustafson:0.05","perfect"],"processors":[256,1024]}"#;

fn offline_sweep_csv(grid: &ScenarioGrid) -> String {
    SweepExecutor::new(SweepOptions::new(RunOptions {
        simulate: false,
        ..RunOptions::default()
    }))
    .run(grid)
    .to_csv()
}

fn golden_grid() -> ScenarioGrid {
    ScenarioGrid::builder()
        .platforms(&[PlatformId::Hera])
        .scenarios(&[ScenarioId::S1, ScenarioId::S3])
        .lambda_multipliers(&[1.0, 10.0])
        .processors(ProcessorAxis::Fixed(vec![256.0, 1024.0]))
        .pattern_lengths(&[3_600.0])
        .build()
        .expect("the golden grid is valid")
}

fn golden_sweep_csv() -> String {
    offline_sweep_csv(&golden_grid())
}

/// The golden grid's cells, in grid order, as one `/v1/batch` body.
fn golden_batch_body() -> String {
    let queries: Vec<String> = golden_grid()
        .cells()
        .iter()
        .map(|cell| {
            format!(
                r#"{{"platform":"{}","scenario":{},"lambda_multiplier":{},"processors":{},"pattern_length":{}}}"#,
                cell.setup.platform.name(),
                cell.setup.scenario.number(),
                cell.lambda_multiplier,
                cell.fixed_processors.expect("the golden grid fixes P"),
                cell.pattern_length.expect("the golden grid fixes T"),
            )
        })
        .collect();
    format!(r#"{{"queries":[{}]}}"#, queries.join(","))
}

fn profile_sweep_csv() -> String {
    let grid = ScenarioGrid::builder()
        .platforms(&[PlatformId::Hera])
        .scenarios(&[ScenarioId::S1, ScenarioId::S3])
        .profiles(&[
            SpeedupProfile::amdahl(0.1).expect("valid alpha"),
            SpeedupProfile::power_law(0.8).expect("valid sigma"),
            SpeedupProfile::gustafson(0.05).expect("valid alpha"),
            SpeedupProfile::perfectly_parallel(),
        ])
        .processors(ProcessorAxis::Fixed(vec![256.0, 1024.0]))
        .build()
        .expect("the profile grid is valid");
    offline_sweep_csv(&grid)
}

/// Checks `/v1/batch` against `/v1/optimize`: 20 queries (three slices,
/// over every platform, fixed and optimised `P`, `exp` and `weibull:0.7`,
/// two profiles, and query 13 repeating query 2), as JSON and as CSV, must
/// answer exactly the bytes each query answers alone; an empty batch, an
/// empty document. And a batch is a sweep: the golden grid's cells as one
/// CSV batch answer the golden sweep CSV.
fn check_batches(client: &mut HttpClient, addr: &str) -> Result<(), String> {
    let queries: Vec<String> = (0..20usize)
        .map(|n| {
            let i = if n == 13 { 2 } else { n };
            let platform = ["Hera", "Atlas", "Coastal", "Coastal SSD"][i % 4];
            let law = ["", r#","failure_model":"weibull:0.7""#][i % 2];
            let profile = if i % 5 == 4 { r#","profile":"gustafson:0.05""# } else { "" };
            let processors = match i % 3 {
                0 => format!(r#","processors":{}"#, 256 << (i % 4)),
                _ => String::new(),
            };
            format!(
                r#"{{"platform":"{platform}","scenario":{},"lambda_multiplier":{}{processors}{law}{profile}}}"#,
                1 + i % 6,
                1 + i
            )
        })
        .collect();
    let mut post = |path: &str, accept: Option<&str>, body: &str| {
        let response = client
            .request("POST", path, accept, Some(body))
            .map_err(|e| format!("i/o against {addr}: {e}"))?;
        match response.status {
            200 => Ok(response.body),
            status => Err(format!("{path}: status {status} {}", response.body)),
        }
    };
    let csv = Some("text/csv");
    let body = format!(r#"{{"queries":[{}]}}"#, queries.join(","));
    // The batch goes first, so its evaluations are the cold ones.
    let batch_json = post("/v1/batch", None, &body)?;
    let batch_csv = post("/v1/batch", csv, &body)?;
    let (mut results, mut lines) = (Vec::new(), format!("{CSV_HEADER}\n"));
    for query in &queries {
        results.push(post("/v1/optimize", None, query)?);
        let one = post("/v1/optimize", csv, query)?;
        lines.push_str(one.get(CSV_HEADER.len() + 1..).unwrap_or_default());
    }
    let json = format!(r#"{{"count":20,"results":[{}]}}"#, results.join(","));
    let (empty, header) = (r#"{"queries":[]}"#, format!("{CSV_HEADER}\n"));
    for (what, served, expected) in [
        ("JSON", batch_json, json.as_str()),
        ("CSV", batch_csv, &lines),
        (
            "empty JSON",
            post("/v1/batch", None, empty)?,
            r#"{"count":0,"results":[]}"#,
        ),
        ("empty CSV", post("/v1/batch", csv, empty)?, &header),
        (
            "golden-grid CSV (against the sweep engine)",
            post("/v1/batch", csv, &golden_batch_body())?,
            &golden_sweep_csv(),
        ),
    ] {
        if served != expected {
            let bytes = (served.len(), expected.len());
            return Err(format!("batch {what} differs: {bytes:?} bytes"));
        }
    }
    Ok(())
}

fn expect_f64(doc: &Json, object: &str, field: &str) -> Result<f64, String> {
    doc.get(object)
        .and_then(|inner| inner.get(field))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("response missing {object}.{field}"))
}

/// A submitted sweep job: its id, the `202` document and the finished CSV.
type SweepRun = (u64, Json, String);

/// Submits a sweep job and polls until its CSV arrives.
fn run_sweep(client: &mut HttpClient, addr: &str, body: &str) -> Result<SweepRun, String> {
    run_sweep_with_deadline(client, addr, body, Duration::from_secs(60))
}

fn run_sweep_with_deadline(
    client: &mut HttpClient,
    addr: &str,
    body: &str,
    timeout: Duration,
) -> Result<SweepRun, String> {
    let io = |e: std::io::Error| format!("i/o against {addr}: {e}");
    let accepted = client.post_json("/v1/sweep", body).map_err(io)?;
    if accepted.status != 202 {
        return Err(format!(
            "sweep submit: status {} body {}",
            accepted.status, accepted.body
        ));
    }
    let doc = Json::parse(&accepted.body).map_err(|e| format!("sweep JSON: {e}"))?;
    let id = doc
        .get("id")
        .and_then(Json::as_f64)
        .ok_or("sweep submit: no id")? as u64;
    let deadline = std::time::Instant::now() + timeout;
    loop {
        let poll = client
            .get(&format!("/v1/sweep/{id}"), Some("text/csv"))
            .map_err(io)?;
        if poll.status != 200 {
            return Err(format!("sweep poll: status {}", poll.status));
        }
        if poll.content_type.starts_with("text/csv") {
            return Ok((id, doc, poll.body));
        }
        if std::time::Instant::now() > deadline {
            return Err(format!(
                "sweep job did not finish within {} s",
                timeout.as_secs()
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Submits `body` to `/v1/sweep` on `addr` and polls until the CSV arrives.
/// The wire protocol is identical for plain, locally-sharded and
/// coordinator-distributed jobs — 202 + id, then poll with `Accept:
/// text/csv` — so this is the one client the cluster smoke and CI both use.
pub fn fetch_sweep_csv(addr: &str, body: &str, timeout: Duration) -> Result<String, String> {
    let mut client = HttpClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    run_sweep_with_deadline(&mut client, addr, body, timeout).map(|(_, _, csv)| csv)
}

/// Computes the CSV for a `/v1/sweep` request body with the in-process
/// engine (default serve options, no simulation): the byte-identical
/// reference a cluster sweep must reproduce.
pub fn engine_sweep_csv(body: &str) -> Result<String, String> {
    let doc = Json::parse(body).map_err(|e| format!("grid body: {e}"))?;
    let grid = crate::api::parse_grid(&doc).map_err(|e| format!("grid body: {}", e.reason))?;
    Ok(offline_sweep_csv(&grid))
}

/// Polls `GET /v1/workers` on a coordinator until at least `want` workers are
/// alive (or `timeout` passes). Workers register asynchronously after their
/// agent threads start, so cluster tests and CI must wait before submitting.
/// A coordinator that is not listening yet counts as not ready.
pub fn await_workers(addr: &str, want: usize, timeout: Duration) -> Result<(), String> {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        let mut client = match HttpClient::connect(addr) {
            Ok(client) => client,
            Err(e) if std::time::Instant::now() > deadline => {
                return Err(format!("connect {addr}: {e}"))
            }
            Err(_) => {
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        let response = client
            .get("/v1/workers", None)
            .map_err(|e| format!("i/o against {addr}: {e}"))?;
        if response.status != 200 {
            return Err(format!(
                "workers view: status {} body {}",
                response.status, response.body
            ));
        }
        let doc = Json::parse(&response.body).map_err(|e| format!("workers JSON: {e}"))?;
        let alive = doc.get("alive").and_then(Json::as_f64).unwrap_or(0.0) as usize;
        if alive >= want {
            return Ok(());
        }
        if std::time::Instant::now() > deadline {
            return Err(format!(
                "only {alive} of {want} workers registered within {} s",
                timeout.as_secs()
            ));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Cluster-mode smoke check against a running coordinator (`loadgen
/// --cluster-check`): waits for `workers` live workers, runs the golden grid
/// as a distributed 3-shard job, compares the merged CSV byte-for-byte
/// against the in-process engine, and asserts the worker/shard metric
/// families moved.
pub fn cluster_smoke_check(addr: &str, workers: usize) -> Result<(), String> {
    let io = |e: std::io::Error| format!("i/o against {addr}: {e}");
    await_workers(addr, workers, Duration::from_secs(30))?;

    let sharded_body = format!(
        "{}{}",
        &GOLDEN_SWEEP_BODY[..GOLDEN_SWEEP_BODY.len() - 1],
        r#","shards":3}"#
    );
    let csv = fetch_sweep_csv(addr, &sharded_body, Duration::from_secs(120))?;
    let expected_csv = golden_sweep_csv();
    if csv != expected_csv {
        return Err(format!(
            "distributed sweep CSV differs from the in-process engine \
             ({} vs {} bytes)",
            csv.len(),
            expected_csv.len()
        ));
    }

    let mut client = HttpClient::connect(addr).map_err(io)?;
    let metrics = client.get("/metrics", None).map_err(io)?;
    if metrics.status != 200 {
        return Err(format!("metrics: status {}", metrics.status));
    }
    let scrape = crate::metrics::PrometheusText::parse(&metrics.body)
        .map_err(|e| format!("metrics: {e}"))?;
    let alive = scrape
        .samples
        .iter()
        .find(|s| s.name == "ayd_workers" && s.label("state") == Some("alive"))
        .map(|s| s.value)
        .ok_or("metrics: ayd_workers{state=\"alive\"} gauge missing")?;
    if alive < workers as f64 {
        return Err(format!(
            "metrics: ayd_workers alive is {alive}, want at least {workers}"
        ));
    }
    let dispatched = scrape
        .value("ayd_shards_dispatched_total")
        .ok_or("metrics: ayd_shards_dispatched_total counter missing")?;
    if dispatched < 3.0 {
        return Err(format!(
            "metrics: ayd_shards_dispatched_total is {dispatched} after a 3-shard job"
        ));
    }
    if scrape.value("ayd_shard_reissues_total").is_none()
        || scrape.value("ayd_lease_expiries_total").is_none()
    {
        return Err("metrics: shard re-issue / lease expiry counters missing".into());
    }
    Ok(())
}

/// End-to-end smoke check against a running server (`loadgen --check`):
///
/// 1. `/healthz` answers ok.
/// 2. `/v1/optimize` answers numbers **bit-identical** to the offline
///    [`Evaluator`] for the same inputs — for the default Amdahl profile and
///    for a Gustafson extension profile sent through the `profile` field.
/// 3. `/v1/batch` answers each query byte-identically to its own
///    `/v1/optimize`, as JSON and as CSV, and an empty batch an empty
///    document; the golden grid's cells, in grid order, as one CSV batch
///    answer the golden sweep CSV (a batch is a sweep).
/// 4. `/v1/sweep` jobs over the golden grid and over a mixed-profile grid
///    both stream a CSV byte-identical to the in-process sweep engine (the
///    golden grid's bytes are the ones the golden test pins); the finished
///    golden job's CSV, fetched twice on one keep-alive connection, is the
///    engine's both times.
/// 5. `/metrics` renders parsable Prometheus text.
pub fn smoke_check(addr: &str) -> Result<(), String> {
    let io = |e: std::io::Error| format!("i/o against {addr}: {e}");
    let mut client = HttpClient::connect(addr).map_err(io)?;

    // 1. Health — and the trace-id contract: every response, 2xx or 4xx,
    // carries a well-formed `x-ayd-trace-id`, and IDs are per-request.
    let health = client.get("/healthz", None).map_err(io)?;
    if health.status != 200 || !health.body.contains("\"ok\"") {
        return Err(format!(
            "healthz: status {} body {}",
            health.status, health.body
        ));
    }
    let well_formed = |id: &str| {
        id.len() == 16
            && id
                .chars()
                .all(|c| c.is_ascii_hexdigit() && !c.is_uppercase())
    };
    if !well_formed(&health.trace_id) {
        return Err(format!(
            "healthz: bad x-ayd-trace-id {:?} (want 16 lowercase hex digits)",
            health.trace_id
        ));
    }
    let missing = client.get("/v1/no-such-route", None).map_err(io)?;
    if missing.status != 404 {
        return Err(format!("unknown route: status {}", missing.status));
    }
    if !well_formed(&missing.trace_id) {
        return Err(format!(
            "404 response: bad x-ayd-trace-id {:?}",
            missing.trace_id
        ));
    }
    if missing.trace_id == health.trace_id {
        return Err("trace IDs repeat across requests".into());
    }

    // 2. Optimize, checked bit-for-bit against the offline evaluator.
    let response = client
        .post_json("/v1/optimize", r#"{"platform":"Hera","scenario":1}"#)
        .map_err(io)?;
    if response.status != 200 {
        return Err(format!("optimize: status {}", response.status));
    }
    let doc = Json::parse(&response.body).map_err(|e| format!("optimize JSON: {e}"))?;
    let model = ayd_platforms::ExperimentSetup::paper_default(PlatformId::Hera, ScenarioId::S1)
        .model()
        .map_err(|e| format!("local model: {e}"))?;
    let expected = Evaluator::new(RunOptions {
        simulate: false,
        ..RunOptions::default()
    })
    .compare(&model);
    let pairs = [
        ("numerical", "processors", expected.numerical.processors),
        ("numerical", "period", expected.numerical.period),
        (
            "numerical",
            "overhead",
            expected.numerical.predicted_overhead,
        ),
    ];
    for (object, field, local) in pairs {
        let served = expect_f64(&doc, object, field)?;
        if served.to_bits() != local.to_bits() {
            return Err(format!(
                "optimize: {object}.{field} differs from the offline evaluator: \
                 served {served:?}, local {local:?}"
            ));
        }
    }
    let fo = expected
        .first_order
        .ok_or("local first-order optimum missing")?;
    let served_fo = expect_f64(&doc, "first_order", "overhead")?;
    if served_fo.to_bits() != fo.predicted_overhead.to_bits() {
        return Err("optimize: first_order.overhead differs from the offline evaluator".into());
    }

    // 2b. A non-Amdahl query through the `profile` field: Gustafson weak
    // scaling, answered numerically only, bit-identical to the offline
    // evaluator over the same extension-profile model.
    let response = client
        .post_json(
            "/v1/optimize",
            r#"{"platform":"Hera","scenario":1,"profile":{"kind":"gustafson","alpha":0.05}}"#,
        )
        .map_err(io)?;
    if response.status != 200 {
        return Err(format!("optimize (gustafson): status {}", response.status));
    }
    let doc = Json::parse(&response.body).map_err(|e| format!("optimize JSON: {e}"))?;
    let gustafson_model = ExperimentSetup::paper_default(PlatformId::Hera, ScenarioId::S1)
        .with_profile(SpeedupProfile::gustafson(0.05).expect("valid alpha"))
        .model()
        .map_err(|e| format!("local gustafson model: {e}"))?;
    let expected = Evaluator::new(RunOptions {
        simulate: false,
        ..RunOptions::default()
    })
    .compare(&gustafson_model);
    for (field, local) in [
        ("processors", expected.numerical.processors),
        ("period", expected.numerical.period),
        ("overhead", expected.numerical.predicted_overhead),
    ] {
        let served = expect_f64(&doc, "numerical", field)?;
        if served.to_bits() != local.to_bits() {
            return Err(format!(
                "optimize (gustafson): numerical.{field} differs from the offline \
                 evaluator: served {served:?}, local {local:?}"
            ));
        }
    }
    if !matches!(doc.get("first_order"), Some(Json::Null)) {
        return Err(
            "optimize (gustafson): extension profiles must not report a \
                    first-order optimum"
                .into(),
        );
    }
    let served_spec = doc
        .get("profile")
        .and_then(|p| p.get("spec"))
        .and_then(Json::as_str)
        .ok_or("optimize (gustafson): response missing profile.spec")?;
    if served_spec != "gustafson:0.05" {
        return Err(format!(
            "optimize (gustafson): profile.spec round-trip broke: {served_spec}"
        ));
    }

    // 2c. Batches, byte for byte against the single-query answers.
    check_batches(&mut client, addr)?;

    // 3. Sweep round-trips: the golden Amdahl grid (the bytes the golden test
    // pins) and a mixed-profile grid, both byte-identical to the in-process
    // engine. The finished golden job is fetched a second time on the same
    // keep-alive connection: a GET shares the job's bytes, and the second
    // copy must be the engine's too.
    let (id, _, csv) = run_sweep(&mut client, addr, GOLDEN_SWEEP_BODY)?;
    let again = client
        .get(&format!("/v1/sweep/{id}"), Some("text/csv"))
        .map_err(io)?;
    let expected_csv = golden_sweep_csv();
    for (fetch, csv) in [("first", &csv), ("second", &again.body)] {
        if *csv != expected_csv {
            return Err(format!(
                "sweep CSV ({fetch} fetch) differs from the in-process engine \
                 ({} vs {} bytes)",
                csv.len(),
                expected_csv.len()
            ));
        }
    }
    let (_, _, csv) = run_sweep(&mut client, addr, PROFILE_SWEEP_BODY)?;
    let expected_csv = profile_sweep_csv();
    if csv != expected_csv {
        return Err(format!(
            "mixed-profile sweep CSV differs from the in-process engine \
             ({} vs {} bytes)",
            csv.len(),
            expected_csv.len()
        ));
    }

    // 3b. The same golden grid as a 3-shard job: the deterministic merge
    // must reproduce the exact unsharded bytes, the submission must carry
    // no resume token (a body with one is refused by name), and the shards
    // progress view must account for every cell.
    let sharded_body = format!(
        "{}{}",
        &GOLDEN_SWEEP_BODY[..GOLDEN_SWEEP_BODY.len() - 1],
        r#","shards":3}"#
    );
    let (id, doc, csv) = run_sweep(&mut client, addr, &sharded_body)?;
    if doc.get("shards").and_then(Json::as_f64) != Some(3.0) {
        return Err("sharded sweep submit: response lacks shards: 3".into());
    }
    if doc.get("resume_token").is_some() {
        return Err("sharded sweep submit: response still carries a resume_token".into());
    }
    let with_token = format!(
        "{}{}",
        &sharded_body[..sharded_body.len() - 1],
        r#","resume_token":"1-0"}"#
    );
    let refused = client.post_json("/v1/sweep", &with_token).map_err(io)?;
    let field = Json::parse(&refused.body)
        .ok()
        .and_then(|doc| doc.get("field").and_then(Json::as_str).map(str::to_string));
    if refused.status != 400 || field.as_deref() != Some("resume_token") {
        return Err(format!(
            "sweep submit with a resume_token: want a 400 naming the field, got status {} body {}",
            refused.status, refused.body
        ));
    }
    let expected_csv = golden_sweep_csv();
    if csv != expected_csv {
        return Err(format!(
            "sharded sweep CSV differs from the unsharded engine ({} vs {} bytes)",
            csv.len(),
            expected_csv.len()
        ));
    }
    let shards = client
        .get(&format!("/v1/sweep/{id}/shards"), None)
        .map_err(io)?;
    if shards.status != 200 {
        return Err(format!("sweep shards view: status {}", shards.status));
    }
    let doc = Json::parse(&shards.body).map_err(|e| format!("shards view JSON: {e}"))?;
    let progress = doc
        .get("progress")
        .and_then(Json::as_array)
        .ok_or("shards view: no progress array")?;
    if progress.len() != 3 {
        return Err(format!(
            "shards view: expected 3 shards, got {}",
            progress.len()
        ));
    }
    let total: f64 = progress
        .iter()
        .filter_map(|p| p.get("total").and_then(Json::as_f64))
        .sum();
    let cells = (expected_csv.lines().count() - 1) as f64;
    if total != cells {
        return Err(format!(
            "shards view: totals sum to {total}, grid has {cells} cells"
        ));
    }

    // 4. Cold-path latency: cache-busting optimize queries (a unique error
    // rate per request, so every evaluation misses the cache) must keep the
    // client-observed p99 under the acceptance bound. The CI bound is 1 ms
    // for a release build; the documented local target is 100 µs (see
    // EXPERIMENTS.md). Debug builds run the unoptimised optimiser and get a
    // proportionally generous bound — the CI gate runs `--release`.
    let cold_requests = 64usize;
    let mut cold_us: Vec<u64> = Vec::with_capacity(cold_requests);
    for index in 0..cold_requests {
        let body = format!(
            r#"{{"platform":"Hera","scenario":1,"processors":1024,"lambda_multiplier":{}}}"#,
            2.0 + index as f64 * 1e-3
        );
        let begun = std::time::Instant::now();
        let response = client.post_json("/v1/optimize", &body).map_err(io)?;
        if response.status != 200 {
            return Err(format!("cold optimize: status {}", response.status));
        }
        cold_us.push(begun.elapsed().as_micros() as u64);
    }
    cold_us.sort_unstable();
    let p99 = cold_us[((cold_us.len() - 1) as f64 * 0.99).round() as usize];
    let bound_us: u64 = if cfg!(debug_assertions) {
        100_000
    } else {
        1_000
    };
    if p99 > bound_us {
        return Err(format!(
            "cold-path p99 is {p99} µs, above the {bound_us} µs acceptance bound"
        ));
    }

    // 5. Metrics parse into the typed model, and the cold histogram accounts
    // for the cache-miss evaluations the cold loop just forced.
    let metrics = client.get("/metrics", None).map_err(io)?;
    if metrics.status != 200 {
        return Err(format!("metrics: status {}", metrics.status));
    }
    crate::metrics::validate_prometheus(&metrics.body).map_err(|e| format!("metrics: {e}"))?;
    let scrape = crate::metrics::PrometheusText::parse(&metrics.body)
        .map_err(|e| format!("metrics: {e}"))?;
    let cold_count = scrape
        .value("ayd_optimize_cold_seconds_count")
        .ok_or("metrics: ayd_optimize_cold_seconds histogram missing")?;
    if cold_count < cold_requests as f64 {
        return Err(format!(
            "metrics: cold histogram counts {cold_count} evaluations, \
             expected at least {cold_requests}"
        ));
    }
    if scrape.value("ayd_search_fast_total").is_none()
        || scrape.value("ayd_search_fallback_total").is_none()
    {
        return Err("metrics: search fast/fallback counters missing".into());
    }

    // 5b. Connection-level families from the reactors. The gauge counts at
    // least this client's own keep-alive connection; every connection was
    // accepted by exactly one reactor, so the per-reactor counters must sum
    // to the connection total; and the readiness-wait histogram renders.
    let open = scrape
        .value("ayd_open_connections")
        .ok_or("metrics: ayd_open_connections gauge missing")?;
    if open < 1.0 {
        return Err(format!(
            "metrics: ayd_open_connections is {open} while this client holds one open"
        ));
    }
    let accepts: f64 = scrape
        .samples
        .iter()
        .filter(|s| s.name == "ayd_accepts_total")
        .map(|s| s.value)
        .sum();
    let connections = scrape
        .value("ayd_connections_total")
        .ok_or("metrics: ayd_connections_total counter missing")?;
    if accepts < 1.0 || accepts != connections {
        return Err(format!(
            "metrics: ayd_accepts_total sums to {accepts} across acceptors, \
             but ayd_connections_total is {connections}"
        ));
    }
    if scrape.value("ayd_readiness_wait_seconds_count").is_none() {
        return Err("metrics: ayd_readiness_wait_seconds histogram missing".into());
    }

    // 6. The trace ring has recorded the requests this check just made, and
    // the debug endpoint serves them as JSON.
    let traces = client.get("/v1/trace/recent?limit=256", None).map_err(io)?;
    if traces.status != 200 || !traces.content_type.starts_with("application/json") {
        return Err(format!(
            "trace/recent: status {} content-type {}",
            traces.status, traces.content_type
        ));
    }
    let doc = Json::parse(&traces.body).map_err(|e| format!("trace/recent JSON: {e}"))?;
    let spans = doc
        .get("spans")
        .and_then(Json::as_array)
        .ok_or("trace/recent: no spans array")?;
    if !spans.is_empty() {
        // Tracing is on in served builds; the ring must hold request spans
        // by now, including the one for the 404 probe above.
        let has_request = spans.iter().any(|span| {
            span.get("name").and_then(Json::as_str) == Some("request")
                || span.get("name").and_then(Json::as_str) == Some("parse")
        });
        if !has_request {
            return Err("trace/recent: ring holds no request spans".into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::ServerConfig;
    use crate::server::Server;

    #[test]
    fn smoke_check_passes_against_an_in_process_server() {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let handle = server.handle().unwrap();
        let addr = handle.addr().to_string();
        let thread = std::thread::spawn(move || server.serve());
        smoke_check(&addr).unwrap();
        handle.shutdown();
        thread.join().unwrap().unwrap();
    }
}
