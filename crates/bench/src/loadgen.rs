//! Load generator for the `ayd-serve` query service.
//!
//! Drives `POST /v1/optimize` (or any configured endpoint) over `concurrency`
//! keep-alive connections until `requests` responses are in, then reports
//! throughput and client-observed latency percentiles. Used three ways: the
//! `loadgen` binary (CLI + CI smoke step), the `serve_throughput` Criterion
//! bench, and — via `--check` — the end-to-end golden round-trip of
//! [`ayd_serve::smoke_check`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ayd_serve::HttpClient;

/// What to send, how often, and how wide.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Server address (`host:port`).
    pub addr: String,
    /// Total number of requests.
    pub requests: usize,
    /// Concurrent keep-alive connections.
    pub concurrency: usize,
    /// Request path.
    pub path: String,
    /// JSON body sent with every request.
    pub body: String,
    /// Cache-busting mode: ignore `body` and send each request with a
    /// **unique** `lambda_multiplier` (derived from the global request
    /// index), so every evaluation misses the server's cache and the run
    /// measures the cold optimiser path instead of cache-hit throughput.
    pub cache_bust: bool,
    /// Idle keep-alive connections to hold open (sending nothing) for the
    /// whole run, on top of the `concurrency` working connections. Opened
    /// best-effort before the workers start; the count actually held is in
    /// [`LoadReport::idle_conns`]. Timing starts once the server's
    /// `ayd_open_connections` gauge shows them all (the run fails if that
    /// takes over 30 s). Stresses the server's connection capacity without
    /// adding request load.
    pub idle_conns: usize,
    /// Drip-feed mode: when set, every request's bytes are written at roughly
    /// this many bytes per second instead of in one burst, exercising the
    /// server's partial-read path under load.
    pub slow_client_bytes_per_sec: Option<u64>,
}

impl LoadOptions {
    /// Default load: `requests` optimize queries (a realistic Hera/scenario-1
    /// query that exercises the shared cache) over `concurrency` connections.
    pub fn optimize(addr: &str, requests: usize, concurrency: usize) -> Self {
        Self {
            addr: addr.to_string(),
            requests,
            concurrency: concurrency.max(1),
            path: "/v1/optimize".to_string(),
            body: r#"{"platform":"Hera","scenario":1,"lambda_multiplier":10}"#.to_string(),
            cache_bust: false,
            idle_conns: 0,
            slow_client_bytes_per_sec: None,
        }
    }

    /// The cache-hostile variant of [`LoadOptions::optimize`]: every request
    /// carries a distinct error rate, so no two requests share a cache entry.
    pub fn optimize_cache_busting(addr: &str, requests: usize, concurrency: usize) -> Self {
        Self {
            cache_bust: true,
            ..Self::optimize(addr, requests, concurrency)
        }
    }

    /// The body of request number `index`. In cache-busting mode the
    /// multiplier steps by `10⁻³` per request — about nine orders of
    /// magnitude above the cache key's quantization granularity, so every
    /// body lands in its own cache entry.
    pub fn body_for(&self, index: usize) -> String {
        if self.cache_bust {
            format!(
                r#"{{"platform":"Hera","scenario":1,"lambda_multiplier":{}}}"#,
                1.0 + index as f64 * 1e-3
            )
        } else {
            self.body.clone()
        }
    }
}

/// Outcome of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests completed (successfully or not).
    pub requests: usize,
    /// Successful (HTTP 200) responses — the sample count behind the latency
    /// percentiles and the throughput figure.
    pub successes: usize,
    /// Responses that were errors (non-200 status or I/O failure).
    pub errors: usize,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Completed requests per second.
    pub req_per_s: f64,
    /// Median client-observed latency, in microseconds.
    pub p50_us: f64,
    /// 90th-percentile client-observed latency, in microseconds.
    pub p90_us: f64,
    /// 99th-percentile client-observed latency, in microseconds.
    pub p99_us: f64,
    /// 99.9th-percentile client-observed latency, in microseconds.
    pub p999_us: f64,
    /// Worst client-observed latency, in microseconds.
    pub max_us: f64,
    /// Error breakdown by HTTP status (non-200 responses only); transport
    /// failures are under [`LoadReport::io_errors`] instead.
    pub error_statuses: BTreeMap<u16, usize>,
    /// Errors with no HTTP status: connect/read/write failures.
    pub io_errors: usize,
    /// Idle keep-alive connections actually held open for the run (may be
    /// below the requested [`LoadOptions::idle_conns`] when the client-side
    /// descriptor limit bites first).
    pub idle_conns: usize,
    /// The server's own `ayd_open_connections` gauge, scraped while the idle
    /// connections were still held (`None` when the scrape failed).
    pub open_connections: Option<f64>,
}

impl LoadReport {
    /// The error breakdown as `status 404 x3, io x1` (empty when error-free).
    pub fn render_errors(&self) -> String {
        let mut parts: Vec<String> = self
            .error_statuses
            .iter()
            .map(|(status, count)| format!("status {status} x{count}"))
            .collect();
        if self.io_errors > 0 {
            parts.push(format!("io x{}", self.io_errors));
        }
        parts.join(", ")
    }

    /// One-line human-readable summary. A run in which every request failed
    /// has no latency samples, so the percentile/throughput figures would be
    /// meaningless zeros — say so instead of printing them. Any errors get a
    /// by-status breakdown in parentheses.
    pub fn render(&self) -> String {
        let breakdown = if self.errors > 0 {
            format!(" ({})", self.render_errors())
        } else {
            String::new()
        };
        let mut conns = String::new();
        if self.idle_conns > 0 {
            conns.push_str(&format!(", {} idle conns held", self.idle_conns));
        }
        if let Some(open) = self.open_connections {
            conns.push_str(&format!(", server open_connections {open:.0}"));
        }
        if self.successes == 0 {
            return format!(
                "loadgen: {} requests, 0 successful requests, {} errors{breakdown}, \
                 {:.2?} elapsed{conns}",
                self.requests, self.errors, self.elapsed
            );
        }
        format!(
            "loadgen: {} requests, {} errors{breakdown}, {:.2?} elapsed, {:.0} req/s, \
             p50 {:.0} µs, p90 {:.0} µs, p99 {:.0} µs, p99.9 {:.0} µs, max {:.0} µs{conns}",
            self.requests,
            self.errors,
            self.elapsed,
            self.req_per_s,
            self.p50_us,
            self.p90_us,
            self.p99_us,
            self.p999_us,
            self.max_us
        )
    }
}

fn percentile(sorted_us: &[u64], fraction: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_us.len() as f64 - 1.0) * fraction).round() as usize;
    sorted_us[rank.min(sorted_us.len() - 1)] as f64
}

/// Runs the load and gathers the report. Fails only when no connection can be
/// established at all; per-request failures are counted as errors instead.
pub fn run_load(options: &LoadOptions) -> Result<LoadReport, String> {
    // Fail fast (and warm the server's accept path) before spawning workers.
    HttpClient::connect(&options.addr)
        .map_err(|e| format!("cannot connect to {}: {e}", options.addr))?;

    // Idle keep-alive connections: opened before the workers, held (sending
    // nothing) until after the run's final metrics scrape, so the server
    // carries them through the whole measurement. Best-effort — stop at the
    // first failure (typically the local descriptor limit) and report how
    // many actually opened.
    let mut idle: Vec<std::net::TcpStream> = Vec::with_capacity(options.idle_conns);
    for _ in 0..options.idle_conns {
        match std::net::TcpStream::connect(&options.addr) {
            Ok(stream) => idle.push(stream),
            Err(_) => break,
        }
    }
    // `connect` returns once the kernel has queued a connection, not once
    // the server has accepted it: time the run only after the server's own
    // gauge shows the whole herd, or it times the accept backlog instead.
    if !idle.is_empty() {
        await_open_connections(&options.addr, idle.len(), HERD_ACCEPT_DEADLINE)?;
    }

    let issued = Arc::new(AtomicUsize::new(0));
    let started = Instant::now();
    let mut all_latencies: Vec<u64> = Vec::with_capacity(options.requests);
    let mut error_statuses: BTreeMap<u16, usize> = BTreeMap::new();
    let mut io_errors = 0usize;
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for _ in 0..options.concurrency {
            let issued = Arc::clone(&issued);
            workers.push(scope.spawn(move || {
                let mut outcome = WorkerOutcome::default();
                let mut client = match HttpClient::connect(&options.addr) {
                    Ok(client) => client,
                    Err(_) => {
                        // Count every request this worker would have issued.
                        loop {
                            if issued.fetch_add(1, Ordering::Relaxed) >= options.requests {
                                break;
                            }
                            outcome.io_errors += 1;
                        }
                        return outcome;
                    }
                };
                loop {
                    let index = issued.fetch_add(1, Ordering::Relaxed);
                    if index >= options.requests {
                        break;
                    }
                    let body = options.body_for(index);
                    let begun = Instant::now();
                    let outcome_for = match options.slow_client_bytes_per_sec {
                        Some(rate) => client.post_json_paced(&options.path, &body, rate),
                        None => client.post_json(&options.path, &body),
                    };
                    match outcome_for {
                        Ok(response) if response.status == 200 => {
                            outcome.latencies.push(begun.elapsed().as_micros() as u64);
                        }
                        Ok(response) => {
                            *outcome.statuses.entry(response.status).or_default() += 1;
                        }
                        Err(_) => {
                            outcome.io_errors += 1;
                            // The connection may be dead; try a fresh one.
                            match HttpClient::connect(&options.addr) {
                                Ok(fresh) => client = fresh,
                                Err(_) => break,
                            }
                        }
                    }
                }
                outcome
            }));
        }
        for worker in workers {
            // A panicked worker contributes no samples; the run's other
            // workers still produce a usable report.
            let outcome = worker.join().unwrap_or_default();
            all_latencies.extend(outcome.latencies);
            for (status, count) in outcome.statuses {
                *error_statuses.entry(status).or_default() += count;
            }
            io_errors += outcome.io_errors;
        }
    });
    let elapsed = started.elapsed();
    // Scrape the server's view of its connection load while the idle
    // connections are still held, so the gauge reflects the run's peak.
    let open_connections = scrape_metrics(&options.addr)
        .ok()
        .and_then(|scrape| scrape.value("ayd_open_connections"));
    let idle_held = idle.len();
    drop(idle);
    all_latencies.sort_unstable();
    let errors = io_errors + error_statuses.values().sum::<usize>();
    let completed = all_latencies.len() + errors;
    Ok(LoadReport {
        requests: completed,
        successes: all_latencies.len(),
        errors,
        elapsed,
        req_per_s: all_latencies.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_us: percentile(&all_latencies, 0.50),
        p90_us: percentile(&all_latencies, 0.90),
        p99_us: percentile(&all_latencies, 0.99),
        p999_us: percentile(&all_latencies, 0.999),
        max_us: all_latencies.last().copied().unwrap_or(0) as f64,
        error_statuses,
        io_errors,
        idle_conns: idle_held,
        open_connections,
    })
}

/// What one load worker brings home.
#[derive(Debug, Default)]
struct WorkerOutcome {
    latencies: Vec<u64>,
    statuses: BTreeMap<u16, usize>,
    io_errors: usize,
}

/// How long [`run_load`] waits for the server to accept its idle herd.
const HERD_ACCEPT_DEADLINE: Duration = Duration::from_secs(30);

/// Polls `/metrics` until the server holds `herd` connections besides the
/// scrape's own (`ayd_open_connections` ≥ `herd` + 1); fails once `deadline`
/// passes.
fn await_open_connections(addr: &str, herd: usize, deadline: Duration) -> Result<(), String> {
    let give_up = Instant::now() + deadline;
    loop {
        let open = scrape_metrics(addr)?
            .value("ayd_open_connections")
            .ok_or("metrics: ayd_open_connections gauge missing")?;
        if open > herd as f64 {
            return Ok(());
        }
        if Instant::now() >= give_up {
            return Err(format!(
                "the server shows {open} open connections after {deadline:?}; \
                 {herd} idle ones and the scrape's own are held"
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Scrapes and parses `/metrics` into the typed model.
pub fn scrape_metrics(addr: &str) -> Result<ayd_serve::PrometheusText, String> {
    let mut client =
        HttpClient::connect(addr).map_err(|e| format!("metrics connect to {addr}: {e}"))?;
    let response = client
        .get("/metrics", None)
        .map_err(|e| format!("metrics fetch: {e}"))?;
    ayd_serve::PrometheusText::parse(&response.body).map_err(|e| format!("metrics parse: {e}"))
}

/// The server-side request count of `endpoint` (all statuses) in a scrape.
pub fn endpoint_requests(scrape: &ayd_serve::PrometheusText, endpoint: &str) -> f64 {
    scrape.sum_labeled("ayd_requests_total", "endpoint", endpoint)
}

/// Asserts the server counted exactly `expected` more requests on `endpoint`
/// than `baseline`. The server observes a request *after* writing its
/// response, so the client can scrape before the last observation lands —
/// retry briefly before declaring a lost or double-counted request.
pub fn await_request_delta(
    addr: &str,
    endpoint: &str,
    baseline: f64,
    expected: usize,
) -> Result<(), String> {
    let mut delta = 0.0;
    for _ in 0..40 {
        delta = endpoint_requests(&scrape_metrics(addr)?, endpoint) - baseline;
        if delta == expected as f64 {
            return Ok(());
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    Err(format!(
        "metrics delta: endpoint {endpoint} counted {delta} new requests, client sent {expected}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ayd_serve::{Server, ServerConfig};

    #[test]
    fn percentiles_pick_ranked_samples() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 51.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        // Degenerate sample sets must not panic or index out of range.
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[], 0.0), 0.0);
        assert_eq!(percentile(&[], 1.0), 0.0);
        assert_eq!(percentile(&[42], 0.0), 42.0);
        assert_eq!(percentile(&[42], 0.5), 42.0);
        assert_eq!(percentile(&[42], 1.0), 42.0);
    }

    #[test]
    fn an_all_error_run_reports_zero_successes_cleanly() {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let handle = server.handle().unwrap();
        let addr = handle.addr().to_string();
        let thread = std::thread::spawn(move || server.serve());

        // Every request 404s: zero successes, and the summary says so instead
        // of printing zero-sample percentiles and a zero throughput figure.
        let options = LoadOptions {
            path: "/nope".to_string(),
            ..LoadOptions::optimize(&addr, 16, 4)
        };
        let report = run_load(&options).unwrap();
        assert_eq!(report.requests, 16);
        assert_eq!(report.successes, 0);
        assert_eq!(report.errors, 16);
        assert_eq!(report.req_per_s, 0.0);
        assert_eq!((report.p50_us, report.p99_us), (0.0, 0.0));
        // Every error carries its status: 16 x 404, no transport failures.
        assert_eq!(report.error_statuses.get(&404), Some(&16));
        assert_eq!(report.io_errors, 0);
        assert_eq!(report.render_errors(), "status 404 x16");
        let rendered = report.render();
        assert!(rendered.contains("0 successful requests"), "{rendered}");
        assert!(rendered.contains("status 404 x16"), "{rendered}");
        assert!(!rendered.contains("req/s"), "{rendered}");

        handle.shutdown();
        thread.join().unwrap().unwrap();
    }

    #[test]
    fn load_run_against_a_local_server_has_no_errors() {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let handle = server.handle().unwrap();
        let addr = handle.addr().to_string();
        let thread = std::thread::spawn(move || server.serve());

        // The server must count exactly the requests the client sends.
        let baseline = endpoint_requests(&scrape_metrics(&addr).unwrap(), "optimize");
        let report = run_load(&LoadOptions::optimize(&addr, 64, 4)).unwrap();
        assert_eq!(report.requests, 64);
        assert_eq!(report.errors, 0);
        assert!(report.req_per_s > 0.0);
        // Percentiles are monotone and bounded by the worst sample.
        assert!(report.p50_us <= report.p90_us);
        assert!(report.p90_us <= report.p99_us);
        assert!(report.p99_us <= report.p999_us);
        assert!(report.p999_us <= report.max_us);
        assert!(report.render().contains("0 errors"));
        assert!(report.render().contains("max"), "{}", report.render());
        assert_eq!(report.render_errors(), "");
        await_request_delta(&addr, "optimize", baseline, 64).unwrap();

        handle.shutdown();
        thread.join().unwrap().unwrap();
    }

    #[test]
    fn idle_and_slow_client_modes_hold_connections_and_still_succeed() {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let handle = server.handle().unwrap();
        let addr = handle.addr().to_string();
        let thread = std::thread::spawn(move || server.serve());

        // 16 idle keep-alive connections held through the run, while every
        // working request is dripped at ~5 KB/s (one or two bytes-level
        // chunks per request) — the server must answer them all and its own
        // open-connection gauge must account for the idle ones.
        let options = LoadOptions {
            idle_conns: 16,
            slow_client_bytes_per_sec: Some(5_000),
            ..LoadOptions::optimize(&addr, 8, 2)
        };
        let report = run_load(&options).unwrap();
        assert_eq!(report.errors, 0, "{}", report.render());
        assert_eq!(report.requests, 8);
        assert_eq!(report.idle_conns, 16);
        let open = report
            .open_connections
            .expect("metrics scrape reports the gauge");
        assert!(open >= 16.0, "gauge {open} below the 16 idle conns held");
        let rendered = report.render();
        assert!(rendered.contains("16 idle conns held"), "{rendered}");
        assert!(rendered.contains("server open_connections"), "{rendered}");

        handle.shutdown();
        thread.join().unwrap().unwrap();
    }

    #[test]
    fn cache_busting_bodies_are_unique_and_every_request_runs_cold() {
        let options = LoadOptions::optimize_cache_busting("x:1", 4, 1);
        assert_ne!(options.body_for(0), options.body_for(1));
        assert_ne!(options.body_for(1), options.body_for(2));
        let plain = LoadOptions::optimize("x:1", 4, 1);
        assert_eq!(plain.body_for(0), plain.body);
        assert_eq!(plain.body_for(3), plain.body);

        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let handle = server.handle().unwrap();
        let addr = handle.addr().to_string();
        let thread = std::thread::spawn(move || server.serve());

        let report = run_load(&LoadOptions::optimize_cache_busting(&addr, 32, 4)).unwrap();
        assert_eq!(report.errors, 0, "{}", report.render());

        // Every unique body must have missed the cache: the server's cold
        // histogram counts at least one evaluation per request.
        let mut client = ayd_serve::HttpClient::connect(&addr).unwrap();
        let metrics = client.get("/metrics", None).unwrap().body;
        let cold_count: f64 = metrics
            .lines()
            .find_map(|line| line.strip_prefix("ayd_optimize_cold_seconds_count "))
            .expect("cold histogram rendered")
            .parse()
            .unwrap();
        assert!(cold_count >= 32.0, "only {cold_count} cold evaluations");

        handle.shutdown();
        thread.join().unwrap().unwrap();
    }
}
