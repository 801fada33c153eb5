//! The metrics registry and a typed Prometheus text model.
//!
//! Counters are lock-free atomics; the per-endpoint/status breakdown and the
//! in-flight gauge live in small mutexed maps (the handler path touches each
//! once per request, which is noise next to an optimiser evaluation).
//! Rendering follows the Prometheus text exposition format, version `0.0.4`
//! — `# HELP`/`# TYPE` lines, cumulative histogram buckets, and a `+Inf`
//! bucket equal to `_count`.
//!
//! [`PrometheusText`] is a small typed model of a rendered payload, shared by
//! [`validate_prometheus`], the smoke check and the load generator — so
//! nothing downstream string-scans metric lines.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use ayd_sweep::{CacheStats, FallbackReason, SearchReport};

use crate::coordinator::ClusterStats;

/// Upper bounds (in seconds) of the latency histogram buckets, from 10 µs
/// (a warm `/v1/optimize` evaluation) to 250 ms.
const BUCKET_BOUNDS: [f64; 14] = [
    0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25,
];

/// Point-in-time gauges sampled at render: sweep-job states. The registry
/// itself never owns these — the `/metrics` handler snapshots them from the
/// job registry at scrape time.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Sweep jobs admitted but not yet past their first chunk.
    pub jobs_queued: usize,
    /// Sweep jobs actively evaluating cells.
    pub jobs_running: usize,
    /// Sweep jobs that finished (and were not cancelled).
    pub jobs_done: usize,
    /// Sweep jobs that were cancelled.
    pub jobs_cancelled: usize,
}

/// Process-wide request metrics.
#[derive(Default)]
pub struct Metrics {
    /// Per-(endpoint, status) request counts.
    by_route: Mutex<BTreeMap<(&'static str, u16), u64>>,
    /// Requests currently being handled, by endpoint. Entries persist at zero
    /// after the last request finishes, so the gauge keeps reporting.
    in_flight: Mutex<BTreeMap<&'static str, u64>>,
    /// Cumulative request count.
    requests: AtomicU64,
    /// Total connections accepted.
    connections: AtomicU64,
    /// Connections currently open (accepted, not yet closed). Idle
    /// keep-alive connections park no thread, so open ≫ reactors is healthy.
    open_connections: AtomicU64,
    /// Accepted connections by reactor (labelled by index).
    accepts: Mutex<BTreeMap<String, u64>>,
    /// Readiness-wait histogram buckets: time a reactor spent parked in
    /// `epoll_wait` before events fired, same bounds as the request histogram.
    readiness_buckets: [AtomicU64; BUCKET_BOUNDS.len() + 1],
    /// Sum of readiness waits in nanoseconds.
    readiness_sum_nanos: AtomicU64,
    /// Latency histogram bucket counts (non-cumulative; bucket `i` counts
    /// requests with latency ≤ `BUCKET_BOUNDS[i]`, the last slot is overflow).
    buckets: [AtomicU64; BUCKET_BOUNDS.len() + 1],
    /// Sum of request latencies in nanoseconds.
    latency_sum_nanos: AtomicU64,
    /// Cold-evaluation histogram buckets: latencies of `/v1/optimize`
    /// evaluations that actually ran the optimiser (cache misses), same
    /// bounds as the request histogram.
    cold_buckets: [AtomicU64; BUCKET_BOUNDS.len() + 1],
    /// Sum of cold-evaluation latencies in nanoseconds.
    cold_sum_nanos: AtomicU64,
    /// Warm-evaluation histogram buckets: `/v1/optimize` evaluations answered
    /// from the cache, same bounds.
    warm_buckets: [AtomicU64; BUCKET_BOUNDS.len() + 1],
    /// Sum of warm-evaluation latencies in nanoseconds.
    warm_sum_nanos: AtomicU64,
    /// Scalar searches answered by the warm-started fast path.
    search_fast: AtomicU64,
    /// Scalar searches that fell back to the reference search.
    search_fallback: AtomicU64,
    /// Brent iterations spent across all fast-path searches.
    search_brent_iterations: AtomicU64,
    /// Fallback tallies by [`FallbackReason`], indexed by `reason.index()`.
    search_fallback_reasons: [AtomicU64; FallbackReason::ALL.len()],
}

/// Non-cumulative bucket slot of a latency (last slot is overflow).
fn bucket_slot(seconds: f64) -> usize {
    BUCKET_BOUNDS
        .iter()
        .position(|&bound| seconds <= bound)
        .unwrap_or(BUCKET_BOUNDS.len())
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one accepted connection on the named reactor (its index).
    /// Pair with [`Metrics::connection_closed`].
    pub fn connection_accepted(&self, acceptor: &str) {
        self.connections.fetch_add(1, Ordering::Relaxed);
        self.open_connections.fetch_add(1, Ordering::Relaxed);
        let mut accepts = self.accepts.lock().expect("metrics map poisoned");
        match accepts.get_mut(acceptor) {
            Some(count) => *count += 1,
            None => {
                accepts.insert(acceptor.to_string(), 1);
            }
        }
    }

    /// Records one closed connection (saturating: an unmatched call leaves
    /// the gauge at zero rather than wrapping).
    pub fn connection_closed(&self) {
        let _ = self
            .open_connections
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |open| {
                open.checked_sub(1)
            });
    }

    /// Connections currently open.
    pub fn open_connections(&self) -> u64 {
        self.open_connections.load(Ordering::Relaxed)
    }

    /// Records one reactor `epoll_wait` park: how long the reactor waited
    /// before events fired.
    pub fn observe_readiness_wait(&self, wait: Duration) {
        self.readiness_buckets[bucket_slot(wait.as_secs_f64())].fetch_add(1, Ordering::Relaxed);
        self.readiness_sum_nanos
            .fetch_add(wait.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Marks one request as in flight on `endpoint`. Pair with
    /// [`Metrics::request_finished`].
    pub fn request_started(&self, endpoint: &'static str) {
        *self
            .in_flight
            .lock()
            .expect("metrics map poisoned")
            .entry(endpoint)
            .or_insert(0) += 1;
    }

    /// Ends one in-flight request on `endpoint` (saturating: an unmatched
    /// call leaves the gauge at zero rather than wrapping).
    pub fn request_finished(&self, endpoint: &'static str) {
        let mut map = self.in_flight.lock().expect("metrics map poisoned");
        let slot = map.entry(endpoint).or_insert(0);
        *slot = slot.saturating_sub(1);
    }

    /// Records one served request: the (static) endpoint label, the response
    /// status and the handling latency.
    pub fn observe(&self, endpoint: &'static str, status: u16, latency: Duration) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.buckets[bucket_slot(latency.as_secs_f64())].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_nanos
            .fetch_add(latency.as_nanos() as u64, Ordering::Relaxed);
        *self
            .by_route
            .lock()
            .expect("metrics map poisoned")
            .entry((endpoint, status))
            .or_insert(0) += 1;
    }

    /// Records one **cold** optimiser evaluation: an `/v1/optimize` query
    /// that missed the cache (or ran uncached) and therefore paid for a
    /// numerical search.
    pub fn observe_cold(&self, latency: Duration) {
        self.cold_buckets[bucket_slot(latency.as_secs_f64())].fetch_add(1, Ordering::Relaxed);
        self.cold_sum_nanos
            .fetch_add(latency.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records one **warm** optimiser evaluation: an `/v1/optimize` query
    /// answered from the evaluation cache.
    pub fn observe_warm(&self, latency: Duration) {
        self.warm_buckets[bucket_slot(latency.as_secs_f64())].fetch_add(1, Ordering::Relaxed);
        self.warm_sum_nanos
            .fetch_add(latency.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Accumulates one batch of scalar-search tallies: fast/fallback counts,
    /// Brent iterations, and the per-reason fallback breakdown.
    pub fn observe_search(&self, report: SearchReport) {
        if report.fast > 0 {
            self.search_fast.fetch_add(report.fast, Ordering::Relaxed);
        }
        if report.fallback > 0 {
            self.search_fallback
                .fetch_add(report.fallback, Ordering::Relaxed);
        }
        if report.brent_iterations > 0 {
            self.search_brent_iterations
                .fetch_add(report.brent_iterations, Ordering::Relaxed);
        }
        for reason in FallbackReason::ALL {
            let count = report.fallback_count(reason);
            if count > 0 {
                self.search_fallback_reasons[reason.index()].fetch_add(count, Ordering::Relaxed);
            }
        }
    }

    /// Total requests observed so far.
    pub fn request_count(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Renders every metric in the Prometheus text exposition format,
    /// including the shared evaluation-cache counters, the point-in-time
    /// `gauges` snapshot and — on a coordinator — the cluster families.
    pub fn render_prometheus(
        &self,
        cache: &CacheStats,
        gauges: &GaugeSnapshot,
        cluster: Option<&ClusterStats>,
    ) -> String {
        let mut out = String::with_capacity(4096);

        out.push_str("# HELP ayd_requests_total Requests served, by endpoint and status.\n");
        out.push_str("# TYPE ayd_requests_total counter\n");
        for ((endpoint, status), count) in
            self.by_route.lock().expect("metrics map poisoned").iter()
        {
            out.push_str(&format!(
                "ayd_requests_total{{endpoint=\"{endpoint}\",status=\"{status}\"}} {count}\n"
            ));
        }

        out.push_str("# HELP ayd_connections_total Connections accepted.\n");
        out.push_str("# TYPE ayd_connections_total counter\n");
        out.push_str(&format!(
            "ayd_connections_total {}\n",
            self.connections.load(Ordering::Relaxed)
        ));

        out.push_str("# HELP ayd_open_connections Connections currently open.\n");
        out.push_str("# TYPE ayd_open_connections gauge\n");
        out.push_str(&format!(
            "ayd_open_connections {}\n",
            self.open_connections.load(Ordering::Relaxed)
        ));

        out.push_str("# HELP ayd_accepts_total Connections accepted, by reactor index.\n");
        out.push_str("# TYPE ayd_accepts_total counter\n");
        for (acceptor, count) in self.accepts.lock().expect("metrics map poisoned").iter() {
            out.push_str(&format!(
                "ayd_accepts_total{{reactor=\"{acceptor}\"}} {count}\n"
            ));
        }

        out.push_str("# HELP ayd_in_flight_requests Requests currently being handled.\n");
        out.push_str("# TYPE ayd_in_flight_requests gauge\n");
        for (endpoint, count) in self.in_flight.lock().expect("metrics map poisoned").iter() {
            out.push_str(&format!(
                "ayd_in_flight_requests{{endpoint=\"{endpoint}\"}} {count}\n"
            ));
        }

        render_histogram(
            &mut out,
            "ayd_request_duration_seconds",
            "Request handling latency.",
            &self.buckets,
            self.latency_sum_nanos.load(Ordering::Relaxed),
        );
        render_histogram(
            &mut out,
            "ayd_optimize_warm_seconds",
            "Warm (cache-hit) optimiser evaluation latency of /v1/optimize.",
            &self.warm_buckets,
            self.warm_sum_nanos.load(Ordering::Relaxed),
        );
        render_histogram(
            &mut out,
            "ayd_optimize_cold_seconds",
            "Cold (cache-miss) optimiser evaluation latency of /v1/optimize.",
            &self.cold_buckets,
            self.cold_sum_nanos.load(Ordering::Relaxed),
        );
        render_histogram(
            &mut out,
            "ayd_readiness_wait_seconds",
            "Time a reactor spent parked in epoll_wait before readiness fired.",
            &self.readiness_buckets,
            self.readiness_sum_nanos.load(Ordering::Relaxed),
        );

        out.push_str("# HELP ayd_search_fast_total Scalar searches answered by the warm-started fast path.\n");
        out.push_str("# TYPE ayd_search_fast_total counter\n");
        out.push_str(&format!(
            "ayd_search_fast_total {}\n",
            self.search_fast.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP ayd_search_fallback_total Scalar searches demoted to the reference search.\n",
        );
        out.push_str("# TYPE ayd_search_fallback_total counter\n");
        out.push_str(&format!(
            "ayd_search_fallback_total {}\n",
            self.search_fallback.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP ayd_search_brent_iterations_total Brent iterations across fast-path searches.\n",
        );
        out.push_str("# TYPE ayd_search_brent_iterations_total counter\n");
        out.push_str(&format!(
            "ayd_search_brent_iterations_total {}\n",
            self.search_brent_iterations.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP ayd_search_fallback_reason_total Fallbacks to the reference search, by reason.\n",
        );
        out.push_str("# TYPE ayd_search_fallback_reason_total counter\n");
        for reason in FallbackReason::ALL {
            out.push_str(&format!(
                "ayd_search_fallback_reason_total{{reason=\"{}\"}} {}\n",
                reason.as_str(),
                self.search_fallback_reasons[reason.index()].load(Ordering::Relaxed)
            ));
        }

        out.push_str("# HELP ayd_cache_hits_total Evaluation-cache hits.\n");
        out.push_str("# TYPE ayd_cache_hits_total counter\n");
        out.push_str(&format!("ayd_cache_hits_total {}\n", cache.hits));
        out.push_str("# HELP ayd_cache_misses_total Evaluation-cache misses.\n");
        out.push_str("# TYPE ayd_cache_misses_total counter\n");
        out.push_str(&format!("ayd_cache_misses_total {}\n", cache.misses));
        out.push_str("# HELP ayd_cache_evictions_total Evaluation-cache evictions.\n");
        out.push_str("# TYPE ayd_cache_evictions_total counter\n");
        out.push_str(&format!("ayd_cache_evictions_total {}\n", cache.evictions));
        out.push_str("# HELP ayd_cache_hit_rate Fraction of lookups answered from the cache.\n");
        out.push_str("# TYPE ayd_cache_hit_rate gauge\n");
        out.push_str(&format!("ayd_cache_hit_rate {}\n", cache.hit_rate()));

        out.push_str("# HELP ayd_sweep_jobs Async sweep jobs by state.\n");
        out.push_str("# TYPE ayd_sweep_jobs gauge\n");
        for (state, count) in [
            ("queued", gauges.jobs_queued),
            ("running", gauges.jobs_running),
            ("done", gauges.jobs_done),
            ("cancelled", gauges.jobs_cancelled),
        ] {
            out.push_str(&format!("ayd_sweep_jobs{{state=\"{state}\"}} {count}\n"));
        }

        if let Some(cluster) = cluster {
            out.push_str("# HELP ayd_workers Registered worker nodes by liveness.\n");
            out.push_str("# TYPE ayd_workers gauge\n");
            for (state, count) in [
                ("alive", cluster.workers_alive),
                ("suspect", cluster.workers_suspect),
                ("dead", cluster.workers_dead),
            ] {
                out.push_str(&format!("ayd_workers{{state=\"{state}\"}} {count}\n"));
            }
            out.push_str("# HELP ayd_shards_dispatched_total Shard dispatches sent to workers.\n");
            out.push_str("# TYPE ayd_shards_dispatched_total counter\n");
            out.push_str(&format!(
                "ayd_shards_dispatched_total {}\n",
                cluster.shards_dispatched_total
            ));
            out.push_str(
                "# HELP ayd_shard_reissues_total Shards re-issued after a worker lease expired.\n",
            );
            out.push_str("# TYPE ayd_shard_reissues_total counter\n");
            out.push_str(&format!(
                "ayd_shard_reissues_total {}\n",
                cluster.shard_reissues_total
            ));
            out.push_str("# HELP ayd_lease_expiries_total Worker leases that expired.\n");
            out.push_str("# TYPE ayd_lease_expiries_total counter\n");
            out.push_str(&format!(
                "ayd_lease_expiries_total {}\n",
                cluster.lease_expiries_total
            ));
        }
        out
    }
}

/// Appends one histogram in the Prometheus text format: `# HELP`/`# TYPE`,
/// cumulative buckets over [`BUCKET_BOUNDS`], a `+Inf` bucket, `_sum` (the
/// nanosecond tally rendered in seconds) and `_count`.
fn render_histogram(
    out: &mut String,
    name: &str,
    help: &str,
    buckets: &[AtomicU64; BUCKET_BOUNDS.len() + 1],
    sum_nanos: u64,
) {
    out.push_str(&format!("# HELP {name} {help}\n"));
    out.push_str(&format!("# TYPE {name} histogram\n"));
    let mut cumulative = 0u64;
    for (i, bound) in BUCKET_BOUNDS.iter().enumerate() {
        cumulative += buckets[i].load(Ordering::Relaxed);
        out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
    }
    cumulative += buckets[BUCKET_BOUNDS.len()].load(Ordering::Relaxed);
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
    out.push_str(&format!("{name}_sum {}\n", sum_nanos as f64 / 1e9));
    out.push_str(&format!("{name}_count {cumulative}\n"));
}

/// One parsed sample line: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The full sample name (histogram samples keep their `_bucket`/`_sum`/
    /// `_count` suffix).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A typed model of one Prometheus text payload: declared family types plus
/// every sample, in source order. Shared by [`validate_prometheus`], the
/// smoke check and the load generator.
#[derive(Debug, Default)]
pub struct PrometheusText {
    /// `# TYPE` declarations: family name → kind (`counter`/`gauge`/…).
    pub types: BTreeMap<String, String>,
    /// Every sample line, in source order.
    pub samples: Vec<Sample>,
}

impl PrometheusText {
    /// Parses a text payload. Rejects structurally broken lines (missing or
    /// unparsable values, unbalanced label braces); semantic checks live in
    /// [`validate_prometheus`].
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut model = PrometheusText::default();
        for line in text.lines() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            if let Some(comment) = line.strip_prefix('#') {
                let mut words = comment.split_whitespace();
                if words.next() == Some("TYPE") {
                    let name = words.next().ok_or("TYPE line without a family name")?;
                    let kind = words.next().ok_or("TYPE line without a kind")?;
                    model.types.insert(name.to_string(), kind.to_string());
                }
                continue;
            }
            let (name_part, value_part) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("sample without value: {line:?}"))?;
            let value: f64 = value_part
                .parse()
                .map_err(|_| format!("unparsable value in: {line:?}"))?;
            let (name, labels) = match name_part.split_once('{') {
                None => (name_part.to_string(), Vec::new()),
                Some((name, rest)) => {
                    let body = rest
                        .strip_suffix('}')
                        .ok_or_else(|| format!("malformed labels in: {line:?}"))?;
                    (name.to_string(), parse_labels(body, line)?)
                }
            };
            model.samples.push(Sample {
                name,
                labels,
                value,
            });
        }
        Ok(model)
    }

    /// The value of the unlabelled sample named exactly `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .map(|s| s.value)
    }

    /// Sums every sample named `name` whose labels include `key == value`
    /// (e.g. all statuses of one endpoint's request counter).
    pub fn sum_labeled(&self, name: &str, key: &str, value: &str) -> f64 {
        self.samples
            .iter()
            .filter(|s| s.name == name && s.label(key) == Some(value))
            .map(|s| s.value)
            .sum()
    }

    /// The family a sample belongs to: its name, with the histogram suffix
    /// (`_bucket`/`_sum`/`_count`) stripped when the prefix has a declared
    /// `histogram` type.
    pub fn family_of<'a>(&self, sample_name: &'a str) -> &'a str {
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(prefix) = sample_name.strip_suffix(suffix) {
                if self.types.get(prefix).map(String::as_str) == Some("histogram") {
                    return prefix;
                }
            }
        }
        sample_name
    }
}

fn parse_labels(body: &str, line: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    for pair in body.split(',') {
        let (key, quoted) = pair
            .split_once('=')
            .ok_or_else(|| format!("malformed labels in: {line:?}"))?;
        let value = quoted
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| format!("unquoted label value in: {line:?}"))?;
        labels.push((key.to_string(), value.replace("\\\"", "\"")));
    }
    Ok(labels)
}

/// Validates one Prometheus text payload via the typed model:
///
/// - every line parses as a comment or a `name{labels} value` sample;
/// - **every family with samples has a `# TYPE` declaration** (so a counter
///   can never silently ship untyped);
/// - every histogram's `+Inf` bucket matches that same histogram's `_count`
///   (each `<name>_bucket{le="+Inf"}` is paired with its own `<name>_count`,
///   so one well-formed histogram can't mask another broken one);
/// - every sample value is finite, and every `counter`- or `histogram`-typed
///   sample is non-negative (a wrapped gauge decrement or a `NaN` division
///   must fail the scrape, not ship).
///
/// Used by the smoke check and the CI gate (`loadgen --check`).
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    let model = PrometheusText::parse(text)?;
    if model.samples.is_empty() {
        return Err("no samples in metrics payload".to_string());
    }
    let mut inf_buckets: BTreeMap<String, f64> = BTreeMap::new();
    let mut counts: BTreeMap<String, f64> = BTreeMap::new();
    for sample in &model.samples {
        let family = model.family_of(&sample.name);
        if !model.types.contains_key(family) {
            return Err(format!("family {family} has samples but no # TYPE line"));
        }
        if !sample.value.is_finite() {
            return Err(format!("sample {} has a non-finite value", sample.name));
        }
        if matches!(
            model.types.get(family).map(String::as_str),
            Some("counter") | Some("histogram")
        ) && sample.value < 0.0
        {
            return Err(format!("monotone sample {} is negative", sample.name));
        }
        if model.types.get(family).map(String::as_str) == Some("histogram") {
            if sample.name.ends_with("_bucket") && sample.label("le") == Some("+Inf") {
                inf_buckets.insert(family.to_string(), sample.value);
            }
            if sample.name.ends_with("_count") {
                counts.insert(family.to_string(), sample.value);
            }
        }
    }
    if inf_buckets.is_empty() {
        return Err("histogram series missing".to_string());
    }
    for (histogram, inf) in &inf_buckets {
        match counts.get(histogram) {
            Some(count) if count == inf => {}
            Some(_) => {
                return Err(format!(
                    "+Inf bucket of {histogram} does not equal its count"
                ))
            }
            None => return Err(format!("{histogram} has buckets but no _count")),
        }
    }
    for histogram in counts.keys() {
        if !inf_buckets.contains_key(histogram) {
            return Err(format!("{histogram} has a _count but no +Inf bucket"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_gauges_track_accepts_and_closes() {
        let metrics = Metrics::new();
        metrics.connection_accepted("0");
        metrics.connection_accepted("0");
        metrics.connection_accepted("1");
        assert_eq!(metrics.open_connections(), 3);
        metrics.connection_closed();
        assert_eq!(metrics.open_connections(), 2);
        metrics.observe_readiness_wait(Duration::from_micros(30));
        metrics.observe_readiness_wait(Duration::from_millis(100));
        // One observe so the payload has request samples for the validator.
        metrics.observe("healthz", 200, Duration::from_micros(5));
        let text =
            metrics.render_prometheus(&CacheStats::default(), &GaugeSnapshot::default(), None);
        validate_prometheus(&text).unwrap();
        assert!(text.contains("ayd_open_connections 2\n"));
        assert!(text.contains("ayd_connections_total 3\n"));
        assert!(text.contains("ayd_accepts_total{reactor=\"0\"} 2\n"));
        assert!(text.contains("ayd_accepts_total{reactor=\"1\"} 1\n"));
        assert!(text.contains("ayd_readiness_wait_seconds_bucket{le=\"0.0001\"} 1\n"));
        assert!(text.contains("ayd_readiness_wait_seconds_bucket{le=\"0.1\"} 2\n"));
        assert!(text.contains("ayd_readiness_wait_seconds_count 2\n"));
        // The close gauge saturates at zero instead of wrapping.
        for _ in 0..10 {
            metrics.connection_closed();
        }
        assert_eq!(metrics.open_connections(), 0);
    }

    #[test]
    fn validator_rejects_non_finite_and_negative_monotone_samples() {
        let nan = "# TYPE ayd_cache_hit_rate gauge\nayd_cache_hit_rate NaN\n\
                   # TYPE ayd_request_duration_seconds histogram\n\
                   ayd_request_duration_seconds_bucket{le=\"+Inf\"} 1\n\
                   ayd_request_duration_seconds_count 1\n";
        let err = validate_prometheus(nan).unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
        let negative = "# TYPE ayd_accepts_total counter\n\
                        ayd_accepts_total{reactor=\"0\"} -1\n\
                        # TYPE ayd_request_duration_seconds histogram\n\
                        ayd_request_duration_seconds_bucket{le=\"+Inf\"} 1\n\
                        ayd_request_duration_seconds_count 1\n";
        let err = validate_prometheus(negative).unwrap_err();
        assert!(err.contains("negative"), "{err}");
        // A negative gauge is legitimate and passes.
        let gauge = "# TYPE ayd_drift gauge\nayd_drift -2\n\
                     # TYPE ayd_request_duration_seconds histogram\n\
                     ayd_request_duration_seconds_bucket{le=\"+Inf\"} 1\n\
                     ayd_request_duration_seconds_count 1\n";
        validate_prometheus(gauge).unwrap();
    }

    #[test]
    fn observations_land_in_buckets_and_render_cumulatively() {
        let metrics = Metrics::new();
        metrics.connection_accepted("0");
        metrics.observe("optimize", 200, Duration::from_micros(50));
        metrics.observe("optimize", 200, Duration::from_micros(300));
        metrics.observe("optimize", 400, Duration::from_millis(40));
        metrics.observe("metrics", 200, Duration::from_secs(1));
        assert_eq!(metrics.request_count(), 4);
        metrics.observe_cold(Duration::from_micros(80));
        metrics.observe_cold(Duration::from_micros(700));
        metrics.observe_warm(Duration::from_micros(20));
        metrics.observe_search(SearchReport {
            fast: 5,
            fallback: 2,
            brent_iterations: 40,
            fallback_reasons: [0, 2, 0, 0, 0],
        });
        metrics.observe_search(SearchReport {
            fast: 1,
            fallback: 0,
            brent_iterations: 7,
            ..SearchReport::default()
        });
        metrics.request_started("optimize");
        metrics.request_started("optimize");
        metrics.request_finished("optimize");

        let text = metrics.render_prometheus(
            &CacheStats {
                hits: 3,
                misses: 1,
                evictions: 0,
            },
            &GaugeSnapshot {
                jobs_running: 1,
                ..GaugeSnapshot::default()
            },
            None,
        );
        assert!(text.contains("ayd_requests_total{endpoint=\"optimize\",status=\"200\"} 2\n"));
        assert!(text.contains("ayd_requests_total{endpoint=\"optimize\",status=\"400\"} 1\n"));
        assert!(text.contains("ayd_connections_total 1\n"));
        // Cumulative buckets: 1 at ≤100µs, 2 at ≤500µs, 3 at ≤50ms, 4 at +Inf.
        assert!(text.contains("ayd_request_duration_seconds_bucket{le=\"0.0001\"} 1\n"));
        assert!(text.contains("ayd_request_duration_seconds_bucket{le=\"0.0005\"} 2\n"));
        assert!(text.contains("ayd_request_duration_seconds_bucket{le=\"0.05\"} 3\n"));
        assert!(text.contains("ayd_request_duration_seconds_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("ayd_request_duration_seconds_count 4\n"));
        // The cold histogram only sees the two cache-miss evaluations; the
        // warm one only the cache hit.
        assert!(text.contains("ayd_optimize_cold_seconds_bucket{le=\"0.0001\"} 1\n"));
        assert!(text.contains("ayd_optimize_cold_seconds_bucket{le=\"0.001\"} 2\n"));
        assert!(text.contains("ayd_optimize_cold_seconds_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("ayd_optimize_cold_seconds_count 2\n"));
        assert!(text.contains("ayd_optimize_warm_seconds_count 1\n"));
        // Search counters accumulate across reports.
        assert!(text.contains("ayd_search_fast_total 6\n"));
        assert!(text.contains("ayd_search_fallback_total 2\n"));
        assert!(text.contains("ayd_search_brent_iterations_total 47\n"));
        assert!(text.contains("ayd_search_fallback_reason_total{reason=\"non-finite-value\"} 2\n"));
        assert!(text.contains("ayd_search_fallback_reason_total{reason=\"missing-seed\"} 0\n"));
        assert!(text.contains("ayd_cache_hit_rate 0.75\n"));
        // Gauges: in-flight requests and job states, and no pool families.
        assert!(text.contains("ayd_in_flight_requests{endpoint=\"optimize\"} 1\n"));
        assert!(!text.contains("pool="));
        assert!(text.contains("ayd_sweep_jobs{state=\"running\"} 1\n"));
        assert!(text.contains("ayd_sweep_jobs{state=\"cancelled\"} 0\n"));
        validate_prometheus(&text).unwrap();
    }

    #[test]
    fn cluster_families_render_only_on_a_coordinator() {
        let metrics = Metrics::new();
        metrics.observe("healthz", 200, Duration::from_micros(5));
        let standalone =
            metrics.render_prometheus(&CacheStats::default(), &GaugeSnapshot::default(), None);
        assert!(!standalone.contains("ayd_workers"));
        assert!(!standalone.contains("ayd_shards_dispatched_total"));
        let cluster = ClusterStats {
            workers_alive: 2,
            workers_suspect: 1,
            workers_dead: 3,
            shards_dispatched_total: 9,
            shard_reissues_total: 4,
            lease_expiries_total: 5,
        };
        let text = metrics.render_prometheus(
            &CacheStats::default(),
            &GaugeSnapshot::default(),
            Some(&cluster),
        );
        validate_prometheus(&text).unwrap();
        assert!(text.contains("ayd_workers{state=\"alive\"} 2\n"));
        assert!(text.contains("ayd_workers{state=\"suspect\"} 1\n"));
        assert!(text.contains("ayd_workers{state=\"dead\"} 3\n"));
        assert!(text.contains("ayd_shards_dispatched_total 9\n"));
        assert!(text.contains("ayd_shard_reissues_total 4\n"));
        assert!(text.contains("ayd_lease_expiries_total 5\n"));
    }

    #[test]
    fn in_flight_gauge_saturates_at_zero() {
        let metrics = Metrics::new();
        metrics.request_finished("optimize");
        metrics.request_started("optimize");
        metrics.request_finished("optimize");
        let text =
            metrics.render_prometheus(&CacheStats::default(), &GaugeSnapshot::default(), None);
        assert!(text.contains("ayd_in_flight_requests{endpoint=\"optimize\"} 0\n"));
    }

    #[test]
    fn typed_model_parses_names_labels_and_values() {
        let text = "# HELP ayd_requests_total Requests.\n\
                    # TYPE ayd_requests_total counter\n\
                    ayd_requests_total{endpoint=\"optimize\",status=\"200\"} 7\n\
                    ayd_requests_total{endpoint=\"optimize\",status=\"400\"} 2\n\
                    ayd_requests_total{endpoint=\"metrics\",status=\"200\"} 1\n\
                    # TYPE ayd_optimize_cold_seconds histogram\n\
                    ayd_optimize_cold_seconds_bucket{le=\"+Inf\"} 3\n\
                    ayd_optimize_cold_seconds_sum 0.25\n\
                    ayd_optimize_cold_seconds_count 3\n";
        let model = PrometheusText::parse(text).unwrap();
        assert_eq!(model.types.get("ayd_requests_total").unwrap(), "counter");
        assert_eq!(model.value("ayd_optimize_cold_seconds_count"), Some(3.0));
        assert_eq!(model.value("ayd_optimize_cold_seconds_sum"), Some(0.25));
        assert_eq!(
            model.sum_labeled("ayd_requests_total", "endpoint", "optimize"),
            9.0
        );
        assert_eq!(
            model.family_of("ayd_optimize_cold_seconds_bucket"),
            "ayd_optimize_cold_seconds"
        );
        // A _count suffix with no histogram TYPE is its own family.
        assert_eq!(model.family_of("ayd_requests_total"), "ayd_requests_total");
        let inf = model
            .samples
            .iter()
            .find(|s| s.name == "ayd_optimize_cold_seconds_bucket")
            .unwrap();
        assert_eq!(inf.label("le"), Some("+Inf"));
    }

    #[test]
    fn validator_rejects_malformed_payloads() {
        assert!(validate_prometheus("").is_err());
        assert!(validate_prometheus("just words\n").is_err());
        assert!(validate_prometheus("metric_without_value\n").is_err());
        let truncated = "# TYPE ayd_request_duration_seconds histogram\n\
                         ayd_request_duration_seconds_bucket{le=\"+Inf\"} 4\n\
                         ayd_request_duration_seconds_count 5\n";
        assert!(validate_prometheus(truncated).is_err());
    }

    #[test]
    fn validator_requires_a_type_line_per_family() {
        // An untyped counter next to a well-formed histogram must fail.
        let untyped = "ayd_search_fast_total 6\n\
                       # TYPE ayd_request_duration_seconds histogram\n\
                       ayd_request_duration_seconds_bucket{le=\"+Inf\"} 4\n\
                       ayd_request_duration_seconds_count 4\n";
        let err = validate_prometheus(untyped).unwrap_err();
        assert!(err.contains("ayd_search_fast_total"), "{err}");
        assert!(err.contains("no # TYPE"), "{err}");

        let typed = "# TYPE ayd_search_fast_total counter\n\
                     ayd_search_fast_total 6\n\
                     # TYPE ayd_request_duration_seconds histogram\n\
                     ayd_request_duration_seconds_bucket{le=\"+Inf\"} 4\n\
                     ayd_request_duration_seconds_count 4\n";
        validate_prometheus(typed).unwrap();
    }

    #[test]
    fn validator_pairs_every_histogram_with_its_own_count() {
        // A consistent histogram must not mask a broken second one: each
        // +Inf bucket is checked against its *own* _count.
        let types = "# TYPE ayd_request_duration_seconds histogram\n\
                     # TYPE ayd_optimize_cold_seconds histogram\n";
        let one_good_one_broken = format!(
            "{types}ayd_request_duration_seconds_bucket{{le=\"+Inf\"}} 4\n\
             ayd_request_duration_seconds_count 4\n\
             ayd_optimize_cold_seconds_bucket{{le=\"+Inf\"}} 2\n\
             ayd_optimize_cold_seconds_count 3\n"
        );
        let err = validate_prometheus(&one_good_one_broken).unwrap_err();
        assert!(err.contains("ayd_optimize_cold_seconds"), "{err}");

        let missing_count = format!(
            "{types}ayd_request_duration_seconds_bucket{{le=\"+Inf\"}} 4\n\
             ayd_request_duration_seconds_count 4\n\
             ayd_optimize_cold_seconds_bucket{{le=\"+Inf\"}} 2\n"
        );
        let err = validate_prometheus(&missing_count).unwrap_err();
        assert!(err.contains("no _count"), "{err}");

        let orphan_count = format!(
            "{types}ayd_request_duration_seconds_bucket{{le=\"+Inf\"}} 4\n\
             ayd_request_duration_seconds_count 4\n\
             ayd_optimize_cold_seconds_count 2\n"
        );
        let err = validate_prometheus(&orphan_count).unwrap_err();
        assert!(err.contains("no +Inf bucket"), "{err}");

        let both_good = format!(
            "{types}ayd_request_duration_seconds_bucket{{le=\"+Inf\"}} 4\n\
             ayd_request_duration_seconds_count 4\n\
             ayd_optimize_cold_seconds_bucket{{le=\"+Inf\"}} 2\n\
             ayd_optimize_cold_seconds_count 2\n"
        );
        validate_prometheus(&both_good).unwrap();
    }

    /// Satellite: 8 threads hammer one registry concurrently; afterwards the
    /// counter totals and every histogram's `_count`/`_sum` must be exactly
    /// consistent with what was observed (no lost updates, no torn renders).
    #[test]
    fn concurrent_observations_stay_consistent() {
        use std::sync::Arc;
        const THREADS: usize = 8;
        const PER_THREAD: usize = 500;
        let metrics = Arc::new(Metrics::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let metrics = Arc::clone(&metrics);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        let endpoint = if (t + i) % 2 == 0 {
                            "optimize"
                        } else {
                            "batch"
                        };
                        let status = if i % 7 == 0 { 400 } else { 200 };
                        metrics.request_started(endpoint);
                        metrics.observe(endpoint, status, Duration::from_micros(i as u64));
                        metrics.observe_cold(Duration::from_micros((i * 3) as u64));
                        metrics.observe_warm(Duration::from_micros(2));
                        metrics.observe_search(SearchReport {
                            fast: 1,
                            fallback: (i % 3 == 0) as u64,
                            brent_iterations: 5,
                            fallback_reasons: [(i % 3 == 0) as u64, 0, 0, 0, 0],
                        });
                        metrics.request_finished(endpoint);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let total = (THREADS * PER_THREAD) as f64;
        let text =
            metrics.render_prometheus(&CacheStats::default(), &GaugeSnapshot::default(), None);
        validate_prometheus(&text).unwrap();
        let model = PrometheusText::parse(&text).unwrap();
        // Counter totals: the by-route breakdown sums to the request count.
        let optimize = model.sum_labeled("ayd_requests_total", "endpoint", "optimize");
        let batch = model.sum_labeled("ayd_requests_total", "endpoint", "batch");
        assert_eq!(optimize + batch, total);
        assert_eq!(metrics.request_count() as f64, total);
        // Histogram consistency: _count matches the observation count and
        // _sum matches the exact latency tally (integer nanoseconds).
        assert_eq!(
            model.value("ayd_request_duration_seconds_count"),
            Some(total)
        );
        assert_eq!(model.value("ayd_optimize_cold_seconds_count"), Some(total));
        assert_eq!(model.value("ayd_optimize_warm_seconds_count"), Some(total));
        let per_thread_nanos: u64 = (0..PER_THREAD as u64).map(|i| i * 1_000).sum();
        let expected_sum = (THREADS as u64 * per_thread_nanos) as f64 / 1e9;
        assert!(
            (model.value("ayd_request_duration_seconds_sum").unwrap() - expected_sum).abs() < 1e-12,
            "request _sum drifted"
        );
        assert_eq!(
            model.value("ayd_optimize_warm_seconds_sum"),
            Some(total * 2_000.0 / 1e9)
        );
        // Search tallies: one fast per iteration, every third a fallback.
        assert_eq!(model.value("ayd_search_fast_total"), Some(total));
        let fallbacks = (0..PER_THREAD).filter(|i| i % 3 == 0).count() * THREADS;
        assert_eq!(
            model.value("ayd_search_fallback_total"),
            Some(fallbacks as f64)
        );
        assert_eq!(
            model.sum_labeled("ayd_search_fallback_reason_total", "reason", "missing-seed"),
            fallbacks as f64
        );
        assert_eq!(
            model.value("ayd_search_brent_iterations_total"),
            Some(total * 5.0)
        );
        // All in-flight gauges drained back to zero.
        assert_eq!(
            model.sum_labeled("ayd_in_flight_requests", "endpoint", "optimize"),
            0.0
        );
        assert_eq!(
            model.sum_labeled("ayd_in_flight_requests", "endpoint", "batch"),
            0.0
        );
    }
}
