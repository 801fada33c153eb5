//! The closed-loop clients that drive a live system: `/v1/optimize` queries
//! over keep-alive connections, and sweep jobs submitted, polled, fetched and
//! checked one after another.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use ayd_serve::Json;

use crate::gen::{mix, SWEEP_CELLS};
use crate::http::{self, Conn};
use crate::trace::Tracer;

/// Client connections (and threads) of the query workloads.
pub const CONNECTIONS: usize = 2;

/// Outcome of one timed query phase.
#[derive(Default)]
pub struct QueryPhase {
    /// Client-observed latency of every successful request.
    pub latencies_ns: Vec<u64>,
    pub ok: u64,
    pub failed: u64,
    pub wall: Duration,
    /// Seeded sample of answers kept for the correctness check: (query
    /// index, body).
    pub samples: Vec<(usize, Vec<u8>)>,
    pub tracer: Option<Tracer>,
}

fn absorb_tracer(into: &mut Option<Tracer>, other: Option<Tracer>) {
    match (into.as_mut(), other) {
        (Some(tracer), Some(other)) => tracer.absorb(other),
        (None, other) => *into = other,
        (Some(_), None) => {}
    }
}

impl QueryPhase {
    /// Adds another slice of the same phase.
    pub fn absorb(&mut self, other: QueryPhase) {
        self.latencies_ns.extend(other.latencies_ns);
        self.ok += other.ok;
        self.failed += other.failed;
        self.wall += other.wall;
        self.samples.extend(other.samples);
        absorb_tracer(&mut self.tracer, other.tracer);
    }
}

/// Per-acceptor accept counts (`ayd_accepts_total{reactor=...}`), scraped
/// over `conn` itself.
fn accepts(conn: &mut Conn) -> Option<Vec<(String, f64)>> {
    let response = conn.get("/metrics", None).ok()?;
    let counts: Vec<(String, f64)> = response
        .text()
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("ayd_accepts_total{reactor=\"")?;
            let (label, value) = rest.split_once("\"} ")?;
            Some((label.to_string(), value.trim().parse().ok()?))
        })
        .collect();
    (!counts.is_empty()).then_some(counts)
}

/// Opens `n` keep-alive connections, each on a different accepting reactor
/// where the server has several. The kernel shards accepts across reactors
/// by a hash of the client port, so unplaced connections share one reactor
/// in some runs and not in others, and throughput swings with it; the
/// accept counters in `/metrics` show where each connection landed. Returns
/// the connections and the acceptor label of each.
pub fn connect_spread(addr: &str, n: usize) -> Result<(Vec<Conn>, Vec<String>), String> {
    let connect = || Conn::connect(addr).map_err(|e| format!("connect: {e}"));
    let mut probe = connect()?;
    let mut last = accepts(&mut probe);
    drop(probe);
    let reactors = last.as_ref().map_or(1, |c| c.len());
    let (mut conns, mut labels) = (Vec::new(), Vec::new());
    let mut attempts = 0;
    while conns.len() < n {
        attempts += 1;
        let mut conn = connect()?;
        let now = accepts(&mut conn);
        let label = match (&last, &now) {
            (Some(before), Some(after)) => after
                .iter()
                .find(|(label, count)| {
                    before
                        .iter()
                        .find(|(l, _)| l == label)
                        .is_none_or(|(_, c)| c < count)
                })
                .map(|(label, _)| label.clone()),
            _ => None,
        };
        last = now;
        let label = label.unwrap_or_else(|| "unknown".into());
        let fresh = !labels.contains(&label) || labels.len() >= reactors || attempts > 64;
        if fresh {
            conns.push(conn);
            labels.push(label);
        }
    }
    Ok((conns, labels))
}

/// Requests one connection carries before the client replaces it; the
/// server closes a keep-alive connection after 100,000 requests.
const ROUND_PER_CONNECTION: usize = 50_000;

/// Sends the requests numbered `range` over [`CONNECTIONS`] closed-loop
/// connections.
/// Request `g` (global number) carries query `g % requests.len()`; answers
/// whose `mix(salt ^ g)` falls in a `1/sample_every` slice are kept for the
/// check, which runs after the phase. The phase runs in rounds of at most
/// [`ROUND_PER_CONNECTION`] requests per connection, each on freshly placed
/// connections; the wall time sums the rounds.
pub fn run_queries(
    addr: &str,
    requests: &Arc<Vec<Vec<u8>>>,
    range: Range<usize>,
    sample_every: u64,
    salt: u64,
    trace: Option<Instant>,
) -> Result<(QueryPhase, Vec<String>), String> {
    let mut phase = QueryPhase::default();
    let mut placements = Vec::new();
    let per_round = ROUND_PER_CONNECTION * CONNECTIONS;
    for round in range.clone().step_by(per_round) {
        let end = range.end.min(round + per_round);
        let (conns, placement) = connect_spread(addr, CONNECTIONS)?;
        placements.extend(placement);
        let barrier = Arc::new(Barrier::new(CONNECTIONS));
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(lane, conn)| {
                let requests = Arc::clone(requests);
                let barrier = Arc::clone(&barrier);
                let addr = addr.to_string();
                std::thread::spawn(move || {
                    let mut tracer = trace.map(Tracer::new);
                    let mut conn = Some(conn);
                    let mut latencies = Vec::with_capacity((end - round) / CONNECTIONS + 1);
                    let mut samples = Vec::new();
                    let (mut ok, mut failed) = (0u64, 0u64);
                    barrier.wait();
                    let start = Instant::now();
                    for g in (round + lane..end).step_by(CONNECTIONS) {
                        let query = g % requests.len();
                        let sent = Instant::now();
                        let result = match conn.as_mut() {
                            Some(c) => c.roundtrip(&requests[query]),
                            None => Err(std::io::Error::other("not connected")),
                        };
                        let done = Instant::now();
                        match result {
                            Ok(response) if response.status == 200 => {
                                ok += 1;
                                latencies.push((done - sent).as_nanos() as u64);
                                if let Some(t) = tracer.as_mut() {
                                    t.record("client.request", 0, g as u64, sent, done);
                                }
                                if mix(salt ^ g as u64).is_multiple_of(sample_every) {
                                    samples.push((query, response.body));
                                }
                            }
                            Ok(_) => failed += 1,
                            Err(_) => {
                                failed += 1;
                                conn = Conn::connect(&addr).ok();
                            }
                        }
                    }
                    (
                        start,
                        Instant::now(),
                        latencies,
                        samples,
                        ok,
                        failed,
                        tracer,
                    )
                })
            })
            .collect();
        let (mut first, mut last) = (None::<Instant>, None::<Instant>);
        for handle in handles {
            let (start, end, latencies, samples, ok, failed, tracer) =
                handle.join().expect("client thread panicked");
            first = Some(first.map_or(start, |f| f.min(start)));
            last = Some(last.map_or(end, |l| l.max(end)));
            phase.latencies_ns.extend(latencies);
            phase.samples.extend(samples);
            phase.ok += ok;
            phase.failed += failed;
            absorb_tracer(&mut phase.tracer, tracer);
        }
        if let (Some(first), Some(last)) = (first, last) {
            phase.wall += last - first;
        }
    }
    Ok((phase, placements))
}

/// Interval between job status polls.
const POLL: Duration = Duration::from_millis(5);
/// Interval between cluster-state samples in the traced phase.
const SAMPLE: Duration = Duration::from_millis(5);

/// Outcome of one timed sweep phase.
#[derive(Default)]
pub struct SweepPhase {
    /// Submit → checked CSV in hand, per successful job.
    pub job_ns: Vec<u64>,
    /// The final GET returning each job's CSV.
    pub fetch_ns: Vec<u64>,
    pub ok: u64,
    pub failed: u64,
    /// CSV rows that matched the engine's bytes.
    pub rows: u64,
    pub wall: Duration,
    pub tracer: Option<Tracer>,
    /// Per shard: time from dispatchable (pending while a worker is idle)
    /// to dispatched, in ms (cluster, traced phase only).
    pub dispatch_wait_ms: Vec<f64>,
    /// Per job: the share of worker time spent idle while shards were
    /// pending (cluster, traced phase only).
    pub idle_share: Vec<f64>,
}

impl SweepPhase {
    /// Adds another slice of the same phase.
    pub fn absorb(&mut self, other: SweepPhase) {
        self.job_ns.extend(other.job_ns);
        self.fetch_ns.extend(other.fetch_ns);
        self.ok += other.ok;
        self.failed += other.failed;
        self.rows += other.rows;
        self.wall += other.wall;
        absorb_tracer(&mut self.tracer, other.tracer);
        self.dispatch_wait_ms.extend(other.dispatch_wait_ms);
        self.idle_share.extend(other.idle_share);
    }
}

/// One cluster-state sample: shard statuses (0 pending, 1 dispatched,
/// 2 done) and, per worker, whether it holds no assignment.
struct ClusterSample {
    job: u64,
    at: Instant,
    shards: Vec<u8>,
    idle: Vec<bool>,
}

fn sample_cluster(conn: &mut Conn, job: u64) -> Option<ClusterSample> {
    let at = Instant::now();
    let shards = conn.get(&format!("/v1/sweep/{job}/shards"), None).ok()?;
    let workers = conn.get("/v1/workers", None).ok()?;
    if shards.status != 200 || workers.status != 200 {
        return None;
    }
    let shards = Json::parse(shards.text()).ok()?;
    let workers = Json::parse(workers.text()).ok()?;
    let shards = shards
        .get("progress")?
        .as_array()?
        .iter()
        .map(|s| match s.get("status").and_then(Json::as_str) {
            Some("pending") => 0,
            Some("dispatched") => 1,
            _ => 2,
        })
        .collect();
    let idle = workers
        .get("workers")?
        .as_array()?
        .iter()
        .filter(|w| w.get("state").and_then(Json::as_str) == Some("alive"))
        .map(|w| matches!(w.get("assignment"), None | Some(Json::Null)))
        .collect();
    Some(ClusterSample {
        job,
        at,
        shards,
        idle,
    })
}

/// Dispatch waits and the idle share of one job's samples. A pending shard
/// is dispatchable once an idle worker is free for it: with `k` idle
/// workers, the `k` lowest-numbered pending shards (the coordinator
/// dispatches pending shards in index order).
fn cluster_waits(samples: &[&ClusterSample]) -> (Vec<f64>, Option<f64>) {
    let mut waits = Vec::new();
    let shard_count = samples.first().map_or(0, |s| s.shards.len());
    let dispatchable_in = |s: &ClusterSample, shard: usize| {
        let idle = s.idle.iter().filter(|&&idle| idle).count();
        s.shards[shard] == 0 && s.shards[..shard].iter().filter(|&&st| st == 0).count() < idle
    };
    for shard in 0..shard_count {
        let dispatchable = samples
            .iter()
            .find(|s| s.shards.len() == shard_count && dispatchable_in(s, shard))
            .map(|s| s.at);
        let dispatched = samples
            .iter()
            .find(|s| s.shards.len() == shard_count && s.shards[shard] != 0)
            .map(|s| s.at);
        if let (Some(from), Some(to)) = (dispatchable, dispatched) {
            if to >= from {
                waits.push((to - from).as_secs_f64() * 1e3);
            }
        }
    }
    let (mut idle, mut slots) = (0usize, 0usize);
    for s in samples {
        slots += s.idle.len();
        if s.shards.contains(&0) {
            idle += s.idle.iter().filter(|&&i| i).count();
        }
    }
    (waits, (slots > 0).then(|| idle as f64 / slots as f64))
}

/// Runs `bodies.len()` sweep jobs one after another over one connection;
/// job `j`'s CSV must equal `references[j]` byte for byte.
pub fn run_sweeps(
    addr: &str,
    bodies: &[String],
    references: &[String],
    trace: Option<Instant>,
    sample: bool,
) -> Result<SweepPhase, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut tracer = trace.map(Tracer::new);
    let mut phase = SweepPhase::default();
    let current = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let samples = Arc::new(Mutex::new(Vec::<ClusterSample>::new()));
    let sampler = sample.then(|| {
        let (current, stop, samples) = (current.clone(), stop.clone(), samples.clone());
        let addr = addr.to_string();
        std::thread::spawn(move || {
            let Ok(mut conn) = Conn::connect(&addr) else {
                return;
            };
            while !stop.load(Ordering::SeqCst) {
                let job = current.load(Ordering::SeqCst);
                if job != 0 {
                    if let Some(s) = sample_cluster(&mut conn, job) {
                        samples.lock().expect("samples poisoned").push(s);
                    }
                }
                std::thread::sleep(SAMPLE);
            }
        })
    });
    let start = Instant::now();
    for (j, (body, reference)) in bodies.iter().zip(references).enumerate() {
        let trace_id = j as u64 + 1;
        let job_span = tracer.as_mut().map(Tracer::reserve).unwrap_or(0);
        let t0 = Instant::now();
        let submit = http::request("POST", "/v1/sweep", None, Some(body.as_bytes()));
        let accepted = conn.roundtrip(&submit);
        let t1 = Instant::now();
        if let Some(t) = tracer.as_mut() {
            t.record("client.submit", job_span, trace_id, t0, t1);
        }
        let id = match accepted {
            Ok(r) if r.status == 202 => Json::parse(r.text())
                .ok()
                .and_then(|doc| doc.get("id").and_then(Json::as_f64))
                .map(|id| id as u64),
            _ => None,
        };
        let Some(id) = id else {
            phase.failed += 1;
            conn = Conn::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
            continue;
        };
        current.store(id, Ordering::SeqCst);
        let poll = http::request(
            "GET",
            &format!("/v1/sweep/{id}"),
            Some("application/json"),
            None,
        );
        let done = loop {
            std::thread::sleep(POLL);
            let p0 = Instant::now();
            let status = conn.roundtrip(&poll).ok().and_then(|r| {
                (r.status == 200)
                    .then(|| Json::parse(r.text()).ok())
                    .flatten()
                    .and_then(|doc| doc.get("status").and_then(Json::as_str).map(str::to_string))
            });
            if let Some(t) = tracer.as_mut() {
                t.record("client.poll", job_span, trace_id, p0, Instant::now());
            }
            match status.as_deref() {
                Some("running") => continue,
                Some("done") => break true,
                _ => break false,
            }
        };
        current.store(0, Ordering::SeqCst);
        if !done {
            phase.failed += 1;
            conn = Conn::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
            continue;
        }
        let f0 = Instant::now();
        let csv = conn.get(&format!("/v1/sweep/{id}"), Some("text/csv"));
        let f1 = Instant::now();
        let matches = matches!(&csv, Ok(r) if r.status == 200 && r.body == reference.as_bytes());
        let t2 = Instant::now();
        if let Some(t) = tracer.as_mut() {
            t.record("client.fetch", job_span, trace_id, f0, f1);
            t.record("client.check", job_span, trace_id, f1, t2);
            t.record_reserved(job_span, "client.job", trace_id, t0, t2);
        }
        if matches {
            phase.ok += 1;
            phase.rows += SWEEP_CELLS as u64;
            phase.job_ns.push((t2 - t0).as_nanos() as u64);
            phase.fetch_ns.push((f1 - f0).as_nanos() as u64);
        } else {
            phase.failed += 1;
            if csv.is_err() {
                conn = Conn::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
            }
        }
    }
    phase.wall = start.elapsed();
    stop.store(true, Ordering::SeqCst);
    if let Some(handle) = sampler {
        let _ = handle.join();
    }
    let samples = std::mem::take(&mut *samples.lock().expect("samples poisoned"));
    let mut jobs: Vec<u64> = samples.iter().map(|s| s.job).collect();
    jobs.dedup();
    for job in jobs {
        let of_job: Vec<&ClusterSample> = samples.iter().filter(|s| s.job == job).collect();
        let (waits, idle) = cluster_waits(&of_job);
        phase.dispatch_wait_ms.extend(waits);
        phase.idle_share.extend(idle);
    }
    phase.tracer = tracer;
    Ok(phase)
}
