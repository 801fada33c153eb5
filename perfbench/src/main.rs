//! perfbench: boots the served optimiser (`reproduce serve`), drives one
//! workload from this single client process, checks every answer it keeps
//! against the in-process engine, and prints the end-to-end metrics (or,
//! with `--trace 1`, the per-layer split) as the last line of stdout.
//!
//! ```text
//! perfbench --workload query-warm|query-cold|sweep-local|sweep-cluster
//!           --seed N --seconds S --trace 0|1 --reproduce PATH --out DIR
//!           [--corrupt-reference]
//! perfbench --self-test
//! ```
//!
//! A run is a fixed amount of work: `--seconds` sizes it at a nominal rate
//! per workload, so a faster program finishes sooner instead of doing more
//! work (and memory and cache counts never scale with speed).

mod env;
mod gen;
mod http;
mod layers;
mod live;
mod system;
mod trace;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ayd_serve::{api, Json};
use ayd_sweep::{ScenarioGrid, SweepExecutor, SweepRow};

use gen::Query;
use system::{TempDir, Topology};
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload query-warm|query-cold|sweep-local|sweep-cluster \
--seed N --seconds S --trace 0|1 --reproduce PATH --out DIR [--corrupt-reference]\n       \
perfbench --self-test";

/// Nominal rates that size a run's fixed work from `--seconds`.
const WARM_REQUESTS_PER_S: u64 = 36_000;
const COLD_REQUESTS_PER_S: u64 = 6_500;
const LOCAL_JOBS_PER_S: f64 = 3.0;
const CLUSTER_JOBS_PER_S: f64 = 1.8;
/// Distinct queries `query-warm` cycles through.
const WARM_SET: usize = 256;
/// Launches per run; `setup_s` is their median.
const SETUP_LAUNCHES: usize = 15;
/// Answers per run kept for the bit-for-bit check.
const CHECK_SAMPLE: u64 = 2048;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    QueryWarm,
    QueryCold,
    SweepLocal,
    SweepCluster,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "query-warm" => Workload::QueryWarm,
            "query-cold" => Workload::QueryCold,
            "sweep-local" => Workload::SweepLocal,
            "sweep-cluster" => Workload::SweepCluster,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::QueryWarm => "query-warm",
            Workload::QueryCold => "query-cold",
            Workload::SweepLocal => "sweep-local",
            Workload::SweepCluster => "sweep-cluster",
        }
    }

    /// Systems a run spreads its timed work over, each freshly launched:
    /// where the scheduler puts a server's threads holds for the server's
    /// life and moves query latency by up to ~15 %, so query runs put work
    /// on every launch and a sweep-local run on 5 (3 jobs each at
    /// `--seconds 5`). A cluster keeps one system: its first job waits for
    /// the dispatcher's first tick after launch, later jobs for ticks in
    /// phase with the previous job, and that dominates its job latency.
    fn slices(self) -> usize {
        match self {
            Workload::QueryWarm | Workload::QueryCold => SETUP_LAUNCHES,
            Workload::SweepLocal => 5,
            Workload::SweepCluster => 1,
        }
    }

    fn topology(self) -> Topology {
        if self == Workload::SweepCluster {
            Topology::Cluster
        } else {
            Topology::Standalone
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    reproduce: PathBuf,
    out: PathBuf,
    corrupt: bool,
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    if argv == ["--self-test"] {
        return Ok(None);
    }
    let mut values: HashMap<&str, &str> = HashMap::new();
    let mut corrupt = false;
    let mut iter = argv.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--corrupt-reference" => corrupt = true,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--reproduce" | "--out" => {
                let value = iter.next().ok_or(format!("{flag} needs a value"))?;
                values.insert(flag.as_str(), value.as_str());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let get = |key: &str| values.get(key).copied().ok_or(format!("{key} is required"));
    let workload = Workload::parse(get("--workload")?).ok_or("unknown workload")?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be an integer")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
        reproduce: PathBuf::from(get("--reproduce")?),
        out: PathBuf::from(get("--out")?),
        corrupt,
    }))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => std::process::exit(self_test()),
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.json());
            std::process::exit(if outcome.correct { 0 } else { 1 });
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
    }
}

// ---------------------------------------------------------------- metrics

/// Median (mean of the middle pair for even counts).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `q` in (0, 1].
fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One per-layer metric: unit, what it should move, and where it should not.
struct LayerMetric {
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    flat: &'static str,
}

const fn lm(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    flat: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        moves,
        flat,
    }
}

const SERVE_MOVES: &str =
    "latency_p50_us, throughput_rps @ query-warm (nearly all); query-cold (minority)";
const OPTIM_MOVES: &str =
    "latency_p50_us, latency_p99_us, throughput_rps @ query-cold; cells_per_s @ sweep-* (small)";
const SWEEP_MOVES: &str = "job_p50_ms, cells_per_s @ sweep-local";
const SHARD_MOVES: &str = "job_p50_ms @ sweep-local, sweep-cluster";
const COORD_MOVES: &str = "job_p50_ms, cells_per_s @ sweep-cluster";

/// Every per-layer metric, in report order (the `per_layer` list of
/// BENCHMARK.json).
const LAYER_METRICS: &[LayerMetric] = &[
    lm("serve.request_us", "us", SERVE_MOVES, "sweep-*"),
    lm("serve.parse_us", "us", SERVE_MOVES, "sweep-*"),
    lm("serve.evaluate_us", "us", SERVE_MOVES, "sweep-*"),
    lm("serve.render_us", "us", SERVE_MOVES, "sweep-*"),
    lm(
        "serve.transport_us",
        "us",
        "latency_p50_us @ query-warm",
        "sweep-*",
    ),
    lm(
        "serve.coverage",
        "ratio",
        "share of the client p50 the named stages cover",
        "-",
    ),
    lm(
        "serve.cache_hit_ratio",
        "ratio",
        "checks the workload: ~1 @ query-warm, ~0 @ query-cold",
        "-",
    ),
    lm(
        "serve.cache_evictions",
        "count",
        "latency_p99_us @ query-cold",
        "-",
    ),
    lm(
        "serve.csv_fetch_ms",
        "ms",
        "job_p50_ms @ sweep-*",
        "query-*",
    ),
    lm("optim.eval_us", "us", OPTIM_MOVES, "query-warm"),
    lm("optim.eval_p99_us", "us", OPTIM_MOVES, "query-warm"),
    lm("optim.eval_joint_us", "us", OPTIM_MOVES, "query-warm"),
    lm("optim.eval_fixed_us", "us", OPTIM_MOVES, "query-warm"),
    lm("optim.fast_share", "ratio", OPTIM_MOVES, "query-warm"),
    lm(
        "optim.fallbacks_per_eval",
        "count",
        OPTIM_MOVES,
        "query-warm",
    ),
    lm(
        "optim.brent_iters_per_eval",
        "count",
        OPTIM_MOVES,
        "query-warm",
    ),
    lm(
        "core.overhead_ns",
        "ns",
        "query-cold, through optim.eval_us",
        "query-warm",
    ),
    lm(
        "core.first_order_ns",
        "ns",
        "query-cold, through optim.eval_us",
        "query-warm",
    ),
    lm("sweep.run_ms", "ms", SWEEP_MOVES, "query-*"),
    lm("sweep.run_1t_ms", "ms", SWEEP_MOVES, "query-*"),
    lm("sweep.parallel_efficiency", "ratio", SWEEP_MOVES, "query-*"),
    lm("sweep.cache_hit_ratio", "ratio", SWEEP_MOVES, "query-*"),
    lm("sweep.csv_ms", "ms", SWEEP_MOVES, "query-*"),
    lm("sweep.shard.run_ms", "ms", SHARD_MOVES, "query-*"),
    lm(
        "sweep.shard.cache_hit_ratio",
        "ratio",
        SHARD_MOVES,
        "query-*",
    ),
    lm("sweep.shard.merge_ms", "ms", SHARD_MOVES, "query-*"),
    lm(
        "sweep.shard.chunk_us",
        "us",
        "job_p50_ms @ sweep-cluster",
        "sweep-local",
    ),
    lm(
        "serve.coordinator.dispatch_wait_ms",
        "ms",
        COORD_MOVES,
        "sweep-local",
    ),
    lm(
        "serve.coordinator.worker_idle_share",
        "ratio",
        COORD_MOVES,
        "sweep-local",
    ),
    lm(
        "serve.coordinator.accept_chunk_us",
        "us",
        COORD_MOVES,
        "sweep-local",
    ),
    lm(
        "serve.coordinator.finish_ms",
        "ms",
        COORD_MOVES,
        "sweep-local",
    ),
    lm(
        "serve.coordinator.reissues",
        "count",
        "job_p50_ms @ sweep-cluster (retries; expected 0)",
        "sweep-local",
    ),
    lm(
        "trace.overhead_share",
        "ratio",
        "traced vs untraced client p50 of this workload",
        "-",
    ),
];

/// The end-to-end metrics (the `end_to_end` list of BENCHMARK.json). A
/// workload's "operation" is one `/v1/optimize` request (query-*) or one
/// sweep job from submit to a checked CSV (sweep-*).
const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("cells_per_s", "cells/s"),
    ("job_p50_ms", "ms"),
    ("ok_share", "ratio"),
    ("server_rss_mb", "MiB"),
];

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in print order.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                    number(*value)
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Everything one run measured, before it is cut into the printed metrics.
#[derive(Default)]
struct Measured {
    setup_s: Vec<f64>,
    /// Operation latencies of the untraced phase, in µs.
    latency_us: Vec<f64>,
    ops_ok: u64,
    cells: u64,
    wall_s: f64,
    rss_mib: f64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Per-layer values (traced runs only).
    layers: BTreeMap<&'static str, f64>,
    /// Lines of the split report.
    notes: Vec<String>,
    io_model: String,
    work: String,
    tracer: Option<Tracer>,
}

impl Measured {
    fn e2e(&self) -> Vec<(&'static str, f64, &'static str)> {
        let p50 = percentile(&self.latency_us, 0.5);
        let values = [
            median(&self.setup_s),
            ratio(self.ops_ok as f64, self.wall_s),
            p50,
            percentile(&self.latency_us, 0.99),
            ratio(self.cells as f64, self.wall_s),
            p50 / 1e3,
            ratio((self.attempted - self.failed) as f64, self.attempted as f64),
            self.rss_mib,
        ];
        E2E_METRICS
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect()
    }
}

// ---------------------------------------------------------------- run

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("create {}: {e}", args.out.display()))?;
    let tmp = TempDir::new(&args.out)?;
    let mut m = match args.workload {
        Workload::QueryWarm | Workload::QueryCold => query_workload(args, &tmp.0)?,
        Workload::SweepLocal | Workload::SweepCluster => sweep_workload(args, &tmp.0)?,
    };
    let topology = args.workload.topology();
    let processes = if topology == Topology::Cluster { 3 } else { 1 };
    let root = Path::new(".");
    let env = env::block(root, &m.io_model, system::threads(topology), processes);
    let correct = m.failed == 0 && m.problems.is_empty();
    let metrics = if args.trace {
        LAYER_METRICS
            .iter()
            .map(|lm| {
                (
                    lm.name,
                    m.layers.get(lm.name).copied().unwrap_or(0.0),
                    lm.unit,
                )
            })
            .collect()
    } else {
        m.e2e()
    };

    // Human-readable report on stderr; the result line goes to stdout.
    let mut report = vec![format!(
        "perfbench {} seed={} seconds={} trace={} work: {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        m.work
    )];
    report.push(format!(
        "env: {}",
        env.iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" | ")
    ));
    for (name, value, unit) in m.e2e() {
        report.push(format!("  {name:<16} {value:>14.4} {unit}"));
    }
    report.push(format!(
        "  failed_share     {:>14.4} ratio ({} failed of {} attempted)",
        ratio(m.failed as f64, m.attempted as f64),
        m.failed,
        m.attempted
    ));
    if args.trace {
        report.push(
            "per-layer split (value; should move -> end-to-end metric @ workload; flat on):".into(),
        );
        for lm in LAYER_METRICS {
            let value = m.layers.get(lm.name).copied();
            let shown = value.map_or("n/a (not on this workload's path)".to_string(), |v| {
                format!("{v:.4} {}", lm.unit)
            });
            report.push(format!(
                "  {:<38} {:<34} -> {} | flat: {}",
                lm.name, shown, lm.moves, lm.flat
            ));
        }
        if let Some(tracer) = &m.tracer {
            report.push("span self times (spans, total ms, self ms):".into());
            for (name, (count, total, own)) in tracer.self_times() {
                report.push(format!(
                    "  {name:<28} {count:>8} {:>12.3} {:>12.3}",
                    total as f64 / 1e6,
                    own as f64 / 1e6
                ));
            }
        }
        report.extend(m.notes.iter().cloned());
    }
    for problem in &m.problems {
        report.push(format!("CHECK FAILED: {problem}"));
    }
    eprintln!("{}", report.join("\n"));

    let outcome = Outcome {
        correct,
        attempted: m.attempted.max(1),
        failed: m.failed,
        metrics,
    };
    let env_json: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", Json::str(v.clone()).render()))
        .collect();
    let record = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"env\": {{{}}}, \"result\": {}}}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env_json.join(", "),
        outcome.json()
    );
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(args.out.join(format!("{stem}.json")), record)
        .map_err(|e| format!("write result record: {e}"))?;
    if let Some(tracer) = m.tracer.take() {
        tracer
            .write_jsonl(
                &args
                    .out
                    .join(format!("spans-{}.jsonl", args.workload.name())),
            )
            .map_err(|e| format!("write spans: {e}"))?;
    }
    Ok(outcome)
}

/// Launches the workload's system `count` times, timing each launch up to
/// ready (plus the `warm` requests, when given) into `setup` when given. The
/// last [`Workload::slices`] launches each run `work(slice, system)` before
/// they stop.
fn launches<T>(
    args: &Args,
    tmp: &Path,
    count: usize,
    warm: Option<&[Vec<u8>]>,
    mut setup: Option<&mut Measured>,
    mut work: impl FnMut(usize, &system::System) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let slices = args.workload.slices();
    let mut out = Vec::with_capacity(slices);
    for launch in 0..count {
        let t0 = Instant::now();
        let system = system::launch(&args.reproduce, args.workload.topology(), tmp)?;
        if let Some(requests) = warm {
            let mut conn =
                http::Conn::connect(system.addr()).map_err(|e| format!("connect: {e}"))?;
            for request in requests {
                let response = conn
                    .roundtrip(request)
                    .map_err(|e| format!("warm-up: {e}"))?;
                if response.status != 200 {
                    return Err(format!("warm-up answered {}", response.status));
                }
            }
        }
        if let Some(m) = setup.as_deref_mut() {
            m.setup_s.push(t0.elapsed().as_secs_f64());
            m.io_model = system.io_model().to_string();
        }
        if let Some(slice) = (launch + slices).checked_sub(count) {
            out.push(work(slice, &system)?);
        }
    }
    Ok(out)
}

/// Slice `slice` of `slices` of the operations `0..total`.
fn slice_range(total: usize, slice: usize, slices: usize) -> Range<usize> {
    total * slice / slices..total * (slice + 1) / slices
}

/// Counter deltas of one slice: server cache hits, misses, evictions and
/// shard re-issues, plus the system's peak resident set.
#[derive(Default)]
struct SliceCounters {
    hits: f64,
    misses: f64,
    evictions: f64,
    reissues: f64,
    rss_mib: Vec<f64>,
}

impl SliceCounters {
    fn between(before: &str, after: &str, system: &system::System) -> Result<Self, String> {
        let delta = |name: &str| system::metric(after, name) - system::metric(before, name);
        Ok(SliceCounters {
            hits: delta("ayd_cache_hits_total"),
            misses: delta("ayd_cache_misses_total"),
            evictions: delta("ayd_cache_evictions_total"),
            reissues: delta("ayd_shard_reissues_total"),
            rss_mib: vec![system.peak_rss_mib()?],
        })
    }

    fn absorb(&mut self, other: SliceCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.reissues += other.reissues;
        self.rss_mib.extend(other.rss_mib);
    }
}

/// The JSON body the server must answer for `query`: the offline,
/// cache-free evaluation of the same inputs rendered as `/v1/optimize` does.
fn expected_body(query: &Query) -> Vec<u8> {
    let options = gen::serve_options();
    let setup = query.setup();
    let model = query.model();
    let failure_model = query.failure_spec();
    let eval =
        ayd_sweep::evaluate_analytic(&model, query.processors, &failure_model, &options, None);
    let row = SweepRow {
        platform: query.platform,
        scenario: query.scenario,
        profile: setup.profile,
        failure_model,
        alpha: setup.alpha(),
        lambda_ind: model.failures.lambda_ind,
        lambda_multiplier: query.lambda_multiplier,
        fixed_processors: query.processors,
        processor_order: None,
        pattern_length: None,
        first_order: eval.first_order,
        closed_form: eval.closed_form,
        numerical: eval.numerical,
        prescribed: None,
        stream_simulated: None,
    };
    api::row_json(&row).render().into_bytes()
}

fn us(ns: &[f64]) -> Vec<f64> {
    ns.iter().map(|v| v / 1e3).collect()
}

/// Replays the optimiser and model kernel on `inputs`, filling the optim.*
/// and core.* metrics.
fn optim_and_core(inputs: &[layers::OptimInput], tracer: &mut Tracer, m: &mut Measured) {
    let (report, evals) = layers::optim(inputs, tracer);
    let joint = us(&tracer.per_call_ns("optim.eval_joint"));
    let fixed = us(&tracer.per_call_ns("optim.eval_fixed"));
    let all: Vec<f64> = joint.iter().chain(&fixed).copied().collect();
    m.layers.insert("optim.eval_us", median(&all));
    m.layers.insert("optim.eval_p99_us", percentile(&all, 0.99));
    m.layers.insert("optim.eval_joint_us", median(&joint));
    m.layers.insert("optim.eval_fixed_us", median(&fixed));
    m.layers.insert(
        "optim.fast_share",
        ratio(report.fast as f64, (report.fast + report.fallback) as f64),
    );
    m.layers.insert(
        "optim.fallbacks_per_eval",
        ratio(report.fallback as f64, evals as f64),
    );
    m.layers.insert(
        "optim.brent_iters_per_eval",
        ratio(report.brent_iterations as f64, evals as f64),
    );
    let models: Vec<_> = inputs.iter().map(|(model, _, _)| *model).collect();
    layers::core(&models, tracer);
    m.layers.insert(
        "core.overhead_ns",
        median(&tracer.per_call_ns("core.overhead")),
    );
    m.layers.insert(
        "core.first_order_ns",
        median(&tracer.per_call_ns("core.first_order")),
    );
}

// ---------------------------------------------------------------- queries

fn query_workload(args: &Args, tmp: &Path) -> Result<Measured, String> {
    let warm = args.workload == Workload::QueryWarm;
    let mut m = Measured::default();
    let (total, queries) = if warm {
        let total = (args.seconds * WARM_REQUESTS_PER_S) as usize;
        (
            total,
            gen::distinct_queries(args.seed, gen::WARM_STREAM, WARM_SET),
        )
    } else {
        // A traced run sends a second, equally fresh batch.
        let total = (args.seconds * COLD_REQUESTS_PER_S) as usize;
        let phases = if args.trace { 2 } else { 1 };
        (
            total,
            gen::distinct_queries(args.seed, gen::COLD_STREAM, total * phases),
        )
    };
    let phase_a: Vec<Vec<u8>> = queries[..if warm { WARM_SET } else { total }]
        .iter()
        .map(Query::request)
        .collect();
    let phase_a = Arc::new(phase_a);
    m.work = format!(
        "{total} POST /v1/optimize over {} closed-loop connections, {} distinct queries",
        live::CONNECTIONS,
        phase_a.len()
    );

    let warm_up = warm.then_some(phase_a.as_slice());
    let sample_every = (total as u64 / CHECK_SAMPLE).max(1);
    let salt = gen::mix(args.seed ^ 0xC4EC);
    let mut phase = live::QueryPhase::default();
    let mut counters = SliceCounters::default();
    let mut placement = Vec::new();
    let slices = args.workload.slices();
    let parts = launches(
        args,
        tmp,
        SETUP_LAUNCHES,
        warm_up,
        Some(&mut m),
        |slice, system| {
            let before = system::scrape(system.addr())?;
            let range = slice_range(total, slice, slices);
            let run = live::run_queries(system.addr(), &phase_a, range, sample_every, salt, None)?;
            let after = system::scrape(system.addr())?;
            Ok((run, SliceCounters::between(&before, &after, system)?))
        },
    )?;
    for ((part, reactors), slice) in parts {
        phase.absorb(part);
        placement.extend(reactors);
        counters.absorb(slice);
    }
    m.work.push_str(&format!(
        " on {slices} fresh servers, connections on reactors {placement:?}"
    ));
    m.rss_mib = median(&counters.rss_mib);
    let (hits, misses) = (counters.hits, counters.misses);
    let hit_ratio = ratio(hits, hits + misses);
    let evictions = counters.evictions;

    let origin = Instant::now();
    let traced = if args.trace {
        let requests = if warm {
            Arc::clone(&phase_a)
        } else {
            Arc::new(queries[total..].iter().map(Query::request).collect())
        };
        let mut traced = live::QueryPhase::default();
        for (part, _) in launches(args, tmp, slices, warm_up, None, |slice, system| {
            let range = slice_range(total, slice, slices);
            live::run_queries(
                system.addr(),
                &requests,
                range,
                u64::MAX,
                salt,
                Some(origin),
            )
        })? {
            traced.absorb(part);
        }
        Some(traced)
    } else {
        None
    };

    m.latency_us = phase
        .latencies_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    m.ops_ok = phase.ok;
    m.cells = phase.ok;
    m.wall_s = phase.wall.as_secs_f64();
    m.attempted = total as u64;
    m.failed = phase.failed;

    // Bit-for-bit check of the sampled answers, after the timed phase.
    let mut expected: HashMap<usize, Vec<u8>> = HashMap::new();
    let mut mismatches = 0u64;
    for (index, body) in &phase.samples {
        let want = expected.entry(*index).or_insert_with(|| {
            let mut body = expected_body(&queries[*index]);
            if args.corrupt {
                let middle = body.len() / 2;
                body[middle] ^= 1;
            }
            body
        });
        if want != body {
            mismatches += 1;
        }
    }
    m.failed += mismatches;
    m.notes.push(format!(
        "checks: {} sampled answers compared bit-for-bit, {mismatches} mismatched; \
         server cache hit ratio {hit_ratio:.4} over {} lookups",
        phase.samples.len(),
        hits + misses
    ));
    if phase.samples.is_empty() {
        m.problems
            .push("no answer was sampled for the check".into());
    }
    if mismatches > 0 {
        m.problems.push(format!(
            "{mismatches} answers differ from the offline evaluation"
        ));
    }
    if warm && hit_ratio < 0.99 {
        m.problems
            .push(format!("query-warm cache hit ratio {hit_ratio:.4} < 0.99"));
    }
    if !warm && hit_ratio > 0.01 {
        m.problems
            .push(format!("query-cold cache hit ratio {hit_ratio:.4} > 0.01"));
    }

    if let Some(traced) = traced {
        m.attempted += total as u64;
        m.failed += traced.failed;
        let mut tracer = traced.tracer.expect("traced phase records spans");
        let mut replay = Tracer::new(origin);
        let replayed = if warm { 20_000 } else { 2_000.min(total) };
        layers::serve(&phase_a, warm, replayed, &mut replay)?;
        let request_us = median(&us(&replay.per_call_ns("serve.request")));
        let parse_us = median(&us(&replay.per_call_ns("serve.parse")));
        let evaluate_us = median(&us(&replay.per_call_ns("serve.evaluate")));
        let render_us = median(&us(&replay.per_call_ns("serve.render")));
        let client_p50 = percentile(&m.latency_us, 0.5);
        let traced_p50 = median(&us(&tracer.per_call_ns("client.request")));
        let transport_us = client_p50 - request_us;
        m.layers.insert("serve.request_us", request_us);
        m.layers.insert("serve.parse_us", parse_us);
        m.layers.insert("serve.evaluate_us", evaluate_us);
        m.layers.insert("serve.render_us", render_us);
        m.layers.insert("serve.transport_us", transport_us);
        m.layers.insert(
            "serve.coverage",
            ratio(
                parse_us + evaluate_us + render_us + transport_us,
                client_p50,
            ),
        );
        m.layers.insert("serve.cache_hit_ratio", hit_ratio);
        m.layers.insert("serve.cache_evictions", evictions);
        m.layers.insert(
            "trace.overhead_share",
            ratio(traced_p50 - client_p50, client_p50),
        );
        m.notes.push(format!(
            "split of latency_p50_us {client_p50:.2} us: parse {parse_us:.2} + evaluate \
             {evaluate_us:.2} + render {render_us:.2} + transport {transport_us:.2} \
             (serve_chunks whole: {request_us:.2}); traced p50 {traced_p50:.2} us"
        ));
        let inputs: Vec<layers::OptimInput> = queries[..replayed.min(phase_a.len())]
            .iter()
            .map(|q| (q.model(), q.processors, q.failure_spec()))
            .collect();
        optim_and_core(&inputs, &mut replay, &mut m);
        tracer.absorb(replay);
        m.tracer = Some(tracer);
    }
    Ok(m)
}

// ---------------------------------------------------------------- sweeps

fn parse_grid(body: &str) -> Result<ScenarioGrid, String> {
    let doc = Json::parse(body).map_err(|e| format!("grid body: {e:?}"))?;
    api::parse_grid(&doc).map_err(|e| format!("grid body: {}", e.reason))
}

fn sweep_workload(args: &Args, tmp: &Path) -> Result<Measured, String> {
    let cluster = args.workload == Workload::SweepCluster;
    let mut m = Measured::default();
    let rate = if cluster {
        CLUSTER_JOBS_PER_S
    } else {
        LOCAL_JOBS_PER_S
    };
    let jobs = ((args.seconds as f64 * rate).round() as usize).max(2);
    let bodies = gen::sweep_bodies(args.seed, jobs);
    let grids = bodies
        .iter()
        .map(|body| parse_grid(body))
        .collect::<Result<Vec<_>, _>>()?;
    // References first, outside set-up and timing: the engine's CSV bytes
    // for every job's grid.
    let engine = SweepExecutor::new(gen::serve_options());
    let mut references: Vec<String> = grids.iter().map(|g| engine.run(g).to_csv()).collect();
    if args.corrupt {
        for reference in &mut references {
            let mut bytes = std::mem::take(reference).into_bytes();
            let at = bytes.len() - 2;
            bytes[at] = if bytes[at] == b'1' { b'2' } else { b'1' };
            *reference = String::from_utf8(bytes).expect("ASCII digit swap");
        }
    }
    let slices = args.workload.slices();
    m.work = format!(
        "{jobs} sweep jobs of {} cells in {} shards, one at a time, on {slices} fresh system(s)",
        gen::SWEEP_CELLS,
        gen::SWEEP_SHARDS
    );

    let mut phase = live::SweepPhase::default();
    let mut counters = SliceCounters::default();
    let parts = launches(
        args,
        tmp,
        SETUP_LAUNCHES,
        None,
        Some(&mut m),
        |slice, system| {
            let before = system::scrape(system.addr())?;
            let range = slice_range(jobs, slice, slices);
            let run = live::run_sweeps(
                system.addr(),
                &bodies[range.clone()],
                &references[range],
                None,
                false,
            )?;
            let after = system::scrape(system.addr())?;
            Ok((run, SliceCounters::between(&before, &after, system)?))
        },
    )?;
    for (part, slice) in parts {
        phase.absorb(part);
        counters.absorb(slice);
    }
    m.rss_mib = median(&counters.rss_mib);
    let reissues = counters.reissues;
    let origin = Instant::now();
    let traced = if args.trace {
        let mut traced = live::SweepPhase::default();
        for part in launches(args, tmp, slices, None, None, |slice, system| {
            let range = slice_range(jobs, slice, slices);
            live::run_sweeps(
                system.addr(),
                &bodies[range.clone()],
                &references[range],
                Some(origin),
                cluster,
            )
        })? {
            traced.absorb(part);
        }
        Some(traced)
    } else {
        None
    };

    m.latency_us = phase.job_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    m.ops_ok = phase.ok;
    m.cells = phase.rows;
    m.wall_s = phase.wall.as_secs_f64();
    m.attempted = jobs as u64;
    m.failed = phase.failed;
    if phase.failed > 0 {
        m.problems.push(format!(
            "{} of {jobs} sweep jobs failed or returned a CSV that differs from the engine's bytes",
            phase.failed
        ));
    }
    m.notes.push(format!(
        "checks: {} of {jobs} job CSVs byte-identical to the in-process engine",
        phase.ok
    ));

    if let Some(traced) = traced {
        m.attempted += jobs as u64;
        m.failed += traced.failed;
        if traced.failed > 0 {
            m.problems.push(format!(
                "{} traced sweep jobs failed their check",
                traced.failed
            ));
        }
        let mut tracer = traced.tracer.expect("traced phase records spans");
        let job_p50_ms = percentile(&m.latency_us, 0.5) / 1e3;
        let traced_p50_ms = median(&tracer.per_call_ns("client.job")) / 1e6;
        let fetch_ms = median(
            &phase
                .fetch_ns
                .iter()
                .map(|&ns| ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        );
        let submit_ms = median(&tracer.per_call_ns("client.submit")) / 1e6;
        let mut replay = Tracer::new(origin);
        let shard_threads = system::threads(args.workload.topology());
        let sweep = layers::sweep(&grids[0], &references[0], shard_threads, &mut replay)?;
        let ms_of = |t: &Tracer, name: &str| median(&t.per_call_ns(name)) / 1e6;
        let run_ms = ms_of(&replay, "sweep.run");
        let run_1t_ms = ms_of(&replay, "sweep.run_1t");
        let merge_ms = ms_of(&replay, "sweep.shard.merge");
        m.layers.insert("serve.csv_fetch_ms", fetch_ms);
        m.layers.insert("sweep.run_ms", run_ms);
        m.layers.insert("sweep.run_1t_ms", run_1t_ms);
        m.layers
            .insert("sweep.parallel_efficiency", ratio(run_1t_ms, 2.0 * run_ms));
        m.layers.insert(
            "sweep.cache_hit_ratio",
            ratio(
                sweep.cache_hits as f64,
                (sweep.cache_hits + sweep.cache_misses) as f64,
            ),
        );
        m.layers.insert("sweep.csv_ms", ms_of(&replay, "sweep.csv"));
        m.layers
            .insert("sweep.shard.run_ms", sweep.shard_ms.iter().sum::<f64>());
        m.layers.insert(
            "sweep.shard.cache_hit_ratio",
            ratio(
                sweep.shard_hits as f64,
                (sweep.shard_hits + sweep.shard_misses) as f64,
            ),
        );
        m.layers.insert("sweep.shard.merge_ms", merge_ms);
        m.layers.insert(
            "trace.overhead_share",
            ratio(traced_p50_ms - job_p50_ms, job_p50_ms),
        );
        // The blocking path of one job, as far as the named stages cover it.
        let covered = if cluster {
            let wait = mean(&traced.dispatch_wait_ms);
            let finish = ms_of(&replay, "coordinator.finish");
            let s = &sweep.shard_ms;
            m.layers.insert(
                "sweep.shard.chunk_us",
                median(&replay.per_call_ns("sweep.shard.chunk")) / 1e3,
            );
            m.layers.insert("serve.coordinator.dispatch_wait_ms", wait);
            m.layers.insert(
                "serve.coordinator.worker_idle_share",
                mean(&traced.idle_share),
            );
            m.layers.insert(
                "serve.coordinator.accept_chunk_us",
                median(&replay.per_call_ns("coordinator.accept_chunk")) / 1e3,
            );
            m.layers.insert("serve.coordinator.finish_ms", finish);
            m.layers.insert("serve.coordinator.reissues", reissues);
            let waves = s[0].max(s[1]) + s[2].max(s[3]);
            m.notes.push(format!(
                "split of job_p50_ms {job_p50_ms:.1}: submit {submit_ms:.2} + 2 dispatch waits \
                 {:.1} + two waves of 1-thread shard runs {waves:.1} + coordinator merge \
                 {finish:.1} + CSV fetch {fetch_ms:.1}",
                2.0 * wait
            ));
            submit_ms + 2.0 * wait + waves + finish + fetch_ms
        } else {
            let shards = sweep.shard_ms.iter().sum::<f64>();
            let csv_ms = ms_of(&replay, "sweep.csv");
            m.notes.push(format!(
                "split of job_p50_ms {job_p50_ms:.1}: submit {submit_ms:.2} + 4 shards in turn \
                 at 2 threads {shards:.1} + merge {merge_ms:.1} + CSV render {csv_ms:.1} + \
                 CSV fetch {fetch_ms:.1}"
            ));
            submit_ms + shards + merge_ms + csv_ms + fetch_ms
        };
        m.layers
            .insert("serve.coverage", ratio(covered, job_p50_ms));
        m.layers.insert("serve.cache_hit_ratio", 0.0);
        m.layers.insert("serve.cache_evictions", 0.0);
        m.notes.push(format!(
            "traced job p50 {traced_p50_ms:.1} ms vs untraced {job_p50_ms:.1} ms"
        ));

        // The optimiser and kernel on the grid's distinct configurations
        // (every pattern length of a configuration shares one evaluation).
        let options = gen::serve_options();
        let mut seen = HashSet::new();
        let cells = grids[0].cells();
        let stride = (cells.len() / 4096).max(1);
        let inputs: Vec<layers::OptimInput> = cells
            .iter()
            .step_by(stride)
            .filter_map(|cell| {
                let model = cell.setup.model().ok()?;
                let key = ayd_sweep::analytic_cache_key(
                    &model,
                    cell.fixed_processors,
                    &cell.failure_model,
                    &options,
                );
                seen.insert(key)
                    .then(|| (model, cell.fixed_processors, cell.failure_model.clone()))
            })
            .take(1_000)
            .collect();
        optim_and_core(&inputs, &mut replay, &mut m);
        tracer.absorb(replay);
        m.tracer = Some(tracer);
    }
    Ok(m)
}

// ---------------------------------------------------------------- self-test

/// Checks the input generators: `query-cold` keys are distinct within a run
/// and across the seeds the runs use, every generated body is a valid
/// query, and sweep bodies are distinct full-size grids. The corrupted
/// reference check drives a live run and lives in `run.py --self-test`.
fn self_test() -> i32 {
    let options = gen::serve_options();
    let per_run = (10 * COLD_REQUESTS_PER_S * 2) as usize;
    let mut keys = HashSet::new();
    let mut failures = Vec::new();
    for seed in 1..=10u64 {
        let queries = gen::distinct_queries(seed, gen::COLD_STREAM, per_run);
        let mut run_keys = HashSet::new();
        for query in &queries {
            let key = query.key_digest(&options);
            if !run_keys.insert(key) {
                failures.push(format!(
                    "seed {seed}: a query-cold key repeats within the run"
                ));
                break;
            }
            if !keys.insert(key) {
                failures.push(format!(
                    "seed {seed}: a query-cold key repeats another seed's"
                ));
                break;
            }
        }
        for query in queries.iter().take(500) {
            let doc = Json::parse(&query.body()).expect("generated bodies are JSON");
            if let Err(e) = api::parse_optimize(&doc) {
                failures.push(format!(
                    "seed {seed}: invalid query {}: {}",
                    query.body(),
                    e.reason
                ));
                break;
            }
        }
        let bodies = gen::sweep_bodies(seed, 64);
        if bodies.iter().collect::<HashSet<_>>().len() != bodies.len() {
            failures.push(format!("seed {seed}: sweep bodies repeat"));
        }
        match parse_grid(&bodies[0]) {
            Ok(grid) if grid.len() == gen::SWEEP_CELLS => {}
            Ok(grid) => failures.push(format!("sweep grid has {} cells", grid.len())),
            Err(e) => failures.push(e),
        }
    }
    println!(
        "self-test: {} query-cold keys over 10 seeds, {} failures",
        keys.len(),
        failures.len()
    );
    for failure in &failures {
        println!("  FAIL {failure}");
    }
    i32::from(!failures.is_empty())
}
