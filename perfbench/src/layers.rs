//! In-process replays of a workload's own inputs through the public
//! functions of each layer, each call wrapped in a benchmark span. The
//! replays run after the live system has stopped, so they never compete
//! with it for the cores.

use std::hint::black_box;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ayd_core::{ExactModel, FailureModelSpec, FirstOrder};
use ayd_serve::coordinator::Coordinator;
use ayd_serve::{api, http, serve_chunks, AppState, Json, Response, ServerConfig};
use ayd_sweep::{
    evaluate_analytic_observed, merge_parts, ScenarioGrid, SearchReport, ShardChunk, ShardPart,
    ShardSpec, SweepExecutor, SweepManifest,
};

use crate::gen::{serve_options, SWEEP_SHARDS};
use crate::trace::Tracer;

fn app_state() -> Arc<AppState> {
    AppState::new(&ServerConfig {
        threads: 2,
        ..ServerConfig::default()
    })
}

/// Replays `count` requests (cycling `requests`) through the serving stack
/// with no socket: once whole through `serve_chunks` (`serve.request`), and
/// once stage by stage (`serve.parse`, `serve.evaluate`, `serve.render`).
/// With `warm`, every request is answered once before timing, so each timed
/// evaluation is a cache hit; otherwise each state sees each query at most
/// once, so every evaluation is cold.
pub fn serve(
    requests: &[Vec<u8>],
    warm: bool,
    count: usize,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let shutdown = AtomicBool::new(false);
    let state = app_state();
    if warm {
        for request in requests {
            serve_chunks(&[request.as_slice()], &state, &shutdown);
        }
    }
    for i in 0..count {
        let request = requests[i % requests.len()].as_slice();
        let t0 = Instant::now();
        let out = serve_chunks(&[request], &state, &shutdown);
        let t1 = Instant::now();
        if !out.starts_with(b"HTTP/1.1 200") {
            return Err("in-process replay answered a non-200".into());
        }
        black_box(out);
        tracer.record("serve.request", 0, i as u64, t0, t1);
    }

    let state = app_state();
    let parse = |bytes: &[u8]| -> Result<api::OptimizeQuery, String> {
        let mut reader = bytes;
        let request = http::parse_request(&mut reader, &state.limits)
            .map_err(|e| format!("replay parse: {e:?}"))?;
        let text = std::str::from_utf8(&request.body).map_err(|_| "replay body is not UTF-8")?;
        let doc = Json::parse(text).map_err(|e| format!("replay JSON: {e:?}"))?;
        api::parse_optimize(&doc).map_err(|e| format!("replay query: {}", e.reason))
    };
    if warm {
        for request in requests {
            black_box(api::evaluate_query(&state, &parse(request)?));
        }
    }
    for i in 0..count {
        let bytes = requests[i % requests.len()].as_slice();
        let parent = tracer.reserve();
        let t0 = Instant::now();
        let query = parse(bytes)?;
        let t1 = Instant::now();
        let row = api::evaluate_query(&state, &query);
        let t2 = Instant::now();
        let out = Response::json(&api::row_json(&row)).to_bytes(true);
        let t3 = Instant::now();
        black_box(out);
        tracer.record("serve.parse", parent, i as u64, t0, t1);
        tracer.record("serve.evaluate", parent, i as u64, t1, t2);
        tracer.record("serve.render", parent, i as u64, t2, t3);
        tracer.record_reserved(parent, "serve.staged", i as u64, t0, t3);
    }
    Ok(())
}

/// One optimiser input: model, fixed P (`None` = joint) and failure law.
pub type OptimInput = (ExactModel, Option<f64>, FailureModelSpec);

/// Evaluates every input without a cache (`optim.eval_joint` /
/// `optim.eval_fixed` spans) and sums the search reports.
pub fn optim(inputs: &[OptimInput], tracer: &mut Tracer) -> (SearchReport, u64) {
    let options = serve_options();
    let mut total = SearchReport::default();
    for (i, (model, processors, failure)) in inputs.iter().enumerate() {
        let t0 = Instant::now();
        let (eval, observation) =
            evaluate_analytic_observed(model, *processors, failure, &options, None);
        let t1 = Instant::now();
        black_box(eval);
        let name = if processors.is_some() {
            "optim.eval_fixed"
        } else {
            "optim.eval_joint"
        };
        tracer.record(name, 0, i as u64, t0, t1);
        total.merge(&observation.search);
    }
    (total, inputs.len() as u64)
}

/// The (P, T) points `core.overhead` evaluates each model at: the sweep
/// workloads' processor and pattern-length axes.
const PROCESSORS: [f64; 6] = [128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0];
const PERIODS: [f64; 4] = [900.0, 1800.0, 3600.0, 7200.0];

/// Times `ExactModel::expected_overhead` over the (P, T) points and
/// `FirstOrder::joint_optimum`, in batches of models (`core.overhead`,
/// `core.first_order` spans, one per batch, with their call counts).
pub fn core(models: &[ExactModel], tracer: &mut Tracer) {
    const BATCH: usize = 64;
    const ROUNDS: usize = 8;
    for round in 0..ROUNDS {
        for (b, batch) in models.chunks(BATCH).enumerate() {
            let trace = (round * models.len() + b) as u64;
            let t0 = Instant::now();
            let mut acc = 0.0;
            for model in batch {
                for p in PROCESSORS {
                    for t in PERIODS {
                        acc += black_box(model).expected_overhead(black_box(t), black_box(p));
                    }
                }
            }
            let t1 = Instant::now();
            black_box(acc);
            let calls = (batch.len() * PROCESSORS.len() * PERIODS.len()) as u64;
            tracer.record_calls("core.overhead", 0, trace, t0, t1, calls);
            let t0 = Instant::now();
            for model in batch {
                black_box(FirstOrder::new(black_box(model)).joint_optimum().ok());
            }
            let t1 = Instant::now();
            tracer.record_calls("core.first_order", 0, trace, t0, t1, batch.len() as u64);
        }
    }
}

/// What the sweep replay measured besides its spans.
#[derive(Default)]
pub struct SweepReplay {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub shard_hits: u64,
    pub shard_misses: u64,
    /// Per-shard run time (ms), shard order.
    pub shard_ms: Vec<f64>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Replays one sweep job in-process: the whole grid through
/// `SweepExecutor::run` at 2 and at 1 thread, `SweepResults::to_csv`, each
/// of the job's 4 shards through `run_cells` (at `shard_threads`, as the
/// system runs them), `merge_parts`, the workers' `ShardChunk` framing, and
/// the coordinator's `accept_chunk` / `take_finished` on those chunks. Every
/// CSV it assembles must equal `reference`.
pub fn sweep(
    grid: &ScenarioGrid,
    reference: &str,
    shard_threads: usize,
    tracer: &mut Tracer,
) -> Result<SweepReplay, String> {
    let mut out = SweepReplay::default();
    let options = serve_options();
    for rep in 0..3u64 {
        let t0 = Instant::now();
        let results = SweepExecutor::new(options.with_threads(2)).run(grid);
        let t1 = Instant::now();
        let csv = results.to_csv();
        let t2 = Instant::now();
        tracer.record("sweep.run", 0, rep, t0, t1);
        tracer.record("sweep.csv", 0, rep, t1, t2);
        if csv != reference {
            return Err("in-process sweep CSV differs from the reference".into());
        }
        out.cache_hits = results.cache.hits;
        out.cache_misses = results.cache.misses;
    }
    for rep in 0..2u64 {
        let t0 = Instant::now();
        black_box(SweepExecutor::new(options.with_threads(1)).run(grid));
        tracer.record("sweep.run_1t", 0, rep, t0, Instant::now());
    }

    let cells = grid.len();
    let mut parts = Vec::with_capacity(SWEEP_SHARDS);
    let mut chunks: Vec<Vec<ShardChunk>> = Vec::with_capacity(SWEEP_SHARDS);
    for index in 0..SWEEP_SHARDS {
        let spec = ShardSpec::new(index, SWEEP_SHARDS).map_err(|e| e.to_string())?;
        let shard_cells = grid.shard_cells(spec);
        let t0 = Instant::now();
        let results =
            SweepExecutor::new(options.with_threads(shard_threads)).run_cells(&shard_cells);
        let t1 = Instant::now();
        tracer.record("sweep.shard.run", 0, index as u64, t0, t1);
        out.shard_ms.push(ms(t1 - t0));
        out.shard_hits += results.cache.hits;
        out.shard_misses += results.cache.misses;

        // The worker's framing: `cells / 16` rows per chunk, clamped to
        // 16..=512, each carrying the manifest snapshot after its last row.
        let manifest = SweepManifest::new(grid, &options, spec);
        let csv = results.to_csv();
        let lines: Vec<&str> = csv.lines().skip(1).collect();
        let chunk_rows = (lines.len() / 16).clamp(16, 512);
        let mut shard_chunks = Vec::new();
        for (c, run) in lines.chunks(chunk_rows).enumerate() {
            let from = c * chunk_rows;
            let mut snapshot = manifest.clone();
            snapshot.completed = from + run.len();
            let mut rows = run.join("\n");
            rows.push('\n');
            let chunk = ShardChunk::new(snapshot, from, rows).map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            let wire = chunk.render();
            let parsed = ShardChunk::parse(&wire).map_err(|e| e.to_string())?;
            tracer.record(
                "sweep.shard.chunk",
                0,
                (index * 1000 + c) as u64,
                t0,
                Instant::now(),
            );
            shard_chunks.push(parsed);
        }
        chunks.push(shard_chunks);
        let mut manifest = manifest;
        manifest.completed = shard_cells.len();
        parts.push(ShardPart { manifest, csv });
    }
    let t0 = Instant::now();
    let merged = merge_parts(&parts).map_err(|e| e.to_string())?;
    tracer.record("sweep.shard.merge", 0, 0, t0, Instant::now());
    if merged != reference {
        return Err("merged shard CSV differs from the reference".into());
    }

    // The coordinator's side of the same job: two registered workers take
    // the four shards in two waves and upload the chunks above.
    let coordinator = Coordinator::new(Duration::from_millis(crate::system::LEASE_MS));
    let now = Instant::now();
    let tokens = [
        coordinator.register_worker("127.0.0.1:1", now),
        coordinator.register_worker("127.0.0.1:2", now),
    ];
    coordinator.submit(
        1,
        "{}".to_string(),
        grid.fingerprint(),
        options.output_fingerprint(),
        SWEEP_SHARDS,
        cells,
    );
    let mut uploads = 0u64;
    loop {
        let plan = coordinator.dispatch_plan(Instant::now());
        if plan.is_empty() {
            break;
        }
        for dispatch in plan {
            let token = tokens
                .iter()
                .find(|(id, _)| *id == dispatch.worker)
                .map(|(_, token)| *token)
                .ok_or("dispatch to an unknown worker")?;
            for chunk in &chunks[dispatch.shard] {
                uploads += 1;
                let t0 = Instant::now();
                coordinator
                    .accept_chunk(
                        1,
                        dispatch.shard,
                        dispatch.worker,
                        token,
                        dispatch.epoch,
                        chunk,
                        t0,
                    )
                    .map_err(|e| format!("coordinator refused a chunk: {}", e.reason()))?;
                tracer.record("coordinator.accept_chunk", 0, uploads, t0, Instant::now());
            }
        }
    }
    let t0 = Instant::now();
    let outcome = coordinator
        .take_finished(1)
        .ok_or("coordinator lost the replayed job")?;
    tracer.record("coordinator.finish", 0, 0, t0, Instant::now());
    if outcome.cancelled || outcome.csv != reference {
        return Err("coordinator merge differs from the reference".into());
    }
    Ok(out)
}
