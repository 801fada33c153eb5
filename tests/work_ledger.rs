//! The work ledger: the heap allocations of one served request, of one
//! sweep job and its fetch, and of the poll that finishes a distributed
//! job, pinned, with the job's cache lookups and the digest of its CSV, and
//! the searches of the job's grid with the cache on and off.
//!
//! Timings drift with the host; the work a request does does not. This test
//! binary installs a counting global allocator whose counts are kept per
//! thread, and serves fixed requests through `serve_chunks` (the socket-free
//! harness that answers exactly as a reactor does), with tracing off. Each
//! request's allocation count and bytes allocated must stay within its pin,
//! which is what was measured when the pin was set plus a small slack. The
//! pins are a ratchet: a count that falls well under its pin fails too, so
//! a change that removes work lowers the pin it beat.
//!
//! An allocation is one `alloc`, `alloc_zeroed` or `realloc` call; its
//! bytes are the size it asks for. A sweep job runs on threads of its own,
//! so the allocator also counts process-wide, with `realloc` calls apart;
//! the ledger's tests take turns, so no other test's work is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ayd_core::{FailureModelSpec, SpeedupProfile};
use ayd_platforms::{PlatformId, ScenarioId};
use ayd_serve::app::{DistributedJobHandle, JobHandle, JobView, LocalJob};
use ayd_serve::{api, serve_chunks, AppState, ClusterConfig, Request, ServerConfig};
use ayd_sweep::{ProcessorAxis, ScenarioGrid, ShardChunk, ShardSpec, SweepExecutor, SweepManifest};

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Process-wide `alloc` and `alloc_zeroed` calls.
static PROCESS_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Process-wide `realloc` calls.
static PROCESS_REALLOCS: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    // `try_with`: the thread's slots may already be gone while it exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counting touches only `const`-initialised thread-locals and atomics,
// which never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        PROCESS_REALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The ledger's tests take turns: the process-wide counts must see one
/// test's work only.
static TURNS: Mutex<()> = Mutex::new(());

fn turn() -> MutexGuard<'static, ()> {
    TURNS.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// How far an allocation count may rise above its measured value before
/// the ledger fails; a count more than twice this far under its pin fails
/// too.
const SLACK: u64 = 2;

/// The same for the bytes allocated (the sum of the sizes requested).
const BYTE_SLACK: u64 = 512;

/// The ceilings of one request: the allocations and bytes measured when
/// the pin was set, plus `SLACK` and `BYTE_SLACK`.
struct Pin {
    allocations: u64,
    bytes: u64,
}

/// Pins of one request through `serve_chunks` on a warmed process.
const COLD_OPTIMIZE: Pin = Pin {
    allocations: 109,
    bytes: 22_924,
};
const WARM_OPTIMIZE_JSON: Pin = Pin {
    allocations: 83,
    bytes: 8_136,
};
const WARM_OPTIMIZE_CSV: Pin = Pin {
    allocations: 34,
    bytes: 3_692,
};
const COLD_BATCH_JSON: Pin = Pin {
    allocations: 573,
    bytes: 112_931,
};
const WARM_BATCH_JSON: Pin = Pin {
    allocations: 470,
    bytes: 49_823,
};
const WARM_BATCH_CSV: Pin = Pin {
    allocations: 102,
    bytes: 14_749,
};

/// How far the sweep job's process-wide `alloc` count may rise above its
/// measured value: the test harness may start a test's thread while the job
/// runs.
const JOB_SLACK: u64 = 16;

/// The ceilings of the ledger's sweep job, counted process-wide: its
/// `alloc` calls, measured plus `JOB_SLACK`, and its `realloc` calls,
/// measured plus `SLACK`. Each executor worker renders every chunk into one
/// reused buffer, reserved for a whole chunk up front, and the job's CSV is
/// reserved after its first range; a fresh buffer per chunk made 26,921
/// reallocs and 18,525 allocs. A block's lookup probes the cache with key
/// words on the stack, so 3,456 of the allocs left are cache keys, one per
/// miss; a key per lookup, hits included, made 3,456 more.
struct JobPin {
    allocs: u64,
    reallocs: u64,
}

/// [`ledger_grid`] as a `LocalJob` runs it: 4 ranges, 1 thread, cache on.
const SWEEP_JOB: JobPin = JobPin {
    allocs: 7_604,
    reallocs: 24,
};

/// The bytes of the ledger job's CSV: its length and its FNV-1a-64 digest.
/// No change to the evaluation or the renderer may move one.
const SWEEP_JOB_CSV: (usize, u64) = (4_540_501, 0xd0b8_4ddc_603e_8bf7);

/// The ledger job's cache lookups at 1 thread, where they repeat exactly
/// (at two, a concurrent miss may compute twice): one search per distinct
/// set of evaluation inputs, and one lookup per cell.
const SWEEP_JOB_CACHE: (u64, u64) = (3_456, 24_192);

/// The searches of [`ledger_grid`] at 1 thread through `SweepExecutor::run`
/// (`SweepResults::search`): the fast-path and fallback period searches and
/// the Brent iterations they spent. With the cache on, a block of cells
/// whose evaluation inputs agree searches once: one search per distinct
/// set of inputs. With it off, every cell searches.
const SEARCHES: [(&str, SearchPin); 2] = [
    (
        "cache on",
        SearchPin {
            fast: 3_456,
            fallback: 0,
            brent_iterations: 32_147,
        },
    ),
    (
        "cache off",
        SearchPin {
            fast: 27_648,
            fallback: 0,
            brent_iterations: 257_176,
        },
    ),
];

/// The exact search counts of one run.
#[derive(Debug, PartialEq, Eq)]
struct SearchPin {
    fast: u64,
    fallback: u64,
    brent_iterations: u64,
}

/// FNV-1a, 64-bit: offset basis `0xcbf29ce484222325`, prime
/// `0x100000001b3`, over the bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `GET /v1/sweep/{id}` of a finished job through `api::route`, the same
/// for a one-row CSV and the ledger job's 27,648 rows (4.5 MB): the
/// response shares the job's bytes, so nothing it allocates grows with the
/// CSV (a copy allocated 4,540,541 bytes).
const FINISHED_FETCH: Pin = Pin {
    allocations: 4,
    bytes: 552,
};

/// `GET /v1/sweep/{id}` (JSON) through `serve_chunks` on a coordinator, the
/// poll that finds [`ledger_grid`]'s 4-shard distributed job done: the
/// coordinator merged the chunks as they arrived, so finishing the job
/// hands its text over and allocates nothing that grows with the CSV (a
/// concatenation at finish allocated 4,540,501 bytes for it).
const FINISHING_POLL: Pin = Pin {
    allocations: 40,
    bytes: 2_979,
};

/// The `/v1/optimize` query of the ledger: Hera, scenario 1, joint `(P, T)`.
const QUERY: &str = r#"{"platform":"Hera","scenario":1}"#;

/// Eight queries, one batch slice: every platform, joint and fixed `P`,
/// `exp`, `weibull:0.7` and `shifted:600`, two profiles, and one
/// configuration over two pattern lengths (one block).
const BATCH: &str = r#"{"queries":[
{"platform":"Hera","scenario":1},
{"platform":"Atlas","scenario":2,"failure_model":"weibull:0.7"},
{"platform":"Coastal","scenario":3,"processors":1024},
{"platform":"Coastal SSD","scenario":4,"profile":"powerlaw:0.8"},
{"platform":"Hera","scenario":5,"processors":512,"pattern_length":1800},
{"platform":"Hera","scenario":5,"processors":512,"pattern_length":3600},
{"platform":"Atlas","scenario":6,"lambda_multiplier":10,"failure_model":"shifted:600"},
{"platform":"Coastal","scenario":1,"profile":"gustafson:0.05","processors":256}
]}"#;

fn request(path: &str, body: &str, csv: bool) -> Vec<u8> {
    let accept = if csv { "accept: text/csv\r\n" } else { "" };
    format!(
        "POST {path} HTTP/1.1\r\nhost: ledger\r\n{accept}content-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn state() -> Arc<AppState> {
    AppState::new(&ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    })
}

/// Serves `request` on `state` and returns its allocations and bytes
/// allocated on this thread, after checking that it answered 200.
fn serve(state: &Arc<AppState>, request: &[u8]) -> (u64, u64) {
    let shutdown = AtomicBool::new(false);
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let out = serve_chunks(&[request], state, &shutdown);
    let after = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    assert!(
        out.starts_with(b"HTTP/1.1 200"),
        "{}",
        String::from_utf8_lossy(&out)
    );
    (after.0 - before.0, after.1 - before.1)
}

/// Takes the process's one-time allocations (lazy statics, first-use
/// buffers) on a throwaway state, so that the measured requests count only
/// their own work.
fn warm_process() {
    let state = state();
    for csv in [false, true] {
        serve(&state, &request("/v1/optimize", QUERY, csv));
        serve(&state, &request("/v1/batch", BATCH, csv));
    }
}

fn check(what: &str, (allocations, bytes): (u64, u64), pin: Pin) {
    within(what, "allocations", allocations, pin.allocations, SLACK);
    within(what, "bytes", bytes, pin.bytes, BYTE_SLACK);
}

/// Fails unless `count` is at most `ceiling` and at least `ceiling − 2 ×
/// slack`.
fn within(what: &str, unit: &str, count: u64, ceiling: u64, slack: u64) {
    assert!(
        count <= ceiling,
        "{what}: {count} {unit}, over its pin of {ceiling}"
    );
    assert!(
        count + 2 * slack >= ceiling,
        "{what}: {count} {unit}, far under its pin of {ceiling}: lower the pin to {}",
        count + slack
    );
}

/// The benchmark's sweep axes: 4 platforms × 6 scenarios × 4 profile
/// families × 2 failure models × 6 λ multipliers × 6 processor counts × 4
/// pattern lengths = 27,648 cells, 6,912 blocks of 4, and 3,456 distinct
/// evaluations: a cell's `exp` and `weibull:0.7` twins share one.
fn ledger_grid() -> ScenarioGrid {
    ScenarioGrid::builder()
        .platforms(&PlatformId::ALL)
        .scenarios(&ScenarioId::ALL)
        .profiles(&[
            SpeedupProfile::amdahl(0.1).unwrap(),
            SpeedupProfile::power_law(0.8).unwrap(),
            SpeedupProfile::gustafson(0.05).unwrap(),
            SpeedupProfile::perfectly_parallel(),
        ])
        .failure_models(&[
            FailureModelSpec::exponential(),
            FailureModelSpec::weibull(0.7).unwrap(),
        ])
        .lambda_multipliers(&[1.0, 2.0, 5.0, 10.0, 20.0, 50.0])
        .processors(ProcessorAxis::Fixed(vec![
            128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0,
        ]))
        .pattern_lengths(&[900.0, 1800.0, 3600.0, 7200.0])
        .build()
        .unwrap()
}

/// Runs `grid` as a 4-shard local job on `state` (one executor thread) and
/// returns the job's id.
fn run_job(state: &Arc<AppState>, grid: ScenarioGrid) -> u64 {
    let options = state.options.with_threads(1);
    let id = state
        .jobs
        .try_submit(1, |_| {
            JobHandle::Local(LocalJob::spawn(options, grid, Some(4)))
        })
        .expect("no job is running");
    while let Some(JobView::Running(..)) = state.jobs.poll(id) {
        std::thread::sleep(Duration::from_millis(2));
    }
    id
}

/// `GET /v1/sweep/{id}` of a finished job through `api::route`: checks the
/// answer is the job's CSV, returns its allocations and bytes allocated on
/// this thread.
fn fetch(state: &Arc<AppState>, id: u64) -> (u64, u64) {
    let request = Request {
        method: "GET".to_string(),
        target: format!("/v1/sweep/{id}"),
        http1_0: false,
        headers: vec![("accept".to_string(), "text/csv".to_string())],
        body: Vec::new(),
    };
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let (_, response) = api::route(state, &request);
    let after = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let Some(JobView::Finished(done)) = state.jobs.poll(id) else {
        panic!("job {id} is not finished");
    };
    assert_eq!(response.status, 200);
    assert_eq!(&*response.body, done.csv.as_bytes());
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn a_sweep_job_and_its_fetch_allocate_within_their_pins() {
    let _turn = turn();
    warm_process();
    // A one-cell job first, on a state of its own: it takes the process's
    // one-time allocations of a job, and the measured job's registry holds
    // no finished job, whose polls would allocate.
    let warm = state();
    let one_cell = ScenarioGrid::builder()
        .scenarios(&[ScenarioId::S1])
        .processors(ProcessorAxis::Fixed(vec![256.0]))
        .build()
        .unwrap();
    let small = run_job(&warm, one_cell);
    let state = state();
    let grid = ledger_grid();
    assert_eq!(grid.len(), 27_648);
    let before = (
        PROCESS_ALLOCS.load(Ordering::SeqCst),
        PROCESS_REALLOCS.load(Ordering::SeqCst),
    );
    let id = run_job(&state, grid);
    let after = (
        PROCESS_ALLOCS.load(Ordering::SeqCst),
        PROCESS_REALLOCS.load(Ordering::SeqCst),
    );
    let what = "27,648-cell 4-range job at 1 thread";
    let Some(JobView::Finished(done)) = state.jobs.poll(id) else {
        panic!("job {id} is not finished");
    };
    assert_eq!(
        (done.csv.len(), fnv1a64(done.csv.as_bytes())),
        SWEEP_JOB_CSV,
        "{what}: CSV length and digest"
    );
    assert_eq!(
        (done.cache.misses, done.cache.hits),
        SWEEP_JOB_CACHE,
        "{what}: cache misses and hits"
    );
    within(
        what,
        "reallocs",
        after.1 - before.1,
        SWEEP_JOB.reallocs,
        SLACK,
    );
    within(
        what,
        "allocs",
        after.0 - before.0,
        SWEEP_JOB.allocs,
        JOB_SLACK,
    );
    check(
        "GET of a finished 27,648-row job",
        fetch(&state, id),
        FINISHED_FETCH,
    );
    check(
        "GET of a finished 1-row job",
        fetch(&warm, small),
        FINISHED_FETCH,
    );
}

#[test]
fn the_ledger_grid_searches_once_per_distinct_evaluation() {
    let _turn = turn();
    let grid = ledger_grid();
    let cached = state().options.with_threads(1);
    assert!(cached.cache_capacity.is_some(), "the server caches");
    for (options, (what, pin)) in [cached, cached.with_cache_capacity(None)]
        .into_iter()
        .zip(SEARCHES)
    {
        let search = SweepExecutor::new(options).run(&grid).search;
        assert_eq!(
            SearchPin {
                fast: search.fast,
                fallback: search.fallback,
                brent_iterations: search.brent_iterations,
            },
            pin,
            "searches of the 27,648-cell ledger grid at 1 thread, {what}"
        );
    }
}

#[test]
fn a_served_query_allocates_within_its_pins() {
    let _turn = turn();
    warm_process();
    let state = state();
    check(
        "cold /v1/optimize",
        serve(&state, &request("/v1/optimize", QUERY, false)),
        COLD_OPTIMIZE,
    );
    check(
        "warm /v1/optimize (JSON)",
        serve(&state, &request("/v1/optimize", QUERY, false)),
        WARM_OPTIMIZE_JSON,
    );
    check(
        "warm /v1/optimize (CSV)",
        serve(&state, &request("/v1/optimize", QUERY, true)),
        WARM_OPTIMIZE_CSV,
    );
}

#[test]
fn a_served_batch_slice_allocates_within_its_pins() {
    let _turn = turn();
    warm_process();
    let state = state();
    check(
        "cold 8-query /v1/batch",
        serve(&state, &request("/v1/batch", BATCH, false)),
        COLD_BATCH_JSON,
    );
    check(
        "warm 8-query /v1/batch (JSON)",
        serve(&state, &request("/v1/batch", BATCH, false)),
        WARM_BATCH_JSON,
    );
    check(
        "warm 8-query /v1/batch (CSV)",
        serve(&state, &request("/v1/batch", BATCH, true)),
        WARM_BATCH_CSV,
    );
}

/// The chunk uploads of `shard`'s rows, `lines` being the shard's CSV lines,
/// framed as a worker frames them: `rows / 16` rows per chunk, clamped to
/// 16..=512, each with the manifest snapshot after its last row.
fn chunk_uploads(
    state: &Arc<AppState>,
    grid: &ScenarioGrid,
    job: u64,
    dispatch: &ayd_serve::coordinator::Dispatch,
    token: u64,
    lines: &[&str],
) -> Vec<Vec<u8>> {
    let spec = ShardSpec::new(dispatch.shard, dispatch.count).unwrap();
    let manifest = SweepManifest::new(grid, &state.options, spec);
    let path = format!(
        "/v1/sweep/{job}/shards/{}/chunk?worker={}&token={token:016x}&epoch={}",
        dispatch.shard, dispatch.worker, dispatch.epoch
    );
    let chunk_rows = (lines.len() / 16).clamp(16, 512);
    lines
        .chunks(chunk_rows)
        .enumerate()
        .map(|(c, run)| {
            let from = c * chunk_rows;
            let mut snapshot = manifest.clone();
            snapshot.completed = from + run.len();
            let rows: String = run.iter().flat_map(|line| [*line, "\n"]).collect();
            let chunk = ShardChunk::new(snapshot, from, rows).unwrap();
            request(&path, &chunk.render(), false)
        })
        .collect()
}

#[test]
fn the_poll_that_finishes_a_distributed_job_allocates_within_its_pin() {
    let _turn = turn();
    warm_process();
    let state = AppState::new(&ServerConfig {
        threads: 1,
        cluster: ClusterConfig {
            coordinator: true,
            ..ClusterConfig::default()
        },
        ..ServerConfig::default()
    });
    let coordinator = Arc::clone(state.coordinator.as_ref().unwrap());
    let grid = ledger_grid();
    let csv = SweepExecutor::new(state.options.with_threads(2))
        .run(&grid)
        .to_csv();
    let lines: Vec<&str> = csv.lines().skip(1).collect();
    let shards = 4;
    let id = state
        .jobs
        .try_submit(1, |id| {
            coordinator.submit(
                id,
                "{}".to_string(),
                grid.fingerprint(),
                state.options.output_fingerprint(),
                shards,
                grid.len(),
            );
            JobHandle::Distributed(DistributedJobHandle {
                coordinator: Arc::clone(&coordinator),
                id,
            })
        })
        .expect("no job is running");
    // Two workers take the shards in two waves, as the benchmark's do, and
    // their uploads interleave: the second shard of a wave waits in its
    // buffer until the first completes.
    let now = Instant::now();
    let tokens = [
        coordinator.register_worker("127.0.0.1:1", now),
        coordinator.register_worker("127.0.0.1:2", now),
    ];
    loop {
        let plan = coordinator.dispatch_plan(now);
        if plan.is_empty() {
            break;
        }
        let waves: Vec<Vec<Vec<u8>>> = plan
            .iter()
            .map(|dispatch| {
                let token = tokens
                    .iter()
                    .find(|(w, _)| *w == dispatch.worker)
                    .unwrap()
                    .1;
                let range = ShardSpec::new(dispatch.shard, shards)
                    .unwrap()
                    .range(grid.len());
                chunk_uploads(&state, &grid, id, dispatch, token, &lines[range])
            })
            .collect();
        for c in 0..waves.iter().map(Vec::len).max().unwrap() {
            for uploads in &waves {
                if let Some(upload) = uploads.get(c) {
                    serve(&state, upload);
                }
            }
        }
    }
    assert!(coordinator.job_finished(id));
    let poll =
        format!("GET /v1/sweep/{id} HTTP/1.1\r\nhost: ledger\r\naccept: application/json\r\n\r\n");
    let shutdown = AtomicBool::new(false);
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let out = serve_chunks(&[poll.as_bytes()], &state, &shutdown);
    let after = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let out = String::from_utf8(out).unwrap();
    assert!(out.starts_with("HTTP/1.1 200"), "{out}");
    assert!(out.contains(r#""status":"done""#), "{out}");
    let Some(JobView::Finished(done)) = state.jobs.poll(id) else {
        panic!("job {id} is not finished");
    };
    assert_eq!(
        (done.csv.len(), fnv1a64(done.csv.as_bytes())),
        SWEEP_JOB_CSV,
        "the distributed job's CSV is the local job's"
    );
    check(
        "the poll that finishes a 27,648-row distributed job",
        (after.0 - before.0, after.1 - before.1),
        FINISHING_POLL,
    );
}
