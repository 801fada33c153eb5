//! Parallel execution of a [`ScenarioGrid`] over a self-scheduling worker pool.
//!
//! [`SweepExecutor`] evaluates every cell of a grid — exact model, first-order
//! model and (optionally) either simulation engine — over `std::thread::scope`
//! workers that pull cells from a shared atomic work queue (the same
//! work-sharing scheme as `ayd-sim`'s batch replication: no idle worker while
//! cells remain, no per-worker queues to balance).
//!
//! ## Determinism contract
//!
//! For a given grid and base seed the results are **bit-identical regardless of
//! the worker-thread count**:
//!
//! * every cell's analytic evaluation depends only on the cell and the options;
//! * every cell's simulations are seeded from `(base seed, cell index)` with
//!   the same SplitMix64 derivation as `ayd_sim::rng::rng_for_replicate`, never
//!   from scheduling order;
//! * each row is rendered to its CSV line by the worker that evaluated it,
//!   into a text buffer the worker keeps across chunks, and a reorder buffer
//!   releases rendered chunks in cell order into the results and the
//!   streaming sink, one chunk per sink call.
//!
//! The memoisation cache (see [`crate::cache`]) only short-circuits
//! recomputation of deterministic values, so cache on/off also yields identical
//! results. The cache is keyed by exactly what an evaluation reads (the
//! model, the fixed `P` and the search ranges), not by the failure law, which
//! no analytic series reads: a grid's `exp` and `weibull:0.7` twin cells share
//! one period search. With the cache on, a worker evaluates each *block* — a
//! run of consecutive cells whose evaluation inputs agree bit for bit, such as
//! a grid's pattern-length axis — once, with one cache lookup that counts as
//! one per cell; with it off, every cell is evaluated on its own, so the
//! cache-off run stays the per-cell oracle. Both halves of the contract are
//! asserted by the property suite.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use ayd_core::{
    CheckpointCost, ExactModel, FailureModel, FailureModelSpec, FirstOrder, ModelAt, ProfileSpec,
    ResilienceCosts, SpeedupProfile, VerificationCost,
};
use ayd_optim::SearchReport;
use ayd_platforms::{ExperimentSetup, PlatformId};
use ayd_sim::rng::splitmix64;
use ayd_sim::{ArrivalLaw, EngineKind, SimulationConfig, Simulator};

use crate::cache::{quantized, CacheKey, CacheStats, ShardedEvalCache};
use crate::evaluate::{Evaluator, OperatingPoint, OptimumComparison, SimSummary};
use crate::grid::{ScenarioGrid, SweepCell};
use crate::options::RunOptions;
use crate::sink::{CsvWriter, SweepSink, CSV_HEADER};

/// The closed-form joint optimum of Theorem 2/3 (`P*`, `T*`, `H*`), recorded
/// alongside the practical first-order point for asymptotic-slope fits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedForm {
    /// Closed-form optimal processor count `P*`.
    pub processors: f64,
    /// Closed-form optimal period `T*`.
    pub period: f64,
    /// Closed-form overhead `H*`.
    pub overhead: f64,
}

/// Options of a sweep execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepOptions {
    /// Fidelity/seed/simulate options shared with the experiment runners,
    /// and the worker-thread count (`run.threads`, `None` = all available
    /// cores).
    pub run: RunOptions,
    /// Memoisation-cache capacity (`None` disables caching).
    pub cache_capacity: Option<usize>,
    /// Also simulate the event-stream engine at the primary operating point of
    /// every cell (the engine-ablation mode).
    pub compare_engines: bool,
    /// Simulate the first-order operating point (when simulation is on).
    pub simulate_first_order: bool,
    /// Simulate the numerical operating point of jointly-optimised cells.
    pub simulate_numerical: bool,
    /// Processor search range of the numerical optimiser.
    pub processor_range: (f64, f64),
    /// Period search range of the numerical optimiser.
    pub period_range: (f64, f64),
}

impl SweepOptions {
    /// Default sweep options for the given run options: the run options'
    /// thread/cache knobs (all cores, 4096-entry cache by default), the
    /// window-sampling engine for the primary simulations, and the default
    /// `Evaluator` search ranges.
    pub fn new(run: RunOptions) -> Self {
        let reference = Evaluator::new(run);
        Self {
            run,
            cache_capacity: run.cache.then_some(4096),
            compare_engines: false,
            simulate_first_order: true,
            simulate_numerical: true,
            processor_range: reference.processor_range,
            period_range: reference.period_range,
        }
    }

    /// Sets an explicit worker-thread count (`run.threads`).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.run.threads = Some(threads.max(1));
        self
    }

    /// Sets the cache capacity, or disables caching with `None`.
    pub fn with_cache_capacity(mut self, capacity: Option<usize>) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Enables the engine-comparison mode (adds an event-stream simulation at
    /// the primary operating point of every cell).
    pub fn with_compare_engines(mut self, compare: bool) -> Self {
        self.compare_engines = compare;
        self
    }

    /// Controls whether the first-order operating point is simulated (when
    /// simulation is on).
    pub fn with_simulate_first_order(mut self, simulate: bool) -> Self {
        self.simulate_first_order = simulate;
        self
    }

    /// Controls whether the numerical point of jointly-optimised cells is
    /// simulated.
    pub fn with_simulate_numerical(mut self, simulate: bool) -> Self {
        self.simulate_numerical = simulate;
        self
    }

    /// Overrides the processor search range of the numerical optimiser.
    pub fn with_processor_range(mut self, lo: f64, hi: f64) -> Self {
        self.processor_range = (lo, hi);
        self
    }

    /// Overrides the period search range of the numerical optimiser.
    pub fn with_period_range(mut self, lo: f64, hi: f64) -> Self {
        self.period_range = (lo, hi);
        self
    }

    /// A 64-bit fingerprint of every option that can change the *bytes* of a
    /// sweep's output. Worker-thread count and cache capacity are deliberately
    /// excluded (the determinism contract guarantees they never matter), so a
    /// shard computed with `--threads 8` merges cleanly with one computed
    /// single-threaded. Used by shard manifests to refuse cross-configuration
    /// resumes and merges.
    pub fn output_fingerprint(&self) -> u64 {
        use crate::grid::{bits_or_marker, mix};
        let mut h: u64 = 0x0B71_0555_F17E_9A2D;
        h = mix(h, self.run.seed);
        h = mix(h, self.run.simulate as u64);
        h = mix(
            h,
            match self.run.fidelity {
                crate::options::Fidelity::Smoke => 0,
                crate::options::Fidelity::Standard => 1,
                crate::options::Fidelity::Paper => 2,
            },
        );
        // Primary simulations always use the window-sampling engine; its tag
        // (0) stays in the hash, so manifests written while the engine was
        // selectable still resume and merge.
        h = mix(h, 0);
        h = mix(h, self.compare_engines as u64);
        h = mix(h, self.simulate_first_order as u64);
        h = mix(h, self.simulate_numerical as u64);
        h = mix(h, bits_or_marker(Some(self.processor_range.0)));
        h = mix(h, bits_or_marker(Some(self.processor_range.1)));
        h = mix(h, bits_or_marker(Some(self.period_range.0)));
        h = mix(h, bits_or_marker(Some(self.period_range.1)));
        h
    }
}

/// One evaluated cell of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Platform of the cell.
    pub platform: PlatformId,
    /// Scenario number (1–6).
    pub scenario: usize,
    /// Speedup profile of the cell.
    pub profile: SpeedupProfile,
    /// Failure-arrival model the cell's simulations sample from. The analytic
    /// series always assume the paper's exponential model, so a
    /// non-exponential row measures the model's misspecification error.
    pub failure_model: FailureModelSpec,
    /// Amdahl-equivalent sequential fraction (`α` for Amdahl, `0` for
    /// perfectly parallel, `None` for extension profiles).
    pub alpha: Option<f64>,
    /// Individual error rate `λ_ind` of the cell.
    pub lambda_ind: f64,
    /// Ratio of `λ_ind` to the platform's measured rate.
    pub lambda_multiplier: f64,
    /// Fixed processor count of the cell (`None` when `P` was optimised).
    pub fixed_processors: Option<f64>,
    /// Order `x` with `P = λ_ind^{-x}` (lambda-order axes only).
    pub processor_order: Option<f64>,
    /// Fixed pattern length `T` of the cell, when prescribed.
    pub pattern_length: Option<f64>,
    /// First-order series: the joint first-order point for optimised cells, or
    /// Theorem 1's `T*_P` at the cell's fixed `P`.
    pub first_order: Option<OperatingPoint>,
    /// Closed-form joint optimum (Theorem 2/3), when it exists.
    pub closed_form: Option<ClosedForm>,
    /// Exact-model series: the numerical joint optimum, or the numerically
    /// optimal period at the cell's fixed `P`.
    pub numerical: OperatingPoint,
    /// Exact evaluation (and optional simulation) of the prescribed pattern,
    /// when the cell fixes the pattern length.
    pub prescribed: Option<OperatingPoint>,
    /// Event-stream simulation at the primary operating point, in
    /// engine-comparison mode.
    pub stream_simulated: Option<SimSummary>,
}

impl SweepRow {
    /// The primary operating point of the row: the prescribed pattern when the
    /// cell fixes one, the first-order point when it exists, the numerical
    /// optimum otherwise.
    pub fn primary_point(&self) -> OperatingPoint {
        self.prescribed
            .or(self.first_order)
            .unwrap_or(self.numerical)
    }

    /// The first-order/numerical pair as an [`OptimumComparison`].
    pub fn comparison(&self) -> OptimumComparison {
        OptimumComparison {
            first_order: self.first_order,
            numerical: self.numerical,
        }
    }
}

/// All rows of a sweep, in cell order, plus cache and search counters and
/// the rows' CSV lines as the workers rendered them.
#[derive(Debug, Clone, Default)]
pub struct SweepResults {
    /// One row per grid cell, in the grid's deterministic order.
    pub rows: Vec<SweepRow>,
    /// Hit/miss/eviction counters of the memoisation cache (all zero when the
    /// cache was disabled).
    pub cache: CacheStats,
    /// Fast/fallback tallies of the warm-started search (all zero when every
    /// cell was a cache hit). Like the cache counters, these may vary with
    /// thread scheduling (concurrent misses can compute twice) and are
    /// therefore never part of the CSV output.
    pub search: SearchReport,
    /// The CSV lines of `rows`, in order, each rendered once by the worker
    /// that evaluated its row and appended by the run's `String` sink.
    body: String,
}

impl SweepResults {
    /// The canonical sweep CSV of the rows (see [`crate::sink`]): the header
    /// followed by the lines the workers rendered, so it equals
    /// [`crate::sink::csv_text`] of `rows` without rendering them again.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(CSV_HEADER.len() + 1 + self.body.len());
        out.push_str(CSV_HEADER);
        out.push('\n');
        out.push_str(&self.body);
        out
    }

    /// The CSV lines of the rows without the header: what a job made of
    /// several runs concatenates.
    pub fn csv_body(&self) -> &str {
        &self.body
    }
}

/// The row count and cache counters of a streamed sweep, which keeps
/// neither rows nor text: what [`SweepExecutor::run_cells_streamed`]
/// returns. A caller that wants the CSV text passes a sink that keeps it
/// (a `String` appends every line).
#[derive(Debug, Clone, Default)]
pub struct StreamedSweep {
    /// Number of lines the sink received: the evaluated in-order prefix of
    /// the cells.
    pub rows: usize,
    /// Hit/miss/eviction counters of the memoisation cache, as in
    /// [`SweepResults::cache`].
    pub cache: CacheStats,
    /// The run's search tally, which [`SweepExecutor::run_cells`] hands on
    /// as [`SweepResults::search`].
    search: SearchReport,
}

/// Cached analytic (simulation-free) evaluation of one configuration.
///
/// Deliberately independent of the cell's fixed pattern length: the optimiser
/// evaluations (joint search, or period search at fixed `P`) are the expensive
/// part of a sweep, and grids crossing pattern lengths with the other axes
/// reuse them; the exact-model evaluation of a prescribed `(T, P)` is a cheap
/// closed form computed outside the cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticEval {
    /// First-order series (joint first-order point, or Theorem 1's `T*_P` at
    /// the fixed `P`); absent when the closed forms do not apply.
    pub first_order: Option<OperatingPoint>,
    /// Closed-form joint optimum (Theorem 2/3), when it exists.
    pub closed_form: Option<ClosedForm>,
    /// Numerical optimum of the exact model (joint, or at the fixed `P`).
    pub numerical: OperatingPoint,
}

/// Derives the simulation base seed of a cell from the sweep seed and the cell
/// index (same SplitMix64 scheme as `ayd_sim::rng::rng_for_replicate`, so the
/// result depends only on the grid order, never on thread scheduling).
pub fn cell_seed(base_seed: u64, cell_index: usize) -> u64 {
    splitmix64(base_seed ^ splitmix64(cell_index as u64 ^ 0xCE11_5EED_0000_0000))
}

/// Parallel, deterministic sweep executor.
#[derive(Debug, Clone, Copy)]
pub struct SweepExecutor {
    /// Execution options.
    pub options: SweepOptions,
}

impl SweepExecutor {
    /// Creates an executor with the given options.
    pub fn new(options: SweepOptions) -> Self {
        Self { options }
    }

    /// Evaluates every cell of the grid and returns the rows in cell order.
    pub fn run(&self, grid: &ScenarioGrid) -> SweepResults {
        self.run_cells(&grid.cells())
    }

    /// Evaluates an explicit cell list (e.g. one shard of a grid, from
    /// [`ScenarioGrid::shard_cells`]) and returns the rows in list order.
    /// Each cell keeps its own (global) `index`, so seeding — and therefore
    /// every value — matches the full-grid run of the same cells.
    pub fn run_cells(&self, cells: &[SweepCell]) -> SweepResults {
        let mut body = String::new();
        let (rows, run) = run_cells(&self.options, cells, &mut body, None, None, true);
        SweepResults {
            rows,
            cache: run.cache,
            search: run.search,
            body,
        }
    }

    /// [`Self::run_cells`] for a caller that only streams CSV, with a
    /// streaming sink, cooperative cancellation and an external progress
    /// counter (advanced by a chunk's cell count once the chunk is rendered:
    /// an eighth of a worker's share of the cells, clamped to 8–64, or 1
    /// when simulating). Every line reaches `sink` and nothing else: no
    /// [`SweepRow`] and no text is kept. Cancelling stops workers from
    /// picking up new cells; cells already started finish, and the sink
    /// receives the lines of the completed in-order prefix. `ayd-serve`'s
    /// local sweep jobs (whose sink is the job's CSV) and cluster workers
    /// and the file-backed shard runner
    /// ([`crate::shard::run_shard_to_files`]) run their ranges through it.
    pub fn run_cells_streamed(
        &self,
        cells: &[SweepCell],
        sink: &mut dyn SweepSink,
        cancel: Option<&AtomicBool>,
        progress: Option<&AtomicUsize>,
    ) -> StreamedSweep {
        run_cells(&self.options, cells, sink, cancel, progress, false).1
    }
}

/// The parallel core of [`SweepExecutor::run_cells`] and
/// [`SweepExecutor::run_cells_streamed`]: a self-scheduling scoped worker
/// pool over `cells`, with optional cooperative cancellation and a progress
/// counter. Returns the rows in cell order (none unless `keep_rows`) and
/// the run's row count and counters.
fn run_cells(
    options: &SweepOptions,
    cells: &[SweepCell],
    sink: &mut dyn SweepSink,
    cancel: Option<&AtomicBool>,
    progress: Option<&AtomicUsize>,
    keep_rows: bool,
) -> (Vec<SweepRow>, StreamedSweep) {
    if cells.is_empty() {
        // Still honour the sink contract: finish() runs (and flushes) even
        // when no rows were produced.
        sink.finish();
        return Default::default();
    }
    // Tracing reads clocks and counters only — never values — so the
    // determinism contract (CSV bytes identical with tracing on or off)
    // holds by construction.
    let mut sweep_span = ayd_obs::span("sweep");
    let workers = options
        .run
        .threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .clamp(1, cells.len());
    // One shard per worker (rounded up to a power of two) keeps concurrent
    // misses on distinct keys from serialising on a single mutex.
    let cache = options
        .cache_capacity
        .map(|capacity| ShardedEvalCache::<AnalyticEval>::new(cache_shards(workers), capacity));

    let next_cell = AtomicUsize::new(0);
    // Full-report merge (fast/fallback plus Brent-iteration and per-reason
    // tallies) under a mutex taken once per chunk, not per cell.
    let search_total = Mutex::new(SearchReport::default());
    let emitter = Mutex::new(Emitter {
        pending: std::collections::BTreeMap::new(),
        spare: Vec::new(),
        released: 0,
        rows: Vec::with_capacity(if keep_rows { cells.len() } else { 0 }),
        sink,
    });
    // Analytic-only sweeps pull chunks from the work queue, so that a
    // chunk's span, the search tally, the progress counter and the emitter
    // lock are paid once per chunk, and a block's cells mostly share one
    // chunk. A chunk is an eighth of a worker's share of the cells, clamped
    // to 8–64: a large run pays those costs once per 64 cells, and a run of
    // fewer than 64 cells per worker keeps 8-cell chunks, so cancellation,
    // progress and early stops keep their granularity there. Simulating
    // sweeps keep per-cell scheduling (each cell is expensive, so load
    // balance matters more than amortisation). Chunking cannot affect the
    // output: rows keep their global indices through the reorder buffer,
    // and every evaluation depends only on its cell (a block cut by a chunk
    // boundary is looked up once per part).
    let chunk = if options.run.simulate {
        1
    } else {
        (cells.len() / (workers * 8)).clamp(8, 64)
    };

    if sweep_span.is_recording() {
        sweep_span.field_u64("cells", cells.len() as u64);
        sweep_span.field_u64("workers", workers as u64);
        sweep_span.field_u64("chunk", chunk as u64);
        sweep_span.field_bool("simulate", options.run.simulate);
    }
    let sweep_ctx = sweep_span.context();

    // Panics in workers propagate when the scope joins them at the end.
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut writer = CsvWriter::new();
                // The worker's chunk, rendered into buffers it keeps: the
                // emitter empties them, or swaps them for emptied ones, so
                // in steady state no chunk allocates.
                let mut text = String::new();
                let mut rows = Vec::new();
                loop {
                    if cancel.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
                        break;
                    }
                    let start = next_cell.fetch_add(chunk, Ordering::Relaxed);
                    if start >= cells.len() {
                        break;
                    }
                    let batch = &cells[start..(start + chunk).min(cells.len())];
                    // Room for the whole chunk up front (a no-op once the
                    // buffer has it), rather than growing line by line.
                    text.reserve(batch.len() * LINE_BYTES);
                    let mut chunk_span = ayd_obs::child_of(sweep_ctx, "chunk");
                    // Each row is rendered here, by the writer of the worker
                    // that evaluated it, and the emitter lock is taken once
                    // per chunk.
                    let EvalObservation { search, blocks, .. } =
                        evaluate_cells(batch, options, cache.as_ref(), |row| {
                            writer.write_line(&mut text, &row);
                            if keep_rows {
                                rows.push(row);
                            }
                        });
                    if chunk_span.is_recording() {
                        chunk_span.field_u64("start_cell", batch[0].index as u64);
                        chunk_span.field_u64("cells", batch.len() as u64);
                        chunk_span.field_u64("blocks", blocks);
                        chunk_span.field_u64("search_fast", search.fast);
                        chunk_span.field_u64("search_fallback", search.fallback);
                        chunk_span.field_u64("brent_iterations", search.brent_iterations);
                    }
                    search_total
                        .lock()
                        .expect("search tally poisoned")
                        .merge(&search);
                    // Counted before the emitter lock: a sink may hold that
                    // lock while its caller waits for progress.
                    if let Some(counter) = progress {
                        counter.fetch_add(batch.len(), Ordering::Relaxed);
                    }
                    emitter.lock().expect("emitter poisoned").push(
                        start,
                        batch.len(),
                        &mut text,
                        &mut rows,
                    );
                }
                // Workers only produce child spans; drain this thread's
                // buffer before the scope joins it.
                ayd_obs::flush();
            });
        }
    });

    let emitter = emitter.into_inner().expect("emitter poisoned");
    debug_assert!(
        cancel.is_some() || emitter.pending.is_empty(),
        "all cells must have drained"
    );
    let run = StreamedSweep {
        rows: emitter.released,
        cache: cache.map(|c| c.stats()).unwrap_or_default(),
        search: search_total.into_inner().expect("search tally poisoned"),
    };
    emitter.sink.finish();
    if sweep_span.is_recording() {
        sweep_span.field_u64("rows", run.rows as u64);
        sweep_span.field_u64("cache_hits", run.cache.hits);
        sweep_span.field_u64("cache_misses", run.cache.misses);
        sweep_span.field_u64("search_fast", run.search.fast);
        sweep_span.field_u64("search_fallback", run.search.fallback);
    }
    sweep_span.finish();
    (emitter.rows, run)
}

/// The length of a typical sweep CSV line, rounded up (the benchmark grid's
/// lines average 164 bytes): a worker reserves this much per cell of a chunk.
const LINE_BYTES: usize = 168;

/// True when cell `b` shares cell `a`'s analytic evaluation and cache key:
/// their setups and fixed `P` agree bit for bit (by `to_bits`, so `0.0` and
/// `-0.0` stay apart), so every [`EvalInputs`] field does. The failure law is
/// not compared: no evaluation reads it, and each cell's row and simulations
/// take the cell's own.
fn same_block(a: &SweepCell, b: &SweepCell) -> bool {
    let bits = |value: Option<f64>| value.map(f64::to_bits);
    // Destructured in full, so a new setup field cannot be left out.
    let ExperimentSetup {
        platform,
        scenario,
        profile,
        downtime,
        lambda_ind_override,
    } = a.setup;
    let (profile, other_profile) = (
        ProfileSpec::from(profile),
        ProfileSpec::from(b.setup.profile),
    );
    platform == b.setup.platform
        && scenario == b.setup.scenario
        && profile.kind_tag() == other_profile.kind_tag()
        && bits(profile.param()) == bits(other_profile.param())
        && downtime.to_bits() == b.setup.downtime.to_bits()
        && bits(lambda_ind_override) == bits(b.setup.lambda_ind_override)
        && bits(a.fixed_processors) == bits(b.fixed_processors)
}

/// Shard count used for a given worker count: the next power of two, capped
/// at 16 (beyond that the shards outnumber any realistic lock contention).
/// Public because the `ayd-serve` process-wide cache sizes itself with the
/// same policy.
pub fn cache_shards(workers: usize) -> usize {
    workers.max(1).next_power_of_two().min(16)
}

/// One parked chunk's CSV lines, back to back in `text` (each line ends in
/// its only newline), and its rows when the run keeps them.
struct RenderedChunk {
    cells: usize,
    rows: Vec<SweepRow>,
    text: String,
}

/// Reorder buffer: releases chunks in cell order — the text of each into the
/// streaming sink in one call, any rows into the final ordered vector — and
/// parks the chunks that arrive ahead of the frontier.
struct Emitter<'a> {
    pending: std::collections::BTreeMap<usize, RenderedChunk>,
    /// Emptied text buffers of released parked chunks, handed to the next
    /// workers that park one.
    spare: Vec<String>,
    /// Cells released so far: the start of the next chunk in order.
    released: usize,
    rows: Vec<SweepRow>,
    sink: &'a mut dyn SweepSink,
}

impl Emitter<'_> {
    /// Takes a worker's chunk of `cells` cells whose first cell is `start`
    /// (an index into the run's cell list), its lines in `text` and any rows
    /// in `rows`, and releases every chunk that is now next in order. An
    /// in-order chunk goes to the sink straight from the worker's buffer; one
    /// ahead of the frontier is parked, and the worker gets an emptied
    /// buffer in exchange. Either way `text` and `rows` come back empty.
    fn push(&mut self, start: usize, cells: usize, text: &mut String, rows: &mut Vec<SweepRow>) {
        if start != self.released {
            let spare = self.spare.pop().unwrap_or_default();
            let chunk = RenderedChunk {
                cells,
                rows: std::mem::take(rows),
                text: std::mem::replace(text, spare),
            };
            self.pending.insert(start, chunk);
            return;
        }
        self.release(cells, text, rows);
        while let Some(mut chunk) = self.pending.remove(&self.released) {
            self.release(chunk.cells, &mut chunk.text, &mut chunk.rows);
            self.spare.push(chunk.text);
        }
    }

    /// Hands one in-order chunk to the sink and the rows, emptying `text`
    /// and `rows`.
    fn release(&mut self, cells: usize, text: &mut String, rows: &mut Vec<SweepRow>) {
        self.sink.on_rows(text, cells);
        text.clear();
        self.released += cells;
        self.rows.append(rows);
    }
}

/// Everything one analytic evaluation reads: the exact model, the fixed
/// processor count (`None` when `P` is optimised) and the optimiser's search
/// ranges. The evaluation takes this value and nothing else, and its cache
/// key is computed from every field of it, so no input can reach the search
/// without reaching the key. The failure law is not one of them: the
/// analytic series (Proposition 1's exact overhead, Theorems 1–3) read
/// `λ_ind` and `f`, never the arrival law.
#[derive(Debug, Clone, Copy)]
struct EvalInputs {
    model: ExactModel,
    fixed_processors: Option<f64>,
    processor_range: (f64, f64),
    period_range: (f64, f64),
}

impl EvalInputs {
    fn new(model: &ExactModel, fixed_processors: Option<f64>, options: &SweepOptions) -> Self {
        Self {
            model: *model,
            fixed_processors,
            processor_range: options.processor_range,
            period_range: options.period_range,
        }
    }

    /// The words of the memoisation key: every input, quantized, on the
    /// stack. The profile enters as its family tag and parameter, so
    /// `powerlaw:0.8` and `gustafson:0.8` never collide; an optimised `P` is
    /// NaN-marked.
    fn cache_words(&self) -> [u64; 15] {
        // Destructured in full, so a new model field cannot be left out.
        let EvalInputs {
            model:
                ExactModel {
                    speedup,
                    costs:
                        ResilienceCosts {
                            checkpoint: CheckpointCost { a, b, c },
                            verification: VerificationCost { v, u },
                            downtime,
                        },
                    failures:
                        FailureModel {
                            lambda_ind,
                            fail_stop_fraction,
                        },
                },
            fixed_processors,
            processor_range,
            period_range,
        } = *self;
        let absent = f64::NAN;
        let profile = ProfileSpec::from(speedup);
        quantized([
            lambda_ind,
            fail_stop_fraction,
            profile.kind_tag() as f64,
            profile.param().unwrap_or(absent),
            a,
            b,
            c,
            v,
            u,
            downtime,
            fixed_processors.unwrap_or(absent),
            processor_range.0,
            processor_range.1,
            period_range.0,
            period_range.1,
        ])
    }
}

/// The memoisation key of one analytic evaluation: the quantized inputs it
/// reads (see [`evaluate_analytic`]) — the model, including the
/// speedup-profile family tag and its parameter, the fixed processor count
/// (NaN-marked when `P` is optimised) and the optimiser search ranges.
/// `failure_model` does not enter the key, because no evaluation reads it:
/// `exp`, `weibull:0.7` and a trace at one `λ_ind` share one entry (a
/// pinned rate is folded into the model's `λ_ind` before any evaluation).
/// Shared by the sweep executor and the `ayd-serve` query service, so both
/// populate the same cache entries.
pub fn analytic_cache_key(
    model: &ExactModel,
    fixed_processors: Option<f64>,
    _failure_model: &FailureModelSpec,
    options: &SweepOptions,
) -> CacheKey {
    CacheKey::from(EvalInputs::new(model, fixed_processors, options).cache_words())
}

/// The analytic (simulation-free) evaluation of one configuration, optionally
/// memoised in a shared [`ShardedEvalCache`].
///
/// This is the cache-or-compute step that [`evaluate_cells`] takes once per
/// block, for a bare model: its values are bit-identical to a sweep over
/// the same configuration (and to the offline [`Evaluator`], which it
/// delegates to). It reads the model, the fixed `P` and `options`' search
/// ranges; like [`analytic_cache_key`], it does not read `failure_model`.
pub fn evaluate_analytic(
    model: &ExactModel,
    fixed_processors: Option<f64>,
    failure_model: &FailureModelSpec,
    options: &SweepOptions,
    cache: Option<&ShardedEvalCache<AnalyticEval>>,
) -> AnalyticEval {
    evaluate_analytic_observed(model, fixed_processors, failure_model, options, cache).0
}

/// What actually happened during one [`evaluate_analytic_observed`] or
/// [`evaluate_cells`] call: whether the optimiser ran (a cache-cold
/// evaluation) and, if so, how its scalar sub-searches split between the
/// warm-started fast path and the reference fallback. Cache hits report
/// `computed: false` and an empty search tally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalObservation {
    /// True when the optimiser ran (cache miss or cache disabled) for any
    /// block.
    pub computed: bool,
    /// Fast/fallback tallies of the scalar sub-searches of this evaluation.
    pub search: SearchReport,
    /// Evaluations made: one per block of cells that share one (see
    /// [`evaluate_cells`]); 1 for [`evaluate_analytic_observed`].
    pub blocks: u64,
}

/// [`evaluate_analytic`] plus an [`EvalObservation`], for callers that time
/// or count single evaluations of a bare model.
pub fn evaluate_analytic_observed(
    model: &ExactModel,
    fixed_processors: Option<f64>,
    _failure_model: &FailureModelSpec,
    options: &SweepOptions,
    cache: Option<&ShardedEvalCache<AnalyticEval>>,
) -> (AnalyticEval, EvalObservation) {
    evaluate_query(&EvalInputs::new(model, fixed_processors, options), cache, 1)
}

/// The one evaluation step of every cell: evaluates `cells` in order
/// against `options` and `cache` and hands each cell's [`SweepRow`] to
/// `emit`. With the cache on, each *block* — a run of consecutive cells
/// whose evaluation inputs agree bit for bit, whatever their failure laws —
/// is evaluated once, with one cache lookup that counts as one per cell;
/// with it off, every cell is a block of its own. The executor's workers
/// call it once per chunk, and `ayd-serve` once per `/v1/optimize` query and
/// once per `/v1/batch` slice, so a served answer is the sweep's row.
/// Returns the merged [`EvalObservation`] of the blocks.
pub fn evaluate_cells(
    cells: &[SweepCell],
    options: &SweepOptions,
    cache: Option<&ShardedEvalCache<AnalyticEval>>,
    mut emit: impl FnMut(SweepRow),
) -> EvalObservation {
    let mut total = EvalObservation::default();
    for block in cells.chunk_by(|a, b| cache.is_some() && same_block(a, b)) {
        let first = &block[0];
        let model = first
            .setup
            .model()
            .expect("grids and parsed queries only carry valid setups");
        let inputs = EvalInputs::new(&model, first.fixed_processors, options);
        let (analytic, observation) = evaluate_query(&inputs, cache, block.len() as u64);
        total.computed |= observation.computed;
        total.search.merge(&observation.search);
        total.blocks += observation.blocks;
        let mut kernel = None;
        for cell in block {
            emit(finish_row(cell, options, &model, &mut kernel, analytic));
        }
    }
    total
}

/// The one cache-or-compute step of the analytic kernel: answers `inputs`
/// from `cache`, with one lookup standing for `lookups` consecutive ones
/// (see [`ShardedEvalCache::get_or_insert_repeated`]), or evaluates them.
/// [`evaluate_cells`] calls it once per block of cells,
/// [`evaluate_analytic_observed`] once per query.
fn evaluate_query(
    inputs: &EvalInputs,
    cache: Option<&ShardedEvalCache<AnalyticEval>>,
    lookups: u64,
) -> (AnalyticEval, EvalObservation) {
    let mut observation = EvalObservation {
        blocks: 1,
        ..EvalObservation::default()
    };
    let mut compute = || {
        observation.computed = true;
        let (eval, search) = evaluate_with(inputs);
        observation.search = search;
        eval
    };
    let eval = match cache {
        Some(cache) => cache.get_or_insert_repeated(inputs.cache_words(), lookups, compute),
        None => compute(),
    };
    (eval, observation)
}

/// One analytic evaluation of `inputs`, through an [`Evaluator`] with their
/// search ranges and simulation off. The numerical optimum always comes from
/// the warm-started search, which is bit-identical to the reference search.
fn evaluate_with(inputs: &EvalInputs) -> (AnalyticEval, SearchReport) {
    let EvalInputs {
        ref model,
        fixed_processors,
        processor_range,
        period_range,
    } = *inputs;
    let evaluator = Evaluator::new(RunOptions::analytical_only())
        .with_processor_range(processor_range.0, processor_range.1)
        .with_period_range(period_range.0, period_range.1);
    let mut report = SearchReport::default();
    // The paper's first-order closed forms apply to the Amdahl family only
    // (including its perfectly parallel `α = 0` limit). Extension profiles
    // (power law, Gustafson) fall back to the numerical-only series — the
    // dispatch that used to live in `ayd-exp`'s extension experiment.
    let amdahl_family = model.speedup.sequential_fraction().is_some();
    let first_order_model = FirstOrder::new(model);
    let closed_form = if amdahl_family {
        first_order_model.joint_optimum().ok().map(|o| ClosedForm {
            processors: o.processors,
            period: o.period,
            overhead: o.overhead,
        })
    } else {
        None
    };
    let eval = match fixed_processors {
        Some(p) => {
            let first_order = amdahl_family.then(|| {
                let period_optimum = first_order_model.optimal_period_for(p);
                OperatingPoint {
                    processors: p,
                    period: period_optimum.period,
                    predicted_overhead: model.expected_overhead(period_optimum.period, p),
                    formula_overhead: Some(period_optimum.overhead),
                    simulated: None,
                }
            });
            let (period, overhead) = evaluator.numerical_period_for_seeded(model, p, &mut report);
            let numerical = OperatingPoint {
                processors: p,
                period,
                predicted_overhead: overhead,
                formula_overhead: None,
                simulated: None,
            };
            AnalyticEval {
                first_order,
                closed_form,
                numerical,
            }
        }
        None => {
            let first_order = if amdahl_family {
                evaluator.first_order_point(model)
            } else {
                None
            };
            AnalyticEval {
                first_order,
                closed_form,
                numerical: evaluator.numerical_point_seeded(model, &mut report),
            }
        }
    };
    (eval, report)
}

fn simulate_point(
    model: &ExactModel,
    point: &OperatingPoint,
    config: &SimulationConfig,
    law: &ArrivalLaw,
) -> SimSummary {
    let stats = Simulator::new(*model).simulate_overhead_with_law(
        point.period,
        point.processors,
        config,
        law,
    );
    SimSummary {
        mean: stats.mean,
        ci95: stats.ci95,
    }
}

/// Assembles a cell's row from its block's model and (possibly cached)
/// analytic evaluation: prescribed-pattern closed form, simulation
/// attachment policy, engine comparison. `kernel` holds the block's
/// [`ModelAt`] at its fixed `P` once a cell of the block has built it.
fn finish_row(
    cell: &SweepCell,
    options: &SweepOptions,
    model: &ExactModel,
    kernel: &mut Option<ModelAt>,
    analytic: AnalyticEval,
) -> SweepRow {
    let model = *model;
    let mut first_order = analytic.first_order;
    let closed_form = analytic.closed_form;
    let mut numerical = analytic.numerical;
    // The prescribed pattern is a cheap exact-model closed form, computed
    // outside the cache so that pattern-length axes reuse the optimiser
    // work: `at(P).overhead(T)` is `expected_overhead(T, P)`, bit for bit.
    let mut prescribed = match (cell.fixed_processors, cell.pattern_length) {
        (Some(p), Some(t)) => Some(OperatingPoint {
            processors: p,
            period: t,
            predicted_overhead: kernel.get_or_insert_with(|| model.at(p)).overhead(t),
            formula_overhead: None,
            simulated: None,
        }),
        _ => None,
    };
    let config = RunOptions {
        seed: cell_seed(options.run.seed, cell.index),
        ..options.run
    }
    .simulation_config();
    // Degenerate parameterisations (weibull:1.0, shifted:0) canonicalise to
    // the exponential law here, which keeps their rows bit-identical to
    // `exp` rows: the exponential arm of the sampler is the very code path
    // exponential cells take.
    let law = if options.run.simulate {
        ArrivalLaw::from_spec(&cell.failure_model).unwrap_or_else(|e| {
            panic!(
                "cell {}: failure model `{}` cannot simulate: {e}",
                cell.index, cell.failure_model
            )
        })
    } else {
        ArrivalLaw::Exponential
    };

    if options.run.simulate {
        match prescribed.as_mut() {
            // Fully prescribed (T, P): simulate exactly that pattern.
            Some(point) => {
                point.simulated = Some(simulate_point(&model, point, &config, &law));
            }
            None => {
                // Fixed P (Figure 3) or jointly optimised (Figures 5–6):
                // simulate the first-order point, and — for optimised cells —
                // the numerical optimum as well.
                if options.simulate_first_order {
                    if let Some(point) = first_order.as_mut() {
                        point.simulated = Some(simulate_point(&model, point, &config, &law));
                    }
                }
                if options.simulate_numerical && cell.fixed_processors.is_none() {
                    numerical.simulated = Some(simulate_point(&model, &numerical, &config, &law));
                }
            }
        }
        if !law.is_memoryless() {
            // Simulation-first policy for non-exponential cells: whatever the
            // attachment flags say, the primary point always carries a
            // simulation under the true law — it is the ground truth the
            // misspecification report compares the (exponential-model)
            // analytics against.
            let slot = prescribed
                .as_mut()
                .or(first_order.as_mut())
                .unwrap_or(&mut numerical);
            if slot.simulated.is_none() {
                slot.simulated = Some(simulate_point(&model, slot, &config, &law));
            }
        }
    }

    let stream_simulated = (options.run.simulate && options.compare_engines).then(|| {
        // Engine comparison guarantees a window-engine simulation at the
        // primary point, even when the standard policy above skipped it (e.g.
        // no first-order optimum and `simulate_numerical` off), so consumers
        // can always pair `primary_point().simulated` with this value.
        let slot = prescribed
            .as_mut()
            .or(first_order.as_mut())
            .unwrap_or(&mut numerical);
        if slot.simulated.is_none() {
            slot.simulated = Some(simulate_point(&model, slot, &config, &law));
        }
        let stream = SimulationConfig {
            engine: EngineKind::EventStream,
            ..config
        };
        simulate_point(&model, slot, &stream, &law)
    });

    SweepRow {
        platform: cell.setup.platform,
        scenario: cell.setup.scenario.number(),
        profile: cell.setup.profile,
        failure_model: cell.failure_model.clone(),
        alpha: cell.setup.alpha(),
        lambda_ind: model.failures.lambda_ind,
        lambda_multiplier: cell.lambda_multiplier,
        fixed_processors: cell.fixed_processors,
        processor_order: cell.processor_order,
        pattern_length: cell.pattern_length,
        first_order,
        closed_form,
        numerical,
        prescribed,
        stream_simulated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ProcessorAxis;
    use ayd_platforms::ScenarioId;

    fn analytic_options() -> SweepOptions {
        SweepOptions::new(RunOptions {
            simulate: false,
            ..RunOptions::smoke()
        })
    }

    fn small_fixed_grid() -> ScenarioGrid {
        ScenarioGrid::builder()
            .scenarios(&ScenarioId::ALL)
            .processors(ProcessorAxis::Fixed(vec![200.0, 800.0]))
            .build()
            .unwrap()
    }

    #[test]
    fn rows_come_back_in_cell_order_for_any_thread_count() {
        let grid = small_fixed_grid();
        let baseline = SweepExecutor::new(analytic_options().with_threads(1)).run(&grid);
        assert_eq!(baseline.rows.len(), grid.len());
        for threads in [2, 8] {
            let parallel = SweepExecutor::new(analytic_options().with_threads(threads)).run(&grid);
            assert_eq!(baseline.rows, parallel.rows, "threads={threads}");
        }
    }

    #[test]
    fn cache_dedupes_repeated_configurations_without_changing_results() {
        // A degenerate λ axis repeats the same model twice → the analytic part
        // of the second cell must come from the cache.
        let grid = ScenarioGrid::builder()
            .scenarios(&[ScenarioId::S1])
            .lambda_multipliers(&[1.0, 1.0])
            .processors(ProcessorAxis::Fixed(vec![512.0]))
            .build()
            .unwrap();
        let cached = SweepExecutor::new(analytic_options().with_threads(1)).run(&grid);
        assert!(cached.cache.hits >= 1, "stats: {:?}", cached.cache);
        let uncached =
            SweepExecutor::new(analytic_options().with_cache_capacity(None).with_threads(1))
                .run(&grid);
        assert_eq!(cached.rows, uncached.rows);
        assert_eq!(uncached.cache, CacheStats::default());
    }

    #[test]
    fn fixed_point_cells_evaluate_the_prescribed_pattern() {
        let grid = ScenarioGrid::builder()
            .scenarios(&[ScenarioId::S3])
            .processors(ProcessorAxis::Fixed(vec![512.0]))
            .pattern_lengths(&[3_600.0])
            .build()
            .unwrap();
        let results = SweepExecutor::new(analytic_options()).run(&grid);
        let row = &results.rows[0];
        let prescribed = row.prescribed.unwrap();
        assert_eq!(prescribed.period, 3_600.0);
        assert_eq!(prescribed.processors, 512.0);
        let model = row_model(row);
        assert_eq!(
            prescribed.predicted_overhead,
            model.expected_overhead(3_600.0, 512.0)
        );
        assert_eq!(row.primary_point(), prescribed);
        // The first-order period and the numerically optimal period at this P
        // are still reported for reference, and a prescribed-but-suboptimal
        // pattern cannot beat the optimised period.
        assert!(row.first_order.unwrap().period > 0.0);
        assert!(prescribed.predicted_overhead >= row.numerical.predicted_overhead - 1e-12);
    }

    #[test]
    fn pattern_length_axes_reuse_the_optimiser_evaluations() {
        // Every profile family deduplicates alike: the cache must not
        // privilege the Amdahl fast path.
        for profile in [
            SpeedupProfile::Amdahl { alpha: 0.1 },
            SpeedupProfile::PowerLaw { sigma: 0.8 },
            SpeedupProfile::Gustafson { alpha: 0.05 },
            SpeedupProfile::PerfectlyParallel,
        ] {
            let grid = ScenarioGrid::builder()
                .scenarios(&[ScenarioId::S1])
                .profiles(&[profile])
                .processors(ProcessorAxis::Fixed(vec![512.0]))
                .pattern_lengths(&[1_800.0, 3_600.0, 7_200.0])
                .build()
                .unwrap();
            let results = SweepExecutor::new(analytic_options().with_threads(1)).run(&grid);
            // One optimiser evaluation, two cache hits: the prescribed-pattern
            // evaluations are closed forms outside the cache.
            assert_eq!(results.cache.misses, 1, "{profile:?}: {:?}", results.cache);
            assert_eq!(results.cache.hits, 2, "{profile:?}: {:?}", results.cache);
            let overheads: Vec<f64> = results
                .rows
                .iter()
                .map(|r| r.prescribed.unwrap().predicted_overhead)
                .collect();
            assert!(
                overheads.windows(2).all(|w| w[0] != w[1]),
                "{profile:?}: {overheads:?}"
            );
            // All three rows share the same cached numerical optimum.
            assert!(
                results
                    .rows
                    .iter()
                    .all(|r| r.numerical == results.rows[0].numerical),
                "{profile:?}"
            );
        }
    }

    fn row_model(row: &SweepRow) -> ExactModel {
        ayd_platforms::ExperimentSetup::paper_default(
            row.platform,
            ayd_platforms::ScenarioId::from_number(row.scenario).unwrap(),
        )
        .with_profile(row.profile)
        .with_lambda_ind(row.lambda_ind)
        .model()
        .unwrap()
    }

    #[test]
    fn simulations_attach_where_the_figures_expect_them() {
        let options = SweepOptions::new(RunOptions::smoke()).with_compare_engines(true);
        let grid = ScenarioGrid::builder()
            .scenarios(&[ScenarioId::S1])
            .processors(ProcessorAxis::Fixed(vec![400.0]))
            .build()
            .unwrap();
        let row = SweepExecutor::new(options).run(&grid).rows[0].clone();
        let fo = row.first_order.unwrap();
        assert!(fo.simulated.is_some(), "fixed-P cells simulate T*_P");
        assert!(row.numerical.simulated.is_none());
        let stream = row.stream_simulated.unwrap();
        // Both engines land near the analytical prediction.
        assert!((stream.mean - fo.predicted_overhead).abs() / fo.predicted_overhead < 0.15);
    }

    #[test]
    fn engine_comparison_simulates_cells_without_a_first_order_optimum() {
        // Scenario 6 has no first-order solution; even with the numerical
        // simulation switched off, engine-comparison mode must still produce a
        // window/stream pair at the primary (numerical) point instead of
        // leaving `primary_point().simulated` empty.
        let options = SweepOptions::new(RunOptions::smoke())
            .with_compare_engines(true)
            .with_simulate_numerical(false);
        let grid = ScenarioGrid::builder()
            .scenarios(&[ScenarioId::S6])
            .build()
            .unwrap();
        let row = SweepExecutor::new(options).run(&grid).rows[0].clone();
        assert!(row.first_order.is_none());
        let primary = row.primary_point();
        assert_eq!(primary, row.numerical);
        assert!(primary.simulated.is_some());
        assert!(row.stream_simulated.is_some());
    }

    #[test]
    fn per_cell_seeds_are_deterministic_and_decorrelated() {
        assert_eq!(cell_seed(2016, 3), cell_seed(2016, 3));
        assert_ne!(cell_seed(2016, 3), cell_seed(2016, 4));
        assert_ne!(cell_seed(2016, 3), cell_seed(2017, 3));
    }

    #[test]
    fn evaluate_analytic_matches_the_offline_evaluator_bit_for_bit() {
        let model = ayd_platforms::ExperimentSetup::paper_default(
            ayd_platforms::PlatformId::Hera,
            ScenarioId::S1,
        )
        .model()
        .unwrap();
        let options = analytic_options();
        let exp = FailureModelSpec::exponential();
        let cache = crate::cache::ShardedEvalCache::new(4, 64);
        let eval = evaluate_analytic(&model, None, &exp, &options, Some(&cache));
        let evaluator = crate::evaluate::Evaluator::new(RunOptions {
            simulate: false,
            ..options.run
        });
        let cmp = evaluator.compare(&model);
        assert_eq!(eval.first_order, cmp.first_order);
        assert_eq!(eval.numerical, cmp.numerical);
        // A cached replay returns the identical value and scores a hit.
        let replay = evaluate_analytic(&model, None, &exp, &options, Some(&cache));
        assert_eq!(eval, replay);
        assert_eq!(cache.stats().hits, 1);
        // The fixed-P path matches the evaluator's period search, too.
        let fixed = evaluate_analytic(&model, Some(512.0), &exp, &options, Some(&cache));
        let (period, overhead) = evaluator.numerical_period_for(&model, 512.0);
        assert_eq!(fixed.numerical.period, period);
        assert_eq!(fixed.numerical.predicted_overhead, overhead);
    }

    #[test]
    fn extension_profiles_fall_back_to_numerical_only_series() {
        let profiles = [
            SpeedupProfile::amdahl(0.1).unwrap(),
            SpeedupProfile::power_law(0.8).unwrap(),
            SpeedupProfile::gustafson(0.05).unwrap(),
        ];
        // Jointly optimised and fixed-P cells in one grid.
        for axis in [ProcessorAxis::Optimize, ProcessorAxis::Fixed(vec![512.0])] {
            let grid = ScenarioGrid::builder()
                .scenarios(&[ScenarioId::S1])
                .profiles(&profiles)
                .processors(axis)
                .build()
                .unwrap();
            let results = SweepExecutor::new(analytic_options()).run(&grid);
            let by_profile = |p: SpeedupProfile| {
                results
                    .rows
                    .iter()
                    .find(|r| r.profile == p)
                    .unwrap()
                    .clone()
            };
            let amdahl = by_profile(profiles[0]);
            assert!(amdahl.first_order.is_some(), "Amdahl keeps Theorem 1/2");
            assert_eq!(amdahl.alpha, Some(0.1));
            for &extension in &profiles[1..] {
                let row = by_profile(extension);
                assert!(row.first_order.is_none(), "{extension:?}");
                assert!(row.closed_form.is_none(), "{extension:?}");
                assert!(row.numerical.predicted_overhead > 0.0);
                assert_eq!(row.alpha, None);
            }
        }
    }

    #[test]
    fn cache_keys_distinguish_profiles_with_equal_parameters() {
        // powerlaw:0.8 and gustafson:0.8 share the parameter value but must
        // not share a cache entry.
        let base = ayd_platforms::ExperimentSetup::paper_default(
            ayd_platforms::PlatformId::Hera,
            ScenarioId::S1,
        );
        let options = analytic_options();
        let power = base
            .with_profile(SpeedupProfile::power_law(0.8).unwrap())
            .model()
            .unwrap();
        let gustafson = base
            .with_profile(SpeedupProfile::gustafson(0.8).unwrap())
            .model()
            .unwrap();
        let exp = FailureModelSpec::exponential();
        assert_ne!(
            analytic_cache_key(&power, None, &exp, &options),
            analytic_cache_key(&gustafson, None, &exp, &options)
        );
        let cache = crate::cache::ShardedEvalCache::new(2, 16);
        let a = evaluate_analytic(&power, None, &exp, &options, Some(&cache));
        let b = evaluate_analytic(&gustafson, None, &exp, &options, Some(&cache));
        assert_eq!(cache.stats().misses, 2, "no spurious sharing");
        assert_ne!(a.numerical, b.numerical);
    }

    #[test]
    fn cancel_mid_run_keeps_the_completed_in_order_prefix() {
        // A sink that parks the emitter on the first chunk until released:
        // with the in-order frontier blocked, workers pile up behind the
        // emitter mutex, so the cancel flag is guaranteed to be observed
        // mid-run. It keeps the lines it receives.
        struct GatedSink {
            text: String,
            gate: std::sync::mpsc::Receiver<()>,
        }
        impl crate::sink::SweepSink for GatedSink {
            fn on_rows(&mut self, lines: &str, _rows: usize) {
                if self.text.is_empty() {
                    self.gate.recv().ok();
                }
                self.text.push_str(lines);
            }
        }

        let grid = ScenarioGrid::builder()
            .scenarios(&ScenarioId::ALL)
            .processors(ProcessorAxis::Fixed(vec![200.0, 400.0, 800.0, 1600.0]))
            .lambda_multipliers(&[1.0, 10.0])
            .build()
            .unwrap();
        assert!(grid.len() >= 48);
        let (release, gate) = std::sync::mpsc::channel();
        let (cancel, progress) = (AtomicBool::new(false), AtomicUsize::new(0));
        let cells = grid.cells();
        let executor = SweepExecutor::new(analytic_options().with_threads(2));
        let (results, streamed) = std::thread::scope(|scope| {
            let run = scope.spawn(|| {
                let mut sink = GatedSink {
                    text: String::new(),
                    gate,
                };
                let run =
                    executor.run_cells_streamed(&cells, &mut sink, Some(&cancel), Some(&progress));
                (run, sink.text)
            });
            while progress.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            cancel.store(true, Ordering::Relaxed);
            release.send(()).unwrap();
            run.join().unwrap()
        });
        assert!(results.rows > 0);
        assert!(results.rows < grid.len(), "run was not interrupted");
        // The streamed text is exactly the first `rows` lines of an
        // uncancelled run: chunks parked past the frontier never reach it.
        let full = SweepExecutor::new(analytic_options().with_threads(1)).run(&grid);
        let prefix: usize = full
            .csv_body()
            .split_inclusive('\n')
            .take(results.rows)
            .map(str::len)
            .sum();
        assert_eq!(streamed, &full.csv_body()[..prefix]);
    }

    #[test]
    fn the_reorder_buffer_releases_whole_chunks_in_order_and_recycles_buffers() {
        /// Records each call's lines and row count.
        struct Calls(Vec<(String, usize)>);
        impl SweepSink for Calls {
            fn on_rows(&mut self, lines: &str, rows: usize) {
                self.0.push((lines.to_string(), rows));
            }
        }
        let mut calls = Calls(Vec::new());
        let mut emitter = Emitter {
            pending: std::collections::BTreeMap::new(),
            spare: Vec::new(),
            released: 0,
            rows: Vec::new(),
            sink: &mut calls,
        };
        let mut rows = Vec::new();
        let mut chunk = |emitter: &mut Emitter, start: usize, lines: &str, cells: usize| {
            let mut text = String::with_capacity(64);
            text.push_str(lines);
            emitter.push(start, cells, &mut text, &mut rows);
            // The worker always gets an empty buffer back: its own emptied
            // one, or a spare one when its chunk was parked.
            assert!(text.is_empty());
            text.capacity()
        };
        // Two chunks arrive ahead of the frontier and are parked.
        assert_eq!(chunk(&mut emitter, 3, "d\ne\n", 2), 0);
        assert_eq!(chunk(&mut emitter, 2, "c\n", 1), 0);
        assert!(emitter.spare.is_empty());
        // The in-order chunk releases itself, then both parked ones, whose
        // emptied buffers become spares for the next parked chunks.
        assert_eq!(chunk(&mut emitter, 0, "a\nb\n", 2), 64);
        assert_eq!(emitter.released, 5);
        assert_eq!(emitter.spare.len(), 2);
        assert_eq!(chunk(&mut emitter, 6, "g\n", 1), 64);
        assert_eq!(emitter.spare.len(), 1);
        drop(emitter);
        let expected = [("a\nb\n", 2), ("c\n", 1), ("d\ne\n", 2)];
        let got: Vec<(&str, usize)> = calls.0.iter().map(|(l, n)| (l.as_str(), *n)).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn empty_threads_clamp_and_empty_grid_is_ok() {
        let grid = ScenarioGrid::builder()
            .scenarios(&[ScenarioId::S1])
            .build()
            .unwrap();
        // More threads than cells is fine (clamped to the cell count).
        let results = SweepExecutor::new(analytic_options().with_threads(64)).run(&grid);
        assert_eq!(results.rows.len(), 1);
    }

    fn test_model() -> ExactModel {
        ayd_platforms::ExperimentSetup::paper_default(
            ayd_platforms::PlatformId::Hera,
            ScenarioId::S1,
        )
        .model()
        .unwrap()
    }

    #[test]
    fn observed_evaluations_report_cold_and_warm_paths() {
        let options = analytic_options();
        let exp = FailureModelSpec::exponential();
        let cache = ShardedEvalCache::new(64, 4);
        let model = test_model();
        // First call computes (cache miss) and answers at least one scalar
        // search via the warm-started fast path.
        let (first, observation) =
            evaluate_analytic_observed(&model, None, &exp, &options, Some(&cache));
        assert!(observation.computed);
        assert!(observation.search.total() > 0, "{:?}", observation.search);
        // Second call is a cache hit: same bits, no computation, no searches.
        let (second, observation) =
            evaluate_analytic_observed(&model, None, &exp, &options, Some(&cache));
        assert!(!observation.computed);
        assert_eq!(observation.search, SearchReport::default());
        assert_eq!(first, second);
        // Without a cache every call computes.
        let (uncached, observation) =
            evaluate_analytic_observed(&model, None, &exp, &options, None);
        assert!(observation.computed);
        assert_eq!(first, uncached);
    }

    #[test]
    fn evaluate_cells_matches_one_by_one_evaluation_and_consults_the_cache() {
        let options = analytic_options();
        let setup = ayd_platforms::ExperimentSetup::paper_default(
            ayd_platforms::PlatformId::Hera,
            ScenarioId::S1,
        );
        let cell = |index, fixed_processors, pattern_length| SweepCell {
            index,
            setup,
            failure_model: FailureModelSpec::exponential(),
            lambda_multiplier: 1.0,
            fixed_processors,
            processor_order: None,
            pattern_length,
        };
        let cells = [
            cell(0, None, None),
            // One block: two pattern lengths at one fixed P.
            cell(1, Some(512.0), Some(1_800.0)),
            cell(2, Some(512.0), Some(3_600.0)),
            cell(3, None, None), // repeat → cache hit inside the call
            cell(4, Some(2_048.0), None),
        ];
        let cache = ShardedEvalCache::new(4, 64);
        let mut rows = Vec::new();
        let observation = evaluate_cells(&cells, &options, Some(&cache), |row| rows.push(row));
        assert_eq!(rows.len(), cells.len());
        assert!(observation.computed);
        assert!(observation.search.total() > 0);
        assert_eq!(observation.blocks, 4);
        // One lookup per cell: the block's second cell and the repeat hit.
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (3, 2), "{stats:?}");
        // Each row is bit-identical to a standalone, uncached evaluation of
        // its cell, and to the executor's row.
        for (cell, row) in cells.iter().zip(&rows) {
            let mut alone = Vec::new();
            let single = evaluate_cells(std::slice::from_ref(cell), &options, None, |row| {
                alone.push(row)
            });
            assert_eq!((single.computed, single.blocks), (true, 1));
            assert_eq!(alone, std::slice::from_ref(row));
        }
        assert_eq!(SweepExecutor::new(options).run_cells(&cells).rows, rows);
        // A warm replay computes nothing; an uncached call agrees and
        // evaluates every cell.
        let mut warm = Vec::new();
        let replay = evaluate_cells(&cells, &options, Some(&cache), |row| warm.push(row));
        assert!(!replay.computed);
        assert_eq!(replay.search, SearchReport::default());
        assert_eq!(warm, rows);
        let mut uncached = Vec::new();
        let cold = evaluate_cells(&cells, &options, None, |row| uncached.push(row));
        assert_eq!(cold.blocks, cells.len() as u64);
        assert_eq!(uncached, rows);
    }

    #[test]
    fn law_twins_share_one_key_and_one_search() {
        // No evaluation reads the failure law, so no key holds it: every law
        // at one model (parametric, degenerate or traced) shares one entry.
        let model = test_model();
        let options = analytic_options();
        let laws = [
            FailureModelSpec::exponential(),
            FailureModelSpec::weibull(0.7).unwrap(),
            FailureModelSpec::weibull(1.0).unwrap(),
            FailureModelSpec::shifted(0.0).unwrap(),
            FailureModelSpec::trace("logs/a.trace").unwrap(),
            FailureModelSpec::trace("logs/b.trace").unwrap(),
        ];
        for fixed_processors in [None, Some(512.0)] {
            let key = analytic_cache_key(&model, fixed_processors, &laws[0], &options);
            for law in &laws[1..] {
                assert_eq!(
                    analytic_cache_key(&model, fixed_processors, law, &options),
                    key,
                    "{law}"
                );
            }
        }
        // In a sweep, the twins are one block: one miss, one search, and a
        // hit for each other law. Every row keeps its own law and carries
        // the values of a cache-off run.
        let grid = ScenarioGrid::builder()
            .scenarios(&[ScenarioId::S1])
            .failure_models(&laws)
            .processors(ProcessorAxis::Fixed(vec![512.0]))
            .build()
            .unwrap();
        let on = SweepExecutor::new(analytic_options().with_threads(1)).run(&grid);
        assert_eq!((on.cache.misses, on.cache.hits), (1, 5), "{:?}", on.cache);
        assert_eq!(on.search.total(), 1);
        let off = SweepExecutor::new(analytic_options().with_cache_capacity(None)).run(&grid);
        assert_eq!(off.search.total(), laws.len() as u64);
        // Evaluated one by one, the twins' values agree anyway: the key
        // leaves out nothing the evaluation reads.
        let values = |row: &SweepRow| (row.first_order, row.closed_form, row.numerical);
        assert!(off
            .rows
            .iter()
            .all(|row| values(row) == values(&off.rows[0])));
        assert_eq!(on.rows, off.rows);
        let row_laws: Vec<_> = on
            .rows
            .iter()
            .map(|row| row.failure_model.clone())
            .collect();
        assert_eq!(row_laws, laws);
    }

    #[test]
    fn every_evaluation_input_changes_the_key() {
        // Each input the evaluation reads moves the key on its own, so no
        // two evaluations that could differ share an entry.
        let model = test_model();
        let options = analytic_options();
        let exp = FailureModelSpec::exponential();
        let key = |model: &ExactModel, fixed_processors, options: &SweepOptions| {
            analytic_cache_key(model, fixed_processors, &exp, options)
        };
        let fixed = Some(512.0);
        let base = key(&model, fixed, &options);
        /// A value far above the key's quantum from `x`, even from zero.
        fn moved(x: f64) -> f64 {
            x * 2.0 + 1.0
        }
        let with = |change: fn(&mut ExactModel)| {
            let mut changed = model;
            change(&mut changed);
            changed
        };
        let SpeedupProfile::Amdahl { alpha } = model.speedup else {
            panic!("the paper's default profile is Amdahl");
        };
        let models = [
            ("λ_ind", with(|m| m.failures.lambda_ind *= 2.0)),
            ("f", with(|m| m.failures.fail_stop_fraction /= 2.0)),
            (
                "profile family",
                ExactModel {
                    speedup: SpeedupProfile::Gustafson { alpha },
                    ..model
                },
            ),
            (
                "a",
                with(|m| m.costs.checkpoint.a = moved(m.costs.checkpoint.a)),
            ),
            (
                "b",
                with(|m| m.costs.checkpoint.b = moved(m.costs.checkpoint.b)),
            ),
            (
                "c",
                with(|m| m.costs.checkpoint.c = moved(m.costs.checkpoint.c)),
            ),
            (
                "v",
                with(|m| m.costs.verification.v = moved(m.costs.verification.v)),
            ),
            (
                "u",
                with(|m| m.costs.verification.u = moved(m.costs.verification.u)),
            ),
            ("D", with(|m| m.costs.downtime = moved(m.costs.downtime))),
        ];
        for (input, changed) in models {
            assert_ne!(key(&changed, fixed, &options), base, "{input}");
        }
        for fixed_processors in [None, Some(1_024.0)] {
            assert_ne!(key(&model, fixed_processors, &options), base, "P");
        }
        let (p, t) = (options.processor_range, options.period_range);
        let ranges = [
            options.with_processor_range(moved(p.0), p.1),
            options.with_processor_range(p.0, moved(p.1)),
            options.with_period_range(moved(t.0), t.1),
            options.with_period_range(t.0, moved(t.1)),
        ];
        for (bound, options) in ranges.iter().enumerate() {
            assert_ne!(key(&model, fixed, options), base, "range bound {bound}");
        }
    }

    #[test]
    fn non_exponential_cells_simulate_the_primary_point_under_the_true_law() {
        // Even with every simulation-attachment flag off, a weibull cell gets
        // a primary-point simulation (the misspecification ground truth), and
        // it differs from the exponential cell's simulation.
        let options = SweepOptions::new(RunOptions::smoke())
            .with_simulate_first_order(false)
            .with_simulate_numerical(false);
        let grid = ScenarioGrid::builder()
            .scenarios(&[ScenarioId::S1])
            .failure_models(&[
                FailureModelSpec::exponential(),
                FailureModelSpec::weibull(0.7).unwrap(),
            ])
            .lambda_multipliers(&[10.0])
            .processors(ProcessorAxis::Fixed(vec![512.0]))
            .build()
            .unwrap();
        let results = SweepExecutor::new(options).run(&grid);
        let exp_row = &results.rows[0];
        let weibull_row = &results.rows[1];
        assert!(exp_row.failure_model.is_exponential());
        assert_eq!(weibull_row.failure_model.kind(), "weibull");
        // The flags suppressed the exponential cell's simulations entirely…
        assert!(exp_row.primary_point().simulated.is_none());
        // …but the weibull cell still simulated its primary point.
        let simulated = weibull_row.primary_point().simulated.unwrap();
        assert!(simulated.mean.is_finite() && simulated.mean > 0.0);
        // And the analytic series are identical across the two rows: the
        // model is exponential regardless of the sampling law.
        assert_eq!(exp_row.numerical, {
            let mut n = weibull_row.numerical;
            n.simulated = None;
            n
        });
    }

    mod blocks {
        use super::*;
        use crate::shard::ShardSpec;
        use proptest::prelude::*;

        /// A fixed-`P` grid whose pattern-length axis forms the blocks (1–5
        /// lengths: blocks of 3 and 5 straddle most chunk sizes), with a
        /// repeated λ multiplier and four failure laws (`exp`, `weibull:1.0`,
        /// `weibull:0.7`, `shifted:600`) whose cells share one cache key.
        fn block_grid(draws: &[u64]) -> ScenarioGrid {
            let pick = |draw: u64, max: usize| 1 + draw as usize % max;
            let profiles = [
                SpeedupProfile::Amdahl { alpha: 0.1 },
                SpeedupProfile::PowerLaw { sigma: 0.8 },
            ];
            let lengths = [900.0, 1_800.0, 3_600.0, 7_200.0, 14_400.0];
            ScenarioGrid::builder()
                .scenarios(&[ScenarioId::S1, ScenarioId::S6][..pick(draws[0], 2)])
                .profiles(&profiles[..pick(draws[1], 2)])
                .failure_models(&[
                    FailureModelSpec::exponential(),
                    FailureModelSpec::weibull(1.0).unwrap(),
                    FailureModelSpec::weibull(0.7).unwrap(),
                    FailureModelSpec::shifted(600.0).unwrap(),
                ])
                .lambda_multipliers(&[1.0, 1.0, 10.0][..1 + pick(draws[2], 2)])
                .processors(ProcessorAxis::Fixed(
                    vec![256.0, 1_024.0][..pick(draws[3], 2)].to_vec(),
                ))
                .pattern_lengths(&lengths[..pick(draws[4], 5)])
                .build()
                .unwrap()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// Sharing one evaluation per block changes no byte and no
            /// count: cache-on CSVs at 1–3 threads equal the per-cell
            /// cache-off CSV, streamed shard ranges that cut blocks merge to
            /// the same bytes, and one thread scores one lookup per cell and
            /// one search per miss.
            #[test]
            fn blocks_never_change_a_byte_or_a_count(
                draws in prop::collection::vec(0u64..1_000, 6..7),
            ) {
                let grid = block_grid(&draws);
                let off = SweepExecutor::new(analytic_options().with_cache_capacity(None))
                    .run(&grid);
                prop_assert_eq!(off.search.total(), grid.len() as u64);
                let csv = off.to_csv();
                for threads in 1..=3 {
                    let on = SweepExecutor::new(analytic_options().with_threads(threads)).run(&grid);
                    prop_assert_eq!(&on.to_csv(), &csv);
                    if threads == 1 {
                        prop_assert_eq!(on.cache.hits + on.cache.misses, grid.len() as u64);
                        prop_assert_eq!(on.search.total(), on.cache.misses);
                    }
                }
                let count = 2 + draws[5] as usize % 6;
                let executor = SweepExecutor::new(analytic_options().with_threads(2));
                let mut merged = format!("{CSV_HEADER}\n");
                for index in 0..count {
                    let cells = grid.shard_cells(ShardSpec::new(index, count).unwrap());
                    let run = executor.run_cells_streamed(&cells, &mut merged, None, None);
                    prop_assert_eq!(run.rows, cells.len());
                }
                prop_assert_eq!(merged, csv);
            }
        }
    }

    #[test]
    fn sweep_results_tally_fast_and_fallback_searches() {
        let grid = small_fixed_grid();
        // The tally must account for every scalar search the grid ran.
        let results = SweepExecutor::new(analytic_options().with_threads(2)).run(&grid);
        assert!(results.search.total() > 0, "{:?}", results.search);
        // And every row's numerical point is bit-identical to the reference
        // search (the core contract).
        let oracle = Evaluator::new(analytic_options().run);
        for (cell, row) in grid.cells().iter().zip(&results.rows) {
            let model = cell.setup.model().unwrap();
            let p = cell.fixed_processors.unwrap();
            let (period, overhead) = oracle.numerical_period_for(&model, p);
            assert_eq!(row.numerical.period.to_bits(), period.to_bits());
            assert_eq!(
                row.numerical.predicted_overhead.to_bits(),
                overhead.to_bits()
            );
        }
    }
}
