//! Server configuration and shared application state: the evaluation
//! cache, the metrics registry and the sweep-job registry.
//!
//! A sweep job is a [`LocalJob`], evaluated in this process, or — on a
//! coordinator, for a job submitted with `shards` — a distributed job whose
//! shards the [`Coordinator`] dispatches to worker nodes. Both append their
//! shards' rows to a file (a [`CsvFile`]) that reads the CSV back by one
//! rule: the header, then the shards' rows in shard order through the first
//! incomplete shard — the whole unsharded CSV for a completed job, a byte
//! prefix of it for a cancelled one. No job keeps its rows on the heap.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ayd_sweep::{
    AnalyticEval, CacheStats, NullSink, RunOptions, ScenarioGrid, ShardSpec, ShardedEvalCache,
    SweepExecutor, SweepOptions, SweepSink,
};

use crate::coordinator::Coordinator;
use crate::csv_file::CsvFile;
use crate::http::Limits;
use crate::metrics::{GaugeSnapshot, Metrics};
use crate::worker::WorkerRuntime;

/// Cluster role of an instance: standalone (neither flag), the coordinator
/// that decomposes sweeps into shards and dispatches them, or a worker that
/// registers with a coordinator and executes dispatched shards.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Run as the cluster coordinator (`--coordinator`).
    pub coordinator: bool,
    /// Coordinator address to register with (`--worker-of HOST:PORT`).
    pub worker_of: Option<String>,
    /// Worker lease: a worker is *suspect* one lease after its last
    /// heartbeat and *dead* (shard re-issued) after two. Workers heartbeat
    /// at a third of the lease.
    pub lease: Duration,
    /// Address workers advertise to the coordinator for dispatches
    /// (`--advertise`; defaults to the worker's own listen address).
    pub advertise: Option<String>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            coordinator: false,
            worker_of: None,
            lease: Duration::from_millis(3_000),
            advertise: None,
        }
    }
}

/// Maximum concurrently running sweep jobs (further submissions → 503).
pub(crate) const MAX_RUNNING_JOBS: usize = 4;

/// Maximum cells a submitted sweep grid may have (above → 400).
pub(crate) const MAX_SWEEP_CELLS: usize = 200_000;

/// Configuration of an [`crate::server::Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Reactor thread count (also sizes the shared cache's shard count).
    pub threads: usize,
    /// Total capacity of the shared evaluation cache.
    pub cache_capacity: usize,
    /// Request parsing limits (the `--max-body` CLI knob).
    pub limits: Limits,
    /// Base run options of every evaluation. Simulation is always forced off:
    /// the service answers with the analytic/numerical series only.
    pub run: RunOptions,
    /// Cluster role: standalone, coordinator or worker.
    pub cluster: ClusterConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8080".to_string(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cache_capacity: 65_536,
            limits: Limits::default(),
            run: RunOptions::default(),
            cluster: ClusterConfig::default(),
        }
    }
}

/// Shared state of a running server: the process-wide evaluation cache, the
/// metrics registry and the sweep-job registry.
pub struct AppState {
    /// Evaluation options (simulation off, default optimiser search ranges).
    pub options: SweepOptions,
    /// Process-wide memoisation cache shared by every request and warm across
    /// requests — the concurrent path the sharded cache exists for.
    pub cache: ShardedEvalCache<AnalyticEval>,
    /// Request counters and the latency histogram.
    pub metrics: Metrics,
    /// Async sweep jobs by id.
    pub jobs: JobRegistry,
    /// Request parsing limits.
    pub limits: Limits,
    /// Server start time (for `/healthz` uptime).
    pub started: Instant,
    /// The cluster coordinator, when this instance runs with
    /// `--coordinator`; owns worker registrations and the shard queues.
    pub coordinator: Option<Arc<Coordinator>>,
    /// The worker runtime, when this instance runs with `--worker-of`;
    /// owns the registration, heartbeats and the executing shard.
    pub worker: Option<Arc<WorkerRuntime>>,
}

impl AppState {
    /// Builds the shared state for a configuration.
    pub fn new(config: &ServerConfig) -> Arc<Self> {
        let run = RunOptions {
            simulate: false,
            ..config.run
        };
        // Same shard-sizing policy as the sweep executor's per-run caches.
        let shards = ayd_sweep::cache_shards(config.threads);
        Arc::new(Self {
            options: SweepOptions::new(run),
            cache: ShardedEvalCache::new(shards, config.cache_capacity.max(1)),
            metrics: Metrics::new(),
            jobs: JobRegistry::new(MAX_FINISHED_JOBS, MAX_FINISHED_BYTES),
            limits: config.limits,
            started: Instant::now(),
            coordinator: config
                .cluster
                .coordinator
                .then(|| Coordinator::new(config.cluster.lease)),
            worker: config.cluster.worker_of.as_deref().map(WorkerRuntime::new),
        })
    }
}

/// A finished (or cancelled) sweep job, kept for later retrieval.
#[derive(Debug)]
pub struct FinishedJob {
    /// True when the job ended before evaluating every cell.
    pub cancelled: bool,
    /// Number of rows in `csv`.
    pub rows: usize,
    /// The canonical sweep CSV of the job's in-order prefix, in the job's
    /// file: the whole sweep for a completed job. Shared: a `GET` sends it
    /// from the file.
    pub csv: Arc<CsvFile>,
    /// Why the job's file could not be created or written, when it could
    /// not: such a job ends cancelled, with the rows that reached the file.
    pub error: Option<String>,
    /// The job's own memoisation-cache counters.
    pub cache: CacheStats,
    /// Cells each shard owns (`None` for a job submitted without `shards`).
    pub shards: Option<Vec<usize>>,
}

impl FinishedJob {
    /// A job that evaluated nothing: the header-only CSV, marked cancelled.
    fn empty(shards: Option<Vec<usize>>) -> Self {
        Self {
            cancelled: true,
            rows: 0,
            // Only the header is ever read: no grid's shards are needed.
            csv: Arc::new(CsvFile::header_only(0, 1)),
            error: None,
            cache: CacheStats::default(),
            shards,
        }
    }
}

/// One shard's progress, as reported by `GET /v1/sweep/{id}/shards`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardView {
    /// Shard index.
    pub index: usize,
    /// Cells the shard owns.
    pub total: usize,
    /// Cells evaluated so far.
    pub completed: usize,
    /// `pending`, `running` or `done`.
    pub status: &'static str,
}

/// The shard views of a job whose first `done` cells, in cell order, are
/// evaluated. Shards own contiguous, ascending ranges of cells, so shard
/// `i` has completed `clamp(done − start_i, 0, total_i)` of them.
fn shard_views(totals: &[usize], done: usize) -> Vec<ShardView> {
    let mut start = 0;
    totals
        .iter()
        .enumerate()
        .map(|(index, &total)| {
            let completed = done.clamp(start, start + total) - start;
            start += total;
            ShardView {
                index,
                total,
                completed,
                status: match completed {
                    c if c == total => "done",
                    0 => "pending",
                    _ => "running",
                },
            }
        })
        .collect()
}

/// A sweep job evaluated in this process. Its thread creates the job's
/// file, builds each shard's cells ([`ScenarioGrid::shard_cells`]) in order
/// and streams them through [`SweepExecutor::run_cells_streamed`] (each
/// range fanned out over the executor's workers) into the file, through a
/// 64 KiB buffer; no row and no other copy of the text is ever kept.
/// Ranges run one after another, so one progress counter tells how far the
/// job, and each of its shards, has come. A cancelled job keeps its
/// in-order prefix: every finished range plus the evaluated prefix of the
/// range in flight.
pub struct LocalJob {
    total: usize,
    /// Cells each shard owns (`None` for a job submitted without `shards`).
    shards: Option<Vec<usize>>,
    progress: Arc<AtomicUsize>,
    cancel: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<FinishedJob>,
}

/// A local job's sink: released chunks gather in a 64 KiB buffer that goes
/// into the job's file whole, as rows of `shard`, the range in flight (the
/// executor finishes the sink at each range's end), so every write ends at
/// a row of one shard. A write that fails raises the job's cancel flag and
/// keeps its error; the file keeps the rows written before it.
struct JobWriter<'a> {
    csv: CsvFile,
    shard: usize,
    buffer: String,
    /// Rows in `buffer`.
    rows: usize,
    cancel: &'a AtomicBool,
    error: Option<std::io::Error>,
}

impl<'a> JobWriter<'a> {
    const CAPACITY: usize = 64 << 10;

    fn new(csv: CsvFile, cancel: &'a AtomicBool) -> Self {
        Self {
            csv,
            shard: 0,
            buffer: String::with_capacity(Self::CAPACITY),
            rows: 0,
            cancel,
            error: None,
        }
    }

    fn flush(&mut self) {
        if self.error.is_none() && self.rows > 0 {
            if let Err(error) = self.csv.append(self.shard, &self.buffer, self.rows) {
                self.error = Some(error);
                self.cancel.store(true, Ordering::Relaxed);
            }
        }
        self.buffer.clear();
        self.rows = 0;
    }

    /// Writes what is buffered and hands the file over, sealed, with the
    /// error that stopped the writes, if one did.
    fn close(mut self) -> (CsvFile, Option<std::io::Error>) {
        self.flush();
        self.csv.seal();
        (self.csv, self.error)
    }
}

impl SweepSink for JobWriter<'_> {
    fn on_rows(&mut self, lines: &str, rows: usize) {
        if self.error.is_some() {
            return;
        }
        if self.buffer.len() + lines.len() > Self::CAPACITY {
            self.flush();
        }
        self.buffer.push_str(lines);
        self.rows += rows;
    }

    fn finish(&mut self) {
        self.flush();
    }
}

impl LocalJob {
    /// Starts a job over `grid` in `shards` contiguous ranges (one when
    /// `None`). Callers hold the job registry's lock on a reactor, so the
    /// file is created and the cells are built on the job's thread, not
    /// here.
    pub fn spawn(options: SweepOptions, grid: ScenarioGrid, shards: Option<usize>) -> Self {
        Self::spawn_with_sink(options, grid, shards, NullSink)
    }

    /// [`Self::spawn`], streaming each released chunk into `sink` too, in
    /// cell order and before the job's file: a test gates a job with it.
    fn spawn_with_sink(
        options: SweepOptions,
        grid: ScenarioGrid,
        shards: Option<usize>,
        mut sink: impl SweepSink + 'static,
    ) -> Self {
        let total = grid.len();
        let count = shards.unwrap_or(1);
        let specs: Vec<ShardSpec> = (0..count)
            .map(|index| ShardSpec::new(index, count).expect("validated by the API layer"))
            .collect();
        let shards = shards.map(|_| {
            specs
                .iter()
                .map(|spec| spec.range(total).len())
                .collect::<Vec<_>>()
        });
        let progress = Arc::new(AtomicUsize::new(0));
        let cancel = Arc::new(AtomicBool::new(false));
        let (job_progress, job_cancel) = (Arc::clone(&progress), Arc::clone(&cancel));
        let shards_of_job = shards.clone();
        let thread = std::thread::spawn(move || {
            let csv = match CsvFile::create(total, count) {
                Ok(csv) => csv,
                Err(error) => {
                    return FinishedJob {
                        error: Some(format!("creating the job's CSV file: {error}")),
                        ..FinishedJob::empty(shards_of_job)
                    }
                }
            };
            let executor = SweepExecutor::new(options);
            let mut writer = JobWriter::new(csv, &job_cancel);
            let mut cache = CacheStats::default();
            for spec in specs {
                let cells = grid.shard_cells(spec);
                writer.shard = spec.index;
                let run = executor.run_cells_streamed(
                    &cells,
                    &mut (&mut sink, &mut writer),
                    Some(&job_cancel),
                    Some(&job_progress),
                );
                cache = cache.merged(run.cache);
                if run.rows < cells.len() {
                    // Cancelled: the CSV ends with this range's prefix.
                    break;
                }
            }
            let (csv, error) = writer.close();
            FinishedJob {
                cancelled: csv.rows() < total,
                rows: csv.rows(),
                csv: Arc::new(csv),
                error: error.map(|error| format!("writing the job's CSV file: {error}")),
                cache,
                shards: shards_of_job,
            }
        });
        Self {
            total,
            shards,
            progress,
            cancel,
            thread,
        }
    }

    fn completed(&self) -> usize {
        self.progress.load(Ordering::Relaxed).min(self.total)
    }

    fn join(self) -> FinishedJob {
        // A panicked job thread must not take the registry down with it:
        // clients see a cancelled zero-row job and every other endpoint
        // keeps answering.
        let Self { thread, shards, .. } = self;
        thread.join().unwrap_or_else(|_| FinishedJob::empty(shards))
    }
}

/// Handle on a sweep job the coordinator farms out to worker nodes: all
/// state lives in the [`Coordinator`], the handle just adapts it to the
/// registry's lifecycle. Joining takes the finished job out of the
/// coordinator, its CSV the file the coordinator wrote as chunks arrived.
pub struct DistributedJobHandle {
    /// The coordinator owning the job's shard queue and checkpoints.
    pub coordinator: Arc<Coordinator>,
    /// The registry job id, which doubles as the coordinator's job key.
    pub id: u64,
}

impl DistributedJobHandle {
    fn join(self) -> FinishedJob {
        match self.coordinator.take_finished(self.id) {
            Some(outcome) => FinishedJob {
                cancelled: outcome.cancelled,
                rows: outcome.rows,
                csv: Arc::new(outcome.csv),
                error: outcome.error,
                // Workers own the evaluation caches; the coordinator never
                // evaluates a cell itself.
                cache: CacheStats::default(),
                shards: Some(outcome.totals),
            },
            None => FinishedJob::empty(None),
        }
    }
}

/// A running job: evaluated in this process, or dispatched by the
/// coordinator. The server's role picks the kind; both write their CSV by
/// the same in-order rule.
pub enum JobHandle {
    /// Evaluated in this process (see [`LocalJob`]).
    Local(LocalJob),
    /// Shards dispatched to worker nodes (see [`Coordinator`]).
    Distributed(DistributedJobHandle),
}

impl JobHandle {
    fn completed(&self) -> usize {
        match self {
            JobHandle::Local(job) => job.completed(),
            JobHandle::Distributed(handle) => handle
                .coordinator
                .job_progress(handle.id)
                .map(|(completed, _)| completed)
                .unwrap_or(0),
        }
    }

    fn total(&self) -> usize {
        match self {
            JobHandle::Local(job) => job.total,
            JobHandle::Distributed(handle) => handle
                .coordinator
                .job_progress(handle.id)
                .map(|(_, total)| total)
                .unwrap_or(0),
        }
    }

    fn cancel(&self) {
        match self {
            JobHandle::Local(job) => job.cancel.store(true, Ordering::Relaxed),
            JobHandle::Distributed(handle) => handle.coordinator.cancel_job(handle.id),
        }
    }

    fn is_finished(&self) -> bool {
        match self {
            JobHandle::Local(job) => job.thread.is_finished(),
            JobHandle::Distributed(handle) => handle.coordinator.job_finished(handle.id),
        }
    }

    fn join(self) -> FinishedJob {
        match self {
            JobHandle::Local(job) => job.join(),
            JobHandle::Distributed(handle) => handle.join(),
        }
    }
}

enum JobEntry {
    Running(JobHandle),
    Finished(Arc<FinishedJob>),
}

/// A snapshot of one job's state, as reported to clients.
pub enum JobView {
    /// Still evaluating: `(completed, total)` cells.
    Running(usize, usize),
    /// Finished; the payload is shared, not copied.
    Finished(Arc<FinishedJob>),
}

/// How many finished jobs the registry retains for later retrieval.
const MAX_FINISHED_JOBS: usize = 64;

/// How many bytes the registry's finished jobs' files may hold (a cancelled
/// distributed job's, rows its CSV never reads too), 1 GiB: a job of the
/// largest grid accepted (200,000 cells) writes about 33 MB.
const MAX_FINISHED_BYTES: u64 = 1 << 30;

/// Registry of async sweep jobs. Finished jobs are kept for retrieval
/// within two bounds, a count and the bytes their CSV files hold; past
/// either, the oldest (by id) are evicted first. An evicted job's file is
/// freed once no `GET` is still sending it.
pub struct JobRegistry {
    next_id: AtomicU64,
    jobs: Mutex<std::collections::HashMap<u64, JobEntry>>,
    max_finished: usize,
    max_finished_bytes: u64,
}

impl JobRegistry {
    /// An empty registry keeping at most `max_finished` finished jobs,
    /// whose files hold at most `max_finished_bytes` in all.
    fn new(max_finished: usize, max_finished_bytes: u64) -> Self {
        Self {
            next_id: AtomicU64::new(1),
            jobs: Mutex::new(std::collections::HashMap::new()),
            max_finished,
            max_finished_bytes,
        }
    }

    /// Locks the registry, recovering from poisoning: a panic on a thread
    /// that held the lock must not cascade a panic into every later request.
    /// The map itself stays structurally valid across any of our critical
    /// sections (single `insert`/`remove` calls), and `reap` re-derives the
    /// running/finished split from the entries on the next access.
    fn lock_jobs(&self) -> std::sync::MutexGuard<'_, std::collections::HashMap<u64, JobEntry>> {
        self.jobs
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Atomically registers a new job unless `max_running` jobs are already
    /// running. `spawn` is only called when the admission check passes, under
    /// the registry lock, so concurrent submissions cannot overshoot the cap;
    /// it receives the assigned job id (the distributed path registers the
    /// job with the coordinator under that id before the handle exists).
    pub fn try_submit(
        &self,
        max_running: usize,
        spawn: impl FnOnce(u64) -> JobHandle,
    ) -> Option<u64> {
        let mut jobs = self.lock_jobs();
        self.reap(&mut jobs);
        let running = jobs
            .values()
            .filter(|entry| matches!(entry, JobEntry::Running(_)))
            .count();
        if running >= max_running {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        jobs.insert(id, JobEntry::Running(spawn(id)));
        Some(id)
    }

    /// Number of jobs still running (finished handles are reaped first, so a
    /// drained job never counts against the running cap).
    pub fn running_count(&self) -> usize {
        let mut jobs = self.lock_jobs();
        self.reap(&mut jobs);
        jobs.values()
            .filter(|entry| matches!(entry, JobEntry::Running(_)))
            .count()
    }

    /// Samples the point-in-time gauges of a `/metrics` render: job counts
    /// by state for the `ayd_sweep_jobs` gauge. A job counts as queued until
    /// its first cell completes, as running after, and on finish as done or
    /// cancelled (bounded by the registry's finished-job retention).
    pub fn gauge_snapshot(&self) -> GaugeSnapshot {
        let mut jobs = self.lock_jobs();
        self.reap(&mut jobs);
        let mut gauges = GaugeSnapshot::default();
        for entry in jobs.values() {
            match entry {
                JobEntry::Running(handle) if handle.completed() == 0 => gauges.jobs_queued += 1,
                JobEntry::Running(_) => gauges.jobs_running += 1,
                JobEntry::Finished(job) if job.cancelled => gauges.jobs_cancelled += 1,
                JobEntry::Finished(_) => gauges.jobs_done += 1,
            }
        }
        gauges
    }

    /// Looks up a job, transitioning it to finished when its thread is done.
    pub fn poll(&self, id: u64) -> Option<JobView> {
        let mut jobs = self.lock_jobs();
        self.reap(&mut jobs);
        match jobs.get(&id)? {
            JobEntry::Running(handle) => Some(JobView::Running(handle.completed(), handle.total())),
            JobEntry::Finished(done) => Some(JobView::Finished(Arc::clone(done))),
        }
    }

    /// Requests cancellation of a running job. Returns `None` for unknown
    /// ids, `Some(true)` when a cancellation was requested, `Some(false)`
    /// when the job had already finished.
    pub fn cancel(&self, id: u64) -> Option<bool> {
        let mut jobs = self.lock_jobs();
        // Reaped first, as `poll` does: a job that finished but was never
        // polled is finished, not cancellable.
        self.reap(&mut jobs);
        match jobs.get(&id)? {
            JobEntry::Running(handle) => {
                handle.cancel();
                Some(true)
            }
            JobEntry::Finished(_) => Some(false),
        }
    }

    /// Per-shard progress of a job: `None` for unknown ids, `Some(None)` for
    /// jobs that were not submitted with `shards`, `Some(Some(views))`
    /// otherwise (running or finished). A finished job's view describes its
    /// CSV: the shards its in-order prefix covers.
    pub fn shards_view(&self, id: u64) -> Option<Option<Vec<ShardView>>> {
        let mut jobs = self.lock_jobs();
        self.reap(&mut jobs);
        Some(match jobs.get(&id)? {
            JobEntry::Running(JobHandle::Local(job)) => job
                .shards
                .as_deref()
                .map(|totals| shard_views(totals, job.completed())),
            // Distributed jobs answer from the coordinator's richer view;
            // this basic projection keeps the registry API uniform.
            JobEntry::Running(JobHandle::Distributed(handle)) => Some(
                handle
                    .coordinator
                    .shards_view(handle.id)
                    .map(|view| {
                        view.shards
                            .into_iter()
                            .map(|shard| ShardView {
                                index: shard.index,
                                total: shard.total,
                                completed: shard.completed,
                                status: match shard.status {
                                    "dispatched" => "running",
                                    done_or_pending => done_or_pending,
                                },
                            })
                            .collect()
                    })
                    .unwrap_or_default(),
            ),
            JobEntry::Finished(done) => done
                .shards
                .as_deref()
                .map(|totals| shard_views(totals, done.rows)),
        })
    }

    /// Joins every finished handle in place (cheap: `join` on a finished
    /// thread does not block meaningfully), then evicts the oldest finished
    /// results while more than `max_finished` of them are kept or their
    /// files hold more than `max_finished_bytes`, so a long-lived server's
    /// memory and disk stay bounded no matter how many sweeps it has served.
    fn reap(&self, jobs: &mut std::collections::HashMap<u64, JobEntry>) {
        let finished: Vec<u64> = jobs
            .iter()
            .filter(|(_, entry)| matches!(entry, JobEntry::Running(h) if h.is_finished()))
            .map(|(&id, _)| id)
            .collect();
        for id in finished {
            if let Some(JobEntry::Running(handle)) = jobs.remove(&id) {
                jobs.insert(id, JobEntry::Finished(Arc::new(handle.join())));
            }
        }
        let finished = |entry: &JobEntry| match entry {
            JobEntry::Finished(job) => Some(job.csv.file_len()),
            JobEntry::Running(_) => None,
        };
        let (mut kept, mut bytes) = (jobs.values().filter_map(finished))
            .fold((0, 0), |(kept, bytes), len| (kept + 1, bytes + len));
        if kept <= self.max_finished && bytes <= self.max_finished_bytes {
            return;
        }
        let mut done: Vec<(u64, u64)> = (jobs.iter())
            .filter_map(|(&id, entry)| Some((id, finished(entry)?)))
            .collect();
        done.sort_unstable();
        for (id, len) in done {
            if kept <= self.max_finished && bytes <= self.max_finished_bytes {
                break;
            }
            jobs.remove(&id);
            kept -= 1;
            bytes -= len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ayd_platforms::ScenarioId;
    use ayd_sweep::{ProcessorAxis, ScenarioGrid, SweepExecutor};

    fn test_state() -> Arc<AppState> {
        AppState::new(&ServerConfig {
            threads: 2,
            ..ServerConfig::default()
        })
    }

    fn one_cell_grid() -> ScenarioGrid {
        ScenarioGrid::builder()
            .scenarios(&[ScenarioId::S1])
            .processors(ProcessorAxis::Fixed(vec![256.0]))
            .build()
            .unwrap()
    }

    fn wait_finished(state: &AppState, id: u64) -> Arc<FinishedJob> {
        loop {
            match state.jobs.poll(id).expect("job known") {
                JobView::Running(completed, total) => {
                    assert!(completed <= total);
                    std::thread::yield_now();
                }
                JobView::Finished(done) => break done,
            }
        }
    }

    #[test]
    fn job_registry_tracks_running_then_finished() {
        let state = test_state();
        let grid = one_cell_grid();
        let id = state
            .jobs
            .try_submit(4, |_| {
                JobHandle::Local(LocalJob::spawn(state.options, grid, None))
            })
            .expect("below the running cap");
        // Poll until the job drains; it must end Finished with one row.
        let done = wait_finished(&state, id);
        assert!(!done.cancelled);
        assert_eq!(done.rows, 1);
        assert!(done
            .csv
            .to_vec()
            .unwrap()
            .starts_with(ayd_sweep::CSV_HEADER.as_bytes()));
        assert!(done.error.is_none());
        assert_eq!(state.jobs.running_count(), 0);
        // Cancelling a finished job is a no-op, unknown ids are None.
        assert_eq!(state.jobs.cancel(id), Some(false));
        assert!(state.jobs.cancel(999).is_none());
        assert!(state.jobs.poll(999).is_none());
    }

    #[test]
    fn cancelling_a_finished_job_nobody_polled_reports_it_finished() {
        let state = test_state();
        let id = state
            .jobs
            .try_submit(4, |_| {
                JobHandle::Local(LocalJob::spawn(state.options, one_cell_grid(), None))
            })
            .unwrap();
        // Wait on the handle itself: no poll may reap the job first.
        let handle_finished = || match state.jobs.jobs.lock().unwrap().get(&id) {
            Some(JobEntry::Running(handle)) => handle.is_finished(),
            _ => unreachable!("only a poll or a cancel reaps the job"),
        };
        while !handle_finished() {
            std::thread::yield_now();
        }
        assert_eq!(state.jobs.cancel(id), Some(false));
        let done = wait_finished(&state, id);
        assert!(!done.cancelled);
        assert_eq!(done.rows, 1);
    }

    #[test]
    fn registry_caps_running_jobs_and_evicts_the_oldest_finished() {
        let state = test_state();
        // A zero cap rejects without ever spawning.
        assert!(state.jobs.try_submit(0, |_| unreachable!()).is_none());
        // Far more finished jobs than the retention cap: the registry must
        // hold on to at most MAX_FINISHED_JOBS results, oldest evicted first.
        let mut ids = Vec::new();
        for _ in 0..(MAX_FINISHED_JOBS + 4) {
            let id = state
                .jobs
                .try_submit(usize::MAX, |_| {
                    JobHandle::Local(LocalJob::spawn(state.options, one_cell_grid(), None))
                })
                .unwrap();
            while matches!(state.jobs.poll(id), Some(JobView::Running(..))) {
                std::thread::yield_now();
            }
            ids.push(id);
        }
        assert!(state.jobs.poll(ids[0]).is_none(), "oldest result evicted");
        assert!(state.jobs.poll(*ids.last().unwrap()).is_some());
    }

    #[test]
    fn registry_evicts_the_oldest_finished_jobs_past_its_byte_budget() {
        let state = test_state();
        let grid = ScenarioGrid::builder()
            .scenarios(&ScenarioId::ALL)
            .processors(ProcessorAxis::Fixed(vec![256.0, 1024.0]))
            .build()
            .unwrap();
        let expected = SweepExecutor::new(state.options).run(&grid).to_csv();
        // Room for three jobs' files.
        let jobs = JobRegistry::new(MAX_FINISHED_JOBS, 3 * expected.len() as u64);
        let run = || {
            let id = jobs
                .try_submit(4, |_| {
                    JobHandle::Local(LocalJob::spawn(state.options, grid.clone(), None))
                })
                .unwrap();
            loop {
                match jobs.poll(id) {
                    Some(JobView::Running(..)) => std::thread::yield_now(),
                    Some(JobView::Finished(done)) => break (id, done),
                    None => panic!("job {id} evicted before it was polled"),
                }
            }
        };
        let (first, done) = run();
        // A GET of the first job, not yet sent: it holds the job's file.
        let fetch = crate::http::Response::csv(Arc::clone(&done.csv));
        drop(done);
        let later: Vec<u64> = (0..3).map(|_| run().0).collect();
        assert!(
            jobs.poll(first).is_none(),
            "the fourth job evicts the first"
        );
        for id in later {
            assert!(jobs.poll(id).is_some(), "job {id} fits the budget");
        }
        // The fetch spans the eviction: the unlinked file stays open while
        // the response holds it, and every byte is still there.
        assert_eq!(fetch.body.bytes().unwrap(), expected.as_bytes());
    }

    #[test]
    fn sharded_jobs_merge_to_the_unsharded_csv_and_report_shard_views() {
        let state = test_state();
        let grid = ScenarioGrid::builder()
            .scenarios(&ScenarioId::ALL)
            .processors(ProcessorAxis::Fixed(vec![256.0, 1024.0]))
            .build()
            .unwrap();
        let unsharded = SweepExecutor::new(state.options).run(&grid).to_csv();
        // 3 shards, and more shards than cells: empty shards are done at once.
        for count in [3, grid.len() + 2] {
            let id = state
                .jobs
                .try_submit(4, |_| {
                    JobHandle::Local(LocalJob::spawn(state.options, grid.clone(), Some(count)))
                })
                .unwrap();
            let done = wait_finished(&state, id);
            assert!(!done.cancelled);
            assert_eq!(done.rows, grid.len());
            // The sharded job's CSV is byte-identical to the unsharded engine.
            assert_eq!(*done.csv, unsharded, "{count} shards");
            // The shard view reports every shard done with its cell count.
            let views = state.jobs.shards_view(id).unwrap().unwrap();
            assert_eq!(views.len(), count);
            for (index, view) in views.iter().enumerate() {
                let range = ShardSpec::new(index, count).unwrap().range(grid.len());
                assert_eq!((view.total, view.completed), (range.len(), range.len()));
                assert_eq!(view.status, "done");
            }
        }
        // Jobs submitted without `shards` report "not sharded".
        let plain = state
            .jobs
            .try_submit(4, |_| {
                JobHandle::Local(LocalJob::spawn(state.options, grid.clone(), None))
            })
            .unwrap();
        assert_eq!(*wait_finished(&state, plain).csv, unsharded);
        assert!(state.jobs.shards_view(plain).unwrap().is_none());
        assert!(state.jobs.shards_view(9999).is_none());
    }

    #[test]
    fn a_cancelled_local_job_keeps_the_in_order_prefix() {
        // A sink that parks the job on the chunk holding one row until
        // released, so the cancel lands while that row's shard is being
        // evaluated.
        struct GatedSink {
            rows: usize,
            gate_at: usize,
            reached: std::sync::mpsc::Sender<()>,
            release: std::sync::mpsc::Receiver<()>,
        }
        impl SweepSink for GatedSink {
            fn on_rows(&mut self, _lines: &str, rows: usize) {
                if (self.rows..self.rows + rows).contains(&self.gate_at) {
                    self.reached.send(()).ok();
                    self.release.recv().ok();
                }
                self.rows += rows;
            }
        }

        let state = test_state();
        let grid = ScenarioGrid::builder()
            .scenarios(&ScenarioId::ALL)
            .processors(ProcessorAxis::Fixed(vec![128.0, 256.0, 512.0, 1024.0]))
            .lambda_multipliers(&[1.0, 2.0, 5.0])
            .build()
            .unwrap();
        let count = 3;
        let first = ShardSpec::new(0, count).unwrap().range(grid.len()).len();
        let (reached_tx, reached) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel();
        // Parked on shard 1's first row: shard 0 is done, shard 2 unstarted.
        let sink = GatedSink {
            rows: 0,
            gate_at: first,
            reached: reached_tx,
            release: release_rx,
        };
        let id = state
            .jobs
            .try_submit(4, |_| {
                JobHandle::Local(LocalJob::spawn_with_sink(
                    state.options,
                    grid.clone(),
                    Some(count),
                    sink,
                ))
            })
            .unwrap();
        reached.recv().unwrap();
        assert_eq!(state.jobs.cancel(id), Some(true));
        release.send(()).unwrap();
        let done = wait_finished(&state, id);
        assert!(done.cancelled);
        assert!(first < done.rows && done.rows < grid.len(), "{}", done.rows);
        // The job's file is a byte prefix of the full sweep's CSV, `rows`
        // lines long.
        let full = SweepExecutor::new(state.options).run(&grid).to_csv();
        let csv = String::from_utf8(done.csv.to_vec().unwrap()).unwrap();
        assert!(full.starts_with(&csv));
        assert_eq!(csv.lines().count(), 1 + done.rows);
        // The view: done shards, at most one partial shard, pending shards.
        let views = state.jobs.shards_view(id).unwrap().unwrap();
        let statuses: Vec<&str> = views.iter().map(|v| v.status).collect();
        assert_eq!(statuses[0], "done");
        assert_eq!(statuses[2], "pending");
        assert!(["running", "done"].contains(&statuses[1]), "{statuses:?}");
        assert_eq!(views.iter().map(|v| v.completed).sum::<usize>(), done.rows);
    }

    #[test]
    fn registry_survives_a_poisoned_lock() {
        let state = test_state();
        // Poison the registry mutex: a thread panics while holding the lock.
        let poisoner = Arc::clone(&state);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.jobs.jobs.lock().unwrap();
            panic!("deliberate poison");
        })
        .join();
        assert!(state.jobs.jobs.lock().is_err(), "mutex must be poisoned");
        // Every registry operation still answers instead of cascading the
        // panic into each later request.
        assert_eq!(state.jobs.running_count(), 0);
        assert!(state.jobs.poll(1).is_none());
        assert!(state.jobs.cancel(1).is_none());
        assert!(state.jobs.shards_view(1).is_none());
        let id = state
            .jobs
            .try_submit(4, |_| {
                JobHandle::Local(LocalJob::spawn(state.options, one_cell_grid(), Some(2)))
            })
            .expect("submission works on a poisoned registry");
        assert_eq!(wait_finished(&state, id).rows, 1);
    }

    #[test]
    fn a_panicked_sharded_controller_finishes_as_cancelled() {
        let state = test_state();
        // Hand-build a job whose thread dies: join must fold the panic into
        // a cancelled zero-row job, not propagate it.
        let job = LocalJob {
            total: 2,
            shards: Some(vec![1, 1]),
            progress: Arc::new(AtomicUsize::new(0)),
            cancel: Arc::new(AtomicBool::new(false)),
            thread: std::thread::spawn(|| panic!("deliberate job thread crash")),
        };
        let id = state.jobs.try_submit(4, |_| JobHandle::Local(job)).unwrap();
        let done = wait_finished(&state, id);
        assert!(done.cancelled);
        assert_eq!(done.rows, 0);
        assert_eq!(*done.csv, format!("{}\n", ayd_sweep::CSV_HEADER));
        let views = state.jobs.shards_view(id).unwrap().unwrap();
        assert!(views.iter().all(|v| v.status == "pending"), "{views:?}");
        // The registry keeps serving other submissions afterwards.
        assert_eq!(state.jobs.running_count(), 0);
    }

    #[test]
    fn server_state_forces_simulation_off() {
        let state = test_state();
        assert!(!state.options.run.simulate);
        assert!(state.cache.is_empty());
        assert_eq!(state.jobs.running_count(), 0);
    }
}
