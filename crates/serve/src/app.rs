//! Server configuration and shared application state.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ayd_sweep::{
    AnalyticEval, CacheStats, NullSink, RunOptions, ShardSpec, ShardedEvalCache, SweepCell,
    SweepExecutor, SweepJobHandle, SweepOptions, CSV_HEADER,
};

use crate::coordinator::Coordinator;
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

/// Configuration of an [`crate::server::Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Reactor thread count (also sizes the shared cache's shard count).
    pub threads: usize,
    /// Total capacity of the shared evaluation cache.
    pub cache_capacity: usize,
    /// Request parsing limits; `max_body` is the `--max-body` CLI knob.
    pub limits: Limits,
    /// Maximum concurrently running sweep jobs (further submissions → 503).
    pub max_jobs: usize,
    /// Maximum cells a submitted sweep grid may have (above → 400).
    pub max_sweep_cells: usize,
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
            max_jobs: 4,
            max_sweep_cells: 200_000,
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
    /// Maximum concurrently running sweep jobs.
    pub max_jobs: usize,
    /// Maximum cells per submitted sweep grid.
    pub max_sweep_cells: usize,
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
            jobs: JobRegistry::new(),
            limits: config.limits,
            max_jobs: config.max_jobs.max(1),
            max_sweep_cells: config.max_sweep_cells.max(1),
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
    /// True when the job was cancelled before evaluating every cell.
    pub cancelled: bool,
    /// Number of evaluated rows.
    pub rows: usize,
    /// The canonical sweep CSV of the evaluated rows.
    pub csv: String,
    /// The job's own memoisation-cache counters.
    pub cache: CacheStats,
    /// Per-shard outcome of a sharded job (`None` for plain jobs). Retained
    /// so a cancelled job's finished shards can seed a resumed submission.
    pub shards: Option<FinishedShards>,
}

/// The retained shard state of a finished sharded job.
#[derive(Debug)]
pub struct FinishedShards {
    /// Shard count of the job.
    pub count: usize,
    /// Fingerprint of the job's grid (resume submissions must match it).
    pub grid_fingerprint: u64,
    /// Fingerprint of the job's output-relevant options.
    pub options_fingerprint: u64,
    /// Cells each shard owns.
    pub totals: Vec<usize>,
    /// Rows each shard materialised (equal to `totals` entries when done).
    pub completed: Vec<usize>,
    /// Where each finished shard's lines sit in the job's `csv` (`None` for
    /// a shard that never finished): a cancelled job's `resume_token` reuses
    /// them. The lines are the job's CSV itself, so keeping them costs
    /// nothing. `None` for distributed jobs, which the coordinator resumes
    /// from its own checkpoints.
    pub shard_lines: Option<Vec<Option<Range<usize>>>>,
}

/// Progress states of one shard of a sharded job.
const SHARD_PENDING: u8 = 0;
const SHARD_RUNNING: u8 = 1;
const SHARD_DONE: u8 = 2;
const SHARD_REUSED: u8 = 3;

/// Shared progress cell of one shard.
struct ShardSlot {
    total: usize,
    completed: AtomicUsize,
    state: AtomicU8,
}

/// One shard's progress, as reported by `GET /v1/sweep/{id}/shards`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardView {
    /// Shard index.
    pub index: usize,
    /// Cells the shard owns.
    pub total: usize,
    /// Cells evaluated (or reused) so far.
    pub completed: usize,
    /// `pending`, `running`, `done` or `reused`.
    pub status: &'static str,
}

/// Per-shard CSV lines (no header) of a cancelled job, to seed a resumed
/// one: `None` marks a shard that never completed.
pub type ShardLines = Vec<Option<String>>;

/// Result a sharded controller thread hands back on join.
struct ShardedOutcome {
    /// The job's CSV: the header, then each finished shard's lines in shard
    /// order, appended as the shard finished.
    csv: String,
    /// Each shard's lines within `csv`; `None` marks a shard that never
    /// completed.
    shard_lines: Vec<Option<Range<usize>>>,
    cache: CacheStats,
}

/// Handle on a sharded sweep job: shards run one after another on a
/// controller thread (each shard still fans its cells out over the
/// executor's worker pool), so cancellation loses at most the shard in
/// flight — finished shards stay reusable through `resume_token`.
pub struct ShardedJobHandle {
    slots: Arc<Vec<ShardSlot>>,
    cancel: Arc<AtomicBool>,
    grid_fingerprint: u64,
    options_fingerprint: u64,
    thread: std::thread::JoinHandle<ShardedOutcome>,
}

/// Spawns a sharded sweep job. `resumed[i]`, when present, short-circuits
/// shard `i` with the CSV lines an earlier (cancelled) job computed for it —
/// they are byte-identical to a fresh evaluation by the determinism
/// contract, so the reuse is observationally a pure speed-up.
///
/// `cells` is the grid's flattened cell list, which its fingerprint was
/// computed from: callers run inside the job registry's submit lock (on a
/// reactor), so this flattens nothing and only sizes the shards
/// ([`ShardSpec::range`]); the controller thread runs each shard on its
/// range of the one list.
pub fn spawn_sharded(
    options: SweepOptions,
    cells: Vec<SweepCell>,
    count: usize,
    resumed: ShardLines,
    grid_fingerprint: u64,
    options_fingerprint: u64,
) -> ShardedJobHandle {
    debug_assert_eq!(resumed.len(), count);
    let total = cells.len();
    let specs: Vec<ShardSpec> = (0..count)
        .map(|index| ShardSpec::new(index, count).expect("validated by the API layer"))
        .collect();
    let slots: Arc<Vec<ShardSlot>> = Arc::new(
        specs
            .iter()
            .map(|spec| ShardSlot {
                total: spec.range(total).len(),
                completed: AtomicUsize::new(0),
                state: AtomicU8::new(SHARD_PENDING),
            })
            .collect(),
    );
    let cancel = Arc::new(AtomicBool::new(false));
    let (worker_slots, worker_cancel) = (Arc::clone(&slots), Arc::clone(&cancel));
    let thread = std::thread::spawn(move || {
        let executor = SweepExecutor::new(options);
        let mut csv = format!("{CSV_HEADER}\n");
        let mut shard_lines: Vec<Option<Range<usize>>> = vec![None; specs.len()];
        let mut cache = CacheStats::default();
        for (index, (spec, reused)) in specs.iter().zip(resumed).enumerate() {
            let cells = &cells[spec.range(total)];
            let slot = &worker_slots[index];
            if let Some(lines) = reused {
                let start = csv.len();
                csv.push_str(&lines);
                shard_lines[index] = Some(start..csv.len());
                // Release pairs with shard_views' Acquire load of `state`: a
                // reader that sees REUSED also sees the completed count.
                slot.completed.store(slot.total, Ordering::Relaxed);
                slot.state.store(SHARD_REUSED, Ordering::Release);
                continue;
            }
            if worker_cancel.load(Ordering::Relaxed) {
                // `continue`, not `break`: shards resumed from an earlier job
                // must still be drained into the retained state, or a
                // cancel-during-resume would throw their finished rows away.
                continue;
            }
            slot.state.store(SHARD_RUNNING, Ordering::Relaxed);
            let results = executor.run_cells_controlled(
                cells,
                &mut NullSink,
                Some(&worker_cancel),
                Some(&slot.completed),
            );
            cache = cache.merged(results.cache);
            if results.rows.len() == cells.len() {
                // Release for the same reason as the REUSED store above: the
                // workers' progress increments happened-before the scope join,
                // so a reader that sees DONE sees the full count.
                slot.state.store(SHARD_DONE, Ordering::Release);
                let start = csv.len();
                csv.push_str(results.csv_body());
                shard_lines[index] = Some(start..csv.len());
            }
            // The shard's rows are dropped here: its lines are all the job
            // keeps. A partially evaluated shard is discarded, lines and all:
            // resume granularity is whole shards, and partial rows would not
            // be addressable by the resume token anyway.
        }
        ShardedOutcome {
            csv,
            shard_lines,
            cache,
        }
    });
    ShardedJobHandle {
        slots,
        cancel,
        grid_fingerprint,
        options_fingerprint,
        thread,
    }
}

impl ShardedJobHandle {
    fn total(&self) -> usize {
        self.slots.iter().map(|s| s.total).sum()
    }

    fn completed(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.completed.load(Ordering::Relaxed).min(s.total))
            .sum()
    }

    fn shard_views(&self) -> Vec<ShardView> {
        self.slots
            .iter()
            .enumerate()
            .map(|(index, slot)| {
                // Acquire the state *first*: it pairs with the controller's
                // Release stores, so a DONE/REUSED status is never reported
                // with a stale (lower) completed count.
                let status = match slot.state.load(Ordering::Acquire) {
                    SHARD_RUNNING => "running",
                    SHARD_DONE => "done",
                    SHARD_REUSED => "reused",
                    _ => "pending",
                };
                ShardView {
                    index,
                    total: slot.total,
                    completed: slot.completed.load(Ordering::Relaxed).min(slot.total),
                    status,
                }
            })
            .collect()
    }

    fn join(self) -> FinishedJob {
        let count = self.slots.len();
        // A panicked controller thread must not take the registry down with
        // it: treat it as a job that was cancelled before finishing any
        // shard, so clients see a failed (cancelled, zero-row) result and
        // every other endpoint keeps answering.
        let outcome = self.thread.join().unwrap_or_else(|_| ShardedOutcome {
            csv: format!("{CSV_HEADER}\n"),
            shard_lines: vec![None; count],
            cache: CacheStats::default(),
        });
        let cancelled = outcome.shard_lines.iter().any(Option::is_none);
        let completed: Vec<usize> = self
            .slots
            .iter()
            .zip(&outcome.shard_lines)
            .map(|(slot, lines)| if lines.is_some() { slot.total } else { 0 })
            .collect();
        // Shard ranges are contiguous and ascending, so the finished shards'
        // lines in shard order are in global cell order — for a completed
        // job, exactly the unsharded CSV bytes. The controller concatenated
        // them as the shards finished, so joining (under the registry lock)
        // renders nothing.
        FinishedJob {
            cancelled,
            rows: completed.iter().sum(),
            csv: outcome.csv,
            cache: outcome.cache,
            shards: Some(FinishedShards {
                count,
                grid_fingerprint: self.grid_fingerprint,
                options_fingerprint: self.options_fingerprint,
                totals: self.slots.iter().map(|s| s.total).collect(),
                completed,
                shard_lines: Some(outcome.shard_lines),
            }),
        }
    }
}

/// Handle on a sweep job the coordinator farms out to worker nodes: all
/// state lives in the [`Coordinator`], the handle just adapts it to the
/// registry's lifecycle. Joining takes the finished job out of the
/// coordinator (merged via `merge_parts`, byte-identical to the
/// single-process sweep).
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
                csv: outcome.csv,
                // Workers own the evaluation caches; the coordinator never
                // evaluates a cell itself.
                cache: CacheStats::default(),
                shards: Some(FinishedShards {
                    count: outcome.count,
                    grid_fingerprint: outcome.grid_fingerprint,
                    options_fingerprint: outcome.options_fingerprint,
                    totals: outcome.totals,
                    completed: outcome.completed,
                    // Distributed jobs resume through the coordinator's own
                    // checkpoints, not resume tokens.
                    shard_lines: None,
                }),
            },
            None => FinishedJob {
                cancelled: true,
                rows: 0,
                csv: format!("{CSV_HEADER}\n"),
                cache: CacheStats::default(),
                shards: None,
            },
        }
    }
}

/// A running job: the original single-executor path, the sharded
/// controller, or a coordinator-dispatched distributed job.
pub enum JobHandle {
    /// One background executor over the whole grid.
    Plain(SweepJobHandle),
    /// The sequential-shard controller (see [`spawn_sharded`]).
    Sharded(ShardedJobHandle),
    /// Shards dispatched to worker nodes (see [`Coordinator`]).
    Distributed(DistributedJobHandle),
}

impl JobHandle {
    fn completed(&self) -> usize {
        match self {
            JobHandle::Plain(handle) => handle.completed(),
            JobHandle::Sharded(handle) => handle.completed(),
            JobHandle::Distributed(handle) => handle
                .coordinator
                .job_progress(handle.id)
                .map(|(completed, _)| completed)
                .unwrap_or(0),
        }
    }

    fn total(&self) -> usize {
        match self {
            JobHandle::Plain(handle) => handle.total(),
            JobHandle::Sharded(handle) => handle.total(),
            JobHandle::Distributed(handle) => handle
                .coordinator
                .job_progress(handle.id)
                .map(|(_, total)| total)
                .unwrap_or(0),
        }
    }

    fn cancel(&self) {
        match self {
            JobHandle::Plain(handle) => handle.cancel(),
            JobHandle::Sharded(handle) => handle.cancel.store(true, Ordering::Relaxed),
            JobHandle::Distributed(handle) => handle.coordinator.cancel_job(handle.id),
        }
    }

    fn is_finished(&self) -> bool {
        match self {
            JobHandle::Plain(handle) => handle.is_finished(),
            JobHandle::Sharded(handle) => handle.thread.is_finished(),
            JobHandle::Distributed(handle) => handle.coordinator.job_finished(handle.id),
        }
    }

    fn join(self) -> FinishedJob {
        match self {
            JobHandle::Plain(handle) => {
                let outcome = handle.join();
                FinishedJob {
                    cancelled: outcome.cancelled,
                    rows: outcome.results.rows.len(),
                    csv: outcome.results.to_csv(),
                    cache: outcome.results.cache,
                    shards: None,
                }
            }
            JobHandle::Sharded(handle) => handle.join(),
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

/// How many finished jobs the registry retains for later retrieval. Older
/// results (by id) are evicted first — the registry's memory use is bounded
/// by `max_jobs` running handles plus this many CSV payloads.
const MAX_FINISHED_JOBS: usize = 64;

/// Registry of async sweep jobs.
pub struct JobRegistry {
    next_id: AtomicU64,
    jobs: Mutex<std::collections::HashMap<u64, JobEntry>>,
}

impl JobRegistry {
    fn new() -> Self {
        Self {
            next_id: AtomicU64::new(1),
            jobs: Mutex::new(std::collections::HashMap::new()),
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
        Self::reap(&mut jobs);
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
        Self::reap(&mut jobs);
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
        Self::reap(&mut jobs);
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
        Self::reap(&mut jobs);
        match jobs.get(&id)? {
            JobEntry::Running(handle) => Some(JobView::Running(handle.completed(), handle.total())),
            JobEntry::Finished(done) => Some(JobView::Finished(Arc::clone(done))),
        }
    }

    /// Requests cancellation of a running job. Returns `None` for unknown
    /// ids, `Some(true)` when a cancellation was requested, `Some(false)`
    /// when the job had already finished.
    pub fn cancel(&self, id: u64) -> Option<bool> {
        let jobs = self.lock_jobs();
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
    /// otherwise (running or finished).
    pub fn shards_view(&self, id: u64) -> Option<Option<Vec<ShardView>>> {
        let mut jobs = self.lock_jobs();
        Self::reap(&mut jobs);
        match jobs.get(&id)? {
            JobEntry::Running(JobHandle::Sharded(handle)) => Some(Some(handle.shard_views())),
            JobEntry::Running(JobHandle::Plain(_)) => Some(None),
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
                    .or(Some(Vec::new())),
            ),
            JobEntry::Finished(done) => Some(done.shards.as_ref().map(|shards| {
                shards
                    .totals
                    .iter()
                    .zip(&shards.completed)
                    .enumerate()
                    .map(|(index, (&total, &completed))| ShardView {
                        index,
                        total,
                        completed,
                        status: if completed >= total {
                            "done"
                        } else {
                            "pending"
                        },
                    })
                    .collect()
            })),
        }
    }

    /// The per-shard rows (CSV lines) a resumed submission may reuse: the
    /// finished job `id` must have been sharded over the same grid and
    /// options (by fingerprint), and — when the caller requests an explicit
    /// shard `count` — with that same count; `None` adopts the stored count
    /// (one atomic lookup, so the job cannot be evicted between a count probe
    /// and the row fetch). Returns the effective count alongside the lines,
    /// or an error message suitable for a 400 response.
    pub fn resume_rows(
        &self,
        id: u64,
        grid_fingerprint: u64,
        options_fingerprint: u64,
        count: Option<usize>,
    ) -> Result<(usize, ShardLines), String> {
        let mut jobs = self.lock_jobs();
        Self::reap(&mut jobs);
        match jobs.get(&id) {
            None => Err(format!("resume_token names unknown sweep job {id}")),
            Some(JobEntry::Running(_)) => Err(format!(
                "sweep job {id} is still running; cancel it before resuming"
            )),
            Some(JobEntry::Finished(done)) => {
                let shards = done
                    .shards
                    .as_ref()
                    .ok_or_else(|| format!("sweep job {id} was not sharded"))?;
                if shards.grid_fingerprint != grid_fingerprint
                    || shards.options_fingerprint != options_fingerprint
                {
                    return Err(format!(
                        "resume_token of job {id} belongs to a different grid or configuration"
                    ));
                }
                if let Some(count) = count {
                    if shards.count != count {
                        return Err(format!(
                            "sweep job {id} ran with {} shards, not {count}",
                            shards.count
                        ));
                    }
                }
                // Resuming a completed job would only reproduce bytes the
                // client can already fetch.
                let lines = match &shards.shard_lines {
                    Some(lines) if done.cancelled => lines,
                    _ => {
                        return Err(format!(
                            "sweep job {id} completed; fetch its CSV from /v1/sweep/{id} \
                             instead of resuming"
                        ))
                    }
                };
                let lines = lines
                    .iter()
                    .map(|range| range.clone().map(|range| done.csv[range].to_string()))
                    .collect();
                Ok((shards.count, lines))
            }
        }
    }

    /// Joins every finished handle in place (cheap: `join` on a finished
    /// thread does not block meaningfully), then evicts the oldest finished
    /// results beyond [`MAX_FINISHED_JOBS`] so a long-lived server's memory
    /// stays bounded no matter how many sweeps it has served.
    fn reap(jobs: &mut std::collections::HashMap<u64, JobEntry>) {
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
        let mut done_ids: Vec<u64> = jobs
            .iter()
            .filter(|(_, entry)| matches!(entry, JobEntry::Finished(_)))
            .map(|(&id, _)| id)
            .collect();
        if done_ids.len() > MAX_FINISHED_JOBS {
            done_ids.sort_unstable();
            for id in &done_ids[..done_ids.len() - MAX_FINISHED_JOBS] {
                jobs.remove(id);
            }
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

    #[test]
    fn job_registry_tracks_running_then_finished() {
        let state = test_state();
        let grid = ScenarioGrid::builder()
            .scenarios(&[ScenarioId::S1])
            .processors(ProcessorAxis::Fixed(vec![256.0]))
            .build()
            .unwrap();
        let id = state
            .jobs
            .try_submit(4, |_| {
                JobHandle::Plain(SweepExecutor::new(state.options).spawn(&grid))
            })
            .expect("below the running cap");
        // Poll until the job drains; it must end Finished with one row.
        let done = loop {
            match state.jobs.poll(id).expect("job known") {
                JobView::Running(completed, total) => {
                    assert!(completed <= total);
                    std::thread::yield_now();
                }
                JobView::Finished(done) => break done,
            }
        };
        assert!(!done.cancelled);
        assert_eq!(done.rows, 1);
        assert!(done.csv.starts_with(ayd_sweep::CSV_HEADER));
        assert_eq!(state.jobs.running_count(), 0);
        // Cancelling a finished job is a no-op, unknown ids are None.
        assert_eq!(state.jobs.cancel(id), Some(false));
        assert!(state.jobs.cancel(999).is_none());
        assert!(state.jobs.poll(999).is_none());
    }

    #[test]
    fn registry_caps_running_jobs_and_evicts_the_oldest_finished() {
        let state = test_state();
        let grid = ScenarioGrid::builder()
            .scenarios(&[ScenarioId::S1])
            .processors(ProcessorAxis::Fixed(vec![256.0]))
            .build()
            .unwrap();
        // A zero cap rejects without ever spawning.
        assert!(state.jobs.try_submit(0, |_| unreachable!()).is_none());
        // Far more finished jobs than the retention cap: the registry must
        // hold on to at most MAX_FINISHED_JOBS results, oldest evicted first.
        let mut ids = Vec::new();
        for _ in 0..(MAX_FINISHED_JOBS + 4) {
            let id = state
                .jobs
                .try_submit(usize::MAX, |_| {
                    JobHandle::Plain(SweepExecutor::new(state.options).spawn(&grid))
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
    fn sharded_jobs_merge_to_the_unsharded_csv_and_report_shard_views() {
        let state = test_state();
        let grid = ScenarioGrid::builder()
            .scenarios(&ScenarioId::ALL)
            .processors(ProcessorAxis::Fixed(vec![256.0, 1024.0]))
            .build()
            .unwrap();
        let count = 3;
        let id = state
            .jobs
            .try_submit(4, |_| {
                JobHandle::Sharded(spawn_sharded(
                    state.options,
                    grid.cells(),
                    count,
                    vec![None; count],
                    grid.fingerprint(),
                    state.options.output_fingerprint(),
                ))
            })
            .unwrap();
        let done = loop {
            match state.jobs.poll(id).unwrap() {
                JobView::Running(..) => std::thread::yield_now(),
                JobView::Finished(done) => break done,
            }
        };
        assert!(!done.cancelled);
        assert_eq!(done.rows, grid.len());
        // The sharded merge is byte-identical to the unsharded engine.
        let unsharded = SweepExecutor::new(state.options).run(&grid).to_csv();
        assert_eq!(done.csv, unsharded);
        // Each shard's recorded lines are exactly that shard's own run.
        let shard_lines = done.shards.as_ref().unwrap().shard_lines.clone().unwrap();
        for (index, range) in shard_lines.into_iter().enumerate() {
            let shard = ShardSpec::new(index, count).unwrap();
            let run = SweepExecutor::new(state.options).run_cells(&grid.shard_cells(shard));
            assert_eq!(&done.csv[range.unwrap()], run.csv_body(), "shard {index}");
        }
        // The shard view reports every shard done with its cell count.
        let views = state.jobs.shards_view(id).unwrap().unwrap();
        assert_eq!(views.len(), count);
        assert_eq!(views.iter().map(|v| v.total).sum::<usize>(), grid.len());
        assert!(views
            .iter()
            .all(|v| v.status == "done" && v.completed == v.total));
        // Plain jobs report "not sharded".
        let plain = state
            .jobs
            .try_submit(4, |_| {
                JobHandle::Plain(SweepExecutor::new(state.options).spawn(&grid))
            })
            .unwrap();
        while matches!(state.jobs.poll(plain), Some(JobView::Running(..))) {
            std::thread::yield_now();
        }
        assert!(state.jobs.shards_view(plain).unwrap().is_none());
        assert!(state.jobs.shards_view(9999).is_none());
    }

    #[test]
    fn resume_rows_reuses_finished_shards_and_validates_fingerprints() {
        let state = test_state();
        let grid = ScenarioGrid::builder()
            .scenarios(&ScenarioId::ALL)
            .processors(ProcessorAxis::Fixed(vec![256.0, 1024.0]))
            .build()
            .unwrap();
        let grid_fp = grid.fingerprint();
        let options_fp = state.options.output_fingerprint();
        let count = 2;
        // A *completed* sharded job retains no resume rows (its CSV is the
        // product; duplicating every row would double its memory), so
        // resuming it is a definite error pointing at the CSV.
        let full_id = state
            .jobs
            .try_submit(4, |_| {
                JobHandle::Sharded(spawn_sharded(
                    state.options,
                    grid.cells(),
                    count,
                    vec![None; count],
                    grid_fp,
                    options_fp,
                ))
            })
            .unwrap();
        while matches!(state.jobs.poll(full_id), Some(JobView::Running(..))) {
            std::thread::yield_now();
        }
        let err = state
            .jobs
            .resume_rows(full_id, grid_fp, options_fp, Some(count))
            .unwrap_err();
        assert!(err.contains("completed"), "{err}");

        // Seed a deterministic *cancelled* job (shard 0 done, shard 1 lost) —
        // cancelling a live controller mid-shard is inherently racy, and this
        // is exactly the state ShardedJobHandle::join leaves behind.
        let shard0 = ShardSpec::new(0, count).unwrap();
        let shard0_run = SweepExecutor::new(state.options).run_cells(&grid.shard_cells(shard0));
        let csv = shard0_run.to_csv();
        let totals: Vec<usize> = (0..count)
            .map(|i| ShardSpec::new(i, count).unwrap().range(grid.len()).len())
            .collect();
        let id = 4242;
        state.jobs.jobs.lock().unwrap().insert(
            id,
            JobEntry::Finished(Arc::new(FinishedJob {
                cancelled: true,
                rows: shard0_run.rows.len(),
                cache: CacheStats::default(),
                shards: Some(FinishedShards {
                    count,
                    grid_fingerprint: grid_fp,
                    options_fingerprint: options_fp,
                    completed: vec![shard0_run.rows.len(), 0],
                    totals,
                    shard_lines: Some(vec![Some(CSV_HEADER.len() + 1..csv.len()), None]),
                }),
                csv,
            })),
        );
        // `None` adopts the stored shard count in the same atomic lookup.
        let (stored_count, rows) = state
            .jobs
            .resume_rows(id, grid_fp, options_fp, None)
            .unwrap();
        assert_eq!(stored_count, count);
        assert_eq!(rows.len(), count);
        assert_eq!(rows[0].as_deref(), Some(shard0_run.csv_body()));
        assert!(rows[1].is_none());
        // The incomplete shard shows as pending in the finished view.
        let views = state.jobs.shards_view(id).unwrap().unwrap();
        assert_eq!(views[0].status, "done");
        assert_eq!(views[1].status, "pending");
        // Mismatches are rejected with a reason.
        assert!(state
            .jobs
            .resume_rows(id, grid_fp ^ 1, options_fp, Some(count))
            .is_err());
        assert!(state
            .jobs
            .resume_rows(id, grid_fp, options_fp, Some(3))
            .is_err());
        assert!(state
            .jobs
            .resume_rows(777, grid_fp, options_fp, Some(count))
            .is_err());

        // A job resumed from that state reuses shard 0, computes only shard 1
        // and still merges to the exact unsharded bytes.
        let resumed_id = state
            .jobs
            .try_submit(4, |_| {
                JobHandle::Sharded(spawn_sharded(
                    state.options,
                    grid.cells(),
                    count,
                    rows,
                    grid_fp,
                    options_fp,
                ))
            })
            .unwrap();
        let done = loop {
            match state.jobs.poll(resumed_id).unwrap() {
                JobView::Running(..) => std::thread::yield_now(),
                JobView::Finished(done) => break done,
            }
        };
        assert!(!done.cancelled);
        assert_eq!(
            done.csv,
            SweepExecutor::new(state.options).run(&grid).to_csv()
        );
        let views = state.jobs.shards_view(resumed_id).unwrap().unwrap();
        assert!(views.iter().all(|v| v.status == "done"), "{views:?}");
    }

    #[test]
    fn a_cancelled_sharded_job_keeps_its_finished_shards_lines_for_resume() {
        let state = test_state();
        let grid = ScenarioGrid::builder()
            .scenarios(&ScenarioId::ALL)
            .processors(ProcessorAxis::Fixed(vec![256.0, 1024.0]))
            .build()
            .unwrap();
        let (grid_fp, options_fp) = (grid.fingerprint(), state.options.output_fingerprint());
        let count = 3;
        let runs: Vec<_> = (0..count)
            .map(|i| {
                let shard = ShardSpec::new(i, count).unwrap();
                SweepExecutor::new(state.options).run_cells(&grid.shard_cells(shard))
            })
            .collect();
        // The controller's outcome when shard 1 was cut short by a cancel:
        // shards 0 and 2 (say, reused) finished, their lines back to back.
        let mut csv = format!("{CSV_HEADER}\n");
        let mut shard_lines = Vec::new();
        for (index, run) in runs.iter().enumerate() {
            if index == 1 {
                shard_lines.push(None);
                continue;
            }
            let start = csv.len();
            csv.push_str(run.csv_body());
            shard_lines.push(Some(start..csv.len()));
        }
        let handle = ShardedJobHandle {
            slots: Arc::new(
                runs.iter()
                    .map(|run| ShardSlot {
                        total: run.rows.len(),
                        completed: AtomicUsize::new(0),
                        state: AtomicU8::new(SHARD_PENDING),
                    })
                    .collect(),
            ),
            cancel: Arc::new(AtomicBool::new(true)),
            grid_fingerprint: grid_fp,
            options_fingerprint: options_fp,
            thread: std::thread::spawn(move || ShardedOutcome {
                csv,
                shard_lines,
                cache: CacheStats::default(),
            }),
        };
        let id = state
            .jobs
            .try_submit(4, |_| JobHandle::Sharded(handle))
            .unwrap();
        let done = loop {
            match state.jobs.poll(id).unwrap() {
                JobView::Running(..) => std::thread::yield_now(),
                JobView::Finished(done) => break done,
            }
        };
        assert!(done.cancelled);
        assert_eq!(done.rows, runs[0].rows.len() + runs[2].rows.len());
        assert_eq!(
            done.csv,
            ayd_sweep::csv_text(runs[0].rows.iter().chain(&runs[2].rows))
        );
        let views = state.jobs.shards_view(id).unwrap().unwrap();
        let statuses: Vec<&str> = views.iter().map(|v| v.status).collect();
        assert_eq!(statuses, ["done", "pending", "done"]);

        // The resume token hands back exactly the finished shards' lines…
        let (_, lines) = state
            .jobs
            .resume_rows(id, grid_fp, options_fp, Some(count))
            .unwrap();
        assert_eq!(lines[0].as_deref(), Some(runs[0].csv_body()));
        assert!(lines[1].is_none());
        assert_eq!(lines[2].as_deref(), Some(runs[2].csv_body()));
        // …and a job resumed from them evaluates only shard 1, yet its CSV
        // is the unsharded sweep's bytes.
        let resumed = state
            .jobs
            .try_submit(4, |_| {
                JobHandle::Sharded(spawn_sharded(
                    state.options,
                    grid.cells(),
                    count,
                    lines,
                    grid_fp,
                    options_fp,
                ))
            })
            .unwrap();
        let done = loop {
            match state.jobs.poll(resumed).unwrap() {
                JobView::Running(..) => std::thread::yield_now(),
                JobView::Finished(done) => break done,
            }
        };
        assert!(!done.cancelled);
        assert_eq!(done.rows, grid.len());
        assert_eq!(
            done.csv,
            SweepExecutor::new(state.options).run(&grid).to_csv()
        );
        assert!(done.cache.misses <= runs[1].rows.len() as u64);
    }

    #[test]
    fn registry_survives_a_poisoned_lock() {
        let state = test_state();
        let grid = ScenarioGrid::builder()
            .scenarios(&[ScenarioId::S1])
            .processors(ProcessorAxis::Fixed(vec![256.0]))
            .build()
            .unwrap();
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
        assert!(state.jobs.resume_rows(1, 0, 0, None).is_err());
        let id = state
            .jobs
            .try_submit(4, |_| {
                JobHandle::Plain(SweepExecutor::new(state.options).spawn(&grid))
            })
            .expect("submission works on a poisoned registry");
        let done = loop {
            match state.jobs.poll(id).expect("job known") {
                JobView::Running(..) => std::thread::yield_now(),
                JobView::Finished(done) => break done,
            }
        };
        assert_eq!(done.rows, 1);
    }

    #[test]
    fn a_panicked_sharded_controller_finishes_as_cancelled() {
        let state = test_state();
        // Hand-build a handle whose controller thread dies: join must fold
        // the panic into a cancelled zero-row job, not propagate it.
        let slots: Arc<Vec<ShardSlot>> = Arc::new(
            (0..2)
                .map(|_| ShardSlot {
                    total: 1,
                    completed: AtomicUsize::new(0),
                    state: AtomicU8::new(SHARD_PENDING),
                })
                .collect(),
        );
        let handle = ShardedJobHandle {
            slots,
            cancel: Arc::new(AtomicBool::new(false)),
            grid_fingerprint: 0,
            options_fingerprint: 0,
            thread: std::thread::spawn(|| panic!("deliberate controller crash")),
        };
        let id = state
            .jobs
            .try_submit(4, |_| JobHandle::Sharded(handle))
            .unwrap();
        let done = loop {
            match state.jobs.poll(id).expect("job known") {
                JobView::Running(..) => std::thread::yield_now(),
                JobView::Finished(done) => break done,
            }
        };
        assert!(done.cancelled);
        assert_eq!(done.rows, 0);
        assert!(done.csv.starts_with(ayd_sweep::CSV_HEADER));
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
