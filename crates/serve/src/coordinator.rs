//! The sweep coordinator: decomposes a `/v1/sweep` job into
//! [`ayd_sweep::ShardSpec`] units and dispatches them to registered worker nodes.
//!
//! One ayd-serve instance started with `--coordinator` owns the cluster
//! state: a registry of workers (each leased — a worker that stops
//! heartbeating is declared *suspect* after one lease and *dead* after two),
//! and a work-stealing shard queue per distributed job. A dispatcher thread
//! pushes pending shards to idle workers over the zero-dependency
//! [`crate::client::HttpClient`]; workers stream result rows back in
//! [`ShardChunk`] frames, each carrying the manifest snapshot that makes it
//! verifiable against the job's fingerprints and the coordinator's own
//! checkpoint.
//!
//! Dispatch is event-driven: the dispatcher thread sleeps on a condition
//! variable that job submission, worker registration, shard completion, a
//! failed post, a reported drop and a cancel signal, so a freed worker is
//! handed its next shard at once. The dispatcher tick only bounds
//! that wait, so lease expiry is still scanned on time. Each post runs on
//! its own thread, so no dispatch waits for another and a worker that never
//! answers stalls only its own.
//!
//! A dispatched shard belongs to the worker whose assignment names its
//! `(job, shard, epoch)` — the one record of who holds it, against which
//! uploads are fenced — until the worker completes it, reports it dropped
//! (a heartbeat names the shard it stopped computing after a refused or
//! failed upload), its lease expires, or the job is cancelled.
//!
//! Failure handling is the paper's checkpoint/restart discipline applied to
//! the cluster itself: a shard whose worker's lease expires, or that its
//! worker reports dropped, is re-queued **from the last accepted chunk**
//! (the coordinator-side checkpoint, the only one) — at most the in-flight
//! suffix is recomputed, never a completed cell. Every re-issue bumps the
//! shard's *epoch*; chunk uploads carry the worker id, its registration
//! token and the epoch they were dispatched under, so a resurrected worker
//! (or a slow upload racing a re-issued shard) is fenced out with `409`
//! instead of corrupting the row stream. A cancel frees the job's workers
//! at once and re-issues nothing.
//!
//! Each fact about a shard has one holder. Its rows, checkpoint and
//! completion are in the job's file (a [`CsvFile`]): an accepted chunk's
//! rows are appended there as they arrive, whatever the shard, the shard's
//! checkpoint is the rows the file holds for it, and it is done once those
//! are all its cells. The file reads the CSV back in shard order, so a
//! finished job hands it over as it stands — the single-process sweep's
//! bytes when complete, their in-order prefix when cancelled — and no row
//! is ever on the heap. Who holds a shard is a worker's assignment; its
//! epoch, re-issues and last worker are its `DistShard`. A job whose
//! file cannot be created or written ends cancelled, with the rows that
//! reached the file and the error.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ayd_sweep::ShardChunk;

use crate::client::HttpClient;
use crate::csv_file::CsvFile;
use crate::json::Json;

/// How long a dead worker's record lingers (for the `/v1/workers` view and
/// the `ayd_workers{state="dead"}` gauge) before it is purged, in leases.
const DEAD_RETENTION_LEASES: u32 = 10;

/// One registered worker node.
struct WorkerRecord {
    addr: String,
    token: u64,
    last_seen: Instant,
    /// The shard this worker holds: set by a dispatch, taken when the
    /// worker completes or drops it, the post fails, the lease expires or
    /// the job is cancelled.
    assignment: Option<Assignment>,
    /// Set when the lease expired; the record stays for visibility until
    /// purged, but the worker must re-register to be dispatched to again.
    dead: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Assignment {
    job: u64,
    shard: usize,
    epoch: u64,
}

/// One shard of a distributed job: its fencing epoch and dispatch history.
/// Its rows and checkpoint are in the job's file, and the worker holding it
/// is the one whose assignment names it. It is *done* once the file holds
/// all its cells, *dispatched* while a worker holds it, and *pending*
/// otherwise.
struct DistShard {
    /// Bumped on every re-issue; uploads carrying an older epoch are stale.
    epoch: u64,
    /// Last worker the shard was dispatched to (kept once it is done, for
    /// the per-worker progress view).
    worker: Option<u64>,
    reissues: u64,
}

/// One distributed sweep job: its shards, fingerprints and grid document,
/// and its CSV file.
struct DistJob {
    /// The original `/v1/sweep` body (re-rendered), forwarded to workers so
    /// they rebuild the exact grid; cross-checked by fingerprint.
    grid_json: String,
    grid_fingerprint: u64,
    options_fingerprint: u64,
    shards: Vec<DistShard>,
    cancelled: bool,
    /// Every accepted chunk's rows, read back in shard order.
    csv: CsvFile,
    /// Why the job's file could not be created or written, if it could not.
    error: Option<String>,
}

impl DistJob {
    /// True when the file holds every cell of shard `index`.
    fn shard_done(&self, index: usize) -> bool {
        self.csv.shard_rows(index) == self.csv.total(index)
    }

    fn is_done(&self) -> bool {
        self.csv.rows() == self.csv.cells()
    }
}

struct ClusterState {
    next_worker: u64,
    token_seed: u64,
    workers: HashMap<u64, WorkerRecord>,
    jobs: HashMap<u64, DistJob>,
}

impl ClusterState {
    /// Which of the `count` shards of `job` a worker holds, by index.
    fn held(&self, job: u64, count: usize) -> Vec<bool> {
        let mut held = vec![false; count];
        for assignment in self.workers.values().filter_map(|record| record.assignment) {
            if assignment.job == job {
                held[assignment.shard] = true;
            }
        }
        held
    }
}

/// A planned shard dispatch: everything the dispatcher thread needs to POST
/// `/v1/shards/run` to the worker *outside* the coordinator lock.
#[derive(Debug, Clone)]
pub struct Dispatch {
    /// Target worker id.
    pub worker: u64,
    /// Target worker address (`host:port`).
    pub addr: String,
    /// Distributed job id (the `/v1/sweep` job id).
    pub job: u64,
    /// Shard index.
    pub shard: usize,
    /// Shard count of the job.
    pub count: usize,
    /// Fencing epoch the shard is dispatched under.
    pub epoch: u64,
    /// First shard-local row the worker must compute (earlier rows are
    /// already checkpointed at the coordinator).
    pub start_row: usize,
    /// The job's grid as the original sweep request JSON.
    pub grid_json: String,
    /// Fingerprint of the job's grid.
    pub grid_fingerprint: u64,
    /// Fingerprint of the job's output-relevant options.
    pub options_fingerprint: u64,
}

/// Why a chunk upload was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkError {
    /// Unknown job or shard (404).
    NotFound(String),
    /// The job was cancelled (410).
    Gone(String),
    /// Stale sender: unknown/superseded worker, wrong token, or an epoch
    /// older than the shard's current one (409). The checkpoint is unchanged.
    Stale(String),
    /// The chunk contradicts the job (fingerprints, checkpoint offset) (400).
    Invalid(String),
}

impl ChunkError {
    /// The HTTP mapping of the rejection.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            ChunkError::NotFound(_) => (404, "Not Found"),
            ChunkError::Gone(_) => (410, "Gone"),
            ChunkError::Stale(_) => (409, "Conflict"),
            ChunkError::Invalid(_) => (400, "Bad Request"),
        }
    }

    /// The human-readable reason.
    pub fn reason(&self) -> &str {
        match self {
            ChunkError::NotFound(reason)
            | ChunkError::Gone(reason)
            | ChunkError::Stale(reason)
            | ChunkError::Invalid(reason) => reason,
        }
    }
}

/// Outcome of an accepted chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkOutcome {
    /// Rows appended to the shard's checkpoint by this chunk.
    pub accepted_rows: usize,
    /// True when the chunk completed its shard.
    pub shard_done: bool,
    /// True when the chunk completed the whole job.
    pub job_done: bool,
}

/// A worker row of the `/v1/workers` operator view.
#[derive(Debug, Clone)]
pub struct WorkerView {
    /// Worker id.
    pub id: u64,
    /// Worker address.
    pub addr: String,
    /// `alive`, `suspect` or `dead`.
    pub state: &'static str,
    /// Milliseconds since the last heartbeat.
    pub age_ms: u64,
    /// `(job, shard, epoch)` currently dispatched to the worker, if any.
    pub assignment: Option<(u64, usize, u64)>,
}

/// One shard row of the distributed `GET /v1/sweep/{id}/shards` view.
#[derive(Debug, Clone)]
pub struct DistShardView {
    /// Shard index.
    pub index: usize,
    /// Cells the shard owns.
    pub total: usize,
    /// Rows checkpointed at the coordinator.
    pub completed: usize,
    /// `pending`, `dispatched` or `done`.
    pub status: &'static str,
    /// The worker the shard is (or was last) dispatched to.
    pub worker: Option<u64>,
    /// That worker's address, when it is still registered.
    pub worker_addr: Option<String>,
    /// Current fencing epoch.
    pub epoch: u64,
    /// Times the shard was re-issued (lease expiry or a reported drop).
    pub reissues: u64,
}

/// The distributed-job progress document: per-shard rows plus the rows in
/// global order so far.
#[derive(Debug, Clone)]
pub struct DistJobView {
    /// Per-shard progress.
    pub shards: Vec<DistShardView>,
    /// Rows in global order: every shard's up to the first incomplete one,
    /// and that one's (the rows the job's CSV reads back).
    pub merged_rows: usize,
    /// Total cells of the grid.
    pub total: usize,
    /// True when the job was cancelled.
    pub cancelled: bool,
}

/// Point-in-time cluster counters for the `/metrics` families.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Workers heartbeating within one lease.
    pub workers_alive: usize,
    /// Workers between one and two leases behind.
    pub workers_suspect: usize,
    /// Workers declared dead (lease expired), not yet purged.
    pub workers_dead: usize,
    /// Shard dispatches attempted (`ayd_shards_dispatched_total`).
    pub shards_dispatched_total: u64,
    /// Shards re-issued after a lease expiry or a drop their worker reported
    /// (`ayd_shard_reissues_total`).
    pub shard_reissues_total: u64,
    /// Worker leases expired (`ayd_lease_expiries_total`).
    pub lease_expiries_total: u64,
}

/// What a finished distributed job hands to the job registry.
#[derive(Debug)]
pub struct DistOutcome {
    /// True when the job was cancelled before every shard completed.
    pub cancelled: bool,
    /// The job's file, read back as the canonical CSV: the whole sweep for
    /// a done job, its in-order prefix through the first incomplete shard
    /// for a cancelled one.
    pub csv: CsvFile,
    /// Rows in `csv`.
    pub rows: usize,
    /// Cells each shard owns.
    pub totals: Vec<usize>,
    /// Why the job's file could not be created or written, if it could not.
    pub error: Option<String>,
}

/// The coordinator: cluster state behind one mutex, counters on atomics, and
/// `Instant`-parameterised lease arithmetic so tests drive time synthetically.
pub struct Coordinator {
    lease: Duration,
    state: Mutex<ClusterState>,
    dispatched_total: AtomicU64,
    reissues_total: AtomicU64,
    lease_expiries_total: AtomicU64,
    stop: AtomicBool,
    /// Set by every event that may enable a dispatch; the dispatcher waits
    /// on `wake_signal` until it is set (see `Coordinator::wait_wake`).
    wake: Mutex<bool>,
    wake_signal: Condvar,
}

/// SplitMix64 finalizer — the token generator (uniqueness, not secrecy, is
/// the point: tokens fence *accidental* stale writers, the cluster protocol
/// is not an authentication boundary).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Coordinator {
    /// Builds a coordinator with the given worker lease.
    pub fn new(lease: Duration) -> Arc<Self> {
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5EED)
            ^ (std::process::id() as u64) << 32;
        Arc::new(Self {
            lease: lease.max(Duration::from_millis(10)),
            state: Mutex::new(ClusterState {
                next_worker: 1,
                token_seed: mix64(seed),
                workers: HashMap::new(),
                jobs: HashMap::new(),
            }),
            dispatched_total: AtomicU64::new(0),
            reissues_total: AtomicU64::new(0),
            lease_expiries_total: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            wake: Mutex::new(false),
            wake_signal: Condvar::new(),
        })
    }

    /// The worker lease.
    pub fn lease(&self) -> Duration {
        self.lease
    }

    /// Asks the dispatcher thread to exit.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake();
    }

    /// Wakes the dispatcher: something may have made a dispatch possible.
    fn wake(&self) {
        *self.wake.lock().unwrap_or_else(|p| p.into_inner()) = true;
        self.wake_signal.notify_all();
    }

    /// Waits until the dispatcher is woken or `timeout` passes, consuming
    /// the wake. Returns whether it was woken (a wake that arrived while
    /// nobody waited counts, so none is lost between scans).
    fn wait_wake(&self, timeout: Duration) -> bool {
        let woken = self.wake.lock().unwrap_or_else(|p| p.into_inner());
        let (mut woken, _) = self
            .wake_signal
            .wait_timeout_while(woken, timeout, |woken| !*woken)
            .unwrap_or_else(|p| p.into_inner());
        std::mem::replace(&mut *woken, false)
    }

    /// True once [`Coordinator::stop`] was called.
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ClusterState> {
        // Same poison policy as the job registry: the protected maps stay
        // structurally valid across our critical sections.
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Registers a worker node, returning `(id, token)`. Re-registration
    /// (same address again) creates a fresh identity; any shard dispatched to
    /// the old identity stays fenced to it.
    pub fn register_worker(&self, addr: &str, now: Instant) -> (u64, u64) {
        let mut state = self.lock();
        state.token_seed = mix64(state.token_seed);
        let token = state.token_seed;
        let id = state.next_worker;
        state.next_worker += 1;
        state.workers.insert(
            id,
            WorkerRecord {
                addr: addr.to_string(),
                token,
                last_seen: now,
                assignment: None,
                dead: false,
            },
        );
        drop(state);
        self.wake();
        (id, token)
    }

    /// Renews a worker's lease. `dropped` is the `(job, shard, epoch)` the
    /// worker reports it stopped computing after a refused or failed
    /// upload. When that is still the worker's assignment, the shard
    /// re-queues from its checkpoint under the next epoch, like a lease
    /// expiry, and the dispatcher is woken; a report of anything else (an
    /// older epoch, another shard, a cancelled job) changes nothing. `Err`
    /// (worker unknown, token mismatch or declared dead) tells the worker to
    /// re-register.
    pub fn heartbeat(
        &self,
        id: u64,
        token: u64,
        dropped: Option<(u64, usize, u64)>,
        now: Instant,
    ) -> Result<(), String> {
        let mut state = self.lock();
        let record = match state.workers.get_mut(&id) {
            Some(record) if record.token == token && !record.dead => record,
            Some(record) if record.dead => {
                return Err(format!("worker {id} was declared dead; re-register"))
            }
            Some(_) => return Err(format!("worker {id} token mismatch; re-register")),
            None => return Err(format!("unknown worker {id}; re-register")),
        };
        record.last_seen = now;
        let Some((job, shard, epoch)) = dropped else {
            return Ok(());
        };
        let dropped = Assignment { job, shard, epoch };
        if record.assignment.take_if(|held| *held == dropped).is_some() {
            self.requeue(&mut state, dropped);
            drop(state);
            self.wake();
        }
        Ok(())
    }

    /// Registers a distributed job: `count` shards over a `grid_cells`-cell
    /// grid, and creates its file. A shard that owns no cells (more shards
    /// than cells) is done from the start, with nothing to upload. A job
    /// whose file cannot be created is cancelled at once, with the error.
    pub fn submit(
        &self,
        job: u64,
        grid_json: String,
        grid_fingerprint: u64,
        options_fingerprint: u64,
        count: usize,
        grid_cells: usize,
    ) {
        let (csv, error) = match CsvFile::create(grid_cells, count) {
            Ok(csv) => (csv, None),
            Err(error) => (
                CsvFile::header_only(grid_cells, count),
                Some(format!("creating the job's CSV file: {error}")),
            ),
        };
        let shards = (0..count)
            .map(|_| DistShard {
                epoch: 0,
                worker: None,
                reissues: 0,
            })
            .collect();
        self.lock().jobs.insert(
            job,
            DistJob {
                grid_json,
                grid_fingerprint,
                options_fingerprint,
                shards,
                cancelled: error.is_some(),
                csv,
                error,
            },
        );
        self.wake();
    }

    /// Expires leases: workers more than two leases behind are declared dead
    /// — their in-flight shard re-queues from its coordinator checkpoint
    /// under a bumped epoch — and dead records past the retention window are
    /// purged. Returns the ids of workers declared dead by this call.
    pub fn expire(&self, now: Instant) -> Vec<u64> {
        let mut state = self.lock();
        let mut died = Vec::new();
        let dead_after = 2 * self.lease;
        let purge_after = DEAD_RETENTION_LEASES * self.lease;
        let mut requeue = Vec::new();
        for (&id, record) in state.workers.iter_mut() {
            if !record.dead && now.duration_since(record.last_seen) > dead_after {
                record.dead = true;
                died.push(id);
                self.lease_expiries_total.fetch_add(1, Ordering::Relaxed);
                let mut span = ayd_obs::span("lease_expire");
                span.field_u64("worker", id);
                if let Some(assignment) = record.assignment.take() {
                    span.field_u64("job", assignment.job);
                    span.field_u64("shard", assignment.shard as u64);
                    requeue.push(assignment);
                }
                span.finish();
            }
        }
        state.workers.retain(|_, record| {
            !record.dead || now.duration_since(record.last_seen) <= purge_after
        });
        for assignment in requeue {
            self.requeue(&mut state, assignment);
        }
        died
    }

    /// Re-queues a shard just taken from the worker that held it, from its
    /// coordinator checkpoint under the next epoch, which fences any late
    /// upload of the old one.
    fn requeue(&self, state: &mut ClusterState, held: Assignment) {
        let Some(job) = state.jobs.get_mut(&held.job) else {
            return;
        };
        let shard = &mut job.shards[held.shard];
        shard.epoch += 1;
        shard.reissues += 1;
        self.reissues_total.fetch_add(1, Ordering::Relaxed);
        let mut span = ayd_obs::span("shard_reissue");
        span.field_u64("job", held.job);
        span.field_u64("shard", held.shard as u64);
        span.field_u64("epoch", shard.epoch);
        span.field_u64("checkpointed_rows", job.csv.shard_rows(held.shard) as u64);
        span.finish();
    }

    /// Plans dispatches: pending shards (not done, held by no worker) are
    /// assigned to idle alive workers under the lock, and the HTTP posts
    /// happen outside it. A post that fails must be reported back via
    /// [`Coordinator::dispatch_failed`].
    pub fn dispatch_plan(&self, now: Instant) -> Vec<Dispatch> {
        let mut state = self.lock();
        let mut idle: Vec<u64> = state
            .workers
            .iter()
            .filter(|(_, record)| {
                !record.dead
                    && record.assignment.is_none()
                    && now.duration_since(record.last_seen) <= self.lease
            })
            .map(|(&id, _)| id)
            .collect();
        idle.sort_unstable();
        if idle.is_empty() {
            return Vec::new();
        }
        let mut plan = Vec::new();
        let mut job_ids: Vec<u64> = state.jobs.keys().copied().collect();
        job_ids.sort_unstable();
        'jobs: for job_id in job_ids {
            let job = &state.jobs[&job_id];
            if job.cancelled {
                continue;
            }
            let held = state.held(job_id, job.shards.len());
            let pending: Vec<usize> = (0..job.shards.len())
                .filter(|&index| !held[index] && !job.shard_done(index))
                .collect();
            for shard_index in pending {
                let Some(worker_id) = idle.pop() else {
                    break 'jobs;
                };
                let addr = state.workers[&worker_id].addr.clone();
                let job = state.jobs.get_mut(&job_id).expect("job present");
                let count = job.shards.len();
                let shard = &mut job.shards[shard_index];
                shard.worker = Some(worker_id);
                let dispatch = Dispatch {
                    worker: worker_id,
                    addr,
                    job: job_id,
                    shard: shard_index,
                    count,
                    epoch: shard.epoch,
                    start_row: job.csv.shard_rows(shard_index),
                    grid_json: job.grid_json.clone(),
                    grid_fingerprint: job.grid_fingerprint,
                    options_fingerprint: job.options_fingerprint,
                };
                let record = state.workers.get_mut(&worker_id).expect("worker present");
                record.assignment = Some(dispatch.assignment());
                self.dispatched_total.fetch_add(1, Ordering::Relaxed);
                plan.push(dispatch);
            }
        }
        plan
    }

    /// Reverts a dispatch whose HTTP post failed: when the worker still
    /// holds it, the worker lets go of it, so both are idle and pending
    /// again (same epoch — nothing was computed). Wakes the dispatcher,
    /// which may be waiting while the post ran on its own thread.
    pub fn dispatch_failed(&self, dispatch: &Dispatch) {
        if let Some(record) = self.lock().workers.get_mut(&dispatch.worker) {
            record
                .assignment
                .take_if(|held| *held == dispatch.assignment());
        }
        self.wake();
    }

    /// Accepts (or refuses) one uploaded chunk. The sender must hold the
    /// shard — its registration token must match, and its assignment must
    /// name the job, the shard and the upload's epoch — and the chunk's
    /// manifest must agree with the job's fingerprints and the
    /// coordinator's checkpoint. A refused chunk leaves the checkpoint
    /// unchanged.
    #[allow(clippy::too_many_arguments)]
    pub fn accept_chunk(
        &self,
        job_id: u64,
        shard_index: usize,
        worker: u64,
        token: u64,
        epoch: u64,
        chunk: &ShardChunk,
        now: Instant,
    ) -> Result<ChunkOutcome, ChunkError> {
        let mut span = ayd_obs::span("shard_chunk");
        span.field_u64("job", job_id);
        span.field_u64("shard", shard_index as u64);
        span.field_u64("worker", worker);
        span.field_u64("rows", chunk.row_count() as u64);
        let result = self.accept_chunk_inner(job_id, shard_index, worker, token, epoch, chunk, now);
        span.field_bool("accepted", result.is_ok());
        span.finish();
        result
    }

    #[allow(clippy::too_many_arguments)]
    fn accept_chunk_inner(
        &self,
        job_id: u64,
        shard_index: usize,
        worker: u64,
        token: u64,
        epoch: u64,
        chunk: &ShardChunk,
        now: Instant,
    ) -> Result<ChunkOutcome, ChunkError> {
        let mut state = self.lock();
        let held = match state.workers.get(&worker) {
            Some(record) if record.dead => {
                return Err(ChunkError::Stale(format!(
                    "worker {worker} was declared dead; its shard was re-issued"
                )))
            }
            Some(record) if record.token != token => {
                return Err(ChunkError::Stale(format!(
                    "worker {worker} token mismatch (stale registration)"
                )))
            }
            Some(record) => record.assignment,
            None => {
                return Err(ChunkError::Stale(format!(
                    "unknown worker {worker} (purged after lease expiry?)"
                )))
            }
        };
        let Some(job) = state.jobs.get_mut(&job_id) else {
            return Err(ChunkError::NotFound(format!("no sweep job {job_id}")));
        };
        if job.cancelled {
            return Err(ChunkError::Gone(format!(
                "sweep job {job_id} was cancelled"
            )));
        }
        let count = job.shards.len();
        if shard_index >= count {
            return Err(ChunkError::NotFound(format!(
                "job {job_id} has {count} shards, no shard {shard_index}"
            )));
        }
        let manifest = chunk.manifest();
        if manifest.grid_fingerprint != job.grid_fingerprint
            || manifest.options_fingerprint != job.options_fingerprint
            || manifest.grid_cells != job.csv.cells()
        {
            return Err(ChunkError::Invalid(
                "chunk manifest belongs to a different sweep (fingerprint mismatch)".to_string(),
            ));
        }
        if manifest.shard.index != shard_index || manifest.shard.count != count {
            return Err(ChunkError::Invalid(format!(
                "chunk manifest covers shard {}, upload targets shard {shard_index}/{count}",
                manifest.shard
            )));
        }
        // Fence the sender: only the worker whose assignment names this
        // epoch of the shard may advance its checkpoint.
        if held
            != Some(Assignment {
                job: job_id,
                shard: shard_index,
                epoch,
            })
        {
            let current = job.shards[shard_index].epoch;
            return Err(ChunkError::Stale(if job.shard_done(shard_index) {
                format!("shard {shard_index} already completed")
            } else if current != epoch {
                format!("stale epoch {epoch} for shard {shard_index} (current {current})")
            } else {
                format!("shard {shard_index} is not dispatched to worker {worker}")
            }));
        }
        let checkpoint = job.csv.shard_rows(shard_index);
        if chunk.from_row() != checkpoint {
            return Err(ChunkError::Invalid(format!(
                "chunk starts at row {} but the checkpoint holds {checkpoint} rows",
                chunk.from_row()
            )));
        }
        let accepted_rows = chunk.row_count();
        let total = job.csv.total(shard_index);
        if checkpoint + accepted_rows > total {
            return Err(ChunkError::Invalid(format!(
                "chunk overruns the shard: {checkpoint} + {accepted_rows} rows > {total} cells"
            )));
        }
        if let Err(error) = job.csv.append(shard_index, chunk.rows(), accepted_rows) {
            let reason = format!("writing the job's CSV file: {error}");
            job.error = Some(reason.clone());
            Self::cancel_locked(&mut state, job_id);
            drop(state);
            self.wake();
            return Err(ChunkError::Gone(format!(
                "sweep job {job_id} was cancelled: {reason}"
            )));
        }
        let shard_done = checkpoint + accepted_rows == total;
        let job_done = job.is_done();
        // The upload doubles as a heartbeat, and a finished shard frees the
        // worker: the dispatcher is woken to hand it the next one at once.
        if let Some(record) = state.workers.get_mut(&worker) {
            record.last_seen = now;
            if shard_done {
                record.assignment = None;
            }
        }
        drop(state);
        if shard_done {
            self.wake();
        }
        Ok(ChunkOutcome {
            accepted_rows,
            shard_done,
            job_done,
        })
    }

    /// Cancels a job: its pending shards stop dispatching, its uploads are
    /// refused with `410`, and every worker holding one of its shards is
    /// released at once and the dispatcher woken, so the worker may be
    /// handed another job's shard while the cancelled one stops at its next
    /// refused upload (the worker's dispatch grace covers the overlap). A
    /// cancelled job's shards are never re-issued.
    pub fn cancel_job(&self, job: u64) {
        let mut state = self.lock();
        if Self::cancel_locked(&mut state, job) {
            drop(state);
            self.wake();
        }
    }

    /// Marks `job` cancelled and frees every worker holding one of its
    /// shards; false when there is no such job.
    fn cancel_locked(state: &mut ClusterState, job: u64) -> bool {
        let Some(entry) = state.jobs.get_mut(&job) else {
            return false;
        };
        entry.cancelled = true;
        for record in state.workers.values_mut() {
            record.assignment.take_if(|held| held.job == job);
        }
        true
    }

    /// `(completed, total)` cells of a live job.
    pub fn job_progress(&self, job: u64) -> Option<(usize, usize)> {
        let state = self.lock();
        state.jobs.get(&job).map(|entry| {
            let completed = (0..entry.shards.len()).map(|index| entry.csv.shard_rows(index));
            (completed.sum(), entry.csv.cells())
        })
    }

    /// True when the job can be joined: every shard done, or cancelled.
    /// Unknown jobs count as finished so the registry never spins on one.
    pub fn job_finished(&self, job: u64) -> bool {
        let state = self.lock();
        state
            .jobs
            .get(&job)
            .map(|entry| entry.cancelled || entry.is_done())
            .unwrap_or(true)
    }

    /// The distributed per-shard progress view of a live job.
    pub fn shards_view(&self, job: u64) -> Option<DistJobView> {
        let state = self.lock();
        let entry = state.jobs.get(&job)?;
        let held = state.held(job, entry.shards.len());
        let shards = entry
            .shards
            .iter()
            .enumerate()
            .map(|(index, shard)| DistShardView {
                index,
                total: entry.csv.total(index),
                completed: entry.csv.shard_rows(index),
                status: if entry.shard_done(index) {
                    "done"
                } else if held[index] {
                    "dispatched"
                } else {
                    "pending"
                },
                worker: shard.worker,
                worker_addr: shard
                    .worker
                    .and_then(|id| state.workers.get(&id))
                    .map(|record| record.addr.clone()),
                epoch: shard.epoch,
                reissues: shard.reissues,
            })
            .collect();
        Some(DistJobView {
            shards,
            merged_rows: entry.csv.rows(),
            total: entry.csv.cells(),
            cancelled: entry.cancelled,
        })
    }

    /// The `/v1/workers` operator view.
    pub fn workers_view(&self, now: Instant) -> Vec<WorkerView> {
        let state = self.lock();
        let mut views: Vec<WorkerView> = state
            .workers
            .iter()
            .map(|(&id, record)| WorkerView {
                id,
                addr: record.addr.clone(),
                state: self.liveness(record, now),
                age_ms: now.duration_since(record.last_seen).as_millis() as u64,
                assignment: record.assignment.map(|a| (a.job, a.shard, a.epoch)),
            })
            .collect();
        views.sort_unstable_by_key(|view| view.id);
        views
    }

    fn liveness(&self, record: &WorkerRecord, now: Instant) -> &'static str {
        if record.dead {
            "dead"
        } else if now.duration_since(record.last_seen) <= self.lease {
            "alive"
        } else {
            "suspect"
        }
    }

    /// Point-in-time counters for the cluster `/metrics` families.
    pub fn stats(&self, now: Instant) -> ClusterStats {
        let state = self.lock();
        let mut stats = ClusterStats {
            shards_dispatched_total: self.dispatched_total.load(Ordering::Relaxed),
            shard_reissues_total: self.reissues_total.load(Ordering::Relaxed),
            lease_expiries_total: self.lease_expiries_total.load(Ordering::Relaxed),
            ..ClusterStats::default()
        };
        for record in state.workers.values() {
            match self.liveness(record, now) {
                "alive" => stats.workers_alive += 1,
                "suspect" => stats.workers_suspect += 1,
                _ => stats.workers_dead += 1,
            }
        }
        stats
    }

    /// Takes a finished job out of the coordinator. Its CSV is the job's
    /// file, sealed once its shards' totals are read and handed over as it
    /// stands: the header followed by the shards' checkpointed rows in
    /// shard order through the first incomplete shard.
    /// For a done job that is every shard, byte-identical to the
    /// single-process sweep; for a cancelled one the in-order prefix of
    /// that sweep (the file's rows of later shards are never read).
    pub fn take_finished(&self, job: u64) -> Option<DistOutcome> {
        let DistJob {
            shards,
            mut csv,
            error,
            ..
        } = self.lock().jobs.remove(&job)?;
        let totals = (0..shards.len()).map(|index| csv.total(index)).collect();
        csv.seal();
        Some(DistOutcome {
            cancelled: csv.rows() < csv.cells(),
            rows: csv.rows(),
            totals,
            csv,
            error,
        })
    }
}

impl Dispatch {
    fn assignment(&self) -> Assignment {
        Assignment {
            job: self.job,
            shard: self.shard,
            epoch: self.epoch,
        }
    }
}

/// Renders the `/v1/shards/run` dispatch body a worker receives.
pub fn dispatch_body(dispatch: &Dispatch) -> String {
    let grid = Json::parse(&dispatch.grid_json).unwrap_or(Json::Obj(Vec::new()));
    Json::obj(vec![
        ("job", Json::num(dispatch.job as f64)),
        ("shard", Json::num(dispatch.shard as f64)),
        ("count", Json::num(dispatch.count as f64)),
        ("epoch", Json::num(dispatch.epoch as f64)),
        ("start_row", Json::num(dispatch.start_row as f64)),
        ("worker", Json::num(dispatch.worker as f64)),
        (
            "grid_fingerprint",
            Json::str(format!("{:016x}", dispatch.grid_fingerprint)),
        ),
        (
            "options_fingerprint",
            Json::str(format!("{:016x}", dispatch.options_fingerprint)),
        ),
        ("grid", grid),
    ])
    .render()
}

/// Posts one dispatch to its worker; true on a `202` acknowledgement.
fn send_dispatch(dispatch: &Dispatch) -> bool {
    let mut span = ayd_obs::span("dispatch");
    span.field_u64("job", dispatch.job);
    span.field_u64("shard", dispatch.shard as u64);
    span.field_u64("worker", dispatch.worker);
    span.field_u64("epoch", dispatch.epoch);
    span.field_u64("start_row", dispatch.start_row as u64);
    let body = dispatch_body(dispatch);
    let ok = HttpClient::connect(&dispatch.addr)
        .and_then(|mut client| client.post_json("/v1/shards/run", &body))
        .map(|response| response.status == 202)
        .unwrap_or(false);
    span.field_bool("ok", ok);
    span.finish();
    ok
}

/// The dispatcher loop: expire leases, plan dispatches under the lock, start
/// each post on its own thread, then wait for the next wake — a submission,
/// a registration, a completed shard, a reported drop, a cancel, a failed
/// post or [`Coordinator::stop`]. The wait is bounded by a quarter lease (capped at
/// 250 ms), so lease expiry is scanned on time.
///
/// No post waits for another, and the loop waits for none: a worker that
/// accepts the connection and never answers holds only its own post, for
/// the client's read timeout. Each post reports its own failure after
/// backing off one tick, so a worker that refuses at once is retried at the
/// loop's pace, not in a spin. Finished
/// posts are joined as the loop goes round; the ones still running at stop
/// are left to end on their own.
pub fn run_dispatcher(coordinator: Arc<Coordinator>) {
    let tick = (coordinator.lease() / 4)
        .min(Duration::from_millis(250))
        .max(Duration::from_millis(10));
    let mut posts: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !coordinator.stopped() {
        let now = Instant::now();
        coordinator.expire(now);
        for dispatch in coordinator.dispatch_plan(now) {
            let coordinator = Arc::clone(&coordinator);
            let post = std::thread::Builder::new()
                .name(format!("ayd-dispatch-{}-{}", dispatch.job, dispatch.shard))
                .spawn(move || {
                    if !send_dispatch(&dispatch) {
                        std::thread::sleep(tick);
                        coordinator.dispatch_failed(&dispatch);
                    }
                })
                .expect("spawn a dispatch post thread");
            posts.push(post);
        }
        let (finished, running) = posts.into_iter().partition(|post| post.is_finished());
        posts = running;
        for post in finished {
            post.join().expect("a dispatch post panicked");
        }
        coordinator.wait_wake(tick);
    }
}

/// Spawns [`run_dispatcher`] on a named thread.
pub fn spawn_dispatcher(coordinator: Arc<Coordinator>) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("ayd-dispatch".to_string())
        .spawn(move || run_dispatcher(coordinator))
        .expect("spawn the dispatcher thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ayd_platforms::ScenarioId;
    use ayd_sweep::{
        ProcessorAxis, RunOptions, ScenarioGrid, ShardSpec, SweepManifest, SweepOptions, CSV_HEADER,
    };

    const LEASE: Duration = Duration::from_millis(1_000);

    fn grid() -> ScenarioGrid {
        ScenarioGrid::builder()
            .scenarios(&[ScenarioId::S1, ScenarioId::S3])
            .processors(ProcessorAxis::Fixed(vec![256.0, 1024.0]))
            .build()
            .unwrap()
    }

    fn options() -> SweepOptions {
        SweepOptions::new(RunOptions {
            simulate: false,
            ..RunOptions::smoke()
        })
    }

    /// A well-formed CSV line whose first field names its shard and row.
    fn fake_row(shard: usize, row: usize) -> String {
        let mut fields = vec![format!("{shard}.{row}")];
        fields.resize(CSV_HEADER.matches(',').count() + 1, "x".to_string());
        fields.join(",")
    }

    /// A coordinator with one registered worker and one 2-shard job over the
    /// 4-cell test grid, plus the dispatches the first plan hands out.
    fn cluster() -> (Arc<Coordinator>, Instant, u64, u64, Vec<Dispatch>) {
        let coordinator = Coordinator::new(LEASE);
        let t0 = Instant::now();
        let (worker, token) = coordinator.register_worker("127.0.0.1:1", t0);
        let g = grid();
        coordinator.submit(
            7,
            "{}".to_string(),
            g.fingerprint(),
            options().output_fingerprint(),
            2,
            g.len(),
        );
        let plan = coordinator.dispatch_plan(t0);
        (coordinator, t0, worker, token, plan)
    }

    /// Builds a valid chunk for shard `index/count` of the test grid covering
    /// rows `from..from+rows`.
    fn chunk(index: usize, count: usize, from: usize, rows: usize) -> ShardChunk {
        chunk_of(&grid(), index, count, from, rows)
    }

    /// [`chunk`] for shard `index/count` of `g`.
    fn chunk_of(
        g: &ScenarioGrid,
        index: usize,
        count: usize,
        from: usize,
        rows: usize,
    ) -> ShardChunk {
        let spec = ShardSpec::new(index, count).unwrap();
        let mut manifest = SweepManifest::new(g, &options(), spec);
        manifest.completed = from + rows;
        let mut text = String::new();
        for row in from..from + rows {
            text.push_str(&fake_row(index, row));
            text.push('\n');
        }
        ShardChunk::new(manifest, from, text).unwrap()
    }

    #[test]
    fn dispatch_assigns_pending_shards_to_idle_alive_workers() {
        let (coordinator, t0, worker, _token, plan) = cluster();
        // One idle worker → exactly one of the two shards dispatched.
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].worker, worker);
        assert_eq!(plan[0].start_row, 0);
        assert_eq!(plan[0].count, 2);
        // The worker is busy now: nothing further to dispatch.
        assert!(coordinator.dispatch_plan(t0).is_empty());
        let stats = coordinator.stats(t0);
        assert_eq!(stats.workers_alive, 1);
        assert_eq!(stats.shards_dispatched_total, 1);
        // A failed post reverts shard and worker; the next plan retries.
        coordinator.dispatch_failed(&plan[0]);
        let retry = coordinator.dispatch_plan(t0);
        assert_eq!(retry.len(), 1);
        assert_eq!(retry[0].shard, plan[0].shard);
        assert_eq!(retry[0].epoch, plan[0].epoch, "no recompute → same epoch");
    }

    #[test]
    fn chunks_advance_the_checkpoint_and_complete_shards() {
        let (coordinator, t0, worker, token, plan) = cluster();
        let d = &plan[0];
        let total = coordinator.shards_view(7).unwrap().shards[d.shard].total;
        let first = coordinator
            .accept_chunk(
                7,
                d.shard,
                worker,
                token,
                d.epoch,
                &chunk(d.shard, 2, 0, 1),
                t0,
            )
            .unwrap();
        assert_eq!(first.accepted_rows, 1);
        assert!(!first.shard_done);
        // Replay (same from_row) is refused, checkpoint unchanged.
        let replay = coordinator
            .accept_chunk(
                7,
                d.shard,
                worker,
                token,
                d.epoch,
                &chunk(d.shard, 2, 0, 1),
                t0,
            )
            .unwrap_err();
        assert!(matches!(replay, ChunkError::Invalid(_)), "{replay:?}");
        let view = coordinator.shards_view(7).unwrap();
        assert_eq!(view.shards[d.shard].completed, 1);
        // Finishing the shard frees the worker and marks the shard done.
        let done = coordinator
            .accept_chunk(
                7,
                d.shard,
                worker,
                token,
                d.epoch,
                &chunk(d.shard, 2, 1, total - 1),
                t0,
            )
            .unwrap();
        assert!(done.shard_done);
        assert!(!done.job_done, "the second shard is still pending");
        let next = coordinator.dispatch_plan(t0);
        assert_eq!(next.len(), 1, "freed worker picks up the second shard");
        assert_ne!(next[0].shard, d.shard);
    }

    #[test]
    fn lease_expiry_requeues_the_shard_from_its_checkpoint() {
        let (coordinator, t0, worker, token, plan) = cluster();
        let d = &plan[0];
        coordinator
            .accept_chunk(
                7,
                d.shard,
                worker,
                token,
                d.epoch,
                &chunk(d.shard, 2, 0, 1),
                t0,
            )
            .unwrap();
        // Within two leases the worker is only suspect; nothing re-queues.
        let suspect_at = t0 + LEASE + LEASE / 2;
        assert!(coordinator.expire(suspect_at).is_empty());
        assert_eq!(coordinator.stats(suspect_at).workers_suspect, 1);
        // Past two leases the worker dies and the shard re-queues.
        let dead_at = t0 + 2 * LEASE + Duration::from_millis(1);
        assert_eq!(coordinator.expire(dead_at), vec![worker]);
        let stats = coordinator.stats(dead_at);
        assert_eq!(stats.workers_dead, 1);
        assert_eq!(stats.lease_expiries_total, 1);
        assert_eq!(stats.shard_reissues_total, 1);
        // Its heartbeat now demands re-registration.
        assert!(coordinator.heartbeat(worker, token, None, dead_at).is_err());
        // A new worker receives the re-issued shard *from the checkpoint*.
        let (worker2, _token2) = coordinator.register_worker("127.0.0.1:2", dead_at);
        let plan2 = coordinator.dispatch_plan(dead_at);
        let reissued = plan2
            .iter()
            .find(|p| p.shard == d.shard)
            .expect("expired shard re-dispatched");
        assert_eq!(reissued.worker, worker2);
        assert_eq!(reissued.start_row, 1, "completed cells are not recomputed");
        assert_eq!(reissued.epoch, d.epoch + 1);
    }

    #[test]
    fn a_shard_the_worker_abandoned_requeues_without_waiting_for_its_lease() {
        // The worker stopped computing the shard after a refused upload but
        // keeps heartbeating, so its lease never expires: only its report
        // of the dropped shard frees the shard.
        let (coordinator, t0, worker, token, plan) = cluster();
        let d = &plan[0];
        let view =
            |coordinator: &Coordinator| coordinator.shards_view(7).unwrap().shards[d.shard].clone();
        coordinator
            .accept_chunk(
                7,
                d.shard,
                worker,
                token,
                d.epoch,
                &chunk(d.shard, 2, 0, 1),
                t0,
            )
            .unwrap();
        while coordinator.wait_wake(Duration::ZERO) {}
        // A heartbeat with nothing to report, or reporting a shard the
        // worker does not hold (a later epoch, the other shard, another
        // job), changes nothing.
        for report in [
            None,
            Some((7, d.shard, d.epoch + 1)),
            Some((7, 1 - d.shard, d.epoch)),
            Some((8, d.shard, d.epoch)),
        ] {
            coordinator.heartbeat(worker, token, report, t0).unwrap();
            assert_eq!(view(&coordinator).status, "dispatched", "{report:?}");
            assert!(!coordinator.wait_wake(Duration::ZERO), "{report:?}");
        }
        // A report of its assignment re-queues the shard from the
        // checkpoint under the next epoch and wakes the dispatcher.
        coordinator
            .heartbeat(worker, token, Some((7, d.shard, d.epoch)), t0)
            .unwrap();
        assert!(
            coordinator.wait_wake(Duration::ZERO),
            "the dispatcher is woken"
        );
        let shard = view(&coordinator);
        assert_eq!(shard.status, "pending");
        assert_eq!(shard.epoch, d.epoch + 1);
        assert_eq!(shard.reissues, 1);
        assert_eq!(shard.completed, 1, "the checkpoint is kept");
        let stats = coordinator.stats(t0);
        assert_eq!(stats.shard_reissues_total, 1);
        assert_eq!(stats.lease_expiries_total, 0);
        // The freed worker is planned again, from the checkpoint.
        let replan = coordinator.dispatch_plan(t0);
        assert_eq!(replan.len(), 1);
        assert_eq!(replan[0].shard, d.shard);
        assert_eq!(replan[0].worker, worker);
        assert_eq!(replan[0].epoch, d.epoch + 1);
        assert_eq!(replan[0].start_row, 1);
        // The same report again now names an older epoch: nothing moves.
        coordinator
            .heartbeat(worker, token, Some((7, d.shard, d.epoch)), t0)
            .unwrap();
        let shard = view(&coordinator);
        assert_eq!((shard.status, shard.epoch), ("dispatched", d.epoch + 1));
        assert_eq!(coordinator.stats(t0).shard_reissues_total, 1);
        // A late upload under the abandoned epoch is fenced.
        let err = coordinator
            .accept_chunk(
                7,
                d.shard,
                worker,
                token,
                d.epoch,
                &chunk(d.shard, 2, 1, 1),
                t0,
            )
            .unwrap_err();
        assert!(matches!(err, ChunkError::Stale(_)), "{err:?}");
        assert_eq!(err.status().0, 409);
        assert_eq!(view(&coordinator).completed, 1);
    }

    #[test]
    fn a_cancel_frees_its_workers_at_once() {
        // Job 7's first shard holds the one worker, with a partial
        // checkpoint; job 8 waits for a worker.
        let (coordinator, t0, worker, token, plan) = cluster();
        let d = &plan[0];
        coordinator
            .accept_chunk(
                7,
                d.shard,
                worker,
                token,
                d.epoch,
                &chunk(d.shard, 2, 0, 1),
                t0,
            )
            .unwrap();
        let g = grid();
        coordinator.submit(
            8,
            "{}".to_string(),
            g.fingerprint(),
            options().output_fingerprint(),
            2,
            g.len(),
        );
        assert!(
            coordinator.dispatch_plan(t0).is_empty(),
            "the worker is busy"
        );
        while coordinator.wait_wake(Duration::ZERO) {}
        // The cancel releases the worker and wakes the dispatcher: the next
        // plan, with no heartbeat in between, hands it job 8's shard.
        coordinator.cancel_job(7);
        assert!(coordinator.wait_wake(Duration::ZERO), "a cancel wakes");
        let later = t0 + Duration::from_millis(1);
        let next = coordinator.dispatch_plan(later);
        assert_eq!(next.len(), 1);
        assert_eq!((next[0].job, next[0].worker), (8, worker));
        // The cancelled shard's drop report changes nothing, its late
        // upload is refused with 410, and nothing was re-issued.
        coordinator
            .heartbeat(worker, token, Some((7, d.shard, d.epoch)), later)
            .unwrap();
        let err = coordinator
            .accept_chunk(
                7,
                d.shard,
                worker,
                token,
                d.epoch,
                &chunk(d.shard, 2, 1, 1),
                later,
            )
            .unwrap_err();
        assert_eq!(err.status().0, 410);
        let workers = coordinator.workers_view(later);
        assert_eq!(workers[0].assignment, Some((8, next[0].shard, 0)));
        let view = coordinator.shards_view(7).unwrap();
        assert!(view.shards.iter().all(|shard| shard.reissues == 0));
        assert_eq!(coordinator.stats(later).shard_reissues_total, 0);
        // Neither does the lease of the worker that held it, once expired.
        let dead_at = later + 2 * LEASE + Duration::from_millis(1);
        assert_eq!(coordinator.expire(dead_at), vec![worker]);
        let stats = coordinator.stats(dead_at);
        assert_eq!(
            stats.shard_reissues_total, 1,
            "only job 8's shard re-issues"
        );
        let view = coordinator.shards_view(7).unwrap();
        assert!(view.shards.iter().all(|shard| shard.reissues == 0));
    }

    #[test]
    fn submissions_registrations_and_completed_shards_wake_the_dispatcher() {
        let coordinator = Coordinator::new(LEASE);
        let t0 = Instant::now();
        assert!(
            !coordinator.wait_wake(Duration::ZERO),
            "nothing happened yet"
        );
        let (worker, token) = coordinator.register_worker("127.0.0.1:1", t0);
        assert!(coordinator.wait_wake(Duration::ZERO), "registration wakes");
        assert!(
            !coordinator.wait_wake(Duration::ZERO),
            "a wake is consumed once"
        );
        let g = grid();
        coordinator.submit(
            7,
            "{}".to_string(),
            g.fingerprint(),
            options().output_fingerprint(),
            2,
            g.len(),
        );
        assert!(coordinator.wait_wake(Duration::ZERO), "submission wakes");
        let d = coordinator.dispatch_plan(t0).remove(0);
        coordinator.heartbeat(worker, token, None, t0).unwrap();
        let total = coordinator.shards_view(7).unwrap().shards[d.shard].total;
        coordinator
            .accept_chunk(
                7,
                d.shard,
                worker,
                token,
                d.epoch,
                &chunk(d.shard, 2, 0, 1),
                t0,
            )
            .unwrap();
        assert!(
            !coordinator.wait_wake(Duration::ZERO),
            "planning, heartbeats and partial chunks free nothing"
        );
        let done = coordinator
            .accept_chunk(
                7,
                d.shard,
                worker,
                token,
                d.epoch,
                &chunk(d.shard, 2, 1, total - 1),
                t0,
            )
            .unwrap();
        assert!(done.shard_done);
        assert!(
            coordinator.wait_wake(Duration::ZERO),
            "a completed shard wakes"
        );
        coordinator.stop();
        assert!(coordinator.wait_wake(Duration::ZERO), "stop wakes");
    }

    #[test]
    fn the_merge_frontier_grows_shard_by_shard() {
        let coordinator = Coordinator::new(LEASE);
        let t0 = Instant::now();
        let workers = [
            coordinator.register_worker("127.0.0.1:1", t0),
            coordinator.register_worker("127.0.0.1:2", t0),
        ];
        let g = grid();
        coordinator.submit(
            3,
            "{}".to_string(),
            g.fingerprint(),
            options().output_fingerprint(),
            2,
            g.len(),
        );
        let plan = coordinator.dispatch_plan(t0);
        assert_eq!(plan.len(), 2);
        let upload = |shard: usize, from: usize, rows: usize| {
            let d = plan.iter().find(|d| d.shard == shard).unwrap();
            let (_, token) = workers.iter().find(|(id, _)| *id == d.worker).unwrap();
            coordinator
                .accept_chunk(
                    3,
                    shard,
                    d.worker,
                    *token,
                    d.epoch,
                    &chunk(shard, 2, from, rows),
                    t0,
                )
                .unwrap();
            coordinator.shards_view(3).unwrap().merged_rows
        };
        // Shard 1 owns the tail of the grid: its rows wait for shard 0.
        assert_eq!(upload(1, 0, 2), 0);
        assert_eq!(upload(0, 0, 1), 1);
        assert_eq!(upload(0, 1, 1), g.len(), "both shards complete");
    }

    #[test]
    fn stale_uploads_from_a_dead_or_reregistered_worker_are_fenced() {
        let (coordinator, t0, worker, token, plan) = cluster();
        let d = &plan[0];
        let dead_at = t0 + 2 * LEASE + Duration::from_millis(1);
        coordinator.expire(dead_at);
        // The declared-dead identity cannot advance the checkpoint.
        let err = coordinator
            .accept_chunk(
                7,
                d.shard,
                worker,
                token,
                d.epoch,
                &chunk(d.shard, 2, 0, 1),
                dead_at,
            )
            .unwrap_err();
        assert!(matches!(err, ChunkError::Stale(_)), "{err:?}");
        // The same node re-registers (new identity) — its *old* token and
        // epoch still cannot write, even though the worker is alive again.
        let (worker2, token2) = coordinator.register_worker("127.0.0.1:1", dead_at);
        let err = coordinator
            .accept_chunk(
                7,
                d.shard,
                worker2,
                token2,
                d.epoch,
                &chunk(d.shard, 2, 0, 1),
                dead_at,
            )
            .unwrap_err();
        assert!(
            matches!(err, ChunkError::Stale(_)),
            "shard not dispatched to the new identity yet: {err:?}"
        );
        // Once re-dispatched (epoch bumped), only the new epoch writes.
        let plan2 = coordinator.dispatch_plan(dead_at);
        let reissued = plan2.iter().find(|p| p.shard == d.shard).unwrap();
        let err = coordinator
            .accept_chunk(
                7,
                d.shard,
                worker2,
                token2,
                d.epoch, // stale epoch
                &chunk(d.shard, 2, 0, 1),
                dead_at,
            )
            .unwrap_err();
        assert!(matches!(err, ChunkError::Stale(_)), "{err:?}");
        coordinator
            .accept_chunk(
                7,
                d.shard,
                worker2,
                token2,
                reissued.epoch,
                &chunk(d.shard, 2, 0, 1),
                dead_at,
            )
            .expect("the re-issued epoch writes");
        let view = coordinator.shards_view(7).unwrap();
        assert_eq!(view.shards[d.shard].completed, 1);
        assert_eq!(view.shards[d.shard].reissues, 1);
    }

    #[test]
    fn two_workers_racing_a_reissued_shard_cannot_both_write() {
        let (coordinator, t0, worker_a, token_a, plan) = cluster();
        let d = &plan[0];
        // Worker A uploads one row, then goes silent; the shard re-issues to
        // worker B from row 1.
        coordinator
            .accept_chunk(
                7,
                d.shard,
                worker_a,
                token_a,
                d.epoch,
                &chunk(d.shard, 2, 0, 1),
                t0,
            )
            .unwrap();
        let dead_at = t0 + 2 * LEASE + Duration::from_millis(1);
        coordinator.expire(dead_at);
        let (worker_b, token_b) = coordinator.register_worker("127.0.0.1:2", dead_at);
        let plan2 = coordinator.dispatch_plan(dead_at);
        let reissued = plan2.iter().find(|p| p.shard == d.shard).unwrap();
        assert_eq!(reissued.worker, worker_b);
        assert_eq!(reissued.start_row, 1);
        // A resurrects and races B for row 1 with its original credentials:
        // fenced (dead identity + stale epoch), checkpoint unchanged.
        let err = coordinator
            .accept_chunk(
                7,
                d.shard,
                worker_a,
                token_a,
                d.epoch,
                &chunk(d.shard, 2, 1, 1),
                dead_at,
            )
            .unwrap_err();
        assert!(matches!(err, ChunkError::Stale(_)), "{err:?}");
        assert_eq!(
            coordinator.shards_view(7).unwrap().shards[d.shard].completed,
            1
        );
        // B's upload under the re-issued epoch lands exactly once.
        coordinator
            .accept_chunk(
                7,
                d.shard,
                worker_b,
                token_b,
                reissued.epoch,
                &chunk(d.shard, 2, 1, 1),
                dead_at,
            )
            .unwrap();
        assert_eq!(
            coordinator.shards_view(7).unwrap().shards[d.shard].completed,
            2
        );
    }

    #[test]
    fn fingerprint_mismatches_are_invalid_not_stale() {
        let (coordinator, t0, worker, token, plan) = cluster();
        let d = &plan[0];
        // A chunk from a different sweep configuration: same shard shape,
        // different options fingerprint.
        let g = grid();
        let other_options = SweepOptions::new(RunOptions {
            simulate: false,
            seed: 999,
            ..RunOptions::smoke()
        });
        let spec = ShardSpec::new(d.shard, 2).unwrap();
        let mut manifest = SweepManifest::new(&g, &other_options, spec);
        manifest.completed = 1;
        let mut text = fake_row(d.shard, 0);
        text.push('\n');
        let foreign = ShardChunk::new(manifest, 0, text).unwrap();
        let err = coordinator
            .accept_chunk(7, d.shard, worker, token, d.epoch, &foreign, t0)
            .unwrap_err();
        assert!(matches!(err, ChunkError::Invalid(_)), "{err:?}");
        assert_eq!(err.status().0, 400);
        // Unknown job and cancelled job map to 404/410.
        let err = coordinator
            .accept_chunk(99, 0, worker, token, 0, &chunk(0, 2, 0, 1), t0)
            .unwrap_err();
        assert_eq!(err.status().0, 404);
        coordinator.cancel_job(7);
        let err = coordinator
            .accept_chunk(
                7,
                d.shard,
                worker,
                token,
                d.epoch,
                &chunk(d.shard, 2, 0, 1),
                t0,
            )
            .unwrap_err();
        assert_eq!(err.status().0, 410);
    }

    #[test]
    fn finished_jobs_merge_their_shards_and_stream_progress() {
        let coordinator = Coordinator::new(LEASE);
        let t0 = Instant::now();
        let g = grid();
        let count = 2;
        coordinator.submit(
            1,
            "{}".to_string(),
            g.fingerprint(),
            options().output_fingerprint(),
            count,
            g.len(),
        );
        let (worker, token) = coordinator.register_worker("127.0.0.1:1", t0);
        // Run both shards through one worker.
        for _ in 0..count {
            let plan = coordinator.dispatch_plan(t0);
            let d = &plan[0];
            let total = coordinator.shards_view(1).unwrap().shards[d.shard].total;
            coordinator
                .accept_chunk(
                    1,
                    d.shard,
                    worker,
                    token,
                    d.epoch,
                    &chunk(d.shard, count, 0, total),
                    t0,
                )
                .unwrap();
        }
        let view = coordinator.shards_view(1).unwrap();
        assert_eq!(view.merged_rows, g.len(), "every row merged in order");
        assert!(coordinator.job_finished(1));
        let outcome = coordinator.take_finished(1).expect("job present");
        assert!(!outcome.cancelled);
        assert_eq!(outcome.rows, g.len());
        // The header, then every shard's rows in shard order.
        let mut expected = format!("{CSV_HEADER}\n");
        for (shard, &total) in outcome.totals.iter().enumerate() {
            for row in 0..total {
                expected.push_str(&fake_row(shard, row));
                expected.push('\n');
            }
        }
        assert_eq!(outcome.csv, expected);
        // The job is gone afterwards.
        assert!(coordinator.take_finished(1).is_none());
        assert!(coordinator.job_finished(1), "unknown jobs count finished");
    }

    #[test]
    fn a_cancelled_job_keeps_the_header_and_its_merged_prefix() {
        let coordinator = Coordinator::new(LEASE);
        let t0 = Instant::now();
        let workers = [
            coordinator.register_worker("127.0.0.1:1", t0),
            coordinator.register_worker("127.0.0.1:2", t0),
        ];
        let g = grid();
        coordinator.submit(
            5,
            "{}".to_string(),
            g.fingerprint(),
            options().output_fingerprint(),
            2,
            g.len(),
        );
        let plan = coordinator.dispatch_plan(t0);
        let upload = |shard: usize, from: usize, rows: usize| {
            let d = plan.iter().find(|d| d.shard == shard).unwrap();
            let (_, token) = workers.iter().find(|(id, _)| *id == d.worker).unwrap();
            coordinator
                .accept_chunk(
                    5,
                    shard,
                    d.worker,
                    *token,
                    d.epoch,
                    &chunk(shard, 2, from, rows),
                    t0,
                )
                .unwrap();
        };
        // Shard 1 is complete, shard 0 holds one of its two rows: only that
        // row is in global order.
        upload(1, 0, 2);
        upload(0, 0, 1);
        assert_eq!(coordinator.shards_view(5).unwrap().merged_rows, 1);
        coordinator.cancel_job(5);
        assert!(coordinator.job_finished(5));
        let outcome = coordinator.take_finished(5).unwrap();
        assert!(outcome.cancelled);
        assert_eq!(outcome.rows, 1);
        assert_eq!(outcome.csv, format!("{CSV_HEADER}\n{}\n", fake_row(0, 0)));
    }

    #[test]
    fn shards_without_cells_are_done_at_submit_and_never_dispatched() {
        let coordinator = Coordinator::new(LEASE);
        let t0 = Instant::now();
        let (worker, token) = coordinator.register_worker("127.0.0.1:1", t0);
        // 6 shards over the 4-cell grid: shards 4 and 5 own no cells.
        let g = grid();
        let count = 6;
        coordinator.submit(
            2,
            "{}".to_string(),
            g.fingerprint(),
            options().output_fingerprint(),
            count,
            g.len(),
        );
        let view = coordinator.shards_view(2).unwrap();
        let statuses: Vec<&str> = view.shards.iter().map(|s| s.status).collect();
        assert_eq!(
            statuses,
            ["pending", "pending", "pending", "pending", "done", "done"]
        );
        // One worker runs the four non-empty shards; then the job is done
        // and nothing is left to dispatch.
        for _ in 0..g.len() {
            let plan = coordinator.dispatch_plan(t0);
            assert_eq!(plan.len(), 1);
            let d = &plan[0];
            assert!(d.shard < g.len(), "shard {} owns no cells", d.shard);
            coordinator
                .accept_chunk(
                    2,
                    d.shard,
                    worker,
                    token,
                    d.epoch,
                    &chunk(d.shard, count, 0, 1),
                    t0,
                )
                .unwrap();
        }
        assert!(coordinator.dispatch_plan(t0).is_empty());
        assert!(coordinator.job_finished(2));
        let outcome = coordinator.take_finished(2).unwrap();
        assert!(!outcome.cancelled);
        assert_eq!(outcome.rows, g.len());
        assert_eq!(outcome.totals, [1, 1, 1, 1, 0, 0]);
    }

    /// A 16-cell grid: 4 cells per shard of a 4-shard job.
    fn wide_grid() -> ScenarioGrid {
        ScenarioGrid::builder()
            .scenarios(&[ScenarioId::S1, ScenarioId::S3])
            .processors(ProcessorAxis::Fixed(vec![256.0, 1024.0]))
            .pattern_lengths(&[900.0, 1800.0, 3600.0, 7200.0])
            .build()
            .unwrap()
    }

    /// A 4-shard job over [`wide_grid`] with one worker per shard, which
    /// checks after every upload that the job's file reads back as the
    /// header plus the shards' uploaded rows in shard order, through the
    /// first incomplete shard.
    struct MergeRig {
        coordinator: Arc<Coordinator>,
        t0: Instant,
        grid: ScenarioGrid,
        tokens: HashMap<u64, u64>,
        /// The live dispatch of each shard.
        dispatches: Vec<Dispatch>,
        /// Rows uploaded per shard.
        uploaded: Vec<usize>,
        totals: Vec<usize>,
    }

    impl MergeRig {
        const JOB: u64 = 9;
        const COUNT: usize = 4;

        fn new() -> Self {
            let coordinator = Coordinator::new(LEASE);
            let t0 = Instant::now();
            let tokens = (0..Self::COUNT)
                .map(|i| coordinator.register_worker(&format!("127.0.0.1:{}", i + 1), t0))
                .collect();
            let grid = wide_grid();
            coordinator.submit(
                Self::JOB,
                "{}".to_string(),
                grid.fingerprint(),
                options().output_fingerprint(),
                Self::COUNT,
                grid.len(),
            );
            let mut dispatches = coordinator.dispatch_plan(t0);
            dispatches.sort_by_key(|d| d.shard);
            assert_eq!(dispatches.len(), Self::COUNT);
            let totals: Vec<usize> = coordinator
                .shards_view(Self::JOB)
                .unwrap()
                .shards
                .iter()
                .map(|s| s.total)
                .collect();
            assert_eq!(totals, [4, 4, 4, 4]);
            Self {
                coordinator,
                t0,
                grid,
                tokens,
                dispatches,
                uploaded: vec![0; Self::COUNT],
                totals,
            }
        }

        /// Uploads the next `rows` rows of `shard` under its live dispatch.
        fn upload(&mut self, shard: usize, rows: usize) {
            let d = &self.dispatches[shard];
            let from = self.uploaded[shard];
            self.coordinator
                .accept_chunk(
                    Self::JOB,
                    shard,
                    d.worker,
                    self.tokens[&d.worker],
                    d.epoch,
                    &chunk_of(&self.grid, shard, Self::COUNT, from, rows),
                    self.t0,
                )
                .unwrap();
            self.uploaded[shard] += rows;
            self.check();
        }

        /// The header plus every uploaded row in shard order, up to the
        /// first shard not yet complete.
        fn expected(&self) -> String {
            let mut text = format!("{CSV_HEADER}\n");
            for (shard, &uploaded) in self.uploaded.iter().enumerate() {
                for row in 0..uploaded {
                    text.push_str(&fake_row(shard, row));
                    text.push('\n');
                }
                if uploaded < self.totals[shard] {
                    break;
                }
            }
            text
        }

        fn check(&self) {
            let expected = self.expected();
            let state = self.coordinator.lock();
            assert_eq!(state.jobs[&Self::JOB].csv, expected, "{:?}", self.uploaded);
            drop(state);
            let merged = self.coordinator.shards_view(Self::JOB).unwrap().merged_rows;
            assert_eq!(merged, expected.lines().count() - 1);
        }

        /// The worker holding `shard` reports it dropped: the shard re-queues
        /// from its checkpoint, and it is dispatched again.
        fn reissue(&mut self, shard: usize) {
            let d = self.dispatches[shard].clone();
            self.coordinator
                .heartbeat(
                    d.worker,
                    self.tokens[&d.worker],
                    Some((Self::JOB, shard, d.epoch)),
                    self.t0,
                )
                .unwrap();
            let again = self.coordinator.dispatch_plan(self.t0).remove(0);
            assert_eq!((again.shard, again.epoch), (shard, d.epoch + 1));
            assert_eq!(
                again.start_row, self.uploaded[shard],
                "resumes from the checkpoint"
            );
            self.dispatches[shard] = again;
            self.check();
        }

        fn finish(self) -> DistOutcome {
            let expected = self.expected();
            let outcome = self.coordinator.take_finished(Self::JOB).unwrap();
            assert_eq!(outcome.csv, expected);
            assert_eq!(outcome.rows, expected.lines().count() - 1);
            outcome
        }
    }

    #[test]
    fn shards_completing_out_of_order_merge_in_shard_order() {
        let mut rig = MergeRig::new();
        rig.upload(1, 2);
        rig.upload(1, 2); // shard 1 complete, waiting for shard 0
        rig.upload(3, 3);
        rig.upload(0, 1);
        rig.upload(3, 1); // shard 3 complete, waiting for shard 2
        rig.upload(2, 2);
        rig.upload(0, 3); // the CSV reads on through shard 1 into shard 2
        rig.upload(2, 2); // and on through shard 3
        let outcome = rig.finish();
        assert!(!outcome.cancelled);
        assert_eq!(outcome.rows, 16);
    }

    #[test]
    fn a_reissued_shard_past_the_frontier_resumes_in_its_buffer() {
        let mut rig = MergeRig::new();
        rig.upload(2, 1);
        rig.upload(0, 2);
        rig.reissue(2);
        rig.upload(2, 2);
        rig.upload(1, 4);
        rig.upload(0, 2); // the CSV reads on into shard 2, mid-way
        rig.reissue(2); // which re-issues from there
        rig.upload(2, 1);
        rig.upload(3, 4);
        assert!(!rig.finish().cancelled);
    }

    #[test]
    fn a_cancel_drops_the_rows_buffered_past_the_frontier() {
        let mut rig = MergeRig::new();
        rig.upload(0, 4);
        rig.upload(2, 4);
        rig.upload(3, 2);
        rig.upload(1, 3);
        rig.coordinator.cancel_job(MergeRig::JOB);
        let outcome = rig.finish();
        assert!(outcome.cancelled);
        assert_eq!(outcome.rows, 7);
    }

    #[test]
    fn a_row_too_long_to_reserve_for_is_merged_not_fatal() {
        // One row of ~1 MiB (the request body limit) in a job of 200,000
        // cells: nothing is reserved from a row's length (that would be
        // ~225 GB here), and the row goes through to the job's file.
        let coordinator = Coordinator::new(LEASE);
        let t0 = Instant::now();
        let (worker, token) = coordinator.register_worker("127.0.0.1:1", t0);
        let g = grid();
        let cells = 200_000;
        coordinator.submit(
            4,
            "{}".to_string(),
            g.fingerprint(),
            options().output_fingerprint(),
            1,
            cells,
        );
        let d = coordinator.dispatch_plan(t0).remove(0);
        let mut manifest = SweepManifest::new(&g, &options(), ShardSpec::WHOLE);
        manifest.grid_cells = cells;
        manifest.shard_cells = cells;
        manifest.completed = 1;
        let mut row = "x".repeat(1 << 20);
        row.push_str(&",".repeat(CSV_HEADER.matches(',').count()));
        row.push('\n');
        let chunk = ShardChunk::new(manifest, 0, row.clone()).unwrap();
        coordinator
            .accept_chunk(4, 0, worker, token, d.epoch, &chunk, t0)
            .unwrap();
        coordinator.cancel_job(4);
        let outcome = coordinator.take_finished(4).unwrap();
        assert_eq!(outcome.csv, format!("{CSV_HEADER}\n{row}"));
    }

    #[test]
    fn a_job_whose_file_refuses_rows_ends_cancelled_with_the_error() {
        let (coordinator, t0, worker, token, plan) = cluster();
        let d = &plan[0];
        let upload = |from: usize| {
            coordinator.accept_chunk(
                7,
                d.shard,
                worker,
                token,
                d.epoch,
                &chunk(d.shard, 2, from, 1),
                t0,
            )
        };
        upload(0).unwrap();
        // The file stops taking writes: the job's next rows cannot land.
        crate::csv_file::tests::refuse_writes(
            &mut coordinator.lock().jobs.get_mut(&7).unwrap().csv,
        );
        while coordinator.wait_wake(Duration::ZERO) {}
        let err = upload(1).unwrap_err();
        assert_eq!(err.status().0, 410);
        assert!(
            err.reason().contains("writing the job's CSV file"),
            "{err:?}"
        );
        // The job is cancelled and its worker freed at once.
        assert!(coordinator.wait_wake(Duration::ZERO));
        assert!(coordinator.job_finished(7));
        assert_eq!(coordinator.workers_view(t0)[0].assignment, None);
        // It keeps the row that reached the file: the first shard's first.
        let outcome = coordinator.take_finished(7).unwrap();
        assert!(outcome.cancelled);
        assert_eq!((d.shard, outcome.rows), (0, 1));
        assert_eq!(outcome.csv, format!("{CSV_HEADER}\n{}\n", fake_row(0, 0)));
        assert!(outcome
            .error
            .unwrap()
            .contains("writing the job's CSV file"));
    }

    /// A fake worker on `listener` that answers `posts` dispatches with
    /// `202`, handing each one's `(job, shard)` to the test.
    fn answering_worker(
        listener: std::net::TcpListener,
        posts: usize,
    ) -> std::sync::mpsc::Receiver<(u64, usize)> {
        use std::io::{BufRead, BufReader, Read, Write};
        let (seen, seen_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..posts {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut length = 0;
                loop {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    if line.trim().is_empty() {
                        break;
                    }
                    if let Some(value) = line.strip_prefix("content-length:") {
                        length = value.trim().parse().unwrap();
                    }
                }
                let mut body = vec![0; length];
                reader.read_exact(&mut body).unwrap();
                let body = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
                let field = |key| body.get(key).and_then(Json::as_f64).unwrap();
                seen.send((field("job") as u64, field("shard") as usize))
                    .unwrap();
                let reply = r#"{"status":"started"}"#;
                write!(
                    &stream,
                    "HTTP/1.1 202 Accepted\r\ncontent-length: {}\r\n\r\n{reply}",
                    reply.len()
                )
                .unwrap();
            }
        });
        seen_rx
    }

    #[test]
    fn a_worker_that_never_answers_stalls_no_other_dispatch() {
        let patience = Duration::from_secs(5);
        let coordinator = Coordinator::new(Duration::from_secs(60));
        let t0 = Instant::now();
        let good = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let hung = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let (good_id, good_token) =
            coordinator.register_worker(&good.local_addr().unwrap().to_string(), t0);
        // The higher id is planned first.
        let (hung_id, _) = coordinator.register_worker(&hung.local_addr().unwrap().to_string(), t0);
        assert!(hung_id > good_id);
        // The hung worker accepts the post's connection and never answers.
        let (held_tx, held) = std::sync::mpsc::channel();
        std::thread::spawn(move || held_tx.send(hung.accept().unwrap().0).unwrap());
        let dispatched = answering_worker(good, 2);
        let g = grid();
        let submit = |job: u64, count: usize| {
            coordinator.submit(
                job,
                "{}".to_string(),
                g.fingerprint(),
                options().output_fingerprint(),
                count,
                g.len(),
            )
        };
        submit(1, 2);
        let dispatcher = spawn_dispatcher(Arc::clone(&coordinator));
        let connection = held
            .recv_timeout(patience)
            .expect("the hung worker is posted to");
        assert_eq!(
            dispatched.recv_timeout(patience),
            Ok((1, 1)),
            "the other worker's post waits for nothing"
        );
        // While the hung post is outstanding, the good worker finishes its
        // shard and a new job's shard becomes dispatchable.
        let total = coordinator.shards_view(1).unwrap().shards[1].total;
        let done = coordinator
            .accept_chunk(
                1,
                1,
                good_id,
                good_token,
                0,
                &chunk(1, 2, 0, total),
                Instant::now(),
            )
            .unwrap();
        assert!(done.shard_done);
        submit(2, 1);
        assert_eq!(
            dispatched.recv_timeout(patience),
            Ok((2, 0)),
            "the dispatcher plans and posts while a post hangs"
        );
        coordinator.stop();
        dispatcher.join().unwrap();
        drop(connection);
    }
}
