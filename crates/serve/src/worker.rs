//! The worker side of the distributed sweep: registration, heartbeats and
//! shard execution.
//!
//! An ayd-serve instance started with `--worker-of COORDINATOR` runs a small
//! agent thread that registers with the coordinator (`POST
//! /v1/workers/register`), then heartbeats on the advertised cadence,
//! reporting the shard it is executing; any failed heartbeat — or a `404`
//! telling the worker its lease already expired — drops the registration
//! and re-registers under a fresh identity.
//!
//! Dispatches arrive over the worker's own HTTP listener (`POST
//! /v1/shards/run`): the handler rebuilds the grid from the forwarded sweep
//! request, cross-checks both fingerprints, and hands the shard to
//! [`WorkerRuntime::start_shard`], which computes rows **from the dispatched
//! `start_row`** — cells the coordinator already checkpointed are never
//! recomputed. Rows stream back in [`ShardChunk`] frames every few dozen
//! cells; the worker keeps nothing on disk. A refused upload (stale epoch
//! after a re-issue, coordinator restart, cancelled job) aborts the shard:
//! the coordinator owns the only checkpoint, learns of the abandonment from
//! the next heartbeats and re-issues from it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use ayd_sweep::{
    ScenarioGrid, ShardChunk, ShardSpec, SweepCell, SweepExecutor, SweepManifest, SweepOptions,
    SweepSink,
};

use crate::client::HttpClient;
use crate::json::Json;

/// A live registration with the coordinator.
#[derive(Debug, Clone, Copy)]
struct Registration {
    id: u64,
    token: u64,
    heartbeat: Duration,
}

/// The shard currently executing on this worker.
struct ActiveShard {
    job: u64,
    shard: usize,
    epoch: u64,
    cancel: Arc<AtomicBool>,
}

/// Why a dispatch was refused by the worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StartError {
    /// The dispatch names a worker id this node is not registered as, or
    /// the node is shutting down (409).
    NotThisWorker(String),
    /// A shard is still executing here after a short grace (409) — the
    /// coordinator only dispatches to idle workers, so this fences a
    /// duplicated dispatch.
    Busy(String),
    /// The dispatch contradicts this worker's configuration: fingerprint
    /// mismatch, bad shard spec or out-of-range start row (400).
    Mismatch(String),
}

impl StartError {
    /// The HTTP mapping of the refusal.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            StartError::NotThisWorker(_) | StartError::Busy(_) => (409, "Conflict"),
            StartError::Mismatch(_) => (400, "Bad Request"),
        }
    }

    /// The human-readable reason.
    pub fn reason(&self) -> &str {
        match self {
            StartError::NotThisWorker(reason)
            | StartError::Busy(reason)
            | StartError::Mismatch(reason) => reason,
        }
    }
}

/// A parsed `/v1/shards/run` dispatch, as the API layer hands it over.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Distributed job id at the coordinator.
    pub job: u64,
    /// Shard index to compute.
    pub shard: usize,
    /// Shard count of the job.
    pub count: usize,
    /// Fencing epoch uploads must carry.
    pub epoch: u64,
    /// First shard-local row to compute.
    pub start_row: usize,
    /// Worker id the dispatch is addressed to.
    pub worker: u64,
    /// Expected grid fingerprint.
    pub grid_fingerprint: u64,
    /// Expected options fingerprint.
    pub options_fingerprint: u64,
}

/// How long a dispatch waits for the executing shard to clear its slot.
/// The coordinator frees a worker when it accepts the shard's final chunk,
/// and may dispatch again before the worker has read that upload's reply;
/// the slot clears moments later, so the dispatch waits instead of bouncing.
const BUSY_GRACE: Duration = Duration::from_millis(250);

/// Worker-side cluster state: the current registration, the (at most one)
/// executing shard, and the agent stop flag.
pub struct WorkerRuntime {
    coordinator: String,
    registration: Mutex<Option<Registration>>,
    active: Mutex<Option<ActiveShard>>,
    /// Signalled when the executing shard clears `active`.
    idle: Condvar,
    stop: AtomicBool,
}

impl WorkerRuntime {
    /// Builds the runtime for a worker of `coordinator` (`host:port`).
    pub fn new(coordinator: &str) -> Arc<Self> {
        Arc::new(Self {
            coordinator: coordinator.to_string(),
            registration: Mutex::new(None),
            active: Mutex::new(None),
            idle: Condvar::new(),
            stop: AtomicBool::new(false),
        })
    }

    /// The coordinator address this worker reports to.
    pub fn coordinator(&self) -> &str {
        &self.coordinator
    }

    /// Stops the agent loop and cancels any executing shard.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(active) = self.lock_active().as_ref() {
            active.cancel.store(true, Ordering::SeqCst);
        }
    }

    /// True once [`WorkerRuntime::stop`] was called.
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn lock_registration(&self) -> std::sync::MutexGuard<'_, Option<Registration>> {
        self.registration
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn lock_active(&self) -> std::sync::MutexGuard<'_, Option<ActiveShard>> {
        self.active
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The current registration id, if the worker is registered.
    pub fn registration_id(&self) -> Option<u64> {
        self.lock_registration().as_ref().map(|r| r.id)
    }

    /// `(job, shard, epoch)` of the executing shard, if any.
    pub fn active_shard(&self) -> Option<(u64, usize, u64)> {
        self.lock_active()
            .as_ref()
            .map(|active| (active.job, active.shard, active.epoch))
    }

    /// Accepts a dispatch and starts the shard on a fresh compute thread.
    ///
    /// Refuses dispatches addressed to another worker id, dispatches while a
    /// shard is still executing after a 250 ms grace, and dispatches whose
    /// fingerprints disagree with this worker's own grid/options (the cluster
    /// must be started with identical run options for the determinism
    /// contract to hold). The grid is fingerprinted and sliced once here;
    /// the compute thread receives the shard's cells and manifest.
    pub fn start_shard(
        self: &Arc<Self>,
        options: SweepOptions,
        grid: ScenarioGrid,
        run: ShardRun,
    ) -> Result<(), StartError> {
        let registration = self.lock_registration().ok_or_else(|| {
            StartError::NotThisWorker("worker is not registered with the coordinator".to_string())
        })?;
        if registration.id != run.worker {
            return Err(StartError::NotThisWorker(format!(
                "dispatch addressed to worker {}, this node is worker {}",
                run.worker, registration.id
            )));
        }
        let grid_fingerprint = grid.fingerprint();
        if grid_fingerprint != run.grid_fingerprint {
            return Err(StartError::Mismatch(format!(
                "grid fingerprint mismatch: dispatch says {:016x}, rebuilt grid is {grid_fingerprint:016x}",
                run.grid_fingerprint,
            )));
        }
        if options.output_fingerprint() != run.options_fingerprint {
            return Err(StartError::Mismatch(format!(
                "options fingerprint mismatch: dispatch says {:016x}, this worker runs {:016x} \
                 (start every node with the same sweep options)",
                run.options_fingerprint,
                options.output_fingerprint()
            )));
        }
        let spec = ShardSpec::new(run.shard, run.count)
            .map_err(|err| StartError::Mismatch(err.to_string()))?;
        let cells = grid.shard_cells(spec);
        if run.start_row > cells.len() {
            return Err(StartError::Mismatch(format!(
                "start_row {} exceeds the shard's {} cells",
                run.start_row,
                cells.len()
            )));
        }
        let mut manifest =
            SweepManifest::with_grid_fingerprint(grid_fingerprint, &grid, &options, spec);
        manifest.completed = run.start_row;
        let cancel = Arc::new(AtomicBool::new(false));
        {
            let active = self.lock_active();
            let (mut active, _) = self
                .idle
                .wait_timeout_while(active, BUSY_GRACE, |active| active.is_some())
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            if let Some(executing) = active.as_ref() {
                return Err(StartError::Busy(format!(
                    "worker is executing job {} shard {} (epoch {})",
                    executing.job, executing.shard, executing.epoch
                )));
            }
            // Checked under the slot lock, which `stop` takes after raising
            // the flag: a shard is either refused here or cancelled there.
            if self.stopped() {
                return Err(StartError::NotThisWorker(
                    "worker is shutting down".to_string(),
                ));
            }
            *active = Some(ActiveShard {
                job: run.job,
                shard: run.shard,
                epoch: run.epoch,
                cancel: Arc::clone(&cancel),
            });
        }
        let this = Arc::clone(self);
        let token = registration.token;
        std::thread::Builder::new()
            .name(format!("ayd-shard-{}-{}", run.job, run.shard))
            .spawn(move || {
                this.compute_shard(options, cells, manifest, run, token, cancel);
            })
            .expect("spawn the shard compute thread");
        Ok(())
    }

    /// The compute thread body: evaluates the shard's cells from `start_row`
    /// through a [`ChunkSink`], then clears the active slot.
    fn compute_shard(
        self: Arc<Self>,
        options: SweepOptions,
        cells: Vec<SweepCell>,
        manifest: SweepManifest,
        run: ShardRun,
        token: u64,
        cancel: Arc<AtomicBool>,
    ) {
        // Between 16 and 512 rows per chunk: frequent enough that a lost
        // worker forfeits only a small suffix, coarse enough that uploads
        // do not dominate the sweep.
        let chunk_rows = (cells.len() / 16).clamp(16, 512);
        let mut sink = ChunkSink {
            coordinator: self.coordinator.clone(),
            run: run.clone(),
            token,
            manifest,
            sent: run.start_row,
            buffer: String::new(),
            buffered: 0,
            chunk_rows,
            cancel: Arc::clone(&cancel),
        };
        let executor = SweepExecutor::new(options);
        executor.run_cells_controlled(&cells[run.start_row..], &mut sink, Some(&cancel), None);
        if !cancel.load(Ordering::SeqCst) {
            sink.flush();
        }
        // The slot clears only after the final upload returned, so a
        // heartbeat never reports the shard dropped while its last chunk is
        // still in flight.
        let mut active = self.lock_active();
        if let Some(executing) = active.as_ref() {
            if executing.job == run.job
                && executing.shard == run.shard
                && executing.epoch == run.epoch
            {
                *active = None;
                self.idle.notify_all();
            }
        }
    }
}

/// A [`SweepSink`] that streams rows to the coordinator in [`ShardChunk`]
/// frames.
struct ChunkSink {
    coordinator: String,
    run: ShardRun,
    token: u64,
    /// The manifest snapshot; `completed` advances with every row.
    manifest: SweepManifest,
    /// Rows acknowledged by the coordinator so far (shard-local).
    sent: usize,
    buffer: String,
    buffered: usize,
    chunk_rows: usize,
    cancel: Arc<AtomicBool>,
}

impl ChunkSink {
    /// Uploads the buffered rows as one chunk. An upload the coordinator
    /// refuses (or cannot receive) cancels the shard — the coordinator
    /// re-issues from its own checkpoint.
    fn flush(&mut self) {
        if self.buffered == 0 {
            return;
        }
        let rows = std::mem::take(&mut self.buffer);
        let buffered = std::mem::replace(&mut self.buffered, 0);
        let chunk = match ShardChunk::new(self.manifest.clone(), self.sent, rows) {
            Ok(chunk) => chunk,
            Err(_) => {
                self.cancel.store(true, Ordering::SeqCst);
                return;
            }
        };
        let path = format!(
            "/v1/sweep/{}/shards/{}/chunk?worker={}&token={:016x}&epoch={}",
            self.run.job, self.run.shard, self.run.worker, self.token, self.run.epoch
        );
        let body = chunk.render();
        let accepted = HttpClient::connect(&self.coordinator)
            .and_then(|mut client| client.request("POST", &path, None, Some(&body)))
            .map(|response| response.status == 200)
            .unwrap_or(false);
        if accepted {
            self.sent += buffered;
        } else {
            self.cancel.store(true, Ordering::SeqCst);
        }
    }
}

impl SweepSink for ChunkSink {
    fn on_row(&mut self, line: &str) {
        self.buffer.push_str(line);
        self.buffered += 1;
        self.manifest.completed += 1;
        if self.buffered >= self.chunk_rows {
            self.flush();
        }
    }
}

/// Parses the coordinator's registration response.
fn parse_registration(body: &str) -> Option<Registration> {
    let doc = Json::parse(body).ok()?;
    let id = doc.get("id")?.as_f64()? as u64;
    let token = u64::from_str_radix(doc.get("token")?.as_str()?, 16).ok()?;
    let heartbeat_ms = doc.get("heartbeat_ms")?.as_f64()? as u64;
    Some(Registration {
        id,
        token,
        heartbeat: Duration::from_millis(heartbeat_ms.max(10)),
    })
}

/// The agent loop: register, heartbeat, re-register on any failure; exits
/// when [`WorkerRuntime::stop`] is called.
pub fn run_agent(runtime: Arc<WorkerRuntime>, advertise: String) {
    let retry = Duration::from_millis(200);
    while !runtime.stopped() {
        let registration = *runtime.lock_registration();
        match registration {
            None => {
                let body = Json::obj(vec![("addr", Json::str(advertise.clone()))]).render();
                let registered = HttpClient::connect(runtime.coordinator())
                    .and_then(|mut client| client.post_json("/v1/workers/register", &body))
                    .ok()
                    .filter(|response| response.status == 200)
                    .and_then(|response| parse_registration(&response.body));
                match registered {
                    Some(registration) => {
                        *runtime.lock_registration() = Some(registration);
                    }
                    None => sleep_interruptible(&runtime, retry),
                }
            }
            Some(registration) => {
                sleep_interruptible(&runtime, registration.heartbeat);
                if runtime.stopped() {
                    break;
                }
                // Sampled before the request is sent: the coordinator relies
                // on heartbeats going out one at a time (see its
                // `Confirmation`).
                let active = match runtime.active_shard() {
                    Some((job, shard, epoch)) => Json::obj(vec![
                        ("job", Json::num(job as f64)),
                        ("shard", Json::num(shard as f64)),
                        ("epoch", Json::num(epoch as f64)),
                    ]),
                    None => Json::Null,
                };
                let body = Json::obj(vec![
                    ("token", Json::str(format!("{:016x}", registration.token))),
                    ("active", active),
                ])
                .render();
                let path = format!("/v1/workers/{}/heartbeat", registration.id);
                let renewed = HttpClient::connect(runtime.coordinator())
                    .and_then(|mut client| client.post_json(&path, &body))
                    .map(|response| response.status == 200)
                    .unwrap_or(false);
                if !renewed {
                    // Lease lost (coordinator restarted, we were declared
                    // dead, network partition): start over with a fresh
                    // identity. Any executing shard keeps computing; its
                    // uploads will be fenced and it will cancel itself.
                    *runtime.lock_registration() = None;
                }
            }
        }
    }
}

/// Sleeps up to `duration` in small increments, returning early on stop.
fn sleep_interruptible(runtime: &WorkerRuntime, duration: Duration) {
    let step = Duration::from_millis(20);
    let mut remaining = duration;
    while !runtime.stopped() && remaining > Duration::ZERO {
        let slice = remaining.min(step);
        std::thread::sleep(slice);
        remaining = remaining.saturating_sub(slice);
    }
}

/// Spawns [`run_agent`] on a named thread.
pub fn spawn_agent(runtime: Arc<WorkerRuntime>, advertise: String) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("ayd-worker-agent".to_string())
        .spawn(move || run_agent(runtime, advertise))
        .expect("spawn the worker agent thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ayd_platforms::ScenarioId;
    use ayd_sweep::{ProcessorAxis, RunOptions};

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

    fn run(worker: u64) -> ShardRun {
        ShardRun {
            job: 1,
            shard: 0,
            count: 2,
            epoch: 0,
            start_row: 0,
            worker,
            grid_fingerprint: grid().fingerprint(),
            options_fingerprint: options().output_fingerprint(),
        }
    }

    #[test]
    fn unregistered_and_misaddressed_dispatches_are_refused() {
        let runtime = WorkerRuntime::new("127.0.0.1:9");
        let err = runtime.start_shard(options(), grid(), run(1)).unwrap_err();
        assert!(matches!(err, StartError::NotThisWorker(_)), "{err:?}");
        assert_eq!(err.status().0, 409);
        *runtime.lock_registration() = Some(Registration {
            id: 7,
            token: 0xFEED,
            heartbeat: Duration::from_millis(100),
        });
        let err = runtime.start_shard(options(), grid(), run(1)).unwrap_err();
        assert!(matches!(err, StartError::NotThisWorker(_)), "{err:?}");
    }

    #[test]
    fn fingerprint_mismatches_are_refused_before_any_compute() {
        let runtime = WorkerRuntime::new("127.0.0.1:9");
        *runtime.lock_registration() = Some(Registration {
            id: 1,
            token: 0xFEED,
            heartbeat: Duration::from_millis(100),
        });
        let mut bad = run(1);
        bad.options_fingerprint ^= 1;
        let err = runtime.start_shard(options(), grid(), bad).unwrap_err();
        assert!(matches!(err, StartError::Mismatch(_)), "{err:?}");
        assert_eq!(err.status().0, 400);
        let mut bad = run(1);
        bad.grid_fingerprint ^= 1;
        let err = runtime.start_shard(options(), grid(), bad).unwrap_err();
        assert!(matches!(err, StartError::Mismatch(_)), "{err:?}");
        let mut bad = run(1);
        bad.start_row = 99;
        let err = runtime.start_shard(options(), grid(), bad).unwrap_err();
        assert!(matches!(err, StartError::Mismatch(_)), "{err:?}");
        assert!(runtime.active_shard().is_none(), "nothing started");
    }

    #[test]
    fn a_busy_worker_refuses_a_second_dispatch() {
        let runtime = WorkerRuntime::new("127.0.0.1:9");
        *runtime.lock_registration() = Some(Registration {
            id: 1,
            token: 0xFEED,
            heartbeat: Duration::from_millis(100),
        });
        // Occupy the slot directly (no coordinator in this test).
        *runtime.lock_active() = Some(ActiveShard {
            job: 9,
            shard: 1,
            epoch: 0,
            cancel: Arc::new(AtomicBool::new(false)),
        });
        let err = runtime.start_shard(options(), grid(), run(1)).unwrap_err();
        assert!(matches!(err, StartError::Busy(_)), "{err:?}");
        assert_eq!(err.status().0, 409);
        // Stop cancels the executing shard.
        runtime.stop();
        let cancelled = runtime
            .lock_active()
            .as_ref()
            .map(|active| active.cancel.load(Ordering::SeqCst));
        assert_eq!(cancelled, Some(true));
    }

    #[test]
    fn registration_responses_parse_hex_tokens() {
        let registration = parse_registration(
            r#"{"id": 3, "token": "00ff00ff00ff00ff", "lease_ms": 3000, "heartbeat_ms": 1000}"#,
        )
        .unwrap();
        assert_eq!(registration.id, 3);
        assert_eq!(registration.token, 0x00ff00ff00ff00ff);
        assert_eq!(registration.heartbeat, Duration::from_millis(1000));
        assert!(parse_registration("{}").is_none());
        assert!(parse_registration("not json").is_none());
    }
}
