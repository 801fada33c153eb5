//! The worker side of the distributed sweep: registration, heartbeats and
//! shard execution.
//!
//! An ayd-serve instance started with `--worker-of COORDINATOR` runs a small
//! agent thread that registers with the coordinator (`POST
//! /v1/workers/register`), then heartbeats on the advertised cadence,
//! reporting the shard it last dropped, if any; any failed heartbeat — or a
//! `404` telling the worker its lease already expired — drops the
//! registration and re-registers under a fresh identity.
//!
//! Dispatches arrive over the worker's own HTTP listener (`POST
//! /v1/shards/run`): the handler rebuilds the grid from the forwarded sweep
//! request, cross-checks both fingerprints, and hands the shard to
//! [`WorkerRuntime::start_shard`], which computes rows **from the dispatched
//! `start_row`** — cells the coordinator already checkpointed are never
//! recomputed. Rows stream back in [`ShardChunk`] frames every few dozen
//! cells, over one keep-alive connection per shard with one chunk in
//! flight: each upload first reads the previous chunk's reply, then writes
//! its own without waiting for it, so the shard computes while the
//! coordinator checkpoints. The worker keeps nothing on disk. A refused or
//! failed upload (stale epoch after a re-issue, coordinator restart,
//! cancelled job) aborts the shard before another chunk is sent, and the
//! next heartbeat reports the shard dropped: the coordinator owns the only
//! checkpoint and re-issues the shard from it if the worker still held it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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
/// it frees a worker whose job it cancels at once, while the cancelled
/// shard computes until its next upload is refused. Either way the slot
/// clears moments later, so the dispatch waits instead of bouncing.
const BUSY_GRACE: Duration = Duration::from_millis(250);

/// Worker-side cluster state: the current registration, the (at most one)
/// executing shard, the shard last dropped, and the agent stop flag.
pub struct WorkerRuntime {
    coordinator: String,
    registration: Mutex<Option<Registration>>,
    active: Mutex<Option<ActiveShard>>,
    /// Signalled when the executing shard clears `active`.
    idle: Condvar,
    /// The shard that last ended early while the worker was not stopping,
    /// for the next heartbeat to report until one delivers it, another
    /// dispatch is accepted or the worker re-registers. Set and cleared
    /// under the `active` lock.
    dropped: Mutex<Option<(u64, usize, u64)>>,
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
            dropped: Mutex::new(None),
            stop: AtomicBool::new(false),
        })
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

    fn lock_dropped(&self) -> std::sync::MutexGuard<'_, Option<(u64, usize, u64)>> {
        self.dropped
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The current registration id, if the worker is registered.
    pub fn registration_id(&self) -> Option<u64> {
        self.lock_registration().as_ref().map(|r| r.id)
    }

    /// Accepts a dispatch and starts the shard on a fresh compute thread.
    ///
    /// Refuses dispatches addressed to another worker id, dispatches while a
    /// shard is still executing after a 250 ms grace, and dispatches whose
    /// fingerprints disagree with this worker's own grid/options (the cluster
    /// must be started with identical run options for the determinism
    /// contract to hold). The shard's manifest, which fingerprints the
    /// grid, and its cells are built here, and the compute thread receives
    /// both.
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
        let spec = ShardSpec::new(run.shard, run.count)
            .map_err(|err| StartError::Mismatch(err.to_string()))?;
        let mut manifest = SweepManifest::new(&grid, &options, spec);
        if manifest.grid_fingerprint != run.grid_fingerprint {
            return Err(StartError::Mismatch(format!(
                "grid fingerprint mismatch: dispatch says {:016x}, rebuilt grid is {:016x}",
                run.grid_fingerprint, manifest.grid_fingerprint,
            )));
        }
        if manifest.options_fingerprint != run.options_fingerprint {
            return Err(StartError::Mismatch(format!(
                "options fingerprint mismatch: dispatch says {:016x}, this worker runs {:016x} \
                 (start every node with the same sweep options)",
                run.options_fingerprint, manifest.options_fingerprint,
            )));
        }
        let cells = grid.shard_cells(spec);
        if run.start_row > cells.len() {
            return Err(StartError::Mismatch(format!(
                "start_row {} exceeds the shard's {} cells",
                run.start_row,
                cells.len()
            )));
        }
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
            *self.lock_dropped() = None;
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
    /// through a [`ChunkSink`], then clears the active slot, recording the
    /// shard as dropped if it ended early while the worker is not stopping.
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
            client: None,
            unanswered: None,
        };
        let executor = SweepExecutor::new(options);
        executor.run_cells_streamed(&cells[run.start_row..], &mut sink, Some(&cancel), None);
        sink.finish();
        // The slot, which only this thread clears, clears only after the
        // final upload's reply was read, and a shard is dropped only once it
        // stopped computing.
        let mut active = self.lock_active();
        if cancel.load(Ordering::SeqCst) && !self.stopped() {
            *self.lock_dropped() = Some((run.job, run.shard, run.epoch));
        }
        *active = None;
        self.idle.notify_all();
    }
}

/// A [`SweepSink`] that streams rows to the coordinator in [`ShardChunk`]
/// frames, over one keep-alive connection with at most one chunk awaiting
/// its reply.
struct ChunkSink {
    coordinator: String,
    run: ShardRun,
    token: u64,
    /// The manifest snapshot; `completed` advances with every chunk.
    manifest: SweepManifest,
    /// Rows acknowledged by the coordinator so far (shard-local).
    sent: usize,
    buffer: String,
    buffered: usize,
    chunk_rows: usize,
    cancel: Arc<AtomicBool>,
    /// The connection to the coordinator, opened by the first upload and
    /// reopened after a reply that closes it.
    client: Option<HttpClient>,
    /// Rows of the chunk sent and not yet answered.
    unanswered: Option<usize>,
}

impl ChunkSink {
    /// Reads the previous chunk's reply, then writes the buffered rows as
    /// the next chunk without waiting for its own reply. An upload the
    /// coordinator refuses (or cannot receive) cancels the shard before
    /// another chunk is sent: the coordinator re-issues from its own
    /// checkpoint.
    fn flush(&mut self) {
        let mut span = ayd_obs::span("upload");
        let waiting = Instant::now();
        self.read_reply();
        let wait_us = waiting.elapsed().as_micros() as u64;
        let rows = if self.cancel.load(Ordering::SeqCst) {
            0
        } else {
            self.send()
        };
        if span.is_recording() {
            span.field_u64("job", self.run.job);
            span.field_u64("shard", self.run.shard as u64);
            span.field_u64("rows", rows as u64);
            span.field_u64("wait_us", wait_us);
        }
    }

    /// Uploads the rows still buffered (unless the shard was cancelled),
    /// then reads the last reply.
    fn finish(&mut self) {
        self.flush();
        if self.unanswered.is_some() {
            self.flush();
        }
    }

    /// Reads the reply to the chunk in flight, if any: an accepted chunk
    /// advances `sent`, anything else cancels the shard.
    fn read_reply(&mut self) {
        let (Some(rows), Some(client)) = (self.unanswered.take(), self.client.as_mut()) else {
            return;
        };
        match client.receive() {
            Ok(reply) if reply.status == 200 => {
                self.sent += rows;
                if reply.closes {
                    self.client = None;
                }
            }
            _ => {
                self.client = None;
                self.cancel.store(true, Ordering::SeqCst);
            }
        }
    }

    /// Writes the buffered rows as one chunk and returns their count; a
    /// chunk that cannot be built or written cancels the shard.
    fn send(&mut self) -> usize {
        if self.buffered == 0 {
            return 0;
        }
        let rows = std::mem::take(&mut self.buffer);
        let buffered = std::mem::replace(&mut self.buffered, 0);
        let Ok(chunk) = ShardChunk::new(self.manifest.clone(), self.sent, rows) else {
            self.cancel.store(true, Ordering::SeqCst);
            return 0;
        };
        let path = format!(
            "/v1/sweep/{}/shards/{}/chunk?worker={}&token={:016x}&epoch={}",
            self.run.job, self.run.shard, self.run.worker, self.token, self.run.epoch
        );
        let client = match self.client.take() {
            Some(client) => Ok(client),
            None => HttpClient::connect(&self.coordinator),
        };
        match client.and_then(|mut client| {
            client.send("POST", &path, None, Some(&chunk.render()))?;
            Ok(client)
        }) {
            Ok(client) => {
                self.client = Some(client);
                self.unanswered = Some(buffered);
                buffered
            }
            Err(_) => {
                self.cancel.store(true, Ordering::SeqCst);
                0
            }
        }
    }
}

impl SweepSink for ChunkSink {
    /// Buffers a released chunk, and uploads once `chunk_rows` rows are
    /// buffered: an upload carries whole executor chunks, so up to 7 rows
    /// past `chunk_rows`.
    fn on_rows(&mut self, lines: &str, rows: usize) {
        self.buffer.push_str(lines);
        self.buffered += rows;
        self.manifest.completed += rows;
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
                let registered = HttpClient::connect(&runtime.coordinator)
                    .and_then(|mut client| client.post_json("/v1/workers/register", &body))
                    .ok()
                    .filter(|response| response.status == 200)
                    .and_then(|response| parse_registration(&response.body));
                match registered {
                    Some(registration) => {
                        // The old identity's shard waits for its lease; a
                        // report from the new identity would name nothing.
                        *runtime.lock_dropped() = None;
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
                let dropped = *runtime.lock_dropped();
                let body = Json::obj(vec![
                    ("token", Json::str(format!("{:016x}", registration.token))),
                    ("dropped", crate::api::shard_key_json(dropped)),
                ])
                .render();
                let path = format!("/v1/workers/{}/heartbeat", registration.id);
                let renewed = HttpClient::connect(&runtime.coordinator)
                    .and_then(|mut client| client.post_json(&path, &body))
                    .map(|response| response.status == 200)
                    .unwrap_or(false);
                if renewed {
                    // Delivered; a shard dropped since waits for the next.
                    let mut pending = runtime.lock_dropped();
                    if *pending == dropped {
                        *pending = None;
                    }
                } else {
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
    use ayd_sweep::RunOptions;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpListener;
    use std::sync::mpsc::{self, Receiver, Sender};

    /// A 4-cell grid document.
    const GRID: &str = r#"{"scenarios":[1,3],"processors":[256,1024]}"#;

    /// A 64-cell grid document: four 16-row chunks as one shard.
    const GRID_64: &str = r#"{"scenarios":[1,3],"processors":[256,1024],"lambda_multipliers":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]}"#;

    /// How long a test waits for the other side before it fails.
    const PATIENCE: Duration = Duration::from_secs(10);

    fn parse(document: &str) -> ScenarioGrid {
        crate::api::parse_grid(&Json::parse(document).unwrap()).unwrap()
    }

    fn grid() -> ScenarioGrid {
        parse(GRID)
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

    /// `grid` as the single shard of job 1, dispatched to worker 1.
    fn whole(grid: &ScenarioGrid) -> ShardRun {
        ShardRun {
            count: 1,
            grid_fingerprint: grid.fingerprint(),
            ..run(1)
        }
    }

    /// A runtime registered as worker 1 of `coordinator`.
    fn registered(coordinator: &str) -> Arc<WorkerRuntime> {
        let runtime = WorkerRuntime::new(coordinator);
        *runtime.lock_registration() = Some(Registration {
            id: 1,
            token: 0xFEED,
            heartbeat: Duration::from_millis(100),
        });
        runtime
    }

    /// Waits until the executing shard clears its slot.
    fn wait_idle(runtime: &WorkerRuntime) {
        let active = runtime.lock_active();
        let (active, _) = runtime
            .idle
            .wait_timeout_while(active, PATIENCE, |active| active.is_some())
            .unwrap();
        assert!(active.is_none(), "the shard never cleared its slot");
    }

    /// What the fake coordinator saw on its one connection.
    #[derive(Debug)]
    enum Seen {
        /// An upload: its request target and chunk.
        Upload(String, ShardChunk),
        /// The worker closed the connection.
        Closed,
    }

    /// A fake coordinator: it accepts one connection, hands each request on
    /// it to the test and answers it with the status the test sends back.
    /// Its thread returns the listener once the worker closes the
    /// connection, so the test can check that no second one was opened.
    fn fake_coordinator() -> (
        String,
        Receiver<Seen>,
        Sender<u16>,
        std::thread::JoinHandle<TcpListener>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (seen, seen_rx) = mpsc::channel();
        let (reply_tx, reply) = mpsc::channel::<u16>();
        let thread = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            loop {
                let mut line = String::new();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    seen.send(Seen::Closed).unwrap();
                    return listener;
                }
                let target = line.split(' ').nth(1).unwrap().to_string();
                let mut length = 0;
                loop {
                    let mut header = String::new();
                    reader.read_line(&mut header).unwrap();
                    if header.trim().is_empty() {
                        break;
                    }
                    if let Some(value) = header.strip_prefix("content-length:") {
                        length = value.trim().parse().unwrap();
                    }
                }
                let mut body = vec![0; length];
                reader.read_exact(&mut body).unwrap();
                let chunk = ShardChunk::parse(std::str::from_utf8(&body).unwrap()).unwrap();
                seen.send(Seen::Upload(target, chunk)).unwrap();
                let status = reply.recv().unwrap();
                write!(
                    writer,
                    "HTTP/1.1 {status} Fake\r\ncontent-length: 2\r\nconnection: keep-alive\r\n\r\n{{}}"
                )
                .unwrap();
            }
        });
        (addr, seen_rx, reply_tx, thread)
    }

    /// The next upload the fake saw; asserts that it continues the shard
    /// gaplessly from `from_row`.
    fn upload(seen: &Receiver<Seen>, from_row: usize) -> ShardChunk {
        match seen.recv_timeout(PATIENCE).unwrap() {
            Seen::Upload(target, chunk) => {
                assert!(target.starts_with("/v1/sweep/1/shards/0/chunk?worker=1&"));
                assert_eq!(
                    chunk.from_row(),
                    from_row,
                    "uploads are gapless and in order"
                );
                chunk
            }
            Seen::Closed => panic!("the worker closed the connection before row {from_row}"),
        }
    }

    #[test]
    fn one_connection_carries_the_uploads_and_a_refusal_stops_the_shard() {
        let (addr, seen, reply, fake) = fake_coordinator();
        let runtime = registered(&addr);
        let grid = parse(GRID_64);
        // A drop not yet reported is forgotten once a dispatch is accepted.
        *runtime.lock_dropped() = Some((9, 1, 0));
        runtime
            .start_shard(options(), grid.clone(), whole(&grid))
            .unwrap();
        assert_eq!(*runtime.lock_dropped(), None);
        // The shard cannot finish before the fake answers, so its slot is
        // still held.
        let cancel = Arc::clone(&runtime.lock_active().as_ref().unwrap().cancel);
        // Two chunks accepted, the third refused.
        let mut from_row = 0;
        for status in [200, 200, 409] {
            let chunk = upload(&seen, from_row);
            assert_eq!(chunk.row_count(), 16);
            from_row += chunk.row_count();
            reply.send(status).unwrap();
        }
        // The refusal is read at the next flush, which then sends nothing.
        assert!(matches!(seen.recv_timeout(PATIENCE).unwrap(), Seen::Closed));
        wait_idle(&runtime);
        assert!(
            cancel.load(Ordering::SeqCst),
            "the refusal cancelled the shard"
        );
        assert_eq!(
            *runtime.lock_dropped(),
            Some((1, 0, 0)),
            "the next heartbeat reports the shard dropped"
        );
        let listener = fake.join().unwrap();
        listener.set_nonblocking(true).unwrap();
        assert_eq!(
            listener.accept().unwrap_err().kind(),
            std::io::ErrorKind::WouldBlock,
            "no upload went out on a second connection"
        );
    }

    #[test]
    fn the_slot_stays_held_until_the_last_reply_is_read() {
        let (addr, seen, reply, fake) = fake_coordinator();
        let runtime = registered(&addr);
        let grid = parse(GRID_64);
        runtime
            .start_shard(options(), grid.clone(), whole(&grid))
            .unwrap();
        let mut from_row = 0;
        while from_row < grid.len() {
            from_row += upload(&seen, from_row).row_count();
            if from_row < grid.len() {
                reply.send(200).unwrap();
            }
        }
        // The final chunk is in and its reply withheld: the slot is still
        // held, and nothing is reported dropped.
        assert!(runtime.lock_active().is_some());
        reply.send(200).unwrap();
        wait_idle(&runtime);
        assert_eq!(
            *runtime.lock_dropped(),
            None,
            "a finished shard reports nothing"
        );
        assert!(matches!(seen.recv_timeout(PATIENCE).unwrap(), Seen::Closed));
        fake.join().unwrap();
    }

    #[test]
    fn a_stopping_worker_reports_no_drop() {
        let (addr, seen, reply, fake) = fake_coordinator();
        let runtime = registered(&addr);
        let grid = parse(GRID_64);
        runtime
            .start_shard(options(), grid.clone(), whole(&grid))
            .unwrap();
        upload(&seen, 0);
        // Stopping cancels the shard, which ends early: a killed worker's
        // shard is recovered through its lease, not reported.
        runtime.stop();
        reply.send(200).unwrap();
        wait_idle(&runtime);
        assert_eq!(*runtime.lock_dropped(), None);
        assert!(matches!(seen.recv_timeout(PATIENCE).unwrap(), Seen::Closed));
        fake.join().unwrap();
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
        assert!(runtime.lock_active().is_none(), "nothing started");
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

    /// Accepts the agent's next request on `listener`, answers it with
    /// `status` and `reply` once `before_reply` ran, and returns its target
    /// and body.
    fn answer_agent(
        listener: &TcpListener,
        status: u16,
        reply: &str,
        before_reply: impl FnOnce(),
    ) -> (String, Json) {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let target = line.split(' ').nth(1).unwrap().to_string();
        let mut length = 0;
        loop {
            let mut header = String::new();
            reader.read_line(&mut header).unwrap();
            if header.trim().is_empty() {
                break;
            }
            if let Some(value) = header.strip_prefix("content-length:") {
                length = value.trim().parse().unwrap();
            }
        }
        let mut body = vec![0; length];
        reader.read_exact(&mut body).unwrap();
        before_reply();
        write!(
            &stream,
            "HTTP/1.1 {status} Fake\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{reply}",
            reply.len()
        )
        .unwrap();
        (
            target,
            Json::parse(std::str::from_utf8(&body).unwrap()).unwrap(),
        )
    }

    #[test]
    fn a_drop_is_reported_until_a_heartbeat_delivers_it_or_the_worker_re_registers() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let runtime = WorkerRuntime::new(&listener.local_addr().unwrap().to_string());
        let agent = spawn_agent(Arc::clone(&runtime), "127.0.0.1:9".to_string());
        let registration = r#"{"id":1,"token":"00000000000000aa","heartbeat_ms":10}"#;
        let set = |dropped| *runtime.lock_dropped() = dropped;
        let report = |body: &Json| body.get("dropped").unwrap().clone();
        let shard = |job: f64| {
            Json::obj(vec![
                ("job", Json::num(job)),
                ("shard", Json::num(0.0)),
                ("epoch", Json::num(0.0)),
            ])
        };
        // A drop recorded before registering concerns no identity of the
        // new registration's.
        let (target, _) = answer_agent(&listener, 200, registration, || set(Some((9, 0, 0))));
        assert_eq!(target, "/v1/workers/register");
        // A shard dropped while a heartbeat is in flight waits for the next.
        let (target, body) = answer_agent(&listener, 200, "{}", || set(Some((1, 0, 0))));
        assert_eq!(target, "/v1/workers/1/heartbeat");
        assert_eq!(report(&body), Json::Null);
        let (_, body) = answer_agent(&listener, 200, "{}", || {});
        assert_eq!(report(&body), shard(1.0));
        // Delivered: the next heartbeat reports nothing.
        let (_, body) = answer_agent(&listener, 200, "{}", || {});
        assert_eq!(report(&body), Json::Null);
        // A report the coordinator does not take (the registration is gone)
        // is forgotten with the registration.
        let (_, body) = answer_agent(&listener, 200, "{}", || set(Some((2, 0, 0))));
        assert_eq!(report(&body), Json::Null);
        let (_, body) = answer_agent(&listener, 404, "{}", || {});
        assert_eq!(report(&body), shard(2.0));
        let (target, _) = answer_agent(&listener, 200, registration, || {});
        assert_eq!(target, "/v1/workers/register");
        let (_, body) = answer_agent(&listener, 200, "{}", || runtime.stop());
        assert_eq!(report(&body), Json::Null);
        agent.join().unwrap();
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
