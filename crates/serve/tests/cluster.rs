//! Integration suite for the distributed sweep coordinator: an in-process
//! three-node cluster (one coordinator, two workers) computes a sharded
//! sweep whose merged CSV must be byte-identical to the single-process
//! engine — including when a worker is killed mid-shard and its work is
//! re-issued from the coordinator's checkpoint, and when a job is cancelled
//! mid-shard and its worker goes straight on to the next job.
//!
//! "Killing" a worker here is `ServeHandle::shutdown()`: the worker's
//! in-flight shard is cancelled and its heartbeats stop, which is exactly
//! what the coordinator observes after a real `kill -9` — a lease that
//! silently stops renewing. (CI additionally runs the subprocess version
//! with a literal `kill -9`.)

use std::time::{Duration, Instant};

use ayd_serve::client::{await_workers, cluster_smoke_check, engine_sweep_csv, fetch_sweep_csv};
use ayd_serve::{AppState, ClusterConfig, HttpClient, Json, PrometheusText, Server, ServerConfig};

/// 256 cells: 2 scenarios × 4 λ multipliers × 8 processor counts × 4 pattern
/// lengths. Big enough that a shard spans several upload chunks (so there is
/// a real mid-shard window to kill a worker in), small enough for a debug
/// test run.
const GRID_BODY: &str = r#"{"platforms":["Hera"],"scenarios":[1,3],"lambda_multipliers":[1,2,5,10],"processors":[128,192,256,384,512,768,1024,2048],"pattern_lengths":[900,1800,3600,7200]}"#;

const LEASE: Duration = Duration::from_millis(300);

fn boot(
    config: ServerConfig,
) -> (
    ayd_serve::ServeHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
    std::sync::Arc<ayd_serve::AppState>,
) {
    let server = Server::bind(config).unwrap();
    let handle = server.handle().unwrap();
    let state = server.state();
    let thread = std::thread::spawn(move || server.serve());
    (handle, thread, state)
}

fn coordinator_config(lease: Duration) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        cluster: ClusterConfig {
            coordinator: true,
            lease,
            ..ClusterConfig::default()
        },
        ..ServerConfig::default()
    }
}

fn worker_config(coordinator: &str) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        cluster: ClusterConfig {
            worker_of: Some(coordinator.to_string()),
            ..ClusterConfig::default()
        },
        ..ServerConfig::default()
    }
}

fn get_json(addr: &str, path: &str) -> Json {
    let mut client = HttpClient::connect(addr).unwrap();
    let response = client.get(path, None).unwrap();
    assert_eq!(response.status, 200, "{path}: {}", response.body);
    Json::parse(&response.body).unwrap()
}

fn poll_csv(addr: &str, id: u64, timeout: Duration) -> String {
    let mut client = HttpClient::connect(addr).unwrap();
    let deadline = Instant::now() + timeout;
    loop {
        let poll = client
            .get(&format!("/v1/sweep/{id}"), Some("text/csv"))
            .unwrap();
        assert_eq!(poll.status, 200, "{}", poll.body);
        if poll.content_type.starts_with("text/csv") {
            return poll.body;
        }
        assert!(Instant::now() < deadline, "sweep {id} did not finish");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Submits a `/v1/sweep` job and returns its id.
fn submit(client: &mut HttpClient, body: &str) -> u64 {
    let accepted = client.post_json("/v1/sweep", body).unwrap();
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let doc = Json::parse(&accepted.body).unwrap();
    doc.get("id").unwrap().as_f64().unwrap() as u64
}

fn counter(addr: &str, name: &str) -> f64 {
    let mut client = HttpClient::connect(addr).unwrap();
    let response = client.get("/metrics", None).unwrap();
    let scrape = PrometheusText::parse(&response.body).unwrap();
    scrape.value(name).unwrap_or(0.0)
}

/// One attempt at killing a worker mid-shard: boots a victim worker,
/// submits `body`, watches the coordinator's checkpoint in process until
/// the victim has checkpointed part of a shard, then freezes it — compute
/// cancelled at the next cell, heartbeats stopped, no final upload — which
/// is what `kill -9` looks like from the coordinator: a lease that silently
/// stops renewing. Returns the job id, the shard the victim held when it
/// died and that shard's checkpoint, or `None` when the victim finished its
/// shards before the kill landed (a release build computes a 128-cell shard
/// in well under a millisecond).
fn kill_a_worker_mid_shard(
    coord: &AppState,
    coord_addr: &str,
    body: &str,
) -> Option<(u64, usize, usize)> {
    let (victim_handle, victim_thread, victim_state) = boot(worker_config(coord_addr));
    let victim = victim_state.worker.as_ref().unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let victim_id = loop {
        if let Some(id) = victim.registration_id() {
            break id;
        }
        assert!(Instant::now() < deadline, "the victim did not register");
        std::thread::sleep(Duration::from_millis(5));
    };

    let mut client = HttpClient::connect(coord_addr).unwrap();
    let accepted = client.post_json("/v1/sweep", body).unwrap();
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let doc = Json::parse(&accepted.body).unwrap();
    let id = doc.get("id").unwrap().as_f64().unwrap() as u64;
    assert!(doc.get("resume_token").is_none(), "{}", accepted.body);

    // The victim's dispatched shard with a partial checkpoint, read from the
    // coordinator itself: no poll interval for a shard to finish inside.
    let coordinator = coord.coordinator.as_ref().unwrap();
    let held = || {
        coordinator
            .shards_view(id)?
            .shards
            .iter()
            .find_map(|shard| {
                (shard.status == "dispatched"
                    && shard.worker == Some(victim_id)
                    && shard.completed > 0
                    && shard.completed < shard.total)
                    .then_some((shard.index, shard.completed))
            })
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    while held().is_none() && !coordinator.job_finished(id) {
        assert!(
            Instant::now() < deadline,
            "no mid-shard checkpoint appeared within 60 s"
        );
        std::thread::yield_now();
    }
    victim.stop();
    victim_handle.shutdown();
    victim_thread.join().unwrap().unwrap();
    // The victim may have finished that shard between the look and the
    // kill; only what it held once frozen counts.
    let found = held();
    if found.is_none() {
        let mut cancel = HttpClient::connect(coord_addr).unwrap();
        let response = cancel
            .request("DELETE", &format!("/v1/sweep/{id}"), None, None)
            .unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
    }
    found.map(|(shard, checkpointed)| (id, shard, checkpointed))
}

#[test]
fn a_cluster_survives_a_worker_killed_mid_shard_without_recomputing_rows() {
    let (coord_handle, coord_thread, coord) = boot(coordinator_config(LEASE));
    let coord_addr = coord_handle.addr().to_string();

    // One worker at a time, so the job's first shard goes to the node we
    // are about to kill. A victim that outran the kill is retried with a
    // fresh job.
    let body = format!("{}{}", &GRID_BODY[..GRID_BODY.len() - 1], r#","shards":2}"#);
    let (id, shard_index, checkpointed) = (0..5)
        .find_map(|_| kill_a_worker_mid_shard(&coord, &coord_addr, &body))
        .expect("five victims in a row finished their shard before the kill");
    assert!(checkpointed > 0);

    // With no other worker around, recovery is observable in isolation: the
    // victim's lease expires (> 2 leases after its last upload) and the
    // half-done shard is re-issued from the coordinator's checkpoint — the
    // completed prefix is retained, never recomputed.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(
            Instant::now() < deadline,
            "the victim's shard was not re-issued within 30 s"
        );
        let view = get_json(&coord_addr, &format!("/v1/sweep/{id}/shards"));
        let progress = view.get("progress").unwrap().as_array().unwrap();
        let shard = &progress[shard_index];
        if shard.get("reissues").unwrap().as_f64().unwrap() >= 1.0 {
            let kept = shard.get("completed").unwrap().as_f64().unwrap() as usize;
            assert!(
                kept >= checkpointed,
                "re-issue dropped checkpointed rows: kept {kept}, had {checkpointed}"
            );
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        counter(&coord_addr, "ayd_lease_expiries_total") >= 1.0,
        "no lease expiry recorded"
    );
    assert!(
        counter(&coord_addr, "ayd_shard_reissues_total") >= 1.0,
        "no shard re-issue recorded"
    );

    // Bring up the replacement worker: the job must still finish, and the
    // merged CSV must be byte-identical to the single-process engine.
    let (worker2_handle, worker2_thread, _) = boot(worker_config(&coord_addr));
    let csv = poll_csv(&coord_addr, id, Duration::from_secs(120));
    let expected = engine_sweep_csv(GRID_BODY).unwrap();
    assert_eq!(csv.len(), expected.len(), "merged CSV size differs");
    assert_eq!(csv, expected, "merged CSV differs from the engine");

    // The dead worker is visible in the operator view until purged.
    let workers = get_json(&coord_addr, "/v1/workers");
    assert!(workers.get("dead").unwrap().as_f64().unwrap() >= 1.0);

    worker2_handle.shutdown();
    worker2_thread.join().unwrap().unwrap();
    coord_handle.shutdown();
    coord_thread.join().unwrap().unwrap();
}

#[test]
fn two_workers_split_a_distributed_sweep_and_report_live_progress() {
    let (coord_handle, coord_thread, _) = boot(coordinator_config(LEASE));
    let coord_addr = coord_handle.addr().to_string();
    let (w1_handle, w1_thread, _) = boot(worker_config(&coord_addr));
    let (w2_handle, w2_thread, _) = boot(worker_config(&coord_addr));
    await_workers(&coord_addr, 2, Duration::from_secs(30)).unwrap();

    let body = format!("{}{}", &GRID_BODY[..GRID_BODY.len() - 1], r#","shards":4}"#);
    let mut client = HttpClient::connect(&coord_addr).unwrap();
    let accepted = client.post_json("/v1/sweep", &body).unwrap();
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let id = Json::parse(&accepted.body)
        .unwrap()
        .get("id")
        .unwrap()
        .as_f64()
        .unwrap() as u64;

    // While the job runs, the live shards view names the workers: every
    // dispatched shard carries a worker id and address. Capture one snapshot
    // with at least one dispatched shard (the job may finish fast in a
    // release build, so don't insist on catching it — the final state check
    // below is the load-bearing one).
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut saw_dispatched_with_worker = false;
    let csv = loop {
        assert!(
            Instant::now() < deadline,
            "sweep did not finish within 60 s"
        );
        let view = get_json(&coord_addr, &format!("/v1/sweep/{id}/shards"));
        if let Some(progress) = view.get("progress").and_then(Json::as_array) {
            for shard in progress {
                if shard.get("status").unwrap().as_str() == Some("dispatched") {
                    assert!(shard.get("worker").unwrap().as_f64().is_some());
                    assert!(shard.get("worker_addr").unwrap().as_str().is_some());
                    saw_dispatched_with_worker = true;
                }
            }
        }
        let poll = client
            .get(&format!("/v1/sweep/{id}"), Some("text/csv"))
            .unwrap();
        if poll.content_type.starts_with("text/csv") {
            break poll.body;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let _ = saw_dispatched_with_worker;

    let expected = engine_sweep_csv(GRID_BODY).unwrap();
    assert_eq!(csv, expected, "merged CSV differs from the engine");

    // Both workers earned at least one dispatch between them.
    assert!(counter(&coord_addr, "ayd_shards_dispatched_total") >= 4.0);

    // More shards than cells: the empty shards are never dispatched, and
    // the job still finishes with the engine's bytes.
    let over_sharded = r#"{"scenarios":[1],"processors":[256,1024],"shards":4}"#;
    let csv = fetch_sweep_csv(&coord_addr, over_sharded, Duration::from_secs(60)).unwrap();
    assert_eq!(csv, engine_sweep_csv(over_sharded).unwrap());

    // `loadgen --cluster-check` passes against the same cluster.
    cluster_smoke_check(&coord_addr, 2).unwrap();

    // Workers keep nothing on disk: the coordinator holds the only
    // checkpoint, so no worker of this process leaves files behind.
    let spool = std::env::temp_dir().join(format!("ayd-worker-{}", std::process::id()));
    assert!(!spool.exists(), "workers left files in {}", spool.display());

    for (handle, thread) in [(w1_handle, w1_thread), (w2_handle, w2_thread)] {
        handle.shutdown();
        thread.join().unwrap().unwrap();
    }
    coord_handle.shutdown();
    coord_thread.join().unwrap().unwrap();
}

/// 18,432 cells: every platform and scenario, 4 profiles, 6 λ multipliers,
/// 8 processor counts and 4 pattern lengths. As 2 shards, each uploads 18
/// chunks of 512 rows, so even a release worker leaves a partial
/// checkpoint to cancel at.
const WIDE_GRID_BODY: &str = r#"{"platforms":["Hera","Atlas","Coastal","Coastal SSD"],"scenarios":[1,2,3,4,5,6],"profiles":["amdahl:0.1","powerlaw:0.8","gustafson:0.05","perfect"],"lambda_multipliers":[1,2,5,10,20,50],"processors":[128,192,256,384,512,768,1024,2048],"pattern_lengths":[900,1800,3600,7200],"shards":2}"#;

#[test]
fn a_cancel_frees_its_worker_for_the_next_job_at_once() {
    // A 30 s lease puts heartbeats 10 s apart: a worker that stayed held
    // until a heartbeat freed it would miss the next job's 5 s bound.
    let (coord_handle, coord_thread, coord) = boot(coordinator_config(Duration::from_secs(30)));
    let coord_addr = coord_handle.addr().to_string();
    let (worker_handle, worker_thread, _) = boot(worker_config(&coord_addr));
    await_workers(&coord_addr, 1, Duration::from_secs(30)).unwrap();
    let coordinator = coord.coordinator.as_ref().unwrap();

    // Cancel a job once the coordinator holds a partial checkpoint of a
    // shard, watched in process; a job that finished first is retried.
    let partial = |id: u64| {
        coordinator.shards_view(id).is_some_and(|view| {
            view.shards
                .iter()
                .any(|shard| shard.completed > 0 && shard.completed < shard.total)
        })
    };
    let mut client = HttpClient::connect(&coord_addr).unwrap();
    let cancelled = (0..5).find_map(|_| {
        let id = submit(&mut client, WIDE_GRID_BODY);
        let deadline = Instant::now() + Duration::from_secs(60);
        while !partial(id) && !coordinator.job_finished(id) {
            assert!(
                Instant::now() < deadline,
                "no partial checkpoint within 60 s"
            );
            std::thread::yield_now();
        }
        let response = client
            .request("DELETE", &format!("/v1/sweep/{id}"), None, None)
            .unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        let view = coordinator.shards_view(id);
        view.filter(|view| view.cancelled && view.merged_rows < view.total)
            .map(|_| id)
    });
    assert!(
        cancelled.is_some(),
        "five jobs in a row finished before the cancel"
    );

    let body = format!("{}{}", &GRID_BODY[..GRID_BODY.len() - 1], r#","shards":2}"#);
    let started = Instant::now();
    let id = submit(&mut client, &body);
    let csv = poll_csv(&coord_addr, id, Duration::from_secs(5));
    let took = started.elapsed();
    assert!(took < Duration::from_secs(5), "the next job took {took:?}");
    assert_eq!(csv, engine_sweep_csv(GRID_BODY).unwrap());
    assert_eq!(
        counter(&coord_addr, "ayd_shard_reissues_total"),
        0.0,
        "a cancelled shard is never re-issued"
    );

    worker_handle.shutdown();
    worker_thread.join().unwrap().unwrap();
    coord_handle.shutdown();
    coord_thread.join().unwrap().unwrap();
}
