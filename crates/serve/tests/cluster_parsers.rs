//! Property suite: the cluster's parsers of external input, fed mutated
//! valid text.
//!
//! Each parser gets the text of a valid value with a few mutations: a byte
//! flipped, the text truncated, a separator of its format inserted, a `\r`
//! or a NUL inserted, a byte deleted. Whatever comes of it, the parser must
//! not panic, and each input is either refused or round-trips: the value it
//! parses to renders to text that parses back to the same value. The
//! cluster's two POST bodies, a worker heartbeat and a `/v1/shards/run`
//! dispatch, go through `api::route` and must answer 2xx or 4xx, never a
//! 5xx.

use std::sync::Arc;
use std::time::Duration;

use ayd_platforms::ScenarioId;
use ayd_serve::coordinator::{dispatch_body, Dispatch};
use ayd_serve::{api, AppState, ClusterConfig, Json, Request, ServerConfig};
use ayd_sweep::{
    ProcessorAxis, RunOptions, ScenarioGrid, ShardChunk, ShardSpec, SweepManifest, SweepOptions,
    CSV_HEADER,
};
use mutate::{mutate, mutations};
use proptest::prelude::*;

mod mutate;

fn options() -> SweepOptions {
    SweepOptions::new(RunOptions {
        simulate: false,
        ..RunOptions::smoke()
    })
}

/// A 16-cell grid: room for every shard and checkpoint drawn below.
fn grid() -> ScenarioGrid {
    ScenarioGrid::builder()
        .scenarios(&[ScenarioId::S1, ScenarioId::S3])
        .processors(ProcessorAxis::Fixed(vec![256.0, 1024.0]))
        .pattern_lengths(&[900.0, 1800.0, 3600.0, 7200.0])
        .build()
        .unwrap()
}

/// A valid manifest of shard `index` of `count` with `completed` rows.
fn manifest(index: usize, count: usize, completed: usize) -> SweepManifest {
    let mut manifest =
        SweepManifest::new(&grid(), &options(), ShardSpec::new(index, count).unwrap());
    manifest.completed = completed.min(manifest.shard_cells);
    manifest
}

/// A valid chunk of `rows` rows of shard `index/count` from `from`.
fn chunk(index: usize, count: usize, from: usize, rows: usize) -> ShardChunk {
    let mut snapshot = manifest(index, count, 0);
    let from = from.min(snapshot.shard_cells);
    let rows = rows.min(snapshot.shard_cells - from);
    snapshot.completed = from + rows;
    let row = vec!["1.5e-7"; CSV_HEADER.matches(',').count() + 1].join(",");
    ShardChunk::new(snapshot, from, format!("{row}\n").repeat(rows)).unwrap()
}

/// The `/v1/sweep` grid document of a dispatch.
const GRID: &str = r#"{"platforms":["Hera"],"scenarios":[1,3],"processors":[256,1024],"lambda_multipliers":[1,2.5],"failure_models":["exp","weibull:0.7"],"shards":2}"#;

fn post(target: &str, body: &str) -> Request {
    Request {
        method: "POST".to_string(),
        target: target.to_string(),
        http1_0: false,
        headers: vec![("content-type".to_string(), "application/json".to_string())],
        body: body.as_bytes().to_vec(),
    }
}

fn cluster_state(cluster: ClusterConfig) -> Arc<AppState> {
    AppState::new(&ServerConfig {
        threads: 1,
        cluster,
        ..ServerConfig::default()
    })
}

/// Routes `request` and returns its status, which must be 2xx or 4xx.
fn status(state: &Arc<AppState>, request: &Request) -> u16 {
    let (_, response) = api::route(state, request);
    assert!(
        (200..300).contains(&response.status) || (400..500).contains(&response.status),
        "{} {:?} answered {}",
        request.target,
        String::from_utf8_lossy(&request.body),
        response.status
    );
    response.status
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_chunks_are_refused_or_round_trip(
        (index, count, from, rows) in (0usize..4, 1usize..5, 0usize..8, 0usize..6),
        edits in mutations(),
    ) {
        let count = count.max(index + 1);
        let text = mutate(&chunk(index, count, from, rows).render(), &edits);
        if let Ok(parsed) = ShardChunk::parse(&text) {
            prop_assert_eq!(ShardChunk::parse(&parsed.render()), Ok(parsed));
        }
    }

    #[test]
    fn mutated_manifests_are_refused_or_round_trip(
        (index, count, completed) in (0usize..4, 1usize..5, 0usize..8),
        edits in mutations(),
    ) {
        let count = count.max(index + 1);
        let text = mutate(&manifest(index, count, completed).render(), &edits);
        if let Ok(parsed) = SweepManifest::parse(&text) {
            prop_assert_eq!(SweepManifest::parse(&parsed.render()), Ok(parsed));
        }
    }

    #[test]
    fn mutated_shard_specs_are_refused_or_round_trip(
        (index, count) in (0usize..4096, 1usize..4097),
        edits in mutations(),
    ) {
        let spec = ShardSpec::new(index % count, count).unwrap();
        let text = mutate(&spec.to_string(), &edits);
        if let Ok(parsed) = ShardSpec::parse(&text) {
            prop_assert_eq!(ShardSpec::parse(&parsed.to_string()), Ok(parsed));
            prop_assert!(parsed.index < parsed.count);
        }
    }

    /// A number too large for an `f64` parses to infinity (the API layer
    /// refuses it by field) and renders as `null`, so the round trip is
    /// through the rendering: it parses back to itself.
    #[test]
    fn mutated_json_is_refused_or_round_trips(
        which in 0usize..3,
        edits in mutations(),
    ) {
        let heartbeat = r#"{"token":"00ff00ff00ff00ff","dropped":{"job":12,"shard":3,"epoch":1}}"#;
        let escapes = r#"{"a":[-0.0,1e-300,"é\n\"x\\"],"b":null,"c":true}"#;
        let text = mutate([GRID, heartbeat, escapes][which], &edits);
        if let Ok(parsed) = Json::parse(&text) {
            let canonical = parsed.render();
            let again = Json::parse(&canonical).expect("a rendering parses");
            prop_assert_eq!(again.render(), canonical);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_heartbeats_answer_2xx_or_4xx(
        report in 0u64..3,
        edits in mutations(),
    ) {
        let state = cluster_state(ClusterConfig {
            coordinator: true,
            lease: Duration::from_secs(60),
            ..ClusterConfig::default()
        });
        let (_, registered) = api::route(&state, &post("/v1/workers/register", r#"{"addr":"127.0.0.1:9"}"#));
        let doc = Json::parse(std::str::from_utf8(&registered.body.bytes().unwrap()).unwrap()).unwrap();
        let id = doc.get("id").and_then(Json::as_f64).unwrap();
        let token = doc.get("token").and_then(Json::as_str).unwrap();
        let dropped = [
            "null",
            r#"{"job":1,"shard":0,"epoch":0}"#,
            r#"{"job":1e999,"shard":-1,"epoch":0.5}"#,
        ][report as usize];
        let body = format!(r#"{{"token":"{token}","dropped":{dropped}}}"#);
        status(&state, &post(&format!("/v1/workers/{id}/heartbeat"), &mutate(&body, &edits)));
    }

    #[test]
    fn mutated_dispatches_answer_2xx_or_4xx(
        (shard, epoch, start_row) in (0usize..3, 0u64..3, 0usize..6),
        edits in mutations(),
    ) {
        let state = cluster_state(ClusterConfig {
            worker_of: Some("127.0.0.1:9".to_string()),
            ..ClusterConfig::default()
        });
        let grid = api::parse_grid(&Json::parse(GRID).unwrap()).unwrap();
        let body = dispatch_body(&Dispatch {
            worker: 1,
            addr: "127.0.0.1:9".to_string(),
            job: 1,
            shard,
            count: 2,
            epoch,
            start_row,
            grid_json: GRID.to_string(),
            grid_fingerprint: grid.fingerprint(),
            options_fingerprint: state.options.output_fingerprint(),
        });
        status(&state, &post("/v1/shards/run", &mutate(&body, &edits)));
    }
}
