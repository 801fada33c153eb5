//! Subprocess integration test of `reproduce serve` (like `cli_output.rs`):
//! boots the real binary on an ephemeral port, then drives one `/v1/optimize`
//! and one `/v1/sweep` round-trip through the same checks `loadgen --check`
//! runs ([`ayd_serve::smoke_check`]), and pins the served sweep CSV to the
//! golden rows of `tests/golden_sweep_csv.rs`.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use ayd_serve::{HttpClient, Json};

/// Kills the server process even when an assertion panics.
struct ServerProcess(Child);

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Starts `reproduce serve` on an ephemeral port and returns (guard, addr).
/// The startup announcement must name the address, then the serving core.
fn start_server() -> (ServerProcess, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("reproduce serve starts");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("server announces its address");
    let addr = line
        .trim()
        .strip_prefix("ayd-serve listening on http://")
        .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
        .to_string();
    let mut model_line = String::new();
    reader
        .read_line(&mut model_line)
        .expect("server announces its io model");
    let model = model_line
        .trim()
        .strip_prefix("ayd-serve io model: ")
        .unwrap_or_else(|| panic!("unexpected announcement: {model_line:?}"))
        .to_string();
    assert_eq!(model, "event", "announced io model");
    (ServerProcess(child), addr)
}

#[test]
fn serve_round_trips_match_the_offline_engine_and_the_golden_rows() {
    let (_server, addr) = start_server();

    // The full loadgen --check suite: /healthz, /v1/optimize bit-identical to
    // the offline Evaluator, /v1/sweep byte-identical to the in-process sweep
    // engine, /metrics parsable.
    ayd_serve::smoke_check(&addr).expect("smoke check against the subprocess");

    // Additionally pin the served sweep CSV to the same literal rows the
    // golden test pins, so a drift in either layer fails loudly here too.
    let mut client = HttpClient::connect(&addr).expect("connect");
    let accepted = client
        .post_json("/v1/sweep", ayd_serve::client::GOLDEN_SWEEP_BODY)
        .expect("submit sweep");
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let id = Json::parse(&accepted.body)
        .expect("submit response is JSON")
        .get("id")
        .and_then(Json::as_f64)
        .expect("submit response has an id") as u64;
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    let csv = loop {
        let poll = client
            .get(&format!("/v1/sweep/{id}"), Some("text/csv"))
            .expect("poll sweep");
        assert_eq!(poll.status, 200);
        if poll.content_type.starts_with("text/csv") {
            break poll.body;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sweep did not finish in time"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 1 + 8, "2 scenarios × 2 multipliers × 2 P");
    assert_eq!(lines[0], ayd_sweep::CSV_HEADER);
    assert_eq!(
        lines[1],
        "Hera,1,0.1,amdahl,0.1,exp,,0.0000000169,1,256,3600,256,6551.836818431605,\
0.10923732682928215,0.10874209350020253,,,256,6469.2375895385285,0.10923689384439697,,,\
0.11018235679785451,,,,"
    );
    assert_eq!(
        lines[8],
        "Hera,3,0.1,amdahl,0.1,exp,,0.000000169,10,1024,3600,1024,1430.5273600525854,\
0.17749510125302212,0.14536209184958257,,,1024,1280.6146752871186,0.17710358937015436,,,\
0.22113748594843097,,,,"
    );
}

#[test]
fn serve_enforces_the_request_contract_over_the_wire() {
    let (_server, addr) = start_server();
    let mut client = HttpClient::connect(&addr).expect("connect");

    // Wrong method and unknown route map to definite statuses.
    let response = client.get("/v1/optimize", None).expect("405 round trip");
    assert_eq!(response.status, 405);
    let response = client.get("/nope", None).expect("404 round trip");
    assert_eq!(response.status, 404);
    // Bad JSON and invalid parameters are 400s with an error document.
    let response = client
        .post_json("/v1/optimize", "{broken")
        .expect("400 round trip");
    assert_eq!(response.status, 400);
    assert!(response.body.contains("\"error\""));
    let response = client
        .post_json("/v1/optimize", r#"{"platform":"Nope"}"#)
        .expect("400 round trip");
    assert_eq!(response.status, 400);
    assert!(response.body.contains("unknown platform"));
    // Invalid model parameters come back as structured field + reason JSON.
    let response = client
        .post_json("/v1/optimize", r#"{"alpha":1.5}"#)
        .expect("structured 400 round trip");
    assert_eq!(response.status, 400);
    assert!(
        response.body.contains("\"field\":\"alpha\""),
        "{}",
        response.body
    );
    let response = client
        .post_json(
            "/v1/optimize",
            r#"{"profile":{"kind":"powerlaw","sigma":1.7}}"#,
        )
        .expect("structured 400 round trip");
    assert_eq!(response.status, 400);
    assert!(
        response.body.contains("\"field\":\"sigma\""),
        "{}",
        response.body
    );
    // The connection stays usable after errors (keep-alive survives 4xx), and
    // extension profiles answer with their exact round-trip spec.
    let response = client
        .post_json(
            "/v1/optimize",
            r#"{"platform":"Coastal","scenario":5,"profile":"powerlaw:0.8"}"#,
        )
        .expect("200 round trip");
    assert_eq!(response.status, 200);
    assert!(response.body.contains("\"numerical\""));
    assert!(
        response.body.contains("\"spec\":\"powerlaw:0.8\""),
        "{}",
        response.body
    );
}
