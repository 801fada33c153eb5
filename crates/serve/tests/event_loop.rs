//! Integration suite for the epoll reactors: graceful drain under load,
//! idle-connection tracking, fairness between a pipelining client or a long
//! `/v1/batch` and everyone else on its reactor, a sweep job's file sent
//! across blocked writes and to interleaved fetches, and one read per warm
//! request.
//!
//! Servers here bind `127.0.0.1:0`; the reactors need Linux on x86_64 or
//! aarch64.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ayd_obs::{MemorySink, SpanRecord};
use ayd_serve::{ClientResponse, HttpClient, Json, PrometheusText, Sample, Server, ServerConfig};

const OPTIMIZE_BODY: &str = r#"{"platform":"Hera","scenario":1,"lambda_multiplier":10}"#;

/// Tests that install the process-wide span sink, or load the CPU with a
/// batch, take turns.
static TURNS: Mutex<()> = Mutex::new(());

/// Installs a fresh span sink for the calling test, holding a turn.
fn install_sink() -> (MutexGuard<'static, ()>, Arc<MemorySink>) {
    let guard = TURNS.lock().unwrap_or_else(|poison| poison.into_inner());
    let spans = Arc::new(MemorySink::new());
    ayd_obs::set_sink(Some(spans.clone()));
    (guard, spans)
}

/// A `/v1/batch` body of `n` queries no other test sends (`seed` tells the
/// bodies apart), so each one runs the cold joint search.
fn cold_batch(n: usize, seed: usize) -> String {
    let query = |i: usize| {
        let (scenario, multiplier) = (1 + i % 6, 1.0 + seed as f64 + i as f64 * 4.9e-3);
        format!(
            r#"{{"scenario":{scenario},"failure_model":"weibull:0.7","lambda_multiplier":{multiplier}}}"#
        )
    };
    let queries: Vec<String> = (0..n).map(query).collect();
    format!(r#"{{"queries":[{}]}}"#, queries.join(","))
}

/// Posts `body` to `/v1/batch` from a thread, on a connection of its own.
fn post_batch(addr: &str, body: String) -> JoinHandle<ClientResponse> {
    let addr = addr.to_string();
    std::thread::spawn(move || {
        let mut client = HttpClient::connect(&addr).unwrap();
        client.post_json("/v1/batch", &body).unwrap()
    })
}

/// `ayd_in_flight_requests{endpoint="batch"}`, scraped on a fresh connection.
fn batches_in_flight(addr: &str) -> f64 {
    let batch =
        |s: &&Sample| s.name == "ayd_in_flight_requests" && s.label("endpoint") == Some("batch");
    scrape(addr)
        .samples
        .iter()
        .find(batch)
        .map_or(0.0, |s| s.value)
}

/// Scrapes until a batch shows in flight. A scrape is answered between a
/// batch's slices only if the batch does not hold the reactor, so this
/// fails, rather than spins, once `batch` has finished.
fn await_batch_in_flight<T>(addr: &str, batch: &JoinHandle<T>) {
    while batches_in_flight(addr) < 1.0 {
        assert!(
            !batch.is_finished(),
            "the batch finished before a request sharing its server saw it in flight"
        );
    }
}

/// The spans of the request whose response carried `trace_id`.
fn trace_of<'a>(spans: &'a [SpanRecord], trace_id: &str) -> Vec<&'a SpanRecord> {
    let ours = |s: &&SpanRecord| format!("{:016x}", s.trace) == trace_id;
    spans.iter().filter(ours).collect()
}

/// The one span called `name` in `trace`.
fn only<'a>(trace: &[&'a SpanRecord], name: &str) -> &'a SpanRecord {
    let named: Vec<_> = trace.iter().filter(|s| s.name == name).collect();
    assert_eq!(named.len(), 1, "{} `{name}` spans", named.len());
    named[0]
}

fn boot(
    config: ServerConfig,
) -> (
    ayd_serve::ServeHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind(config).unwrap();
    let handle = server.handle().unwrap();
    let thread = std::thread::spawn(move || server.serve());
    (handle, thread)
}

fn default_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        ..ServerConfig::default()
    }
}

/// A 1-reactor server: every connection shares one reactor's turns.
fn one_reactor() -> ServerConfig {
    ServerConfig {
        threads: 1,
        ..default_config()
    }
}

fn scrape(addr: &str) -> PrometheusText {
    let mut client = HttpClient::connect(addr).unwrap();
    let response = client.get("/metrics", None).unwrap();
    assert_eq!(response.status, 200);
    PrometheusText::parse(&response.body).unwrap()
}

/// How a worker's connection ended. A server may close a keep-alive
/// connection between responses (that is the protocol working), but it must
/// never cut a response off partway — a status line with no body behind it.
enum ConnEnd {
    Clean,
    Truncated(String),
}

fn classify(error: &std::io::Error) -> ConnEnd {
    use std::io::ErrorKind;
    match error.kind() {
        // The far side hung up between requests, or our write raced the
        // close: nothing of a response was delivered, nothing was truncated.
        ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted | ErrorKind::BrokenPipe => {
            ConnEnd::Clean
        }
        ErrorKind::InvalidData if error.to_string().contains("before a status line") => {
            ConnEnd::Clean
        }
        // Anything else — EOF inside headers or mid-body above all — means a
        // response started arriving and was cut off.
        _ => ConnEnd::Truncated(error.to_string()),
    }
}

/// Regression test for the drain path: shutting the server down while
/// clients hammer it must never truncate a response that has started going
/// out. Workers run until the server disappears; every connection must end
/// either after a complete response or before one began.
#[test]
fn shutdown_under_load_leaves_no_truncated_responses() {
    let (handle, thread) = boot(default_config());
    let addr = Arc::new(handle.addr().to_string());

    let mut workers = Vec::new();
    for _ in 0..8 {
        let addr = Arc::clone(&addr);
        workers.push(std::thread::spawn(move || {
            let mut successes = 0usize;
            let mut truncations: Vec<String> = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut client = match HttpClient::connect(&addr) {
                Ok(client) => client,
                Err(_) => return (successes, truncations),
            };
            while Instant::now() < deadline {
                match client.post_json("/v1/optimize", OPTIMIZE_BODY) {
                    Ok(response) => {
                        assert_eq!(response.status, 200);
                        successes += 1;
                    }
                    Err(error) => {
                        if let ConnEnd::Truncated(detail) = classify(&error) {
                            truncations.push(detail);
                            break;
                        }
                        // Clean close: reconnect until the listener is gone.
                        match HttpClient::connect(&addr) {
                            Ok(fresh) => client = fresh,
                            Err(_) => break,
                        }
                    }
                }
            }
            (successes, truncations)
        }));
    }

    // Let the load establish, then pull the rug.
    std::thread::sleep(Duration::from_millis(150));
    handle.shutdown();
    thread.join().unwrap().unwrap();

    let mut total = 0usize;
    for worker in workers {
        let (successes, truncations) = worker.join().unwrap();
        total += successes;
        assert!(
            truncations.is_empty(),
            "responses truncated during shutdown: {truncations:?}"
        );
    }
    assert!(total > 0, "no requests completed before shutdown");
}

/// Idle keep-alive connections (sending nothing) are carried and counted by
/// the server while it keeps answering real requests around them.
#[test]
fn idle_connections_are_tracked_and_served_around() {
    let (handle, thread) = boot(default_config());
    let addr = handle.addr().to_string();

    let idle: Vec<TcpStream> = (0..64)
        .map(|_| TcpStream::connect(&addr).unwrap())
        .collect();

    // Accepts land asynchronously; poll the gauge until it sees all of them.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut open = 0.0;
    while Instant::now() < deadline {
        open = scrape(&addr).value("ayd_open_connections").unwrap();
        if open >= idle.len() as f64 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        open >= idle.len() as f64,
        "gauge says {open} open connections, {} idle ones are held",
        idle.len()
    );

    // Real work flows normally around the idle herd.
    let mut client = HttpClient::connect(&addr).unwrap();
    let response = client.post_json("/v1/optimize", OPTIMIZE_BODY).unwrap();
    assert_eq!(response.status, 200);

    // Every open connection was accepted by exactly one acceptor, and the
    // per-acceptor counters account for all of them.
    let metrics = scrape(&addr);
    let accepts: f64 = metrics
        .samples
        .iter()
        .filter(|s| s.name == "ayd_accepts_total")
        .map(|s| s.value)
        .sum();
    let connections = metrics.value("ayd_connections_total").unwrap();
    assert_eq!(accepts, connections);
    assert!(accepts >= 1.0 + idle.len() as f64, "accepts {accepts}");

    drop(idle);
    handle.shutdown();
    thread.join().unwrap().unwrap();
}

/// Reads one response off `reader`: its head (status line and headers, up
/// to the blank line) and its body.
fn read_response(reader: &mut impl BufRead) -> (String, Vec<u8>) {
    let mut head = String::new();
    while !head.ends_with("\r\n\r\n") {
        let read = reader.read_line(&mut head).unwrap();
        assert!(read > 0, "the connection closed mid-response: {head:?}");
    }
    let mut body = vec![0; header(&head, "content-length").parse().unwrap()];
    reader.read_exact(&mut body).unwrap();
    (head, body)
}

/// A header's value in a response head (empty when absent).
fn header<'a>(head: &'a str, name: &str) -> &'a str {
    let value = |line: &'a str| line.strip_prefix(name)?.strip_prefix(": ");
    head.lines().find_map(value).unwrap_or_default()
}

/// The benchmark's 27,648-cell sweep grid as a `/v1/sweep` body: its CSV
/// (4.5 MB) is larger than the loopback socket buffers.
const LARGE_SWEEP_BODY: &str = concat!(
    r#"{"platforms":["Hera","Atlas","Coastal","Coastal SSD"],"scenarios":[1,2,3,4,5,6],"#,
    r#""profiles":["amdahl:0.1","powerlaw:0.8","gustafson:0.05","perfect"],"#,
    r#""failure_models":["exp","weibull:0.7"],"lambda_multipliers":[1,2,5,10,20,50],"#,
    r#""processors":[128,256,512,1024,2048,4096],"pattern_lengths":[900,1800,3600,7200]}"#
);

/// A finished job's CSV is sent from the job's file, after the head the
/// connection buffered. Fetched twice on one keep-alive connection, with a
/// `GET /healthz` pipelined behind the fetches and nothing read until the
/// server's writes have blocked, both copies must be the engine's bytes and
/// the health answer must arrive intact after them: each blocked `sendfile`
/// resumes on `EPOLLOUT` where it stopped, and the next request is answered
/// only once the file is out. Two more fetches on two connections, read in
/// turns, must each be the engine's bytes too.
#[test]
fn a_finished_csv_larger_than_the_socket_buffers_is_fetched_twice_intact() {
    let (handle, thread) = boot(one_reactor());
    let addr = handle.addr().to_string();
    let mut client = HttpClient::connect(&addr).unwrap();
    let accepted = client.post_json("/v1/sweep", LARGE_SWEEP_BODY).unwrap();
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let id = Json::parse(&accepted.body)
        .unwrap()
        .get("id")
        .unwrap()
        .as_f64()
        .unwrap() as u64;
    let status = loop {
        let poll = client
            .get(&format!("/v1/sweep/{id}"), Some("application/json"))
            .unwrap();
        let doc = Json::parse(&poll.body).unwrap();
        let status = doc
            .get("status")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        if status != "running" {
            break status;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status, "done");

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let fetch = format!("GET /v1/sweep/{id} HTTP/1.1\r\nhost: t\r\naccept: text/csv\r\n\r\n");
    let pipelined = format!("{fetch}{fetch}GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n");
    stream.write_all(pipelined.as_bytes()).unwrap();
    // Read nothing yet: the first CSV fills the socket buffers and its write
    // blocks.
    std::thread::sleep(Duration::from_millis(200));
    let mut reader = BufReader::new(stream);
    let (first_head, first) = read_response(&mut reader);
    let (second_head, second) = read_response(&mut reader);
    let (health_head, health) = read_response(&mut reader);
    for head in [&first_head, &second_head, &health_head] {
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
        assert_eq!(header(head, "connection"), "keep-alive");
    }
    assert!(header(&first_head, "content-type").starts_with("text/csv"));
    assert!(first.len() > 4 << 20, "{} bytes", first.len());
    let expected = ayd_serve::client::engine_sweep_csv(LARGE_SWEEP_BODY).unwrap();
    assert!(first == expected.as_bytes(), "the first fetch differs");
    assert!(second == expected.as_bytes(), "the second fetch differs");
    let health = Json::parse(std::str::from_utf8(&health).unwrap()).unwrap();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));

    // Two fetches on two connections, read in turns a piece at a time: each
    // connection sends the one file from an offset of its own.
    let mut fetches: Vec<(TcpStream, Vec<u8>)> = (0..2)
        .map(|_| {
            let mut stream = TcpStream::connect(&addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            stream.write_all(fetch.as_bytes()).unwrap();
            (stream, Vec::new())
        })
        .collect();
    let complete = |got: &[u8]| {
        let end = got.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
        let head = std::str::from_utf8(&got[..end]).unwrap();
        let length: usize = header(head, "content-length").parse().unwrap();
        (got.len() == end + length).then(|| got[end..].to_vec())
    };
    let mut piece = vec![0; 16 << 10];
    while fetches.iter().any(|(_, got)| complete(got).is_none()) {
        for (stream, got) in &mut fetches {
            if complete(got).is_none() {
                let read = stream.read(&mut piece).unwrap();
                assert!(read > 0, "a fetch closed after {} bytes", got.len());
                got.extend_from_slice(&piece[..read]);
            }
        }
    }
    for (_, got) in &fetches {
        assert!(
            complete(got).unwrap() == expected.as_bytes(),
            "an interleaved fetch differs"
        );
    }

    drop(reader);
    handle.shutdown();
    thread.join().unwrap().unwrap();
}

/// A connection gets one request answered per reactor turn, so a client
/// pipelining thousands of requests cannot hold its reactor: on a 1-reactor
/// server, client B's one request is answered while client A, pipelining
/// 2,000 warm queries, gets only a handful of replies. The count comes from
/// the server's own request spans (A's requests it started answering between
/// B's send and B's answer), so a client thread the scheduler runs late
/// cannot inflate it.
#[test]
fn a_pipelining_client_cannot_hold_its_reactor() {
    const PIPELINED: usize = 2_000;
    let (handle, thread) = boot(one_reactor());
    let addr = handle.addr().to_string();
    let (_sink, spans) = install_sink();
    // B connects and warms the cache first: every request below is a hit,
    // and B's connection is already accepted.
    let mut b = HttpClient::connect(&addr).unwrap();
    assert_eq!(
        b.post_json("/v1/optimize", OPTIMIZE_BODY).unwrap().status,
        200
    );

    let a = TcpStream::connect(&addr).unwrap();
    let replies = Arc::new(AtomicUsize::new(0));
    let reader = {
        let stream = a.try_clone().unwrap();
        let replies = Arc::clone(&replies);
        std::thread::spawn(move || {
            let mut stream = BufReader::new(stream);
            let mut traces = HashSet::new();
            for _ in 0..PIPELINED {
                let (head, _) = read_response(&mut stream);
                assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
                traces.insert(header(&head, "x-ayd-trace-id").to_string());
                replies.fetch_add(1, Ordering::SeqCst);
            }
            traces
        })
    };
    let writer = {
        let mut stream = a;
        let request = format!(
            "POST /v1/optimize HTTP/1.1\r\ncontent-length: {}\r\n\r\n{OPTIMIZE_BODY}",
            OPTIMIZE_BODY.len()
        );
        std::thread::spawn(move || stream.write_all(request.repeat(PIPELINED).as_bytes()))
    };

    // Once A's pipeline is being answered, B sends its request; a marker
    // span stamps the send on the server's span clock.
    let deadline = Instant::now() + Duration::from_secs(30);
    while replies.load(Ordering::SeqCst) < 16 {
        assert!(Instant::now() < deadline, "A's pipeline is not answered");
        std::thread::sleep(Duration::from_millis(1));
    }
    ayd_obs::root_span("b_sends", ayd_obs::fresh_trace_id()).finish();
    let response = b.post_json("/v1/optimize", OPTIMIZE_BODY).unwrap();
    assert_eq!(response.status, 200);
    writer.join().unwrap().unwrap();
    let a_traces = reader.join().unwrap();
    ayd_obs::set_sink(None);

    let spans = spans.take();
    let sent = spans.iter().find(|s| s.name == "b_sends").unwrap().start_ns;
    let answered = only(&trace_of(&spans, &response.trace_id), "request").start_ns;
    let a_answered = |from: u64, to: u64| {
        spans
            .iter()
            .filter(|s| s.name == "request" && (from..to).contains(&s.start_ns))
            .filter(|s| a_traces.contains(&format!("{:016x}", s.trace)))
            .count()
    };
    assert!(
        a_answered(sent, u64::MAX) >= 64,
        "A's pipeline was all but answered before B's request; nothing was tested"
    );
    let during = a_answered(sent, answered);
    assert!(
        during < 64,
        "A got {during} replies between B's send and B's reply"
    );

    drop(b);
    handle.shutdown();
    thread.join().unwrap().unwrap();
}

/// A `/v1/batch` is evaluated one slice of 8 queries per turn, so a long one
/// cannot hold its reactor either: on a 1-reactor server, client B's warm
/// `/v1/optimize` and `/metrics` scrape are answered while client A's cold
/// 10,000-query batch (about 1 s in a debug build) is still being
/// evaluated. The ordering comes from the server's own spans, so no
/// wall-clock bound is involved.
#[test]
fn a_long_batch_cannot_hold_its_reactor() {
    let (_sink, spans) = install_sink();
    let (handle, thread) = boot(one_reactor());
    let addr = handle.addr().to_string();
    // B connects and warms the cache first: its optimize below is a hit.
    let mut b = HttpClient::connect(&addr).unwrap();
    b.post_json("/v1/optimize", OPTIMIZE_BODY).unwrap();
    let a = post_batch(&addr, cold_batch(10_000, 0));
    await_batch_in_flight(&addr, &a);
    ayd_obs::root_span("b_sends", ayd_obs::fresh_trace_id()).finish();
    let answered = b.post_json("/v1/optimize", OPTIMIZE_BODY).unwrap();
    let in_flight = batches_in_flight(&addr);
    let batch = a.join().unwrap();
    ayd_obs::set_sink(None);
    assert_eq!((answered.status, batch.status), (200, 200));
    assert!(batch.body.starts_with(r#"{"count":10000,"#));

    let spans = spans.take();
    let sent = spans.iter().find(|s| s.name == "b_sends").unwrap().start_ns;
    let a_trace = trace_of(&spans, &batch.trace_id);
    let end_ns = |s: &SpanRecord| s.start_ns + s.duration_ns;
    let a_end = end_ns(only(&a_trace, "request"));
    let b_request = only(&trace_of(&spans, &answered.trace_id), "request");
    assert!(
        end_ns(only(&a_trace, "route")) < sent && sent < a_end,
        "B did not send while A's batch was being evaluated; nothing was tested"
    );
    assert!(end_ns(b_request) < a_end, "B's request ended after A's");
    let slices_between = a_trace
        .iter()
        .filter(|s| s.name == "evaluate" && (sent..b_request.start_ns).contains(&s.start_ns))
        .count();
    assert!(
        slices_between <= 2,
        "{slices_between} of A's slices started between B's send and B's request"
    );
    assert_eq!(in_flight, 1.0, "the scrape after B's request saw no batch");

    handle.shutdown();
    thread.join().unwrap().unwrap();
}

/// Two batches interleaved slice by slice on one reactor each trace as one
/// request: one `request`, `parse`, `route` and `render`, plus one
/// `evaluate` per slice parented to the batch's own `request`, however many
/// turns of the other batch fell in between.
#[test]
fn interleaved_batches_each_trace_as_one_request() {
    let (_sink, spans) = install_sink();
    let (handle, thread) = boot(one_reactor());
    let addr = handle.addr().to_string();
    let (long, short) = (403, 45);
    let x = post_batch(&addr, cold_batch(long, 1));
    await_batch_in_flight(&addr, &x);
    let y = post_batch(&addr, cold_batch(short, 2)).join().unwrap();
    let x = x.join().unwrap();
    ayd_obs::set_sink(None);

    let spans = spans.take();
    let slice_starts = |response: &ClientResponse, n: usize| {
        assert_eq!(response.status, 200);
        assert!(response.body.starts_with(&format!(r#"{{"count":{n},"#)));
        let trace = trace_of(&spans, &response.trace_id);
        let request = only(&trace, "request");
        for stage in ["parse", "route", "render"] {
            assert_eq!(only(&trace, stage).parent, request.id, "{stage}");
        }
        let slices: Vec<&&SpanRecord> = trace.iter().filter(|s| s.name == "evaluate").collect();
        assert_eq!(slices.len(), n.div_ceil(8));
        assert!(slices.iter().all(|s| s.parent == request.id));
        assert_eq!(trace.len(), 4 + slices.len(), "spans of another request");
        slices.iter().map(|s| s.start_ns).collect::<Vec<u64>>()
    };
    let (x_slices, y_slices) = (slice_starts(&x, long), slice_starts(&y, short));
    let x_turns = x_slices[0]..x_slices[x_slices.len() - 1];
    assert!(
        y_slices.iter().any(|start| x_turns.contains(start)),
        "the batches never interleaved; nothing was tested"
    );

    handle.shutdown();
    thread.join().unwrap().unwrap();
}

/// Shutdown drains a batch in the middle of its slices instead of closing
/// its connection: the client still gets the whole `200` with every result.
/// The batch was in flight before shutdown began (a scrape saw it), and its
/// `connection: close` shows it finished after.
#[test]
fn shutdown_finishes_a_batch_in_flight() {
    const QUERIES: usize = 2_000;
    let _turn = TURNS.lock().unwrap_or_else(|poison| poison.into_inner());
    let (handle, thread) = boot(default_config());
    let addr = handle.addr().to_string();
    let body = cold_batch(QUERIES, 3);
    let mut a = TcpStream::connect(&addr).unwrap();
    let request = format!(
        "POST /v1/batch HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let a = std::thread::spawn(move || {
        a.write_all(request.as_bytes()).unwrap();
        read_response(&mut BufReader::new(a))
    });
    await_batch_in_flight(&addr, &a);
    handle.shutdown();

    let (head, body) = a.join().unwrap();
    assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
    assert_eq!(header(&head, "connection"), "close");
    let doc = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
    let count = doc.get("count").and_then(Json::as_f64);
    assert_eq!(count, Some(QUERIES as f64));
    let results = doc.get("results").and_then(Json::as_array).unwrap();
    assert_eq!(results.len(), QUERIES);
    thread.join().unwrap().unwrap();
}

/// The request line and headers of a warm `/v1/optimize`, sent in one
/// write.
fn optimize_request() -> String {
    format!(
        "POST /v1/optimize HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n{OPTIMIZE_BODY}",
        OPTIMIZE_BODY.len()
    )
}

/// Set in the environment of a child copy of this test binary that runs
/// [`reactor_child_process`] as a server.
const CHILD: &str = "AYD_EVENT_LOOP_CHILD";

/// The server of [`a_warm_request_reads_its_socket_once`], run in a child
/// copy of this test binary so that its reactor thread's I/O counters count
/// its requests alone: with [`CHILD`] set, it serves on one reactor, prints
/// its address and serves until its stdin closes. Run plainly, it returns.
#[test]
fn reactor_child_process() {
    if std::env::var_os(CHILD).is_none() {
        return;
    }
    let (handle, thread) = boot(one_reactor());
    println!("{CHILD} {}", handle.addr());
    std::io::stdout().flush().unwrap();
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    handle.shutdown();
    thread.join().unwrap().unwrap();
}

/// Kills the child server even when an assertion panics.
struct ChildServer(Child);

impl Drop for ChildServer {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The `read` calls the reactor threads of process `pid` have made: their
/// summed `syscr` (`/proc/<pid>/task/<tid>/io`).
fn reactor_reads(pid: u32) -> u64 {
    let mut reads = 0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).unwrap() {
        let task = task.unwrap().path();
        let name = std::fs::read_to_string(task.join("comm")).unwrap_or_default();
        if !name.starts_with("ayd-reactor-") {
            continue;
        }
        let io = std::fs::read_to_string(task.join("io")).unwrap();
        let syscr = io.lines().find_map(|line| line.strip_prefix("syscr: "));
        reads += syscr.unwrap().trim().parse::<u64>().unwrap();
    }
    reads
}

/// With edge-triggered readiness, a read shorter than the reactor's buffer
/// means the socket is drained (epoll(7)), so a warm keep-alive request
/// sent in one write costs its reactor one `read`: 1,000 of them raise the
/// reactor's `syscr` by 1,000, where reading on to `EAGAIN` made it 2,000.
#[test]
fn a_warm_request_reads_its_socket_once() {
    let mut child = ChildServer(
        Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "reactor_child_process", "--nocapture"])
            .args(["--test-threads", "1"])
            .env(CHILD, "1")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap(),
    );
    // The harness may print ahead of the address on its line.
    let mut output = BufReader::new(child.0.stdout.take().unwrap());
    let announced = (&mut output)
        .lines()
        .find_map(|line| Some(line.ok()?.split_once(CHILD)?.1.trim().to_string()));
    let addr = announced.expect("the child server announces its address");
    let pid = child.0.id();
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let request = optimize_request();
    // The first request is accepted and computes the answer.
    stream.write_all(request.as_bytes()).unwrap();
    read_response(&mut reader);
    let before = reactor_reads(pid);
    for _ in 0..1_000 {
        stream.write_all(request.as_bytes()).unwrap();
        let (head, _) = read_response(&mut reader);
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
    }
    let reads = reactor_reads(pid) - before;
    drop(child.0.stdin.take());
    // Read the harness's report to its end, so that its writes never fail.
    std::io::copy(&mut output, &mut std::io::sink()).unwrap();
    assert!(child.0.wait().unwrap().success());
    assert_eq!(reads, 1_000, "reads for 1,000 warm requests");
}

/// A request sent together with the end of the client's stream (a write-
/// side shutdown) is answered, and then the connection closes: the event
/// that reports the hang-up drains on to the EOF behind the request.
#[test]
fn a_request_sent_with_a_write_shutdown_is_answered_then_closed() {
    let (handle, thread) = boot(one_reactor());
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(optimize_request().as_bytes()).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut reader = BufReader::new(stream);
    let (head, body) = read_response(&mut reader);
    assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
    assert!(Json::parse(std::str::from_utf8(&body).unwrap()).is_ok());
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "{} bytes after the answer", rest.len());
    handle.shutdown();
    thread.join().unwrap().unwrap();
}
