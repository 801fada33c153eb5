//! Integration suite for the epoll reactors: graceful drain under load,
//! idle-connection tracking, and fairness between a pipelining client and
//! everyone else on its reactor.
//!
//! Servers here bind `127.0.0.1:0`; the reactors need Linux on x86_64 or
//! aarch64.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ayd_obs::{MemorySink, SpanRecord};
use ayd_serve::{HttpClient, PrometheusText, Server, ServerConfig};

const OPTIMIZE_BODY: &str = r#"{"platform":"Hera","scenario":1,"lambda_multiplier":10}"#;

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

/// Reads one response off `reader`; returns its status and trace ID.
fn read_response(reader: &mut impl BufRead) -> (u16, String) {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let status = line.split(' ').nth(1).unwrap().parse().unwrap();
    let (mut length, mut trace) = (0, String::new());
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if line == "\r\n" {
            break;
        }
        if let Some(value) = line.strip_prefix("content-length: ") {
            length = value.trim().parse().unwrap();
        }
        if let Some(value) = line.strip_prefix("x-ayd-trace-id: ") {
            trace = value.trim().to_string();
        }
    }
    reader.read_exact(&mut vec![0; length]).unwrap();
    (status, trace)
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
    let (handle, thread) = boot(ServerConfig {
        threads: 1,
        ..default_config()
    });
    let addr = handle.addr().to_string();
    let spans = Arc::new(MemorySink::new());
    ayd_obs::set_sink(Some(spans.clone()));
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
                let (status, trace) = read_response(&mut stream);
                assert_eq!(status, 200);
                traces.insert(trace);
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
    let hex = |s: &SpanRecord| format!("{:016x}", s.trace);
    let start_of = |name: &str, trace: Option<&str>| {
        let span = spans
            .iter()
            .find(|s| s.name == name && trace.is_none_or(|t| hex(s) == t));
        span.expect("the span is recorded").start_ns
    };
    let sent = start_of("b_sends", None);
    let answered = start_of("request", Some(&response.trace_id));
    let a_answered = |from: u64, to: u64| {
        spans
            .iter()
            .filter(|s| s.name == "request" && (from..to).contains(&s.start_ns))
            .filter(|s| a_traces.contains(&hex(s)))
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
