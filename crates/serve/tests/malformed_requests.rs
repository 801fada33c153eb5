//! Property suite: the server survives arbitrary and adversarial input.
//!
//! Every case drives [`ayd_serve::serve_chunks`] with in-memory bytes and
//! asserts the two safety properties of the serving contract: the
//! connection handler never panics, and whenever it answers at all, the
//! answer is a sequence of well-formed `HTTP/1.1 <code> <reason>` responses
//! with accurate `content-length` framing. The whole input in one chunk is
//! the one-shot reference the split and dripped deliveries must match.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use ayd_serve::{serve_chunks, AppState, ServerConfig};
use proptest::prelude::*;

fn test_state() -> Arc<AppState> {
    AppState::new(&ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    })
}

/// Feeds bytes to a fresh connection in the given pieces, returning
/// everything it wrote.
fn drive_chunks(state: &Arc<AppState>, chunks: &[&[u8]]) -> Vec<u8> {
    let shutdown = AtomicBool::new(false);
    serve_chunks(chunks, state, &shutdown)
}

/// Feeds bytes to a fresh connection as one read, returning everything it
/// wrote.
fn drive(state: &Arc<AppState>, input: &[u8]) -> Vec<u8> {
    drive_chunks(state, &[input])
}

/// Splits raw connection output into individual responses using the
/// `content-length` framing, panicking on any violation.
fn assert_well_formed(output: &[u8]) -> Vec<u16> {
    let mut statuses = Vec::new();
    let mut rest = output;
    while !rest.is_empty() {
        let text = std::str::from_utf8(rest).expect("response head is UTF-8");
        assert!(
            text.starts_with("HTTP/1.1 "),
            "response does not start with a status line: {:?}",
            &text[..text.len().min(60)]
        );
        let line_end = text.find("\r\n").expect("status line is CRLF-terminated");
        let status_line = &text[..line_end];
        let code: u16 = status_line
            .split(' ')
            .nth(1)
            .expect("status line has a code")
            .parse()
            .expect("status code is numeric");
        assert!((100..=599).contains(&code), "implausible status {code}");
        statuses.push(code);
        let head_end = text.find("\r\n\r\n").expect("head/body separator present") + 4;
        let head = &text[..head_end];
        let length: usize = head
            .lines()
            .find_map(|line| line.strip_prefix("content-length: "))
            .expect("content-length header present")
            .trim()
            .parse()
            .expect("content-length is numeric");
        assert!(
            head_end + length <= rest.len(),
            "body shorter than declared"
        );
        rest = &rest[head_end + length..];
    }
    statuses
}

/// The shared corpus of deliberately malformed requests.
fn adversarial_corpus() -> Vec<Vec<u8>> {
    let huge_target = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(100_000));
    let many_headers = {
        let mut s = String::from("GET /healthz HTTP/1.1\r\n");
        for i in 0..500 {
            s.push_str(&format!("x-h{i}: v\r\n"));
        }
        s.push_str("\r\n");
        s
    };
    vec![
        b"GET\r\n\r\n".to_vec(),
        b"\r\n\r\n".to_vec(),
        b"POST /v1/optimize HTTP/1.1\r\ncontent-length: -5\r\n\r\n".to_vec(),
        b"POST /v1/optimize HTTP/1.1\r\ncontent-length: 99999999999\r\n\r\n".to_vec(),
        b"POST /v1/optimize HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc".to_vec(),
        b"POST /v1/optimize HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n".to_vec(),
        b"GET /healthz HTTP/9.9\r\n\r\n".to_vec(),
        b"G\x00T / HTTP/1.1\r\n\r\n".to_vec(),
        b"PATCH /v1/optimize HTTP/1.1\r\n\r\n".to_vec(),
        b"GET /../etc/passwd HTTP/1.1\r\n\r\n".to_vec(),
        b"OPTIONS * HTTP/1.1\r\nweird\r\n\r\n".to_vec(),
        huge_target.into_bytes(),
        many_headers.into_bytes(),
        // Pipelined garbage after a valid request.
        b"GET /healthz HTTP/1.1\r\n\r\n\xff\xfe\xfd garbage".to_vec(),
        // An oversized body relative to the configured max.
        {
            let mut s = format!(
                "POST /v1/batch HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                2 << 20
            )
            .into_bytes();
            s.extend(std::iter::repeat_n(b'x', 2 << 20));
            s
        },
    ]
}

/// The corpus, each case delivered in one read.
#[test]
fn adversarial_corpus_always_answers_a_well_formed_status_line() {
    let state = test_state();
    for case in adversarial_corpus() {
        let output = drive(&state, &case);
        assert!(!output.is_empty(), "malformed input must be answered");
        let statuses = assert_well_formed(&output);
        // The final response of a malformed session is always an error (any
        // valid pipelined prefix may have been answered 200 first).
        assert!(
            statuses.last().unwrap() >= &400,
            "expected an error status, got {statuses:?}"
        );
    }
}

/// Dripped input must be answered exactly like the same bytes in one read,
/// no matter how they are framed on the wire. Trace IDs differ per request,
/// so equivalence is on the status-line sequence (which pins response count,
/// codes and framing — `assert_well_formed` already checked the rest).
#[test]
fn byte_at_a_time_reads_match_the_one_shot_path() {
    let state = test_state();
    let mut valid_post = b"POST /v1/optimize HTTP/1.1\r\n".to_vec();
    let body = br#"{"platform":"Hera","scenario":1}"#;
    valid_post.extend_from_slice(format!("content-length: {}\r\n\r\n", body.len()).as_bytes());
    valid_post.extend_from_slice(body);
    let mut cases = adversarial_corpus();
    cases.push(b"GET /healthz HTTP/1.1\r\n\r\n".to_vec());
    cases.push(valid_post);
    for case in cases {
        let one_shot = assert_well_formed(&drive(&state, &case));
        // True byte-at-a-time for ordinary cases; the two >100 KB corpus
        // members get 1 KB drips so the test stays fast in debug builds.
        let step = if case.len() <= 2_048 { 1 } else { 1_024 };
        let pieces: Vec<&[u8]> = case.chunks(step).collect();
        let incremental = assert_well_formed(&drive_chunks(&state, &pieces));
        assert_eq!(
            one_shot,
            incremental,
            "statuses diverge for {:?}... dripped {step} byte(s) at a time",
            &case[..case.len().min(48)]
        );
    }
}

/// Pipelined requests (two valid, one 404) split at **every** byte boundary
/// answer the same status sequence as the whole pipeline in one read.
#[test]
fn split_pipelined_requests_match_the_one_shot_path() {
    let state = test_state();
    let body = br#"{"platform":"Hera","scenario":1}"#;
    let mut pipeline = b"GET /healthz HTTP/1.1\r\n\r\n".to_vec();
    pipeline.extend_from_slice(
        format!(
            "POST /v1/optimize HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    );
    pipeline.extend_from_slice(body);
    pipeline.extend_from_slice(b"GET /v1/no-such-route HTTP/1.1\r\n\r\n");
    let one_shot = assert_well_formed(&drive(&state, &pipeline));
    assert_eq!(one_shot, vec![200, 200, 404]);
    for cut in 0..=pipeline.len() {
        let pieces = [&pipeline[..cut], &pipeline[cut..]];
        let split = assert_well_formed(&drive_chunks(&state, &pieces));
        assert_eq!(one_shot, split, "statuses diverge when split at byte {cut}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Pure fuzz: arbitrary bytes never panic the handler, and any output is
    /// well-formed response framing.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..600)) {
        let state = test_state();
        let output = drive(&state, &bytes);
        assert_well_formed(&output);
    }

    /// Structured fuzz: a method-ish token, a path, header garbage and a body
    /// stitched together with every separator variant.
    #[test]
    fn structured_garbage_always_gets_a_status_line(
        method in prop::collection::vec(64u8..=95, 0..8),
        path_noise in prop::collection::vec(32u8..=126, 0..40),
        header_noise in prop::collection::vec(0u8..=255, 0..120),
        declared_length in 0u64..50_000,
        body in prop::collection::vec(0u8..=255, 0..64),
    ) {
        let state = test_state();
        let mut request = method.clone();
        request.push(b' ');
        request.push(b'/');
        request.extend(&path_noise);
        request.extend_from_slice(b" HTTP/1.1\r\n");
        request.extend(&header_noise);
        request.extend_from_slice(format!("\r\ncontent-length: {declared_length}\r\n\r\n").as_bytes());
        request.extend(&body);
        let output = drive(&state, &request);
        assert_well_formed(&output);
    }

    /// Arbitrary bytes, arbitrarily split in two: the status sequence always
    /// equals the one the same bytes get in one read.
    #[test]
    fn arbitrary_split_points_never_change_the_statuses(
        bytes in prop::collection::vec(0u8..=255, 0..300),
        cut in 0usize..=300,
    ) {
        let state = test_state();
        let one_shot = assert_well_formed(&drive(&state, &bytes));
        let cut = cut.min(bytes.len());
        let pieces = [&bytes[..cut], &bytes[cut..]];
        let split = assert_well_formed(&drive_chunks(&state, &pieces));
        prop_assert_eq!(one_shot, split);
    }
}
