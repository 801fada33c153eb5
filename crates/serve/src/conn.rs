//! Per-connection request handling: incremental parsing over partial reads
//! and `answer_next`, the one function that turns a buffered request into
//! response bytes.
//!
//! A reactor receives bytes in arbitrary chunks (a byte at a time from a
//! slow client, several pipelined requests in one burst from a fast one). To
//! keep the determinism contract — the exact status lines, limits and error
//! strings of [`crate::http::parse_request`] — this module does **not**
//! reimplement the grammar. It accumulates bytes and re-runs the one-shot
//! parser over the buffered prefix, classifying "the bytes so far are a
//! proper prefix of a request" apart from "the bytes so far can never become
//! a request". The classification is exact because the one-shot parser has a
//! closed set of incomplete-data errors (`ConnectionClosed`, truncated
//! line/headers/body), all of which are terminal only at end-of-stream.
//!
//! Parse attempts are gated so drip-fed input stays cheap and bounded:
//! re-parses fire only when the header section is complete (a blank line has
//! been scanned), at end-of-stream, or when the buffer exceeds the maximum
//! possible header-section size the parser's head limits imply — at which
//! point the one-shot parser is guaranteed to return a definite over-limit
//! error, so memory per connection stays bounded no matter what the peer
//! sends.
//!
//! `answer_next` serves the reactor and the socket-free [`serve_chunks`]
//! harness alike, so both answer the same bytes and record the same
//! `request → parse → route → render` spans. A `/v1/batch` takes several
//! calls: one to parse it, one per slice of queries (the last one also writes
//! the response), with the request held in between as a `Pending`.
//!
//! A response goes into the connection's `Outgoing`: its head and any owned
//! body into one buffer, so a small answer is one `write`, and a shared body
//! (a finished sweep's CSV) beside it, sent from its `Arc` without a copy.

use std::io::Cursor;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::api::{dispatch, endpoint, Batch, Routed};
use crate::app::AppState;
use crate::http::{
    parse_request, Limits, ParseError, Request, Response, MAX_HEADERS, MAX_HEADER_LINE,
    MAX_REQUEST_LINE,
};

/// Result of one [`IncrementalParser::poll`].
#[derive(Debug)]
pub enum Poll {
    /// The buffered bytes are a proper prefix of a request; feed more.
    NeedMore,
    /// One complete request, drained from the buffer (pipelined bytes after
    /// it remain buffered for the next poll).
    Ready(Request),
    /// The buffered bytes can never parse, or the stream ended mid-request.
    /// Identical to what the one-shot parser returns on the same bytes.
    Fail(ParseError),
}

/// The largest number of bytes the one-shot parser can consume for a request
/// head (request line + headers + blank line) before it must return an
/// over-limit error. Buffering past this without a complete head means the
/// next parse attempt yields a definite error, never `NeedMore`.
pub(crate) const HEAD_CAP: usize = MAX_REQUEST_LINE + 2 + (MAX_HEADERS + 1) * (MAX_HEADER_LINE + 2);

/// Buffers partial input and yields requests exactly as the one-shot parser
/// would, one [`poll`](IncrementalParser::poll) at a time.
#[derive(Debug, Default)]
pub struct IncrementalParser {
    buffer: Vec<u8>,
    /// Next unscanned byte (blank-line search resumes here).
    scan: usize,
    /// Start of the header-section line currently being scanned.
    line_start: usize,
    /// Offset just past the head's terminating blank line, once seen.
    head_end: Option<usize>,
    /// Total bytes (head + declared body) of the in-progress request, once
    /// the head has parsed far enough to know — gates body re-parses.
    total_needed: Option<usize>,
}

impl IncrementalParser {
    /// A parser with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buffer.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (for memory accounting and pause decisions).
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Advances the blank-line scan over newly pushed bytes. The head ends at
    /// the first empty line (CRLF or bare LF), mirroring the parser's
    /// line-by-line reads.
    fn scan_for_head_end(&mut self) {
        while self.scan < self.buffer.len() {
            if self.buffer[self.scan] == b'\n' {
                let mut line = &self.buffer[self.line_start..self.scan];
                if line.last() == Some(&b'\r') {
                    line = &line[..line.len() - 1];
                }
                let next = self.scan + 1;
                if line.is_empty() {
                    self.head_end = Some(next);
                    self.scan = next;
                    return;
                }
                self.line_start = next;
            }
            self.scan += 1;
        }
    }

    /// True when `error` means "a proper prefix of a request" rather than "a
    /// malformed request" — terminal only once the stream has ended. The set
    /// is closed: every other error is invariant under appending bytes.
    fn is_incomplete(error: &ParseError) -> bool {
        matches!(
            error,
            ParseError::ConnectionClosed
                | ParseError::BadRequest("truncated line")
                | ParseError::BadRequest("connection closed inside headers")
                | ParseError::BadRequest("truncated body")
        )
    }

    /// Extracts the declared `Content-Length` from a complete, already
    /// head-validated buffer so body re-parses can be gated on a byte count
    /// instead of firing per chunk. Only called after the one-shot parser has
    /// accepted the head (it failed in the *body* read), so the single
    /// well-formed `content-length` header is guaranteed present-or-absent.
    fn note_body_needed(&mut self, head_end: usize) {
        let head = &self.buffer[..head_end];
        let mut content_length = 0usize;
        for line in head.split(|&b| b == b'\n') {
            let Some(colon) = line.iter().position(|&b| b == b':') else {
                continue;
            };
            if line[..colon].eq_ignore_ascii_case(b"content-length") {
                let value: String = String::from_utf8_lossy(&line[colon + 1..]).into_owned();
                if let Ok(n) = value.trim().parse::<usize>() {
                    content_length = n;
                }
            }
        }
        self.total_needed = Some(head_end + content_length);
    }

    /// Tries to produce the next request from the buffered bytes. `eof` means
    /// the peer's stream has ended — incomplete prefixes then fail exactly as
    /// the one-shot parser fails on the same truncated input.
    pub fn poll(&mut self, limits: &Limits, eof: bool) -> Poll {
        if self.head_end.is_none() {
            self.scan_for_head_end();
        }
        // Gate: only attempt a parse when it can make progress — the head is
        // complete, the stream ended, or the buffer is so large the parser is
        // guaranteed to return an over-limit error.
        let over_cap = self.buffer.len() > HEAD_CAP;
        if self.head_end.is_none() && !eof && !over_cap {
            return Poll::NeedMore;
        }
        if let (Some(needed), false) = (self.total_needed, eof) {
            if self.buffer.len() < needed {
                return Poll::NeedMore;
            }
        }
        let mut cursor = Cursor::new(self.buffer.as_slice());
        match parse_request(&mut cursor, limits) {
            Ok(request) => {
                let consumed = cursor.position() as usize;
                self.buffer.drain(..consumed);
                self.scan = 0;
                self.line_start = 0;
                self.head_end = None;
                self.total_needed = None;
                Poll::Ready(request)
            }
            Err(error) if !eof && Self::is_incomplete(&error) => {
                if error == ParseError::BadRequest("truncated body") {
                    if let (Some(head_end), None) = (self.head_end, self.total_needed) {
                        self.note_body_needed(head_end);
                    }
                }
                Poll::NeedMore
            }
            Err(error) => Poll::Fail(error),
        }
    }
}

/// Upper bound on requests served over one keep-alive connection.
pub(crate) const MAX_REQUESTS_PER_CONNECTION: usize = 100_000;

/// The largest buffer a connection keeps between responses: one that grew
/// past it (a large `/v1/batch` answer) is given back once it drains.
pub(crate) const KEEP_OUT_CAPACITY: usize = 64 * 1024;

/// What a connection owes its peer, in order: `bytes` (response heads and
/// owned bodies), then `shared`, a shared body sent from its `Arc`.
#[derive(Debug, Default)]
pub(crate) struct Outgoing {
    pub(crate) bytes: Vec<u8>,
    pub(crate) shared: Option<Arc<String>>,
}

impl Outgoing {
    /// True when nothing is owed.
    pub(crate) fn is_empty(&self) -> bool {
        self.bytes.is_empty() && self.shared.is_none()
    }

    /// What is still owed once the first `written` bytes went out: the rest
    /// of `bytes`, then of the shared body.
    pub(crate) fn unsent(&self, written: usize) -> &[u8] {
        match written.checked_sub(self.bytes.len()) {
            None => &self.bytes[written..],
            Some(offset) => self
                .shared
                .as_ref()
                .map_or(&[][..], |text| &text.as_bytes()[offset..]),
        }
    }

    /// Forgets everything owed, once it went out. The buffer keeps its
    /// capacity for the next response, unless that grew past
    /// [`KEEP_OUT_CAPACITY`]: then it is dropped, so one large answer does
    /// not pin its memory for the connection's life.
    pub(crate) fn clear(&mut self) {
        if self.bytes.capacity() > KEEP_OUT_CAPACITY {
            self.bytes = Vec::new();
        } else {
            self.bytes.clear();
        }
        self.shared = None;
    }
}

/// The `x-ayd-trace-id` header value: 16 lowercase hex digits, matching the
/// `trace` field of the span JSON lines, so one grep joins a response to its
/// server-side spans.
fn format_trace_id(trace: u64) -> String {
    format!("{trace:016x}")
}

/// What [`answer_next`] did with a connection's buffered bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Answer {
    /// The buffered bytes are a proper prefix of a request: read more.
    NeedMore,
    /// One response was appended and the connection stays open.
    KeepAlive,
    /// The connection ends, after the appended response (a `connection:
    /// close` answer or a malformed request's error) or with nothing
    /// appended (the peer closed between requests).
    Close,
    /// A batch is part-evaluated and held in the connection's [`Pending`]:
    /// call again on a later turn.
    Pending,
}

/// A `/v1/batch` between its parse turn and its last slice. Its request
/// stays open, `request` span included, so the trace and the duration
/// metric bracket every turn the batch takes. Boxed where it is held, so an
/// idle connection pays one pointer for it.
pub(crate) struct Pending {
    batch: Batch,
    request: InFlight,
}

/// Answers the next request buffered in `parser`, adding the response to
/// `out` (whose shared body must be empty): the one place a request becomes
/// response bytes, for the reactor and [`serve_chunks`] alike. Every
/// answered request records one `request` root span with `parse`, `route`
/// and `render` children; `reactor` tags it with the serving reactor's
/// index. `eof` means the peer's stream has ended.
/// While `pending` holds a batch, the call evaluates its next slice instead,
/// and after the last one writes the response.
pub(crate) fn answer_next(
    parser: &mut IncrementalParser,
    pending: &mut Option<Box<Pending>>,
    eof: bool,
    state: &Arc<AppState>,
    shutdown: &AtomicBool,
    reactor: Option<u64>,
    out: &mut Outgoing,
) -> Answer {
    if let Some(mut held) = pending.take() {
        // The slice's `evaluate` span is parented to the batch's own
        // `request`, not to the thread's innermost open span, which between
        // turns may belong to another connection. As around `dispatch`, a
        // panicking slice answers 500 and closes only its own connection.
        let parent = held.request.root.context();
        let stepped = std::panic::catch_unwind(AssertUnwindSafe(|| held.batch.step(state, parent)));
        if let Ok(false) = stepped {
            *pending = Some(held);
            return Answer::Pending;
        }
        let Pending { batch, request } = *held;
        return request.respond(state, stepped.ok().map(|_| batch.finish()), shutdown, out);
    }
    let trace = ayd_obs::fresh_trace_id();
    let mut root = ayd_obs::root_span("request", trace);
    if let Some(reactor) = reactor {
        root.field_u64("reactor", reactor);
    }
    let parse_span = ayd_obs::span("parse");
    let request = match parser.poll(&state.limits, eof) {
        Poll::Ready(request) => request,
        Poll::NeedMore => {
            parse_span.cancel();
            root.cancel();
            return Answer::NeedMore;
        }
        Poll::Fail(error) => {
            let Some((status, reason)) = error.status() else {
                // A clean close or an unreadable peer: no response.
                parse_span.cancel();
                root.cancel();
                return Answer::Close;
            };
            parse_span.finish();
            render_parse_error(&error, status, reason, trace, &mut out.bytes);
            root.field_str("endpoint", "parse_error");
            root.field_u64("status", u64::from(status));
            root.finish();
            state.metrics.observe("parse_error", status, Duration::ZERO);
            return Answer::Close;
        }
    };
    parse_span.finish();
    let started = Instant::now();
    let endpoint = endpoint(&request.method, &request.target);
    state.metrics.request_started(endpoint);
    let route_span = ayd_obs::span("route");
    // A panicking handler must not take the reactor, and every connection on
    // it, down with it: the request gets a 500 and its connection closes.
    let routed = std::panic::catch_unwind(AssertUnwindSafe(|| dispatch(state, &request)));
    route_span.finish();
    let in_flight = InFlight {
        root,
        trace,
        started,
        endpoint,
        wants_close: request.wants_close(),
    };
    match routed {
        Ok(Routed::Batch(batch)) => {
            let request = in_flight;
            *pending = Some(Box::new(Pending { batch, request }));
            Answer::Pending
        }
        Ok(Routed::Done(response)) => in_flight.respond(state, Some(response), shutdown, out),
        Err(_) => in_flight.respond(state, None, shutdown, out),
    }
}

/// A routed request whose response is not written yet: its open `request`
/// span and what its metrics and keep-alive decision need.
struct InFlight {
    root: ayd_obs::Span,
    trace: u64,
    started: Instant,
    /// The request's one label: in-flight gauge, request counter and span.
    endpoint: &'static str,
    wants_close: bool,
}

impl InFlight {
    /// Writes the response (trace-id stamped) into `out` inside a `render`
    /// span, then closes the request's span and metrics. `None` stands for a
    /// panicked handler or batch slice: a 500, and the connection closes.
    fn respond(
        mut self,
        state: &AppState,
        response: Option<Response>,
        shutdown: &AtomicBool,
        out: &mut Outgoing,
    ) -> Answer {
        let keep_alive =
            response.is_some() && !self.wants_close && !shutdown.load(Ordering::SeqCst);
        let response = response.unwrap_or_else(|| {
            Response::error(500, "Internal Server Error", "the request handler panicked")
        });
        let status = response.status;
        let render_span = ayd_obs::child_of(self.root.context(), "render");
        out.shared = response
            .with_header("x-ayd-trace-id", format_trace_id(self.trace))
            .write_owned(&mut out.bytes, keep_alive);
        render_span.finish();
        state.metrics.request_finished(self.endpoint);
        self.root.field_str("endpoint", self.endpoint);
        self.root.field_u64("status", u64::from(status));
        self.root.finish();
        state
            .metrics
            .observe(self.endpoint, status, self.started.elapsed());
        if keep_alive {
            Answer::KeepAlive
        } else {
            Answer::Close
        }
    }
}

/// Renders a malformed request's one error response (trace-id stamped,
/// `connection: close`) inside a `render` span.
fn render_parse_error(
    error: &ParseError,
    status: u16,
    reason: &'static str,
    trace: u64,
    out: &mut Vec<u8>,
) {
    let render_span = ayd_obs::span("render");
    Response::error(status, reason, &format!("{error:?}"))
        .with_header("x-ayd-trace-id", format_trace_id(trace))
        .write_to(out, false)
        .expect("writing to a Vec cannot fail");
    render_span.finish();
}

/// Serves one connection's bytes delivered in arbitrary chunks through
/// `answer_next`, exactly as a reactor serves a socket's reads, and returns
/// everything written back (a shared body appended after its head). This is
/// the socket-free harness: the malformed-request suite drives it byte at a
/// time and whole, and the benchmark replays requests through it.
pub fn serve_chunks(chunks: &[&[u8]], state: &Arc<AppState>, shutdown: &AtomicBool) -> Vec<u8> {
    let mut parser = IncrementalParser::new();
    let mut pending = None;
    let mut out = Outgoing::default();
    let mut served = 0usize;
    let mut feed = chunks.iter();
    let mut eof = false;
    loop {
        let answer = answer_next(
            &mut parser,
            &mut pending,
            eof,
            state,
            shutdown,
            None,
            &mut out,
        );
        if let Some(shared) = out.shared.take() {
            out.bytes.extend_from_slice(shared.as_bytes());
        }
        match answer {
            Answer::NeedMore => match feed.next() {
                Some(chunk) => parser.push(chunk),
                None if eof => return out.bytes,
                None => eof = true,
            },
            Answer::Pending => {}
            Answer::KeepAlive => {
                served += 1;
                if served >= MAX_REQUESTS_PER_CONNECTION {
                    return out.bytes;
                }
            }
            Answer::Close => return out.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> Limits {
        Limits::default()
    }

    fn poll_all(input: &[u8], chunk: usize) -> Vec<Result<Request, ParseError>> {
        let mut parser = IncrementalParser::new();
        let mut results = Vec::new();
        let mut chunks = input.chunks(chunk.max(1));
        let mut eof = false;
        loop {
            match parser.poll(&limits(), eof) {
                Poll::NeedMore => {
                    if eof {
                        return results;
                    }
                    match chunks.next() {
                        Some(c) => parser.push(c),
                        None => eof = true,
                    }
                }
                Poll::Ready(request) => results.push(Ok(request)),
                // A clean close after complete requests is the end of the
                // session, not a result.
                Poll::Fail(ParseError::ConnectionClosed) if !results.is_empty() => {
                    return results;
                }
                Poll::Fail(error) => {
                    results.push(Err(error));
                    return results;
                }
            }
        }
    }

    #[test]
    fn byte_at_a_time_equals_one_shot() {
        let input = b"POST /v1/optimize HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}";
        let one_shot =
            parse_request(&mut Cursor::new(input.to_vec()), &limits()).expect("one-shot parses");
        let incremental = poll_all(input, 1);
        assert_eq!(incremental.len(), 1);
        assert_eq!(incremental[0].as_ref().unwrap(), &one_shot);
    }

    #[test]
    fn pipelined_requests_split_anywhere() {
        let input = b"GET /healthz HTTP/1.1\r\n\r\nPOST /v1/optimize HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcdGET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n";
        for chunk in [1, 2, 3, 7, 64, input.len()] {
            let results = poll_all(input, chunk);
            assert_eq!(results.len(), 3, "chunk={chunk}");
            assert_eq!(results[0].as_ref().unwrap().target, "/healthz");
            assert_eq!(results[1].as_ref().unwrap().body, b"abcd");
            assert_eq!(results[2].as_ref().unwrap().target, "/metrics");
            assert!(results[2].as_ref().unwrap().wants_close());
        }
    }

    #[test]
    fn malformed_input_fails_with_the_one_shot_error() {
        for input in [
            &b"BOGUS\r\n\r\n"[..],
            b"GET / HTTP/2\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 50\r\n\r\nhello",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"GET / HTTP/1.1\r\nbad header\r\n\r\n",
        ] {
            let one_shot = parse_request(&mut Cursor::new(input.to_vec()), &limits()).unwrap_err();
            for chunk in [1, 3, input.len()] {
                let results = poll_all(input, chunk);
                assert_eq!(results.last().unwrap().as_ref().unwrap_err(), &one_shot);
            }
        }
    }

    #[test]
    fn truncated_input_fails_only_at_eof() {
        let input = b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort";
        let mut parser = IncrementalParser::new();
        parser.push(input);
        assert!(matches!(parser.poll(&limits(), false), Poll::NeedMore));
        match parser.poll(&limits(), true) {
            Poll::Fail(error) => {
                assert_eq!(error, ParseError::BadRequest("truncated body"));
            }
            other => panic!("expected failure at eof, got {other:?}"),
        }
    }

    #[test]
    fn clean_close_reports_connection_closed() {
        let mut parser = IncrementalParser::new();
        assert!(matches!(parser.poll(&limits(), false), Poll::NeedMore));
        match parser.poll(&limits(), true) {
            Poll::Fail(ParseError::ConnectionClosed) => {}
            other => panic!("expected ConnectionClosed, got {other:?}"),
        }
    }

    #[test]
    fn oversized_head_errors_without_eof_and_memory_stays_bounded() {
        let mut parser = IncrementalParser::new();
        let cap = HEAD_CAP;
        // A header section that never ends: the parser must fail (431) before
        // buffering much past the cap, even though the stream is still open.
        let mut failed = None;
        let chunk = vec![b'a'; 4096];
        for _ in 0..(cap / chunk.len() + 4) {
            parser.push(b"x-filler: ");
            parser.push(&chunk);
            parser.push(b"\r\n");
            if let Poll::Fail(error) = parser.poll(&limits(), false) {
                failed = Some(error);
                break;
            }
        }
        // The over-long first line is the request line, so the one-shot
        // parser's over-limit error for it is 414.
        assert_eq!(failed, Some(ParseError::TargetTooLong));
        assert!(parser.buffered() <= cap + 2 * chunk.len());
    }

    #[test]
    fn body_gate_waits_for_declared_length() {
        let mut parser = IncrementalParser::new();
        parser.push(b"POST / HTTP/1.1\r\ncontent-length: 5\r\n\r\n");
        assert!(matches!(parser.poll(&limits(), false), Poll::NeedMore));
        assert_eq!(parser.total_needed, Some(parser.buffered() + 5));
        parser.push(b"ab");
        assert!(matches!(parser.poll(&limits(), false), Poll::NeedMore));
        parser.push(b"cde");
        match parser.poll(&limits(), false) {
            Poll::Ready(request) => assert_eq!(request.body, b"abcde"),
            other => panic!("expected a request, got {other:?}"),
        }
    }

    #[test]
    fn outgoing_sends_its_buffer_then_the_shared_body_and_gives_back_a_large_buffer() {
        let mut out = Outgoing::default();
        assert!(out.is_empty());
        out.bytes.extend_from_slice(b"head;");
        out.shared = Some(Arc::new("shared".to_string()));
        let mut sent = Vec::new();
        // Resumes at any offset, across the seam between the two parts.
        for step in [3, 4, 1, 100] {
            let unsent = out.unsent(sent.len());
            sent.extend_from_slice(&unsent[..step.min(unsent.len())]);
        }
        assert_eq!(sent, b"head;shared");
        assert!(out.unsent(sent.len()).is_empty());
        // A drained buffer keeps its capacity for the next response...
        out.clear();
        assert!(out.is_empty());
        assert!(out.bytes.capacity() >= 5);
        out.bytes.resize(KEEP_OUT_CAPACITY, b'x');
        out.clear();
        assert!(out.bytes.capacity() >= KEEP_OUT_CAPACITY);
        // ...unless a response grew it past 64 KiB: then it is given back.
        out.bytes.resize(KEEP_OUT_CAPACITY + 1, b'x');
        out.clear();
        assert_eq!(out.bytes.capacity(), 0);
    }

    #[test]
    fn the_gauge_and_the_counter_share_each_request_label() {
        let state = AppState::new(&crate::ServerConfig {
            threads: 1,
            ..crate::ServerConfig::default()
        });
        let requests: [&[u8]; 3] = [
            b"DELETE /v1/sweep/1 HTTP/1.1\r\n\r\n",
            b"GET /v1/sweep/1/shards/2 HTTP/1.1\r\n\r\n",
            b"GET /metrics HTTP/1.1\r\n\r\n",
        ];
        let output = serve_chunks(&requests, &state, &AtomicBool::new(false));
        let output = String::from_utf8(output).expect("responses are UTF-8");
        let (_, scrape) = output.rsplit_once("\r\n\r\n").expect("a /metrics body");
        for label in ["sweep_cancel", "shard_chunk"] {
            let counted = format!("ayd_requests_total{{endpoint=\"{label}\",");
            let gauged = format!("ayd_in_flight_requests{{endpoint=\"{label}\"}} 0\n");
            assert!(scrape.contains(&counted), "{label} not counted:\n{scrape}");
            assert!(scrape.contains(&gauged), "{label} not gauged:\n{scrape}");
        }
    }
}
