//! Strict, bounded HTTP/1.1 request parsing and response writing.
//!
//! The parser reads exactly one request from a `BufRead`, enforcing hard
//! limits on the request-line length, header count and per-header size
//! (constants) and on the body size ([`Limits`]). Anything out of contract
//! maps to a definite status code (400/405/413/414/431/501) rather than a
//! panic or an unbounded allocation — the malformed-request property suite
//! feeds it arbitrary bytes and asserts the connection always answers with a
//! well-formed status line.

use std::borrow::Cow;
use std::io::{BufRead, Read, Write};
use std::sync::Arc;

use crate::csv_file::CsvFile;

/// Maximum bytes of the request line (method + target + version; above →
/// 414).
pub(crate) const MAX_REQUEST_LINE: usize = 4096;

/// Maximum number of headers (above → 431).
pub(crate) const MAX_HEADERS: usize = 64;

/// Maximum bytes of a single header line (above → 431).
pub(crate) const MAX_HEADER_LINE: usize = 4096;

/// The configurable limit on one parsed request (the request-head limits are
/// fixed constants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum bytes of the body (`Content-Length` above this → 413).
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self { max_body: 1 << 20 }
    }
}

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, upper-case as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target (path + optional query), as received.
    pub target: String,
    /// True when the request was `HTTP/1.0` (whose default is
    /// connection-close) rather than `HTTP/1.1` (default keep-alive).
    pub http1_0: bool,
    /// Headers in order, with lower-cased names and trimmed values.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless a valid `Content-Length` was present).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a (lower-case) header name, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// True when the connection should close after this request: an explicit
    /// `Connection: close`, or an HTTP/1.0 request without an explicit
    /// `Connection: keep-alive` (1.0 defaults to close, 1.1 to keep-alive).
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(value) => value.eq_ignore_ascii_case("close"),
            None => self.http1_0,
        }
    }

    /// True when the client's `Accept` header asks for the given media type.
    pub fn accepts(&self, media_type: &str) -> bool {
        self.header("accept")
            .is_some_and(|v| v.to_ascii_lowercase().contains(media_type))
    }
}

/// Why a request could not be parsed. Each variant maps to one response
/// status via [`ParseError::status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The peer closed the connection before sending a request line — not an
    /// error, just the end of a keep-alive session.
    ConnectionClosed,
    /// Malformed request line, header or body framing → 400.
    BadRequest(&'static str),
    /// Request target longer than the limit → 414.
    TargetTooLong,
    /// Too many headers or an oversized header line → 431.
    HeadersTooLarge,
    /// Declared `Content-Length` above the body limit → 413.
    BodyTooLarge,
    /// `Transfer-Encoding` framing the parser does not implement → 501.
    UnsupportedTransferEncoding,
    /// An I/O error (including timeouts) while reading.
    Io(std::io::ErrorKind),
}

impl ParseError {
    /// The response status and reason phrase for this error (`None` for
    /// [`ParseError::ConnectionClosed`] and I/O errors, which have no
    /// well-defined response).
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            ParseError::ConnectionClosed | ParseError::Io(_) => None,
            ParseError::BadRequest(_) => Some((400, "Bad Request")),
            ParseError::TargetTooLong => Some((414, "URI Too Long")),
            ParseError::HeadersTooLarge => Some((431, "Request Header Fields Too Large")),
            ParseError::BodyTooLarge => Some((413, "Payload Too Large")),
            ParseError::UnsupportedTransferEncoding => Some((501, "Not Implemented")),
        }
    }
}

/// Reads one CRLF- (or bare-LF-) terminated line of at most `limit` bytes,
/// without consuming past it. Returns `None` on a clean EOF before any byte.
fn read_line(
    reader: &mut impl BufRead,
    limit: usize,
    over_limit: ParseError,
) -> Result<Option<String>, ParseError> {
    let mut line: Vec<u8> = Vec::new();
    let mut limited = reader.take(limit as u64 + 2);
    let read = limited
        .read_until(b'\n', &mut line)
        .map_err(|e| ParseError::Io(e.kind()))?;
    if read == 0 {
        return Ok(None);
    }
    if line.last() != Some(&b'\n') {
        // Either the line exceeded the cap or the peer died mid-line.
        return Err(if line.len() > limit {
            over_limit
        } else {
            ParseError::BadRequest("truncated line")
        });
    }
    line.pop();
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    if line.len() > limit {
        return Err(over_limit);
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| ParseError::BadRequest("non-UTF-8 bytes in header section"))
}

/// Parses exactly one request from `reader`, honouring `limits`.
pub fn parse_request(reader: &mut impl BufRead, limits: &Limits) -> Result<Request, ParseError> {
    let request_line = read_line(reader, MAX_REQUEST_LINE, ParseError::TargetTooLong)?
        .ok_or(ParseError::ConnectionClosed)?;
    if request_line.is_empty() {
        return Err(ParseError::BadRequest("empty request line"));
    }
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty() && m.bytes().all(|b| b.is_ascii_uppercase()))
        .ok_or(ParseError::BadRequest("malformed method"))?
        .to_string();
    let target = parts
        .next()
        .filter(|t| t.starts_with('/') || *t == "*")
        .ok_or(ParseError::BadRequest("malformed request target"))?
        .to_string();
    let version = parts
        .next()
        .ok_or(ParseError::BadRequest("missing version"))?;
    if parts.next().is_some() {
        return Err(ParseError::BadRequest("extra tokens in request line"));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ParseError::BadRequest("unsupported HTTP version"));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, MAX_HEADER_LINE, ParseError::HeadersTooLarge)?
            .ok_or(ParseError::BadRequest("connection closed inside headers"))?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ParseError::HeadersTooLarge);
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(ParseError::BadRequest("header without ':'"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(ParseError::BadRequest("malformed header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let request = Request {
        method,
        target,
        http1_0: version == "HTTP/1.0",
        headers,
        body: Vec::new(),
    };
    if request.header("transfer-encoding").is_some() {
        return Err(ParseError::UnsupportedTransferEncoding);
    }
    // Duplicate Content-Length headers are a request-smuggling vector (two
    // framings of one byte stream); RFC 9112 says reject, so reject.
    if request
        .headers
        .iter()
        .filter(|(name, _)| name == "content-length")
        .count()
        > 1
    {
        return Err(ParseError::BadRequest("duplicate Content-Length"));
    }
    let content_length = match request.header("content-length") {
        None => 0,
        Some(value) => value
            .parse::<usize>()
            .map_err(|_| ParseError::BadRequest("malformed Content-Length"))?,
    };
    if content_length > limits.max_body {
        return Err(ParseError::BodyTooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => ParseError::BadRequest("truncated body"),
        kind => ParseError::Io(kind),
    })?;
    Ok(Request { body, ..request })
}

/// A response body: bytes the response owns, or a finished sweep job's
/// CSV, shared with the job, which a connection sends from the job's file
/// (see [`CsvFile`]). Two bodies are equal when their bytes are.
#[derive(Debug, Clone)]
pub enum Body {
    /// Bytes owned by the response.
    Owned(Vec<u8>),
    /// A sweep job's CSV.
    File(Arc<CsvFile>),
}

impl Body {
    /// Bytes of the body.
    pub fn len(&self) -> usize {
        match self {
            Body::Owned(bytes) => bytes.len(),
            Body::File(csv) => csv.len() as usize,
        }
    }

    /// True when the body has no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The body's bytes: borrowed when owned, read from the file otherwise.
    pub fn bytes(&self) -> std::io::Result<Cow<'_, [u8]>> {
        match self {
            Body::Owned(bytes) => Ok(Cow::Borrowed(bytes)),
            Body::File(csv) => csv.to_vec().map(Cow::Owned),
        }
    }
}

/// Bodies are equal when their bytes are; a file that cannot be read
/// equals nothing.
impl PartialEq for Body {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && matches!((self.bytes(), other.bytes()), (Ok(a), Ok(b)) if a == b)
    }
}

impl Eq for Body {}

impl From<String> for Body {
    fn from(text: String) -> Self {
        Body::Owned(text.into_bytes())
    }
}

impl From<Arc<CsvFile>> for Body {
    fn from(csv: Arc<CsvFile>) -> Self {
        Body::File(csv)
    }
}

/// One response, written as HTTP/1.1 with an explicit `Content-Length`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'static str,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
    /// Extra headers (name, value), written verbatim.
    pub extra_headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: Body,
}

impl Response {
    /// A response with the given status/reason and a plain-text body.
    pub fn text(status: u16, reason: &'static str, body: impl Into<String>) -> Self {
        Self {
            status,
            reason,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into().into(),
        }
    }

    /// A `200 OK` JSON response.
    pub fn json(body: &crate::json::Json) -> Self {
        Self::json_status(200, "OK", body)
    }

    /// A JSON response with an explicit status.
    pub fn json_status(status: u16, reason: &'static str, body: &crate::json::Json) -> Self {
        Self {
            status,
            reason,
            ..Self::json_text(body.render())
        }
    }

    /// A `200 OK` JSON response whose body is already rendered.
    pub(crate) fn json_text(body: String) -> Self {
        Self {
            status: 200,
            reason: "OK",
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A `200 OK` CSV response, owning its text or sending a job's file.
    pub fn csv(body: impl Into<Body>) -> Self {
        Self {
            status: 200,
            reason: "OK",
            content_type: "text/csv; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A JSON error response: `{"error": message}`.
    pub fn error(status: u16, reason: &'static str, message: &str) -> Self {
        Self::json_status(
            status,
            reason,
            &crate::json::Json::obj(vec![("error", crate::json::Json::str(message))]),
        )
    }

    /// Adds an extra header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.extra_headers.push((name, value.into()));
        self
    }

    /// The full wire bytes of the response — what [`Response::write_to`]
    /// would emit. Panics if a file body cannot be read.
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.body.len() + 160);
        self.write_to(&mut out, keep_alive)
            .expect("a response's body is readable");
        out
    }

    /// Writes the response (status line, headers, body) to `writer`.
    pub fn write_to(&self, writer: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        writer.write_all(self.head(keep_alive).as_bytes())?;
        match &self.body {
            Body::Owned(bytes) => writer.write_all(bytes)?,
            Body::File(csv) => csv.copy_to(writer)?,
        }
        writer.flush()
    }

    /// Appends the response to `out`, except a file body, which it
    /// returns: the caller sends that after `out`'s bytes, from its file. A
    /// CSV that has no file (the header alone) is appended too. The bytes
    /// are [`Response::write_to`]'s.
    pub(crate) fn write_owned(self, out: &mut Vec<u8>, keep_alive: bool) -> Option<Arc<CsvFile>> {
        out.extend_from_slice(self.head(keep_alive).as_bytes());
        match self.body {
            Body::Owned(bytes) => {
                out.extend_from_slice(&bytes);
                None
            }
            Body::File(csv) if csv.piece(0).is_none() => {
                // Nothing is read: the header is in memory.
                let _ = csv.copy_to(out);
                None
            }
            Body::File(csv) => Some(csv),
        }
    }

    /// The status line and headers, up to and including the blank line.
    fn head(&self, keep_alive: bool) -> String {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-length: {}\r\ncontent-type: {}\r\nconnection: {}\r\n",
            self.status,
            self.reason,
            self.body.len(),
            self.content_type,
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        head
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(bytes: &[u8]) -> Result<Request, ParseError> {
        parse_request(&mut Cursor::new(bytes.to_vec()), &Limits::default())
    }

    #[test]
    fn parses_a_simple_get() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/healthz");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_a_post_with_body_and_bare_lf_lines() {
        let req = parse(b"POST /v1/optimize HTTP/1.1\nContent-Length: 4\n\nabcd").unwrap();
        assert_eq!(req.body, b"abcd");
        assert_eq!(req.header("content-length"), Some("4"));
    }

    #[test]
    fn connection_close_and_accept_are_recognised() {
        let req =
            parse(b"GET / HTTP/1.1\r\nConnection: Close\r\nAccept: text/csv, */*\r\n\r\n").unwrap();
        assert!(req.wants_close());
        assert!(req.accepts("text/csv"));
        assert!(!req.accepts("application/json"));
    }

    #[test]
    fn http10_defaults_to_close_and_11_to_keep_alive() {
        let v10 = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(v10.http1_0);
        assert!(v10.wants_close(), "HTTP/1.0 defaults to close");
        let v10_ka = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(!v10_ka.wants_close(), "explicit keep-alive is honoured");
        let v11 = parse(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        assert!(!v11.http1_0);
        assert!(!v11.wants_close(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn duplicate_content_length_is_rejected() {
        let err = parse(b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 50\r\n\r\nhello")
            .unwrap_err();
        assert_eq!(err.status().unwrap().0, 400, "{err:?}");
    }

    #[test]
    fn error_mapping_is_exact() {
        // Malformed request lines → 400.
        for bad in [
            &b"GET\r\n\r\n"[..],
            b" / HTTP/1.1\r\n\r\n",
            b"get / HTTP/1.1\r\n\r\n",
            b"GET / HTTP/2\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET nopath HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nbad header\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: two\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
            b"\r\n",
        ] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.status().unwrap().0, 400, "{:?}", err);
        }
        // Oversized declared body → 413.
        let err = parse(b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n").unwrap_err();
        assert_eq!(err, ParseError::BodyTooLarge);
        // Header bombs → 431.
        let mut many = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..100 {
            many.extend_from_slice(format!("h{i}: v\r\n").as_bytes());
        }
        many.extend_from_slice(b"\r\n");
        assert_eq!(parse(&many).unwrap_err(), ParseError::HeadersTooLarge);
        let huge = format!("GET / HTTP/1.1\r\nh: {}\r\n\r\n", "x".repeat(10_000));
        assert_eq!(
            parse(huge.as_bytes()).unwrap_err(),
            ParseError::HeadersTooLarge
        );
        // Oversized request line → 414.
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(10_000));
        assert_eq!(
            parse(long.as_bytes()).unwrap_err(),
            ParseError::TargetTooLong
        );
        // Chunked framing is not implemented → 501.
        let err = parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(err, ParseError::UnsupportedTransferEncoding);
        // EOF before any byte is a clean close, not an error response.
        assert_eq!(parse(b"").unwrap_err(), ParseError::ConnectionClosed);
    }

    #[test]
    fn responses_have_explicit_framing() {
        let mut out = Vec::new();
        Response::json(&crate::json::Json::obj(vec![(
            "ok",
            crate::json::Json::Bool(true),
        )]))
        .write_to(&mut out, true)
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));

        let mut out = Vec::new();
        Response::error(404, "Not Found", "no such route")
            .with_header("allow", "GET")
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.contains("allow: GET\r\n"));
    }

    #[test]
    fn to_bytes_matches_write_to_exactly() {
        for keep_alive in [true, false] {
            let response =
                Response::csv("a,b\n1,2\n".to_string()).with_header("x-ayd-trace-id", "00ff");
            let mut written = Vec::new();
            response.write_to(&mut written, keep_alive).unwrap();
            assert_eq!(response.to_bytes(keep_alive), written);
        }
    }

    #[test]
    fn a_shared_body_writes_the_bytes_of_an_owned_one() {
        let text = format!("{}\n1,2\n", ayd_sweep::CSV_HEADER);
        let mut csv = CsvFile::create(1, 1).unwrap();
        csv.append(0, "1,2\n", 1).unwrap();
        let csv = Arc::new(csv);
        let shared = Response::csv(Arc::clone(&csv)).with_header("x-ayd-trace-id", "00ff");
        let owned = Response::csv(text.clone()).with_header("x-ayd-trace-id", "00ff");
        assert_eq!(shared, owned);
        assert!(matches!(shared.body, Body::File(_)));
        assert_eq!(shared.body.len(), text.len());
        for keep_alive in [true, false] {
            assert_eq!(shared.to_bytes(keep_alive), owned.to_bytes(keep_alive));
            // `write_owned` keeps the file out of the buffer and hands it
            // back; head plus file are the wire bytes.
            let mut out = Vec::new();
            let rest = shared.clone().write_owned(&mut out, keep_alive);
            assert!(Arc::ptr_eq(rest.as_ref().unwrap(), &csv));
            out.extend_from_slice(text.as_bytes());
            assert_eq!(out, owned.to_bytes(keep_alive));
            let mut out = Vec::new();
            assert!(owned.clone().write_owned(&mut out, keep_alive).is_none());
            assert_eq!(out, owned.to_bytes(keep_alive));
        }
        // A CSV without a file is the header, written into the buffer.
        let header = Response::csv(Arc::new(CsvFile::header_only(1, 1)));
        let mut out = Vec::new();
        assert!(header.clone().write_owned(&mut out, true).is_none());
        assert_eq!(out, header.to_bytes(true));
        assert!(out.ends_with(format!("\r\n\r\n{}\n", ayd_sweep::CSV_HEADER).as_bytes()));
    }
}
