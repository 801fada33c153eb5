//! A minimal keep-alive HTTP/1.1 client. The benchmark carries its own so
//! that client-side cost stays fixed whatever the program's client does.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Renders one request.
pub fn request(method: &str, path: &str, accept: Option<&str>, body: Option<&[u8]>) -> Vec<u8> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: perfbench\r\n");
    if let Some(accept) = accept {
        head.push_str(&format!("accept: {accept}\r\n"));
    }
    if let Some(body) = body {
        head.push_str(&format!(
            "content-type: application/json\r\ncontent-length: {}\r\n",
            body.len()
        ));
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    if let Some(body) = body {
        out.extend_from_slice(body);
    }
    out
}

/// One response: status and body.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Response {
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    len: usize,
}

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: vec![0; 16 * 1024],
            len: 0,
        })
    }

    /// Sends `request` and reads its response.
    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<Response> {
        self.stream.write_all(request)?;
        self.recv()
    }

    pub fn get(&mut self, path: &str, accept: Option<&str>) -> io::Result<Response> {
        self.roundtrip(&request("GET", path, accept, None))
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.len == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        let n = self.stream.read(&mut self.buf[self.len..])?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.len += n;
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Response> {
        let mut scanned = 0;
        let head_end = loop {
            if let Some(pos) = self.buf[scanned..self.len]
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
            {
                break scanned + pos + 4;
            }
            scanned = self.len.saturating_sub(3);
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| invalid("head"))?;
        let status = head
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| invalid("status line"))?;
        let length = head
            .lines()
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse::<usize>().ok())?
            })
            .ok_or_else(|| invalid("content-length"))?;
        let total = head_end + length;
        if self.buf.len() < total {
            self.buf.resize(total, 0);
        }
        while self.len < total {
            self.fill()?;
        }
        let body = self.buf[head_end..total].to_vec();
        self.buf.copy_within(total..self.len, 0);
        self.len -= total;
        Ok(Response { status, body })
    }
}
