//! Per-core epoll reactors: the serving core.
//!
//! One reactor thread per configured worker (`--threads`), each owning its
//! own `SO_REUSEPORT` listener (the kernel shards incoming connections across
//! them), its own epoll instance and its own connection table — no
//! cross-reactor locking on the I/O path. Sockets are edge-triggered and
//! nonblocking; each connection feeds [`crate::conn::IncrementalParser`] with
//! whatever bytes arrive, so 100k idle keep-alive connections cost a table
//! entry each instead of a parked thread.
//!
//! A reactor evaluates every request it parses itself, through
//! `conn::answer_next` — the function [`crate::conn::serve_chunks`]
//! calls too — and writes the response straight to the socket. Only sweeps
//! run elsewhere, on their executor threads.
//!
//! Fairness: a connection gets at most one request, or one slice of a
//! `/v1/batch`, per turn (one `epoll_wait` and the events it returned). After
//! writing a response the reactor does not read that socket again; a
//! connection whose pipelined bytes are already buffered, or whose batch has
//! slices left, joins the run queue (at most once), which is drained after
//! the next turn's events. Neither a pipelining client nor a long batch can
//! therefore hold its reactor while other connections wait.
//!
//! Graceful shutdown drains: the listener closes, connections between
//! responses close, and connections with a response mid-write or a batch
//! mid-evaluation finish it before the reactor exits (bounded by a drain
//! deadline), so a shutdown under load never truncates a response.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::app::{AppState, ServerConfig};
use crate::conn::{
    answer_next, Answer, IncrementalParser, Outgoing, Pending, HEAD_CAP,
    MAX_REQUESTS_PER_CONNECTION,
};
use crate::sys;

/// epoll timeout while serving: bounds the latency of noticing the shutdown
/// flag (the wake-up poke only reaches one reactor's accept shard).
const WAIT_MS: i32 = 100;
/// epoll timeout while draining: final writes land fast.
const DRAIN_WAIT_MS: i32 = 10;
/// How long a draining reactor waits for in-flight batches and writes.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);
/// Read scratch size per reactor.
const SCRATCH: usize = 64 * 1024;

/// epoll token of the reactor's accept shard.
const TOKEN_LISTENER: u64 = 0;
/// First token handed to an accepted connection.
const TOKEN_FIRST_CONN: u64 = 1;

/// Per-connection state.
struct Conn {
    fd: sys::Fd,
    parser: IncrementalParser,
    /// A batch with slices left (the drain deadline cuts it off unanswered).
    pending: Option<Box<Pending>>,
    /// Response bytes not yet accepted by the kernel: the head and any
    /// owned body, then a shared body.
    out: Outgoing,
    /// Bytes of `out` already written.
    written: usize,
    /// The peer's read side ended (EOF or a hard read error).
    eof: bool,
    /// Close once `out` drains (protocol close or the request cap).
    close_after_write: bool,
    /// `EPOLLOUT` currently registered (only while a write is blocked).
    wants_writable: bool,
    /// In the run queue: its next request or slice is answered there.
    queued: bool,
    /// Requests served on this connection.
    served: usize,
}

impl Conn {
    fn new(fd: sys::Fd) -> Self {
        Self {
            fd,
            parser: IncrementalParser::new(),
            pending: None,
            out: Outgoing::default(),
            written: 0,
            eof: false,
            close_after_write: false,
            wants_writable: false,
            queued: false,
            served: 0,
        }
    }
}

/// One reactor: an epoll instance, an accept shard and the connections the
/// kernel routed here.
struct Reactor {
    index: u64,
    /// The reactor's `ayd_accepts_total` label, formatted once.
    label: String,
    epoll: sys::Fd,
    /// `None` once draining (dropping the fd closes the shard).
    listener: Option<sys::Fd>,
    conns: HashMap<u64, Conn>,
    /// Connections with more buffered input than the request answered this
    /// turn, or a batch with slices left; each gets one more request or slice
    /// after the next turn's events.
    run_queue: Vec<u64>,
    next_token: u64,
    state: Arc<AppState>,
    shutdown: Arc<AtomicBool>,
    scratch: Vec<u8>,
    /// Stop reading a connection whose buffer exceeds this (resumes once the
    /// buffered requests drain) — bounds per-connection memory against
    /// pipelining floods.
    pause_at: usize,
    draining: bool,
}

impl Reactor {
    fn run(mut self) -> std::io::Result<()> {
        if let Some(listener) = &self.listener {
            sys::epoll_ctl(
                &self.epoll,
                sys::EPOLL_CTL_ADD,
                listener.raw(),
                // Level-triggered on purpose: an accept pass that stops early
                // (e.g. on EMFILE) re-fires instead of stalling the shard.
                sys::EPOLLIN,
                TOKEN_LISTENER,
            )?;
        }
        let mut events = [sys::EpollEvent::default(); 256];
        let mut drain_deadline: Option<Instant> = None;
        loop {
            let timeout = if !self.run_queue.is_empty() {
                0
            } else if self.draining {
                DRAIN_WAIT_MS
            } else {
                WAIT_MS
            };
            let parked = Instant::now();
            let fired = sys::epoll_wait(&self.epoll, &mut events, timeout)?;
            if fired > 0 {
                self.state.metrics.observe_readiness_wait(parked.elapsed());
            }
            // Queued before this turn's events: a connection answered during
            // them re-queues for the next turn, never this one.
            let due = std::mem::take(&mut self.run_queue);
            for event in &events[..fired] {
                match event.token() {
                    TOKEN_LISTENER => self.accept_burst(),
                    token => self.pump(token),
                }
            }
            for token in due {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.queued = false;
                    self.pump(token);
                }
            }
            if !self.draining && self.shutdown.load(Ordering::SeqCst) {
                self.draining = true;
                self.listener = None;
                drain_deadline = Some(Instant::now() + DRAIN_DEADLINE);
                // Connections between responses close now — a clean response
                // boundary. Batches and writes in flight keep their entries
                // and finish.
                let idle: Vec<u64> = self
                    .conns
                    .iter()
                    .filter(|(_, conn)| conn.out.is_empty() && conn.pending.is_none())
                    .map(|(&token, _)| token)
                    .collect();
                for token in idle {
                    self.close(token);
                }
            }
            if self.draining {
                let expired = drain_deadline.is_some_and(|deadline| Instant::now() >= deadline);
                if self.conns.is_empty() || expired {
                    for token in self.conns.keys().copied().collect::<Vec<_>>() {
                        self.close(token);
                    }
                    return Ok(());
                }
            }
        }
    }

    /// Accepts until the shard's queue is empty.
    fn accept_burst(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match sys::accept(listener) {
                Ok(fd) => {
                    let _ = sys::set_nodelay(&fd);
                    self.state.metrics.connection_accepted(&self.label);
                    let token = self.next_token;
                    self.next_token += 1;
                    if sys::epoll_ctl(
                        &self.epoll,
                        sys::EPOLL_CTL_ADD,
                        fd.raw(),
                        sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLET,
                        token,
                    )
                    .is_err()
                    {
                        self.state.metrics.connection_closed();
                        continue;
                    }
                    self.conns.insert(token, Conn::new(fd));
                    // Edge-triggered: bytes that raced ahead of the ADD never
                    // produce an edge, so read immediately.
                    self.pump(token);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // EMFILE and friends: back off until the (level-triggered)
                // listener fires again instead of spinning.
                Err(_) => return,
            }
        }
    }

    /// Runs one connection's state machine after a readiness event or from
    /// the run queue, reinserting it unless it closed.
    fn pump(&mut self, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        if self.drive(token, &mut conn) {
            self.conns.insert(token, conn);
        } else {
            self.state.metrics.connection_closed();
        }
    }

    fn close(&mut self, token: u64) {
        if self.conns.remove(&token).is_some() {
            self.state.metrics.connection_closed();
        }
    }

    /// Advances one connection by at most one request or batch slice: reads
    /// what the kernel holds, answers the next buffered request (or steps its
    /// batch) unless a response is still going out, and writes. Returns
    /// `false` when the connection is finished (the caller drops it, closing
    /// the fd).
    fn drive(&mut self, token: u64, conn: &mut Conn) -> bool {
        // Drain the edge (pipelined bytes buffer up behind the request being
        // answered), pausing above the memory bound.
        while !conn.eof && conn.parser.buffered() < self.pause_at {
            match sys::read(&conn.fd, &mut self.scratch) {
                Ok(0) => conn.eof = true,
                Ok(n) => conn.parser.push(&self.scratch[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // A hard read error: nothing more will arrive; a response
                // still going out gets a best-effort write.
                Err(_) => conn.eof = true,
            }
        }
        if conn.queued {
            // The run queue answers this connection's next request or slice.
            return true;
        }
        if conn.out.is_empty() && (!self.draining || conn.pending.is_some()) {
            match answer_next(
                &mut conn.parser,
                &mut conn.pending,
                conn.eof,
                &self.state,
                &self.shutdown,
                Some(self.index),
                &mut conn.out,
            ) {
                Answer::NeedMore => return !conn.eof,
                Answer::Pending => {
                    conn.queued = true;
                    self.run_queue.push(token);
                    return true;
                }
                Answer::KeepAlive => {
                    conn.served += 1;
                    conn.close_after_write = conn.served >= MAX_REQUESTS_PER_CONNECTION;
                }
                Answer::Close if conn.out.is_empty() => return false,
                Answer::Close => conn.close_after_write = true,
            }
        }
        if !self.flush(token, conn) {
            return false;
        }
        if !conn.out.is_empty() {
            // Blocked: `EPOLLOUT` resumes the write.
            return true;
        }
        if conn.close_after_write || self.draining {
            return false;
        }
        // The response is out. Whatever else the peer sent (or its EOF)
        // waits for the next turn instead of being read and answered now.
        if conn.parser.buffered() > 0 || conn.eof {
            conn.queued = true;
            self.run_queue.push(token);
        }
        true
    }

    /// Writes `conn.out` — its buffer, then its shared body — until it
    /// drains (then clears it) or the socket would block (then waits for
    /// `EPOLLOUT`). Returns `false` on a hard error.
    fn flush(&self, token: u64, conn: &mut Conn) -> bool {
        loop {
            let unsent = conn.out.unsent(conn.written);
            if unsent.is_empty() {
                break;
            }
            match sys::write(&conn.fd, unsent) {
                Ok(n) => conn.written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if !conn.wants_writable {
                        conn.wants_writable = self.interest(token, conn, sys::EPOLLOUT);
                    }
                    return true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        conn.out.clear();
        conn.written = 0;
        if conn.wants_writable {
            conn.wants_writable = false;
            self.interest(token, conn, 0);
        }
        true
    }

    /// Re-registers `conn` for input plus `extra`; true on success.
    fn interest(&self, token: u64, conn: &Conn, extra: u32) -> bool {
        sys::epoll_ctl(
            &self.epoll,
            sys::EPOLL_CTL_MOD,
            conn.fd.raw(),
            sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLET | extra,
            token,
        )
        .is_ok()
    }
}

/// Serves the listener shards with one reactor thread each until shutdown,
/// then drains and returns.
pub fn serve_event(
    listeners: Vec<sys::Fd>,
    state: Arc<AppState>,
    shutdown: Arc<AtomicBool>,
    config: &ServerConfig,
) -> std::io::Result<()> {
    let pause_at = config.limits.max_body + HEAD_CAP + SCRATCH;
    let mut workers = Vec::with_capacity(listeners.len());
    for (index, listener) in listeners.into_iter().enumerate() {
        let reactor = Reactor {
            index: index as u64,
            label: index.to_string(),
            epoll: sys::epoll_create()?,
            listener: Some(listener),
            conns: HashMap::new(),
            run_queue: Vec::new(),
            next_token: TOKEN_FIRST_CONN,
            state: Arc::clone(&state),
            shutdown: Arc::clone(&shutdown),
            scratch: vec![0; SCRATCH],
            pause_at,
            draining: false,
        };
        workers.push(
            std::thread::Builder::new()
                .name(format!("ayd-reactor-{index}"))
                .spawn(move || reactor.run())?,
        );
    }
    let mut first_error = None;
    for worker in workers {
        match worker.join() {
            Ok(Ok(())) => {}
            Ok(Err(error)) => first_error = first_error.or(Some(error)),
            Err(_) => {
                first_error = first_error
                    .or_else(|| Some(std::io::Error::other("a reactor thread panicked")));
            }
        }
    }
    match first_error {
        Some(error) => Err(error),
        None => Ok(()),
    }
}
