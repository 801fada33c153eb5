//! The bound server, its serve loop and graceful shutdown.
//!
//! [`Server::bind`] opens one nonblocking `SO_REUSEPORT` listener per reactor
//! thread (`SO_REUSEPORT` must be set before `bind`, so the shards cannot be
//! derived from a `std` listener); [`Server::serve`] runs the reactors
//! ([`crate::reactor`]) until [`ServeHandle::shutdown`] fires. Shutdown is
//! cooperative (the SIGTERM-equivalent for a `std`-only build): a shared flag
//! plus a wake-up connection; the reactors stop accepting, finish the
//! responses going out and close keep-alive connections at a response
//! boundary.
//!
//! The reactors run on the vendored syscall shim, which covers Linux on
//! x86_64 and aarch64 only. Elsewhere [`Server::bind`] fails with
//! [`std::io::ErrorKind::Unsupported`], and the rest of the workspace (the
//! paper reproduction included) builds and runs without it.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::app::{AppState, ServerConfig};

/// A listening socket: one `SO_REUSEPORT` accept shard per reactor.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
type Listener = crate::sys::Fd;

/// No listener exists where the syscall shim does not: [`Server::bind`]
/// fails before one would be needed.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
enum Listener {}

/// Handle for stopping a running server from another thread.
#[derive(Debug, Clone)]
pub struct ServeHandle {
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ServeHandle {
    /// The server's bound address (useful with an ephemeral `:0` port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful shutdown: sets the flag and wakes a reactor with
    /// a throwaway connection.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // A reactor may be parked in epoll_wait; poke it awake (the others
        // notice the flag within their wait timeout). Errors are irrelevant —
        // the listener may already be gone.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A bound (but not yet serving) query service.
pub struct Server {
    listeners: Vec<Listener>,
    addr: SocketAddr,
    state: Arc<AppState>,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
}

impl Server {
    /// Binds one nonblocking `SO_REUSEPORT` listener per reactor thread and
    /// builds the shared state. The returned server does not accept
    /// connections until [`Server::serve`] is called. Fails with
    /// [`std::io::ErrorKind::Unsupported`] on targets without the syscall
    /// shim (anything but Linux on x86_64 or aarch64).
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let (listeners, addr) = listen(&config)?;
        // Ring-only recording is on by default so `/v1/trace/recent` works
        // out of the box; a JSON-lines sink is opt-in via `--trace-log`.
        ayd_obs::enable();
        let state = AppState::new(&config);
        Ok(Server {
            listeners,
            addr,
            state,
            shutdown: Arc::new(AtomicBool::new(false)),
            config,
        })
    }

    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        Ok(self.addr)
    }

    /// A shutdown handle usable from any thread.
    pub fn handle(&self) -> std::io::Result<ServeHandle> {
        Ok(ServeHandle {
            shutdown: Arc::clone(&self.shutdown),
            addr: self.addr,
        })
    }

    /// The shared application state (exposed for tests and benches).
    pub fn state(&self) -> Arc<AppState> {
        Arc::clone(&self.state)
    }

    /// Accepts and serves connections until [`ServeHandle::shutdown`] fires,
    /// then drains in-flight responses and returns.
    ///
    /// Cluster-role background threads live exactly as long as the reactors:
    /// a coordinator runs the dispatcher (lease expiry + shard dispatch), a
    /// worker runs the agent (registration + heartbeats). On shutdown the
    /// worker's in-flight shard is cancelled — kill-style recovery is the
    /// coordinator's job, via lease expiry and re-issue.
    pub fn serve(self) -> std::io::Result<()> {
        let advertise = self
            .config
            .cluster
            .advertise
            .clone()
            .unwrap_or_else(|| self.addr.to_string());
        let mut cluster_threads = Vec::new();
        if let Some(coordinator) = &self.state.coordinator {
            cluster_threads.push(crate::coordinator::spawn_dispatcher(Arc::clone(
                coordinator,
            )));
        }
        if let Some(worker) = &self.state.worker {
            cluster_threads.push(crate::worker::spawn_agent(Arc::clone(worker), advertise));
        }
        let state = Arc::clone(&self.state);
        let result = run_reactors(self.listeners, self.state, self.shutdown, &self.config);
        if let Some(worker) = &state.worker {
            worker.stop();
        }
        if let Some(coordinator) = &state.coordinator {
            coordinator.stop();
        }
        for thread in cluster_threads {
            let _ = thread.join();
        }
        result
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn listen(config: &ServerConfig) -> std::io::Result<(Vec<Listener>, SocketAddr)> {
    crate::sys::listen_reuseport(&config.addr, config.threads.max(1))
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn listen(_config: &ServerConfig) -> std::io::Result<(Vec<Listener>, SocketAddr)> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "ayd-serve's epoll reactors run only on Linux x86_64 and aarch64",
    ))
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
fn run_reactors(
    listeners: Vec<Listener>,
    state: Arc<AppState>,
    shutdown: Arc<AtomicBool>,
    config: &ServerConfig,
) -> std::io::Result<()> {
    crate::reactor::serve_event(listeners, state, shutdown, config)
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
fn run_reactors(
    listeners: Vec<Listener>,
    _state: Arc<AppState>,
    _shutdown: Arc<AtomicBool>,
    _config: &ServerConfig,
) -> std::io::Result<()> {
    match listeners.into_iter().next() {
        Some(never) => match never {},
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::serve_chunks;

    fn test_state() -> Arc<AppState> {
        AppState::new(&ServerConfig {
            threads: 1,
            ..ServerConfig::default()
        })
    }

    /// Serves `input` as one connection's whole byte stream.
    fn drive(input: &[u8]) -> String {
        let state = test_state();
        let shutdown = AtomicBool::new(false);
        String::from_utf8_lossy(&serve_chunks(&[input], &state, &shutdown)).into_owned()
    }

    #[test]
    fn pipelined_requests_are_served_in_order() {
        let out = drive(
            b"GET /healthz HTTP/1.1\r\n\r\n\
              POST /v1/optimize HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}\
              GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n",
        );
        assert_eq!(out.matches("HTTP/1.1 200 OK\r\n").count(), 3);
        assert!(out.contains("connection: keep-alive"));
        assert!(out.ends_with('}') || out.contains("connection: close"));
        // Every response carries a distinct request ID.
        let ids: std::collections::BTreeSet<&str> = out
            .lines()
            .filter_map(|line| line.strip_prefix("x-ayd-trace-id: "))
            .collect();
        assert_eq!(ids.len(), 3);
        assert!(ids.iter().all(|id| id.len() == 16));
    }

    #[test]
    fn malformed_requests_get_one_response_then_close() {
        let out = drive(b"BOGUS\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(out.matches("HTTP/1.1").count(), 1);
        assert!(out.starts_with("HTTP/1.1 400 Bad Request\r\n"));
        assert!(out.contains("connection: close"));
        assert!(out.contains("x-ayd-trace-id: "));
    }

    #[test]
    fn clean_close_produces_no_bytes() {
        assert!(drive(b"").is_empty());
    }

    #[test]
    fn shutdown_flag_turns_off_keep_alive() {
        let state = test_state();
        let shutdown = AtomicBool::new(true);
        let input = b"GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n";
        let out = String::from_utf8(serve_chunks(&[input], &state, &shutdown)).unwrap();
        // Only the first request is answered, with connection: close.
        assert_eq!(out.matches("HTTP/1.1 200 OK").count(), 1);
        assert!(out.contains("connection: close"));
    }

    #[test]
    fn end_to_end_over_a_real_socket_with_graceful_shutdown() {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let handle = server.handle().unwrap();
        let addr = handle.addr();
        let thread = std::thread::spawn(move || server.serve());

        let mut client = crate::client::HttpClient::connect(&addr.to_string()).unwrap();
        let response = client
            .post_json("/v1/optimize", r#"{"platform":"Atlas","scenario":3}"#)
            .unwrap();
        assert_eq!(response.status, 200);
        assert!(response.body.contains("\"numerical\""));
        let health = client.get("/healthz", None).unwrap();
        assert_eq!(health.status, 200);

        handle.shutdown();
        thread.join().unwrap().unwrap();
    }
}
