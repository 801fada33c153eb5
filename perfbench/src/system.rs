//! The served system under test: `reproduce serve` processes on ephemeral
//! ports. Every process is killed and reaped when its handle drops — on
//! success, on error and while a panic unwinds — so no server outlives the
//! run and competes for the cores of the next one.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ayd_serve::Json;

use crate::http::Conn;

/// How long a launch may take before the run gives up.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

/// One running `reproduce serve` process.
pub struct Server {
    child: Child,
    drain: Option<JoinHandle<()>>,
    pub addr: String,
    pub io_model: String,
}

impl Server {
    /// Starts `reproduce serve --addr 127.0.0.1:0 <extra>` and reads the
    /// address and io model it announces on stdout.
    pub fn spawn(reproduce: &Path, extra: &[String], tmp: &Path) -> Result<Server, String> {
        let mut child = Command::new(reproduce)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            // Cluster workers spool shard rows under the temp directory;
            // keep those files inside the run's own output directory.
            .env("TMPDIR", tmp)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", reproduce.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child,
            drain: None,
            addr: String::new(),
            io_model: String::new(),
        };
        let mut lines = BufReader::new(stdout);
        let mut line = String::new();
        while server.addr.is_empty() || server.io_model.is_empty() {
            line.clear();
            match lines.read_line(&mut line) {
                Ok(0) | Err(_) => return Err("server exited before announcing itself".into()),
                Ok(_) => {}
            }
            if let Some(addr) = line.trim().strip_prefix("ayd-serve listening on http://") {
                server.addr = addr.to_string();
            } else if let Some(model) = line.trim().strip_prefix("ayd-serve io model: ") {
                server.io_model = model.to_string();
            }
        }
        // Keep reading so a chatty server never blocks on a full pipe; the
        // thread ends when the process does.
        server.drain = Some(std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(lines.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        }));
        Ok(server)
    }

    /// Peak resident set (`VmHWM`) in KiB.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// Which system a workload runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One standalone server with 2 threads.
    Standalone,
    /// A coordinator and two workers, each with 1 thread and the default
    /// 3 s lease.
    Cluster,
}

/// Threads of each process, per topology.
pub fn threads(topology: Topology) -> usize {
    match topology {
        Topology::Standalone => 2,
        Topology::Cluster => 1,
    }
}

/// Default worker lease of `reproduce serve --coordinator`.
pub const LEASE_MS: u64 = 3000;

/// A launched system; `servers[0]` is the entry point clients talk to.
pub struct System {
    pub servers: Vec<Server>,
}

impl System {
    pub fn addr(&self) -> &str {
        &self.servers[0].addr
    }

    pub fn io_model(&self) -> &str {
        &self.servers[0].io_model
    }

    /// Summed peak resident set of every process, in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let mut total = 0u64;
        for server in &self.servers {
            total += server
                .peak_rss_kib()
                .ok_or("cannot read VmHWM of a server process")?;
        }
        Ok(total as f64 / 1024.0)
    }
}

/// Launches a system and waits until it is ready: `/healthz` answers 200
/// and, for a cluster, both workers are alive.
pub fn launch(reproduce: &Path, topology: Topology, tmp: &Path) -> Result<System, String> {
    let threads = threads(topology).to_string();
    let mut system = System {
        servers: Vec::new(),
    };
    match topology {
        Topology::Standalone => {
            system.servers.push(Server::spawn(
                reproduce,
                &["--threads".into(), threads],
                tmp,
            )?);
        }
        Topology::Cluster => {
            system.servers.push(Server::spawn(
                reproduce,
                &["--threads".into(), threads.clone(), "--coordinator".into()],
                tmp,
            )?);
            let coordinator = system.addr().to_string();
            for _ in 0..2 {
                system.servers.push(Server::spawn(
                    reproduce,
                    &[
                        "--threads".into(),
                        threads.clone(),
                        "--worker-of".into(),
                        coordinator.clone(),
                    ],
                    tmp,
                )?);
            }
        }
    }
    let deadline = Instant::now() + READY_TIMEOUT;
    let mut conn = Conn::connect(system.addr()).map_err(|e| format!("connect: {e}"))?;
    while conn.get("/healthz", None).map(|r| r.status).ok() != Some(200) {
        if Instant::now() > deadline {
            return Err("server never answered /healthz".into());
        }
        std::thread::sleep(Duration::from_millis(1));
        conn = Conn::connect(system.addr()).map_err(|e| format!("connect: {e}"))?;
    }
    if topology == Topology::Cluster {
        loop {
            let response = conn
                .get("/v1/workers", None)
                .map_err(|e| format!("workers view: {e}"))?;
            let alive = Json::parse(response.text())
                .ok()
                .and_then(|doc| doc.get("alive").and_then(Json::as_f64))
                .unwrap_or(0.0);
            if alive >= 2.0 {
                break;
            }
            if Instant::now() > deadline {
                return Err(format!("only {alive} of 2 workers registered"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    Ok(system)
}

/// A fresh scratch directory for the run's server processes, removed on
/// drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(parent: &Path) -> Result<TempDir, String> {
        let dir = parent.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Reads one counter from `/metrics` text.
pub fn metric(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|line| {
            let (key, value) = line.split_once(' ')?;
            (key == name).then(|| value.trim().parse::<f64>().ok())?
        })
        .unwrap_or(0.0)
}

/// Scrapes `/metrics`.
pub fn scrape(addr: &str) -> Result<String, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let response = conn
        .get("/metrics", None)
        .map_err(|e| format!("metrics: {e}"))?;
    if response.status != 200 {
        return Err(format!("metrics: status {}", response.status));
    }
    Ok(response.text().to_string())
}
