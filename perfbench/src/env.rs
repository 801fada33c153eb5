//! The environment block recorded with every result, so a figure can be
//! tied to the machine and the code it was measured on.

use std::path::Path;
use std::process::Command;

fn command(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the relative paths and bytes of the measured sources (the
/// crates, vendored dependencies and workspace manifests), in sorted path
/// order: identifies the code even where no git metadata exists.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("vendor"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for file in files {
        let relative = file.strip_prefix(root).unwrap_or(&file);
        feed(relative.to_string_lossy().as_bytes());
        feed(&std::fs::read(&file).unwrap_or_default());
    }
    format!("{hash:016x}")
}

/// `(key, value)` pairs of the environment block.
pub fn block(
    root: &Path,
    io_model: &str,
    threads: usize,
    processes: usize,
) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get().to_string())
        .unwrap_or_else(|_| "unknown".into());
    vec![
        ("nproc", nproc),
        ("cpu_model", cpu_model()),
        (
            "kernel",
            std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".into()),
        ),
        (
            "rustc",
            command("rustc", &["-V"], root).unwrap_or_else(|| "unknown".into()),
        ),
        (
            "git_sha",
            command("git", &["rev-parse", "HEAD"], root).unwrap_or_else(|| "none".into()),
        ),
        ("source_digest", source_digest(root)),
        ("io_model", io_model.to_string()),
        ("server_processes", processes.to_string()),
        ("server_threads", threads.to_string()),
        ("lease_ms", crate::system::LEASE_MS.to_string()),
    ]
}
