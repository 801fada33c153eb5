//! Subprocess tests of the sharded/resumable sweep CLI.
//!
//! These drive the real `reproduce` binary end to end: shard runs plus
//! `sweep-merge` must reproduce the unsharded CSV byte for byte, interrupted
//! shards must resume without recomputing finished cells, and malformed
//! invocations (unknown flags, unknown experiments, inconsistent shard
//! arguments) must fail with a usage message before anything runs.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce binary runs")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ayd-cli-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path_str(path: &Path) -> &str {
    path.to_str().expect("temp paths are UTF-8")
}

/// The small simulating demo grid keeps these subprocess runs quick while
/// still exercising per-cell seeding (simulated columns must survive the
/// shard/merge round trip bit-for-bit too).
const BASE: &[&str] = &["sweep", "--smoke", "--threads", "2"];

#[test]
fn three_shards_merge_byte_identical_to_the_unsharded_run() {
    let dir = temp_dir("merge");
    let full = dir.join("full.csv");
    let out = reproduce(&[BASE, &["--out", path_str(&full)]].concat());
    assert!(out.status.success(), "{out:?}");

    let mut inputs = Vec::new();
    for index in 0..3 {
        let shard_csv = dir.join(format!("shard-{index}.csv"));
        let spec = format!("{index}/3");
        let out = reproduce(&[BASE, &["--shard", &spec, "--out", path_str(&shard_csv)]].concat());
        assert!(out.status.success(), "shard {index}: {out:?}");
        inputs.push(shard_csv);
    }
    let merged = dir.join("merged.csv");
    let input_list = inputs
        .iter()
        .map(|p| path_str(p).to_string())
        .collect::<Vec<_>>()
        .join(",");
    let out = reproduce(&[
        "sweep-merge",
        "--inputs",
        &input_list,
        "--out",
        path_str(&merged),
    ]);
    assert!(out.status.success(), "{out:?}");

    let full_bytes = std::fs::read(&full).unwrap();
    let merged_bytes = std::fs::read(&merged).unwrap();
    assert!(!full_bytes.is_empty());
    assert_eq!(full_bytes, merged_bytes, "merge is not byte-identical");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn interrupted_shard_resumes_without_recomputing_finished_cells() {
    let dir = temp_dir("resume");
    let csv = dir.join("shard-0-of-2.csv");
    let args: Vec<&str> = [BASE, &["--shard", "0/2", "--out", path_str(&csv)]].concat();
    let out = reproduce(&args);
    assert!(out.status.success(), "{out:?}");
    let clean = std::fs::read_to_string(&csv).unwrap();
    let rows = clean.lines().count() - 1;
    assert!(rows >= 4, "grid too small for a meaningful truncation");

    // Simulate a mid-run kill: drop the last two complete rows and leave a
    // torn final line, exactly what an interrupted append can produce. (The
    // manifest still claims the full count — resume must trust whichever
    // artifact is *behind*.)
    let keep: String = clean
        .lines()
        .take(1 + rows - 2)
        .flat_map(|l| [l, "\n"])
        .collect();
    std::fs::write(&csv, format!("{keep}Hera,1,0.1,amdahl,0.1,1e-")).unwrap();

    let out = reproduce(&[&args[..], &["--resume"]].concat());
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains(&format!("{} resumed, 2 evaluated", rows - 2)),
        "finished cells were recomputed: {stdout}"
    );
    assert_eq!(std::fs::read_to_string(&csv).unwrap(), clean);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_flags_and_experiments_fail_before_running_anything() {
    // Unknown flag: non-zero exit, usage on stderr.
    let out = reproduce(&["sweep", "--no-sim", "--bogus-flag"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown flag `--bogus-flag`"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "output was produced before the error"
    );

    // Unknown experiment token: must fail up front — the valid experiment in
    // front of it must NOT run first (no partial success).
    let out = reproduce(&["table2", "bogus-experiment"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("unknown experiment `bogus-experiment`"),
        "{stderr}"
    );
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "table2 ran before the unknown token was rejected"
    );

    // Inconsistent shard arguments are caught at parse time too.
    let out = reproduce(&["sweep", "--shard", "0/2"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("--shard/--resume require --out"),
        "{stderr}"
    );
}

#[test]
fn merge_refuses_shards_from_different_sweeps() {
    let dir = temp_dir("mismatch");
    let a = dir.join("a.csv");
    let b = dir.join("b.csv");
    let run = |csv: &Path, spec: &str, seed: &str| {
        let out = reproduce(
            &[
                BASE,
                &["--shard", spec, "--out", path_str(csv), "--seed", seed],
            ]
            .concat(),
        );
        assert!(out.status.success(), "{out:?}");
    };
    run(&a, "0/2", "1");
    run(&b, "1/2", "2"); // different seed → different sweep
    let inputs = format!("{},{}", path_str(&a), path_str(&b));
    let merged = dir.join("merged.csv");
    let out = reproduce(&[
        "sweep-merge",
        "--inputs",
        &inputs,
        "--out",
        path_str(&merged),
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("different sweep"), "{stderr}");
    assert!(!merged.exists(), "a mismatched merge must not write output");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn merge_and_resume_refuse_round_robin_v1_shards() {
    // Shards written under the retired round-robin partition have the same
    // sizes as range shards, so only the manifest version keeps them from
    // being merged or resumed into range order.
    let dir = temp_dir("v1");
    let mut inputs = Vec::new();
    for index in 0..2 {
        let csv = dir.join(format!("shard-{index}.csv"));
        let spec = format!("{index}/2");
        let out = reproduce(&[BASE, &["--shard", &spec, "--out", path_str(&csv)]].concat());
        assert!(out.status.success(), "{out:?}");
        let manifest = dir.join(format!("shard-{index}.csv.manifest"));
        let text = std::fs::read_to_string(&manifest).unwrap();
        assert!(text.starts_with("ayd-sweep-manifest v2\n"), "{text}");
        std::fs::write(
            &manifest,
            text.replace("ayd-sweep-manifest v2", "ayd-sweep-manifest v1"),
        )
        .unwrap();
        inputs.push(csv);
    }
    let merged = dir.join("merged.csv");
    let input_list = format!("{},{}", path_str(&inputs[0]), path_str(&inputs[1]));
    let out = reproduce(&[
        "sweep-merge",
        "--inputs",
        &input_list,
        "--out",
        path_str(&merged),
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("ayd-sweep-manifest v1"), "{stderr}");
    assert!(stderr.contains("re-run the shard"), "{stderr}");
    assert!(!merged.exists(), "a refused merge must not write output");

    let out = reproduce(
        &[
            BASE,
            &["--shard", "0/2", "--out", path_str(&inputs[0]), "--resume"],
        ]
        .concat(),
    );
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("ayd-sweep-manifest v1"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}
