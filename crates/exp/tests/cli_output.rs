//! Subprocess tests of the `reproduce` binary's output streams: machine
//! formats keep stdout clean, stay deterministic across thread counts, a
//! flag the CLI does not know fails before anything runs, and every table
//! and figure keeps its committed bytes.

use std::process::Command;

fn reproduce(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce binary runs")
}

#[test]
fn csv_output_has_no_notice_at_all() {
    let output = reproduce(&["table2", "--csv"]);
    assert!(output.status.success());
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.is_empty(), "unexpected stderr: {stderr}");
}

#[test]
fn sweep_smoke_runs_deterministically_across_thread_counts() {
    // End-to-end determinism: the sweep subcommand produces identical stdout
    // for 1 and 2 worker threads (and with the cache disabled).
    let base = ["sweep", "--no-sim", "--smoke", "--csv", "--threads"];
    let one = reproduce(&[&base[..], &["1"]].concat());
    let two = reproduce(&[&base[..], &["2"]].concat());
    let two_nocache = reproduce(&[&base[..], &["2", "--no-cache"]].concat());
    assert!(one.status.success() && two.status.success() && two_nocache.status.success());
    assert_eq!(one.stdout, two.stdout);
    assert_eq!(one.stdout, two_nocache.stdout);
    assert!(!one.stdout.is_empty());
}

#[test]
fn json_is_an_unknown_flag() {
    let output = reproduce(&["table2", "--json"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(output.stdout.is_empty(), "stdout: {:?}", output.stdout);
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("unknown flag `--json`"), "{stderr}");
    assert!(stderr.contains("usage: reproduce"), "{stderr}");
}

/// `reproduce all --smoke` (every table and figure) and `reproduce table2
/// table3 --csv`, byte for byte against the outputs committed under
/// `tests/golden/`. A change that moves a byte on purpose rewrites the
/// golden (`reproduce ARGS > crates/exp/tests/golden/FILE`) and says why.
#[test]
fn every_table_and_figure_keeps_its_committed_bytes() {
    for (args, golden) in [
        (
            &["all", "--smoke"][..],
            include_str!("golden/all_smoke.txt"),
        ),
        (
            &["table2", "table3", "--csv"][..],
            include_str!("golden/table2_table3.csv"),
        ),
    ] {
        let output = reproduce(args);
        assert!(output.status.success(), "reproduce {}", args.join(" "));
        let stdout = String::from_utf8(output.stdout).unwrap();
        assert!(
            stdout == golden,
            "reproduce {} differs from its golden: {} bytes against {}; first \
             differing line {:?}",
            args.join(" "),
            stdout.len(),
            golden.len(),
            stdout
                .lines()
                .zip(golden.lines())
                .position(|(a, b)| a != b)
                .map(|line| line + 1)
        );
    }
}
