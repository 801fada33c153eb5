//! Shared helpers for the Criterion benchmark harness.
//!
//! Every bench target regenerates one table or figure of the paper: it first
//! runs the corresponding `ayd-exp` runner once and prints the rendered rows
//! (so the bench output contains the reproduced series), then times a
//! representative slice of the computation with Criterion.
//!
//! [`loadgen`] holds the `ayd-serve` load generator shared by the `loadgen`
//! binary, the `serve_throughput` bench and the CI smoke step.

pub mod loadgen;

use ayd_sweep::RunOptions;

/// Run options used for the series printed by the benches: smoke-level
/// simulation so a full `cargo bench` stays fast while still exercising the
/// simulator.
pub fn print_options() -> RunOptions {
    RunOptions::smoke()
}

/// Run options used inside the timed Criterion closures: analytical +
/// numerical only (no simulation), so a single iteration stays in the
/// millisecond range and Criterion can sample it meaningfully.
pub fn timed_options() -> RunOptions {
    RunOptions {
        simulate: false,
        ..RunOptions::smoke()
    }
}

/// Prints a rendered table with a separating banner, so figure rows are easy to
/// locate in the bench log.
pub fn print_table(table: &ayd_exp::TextTable) {
    println!("\n================================================================");
    println!("{}", table.render());
}
