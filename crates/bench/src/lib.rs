//! [`loadgen`] holds the `ayd-serve` load generator behind the `loadgen`
//! binary that the CI smoke steps drive.

pub mod loadgen;
