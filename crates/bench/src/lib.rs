//! # sv-bench — benchmark harness for `secure-view`
//!
//! One Criterion bench per runtime-scaling experiment (`benches/`),
//! plus the [`experiments`] support code backing
//! `src/bin/experiments.rs`, which prints the quality tables
//! (approximation ratios, oracle-call counts, world counts) committed
//! as `crates/bench/experiments.txt`, and the [`baseline`] comparison logic behind
//! `src/bin/bench_gate.rs`, the CI bench-regression gate over the
//! committed `BENCH_*.json` files.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod experiments;
pub mod flatscan;
pub mod layerscan;
pub mod sortpass;
