//! Prints every quality-metric experiment table (E1–E15). The output
//! is deterministic and committed as `crates/bench/experiments.txt`;
//! CI diffs a fresh run against it:
//!
//! ```sh
//! cargo run --release -p sv-bench --bin experiments | diff -u crates/bench/experiments.txt -
//! ```

fn main() {
    for line in sv_bench::experiments::run_all() {
        println!("{line}");
    }
}
