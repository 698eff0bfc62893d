//! Offline stand-in for the `criterion` benchmark harness.
//!
//! The build environment has no network access, so this workspace ships
//! a small wall-clock harness exposing the subset of criterion's API the
//! `sv-bench` suite uses: [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::bench_with_input`] / `bench_function`,
//! [`BenchmarkId`], [`Bencher::iter`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros. Benches must set
//! `harness = false` in their manifest (as real criterion also requires).
//!
//! Measurement model: a short warm-up, then adaptive batching until the
//! measured window exceeds ~60 ms (or an iteration cap), reporting the
//! mean ns/iteration over the best-of-three windows. Each benchmark also
//! emits one machine-readable line
//! `BENCHJSON {"id": "...", "ns_per_iter": ...}` so scripts can collect
//! results.
//!
//! Positional arguments filter benchmark ids by substring (like real
//! criterion): `cargo bench --bench e16_parallel_sweep -- stats` skips
//! every timed benchmark whose id lacks `stats`. Explicit
//! [`record_metric`] calls are unaffected — the CI sweep-counter gate
//! uses exactly this to produce the deterministic `stats/` rows without
//! paying for the timing groups.
//!
//! ### Mechanical baselines: `--save-baseline <file>`
//!
//! Every measurement (and every explicit [`record_metric`] call) is also
//! collected in an in-process registry. When a bench binary is invoked
//! with `--save-baseline <file>` (i.e. `cargo bench -p sv-bench --bench
//! e9_cardinality -- --save-baseline BENCH_kernel.json`), the registry
//! is written to `<file>` as `{"generated_by": …, "results": {id: ns}}`
//! on exit — **merging** with the file's existing `results`, so running
//! several bench binaries against the same file accumulates one
//! baseline. The repo's `BENCH_*.json` files are produced exactly this
//! way (no hand-editing), and the `bench_gate` binary in `sv-bench`
//! compares fresh runs against them in CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use std::fmt::Display;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub use std::hint::black_box;

/// Process-wide registry of `(id, value)` results backing
/// `--save-baseline` and [`recorded_value`].
fn registry() -> &'static Mutex<Vec<(String, f64)>> {
    static RESULTS: OnceLock<Mutex<Vec<(String, f64)>>> = OnceLock::new();
    RESULTS.get_or_init(|| Mutex::new(Vec::new()))
}

fn register(id: &str, value: f64) {
    let mut r = registry().lock().expect("registry lock");
    if let Some(slot) = r.iter_mut().find(|(k, _)| k == id) {
        slot.1 = value;
    } else {
        r.push((id.to_string(), value));
    }
}

/// Records an arbitrary named metric (a pruned-node count, a speedup
/// ratio, …) into the baseline registry and emits its `BENCHJSON` line,
/// so non-timing observability numbers land in saved `BENCH_*.json`
/// files next to the timings.
pub fn record_metric(id: &str, value: f64) {
    // Plain `{}` keeps full f64 fidelity (ratios and fractions would be
    // destroyed by fixed-point truncation).
    println!(
        "BENCHJSON {{\"id\": \"{}\", \"ns_per_iter\": {value}}}",
        json::escape(id)
    );
    register(id, value);
}

/// The value most recently recorded under `id` (measurement or metric)
/// in this process — lets a bench compute derived metrics such as
/// speedups from its own group's timings.
#[must_use]
pub fn recorded_value(id: &str) -> Option<f64> {
    registry()
        .lock()
        .expect("registry lock")
        .iter()
        .find(|(k, _)| k == id)
        .map(|(_, v)| *v)
}

/// Writes the registry to `path` in the mechanical baseline format,
/// merging with the `results` of an existing file at the same path.
///
/// # Errors
/// Propagates filesystem errors (an unparseable existing file is
/// ignored, not an error — it is overwritten).
pub fn save_baseline(path: &str) -> std::io::Result<()> {
    let mut merged: Vec<(String, f64)> = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| json::Json::parse(&text).ok())
        .and_then(|doc| doc.get("results").map(json::Json::flatten_numbers))
        .unwrap_or_default();
    for (id, v) in registry().lock().expect("registry lock").iter() {
        if let Some(slot) = merged.iter_mut().find(|(k, _)| k == id) {
            slot.1 = *v;
        } else {
            merged.push((id.clone(), *v));
        }
    }
    merged.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::new();
    out.push_str("{\n  \"generated_by\": \"crates/criterion shim --save-baseline (best-of-3 batched wall-clock windows, ns/iter; metrics recorded verbatim)\",\n  \"results\": {\n");
    for (i, (id, v)) in merged.iter().enumerate() {
        let sep = if i + 1 == merged.len() { "" } else { "," };
        // `{v:?}` (= Display for finite f64) round-trips the value; a
        // bare integer-valued float still prints a `.0`, keeping the
        // file unambiguously floating-point.
        out.push_str(&format!("    \"{}\": {v:?}{sep}\n", json::escape(id)));
    }
    out.push_str("  }\n}\n");
    std::fs::write(path, out)
}

/// Handles the bench binary's CLI contract: honors
/// `--save-baseline <file>` and ignores anything else (cargo's filter
/// arguments). Called by [`criterion_main!`]-generated `main`s after all
/// groups ran.
pub fn finalize_from_args() {
    let args: Vec<String> = std::env::args().collect();
    for window in args.windows(2) {
        if window[0] == "--save-baseline" {
            if let Err(e) = save_baseline(&window[1]) {
                eprintln!("--save-baseline {}: {e}", window[1]);
                std::process::exit(1);
            }
            // Bench binaries run with CWD = the package root, so echo
            // where a relative path actually landed.
            let shown = std::fs::canonicalize(&window[1])
                .map_or_else(|_| window[1].clone(), |p| p.display().to_string());
            println!("baseline saved to {shown}");
        }
    }
}

/// Top-level harness handle (stand-in for `criterion::Criterion`).
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        let _ = self;
        println!("\n── group {name} ──");
        BenchmarkGroup {
            name: name.to_string(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Benchmarks a single function outside any group.
    pub fn bench_function<F>(&mut self, id: &str, f: F)
    where
        F: FnMut(&mut Bencher),
    {
        run_one(id, f);
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    _marker: std::marker::PhantomData<&'a ()>,
}

impl BenchmarkGroup<'_> {
    /// Benchmarks `f` with an input parameter baked into the id.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        run_one(&format!("{}/{}", self.name, id.0), |b| f(b, input));
        self
    }

    /// Benchmarks `f` under `id` within this group.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&format!("{}/{id}", self.name), f);
        self
    }

    /// Ends the group (no-op; present for API compatibility).
    pub fn finish(self) {}
}

/// A benchmark identifier `name/parameter`.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Builds `name/parameter`.
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        Self(format!("{name}/{parameter}"))
    }
}

/// Timing driver handed to each benchmark closure.
pub struct Bencher {
    ns_per_iter: f64,
}

impl Bencher {
    /// Measures `f`, retaining the best (lowest mean) of three windows.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up: a handful of calls, bounded by time.
        let warm_start = Instant::now();
        let mut warm_iters = 0u64;
        while warm_iters < 3 || (warm_start.elapsed().as_millis() < 10 && warm_iters < 1000) {
            black_box(f());
            warm_iters += 1;
        }
        // Estimate a batch size targeting ~20 ms per window.
        let per_iter = warm_start.elapsed().as_nanos().max(1) / u128::from(warm_iters);
        let batch = (20_000_000u128 / per_iter.max(1)).clamp(1, 100_000) as u64;

        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let ns = t.elapsed().as_nanos() as f64 / batch as f64;
            if ns < best {
                best = ns;
            }
        }
        self.ns_per_iter = best;
    }
}

/// Positional CLI arguments of the bench invocation, interpreted — like
/// real criterion — as substring filters on benchmark ids. Flags and
/// their values (`--save-baseline <file>`) are not filters. An empty
/// list means "run everything". Disabled under `cargo test`, where
/// positional arguments are libtest name filters, not bench filters.
fn filters() -> &'static [String] {
    static FILTERS: OnceLock<Vec<String>> = OnceLock::new();
    FILTERS.get_or_init(|| {
        if cfg!(test) {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            if a == "--save-baseline" {
                let _ = args.next();
            } else if !a.starts_with("--") {
                out.push(a);
            }
        }
        out
    })
}

fn run_one<F: FnMut(&mut Bencher)>(id: &str, mut f: F) {
    let filters = filters();
    if !filters.is_empty() && !filters.iter().any(|pat| id.contains(pat.as_str())) {
        return; // filtered out, like `cargo bench -- <substring>`
    }
    let mut b = Bencher {
        ns_per_iter: f64::NAN,
    };
    f(&mut b);
    if b.ns_per_iter.is_nan() {
        println!("{id:<56} (no measurement: Bencher::iter never called)");
        return;
    }
    println!("{:<56} {:>14.0} ns/iter", id, b.ns_per_iter);
    println!(
        "BENCHJSON {{\"id\": \"{}\", \"ns_per_iter\": {:.1}}}",
        json::escape(id),
        b.ns_per_iter
    );
    register(id, b.ns_per_iter);
}

/// Collects benchmark functions into a runnable group function
/// (stand-in for `criterion::criterion_group!`).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Emits `main` running the listed groups, then honoring
/// `--save-baseline` (stand-in for `criterion::criterion_main!`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            $crate::finalize_from_args();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        let mut ran = false;
        g.bench_with_input(BenchmarkId::new("t", 1), &1u32, |b, &x| {
            b.iter(|| black_box(x) + 1);
            ran = true;
        });
        g.finish();
        assert!(ran);
        assert!(recorded_value("shim/t/1").is_some());
    }

    #[test]
    fn save_baseline_merges_with_existing_file() {
        let dir = std::env::temp_dir().join("criterion-shim-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json");
        let path = path.to_str().unwrap();
        std::fs::write(
            path,
            "{\"generated_by\": \"x\", \"results\": {\"old/id\": 5.0, \"metric/a\": 2.0}}",
        )
        .unwrap();
        record_metric("metric/a", 9.5);
        record_metric("metric/b", 1.0);
        save_baseline(path).unwrap();
        let doc = json::Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let results = doc.get("results").unwrap().flatten_numbers();
        // Old entries survive, overlapping ids are overwritten.
        assert!(results.contains(&("old/id".into(), 5.0)));
        assert!(results.contains(&("metric/a".into(), 9.5)));
        assert!(results.contains(&("metric/b".into(), 1.0)));
        std::fs::remove_file(path).unwrap();
    }
}
