//! E16 — the parallel work-stealing lattice sweep on a `k = 20`
//! standalone Secure-View instance (a one-one module over 10 boolean
//! wires: `2^20` hidden-set masks, `N = 1024` rows).
//!
//! Three questions, recorded into `BENCH_sweep.json` via
//! `--save-baseline`:
//!
//! 1. **Thread scaling** — branch-and-bound `min_cost_sweep` and
//!    antichain `minimal_sets_sweep` at 1/2/4/8 worker threads
//!    (`…/threads/T` ids, plus derived `…/speedup_8t` metrics). On a
//!    single-core container the speedup saturates at ~1×; the counters
//!    below are hardware-independent.
//! 2. **Monotone pruning** — visited/pruned mask counts of both sweeps
//!    (`…/stats/*` ids): the Γ = 16 antichain sweep must visit well
//!    under half of the 2²⁰-mask lattice.
//! 3. **k-scaling** — `min_cost` at `k = 12, 16, 20` on the widest
//!    thread count, charting how the sweep grows with the lattice.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sv_core::sweep::{min_cost_sweep, minimal_sets_sweep, SweepConfig};
use sv_core::{MemoSafetyOracle, StandaloneModule};
use sv_workflow::{library, ModuleId};

/// Γ for the branch-and-bound group: the optimum hides 8 wires of one
/// side (cost 8 of k = 20), so every mask cheaper than 8 must be probed
/// — a large, irregular workload for the work-stealing shards.
const GAMMA_MIN_COST: u128 = 256;

/// Γ for the antichain group: a hidden set's privacy level is
/// `2^(wires touched)`, so the minimal sets are "4 distinct wires,
/// one side each" — `2⁴ × C(10, 4) = 3360` sets. Layer 7 up is fully
/// covered by the antichain, so the layer cutoff skips > 99 % of the
/// `2^20` lattice.
const GAMMA_MINIMAL: u128 = 16;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// One-one module over `wires` boolean wires (`k = 2 × wires`).
fn one_one_module(wires: usize) -> StandaloneModule {
    let wf = library::one_one_chain(1, wires);
    StandaloneModule::from_workflow_module(&wf, ModuleId(0), 1 << 21).unwrap()
}

fn bench_thread_scaling(c: &mut Criterion) {
    let m = one_one_module(10);
    let costs = vec![1u64; m.k()];
    let mut g = c.benchmark_group("e16_parallel_sweep");
    for threads in THREADS {
        g.bench_with_input(
            BenchmarkId::new("min_cost/threads", threads),
            &threads,
            |b, &t| {
                b.iter(|| {
                    let oracle = MemoSafetyOracle::new(m.clone());
                    min_cost_sweep(&oracle, &costs, GAMMA_MIN_COST, &SweepConfig::parallel(t))
                        .unwrap()
                });
            },
        );
        g.bench_with_input(
            BenchmarkId::new("minimal_sets/threads", threads),
            &threads,
            |b, &t| {
                b.iter(|| {
                    let oracle = MemoSafetyOracle::new(m.clone());
                    minimal_sets_sweep(&oracle, GAMMA_MINIMAL, &SweepConfig::parallel(t), None)
                        .unwrap()
                });
            },
        );
    }
    g.finish();

    // Derived speedups from this run's own measurements.
    for kind in ["min_cost", "minimal_sets"] {
        let t1 = criterion::recorded_value(&format!("e16_parallel_sweep/{kind}/threads/1"));
        let t8 = criterion::recorded_value(&format!("e16_parallel_sweep/{kind}/threads/8"));
        if let (Some(t1), Some(t8)) = (t1, t8) {
            criterion::record_metric(&format!("e16_parallel_sweep/{kind}/speedup_8t"), t1 / t8);
        }
    }
    criterion::record_metric(
        "e16_parallel_sweep/env/available_parallelism",
        std::thread::available_parallelism().map_or(0.0, |p| p.get() as f64),
    );
}

fn bench_k_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("e16_parallel_sweep/scale_k");
    for wires in [6usize, 8, 10] {
        let m = one_one_module(wires);
        let costs = vec![1u64; m.k()];
        g.bench_with_input(BenchmarkId::new("min_cost/k", 2 * wires), &m, |b, m| {
            b.iter(|| {
                let oracle = MemoSafetyOracle::new(m.clone());
                min_cost_sweep(&oracle, &costs, GAMMA_MINIMAL, &SweepConfig::parallel(8)).unwrap()
            });
        });
    }
    g.finish();
}

/// Pruning-counter metrics (deterministic, hardware-independent): the
/// acceptance bar is `minimal_sets` visiting < 50 % of the `2^20`
/// lattice. These rows are gated **exactly** in CI (`bench_gate
/// --exact`), so they are recorded from scheduling-independent sweeps:
/// `min_cost` runs serially (the parallel bound propagates at thread
/// timing, so its visited count is not deterministic across runs);
/// `minimal_sets` is layer-barriered, hence deterministic at any thread
/// count.
fn record_pruning_stats(_c: &mut Criterion) {
    let m = one_one_module(10);
    let costs = vec![1u64; m.k()];
    let (_, mc) = min_cost_sweep(
        &MemoSafetyOracle::new(m.clone()),
        &costs,
        GAMMA_MIN_COST,
        &SweepConfig::serial(),
    )
    .unwrap();
    let (sets, ms) = minimal_sets_sweep(
        &MemoSafetyOracle::new(m),
        GAMMA_MINIMAL,
        &SweepConfig::parallel(8),
        None,
    )
    .unwrap();
    assert_eq!(sets.len(), 3360, "2⁴·C(10,4) minimal sets expected");
    for (kind, s) in [("min_cost", mc), ("minimal_sets", ms)] {
        let base = format!("e16_parallel_sweep/stats/{kind}");
        criterion::record_metric(&format!("{base}/lattice"), s.lattice as f64);
        criterion::record_metric(&format!("{base}/visited"), s.visited as f64);
        criterion::record_metric(&format!("{base}/pruned"), s.pruned as f64);
        criterion::record_metric(&format!("{base}/visited_fraction"), s.visited_fraction());
        // Trie-frontier counters: both sweeps enumerate only the
        // uncovered border, so the walks' emission/jump counts are the
        // whole enumeration effort. `minimal_sets` walks are
        // layer-barriered, so its counters are exact at any thread
        // count; `min_cost`'s are recorded from the serial run above.
        // `frontier_nodes` is the canonical trie shape — for `min_cost`
        // that is the discovered safe-mask antichain the border walk
        // skipped against.
        criterion::record_metric(&format!("{base}/border_visited"), s.border_visited as f64);
        criterion::record_metric(&format!("{base}/border_jumps"), s.border_jumps as f64);
        criterion::record_metric(&format!("{base}/frontier_nodes"), s.frontier_nodes as f64);
    }
}

criterion_group!(
    benches,
    bench_thread_scaling,
    bench_k_scaling,
    record_pruning_stats
);
criterion_main!(benches);
