//! E20 — the bitwise-trie frontier engine vs. its retained references,
//! across lattice widths k ∈ {16, 20, 22, 24} (flat-scan era) and
//! k ∈ {20, 24, 26, 28} (border-enumeration era; one-one modules over
//! 8–14 boolean wires).
//!
//! Five recordings into `BENCH_sweep.json` via `--save-baseline`:
//!
//! 1. **Coverage microbench** (timed, CI-gated ≥ 5× within-run) —
//!    replay the k = 20 sweep's layer-5..7 coverage queries (131,784
//!    masks against the 3,360-member Γ = 16 antichain) through the flat
//!    `Vec<u64>` scan and through `Frontier::covers`
//!    (`…/covers_microbench/{flat,trie}` ids).
//! 2. **Border microbench** (timed, CI-gated ≥ 3× within-run) —
//!    enumerate layers 6..8 of the k = 24, Γ = 32 sweep (1,216,171
//!    masks, 25,344-member antichain) exhaustively with one
//!    `Frontier::covers` per mask, vs. one `uncovered_in_layer` border
//!    walk per layer emitting the same 16,555 uncovered masks
//!    (`…/border_microbench/{layer,border}` ids).
//! 3. **Sweep scaling** (`…/wall/*`, informational) — wall-clock of the
//!    trie-backed `minimal_sets_sweep` and of the budgeted
//!    flat-scan reference at each k. The flat scan completes k ≤ 22 and
//!    **must** blow [`FLAT_SCAN_BUDGET`] at k = 24; the trie sweep
//!    completes everything.
//! 4. **Border budget family** (`…/border_budget/*`,
//!    `…/layer_reference/*`, exact-gated in CI) — Γ = 8 sweeps at
//!    k ∈ {20, 24, 26, 28} under [`ENUM_BUDGET`]: the k = 28 border
//!    sweep enumerates 3,774 masks and completes, while exhaustive
//!    layer enumeration provably blows the budget (122,438 masks
//!    needed) — the PR 6 flat-scan-at-k=24 pattern, one level up.
//! 5. **Deterministic counters** (`…/stats/*`, `…/flat_reference/*`,
//!    exact-gated in CI) — per-k visited/antichain/border/node counts
//!    and the references' enumeration totals; all layer-barriered or
//!    serial, hence bit-identical on any hardware.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;
use sv_bench::flatscan::flat_scan_minimal_sets;
use sv_bench::layerscan::layer_scan_minimal_sets;
use sv_core::sweep::{minimal_sets_sweep, SweepConfig};
use sv_core::{MemoSafetyOracle, StandaloneModule};
use sv_workflow::{library, ModuleId};

/// `(wires, Γ)` per case: k = 2 × wires. Γ = 16 keeps the e16 workload
/// at k ≤ 22; k = 24 steps to Γ = 32 so the antichain density
/// (2⁵ × C(12, 5) = 25,344 members) keeps pace with the lattice.
const CASES: [(usize, u128); 4] = [(8, 16), (10, 16), (11, 16), (12, 32)];

/// Member-visit budget for the flat-scan reference: ~1.8× the k = 22
/// full-sweep cost (222.3M visits), a small fraction of the k = 24 cost
/// (> 2G visits before even leaving layer 7) — so it cleanly separates
/// "completes" from "cannot finish inside the bench budget".
const FLAT_SCAN_BUDGET: u64 = 400_000_000;

/// Wires for the Γ = 8 border-budget family: k = 2 × wires ∈
/// {20, 24, 26, 28}. Γ = 8 pins the antichain at layer 3 (8 × C(w, 3)
/// members), so the exhaustive enumeration cost Σ_{p≤5} C(k, p) grows
/// with k while the border stays a few thousand masks.
const BORDER_WIRES: [usize; 4] = [10, 12, 13, 14];

/// Enumeration budget for the layer-scan reference: exhaustive layer
/// enumeration needs Σ_{p≤5} C(k, p) materialized masks — 83,682 at
/// k = 26 (completes) but 122,438 at k = 28 (blows the budget) — while
/// the k = 28 border sweep emits only 3,774 masks in total.
const ENUM_BUDGET: u64 = 100_000;

/// One-one module over `wires` boolean wires (`k = 2 × wires`).
fn one_one_module(wires: usize) -> StandaloneModule {
    let wf = library::one_one_chain(1, wires);
    StandaloneModule::from_workflow_module(&wf, ModuleId(0), 1 << 26).unwrap()
}

/// All k-bit masks of popcount `lo..=hi`, in (popcount, mask) order —
/// the exact query stream the k = 20 sweep issues at those layers.
fn layer_masks(k: usize, lo: u32, hi: u32) -> Vec<u64> {
    let mut out = Vec::new();
    for p in lo..=hi {
        let mut mask = (1u64 << p) - 1;
        let last = mask << (k as u32 - p);
        loop {
            out.push(mask);
            if mask == last {
                break;
            }
            let c = mask & mask.wrapping_neg();
            let r = mask + c;
            mask = (((r ^ mask) >> 2) / c) | r;
        }
    }
    out
}

fn bench_covers_microbench(c: &mut Criterion) {
    let m = one_one_module(10);
    let oracle = MemoSafetyOracle::new(m);
    let (frontier, _) = minimal_sets_sweep(&oracle, 16, &SweepConfig::parallel(8), None).unwrap();
    let members: Vec<u64> = frontier.iter().collect();
    assert_eq!(members.len(), 3360, "2⁴·C(10,4) minimal sets expected");
    let queries = layer_masks(20, 5, 7);
    assert_eq!(queries.len(), 131_784, "C(20,5)+C(20,6)+C(20,7)");

    // Both paths must agree before we time anything.
    let flat_hits = queries
        .iter()
        .filter(|&&q| members.iter().any(|&m| m | q == q))
        .count();
    let trie_hits = queries.iter().filter(|&&q| frontier.covers(q)).count();
    assert_eq!(flat_hits, trie_hits);
    criterion::record_metric(
        "e20_frontier_scaling/covers_microbench/queries",
        queries.len() as f64,
    );
    criterion::record_metric(
        "e20_frontier_scaling/covers_microbench/covered",
        flat_hits as f64,
    );

    let mut g = c.benchmark_group("e20_frontier_scaling");
    g.bench_with_input(
        BenchmarkId::new("covers_microbench", "flat"),
        &queries,
        |b, qs| {
            b.iter(|| {
                let mut hits = 0usize;
                for &q in qs {
                    if members.iter().any(|&m| m | q == q) {
                        hits += 1;
                    }
                }
                black_box(hits)
            });
        },
    );
    g.bench_with_input(
        BenchmarkId::new("covers_microbench", "trie"),
        &queries,
        |b, qs| {
            b.iter(|| {
                let mut hits = 0usize;
                for &q in qs {
                    if frontier.covers(q) {
                        hits += 1;
                    }
                }
                black_box(hits)
            });
        },
    );
    g.finish();
}

/// Border-vs-layer enumeration microbench on the k = 24, Γ = 32
/// antichain (25,344 members): materialize layers 6..8 exhaustively
/// with one `covers` query per mask, vs. walk the uncovered border of
/// the same layers. Both sides produce the identical 16,555 uncovered
/// masks; the exhaustive side pays 1,216,171 enumerate+query steps to
/// find them. The within-run ratio is CI-gated ≥ 3×.
fn bench_border_microbench(c: &mut Criterion) {
    let m = one_one_module(12);
    let oracle = MemoSafetyOracle::new(m);
    let (frontier, _) = minimal_sets_sweep(&oracle, 32, &SweepConfig::parallel(8), None).unwrap();
    assert_eq!(frontier.len(), 25_344, "2⁵·C(12,5) minimal sets expected");
    let k = 24usize;
    let layers = 6u32..=8;

    // Agreement before timing: the border walk emits exactly the masks
    // the exhaustive enumeration finds uncovered.
    let mut exhaustive_uncovered = 0u64;
    let mut enumerated = 0u64;
    for &q in &layer_masks(k, *layers.start(), *layers.end()) {
        enumerated += 1;
        if !frontier.covers(q) {
            exhaustive_uncovered += 1;
        }
    }
    let border: u64 = layers
        .clone()
        .map(|p| frontier.uncovered_in_layer(p as usize).masks)
        .sum();
    assert_eq!(enumerated, 1_216_171, "C(24,6)+C(24,7)+C(24,8)");
    assert_eq!(exhaustive_uncovered, 16_555, "12,100 + 3,960 + 495");
    assert_eq!(border, exhaustive_uncovered);
    criterion::record_metric(
        "e20_frontier_scaling/border_microbench/enumerated",
        enumerated as f64,
    );
    criterion::record_metric(
        "e20_frontier_scaling/border_microbench/uncovered",
        border as f64,
    );

    let queries = layer_masks(k, *layers.start(), *layers.end());
    let mut g = c.benchmark_group("e20_frontier_scaling");
    g.bench_with_input(
        BenchmarkId::new("border_microbench", "layer"),
        &queries,
        |b, qs| {
            b.iter(|| {
                let mut uncovered = 0u64;
                for &q in qs {
                    if !frontier.covers(q) {
                        uncovered += 1;
                    }
                }
                black_box(uncovered)
            });
        },
    );
    g.bench_with_input(
        BenchmarkId::new("border_microbench", "border"),
        &layers,
        |b, ls| {
            b.iter(|| {
                let mut uncovered = 0u64;
                for p in ls.clone() {
                    uncovered += frontier.uncovered_in_layer(p as usize).masks;
                }
                black_box(uncovered)
            });
        },
    );
    g.finish();
}

/// The Γ = 8 border-budget family: the border sweep completes every
/// k ∈ {20, 24, 26, 28}, while the exhaustive layer-enumeration
/// reference completes k ≤ 26 and **must** blow [`ENUM_BUDGET`] at
/// k = 28. All counters are serial or layer-barriered — exact-gated.
fn record_border_budget(_c: &mut Criterion) {
    for wires in BORDER_WIRES {
        let k = 2 * wires;
        let m = one_one_module(wires);

        let t = Instant::now();
        let oracle = MemoSafetyOracle::new(m.clone());
        let (frontier, stats) =
            minimal_sets_sweep(&oracle, 8, &SweepConfig::parallel(8), None).unwrap();
        let border_secs = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let layer = layer_scan_minimal_sets(&m, 8, ENUM_BUDGET);
        let layer_secs = t.elapsed().as_secs_f64();

        assert_eq!(frontier.len() as u64, 8 * binom_u64(wires, 3), "k={k}");
        assert!(
            stats.border_visited <= ENUM_BUDGET,
            "k={k}: the border sweep must fit the budget the reference blows"
        );
        if layer.completed {
            assert!(k <= 26, "only k ≤ 26 fits exhaustive enumeration");
            assert_eq!(layer.sets, frontier.len() as u64, "k={k}");
            assert_eq!(layer.visited, stats.visited, "k={k}");
            assert_eq!(layer.visited, stats.border_visited, "k={k}");
        } else {
            assert_eq!(k, 28, "only k = 28 may exhaust the enumeration budget");
            assert_eq!(layer.enumerated, ENUM_BUDGET);
        }

        let base = format!("e20_frontier_scaling/border_budget/k{k}");
        criterion::record_metric(&format!("{base}/antichain"), frontier.len() as f64);
        criterion::record_metric(&format!("{base}/visited"), stats.visited as f64);
        criterion::record_metric(
            &format!("{base}/border_visited"),
            stats.border_visited as f64,
        );
        criterion::record_metric(&format!("{base}/border_jumps"), stats.border_jumps as f64);
        let base = format!("e20_frontier_scaling/layer_reference/k{k}");
        criterion::record_metric(
            &format!("{base}/completed"),
            u64::from(layer.completed) as f64,
        );
        criterion::record_metric(&format!("{base}/enumerated"), layer.enumerated as f64);
        criterion::record_metric(&format!("{base}/sets"), layer.sets as f64);
        criterion::record_metric(
            "e20_frontier_scaling/layer_reference/budget",
            ENUM_BUDGET as f64,
        );
        criterion::record_metric(
            &format!("e20_frontier_scaling/wall/border/k{k}"),
            border_secs,
        );
        criterion::record_metric(
            &format!("e20_frontier_scaling/wall/layer_reference/k{k}"),
            layer_secs,
        );
    }
}

/// `C(n, 3)`-style small binomial coefficients for the assertions above.
fn binom_u64(n: usize, r: usize) -> u64 {
    let mut c = 1u64;
    for i in 0..r {
        c = c * (n - i) as u64 / (i as u64 + 1);
    }
    c
}

/// Per-k sweeps, one shot each (multi-second at k = 24, so timed with
/// `Instant` rather than a Criterion loop). Counters are exact-gated;
/// wall-clock rows are informational.
fn record_frontier_scaling(_c: &mut Criterion) {
    for (wires, gamma) in CASES {
        let k = 2 * wires;
        let m = one_one_module(wires);

        let t = Instant::now();
        let oracle = MemoSafetyOracle::new(m.clone());
        let (frontier, stats) =
            minimal_sets_sweep(&oracle, gamma, &SweepConfig::parallel(8), None).unwrap();
        let trie_secs = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let flat = flat_scan_minimal_sets(&m, gamma, FLAT_SCAN_BUDGET);
        let flat_secs = t.elapsed().as_secs_f64();

        if flat.completed {
            assert_eq!(flat.sets, frontier.len() as u64, "k={k}");
            assert_eq!(flat.visited, stats.visited, "k={k}");
        } else {
            assert_eq!(k, 24, "only k = 24 may exhaust the flat budget");
        }
        if k == 24 {
            assert!(
                !flat.completed,
                "k = 24 must be out of reach for the flat scan"
            );
            assert_eq!(frontier.len(), 25_344, "2⁵·C(12,5) minimal sets");
        }

        let base = format!("e20_frontier_scaling/stats/k{k}");
        criterion::record_metric(&format!("{base}/lattice"), stats.lattice as f64);
        criterion::record_metric(&format!("{base}/visited"), stats.visited as f64);
        criterion::record_metric(&format!("{base}/antichain"), frontier.len() as f64);
        // Border enumeration (PR 10): per-mask coverage queries are
        // gone; the walks' emission/jump counts are the enumeration
        // effort, and both are exact at any thread count.
        criterion::record_metric(
            &format!("{base}/border_visited"),
            stats.border_visited as f64,
        );
        criterion::record_metric(&format!("{base}/border_jumps"), stats.border_jumps as f64);
        criterion::record_metric(
            &format!("{base}/frontier_nodes"),
            stats.frontier_nodes as f64,
        );
        let base = format!("e20_frontier_scaling/flat_reference/k{k}");
        criterion::record_metric(
            &format!("{base}/completed"),
            u64::from(flat.completed) as f64,
        );
        criterion::record_metric(&format!("{base}/scans"), flat.scans as f64);
        criterion::record_metric(&format!("{base}/sets"), flat.sets as f64);
        criterion::record_metric(
            "e20_frontier_scaling/flat_reference/budget",
            FLAT_SCAN_BUDGET as f64,
        );
        criterion::record_metric(&format!("e20_frontier_scaling/wall/trie/k{k}"), trie_secs);
        criterion::record_metric(&format!("e20_frontier_scaling/wall/flat/k{k}"), flat_secs);
    }
}

criterion_group!(
    benches,
    bench_covers_microbench,
    bench_border_microbench,
    record_frontier_scaling,
    record_border_budget
);
criterion_main!(benches);
