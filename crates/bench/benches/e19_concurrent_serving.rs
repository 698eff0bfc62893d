//! E19 — **concurrent serving**: M serving threads firing probe batches
//! at **one shared [`WorkflowOracles`] instance** (`probe_batch` takes
//! `&self` since the concurrent-read serving tier landed).
//!
//! Workload: a 4-private-module one-one workflow (`k = 20`, 1024 rows
//! per module) behind a single shared instance; a seeded stream of
//! [`TOTAL`] mixed-module `(V, Γ)` probes drawn from per-module pools of
//! [`WORD_POOL`] views, cut into [`BATCH`]-sized windows that
//! [`THREADS`] = 1/2/4/8 serving threads claim round-robin. Two regimes
//! per thread count, measured wall-clock (best of [`EPISODES`]) and
//! reported as ns/probe into `BENCH_serve.json` via `--save-baseline`:
//!
//! * `warm_batch/threads/T` — the instance is pre-warmed with the whole
//!   stream, so every probe is a memo hit: the pure concurrent-read
//!   regime the sharded level cache is built for (read-locks only).
//! * `cold_batch/threads/T` — a fresh instance per episode: threads
//!   race on group-index publication (exactly one builds per attribute
//!   set) and on memo fill.
//!
//! **Derived gate metrics** (all recorded mechanically):
//!
//! * `warm_scaling/speedup_4t` = warm t=1 / warm t=4.
//! * `gate/warm_scaling_ok` — `1.0` iff the within-run warm-batch floor
//!   holds: ≥ [`WARM_SCALING_FLOOR`]× at 4 threads vs 1 **when the
//!   runner has ≥ 4 cores**; on fewer cores (this build container is
//!   single-core) no wall-clock speedup is possible by construction, so
//!   the metric is `1.0` and the gate is counter-only. CI exact-gates
//!   this at `1.0`.
//! * `sweep_ablation/misses_{shared,private}` — the shared-vs-private
//!   memo sweep ablation: a Γ-family of lattice enumerations over a
//!   `k = 12` module, statically sharded across 4 workers. `shared` is
//!   the serving-tier design (all workers and all Γ share one
//!   concurrent oracle — the level cache answers every Γ, so later
//!   sweeps are pure hits); `private` is the pre-concurrency design
//!   (each worker of each sweep owns a cold clone). CI floors
//!   `private / shared` at 2×, machine-independently.
//!
//! Answers are asserted identical to the one-at-a-time kernel path on
//! every episode (correctness anchor).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use sv_core::safety::{ProbeRequest, WorkflowOracles};
use sv_core::{MemoSafetyOracle, SafetyOracle, StandaloneModule};
use sv_relation::AttrSet;
use sv_workflow::{library, ModuleId, Workflow};

/// Private modules (the one-one chain length).
const MODULES: usize = 4;
/// Boolean wires per module level: `k = 2 × WIRES = 20` attributes and
/// `2^WIRES = 1024` provenance rows per module relation.
const WIRES: usize = 10;
/// Total probes per episode.
const TOTAL: usize = 160_000;
/// Distinct visible-set words per module the stream draws from.
const WORD_POOL: usize = 64;
/// Probes per serving window (one `probe_batch` call).
const BATCH: usize = 2_048;
/// Episodes per configuration; the best (minimum) wall-clock is kept.
const EPISODES: usize = 3;
/// Γ values in the stream.
const GAMMAS: [u128; 5] = [2, 4, 8, 16, 64];
/// Serving-thread counts.
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Within-run warm-batch speedup floor at 4 threads vs 1 (gated on
/// runners with ≥ 4 cores).
const WARM_SCALING_FLOOR: f64 = 2.0;
/// Enumeration budget for materializing the module relations.
const BUDGET: u128 = 1 << 20;

fn workflow() -> Workflow {
    library::one_one_chain(MODULES, WIRES)
}

/// The seeded mixed-module probe stream, pre-routed into serving
/// windows of [`ProbeRequest`]s (marshalling is the transport tier's
/// job; the measured engine is `probe_batch`).
fn make_windows(seed: u64, ids: &[ModuleId]) -> Vec<Vec<ProbeRequest>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let k = 2 * WIRES;
    let space = 1u64 << k;
    let pools: Vec<Vec<u64>> = (0..MODULES)
        .map(|_| (0..WORD_POOL).map(|_| rng.gen_range(0..space)).collect())
        .collect();
    (0..TOTAL)
        .map(|_| {
            let module = rng.gen_range(0..MODULES);
            ProbeRequest::new(
                ids[module],
                AttrSet::from_word(pools[module][rng.gen_range(0..WORD_POOL)]),
                GAMMAS[rng.gen_range(0..GAMMAS.len())],
            )
        })
        .collect::<Vec<_>>()
        .chunks(BATCH)
        .map(<[ProbeRequest]>::to_vec)
        .collect()
}

/// Serves every window through **one shared instance** from `threads`
/// workers claiming windows off an atomic cursor. Returns (elapsed ns,
/// answers in stream order).
fn serve_concurrent(
    oracles: &WorkflowOracles,
    windows: &[Vec<ProbeRequest>],
    threads: usize,
) -> (f64, Vec<bool>) {
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let mut per_window: Vec<(usize, Vec<bool>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut mine: Vec<(usize, Vec<bool>)> = Vec::new();
                    loop {
                        let w = cursor.fetch_add(1, Ordering::Relaxed);
                        if w >= windows.len() {
                            break;
                        }
                        let outcomes = oracles.probe_batch(&windows[w]).expect("valid batch");
                        mine.push((w, outcomes.into_iter().map(|o| o.safe).collect()));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("serving thread"))
            .collect()
    });
    let ns = start.elapsed().as_nanos() as f64;
    per_window.sort_unstable_by_key(|(w, _)| *w);
    (ns, per_window.into_iter().flat_map(|(_, a)| a).collect())
}

/// One-at-a-time kernel reference answers (the correctness anchor).
fn reference_answers(wf: &Workflow, windows: &[Vec<ProbeRequest>]) -> Vec<bool> {
    let ids: Vec<ModuleId> = wf.private_modules();
    let modules: Vec<StandaloneModule> = ids
        .iter()
        .map(|&id| StandaloneModule::from_workflow_module(wf, id, BUDGET).unwrap())
        .collect();
    windows
        .iter()
        .flatten()
        .map(|r| {
            let idx = ids.iter().position(|&id| id == r.module).unwrap();
            modules[idx].is_safe(&r.visible, r.gamma)
        })
        .collect()
}

fn run_concurrent_serving(_c: &mut Criterion) {
    let wf = workflow();
    let shared = WorkflowOracles::for_workflow(&wf, BUDGET).unwrap();
    let ids = shared.module_ids();
    let windows = make_windows(0xE19, &ids);
    let reference = reference_answers(&wf, &windows);

    // Pre-warm the shared instance: after this, the whole stream is
    // memo hits (the word pools are fixed).
    let (_, warm_answers) = serve_concurrent(&shared, &windows, 1);
    assert_eq!(warm_answers, reference, "warm-up answers match kernel");

    // Warm rows: concurrent reads against the fully warmed memo.
    for &t in &THREADS {
        let mut best = f64::INFINITY;
        for _ in 0..EPISODES {
            let (ns, answers) = serve_concurrent(&shared, &windows, t);
            assert_eq!(answers, reference, "warm threads={t}");
            best = best.min(ns / TOTAL as f64);
        }
        criterion::record_metric(
            &format!("e19_concurrent_serving/warm_batch/threads/{t}"),
            best,
        );
    }

    // Cold rows: a fresh shared instance per episode — threads race on
    // once-per-set group publication and memo fill.
    for &t in &THREADS {
        let mut best = f64::INFINITY;
        for _ in 0..EPISODES {
            let fresh = WorkflowOracles::for_workflow(&wf, BUDGET).unwrap();
            let (ns, answers) = serve_concurrent(&fresh, &windows, t);
            assert_eq!(answers, reference, "cold threads={t}");
            best = best.min(ns / TOTAL as f64);
        }
        criterion::record_metric(
            &format!("e19_concurrent_serving/cold_batch/threads/{t}"),
            best,
        );
    }

    // Derived scaling metrics + the conditional within-run gate.
    let warm = |t: usize| {
        criterion::recorded_value(&format!("e19_concurrent_serving/warm_batch/threads/{t}"))
            .expect("recorded above")
    };
    let speedup_4t = warm(1) / warm(4);
    criterion::record_metric("e19_concurrent_serving/warm_scaling/speedup_4t", speedup_4t);
    criterion::record_metric(
        "e19_concurrent_serving/warm_scaling/speedup_8t",
        warm(1) / warm(8),
    );
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let scaling_ok = if cores >= 4 {
        // Multi-core: the warm 4-thread row must actually beat 1 thread
        // by the floor.
        f64::from(u8::from(speedup_4t >= WARM_SCALING_FLOOR))
    } else {
        // Single-core container: wall-clock speedup is impossible by
        // construction; the gate is counter-only (the sweep-ablation
        // and e18 miss counters below / in BENCH_serve.json).
        1.0
    };
    criterion::record_metric("e19_concurrent_serving/gate/warm_scaling_ok", scaling_ok);

    // ── Shared-vs-private-memo sweep ablation ──────────────────────
    // A Γ-family of full-lattice enumerations over a k = 12 one-one
    // module, statically sharded across 4 workers (static shards keep
    // the private-memo miss counter deterministic on any machine).
    let sweep_wf = library::one_one_chain(1, 6);
    let module = StandaloneModule::from_workflow_module(&sweep_wf, ModuleId(0), BUDGET).unwrap();
    let k = module.k();
    let lattice = 1u64 << k;
    let workers = 4usize;
    let shard = |w: usize| -> std::ops::Range<u64> {
        let per = lattice / workers as u64;
        let start = w as u64 * per;
        start..if w + 1 == workers {
            lattice
        } else {
            start + per
        }
    };
    // Shared: ONE concurrent oracle across all workers and all Γ — the
    // level cache answers every Γ, so only the first sweep pays kernel
    // work.
    let shared_oracle = MemoSafetyOracle::new(module.clone());
    for &gamma in &GAMMAS {
        std::thread::scope(|s| {
            for w in 0..workers {
                let oracle = &shared_oracle;
                let range = shard(w);
                s.spawn(move || {
                    for mask in range {
                        let hidden = AttrSet::from_word(mask);
                        let _ = oracle.is_safe_hidden(&hidden, gamma);
                    }
                });
            }
        });
    }
    let misses_shared = shared_oracle.misses();
    // Private: the pre-concurrency design — every (Γ, worker) gets a
    // cold clone, so nothing is ever reused across shards or sweeps.
    let mut misses_private = 0u64;
    for &gamma in &GAMMAS {
        let per_worker: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let module = module.clone();
                    let range = shard(w);
                    s.spawn(move || {
                        let oracle = MemoSafetyOracle::new(module);
                        for mask in range {
                            let hidden = AttrSet::from_word(mask);
                            let _ = oracle.is_safe_hidden(&hidden, gamma);
                        }
                        oracle.misses()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        misses_private += per_worker.iter().sum::<u64>();
    }
    criterion::record_metric(
        "e19_concurrent_serving/sweep_ablation/misses_shared",
        misses_shared as f64,
    );
    criterion::record_metric(
        "e19_concurrent_serving/sweep_ablation/misses_private",
        misses_private as f64,
    );
    criterion::record_metric(
        "e19_concurrent_serving/sweep_ablation/reuse_factor",
        misses_private as f64 / misses_shared as f64,
    );

    // Environment rows for the first multi-core refresh.
    criterion::record_metric(
        "e19_concurrent_serving/env/available_parallelism",
        cores as f64,
    );
    criterion::record_metric("e19_concurrent_serving/env/probes", TOTAL as f64);
    criterion::record_metric("e19_concurrent_serving/env/batch", BATCH as f64);
    criterion::record_metric("e19_concurrent_serving/env/word_pool", WORD_POOL as f64);
    criterion::record_metric("e19_concurrent_serving/env/modules", MODULES as f64);
}

criterion_group!(benches, run_concurrent_serving);
criterion_main!(benches);
