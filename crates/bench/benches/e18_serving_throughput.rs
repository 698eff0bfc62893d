//! E18 — **serving throughput**: the memoized batch router against the
//! one-at-a-time kernel path, at "many instances × many modules" scale.
//!
//! Workload: [`INSTANCES`] independent instances of a 4-private-module
//! one-one workflow (`k = 20`, 1024 rows per module), serving a seeded stream of
//! [`TOTAL`] ≥ 10⁵ mixed-module `(V, Γ)` probes. Visible sets are drawn
//! from a per-module pool of [`WORD_POOL`] views — the serving-tier
//! regime where heavy traffic keeps re-asking a bounded set of
//! questions (different users, different Γ, same views).
//!
//! Three strategies answer the **same stream** (answers are asserted
//! identical) and are measured wall-clock over whole episodes (best of
//! [`EPISODES`]), reported as ns/probe **and** probes/sec into
//! `BENCH_serve.json` via `--save-baseline`:
//!
//! * `one_at_a_time` — the pre-batching serving path: every probe is a
//!   single [`StandaloneModule::is_safe`] call into its module's kernel
//!   (group indexes warm, but each request pays a full Lemma-4 pair
//!   pass).
//! * `batched` — the serving engine: the stream is cut into
//!   [`BATCH`]-sized mixed-module windows, each routed through
//!   [`WorkflowOracles::probe_batch`] (whole-batch validation, then
//!   every request through its module oracle's memoized `is_safe`; a
//!   visible set costs one kernel evaluation however often it recurs).
//! * `sequential_memo` — ablation row isolating the router's share: the
//!   same memoized oracles, probed one call at a time with no batch
//!   routing or validation. The batched engine may trail it by at most
//!   the router's overhead (floored at 0.8); the gated ≥ 3× floor is
//!   `one_at_a_time / batched`.
//!
//! **Multi-core scaling rows** (ROADMAP "multi-core scaling
//! measurement"): the batched engine also runs with instances
//! work-stolen across 1/2/4/8 serving threads
//! (`…/serve_scaling/threads/T`), plus an `env/available_parallelism`
//! row, so the first multi-core runner refreshes the scaling curve
//! mechanically by re-running this bench with `--save-baseline`.
//!
//! **Pair-pass ablation** (`…/pair_pass/{sort_reference,counting}`, ns
//! per pass): the kernel's Lemma-4 pair pass
//! ([`InternedRelation::min_group_distinct`], in the thread's pair-pass
//! buffer, as the sweeps run it: the stamp scan over each key's cached
//! buckets, the keys being built by the kernel's pass first, and no
//! pass for a degenerate shape; the row keeps its `counting` name)
//! against the sort-based pass the counting sort replaced
//! ([`sv_bench::sortpass`], in a caller buffer), both on warm groupings
//! of `one_one_chain(2, 11)` module 0 (22 attributes, 2,048 rows) over
//! seeded visible sets hiding 1–7 attributes, answers asserted equal.
//!
//! CI gates (see `docs/BENCHMARKS.md`): absolute 2× regression bound on
//! the batched ns/probe, within-run `one_at_a_time / batched ≥ 3` and
//! `sort_reference / counting ≥ 2`.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use sv_bench::sortpass;
use sv_core::safety::{ProbeRequest, WorkflowOracles};
use sv_core::{SafetyOracle, StandaloneModule};
use sv_relation::{AttrSet, InternedRelation};
use sv_workflow::{library, ModuleId, Workflow};

/// Independent workflow instances (tenants).
const INSTANCES: usize = 8;
/// Private modules per instance (the one-one chain length).
const MODULES: usize = 4;
/// Boolean wires per module level: `k = 2 × WIRES = 20` attributes and
/// `2^WIRES = 1024` provenance rows per module relation — the E16
/// serving-scale module, where a per-probe Lemma-4 pair pass is real
/// work to amortize.
const WIRES: usize = 10;
/// Total probes per episode (the ISSUE's ≥ 10⁵ acceptance point).
const TOTAL: usize = 320_000;
/// Distinct visible-set words per module the stream draws from.
const WORD_POOL: usize = 64;
/// Probes per mixed-module serving window.
const BATCH: usize = 4_096;
/// Episodes per strategy; the best (minimum) wall-clock is kept.
const EPISODES: usize = 3;
/// Γ values in the stream (the modules' levels are powers of two up to
/// 2⁶, so these mix safe, unsafe and boundary answers).
const GAMMAS: [u128; 5] = [2, 4, 8, 16, 64];
/// Serving-thread counts for the instance-sharded scaling rows.
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Enumeration budget for materializing the module relations.
const BUDGET: u128 = 1 << 20;
/// Wires per level of the pair-pass ablation's `one_one_chain(2, _)`:
/// module 0 has 22 attributes and 2,048 rows.
const PAIR_WIRES: usize = 11;
/// Seeded visible sets per hidden-set size in the pair-pass ablation.
const PAIR_SETS: usize = 64;
/// Hidden-set sizes of the pair-pass ablation.
const PAIR_HIDDEN: std::ops::RangeInclusive<u32> = 1..=7;
/// Timed rounds per pair-pass variant (alternating); the best is kept.
const PAIR_ROUNDS: usize = 15;

/// One serving request: which instance/module, which view, which Γ.
#[derive(Clone, Copy)]
struct Probe {
    instance: usize,
    module: usize,
    word: u64,
    gamma: u128,
}

fn workflow() -> Workflow {
    library::one_one_chain(MODULES, WIRES)
}

/// The seeded probe stream: interleaved across instances and modules,
/// visible words drawn from a per-module pool with heavy repetition.
fn make_stream(seed: u64) -> Vec<Probe> {
    let mut rng = StdRng::seed_from_u64(seed);
    let k = 2 * WIRES;
    let space = 1u64 << k;
    let pools: Vec<Vec<u64>> = (0..MODULES)
        .map(|_| (0..WORD_POOL).map(|_| rng.gen_range(0..space)).collect())
        .collect();
    (0..TOTAL)
        .map(|_| {
            let module = rng.gen_range(0..MODULES);
            Probe {
                instance: rng.gen_range(0..INSTANCES),
                module,
                word: pools[module][rng.gen_range(0..WORD_POOL)],
                gamma: GAMMAS[rng.gen_range(0..GAMMAS.len())],
            }
        })
        .collect()
}

/// The per-instance standalone modules of the one-at-a-time baseline
/// (each instance materializes its own copies, as separate tenants do).
fn build_modules(wf: &Workflow) -> Vec<Vec<StandaloneModule>> {
    (0..INSTANCES)
        .map(|_| {
            wf.private_modules()
                .iter()
                .map(|&id| StandaloneModule::from_workflow_module(wf, id, BUDGET).unwrap())
                .collect()
        })
        .collect()
}

/// One one-at-a-time episode: every probe is a single kernel call.
fn run_one_at_a_time(stream: &[Probe], wf: &Workflow) -> (f64, Vec<bool>) {
    let instances = build_modules(wf);
    let mut answers = Vec::with_capacity(stream.len());
    let start = Instant::now();
    for p in stream {
        let m = &instances[p.instance][p.module];
        answers.push(m.is_safe(&AttrSet::from_word(p.word), p.gamma));
    }
    (start.elapsed().as_nanos() as f64, answers)
}

/// One sequential-memo episode: same oracles as the batched engine,
/// probed one call at a time. Visible sets are materialized up front —
/// every strategy receives its requests in ready-to-serve form; the
/// timed section is the answering engine alone.
fn run_sequential_memo(stream: &[Probe], wf: &Workflow) -> (f64, Vec<bool>) {
    let instances: Vec<WorkflowOracles> = (0..INSTANCES)
        .map(|_| WorkflowOracles::for_workflow(wf, BUDGET).unwrap())
        .collect();
    let ids = instances[0].module_ids();
    let prepared: Vec<(usize, ModuleId, AttrSet, u128)> = stream
        .iter()
        .map(|p| {
            (
                p.instance,
                ids[p.module],
                AttrSet::from_word(p.word),
                p.gamma,
            )
        })
        .collect();
    let mut answers = Vec::with_capacity(stream.len());
    let start = Instant::now();
    for (inst, id, visible, gamma) in &prepared {
        let oracle = instances[*inst].oracle(*id).expect("covered module");
        answers.push(oracle.is_safe(visible, *gamma));
    }
    (start.elapsed().as_nanos() as f64, answers)
}

/// The batched episode's pre-routed stream: per serving window, each
/// instance's sub-batch of [`ProbeRequest`]s plus the stream positions
/// its outcomes scatter back to. Built once per episode, outside the
/// timed section (marshalling requests is the transport tier's job; the
/// measured engine is [`WorkflowOracles::probe_batch`]).
type RoutedStream = Vec<Vec<(usize, Vec<usize>, Vec<ProbeRequest>)>>;

fn route_stream(stream: &[Probe], ids: &[ModuleId]) -> RoutedStream {
    stream
        .chunks(BATCH)
        .enumerate()
        .map(|(w, window)| {
            let mut positions: Vec<Vec<usize>> = (0..INSTANCES).map(|_| Vec::new()).collect();
            let mut requests: Vec<Vec<ProbeRequest>> = (0..INSTANCES).map(|_| Vec::new()).collect();
            for (off, p) in window.iter().enumerate() {
                positions[p.instance].push(w * BATCH + off);
                requests[p.instance].push(ProbeRequest::new(
                    ids[p.module],
                    AttrSet::from_word(p.word),
                    p.gamma,
                ));
            }
            positions
                .into_iter()
                .zip(requests)
                .enumerate()
                .filter(|(_, (_, reqs))| !reqs.is_empty())
                .map(|(i, (pos, reqs))| (i, pos, reqs))
                .collect()
        })
        .collect()
}

/// One batched episode: the pre-routed stream is served window by
/// window through each instance's batch engine. Returns (elapsed ns,
/// answers, total kernel misses across instances).
fn run_batched(stream: &[Probe], wf: &Workflow) -> (f64, Vec<bool>, u64) {
    let instances: Vec<WorkflowOracles> = (0..INSTANCES)
        .map(|_| WorkflowOracles::for_workflow(wf, BUDGET).unwrap())
        .collect();
    let ids = instances[0].module_ids();
    let routed = route_stream(stream, &ids);
    let mut answers = vec![false; stream.len()];
    let start = Instant::now();
    for window in &routed {
        for (inst, positions, requests) in window {
            let outcomes = instances[*inst].probe_batch(requests).expect("valid batch");
            for (&pos, o) in positions.iter().zip(&outcomes) {
                answers[pos] = o.safe;
            }
        }
    }
    let ns = start.elapsed().as_nanos() as f64;
    let misses = instances.iter().map(WorkflowOracles::total_misses).sum();
    (ns, answers, misses)
}

/// One sharded episode: instances are work-stolen across `threads`
/// serving workers, each serving its claimed instance's whole substream
/// through the batch engine — since PR 5 `probe_batch` takes `&self`,
/// the workers borrow the instances directly (no per-instance mutex;
/// e19 measures many threads against *one* shared instance). Returns
/// elapsed ns.
fn run_batched_sharded(stream: &[Probe], wf: &Workflow, threads: usize) -> f64 {
    let instances: Vec<WorkflowOracles> = (0..INSTANCES)
        .map(|_| WorkflowOracles::for_workflow(wf, BUDGET).unwrap())
        .collect();
    let ids = instances[0].module_ids();
    // Pre-split the stream per instance (routing is the serving tier's
    // job; the measured section is the engines).
    let mut per_instance: Vec<Vec<ProbeRequest>> = (0..INSTANCES).map(|_| Vec::new()).collect();
    for p in stream {
        per_instance[p.instance].push(ProbeRequest::new(
            ids[p.module],
            AttrSet::from_word(p.word),
            p.gamma,
        ));
    }
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads.min(INSTANCES) {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= INSTANCES {
                    break;
                }
                let oracles = &instances[i];
                for window in per_instance[i].chunks(BATCH) {
                    oracles.probe_batch(window).expect("valid batch");
                }
            });
        }
    });
    start.elapsed().as_nanos() as f64
}

/// One Lemma-4 pair pass for a `(key, probe)` word pair, resolving both
/// groupings from the kernel's cache. The sort reference runs in the
/// caller's buffer; the kernel's pass ignores it and runs in the
/// thread's own pair-pass buffer.
type PairPass = fn(&InternedRelation, (u64, u64), &mut Vec<u64>) -> usize;

fn sort_reference_pass(ir: &InternedRelation, (k, p): (u64, u64), scratch: &mut Vec<u64>) -> usize {
    let (key, probe) = (AttrSet::from_word(k), AttrSet::from_word(p));
    sortpass::min_group_distinct(&ir.group_index(&key), &ir.group_index(&probe), scratch)
}

fn counting_pass(ir: &InternedRelation, (k, p): (u64, u64), _: &mut Vec<u64>) -> usize {
    ir.min_group_distinct(&AttrSet::from_word(k), &AttrSet::from_word(p))
}

/// The pair-pass ablation: ns per Lemma-4 pair pass for the sort-based
/// reference and the kernel's pass, on the same warm groupings
/// and `(key, probe)` words. Both variants resolve their two groupings
/// from the kernel's cache on every pass, so they differ only in the
/// pass: the kernel's, as the sweeps run it, reads bucketed keys and
/// answers degenerate shapes without a pass. Returns (sort reference
/// ns, counting ns).
fn run_pair_pass_ablation() -> (f64, f64) {
    let wf = library::one_one_chain(2, PAIR_WIRES);
    let m = StandaloneModule::from_workflow_module(&wf, ModuleId(0), BUDGET).unwrap();
    let ir = m.kernel();
    let (iw, ow) = (
        m.inputs().as_word().expect("k = 22 fits a word"),
        m.outputs().as_word().expect("k = 22 fits a word"),
    );
    let mut rng = StdRng::seed_from_u64(0xE18_9A55);
    let mut pairs: Vec<(u64, u64)> = Vec::new();
    for hidden in PAIR_HIDDEN {
        for _ in 0..PAIR_SETS {
            let mut h = 0u64;
            while h.count_ones() < hidden {
                h |= 1 << rng.gen_range(0..m.k());
            }
            pairs.push((iw & !h, ow & !h));
        }
    }
    let mut scratch = Vec::new();
    let mut answers = |pass: PairPass| -> Vec<usize> {
        pairs.iter().map(|&q| pass(ir, q, &mut scratch)).collect()
    };
    // Warm-up (builds every grouping, grows both buffers) and the
    // correctness anchor. The kernel's pass goes first, so that every
    // key grouping is built as a key (bucketed), the layout the sweeps'
    // passes read; the sort reference then reads per-row ids, derived
    // once from the buckets.
    let kernel = answers(counting_pass);
    assert_eq!(answers(sort_reference_pass), kernel, "pair passes disagree");
    let mut round = |pass: PairPass| {
        let start = Instant::now();
        for &q in &pairs {
            std::hint::black_box(pass(ir, q, &mut scratch));
        }
        start.elapsed().as_nanos() as f64 / pairs.len() as f64
    };
    let (mut best_sort, mut best_counting) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..PAIR_ROUNDS {
        best_sort = best_sort.min(round(sort_reference_pass));
        best_counting = best_counting.min(round(counting_pass));
    }
    (best_sort, best_counting)
}

fn run_serving_experiment(_c: &mut Criterion) {
    let wf = workflow();
    let mut best_one = f64::INFINITY;
    let mut best_memo = f64::INFINITY;
    let mut best_batched = f64::INFINITY;
    let mut batched_misses = 0u64;
    for episode in 0..EPISODES {
        let stream = make_stream(0xE18 + episode as u64);
        let (one_ns, one_answers) = run_one_at_a_time(&stream, &wf);
        let (memo_ns, memo_answers) = run_sequential_memo(&stream, &wf);
        let (batched_ns, batched_answers, misses) = run_batched(&stream, &wf);
        // Correctness anchor: all three strategies agree on every probe.
        assert_eq!(one_answers, memo_answers, "episode {episode}");
        assert_eq!(one_answers, batched_answers, "episode {episode}");
        best_one = best_one.min(one_ns / TOTAL as f64);
        best_memo = best_memo.min(memo_ns / TOTAL as f64);
        best_batched = best_batched.min(batched_ns / TOTAL as f64);
        batched_misses = misses;
    }
    for (name, ns) in [
        ("one_at_a_time", best_one),
        ("sequential_memo", best_memo),
        ("batched", best_batched),
    ] {
        criterion::record_metric(&format!("e18_serving_throughput/ns_per_probe/{name}"), ns);
        criterion::record_metric(
            &format!("e18_serving_throughput/probes_per_sec/{name}"),
            1e9 / ns,
        );
    }
    criterion::record_metric(
        "e18_serving_throughput/speedup_batched_vs_one_at_a_time",
        best_one / best_batched,
    );
    criterion::record_metric(
        "e18_serving_throughput/speedup_batched_vs_sequential_memo",
        best_memo / best_batched,
    );
    criterion::record_metric(
        "e18_serving_throughput/oracle/kernel_misses_batched",
        batched_misses as f64,
    );
    let (sort_ns, counting_ns) = run_pair_pass_ablation();
    criterion::record_metric("e18_serving_throughput/pair_pass/sort_reference", sort_ns);
    criterion::record_metric("e18_serving_throughput/pair_pass/counting", counting_ns);

    // Multi-core scaling rows: instances sharded across serving threads.
    let stream = make_stream(0xE18);
    for &t in &THREADS {
        let mut best = f64::INFINITY;
        for _ in 0..EPISODES {
            best = best.min(run_batched_sharded(&stream, &wf, t) / TOTAL as f64);
        }
        criterion::record_metric(
            &format!("e18_serving_throughput/serve_scaling/threads/{t}"),
            best,
        );
    }
    if let (Some(t1), Some(t8)) = (
        criterion::recorded_value("e18_serving_throughput/serve_scaling/threads/1"),
        criterion::recorded_value("e18_serving_throughput/serve_scaling/threads/8"),
    ) {
        criterion::record_metric("e18_serving_throughput/serve_scaling/speedup_8t", t1 / t8);
    }
    criterion::record_metric(
        "e18_serving_throughput/env/available_parallelism",
        std::thread::available_parallelism().map_or(0.0, |p| p.get() as f64),
    );
    criterion::record_metric("e18_serving_throughput/env/instances", INSTANCES as f64);
    criterion::record_metric("e18_serving_throughput/env/modules", MODULES as f64);
    criterion::record_metric("e18_serving_throughput/env/probes", TOTAL as f64);
    criterion::record_metric("e18_serving_throughput/env/word_pool", WORD_POOL as f64);
    criterion::record_metric("e18_serving_throughput/env/batch", BATCH as f64);
}

criterion_group!(benches, run_serving_experiment);
criterion_main!(benches);
