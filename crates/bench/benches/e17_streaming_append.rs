//! E17 — **streaming provenance**: batched appends through the interned
//! kernel vs. rebuilding the kernel (and losing every memo above it)
//! per batch.
//!
//! Workload: a `k = 8` module (4 inputs × 4 outputs, domain 64 each,
//! output = a fixed hash of the input so the FD `I -> O` holds) with
//! `N = 10^5` base executions, then `BATCHES` batches of `BATCH_ROWS`
//! arriving executions (mostly fresh inputs, a few duplicates to
//! exercise set-semantics dedup). After every batch the live monitor
//! re-asks four standing `is_safe(V, Γ)` questions.
//!
//! Two maintenance strategies, measured wall-clock over the whole
//! stream (best of [`EPISODES`] episodes) and reported as **amortized
//! ns per appended row** into `BENCH_stream.json` via `--save-baseline`:
//!
//! * `incremental` — [`StandaloneModule::append_execution`] through a
//!   persistent [`MemoSafetyOracle`]: warm group indexes are extended
//!   in place, and the standing probes ride the epoch-stamped level
//!   cache (the monotone shortcut answers them with zero kernel work
//!   while no new visible-input group appears).
//! * `full_rebuild` — the seed behavior without streaming appends:
//!   every batch rebuilds the [`Relation`] from every row accumulated
//!   so far ([`Relation::from_rows`]: validate, sort, dedup), then the
//!   [`StandaloneModule`] (columnar build, FD re-check, cold group
//!   indexes), and a fresh oracle re-answers the standing probes from
//!   scratch.
//!
//! The CI bench gate enforces the within-run floor
//! `full_rebuild / incremental ≥ 5` (machine-independent) plus an
//! absolute regression bound on the incremental path; see
//! `docs/BENCHMARKS.md`.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::Instant;
use sv_core::safety::SafetyOracle;
use sv_core::{MemoSafetyOracle, StandaloneModule};
use sv_relation::{AttrDef, AttrSet, Domain, Relation, Schema, Tuple};

/// Base relation size (the ISSUE's `N = 10^5` acceptance point).
const N_BASE: usize = 100_000;
/// Appended rows per batch.
const BATCH_ROWS: usize = 64;
/// Number of appended batches per episode.
const BATCHES: usize = 24;
/// Episodes per strategy; the best (minimum) amortized cost is kept,
/// mirroring the criterion shim's best-of-windows policy.
const EPISODES: usize = 3;
/// Γ for the four standing safety questions.
const GAMMA: u128 = 4;

/// Per-attribute domain size (64⁴ input space ≫ N_BASE, so fresh
/// inputs keep arriving; 64² = 4096 ≪ N_BASE, so two-input projections
/// saturate and the standing probes stay shortcut-eligible).
const DOM: u32 = 64;

/// Standing hidden sets: each hides two inputs and two outputs, so the
/// visible-input grouping (64² combos) is saturated by the base rows —
/// appends cannot create new key groups and the memoized oracle may
/// answer from the cache.
const PROBE_MASKS: [u64; 4] = [0b0011_0011, 0b0011_1100, 0b1100_0011, 0b1100_1100];

/// Deterministic output mix: `o_j = mix(x, j)`, so `I -> O` holds.
fn out_val(code: u64, j: u64) -> u32 {
    let mut z = code
        .wrapping_add(j.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    (z % u64::from(DOM)) as u32
}

fn row_for_input(code: u64) -> Vec<u32> {
    let mut vals = Vec::with_capacity(8);
    for i in 0..4u64 {
        vals.push(((code >> (6 * i)) % u64::from(DOM)) as u32);
    }
    for j in 0..4u64 {
        vals.push(out_val(code, j));
    }
    vals
}

fn schema() -> Schema {
    Schema::new(
        (0..8)
            .map(|i| AttrDef {
                name: if i < 4 {
                    format!("i{}", i + 1)
                } else {
                    format!("o{}", i - 3)
                },
                domain: Domain::new(DOM),
            })
            .collect(),
    )
}

/// The deterministic stream: base rows plus per-batch appends (fresh
/// inputs with a sprinkle of base duplicates).
struct Stream {
    base: Vec<Vec<u32>>,
    batches: Vec<Vec<Tuple>>,
}

fn make_stream(seed: u64) -> Stream {
    let mut rng = StdRng::seed_from_u64(seed);
    let space = u64::from(DOM).pow(4);
    let mut seen: HashSet<u64> = HashSet::with_capacity(N_BASE * 2);
    let mut fresh_input = |rng: &mut StdRng| loop {
        let code = rng.gen_range(0u64..space);
        if seen.insert(code) {
            return code;
        }
    };
    let base: Vec<Vec<u32>> = (0..N_BASE)
        .map(|_| row_for_input(fresh_input(&mut rng)))
        .collect();
    let batches: Vec<Vec<Tuple>> = (0..BATCHES)
        .map(|b| {
            (0..BATCH_ROWS)
                .map(|i| {
                    if i % 8 == 7 {
                        // A duplicate of a base execution: must dedupe.
                        Tuple::new(base[(b * 131 + i * 17) % N_BASE].clone())
                    } else {
                        Tuple::new(row_for_input(fresh_input(&mut rng)))
                    }
                })
                .collect()
        })
        .collect();
    Stream { base, batches }
}

fn build_module(rows: Vec<Vec<u32>>) -> StandaloneModule {
    StandaloneModule::new(
        Relation::from_values(schema(), rows).expect("generated rows are in-domain"),
        AttrSet::from_indices(&[0, 1, 2, 3]),
        AttrSet::from_indices(&[4, 5, 6, 7]),
    )
    .expect("output is a function of the input")
}

fn ask_standing_probes(oracle: &mut MemoSafetyOracle) -> u32 {
    PROBE_MASKS
        .iter()
        .map(|&m| u32::from(oracle.is_safe_hidden(&AttrSet::from_word(m), GAMMA)))
        .sum()
}

/// One incremental episode: returns (elapsed ns, appended rows, final oracle).
fn run_incremental(stream: &Stream) -> (f64, usize, MemoSafetyOracle) {
    let mut oracle = MemoSafetyOracle::new(build_module(stream.base.clone()));
    // Warm the standing probes and (untimed) prime the append path's
    // dedup grouping so the timed loop measures steady state.
    ask_standing_probes(&mut oracle);
    oracle
        .append_execution(&[Tuple::new(stream.base[0].clone())])
        .expect("duplicate priming row");
    let mut appended = 0usize;
    let start = Instant::now();
    for batch in &stream.batches {
        appended += oracle.append_execution(batch).expect("valid stream");
        ask_standing_probes(&mut oracle);
    }
    (start.elapsed().as_nanos() as f64, appended, oracle)
}

/// One full-rebuild episode: per batch, rebuild the relation from every
/// row accumulated so far, then the module + oracle from scratch, and
/// re-ask probes.
fn run_rebuild(stream: &Stream) -> (f64, usize, MemoSafetyOracle) {
    let inputs = AttrSet::from_indices(&[0, 1, 2, 3]);
    let outputs = AttrSet::from_indices(&[4, 5, 6, 7]);
    let rebuild = |rows: &[Tuple]| {
        let relation = Relation::from_rows(schema(), rows.to_vec()).expect("valid stream");
        let len = relation.len();
        let module = StandaloneModule::new(relation, inputs.clone(), outputs.clone());
        (len, MemoSafetyOracle::new(module.expect("function")))
    };
    let mut acc: Vec<Tuple> = stream.base.iter().cloned().map(Tuple::new).collect();
    let (base_len, mut oracle) = rebuild(&acc);
    ask_standing_probes(&mut oracle);
    let mut len = base_len;
    let start = Instant::now();
    for batch in &stream.batches {
        acc.extend_from_slice(batch);
        (len, oracle) = rebuild(&acc);
        ask_standing_probes(&mut oracle);
    }
    (start.elapsed().as_nanos() as f64, len - base_len, oracle)
}

fn run_streaming_experiment(_c: &mut Criterion) {
    let mut best_inc = f64::INFINITY;
    let mut best_reb = f64::INFINITY;
    let mut counters: Option<(u64, u64, u64)> = None;
    for episode in 0..EPISODES {
        let stream = make_stream(0xE17 + episode as u64);
        let (inc_ns, inc_rows, inc_oracle) = run_incremental(&stream);
        let (reb_ns, reb_rows, reb_oracle) = run_rebuild(&stream);
        assert_eq!(inc_rows, reb_rows, "both strategies saw the same stream");
        assert!(inc_rows > 0);

        // Correctness anchor: the streamed oracle answers exactly like
        // the from-scratch rebuild on the standing probes.
        let inc_oracle = inc_oracle;
        for &m in &PROBE_MASKS {
            let visible = AttrSet::from_word(!m & 0xFF);
            assert_eq!(
                inc_oracle.privacy_level(&visible),
                reb_oracle.privacy_level(&visible),
                "mask {m:#b}"
            );
        }
        best_inc = best_inc.min(inc_ns / inc_rows as f64);
        best_reb = best_reb.min(reb_ns / reb_rows as f64);
        if counters.is_none() {
            counters = Some((
                inc_oracle.monotone_shortcut_hits(),
                inc_oracle.revalidations(),
                inc_oracle.relation_epoch(),
            ));
        }
    }
    criterion::record_metric(
        "e17_streaming_append/amortized_ns_per_row/incremental",
        best_inc,
    );
    criterion::record_metric(
        "e17_streaming_append/amortized_ns_per_row/full_rebuild",
        best_reb,
    );
    criterion::record_metric(
        "e17_streaming_append/speedup_incremental",
        best_reb / best_inc,
    );
    let (shortcuts, revalidations, epochs) = counters.expect("at least one episode");
    criterion::record_metric(
        "e17_streaming_append/oracle/monotone_shortcut_hits",
        shortcuts as f64,
    );
    criterion::record_metric(
        "e17_streaming_append/oracle/revalidations",
        revalidations as f64,
    );
    criterion::record_metric("e17_streaming_append/oracle/epochs", epochs as f64);
    criterion::record_metric("e17_streaming_append/env/n_base", N_BASE as f64);
    criterion::record_metric("e17_streaming_append/env/batch_rows", BATCH_ROWS as f64);
    criterion::record_metric("e17_streaming_append/env/batches", BATCHES as f64);
}

criterion_group!(benches, run_streaming_experiment);
criterion_main!(benches);
