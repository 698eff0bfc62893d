//! Property suite for the **serving layer's probe path**:
//!
//! * `memo ≡ naive reference` — the memoized per-probe
//!   [`SafetyOracle::is_safe`] against the row-at-a-time
//!   [`NaiveOracle`], on random modules, random probe streams
//!   (duplicates, mixed Γ, trivial Γ) and interleaved streamed appends,
//!   with one kernel evaluation per distinct visible set;
//! * mixed-module batches through [`WorkflowOracles::probe_batch`]
//!   agree with per-oracle sequential probing, at identical kernel
//!   work, and invalid batches (unknown module, stale epoch) reject
//!   atomically;
//! * `parallel-across-modules ≡ serial-across-modules` — workflow-level
//!   sweeps ([`WorkflowSweeper::union_of_optima`],
//!   [`WorkflowSweeper::minimal_frontiers_all`]) return identical results at
//!   1/2/4/8 threads.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sv_core::safety::{IngestBatch, NaiveOracle, ProbeRequest, WorkflowOracles};
use sv_core::{
    CoreError, MemoSafetyOracle, SafetyOracle, StandaloneModule, SweepConfig, WorkflowSweeper,
};
use sv_relation::{AttrDef, AttrSet, Domain, Relation, Schema, Tuple};
use sv_workflow::library::{fig1_workflow, one_one_chain};

/// Random rows over a random schema, deduplicated on a random input
/// split so the FD `I → O` holds; returns the pieces so callers can
/// build a module from a prefix and stream the rest.
fn random_module_stream(
    rng: &mut StdRng,
    k_max: usize,
    max_rows: usize,
) -> (Schema, AttrSet, AttrSet, Vec<Tuple>) {
    let k = rng.gen_range(3..=k_max);
    let ni = rng.gen_range(1..k);
    let schema = Schema::new(
        (0..k)
            .map(|i| AttrDef {
                name: format!("a{i}"),
                domain: Domain::new(rng.gen_range(2u32..=3)),
            })
            .collect::<Vec<_>>(),
    );
    let mut ids: Vec<u32> = (0..k as u32).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.gen_range(0..=i));
    }
    let inputs = AttrSet::from_indices(&ids[..ni]);
    let outputs = inputs.complement(k);
    let mut rows: Vec<Tuple> = Vec::new();
    let mut seen_inputs: Vec<Vec<u32>> = Vec::new();
    for _ in 0..rng.gen_range(1..=max_rows) {
        let row: Vec<u32> = (0..k)
            .map(|i| rng.gen_range(0..schema.attr(sv_relation::AttrId(i as u32)).domain.size()))
            .collect();
        let input_part: Vec<u32> = inputs.iter().map(|a| row[a.index()]).collect();
        if !seen_inputs.contains(&input_part) {
            seen_inputs.push(input_part);
            rows.push(Tuple::new(row));
        }
    }
    (schema, inputs, outputs, rows)
}

/// A random `(visible word, Γ)` probe stream with duplicates and the
/// trivial/unsatisfiable Γ boundaries mixed in.
fn random_probes(rng: &mut StdRng, k: usize, len: usize) -> Vec<(u64, u128)> {
    let space = 1u64 << k;
    let mut probes: Vec<(u64, u128)> = (0..len)
        .map(|_| {
            (
                rng.gen_range(0..space),
                [1u128, 2, 3, 4, 8, 1 << 20][rng.gen_range(0..6usize)],
            )
        })
        .collect();
    if !probes.is_empty() {
        let dup = probes[rng.gen_range(0..probes.len())];
        probes.push(dup);
        probes.push(dup);
    }
    probes
}

/// The memo's answer to every probe, one `is_safe` call each.
fn memo_answers(memo: &MemoSafetyOracle, probes: &[(u64, u128)]) -> Vec<bool> {
    probes
        .iter()
        .map(|&(w, g)| memo.is_safe(&AttrSet::from_word(w), g))
        .collect()
}

/// The row-at-a-time reference answer to every probe.
fn naive_answers(m: &StandaloneModule, probes: &[(u64, u128)]) -> Vec<bool> {
    let naive = NaiveOracle::new(m.clone());
    probes
        .iter()
        .map(|&(w, g)| naive.is_safe(&AttrSet::from_word(w), g))
        .collect()
}

#[test]
fn memo_probes_equal_naive() {
    let mut rng = StdRng::seed_from_u64(0x5E17E);
    for trial in 0..12 {
        let (schema, inputs, outputs, rows) = random_module_stream(&mut rng, 7, 48);
        let rel = Relation::from_rows(schema, rows).expect("valid rows");
        let m = StandaloneModule::new(rel, inputs, outputs).expect("FD by construction");
        let k = m.k();
        let len = rng.gen_range(1..40);
        let probes = random_probes(&mut rng, k, len);

        let memo = MemoSafetyOracle::new(m.clone());
        assert_eq!(
            memo_answers(&memo, &probes),
            naive_answers(&m, &probes),
            "trial {trial}"
        );
        // Repeats and other Γ values on a known visible set cost no
        // kernel work: a fresh memo asked each distinct non-trivial
        // visible set once does the same number of evaluations.
        let fresh = MemoSafetyOracle::new(m);
        let mut distinct: Vec<u64> = probes
            .iter()
            .filter(|&&(_, g)| g > 1)
            .map(|&(w, _)| w)
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        for w in distinct {
            let _ = fresh.privacy_level(&AttrSet::from_word(w));
        }
        assert_eq!(memo.misses(), fresh.misses(), "trial {trial}");
    }
}

#[test]
fn memo_probes_stay_correct_across_streamed_appends() {
    let mut rng = StdRng::seed_from_u64(0xA99E4D);
    for trial in 0..10 {
        let (schema, inputs, outputs, rows) = random_module_stream(&mut rng, 6, 40);
        if rows.len() < 2 {
            continue;
        }
        let split = rng.gen_range(1..rows.len());
        let base = Relation::from_rows(schema.clone(), rows[..split].to_vec()).unwrap();
        let mut memo = MemoSafetyOracle::new(
            StandaloneModule::new(base, inputs.clone(), outputs.clone()).unwrap(),
        );
        let k = memo.k();
        let probes = random_probes(&mut rng, k, 24);
        // Warm the cache, stream the rest in small batches, re-probe
        // after every append; each answer must match a from-scratch
        // oracle over the accumulated rows and the naive reference.
        assert_eq!(
            memo_answers(&memo, &probes),
            naive_answers(memo.module(), &probes),
            "trial {trial} before appends"
        );
        let mut streamed = split;
        while streamed < rows.len() {
            let end = (streamed + rng.gen_range(1..=3usize)).min(rows.len());
            memo.append_execution(&rows[streamed..end]).unwrap();
            streamed = end;
            let rebuilt_rel = Relation::from_rows(schema.clone(), rows[..streamed].to_vec());
            let rebuilt = MemoSafetyOracle::new(
                StandaloneModule::new(rebuilt_rel.unwrap(), inputs.clone(), outputs.clone())
                    .unwrap(),
            );
            let answers = memo_answers(&memo, &probes);
            assert_eq!(
                answers,
                memo_answers(&rebuilt, &probes),
                "trial {trial} after {streamed} rows"
            );
            assert_eq!(
                answers,
                naive_answers(rebuilt.module(), &probes),
                "trial {trial} after {streamed} rows: naive"
            );
        }
    }
}

#[test]
fn mixed_module_batches_match_sequential_probing() {
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    let w = fig1_workflow();
    let oracles = WorkflowOracles::for_workflow(&w, 1 << 20).unwrap();
    let ids = oracles.module_ids();
    // A long interleaved stream over all modules.
    let requests: Vec<ProbeRequest> = (0..120)
        .map(|_| {
            let id = ids[rng.gen_range(0..ids.len())];
            ProbeRequest::new(
                id,
                AttrSet::from_word(rng.gen_range(0u64..32)),
                [1u128, 2, 4, 8][rng.gen_range(0..4usize)],
            )
        })
        .collect();
    let outcomes = oracles.probe_batch(&requests).unwrap();
    let fresh = WorkflowOracles::for_workflow(&w, 1 << 20).unwrap();
    for (r, o) in requests.iter().zip(&outcomes) {
        let seq = fresh.oracle(r.module).unwrap().is_safe(&r.visible, r.gamma);
        assert_eq!(o.safe, seq, "{r:?}");
    }
    // The router does exactly the sequential path's kernel work.
    assert_eq!(oracles.total_misses(), fresh.total_misses());
}

#[test]
fn streaming_batches_reject_stale_epochs_atomically() {
    let w = fig1_workflow();
    let oracles = WorkflowOracles::for_workflow_streaming(&w).unwrap();
    let ids = oracles.module_ids();
    let row = w.run(&[0, 0]).unwrap();
    oracles.ingest_batch(&IngestBatch::new(vec![row])).unwrap();
    // Clients conditioned on epoch 1 are served…
    let current: Vec<ProbeRequest> = ids
        .iter()
        .map(|&id| ProbeRequest::new(id, AttrSet::new(), 2).at_epoch(1))
        .collect();
    let outcomes = oracles.probe_batch(&current).unwrap();
    assert!(outcomes.iter().all(|o| o.epoch == 1));
    let calls = oracles.total_calls();
    // …but after more provenance arrives, the same conditioned batch is
    // rejected outright, touching no oracle.
    let row = w.run(&[1, 1]).unwrap();
    oracles.ingest_batch(&IngestBatch::new(vec![row])).unwrap();
    let err = oracles.probe_batch(&current).unwrap_err();
    assert!(matches!(
        err,
        CoreError::StaleEpoch {
            expected: 1,
            actual: 2,
            ..
        }
    ));
    assert_eq!(oracles.total_calls(), calls, "no memo state touched");
    // Re-conditioning on the new epoch serves again.
    let refreshed: Vec<ProbeRequest> = current.iter().map(|r| r.clone().at_epoch(2)).collect();
    assert!(oracles.probe_batch(&refreshed).is_ok());
}

#[test]
fn cross_module_parallel_sweeps_equal_serial_at_mixed_thread_counts() {
    for workflow in [one_one_chain(3, 3), fig1_workflow()] {
        let gamma = 2u128;
        let costs = vec![1u64; workflow.schema().len()];
        // Serial-across-modules reference.
        let serial =
            WorkflowSweeper::for_workflow(&workflow, 1 << 20, SweepConfig::serial()).unwrap();
        let serial_costs = serial.localize_costs(&costs);
        let (serial_hidden, serial_cost, serial_stats) =
            serial.union_of_optima(&serial_costs, gamma).unwrap();
        let gammas = vec![gamma; serial.module_ids().len()];
        let (serial_sets, _) = serial.minimal_frontiers_all(&gammas).unwrap();

        for threads in [1usize, 2, 4, 8] {
            let sweeper =
                WorkflowSweeper::for_workflow(&workflow, 1 << 20, SweepConfig::parallel(threads))
                    .unwrap();
            let wc = sweeper.localize_costs(&costs);
            let (hidden, cost, stats) = sweeper.union_of_optima(&wc, gamma).unwrap();
            assert_eq!(
                (hidden, cost),
                (serial_hidden.clone(), serial_cost),
                "threads={threads}"
            );
            // Counters are deterministic too: the same masks are swept
            // whatever the module/shard scheduling.
            assert_eq!(stats.lattice, serial_stats.lattice, "threads={threads}");
            let (sets, s) = sweeper.minimal_frontiers_all(&gammas).unwrap();
            assert_eq!(sets, serial_sets, "threads={threads}");
            assert_eq!(s.visited + s.pruned, s.lattice);
            // A repeat answers from the epoch memo with zero new sweeps.
            let before = sweeper.sweeps_performed();
            let _ = sweeper.minimal_frontiers_all(&gammas).unwrap();
            let _ = sweeper.union_of_optima(&wc, gamma).unwrap();
            assert_eq!(sweeper.sweeps_performed(), before, "threads={threads}");
        }
    }
}
