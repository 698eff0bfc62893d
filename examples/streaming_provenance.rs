//! Streaming provenance: **live ingest** of workflow executions through
//! the incremental interned kernel.
//!
//! The batch examples materialize each module's full relation up front.
//! A live deployment doesn't have that luxury: provenance arrives one
//! workflow execution at a time, and the privacy monitor must keep
//! answering "is the published view still Γ-private?" without
//! rebuilding its indexes and caches per row. This example runs that
//! scenario end to end on the paper's Figure-1 workflow:
//!
//! 1. start one [`WorkflowSweeper`] in streaming mode (every private
//!    module empty — nothing observed, everything vacuously safe); its
//!    [`WorkflowOracles`] store is the one copy of the modules that both
//!    the sweeps and the probes read;
//! 2. ingest each execution once, as it happens ([`Workflow::run`] →
//!    an [`IngestBatch`] frame → `sweeper.oracles().ingest_batch`),
//!    watching module epochs tick only for modules whose relation
//!    actually gained a row;
//! 3. after each arrival, re-derive the minimal safe hidden sets — the
//!    epoch-stamped sweep memos re-sweep **only the modules that
//!    changed**;
//! 4. keep a standing `is_safe(V, Γ)` question alive on the same store
//!    and watch the monotone shortcut answer it from the cache when
//!    appends provably could not break it. The sweeps probe the same
//!    store, so its miss counts include their kernel evaluations.
//!
//! Run with: `cargo run --example streaming_provenance`

use secure_view::privacy::safety::{IngestBatch, SafetyOracle};
use secure_view::privacy::{SweepConfig, WorkflowSweeper};
use secure_view::relation::AttrSet;
use secure_view::workflow::library::fig1_workflow;

fn main() {
    let wf = fig1_workflow();
    println!(
        "Live ingest over the Figure-1 workflow ({} modules)\n",
        wf.len()
    );

    // ── 1. One streaming monitor: nothing observed yet ──────────────
    let sweeper = WorkflowSweeper::for_workflow_streaming(&wf, SweepConfig::auto())
        .expect("fig1 is structurally valid");
    // The module store: sweeps read it, probes answer from it, and
    // every execution enters it exactly once.
    let store = sweeper.oracles();
    let ingest = |inputs: &[u32]| {
        let row = wf.run(inputs).expect("in-domain inputs");
        store
            .ingest_batch(&IngestBatch::new(vec![row]))
            .expect("valid provenance")
    };
    let gamma = 4;
    let ids = sweeper.module_ids();
    let (frontier, _) = sweeper.module_minimal_frontier(ids[0], gamma).unwrap();
    let sets: Vec<AttrSet> = frontier.iter().map(AttrSet::from_word).collect();
    println!(
        "before any execution: m1's minimal safe hidden sets = {sets:?} \
         (vacuously safe — nothing to protect yet)"
    );

    // The hospital's standing question: does hiding {a2, a4} keep m1
    // Γ=4-private? (Example 3's weighted optimum.)
    let standing_hidden = AttrSet::from_indices(&[1, 3]);

    // ── 2./3. Executions arrive one at a time ───────────────────────
    for (step, inputs) in [[0u32, 0], [0, 1], [1, 0], [1, 1]].iter().enumerate() {
        let new_rows = ingest(inputs);

        let sweeps_before = sweeper.sweeps_performed();
        let mut antichain_sizes = Vec::new();
        for &id in &ids {
            let (frontier, _) = sweeper.module_minimal_frontier(id, gamma).unwrap();
            antichain_sizes.push(frontier.len());
        }
        let resweeps = sweeper.sweeps_performed() - sweeps_before;
        let epochs: Vec<u64> = store.epoch_snapshot().iter().map(|&(_, e)| e).collect();
        let standing_ok = store
            .oracle(ids[0])
            .unwrap()
            .is_safe_hidden(&standing_hidden, gamma);
        println!(
            "execution {}: x = {:?} → +{} module rows | epochs {:?} | \
             re-swept {} of {} modules | antichain sizes {:?} | \
             hide {{a2,a4}} safe: {}",
            step + 1,
            inputs,
            new_rows,
            epochs,
            resweeps,
            ids.len(),
            antichain_sizes,
            standing_ok,
        );
    }

    // Re-deriving now, with no new provenance, costs zero sweeps.
    let before = sweeper.sweeps_performed();
    for &id in &ids {
        let _ = sweeper.module_minimal_frontier(id, gamma).unwrap();
    }
    println!(
        "\nsteady state: re-deriving all requirement lists performed {} new sweeps",
        sweeper.sweeps_performed() - before
    );

    // A duplicate execution changes nothing — memos stay warm.
    let added = ingest(&[0, 0]);
    for &id in &ids {
        let _ = sweeper.module_minimal_frontier(id, gamma).unwrap();
    }
    println!(
        "duplicate execution: +{added} rows, {} new sweeps",
        sweeper.sweeps_performed() - before
    );

    // ── 4. The monotone shortcut at the oracle layer ────────────────
    {
        let m1 = store.oracle(ids[0]).unwrap();
        let misses_before = m1.misses();
        let safe = m1.is_safe_hidden(&standing_hidden, gamma);
        println!(
            "\nstanding probe after the stream: safe = {safe} \
             (m1's store memo: {} kernel evaluations in total, the sweeps' probes included; \
             {} monotone shortcuts, {} revalidations)",
            m1.misses(),
            m1.monotone_shortcut_hits(),
            m1.revalidations(),
        );
        assert_eq!(m1.misses(), misses_before, "no new kernel work needed");
    }

    // The streamed state is exactly the batch state: all four
    // executions happened, so the streamed m1 equals the materialized
    // Example-3 module and its weighted optimum is the familiar one.
    let costs = sweeper.localize_costs(&[10, 3, 9, 2, 9, 1, 1]);
    let (found, _) = sweeper
        .module_min_cost(ids[0], &costs, gamma)
        .expect("k = 5 is enumerable");
    let (hidden, cost) = found.expect("Γ = 4 attainable");
    println!(
        "m1 weighted Secure-View optimum over streamed provenance: hide {:?} at cost {cost}",
        hidden
    );
    assert_eq!(hidden, AttrSet::from_indices(&[1, 3]));
    assert_eq!(cost, 5);
    println!("\nstreamed state ≡ batch state ✓");
}
