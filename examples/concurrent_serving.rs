//! Concurrent serving: **many reader threads, one shared oracle
//! instance**.
//!
//! Earlier revisions served exactly one batch at a time: every probe
//! surface took `&mut self`, so a deployment either serialized all
//! clients behind a mutex or gave each thread a cold private clone.
//! The concurrent-read serving tier makes every probe `&self` — the
//! memoized level caches are sharded read-mostly maps, the kernel's
//! group caches publish once per attribute set, and probe buffers come
//! from a pool — so N serving threads share one *warm* instance. This
//! example walks that deployment shape on the Figure-1 workflow:
//!
//! 1. build one [`WorkflowOracles`] and warm it with a first batch;
//! 2. fire mixed-module [`ProbeRequest`] batches from 4 serving threads
//!    at the **same** instance (no locks, no clones — just `&shared`),
//!    asserting every answer equals a sequential reference;
//! 3. show the cache economics: the memo keeps one level per distinct
//!    question of the whole concurrent phase, however many threads
//!    asked;
//! 4. ingest a new execution through the one write path
//!    ([`IngestBatch`], `&self`, each module behind its own lock) and
//!    show epoch-conditioned clients detecting the change
//!    ([`StaleEpoch`]) while re-conditioned clients are served
//!    concurrently again.
//!
//! Run with: `cargo run --example concurrent_serving`
//!
//! [`StaleEpoch`]: secure_view::privacy::CoreError::StaleEpoch

use secure_view::privacy::safety::{IngestBatch, ProbeRequest, SafetyOracle, WorkflowOracles};
use secure_view::privacy::CoreError;
use secure_view::relation::AttrSet;
use secure_view::workflow::library::fig1_workflow;

/// Serving threads sharing the one instance.
const THREADS: usize = 4;
/// Batches per thread in the concurrent phase.
const BATCHES: usize = 8;

fn main() {
    let wf = fig1_workflow();
    println!("Concurrent serving over the Figure-1 workflow\n");

    // ── 1. One shared instance (streaming mode), plus a sequential
    //       reference instance fed identically ─────────────────────────
    let shared = WorkflowOracles::for_workflow_streaming(&wf).expect("fig1 is valid");
    let reference = WorkflowOracles::for_workflow_streaming(&wf).expect("fig1 is valid");
    let ids = shared.module_ids();
    // Ingest three of the four possible executions up front, one frame
    // each; [1, 0] is held back so phase 4 has a genuinely new row to
    // stream in.
    for inputs in [[0u32, 0], [0, 1], [1, 1]] {
        let frame = IngestBatch::new(vec![wf.run(&inputs).expect("fig1 executes")]);
        shared.ingest_batch(&frame).expect("valid provenance");
        reference.ingest_batch(&frame).expect("valid provenance");
    }

    // Deterministic mixed-module request streams, one per thread.
    let stream = |t: usize, b: usize| -> Vec<ProbeRequest> {
        (0..16)
            .map(|i| {
                let id = ids[(t + i) % ids.len()];
                let word = ((t * 31 + b * 7 + i * 13) % 32) as u64;
                let gamma = [2u128, 4, 8][(t + b + i) % 3];
                ProbeRequest::new(id, AttrSet::from_word(word), gamma)
            })
            .collect()
    };

    // ── 2. Four threads fire batches at the SAME instance ────────────
    let answered: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let shared = &shared;
                s.spawn(move || {
                    let mut answered = 0;
                    for b in 0..BATCHES {
                        let outcomes = shared
                            .probe_batch(&stream(t, b))
                            .expect("all modules covered, no epoch conditions");
                        answered += outcomes.len();
                    }
                    answered
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("thread")).sum()
    });
    println!("phase 1: {THREADS} threads served {answered} probes against one shared instance");

    // Every concurrent answer equals the sequential reference.
    for t in 0..THREADS {
        for b in 0..BATCHES {
            let requests = stream(t, b);
            let outcomes = shared.probe_batch(&requests).expect("repeat batch");
            for (r, o) in requests.iter().zip(&outcomes) {
                let seq = reference
                    .oracle(r.module)
                    .expect("covered")
                    .is_safe(&r.visible, r.gamma);
                assert_eq!(o.safe, seq, "concurrent == sequential for {r:?}");
            }
        }
    }
    println!("         every answer matches the sequential reference oracle");

    // ── 3. Cache economics ───────────────────────────────────────────
    // The memo holds one level per distinct question, whatever the
    // schedule. Racing threads may each evaluate a question that is
    // still cold, so the miss count is only bounded by it.
    let distinct: usize = shared.iter().map(|(_, o)| o.cached_levels()).sum();
    println!(
        "         cache: {} probes answered, {distinct} distinct questions cached\n",
        shared.total_calls(),
    );
    let misses = shared.total_misses();
    assert!(misses >= distinct as u64 && misses <= 32 * ids.len() as u64);

    // ── 4. The single writer: append + epoch-conditioned clients ────
    // Each module has its own epoch (duplicate projections don't tick
    // it), so clients condition per module.
    let epochs_before: Vec<u64> = ids
        .iter()
        .map(|&id| shared.oracle(id).expect("covered").relation_epoch())
        .collect();
    let conditioned: Vec<ProbeRequest> = ids
        .iter()
        .zip(&epochs_before)
        .map(|(&id, &e)| ProbeRequest::new(id, AttrSet::new(), 2).at_epoch(e))
        .collect();
    assert!(shared.probe_batch(&conditioned).is_ok());

    // A fresh execution arrives through the one writer: `ingest_batch`
    // validates the whole frame, then appends each module under that
    // module's own write lock, so a probe only ever waits for the one
    // module being appended and never sees half a frame.
    let frame = IngestBatch::new(vec![wf.run(&[1, 0]).expect("fig1 executes")]);
    shared.ingest_batch(&frame).expect("valid provenance");
    reference.ingest_batch(&frame).expect("valid provenance");

    match shared.probe_batch(&conditioned) {
        Err(CoreError::StaleEpoch {
            module,
            expected,
            actual,
        }) => println!(
            "phase 2: epoch-conditioned batch rejected after ingest \
             (module {module}: expected epoch {expected}, now {actual})"
        ),
        other => panic!("stale batch must be rejected, got {other:?}"),
    }

    // Re-conditioned clients are served concurrently again, and still
    // agree with the reference.
    let refreshed: Vec<ProbeRequest> = ids
        .iter()
        .map(|&id| {
            let e = shared.oracle(id).expect("covered").relation_epoch();
            ProbeRequest::new(id, AttrSet::new(), 2).at_epoch(e)
        })
        .collect();
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let shared = &shared;
            let reference = &reference;
            let refreshed = &refreshed;
            s.spawn(move || {
                let outcomes = shared.probe_batch(refreshed).expect("fresh epoch");
                for (r, o) in refreshed.iter().zip(&outcomes) {
                    assert_eq!(o.epoch, r.epoch.expect("conditioned"));
                    let seq = reference
                        .oracle(r.module)
                        .expect("covered")
                        .is_safe(&r.visible, r.gamma);
                    assert_eq!(o.safe, seq);
                }
            });
        }
    });
    println!("         re-conditioned clients served concurrently at the new epochs\n");
    println!("ok: concurrent ≡ sequential, one writer, epoch-guarded serving");
}
