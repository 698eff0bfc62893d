//! Property suite for the **concurrent-read serving tier** (ISSUE 5):
//!
//! * `concurrent ≡ sequential ≡ naive` — N threads (up to 8) firing
//!   mixed-module [`WorkflowOracles::probe_batch`] streams at **one
//!   shared instance**, interleaved with `ingest_batch` appends
//!   between serving phases, must answer exactly like a fresh
//!   sequential reference instance fed the same appends — and like the
//!   row-at-a-time naive oracle;
//! * concurrent [`MemoSafetyOracle`] probes (mixed `is_safe`,
//!   `is_safe_hidden` and `privacy_level` forms) from many threads
//!   agree with the naive reference, across appends;
//! * [`ProbeRequest`] edge cases: the empty batch, duplicate
//!   `(module, word)` requests inside one batch, and `StaleEpoch` for a
//!   client whose epoch-conditioned batch raced a concurrent
//!   `ingest_batch`;
//! * racing writers on one store: the store's writer lock, held from
//!   `validate_batch` until `apply_batch` has published, lands each
//!   frame in every module or in none.
//!
//! The threading model under test: probes take `&self` and any number
//! of reader threads share one instance; the one writer appends whole
//! frames (`ingest_batch`, also `&self`, each module behind its own
//! lock) — the suite alternates concurrent serving phases with append
//! phases, which is exactly the interleaving a served deployment
//! exhibits.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::mpsc;
use std::time::Duration;
use sv_core::safety::{IngestBatch, NaiveOracle, ProbeRequest, WorkflowOracles};
use sv_core::{CoreError, MemoSafetyOracle, SafetyOracle, StandaloneModule};
use sv_relation::{AttrDef, AttrId, AttrSet, Domain, Relation, Schema, Tuple};
use sv_workflow::library::{fig1_workflow, one_one_chain};

/// Random rows over a random schema, deduplicated on a random input
/// split so the FD `I → O` holds (same generator as `serve_prop`).
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
    for _ in 0..rng.gen_range(2..=max_rows) {
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

#[test]
fn concurrent_memo_probes_match_naive_across_appends() {
    let mut rng = StdRng::seed_from_u64(0xC0C0);
    for trial in 0..8 {
        let (schema, inputs, outputs, rows) = random_module_stream(&mut rng, 7, 40);
        let split = 1 + rows.len() / 2;
        // The rows sent so far: the naive reference is built from these,
        // not from the memo's own row store.
        let mut model: BTreeSet<Tuple> = rows[..split].iter().cloned().collect();
        let model_relation = |model: &BTreeSet<Tuple>| {
            Relation::from_rows(schema.clone(), model.iter().cloned().collect()).unwrap()
        };
        let base = model_relation(&model);
        let mut memo = MemoSafetyOracle::new(
            StandaloneModule::new(base, inputs.clone(), outputs.clone()).unwrap(),
        );
        let k = memo.k();
        let space = 1u64 << k;
        // Per-thread probe streams with heavy cross-thread overlap, so
        // threads race on the same cache lines and shards.
        let streams: Vec<Vec<(u64, u128)>> = (0..8)
            .map(|_| {
                (0..40)
                    .map(|_| {
                        (
                            rng.gen_range(0..space),
                            [1u128, 2, 3, 4, 8][rng.gen_range(0..5usize)],
                        )
                    })
                    .collect()
            })
            .collect();

        // Phase loop: serve concurrently, then append, then serve again.
        let mut upto = split;
        loop {
            for &threads in &[2usize, 4, 8] {
                let answers: Vec<Vec<bool>> = std::thread::scope(|s| {
                    let memo = &memo;
                    let handles: Vec<_> = streams[..threads]
                        .iter()
                        .enumerate()
                        .map(|(t, stream)| {
                            s.spawn(move || {
                                stream
                                    .iter()
                                    .enumerate()
                                    .map(|(i, &(w, gamma))| {
                                        let visible = AttrSet::from_word(w);
                                        let hidden = AttrSet::from_word(!w & (space - 1));
                                        match (t + i) % 3 {
                                            // Mix every probe form across threads.
                                            0 => memo.is_safe(&visible, gamma),
                                            1 => memo.is_safe_hidden(&hidden, gamma),
                                            _ => {
                                                gamma <= 1 || memo.privacy_level(&visible) >= gamma
                                            }
                                        }
                                    })
                                    .collect()
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                // Naive reference over every row sent so far.
                let expected = model_relation(&model);
                assert_eq!(memo.module().relation(), expected, "trial {trial}");
                let naive = NaiveOracle::new(
                    StandaloneModule::new(expected, inputs.clone(), outputs.clone()).unwrap(),
                );
                for (t, stream) in streams[..threads].iter().enumerate() {
                    for (i, &(w, gamma)) in stream.iter().enumerate() {
                        assert_eq!(
                            answers[t][i],
                            naive.is_safe(&AttrSet::from_word(w), gamma),
                            "trial {trial} threads {threads} thread {t} probe {i}"
                        );
                    }
                }
            }
            if upto >= rows.len() {
                break;
            }
            let end = (upto + 2).min(rows.len());
            let batch = &rows[upto..end];
            let before = model.len();
            model.extend(batch.iter().cloned());
            assert_eq!(memo.append_execution(batch).unwrap(), model.len() - before);
            upto = end;
        }
    }
}

#[test]
fn concurrent_mixed_module_batches_match_sequential_reference() {
    let mut rng = StdRng::seed_from_u64(0x5EED5);
    for workflow in [fig1_workflow(), one_one_chain(3, 3)] {
        // One shared streaming instance (the serving deployment) and a
        // sequential reference instance fed exactly the same appends.
        let shared = WorkflowOracles::for_workflow_streaming(&workflow).unwrap();
        let reference = WorkflowOracles::for_workflow_streaming(&workflow).unwrap();
        let ids = shared.module_ids();

        // All provenance rows the workflow can produce (boolean initial
        // inputs in these library workflows), in a shuffled ingest order.
        let mut executions: Vec<Tuple> = Vec::new();
        let n_in = workflow.initial_inputs().len();
        for x in 0..(1u32 << n_in) {
            let vals: Vec<u32> = (0..n_in).map(|i| (x >> i) & 1).collect();
            executions.push(workflow.run(&vals).unwrap());
        }
        for i in (1..executions.len()).rev() {
            executions.swap(i, rng.gen_range(0..=i));
        }

        // Alternate: ingest a row into both instances, then serve a
        // concurrent mixed-module phase at 1/2/4/8 threads.
        for (round, row) in executions.iter().enumerate() {
            let frame = IngestBatch::from_rows(std::slice::from_ref(row));
            shared.ingest_batch(&frame).unwrap();
            reference.ingest_batch(&frame).unwrap();
            // Per-thread request streams, interleaving modules.
            let streams: Vec<Vec<ProbeRequest>> = (0..8)
                .map(|_| {
                    (0..24)
                        .map(|_| {
                            ProbeRequest::new(
                                ids[rng.gen_range(0..ids.len())],
                                AttrSet::from_word(rng.gen_range(0u64..64)),
                                [1u128, 2, 4, 8][rng.gen_range(0..4usize)],
                            )
                        })
                        .collect()
                })
                .collect();
            for &threads in &[1usize, 2, 4, 8] {
                let outcomes: Vec<Vec<_>> = std::thread::scope(|s| {
                    let shared = &shared;
                    let handles: Vec<_> = streams[..threads]
                        .iter()
                        .map(|stream| {
                            s.spawn(move || {
                                // Fire the stream as two batches, so the
                                // router (`probe_batch`) runs under
                                // genuine cross-thread interleaving.
                                let mid = stream.len() / 2;
                                let mut out = shared.probe_batch(&stream[..mid]).unwrap();
                                out.extend(shared.probe_batch(&stream[mid..]).unwrap());
                                out
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                for (t, stream) in streams[..threads].iter().enumerate() {
                    for (i, r) in stream.iter().enumerate() {
                        let seq = reference
                            .oracle(r.module)
                            .unwrap()
                            .is_safe(&r.visible, r.gamma);
                        assert_eq!(
                            outcomes[t][i].safe, seq,
                            "round {round} threads {threads} thread {t} request {i}: {r:?}"
                        );
                        assert_eq!(outcomes[t][i].module, r.module);
                    }
                }
            }
        }
        // Concurrency never changed the kernel-work accounting class:
        // the shared instance answered every distinct question at most
        // once per epoch, like the sequential reference.
        assert!(shared.total_misses() <= reference.total_calls());
    }
}

#[test]
fn empty_probe_batch_returns_empty_without_touching_state() {
    let w = fig1_workflow();
    let oracles = WorkflowOracles::for_workflow(&w, 1 << 20).unwrap();
    let outcomes = oracles.probe_batch(&[]).unwrap();
    assert!(outcomes.is_empty());
    assert_eq!(oracles.total_calls(), 0, "no oracle touched");
    assert_eq!(oracles.total_misses(), 0);
    // No module's memo gained an entry either.
    assert!(oracles.iter().all(|(_, o)| o.cached_levels() == 0));
}

#[test]
fn duplicate_module_word_requests_share_one_kernel_evaluation() {
    let w = fig1_workflow();
    let oracles = WorkflowOracles::for_workflow(&w, 1 << 20).unwrap();
    let id = oracles.module_ids()[0];
    let v = AttrSet::from_indices(&[0, 2, 4]);
    // The same (module, word) five times — different Γ, same level.
    let batch: Vec<ProbeRequest> = [2u128, 4, 4, 8, 4]
        .into_iter()
        .map(|g| ProbeRequest::new(id, v.clone(), g))
        .collect();
    let outcomes = oracles.probe_batch(&batch).unwrap();
    assert_eq!(outcomes.len(), 5);
    // Example 3: level is exactly 4.
    assert_eq!(
        outcomes.iter().map(|o| o.safe).collect::<Vec<_>>(),
        vec![true, true, true, false, true]
    );
    assert_eq!(
        oracles.total_misses(),
        1,
        "five duplicate requests cost one kernel evaluation"
    );
    // A repeat of the whole batch is pure cache hits.
    let again = oracles.probe_batch(&batch).unwrap();
    assert_eq!(again, outcomes);
    assert_eq!(oracles.total_misses(), 1);
}

#[test]
fn stale_epoch_raised_after_concurrent_ingest() {
    let w = fig1_workflow();
    let oracles = WorkflowOracles::for_workflow_streaming(&w).unwrap();
    let ids = oracles.module_ids();
    let ingest = |x: [u32; 2]| {
        let row = w.run(&x).unwrap();
        oracles.ingest_batch(&IngestBatch::new(vec![row])).unwrap()
    };
    ingest([0, 0]);

    // A client reads the current epoch and conditions its batch on it…
    let seen_epoch = oracles.oracle(ids[0]).unwrap().relation_epoch();
    let conditioned: Vec<ProbeRequest> = ids
        .iter()
        .map(|&id| ProbeRequest::new(id, AttrSet::new(), 2).at_epoch(seen_epoch))
        .collect();
    assert!(oracles.probe_batch(&conditioned).is_ok());

    // …but another writer ingests between the client's derivation and
    // its next probe: the conditioned batch must be rejected atomically.
    ingest([1, 1]);
    let calls = oracles.total_calls();
    let err = oracles.probe_batch(&conditioned).unwrap_err();
    assert!(matches!(
        err,
        CoreError::StaleEpoch {
            expected: 1,
            actual: 2,
            ..
        }
    ));
    assert_eq!(oracles.total_calls(), calls, "rejected before any memo");
    // Unconditioned requests (and requests re-conditioned on the new
    // epoch) are served — from many threads at once.
    let refreshed: Vec<ProbeRequest> = conditioned.iter().map(|r| r.clone().at_epoch(2)).collect();
    std::thread::scope(|s| {
        for _ in 0..4 {
            let oracles = &oracles;
            let refreshed = &refreshed;
            s.spawn(move || {
                assert!(oracles.probe_batch(refreshed).is_ok());
            });
        }
    });
}

/// Two writers race on one Figure-1 store. Writer A validates frame a;
/// writer B then starts on frame b, whose m1 projection is fresh and
/// whose m2 projection contradicts a's, and applies only once A has
/// applied. A's validated batch holds the store's writer lock until its
/// epochs are published, so B cannot finish validating before A has
/// applied, validates against a, and is rejected whole: every module,
/// and the published epochs, show frame a only.
#[test]
fn racing_writers_land_each_frame_in_every_module_or_none() {
    let w = fig1_workflow();
    let store = WorkflowOracles::for_workflow_streaming(&w).unwrap();
    let a = w.run(&[0, 0]).unwrap();
    // fig1: a1,a2 → m1 → a3,a4,a5; a3,a4 → m2 → a6; a4,a5 → m3 → a7.
    let mut b = a.clone();
    b.set(AttrId(1), 1); // m1 input (0,0) → (0,1): fresh for m1
    b.set(AttrId(5), 1 - a.get(AttrId(5))); // m2 output flipped
    let (frame_a, frame_b) = (IngestBatch::new(vec![a.clone()]), IngestBatch::new(vec![b]));
    let (started_tx, started_rx) = mpsc::channel();
    let (validated_tx, validated_rx) = mpsc::channel();
    let (applied_tx, applied_rx) = mpsc::channel::<()>();
    let (b_validated_first, b_result) = std::thread::scope(|s| {
        let validated_a = store.validate_batch(&frame_a).unwrap();
        let (store, frame_b) = (&store, &frame_b);
        let writer_b = s.spawn(move || {
            started_tx.send(()).unwrap();
            let validated_b = store.validate_batch(frame_b);
            validated_tx.send(()).unwrap();
            validated_b.and_then(|validated_b| {
                applied_rx.recv().unwrap();
                store.apply_batch(validated_b)
            })
        });
        started_rx.recv().unwrap();
        // B has started. Were its validation not held back by A's
        // writer lock, it would report well within this wait.
        let b_validated_first = validated_rx
            .recv_timeout(Duration::from_millis(100))
            .is_ok();
        assert_eq!(store.apply_batch(validated_a).unwrap(), 3);
        // A rejected B has already returned and dropped its receiver.
        let _ = applied_tx.send(());
        (b_validated_first, writer_b.join().unwrap())
    });
    assert_eq!(b_result, Err(CoreError::NotAFunction.at_row(0)));
    for id in store.module_ids() {
        let o = store.oracle(id).unwrap();
        let attrs = w.module(id).unwrap().attr_set();
        let rows = o.module().relation().rows().to_vec();
        assert_eq!(rows, vec![a.project(&attrs)], "module {id:?} rows");
        assert_eq!(o.relation_epoch(), 1, "module {id:?} epoch");
    }
    assert!(store.epoch_snapshot().iter().all(|&(_, epoch)| epoch == 1));
    assert!(
        !b_validated_first,
        "B validated while A held the writer lock"
    );
}
