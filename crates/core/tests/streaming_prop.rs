//! Property suite for **streaming provenance** at the oracle and sweep
//! layers: executions of random modules arrive in random batches, and
//! after every batch a persistent epoch-aware [`MemoSafetyOracle`] (and
//! the parallel sweeps probing it) must agree with
//! oracles and sweeps built from scratch over the same observed
//! provenance — and with the row-at-a-time naive reference, on modules
//! wider than one 64-bit word too.
//!
//! Every reference is built from the rows the test itself sent (a
//! `BTreeSet` model of the accepted batches), never from the streamed
//! module's own row store, so a store that loses or invents a row
//! shows up as a divergence.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use sv_core::safety::{self, NaiveOracle, SafetyOracle};
use sv_core::sweep::{min_cost_sweep, minimal_sets_sweep, SweepConfig};
use sv_core::{CoreError, MemoSafetyOracle, StandaloneModule};
use sv_relation::{AttrDef, AttrId, AttrSet, Domain, Relation, Schema, Tuple};

/// A random module function over 2 inputs / 2 outputs with mixed domain
/// sizes, returned as the full list of execution rows.
fn random_executions(rng: &mut StdRng) -> (Schema, AttrSet, AttrSet, Vec<Tuple>) {
    let sizes: Vec<u32> = (0..4).map(|_| rng.gen_range(2u32..4)).collect();
    let schema = Schema::new(
        sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| AttrDef {
                name: format!("a{i}"),
                domain: Domain::new(s),
            })
            .collect(),
    );
    let inputs = AttrSet::from_indices(&[0, 1]);
    let outputs = AttrSet::from_indices(&[2, 3]);
    let mut rows = Vec::new();
    for x0 in 0..sizes[0] {
        for x1 in 0..sizes[1] {
            // Output = deterministic per-module random function of x.
            let o0 = rng.gen_range(0u32..sizes[2]);
            let o1 = rng.gen_range(0u32..sizes[3]);
            rows.push(Tuple::new(vec![x0, x1, o0, o1]));
        }
    }
    (schema, inputs, outputs, rows)
}

/// The relation the accepted batches describe.
fn model_relation(schema: &Schema, model: &BTreeSet<Tuple>) -> Relation {
    Relation::from_rows(schema.clone(), model.iter().cloned().collect()).unwrap()
}

#[test]
fn streamed_oracle_matches_fresh_oracles_after_every_batch() {
    let mut rng = StdRng::seed_from_u64(0x057A_EA11);
    for case in 0..12 {
        let (schema, inputs, outputs, mut rows) = random_executions(&mut rng);
        rows.shuffle(&mut rng);
        let mut streamed = StandaloneModule::new(
            Relation::empty(schema.clone()),
            inputs.clone(),
            outputs.clone(),
        )
        .unwrap();
        let mut memo = MemoSafetyOracle::new(streamed.clone());
        let mut model: BTreeSet<Tuple> = BTreeSet::new();
        let mut step = 0usize;
        while !rows.is_empty() {
            let take = rng.gen_range(1usize..4).min(rows.len());
            let mut batch: Vec<Tuple> = rows.drain(..take).collect();
            // Sprinkle duplicates of already-streamed executions.
            if !model.is_empty() && rng.gen_range(0u32..2) == 0 {
                let dup = model.iter().nth(rng.gen_range(0usize..model.len()));
                batch.push(dup.unwrap().clone());
            }
            let before = model.len();
            model.extend(batch.iter().cloned());
            let grown = model.len() - before;
            assert_eq!(streamed.append_execution(&batch).unwrap(), grown);
            assert_eq!(memo.append_execution(&batch).unwrap(), grown);
            assert_eq!(memo.relation_epoch(), streamed.epoch());
            let expected = model_relation(&schema, &model);
            assert_eq!(streamed.relation(), expected, "case {case} step {step}");
            assert_eq!(
                memo.module().relation(),
                expected,
                "case {case} step {step}"
            );

            // Ground truth: oracles over a module built from scratch on
            // the same observed provenance.
            let rebuilt = StandaloneModule::new(expected, inputs.clone(), outputs.clone()).unwrap();
            let naive = NaiveOracle::new(rebuilt.clone());
            for mask in 0u64..(1 << 4) {
                let v = AttrSet::from_word(mask);
                // Mix probe styles so the memo's shortcut, revalidation
                // and exact paths all fire across the schedule.
                for gamma in [2u128, 3, 5] {
                    assert_eq!(
                        memo.is_safe(&v, gamma),
                        rebuilt.is_safe(&v, gamma),
                        "case {case} step {step} mask {mask:#b} gamma {gamma}"
                    );
                }
                let level = memo.privacy_level(&v);
                assert_eq!(level, rebuilt.privacy_level(&v), "case {case} step {step}");
                assert_eq!(level, naive.privacy_level(&v), "case {case} step {step}");
            }
            step += 1;
        }
    }
}

#[test]
fn streamed_sweeps_match_sweeps_over_rebuilt_modules() {
    let mut rng = StdRng::seed_from_u64(0xD0_5EEB);
    for _case in 0..6 {
        let (schema, inputs, outputs, mut rows) = random_executions(&mut rng);
        rows.shuffle(&mut rng);
        // One oracle takes every batch, so its sweeps read the levels
        // earlier sweeps left behind, revalidated lazily.
        let mut streamed = MemoSafetyOracle::new(
            StandaloneModule::new(
                Relation::empty(schema.clone()),
                inputs.clone(),
                outputs.clone(),
            )
            .unwrap(),
        );
        let costs = vec![3u64, 1, 4, 1];
        let mut model: BTreeSet<Tuple> = BTreeSet::new();
        while !rows.is_empty() {
            let take = rng.gen_range(1usize..5).min(rows.len());
            let batch: Vec<Tuple> = rows.drain(..take).collect();
            assert_eq!(streamed.append_execution(&batch).unwrap(), batch.len());
            model.extend(batch);
            let expected = model_relation(&schema, &model);
            assert_eq!(streamed.module().relation(), expected);
            let rebuilt = MemoSafetyOracle::new(
                StandaloneModule::new(expected, inputs.clone(), outputs.clone()).unwrap(),
            );
            for gamma in [2u128, 4] {
                for threads in [1usize, 3] {
                    let cfg = SweepConfig::parallel(threads);
                    assert_eq!(
                        min_cost_sweep(&streamed, &costs, gamma, &cfg).unwrap().0,
                        min_cost_sweep(&rebuilt, &costs, gamma, &cfg).unwrap().0,
                    );
                    assert_eq!(
                        minimal_sets_sweep(&streamed, gamma, &cfg, None).unwrap().0,
                        minimal_sets_sweep(&rebuilt, gamma, &cfg, None).unwrap().0,
                    );
                }
                // Serial reference closes the triangle.
                let (swept, _) =
                    minimal_sets_sweep(&streamed, gamma, &SweepConfig::serial(), None).unwrap();
                assert_eq!(
                    swept.iter().map(AttrSet::from_word).collect::<Vec<_>>(),
                    safety::minimal_safe_hidden_sets(rebuilt.module(), gamma).unwrap(),
                );
            }
        }
    }
}

#[test]
fn fd_violations_and_bad_rows_are_rejected_atomically() {
    let mut rng = StdRng::seed_from_u64(0xA70);
    let (schema, inputs, outputs, rows) = random_executions(&mut rng);
    let mut m = StandaloneModule::new(Relation::empty(schema), inputs, outputs).unwrap();
    m.append_execution(&rows[..2]).unwrap();
    let snapshot = m.relation();
    let epoch = m.epoch();

    // Contradicting output for a recorded input. `(v + 1) % 2` always
    // differs from `v` and stays inside every ≥ 2-sized domain.
    let mut bad = rows[0].clone();
    let flip = bad.get(sv_relation::AttrId(2));
    bad.set(sv_relation::AttrId(2), (flip + 1) % 2);
    let err = m.append_execution(&[bad]).unwrap_err();
    assert_eq!(err, CoreError::NotAFunction.at_row(0));

    // In-batch contradiction: two fresh executions of the same input
    // with different outputs.
    let fresh_in = rows[3].clone();
    let mut fresh_alt = fresh_in.clone();
    let flip = fresh_alt.get(sv_relation::AttrId(3));
    fresh_alt.set(sv_relation::AttrId(3), (flip + 1) % 2);
    let err = m.append_execution(&[fresh_in, fresh_alt]).unwrap_err();
    // The second row is the one that contradicts the first: the error
    // carries its in-batch position.
    assert_eq!(err, CoreError::NotAFunction.at_row(1));

    // Out-of-domain value.
    let err = m
        .append_execution(&[Tuple::new(vec![0, 0, 99, 0])])
        .unwrap_err();
    assert!(
        matches!(err, CoreError::RowRejected { index: 0, ref source } if matches!(**source, CoreError::Relation(_)))
    );

    assert_eq!(m.relation(), snapshot, "nothing landed");
    assert_eq!(m.epoch(), epoch);
}

/// 70 boolean attributes, inputs `0..35` → outputs `35..70` (output
/// `j` is the parity of inputs `j` and `7j + 3 mod 35`): every
/// visible set naming an output past 63 is spilled.
fn wide_rows(inputs: &[u64]) -> Vec<Tuple> {
    let bit = |x: u64, i: usize| ((x >> i) & 1) as u32;
    inputs
        .iter()
        .map(|&x| {
            let outs = (0..35).map(|j| bit(x, j) ^ bit(x, (7 * j + 3) % 35));
            Tuple::new((0..35).map(|i| bit(x, i)).chain(outs).collect())
        })
        .collect()
}

#[test]
fn wide_streamed_oracle_matches_naive() {
    let mut rng = StdRng::seed_from_u64(0x70);
    let names: Vec<String> = (0..70).map(|i| format!("a{i}")).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let inputs: Vec<u64> = (0..36).map(|_| rng.gen_range(0..1u64 << 35)).collect();
    let schema = Schema::booleans(&names);
    let (ins, outs) = (
        AttrSet::full(35),
        AttrSet::full(70).difference(&AttrSet::full(35)),
    );
    let mut model: BTreeSet<Tuple> = wide_rows(&inputs[..24]).into_iter().collect();
    let m = StandaloneModule::new(model_relation(&schema, &model), ins.clone(), outs.clone());
    let mut memo = MemoSafetyOracle::new(m.unwrap());
    // Visible sets of every density, so levels span 1 to 2^35; every
    // fifth shows no input, a grouping appends never split.
    let visible: Vec<AttrSet> = (0..48)
        .map(|i| {
            let keep = [2u32, 4, 8, 64][i % 4];
            (0..70)
                .filter(|&a| (a >= 35 || i % 5 != 0) && rng.gen_range(0..keep) != 0)
                .map(AttrId)
                .collect()
        })
        .collect();
    let check = |memo: &MemoSafetyOracle, model: &BTreeSet<Tuple>, when: &str| {
        let expected = model_relation(&schema, model);
        assert_eq!(memo.module().relation(), expected, "{when}");
        let naive =
            NaiveOracle::new(StandaloneModule::new(expected, ins.clone(), outs.clone()).unwrap());
        for v in &visible {
            // Safety first, so that after the append the stale
            // entries meet the monotone shortcut.
            for gamma in [2u128, 3, 1 << 4, 1 << 12, 1 << 30] {
                let want = naive.is_safe(v, gamma);
                assert_eq!(memo.is_safe(v, gamma), want, "{when}: {v:?} Γ={gamma}");
                let hidden = v.complement(70);
                assert_eq!(
                    memo.is_safe_hidden(&hidden, gamma),
                    want,
                    "{when}: hidden {hidden:?} Γ={gamma}"
                );
            }
            let level = naive.privacy_level(v);
            assert_eq!(memo.privacy_level(v), level, "{when}: {v:?}");
            assert_eq!(memo.module().privacy_level(v), level, "{when}: {v:?}");
        }
    };
    check(&memo, &model, "built");
    assert!(visible.iter().any(|v| v.as_word().is_none()));
    let batch = wide_rows(&inputs[24..]);
    let before = model.len();
    model.extend(batch.iter().cloned());
    assert_eq!(memo.append_execution(&batch).unwrap(), model.len() - before);
    check(&memo, &model, "appended");
    assert!(memo.revalidations() > 0 && memo.monotone_shortcut_hits() > 0);
}
