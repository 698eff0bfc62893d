//! Property suite for **batched Lemma-4 probes**: on random relations
//! and random probe batches (duplicate pairs, shared attribute sets,
//! empty relations, streamed appends), the batched kernel entry point is
//! indistinguishable from probing one at a time, and both agree with the
//! row-at-a-time reference semantics — the ISSUE-4 acceptance property
//! `batched ≡ sequential ≡ reference` at the kernel layer. Every grouping
//! the probes run on — direct-addressed, sorted and interned, before and
//! after appends — equals a naive densify of the column store.

mod common;

use common::{random_schema, random_value, BuildLog, Coverage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sv_relation::{ops, AttrSet, InternedRelation, Relation, Schema, Tuple};

fn random_rows(rng: &mut StdRng, schema: &Schema, max_rows: usize) -> Vec<Vec<u32>> {
    let n = rng.gen_range(0..=max_rows);
    (0..n)
        .map(|_| {
            schema
                .iter()
                .map(|(_, d)| random_value(rng, d.domain.size()))
                .collect()
        })
        .collect()
}

/// A random probe batch over the schema's word space, with deliberate
/// duplicate pairs and shared attribute sets so the batch's dedup paths
/// are exercised.
fn random_batch(rng: &mut StdRng, k: usize, len: usize) -> Vec<(u64, u64)> {
    let space = 1u64 << k;
    let mut probes: Vec<(u64, u64)> = (0..len)
        .map(|_| (rng.gen_range(0..space), rng.gen_range(0..space)))
        .collect();
    // Duplicate a prefix of the batch (shared pair passes) and reuse a
    // key word across several probe words (shared group indexes).
    if !probes.is_empty() {
        let dup = probes[rng.gen_range(0..probes.len())];
        probes.push(dup);
        let shared_key = probes[0].0;
        probes.push((shared_key, rng.gen_range(0..space)));
        probes.push((shared_key, rng.gen_range(0..space)));
    }
    probes
}

/// The reference answer: minimum over key groups of the distinct
/// probe-sub-tuple count, straight from the row-at-a-time semantics.
fn reference_answer(r: &Relation, key: &AttrSet, probe: &AttrSet) -> usize {
    ops::reference::group_count_distinct(r, key, probe)
        .values()
        .copied()
        .min()
        .unwrap_or(usize::MAX)
}

#[test]
fn batched_equals_sequential_equals_reference() {
    let mut rng = StdRng::seed_from_u64(0xE18);
    let mut coverage = Coverage::default();
    for trial in 0..30 {
        let n = rng.gen_range(3usize..=8);
        let schema = random_schema(&mut rng, n, trial % 3 == 0);
        let k = schema.len();
        let rows = random_rows(&mut rng, &schema, 40);
        let r = Relation::from_values(schema, rows).expect("rows fit the schema");
        let ir = InternedRelation::from_relation(&r);
        let len = rng.gen_range(0..25);
        let probes = random_batch(&mut rng, k, len);

        let batched = ir.min_group_distinct_batch(&probes);
        BuildLog::new(k).check_all(&ir, &mut coverage, &format!("trial {trial}"));
        assert_eq!(batched.len(), probes.len());
        for (i, &(kw, pw)) in probes.iter().enumerate() {
            // Sequential kernel probe.
            assert_eq!(
                batched[i],
                ir.min_group_distinct_words(kw, pw),
                "trial {trial} probe {i}: batched ≠ sequential"
            );
            // Row-at-a-time reference.
            assert_eq!(
                batched[i],
                reference_answer(&r, &AttrSet::from_word(kw), &AttrSet::from_word(pw)),
                "trial {trial} probe {i}: batched ≠ reference"
            );
        }
        // Caller-scratch form agrees and is reusable across batches.
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        ir.min_group_distinct_batch_with(&probes, &mut scratch, &mut out);
        assert_eq!(out, batched, "trial {trial}: scratch variant diverges");
    }
    coverage.assert_complete(false);
}

#[test]
fn batched_probes_survive_streamed_appends() {
    let mut rng = StdRng::seed_from_u64(0x5E21E);
    let mut coverage = Coverage::default();
    for trial in 0..15 {
        let n = rng.gen_range(3usize..=8);
        let schema = random_schema(&mut rng, n, trial % 3 == 0);
        let k = schema.len();
        let base = random_rows(&mut rng, &schema, 20);
        let mut acc = Relation::from_values(schema.clone(), base).expect("valid base");
        let mut ir = InternedRelation::from_relation(&acc);
        let probes = random_batch(&mut rng, k, 12);
        // Warm the batch, plus every single-attribute and empty grouping
        // (small code spaces: direct-addressed), so appends must extend
        // the group indexes already built.
        let _ = ir.min_group_distinct_batch(&probes);
        for a in 0..k {
            let _ = ir.group_index_word(1 << a);
        }
        let _ = ir.group_index_word(0);
        let mut log = BuildLog::new(k);
        log.note(&ir, ir.n_rows());

        for step in 0..3 {
            let batch: Vec<Tuple> = random_rows(&mut rng, &schema, 8)
                .into_iter()
                .map(Tuple::new)
                .collect();
            let rows_before = ir.n_rows();
            ir.append_rows(&batch).expect("in-domain rows");
            log.note(&ir, rows_before);
            let all_rows: Vec<Tuple> = acc
                .rows()
                .iter()
                .cloned()
                .chain(batch.iter().cloned())
                .collect();
            acc = Relation::from_rows(acc.schema().clone(), all_rows).expect("set semantics dedup");
            let rebuilt = InternedRelation::from_relation(&acc);
            assert_eq!(
                ir.min_group_distinct_batch(&probes),
                rebuilt.min_group_distinct_batch(&probes),
                "trial {trial} step {step}: streamed ≠ rebuilt"
            );
            let ctx = format!("trial {trial} step {step}");
            log.check_all(&ir, &mut coverage, &format!("{ctx}, streamed"));
            BuildLog::new(k).check_all(&rebuilt, &mut coverage, &format!("{ctx}, rebuilt"));
        }
    }
    coverage.assert_complete(true);
}

#[test]
fn empty_batches_and_empty_relations() {
    let r = Relation::empty(Schema::booleans(&["a", "b", "c"]));
    let ir = InternedRelation::from_relation(&r);
    assert!(ir.min_group_distinct_batch(&[]).is_empty());
    let answers = ir.min_group_distinct_batch(&[(0b001, 0b110), (0, 0)]);
    assert_eq!(answers, vec![usize::MAX, usize::MAX]);
}
