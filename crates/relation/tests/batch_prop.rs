//! Property suite for **Lemma-4 probes over word-encoded sets**
//! ([`AttrSet::from_word`]) in batches: on random relations and random probe batches (duplicate
//! pairs, shared attribute sets, empty relations, streamed appends),
//! the probe (one thread's pair-pass buffer reused across the whole
//! batch) agrees with the row-at-a-time reference semantics. Every grouping the probes run on —
//! direct-addressed, sorted and interned, before and after appends —
//! equals a naive densify of the column store.

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
/// duplicate pairs and shared attribute sets, so probes land on group
/// indexes and pair-pass buffer contents earlier probes left behind.
fn random_batch(rng: &mut StdRng, k: usize, len: usize) -> Vec<(u64, u64)> {
    let space = 1u64 << k;
    let mut probes: Vec<(u64, u64)> = (0..len)
        .map(|_| (rng.gen_range(0..space), rng.gen_range(0..space)))
        .collect();
    // Repeat one probe of the batch (a duplicate pair) and reuse a
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
fn word_probes_equal_reference() {
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

        // The thread's one buffer serves the whole batch.
        for (i, &(kw, pw)) in probes.iter().enumerate() {
            let (key, probe) = (AttrSet::from_word(kw), AttrSet::from_word(pw));
            assert_eq!(
                ir.min_group_distinct(&key, &probe),
                reference_answer(&r, &key, &probe),
                "trial {trial} probe {i}: kernel ≠ reference"
            );
        }
        BuildLog::new(k).check_all(&ir, &mut coverage, &format!("trial {trial}"));
    }
    coverage.assert_complete(false);
}

#[test]
fn word_probes_survive_streamed_appends() {
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
        let answers = |ir: &InternedRelation| -> Vec<usize> {
            probes
                .iter()
                .map(|&(kw, pw)| {
                    ir.min_group_distinct(&AttrSet::from_word(kw), &AttrSet::from_word(pw))
                })
                .collect()
        };
        let _ = answers(&ir);
        for a in 0..k {
            let _ = ir.group_index(&AttrSet::from_word(1 << a));
        }
        let _ = ir.group_index(&AttrSet::new());
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
                answers(&ir),
                answers(&rebuilt),
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
fn empty_relations_answer_usize_max() {
    let r = Relation::empty(Schema::booleans(&["a", "b", "c"]));
    let ir = InternedRelation::from_relation(&r);
    for (kw, pw) in [(0b001, 0b110), (0, 0)] {
        let (key, probe) = (AttrSet::from_word(kw), AttrSet::from_word(pw));
        assert_eq!(ir.min_group_distinct(&key, &probe), usize::MAX);
    }
}
