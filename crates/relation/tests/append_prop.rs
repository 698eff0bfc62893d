//! Property suite for **incremental appends** through the interned
//! kernel: on random append schedules (mixed batch sizes, duplicates,
//! fresh domain values, empty bases, wide domains), an incrementally
//! maintained [`InternedRelation`] is indistinguishable from a kernel
//! rebuilt from scratch, and both agree with the row-at-a-time reference
//! semantics (`ops::reference`) — the streaming acceptance property
//! `incremental ≡ full rebuild ≡ reference`. Every grouping equals a
//! naive densify of the column store: build-time sub-tuples in ascending
//! order (first-seen on the interner path), appended ones in first-seen
//! order. Groupings first built as Lemma-4 keys are held bucketed until
//! an append rewrites them per row, and answer like their per-row twins
//! before and after. The accumulated relation is rebuilt from a
//! `BTreeSet` model of every row sent, so each append's count is
//! checked against the model's growth.

mod common;

use common::{random_schema, random_value, BuildLog, Coverage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use sv_relation::{ops, AttrDef, AttrSet, Domain, InternedRelation, Relation, Schema, Tuple};

/// Adds `batch` to `model`, returning how many rows were new.
fn grow(model: &mut BTreeSet<Tuple>, batch: &[Tuple]) -> usize {
    let before = model.len();
    model.extend(batch.iter().cloned());
    model.len() - before
}

/// The relation `model` describes.
fn model_relation(schema: &Schema, model: &BTreeSet<Tuple>) -> Relation {
    Relation::from_rows(schema.clone(), model.iter().cloned().collect()).unwrap()
}

fn random_row(rng: &mut StdRng, schema: &Schema) -> Tuple {
    Tuple::new(
        schema
            .iter()
            .map(|(_, d)| random_value(rng, d.domain.size()))
            .collect(),
    )
}

/// Asserts the incrementally maintained kernel is equivalent to a fresh
/// build over the accumulated relation, for every attribute-set pair:
/// same row count, groupings (each equal to the naive densify, with
/// `log` holding the streamed kernel's build-time row counts), Lemma-4
/// probes, grouped counts (against the reference semantics), and
/// projections.
fn assert_equivalent(
    inc: &InternedRelation,
    acc: &Relation,
    log: &mut BuildLog,
    cov: &mut Coverage,
    ctx: &str,
) {
    let rebuilt = InternedRelation::from_relation(acc);
    let k = acc.schema().len();
    // Every other set of the rebuilt kernel is first built as a key
    // (bucketed), the rest per row by the checks below.
    for key_mask in (0u64..(1 << k)).step_by(2) {
        let _ = rebuilt.min_group_distinct(&AttrSet::from_word(key_mask), &AttrSet::from_word(1));
    }
    assert_eq!(inc.n_rows(), acc.len(), "{ctx}: row count");
    assert_eq!(&inc.to_relation(), acc, "{ctx}: rows");
    log.check_all(inc, cov, &format!("{ctx}, streamed"));
    BuildLog::new(k).check_all(&rebuilt, cov, &format!("{ctx}, rebuilt"));
    for key_mask in 0u64..(1 << k) {
        let key = AttrSet::from_word(key_mask);
        assert_eq!(
            inc.group_index(&key).n_groups(),
            rebuilt.group_index(&key).n_groups(),
            "{ctx}: n_groups for {key_mask:#b}"
        );
        assert_eq!(
            inc.project(&key),
            ops::reference::project(acc, &key),
            "{ctx}: projection for {key_mask:#b}"
        );
        for probe_mask in 0u64..(1 << k) {
            let probe = AttrSet::from_word(probe_mask);
            assert_eq!(
                inc.min_group_distinct(&key, &probe),
                rebuilt.min_group_distinct(&key, &probe),
                "{ctx}: min_group_distinct {key_mask:#b}/{probe_mask:#b}"
            );
            assert_eq!(
                inc.group_count_distinct(&key, &probe),
                ops::reference::group_count_distinct(acc, &key, &probe),
                "{ctx}: group_count_distinct {key_mask:#b}/{probe_mask:#b}"
            );
        }
    }
}

/// Builds the grouping by `key` as a Lemma-4 key (bucketed, probing it
/// against `probe`) when `key` is odd, else per row.
fn warm(ir: &InternedRelation, key: u64, probe: u64) {
    let key_set = AttrSet::from_word(key);
    if key % 2 == 1 {
        let _ = ir.min_group_distinct(&key_set, &AttrSet::from_word(probe));
    } else {
        let _ = ir.group_index(&key_set);
    }
}

#[test]
fn random_append_schedules_match_rebuild_and_reference() {
    let mut rng = StdRng::seed_from_u64(0x5EED_A99E);
    let mut coverage = Coverage::default();
    for case in 0..30 {
        // 2–4 attributes; every fourth schema has three wide ones.
        let wide = case % 4 == 3;
        let n = rng.gen_range(if wide { 3usize } else { 2 }..5);
        let schema = random_schema(&mut rng, n, wide);
        // Base: sometimes empty, sometimes a handful of rows.
        let n_base = if case % 5 == 0 {
            0
        } else {
            rng.gen_range(0usize..6)
        };
        let base_rows: Vec<Tuple> = (0..n_base).map(|_| random_row(&mut rng, &schema)).collect();
        let mut model: BTreeSet<Tuple> = base_rows.iter().cloned().collect();
        let mut acc = model_relation(&schema, &model);
        let mut inc = InternedRelation::from_relation(&acc);
        // Warm a random selection of groupings, per row or as keys
        // (bucketed), so appends must maintain them (unwarmed sets are
        // computed fresh later — both paths are exercised across cases).
        let k = schema.len();
        for _ in 0..rng.gen_range(0usize..4) {
            warm(
                &inc,
                rng.gen_range(0u64..(1 << k)),
                rng.gen_range(0u64..(1 << k)),
            );
        }
        let mut log = BuildLog::new(k);
        log.note(&inc, inc.n_rows());
        let mut expected_epoch = 0u64;
        for step in 0..rng.gen_range(1usize..5) {
            // Mixed batches: fresh random rows + duplicates of existing.
            let batch: Vec<Tuple> = (0..rng.gen_range(0usize..6))
                .map(|_| {
                    if !acc.is_empty() && rng.gen_range(0u32..3) == 0 {
                        acc.rows()[rng.gen_range(0usize..acc.len())].clone()
                    } else {
                        random_row(&mut rng, &schema)
                    }
                })
                .collect();
            let rows_before = inc.n_rows();
            let added = inc.append_rows(&batch).unwrap();
            log.note(&inc, rows_before);
            // Sets first built after the append, as keys or per row.
            warm(
                &inc,
                rng.gen_range(0u64..(1 << k)),
                rng.gen_range(0u64..(1 << k)),
            );
            log.note(&inc, inc.n_rows());
            let grown = grow(&mut model, &batch);
            assert_eq!(
                added, grown,
                "case {case} step {step}: kernel grows with the model"
            );
            acc = model_relation(&schema, &model);
            if added > 0 {
                expected_epoch += 1;
            }
            assert_eq!(
                inc.epoch(),
                expected_epoch,
                "case {case} step {step}: epoch ticks iff rows landed"
            );
            let ctx = format!("case {case} step {step}");
            assert_equivalent(&inc, &acc, &mut log, &mut coverage, &ctx);
        }
    }
    coverage.assert_complete(true);
}

#[test]
fn append_schedule_on_wide_domains_grows_the_interner() {
    // Domains big enough that three attributes overflow u64 mixed-radix
    // codes: groupings take the ValueInterner path, which must keep
    // growing across appends.
    let schema = Schema::new(
        ["x", "y", "z"]
            .iter()
            .map(|n| AttrDef {
                name: (*n).to_string(),
                domain: Domain::new(u32::MAX),
            })
            .collect(),
    );
    let mut rng = StdRng::seed_from_u64(0x17E2);
    let mut model: BTreeSet<Tuple> = [[4_000_000_000, 1, 2], [4_000_000_000, 1, 3]]
        .iter()
        .map(|row| Tuple::new(row.to_vec()))
        .collect();
    let mut acc = model_relation(&schema, &model);
    let mut inc = InternedRelation::from_relation(&acc);
    let all = AttrSet::from_indices(&[0, 1, 2]);
    assert_eq!(inc.group_index(&all).n_groups(), 2);
    for step in 0..6 {
        let batch: Vec<Tuple> = (0..3)
            .map(|_| {
                Tuple::new(vec![
                    rng.gen_range(0u32..5) * 1_000_000_000,
                    rng.gen_range(0u32..3),
                    rng.gen_range(0u32..4),
                ])
            })
            .collect();
        let added = inc.append_rows(&batch).unwrap();
        assert_eq!(added, grow(&mut model, &batch), "step {step}");
        acc = model_relation(&schema, &model);
        assert_eq!(inc.to_relation(), acc, "step {step}");
        // Full-set groups = distinct rows; the interner behind the wide
        // grouping grew exactly with them.
        let g = inc.group_index(&all);
        assert_eq!(g.n_groups() as usize, acc.len(), "step {step}");
        let key = AttrSet::from_indices(&[0]);
        let probe = AttrSet::from_indices(&[1, 2]);
        assert_eq!(
            inc.min_group_distinct(&key, &probe),
            InternedRelation::from_relation(&acc).min_group_distinct(&key, &probe),
            "step {step}"
        );
        assert_eq!(
            inc.group_count_distinct(&key, &probe),
            ops::reference::group_count_distinct(&acc, &key, &probe),
            "step {step}"
        );
    }
}

#[test]
fn append_to_empty_then_duplicates_only() {
    let schema = Schema::booleans(&["a", "b", "c"]);
    let mut model: BTreeSet<Tuple> = BTreeSet::new();
    let mut inc = InternedRelation::from_relation(&Relation::empty(schema.clone()));
    // Everything-duplicate batch on a non-empty relation leaves the
    // epoch (and caches) untouched.
    let batch = vec![Tuple::new(vec![0, 1, 1]), Tuple::new(vec![1, 0, 0])];
    let mut log = BuildLog::new(3);
    assert_eq!(inc.append_rows(&batch).unwrap(), grow(&mut model, &batch));
    log.note(&inc, 0);
    let acc = model_relation(&schema, &model);
    assert_eq!(inc.epoch(), 1);
    assert_eq!(inc.append_rows(&batch).unwrap(), 0);
    assert_eq!(inc.epoch(), 1, "pure-duplicate batch: no new epoch");
    let mut coverage = Coverage::default();
    assert_equivalent(&inc, &acc, &mut log, &mut coverage, "empty-base schedule");
}

/// Every pair's level and grouped counts, and every set's
/// `group_new_group_epoch`, of a kernel whose `k` attributes span every
/// set.
type Answers = (
    Vec<usize>,
    Vec<std::collections::HashMap<Tuple, usize>>,
    Vec<Option<u64>>,
);

fn answers(ir: &InternedRelation, k: usize) -> Answers {
    let sets: Vec<AttrSet> = (0u64..(1 << k)).map(AttrSet::from_word).collect();
    let epochs = sets.iter().map(|s| ir.group_new_group_epoch(s)).collect();
    let mut levels = Vec::new();
    let mut counts = Vec::new();
    for key in &sets {
        for probe in &sets {
            levels.push(ir.min_group_distinct(key, probe));
            counts.push(ir.group_count_distinct(key, probe));
        }
    }
    (levels, counts, epochs)
}

#[test]
fn bucketed_keys_answer_like_per_row_twins_across_appends() {
    let mut rng = StdRng::seed_from_u64(0xB0C7E7);
    let mut rewritten = 0;
    for case in 0..24 {
        let wide = case % 4 == 3;
        let n = rng.gen_range(if wide { 3usize } else { 2 }..5);
        let schema = random_schema(&mut rng, n, wide);
        let base: Vec<Tuple> = (0..rng.gen_range(1usize..8))
            .map(|_| random_row(&mut rng, &schema))
            .collect();
        let mut model: BTreeSet<Tuple> = base.into_iter().collect();
        let acc = model_relation(&schema, &model);
        // Twins over the same rows: `keyed` builds the warmed sets as
        // keys (bucketed), `probed` builds them per row.
        let mut keyed = InternedRelation::from_relation(&acc);
        let mut probed = InternedRelation::from_relation(&acc);
        let k = schema.len();
        let warmed: Vec<AttrSet> = (0..3)
            .map(|_| AttrSet::from_word(rng.gen_range(0u64..(1 << k))))
            .collect();
        for set in &warmed {
            // Against itself: built as a key, then read per row as a
            // probe, which derives its per-row ids from the buckets.
            let _ = keyed.min_group_distinct(set, set);
            let _ = probed.group_index(set);
        }
        for set in &warmed {
            assert!(keyed.group_index(set).is_bucketed(), "case {case}");
            assert!(!probed.group_index(set).is_bucketed(), "case {case}");
        }
        for step in 0..3 {
            let batch: Vec<Tuple> = (0..rng.gen_range(0usize..5))
                .map(|_| random_row(&mut rng, &schema))
                .collect();
            let added = keyed.append_rows(&batch).unwrap();
            assert_eq!(probed.append_rows(&batch).unwrap(), added);
            grow(&mut model, &batch);
            let acc = model_relation(&schema, &model);
            let ctx = format!("case {case} step {step}");
            for set in &warmed {
                let (kg, pg) = (keyed.group_index(set), probed.group_index(set));
                if added > 0 {
                    assert!(!kg.is_bucketed(), "{ctx}: an append rewrites {set:?}");
                    rewritten += 1;
                }
                assert!(kg.row_group().eq(pg.row_group()), "{ctx}: ids of {set:?}");
                assert!(
                    kg.representative().eq(pg.representative()),
                    "{ctx}: representatives of {set:?}"
                );
                assert_eq!(
                    kg.new_group_epoch(),
                    pg.new_group_epoch(),
                    "{ctx}: new-group epoch of {set:?}"
                );
            }
            let answered = answers(&keyed, k);
            assert_eq!(answered, answers(&probed, k), "{ctx}: twins");
            let (levels, counts, _) = answered;
            let rebuilt = InternedRelation::from_relation(&acc);
            assert_eq!(levels, answers(&rebuilt, k).0, "{ctx}: levels ≠ rebuilt");
            let mut i = 0;
            for key_mask in 0u64..(1 << k) {
                for probe_mask in 0u64..(1 << k) {
                    let (key, probe) =
                        (AttrSet::from_word(key_mask), AttrSet::from_word(probe_mask));
                    assert_eq!(
                        counts[i],
                        ops::reference::group_count_distinct(&acc, &key, &probe),
                        "{ctx}: group counts {key_mask:#b}/{probe_mask:#b}"
                    );
                    i += 1;
                }
            }
        }
    }
    assert!(rewritten > 0, "no append rewrote a bucketed key");
}
