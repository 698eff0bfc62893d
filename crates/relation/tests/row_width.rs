//! Suite for the **two row widths** of a grouping: a relation of at most
//! 65,535 rows stores every row index, group id and bucket bound of its
//! groupings as a `u16`, a larger one as a `u32`, and an append that
//! takes a relation past 65,535 rows widens every grouping it holds.
//! On relations beyond the bound, and across an append that crosses it
//! with bucketed, per-row and full-row groupings warm, every grouping
//! equals the naive model of `common` (in both layouts, on the direct,
//! sorted and interned build paths). Beyond the bound every Lemma-4
//! answer equals the reference semantics', and across the crossing a
//! fresh build's.

mod common;

use common::{BuildLog, Coverage, WIDE_DOMAIN, WIDE_VALUES};
use sv_relation::{ops, AttrDef, AttrSet, Domain, InternedRelation, Relation, Schema, Tuple};

/// The most rows a relation stores narrow.
const NARROW_ROWS: usize = u16::MAX as usize;

/// Boolean attributes `0..17`, then three wide attributes `17..20`.
const BOOLEANS: usize = 17;
const ALL_BOOLEANS: u64 = (1 << BOOLEANS) - 1;
const W0: u64 = 1 << BOOLEANS;
const ALL_WIDE: u64 = 0b111 << BOOLEANS;
const ALL: u64 = ALL_BOOLEANS | ALL_WIDE;

fn schema() -> Schema {
    Schema::new(
        (0..BOOLEANS + 3)
            .map(|a| AttrDef {
                name: format!("a{a}"),
                domain: Domain::new(if a < BOOLEANS { 2 } else { WIDE_DOMAIN }),
            })
            .collect(),
    )
}

/// Row `r` of the test relations: its boolean attributes spell an odd
/// multiple of `r` modulo 2¹⁷, so rows `0..2¹⁷` are distinct, and its
/// wide attributes are drawn from a hash of `r`.
fn row(r: usize) -> Tuple {
    let code = (r as u64).wrapping_mul(0x9E3B) & ALL_BOOLEANS;
    let hash = (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
    Tuple::new(
        (0..BOOLEANS)
            .map(|a| (code >> a) as u32 & 1)
            .chain((0..3).map(|j| WIDE_VALUES[(hash >> (2 * j)) as usize & 3]))
            .collect(),
    )
}

fn relation(rows: impl IntoIterator<Item = usize>) -> Relation {
    Relation::from_rows(schema(), rows.into_iter().map(row).collect()).expect("schema rows")
}

/// Sets on every build path: direct-addressed (boolean sets, the
/// 17-boolean one with a group per row), sorted (one or two wide
/// attributes) and interned (all three).
const SETS: [u64; 8] = [
    0,
    0b1,
    0xFF,
    0x1_FFF0,
    ALL_BOOLEANS,
    0xFFF | W0,
    ALL_WIDE,
    ALL,
];

/// Key and probe pairs: over a bucketed key a stamp scan each, over a
/// per-row key pair marking and (the second) a counting sort, and
/// shapes answered without a pass — a probe group per row, a key group
/// per row, one key group.
const PAIRS: [(u64, u64); 8] = [
    (0xFF, 0xFF00),
    (0x1_FFF0, 0xFFF | W0),
    (0b1, W0),
    (0xFFF | W0, 0x1_F000),
    (ALL_WIDE, 0xFF),
    (0xFF, ALL_BOOLEANS),
    (ALL_BOOLEANS, 0xFF),
    (0, 0x1_FFF0),
];

fn set(word: u64) -> AttrSet {
    AttrSet::from_word(word)
}

/// A kernel over `r` whose [`SETS`] are built first as Lemma-4 keys
/// (bucketed) when `keyed`, else per row.
fn warm(r: &Relation, keyed: bool) -> InternedRelation {
    let ir = InternedRelation::from_relation(r);
    for w in SETS {
        if keyed {
            let _ = ir.min_group_distinct(&set(w), &set(0b1));
        } else {
            let _ = ir.group_index(&set(w));
        }
    }
    ir
}

/// A fresh kernel over `r` whose [`SETS`] are built as keys, checked
/// against the model.
fn fresh(r: &Relation, cov: &mut Coverage, ctx: &str) -> InternedRelation {
    let ir = warm(r, true);
    BuildLog::of_words(SETS).check_all(&ir, cov, &format!("{ctx}, fresh"));
    ir
}

#[test]
fn groupings_beyond_the_narrow_bound_match_the_model() {
    let r = relation(0..70_000);
    assert!(r.len() > NARROW_ROWS);
    let mut cov = Coverage::default();
    let kernels = [warm(&r, true), warm(&r, false)];
    for (ir, ctx) in kernels.iter().zip(["keyed", "probed"]) {
        BuildLog::of_words(SETS).check_all(ir, &mut cov, ctx);
    }
    for q in PAIRS {
        let expected = ops::reference::group_count_distinct(&r, &set(q.0), &set(q.1));
        let min = expected.values().copied().min().expect("rows");
        for (ir, ctx) in kernels.iter().zip(["keyed", "probed"]) {
            assert_eq!(
                ir.min_group_distinct(&set(q.0), &set(q.1)),
                min,
                "{ctx}: {q:#x?}"
            );
            assert_eq!(
                ir.group_count_distinct(&set(q.0), &set(q.1)),
                expected,
                "{ctx}: group counts {q:#x?}"
            );
        }
    }
    cov.assert_complete(false);
}

#[test]
fn an_append_across_the_narrow_bound_widens_every_grouping() {
    // The narrow maximum, then the crossing row alone, then a batch that
    // repeats a row and goes on to 70,000.
    let batches: [Vec<usize>; 2] = [vec![NARROW_ROWS], (NARROW_ROWS - 1..70_000).collect()];
    let mut rows: Vec<usize> = (0..NARROW_ROWS).collect();
    let base = relation(rows.iter().copied());
    let mut cov = Coverage::default();
    // Bucket bounds reach the narrow maximum.
    let _ = fresh(&base, &mut cov, "65,535 rows");
    let mut ir = InternedRelation::from_relation(&base);
    // Bucketed keys (one with a derived per-row copy), per-row probes
    // and the full-row grouping, all warm before the crossing.
    for (k, p) in [(0xFF, 0xFF00), (ALL_WIDE, 0xFF), (0xFFF | W0, 0x1_F000)] {
        let _ = ir.min_group_distinct(&set(k), &set(p));
    }
    assert_eq!(
        ir.group_index(&set(ALL_WIDE)).row_group().len(),
        NARROW_ROWS
    );
    let _ = ir.group_index(&set(ALL));
    let warmed: Vec<u64> = SETS
        .into_iter()
        .filter(|&w| ir.group_new_group_epoch(&set(w)).is_some())
        .collect();
    let bucketed = warmed
        .iter()
        .filter(|&&w| ir.group_index(&set(w)).is_bucketed())
        .count();
    assert!(bucketed > 0 && bucketed < warmed.len(), "{warmed:#x?}");
    let mut log = BuildLog::of_words(SETS);
    log.note(&ir, NARROW_ROWS);
    // The epoch each warmed grouping last gained a group at.
    let mut epochs: Vec<(u64, u32, u64)> = warmed
        .iter()
        .map(|&w| (w, ir.group_index(&set(w)).n_groups(), 0))
        .collect();
    for (step, batch) in batches.iter().enumerate() {
        let before = rows.len();
        let added = ir
            .append_rows(&batch.iter().map(|&r| row(r)).collect::<Vec<_>>())
            .expect("schema rows");
        rows.extend(batch.iter().filter(|&&r| r >= before));
        assert_eq!((added, ir.n_rows()), (rows.len() - before, rows.len()));
        let ctx = format!("step {step}, {} rows", rows.len());
        let acc = relation(rows.iter().copied());
        log.check_all(&ir, &mut cov, &ctx);
        for (w, groups, epoch) in &mut epochs {
            let n_groups = ir.group_index(&set(*w)).n_groups();
            if n_groups > *groups {
                (*groups, *epoch) = (n_groups, ir.epoch());
            }
            assert_eq!(
                ir.group_new_group_epoch(&set(*w)),
                Some(*epoch),
                "{ctx}: new-group epoch of {w:#x}"
            );
        }
        let fresh = fresh(&acc, &mut cov, &ctx);
        for q in PAIRS {
            assert_eq!(
                ir.min_group_distinct(&set(q.0), &set(q.1)),
                fresh.min_group_distinct(&set(q.0), &set(q.1)),
                "{ctx}: {q:#x?}"
            );
        }
    }
    assert_eq!(ir.n_rows(), 70_000);
    cov.assert_complete(true);
}
