//! Property suite for **Lemma-4 probes over word-encoded sets**
//! ([`AttrSet::from_word`]) in batches: on random relations and random probe batches (duplicate
//! pairs, shared attribute sets, empty relations, streamed appends),
//! the probe (one thread's pair-pass buffer reused across the whole
//! batch) agrees with the row-at-a-time reference semantics, on every
//! pair-pass path — the stamp scan over a bucketed key's cached
//! buckets, and for a per-row key pair marking and the counting sort,
//! at the bound between them too — and on every shape answered without
//! a pass. Every grouping the probes run on — direct-addressed, sorted
//! and interned, bucketed and per row, before and after appends —
//! equals a naive densify of the column store.

mod common;

use common::{random_schema, random_value, BuildLog, Coverage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::RangeInclusive;
use sv_relation::{ops, AttrDef, AttrSet, Domain, InternedRelation, Relation, Schema, Tuple};

/// The kernel's pair-marking bound: a probe keyed on a per-row grouping
/// whose pair space, key groups × probe groups, is at most this many
/// bits per row marks pairs; a larger one counting-sorts its rows.
const PAIR_MARK_BITS_PER_ROW: u64 = 256;

fn random_rows(rng: &mut StdRng, schema: &Schema, rows: RangeInclusive<usize>) -> Vec<Vec<u32>> {
    let n = rng.gen_range(rows);
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

/// The schema of a relation with hundreds of distinct rows, on which
/// near-full-row probes cross the pair-marking bound: ten booleans, or
/// eight attributes whose first three are wide (interner groupings).
fn large_schema(rng: &mut StdRng, wide: bool) -> Schema {
    if wide {
        random_schema(rng, 8, true)
    } else {
        let names: Vec<String> = (0..10).map(|a| format!("b{a}")).collect();
        Schema::booleans(&names.iter().map(String::as_str).collect::<Vec<_>>())
    }
}

/// Probes pairing the full row with itself and with the full row less
/// one or two attributes: on hundreds of distinct rows both sides have
/// about one group per row, past the pair-marking bound.
fn full_row_probes(k: usize) -> Vec<(u64, u64)> {
    let all = (1u64 << k) - 1;
    vec![
        (all, all),
        (all, all & !1),
        (all & !1, all),
        (all & !2, all & !1),
    ]
}

/// Tallies the pair-pass paths the suite compared with the reference —
/// the pass `group_count_distinct` runs, read from the key grouping's
/// layout and, for a per-row key, re-derived from the documented rule —
/// so a generator change cannot silently drop one layout or one side of
/// the bound.
#[derive(Debug, Default)]
struct PairCoverage {
    /// Stamp scans over a bucketed key's cached buckets.
    bucketed: usize,
    marking: usize,
    counting: usize,
    /// Marking probes on rows whose pair space is exactly the bound.
    at_bound: usize,
    /// Counting probes that one probe group fewer would have marked.
    past_bound: usize,
    wide_bucketed: usize,
    wide_marking: usize,
    wide_counting: usize,
    empty: usize,
}

impl PairCoverage {
    /// Checks one probe of `ir` (a kernel over `r`) against the
    /// reference semantics — the minimum, and every key group's count
    /// through `group_count_distinct` — and records the path the
    /// kernel's rule picks for it.
    fn check(&mut self, ir: &InternedRelation, r: &Relation, (kw, pw): (u64, u64), ctx: &str) {
        let (key, probe) = (AttrSet::from_word(kw), AttrSet::from_word(pw));
        let expected = ops::reference::group_count_distinct(r, &key, &probe);
        let min = expected.values().copied().min().unwrap_or(usize::MAX);
        assert_eq!(
            ir.min_group_distinct(&key, &probe),
            min,
            "{ctx} {kw:#b}/{pw:#b}: minimum"
        );
        assert_eq!(
            ir.group_count_distinct(&key, &probe),
            expected,
            "{ctx} {kw:#b}/{pw:#b}: group counts"
        );
        let kg = ir.group_index(&key);
        let kn = u64::from(kg.n_groups());
        let pn = u64::from(ir.group_index(&probe).n_groups());
        let bound = PAIR_MARK_BITS_PER_ROW * ir.n_rows() as u64;
        let wide = ir.schema().iter().any(|(_, d)| d.domain.size() == u32::MAX);
        if kg.is_bucketed() {
            self.bucketed += 1;
            self.wide_bucketed += usize::from(wide);
        } else if kn * pn <= bound {
            self.marking += 1;
            self.at_bound += usize::from(kn * pn == bound && bound > 0);
            self.wide_marking += usize::from(wide);
        } else {
            self.counting += 1;
            self.past_bound += usize::from(kn * (pn - 1) <= bound);
            self.wide_counting += usize::from(wide);
        }
        self.empty += usize::from(ir.n_rows() == 0);
    }

    fn assert_complete(&self) {
        let tallies = [
            self.bucketed,
            self.marking,
            self.counting,
            self.at_bound,
            self.past_bound,
            self.wide_bucketed,
            self.wide_marking,
            self.wide_counting,
            self.empty,
        ];
        assert!(tallies.iter().all(|&t| t > 0), "{self:?}");
    }
}

/// A kernel over `r` with every grouping of the schema's first `attrs`
/// attributes built first: per row (as a probe builds it) when
/// `per_row` is set, else bucketed (as a key builds it).
fn kernel(r: &Relation, attrs: usize, per_row: bool) -> InternedRelation {
    let ir = InternedRelation::from_relation(r);
    for w in 0..1u64 << attrs {
        let set = AttrSet::from_word(w);
        if per_row {
            let _ = ir.group_index(&set);
        } else {
            let _ = ir.min_group_distinct(&set, &AttrSet::new());
        }
    }
    ir
}

/// Shapes at the bound, checked into `pairs` on per-row and on
/// bucketed keys: 300 rows `(i, i mod m)` keyed by `i` (300 groups)
/// against `i mod m` — exactly the bound's 76,800 pairs at `m = 256`,
/// one probe group past it at `m = 257` — on both sides; every
/// combination of ten booleans, whose full row (1,024 groups) meets the
/// bound against eight attributes (256 groups) and crosses it against
/// nine; and empty relations.
fn check_bound_shapes(pairs: &mut PairCoverage) {
    let attr = |name: &str, size: u32| AttrDef {
        name: name.to_string(),
        domain: Domain::new(size),
    };
    for per_row in [true, false] {
        for m in [256u32, 257] {
            let schema = Schema::new(vec![attr("i", 300), attr("p", 257)]);
            let rows = (0..300).map(|i| vec![i, i % m]).collect();
            let r = Relation::from_values(schema, rows).expect("in-domain rows");
            let ir = kernel(&r, 2, per_row);
            for q in [(0b01, 0b10), (0b10, 0b01), (0b01, 0b11), (0b10, 0b10)] {
                pairs.check(&ir, &r, q, &format!("i mod {m}, per row {per_row}"));
            }
        }
        let names: Vec<String> = (0..10).map(|a| format!("b{a}")).collect();
        let schema = Schema::booleans(&names.iter().map(String::as_str).collect::<Vec<_>>());
        let rows = (0..1u32 << 10)
            .map(|r| (0..10).map(|a| (r >> a) & 1).collect())
            .collect();
        let r = Relation::from_values(schema, rows).expect("boolean rows");
        let ir = InternedRelation::from_relation(&r);
        if per_row {
            for w in [0x3FF, 0xFF] {
                let _ = ir.group_index(&AttrSet::from_word(w));
            }
        }
        for q in [(0x3FF, 0xFF), (0x3FF, 0x1FF), (0xFF, 0x3FF), (0x3FF, 0x3FF)] {
            pairs.check(
                &ir,
                &r,
                q,
                &format!("all 1,024 boolean rows, per row {per_row}"),
            );
        }
    }
    let mut rng = StdRng::seed_from_u64(0xB0);
    for schema in [
        Schema::booleans(&["a", "b", "c"]),
        random_schema(&mut rng, 4, true),
    ] {
        let r = Relation::empty(schema);
        let ir = InternedRelation::from_relation(&r);
        for q in [(0b001, 0b110), (0, 0), (0b1111, 0b1111)] {
            pairs.check(&ir, &r, q, "empty relation");
        }
    }
}

#[test]
fn word_probes_equal_reference() {
    let mut rng = StdRng::seed_from_u64(0xE18);
    let mut coverage = Coverage::default();
    let mut pairs = PairCoverage::default();
    let large_from = 30;
    for trial in 0..large_from + 4 {
        let large = trial >= large_from;
        let (schema, rows) = if large {
            let schema = large_schema(&mut rng, trial % 2 == 1);
            let rows = random_rows(&mut rng, &schema, 400..=700);
            (schema, rows)
        } else {
            let n = rng.gen_range(3usize..=8);
            let schema = random_schema(&mut rng, n, trial % 3 == 0);
            let rows = random_rows(&mut rng, &schema, 0..=40);
            (schema, rows)
        };
        let k = schema.len();
        let r = Relation::from_values(schema, rows).expect("rows fit the schema");
        let ir = InternedRelation::from_relation(&r);
        let len = rng.gen_range(0..25);
        let mut probes = random_batch(&mut rng, k, len);
        if large {
            probes.extend(full_row_probes(k));
        }
        // Half the trials build every key per row first, as a probe
        // would, so their passes mark pairs or counting-sort; the rest
        // build each cold key bucketed on its first probe.
        if trial % 4 < 2 {
            for &(kw, _) in &probes {
                let _ = ir.group_index(&AttrSet::from_word(kw));
            }
        }

        // The thread's one buffer serves the whole batch.
        for (i, &q) in probes.iter().enumerate() {
            pairs.check(&ir, &r, q, &format!("trial {trial} probe {i}"));
        }
        // The naive densify is quadratic in the rows: check the small
        // relations' groupings only.
        if !large {
            BuildLog::new(k).check_all(&ir, &mut coverage, &format!("trial {trial}"));
        }
    }
    check_bound_shapes(&mut pairs);
    coverage.assert_complete(false);
    pairs.assert_complete();
}

#[test]
fn word_probes_survive_streamed_appends() {
    let mut rng = StdRng::seed_from_u64(0x5E21E);
    let mut coverage = Coverage::default();
    let mut pairs = PairCoverage::default();
    let large_from = 15;
    for trial in 0..large_from + 2 {
        let large = trial >= large_from;
        let (schema, base, batch_rows) = if large {
            let schema = large_schema(&mut rng, trial % 2 == 1);
            let base = random_rows(&mut rng, &schema, 300..=500);
            (schema, base, 0..=40)
        } else {
            let n = rng.gen_range(3usize..=8);
            let schema = random_schema(&mut rng, n, trial % 3 == 0);
            let base = random_rows(&mut rng, &schema, 0..=20);
            (schema, base, 0..=8)
        };
        let k = schema.len();
        let mut acc = Relation::from_values(schema.clone(), base).expect("valid base");
        let mut ir = InternedRelation::from_relation(&acc);
        let mut probes = random_batch(&mut rng, k, 12);
        if large {
            probes.extend(full_row_probes(k));
        }
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
            let batch: Vec<Tuple> = random_rows(&mut rng, &schema, batch_rows.clone())
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
            for (i, &q) in probes.iter().enumerate() {
                pairs.check(&ir, &acc, q, &format!("{ctx} probe {i}, streamed"));
            }
            // The naive densify is quadratic in the rows: check the small
            // relations' groupings only.
            if !large {
                log.check_all(&ir, &mut coverage, &format!("{ctx}, streamed"));
                BuildLog::new(k).check_all(&rebuilt, &mut coverage, &format!("{ctx}, rebuilt"));
            }
        }
    }
    coverage.assert_complete(true);
    // Streamed kernels cross the bound too; its exact shapes are
    // checked on fresh builds in `word_probes_equal_reference`. Keys
    // warmed bucketed before an append are rewritten per row by it.
    assert!(
        pairs.bucketed > 0 && pairs.marking > 0 && pairs.counting > 0,
        "{pairs:?}"
    );
    assert!(
        pairs.wide_marking > 0 && pairs.wide_counting > 0,
        "{pairs:?}"
    );
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

/// The shapes `min_group_distinct` answers without a pair pass, by the
/// documented rule, tallied so that each is checked on the layouts it
/// reads.
#[derive(Debug, Default)]
struct ShapeCoverage {
    /// At most one probe group: the answer is 1.
    one_probe_group: usize,
    /// A key group per row: the answer is 1.
    key_group_per_row: usize,
    /// One key group: the answer is the probe group count.
    one_key_group: usize,
    /// A probe group per row: the smallest bucket of a bucketed key.
    probe_group_per_row_bucketed: usize,
    /// Every other shape, a probe group per row over a per-row key
    /// included, runs a pair pass.
    pass: usize,
}

#[test]
fn degenerate_shapes_equal_reference() {
    let mut rng = StdRng::seed_from_u64(0xDE6E);
    let boolean = Schema::booleans(&["a", "b", "c", "d", "e"]);
    let wide = random_schema(&mut rng, 4, true);
    let relations = [
        (boolean.clone(), random_rows(&mut rng, &boolean, 12..=12)),
        (wide.clone(), random_rows(&mut rng, &wide, 10..=10)),
        (boolean.clone(), random_rows(&mut rng, &boolean, 1..=1)),
        (wide.clone(), random_rows(&mut rng, &wide, 1..=1)),
    ];
    let mut shapes = ShapeCoverage::default();
    for (i, (schema, rows)) in relations.into_iter().enumerate() {
        let k = schema.len();
        let r = Relation::from_values(schema, rows).expect("rows fit the schema");
        let n = r.len();
        for per_row in [false, true] {
            let ir = kernel(&r, k, per_row);
            for kw in 0..1u64 << k {
                for pw in 0..1u64 << k {
                    let (key, probe) = (AttrSet::from_word(kw), AttrSet::from_word(pw));
                    let expected = ops::reference::group_count_distinct(&r, &key, &probe)
                        .into_values()
                        .min()
                        .unwrap_or(usize::MAX);
                    assert_eq!(
                        ir.min_group_distinct(&key, &probe),
                        expected,
                        "relation {i}, per row {per_row}: {kw:#b}/{pw:#b}"
                    );
                    let kg = ir.group_index(&key);
                    let kn = kg.n_groups() as usize;
                    let pn = ir.group_index(&probe).n_groups() as usize;
                    let tally = if pn <= 1 {
                        &mut shapes.one_probe_group
                    } else if kn == n {
                        &mut shapes.key_group_per_row
                    } else if kn == 1 {
                        &mut shapes.one_key_group
                    } else if pn == n && kg.is_bucketed() {
                        &mut shapes.probe_group_per_row_bucketed
                    } else {
                        &mut shapes.pass
                    };
                    *tally += 1;
                }
            }
        }
    }
    let tallies = [
        shapes.one_probe_group,
        shapes.key_group_per_row,
        shapes.one_key_group,
        shapes.probe_group_per_row_bucketed,
        shapes.pass,
    ];
    assert!(tallies.iter().all(|&t| t > 0), "{shapes:?}");
}
