//! Shared by the kernel property suites: the naive grouping model every
//! [`GroupIndex`](sv_relation::GroupIndex) is checked against, in both
//! layouts (bucketed, for a set first built as a Lemma-4 key, and per
//! row, for a set first built as a probe), the classification of a
//! grouping by the path that builds it, and the value generator for
//! wide (interner) domains.

// Each suite that includes this module uses a different part of it.
#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{HashMap, HashSet};
use sv_relation::{AttrDef, AttrId, AttrSet, Domain, InternedRelation, Schema, Value};

/// Which kernel path builds a grouping: the kernel numbers mixed-radix
/// codes by direct addressing when the code space is at most
/// `DIRECT_ADDRESS_FACTOR` × rows (and fits `u32` codes), sorts them
/// above that, and interns sub-tuples whose codes overflow `u64`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum GroupingPath {
    Direct,
    Sorted,
    Interned,
}

/// The kernel's direct-addressing cutoff, as a multiple of the rows.
const DIRECT_ADDRESS_FACTOR: u128 = 4;

/// Domain size of the wide attributes: three of them overflow a `u64`
/// mixed-radix code, so their groupings take the interner path.
pub const WIDE_DOMAIN: u32 = u32::MAX;

/// The values [`random_value`] draws for a wide attribute.
pub const WIDE_VALUES: [Value; 4] = [0, 1, 1_000_000_000, 4_000_000_000];

fn attrs_of(schema: &Schema, word: u64) -> Vec<usize> {
    (0..schema.len()).filter(|&a| word >> a & 1 == 1).collect()
}

/// The path a grouping by `word` takes when built over `rows` rows.
fn grouping_path(schema: &Schema, word: u64, rows: usize) -> GroupingPath {
    let space = attrs_of(schema, word)
        .into_iter()
        .map(|a| u128::from(schema.attr(AttrId(a as u32)).domain.size()))
        .fold(1u128, u128::saturating_mul);
    if space > u128::from(u64::MAX) {
        GroupingPath::Interned
    } else if space <= DIRECT_ADDRESS_FACTOR * rows as u128 && space <= u128::from(u32::MAX) {
        GroupingPath::Direct
    } else {
        GroupingPath::Sorted
    }
}

/// A schema of `n` attributes with domain sizes 2–4, whose first three
/// attributes are wide when `wide` is set.
pub fn random_schema(rng: &mut StdRng, n: usize, wide: bool) -> Schema {
    Schema::new(
        (0..n)
            .map(|i| AttrDef {
                name: format!("a{i}"),
                domain: Domain::new(if wide && i < 3 {
                    WIDE_DOMAIN
                } else {
                    rng.gen_range(2u32..5)
                }),
            })
            .collect(),
    )
}

/// A random value of a domain of `size` values; wide domains draw from a
/// handful of spread-out values so their groups still share rows.
pub fn random_value(rng: &mut StdRng, size: u32) -> Value {
    if size == WIDE_DOMAIN {
        WIDE_VALUES[rng.gen_range(0usize..4)]
    } else {
        rng.gen_range(0..size)
    }
}

/// Asserts the kernel's grouping by `word` equals a naive densify of
/// its column store, and returns the path that built it and whether it
/// is bucketed (its per-row ids are then derived from the buckets):
/// sub-tuples of
/// the first `built_rows` rows (those present when the grouping was
/// built) rank in ascending order (mixed-radix codes order exactly like
/// sub-tuples compared attribute by attribute) or, on the interner
/// path, take ids in first-seen order; sub-tuples first seen in later,
/// appended rows take the next ids in first-seen order.
fn assert_grouping(
    ir: &InternedRelation,
    word: u64,
    built_rows: usize,
    ctx: &str,
) -> (GroupingPath, bool) {
    let attrs = attrs_of(ir.schema(), word);
    let sub = |row: usize| -> Vec<Value> {
        attrs
            .iter()
            .map(|&a| ir.value(row, AttrId(a as u32)))
            .collect()
    };
    let path = grouping_path(ir.schema(), word, built_rows);
    let mut seen: HashSet<Vec<Value>> = HashSet::new();
    let mut ids: Vec<Vec<Value>> = Vec::new();
    for row in 0..built_rows {
        let s = sub(row);
        if seen.insert(s.clone()) {
            ids.push(s);
        }
    }
    if path != GroupingPath::Interned {
        ids.sort();
    }
    for row in built_rows..ir.n_rows() {
        let s = sub(row);
        if seen.insert(s.clone()) {
            ids.push(s);
        }
    }
    let id_of: HashMap<&[Value], u32> = ids
        .iter()
        .enumerate()
        .map(|(g, s)| (s.as_slice(), g as u32))
        .collect();
    let row_group: Vec<u32> = (0..ir.n_rows())
        .map(|row| id_of[sub(row).as_slice()])
        .collect();
    let mut representative: Vec<Option<u32>> = vec![None; ids.len()];
    for (row, &g) in row_group.iter().enumerate() {
        representative[g as usize].get_or_insert(row as u32);
    }
    let representative: Vec<u32> = representative
        .into_iter()
        .map(|r| r.expect("dense ids"))
        .collect();
    let g = ir.group_index(&AttrSet::from_word(word));
    assert_eq!(
        g.n_groups() as usize,
        ids.len(),
        "{ctx}: n_groups of {word:#b}"
    );
    assert_eq!(
        g.row_group().collect::<Vec<_>>(),
        row_group,
        "{ctx}: row_group of {word:#b}"
    );
    assert_eq!(
        g.representative().collect::<Vec<_>>(),
        representative,
        "{ctx}: representative of {word:#b}"
    );
    (path, g.is_bucketed())
}

/// The row count each of a kernel's groupings was built over, read
/// through the kernel's public cache probe, so that groupings warmed
/// before appends are checked as extended and cold ones as fresh builds.
pub struct BuildLog {
    built: Vec<(u64, Option<usize>)>,
}

impl BuildLog {
    /// An empty log of every set of a schema of `k` attributes.
    pub fn new(k: usize) -> Self {
        Self::of_words(0..1 << k)
    }

    /// An empty log of the sets `words`.
    pub fn of_words(words: impl IntoIterator<Item = u64>) -> Self {
        Self {
            built: words.into_iter().map(|w| (w, None)).collect(),
        }
    }

    /// Logs every grouping `ir` has cached that the log lacks as built
    /// over `rows` rows: call after each kernel call that can build
    /// groupings, with the row count before that call.
    pub fn note(&mut self, ir: &InternedRelation, rows: usize) {
        for (word, built) in &mut self.built {
            if built.is_none()
                && ir
                    .group_new_group_epoch(&AttrSet::from_word(*word))
                    .is_some()
            {
                *built = Some(rows);
            }
        }
    }

    /// Checks every grouping of `ir` with [`assert_grouping`], building
    /// the missing ones over the current rows, and tallies their paths.
    pub fn check_all(&mut self, ir: &InternedRelation, cov: &mut Coverage, ctx: &str) {
        for (word, built) in &mut self.built {
            let rows = *built.get_or_insert(ir.n_rows());
            let (path, bucketed) = assert_grouping(ir, *word, rows, ctx);
            cov.record(path, ir.n_rows() > rows, bucketed);
        }
    }
}

/// Tallies the grouping paths and layouts a suite exercised, so a
/// generator change cannot silently drop one side of the cutoff or one
/// layout.
#[derive(Debug, Default)]
pub struct Coverage {
    direct: usize,
    sorted: usize,
    interned: usize,
    appended_direct: usize,
    bucketed: usize,
    per_row: usize,
}

impl Coverage {
    /// Records one checked grouping; `appended` when rows arrived after
    /// it was built, `bucketed` when it is held bucketed.
    fn record(&mut self, path: GroupingPath, appended: bool, bucketed: bool) {
        match path {
            GroupingPath::Direct => self.direct += 1,
            GroupingPath::Sorted => self.sorted += 1,
            GroupingPath::Interned => self.interned += 1,
        }
        if appended && path == GroupingPath::Direct {
            self.appended_direct += 1;
        }
        if bucketed {
            self.bucketed += 1;
        } else {
            self.per_row += 1;
        }
    }

    /// Asserts every path and both layouts were checked, and
    /// direct-addressed groupings after appends when `appends` is set.
    pub fn assert_complete(&self, appends: bool) {
        assert!(
            self.direct > 0 && self.sorted > 0 && self.interned > 0,
            "{self:?}"
        );
        assert!(self.bucketed > 0 && self.per_row > 0, "{self:?}");
        assert!(!appends || self.appended_direct > 0, "{self:?}");
    }
}
