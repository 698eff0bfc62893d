//! The kernel's documented zero-allocation probe: once the group indexes
//! a Lemma-4 probe touches are cached and the thread's pair-pass buffer
//! has grown, the probe performs no heap allocation — on every scan,
//! keyed on bucketed and on per-row groupings alike, on relations whose
//! groupings store `u16` and `u32` row indexes, and building its
//! key and probe sets with [`AttrSet::from_word`] included, since a set
//! of attributes `< 64` is stored inline. A counting global allocator
//! tallies allocations per thread, so the harness's own threads cannot
//! disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use sv_relation::{ops, AttrSet, InternedRelation, Relation, Schema};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: forwards every request unchanged to the system allocator; the
// thread-local counter has a const initializer, so counting never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made by this thread while running `f`.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Every combination of `n` boolean attributes as a row: `2^n` rows.
fn all_rows(n: u32) -> Relation {
    let names: Vec<String> = (0..n).map(|a| format!("a{a}")).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let rows = (0..1u32 << n)
        .map(|r| (0..n).map(|a| (r >> a) & 1).collect())
        .collect();
    Relation::from_values(Schema::booleans(&names), rows).expect("boolean rows")
}

fn probe(ir: &InternedRelation, (k, p): (u64, u64)) -> usize {
    ir.min_group_distinct(&AttrSet::from_word(k), &AttrSet::from_word(p))
}

/// A kernel over `r` whose groupings by `per_row_keys` are built per
/// row first, as a probe builds them; every other key is built bucketed
/// on its first probe.
fn kernel(r: &Relation, per_row_keys: &[u64]) -> InternedRelation {
    let ir = InternedRelation::from_relation(r);
    for &w in per_row_keys {
        let _ = ir.group_index(&AttrSet::from_word(w));
    }
    ir
}

/// The kernel's pair-marking bound: a probe keyed on a per-row grouping
/// whose key groups × probe groups fit this many bits per row marks
/// pairs; a larger one counting-sorts its rows.
const PAIR_MARK_BITS_PER_ROW: u64 = 256;

/// What `min_group_distinct` runs for a probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Scan {
    /// One key group, a key group per row or one probe group: no pass.
    NoPass,
    /// A probe group per row over a bucketed key: its smallest bucket.
    SmallestGroup,
    /// The stamp scan over a bucketed key's buckets.
    Buckets,
    /// Pair marking over a per-row key.
    Marking,
    /// The counting sort of a per-row key's rows, then the stamp scan.
    CountingSort,
}

/// The scan the kernel runs for `q` (both groupings cached), by the
/// documented rule.
fn scan(ir: &InternedRelation, (k, p): (u64, u64)) -> Scan {
    let kg = ir.group_index(&AttrSet::from_word(k));
    let (kn, pn, n) = (
        u64::from(kg.n_groups()),
        u64::from(ir.group_index(&AttrSet::from_word(p)).n_groups()),
        ir.n_rows() as u64,
    );
    if pn <= 1 || kn == n || kn == 1 {
        Scan::NoPass
    } else if kg.is_bucketed() && pn == n {
        Scan::SmallestGroup
    } else if kg.is_bucketed() {
        Scan::Buckets
    } else if kn * pn <= PAIR_MARK_BITS_PER_ROW * n {
        Scan::Marking
    } else {
        Scan::CountingSort
    }
}

/// Asserts that, once warm, each of `probes` over every row of `n`
/// boolean attributes allocates nothing, that together they run every
/// [`Scan`] on keys of both layouts (the sets `per_row_keys` built per
/// row, the rest bucketed), and that `at_bound` marks pairs at the
/// pair-marking bound.
fn assert_warm_probes_allocate_nothing(
    n: u32,
    per_row_keys: &[u64],
    probes: &[(u64, u64)],
    at_bound: (u64, u64),
) {
    let ir = kernel(&all_rows(n), per_row_keys);

    // Warm-up: builds every grouping and grows the thread's buffer.
    let expected: Vec<usize> = probes.iter().map(|&q| probe(&ir, q)).collect();
    let scans: Vec<Scan> = probes.iter().map(|&q| scan(&ir, q)).collect();
    for s in [
        Scan::NoPass,
        Scan::SmallestGroup,
        Scan::Buckets,
        Scan::Marking,
        Scan::CountingSort,
    ] {
        assert!(scans.contains(&s), "no probe runs {s:?}: {scans:?}");
    }
    let groups = |w| u64::from(ir.group_index(&AttrSet::from_word(w)).n_groups());
    assert!(probes.contains(&at_bound));
    assert_eq!(scan(&ir, at_bound), Scan::Marking);
    assert_eq!(
        groups(at_bound.0) * groups(at_bound.1),
        PAIR_MARK_BITS_PER_ROW * ir.n_rows() as u64,
        "the marking probe sits at the bound"
    );
    let bucketed = probes
        .iter()
        .filter(|&&(k, _)| ir.group_index(&AttrSet::from_word(k)).is_bucketed())
        .count();
    assert!(
        bucketed > 0 && bucketed < probes.len(),
        "both layouts are keys"
    );

    // The sets are built inside the counted closures.
    for (&q, &answer) in probes.iter().zip(&expected) {
        let (n, warm) = allocations_during(|| probe(&ir, q));
        assert_eq!(warm, answer);
        assert_eq!(n, 0, "warm probe {:#b}/{:#b} allocated", q.0, q.1);
    }

    // A cold grouping does allocate: the counter sees the kernel's heap.
    let (n, _) = allocations_during(|| probe(&ir, (0b11, 0b10_0000)));
    assert!(n > 0, "a cold probe builds groupings");
}

#[test]
fn warm_probes_allocate_nothing() {
    // Eleven boolean attributes: 5 inputs, 6 outputs, 2,048 rows (the
    // words below group the bits 10 | 9–5 | 4–0), whose groupings store
    // `u16` indexes. Key and probe words of every shape: empty, narrow,
    // wide, equal, the full row against the empty set, ten attributes
    // against ten (1,024 × 1,024 pairs, past the pair-marking bound),
    // ten against nine (1,024 × 512 pairs, exactly at it: the largest
    // marking pass, which grows the buffer furthest) and keys against
    // the full row, keyed on bucketed and on per-row groupings.
    let at_bound = (0b0_11111_11111, 0b1_11111_11100);
    assert_warm_probes_allocate_nothing(
        11,
        &[0b0_00000_10101, 0b0_11111_11111, 0b0_00011_11111],
        &[
            (0b0_00000_00001, 0b0_00011_00000),
            (0b0_00000_11111, 0b0_11111_00000),
            (0b0_00000_00000, 0b0_11111_00000),
            (0b0_00000_10101, 0b0_10101_00000),
            (0b1_11111_11111, 0b0_00000_00000),
            (0b0_00000_00111, 0b0_00000_00111),
            (0b0_11111_11111, 0b1_11111_11110),
            at_bound,
            (0b0_00011_11111, 0b1_11111_11111),
            (0b0_00001_11111, 0b1_11111_11111),
        ],
        at_bound,
    );
}

#[test]
fn warm_probes_on_a_wide_relation_allocate_nothing() {
    // Seventeen boolean attributes, 131,072 rows (the words below group
    // the bits 16 | 15–8 | 7–0): past 65,535 rows, every grouping stores
    // `u32` indexes. The same shapes as on the narrow relation; sixteen
    // attributes against nine (65,536 × 512 pairs) sit at the bound.
    let at_bound = (0xFFFF, 0x1_FF00);
    assert_warm_probes_allocate_nothing(
        17,
        &[0x55, 0xFFFF, 0x3F],
        &[
            (0x1, 0x300),
            (0xFF, 0xFF00),
            (0x0, 0xFF00),
            (0x55, 0x5500),
            (0x1_FFFF, 0x0),
            (0x7, 0x7),
            (0xFFFF, 0x1_FFFE),
            at_bound,
            (0x3F, 0x1_FFFF),
            (0x7F, 0x1_FFFF),
        ],
        at_bound,
    );
}

#[test]
fn one_buffer_serves_relations_of_every_size() {
    // A 2,048-row relation, a 4-row one, then the large one again on
    // every scan, all on this thread's one pair-pass buffer: a pass over
    // the small relation uses a prefix of the buffer the large one grew,
    // and no later pass may read what an earlier one left.
    let large = all_rows(11);
    let small = all_rows(2);
    let (large_ir, small_ir) = (
        kernel(&large, &[0b0_00000_10101, 0b0_11111_11111]),
        kernel(&small, &[0b10]),
    );
    let rounds: [(&Relation, &InternedRelation, (u64, u64)); 6] = [
        (&large, &large_ir, (0b0_00000_10101, 0b0_10101_00000)),
        (&small, &small_ir, (0b01, 0b10)),
        (&large, &large_ir, (0b0_11111_11111, 0b1_11111_11110)),
        (&large, &large_ir, (0b0_00000_00011, 0b0_00111_00000)),
        (&small, &small_ir, (0b10, 0b01)),
        (&large, &large_ir, (0b0_00001_11111, 0b1_11111_11111)),
    ];
    let reference = |r: &Relation, (k, p): (u64, u64)| {
        ops::reference::group_count_distinct(r, &AttrSet::from_word(k), &AttrSet::from_word(p))
            .into_values()
            .min()
            .unwrap_or(usize::MAX)
    };
    // The first round builds the groupings and grows the buffer; the
    // second, warm round must allocate nothing.
    for warm in [false, true] {
        for (i, &(r, ir, q)) in rounds.iter().enumerate() {
            let (n, answer) = allocations_during(|| probe(ir, q));
            assert_eq!(answer, reference(r, q), "probe {i}, warm {warm}");
            if warm {
                assert_eq!(n, 0, "warm probe {i} allocated");
            }
        }
    }
    assert_eq!(
        rounds.map(|(_, ir, q)| scan(ir, q)),
        [
            Scan::Marking,
            Scan::Buckets,
            Scan::CountingSort,
            Scan::Buckets,
            Scan::Marking,
            Scan::SmallestGroup,
        ],
    );
}
