//! The kernel's documented zero-allocation probe: once the group indexes
//! a Lemma-4 probe touches are cached and the thread's pair-pass buffer
//! has grown, the probe performs no heap allocation — building its key
//! and probe sets with [`AttrSet::from_word`] included, since a set of
//! attributes `< 64` is stored inline. A counting global allocator
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

/// The kernel's pair-marking bound: a probe whose key groups × probe
/// groups fit this many bits per row marks pairs; a larger one
/// counting-sorts its rows.
const PAIR_MARK_BITS_PER_ROW: u64 = 256;

/// Whether the kernel's pair pass for `q` marks pairs (else it
/// counting-sorts), by the documented rule.
fn marks_pairs(ir: &InternedRelation, (k, p): (u64, u64)) -> bool {
    let groups = |w| u64::from(ir.group_index(&AttrSet::from_word(w)).n_groups);
    groups(k) * groups(p) <= PAIR_MARK_BITS_PER_ROW * ir.n_rows() as u64
}

#[test]
fn warm_probes_allocate_nothing() {
    // Ten boolean attributes: 5 inputs, 5 outputs, 1,024 rows.
    let ir = InternedRelation::from_relation(&all_rows(10));
    // Key and probe words of every shape: empty, narrow, wide, equal,
    // the full row (a sorted grouping) against the empty set, and the
    // full row against eight attributes (1,024 × 256 pairs, the
    // pair-marking bound) and nine (past it: the counting sort).
    let probes: Vec<(u64, u64)> = vec![
        (0b00000_00001, 0b00011_00000),
        (0b00000_11111, 0b11111_00000),
        (0b00000_00000, 0b11111_00000),
        (0b00000_10101, 0b10101_00000),
        (0b11111_11111, 0b00000_00000),
        (0b00000_00111, 0b00000_00111),
        (0b11111_11111, 0b11111_11100),
        (0b11111_11111, 0b11111_11110),
    ];

    // Warm-up: builds every grouping and grows the thread's buffer.
    let expected: Vec<usize> = probes.iter().map(|&q| probe(&ir, q)).collect();
    let marking = probes.iter().filter(|&&q| marks_pairs(&ir, q)).count();
    assert!(
        marking > 0 && marking < probes.len(),
        "both pair-pass paths are probed"
    );

    // The sets are built inside the counted closures.
    for (&q, &answer) in probes.iter().zip(&expected) {
        let (n, warm) = allocations_during(|| probe(&ir, q));
        assert_eq!(warm, answer);
        assert_eq!(n, 0, "warm probe {:#b}/{:#b} allocated", q.0, q.1);
    }

    // A cold grouping does allocate: the counter sees the kernel's heap.
    let (n, _) = allocations_during(|| probe(&ir, (0b00000_00011, 0b00001_00000)));
    assert!(n > 0, "a cold probe builds groupings");
}

#[test]
fn one_buffer_serves_relations_of_every_size() {
    // A 1,024-row relation, a 4-row one, then the large one again on
    // both pair-pass paths, all on this thread's one pair-pass buffer: a
    // pass over the small relation uses a prefix of the buffer the large
    // one grew, and no later pass may read what an earlier one left.
    let large = all_rows(10);
    let small = all_rows(2);
    let (large_ir, small_ir) = (
        InternedRelation::from_relation(&large),
        InternedRelation::from_relation(&small),
    );
    let rounds: [(&Relation, &InternedRelation, (u64, u64)); 5] = [
        (&large, &large_ir, (0b00000_10101, 0b10101_00000)),
        (&small, &small_ir, (0b01, 0b10)),
        (&large, &large_ir, (0b11111_11111, 0b01111_11111)),
        (&large, &large_ir, (0b00000_00011, 0b00111_00000)),
        (&small, &small_ir, (0b11, 0b10)),
    ];
    assert_eq!(
        rounds.map(|(_, ir, q)| marks_pairs(ir, q)),
        [true, true, false, true, true],
        "the third round counting-sorts"
    );
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
}
