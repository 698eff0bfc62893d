//! The kernel's documented zero-allocation probe: once the group indexes
//! a Lemma-4 probe touches are cached and its scratch buffer (pinned or
//! pooled) has grown, the probe performs no heap allocation — building
//! its key and probe sets with [`AttrSet::from_word`] included, since a
//! set of attributes `< 64` is stored inline. A counting global
//! allocator tallies allocations per thread, so the harness's own
//! threads cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use sv_relation::{AttrSet, InternedRelation, Relation, Schema};

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

#[test]
fn warm_probes_allocate_nothing() {
    // Ten boolean attributes, every combination a row: 5 inputs, 5
    // outputs, 1,024 rows.
    let names: Vec<String> = (0..10).map(|a| format!("a{a}")).collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let rows = (0..1024u32)
        .map(|r| (0..10).map(|a| (r >> a) & 1).collect())
        .collect();
    let ir = InternedRelation::from_relation(
        &Relation::from_values(Schema::booleans(&names), rows).expect("boolean rows"),
    );
    // Key and probe words of every shape: empty, narrow, wide, equal,
    // the full row (a sorted grouping) against the empty set.
    let probes: Vec<(u64, u64)> = vec![
        (0b00000_00001, 0b00011_00000),
        (0b00000_11111, 0b11111_00000),
        (0b00000_00000, 0b11111_00000),
        (0b00000_10101, 0b10101_00000),
        (0b11111_11111, 0b00000_00000),
        (0b00000_00111, 0b00000_00111),
    ];

    // Warm-up: builds every grouping, grows the pinned buffer and
    // fills the pool.
    let mut scratch = Vec::new();
    let pinned = |k: u64, p: u64, scratch: &mut Vec<u64>| {
        ir.min_group_distinct_with(&AttrSet::from_word(k), &AttrSet::from_word(p), scratch)
    };
    let pooled =
        |k: u64, p: u64| ir.min_group_distinct(&AttrSet::from_word(k), &AttrSet::from_word(p));
    let expected: Vec<(usize, usize)> = probes
        .iter()
        .map(|&(k, p)| (pinned(k, p, &mut scratch), pooled(k, p)))
        .collect();

    // The sets are built inside the counted closures.
    for (&(k, p), &(on_pinned, on_pooled)) in probes.iter().zip(&expected) {
        let (n, answer) = allocations_during(|| pinned(k, p, &mut scratch));
        assert_eq!(answer, on_pinned);
        assert_eq!(n, 0, "warm pinned probe {k:#b}/{p:#b} allocated");
        let (n, answer) = allocations_during(|| pooled(k, p));
        assert_eq!(answer, on_pooled);
        assert_eq!(n, 0, "warm pooled probe {k:#b}/{p:#b} allocated");
    }

    // A cold grouping does allocate: the counter sees the kernel's heap.
    let (n, _) = allocations_during(|| pooled(0b00000_00011, 0b00001_00000));
    assert!(n > 0, "a cold probe builds groupings");
}
