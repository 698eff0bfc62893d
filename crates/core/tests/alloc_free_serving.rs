//! The serving path's allocation contract: a probe frame of word-encoded
//! visible sets decodes with one allocation (the probe `Vec`; every set
//! is inline in its request), a wide list-form set decodes with
//! allocations logarithmic in its words, and warm memo probes allocate
//! nothing, building their sets with [`AttrSet::from_word`] included. A
//! counting global allocator tallies allocations and allocated bytes per
//! thread, so the harness's own threads cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use sv_core::wire::Request;
use sv_core::{MemoSafetyOracle, ProbeRequest, SafetyOracle, StandaloneModule};
use sv_relation::{AttrId, AttrSet};
use sv_workflow::library::one_one_chain;
use sv_workflow::ModuleId;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    // `try_with`: the slots may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: forwards every request unchanged to the system allocator; the
// thread-local counter has a const initializer, so counting never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
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

/// Bytes this thread allocated (a `realloc` counts its new size) while
/// running `f`.
fn bytes_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (BYTES.with(Cell::get) - before, out)
}

#[test]
fn a_word_set_probe_frame_decodes_with_one_allocation() {
    let probes: Vec<ProbeRequest> = (0..256u64)
        .map(|i| {
            let p = ProbeRequest::new(ModuleId((i % 3) as u32), AttrSet::from_word(i * 37), 4);
            if i % 2 == 0 {
                p.at_epoch(i)
            } else {
                p
            }
        })
        .collect();
    let request = Request::Probe { tenant: 9, probes };
    let payload = request.encode();
    let (n, decoded) = allocations_during(|| Request::decode(&payload));
    assert_eq!(decoded.as_ref(), Ok(&request));
    assert_eq!(n, 1, "one allocation, for the probe Vec");
}

#[test]
fn a_wide_ascending_list_set_decodes_in_logarithmic_allocations() {
    // The ids 0, 64, …, 2²⁰ in ascending order (the order the encoder
    // writes): 16,385 ids, each opening a new bitset word.
    let wide = AttrSet::from_iter((0..=1u32 << 14).map(|i| AttrId(i * 64)));
    let request = Request::Probe {
        tenant: 9,
        probes: vec![ProbeRequest::new(ModuleId(0), wide, 4)],
    };
    let payload = request.encode();
    assert_eq!(payload.len(), 65_579);
    let (n, decoded) = allocations_during(|| Request::decode(&payload));
    assert_eq!(decoded.as_ref(), Ok(&request));
    // The probe `Vec`, then the set's words grown by doubling and
    // trimmed once: not one reallocation per word.
    assert!(n <= 20, "{n} allocations");
    let (bytes, _) = bytes_during(|| Request::decode(&payload));
    let set_bytes = 16_385 * 8;
    assert!(
        bytes <= 6 * set_bytes,
        "{bytes} bytes for a {set_bytes}-byte set"
    );
}

#[test]
fn warm_memo_probes_allocate_nothing() {
    // One module of ten boolean wires in, ten out (k = 20).
    let module =
        StandaloneModule::from_workflow_module(&one_one_chain(1, 10), ModuleId(0), 1 << 20)
            .expect("module materializes");
    let memo = MemoSafetyOracle::new(module);
    let words: Vec<u64> = (0..64u64).map(|i| (i * 0x9E37_79B9) & 0xF_FFFF).collect();
    let gammas = [2u128, 8, 1 << 10];
    // Warm-up: every level cached, every grouping built, the thread's
    // pair-pass buffer grown.
    for &w in &words {
        for &g in &gammas {
            let _ = memo.is_safe(&AttrSet::from_word(w), g);
            let _ = memo.is_safe_hidden(&AttrSet::from_word(w), g);
        }
    }
    let misses = memo.misses();

    // The sets are built inside the counted closures.
    for &w in &words {
        for &g in &gammas {
            let (n, _) = allocations_during(|| memo.is_safe(&AttrSet::from_word(w), g));
            assert_eq!(n, 0, "warm is_safe({w:#x}, {g}) allocated");
            let (n, _) = allocations_during(|| memo.is_safe_hidden(&AttrSet::from_word(w), g));
            assert_eq!(n, 0, "warm is_safe_hidden({w:#x}, {g}) allocated");
        }
    }
    assert_eq!(memo.misses(), misses, "every counted probe was warm");
}
