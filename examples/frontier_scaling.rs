//! The frontier engine: **trie antichains behind the lattice sweeps**.
//!
//! Earlier revisions kept each swept antichain as a flat `Vec<u64>` and
//! answered every per-mask coverage test by scanning it — `O(antichain)`
//! per query, millions of member visits per sweep, and the reason the
//! sweeps topped out around k = 20. The frontier engine stores the
//! ⊆-minimal safe sets as a [`Frontier`]: a path-compressed bitwise
//! trie (the canonical, ordered antichain) paired with a bitsliced
//! occurrence index that certifies `covers` in a few hundred
//! straight-line word ops regardless of antichain size. This
//! example walks the engine on a one-one module over 8 boolean wires
//! (k = 16, Γ = 16):
//!
//! 1. sweep the 65,536-mask lattice and read the engine's own
//!    instrumentation — masks visited vs. pruned, border masks emitted
//!    vs. covered subtrees jumped, trie nodes — all deterministic and
//!    CI-gated;
//! 2. walk the **uncovered border** (PR 10): `uncovered_in_layer`
//!    enumerates only the masks the antichain does not already cover,
//!    so each layer costs its border, not its binomial — the mechanism
//!    that lifted the sweeps from k = 24 to k = 28;
//! 3. ask the frontier the sweep's inner-loop question, `covers` (is
//!    this mask safe by Proposition 1?), and check it against explicit
//!    member scans;
//! 4. pick the cheapest safe hidden set with `min_cost_member`, the
//!    query the workflow memo layer answers min-cost sweeps with.
//!
//! Run with: `cargo run --example frontier_scaling`
//!
//! [`Frontier`]: secure_view::privacy::Frontier

use secure_view::privacy::sweep::{minimal_sets_sweep, SweepConfig};
use secure_view::privacy::{MemoSafetyOracle, StandaloneModule};
use secure_view::workflow::{library, ModuleId};

/// Boolean wires of the one-one module (k = 2 × WIRES lattice bits).
const WIRES: usize = 8;
/// Privacy requirement: at least Γ possible worlds per visible output.
const GAMMA: u128 = 16;

fn main() {
    let wf = library::one_one_chain(1, WIRES);
    let m = StandaloneModule::from_workflow_module(&wf, ModuleId(0), 1 << 26)
        .expect("one-one chain is a valid workflow module");
    let k = m.k();
    println!("Frontier engine over a one-one module: k = {k}, Γ = {GAMMA}\n");

    // ── 1. Sweep the lattice into a trie antichain ───────────────────
    let oracle = MemoSafetyOracle::new(m);
    let (frontier, stats) = minimal_sets_sweep(&oracle, GAMMA, &SweepConfig::auto(), None)
        .expect("k = 16 is well inside the dense-sweep limit");
    println!(
        "swept {} masks: visited {} ({:.2}%), antichain {} members",
        stats.lattice,
        stats.visited,
        100.0 * stats.visited_fraction(),
        frontier.len(),
    );
    println!(
        "border walk emitted {} masks, jumped {} covered subtrees, {} trie nodes",
        stats.border_visited, stats.border_jumps, stats.frontier_nodes,
    );
    // The sweep probes exactly the masks the border walks emit.
    assert_eq!(stats.visited, stats.border_visited);
    // The trie shape is canonical: 2n−1 nodes for n members, exactly.
    assert_eq!(stats.frontier_nodes as usize, 2 * frontier.len() - 1);
    // 2⁴·C(8,4) minimal safe hidden sets for this module family.
    assert_eq!(frontier.len(), 1120);

    // ── 2. Walk the uncovered border of the finished antichain ───────
    // Once the minimal sets are in, each layer's uncovered masks are
    // exactly the *unsafe* masks of that layer: the border the next
    // sweep pass would still have to probe. For this family a mask is
    // safe iff it touches ≥ 4 distinct wires, so the uncovered count
    // is a closed form — Σ_j≤3 C(8,j)·C(j,p−j)·2^(2j−p) masks putting
    // p bits on j ≤ 3 wires (p−j wires contribute both sides, the rest
    // pick one of two) — shrinking to zero while the binomial grows.
    let binom = |n: u64, r: u64| (0..r).fold(1u64, |acc, i| acc * (n - i) / (i + 1));
    println!("\nlayer  C(16,p)  uncovered  covered-jumps");
    for (p, expect) in [(4u64, 700u64), (5, 336), (6, 56), (7, 0)] {
        let scan = frontier.uncovered_in_layer(p as usize);
        println!(
            "{p:>5}  {:>7}  {:>9}  {:>13}",
            binom(16, p),
            scan.masks,
            scan.jumps
        );
        assert_eq!(scan.masks, expect, "closed-form uncovered count");
        // The runs partition the uncovered set, in ascending order.
        assert_eq!(scan.runs.iter().map(|r| r.len).sum::<u64>(), scan.masks);
    }
    // Layer 7 is fully covered — the sweep's cutoff certificate — and
    // a layer's first run starts at its smallest uncovered mask.
    assert!(frontier.uncovered_in_layer(7).runs.is_empty());
    let first = frontier.uncovered_in_layer(5).runs[0].first;
    assert!(!frontier.covers(first) && first.count_ones() == 5);
    println!("first uncovered layer-5 mask: {first:#06x}");

    // ── 3. The sweep's inner-loop question, answered sublinearly ─────
    let members: Vec<u64> = frontier.iter().collect();
    // Members come out in (popcount, mask) order — layer by layer.
    assert!(members
        .windows(2)
        .all(|w| (w[0].count_ones(), w[0]) < (w[1].count_ones(), w[1])));

    let safe = members[members.len() / 2] | members[0]; // superset of a member
    assert!(frontier.covers(safe), "up-set membership ⇒ safe");
    assert!(!frontier.covers(0), "hiding nothing is never Γ-private");
    let unsafe_mask = members[0] & (members[0] - 1); // drop the lowest bit
                                                     // Spot-check the answers against explicit member scans.
    for q in [safe, unsafe_mask] {
        assert_eq!(frontier.covers(q), members.iter().any(|&m| m | q == q));
    }

    // ── 4. Cost minimization ─────────────────────────────────────────
    // Cheapest safe hidden set under an additive per-attribute cost.
    let costs: Vec<u64> = (0..k as u64).map(|a| 1 + a % 3).collect();
    let (mask, cost) = frontier
        .min_cost_member(&costs)
        .expect("non-empty antichain");
    assert!(members.contains(&mask));
    println!(
        "cheapest safe hidden set: mask {mask:#06x} (popcount {}) at cost {cost}",
        mask.count_ones()
    );
    println!("\nok: trie antichain = flat reference on all {k}-bit probes");
}
