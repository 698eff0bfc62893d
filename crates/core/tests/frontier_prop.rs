//! Seeded-PRNG property suite for the bitwise-trie frontier engine:
//! **`Frontier` ≡ flat `Vec<u64>` scan** on random antichains
//! (covers / minimality-on-insert / iteration order / border walk), and
//! **trie-backed `minimal_sets_sweep` ≡ serial
//! `safety::minimal_safe_hidden_sets` ≡ brute-force possible worlds**
//! on random modules (k ≤ 12, 1/2/4/8 threads), including the
//! empty-antichain and full-layer-cutoff edges.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sv_core::safety;
use sv_core::sweep::{minimal_sets_sweep, SweepConfig};
use sv_core::{worlds, Frontier, MemoSafetyOracle, StandaloneModule};
use sv_relation::{AttrDef, AttrSet, Domain, Relation, Schema};

/// A cold oracle over `m`: what a one-shot sweep probes.
fn fresh(m: &StandaloneModule) -> MemoSafetyOracle {
    MemoSafetyOracle::new(m.clone())
}

/// Flat-scan reference: ⊆-minimize `masks` in (popcount, mask) order —
/// the exact walk `safety::minimal_safe_hidden_sets` performs.
fn minimize(mut masks: Vec<u64>) -> Vec<u64> {
    masks.sort_unstable();
    masks.dedup();
    masks.sort_by_key(|m| m.count_ones());
    let mut minimal: Vec<u64> = Vec::new();
    for mask in masks {
        if !minimal.iter().any(|&m| m | mask == mask) {
            minimal.push(mask);
        }
    }
    minimal
}

/// Flat-scan `covers`: ∃ member ⊆ `mask`.
fn flat_covers(members: &[u64], mask: u64) -> bool {
    members.iter().any(|&m| m | mask == mask)
}

/// Random mask set (not necessarily an antichain) over `k` bits.
fn random_masks(rng: &mut StdRng, k: u32, n: usize) -> Vec<u64> {
    let top = 1u64 << k;
    (0..n).map(|_| rng.gen_range(0..top)).collect()
}

/// Query masks: exhaustive when the lattice is small, sampled otherwise.
fn query_masks(rng: &mut StdRng, k: u32) -> Vec<u64> {
    if k <= 10 {
        (0..(1u64 << k)).collect()
    } else {
        let mut q = random_masks(rng, k, 512);
        q.push(0);
        q.push((1u64 << k) - 1);
        q
    }
}

#[test]
fn frontier_queries_match_flat_scans_on_random_antichains() {
    let mut rng = StdRng::seed_from_u64(0xF406);
    for trial in 0..24 {
        let k = rng.gen_range(1..=16u32);
        let n = rng.gen_range(0..=96);
        let raw = random_masks(&mut rng, k, n);
        let reference = minimize(raw.clone());

        // Insertion in a shuffled (non-minimized) order must still
        // converge to the canonical minimal antichain.
        let mut shuffled = raw.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        let mut f = Frontier::new(k as usize);
        for &m in &shuffled {
            f.insert(m);
        }
        assert_eq!(
            f.iter().collect::<Vec<_>>(),
            reference,
            "trial={trial} k={k}: iteration must be the minimized \
             (popcount, mask) order"
        );
        assert_eq!(f.len(), reference.len());
        assert_eq!(f, Frontier::from_masks(k as usize, raw.clone()));

        // Re-inserting any member or any covered mask is a no-op.
        for &m in &reference {
            let mut g = f.clone();
            assert!(!g.insert(m), "members are already covered");
            assert_eq!(g, f);
        }

        for q in query_masks(&mut rng, k) {
            assert_eq!(
                f.covers(q),
                flat_covers(&reference, q),
                "trial={trial} k={k} covers({q:#b})"
            );
        }
    }
}

/// Random standalone module, as in `sweep_prop.rs`: domain sizes 2–3,
/// random input/output split, rows deduplicated on the inputs.
fn random_module(rng: &mut StdRng, k_max: usize, max_rows: usize) -> StandaloneModule {
    let k = rng.gen_range(3..=k_max);
    let ni = rng.gen_range(1..k);
    let attrs: Vec<AttrDef> = (0..k)
        .map(|i| AttrDef {
            name: format!("a{i}"),
            domain: Domain::new(rng.gen_range(2..=3)),
        })
        .collect();
    let schema = Schema::new(attrs);
    let mut ids: Vec<u32> = (0..k as u32).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.gen_range(0..=i));
    }
    let inputs = AttrSet::from_indices(&ids[..ni]);
    let outputs = inputs.complement(k);

    let n_rows = rng.gen_range(1..=max_rows);
    let mut rows: Vec<Vec<u32>> = Vec::new();
    let mut seen_inputs: Vec<Vec<u32>> = Vec::new();
    for _ in 0..n_rows {
        let row: Vec<u32> = (0..k)
            .map(|i| rng.gen_range(0..schema.attr(sv_relation::AttrId(i as u32)).domain.size()))
            .collect();
        let input_part: Vec<u32> = inputs.iter().map(|a| row[a.index()]).collect();
        if !seen_inputs.contains(&input_part) {
            seen_inputs.push(input_part);
            rows.push(row);
        }
    }
    let rel = Relation::from_values(schema, rows).expect("rows fit the schema");
    StandaloneModule::new(rel, inputs, outputs).expect("dedup on inputs preserves the FD")
}

#[test]
fn trie_sweep_equals_serial_spec_on_random_modules() {
    let mut rng = StdRng::seed_from_u64(0xF2406);
    for trial in 0..8 {
        let k_max = if trial < 6 { 9 } else { 12 };
        let m = random_module(&mut rng, k_max, 48);
        let k = m.k();
        let range: u128 = m
            .outputs()
            .iter()
            .map(|a| u128::from(m.schema().attr(a).domain.size()))
            .product();
        for gamma in [2u128, 3, range.max(2), range.saturating_mul(4) + 1] {
            let spec = safety::minimal_safe_hidden_sets(&m, gamma).unwrap();
            let spec_words: Vec<u64> = spec.iter().map(|s| s.as_word().expect("k <= 64")).collect();
            for threads in [1usize, 2, 4, 8] {
                let cfg = SweepConfig::parallel(threads);
                let (f, s) = minimal_sets_sweep(&fresh(&m), gamma, &cfg, None).unwrap();
                assert_eq!(
                    f.iter().collect::<Vec<_>>(),
                    spec_words,
                    "trial={trial} k={k} gamma={gamma} threads={threads}"
                );
                assert_eq!(s.frontier_nodes, f.node_count() as u64);
                assert_eq!(s.visited + s.pruned, s.lattice);
                if spec.is_empty() {
                    // Empty-antichain edge: unsatisfiable Γ yields an
                    // empty trie that covers nothing.
                    assert!(f.is_empty());
                    assert_eq!(s.frontier_nodes, 0);
                    assert!(!f.covers((1u64 << k) - 1));
                }
            }
        }
    }
}

#[test]
fn trie_sweep_antichain_matches_bruteforce_worlds() {
    let mut rng = StdRng::seed_from_u64(0xB07);
    let mut checked = 0u32;
    for _ in 0..10 {
        let m = random_module(&mut rng, 5, 12);
        if m.input_domain().len() > 4 || m.output_range().len() > 4 {
            continue; // keep the doubly-exponential enumeration tractable
        }
        let k = m.k();
        for gamma in [2u128, 3, 4] {
            let (f, _) =
                minimal_sets_sweep(&fresh(&m), gamma, &SweepConfig::parallel(4), None).unwrap();
            for mask in 0u64..(1 << k) {
                let visible = AttrSet::from_word(mask).complement(k);
                let brute = worlds::min_out_bruteforce(&m, &visible, 1 << 24).unwrap();
                // Proposition 1: a hidden set is safe iff the frontier
                // covers it — the trie's coverage query IS the safety
                // test for swept antichains.
                assert_eq!(
                    f.covers(mask),
                    brute >= gamma,
                    "k={k} gamma={gamma} mask={mask:#b} brute={brute}"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "at least one tiny module must be exercised");
}

/// Identity one-one module over `w` boolean wires (`k = 2w`): outputs
/// copy inputs, so hiding any single attribute already gives privacy 2.
fn identity_module(w: usize) -> StandaloneModule {
    let attrs: Vec<AttrDef> = (0..2 * w)
        .map(|i| AttrDef {
            name: format!("a{i}"),
            domain: Domain::new(2),
        })
        .collect();
    let schema = Schema::new(attrs);
    let inputs = AttrSet::from_indices(&(0..w as u32).collect::<Vec<_>>());
    let outputs = inputs.complement(2 * w);
    let rows: Vec<Vec<u32>> = (0..1u32 << w)
        .map(|v| {
            let ins: Vec<u32> = (0..w).map(|i| (v >> i) & 1).collect();
            let mut row = ins.clone();
            row.extend(ins);
            row
        })
        .collect();
    let rel = Relation::from_values(schema, rows).expect("rows fit the schema");
    StandaloneModule::new(rel, inputs, outputs).expect("identity preserves the FD")
}

#[test]
fn full_layer_cutoff_edge_is_exact() {
    // Γ = 2 on the identity module: every singleton is a minimal safe
    // set, so layer 2 is fully covered and the cutoff fires immediately
    // after it — the sweep visits exactly the empty mask, the k
    // singletons, and nothing above layer 2.
    let m = identity_module(3);
    let k = m.k() as u64; // 6
    let spec = safety::minimal_safe_hidden_sets(&m, 2).unwrap();
    assert_eq!(spec.len(), k as usize, "one minimal set per attribute");
    for threads in [1usize, 4] {
        // The layer-2 walk finds the whole layer covered (zero masks
        // emitted) and the cutoff fires.
        let cfg = SweepConfig::parallel(threads);
        let (f, s) = minimal_sets_sweep(&fresh(&m), 2, &cfg, None).unwrap();
        assert_eq!(f.len(), k as usize);
        assert_eq!(s.visited, 1 + k, "empty mask + singletons only");
        assert_eq!(s.lattice, 1 << k);
        assert_eq!(s.pruned, s.lattice - s.visited);
        assert_eq!(s.border_visited, 1 + k, "walks emit only uncovered masks");
        assert_eq!(s.frontier_nodes, f.node_count() as u64);
    }
}

/// Gosper's hack: next mask of the same popcount, ascending. Must not
/// be called on `0` or a layer's last (top-packed) mask.
fn gosper(v: u64) -> u64 {
    let t = v | (v - 1);
    let nt = !t;
    (t + 1) | (((nt & nt.wrapping_neg()) - 1) >> (v.trailing_zeros() + 1))
}

/// Flat-enumerates the popcount-`p` layer of a `k`-bit lattice in
/// ascending numeric (Gosper) order. Only call where `C(k, p)` is small.
fn flat_layer(k: u32, p: u32) -> Vec<u64> {
    let count = {
        let mut c = 1u128;
        for i in 0..u128::from(p) {
            c = c * (u128::from(k) - i) / (i + 1);
        }
        u64::try_from(c).expect("caller keeps C(k, p) small")
    };
    let mut out = Vec::with_capacity(count as usize);
    let mut mask = if p == 0 { 0 } else { u64::MAX >> (64 - p) };
    for i in 0..count {
        out.push(mask);
        if i + 1 < count {
            // Never called on the layer's last mask, so no overflow
            // even at k = 64.
            mask = gosper(mask);
        }
    }
    out
}

#[test]
fn full_width_frontier_matches_flat_scan_at_k_63_and_64() {
    // Satellite: mask-width edges. k = 63 exercises the last partial
    // shift guard, k = 64 the full-word layers and top-bit masks where
    // `1u64 << k` and `u64::MAX >> (64 - r)` overflow if mishandled.
    let mut rng = StdRng::seed_from_u64(0x6364);
    for k in [63u32, 64] {
        let all = if k == 64 { u64::MAX } else { (1u64 << k) - 1 };
        for trial in 0..6 {
            // Members biased toward the edges: top-bit-heavy sparse
            // masks, near-full masks, and a few uniform draws.
            let n = rng.gen_range(1..=24);
            let mut raw: Vec<u64> = Vec::with_capacity(n);
            for _ in 0..n {
                let m = match rng.gen_range(0..4u32) {
                    0 => {
                        // sparse: 1–3 random bits, top bit often set
                        let mut m = 1u64 << (k - 1);
                        for _ in 0..rng.gen_range(0..3u32) {
                            m |= 1u64 << rng.gen_range(0..k);
                        }
                        m
                    }
                    1 => {
                        // near-full: clear 1–3 random bits
                        let mut m = all;
                        for _ in 0..rng.gen_range(1..=3u32) {
                            m &= !(1u64 << rng.gen_range(0..k));
                        }
                        m
                    }
                    2 => rng.gen_range(0..=u64::MAX) & all,
                    _ => (rng.gen_range(0..=u64::MAX) & rng.gen_range(0..=u64::MAX)) & all,
                };
                raw.push(m);
            }
            let reference = minimize(raw.clone());
            let f = Frontier::from_masks(k as usize, raw.clone());
            assert_eq!(
                f.iter().collect::<Vec<_>>(),
                reference,
                "k={k} trial={trial}: canonical iteration order"
            );

            // covers ≡ flat scan on adversarial queries.
            let mut queries: Vec<u64> = vec![0, all, 1u64 << (k - 1), all >> 1];
            for &m in &reference {
                queries.push(m);
                queries.push(m | (1u64 << rng.gen_range(0..k)));
                queries.push(m & !(1u64 << rng.gen_range(0..k)));
            }
            for _ in 0..256 {
                queries.push(rng.gen_range(0..=u64::MAX) & all);
            }
            for q in queries {
                assert_eq!(
                    f.covers(q),
                    flat_covers(&reference, q),
                    "k={k} covers({q:#x})"
                );
            }

            // Border iteration ≡ flat layer scan on the enumerable
            // layers (both ends of the lattice, where the full-word
            // edge cases live).
            for p in [0u32, 1, 2, k - 2, k - 1, k] {
                let layer = flat_layer(k, p);
                let uncovered: Vec<u64> = layer.iter().copied().filter(|&m| !f.covers(m)).collect();
                let scan = f.uncovered_in_layer(p as usize);
                let mut emitted: Vec<u64> = Vec::new();
                for r in &scan.runs {
                    let mut m = r.first;
                    for j in 0..r.len {
                        emitted.push(m);
                        if j + 1 < r.len {
                            m = gosper(m);
                        }
                    }
                }
                assert_eq!(emitted, uncovered, "k={k} trial={trial} layer p={p}");
                assert_eq!(scan.masks, uncovered.len() as u64);
            }
        }
    }
}

/// Random rows over `schema`-shaped domains, deduplicated on `inputs`
/// against `seen` (so the FD `I → O` holds across the whole stream).
fn random_rows(
    rng: &mut StdRng,
    schema: &Schema,
    inputs: &AttrSet,
    seen: &mut Vec<Vec<u32>>,
    n: usize,
) -> Vec<Vec<u32>> {
    let k = schema.len();
    let mut rows = Vec::new();
    for _ in 0..n {
        let row: Vec<u32> = (0..k)
            .map(|i| rng.gen_range(0..schema.attr(sv_relation::AttrId(i as u32)).domain.size()))
            .collect();
        let input_part: Vec<u32> = inputs.iter().map(|a| row[a.index()]).collect();
        if !seen.contains(&input_part) {
            seen.push(input_part);
            rows.push(row);
        }
    }
    rows
}

#[test]
fn seeded_resweep_equals_fresh_sweep_after_appends() {
    // The memoized re-sweep path: a stale frontier seeds the next sweep
    // after streamed appends. Correctness must not depend on any
    // monotonicity of the data — seeds are revalidated — so we also
    // feed deliberately *wrong* seeds (a random antichain unrelated to
    // the module) and require the same answer.
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for trial in 0..6 {
        let k = rng.gen_range(4..=9usize);
        let ni = rng.gen_range(1..k);
        let attrs: Vec<AttrDef> = (0..k)
            .map(|i| AttrDef {
                name: format!("a{i}"),
                domain: Domain::new(rng.gen_range(2..=3)),
            })
            .collect();
        let schema = Schema::new(attrs);
        let mut ids: Vec<u32> = (0..k as u32).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.gen_range(0..=i));
        }
        let inputs = AttrSet::from_indices(&ids[..ni]);
        let outputs = inputs.complement(k);

        let mut seen: Vec<Vec<u32>> = Vec::new();
        let before = random_rows(&mut rng, &schema, &inputs, &mut seen, 24);
        let appended = random_rows(&mut rng, &schema, &inputs, &mut seen, 24);
        if before.is_empty() {
            continue;
        }
        let stale = StandaloneModule::new(
            Relation::from_values(schema.clone(), before.clone()).unwrap(),
            inputs.clone(),
            outputs.clone(),
        )
        .unwrap();
        let gammas = [2u128, 3, 64];
        // Seeds from the pre-append sweeps (the realistic stale memo).
        // They run on the oracle that then takes the append, so the
        // re-sweeps below also read its stale levels.
        let mut streamed = fresh(&stale);
        let stale_frontiers: Vec<Frontier> = gammas
            .iter()
            .map(|&g| {
                minimal_sets_sweep(&streamed, g, &SweepConfig::serial(), None)
                    .unwrap()
                    .0
            })
            .collect();
        let appended: Vec<sv_relation::Tuple> =
            appended.into_iter().map(sv_relation::Tuple::new).collect();
        let mut current = stale.clone();
        current.append_execution(&appended).unwrap();
        streamed.append_execution(&appended).unwrap();

        for (&gamma, stale_frontier) in gammas.iter().zip(&stale_frontiers) {
            // Also an unrelated random antichain: the adversarial case
            // revalidation must survive.
            let junk = Frontier::from_masks(k, random_masks(&mut rng, k as u32, 12));
            let spec = safety::minimal_safe_hidden_sets(&current, gamma).unwrap();
            let spec_words: Vec<u64> = spec.iter().map(|s| s.as_word().expect("k <= 64")).collect();
            for seeds in [stale_frontier, &junk] {
                for threads in [1usize, 2, 4, 8] {
                    // A cold oracle over the appended module, and the
                    // streamed one with its pre-append levels.
                    for (cold, oracle) in [(true, &fresh(&current)), (false, &streamed)] {
                        let (f, s) = minimal_sets_sweep(
                            oracle,
                            gamma,
                            &SweepConfig::parallel(threads),
                            Some(seeds),
                        )
                        .unwrap();
                        assert_eq!(
                            f.iter().collect::<Vec<_>>(),
                            spec_words,
                            "trial={trial} k={k} gamma={gamma} threads={threads} cold={cold}"
                        );
                        assert_eq!(
                            s.visited + s.pruned,
                            s.lattice,
                            "seed revalidation probes stay out of the ledger"
                        );
                    }
                }
            }
        }
    }
}
