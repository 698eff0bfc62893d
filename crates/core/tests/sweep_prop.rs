//! Seeded-PRNG property suite for the parallel lattice sweep:
//! **parallel sweep ≡ serial sweep ≡ serial oracle reference ≡
//! brute-force possible worlds** across random modules (k ≤ 12, mixed
//! domain sizes, 1/2/4/8 threads), including the "no safe set exists"
//! and tie-cost cases.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sv_core::safety::{self, KernelOracle};
use sv_core::sweep::{min_cost_sweep, minimal_sets_sweep, SweepConfig};
use sv_core::{worlds, StandaloneModule};
use sv_relation::{AttrDef, AttrSet, Domain, Relation, Schema};

/// Random standalone module: `k ≤ k_max` attributes with domain sizes
/// 2–3, a random input/output split, and up to `max_rows` random rows
/// deduplicated on the inputs (so the FD `I → O` holds by
/// construction).
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
    // Random input positions (any subset of size ni).
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

/// Gammas worth probing: trivial, small, the module's full range (often
/// a tie-heavy boundary), and an unsatisfiable value.
fn gammas_for(m: &StandaloneModule) -> Vec<u128> {
    let range: u128 = m
        .outputs()
        .iter()
        .map(|a| u128::from(m.schema().attr(a).domain.size()))
        .product();
    vec![2, 3, range.max(2), range.saturating_mul(4) + 1]
}

#[test]
fn parallel_sweep_equals_serial_reference_on_random_modules() {
    let mut rng = StdRng::seed_from_u64(0xE16);
    // Mostly small lattices (fast even in debug), a couple of k = 12
    // ones for the full-width shard/unranking paths.
    for trial in 0..10 {
        let k_max = if trial < 8 { 9 } else { 12 };
        let m = random_module(&mut rng, k_max, 64);
        let k = m.k();
        // Random costs with deliberate ties (range includes 0).
        let costs: Vec<u64> = (0..k).map(|_| rng.gen_range(0..=3)).collect();
        for gamma in gammas_for(&m) {
            let serial_min =
                safety::min_cost_safe_hidden(&KernelOracle::new(&m), &costs, gamma).unwrap();
            let serial_sets =
                safety::minimal_safe_hidden_sets(&KernelOracle::new(&m), gamma).unwrap();
            for threads in [1usize, 2, 4, 8] {
                let cfg = SweepConfig::parallel(threads);
                let ctx = format!("trial={trial} k={k} gamma={gamma} threads={threads}");
                let (found, s1) = min_cost_sweep(&m, &costs, gamma, &cfg).unwrap();
                assert_eq!(found, serial_min, "min_cost {ctx}");
                assert_eq!(s1.visited + s1.pruned, s1.lattice);
                let (sets, s2) = minimal_sets_sweep(&m, gamma, &cfg).unwrap();
                assert_eq!(sets, serial_sets, "minimal {ctx}");
                assert_eq!(s2.visited + s2.pruned, s2.lattice);
            }
        }
    }
}

#[test]
fn no_safe_set_cases_are_consistent_everywhere() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..4 {
        let m = random_module(&mut rng, 9, 32);
        let gamma = gammas_for(&m).pop().unwrap(); // the unsatisfiable one
        assert!(m
            .min_cost_safe_hidden(&vec![1; m.k()], gamma)
            .unwrap()
            .is_none());
        for threads in [1usize, 8] {
            let (found, stats) =
                min_cost_sweep(&m, &vec![1; m.k()], gamma, &SweepConfig::parallel(threads))
                    .unwrap();
            assert!(found.is_none());
            assert_eq!(stats.visited, stats.lattice, "no bound ⇒ nothing pruned");
            let (sets, _) = minimal_sets_sweep(&m, gamma, &SweepConfig::parallel(threads)).unwrap();
            assert!(sets.is_empty());
        }
    }
}

#[test]
fn tie_costs_resolve_deterministically_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..4 {
        let m = random_module(&mut rng, 9, 48);
        // All-equal and all-zero costs: every popcount class is one big
        // tie; the sweep must still return the serial answer — the
        // lexicographically smallest safe mask of minimum cost.
        for costs in [vec![1u64; m.k()], vec![0u64; m.k()]] {
            for gamma in gammas_for(&m) {
                let serial =
                    safety::min_cost_safe_hidden(&KernelOracle::new(&m), &costs, gamma).unwrap();
                for _ in 0..3 {
                    let (found, _) =
                        min_cost_sweep(&m, &costs, gamma, &SweepConfig::parallel(8)).unwrap();
                    assert_eq!(found, serial, "tie case must be deterministic");
                }
            }
        }
    }
}

#[test]
fn sweep_antichain_matches_bruteforce_worlds_on_tiny_modules() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut checked = 0u32;
    for _ in 0..12 {
        let m = random_module(&mut rng, 5, 12);
        // Keep the doubly-exponential world enumeration tractable:
        // (range + 1)^dom candidate functions per visible set.
        if m.input_domain().len() > 4 || m.output_range().len() > 4 {
            continue;
        }
        let k = m.k();
        let gammas = [2u128, 3, 4];
        let antichains: Vec<Vec<AttrSet>> = gammas
            .iter()
            .map(|&g| {
                minimal_sets_sweep(&m, g, &SweepConfig::parallel(4))
                    .unwrap()
                    .0
            })
            .collect();
        for mask in 0u64..(1 << k) {
            let hidden = AttrSet::from_word(mask);
            let visible = hidden.complement(k);
            // One world enumeration per mask, compared against every Γ.
            let brute = worlds::min_out_bruteforce(&m, &visible, 1 << 24).unwrap();
            for (antichain, &gamma) in antichains.iter().zip(&gammas) {
                let generated = antichain.iter().any(|s| s.is_subset(&hidden));
                assert_eq!(
                    generated,
                    brute >= gamma,
                    "k={k} gamma={gamma} mask={mask:#b} brute={brute}"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "at least one tiny module must be exercised");
}
