//! Property-based tests of the core invariants, across crates, driven
//! by a seeded PRNG (the offline stand-in for proptest).
//!
//! * the fast Lemma-4 safety checker equals brute-force possible-world
//!   semantics on random modules;
//! * safety is monotone in the hidden set (Proposition 1);
//! * Theorem 4: union of standalone-safe hidden sets is workflow-safe
//!   on random layered workflows (verified against function worlds);
//! * optimizer sandwich: LP ≤ exact ≤ rounding ≤ guarantee·exact;
//! * relational algebra: projection/join laws the provenance relation
//!   relies on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secure_view::gen::random::{
    random_cardinality, random_layered_workflow, random_set, InstanceParams,
};
use secure_view::optimize::{cardinality, exact_cardinality, exact_set, setcon};
use secure_view::privacy::compose::{union_of_standalone_optima, WorldSearch};
use secure_view::privacy::worlds::min_out_bruteforce;
use secure_view::privacy::StandaloneModule;
use secure_view::relation::{AttrSet, Relation, Schema};

/// A random boolean module with 2 inputs / 2 outputs as a truth table
/// (16 possible output assignments per input → u16 seed).
fn module_from_seed(seed: u64) -> StandaloneModule {
    let schema = Schema::booleans(&["i0", "i1", "o0", "o1"]);
    let rows: Vec<Vec<u32>> = (0..4u32)
        .map(|x| {
            let out = (seed >> (x * 2)) & 0b11;
            vec![x >> 1, x & 1, (out >> 1) as u32, (out & 1) as u32]
        })
        .collect();
    let rel = Relation::from_values(schema, rows).unwrap();
    StandaloneModule::new(
        rel,
        AttrSet::from_indices(&[0, 1]),
        AttrSet::from_indices(&[2, 3]),
    )
    .unwrap()
}

fn mask_set(mask: u32, k: u32) -> AttrSet {
    AttrSet::from_iter(
        (0..k)
            .filter(|i| mask & (1 << i) != 0)
            .map(secure_view::relation::AttrId),
    )
}

/// Lemma 4: grouped-count privacy level equals min |OUT| over all
/// possible worlds, for every visible subset of random modules — and
/// the interned kernel, the row-at-a-time seed semantics, and the
/// memoizing oracle all agree with that ground truth.
#[test]
fn privacy_level_equals_bruteforce() {
    use secure_view::privacy::safety::SafetyOracle;
    let mut rng = StdRng::seed_from_u64(0x1EAF);
    for _ in 0..24 {
        let seed = rng.gen_range(0u64..256);
        let m = module_from_seed(seed);
        let memo = secure_view::privacy::MemoSafetyOracle::new(m.clone());
        let rowwise = secure_view::privacy::safety::NaiveOracle::new(m.clone());
        for mask in 0u32..16 {
            let visible = mask_set(mask, 4);
            let fast = m.privacy_level(&visible);
            let naive = rowwise.privacy_level(&visible);
            let slow = min_out_bruteforce(&m, &visible, 1 << 22).unwrap();
            assert_eq!(
                fast, slow,
                "kernel vs worlds: seed={seed} visible={visible:?}"
            );
            assert_eq!(
                naive, slow,
                "naive vs worlds: seed={seed} visible={visible:?}"
            );
            assert_eq!(memo.privacy_level(&visible), slow);
            // Level equality transfers to is_safe for every Γ.
            for gamma in 1..=6u128 {
                assert_eq!(m.is_safe(&visible, gamma), rowwise.is_safe(&visible, gamma));
                assert_eq!(m.is_safe(&visible, gamma), memo.is_safe(&visible, gamma));
            }
        }
        // A second full sweep must be pure cache hits.
        let misses = memo.misses();
        for mask in 0u32..16 {
            let _ = memo.privacy_level(&mask_set(mask, 4));
        }
        assert_eq!(memo.misses(), misses, "memo re-evaluated a cached level");
    }
}

/// The interned kernel operators are semantically identical to the seed
/// (row-at-a-time) implementations on random relations with mixed
/// domain sizes.
#[test]
fn interned_kernel_equals_seed_semantics_on_random_relations() {
    use secure_view::relation::{
        ops, AttrDef, Domain, InternedRelation, Relation as Rel, Schema as Sch,
    };
    let mut rng = StdRng::seed_from_u64(0xC01);
    for case in 0..60 {
        let n_attrs = rng.gen_range(1usize..5);
        let sizes: Vec<u32> = (0..n_attrs).map(|_| rng.gen_range(2u32..4)).collect();
        let schema = Sch::new(
            sizes
                .iter()
                .enumerate()
                .map(|(i, &s)| AttrDef {
                    name: format!("a{i}"),
                    domain: Domain::new(s),
                })
                .collect(),
        );
        let n_rows = rng.gen_range(0usize..14);
        let rows: Vec<Vec<u32>> = (0..n_rows)
            .map(|_| sizes.iter().map(|&s| rng.gen_range(0..s)).collect())
            .collect();
        let r = Rel::from_values(schema, rows).unwrap();
        let ir = InternedRelation::from_relation(&r);
        for _ in 0..6 {
            let key_mask = rng.gen_range(0u64..(1 << n_attrs));
            let probe_mask = rng.gen_range(0u64..(1 << n_attrs));
            let key = AttrSet::from_word(key_mask);
            let probe = AttrSet::from_word(probe_mask);
            assert_eq!(
                ir.group_count_distinct(&key, &probe),
                ops::reference::group_count_distinct(&r, &key, &probe),
                "case={case} key={key:?} probe={probe:?}"
            );
            assert_eq!(
                ir.project(&key),
                ops::reference::project(&r, &key),
                "case={case} set={key:?}"
            );
            // The allocation-free min matches the reference map's min.
            let expect_min = ops::reference::group_count_distinct(&r, &key, &probe)
                .values()
                .copied()
                .min()
                .unwrap_or(usize::MAX);
            assert_eq!(ir.min_group_distinct(&key, &probe), expect_min);
        }
    }
}

/// Random (table-generated) modules with mixed domains: interned
/// `is_safe` ≡ seed semantics ≡ possible-world brute force.
#[test]
fn is_safe_cross_validated_on_mixed_domains() {
    use secure_view::privacy::safety::{NaiveOracle, SafetyOracle};
    let mut rng = StdRng::seed_from_u64(0xB0B);
    let mut done = 0;
    while done < 12 {
        let case = done;
        // 1–2 inputs and 1–2 outputs over domains of size 2–3, resampled
        // until the world count (|Range|+1)^|Dom| is small enough for
        // brute-force enumeration in debug builds.
        let n_in = rng.gen_range(1usize..3);
        let n_out = rng.gen_range(1usize..3);
        let sizes: Vec<u32> = (0..n_in + n_out).map(|_| rng.gen_range(2u32..4)).collect();
        let dom_size: u64 = sizes[..n_in].iter().map(|&s| u64::from(s)).product();
        let range_size: u64 = sizes[n_in..].iter().map(|&s| u64::from(s)).product();
        if (range_size + 1).pow(dom_size as u32) > 5_000 {
            continue;
        }
        done += 1;
        let schema = {
            use secure_view::relation::{AttrDef, Domain};
            Schema::new(
                sizes
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| AttrDef {
                        name: format!("a{i}"),
                        domain: Domain::new(s),
                    })
                    .collect(),
            )
        };
        // Total function: one random output row per input assignment.
        let dom: usize = sizes[..n_in].iter().map(|&s| s as usize).product();
        let mut rows = Vec::with_capacity(dom);
        for d in 0..dom {
            let mut row = Vec::with_capacity(sizes.len());
            let mut rem = d;
            for &s in sizes[..n_in].iter().rev() {
                row.push((rem % s as usize) as u32);
                rem /= s as usize;
            }
            row.reverse();
            for &s in &sizes[n_in..] {
                row.push(rng.gen_range(0..s));
            }
            rows.push(row);
        }
        let rel = Relation::from_values(schema, rows).unwrap();
        let m = StandaloneModule::new(
            rel,
            AttrSet::from_iter((0..n_in as u32).map(secure_view::relation::AttrId)),
            AttrSet::from_iter(
                (n_in as u32..(n_in + n_out) as u32).map(secure_view::relation::AttrId),
            ),
        )
        .unwrap();
        let k = m.k() as u32;
        let rowwise = NaiveOracle::new(m.clone());
        for mask in 0u32..(1 << k) {
            let visible = mask_set(mask, k);
            let slow = min_out_bruteforce(&m, &visible, 1 << 24).unwrap();
            assert_eq!(
                m.privacy_level(&visible),
                slow,
                "case={case} mask={mask:#b}"
            );
            assert_eq!(rowwise.privacy_level(&visible), slow);
            for gamma in [2u128, 3, 4, 6] {
                assert_eq!(
                    m.is_safe(&visible, gamma),
                    secure_view::privacy::worlds::is_safe_bruteforce(&m, &visible, gamma, 1 << 24)
                        .unwrap(),
                    "case={case} mask={mask:#b} gamma={gamma}"
                );
            }
        }
    }
}

/// Proposition 1: monotonicity of safety in the hidden set.
#[test]
fn safety_monotone() {
    let mut rng = StdRng::seed_from_u64(0x3040);
    for _ in 0..24 {
        let seed = rng.gen_range(0u64..1024);
        let gamma = rng.gen_range(2u64..5) as u128;
        let m = module_from_seed(seed);
        for mask in 0u32..16 {
            let hidden = mask_set(mask, 4);
            if m.is_safe_hidden(&hidden, gamma) {
                for extra in 0..4u32 {
                    let mut bigger = hidden.clone();
                    bigger.insert(secure_view::relation::AttrId(extra));
                    assert!(m.is_safe_hidden(&bigger, gamma));
                }
            }
        }
    }
}

/// The minimal-safe-set antichain exactly generates all safe sets.
#[test]
fn minimal_sets_generate() {
    let mut rng = StdRng::seed_from_u64(0x3140);
    for _ in 0..24 {
        let seed = rng.gen_range(0u64..512);
        let m = module_from_seed(seed);
        let minimal = m.minimal_safe_hidden_sets(2).unwrap();
        for mask in 0u32..16 {
            let hidden = mask_set(mask, 4);
            let safe = m.is_safe_hidden(&hidden, 2);
            let generated = minimal.iter().any(|s| s.is_subset(&hidden));
            assert_eq!(safe, generated, "seed={seed} mask={mask:#b}");
        }
    }
}

/// Theorem 4 on random layered workflows: the union of per-module
/// standalone optima is workflow-Γ-private (function-world check).
#[test]
fn theorem4_on_random_workflows() {
    for seed in 0u64..24 {
        let mut rng = StdRng::seed_from_u64(seed);
        let wf = random_layered_workflow(&mut rng, 2, 2, 2);
        let costs = vec![1u64; wf.schema().len()];
        if let Ok((hidden, _)) = union_of_standalone_optima(&wf, &costs, 2, 1 << 20) {
            let visible = hidden.complement(wf.schema().len());
            let report = WorldSearch::new(&wf, visible).run(1 << 26).unwrap();
            assert!(
                report.is_gamma_private(&wf.private_modules(), 2),
                "seed={seed}"
            );
        }
    }
}

/// Optimizer sandwich for cardinality constraints.
#[test]
fn cardinality_sandwich() {
    for seed in 0u64..24 {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = InstanceParams {
            n_modules: 4,
            attrs_per_module: 4,
            ..Default::default()
        };
        let inst = random_cardinality(&mut rng, &p);
        if let Some(opt) = exact_cardinality(&inst) {
            let lb = cardinality::lp_lower_bound(&inst).unwrap();
            assert!(
                lb <= opt.cost as f64 + 1e-6,
                "LP {lb} must lower-bound OPT {}",
                opt.cost
            );
            let rounded = cardinality::solve_rounding(&inst, &mut rng).unwrap();
            assert!(inst.feasible(&rounded.hidden));
            assert!(rounded.cost >= opt.cost);
        }
    }
}

/// Optimizer sandwich for set constraints, with the ℓ_max guarantee.
#[test]
fn set_sandwich_with_lmax_guarantee() {
    for seed in 0u64..24 {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = InstanceParams {
            n_modules: 4,
            attrs_per_module: 4,
            ..Default::default()
        };
        let inst = random_set(&mut rng, &p);
        if let Some(opt) = exact_set(&inst) {
            let lb = setcon::lp_lower_bound(&inst).unwrap();
            assert!(lb <= opt.cost as f64 + 1e-6);
            let rounded = setcon::solve_rounding(&inst).unwrap();
            assert!(inst.feasible(&rounded.hidden));
            assert!(
                rounded.cost as f64 <= inst.l_max() as f64 * opt.cost as f64 + 1e-6,
                "rounded {} > lmax {} * opt {}",
                rounded.cost,
                inst.l_max(),
                opt.cost
            );
        }
    }
}

/// exact-IP (branch & bound) agrees with dense enumeration.
#[test]
fn exact_ip_agrees_with_enumeration() {
    for seed in 0u64..12 {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = InstanceParams {
            n_modules: 3,
            attrs_per_module: 3,
            ..Default::default()
        };
        let inst = random_set(&mut rng, &p);
        if let Some(opt) = exact_set(&inst) {
            let ip = setcon::exact_ip(&inst, 1 << 16).unwrap();
            assert_eq!(opt.cost, ip.cost);
        }
    }
}

/// Relational laws: π_V(π_W(R)) = π_V(R) for V ⊆ W, and join with
/// self is identity on key-complete relations.
#[test]
fn projection_composes() {
    let mut rng = StdRng::seed_from_u64(0x77);
    for _ in 0..64 {
        let n_rows = rng.gen_range(1usize..12);
        let rows: Vec<u32> = (0..n_rows).map(|_| rng.gen_range(0u32..8)).collect();
        let schema = Schema::booleans(&["a", "b", "c"]);
        let rel = Relation::from_values(
            schema,
            rows.iter()
                .map(|&r| vec![r >> 2 & 1, r >> 1 & 1, r & 1])
                .collect(),
        )
        .unwrap();
        let w = AttrSet::from_indices(&[0, 2]);
        let v = AttrSet::from_indices(&[0]);
        let via_w = secure_view::relation::project(&secure_view::relation::project(&rel, &w), &v);
        let direct = secure_view::relation::project(&rel, &v);
        assert_eq!(via_w.rows(), direct.rows());
        // Self-join is identity.
        let j = secure_view::relation::natural_join(&rel, &rel).unwrap();
        assert_eq!(j, rel);
    }
}
