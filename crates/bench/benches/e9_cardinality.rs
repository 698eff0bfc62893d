//! E9 — Theorem 5: cardinality-constraint optimizers. LP solve +
//! Algorithm-1 rounding vs exact enumeration vs exact IP, n sweep.
//!
//! Also hosts the **kernel-swap** comparison recorded in
//! `BENCH_kernel.json`: Γ-requirement derivation (the `is_safe` /
//! `group_count_distinct` hot path) through the row-at-a-time seed
//! semantics vs the interned columnar kernel vs the kernel plus the
//! memoizing safety oracle.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sv_core::requirements::{cardinality_constraints, set_constraints};
use sv_core::safety::{MemoSafetyOracle, NaiveOracle, SafetyOracle};
use sv_core::StandaloneModule;
use sv_gen::random::{random_cardinality, InstanceParams};
use sv_optimize::{cardinality, exact_cardinality, CardinalityInstance};
use sv_workflow::{library, ModuleId};

/// Full requirement derivation for one module through the serial
/// references: the set-constraints lattice scan followed by the
/// cardinality Pareto frontier, each probing the oracle under test.
fn derive(oracle: &dyn SafetyOracle, gamma: u128) -> (usize, usize) {
    let s = set_constraints(oracle, gamma).unwrap().len();
    let c = cardinality_constraints(oracle, gamma).len();
    (s, c)
}

fn bench_kernel_swap(c: &mut Criterion) {
    let mut g = c.benchmark_group("e9_kernel_swap");
    // A k = 10 one-one module (5 boolean wires in/out, N = 32 rows):
    // 2^10 subsets probed by the lattice sweep.
    let wf = library::one_one_chain(1, 5);
    let m = StandaloneModule::from_workflow_module(&wf, ModuleId(0), 1 << 20).unwrap();
    let gamma = 4u128;
    g.bench_function("derive_requirements/naive_rowwise", |bch| {
        bch.iter(|| {
            let o = NaiveOracle::new(m.clone());
            derive(&o, gamma)
        });
    });
    g.bench_function("derive_requirements/interned_kernel", |bch| {
        bch.iter(|| derive(&m, gamma));
    });
    g.bench_function("derive_requirements/interned_plus_memo", |bch| {
        bch.iter(|| {
            let o = MemoSafetyOracle::new(m.clone());
            derive(&o, gamma)
        });
    });
    // End-to-end instance derivation through a serial workflow sweeper.
    let fig1 = library::fig1_workflow();
    g.bench_function("instance_from_workflow/fig1", |bch| {
        bch.iter(|| CardinalityInstance::from_workflow(&fig1, 2, 1 << 20).unwrap());
    });
    g.finish();
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e9_cardinality");
    for n in [3usize, 5, 6] {
        let p = InstanceParams {
            n_modules: n,
            attrs_per_module: 4,
            ..Default::default()
        };
        let inst = random_cardinality(&mut StdRng::seed_from_u64(n as u64), &p);
        g.bench_with_input(BenchmarkId::new("lp_rounding", n), &n, |bch, _| {
            let mut rng = StdRng::seed_from_u64(99);
            bch.iter(|| cardinality::solve_rounding(&inst, &mut rng).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("exact_enumeration", n), &n, |bch, _| {
            bch.iter(|| exact_cardinality(&inst));
        });
    }
    let p = InstanceParams {
        n_modules: 3,
        attrs_per_module: 4,
        ..Default::default()
    };
    let inst = random_cardinality(&mut StdRng::seed_from_u64(7), &p);
    g.bench_function("exact_ip_branch_bound_n3", |bch| {
        bch.iter(|| cardinality::exact_ip(&inst, 1 << 18));
    });
    g.finish();
}

criterion_group!(benches, bench, bench_kernel_swap);
criterion_main!(benches);
