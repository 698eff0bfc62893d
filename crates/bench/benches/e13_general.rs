//! E13 — §5.2 / C.4: general-workflow LP with privatization costs.
//!
//! Also hosts the general-workflow half of the **kernel-swap**
//! comparison recorded in `BENCH_kernel.json`: deriving a
//! [`GeneralInstance`] from an Example-8-shaped workflow through the
//! row-at-a-time seed semantics vs the interned kernel + memoized
//! safety oracle.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sv_core::requirements::set_constraints;
use sv_core::safety::NaiveOracle;
use sv_core::StandaloneModule;
use sv_gen::random::{random_general, InstanceParams};
use sv_gen::reductions::setcover_to_general;
use sv_gen::setcover::SetCover;
use sv_optimize::{exact_general, general, GeneralInstance};
use sv_workflow::library;

fn bench_kernel_swap(c: &mut Criterion) {
    let mut g = c.benchmark_group("e13_kernel_swap");
    // Example-8 chain over 4 wires: the private one-one module has
    // k = 8 (2^8 subsets, N = 16 rows); two public modules.
    let wf = library::example8_chain(4);
    let gamma = 4u128;
    g.bench_function("derive_general/naive_rowwise", |bch| {
        bch.iter(|| {
            // The private-module requirement lists through the seed
            // semantics and the serial reference scan. It probes the
            // same masks as the border walk GeneralInstance::from_workflow
            // runs, through a different enumerator.
            let mut total = 0usize;
            for id in wf.private_modules() {
                let sm = StandaloneModule::from_workflow_module(&wf, id, 1 << 20).unwrap();
                let o = NaiveOracle::new(sm);
                total += set_constraints(&o, gamma).unwrap().len();
            }
            total
        });
    });
    g.bench_function("derive_general/interned_plus_memo", |bch| {
        bch.iter(|| {
            GeneralInstance::from_workflow(&wf, gamma, &[1, 1], 1 << 20)
                .unwrap()
                .base
                .modules
                .len()
        });
    });
    g.finish();
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e13_general");
    for n in [3usize, 4, 5] {
        let inst = random_general(
            &mut StdRng::seed_from_u64(n as u64),
            &InstanceParams {
                n_modules: n,
                attrs_per_module: 4,
                ..Default::default()
            },
            3,
            5,
        );
        g.bench_with_input(BenchmarkId::new("lp_rounding", n), &n, |bch, _| {
            bch.iter(|| general::solve_rounding(&inst).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("exact_enumeration", n), &n, |bch, _| {
            bch.iter(|| exact_general(&inst));
        });
    }
    let sc = SetCover::random(&mut StdRng::seed_from_u64(2), 5, 3, 0.4);
    let red = setcover_to_general(&sc);
    g.bench_function("c2_gadget_rounding", |bch| {
        bch.iter(|| general::solve_rounding(&red.instance).unwrap());
    });
    g.finish();
}

criterion_group!(benches, bench, bench_kernel_swap);
criterion_main!(benches);
