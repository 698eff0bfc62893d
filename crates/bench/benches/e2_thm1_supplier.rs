//! E2 — Theorem 1: time to decide safety of the disjointness view as N
//! grows (predicted Ω(N): the checker must stream essentially all rows).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::HashMap;
use sv_core::oracle::{decide_safety_streaming, CountingSupplier};
use sv_gen::adversary::{disjointness_module, disjointness_visible};
use sv_workflow::ModuleFn;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e2_thm1_supplier_calls");
    for n in [256usize, 1024, 4096] {
        let a: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let b: Vec<bool> = (0..n).map(|i| i % 2 == 1).collect();
        let m = disjointness_module(n, &a, &b);
        let relation = m.relation();
        let rows: Vec<Vec<u32>> = relation
            .rows()
            .iter()
            .map(|t| t.values()[..3].to_vec())
            .collect();
        let lookup: HashMap<Vec<u32>, Vec<u32>> = relation
            .rows()
            .iter()
            .map(|t| (t.values()[..3].to_vec(), vec![t.values()[3]]))
            .collect();
        g.bench_with_input(BenchmarkId::new("disjoint", n), &n, |bch, _| {
            bch.iter(|| {
                let lk = lookup.clone();
                let mut sup = CountingSupplier::new(ModuleFn::closure(move |x: &[u32]| {
                    lk[&x.to_vec()].clone()
                }));
                decide_safety_streaming(&mut sup, &m, &rows, &disjointness_visible(), 2)
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
