//! E7 — Theorem 4: composing workflow privacy from standalone optima
//! (requirement derivation + union), and the exhaustive verifier on
//! small chains.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sv_core::compose::{union_of_standalone_optima, WorldSearch};
use sv_workflow::library::one_one_chain;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e7_thm4_compose");
    for n in [2usize, 4, 8] {
        let w = one_one_chain(n, 2);
        let costs = vec![1u64; w.schema().len()];
        g.bench_with_input(BenchmarkId::new("union_of_standalone", n), &n, |bch, _| {
            bch.iter(|| union_of_standalone_optima(&w, &costs, 2, 1 << 20).unwrap());
        });
    }
    let w = one_one_chain(2, 2);
    let costs = vec![1u64; w.schema().len()];
    let (hidden, _) = union_of_standalone_optima(&w, &costs, 2, 1 << 20).unwrap();
    let visible = hidden.complement(w.schema().len());
    g.bench_function("world_search_chain_2x2", |bch| {
        bch.iter(|| WorldSearch::new(&w, visible.clone()).run(1 << 26).unwrap());
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
