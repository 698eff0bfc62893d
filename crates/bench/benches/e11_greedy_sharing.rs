//! E11 — Theorem 7: the (γ+1)-greedy under bounded data sharing, and
//! the vertex-cover gadget (Figure 5).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sv_gen::random::{random_set, InstanceParams};
use sv_gen::reductions::vertexcover_to_cardinality;
use sv_gen::vertexcover::CubicGraph;
use sv_optimize::greedy::{greedy_cardinality, greedy_set};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e11_greedy_sharing");
    for shared in [0usize, 2] {
        let p = InstanceParams {
            n_modules: 8,
            attrs_per_module: 4,
            shared_inputs: shared,
            ..Default::default()
        };
        let inst = random_set(&mut StdRng::seed_from_u64(shared as u64), &p);
        g.bench_with_input(BenchmarkId::new("greedy_set", shared), &shared, |bch, _| {
            bch.iter(|| greedy_set(&inst));
        });
    }
    let graph = CubicGraph::random(&mut StdRng::seed_from_u64(5), 12, 4);
    let red = vertexcover_to_cardinality(&graph);
    g.bench_function("vertexcover_gadget_greedy", |bch| {
        bch.iter(|| greedy_cardinality(&red.instance));
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
