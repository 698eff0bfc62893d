//! E4/E5 — Algorithm 2: standalone Secure-View solve time, k sweep
//! (predicted O(2^k · N); the subset lattice dominates) and the
//! minimal-safe-set enumeration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sv_core::StandaloneModule;
use sv_workflow::{library, ModuleId, Visibility, WorkflowBuilder};

fn xor_module(k: usize) -> StandaloneModule {
    let mut b = WorkflowBuilder::new();
    let ins = b.bool_attrs("x", k);
    let out = b.attr("y", sv_relation::Domain::boolean());
    b.module(
        "xor",
        &ins,
        &[out],
        Visibility::Private,
        library::xor_all_fn(),
    );
    StandaloneModule::from_workflow_module(&b.build().unwrap(), ModuleId(0), 1 << 22).unwrap()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e4_alg2_standalone");
    for k in [6usize, 8, 10, 12] {
        let m = xor_module(k);
        let costs = vec![1u64; k + 1];
        g.bench_with_input(BenchmarkId::new("min_cost_safe_hidden", k), &k, |bch, _| {
            bch.iter(|| m.min_cost_safe_hidden(&costs, 2).unwrap());
        });
    }
    for k in [4usize, 6, 8] {
        let m = xor_module(k);
        g.bench_with_input(BenchmarkId::new("minimal_safe_sets", k), &k, |bch, _| {
            bch.iter(|| m.minimal_safe_hidden_sets(2).unwrap());
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
