//! E14 — B.4 ablations: LP build+solve time and value for the faithful
//! Figure-3 relaxation vs the weakened variants.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sv_gen::random::{random_cardinality, InstanceParams};
use sv_optimize::cardinality::{build_lp, CardLpVariant};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e14_ablation");
    let p = InstanceParams {
        n_modules: 5,
        attrs_per_module: 4,
        max_list: 3,
        ..Default::default()
    };
    let inst = random_cardinality(&mut StdRng::seed_from_u64(14), &p);
    for (name, variant) in [
        ("full", CardLpVariant::Full),
        ("without_caps", CardLpVariant::WithoutCaps),
        ("without_sums", CardLpVariant::WithoutSums),
    ] {
        g.bench_with_input(BenchmarkId::new("lp_solve", name), &name, |bch, _| {
            bch.iter(|| build_lp(&inst, variant).problem.solve().unwrap());
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
