//! E10 — Theorem 6: set-constraint LP + ℓmax-rounding vs exact, plus
//! the label-cover gadget (Figure 4).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sv_gen::labelcover::LabelCover;
use sv_gen::random::{random_set, InstanceParams};
use sv_gen::reductions::labelcover_to_set;
use sv_optimize::{exact_set, setcon};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e10_setcon");
    for n in [3usize, 5, 6] {
        let p = InstanceParams {
            n_modules: n,
            attrs_per_module: 4,
            ..Default::default()
        };
        let inst = random_set(&mut StdRng::seed_from_u64(n as u64), &p);
        g.bench_with_input(BenchmarkId::new("lmax_rounding", n), &n, |bch, _| {
            bch.iter(|| setcon::solve_rounding(&inst).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("exact_enumeration", n), &n, |bch, _| {
            bch.iter(|| exact_set(&inst));
        });
    }
    let lc = LabelCover::random(&mut StdRng::seed_from_u64(4), 2, 2, 2, 0.5, 2);
    let red = labelcover_to_set(&lc);
    g.bench_function("labelcover_gadget_rounding", |bch| {
        bch.iter(|| setcon::solve_rounding(&red.instance).unwrap());
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
