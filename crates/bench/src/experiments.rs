//! Quality-metric experiments E1–E15, whose output is committed as
//! `crates/bench/experiments.txt`.
//!
//! Each function regenerates one experiment and returns printable
//! table rows; `src/bin/experiments.rs` runs them all. Runtime-scaling
//! counterparts live in `benches/`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use sv_core::compose::{union_of_standalone_optima, WorldSearch};
use sv_core::oracle::{
    decide_safety_streaming, min_cost_via_oracle, CountingSupplier, HonestOracle,
};
use sv_core::{StandaloneModule, SweepConfig, WorkflowSweeper};
use sv_gen::adversary::{
    cnf_module, cnf_visible, disjointness_module, disjointness_visible, thm3_costs, thm3_m1,
    AdversarialOracle, Cnf,
};
use sv_gen::gadgets::{
    example5_instance, prop2_chain, prop2_count_bruteforce, prop2_standalone_worlds_log2,
    prop2_workflow_worlds_log2,
};
use sv_gen::labelcover::LabelCover;
use sv_gen::random::{random_cardinality, random_layered_workflow, random_set, InstanceParams};
use sv_gen::reductions::{
    labelcover_to_general, labelcover_to_set, setcover_to_cardinality, setcover_to_general,
    vertexcover_to_cardinality,
};
use sv_gen::setcover::SetCover;
use sv_gen::vertexcover::{cover_size, CubicGraph};
use sv_optimize::exact::{exact_cardinality, exact_general, exact_set};
use sv_optimize::greedy::{greedy_cardinality, greedy_set};
use sv_optimize::{cardinality, general, setcon, CardinalityInstance};
use sv_relation::{AttrSet, Tuple};
use sv_workflow::{library, ModuleFn, ModuleId};

/// E1 — Figure 1 / Examples 1–3: the running example, verbatim.
#[must_use]
pub fn e1_fig1() -> Vec<String> {
    let mut out = vec!["E1  Figure 1 / Examples 1-3 (running example)".into()];
    let wf = library::fig1_workflow();
    let r = wf.provenance_relation(1 << 10).unwrap();
    out.push(format!(
        "  provenance rows = {} (paper: 4); FDs hold = {}",
        r.len(),
        r.check_fds(&wf.fds()).is_ok()
    ));
    let m1 = StandaloneModule::from_workflow_module(&wf, ModuleId(0), 1 << 20).unwrap();
    let v = AttrSet::from_indices(&[0, 2, 4]);
    out.push(format!(
        "  level(V={{a1,a3,a5}}) = {} (paper: safe for Gamma=4)",
        m1.privacy_level(&v)
    ));
    out.push(format!(
        "  level(V={{a3,a4,a5}}) = {} (paper: only 3 outputs, unsafe for 4)",
        m1.privacy_level(&AttrSet::from_indices(&[2, 3, 4]))
    ));
    let worlds = sv_core::worlds::enumerate_worlds(&m1, &v, 1 << 30).unwrap();
    out.push(format!(
        "  |Worlds(R1, V)| = {} (paper: sixty four)",
        worlds.len()
    ));
    let outs =
        sv_core::worlds::out_set_bruteforce(&m1, &v, &Tuple::new(vec![0, 0]), 1 << 30).unwrap();
    out.push(format!(
        "  |OUT_(0,0)| = {} (paper: 4 candidates)",
        outs.len()
    ));
    out
}

/// E2 — Theorem 1: data-supplier calls to decide safety, N sweep.
#[must_use]
pub fn e2_thm1_calls() -> Vec<String> {
    let mut out = vec![
        "E2  Theorem 1 (supplier calls to decide safety; Omega(N) predicted)".into(),
        format!(
            "  {:>6} {:>16} {:>16}",
            "N", "disjoint(calls)", "intersect(calls)"
        ),
    ];
    for n in [64usize, 256, 1024, 4096] {
        let a: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let b_disj: Vec<bool> = (0..n).map(|i| i % 2 == 1).collect();
        let mut b_hit = b_disj.clone();
        b_hit[n / 2] = true; // common element at the median position
        let run = |bb: &Vec<bool>| {
            let m = disjointness_module(n, &a, bb);
            let relation = m.relation();
            // Stream rows in id order (the natural supplier order), so
            // an intersecting instance can accept as soon as the second
            // distinct y value appears.
            let mut rows: Vec<Vec<u32>> = relation
                .rows()
                .iter()
                .map(|t| t.values()[..3].to_vec())
                .collect();
            rows.sort_by_key(|r| r[2]);
            let lookup: HashMap<Vec<u32>, Vec<u32>> = relation
                .rows()
                .iter()
                .map(|t| (t.values()[..3].to_vec(), vec![t.values()[3]]))
                .collect();
            let mut sup = CountingSupplier::new(ModuleFn::closure(move |x: &[u32]| {
                lookup[&x.to_vec()].clone()
            }));
            decide_safety_streaming(&mut sup, &m, &rows, &disjointness_visible(), 2).calls
        };
        out.push(format!(
            "  {:>6} {:>16} {:>16}",
            n,
            run(&b_disj),
            run(&b_hit)
        ));
    }
    out
}

/// E3 — Theorem 2: safety ⇔ UNSAT over random 3-CNFs.
#[must_use]
pub fn e3_thm2_unsat() -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(3);
    let mut agree = 0usize;
    let trials = 40;
    let mut sat_count = 0usize;
    for t in 0..trials {
        let n_clauses = if t % 2 == 0 { 4 } else { 40 };
        let g = Cnf::random_3cnf(&mut rng, 5, n_clauses);
        let m = cnf_module(&g);
        let safe = m.is_safe(&cnf_visible(5), 2);
        if safe != g.satisfiable() {
            agree += 1;
        }
        sat_count += usize::from(g.satisfiable());
    }
    vec![
        "E3  Theorem 2 (safe(V) iff UNSAT(g); co-NP-hardness carrier)".into(),
        format!(
            "  agreement {agree}/{trials} over random 3-CNFs ({sat_count} SAT, {} UNSAT)",
            trials - sat_count
        ),
    ]
}

/// E4 — Theorem 3: oracle-call lower bounds and honest probing costs.
#[must_use]
pub fn e4_thm3_oracle() -> Vec<String> {
    let mut out = vec![
        "E4  Theorem 3 (Safe-View oracle calls; 2^Omega(k) predicted)".into(),
        format!(
            "  {:>4} {:>18} {:>22}",
            "l", "adversary required", "(4/3)^(l/2) bound"
        ),
    ];
    for l in [8usize, 16, 32, 64] {
        let oracle = AdversarialOracle::new(l);
        out.push(format!(
            "  {:>4} {:>18.3e} {:>22.1}",
            l,
            oracle.required_queries(),
            (4.0f64 / 3.0).powi(l as i32 / 2)
        ));
    }
    // Honest probing on the realizable threshold module (fidelity note
    // in sv-gen::adversary applies).
    out.push(format!(
        "  {:>4} {:>18} {:>22}",
        "l", "honest calls", "optimum found"
    ));
    for l in [4usize, 8, 12] {
        let m1 = thm3_m1(l);
        let mut oracle = HonestOracle::new(m1, 2);
        let (found, calls) = min_cost_via_oracle(&mut oracle, &thm3_costs(l));
        out.push(format!(
            "  {:>4} {:>18} {:>22}",
            l,
            calls,
            found.map_or(0, |(_, c)| c)
        ));
    }
    out
}

/// E6 — Proposition 2: world-count collapse, closed forms vs brute
/// force, and preserved privacy.
#[must_use]
pub fn e6_prop2() -> Vec<String> {
    let mut out = vec![
        "E6  Proposition 2 (possible-world collapse; ratio doubly exponential)".into(),
        format!(
            "  {:>4} {:>6} {:>22} {:>22} {:>14}",
            "k", "Gamma", "log2|Worlds(R1,V)|", "log2|Worlds(R,V)|", "log2 ratio"
        ),
    ];
    for (k, gamma) in [(2usize, 2u128), (3, 2), (4, 4), (6, 4), (8, 8)] {
        let s = prop2_standalone_worlds_log2(k, gamma);
        let w = prop2_workflow_worlds_log2(k, gamma);
        out.push(format!(
            "  {:>4} {:>6} {:>22.1} {:>22.1} {:>14.1}",
            k,
            gamma,
            s,
            w,
            s - w
        ));
    }
    let (s, w) = prop2_count_bruteforce(2, 2);
    out.push(format!(
        "  brute force at k=2, Gamma=2: standalone {s} (closed form 16), workflow {w} (closed form 4)"
    ));
    let (wf, hidden) = prop2_chain(2, 2);
    let report = WorldSearch::new(&wf, hidden.complement(wf.schema().len()))
        .run(1 << 26)
        .unwrap();
    out.push(format!(
        "  privacy preserved: min |OUT| = {} for both modules (Gamma = 2)",
        wf.private_modules()
            .iter()
            .map(|&m| report.min_out(m))
            .min()
            .unwrap()
    ));
    out
}

/// E7 — Theorem 4: standalone→workflow composition on random layered
/// workflows, verified against function worlds.
#[must_use]
pub fn e7_thm4() -> Vec<String> {
    let mut ok = 0usize;
    let trials = 20;
    for seed in 0..trials {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let wf = random_layered_workflow(&mut rng, 2, 2, 2);
        let costs = vec![1u64; wf.schema().len()];
        if let Ok((hidden, _)) = union_of_standalone_optima(&wf, &costs, 2, 1 << 20) {
            let visible = hidden.complement(wf.schema().len());
            let report = WorldSearch::new(&wf, visible).run(1 << 26).unwrap();
            if report.is_gamma_private(&wf.private_modules(), 2) {
                ok += 1;
            }
        } else {
            ok += 1; // no safe standalone subset exists: vacuously fine
        }
    }
    vec![
        "E7  Theorem 4 (union of standalone-safe sets is workflow-safe)".into(),
        format!("  verified on {ok}/{trials} random layered workflows (predicted: all)"),
    ]
}

/// E8 — Example 5: the Ω(n) composition gap.
#[must_use]
pub fn e8_example5() -> Vec<String> {
    let mut out = vec![
        "E8  Example 5 (union-of-standalone-optima vs optimum; Omega(n) gap)".into(),
        format!(
            "  {:>4} {:>10} {:>10} {:>8}",
            "n", "union", "optimum", "ratio"
        ),
    ];
    for n in [2usize, 4, 8, 16, 22] {
        let inst = example5_instance(n);
        let g = greedy_set(&inst).unwrap();
        let o = exact_set(&inst).unwrap();
        out.push(format!(
            "  {:>4} {:>10} {:>10} {:>8.2}",
            n,
            g.cost,
            o.cost,
            g.cost as f64 / o.cost as f64
        ));
    }
    out
}

/// E9 — Theorem 5: LP-rounding quality for cardinality constraints on
/// random instances and set-cover gadgets.
#[must_use]
pub fn e9_cardinality() -> Vec<String> {
    let mut out = vec![
        "E9  Theorem 5 (cardinality constraints; O(log n)-approx rounding)".into(),
        format!(
            "  {:>10} {:>6} {:>10} {:>10} {:>10} {:>10}",
            "family", "n", "LP/OPT", "round/OPT", "greedy/OPT", "16ln(n)"
        ),
    ];
    let mut rng = StdRng::seed_from_u64(9);
    for n_modules in [3usize, 5, 6] {
        let p = InstanceParams {
            n_modules,
            attrs_per_module: 4,
            ..Default::default()
        };
        let mut lp_r = 0.0;
        let mut rd_r: f64 = 0.0;
        let mut gr_r: f64 = 0.0;
        let mut cnt = 0;
        for _ in 0..5 {
            let inst = random_cardinality(&mut rng, &p);
            let Some(opt) = exact_cardinality(&inst) else {
                continue;
            };
            if opt.cost == 0 {
                continue;
            }
            let lb = cardinality::lp_lower_bound(&inst).unwrap();
            let rd = cardinality::solve_rounding(&inst, &mut rng).unwrap();
            let gr = greedy_cardinality(&inst).map_or(f64::NAN, |g| g.cost as f64);
            lp_r += lb / opt.cost as f64;
            rd_r += rd.cost as f64 / opt.cost as f64;
            gr_r += gr / opt.cost as f64;
            cnt += 1;
        }
        let c = cnt as f64;
        out.push(format!(
            "  {:>10} {:>6} {:>10.3} {:>10.3} {:>10.3} {:>10.1}",
            "random",
            n_modules,
            lp_r / c,
            rd_r / c,
            gr_r / c,
            16.0 * (n_modules as f64).ln()
        ));
    }
    // Set-cover gadgets (B.4.2).
    for (ne, m) in [(6usize, 5usize), (8, 6), (10, 8)] {
        let sc = SetCover::random(&mut rng, ne, m, 0.35);
        let red = setcover_to_cardinality(&sc);
        let Some(opt) = exact_cardinality(&red.instance) else {
            continue;
        };
        let lb = cardinality::lp_lower_bound(&red.instance).unwrap();
        let rd = cardinality::solve_rounding(&red.instance, &mut rng).unwrap();
        out.push(format!(
            "  {:>10} {:>6} {:>10.3} {:>10.3} {:>10} {:>10.1}",
            "set-cover",
            red.instance.n_modules(),
            lb / opt.cost as f64,
            rd.cost as f64 / opt.cost as f64,
            "-",
            16.0 * (red.instance.n_modules() as f64).ln()
        ));
    }
    out
}

/// E10 — Theorem 6: ℓ_max-rounding quality for set constraints and the
/// Lemma-5 label-cover correspondence.
#[must_use]
pub fn e10_setcon() -> Vec<String> {
    let mut out = vec![
        "E10 Theorem 6 (set constraints; l_max-approx rounding)".into(),
        format!(
            "  {:>12} {:>6} {:>6} {:>10} {:>10}",
            "family", "n", "l_max", "LP/OPT", "round/OPT"
        ),
    ];
    let mut rng = StdRng::seed_from_u64(10);
    for n_modules in [3usize, 5, 6] {
        let p = InstanceParams {
            n_modules,
            attrs_per_module: 4,
            ..Default::default()
        };
        let mut lp_r = 0.0;
        let mut rd_r = 0.0;
        let mut lmax = 0usize;
        let mut cnt = 0;
        for _ in 0..5 {
            let inst = random_set(&mut rng, &p);
            let Some(opt) = exact_set(&inst) else {
                continue;
            };
            if opt.cost == 0 {
                continue;
            }
            let lb = setcon::lp_lower_bound(&inst).unwrap();
            let rd = setcon::solve_rounding(&inst).unwrap();
            lp_r += lb / opt.cost as f64;
            rd_r += rd.cost as f64 / opt.cost as f64;
            lmax = lmax.max(inst.l_max());
            cnt += 1;
        }
        let c = cnt as f64;
        out.push(format!(
            "  {:>12} {:>6} {:>6} {:>10.3} {:>10.3}",
            "random",
            n_modules,
            lmax,
            lp_r / c,
            rd_r / c
        ));
    }
    // Label-cover gadget (Lemma 5).
    let lc = LabelCover::random(&mut rng, 2, 2, 2, 0.5, 2);
    let red = labelcover_to_set(&lc);
    let opt = exact_set(&red.instance).unwrap();
    let asg = lc.exact();
    out.push(format!(
        "  label-cover correspondence: assignment {} == secure-view {}",
        asg.cost(),
        opt.cost
    ));
    out
}

/// E11 — Theorem 7: greedy under bounded data sharing (γ sweep) and
/// the Lemma-6 vertex-cover correspondence.
#[must_use]
pub fn e11_bounded_sharing() -> Vec<String> {
    let mut out = vec![
        "E11 Theorem 7 (greedy <= (gamma+1) OPT under gamma-bounded sharing)".into(),
        format!(
            "  {:>8} {:>12} {:>12} {:>8}",
            "sharing", "greedy/OPT", "bound(g+1)", "samples"
        ),
    ];
    let mut rng = StdRng::seed_from_u64(11);
    for shared in [0usize, 1, 2, 3] {
        let p = InstanceParams {
            n_modules: 5,
            attrs_per_module: 4,
            shared_inputs: shared,
            ..Default::default()
        };
        let mut worst: f64 = 1.0;
        let mut cnt = 0;
        for _ in 0..6 {
            let inst = random_set(&mut rng, &p);
            let (Some(opt), Some(g)) = (exact_set(&inst), greedy_set(&inst)) else {
                continue;
            };
            if opt.cost == 0 {
                continue;
            }
            worst = worst.max(g.cost as f64 / opt.cost as f64);
            cnt += 1;
        }
        out.push(format!(
            "  {:>8} {:>12.3} {:>12} {:>8}",
            shared,
            worst,
            shared + 2,
            cnt
        ));
    }
    let g = CubicGraph::random(&mut rng, 5, 0);
    let red = vertexcover_to_cardinality(&g);
    let opt = exact_cardinality(&red.instance).unwrap();
    let k = cover_size(&g.exact());
    out.push(format!(
        "  vertex-cover correspondence: m'+K = {}+{} == cost {}",
        red.m_edges, k, opt.cost
    ));
    out
}

/// E12 — Example 7 / Theorem 8: public modules break composition,
/// privatization repairs it.
#[must_use]
pub fn e12_public() -> Vec<String> {
    let wf = library::example8_chain(2);
    let m_priv = ModuleId(1);
    let gamma = 4u128;
    let mut out = vec!["E12 Example 7 / Theorem 8 (public modules and privatization)".into()];
    for (label, hidden, privatize) in [
        (
            "hide inputs, no privatization",
            AttrSet::from_indices(&[2, 3]),
            vec![],
        ),
        (
            "hide inputs, privatize m_const",
            AttrSet::from_indices(&[2, 3]),
            vec![ModuleId(0)],
        ),
        (
            "hide outputs, no privatization",
            AttrSet::from_indices(&[4, 5]),
            vec![],
        ),
        (
            "hide outputs, privatize m_inv",
            AttrSet::from_indices(&[4, 5]),
            vec![ModuleId(2)],
        ),
    ] {
        let report = WorldSearch::new(&wf, hidden.complement(wf.schema().len()))
            .with_privatized(privatize)
            .run(1 << 26)
            .unwrap();
        out.push(format!(
            "  {:<34} min |OUT| = {} (Gamma = {gamma}: {})",
            label,
            report.min_out(m_priv),
            if report.min_out(m_priv) >= gamma {
                "private"
            } else {
                "BROKEN"
            }
        ));
    }
    out
}

/// E13 — §5.2 / C.2 / C.4: general workflows with privatization costs.
#[must_use]
pub fn e13_general() -> Vec<String> {
    let mut out = vec![
        "E13 General workflows (attr costs + privatization costs)".into(),
        format!(
            "  {:>12} {:>10} {:>12} {:>14}",
            "family", "LP/OPT", "round/OPT", "blind-greedy/OPT"
        ),
    ];
    let mut rng = StdRng::seed_from_u64(13);
    // Random general instances.
    let mut lp_r = 0.0;
    let mut rd_r = 0.0;
    let mut gr_r = 0.0;
    let mut cnt = 0;
    for _ in 0..6 {
        let inst = sv_gen::random::random_general(
            &mut rng,
            &InstanceParams {
                n_modules: 4,
                attrs_per_module: 4,
                ..Default::default()
            },
            3,
            5,
        );
        let Some(opt) = exact_general(&inst) else {
            continue;
        };
        if opt.cost == 0 {
            continue;
        }
        let lb = general::lp_lower_bound(&inst).unwrap();
        let rd = general::solve_rounding(&inst).unwrap();
        // Privatization-blind greedy: solve the base set instance and
        // pay the induced privatizations afterwards.
        let blind = greedy_set(&inst.base).map_or(f64::NAN, |s| inst.cost(&s.hidden) as f64);
        lp_r += lb / opt.cost as f64;
        rd_r += rd.cost as f64 / opt.cost as f64;
        gr_r += blind / opt.cost as f64;
        cnt += 1;
    }
    let c = cnt as f64;
    out.push(format!(
        "  {:>12} {:>10.3} {:>12.3} {:>14.3}",
        "random",
        lp_r / c,
        rd_r / c,
        gr_r / c
    ));
    // C.2 set-cover gadget: blind greedy pays ~one privatization per
    // element, optimum pays the cover.
    let sc = SetCover::random(&mut rng, 5, 3, 0.4);
    let red = setcover_to_general(&sc);
    if red.instance.base.n_attrs <= 26 {
        if let Some(opt) = exact_general(&red.instance) {
            let blind = greedy_set(&red.instance.base)
                .map_or(f64::NAN, |s| red.instance.cost(&s.hidden) as f64);
            let rd = general::solve_rounding(&red.instance).unwrap();
            out.push(format!(
                "  {:>12} {:>10} {:>12.3} {:>14.3}",
                "C.2 gadget",
                "-",
                rd.cost as f64 / opt.cost.max(1) as f64,
                blind / opt.cost.max(1) as f64
            ));
        }
    }
    // Lemma-8 correspondence.
    let lc = LabelCover::random(&mut rng, 2, 2, 2, 0.5, 2);
    let red = labelcover_to_general(&lc);
    let opt = exact_general(&red.instance).unwrap();
    out.push(format!(
        "  Lemma-8 correspondence: assignment {} == secure-view {}",
        lc.exact().cost(),
        opt.cost
    ));
    out
}

/// E14 — B.4 ablations: LP value under dropped constraints vs the
/// faithful relaxation vs the IP optimum.
#[must_use]
pub fn e14_ablation() -> Vec<String> {
    use sv_optimize::cardinality::{build_lp, CardLpVariant};
    let mut out = vec![
        "E14 Figure-3 IP ablations (B.4: dropped constraints weaken the LP)".into(),
        format!(
            "  {:>6} {:>10} {:>12} {:>12} {:>8}",
            "seed", "full LP", "w/o caps", "w/o sums", "OPT"
        ),
    ];
    let mut rng = StdRng::seed_from_u64(14);
    for seed in 0..5u64 {
        let p = InstanceParams {
            n_modules: 4,
            attrs_per_module: 4,
            max_list: 3,
            ..Default::default()
        };
        let inst = random_cardinality(&mut rng, &p);
        let Some(opt) = exact_cardinality(&inst) else {
            continue;
        };
        let solve = |v: CardLpVariant| -> f64 {
            build_lp(&inst, v)
                .problem
                .solve()
                .map_or(f64::NAN, |s| s.objective)
        };
        out.push(format!(
            "  {:>6} {:>10.3} {:>12.3} {:>12.3} {:>8}",
            seed,
            solve(CardLpVariant::Full),
            solve(CardLpVariant::WithoutCaps),
            solve(CardLpVariant::WithoutSums),
            opt.cost
        ));
    }
    // Hand-crafted mixing witness: two complementary entries; dropping
    // the caps lets the LP blend them.
    let inst = CardinalityInstance {
        n_attrs: 6,
        costs: vec![1; 6],
        modules: vec![sv_optimize::CardModule {
            inputs: vec![0, 1, 2],
            outputs: vec![3, 4, 5],
            list: vec![(3, 0), (0, 3)],
        }],
    };
    let solve = |v: CardLpVariant| -> f64 {
        build_lp(&inst, v)
            .problem
            .solve()
            .map_or(f64::NAN, |s| s.objective)
    };
    out.push(format!(
        "  witness (3,0)/(0,3): full {:.3}, w/o caps {:.3}, OPT {}",
        solve(CardLpVariant::Full),
        solve(CardLpVariant::WithoutCaps),
        exact_cardinality(&inst).unwrap().cost
    ));
    out
}

/// E15 — the memoized safety-oracle layer: identical safety queries are
/// answered once per module instance regardless of which derivation
/// asks. Derives the set-constraints instance through a serial
/// [`WorkflowSweeper`] (the uncovered-border walk over each module's
/// lattice) and then the cardinality instance from the **same**
/// sweeper: the second derivation reads the memoized frontiers, so it
/// adds no probe and no kernel evaluation.
#[must_use]
pub fn e15_oracle_memo() -> Vec<String> {
    let wf = library::fig1_workflow();
    let sweeper = WorkflowSweeper::for_workflow(&wf, 1 << 20, SweepConfig::serial()).unwrap();
    let oracles = sweeper.oracles();
    let gammas = vec![2u128; sweeper.module_ids().len()];
    let (set, _) = sv_optimize::SetInstance::from_sweeper(&sweeper, &gammas).unwrap();
    let (calls_set, misses_set) = (oracles.total_calls(), oracles.total_misses());
    let (card, _) = CardinalityInstance::from_sweeper(&sweeper, &gammas).unwrap();
    let (calls_all, misses_all) = (oracles.total_calls(), oracles.total_misses());
    vec![
        "E15 Memoized safety oracle (each distinct V evaluated once per module)".into(),
        format!(
            "  set-constraints derivation:  {} probes, {} kernel evaluations",
            calls_set, misses_set
        ),
        format!(
            "  + cardinality derivation:    {} probes, {} kernel evaluations ({} new)",
            calls_all,
            misses_all,
            misses_all - misses_set
        ),
        format!(
            "  instances: {} set modules, {} card modules; lattice of {} subsets per module",
            set.n_modules(),
            card.n_modules(),
            1 << 5
        ),
    ]
}

/// Runs every experiment in order, returning all lines.
#[must_use]
pub fn run_all() -> Vec<String> {
    let mut out = Vec::new();
    for section in [
        e1_fig1(),
        e2_thm1_calls(),
        e3_thm2_unsat(),
        e4_thm3_oracle(),
        e6_prop2(),
        e7_thm4(),
        e8_example5(),
        e9_cardinality(),
        e10_setcon(),
        e11_bounded_sharing(),
        e12_public(),
        e13_general(),
        e14_ablation(),
        e15_oracle_memo(),
    ] {
        out.extend(section);
        out.push(String::new());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_reports_expected_facts() {
        let lines = e1_fig1().join("\n");
        assert!(lines.contains("provenance rows = 4"));
        assert!(lines.contains("|Worlds(R1, V)| = 64"));
        assert!(lines.contains("|OUT_(0,0)| = 4"));
    }

    #[test]
    fn e3_full_agreement() {
        let lines = e3_thm2_unsat().join("\n");
        assert!(lines.contains("agreement 40/40"), "{lines}");
    }

    #[test]
    fn e12_shows_break_and_repair() {
        let lines = e12_public().join("\n");
        assert_eq!(lines.matches("BROKEN").count(), 2);
        assert_eq!(lines.matches(": private").count(), 2);
    }

    #[test]
    fn e15_cardinality_derivation_is_free_after_set_derivation() {
        let lines = e15_oracle_memo();
        let joined = lines.join("\n");
        assert!(joined.contains("(0 new)"), "{joined}");
        // The probe count after both derivations equals the count after
        // the set derivation alone: the cardinality derivation asks none.
        fn probes(line: &str) -> Option<&str> {
            line.split_whitespace().find(|w| w.parse::<u64>().is_ok())
        }
        assert!(probes(&lines[1]).is_some(), "{joined}");
        assert_eq!(probes(&lines[1]), probes(&lines[2]), "{joined}");
    }
}
