//! Seeded-PRNG property suite for the parallel lattice sweep:
//! **parallel sweep ≡ serial sweep ≡ serial oracle reference ≡
//! brute-force possible worlds** across random modules (k ≤ 12, mixed
//! domain sizes, 1/2/4/8 threads), including the "no safe set exists"
//! and tie-cost cases — plus the shared-memo contract of a workflow
//! store: a Γ family of sweeps evaluates each visible set once, and
//! sweeps over a streamed store equal sweeps over modules rebuilt from
//! the rows sent.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sv_core::safety::{self, IngestBatch};
use sv_core::sweep::{min_cost_sweep, minimal_sets_sweep, SweepConfig, SweepStats, WorkflowCosts};
use sv_core::{worlds, CoreError, MemoSafetyOracle, StandaloneModule, WorkflowSweeper};
use sv_relation::{AttrDef, AttrSet, Domain, Relation, Schema, Tuple};
use sv_workflow::library::{fig1_workflow, one_one_chain};
use sv_workflow::{ModuleFn, Visibility, Workflow, WorkflowBuilder};

/// A cold oracle over `m`: what a one-shot sweep probes.
fn fresh(m: &StandaloneModule) -> MemoSafetyOracle {
    MemoSafetyOracle::new(m.clone())
}

/// An unseeded antichain sweep's members, in (popcount, mask) order.
fn swept_sets(
    oracle: &MemoSafetyOracle,
    gamma: u128,
    cfg: &SweepConfig,
) -> (Vec<AttrSet>, SweepStats) {
    let (frontier, stats) = minimal_sets_sweep(oracle, gamma, cfg, None).unwrap();
    (frontier.iter().map(AttrSet::from_word).collect(), stats)
}

/// Random standalone module: `k ≤ k_max` attributes with domain sizes
/// 2–3, a random input/output split, and up to `max_rows` random rows
/// deduplicated on the inputs (so the FD `I → O` holds by
/// construction).
fn random_module(rng: &mut StdRng, k_max: usize, max_rows: usize) -> StandaloneModule {
    let k = rng.gen_range(3..=k_max);
    let ni = rng.gen_range(1..k);
    let attrs: Vec<AttrDef> = (0..k)
        .map(|i| AttrDef {
            name: format!("a{i}"),
            domain: Domain::new(rng.gen_range(2..=3)),
        })
        .collect();
    let schema = Schema::new(attrs);
    // Random input positions (any subset of size ni).
    let mut ids: Vec<u32> = (0..k as u32).collect();
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.gen_range(0..=i));
    }
    let inputs = AttrSet::from_indices(&ids[..ni]);
    let outputs = inputs.complement(k);

    let n_rows = rng.gen_range(1..=max_rows);
    let mut rows: Vec<Vec<u32>> = Vec::new();
    let mut seen_inputs: Vec<Vec<u32>> = Vec::new();
    for _ in 0..n_rows {
        let row: Vec<u32> = (0..k)
            .map(|i| rng.gen_range(0..schema.attr(sv_relation::AttrId(i as u32)).domain.size()))
            .collect();
        let input_part: Vec<u32> = inputs.iter().map(|a| row[a.index()]).collect();
        if !seen_inputs.contains(&input_part) {
            seen_inputs.push(input_part);
            rows.push(row);
        }
    }
    let rel = Relation::from_values(schema, rows).expect("rows fit the schema");
    StandaloneModule::new(rel, inputs, outputs).expect("dedup on inputs preserves the FD")
}

/// Gammas worth probing: trivial, small, the module's full range (often
/// a tie-heavy boundary), and an unsatisfiable value.
fn gammas_for(m: &StandaloneModule) -> Vec<u128> {
    let range: u128 = m
        .outputs()
        .iter()
        .map(|a| u128::from(m.schema().attr(a).domain.size()))
        .product();
    vec![2, 3, range.max(2), range.saturating_mul(4) + 1]
}

#[test]
fn parallel_sweep_equals_serial_reference_on_random_modules() {
    let mut rng = StdRng::seed_from_u64(0xE16);
    // Mostly small lattices (fast even in debug), a couple of k = 12
    // ones for the full-width shard/unranking paths.
    for trial in 0..10 {
        let k_max = if trial < 8 { 9 } else { 12 };
        let m = random_module(&mut rng, k_max, 64);
        let k = m.k();
        // Random costs with deliberate ties (range includes 0).
        let costs: Vec<u64> = (0..k).map(|_| rng.gen_range(0..=3)).collect();
        for gamma in gammas_for(&m) {
            let serial_min = safety::min_cost_safe_hidden(&m, &costs, gamma).unwrap();
            let serial_sets = safety::minimal_safe_hidden_sets(&m, gamma).unwrap();
            for threads in [1usize, 2, 4, 8] {
                let cfg = SweepConfig::parallel(threads);
                let ctx = format!("trial={trial} k={k} gamma={gamma} threads={threads}");
                let (found, s1) = min_cost_sweep(&fresh(&m), &costs, gamma, &cfg).unwrap();
                assert_eq!(found, serial_min, "min_cost {ctx}");
                assert_eq!(s1.visited + s1.pruned, s1.lattice);
                let (sets, s2) = swept_sets(&fresh(&m), gamma, &cfg);
                assert_eq!(sets, serial_sets, "minimal {ctx}");
                assert_eq!(s2.visited + s2.pruned, s2.lattice);
            }
        }
    }
}

#[test]
fn no_safe_set_cases_are_consistent_everywhere() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..4 {
        let m = random_module(&mut rng, 9, 32);
        let gamma = gammas_for(&m).pop().unwrap(); // the unsatisfiable one
        assert!(m
            .min_cost_safe_hidden(&vec![1; m.k()], gamma)
            .unwrap()
            .is_none());
        for threads in [1usize, 8] {
            let cfg = SweepConfig::parallel(threads);
            let (found, stats) = min_cost_sweep(&fresh(&m), &vec![1; m.k()], gamma, &cfg).unwrap();
            assert!(found.is_none());
            assert_eq!(stats.visited, stats.lattice, "no bound ⇒ nothing pruned");
            let (sets, _) = swept_sets(&fresh(&m), gamma, &cfg);
            assert!(sets.is_empty());
        }
    }
}

#[test]
fn tie_costs_resolve_deterministically_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..4 {
        let m = random_module(&mut rng, 9, 48);
        // All-equal and all-zero costs: every popcount class is one big
        // tie; the sweep must still return the serial answer — the
        // lexicographically smallest safe mask of minimum cost.
        for costs in [vec![1u64; m.k()], vec![0u64; m.k()]] {
            for gamma in gammas_for(&m) {
                let serial = safety::min_cost_safe_hidden(&m, &costs, gamma).unwrap();
                for _ in 0..3 {
                    let (found, _) =
                        min_cost_sweep(&fresh(&m), &costs, gamma, &SweepConfig::parallel(8))
                            .unwrap();
                    assert_eq!(found, serial, "tie case must be deterministic");
                }
            }
        }
    }
}

#[test]
fn sweep_antichain_matches_bruteforce_worlds_on_tiny_modules() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut checked = 0u32;
    for _ in 0..12 {
        let m = random_module(&mut rng, 5, 12);
        // Keep the doubly-exponential world enumeration tractable:
        // (range + 1)^dom candidate functions per visible set.
        if m.input_domain().len() > 4 || m.output_range().len() > 4 {
            continue;
        }
        let k = m.k();
        let gammas = [2u128, 3, 4];
        let antichains: Vec<Vec<AttrSet>> = gammas
            .iter()
            .map(|&g| swept_sets(&fresh(&m), g, &SweepConfig::parallel(4)).0)
            .collect();
        for mask in 0u64..(1 << k) {
            let hidden = AttrSet::from_word(mask);
            let visible = hidden.complement(k);
            // One world enumeration per mask, compared against every Γ.
            let brute = worlds::min_out_bruteforce(&m, &visible, 1 << 24).unwrap();
            for (antichain, &gamma) in antichains.iter().zip(&gammas) {
                let generated = antichain.iter().any(|s| s.is_subset(&hidden));
                assert_eq!(
                    generated,
                    brute >= gamma,
                    "k={k} gamma={gamma} mask={mask:#b} brute={brute}"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "at least one tiny module must be exercised");
}

/// A random layered workflow of private modules: `layers × width`
/// modules, each reading `fan_in` boolean attributes of the layer before
/// (the first layer reads the initial inputs) and writing two boolean
/// outputs through a random truth table, so privacy levels reach 4.
fn random_layered_workflow(
    rng: &mut StdRng,
    layers: usize,
    width: usize,
    fan_in: usize,
) -> Workflow {
    let mut b = WorkflowBuilder::new();
    let mut prev = b.bool_attrs("in", fan_in.max(width));
    for layer in 0..layers {
        let mut next = Vec::with_capacity(2 * width);
        for m in 0..width {
            let outs = b.bool_attrs(&format!("l{layer}m{m}_"), 2);
            let mut ins = prev.clone();
            ins.shuffle(rng);
            ins.truncate(fan_in);
            let table: Vec<Vec<u32>> = (0..1usize << fan_in)
                .map(|_| vec![rng.gen_range(0..2), rng.gen_range(0..2)])
                .collect();
            b.module(
                &format!("m{layer}_{m}"),
                &ins,
                &outs,
                Visibility::Private,
                ModuleFn::table(vec![2; fan_in], table),
            );
            next.extend(outs);
        }
        prev = next;
    }
    b.build().expect("layered workflow is structurally valid")
}

/// The workflows of the shared-memo suites, each with the largest Γ it
/// is asked about: Figure 1, a one-one chain, and a random layered
/// workflow.
fn shared_memo_workflows() -> Vec<(&'static str, Workflow, u128)> {
    let mut rng = StdRng::seed_from_u64(0x1A7E);
    vec![
        ("fig1", fig1_workflow(), 8),
        ("one_one_chain(2, 5)", one_one_chain(2, 5), 16),
        (
            "random layered",
            random_layered_workflow(&mut rng, 2, 2, 3),
            4,
        ),
    ]
}

/// One Γ question's answers: the union of per-module optima in global
/// ids with its cost (`None` when some module has no safe subset), and
/// each module's ⊆-minimal safe hidden sets in module-local ids.
type Answers = (Option<(AttrSet, u64)>, Vec<Vec<AttrSet>>);

/// Asks the store: `union_of_optima` first, so it runs a min-cost sweep
/// unless the Γ antichains are already memoized, then
/// `minimal_frontiers_all`.
fn store_answers(sweeper: &WorkflowSweeper, costs: &WorkflowCosts, gamma: u128) -> Answers {
    let union = match sweeper.union_of_optima(costs, gamma) {
        Ok((hidden, cost, _)) => Some((hidden, cost)),
        Err(CoreError::BudgetExceeded { .. }) => None,
        Err(e) => panic!("union_of_optima failed: {e}"),
    };
    let gammas = vec![gamma; sweeper.module_ids().len()];
    let (frontiers, _) = sweeper.minimal_frontiers_all(&gammas).unwrap();
    let antichains = frontiers
        .iter()
        .map(|(_, f)| f.iter().map(AttrSet::from_word).collect())
        .collect();
    (union, antichains)
}

/// The same answers from `modules` (the sweeper's modules, in its
/// order), with each module's optimum and antichain computed by
/// `min_cost(module, local costs)` and `minimal(module)`.
fn answers_from(
    sweeper: &WorkflowSweeper,
    modules: &[StandaloneModule],
    costs: &WorkflowCosts,
    min_cost: impl Fn(&StandaloneModule, &[u64]) -> Option<(AttrSet, u64)>,
    minimal: impl Fn(&StandaloneModule) -> Vec<AttrSet>,
) -> Answers {
    let mut union = Some(AttrSet::new());
    for (idx, (id, m)) in sweeper.module_ids().into_iter().zip(modules).enumerate() {
        union = union
            .zip(min_cost(m, costs.local(idx)))
            .map(|(all, (hidden, _))| all.union(&sweeper.to_global(id, &hidden).unwrap()));
    }
    let union = union.map(|all| {
        let cost = all.iter().map(|a| costs.global()[a.index()]).sum();
        (all, cost)
    });
    (union, modules.iter().map(minimal).collect())
}

/// [`answers_from`] through sweeps that each probe a fresh oracle.
fn fresh_answers(
    sweeper: &WorkflowSweeper,
    modules: &[StandaloneModule],
    costs: &WorkflowCosts,
    gamma: u128,
    cfg: &SweepConfig,
) -> Answers {
    answers_from(
        sweeper,
        modules,
        costs,
        |m, c| min_cost_sweep(&fresh(m), c, gamma, cfg).unwrap().0,
        |m| swept_sets(&fresh(m), gamma, cfg).0,
    )
}

/// [`answers_from`] through the serial `safety::` reference.
fn serial_answers(
    sweeper: &WorkflowSweeper,
    modules: &[StandaloneModule],
    costs: &WorkflowCosts,
    gamma: u128,
) -> Answers {
    answers_from(
        sweeper,
        modules,
        costs,
        |m, c| safety::min_cost_safe_hidden(m, c, gamma).unwrap(),
        |m| safety::minimal_safe_hidden_sets(m, gamma).unwrap(),
    )
}

/// Positive random costs: with a zero-cost attribute, a racing bound
/// update may let a parallel min-cost sweep probe a mask above a safe
/// set the bound pruned, which can lie outside the Γ′ border.
fn positive_costs(rng: &mut StdRng, n: usize) -> Vec<u64> {
    (0..n).map(|_| rng.gen_range(1..=3)).collect()
}

#[test]
fn gamma_family_evaluates_each_visible_set_once() {
    // A cached level answers every Γ (Lemma 4), and a Γ-unsafe set is
    // Γ′-unsafe for Γ ≤ Γ′ (Proposition 1): every mask a Γ sweep visits
    // has only Γ-unsafe strict subsets, so the Γ′ antichain sweep
    // visited it and its level is in the store. Min-cost sweeps visit
    // only such border masks too, so neither kind adds a kernel
    // evaluation.
    let mut rng = StdRng::seed_from_u64(0x6A3A);
    for (name, wf, top) in shared_memo_workflows() {
        let costs = positive_costs(&mut rng, wf.schema().len());
        for threads in [1usize, 2, 4, 8] {
            let cfg = SweepConfig::parallel(threads);
            let sweeper = WorkflowSweeper::for_workflow(&wf, 1 << 20, cfg).unwrap();
            let store = sweeper.oracles();
            let modules: Vec<StandaloneModule> =
                store.iter().map(|(_, o)| o.module().clone()).collect();
            let wc = sweeper.localize_costs(&costs);
            let tops = vec![top; modules.len()];
            sweeper.minimal_frontiers_all(&tops).unwrap();
            let misses = store.total_misses();
            assert!(misses > 0, "{name}: the Γ′ sweep evaluates levels");
            for gamma in 1..=top {
                let ctx = format!("{name} threads={threads} gamma={gamma} top={top}");
                // Below Γ′ the union runs min-cost sweeps, which must
                // probe the store; `store_answers` then reads its memo.
                let calls = store.total_calls();
                let _ = sweeper.union_of_optima(&wc, gamma);
                if gamma < top {
                    assert!(
                        store.total_calls() > calls,
                        "{ctx}: min-cost sweeps probe the store"
                    );
                }
                let got = store_answers(&sweeper, &wc, gamma);
                assert_eq!(
                    store.total_misses(),
                    misses,
                    "{ctx}: a level was evaluated twice"
                );
                let cold = fresh_answers(&sweeper, &modules, &wc, gamma, &cfg);
                assert_eq!(got, cold, "{ctx}");
                assert_eq!(got, serial_answers(&sweeper, &modules, &wc, gamma), "{ctx}");
            }
        }
    }
}

#[test]
fn streamed_gamma_families_match_rebuilt_modules() {
    // Ingest interleaved with Γ-family re-sweeps: each re-sweep reads
    // levels stamped at an older epoch, revalidated lazily or kept by
    // the monotone shortcut, and is seeded from the stale antichain.
    // Every answer must equal sweeps over modules rebuilt from the rows
    // this test sent.
    let mut rng = StdRng::seed_from_u64(0x57EA);
    let (mut revalidated, mut shortcuts) = (0u64, 0u64);
    for (name, wf, top) in shared_memo_workflows() {
        let costs = positive_costs(&mut rng, wf.schema().len());
        let mut executions = wf.provenance_relation(1 << 12).unwrap().rows().to_vec();
        for threads in [1usize, 4] {
            executions.shuffle(&mut rng);
            let cfg = SweepConfig::parallel(threads);
            let sweeper = WorkflowSweeper::for_workflow_streaming(&wf, cfg).unwrap();
            let store = sweeper.oracles();
            let wc = sweeper.localize_costs(&costs);
            let mut sent: Vec<Tuple> = Vec::new();
            let mut rest = executions.as_slice();
            while !rest.is_empty() {
                let (batch, tail) = rest.split_at(rng.gen_range(1usize..=4).min(rest.len()));
                rest = tail;
                store.ingest_batch(&IngestBatch::from_rows(batch)).unwrap();
                sent.extend_from_slice(batch);
                // Each module rebuilt from its projection of the rows
                // sent; the store contributes only its structure.
                let modules: Vec<StandaloneModule> = sweeper
                    .module_ids()
                    .into_iter()
                    .map(|id| {
                        let attrs = wf.module(id).unwrap().attr_set();
                        let o = store.oracle(id).unwrap();
                        let m = o.module();
                        let rows = sent.iter().map(|t| t.project(&attrs)).collect();
                        let rel = Relation::from_rows(m.schema().clone(), rows).unwrap();
                        StandaloneModule::new(rel, m.inputs().clone(), m.outputs().clone()).unwrap()
                    })
                    .collect();
                let mut family: Vec<u128> = (1..=top).collect();
                family.shuffle(&mut rng);
                for gamma in family {
                    let ctx = format!("{name} threads={threads} rows={} gamma={gamma}", sent.len());
                    assert_eq!(
                        store_answers(&sweeper, &wc, gamma),
                        fresh_answers(&sweeper, &modules, &wc, gamma, &cfg),
                        "{ctx}"
                    );
                }
            }
            for (_, o) in store.iter() {
                revalidated += o.revalidations();
                shortcuts += o.monotone_shortcut_hits();
            }
        }
    }
    assert!(
        revalidated > 0 && shortcuts > 0,
        "sweeps read stale levels both ways \
         ({revalidated} revalidations, {shortcuts} shortcuts)"
    );
}
