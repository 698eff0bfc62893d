//! The one derivation path against the serial references.
//!
//! Every workflow-level Secure-View answer comes from a
//! `WorkflowSweeper`: the instances' `from_sweeper`, and the
//! `from_workflow*`, `union_of_standalone_optima` and
//! `greedy_general_solution` one-shots over a serial sweeper. Each test
//! here rebuilds those answers module by module from the serial
//! `requirements::` / `safety::` references over standalone modules,
//! maps them to global ids, and compares. The cases cover Figure 1, a
//! one-one chain and seeded random layered workflows (whose modules
//! declare their inputs in shuffled order) at 1/2/4/8 sweep threads,
//! with uniform and mixed Γ, the Example-8 chain for general workflows,
//! and the unsatisfiable-Γ errors.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secure_view::gen::random::random_layered_workflow;
use secure_view::optimize::{CardModule, CardinalityInstance, GeneralInstance, SetInstance};
use secure_view::privacy::compose::{union_of_standalone_optima, ModuleLens};
use secure_view::privacy::public::{
    assemble_general, greedy_general_solution, greedy_general_with_sweeper,
};
use secure_view::privacy::requirements::{cardinality_constraints, set_constraints};
use secure_view::privacy::safety::min_cost_safe_hidden;
use secure_view::privacy::{CoreError, StandaloneModule, SweepConfig, WorkflowSweeper};
use secure_view::relation::{AttrId, AttrSet};
use secure_view::workflow::{library, ModuleId, Workflow};
use std::collections::BTreeMap;

const BUDGET: u128 = 1 << 20;
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Workflows with one Γ per private module: uniform and mixed Γ on
/// Figure 1 and a one-one chain, and random layered workflows with a
/// random Γ ∈ {1, 2} per module (each module has one boolean output).
fn cases() -> Vec<(String, Workflow, Vec<u128>)> {
    let mut out = vec![
        ("fig1".into(), library::fig1_workflow(), vec![2, 2, 2]),
        ("fig1 mixed".into(), library::fig1_workflow(), vec![4, 2, 2]),
        ("chain".into(), library::one_one_chain(2, 4), vec![4, 4]),
        (
            "chain mixed".into(),
            library::one_one_chain(2, 4),
            vec![16, 2],
        ),
    ];
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = random_layered_workflow(&mut rng, 2, 3, 3);
        let gammas = (0..w.private_modules().len())
            .map(|_| u128::from(rng.gen_range(1..=2u32)))
            .collect();
        out.push((format!("random seed {seed}"), w, gammas));
    }
    out
}

/// A private module as a standalone module, with its lens.
fn standalone(w: &Workflow, id: ModuleId) -> (StandaloneModule, ModuleLens) {
    let m = StandaloneModule::from_workflow_module(w, id, BUDGET).unwrap();
    (m, ModuleLens::new(w, id).unwrap())
}

/// A set instance's requirement lists, module by module.
fn lists(inst: &SetInstance) -> Vec<Vec<AttrSet>> {
    inst.modules.iter().map(|m| m.list.clone()).collect()
}

/// The index of the first private module `lists` leaves empty.
fn first_empty<T>(lists: &[Vec<T>]) -> Option<usize> {
    lists.iter().position(Vec::is_empty)
}

/// Per private module, `requirements::set_constraints` in global ids.
fn reference_set_lists(w: &Workflow, gammas: &[u128]) -> Vec<Vec<AttrSet>> {
    w.private_modules()
        .into_iter()
        .zip(gammas)
        .map(|(id, &gamma)| {
            let (m, lens) = standalone(w, id);
            let reqs = set_constraints(&m, gamma).unwrap();
            reqs.iter().map(|r| lens.to_global(&r.hidden())).collect()
        })
        .collect()
}

/// Per private module, `requirements::cardinality_constraints`, with
/// the module's declared inputs and outputs sorted ascending.
fn reference_card_modules(w: &Workflow, gammas: &[u128]) -> Vec<CardModule> {
    w.private_modules()
        .into_iter()
        .zip(gammas)
        .map(|(id, &gamma)| {
            let (m, _) = standalone(w, id);
            let declared = w.module(id).unwrap();
            let sorted = |attrs: &[AttrId]| {
                let mut ids: Vec<u32> = attrs.iter().map(|a| a.0).collect();
                ids.sort_unstable();
                ids
            };
            CardModule {
                inputs: sorted(&declared.inputs),
                outputs: sorted(&declared.outputs),
                list: cardinality_constraints(&m, gamma)
                    .into_iter()
                    .map(|c| (c.alpha, c.beta))
                    .collect(),
            }
        })
        .collect()
}

/// Module `id`'s `safety::min_cost_safe_hidden` optimum under the
/// global `costs`, in global ids (`None`: no safe subset).
fn reference_optimum(w: &Workflow, id: ModuleId, costs: &[u64], gamma: u128) -> Option<AttrSet> {
    let (m, lens) = standalone(w, id);
    let attrs = w.module(id).unwrap().attr_set();
    let local: Vec<u64> = attrs.iter().map(|a| costs[a.index()]).collect();
    let (hidden, _) = min_cost_safe_hidden(&m, &local, gamma).unwrap()?;
    Some(lens.to_global(&hidden))
}

/// The Theorem-4 union of the per-module reference optima with its
/// cost, or the index of the first module with no safe subset.
fn reference_union(w: &Workflow, costs: &[u64], gamma: u128) -> Result<(AttrSet, u64), usize> {
    let mut hidden = AttrSet::new();
    for (idx, id) in w.private_modules().into_iter().enumerate() {
        hidden.union_with(&reference_optimum(w, id, costs, gamma).ok_or(idx)?);
    }
    let cost = hidden.iter().map(|a| costs[a.index()]).sum();
    Ok((hidden, cost))
}

/// Asserts `err` is the no-safe-hiding error for Γ = `gamma`.
fn assert_unsatisfiable(err: CoreError, gamma: u128, ctx: &str) {
    assert!(
        matches!(err, CoreError::BudgetExceeded { required, .. } if required == gamma),
        "{ctx}: {err:?}"
    );
}

#[test]
fn instances_match_per_module_requirement_references() {
    let mut declared_out_of_order = false;
    for (name, w, gammas) in cases() {
        declared_out_of_order |= w.private_modules().into_iter().any(|id| {
            let inputs = &w.module(id).unwrap().inputs;
            inputs.windows(2).any(|p| p[0] > p[1])
        });
        let sets = reference_set_lists(&w, &gammas);
        let cards = reference_card_modules(&w, &gammas);
        assert_eq!(
            first_empty(&sets),
            None,
            "{name}: every case is satisfiable"
        );
        // The one-shots run a serial sweeper.
        let one_shot = SetInstance::from_workflow_with_gammas(&w, &gammas, BUDGET).unwrap();
        assert_eq!(lists(&one_shot), sets, "{name}");
        assert_eq!(one_shot.n_attrs, w.schema().len());
        let one_shot = CardinalityInstance::from_workflow_with_gammas(&w, &gammas, BUDGET).unwrap();
        assert_eq!(one_shot.modules, cards, "{name}");
        for m in &one_shot.modules {
            assert!(
                m.inputs.windows(2).all(|p| p[0] < p[1]),
                "{name}: ascending inputs"
            );
            assert!(
                m.outputs.windows(2).all(|p| p[0] < p[1]),
                "{name}: ascending outputs"
            );
        }
        for threads in THREADS {
            let ctx = format!("{name} threads={threads}");
            let sweeper =
                WorkflowSweeper::for_workflow(&w, BUDGET, SweepConfig::parallel(threads)).unwrap();
            let (set, stats) = SetInstance::from_sweeper(&sweeper, &gammas).unwrap();
            assert_eq!(lists(&set), sets, "{ctx}");
            assert_eq!(stats.visited + stats.pruned, stats.lattice, "{ctx}");
            assert!(stats.lattice > 0, "{ctx}");
            let (card, _) = CardinalityInstance::from_sweeper(&sweeper, &gammas).unwrap();
            assert_eq!(card.modules, cards, "{ctx}");
        }
    }
    // Some module declares its inputs out of ascending order, so the
    // ascending lists checked above are not the declaration order.
    assert!(declared_out_of_order);
}

/// Asserts a union answer equals the reference: the same hidden set and
/// cost, or the no-safe-subset error when some module has none.
fn assert_union(
    got: Result<(AttrSet, u64), CoreError>,
    want: &Result<(AttrSet, u64), usize>,
    gamma: u128,
    ctx: &str,
) {
    match want {
        Ok(want) => assert_eq!(&got.unwrap(), want, "{ctx}"),
        Err(_) => assert_unsatisfiable(got.unwrap_err(), gamma, ctx),
    }
}

#[test]
fn union_of_optima_matches_unioned_reference_optima() {
    let mut rng = StdRng::seed_from_u64(0x0E1);
    for (name, w, mut gammas) in cases() {
        let costs: Vec<u64> = (0..w.schema().len())
            .map(|_| rng.gen_range(1..=4))
            .collect();
        // Each case's Γ values, applied to every module (in the mixed
        // cases the larger one is unsatisfiable for some module).
        gammas.sort_unstable();
        gammas.dedup();
        for gamma in gammas {
            let want = reference_union(&w, &costs, gamma);
            let ctx = format!("{name} gamma={gamma}");
            assert_union(
                union_of_standalone_optima(&w, &costs, gamma, BUDGET),
                &want,
                gamma,
                &ctx,
            );
            for threads in THREADS {
                let sweeper =
                    WorkflowSweeper::for_workflow(&w, BUDGET, SweepConfig::parallel(threads))
                        .unwrap();
                let got = sweeper.union_of_optima(&sweeper.localize_costs(&costs), gamma);
                if let Ok((_, _, stats)) = &got {
                    assert_eq!(stats.visited + stats.pruned, stats.lattice, "{ctx}");
                }
                let got = got.map(|(hidden, cost, _)| (hidden, cost));
                assert_union(got, &want, gamma, &format!("{ctx} threads={threads}"));
            }
        }
    }
}

#[test]
fn general_instance_and_greedy_match_references_on_example8() {
    let w = library::example8_chain(2);
    let publics = w.public_modules();
    let public_costs = [3u64, 5];
    assert_eq!(publics.len(), public_costs.len());
    let attr_costs = vec![1u64; w.schema().len()];
    let module_costs: BTreeMap<ModuleId, u64> = publics.iter().copied().zip(public_costs).collect();
    for gamma in [2u128, 4] {
        let gammas = vec![gamma; w.private_modules().len()];
        let inst = GeneralInstance::from_workflow(&w, gamma, &public_costs, BUDGET).unwrap();
        assert_eq!(
            lists(&inst.base),
            reference_set_lists(&w, &gammas),
            "gamma={gamma}"
        );
        let footprints: Vec<(AttrSet, u64)> = inst
            .publics
            .iter()
            .map(|p| (p.attrs.clone(), p.cost))
            .collect();
        let want: Vec<(AttrSet, u64)> = publics
            .iter()
            .zip(public_costs)
            .map(|(id, cost)| (w.module(*id).unwrap().attr_set(), cost))
            .collect();
        assert_eq!(footprints, want, "gamma={gamma}");

        // Greedy: each private module's optimum under its attributes'
        // induced costs (own cost plus the privatization costs of the
        // public modules they touch), assembled per Theorem 8.
        let mut induced = attr_costs.clone();
        for (id, cost) in &module_costs {
            for a in w.module(*id).unwrap().attr_set().iter() {
                induced[a.index()] += cost;
            }
        }
        let per_private: BTreeMap<ModuleId, AttrSet> = w
            .private_modules()
            .into_iter()
            .map(|id| (id, reference_optimum(&w, id, &induced, gamma).unwrap()))
            .collect();
        let view = assemble_general(&w, &per_private);
        let cost = view.cost(&attr_costs, &module_costs);
        let got = greedy_general_solution(&w, &attr_costs, &module_costs, gamma, BUDGET).unwrap();
        assert_eq!(got, (view.clone(), cost), "gamma={gamma}");
        for threads in THREADS {
            let sweeper =
                WorkflowSweeper::for_workflow(&w, BUDGET, SweepConfig::parallel(threads)).unwrap();
            let (v, c, _) =
                greedy_general_with_sweeper(&w, &sweeper, &attr_costs, &module_costs, gamma)
                    .unwrap();
            assert_eq!(
                (v, c),
                (view.clone(), cost),
                "gamma={gamma} threads={threads}"
            );
        }
    }
}

#[test]
fn unsatisfiable_gamma_errors_name_the_first_failing_module() {
    // Figure 1: m1 reaches level 8, the single-bit modules m2/m3 only 2.
    let w = library::fig1_workflow();
    let costs = vec![1u64; w.schema().len()];
    for gammas in [
        vec![2u128, 4, 2],
        vec![4, 4, 4],
        vec![9, 2, 2],
        vec![16, 3, 2],
    ] {
        let first = first_empty(&reference_set_lists(&w, &gammas)).expect("some module fails");
        let cards = reference_card_modules(&w, &gammas);
        let card_lists: Vec<Vec<(usize, usize)>> = cards.into_iter().map(|m| m.list).collect();
        assert_eq!(first_empty(&card_lists), Some(first), "{gammas:?}");
        let gamma = gammas[first];
        let ctx = format!("{gammas:?}");
        for threads in THREADS {
            let sweeper =
                WorkflowSweeper::for_workflow(&w, BUDGET, SweepConfig::parallel(threads)).unwrap();
            assert_unsatisfiable(
                SetInstance::from_sweeper(&sweeper, &gammas).unwrap_err(),
                gamma,
                &ctx,
            );
            assert_unsatisfiable(
                CardinalityInstance::from_sweeper(&sweeper, &gammas).unwrap_err(),
                gamma,
                &ctx,
            );
        }
        assert_unsatisfiable(
            SetInstance::from_workflow_with_gammas(&w, &gammas, BUDGET).unwrap_err(),
            gamma,
            &ctx,
        );
        assert_unsatisfiable(
            CardinalityInstance::from_workflow_with_gammas(&w, &gammas, BUDGET).unwrap_err(),
            gamma,
            &ctx,
        );
    }
    // Uniform Γ: the union and the general instance fail the same way.
    for gamma in [3u128, 9] {
        let first = first_empty(&reference_set_lists(&w, &[gamma; 3]));
        assert_eq!(reference_union(&w, &costs, gamma).err(), first);
        let err = union_of_standalone_optima(&w, &costs, gamma, BUDGET).unwrap_err();
        assert_unsatisfiable(err, gamma, "union");
        let err = GeneralInstance::from_workflow(&w, gamma, &[], BUDGET).unwrap_err();
        assert_unsatisfiable(err, gamma, "general");
    }
}
