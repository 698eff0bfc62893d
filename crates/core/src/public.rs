//! General workflows with public modules (§5 of the paper).
//!
//! Standalone privacy does **not** compose in the presence of public
//! modules (Example 7: a public constant upstream, or a public
//! invertible function downstream, re-identifies a private module's
//! outputs). The fix is **privatization** (hiding the identity of
//! selected public modules), after which Theorem 8 restores the
//! Theorem-4 composition: hide `V̄ = ∪ V̄_i` over private modules and
//! keep visible only public modules whose attributes are all visible.

use crate::error::CoreError;
use std::collections::BTreeMap;
use sv_relation::AttrSet;
use sv_workflow::{ModuleId, Workflow};

/// A safe solution for a general workflow: hidden attributes plus the
/// set of privatized (hidden) public modules — the pair `(V, P̄)` of
/// §5.2, with `P` = visible publics being the complement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GeneralSafeView {
    /// Hidden attributes `V̄` (global ids).
    pub hidden_attrs: AttrSet,
    /// Privatized public modules (their names/identities are hidden).
    pub privatized: Vec<ModuleId>,
}

impl GeneralSafeView {
    /// Total cost under additive attribute costs and per-module
    /// privatization costs `c(m_j)` (§5.2's refined cost function).
    #[must_use]
    pub fn cost(&self, attr_costs: &[u64], module_costs: &BTreeMap<ModuleId, u64>) -> u64 {
        let a: u64 = self
            .hidden_attrs
            .iter()
            .map(|x| attr_costs[x.index()])
            .sum();
        let m: u64 = self
            .privatized
            .iter()
            .map(|id| module_costs.get(id).copied().unwrap_or(0))
            .sum();
        a + m
    }
}

/// The public modules that Theorem 8 requires privatizing for a given
/// hidden attribute set: every public module with a hidden input or
/// output ("all the input and output attributes of modules in `P`
/// are visible").
#[must_use]
pub fn required_privatizations(workflow: &Workflow, hidden: &AttrSet) -> Vec<ModuleId> {
    workflow
        .public_modules()
        .into_iter()
        .filter(|&id| {
            let m = &workflow.modules()[id.index()];
            !m.attr_set().is_disjoint(hidden)
        })
        .collect()
}

/// Theorem-8 assembly: given per-private-module standalone-safe hidden
/// sets (global ids), hide their union and privatize every public
/// module touching it.
#[must_use]
pub fn assemble_general(
    workflow: &Workflow,
    per_private_hidden: &BTreeMap<ModuleId, AttrSet>,
) -> GeneralSafeView {
    let hidden = crate::compose::compose_hidden_sets(
        &per_private_hidden.values().cloned().collect::<Vec<_>>(),
    );
    let privatized = required_privatizations(workflow, &hidden);
    GeneralSafeView {
        hidden_attrs: hidden,
        privatized,
    }
}

/// General-workflow analogue of
/// [`crate::compose::union_of_standalone_optima`]: per private module,
/// pick the standalone hidden set minimizing attribute cost **plus** the
/// privatization cost it induces, then assemble per Theorem 8.
///
/// This is a greedy baseline (the paper shows the real optimization is
/// `Ω(log n)`-hard even without data sharing, Theorem 9); `sv-optimize`
/// provides the LP-based algorithms. A one-shot
/// [`greedy_general_with_sweeper`] over a serial sweeper.
///
/// # Errors
/// Propagates module-materialization and standalone-solver failures.
pub fn greedy_general_solution(
    workflow: &Workflow,
    attr_costs: &[u64],
    module_costs: &BTreeMap<ModuleId, u64>,
    gamma: u128,
    budget: u128,
) -> Result<(GeneralSafeView, u64), CoreError> {
    let sweeper =
        crate::WorkflowSweeper::for_workflow(workflow, budget, crate::SweepConfig::serial())?;
    let (view, cost, _) =
        greedy_general_with_sweeper(workflow, &sweeper, attr_costs, module_costs, gamma)?;
    Ok((view, cost))
}

/// [`greedy_general_solution`] against a caller-owned
/// [`crate::WorkflowSweeper`]: modules stay materialized across repeated
/// calls (Γ sweeps, cost sweeps), and the per-attribute induced costs —
/// attribute cost plus the privatization costs of the public modules the
/// attribute drags in — are computed **once** over the global schema and
/// localized through the sweeper's hoisted slices, instead of being
/// rebuilt per private-module call.
///
/// # Errors
/// Propagates standalone-solver failures.
pub fn greedy_general_with_sweeper(
    workflow: &Workflow,
    sweeper: &crate::WorkflowSweeper,
    attr_costs: &[u64],
    module_costs: &BTreeMap<ModuleId, u64>,
    gamma: u128,
) -> Result<(GeneralSafeView, u64, crate::SweepStats), CoreError> {
    // Effective cost of hiding attribute a = its own cost plus the
    // privatization costs of public modules it newly drags in. The
    // interaction across choices is what makes the problem hard;
    // greedily we charge each attribute its full induced cost.
    let mut induced: Vec<u64> = attr_costs.to_vec();
    for pid in workflow.public_modules() {
        let pm = &workflow.modules()[pid.index()];
        let pc = module_costs.get(&pid).copied().unwrap_or(0);
        for a in pm.attr_set().iter() {
            induced[a.index()] += pc;
        }
    }
    let localized = sweeper.localize_costs(&induced);
    let mut per_private: BTreeMap<ModuleId, AttrSet> = BTreeMap::new();
    let mut stats = crate::SweepStats::default();
    for id in sweeper.module_ids() {
        let (found, s) = sweeper.module_min_cost(id, &localized, gamma)?;
        stats.merge(&s);
        let Some((local_hidden, _)) = found else {
            return Err(CoreError::BudgetExceeded {
                what: "no safe standalone subset exists for a private module",
                required: gamma,
                budget: 0,
            });
        };
        let global = sweeper
            .to_global(id, &local_hidden)
            .ok_or(CoreError::MissingOracle { module: id.index() })?;
        per_private.insert(id, global);
    }
    let view = assemble_general(workflow, &per_private);
    let cost = view.cost(attr_costs, module_costs);
    Ok((view, cost, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::WorldSearch;
    use crate::standalone::StandaloneModule;
    use sv_workflow::library::example8_chain;

    /// Example 7/8 chain with k = 2: public constant → private one-one
    /// → public invertible.
    fn chain() -> Workflow {
        example8_chain(2)
    }

    #[test]
    fn example7_standalone_safety_fails_in_workflow() {
        // Hide the private module's inputs (y0, y1 = global ids 2, 3):
        // standalone this gives Γ = 4 privacy for the one-one module,
        // but the public constant feeding it pins y = (1,1), so in every
        // world m_priv's output is visible: OUT collapses to 1.
        let w = chain();
        let hidden = AttrSet::from_indices(&[2, 3]);
        let visible = hidden.complement(w.schema().len());

        // Standalone: safe for Γ = 4.
        let sm = StandaloneModule::from_workflow_module(&w, ModuleId(1), 1 << 20).unwrap();
        let local_hidden = AttrSet::from_indices(&[0, 1]); // y0,y1 locally
        assert!(sm.is_safe_hidden(&local_hidden, 4));

        // In the workflow without privatization: collapse.
        let report = WorldSearch::new(&w, visible.clone()).run(1 << 26).unwrap();
        assert_eq!(report.min_out(ModuleId(1)), 1);

        // Privatizing the constant module restores privacy (Def. 6
        // frees its function).
        let report = WorldSearch::new(&w, visible)
            .with_privatized([ModuleId(0)])
            .run(1 << 26)
            .unwrap();
        assert!(report.min_out(ModuleId(1)) >= 4);
    }

    #[test]
    fn example7_invertible_downstream_also_breaks_privacy() {
        // Hide the private module's outputs (z0, z1 = ids 4, 5): the
        // public invertible module m_inv reveals z from its visible
        // outputs t.
        let w = chain();
        let hidden = AttrSet::from_indices(&[4, 5]);
        let visible = hidden.complement(w.schema().len());
        let report = WorldSearch::new(&w, visible.clone()).run(1 << 26).unwrap();
        assert_eq!(report.min_out(ModuleId(1)), 1);
        // Privatize m_inv ⇒ the worlds may remap its function, privacy
        // returns. (m_const still pins y, but y is visible here anyway —
        // inputs to m_priv are known, outputs are protected.)
        let report = WorldSearch::new(&w, visible)
            .with_privatized([ModuleId(2)])
            .run(1 << 26)
            .unwrap();
        assert!(report.min_out(ModuleId(1)) >= 4);
    }

    #[test]
    fn required_privatizations_touch_hidden_attrs() {
        let w = chain();
        // Hiding y (ids 2,3) touches m_const (outputs) and m_priv.
        let p = required_privatizations(&w, &AttrSet::from_indices(&[2, 3]));
        assert_eq!(p, vec![ModuleId(0)]);
        // Hiding z touches m_priv and m_inv.
        let p = required_privatizations(&w, &AttrSet::from_indices(&[4, 5]));
        assert_eq!(p, vec![ModuleId(2)]);
        // Hiding nothing touches nothing.
        assert!(required_privatizations(&w, &AttrSet::new()).is_empty());
    }

    #[test]
    fn assemble_general_unions_and_privatizes() {
        let w = chain();
        let mut per = BTreeMap::new();
        per.insert(ModuleId(1), AttrSet::from_indices(&[2, 3]));
        let view = assemble_general(&w, &per);
        assert_eq!(view.hidden_attrs, AttrSet::from_indices(&[2, 3]));
        assert_eq!(view.privatized, vec![ModuleId(0)]);
        let costs = vec![1u64; w.schema().len()];
        let mut mcosts = BTreeMap::new();
        mcosts.insert(ModuleId(0), 10u64);
        assert_eq!(view.cost(&costs, &mcosts), 12);
    }

    #[test]
    fn greedy_general_solution_is_verified_safe() {
        let w = chain();
        let attr_costs = vec![1u64; w.schema().len()];
        let mut mcosts = BTreeMap::new();
        mcosts.insert(ModuleId(0), 1u64);
        mcosts.insert(ModuleId(2), 1u64);
        let (view, cost) = greedy_general_solution(&w, &attr_costs, &mcosts, 4, 1 << 20).unwrap();
        assert!(cost > 0);
        let visible = view.hidden_attrs.complement(w.schema().len());
        let report = WorldSearch::new(&w, visible)
            .with_privatized(view.privatized.iter().copied())
            .run(1 << 26)
            .unwrap();
        assert!(report.min_out(ModuleId(1)) >= 4, "Theorem 8 guarantee");
    }

    #[test]
    fn greedy_sweep_parallel_matches_serial() {
        let w = chain();
        let attr_costs = vec![1u64; w.schema().len()];
        let mut mcosts = BTreeMap::new();
        mcosts.insert(ModuleId(0), 1u64);
        mcosts.insert(ModuleId(2), 1u64);
        // A sweeper survives repeated Γ calls without re-materializing.
        for threads in [1usize, 4] {
            let sweeper = crate::WorkflowSweeper::for_workflow(
                &w,
                1 << 20,
                crate::SweepConfig::parallel(threads),
            )
            .unwrap();
            for gamma in [2u128, 4] {
                let (view, cost, stats) =
                    greedy_general_with_sweeper(&w, &sweeper, &attr_costs, &mcosts, gamma).unwrap();
                let direct =
                    greedy_general_solution(&w, &attr_costs, &mcosts, gamma, 1 << 20).unwrap();
                assert_eq!((view, cost), direct, "threads={threads} gamma={gamma}");
                assert_eq!(stats.visited + stats.pruned, stats.lattice);
            }
        }
    }
}
