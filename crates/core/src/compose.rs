//! Workflow privacy from standalone guarantees (§4.1, Theorem 4), plus
//! an exhaustive workflow-privacy verifier over function-generated
//! possible worlds.
//!
//! Theorem 4: in an **all-private** workflow, if each module `m_i` is
//! Γ-standalone-private w.r.t. visible set `V_i`, then hiding
//! `V̄ = ∪_i V̄_i` makes every module Γ-workflow-private. The
//! [`compose_hidden_sets`] / [`union_of_standalone_optima`] functions
//! implement this assembly; [`WorldSearch`] verifies the resulting
//! guarantee semantically on small workflows.
//!
//! ### Scope of the exhaustive verifier
//!
//! `Worlds(R, V)` (Definition 4) ranges over arbitrary relations. The
//! verifier enumerates the **function-generated** worlds: every choice
//! of total functions `g_1 … g_n` (public modules pinned to their true
//! functions, Definition 4 condition 2; privatized ones freed,
//! Definition 6) whose induced execution relation has the same visible
//! projection as `R`. These are exactly the witnesses the paper's own
//! proofs construct (Lemma 1 flips *functions*), so `min |OUT_{x,W}|`
//! reported here is a **lower bound** on the true value — if it is
//! `≥ Γ`, the workflow is certified Γ-private. For the privacy *failures*
//! of Example 7, the collapse is forced in every world (function-
//! generated or not), so the verifier is decisive there too.

use crate::error::CoreError;
use crate::standalone::enumerate_mixed_radix;
use std::collections::{BTreeMap, BTreeSet};
use sv_relation::{AttrId, AttrSet, Tuple, Value};
use sv_workflow::{ModuleId, Visibility, Workflow};

/// Translates attribute sets between a module's local sub-schema
/// (as used by [`crate::StandaloneModule`]) and the workflow's global
/// schema.
#[derive(Clone, Debug)]
pub struct ModuleLens {
    module: ModuleId,
    /// Local position -> global attribute id (global-id order).
    globals: Vec<AttrId>,
}

impl ModuleLens {
    /// Builds the lens for module `id`.
    ///
    /// # Errors
    /// [`CoreError::Workflow`] if `id` is out of range.
    pub fn new(workflow: &Workflow, id: ModuleId) -> Result<Self, CoreError> {
        let m = workflow.module(id)?;
        Ok(Self {
            module: id,
            globals: m.attr_set().iter().collect(),
        })
    }

    /// The module this lens views.
    #[must_use]
    pub fn module(&self) -> ModuleId {
        self.module
    }

    /// Local position -> global attribute id, in global-id order.
    pub(crate) fn globals(&self) -> &[AttrId] {
        &self.globals
    }

    /// Maps a local attribute set to global ids.
    #[must_use]
    pub fn to_global(&self, local: &AttrSet) -> AttrSet {
        AttrSet::from_iter(local.iter().map(|a| self.globals[a.index()]))
    }

    /// Maps a global attribute set to local ids (attributes outside the
    /// module are dropped).
    #[must_use]
    pub fn to_local(&self, global: &AttrSet) -> AttrSet {
        AttrSet::from_iter(
            self.globals
                .iter()
                .enumerate()
                .filter(|(_, g)| global.contains(**g))
                .map(|(l, _)| AttrId(l as u32)),
        )
    }
}

/// Theorem-4 assembly: the union of per-module hidden sets (given in
/// **global** coordinates) is a safe hidden set for the whole
/// all-private workflow.
#[must_use]
pub fn compose_hidden_sets(per_module_hidden: &[AttrSet]) -> AttrSet {
    let mut out = AttrSet::new();
    for h in per_module_hidden {
        out.union_with(h);
    }
    out
}

/// The *union-of-standalone-optima* baseline of Example 5: solve the
/// standalone Secure-View problem for every private module
/// independently (min-cost safe hidden subset w.r.t. `costs`) and hide
/// the union. Always safe (Theorem 4) but up to `Ω(n)` more expensive
/// than the workflow optimum.
///
/// A one-shot [`crate::WorkflowSweeper::union_of_optima`] over a serial
/// sweeper; callers that ask repeatedly (Γ or cost sweeps) keep a
/// sweeper instead, so its memos answer the repeats.
///
/// Returns the global hidden set and its total cost.
///
/// # Errors
/// Propagates module-materialization and sweep errors; fails with
/// [`CoreError::BudgetExceeded`] if some module admits no safe subset.
pub fn union_of_standalone_optima(
    workflow: &Workflow,
    costs: &[u64],
    gamma: u128,
    budget: u128,
) -> Result<(AttrSet, u64), CoreError> {
    let sweeper =
        crate::WorkflowSweeper::for_workflow(workflow, budget, crate::SweepConfig::serial())?;
    let (hidden, cost, _) = sweeper.union_of_optima(&sweeper.localize_costs(costs), gamma)?;
    Ok((hidden, cost))
}

/// Exhaustive search over function-generated possible worlds of a
/// workflow view (see module docs for scope).
pub struct WorldSearch<'a> {
    workflow: &'a Workflow,
    visible: AttrSet,
    privatized: BTreeSet<ModuleId>,
}

/// Result of a [`WorldSearch`]: per free module, per input tuple
/// `x ∈ π_{I_i}(R)`, the candidate-output set `OUT_{x,W}`.
///
/// Definition 5 deliberately uses an implication
/// (`∀t' ∈ R': x = π_{I_i}(t') ⇒ y = π_{O_i}(t')`): a world in which `x`
/// **never appears** as an input to `m_i` admits *every* output
/// vacuously. This matters in general workflows — privatizing an
/// upstream public module lets worlds route around `x`, which is exactly
/// how Theorem 8 restores privacy. The report therefore tracks, per
/// `(module, x)`, both the outputs observed in worlds containing `x` and
/// whether some world avoids `x` entirely.
#[derive(Debug)]
pub struct WorldReport {
    /// `(module, x) -> outputs` observed in worlds where `x` appears.
    pub out_sets: BTreeMap<(ModuleId, Tuple), BTreeSet<Tuple>>,
    /// `(module, x)` pairs for which some matching world avoids `x`
    /// (vacuous case of Definition 5: `OUT_{x,W}` = full output range).
    pub vacuous: BTreeSet<(ModuleId, Tuple)>,
    /// Per free module, the size of its full output range `∏|Δ_a|`.
    pub range_sizes: BTreeMap<ModuleId, u128>,
    /// Number of worlds that matched the visible projection.
    pub worlds_matched: u64,
}

impl WorldReport {
    /// `|OUT_{x,W}|` for one `(module, x)` pair.
    #[must_use]
    pub fn out_size(&self, module: ModuleId, x: &Tuple) -> u128 {
        let observed = self
            .out_sets
            .get(&(module, x.clone()))
            .map_or(0, |s| s.len() as u128);
        if self.vacuous.contains(&(module, x.clone())) {
            // Vacuous worlds contribute the entire range (which contains
            // every observed output).
            self.range_sizes.get(&module).copied().unwrap_or(0)
        } else {
            observed
        }
    }

    /// `min_x |OUT_{x,W}|` for the given module, or `u128::MAX` if the
    /// module never appears.
    #[must_use]
    pub fn min_out(&self, module: ModuleId) -> u128 {
        self.out_sets
            .keys()
            .filter(|(m, _)| *m == module)
            .map(|(m, x)| self.out_size(*m, x))
            .min()
            .unwrap_or(u128::MAX)
    }

    /// Whether every listed module attains `Γ` (Definition 5).
    #[must_use]
    pub fn is_gamma_private(&self, modules: &[ModuleId], gamma: u128) -> bool {
        modules.iter().all(|&m| self.min_out(m) >= gamma)
    }
}

impl<'a> WorldSearch<'a> {
    /// Creates a search for the given visible attribute set, with no
    /// privatized public modules.
    #[must_use]
    pub fn new(workflow: &'a Workflow, visible: AttrSet) -> Self {
        Self {
            workflow,
            visible,
            privatized: BTreeSet::new(),
        }
    }

    /// Marks public modules as privatized (their identities hidden), so
    /// their functions range freely (Definition 6).
    #[must_use]
    pub fn with_privatized(mut self, privatized: impl IntoIterator<Item = ModuleId>) -> Self {
        self.privatized.extend(privatized);
        self
    }

    /// Modules whose functions are free in the search (private ∪
    /// privatized-public).
    fn is_free(&self, id: ModuleId) -> bool {
        let m = &self.workflow.modules()[id.index()];
        m.visibility == Visibility::Private || self.privatized.contains(&id)
    }

    /// Runs the search.
    ///
    /// # Errors
    /// [`CoreError::BudgetExceeded`] if the candidate-world count
    /// exceeds `budget`; workflow errors if execution fails.
    pub fn run(&self, budget: u128) -> Result<WorldReport, CoreError> {
        let w = self.workflow;
        let schema = w.schema();
        let n_attrs = schema.len();

        let init: Vec<AttrId> = w.initial_inputs().to_vec();
        let init_sizes: Vec<u32> = init.iter().map(|&a| schema.attr(a).domain.size()).collect();
        let inputs = enumerate_mixed_radix(&init_sizes);
        let n_rows = inputs.len();

        // Original provenance rows (visible-projection targets).
        let orig: Vec<Tuple> = inputs.iter().map(|x| w.run(x)).collect::<Result<_, _>>()?;

        // Candidate function tables per module, in topo order.
        let topo: Vec<ModuleId> = w.topo_order().to_vec();
        let mut candidates: Vec<Vec<Vec<Vec<Value>>>> = Vec::with_capacity(topo.len());
        let mut total: u128 = 1;
        for &mid in &topo {
            let m = w.module(mid)?;
            let in_sizes: Vec<u32> = m
                .inputs
                .iter()
                .map(|&a| schema.attr(a).domain.size())
                .collect();
            let dom = enumerate_mixed_radix(&in_sizes);
            if self.is_free(mid) {
                let out_sizes: Vec<u32> = m
                    .outputs
                    .iter()
                    .map(|&a| schema.attr(a).domain.size())
                    .collect();
                let range = enumerate_mixed_radix(&out_sizes);
                let count = (range.len() as u128).saturating_pow(dom.len() as u32);
                total = total.saturating_mul(count);
                if total > budget {
                    return Err(CoreError::BudgetExceeded {
                        what: "workflow possible-world enumeration",
                        required: total,
                        budget,
                    });
                }
                let mut fns = Vec::with_capacity(count as usize);
                let mut digits = vec![0usize; dom.len()];
                loop {
                    fns.push(
                        digits
                            .iter()
                            .map(|&d| range[d].clone())
                            .collect::<Vec<Vec<Value>>>(),
                    );
                    let mut done = true;
                    for d in digits.iter_mut() {
                        *d += 1;
                        if *d < range.len() {
                            done = false;
                            break;
                        }
                        *d = 0;
                    }
                    if done {
                        break;
                    }
                }
                candidates.push(fns);
            } else {
                let truth: Vec<Vec<Value>> = dom
                    .iter()
                    .map(|x| m.apply(schema, x))
                    .collect::<Result<_, _>>()?;
                candidates.push(vec![truth]);
            }
        }

        // Per-depth determined attribute sets and visible targets.
        let mut determined = AttrSet::from_iter(init.iter().copied());
        let mut vis_targets: Vec<BTreeSet<Tuple>> = Vec::with_capacity(topo.len());
        let mut vis_dets: Vec<AttrSet> = Vec::with_capacity(topo.len());
        for &mid in &topo {
            let m = w.module(mid)?;
            determined.union_with(&m.output_set());
            let vis_det = determined.intersection(&self.visible);
            vis_targets.push(orig.iter().map(|t| t.project(&vis_det)).collect());
            vis_dets.push(vis_det);
        }

        let mut rows: Vec<Vec<Value>> = inputs
            .iter()
            .map(|x| {
                let mut v = vec![0u32; n_attrs];
                for (&a, &val) in init.iter().zip(x.iter()) {
                    v[a.index()] = val;
                }
                v
            })
            .collect();
        let free_mods: Vec<ModuleId> = topo.iter().copied().filter(|&m| self.is_free(m)).collect();
        let mut report = WorldReport {
            out_sets: BTreeMap::new(),
            vacuous: BTreeSet::new(),
            range_sizes: BTreeMap::new(),
            worlds_matched: 0,
        };
        // Track OUT for every x ∈ π_{I_i}(R) of every free module
        // (Definition 5 quantifies over the original relation's inputs).
        for &mid in &free_mods {
            let m = w.module(mid)?;
            report.range_sizes.insert(
                mid,
                m.outputs
                    .iter()
                    .map(|&a| u128::from(schema.attr(a).domain.size()))
                    .product(),
            );
            for t in &orig {
                let x = Tuple::new(m.inputs.iter().map(|&a| t.get(a)).collect());
                report.out_sets.entry((mid, x)).or_default();
            }
        }
        self.dfs(
            0,
            &topo,
            &candidates,
            &vis_dets,
            &vis_targets,
            &mut rows,
            n_rows,
            &free_mods,
            &mut report,
        );
        Ok(report)
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &self,
        depth: usize,
        topo: &[ModuleId],
        candidates: &[Vec<Vec<Vec<Value>>>],
        vis_dets: &[AttrSet],
        vis_targets: &[BTreeSet<Tuple>],
        rows: &mut Vec<Vec<Value>>,
        n_rows: usize,
        free_mods: &[ModuleId],
        report: &mut WorldReport,
    ) {
        if depth == topo.len() {
            report.worlds_matched += 1;
            for &mid in free_mods {
                let m = &self.workflow.modules()[mid.index()];
                let mut present: BTreeSet<Tuple> = BTreeSet::new();
                for row in rows.iter().take(n_rows) {
                    let x = Tuple::new(m.inputs.iter().map(|&a| row[a.index()]).collect());
                    let y = Tuple::new(m.outputs.iter().map(|&a| row[a.index()]).collect());
                    if let Some(set) = report.out_sets.get_mut(&(mid, x.clone())) {
                        set.insert(y);
                    }
                    present.insert(x);
                }
                // Definition 5's vacuous case: tracked inputs this world
                // never routes to m_i admit every output.
                let tracked: Vec<Tuple> = report
                    .out_sets
                    .keys()
                    .filter(|(m2, _)| *m2 == mid)
                    .map(|(_, x)| x.clone())
                    .collect();
                for x in tracked {
                    if !present.contains(&x) {
                        report.vacuous.insert((mid, x));
                    }
                }
            }
            return;
        }
        let mid = topo[depth];
        let m = &self.workflow.modules()[mid.index()];
        let schema = self.workflow.schema();
        let in_sizes: Vec<u32> = m
            .inputs
            .iter()
            .map(|&a| schema.attr(a).domain.size())
            .collect();
        let saved: Vec<Vec<Value>> = rows
            .iter()
            .map(|r| m.outputs.iter().map(|&a| r[a.index()]).collect())
            .collect();
        for table in &candidates[depth] {
            for row in rows.iter_mut().take(n_rows) {
                let mut idx = 0usize;
                for (&a, &d) in m.inputs.iter().zip(in_sizes.iter()) {
                    idx = idx * d as usize + row[a.index()] as usize;
                }
                for (&a, &v) in m.outputs.iter().zip(table[idx].iter()) {
                    row[a.index()] = v;
                }
            }
            let proj: BTreeSet<Tuple> = rows
                .iter()
                .take(n_rows)
                .map(|r| {
                    Tuple::new(
                        vis_dets[depth]
                            .iter()
                            .map(|a| r[a.index()])
                            .collect::<Vec<_>>(),
                    )
                })
                .collect();
            if proj == vis_targets[depth] {
                self.dfs(
                    depth + 1,
                    topo,
                    candidates,
                    vis_dets,
                    vis_targets,
                    rows,
                    n_rows,
                    free_mods,
                    report,
                );
            }
        }
        for (row, s) in rows.iter_mut().zip(saved.iter()) {
            for (&a, &v) in m.outputs.iter().zip(s.iter()) {
                row[a.index()] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_workflow::library::{fig1_workflow, one_one_chain};

    #[test]
    fn lens_roundtrip_on_fig1_m2() {
        // m2 has attrs {a3, a4, a6} = globals {2, 3, 5}.
        let w = fig1_workflow();
        let lens = ModuleLens::new(&w, ModuleId(1)).unwrap();
        let local = AttrSet::from_indices(&[0, 2]); // a3, a6 locally
        let global = lens.to_global(&local);
        assert_eq!(global, AttrSet::from_indices(&[2, 5]));
        assert_eq!(lens.to_local(&global), local);
        // Global attrs outside the module are dropped.
        assert_eq!(
            lens.to_local(&AttrSet::from_indices(&[0, 2])),
            AttrSet::from_indices(&[0])
        );
    }

    #[test]
    fn compose_union() {
        let a = AttrSet::from_indices(&[1, 3]);
        let b = AttrSet::from_indices(&[3, 5]);
        assert_eq!(
            compose_hidden_sets(&[a, b]),
            AttrSet::from_indices(&[1, 3, 5])
        );
    }

    #[test]
    fn union_of_standalone_optima_is_workflow_safe_on_chain() {
        // 2-module one-one chain over 2 wires; Γ = 2.
        let w = one_one_chain(2, 2);
        let costs = vec![1u64; w.schema().len()];
        let (hidden, cost) = union_of_standalone_optima(&w, &costs, 2, 1 << 20).unwrap();
        assert!(cost >= 1);
        let visible = hidden.complement(w.schema().len());
        let report = WorldSearch::new(&w, visible).run(1 << 26).unwrap();
        assert!(report.is_gamma_private(&w.private_modules(), 2));
    }

    #[test]
    fn world_search_detects_unsafe_view() {
        // Everything visible ⇒ OUT is a singleton for every module.
        let w = one_one_chain(2, 2);
        let visible = w.schema().all_attrs();
        let report = WorldSearch::new(&w, visible).run(1 << 26).unwrap();
        for m in w.private_modules() {
            assert_eq!(report.min_out(m), 1);
        }
        assert!(!report.is_gamma_private(&w.private_modules(), 2));
    }

    #[test]
    fn world_search_counts_true_world() {
        let w = one_one_chain(1, 2);
        let report = WorldSearch::new(&w, w.schema().all_attrs())
            .run(1 << 20)
            .unwrap();
        assert!(report.worlds_matched >= 1);
    }

    #[test]
    fn budget_exceeded_reported() {
        let w = fig1_workflow();
        let err = WorldSearch::new(&w, AttrSet::new()).run(10).unwrap_err();
        assert!(matches!(err, CoreError::BudgetExceeded { .. }));
    }
}
