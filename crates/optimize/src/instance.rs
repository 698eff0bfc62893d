//! Secure-View problem instances (§4.2, §5.2).
//!
//! Instances are decoupled from concrete workflows so that the paper's
//! hardness reductions (which construct instances directly) and the
//! workflow pipeline (which derives requirement lists from module
//! relations) share the same optimizers. Attributes are dense indices
//! `0..n_attrs` with additive hiding costs; each private module carries
//! a requirement list `L_i`; general instances add public modules with
//! privatization costs.

use crate::exact;
use sv_core::requirements::cardinality_constraints_from_frontier;
use sv_core::sweep::{SweepConfig, SweepStats, WorkflowSweeper};
use sv_core::CoreError;
use sv_relation::AttrSet;
use sv_workflow::Workflow;

/// One private module's data for **cardinality constraints**: its
/// input/output attribute ids and the list
/// `L_i = ⟨(α_i^1, β_i^1), …⟩` (hide at least `α` inputs and `β`
/// outputs for some list entry).
///
/// Derived instances list `inputs` and `outputs` in ascending global-id
/// order, whatever order the workflow module declares them in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CardModule {
    /// Input attribute ids `I_i` (global; ascending when derived).
    pub inputs: Vec<u32>,
    /// Output attribute ids `O_i` (global; ascending when derived).
    pub outputs: Vec<u32>,
    /// Requirement list `⟨(α_i^j, β_i^j)⟩`.
    pub list: Vec<(usize, usize)>,
}

/// One private module's data for **set constraints**: the list
/// `L_i = ⟨(I_i^1, O_i^1), …⟩` of concrete hidden-attribute
/// alternatives (global ids; inputs and outputs merged — the split is
/// irrelevant to feasibility).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SetModule {
    /// Requirement list: hiding all attributes of some entry suffices.
    pub list: Vec<AttrSet>,
}

/// A public module in a general instance: its attribute footprint and
/// privatization cost `c(m_j)` (§5.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PublicSpec {
    /// All input and output attributes of the module (global ids).
    pub attrs: AttrSet,
    /// Cost of hiding (privatizing) the module.
    pub cost: u64,
}

/// Secure-View with cardinality constraints (all-private workflows,
/// Theorem 5).
#[derive(Clone, Debug)]
pub struct CardinalityInstance {
    /// Number of attributes.
    pub n_attrs: usize,
    /// Additive hiding costs `c(a)`.
    pub costs: Vec<u64>,
    /// Per private module requirements.
    pub modules: Vec<CardModule>,
}

/// Secure-View with set constraints (all-private workflows, Theorem 6).
#[derive(Clone, Debug)]
pub struct SetInstance {
    /// Number of attributes.
    pub n_attrs: usize,
    /// Additive hiding costs `c(a)`.
    pub costs: Vec<u64>,
    /// Per private module requirements.
    pub modules: Vec<SetModule>,
}

/// Secure-View in general workflows (§5.2): set-constraint requirements
/// for private modules plus privatization costs for public modules.
///
/// A solution is a hidden attribute set `V̄`; Theorem 8 forces
/// privatizing exactly the public modules whose footprint intersects
/// `V̄`, so the induced privatization cost is a function of `V̄`.
#[derive(Clone, Debug)]
pub struct GeneralInstance {
    /// The private modules' requirements and attribute costs.
    pub base: SetInstance,
    /// The public modules.
    pub publics: Vec<PublicSpec>,
}

impl CardModule {
    /// Whether `hidden` satisfies some list entry.
    #[must_use]
    pub fn satisfied_by(&self, hidden: &AttrSet) -> bool {
        let hi = self
            .inputs
            .iter()
            .filter(|&&a| hidden.contains(sv_relation::AttrId(a)))
            .count();
        let ho = self
            .outputs
            .iter()
            .filter(|&&a| hidden.contains(sv_relation::AttrId(a)))
            .count();
        self.list.iter().any(|&(a, b)| hi >= a && ho >= b)
    }
}

impl SetModule {
    /// Whether `hidden` contains some list entry entirely.
    #[must_use]
    pub fn satisfied_by(&self, hidden: &AttrSet) -> bool {
        self.list.iter().any(|req| req.is_subset(hidden))
    }
}

impl CardinalityInstance {
    /// Whether hiding `hidden` satisfies every module.
    #[must_use]
    pub fn feasible(&self, hidden: &AttrSet) -> bool {
        self.modules.iter().all(|m| m.satisfied_by(hidden))
    }

    /// Cost of a hidden set.
    #[must_use]
    pub fn cost(&self, hidden: &AttrSet) -> u64 {
        hidden.iter().map(|a| self.costs[a.index()]).sum()
    }

    /// `ℓ_max`: longest requirement list.
    #[must_use]
    pub fn l_max(&self) -> usize {
        self.modules.iter().map(|m| m.list.len()).max().unwrap_or(0)
    }

    /// Number of modules `n`.
    #[must_use]
    pub fn n_modules(&self) -> usize {
        self.modules.len()
    }

    /// Derives the instance from an all-private workflow: every private
    /// module contributes its Pareto cardinality frontier for `gamma`.
    ///
    /// # Errors
    /// Propagates module-materialization and sweep failures; fails if
    /// some module has an empty frontier (no safe hiding exists).
    pub fn from_workflow(
        workflow: &Workflow,
        gamma: u128,
        budget: u128,
    ) -> Result<Self, CoreError> {
        let gammas = vec![gamma; workflow.private_modules().len()];
        Self::from_workflow_with_gammas(workflow, &gammas, budget)
    }

    /// Like [`from_workflow`](Self::from_workflow) but with a distinct
    /// privacy requirement `Γ_i` per private module (in
    /// `private_modules()` order) — the paper notes all results carry
    /// over unchanged (§2.4, remark after Definition 5). A one-shot
    /// [`from_sweeper`](Self::from_sweeper) over a serial
    /// [`WorkflowSweeper`].
    ///
    /// # Errors
    /// As [`from_workflow`](Self::from_workflow).
    pub fn from_workflow_with_gammas(
        workflow: &Workflow,
        gammas: &[u128],
        budget: u128,
    ) -> Result<Self, CoreError> {
        let sweeper = WorkflowSweeper::for_workflow(workflow, budget, SweepConfig::serial())?;
        Self::from_sweeper(&sweeper, gammas).map(|(inst, _)| inst)
    }

    /// Derives the instance through a [`WorkflowSweeper`]: per module,
    /// the ⊆-minimal safe hidden sets come from the parallel antichain
    /// sweep — all modules swept concurrently via the cross-module
    /// work-stealing pool ([`WorkflowSweeper::minimal_frontiers_all`]) —
    /// and the cardinality Pareto frontier is then recovered by
    /// **trie-coverage queries** against each memoized
    /// [`sv_core::Frontier`]
    /// ([`cardinality_constraints_from_frontier`]) — zero additional
    /// oracle probes. Also returns the merged sweep counters.
    ///
    /// # Errors
    /// Propagates sweep failures; fails on modules with no safe hiding.
    pub fn from_sweeper(
        sweeper: &WorkflowSweeper,
        gammas: &[u128],
    ) -> Result<(Self, SweepStats), CoreError> {
        assert_eq!(gammas.len(), sweeper.module_ids().len());
        let n_attrs = sweeper.n_attrs();
        let mut modules = Vec::new();
        let (frontiers, stats) = sweeper.minimal_frontiers_all(gammas)?;
        for ((id, frontier), &gamma) in frontiers.into_iter().zip(gammas) {
            let list: Vec<(usize, usize)> = {
                let oracle = sweeper
                    .oracles()
                    .oracle(id)
                    .ok_or(CoreError::MissingOracle { module: id.index() })?;
                let m = oracle.module();
                cardinality_constraints_from_frontier(&frontier, m.inputs(), m.outputs())
                    .into_iter()
                    .map(|c| (c.alpha, c.beta))
                    .collect()
            };
            if list.is_empty() {
                return Err(CoreError::BudgetExceeded {
                    what: "module admits no safe hiding for gamma",
                    required: gamma,
                    budget: 0,
                });
            }
            modules.push(CardModule {
                inputs: sweeper
                    .global_inputs(id)
                    .ok_or(CoreError::MissingOracle { module: id.index() })?,
                outputs: sweeper
                    .global_outputs(id)
                    .ok_or(CoreError::MissingOracle { module: id.index() })?,
                list,
            });
        }
        Ok((
            Self {
                n_attrs,
                costs: vec![1; n_attrs],
                modules,
            },
            stats,
        ))
    }

    /// Replaces the unit costs with explicit ones.
    #[must_use]
    pub fn with_costs(mut self, costs: Vec<u64>) -> Self {
        assert_eq!(costs.len(), self.n_attrs);
        self.costs = costs;
        self
    }
}

impl SetInstance {
    /// Whether hiding `hidden` satisfies every module.
    #[must_use]
    pub fn feasible(&self, hidden: &AttrSet) -> bool {
        self.modules.iter().all(|m| m.satisfied_by(hidden))
    }

    /// Cost of a hidden set.
    #[must_use]
    pub fn cost(&self, hidden: &AttrSet) -> u64 {
        hidden.iter().map(|a| self.costs[a.index()]).sum()
    }

    /// `ℓ_max`: longest requirement list.
    #[must_use]
    pub fn l_max(&self) -> usize {
        self.modules.iter().map(|m| m.list.len()).max().unwrap_or(0)
    }

    /// Number of modules `n`.
    #[must_use]
    pub fn n_modules(&self) -> usize {
        self.modules.len()
    }

    /// Derives the instance from an all-private workflow: every private
    /// module contributes its minimal safe hidden sets (mapped to global
    /// attribute ids).
    ///
    /// # Errors
    /// Propagates module-materialization and sweep failures; fails on
    /// modules with no safe hiding.
    pub fn from_workflow(
        workflow: &Workflow,
        gamma: u128,
        budget: u128,
    ) -> Result<Self, CoreError> {
        let gammas = vec![gamma; workflow.private_modules().len()];
        Self::from_workflow_with_gammas(workflow, &gammas, budget)
    }

    /// Like [`from_workflow`](Self::from_workflow) but with a distinct
    /// `Γ_i` per private module (in `private_modules()` order). A
    /// one-shot [`from_sweeper`](Self::from_sweeper) over a serial
    /// [`WorkflowSweeper`].
    ///
    /// # Errors
    /// As [`from_workflow`](Self::from_workflow).
    pub fn from_workflow_with_gammas(
        workflow: &Workflow,
        gammas: &[u128],
        budget: u128,
    ) -> Result<Self, CoreError> {
        let sweeper = WorkflowSweeper::for_workflow(workflow, budget, SweepConfig::serial())?;
        Self::from_sweeper(&sweeper, gammas).map(|(inst, _)| inst)
    }

    /// Derives the instance through a [`WorkflowSweeper`]: each module's
    /// requirement list is its ⊆-minimal-safe-set antichain, iterated
    /// straight off the memoized [`sv_core::Frontier`] trie in
    /// (popcount, mask) order — all modules swept concurrently via
    /// [`WorkflowSweeper::minimal_frontiers_all`] — mapped to global
    /// ids. Also returns the merged sweep counters.
    ///
    /// # Errors
    /// Propagates sweep failures; fails on modules with no safe hiding.
    pub fn from_sweeper(
        sweeper: &WorkflowSweeper,
        gammas: &[u128],
    ) -> Result<(Self, SweepStats), CoreError> {
        assert_eq!(gammas.len(), sweeper.module_ids().len());
        let n_attrs = sweeper.n_attrs();
        let mut modules = Vec::new();
        let (frontiers, stats) = sweeper.minimal_frontiers_all(gammas)?;
        for ((id, frontier), &gamma) in frontiers.into_iter().zip(gammas) {
            let list: Vec<AttrSet> = frontier
                .iter()
                .map(|word| {
                    sweeper
                        .to_global(id, &AttrSet::from_word(word))
                        .ok_or(CoreError::MissingOracle { module: id.index() })
                })
                .collect::<Result<_, _>>()?;
            if list.is_empty() {
                return Err(CoreError::BudgetExceeded {
                    what: "module admits no safe hiding for gamma",
                    required: gamma,
                    budget: 0,
                });
            }
            modules.push(SetModule { list });
        }
        Ok((
            Self {
                n_attrs,
                costs: vec![1; n_attrs],
                modules,
            },
            stats,
        ))
    }

    /// Replaces the unit costs with explicit ones.
    #[must_use]
    pub fn with_costs(mut self, costs: Vec<u64>) -> Self {
        assert_eq!(costs.len(), self.n_attrs);
        self.costs = costs;
        self
    }
}

impl GeneralInstance {
    /// Public modules whose footprint intersects `hidden` (these must be
    /// privatized, Theorem 8).
    #[must_use]
    pub fn induced_privatizations(&self, hidden: &AttrSet) -> Vec<usize> {
        self.publics
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.attrs.is_disjoint(hidden))
            .map(|(i, _)| i)
            .collect()
    }

    /// Total cost: hidden-attribute costs plus induced privatization
    /// costs.
    #[must_use]
    pub fn cost(&self, hidden: &AttrSet) -> u64 {
        let attr: u64 = self.base.cost(hidden);
        let publ: u64 = self
            .induced_privatizations(hidden)
            .iter()
            .map(|&i| self.publics[i].cost)
            .sum();
        attr + publ
    }

    /// Whether hiding `hidden` satisfies every private module.
    #[must_use]
    pub fn feasible(&self, hidden: &AttrSet) -> bool {
        self.base.feasible(hidden)
    }

    /// `ℓ_max` over private-module lists.
    #[must_use]
    pub fn l_max(&self) -> usize {
        self.base.l_max()
    }

    /// Derives the instance from a general workflow with the given
    /// per-public-module privatization costs: the private modules'
    /// requirement lists come from [`SetInstance::from_sweeper`] over a
    /// serial [`WorkflowSweeper`].
    ///
    /// # Errors
    /// Propagates module-materialization and sweep failures; fails on
    /// private modules with no safe hiding.
    pub fn from_workflow(
        workflow: &Workflow,
        gamma: u128,
        public_costs: &[u64],
        budget: u128,
    ) -> Result<Self, CoreError> {
        let sweeper = WorkflowSweeper::for_workflow(workflow, budget, SweepConfig::serial())?;
        let gammas = vec![gamma; sweeper.module_ids().len()];
        let (base, _) = SetInstance::from_sweeper(&sweeper, &gammas)?;
        let publics: Vec<PublicSpec> = workflow
            .public_modules()
            .into_iter()
            .zip(public_costs.iter())
            .map(|(id, &cost)| PublicSpec {
                attrs: workflow.modules()[id.index()].attr_set(),
                cost,
            })
            .collect();
        Ok(Self { base, publics })
    }
}

/// Shared solution type: the hidden attribute set plus its cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Solution {
    /// Hidden attributes `V̄`.
    pub hidden: AttrSet,
    /// Total solution cost (including induced privatizations for
    /// general instances).
    pub cost: u64,
}

impl Solution {
    /// Builds and validates a solution against a cardinality instance.
    ///
    /// # Panics
    /// Panics if `hidden` is infeasible (internal contract: optimizers
    /// must return feasible solutions).
    #[must_use]
    pub fn checked_card(instance: &CardinalityInstance, hidden: AttrSet) -> Self {
        assert!(instance.feasible(&hidden), "infeasible solution produced");
        let cost = instance.cost(&hidden);
        Self { hidden, cost }
    }

    /// Builds and validates a solution against a set instance.
    ///
    /// # Panics
    /// Panics if `hidden` is infeasible.
    #[must_use]
    pub fn checked_set(instance: &SetInstance, hidden: AttrSet) -> Self {
        assert!(instance.feasible(&hidden), "infeasible solution produced");
        let cost = instance.cost(&hidden);
        Self { hidden, cost }
    }

    /// Builds and validates a solution against a general instance
    /// (cost includes induced privatizations).
    ///
    /// # Panics
    /// Panics if `hidden` is infeasible.
    #[must_use]
    pub fn checked_general(instance: &GeneralInstance, hidden: AttrSet) -> Self {
        assert!(instance.feasible(&hidden), "infeasible solution produced");
        let cost = instance.cost(&hidden);
        Self { hidden, cost }
    }
}

/// Convenience used across optimizers and tests: exhaustive optimum of
/// small instances; see [`exact`] for the implementations.
pub use exact::{exact_cardinality, exact_general, exact_set};

#[cfg(test)]
mod tests {
    use super::*;
    use sv_workflow::library::fig1_workflow;

    #[test]
    fn fig1_cardinality_instance() {
        // Γ = 2: satisfiable by every Figure-1 module (m2/m3 have a
        // single boolean output, so their max privacy level is 2;
        // Γ = 4 is unsatisfiable workflow-wide and must error out).
        let w = fig1_workflow();
        let inst = CardinalityInstance::from_workflow(&w, 2, 1 << 20).unwrap();
        assert_eq!(inst.n_modules(), 3);
        assert_eq!(inst.n_attrs, 7);
        assert!(inst.feasible(&AttrSet::full(7)));
        // Hiding {a4, a5} (ids 3, 4) satisfies m1 for Γ = 2.
        let hidden = AttrSet::from_indices(&[3, 4]);
        assert!(inst.modules[0].satisfied_by(&hidden));
        assert!(CardinalityInstance::from_workflow(&w, 4, 1 << 20).is_err());
    }

    #[test]
    fn fig1_set_instance_feasibility() {
        let w = fig1_workflow();
        let inst = SetInstance::from_workflow(&w, 2, 1 << 20).unwrap();
        assert_eq!(inst.n_modules(), 3);
        // Hiding everything is always feasible (Proposition 1).
        assert!(inst.feasible(&AttrSet::full(7)));
        // Hiding nothing is never feasible for Γ ≥ 2.
        assert!(!inst.feasible(&AttrSet::new()));
        assert_eq!(inst.cost(&AttrSet::full(7)), 7);
    }

    #[test]
    fn card_module_satisfaction_logic() {
        let m = CardModule {
            inputs: vec![0, 1],
            outputs: vec![2],
            list: vec![(2, 0), (0, 1)],
        };
        assert!(m.satisfied_by(&AttrSet::from_indices(&[0, 1])));
        assert!(m.satisfied_by(&AttrSet::from_indices(&[2])));
        assert!(!m.satisfied_by(&AttrSet::from_indices(&[0])));
        // Attributes of other modules are ignored.
        assert!(m.satisfied_by(&AttrSet::from_indices(&[2, 5])));
    }

    #[test]
    fn set_module_satisfaction_logic() {
        let m = SetModule {
            list: vec![AttrSet::from_indices(&[0, 1]), AttrSet::from_indices(&[3])],
        };
        assert!(m.satisfied_by(&AttrSet::from_indices(&[3, 9])));
        assert!(m.satisfied_by(&AttrSet::from_indices(&[0, 1])));
        assert!(!m.satisfied_by(&AttrSet::from_indices(&[0, 3 + 60])));
    }

    #[test]
    fn general_instance_induced_costs() {
        let base = SetInstance {
            n_attrs: 4,
            costs: vec![1, 1, 1, 1],
            modules: vec![SetModule {
                list: vec![AttrSet::from_indices(&[1])],
            }],
        };
        let inst = GeneralInstance {
            base,
            publics: vec![
                PublicSpec {
                    attrs: AttrSet::from_indices(&[0, 1]),
                    cost: 10,
                },
                PublicSpec {
                    attrs: AttrSet::from_indices(&[2, 3]),
                    cost: 7,
                },
            ],
        };
        let hidden = AttrSet::from_indices(&[1]);
        assert!(inst.feasible(&hidden));
        assert_eq!(inst.induced_privatizations(&hidden), vec![0]);
        assert_eq!(inst.cost(&hidden), 1 + 10);
        let hidden = AttrSet::from_indices(&[1, 2]);
        assert_eq!(inst.cost(&hidden), 2 + 17);
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn checked_solution_rejects_infeasible() {
        let inst = SetInstance {
            n_attrs: 2,
            costs: vec![1, 1],
            modules: vec![SetModule {
                list: vec![AttrSet::from_indices(&[0])],
            }],
        };
        let _ = Solution::checked_set(&inst, AttrSet::from_indices(&[1]));
    }
}
