//! Standalone module privacy (§3 of the paper).
//!
//! A [`StandaloneModule`] packages a module relation `R` with its
//! input/output split `(I, O)`. The key operations are:
//!
//! * [`StandaloneModule::is_safe`] — the exact Γ-standalone-privacy test
//!   (Definition 2) via the grouped-counting condition of the paper's
//!   Algorithm 2 (proved necessary and sufficient in Lemma 4 of
//!   Appendix A.4);
//! * [`StandaloneModule::min_cost_safe_hidden`] — the standalone
//!   **Secure-View** optimization (minimum-cost hidden subset), by
//!   budget-pruned subset enumeration (the paper shows `2^Ω(k)` oracle
//!   calls are unavoidable, Theorem 3, so enumeration is the honest
//!   baseline);
//! * [`StandaloneModule::minimal_safe_hidden_sets`] — all ⊆-minimal safe
//!   hidden subsets, i.e. the module's *set-constraints* requirement
//!   list `L_i` (§4.2).
//!
//! Every check takes its visible set as an [`AttrSet`], whatever the
//! module's width: a module of `k ≤ 64` attributes asks them all through
//! inline one-word sets, so a warm probe allocates nothing, and wider
//! modules take the same path.
//!
//! The module is also the uncached [`crate::safety::SafetyOracle`]:
//! every probe runs one Lemma-4 pass on its kernel, so the two §3
//! enumerations above are the serial [`crate::safety`] references asked
//! through the module itself. [`crate::safety::MemoSafetyOracle`] wraps
//! a module to cache its levels.

use crate::error::CoreError;
use std::sync::Arc;
use sv_relation::{AttrSet, Fd, InternedRelation, Relation, Schema, Tuple, Value};
use sv_workflow::{ModuleId, Workflow};

/// Maximum `k = |I| + |O|` supported by dense subset enumeration.
pub const MAX_DENSE_ATTRS: usize = 28;

/// A standalone module: relation `R` over `I ∪ O` with `I -> O`.
///
/// Attribute ids refer to the relation's **own** schema (the module
/// sub-schema), not to any enclosing workflow; see
/// [`crate::compose::ModuleLens`] for the translation.
///
/// The module keeps its rows in one store, the [`InternedRelation`]
/// kernel (shared through an `Arc`, so clones share warm group caches).
/// Every safety probe and every streaming append runs on it;
/// [`relation`](Self::relation) materializes the rows as a canonical
/// [`Relation`] for the row-at-a-time callers (possible worlds and the
/// reference [`crate::safety::NaiveOracle`]).
#[derive(Clone, Debug)]
pub struct StandaloneModule {
    inputs: AttrSet,
    outputs: AttrSet,
    kernel: Arc<InternedRelation>,
}

impl StandaloneModule {
    /// Wraps a relation, validating that `(inputs, outputs)` partition
    /// its schema and that the FD `inputs -> outputs` holds.
    ///
    /// # Errors
    /// [`CoreError::BadAttributeSplit`] or [`CoreError::NotAFunction`].
    pub fn new(relation: Relation, inputs: AttrSet, outputs: AttrSet) -> Result<Self, CoreError> {
        Self::checked(InternedRelation::from_relation(&relation), inputs, outputs)
    }

    /// Wraps a kernel of distinct rows after the split check and the FD
    /// check shared by [`new`](Self::new) and
    /// [`from_recovered`](Self::from_recovered). The rows are distinct,
    /// so `I -> O` holds iff the `I` grouping has one group per row.
    fn checked(
        kernel: InternedRelation,
        inputs: AttrSet,
        outputs: AttrSet,
    ) -> Result<Self, CoreError> {
        if !inputs.is_disjoint(&outputs) {
            return Err(CoreError::BadAttributeSplit {
                reason: "inputs and outputs overlap".into(),
            });
        }
        if inputs.union(&outputs) != kernel.schema().all_attrs() {
            return Err(CoreError::BadAttributeSplit {
                reason: "inputs ∪ outputs must cover the schema".into(),
            });
        }
        if kernel.group_index(&inputs).n_groups() as usize != kernel.n_rows() {
            return Err(CoreError::NotAFunction);
        }
        Ok(Self {
            inputs,
            outputs,
            kernel: Arc::new(kernel),
        })
    }

    /// Extracts module `id` of `workflow` as a standalone module by
    /// materializing its full relation (`R_i`, §4).
    ///
    /// Attribute ids in the result refer to the module sub-schema
    /// (the module's attributes in global id order).
    ///
    /// # Errors
    /// Propagates enumeration-budget and structural errors.
    pub fn from_workflow_module(
        workflow: &Workflow,
        id: ModuleId,
        budget: u128,
    ) -> Result<Self, CoreError> {
        let m = workflow.module(id)?;
        let rel = m.standalone_relation(workflow.schema(), budget)?;
        let (inputs, outputs) = Self::local_split(workflow, id)?;
        Self::new(rel, inputs, outputs)
    }

    /// The **streaming** counterpart of
    /// [`from_workflow_module`](Self::from_workflow_module): the module
    /// starts with an *empty* relation over its sub-schema — no
    /// executions recorded yet, so every view is vacuously safe — and
    /// grows row-at-a-time through
    /// [`append_execution`](Self::append_execution) as provenance
    /// arrives. Privacy answers are always with respect to the
    /// executions recorded so far, the live-deployment reading of the
    /// paper's module relation `R`.
    ///
    /// # Errors
    /// Propagates structural workflow errors (unknown module id).
    pub fn empty_from_workflow_module(
        workflow: &Workflow,
        id: ModuleId,
    ) -> Result<Self, CoreError> {
        let m = workflow.module(id)?;
        let sub_schema = Schema::new(
            m.attr_set()
                .iter()
                .map(|a| workflow.schema().attr(a).clone())
                .collect::<Vec<_>>(),
        );
        let (inputs, outputs) = Self::local_split(workflow, id)?;
        Self::new(Relation::empty(sub_schema), inputs, outputs)
    }

    /// Local (sub-schema) input/output split of workflow module `id`:
    /// module attrs sorted by global id = sub-schema order.
    fn local_split(workflow: &Workflow, id: ModuleId) -> Result<(AttrSet, AttrSet), CoreError> {
        let m = workflow.module(id)?;
        let order: Vec<_> = m.attr_set().iter().collect();
        let mut inputs = AttrSet::new();
        let mut outputs = AttrSet::new();
        for (local, &global) in order.iter().enumerate() {
            let local_id = sv_relation::AttrId(local as u32);
            if m.input_set().contains(global) {
                inputs.insert(local_id);
            } else {
                outputs.insert(local_id);
            }
        }
        Ok((inputs, outputs))
    }

    /// The module relation `R`, materialized from the kernel
    /// ([`InternedRelation::to_relation`]): a fresh canonical copy of
    /// every recorded row, `O(rows log rows)` per call.
    #[must_use]
    pub fn relation(&self) -> Relation {
        self.kernel.to_relation()
    }

    /// The interned columnar kernel view of `R` (shared across clones).
    #[must_use]
    pub fn kernel(&self) -> &InternedRelation {
        &self.kernel
    }

    /// The relation's schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        self.kernel.schema()
    }

    /// Input attributes `I`.
    #[must_use]
    pub fn inputs(&self) -> &AttrSet {
        &self.inputs
    }

    /// Output attributes `O`.
    #[must_use]
    pub fn outputs(&self) -> &AttrSet {
        &self.outputs
    }

    /// Total number of attributes `k = |I| + |O|`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.schema().len()
    }

    /// The FD `I -> O`.
    #[must_use]
    pub fn fd(&self) -> Fd {
        Fd::new(self.inputs.clone(), self.outputs.clone())
    }

    /// The relation's generation counter
    /// ([`InternedRelation::epoch`]): `0` at construction, bumped by
    /// every [`append_execution`](Self::append_execution) that records
    /// at least one new row. [`crate::safety::MemoSafetyOracle`] stamps
    /// its privacy-level cache with this.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.kernel.epoch()
    }

    /// Appends newly observed executions (full rows over the module
    /// sub-schema) to the relation, **incrementally**: the interned
    /// kernel extends its column store and every warm [`sv_relation::
    /// GroupIndex`] in place (see [`InternedRelation::append_rows`]).
    /// Duplicate executions are dropped (set semantics); the module FD
    /// `I -> O` is enforced *before* any mutation, so on error the
    /// module is unchanged.
    ///
    /// Returns the number of genuinely new rows.
    ///
    /// # Errors
    /// [`CoreError::Relation`] on arity/domain violations;
    /// [`CoreError::NotAFunction`] if a row disagrees on outputs with a
    /// recorded (or in-batch) execution of the same input.
    ///
    /// # Examples
    /// ```
    /// use sv_core::StandaloneModule;
    /// use sv_relation::{AttrSet, Relation, Schema, Tuple};
    ///
    /// let schema = Schema::booleans(&["i", "o"]);
    /// let mut m = StandaloneModule::new(
    ///     Relation::empty(schema),
    ///     AttrSet::from_indices(&[0]),
    ///     AttrSet::from_indices(&[1]),
    /// )
    /// .unwrap();
    /// // First execution arrives: i=0 ↦ o=1.
    /// assert_eq!(m.append_execution(&[Tuple::new(vec![0, 1])]).unwrap(), 1);
    /// assert_eq!(m.epoch(), 1);
    /// // A contradicting execution for the same input is rejected.
    /// assert!(m.append_execution(&[Tuple::new(vec![0, 0])]).is_err());
    /// ```
    pub fn append_execution(&mut self, rows: &[Tuple]) -> Result<usize, CoreError> {
        self.validate_executions(rows)?;
        Ok(self.append_validated(rows))
    }

    /// Appends rows that [`validate_executions`](Self::validate_executions)
    /// accepted against this module as it is now, so nothing can fail.
    /// Clones of this module share the kernel through the `Arc`;
    /// copy-on-write keeps their view frozen at their epoch.
    pub(crate) fn append_validated(&mut self, rows: &[Tuple]) -> usize {
        Arc::make_mut(&mut self.kernel)
            .append_rows(rows)
            .expect("rows validated against this module")
    }

    /// The checks [`append_execution`](Self::append_execution) runs
    /// **before** mutating anything, as a standalone non-mutating
    /// query: arity/domain validation plus the FD `I -> O` precheck
    /// against recorded and in-batch executions. Multi-module ingest
    /// ([`crate::safety::WorkflowOracles::validate_batch`]) validates
    /// every module's projection through this first, so a frame that is
    /// invalid for *any* module mutates *no* module.
    ///
    /// # Errors
    /// Every failure comes back as [`CoreError::RowRejected`] naming
    /// the 0-based batch position of the offending row, wrapping
    /// [`CoreError::Relation`] (arity/domain violation) or
    /// [`CoreError::NotAFunction`] (output contradiction) — so a caller
    /// streaming a multi-row batch can report exactly which row was
    /// refused instead of a whole-batch error with no position.
    pub fn validate_executions(&self, rows: &[Tuple]) -> Result<(), CoreError> {
        // Arity/domains first (the kernel would also catch this, but
        // only after the FD pass below touched group caches).
        for (i, t) in rows.iter().enumerate() {
            self.schema()
                .check_row(t)
                .map_err(|e| CoreError::from(e).at_row(i))?;
        }
        // FD precheck: each row's outputs must agree with the recorded
        // execution of its input group (the kernel point lookup warms
        // the `I` grouping, which appends then maintain) and with the
        // batch so far.
        let mut batch_out: std::collections::HashMap<Tuple, Tuple> =
            std::collections::HashMap::new();
        for (i, t) in rows.iter().enumerate() {
            if let Some(rep) = self.kernel.find_group_row(&self.inputs, t.values()) {
                for a in self.outputs.iter() {
                    if self.kernel.value(rep, a) != t.get(a) {
                        return Err(CoreError::NotAFunction.at_row(i));
                    }
                }
            }
            let x = t.project(&self.inputs);
            let y = t.project(&self.outputs);
            match batch_out.entry(x) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    if *e.get() != y {
                        return Err(CoreError::NotAFunction.at_row(i));
                    }
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(y);
                }
            }
        }
        Ok(())
    }

    /// Reconstructs a streamed module's state from durable storage:
    /// `rows` is the kernel column store **in arrival order** and
    /// `epoch` the recorded generation counter (which, after
    /// compactions, need not equal the row count). The kernel is
    /// rebuilt via [`InternedRelation::from_ordered_rows`], so the
    /// result is logically identical to the uninterrupted module — cold
    /// caches aside.
    ///
    /// # Errors
    /// [`CoreError::BadAttributeSplit`] / [`CoreError::NotAFunction`]
    /// as in [`new`](Self::new); [`CoreError::Relation`] (including
    /// [`sv_relation::RelationError::DuplicateRow`]) when the recovered
    /// rows are not a valid duplicate-free column store.
    pub fn from_recovered(
        schema: Schema,
        inputs: AttrSet,
        outputs: AttrSet,
        rows: &[Tuple],
        epoch: u64,
    ) -> Result<Self, CoreError> {
        let kernel = InternedRelation::from_ordered_rows(schema, rows, epoch)?;
        Self::checked(kernel, inputs, outputs)
    }

    /// **Γ-standalone-privacy test** (Definition 2), decided by the exact
    /// condition of Algorithm 2 / Lemma 4:
    ///
    /// `V` is safe for `Γ` iff for every value of the visible inputs
    /// `I ∩ V` appearing in `R`, the rows of that group take at least
    /// `⌈Γ / ∏_{a ∈ O\V} |Δ_a|⌉` distinct values on the visible outputs
    /// `O ∩ V` — each visible-output value extends to
    /// `∏_{a ∈ O\V} |Δ_a|` full outputs by arbitrary hidden-output
    /// assignments.
    ///
    /// Runs on the interned kernel: after the per-attribute-set group
    /// indexes are warm, a probe is two cache lookups plus at most one
    /// pass over dense `u32` row ids — **zero heap allocation** for every
    /// module of `k ≤ 64` attributes (which [`MAX_DENSE_ATTRS`]
    /// guarantees for every enumerable module), whose attribute sets
    /// are inline words.
    #[must_use]
    pub fn is_safe(&self, visible: &AttrSet, gamma: u128) -> bool {
        gamma <= 1 || self.level(visible, gamma) >= gamma
    }

    /// Safety test phrased on the hidden set `V̄` (`V = A \ V̄`).
    #[must_use]
    pub fn is_safe_hidden(&self, hidden: &AttrSet, gamma: u128) -> bool {
        self.is_safe(&hidden.complement(self.k()), gamma)
    }

    /// The achievable output-diversity bound per visible input group:
    /// minimum over groups of `distinct_visible_outputs × ∏ hidden
    /// output domain sizes`. A set `V` is safe for `Γ` iff this is `≥ Γ`.
    ///
    /// Exposed so benches can chart the *actual* privacy level a view
    /// attains, not just a yes/no answer — and because the level
    /// determines `is_safe(V, Γ)` for every Γ, it is what the memoizing
    /// [`crate::safety::MemoSafetyOracle`] caches per visible set.
    #[must_use]
    pub fn privacy_level(&self, visible: &AttrSet) -> u128 {
        self.level(visible, u128::MAX)
    }

    /// The Lemma-4 level of `visible` through the kernel's
    /// [`InternedRelation::min_group_distinct`] pass: `u128::MAX` on an
    /// empty relation (no `x ∈ π_I(R)`, so vacuously safe), and the
    /// hidden-output product alone, without the pass, once that product
    /// reaches `enough`.
    fn level(&self, visible: &AttrSet, enough: u128) -> u128 {
        if self.kernel.n_rows() == 0 {
            return u128::MAX;
        }
        let h = self
            .schema()
            .domain_product(&self.outputs.difference(visible));
        if h >= enough {
            return h;
        }
        let d = self.kernel.min_group_distinct(
            &self.inputs.intersection(visible),
            &self.outputs.intersection(visible),
        );
        (d as u128).saturating_mul(h)
    }

    /// Standalone **Secure-View**: minimum-cost hidden subset `V̄` such
    /// that the module is Γ-private w.r.t. `V = A \ V̄`.
    ///
    /// `costs[a]` is the penalty `c(a)` of hiding attribute `a` (additive
    /// cost model, §2.2). Returns the hidden set and its cost, or `None`
    /// if even hiding everything fails (possible only for `Γ` larger
    /// than the full output diversity).
    ///
    /// # Errors
    /// [`CoreError::TooManyAttributes`] if `k > MAX_DENSE_ATTRS`.
    pub fn min_cost_safe_hidden(
        &self,
        costs: &[u64],
        gamma: u128,
    ) -> Result<Option<(AttrSet, u64)>, CoreError> {
        crate::safety::min_cost_safe_hidden(self, costs, gamma)
    }

    /// All ⊆-minimal safe hidden subsets — the module's set-constraints
    /// requirement list `L_i` (§4.2). Safety is monotone in the hidden
    /// set (Proposition 1), so these form an antichain generating all
    /// safe hidden sets by superset closure.
    ///
    /// # Errors
    /// [`CoreError::TooManyAttributes`] if `k > MAX_DENSE_ATTRS`.
    pub fn minimal_safe_hidden_sets(&self, gamma: u128) -> Result<Vec<AttrSet>, CoreError> {
        crate::safety::minimal_safe_hidden_sets(self, gamma)
    }

    /// All distinct inputs `π_I(R)`, in canonical order.
    #[must_use]
    pub fn input_tuples(&self) -> Vec<Tuple> {
        self.kernel.project(&self.inputs).rows().to_vec()
    }

    /// Dense enumeration of the full input domain `Dom = ∏_{a∈I} Δ_a`
    /// (inputs in local id order).
    #[must_use]
    pub fn input_domain(&self) -> Vec<Vec<Value>> {
        let sizes: Vec<u32> = self
            .inputs
            .iter()
            .map(|a| self.schema().attr(a).domain.size())
            .collect();
        enumerate_mixed_radix(&sizes)
    }

    /// Dense enumeration of the full output range `∏_{a∈O} Δ_a`.
    #[must_use]
    pub fn output_range(&self) -> Vec<Vec<Value>> {
        let sizes: Vec<u32> = self
            .outputs
            .iter()
            .map(|a| self.schema().attr(a).domain.size())
            .collect();
        enumerate_mixed_radix(&sizes)
    }
}

/// Enumerates all assignments over the given domain sizes in
/// mixed-radix order (first coordinate most significant).
#[must_use]
pub fn enumerate_mixed_radix(sizes: &[u32]) -> Vec<Vec<Value>> {
    let total: usize = sizes.iter().map(|&s| s as usize).product();
    let mut out = Vec::with_capacity(total);
    let mut cur = vec![0u32; sizes.len()];
    loop {
        out.push(cur.clone());
        let mut done = true;
        for i in (0..cur.len()).rev() {
            cur[i] += 1;
            if cur[i] < sizes[i] {
                done = false;
                break;
            }
            cur[i] = 0;
        }
        if done {
            break;
        }
    }
    out
}

#[cfg(test)]
fn mask_to_set(mask: u32, k: usize) -> AttrSet {
    AttrSet::from_iter(
        (0..k)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| sv_relation::AttrId(i as u32)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_workflow::library::fig1_workflow;

    /// Module m1 of Figure 1 as a standalone module (attrs a1..a5 →
    /// local ids 0..4).
    fn m1() -> StandaloneModule {
        let w = fig1_workflow();
        StandaloneModule::from_workflow_module(&w, ModuleId(0), 1 << 20).unwrap()
    }

    #[test]
    fn m1_shape() {
        let m = m1();
        assert_eq!(m.k(), 5);
        assert_eq!(m.inputs(), &AttrSet::from_indices(&[0, 1]));
        assert_eq!(m.outputs(), &AttrSet::from_indices(&[2, 3, 4]));
        assert_eq!(m.relation().len(), 4);
    }

    #[test]
    fn example3_safe_subsets() {
        // Example 3 of the paper, verbatim:
        let m = m1();
        // V = {a1, a3, a5} is safe for Γ = 4.
        let v = AttrSet::from_indices(&[0, 2, 4]);
        assert!(m.is_safe(&v, 4));
        // Hiding any two output attributes gives Γ = 4 …
        for pair in [[2u32, 3], [2, 4], [3, 4]] {
            assert!(m.is_safe_hidden(&AttrSet::from_indices(&pair), 4));
        }
        // … but V = {a3,a4,a5} (inputs hidden) is NOT safe for Γ = 4:
        // only three distinct outputs exist.
        let v = AttrSet::from_indices(&[2, 3, 4]);
        assert!(!m.is_safe(&v, 4));
        assert!(m.is_safe(&v, 3)); // exactly 3 distinct outputs
        assert_eq!(m.privacy_level(&v), 3);
    }

    #[test]
    fn privacy_level_matches_is_safe() {
        let m = m1();
        for mask in 0u32..(1 << 5) {
            let hidden = mask_to_set(mask, 5);
            let v = hidden.complement(5);
            let level = m.privacy_level(&v);
            for gamma in 1..=9u128 {
                assert_eq!(
                    m.is_safe(&v, gamma),
                    level >= gamma,
                    "mask={mask:#b} gamma={gamma}"
                );
            }
        }
    }

    #[test]
    fn hiding_everything_is_maximally_safe() {
        let m = m1();
        // All 5 attributes hidden: privacy = |Range| = 8 candidates,
        // but only via hidden-output product 2^3 = 8.
        assert!(m.is_safe(&AttrSet::new(), 8));
        assert!(!m.is_safe(&AttrSet::new(), 9));
    }

    #[test]
    fn gamma_one_always_safe() {
        let m = m1();
        assert!(m.is_safe(&m.schema().all_attrs(), 1));
    }

    #[test]
    fn min_cost_uniform_costs() {
        let m = m1();
        // Unit costs: cheapest safe hidden set for Γ=4 has 2 attributes
        // (two outputs, per Example 3).
        let (hidden, cost) = m.min_cost_safe_hidden(&[1; 5], 4).unwrap().unwrap();
        assert_eq!(cost, 2);
        assert!(m.is_safe_hidden(&hidden, 4));
    }

    #[test]
    fn min_cost_respects_weights() {
        let m = m1();
        // Make outputs expensive; hiding {a2, a4} (cost 3+2) is the
        // paper's Example-3 alternative V = {a1,a3,a5}.
        let costs = [10, 3, 9, 2, 9];
        let (hidden, cost) = m.min_cost_safe_hidden(&costs, 4).unwrap().unwrap();
        assert!(m.is_safe_hidden(&hidden, 4));
        assert_eq!(cost, 5);
        assert_eq!(hidden, AttrSet::from_indices(&[1, 3]));
    }

    #[test]
    fn min_cost_unsatisfiable_gamma() {
        let m = m1();
        // Γ = 9 exceeds |Range| = 8: impossible even hiding everything.
        assert!(m.min_cost_safe_hidden(&[1; 5], 9).unwrap().is_none());
    }

    #[test]
    fn minimal_safe_sets_form_antichain_and_generate() {
        let m = m1();
        let minimal = m.minimal_safe_hidden_sets(4).unwrap();
        assert!(!minimal.is_empty());
        // Antichain.
        for (i, a) in minimal.iter().enumerate() {
            for (j, b) in minimal.iter().enumerate() {
                if i != j {
                    assert!(!a.is_subset(b), "{a:?} ⊆ {b:?}");
                }
            }
        }
        // Exactness: a hidden set is safe iff it contains some minimal set.
        for mask in 0u32..(1 << 5) {
            let hidden = mask_to_set(mask, 5);
            let safe = m.is_safe_hidden(&hidden, 4);
            let generated = minimal.iter().any(|s| s.is_subset(&hidden));
            assert_eq!(safe, generated, "mask {mask:#b}");
        }
    }

    #[test]
    fn monotonicity_proposition_1() {
        // Hiding more attributes never hurts (Proposition 1).
        let m = m1();
        for mask in 0u32..(1 << 5) {
            let hidden = mask_to_set(mask, 5);
            if m.is_safe_hidden(&hidden, 4) {
                for extra in 0..5u32 {
                    let mut bigger = hidden.clone();
                    bigger.insert(sv_relation::AttrId(extra));
                    assert!(m.is_safe_hidden(&bigger, 4));
                }
            }
        }
    }

    #[test]
    fn inputs_domain_and_range() {
        let m = m1();
        assert_eq!(m.input_tuples().len(), 4);
        assert_eq!(m.input_domain().len(), 4);
        assert_eq!(m.output_range().len(), 8);
    }

    #[test]
    fn rejects_bad_splits() {
        let m = m1();
        let r = m.relation();
        let err = StandaloneModule::new(
            r.clone(),
            AttrSet::from_indices(&[0, 1]),
            AttrSet::from_indices(&[1, 2, 3, 4]),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::BadAttributeSplit { .. }));
        let err = StandaloneModule::new(
            r.clone(),
            AttrSet::from_indices(&[0]),
            AttrSet::from_indices(&[2, 3, 4]),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::BadAttributeSplit { .. }));
        // a5 -> rest is not a function (a5 takes value 1 twice with
        // different rows) ⇒ NotAFunction.
        let err = StandaloneModule::new(
            r,
            AttrSet::from_indices(&[4]),
            AttrSet::from_indices(&[0, 1, 2, 3]),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::NotAFunction));
    }

    #[test]
    fn from_recovered_reports_every_documented_error() {
        let m = m1();
        let rows = m.relation().rows().to_vec();
        let recover = |rows: &[Tuple], inputs: &[u32], outputs: &[u32]| {
            StandaloneModule::from_recovered(
                m.schema().clone(),
                AttrSet::from_indices(inputs),
                AttrSet::from_indices(outputs),
                rows,
                7,
            )
        };
        // The valid store comes back in arrival order, at its epoch.
        let mut arrival = rows.clone();
        arrival.reverse();
        let ok = recover(&arrival, &[0, 1], &[2, 3, 4]).unwrap();
        assert_eq!((ok.epoch(), ok.relation()), (7, m.relation()));
        assert_eq!(ok.kernel().value(0, sv_relation::AttrId(0)), 1);
        // Overlapping, then non-covering splits.
        for (inputs, outputs) in [(&[0u32, 1][..], &[1u32, 2, 3, 4][..]), (&[0], &[2, 3, 4])] {
            let err = recover(&rows, inputs, outputs).unwrap_err();
            assert!(
                matches!(err, CoreError::BadAttributeSplit { .. }),
                "{err:?}"
            );
        }
        // a5 -> rest is not a function.
        let err = recover(&rows, &[4], &[0, 1, 2, 3]).unwrap_err();
        assert_eq!(err, CoreError::NotAFunction);
        // With I = ∅ all rows share the one (empty) input, so two
        // distinct rows are not a function, through `new` too; one is.
        let all = [0, 1, 2, 3, 4];
        assert_eq!(
            recover(&rows, &[], &all).unwrap_err(),
            CoreError::NotAFunction
        );
        let err = StandaloneModule::new(m.relation(), AttrSet::new(), AttrSet::full(5));
        assert_eq!(err.unwrap_err(), CoreError::NotAFunction);
        assert_eq!(recover(&rows[..1], &[], &all).unwrap().relation().len(), 1);
        // A repeated row is corruption, reported at its position.
        let mut repeated = rows.clone();
        repeated.insert(2, rows[0].clone());
        let err = recover(&repeated, &[0, 1], &[2, 3, 4]).unwrap_err();
        assert_eq!(
            err,
            CoreError::Relation(sv_relation::RelationError::DuplicateRow { row: 2 })
        );
    }

    #[test]
    fn mixed_radix_enumeration() {
        assert_eq!(enumerate_mixed_radix(&[2, 3]).len(), 6,);
        assert_eq!(enumerate_mixed_radix(&[]), vec![Vec::<u32>::new()]);
        let e = enumerate_mixed_radix(&[2, 2]);
        assert_eq!(e[0], vec![0, 0]);
        assert_eq!(e[3], vec![1, 1]);
    }
}
