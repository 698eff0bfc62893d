//! Deriving a module's privacy **requirement lists** (§4.2).
//!
//! The workflow Secure-View problem consumes, per module, either
//!
//! * **set constraints** — an explicit list
//!   `L_i = ⟨(I_i^1, O_i^1), …⟩` of hidden input/output attribute pairs,
//!   each sufficient for Γ-standalone-privacy; we produce the complete
//!   antichain of ⊆-minimal safe hidden sets, or
//! * **cardinality constraints** — a list of pairs `(α, β)` meaning
//!   "hiding *any* `α` inputs and *any* `β` outputs suffices"
//!   (the succinct form motivated by Example 6: one-one and majority
//!   modules have exponentially many safe subsets but a two-pair
//!   cardinality list).
//!
//! The oracle-probing derivations take any [`SafetyOracle`]: pass the
//! [`crate::StandaloneModule`] itself for one-shot answers, or a shared
//! [`crate::safety::MemoSafetyOracle`] so later derivations hit its
//! memo. [`cardinality_constraints_from_frontier`] probes nothing.

use crate::error::CoreError;
use crate::frontier::Frontier;
use crate::safety::{self, SafetyOracle};
use sv_relation::{AttrId, AttrSet};

/// One set-constraint alternative: hide these inputs and outputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SetRequirement {
    /// Hidden input attributes `I_i^j` (module-local ids).
    pub hidden_inputs: AttrSet,
    /// Hidden output attributes `O_i^j` (module-local ids).
    pub hidden_outputs: AttrSet,
}

impl SetRequirement {
    /// The full hidden set `I_i^j ∪ O_i^j`.
    #[must_use]
    pub fn hidden(&self) -> AttrSet {
        self.hidden_inputs.union(&self.hidden_outputs)
    }
}

/// One cardinality-constraint alternative `(α, β)`: hiding any `α`
/// inputs and any `β` outputs suffices.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CardRequirement {
    /// Minimum hidden-input count `α`.
    pub alpha: usize,
    /// Minimum hidden-output count `β`.
    pub beta: usize,
}

/// Computes the module's set-constraints list: all ⊆-minimal safe hidden
/// sets, split into input and output parts (module-local ids).
///
/// `oracle` may be the module itself (every probe a kernel pass) or a
/// [`crate::safety::MemoSafetyOracle`] shared across derivations, whose
/// repeated probes hit the memo. This serial scan is a reference: the
/// property suites and the e9/e13 kernel-swap benches compare against
/// it, while workflow instances derive their lists through
/// [`crate::sweep::WorkflowSweeper`].
///
/// # Errors
/// Propagates enumeration limits from the standalone solver.
pub fn set_constraints(
    oracle: &dyn SafetyOracle,
    gamma: u128,
) -> Result<Vec<SetRequirement>, CoreError> {
    let minimal = safety::minimal_safe_hidden_sets(oracle, gamma)?;
    let m = oracle.module();
    Ok(minimal
        .into_iter()
        .map(|h| SetRequirement {
            hidden_inputs: h.intersection(m.inputs()),
            hidden_outputs: h.intersection(m.outputs()),
        })
        .collect())
}

/// Whether hiding **any** `α` inputs and `β` outputs guarantees
/// Γ-standalone-privacy (checked over all
/// `C(|I|, α) · C(|O|, β)` subset pairs).
#[must_use]
pub fn cardinality_valid(
    oracle: &dyn SafetyOracle,
    alpha: usize,
    beta: usize,
    gamma: u128,
) -> bool {
    let (ins, outs): (Vec<AttrId>, Vec<AttrId>) = {
        let m = oracle.module();
        (m.inputs().iter().collect(), m.outputs().iter().collect())
    };
    if alpha > ins.len() || beta > outs.len() {
        return false;
    }
    let in_choices = combinations(&ins, alpha);
    let out_choices = combinations(&outs, beta);
    for ic in &in_choices {
        for oc in &out_choices {
            let mut hidden = AttrSet::from_iter(ic.iter().copied());
            hidden.union_with(&AttrSet::from_iter(oc.iter().copied()));
            if !oracle.is_safe_hidden(&hidden, gamma) {
                return false;
            }
        }
    }
    true
}

/// Computes the module's cardinality-constraints list: the Pareto
/// frontier of valid `(α, β)` pairs (validity is monotone in both
/// coordinates, by Proposition 1).
///
/// Returns an empty list iff even `(|I|, |O|)` (hide everything) fails.
/// When `oracle` is a memo that already served [`set_constraints`]
/// (which sweeps the full subset lattice), every probe here is answered
/// from the cache. Like [`set_constraints`], a reference for tests and
/// benches; workflow instances recover this list from the swept
/// frontier ([`cardinality_constraints_from_frontier`]) with zero
/// probes.
pub fn cardinality_constraints(oracle: &dyn SafetyOracle, gamma: u128) -> Vec<CardRequirement> {
    let ni = oracle.module().inputs().len();
    let no = oracle.module().outputs().len();
    pareto_frontier(ni, no, |alpha, beta| {
        cardinality_valid(oracle, alpha, beta, gamma)
    })
}

/// [`cardinality_constraints`] recomputed from a swept [`Frontier`] of
/// ⊆-minimal safe hidden sets (module-local ids), e.g. the memoized
/// tries of [`crate::sweep::WorkflowSweeper::minimal_frontiers_all`] —
/// the recovery every `sv-optimize` cardinality instance uses. The
/// antichain generates **all** safe hidden sets by superset closure
/// (see [`crate::safety`]'s module docs), so `(α, β)` is valid iff
/// **no** `α`-input/`β`-output choice escapes the frontier's coverage:
/// validity is a counterexample search — each candidate a sublinear
/// [`Frontier::covers`] query, abandoned on the first escape, with no
/// combination lists materialized. **Zero oracle probes.**
///
/// # Panics
/// Panics if an input/output attribute index is at or above the
/// frontier's width.
#[must_use]
pub fn cardinality_constraints_from_frontier(
    frontier: &Frontier,
    inputs: &AttrSet,
    outputs: &AttrSet,
) -> Vec<CardRequirement> {
    let ins: Vec<u32> = inputs.iter().map(|a| a.0).collect();
    let outs: Vec<u32> = outputs.iter().map(|a| a.0).collect();
    pareto_frontier(ins.len(), outs.len(), |alpha, beta| {
        !any_choice(&ins, alpha, 0, 0, &mut |in_word| {
            any_choice(&outs, beta, 0, in_word, &mut |word| !frontier.covers(word))
        })
    })
}

/// Whether any `need`-element choice from `items[start..]`, OR-ed onto
/// `word`, satisfies `f` — the early-exiting combination search behind
/// [`cardinality_constraints_from_frontier`].
fn any_choice(
    items: &[u32],
    need: usize,
    start: usize,
    word: u64,
    f: &mut impl FnMut(u64) -> bool,
) -> bool {
    if need == 0 {
        return f(word);
    }
    if items.len() - start < need {
        return false; // not enough items left to complete the choice
    }
    for i in start..=(items.len() - need) {
        if any_choice(items, need - 1, i + 1, word | 1u64 << items[i], f) {
            return true;
        }
    }
    false
}

/// Pareto-frontier construction shared by the oracle-probing and
/// frontier-coverage derivations: for each α ascending, the least
/// valid β, searched only below the last β found. Validity is monotone
/// in both coordinates (Proposition 1), so once `(α, β)` is valid every
/// `(α′, β)` with `α′ > α` is implied and never asked; a β found below
/// that bound is a new Pareto point.
fn pareto_frontier(
    ni: usize,
    no: usize,
    mut valid: impl FnMut(usize, usize) -> bool,
) -> Vec<CardRequirement> {
    let mut frontier: Vec<CardRequirement> = Vec::new();
    let mut beta_end = no + 1; // exclusive: only a smaller β is new
    for alpha in 0..=ni {
        if let Some(beta) = (0..beta_end).find(|&beta| valid(alpha, beta)) {
            frontier.push(CardRequirement { alpha, beta });
            if beta == 0 {
                break; // (α, 0) valid: larger α adds nothing.
            }
            beta_end = beta;
        }
    }
    frontier
}

/// All `size`-element combinations of `items` (small-k utility).
fn combinations(items: &[AttrId], size: usize) -> Vec<Vec<AttrId>> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(size);
    fn rec(
        items: &[AttrId],
        size: usize,
        start: usize,
        cur: &mut Vec<AttrId>,
        out: &mut Vec<Vec<AttrId>>,
    ) {
        if cur.len() == size {
            out.push(cur.clone());
            return;
        }
        for i in start..items.len() {
            cur.push(items[i]);
            rec(items, size, i + 1, cur, out);
            cur.pop();
        }
    }
    rec(items, size, 0, &mut cur, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StandaloneModule;
    use sv_workflow::{library, ModuleId, Visibility, WorkflowBuilder};

    fn m1() -> StandaloneModule {
        StandaloneModule::from_workflow_module(&library::fig1_workflow(), ModuleId(0), 1 << 20)
            .unwrap()
    }

    /// Majority module over 2k boolean inputs as a standalone module.
    fn majority(k: usize) -> StandaloneModule {
        let mut b = WorkflowBuilder::new();
        let ins = b.bool_attrs("x", 2 * k);
        let out = b.attr("y", sv_relation::Domain::boolean());
        b.module(
            "maj",
            &ins,
            &[out],
            Visibility::Private,
            library::majority_fn(),
        );
        let w = b.build().unwrap();
        StandaloneModule::from_workflow_module(&w, ModuleId(0), 1 << 20).unwrap()
    }

    /// One-one module (bitwise negation) over k boolean wires.
    fn one_one(k: usize) -> StandaloneModule {
        let w = library::one_one_chain(1, k);
        StandaloneModule::from_workflow_module(&w, ModuleId(0), 1 << 20).unwrap()
    }

    #[test]
    fn m1_set_constraints_cover_example_3() {
        let reqs = set_constraints(&m1(), 4).unwrap();
        // Hiding {a4, a5} (local output ids 3, 4) must be listed.
        assert!(reqs.iter().any(|r| {
            r.hidden_inputs.is_empty() && r.hidden_outputs == AttrSet::from_indices(&[3, 4])
        }));
        // No requirement consists of inputs only (Example 3: inputs-only
        // hiding is not safe for Γ = 4).
        assert!(reqs.iter().all(|r| !r.hidden_outputs.is_empty()
            || !r.hidden_inputs.is_empty() && !r.hidden().is_empty()));
        let inputs_only = reqs
            .iter()
            .any(|r| r.hidden_outputs.is_empty() && !r.hidden_inputs.is_empty());
        assert!(!inputs_only);
    }

    #[test]
    fn m1_cardinality_frontier() {
        // Derived in Example 3's terms: (α,β) = (0,2) and (1,1) are the
        // minimal valid pairs for Γ = 4; (2,0) is invalid.
        let f = cardinality_constraints(&m1(), 4);
        assert_eq!(
            f,
            vec![
                CardRequirement { alpha: 0, beta: 2 },
                CardRequirement { alpha: 1, beta: 1 },
            ]
        );
        assert!(!cardinality_valid(&m1(), 2, 0, 4));
        assert!(cardinality_valid(&m1(), 1, 1, 4));
    }

    #[test]
    fn majority_example_6() {
        // Example 6: majority on 2k inputs; hiding k+1 inputs or the
        // output gives 2-privacy.
        let m = majority(2); // 4 inputs
        let f = cardinality_constraints(&m, 2);
        assert_eq!(
            f,
            vec![
                CardRequirement { alpha: 0, beta: 1 },
                CardRequirement { alpha: 3, beta: 0 },
            ]
        );
        assert!(!cardinality_valid(&m, 2, 0, 2));
    }

    #[test]
    fn one_one_example_6() {
        // Example 6: a one-one function with k in/out bits; hiding any
        // k inputs or any k outputs gives 2^k-privacy.
        let k = 3;
        let m = one_one(k);
        let gamma = 1 << k;
        assert!(cardinality_valid(&m, k, 0, gamma));
        assert!(cardinality_valid(&m, 0, k, gamma));
        assert!(!cardinality_valid(&m, k - 1, 0, gamma));
        let f = cardinality_constraints(&m, gamma);
        assert_eq!(
            f,
            vec![
                CardRequirement { alpha: 0, beta: k },
                CardRequirement { alpha: k, beta: 0 },
            ]
        );
    }

    #[test]
    fn one_one_mixed_hiding() {
        // For one-one modules, Γ = 2^j needs j hidden wires *on one
        // side*; j split across sides is weaker (hiding 1 input and 1
        // output of a 2-bit identity gives only Γ = 2, not 4).
        let m = one_one(2);
        assert!(cardinality_valid(&m, 1, 1, 2));
        assert!(!cardinality_valid(&m, 1, 1, 4));
    }

    #[test]
    fn frontier_is_antichain_and_sorted() {
        for m in [m1(), majority(2), one_one(2)] {
            for gamma in [2u128, 4] {
                let f = cardinality_constraints(&m, gamma);
                for w in f.windows(2) {
                    assert!(w[0].alpha < w[1].alpha);
                    assert!(w[0].beta > w[1].beta);
                }
            }
        }
    }

    #[test]
    fn unsatisfiable_gamma_gives_empty_frontier() {
        let m = m1(); // |Range| = 8
        assert!(cardinality_constraints(&m, 9).is_empty());
    }

    #[test]
    fn trie_frontier_recovery_matches_and_probes_nothing() {
        for m in [m1(), majority(2), one_one(2), one_one(3)] {
            for gamma in [2u128, 4, 8] {
                let (frontier, _) = crate::sweep::minimal_sets_sweep(
                    &crate::MemoSafetyOracle::new(m.clone()),
                    gamma,
                    &crate::SweepConfig::serial(),
                    None,
                )
                .unwrap();
                let via_frontier =
                    cardinality_constraints_from_frontier(&frontier, m.inputs(), m.outputs());
                assert_eq!(
                    via_frontier,
                    cardinality_constraints(&m, gamma),
                    "gamma={gamma}"
                );
            }
        }
        // The empty frontier (unsatisfiable Γ) yields the empty list.
        let f = Frontier::new(5);
        assert!(
            cardinality_constraints_from_frontier(&f, m1().inputs(), m1().outputs()).is_empty()
        );
    }

    #[test]
    fn pareto_frontier_never_reasks_an_implied_point() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xCA4D);
        for _ in 0..500 {
            let (ni, no) = (rng.gen_range(0..7usize), rng.gen_range(0..7usize));
            // A random monotone predicate: (α, β) is valid iff β reaches
            // a threshold that never rises with α; a threshold above
            // `no` leaves that α with no valid β.
            let mut need = Vec::with_capacity(ni + 1);
            let mut t = rng.gen_range(0..=no + 2);
            for _ in 0..=ni {
                need.push(t);
                t = t.saturating_sub(rng.gen_range(0..=2usize));
            }
            let truth = |a: usize, b: usize| b >= need[a];
            let brute: Vec<CardRequirement> = (0..=ni)
                .flat_map(|alpha| (0..=no).map(move |beta| CardRequirement { alpha, beta }))
                .filter(|p| truth(p.alpha, p.beta))
                .filter(|p| {
                    !(0..=p.alpha)
                        .any(|a| (0..=p.beta).any(|b| (a, b) != (p.alpha, p.beta) && truth(a, b)))
                })
                .collect();
            // Every point asked, in order: none twice, and none whose β
            // is at or above the last β found (already implied valid).
            let mut asked: Vec<(usize, usize)> = Vec::new();
            let mut last_beta: Option<usize> = None;
            let got = pareto_frontier(ni, no, |alpha, beta| {
                assert!(
                    !asked.contains(&(alpha, beta)),
                    "asked ({alpha}, {beta}) twice"
                );
                assert!(
                    last_beta.is_none_or(|l| beta < l),
                    "asked ({alpha}, {beta}) at or above the last β found, {last_beta:?}"
                );
                asked.push((alpha, beta));
                let v = truth(alpha, beta);
                if v {
                    last_beta = Some(beta);
                }
                v
            });
            assert_eq!(got, brute, "need={need:?} ni={ni} no={no}");
        }
    }

    #[test]
    fn combinations_counts() {
        let items: Vec<AttrId> = (0..4).map(AttrId).collect();
        assert_eq!(combinations(&items, 2).len(), 6);
        assert_eq!(combinations(&items, 0).len(), 1);
        assert_eq!(combinations(&items, 4).len(), 1);
    }
}
