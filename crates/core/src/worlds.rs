//! Brute-force possible-world enumeration for standalone modules
//! (Definition 1 of the paper), used as a semantic ground truth.
//!
//! A relation `R'` over the module schema satisfies the FD `I -> O` iff
//! it is (the graph of) a **partial function** `Dom ⇀ Range`. The
//! possible worlds `Worlds(R, V)` are exactly the partial functions whose
//! visible projection equals `π_V(R)` as a set. Enumerating all
//! `(|Range| + 1)^{|Dom|}` partial functions is doubly exponential in the
//! attribute count — which is precisely why the paper proves lower
//! bounds (Theorems 1–3) and why the fast checker
//! ([`StandaloneModule::is_safe`]) matters. This module exists to
//! cross-validate that checker on tiny instances (property tests) and to
//! reproduce the paper's world counts (Example 2: 64 worlds for
//! `(R_1, {a1,a3,a5})`).

use crate::error::CoreError;
use crate::standalone::StandaloneModule;
use std::collections::BTreeSet;
use sv_relation::{AttrSet, Relation, Tuple, Value};

/// Counts `(|Range|+1)^{|Dom|}` with saturation, for budget checks.
fn candidate_count(dom: usize, range: usize) -> u128 {
    let base = (range as u128).saturating_add(1);
    let mut acc: u128 = 1;
    for _ in 0..dom {
        acc = acc.saturating_mul(base);
    }
    acc
}

/// Iterator state over all partial functions `Dom ⇀ Range`, encoded as
/// one digit per domain point: `0` = undefined, `v+1` = maps to
/// `Range[v]`.
struct PartialFnIter {
    digits: Vec<usize>,
    base: usize,
    done: bool,
}

impl PartialFnIter {
    fn new(dom: usize, range: usize) -> Self {
        Self {
            digits: vec![0; dom],
            base: range + 1,
            done: false,
        }
    }
}

impl Iterator for PartialFnIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        if self.done {
            return None;
        }
        let out = self.digits.clone();
        let mut carry = true;
        for d in self.digits.iter_mut() {
            *d += 1;
            if *d < self.base {
                carry = false;
                break;
            }
            *d = 0;
        }
        if carry {
            self.done = true;
        }
        Some(out)
    }
}

/// Builds the relation encoded by a digit vector (see [`PartialFnIter`]).
fn materialize(
    m: &StandaloneModule,
    dom: &[Vec<Value>],
    range: &[Vec<Value>],
    digits: &[usize],
) -> Relation {
    let mut rows = Vec::new();
    let in_order: Vec<_> = m.inputs().iter().collect();
    let out_order: Vec<_> = m.outputs().iter().collect();
    for (x, &d) in dom.iter().zip(digits.iter()) {
        if d == 0 {
            continue;
        }
        let y = &range[d - 1];
        let mut vals = vec![0u32; m.k()];
        for (pos, &a) in in_order.iter().enumerate() {
            vals[a.index()] = x[pos];
        }
        for (pos, &a) in out_order.iter().enumerate() {
            vals[a.index()] = y[pos];
        }
        rows.push(Tuple::new(vals));
    }
    Relation::from_rows(m.schema().clone(), rows).expect("materialized rows are schema-valid")
}

/// Enumerates `Worlds(R, V)` exhaustively.
///
/// # Errors
/// [`CoreError::BudgetExceeded`] if more than `budget` candidate partial
/// functions would need to be scanned.
pub fn enumerate_worlds(
    m: &StandaloneModule,
    visible: &AttrSet,
    budget: u128,
) -> Result<Vec<Relation>, CoreError> {
    let dom = m.input_domain();
    let range = m.output_range();
    let cands = candidate_count(dom.len(), range.len());
    if cands > budget {
        return Err(CoreError::BudgetExceeded {
            what: "standalone possible-world enumeration",
            required: cands,
            budget,
        });
    }
    let target: BTreeSet<Tuple> = m
        .relation()
        .rows()
        .iter()
        .map(|t| t.project(visible))
        .collect();
    let mut worlds = Vec::new();
    for digits in PartialFnIter::new(dom.len(), range.len()) {
        let cand = materialize(m, &dom, &range, &digits);
        let proj: BTreeSet<Tuple> = cand.rows().iter().map(|t| t.project(visible)).collect();
        if proj == target {
            worlds.push(cand);
        }
    }
    Ok(worlds)
}

/// Brute-force `OUT_{x,m}` for **all** inputs `x ∈ π_I(R)` in a single
/// world-enumeration pass (Definition 2): `OUT_{x,m}` is the set of
/// outputs `y` such that some possible world contains a row with input
/// `x` and output `y`.
///
/// # Errors
/// Propagates the enumeration budget.
pub fn out_sets_bruteforce(
    m: &StandaloneModule,
    visible: &AttrSet,
    budget: u128,
) -> Result<std::collections::BTreeMap<Tuple, BTreeSet<Tuple>>, CoreError> {
    let worlds = enumerate_worlds(m, visible, budget)?;
    let mut map: std::collections::BTreeMap<Tuple, BTreeSet<Tuple>> = m
        .input_tuples()
        .into_iter()
        .map(|x| (x, BTreeSet::new()))
        .collect();
    for w in &worlds {
        for t in w.rows() {
            let x = t.project(m.inputs());
            if let Some(set) = map.get_mut(&x) {
                set.insert(t.project(m.outputs()));
            }
        }
    }
    Ok(map)
}

/// Brute-force `OUT_{x,m}` for a single input (see
/// [`out_sets_bruteforce`]).
///
/// # Errors
/// Propagates the enumeration budget.
pub fn out_set_bruteforce(
    m: &StandaloneModule,
    visible: &AttrSet,
    x: &Tuple,
    budget: u128,
) -> Result<BTreeSet<Tuple>, CoreError> {
    Ok(out_sets_bruteforce(m, visible, budget)?
        .remove(x)
        .unwrap_or_default())
}

/// Brute-force privacy level: `min_{x ∈ π_I(R)} |OUT_{x,m}|`. A visible
/// set is Γ-safe iff this is at least Γ; by Lemma 4 it equals
/// [`StandaloneModule::privacy_level`].
///
/// # Errors
/// Propagates the enumeration budget.
pub fn min_out_bruteforce(
    m: &StandaloneModule,
    visible: &AttrSet,
    budget: u128,
) -> Result<u128, CoreError> {
    let sets = out_sets_bruteforce(m, visible, budget)?;
    Ok(sets
        .values()
        .map(|s| s.len() as u128)
        .min()
        .unwrap_or(u128::MAX))
}

/// Brute-force Γ-standalone-privacy (Definition 2): `|OUT_{x,m}| ≥ Γ`
/// for every `x ∈ π_I(R)`.
///
/// # Errors
/// Propagates the enumeration budget.
pub fn is_safe_bruteforce(
    m: &StandaloneModule,
    visible: &AttrSet,
    gamma: u128,
    budget: u128,
) -> Result<bool, CoreError> {
    Ok(min_out_bruteforce(m, visible, budget)? >= gamma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_workflow::{library::fig1_workflow, ModuleId};

    fn m1() -> StandaloneModule {
        StandaloneModule::from_workflow_module(&fig1_workflow(), ModuleId(0), 1 << 20).unwrap()
    }

    #[test]
    fn example2_world_count_is_64() {
        // Example 2: "Overall there are sixty four relations in
        // Worlds(R1, V)" for V = {a1, a3, a5}.
        let m = m1();
        let v = AttrSet::from_indices(&[0, 2, 4]);
        let worlds = enumerate_worlds(&m, &v, 1 << 30).unwrap();
        assert_eq!(worlds.len(), 64);
        // The true relation is among them (R1 ∈ Worlds(R1,V)).
        assert!(worlds.contains(&m.relation()));
        // Every world satisfies the FD.
        for w in &worlds {
            assert!(w.satisfies(&m.fd()));
        }
    }

    #[test]
    fn figure2_sample_worlds_are_found() {
        // Figure 2 lists four sample members of Worlds(R1, V); check two.
        let m = m1();
        let v = AttrSet::from_indices(&[0, 2, 4]);
        let worlds = enumerate_worlds(&m, &v, 1 << 30).unwrap();
        let r11 = Relation::from_values(
            m.schema().clone(),
            vec![
                vec![0, 0, 0, 0, 1],
                vec![0, 1, 1, 0, 0],
                vec![1, 0, 1, 0, 0],
                vec![1, 1, 1, 0, 1],
            ],
        )
        .unwrap();
        let r41 = Relation::from_values(
            m.schema().clone(),
            vec![
                vec![0, 0, 1, 1, 0],
                vec![0, 1, 0, 1, 1],
                vec![1, 0, 1, 0, 0],
                vec![1, 1, 1, 0, 1],
            ],
        )
        .unwrap();
        assert!(worlds.contains(&r11), "R1^1 of Figure 2 missing");
        assert!(worlds.contains(&r41), "R1^4 of Figure 2 missing");
    }

    #[test]
    fn example3_out_set_for_00() {
        // Example 3: for x = (0,0) and V = {a1,a3,a5},
        // OUT = {(0,0,1),(0,1,1),(1,0,0),(1,1,0)}.
        let m = m1();
        let v = AttrSet::from_indices(&[0, 2, 4]);
        let out = out_set_bruteforce(&m, &v, &Tuple::new(vec![0, 0]), 1 << 30).unwrap();
        let expect: BTreeSet<Tuple> = [vec![0, 0, 1], vec![0, 1, 1], vec![1, 0, 0], vec![1, 1, 0]]
            .into_iter()
            .map(Tuple::new)
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn bruteforce_privacy_level_equals_fast_checker_on_m1() {
        // Strong form of the Lemma-4 equivalence: for every visible
        // subset, min_x |OUT_x| computed over all possible worlds equals
        // the grouped-counting privacy level.
        let m = m1();
        for mask in 0u32..(1 << 5) {
            let visible = AttrSet::from_iter(
                (0..5)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| sv_relation::AttrId(i as u32)),
            );
            let slow = min_out_bruteforce(&m, &visible, 1 << 30).unwrap();
            let fast = m.privacy_level(&visible);
            assert_eq!(fast, slow, "visible={visible:?}");
            // Level equality implies is_safe agreement for every Γ.
        }
    }

    #[test]
    fn is_safe_bruteforce_threshold() {
        let m = m1();
        let v = AttrSet::from_indices(&[0, 2, 4]);
        assert!(is_safe_bruteforce(&m, &v, 4, 1 << 30).unwrap());
        assert!(!is_safe_bruteforce(&m, &v, 5, 1 << 30).unwrap());
    }

    #[test]
    fn budget_is_enforced() {
        let m = m1();
        assert!(matches!(
            enumerate_worlds(&m, &AttrSet::new(), 10),
            Err(CoreError::BudgetExceeded { .. })
        ));
    }
}
