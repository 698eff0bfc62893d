//! Retained **exhaustive layer-enumeration reference** for the border
//! sweep — the algorithm `minimal_sets_sweep` ran before it
//! enumerated only the uncovered border, kept (as its only copy) as a
//! budgeted serial baseline so `e20_frontier_scaling` can measure
//! uncovered-border enumeration against the code path it replaced.
//!
//! The antichain is the real bitwise-trie [`Frontier`] (coverage queries
//! are sublinear, exactly as in the replaced sweep); what this
//! reference pays is the **enumeration**: every `C(k, p)` mask of every
//! swept layer is materialized via Gosper's hack and coverage-tested,
//! even when the frontier already covers almost all of them.
//! [`LayerScanOutcome::enumerated`] counts those materialized masks —
//! the per-layer work the border walk makes proportional to the border
//! — and a run aborts with `completed = false` once the enumeration
//! budget is exhausted, which is how the k = 28 case is shown to be out
//! of reach for exhaustive layer enumeration while the border sweep
//! finishes under the same budget.

use sv_core::{Frontier, MemoSafetyOracle, SafetyOracle, StandaloneModule};
use sv_relation::AttrSet;

/// Deterministic counters of one budgeted layer-enumeration sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LayerScanOutcome {
    /// Whether the sweep ran to its layer cutoff within the budget.
    pub completed: bool,
    /// Antichain size at exit (final iff `completed`).
    pub sets: u64,
    /// Masks probed through the safety oracle (uncovered masks).
    pub visited: u64,
    /// Masks materialized and coverage-tested — the exhaustive
    /// enumeration cost the border walk avoids.
    pub enumerated: u64,
}

/// Serial minimal-sets sweep with exhaustive per-layer enumeration and
/// trie coverage queries, stopping as soon as `enum_budget` masks have
/// been materialized.
///
/// The replaced sweep, serially: masks are visited in (popcount, mask)
/// order via Gosper's hack, covered masks are skipped without probing,
/// and a fully-covered layer cuts off the remaining lattice
/// (Proposition 1).
#[must_use]
pub fn layer_scan_minimal_sets(
    module: &StandaloneModule,
    gamma: u128,
    enum_budget: u64,
) -> LayerScanOutcome {
    let k = module.k();
    let oracle = MemoSafetyOracle::new(module.clone());
    let mut frontier = Frontier::new(k);
    let mut visited = 0u64;
    let mut enumerated = 0u64;
    for layer in 0..=k {
        let mut layer_found: Vec<u64> = Vec::new();
        let mut uncovered = 0u64;
        let mut mask = if layer == 0 { 0 } else { (1u64 << layer) - 1 };
        let last = mask << (k - layer);
        loop {
            enumerated += 1;
            if enumerated > enum_budget {
                return LayerScanOutcome {
                    completed: false,
                    sets: frontier.len() as u64,
                    visited,
                    enumerated: enumerated - 1,
                };
            }
            if !frontier.covers(mask) {
                uncovered += 1;
                visited += 1;
                if oracle.is_safe_hidden(&AttrSet::from_word(mask), gamma) {
                    layer_found.push(mask);
                }
            }
            if mask == last {
                break;
            }
            // Gosper's hack: next mask of the same popcount.
            let c = mask & mask.wrapping_neg();
            let r = mask + c;
            mask = (((r ^ mask) >> 2) / c) | r;
        }
        for m in layer_found {
            frontier.insert(m);
        }
        if layer > 0 && uncovered == 0 && !frontier.is_empty() {
            break; // fully-covered layer: the rest of the lattice is generated
        }
    }
    LayerScanOutcome {
        completed: true,
        sets: frontier.len() as u64,
        visited,
        enumerated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_core::sweep::{minimal_sets_sweep, SweepConfig};
    use sv_core::StandaloneModule;
    use sv_workflow::{library, ModuleId};

    fn one_one_module(wires: usize) -> StandaloneModule {
        let wf = library::one_one_chain(1, wires);
        StandaloneModule::from_workflow_module(&wf, ModuleId(0), 1 << 21).unwrap()
    }

    #[test]
    fn layer_scan_agrees_with_the_border_sweep() {
        let m = one_one_module(4);
        for gamma in [2u128, 4, 16] {
            let out = layer_scan_minimal_sets(&m, gamma, u64::MAX);
            let (frontier, stats) = minimal_sets_sweep(
                &MemoSafetyOracle::new(m.clone()),
                gamma,
                &SweepConfig::serial(),
                None,
            )
            .unwrap();
            assert!(out.completed);
            assert_eq!(out.sets, frontier.len() as u64, "gamma={gamma}");
            // Both probe exactly the uncovered masks, so the probe
            // ledger matches even though the enumeration differs.
            assert_eq!(out.visited, stats.visited, "gamma={gamma}");
            assert_eq!(out.visited, stats.border_visited, "gamma={gamma}");
            assert!(
                out.enumerated >= stats.border_visited,
                "exhaustive enumeration can never be cheaper than the border"
            );
        }
    }

    #[test]
    fn budget_exhaustion_reports_incomplete() {
        let m = one_one_module(4);
        let out = layer_scan_minimal_sets(&m, 16, 64);
        assert!(!out.completed);
        assert_eq!(out.enumerated, 64, "stops exactly at the budget");
    }
}
