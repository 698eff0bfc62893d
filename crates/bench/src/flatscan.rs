//! Retained **flat-scan reference** for the minimal-sets sweep — the
//! pre-trie algorithm `minimal_sets_sweep` shipped before PR 6, kept as
//! a budgeted serial baseline so `e20_frontier_scaling` can measure the
//! trie frontier against the exact code path it replaced.
//!
//! The antichain is a plain sorted `Vec<u64>` and every enumerated mask
//! pays a linear `members.iter().any(|&m| m & mask == m)` coverage
//! scan. [`FlatScanOutcome::scans`] counts the **member-visits** of
//! those scans (the inner-loop work the trie makes sublinear); a run
//! aborts with `completed = false` once the visit budget is exhausted,
//! which is how the k = 24 case is shown to be out of reach for the
//! flat scan while the trie sweep finishes.

use sv_core::{MemoSafetyOracle, SafetyOracle, StandaloneModule};
use sv_relation::AttrSet;

/// Deterministic counters of one budgeted flat-scan sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlatScanOutcome {
    /// Whether the sweep ran to its layer cutoff within the budget.
    pub completed: bool,
    /// Antichain size at exit (final iff `completed`).
    pub sets: u64,
    /// Masks probed through the safety oracle (uncovered masks).
    pub visited: u64,
    /// Coverage-scan member-visits — the flat scan's inner-loop cost.
    pub scans: u64,
}

/// Serial minimal-sets sweep with a linear antichain scan, stopping as
/// soon as `scan_budget` coverage member-visits are spent.
///
/// Mirrors the layered enumeration of `sv_core::sweep`: masks are
/// visited in (popcount, mask) order via Gosper's hack, covered masks
/// are skipped without probing, and a fully-covered layer cuts off the
/// remaining lattice (Proposition 1).
#[must_use]
pub fn flat_scan_minimal_sets(
    module: &StandaloneModule,
    gamma: u128,
    scan_budget: u64,
) -> FlatScanOutcome {
    let k = module.k();
    let oracle = MemoSafetyOracle::new(module.clone());
    let mut members: Vec<u64> = Vec::new();
    let mut visited = 0u64;
    let mut scans = 0u64;
    for layer in 0..=k {
        let mut layer_found: Vec<u64> = Vec::new();
        let mut uncovered = 0u64;
        let mut mask = if layer == 0 { 0 } else { (1u64 << layer) - 1 };
        let last = mask << (k - layer);
        loop {
            // Linear coverage test, paying one visit per member walked.
            let mut covered = false;
            for &m in &members {
                scans += 1;
                if m & mask == m {
                    covered = true;
                    break;
                }
            }
            if scans >= scan_budget {
                return FlatScanOutcome {
                    completed: false,
                    sets: members.len() as u64,
                    visited,
                    scans,
                };
            }
            if !covered {
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
        members.extend(layer_found);
        if layer > 0 && uncovered == 0 && !members.is_empty() {
            break; // fully-covered layer: the rest of the lattice is generated
        }
    }
    FlatScanOutcome {
        completed: true,
        sets: members.len() as u64,
        visited,
        scans,
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
    fn flat_scan_agrees_with_the_trie_sweep() {
        let m = one_one_module(4);
        for gamma in [2u128, 4, 16] {
            let out = flat_scan_minimal_sets(&m, gamma, u64::MAX);
            let (sets, stats) = minimal_sets_sweep(
                &MemoSafetyOracle::new(m.clone()),
                gamma,
                &SweepConfig::serial(),
                None,
            )
            .unwrap();
            assert!(out.completed);
            assert_eq!(out.sets, sets.len() as u64, "gamma={gamma}");
            assert_eq!(out.visited, stats.visited, "gamma={gamma}");
        }
    }

    #[test]
    fn budget_exhaustion_reports_incomplete() {
        let m = one_one_module(4);
        let out = flat_scan_minimal_sets(&m, 16, 64);
        assert!(!out.completed);
        assert!(out.scans >= 64);
    }
}
