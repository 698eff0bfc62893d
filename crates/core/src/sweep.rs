//! Parallel **work-stealing sweep** over the `2^k` hidden-set lattice.
//!
//! The standalone Secure-View problem is an exponential search
//! (Theorem 3 shows `2^Ω(k)` oracle calls are unavoidable), so the only
//! levers are (a) pruning the lattice and (b) sharding it across
//! threads. Both sweeps ([`min_cost_sweep`], [`minimal_sets_sweep`])
//! run one enumerator that does both, configured by one
//! [`SweepConfig`] (the worker count):
//!
//! * **Uncovered-border enumeration.** Proposition 1 makes safety
//!   monotone in the hidden set, so the ⊆-minimal safe sets form an
//!   antichain generating all safe sets by superset closure, and the
//!   up-set of every known safe set can be skipped unprobed. The sweep
//!   walks the lattice popcount layer by popcount layer (a barrier per
//!   layer keeps it equivalent to the serial ascending-popcount scan),
//!   keeps the safe sets found so far in a bitwise-trie [`Frontier`]
//!   ([`crate::frontier`]), and produces each layer with one serial
//!   [`Frontier::uncovered_in_layer`] walk that emits only the masks
//!   *not* covered — covered regions are skipped in path-compressed
//!   jumps and never materialized. Once a whole layer is covered,
//!   every higher layer is covered too and the sweep stops. Enumeration
//!   cost scales with the border (`SweepStats::border_visited`, exact at
//!   any thread count) instead of the lattice, which is what takes the
//!   sweeps to `k = 28`.
//! * **Work stealing.** Each layer's uncovered runs are cut into chunks
//!   of at most 256 masks (by combinatorial rank) and claimed off a
//!   shared atomic cursor; fast workers drain more chunks, so load
//!   balances regardless of where the expensive probes cluster. All
//!   workers probe the **caller's** concurrent [`MemoSafetyOracle`]
//!   (its level cache is sharded and `&self`-probed, see
//!   [`crate::safety`]); no sweep builds an oracle of its own. A mask
//!   probed by one worker is a warm hit for every other, and because
//!   a cached privacy level answers every Γ (Lemma 4), it is a warm hit
//!   for every later sweep of the same oracle too. After a Γ′ antichain
//!   sweep, a sweep at any Γ ≤ Γ′ visits only masks whose levels are
//!   cached: a Γ-unsafe set is Γ′-unsafe, so the Γ border (the masks
//!   whose strict subsets are all unsafe) lies inside the Γ′ border.
//!   A min-cost sweep visits only border masks too, unless a zero-cost
//!   attribute lets a racing bound update admit a mask above a safe set
//!   the bound pruned. A miss runs its kernel pass in the worker
//!   thread's own pair-pass buffer, so chunks never contend on probe
//!   buffers. Masks stay raw `u64` words inside the sweep and cross
//!   into the oracle as [`AttrSet::from_word`], which never allocates.
//! * **Branch-and-bound** ([`min_cost_sweep`]). A shared `AtomicU64`
//!   best-cost bound lets every worker skip masks that cannot improve
//!   the optimum; a second atomic carries the best mask so tie-cost
//!   masks resolve deterministically (lexicographically smallest safe
//!   mask of minimum cost — exactly the serial reference answer,
//!   regardless of thread count).
//!
//! Every entry point reports [`SweepStats`] (visited vs. pruned masks)
//! for observability; `visited + pruned == lattice` always holds.
//!
//! [`WorkflowSweeper`] lifts the per-module sweeps to workflows, and it
//! is the one path every workflow-level Secure-View answer is derived
//! through. It sweeps every private module through its oracle in one
//! [`WorkflowOracles`] store — the oracles its probes answer from, fed
//! only through the store's [`IngestBatch`](crate::safety::IngestBatch)
//! path, so sweeps and serving probes share one level memo per module —
//! hoists global→local cost slices out of the per-call loop
//! ([`WorkflowSweeper::localize_costs`]), and backs the composition
//! entry points ([`crate::compose::union_of_standalone_optima`],
//! [`crate::public::greedy_general_solution`]) and every `sv-optimize`
//! instance derivation (`from_workflow*` build a serial sweeper and
//! call `from_sweeper`).
//!
//! * **Cross-module work stealing** ([`sweep_workflow_parallel`]).
//!   Each private module's `2^k` lattice is independent, so
//!   workflow-level calls ([`WorkflowSweeper::union_of_optima`],
//!   [`WorkflowSweeper::minimal_frontiers_all`] and the `from_sweeper`
//!   derivations riding it) steal *modules* off a shared cursor and
//!   nest the intra-module chunk pool under the same [`SweepConfig`]
//!   thread budget — per-module results stay deterministic, counters
//!   merge into one [`SweepStats`].
//!
//! The serial enumerations in [`crate::safety`] remain the executable
//! specification; the property suites assert sweep ≡ serial ≡
//! brute-force worlds at 1/2/4/8 threads.

use crate::compose::ModuleLens;
use crate::error::CoreError;
use crate::frontier::{binom, BorderRun, Frontier};
use crate::safety::{MemoSafetyOracle, OracleGuard, SafetyOracle, WorkflowOracles};
use crate::standalone::{StandaloneModule, MAX_DENSE_ATTRS};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use sv_relation::AttrSet;
use sv_workflow::{ModuleId, Workflow};

/// How a lattice sweep runs: its worker count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SweepConfig {
    /// Number of worker threads (clamped to `1..=64`). `1` runs the
    /// sweep on the calling thread — same code path, no spawns.
    pub threads: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self::serial()
    }
}

impl SweepConfig {
    /// Single-threaded — the default, and the configuration the serial
    /// entry points use.
    #[must_use]
    pub fn serial() -> Self {
        Self::parallel(1)
    }

    /// A sweep over `threads` workers.
    #[must_use]
    pub fn parallel(threads: usize) -> Self {
        Self { threads }
    }

    /// A sweep over all available cores
    /// (`std::thread::available_parallelism`).
    #[must_use]
    pub fn auto() -> Self {
        Self::parallel(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    fn worker_count(&self) -> usize {
        self.threads.clamp(1, 64)
    }
}

/// Visited/pruned counters of one sweep (or the merged counters of the
/// per-module sweeps of a workflow-level call).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Total masks in the swept lattice(s): `Σ 2^k`.
    pub lattice: u64,
    /// Masks actually probed through an oracle.
    pub visited: u64,
    /// Masks skipped — covered by the frontier (never enumerated), cut
    /// by the branch-and-bound cost bound, or cut off with a whole
    /// layer. `visited + pruned == lattice`.
    pub pruned: u64,
    /// Live trie nodes of the final frontier ([`Frontier::node_count`])
    /// — deterministic: the trie shape is canonical in the member set.
    /// For [`min_cost_sweep`] this is the discovered safe-mask
    /// antichain.
    pub frontier_nodes: u64,
    /// Masks emitted by the uncovered-border walks
    /// ([`Frontier::uncovered_in_layer`]) — the sweep's entire
    /// enumeration cost. Each layer's walk runs against the
    /// barrier-merged frontier snapshot, so the count is exact at any
    /// thread count.
    pub border_visited: u64,
    /// Covered subtrees the border walks skipped whole (one
    /// path-compressed descent each, in place of up to `C(k, p)`
    /// per-mask coverage queries). Exact at any thread count, like
    /// `border_visited`.
    pub border_jumps: u64,
    /// Worker threads the sweep ran with.
    pub threads: usize,
}

impl SweepStats {
    /// Folds another sweep's counters into this one (workflow-level
    /// aggregation; keeps the maximum thread count).
    pub fn merge(&mut self, other: &SweepStats) {
        self.lattice += other.lattice;
        self.visited += other.visited;
        self.pruned += other.pruned;
        self.frontier_nodes += other.frontier_nodes;
        self.border_visited += other.border_visited;
        self.border_jumps += other.border_jumps;
        self.threads = self.threads.max(other.threads);
    }

    /// Fraction of the lattice that was probed (`1.0` on an empty
    /// lattice, which cannot occur for `k ≥ 0`).
    #[must_use]
    pub fn visited_fraction(&self) -> f64 {
        if self.lattice == 0 {
            1.0
        } else {
            self.visited as f64 / self.lattice as f64
        }
    }
}

fn check_k(k: usize) -> Result<(), CoreError> {
    if k > MAX_DENSE_ATTRS {
        return Err(CoreError::TooManyAttributes {
            k,
            max: MAX_DENSE_ATTRS,
        });
    }
    Ok(())
}

/// Masks per work-stealing chunk. Small enough that 8 workers load-
/// balance a `2^12` lattice, large enough that the atomic cursor is
/// cold compared to the probes.
const SHARD: u64 = 256;

/// Split-table cost lookup: `cost(mask) = lo[mask & lo_mask] +
/// hi[mask >> lo_bits]`, with both tables built by subset-sum DP.
struct CostTable {
    lo: Vec<u64>,
    hi: Vec<u64>,
    lo_bits: u32,
    lo_mask: u64,
}

impl CostTable {
    fn new(costs: &[u64]) -> Self {
        let k = costs.len();
        let lo_bits = (k.div_ceil(2)) as u32;
        let hi_bits = (k as u32) - lo_bits;
        let build = |offset: u32, bits: u32| -> Vec<u64> {
            let mut t = vec![0u64; 1usize << bits];
            for m in 1..t.len() {
                let low = m.trailing_zeros();
                t[m] = t[m & (m - 1)].saturating_add(costs[(offset + low) as usize]);
            }
            t
        };
        Self {
            lo: build(0, lo_bits),
            hi: build(lo_bits, hi_bits),
            lo_bits,
            lo_mask: (1u64 << lo_bits) - 1,
        }
    }

    #[inline]
    fn cost(&self, mask: u64) -> u64 {
        self.lo[(mask & self.lo_mask) as usize]
            .saturating_add(self.hi[(mask >> self.lo_bits) as usize])
    }
}

/// Runs `worker` on `n` scoped threads when `n > 1`, inline otherwise
/// (the `threads == 1` path must not pay a spawn, and must stay
/// debuggable as plain straight-line code).
fn run_workers<F: Fn() + Sync>(n: usize, worker: F) {
    if n <= 1 {
        worker();
        return;
    }
    std::thread::scope(|s| {
        for _ in 0..n {
            s.spawn(&worker);
        }
    });
}

/// Work-steals **whole modules** onto the worker pool: the `n_modules`
/// jobs are claimed off a shared atomic cursor, so fast modules drain
/// quickly and the pool stays busy however unevenly the per-module
/// lattices are sized — the cross-module analogue of the intra-module
/// chunk stealing. Both levels nest under **one** [`SweepConfig`]: with
/// `W = config.threads` workers and `M` jobs, `min(W, M)` outer workers
/// claim modules and each claimed module sweeps with the remaining
/// `W / min(W, M)` threads as its intra-module chunk pool, so the total
/// concurrency never exceeds the configured budget.
///
/// `f(idx, inner)` runs one module's sweep under the nested `inner`
/// configuration and may be any epoch-memoized entry point
/// ([`WorkflowSweeper::union_of_optima`] and the `sv-optimize`
/// `from_sweeper` derivations route through here). Results come back in
/// module order — and because every per-module sweep is deterministic at
/// any thread count, the whole cross-module sweep is too: parallel ≡
/// serial at every thread count (property-tested in
/// `tests/serve_prop.rs`).
///
/// # Errors
/// Returns the lowest-module-index error if any job fails (every job
/// still runs to completion first, keeping the error deterministic).
pub fn sweep_workflow_parallel<T, F>(
    n_modules: usize,
    config: &SweepConfig,
    f: F,
) -> Result<Vec<T>, CoreError>
where
    T: Send,
    F: Fn(usize, &SweepConfig) -> Result<T, CoreError> + Sync,
{
    if n_modules == 0 {
        return Ok(Vec::new());
    }
    let outer = config.worker_count().min(n_modules);
    let inner = SweepConfig::parallel((config.worker_count() / outer).max(1));
    let cursor = AtomicU64::new(0);
    let cancelled = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<Result<T, CoreError>>>> =
        (0..n_modules).map(|_| Mutex::new(None)).collect();
    run_workers(outer, || loop {
        // A failed job stops further claims — no point sweeping the
        // remaining lattices when the call is going to error anyway.
        // Modules are claimed in ascending index order, so every index
        // below the lowest failing one still completes, keeping the
        // reported error deterministic.
        if cancelled.load(Ordering::Relaxed) {
            break;
        }
        let idx = cursor.fetch_add(1, Ordering::Relaxed) as usize;
        if idx >= n_modules {
            break;
        }
        let result = f(idx, &inner);
        if result.is_err() {
            cancelled.store(true, Ordering::Relaxed);
        }
        *slots[idx].lock().expect("lock") = Some(result);
    });
    let mut out = Vec::with_capacity(n_modules);
    for s in slots {
        match s.into_inner().expect("lock") {
            Some(Ok(v)) => out.push(v),
            Some(Err(e)) => return Err(e),
            // Unclaimed ⇒ some lower-index job failed; the loop above
            // already returned its error before reaching this slot.
            None => unreachable!("slot skipped without a prior error"),
        }
    }
    Ok(out)
}

/// Minimum-cost safe hidden set by parallel branch-and-bound sweep.
///
/// Deterministic at every thread count: returns the lexicographically
/// smallest safe mask of minimum cost, exactly like the serial
/// reference [`crate::safety::min_cost_safe_hidden`].
///
/// The sweep walks the lattice popcount layer by popcount layer, keeps
/// the safe masks discovered so far as a [`Frontier`], and enumerates
/// each layer through its uncovered border — a mask containing a known
/// safe mask can never beat the recorded `(cost, mask)`-lexicographic
/// best (costs are non-negative and a strict superset is numerically
/// larger), so covered subtrees are skipped whole, bound-aware. Two
/// extra cutoffs fall out: a layer whose border is empty covers every
/// higher layer (stop), and a layer whose cheapest-possible cost (sum
/// of the `p` smallest attribute costs) exceeds the bound cannot
/// improve it, nor can any layer above (stop).
///
/// Every probe goes through `oracle`, whose level memo keeps what the
/// sweep computed: a one-shot caller passes a fresh
/// [`MemoSafetyOracle`], a store passes the oracle its probes answer
/// from.
///
/// # Errors
/// [`CoreError::TooManyAttributes`] if `k > MAX_DENSE_ATTRS`.
///
/// # Panics
/// Panics unless `costs.len() == k`.
pub fn min_cost_sweep(
    oracle: &MemoSafetyOracle,
    costs: &[u64],
    gamma: u128,
    config: &SweepConfig,
) -> Result<(Option<(AttrSet, u64)>, SweepStats), CoreError> {
    let k = oracle.module().k();
    check_k(k)?;
    assert_eq!(costs.len(), k, "one cost per attribute");
    let table = CostTable::new(costs);
    // Per-layer cost floor: a popcount-p mask costs at least the sum of
    // the p smallest attribute costs — non-decreasing in p, so a layer
    // whose floor exceeds the bound ends the sweep, not just the layer.
    let mut sorted = costs.to_vec();
    sorted.sort_unstable();
    let mut floor = vec![0u64; k + 1];
    for p in 1..=k {
        floor[p] = floor[p - 1].saturating_add(sorted[p - 1]);
    }

    // Branch-and-bound state. Readers load `bound` then `best_mask`;
    // the writer (under the mutex) stores `best_mask` *first*, then
    // `bound` with Release, so a reader that observes a bound value also
    // observes a best-mask no older than that bound's update. Stale
    // best-mask reads are always conservative (they only ever cause an
    // extra probe or prune a mask that is provably not the final
    // optimum — see the tie-break argument below).
    let bound = AtomicU64::new(u64::MAX);
    let best_mask = AtomicU64::new(u64::MAX);
    let best = Mutex::new(None::<(u64, u64)>); // (cost, mask)

    // Antichain of the safe masks discovered so far: covered masks are
    // supersets of a recorded safe mask and can never improve the
    // (cost, mask)-lexicographic best.
    let mut frontier = Frontier::new(k);
    let stats = sweep_layers(
        &mut frontier,
        config,
        |p| floor[p] > bound.load(Ordering::Acquire),
        |mask| {
            // A mask is prunable iff it cannot beat the current best
            // under the (cost, mask) lexicographic order. The true
            // optimum (c*, m*) is never pruned: bound never drops below
            // c*, and when bound == c* the best-mask atomic holds a
            // genuine safe c*-cost mask ≤ m*, which equals m* only once
            // m* is recorded.
            let cost = table.cost(mask);
            let b = bound.load(Ordering::Acquire);
            if cost > b || (cost == b && mask >= best_mask.load(Ordering::Acquire)) {
                return None;
            }
            let safe = oracle.is_safe_hidden(&AttrSet::from_word(mask), gamma);
            if safe {
                let mut slot = best.lock().expect("lock");
                let improves = match *slot {
                    None => true,
                    Some((bc, bm)) => cost < bc || (cost == bc && mask < bm),
                };
                if improves {
                    *slot = Some((cost, mask));
                    best_mask.store(mask, Ordering::Release);
                    bound.store(cost, Ordering::Release);
                }
            }
            Some(safe)
        },
    );
    let found = best
        .into_inner()
        .expect("lock")
        .map(|(cost, mask)| (AttrSet::from_word(mask), cost));
    Ok((found, stats))
}

/// The one lattice enumerator behind both sweeps. Walks layers
/// `0..=k` in ascending popcount order; each layer is produced by one
/// serial [`Frontier::uncovered_in_layer`] walk over the frontier as
/// the previous layer barrier left it, probed on the worker pool
/// ([`probe_layer`]), and its safe masks are merged into `frontier`
/// before the next layer starts. `stop(p)` ends the sweep before layer
/// `p` (the min-cost floor cutoff); a fully covered layer ends it too,
/// since every higher layer is then covered as well. Either cutoff
/// counts the remaining layers as pruned.
fn sweep_layers(
    frontier: &mut Frontier,
    config: &SweepConfig,
    stop: impl Fn(usize) -> bool,
    probe: impl Fn(u64) -> Option<bool> + Sync,
) -> SweepStats {
    let k = frontier.k();
    // Masks of layers `p..=k`: what a cutoff before layer `p` prunes.
    let from_layer = |p: usize| (p..=k).map(|r| binom(k as u32, r as u32)).sum::<u64>();
    let workers = config.worker_count();
    let mut stats = SweepStats {
        lattice: 1u64 << k,
        threads: workers,
        ..SweepStats::default()
    };
    for p in 0..=k {
        if stop(p) {
            stats.pruned += from_layer(p);
            break;
        }
        let scan = frontier.uncovered_in_layer(p);
        stats.border_visited += scan.masks;
        stats.border_jumps += scan.jumps;
        if scan.masks == 0 {
            // Fully covered layer (only possible once a safe set is
            // known) ⇒ every higher layer is covered too.
            stats.pruned += from_layer(p);
            break;
        }
        stats.pruned += binom(k as u32, p as u32) - scan.masks;
        let chunks = chunk_runs(k, p, &scan.runs);
        let layer = probe_layer(&chunks, workers, &probe);
        stats.visited += layer.visited;
        stats.pruned += layer.pruned;
        merge_layer_runs(frontier, layer.runs);
    }
    stats.frontier_nodes = frontier.node_count() as u64;
    stats
}

/// One layer's worker results.
#[derive(Default)]
struct LayerProbes {
    /// Masks probed through the oracle.
    visited: u64,
    /// Masks the probe closure skipped unprobed.
    pruned: u64,
    /// One ascending run of safe masks per worker that found any.
    runs: Vec<Vec<u64>>,
}

/// Probes one layer's `chunks` on up to `workers` threads: chunks are
/// claimed off an atomic cursor, and `probe(mask)` answers
/// `None` for a mask it skips unprobed, else whether the mask is safe.
/// A worker claims chunks in ascending order and masks ascend within a
/// chunk, so each worker's safe masks come back as one ascending run.
fn probe_layer(
    chunks: &[(u64, u64)],
    workers: usize,
    probe: &(impl Fn(u64) -> Option<bool> + Sync),
) -> LayerProbes {
    let cursor = AtomicU64::new(0);
    let out = Mutex::new(LayerProbes::default());
    run_workers(workers.min(chunks.len()), || {
        let mut visited = 0u64;
        let mut pruned = 0u64;
        let mut found: Vec<u64> = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed) as usize;
            let Some(&(first, len)) = chunks.get(i) else {
                break;
            };
            let mut mask = first;
            for j in 0..len {
                match probe(mask) {
                    None => pruned += 1,
                    Some(safe) => {
                        visited += 1;
                        if safe {
                            found.push(mask);
                        }
                    }
                }
                if j + 1 < len {
                    mask = next_same_popcount(mask);
                }
            }
        }
        let mut out = out.lock().expect("lock");
        out.visited += visited;
        out.pruned += pruned;
        if !found.is_empty() {
            out.runs.push(found);
        }
    });
    out.into_inner().expect("lock")
}

/// Splits a layer's uncovered runs into work-stealing chunks of at most
/// [`SHARD`] masks, locating interior chunk starts by combinatorial
/// rank/unrank instead of stepping mask-by-mask.
fn chunk_runs(k: usize, p: usize, runs: &[BorderRun]) -> Vec<(u64, u64)> {
    let mut chunks = Vec::new();
    for r in runs {
        if r.len <= SHARD {
            chunks.push((r.first, r.len));
            continue;
        }
        let base = rank_combination(r.first);
        let mut off = 0u64;
        while off < r.len {
            let len = SHARD.min(r.len - off);
            let first = if off == 0 {
                r.first
            } else {
                unrank_combination(k, p, base + off)
            };
            chunks.push((first, len));
            off += len;
        }
    }
    chunks
}

/// The `rank`-th `k`-bit mask of popcount `p`, in ascending numeric
/// order (rank 0 = lowest mask).
fn unrank_combination(k: usize, p: usize, mut rank: u64) -> u64 {
    let mut mask = 0u64;
    let mut p = p;
    for bit in (0..k).rev() {
        if p == 0 {
            break;
        }
        let without = binom(bit as u32, p as u32); // masks using only bits < `bit`
        if rank < without {
            continue; // bit stays clear
        }
        rank -= without;
        mask |= 1u64 << bit;
        p -= 1;
    }
    mask
}

/// Inverse of [`unrank_combination`]: the ascending-numeric rank of
/// `mask` within its popcount layer. Colexicographic rank — sum
/// `C(b_j, j + 1)` over the set bit positions `b_j` in ascending order.
fn rank_combination(mask: u64) -> u64 {
    let mut rank = 0u64;
    let mut seen = 0u32;
    let mut m = mask;
    while m != 0 {
        let bit = m.trailing_zeros();
        seen += 1;
        rank += binom(bit, seen);
        m &= m - 1;
    }
    rank
}

/// Gosper's hack: next mask with the same popcount, ascending. Must not
/// be called on `0` or the all-ones top mask of the width.
#[inline]
fn next_same_popcount(v: u64) -> u64 {
    let t = v | (v - 1);
    let nt = !t;
    (t + 1) | (((nt & nt.wrapping_neg()) - 1) >> (v.trailing_zeros() + 1))
}

/// The masks of popcount `p` over `k` bits (`p ≤ k < 64`), ascending:
/// Gosper stepping from the lowest to the highest.
pub(crate) fn layer_masks(k: usize, p: usize) -> impl Iterator<Item = u64> {
    let last = ((1u64 << p) - 1) << (k - p);
    std::iter::successors(Some((1u64 << p) - 1), move |&m| {
        (m != last).then(|| next_same_popcount(m))
    })
}

/// All ⊆-minimal safe hidden sets by parallel layered sweep with
/// antichain pruning, returned as a queryable [`Frontier`] — the form
/// the memo layer caches and its consumers
/// ([`crate::requirements::cardinality_constraints_from_frontier`],
/// [`WorkflowSweeper::union_of_optima`]) keep querying.
///
/// The members, in [`Frontier::iter`]'s (popcount, mask) order, are
/// exactly the serial reference
/// [`crate::safety::minimal_safe_hidden_sets`] at every thread count.
/// Probes go through `oracle`, as in [`min_cost_sweep`].
///
/// Each layer is produced by one serial
/// [`Frontier::uncovered_in_layer`] walk: covered up-set regions are
/// skipped in path-compressed trie jumps and never materialized, the
/// surviving ascending runs are split into ≤ 256-mask chunks by
/// combinatorial rank, and workers claim chunks off an atomic cursor and
/// probe every mask they are handed — the exact enumeration effort is
/// `border_visited`/`border_jumps`. The layer barrier merges the
/// workers' sorted discovery runs straight into the trie in
/// (popcount, mask) order, and a layer whose walk emits nothing is the
/// cutoff certificate for every higher layer.
///
/// `seeds` is an optional antichain from an earlier sweep of a related
/// module (the memoized re-sweep path: a streamed append changes the
/// relation but usually perturbs few minimal sets). Every seed mask is
/// revalidated against `oracle` before it enters the frontier — no
/// monotonicity of the data is assumed. A still-safe seed makes its
/// whole strict up-set skippable from layer 0 (those masks are never
/// even enumerated); a seed that stopped being safe is dropped; a seed
/// that stopped being *minimal* is evicted later by
/// [`Frontier::insert`]'s dominance eviction when the sweep discovers
/// the smaller safe set below it. Revalidation probes are deliberately
/// **not** counted in `visited`/`pruned`, so
/// `visited + pruned == lattice` stays exact.
///
/// # Errors
/// [`CoreError::TooManyAttributes`] if `k > MAX_DENSE_ATTRS`.
pub fn minimal_sets_sweep(
    oracle: &MemoSafetyOracle,
    gamma: u128,
    config: &SweepConfig,
    seeds: Option<&Frontier>,
) -> Result<(Frontier, SweepStats), CoreError> {
    let k = oracle.module().k();
    check_k(k)?;
    let mut frontier = Frontier::new(k);
    if let Some(seeds) = seeds {
        let mut still_safe: Vec<u64> = seeds
            .iter()
            .filter(|&m| {
                m.checked_shr(k as u32).unwrap_or(0) == 0
                    && oracle.is_safe_hidden(&AttrSet::from_word(m), gamma)
            })
            .collect();
        // Seeds come from an antichain, so they are pairwise
        // incomparable and insertion order cannot trigger evictions;
        // sort anyway so the trie's growth is deterministic.
        still_safe.sort_unstable_by_key(|&m| (m.count_ones(), m));
        for m in still_safe {
            frontier.insert(m);
        }
    }
    let stats = sweep_layers(
        &mut frontier,
        config,
        |_| false,
        |mask| Some(oracle.is_safe_hidden(&AttrSet::from_word(mask), gamma)),
    );
    Ok((frontier, stats))
}

/// Merges one layer's per-worker sorted runs into the frontier by k-way
/// merge, preserving the serial (popcount, mask) discovery order without
/// the old collect-extend-resort round trip. Same-layer discoveries all
/// share one popcount and were probed *because* no earlier member
/// covered them, so every merged mask extends the antichain.
fn merge_layer_runs(frontier: &mut Frontier, mut runs: Vec<Vec<u64>>) {
    runs.retain(|r| !r.is_empty());
    let mut heads = vec![0usize; runs.len()];
    let mut last: Option<u64> = None;
    loop {
        let mut next: Option<(u64, usize)> = None;
        for (i, run) in runs.iter().enumerate() {
            if let Some(&v) = run.get(heads[i]) {
                if next.is_none_or(|(nv, _)| v < nv) {
                    next = Some((v, i));
                }
            }
        }
        let Some((mask, i)) = next else { break };
        heads[i] += 1;
        debug_assert!(
            last.is_none_or(|l| l < mask),
            "layer merge must emit strictly ascending masks"
        );
        last = Some(mask);
        let inserted = frontier.insert(mask);
        debug_assert!(inserted, "same-popcount discoveries are incomparable");
    }
}

/// Per-module trie frontiers of a workflow-level sweep, in
/// `private_modules()` order (the
/// [`WorkflowSweeper::minimal_frontiers_all`] result shape). The
/// [`Arc`]s alias the sweeper's epoch-stamped memo entries — cloning
/// one never copies the trie.
pub type ModuleFrontiers = Vec<(ModuleId, Arc<Frontier>)>;

/// One memoized antichain sweep: the swept [`Frontier`], its counters,
/// and the relation epoch it was swept at. Shared out as [`Arc`]s so
/// derivations query the memoized trie in place instead of cloning
/// member lists.
struct CachedFrontier {
    frontier: Arc<Frontier>,
    stats: SweepStats,
    epoch: u64,
}

/// One memoized min-cost sweep (the map key carries the module, Γ, and
/// the local cost slice it ran under).
struct CachedMinCost {
    found: Option<(AttrSet, u64)>,
    stats: SweepStats,
    epoch: u64,
}

/// Interior sweep memos of a [`WorkflowSweeper`]; see
/// [`WorkflowSweeper::sweeps_performed`].
#[derive(Default)]
struct SweepCaches {
    minimal: HashMap<(usize, u128), CachedFrontier>,
    /// Keyed by `(module index, Γ, local costs)`, so alternating cost
    /// models each keep their own memo instead of thrashing one slot.
    min_cost: HashMap<(usize, u128, Vec<u64>), CachedMinCost>,
    /// Lattice sweeps actually executed (cache misses + stale entries).
    sweeps: u64,
}

/// Global costs localized once per workflow, so repeated assemblies
/// never rebuild a module's cost slice per call. Build once with
/// [`WorkflowSweeper::localize_costs`], reuse across Γ sweeps.
pub struct WorkflowCosts {
    global: Vec<u64>,
    per_module: Vec<Vec<u64>>,
}

impl WorkflowCosts {
    /// The global cost vector the localization was built from.
    #[must_use]
    pub fn global(&self) -> &[u64] {
        &self.global
    }

    /// The hoisted local cost slice of the `idx`-th private module.
    #[must_use]
    pub fn local(&self, idx: usize) -> &[u64] {
        &self.per_module[idx]
    }
}

/// Workflow-level sweeps over **one module store**: a
/// [`WorkflowOracles`] holding every private module, swept (in
/// parallel, per [`SweepConfig`]) as many times as the caller needs —
/// union-of-optima assemblies, requirement-list derivations, greedy
/// general solutions. Every workflow-level Secure-View answer in the
/// workspace is derived through one.
///
/// ### One level memo per module
///
/// Every sweep probes the store's own [`MemoSafetyOracle`] for its
/// module, behind the read guard the sweep holds anyway, so the levels
/// a sweep computes stay in the store: later sweeps, serving probes
/// ([`WorkflowOracles::probe_batch`]) and requirement derivations
/// answer them from the memo. A cached level decides safety for every
/// Γ (Lemma 4), and a Γ-unsafe set is also Γ′-unsafe for every
/// Γ′ ≥ Γ (Proposition 1), so once a Γ′ sweep has run, sweeps of the
/// same module at any Γ ≤ Γ′ add no kernel evaluation. The store keeps
/// those levels for its lifetime; nothing bounds the memo yet.
///
/// ### Epoch-aware sweep memos
///
/// Per-module sweep results (the minimal-sets antichain, min-cost
/// optima) are memoized together with the store's relation epoch
/// ([`SafetyOracle::relation_epoch`]) they were computed at. Each sweep
/// runs under the module's read guard, so an append cannot move the
/// epoch mid-sweep. When provenance streams in — through the store's
/// one write path, [`oracles`](Self::oracles) →
/// [`WorkflowOracles::ingest_batch`] (or `validate_batch` →
/// `apply_batch`), which takes `&self` — only the modules whose
/// relations actually changed are re-swept on the next derivation; the
/// rest answer from the memo with zero probes (observable via
/// [`sweeps_performed`](Self::sweeps_performed)).
///
/// # Examples
/// ```
/// use sv_core::safety::IngestBatch;
/// use sv_core::{SweepConfig, WorkflowSweeper};
/// use sv_workflow::library::fig1_workflow;
///
/// let wf = fig1_workflow();
/// let sweeper = WorkflowSweeper::for_workflow_streaming(&wf, SweepConfig::serial()).unwrap();
/// let gamma = 2;
/// let ids = sweeper.module_ids();
/// let rows = vec![wf.run(&[0, 0]).unwrap(), wf.run(&[1, 1]).unwrap()];
/// sweeper.oracles().ingest_batch(&IngestBatch::new(rows)).unwrap();
/// for &id in &ids {
///     let (antichain, stats) = sweeper.module_minimal_frontier(id, gamma).unwrap();
///     assert!(!antichain.is_empty());
///     assert_eq!(stats.visited + stats.pruned, stats.lattice);
/// }
/// // Same question again: answered from the epoch-stamped memo.
/// let before = sweeper.sweeps_performed();
/// let _ = sweeper.module_minimal_frontier(ids[0], gamma).unwrap();
/// assert_eq!(sweeper.sweeps_performed(), before);
/// ```
pub struct WorkflowSweeper {
    config: SweepConfig,
    n_attrs: usize,
    /// The one module store: probes answer from it, sweeps read it, and
    /// rows enter it only through its [`IngestBatch`](crate::safety::IngestBatch)
    /// path.
    oracles: WorkflowOracles,
    /// Per-module global↔local lenses, in the store's
    /// `private_modules()` order (the memo keys' module index).
    lenses: Vec<ModuleLens>,
    caches: Mutex<SweepCaches>,
}

impl WorkflowSweeper {
    /// Materializes each private module's relation (budget-capped) into
    /// the module store, plus its global↔local lens.
    ///
    /// # Errors
    /// Propagates module-materialization failures.
    pub fn for_workflow(
        workflow: &Workflow,
        budget: u128,
        config: SweepConfig,
    ) -> Result<Self, CoreError> {
        Self::over(
            workflow,
            WorkflowOracles::for_workflow(workflow, budget)?,
            config,
        )
    }

    /// The **streaming** constructor: every private module starts with
    /// an empty relation and grows as provenance arrives through
    /// [`oracles`](Self::oracles)`().ingest_batch(..)`. Sweeps answer
    /// with respect to the executions recorded so far (an empty module
    /// is vacuously safe: its antichain is the empty hidden set).
    ///
    /// # Errors
    /// Propagates structural workflow errors.
    pub fn for_workflow_streaming(
        workflow: &Workflow,
        config: SweepConfig,
    ) -> Result<Self, CoreError> {
        Self::over(
            workflow,
            WorkflowOracles::for_workflow_streaming(workflow)?,
            config,
        )
    }

    fn over(
        workflow: &Workflow,
        oracles: WorkflowOracles,
        config: SweepConfig,
    ) -> Result<Self, CoreError> {
        let lenses = oracles
            .module_ids()
            .into_iter()
            .map(|id| ModuleLens::new(workflow, id))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            config,
            n_attrs: workflow.schema().len(),
            oracles,
            lenses,
            caches: Mutex::new(SweepCaches::default()),
        })
    }

    /// The module store every sweep probes: one memoized oracle per
    /// private module, whose level memo keeps what sweeps and probes
    /// computed. Probes go through it directly, and it is the only way
    /// rows enter ([`WorkflowOracles::ingest_batch`], or
    /// [`WorkflowOracles::validate_batch`] →
    /// [`WorkflowOracles::apply_batch`]); the sweep memos follow its
    /// relation epochs.
    ///
    /// Drop a guard from [`WorkflowOracles::oracle`] before asking the
    /// sweeper about the same module: the sweep takes that module's
    /// read lock again, which a writer waiting in between would block.
    #[must_use]
    pub fn oracles(&self) -> &WorkflowOracles {
        &self.oracles
    }

    /// Lattice sweeps actually executed so far — cache misses plus
    /// stale (post-append) entries. Streaming consumers watch this to
    /// confirm that re-derivations only re-sweep changed modules.
    #[must_use]
    pub fn sweeps_performed(&self) -> u64 {
        self.caches.lock().expect("lock").sweeps
    }

    /// Number of attributes of the underlying workflow schema.
    #[must_use]
    pub fn n_attrs(&self) -> usize {
        self.n_attrs
    }

    /// Covered module ids, in `private_modules()` order.
    #[must_use]
    pub fn module_ids(&self) -> Vec<ModuleId> {
        self.oracles.module_ids()
    }

    /// Global attribute ids of module `id`'s inputs (local-id order).
    #[must_use]
    pub fn global_inputs(&self, id: ModuleId) -> Option<Vec<u32>> {
        self.global_ids(id, StandaloneModule::inputs)
    }

    /// Global attribute ids of module `id`'s outputs (local-id order).
    #[must_use]
    pub fn global_outputs(&self, id: ModuleId) -> Option<Vec<u32>> {
        self.global_ids(id, StandaloneModule::outputs)
    }

    /// `pick(module)` in global ids, ascending (= local-id order: local
    /// ids follow global-id order).
    fn global_ids(
        &self,
        id: ModuleId,
        pick: impl Fn(&StandaloneModule) -> &AttrSet,
    ) -> Option<Vec<u32>> {
        let lens = self.lens(id)?;
        let oracle = self.oracles.oracle(id)?;
        Some(
            lens.to_global(pick(oracle.module()))
                .iter()
                .map(|a| a.0)
                .collect(),
        )
    }

    /// Maps a module-local attribute set to global ids.
    #[must_use]
    pub fn to_global(&self, id: ModuleId, local: &AttrSet) -> Option<AttrSet> {
        self.lens(id).map(|l| l.to_global(local))
    }

    fn lens(&self, id: ModuleId) -> Option<&ModuleLens> {
        self.lenses.iter().find(|l| l.module() == id)
    }

    fn index(&self, id: ModuleId) -> Result<usize, CoreError> {
        self.lenses
            .iter()
            .position(|l| l.module() == id)
            .ok_or(CoreError::MissingOracle { module: id.index() })
    }

    /// The read guard of the `idx`-th module. Memo paths take it
    /// **before** the memo mutex and hold it through the sweep — never
    /// the reverse order — so the epoch they key by cannot move under
    /// them and an append waits for the sweep instead of deadlocking.
    fn guard(&self, idx: usize) -> OracleGuard<'_> {
        self.oracles
            .oracle(self.lenses[idx].module())
            .expect("the store covers every lens")
    }

    /// Localizes a global cost vector into per-module slices, **once**
    /// — the hoist that keeps repeated assemblies (Γ sweeps, cost
    /// sweeps) from rebuilding slices per module call.
    ///
    /// # Panics
    /// Panics unless `global_costs.len()` matches the workflow schema.
    #[must_use]
    pub fn localize_costs(&self, global_costs: &[u64]) -> WorkflowCosts {
        assert_eq!(global_costs.len(), self.n_attrs, "one cost per attribute");
        WorkflowCosts {
            global: global_costs.to_vec(),
            per_module: self
                .lenses
                .iter()
                .map(|l| {
                    l.globals()
                        .iter()
                        .map(|a| global_costs[a.index()])
                        .collect()
                })
                .collect(),
        }
    }

    /// Union-of-standalone-optima (Example 5 / Theorem 4) through the
    /// parallel sweep: per private module the min-cost safe hidden set,
    /// hidden sets unioned in global coordinates. Returns the hidden
    /// set, its global cost, and the merged sweep counters.
    ///
    /// The per-module sweeps are **work-stolen across modules**
    /// ([`sweep_workflow_parallel`]) under this sweeper's
    /// [`SweepConfig`]: each `2^k` lattice is independent, so modules
    /// sweep concurrently while each claimed module shards its own
    /// lattice over the nested thread budget. The result is identical to
    /// the serial module loop at any thread count. Modules whose
    /// minimal-sets [`Frontier`] is already memoized at the current
    /// epoch skip the branch-and-bound sweep entirely: the optimum is
    /// read off the trie by [`Frontier::min_cost_member`] with zero
    /// probes.
    ///
    /// # Errors
    /// [`CoreError::BudgetExceeded`] if some module admits no safe
    /// subset; propagates sweep errors.
    pub fn union_of_optima(
        &self,
        costs: &WorkflowCosts,
        gamma: u128,
    ) -> Result<(AttrSet, u64, SweepStats), CoreError> {
        // A module with no safe subset errors inside the worker, so the
        // cross-module sweep cancels instead of finishing every other
        // lattice first (the serial loop's early exit, preserved).
        let per_module = sweep_workflow_parallel(self.lenses.len(), &self.config, |idx, inner| {
            let (found, s) = self.min_cost_memo(idx, costs.local(idx), gamma, inner)?;
            found
                .ok_or(CoreError::BudgetExceeded {
                    what: "no safe standalone subset exists for a module",
                    required: gamma,
                    budget: 0,
                })
                .map(|f| (f, s))
        })?;
        let mut hidden = AttrSet::new();
        let mut stats = SweepStats::default();
        for (lens, ((local_hidden, _), s)) in self.lenses.iter().zip(per_module) {
            stats.merge(&s);
            hidden.union_with(&lens.to_global(&local_hidden));
        }
        let cost = hidden.iter().map(|a| costs.global()[a.index()]).sum();
        Ok((hidden, cost, stats))
    }

    /// Every module's ⊆-minimal safe hidden sets (module-local ids) with
    /// per-module privacy requirements, each a shared [`Frontier`]
    /// handle into the epoch memo, swept **in parallel across modules**
    /// ([`sweep_workflow_parallel`]) and memoized exactly like
    /// [`module_minimal_frontier`](Self::module_minimal_frontier) — the
    /// zero-copy shape the `sv-optimize` `from_sweeper` derivations and
    /// the cardinality recovery
    /// ([`crate::requirements::cardinality_constraints_from_frontier`])
    /// consume. Returns the per-module frontiers in `private_modules()`
    /// order plus the merged sweep counters.
    ///
    /// # Errors
    /// Propagates sweep errors.
    ///
    /// # Panics
    /// Panics unless `gammas` has one entry per covered module.
    pub fn minimal_frontiers_all(
        &self,
        gammas: &[u128],
    ) -> Result<(ModuleFrontiers, SweepStats), CoreError> {
        assert_eq!(gammas.len(), self.lenses.len(), "one Γ per private module");
        let per_module = sweep_workflow_parallel(self.lenses.len(), &self.config, |idx, inner| {
            self.minimal_sets_memo(idx, gammas[idx], inner)
        })?;
        let mut stats = SweepStats::default();
        let mut out = Vec::with_capacity(self.lenses.len());
        for (lens, (frontier, s)) in self.lenses.iter().zip(per_module) {
            stats.merge(&s);
            out.push((lens.module(), frontier));
        }
        Ok((out, stats))
    }

    /// Minimum-cost safe hidden set of one module under hoisted costs.
    /// Memoized per `(module, Γ, local costs)` with the module's
    /// relation epoch: repeats are free, appends re-sweep only the
    /// changed module.
    ///
    /// # Errors
    /// Propagates sweep errors; [`CoreError::MissingOracle`] if `id` is
    /// not a covered private module.
    pub fn module_min_cost(
        &self,
        id: ModuleId,
        costs: &WorkflowCosts,
        gamma: u128,
    ) -> Result<(Option<(AttrSet, u64)>, SweepStats), CoreError> {
        let idx = self.index(id)?;
        self.min_cost_memo(idx, costs.local(idx), gamma, &self.config)
    }

    /// The epoch-validated min-cost memo behind
    /// [`module_min_cost`](Self::module_min_cost) and
    /// [`union_of_optima`](Self::union_of_optima). `run_config` is the
    /// configuration a cache miss actually sweeps with — the full pool
    /// for direct calls, the nested per-module share inside a
    /// cross-module [`sweep_workflow_parallel`] (results are identical
    /// either way; only the recorded [`SweepStats::threads`] differ).
    fn min_cost_memo(
        &self,
        idx: usize,
        local_costs: &[u64],
        gamma: u128,
        run_config: &SweepConfig,
    ) -> Result<(Option<(AttrSet, u64)>, SweepStats), CoreError> {
        let oracle = self.guard(idx);
        let epoch = oracle.relation_epoch();
        let key = (idx, gamma, local_costs.to_vec());
        {
            let mut caches = self.caches.lock().expect("lock");
            if let Some(c) = caches.min_cost.get(&key) {
                if c.epoch == epoch {
                    return Ok((c.found.clone(), c.stats));
                }
            }
            // Frontier query: a current-epoch minimal-sets frontier
            // for (module, Γ) already determines the optimum — by
            // Proposition 1 the (cost, mask)-lexicographic minimum over
            // all safe sets is attained at an antichain member
            // ([`Frontier::min_cost_member`]) — so answer with **zero
            // probes** and no lattice sweep. The recorded stats are
            // those of the antichain sweep that built the frontier.
            if let Some(c) = caches.minimal.get(&(idx, gamma)) {
                if c.epoch == epoch {
                    let found = c
                        .frontier
                        .min_cost_member(local_costs)
                        .map(|(mask, cost)| (AttrSet::from_word(mask), cost));
                    let stats = c.stats;
                    caches.min_cost.insert(
                        key,
                        CachedMinCost {
                            found: found.clone(),
                            stats,
                            epoch,
                        },
                    );
                    return Ok((found, stats));
                }
            }
        }
        let (found, stats) = min_cost_sweep(&oracle, local_costs, gamma, run_config)?;
        let mut caches = self.caches.lock().expect("lock");
        caches.sweeps += 1;
        caches.min_cost.insert(
            key,
            CachedMinCost {
                found: found.clone(),
                stats,
                epoch,
            },
        );
        Ok((found, stats))
    }

    /// One module's ⊆-minimal safe hidden sets (module-local ids) via
    /// the parallel layered sweep, as a shared handle to the memoized
    /// trie. Memoized per `(module, Γ)` with the module's relation
    /// epoch: a repeated derivation answers from the memo with zero
    /// probes, and after streamed appends only the modules whose
    /// relations changed are re-swept.
    ///
    /// # Errors
    /// Propagates sweep errors; [`CoreError::MissingOracle`] if `id` is
    /// not a covered private module.
    pub fn module_minimal_frontier(
        &self,
        id: ModuleId,
        gamma: u128,
    ) -> Result<(Arc<Frontier>, SweepStats), CoreError> {
        let idx = self.index(id)?;
        self.minimal_sets_memo(idx, gamma, &self.config)
    }

    /// The epoch-validated frontier memo behind
    /// [`module_minimal_frontier`](Self::module_minimal_frontier) and
    /// [`minimal_frontiers_all`](Self::minimal_frontiers_all);
    /// `run_config` as in `min_cost_memo`.
    fn minimal_sets_memo(
        &self,
        idx: usize,
        gamma: u128,
        run_config: &SweepConfig,
    ) -> Result<(Arc<Frontier>, SweepStats), CoreError> {
        let oracle = self.guard(idx);
        let epoch = oracle.relation_epoch();
        // A stale (pre-append) frontier is not discarded: its members
        // seed the re-sweep. Each seed is revalidated against the new
        // relation, and still-safe seeds let the border walk skip their
        // up-sets from layer 0 — streamed appends re-enumerate only the
        // border above the stale frontier.
        let seeds = {
            let caches = self.caches.lock().expect("lock");
            match caches.minimal.get(&(idx, gamma)) {
                Some(c) if c.epoch == epoch => {
                    return Ok((Arc::clone(&c.frontier), c.stats));
                }
                Some(c) => Some(Arc::clone(&c.frontier)),
                None => None,
            }
        };
        let (frontier, stats) = minimal_sets_sweep(&oracle, gamma, run_config, seeds.as_deref())?;
        let frontier = Arc::new(frontier);
        let mut caches = self.caches.lock().expect("lock");
        caches.sweeps += 1;
        caches.minimal.insert(
            (idx, gamma),
            CachedFrontier {
                frontier: Arc::clone(&frontier),
                stats,
                epoch,
            },
        );
        Ok((frontier, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::safety::{self, IngestBatch};
    use sv_relation::{AttrId, Tuple};
    use sv_workflow::library::{fig1_workflow, one_one_chain};

    fn m1() -> StandaloneModule {
        StandaloneModule::from_workflow_module(&fig1_workflow(), ModuleId(0), 1 << 20).unwrap()
    }

    /// A cold oracle over `m`: what a one-shot sweep probes.
    fn fresh(m: &StandaloneModule) -> MemoSafetyOracle {
        MemoSafetyOracle::new(m.clone())
    }

    /// A frontier's members as attribute sets, in (popcount, mask) order.
    fn members(f: &Frontier) -> Vec<AttrSet> {
        f.iter().map(AttrSet::from_word).collect()
    }

    #[test]
    fn cost_table_matches_bitwise_sum() {
        let costs = [3u64, 1, 4, 1, 5, 9, 2, 6];
        let t = CostTable::new(&costs);
        for mask in 0u64..(1 << 8) {
            let direct: u64 = (0..8)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| costs[i])
                .sum();
            assert_eq!(t.cost(mask), direct, "mask={mask:#b}");
        }
    }

    #[test]
    fn unrank_and_gosper_enumerate_ascending() {
        for p in 0..=6usize {
            let total = binom(6, p as u32);
            let mut by_rank: Vec<u64> = (0..total).map(|r| unrank_combination(6, p, r)).collect();
            let direct: Vec<u64> = (0u64..(1 << 6))
                .filter(|m| m.count_ones() as usize == p)
                .collect();
            assert_eq!(by_rank, direct, "p={p}");
            assert_eq!(layer_masks(6, p).collect::<Vec<_>>(), direct, "p={p}");
            // Gosper agrees with unranking.
            if total > 1 {
                for i in 0..(total as usize - 1) {
                    by_rank[i] = next_same_popcount(by_rank[i]);
                    assert_eq!(by_rank[i], direct[i + 1], "p={p} i={i}");
                }
            }
        }
    }

    #[test]
    fn min_cost_sweep_matches_serial_reference() {
        let m = m1();
        for costs in [[1u64; 5], [10, 3, 9, 2, 9]] {
            for gamma in [2u128, 4, 8, 9] {
                let serial = safety::min_cost_safe_hidden(&m, &costs, gamma).unwrap();
                for threads in [1usize, 2, 4, 8] {
                    let cfg = SweepConfig::parallel(threads);
                    let (found, stats) = min_cost_sweep(&fresh(&m), &costs, gamma, &cfg).unwrap();
                    assert_eq!(found, serial, "threads={threads}");
                    assert_eq!(stats.visited + stats.pruned, stats.lattice);
                }
            }
        }
    }

    #[test]
    fn minimal_sets_sweep_matches_serial_reference() {
        let m = m1();
        for gamma in [2u128, 4, 8, 9] {
            let serial = safety::minimal_safe_hidden_sets(&m, gamma).unwrap();
            for threads in [1usize, 2, 4, 8] {
                let cfg = SweepConfig::parallel(threads);
                let (sets, stats) = minimal_sets_sweep(&fresh(&m), gamma, &cfg, None).unwrap();
                assert_eq!(members(&sets), serial, "threads={threads}");
                assert_eq!(stats.visited + stats.pruned, stats.lattice);
            }
        }
    }

    #[test]
    fn layer_cutoff_prunes_whole_upsets() {
        // one-one over 3 wires, Γ = 2: every single wire is a minimal
        // safe set, so layer 2 is fully covered and layers 3..6 are cut
        // off without enumeration.
        let w = one_one_chain(1, 3);
        let m = StandaloneModule::from_workflow_module(&w, ModuleId(0), 1 << 20).unwrap();
        let (sets, stats) =
            minimal_sets_sweep(&fresh(&m), 2, &SweepConfig::serial(), None).unwrap();
        assert_eq!(sets.len(), 6, "each of the 6 wires alone suffices");
        // Visited: the empty set plus the 6 singletons.
        assert_eq!(stats.visited, 7);
        assert_eq!(stats.pruned, stats.lattice - 7);
        assert!(stats.visited_fraction() < 0.5);
    }

    #[test]
    fn sweeper_union_matches_compose_baseline() {
        let w = one_one_chain(2, 2);
        let costs = vec![1u64; w.schema().len()];
        let sweeper = WorkflowSweeper::for_workflow(&w, 1 << 20, SweepConfig::parallel(2)).unwrap();
        let wc = sweeper.localize_costs(&costs);
        let (hidden, cost, stats) = sweeper.union_of_optima(&wc, 2).unwrap();
        let (h2, c2) = crate::compose::union_of_standalone_optima(&w, &costs, 2, 1 << 20).unwrap();
        assert_eq!((hidden, cost), (h2, c2));
        assert_eq!(stats.visited + stats.pruned, stats.lattice);
        assert!(stats.lattice > 0);
    }

    #[test]
    fn sweeper_accessors() {
        let w = fig1_workflow();
        let sweeper = WorkflowSweeper::for_workflow(&w, 1 << 20, SweepConfig::serial()).unwrap();
        assert_eq!(sweeper.module_ids().len(), 3);
        assert_eq!(sweeper.n_attrs(), 7);
        assert!(sweeper.oracles().oracle(ModuleId(0)).is_some());
        assert!(sweeper.oracles().oracle(ModuleId(9)).is_none());
        // m1 has global inputs {0, 1} and outputs {2, 3, 4}.
        assert_eq!(sweeper.global_inputs(ModuleId(0)).unwrap(), vec![0, 1]);
        assert_eq!(sweeper.global_outputs(ModuleId(0)).unwrap(), vec![2, 3, 4]);
        let local = AttrSet::from_indices(&[0, 2]);
        assert_eq!(
            sweeper.to_global(ModuleId(0), &local).unwrap(),
            AttrSet::from_indices(&[0, 2])
        );
        assert!(sweeper
            .module_min_cost(ModuleId(9), &sweeper.localize_costs(&[1; 7]), 2)
            .is_err());
    }

    #[test]
    fn streaming_sweeper_resweeps_only_changed_modules() {
        let w = fig1_workflow();
        let sweeper = WorkflowSweeper::for_workflow_streaming(&w, SweepConfig::serial()).unwrap();
        let ingest = |row: &Tuple| {
            sweeper
                .oracles()
                .ingest_batch(&IngestBatch::from_rows(std::slice::from_ref(row)))
                .unwrap()
        };
        let ids = sweeper.module_ids();
        assert_eq!(ids.len(), 3);
        // No executions yet: every module is vacuously safe, so the
        // antichain is the empty hidden set.
        let (sets, _) = sweeper.module_minimal_frontier(ids[0], 4).unwrap();
        assert_eq!(members(&sets), vec![AttrSet::new()]);
        assert_eq!(sweeper.sweeps_performed(), 1);

        // Each module's projection of the rows sent: what its streamed
        // store must hold after every ingest.
        let expected_rows = |id: ModuleId, sent: &[Tuple]| {
            let attrs = w.module(id).unwrap().attr_set();
            let o = sweeper.oracles().oracle(id).unwrap();
            let projected = sent.iter().map(|t| t.project(&attrs)).collect();
            let expected =
                sv_relation::Relation::from_rows(o.module().schema().clone(), projected).unwrap();
            assert_eq!(o.module().relation(), expected, "module {id:?}");
            expected
        };

        // Stream the four executions of the Figure-1 input space.
        let mut sent = Vec::new();
        for x0 in 0..2u32 {
            for x1 in 0..2u32 {
                let row = w.run(&[x0, x1]).unwrap();
                assert!(ingest(&row) > 0);
                sent.push(row);
                for &id in &ids {
                    expected_rows(id, &sent);
                }
            }
        }
        for &id in &ids {
            let _ = sweeper.module_minimal_frontier(id, 4).unwrap();
        }
        let after = sweeper.sweeps_performed();
        assert_eq!(after, 4, "one stale refresh + two fresh modules");
        // Re-deriving answers from the epoch memo: zero new sweeps.
        for &id in &ids {
            let _ = sweeper.module_minimal_frontier(id, 4).unwrap();
        }
        assert_eq!(sweeper.sweeps_performed(), after);
        // A duplicate execution changes nothing — memos stay valid.
        let row = w.run(&[0, 0]).unwrap();
        assert_eq!(ingest(&row), 0);
        for &id in &ids {
            let _ = sweeper.module_minimal_frontier(id, 4).unwrap();
        }
        assert_eq!(sweeper.sweeps_performed(), after);

        // Streamed sweeps equal sweeps over modules rebuilt from the
        // same observed provenance.
        for &id in &ids {
            let rebuilt = {
                let expected = expected_rows(id, &sent);
                let o = sweeper.oracles().oracle(id).unwrap();
                let m = o.module();
                StandaloneModule::new(expected, m.inputs().clone(), m.outputs().clone()).unwrap()
            };
            let (streamed, _) = sweeper.module_minimal_frontier(id, 4).unwrap();
            assert_eq!(
                members(&streamed),
                rebuilt.minimal_safe_hidden_sets(4).unwrap()
            );
        }
    }

    #[test]
    fn min_cost_memo_keyed_by_costs_and_epoch() {
        let w = one_one_chain(2, 2);
        let sweeper = WorkflowSweeper::for_workflow(&w, 1 << 20, SweepConfig::serial()).unwrap();
        let id = sweeper.module_ids()[0];
        let unit = sweeper.localize_costs(&vec![1u64; w.schema().len()]);
        let (r1, s1) = sweeper.module_min_cost(id, &unit, 2).unwrap();
        let n = sweeper.sweeps_performed();
        let (r2, s2) = sweeper.module_min_cost(id, &unit, 2).unwrap();
        assert_eq!((r1, s1), (r2, s2), "memo returns the original result");
        assert_eq!(sweeper.sweeps_performed(), n);
        // A different cost vector is a different question — and each
        // cost model keeps its own memo, so alternating between them
        // never re-sweeps.
        let doubled = sweeper.localize_costs(&vec![2u64; w.schema().len()]);
        let _ = sweeper.module_min_cost(id, &doubled, 2).unwrap();
        assert_eq!(sweeper.sweeps_performed(), n + 1);
        let _ = sweeper.module_min_cost(id, &unit, 2).unwrap();
        let _ = sweeper.module_min_cost(id, &doubled, 2).unwrap();
        assert_eq!(
            sweeper.sweeps_performed(),
            n + 1,
            "alternating cost models hit their own memos"
        );
        // union_of_optima rides the same memo.
        let before = sweeper.sweeps_performed();
        let _ = sweeper.union_of_optima(&unit, 2).unwrap();
        let mid = sweeper.sweeps_performed();
        assert!(mid > before, "first union swept the uncached modules");
        let _ = sweeper.union_of_optima(&unit, 2).unwrap();
        assert_eq!(sweeper.sweeps_performed(), mid);
    }

    #[test]
    fn minimal_frontier_answers_min_cost_without_a_sweep() {
        let w = one_one_chain(2, 2);
        let sweeper = WorkflowSweeper::for_workflow(&w, 1 << 20, SweepConfig::serial()).unwrap();
        let ids = sweeper.module_ids();
        let unit = sweeper.localize_costs(&vec![1u64; w.schema().len()]);
        // Sweep the antichains first; min-cost then reads the memoized
        // tries instead of running branch-and-bound lattices.
        let (frontiers, _) = sweeper.minimal_frontiers_all(&[2, 2]).unwrap();
        let n = sweeper.sweeps_performed();
        assert_eq!(n, 2, "one antichain sweep per module");
        for (&id, (fid, frontier)) in ids.iter().zip(&frontiers) {
            assert_eq!(id, *fid);
            assert!(!frontier.is_empty());
            let (found, stats) = sweeper.module_min_cost(id, &unit, 2).unwrap();
            // The frontier query must equal a fresh branch-and-bound sweep.
            let module = sweeper.oracles().oracle(id).unwrap().module().clone();
            let (swept, _) = min_cost_sweep(
                &fresh(&module),
                &vec![1u64; module.k()],
                2,
                &SweepConfig::serial(),
            )
            .unwrap();
            assert_eq!(found, swept);
            assert_eq!(stats.visited + stats.pruned, stats.lattice);
            assert!(stats.border_visited > 0, "stats come from the trie sweep");
        }
        assert_eq!(
            sweeper.sweeps_performed(),
            n,
            "min-cost answered by a frontier query, zero extra sweeps"
        );
        // union_of_optima rides the same zero-sweep path.
        let _ = sweeper.union_of_optima(&unit, 2).unwrap();
        assert_eq!(sweeper.sweeps_performed(), n);
    }

    #[test]
    fn sweeper_ingest_is_atomic_and_resweeps_only_moved_modules() {
        // fig1: m1(a1,a2) → (a3,a4,a5), m2(a3,a4) → a6, m3(a4,a5) → a7.
        let w = fig1_workflow();
        let gamma = 2;
        let sweeper =
            WorkflowSweeper::for_workflow_streaming(&w, SweepConfig::parallel(2)).unwrap();
        let store = sweeper.oracles();
        let ids = sweeper.module_ids();
        let run = |x: [u32; 2]| w.run(&x).unwrap();
        store
            .ingest_batch(&IngestBatch::new(vec![run([0, 0]), run([0, 1])]))
            .unwrap();
        let frontiers = || -> Vec<Arc<Frontier>> {
            ids.iter()
                .map(|&id| sweeper.module_minimal_frontier(id, gamma).unwrap().0)
                .collect()
        };
        let swept = frontiers();
        let epochs = store.epoch_snapshot();
        let sweeps = sweeper.sweeps_performed();

        // Row 1 is fresh and valid for m1 (input (1, 0) unseen) but
        // contradicts m2's recorded (a3, a4) = (0, 1) ↦ a6 = 1; row 0
        // is valid everywhere. The whole frame must fail.
        let mut bad = run([0, 0]);
        bad.set(AttrId(0), 1);
        bad.set(AttrId(5), 0);
        let err = store
            .ingest_batch(&IngestBatch::new(vec![run([1, 1]), bad]))
            .unwrap_err();
        assert_eq!(err, CoreError::NotAFunction.at_row(1));
        assert_eq!(store.epoch_snapshot(), epochs);
        for (before, after) in swept.iter().zip(frontiers()) {
            assert!(Arc::ptr_eq(before, &after), "memo survives a failed frame");
        }
        assert_eq!(sweeper.sweeps_performed(), sweeps);

        // Execution (1, 0) is new for m1, while its m2 and m3
        // projections repeat those of (0, 1): only m1's epoch moves,
        // and only m1 re-sweeps.
        store
            .ingest_batch(&IngestBatch::new(vec![run([1, 0])]))
            .unwrap();
        let moved: Vec<bool> = store
            .epoch_snapshot()
            .iter()
            .zip(&epochs)
            .map(|(now, then)| now.1 != then.1)
            .collect();
        assert_eq!(moved, [true, false, false]);
        let reswept = frontiers();
        assert_eq!(sweeper.sweeps_performed(), sweeps + 1);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(!Arc::ptr_eq(&swept[i], &reswept[i]), moved[i], "{id:?}");
            // The antichain is the serial reference over the very
            // module the store's probes answer from.
            let spec = {
                let o = store.oracle(id).unwrap();
                safety::minimal_safe_hidden_sets(o.module(), gamma).unwrap()
            };
            assert_eq!(members(&reswept[i]), spec, "{id:?}");
        }
    }

    #[test]
    fn frontier_stats_are_thread_independent() {
        // `frontier_nodes` is the canonical trie shape of the final
        // antichain, and `border_visited`/`border_jumps` are the serial
        // walk's exact emission/jump counts — all identical at every
        // thread count, so they gate exactly in CI.
        let m = m1();
        let (f1, s1) = minimal_sets_sweep(&fresh(&m), 4, &SweepConfig::serial(), None).unwrap();
        assert!(s1.border_visited > 0);
        assert_eq!(s1.visited, s1.border_visited, "every emitted mask probed");
        for threads in [2usize, 4, 8] {
            let (f2, s2) =
                minimal_sets_sweep(&fresh(&m), 4, &SweepConfig::parallel(threads), None).unwrap();
            assert_eq!(f1, f2, "threads={threads}");
            assert_eq!(s1.border_visited, s2.border_visited);
            assert_eq!(s1.border_jumps, s2.border_jumps);
            assert_eq!(s1.frontier_nodes, s2.frontier_nodes);
        }
        assert_eq!(s1.frontier_nodes, f1.node_count() as u64);
    }

    #[test]
    fn union_of_optima_errors_when_a_module_is_unsatisfiable() {
        // Γ = 4 exceeds the boolean-output modules' full range (2), so
        // some module admits no safe subset: the cross-module sweep
        // must cancel and report BudgetExceeded at any thread count.
        let w = fig1_workflow();
        for threads in [1usize, 4] {
            let sweeper =
                WorkflowSweeper::for_workflow(&w, 1 << 20, SweepConfig::parallel(threads)).unwrap();
            let wc = sweeper.localize_costs(&[1u64; 7]);
            let err = sweeper.union_of_optima(&wc, 4).unwrap_err();
            assert!(
                matches!(err, CoreError::BudgetExceeded { .. }),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn no_safe_set_reported_as_none() {
        let m = m1(); // |Range| = 8, so Γ = 9 is unsatisfiable
        let (found, stats) =
            min_cost_sweep(&fresh(&m), &[1; 5], 9, &SweepConfig::parallel(4)).unwrap();
        assert!(found.is_none());
        assert_eq!(
            stats.visited, stats.lattice,
            "nothing safe ⇒ nothing pruned"
        );
        let (sets, _) = minimal_sets_sweep(&fresh(&m), 9, &SweepConfig::parallel(4), None).unwrap();
        assert!(sets.is_empty());
    }

    #[test]
    fn too_many_attributes_rejected() {
        // A module cannot actually be built this wide cheaply; fake the
        // check through the public entry contract instead.
        let m = m1();
        assert!(min_cost_sweep(&fresh(&m), &[1; 5], 2, &SweepConfig::serial()).is_ok());
        assert!(matches!(
            check_k(MAX_DENSE_ATTRS + 1),
            Err(CoreError::TooManyAttributes { .. })
        ));
    }
}
