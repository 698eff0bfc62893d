//! The **safety-oracle layer**: one narrow trait every upper layer
//! programs against, plus a memoizing implementation that answers each
//! distinct safety question **once per module instance** no matter which
//! optimizer asks.
//!
//! The paper's stack asks the same question everywhere: *"what privacy
//! level does visible set `V` give module `m`?"* — standalone checking
//! (Definition 2 via Lemma 4), the requirement-list derivations (§4.2),
//! the Secure-View optimizers, and the Theorem-1/3 experiments. The key
//! structural fact is that the full **privacy level**
//! `min_x |OUT_x| = min-group-distinct × ∏ hidden-output domains`
//! determines `is_safe(V, Γ)` for *every* `Γ` at once, so a per-`V`
//! level cache subsumes all Γ-specific probes.
//!
//! Layering:
//!
//! * [`SafetyOracle`] — the trait: `privacy_level` / `is_safe` /
//!   `is_safe_hidden`, every one asked about an [`AttrSet`] (the dense
//!   subset enumerations walk raw masks and convert with
//!   [`AttrSet::from_word`], which never allocates);
//! * [`StandaloneModule`] — the uncached oracle: every probe runs one
//!   Lemma-4 pass on the module's interned kernel (what the one-shot
//!   §3 methods and the serial references use);
//! * [`MemoSafetyOracle`] — the cached oracle: one `V → level` cache
//!   keyed by the canonical visible set makes repeated queries O(1)
//!   lookups with zero allocation, and it is the one oracle that counts
//!   its probes ([`MemoSafetyOracle::calls`]);
//! * [`NaiveOracle`] — the row-at-a-time seed semantics
//!   (`ops::reference`), kept as the property-test specification and
//!   benchmark baseline;
//! * [`WorkflowOracles`] — one memoized oracle per private module of a
//!   workflow, materialized once: the module store the workflow sweeper
//!   derives every requirement list and instance from, the serving tier
//!   probes, and the bench harness reads.
//!
//! ### One probe path
//!
//! Serving, sweeps and optimizers ask through the same memo path: a
//! probe that misses the level cache computes one Lemma-4 pass (in the
//! calling thread's pair-pass buffer, whichever thread that is) and
//! stamps the level, so each distinct visible set costs one kernel
//! evaluation per module epoch however many requests (or Γ values) ask
//! about it. [`WorkflowOracles::probe_batch`] routes **mixed-module
//! batches** of [`ProbeRequest`]s to each module's oracle and answers
//! every request with that oracle's [`SafetyOracle::is_safe`], after
//! validating the whole batch up front (unknown module or stale
//! [`ProbeRequest::epoch`] ⇒ the batch fails before any memo state is
//! touched).
//!
//! ### Concurrent reads, sharded writes
//!
//! Every probe in this module takes **`&self`**: [`MemoSafetyOracle`]
//! keeps its level cache in `MEMO_SHARDS` (16) read-mostly lock shards
//! (epoch-stamped entries, monotone shortcut preserved), so warm
//! probes from any number of serving threads — and the sweep workers
//! probing the same oracle — proceed in parallel on shard
//! read-locks. [`WorkflowOracles::probe_batch`] is likewise `&self`.
//! Writes are **sharded per module** and **serialized per store**:
//! [`WorkflowOracles`] holds each module's oracle behind its own
//! `RwLock`, and the batch-ingest path
//! ([`WorkflowOracles::validate_batch`] →
//! [`WorkflowOracles::apply_batch`]) takes the store's one writer lock,
//! checks a whole [`IngestBatch`] against the workflow schema and every
//! module under read locks, then applies per-module mutations
//! concurrently. The [`ValidatedBatch`] holds the writer lock until its
//! epochs are published, so what validation proved still holds when
//! the rows land, and a frame lands in every module or in none. A probe
//! only waits for the one module currently being appended, never for
//! the whole workflow. New epochs are published through a seqlock-style
//! epoch pair
//! ([`WorkflowOracles::epoch_snapshot`]), so epoch reads never block
//! on an in-flight append, and epoch-conditioned requests
//! ([`ProbeRequest::epoch`]) let clients detect an append that slipped
//! between deriving a question and asking it
//! ([`CoreError::StaleEpoch`]). That batch path is the only way
//! workflow rows enter a [`WorkflowOracles`]; the workflow sweeper
//! ([`crate::sweep::WorkflowSweeper`]) reads its modules from the same
//! store rather than keeping copies.
//!
//! The instrumented black-box interface of the Theorem-3 experiments
//! ([`crate::oracle::SafeViewOracle`]) sits *on top* of this layer:
//! [`crate::oracle::HonestOracle`] is a Γ-fixing adapter around a
//! [`MemoSafetyOracle`].
//!
//! ### Serial reference vs. parallel sweep
//!
//! The lattice enumerations in this module —
//! [`min_cost_safe_hidden`] and [`minimal_safe_hidden_sets`] — walk the
//! `2^k` hidden-set masks **serially** through a `&dyn
//! SafetyOracle`. They are deliberately kept simple: they are the
//! executable specification the property suites compare the parallel
//! uncovered-border sweep ([`crate::sweep`]) against at 1/2/4/8
//! threads. Everything else sweeps through [`crate::sweep`], which
//! probes the [`MemoSafetyOracle`] its caller passes and builds none of
//! its own. A [`WorkflowOracles`] store's sweeps therefore leave their
//! levels in the store's memo, where later sweeps, serving probes and
//! requirement derivations find them: a Γ family of sweeps over one
//! module evaluates each visible set once per module epoch. The memo
//! keeps those levels for the oracle's lifetime; nothing bounds it yet.
//!
//! ### The antichain pruning invariant (Proposition 1)
//!
//! Safety is **monotone** in the hidden set: if hiding `V̄` is
//! Γ-standalone-safe, so is hiding any `V̄' ⊇ V̄` (hiding more never
//! reveals more). Consequently the ⊆-minimal safe hidden sets form an
//! **antichain** that generates *all* safe hidden sets by superset
//! closure, and any lattice search may skip the entire up-set of a
//! known-safe set without probing it. [`minimal_safe_hidden_sets`]
//! exploits this by enumerating masks in ascending-popcount order and
//! skipping supersets of already-found minimal sets; the parallel sweep
//! never even enumerates those supersets (it walks only the antichain's
//! uncovered border) and adds a layer cutoff (once a whole popcount
//! layer is covered by the antichain, every higher layer is covered too
//! and the remaining up-sets are skipped wholesale — see
//! [`crate::sweep::minimal_sets_sweep`]).

use crate::error::CoreError;
use crate::standalone::{StandaloneModule, MAX_DENSE_ATTRS};
use crate::sweep::layer_masks;
use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard};
use sv_relation::{AttrSet, Relation, Schema, Tuple};
use sv_workflow::{ModuleId, Workflow};

/// Number of lock shards in the memoized oracle's level caches.
/// Warm probes take only one shard **read**-lock, so serving threads
/// hitting different visible sets (different shards) share nothing but
/// a read-mostly lock each; 16 shards comfortably cover the 1–8 serving
/// threads the ROADMAP targets and the sweep worker cap.
const MEMO_SHARDS: usize = 16;

/// The level-cache shard a canonical visible set hashes to (the
/// [`sv_relation::hash_shard`] scheme the kernel's group caches use).
fn memo_shard(set: &AttrSet) -> usize {
    sv_relation::hash_shard(set, MEMO_SHARDS)
}

/// The standalone-privacy question, asked through one interface by
/// every layer above the kernel.
///
/// Every probe takes **`&self`**: implementations memoize behind
/// interior shared state (sharded read-mostly maps, atomic counters),
/// so one oracle instance can serve any number of concurrent reader
/// threads — the serving tier shares a single warm instance across
/// threads instead of cloning cold ones. The only mutating operations
/// are the streaming appends (`&mut self` on the concrete types), which
/// Rust's aliasing rules exclude from overlapping any probe. There is
/// one implementation per caching policy: the module itself answers
/// uncached, [`MemoSafetyOracle`] cached (and counts its probes).
///
/// # Examples
/// ```
/// use sv_core::safety::SafetyOracle;
/// use sv_core::{MemoSafetyOracle, StandaloneModule};
/// use sv_relation::AttrSet;
/// use sv_workflow::{library::fig1_workflow, ModuleId};
///
/// let m = StandaloneModule::from_workflow_module(&fig1_workflow(), ModuleId(0), 1 << 20)
///     .unwrap();
/// let memo = MemoSafetyOracle::new(m.clone());
/// // Example 3 of the paper: V = {a1, a3, a5} is safe for Γ = 4 —
/// // and the full privacy level answers every Γ at once.
/// let v = AttrSet::from_indices(&[0, 2, 4]);
/// for oracle in [&m as &dyn SafetyOracle, &memo] {
///     assert!(oracle.is_safe(&v, 4));
///     assert_eq!(oracle.privacy_level(&v), 4);
/// }
/// // The memo answered both questions from one kernel evaluation.
/// assert_eq!((memo.calls(), memo.misses()), (2, 1));
/// ```
pub trait SafetyOracle {
    /// The module the oracle answers for.
    fn module(&self) -> &StandaloneModule;

    /// Number of attributes `k = |I| + |O|`.
    fn k(&self) -> usize {
        self.module().k()
    }

    /// The privacy level of `visible`: `min_x |OUT_x|`
    /// (`u128::MAX` on an empty relation). Determines
    /// [`is_safe`](Self::is_safe) for every Γ.
    fn privacy_level(&self, visible: &AttrSet) -> u128;

    /// Γ-standalone-privacy (Definition 2 / Lemma 4).
    fn is_safe(&self, visible: &AttrSet, gamma: u128) -> bool {
        gamma <= 1 || self.privacy_level(visible) >= gamma
    }

    /// Safety phrased on the hidden set `V̄` (`V = A \ V̄`).
    fn is_safe_hidden(&self, hidden: &AttrSet, gamma: u128) -> bool {
        gamma <= 1 || self.is_safe(&hidden.complement(self.k()), gamma)
    }

    /// The **versioned probe path**: the generation of the module
    /// relation the oracle currently answers for
    /// ([`StandaloneModule::epoch`]). Streaming consumers compare this
    /// against the epoch a derived result (requirement list, sweep
    /// antichain) was computed at to decide whether it is still
    /// current; memoizing implementations additionally stamp each cache
    /// entry with it.
    fn relation_epoch(&self) -> u64 {
        self.module().epoch()
    }
}

/// The uncached oracle: every probe runs one Lemma-4 pass on the
/// module's kernel, through the module's own [`is_safe`](StandaloneModule::is_safe)
/// and [`privacy_level`](StandaloneModule::privacy_level).
impl SafetyOracle for StandaloneModule {
    fn module(&self) -> &StandaloneModule {
        self
    }

    fn privacy_level(&self, visible: &AttrSet) -> u128 {
        StandaloneModule::privacy_level(self, visible)
    }

    fn is_safe(&self, visible: &AttrSet, gamma: u128) -> bool {
        StandaloneModule::is_safe(self, visible, gamma)
    }
}

/// The row-at-a-time seed semantics as an oracle — the executable
/// specification ([`sv_relation::ops::reference`]) and the benchmark
/// baseline the interned kernel is measured against.
///
/// [`new`](Self::new) materializes the module's rows once as a
/// canonical [`Relation`]; every probe then groups those rows afresh
/// (`HashMap<Tuple, _>` per visible-input value), touching neither the
/// kernel's groupings nor any memo.
pub struct NaiveOracle {
    module: StandaloneModule,
    relation: Relation,
}

impl NaiveOracle {
    /// Wraps `module`, materializing its relation.
    #[must_use]
    pub fn new(module: StandaloneModule) -> Self {
        Self {
            relation: module.relation(),
            module,
        }
    }
}

impl SafetyOracle for NaiveOracle {
    fn module(&self) -> &StandaloneModule {
        &self.module
    }

    fn privacy_level(&self, visible: &AttrSet) -> u128 {
        let m = &self.module;
        let h = m.schema().domain_product(&m.outputs().difference(visible));
        sv_relation::ops::reference::group_count_distinct(
            &self.relation,
            &m.inputs().intersection(visible),
            &m.outputs().intersection(visible),
        )
        .values()
        .map(|&d| (d as u128).saturating_mul(h))
        .min()
        .unwrap_or(u128::MAX)
    }
}

/// The memoizing oracle: per visible set, the full privacy level is
/// computed once on the interned kernel and cached, keyed by the set
/// restricted to the module's attributes (one inline word for
/// `k ≤ 64`), so sets differing only outside the schema share one
/// entry. Repeated `is_safe` queries — for any Γ — are O(1) hash
/// lookups with no allocation.
///
/// ### Concurrency: sharded read-mostly level cache
///
/// Every probe takes `&self`. The level cache is split into
/// `MEMO_SHARDS` (16) lock shards keyed by visible-set hash, so a **warm
/// hit takes only one shard read-lock** — N serving threads firing
/// warm probes at one shared instance proceed in parallel, and sweep
/// workers sharing the instance turn one worker's cache fill into warm
/// hits for all others. A miss computes the level *outside* any lock
/// (two racing threads may both compute the same level; both write the
/// identical epoch-stamped value, so correctness is unaffected and the
/// instrumentation counters are upper bounds under contention —
/// exact in any single-threaded run, which is what the counter-gated
/// benches use). The only mutation is an append, through
/// [`append_execution`](Self::append_execution) or a
/// [`WorkflowOracles`] store's validated batch, and both need `&mut`:
/// Rust statically guarantees no probe overlaps an append, which is
/// what keeps the epoch stamps race-free.
///
/// ### Streaming: epoch-stamped entries and the monotone shortcut
///
/// Every cache entry carries the relation epoch it was computed at.
/// When executions are appended
/// ([`append_execution`](Self::append_execution)), nothing is flushed:
/// a stale entry is revalidated **lazily** on its next probe, and the
/// grouped-counting structure of the Lemma-4 condition lets many
/// entries survive without touching the kernel at all. Appending rows
/// can only *grow* the distinct-output count of an existing
/// visible-input group; the privacy level can drop only when an append
/// creates a **new** visible-input group (a fresh group may contribute
/// a new, smaller minimum). The kernel tracks exactly that
/// ([`sv_relation::InternedRelation::group_new_group_epoch`]), so
/// a stale `is_safe(V, Γ)` with a cached level `≥ Γ` whose key grouping
/// gained no new group since the entry was stamped is answered `true`
/// from the cache — the cached level is a sound lower bound.
///
/// # Examples
/// ```
/// use sv_core::{MemoSafetyOracle, SafetyOracle, StandaloneModule};
/// use sv_relation::{AttrSet, Relation, Schema, Tuple};
///
/// let schema = Schema::booleans(&["i1", "i2", "o"]);
/// let rows = vec![vec![0, 0, 0], vec![0, 1, 1]];
/// let m = StandaloneModule::new(
///     Relation::from_values(schema, rows).unwrap(),
///     AttrSet::from_indices(&[0, 1]),
///     AttrSet::from_indices(&[2]),
/// )
/// .unwrap();
/// let mut oracle = MemoSafetyOracle::new(m);
/// // V = {i1, o}: i2 is hidden, so the group i1=0 shows 2 outputs.
/// let v = AttrSet::from_indices(&[0, 2]);
/// assert_eq!(oracle.privacy_level(&v), 2);
///
/// // Stream a new execution into the oracle's module: the cache entry
/// // is revalidated lazily, not flushed.
/// oracle.append_execution(&[Tuple::new(vec![1, 0, 1])]).unwrap();
/// assert_eq!(oracle.privacy_level(&v), 1, "new input group lowered the level");
/// ```
pub struct MemoSafetyOracle {
    module: StandaloneModule,
    /// Sharded canonical visible set → (privacy level, epoch it was
    /// computed at).
    shards: Vec<RwLock<HashMap<AttrSet, (u128, u64)>>>,
    calls: AtomicU64,
    misses: AtomicU64,
    revalidations: AtomicU64,
    shortcut_hits: AtomicU64,
}

/// What the level cache knows about a probe without kernel work; see
/// [`MemoSafetyOracle::probe_cache`].
enum CacheProbe {
    /// The cache decides the probe: an epoch-current entry either way,
    /// or the monotone shortcut on a stale-but-sufficient one.
    Answer(bool),
    /// The level must be (re)computed; `stale` records whether an entry
    /// existed (making the recompute a revalidation).
    Compute { stale: bool },
}

impl MemoSafetyOracle {
    /// Wraps `module` with an empty cache.
    #[must_use]
    pub fn new(module: StandaloneModule) -> Self {
        Self {
            module,
            shards: (0..MEMO_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            calls: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            revalidations: AtomicU64::new(0),
            shortcut_hits: AtomicU64::new(0),
        }
    }

    /// The wrapped standalone module (read access; streaming goes
    /// through [`append_execution`](Self::append_execution)).
    #[must_use]
    pub fn module(&self) -> &StandaloneModule {
        &self.module
    }

    /// Probes answered so far: every [`SafetyOracle::is_safe`],
    /// [`SafetyOracle::is_safe_hidden`] and
    /// [`SafetyOracle::privacy_level`] call counts exactly one, at every
    /// Γ, whether the cache or the kernel answers it.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Probes that missed the cache (kernel evaluations).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Kernel evaluations that *refreshed* a stale (pre-append) entry —
    /// a subset of [`misses`](Self::misses).
    #[must_use]
    pub fn revalidations(&self) -> u64 {
        self.revalidations.load(Ordering::Relaxed)
    }

    /// Stale `is_safe` probes answered from the cache via the monotone
    /// lower bound, with zero kernel work.
    #[must_use]
    pub fn monotone_shortcut_hits(&self) -> u64 {
        self.shortcut_hits.load(Ordering::Relaxed)
    }

    /// Number of cached distinct visible sets.
    #[must_use]
    pub fn cached_levels(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("memo shard lock").len())
            .sum()
    }

    /// Streams newly observed executions into the wrapped module
    /// ([`StandaloneModule::append_execution`]). Cached levels are kept
    /// and revalidated lazily against the new epoch on their next
    /// probe.
    ///
    /// # Errors
    /// Propagates append validation failures (domains, FD); on error
    /// the module and cache are unchanged.
    pub fn append_execution(&mut self, rows: &[sv_relation::Tuple]) -> Result<usize, CoreError> {
        self.module.append_execution(rows)
    }

    /// `visible` restricted to the module's attributes: the cache key.
    fn canonical(&self, visible: &AttrSet) -> AttrSet {
        visible.intersection(&self.module.schema().all_attrs())
    }

    /// The cache entry of a canonical visible set (one shard read-lock).
    fn cached(&self, visible: &AttrSet) -> Option<(u128, u64)> {
        self.shards[memo_shard(visible)]
            .read()
            .expect("memo shard lock")
            .get(visible)
            .copied()
    }

    /// Computes and epoch-stamps the level of a canonical visible set,
    /// counting the miss (and the revalidation, when `stale`). Runs
    /// outside every shard lock.
    fn recompute_level(&self, visible: AttrSet, stale: bool) -> u128 {
        if stale {
            self.revalidations.fetch_add(1, Ordering::Relaxed);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let epoch = self.module.epoch();
        let level = self.module.privacy_level(&visible);
        self.shards[memo_shard(&visible)]
            .write()
            .expect("memo shard lock")
            .insert(visible, (level, epoch));
        level
    }

    /// Memoized level of a canonical visible set.
    fn level(&self, visible: AttrSet) -> u128 {
        match self.cached(&visible) {
            Some((l, e)) if e == self.module.epoch() => l,
            other => self.recompute_level(visible, other.is_some()),
        }
    }

    /// The cache's answer to `is_safe` **without kernel work**, if it
    /// has one: an epoch-current entry decides either way; a stale
    /// entry with a sufficient level still answers `true` when the
    /// visible-input grouping gained no new group since the stamp (the
    /// monotone shortcut — appends can only raise the Lemma-4 minimum
    /// then). [`CacheProbe::Compute`] means the probe must (re)compute
    /// the level. This is the single home of the shortcut soundness
    /// condition. Takes only one shard read-lock.
    fn probe_cache(&self, visible: &AttrSet, gamma: u128) -> CacheProbe {
        let Some((l, e)) = self.cached(visible) else {
            return CacheProbe::Compute { stale: false };
        };
        if e == self.module.epoch() {
            return CacheProbe::Answer(l >= gamma);
        }
        if l >= gamma {
            // Stale but sufficient: still `true` if the visible-input
            // grouping gained no new group since the stamp.
            let key = self.module.inputs().intersection(visible);
            if self
                .module
                .kernel()
                .group_new_group_epoch(&key)
                .is_some_and(|ge| ge <= e)
            {
                self.shortcut_hits.fetch_add(1, Ordering::Relaxed);
                return CacheProbe::Answer(true);
            }
        }
        CacheProbe::Compute { stale: true }
    }

    /// `is_safe` on a canonical visible set, taking the monotone
    /// shortcut for stale entries when it is sound (see the type-level
    /// docs).
    fn safe(&self, visible: AttrSet, gamma: u128) -> bool {
        match self.probe_cache(&visible, gamma) {
            CacheProbe::Answer(a) => a,
            CacheProbe::Compute { stale } => self.recompute_level(visible, stale) >= gamma,
        }
    }
}

impl SafetyOracle for MemoSafetyOracle {
    fn module(&self) -> &StandaloneModule {
        &self.module
    }

    fn privacy_level(&self, visible: &AttrSet) -> u128 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.level(self.canonical(visible))
    }

    fn is_safe(&self, visible: &AttrSet, gamma: u128) -> bool {
        self.calls.fetch_add(1, Ordering::Relaxed);
        gamma <= 1 || self.safe(self.canonical(visible), gamma)
    }

    /// Counts the call, then asks about the complement, which lies
    /// inside the module's `k` attributes and so needs no
    /// canonicalizing.
    fn is_safe_hidden(&self, hidden: &AttrSet, gamma: u128) -> bool {
        self.calls.fetch_add(1, Ordering::Relaxed);
        gamma <= 1 || self.safe(hidden.complement(self.module.k()), gamma)
    }
}

/// Standalone **Secure-View** through an oracle: minimum-cost hidden
/// subset `V̄` such that the module is Γ-private w.r.t. `V = A \ V̄`,
/// by budget-pruned dense subset enumeration.
///
/// # Errors
/// [`CoreError::TooManyAttributes`] if `k > MAX_DENSE_ATTRS`.
///
/// # Panics
/// Panics unless `costs.len() == k`.
pub fn min_cost_safe_hidden(
    oracle: &dyn SafetyOracle,
    costs: &[u64],
    gamma: u128,
) -> Result<Option<(AttrSet, u64)>, CoreError> {
    let k = oracle.k();
    if k > MAX_DENSE_ATTRS {
        return Err(CoreError::TooManyAttributes {
            k,
            max: MAX_DENSE_ATTRS,
        });
    }
    assert_eq!(costs.len(), k, "one cost per attribute");
    let mut best: Option<(u64, u64)> = None; // (mask, cost)
    for mask in 0u64..(1u64 << k) {
        let cost: u64 = (0..k)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| costs[i])
            .sum();
        if let Some((_, b)) = best {
            if cost >= b {
                continue;
            }
        }
        if oracle.is_safe_hidden(&AttrSet::from_word(mask), gamma) {
            best = Some((mask, cost));
        }
    }
    Ok(best.map(|(mask, cost)| (AttrSet::from_word(mask), cost)))
}

/// All ⊆-minimal safe hidden subsets through an oracle — the module's
/// set-constraints requirement list `L_i` (§4.2). Safety is monotone in
/// the hidden set (Proposition 1), so these form an antichain
/// generating all safe hidden sets by superset closure.
///
/// This serial flat-scan walk is the **executable specification** for
/// the production path: [`crate::sweep::minimal_sets_sweep`] must
/// return exactly this list (the trie-backed [`crate::Frontier`] sweep
/// is property-tested against it in `tests/frontier_prop.rs`), and the
/// linear `minimal.iter().any(|&m| m & mask == m)` coverage test below
/// is the reference the sublinear `Frontier::covers` replaces. Keep it
/// simple: the coverage test is deliberately linear. The masks are
/// generated layer by layer in that order, not collected and sorted, so
/// the walk allocates only its result.
///
/// # Errors
/// [`CoreError::TooManyAttributes`] if `k > MAX_DENSE_ATTRS`.
pub fn minimal_safe_hidden_sets(
    oracle: &dyn SafetyOracle,
    gamma: u128,
) -> Result<Vec<AttrSet>, CoreError> {
    let k = oracle.k();
    if k > MAX_DENSE_ATTRS {
        return Err(CoreError::TooManyAttributes {
            k,
            max: MAX_DENSE_ATTRS,
        });
    }
    // Enumerate by increasing popcount, each layer ascending: a safe
    // set is minimal iff no previously found (smaller) safe set is a
    // subset of it.
    let mut minimal: Vec<u64> = Vec::new();
    for mask in (0..=k).flat_map(|p| layer_masks(k, p)) {
        #[allow(clippy::manual_contains)] // subset test, not equality
        if minimal.iter().any(|&m| m & mask == m) {
            continue; // superset of a known minimal safe set
        }
        if oracle.is_safe_hidden(&AttrSet::from_word(mask), gamma) {
            minimal.push(mask);
        }
    }
    Ok(minimal.into_iter().map(AttrSet::from_word).collect())
}

/// One serving-layer safety question, addressed to a private module of
/// a workflow: *"is visible set `V` safe for `Γ` on module `m`?"* —
/// optionally conditioned on the relation epoch the client derived its
/// question from. Batches of these are routed by
/// [`WorkflowOracles::probe_batch`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProbeRequest {
    /// The private module the probe addresses.
    pub module: ModuleId,
    /// The visible attribute set `V` (module-local ids).
    pub visible: AttrSet,
    /// The privacy requirement Γ.
    pub gamma: u128,
    /// If set, the relation epoch this probe is conditioned on: the
    /// batch is rejected ([`CoreError::StaleEpoch`]) — touching no
    /// oracle state — when the module has moved past it.
    pub epoch: Option<u64>,
}

impl ProbeRequest {
    /// An unconditional probe (no epoch requirement).
    #[must_use]
    pub fn new(module: ModuleId, visible: AttrSet, gamma: u128) -> Self {
        Self {
            module,
            visible,
            gamma,
            epoch: None,
        }
    }

    /// Conditions the probe on a relation epoch.
    #[must_use]
    pub fn at_epoch(mut self, epoch: u64) -> Self {
        self.epoch = Some(epoch);
        self
    }
}

/// The answer to one [`ProbeRequest`], in request order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProbeOutcome {
    /// The module the probe addressed.
    pub module: ModuleId,
    /// Whether the visible set is Γ-standalone-safe.
    pub safe: bool,
    /// The module's relation epoch the answer is valid at.
    pub epoch: u64,
}

/// One memoized safety oracle per **private** module of a workflow,
/// materialized once and shared across every consumer: the
/// [`crate::sweep::WorkflowSweeper`] that derives every workflow-level
/// Secure-View answer sweeps it, the serving tier probes it, and the
/// benches read its counters. This is what makes "identical safety
/// queries are answered once per instance, regardless of which
/// optimizer asks" true end-to-end.
///
/// The store serializes its own writers: a [`ValidatedBatch`] holds
/// the writer lock from [`validate_batch`](Self::validate_batch) until
/// [`apply_batch`](Self::apply_batch) has published, so any number of
/// threads may ingest into one shared store.
pub struct WorkflowOracles {
    entries: Vec<OracleEntry>,
    /// Module id → `entries` index, fixed at construction — the batch
    /// router's O(1) lookup ([`probe_batch`](Self::probe_batch)).
    by_id: HashMap<ModuleId, usize>,
    /// Seqlock sequence for epoch publication: odd while a publication
    /// is in flight, even when the published epochs are a consistent
    /// cut. [`epoch_snapshot`](Self::epoch_snapshot) spins on this
    /// instead of taking any module lock.
    epoch_seq: AtomicU64,
    /// The workflow schema every ingested row is checked against.
    schema: Schema,
    /// The single-writer lock a [`ValidatedBatch`] holds.
    writer: Mutex<()>,
}

/// One private module's oracle plus the global attribute set needed to
/// slice workflow-level provenance rows down to the module sub-schema.
///
/// The oracle sits behind its **own** lock: probes and appends to
/// *different* modules never contend, which is what lets
/// [`WorkflowOracles::apply_batch`] mutate modules concurrently while
/// probes keep flowing to the others.
struct OracleEntry {
    id: ModuleId,
    /// The module's attributes in **global** (workflow-schema) ids.
    attrs: AttrSet,
    oracle: RwLock<MemoSafetyOracle>,
    /// The module's last *published* relation epoch. Guarded by the
    /// seqlock pair in [`WorkflowOracles::epoch_seq`], not by `oracle`'s
    /// lock — epoch readers never touch the module lock.
    published: AtomicU64,
}

impl OracleEntry {
    fn new(id: ModuleId, attrs: AttrSet, oracle: MemoSafetyOracle) -> Self {
        let published = AtomicU64::new(oracle.relation_epoch());
        Self {
            id,
            attrs,
            oracle: RwLock::new(oracle),
            published,
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, MemoSafetyOracle> {
        self.oracle.read().expect("module oracle lock poisoned")
    }
}

/// A shared read guard over one module's memoized oracle, handed out by
/// [`WorkflowOracles::oracle`] / [`WorkflowOracles::iter`]. Derefs to
/// [`MemoSafetyOracle`], so probe call sites are unchanged; holding it
/// blocks only appends **to this module**, never the rest of the
/// workflow.
pub struct OracleGuard<'a> {
    guard: RwLockReadGuard<'a, MemoSafetyOracle>,
}

impl Deref for OracleGuard<'_> {
    type Target = MemoSafetyOracle;

    fn deref(&self) -> &MemoSafetyOracle {
        &self.guard
    }
}

/// A typed batch of workflow-schema provenance rows headed for ingest —
/// the unit of the batch-ingest surface
/// ([`WorkflowOracles::validate_batch`] →
/// [`WorkflowOracles::apply_batch`]). Frames are all-or-nothing: either
/// every row of the batch is applied to every module, or none is.
#[derive(Clone, Debug, Default)]
pub struct IngestBatch {
    rows: Vec<sv_relation::Tuple>,
}

impl IngestBatch {
    /// Wraps workflow-schema rows (e.g. from [`Workflow::run`]).
    #[must_use]
    pub fn new(rows: Vec<sv_relation::Tuple>) -> Self {
        Self { rows }
    }

    /// Builds a batch by cloning a row slice.
    #[must_use]
    pub fn from_rows(rows: &[sv_relation::Tuple]) -> Self {
        Self {
            rows: rows.to_vec(),
        }
    }

    /// The batch's rows, in arrival order.
    #[must_use]
    pub fn rows(&self) -> &[sv_relation::Tuple] {
        &self.rows
    }

    /// Number of rows in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the batch holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Proof that an [`IngestBatch`] validated against the workflow schema
/// and every module of a [`WorkflowOracles`]: the per-module
/// projections, ready to apply. Produced by
/// [`WorkflowOracles::validate_batch`], consumed by
/// [`WorkflowOracles::apply_batch`]. It holds the store's writer lock,
/// so no other batch validates or applies until this one has been
/// applied and published, or dropped: what it proved stays true.
pub struct ValidatedBatch<'a> {
    store: &'a WorkflowOracles,
    /// Per `entries` index: the batch's projections, batch order.
    projections: Vec<Vec<Tuple>>,
    _writer: MutexGuard<'a, ()>,
}

/// Batches at least this large (rows × modules) apply their per-module
/// mutations on scoped threads; smaller frames stay on the caller's
/// thread (spawn cost would dominate).
const PARALLEL_APPLY_MIN_WORK: usize = 256;

impl WorkflowOracles {
    /// Materializes each private module's relation (budget-capped) and
    /// wraps it in a [`MemoSafetyOracle`].
    ///
    /// # Errors
    /// Propagates module-materialization failures
    /// ([`CoreError::Workflow`] budget errors).
    pub fn for_workflow(workflow: &Workflow, budget: u128) -> Result<Self, CoreError> {
        let mut entries = Vec::new();
        for id in workflow.private_modules() {
            let sm = StandaloneModule::from_workflow_module(workflow, id, budget)?;
            entries.push(OracleEntry::new(
                id,
                workflow.module(id)?.attr_set(),
                MemoSafetyOracle::new(sm),
            ));
        }
        Ok(Self::from_entries(workflow, entries))
    }

    /// The **streaming** constructor: every private module starts with
    /// an empty relation (no executions recorded) and grows through
    /// [`ingest_batch`](Self::ingest_batch) (or
    /// [`validate_batch`](Self::validate_batch) →
    /// [`apply_batch`](Self::apply_batch)) as provenance arrives.
    /// Privacy answers are with respect to the executions recorded so
    /// far.
    ///
    /// # Errors
    /// Propagates structural workflow errors.
    pub fn for_workflow_streaming(workflow: &Workflow) -> Result<Self, CoreError> {
        let mut entries = Vec::new();
        for id in workflow.private_modules() {
            let sm = StandaloneModule::empty_from_workflow_module(workflow, id)?;
            entries.push(OracleEntry::new(
                id,
                workflow.module(id)?.attr_set(),
                MemoSafetyOracle::new(sm),
            ));
        }
        Ok(Self::from_entries(workflow, entries))
    }

    fn from_entries(workflow: &Workflow, entries: Vec<OracleEntry>) -> Self {
        let by_id = entries.iter().enumerate().map(|(i, e)| (e.id, i)).collect();
        Self {
            entries,
            by_id,
            epoch_seq: AtomicU64::new(0),
            schema: workflow.schema().clone(),
            writer: Mutex::new(()),
        }
    }

    /// Checks every row against the workflow schema (arity, domains),
    /// positioned at its index, so no projection reads past a row.
    fn check_rows(&self, rows: &[Tuple]) -> Result<(), CoreError> {
        for (i, row) in rows.iter().enumerate() {
            self.schema
                .check_row(row)
                .map_err(|e| CoreError::from(e).at_row(i))?;
        }
        Ok(())
    }

    /// Re-reads every module's relation epoch and publishes the vector
    /// through the seqlock pair: bump to odd, store, bump back to even.
    /// Callers hold the writer lock (through a [`ValidatedBatch`]) or
    /// `&mut self`; concurrent [`epoch_snapshot`](Self::epoch_snapshot)
    /// readers retry instead of blocking.
    fn publish_epochs(&self) {
        self.epoch_seq.fetch_add(1, Ordering::AcqRel);
        for e in &self.entries {
            e.published
                .store(e.read().relation_epoch(), Ordering::Release);
        }
        self.epoch_seq.fetch_add(1, Ordering::AcqRel);
    }

    /// A consistent `(module, epoch)` cut across every module — the
    /// seqlock read side. Lock-free: never touches a module lock, so
    /// epoch reads (and probe-batch validation) proceed even while an
    /// append holds a module's write lock. Entries come back in
    /// `private_modules()` order.
    #[must_use]
    pub fn epoch_snapshot(&self) -> Vec<(ModuleId, u64)> {
        loop {
            let begin = self.epoch_seq.load(Ordering::Acquire);
            if begin & 1 == 0 {
                let snap: Vec<(ModuleId, u64)> = self
                    .entries
                    .iter()
                    .map(|e| (e.id, e.published.load(Ordering::Acquire)))
                    .collect();
                if self.epoch_seq.load(Ordering::Acquire) == begin {
                    return snap;
                }
            }
            std::hint::spin_loop();
        }
    }

    /// Takes the store's writer lock, then validates a whole
    /// [`IngestBatch`]: every row against the workflow schema (arity,
    /// domains), then every module's projection against its recorded
    /// and in-batch functional dependency, under **read** locks and
    /// without mutating anything. On success the returned
    /// [`ValidatedBatch`] carries the per-module projections for
    /// [`apply_batch`](Self::apply_batch) and keeps the writer lock, so
    /// a second writer waits here until this batch has been applied.
    ///
    /// # Errors
    /// Propagates validation failures (arity, domains, FD), row-indexed
    /// into the batch; no module state was touched.
    ///
    /// # Panics
    /// If the writer lock is poisoned (a writer panicked).
    pub fn validate_batch(&self, batch: &IngestBatch) -> Result<ValidatedBatch<'_>, CoreError> {
        let writer = self.writer.lock().expect("store writer lock poisoned");
        self.check_rows(batch.rows())?;
        let mut projections = Vec::with_capacity(self.entries.len());
        for e in &self.entries {
            let projs: Vec<Tuple> = batch.rows().iter().map(|r| r.project(&e.attrs)).collect();
            e.read().module().validate_executions(&projs)?;
            projections.push(projs);
        }
        Ok(ValidatedBatch {
            store: self,
            projections,
            _writer: writer,
        })
    }

    /// Applies a validated batch: each module appends its projections
    /// under its **own** write lock — concurrently on scoped threads
    /// when the batch is large enough — then the new epochs are
    /// published through the seqlock pair, and only then is the writer
    /// lock released. Probes to modules not currently under append
    /// proceed throughout. Returns the total number of new module rows.
    ///
    /// # Errors
    /// None: the batch was validated under the writer lock it still
    /// holds, so every append succeeds. The `Result` keeps
    /// [`validate_batch`](Self::validate_batch) and this call on one
    /// error type.
    ///
    /// # Panics
    /// If `validated` came from another store.
    pub fn apply_batch(&self, validated: ValidatedBatch<'_>) -> Result<usize, CoreError> {
        assert!(
            std::ptr::eq(validated.store, self),
            "batch validated by another store"
        );
        let work = validated.projections.first().map_or(0, Vec::len) * self.entries.len();
        let append = |(e, projs): (&OracleEntry, &Vec<Tuple>)| {
            e.oracle
                .write()
                .expect("module oracle lock poisoned")
                .module
                .append_validated(projs)
        };
        let modules = self.entries.iter().zip(&validated.projections);
        let added = if work >= PARALLEL_APPLY_MIN_WORK && self.entries.len() > 1 {
            std::thread::scope(|s| {
                let workers: Vec<_> = modules.map(|m| s.spawn(move || append(m))).collect();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("apply worker panicked"))
                    .sum()
            })
        } else {
            modules.map(append).sum()
        };
        self.publish_epochs();
        // `validated` drops here, releasing the writer lock after the
        // publication.
        Ok(added)
    }

    /// Validates and applies one batch —
    /// [`validate_batch`](Self::validate_batch) then
    /// [`apply_batch`](Self::apply_batch). All-or-nothing: a batch that
    /// fails validation for any module mutates none.
    ///
    /// # Errors
    /// Propagates validation failures (domains, FD), row-indexed.
    pub fn ingest_batch(&self, batch: &IngestBatch) -> Result<usize, CoreError> {
        let validated = self.validate_batch(batch)?;
        self.apply_batch(validated)
    }

    /// Rebuilds **every** listed module from a workflow-row **ledger**
    /// (full provenance rows in arrival order, e.g. a durable log's
    /// applied-row sequence): each module's rows are its projections of
    /// the ledger, first-occurrence order, duplicates dropped — exactly
    /// the state that replaying the ledger through
    /// [`ingest_batch`](Self::ingest_batch) would build — and
    /// its epoch is set to the recorded value (which after a compaction
    /// is *not* the row count, so it must travel explicitly).
    ///
    /// All-or-nothing: every module is reconstructed before any oracle
    /// is swapped, so a failure leaves `self` untouched. Each private
    /// module must be listed exactly once (a repeated id: last listing
    /// wins).
    ///
    /// # Errors
    /// [`CoreError::MissingOracle`] for an unknown id or a module left
    /// unlisted; a row-indexed [`CoreError::RowRejected`] for a ledger
    /// row outside the workflow schema; propagates reconstruction
    /// failures.
    pub fn restore_ledger(
        &mut self,
        rows: &[Tuple],
        epochs: &[(ModuleId, u64)],
    ) -> Result<(), CoreError> {
        self.check_rows(rows)?;
        let mut restored: Vec<(usize, StandaloneModule)> = Vec::with_capacity(epochs.len());
        let mut covered = vec![false; self.entries.len()];
        for &(id, epoch) in epochs {
            let &idx = self
                .by_id
                .get(&id)
                .ok_or(CoreError::MissingOracle { module: id.index() })?;
            covered[idx] = true;
            let entry = &self.entries[idx];
            let mut seen = std::collections::HashSet::new();
            let mut module_rows = Vec::new();
            for row in rows {
                let p = row.project(&entry.attrs);
                if seen.insert(p.values().to_vec()) {
                    module_rows.push(p);
                }
            }
            let guard = entry.read();
            let m = guard.module();
            restored.push((
                idx,
                StandaloneModule::from_recovered(
                    m.schema().clone(),
                    m.inputs().clone(),
                    m.outputs().clone(),
                    &module_rows,
                    epoch,
                )?,
            ));
        }
        if let Some(i) = covered.iter().position(|&c| !c) {
            return Err(CoreError::MissingOracle {
                module: self.entries[i].id.index(),
            });
        }
        for (idx, sm) in restored {
            // No locking: `&mut self` proves no reader exists.
            let oracle = self.entries[idx].oracle.get_mut();
            *oracle.expect("module oracle lock poisoned") = MemoSafetyOracle::new(sm);
        }
        self.publish_epochs();
        Ok(())
    }

    /// Routes a **mixed-module batch** of safety probes: requests are
    /// grouped per module, and each module answers its requests under
    /// one read lock through its memoized oracle's
    /// [`SafetyOracle::is_safe`] — the path sweeps and optimizers use —
    /// so a visible set repeated anywhere in the batch costs one kernel
    /// evaluation. Outcomes come back in request order.
    ///
    /// **Concurrent serving:** this takes `&self` — any number of
    /// serving threads fire batches at one shared instance, and warm
    /// batches (all modules' memos current) proceed fully in parallel
    /// on shard read-locks. Ingest runs concurrently through
    /// [`validate_batch`](Self::validate_batch) /
    /// [`apply_batch`](Self::apply_batch): a probe waits only for the
    /// one module currently under append (its `RwLock`), epoch
    /// validation is lock-free (seqlock), and a module sub-batch never
    /// observes a half-applied append. Clients guard against serving
    /// *around* an append with [`ProbeRequest::epoch`] — re-checked
    /// under each module's lock, so a raced append surfaces as
    /// [`CoreError::StaleEpoch`], never as a wrong-epoch answer.
    ///
    /// **Atomic rejection:** the whole batch is validated first — every
    /// request must name a covered module and (when
    /// [`ProbeRequest::epoch`] is set) match that module's published
    /// relation epoch. A batch containing an unknown module or a stale
    /// epoch fails *before any oracle is touched*, leaving every memo
    /// (and its counters) exactly as it was. An append that races in
    /// after validation is caught under that module's lock, before the
    /// module answers any request; modules routed earlier in the batch
    /// may already have answered (and warmed their memos).
    ///
    /// # Errors
    /// [`CoreError::MissingOracle`] for an uncovered module id;
    /// [`CoreError::StaleEpoch`] for an epoch-conditioned probe whose
    /// module has a different epoch.
    ///
    /// # Examples
    /// ```
    /// use sv_core::safety::{ProbeRequest, WorkflowOracles};
    /// use sv_relation::AttrSet;
    /// use sv_workflow::{library::fig1_workflow, ModuleId};
    ///
    /// let oracles = WorkflowOracles::for_workflow(&fig1_workflow(), 1 << 20).unwrap();
    /// let batch = vec![
    ///     ProbeRequest::new(ModuleId(0), AttrSet::from_indices(&[0, 2, 4]), 4),
    ///     ProbeRequest::new(ModuleId(1), AttrSet::from_indices(&[0]), 2),
    ///     ProbeRequest::new(ModuleId(0), AttrSet::from_indices(&[0, 2, 4]), 8),
    /// ];
    /// let outcomes = oracles.probe_batch(&batch).unwrap();
    /// assert!(outcomes[0].safe, "Example 3: V = {{a1, a3, a5}} is 4-safe");
    /// assert!(!outcomes[2].safe, "…but not 8-safe");
    /// ```
    pub fn probe_batch(&self, requests: &[ProbeRequest]) -> Result<Vec<ProbeOutcome>, CoreError> {
        // Phase 1: resolve and validate every request — no oracle (and
        // therefore no memo state) is touched until the batch is known
        // to be fully addressable. Epochs come from the seqlock
        // publication, so validation never waits on an in-flight
        // append's module lock. Requests are bucketed per module in the
        // same pass, so routing stays O(requests) however many modules
        // the workflow has.
        let published: Vec<u64> = self
            .epoch_snapshot()
            .into_iter()
            .map(|(_, epoch)| epoch)
            .collect();
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); self.entries.len()];
        for (pos, r) in requests.iter().enumerate() {
            let &idx = self.by_id.get(&r.module).ok_or(CoreError::MissingOracle {
                module: r.module.index(),
            })?;
            if let Some(expected) = r.epoch {
                let actual = published[idx];
                if expected != actual {
                    return Err(CoreError::StaleEpoch {
                        module: r.module.index(),
                        expected,
                        actual,
                    });
                }
            }
            buckets[idx].push(pos);
        }
        // Phase 2: each module answers its requests under its read
        // lock. Epoch conditions are re-checked under the lock first: an
        // append that raced in after phase-1 validation surfaces as
        // `StaleEpoch`, never as an answer at the wrong epoch.
        let mut out: Vec<ProbeOutcome> = requests
            .iter()
            .map(|r| ProbeOutcome {
                module: r.module,
                safe: false,
                epoch: 0,
            })
            .collect();
        for (entry, bucket) in self.entries.iter().zip(&buckets) {
            if bucket.is_empty() {
                continue;
            }
            let oracle = entry.read();
            let epoch = oracle.relation_epoch();
            for &pos in bucket {
                let r = &requests[pos];
                if let Some(expected) = r.epoch.filter(|&e| e != epoch) {
                    return Err(CoreError::StaleEpoch {
                        module: r.module.index(),
                        expected,
                        actual: epoch,
                    });
                }
            }
            for &pos in bucket {
                let r = &requests[pos];
                out[pos].safe = oracle.is_safe(&r.visible, r.gamma);
                out[pos].epoch = epoch;
            }
        }
        Ok(out)
    }

    /// The workflow schema every ingested row is checked against.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The covered module ids, in `private_modules()` order.
    #[must_use]
    pub fn module_ids(&self) -> Vec<ModuleId> {
        self.entries.iter().map(|e| e.id).collect()
    }

    /// Shared access to one module's oracle — sufficient for every
    /// probe ([`SafetyOracle`] probes take `&self`), so serving threads
    /// can hold guards into one shared instance. The guard holds the
    /// module's read lock: probes to *other* modules, and the
    /// lock-free epoch reads, are unaffected.
    #[must_use]
    pub fn oracle(&self, id: ModuleId) -> Option<OracleGuard<'_>> {
        self.by_id.get(&id).map(|&i| OracleGuard {
            guard: self.entries[i].read(),
        })
    }

    /// Iterates `(id, oracle guard)` in `private_modules()` order.
    pub fn iter(&self) -> impl Iterator<Item = (ModuleId, OracleGuard<'_>)> {
        self.entries
            .iter()
            .map(|e| (e.id, OracleGuard { guard: e.read() }))
    }

    /// Total probes across all oracles.
    #[must_use]
    pub fn total_calls(&self) -> u64 {
        self.entries.iter().map(|e| e.read().calls()).sum()
    }

    /// Total cache misses (kernel evaluations) across all oracles.
    #[must_use]
    pub fn total_misses(&self) -> u64 {
        self.entries.iter().map(|e| e.read().misses()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sv_workflow::library::fig1_workflow;

    fn m1() -> StandaloneModule {
        StandaloneModule::from_workflow_module(&fig1_workflow(), ModuleId(0), 1 << 20).unwrap()
    }

    #[test]
    fn memo_agrees_with_kernel_and_naive_on_all_subsets() {
        let m = m1();
        let memo = MemoSafetyOracle::new(m.clone());
        let naive = NaiveOracle::new(m.clone());
        let kernel: &dyn SafetyOracle = &m;
        for mask in 0u32..(1 << 5) {
            let visible = AttrSet::from_word(u64::from(mask));
            let a = memo.privacy_level(&visible);
            let b = naive.privacy_level(&visible);
            let c = kernel.privacy_level(&visible);
            assert_eq!(a, b, "mask={mask:#b}");
            assert_eq!(a, c, "mask={mask:#b}");
            for gamma in 1..=9u128 {
                assert_eq!(memo.is_safe(&visible, gamma), a >= gamma || gamma <= 1);
            }
        }
    }

    #[test]
    fn memo_answers_repeats_without_reevaluating() {
        let memo = MemoSafetyOracle::new(m1());
        let v = AttrSet::from_indices(&[0, 2, 4]);
        let first = memo.privacy_level(&v);
        let misses_after_first = memo.misses();
        for gamma in 1..=8u128 {
            let _ = memo.is_safe(&v, gamma);
        }
        let _ = memo.privacy_level(&v);
        assert_eq!(memo.privacy_level(&v), first);
        assert_eq!(memo.misses(), misses_after_first, "no further kernel work");
        assert!(memo.calls() > misses_after_first);
        assert_eq!(memo.cached_levels(), 1);
    }

    #[test]
    fn every_memo_probe_counts_one_call_at_every_gamma() {
        // Through `dyn`, as the serial enumerations ask: the trivial
        // Γ ≤ 1 answers count like any other.
        let memo = MemoSafetyOracle::new(m1());
        let oracle: &dyn SafetyOracle = &memo;
        let v = AttrSet::from_indices(&[0, 2, 4]);
        let hidden = v.complement(5);
        for gamma in [0u128, 1, 2, 4] {
            let before = memo.calls();
            let _ = oracle.is_safe(&v, gamma);
            assert_eq!(memo.calls(), before + 1, "is_safe at Γ = {gamma}");
            let _ = oracle.is_safe_hidden(&hidden, gamma);
            assert_eq!(memo.calls(), before + 2, "is_safe_hidden at Γ = {gamma}");
            let _ = oracle.privacy_level(&v);
            assert_eq!(memo.calls(), before + 3, "privacy_level at Γ = {gamma}");
        }
    }

    #[test]
    fn hidden_probes_share_the_cache_with_visible_probes() {
        let memo = MemoSafetyOracle::new(m1());
        // V = {0,2,4} ⇔ hidden {1,3}.
        let v = AttrSet::from_indices(&[0, 2, 4]);
        let level = memo.privacy_level(&v);
        let m0 = memo.misses();
        assert_eq!(
            memo.is_safe_hidden(&AttrSet::from_word(0b01010), 4),
            level >= 4
        );
        assert_eq!(memo.misses(), m0, "hidden probe hits the same entry");
    }

    #[test]
    fn sets_differing_outside_the_schema_share_one_entry() {
        // {0, 2, 100} names an id m1's five attributes cannot hold; it
        // is the visible set {0, 2}, asked twice.
        let memo = MemoSafetyOracle::new(m1());
        let _ = memo.is_safe(&AttrSet::from_indices(&[0, 2, 100]), 4);
        let _ = memo.is_safe(&AttrSet::from_indices(&[0, 2]), 4);
        assert_eq!((memo.misses(), memo.cached_levels()), (1, 1));
    }

    #[test]
    fn oracle_enumerations_match_module_methods() {
        let m = m1();
        let memo = MemoSafetyOracle::new(m.clone());
        let (h1, c1) = min_cost_safe_hidden(&memo, &[10, 3, 9, 2, 9], 4)
            .unwrap()
            .unwrap();
        let (h2, c2) = m
            .min_cost_safe_hidden(&[10, 3, 9, 2, 9], 4)
            .unwrap()
            .unwrap();
        assert_eq!((h1, c1), (h2, c2));
        let a = minimal_safe_hidden_sets(&memo, 4).unwrap();
        let b = m.minimal_safe_hidden_sets(4).unwrap();
        assert_eq!(a, b);
        // The second enumeration re-used the first's cache: the lattice
        // has 32 subsets, so misses are bounded by 32.
        assert!(memo.misses() <= 32, "misses = {}", memo.misses());
        assert!(memo.calls() > memo.misses());
    }

    /// The Figure-1 m1 rows (local schema i1,i2 → o1,o2,o3).
    fn m1_rows() -> Vec<sv_relation::Tuple> {
        m1().relation().rows().to_vec()
    }

    #[test]
    fn streamed_module_levels_match_batch_build_at_every_step() {
        let full = m1();
        let mut streamed = StandaloneModule::new(
            sv_relation::Relation::empty(full.schema().clone()),
            full.inputs().clone(),
            full.outputs().clone(),
        )
        .unwrap();
        let mut memo = MemoSafetyOracle::new(streamed.clone());
        let rows = m1_rows();
        for (step, row) in rows.iter().enumerate() {
            let one = std::slice::from_ref(row);
            assert_eq!(streamed.append_execution(one).unwrap(), 1);
            assert_eq!(memo.append_execution(one).unwrap(), 1);
            assert_eq!(memo.relation_epoch(), (step + 1) as u64);
            // A module built from scratch over the rows sent so far =
            // the streamed one.
            let sent = Relation::from_rows(full.schema().clone(), rows[..=step].to_vec()).unwrap();
            assert_eq!(streamed.relation(), sent, "step={step}");
            assert_eq!(memo.module().relation(), sent, "step={step}");
            let prefix =
                StandaloneModule::new(sent, full.inputs().clone(), full.outputs().clone()).unwrap();
            for mask in 0u32..(1 << 5) {
                let v = AttrSet::from_word(u64::from(mask));
                assert_eq!(
                    memo.privacy_level(&v),
                    prefix.privacy_level(&v),
                    "step={step} mask={mask:#b}"
                );
            }
        }
        assert_eq!(streamed.relation(), full.relation());
        assert!(memo.revalidations() > 0, "stale entries were refreshed");
    }

    #[test]
    fn monotone_shortcut_answers_safe_probes_without_kernel_work() {
        // (i1, i2) -> o with i2 over a size-3 domain, so executions can
        // keep arriving inside an existing visible-input group.
        let schema = sv_relation::Schema::new(vec![
            sv_relation::AttrDef {
                name: "i1".into(),
                domain: sv_relation::Domain::boolean(),
            },
            sv_relation::AttrDef {
                name: "i2".into(),
                domain: sv_relation::Domain::new(3),
            },
            sv_relation::AttrDef {
                name: "o".into(),
                domain: sv_relation::Domain::boolean(),
            },
        ]);
        let rel = sv_relation::Relation::from_values(
            schema,
            vec![vec![0, 0, 0], vec![0, 1, 1], vec![1, 0, 1], vec![1, 1, 0]],
        )
        .unwrap();
        let m = StandaloneModule::new(
            rel,
            AttrSet::from_indices(&[0, 1]),
            AttrSet::from_indices(&[2]),
        )
        .unwrap();
        let mut memo = MemoSafetyOracle::new(m);
        // V = {i1, o}: i2 hidden, so each visible-input group holds the
        // executions of all i2 values.
        let v = AttrSet::from_indices(&[0, 2]);
        assert_eq!(memo.privacy_level(&v), 2);
        let misses = memo.misses();
        // A new execution lands in the *existing* key group i1=1: no
        // new group, so the cached `is_safe(V, 2)` stays provably true.
        memo.append_execution(&[sv_relation::Tuple::new(vec![1, 2, 1])])
            .unwrap();
        assert!(memo.is_safe(&v, 2));
        assert_eq!(memo.misses(), misses, "shortcut: zero kernel work");
        assert_eq!(memo.monotone_shortcut_hits(), 1);
        // An exact level query must revalidate (the level may have
        // changed — here it stays 2).
        assert_eq!(memo.privacy_level(&v), 2);
        assert_eq!(memo.misses(), misses + 1);
        assert_eq!(memo.revalidations(), 1);
        // An execution opening a *new* key group (i1 never seen… all
        // i1 values are taken, so extend via a fresh i2 on group 0) —
        // new *pair*, same groups: shortcut still sound and taken.
        memo.append_execution(&[sv_relation::Tuple::new(vec![0, 2, 0])])
            .unwrap();
        assert!(memo.is_safe(&v, 2));
        assert_eq!(memo.monotone_shortcut_hits(), 2);
    }

    #[test]
    fn append_rejecting_fd_violation_leaves_oracle_consistent() {
        let mut memo = MemoSafetyOracle::new(m1());
        let v = AttrSet::from_indices(&[0, 2, 4]);
        let before = memo.privacy_level(&v);
        // m1 maps (0,0) ↦ (0,1,1); a contradicting output must fail.
        let bad = sv_relation::Tuple::new(vec![0, 0, 1, 0, 0]);
        assert_eq!(
            memo.append_execution(&[bad]),
            Err(CoreError::NotAFunction.at_row(0))
        );
        assert_eq!(memo.relation_epoch(), 0);
        assert_eq!(memo.privacy_level(&v), before);
    }

    #[test]
    fn batch_errors_carry_offending_row_index() {
        // Regression: a rejected multi-row append used to surface a
        // whole-batch `CoreError` with no position; it must name the
        // offending row's 0-based batch index.
        let mut memo = MemoSafetyOracle::new(m1());
        // Rows 0 and 1 duplicate recorded executions (valid); row 2
        // contradicts m1's recorded (1,1) ↦ (1,0,1).
        let ok_a = sv_relation::Tuple::new(vec![0, 0, 0, 1, 1]);
        let ok_b = sv_relation::Tuple::new(vec![0, 1, 1, 1, 0]);
        let bad = sv_relation::Tuple::new(vec![1, 1, 0, 0, 1]);
        let err = memo
            .append_execution(&[ok_a.clone(), ok_b, bad])
            .unwrap_err();
        assert_eq!(err.row_index(), Some(2));
        assert_eq!(err, CoreError::NotAFunction.at_row(2));
        assert!(err.to_string().contains("row 2"), "{err}");
        // Arity/domain failures are positioned the same way.
        let err = memo
            .append_execution(&[ok_a, sv_relation::Tuple::new(vec![9, 0, 0, 1, 1])])
            .unwrap_err();
        assert_eq!(err.row_index(), Some(1));
        assert!(matches!(
            err,
            CoreError::RowRejected { index: 1, ref source }
                if matches!(**source, CoreError::Relation(_))
        ));
        assert_eq!(memo.relation_epoch(), 0, "failed batches mutate nothing");
    }

    #[test]
    fn streaming_workflow_oracles_ingest_provenance_rows() {
        let w = fig1_workflow();
        let oracles = WorkflowOracles::for_workflow_streaming(&w).unwrap();
        assert_eq!(oracles.module_ids().len(), 3);
        // Nothing recorded yet: vacuously safe everywhere.
        {
            let o = oracles.oracle(ModuleId(0)).unwrap();
            assert_eq!(o.privacy_level(&AttrSet::new()), u128::MAX);
        }
        // Ingest every execution of the workflow's input space. After
        // each one, the streamed oracles agree with modules batch-built
        // from the same observed provenance: each module's projection
        // of the rows sent. (They need *not* agree with the full-domain
        // materialization of `for_workflow`: streaming records only
        // executions that actually happened.)
        let mut total = 0;
        let mut sent = Vec::new();
        for x in [[0, 0], [0, 1], [1, 0], [1, 1]] {
            let row = w.run(&x).unwrap();
            sent.push(row.clone());
            total += oracles.ingest_batch(&IngestBatch::new(vec![row])).unwrap();
            for id in oracles.module_ids() {
                let streamed = oracles.oracle(id).unwrap();
                let attrs = w.module(id).unwrap().attr_set();
                let projected = sent.iter().map(|t| t.project(&attrs)).collect();
                let expected = Relation::from_rows(streamed.module().schema().clone(), projected);
                let expected = expected.unwrap();
                assert_eq!(streamed.module().relation(), expected, "module {id:?}");
                let rebuilt = StandaloneModule::new(
                    expected,
                    streamed.module().inputs().clone(),
                    streamed.module().outputs().clone(),
                )
                .unwrap();
                let k = rebuilt.k();
                for mask in 0u64..(1 << k) {
                    let v = AttrSet::from_word(mask);
                    assert_eq!(
                        streamed.privacy_level(&v),
                        rebuilt.privacy_level(&v),
                        "module {id:?} mask {mask:#b}"
                    );
                }
            }
        }
        assert!(total > 0);
    }

    #[test]
    fn ingest_is_atomic_across_modules() {
        // A row whose projection is *fresh and valid* for m1 but
        // FD-contradicting for m2 must leave every module untouched.
        let w = fig1_workflow();
        let oracles = WorkflowOracles::for_workflow_streaming(&w).unwrap();
        let ingest = |row: &sv_relation::Tuple| {
            oracles.ingest_batch(&IngestBatch::from_rows(std::slice::from_ref(row)))
        };
        let row1 = w.run(&[0, 0]).unwrap();
        ingest(&row1).unwrap();

        // fig1 schema: a1,a2 (m1 inputs), a3..a5 (m1 outputs; a3,a4
        // feed m2, a4,a5 feed m3), a6 (m2 output), a7 (m3 output).
        // Fresh m1 input (0,1); m2/m3 inputs copied from row1; m2's
        // output flipped (contradiction); m3's output kept (duplicate).
        let mut bad = row1.clone();
        bad.set(sv_relation::AttrId(1), 1); // a2: (0,0) → (0,1), fresh for m1
        bad.set(sv_relation::AttrId(5), 1 - row1.get(sv_relation::AttrId(5)));
        let err = ingest(&bad).unwrap_err();
        assert_eq!(err, CoreError::NotAFunction.at_row(0));

        for id in oracles.module_ids() {
            let o = oracles.oracle(id).unwrap();
            assert_eq!(
                o.module().relation().len(),
                1,
                "module {id:?} must be untouched after a failed ingest"
            );
            assert_eq!(o.relation_epoch(), 1, "module {id:?} epoch unchanged");
        }
        // The corrected row then lands everywhere.
        let row2 = w.run(&[0, 1]).unwrap();
        assert!(ingest(&row2).unwrap() > 0);
    }

    #[test]
    fn ingest_checks_every_row_against_the_workflow_schema() {
        // Short, long and out-of-domain rows are refused whole, named
        // by their frame position, before any projection reads them.
        let w = fig1_workflow();
        let mut oracles = WorkflowOracles::for_workflow_streaming(&w).unwrap();
        let valid = w.run(&[0, 0]).unwrap();
        let mut bad_value = valid.values().to_vec();
        bad_value[6] = 2;
        for bad in [
            &valid.values()[..3],
            &[valid.values(), &[0]].concat(),
            &bad_value,
        ] {
            let frame =
                IngestBatch::new(vec![valid.clone(), sv_relation::Tuple::new(bad.to_vec())]);
            let err = oracles.ingest_batch(&frame).unwrap_err();
            assert!(
                matches!(&err, CoreError::RowRejected { index: 1, source }
                    if matches!(**source, CoreError::Relation(_))),
                "{err:?}"
            );
            assert!(oracles.epoch_snapshot().iter().all(|&(_, e)| e == 0));
        }
        // A ledger row outside the schema fails the restore, too.
        let short = sv_relation::Tuple::new(vec![0]);
        let epochs: Vec<_> = oracles.module_ids().into_iter().map(|id| (id, 1)).collect();
        let err = oracles
            .restore_ledger(&[valid, short], &epochs)
            .unwrap_err();
        assert_eq!(err.row_index(), Some(1));
    }

    /// Figure 1's `m1` as a workflow of its own: a one-module store
    /// whose workflow rows are `m1`'s rows.
    fn m1_workflow() -> Workflow {
        let mut b = sv_workflow::WorkflowBuilder::new();
        let a = b.bool_attrs("a", 5);
        b.module(
            "m1",
            &a[..2],
            &a[2..],
            sv_workflow::Visibility::Private,
            sv_workflow::library::m1_fn(),
        );
        b.build().unwrap()
    }

    fn word_requests(probes: &[(u64, u128)]) -> Vec<ProbeRequest> {
        probes
            .iter()
            .map(|&(w, g)| ProbeRequest::new(ModuleId(0), AttrSet::from_word(w), g))
            .collect()
    }

    fn answers(oracles: &WorkflowOracles, requests: &[ProbeRequest]) -> Vec<bool> {
        let outcomes = oracles.probe_batch(requests).unwrap();
        outcomes.iter().map(|o| o.safe).collect()
    }

    #[test]
    fn batch_probes_match_sequential_and_dedup_kernel_work() {
        let oracles = WorkflowOracles::for_workflow(&m1_workflow(), 1 << 20).unwrap();
        let naive = NaiveOracle::new(m1());
        // Every (visible word, Γ) pair, many duplicates, trivial Γ too.
        let probes: Vec<(u64, u128)> = (0u64..(1 << 5))
            .flat_map(|w| [1u128, 2, 4, 8, 9].map(|g| (w, g)))
            .chain([(0b00101, 4), (0b00101, 4)])
            .collect();
        let requests = word_requests(&probes);
        let batched = answers(&oracles, &requests);
        // The row-at-a-time semantics are the executable specification.
        for (i, &(w, g)) in probes.iter().enumerate() {
            assert_eq!(batched[i], naive.is_safe(&AttrSet::from_word(w), g), "{i}");
        }
        // 32 distinct visible words ⇒ exactly 32 kernel evaluations for
        // the whole batch, whatever the request count.
        let memo = oracles.oracle(ModuleId(0)).unwrap();
        assert_eq!(memo.misses(), 32);
        assert_eq!(memo.calls(), probes.len() as u64);
        drop(memo);
        // A repeat batch is pure cache hits.
        assert_eq!(answers(&oracles, &requests), batched);
        assert_eq!(oracles.total_misses(), 32);
        // A standalone memo asked the same questions one at a time does
        // the same kernel work.
        let seq = MemoSafetyOracle::new(m1());
        for &(w, g) in &probes {
            let _ = seq.is_safe(&AttrSet::from_word(w), g);
        }
        assert_eq!(seq.misses(), oracles.total_misses());
    }

    #[test]
    fn batch_probes_ride_epochs_and_the_monotone_shortcut() {
        // m1 minus one execution, so a fresh row can still arrive.
        let w = m1_workflow();
        let oracles = WorkflowOracles::for_workflow_streaming(&w).unwrap();
        let rows: Vec<_> = [[0, 0], [0, 1], [1, 0], [1, 1]]
            .iter()
            .map(|x| w.run(x).unwrap())
            .collect();
        oracles
            .ingest_batch(&IngestBatch::from_rows(&rows[..3]))
            .unwrap();
        let requests = word_requests(&(0u64..(1 << 5)).map(|v| (v, 2)).collect::<Vec<_>>());
        let _ = answers(&oracles, &requests);
        let misses = oracles.total_misses();
        // Ingesting the held-back execution bumps the epoch; the next
        // batch must revalidate exactly the entries whose answers could
        // have changed and take the monotone shortcut for the rest.
        oracles
            .ingest_batch(&IngestBatch::from_rows(&rows[3..]))
            .unwrap();
        let second = answers(&oracles, &requests);
        let memo = oracles.oracle(ModuleId(0)).unwrap();
        assert!(
            memo.monotone_shortcut_hits() > 0,
            "stale-safe answers shortcut"
        );
        assert!(memo.misses() > misses, "changed groupings revalidate");
        // Equivalence against a store built from scratch over all rows.
        let rebuilt = WorkflowOracles::for_workflow(&w, 1 << 20).unwrap();
        assert_eq!(
            memo.module().relation(),
            rebuilt.oracle(ModuleId(0)).unwrap().module().relation()
        );
        assert_eq!(second, answers(&rebuilt, &requests));
    }

    #[test]
    fn probe_batch_routes_mixed_modules_in_request_order() {
        let w = fig1_workflow();
        let oracles = WorkflowOracles::for_workflow(&w, 1 << 20).unwrap();
        let ids = oracles.module_ids();
        // Interleave modules deliberately.
        let mut requests = Vec::new();
        for round in 0..4u64 {
            for &id in &ids {
                requests.push(ProbeRequest::new(
                    id,
                    AttrSet::from_word(round * 7 % 16),
                    2 + u128::from(round),
                ));
            }
        }
        let outcomes = oracles.probe_batch(&requests).unwrap();
        assert_eq!(outcomes.len(), requests.len());
        // Sequential reference: same questions one at a time against
        // fresh oracles.
        let fresh = WorkflowOracles::for_workflow(&w, 1 << 20).unwrap();
        for (r, o) in requests.iter().zip(&outcomes) {
            assert_eq!(o.module, r.module);
            assert_eq!(o.epoch, 0);
            let seq = fresh.oracle(r.module).unwrap().is_safe(&r.visible, r.gamma);
            assert_eq!(o.safe, seq, "{r:?}");
        }
        // Epoch-conditioned probes pass at the current epoch.
        let ok = vec![ProbeRequest::new(ids[0], AttrSet::new(), 2).at_epoch(0)];
        assert!(oracles.probe_batch(&ok).is_ok());
    }

    #[test]
    fn probe_batch_rejects_bad_batches_without_touching_memos() {
        let w = fig1_workflow();
        let oracles = WorkflowOracles::for_workflow(&w, 1 << 20).unwrap();
        let ids = oracles.module_ids();
        // Warm some state so mutation would be observable.
        let warm = vec![ProbeRequest::new(
            ids[0],
            AttrSet::from_indices(&[0, 2, 4]),
            4,
        )];
        oracles.probe_batch(&warm).unwrap();
        let calls = oracles.total_calls();
        let misses = oracles.total_misses();

        // Unknown module in the middle of an otherwise valid batch.
        let bad = vec![
            ProbeRequest::new(ids[0], AttrSet::from_indices(&[0]), 2),
            ProbeRequest::new(ModuleId(99), AttrSet::new(), 2),
        ];
        assert!(matches!(
            oracles.probe_batch(&bad),
            Err(CoreError::MissingOracle { module: 99 })
        ));
        assert_eq!(
            (oracles.total_calls(), oracles.total_misses()),
            (calls, misses)
        );

        // Stale epoch: conditioned on a generation the module is not at.
        let stale = vec![
            ProbeRequest::new(ids[0], AttrSet::from_indices(&[0]), 2),
            ProbeRequest::new(ids[1], AttrSet::new(), 2).at_epoch(7),
        ];
        let err = oracles.probe_batch(&stale).unwrap_err();
        assert!(matches!(
            err,
            CoreError::StaleEpoch {
                expected: 7,
                actual: 0,
                ..
            }
        ));
        assert_eq!(
            (oracles.total_calls(), oracles.total_misses()),
            (calls, misses)
        );
    }

    #[test]
    fn workflow_oracles_cover_private_modules() {
        let w = fig1_workflow();
        let oracles = WorkflowOracles::for_workflow(&w, 1 << 20).unwrap();
        assert_eq!(oracles.module_ids().len(), 3);
        let o = oracles.oracle(ModuleId(0)).unwrap();
        assert!(o.is_safe(&AttrSet::from_indices(&[0, 2, 4]), 4));
        assert!(oracles.total_calls() >= 1);
        assert!(oracles.oracle(ModuleId(9)).is_none());
        assert!(oracles.total_misses() <= oracles.total_calls());
    }
}
