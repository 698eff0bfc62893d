//! The interned columnar relation kernel.
//!
//! Every algorithm in the paper bottoms out in three relational
//! operators over a module relation `R`: projection, natural join, and
//! grouped distinct counting (the Lemma-4 safety condition). The seed
//! implementation evaluated them row-at-a-time over heap-allocated
//! [`Tuple`] rows with `HashMap<Tuple, _>` grouping, so every
//! `is_safe(V, Γ)` probe re-hashed full sub-tuples. This module replaces
//! that hot path:
//!
//! * [`InternedRelation`] stores the relation **columnar**
//!   (`cols[attr][row]`) and maps, per attribute set `S`, each row's
//!   projected sub-tuple `π_S(t)` to a **dense group id**. The
//!   per-set [`GroupIndex`] is computed once and memoized in one cache,
//!   keyed by the set restricted to the schema (an inline one-word
//!   [`AttrSet`] for schemas of ≤ 64 attributes). A grouping is
//!   numbered by **direct addressing** (`O(rows)`, no sort, `u32` row
//!   codes) when its mixed-radix code space is at most 4 × rows; larger
//!   code spaces — the full-row dedup grouping, most high-cardinality
//!   sets — sort their `u64` row codes instead (`O(rows log rows)`),
//!   because a table the size of the code space would then cost more to
//!   clear and scan than the sort.
//! * A grouping is held in one of two **layouts**, chosen by the first
//!   request for its set and kept until an append: a set first
//!   requested as a Lemma-4 key (the `key` of
//!   [`InternedRelation::min_group_distinct`] or
//!   [`InternedRelation::group_count_distinct`]) keeps its rows
//!   **bucketed** by group, as TANE's stripped partitions do (Huhtala et
//!   al., Computer Journal 1999); every other set keeps each row's group
//!   id. Both number the groups alike, and a bucketed grouping derives
//!   the per-row ids once, the first time something reads them.
//! * Every row index, group id and bucket bound a grouping stores has
//!   its relation's **width**: a `u16` while the relation has at most
//!   65,535 rows, a `u32` above, so a narrow grouping holds half the
//!   bytes. Every algorithm over a grouping's rows is written once,
//!   generic over that index type, behind one match on the width. An
//!   append that takes the relation past 65,535 rows widens every
//!   grouping before extending it; nothing narrows again.
//! * [`InternedRelation::min_group_distinct`] — the entire Lemma-4 inner
//!   loop — is one `O(rows)` **pair pass** over two cached groupings.
//!   On a bucketed key it is a stamp scan alone: a stamp per probe group
//!   counts each bucket's distinct probe groups. On a per-row key, when
//!   the (key group, probe group) pair space is small against the row
//!   count, the pass marks each row's pair in a bit set and counts a key
//!   group's first mark of each pair; above that bound a counting sort
//!   buckets the rows by key group for that pass, and the stamp scan
//!   counts them. Shapes whose answer the group counts decide (one key
//!   group, one probe group, a key group per row) take no pass, nor
//!   does a probe group per row over a bucketed key, which its smallest
//!   bucket answers. Every pass
//!   runs in the calling thread's reusable pair-pass buffer: **zero heap
//!   allocation per probe** once the group indexes are warm.
//! * [`ValueInterner`] is the generic sub-tuple → dense-id map used by
//!   the interned natural join (provenance assembly, §4) and by group
//!   computation when mixed-radix codes would overflow `u64`.
//! * [`InternedRelation::append_rows`] supports **streaming
//!   provenance**: rows arriving after the build extend the column
//!   store and every memoized [`GroupIndex`] in place (new sub-tuples
//!   take the next free dense id; a bucketed grouping is first rewritten
//!   per row, and widened if the rows pass 65,535) instead of triggering
//!   a rebuild. The
//!   [`InternedRelation::epoch`] generation counter ticks once per
//!   row-adding append, so memoized consumers upstream (the `sv-core`
//!   safety oracles and sweep caches) can invalidate lazily — and keep
//!   entries that appends provably could not shrink.
//!
//! ### Concurrent readers
//!
//! Every probe entry point takes `&self` and is safe to call from many
//! reader threads at once: the per-attribute-set group caches are
//! **sharded** (readers of different sets never touch the same lock)
//! with **once-per-set publication** (a cold set is built by exactly
//! one thread — racing readers block on that set's [`std::sync::OnceLock`]
//! slot, not on the cache), and every thread runs its pair passes in a
//! buffer of its own, so concurrent probes share no scratch and take no
//! lock for it. The only writer is [`InternedRelation::append_rows`]
//! (`&mut self`), which Rust's aliasing rules already exclude from
//! overlapping any probe.
//!
//! At build time sub-tuple ids are assigned in ascending code order, so
//! for the mixed-radix path group ids sort exactly like the canonical
//! [`Tuple`] order — representatives materialize already-sorted
//! relations. Groups created by later appends take ids in first-seen
//! order instead; consumers needing sorted output re-canonicalize (as
//! [`InternedRelation::project`] does via [`Relation::from_rows`]).

use crate::attrset::AttrSet;
use crate::domain::Value;
use crate::error::RelationError;
use crate::relation::Relation;
use crate::schema::{AttrDef, AttrId, Schema};
use crate::tuple::Tuple;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

/// Number of lock shards in each group cache. Concurrent readers
/// resolving *different* attribute sets hash to different shards and
/// never contend; 16 shards keep the per-shard maps small while staying
/// far above the worker counts the sweep layer uses.
const GROUP_SHARDS: usize = 16;

/// Groupings whose mixed-radix code space is at most this many times the
/// row count are numbered by direct addressing; larger ones sort. The
/// addressing table holds one `u32` per code and is cleared and scanned
/// once, so the factor keeps it within four times the size of the row
/// codes. Beyond it (the full-row grouping of a 22-attribute module
/// spans 2²² codes for 2,048 rows) the table would cost more than
/// sorting the row codes.
///
/// A direct-addressed code is below 4 × rows, so (with an explicit
/// `space ≤ u32::MAX` guard) its row codes are computed as `u32`: the
/// baseline x86-64 target has no 64-bit lane multiply, and over 10
/// boolean columns × 4,096 rows the `u32` code loop took 16–17 µs
/// against 33–36 µs as `u64` (medians of 2,000 runs, 2-vCPU host). The
/// sorted path keeps `u64` codes.
const DIRECT_ADDRESS_FACTOR: u64 = 4;

/// [`pair_pass`] marks `(key group, probe group)` pairs in a bit set
/// when the pair space is at most this many bits per row, and counting-
/// sorts the rows above it; clearing and scanning the bit set then
/// costs at most 4 words per row. The bound sits at the measured
/// crossover: over 5,000 warm probes of module 0 of `one_one_chain(2,
/// 11)` and `one_one_chain(4, 10)` (2-vCPU x86-64 host), marking took
/// 0.65–0.76 × the counting sort's time up to 128 bits per row, 0.85 ×
/// at 129–256, 1.08–1.10 × at 257–512 and 1.6–3.0 × above. Only a
/// per-row key is subject to it: a bucketed key always takes the stamp
/// scan, so no `perfbench secureview` pass marks pairs, against 74 % of
/// `ingest_mixed`'s, most of whose keys appends have rewritten per row.
const PAIR_MARK_BITS_PER_ROW: u64 = 256;

/// The most rows a relation may have while its groupings store their
/// row indexes as `u16` (see [`GroupIndex`]): a bucket bound holds
/// values up to the row count.
const NARROW_ROWS: usize = u16::MAX as usize;

/// A row index, group id or bucket bound as a grouping stores it: `u16`
/// on a relation of at most [`NARROW_ROWS`] rows, `u32` above. Every
/// algorithm over a grouping's rows is written once, generic over it,
/// behind one match on the grouping's [`Width`].
trait RowIdx: Copy + Default {
    /// `v`, which this width holds.
    fn new(v: usize) -> Self;
    /// The index as a `usize`.
    fn get(self) -> usize;
    /// `ids` read as `u32`s.
    fn u32s(ids: &[Self]) -> U32s<'_>;
    /// Each of `codes` replaced by its group id, `slot[code]`: in the
    /// code buffer itself at the width of `u32`, in a buffer of this
    /// width otherwise.
    fn number(codes: Vec<u32>, slot: &[u32]) -> Vec<Self>;
}

impl RowIdx for u16 {
    fn new(v: usize) -> Self {
        debug_assert!(v <= NARROW_ROWS, "{v} overflows a narrow index");
        v as u16
    }

    fn get(self) -> usize {
        usize::from(self)
    }

    fn u32s(ids: &[Self]) -> U32s<'_> {
        U32s::Narrow(ids.iter())
    }

    fn number(codes: Vec<u32>, slot: &[u32]) -> Vec<Self> {
        codes
            .iter()
            .map(|&c| Self::new(slot[c as usize] as usize))
            .collect()
    }
}

impl RowIdx for u32 {
    fn new(v: usize) -> Self {
        debug_assert!(u32::try_from(v).is_ok(), "{v} overflows a wide index");
        v as u32
    }

    fn get(self) -> usize {
        self as usize
    }

    fn u32s(ids: &[Self]) -> U32s<'_> {
        U32s::Wide(ids.iter())
    }

    fn number(mut codes: Vec<u32>, slot: &[u32]) -> Vec<Self> {
        for c in &mut codes {
            *c = slot[*c as usize];
        }
        codes
    }
}

/// A grouping's row indexes read as `u32`s, at either width.
enum U32s<'a> {
    Narrow(std::slice::Iter<'a, u16>),
    Wide(std::slice::Iter<'a, u32>),
}

impl Iterator for U32s<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            Self::Narrow(ids) => ids.next().map(|&i| u32::from(i)),
            Self::Wide(ids) => ids.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Self::Narrow(ids) => ids.size_hint(),
            Self::Wide(ids) => ids.size_hint(),
        }
    }
}

impl ExactSizeIterator for U32s<'_> {}

/// `$body` with `$l` bound to the [`Layout`] of `$width` (a `&Width` or
/// `&mut Width`) at its index type: the one match by which each
/// algorithm over a grouping's rows, written once, runs at either
/// width.
macro_rules! at_width {
    ($width:expr, $l:ident => $body:expr) => {
        match $width {
            Width::Narrow($l) => $body,
            Width::Wide($l) => $body,
        }
    };
}

thread_local! {
    /// This thread's Lemma-4 pair-pass buffer ([`pair_pass`]): the
    /// probe-group stamps of the stamp scan over a bucketed key; per-key-
    /// group counts and the pair bit set on the pair-marking path; or
    /// key-group bucket ends, bucketed rows and probe-group stamps on the
    /// counting-sort path. It is grown to the largest pass the thread has
    /// run and
    /// reused by every later one, so a warm probe allocates nothing and
    /// concurrent probes never share a buffer or take a lock for one.
    ///
    /// It holds at most 5 × rows words of the largest relation the
    /// thread probed, whichever relation that was (the largest of the
    /// marking path's rows + 4 × rows, the counting sort's 3 × rows, and
    /// the stamp scan's rows), and is freed when the thread exits. The
    /// threads that probe are bounded: sweep workers are scoped threads,
    /// and the socket server runs a fixed number of acceptors.
    ///
    /// No probe may run inside a pair pass: the pass holds the buffer's
    /// `RefCell` borrow while it calls its `visit` closure, so a nested
    /// probe on the same thread would panic. Every `visit` closure only
    /// reads values.
    static PAIR_PASS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The lock shard among `shards` an attribute set hashes to: Fibonacci
/// hashing of the XOR of its words. Attribute sets are dense low-bit
/// masks, so multiply-shift spreads them far better than a modulo on
/// the raw word, and picking a shard costs a multiply, not a second
/// hash of the key the shard's map hashes anyway. Shared by the
/// kernel's group caches and the `sv-core` memo shards, so the
/// sharding scheme cannot silently diverge across layers.
#[must_use]
pub fn hash_shard(key: &AttrSet, shards: usize) -> usize {
    let fold = key.words().iter().fold(0, |acc, &w| acc ^ w);
    (fold.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % shards
}

/// [`hash_shard`] over this cache's [`GROUP_SHARDS`].
fn shard_idx(key: &AttrSet) -> usize {
    hash_shard(key, GROUP_SHARDS)
}

/// A published (or in-flight) group index: the `OnceLock` guarantees
/// **exactly one** thread runs the grouping pass per attribute set —
/// racing readers either find the warm index or block on the builder.
type GroupSlot = Arc<OnceLock<Arc<GroupIndex>>>;

/// Sharded once-per-attribute-set group-index cache. Readers take one
/// shard read-lock to find their slot; a cold set inserts an empty slot
/// under a brief shard write-lock and then builds *outside* any shard
/// lock, publishing through the slot's `OnceLock`.
#[derive(Debug)]
struct GroupCache {
    shards: Vec<RwLock<HashMap<AttrSet, GroupSlot>>>,
}

impl Default for GroupCache {
    fn default() -> Self {
        Self {
            shards: (0..GROUP_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
        }
    }
}

impl GroupCache {
    /// The published index for `key`, if a builder has finished it.
    fn get(&self, key: &AttrSet) -> Option<Arc<GroupIndex>> {
        self.shards[shard_idx(key)]
            .read()
            .expect("group cache lock")
            .get(key)
            .and_then(|slot| slot.get().cloned())
    }

    /// The index for `key`, building (and publishing) it exactly once.
    fn get_or_publish(&self, key: &AttrSet, build: impl FnOnce() -> GroupIndex) -> Arc<GroupIndex> {
        let shard = &self.shards[shard_idx(key)];
        let slot = {
            let read = shard.read().expect("group cache lock");
            match read.get(key) {
                Some(s) => match s.get() {
                    Some(published) => return Arc::clone(published),
                    None => Arc::clone(s),
                },
                None => {
                    drop(read);
                    Arc::clone(
                        shard
                            .write()
                            .expect("group cache lock")
                            .entry(key.clone())
                            .or_insert_with(|| Arc::new(OnceLock::new())),
                    )
                }
            }
        };
        // Outside every shard lock: one thread builds, the rest wait on
        // this slot alone (readers of other sets proceed unimpeded).
        Arc::clone(slot.get_or_init(|| Arc::new(build())))
    }

    /// Number of *published* indexes.
    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .expect("group cache lock")
                    .values()
                    .filter(|slot| slot.get().is_some())
                    .count()
            })
            .sum()
    }

    /// Takes the shard maps out (exclusive access), for the append path
    /// to mutate without holding locks; restore with [`restore`](Self::restore).
    fn take_maps(&mut self) -> Vec<HashMap<AttrSet, GroupSlot>> {
        self.shards
            .iter_mut()
            .map(|s| std::mem::take(s.get_mut().expect("group cache lock")))
            .collect()
    }

    /// Puts back maps from [`take_maps`](Self::take_maps).
    fn restore(&mut self, maps: Vec<HashMap<AttrSet, GroupSlot>>) {
        for (shard, map) in self.shards.iter_mut().zip(maps) {
            *shard.get_mut().expect("group cache lock") = map;
        }
    }

    /// Deep clone: published indexes are shared through their `Arc`s
    /// (appends copy-on-write them); never-published slots are dropped.
    fn deep_clone(&self) -> Self {
        Self {
            shards: self
                .shards
                .iter()
                .map(|s| {
                    let map = s
                        .read()
                        .expect("group cache lock")
                        .iter()
                        .filter_map(|(k, slot)| {
                            slot.get().map(|g| {
                                let fresh = OnceLock::new();
                                fresh.set(Arc::clone(g)).expect("fresh slot");
                                (k.clone(), Arc::new(fresh))
                            })
                        })
                        .collect();
                    RwLock::new(map)
                })
                .collect(),
        }
    }
}

/// The published [`GroupIndex`] behind one taken-out slot, mutably —
/// `None` for a slot whose builder never finished (dropped by appends).
fn slot_mut(slot: &mut GroupSlot) -> Option<&mut GroupIndex> {
    Arc::make_mut(slot).get_mut().map(Arc::make_mut)
}

/// Interns value slices (projected sub-tuples) as dense `u32` ids.
///
/// Ids are assigned in first-seen order; [`resolve`](Self::resolve)
/// recovers the slice. Lookups with [`get`](Self::get) borrow the probe
/// buffer — no allocation on the probe path. Each sub-tuple is stored
/// once, shared by the map's key and the id's entry.
#[derive(Clone, Debug, Default)]
pub struct ValueInterner {
    map: HashMap<Arc<[Value]>, u32>,
    rev: Vec<Arc<[Value]>>,
}

impl ValueInterner {
    /// Creates an empty interner.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id of `key`, inserting it if new.
    pub fn intern(&mut self, key: &[Value]) -> u32 {
        if let Some(&id) = self.map.get(key) {
            return id;
        }
        let id = u32::try_from(self.rev.len()).expect("more than u32::MAX distinct sub-tuples");
        let shared: Arc<[Value]> = key.into();
        self.rev.push(Arc::clone(&shared));
        self.map.insert(shared, id);
        id
    }

    /// The id of `key`, if already interned (no allocation).
    #[must_use]
    pub fn get(&self, key: &[Value]) -> Option<u32> {
        self.map.get(key).copied()
    }

    /// The slice behind `id`.
    ///
    /// # Panics
    /// Panics if `id` was not issued by this interner.
    #[must_use]
    pub fn resolve(&self, id: u32) -> &[Value] {
        &self.rev[id as usize]
    }

    /// Number of distinct interned sub-tuples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rev.len()
    }

    /// Whether nothing has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rev.is_empty()
    }
}

/// Dense grouping of a relation's rows by one attribute set.
///
/// Group ids are dense (`0..n_groups`). For a freshly built index on the
/// mixed-radix path they ascend in canonical sub-tuple order; groups
/// first seen by [`InternedRelation::append_rows`] take the next free id
/// instead, so after an append the id order is first-seen, not sorted
/// (consumers that need sorted output — [`InternedRelation::project`] —
/// re-canonicalize through [`Relation::from_rows`]).
///
/// The rows are held in one of two layouts, fixed by the first request
/// for the set and equal in every answer:
/// * **bucketed**, for a set first requested as a Lemma-4 key (the `key`
///   of [`InternedRelation::min_group_distinct`] or
///   [`InternedRelation::group_count_distinct`]): the row ids of each
///   group in one bucket, ascending, behind `n_groups + 1` bucket
///   bounds — `rows + n_groups + 1` indexes, so the pair pass reads each
///   group's rows without sorting them;
/// * **per row**, for every other set: each row's group id and each
///   group's first row, `rows + n_groups` indexes.
///
/// Every such index is stored at its relation's **width**: a `u16`
/// (2 bytes) while the relation has at most 65,535 rows, so that a
/// bucket bound, at most the row count, fits; a `u32` (4 bytes) above.
/// A 4,096-row grouping into 512 groups thus holds 9,218 bytes bucketed
/// or 9,216 per row, against 18,436 or 18,432 on a wide relation, plus
/// its lookup (8 bytes per build-time code on the mixed-radix path) and
/// 152 bytes of its own; a bucketed grouping that is also read per row
/// keeps the derived per-row form beside its buckets. An append that
/// takes the relation past 65,535 rows widens every grouping before
/// extending it, and nothing narrows again.
///
/// [`row_group`](Self::row_group) and
/// [`representative`](Self::representative) read the per-row form as
/// `u32`s at either width; on a bucketed grouping the first read derives
/// it once and keeps it. An append rewrites a bucketed grouping into the
/// per-row form before it extends it.
#[derive(Clone, Debug)]
pub struct GroupIndex {
    /// Number of distinct projected sub-tuples.
    n_groups: u32,
    /// The grouped rows, at the relation's width.
    layout: Width,
    /// Sub-tuple → group-id lookup state, kept so appends extend the
    /// index instead of forcing a rebuild.
    lookup: GroupLookup,
    /// The relation epoch at which this index last gained a **new**
    /// group (its build epoch if no append created one since). The
    /// memoized oracles upstream use this for the monotone
    /// cache-revalidation shortcut: if the key grouping gained no new
    /// groups since a privacy level was cached, that level can only
    /// have grown.
    new_group_epoch: u64,
}

impl GroupIndex {
    /// The relation epoch at which this grouping last gained a new group
    /// (see [`InternedRelation::epoch`]).
    #[must_use]
    pub fn new_group_epoch(&self) -> u64 {
        self.new_group_epoch
    }

    /// Number of distinct projected sub-tuples.
    #[must_use]
    pub fn n_groups(&self) -> u32 {
        self.n_groups
    }

    /// Each row's dense group id (`0..n_groups`), in row order.
    pub fn row_group(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        at_width!(&self.layout, l => RowIdx::u32s(&l.row_ids().row_group))
    }

    /// Each group's first row, in group order.
    pub fn representative(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        at_width!(&self.layout, l => RowIdx::u32s(&l.row_ids().representative))
    }

    /// Whether the rows are held bucketed by group, the layout of a set
    /// first requested as a Lemma-4 key (see the type docs). Not part of
    /// the kernel's interface: the layout is an internal choice, read
    /// only by the property suites to tally the paths they checked.
    #[doc(hidden)]
    #[must_use]
    pub fn is_bucketed(&self) -> bool {
        at_width!(&self.layout, l => l.is_bucketed())
    }

    /// The first row of group `g`.
    fn head(&self, g: usize) -> usize {
        at_width!(&self.layout, l => l.head(g))
    }

    /// The size of the smallest group, if the rows are bucketed.
    fn smallest_bucket(&self) -> Option<usize> {
        at_width!(&self.layout, l => l.smallest_bucket())
    }

    /// Appends `row` to group `gid`, a new group when `is_new`; a
    /// bucketed grouping is first rewritten per row.
    fn push_row(&mut self, row: usize, gid: usize, is_new: bool) {
        at_width!(&mut self.layout, l => l.row_ids_mut().push(row, gid, is_new));
    }

    /// Stores a narrow grouping's rows wide, per row: the append that
    /// takes the relation past [`NARROW_ROWS`] rows calls this before it
    /// extends the grouping. A wide grouping is left as it is.
    fn widen(&mut self) {
        if let Width::Narrow(l) = &mut self.layout {
            let ids = l.row_ids_mut();
            let wide = RowIds {
                row_group: ids.row_group.iter().map(|&g| g.into()).collect(),
                representative: ids.representative.iter().map(|&r| r.into()).collect(),
            };
            self.layout = Width::Wide(Box::new(Layout::Rows(wide)));
        }
    }
}

/// The rows of a [`GroupIndex`] at its relation's width. The wide form
/// is boxed, so that it costs a grouping no bytes of its own.
#[derive(Clone, Debug)]
enum Width {
    /// At most [`NARROW_ROWS`] rows.
    Narrow(Layout<u16>),
    /// More rows.
    Wide(Box<Layout<u32>>),
}

/// The rows of a [`GroupIndex`], in the layout its first request chose,
/// as indexes of type `I`.
#[derive(Clone, Debug)]
enum Layout<I> {
    /// The per-row form.
    Rows(RowIds<I>),
    /// Group `g`'s rows are `rows[bounds[g]..bounds[g + 1]]`, ascending,
    /// so a bucket's first row is its group's representative. `row_ids`
    /// holds the per-row form once something has read it.
    Buckets {
        bounds: Box<[I]>,
        rows: Box<[I]>,
        row_ids: OnceLock<Box<RowIds<I>>>,
    },
}

impl<I: RowIdx> Layout<I> {
    /// Buckets the rows by their group ids (`ids[row]`, each below
    /// `n_groups`): one counting pass sizes the buckets and one scatter
    /// fills them, rows ascending within each.
    fn buckets<J: RowIdx>(ids: &[J], n_groups: usize) -> Self {
        let mut bounds = vec![I::default(); n_groups + 1];
        for &g in ids {
            let end = &mut bounds[g.get() + 1];
            *end = I::new(end.get() + 1);
        }
        for g in 1..=n_groups {
            bounds[g] = I::new(bounds[g].get() + bounds[g - 1].get());
        }
        // `bounds[g]` is bucket `g`'s next free slot while scattering,
        // its end afterwards; shifting by one makes it the start again.
        let mut rows = vec![I::default(); ids.len()];
        for (row, &g) in ids.iter().enumerate() {
            let at = &mut bounds[g.get()];
            rows[at.get()] = I::new(row);
            *at = I::new(at.get() + 1);
        }
        bounds.copy_within(..n_groups, 1);
        bounds[0] = I::default();
        Self::Buckets {
            bounds: bounds.into_boxed_slice(),
            rows: rows.into_boxed_slice(),
            row_ids: OnceLock::new(),
        }
    }

    /// The per-row form, derived once from the buckets of a bucketed
    /// grouping.
    fn row_ids(&self) -> &RowIds<I> {
        match self {
            Self::Rows(ids) => ids,
            Self::Buckets {
                bounds,
                rows,
                row_ids,
            } => row_ids.get_or_init(|| Box::new(RowIds::from_buckets(bounds, rows))),
        }
    }

    /// The per-row form for an append to extend: a bucketed grouping is
    /// rewritten into it first, in `O(rows)`, once.
    fn row_ids_mut(&mut self) -> &mut RowIds<I> {
        if let Self::Buckets {
            bounds,
            rows,
            row_ids,
        } = self
        {
            let ids = row_ids
                .take()
                .map_or_else(|| RowIds::from_buckets(bounds, rows), |ids| *ids);
            *self = Self::Rows(ids);
        }
        match self {
            Self::Rows(ids) => ids,
            Self::Buckets { .. } => unreachable!("rewritten above"),
        }
    }

    /// Whether the rows are bucketed.
    fn is_bucketed(&self) -> bool {
        matches!(self, Self::Buckets { .. })
    }

    /// The first row of group `g`, read from either layout as it is.
    fn head(&self, g: usize) -> usize {
        match self {
            Self::Rows(ids) => ids.representative[g].get(),
            Self::Buckets { bounds, rows, .. } => rows[bounds[g].get()].get(),
        }
    }

    /// The size of the smallest bucket, or `None` per row.
    fn smallest_bucket(&self) -> Option<usize> {
        match self {
            Self::Rows(_) => None,
            Self::Buckets { bounds, .. } => {
                bounds.windows(2).map(|b| b[1].get() - b[0].get()).min()
            }
        }
    }
}

/// The per-row form of a grouping.
#[derive(Clone, Debug)]
struct RowIds<I> {
    /// Each row's group id.
    row_group: Vec<I>,
    /// Each group's first row.
    representative: Vec<I>,
}

impl<I: RowIdx> RowIds<I> {
    /// The per-row form of a bucketed grouping (see [`Layout::Buckets`]).
    fn from_buckets(bounds: &[I], rows: &[I]) -> Self {
        let mut row_group = vec![I::default(); rows.len()];
        for (g, bucket) in bounds.windows(2).enumerate() {
            for &row in &rows[bucket[0].get()..bucket[1].get()] {
                row_group[row.get()] = I::new(g);
            }
        }
        let representative = bounds[..bounds.len() - 1]
            .iter()
            .map(|&start| rows[start.get()])
            .collect();
        Self {
            row_group,
            representative,
        }
    }

    /// Appends `row` to group `gid`, whose first row it is when `is_new`.
    fn push(&mut self, row: usize, gid: usize, is_new: bool) {
        if is_new {
            self.representative.push(I::new(row));
        }
        self.row_group.push(I::new(gid));
    }
}

/// How a [`GroupIndex`] maps a projected sub-tuple to its group id —
/// retained after the build so appends are incremental.
#[derive(Clone, Debug)]
enum GroupLookup {
    /// Mixed-radix path: `base` holds the build-time codes in ascending
    /// order (group id = rank), allocated at exactly the build-time
    /// group count, and `appended` the codes first seen by an append
    /// (group ids `base.len()..`).
    Radix {
        base: Vec<u64>,
        appended: HashMap<u64, u32>,
    },
    /// Wide-domain path: the interner's dense ids *are* the group ids
    /// (sub-tuples are interned in first-seen order at build time and on
    /// every append).
    Wide { interner: ValueInterner },
}

/// A columnar, interning view of a [`Relation`] — the kernel every
/// safety probe runs on.
///
/// Construction is `O(attrs × rows)`; each distinct attribute set pays
/// one grouping pass — `O(attrs × rows)` by direct addressing when its
/// code space is at most 4 × rows, `O(rows log rows)` by sorting above
/// that — after which probes touching it are allocation-free (cache
/// lookups borrow their keys, the pair pass runs in the thread's own
/// buffer) and cost one `O(rows)` pair pass. Streaming rows in through
/// [`append_rows`](Self::append_rows) extends the warm groupings
/// instead of rebuilding them.
///
/// # Examples
/// ```
/// use sv_relation::{AttrSet, InternedRelation, Relation, Schema};
///
/// // The Lemma-4 question: per visible-input group, how many distinct
/// // visible-output sub-tuples does the relation show?
/// let r = Relation::from_values(
///     Schema::booleans(&["i", "o1", "o2"]),
///     vec![vec![0, 0, 1], vec![0, 1, 0], vec![1, 1, 0], vec![1, 1, 1]],
/// )
/// .unwrap();
/// let ir = InternedRelation::from_relation(&r);
/// let key = AttrSet::from_indices(&[0]);
/// let probe = AttrSet::from_indices(&[1, 2]);
/// assert_eq!(ir.min_group_distinct(&key, &probe), 2);
/// // The grouping passes are memoized: repeating the probe is two
/// // cache lookups plus one pass over the key's row buckets.
/// assert_eq!(ir.cached_groupings(), 2);
/// ```
pub struct InternedRelation {
    schema: Schema,
    n_rows: usize,
    cols: Vec<Vec<Value>>,
    /// Generation counter: bumped by every [`append_rows`](Self::append_rows)
    /// that adds at least one genuinely new row. `0` for a fresh build.
    epoch: u64,
    /// Sharded group cache keyed by the schema-masked attribute set
    /// (once-per-set publication; see [`GroupCache`]).
    groups: GroupCache,
}

impl Clone for InternedRelation {
    fn clone(&self) -> Self {
        Self {
            schema: self.schema.clone(),
            n_rows: self.n_rows,
            cols: self.cols.clone(),
            epoch: self.epoch,
            groups: self.groups.deep_clone(),
        }
    }
}

impl std::fmt::Debug for InternedRelation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "InternedRelation({:?}, {} rows, epoch {}, {} cached groupings)",
            self.schema,
            self.n_rows,
            self.epoch,
            self.groups.len()
        )
    }
}

impl InternedRelation {
    /// Builds the columnar kernel view of `r`.
    #[must_use]
    pub fn from_relation(r: &Relation) -> Self {
        let schema = r.schema().clone();
        let n_rows = r.len();
        let n_attrs = schema.len();
        let mut cols: Vec<Vec<Value>> = (0..n_attrs).map(|_| Vec::with_capacity(n_rows)).collect();
        for t in r.rows() {
            for (col, &v) in cols.iter_mut().zip(t.values()) {
                col.push(v);
            }
        }
        Self {
            schema,
            n_rows,
            cols,
            epoch: 0,
            groups: GroupCache::default(),
        }
    }

    /// Reconstructs a kernel from rows **in arrival order** with an
    /// explicit epoch counter — the durable-recovery constructor. A
    /// snapshot of a streamed kernel persists its column store (row
    /// order = append order, which appended group ids and
    /// representatives depend on) together with the epoch; this rebuilds
    /// exactly that logical state with cold group caches, so subsequent
    /// probes and appends behave identically to the uninterrupted run.
    ///
    /// # Errors
    /// Arity/domain violations as in [`append_rows`](Self::append_rows);
    /// [`RelationError::DuplicateRow`] on a repeated row — the streamed
    /// store is duplicate-free by construction, so a duplicate in
    /// recovered input is corruption, not data.
    pub fn from_ordered_rows(
        schema: Schema,
        rows: &[Tuple],
        epoch: u64,
    ) -> Result<Self, RelationError> {
        let mut cols: Vec<Vec<Value>> = (0..schema.len())
            .map(|_| Vec::with_capacity(rows.len()))
            .collect();
        let mut seen: std::collections::HashSet<&[Value]> =
            std::collections::HashSet::with_capacity(rows.len());
        for (i, t) in rows.iter().enumerate() {
            schema.check_row(t)?;
            if !seen.insert(t.values()) {
                return Err(RelationError::DuplicateRow { row: i });
            }
            for (col, &v) in cols.iter_mut().zip(t.values()) {
                col.push(v);
            }
        }
        Ok(Self {
            schema,
            n_rows: rows.len(),
            cols,
            epoch,
            groups: GroupCache::default(),
        })
    }

    /// The relation's generation counter: `0` at build, bumped by every
    /// [`append_rows`](Self::append_rows) call that adds at least one
    /// new row. Memoized consumers (the `sv-core` safety oracles, the
    /// sweep layer) stamp their cache entries with this and invalidate
    /// lazily on mismatch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The underlying schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    #[must_use]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Value of attribute `a` in row `row` (columnar access).
    #[must_use]
    pub fn value(&self, row: usize, a: AttrId) -> Value {
        self.cols[a.index()][row]
    }

    /// Every row as a [`Relation`], read straight from the column store
    /// (sorted once, as [`Relation::from_rows`] does). Builds and caches
    /// no grouping: this is how a module that keeps its rows only here
    /// hands them to the row-at-a-time callers (possible worlds, the
    /// reference oracle).
    #[must_use]
    pub fn to_relation(&self) -> Relation {
        let rows = (0..self.n_rows)
            .map(|row| Tuple::new(self.cols.iter().map(|col| col[row]).collect()))
            .collect();
        Relation::from_rows(self.schema.clone(), rows).expect("kernel rows are schema-valid")
    }

    /// `set` restricted to the schema's attributes — the group cache
    /// key (ids beyond the schema cannot name a column).
    fn masked(&self, set: &AttrSet) -> AttrSet {
        set.intersection(&self.schema.all_attrs())
    }

    /// Mixed-radix digit sizes for `attrs`, and whether their product
    /// fits a `u64` code (the radix fast path). Schema-determined, so
    /// the radix/wide decision is stable across appends.
    fn radix_sizes(&self, attrs: &[usize]) -> (Vec<u64>, bool) {
        let mut sizes: Vec<u64> = Vec::with_capacity(attrs.len());
        let mut product: u128 = 1;
        for &a in attrs {
            let s = u64::from(self.schema.attr(AttrId(a as u32)).domain.size());
            product = product.saturating_mul(u128::from(s));
            sizes.push(s);
        }
        (sizes, product <= u128::from(u64::MAX))
    }

    /// Each row's mixed-radix code over the attributes of `key`, built
    /// column by column. The caller picks a code type that holds the
    /// code space; every intermediate code is below the final one.
    fn row_codes<C>(&self, key: &AttrSet) -> Vec<C>
    where
        C: Copy + Default + From<u32> + std::ops::Mul<Output = C> + std::ops::Add<Output = C>,
    {
        let mut codes = vec![C::default(); self.n_rows];
        for a in key.iter() {
            let s = C::from(self.schema.attr(a).domain.size());
            for (c, &v) in codes.iter_mut().zip(&self.cols[a.index()]) {
                *c = *c * s + C::from(v);
            }
        }
        codes
    }

    /// Computes the dense grouping for the attributes of `key` (a
    /// schema-masked set), bucketed when `bucketed` is set and per row
    /// otherwise, at the relation's width. Both layouts number the
    /// groups alike.
    fn compute_group(&self, key: &AttrSet, bucketed: bool) -> GroupIndex {
        let (n_groups, layout, lookup) = if self.n_rows <= NARROW_ROWS {
            let (n_groups, layout, lookup) = self.group_rows(key, bucketed);
            (n_groups, Width::Narrow(layout), lookup)
        } else {
            let (n_groups, layout, lookup) = self.group_rows(key, bucketed);
            (n_groups, Width::Wide(Box::new(layout)), lookup)
        };
        GroupIndex {
            n_groups,
            layout,
            lookup,
            new_group_epoch: self.epoch,
        }
    }

    /// The group count, rows and lookup of
    /// [`compute_group`](Self::compute_group), with indexes of type `I`.
    /// A bucketed grouping numbers its rows as `u32`s, in the code
    /// buffer on the direct-addressing path, and scatters them into
    /// buckets of type `I`; a per-row grouping numbers them as `I`.
    fn group_rows<I: RowIdx>(
        &self,
        key: &AttrSet,
        bucketed: bool,
    ) -> (u32, Layout<I>, GroupLookup) {
        if bucketed {
            let (ids, representative, lookup) = self.number_rows::<u32>(key);
            let n_groups = representative.len();
            (n_groups as u32, Layout::buckets(&ids, n_groups), lookup)
        } else {
            let (row_group, representative, lookup) = self.number_rows::<I>(key);
            let n_groups = representative.len() as u32;
            let ids = RowIds {
                row_group,
                representative,
            };
            (n_groups, Layout::Rows(ids), lookup)
        }
    }

    /// Each row's dense group id over the attributes of `key`, each
    /// group's first row and the lookup, with indexes of type `J`.
    fn number_rows<J: RowIdx>(&self, key: &AttrSet) -> (Vec<J>, Vec<J>, GroupLookup) {
        let n = self.n_rows;
        // The radix/wide decision of `radix_sizes`: the code space must
        // fit a `u64`.
        if let Ok(space) = u64::try_from(self.schema.domain_product(key)) {
            // Mixed-radix fast path, densified to group id = rank of the
            // row's code: a direct-addressed space also fits `u32` codes.
            let direct = u32::try_from(space)
                .ok()
                .filter(|&s| u64::from(s) <= DIRECT_ADDRESS_FACTOR.saturating_mul(n as u64));
            let (row_group, base, representative) = match direct {
                Some(space) => densify_direct(self.row_codes::<u32>(key), space),
                None => densify_sorted(&self.row_codes::<u64>(key)),
            };
            let lookup = GroupLookup::Radix {
                base,
                appended: HashMap::new(),
            };
            (row_group, representative, lookup)
        } else {
            // Wide-domain fallback: intern the materialized sub-tuples.
            // Interner ids are assigned in first-seen row order and are
            // used as the group ids directly.
            let mut interner = ValueInterner::new();
            let mut buf: Vec<Value> = Vec::with_capacity(key.len());
            let mut row_group: Vec<J> = Vec::with_capacity(n);
            let mut representative: Vec<J> = Vec::new();
            for row in 0..n {
                buf.clear();
                buf.extend(key.iter().map(|a| self.cols[a.index()][row]));
                let gid = interner.intern(&buf) as usize;
                if gid == representative.len() {
                    representative.push(J::new(row));
                }
                row_group.push(J::new(gid));
            }
            (row_group, representative, GroupLookup::Wide { interner })
        }
    }

    /// Appends `rows` **incrementally**: the column store grows in
    /// place, and every memoized [`GroupIndex`] is *extended* — new
    /// sub-tuples take the next free dense group id — instead of being
    /// discarded and rebuilt. A bucketed grouping is first rewritten
    /// into the per-row form, once, and stays per row; when the rows
    /// pass 65,535, every grouping is widened to `u32` indexes first
    /// (the full-row grouping at the row that crosses). Duplicate rows
    /// (against the existing relation or within the batch) are skipped,
    /// preserving set semantics; the [`epoch`](Self::epoch) counter is
    /// bumped iff at least one genuinely new row landed.
    ///
    /// Cost: `O(batch × (attrs + cached groupings × log groups))`, plus
    /// `O(rows)` for each bucketed grouping the append rewrites or
    /// grouping it widens — the
    /// streaming alternative to rebuilding every cached grouping, which
    /// costs `O(rows)` per grouping with a code space of at most
    /// 4 × rows and `O(rows log rows)` per larger one. Returns the
    /// number of new rows.
    ///
    /// # Errors
    /// Rejects rows violating the schema (arity or domain) before any
    /// mutation — on error the relation is unchanged.
    ///
    /// # Examples
    /// ```
    /// use sv_relation::{AttrSet, InternedRelation, Relation, Schema, Tuple};
    ///
    /// let base = Relation::from_values(Schema::booleans(&["i", "o"]), vec![vec![0, 1]]).unwrap();
    /// let mut ir = InternedRelation::from_relation(&base);
    /// let key = AttrSet::from_indices(&[0]);
    /// let probe = AttrSet::from_indices(&[1]);
    /// assert_eq!(ir.min_group_distinct(&key, &probe), 1);
    ///
    /// // A new execution arrives; the warm group indexes are extended,
    /// // not rebuilt, and the epoch advances.
    /// let added = ir.append_rows(&[Tuple::new(vec![1, 0]), Tuple::new(vec![0, 1])]).unwrap();
    /// assert_eq!((added, ir.n_rows(), ir.epoch()), (1, 2, 1));
    /// assert_eq!(ir.min_group_distinct(&key, &probe), 1);
    /// ```
    pub fn append_rows(&mut self, rows: &[Tuple]) -> Result<usize, RelationError> {
        for t in rows {
            self.schema.check_row(t)?;
        }
        if rows.is_empty() {
            return Ok(0);
        }
        let all = self.schema.all_attrs();
        // Materialize the full-row grouping once: it doubles as the
        // set-semantics dedup structure (every distinct row is its own
        // group), and stays maintained across appends like any other.
        let _ = self.group_index(&all);
        let next_epoch = self.epoch + 1;
        let start_row = self.n_rows;
        // Take the cache maps out of their shard locks for the duration
        // — we hold `&mut self`, so nothing can observe the gap, and
        // this sidesteps per-row lock traffic and borrows against
        // `cols`. Slots whose builder never published are dropped by
        // the retain pass below (the next probe rebuilds post-append).
        let mut cache = self.groups.take_maps();

        // Phase 1: dedup against (and extend) the full-row grouping,
        // appending genuinely new rows to the column store.
        {
            let full = cache[shard_idx(&all)]
                .get_mut(&all)
                .expect("full grouping materialized above");
            let full = slot_mut(full).expect("full grouping published above");
            let attrs: Vec<usize> = (0..self.schema.len()).collect();
            let (sizes, _) = self.radix_sizes(&attrs);
            let mut buf: Vec<Value> = Vec::with_capacity(attrs.len());
            for t in rows {
                if gid_of(full, &attrs, &sizes, &mut buf, |a| t.values()[a]).is_some() {
                    continue; // duplicate of an existing or just-appended row
                }
                let row = self.n_rows;
                for (col, &v) in self.cols.iter_mut().zip(t.values()) {
                    col.push(v);
                }
                self.n_rows += 1;
                if self.n_rows > NARROW_ROWS {
                    full.widen();
                }
                extend_gid(full, &attrs, &sizes, &mut buf, row, next_epoch, |a| {
                    t.values()[a]
                });
            }
        }

        // Phase 2: extend every other published grouping with the new
        // rows, widened first if they took the relation past the narrow
        // width; unpublished slots are dropped rather than extended.
        let appended = self.n_rows - start_row;
        if appended > 0 {
            let wide = self.n_rows > NARROW_ROWS;
            for shard in cache.iter_mut() {
                shard.retain(|set, slot| {
                    if *set == all {
                        return true;
                    }
                    let Some(gi) = slot_mut(slot) else {
                        return false;
                    };
                    if wide {
                        gi.widen();
                    }
                    let attrs: Vec<usize> = set.iter().map(AttrId::index).collect();
                    self.extend_index(gi, &attrs, start_row..self.n_rows, next_epoch);
                    true
                });
            }
            self.epoch = next_epoch;
        }
        self.groups.restore(cache);
        Ok(appended)
    }

    /// Extends one cached group index with the rows in `new_rows`
    /// (already present in the column store).
    fn extend_index(
        &self,
        gi: &mut GroupIndex,
        attrs: &[usize],
        new_rows: std::ops::Range<usize>,
        epoch: u64,
    ) {
        let (sizes, _) = self.radix_sizes(attrs);
        let mut buf: Vec<Value> = Vec::with_capacity(attrs.len());
        for row in new_rows {
            extend_gid(gi, attrs, &sizes, &mut buf, row, epoch, |a| {
                self.cols[a][row]
            });
        }
    }

    /// The representative row of the group that `row_values` (a full row
    /// in schema order) falls into under the grouping by `set`, or
    /// `None` if no existing row shares its projected sub-tuple.
    /// Computes (and memoizes) the group index on first use.
    ///
    /// This is the point lookup streaming consumers use, e.g. to check a
    /// candidate execution's outputs against the recorded output of its
    /// input group before appending (FD enforcement in `sv-core`).
    #[must_use]
    pub fn find_group_row(&self, set: &AttrSet, row_values: &[Value]) -> Option<usize> {
        let g = self.group_index(set);
        let attrs: Vec<usize> = self.masked(set).iter().map(AttrId::index).collect();
        let (sizes, _) = self.radix_sizes(&attrs);
        let mut buf: Vec<Value> = Vec::with_capacity(attrs.len());
        let gid = gid_of(&g, &attrs, &sizes, &mut buf, |a| row_values[a])?;
        Some(g.head(gid as usize))
    }

    /// The [`GroupIndex::new_group_epoch`] of the **cached** grouping
    /// for `set`, without computing it — `None` when that grouping has
    /// never been materialized. The memoized oracles use this for the
    /// monotone revalidation shortcut.
    #[must_use]
    pub fn group_new_group_epoch(&self, set: &AttrSet) -> Option<u64> {
        self.groups
            .get(&self.masked(set))
            .map(|g| g.new_group_epoch)
    }

    /// The (memoized) group index for `set` (ids beyond the schema are
    /// ignored), built per row when cold.
    ///
    /// Safe to call from any number of concurrent reader threads: the
    /// cache is sharded by set hash, and a cold set is built by
    /// **exactly one** thread (racing readers block on that set's
    /// publication slot only, never on unrelated sets).
    #[must_use]
    pub fn group_index(&self, set: &AttrSet) -> Arc<GroupIndex> {
        self.grouping(set, false)
    }

    /// The memoized grouping for `set`, built bucketed when cold and
    /// `bucketed` is set: the layout of a set's first request stands.
    fn grouping(&self, set: &AttrSet, bucketed: bool) -> Arc<GroupIndex> {
        let key = self.masked(set);
        self.groups
            .get_or_publish(&key, || self.compute_group(&key, bucketed))
    }

    /// Lemma-4 inner loop: over the `key` groups, the **minimum** number
    /// of distinct `probe` sub-tuples, or `usize::MAX` on an empty
    /// relation.
    ///
    /// One `O(rows)` pair pass, which stops once some group shows a
    /// single probe sub-tuple, the least possible: a stamp scan over the
    /// key's buckets when `key` was first requested as a key, else pair
    /// marking or a counting sort (see the module docs). A degenerate
    /// shape takes no pass: a single probe group or a key group per row
    /// answers 1, a single key group answers the probe group count, and
    /// a probe group per row over a bucketed key its smallest bucket (a
    /// per-row key runs its pass for that shape). The `key` grouping
    /// is built bucketed when cold, the `probe` grouping per row.
    /// Allocation-free once both group indexes are cached and the
    /// calling thread's pair-pass buffer has grown to this relation:
    /// every thread runs the pass in a buffer of its own, so concurrent
    /// probes never contend on one.
    #[must_use]
    pub fn min_group_distinct(&self, key: &AttrSet, probe: &AttrSet) -> usize {
        let kg = self.grouping(key, true);
        let pg = self.group_index(probe);
        let n = self.n_rows;
        if n == 0 {
            return usize::MAX;
        }
        let (kn, pn) = (kg.n_groups as usize, pg.n_groups as usize);
        if pn <= 1 || kn == n {
            return 1;
        }
        if kn == 1 {
            return pn;
        }
        if pn == n {
            // Each row its own probe group: a key group's distinct count
            // is its size, which a bucketed key holds.
            if let Some(min) = kg.smallest_bucket() {
                return min;
            }
        }
        let mut min = usize::MAX;
        pair_pass(&kg, &pg, |_, distinct| {
            min = min.min(distinct);
            min > 1
        });
        min
    }

    /// Grouped distinct counting with materialized keys — the
    /// compatibility form of the Lemma-4 condition
    /// (`π_key`-group → number of distinct `π_probe` values), through
    /// the same pair pass as the probes.
    #[must_use]
    pub fn group_count_distinct(&self, key: &AttrSet, probe: &AttrSet) -> HashMap<Tuple, usize> {
        let kg = self.grouping(key, true);
        let pg = self.group_index(probe);
        let key_attrs: Vec<AttrId> = self.masked(key).iter().collect();
        let mut counts: HashMap<Tuple, usize> = HashMap::with_capacity(kg.n_groups as usize);
        pair_pass(&kg, &pg, |g, distinct| {
            let row = kg.head(g);
            let key_tuple = Tuple::new(key_attrs.iter().map(|&a| self.value(row, a)).collect());
            counts.insert(key_tuple, distinct);
            true
        });
        counts
    }

    /// Projection `π_set` materialized through the group index: one row
    /// per distinct sub-tuple, gathered from group representatives.
    #[must_use]
    pub fn project(&self, set: &AttrSet) -> Relation {
        let attrs: Vec<AttrId> = self.masked(set).iter().collect();
        let schema = Schema::new(
            attrs
                .iter()
                .map(|&a| self.schema.attr(a).clone())
                .collect::<Vec<AttrDef>>(),
        );
        let g = self.group_index(set);
        let rows: Vec<Tuple> = (0..g.n_groups as usize)
            .map(|group| {
                let row = g.head(group);
                Tuple::new(attrs.iter().map(|&a| self.value(row, a)).collect())
            })
            .collect();
        Relation::from_rows(schema, rows).expect("projection preserves validity")
    }

    /// Number of cached (published) group indexes (diagnostics / tests).
    #[must_use]
    pub fn cached_groupings(&self) -> usize {
        self.groups.len()
    }
}

/// Group id of the sub-tuple read through `get` (attribute index →
/// value) over `attrs`, if that sub-tuple already has a group in `gi`.
fn gid_of<F: Fn(usize) -> Value>(
    gi: &GroupIndex,
    attrs: &[usize],
    sizes: &[u64],
    buf: &mut Vec<Value>,
    get: F,
) -> Option<u32> {
    match &gi.lookup {
        GroupLookup::Radix { base, appended } => {
            let mut c: u64 = 0;
            for (&a, &s) in attrs.iter().zip(sizes.iter()) {
                c = c * s + u64::from(get(a));
            }
            match base.binary_search(&c) {
                Ok(rank) => Some(rank as u32),
                Err(_) => appended.get(&c).copied(),
            }
        }
        GroupLookup::Wide { interner } => {
            buf.clear();
            buf.extend(attrs.iter().map(|&a| get(a)));
            interner.get(buf)
        }
    }
}

/// Appends `row` (values read through `get`) to `gi`, assigning the next
/// free dense group id if its sub-tuple is unseen; stamps
/// `new_group_epoch` with `epoch` when a new group is created. A
/// bucketed `gi` is first rewritten into the per-row form. `gi` must
/// hold `row` at its width (see [`GroupIndex::widen`]).
fn extend_gid<F: Fn(usize) -> Value>(
    gi: &mut GroupIndex,
    attrs: &[usize],
    sizes: &[u64],
    buf: &mut Vec<Value>,
    row: usize,
    epoch: u64,
    get: F,
) {
    let n_groups = gi.n_groups;
    let (gid, is_new) = match &mut gi.lookup {
        GroupLookup::Radix { base, appended } => {
            let mut c: u64 = 0;
            for (&a, &s) in attrs.iter().zip(sizes.iter()) {
                c = c * s + u64::from(get(a));
            }
            match base.binary_search(&c) {
                Ok(rank) => (rank as u32, false),
                Err(_) => match appended.entry(c) {
                    std::collections::hash_map::Entry::Occupied(e) => (*e.get(), false),
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(n_groups);
                        (n_groups, true)
                    }
                },
            }
        }
        GroupLookup::Wide { interner } => {
            buf.clear();
            buf.extend(attrs.iter().map(|&a| get(a)));
            let id = interner.intern(buf);
            (id, id == n_groups)
        }
    };
    if is_new {
        gi.n_groups += 1;
        gi.new_group_epoch = epoch;
    }
    gi.push_row(row, gid as usize, is_new);
}

/// A densified grouping: each row's group id, the distinct codes in
/// ascending order (group id = rank, allocated at exactly their count)
/// and each group's first row.
type Densified<I> = (Vec<I>, Vec<u64>, Vec<I>);

/// Densifies row codes from a code space of `space` codes by direct
/// addressing; the ids are numbered in the code buffer when `I` is
/// `u32` (see [`RowIdx::number`]).
fn densify_direct<I: RowIdx>(codes: Vec<u32>, space: u32) -> Densified<I> {
    // `slot[code]`: `u32::MAX` while absent, else the first row with
    // that code (the backward scan's last write), then the code's group
    // id after the ascending numbering pass.
    let mut slot = vec![u32::MAX; space as usize];
    for (row, &c) in codes.iter().enumerate().rev() {
        slot[c as usize] = row as u32;
    }
    let distinct = slot.iter().filter(|&&s| s != u32::MAX).count();
    let mut base = Vec::with_capacity(distinct);
    let mut representative = Vec::with_capacity(distinct);
    for (code, s) in slot.iter_mut().enumerate() {
        if *s != u32::MAX {
            representative.push(I::new(*s as usize));
            *s = base.len() as u32;
            base.push(code as u64);
        }
    }
    (I::number(codes, &slot), base, representative)
}

/// [`densify_direct`] for code spaces too large to address: sorts the
/// codes and ranks each row by binary search.
fn densify_sorted<I: RowIdx>(codes: &[u64]) -> Densified<I> {
    let mut base = codes.to_vec();
    base.sort_unstable();
    base.dedup();
    // Retained as the grouping's lookup: keep the group count, not the
    // row count.
    base.shrink_to_fit();
    let row_group: Vec<I> = codes
        .iter()
        .map(|c| I::new(base.binary_search(c).expect("own code")))
        .collect();
    // A backward scan: each group's last write is its first row.
    let mut representative = vec![I::default(); base.len()];
    for (row, &g) in row_group.iter().enumerate().rev() {
        representative[g.get()] = I::new(row);
    }
    (row_group, base, representative)
}

/// The Lemma-4 pair pass over two cached groupings of one relation:
/// calls `visit(key_group, distinct)` with the number of distinct `pg`
/// groups among the rows of each `kg` group, in ascending key-group
/// order, until `visit` returns `false`.
///
/// `O(rows + groups)` and allocation-free once the thread's
/// [`PAIR_PASS`] buffer has grown. It reads `pg` per row, and keeps two
/// scans with identical visits:
/// * **Stamp scan over buckets**, for a bucketed `kg`: its buckets are
///   read as they are cached, and a stamp per probe group (the last
///   bucket that counted it) counts each bucket's distinct probe groups
///   ([`stamp_scan`]), in `pg.n_groups` ≤ rows words.
/// * For a per-row `kg`, **pair marking** when the pair space
///   `kg.n_groups × pg.n_groups` is at most [`PAIR_MARK_BITS_PER_ROW`]
///   bits per row: one pass over the two id columns sets each
///   `(key group, probe group)` pair's bit, and a key group's count goes
///   up on the first mark of each pair, in `kg.n_groups` counts and the
///   pair space's bit words, at most `rows + 4 × rows` words. Above the
///   bound, a counting sort buckets the rows' probe groups by key group
///   for this pass alone and the stamp scan counts them, in
///   `kg.n_groups + rows + pg.n_groups` ≤ 3 × rows words.
///
/// `visit` runs while the buffer is borrowed, so it must not probe.
fn pair_pass(kg: &GroupIndex, pg: &GroupIndex, visit: impl FnMut(usize, usize) -> bool) {
    let (kn, pn) = (kg.n_groups as usize, pg.n_groups as usize);
    match (&kg.layout, &pg.layout) {
        (Width::Narrow(k), Width::Narrow(p)) => scan_pairs(k, p, kn, pn, visit),
        (Width::Wide(k), Width::Wide(p)) => scan_pairs(k, p, kn, pn, visit),
        _ => unreachable!("the groupings of one relation share its width"),
    }
}

/// [`pair_pass`] over the rows of a key and a probe grouping with `kn`
/// and `pn` groups, whose indexes are of type `I`.
fn scan_pairs<I: RowIdx>(
    kl: &Layout<I>,
    pl: &Layout<I>,
    kn: usize,
    pn: usize,
    visit: impl FnMut(usize, usize) -> bool,
) {
    let probe_ids = &pl.row_ids().row_group[..];
    let n = probe_ids.len();
    PAIR_PASS.with_borrow_mut(|buf| match kl {
        Layout::Buckets { bounds, rows, .. } => {
            if buf.len() < pn {
                buf.resize(pn, 0);
            }
            let buckets = bounds.windows(2).map(|b| {
                rows[b[0].get()..b[1].get()]
                    .iter()
                    .map(|&row| probe_ids[row.get()].get())
            });
            stamp_scan(buckets, &mut buf[..pn], visit);
        }
        Layout::Rows(ids) => {
            let key_ids = &ids.row_group[..];
            // Group and row counts are below 2³², so neither side
            // overflows.
            if (kn as u64) * (pn as u64) <= PAIR_MARK_BITS_PER_ROW * n as u64 {
                mark_pairs(key_ids, probe_ids, kn, pn, buf, visit);
                return;
            }
            if buf.len() < kn + n + pn {
                buf.resize(kn + n + pn, 0);
            }
            let (ends, rest) = buf.split_at_mut(kn);
            let (bucketed, rest) = rest.split_at_mut(n);
            // Counting sort: bucket sizes, then their starts, then
            // scatter — after which `ends[k]` is the end of bucket `k`.
            ends.fill(0);
            for &k in key_ids {
                ends[k.get()] += 1;
            }
            let mut start = 0u64;
            for e in ends.iter_mut() {
                let size = *e;
                *e = start;
                start += size;
            }
            for (&k, &p) in key_ids.iter().zip(probe_ids) {
                let at = &mut ends[k.get()];
                bucketed[*at as usize] = p.get() as u64;
                *at += 1;
            }
            let bucketed: &[u64] = bucketed;
            let mut begin = 0usize;
            let buckets = ends.iter().map(|&end| {
                let bucket = &bucketed[begin..end as usize];
                begin = end as usize;
                bucket.iter().map(|&p| p as usize)
            });
            stamp_scan(buckets, &mut rest[..pn], visit);
        }
    });
}

/// The pair-marking scan of [`pair_pass`] over two per-row id columns
/// with `kn` and `pn` groups, in `buf`.
fn mark_pairs<I: RowIdx>(
    key_ids: &[I],
    probe_ids: &[I],
    kn: usize,
    pn: usize,
    buf: &mut Vec<u64>,
    mut visit: impl FnMut(usize, usize) -> bool,
) {
    let words = (kn * pn).div_ceil(64);
    if buf.len() < kn + words {
        buf.resize(kn + words, 0);
    }
    let (counts, rest) = buf.split_at_mut(kn);
    let marks = &mut rest[..words];
    counts.fill(0);
    marks.fill(0);
    for (&k, &p) in key_ids.iter().zip(probe_ids) {
        let pair = k.get() * pn + p.get();
        let (word, bit) = (&mut marks[pair / 64], 1u64 << (pair % 64));
        counts[k.get()] += u64::from(*word & bit == 0);
        *word |= bit;
    }
    for (k, &distinct) in counts.iter().enumerate() {
        if !visit(k, distinct as usize) {
            return;
        }
    }
}

/// The stamp scan of [`pair_pass`]: each bucket yields its rows' probe
/// groups, each below `stamps.len()`, and one stamp per probe group —
/// the last bucket that counted it — counts the bucket's distinct ones.
/// Calls `visit(bucket, distinct)` in bucket order until it returns
/// `false`.
fn stamp_scan<B: Iterator<Item = usize>>(
    buckets: impl Iterator<Item = B>,
    stamps: &mut [u64],
    mut visit: impl FnMut(usize, usize) -> bool,
) {
    stamps.fill(u64::MAX);
    for (k, bucket) in buckets.enumerate() {
        let mut distinct = 0usize;
        for p in bucket {
            let stamp = &mut stamps[p];
            distinct += usize::from(*stamp != k as u64);
            *stamp = k as u64;
        }
        if !visit(k, distinct) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    fn rel(names: &[&str], rows: Vec<Vec<u32>>) -> Relation {
        Relation::from_values(Schema::booleans(names), rows).unwrap()
    }

    #[test]
    fn interner_roundtrip() {
        let mut it = ValueInterner::new();
        assert!(it.is_empty());
        let a = it.intern(&[1, 2, 3]);
        let b = it.intern(&[0]);
        assert_eq!(it.intern(&[1, 2, 3]), a);
        assert_ne!(a, b);
        assert_eq!(it.resolve(a), &[1, 2, 3]);
        assert_eq!(it.get(&[0]), Some(b));
        assert_eq!(it.get(&[9]), None);
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn group_index_matches_distinct_subtuples() {
        let r = rel(
            &["a", "b", "c"],
            vec![vec![0, 0, 1], vec![0, 1, 0], vec![1, 0, 0], vec![1, 1, 1]],
        );
        let ir = InternedRelation::from_relation(&r);
        let g = ir.group_index(&AttrSet::from_indices(&[0]));
        assert_eq!(g.n_groups(), 2);
        assert!(g.row_group().eq([0, 0, 1, 1]));
        // Representatives are the first rows of each group.
        assert!(g.representative().eq([0, 2]));
        // Full-set grouping: every row its own group.
        let g = ir.group_index(&AttrSet::from_indices(&[0, 1, 2]));
        assert_eq!(g.n_groups(), 4);
        // Empty set: one group holding everything.
        let g = ir.group_index(&AttrSet::new());
        assert_eq!(g.n_groups(), 1);
    }

    #[test]
    fn groupings_retain_codes_at_their_group_count() {
        // 24 boolean attributes over 2,048 rows: attributes 0–2 carry
        // the row number's low three bits, 3–12 are constant, and 13–23
        // carry the row number's eleven bits.
        let names: Vec<String> = (0..24).map(|a| format!("a{a}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let rows = (0..2048u32)
            .map(|r| {
                (0..24)
                    .map(|a| match a {
                        0..=2 => (r >> a) & 1,
                        3..=12 => 0,
                        _ => (r >> (a - 13)) & 1,
                    })
                    .collect()
            })
            .collect();
        let ir = InternedRelation::from_relation(&rel(&names, rows));
        // Attributes 0–2 span 8 codes (direct addressing); attributes
        // 0–13 span 2^14 > 4 × 2,048 codes (sorted). Both hold 8 groups.
        let direct: Vec<u32> = (0..3).collect();
        let sorted: Vec<u32> = (0..14).collect();
        for ids in [direct, sorted] {
            let g = ir.group_index(&AttrSet::from_indices(&ids));
            assert_eq!(g.n_groups(), 8);
            let GroupLookup::Radix { base, .. } = &g.lookup else {
                panic!("boolean codes fit the radix path");
            };
            assert_eq!(base.capacity(), 8, "{} attributes", ids.len());
        }
    }

    #[test]
    fn group_index_does_not_grow() {
        // Every resident grouping pays these bytes; the wide form is
        // boxed so that it adds none.
        assert!(std::mem::size_of::<GroupIndex>() <= 152);
    }

    #[test]
    fn group_cache_is_hit() {
        let r = rel(&["a", "b"], vec![vec![0, 1], vec![1, 0]]);
        let ir = InternedRelation::from_relation(&r);
        let s = AttrSet::from_indices(&[1]);
        let g1 = ir.group_index(&s);
        let g2 = ir.group_index(&s);
        assert!(Arc::ptr_eq(&g1, &g2));
        assert_eq!(ir.cached_groupings(), 1);
    }

    #[test]
    fn min_group_distinct_matches_reference() {
        let r = rel(
            &["i", "o1", "o2"],
            vec![vec![0, 0, 1], vec![0, 1, 0], vec![1, 1, 0], vec![1, 1, 1]],
        );
        let ir = InternedRelation::from_relation(&r);
        let key = AttrSet::from_indices(&[0]);
        let probe = AttrSet::from_indices(&[1, 2]);
        assert_eq!(ir.min_group_distinct(&key, &probe), 2);
        let counts = ir.group_count_distinct(&key, &probe);
        assert_eq!(
            counts,
            ops::reference::group_count_distinct(&r, &key, &probe)
        );
    }

    #[test]
    fn empty_relation_probes() {
        let r = Relation::empty(Schema::booleans(&["a", "b"]));
        let ir = InternedRelation::from_relation(&r);
        assert_eq!(
            ir.min_group_distinct(&AttrSet::from_indices(&[0]), &AttrSet::from_indices(&[1])),
            usize::MAX
        );
        assert!(ir
            .group_count_distinct(&AttrSet::from_indices(&[0]), &AttrSet::from_indices(&[1]))
            .is_empty());
        assert!(ir.project(&AttrSet::from_indices(&[0])).is_empty());
    }

    #[test]
    fn projection_matches_reference() {
        let r = rel(
            &["a", "b", "c"],
            vec![vec![0, 0, 1], vec![0, 1, 0], vec![1, 0, 0], vec![0, 0, 0]],
        );
        let ir = InternedRelation::from_relation(&r);
        for ids in [vec![0u32], vec![0, 2], vec![1, 2], vec![], vec![0, 1, 2]] {
            let set = AttrSet::from_indices(&ids);
            assert_eq!(
                ir.project(&set),
                ops::reference::project(&r, &set),
                "{set:?}"
            );
        }
    }

    #[test]
    fn out_of_schema_ids_are_ignored() {
        let r = rel(&["a", "b"], vec![vec![0, 1], vec![1, 1]]);
        let ir = InternedRelation::from_relation(&r);
        // Id 70 forces the multi-word AttrSet representation.
        let mut set = AttrSet::from_indices(&[0]);
        set.insert(AttrId(70));
        let g = ir.group_index(&set);
        assert_eq!(g.n_groups(), 2, "bit 70 is outside the schema and dropped");
    }

    #[test]
    fn append_extends_groups_and_epoch() {
        let r = rel(&["i", "o1", "o2"], vec![vec![0, 0, 1], vec![0, 1, 0]]);
        let mut ir = InternedRelation::from_relation(&r);
        let key = AttrSet::from_indices(&[0]);
        let probe = AttrSet::from_indices(&[1, 2]);
        // Warm both groupings so appends must maintain them.
        assert_eq!(ir.min_group_distinct(&key, &probe), 2);
        assert_eq!(ir.epoch(), 0);
        let kg_before = ir.group_index(&key);

        // One duplicate, one new row in a fresh key group, one intra-
        // batch repeat.
        let added = ir
            .append_rows(&[
                Tuple::new(vec![0, 0, 1]),
                Tuple::new(vec![1, 1, 1]),
                Tuple::new(vec![1, 1, 1]),
            ])
            .unwrap();
        assert_eq!(added, 1);
        assert_eq!(ir.n_rows(), 3);
        assert_eq!(ir.epoch(), 1);
        // New key group {i=1} has a single distinct probe sub-tuple.
        assert_eq!(ir.min_group_distinct(&key, &probe), 1);
        let kg = ir.group_index(&key);
        assert_eq!(kg.n_groups(), 2);
        assert!(kg.row_group().eq([0, 0, 1]));
        assert_eq!(kg.new_group_epoch(), 1, "append created a key group");
        assert_eq!(kg_before.n_groups(), 1, "pre-append snapshot unshared");

        // Everything agrees with a from-scratch rebuild.
        let full = rel(
            &["i", "o1", "o2"],
            vec![vec![0, 0, 1], vec![0, 1, 0], vec![1, 1, 1]],
        );
        let rebuilt = InternedRelation::from_relation(&full);
        assert_eq!(
            ir.group_count_distinct(&key, &probe),
            rebuilt.group_count_distinct(&key, &probe)
        );
        assert_eq!(ir.project(&probe), rebuilt.project(&probe));
        // The materialized rows are canonical and cost no grouping.
        let cached = ir.cached_groupings();
        assert_eq!(ir.to_relation(), full);
        assert_eq!(ir.cached_groupings(), cached);
    }

    #[test]
    fn append_all_duplicates_keeps_epoch() {
        let r = rel(&["a", "b"], vec![vec![0, 1], vec![1, 0]]);
        let mut ir = InternedRelation::from_relation(&r);
        let added = ir
            .append_rows(&[Tuple::new(vec![0, 1]), Tuple::new(vec![1, 0])])
            .unwrap();
        assert_eq!((added, ir.epoch(), ir.n_rows()), (0, 0, 2));
        assert_eq!(ir.append_rows(&[]).unwrap(), 0);
    }

    #[test]
    fn append_to_empty_relation() {
        let r = Relation::empty(Schema::booleans(&["a", "b"]));
        let mut ir = InternedRelation::from_relation(&r);
        let key = AttrSet::from_indices(&[0]);
        let probe = AttrSet::from_indices(&[1]);
        assert_eq!(ir.min_group_distinct(&key, &probe), usize::MAX);
        assert_eq!(ir.append_rows(&[Tuple::new(vec![1, 1])]).unwrap(), 1);
        assert_eq!((ir.n_rows(), ir.epoch()), (1, 1));
        assert_eq!(ir.min_group_distinct(&key, &probe), 1);
        assert_eq!(ir.group_index(&key).new_group_epoch(), 1);
    }

    #[test]
    fn append_rejects_invalid_rows_without_mutation() {
        let r = rel(&["a", "b"], vec![vec![0, 1]]);
        let mut ir = InternedRelation::from_relation(&r);
        let err = ir
            .append_rows(&[Tuple::new(vec![1, 0]), Tuple::new(vec![1])])
            .unwrap_err();
        assert!(matches!(err, crate::RelationError::ArityMismatch { .. }));
        let err = ir.append_rows(&[Tuple::new(vec![1, 7])]).unwrap_err();
        assert!(matches!(err, crate::RelationError::ValueOutOfDomain { .. }));
        assert_eq!((ir.n_rows(), ir.epoch()), (1, 0), "atomic: nothing landed");
    }

    #[test]
    fn find_group_row_locates_representatives() {
        let r = rel(&["i", "o"], vec![vec![0, 1], vec![1, 0]]);
        let mut ir = InternedRelation::from_relation(&r);
        let inputs = AttrSet::from_indices(&[0]);
        assert_eq!(ir.find_group_row(&inputs, &[0, 9]), Some(0));
        assert_eq!(ir.find_group_row(&inputs, &[1, 9]), Some(1));
        ir.append_rows(&[Tuple::new(vec![1, 1])]).unwrap();
        // Existing group keeps its original representative.
        assert_eq!(ir.find_group_row(&inputs, &[1, 0]), Some(1));
        // Epoch queries answer only for cached groupings.
        assert_eq!(ir.group_new_group_epoch(&inputs), Some(0));
        assert_eq!(ir.group_new_group_epoch(&AttrSet::from_indices(&[1])), None);
    }

    #[test]
    fn wide_domain_falls_back_to_interner() {
        // Domain sizes big enough that three attributes overflow u64
        // mixed-radix codes.
        let schema = Schema::new(
            ["x", "y", "z"]
                .iter()
                .map(|n| AttrDef {
                    name: (*n).to_string(),
                    domain: crate::domain::Domain::new(u32::MAX),
                })
                .collect(),
        );
        let r = Relation::from_values(
            schema,
            vec![
                vec![4_000_000_000, 1, 2],
                vec![4_000_000_000, 1, 3],
                vec![5, 1, 2],
            ],
        )
        .unwrap();
        let ir = InternedRelation::from_relation(&r);
        let key = AttrSet::from_indices(&[0]);
        let probe = AttrSet::from_indices(&[1, 2]);
        assert_eq!(
            ir.group_index(&AttrSet::from_indices(&[0, 1, 2]))
                .n_groups(),
            3
        );
        assert_eq!(ir.min_group_distinct(&key, &probe), 1);
        assert_eq!(
            ir.group_count_distinct(&key, &probe),
            ops::reference::group_count_distinct(&r, &key, &probe)
        );
    }
}
