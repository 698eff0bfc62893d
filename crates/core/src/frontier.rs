//! Bitwise-trie **antichain frontier** over `u64` attribute masks.
//!
//! Proposition 1 makes safety monotone in the hidden set: the ⊆-minimal
//! safe hidden sets form an antichain whose superset closure generates
//! *every* safe set. The lattice sweeps ([`crate::sweep`]) therefore
//! spend their inner loop on one question — *is this mask in the up-set
//! of the antichain found so far?* — which a flat `Vec<u64>` answers in
//! `O(|antichain|)` per mask. [`Frontier`] stores the antichain as a
//! path-compressed binary trie over the mask bits and answers the same
//! question ([`covers`](Frontier::covers)) through a **bitsliced
//! occurrence index**: a branch-free lane scan that screens hundreds of
//! members per super-word and exits at the first qualifying one, so
//! covered queries — the overwhelming majority once the antichain is
//! dense — certify in a handful of word operations rather than hundreds
//! of member visits.
//!
//! ### Trie layout
//!
//! A [`Frontier`] over `k`-bit masks is a binary trie of depth `k`:
//! level `ℓ ∈ 0..k` tests bit `k-1-ℓ` (most-significant bit at the
//! root), so a left-first depth-first walk yields members in ascending
//! numeric order. The trie is **path-compressed** (Patricia/ZDD-style
//! level skipping): each arena node spans a run of non-branching levels
//! `start..branch` whose path bits are stored in `prefix` *at their
//! absolute mask positions*, then either branches at level `branch`
//! into two always-present children, or — when `branch == k` — is a
//! **terminal** holding one member's entire remaining suffix. Branch
//! bits live on the edges (a `kids[1]` edge adds the branch bit), so a
//! per-node subset test is a single `prefix & !query == 0`. Freed slots
//! recycle through a free list; interior nodes always have two live
//! children (removal merges single-child nodes into their child), which
//! makes the shape canonical for a given member set — the trie is the
//! **canonical antichain store** behind ordering
//! ([`iter`](Frontier::iter)), structural equality, and the
//! deterministic [`node_count`](Frontier::node_count).
//!
//! ### Occurrence index
//!
//! Queries run against a **bitsliced occurrence index** maintained
//! alongside the trie: every member owns a slot in a 512-slot
//! super-word of eight `u64` lanes, and for each bit position `b` a
//! super-word row records which of its slots have bit `b` set, laid out
//! word-major (one super-word's `k` rows are contiguous — a few cache
//! lines). [`covers`](Frontier::covers) ORs the rows of the bits the
//! query *lacks* into a forbidden set; any live slot outside it is a
//! member ⊆ query. It scans super-words in insertion order (the sweeps
//! insert in (popcount, mask) order, so small, high-coverage members
//! sit in the earliest words) and exits at the first surviving word,
//! which is what makes dense-antichain coverage tests effectively
//! constant-time: 512 members are screened per block by straight-line
//! lane OR ops with no data-dependent branching inside the block.
//!
//! Each super-word additionally carries a **compaction digest** — a
//! conservative AND of its live member masks plus a popcount lower
//! bound — letting a query skip a whole 512-slot block in two word ops
//! when the digest alone rules it out (e.g. every member of the block
//! has a bit the query lacks). Digests are maintained incrementally and
//! only tightened lazily: evictions leave them stale-but-sound (a stale
//! AND is a subset of the true AND, a stale bound at most the true
//! minimum popcount), and a block whose members are all evicted by
//! insert-driven dominance is reset and — when it is the trailing
//! block — recycled outright, shrinking the scan.
//!
//! ### Border enumeration
//!
//! The sweeps' outer loop is the dual question: *which masks of a
//! popcount layer are **not** yet covered?* Instead of enumerating all
//! `C(k, p)` masks and testing each,
//! [`uncovered_in_layer`](Frontier::uncovered_in_layer) walks the trie
//! once, MSB-first, carrying the set of members still compatible with
//! the mask prefix decided so far. A subtree all of whose completions
//! contain a member is skipped whole (one **border jump** per
//! path-compressed descent), and a subtree no member can reach is
//! emitted as one contiguous [`BorderRun`] of `C(width, remaining)`
//! uncovered masks — so the walk costs `O(border)`, not `O(layer)`.
//!
//! ### Minimality invariant
//!
//! [`insert`](Frontier::insert) keeps the member set an **antichain**:
//! a mask already covered by a member (some member ⊆ mask) is rejected,
//! and an accepted mask first evicts every member it dominates (members
//! ⊇ mask). The stored set is therefore always exactly the ⊆-minimal
//! elements of everything ever inserted, in any insertion order.
//!
//! ### Concurrency
//!
//! Queries ([`covers`](Frontier::covers),
//! [`uncovered_in_layer`](Frontier::uncovered_in_layer)) take `&self`
//! and the type is `Sync`, so sweep workers share one read-only
//! snapshot per layer and merge discoveries behind the layer barrier
//! (see [`crate::sweep::minimal_sets_sweep`]). There is no interior
//! mutability.

/// "No subtree" sentinel (empty root; never a live interior child).
const NIL: u32 = u32::MAX;

/// `u64` lanes per occurrence-index super-word. Eight 64-slot lanes
/// (one cache line per row) screen the most members per iteration of
/// the straight-line query kernels without spilling accumulators.
const LANES: usize = 8;

/// Member slots per super-word.
const SLOTS: usize = 64 * LANES;

/// One path-compressed trie node; see the [module docs](self).
#[derive(Clone, Copy, Debug)]
struct Node {
    /// Path bits for levels `start..branch`, at absolute mask positions.
    prefix: u64,
    /// First level this node's segment covers.
    start: u32,
    /// Branching level, or `k` for a terminal (member) node.
    branch: u32,
    /// Children (both live for interior nodes); a terminal instead
    /// keeps its occurrence-index slot in `kids[0]`.
    kids: [u32; 2],
}

/// A ⊆-minimal antichain of `k`-bit masks stored as a path-compressed
/// bitwise trie, with sublinear coverage queries and a batched
/// uncovered-border walk. See the [module docs](self) for layout and
/// invariants.
///
/// # Examples
/// ```
/// use sv_core::Frontier;
///
/// let mut f = Frontier::new(4);
/// assert!(f.insert(0b0011));
/// assert!(f.insert(0b1100));
/// // 0b0111 ⊇ 0b0011 is already generated — rejected, not stored.
/// assert!(!f.insert(0b0111));
/// // Inserting a subset evicts the dominated member.
/// assert!(f.insert(0b0001));
/// assert_eq!(f.iter().collect::<Vec<_>>(), vec![0b0001, 0b1100]);
///
/// assert!(f.covers(0b1101), "contains the member 0b0001");
/// assert!(!f.covers(0b0010));
/// ```
#[derive(Clone, Debug)]
pub struct Frontier {
    k: u32,
    /// Node arena; freed slots recycled through `free`.
    nodes: Vec<Node>,
    root: u32,
    len: usize,
    free: Vec<u32>,
    /// Occurrence index over [`SLOTS`]-slot super-words: lane `l`, bit
    /// `s` of `live[w]` marks slot `SLOTS·w + 64l + s` as a member;
    /// `occ[w * k + b]` is the same super-word restricted to members
    /// with mask bit `b` set (word-major: one super-word's `k` rows are
    /// contiguous, vector-width lanes).
    live: Vec<[u64; LANES]>,
    occ: Vec<[u64; LANES]>,
    /// Slot → member mask (so eviction can clear the right rows).
    slot_mask: Vec<u64>,
    slot_free: Vec<u32>,
    /// Per-super-word compaction digests (see the [module docs](self)):
    /// a conservative AND (`⊆` the true AND of the block's live masks),
    /// a popcount lower bound and the live count. Evictions leave them
    /// stale-but-sound; they reset when the block empties.
    block_and: Vec<u64>,
    block_minpop: Vec<u32>,
    block_pop: Vec<u32>,
}

impl PartialEq for Frontier {
    /// Structural set equality: same width, same members (the arena
    /// layout, free lists and digests do not participate).
    fn eq(&self, other: &Self) -> bool {
        self.k == other.k && self.members_ascending() == other.members_ascending()
    }
}

impl Eq for Frontier {}

impl Frontier {
    /// An empty frontier over `k`-bit masks.
    ///
    /// # Panics
    /// Panics if `k > 64`.
    ///
    /// # Examples
    /// ```
    /// let f = sv_core::Frontier::new(20);
    /// assert!(f.is_empty());
    /// assert_eq!(f.k(), 20);
    /// assert!(!f.covers(0), "an empty frontier generates nothing");
    /// ```
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k <= 64, "Frontier masks are u64: k = {k} > 64");
        Self {
            k: k as u32,
            nodes: Vec::new(),
            root: NIL,
            len: 0,
            free: Vec::new(),
            live: Vec::new(),
            occ: Vec::new(),
            slot_mask: Vec::new(),
            slot_free: Vec::new(),
            block_and: Vec::new(),
            block_minpop: Vec::new(),
            block_pop: Vec::new(),
        }
    }

    /// Builds a frontier from arbitrary masks, keeping only the
    /// ⊆-minimal ones (insertion order does not matter).
    ///
    /// # Examples
    /// ```
    /// use sv_core::Frontier;
    ///
    /// let f = Frontier::from_masks(4, [0b1110, 0b0110, 0b0001]);
    /// assert_eq!(f.iter().collect::<Vec<_>>(), vec![0b0001, 0b0110]);
    /// ```
    #[must_use]
    pub fn from_masks(k: usize, masks: impl IntoIterator<Item = u64>) -> Self {
        let mut f = Self::new(k);
        for m in masks {
            f.insert(m);
        }
        f
    }

    /// Mask width in bits.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k as usize
    }

    /// Number of members (antichain size).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the frontier has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Live trie nodes (arena slots minus the free list). The
    /// compressed shape is canonical for a given member set, so this is
    /// a deterministic size counter, reported as
    /// [`crate::sweep::SweepStats::frontier_nodes`].
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    #[inline]
    fn assert_mask(&self, mask: u64) {
        assert!(
            self.k == 64 || mask >> self.k == 0,
            "mask {mask:#x} exceeds the frontier's {}-bit width",
            self.k
        );
    }

    /// Mask of the bit positions belonging to levels `level..k`.
    #[inline]
    fn below(&self, level: u32) -> u64 {
        if level >= self.k {
            0
        } else {
            u64::MAX >> (64 - (self.k - level))
        }
    }

    /// Mask of the bit positions belonging to levels `start..branch`.
    #[inline]
    fn range(&self, start: u32, branch: u32) -> u64 {
        self.below(start) ^ self.below(branch)
    }

    /// Whether some member is a **subset** of `mask` — i.e. whether
    /// `mask` lies in the up-set the antichain generates (for the
    /// sweeps: safe by Proposition 1, and not minimal unless it is a
    /// member itself).
    ///
    /// # Panics
    /// Panics if `mask` has bits at or above `k`.
    ///
    /// # Examples
    /// ```
    /// let f = sv_core::Frontier::from_masks(4, [0b0011]);
    /// assert!(f.covers(0b1011));
    /// assert!(!f.covers(0b1001));
    /// ```
    #[must_use]
    #[inline]
    pub fn covers(&self, mask: u64) -> bool {
        self.assert_mask(mask);
        self.covers_raw(mask)
    }

    /// Subset containment through the occurrence index: a member ⊆
    /// `mask` is a live slot avoiding every bit `mask` lacks, so each
    /// super-word is screened by OR-ing the rows of those bits into a
    /// forbidden set — straight-line lane ops over one contiguous
    /// `k`-row block, exiting at the first word with a live slot
    /// outside it.
    #[inline]
    fn covers_raw(&self, mask: u64) -> bool {
        let k = self.k as usize;
        if k == 0 {
            // The only possible member is the empty mask, which covers
            // the only possible query.
            return self.len > 0;
        }
        // The avoid-bit list is hoisted once per query; each super-word
        // is then screened by a pure OR of the forbidden rows — eight
        // independent lanes per row (one vector load + OR), no select
        // masks, no data-dependent branches inside the block.
        let (idx, cnt) = Self::bit_indices(!mask & self.below(0));
        let idx = &idx[..cnt];
        let pc = mask.count_ones();
        for (w, (word, block)) in self.live.iter().zip(self.occ.chunks_exact(k)).enumerate() {
            // Compaction screens: a bit every live member of the block
            // has (`block_and` is a subset of that AND) but `mask`
            // lacks, or a block whose smallest member is wider than
            // `mask`, rules out the whole super-word before any lane
            // is touched.
            if self.block_and[w] & !mask != 0 || self.block_minpop[w] > pc {
                continue;
            }
            let mut f = [0u64; LANES];
            for &b in idx {
                let row = &block[b as usize];
                for (acc, &r) in f.iter_mut().zip(row) {
                    *acc |= r;
                }
            }
            let mut surv = 0u64;
            for (&w, &fr) in word.iter().zip(&f) {
                surv |= w & !fr;
            }
            if surv != 0 {
                return true;
            }
        }
        false
    }

    /// Bit positions of `bits`, ascending, as a fixed array + count —
    /// byte-table expansion (one lookup + 8-byte store per byte of
    /// `bits`) instead of a serial trailing-zeros loop, since this runs
    /// on every query.
    #[inline]
    fn bit_indices(bits: u64) -> ([u8; 72], usize) {
        /// Per byte value: its set-bit positions packed little-endian
        /// (one byte each) and their count.
        const TABLE: [(u64, u8); 256] = {
            let mut t = [(0u64, 0u8); 256];
            let mut v = 0usize;
            while v < 256 {
                let (mut packed, mut cnt, mut b) = (0u64, 0u8, 0u32);
                while b < 8 {
                    if v >> b & 1 == 1 {
                        packed |= (b as u64) << (8 * cnt as u32);
                        cnt += 1;
                    }
                    b += 1;
                }
                t[v] = (packed, cnt);
                v += 1;
            }
            t
        };
        let mut idx = [0u8; 72];
        let mut cnt = 0usize;
        let mut rest = bits;
        let mut base = 0u64;
        while rest != 0 {
            let (packed, n) = TABLE[rest as u8 as usize];
            // Offset all eight packed positions at once, then spill
            // them with a single 8-byte store (extras are overwritten
            // by the next chunk or ignored via `cnt`).
            let shifted = packed + base * 0x0101_0101_0101_0101;
            idx[cnt..cnt + 8].copy_from_slice(&shifted.to_le_bytes());
            cnt += n as usize;
            rest >>= 8;
            base += 8;
        }
        (idx, cnt)
    }

    /// Claims an occurrence-index slot for a new member, sets its row
    /// bits, and folds the member into its block's compaction digest.
    fn slot_alloc(&mut self, mask: u64) -> u32 {
        let k = self.k as usize;
        let slot = self.slot_free.pop().unwrap_or_else(|| {
            let s = self.slot_mask.len() as u32;
            self.slot_mask.push(0);
            if s as usize / SLOTS >= self.live.len() {
                self.live.push([0; LANES]);
                self.occ.extend(std::iter::repeat_n([0; LANES], k));
                self.block_and.push(u64::MAX);
                self.block_minpop.push(u32::MAX);
                self.block_pop.push(0);
            }
            s
        });
        let (w, lane, b) = (slot as usize / SLOTS, slot as usize / 64 % LANES, slot % 64);
        self.slot_mask[slot as usize] = mask;
        self.live[w][lane] |= 1u64 << b;
        let pc = mask.count_ones();
        self.block_and[w] &= mask;
        self.block_minpop[w] = self.block_minpop[w].min(pc);
        self.block_pop[w] += 1;
        let mut bits = mask;
        while bits != 0 {
            let p = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.occ[w * k + p][lane] |= 1u64 << b;
        }
        slot
    }

    /// Releases an evicted member's slot, clearing its row bits. The
    /// block digest stays stale-but-sound (shrinking the live set only
    /// loosens what the AND and popcount bound must summarize); a block
    /// left empty resets its digest, and empty trailing blocks are
    /// recycled outright so queries stop scanning them.
    fn slot_release(&mut self, slot: u32) {
        let k = self.k as usize;
        let (w, lane, b) = (slot as usize / SLOTS, slot as usize / 64 % LANES, slot % 64);
        self.live[w][lane] &= !(1u64 << b);
        let mut bits = self.slot_mask[slot as usize];
        while bits != 0 {
            let p = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.occ[w * k + p][lane] &= !(1u64 << b);
        }
        self.slot_free.push(slot);
        self.block_pop[w] -= 1;
        if self.block_pop[w] == 0 {
            self.block_and[w] = u64::MAX;
            self.block_minpop[w] = u32::MAX;
            if w + 1 == self.live.len() {
                self.recycle_empty_tail();
            }
        }
    }

    /// Drops every trailing super-word block whose members have all
    /// been evicted, returning its memory and removing it from the
    /// query scan (and from the free list, so reallocation starts a
    /// fresh block).
    fn recycle_empty_tail(&mut self) {
        let k = self.k as usize;
        while self.block_pop.last() == Some(&0) {
            let w = self.block_pop.len() - 1;
            self.block_pop.pop();
            self.block_and.pop();
            self.block_minpop.pop();
            self.live.pop();
            self.occ.truncate(w * k);
            let base = (w * SLOTS) as u32;
            self.slot_free.retain(|&s| s < base);
            self.slot_mask.truncate(self.slot_mask.len().min(w * SLOTS));
        }
    }

    /// Inserts `mask`, maintaining minimality: returns `false` (and
    /// stores nothing) when a member already covers `mask`; otherwise
    /// evicts every member dominated by `mask`, stores it, and returns
    /// `true`.
    ///
    /// # Panics
    /// Panics if `mask` has bits at or above `k`.
    ///
    /// # Examples
    /// ```
    /// use sv_core::Frontier;
    ///
    /// let mut f = Frontier::new(4);
    /// assert!(f.insert(0b0110) && f.insert(0b1001));
    /// assert!(!f.insert(0b1110), "covered by 0b0110");
    /// assert!(f.insert(0b0100), "evicts 0b0110");
    /// assert_eq!(f.len(), 2);
    /// ```
    pub fn insert(&mut self, mask: u64) -> bool {
        self.assert_mask(mask);
        if self.covers_raw(mask) {
            return false;
        }
        self.root = self.remove_dominated(self.root, mask);
        self.insert_path(mask);
        true
    }

    fn alloc(&mut self, node: Node) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        }
    }

    /// Removes every member ⊇ `mask` below `n`, returning the
    /// replacement pointer: emptied subtrees collapse to `NIL`, and an
    /// interior node left with a single child merges into it (the child
    /// absorbs the segment and branch bit), keeping the shape canonical.
    fn remove_dominated(&mut self, n: u32, mask: u64) -> u32 {
        if n == NIL {
            return NIL;
        }
        let node = self.nodes[n as usize];
        if mask & self.range(node.start, node.branch) & !node.prefix != 0 {
            return n; // no superset of `mask` below here
        }
        if node.branch == self.k {
            self.len -= 1;
            self.slot_release(node.kids[0]);
            self.free.push(n);
            return NIL;
        }
        let (nc0, nc1) = if (mask >> (self.k - 1 - node.branch)) & 1 == 1 {
            (node.kids[0], self.remove_dominated(node.kids[1], mask))
        } else {
            (
                self.remove_dominated(node.kids[0], mask),
                self.remove_dominated(node.kids[1], mask),
            )
        };
        match (nc0 == NIL, nc1 == NIL) {
            (true, true) => {
                self.free.push(n);
                NIL
            }
            (false, true) => self.merge_into_child(n, nc0, 0),
            (true, false) => self.merge_into_child(n, nc1, 1),
            (false, false) => {
                self.nodes[n as usize].kids = [nc0, nc1];
                n
            }
        }
    }

    /// Collapses interior node `parent` (whose only remaining subtree is
    /// `child` on `side`) into `child`, which absorbs the parent's
    /// segment bits plus the branch bit of its edge.
    fn merge_into_child(&mut self, parent: u32, child: u32, side: usize) -> u32 {
        let p = self.nodes[parent as usize];
        let edge_bit = if side == 1 {
            1u64 << (self.k - 1 - p.branch)
        } else {
            0
        };
        let c = &mut self.nodes[child as usize];
        c.prefix |= p.prefix | edge_bit;
        c.start = p.start;
        self.free.push(parent);
        child
    }

    /// Creates the path for `mask` (which must be uncovered and have no
    /// dominated members left): descends to the first diverging level
    /// and splits there, attaching a new terminal.
    fn insert_path(&mut self, mask: u64) {
        self.len += 1;
        let slot = self.slot_alloc(mask);
        if self.root == NIL {
            self.root = self.alloc(Node {
                prefix: mask,
                start: 0,
                branch: self.k,
                kids: [slot, NIL],
            });
            return;
        }
        let mut parent: Option<(u32, usize)> = None;
        let mut n = self.root;
        loop {
            let node = self.nodes[n as usize];
            let diff = (mask ^ node.prefix) & self.range(node.start, node.branch);
            if diff != 0 {
                // Split at the highest diverging level of the segment.
                let pos = 63 - diff.leading_zeros();
                let level = self.k - 1 - pos;
                let mask_bit = ((mask >> pos) & 1) as usize;
                let split_prefix = node.prefix & (self.below(node.start) & !self.below(level));
                let trimmed = self.below(level + 1);
                {
                    let old = &mut self.nodes[n as usize];
                    old.prefix &= trimmed;
                    old.start = level + 1;
                }
                let term = self.alloc(Node {
                    prefix: mask & self.below(level + 1),
                    start: level + 1,
                    branch: self.k,
                    kids: [slot, NIL],
                });
                let mut kids = [NIL, NIL];
                kids[mask_bit] = term;
                kids[1 - mask_bit] = n;
                let split = self.alloc(Node {
                    prefix: split_prefix,
                    start: node.start,
                    branch: level,
                    kids,
                });
                match parent {
                    None => self.root = split,
                    Some((p, side)) => self.nodes[p as usize].kids[side] = split,
                }
                return;
            }
            debug_assert!(
                node.branch < self.k,
                "duplicate insert past the covers check"
            );
            let bit = ((mask >> (self.k - 1 - node.branch)) & 1) as usize;
            parent = Some((n, bit));
            n = node.kids[bit];
        }
    }

    /// Members in ascending numeric order (left-first trie walk).
    fn members_ascending(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        self.collect(self.root, 0, &mut out);
        out
    }

    fn collect(&self, n: u32, acc: u64, out: &mut Vec<u64>) {
        if n == NIL {
            return;
        }
        let node = self.nodes[n as usize];
        let acc = acc | node.prefix;
        if node.branch == self.k {
            out.push(acc);
            return;
        }
        self.collect(node.kids[0], acc, out);
        self.collect(node.kids[1], acc | 1u64 << (self.k - 1 - node.branch), out);
    }

    /// Iterates the members in **(popcount, mask)** order — ascending
    /// popcount, ascending numeric mask within a popcount — the exact
    /// order of the serial reference
    /// [`crate::safety::minimal_safe_hidden_sets`]. Materializes the
    /// member list (`O(n log n)`).
    ///
    /// # Examples
    /// ```
    /// let f = sv_core::Frontier::from_masks(4, [0b1010, 0b0101, 0b1000]);
    /// assert_eq!(f.iter().collect::<Vec<_>>(), vec![0b1000, 0b0101]);
    /// ```
    #[must_use = "iterators are lazy"]
    pub fn iter(&self) -> std::vec::IntoIter<u64> {
        let mut members = self.members_ascending();
        members.sort_by_key(|m| m.count_ones());
        members.into_iter()
    }

    /// The `(cost, mask)`-lexicographically smallest member under an
    /// additive per-bit cost vector — by Proposition 1 this is the
    /// global minimum-cost *safe* hidden set whenever the frontier is a
    /// swept safety antichain (costs are non-negative and monotone, so
    /// the optimum over the whole up-set is attained at a member, and
    /// any cost tie resolves to the member because supersets are
    /// numerically larger). Returns `(mask, cost)`.
    ///
    /// # Panics
    /// Panics unless `costs.len() == k`.
    ///
    /// # Examples
    /// ```
    /// let f = sv_core::Frontier::from_masks(3, [0b011, 0b100]);
    /// assert_eq!(f.min_cost_member(&[1, 1, 3]), Some((0b011, 2)));
    /// assert_eq!(f.min_cost_member(&[9, 9, 1]), Some((0b100, 1)));
    /// ```
    #[must_use]
    pub fn min_cost_member(&self, costs: &[u64]) -> Option<(u64, u64)> {
        assert_eq!(costs.len(), self.k(), "one cost per attribute");
        let mut best: Option<(u64, u64)> = None; // (cost, mask)
        for m in self.members_ascending() {
            let mut cost = 0u64;
            let mut bits = m;
            while bits != 0 {
                cost = cost.saturating_add(costs[bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
            if best.is_none_or(|(bc, bm)| cost < bc || (cost == bc && m < bm)) {
                best = Some((cost, m));
            }
        }
        best.map(|(cost, mask)| (mask, cost))
    }

    /// The **uncovered border** of popcount layer `layer`, batched:
    /// every mask of the layer *not* covered by the antichain, as
    /// disjoint ascending [`BorderRun`]s, found by one trie walk that
    /// skips covered subtrees whole instead of testing `C(k, layer)`
    /// masks individually (see the [module docs](self)). The walk costs
    /// `O(border + jumps)`, so sweeping dense layers scales with the
    /// answer, not the lattice.
    ///
    /// Runs partition the uncovered masks; within a run the masks are
    /// consecutive in the layer's ascending numeric (Gosper) order, so
    /// sweep workers step through a run with a same-popcount successor
    /// and never issue a per-mask coverage query.
    ///
    /// # Panics
    /// Panics if `layer > k`.
    ///
    /// # Examples
    /// ```
    /// use sv_core::Frontier;
    ///
    /// // Empty frontier: the whole layer is one uncovered run.
    /// let empty = Frontier::new(6);
    /// let scan = empty.uncovered_in_layer(2);
    /// assert_eq!(scan.masks, 15, "C(6, 2)");
    /// assert_eq!(scan.runs.len(), 1);
    /// assert_eq!(scan.runs[0].first, 0b000011);
    ///
    /// // A member covers its whole up-set in single jumps.
    /// let f = Frontier::from_masks(6, [0b000001]);
    /// let scan = f.uncovered_in_layer(2);
    /// assert_eq!(scan.masks, 10, "C(6,2) - C(5,1) supersets of bit 0");
    /// assert!(scan.runs.iter().all(|r| r.first & 1 == 0));
    /// ```
    #[must_use]
    pub fn uncovered_in_layer(&self, layer: usize) -> BorderScan {
        assert!(
            layer <= self.k(),
            "layer {layer} exceeds the frontier's {}-bit width",
            self.k
        );
        let mut out = BorderScan::default();
        let active: Vec<u32> = if self.root == NIL {
            Vec::new()
        } else {
            vec![self.root]
        };
        self.border_rec(0, 0, layer as u32, &active, &mut out);
        out
    }

    /// Recursive border walk over the subtree of layer masks extending
    /// `prefix` (levels `0..level` decided) with `remaining` of the
    /// `k - level` undecided low positions set. `active` holds the trie
    /// nodes whose members are still compatible with `prefix` (every
    /// member bit at a decided position is in `prefix`).
    fn border_rec(
        &self,
        level: u32,
        prefix: u64,
        remaining: u32,
        active: &[u32],
        out: &mut BorderScan,
    ) {
        let width = self.k - level;
        let low = self.below(level);
        // Covered subtree ⇒ one border jump: either a compatible member
        // has no undecided bits left (it is ⊆ `prefix`, hence ⊆ every
        // completion), or every undecided position must be set — the
        // single completion `prefix | low` contains any compatible
        // member outright.
        let covered = !active.is_empty()
            && (remaining == width
                || active.iter().any(|&n| {
                    let node = self.nodes[n as usize];
                    node.branch == self.k && node.prefix & low == 0
                }));
        if covered {
            out.jumps += 1;
            return;
        }
        if active.is_empty() {
            let len = binom(width, remaining);
            out.runs.push(BorderRun {
                first: prefix | low_ones(remaining),
                len,
            });
            out.masks += len;
            return;
        }
        if width == 0 {
            // Unreachable (the emit/jump cases above return for the
            // fully decided mask), kept as a guard for the bit index.
            return;
        }
        let bitpos = self.k - 1 - level;
        // Clear branch first: ascending numeric order within the layer.
        if remaining < width {
            let mut next: Vec<u32> = Vec::with_capacity(active.len());
            for &n in active {
                let node = self.nodes[n as usize];
                if level < node.branch {
                    if (node.prefix >> bitpos) & 1 == 1 {
                        continue; // member needs the bit the mask lacks
                    }
                    if (node.prefix & self.below(level + 1)).count_ones() > remaining {
                        continue; // member needs more bits than remain
                    }
                    next.push(n);
                } else {
                    // At the branch: only the clear-edge child survives.
                    next.push(node.kids[0]);
                }
            }
            self.border_rec(level + 1, prefix, remaining, &next, out);
        }
        if remaining > 0 {
            let mut next: Vec<u32> = Vec::with_capacity(active.len() + 1);
            for &n in active {
                let node = self.nodes[n as usize];
                if level < node.branch {
                    next.push(n); // a set bit satisfies any requirement
                } else {
                    next.push(node.kids[0]);
                    next.push(node.kids[1]);
                }
            }
            let set = prefix | (1u64 << bitpos);
            self.border_rec(level + 1, set, remaining - 1, &next, out);
        }
    }
}

/// One contiguous uncovered run inside a popcount layer: `len` masks
/// starting at `first`, consecutive in the layer's ascending numeric
/// (Gosper) order. Produced by
/// [`Frontier::uncovered_in_layer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BorderRun {
    /// Smallest mask of the run.
    pub first: u64,
    /// Number of consecutive layer masks in the run.
    pub len: u64,
}

/// The uncovered border of one popcount layer, batched for the sweep
/// workers, with the walk's exact instrumentation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BorderScan {
    /// Disjoint uncovered runs in ascending order; their union is
    /// exactly the layer's uncovered masks.
    pub runs: Vec<BorderRun>,
    /// Covered subtrees skipped whole, each in one path-compressed
    /// descent instead of per-mask coverage tests.
    pub jumps: u64,
    /// Total uncovered masks across `runs`.
    pub masks: u64,
}

/// The lowest `r` bits set (`r ≤ 64`).
#[inline]
fn low_ones(r: u32) -> u64 {
    if r == 0 {
        0
    } else {
        u64::MAX >> (64 - r)
    }
}

/// `C(n, r)` for `n ≤ 64` from a const Pascal triangle (`C(64, 32)`
/// fits `u64` with headroom).
#[inline]
pub(crate) fn binom(n: u32, r: u32) -> u64 {
    static TABLE: [[u64; 65]; 65] = {
        let mut t = [[0u64; 65]; 65];
        let mut n = 0;
        while n <= 64 {
            t[n][0] = 1;
            let mut r = 1;
            while r <= n {
                t[n][r] = t[n - 1][r - 1] + if r < n { t[n - 1][r] } else { 0 };
                r += 1;
            }
            n += 1;
        }
        t
    };
    if r > n {
        0
    } else {
        TABLE[n as usize][r as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flat reference: minimal elements of a mask set.
    fn minimize(masks: &[u64]) -> Vec<u64> {
        let mut out: Vec<u64> = masks
            .iter()
            .copied()
            .filter(|&m| !masks.iter().any(|&a| a != m && a & m == a))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn insert_maintains_minimality_in_any_order() {
        let masks = [0b1111u64, 0b0011, 0b1100, 0b0111, 0b0010, 0b1000];
        for rotation in 0..masks.len() {
            let mut rotated = masks.to_vec();
            rotated.rotate_left(rotation);
            let f = Frontier::from_masks(4, rotated);
            assert_eq!(f.members_ascending(), minimize(&masks), "rot={rotation}");
            assert_eq!(f.len(), 2);
        }
    }

    #[test]
    fn queries_match_flat_scans_exhaustively() {
        let members = [0b00110u64, 0b01001, 0b10001];
        let f = Frontier::from_masks(5, members);
        for mask in 0u64..(1 << 5) {
            let covers = members.iter().any(|&a| a | mask == mask);
            assert_eq!(f.covers(mask), covers, "covers {mask:#07b}");
        }
    }

    #[test]
    fn empty_and_zero_width_edges() {
        let f = Frontier::new(0);
        assert!(!f.covers(0));
        let f = Frontier::from_masks(0, [0]);
        assert!(f.covers(0));
        assert_eq!(f.len(), 1);
        assert_eq!(f.node_count(), 1, "one terminal holds the empty member");

        // The empty mask as a member covers everything.
        let mut f = Frontier::from_masks(6, [0b111, 0b1]);
        assert!(f.insert(0));
        assert_eq!(f.members_ascending(), vec![0]);
        assert_eq!(f.node_count(), 1);
        assert!((0..1u64 << 6).all(|m| f.covers_raw(m)));
    }

    #[test]
    fn compressed_shape_is_canonical() {
        // n members ⇒ n terminals + (n − 1) binary interior nodes,
        // independent of insertion order.
        let members = [0b0010u64, 0b0101, 0b1001, 0b1100];
        let forward = Frontier::from_masks(4, members);
        let backward = Frontier::from_masks(4, members.iter().rev().copied());
        assert_eq!(forward.node_count(), 2 * members.len() - 1);
        assert_eq!(backward.node_count(), forward.node_count());
        assert_eq!(forward, backward);
    }

    #[test]
    fn node_slots_are_recycled() {
        let mut f = Frontier::from_masks(8, [0b1111_0000, 0b0000_1111]);
        let before = f.nodes.len();
        // Evict both members; their slots return through the free list.
        assert!(f.insert(0b0001_0000));
        assert!(f.insert(0b0000_0001));
        assert!(f.insert(0b0000_0010));
        assert_eq!(f.len(), 3);
        assert_eq!(f.node_count(), f.nodes.len() - f.free.len());
        assert_eq!(f.node_count(), 2 * 3 - 1);
        assert!(f.nodes.len() <= before + 4, "free slots were reused");
        // The recycled structure still answers correctly.
        assert!(f.covers(0b0001_0001) && !f.covers(0b1000_0000));
    }

    #[test]
    fn clone_and_equality_are_structural() {
        let f = Frontier::from_masks(4, [0b0011, 0b0100]);
        let g = f.clone();
        assert_eq!(f, g);
        let h = Frontier::from_masks(4, [0b0100, 0b0011]);
        assert_eq!(f, h, "equality ignores insertion order");
        assert_ne!(f, Frontier::new(4));
    }

    #[test]
    #[should_panic(expected = "exceeds the frontier's 4-bit width")]
    fn oversized_masks_are_rejected() {
        let mut f = Frontier::new(4);
        f.insert(0b1_0000);
    }

    /// Flat reference for the border walk: the layer's uncovered masks
    /// in ascending order.
    fn flat_uncovered(f: &Frontier, k: u32, layer: u32) -> Vec<u64> {
        (0..1u64 << k)
            .filter(|m| m.count_ones() == layer && !f.covers_raw(*m))
            .collect()
    }

    /// Expands a [`BorderScan`] into its mask list via Gosper stepping.
    fn expand(scan: &BorderScan) -> Vec<u64> {
        let mut out = Vec::new();
        for run in &scan.runs {
            let mut m = run.first;
            for i in 0..run.len {
                out.push(m);
                if i + 1 < run.len {
                    let c = m & m.wrapping_neg();
                    let r = m + c;
                    m = (((r ^ m) >> 2) / c) | r;
                }
            }
        }
        out
    }

    #[test]
    fn border_walk_matches_flat_enumeration_exhaustively() {
        // A mix of member shapes over k = 9: low singleton, mid pair,
        // wide straddler — every layer's border checked bit-for-bit.
        let cases: [&[u64]; 4] = [
            &[],
            &[0b0_0000_0001],
            &[0b0_0110_0000, 0b1_0000_0001, 0b0_0000_1110],
            &[0b1_1111_1111],
        ];
        for members in cases {
            let f = Frontier::from_masks(9, members.iter().copied());
            for layer in 0..=9u32 {
                let scan = f.uncovered_in_layer(layer as usize);
                let got = expand(&scan);
                let want = flat_uncovered(&f, 9, layer);
                assert_eq!(got, want, "members={members:?} layer={layer}");
                assert_eq!(scan.masks, want.len() as u64);
            }
        }
    }

    #[test]
    fn border_runs_are_disjoint_ascending_and_jump_counted() {
        let f = Frontier::from_masks(8, [0b0000_0011, 0b1100_0000]);
        for layer in 0..=8usize {
            let scan = f.uncovered_in_layer(layer);
            assert!(
                scan.runs.windows(2).all(|w| w[0].first < w[1].first),
                "ascending runs"
            );
            let total: u64 = scan.runs.iter().map(|r| r.len).sum();
            assert_eq!(total, scan.masks);
            if layer >= 2 {
                assert!(scan.jumps > 0, "covered subtrees exist at layer {layer}");
            }
        }
        // Fully covered layer: no runs, at least one jump.
        let g = Frontier::from_masks(4, [0b0001, 0b0010, 0b0100, 0b1000]);
        let scan = g.uncovered_in_layer(2);
        assert!(scan.runs.is_empty() && scan.masks == 0 && scan.jumps > 0);
    }

    #[test]
    fn empty_frontier_border_is_one_whole_layer_run() {
        let f = Frontier::new(24);
        let scan = f.uncovered_in_layer(5);
        assert_eq!(scan.runs.len(), 1);
        assert_eq!(scan.runs[0].first, 0b11111);
        assert_eq!(scan.runs[0].len, 42_504, "C(24, 5)");
        assert_eq!(scan.jumps, 0);
    }

    #[test]
    fn evicting_a_whole_block_recycles_it() {
        // 780 popcount-2 members (an antichain) fill one 512-slot block
        // and part of a second; inserting the empty mask evicts them
        // all, and the emptied trailing blocks are recycled.
        let k = 40u32;
        let mut f = Frontier::new(k as usize);
        for a in 0..k {
            for b in 0..a {
                f.insert((1u64 << a) | (1u64 << b));
            }
        }
        assert_eq!(f.len(), 780);
        assert_eq!(f.live.len(), 2, "two occurrence blocks in use");
        assert!(f.insert(0));
        assert_eq!(f.len(), 1);
        assert_eq!(f.live.len(), 1, "trailing empty block recycled");
        assert!(f.slot_mask.len() <= 512, "second block's slots returned");
        assert!(f.slot_free.iter().all(|&s| (s as usize) < 512));
        assert!(f.covers(0b1010) && f.covers(0));
        // The survivor's block digest reflects only the live member.
        assert!(!f.insert(0));
    }

    #[test]
    fn block_digest_screens_stay_sound_under_churn() {
        // Alternate inserts and dominance evictions, checking every
        // query against a flat scan after each step — exercises stale
        // AND digests and popcount bounds.
        let mut f = Frontier::new(10);
        let mut reference: Vec<u64> = Vec::new();
        let script: [u64; 12] = [
            0b11_1100_0000,
            0b00_0011_1100,
            0b00_0000_0011,
            0b01_0100_0000, // evicts the first
            0b00_0001_0100, // evicts the second
            0b00_0000_0001, // evicts the third
            0b10_0000_0000,
            0b00_1000_0000,
            0b00_0010_0000,
            0b00_0000_1000,
            0b00_0000_0100, // evicts 0b00_0001_0100
            0b01_0000_0000, // evicts 0b01_0100_0000
        ];
        for m in script {
            if !reference.iter().any(|&a| a | m == m) {
                reference.retain(|&a| a & m != m);
                reference.push(m);
                assert!(f.insert(m));
            } else {
                assert!(!f.insert(m));
            }
            for q in 0..1u64 << 10 {
                assert_eq!(f.covers_raw(q), reference.iter().any(|&a| a | q == q));
            }
        }
    }

    #[test]
    fn border_walk_at_full_width_top_bits() {
        // k = 64: top-bit members, full-word layers — the mask-width
        // edge where `below`/`low_ones` shifts saturate.
        let f = Frontier::from_masks(64, [1u64 << 63, 0b11]);
        let scan = f.uncovered_in_layer(1);
        assert_eq!(scan.masks, 63, "singletons minus the member 1<<63");
        assert_eq!(
            scan.runs.last(),
            Some(&BorderRun {
                first: 1u64 << 62,
                len: 1
            }),
            "1<<62 is the top uncovered singleton; 1<<63 is covered"
        );
        // Layer 64 (the all-ones mask) is covered by any member.
        let scan = f.uncovered_in_layer(64);
        assert_eq!(scan.masks, 0);
        assert_eq!(scan.jumps, 1);
        // An empty width-64 frontier emits the whole layer as one run.
        let e = Frontier::new(64);
        let scan = e.uncovered_in_layer(64);
        assert_eq!(
            scan.runs,
            vec![BorderRun {
                first: u64::MAX,
                len: 1
            }]
        );
    }
}
