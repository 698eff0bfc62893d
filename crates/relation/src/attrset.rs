//! Compact attribute bitsets.
//!
//! Visible sets `V`, hidden sets `V̄`, module input/output sets `I_i`,
//! `O_i` — the paper manipulates subsets of attributes constantly, so we
//! give them a dedicated representation with the usual set algebra.
//!
//! A set whose members are all `< 64` is stored **inline** as one
//! bitmask word: no heap allocation, and hashing, equality and set
//! algebra are single word operations. Module sub-schemas, and so every
//! visible set a safety probe names, live in that range. Only a set
//! naming an attribute `≥ 64` spills its words to the heap. Each set
//! has exactly one representation (inline iff every member is `< 64`; a
//! spilled set ends in a nonzero word), so equal sets are equal values
//! and hash alike however they were built.

use crate::schema::AttrId;
use std::fmt;
use std::hash::{Hash, Hasher};

const WORD_BITS: usize = 64;

/// A set of [`AttrId`]s: one inline bitmask word while every member is
/// `< 64`, a heap bitset beyond that.
///
/// Operations are `O(words)`; the cache keys of the kernel and the
/// memoized safety oracle are sets of this type, and an inline key
/// hashes and compares as one `u64`.
#[derive(Clone, PartialEq, Eq)]
pub struct AttrSet(Repr);

/// The canonical representation (see the module docs).
#[derive(Clone, PartialEq, Eq)]
enum Repr {
    /// Every member is `< 64`: the set is this bitmask word.
    Inline(u64),
    /// Some member is `≥ 64`: at least two words, the last nonzero. A
    /// boxed slice, not a `Vec`, keeps the set at 16 bytes, so a cache
    /// entry keyed by it is no larger than one keyed by a `u64`.
    Spilled(Box<[u64]>),
}

/// The word with bits `0..b` set (`b ≤ 64`).
fn low_bits(b: usize) -> u64 {
    if b >= WORD_BITS {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl Default for AttrSet {
    fn default() -> Self {
        Self::new()
    }
}

impl AttrSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::from_word(0)
    }

    /// Creates a set containing the attributes `0..n` (a full universe of
    /// size `n`).
    #[must_use]
    pub fn full(n: usize) -> Self {
        if n <= WORD_BITS {
            return Self::from_word(low_bits(n));
        }
        let words = n.div_ceil(WORD_BITS);
        Self::from_words((0..words).map(|i| low_bits(n - i * WORD_BITS)).collect())
    }

    /// Builds a set from an iterator of attribute ids.
    ///
    /// Words beyond the first grow amortized, so building a set costs
    /// `O(ids + words)` in any id order; a set whose ids are all `< 64`
    /// never touches the heap.
    #[must_use]
    #[allow(clippy::should_implement_trait)] // also provided via FromIterator below
    pub fn from_iter<I: IntoIterator<Item = AttrId>>(iter: I) -> Self {
        let (mut low, mut words) = (0, Vec::new());
        for a in iter {
            match Self::word_of(a) {
                (0, m) => low |= m,
                (w, m) => {
                    if words.len() <= w {
                        words.resize(w + 1, 0);
                    }
                    words[w] |= m;
                }
            }
        }
        if words.is_empty() {
            return Self::from_word(low);
        }
        words[0] = low;
        Self::from_words(words)
    }

    /// Builds a set from raw `u32` indices (test/construction convenience).
    #[must_use]
    pub fn from_indices(ids: &[u32]) -> Self {
        Self::from_iter(ids.iter().map(|&i| AttrId(i)))
    }

    /// The set's words, lowest ids first (an inline set is one word).
    pub(crate) fn words(&self) -> &[u64] {
        match &self.0 {
            Repr::Inline(w) => std::slice::from_ref(w),
            Repr::Spilled(words) => words,
        }
    }

    /// The canonical set with these words: trailing zero words dropped,
    /// inline once at most one word is left.
    fn from_words(mut words: Vec<u64>) -> Self {
        while words.last() == Some(&0) {
            words.pop();
        }
        match words[..] {
            [] => Self::new(),
            [w] => Self::from_word(w),
            _ => Self(Repr::Spilled(words.into_boxed_slice())),
        }
    }

    /// The canonical set whose word `i` is `f(self_i, other_i)` for
    /// `i < len(self_words, other_words)`, reading missing words as
    /// zero. A one-word result never touches the heap.
    fn combine(
        &self,
        other: &Self,
        len: fn(usize, usize) -> usize,
        f: impl Fn(u64, u64) -> u64,
    ) -> Self {
        if let (Repr::Inline(a), Repr::Inline(b)) = (&self.0, &other.0) {
            return Self::from_word(f(*a, *b));
        }
        let (a, b) = (self.words(), other.words());
        let at = |s: &[u64], i: usize| s.get(i).copied().unwrap_or(0);
        match len(a.len(), b.len()) {
            1 => Self::from_word(f(a[0], b[0])),
            n => Self::from_words((0..n).map(|i| f(at(a, i), at(b, i))).collect()),
        }
    }

    fn word_of(a: AttrId) -> (usize, u64) {
        let i = a.index();
        (i / WORD_BITS, 1u64 << (i % WORD_BITS))
    }

    /// Inserts `a`; returns `true` if it was newly inserted. Growing a
    /// spilled set copies its words, so build large sets with
    /// [`from_iter`](Self::from_iter).
    pub fn insert(&mut self, a: AttrId) -> bool {
        let fresh = !self.contains(a);
        let (w, m) = Self::word_of(a);
        match &mut self.0 {
            Repr::Inline(word) if w == 0 => *word |= m,
            Repr::Spilled(words) if w < words.len() => words[w] |= m,
            _ => {
                let mut words = self.words().to_vec();
                words.resize(w + 1, 0);
                words[w] |= m;
                self.0 = Repr::Spilled(words.into_boxed_slice());
            }
        }
        fresh
    }

    /// Removes `a`; returns `true` if it was present.
    pub fn remove(&mut self, a: AttrId) -> bool {
        if !self.contains(a) {
            return false;
        }
        let (w, m) = Self::word_of(a);
        match &mut self.0 {
            Repr::Inline(word) => *word &= !m,
            Repr::Spilled(words) => {
                words[w] &= !m;
                let words = std::mem::take(words).into_vec();
                *self = Self::from_words(words);
            }
        }
        true
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, a: AttrId) -> bool {
        let (w, m) = Self::word_of(a);
        self.words().get(w).is_some_and(|word| word & m != 0)
    }

    /// Number of attributes in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0 == Repr::Inline(0)
    }

    /// Set union `self ∪ other`.
    #[must_use]
    pub fn union(&self, other: &Self) -> Self {
        self.combine(other, usize::max, |a, b| a | b)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &Self) {
        *self = self.union(other);
    }

    /// Set intersection `self ∩ other`.
    #[must_use]
    pub fn intersection(&self, other: &Self) -> Self {
        self.combine(other, usize::min, |a, b| a & b)
    }

    /// Set difference `self \ other`.
    #[must_use]
    pub fn difference(&self, other: &Self) -> Self {
        self.combine(other, |mine, _| mine, |a, b| a & !b)
    }

    /// Whether `self ⊆ other`.
    #[must_use]
    pub fn is_subset(&self, other: &Self) -> bool {
        let theirs = other.words();
        self.words()
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !theirs.get(i).copied().unwrap_or(0) == 0)
    }

    /// Whether the two sets share no attribute.
    #[must_use]
    pub fn is_disjoint(&self, other: &Self) -> bool {
        self.words()
            .iter()
            .zip(other.words())
            .all(|(&a, &b)| a & b == 0)
    }

    /// Iterates over members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = AttrId> + '_ {
        let words = self.words();
        let (mut i, mut rest) = (0, words[0]);
        std::iter::from_fn(move || loop {
            if rest != 0 {
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                return Some(AttrId((i * WORD_BITS) as u32 + bit));
            }
            i += 1;
            rest = *words.get(i)?;
        })
    }

    /// Complement relative to a universe of `n` attributes: `{0..n} \ self`.
    ///
    /// This is the paper's `V̄ = A \ V` for `|A| = n`.
    #[must_use]
    pub fn complement(&self, n: usize) -> Self {
        Self::full(n).difference(self)
    }

    /// The set as a single bitmask word, if every member id is `< 64`
    /// (the inline representation). The wire encoding, the frontier and
    /// the sweeps, which walk module lattices as raw masks, convert
    /// through this and [`from_word`](Self::from_word).
    #[must_use]
    pub fn as_word(&self) -> Option<u64> {
        match self.0 {
            Repr::Inline(w) => Some(w),
            Repr::Spilled(_) => None,
        }
    }

    /// Builds the set from a bitmask word (inverse of
    /// [`as_word`](Self::as_word)); never allocates.
    #[must_use]
    pub fn from_word(word: u64) -> Self {
        Self(Repr::Inline(word))
    }
}

/// One `write_u64` per word and no length prefix, so an inline set
/// hashes exactly like its bitmask word.
impl Hash for AttrSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match &self.0 {
            Repr::Inline(w) => state.write_u64(*w),
            Repr::Spilled(words) => words.iter().for_each(|&w| state.write_u64(w)),
        }
    }
}

impl fmt::Debug for AttrSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, a) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", a.0)?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<AttrId> for AttrSet {
    fn from_iter<I: IntoIterator<Item = AttrId>>(iter: I) -> Self {
        AttrSet::from_iter(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(ids: &[u32]) -> AttrSet {
        AttrSet::from_indices(ids)
    }

    #[test]
    fn insert_remove_contains() {
        let mut set = AttrSet::new();
        assert!(set.insert(AttrId(3)));
        assert!(!set.insert(AttrId(3)));
        assert!(set.contains(AttrId(3)));
        assert!(!set.contains(AttrId(2)));
        assert!(set.remove(AttrId(3)));
        assert!(!set.remove(AttrId(3)));
        assert!(set.is_empty());
    }

    #[test]
    fn set_algebra() {
        let a = s(&[0, 1, 2, 70]);
        let b = s(&[2, 3, 70]);
        assert_eq!(a.union(&b), s(&[0, 1, 2, 3, 70]));
        assert_eq!(a.intersection(&b), s(&[2, 70]));
        assert_eq!(a.difference(&b), s(&[0, 1]));
        assert_eq!(b.difference(&a), s(&[3]));
    }

    #[test]
    fn subset_and_disjoint() {
        assert!(s(&[1, 2]).is_subset(&s(&[0, 1, 2, 3])));
        assert!(!s(&[1, 5]).is_subset(&s(&[0, 1, 2, 3])));
        assert!(s(&[]).is_subset(&s(&[])));
        assert!(s(&[0, 64]).is_disjoint(&s(&[1, 65])));
        assert!(!s(&[64]).is_disjoint(&s(&[64])));
    }

    #[test]
    fn complement_in_universe() {
        let v = s(&[0, 2]);
        assert_eq!(v.complement(4), s(&[1, 3]));
        assert_eq!(v.complement(4).complement(4), v);
    }

    #[test]
    fn iter_is_sorted_and_len_matches() {
        let set = s(&[77, 3, 0, 64]);
        let items: Vec<u32> = set.iter().map(|a| a.0).collect();
        assert_eq!(items, vec![0, 3, 64, 77]);
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn full_universe() {
        let u = AttrSet::full(130);
        assert_eq!(u.len(), 130);
        assert!(u.contains(AttrId(129)));
        assert!(!u.contains(AttrId(130)));
        assert_eq!(AttrSet::full(64).as_word(), Some(u64::MAX));
        assert_eq!(AttrSet::full(128).len(), 128);
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", s(&[1, 3])), "{1,3}");
    }

    #[test]
    fn inline_sets_fit_a_probe_request() {
        assert!(std::mem::size_of::<AttrSet>() <= 16);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;
    use std::hash::BuildHasher;

    /// Random set over ids `0..100` with up to 12 members.
    fn rand_set(rng: &mut StdRng) -> AttrSet {
        let n = rng.gen_range(0usize..12);
        let ids: Vec<u32> = (0..n).map(|_| rng.gen_range(0u32..100)).collect();
        AttrSet::from_indices(&ids)
    }

    #[test]
    fn union_is_commutative_and_idempotent() {
        let mut rng = StdRng::seed_from_u64(0xA5A5);
        for _ in 0..256 {
            let (a, b) = (rand_set(&mut rng), rand_set(&mut rng));
            assert_eq!(a.union(&b), b.union(&a));
            assert_eq!(a.union(&a), a);
        }
    }

    #[test]
    fn de_morgan_within_universe() {
        let mut rng = StdRng::seed_from_u64(0xDE11);
        for _ in 0..256 {
            let (a, b) = (rand_set(&mut rng), rand_set(&mut rng));
            let n = 101;
            let lhs = a.union(&b).complement(n);
            let rhs = a.complement(n).intersection(&b.complement(n));
            assert_eq!(lhs, rhs, "a={a:?} b={b:?}");
        }
    }

    #[test]
    fn difference_partitions() {
        let mut rng = StdRng::seed_from_u64(0xD1FF);
        for _ in 0..256 {
            let (a, b) = (rand_set(&mut rng), rand_set(&mut rng));
            let inter = a.intersection(&b);
            let diff = a.difference(&b);
            assert!(inter.is_disjoint(&diff));
            assert_eq!(inter.union(&diff), a);
            assert_eq!(inter.len() + diff.len(), a.len());
        }
    }

    #[test]
    fn subset_consistent_with_union() {
        let mut rng = StdRng::seed_from_u64(0x5AB5);
        for _ in 0..256 {
            let (a, b) = (rand_set(&mut rng), rand_set(&mut rng));
            assert!(a.is_subset(&a.union(&b)));
            assert_eq!(a.is_subset(&b), a.union(&b) == b);
        }
    }

    #[test]
    fn iter_roundtrip() {
        let mut rng = StdRng::seed_from_u64(0x17E2);
        for _ in 0..256 {
            let a = rand_set(&mut rng);
            let rebuilt: AttrSet = a.iter().collect();
            assert_eq!(rebuilt, a);
        }
    }

    /// Random step sequences over ids `0..200` against a `BTreeSet`
    /// model: sets cross the inline/spilled boundary at 64 both ways,
    /// and after every step the members, `len`, `as_word` and the
    /// canonical form (equal sets built different ways are equal and
    /// hash alike) must agree with the model.
    #[test]
    fn matches_a_btreeset_model_across_the_word_boundary() {
        let hasher = std::collections::hash_map::RandomState::new();
        let mut rng = StdRng::seed_from_u64(0xB17E);
        let (mut inline_seen, mut spilled_seen) = (0, 0);
        for _ in 0..64 {
            let mut set = AttrSet::new();
            let mut model: BTreeSet<u32> = BTreeSet::new();
            for _ in 0..64 {
                let id = rng.gen_range(0u32..200);
                let other_ids: Vec<u32> = (0..rng.gen_range(0usize..8))
                    .map(|_| rng.gen_range(0u32..200))
                    .collect();
                let other = AttrSet::from_indices(&other_ids);
                let theirs: BTreeSet<u32> = other_ids.iter().copied().collect();
                match rng.gen_range(0u32..7) {
                    0 | 1 => assert_eq!(set.insert(AttrId(id)), model.insert(id)),
                    2 => {
                        // Mostly remove a member, so spilled sets shrink
                        // back below 64.
                        let victim = model
                            .iter()
                            .nth(rng.gen_range(0..model.len().max(1)))
                            .copied()
                            .unwrap_or(id);
                        assert_eq!(set.remove(AttrId(victim)), model.remove(&victim));
                    }
                    3 => (set, model) = (set.union(&other), &model | &theirs),
                    4 => (set, model) = (set.intersection(&other), &model & &theirs),
                    5 => (set, model) = (set.difference(&other), &model - &theirs),
                    _ => {
                        let n = id as usize;
                        set = set.complement(n);
                        model = (0..id).filter(|i| !model.contains(i)).collect();
                    }
                }
                let members: Vec<u32> = model.iter().copied().collect();
                assert_eq!(set.iter().map(|a| a.0).collect::<Vec<_>>(), members);
                assert_eq!((set.len(), set.is_empty()), (model.len(), model.is_empty()));
                let word = members
                    .iter()
                    .all(|&m| m < 64)
                    .then(|| members.iter().fold(0u64, |w, &m| w | 1 << m));
                assert_eq!(set.as_word(), word);
                if let Some(w) = word {
                    assert_eq!(AttrSet::from_word(w), set);
                    inline_seen += 1;
                } else {
                    spilled_seen += 1;
                }
                // Built another way: descending inserts, and through a
                // detour above 64 that is removed again.
                let mut rebuilt: AttrSet = members.iter().rev().map(|&m| AttrId(m)).collect();
                rebuilt.insert(AttrId(199));
                if !model.contains(&199) {
                    rebuilt.remove(AttrId(199));
                }
                assert_eq!(rebuilt, set);
                assert_eq!(hasher.hash_one(&rebuilt), hasher.hash_one(&set));
                assert!(set.is_subset(&rebuilt) && rebuilt.is_subset(&set));
            }
        }
        assert!(
            inline_seen > 100 && spilled_seen > 100,
            "{inline_seen} / {spilled_seen}"
        );
    }
}
