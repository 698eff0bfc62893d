//! Relations: schema + canonically ordered, duplicate-free rows.
//!
//! A [`Relation`] is one sorted, deduplicated row vector, built once by
//! [`Relation::from_rows`] and never mutated. It is the value form of a
//! module relation: construction, equality, FD checks and the
//! possible-worlds ground truth read it. Modules store their rows in
//! the columnar [`crate::InternedRelation`] kernel, which grows by
//! streaming appends and materializes a `Relation` on demand
//! ([`crate::InternedRelation::to_relation`]).

use crate::error::RelationError;
use crate::fd::Fd;
use crate::schema::Schema;
use crate::tuple::Tuple;
use std::collections::HashMap;
use std::fmt;

/// A finite relation over a [`Schema`].
///
/// Rows are kept sorted and deduplicated so two relations over the same
/// schema are equal as Rust values iff they are equal as sets — the
/// property the possible-worlds machinery in `sv-core` relies on
/// (`π_V(R') = π_V(R)` comparisons, Definition 1/4 of the paper).
#[derive(Clone, PartialEq, Eq)]
pub struct Relation {
    schema: Schema,
    /// Sorted and duplicate-free.
    rows: Vec<Tuple>,
}

impl Relation {
    /// Creates an empty relation over `schema`.
    #[must_use]
    pub fn empty(schema: Schema) -> Self {
        Self {
            schema,
            rows: Vec::new(),
        }
    }

    /// Builds a relation from rows, validating arity and domains, then
    /// sorting and deduplicating.
    ///
    /// # Errors
    /// [`RelationError::ArityMismatch`] or
    /// [`RelationError::ValueOutOfDomain`] on invalid rows.
    pub fn from_rows(schema: Schema, mut rows: Vec<Tuple>) -> Result<Self, RelationError> {
        for t in &rows {
            schema.check_row(t)?;
        }
        rows.sort_unstable();
        rows.dedup();
        Ok(Self { schema, rows })
    }

    /// Builds a relation from raw value vectors (construction convenience).
    ///
    /// # Errors
    /// Same as [`from_rows`](Self::from_rows).
    pub fn from_values(schema: Schema, rows: Vec<Vec<u32>>) -> Result<Self, RelationError> {
        Self::from_rows(schema, rows.into_iter().map(Tuple::new).collect())
    }

    /// The relation's schema.
    #[must_use]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows (`N` in the paper's complexity bounds).
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the relation has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Rows in canonical (sorted) order.
    #[must_use]
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Membership test (binary search, `O(log N)`).
    #[must_use]
    pub fn contains(&self, t: &Tuple) -> bool {
        self.rows.binary_search(t).is_ok()
    }

    /// Checks whether the relation satisfies `fd` (`I -> O`): no two rows
    /// agree on `I` but differ on `O`.
    #[must_use]
    pub fn satisfies(&self, fd: &Fd) -> bool {
        let mut seen: HashMap<Tuple, Tuple> = HashMap::with_capacity(self.len());
        for t in &self.rows {
            let key = t.project(fd.lhs());
            let val = t.project(fd.rhs());
            match seen.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    if *e.get() != val {
                        return false;
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(val);
                }
            }
        }
        true
    }

    /// Checks all FDs, returning the first violated one as an error.
    ///
    /// # Errors
    /// [`RelationError::FdViolation`] naming the violated dependency.
    pub fn check_fds(&self, fds: &[Fd]) -> Result<(), RelationError> {
        for fd in fds {
            if !self.satisfies(fd) {
                return Err(RelationError::FdViolation {
                    fd: fd.display(&self.schema),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Relation {:?} ({} rows)", self.schema, self.len())?;
        for t in &self.rows {
            writeln!(f, "  {t:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrset::AttrSet;

    fn bool_schema3() -> Schema {
        Schema::booleans(&["a", "b", "c"])
    }

    #[test]
    fn dedup_and_sort_on_construction() {
        let r = Relation::from_values(
            bool_schema3(),
            vec![vec![1, 1, 0], vec![0, 0, 1], vec![1, 1, 0]],
        )
        .unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows()[0].values(), &[0, 0, 1]);
        assert!(r.contains(&Tuple::new(vec![1, 1, 0])));
        assert!(!r.contains(&Tuple::new(vec![0, 1, 0])));
    }

    #[test]
    fn set_equality_ignores_insertion_order() {
        let r1 = Relation::from_values(bool_schema3(), vec![vec![1, 0, 0], vec![0, 1, 0]]).unwrap();
        let r2 = Relation::from_values(bool_schema3(), vec![vec![0, 1, 0], vec![1, 0, 0]]).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn arity_and_domain_validation() {
        let err = Relation::from_values(bool_schema3(), vec![vec![1, 0]]).unwrap_err();
        assert!(matches!(err, RelationError::ArityMismatch { .. }));
        let err = Relation::from_values(bool_schema3(), vec![vec![1, 0, 7]]).unwrap_err();
        assert!(matches!(err, RelationError::ValueOutOfDomain { .. }));
    }

    #[test]
    fn fd_satisfaction() {
        // a -> b holds; a -> c fails.
        let r = Relation::from_values(
            bool_schema3(),
            vec![vec![0, 1, 0], vec![0, 1, 1], vec![1, 0, 0]],
        )
        .unwrap();
        let a_to_b = Fd::new(AttrSet::from_indices(&[0]), AttrSet::from_indices(&[1]));
        let a_to_c = Fd::new(AttrSet::from_indices(&[0]), AttrSet::from_indices(&[2]));
        assert!(r.satisfies(&a_to_b));
        assert!(!r.satisfies(&a_to_c));
        assert!(r.check_fds(std::slice::from_ref(&a_to_b)).is_ok());
        let err = r.check_fds(&[a_to_b, a_to_c]).unwrap_err();
        assert!(matches!(err, RelationError::FdViolation { .. }));
    }

    #[test]
    fn empty_relation_properties() {
        let r = Relation::empty(bool_schema3());
        assert!(r.is_empty());
        assert!(r.satisfies(&Fd::new(
            AttrSet::from_indices(&[0]),
            AttrSet::from_indices(&[1, 2])
        )));
    }
}
