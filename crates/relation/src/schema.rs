//! Schemas: ordered, named, typed attribute lists.

use crate::attrset::AttrSet;
use crate::domain::Domain;
use crate::error::RelationError;
use crate::tuple::Tuple;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Index of an attribute within a [`Schema`].
///
/// The paper names attributes `a1, a2, …`; we address them positionally
/// and keep the names for display and wiring.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrId(pub u32);

impl AttrId {
    /// The attribute's positional index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a#{}", self.0)
    }
}

/// An attribute definition: name plus finite domain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttrDef {
    /// Human-readable attribute name (`a1`, `ssn`, …). Unique per schema.
    pub name: String,
    /// The attribute's finite domain `Δ_a`.
    pub domain: Domain,
}

/// An ordered list of attributes shared by all tuples of a relation.
///
/// Schemas are cheaply cloneable (`Arc` inside) because module relations,
/// views, and possible worlds all share the same schema.
#[derive(Clone, PartialEq, Eq)]
pub struct Schema {
    inner: Arc<SchemaInner>,
}

#[derive(PartialEq, Eq)]
struct SchemaInner {
    attrs: Vec<AttrDef>,
    by_name: HashMap<String, AttrId>,
}

impl Schema {
    /// Builds a schema from attribute definitions.
    ///
    /// # Panics
    /// Panics if two attributes share a name; the paper requires globally
    /// unique attribute names within a workflow (§2.3).
    #[must_use]
    pub fn new(attrs: Vec<AttrDef>) -> Self {
        let mut by_name = HashMap::with_capacity(attrs.len());
        for (i, a) in attrs.iter().enumerate() {
            let prev = by_name.insert(a.name.clone(), AttrId(i as u32));
            assert!(prev.is_none(), "duplicate attribute name `{}`", a.name);
        }
        Self {
            inner: Arc::new(SchemaInner { attrs, by_name }),
        }
    }

    /// Convenience: a schema of `names.len()` boolean attributes.
    #[must_use]
    pub fn booleans(names: &[&str]) -> Self {
        Self::new(
            names
                .iter()
                .map(|n| AttrDef {
                    name: (*n).to_string(),
                    domain: Domain::boolean(),
                })
                .collect(),
        )
    }

    /// Number of attributes (`k` in the paper's complexity bounds).
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.attrs.len()
    }

    /// Whether the schema has no attributes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.attrs.is_empty()
    }

    /// The definition of attribute `a`.
    #[must_use]
    pub fn attr(&self, a: AttrId) -> &AttrDef {
        &self.inner.attrs[a.index()]
    }

    /// Looks up an attribute by name.
    #[must_use]
    pub fn by_name(&self, name: &str) -> Option<AttrId> {
        self.inner.by_name.get(name).copied()
    }

    /// Iterates `(AttrId, &AttrDef)` in schema order.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &AttrDef)> {
        self.inner
            .attrs
            .iter()
            .enumerate()
            .map(|(i, d)| (AttrId(i as u32), d))
    }

    /// The set of all attribute ids in this schema.
    #[must_use]
    pub fn all_attrs(&self) -> AttrSet {
        AttrSet::full(self.len())
    }

    /// Product of domain sizes over `set` (`∏_{a∈set} |Δ_a|`), saturating
    /// at `u128::MAX`.
    ///
    /// This quantity appears directly in the paper's safety condition
    /// (Lemma 4): a visible subset is safe iff each visible-input group
    /// admits at least `Γ / ∏_{a∈O\V}|Δ_a|` distinct visible outputs.
    #[must_use]
    pub fn domain_product(&self, set: &AttrSet) -> u128 {
        let mut p: u128 = 1;
        for a in set.iter() {
            p = p.saturating_mul(u128::from(self.attr(a).domain.size()));
        }
        p
    }

    /// Names of the attributes in `set`, in id order (diagnostics).
    #[must_use]
    pub fn names(&self, set: &AttrSet) -> Vec<&str> {
        set.iter().map(|a| self.attr(a).name.as_str()).collect()
    }

    /// Checks that `t` is a row of this schema: one value per
    /// attribute, each inside its attribute's domain. This is the one
    /// row check: [`crate::Relation::from_rows`], the kernel's appends
    /// and recovery ([`crate::InternedRelation`]) and batch validation
    /// upstream all call it.
    ///
    /// # Errors
    /// [`RelationError::ArityMismatch`] or
    /// [`RelationError::ValueOutOfDomain`].
    pub fn check_row(&self, t: &Tuple) -> Result<(), RelationError> {
        if t.arity() != self.len() {
            return Err(RelationError::ArityMismatch {
                expected: self.len(),
                got: t.arity(),
            });
        }
        for (a, def) in self.iter() {
            let v = t.get(a);
            if !def.domain.contains(v) {
                return Err(RelationError::ValueOutOfDomain {
                    attr: def.name.clone(),
                    value: v,
                    domain_size: def.domain.size(),
                });
            }
        }
        Ok(())
    }
}

impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Schema[")?;
        for (i, a) in self.inner.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}:{}", a.name, a.domain)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_lookup() {
        let s = Schema::booleans(&["a1", "a2", "a3"]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.by_name("a2"), Some(AttrId(1)));
        assert_eq!(s.by_name("zz"), None);
        assert_eq!(s.attr(AttrId(0)).name, "a1");
    }

    #[test]
    #[should_panic(expected = "duplicate attribute name")]
    fn duplicate_names_rejected() {
        let _ = Schema::booleans(&["x", "x"]);
    }

    #[test]
    fn domain_product_over_sets() {
        let s = Schema::new(vec![
            AttrDef {
                name: "b".into(),
                domain: Domain::boolean(),
            },
            AttrDef {
                name: "t".into(),
                domain: Domain::new(3),
            },
            AttrDef {
                name: "q".into(),
                domain: Domain::new(5),
            },
        ]);
        assert_eq!(s.domain_product(&s.all_attrs()), 30);
        assert_eq!(s.domain_product(&AttrSet::from_indices(&[1, 2])), 15);
        assert_eq!(s.domain_product(&AttrSet::new()), 1);
    }

    #[test]
    fn names_projection() {
        let s = Schema::booleans(&["a1", "a2", "a3"]);
        assert_eq!(s.names(&AttrSet::from_indices(&[0, 2])), vec!["a1", "a3"]);
    }

    #[test]
    fn schemas_share_storage_on_clone() {
        let s = Schema::booleans(&["a"]);
        let t = s.clone();
        assert_eq!(s, t);
    }
}
