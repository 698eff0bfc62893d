//! # sv-relation — relational substrate for `secure-view`
//!
//! The PODS 2011 paper *Provenance Views for Module Privacy* (Davidson,
//! Khanna, Milo, Panigrahi, Roy) models a workflow module as a **finite
//! relation** over input attributes `I` and output attributes `O`
//! satisfying the functional dependency `I -> O`, and a workflow as the
//! input/output join of its module relations (§2.1, §2.3 of the paper).
//!
//! This crate provides exactly that substrate:
//!
//! * [`Domain`] — finite attribute domains (`Δ_a` in the paper),
//! * [`Schema`] / [`AttrId`] — ordered attribute sets with names and domains,
//! * [`Tuple`] and [`Relation`] — dense row storage with set semantics,
//! * [`AttrSet`] — compact attribute bitsets (visible/hidden sets `V`, `V̄`),
//! * [`Fd`] — functional dependencies `I -> O` and satisfaction checks,
//! * projection `π_V(R)`, natural join `R ⋈ S`, grouping and counting
//!   operators used by the privacy checkers in `sv-core`.
//!
//! ## Layering: the interned columnar kernel
//!
//! The crate is split into two layers:
//!
//! 1. **Value layer** — [`Relation`] / [`Tuple`]: one sorted,
//!    duplicate-free row vector built once, used for construction,
//!    equality, FD checking, and the possible-worlds ground truth in
//!    `sv-core`.
//! 2. **Kernel layer** — [`InternedRelation`]: the one row store of a
//!    module (it grows by streaming appends and materializes a
//!    [`Relation`] on demand), a columnar view that
//!    interns projected sub-tuples to dense `u32` ids
//!    ([`ValueInterner`], [`GroupIndex`]) and memoizes one grouping per
//!    attribute set. The Lemma-4 probe
//!    ([`InternedRelation::min_group_distinct`]) runs with **zero
//!    per-probe heap allocation** once warm; projection and join
//!    operate on interned ids. The row-at-a-time seed semantics are
//!    preserved in [`ops::reference`] as the executable specification
//!    (property-tested equivalent, benchmark baseline).
//!
//! `sv-core` builds its safety checkers and the memoized
//! `SafetyOracle` layer directly on the kernel; everything above
//! (`sv-optimize`, `sv-bench`) programs against those oracles.
//!
//! Everything is deterministic and in-memory; rows are canonically ordered
//! so that relations compare as sets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attrset;
mod domain;
mod error;
mod fd;
mod interned;
pub mod ops;
mod relation;
mod schema;
mod tuple;

pub use attrset::AttrSet;
pub use domain::{Domain, Value};
pub use error::RelationError;
pub use fd::Fd;
pub use interned::{hash_shard, GroupIndex, InternedRelation, ValueInterner};
pub use ops::{group_count_distinct, natural_join, project};
pub use relation::Relation;
pub use schema::{AttrDef, AttrId, Schema};
pub use tuple::Tuple;
