//! # sv-core — privacy core of `secure-view`
//!
//! Implements the privacy machinery of *Provenance Views for Module
//! Privacy* (PODS 2011):
//!
//! * [`StandaloneModule`] — a module relation `R` with designated input
//!   and output attributes, plus the **Γ-standalone-privacy** checker
//!   (Definition 2) implemented via the exact grouped-counting condition
//!   of the paper's Algorithm 2 / Lemma 4;
//! * [`worlds`] — brute-force possible-world enumeration
//!   (`Worlds(R, V)`, Definition 1) for tiny modules, used as a test
//!   oracle for the fast checker;
//! * [`standalone`] — the **standalone Secure-View** problem (§3):
//!   minimum-cost safe attribute subsets, enumeration of all minimal
//!   safe hidden sets;
//! * [`safety`] — the **safety-oracle layer**: the [`SafetyOracle`]
//!   trait every upper layer programs against, the memoizing
//!   [`MemoSafetyOracle`] (each distinct visible set's privacy level is
//!   computed once on the interned kernel, then every `is_safe(V, Γ)`
//!   is an O(1) lookup), the naive reference oracle, and
//!   [`safety::WorkflowOracles`] (one memoized oracle per private
//!   module: the store the workflow sweeper derives from and the
//!   serving tier probes);
//! * [`requirements`] — deriving a module's *set constraints* and
//!   *cardinality constraints* requirement lists (§4.2);
//! * [`frontier`] — the **bitwise-trie antichain frontier**: swept
//!   ⊆-minimal safe-set families as a real data structure ([`Frontier`])
//!   with sublinear coverage queries, minimality-maintaining insertion,
//!   and the uncovered-border walk — the engine behind the sweeps'
//!   Proposition-1 pruning;
//! * [`sweep`] — the **parallel work-stealing lattice sweep**: one
//!   enumerator that walks only the uncovered border of the
//!   Proposition-1 antichain, with a shared branch-and-bound best-cost
//!   bound, plus [`sweep::WorkflowSweeper`] driving per-module sweeps
//!   (with hoisted cost slices) over one [`safety::WorkflowOracles`]
//!   module store — the one path every workflow-level Secure-View
//!   answer (composition, requirement lists, instances) is derived
//!   through;
//! * [`compose`] — Theorem 4: assembling workflow privacy from
//!   standalone guarantees in all-private workflows, plus the exhaustive
//!   workflow-privacy verifier over function-generated possible worlds;
//! * [`flip`] — the tuple/function **flipping** construction of
//!   Lemma 1/2 (Appendix B.3), as an executable witness generator;
//! * [`public`] — §5: privatization of public modules and the Theorem-8
//!   composition for general workflows;
//! * [`oracle`] — instrumented data suppliers and Safe-View oracles for
//!   the communication-complexity experiments (Theorems 1 and 3);
//! * [`wire`] — the serving tier's transport-independent framing:
//!   length-prefixed request/response payloads (probe batches, append
//!   ingest, epoch reads, backpressure and typed faults) that the
//!   `sv-serve` crate moves over its transports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compose;
mod error;
pub mod flip;
pub mod frontier;
pub mod oracle;
pub mod public;
pub mod requirements;
pub mod safety;
pub mod standalone;
pub mod sweep;
pub mod wire;
pub mod worlds;

pub use error::CoreError;
pub use frontier::{BorderRun, BorderScan, Frontier};
pub use safety::{MemoSafetyOracle, ProbeOutcome, ProbeRequest, SafetyOracle};
pub use standalone::StandaloneModule;
pub use sweep::{SweepConfig, SweepStats, WorkflowSweeper};
