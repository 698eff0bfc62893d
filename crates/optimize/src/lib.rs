//! # sv-optimize — Secure-View optimizers
//!
//! Implements every algorithm the paper gives for the **workflow
//! Secure-View** problem (§4.2–§4.3, §5.2, Appendices B.4–B.6, C):
//!
//! * [`instance`] — problem instances decoupled from concrete workflows:
//!   cardinality constraints, set constraints, and general (public +
//!   private) variants, plus converters from a [`sv_workflow::Workflow`]
//!   whose requirement lists come from a `sv_core::WorkflowSweeper`;
//! * [`cardinality`] — the Figure-3 IP, its LP relaxation, the
//!   Algorithm-1 randomized rounding (`O(log n)`-approximation,
//!   Theorem 5), and the B.4 ablation LPs with unbounded / `Ω(n)`
//!   integrality gaps;
//! * [`setcon`] — the Appendix-B.5.1 LP and `ℓ_max`-rounding
//!   (Theorem 6);
//! * [`general`] — the Appendix-C.4 LP with privatization costs and its
//!   `ℓ_max`-rounding for workflows with public modules;
//! * [`greedy`] — the `(γ+1)`-approximation for γ-bounded data sharing
//!   (Theorem 7) and per-module greedy baselines;
//! * [`exact`] — exponential-time exact baselines (dense subset
//!   enumeration and branch-and-bound over the IPs) used to measure
//!   approximation ratios empirically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cardinality;
pub mod exact;
pub mod general;
pub mod greedy;
pub mod instance;
pub mod setcon;

pub use exact::{exact_cardinality, exact_general, exact_set};
pub use instance::{
    CardModule, CardinalityInstance, GeneralInstance, PublicSpec, SetInstance, SetModule, Solution,
};
