//! # sv-lp — linear programming substrate for `secure-view`
//!
//! The paper's approximation algorithms round optimal solutions of LP
//! relaxations (the cardinality-constraint IP of Figure 3 with its
//! `O(log n)` randomized rounding, the set-constraint LP of Appendix
//! B.5.1 with `ℓ_max` rounding, and the general-workflow LP of Appendix
//! C.4). No LP solver exists in the offline dependency set, so this
//! crate implements one from scratch:
//!
//! * [`LpProblem`] — model builder (minimization, `≤ / ≥ / =` rows,
//!   per-variable bounds);
//! * a **dense-tableau two-phase primal simplex** with Bland's
//!   anti-cycling rule, whose pivots eliminate over the pivot row's
//!   nonzero columns only ([`LpProblem::solve`]);
//! * [`solve_integer`] — branch-and-bound over the LP relaxation for the
//!   exact (exponential-time) baselines the benchmarks compare against.
//!
//! Instances produced by the paper's reductions are small-to-medium
//! (thousands of nonzeros), where dense simplex is exact and fast.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch_bound;
mod model;
mod simplex;

pub use branch_bound::{solve_integer, IntSolution};
pub use model::{Cmp, LpProblem, LpSolution, VarId};
pub use simplex::LpError;
