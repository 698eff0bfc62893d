//! LP model builder.

use crate::simplex::{self, LpError};
use std::fmt;

/// Index of a decision variable within an [`LpProblem`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub usize);

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Constraint comparison operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// `≤ rhs`
    Le,
    /// `≥ rhs`
    Ge,
    /// `= rhs`
    Eq,
}

pub(crate) struct Variable {
    pub name: String,
    pub lower: f64,
    pub upper: Option<f64>,
    pub obj: f64,
}

pub(crate) struct Constraint {
    pub terms: Vec<(usize, f64)>,
    pub cmp: Cmp,
    pub rhs: f64,
}

/// A linear **minimization** problem
/// `min cᵀx  s.t.  Ax {≤,≥,=} b,  l ≤ x ≤ u`.
#[derive(Default)]
pub struct LpProblem {
    pub(crate) vars: Vec<Variable>,
    pub(crate) cons: Vec<Constraint>,
}

/// An optimal LP solution.
#[derive(Clone, Debug)]
pub struct LpSolution {
    /// Optimal objective value.
    pub objective: f64,
    /// Optimal variable values, indexed by [`VarId`].
    pub values: Vec<f64>,
}

impl LpSolution {
    /// Value of variable `v`.
    #[must_use]
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.0]
    }
}

impl LpProblem {
    /// Creates an empty problem.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with bounds `[lower, upper]` (upper `None` = +∞)
    /// and objective coefficient `obj`. Returns its id.
    ///
    /// # Panics
    /// Panics on NaN coefficients or `lower > upper`.
    pub fn add_var(&mut self, name: &str, lower: f64, upper: Option<f64>, obj: f64) -> VarId {
        assert!(!lower.is_nan() && !obj.is_nan(), "NaN in variable");
        if let Some(u) = upper {
            assert!(lower <= u, "lower bound exceeds upper bound for {name}");
        }
        let id = VarId(self.vars.len());
        self.vars.push(Variable {
            name: name.to_string(),
            lower,
            upper,
            obj,
        });
        id
    }

    /// Adds a `[0, 1]`-bounded variable (the common case in the paper's
    /// relaxations, constraint (23) of Appendix C.4).
    pub fn add_unit_var(&mut self, name: &str, obj: f64) -> VarId {
        self.add_var(name, 0.0, Some(1.0), obj)
    }

    /// Adds the constraint `Σ coeff·var  cmp  rhs`.
    ///
    /// # Panics
    /// Panics on NaN or out-of-range variable ids.
    pub fn add_constraint(&mut self, terms: &[(VarId, f64)], cmp: Cmp, rhs: f64) {
        assert!(!rhs.is_nan(), "NaN rhs");
        let mut t = Vec::with_capacity(terms.len());
        for &(v, c) in terms {
            assert!(v.0 < self.vars.len(), "unknown variable {v:?}");
            assert!(!c.is_nan(), "NaN coefficient");
            t.push((v.0, c));
        }
        self.cons.push(Constraint { terms: t, cmp, rhs });
    }

    /// Solves the problem with two-phase primal simplex.
    ///
    /// # Errors
    /// [`LpError::Infeasible`] or [`LpError::Unbounded`].
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        simplex::solve(self)
    }

    /// Name of variable `v` (diagnostics).
    #[must_use]
    pub fn var_name(&self, v: VarId) -> &str {
        &self.vars[v.0].name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_lp_optimum() {
        // min x + y  s.t.  x + 2y ≥ 4, 3x + y ≥ 6, x,y ≥ 0
        // Optimum at intersection: x = 8/5, y = 6/5, obj = 14/5.
        let mut p = LpProblem::new();
        let x = p.add_var("x", 0.0, None, 1.0);
        let y = p.add_var("y", 0.0, None, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 2.0)], Cmp::Ge, 4.0);
        p.add_constraint(&[(x, 3.0), (y, 1.0)], Cmp::Ge, 6.0);
        let s = p.solve().unwrap();
        assert!((s.objective - 2.8).abs() < 1e-7, "obj = {}", s.objective);
        assert!((s.value(x) - 1.6).abs() < 1e-7);
        assert!((s.value(y) - 1.2).abs() < 1e-7);
    }

    #[test]
    fn equality_and_upper_bounds() {
        // min -x - 2y  s.t.  x + y = 3, 0 ≤ x ≤ 2, 0 ≤ y ≤ 2.
        // Optimum: y = 2, x = 1, obj = -5.
        let mut p = LpProblem::new();
        let x = p.add_var("x", 0.0, Some(2.0), -1.0);
        let y = p.add_var("y", 0.0, Some(2.0), -2.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 3.0);
        let s = p.solve().unwrap();
        assert!((s.objective + 5.0).abs() < 1e-7);
        assert!((s.value(x) - 1.0).abs() < 1e-7);
        assert!((s.value(y) - 2.0).abs() < 1e-7);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = LpProblem::new();
        let x = p.add_unit_var("x", 1.0);
        p.add_constraint(&[(x, 1.0)], Cmp::Ge, 2.0);
        assert!(matches!(p.solve(), Err(LpError::Infeasible)));
    }

    #[test]
    fn unbounded_detected() {
        let mut p = LpProblem::new();
        let x = p.add_var("x", 0.0, None, -1.0);
        p.add_constraint(&[(x, 1.0)], Cmp::Ge, 0.0);
        assert!(matches!(p.solve(), Err(LpError::Unbounded)));
    }

    #[test]
    fn le_constraints_and_degenerate_rows() {
        // min -x  s.t.  x ≤ 5, x ≤ 5 (duplicate), x ≥ 0.
        let mut p = LpProblem::new();
        let x = p.add_var("x", 0.0, None, -1.0);
        p.add_constraint(&[(x, 1.0)], Cmp::Le, 5.0);
        p.add_constraint(&[(x, 1.0)], Cmp::Le, 5.0);
        let s = p.solve().unwrap();
        assert!((s.value(x) - 5.0).abs() < 1e-7);
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // min x  s.t.  -x ≤ -3  (i.e. x ≥ 3).
        let mut p = LpProblem::new();
        let x = p.add_var("x", 0.0, None, 1.0);
        p.add_constraint(&[(x, -1.0)], Cmp::Le, -3.0);
        let s = p.solve().unwrap();
        assert!((s.value(x) - 3.0).abs() < 1e-7);
    }

    #[test]
    fn nonzero_lower_bounds() {
        // min x + y  s.t.  x + y ≥ 1, x ≥ 2, y ≥ 0 (lb on x via bound).
        let mut p = LpProblem::new();
        let x = p.add_var("x", 2.0, None, 1.0);
        let y = p.add_var("y", 0.0, None, 1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0);
        let s = p.solve().unwrap();
        assert!((s.objective - 2.0).abs() < 1e-7);
        assert!((s.value(x) - 2.0).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "lower bound exceeds upper")]
    fn bad_bounds_rejected() {
        let mut p = LpProblem::new();
        let _ = p.add_var("x", 2.0, Some(1.0), 0.0);
    }
}
