//! Dense-tableau two-phase primal simplex with Bland's anti-cycling
//! rule and a sparse pivot row.
//!
//! Structure:
//! 1. shift variables by their (finite) lower bounds so all variables
//!    are `≥ 0`; upper bounds become explicit `≤` rows;
//! 2. normalize rows to non-negative right-hand sides; add slack,
//!    surplus, and artificial columns;
//! 3. **phase 1** minimizes the artificial sum (infeasible if positive);
//!    basic artificials are driven out or their rows dropped as
//!    redundant;
//! 4. **phase 2** minimizes the original objective with artificial
//!    columns banned from entering.
//!
//! Bland's rule (lowest-index entering column, lowest-basis-index ratio
//! tie-break) guarantees termination; an iteration cap converts any
//! numerical pathology into an explicit error rather than a hang.
//!
//! The tableau is stored dense, but each pivot eliminates only over the
//! nonzero columns of the normalized pivot row, in the constraint rows
//! and in the cost row. The rows of the paper's LPs (Figure 3) are
//! mostly zeros, so this cuts a pivot's work to the pivot row's support
//! without changing one comparison: a skipped column would have had
//! `f · 0` subtracted from it.

use crate::model::{Cmp, LpProblem, LpSolution};
use std::fmt;

const EPS: f64 = 1e-9;

/// Errors from the simplex solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpError {
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// Iteration cap exceeded (numerical trouble).
    Numerical,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Infeasible => write!(f, "LP is infeasible"),
            Self::Unbounded => write!(f, "LP is unbounded"),
            Self::Numerical => write!(f, "simplex iteration cap exceeded"),
        }
    }
}

impl std::error::Error for LpError {}

struct Tableau {
    /// `rows[i]` has `ncols + 1` entries; the last is the rhs.
    rows: Vec<Vec<f64>>,
    /// Reduced-cost row, `ncols + 1` entries; last = −objective.
    cost: Vec<f64>,
    /// Basic column of each row.
    basis: Vec<usize>,
    /// Columns allowed to enter the basis.
    allowed: Vec<bool>,
    ncols: usize,
    /// The normalized pivot row's nonzero entries, `(column, value)`,
    /// reused by every pivot.
    pivot_nz: Vec<(usize, f64)>,
}

impl Tableau {
    /// Pivots column `c` into the basis at row `r`: normalizes row `r`,
    /// then eliminates column `c` from every other row and the cost row
    /// over the normalized row's nonzero columns only. A skipped column
    /// would have had `f · (±0)` subtracted, which leaves a finite entry
    /// equal under `==` (only a zero's sign may differ), so every
    /// comparison, Bland's pivot sequence and the solution are those of
    /// the dense elimination.
    fn pivot(&mut self, r: usize, c: usize) {
        let piv = self.rows[r][c];
        debug_assert!(piv.abs() > EPS);
        self.pivot_nz.clear();
        for (j, v) in self.rows[r].iter_mut().enumerate() {
            *v /= piv;
            if *v != 0.0 {
                self.pivot_nz.push((j, *v));
            }
        }
        let nz = &self.pivot_nz;
        let eliminate = |row: &mut [f64]| {
            let f = row[c];
            if f.abs() > EPS {
                for &(j, pv) in nz {
                    row[j] -= f * pv;
                }
                row[c] = 0.0; // exact
            }
        };
        for (i, row) in self.rows.iter_mut().enumerate() {
            if i != r {
                eliminate(row);
            }
        }
        eliminate(&mut self.cost);
        self.basis[r] = c;
    }

    /// Subtracts basic-variable cost rows so reduced costs of basic
    /// columns are zero.
    fn reduce_cost_row(&mut self) {
        for i in 0..self.rows.len() {
            let b = self.basis[i];
            let f = self.cost[b];
            if f.abs() > EPS {
                let row = self.rows[i].clone();
                for (v, rv) in self.cost.iter_mut().zip(row.iter()) {
                    *v -= f * rv;
                }
                self.cost[b] = 0.0;
            }
        }
    }

    /// Bland's choice of the next pivot `(row, column)`: the lowest-
    /// index allowed column with negative reduced cost enters, and the
    /// row of minimum ratio leaves, ties by lowest basis index.
    /// `Ok(None)` at an optimum.
    fn next_pivot(&self) -> Result<Option<(usize, usize)>, LpError> {
        // Entering: lowest-index allowed column with negative reduced
        // cost.
        let Some(c) = (0..self.ncols).find(|&j| self.allowed[j] && self.cost[j] < -EPS) else {
            return Ok(None);
        };
        // Leaving: min ratio, ties by lowest basis index.
        let mut best: Option<(usize, f64)> = None;
        for (i, row) in self.rows.iter().enumerate() {
            if row[c] > EPS {
                let ratio = row[self.ncols] / row[c];
                match best {
                    None => best = Some((i, ratio)),
                    Some((bi, br)) => {
                        if ratio < br - EPS || (ratio < br + EPS && self.basis[i] < self.basis[bi])
                        {
                            best = Some((i, ratio));
                        }
                    }
                }
            }
        }
        let Some((r, _)) = best else {
            return Err(LpError::Unbounded);
        };
        Ok(Some((r, c)))
    }

    /// Runs simplex iterations to optimality (Bland's rule).
    fn optimize(&mut self) -> Result<(), LpError> {
        let max_iter = 2000 + 200 * (self.rows.len() + self.ncols);
        for _ in 0..max_iter {
            let Some((r, c)) = self.next_pivot()? else {
                return Ok(());
            };
            self.pivot(r, c);
        }
        Err(LpError::Numerical)
    }

    fn objective(&self) -> f64 {
        -self.cost[self.ncols]
    }
}

pub(crate) fn solve(p: &LpProblem) -> Result<LpSolution, LpError> {
    let n = p.vars.len();
    for v in &p.vars {
        assert!(
            v.lower.is_finite(),
            "variable `{}` needs a finite lower bound",
            v.name
        );
    }
    let shift: Vec<f64> = p.vars.iter().map(|v| v.lower).collect();

    // Collect rows over shifted variables x' = x − l ≥ 0.
    struct Row {
        coef: Vec<f64>,
        cmp: Cmp,
        rhs: f64,
    }
    let mut rows: Vec<Row> = Vec::new();
    for c in &p.cons {
        let mut coef = vec![0.0; n];
        let mut rhs = c.rhs;
        for &(j, a) in &c.terms {
            coef[j] += a;
            rhs -= a * shift[j];
        }
        rows.push(Row {
            coef,
            cmp: c.cmp,
            rhs,
        });
    }
    // Upper bounds as rows: x'_j ≤ u_j − l_j.
    for (j, v) in p.vars.iter().enumerate() {
        if let Some(u) = v.upper {
            let mut coef = vec![0.0; n];
            coef[j] = 1.0;
            rows.push(Row {
                coef,
                cmp: Cmp::Le,
                rhs: u - v.lower,
            });
        }
    }
    // Normalize rhs ≥ 0.
    for r in rows.iter_mut() {
        if r.rhs < 0.0 {
            for a in r.coef.iter_mut() {
                *a = -*a;
            }
            r.rhs = -r.rhs;
            r.cmp = match r.cmp {
                Cmp::Le => Cmp::Ge,
                Cmp::Ge => Cmp::Le,
                Cmp::Eq => Cmp::Eq,
            };
        }
    }

    let m = rows.len();
    let n_slack = rows.iter().filter(|r| r.cmp == Cmp::Le).count();
    let n_surplus = rows.iter().filter(|r| r.cmp == Cmp::Ge).count();
    let n_art = rows.iter().filter(|r| r.cmp != Cmp::Le).count();
    let ncols = n + n_slack + n_surplus + n_art;

    let mut tab = Tableau {
        rows: vec![vec![0.0; ncols + 1]; m],
        cost: vec![0.0; ncols + 1],
        basis: vec![usize::MAX; m],
        allowed: vec![true; ncols],
        ncols,
        pivot_nz: Vec::new(),
    };
    let mut next_slack = n;
    let mut next_surplus = n + n_slack;
    let mut next_art = n + n_slack + n_surplus;
    let art_start = next_art;
    for (i, r) in rows.iter().enumerate() {
        tab.rows[i][..n].copy_from_slice(&r.coef);
        tab.rows[i][ncols] = r.rhs;
        match r.cmp {
            Cmp::Le => {
                tab.rows[i][next_slack] = 1.0;
                tab.basis[i] = next_slack;
                next_slack += 1;
            }
            Cmp::Ge => {
                tab.rows[i][next_surplus] = -1.0;
                next_surplus += 1;
                tab.rows[i][next_art] = 1.0;
                tab.basis[i] = next_art;
                next_art += 1;
            }
            Cmp::Eq => {
                tab.rows[i][next_art] = 1.0;
                tab.basis[i] = next_art;
                next_art += 1;
            }
        }
    }

    // Phase 1: minimize artificial sum.
    if n_art > 0 {
        for j in art_start..ncols {
            tab.cost[j] = 1.0;
        }
        tab.reduce_cost_row();
        tab.optimize()?;
        if tab.objective() > 1e-7 {
            return Err(LpError::Infeasible);
        }
        // Drive basic artificials out; drop redundant rows.
        let mut drop_rows: Vec<usize> = Vec::new();
        for i in 0..m {
            if tab.basis[i] >= art_start {
                if let Some(c) = (0..art_start).find(|&j| tab.rows[i][j].abs() > EPS) {
                    tab.pivot(i, c);
                } else {
                    drop_rows.push(i);
                }
            }
        }
        for &i in drop_rows.iter().rev() {
            tab.rows.remove(i);
            tab.basis.remove(i);
        }
        for j in art_start..ncols {
            tab.allowed[j] = false;
        }
    }

    // Phase 2: original objective.
    tab.cost = vec![0.0; ncols + 1];
    for (j, v) in p.vars.iter().enumerate() {
        tab.cost[j] = v.obj;
    }
    tab.reduce_cost_row();
    tab.optimize()?;

    // Extract shifted values.
    let mut xp = vec![0.0; ncols];
    for (i, &b) in tab.basis.iter().enumerate() {
        xp[b] = tab.rows[i][tab.ncols];
    }
    let values: Vec<f64> = (0..n).map(|j| xp[j] + shift[j]).collect();
    let objective: f64 = p
        .vars
        .iter()
        .zip(values.iter())
        .map(|(v, &x)| v.obj * x)
        .sum();
    Ok(LpSolution { objective, values })
}

#[cfg(test)]
mod tests {
    use super::{LpError, Tableau, EPS};
    use crate::model::{Cmp, LpProblem};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The dense elimination [`Tableau::pivot`] replaced: every column
    /// of every row, kept as the sparse pivot's reference.
    fn dense_pivot(t: &mut Tableau, r: usize, c: usize) {
        let piv = t.rows[r][c];
        for v in t.rows[r].iter_mut() {
            *v /= piv;
        }
        let pivot_row = t.rows[r].clone();
        for (i, row) in t.rows.iter_mut().enumerate() {
            if i == r {
                continue;
            }
            let f = row[c];
            if f.abs() > EPS {
                for (v, pv) in row.iter_mut().zip(pivot_row.iter()) {
                    *v -= f * pv;
                }
                row[c] = 0.0;
            }
        }
        let f = t.cost[c];
        if f.abs() > EPS {
            for (v, pv) in t.cost.iter_mut().zip(pivot_row.iter()) {
                *v -= f * pv;
            }
            t.cost[c] = 0.0;
        }
        t.basis[r] = c;
    }

    fn tableau(rows: Vec<Vec<f64>>, cost: Vec<f64>, basis: Vec<usize>) -> Tableau {
        let ncols = cost.len() - 1;
        Tableau {
            rows,
            cost,
            basis,
            allowed: vec![true; ncols],
            ncols,
            pivot_nz: Vec::new(),
        }
    }

    fn copy(t: &Tableau) -> Tableau {
        tableau(t.rows.clone(), t.cost.clone(), t.basis.clone())
    }

    /// Asserts both tableaus agree under `==` entry by entry (a zero's
    /// sign may differ) and in their basis.
    fn assert_equal(sparse: &Tableau, dense: &Tableau, ctx: &str) {
        assert_eq!(sparse.rows, dense.rows, "{ctx}: rows");
        assert_eq!(sparse.cost, dense.cost, "{ctx}: cost row");
        assert_eq!(sparse.basis, dense.basis, "{ctx}: basis");
    }

    /// An entry of a random tableau: zeros of both signs, small
    /// integers, and fractions.
    fn entry(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0u32..6) {
            0 | 1 => 0.0,
            2 => -0.0,
            3 => f64::from(rng.gen_range(0u32..7)) - 3.0,
            _ => f64::from(rng.gen_range(0u32..10_000)) / 997.0 - 5.0,
        }
    }

    #[test]
    fn sparse_pivot_equals_dense_on_random_tableaus() {
        let mut rng = StdRng::seed_from_u64(0x5A_12CE);
        let mut signed_zeros = 0usize;
        for case in 0..200 {
            let (m, ncols) = (rng.gen_range(1usize..7), rng.gen_range(1usize..10));
            let rows = (0..m)
                .map(|_| (0..=ncols).map(|_| entry(&mut rng)).collect())
                .collect();
            let cost = (0..=ncols).map(|_| entry(&mut rng)).collect();
            let mut sparse = tableau(rows, cost, vec![usize::MAX; m]);
            let mut dense = copy(&sparse);
            for step in 0..8 {
                // Any entry of magnitude above EPS may pivot, negative
                // ones included (phase 1 drives artificials out on them).
                let candidates: Vec<(usize, usize)> = (0..m)
                    .flat_map(|r| (0..ncols).map(move |c| (r, c)))
                    .filter(|&(r, c)| sparse.rows[r][c].abs() > EPS)
                    .collect();
                if candidates.is_empty() {
                    break;
                }
                let (r, c) = candidates[rng.gen_range(0..candidates.len())];
                sparse.pivot(r, c);
                dense_pivot(&mut dense, r, c);
                assert_equal(&sparse, &dense, &format!("case {case} step {step}"));
                signed_zeros += sparse
                    .rows
                    .iter()
                    .chain([&sparse.cost])
                    .flatten()
                    .filter(|v| **v == 0.0 && v.is_sign_negative())
                    .count();
            }
        }
        assert!(signed_zeros > 0, "the tableaus carried −0.0 entries");
    }

    #[test]
    fn sparse_pivot_equals_dense_at_every_beale_pivot() {
        // The Beale instance of `beale_cycling_instance_terminates`, as
        // its phase-2 tableau: columns x4..x7, three slacks, rhs.
        let mut sparse = tableau(
            vec![
                vec![0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0, 0.0],
                vec![0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0, 0.0],
                vec![0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0],
            ],
            vec![-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0, 0.0],
            vec![4, 5, 6],
        );
        let mut dense = copy(&sparse);
        let mut pivots = 0;
        while let Some((r, c)) = sparse.next_pivot().unwrap() {
            assert_eq!(dense.next_pivot().unwrap(), Some((r, c)), "Bland's choice");
            sparse.pivot(r, c);
            dense_pivot(&mut dense, r, c);
            pivots += 1;
            assert_equal(&sparse, &dense, &format!("pivot {pivots}"));
        }
        assert_eq!(dense.next_pivot().unwrap(), None);
        assert!(pivots > 0);
        assert!((sparse.cost[sparse.ncols] - 0.05).abs() < 1e-7);
    }

    /// Classic Beale cycling example — Bland's rule must terminate.
    #[test]
    fn beale_cycling_instance_terminates() {
        // min -0.75x4 + 150x5 - 0.02x6 + 6x7
        // s.t. 0.25x4 - 60x5 - 0.04x6 + 9x7 ≤ 0
        //      0.5x4 - 90x5 - 0.02x6 + 3x7 ≤ 0
        //      x6 ≤ 1
        let mut p = LpProblem::new();
        let x4 = p.add_var("x4", 0.0, None, -0.75);
        let x5 = p.add_var("x5", 0.0, None, 150.0);
        let x6 = p.add_var("x6", 0.0, None, -0.02);
        let x7 = p.add_var("x7", 0.0, None, 6.0);
        p.add_constraint(
            &[(x4, 0.25), (x5, -60.0), (x6, -0.04), (x7, 9.0)],
            Cmp::Le,
            0.0,
        );
        p.add_constraint(
            &[(x4, 0.5), (x5, -90.0), (x6, -0.02), (x7, 3.0)],
            Cmp::Le,
            0.0,
        );
        p.add_constraint(&[(x6, 1.0)], Cmp::Le, 1.0);
        let s = p.solve().unwrap();
        assert!((s.objective + 0.05).abs() < 1e-7, "obj = {}", s.objective);
    }

    #[test]
    fn redundant_equalities_are_dropped() {
        // x + y = 2 stated twice; min x.
        let mut p = LpProblem::new();
        let x = p.add_var("x", 0.0, None, 1.0);
        let y = p.add_var("y", 0.0, None, 0.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 2.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 2.0);
        let s = p.solve().unwrap();
        assert!(s.objective.abs() < 1e-7);
        assert!((s.value(y) - 2.0).abs() < 1e-7);
    }

    #[test]
    fn conflicting_equalities_infeasible() {
        let mut p = LpProblem::new();
        let x = p.add_var("x", 0.0, None, 1.0);
        p.add_constraint(&[(x, 1.0)], Cmp::Eq, 1.0);
        p.add_constraint(&[(x, 1.0)], Cmp::Eq, 2.0);
        assert!(matches!(p.solve(), Err(LpError::Infeasible)));
    }

    #[test]
    fn empty_problem_solves_trivially() {
        let p = LpProblem::new();
        let s = p.solve().unwrap();
        assert_eq!(s.objective, 0.0);
        assert!(s.values.is_empty());
    }

    #[test]
    fn larger_random_like_instance_agrees_with_known_optimum() {
        // A small transportation-style LP with known optimum.
        // min Σ c_ij x_ij, supplies 20/30, demands 10/25/15.
        let mut p = LpProblem::new();
        let c = [[8.0, 6.0, 10.0], [9.0, 12.0, 13.0]];
        let mut x = Vec::new();
        for (i, row) in c.iter().enumerate() {
            for (j, &cost) in row.iter().enumerate() {
                x.push(p.add_var(&format!("x{i}{j}"), 0.0, None, cost));
            }
        }
        let supplies = [20.0, 30.0];
        let demands = [10.0, 25.0, 15.0];
        for i in 0..2 {
            let terms: Vec<_> = (0..3).map(|j| (x[3 * i + j], 1.0)).collect();
            p.add_constraint(&terms, Cmp::Le, supplies[i]);
        }
        for j in 0..3 {
            let terms: Vec<_> = (0..2).map(|i| (x[3 * i + j], 1.0)).collect();
            p.add_constraint(&terms, Cmp::Ge, demands[j]);
        }
        let s = p.solve().unwrap();
        // Optimal plan: x01=20 (6), x10=10 (9), x11=5 (12), x12=15 (13):
        // 120 + 90 + 60 + 195 = 465.
        assert!((s.objective - 465.0).abs() < 1e-6, "obj = {}", s.objective);
    }
}

#[cfg(test)]
mod prop_tests {
    use crate::model::{Cmp, LpProblem};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// On random box-constrained covering LPs, the simplex optimum is
    /// feasible and no coarse grid point beats it.
    #[test]
    fn simplex_beats_grid_on_covering_lps() {
        let mut rng = StdRng::seed_from_u64(0x51D5);
        for _case in 0..48 {
            let n = rng.gen_range(2usize..5);
            let n_rows = rng.gen_range(3usize..6);
            let seeds: Vec<u64> = (0..n_rows).map(|_| rng.gen_range(0u64..1000)).collect();
            let mut p = LpProblem::new();
            let xs: Vec<_> = (0..n)
                .map(|i| p.add_unit_var(&format!("x{i}"), ((i % 3) + 1) as f64))
                .collect();
            // Random ≥ rows with coefficients in {0,1,2}.
            let mut rows = Vec::new();
            for &s in &seeds {
                let coefs: Vec<f64> = (0..n).map(|i| ((s >> (2 * i)) % 3) as f64).collect();
                if coefs.iter().all(|&c| c == 0.0) {
                    continue;
                }
                let terms: Vec<_> = xs.iter().zip(coefs.iter()).map(|(&v, &c)| (v, c)).collect();
                p.add_constraint(&terms, Cmp::Ge, 1.0);
                rows.push(coefs);
            }
            let sol = p.solve().unwrap();
            // Feasibility of the optimum.
            for coefs in &rows {
                let lhs: f64 = coefs
                    .iter()
                    .zip(sol.values.iter())
                    .map(|(c, x)| c * x)
                    .sum();
                assert!(lhs >= 1.0 - 1e-6);
            }
            // Grid search over {0, 1/2, 1}^n.
            let mut best = f64::INFINITY;
            for code in 0..3usize.pow(n as u32) {
                let mut c = code;
                let pt: Vec<f64> = (0..n)
                    .map(|_| {
                        let v = (c % 3) as f64 / 2.0;
                        c /= 3;
                        v
                    })
                    .collect();
                let feas = rows.iter().all(|coefs| {
                    coefs.iter().zip(pt.iter()).map(|(a, x)| a * x).sum::<f64>() >= 1.0 - 1e-9
                });
                if feas {
                    let obj: f64 = pt
                        .iter()
                        .enumerate()
                        .map(|(i, x)| ((i % 3) + 1) as f64 * x)
                        .sum();
                    best = best.min(obj);
                }
            }
            assert!(
                sol.objective <= best + 1e-6,
                "simplex {} worse than grid {}",
                sol.objective,
                best
            );
        }
    }
}
