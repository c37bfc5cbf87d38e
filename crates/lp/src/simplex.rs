//! Dense two-phase primal simplex with Bland's anti-cycling rule.
//!
//! Solves `min cᵀx  s.t.  Ax {≤,=,≥} b, x ≥ 0` on a dense tableau.
//! This is deliberately the textbook method: the covering LPs in this
//! workspace are small (hundreds of rows/columns) and dense-tableau
//! simplex is simple to verify, deterministic, and — with Bland's rule —
//! guaranteed to terminate. Numerical tolerances are fixed at `1e-9`.
//! Debug builds assert that the returned point satisfies every
//! constraint (within `1e-6`); release builds return it unchecked.

/// Comparison direction of a [`Constraint`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// `Σ coeffs·x ≤ rhs`
    Le,
    /// `Σ coeffs·x = rhs`
    Eq,
    /// `Σ coeffs·x ≥ rhs`
    Ge,
}

/// One linear constraint in sparse form.
#[derive(Clone, Debug)]
pub struct Constraint {
    /// `(variable index, coefficient)` pairs. Indices may repeat; they
    /// are summed.
    pub coeffs: Vec<(usize, f64)>,
    /// Direction.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: f64,
}

/// A minimization LP over non-negative variables.
#[derive(Clone, Debug, Default)]
pub struct Lp {
    /// Number of structural variables.
    pub num_vars: usize,
    /// Objective coefficients (`len == num_vars`). Minimized.
    pub objective: Vec<f64>,
    /// The constraints.
    pub constraints: Vec<Constraint>,
}

impl Lp {
    /// New LP with `num_vars` variables and the given objective.
    pub fn new(objective: Vec<f64>) -> Self {
        Lp {
            num_vars: objective.len(),
            objective,
            constraints: Vec::new(),
        }
    }

    /// Add a constraint.
    pub fn push(&mut self, coeffs: Vec<(usize, f64)>, cmp: Cmp, rhs: f64) {
        self.constraints.push(Constraint { coeffs, cmp, rhs });
    }

    /// Evaluate `cᵀx`.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Check `x` against every constraint within `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.num_vars || x.iter().any(|&v| v < -tol) {
            return false;
        }
        self.constraints.iter().all(|c| {
            let lhs: f64 = c.coeffs.iter().map(|&(i, a)| a * x[i]).sum();
            match c.cmp {
                Cmp::Le => lhs <= c.rhs + tol,
                Cmp::Ge => lhs >= c.rhs - tol,
                Cmp::Eq => (lhs - c.rhs).abs() <= tol,
            }
        })
    }
}

/// Successful solve result.
#[derive(Clone, Debug)]
pub struct LpSolution {
    /// Optimal objective value.
    pub objective: f64,
    /// Optimal primal point (`len == num_vars`).
    pub x: Vec<f64>,
    /// Simplex pivots used across both phases.
    pub pivots: usize,
}

/// Solve failure modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LpError {
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below on the feasible region.
    Unbounded,
    /// Pivot limit exhausted (should not occur with Bland's rule; kept
    /// as a defensive backstop for numerically degenerate inputs).
    IterationLimit,
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "LP is infeasible"),
            LpError::Unbounded => write!(f, "LP is unbounded"),
            LpError::IterationLimit => write!(f, "simplex pivot limit exceeded"),
        }
    }
}

impl std::error::Error for LpError {}

const TOL: f64 = 1e-9;

/// Solve the LP. See module docs for the method.
pub fn solve(lp: &Lp) -> Result<LpSolution, LpError> {
    Tableau::build(lp).and_then(|mut t| t.optimize(lp))
}

/// Dense simplex tableau.
///
/// Layout: `rows × (total_cols + 1)`; the extra column is the RHS.
/// Column order: structural vars, then slack/surplus, then artificial.
struct Tableau {
    rows: usize,
    /// structural + slack/surplus count (artificials come after).
    real_cols: usize,
    total_cols: usize,
    /// Row-major `rows × (total_cols + 1)`.
    a: Vec<f64>,
    /// Objective row for the current phase, length `total_cols + 1`
    /// (reduced costs; last entry is −objective value).
    z: Vec<f64>,
    /// Basic variable (column index) of each row.
    basis: Vec<usize>,
    num_artificial: usize,
    pivots: usize,
    /// True once phase 1 completed and the phase-2 objective is loaded;
    /// artificial columns are then barred from entering the basis.
    in_phase2: bool,
}

impl Tableau {
    fn idx(&self, r: usize, c: usize) -> usize {
        r * (self.total_cols + 1) + c
    }

    fn build(lp: &Lp) -> Result<Tableau, LpError> {
        let m = lp.constraints.len();
        let n = lp.num_vars;
        // Count slack/surplus and artificial columns.
        let mut num_slack = 0;
        let mut num_art = 0;
        for c in &lp.constraints {
            // Normalize rhs sign first to decide the effective direction.
            let (cmp, _) = normalized(c);
            match cmp {
                Cmp::Le => num_slack += 1,
                Cmp::Ge => {
                    num_slack += 1;
                    num_art += 1;
                }
                Cmp::Eq => num_art += 1,
            }
        }
        let real_cols = n + num_slack;
        let total_cols = real_cols + num_art;
        let mut t = Tableau {
            rows: m,
            real_cols,
            total_cols,
            a: vec![0.0; m * (total_cols + 1)],
            z: vec![0.0; total_cols + 1],
            basis: vec![usize::MAX; m],
            num_artificial: num_art,
            pivots: 0,
            in_phase2: false,
        };
        let mut next_slack = n;
        let mut next_art = real_cols;
        for (r, con) in lp.constraints.iter().enumerate() {
            let (cmp, sign) = normalized(con);
            let rhs_idx = t.idx(r, total_cols);
            t.a[rhs_idx] = con.rhs * sign;
            for &(j, coef) in &con.coeffs {
                assert!(j < n, "constraint references variable {j} >= num_vars {n}");
                let ij = t.idx(r, j);
                t.a[ij] += coef * sign;
            }
            match cmp {
                Cmp::Le => {
                    let ij = t.idx(r, next_slack);
                    t.a[ij] = 1.0;
                    t.basis[r] = next_slack;
                    next_slack += 1;
                }
                Cmp::Ge => {
                    let ij = t.idx(r, next_slack);
                    t.a[ij] = -1.0;
                    next_slack += 1;
                    let ij = t.idx(r, next_art);
                    t.a[ij] = 1.0;
                    t.basis[r] = next_art;
                    next_art += 1;
                }
                Cmp::Eq => {
                    let ij = t.idx(r, next_art);
                    t.a[ij] = 1.0;
                    t.basis[r] = next_art;
                    next_art += 1;
                }
            }
        }
        Ok(t)
    }

    /// Run phase 1 (if artificials exist) then phase 2.
    fn optimize(&mut self, lp: &Lp) -> Result<LpSolution, LpError> {
        if self.num_artificial > 0 {
            // Phase 1 objective: minimize sum of artificials.
            self.z.iter_mut().for_each(|v| *v = 0.0);
            for c in self.real_cols..self.total_cols {
                self.z[c] = 1.0;
            }
            self.price_out();
            self.run_simplex()?;
            let phase1 = -self.z[self.total_cols];
            if phase1 > 1e-7 {
                return Err(LpError::Infeasible);
            }
            self.evict_basic_artificials();
        }
        self.in_phase2 = true;
        // Phase 2 objective.
        self.z.iter_mut().for_each(|v| *v = 0.0);
        for (j, &c) in lp.objective.iter().enumerate() {
            self.z[j] = c;
        }
        // Forbid artificials from re-entering: leave their reduced costs
        // untouched but skip them as entering candidates (run_simplex
        // only considers columns < real_cols in phase 2 mode).
        self.price_out();
        self.run_simplex()?;

        let mut x = vec![0.0; lp.num_vars];
        for (r, &b) in self.basis.iter().enumerate() {
            if b < lp.num_vars {
                x[b] = self.a[self.idx(r, self.total_cols)];
            }
        }
        let objective = lp.objective_value(&x);
        debug_assert!(
            lp.is_feasible(&x, 1e-6),
            "simplex returned infeasible point"
        );
        Ok(LpSolution {
            objective,
            x,
            pivots: self.pivots,
        })
    }

    /// Make the objective row consistent with the current basis
    /// (reduced cost of every basic column must be zero).
    fn price_out(&mut self) {
        for r in 0..self.rows {
            let b = self.basis[r];
            let cb = self.z[b];
            if cb != 0.0 {
                for c in 0..=self.total_cols {
                    let arc = self.a[self.idx(r, c)];
                    if arc != 0.0 {
                        self.z[c] -= cb * arc;
                    }
                }
            }
        }
    }

    /// After phase 1, pivot artificial variables out of the basis (or
    /// detect redundant rows and leave the harmless zero-valued
    /// artificial basic — its row is all-zero on real columns).
    fn evict_basic_artificials(&mut self) {
        for r in 0..self.rows {
            if self.basis[r] >= self.real_cols {
                // Find any real column with a nonzero pivot entry.
                let pivot_col = (0..self.real_cols).find(|&c| self.a[self.idx(r, c)].abs() > 1e-7);
                if let Some(c) = pivot_col {
                    self.pivot(r, c);
                }
                // else: redundant row; artificial stays basic at 0.
            }
        }
    }

    /// Bland's rule simplex on the current objective row.
    fn run_simplex(&mut self) -> Result<(), LpError> {
        // Generous pivot cap: Bland's rule terminates, this is a
        // defensive backstop only.
        let max_pivots = 50_000 + 200 * (self.rows + self.total_cols);
        loop {
            // Entering: smallest-index column with reduced cost < −tol.
            // In phase 2 artificial columns are excluded (they keep a
            // huge reduced cost only implicitly — we simply never pick
            // them; they also can't improve since phase 1 drove them
            // to 0 and price_out left them non-basic).
            let limit = if self.in_phase2 {
                self.real_cols
            } else {
                self.total_cols
            };
            let entering = (0..limit).find(|&c| self.z[c] < -TOL);
            let Some(e) = entering else {
                return Ok(());
            };
            // Leaving: min ratio; ties → smallest basis index (Bland).
            let mut leave: Option<(usize, f64)> = None;
            for r in 0..self.rows {
                let are = self.a[self.idx(r, e)];
                if are > TOL {
                    let ratio = self.a[self.idx(r, self.total_cols)] / are;
                    match leave {
                        None => leave = Some((r, ratio)),
                        Some((lr, lratio)) => {
                            if ratio < lratio - TOL
                                || ((ratio - lratio).abs() <= TOL && self.basis[r] < self.basis[lr])
                            {
                                leave = Some((r, ratio));
                            }
                        }
                    }
                }
            }
            let Some((lr, _)) = leave else {
                return Err(LpError::Unbounded);
            };
            self.pivot(lr, e);
            if self.pivots > max_pivots {
                return Err(LpError::IterationLimit);
            }
        }
    }

    fn pivot(&mut self, row: usize, col: usize) {
        self.pivots += 1;
        let tc = self.total_cols;
        let p = self.a[self.idx(row, col)];
        debug_assert!(p.abs() > TOL, "pivot on ~0 element");
        let inv = 1.0 / p;
        for c in 0..=tc {
            let i = self.idx(row, c);
            self.a[i] *= inv;
        }
        // Exactly 1.0 on the pivot to avoid drift.
        let ij = self.idx(row, col);
        self.a[ij] = 1.0;
        for r in 0..self.rows {
            if r == row {
                continue;
            }
            let factor = self.a[self.idx(r, col)];
            if factor != 0.0 {
                for c in 0..=tc {
                    let src = self.a[self.idx(row, c)];
                    if src != 0.0 {
                        let i = self.idx(r, c);
                        self.a[i] -= factor * src;
                    }
                }
                let i = self.idx(r, col);
                self.a[i] = 0.0;
            }
        }
        let factor = self.z[col];
        if factor != 0.0 {
            for c in 0..=tc {
                let src = self.a[self.idx(row, c)];
                if src != 0.0 {
                    self.z[c] -= factor * src;
                }
            }
            self.z[col] = 0.0;
        }
        self.basis[row] = col;
    }
}

/// Returns the effective comparison and a row sign multiplier making the
/// RHS non-negative.
fn normalized(c: &Constraint) -> (Cmp, f64) {
    if c.rhs >= 0.0 {
        (c.cmp, 1.0)
    } else {
        let flipped = match c.cmp {
            Cmp::Le => Cmp::Ge,
            Cmp::Ge => Cmp::Le,
            Cmp::Eq => Cmp::Eq,
        };
        (flipped, -1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lp1() -> Lp {
        // min x0 + x1  s.t. x0 + x1 >= 1, x0 >= 0.25
        let mut lp = Lp::new(vec![1.0, 1.0]);
        lp.push(vec![(0, 1.0), (1, 1.0)], Cmp::Ge, 1.0);
        lp.push(vec![(0, 1.0)], Cmp::Ge, 0.25);
        lp
    }

    #[test]
    fn simple_covering() {
        let s = solve(&lp1()).unwrap();
        assert!(
            (s.objective - 1.0).abs() < 1e-7,
            "objective = {}",
            s.objective
        );
    }

    #[test]
    fn le_constraints_and_optimum() {
        // min -x0 - 2 x1 s.t. x0 + x1 <= 4, x1 <= 3  → x = (1,3), obj -7
        let mut lp = Lp::new(vec![-1.0, -2.0]);
        lp.push(vec![(0, 1.0), (1, 1.0)], Cmp::Le, 4.0);
        lp.push(vec![(1, 1.0)], Cmp::Le, 3.0);
        let s = solve(&lp).unwrap();
        assert!((s.objective + 7.0).abs() < 1e-7);
        assert!((s.x[0] - 1.0).abs() < 1e-7);
        assert!((s.x[1] - 3.0).abs() < 1e-7);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = Lp::new(vec![1.0]);
        lp.push(vec![(0, 1.0)], Cmp::Ge, 2.0);
        lp.push(vec![(0, 1.0)], Cmp::Le, 1.0);
        assert_eq!(solve(&lp).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = Lp::new(vec![-1.0]);
        lp.push(vec![(0, 1.0)], Cmp::Ge, 1.0);
        assert_eq!(solve(&lp).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn equality_constraints() {
        // min x0 + 3 x1 s.t. x0 + x1 = 2, x0 <= 1.5 → x = (1.5, 0.5), obj 3
        let mut lp = Lp::new(vec![1.0, 3.0]);
        lp.push(vec![(0, 1.0), (1, 1.0)], Cmp::Eq, 2.0);
        lp.push(vec![(0, 1.0)], Cmp::Le, 1.5);
        let s = solve(&lp).unwrap();
        assert!((s.objective - 3.0).abs() < 1e-7);
    }

    #[test]
    fn negative_rhs_normalization() {
        // x0 - x1 <= -1  ≡  x1 - x0 >= 1; min x1 → x1 = 1 + x0, best x0 = 0.
        let mut lp = Lp::new(vec![0.0, 1.0]);
        lp.push(vec![(0, 1.0), (1, -1.0)], Cmp::Le, -1.0);
        let s = solve(&lp).unwrap();
        assert!((s.objective - 1.0).abs() < 1e-7);
    }

    #[test]
    fn degenerate_does_not_cycle() {
        // Classic degeneracy: multiple constraints active at the optimum.
        let mut lp = Lp::new(vec![1.0, 1.0, 1.0]);
        lp.push(vec![(0, 1.0), (1, 1.0)], Cmp::Ge, 1.0);
        lp.push(vec![(1, 1.0), (2, 1.0)], Cmp::Ge, 1.0);
        lp.push(vec![(0, 1.0), (2, 1.0)], Cmp::Ge, 1.0);
        let s = solve(&lp).unwrap();
        assert!((s.objective - 1.5).abs() < 1e-7);
    }

    #[test]
    fn box_bounds_as_constraints() {
        // Fractional covering with x ≤ 1: min x0+x1+x2, one row demand 2.
        let mut lp = Lp::new(vec![1.0, 1.0, 1.0]);
        lp.push(vec![(0, 1.0), (1, 1.0), (2, 1.0)], Cmp::Ge, 2.0);
        for j in 0..3 {
            lp.push(vec![(j, 1.0)], Cmp::Le, 1.0);
        }
        let s = solve(&lp).unwrap();
        assert!((s.objective - 2.0).abs() < 1e-7);
        assert!(s.x.iter().all(|&v| v <= 1.0 + 1e-7));
    }

    #[test]
    fn duplicate_coefficients_summed() {
        // (0,0.5)+(0,0.5) == x0 coefficient 1.
        let mut lp = Lp::new(vec![1.0]);
        lp.push(vec![(0, 0.5), (0, 0.5)], Cmp::Ge, 3.0);
        let s = solve(&lp).unwrap();
        assert!((s.objective - 3.0).abs() < 1e-7);
    }

    #[test]
    fn feasibility_checker() {
        let lp = lp1();
        assert!(lp.is_feasible(&[0.5, 0.5], 1e-9));
        assert!(!lp.is_feasible(&[0.1, 0.5], 1e-9));
        assert!(!lp.is_feasible(&[-0.1, 1.5], 1e-9));
    }
}
