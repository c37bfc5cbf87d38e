//! Dense two-phase primal simplex with Bland's anti-cycling rule.
//!
//! Solves `min cᵀx  s.t.  Ax {≤,=,≥} b, x ≥ 0` on a dense tableau.
//! This is deliberately the textbook method: the covering LPs in this
//! workspace are small (hundreds of rows/columns) and dense-tableau
//! simplex is simple to verify, deterministic, and — with Bland's rule —
//! guaranteed to terminate. Numerical tolerances are fixed at `1e-9`.
//! Debug builds assert that the returned point satisfies every
//! constraint (within `1e-6`); release builds return it unchecked.
//!
//! The tableau stays dense and row-major, but a pivot eliminates over
//! the pivot row's nonzeros only. The rows stay sparse while they are
//! pivoted: `lp-resolve`'s plan LPs average about 40 rows and 72
//! columns per re-solve, yet a pivot row holds about 7 nonzeros
//! (right-hand side included) and about 3.4 other rows have a nonzero
//! in the entering column. So a pivot scales the whole pivot row,
//! collecting its nonzero columns as it goes, and then subtracts over
//! those columns alone in every row it updates. The columns it skips
//! are exactly those whose pivot-row entry is `0.0`, which the dense
//! elimination skipped too, so every update runs the same arithmetic on
//! the same operands: tableaux, pivot paths, points, objectives and
//! errors are bit-identical to the dense elimination (the
//! `sparse_pivot_matches_dense_elimination` test keeps that dense
//! elimination as its reference).

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
    Tableau::build(lp).and_then(|mut t| t.optimize(lp, &mut Tableau::pivot))
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
    /// The nonzero columns of the current pivot row, ascending (one
    /// buffer reused by every pivot of a solve).
    nonzeros: Vec<usize>,
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
            nonzeros: Vec::with_capacity(total_cols + 1),
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

    /// Run phase 1 (if artificials exist) then phase 2, applying every
    /// pivot through `pivot` ([`Tableau::pivot`] when solving).
    fn optimize(
        &mut self,
        lp: &Lp,
        pivot: &mut impl FnMut(&mut Tableau, usize, usize),
    ) -> Result<LpSolution, LpError> {
        if self.num_artificial > 0 {
            // Phase 1 objective: minimize sum of artificials.
            self.z.iter_mut().for_each(|v| *v = 0.0);
            for c in self.real_cols..self.total_cols {
                self.z[c] = 1.0;
            }
            self.price_out();
            self.run_simplex(pivot)?;
            let phase1 = -self.z[self.total_cols];
            if phase1 > 1e-7 {
                return Err(LpError::Infeasible);
            }
            self.evict_basic_artificials(pivot);
        }
        self.in_phase2 = true;
        // Phase 2 objective.
        self.z.iter_mut().for_each(|v| *v = 0.0);
        for (j, &c) in lp.objective.iter().enumerate() {
            self.z[j] = c;
        }
        // Forbid artificials from re-entering: leave their reduced costs
        // untouched but skip them as entering candidates (next_pivot
        // only considers columns < real_cols in phase 2 mode).
        self.price_out();
        self.run_simplex(pivot)?;

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
    fn evict_basic_artificials(&mut self, pivot: &mut impl FnMut(&mut Tableau, usize, usize)) {
        for r in 0..self.rows {
            if self.basis[r] >= self.real_cols {
                // Find any real column with a nonzero pivot entry.
                let pivot_col = (0..self.real_cols).find(|&c| self.a[self.idx(r, c)].abs() > 1e-7);
                if let Some(c) = pivot_col {
                    pivot(self, r, c);
                }
                // else: redundant row; artificial stays basic at 0.
            }
        }
    }

    /// Bland's rule simplex on the current objective row.
    fn run_simplex(
        &mut self,
        pivot: &mut impl FnMut(&mut Tableau, usize, usize),
    ) -> Result<(), LpError> {
        // Generous pivot cap: Bland's rule terminates, this is a
        // defensive backstop only.
        let max_pivots = 50_000 + 200 * (self.rows + self.total_cols);
        while let Some((row, col)) = self.next_pivot()? {
            pivot(self, row, col);
            if self.pivots > max_pivots {
                return Err(LpError::IterationLimit);
            }
        }
        Ok(())
    }

    /// Bland's rule on the current objective row: the `(row, column)`
    /// to pivot on next, `None` at optimality, or `Unbounded` when the
    /// entering column has no positive entry.
    fn next_pivot(&self) -> Result<Option<(usize, usize)>, LpError> {
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
        let Some(e) = (0..limit).find(|&c| self.z[c] < -TOL) else {
            return Ok(None);
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
        match leave {
            Some((lr, _)) => Ok(Some((lr, e))),
            None => Err(LpError::Unbounded),
        }
    }

    /// Pivot on `(row, col)`: scale the pivot row, collecting its
    /// nonzero columns, then eliminate `col` from every other row and
    /// from the objective row over those columns only.
    fn pivot(&mut self, row: usize, col: usize) {
        self.pivots += 1;
        let width = self.total_cols + 1;
        let (above, rest) = self.a.split_at_mut(row * width);
        let (pivot_row, below) = rest.split_at_mut(width);
        debug_assert!(pivot_row[col].abs() > TOL, "pivot on ~0 element");
        let inv = 1.0 / pivot_row[col];
        self.nonzeros.clear();
        for (c, v) in pivot_row.iter_mut().enumerate() {
            *v *= inv;
            if *v != 0.0 {
                self.nonzeros.push(c);
            }
        }
        // Exactly 1.0 on the pivot to avoid drift.
        pivot_row[col] = 1.0;
        let nonzeros = &self.nonzeros;
        let eliminate = |target: &mut [f64]| {
            let factor = target[col];
            if factor != 0.0 {
                for &c in nonzeros {
                    target[c] -= factor * pivot_row[c];
                }
                target[col] = 0.0;
            }
        };
        for target in above
            .chunks_exact_mut(width)
            .chain(below.chunks_exact_mut(width))
        {
            eliminate(target);
        }
        eliminate(&mut self.z);
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// The dense elimination [`Tableau::pivot`] replaced: it visits and
    /// tests every entry of every row it updates.
    fn dense_pivot(t: &mut Tableau, row: usize, col: usize) {
        t.pivots += 1;
        let tc = t.total_cols;
        let p = t.a[t.idx(row, col)];
        debug_assert!(p.abs() > TOL, "pivot on ~0 element");
        let inv = 1.0 / p;
        for c in 0..=tc {
            let i = t.idx(row, c);
            t.a[i] *= inv;
        }
        let ij = t.idx(row, col);
        t.a[ij] = 1.0;
        for r in 0..t.rows {
            if r == row {
                continue;
            }
            let factor = t.a[t.idx(r, col)];
            if factor != 0.0 {
                for c in 0..=tc {
                    let src = t.a[t.idx(row, c)];
                    if src != 0.0 {
                        let i = t.idx(r, c);
                        t.a[i] -= factor * src;
                    }
                }
                let i = t.idx(r, col);
                t.a[i] = 0.0;
            }
        }
        let factor = t.z[col];
        if factor != 0.0 {
            for c in 0..=tc {
                let src = t.a[t.idx(row, c)];
                if src != 0.0 {
                    t.z[c] -= factor * src;
                }
            }
            t.z[col] = 0.0;
        }
        t.basis[row] = col;
    }

    /// One pivot as the oracle sees it: the choice, then the bits of
    /// the tableau and objective row and the basis after it.
    #[derive(PartialEq)]
    struct Step {
        row: usize,
        col: usize,
        a: Vec<u64>,
        z: Vec<u64>,
        basis: Vec<usize>,
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// True when a Bland pivot on `(row, col)` had a rival row at the
    /// same ratio (within `TOL`): a degenerate tie.
    fn ratio_tie(t: &Tableau, row: usize, col: usize) -> bool {
        let ratio = |r: usize| t.a[t.idx(r, t.total_cols)] / t.a[t.idx(r, col)];
        (0..t.rows)
            .any(|r| r != row && t.a[t.idx(r, col)] > TOL && (ratio(r) - ratio(row)).abs() <= TOL)
    }

    /// Solve `lp` with every pivot applied by `pivot`, recording each
    /// step; counts the degenerate ratio ties met on the way.
    fn traced_solve(
        lp: &Lp,
        pivot: fn(&mut Tableau, usize, usize),
        ties: &mut usize,
    ) -> (Result<LpSolution, LpError>, Vec<Step>) {
        let mut steps = Vec::new();
        let result = Tableau::build(lp).and_then(|mut t| {
            t.optimize(lp, &mut |t: &mut Tableau, row, col| {
                // Bland's entering columns price below −TOL; the
                // artificial evictions after phase 1 never do.
                if t.z[col] < -TOL && ratio_tie(t, row, col) {
                    *ties += 1;
                }
                pivot(t, row, col);
                steps.push(Step {
                    row,
                    col,
                    a: bits(&t.a),
                    z: bits(&t.z),
                    basis: t.basis.clone(),
                });
            })
        });
        (result, steps)
    }

    /// `lp-resolve`'s plan LP: maximize class values under `x ≤ 1` class
    /// rows and `≤` edge rows with small integer hit counts.
    fn random_plan_lp(rng: &mut StdRng) -> Lp {
        let k = rng.gen_range(1usize..=12);
        let mut lp = Lp::new(
            (0..k)
                .map(|_| -f64::from(rng.gen_range(1u32..=40)))
                .collect(),
        );
        for j in 0..k {
            lp.push(vec![(j, 1.0)], Cmp::Le, 1.0);
        }
        let buffer = if rng.gen_bool(0.5) {
            0.0
        } else {
            rng.gen_range(0.0..0.2)
        };
        for _ in 0..rng.gen_range(0..=30) {
            let mut coeffs = Vec::new();
            for j in 0..k {
                if rng.gen_bool(0.3) {
                    coeffs.push((j, f64::from(rng.gen_range(1u32..=6))));
                }
            }
            let budget = (1.0 - buffer) * f64::from(rng.gen_range(0u32..=10));
            lp.push(coeffs, Cmp::Le, budget);
        }
        lp
    }

    /// `CoveringProblem::lp_relaxation`: `≥` cover rows of unit
    /// coefficients, then an `x ≤ 1` row per item.
    fn random_cover_lp(rng: &mut StdRng) -> Lp {
        let n = rng.gen_range(1usize..=24);
        let costs = if rng.gen_bool(0.3) {
            vec![f64::from(rng.gen_range(1u32..=4)); n]
        } else {
            (0..n).map(|_| f64::from(rng.gen_range(1u32..=8))).collect()
        };
        let mut lp = Lp::new(costs);
        for _ in 0..rng.gen_range(1..=12) {
            let coeffs = (0..n)
                .filter(|_| rng.gen_bool(0.35))
                .map(|i| (i, 1.0))
                .collect();
            lp.push(coeffs, Cmp::Ge, f64::from(rng.gen_range(1u32..=3)));
        }
        for i in 0..n {
            lp.push(vec![(i, 1.0)], Cmp::Le, 1.0);
        }
        lp
    }

    /// Rows and objectives neither shape has: `Eq` rows, negative
    /// right-hand sides, a variable listed twice in a row, all-zero
    /// rows, and a variable with a negative cost and no upper bound.
    fn perturb(lp: &mut Lp, rng: &mut StdRng) {
        let n = lp.num_vars;
        if rng.gen_bool(0.15) {
            let coeffs = (0..rng.gen_range(1..=3))
                .map(|_| (rng.gen_range(0..n), f64::from(rng.gen_range(1u32..=3))))
                .collect();
            lp.push(coeffs, Cmp::Eq, f64::from(rng.gen_range(0u32..=2)));
        }
        if rng.gen_bool(0.15) {
            let coeffs = (0..rng.gen_range(1..=3))
                .map(|_| (rng.gen_range(0..n), -1.0))
                .collect();
            let cmp = if rng.gen_bool(0.5) { Cmp::Le } else { Cmp::Ge };
            lp.push(coeffs, cmp, -f64::from(rng.gen_range(1u32..=2)));
        }
        if rng.gen_bool(0.15) {
            let j = rng.gen_range(0..n);
            lp.push(
                vec![(j, 0.5), (rng.gen_range(0..n), 1.0), (j, 0.5)],
                Cmp::Le,
                2.0,
            );
        }
        if rng.gen_bool(0.1) {
            let j = rng.gen_range(0..n);
            let coeffs = if rng.gen_bool(0.5) {
                Vec::new()
            } else {
                vec![(j, 1.0), (j, -1.0)]
            };
            let cmp = [Cmp::Le, Cmp::Eq, Cmp::Ge][rng.gen_range(0..3usize)];
            lp.push(coeffs, cmp, if rng.gen_bool(0.8) { 0.0 } else { 1.0 });
        }
        if rng.gen_bool(0.1) {
            let j = rng.gen_range(0..n);
            lp.objective[j] = -1.0;
            lp.constraints
                .retain(|c| c.cmp != Cmp::Le || c.coeffs.iter().all(|&(i, a)| i != j || a <= 0.0));
        }
    }

    /// Oracle for the sparse elimination: on random LPs of both shapes
    /// the workspace solves, plus the rows and objectives neither has,
    /// the sparse pivot and the dense elimination it replaced take the
    /// same pivots and leave bit-identical tableaux, objective rows and
    /// bases after every one, and end in the same point, objective,
    /// pivot count or error. The test fails unless every regime below
    /// occurred.
    #[test]
    fn sparse_pivot_matches_dense_elimination() {
        let mut rng = StdRng::seed_from_u64(0x5ba7);
        let mut ties = 0;
        let (mut plan_phase2, mut cover_phase12) = (0, 0);
        let (mut eq_rows, mut negative_rhs, mut repeated, mut zero_rows) = (0, 0, 0, 0);
        let (mut infeasible, mut unbounded) = (0, 0);
        for case in 0..3000 {
            let plan = rng.gen_bool(0.5);
            let mut lp = if plan {
                random_plan_lp(&mut rng)
            } else {
                random_cover_lp(&mut rng)
            };
            perturb(&mut lp, &mut rng);
            for c in &lp.constraints {
                eq_rows += usize::from(c.cmp == Cmp::Eq);
                negative_rhs += usize::from(c.rhs < 0.0);
                let mut net = vec![0.0; lp.num_vars];
                for &(j, a) in &c.coeffs {
                    repeated += usize::from(net[j] != 0.0);
                    net[j] += a;
                }
                zero_rows += usize::from(net.iter().all(|&a| a == 0.0));
            }
            let artificials = Tableau::build(&lp).map_or(0, |t| t.num_artificial);
            let (sparse, sparse_steps) = traced_solve(&lp, Tableau::pivot, &mut ties);
            let (dense, dense_steps) = traced_solve(&lp, dense_pivot, &mut 0);
            assert_eq!(
                sparse_steps.len(),
                dense_steps.len(),
                "case {case}: pivot count differs"
            );
            for (k, (s, d)) in sparse_steps.iter().zip(&dense_steps).enumerate() {
                assert!(
                    (s.row, s.col) == (d.row, d.col),
                    "case {case}: pivot {k} chose ({}, {}) against ({}, {})",
                    s.row,
                    s.col,
                    d.row,
                    d.col
                );
                assert!(s == d, "case {case}: tableau differs after pivot {k}");
            }
            match (sparse, dense) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(bits(&a.x), bits(&b.x), "case {case}: x differs");
                    assert_eq!(
                        a.objective.to_bits(),
                        b.objective.to_bits(),
                        "case {case}: objective differs"
                    );
                    assert_eq!(a.pivots, b.pivots, "case {case}: pivot count differs");
                    plan_phase2 += usize::from(plan && artificials == 0);
                    cover_phase12 += usize::from(!plan && artificials > 0);
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "case {case}: errors differ");
                    infeasible += usize::from(a == LpError::Infeasible);
                    unbounded += usize::from(a == LpError::Unbounded);
                }
                (a, b) => panic!(
                    "case {case}: sparse {:?} against dense {:?}",
                    a.map(|s| s.objective),
                    b.map(|s| s.objective)
                ),
            }
        }
        for (regime, hits) in [
            ("plan LPs solved in phase 2 alone", plan_phase2),
            ("cover LPs solved through both phases", cover_phase12),
            ("Eq rows", eq_rows),
            ("negative right-hand sides", negative_rhs),
            ("repeated coefficients", repeated),
            ("all-zero rows", zero_rows),
            ("degenerate ratio ties", ties),
            ("infeasible LPs", infeasible),
            ("unbounded LPs", unbounded),
        ] {
            assert!(hits > 0, "no case drew {regime}");
        }
    }
}
