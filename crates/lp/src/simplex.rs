//! Dense two-phase primal simplex on a standard-form tableau.
//!
//! Solves `min cᵀx  s.t.  Ax = b, x ≥ 0, b ≥ 0` with Bland's anti-cycling
//! rule. Problem sizes in FEVES are tiny (tens of variables/constraints for
//! up to a dozen devices), so a dense tableau is both the simplest and the
//! fastest-in-practice choice — the paper reports < 2 ms scheduling overhead
//! per frame and this solver is orders of magnitude below that.

/// Numerical tolerance for optimality/feasibility decisions.
pub const EPS: f64 = 1e-9;

/// Minimum magnitude of an acceptable pivot element: pivoting on smaller
/// values amplifies elimination noise into structural corruption.
pub const PIVOT_EPS: f64 = 1e-7;

/// Outcome of a simplex run.
#[derive(Clone, Debug, PartialEq)]
pub enum SimplexOutcome {
    /// Optimal basic solution found.
    Optimal,
    /// Objective unbounded below.
    Unbounded,
    /// Iteration cap reached (possible cycling under Dantzig's rule).
    IterationLimit,
}

/// Entering-variable selection rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PivotRule {
    /// Smallest index with negative reduced cost — never cycles (Bland).
    Bland,
    /// Most negative reduced cost — fast in practice, capped iterations.
    Dantzig,
}

/// Dense simplex tableau: `m` equality rows over `n` variables.
pub struct Tableau {
    /// Row-major coefficients, `m × n`.
    a: Vec<f64>,
    /// Right-hand sides, length `m` (kept ≥ 0 by pivoting).
    b: Vec<f64>,
    /// Objective row (reduced costs), length `n`.
    c: Vec<f64>,
    /// Objective offset (negated running objective value).
    obj: f64,
    /// Basis: `basis[row]` = variable index basic in that row.
    basis: Vec<usize>,
    m: usize,
    n: usize,
    /// Pivot iterations performed across all `solve_with` calls on this
    /// tableau (observability: feeds the `lp.iterations` metric).
    iters: usize,
}

impl Tableau {
    /// Build a tableau from equality rows `a x = b` (with `b ≥ 0`), an
    /// objective `c`, and an initial basis (one basic variable per row whose
    /// column must be a unit vector in `a`).
    pub fn new(a: Vec<f64>, b: Vec<f64>, c: Vec<f64>, basis: Vec<usize>) -> Self {
        let m = b.len();
        let n = c.len();
        assert_eq!(a.len(), m * n, "A must be m×n");
        assert_eq!(basis.len(), m, "one basic variable per row");
        debug_assert!(b.iter().all(|&v| v >= -EPS), "b must be non-negative");
        let mut t = Tableau {
            a,
            b,
            c,
            obj: 0.0,
            basis,
            m,
            n,
            iters: 0,
        };
        t.price_out_basis();
        t
    }

    /// Make reduced costs of basic variables exactly zero.
    fn price_out_basis(&mut self) {
        for row in 0..self.m {
            let var = self.basis[row];
            let coeff = self.c[var];
            if coeff.abs() > 0.0 {
                for col in 0..self.n {
                    self.c[col] -= coeff * self.a[row * self.n + col];
                }
                self.obj -= coeff * self.b[row];
            }
        }
    }

    /// Current objective value.
    pub fn objective(&self) -> f64 {
        -self.obj
    }

    /// Extract the current basic solution (length `n`).
    pub fn solution(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        for row in 0..self.m {
            x[self.basis[row]] = self.b[row];
        }
        x
    }

    /// Total simplex iterations run on this tableau so far.
    pub fn iterations(&self) -> usize {
        self.iters
    }

    /// Run the primal simplex with a selectable entering rule until optimal
    /// or unbounded. `allowed` limits the entering columns (the phase 1→2
    /// transition locks out the artificials); pass `n` to allow all.
    /// Dantzig runs under an iteration cap (it can cycle on degenerate
    /// problems).
    pub fn solve_with(&mut self, allowed: usize, rule: PivotRule) -> SimplexOutcome {
        let max_iters = 50 * (self.m + self.n) + 200;
        let mut iters = 0usize;
        loop {
            iters += 1;
            self.iters += 1;
            if iters > max_iters {
                return SimplexOutcome::IterationLimit;
            }
            let bound = allowed.min(self.n);
            let entering = match rule {
                PivotRule::Bland => (0..bound).find(|&j| self.c[j] < -EPS),
                PivotRule::Dantzig => {
                    let mut best: Option<(usize, f64)> = None;
                    for j in 0..bound {
                        if self.c[j] < -EPS && best.is_none_or(|(_, bc)| self.c[j] < bc) {
                            best = Some((j, self.c[j]));
                        }
                    }
                    best.map(|(j, _)| j)
                }
            };
            let Some(col) = entering else {
                return SimplexOutcome::Optimal;
            };
            // Ratio test; Bland: smallest basic-variable index among ties.
            let mut leave: Option<(usize, f64)> = None;
            for row in 0..self.m {
                let a = self.a[row * self.n + col];
                if a > PIVOT_EPS {
                    let ratio = self.b[row] / a;
                    match leave {
                        None => leave = Some((row, ratio)),
                        Some((lrow, lratio)) => {
                            if ratio < lratio - EPS
                                || (ratio < lratio + EPS && self.basis[row] < self.basis[lrow])
                            {
                                leave = Some((row, ratio));
                            }
                        }
                    }
                }
            }
            let Some((pivot_row, _)) = leave else {
                return SimplexOutcome::Unbounded;
            };
            self.pivot(pivot_row, col);
        }
    }

    /// Gauss-Jordan pivot on (`row`, `col`).
    pub fn pivot(&mut self, row: usize, col: usize) {
        let n = self.n;
        let p = self.a[row * n + col];
        debug_assert!(p.abs() > EPS, "pivot on ~zero element");
        let inv = 1.0 / p;
        for j in 0..n {
            self.a[row * n + j] *= inv;
        }
        self.b[row] *= inv;
        self.a[row * n + col] = 1.0; // exact

        for r in 0..self.m {
            if r == row {
                continue;
            }
            let f = self.a[r * n + col];
            if f.abs() > 0.0 {
                for j in 0..n {
                    self.a[r * n + j] -= f * self.a[row * n + j];
                }
                self.a[r * n + col] = 0.0; // exact
                self.b[r] -= f * self.b[row];
                if self.b[r].abs() < EPS {
                    self.b[r] = 0.0;
                }
            }
        }
        let f = self.c[col];
        if f.abs() > 0.0 {
            for j in 0..n {
                self.c[j] -= f * self.a[row * n + j];
            }
            self.c[col] = 0.0;
            self.obj -= f * self.b[row];
        }
        self.basis[row] = col;
    }

    /// Replace the objective row (used for the phase-1 → phase-2 switch);
    /// re-prices the current basis.
    pub fn set_objective(&mut self, c: Vec<f64>) {
        assert_eq!(c.len(), self.n);
        self.c = c;
        self.obj = 0.0;
        self.price_out_basis();
    }

    /// Try to pivot any artificial variable (index ≥ `first_artificial`) out
    /// of the basis; rows where that is impossible are redundant and are
    /// neutralized (zeroed).
    pub fn drive_out_artificials(&mut self, first_artificial: usize) {
        for row in 0..self.m {
            if self.basis[row] >= first_artificial {
                // Find a structural column with a safely-sized coefficient.
                let col =
                    (0..first_artificial).find(|&j| self.a[row * self.n + j].abs() > PIVOT_EPS);
                if let Some(col) = col {
                    self.pivot(row, col);
                } else {
                    // Redundant row: all structural coefficients zero. Its
                    // rhs must also be ~0 (phase 1 succeeded). Leave the
                    // artificial basic at value 0 — harmless.
                    debug_assert!(self.b[row].abs() < 1e-6);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_textbook_maximization() {
        // max 3x + 5y  s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18  →  (2, 6), obj 36.
        // As min −3x −5y with slacks s1..s3 (columns 2..5).
        #[rustfmt::skip]
        let a = vec![
            1.0, 0.0, 1.0, 0.0, 0.0,
            0.0, 2.0, 0.0, 1.0, 0.0,
            3.0, 2.0, 0.0, 0.0, 1.0,
        ];
        let b = vec![4.0, 12.0, 18.0];
        let c = vec![-3.0, -5.0, 0.0, 0.0, 0.0];
        let mut t = Tableau::new(a, b, c, vec![2, 3, 4]);
        assert_eq!(t.solve_with(5, PivotRule::Bland), SimplexOutcome::Optimal);
        let x = t.solution();
        assert!((x[0] - 2.0).abs() < 1e-9, "x = {x:?}");
        assert!((x[1] - 6.0).abs() < 1e-9);
        assert!((t.objective() + 36.0).abs() < 1e-9);
    }

    #[test]
    fn detects_unbounded() {
        // min −x  s.t. x − y ≤ 1 (x grows with y unboundedly).
        let a = vec![1.0, -1.0, 1.0];
        let b = vec![1.0];
        let c = vec![-1.0, 0.0, 0.0];
        let mut t = Tableau::new(a, b, c, vec![2]);
        assert_eq!(t.solve_with(3, PivotRule::Bland), SimplexOutcome::Unbounded);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Degenerate vertex: multiple constraints meet at the same point.
        // min −x − y  s.t. x + y ≤ 1, x + y ≤ 1 (duplicated), x ≤ 1.
        #[rustfmt::skip]
        let a = vec![
            1.0, 1.0, 1.0, 0.0, 0.0,
            1.0, 1.0, 0.0, 1.0, 0.0,
            1.0, 0.0, 0.0, 0.0, 1.0,
        ];
        let b = vec![1.0, 1.0, 1.0];
        let c = vec![-1.0, -1.0, 0.0, 0.0, 0.0];
        let mut t = Tableau::new(a, b, c, vec![2, 3, 4]);
        assert_eq!(t.solve_with(5, PivotRule::Bland), SimplexOutcome::Optimal);
        assert!((t.objective() + 1.0).abs() < 1e-9);
    }
}
