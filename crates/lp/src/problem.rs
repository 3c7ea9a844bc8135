//! User-facing LP model builder on top of the two-phase simplex.

use crate::simplex::{PivotRule, SimplexOutcome, Tableau, EPS};
use std::fmt;

/// Handle to a decision variable (all variables are non-negative).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

/// Constraint relation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Relation {
    /// `≤`
    Le,
    /// `≥`
    Ge,
    /// `=`
    Eq,
}

/// Optimization direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

#[derive(Clone, Debug)]
struct Constraint {
    terms: Vec<(usize, f64)>,
    rel: Relation,
    rhs: f64,
}

/// Errors from [`Problem::solve`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LpError {
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The model is malformed (e.g. no variables).
    Malformed(&'static str),
    /// The solver's result failed post-solve verification (numerical
    /// breakdown); callers should fall back to a heuristic.
    Numerical,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "LP is infeasible"),
            LpError::Unbounded => write!(f, "LP is unbounded"),
            LpError::Malformed(m) => write!(f, "malformed LP: {m}"),
            LpError::Numerical => write!(f, "numerical breakdown in simplex"),
        }
    }
}

impl std::error::Error for LpError {}

/// An optimal solution.
#[derive(Clone, Debug)]
pub struct Solution {
    values: Vec<f64>,
    objective: f64,
    iterations: usize,
}

impl Solution {
    /// Value of variable `v`.
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.0]
    }

    /// Optimal objective value (in the problem's own sense).
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Simplex pivot iterations spent producing this solution (phase 1 +
    /// phase 2 of the successful attempt) — the `lp.iterations` metric.
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

/// A linear program: `min/max cᵀx` subject to linear constraints, `x ≥ 0`.
///
/// ```
/// use feves_lp::{Problem, Relation, Sense};
/// let mut lp = Problem::new(Sense::Maximize);
/// let x = lp.add_var(3.0);
/// let y = lp.add_var(5.0);
/// lp.add_constraint(&[(x, 1.0)], Relation::Le, 4.0);
/// lp.add_constraint(&[(y, 2.0)], Relation::Le, 12.0);
/// lp.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
/// let sol = lp.solve().unwrap();
/// assert!((sol.objective() - 36.0).abs() < 1e-9);
/// assert!((sol.value(x) - 2.0).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct Problem {
    sense: Sense,
    obj: Vec<f64>,
    constraints: Vec<Constraint>,
}

impl Problem {
    /// Create an empty problem.
    pub fn new(sense: Sense) -> Self {
        Problem {
            sense,
            obj: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Add a non-negative variable with objective coefficient `obj_coeff`.
    pub fn add_var(&mut self, obj_coeff: f64) -> VarId {
        self.obj.push(obj_coeff);
        VarId(self.obj.len() - 1)
    }

    /// Add `Σ terms ⋈ rhs`. Duplicate variables in `terms` are summed.
    pub fn add_constraint(&mut self, terms: &[(VarId, f64)], rel: Relation, rhs: f64) {
        let mut combined: Vec<(usize, f64)> = Vec::with_capacity(terms.len());
        for &(v, c) in terms {
            assert!(v.0 < self.obj.len(), "variable from another problem");
            if let Some(e) = combined.iter_mut().find(|(i, _)| *i == v.0) {
                e.1 += c;
            } else {
                combined.push((v.0, c));
            }
        }
        self.constraints.push(Constraint {
            terms: combined,
            rel,
            rhs,
        });
    }

    /// Solve with the two-phase simplex.
    ///
    /// Strategy: a fast Dantzig-rule attempt first; if it hits its
    /// iteration cap or fails post-solve verification, an authoritative
    /// Bland-rule attempt (anti-cycling) decides.
    pub fn solve(&self) -> Result<Solution, LpError> {
        match self.solve_attempt(PivotRule::Dantzig) {
            Ok(s) => Ok(s),
            Err(LpError::Unbounded) => Err(LpError::Unbounded),
            Err(_) => self.solve_attempt(PivotRule::Bland),
        }
    }

    /// One attempt under `rule`: phase 1 drives the artificials to zero
    /// when the starting basis has any, phase 2 optimizes the objective
    /// with them locked out.
    fn solve_attempt(&self, rule: PivotRule) -> Result<Solution, LpError> {
        let nv = self.obj.len();
        if nv == 0 {
            return Err(LpError::Malformed("no variables"));
        }
        let StandardForm {
            a,
            b,
            basis,
            n_total,
            first_artificial,
        } = self.standard_form();
        let mut c2 = vec![0.0; n_total];
        for (c, &coeff) in c2.iter_mut().zip(&self.obj) {
            *c = match self.sense {
                Sense::Minimize => coeff,
                Sense::Maximize => -coeff,
            };
        }
        let (mut t, allowed) = if first_artificial < n_total {
            // Phase 1: minimize the sum of artificials.
            let mut c1 = vec![0.0; n_total];
            c1[first_artificial..].fill(1.0);
            let mut t = Tableau::new(a, b, c1, basis);
            match run_phase(&mut t, n_total, rule) {
                Err(LpError::Unbounded) => return Err(LpError::Infeasible),
                other => other?,
            }
            if t.objective() > 1e-7 {
                return Err(LpError::Infeasible);
            }
            t.drive_out_artificials(first_artificial);
            t.set_objective(c2);
            (t, first_artificial)
        } else {
            // All-slack basis is feasible; single phase.
            (Tableau::new(a, b, c2, basis), n_total)
        };
        run_phase(&mut t, allowed, rule)?;
        self.extract(&t, nv)
    }

    /// `A x = b` with `b ≥ 0`: each row is normalized to a non-negative
    /// right-hand side (flipping its relation), equilibrated, and given a
    /// slack (≤), a surplus and an artificial (≥), or an artificial alone
    /// (=). The starting basis is the slacks and the artificials.
    fn standard_form(&self) -> StandardForm {
        let nv = self.obj.len();
        let m = self.constraints.len();
        let rows: Vec<(f64, Relation, f64)> = (self.constraints.iter())
            .map(|c| {
                if c.rhs < 0.0 {
                    (-1.0, flip(c.rel), -c.rhs)
                } else {
                    (1.0, c.rel, c.rhs)
                }
            })
            .collect();
        let n_slack = rows.iter().filter(|r| r.1 != Relation::Eq).count();
        let n_art = rows.iter().filter(|r| r.1 != Relation::Le).count();
        let n_total = nv + n_slack + n_art;
        let first_artificial = nv + n_slack;

        let mut a = vec![0.0; m * n_total];
        let mut b = vec![0.0; m];
        let mut basis = vec![0usize; m];
        let (mut slack_at, mut art_at) = (nv, first_artificial);
        for (row, (c, &(sign, rel, rhs))) in self.constraints.iter().zip(&rows).enumerate() {
            let a = &mut a[row * n_total..(row + 1) * n_total];
            // Row equilibration: divide the row by its largest coefficient
            // magnitude so wildly mixed scales (seconds-per-row rates vs
            // row counts) do not destabilize the pivoting.
            let scale = c
                .terms
                .iter()
                .map(|&(_, coeff)| coeff.abs())
                .fold(rhs.abs(), f64::max);
            let inv = if scale > 0.0 { 1.0 / scale } else { 1.0 };
            for &(v, coeff) in &c.terms {
                a[v] = sign * coeff * inv;
            }
            b[row] = rhs * inv;
            if rel == Relation::Le {
                a[slack_at] = 1.0;
                basis[row] = slack_at;
                slack_at += 1;
                continue;
            }
            if rel == Relation::Ge {
                a[slack_at] = -1.0;
                slack_at += 1;
            }
            a[art_at] = 1.0;
            basis[row] = art_at;
            art_at += 1;
        }
        StandardForm {
            a,
            b,
            basis,
            n_total,
            first_artificial,
        }
    }

    fn extract(&self, t: &Tableau, nv: usize) -> Result<Solution, LpError> {
        let full = t.solution();
        let values: Vec<f64> = full[..nv]
            .iter()
            .map(|&v| if v.abs() < EPS { 0.0 } else { v })
            .collect();
        // Post-solve verification: the basic solution must satisfy every
        // original constraint (within a scale-relative tolerance). A tableau
        // corrupted by near-singular pivots is caught here instead of being
        // handed to the caller as a bogus "optimum".
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(v, k)| k * values[v]).sum();
            let scale =
                1.0 + c.rhs.abs() + c.terms.iter().map(|&(_, k)| k.abs()).fold(0.0, f64::max);
            let tol = 1e-6 * scale;
            let ok = match c.rel {
                Relation::Le => lhs <= c.rhs + tol,
                Relation::Ge => lhs >= c.rhs - tol,
                Relation::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return Err(LpError::Numerical);
            }
        }
        if values.iter().any(|&v| v < -1e-9) {
            return Err(LpError::Numerical);
        }
        let objective = values
            .iter()
            .zip(&self.obj)
            .map(|(x, c)| x * c)
            .sum::<f64>();
        Ok(Solution {
            values,
            objective,
            iterations: t.iterations(),
        })
    }
}

/// A problem in the form the simplex runs on: `a` is `b.len()` rows of
/// `n_total` columns — structural, slack/surplus, then artificial.
struct StandardForm {
    a: Vec<f64>,
    b: Vec<f64>,
    basis: Vec<usize>,
    n_total: usize,
    first_artificial: usize,
}

/// Run one simplex phase to its optimum.
fn run_phase(t: &mut Tableau, allowed: usize, rule: PivotRule) -> Result<(), LpError> {
    match t.solve_with(allowed, rule) {
        SimplexOutcome::Optimal => Ok(()),
        SimplexOutcome::IterationLimit => Err(LpError::Numerical),
        SimplexOutcome::Unbounded => Err(LpError::Unbounded),
    }
}

fn flip(rel: Relation) -> Relation {
    match rel {
        Relation::Le => Relation::Ge,
        Relation::Ge => Relation::Le,
        Relation::Eq => Relation::Eq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_max() {
        let mut lp = Problem::new(Sense::Maximize);
        let x = lp.add_var(3.0);
        let y = lp.add_var(5.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(&[(y, 2.0)], Relation::Le, 12.0);
        lp.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let sol = lp.solve().unwrap();
        assert!((sol.objective() - 36.0).abs() < 1e-9);
        assert!((sol.value(x) - 2.0).abs() < 1e-9);
        assert!((sol.value(y) - 6.0).abs() < 1e-9);
        assert!(sol.iterations() > 0, "pivot count must be reported");
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min x + 2y  s.t. x + y = 10, x ≥ 3  →  (10 − y… ) best: y as large
        // as possible? obj grows with y, so y = 0 … but x + y = 10 → x = 10.
        // With x ≥ 3 satisfied. Optimal (10, 0), obj 10.
        let mut lp = Problem::new(Sense::Minimize);
        let x = lp.add_var(1.0);
        let y = lp.add_var(2.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 10.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 3.0);
        let sol = lp.solve().unwrap();
        assert!((sol.value(x) - 10.0).abs() < 1e-9);
        assert!(sol.value(y).abs() < 1e-9);
        assert!((sol.objective() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = Problem::new(Sense::Minimize);
        let x = lp.add_var(1.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = Problem::new(Sense::Maximize);
        let x = lp.add_var(1.0);
        let y = lp.add_var(0.0);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, 5.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn negative_rhs_normalized() {
        // x − y ≤ −2  ⇔  y − x ≥ 2. min x + y with x,y ≥ 0 → (0, 2).
        let mut lp = Problem::new(Sense::Minimize);
        let x = lp.add_var(1.0);
        let y = lp.add_var(1.0);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, -2.0);
        let sol = lp.solve().unwrap();
        assert!(sol.value(x).abs() < 1e-9);
        assert!((sol.value(y) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_terms_are_summed() {
        // (x + x) ≤ 4 ⇒ x ≤ 2.
        let mut lp = Problem::new(Sense::Maximize);
        let x = lp.add_var(1.0);
        lp.add_constraint(&[(x, 1.0), (x, 1.0)], Relation::Le, 4.0);
        let sol = lp.solve().unwrap();
        assert!((sol.value(x) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_rhs_equality() {
        // min y  s.t. x − y = 0, x ≥ 1 → (1, 1).
        let mut lp = Problem::new(Sense::Minimize);
        let x = lp.add_var(0.0);
        let y = lp.add_var(1.0);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Eq, 0.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 1.0);
        let sol = lp.solve().unwrap();
        assert!((sol.value(y) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn redundant_equalities_ok() {
        // Same equality twice (redundant row must not break phase 1).
        let mut lp = Problem::new(Sense::Minimize);
        let x = lp.add_var(1.0);
        let y = lp.add_var(1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 4.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 4.0);
        let sol = lp.solve().unwrap();
        assert!((sol.value(x) + sol.value(y) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn malformed_empty() {
        let lp = Problem::new(Sense::Minimize);
        assert!(matches!(lp.solve(), Err(LpError::Malformed(_))));
    }
}
