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
/// let x = lp.add_var("x", 3.0);
/// let y = lp.add_var("y", 5.0);
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
    names: Vec<String>,
    constraints: Vec<Constraint>,
}

impl Problem {
    /// Create an empty problem.
    pub fn new(sense: Sense) -> Self {
        Problem {
            sense,
            obj: Vec::new(),
            names: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Add a non-negative variable with objective coefficient `obj_coeff`.
    pub fn add_var(&mut self, name: impl Into<String>, obj_coeff: f64) -> VarId {
        self.obj.push(obj_coeff);
        self.names.push(name.into());
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

    fn solve_attempt(&self, rule: PivotRule) -> Result<Solution, LpError> {
        let nv = self.obj.len();
        if nv == 0 {
            return Err(LpError::Malformed("no variables"));
        }
        let m = self.constraints.len();

        // Count auxiliary columns: one slack/surplus per inequality, one
        // artificial per Ge/Eq row (and per Le row with negative rhs, which
        // normalization turns into Ge).
        #[derive(Clone, Copy)]
        enum RowKind {
            Slack,
            SurplusArtificial,
            ArtificialOnly,
        }
        let mut kinds = Vec::with_capacity(m);
        for c in &self.constraints {
            // Normalize to rhs ≥ 0 by flipping sign (and relation).
            let (rel, rhs) = if c.rhs < 0.0 {
                (flip(c.rel), -c.rhs)
            } else {
                (c.rel, c.rhs)
            };
            let kind = match rel {
                Relation::Le => {
                    if rhs >= 0.0 {
                        RowKind::Slack
                    } else {
                        RowKind::SurplusArtificial
                    }
                }
                Relation::Ge => RowKind::SurplusArtificial,
                Relation::Eq => RowKind::ArtificialOnly,
            };
            kinds.push((kind, rel, rhs));
        }
        let n_slack = kinds
            .iter()
            .filter(|(k, _, _)| matches!(k, RowKind::Slack | RowKind::SurplusArtificial))
            .count();
        let n_art = kinds
            .iter()
            .filter(|(k, _, _)| matches!(k, RowKind::SurplusArtificial | RowKind::ArtificialOnly))
            .count();
        let n_total = nv + n_slack + n_art;

        let mut a = vec![0.0; m * n_total];
        let mut b = vec![0.0; m];
        let mut basis = vec![0usize; m];
        let mut slack_at = nv;
        let first_artificial = nv + n_slack;
        let mut art_at = first_artificial;

        for (row, c) in self.constraints.iter().enumerate() {
            let (kind, _rel, rhs) = kinds[row];
            let sign = if c.rhs < 0.0 { -1.0 } else { 1.0 };
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
                a[row * n_total + v] = sign * coeff * inv;
            }
            b[row] = rhs * inv;
            match kind {
                RowKind::Slack => {
                    a[row * n_total + slack_at] = 1.0;
                    basis[row] = slack_at;
                    slack_at += 1;
                }
                RowKind::SurplusArtificial => {
                    a[row * n_total + slack_at] = -1.0;
                    slack_at += 1;
                    a[row * n_total + art_at] = 1.0;
                    basis[row] = art_at;
                    art_at += 1;
                }
                RowKind::ArtificialOnly => {
                    a[row * n_total + art_at] = 1.0;
                    basis[row] = art_at;
                    art_at += 1;
                }
            }
        }

        // Phase 1: minimize the sum of artificials.
        if n_art > 0 {
            let mut c1 = vec![0.0; n_total];
            for c in c1.iter_mut().take(n_total).skip(first_artificial) {
                *c = 1.0;
            }
            let mut t = Tableau::new(a, b, c1, basis);
            match t.solve_with(n_total, rule) {
                SimplexOutcome::Optimal => {}
                SimplexOutcome::IterationLimit => return Err(LpError::Numerical),
                SimplexOutcome::Unbounded => return Err(LpError::Infeasible),
            }
            if t.objective() > 1e-7 {
                return Err(LpError::Infeasible);
            }
            t.drive_out_artificials(first_artificial);
            // Phase 2 with the real objective, artificials locked out.
            let mut c2 = vec![0.0; n_total];
            for (j, &coeff) in self.obj.iter().enumerate() {
                c2[j] = match self.sense {
                    Sense::Minimize => coeff,
                    Sense::Maximize => -coeff,
                };
            }
            t.set_objective(c2);
            match t.solve_with(first_artificial, rule) {
                SimplexOutcome::Optimal => self.extract(&t, nv),
                SimplexOutcome::IterationLimit => Err(LpError::Numerical),
                SimplexOutcome::Unbounded => Err(LpError::Unbounded),
            }
        } else {
            // All-slack basis is feasible; single phase.
            let mut c2 = vec![0.0; n_total];
            for (j, &coeff) in self.obj.iter().enumerate() {
                c2[j] = match self.sense {
                    Sense::Minimize => coeff,
                    Sense::Maximize => -coeff,
                };
            }
            let mut t = Tableau::new(a, b, c2, basis);
            match t.solve_with(n_total, rule) {
                SimplexOutcome::Optimal => self.extract(&t, nv),
                SimplexOutcome::IterationLimit => Err(LpError::Numerical),
                SimplexOutcome::Unbounded => Err(LpError::Unbounded),
            }
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
        let x = lp.add_var("x", 3.0);
        let y = lp.add_var("y", 5.0);
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
        let x = lp.add_var("x", 1.0);
        let y = lp.add_var("y", 2.0);
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
        let x = lp.add_var("x", 1.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = Problem::new(Sense::Maximize);
        let x = lp.add_var("x", 1.0);
        let y = lp.add_var("y", 0.0);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, 5.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn negative_rhs_normalized() {
        // x − y ≤ −2  ⇔  y − x ≥ 2. min x + y with x,y ≥ 0 → (0, 2).
        let mut lp = Problem::new(Sense::Minimize);
        let x = lp.add_var("x", 1.0);
        let y = lp.add_var("y", 1.0);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, -2.0);
        let sol = lp.solve().unwrap();
        assert!(sol.value(x).abs() < 1e-9);
        assert!((sol.value(y) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_terms_are_summed() {
        // (x + x) ≤ 4 ⇒ x ≤ 2.
        let mut lp = Problem::new(Sense::Maximize);
        let x = lp.add_var("x", 1.0);
        lp.add_constraint(&[(x, 1.0), (x, 1.0)], Relation::Le, 4.0);
        let sol = lp.solve().unwrap();
        assert!((sol.value(x) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_rhs_equality() {
        // min y  s.t. x − y = 0, x ≥ 1 → (1, 1).
        let mut lp = Problem::new(Sense::Minimize);
        let x = lp.add_var("x", 0.0);
        let y = lp.add_var("y", 1.0);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Eq, 0.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 1.0);
        let sol = lp.solve().unwrap();
        assert!((sol.value(y) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn redundant_equalities_ok() {
        // Same equality twice (redundant row must not break phase 1).
        let mut lp = Problem::new(Sense::Minimize);
        let x = lp.add_var("x", 1.0);
        let y = lp.add_var("y", 1.0);
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
