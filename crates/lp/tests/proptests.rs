//! Property-based tests of the simplex solver against first principles and
//! a brute-force vertex enumerator on small instances.

use feves_lp::{LpError, Problem, Relation, Sense};
use proptest::prelude::*;

/// Coefficient strategy: small integers keep vertex enumeration exact.
fn coeff() -> impl Strategy<Value = f64> {
    (-5i32..=5).prop_map(|v| v as f64)
}

proptest! {
    /// Construct a feasible LP by construction: pick x0 ≥ 0, random A, and
    /// set b = A·x0 + slack ≥ A·x0 (so x0 is feasible). With c ≥ 0 and
    /// x ≥ 0, the objective is bounded below by 0. The solver must return
    /// an optimum that (a) satisfies every constraint and (b) is no worse
    /// than the known feasible point.
    #[test]
    fn feasible_by_construction_is_solved(
        x0 in proptest::collection::vec(0.0f64..4.0, 2..5),
        rows in proptest::collection::vec(
            (proptest::collection::vec(coeff(), 5), 0.0f64..3.0), 1..7),
        c in proptest::collection::vec(0.0f64..4.0, 5),
    ) {
        let nv = x0.len();
        let mut lp = Problem::new(Sense::Minimize);
        let vars: Vec<_> = (0..nv).map(|i| lp.add_var(c[i])).collect();
        for (a_row, slack) in &rows {
            let terms: Vec<_> = vars.iter().zip(a_row).map(|(&v, &a)| (v, a)).collect();
            let b: f64 = a_row.iter().zip(&x0).map(|(a, x)| a * x).sum::<f64>() + slack;
            lp.add_constraint(&terms, Relation::Le, b);
        }
        let sol = lp.solve().expect("constructed-feasible LP must solve");

        // (a) primal feasibility.
        for (a_row, slack) in &rows {
            let b: f64 = a_row.iter().zip(&x0).map(|(a, x)| a * x).sum::<f64>() + slack;
            let lhs: f64 = a_row.iter().zip(&vars).map(|(a, &v)| a * sol.value(v)).sum();
            prop_assert!(lhs <= b + 1e-6, "constraint violated: {lhs} > {b}");
        }
        for &v in &vars {
            prop_assert!(sol.value(v) >= -1e-9);
        }
        // (b) optimality vs the known feasible point.
        let ref_obj: f64 = c.iter().zip(&x0).map(|(c, x)| c * x).sum();
        prop_assert!(sol.objective() <= ref_obj + 1e-6,
            "objective {} worse than feasible point {}", sol.objective(), ref_obj);
        prop_assert!(sol.objective() >= -1e-6, "c ≥ 0, x ≥ 0 ⇒ objective ≥ 0");
    }

    /// Two-variable LPs: compare against brute-force vertex enumeration.
    #[test]
    fn two_var_matches_vertex_enumeration(
        rows in proptest::collection::vec((coeff(), coeff(), 0.0f64..8.0), 1..6),
        cx in coeff(), cy in coeff(),
    ) {
        let mut lp = Problem::new(Sense::Minimize);
        let x = lp.add_var(cx);
        let y = lp.add_var(cy);
        for &(a, b, r) in &rows {
            lp.add_constraint(&[(x, a), (y, b)], Relation::Le, r);
        }
        // Brute force: candidate vertices are intersections of constraint
        // boundary pairs (incl. the axes x=0, y=0).
        let mut lines: Vec<(f64, f64, f64)> = rows.clone();
        lines.push((1.0, 0.0, 0.0)); // x = 0
        lines.push((0.0, 1.0, 0.0)); // y = 0
        let feasible = |px: f64, py: f64| {
            px >= -1e-7 && py >= -1e-7
                && rows.iter().all(|&(a, b, r)| a * px + b * py <= r + 1e-7)
        };
        let mut best: Option<f64> = None;
        for i in 0..lines.len() {
            for j in i + 1..lines.len() {
                let (a1, b1, r1) = lines[i];
                let (a2, b2, r2) = lines[j];
                let det = a1 * b2 - a2 * b1;
                if det.abs() < 1e-9 { continue; }
                let px = (r1 * b2 - r2 * b1) / det;
                let py = (a1 * r2 - a2 * r1) / det;
                if feasible(px, py) {
                    let obj = cx * px + cy * py;
                    best = Some(best.map_or(obj, |b: f64| b.min(obj)));
                }
            }
        }
        match lp.solve() {
            Ok(sol) => {
                // Origin is always feasible here (rhs ≥ 0), so brute force
                // found at least one vertex unless the optimum is unbounded.
                if let Some(best) = best {
                    prop_assert!(sol.objective() <= best + 1e-6,
                        "simplex {} worse than vertex best {}", sol.objective(), best);
                    prop_assert!(sol.objective() >= best - 1e-6 - best.abs() * 1e-9,
                        "simplex {} better than any vertex {} (impossible)",
                        sol.objective(), best);
                }
                prop_assert!(feasible(sol.value(x), sol.value(y)));
            }
            Err(LpError::Unbounded) => {
                // Verify unboundedness: some ray direction (dx, dy) ≥ 0 with
                // negative objective and A·d ≤ 0 must exist. Spot-check the
                // axis rays and the diagonal.
                let ray_ok = |dx: f64, dy: f64| {
                    cx * dx + cy * dy < -1e-9
                        && rows.iter().all(|&(a, b, _)| a * dx + b * dy <= 1e-9)
                };
                // Sample a few rational directions.
                let mut found = false;
                for &(dx, dy) in &[(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, 2.0),
                                    (3.0, 1.0), (1.0, 3.0), (4.0, 1.0), (1.0, 4.0), (5.0, 1.0),
                                    (1.0, 5.0), (5.0, 2.0), (2.0, 5.0), (5.0, 3.0), (3.0, 5.0),
                                    (4.0, 3.0), (3.0, 4.0), (5.0, 4.0), (4.0, 5.0)] {
                    if ray_ok(dx, dy) { found = true; break; }
                }
                // The sampled directions cover all slope classes that can
                // arise from integer coefficients in [-5, 5]; not finding
                // one is almost surely a solver bug, but keep it a soft
                // check against exotic corner directions.
                if !found {
                    // Dense sweep as fallback.
                    for k in 0..=100 {
                        let t = k as f64 / 100.0;
                        if ray_ok(t, 1.0 - t) { found = true; break; }
                    }
                }
                prop_assert!(found, "solver claims unbounded but no escaping ray found");
            }
            Err(e) => prop_assert!(false, "unexpected error {e:?} (origin is feasible)"),
        }
    }

    /// Equality-constrained LPs stay feasible: x fixed by Σx = s with a
    /// random split must solve and respect the equality.
    #[test]
    fn equality_partition_sums(
        n in 2usize..6,
        total in 1.0f64..100.0,
        weights in proptest::collection::vec(0.5f64..4.0, 6),
    ) {
        let mut lp = Problem::new(Sense::Minimize);
        let vars: Vec<_> = (0..n).map(|_| lp.add_var(0.0)).collect();
        let tau = lp.add_var(1.0);
        let all: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        lp.add_constraint(&all, Relation::Eq, total);
        // Each device: weight_i · m_i ≤ tau  (the τ1-style constraint).
        for (i, &v) in vars.iter().enumerate() {
            lp.add_constraint(&[(v, weights[i]), (tau, -1.0)], Relation::Le, 0.0);
        }
        let sol = lp.solve().expect("partition LP must be feasible");
        let sum: f64 = vars.iter().map(|&v| sol.value(v)).sum();
        prop_assert!((sum - total).abs() < 1e-6, "sum {sum} != {total}");
        // Optimal tau equals total / Σ(1/w): the classic makespan balance.
        let ideal: f64 = total / weights[..n].iter().map(|w| 1.0 / w).sum::<f64>();
        prop_assert!((sol.objective() - ideal).abs() < 1e-5,
            "tau {} vs ideal {}", sol.objective(), ideal);
    }
}
