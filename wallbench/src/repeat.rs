//! `--repeat-check`: the acceptance test the benchmark contract applies to
//! the benchmark itself, run on one build. Two sets of untraced runs, each
//! run with another seed; per workload and end-to-end metric the spread of a
//! set (interquartile range over median) and the second set's median against
//! the first must both stay within the metric's bound.

use crate::spec::{Better, Workload, END_TO_END};
use crate::stats::quartiles;
use crate::{e2e, Ctx};

struct SetStats {
    median: f64,
    spread: f64,
}

fn set_stats(values: &[f64]) -> SetStats {
    let (q1, median, q3) = quartiles(values);
    SetStats {
        median,
        spread: (q3 - q1) / median.abs(),
    }
}

/// How much worse `b` is than `a` as a share of `a`; negative when better.
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Runs per set, as the contract takes them.
const RUNS: usize = 10;

pub fn check(ctx: &Ctx, workloads: &[Workload]) -> Result<bool, String> {
    let mut all_within = true;
    let mut failed_ops = 0;
    for w in workloads {
        // values[set][metric][run]
        let mut values = vec![vec![Vec::new(); END_TO_END.len()]; 2];
        for set in values.iter_mut() {
            for run in 0..RUNS {
                let run_ctx = Ctx {
                    seed: ctx.seed + run as u64,
                    ..ctx.clone()
                };
                let outcome = e2e::run(&run_ctx, w).map_err(|e| format!("{}: {e}", w.name))?;
                failed_ops += outcome.ops.failed;
                for (m, column) in END_TO_END.iter().zip(set.iter_mut()) {
                    let v = outcome.value(m.name);
                    column.push(v.ok_or_else(|| format!("{}: {} missing", w.name, m.name))?);
                }
            }
        }
        println!(
            "{}: {RUNS} runs per set, seeds {}..{}",
            w.name,
            ctx.seed,
            ctx.seed + RUNS as u64 - 1
        );
        println!(
            "  {:<20} {:>12} {:>12} {:>8} {:>8} {:>8} {:>7}",
            "metric", "median 1", "median 2", "worse %", "iqr1 %", "iqr2 %", "bound %"
        );
        for (i, m) in END_TO_END.iter().enumerate() {
            let (a, b) = (set_stats(&values[0][i]), set_stats(&values[1][i]));
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let worse = worsening(a.median, b.median, m.better);
            // The contract exempts the spread of set-up time, not its median.
            let spread_ok = m.name == "setup_s" || a.spread.max(b.spread) <= bound;
            let within = spread_ok && worse <= bound;
            // Every run made, for whoever reads the verdict.
            for (set, column) in values.iter().enumerate() {
                let runs: Vec<String> = column[i].iter().map(|v| format!("{v:.4}")).collect();
                eprintln!(
                    "  {} {} set {}: {}",
                    w.name,
                    m.name,
                    set + 1,
                    runs.join(" ")
                );
            }
            all_within &= within;
            let third = a.spread.max(b.spread) > bound / 3.0 && m.name != "setup_s";
            println!(
                "  {:<20} {:>12.4} {:>12.4} {:>8.2} {:>8.2} {:>8.2} {:>7.2}  {}",
                m.name,
                a.median,
                b.median,
                worse * 100.0,
                a.spread * 100.0,
                b.spread * 100.0,
                bound * 100.0,
                match (within, third) {
                    (false, _) => "OUT OF BOUND",
                    (true, true) => "ok (spread over a third of the bound)",
                    (true, false) => "ok",
                }
            );
        }
    }
    if failed_ops > 0 {
        println!("{failed_ops} operation(s) failed their checks");
    }
    Ok(all_within && failed_ops == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worsening(50.0, 45.0, Better::Higher) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = set_stats(&v);
        assert_eq!(s.median, 5.5);
        assert!((s.spread - 1.0).abs() < 1e-12);
    }
}
