//! Bench/flight comparison: the regression gate behind `feves compare`.
//!
//! Accepts any two files of the *same* format among:
//!
//! - `BENCH_e2e.json` — one object with `idle_pct_*` (and, in older
//!   summaries, `scalar_ms` / `fast_ms`) fields;
//! - `BENCH_kernels.json` — an array of per-kernel-case objects with
//!   `*_ns_per_iter` fields;
//! - a flight log (JSONL of [`FlightRecord`]s) — summarized through the
//!   audit layer before comparison.
//!
//! Each format is reduced to named lower-is-better scalars; a metric
//! regresses when `(new − baseline) / baseline > threshold`. Metrics
//! present on only one side are reported but never count as regressions
//! (bench suites grow over time).

use crate::audit::AuditSummary;
use crate::flight;
use serde::Value;

/// One compared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDelta {
    /// Metric name, e.g. `"e2e.fast_ms"` or `"kernel.sad_grid/1080p"`.
    pub name: String,
    /// Baseline value (lower is better).
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
    /// Relative change, `(candidate − baseline) / baseline`.
    pub delta: f64,
}

/// Outcome of a comparison run.
#[derive(Clone, Debug, Default)]
pub struct CompareOutcome {
    /// All matched metrics, input order.
    pub metrics: Vec<MetricDelta>,
    /// Names of regressed metrics (delta > threshold).
    pub regressions: Vec<String>,
    /// Metrics present on only one side (informational).
    pub unmatched: Vec<String>,
}

impl CompareOutcome {
    /// True when no metric regressed beyond the threshold.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Human-readable comparison table.
    pub fn render_text(&self, threshold: f64) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<36} {:>12} {:>12} {:>9}\n",
            "metric", "baseline", "candidate", "delta"
        ));
        for m in &self.metrics {
            let flag = if m.delta > threshold {
                "  << REGRESSION"
            } else {
                ""
            };
            out.push_str(&format!(
                "{:<36} {:>12.3} {:>12.3} {:>+8.1}%{flag}\n",
                m.name,
                m.baseline,
                m.candidate,
                m.delta * 100.0
            ));
        }
        for u in &self.unmatched {
            out.push_str(&format!("{u:<36} (present on one side only)\n"));
        }
        out.push_str(&format!(
            "{}: {} metric(s) compared, {} regression(s) beyond {:.0}%\n",
            if self.passed() { "PASS" } else { "FAIL" },
            self.metrics.len(),
            self.regressions.len(),
            threshold * 100.0
        ));
        out
    }
}

/// Compare two summaries (same format, see module docs). `threshold` is the
/// relative slowdown that counts as a regression (e.g. `0.10` = 10 %).
pub fn compare_reports(
    baseline: &str,
    candidate: &str,
    threshold: f64,
) -> Result<CompareOutcome, String> {
    let base = extract_metrics(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cand = extract_metrics(candidate).map_err(|e| format!("candidate: {e}"))?;
    compare_lists(base, cand, threshold)
}

/// Compare only metrics whose name contains one of the comma-separated
/// `filter` terms — the CLI's `--metric` mode (`--metric
/// idle_pct,critical_path_us` gates both families in one invocation). On
/// top of the usual baseline-vs-candidate regression check, a filter term
/// matching the `idle_pct` family gates the pipeline win itself: the
/// candidate must show strictly less pipelined idle than lockstep idle, or
/// the overlap is reported as a regression even when the baseline
/// comparison would pass.
pub fn compare_reports_metric(
    baseline: &str,
    candidate: &str,
    threshold: f64,
    filter: &str,
) -> Result<CompareOutcome, String> {
    let terms: Vec<&str> = filter
        .split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .collect();
    if terms.is_empty() {
        return Err("--metric filter is empty".into());
    }
    let matches = |name: &str| terms.iter().any(|t| name.contains(t));
    let base: Vec<(String, f64)> = extract_metrics(baseline)
        .map_err(|e| format!("baseline: {e}"))?
        .into_iter()
        .filter(|(n, _)| matches(n))
        .collect();
    let cand = extract_metrics(candidate).map_err(|e| format!("candidate: {e}"))?;
    let idle_gate = if terms
        .iter()
        .any(|t| "idle_pct".contains(*t) || t.contains("idle_pct"))
    {
        let get = |name: &str| cand.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        match (get("e2e.idle_pct_pipelined"), get("e2e.idle_pct_lockstep")) {
            (Some(p), Some(l)) if p >= l => Some(format!(
                "e2e.idle_pct_pipelined (no overlap win: {p:.3}% pipelined vs {l:.3}% lockstep)"
            )),
            (None, _) | (_, None) => {
                return Err(
                    "candidate carries no idle_pct_pipelined/idle_pct_lockstep fields — \
                     regenerate BENCH_e2e.json with the pipelined bench"
                        .into(),
                )
            }
            _ => None,
        }
    } else {
        None
    };
    let cand: Vec<(String, f64)> = cand.into_iter().filter(|(n, _)| matches(n)).collect();
    let mut outcome = compare_lists(base, cand, threshold)
        .map_err(|e| format!("{e} (after --metric {filter} filter)"))?;
    if let Some(gate) = idle_gate {
        outcome.regressions.push(gate);
    }
    Ok(outcome)
}

fn compare_lists(
    base: Vec<(String, f64)>,
    cand: Vec<(String, f64)>,
    threshold: f64,
) -> Result<CompareOutcome, String> {
    let mut outcome = CompareOutcome::default();
    for (name, bv) in &base {
        match cand.iter().find(|(n, _)| n == name) {
            Some((_, cv)) => {
                let delta = if *bv > 1e-12 { (cv - bv) / bv } else { 0.0 };
                if delta > threshold {
                    outcome.regressions.push(name.clone());
                }
                outcome.metrics.push(MetricDelta {
                    name: name.clone(),
                    baseline: *bv,
                    candidate: *cv,
                    delta,
                });
            }
            None => outcome.unmatched.push(format!("{name} (baseline only)")),
        }
    }
    for (name, _) in &cand {
        if !base.iter().any(|(n, _)| n == name) {
            outcome.unmatched.push(format!("{name} (candidate only)"));
        }
    }
    if outcome.metrics.is_empty() {
        return Err("no common metrics between the two files — same format?".into());
    }
    Ok(outcome)
}

/// Reduce a summary file to named lower-is-better scalars.
fn extract_metrics(text: &str) -> Result<Vec<(String, f64)>, String> {
    // Flight JSONL: more than one line, or a single object with a "frame"
    // field.
    let trimmed = text.trim();
    if looks_like_flight(trimmed) {
        let records = flight::parse_jsonl(trimmed)?;
        let s = AuditSummary::from_records(&records, 1.0);
        let mut out = vec![("flight.mean_tau_tot_ms".to_string(), s.mean_tau_tot_ms)];
        if let Some(imb) = s.mean_imbalance_index {
            out.push(("flight.mean_imbalance_index".to_string(), imb));
        }
        if let Some(p95) = s.fleet_p95_abs_residual_pct {
            out.push(("flight.p95_abs_residual_pct".to_string(), p95));
        }
        if let Some(cp) = crate::critical::critical_path_us(&records) {
            out.push(("flight.critical_path_us".to_string(), cp));
        }
        return Ok(out);
    }
    let v = serde_json::value_from_str(trimmed).map_err(|e| e.to_string())?;
    if let Some(items) = v.as_array() {
        // BENCH_kernels.json: [{kernel, case, *_ns_per_iter, ...}].
        let mut out = Vec::new();
        for item in items {
            let kernel = item
                .get("kernel")
                .and_then(Value::as_str)
                .ok_or("kernel entry missing \"kernel\"")?;
            let case = item.get("case").and_then(Value::as_str).unwrap_or("");
            for field in ["fast_ns_per_iter", "scalar_ns_per_iter"] {
                if let Some(ns) = item.get(field).and_then(Value::as_f64) {
                    out.push((format!("kernel.{kernel}/{case}.{field}"), ns));
                }
            }
        }
        if out.is_empty() {
            return Err("kernel bench array carries no *_ns_per_iter fields".into());
        }
        return Ok(out);
    }
    if v.as_object().is_some() {
        // BENCH_e2e.json: {idle_pct_*, ...}, older ones {scalar_ms, fast_ms} too.
        // The idle_pct fields are virtual-clock idle attribution (lower is
        // better, like everything here) under the two pipeline modes.
        let mut out = Vec::new();
        for field in [
            "fast_ms",
            "scalar_ms",
            "idle_pct_pipelined",
            "idle_pct_lockstep",
        ] {
            if let Some(ms) = v.get(field).and_then(Value::as_f64) {
                out.push((format!("e2e.{field}"), ms));
            }
        }
        if out.is_empty() {
            return Err("object is neither a BENCH_e2e summary nor a flight record".into());
        }
        return Ok(out);
    }
    Err("unrecognized summary format".into())
}

fn looks_like_flight(trimmed: &str) -> bool {
    // A flight log's first line is a complete JSON object with the
    // FlightRecord signature fields.
    let first = trimmed.lines().find(|l| !l.trim().is_empty());
    match first.map(serde_json::value_from_str) {
        Some(Ok(v)) => v.get("frame").is_some() && v.get("measured_tau").is_some(),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::{DeviceRecord, FlightRecord, FlightRecorder, TauTriple};

    const E2E_BASE: &str = r#"{"resolution":"1080p","frames":30,"scalar_ms":100.0,"fast_ms":50.0,"speedup":2.0,"outputs_identical":true}"#;

    fn e2e(fast_ms: f64) -> String {
        format!(
            r#"{{"resolution":"1080p","frames":30,"scalar_ms":100.0,"fast_ms":{fast_ms},"speedup":2.0,"outputs_identical":true}}"#
        )
    }

    const KERNELS_BASE: &str = r#"[
        {"kernel":"sad_grid","case":"1080p","iters":100,"scalar_ns_per_iter":900.0,"fast_ns_per_iter":300.0,"speedup":3.0},
        {"kernel":"interp","case":"row","iters":100,"scalar_ns_per_iter":500.0,"fast_ns_per_iter":200.0,"speedup":2.5}
    ]"#;

    fn flight_log(tau_tot: f64) -> String {
        let mut fr = FlightRecorder::new(16);
        for f in 0..4 {
            fr.push(FlightRecord {
                frame: f,
                rstar_device: 0,
                predicted_tau: Some(TauTriple {
                    tau1_ms: 10.0,
                    tau2_ms: 15.0,
                    tau_tot_ms: tau_tot,
                }),
                measured_tau: TauTriple {
                    tau1_ms: 10.0,
                    tau2_ms: 15.0,
                    tau_tot_ms: tau_tot,
                },
                inflight_depth: 1,
                devices: vec![DeviceRecord {
                    device: 0,
                    me_rows: 68,
                    interp_rows: 68,
                    sme_rows: 68,
                    predicted_busy_ms: Some(tau_tot),
                    compute_busy_ms: tau_tot,
                    transfer_busy_ms: 0.0,
                    overlap_carried_ms: 0.0,
                    residual_pct: Some(0.0),
                    blacklisted: false,
                }],
                bytes_transferred: 0,
                bytes_reused: 0,
                recovery_ms: 0.0,
                drift_devices: vec![],
                recharacterized: false,
            });
        }
        fr.to_jsonl()
    }

    #[test]
    fn identical_e2e_passes() {
        let o = compare_reports(E2E_BASE, E2E_BASE, 0.10).unwrap();
        assert!(o.passed());
        assert_eq!(o.metrics.len(), 2);
        assert!(o.render_text(0.10).contains("PASS"));
    }

    #[test]
    fn e2e_regression_beyond_threshold_fails() {
        // +20 % fast_ms against a 10 % threshold.
        let o = compare_reports(E2E_BASE, &e2e(60.0), 0.10).unwrap();
        assert!(!o.passed());
        assert_eq!(o.regressions, vec!["e2e.fast_ms".to_string()]);
        assert!(o.render_text(0.10).contains("REGRESSION"));
        // Improvement is never a regression.
        let o = compare_reports(E2E_BASE, &e2e(40.0), 0.10).unwrap();
        assert!(o.passed());
        // Within threshold passes.
        let o = compare_reports(E2E_BASE, &e2e(54.0), 0.10).unwrap();
        assert!(o.passed());
    }

    #[test]
    fn kernel_arrays_match_by_kernel_and_case() {
        let o = compare_reports(KERNELS_BASE, KERNELS_BASE, 0.10).unwrap();
        assert!(o.passed());
        assert_eq!(o.metrics.len(), 4);
        let regressed =
            KERNELS_BASE.replace("\"fast_ns_per_iter\":300.0", "\"fast_ns_per_iter\":400.0");
        let o = compare_reports(KERNELS_BASE, &regressed, 0.10).unwrap();
        assert_eq!(
            o.regressions,
            vec!["kernel.sad_grid/1080p.fast_ns_per_iter".to_string()]
        );
    }

    #[test]
    fn flight_logs_compare_on_tau_tot() {
        let base = flight_log(20.0);
        // +15 % τtot: regression at 10 %.
        let slow = flight_log(23.0);
        let o = compare_reports(&base, &slow, 0.10).unwrap();
        assert!(!o.passed());
        assert!(o
            .regressions
            .contains(&"flight.mean_tau_tot_ms".to_string()));
        // Same flight passes.
        assert!(compare_reports(&base, &base, 0.10).unwrap().passed());
    }

    fn e2e_with_idle(fast_ms: f64, idle_pipelined: f64, idle_lockstep: f64) -> String {
        format!(
            r#"{{"resolution":"1080p","frames":30,"scalar_ms":100.0,"fast_ms":{fast_ms},"speedup":2.0,"outputs_identical":true,"idle_pct_lockstep":{idle_lockstep},"idle_pct_pipelined":{idle_pipelined},"overlap_recovered_ms":1.5,"pipeline_outputs_identical":true}}"#
        )
    }

    #[test]
    fn metric_filter_compares_only_matching_metrics() {
        let base = e2e_with_idle(50.0, 30.0, 40.0);
        // fast_ms regressed badly, but the idle filter ignores it.
        let cand = e2e_with_idle(90.0, 29.0, 40.0);
        let o = compare_reports_metric(&base, &cand, 0.10, "idle_pct").unwrap();
        assert!(o.passed(), "{:?}", o.regressions);
        assert_eq!(o.metrics.len(), 2);
        assert!(o.metrics.iter().all(|m| m.name.contains("idle_pct")));
    }

    #[test]
    fn metric_filter_gates_the_overlap_win_itself() {
        let base = e2e_with_idle(50.0, 30.0, 40.0);
        // Candidate's pipelined idle is no better than its lockstep idle:
        // the overlap win evaporated even though nothing regressed vs base.
        let cand = e2e_with_idle(50.0, 40.0, 40.0);
        let o = compare_reports_metric(&base, &cand, 0.50, "idle_pct").unwrap();
        assert!(!o.passed());
        assert!(
            o.regressions.iter().any(|r| r.contains("no overlap win")),
            "{:?}",
            o.regressions
        );
        // A candidate without the idle fields is an error, not a silent pass.
        let err = compare_reports_metric(&base, E2E_BASE, 0.10, "idle_pct").unwrap_err();
        assert!(err.contains("idle_pct"), "{err}");
    }

    #[test]
    fn metric_filter_accepts_comma_separated_lists() {
        let base = e2e_with_idle(50.0, 30.0, 40.0);
        let cand = e2e_with_idle(90.0, 29.0, 40.0);
        // Both terms gate in one invocation; a term matching nothing in an
        // e2e summary (critical_path_us lives in flight logs) is harmless.
        let o = compare_reports_metric(&base, &cand, 0.10, "idle_pct,critical_path_us").unwrap();
        assert!(o.passed(), "{:?}", o.regressions);
        assert!(o.metrics.iter().all(|m| m.name.contains("idle_pct")));
        // A fast_ms term widens the match set and catches its regression.
        let o = compare_reports_metric(&base, &cand, 0.10, "idle_pct, fast_ms").unwrap();
        assert!(!o.passed());
        assert!(o.regressions.contains(&"e2e.fast_ms".to_string()));
        assert!(compare_reports_metric(&base, &cand, 0.10, " , ").is_err());
    }

    #[test]
    fn flight_logs_carry_critical_path_us() {
        let base = flight_log(20.0);
        let o = compare_reports_metric(&base, &flight_log(23.0), 0.10, "critical_path_us").unwrap();
        assert!(!o.passed());
        assert_eq!(o.regressions, vec!["flight.critical_path_us".to_string()]);
        let m = &o.metrics[0];
        // Mean per-frame τtot in µs.
        assert!((m.baseline - 20_000.0).abs() < 1e-6, "{m:?}");
        assert!((m.candidate - 23_000.0).abs() < 1e-6, "{m:?}");
    }

    #[test]
    fn mismatched_formats_error() {
        let err = compare_reports(E2E_BASE, KERNELS_BASE, 0.10).unwrap_err();
        assert!(err.contains("no common metrics"), "{err}");
        assert!(compare_reports("not json", E2E_BASE, 0.10).is_err());
    }
}
