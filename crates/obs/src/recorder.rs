//! Recorder sinks and RAII span guards.

use crate::histogram::Histogram;
use crate::{Metric, MetricKind, REGISTRY};
use serde::Value;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const N: usize = REGISTRY.len();
/// Sentinel bits marking a gauge that was never written (NaN payload no
/// real sample produces).
const GAUGE_UNSET: u64 = u64::MAX;

/// A metrics/span sink. Implementations must be cheap and thread-safe —
/// recording happens on the per-frame scheduling path.
pub trait Recorder: Send + Sync {
    /// False when recording is compiled down to nothing ([`NoopRecorder`]);
    /// callers may skip expensive metric derivation when disabled.
    fn enabled(&self) -> bool;

    /// Increment counter `m` by `delta`.
    fn add(&self, m: Metric, delta: u64);

    /// Set gauge `m` to `value` (last write wins).
    fn gauge(&self, m: Metric, value: f64);

    /// Record one histogram sample for `m`.
    fn observe(&self, m: Metric, value: f64);

    /// Record a completed wall-clock span of `dur_us` microseconds.
    fn span_record(&self, name: &'static str, dur_us: u64);
}

/// The default sink: drops everything. `enabled()` returns false so
/// instrumented code can skip metric derivation entirely.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }
    #[inline]
    fn add(&self, _m: Metric, _delta: u64) {}
    #[inline]
    fn gauge(&self, _m: Metric, _value: f64) {}
    #[inline]
    fn observe(&self, _m: Metric, _value: f64) {}
    #[inline]
    fn span_record(&self, _name: &'static str, _dur_us: u64) {}
}

/// Aggregate statistics of one named span point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanStat {
    /// Span name (e.g. `"balance"`).
    pub name: &'static str,
    /// Completed spans.
    pub count: u64,
    /// Summed duration in µs.
    pub total_us: u64,
    /// Longest single span in µs.
    pub max_us: u64,
}

/// In-memory aggregating recorder: atomic counters and gauges, lock-free
/// [`Histogram`]s, and per-name span aggregates.
#[derive(Debug)]
pub struct MemoryRecorder {
    counters: [AtomicU64; N],
    /// f64 bits; [`GAUGE_UNSET`] until first write.
    gauges: [AtomicU64; N],
    histograms: [Histogram; N],
    /// Ordered by first use; span points are few and low-rate, so a mutex
    /// is fine here.
    spans: Mutex<Vec<SpanStat>>,
}

// Derived `Default` stops at 32-element arrays (and would zero the gauges
// instead of marking them unset), so delegate to `new`.
impl Default for MemoryRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryRecorder {
    /// Empty recorder.
    pub fn new() -> Self {
        MemoryRecorder {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(GAUGE_UNSET)),
            histograms: std::array::from_fn(|_| Histogram::new()),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Current value of counter `m`.
    pub fn counter(&self, m: Metric) -> u64 {
        self.counters[m.index()].load(Ordering::Relaxed)
    }

    /// Last written gauge value, if any.
    pub fn gauge_value(&self, m: Metric) -> Option<f64> {
        match self.gauges[m.index()].load(Ordering::Relaxed) {
            GAUGE_UNSET => None,
            bits => Some(f64::from_bits(bits)),
        }
    }

    /// Histogram for `m`.
    pub fn histogram(&self, m: Metric) -> &Histogram {
        &self.histograms[m.index()]
    }

    /// Span aggregates, sorted by name.
    pub fn spans(&self) -> Vec<SpanStat> {
        // Recover from poisoning: a panicking exporter thread must not take
        // span accounting (or the encoder) down with it.
        let mut v = self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone();
        v.sort_by_key(|s| s.name);
        v
    }

    /// Metric `m` as every export writes it: a counter's count, a gauge's
    /// last value (`null` until written), or a histogram's six-field
    /// summary (count/mean/p50/p95/p99/max). Non-finite numbers are `null`.
    pub(crate) fn value_of(&self, m: Metric) -> Value {
        match m.def().kind {
            MetricKind::Counter => Value::UInt(self.counter(m)),
            MetricKind::Gauge => self.gauge_value(m).map(fnum).unwrap_or(Value::Null),
            MetricKind::Histogram => {
                let h = self.histogram(m);
                let p = |q| fnum(h.percentile(q));
                let fields = [
                    ("count", Value::UInt(h.count())),
                    ("mean", fnum(h.mean())),
                    ("p50", p(50.0)),
                    ("p95", p(95.0)),
                    ("p99", p(99.0)),
                    ("max", fnum(h.max())),
                ];
                Value::Object(fields.map(|(k, v)| (k.to_string(), v)).into())
            }
        }
    }

    fn metric_line(&self, m: Metric) -> Value {
        let def = m.def();
        let kind = match def.kind {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        };
        let mut fields = vec![
            ("type".to_string(), Value::Str(kind.to_string())),
            ("metric".to_string(), Value::Str(def.name.to_string())),
            ("unit".to_string(), Value::Str(def.unit.to_string())),
        ];
        match self.value_of(m) {
            Value::Object(summary) => fields.extend(summary),
            value => fields.push(("value".to_string(), value)),
        }
        Value::Object(fields)
    }

    /// Export everything as JSONL (one JSON object per line, registry order,
    /// spans last). With `deterministic_only`, wall-clock entries — flagged
    /// metrics and all spans — are excluded, making the output byte-stable
    /// for a fixed configuration (the golden-test contract).
    pub fn to_jsonl(&self, deterministic_only: bool) -> String {
        let mut out = String::new();
        for m in Metric::ALL {
            if deterministic_only && m.def().wall_clock {
                continue;
            }
            out.push_str(&serde_json::to_string(&self.metric_line(m)).expect("value is a tree"));
            out.push('\n');
        }
        if !deterministic_only {
            for s in self.spans() {
                let v = Value::Object(vec![
                    ("type".to_string(), Value::Str("span".to_string())),
                    ("name".to_string(), Value::Str(s.name.to_string())),
                    ("count".to_string(), Value::UInt(s.count)),
                    ("total_us".to_string(), Value::UInt(s.total_us)),
                    ("max_us".to_string(), Value::UInt(s.max_us)),
                ]);
                out.push_str(&serde_json::to_string(&v).expect("value is a tree"));
                out.push('\n');
            }
        }
        out
    }

    /// Human-readable summary table (the `feves stats` view).
    pub fn render_stats(&self) -> String {
        let mut out = stats_header();
        for m in Metric::ALL {
            out.push_str(&stats_row(m, &self.value_of(m)));
        }
        let spans = self.spans();
        if !spans.is_empty() {
            out.push_str("\nspans (wall-clock):\n");
            for s in spans {
                let mean = s.total_us.checked_div(s.count).unwrap_or(0);
                out.push_str(&format!(
                    "  {:<22} count {:>7}  total {:>10} µs  mean {:>8} µs  max {:>8} µs\n",
                    s.name, s.count, s.total_us, mean, s.max_us
                ));
            }
        }
        out
    }
}

/// A finite float as a JSON number, anything else as `null` (the vendored
/// serde_json rejects NaN and infinities by design).
pub(crate) fn fnum(v: f64) -> Value {
    if v.is_finite() {
        Value::Float(v)
    } else {
        Value::Null
    }
}

/// The column header of the metrics table.
pub(crate) fn stats_header() -> String {
    format!(
        "{:<24} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12}  unit\n",
        "metric", "count", "mean", "p50", "p95", "p99", "max/value"
    )
}

/// One row of the metrics table — the same for a finished run and for a
/// live snapshot: metric `m` holding `value` as
/// [`MemoryRecorder::value_of`] writes it.
pub(crate) fn stats_row(m: Metric, value: &Value) -> String {
    let def = m.def();
    let num = |k| value.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let dashes = |shown: String| {
        let d = "-";
        format!("{d:>10} {d:>10} {d:>10} {d:>10} {d:>10} {shown:>12}")
    };
    let cells = match def.kind {
        MetricKind::Counter => dashes(value.as_u64().unwrap_or(0).to_string()),
        MetricKind::Gauge => dashes(value.as_f64().map_or("-".into(), |v| format!("{v:.2}"))),
        MetricKind::Histogram => format!(
            "{:>10} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>12.2}",
            value.get("count").and_then(Value::as_u64).unwrap_or(0),
            num("mean"),
            num("p50"),
            num("p95"),
            num("p99"),
            num("max"),
        ),
    };
    format!("{:<24} {cells}  {}\n", def.name, def.unit)
}

impl Recorder for MemoryRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, m: Metric, delta: u64) {
        self.counters[m.index()].fetch_add(delta, Ordering::Relaxed);
    }

    fn gauge(&self, m: Metric, value: f64) {
        self.gauges[m.index()].store(value.to_bits(), Ordering::Relaxed);
    }

    fn observe(&self, m: Metric, value: f64) {
        self.histograms[m.index()].observe(value);
    }

    fn span_record(&self, name: &'static str, dur_us: u64) {
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        match spans.iter_mut().find(|s| s.name == name) {
            Some(s) => {
                s.count += 1;
                s.total_us += dur_us;
                s.max_us = s.max_us.max(dur_us);
            }
            None => spans.push(SpanStat {
                name,
                count: 1,
                total_us: dur_us,
                max_us: dur_us,
            }),
        }
    }
}

/// RAII wall-clock span: reports its duration to the recorder on drop.
/// Construct via [`crate::span!`] or [`Span::enter`]; against a disabled
/// recorder the guard holds nothing and drop is free.
#[must_use = "a span measures the scope it is bound to — bind it to a variable"]
pub struct Span {
    rec: Option<Arc<dyn Recorder>>,
    name: &'static str,
    start: Instant,
}

impl Span {
    /// Start a span on `rec` (accepts any `Arc<impl Recorder>` by unsized
    /// coercion).
    pub fn enter(rec: Arc<dyn Recorder>, name: &'static str) -> Span {
        let rec = if rec.enabled() { Some(rec) } else { None };
        Span {
            rec,
            name,
            start: Instant::now(),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(rec) = &self.rec {
            rec.span_record(self.name, self.start.elapsed().as_micros() as u64);
        }
    }
}

/// Open an RAII span on a recorder: `let _g = span!(rec, "balance");`.
/// `rec` is any `Arc<impl Recorder>` expression.
#[macro_export]
macro_rules! span {
    ($rec:expr, $name:expr) => {
        $crate::Span::enter($rec, $name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_inert() {
        let r = NoopRecorder;
        assert!(!r.enabled());
        r.add(Metric::FramesEncoded, 5);
        r.observe(Metric::FrameTauTotMs, 1.0);
        r.span_record("x", 10);
    }

    #[test]
    fn memory_recorder_aggregates() {
        let r = MemoryRecorder::new();
        r.add(Metric::DamBytesTransferred, 100);
        r.add(Metric::DamBytesTransferred, 50);
        assert_eq!(r.counter(Metric::DamBytesTransferred), 150);
        assert_eq!(r.gauge_value(Metric::LbImbalancePct), None);
        r.gauge(Metric::LbImbalancePct, 12.5);
        assert_eq!(r.gauge_value(Metric::LbImbalancePct), Some(12.5));
        r.observe(Metric::FrameTauTotMs, 33.0);
        r.observe(Metric::FrameTauTotMs, 35.0);
        assert_eq!(r.histogram(Metric::FrameTauTotMs).count(), 2);
        r.span_record("a", 10);
        r.span_record("a", 30);
        r.span_record("b", 7);
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "a");
        assert_eq!(spans[0].count, 2);
        assert_eq!(spans[0].total_us, 40);
        assert_eq!(spans[0].max_us, 30);
    }

    #[test]
    fn span_guard_records_on_drop() {
        let rec = Arc::new(MemoryRecorder::new());
        {
            let _g = crate::span!(rec.clone(), "scoped");
            std::hint::black_box(17u64.pow(3));
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "scoped");
        assert_eq!(spans[0].count, 1);
    }

    #[test]
    fn span_against_noop_records_nothing() {
        let rec: Arc<dyn Recorder> = Arc::new(NoopRecorder);
        let g = Span::enter(rec, "ignored");
        assert!(g.rec.is_none(), "disabled recorder must not be retained");
    }

    #[test]
    fn jsonl_deterministic_mode_excludes_wall_clock() {
        let r = MemoryRecorder::new();
        r.observe(Metric::SchedOverheadUs, 123.0);
        r.observe(Metric::FrameTauTotMs, 33.0);
        r.span_record("algorithm2", 99);
        let full = r.to_jsonl(false);
        let det = r.to_jsonl(true);
        assert!(full.contains("sched.overhead_us"));
        assert!(full.contains("\"type\":\"span\""));
        assert!(!det.contains("sched.overhead_us"));
        assert!(!det.contains("span"));
        assert!(det.contains("frame.tau_tot_ms"));
        // Every line parses as JSON.
        for line in det.lines() {
            serde_json::value_from_str(line).expect("valid JSON line");
        }
        // Deterministic export is stable across calls.
        assert_eq!(det, r.to_jsonl(true));
    }

    #[test]
    fn stats_table_mentions_every_metric() {
        let r = MemoryRecorder::new();
        r.observe(Metric::FrameTau1Ms, 10.0);
        r.add(Metric::VcmTasksScheduled, 42);
        r.span_record("vcm.build", 5);
        let table = r.render_stats();
        for m in Metric::ALL {
            assert!(
                table.contains(m.name()),
                "missing {} in:\n{table}",
                m.name()
            );
        }
        assert!(table.contains("vcm.build"));
    }
}
