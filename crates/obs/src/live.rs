//! Live snapshot surface: periodic JSON state dumps of every running
//! telemetry session, written atomically so `feves top` (or any poller)
//! never observes a torn file.
//!
//! Schema `feves-live/1`:
//!
//! ```json
//! {"schema":"feves-live/1","seq":7,"uptime_ms":1834.2,
//!  "bus":{"capacity":65536,"depth":3,"published":41872,"drained":41869,
//!         "dropped":0,
//!         "enqueue_ns":{"count":654,"mean":91.0,"p99":181.0,"max":912.0},
//!         "drain_batch_us":{"count":88,"mean":14.2,"p99":60.1,"max":88.0}},
//!  "sessions":[{"id":1,"label":"sim","frames":120,"fps":29.8,
//!               "dropped_events":0,"ended":false,
//!               "counters":{"frames.encoded":120,"...":0},
//!               "gauges":{"farm.queue_depth":2.0,"...":null},
//!               "histograms":{"frame.tau_tot_ms":{"count":120,"mean":33.1,
//!                             "p50":33.0,"p95":35.2,"p99":36.0,"max":36.4}},
//!               "devices":[{"device":0,"name":"GPU0","busy_pct":87.3,
//!                           "residual_pct":1.2,"blacklisted":false}]}]}
//! ```
//!
//! Every registry metric appears in every session (counters/gauges/
//! histograms keyed by dotted metric name), so the key-path set is stable —
//! that is the golden-schema contract tested in `tests/telemetry.rs`.
//! Sessions whose last handle dropped between ticks are appended from the
//! hub's retirement history with `"ended": true` and the same key paths.
//! Non-finite floats (e.g. the mean of an empty histogram is well-defined
//! but a cleared residual is not) serialize as `null`.

use crate::bus::{BusStats, SelfCost};
use crate::recorder::MemoryRecorder;
use crate::scope::{hub, DeviceLive, RetiredSession, SessionScope};
use crate::{persist, Metric, MetricKind};
use serde::Value;
use std::path::Path;
use std::time::Duration;

/// Schema tag of the live snapshot format.
pub const SCHEMA: &str = "feves-live/1";

/// A finite float serializes as a number, anything else as `null` (the
/// vendored serde_json rejects NaN/inf by design).
fn fnum(v: f64) -> Value {
    if v.is_finite() {
        Value::Float(v)
    } else {
        Value::Null
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn self_cost(c: &SelfCost) -> Value {
    obj(vec![
        ("count", Value::UInt(c.count)),
        ("mean", fnum(c.mean)),
        ("p99", fnum(c.p99)),
        ("max", fnum(c.max)),
    ])
}

/// One session as the snapshot writer sees it — live and retired sessions
/// serialize through the same builder so the key-path set (the
/// golden-schema contract) is identical for both.
struct SessionView<'a> {
    id: u64,
    label: &'a str,
    frames: u64,
    fps: f64,
    dropped: u64,
    ended: bool,
    metrics: &'a MemoryRecorder,
    devices: &'a [DeviceLive],
}

fn session_fields(view: SessionView<'_>) -> Value {
    let SessionView {
        id,
        label,
        frames,
        fps,
        dropped,
        ended,
        metrics: m,
        devices: live_devices,
    } = view;
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    for metric in Metric::ALL {
        let def = metric.def();
        match def.kind {
            MetricKind::Counter => {
                counters.push((def.name.to_string(), Value::UInt(m.counter(metric))));
            }
            MetricKind::Gauge => {
                let v = m.gauge_value(metric).map(fnum).unwrap_or(Value::Null);
                gauges.push((def.name.to_string(), v));
            }
            MetricKind::Histogram => {
                let h = m.histogram(metric);
                histograms.push((
                    def.name.to_string(),
                    obj(vec![
                        ("count", Value::UInt(h.count())),
                        ("mean", fnum(h.mean())),
                        ("p50", fnum(h.percentile(50.0))),
                        ("p95", fnum(h.percentile(95.0))),
                        ("p99", fnum(h.percentile(99.0))),
                        ("max", fnum(h.max())),
                    ]),
                ));
            }
        }
    }
    let devices = live_devices
        .iter()
        .map(|d| {
            obj(vec![
                ("device", Value::UInt(d.device as u64)),
                ("name", Value::Str(d.name.clone())),
                ("busy_pct", fnum(d.busy_pct)),
                (
                    "residual_pct",
                    d.residual_pct.map(fnum).unwrap_or(Value::Null),
                ),
                ("blacklisted", Value::Bool(d.blacklisted)),
            ])
        })
        .collect();
    obj(vec![
        ("id", Value::UInt(id)),
        ("label", Value::Str(label.to_string())),
        ("frames", Value::UInt(frames)),
        ("fps", fnum(fps)),
        ("dropped_events", Value::UInt(dropped)),
        ("ended", Value::Bool(ended)),
        ("counters", Value::Object(counters)),
        ("gauges", Value::Object(gauges)),
        ("histograms", Value::Object(histograms)),
        ("devices", Value::Array(devices)),
    ])
}

fn session_value(scope: &SessionScope) -> Value {
    scope.sync_dropped();
    let metrics = scope.metrics();
    let devices = scope.devices();
    session_fields(SessionView {
        id: scope.id(),
        label: scope.label(),
        frames: scope.frames(),
        fps: scope.fps(),
        dropped: scope.dropped_events(),
        ended: false,
        metrics: &metrics,
        devices: &devices,
    })
}

fn retired_value(r: &RetiredSession) -> Value {
    session_fields(SessionView {
        id: r.id,
        label: &r.label,
        frames: r.frames,
        fps: r.fps,
        dropped: r.dropped,
        ended: true,
        metrics: &r.metrics,
        devices: &r.devices,
    })
}

/// Build one live snapshot over `scopes` (running sessions) and `retired`
/// (recently ended sessions, rendered with `"ended": true`) as a JSON tree.
pub fn build_snapshot(
    seq: u64,
    uptime: Duration,
    bus: Option<&BusStats>,
    scopes: &[SessionScope],
    retired: &[RetiredSession],
) -> Value {
    let bus_value = bus
        .map(|b| {
            obj(vec![
                ("capacity", Value::UInt(b.capacity as u64)),
                ("depth", Value::UInt(b.depth as u64)),
                ("published", Value::UInt(b.published)),
                ("drained", Value::UInt(b.drained)),
                ("dropped", Value::UInt(b.dropped)),
                ("enqueue_ns", self_cost(&b.enqueue_ns)),
                ("drain_batch_us", self_cost(&b.drain_batch_us)),
            ])
        })
        .unwrap_or(Value::Null);
    obj(vec![
        ("schema", Value::Str(SCHEMA.to_string())),
        ("seq", Value::UInt(seq)),
        ("uptime_ms", fnum(uptime.as_secs_f64() * 1_000.0)),
        ("bus", bus_value),
        (
            "sessions",
            Value::Array(
                scopes
                    .iter()
                    .map(session_value)
                    .chain(retired.iter().map(retired_value))
                    .collect(),
            ),
        ),
    ])
}

/// Snapshot every live (non-default) session of this process — plus the
/// hub's retired-session history, so sessions that ended between snapshot
/// ticks still appear once with `"ended": true` — and write the result
/// atomically to `path`.
pub fn write_live(
    path: &Path,
    seq: u64,
    uptime: Duration,
    bus: Option<&BusStats>,
) -> std::io::Result<()> {
    let scopes = hub().scopes();
    let retired = hub().retired();
    let value = build_snapshot(seq, uptime, bus, &scopes, &retired);
    let mut text =
        serde_json::to_string(&value).map_err(|e| std::io::Error::other(format!("{e:?}")))?;
    text.push('\n');
    persist::write_atomic(path, text.as_bytes())
}

/// A parsed live snapshot (schema-checked), with the render surfaces used
/// by `feves top` / `feves stats` / `feves report`.
#[derive(Clone, Debug)]
pub struct LiveSnapshot {
    root: Value,
}

fn get_f64(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

fn get_u64(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_u64)
}

impl LiveSnapshot {
    /// Parse and schema-check one snapshot document.
    pub fn parse(text: &str) -> Result<LiveSnapshot, String> {
        let root = serde_json::value_from_str(text.trim())
            .map_err(|e| format!("live snapshot is not valid JSON: {e:?}"))?;
        let schema = root.get("schema").and_then(Value::as_str);
        if schema != Some(SCHEMA) {
            return Err(format!(
                "not a live snapshot: schema {:?}, expected {SCHEMA:?}",
                schema.unwrap_or("<missing>")
            ));
        }
        if root.get("sessions").and_then(Value::as_array).is_none() {
            return Err("live snapshot has no sessions array".into());
        }
        if root.get("seq").and_then(Value::as_u64).is_none() {
            return Err("live snapshot has no seq".into());
        }
        Ok(LiveSnapshot { root })
    }

    /// Snapshot sequence number (monotonic per writer).
    pub fn seq(&self) -> u64 {
        get_u64(&self.root, "seq").unwrap_or(0)
    }

    /// Writer uptime in milliseconds at snapshot time.
    pub fn uptime_ms(&self) -> f64 {
        get_f64(&self.root, "uptime_ms").unwrap_or(0.0)
    }

    /// The underlying JSON tree.
    pub fn value(&self) -> &Value {
        &self.root
    }

    fn sessions(&self) -> &[Value] {
        self.root
            .get("sessions")
            .and_then(Value::as_array)
            .unwrap_or(&[])
    }

    /// Total telemetry events dropped across the bus and every session
    /// (`obs.dropped_events`) — nonzero means the dashboard's counters
    /// undercount. `feves top` warns on it; `--strict` exits nonzero.
    pub fn dropped_events(&self) -> u64 {
        let bus = self
            .root
            .get("bus")
            .and_then(|b| get_u64(b, "dropped"))
            .unwrap_or(0);
        let sessions: u64 = self
            .sessions()
            .iter()
            .map(|s| get_u64(s, "dropped_events").unwrap_or(0))
            .sum();
        bus + sessions
    }

    /// The refreshing-dashboard view (`feves top`): per-session device rows
    /// with busy bars, residuals and health, plus bus accounting.
    pub fn render_top(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "FEVES live · seq {} · uptime {:.1} s\n",
            self.seq(),
            self.uptime_ms() / 1_000.0
        ));
        let dropped = self.dropped_events();
        if dropped > 0 {
            // Yellow so a lossy bus is impossible to miss: every counter
            // below undercounts by an unknown amount.
            out.push_str(&format!(
                "\x1b[33mwarning: {dropped} telemetry event(s) dropped at a full bus — counters undercount\x1b[0m\n"
            ));
        }
        if let Some(bus) = self.root.get("bus").filter(|b| !matches!(b, Value::Null)) {
            out.push_str(&format!(
                "bus   depth {}/{}   published {}   drained {}   dropped {}\n",
                get_u64(bus, "depth").unwrap_or(0),
                get_u64(bus, "capacity").unwrap_or(0),
                get_u64(bus, "published").unwrap_or(0),
                get_u64(bus, "drained").unwrap_or(0),
                get_u64(bus, "dropped").unwrap_or(0),
            ));
            if let (Some(enq), Some(drn)) = (bus.get("enqueue_ns"), bus.get("drain_batch_us")) {
                out.push_str(&format!(
                    "      enqueue p99 {:.0} ns (n={})   drain batch mean {:.1} µs · max {:.1} µs\n",
                    get_f64(enq, "p99").unwrap_or(0.0),
                    get_u64(enq, "count").unwrap_or(0),
                    get_f64(drn, "mean").unwrap_or(0.0),
                    get_f64(drn, "max").unwrap_or(0.0),
                ));
            }
        }
        for s in self.sessions() {
            out.push('\n');
            let ended = matches!(s.get("ended"), Some(Value::Bool(true)));
            out.push_str(&format!(
                "session {} · {:<16} frames {:>6}   {:>6.1} fps   dropped {}{}\n",
                get_u64(s, "id").unwrap_or(0),
                s.get("label").and_then(Value::as_str).unwrap_or("?"),
                get_u64(s, "frames").unwrap_or(0),
                get_f64(s, "fps").unwrap_or(0.0),
                get_u64(s, "dropped_events").unwrap_or(0),
                if ended { "   [ended]" } else { "" },
            ));
            let devices = s.get("devices").and_then(Value::as_array).unwrap_or(&[]);
            if !devices.is_empty() {
                out.push_str(&format!(
                    "  {:>3}  {:<14} {:<28} {:>9}  state\n",
                    "dev", "name", "busy", "residual"
                ));
                for d in devices {
                    let busy = get_f64(d, "busy_pct").unwrap_or(0.0);
                    let filled = ((busy / 100.0 * 20.0).round() as usize).min(20);
                    let bar: String = "#".repeat(filled) + &".".repeat(20 - filled);
                    let residual = get_f64(d, "residual_pct")
                        .map(|r| format!("{r:+.1}%"))
                        .unwrap_or_else(|| "-".into());
                    let state = match d.get("blacklisted") {
                        Some(Value::Bool(true)) => "BLACKLISTED",
                        _ => "ok",
                    };
                    out.push_str(&format!(
                        "  {:>3}  {:<14} [{bar}] {busy:>5.1}% {residual:>9}  {state}\n",
                        get_u64(d, "device").unwrap_or(0),
                        d.get("name").and_then(Value::as_str).unwrap_or("?"),
                    ));
                }
            }
            // One-line vitals: scheduling overhead + fault/drift counters.
            let hists = s.get("histograms");
            let counters = s.get("counters");
            let sched = hists.and_then(|h| h.get("sched.overhead_us"));
            out.push_str(&format!(
                "  sched.overhead_us p50 {} · p99 {}   drift {}   faults {}/{} recovered\n",
                sched
                    .and_then(|h| get_f64(h, "p50"))
                    .map(|v| format!("{v:.0} µs"))
                    .unwrap_or_else(|| "-".into()),
                sched
                    .and_then(|h| get_f64(h, "p99"))
                    .map(|v| format!("{v:.0} µs"))
                    .unwrap_or_else(|| "-".into()),
                counters
                    .and_then(|c| get_u64(c, "sched.drift"))
                    .unwrap_or(0),
                counters
                    .and_then(|c| get_u64(c, "ft.faults_recovered"))
                    .unwrap_or(0),
                counters
                    .and_then(|c| get_u64(c, "ft.faults_detected"))
                    .unwrap_or(0),
            ));
        }
        out
    }

    /// The tabular view (`feves stats <live.json>`): every metric of every
    /// session, in the same column layout as the final-metrics table.
    pub fn render_stats(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "live snapshot · seq {} · uptime {:.1} s\n",
            self.seq(),
            self.uptime_ms() / 1_000.0
        ));
        for s in self.sessions() {
            out.push_str(&format!(
                "\nsession {} · {} · frames {} · dropped {}\n",
                get_u64(s, "id").unwrap_or(0),
                s.get("label").and_then(Value::as_str).unwrap_or("?"),
                get_u64(s, "frames").unwrap_or(0),
                get_u64(s, "dropped_events").unwrap_or(0),
            ));
            out.push_str(&format!(
                "{:<24} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12}\n",
                "metric", "count", "mean", "p50", "p95", "p99", "max/value"
            ));
            let empty = Value::Object(Vec::new());
            for (name, v) in s
                .get("counters")
                .unwrap_or(&empty)
                .as_object()
                .unwrap_or(&[])
            {
                out.push_str(&format!(
                    "{name:<24} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12}\n",
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    v.as_u64().unwrap_or(0)
                ));
            }
            for (name, v) in s.get("gauges").unwrap_or(&empty).as_object().unwrap_or(&[]) {
                let shown = v
                    .as_f64()
                    .map(|f| format!("{f:.2}"))
                    .unwrap_or_else(|| "-".into());
                out.push_str(&format!(
                    "{name:<24} {:>10} {:>10} {:>10} {:>10} {:>10} {shown:>12}\n",
                    "-", "-", "-", "-", "-",
                ));
            }
            for (name, h) in s
                .get("histograms")
                .unwrap_or(&empty)
                .as_object()
                .unwrap_or(&[])
            {
                out.push_str(&format!(
                    "{name:<24} {:>10} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>12.2}\n",
                    get_u64(h, "count").unwrap_or(0),
                    get_f64(h, "mean").unwrap_or(0.0),
                    get_f64(h, "p50").unwrap_or(0.0),
                    get_f64(h, "p95").unwrap_or(0.0),
                    get_f64(h, "p99").unwrap_or(0.0),
                    get_f64(h, "max").unwrap_or(0.0),
                ));
            }
        }
        out
    }

    /// A short prose summary (`feves report` on a live snapshot).
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "FEVES live report · snapshot seq {} · uptime {:.1} s\n",
            self.seq(),
            self.uptime_ms() / 1_000.0
        ));
        if let Some(bus) = self.root.get("bus").filter(|b| !matches!(b, Value::Null)) {
            let published = get_u64(bus, "published").unwrap_or(0);
            let dropped = get_u64(bus, "dropped").unwrap_or(0);
            out.push_str(&format!(
                "telemetry bus: {published} events published, {dropped} dropped ({})\n",
                if dropped == 0 {
                    "no loss".to_string()
                } else {
                    format!(
                        "{:.2}% loss",
                        dropped as f64 / (published + dropped).max(1) as f64 * 100.0
                    )
                }
            ));
        }
        for s in self.sessions() {
            let frames = get_u64(s, "frames").unwrap_or(0);
            let fps = get_f64(s, "fps").unwrap_or(0.0);
            let devices = s.get("devices").and_then(Value::as_array).unwrap_or(&[]);
            let blacklisted = devices
                .iter()
                .filter(|d| matches!(d.get("blacklisted"), Some(Value::Bool(true))))
                .count();
            out.push_str(&format!(
                "session {} ({}): {frames} frames at {fps:.1} fps on {} devices ({blacklisted} blacklisted)\n",
                get_u64(s, "id").unwrap_or(0),
                s.get("label").and_then(Value::as_str).unwrap_or("?"),
                devices.len(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::TelemetryBus;

    fn sample_scope() -> SessionScope {
        let scope = hub().session("live-test");
        scope.set_device_labels(&["GPU0", "CPU0"]);
        scope.device_sample(0, 87.3, Some(1.2), false);
        scope.device_sample(1, 38.1, None, true);
        let rec = scope.recorder();
        rec.add(Metric::FramesEncoded, 120);
        rec.observe(Metric::FrameTauTotMs, 33.0);
        for _ in 0..120 {
            scope.frame_done();
        }
        scope
    }

    #[test]
    fn snapshot_roundtrips_and_renders() {
        let scope = sample_scope();
        let bus = TelemetryBus::new(1 << 10);
        let value = build_snapshot(
            7,
            Duration::from_millis(1500),
            Some(&bus.stats()),
            &[scope],
            &[],
        );
        let text = serde_json::to_string(&value).expect("serializes despite empty histograms");
        let snap = LiveSnapshot::parse(&text).expect("round-trips");
        assert_eq!(snap.seq(), 7);
        assert!((snap.uptime_ms() - 1500.0).abs() < 1e-6);
        let top = snap.render_top();
        assert!(top.contains("GPU0"), "{top}");
        assert!(top.contains("BLACKLISTED"), "{top}");
        assert!(top.contains("dropped 0"), "{top}");
        let stats = snap.render_stats();
        assert!(stats.contains("frames.encoded"), "{stats}");
        assert!(stats.contains("frame.tau_tot_ms"), "{stats}");
        let summary = snap.render_summary();
        assert!(summary.contains("2 devices (1 blacklisted)"), "{summary}");
    }

    #[test]
    fn session_ended_between_ticks_appears_in_snapshot() {
        let label = "ended-between-ticks";
        {
            let scope = hub().session(label);
            scope.recorder().add(Metric::FramesEncoded, 9);
            scope.frame_done();
        } // last handle gone before any snapshot tick
        let retired = hub().retired();
        let value = build_snapshot(1, Duration::from_millis(50), None, &[], &retired);
        let text = serde_json::to_string(&value).unwrap();
        let snap = LiveSnapshot::parse(&text).unwrap();
        let s = snap
            .sessions()
            .iter()
            .find(|s| s.get("label").and_then(Value::as_str) == Some(label))
            .expect("retired session must appear in the snapshot")
            .clone();
        assert!(matches!(s.get("ended"), Some(Value::Bool(true))));
        assert_eq!(s.get("frames").and_then(Value::as_u64), Some(1));
        assert_eq!(
            s.get("counters")
                .and_then(|c| c.get("frames.encoded"))
                .and_then(Value::as_u64),
            Some(9)
        );
        assert!(snap.render_top().contains("[ended]"));
    }

    #[test]
    fn dropped_events_sum_bus_and_sessions_and_warn() {
        let clean = "{\"schema\":\"feves-live/1\",\"seq\":1,\"sessions\":[]}";
        let snap = LiveSnapshot::parse(clean).unwrap();
        assert_eq!(snap.dropped_events(), 0);
        assert!(!snap.render_top().contains("warning:"));
        let lossy = "{\"schema\":\"feves-live/1\",\"seq\":1,\
                     \"bus\":{\"dropped\":3},\
                     \"sessions\":[{\"id\":1,\"dropped_events\":2},\
                                   {\"id\":2,\"dropped_events\":0}]}";
        let snap = LiveSnapshot::parse(lossy).unwrap();
        assert_eq!(snap.dropped_events(), 5);
        let top = snap.render_top();
        assert!(
            top.contains("warning: 5 telemetry event(s) dropped"),
            "{top}"
        );
        assert!(top.contains("\x1b[33m"), "warning renders yellow: {top}");
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        assert!(LiveSnapshot::parse("{}").is_err());
        assert!(LiveSnapshot::parse("{\"schema\":\"feves-live/0\"}").is_err());
        assert!(LiveSnapshot::parse("not json").is_err());
        let minimal = "{\"schema\":\"feves-live/1\",\"seq\":1,\"sessions\":[]}";
        assert!(LiveSnapshot::parse(minimal).is_ok());
    }

    #[test]
    fn write_live_is_atomic_and_parseable() {
        let _scope = sample_scope();
        let dir = std::env::temp_dir().join(format!("feves-live-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("live.json");
        write_live(&path, 3, Duration::from_millis(10), None).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let snap = LiveSnapshot::parse(&text).unwrap();
        assert!(snap.seq() >= 3);
        assert!(!snap.sessions().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
