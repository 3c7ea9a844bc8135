//! Live snapshot surface: periodic JSON state dumps of every running
//! telemetry session, written atomically so `feves top` (or any poller)
//! never observes a torn file.
//!
//! One [`LiveWriter`] thread writes them: it sleeps a period on its stop
//! channel, snapshots every hub session's registry, writes the file, and at
//! [`LiveWriter::stop`] writes one final snapshot. Recording never waits on
//! it — sessions record straight into their registries (see
//! [`crate::scope`]), and the writer only reads them.
//!
//! Schema `feves-live/2`:
//!
//! ```json
//! {"schema":"feves-live/2","seq":7,"uptime_ms":1834.2,
//!  "sessions":[{"id":1,"label":"sim","frames":120,"fps":29.8,"ended":false,
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
//! Non-finite floats (an unwritten gauge, a cleared residual) serialize as
//! `null`.

use crate::recorder::{fnum, stats_header, stats_row, MemoryRecorder};
use crate::scope::{hub, DeviceLive, RetiredSession, SessionScope};
use crate::{persist, Metric};
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Schema tag of the live snapshot format.
pub const SCHEMA: &str = "feves-live/2";

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The snapshot object each [`crate::MetricKind`] is filed under, in kind
/// order.
const GROUPS: [&str; 3] = ["counters", "gauges", "histograms"];

/// One session as the snapshot writer sees it — live and retired sessions
/// serialize through the same builder so the key-path set (the
/// golden-schema contract) is identical for both.
struct SessionView<'a> {
    id: u64,
    label: &'a str,
    frames: u64,
    fps: f64,
    ended: bool,
    metrics: &'a MemoryRecorder,
    devices: &'a [DeviceLive],
}

fn session_fields(view: SessionView<'_>) -> Value {
    let mut groups: [Vec<(String, Value)>; 3] = Default::default();
    for metric in Metric::ALL {
        let def = metric.def();
        groups[def.kind as usize].push((def.name.to_string(), view.metrics.value_of(metric)));
    }
    let devices = (view.devices.iter())
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
    let mut fields = vec![
        ("id", Value::UInt(view.id)),
        ("label", Value::Str(view.label.to_string())),
        ("frames", Value::UInt(view.frames)),
        ("fps", fnum(view.fps)),
        ("ended", Value::Bool(view.ended)),
    ];
    fields.extend(GROUPS.into_iter().zip(groups.map(Value::Object)));
    fields.push(("devices", Value::Array(devices)));
    obj(fields)
}

fn session_value(scope: &SessionScope) -> Value {
    let metrics = scope.metrics();
    let devices = scope.devices();
    session_fields(SessionView {
        id: scope.id(),
        label: scope.label(),
        frames: scope.frames(),
        fps: scope.fps(),
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
    scopes: &[SessionScope],
    retired: &[RetiredSession],
) -> Value {
    obj(vec![
        ("schema", Value::Str(SCHEMA.to_string())),
        ("seq", Value::UInt(seq)),
        ("uptime_ms", fnum(uptime.as_secs_f64() * 1_000.0)),
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

/// Snapshot every live session of this process — plus the hub's
/// retired-session history, so sessions that ended between snapshot ticks
/// still appear once with `"ended": true` — and write the result
/// atomically to `path`.
fn write_live(path: &Path, seq: u64, uptime: Duration) -> std::io::Result<()> {
    let value = build_snapshot(seq, uptime, &hub().scopes(), &hub().retired());
    let mut text =
        serde_json::to_string(&value).map_err(|e| std::io::Error::other(format!("{e:?}")))?;
    text.push('\n');
    persist::write_atomic(path, text.as_bytes())
}

/// Where a [`LiveWriter`] writes, and how often.
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// Snapshot destination (written atomically: temp + fsync + rename).
    pub path: PathBuf,
    /// Interval between snapshot writes.
    pub period: Duration,
}

/// The live-snapshot writer: one thread that writes a snapshot every
/// `period` and a final one at [`LiveWriter::stop`]. Between snapshots it
/// blocks on its stop channel, so it costs no CPU there.
pub struct LiveWriter {
    /// Dropping the sender is the stop signal.
    running: Option<(Sender<()>, JoinHandle<()>)>,
}

impl LiveWriter {
    /// Start the writer thread.
    pub fn start(cfg: LiveConfig) -> LiveWriter {
        let (stop, stopped) = mpsc::channel::<()>();
        let thread = std::thread::Builder::new()
            .name("feves-live".into())
            .spawn(move || {
                let started = Instant::now();
                for seq in 1.. {
                    // A timeout is the next tick; a disconnect is `stop`.
                    let last = !matches!(
                        stopped.recv_timeout(cfg.period),
                        Err(RecvTimeoutError::Timeout)
                    );
                    // A failed write is retried by the next tick: telemetry
                    // never takes the encoder down.
                    let _ = write_live(&cfg.path, seq, started.elapsed());
                    if last {
                        return;
                    }
                }
            })
            .expect("spawn live snapshot writer");
        LiveWriter {
            running: Some((stop, thread)),
        }
    }

    /// Write the final snapshot and join the thread. After `stop` returns
    /// the file holds every record made before the call. Idempotent; also
    /// runs on drop.
    pub fn stop(&mut self) {
        if let Some((stop, thread)) = self.running.take() {
            drop(stop);
            // A writer that panicked must not take the encoder down with it
            // at shutdown.
            let _ = thread.join();
        }
    }
}

impl Drop for LiveWriter {
    fn drop(&mut self) {
        self.stop();
    }
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

    /// The refreshing-dashboard view (`feves top`): per-session device rows
    /// with busy bars, residuals and health.
    pub fn render_top(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "FEVES live · seq {} · uptime {:.1} s\n",
            self.seq(),
            self.uptime_ms() / 1_000.0
        ));
        for s in self.sessions() {
            out.push('\n');
            let ended = matches!(s.get("ended"), Some(Value::Bool(true)));
            out.push_str(&format!(
                "session {} · {:<16} frames {:>6}   {:>6.1} fps{}\n",
                get_u64(s, "id").unwrap_or(0),
                s.get("label").and_then(Value::as_str).unwrap_or("?"),
                get_u64(s, "frames").unwrap_or(0),
                get_f64(s, "fps").unwrap_or(0.0),
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
    /// session, in the same rows and columns as the final-metrics table.
    pub fn render_stats(&self) -> String {
        let mut out = format!(
            "live snapshot · seq {} · uptime {:.1} s\n",
            self.seq(),
            self.uptime_ms() / 1_000.0
        );
        for s in self.sessions() {
            out.push_str(&format!(
                "\nsession {} · {} · frames {}\n",
                get_u64(s, "id").unwrap_or(0),
                s.get("label").and_then(Value::as_str).unwrap_or("?"),
                get_u64(s, "frames").unwrap_or(0),
            ));
            out.push_str(&stats_header());
            for m in Metric::ALL {
                let def = m.def();
                let value = (s.get(GROUPS[def.kind as usize])).and_then(|g| g.get(def.name));
                out.push_str(&stats_row(m, value.unwrap_or(&Value::Null)));
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
        let value = build_snapshot(7, Duration::from_millis(1500), &[scope], &[]);
        let text = serde_json::to_string(&value).expect("serializes despite empty histograms");
        let snap = LiveSnapshot::parse(&text).expect("round-trips");
        assert_eq!(snap.seq(), 7);
        assert!((snap.uptime_ms() - 1500.0).abs() < 1e-6);
        let top = snap.render_top();
        assert!(top.contains("GPU0"), "{top}");
        assert!(top.contains("BLACKLISTED"), "{top}");
        let stats = snap.render_stats();
        assert!(stats.contains("frames.encoded"), "{stats}");
        assert!(stats.contains("frame.tau_tot_ms"), "{stats}");
        let summary = snap.render_summary();
        assert!(summary.contains("2 devices (1 blacklisted)"), "{summary}");
    }

    #[test]
    fn live_and_final_tables_share_their_rows() {
        let scope = sample_scope();
        let value = build_snapshot(1, Duration::ZERO, std::slice::from_ref(&scope), &[]);
        let snap = LiveSnapshot::parse(&serde_json::to_string(&value).unwrap()).unwrap();
        let live = snap.render_stats();
        let table = scope.metrics().render_stats();
        let rows = table.split("\nspans").next().unwrap();
        assert!(live.contains(rows), "live:\n{live}\nfinal:\n{rows}");
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
        let value = build_snapshot(1, Duration::from_millis(50), &[], &retired);
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
    fn parse_rejects_wrong_schema() {
        assert!(LiveSnapshot::parse("{}").is_err());
        assert!(
            LiveSnapshot::parse("{\"schema\":\"feves-live/1\",\"seq\":1,\"sessions\":[]}").is_err()
        );
        assert!(LiveSnapshot::parse("not json").is_err());
        let minimal = "{\"schema\":\"feves-live/2\",\"seq\":1,\"sessions\":[]}";
        assert!(LiveSnapshot::parse(minimal).is_ok());
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("feves-live-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("live.json")
    }

    fn read_snapshot(path: &Path) -> LiveSnapshot {
        LiveSnapshot::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    #[test]
    fn the_writer_writes_a_final_snapshot_at_stop() {
        let scope = sample_scope();
        let path = temp_path("final");
        // A period no test outlives: the only snapshot is the final one.
        let mut writer = LiveWriter::start(LiveConfig {
            path: path.clone(),
            period: Duration::from_secs(3600),
        });
        scope.recorder().add(Metric::FramesEncoded, 1);
        writer.stop();
        let snap = read_snapshot(&path);
        assert_eq!(snap.seq(), 1);
        let ours = (snap.sessions().iter())
            .find(|s| s.get("id").and_then(Value::as_u64) == Some(scope.id()))
            .expect("the live session is in the final snapshot");
        let encoded = ours
            .get("counters")
            .and_then(|c| get_u64(c, "frames.encoded"));
        assert_eq!(encoded, Some(121), "a record made before stop is in it");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn the_writer_ticks_with_increasing_seq() {
        let _scope = sample_scope();
        let path = temp_path("ticks");
        let mut writer = LiveWriter::start(LiveConfig {
            path: path.clone(),
            period: Duration::from_millis(2),
        });
        let mut seen = Vec::new();
        while seen.len() < 3 {
            if let Ok(text) = std::fs::read_to_string(&path) {
                let seq = LiveSnapshot::parse(&text).unwrap().seq();
                if seen.last() != Some(&seq) {
                    seen.push(seq);
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        writer.stop();
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "{seen:?}");
        assert!(
            read_snapshot(&path).seq() > seen[2],
            "the final one comes last"
        );
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn stop_is_idempotent_and_drop_safe() {
        let path = temp_path("stop");
        let mut writer = LiveWriter::start(LiveConfig {
            path: path.clone(),
            period: Duration::from_secs(3600),
        });
        writer.stop();
        writer.stop();
        assert_eq!(read_snapshot(&path).seq(), 1, "one final snapshot, not two");
        drop(writer);
        drop(LiveWriter::start(LiveConfig {
            path: path.clone(),
            period: Duration::from_secs(3600),
        }));
        assert_eq!(read_snapshot(&path).seq(), 1, "drop stops and writes too");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
