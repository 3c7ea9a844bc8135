//! Per-frame schedule traces: the simulated Fig 4 timeline as inspectable
//! data — JSON for tooling, ASCII Gantt for the terminal, Chrome
//! trace-event JSON for Perfetto.

use crate::vcm::FrameGraph;
use feves_hetsim::platform::Platform;
use feves_hetsim::timeline::{Dir, Schedule, TaskKind};
use feves_obs::ChromeTraceBuilder;
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::str::FromStr;

/// Which engine of a device a lane represents.
///
/// Ordering (after device index) fixes the lane display order: compute,
/// interpolation engine, then the two copy engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LaneKind {
    /// Main compute queue (kernels).
    Compute,
    /// Accelerator interpolation engine (INT overlaps ME on GPUs).
    Interp,
    /// Host-to-device copy engine.
    H2d,
    /// Device-to-host copy engine.
    D2h,
}

impl LaneKind {
    /// Short suffix used in lane names ("" for compute).
    pub fn suffix(self) -> &'static str {
        match self {
            LaneKind::Compute => "",
            LaneKind::Interp => " int",
            LaneKind::H2d => " h2d",
            LaneKind::D2h => " d2h",
        }
    }

    /// Category string for Chrome trace events.
    pub fn category(self) -> &'static str {
        match self {
            LaneKind::Compute => "compute",
            LaneKind::Interp => "interp",
            LaneKind::H2d => "transfer",
            LaneKind::D2h => "transfer",
        }
    }
}

/// An execution lane of the timeline: one engine of one device.
///
/// Lanes order numerically by device index then [`LaneKind`], so `dev10`
/// sorts after `dev2` (the old string lanes sorted lexically and would
/// interleave them).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lane {
    /// Device index in the platform.
    pub device: usize,
    /// Engine within the device.
    pub kind: LaneKind,
}

impl Lane {
    /// Compute lane of `device`.
    pub fn compute(device: usize) -> Self {
        Lane {
            device,
            kind: LaneKind::Compute,
        }
    }

    /// Interpolation-engine lane of `device`.
    pub fn interp(device: usize) -> Self {
        Lane {
            device,
            kind: LaneKind::Interp,
        }
    }

    /// Copy-engine lane of `device` in direction `dir`.
    pub fn transfer(device: usize, dir: Dir) -> Self {
        Lane {
            device,
            kind: match dir {
                Dir::H2d => LaneKind::H2d,
                Dir::D2h => LaneKind::D2h,
            },
        }
    }

    /// True for the copy-engine lanes.
    pub fn is_transfer(self) -> bool {
        matches!(self.kind, LaneKind::H2d | LaneKind::D2h)
    }
}

impl fmt::Display for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}{}", self.device, self.kind.suffix())
    }
}

impl FromStr for Lane {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let rest = s
            .strip_prefix("dev")
            .ok_or_else(|| format!("lane must start with 'dev': {s:?}"))?;
        let (digits, suffix) = match rest.find(' ') {
            Some(i) => rest.split_at(i),
            None => (rest, ""),
        };
        let device: usize = digits
            .parse()
            .map_err(|_| format!("bad device index in lane {s:?}"))?;
        let kind = match suffix {
            "" => LaneKind::Compute,
            " int" => LaneKind::Interp,
            " h2d" => LaneKind::H2d,
            " d2h" => LaneKind::D2h,
            other => return Err(format!("unknown lane suffix {other:?}")),
        };
        Ok(Lane { device, kind })
    }
}

// Lanes serialize as their display string ("dev0 h2d"), keeping trace JSON
// identical to the earlier string-lane format.
impl Serialize for Lane {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for Lane {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let s = v
            .as_str()
            .ok_or_else(|| serde::Error::msg("lane must be a string"))?;
        s.parse().map_err(serde::Error::msg)
    }
}

/// One executed task in a frame's schedule.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TraceTask {
    /// Human-readable label (module/stream + device).
    pub label: String,
    /// Executing lane (serialized as `"dev0"`, `"dev0 int"`, `"dev0 h2d"`,
    /// `"dev0 d2h"`).
    pub lane: Lane,
    /// Start time in milliseconds on the virtual clock.
    pub start_ms: f64,
    /// End time in milliseconds.
    pub end_ms: f64,
}

/// A frame's complete simulated timeline.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FrameTrace {
    /// Every non-barrier task, ordered by start time.
    pub tasks: Vec<TraceTask>,
    /// τ1 in ms.
    pub tau1_ms: f64,
    /// τ2 in ms.
    pub tau2_ms: f64,
    /// τtot in ms.
    pub tau_tot_ms: f64,
}

impl FrameTrace {
    /// Extract a trace from a simulated frame graph.
    pub fn capture(fg: &FrameGraph, sched: &Schedule, platform: &Platform) -> Self {
        let mut tasks = Vec::new();
        for (id, t) in fg.graph.iter() {
            let lane = match &t.kind {
                TaskKind::Compute { device, module, .. } => {
                    let dev = &platform.devices[device.0];
                    if dev.is_accelerator() && matches!(module, feves_codec::types::Module::Interp)
                    {
                        Lane::interp(device.0)
                    } else {
                        Lane::compute(device.0)
                    }
                }
                TaskKind::Transfer { device, dir, .. } => Lane::transfer(device.0, *dir),
                TaskKind::Barrier => continue,
            };
            tasks.push(TraceTask {
                label: t.label.clone(),
                lane,
                start_ms: sched.start[id.0] * 1e3,
                end_ms: sched.finish[id.0] * 1e3,
            });
        }
        tasks.sort_by(|a, b| a.start_ms.partial_cmp(&b.start_ms).unwrap());
        FrameTrace {
            tasks,
            tau1_ms: sched.finish_of(fg.tau1) * 1e3,
            tau2_ms: sched.finish_of(fg.tau2) * 1e3,
            tau_tot_ms: sched.finish_of(fg.tau_tot) * 1e3,
        }
    }

    /// The distinct lanes of this trace, in display order (device index,
    /// then engine).
    pub fn lanes(&self) -> Vec<Lane> {
        let mut lanes: Vec<Lane> = Vec::new();
        for t in &self.tasks {
            if !lanes.contains(&t.lane) {
                lanes.push(t.lane);
            }
        }
        lanes.sort();
        lanes
    }

    /// Render an ASCII Gantt chart, `width` characters across the frame.
    pub fn render_gantt(&self, width: usize) -> String {
        let total = self.tau_tot_ms.max(1e-9);
        let scale = width as f64 / total;
        let mut lanes: Vec<(Lane, Vec<&TraceTask>)> = Vec::new();
        for t in &self.tasks {
            match lanes.iter_mut().find(|(l, _)| *l == t.lane) {
                Some((_, v)) => v.push(t),
                None => lanes.push((t.lane, vec![t])),
            }
        }
        lanes.sort_by_key(|a| a.0);
        let mut out = String::new();
        out.push_str(&format!(
            "frame timeline: tau1 {:.2} ms | tau2 {:.2} ms | tau_tot {:.2} ms\n",
            self.tau1_ms, self.tau2_ms, self.tau_tot_ms
        ));
        let t1 = (self.tau1_ms * scale).round() as usize;
        let t2 = (self.tau2_ms * scale).round() as usize;
        for (lane, tasks) in &lanes {
            let mut row = vec![b'.'; width];
            for t in tasks {
                let s = ((t.start_ms * scale) as usize).min(width.saturating_sub(1));
                let e = ((t.end_ms * scale).ceil() as usize).clamp(s + 1, width);
                let ch = glyph(&t.label);
                for c in row.iter_mut().take(e).skip(s) {
                    *c = ch;
                }
            }
            if t1 < width {
                row[t1] = b'|';
            }
            if t2 < width {
                row[t2] = b'|';
            }
            // Pad the rendered name, not the Display impl (write!-based
            // Display does not honor width specifiers).
            let name = lane.to_string();
            out.push_str(&format!("{name:>9} {}\n", String::from_utf8_lossy(&row)));
        }
        out.push_str("legend: M=ME I=INT S=SME R=R* c=CF r=RF s=SF v=MV  |=tau\n");
        out
    }

    /// Build a Chrome trace-event (Perfetto-compatible) view of the frame:
    /// one named thread per lane, one `"X"` complete event per task, and
    /// instant markers at the τ1/τ2/τtot synchronisation points. `ts`/`dur`
    /// are in microseconds of the *virtual* clock, so the export is
    /// deterministic for a fixed configuration.
    pub fn to_chrome_trace(&self) -> ChromeTraceBuilder {
        const PID: u64 = 0;
        let mut b = ChromeTraceBuilder::new();
        b.process_name(PID, "feves simulated timeline");
        let lanes = self.lanes();
        for (i, lane) in lanes.iter().enumerate() {
            b.thread_name(PID, i as u64 + 1, &lane.to_string());
        }
        let sync_tid = lanes.len() as u64 + 1;
        b.thread_name(PID, sync_tid, "sync points");
        for t in &self.tasks {
            let tid = lanes.iter().position(|l| *l == t.lane).expect("known lane") as u64 + 1;
            b.complete(
                PID,
                tid,
                &t.label,
                t.lane.kind.category(),
                t.start_ms * 1e3,
                (t.end_ms - t.start_ms) * 1e3,
            );
        }
        b.instant(PID, sync_tid, "tau1", self.tau1_ms * 1e3);
        b.instant(PID, sync_tid, "tau2", self.tau2_ms * 1e3);
        b.instant(PID, sync_tid, "tau_tot", self.tau_tot_ms * 1e3);
        b
    }
}

fn glyph(label: &str) -> u8 {
    if label.starts_with("ME") {
        b'M'
    } else if label.starts_with("INT") {
        b'I'
    } else if label.starts_with("SME") {
        b'S'
    } else if label.starts_with("Mc")
        || label.starts_with("Tq")
        || label.starts_with("Itq")
        || label.starts_with("Dbl")
    {
        b'R'
    } else if label.starts_with("CF") {
        b'c'
    } else if label.starts_with("RF") {
        b'r'
    } else if label.starts_with("SF") {
        b's'
    } else if label.starts_with("MV") {
        b'v'
    } else {
        b'#'
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dam::DataManager;
    use crate::vcm::{build_frame_graph, FrameGeometry};
    use feves_codec::types::EncodeParams;
    use feves_hetsim::noise::Deterministic;
    use feves_hetsim::timeline::simulate;
    use feves_sched::Distribution;

    fn traced_frame() -> FrameTrace {
        let p = Platform::sys_hk();
        let dist = Distribution::equidistant(68, p.len(), 0);
        let dam = DataManager::new(68, p.len());
        let mask: Vec<bool> = p.devices.iter().map(|d| d.is_accelerator()).collect();
        let plan = dam.plan(&dist, &mask, true);
        let geo = FrameGeometry {
            mb_cols: 120,
            n_rows: 68,
            width: 1920,
        };
        let fg = build_frame_graph(&dist, &plan, &p, &EncodeParams::default(), geo, true);
        let sched = simulate(&fg.graph, &p, &p.nominal_speeds(), &mut Deterministic).unwrap();
        FrameTrace::capture(&fg, &sched, &p)
    }

    #[test]
    fn trace_is_ordered_and_consistent() {
        let tr = traced_frame();
        assert!(!tr.tasks.is_empty());
        assert!(tr.tau1_ms <= tr.tau2_ms && tr.tau2_ms <= tr.tau_tot_ms);
        for w in tr.tasks.windows(2) {
            assert!(w[0].start_ms <= w[1].start_ms, "must be sorted by start");
        }
        for t in &tr.tasks {
            assert!(t.end_ms >= t.start_ms);
            assert!(t.end_ms <= tr.tau_tot_ms + 1e-9);
        }
    }

    #[test]
    fn gantt_renders_all_lanes() {
        let tr = traced_frame();
        let g = tr.render_gantt(60);
        assert!(g.contains("dev0"), "GPU lane missing:\n{g}");
        assert!(g.contains("dev0 h2d"), "H2D lane missing:\n{g}");
        assert!(g.contains("dev1"), "CPU core lane missing:\n{g}");
        assert!(g.contains('M') && g.contains('S'), "kernels missing:\n{g}");
        assert!(g.contains("tau_tot"));
    }

    #[test]
    fn trace_serializes() {
        let tr = traced_frame();
        let json = serde_json::to_string(&tr).unwrap();
        assert!(
            json.contains("\"dev0 h2d\""),
            "lane must serialize as string"
        );
        let back: FrameTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back.tasks.len(), tr.tasks.len());
        assert_eq!(back.tasks[0].lane, tr.tasks[0].lane);
    }

    #[test]
    fn lane_display_parse_roundtrip() {
        for lane in [
            Lane::compute(0),
            Lane::interp(3),
            Lane::transfer(12, Dir::H2d),
            Lane::transfer(12, Dir::D2h),
        ] {
            let s = lane.to_string();
            assert_eq!(s.parse::<Lane>().unwrap(), lane, "roundtrip of {s:?}");
        }
        assert_eq!(Lane::compute(7).to_string(), "dev7");
        assert_eq!(Lane::interp(7).to_string(), "dev7 int");
        assert_eq!(Lane::transfer(7, Dir::H2d).to_string(), "dev7 h2d");
        assert!("gpu0".parse::<Lane>().is_err());
        assert!("devx".parse::<Lane>().is_err());
        assert!("dev0 foo".parse::<Lane>().is_err());
    }

    #[test]
    fn lanes_order_numerically_not_lexically() {
        // The old string lanes sorted "dev10" before "dev2"; the structured
        // Lane must order by device index.
        let mut lanes = vec![
            Lane::compute(10),
            Lane::compute(2),
            Lane::transfer(2, Dir::H2d),
            Lane::interp(2),
        ];
        lanes.sort();
        assert_eq!(
            lanes,
            vec![
                Lane::compute(2),
                Lane::interp(2),
                Lane::transfer(2, Dir::H2d),
                Lane::compute(10),
            ]
        );
    }

    #[test]
    fn chrome_trace_covers_all_tasks_and_lanes() {
        let tr = traced_frame();
        let n_lanes = tr.lanes().len();
        let b = tr.to_chrome_trace();
        // process_name + (lanes + sync) thread_names + tasks + 3 instants.
        assert_eq!(b.len(), 1 + n_lanes + 1 + tr.tasks.len() + 3);
        let json = b.to_json();
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"tau_tot\""));
        assert!(json.contains("\"ph\":\"X\""));
        serde_json::value_from_str(&json).expect("valid JSON");
    }
}
