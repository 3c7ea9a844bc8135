//! The simulated Fig 4 frame as inspectable data, read straight off the
//! accepted attempt's `(FrameGraph, Schedule)`: a one-trace span log for
//! tooling and Perfetto ([`frame_log`]), and an ASCII Gantt chart for the
//! terminal ([`render_gantt`]).

use crate::vcm::FrameGraph;
use feves_codec::types::Module;
use feves_hetsim::platform::Platform;
use feves_hetsim::timeline::{Dir, Schedule, TaskId, TaskKind, TransferTag};
use feves_obs::trace::{engine_track, fnv1a64, DeviceSlice, TraceArg, ENGINES};
use feves_obs::{TauTriple, TraceCollector, TraceCtx, TraceLog, TraceSink};
use std::sync::Arc;
use std::time::Instant;

/// The row a task runs on: its device and its engine, an index into
/// [`ENGINES`]. An accelerator's INT has an engine of its own (it overlaps
/// ME); a CPU core runs every kernel on its one queue. `None` for a barrier.
fn lane_of(kind: &TaskKind, platform: &Platform) -> Option<(usize, usize)> {
    match kind {
        TaskKind::Compute { device, module, .. } => {
            let interp = *module == Module::Interp && platform.devices[device.0].is_accelerator();
            Some((device.0, usize::from(interp)))
        }
        TaskKind::Transfer { device, dir, .. } => Some((device.0, 2 + (*dir == Dir::D2h) as usize)),
        TaskKind::Barrier => None,
    }
}

/// Every non-barrier task with its row, in start order with ties in graph
/// order (a stable sort on the millisecond start) — the order busy time is
/// summed in and the Gantt chart is drawn in.
pub(crate) fn timeline(
    fg: &FrameGraph,
    sched: &Schedule,
    platform: &Platform,
) -> Vec<(TaskId, (usize, usize))> {
    let mut tasks: Vec<_> = (fg.graph.iter())
        .filter_map(|(id, t)| Some((id, lane_of(&t.kind, platform)?)))
        .collect();
    let start_ms = |id: TaskId| sched.start[id.0] * 1e3;
    tasks.sort_by(|a, b| start_ms(a.0).partial_cmp(&start_ms(b.0)).unwrap());
    tasks
}

/// Record frame span `name` under `sink`, `start` to `start + dur` µs —
/// its arguments the sync points `tau` (ms from `start`) and then `extra` —
/// with its `phase1`, `phase2` and `tail` children at those sync points.
/// Returns the sink the frame's further children go under.
pub(crate) fn record_frame(
    sink: &TraceSink,
    name: &str,
    start: f64,
    dur: f64,
    tau: TauTriple,
    devices: Vec<DeviceSlice>,
    extra: &[(&str, f64)],
) -> TraceSink {
    let taus = [
        ("tau1_ms", tau.tau1_ms),
        ("tau2_ms", tau.tau2_ms),
        ("tau_tot_ms", tau.tau_tot_ms),
    ];
    let args = (taus.iter().chain(extra))
        .map(|&(k, v)| TraceArg { k: k.into(), v })
        .collect();
    let frame = sink.under(sink.record_full(name, "frame", start, dur, devices, args));
    let [t1, t2, tt] = [tau.tau1_ms, tau.tau2_ms, tau.tau_tot_ms].map(|ms| ms * 1e3);
    frame.record("phase1", "phase", start, t1);
    frame.record("phase2", "phase", start + t1, (t2 - t1).max(0.0));
    frame.record("tail", "phase", start + t2.min(tt), (tt - t2).max(0.0));
    frame
}

/// The sync points of `sched`, milliseconds.
fn taus(fg: &FrameGraph, sched: &Schedule) -> TauTriple {
    let [tau1_ms, tau2_ms, tau_tot_ms] =
        [fg.tau1, fg.tau2, fg.tau_tot].map(|t| sched.finish_of(t) * 1e3);
    TauTriple {
        tau1_ms,
        tau2_ms,
        tau_tot_ms,
    }
}

/// The schedule as a one-trace log on the virtual clock (µs from the
/// frame start): a root `frame` span carrying τ1/τ2/τtot, its phase
/// children, and one span per kernel or transfer — named by its task
/// label, its category its engine, its one [`DeviceSlice`] its device and
/// busy ms (rows are not tracked per task, so 0). The trace id hashes the
/// platform name.
pub fn frame_log(fg: &FrameGraph, sched: &Schedule, platform: &Platform) -> TraceLog {
    let collector = Arc::new(TraceCollector::new());
    let ctx = TraceCtx {
        trace_id: fnv1a64(platform.name.as_bytes()),
        parent_span: 0,
    };
    let tau = taus(fg, sched);
    let root = TraceSink::new(collector.clone(), ctx, Instant::now());
    let frame = record_frame(&root, "frame", 0.0, tau.tau_tot_ms * 1e3, tau, vec![], &[]);
    for (id, t) in fg.graph.iter() {
        let Some((device, engine)) = lane_of(&t.kind, platform) else {
            continue;
        };
        let (start_ms, end_ms) = (sched.start[id.0] * 1e3, sched.finish[id.0] * 1e3);
        let busy_ms = end_ms - start_ms;
        let slice = DeviceSlice {
            device,
            rows: 0,
            busy_ms,
        };
        let (start, dur) = (start_ms * 1e3, busy_ms * 1e3);
        frame.record_full(&t.label, ENGINES[engine], start, dur, vec![slice], vec![]);
    }
    collector.snapshot()
}

/// The Gantt glyph of a task: ME→`M`, INT→`I`, SME→`S`, the R\* modules
/// →`R`, and each transfer by its buffer: CF/RF/SF/MV → `c`/`r`/`s`/`v`.
fn glyph(kind: &TaskKind) -> u8 {
    match kind {
        TaskKind::Compute { module, .. } => match module {
            Module::Me => b'M',
            Module::Interp => b'I',
            Module::Sme => b'S',
            Module::Mc | Module::Tq | Module::Itq | Module::Dbl => b'R',
        },
        TaskKind::Transfer { tag, .. } => match tag {
            TransferTag::Cf => b'c',
            TransferTag::Rf => b'r',
            TransferTag::Sf => b's',
            TransferTag::Mv => b'v',
        },
        TaskKind::Barrier => unreachable!("a barrier runs on no row"),
    }
}

/// Render the ASCII Gantt chart of the schedule, `width` characters across
/// the frame: one row per (device, engine) that ran a task, in device then
/// engine order, named like its Perfetto track.
pub fn render_gantt(
    fg: &FrameGraph,
    sched: &Schedule,
    platform: &Platform,
    width: usize,
) -> String {
    let tau = taus(fg, sched);
    let scale = width as f64 / tau.tau_tot_ms.max(1e-9);
    let tasks = timeline(fg, sched, platform);
    let mut rows: Vec<(usize, usize)> = tasks.iter().map(|t| t.1).collect();
    rows.sort_unstable();
    rows.dedup();
    let mut out = format!(
        "frame timeline: tau1 {:.2} ms | tau2 {:.2} ms | tau_tot {:.2} ms\n",
        tau.tau1_ms, tau.tau2_ms, tau.tau_tot_ms
    );
    let bars = [tau.tau1_ms, tau.tau2_ms].map(|ms| (ms * scale).round() as usize);
    for lane in rows {
        let mut row = vec![b'.'; width];
        for &(id, _) in tasks.iter().filter(|t| t.1 == lane) {
            let s = ((sched.start[id.0] * 1e3 * scale) as usize).min(width.saturating_sub(1));
            let e = ((sched.finish[id.0] * 1e3 * scale).ceil() as usize).clamp(s + 1, width);
            row[s..e].fill(glyph(&fg.graph.task(id).kind));
        }
        for bar in bars.into_iter().filter(|&b| b < width) {
            row[bar] = b'|';
        }
        let name = engine_track(lane.0, lane.1);
        out.push_str(&format!("{name:>9} {}\n", String::from_utf8_lossy(&row)));
    }
    out.push_str("legend: M=ME I=INT S=SME R=R* c=CF r=RF s=SF v=MV  |=tau\n");
    out
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

    fn simulated(p: &Platform) -> (FrameGraph, Schedule) {
        let dist = Distribution::equidistant(68, p.len(), 0);
        let dam = DataManager::new(68, p.len());
        let mask: Vec<bool> = p.devices.iter().map(|d| d.is_accelerator()).collect();
        let plan = dam.plan(&dist, &mask, true);
        let geo = FrameGeometry {
            mb_cols: 120,
            n_rows: 68,
            width: 1920,
        };
        let fg = build_frame_graph(&dist, &plan, p, &EncodeParams::default(), geo, true);
        let sched = simulate(&fg.graph, p, &p.nominal_speeds(), &mut Deterministic).unwrap();
        (fg, sched)
    }

    #[test]
    fn timeline_is_ordered_and_skips_barriers() {
        let p = Platform::sys_hk();
        let (fg, sched) = simulated(&p);
        let tasks = timeline(&fg, &sched, &p);
        let barriers = (fg.graph.iter())
            .filter(|(_, t)| t.kind == TaskKind::Barrier)
            .count();
        assert_eq!(tasks.len() + barriers, fg.graph.len());
        for w in tasks.windows(2) {
            assert!(sched.start[w[0].0 .0] <= sched.start[w[1].0 .0]);
            if sched.start[w[0].0 .0] == sched.start[w[1].0 .0] {
                assert!(w[0].0 .0 < w[1].0 .0, "ties keep graph order");
            }
        }
        let tau_tot = sched.finish_of(fg.tau_tot);
        assert!(tasks.iter().all(|(id, _)| sched.finish[id.0] <= tau_tot));
    }

    #[test]
    fn gantt_renders_all_rows() {
        let p = Platform::sys_hk();
        let (fg, sched) = simulated(&p);
        let g = render_gantt(&fg, &sched, &p, 60);
        assert!(g.contains("dev0"), "GPU row missing:\n{g}");
        assert!(g.contains("dev0 h2d"), "H2D row missing:\n{g}");
        assert!(g.contains("dev1"), "CPU core row missing:\n{g}");
        assert!(g.contains('M') && g.contains('S'), "kernels missing:\n{g}");
        assert!(g.contains("tau_tot"));
    }

    #[test]
    fn frame_log_is_one_valid_trace_with_a_span_per_task() {
        for p in [Platform::sys_hk(), Platform::sys_nff()] {
            let (fg, sched) = simulated(&p);
            let log = frame_log(&fg, &sched, &p);
            feves_obs::validate_dag(&log).expect("one root, unique span ids");
            let tasks = timeline(&fg, &sched, &p).len();
            let engine = |s: &&feves_obs::TraceSpan| ENGINES.contains(&s.cat.as_str());
            assert_eq!(log.spans.iter().filter(engine).count(), tasks);
            let frame = log.root_of(log.trace_ids()[0]).unwrap();
            assert_eq!(frame.arg("tau_tot_ms"), Some(taus(&fg, &sched).tau_tot_ms));
            let text = log.to_jsonl();
            assert_eq!(TraceLog::parse_jsonl(&text).unwrap(), log);
        }
    }
}
