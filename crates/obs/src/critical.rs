//! Critical-path analysis over trace logs: reconstruct the span DAG,
//! attribute each job's wall time to nine exclusive buckets, and project
//! what-if latency under a scaled device profile.
//!
//! The bucket set mirrors where a farm job can spend time end to end:
//! `{queue, admission, transfer, kernel, barrier, pipeline_recovered,
//! checkpoint, retry, drain}`. Lifecycle buckets come straight from the
//! wall-clock sub-spans the farm records (they tile the job root by
//! construction); each attempt's remaining execution time is split among
//! the frame-level buckets by the *virtual-clock* fractions of its frame
//! spans — kernel busy is the slowest device's compute lane (the τ-sync
//! bound of Algorithm 1), transfer is the copy-engine residue, barrier is
//! the τ-sync stall left over, and `pipeline_recovered` is the share of
//! that stall `core::pipeline` filled with the next frame's phase 1. The
//! sum of a job's buckets therefore equals its measured wall time.
//!
//! The what-if projection is LP-grounded without re-running the solver:
//! Algorithm 2's optimality condition is equal per-device finishing times,
//! so re-balancing rows against scaled rates reduces to the waterfill
//! `busy' = Σrows / Σ(1/k'_d)` per frame, with each frame's non-kernel
//! overhead (transfers, R*, barriers) carried over unchanged.

use crate::flight::{DeviceRecord, FlightRecord};
use crate::trace::{DeviceSlice, EdgeKind, TraceLog, TraceSpan};
use std::collections::{HashMap, HashSet};

/// An exclusive wall-time bucket of a job's critical path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bucket {
    /// Waiting in the admission queue for a worker slot.
    Queue,
    /// Spool scan + admission-control processing.
    Admission,
    /// Copy-engine (H2D/D2H) residue on the frame critical path.
    Transfer,
    /// Kernel busy — the slowest device's compute lanes (τ bound).
    Kernel,
    /// τ-sync barrier stall not recovered by pipelining.
    Barrier,
    /// Barrier stall filled with the next frame's phase-1 work.
    PipelineRecovered,
    /// Writing durable checkpoints.
    Checkpoint,
    /// Backoff between a failed attempt and its retry dispatch.
    Retry,
    /// Post-completion bookkeeping / farm drain.
    Drain,
}

impl Bucket {
    /// Every bucket, rendering order.
    pub const ALL: [Bucket; 9] = [
        Bucket::Queue,
        Bucket::Admission,
        Bucket::Transfer,
        Bucket::Kernel,
        Bucket::Barrier,
        Bucket::PipelineRecovered,
        Bucket::Checkpoint,
        Bucket::Retry,
        Bucket::Drain,
    ];

    /// Stable name (report/compare key).
    pub fn name(self) -> &'static str {
        match self {
            Bucket::Queue => "queue",
            Bucket::Admission => "admission",
            Bucket::Transfer => "transfer",
            Bucket::Kernel => "kernel",
            Bucket::Barrier => "barrier",
            Bucket::PipelineRecovered => "pipeline_recovered",
            Bucket::Checkpoint => "checkpoint",
            Bucket::Retry => "retry",
            Bucket::Drain => "drain",
        }
    }

    fn index(self) -> usize {
        Bucket::ALL.iter().position(|b| *b == self).expect("member")
    }
}

/// Critical-path analysis of one job (one trace id).
#[derive(Clone, Debug)]
pub struct JobCritical {
    /// Trace id (= job seed).
    pub trace_id: u64,
    /// Root span name (`job:<id>`).
    pub name: String,
    /// Measured job wall time (root span duration), µs.
    pub wall_us: f64,
    /// Exclusive bucket attribution, µs, indexed by [`Bucket::ALL`]. Sums
    /// to `wall_us`.
    pub buckets: [f64; 9],
    /// Names of the lifecycle spans on the job's path, in time order.
    pub path: Vec<String>,
    /// Checkpoint→resume edges the path routes through (>0 iff the job
    /// was retried from a checkpoint).
    pub resume_edges: usize,
    /// Frames observed across attempts.
    pub frames: usize,
}

impl JobCritical {
    /// Bucket value, µs.
    pub fn bucket_us(&self, b: Bucket) -> f64 {
        self.buckets[b.index()]
    }

    /// Sum of all buckets, µs (equals `wall_us` up to float error).
    pub fn bucket_sum_us(&self) -> f64 {
        self.buckets.iter().sum()
    }
}

/// Farm-wide critical-path report over a merged trace log.
#[derive(Clone, Debug, Default)]
pub struct CriticalReport {
    /// One entry per trace id, ascending.
    pub jobs: Vec<JobCritical>,
}

/// Validate the span DAG of a trace log: every span's parent must exist
/// within its trace, every span must be reachable from its trace's single
/// root via parent links, and the combined graph (parent links + causal
/// edges) must be acyclic.
pub fn validate_dag(log: &TraceLog) -> Result<(), String> {
    for trace_id in log.trace_ids() {
        let spans: Vec<&TraceSpan> = log
            .spans
            .iter()
            .filter(|s| s.trace_id == trace_id)
            .collect();
        let ids: HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
        if ids.len() != spans.len() {
            return Err(format!("trace {trace_id:016x}: duplicate span ids"));
        }
        let roots: Vec<&&TraceSpan> = spans.iter().filter(|s| s.parent.is_none()).collect();
        if roots.len() != 1 {
            return Err(format!(
                "trace {trace_id:016x}: expected 1 root span, found {}",
                roots.len()
            ));
        }
        let root = roots[0].span_id;
        // Reachability from the root over parent links.
        let mut children: HashMap<u64, Vec<u64>> = HashMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                if !ids.contains(&p) {
                    return Err(format!(
                        "trace {trace_id:016x}: span {:?} has unknown parent {p:016x}",
                        s.name
                    ));
                }
                children.entry(p).or_default().push(s.span_id);
            }
        }
        let mut reachable: HashSet<u64> = HashSet::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            if reachable.insert(id) {
                if let Some(kids) = children.get(&id) {
                    stack.extend_from_slice(kids);
                }
            }
        }
        if reachable.len() != spans.len() {
            let orphan = spans
                .iter()
                .find(|s| !reachable.contains(&s.span_id))
                .expect("count mismatch implies an orphan");
            return Err(format!(
                "trace {trace_id:016x}: span {:?} unreachable from root",
                orphan.name
            ));
        }
        // Acyclicity of parent links + causal edges (Kahn's algorithm).
        let mut indeg: HashMap<u64, usize> = ids.iter().map(|&id| (id, 0)).collect();
        let mut adj: HashMap<u64, Vec<u64>> = HashMap::new();
        let add_edge = |adj: &mut HashMap<u64, Vec<u64>>,
                        indeg: &mut HashMap<u64, usize>,
                        from: u64,
                        to: u64| {
            adj.entry(from).or_default().push(to);
            *indeg.entry(to).or_default() += 1;
        };
        for s in &spans {
            if let Some(p) = s.parent {
                add_edge(&mut adj, &mut indeg, p, s.span_id);
            }
        }
        for e in log.edges.iter().filter(|e| e.trace_id == trace_id) {
            if !ids.contains(&e.from_span) || !ids.contains(&e.to_span) {
                return Err(format!(
                    "trace {trace_id:016x}: edge endpoint missing ({:016x}→{:016x})",
                    e.from_span, e.to_span
                ));
            }
            add_edge(&mut adj, &mut indeg, e.from_span, e.to_span);
        }
        let mut queue: Vec<u64> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&id, _)| id)
            .collect();
        let mut visited = 0usize;
        while let Some(id) = queue.pop() {
            visited += 1;
            for &next in adj.get(&id).map(Vec::as_slice).unwrap_or(&[]) {
                let d = indeg.get_mut(&next).expect("known node");
                *d -= 1;
                if *d == 0 {
                    queue.push(next);
                }
            }
        }
        if visited != spans.len() {
            return Err(format!("trace {trace_id:016x}: span DAG has a cycle"));
        }
    }
    Ok(())
}

/// The buckets one frame's virtual time splits into, in [`split_frame`]'s
/// output order.
const FRAME_BUCKETS: [Bucket; 4] = [
    Bucket::Kernel,
    Bucket::Transfer,
    Bucket::Barrier,
    Bucket::PipelineRecovered,
];

/// Split a frame of `dur` µs into [`FRAME_BUCKETS`]: kernel busy first,
/// then the copy-engine residue, then the τ-sync stall left over, of which
/// `recovered` µs the pipeline filled. Each takes at most what the ones
/// before it left, so the four sum to `dur`.
fn split_frame(dur: f64, kernel: f64, transfer: f64, recovered: f64) -> [f64; 4] {
    let dur = dur.max(0.0);
    let kernel = kernel.clamp(0.0, dur);
    let transfer = transfer.clamp(0.0, dur - kernel);
    let barrier = (dur - kernel - transfer).max(0.0);
    let recovered = recovered.clamp(0.0, barrier);
    [kernel, transfer, barrier - recovered, recovered]
}

/// [`split_frame`] of a frame span, from the arguments the encoder records.
fn span_split(f: &TraceSpan) -> [f64; 4] {
    let [kernel, transfer, recovered] =
        ["kernel_ms", "transfer_ms", "recovered_ms"].map(|k| f.arg(k).unwrap_or(0.0) * 1e3);
    split_frame(f.dur_us, kernel, transfer, recovered)
}

/// [`split_frame`] of a flight record: its busiest device's compute and
/// copy-engine time, and the stall recovered over all devices.
fn record_split(r: &FlightRecord) -> [f64; 4] {
    let busiest = |busy: fn(&DeviceRecord) -> f64| {
        (r.devices.iter())
            .map(|d| busy(d) * 1e3)
            .fold(0.0f64, f64::max)
    };
    split_frame(
        r.measured_tau.tau_tot_ms * 1e3,
        busiest(|d| d.compute_busy_ms),
        busiest(|d| d.transfer_busy_ms),
        r.devices.iter().map(|d| d.overlap_carried_ms * 1e3).sum(),
    )
}

impl CriticalReport {
    /// Analyze a merged trace log. Fails if the span DAG is malformed.
    pub fn from_log(log: &TraceLog) -> Result<CriticalReport, String> {
        validate_dag(log)?;
        let mut jobs = Vec::new();
        for trace_id in log.trace_ids() {
            let root = log
                .root_of(trace_id)
                .expect("validate_dag guarantees a root");
            let mut buckets = [0.0f64; 9];
            let mut path = Vec::new();
            let mut frames = 0usize;
            let mut assigned = 0.0f64;
            for child in log.children_of(trace_id, root.span_id) {
                path.push(child.name.clone());
                assigned += child.dur_us;
                match child.cat.as_str() {
                    "admission" => buckets[Bucket::Admission.index()] += child.dur_us,
                    "queue" => buckets[Bucket::Queue.index()] += child.dur_us,
                    "retry" => buckets[Bucket::Retry.index()] += child.dur_us,
                    "drain" => buckets[Bucket::Drain.index()] += child.dur_us,
                    "attempt" => {
                        let kids = log.children_of(trace_id, child.span_id);
                        let ckpt_us: f64 = kids
                            .iter()
                            .filter(|s| s.cat == "checkpoint")
                            .map(|s| s.dur_us)
                            .sum();
                        buckets[Bucket::Checkpoint.index()] += ckpt_us.min(child.dur_us);
                        let exec = (child.dur_us - ckpt_us).max(0.0);
                        let mut split = [0.0f64; 4];
                        for f in kids.iter().filter(|s| s.cat == "frame") {
                            frames += 1;
                            for (v, us) in split.iter_mut().zip(span_split(f)) {
                                *v += us;
                            }
                        }
                        let vtot: f64 = split.iter().sum();
                        if vtot > 0.0 {
                            for (b, v) in FRAME_BUCKETS.iter().zip(split) {
                                buckets[b.index()] += exec * v / vtot;
                            }
                        } else {
                            // No frame telemetry — attribute execution to
                            // kernel busy rather than inventing a split.
                            buckets[Bucket::Kernel.index()] += exec;
                        }
                    }
                    other => {
                        return Err(format!(
                            "trace {trace_id:016x}: unexpected lifecycle span category {other:?}"
                        ))
                    }
                }
            }
            // Lifecycle spans tile the root by construction; any float
            // residue lands in drain so the buckets sum exactly.
            let residue = root.dur_us - assigned;
            if residue > 0.0 {
                buckets[Bucket::Drain.index()] += residue;
            }
            let attempt_ids: HashSet<u64> = log
                .children_of(trace_id, root.span_id)
                .iter()
                .filter(|s| s.cat == "attempt")
                .map(|s| s.span_id)
                .collect();
            let resume_edges = log
                .edges
                .iter()
                .filter(|e| {
                    e.trace_id == trace_id
                        && e.kind == EdgeKind::CheckpointResume
                        && attempt_ids.contains(&e.to_span)
                })
                .count();
            jobs.push(JobCritical {
                trace_id,
                name: root.name.clone(),
                wall_us: root.dur_us,
                buckets,
                path,
                resume_edges,
                frames,
            });
        }
        Ok(CriticalReport { jobs })
    }

    /// Render the farm-wide text report, including per-job what-if
    /// projections for the busiest device at +20% speed.
    pub fn render_text(&self, log: &TraceLog) -> String {
        let mut out = format!("critical path · {} job(s)\n", self.jobs.len());
        for j in &self.jobs {
            out.push_str(&format!(
                "\n{} [{:016x}] wall {:.2} ms · {} frame(s)",
                j.name,
                j.trace_id,
                j.wall_us / 1e3,
                j.frames
            ));
            if j.resume_edges > 0 {
                out.push_str(&format!(" · resumed ×{}", j.resume_edges));
            }
            out.push('\n');
            out.push_str(&format!("  path: {}\n", j.path.join(" → ")));
            for b in Bucket::ALL {
                let us = j.bucket_us(b);
                if us <= 0.0 {
                    continue;
                }
                out.push_str(&format!(
                    "  {:<20} {:>10.2} ms  {:>5.1}%\n",
                    b.name(),
                    us / 1e3,
                    100.0 * us / j.wall_us.max(f64::MIN_POSITIVE)
                ));
            }
            let samples = frame_samples_from_log(log, j.trace_id);
            if let Some(dev) = busiest_device(&samples) {
                if let Some(w) = what_if_device(&samples, dev, 1.2) {
                    out.push_str(&format!(
                        "  what-if: dev{} 20% faster ⇒ encode latency {:+.1}%\n",
                        dev,
                        w.delta_pct()
                    ));
                }
            }
        }
        out
    }
}

/// A what-if projection: job encode latency with `device` sped up by
/// `speedup` (1.2 = 20% faster), Algorithm-2 row distribution re-balanced.
#[derive(Clone, Copy, Debug)]
pub struct WhatIf {
    /// Device whose profile was scaled.
    pub device: usize,
    /// Speed multiplier applied (>1 = faster).
    pub speedup: f64,
    /// Measured encode time across the sampled frames, µs.
    pub baseline_us: f64,
    /// Projected encode time under the scaled profile, µs.
    pub projected_us: f64,
}

impl WhatIf {
    /// Projected latency change, percent (negative = faster).
    pub fn delta_pct(&self) -> f64 {
        if self.baseline_us <= 0.0 {
            return 0.0;
        }
        100.0 * (self.projected_us - self.baseline_us) / self.baseline_us
    }
}

/// One frame's what-if sample: measured frame time (µs) plus per-device
/// row/busy slices.
pub type FrameSample = (f64, Vec<DeviceSlice>);

/// Extract what-if samples from a trace log's frame spans.
pub fn frame_samples_from_log(log: &TraceLog, trace_id: u64) -> Vec<FrameSample> {
    let mut frames: Vec<&TraceSpan> = log
        .spans
        .iter()
        .filter(|s| s.trace_id == trace_id && s.cat == "frame" && !s.devices.is_empty())
        .collect();
    frames.sort_by(|a, b| a.name.cmp(&b.name));
    frames
        .iter()
        .map(|s| (s.dur_us, s.devices.clone()))
        .collect()
}

/// Extract what-if samples from flight records (per-frame measured τtot
/// plus each device's assigned rows and compute busy).
pub fn frame_samples_from_flight(records: &[FlightRecord]) -> Vec<FrameSample> {
    records
        .iter()
        .map(|r| {
            let slices = r
                .devices
                .iter()
                .map(|d| DeviceSlice {
                    device: d.device,
                    rows: (d.me_rows + d.interp_rows + d.sme_rows) as u64,
                    busy_ms: d.compute_busy_ms,
                })
                .collect();
            (r.measured_tau.tau_tot_ms * 1e3, slices)
        })
        .collect()
}

/// The device with the largest summed compute busy across samples.
pub fn busiest_device(samples: &[FrameSample]) -> Option<usize> {
    let mut busy: HashMap<usize, f64> = HashMap::new();
    for (_, slices) in samples {
        for s in slices {
            *busy.entry(s.device).or_default() += s.busy_ms;
        }
    }
    busy.into_iter()
        .filter(|(_, b)| *b > 0.0)
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite").then(b.0.cmp(&a.0)))
        .map(|(d, _)| d)
}

/// Project job encode latency with `device` sped up by `speedup`,
/// re-evaluating the Algorithm-2 distribution per frame: characterized
/// rates `k_d = busy_d / rows_d` are extracted from each frame's slices,
/// the target device's rate is scaled, and the rows are re-balanced to
/// the LP's equal-finish optimum `busy' = Σrows / Σ(1/k'_d)`. Each
/// frame's non-kernel overhead (transfer, R*, barrier residue) carries
/// over unchanged. Returns `None` when no sample characterizes `device`.
pub fn what_if_device(samples: &[FrameSample], device: usize, speedup: f64) -> Option<WhatIf> {
    if speedup <= 0.0 || samples.is_empty() {
        return None;
    }
    let mut baseline_us = 0.0f64;
    let mut projected_us = 0.0f64;
    let mut characterized = false;
    for (dur_us, slices) in samples {
        baseline_us += dur_us;
        let active: Vec<&DeviceSlice> = slices
            .iter()
            .filter(|s| s.rows > 0 && s.busy_ms > 0.0)
            .collect();
        let has_target = active.iter().any(|s| s.device == device);
        if !has_target {
            projected_us += dur_us;
            continue;
        }
        characterized = true;
        let total_rows: f64 = active.iter().map(|s| s.rows as f64).sum();
        let bound_us = active
            .iter()
            .map(|s| s.busy_ms * 1e3)
            .fold(0.0f64, f64::max);
        let overhead_us = (dur_us - bound_us).max(0.0);
        // Re-balance rows against scaled per-row rates (equal finish).
        let inv_rate_sum: f64 = active
            .iter()
            .map(|s| {
                let rate = s.busy_ms / s.rows as f64;
                let rate = if s.device == device {
                    rate / speedup
                } else {
                    rate
                };
                1.0 / rate
            })
            .sum();
        let balanced_ms = total_rows / inv_rate_sum;
        projected_us += overhead_us + balanced_ms * 1e3;
    }
    characterized.then_some(WhatIf {
        device,
        speedup,
        baseline_us,
        projected_us,
    })
}

/// Virtual-clock bucket totals over flight records (per-frame analogue of
/// the job buckets — queue/admission/checkpoint/retry/drain are farm
/// concepts and stay zero here), µs.
pub fn flight_buckets(records: &[FlightRecord]) -> [f64; 9] {
    let mut buckets = [0.0f64; 9];
    for r in records {
        for (b, us) in FRAME_BUCKETS.iter().zip(record_split(r)) {
            buckets[b.index()] += us;
        }
    }
    buckets
}

/// Mean per-frame critical-path length over flight records, µs — the
/// `flight.critical_path_us` metric `feves compare` gates on.
pub fn critical_path_us(records: &[FlightRecord]) -> Option<f64> {
    if records.is_empty() {
        return None;
    }
    let total: f64 = records
        .iter()
        .map(|r| r.measured_tau.tau_tot_ms * 1e3)
        .sum();
    Some(total / records.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{
        span_id, TraceArg, TraceCollector, TraceCtx, TraceEdge, TraceSink, TraceSpan,
    };
    use std::sync::Arc;
    use std::time::Instant;

    fn farm_like_log() -> TraceLog {
        let collector = Arc::new(TraceCollector::new());
        let ctx = TraceCtx::for_job("job-x");
        let sink = TraceSink::new(
            collector.clone(),
            TraceCtx {
                trace_id: ctx.trace_id,
                parent_span: 0,
            },
            Instant::now(),
        );
        let root = sink.record("job:job-x", "job", 0.0, 10_000.0);
        let s = sink.under(root);
        s.record("admission", "admission", 0.0, 100.0);
        let q = s.record("queue", "queue", 100.0, 900.0);
        let a0 = s.record("attempt0", "attempt", 1000.0, 4000.0);
        s.link(q, a0, EdgeKind::QueueAdmit);
        let at = s.under(a0);
        let ck = at.record("ckpt0", "checkpoint", 4000.0, 500.0);
        for i in 0..2 {
            at.record_full(
                &format!("frame{i}"),
                "frame",
                i as f64 * 1000.0,
                1000.0,
                vec![
                    DeviceSlice {
                        device: 0,
                        rows: 60,
                        busy_ms: 0.6,
                    },
                    DeviceSlice {
                        device: 1,
                        rows: 40,
                        busy_ms: 0.6,
                    },
                ],
                vec![
                    TraceArg {
                        k: "kernel_ms".into(),
                        v: 0.6,
                    },
                    TraceArg {
                        k: "transfer_ms".into(),
                        v: 0.2,
                    },
                    TraceArg {
                        k: "recovered_ms".into(),
                        v: 0.1,
                    },
                ],
            );
        }
        s.record("retry1", "retry", 5000.0, 1000.0);
        let a1 = s.record("attempt1", "attempt", 6000.0, 3800.0);
        s.link(ck, a1, EdgeKind::CheckpointResume);
        let at1 = s.under(a1);
        at1.record_full(
            "frame2",
            "frame",
            0.0,
            1000.0,
            vec![DeviceSlice {
                device: 0,
                rows: 100,
                busy_ms: 0.9,
            }],
            vec![TraceArg {
                k: "kernel_ms".into(),
                v: 0.9,
            }],
        );
        s.record("drain", "drain", 9800.0, 200.0);
        collector.snapshot()
    }

    #[test]
    fn buckets_tile_wall_time_exactly() {
        let log = farm_like_log();
        let report = CriticalReport::from_log(&log).unwrap();
        assert_eq!(report.jobs.len(), 1);
        let j = &report.jobs[0];
        let sum = j.bucket_sum_us();
        assert!(
            (sum - j.wall_us).abs() <= 1e-6 * j.wall_us,
            "buckets {sum} vs wall {}",
            j.wall_us
        );
        assert!(j.bucket_us(Bucket::Queue) == 900.0);
        assert!(j.bucket_us(Bucket::Checkpoint) == 500.0);
        assert!(j.bucket_us(Bucket::Retry) == 1000.0);
        assert!(j.bucket_us(Bucket::Kernel) > 0.0);
        assert!(j.bucket_us(Bucket::PipelineRecovered) > 0.0);
        assert_eq!(j.resume_edges, 1);
        assert_eq!(j.frames, 3);
    }

    #[test]
    fn render_mentions_path_and_what_if() {
        let log = farm_like_log();
        let report = CriticalReport::from_log(&log).unwrap();
        let text = report.render_text(&log);
        assert!(text.contains("queue → attempt0"), "{text}");
        assert!(text.contains("resumed ×1"), "{text}");
        assert!(text.contains("what-if"), "{text}");
    }

    #[test]
    fn validate_rejects_orphans_and_cycles() {
        let mut log = farm_like_log();
        assert!(validate_dag(&log).is_ok());
        let tid = log.trace_ids()[0];
        // Orphan: parent id that doesn't exist.
        let mut orphaned = log.clone();
        orphaned.spans.push(TraceSpan {
            trace_id: tid,
            span_id: span_id(tid, 999, "ghost"),
            parent: Some(999),
            name: "ghost".into(),
            cat: "frame".into(),
            ..Default::default()
        });
        assert!(validate_dag(&orphaned).unwrap_err().contains("parent"));
        // Cycle via causal edges: child → its own ancestor.
        let root = log.root_of(tid).unwrap().span_id;
        let attempt = log
            .spans
            .iter()
            .find(|s| s.name == "attempt0")
            .unwrap()
            .span_id;
        log.edges.push(TraceEdge {
            trace_id: tid,
            from_span: attempt,
            to_span: root,
            kind: EdgeKind::PipelineOverlap,
        });
        assert!(validate_dag(&log).unwrap_err().contains("cycle"));
    }

    #[test]
    fn what_if_speeds_up_balanced_frames() {
        let log = farm_like_log();
        let tid = log.trace_ids()[0];
        let samples = frame_samples_from_log(&log, tid);
        assert_eq!(samples.len(), 3);
        assert_eq!(busiest_device(&samples), Some(0));
        let w = what_if_device(&samples, 0, 1.25).unwrap();
        assert!(w.projected_us < w.baseline_us, "{w:?}");
        assert!(w.delta_pct() < 0.0);
        // Slowing the device down must project slower.
        let slow = what_if_device(&samples, 0, 0.5).unwrap();
        assert!(slow.projected_us > slow.baseline_us);
        // Unknown device: no characterization.
        assert!(what_if_device(&samples, 7, 1.25).is_none());
    }
}
