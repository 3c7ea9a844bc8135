//! Farm-wide causal tracing: span trees with explicit causal edges.
//!
//! A *trace* is the end-to-end story of one job: submitted to the spool,
//! admitted through the farm queue, leased a device partition, executed as
//! one or more session attempts, encoded frame by frame, dispatched to a
//! kernel family — and, on a fault, checkpointed and resumed. Every stage
//! records a [`TraceSpan`] into a shared [`TraceCollector`]; stages whose
//! relation is causal rather than parental (queue→admit,
//! checkpoint→resume-retry, frame N τ-sync→frame N+1 phase-1 overlap)
//! additionally record a [`TraceEdge`].
//!
//! Identifiers are deterministic: the trace id is the FNV-1a 64 hash of the
//! job id (the same function behind `JobSpec::seed`), and span ids derive
//! from `(trace_id, parent, name)` — *content*, not sequence — so the ids
//! in a trace log never depend on how farm worker threads interleaved.
//! Wall-clock *timestamps* of farm-level spans are host-dependent, which is
//! why trace logs are golden-tested on their key-path schema, not their
//! values; frame/phase spans run on the deterministic virtual clock.
//!
//! The simulated Fig 4 frame is a log of the same shape: `core::trace`'s
//! `frame_log` records a root `frame` span, its phase children and one span
//! per kernel or transfer whose category is its engine ([`ENGINES`]).
//!
//! Persistence is JSONL: a `{"schema":"feves-trace/1"}` header line, then
//! one `{"span":{..}}` or `{"edge":{..}}` object per line. The merged
//! Perfetto view ([`TraceLog::to_perfetto`], the one Chrome-trace exporter)
//! renders one track group per trace id with flow arrows on the causal
//! edges, and engine spans on one track per (device, engine).

use crate::chrome::ChromeTraceBuilder;
use feves_ft::ckpt::fnv1a64;
use serde::{Deserialize, Serialize, Value};
use std::sync::Mutex;
use std::time::Instant;

/// Trace-log schema tag (first JSONL line).
pub const TRACE_SCHEMA: &str = "feves-trace/1";

/// Deterministic span id: content-derived from `(trace_id, parent, name)`.
/// Sibling names must be unique (the emitters index theirs: `attempt0`,
/// `frame12`, `ckpt2`); parent scoping lets a retried attempt re-emit
/// `frame12` without colliding with the first attempt's.
pub fn span_id(trace_id: u64, parent: u64, name: &str) -> u64 {
    let mut buf = Vec::with_capacity(16 + name.len());
    buf.extend_from_slice(&trace_id.to_le_bytes());
    buf.extend_from_slice(&parent.to_le_bytes());
    buf.extend_from_slice(name.as_bytes());
    fnv1a64(&buf)
}

/// The causal context carried along a job's path through the farm: which
/// trace the work belongs to and which span is its parent. Minted at
/// `feves submit` from the job id, re-minted deterministically on resume —
/// checkpoints carry no trace state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// Trace id — `fnv1a64(job id)`, the hash `JobSpec::seed` takes too,
    /// so a job's trace id equals its scheduling seed.
    pub trace_id: u64,
    /// Span id new spans parent under.
    pub parent_span: u64,
}

impl TraceCtx {
    /// Root context of a job: the trace id is the FNV-1a hash of the job
    /// id and the parent is the job root span (named `job:<id>` so
    /// human-facing reports can name the job without a side table).
    pub fn for_job(job_id: &str) -> TraceCtx {
        let trace_id = fnv1a64(job_id.as_bytes());
        TraceCtx {
            trace_id,
            parent_span: span_id(trace_id, 0, &format!("job:{job_id}")),
        }
    }

    /// Derive the deterministic id of a child span named `name`, and the
    /// context spans *under that child* would use.
    pub fn child(&self, name: &str) -> (u64, TraceCtx) {
        let id = span_id(self.trace_id, self.parent_span, name);
        (
            id,
            TraceCtx {
                trace_id: self.trace_id,
                parent_span: id,
            },
        )
    }
}

/// One device's share of a frame span: how many MB rows it was assigned
/// and how long its compute lanes ran — the rate sample
/// (`busy_ms / rows`) the what-if analyzer re-balances against.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceSlice {
    /// Device index in platform enumeration order.
    pub device: usize,
    /// Total MB rows assigned (ME + INT + SME).
    pub rows: u64,
    /// Measured compute-busy ms on the virtual clock.
    pub busy_ms: f64,
}

/// A named numeric attribute of a span (`{"k":"tau1_ms","v":10.5}`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceArg {
    /// Attribute name.
    pub k: String,
    /// Attribute value (finite).
    pub v: f64,
}

/// One span of a trace: a named interval with a parent link.
///
/// Farm-lifecycle spans (`job`, `queue`, `admission`, `attempt`,
/// `checkpoint`, `retry`, `drain` categories) carry wall-clock
/// microseconds relative to the farm epoch; `frame`/`phase`/`kernel`
/// spans carry virtual-clock microseconds relative to their attempt.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceSpan {
    /// Trace (job) this span belongs to.
    pub trace_id: u64,
    /// Deterministic span id ([`span_id`]).
    pub span_id: u64,
    /// Parent span id (`None` only for the job root).
    pub parent: Option<u64>,
    /// Span name, unique among siblings (`attempt0`, `frame12`, …).
    pub name: String,
    /// Category: `job`, `queue`, `admission`, `attempt`, `checkpoint`,
    /// `retry`, `drain`, `frame`, `phase`, `kernel`, or one of the
    /// simulated frame's [`ENGINES`].
    pub cat: String,
    /// Start, microseconds (wall for lifecycle spans, virtual for
    /// frame-level spans).
    pub start_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
    /// Per-device rate samples (frame spans), or the one device an engine
    /// span ran on; empty elsewhere.
    pub devices: Vec<DeviceSlice>,
    /// Named numeric attributes (frame spans carry the τ decomposition).
    pub args: Vec<TraceArg>,
}

impl TraceSpan {
    /// End of the span, microseconds.
    pub fn end_us(&self) -> f64 {
        self.start_us + self.dur_us
    }

    /// Look up a named argument.
    pub fn arg(&self, k: &str) -> Option<f64> {
        self.args.iter().find(|a| a.k == k).map(|a| a.v)
    }
}

/// Kind of a causal edge between two spans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeKind {
    /// Queue residency ended in an admission to a worker slot.
    QueueAdmit,
    /// A durable checkpoint seeded the retry attempt that resumed from it.
    CheckpointResume,
    /// Frame N's τ-sync stall absorbed frame N+1's phase-1 prefix (the
    /// inter-frame pipeline of `core::pipeline`).
    PipelineOverlap,
}

impl EdgeKind {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::QueueAdmit => "queue_admit",
            EdgeKind::CheckpointResume => "checkpoint_resume",
            EdgeKind::PipelineOverlap => "pipeline_overlap",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Option<EdgeKind> {
        match s {
            "queue_admit" => Some(EdgeKind::QueueAdmit),
            "checkpoint_resume" => Some(EdgeKind::CheckpointResume),
            "pipeline_overlap" => Some(EdgeKind::PipelineOverlap),
            _ => None,
        }
    }
}

impl Serialize for EdgeKind {
    fn to_value(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

impl Deserialize for EdgeKind {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let s = v
            .as_str()
            .ok_or_else(|| serde::Error::msg("edge kind must be a string"))?;
        EdgeKind::parse(s).ok_or_else(|| serde::Error::msg(format!("unknown edge kind {s:?}")))
    }
}

/// A causal (non-parental) dependency between two spans of one trace.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceEdge {
    /// Trace both endpoints belong to.
    pub trace_id: u64,
    /// Causing span.
    pub from_span: u64,
    /// Caused span.
    pub to_span: u64,
    /// Why the edge exists.
    pub kind: EdgeKind,
}

/// Thread-safe sink collecting the spans and edges of a farm run. One
/// collector per farm; every session/worker holds an `Arc` to it. Span
/// recording is a short mutex push — the encode hot path only reaches it
/// once per frame, and not at all when tracing is off.
#[derive(Debug, Default)]
pub struct TraceCollector {
    inner: Mutex<TraceLog>,
}

impl TraceCollector {
    /// Empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one span.
    pub fn span(&self, span: TraceSpan) {
        self.lock().spans.push(span);
    }

    /// Record one causal edge.
    pub fn edge(&self, edge: TraceEdge) {
        self.lock().edges.push(edge);
    }

    /// Spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.lock().spans.len()
    }

    /// The most recent span of `trace_id` with category `cat` (by start
    /// time) — how the farm finds the checkpoint a retry resumes from.
    pub fn last_span_of(&self, trace_id: u64, cat: &str) -> Option<u64> {
        let inner = self.lock();
        inner
            .spans
            .iter()
            .filter(|s| s.trace_id == trace_id && s.cat == cat)
            .max_by(|a, b| {
                a.start_us
                    .partial_cmp(&b.start_us)
                    .expect("span times are finite")
            })
            .map(|s| s.span_id)
    }

    /// Snapshot the collected log (spans/edges in canonical order).
    pub fn snapshot(&self) -> TraceLog {
        let mut log = self.lock().clone();
        log.canonicalize();
        log
    }

    /// Serialize the collected log as trace JSONL.
    pub fn to_jsonl(&self) -> String {
        self.snapshot().to_jsonl()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceLog> {
        // Telemetry never takes the farm down with a poisoned lock.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A handle stages emit spans through: the shared collector, the causal
/// context to parent under, and the farm epoch that wall timestamps are
/// relative to.
#[derive(Clone)]
pub struct TraceSink {
    /// Shared span/edge sink.
    pub collector: std::sync::Arc<TraceCollector>,
    /// Trace id + parent span new spans attach to.
    pub ctx: TraceCtx,
    epoch: Instant,
}

impl TraceSink {
    /// A sink over `collector` with `ctx`, timestamping against `epoch`.
    pub fn new(collector: std::sync::Arc<TraceCollector>, ctx: TraceCtx, epoch: Instant) -> Self {
        TraceSink {
            collector,
            ctx,
            epoch,
        }
    }

    /// Microseconds of wall clock since the farm epoch.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// A sink whose spans parent under `span` instead.
    pub fn under(&self, span: u64) -> TraceSink {
        TraceSink {
            collector: self.collector.clone(),
            ctx: TraceCtx {
                trace_id: self.ctx.trace_id,
                parent_span: span,
            },
            epoch: self.epoch,
        }
    }

    /// Record a span named `name` under the sink's parent; returns its id.
    pub fn record(&self, name: &str, cat: &str, start_us: f64, dur_us: f64) -> u64 {
        self.record_full(name, cat, start_us, dur_us, Vec::new(), Vec::new())
    }

    /// Record a span with device slices and arguments; returns its id.
    pub fn record_full(
        &self,
        name: &str,
        cat: &str,
        start_us: f64,
        dur_us: f64,
        devices: Vec<DeviceSlice>,
        args: Vec<TraceArg>,
    ) -> u64 {
        let id = span_id(self.ctx.trace_id, self.ctx.parent_span, name);
        self.collector.span(TraceSpan {
            trace_id: self.ctx.trace_id,
            span_id: id,
            // Parent 0 is the "no parent yet" sentinel a job's root span is
            // recorded under (`TraceCtx::for_job` hashes the root id from it).
            parent: (self.ctx.parent_span != 0).then_some(self.ctx.parent_span),
            name: name.to_string(),
            cat: cat.to_string(),
            start_us,
            dur_us,
            devices,
            args,
        });
        id
    }

    /// Record a causal edge within this sink's trace.
    pub fn link(&self, from_span: u64, to_span: u64, kind: EdgeKind) {
        self.collector.edge(TraceEdge {
            trace_id: self.ctx.trace_id,
            from_span,
            to_span,
            kind,
        });
    }
}

/// A parsed (or snapshotted) trace log: all spans and causal edges.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceLog {
    /// Every recorded span.
    pub spans: Vec<TraceSpan>,
    /// Every recorded causal edge.
    pub edges: Vec<TraceEdge>,
}

impl TraceLog {
    /// Sort spans/edges into canonical order (trace id, then start time,
    /// then span id) so serialized logs do not depend on worker-thread
    /// interleaving beyond the wall timestamps themselves.
    pub fn canonicalize(&mut self) {
        self.spans.sort_by(|a, b| {
            a.trace_id.cmp(&b.trace_id).then(
                a.start_us
                    .partial_cmp(&b.start_us)
                    .expect("finite")
                    .then(a.span_id.cmp(&b.span_id)),
            )
        });
        self.edges
            .sort_by_key(|e| (e.trace_id, e.from_span, e.to_span));
    }

    /// The distinct trace ids present, ascending.
    pub fn trace_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.spans.iter().map(|s| s.trace_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The root span (no parent) of `trace_id`, if present.
    pub fn root_of(&self, trace_id: u64) -> Option<&TraceSpan> {
        self.spans
            .iter()
            .find(|s| s.trace_id == trace_id && s.parent.is_none())
    }

    /// Direct children of `parent` within `trace_id`, in start order.
    pub fn children_of(&self, trace_id: u64, parent: u64) -> Vec<&TraceSpan> {
        let mut out: Vec<&TraceSpan> = self
            .spans
            .iter()
            .filter(|s| s.trace_id == trace_id && s.parent == Some(parent))
            .collect();
        out.sort_by(|a, b| {
            a.start_us
                .partial_cmp(&b.start_us)
                .expect("finite")
                .then(a.span_id.cmp(&b.span_id))
        });
        out
    }

    /// Serialize as trace JSONL (schema header + one object per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = format!("{{\"schema\":\"{TRACE_SCHEMA}\"}}\n");
        for s in &self.spans {
            out.push_str("{\"span\":");
            out.push_str(&serde_json::to_string(s).expect("finite fields"));
            out.push_str("}\n");
        }
        for e in &self.edges {
            out.push_str("{\"edge\":");
            out.push_str(&serde_json::to_string(e).expect("finite fields"));
            out.push_str("}\n");
        }
        out
    }

    /// True when `text` looks like a trace JSONL log (schema header).
    pub fn sniff(text: &str) -> bool {
        text.lines()
            .find(|l| !l.trim().is_empty())
            .is_some_and(|l| l.contains(TRACE_SCHEMA))
    }

    /// Parse a trace JSONL log. The schema header is required; malformed
    /// lines, and spans with a non-finite time, busy time or argument,
    /// error with their line number.
    pub fn parse_jsonl(text: &str) -> Result<TraceLog, String> {
        let mut log = TraceLog::default();
        let mut saw_schema = false;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = serde_json::value_from_str(line)
                .map_err(|e| format!("trace line {}: {e}", i + 1))?;
            if let Some(schema) = v.get("schema").and_then(Value::as_str) {
                if schema != TRACE_SCHEMA {
                    return Err(format!("unsupported trace schema {schema:?}"));
                }
                saw_schema = true;
                continue;
            }
            if let Some(sv) = v.get("span") {
                let span =
                    TraceSpan::from_value(sv).map_err(|e| format!("trace line {}: {e}", i + 1))?;
                let busy = span.devices.iter().map(|d| d.busy_ms);
                let numbers = [span.start_us, span.dur_us].into_iter().chain(busy);
                if !numbers
                    .chain(span.args.iter().map(|a| a.v))
                    .all(f64::is_finite)
                {
                    return Err(format!("trace line {}: non-finite number", i + 1));
                }
                log.spans.push(span);
            } else if let Some(ev) = v.get("edge") {
                log.edges.push(
                    TraceEdge::from_value(ev).map_err(|e| format!("trace line {}: {e}", i + 1))?,
                );
            } else {
                return Err(format!("trace line {}: neither span nor edge", i + 1));
            }
        }
        if !saw_schema {
            return Err(format!("not a trace log (missing {TRACE_SCHEMA} header)"));
        }
        Ok(log)
    }

    /// Build the farm-wide merged Perfetto view as Chrome trace-event JSON:
    /// one process (track group) per trace id, category-grouped tracks
    /// within it, one more track per (device, engine) its engine spans ran
    /// on — named like the Gantt rows, after the five fixed ones — and flow
    /// arrows on the causal edges. Events are emitted per track in
    /// ascending `ts`.
    pub fn to_perfetto(&self) -> String {
        let mut b = ChromeTraceBuilder::new();
        let ids = self.trace_ids();
        let engine_tracks: Vec<Vec<(usize, usize)>> = (ids.iter())
            .map(|&tid| {
                let spans = self.spans.iter().filter(|s| s.trace_id == tid);
                let mut tracks: Vec<_> = spans.filter_map(engine_of).collect();
                tracks.sort_unstable();
                tracks.dedup();
                tracks
            })
            .collect();
        // Metadata first: process per trace, named tracks.
        for (i, &tid) in ids.iter().enumerate() {
            let pid = i as u64 + 1;
            let label = self
                .root_of(tid)
                .map(|r| r.name.clone())
                .unwrap_or_else(|| format!("trace {tid:016x}"));
            b.process_name(pid, &format!("{label} [{tid:016x}]"));
            for (track, name) in TRACKS {
                b.thread_name(pid, *track, name);
            }
            for (j, &(device, engine)) in engine_tracks[i].iter().enumerate() {
                let track = FIRST_ENGINE_TRACK + j as u64;
                b.thread_name(pid, track, &engine_track(device, engine));
            }
        }
        let mut flow_seq = 0u64;
        for (i, &tid) in ids.iter().enumerate() {
            let pid = i as u64 + 1;
            let track_of = |s: &TraceSpan| match engine_of(s) {
                Some(key) => {
                    FIRST_ENGINE_TRACK + engine_tracks[i].binary_search(&key).unwrap() as u64
                }
                None => fixed_track(&s.cat),
            };
            // Per track, in start order (the builder keeps emission order).
            for track in 1..FIRST_ENGINE_TRACK + engine_tracks[i].len() as u64 {
                let mut spans: Vec<&TraceSpan> = self
                    .spans
                    .iter()
                    .filter(|s| s.trace_id == tid && track_of(s) == track)
                    .collect();
                spans.sort_by(|a, b| {
                    a.start_us
                        .partial_cmp(&b.start_us)
                        .expect("finite")
                        .then(a.span_id.cmp(&b.span_id))
                });
                for s in spans {
                    b.complete(pid, track, &s.name, &s.cat, s.start_us, s.dur_us);
                }
            }
            for e in self.edges.iter().filter(|e| e.trace_id == tid) {
                let (Some(from), Some(to)) =
                    (self.span_of(tid, e.from_span), self.span_of(tid, e.to_span))
                else {
                    continue;
                };
                flow_seq += 1;
                b.flow_start(
                    pid,
                    track_of(from),
                    e.kind.name(),
                    "causal",
                    flow_seq,
                    from.end_us(),
                );
                b.flow_end(
                    pid,
                    track_of(to),
                    e.kind.name(),
                    "causal",
                    flow_seq,
                    to.start_us,
                );
            }
        }
        b.into_json()
    }

    fn span_of(&self, trace_id: u64, span_id: u64) -> Option<&TraceSpan> {
        self.spans
            .iter()
            .find(|s| s.trace_id == trace_id && s.span_id == span_id)
    }
}

/// Named Perfetto tracks within a trace's group.
const TRACKS: &[(u64, &str)] = &[
    (1, "lifecycle"),
    (2, "attempts"),
    (3, "frames (virtual clock)"),
    (4, "phases (virtual clock)"),
    (5, "kernels (virtual clock)"),
];

/// The first track after [`TRACKS`]: engine spans' tracks follow in
/// (device, engine) order.
const FIRST_ENGINE_TRACK: u64 = TRACKS.len() as u64 + 1;

/// The engine categories of the simulated frame's task spans, in Gantt row
/// order within a device: the compute queue, an accelerator's
/// interpolation engine, then the two copy engines.
pub const ENGINES: [&str; 4] = ["compute", "interp", "h2d", "d2h"];

/// The Gantt row and Perfetto track name of `device`'s engine
/// `ENGINES[engine]`: `dev0`, `dev0 int`, `dev0 h2d`, `dev0 d2h`.
pub fn engine_track(device: usize, engine: usize) -> String {
    format!("dev{device}{}", ["", " int", " h2d", " d2h"][engine])
}

/// `(device, engine)` of an engine span: the device of its one slice.
fn engine_of(s: &TraceSpan) -> Option<(usize, usize)> {
    let engine = ENGINES.iter().position(|&e| e == s.cat)?;
    Some((s.devices.first().map_or(0, |d| d.device), engine))
}

/// The fixed track a non-engine span category renders on.
fn fixed_track(cat: &str) -> u64 {
    match cat {
        "job" | "queue" | "admission" | "retry" | "drain" => 1,
        "attempt" | "checkpoint" => 2,
        "frame" => 3,
        "phase" => 4,
        _ => 5,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    pub(crate) fn sample_log() -> TraceLog {
        let collector = Arc::new(TraceCollector::new());
        let ctx = TraceCtx::for_job("job-a");
        let root_sink = TraceSink::new(
            collector.clone(),
            TraceCtx {
                trace_id: ctx.trace_id,
                parent_span: 0,
            },
            Instant::now(),
        );
        let root = root_sink.record("job:job-a", "job", 0.0, 1000.0);
        assert_eq!(root, ctx.parent_span, "root id matches TraceCtx::for_job");
        let sink = root_sink.under(root);
        let adm = sink.record("admission", "admission", 0.0, 5.0);
        let q = sink.record("queue", "queue", 5.0, 95.0);
        let a0 = sink.record("attempt0", "attempt", 100.0, 400.0);
        sink.link(q, a0, EdgeKind::QueueAdmit);
        let attempt = sink.under(a0);
        let ck = attempt.record("ckpt0", "checkpoint", 300.0, 20.0);
        let f0 = attempt.record_full(
            "frame0",
            "frame",
            0.0,
            50.0,
            vec![DeviceSlice {
                device: 0,
                rows: 120,
                busy_ms: 0.04,
            }],
            vec![TraceArg {
                k: "tau1_ms".into(),
                v: 0.03,
            }],
        );
        let frame = attempt.under(f0);
        frame.record("phase1", "phase", 0.0, 30.0);
        frame.record("kernels:fast", "kernel", 0.0, 40.0);
        let f1 = attempt.record("frame1", "frame", 50.0, 45.0);
        sink.link(f0, f1, EdgeKind::PipelineOverlap);
        let a1 = sink.record("attempt1", "attempt", 520.0, 480.0);
        sink.record("retry1", "retry", 500.0, 20.0);
        sink.link(ck, a1, EdgeKind::CheckpointResume);
        let _ = adm;
        collector.snapshot()
    }

    #[test]
    fn ids_are_deterministic_and_parent_scoped() {
        let ctx = TraceCtx::for_job("job-a");
        assert_eq!(ctx, TraceCtx::for_job("job-a"));
        assert_ne!(ctx.trace_id, TraceCtx::for_job("job-b").trace_id);
        let (a, actx) = ctx.child("attempt0");
        let (b, _) = ctx.child("attempt1");
        assert_ne!(a, b);
        // Same name under different parents must not collide — retried
        // attempts re-emit the same frame names.
        let (f_a, _) = actx.child("frame3");
        let (f_b, _) = TraceCtx {
            trace_id: ctx.trace_id,
            parent_span: b,
        }
        .child("frame3");
        assert_ne!(f_a, f_b);
    }

    #[test]
    fn jsonl_round_trips() {
        let log = sample_log();
        let text = log.to_jsonl();
        assert!(text.starts_with("{\"schema\":\"feves-trace/1\"}\n"));
        assert!(TraceLog::sniff(&text));
        assert!(!TraceLog::sniff("{\"frame\":0}\n"));
        let back = TraceLog::parse_jsonl(&text).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn parse_rejects_garbage_with_line_numbers() {
        let err = TraceLog::parse_jsonl("{\"schema\":\"feves-trace/1\"}\nnot json\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = TraceLog::parse_jsonl("{\"span\":{}}\n").unwrap_err();
        assert!(
            err.contains("not a trace log") || err.contains("line 1"),
            "{err}"
        );
        let err = TraceLog::parse_jsonl("{\"schema\":\"feves-trace/9\"}\n").unwrap_err();
        assert!(err.contains("unsupported"), "{err}");
    }

    #[test]
    fn collector_finds_last_checkpoint() {
        let log = sample_log();
        let collector = TraceCollector::new();
        for s in &log.spans {
            collector.span(s.clone());
        }
        let tid = log.trace_ids()[0];
        let ck = collector.last_span_of(tid, "checkpoint").unwrap();
        let span = log.spans.iter().find(|s| s.span_id == ck).unwrap();
        assert_eq!(span.name, "ckpt0");
        assert_eq!(collector.last_span_of(tid, "nope"), None);
    }

    #[test]
    fn non_finite_numbers_are_rejected_with_their_line() {
        let span = r#"{"span":{"trace_id":1,"span_id":2,"parent":null,"name":"job:a","cat":"job","start_us":0,"dur_us":1,"devices":[],"args":[]}}"#;
        let head = "{\"schema\":\"feves-trace/1\"}\n";
        assert!(TraceLog::parse_jsonl(&format!("{head}{span}\n")).is_ok());
        for (field, bad) in [
            ("\"dur_us\":1", "\"dur_us\":1e999"),
            ("\"start_us\":0", "\"start_us\":-1e999"),
            (
                "\"devices\":[]",
                r#""devices":[{"device":0,"rows":1,"busy_ms":1e999}]"#,
            ),
            ("\"args\":[]", r#""args":[{"k":"tau1_ms","v":1e999}]"#),
        ] {
            let text = format!("{head}{}\n", span.replace(field, bad));
            let err = TraceLog::parse_jsonl(&text).unwrap_err();
            assert!(
                err.contains("line 2") && err.contains("non-finite"),
                "{err}"
            );
        }
    }

    #[test]
    fn engine_spans_get_one_track_per_device_engine() {
        let farm = sample_log().to_perfetto();
        assert!(!farm.contains("dev0"), "a farm log keeps its five tracks");
        let collector = Arc::new(TraceCollector::new());
        let ctx = TraceCtx {
            trace_id: 7,
            parent_span: 0,
        };
        let root = TraceSink::new(collector.clone(), ctx, Instant::now());
        let frame = root.under(root.record("frame", "frame", 0.0, 10.0));
        let on = |device| {
            vec![DeviceSlice {
                device,
                rows: 0,
                busy_ms: 0.001,
            }]
        };
        frame.record_full("SF→dev1", "d2h", 4.0, 1.0, on(1), Vec::new());
        frame.record_full("ME dev1", "compute", 0.0, 3.0, on(1), Vec::new());
        frame.record_full("INT dev0", "interp", 0.0, 1.0, on(0), Vec::new());
        frame.record_full("ME dev0", "compute", 1.0, 3.0, on(0), Vec::new());
        let json = collector.snapshot().to_perfetto();
        let doc = serde_json::value_from_str(&json).unwrap();
        let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
        let track = |name: &str| {
            let named = |e: &&Value| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    == Some(name)
            };
            let e = events
                .iter()
                .find(named)
                .unwrap_or_else(|| panic!("{name}"));
            e.get("tid").and_then(Value::as_u64).unwrap()
        };
        let order = ["dev0", "dev0 int", "dev1", "dev1 d2h"].map(track);
        assert_eq!(
            order,
            [6, 7, 8, 9],
            "after the five fixed tracks, in row order"
        );
        let on_track = |name: &str| {
            let x = events
                .iter()
                .find(|e| e.get("name").and_then(Value::as_str) == Some(name));
            x.and_then(|e| e.get("tid"))
                .and_then(Value::as_u64)
                .unwrap()
        };
        assert_eq!(on_track("ME dev0"), 6);
        assert_eq!(on_track("SF→dev1"), 9);
    }
}
