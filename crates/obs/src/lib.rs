#![warn(missing_docs)]
//! Observability for the FEVES framework: a lightweight, near-zero-overhead
//! metrics and span-tracing layer threaded through the whole stack.
//!
//! - [`Metric`] — a small *static registry* of framework metrics (scheduling
//!   overhead, τ sync points, load imbalance, data-reuse volumes, LP
//!   iteration counts). Every metric is an enum variant, so recording is an
//!   array index + one atomic op — no string hashing on the hot path.
//! - [`Recorder`] — the sink trait. [`NoopRecorder`] (the default) compiles
//!   recording down to a single `enabled()` check; [`MemoryRecorder`]
//!   aggregates counters, gauges and fixed-bucket [`Histogram`]s in atomics.
//! - [`span!`] — RAII wall-clock span guards the encoder opens around its
//!   own calls (`balance`, `dam.plan`, `vcm.build`, `encode_frame`).
//! - Exporters — JSONL event lines ([`MemoryRecorder::to_jsonl`]), a human
//!   `feves stats` summary table ([`MemoryRecorder::render_stats`]), and
//!   Chrome trace-event JSON of a span log ([`TraceLog::to_perfetto`]) that
//!   loads directly in Perfetto / `chrome://tracing`.
//! - [`SessionScope`] — one session's registry and live device rows,
//!   recorded into directly; [`LiveWriter`] is the one thread that writes
//!   every session's state to a `feves-live/2` snapshot each period
//!   (`--live-out`, read by `feves top`).
//!
//! Metrics derived from the *virtual* clock (τ times, byte volumes, LP
//! iterations) are deterministic for a fixed configuration; wall-clock
//! metrics (spans, `sched.overhead_us`) are flagged in the registry so
//! deterministic exports (golden tests) can exclude them.
//!
//! ```
//! use feves_obs::{Metric, MemoryRecorder, Recorder};
//! use std::sync::Arc;
//!
//! let rec = Arc::new(MemoryRecorder::new());
//! rec.observe(Metric::FrameTauTotMs, 33.1);
//! rec.add(Metric::DamBytesTransferred, 4096);
//! {
//!     let _guard = feves_obs::span!(rec.clone(), "demo");
//! }
//! assert_eq!(rec.counter(Metric::DamBytesTransferred), 4096);
//! assert!(rec.histogram(Metric::FrameTauTotMs).count() == 1);
//! ```

pub mod audit;
mod chrome;
pub mod compare;
pub mod critical;
pub mod flight;
mod histogram;
pub mod live;
pub mod persist;
mod recorder;
pub mod report;
pub mod scope;
mod shim;
pub mod trace;

pub use audit::{imbalance_index, residual_pct, AuditSummary, DeviceAudit};
pub use compare::{compare_reports, compare_reports_metric, CompareOutcome, MetricDelta};
pub use critical::{validate_dag, Bucket, CriticalReport, JobCritical, WhatIf};
pub use flight::{
    parse_jsonl as parse_flight_jsonl, parse_jsonl_with_markers as parse_flight_jsonl_with_markers,
    DeviceRecord, FlightRecord, FlightRecorder, TauTriple,
};
pub use histogram::Histogram;
pub use live::{build_snapshot, LiveConfig, LiveSnapshot, LiveWriter};
pub use persist::{sweep_orphans, write_atomic, write_atomic_recorded};
pub use recorder::{MemoryRecorder, NoopRecorder, Recorder, Span, SpanStat};
pub use report::render_html;
pub use scope::{hub, DeviceLive, RetiredSession, SessionScope, TelemetryHub};
#[doc(hidden)]
pub use shim::BusController;
pub use trace::{EdgeKind, TraceCollector, TraceCtx, TraceEdge, TraceLog, TraceSink, TraceSpan};

/// How a metric aggregates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic sum of integer deltas.
    Counter,
    /// Last written value wins.
    Gauge,
    /// Value distribution with percentile queries.
    Histogram,
}

/// Static description of one registry entry.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Dotted metric name, e.g. `"frame.tau_tot_ms"`.
    pub name: &'static str,
    /// Unit suffix for display (`"ms"`, `"bytes"`, …).
    pub unit: &'static str,
    /// Aggregation kind.
    pub kind: MetricKind,
    /// True when the value depends on host wall-clock time (excluded from
    /// deterministic exports used by golden tests).
    pub wall_clock: bool,
}

/// The metric table: one row per metric — doc comment, variant, dotted
/// name, unit, kind, and the clock it is read off (`virt`: the simulated
/// schedule, deterministic for a fixed configuration; `wall`: host time or
/// host scheduling, excluded from deterministic exports). Generates
/// [`Metric`], [`REGISTRY`] and [`Metric::ALL`], in row order.
macro_rules! metrics {
    (@wall virt) => { false };
    (@wall wall) => { true };
    ($($(#[$doc:meta])* $variant:ident = $name:literal, $unit:literal, $kind:ident, $clock:ident;)*) => {
        /// The framework's metric registry. Indexes into [`REGISTRY`].
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Metric {
            $($(#[$doc])* $variant,)*
        }

        /// Definitions for every [`Metric`], in `Metric` discriminant order.
        pub static REGISTRY: [MetricDef; Metric::ALL.len()] = [$(MetricDef {
            name: $name,
            unit: $unit,
            kind: MetricKind::$kind,
            wall_clock: metrics!(@wall $clock),
        },)*];

        impl Metric {
            /// All metrics, in registry order.
            pub const ALL: [Metric; [$($name),*].len()] = [$(Metric::$variant,)*];
        }
    };
}

metrics! {
    /// Wall-clock load-balancer runtime per inter-frame (µs) — the paper's
    /// "< 2 ms scheduling overhead" claim.
    SchedOverheadUs = "sched.overhead_us", "us", Histogram, wall;
    /// Simulated τ1 sync point per inter-frame (ms).
    FrameTau1Ms = "frame.tau1_ms", "ms", Histogram, virt;
    /// Simulated τ2 sync point per inter-frame (ms).
    FrameTau2Ms = "frame.tau2_ms", "ms", Histogram, virt;
    /// Simulated τtot (frame encoding time) per inter-frame (ms).
    FrameTauTotMs = "frame.tau_tot_ms", "ms", Histogram, virt;
    /// Per-frame compute-lane busy-time imbalance, `(max−min)/max·100`.
    LbImbalancePct = "lb.imbalance_pct", "%", Histogram, virt;
    /// Simplex iterations per Algorithm 2 LP solve.
    LpIterations = "lp.iterations", "iters", Histogram, virt;
    /// Bytes *not* transferred thanks to the Δ/σ data-reuse machinery.
    DamBytesReused = "dam.bytes_reused", "bytes", Counter, virt;
    /// Bytes moved over PCIe per the DAM transfer plans.
    DamBytesTransferred = "dam.bytes_transferred", "bytes", Counter, virt;
    /// Tasks (kernels + transfers + barriers) scheduled by the VCM.
    VcmTasksScheduled = "vcm.tasks_scheduled", "tasks", Counter, virt;
    /// Frames encoded (intra + inter).
    FramesEncoded = "frames.encoded", "frames", Counter, virt;
    /// Device faults injected by the fault schedule.
    FtFaultsInjected = "ft.faults_injected", "faults", Counter, virt;
    /// Device faults detected (missed deadlines, transfer errors, stripe
    /// panics).
    FtFaultsDetected = "ft.faults_detected", "faults", Counter, virt;
    /// Detected faults the framework recovered from (re-dispatch completed).
    FtFaultsRecovered = "ft.faults_recovered", "faults", Counter, virt;
    /// Algorithm-2 re-solves on a reduced platform after a fault.
    FtResolves = "ft.resolves", "solves", Counter, virt;
    /// MB rows re-dispatched from faulty devices to survivors.
    FtRedispatchedRows = "ft.redispatched_rows", "rows", Counter, virt;
    /// Virtual time lost to fault detection + re-dispatch per affected
    /// frame (ms).
    FtRecoveryMs = "ft.recovery_ms", "ms", Histogram, virt;
    /// Drift-detector firings: a device's prediction residual stayed outside
    /// the configured band for K consecutive frames (triggers
    /// re-characterization).
    SchedDrift = "sched.drift", "events", Counter, virt;
    /// Deadline misses attributed to a device the drift detector had
    /// *already* flagged — likely model drift, not a hard fault.
    FtDriftVsFault = "ft.drift_vs_fault", "faults", Counter, virt;
    /// Absolute LP-prediction residual per device per frame,
    /// `|measured − predicted| / predicted · 100`.
    AuditResidualAbsPct = "audit.residual_abs_pct", "%", Histogram, virt;
    /// Per-frame load-imbalance index, `max/mean` compute-lane busy time
    /// (the Fig 6 quantity; 1.0 = perfectly balanced).
    LbImbalanceIndex = "lb.imbalance_index", "ratio", Histogram, virt;
    /// Checkpoints durably committed (temp + fsync + rename completed).
    CkptWrites = "ckpt.writes", "ckpts", Counter, virt;
    /// Total checkpoint bytes written across all generations.
    CkptBytes = "ckpt.bytes_written", "bytes", Counter, virt;
    /// Wall-clock time spent snapshotting + writing one checkpoint (ms).
    CkptWriteMs = "ckpt.write_ms", "ms", Histogram, wall;
    // The farm.* metrics describe the `feves serve` supervisor. All are
    // wall_clock: queue depth and retry counts depend on job arrival order
    // and host scheduling, never on the virtual encode clock.
    /// Jobs waiting in the farm admission queue (sampled at every farm
    /// state change).
    FarmQueueDepth = "farm.queue_depth", "jobs", Gauge, wall;
    /// Jobs rejected at admission because the queue was at its bound
    /// (`QueueFull`).
    FarmAdmissionRejects = "farm.admission_rejects", "jobs", Counter, wall;
    /// Session retries launched by the farm supervisor (after a panic or
    /// device fault, resuming from the last durable checkpoint).
    FarmRetries = "farm.retries", "retries", Counter, wall;
    /// Jobs that completed successfully (bitstream fully written).
    FarmJobsCompleted = "farm.jobs_completed", "jobs", Counter, wall;
    /// Jobs that exhausted their retry budget or failed fatally.
    FarmJobsFailed = "farm.jobs_failed", "jobs", Counter, wall;
    /// Wall-clock time from drain request to farm exit (ms).
    FarmDrainMs = "farm.drain_ms", "ms", Histogram, wall;
    // The pipeline.* metrics are virtual-clock quantities (derived from the
    // simulated schedule), so they stay in deterministic exports.
    /// Per-frame critical-path time shaved by inter-frame pipelining (µs):
    /// the span of frame N+1's phase-1 prefix that ran inside frame N's
    /// per-device τ-sync stalls.
    PipelineOverlapUs = "pipeline.overlap_us", "us", Histogram, virt;
    /// Per-frame total device stall recovered by the pipeline (µs), summed
    /// across devices (each device's recovered span ≤ its carried stall).
    PipelineStallRecoveredUs = "pipeline.stall_recovered_us", "us", Histogram, virt;
    // The trace.* counters are wall_clock: farm-level span counts depend on
    // retry/drain timing (how many checkpoints and attempts a run needed),
    // so they surface in live snapshots but stay out of deterministic
    // exports — trace *logs* are schema-golden-tested instead.
    /// Causal-trace spans recorded (job/queue/attempt/frame/kernel spans
    /// flowing into the farm's `TraceCollector`).
    TraceSpans = "trace.spans", "spans", Counter, wall;
    /// Causal-trace edges recorded (queue→admit, checkpoint→resume,
    /// pipeline-overlap links).
    TraceEdges = "trace.edges", "edges", Counter, wall;
    // The io.* counters and the disk-pressure gauge are wall_clock: fault
    // schedules and free-space probes depend on host state, so they surface
    // in live snapshots but stay out of deterministic exports.
    /// Transient-I/O retries spent by durable writers (checkpoints,
    /// `write_atomic`, spool/done control files).
    IoRetries = "io.retries", "retries", Counter, wall;
    /// Writes that failed with ENOSPC (disk full) — the farm's
    /// disk-pressure trigger.
    IoEnospcEvents = "io.enospc_events", "events", Counter, wall;
    /// Corrupt control files / artifacts rejected by CRC or structural
    /// validation (quarantined, never trusted).
    IoCorruptRejected = "io.corrupt_rejected", "files", Counter, wall;
    /// Farm disk-pressure state (1 = admission paused at the free-space low
    /// watermark, 0 = healthy).
    FarmDiskPressure = "farm.disk_pressure", "state", Gauge, wall;
}

impl Metric {
    /// Registry index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Static definition.
    #[inline]
    pub fn def(self) -> &'static MetricDef {
        &REGISTRY[self.index()]
    }

    /// Dotted name.
    #[inline]
    pub fn name(self) -> &'static str {
        self.def().name
    }
}

/// Exact percentile by the nearest-rank method over `values` (reordered in
/// place). `p` in `[0, 100]`. NaN samples are ignored; returns `f64::NAN`
/// when no finite-comparable sample remains (empty or all-NaN input).
pub fn percentile_exact(values: &mut [f64], p: f64) -> f64 {
    // Partition NaNs to the tail, then rank only over the real prefix.
    let mut n = values.len();
    let mut i = 0;
    while i < n {
        if values[i].is_nan() {
            n -= 1;
            values.swap(i, n);
        } else {
            i += 1;
        }
    }
    if n == 0 {
        return f64::NAN;
    }
    values[..n].sort_by(|a, b| a.partial_cmp(b).expect("NaNs were partitioned out"));
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    values[rank.clamp(1, n) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_clocked() {
        let mut names: Vec<_> = REGISTRY.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Metric::ALL.len(), "names are unique");
        assert_eq!(Metric::SchedOverheadUs.name(), "sched.overhead_us");
        assert_eq!(Metric::LpIterations.name(), "lp.iterations");
        assert!(Metric::SchedOverheadUs.def().wall_clock);
        assert!(!Metric::FrameTauTotMs.def().wall_clock);
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile_exact(&mut v, 50.0), 2.0);
        assert_eq!(percentile_exact(&mut v, 75.0), 3.0);
        assert_eq!(percentile_exact(&mut v, 100.0), 4.0);
        assert_eq!(percentile_exact(&mut v, 0.0), 1.0);
        let mut one = vec![7.5];
        assert_eq!(percentile_exact(&mut one, 99.0), 7.5);
    }

    #[test]
    fn percentile_empty_and_nan_inputs() {
        assert!(percentile_exact(&mut [], 50.0).is_nan());
        let mut all_nan = vec![f64::NAN, f64::NAN];
        assert!(percentile_exact(&mut all_nan, 50.0).is_nan());
        // NaNs are ignored, not counted toward the rank.
        let mut mixed = vec![f64::NAN, 3.0, 1.0, f64::NAN, 2.0];
        assert_eq!(percentile_exact(&mut mixed, 50.0), 2.0);
        assert_eq!(percentile_exact(&mut mixed, 100.0), 3.0);
        assert_eq!(percentile_exact(&mut mixed, 0.0), 1.0);
        // A single finite value among NaNs is every percentile.
        let mut lone = vec![f64::NAN, 5.0];
        assert_eq!(percentile_exact(&mut lone, 1.0), 5.0);
        assert_eq!(percentile_exact(&mut lone, 99.0), 5.0);
    }
}
